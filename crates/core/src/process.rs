//! Shared state of one distributed DEX process.
//!
//! A [`ProcessShared`] is the cluster-wide identity of a process: the
//! per-node address-space replicas, the origin-side ownership directory
//! and futex table, the per-node fault-coalescing tables and pending
//! request tables, the delegation channels to each thread's original
//! thread, and the statistics sinks. All protocol components (the thread
//! fault path, the node dispatchers, the remote workers) operate on this
//! structure.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{CounterTable, NodeId, SpanContext};
use dex_os::{AddressSpace, FutexTable, PageFrame, Pid, RadixTree, Tid, VirtAddr, Vpn, PAGE_SIZE};
use dex_sim::{Histogram, MultiResource, Resource, SimChannel, SimCtx, SimDuration, ThreadId};

use crate::cost::CostModel;
use crate::counters::Counter;
use crate::directory::Directory;
use crate::msg::{DelegatedOp, DexMsg, MigrationPhases, Reply, VmaOp};
use crate::protocol::{self, HomeIn, Node, NodeState, Output};
use crate::span::SpanBuffer;

/// Re-exported alias so `process` stays readable.
pub(crate) type Endpoint = dex_net::Endpoint<DexMsg>;
pub(crate) type Fabric = dex_net::Fabric<DexMsg>;

/// Why a watched wait gave up instead of returning a reply. `P` is the
/// type of the watched peer: [`Unwatched`] when the wait watches only its
/// own node, which rules `PeerCrashed` out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WaitError<P = NodeId> {
    /// The node this thread executes on fail-stopped: the request (or its
    /// reply) was lost and the thread must re-home to the origin.
    OwnNodeCrashed,
    /// The peer the reply must come from fail-stopped and no recovery
    /// path will produce the reply.
    PeerCrashed(P),
}

/// The peer of a wait that watches none: it has no values.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Unwatched {}

impl From<Unwatched> for NodeId {
    fn from(never: Unwatched) -> NodeId {
        match never {}
    }
}

/// The `peer` argument of a wait that watches only its own node.
pub(crate) const UNWATCHED: Option<Unwatched> = None;

/// Crash-detection timeouts before a bounded watched wait declares the
/// run stuck (diagnosable failure instead of a silent hang).
const MAX_WATCH_ROUNDS: u32 = 4096;

struct Pending {
    thread: ThreadId,
    slot: Arc<Mutex<Option<Reply>>>,
    /// For broadcasts: the peers whose acknowledgments are outstanding
    /// (crash recovery completes entries whose peer died). Empty for a
    /// request answered by one reply.
    awaiting: Vec<NodeId>,
}

/// Per-node table of requests awaiting replies, keyed by request id.
#[derive(Default)]
pub(crate) struct PendingTable {
    map: HashMap<u64, Pending>,
}

/// A job routed to a thread's original (pair) thread at the origin.
pub(crate) struct DelegationJob {
    pub op: DelegatedOp,
    pub from: NodeId,
    pub req_id: u64,
    /// The delegating thread's span, so the service span stitches to it.
    pub span: SpanContext,
}

/// Per-(process, node) migration bookkeeping.
#[derive(Default)]
pub(crate) struct RemoteNodeState {
    /// The remote worker for this process exists on this node.
    pub worker_started: bool,
    /// Channel to the remote worker: node-wide operations, each with the
    /// request id and node its acknowledgment answers.
    pub worker_chan: Option<SimChannel<(VmaOp, u64, NodeId)>>,
}

/// An object span registered by a tagged allocation; the profiler
/// attributes faults to the innermost covering span (the offline
/// equivalent of resolving the faulting address against debug info).
#[derive(Clone, Debug)]
pub struct ObjectSpan {
    /// First byte of the object.
    pub start: VirtAddr,
    /// One past the last byte.
    pub end: VirtAddr,
    /// The user-visible tag.
    pub tag: String,
}

/// Timing of one migration (drives Table II and Figure 3).
#[derive(Clone, Debug)]
pub struct MigrationSample {
    /// Forward (origin→remote) or backward.
    pub forward: bool,
    /// First migration of this process onto the destination node (pays
    /// remote-worker creation).
    pub first_on_node: bool,
    /// Time spent at the initiating side capturing/updating state.
    pub origin_side: SimDuration,
    /// Time spent at the receiving side (sum of `phases`).
    pub remote_side: SimDuration,
    /// End-to-end latency observed by the thread.
    pub total: SimDuration,
    /// Receiving-side phase breakdown.
    pub phases: MigrationPhases,
}

/// The cluster-wide shared state of one DEX process.
pub struct ProcessShared {
    /// Process id.
    pub pid: Pid,
    /// The node the process was created on.
    pub origin: NodeId,
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Calibrated kernel-path costs.
    pub cost: CostModel,
    /// The messaging fabric.
    pub fabric: Arc<Fabric>,
    /// Per-node address-space replicas (`spaces[origin]` is authoritative
    /// for VMAs).
    pub spaces: Vec<Mutex<AddressSpace>>,
    /// Ownership-directory shards. The classic configuration has exactly
    /// one, living at the origin; with `dir_shards > 1` pages hash across
    /// per-node homes and each shard services its pages with owner
    /// forwarding. Route by page via [`ProcessShared::directory_for`].
    pub directories: Vec<Mutex<Directory>>,
    /// Number of directory homes pages hash across (1 = classic
    /// single-origin directory).
    pub dir_shards: usize,
    /// Per-node page-protocol state (coalescing table, in-flight marks,
    /// parked work, staged contents) the [`protocol`] steps run on.
    pub(crate) proto: Vec<Mutex<NodeState<PageFrame>>>,
    /// Origin-side futex wait queues (waiters keyed by request id).
    pub futex: Mutex<FutexTable>,
    /// Node each futex waiter's reply must be sent to.
    pub futex_nodes: Mutex<HashMap<u64, NodeId>>,
    /// The thread whose wake woke each futex waiter, until the waiter
    /// returns (kept only under race detection).
    pub(crate) futex_wakers: Mutex<HashMap<u64, Tid>>,
    /// Per-node pending-request tables.
    pub(crate) pending: Vec<Mutex<PendingTable>>,
    /// Delegation channels to each migrated thread's original thread.
    pub(crate) delegation: Mutex<HashMap<Tid, SimChannel<DelegationJob>>>,
    /// Per-node migration bookkeeping.
    pub(crate) remote_nodes: Vec<Mutex<RemoteNodeState>>,
    /// Per-node shared memory-bandwidth pipes.
    pub mem_bw: Vec<Resource>,
    /// Per-node core pools.
    pub cores: Vec<MultiResource>,
    /// Distribution of protocol-fault handling times (per leader fault).
    pub fault_hist: Histogram,
    /// Per-migration timing samples.
    pub migrations: Mutex<Vec<MigrationSample>>,
    /// This process's protocol counters, one row per node: its table in
    /// the fabric's metrics registry.
    counters: Arc<CounterTable>,
    /// Causal span sink (disabled unless `ClusterConfig::with_spans`).
    pub spans: SpanBuffer,
    /// Synchronization/access event sink for dynamic race detection.
    pub race: crate::race::RaceTrace,
    /// Seeded protocol bug, consulted by the coherence fault path
    /// (mutation testing of `dex-check explore`).
    pub mutation: crate::ProtocolMutation,
    /// Tagged object spans for fault attribution.
    pub objects: Mutex<Vec<ObjectSpan>>,
    /// Number of application threads currently executing on each node
    /// (drives load-aware placement).
    pub(crate) node_threads: Mutex<Vec<i64>>,
    /// Per-node flag: this node's crash has been processed (directory
    /// reclaim + broadcast completion ran). Idempotence guard for
    /// [`ProcessShared::maybe_handle_crashes`].
    crashes_handled: Mutex<Vec<bool>>,
    /// Bump pointer inside the shared heap VMA.
    pub(crate) heap_cursor: Mutex<u64>,
    /// End of the shared heap VMA.
    pub(crate) heap_end: u64,
    next_req_id: AtomicU64,
    next_tid: AtomicU64,
}

impl ProcessShared {
    /// Creates the process state. `heap_pages` sizes the shared heap VMA
    /// that the bump allocator hands out.
    #[allow(clippy::too_many_arguments)] // internal constructor mirroring the config
    pub(crate) fn new(
        pid: Pid,
        origin: NodeId,
        nodes: usize,
        cost: CostModel,
        fabric: Arc<Fabric>,
        spans: SpanBuffer,
        race: crate::race::RaceTrace,
        heap_pages: u64,
        mutation: crate::ProtocolMutation,
        dir_shards: usize,
    ) -> Arc<Self> {
        let mut spaces: Vec<Mutex<AddressSpace>> = (0..nodes)
            .map(|_| Mutex::new(AddressSpace::new()))
            .collect();
        // Create the heap VMA on the origin replica; remote replicas learn
        // about it through on-demand VMA synchronization.
        let heap_base = {
            let space = spaces[origin.0 as usize].get_mut();
            space.vmas.mmap(
                heap_pages * PAGE_SIZE as u64,
                dex_os::Prot::RW,
                dex_os::VmaKind::Heap,
                Some("heap".to_string()),
            )
        };
        let mem_bw = (0..nodes)
            .map(|_| Resource::with_rate_bytes_per_sec(cost.mem_bandwidth_bytes_per_sec))
            .collect();
        let cores = (0..nodes)
            .map(|_| MultiResource::new(cost.cores_per_node))
            .collect();
        // The sharded configuration caps the home count at the cluster
        // size (a home must be a real node); `<= 1` is the classic
        // single-origin directory.
        let dir_shards = if dir_shards > 1 {
            dir_shards.min(nodes)
        } else {
            1
        };
        let directories = if dir_shards > 1 {
            (0..dir_shards)
                .map(|n| Mutex::new(Directory::forwarded(NodeId(n as u16), origin)))
                .collect()
        } else {
            vec![Mutex::new(Directory::new(origin))]
        };
        let counters = fabric.metrics().add_node_table(Counter::NAMES);
        Arc::new(ProcessShared {
            pid,
            origin,
            nodes,
            cost,
            fabric,
            spaces,
            directories,
            dir_shards,
            proto: (0..nodes).map(|_| Mutex::default()).collect(),
            futex: Mutex::new(FutexTable::new()),
            futex_nodes: Mutex::new(HashMap::new()),
            futex_wakers: Mutex::new(HashMap::new()),
            pending: (0..nodes)
                .map(|_| Mutex::new(PendingTable::default()))
                .collect(),
            delegation: Mutex::new(HashMap::new()),
            remote_nodes: (0..nodes)
                .map(|_| Mutex::new(RemoteNodeState::default()))
                .collect(),
            mem_bw,
            cores,
            fault_hist: Histogram::new(),
            migrations: Mutex::new(Vec::new()),
            counters,
            spans,
            race,
            mutation,
            objects: Mutex::new(Vec::new()),
            node_threads: Mutex::new(vec![0; nodes]),
            crashes_handled: Mutex::new(vec![false; nodes]),
            heap_cursor: Mutex::new(heap_base.as_u64()),
            heap_end: heap_base.as_u64() + heap_pages * PAGE_SIZE as u64,
            next_req_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(0),
        })
    }

    /// Adjusts the application-thread count of `node` (placement policy
    /// bookkeeping).
    pub(crate) fn adjust_load(&self, node: NodeId, delta: i64) {
        let mut loads = self.node_threads.lock();
        loads[node.0 as usize] += delta;
        debug_assert!(loads[node.0 as usize] >= 0, "negative node load");
    }

    /// Application threads currently executing on each node.
    pub fn thread_counts(&self) -> Vec<i64> {
        self.node_threads.lock().clone()
    }

    /// Counts `n` occurrences of `counter` at `node`.
    pub(crate) fn count(&self, node: NodeId, counter: Counter, n: u64) {
        self.counters.add(node.0 as usize, counter as usize, n);
    }

    /// This process's protocol counters, one row per node.
    pub fn counters(&self) -> &CounterTable {
        &self.counters
    }

    /// Allocates a cluster-unique request id.
    pub(crate) fn new_req_id(&self) -> u64 {
        self.next_req_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Takes the thread whose `FUTEX_WAKE` woke waiter `req_id`; `Tid(0)`
    /// when race detection is off (nothing records a waker then).
    pub(crate) fn take_waker(&self, req_id: u64) -> Tid {
        if !self.race.is_enabled() {
            return Tid(0);
        }
        let waker = self.futex_wakers.lock().remove(&req_id);
        waker.expect("a woken waiter has a recorded waker")
    }

    /// Allocates the next thread id.
    pub(crate) fn new_tid(&self) -> Tid {
        Tid(self.next_tid.fetch_add(1, Ordering::Relaxed))
    }

    /// The address-space replica of `node`.
    pub fn space(&self, node: NodeId) -> &Mutex<AddressSpace> {
        &self.spaces[node.0 as usize]
    }

    /// Whether the sharded (owner-forwarding) directory configuration is
    /// active.
    pub fn is_sharded(&self) -> bool {
        self.dir_shards > 1
    }

    /// The directory home of `vpn`: the origin in the classic
    /// configuration, else the shard the page hashes to.
    pub fn home_of(&self, vpn: Vpn) -> NodeId {
        if self.dir_shards <= 1 {
            self.origin
        } else {
            NodeId((vpn.index() % self.dir_shards as u64) as u16)
        }
    }

    /// The directory (shard) responsible for `vpn`.
    pub fn directory_for(&self, vpn: Vpn) -> &Mutex<Directory> {
        if self.dir_shards <= 1 {
            &self.directories[0]
        } else {
            &self.directories[self.home_of(vpn).0 as usize]
        }
    }

    // ---- protocol-core plumbing ----

    /// Runs `f` on `node` as the protocol steps see it — protocol state,
    /// page table and frames — locked for the duration of one step.
    pub(crate) fn with_node<R>(
        &self,
        node: NodeId,
        f: impl FnOnce(&mut Node<'_, RadixTree<PageFrame>>) -> R,
    ) -> R {
        let mut state = self.proto[node.0 as usize].lock();
        let mut space = self.space(node).lock();
        let (page_table, frames) = space.page_table_and_frames();
        f(&mut Node {
            state: &mut state,
            page_table,
            frames,
            mutation: self.mutation,
        })
    }

    /// Runs one home-role step for `vpn` at its home node `home`. The
    /// directory transition and the home's PTE changes happen under one
    /// set of locks, so they are atomic with respect to other simulated
    /// threads; the caller performs the returned outputs in order.
    pub(crate) fn home_step(
        &self,
        home: NodeId,
        vpn: Vpn,
        input: HomeIn<PageFrame>,
    ) -> Vec<Output<PageFrame>> {
        let mut dir = self.directory_for(vpn).lock();
        let zero_page = self.cost.zero_page_optimization;
        self.with_node(home, |node| {
            protocol::home_step(&mut dir, node, zero_page, input)
        })
    }

    /// Bump-allocates `len` bytes in the shared heap with the given
    /// alignment, registering `tag` as an object span when provided.
    ///
    /// # Panics
    ///
    /// Panics when the heap VMA is exhausted.
    pub fn alloc_raw(&self, len: u64, align: u64, tag: Option<&str>) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut cursor = self.heap_cursor.lock();
        let start = (*cursor + align - 1) & !(align - 1);
        let end = start + len.max(1);
        assert!(
            end <= self.heap_end,
            "shared heap exhausted: {} bytes requested, {} available",
            len,
            self.heap_end - *cursor
        );
        *cursor = end;
        if let Some(tag) = tag {
            self.objects.lock().push(ObjectSpan {
                start: VirtAddr::new(start),
                end: VirtAddr::new(end),
                tag: tag.to_string(),
            });
        }
        VirtAddr::new(start)
    }

    /// Resolves the attribution tag for `addr`: the innermost registered
    /// object span, falling back to the covering VMA's tag.
    pub fn tag_for(&self, node: NodeId, addr: VirtAddr) -> Option<String> {
        let objects = self.objects.lock();
        let mut best: Option<&ObjectSpan> = None;
        for span in objects.iter() {
            if span.start <= addr && addr < span.end {
                let better = match best {
                    None => true,
                    Some(b) => {
                        (span.end.as_u64() - span.start.as_u64())
                            < (b.end.as_u64() - b.start.as_u64())
                    }
                };
                if better {
                    best = Some(span);
                }
            }
        }
        if let Some(span) = best {
            return Some(span.tag.clone());
        }
        self.space(node)
            .lock()
            .vmas
            .find(addr)
            .and_then(|vma| vma.tag.clone())
    }

    /// Writes `bytes` directly into the origin replica (pre-run
    /// initialization; costs no virtual time, like data loaded before the
    /// parallel region starts).
    pub fn write_init(&self, addr: VirtAddr, bytes: &[u8]) {
        self.space(self.origin).lock().write(addr, bytes);
    }

    /// Reads bytes from the cluster-wide *up-to-date* view of memory:
    /// each page is sourced from its current exclusive writer, else from a
    /// node holding a read replica, else from the origin replica. Used to
    /// collect results after a run.
    pub fn read_coherent(&self, addr: VirtAddr, dst: &mut [u8]) {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < dst.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(dst.len() - filled);
            let node = self.up_to_date_node(cursor.vpn());
            self.space(node)
                .lock()
                .read(cursor, &mut dst[filled..filled + chunk]);
            filled += chunk;
            cursor = cursor.add(chunk as u64);
        }
    }

    fn up_to_date_node(&self, vpn: Vpn) -> NodeId {
        // The directory does not expose writer lookup publicly; consult
        // per-node PTEs instead. Once the run is quiescent a writable
        // mapping is the authoritative copy; failing that, every read
        // replica is current, while the origin's frame may be stale: a
        // sharded home other than the origin grants without staging there.
        let pte = |node: NodeId| self.space(node).lock().page_table.entry(vpn);
        let nodes = || (0..self.nodes).map(|n| NodeId(n as u16));
        nodes()
            .find(|&node| {
                let pte = pte(node);
                pte.present && pte.writable
            })
            .or_else(|| nodes().find(|&node| pte(node).present))
            .unwrap_or(self.origin)
    }

    // ---- pending request plumbing ----

    /// Registers request `req_id` at `node` for the calling thread. It is
    /// answered by one reply when `awaiting` is empty, else by one
    /// acknowledgment from each of `awaiting` — crash recovery completes
    /// the share of a peer that fail-stops before acking.
    pub(crate) fn register(
        &self,
        ctx: &SimCtx,
        node: NodeId,
        req_id: u64,
        awaiting: &[NodeId],
    ) -> Arc<Mutex<Option<Reply>>> {
        let slot = Arc::new(Mutex::new(None));
        self.pending[node.0 as usize].lock().map.insert(
            req_id,
            Pending {
                thread: ctx.id(),
                slot: Arc::clone(&slot),
                awaiting: awaiting.to_vec(),
            },
        );
        slot
    }

    /// Drops the pending entry for an abandoned request (the waiting
    /// thread re-homed after its node crashed).
    pub(crate) fn abandon_pending(&self, node: NodeId, req_id: u64) {
        self.pending[node.0 as usize].lock().map.remove(&req_id);
    }

    /// Parks until the pending slot is filled, returning the reply.
    pub(crate) fn wait_reply(&self, ctx: &SimCtx, slot: &Arc<Mutex<Option<Reply>>>) -> Reply {
        loop {
            if let Some(reply) = slot.lock().take() {
                return reply;
            }
            ctx.park();
        }
    }

    /// Like [`ProcessShared::wait_reply`], but survives faults: instead of
    /// parking forever the thread wakes on a back-off schedule, processes
    /// any node crash it is the first to notice, and gives up when its own
    /// node (or `peer`, when given) is the casualty. Pass [`UNWATCHED`]
    /// to watch only the own node.
    ///
    /// With no fault plan active this *is* `wait_reply` — no timers are
    /// scheduled, so fault-free schedules stay bit-identical.
    ///
    /// `unbounded` suppresses the stuck-run panic for waits with no
    /// deadline of their own (futex waits).
    pub(crate) fn wait_reply_watching<P: Copy + Into<NodeId>>(
        self: &Arc<Self>,
        ctx: &SimCtx,
        slot: &Arc<Mutex<Option<Reply>>>,
        local: NodeId,
        req_id: u64,
        peer: Option<P>,
        unbounded: bool,
    ) -> Result<Reply, WaitError<P>> {
        if !self.fabric.faults_enabled() {
            return Ok(self.wait_reply(ctx, slot));
        }
        let mut interval = self.cost.fault_watch_interval;
        let mut rounds = 0u32;
        loop {
            if let Some(reply) = slot.lock().take() {
                return Ok(reply);
            }
            if ctx.park_until(ctx.now() + interval) {
                rounds += 1;
                self.maybe_handle_crashes(ctx);
                let now = ctx.now();
                if self.fabric.node_crashed(local, now) {
                    self.abandon_pending(local, req_id);
                    return Err(WaitError::OwnNodeCrashed);
                }
                if let Some(p) = peer {
                    if self.fabric.node_crashed(p.into(), now) {
                        self.abandon_pending(local, req_id);
                        return Err(WaitError::PeerCrashed(p));
                    }
                }
                assert!(
                    unbounded || rounds < MAX_WATCH_ROUNDS,
                    "request {req_id} at {local} got no reply after {rounds} \
                     crash-watch timeouts: protocol stuck without a crash"
                );
                interval = (interval + interval).min(self.cost.fault_watch_cap);
            }
        }
    }

    /// Runs crash recovery for every node whose crash time has passed and
    /// has not been processed yet. Idempotent; any thread that notices a
    /// crash (via a watch timeout) calls this, and exactly one performs
    /// the recovery.
    pub(crate) fn maybe_handle_crashes(self: &Arc<Self>, ctx: &SimCtx) {
        if !self.fabric.faults_enabled() {
            return;
        }
        let now = ctx.now();
        for n in 0..self.nodes {
            if !self.fabric.node_crashed(NodeId(n as u16), now) {
                continue;
            }
            let first = {
                let mut handled = self.crashes_handled.lock();
                !std::mem::replace(&mut handled[n], true)
            };
            if first {
                self.handle_node_crash(ctx, NodeId(n as u16));
            }
        }
    }

    /// Origin-side recovery from the fail-stop of `dead`: the directory
    /// reclaims the dead node's page ownership (re-granting to surviving
    /// requesters), and broadcasts waiting on its acknowledgment complete
    /// without it. Models the origin kernel's cleanup when the fabric
    /// reports a peer unreachable.
    ///
    /// # Panics
    ///
    /// Panics when `dead` is the origin: the directory and every thread's
    /// home live there, so an origin crash is process death.
    fn handle_node_crash(self: &Arc<Self>, ctx: &SimCtx, dead: NodeId) {
        assert_ne!(
            dead, self.origin,
            "origin node crashed: unsupported (process death)"
        );
        self.count(self.origin, Counter::FaultsCrashesHandled, 1);
        for dir in &self.directories {
            let (home, reclaimed) = {
                let mut dir = dir.lock();
                // A shard homed on the dead node died with it: pages
                // hashed there are unrecoverable (their requesters see
                // the peer crash instead).
                if dir.home() == dead {
                    continue;
                }
                (dir.home(), dir.on_node_crash(dead))
            };
            let endpoint = self.fabric.endpoint(home);
            for (vpn, actions) in reclaimed {
                self.count(home, Counter::FaultsPagesReclaimed, 1);
                let outs = self.home_step(home, vpn, HomeIn::Reclaim { vpn, actions });
                let span = SpanContext::NONE;
                crate::dispatch::perform_outputs(ctx, self, &endpoint, home, outs, span);
            }
        }
        self.complete_broadcasts_for_dead(ctx, dead);
    }

    /// Completes (on behalf of `dead`) every origin-side broadcast entry
    /// still awaiting its acknowledgment.
    fn complete_broadcasts_for_dead(&self, ctx: &SimCtx, dead: NodeId) {
        let origin = self.origin;
        let mut ids: Vec<u64> = self.pending[origin.0 as usize]
            .lock()
            .map
            .iter()
            .filter(|(_, entry)| entry.awaiting.contains(&dead))
            .map(|(id, _)| *id)
            .collect();
        // Deterministic order: HashMap iteration order must not leak into
        // the unpark sequence.
        ids.sort_unstable();
        for id in ids {
            self.complete(ctx, origin, id, dead, Reply::BroadcastDone);
        }
    }

    /// Completes request `req_id` at `node` with `reply` from `from`,
    /// waking the registered thread once nothing else is outstanding.
    /// `from` matters only for an entry awaiting peers. With faults on, an
    /// answer nobody waits for — its waiter abandoned the request, or
    /// crash recovery already completed that peer's share — is a stale
    /// reply.
    pub(crate) fn complete(
        &self,
        ctx: &SimCtx,
        node: NodeId,
        req_id: u64,
        from: NodeId,
        reply: Reply,
    ) {
        let thread = {
            let mut table = self.pending[node.0 as usize].lock();
            let Entry::Occupied(mut entry) = table.map.entry(req_id) else {
                if !self.fabric.faults_enabled() {
                    panic!("reply for unknown request {req_id} at {node}");
                }
                self.count(node, Counter::FaultsStaleReplies, 1);
                return;
            };
            let awaiting = &mut entry.get_mut().awaiting;
            if !awaiting.is_empty() {
                let Some(pos) = awaiting.iter().position(|n| *n == from) else {
                    self.count(node, Counter::FaultsStaleReplies, 1);
                    return;
                };
                awaiting.swap_remove(pos);
                if !awaiting.is_empty() {
                    return;
                }
            }
            let pending = entry.remove();
            *pending.slot.lock() = Some(reply);
            pending.thread
        };
        ctx.unpark(thread);
    }
}

impl std::fmt::Debug for ProcessShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessShared")
            .field("pid", &self.pid)
            .field("origin", &self.origin)
            .field("nodes", &self.nodes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_net::NetConfig;

    fn shared(nodes: usize) -> Arc<ProcessShared> {
        let fabric = Fabric::new(NetConfig::default(), nodes);
        ProcessShared::new(
            Pid(1),
            NodeId(0),
            nodes,
            CostModel::default(),
            fabric,
            SpanBuffer::disabled(),
            crate::race::RaceTrace::disabled(),
            1024,
            crate::ProtocolMutation::None,
            1,
        )
    }

    #[test]
    fn alloc_respects_alignment_and_packing() {
        let p = shared(2);
        let a = p.alloc_raw(10, 8, None);
        let b = p.alloc_raw(10, 8, None);
        // Packed allocations land on the same page (the false-sharing
        // hazard the paper optimizes away).
        assert_eq!(a.vpn(), b.vpn());
        let c = p.alloc_raw(10, PAGE_SIZE as u64, None);
        assert_eq!(c.page_offset(), 0);
        assert_ne!(c.vpn(), a.vpn());
    }

    #[test]
    #[should_panic(expected = "heap exhausted")]
    fn heap_exhaustion_panics() {
        let p = shared(1);
        let _ = p.alloc_raw(1024 * PAGE_SIZE as u64 + 1, 8, None);
    }

    #[test]
    fn tag_resolution_prefers_innermost_object() {
        let p = shared(1);
        let big = p.alloc_raw(PAGE_SIZE as u64 * 2, 8, Some("arena"));
        p.objects.lock().push(ObjectSpan {
            start: big,
            end: big.add(64),
            tag: "counter".to_string(),
        });
        assert_eq!(p.tag_for(NodeId(0), big.add(10)), Some("counter".into()));
        assert_eq!(p.tag_for(NodeId(0), big.add(100)), Some("arena".into()));
    }

    #[test]
    fn tag_falls_back_to_vma_tag() {
        let p = shared(1);
        let untagged = p.alloc_raw(64, 8, None);
        // The heap VMA itself is tagged "heap".
        assert_eq!(p.tag_for(NodeId(0), untagged), Some("heap".into()));
    }

    #[test]
    fn write_init_lands_in_origin_replica() {
        let p = shared(2);
        let addr = p.alloc_raw(16, 8, None);
        p.write_init(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        p.space(NodeId(0)).lock().read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn read_coherent_prefers_writable_replica() {
        let p = shared(2);
        let addr = p.alloc_raw(8, 8, None);
        p.write_init(addr, &[1; 8]);
        // Simulate node 1 having taken the page exclusively.
        {
            let mut s1 = p.space(NodeId(1)).lock();
            s1.write(addr, &[9; 8]);
            s1.page_table.set(addr.vpn(), dex_os::Pte::READ_WRITE);
            let mut s0 = p.space(NodeId(0)).lock();
            s0.page_table.clear(addr.vpn());
        }
        let mut buf = [0u8; 8];
        p.read_coherent(addr, &mut buf);
        assert_eq!(buf, [9; 8]);
    }
}
