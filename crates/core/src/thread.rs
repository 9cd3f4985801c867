//! The per-thread execution context: transparent memory access, thread
//! migration, and delegated system calls.
//!
//! A [`ThreadCtx`] is what application code sees. Its memory operations
//! perform the same PTE permission check the MMU would; misses enter the
//! DEX fault path (leader–follower coalescing, then the ownership
//! protocol). [`ThreadCtx::migrate`] relocates the thread to another node
//! exactly as §III-A describes: context capture at the origin side,
//! remote-worker creation on the first migration of the process to a node,
//! thread fork on later ones, and a paired original thread at the origin
//! that services delegated work while the thread is away.

use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, ExecutionContext, MemFault, Prot, Tid, VirtAddr, VmaKind, Vpn, PAGE_SIZE};
use dex_sim::{SimChannel, SimCtx, SimDuration, ThreadId};

use crate::counters::Counter;
use crate::dispatch::perform_outputs;
use crate::msg::{DelegatedOp, DexMsg, Reply, VmaOp};
use crate::process::{DelegationJob, MigrationSample, ProcessShared, WaitError, UNWATCHED};
use crate::protocol::{self, requester_step, HomeIn, Output, PageMsg, RequesterIn};
use crate::race::{RaceEvent, RaceEventKind};
use crate::span::{Span, SpanId, SpanKind};

/// The wire form of an optional span id (0 encodes "no span").
fn span_ctx(span: Option<SpanId>) -> SpanContext {
    span.map_or(SpanContext::NONE, |s| SpanContext(s.0))
}

/// `EAGAIN`-style result of a futex wait whose word changed first.
pub const FUTEX_EAGAIN: i64 = -11;

/// The value an access event records: the first `min(len, 8)` bytes of
/// the transferred data, little-endian. Enough for the SC oracle to
/// distinguish the word-sized writes application workloads use.
fn access_value(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

/// Error from [`ThreadCtx::migrate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrateError {
    /// The destination node does not exist in this cluster.
    NoSuchNode {
        /// The requested destination.
        requested: NodeId,
        /// Number of nodes in the cluster.
        nodes: usize,
    },
    /// The destination node fail-stopped before the migration completed
    /// (fault-injection runs only); the thread stays where it was.
    NodeCrashed {
        /// The crashed destination.
        node: NodeId,
    },
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NoSuchNode { requested, nodes } => {
                write!(
                    f,
                    "cannot migrate to {requested}: cluster has {nodes} nodes"
                )
            }
            MigrateError::NodeCrashed { node } => {
                write!(f, "cannot migrate to {node}: the node crashed")
            }
        }
    }
}

impl std::error::Error for MigrateError {}

/// Handle to a spawned application thread; lets the parent join it.
#[derive(Clone)]
pub struct DexThread {
    tid: Tid,
    state: Arc<Mutex<JoinState>>,
}

#[derive(Default)]
struct JoinState {
    done: bool,
    waiters: Vec<ThreadId>,
}

impl DexThread {
    pub(crate) fn new(tid: Tid) -> Self {
        DexThread {
            tid,
            state: Arc::new(Mutex::new(JoinState::default())),
        }
    }

    /// Called by the thread itself once its closure has returned.
    pub(crate) fn mark_done(&self, tctx: &ThreadCtx<'_>) {
        tctx.record_race_event(RaceEventKind::ThreadExit);
        let waiters = {
            let mut st = self.state.lock();
            st.done = true;
            std::mem::take(&mut st.waiters)
        };
        for w in waiters {
            tctx.sim.unpark(w);
        }
    }

    /// Blocks (in virtual time) until the thread's closure returns.
    pub fn join(&self, ctx: &ThreadCtx<'_>) {
        loop {
            {
                let mut st = self.state.lock();
                if st.done {
                    ctx.record_race_event(RaceEventKind::Join { child: self.tid });
                    return;
                }
                st.waiters.push(ctx.sim.id());
            }
            ctx.sim.park();
        }
    }

    /// Returns `true` once the thread's closure has returned.
    pub fn is_done(&self) -> bool {
        self.state.lock().done
    }
}

impl std::fmt::Debug for DexThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DexThread")
            .field("done", &self.is_done())
            .finish()
    }
}

/// The execution context of one application thread.
///
/// Obtained from [`DexProcess::spawn`](crate::DexProcess::spawn) or
/// [`ThreadCtx::spawn_thread`]; borrowed by the thread's closure for its
/// whole lifetime.
pub struct ThreadCtx<'a> {
    pub(crate) sim: &'a SimCtx,
    pub(crate) shared: Arc<ProcessShared>,
    tid: Tid,
    node: Cell<NodeId>,
    site: Cell<&'static str>,
    has_migrated: Cell<bool>,
    pair_started: Cell<bool>,
    /// Nesting depth inside synchronization primitives: while positive,
    /// raw access/futex events are suppressed and the primitives emit
    /// semantic race events instead.
    sync_depth: Cell<u32>,
}

impl<'a> ThreadCtx<'a> {
    pub(crate) fn new(sim: &'a SimCtx, shared: Arc<ProcessShared>, tid: Tid) -> Self {
        let origin = shared.origin;
        ThreadCtx {
            sim,
            shared,
            tid,
            node: Cell::new(origin),
            site: Cell::new("unknown"),
            has_migrated: Cell::new(false),
            pair_started: Cell::new(false),
            sync_depth: Cell::new(0),
        }
    }

    // ---- race-event recording ----

    /// Runs `f` with raw access/futex race recording suppressed; the
    /// synchronization primitives use this so their internal word traffic
    /// is never mistaken for an application race.
    pub(crate) fn sync_scope<R>(&self, f: impl FnOnce() -> R) -> R {
        self.sync_depth.set(self.sync_depth.get() + 1);
        let r = f();
        self.sync_depth.set(self.sync_depth.get() - 1);
        r
    }

    /// Records a semantic race event unconditionally (used by the
    /// synchronization primitives even inside [`ThreadCtx::sync_scope`]).
    pub(crate) fn record_sync_event(&self, kind: RaceEventKind) {
        if self.shared.race.is_enabled() {
            self.shared.race.record(RaceEvent {
                time: self.sim.now(),
                node: self.node.get(),
                task: self.tid,
                site: self.site.get(),
                kind,
            });
        }
    }

    /// Records an access/futex event unless inside a sync primitive.
    fn record_race_event(&self, kind: RaceEventKind) {
        if self.sync_depth.get() == 0 {
            self.record_sync_event(kind);
        }
    }

    /// The thread's id within the process.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The node the thread currently executes on.
    pub fn node(&self) -> NodeId {
        self.node.get()
    }

    /// The process origin node.
    pub fn origin(&self) -> NodeId {
        self.shared.origin
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.shared.nodes
    }

    /// The shared process state (allocation, statistics).
    pub fn process(&self) -> &Arc<ProcessShared> {
        &self.shared
    }

    /// The underlying simulation context.
    pub fn sim(&self) -> &SimCtx {
        self.sim
    }

    /// Labels subsequent memory accesses with a code-site string — the
    /// profiler's analogue of the faulting instruction address.
    pub fn set_site(&self, site: &'static str) {
        self.site.set(site);
    }

    // ---- compute model ----

    /// Performs `ops` abstract compute operations on one of this node's
    /// cores (queueing if the node is oversubscribed).
    pub fn compute_ops(&self, ops: u64) {
        let d = self.shared.cost.compute_time(ops);
        self.compute(d);
    }

    /// Occupies a core for `d` of virtual time.
    pub fn compute(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.shared.cores[self.node.get().0 as usize].acquire(self.sim, d);
    }

    /// Streams `bytes` through this node's shared memory-bandwidth pipe —
    /// the contended resource that caps memory-bound applications on a
    /// single machine.
    pub fn membound(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.shared.mem_bw[self.node.get().0 as usize].acquire_bytes(self.sim, bytes);
    }

    // ---- transparent memory access ----

    /// Reads `dst.len()` bytes at `addr` through the consistency protocol.
    pub fn read_bytes(&self, addr: VirtAddr, dst: &mut [u8]) {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < dst.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(dst.len() - filled);
            self.ensure(cursor, Access::Read);
            self.shared
                .space(self.node.get())
                .lock()
                .read(cursor, &mut dst[filled..filled + chunk]);
            filled += chunk;
            cursor = cursor.add(chunk as u64);
        }
        // Recorded after the copy so the event carries the value the
        // application actually observed (reads-from for the SC oracle).
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: dst.len() as u32,
            is_write: false,
            atomic: false,
            value: access_value(dst),
        });
    }

    /// Writes `src` at `addr` through the consistency protocol.
    pub fn write_bytes(&self, addr: VirtAddr, src: &[u8]) {
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: src.len() as u32,
            is_write: true,
            atomic: false,
            value: access_value(src),
        });
        let mut cursor = addr;
        let mut written = 0usize;
        while written < src.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(src.len() - written);
            self.ensure(cursor, Access::Write);
            self.shared
                .space(self.node.get())
                .lock()
                .write(cursor, &src[written..written + chunk]);
            written += chunk;
            cursor = cursor.add(chunk as u64);
        }
    }

    /// Reads a `u32` at `addr`.
    pub fn read_u32(&self, addr: VirtAddr) -> u32 {
        let mut buf = [0u8; 4];
        self.read_bytes(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Writes a `u32` at `addr`.
    pub fn write_u32(&self, addr: VirtAddr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Atomically read-modify-writes up to one page at `addr`. The update
    /// closure runs with exclusive page ownership held and no intervening
    /// simulation yield, which is exactly how an x86 atomic behaves on a
    /// page the node owns exclusively — cluster-wide atomicity follows
    /// from the single-writer protocol.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary (hardware atomics do
    /// not either).
    pub fn rmw_bytes(&self, addr: VirtAddr, len: usize, f: impl FnOnce(&mut [u8])) {
        assert!(
            addr.page_offset() + len <= PAGE_SIZE,
            "atomic access must not straddle a page boundary"
        );
        self.ensure(addr, Access::Write);
        let buf = {
            let mut space = self.shared.space(self.node.get()).lock();
            let mut buf = vec![0u8; len];
            space.read(addr, &mut buf);
            f(&mut buf);
            space.write(addr, &buf);
            buf
        };
        // Recorded after the update so the event carries the value the
        // atomic deposited (reads-from for the SC oracle).
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: len as u32,
            is_write: true,
            atomic: true,
            value: access_value(&buf),
        });
    }

    /// Atomic compare-and-swap on a `u32`; returns the previous value.
    pub fn cas_u32(&self, addr: VirtAddr, expected: u32, new: u32) -> u32 {
        let mut old = 0u32;
        self.rmw_bytes(addr, 4, |b| {
            old = u32::from_le_bytes(b.try_into().expect("4 bytes"));
            if old == expected {
                b.copy_from_slice(&new.to_le_bytes());
            }
        });
        old
    }

    /// Atomic fetch-add on a `u32`; returns the previous value.
    pub fn fetch_add_u32(&self, addr: VirtAddr, delta: u32) -> u32 {
        let mut old = 0u32;
        self.rmw_bytes(addr, 4, |b| {
            old = u32::from_le_bytes(b.try_into().expect("4 bytes"));
            b.copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        });
        old
    }

    /// Atomic swap on a `u32`; returns the previous value.
    pub fn swap_u32(&self, addr: VirtAddr, new: u32) -> u32 {
        let mut old = 0u32;
        self.rmw_bytes(addr, 4, |b| {
            old = u32::from_le_bytes(b.try_into().expect("4 bytes"));
            b.copy_from_slice(&new.to_le_bytes());
        });
        old
    }

    // ---- the fault path ----

    /// Ensures an access of kind `access` at `addr` can proceed locally,
    /// running VMA synchronization and the consistency protocol as needed.
    pub(crate) fn ensure(&self, addr: VirtAddr, access: Access) {
        loop {
            let node = self.node.get();
            let check = self.shared.space(node).lock().check(addr, access);
            match check {
                Ok(()) => return,
                Err(MemFault::VmaMiss { .. }) => self.vma_fault(addr, access),
                Err(MemFault::Protocol { vpn, .. }) => self.page_fault(vpn, access, addr),
            }
        }
    }

    fn vma_fault(&self, addr: VirtAddr, access: Access) {
        let shared = &self.shared;
        let node = self.node.get();
        if node == shared.origin {
            // The origin's VMAs are authoritative: this is a real illegal
            // access.
            panic!(
                "segmentation fault: {} {access} at {addr} (site {})",
                self.tid,
                self.site.get()
            );
        }
        shared.count(self.node.get(), Counter::VmaSyncs, 1);
        let t0 = self.sim.now();
        let span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        let reply = self.round(UNWATCHED, false, |req_id| {
            let pull = DexMsg::VmaRequest {
                pid: shared.pid,
                addr,
                req_id,
            };
            self.endpoint(node)
                .send_traced(self.sim, shared.origin, pull, span_ctx(span));
        });
        match reply {
            Err(WaitError::OwnNodeCrashed) => {
                // The node fail-stopped; re-home and let ensure() re-check
                // at the origin, where the VMAs are authoritative.
                self.rehome_after_crash();
            }
            Ok(Reply::Vma(Some(vma))) => {
                // Check the authoritative protection before installing:
                // a permission mismatch is a real fault, not staleness.
                let ok = match access {
                    Access::Read => vma.prot.read,
                    Access::Write => vma.prot.write,
                };
                if !ok {
                    panic!(
                        "segmentation fault: {} {access} at {addr} (protection) (site {})",
                        self.tid,
                        self.site.get()
                    );
                }
                shared.space(node).lock().vmas.install(vma);
            }
            Ok(Reply::Vma(None)) => panic!(
                "segmentation fault: {} {access} at {addr} (no mapping) (site {})",
                self.tid,
                self.site.get()
            ),
            Ok(other) => unreachable!("vma request answered with {other:?}"),
        }
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::VmaSync,
                node,
                task: self.tid,
                start: t0,
                end: self.sim.now(),
                label: "vma_pull",
                tag: None,
                site: "",
                addr: None,
            });
        }
    }

    fn page_fault(&self, vpn: Vpn, access: Access, addr: VirtAddr) {
        let shared = Arc::clone(&self.shared);
        let node = self.node.get();
        let is_write = access.is_write();
        let ctx = self.sim;

        let span_t0 = ctx.now();
        let fault_span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());

        ctx.advance(shared.cost.fault_entry);

        // Leader–follower coalescing: the first thread to fault on this
        // (page, access-type) pair leads; the rest park until it finishes.
        // (Disabled only for the ablation study: every thread then runs
        // the full protocol itself.)
        let coalesce = shared.cost.coalesce_faults;
        let role = if coalesce {
            let fault = RequesterIn::Fault {
                vpn,
                access,
                thread: ctx.id().0,
                tag: fault_span.map_or(0, |s| s.0),
            };
            shared.with_node(node, |n| requester_step(n, fault)).pop()
        } else {
            None
        };
        if let Some(Output::Follow {
            leader_tag, bypass, ..
        }) = role
        {
            shared.count(node, Counter::FaultsCoalesced, 1);
            if bypass && node != shared.home_of(vpn) {
                // Seeded bug: race a request nobody waits for.
                self.issue_request(vpn, access, shared.new_req_id(), SpanContext::NONE);
            }
            ctx.park();
            // The follower's wait parents to the leader's fault span —
            // the coalescing relationship made visible in the timeline.
            if let Some(id) = fault_span {
                shared.spans.record(Span {
                    id,
                    parent: SpanId(leader_tag),
                    kind: SpanKind::FollowerWait,
                    node,
                    task: self.tid,
                    start: span_t0,
                    end: ctx.now(),
                    label: "follower_wait",
                    tag: None,
                    site: "",
                    addr: None,
                });
            }
            return; // the outer ensure() loop re-checks the updated PTE
        }

        let t0 = ctx.now();
        let wire_span = span_ctx(fault_span);
        let mut rounds = 0u64;
        let mut origin_inline = false;
        loop {
            rounds += 1;
            // Re-read the node each round: a crash may have re-homed the
            // thread to the origin mid-fault. With the sharded directory
            // a page's transactions run at its home node — which is the
            // origin for every page when sharding is off.
            let granted = if self.node.get() == shared.home_of(vpn) {
                let (granted, inline) = self.origin_fault_round(vpn, access, wire_span);
                origin_inline = inline;
                granted
            } else {
                self.remote_fault_round(vpn, access, wire_span)
            };
            if granted {
                break;
            }
            shared.count(node, Counter::FaultsRetried, 1);
            // Deterministic per-thread jitter keeps retrying threads from
            // re-colliding in lockstep (the kernel's backoff has natural
            // jitter from scheduling).
            let retry_t0 = ctx.now();
            let retry_span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
            let jitter = (self.tid.0 * 7_000 + rounds * 13_000) % 60_000;
            ctx.advance(shared.cost.retry_backoff + dex_sim::SimDuration::from_nanos(jitter));
            if let Some(id) = retry_span {
                shared.spans.record(Span {
                    id,
                    parent: fault_span.unwrap_or(SpanId::NONE),
                    kind: SpanKind::FaultRetry,
                    node,
                    task: self.tid,
                    start: retry_t0,
                    end: ctx.now(),
                    label: "retry_backoff",
                    tag: None,
                    site: "",
                    addr: None,
                });
            }
        }
        ctx.advance(shared.cost.fault_fixup);

        // An origin fault resolved inline on the first try involved no
        // other node: it is an ordinary minor fault (demand-zero paging),
        // not a consistency-protocol fault, and is reported separately.
        let minor = origin_inline && rounds == 1;
        if minor {
            shared.count(node, Counter::FaultsMinor, 1);
        } else {
            let kind = if is_write {
                Counter::FaultsWrite
            } else {
                Counter::FaultsRead
            };
            shared.count(node, kind, 1);
            shared.fault_hist.record(ctx.now() - t0);
        }
        if let Some(id) = fault_span {
            let tag = shared.tag_for(node, addr);
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::Fault,
                node,
                task: self.tid,
                start: span_t0,
                end: ctx.now(),
                label: match (minor, is_write) {
                    (true, _) => "minor_fault",
                    (false, true) => "write_fault",
                    (false, false) => "read_fault",
                },
                tag,
                site: self.site.get(),
                addr: Some(addr),
            });
        }

        if coalesce {
            let resolved = RequesterIn::Resolved { vpn, access };
            for out in shared.with_node(node, |n| requester_step(n, resolved)) {
                match out {
                    Output::WakeFollower(thread) => ctx.unpark(ThreadId(thread)),
                    other => unreachable!("resolved fault produced {other:?}"),
                }
            }
        }
    }

    /// One protocol round for a fault at the page's directory home (the
    /// origin in classic mode, any node in sharded mode); returns
    /// `(granted, inline)` where `inline` means the directory granted
    /// immediately with no remote involvement (a minor fault).
    fn origin_fault_round(&self, vpn: Vpn, access: Access, span: SpanContext) -> (bool, bool) {
        let shared = &self.shared;
        let ctx = self.sim;
        let node = self.node.get();
        let req_id = shared.new_req_id();
        let msg = PageMsg::Request {
            vpn,
            access,
            req_id,
        };
        let outs = shared.home_step(node, vpn, HomeIn::Msg { from: node, msg });
        if let Some(Output::Wake { retry, .. }) = outs.first() {
            // Answered on the spot: granted (mapping already installed)
            // or told to retry.
            return (!retry, !retry);
        }
        assert!(
            !outs.is_empty(),
            "request must grant, retry, or open a transaction"
        );
        let slot = shared.register(ctx, node, req_id, &[]);
        perform_outputs(ctx, shared, &self.endpoint(node), node, outs, span);
        match shared.wait_reply_watching(ctx, &slot, node, req_id, UNWATCHED, false) {
            Ok(Reply::PageGrant { retry }) => (!retry, false),
            Ok(other) => unreachable!("page fault answered with {other:?}"),
            Err(WaitError::OwnNodeCrashed) => {
                // Only reachable in sharded mode: a non-origin home
                // fail-stopped under its own faulting thread.
                assert_ne!(node, shared.origin, "the origin cannot crash");
                self.rehome_after_crash();
                (false, false)
            }
        }
    }

    /// Sends a page request to the page's (remote) home through the
    /// requester step, which marks the page in flight at this node.
    fn issue_request(&self, vpn: Vpn, access: Access, req_id: u64, span: SpanContext) {
        let shared = &self.shared;
        let node = self.node.get();
        let issue = RequesterIn::Issue {
            vpn,
            access,
            req_id,
            home: shared.home_of(vpn),
        };
        let outs = shared.with_node(node, |n| requester_step(n, issue));
        perform_outputs(self.sim, shared, &self.endpoint(node), node, outs, span);
    }

    /// One protocol round for a fault away from the page's home. The
    /// fault span rides the request so home-side handling stitches to
    /// this fault.
    fn remote_fault_round(&self, vpn: Vpn, access: Access, span: SpanContext) -> bool {
        let shared = &self.shared;
        let peer = shared.is_sharded().then(|| shared.home_of(vpn));
        let reply = self.round(peer, false, |req_id| {
            self.issue_request(vpn, access, req_id, span);
        });
        match reply {
            Ok(Reply::PageGrant { retry }) => !retry,
            Ok(other) => unreachable!("page fault answered with {other:?}"),
            Err(WaitError::OwnNodeCrashed) => {
                // The node fail-stopped under the thread; re-home and let
                // the fault path retry from the origin.
                self.rehome_after_crash();
                false
            }
            Err(WaitError::PeerCrashed(p)) => panic!(
                "directory home {p:?} crashed with page {vpn:?} outstanding: \
                 sharded homes hold authoritative ownership state and are \
                 not fault-tolerant (keep fault plans away from home shards)"
            ),
        }
    }

    // ---- futexes ----

    /// `FUTEX_WAIT`: blocks while the word at `addr` equals `expected`.
    /// Returns `0` when woken, [`FUTEX_EAGAIN`] when the word had already
    /// changed. Remote threads delegate this to their original thread at
    /// the origin (§III-A).
    pub fn futex_wait(&self, addr: VirtAddr, expected: u32) -> i64 {
        match self.futex_wait_woken(addr, expected) {
            Ok(waker) => {
                // An actual wakeup orders this thread after the waker.
                self.record_race_event(RaceEventKind::FutexWaitReturn { addr, waker });
                0
            }
            Err(result) => result,
        }
    }

    /// [`Self::futex_wait`] reporting the thread whose wake ended the wait
    /// (see [`ProcessShared::take_waker`]); `Err` carries any other result.
    pub(crate) fn futex_wait_woken(&self, addr: VirtAddr, expected: u32) -> Result<Tid, i64> {
        let shared = &self.shared;
        let t0 = self.sim.now();
        let span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        shared.count(self.node.get(), Counter::FutexWaits, 1);
        let result = self.at_origin(DelegatedOp::FutexWait { addr, expected }, span_ctx(span));
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::FutexWait,
                node: self.node.get(),
                task: self.tid,
                start: t0,
                end: self.sim.now(),
                label: if result.is_ok() {
                    "futex_woken"
                } else {
                    "futex_eagain"
                },
                tag: None,
                site: "",
                addr: None,
            });
        }
        result
    }

    /// `FUTEX_WAKE`: wakes up to `count` waiters of the word at `addr`.
    /// Returns the number woken.
    pub fn futex_wake(&self, addr: VirtAddr, count: u32) -> i64 {
        self.record_race_event(RaceEventKind::FutexWake { addr });
        let shared = &self.shared;
        shared.count(self.node.get(), Counter::FutexWakes, 1);
        let t0 = self.sim.now();
        let span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        let node = self.node.get();
        let result = self
            .at_origin(DelegatedOp::FutexWake { addr, count }, span_ctx(span))
            .expect_err("only FUTEX_WAIT is woken");
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::FutexWake,
                node,
                task: self.tid,
                start: t0,
                end: self.sim.now(),
                label: "futex_wake",
                tag: None,
                site: "",
                addr: None,
            });
        }
        result
    }

    // ---- migration ----

    /// Relocates this thread to `dst`. A no-op when already there; a
    /// remote→remote move goes home first (backward) and then forward.
    ///
    /// # Errors
    ///
    /// [`MigrateError::NoSuchNode`] if `dst` is outside the cluster;
    /// [`MigrateError::NodeCrashed`] if a fault plan crashed `dst` (the
    /// thread stays at the origin in that case).
    pub fn migrate(&self, dst: impl Into<NodeId>) -> Result<(), MigrateError> {
        let dst = dst.into();
        let shared = Arc::clone(&self.shared);
        if (dst.0 as usize) >= shared.nodes {
            return Err(MigrateError::NoSuchNode {
                requested: dst,
                nodes: shared.nodes,
            });
        }
        if dst == self.node.get() {
            return Ok(());
        }
        if self.node.get() != shared.origin {
            self.migrate_back_inner();
        }
        if dst == shared.origin {
            return Ok(());
        }
        self.migrate_forward(dst)
    }

    /// Brings the thread back to its origin node (backward migration).
    /// No-op when already home.
    pub fn migrate_back(&self) -> Result<(), MigrateError> {
        if self.node.get() != self.shared.origin {
            self.migrate_back_inner();
        }
        Ok(())
    }

    /// The node currently holding the page of `addr` exclusively (the
    /// origin when the page is shared or untouched). At the origin this
    /// reads the directory; remote threads delegate the query to their
    /// original thread, like any stateful kernel feature.
    pub fn data_home(&self, addr: VirtAddr) -> NodeId {
        let node = self.delegate(DelegatedOp::QueryOwner { addr });
        NodeId(u16::try_from(node).expect("node id fits"))
    }

    /// Relocates this thread to the node that owns the data at `addr` —
    /// the "relocating the computation near data" scenario of the paper's
    /// conclusion (§VII). Returns the destination.
    ///
    /// # Errors
    ///
    /// Propagates [`MigrateError`] from the underlying migration.
    pub fn migrate_to_data(&self, addr: VirtAddr) -> Result<NodeId, MigrateError> {
        let target = self.data_home(addr);
        self.migrate(target)?;
        Ok(target)
    }

    /// Relocates this thread to the node currently running the fewest
    /// application threads (itself excluded) — the simple load-balancing
    /// policy §III-A says schedulers or user-space libraries could drive.
    /// Returns the destination (possibly the current node).
    ///
    /// # Errors
    ///
    /// Propagates [`MigrateError`] from the underlying migration.
    pub fn migrate_least_loaded(&self) -> Result<NodeId, MigrateError> {
        let here = self.node.get();
        let target = {
            let loads = self.shared.thread_counts();
            let mut best = here;
            let mut best_load = loads[here.0 as usize] - 1; // exclude self
            for (n, &load) in loads.iter().enumerate() {
                let node = NodeId(n as u16);
                if node != here && load < best_load {
                    best = node;
                    best_load = load;
                }
            }
            best
        };
        self.migrate(target)?;
        Ok(target)
    }

    /// Requests read or write ownership of every page covering
    /// `[addr, addr + len)` in one pipelined batch — the data-access-hint
    /// mechanism of §IV-A, which amortizes protocol round trips that a
    /// faulting loop would pay one at a time. Advisory: pages that cannot
    /// be granted immediately (conflicting transactions) are simply left
    /// for the regular fault path.
    pub fn prefetch(&self, addr: VirtAddr, len: u64, access: Access) {
        let shared = &self.shared;
        if self.node.get() == shared.origin && !shared.is_sharded() {
            return; // the origin serves itself through the fault path
        }
        // Make sure the VMA is known first (one on-demand sync at most).
        self.ensure(addr, access);
        // The sync above runs the regular fault path, which re-homes the
        // thread if its node dies — re-read the node (and re-check the
        // origin shortcut) rather than trusting a pre-fault snapshot.
        let node = self.node.get();
        if node == shared.origin && !shared.is_sharded() {
            return;
        }
        let missing: Vec<Vpn> = {
            let space = shared.space(node).lock();
            dex_os::pages_covering(addr, len)
                .filter(|vpn| {
                    // Pages homed here are served through the local fault
                    // path; only remote homes are worth a request.
                    !space.page_table.entry(*vpn).permits(access) && shared.home_of(*vpn) != node
                })
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let mut slots = Vec::with_capacity(missing.len());
        for vpn in &missing {
            let req_id = shared.new_req_id();
            let slot = shared.register(self.sim, node, req_id, &[]);
            self.issue_request(*vpn, access, req_id, SpanContext::NONE);
            slots.push((*vpn, req_id, slot));
        }
        // Prefetch is advisory end to end: grants are counted, denials
        // (conflicting transactions answered with a retry, or anything
        // else the protocol sends back) are left to the regular fault
        // path on first touch — never treated as protocol errors.
        let mut granted = 0u64;
        let mut denied = 0u64;
        let mut outstanding = slots.into_iter();
        while let Some((vpn, req_id, slot)) = outstanding.next() {
            let peer = shared.is_sharded().then(|| shared.home_of(vpn));
            match shared.wait_reply_watching(self.sim, &slot, node, req_id, peer, false) {
                // Granted pages were installed by the dispatcher.
                Ok(Reply::PageGrant { retry: false }) => granted += 1,
                Ok(_) => denied += 1,
                Err(WaitError::OwnNodeCrashed) => {
                    // Drop the remaining requests and go home. Grants
                    // already applied to the dead node's page table are
                    // moot.
                    denied += 1;
                    for (_, rid, _) in outstanding.by_ref() {
                        shared.abandon_pending(node, rid);
                        denied += 1;
                    }
                    self.rehome_after_crash();
                    break;
                }
                Err(WaitError::PeerCrashed(_)) => {
                    // A directory home died mid-prefetch. Unlike the
                    // mandatory fault path, a hint can simply be dropped:
                    // abandon the outstanding slots and let first touch
                    // (and crash recovery) sort the rest out.
                    denied += 1;
                    for (_, rid, _) in outstanding.by_ref() {
                        shared.abandon_pending(node, rid);
                        denied += 1;
                    }
                    break;
                }
            }
        }
        shared.count(node, Counter::PrefetchPages, granted);
        shared.count(node, Counter::PrefetchDenied, denied);
    }

    /// Picks the thread up off its fail-stopped node and re-homes it to
    /// the origin — the graceful-degradation half of the fault model. Any
    /// dirty pages whose only copy lived on the dead node are lost (the
    /// directory reverts them to the origin's last flushed frame);
    /// cluster-wide recovery itself is idempotent and may already have
    /// run on behalf of another thread.
    fn rehome_after_crash(&self) {
        let shared = &self.shared;
        let old = self.node.get();
        shared.count(old, Counter::MigrationsCrashRehomed, 1);
        shared.maybe_handle_crashes(self.sim);
        shared.adjust_load(old, -1);
        shared.adjust_load(shared.origin, 1);
        self.node.set(shared.origin);
    }

    fn migrate_forward(&self, dst: NodeId) -> Result<(), MigrateError> {
        let shared = &self.shared;
        let ctx = self.sim;
        let t0 = ctx.now();
        let span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());

        // Origin side: capture the execution context; the first migration
        // of a thread also builds its per-thread migration structures.
        let origin_cost = if self.has_migrated.get() {
            shared.cost.context_capture_next
        } else {
            shared.cost.context_capture_first
        };
        ctx.advance(origin_cost);

        let node = self.node.get();
        let reply = self.round(Some(dst), false, |req_id| {
            let request = DexMsg::MigrateRequest {
                pid: shared.pid,
                tid: self.tid,
                context: self.synthesize_context(),
                req_id,
            };
            self.endpoint(node)
                .send_traced(ctx, dst, request, span_ctx(span));
        });
        let phases = match reply {
            Ok(Reply::MigrateAck(phases)) => phases,
            Ok(other) => unreachable!("migration answered with {other:?}"),
            Err(WaitError::PeerCrashed(node)) => {
                // The destination died before acking: the thread never
                // left the origin, so it simply stays put.
                shared.count(shared.origin, Counter::MigrationsDestCrashed, 1);
                return Err(MigrateError::NodeCrashed { node });
            }
            Err(WaitError::OwnNodeCrashed) => {
                unreachable!("forward migration starts at the origin, which cannot crash")
            }
        };
        shared.adjust_load(self.node.get(), -1);
        shared.adjust_load(dst, 1);
        self.node.set(dst);
        self.has_migrated.set(true);
        self.ensure_pair_thread();

        let remote_side: SimDuration = phases.iter().map(|(_, d)| *d).sum();
        let first_on_node = phases.iter().any(|(name, _)| *name == "remote_worker");
        shared.count(shared.origin, Counter::MigrationsForward, 1);
        shared.migrations.lock().push(MigrationSample {
            forward: true,
            first_on_node,
            origin_side: origin_cost,
            remote_side,
            total: ctx.now() - t0,
            phases,
        });
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::MigrationForward,
                node,
                task: self.tid,
                start: t0,
                end: ctx.now(),
                label: if first_on_node {
                    "first_on_node"
                } else {
                    "worker_reused"
                },
                tag: None,
                site: "",
                addr: None,
            });
        }
        Ok(())
    }

    fn migrate_back_inner(&self) {
        let shared = &self.shared;
        let ctx = self.sim;
        let node = self.node.get();
        if shared.fabric.node_crashed(node, ctx.now()) {
            // The node died under the thread: there is no remote side left
            // to capture context from, so skip the protocol round trip.
            self.rehome_after_crash();
            return;
        }
        let t0 = ctx.now();
        let span = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        ctx.advance(shared.cost.backward_capture);

        let reply = self.round(UNWATCHED, false, |req_id| {
            let request = DexMsg::MigrateBack {
                pid: shared.pid,
                tid: self.tid,
                context: self.synthesize_context(),
                req_id,
            };
            self.endpoint(node)
                .send_traced(ctx, shared.origin, request, span_ctx(span));
        });
        match reply {
            Ok(Reply::MigrateBackAck) => {}
            Ok(other) => unreachable!("backward migration answered with {other:?}"),
            Err(WaitError::OwnNodeCrashed) => {
                // Crashed mid-backward-migration: the context capture is
                // lost with the node; re-home the thread directly.
                self.rehome_after_crash();
                return;
            }
        }
        shared.adjust_load(self.node.get(), -1);
        shared.adjust_load(shared.origin, 1);
        self.node.set(shared.origin);
        shared.count(node, Counter::MigrationsBackward, 1);
        shared.migrations.lock().push(MigrationSample {
            forward: false,
            first_on_node: false,
            origin_side: shared.cost.backward_update,
            remote_side: shared.cost.backward_capture,
            total: ctx.now() - t0,
            phases: vec![("capture", shared.cost.backward_capture)],
        });
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::MigrationBack,
                node,
                task: self.tid,
                start: t0,
                end: ctx.now(),
                label: "migrate_back",
                tag: None,
                site: "",
                addr: None,
            });
        }
    }

    /// Builds a deterministic register file for the context transfer so
    /// its integrity is testable end to end.
    fn synthesize_context(&self) -> ExecutionContext {
        let mut context = ExecutionContext::default();
        for (i, r) in context.regs.iter_mut().enumerate() {
            *r = self.tid.0.wrapping_mul(0x9E3779B9).wrapping_add(i as u64);
        }
        context.ip = 0x400000 + self.tid.0 * 0x10;
        context.sp = 0x7fff_0000_0000 - self.tid.0 * 0x100000;
        context
    }

    fn ensure_pair_thread(&self) {
        if self.pair_started.get() {
            return;
        }
        self.pair_started.set(true);
        let chan: SimChannel<DelegationJob> = SimChannel::unbounded();
        self.shared.delegation.lock().insert(self.tid, chan.clone());
        let shared = Arc::clone(&self.shared);
        let tid = self.tid;
        self.sim.spawn_daemon(format!("pair-{tid}"), move |ctx| {
            pair_thread_loop(ctx, shared, tid, chan);
        });
    }

    // ---- address-space system calls ----

    /// `mmap`: creates an anonymous mapping (performed at the origin via
    /// delegation when the thread is remote; permissive, so not eagerly
    /// broadcast).
    pub fn mmap(&self, len: u64, prot: Prot) -> VirtAddr {
        let result = self.delegate(DelegatedOp::Mmap { len, prot });
        assert!(result >= 0, "delegated mmap failed: {result}");
        VirtAddr::new(result as u64)
    }

    /// `munmap`: removes mappings. Shrinking operations are broadcast
    /// eagerly to every node (§III-D).
    pub fn munmap(&self, addr: VirtAddr, len: u64) {
        let result = self.delegate(DelegatedOp::Munmap { addr, len });
        assert!(result >= 0, "delegated munmap failed: {result}");
    }

    /// `mprotect`: changes protection; downgrades are broadcast eagerly.
    pub fn mprotect(&self, addr: VirtAddr, len: u64, prot: Prot) {
        let result = self.delegate(DelegatedOp::Mprotect { addr, len, prot });
        assert!(result >= 0, "delegated mprotect failed: {result}");
    }

    /// Performs a stateful system call at the origin (file I/O stand-in),
    /// keeping the original thread busy for `busy`.
    pub fn syscall(&self, busy: SimDuration) {
        let result = self.delegate(DelegatedOp::Syscall { busy });
        assert_eq!(result, 0);
    }

    /// Runs `op` (anything but `FUTEX_WAIT`) through [`Self::at_origin`];
    /// a remote caller's round is recorded as a `Delegation` span.
    fn delegate(&self, op: DelegatedOp) -> i64 {
        let shared = &self.shared;
        let span = if self.node.get() == shared.origin {
            None
        } else {
            shared.spans.is_enabled().then(|| shared.spans.alloc_id())
        };
        let t0 = self.sim.now();
        let result = self
            .at_origin(op, span_ctx(span))
            .expect_err("only FUTEX_WAIT is woken");
        if let Some(id) = span {
            shared.spans.record(Span {
                id,
                parent: SpanId::NONE,
                kind: SpanKind::Delegation,
                node: self.node.get(),
                task: self.tid,
                start: t0,
                end: self.sim.now(),
                label: "delegate",
                tag: None,
                site: "",
                addr: None,
            });
        }
        result
    }

    /// The one delegation round (§III-A): runs `op` in the origin's
    /// context and returns `Ok(waker)` when a `FUTEX_WAIT` was woken,
    /// `Err(result)` for every other result. At the origin the executor
    /// runs in place; elsewhere the op travels to the thread's original
    /// thread, and `span` rides the request. If this thread's node
    /// crashes first, the thread re-homes and the op runs again at the
    /// origin (at-least-once; DESIGN.md lists what a re-run does per op).
    fn at_origin(&self, op: DelegatedOp, span: SpanContext) -> Result<Tid, i64> {
        let shared = &self.shared;
        let wait = matches!(op, DelegatedOp::FutexWait { .. });
        loop {
            let node = self.node.get();
            if node == shared.origin {
                // Only a FUTEX_WAIT takes an id here: it keys the queued waiter.
                let req_id = if wait { shared.new_req_id() } else { 0 };
                return match run_at_origin(self, &op, node, req_id) {
                    AtOrigin::Done(result) => Err(result),
                    AtOrigin::Queued(slot) => match shared.wait_reply(self.sim, &slot) {
                        Reply::FutexWoken => Ok(shared.take_waker(req_id)),
                        other => unreachable!("futex wait answered with {other:?}"),
                    },
                };
            }
            shared.count(node, Counter::Delegations, 1);
            // The id keys a queued FUTEX_WAIT waiter: its wake and the
            // crash clean-up below both need it.
            let mut req_id = 0;
            // Unbounded for a futex wait only: it legitimately blocks for
            // as long as the application keeps the waiter asleep.
            let reply = self.round(UNWATCHED, wait, |id| {
                req_id = id;
                let request = DexMsg::Delegate {
                    pid: shared.pid,
                    tid: self.tid,
                    op: op.clone(),
                    req_id,
                };
                self.endpoint(node)
                    .send_traced(self.sim, shared.origin, request, span);
            });
            match reply {
                Ok(Reply::Delegate(result)) => return Err(result),
                Ok(Reply::FutexWoken) => return Ok(shared.take_waker(req_id)),
                Ok(other) => unreachable!("delegation answered with {other:?}"),
                Err(WaitError::OwnNodeCrashed) => {
                    if let DelegatedOp::FutexWait { addr, .. } = op {
                        // Remove the (possibly) queued waiter so a later
                        // wake does not target the dead node. A wake lost
                        // in the crash window is recovered by the standard
                        // futex pattern: the re-run re-checks the word.
                        shared.futex.lock().cancel(addr, ThreadId(req_id));
                        shared.futex_nodes.lock().remove(&req_id);
                        shared.futex_wakers.lock().remove(&req_id);
                    }
                    self.rehome_after_crash();
                }
            }
        }
    }

    // ---- synchronization primitive constructors ----

    /// Creates a cluster-wide mutex (threads may create primitives at any
    /// time, like `pthread_mutex_init`).
    pub fn new_mutex(&self, tag: &str) -> crate::sync::DexMutex {
        crate::sync::new_mutex(self, tag)
    }

    /// Creates a cluster-wide barrier for `parties` threads.
    pub fn new_barrier(&self, parties: u32, tag: &str) -> crate::sync::DexBarrier {
        crate::sync::new_barrier(self, parties, tag)
    }

    /// Creates a cluster-wide condition variable.
    pub fn new_condvar(&self, tag: &str) -> crate::sync::DexCondvar {
        crate::sync::new_condvar(self, tag)
    }

    /// Creates a cluster-wide readers-writer lock.
    pub fn new_rwlock(&self, tag: &str) -> crate::sync::DexRwLock {
        crate::sync::new_rwlock(self, tag)
    }

    // ---- thread management ----

    /// Spawns a sibling application thread (created at the origin, like
    /// every thread of the process), returning a joinable handle.
    pub fn spawn_thread<F>(&self, name: impl Into<String>, f: F) -> DexThread
    where
        F: FnOnce(&ThreadCtx<'_>) + Send + 'static,
    {
        let shared = Arc::clone(&self.shared);
        let tid = shared.new_tid();
        let handle = DexThread::new(tid);
        let handle2 = handle.clone();
        self.record_race_event(RaceEventKind::Spawn { child: tid });
        self.sim.spawn(name, move |ctx| {
            shared.adjust_load(shared.origin, 1);
            let tctx = ThreadCtx::new(ctx, shared, tid);
            f(&tctx);
            tctx.process().adjust_load(tctx.node(), -1);
            handle2.mark_done(&tctx);
        });
        handle
    }

    fn endpoint(&self, node: NodeId) -> crate::process::Endpoint {
        self.shared.fabric.endpoint(node)
    }

    /// One request/reply round from this thread's node: allocates the
    /// request id, registers the wait *before* `send(req_id)` puts the
    /// request on the wire, then waits for the reply watching this node
    /// and `peer` for a crash ([`UNWATCHED`]: this node only, and
    /// `PeerCrashed` cannot occur). `unbounded` exempts a wait with no
    /// deadline of its own (a futex wait) from the stuck-run check.
    fn round<P: Copy + Into<NodeId>>(
        &self,
        peer: Option<P>,
        unbounded: bool,
        send: impl FnOnce(u64),
    ) -> Result<Reply, WaitError<P>> {
        let (shared, node) = (&self.shared, self.node.get());
        let req_id = shared.new_req_id();
        let slot = shared.register(self.sim, node, req_id, &[]);
        send(req_id);
        shared.wait_reply_watching(self.sim, &slot, node, req_id, peer, unbounded)
    }
}

impl std::fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("tid", &self.tid)
            .field("node", &self.node.get())
            .finish()
    }
}

/// What [`run_at_origin`] did with a delegated operation.
enum AtOrigin {
    /// The operation finished with this result.
    Done(i64),
    /// A `FUTEX_WAIT` waiter is queued; the slot resolves on `FUTEX_WAKE`.
    Queued(Arc<Mutex<Option<Reply>>>),
}

/// The one executor of delegated work (§III-A): runs `op` in the origin's
/// context on behalf of thread `tctx`, whether `tctx` is an
/// origin-resident thread, a thread re-homed by a crash, or a migrated
/// thread's original thread servicing a request from `waiter_node`.
/// `req_id` keys a queued `FUTEX_WAIT` waiter; other ops ignore it.
fn run_at_origin(
    tctx: &ThreadCtx<'_>,
    op: &DelegatedOp,
    waiter_node: NodeId,
    req_id: u64,
) -> AtOrigin {
    let (ctx, shared) = (tctx.sim, &tctx.shared);
    AtOrigin::Done(match *op {
        DelegatedOp::FutexWait { addr, expected } => {
            return futex_wait_at_origin(tctx, addr, expected, waiter_node, req_id)
        }
        DelegatedOp::FutexWake { addr, count } => {
            futex_wake_at_origin(ctx, shared, addr, count, tctx.tid)
        }
        DelegatedOp::Mmap { len, prot } => {
            let mut space = shared.space(shared.origin).lock();
            space.vmas.mmap(len, prot, VmaKind::Anon, None).as_u64() as i64
        }
        DelegatedOp::Munmap { addr, len } => {
            munmap_at_origin(ctx, shared, addr, len);
            0
        }
        DelegatedOp::Mprotect { addr, len, prot } => {
            mprotect_at_origin(ctx, shared, addr, len, prot);
            0
        }
        DelegatedOp::QueryOwner { addr } => {
            let dir = shared.directory_for(addr.vpn()).lock();
            dir.current_writer(addr.vpn()).unwrap_or(shared.origin).0 as i64
        }
        DelegatedOp::Syscall { busy } => {
            ctx.advance(busy);
            0
        }
    })
}

/// The origin-side half of `FUTEX_WAIT`: runs in the context of a thread
/// executing at the origin (an origin-resident app thread, or a migrated
/// thread's original thread servicing a delegation).
///
/// `waiter_node`/`waiter_req` identify where the eventual wake must be
/// delivered. Reading the futex word may itself fault through the DSM —
/// exactly what happens on Linux when the futex syscall touches the word.
fn futex_wait_at_origin(
    tctx: &ThreadCtx<'_>,
    addr: VirtAddr,
    expected: u32,
    waiter_node: NodeId,
    waiter_req: u64,
) -> AtOrigin {
    let shared = &tctx.shared;
    tctx.ensure(addr, Access::Read);
    // Value check and enqueue must be atomic: no yields below.
    let space = shared.space(shared.origin).lock();
    let mut buf = [0u8; 4];
    space.read(addr, &mut buf);
    let value = u32::from_le_bytes(buf);
    if value != expected {
        return AtOrigin::Done(FUTEX_EAGAIN);
    }
    let mut futex = shared.futex.lock();
    futex.enqueue(addr, ThreadId(waiter_req));
    shared.futex_nodes.lock().insert(waiter_req, waiter_node);
    drop(futex);
    drop(space);
    // For a local waiter the pending entry is registered by the caller
    // before parking; for a remote waiter the pending entry lives at the
    // remote node and resolves via FutexWoken.
    let slot = if waiter_node == shared.origin {
        shared.register(tctx.sim, shared.origin, waiter_req, &[])
    } else {
        Arc::new(Mutex::new(None))
    };
    AtOrigin::Queued(slot)
}

/// The origin-side half of `FUTEX_WAKE` on behalf of thread `waker`.
/// Returns the number woken.
fn futex_wake_at_origin(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    addr: VirtAddr,
    count: u32,
    waker: Tid,
) -> i64 {
    let woken: Vec<u64> = shared
        .futex
        .lock()
        .wake(addr, count as usize)
        .into_iter()
        .map(|t| t.0)
        .collect();
    let mut remote: Vec<(NodeId, u64)> = Vec::new();
    {
        let mut nodes = shared.futex_nodes.lock();
        for req in &woken {
            let node = nodes.remove(req).expect("waiter node recorded");
            remote.push((node, *req));
        }
    }
    if shared.race.is_enabled() {
        let mut wakers = shared.futex_wakers.lock();
        wakers.extend(woken.iter().map(|&req| (req, waker)));
    }
    let n = woken.len() as i64;
    let endpoint = shared.fabric.endpoint(shared.origin);
    for (node, req_id) in remote {
        if node == shared.origin {
            shared.complete(ctx, node, req_id, node, Reply::FutexWoken);
        } else {
            let (pid, reply) = (shared.pid, Reply::FutexWoken);
            endpoint.send(ctx, node, DexMsg::Reply { pid, req_id, reply });
        }
    }
    n
}

/// `munmap` executed at the origin: updates the authoritative VMAs, drops
/// directory state, and eagerly broadcasts the shrink to every node.
fn munmap_at_origin(ctx: &SimCtx, shared: &Arc<ProcessShared>, addr: VirtAddr, len: u64) {
    let pages = {
        let mut space = shared.space(shared.origin).lock();
        let pages = space.vmas.munmap(addr, len).expect("munmap with bad range");
        let (page_table, frames) = space.page_table_and_frames();
        for vpn in &pages {
            protocol::unmap(page_table, frames, *vpn);
        }
        pages
    };
    for dir in &shared.directories {
        let _ = dir.lock().drop_pages(&pages);
    }
    broadcast_vma_op(ctx, shared, VmaOp::Unmap { addr, len });
}

/// `mprotect` executed at the origin; downgrades broadcast eagerly,
/// permissive changes propagate lazily through on-demand synchronization.
fn mprotect_at_origin(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    addr: VirtAddr,
    len: u64,
    prot: Prot,
) {
    let downgraded = shared
        .space(shared.origin)
        .lock()
        .vmas
        .mprotect(addr, len, prot)
        .expect("mprotect with bad range");
    if downgraded {
        broadcast_vma_op(ctx, shared, VmaOp::Protect { addr, len, prot });
    }
}

fn broadcast_vma_op(ctx: &SimCtx, shared: &Arc<ProcessShared>, op: VmaOp) {
    let now = ctx.now();
    let peers: Vec<NodeId> = (0..shared.nodes as u16)
        .map(NodeId)
        .filter(|n| *n != shared.origin && !shared.fabric.node_crashed(*n, now))
        .collect();
    if peers.is_empty() {
        return;
    }
    shared.count(shared.origin, Counter::VmaBroadcasts, 1);
    let req_id = shared.new_req_id();
    let slot = shared.register(ctx, shared.origin, req_id, &peers);
    let endpoint = shared.fabric.endpoint(shared.origin);
    for peer in &peers {
        endpoint.send(
            ctx,
            *peer,
            DexMsg::VmaUpdate {
                pid: shared.pid,
                op: op.clone(),
                req_id,
            },
        );
    }
    // A peer that crashes after the filter above is handled by crash
    // recovery (`complete_broadcasts_for_dead`), which the watching wait
    // triggers on timeout.
    let done = shared.wait_reply_watching(ctx, &slot, shared.origin, req_id, UNWATCHED, false);
    let Ok(Reply::BroadcastDone) = done else {
        unreachable!("vma broadcast at the origin, which cannot crash, ended with {done:?}")
    };
}

/// Service loop of a migrated thread's original thread at the origin: it
/// sleeps until a work request arrives, performs it in the origin context,
/// and replies (§III-A).
fn pair_thread_loop(
    ctx: &SimCtx,
    shared: Arc<ProcessShared>,
    tid: Tid,
    chan: SimChannel<DelegationJob>,
) {
    let tctx = ThreadCtx::new(ctx, Arc::clone(&shared), tid);
    let endpoint = shared.fabric.endpoint(shared.origin);
    while let Some(job) = chan.recv(ctx) {
        let t0 = ctx.now();
        let service = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        let outcome = run_at_origin(&tctx, &job.op, job.from, job.req_id);
        if let Some(id) = service {
            shared.spans.record(Span {
                id,
                parent: SpanId(job.span.0),
                kind: SpanKind::DelegationService,
                node: shared.origin,
                task: tid,
                start: t0,
                end: ctx.now(),
                label: "delegation_service",
                tag: None,
                site: "",
                addr: None,
            });
        }
        // A queued waiter is answered by the FUTEX_WAKE that dequeues it.
        if let AtOrigin::Done(result) = outcome {
            let (pid, req_id, reply) = (shared.pid, job.req_id, Reply::Delegate(result));
            let answer = DexMsg::Reply { pid, req_id, reply };
            endpoint.send_traced(ctx, job.from, answer, job.span);
        }
    }
}
