//! The per-thread execution context: the access path, the fault path,
//! prefetch and the thread lifecycle.
//!
//! A [`ThreadCtx`] is what application code sees. Its memory operations
//! perform the same PTE permission check the MMU would; misses enter the
//! DEX fault path: a VMA miss pulls the mapping (`vma_sync.rs`), a page
//! miss runs leader–follower coalescing and then the ownership protocol
//! (`protocol.rs`). The thread's other mechanisms are `ThreadCtx` methods
//! written beside the far end of their exchange: migration in
//! `migration.rs`, delegated futexes and syscalls in `delegation.rs`,
//! address-space calls in `vma_sync.rs`. This module keeps what they share:
//! the request round ([`ThreadCtx::round`]), the move between nodes and
//! the re-home after a crash.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, AddressSpace, MemFault, Tid, VirtAddr, Vpn, PAGE_SIZE};
use dex_sim::{SimCtx, SimDuration, ThreadId};

use crate::counters::Counter;
use crate::dispatch::perform_outputs;
use crate::msg::Reply;
use crate::process::{Endpoint, ProcessShared, WaitError, UNWATCHED};
use crate::protocol::{requester_step, HomeIn, Output, PageMsg, RequesterIn};
use crate::race::{RaceEvent, RaceEventKind};
use crate::span::{SpanId, SpanKind};

/// The value an access event records: the first `min(len, 8)` bytes of
/// the transferred data, little-endian, gathered from the access's page
/// pieces as they pass. Enough for the SC oracle to distinguish the
/// word-sized writes application workloads use.
#[derive(Default)]
struct Head {
    bytes: [u8; 8],
    len: usize,
}

impl Head {
    fn of(bytes: &[u8]) -> u64 {
        let mut head = Head::default();
        head.take(bytes);
        head.value()
    }

    fn take(&mut self, piece: &[u8]) {
        let n = piece.len().min(8 - self.len);
        self.bytes[self.len..self.len + n].copy_from_slice(&piece[..n]);
        self.len += n;
    }

    fn value(&self) -> u64 {
        u64::from_le_bytes(self.bytes)
    }
}

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
    /// A new application thread of `shared`: its handle, and the body to
    /// spawn. The thread starts at the origin, counts toward its node's
    /// load while it runs, and marks the handle done when `f` returns.
    pub(crate) fn start<F>(
        shared: &Rc<ProcessShared>,
        f: F,
    ) -> (DexThread, impl FnOnce(&SimCtx) + 'static)
    where
        F: FnOnce(&ThreadCtx<'_>) + 'static,
    {
        let shared = Rc::clone(shared);
        let handle = DexThread {
            tid: shared.new_tid(),
            state: Arc::new(Mutex::new(JoinState::default())),
        };
        let done = handle.clone();
        let body = move |ctx: &SimCtx| {
            shared.adjust_load(shared.origin, 1);
            let tctx = ThreadCtx::new(ctx, shared, done.tid);
            f(&tctx);
            tctx.process().adjust_load(tctx.node(), -1);
            done.mark_done(&tctx);
        };
        (handle, body)
    }

    /// The thread's id within the process.
    pub(crate) fn tid(&self) -> Tid {
        self.tid
    }

    /// Called by the thread itself once its closure has returned.
    fn mark_done(&self, tctx: &ThreadCtx<'_>) {
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
    pub(crate) shared: Rc<ProcessShared>,
    tid: Tid,
    node: Cell<NodeId>,
    pub(crate) site: Cell<&'static str>,
    /// The thread has migrated once, so its original thread is running.
    pub(crate) has_migrated: Cell<bool>,
    /// Nesting depth inside synchronization primitives: while positive,
    /// raw access/futex events are suppressed and the primitives emit
    /// semantic race events instead.
    sync_depth: Cell<u32>,
}

impl<'a> ThreadCtx<'a> {
    pub(crate) fn new(sim: &'a SimCtx, shared: Rc<ProcessShared>, tid: Tid) -> Self {
        let origin = shared.origin;
        ThreadCtx {
            sim,
            shared,
            tid,
            node: Cell::new(origin),
            site: Cell::new("unknown"),
            has_migrated: Cell::new(false),
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
    pub(crate) fn record_race_event(&self, kind: RaceEventKind) {
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
    pub fn process(&self) -> &Rc<ProcessShared> {
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
        let mut filled = 0;
        self.read_with(addr, dst.len(), |piece| {
            dst[filled..filled + piece.len()].copy_from_slice(piece);
            filled += piece.len();
        });
    }

    /// Writes `src` at `addr` through the consistency protocol.
    pub fn write_bytes(&self, addr: VirtAddr, src: &[u8]) {
        let mut written = 0;
        self.write_with(addr, src.len(), src, |piece| {
            piece.copy_from_slice(&src[written..written + piece.len()]);
            written += piece.len();
        });
    }

    /// Reads `len` bytes at `addr` through the consistency protocol,
    /// handing `visit` each page-bounded piece in address order, straight
    /// from the resident frame and under the address-space lock.
    pub(crate) fn read_with(&self, addr: VirtAddr, len: usize, mut visit: impl FnMut(&[u8])) {
        let mut head = Head::default();
        self.walk(addr, len, Access::Read, |space, at, n| {
            let offset = at.page_offset();
            let piece = &space.page_bytes(at.vpn())[offset..offset + n];
            head.take(piece);
            visit(piece);
        });
        // Recorded after the copy so the event carries the value the
        // application actually observed (reads-from for the SC oracle).
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: len as u32,
            is_write: false,
            atomic: false,
            value: head.value(),
        });
    }

    /// Writes `len` bytes at `addr` through the consistency protocol:
    /// `fill` must overwrite each page-bounded piece of the frame it is
    /// handed, in address order. `prefix` is the start of the bytes about
    /// to be written (at least `min(len, 8)` of them), which the race
    /// event carries.
    pub(crate) fn write_with(
        &self,
        addr: VirtAddr,
        len: usize,
        prefix: &[u8],
        mut fill: impl FnMut(&mut [u8]),
    ) {
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: len as u32,
            is_write: true,
            atomic: false,
            value: Head::of(prefix),
        });
        self.walk(addr, len, Access::Write, |space, at, n| {
            let offset = at.page_offset();
            fill(&mut space.frame_mut(at.vpn()).bytes_mut()[offset..offset + n]);
        });
    }

    /// The one access path. Walks `[addr, addr + len)` a page at a time:
    /// takes the node's address-space lock once per page, runs the PTE
    /// check, and on a hit hands `visit` the page-bounded piece under that
    /// lock. A miss drops the lock, runs the fault path, and retries the
    /// page — the same events, in the same order, as a check followed by
    /// a copy.
    fn walk(
        &self,
        addr: VirtAddr,
        len: usize,
        access: Access,
        mut visit: impl FnMut(&mut AddressSpace, VirtAddr, usize),
    ) {
        let mut cursor = addr;
        let mut done = 0usize;
        while done < len {
            let fabric = &self.shared.fabric;
            if fabric.faults_enabled() && fabric.node_crashed(self.node.get(), self.sim.now()) {
                // Fail-stop: a thread on a crashed node runs no further
                // access there; it re-homes and the access re-runs at the
                // origin.
                self.rehome_after_crash();
            }
            let n = (PAGE_SIZE - cursor.page_offset()).min(len - done);
            let check = {
                let mut space = self.shared.space(self.node.get()).lock();
                let check = space.check(cursor, access);
                if check.is_ok() {
                    visit(&mut space, cursor, n);
                }
                check
            };
            match check {
                Ok(()) => {
                    done += n;
                    cursor = cursor.add(n as u64);
                }
                Err(fault) => self.fault(fault, cursor, access),
            }
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
        let mut f = Some(f);
        let mut head = Head::default();
        self.walk(addr, len, Access::Write, |space, at, n| {
            let offset = at.page_offset();
            let bytes = &mut space.frame_mut(at.vpn()).bytes_mut()[offset..offset + n];
            (f.take().expect("an atomic covers one page"))(bytes);
            head.take(bytes);
        });
        if let Some(f) = f {
            f(&mut []); // a zero-length atomic touches no page
        }
        // Recorded after the update so the event carries the value the
        // atomic deposited (reads-from for the SC oracle).
        self.record_race_event(RaceEventKind::Access {
            addr,
            len: len as u32,
            is_write: true,
            atomic: true,
            value: head.value(),
        });
    }

    /// Atomic compare-and-swap on a `u32`; returns the previous value.
    pub fn cas_u32(&self, addr: VirtAddr, expected: u32, new: u32) -> u32 {
        self.rmw_u32(addr, |old| if old == expected { new } else { old })
    }

    /// Atomic fetch-add on a `u32`; returns the previous value.
    pub fn fetch_add_u32(&self, addr: VirtAddr, delta: u32) -> u32 {
        self.rmw_u32(addr, |old| old.wrapping_add(delta))
    }

    /// Atomic swap on a `u32`; returns the previous value.
    pub fn swap_u32(&self, addr: VirtAddr, new: u32) -> u32 {
        self.rmw_u32(addr, |_| new)
    }

    /// Atomically replaces the `u32` at `addr` with `f` of it; returns the
    /// previous value.
    fn rmw_u32(&self, addr: VirtAddr, f: impl FnOnce(u32) -> u32) -> u32 {
        let mut old = 0u32;
        self.rmw_bytes(addr, 4, |b| {
            old = u32::from_le_bytes(b.try_into().expect("4 bytes"));
            b.copy_from_slice(&f(old).to_le_bytes());
        });
        old
    }

    // ---- the fault path ----

    /// Ensures an access of kind `access` at `addr` can proceed locally,
    /// running VMA synchronization and the consistency protocol as needed.
    pub(crate) fn ensure(&self, addr: VirtAddr, access: Access) {
        self.walk(addr, 1, access, |_, _, _| {});
    }

    /// Runs the fault path for one failed check; the caller re-checks.
    fn fault(&self, fault: MemFault, addr: VirtAddr, access: Access) {
        match fault {
            MemFault::VmaMiss { .. } => self.vma_fault(addr, access),
            MemFault::Protocol { vpn, .. } => self.page_fault(vpn, access, addr),
        }
    }

    fn page_fault(&self, vpn: Vpn, access: Access, addr: VirtAddr) {
        let shared = Rc::clone(&self.shared);
        let node = self.node.get();
        let is_write = access.is_write();
        let ctx = self.sim;

        let fault_span = shared.spans.start(ctx.now());

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
                tag: fault_span.id().0,
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
            shared.spans.finish(fault_span, ctx, || {
                SpanKind::FollowerWait
                    .on(node, self.tid, "follower_wait")
                    .under(SpanId(leader_tag))
            });
            return; // the outer ensure() loop re-checks the updated PTE
        }

        let t0 = ctx.now();
        let wire_span = fault_span.wire();
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
            let retry_span = shared.spans.start(ctx.now());
            let jitter = (self.tid.0 * 7_000 + rounds * 13_000) % 60_000;
            ctx.advance(shared.cost.retry_backoff + SimDuration::from_nanos(jitter));
            shared.spans.finish(retry_span, ctx, || {
                SpanKind::FaultRetry
                    .on(node, self.tid, "retry_backoff")
                    .under(fault_span.id())
            });
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
        shared.spans.finish(fault_span, ctx, || {
            let label = match (minor, is_write) {
                (true, _) => "minor_fault",
                (false, true) => "write_fault",
                (false, false) => "read_fault",
            };
            let tag = shared.tag_for(node, addr);
            SpanKind::Fault
                .on(node, self.tid, label)
                .at(tag, self.site.get(), addr)
        });

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
                Err(crash) => {
                    // This node or a directory home died mid-prefetch.
                    // Unlike the mandatory fault path, a hint can simply
                    // be dropped: abandon the outstanding slots and let
                    // first touch (and crash recovery) sort the rest out.
                    // Grants already applied to a dead node are moot; a
                    // thread on one goes home.
                    denied += 1;
                    for (_, rid, _) in outstanding.by_ref() {
                        shared.abandon_pending(node, rid);
                        denied += 1;
                    }
                    if crash == WaitError::OwnNodeCrashed {
                        self.rehome_after_crash();
                    }
                    break;
                }
            }
        }
        shared.count(node, Counter::PrefetchPages, granted);
        shared.count(node, Counter::PrefetchDenied, denied);
    }

    /// Moves this thread's execution (and its share of the node load) to
    /// `dst`.
    pub(crate) fn move_to(&self, dst: NodeId) {
        self.shared.adjust_load(self.node.get(), -1);
        self.shared.adjust_load(dst, 1);
        self.node.set(dst);
    }

    /// Picks the thread up off its fail-stopped node and re-homes it to
    /// the origin — the graceful-degradation half of the fault model. Any
    /// dirty pages whose only copy lived on the dead node are lost (the
    /// directory reverts them to the origin's last flushed frame);
    /// cluster-wide recovery itself is idempotent and may already have
    /// run on behalf of another thread.
    pub(crate) fn rehome_after_crash(&self) {
        let shared = &self.shared;
        shared.count(self.node.get(), Counter::MigrationsCrashRehomed, 1);
        shared.maybe_handle_crashes(self.sim);
        self.move_to(shared.origin);
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
        F: FnOnce(&ThreadCtx<'_>) + 'static,
    {
        let (handle, body) = DexThread::start(&self.shared, f);
        self.record_race_event(RaceEventKind::Spawn { child: handle.tid });
        self.sim.spawn(name, body);
        handle
    }

    pub(crate) fn endpoint(&self, node: NodeId) -> Endpoint {
        self.shared.fabric.endpoint(node)
    }

    /// One request/reply round from this thread's node: allocates the
    /// request id, registers the wait *before* `send(req_id)` puts the
    /// request on the wire, then waits for the reply watching this node
    /// and `peer` for a crash ([`UNWATCHED`]: this node only, and
    /// `PeerCrashed` cannot occur). `unbounded` exempts a wait with no
    /// deadline of its own (a futex wait) from the stuck-run check.
    pub(crate) fn round<P: Copy + Into<NodeId>>(
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
