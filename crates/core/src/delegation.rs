//! Work delegation (§III-A), both ends.
//!
//! Futexes and other stateful kernel features run in the origin's
//! context. A thread at the origin runs them in place; a migrated thread
//! sends a `Delegate` request ([`ThreadCtx::at_origin`], the one round),
//! which the origin's dispatcher hands to the thread's paired original
//! thread ([`route_to_pair`]); that thread ([`pair_thread_loop`]) runs
//! the op in [`run_at_origin`], the one executor, and replies. A queued
//! `FUTEX_WAIT` is answered later by the `FUTEX_WAKE` that dequeues it.

use std::rc::Rc;
use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, Tid, VirtAddr, VmaKind};
use dex_sim::{SimChannel, SimCtx, SimDuration, ThreadId};

use crate::counters::Counter;
use crate::msg::{DelegatedOp, DexMsg, Reply, VmaOp};
use crate::process::{DelegationJob, ProcessShared, WaitError, UNWATCHED};
use crate::race::RaceEventKind;
use crate::span::{SpanKind, SpanTimer};
use crate::thread::ThreadCtx;
use crate::vma_sync::vma_op_at_origin;

/// `EAGAIN`-style result of a futex wait whose word changed first.
pub const FUTEX_EAGAIN: i64 = -11;

impl ThreadCtx<'_> {
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
        let span = shared.spans.start(self.sim.now());
        shared.count(self.node(), Counter::FutexWaits, 1);
        let result = self.at_origin(DelegatedOp::FutexWait { addr, expected }, span.wire());
        shared.spans.finish(span, self.sim, || {
            let label = if result.is_ok() {
                "futex_woken"
            } else {
                "futex_eagain"
            };
            SpanKind::FutexWait.on(self.node(), self.tid(), label)
        });
        result
    }

    /// `FUTEX_WAKE`: wakes up to `count` waiters of the word at `addr`.
    /// Returns the number woken.
    pub fn futex_wake(&self, addr: VirtAddr, count: u32) -> i64 {
        self.record_race_event(RaceEventKind::FutexWake { addr });
        let shared = &self.shared;
        let node = self.node();
        shared.count(node, Counter::FutexWakes, 1);
        let span = shared.spans.start(self.sim.now());
        let result = self
            .at_origin(DelegatedOp::FutexWake { addr, count }, span.wire())
            .expect_err("only FUTEX_WAIT is woken");
        shared.spans.finish(span, self.sim, || {
            SpanKind::FutexWake.on(node, self.tid(), "futex_wake")
        });
        result
    }

    /// Performs a stateful system call at the origin (file I/O stand-in),
    /// keeping the original thread busy for `busy`.
    pub fn syscall(&self, busy: SimDuration) {
        let result = self.delegate(DelegatedOp::Syscall { busy });
        assert_eq!(result, 0);
    }

    /// Runs `op` (anything but `FUTEX_WAIT`) through [`Self::at_origin`];
    /// a remote caller's round is recorded as a `Delegation` span.
    pub(crate) fn delegate(&self, op: DelegatedOp) -> i64 {
        let shared = &self.shared;
        let span = if self.node() == shared.origin {
            SpanTimer::OFF
        } else {
            shared.spans.start(self.sim.now())
        };
        let result = self
            .at_origin(op, span.wire())
            .expect_err("only FUTEX_WAIT is woken");
        shared.spans.finish(span, self.sim, || {
            SpanKind::Delegation.on(self.node(), self.tid(), "delegate")
        });
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
            let node = self.node();
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
                    tid: self.tid(),
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
}

/// The origin's dispatcher hands a delegation request to the requesting
/// thread's original thread.
pub(crate) fn route_to_pair(
    ctx: &SimCtx,
    shared: &ProcessShared,
    from: NodeId,
    tid: Tid,
    op: DelegatedOp,
    req_id: u64,
    span: SpanContext,
) {
    let chan = shared.delegation.lock().get(&tid).cloned();
    let chan = chan.unwrap_or_else(|| panic!("delegation for {tid} with no original thread"));
    chan.send(ctx, (op, from, req_id, span))
        .expect("pair channel open");
}

/// Service loop of a migrated thread's original thread at the origin: it
/// sleeps until a work request arrives, performs it in the origin context,
/// and replies (§III-A).
pub(crate) fn pair_thread_loop(
    ctx: &SimCtx,
    shared: Rc<ProcessShared>,
    tid: Tid,
    chan: SimChannel<DelegationJob>,
) {
    let tctx = ThreadCtx::new(ctx, Rc::clone(&shared), tid);
    let endpoint = shared.fabric.endpoint(shared.origin);
    while let Some((op, from, req_id, span)) = chan.recv(ctx) {
        let service = shared.spans.start(ctx.now());
        let outcome = run_at_origin(&tctx, &op, from, req_id);
        shared.spans.finish(service, ctx, || {
            SpanKind::DelegationService
                .on(shared.origin, tid, "delegation_service")
                .under(span)
        });
        // A queued waiter is answered by the FUTEX_WAKE that dequeues it.
        if let AtOrigin::Done(result) = outcome {
            let (pid, reply) = (shared.pid, Reply::Delegate(result));
            endpoint.send_traced(ctx, from, DexMsg::Reply { pid, req_id, reply }, span);
        }
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
            futex_wake_at_origin(ctx, shared, addr, count, tctx.tid())
        }
        DelegatedOp::Mmap { len, prot } => {
            let mut space = shared.space(shared.origin).lock();
            space.vmas.mmap(len, prot, VmaKind::Anon, None).as_u64() as i64
        }
        DelegatedOp::Munmap { addr, len } => {
            vma_op_at_origin(ctx, shared, VmaOp::Unmap { addr, len });
            0
        }
        DelegatedOp::Mprotect { addr, len, prot } => {
            vma_op_at_origin(ctx, shared, VmaOp::Protect { addr, len, prot });
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
    shared: &Rc<ProcessShared>,
    addr: VirtAddr,
    count: u32,
    waker: Tid,
) -> i64 {
    let woken = shared.futex.lock().wake(addr, count as usize);
    let waiters: Vec<(NodeId, u64)> = {
        let mut nodes = shared.futex_nodes.lock();
        let mut node = |req| nodes.remove(&req).expect("waiter node recorded");
        woken.iter().map(|t| (node(t.0), t.0)).collect()
    };
    if shared.race.is_enabled() {
        let mut wakers = shared.futex_wakers.lock();
        wakers.extend(woken.iter().map(|t| (t.0, waker)));
    }
    let endpoint = shared.fabric.endpoint(shared.origin);
    for (node, req_id) in waiters {
        if node == shared.origin {
            shared.complete(ctx, node, req_id, node, Reply::FutexWoken);
        } else {
            let (pid, reply) = (shared.pid, Reply::FutexWoken);
            endpoint.send(ctx, node, DexMsg::Reply { pid, req_id, reply });
        }
    }
    woken.len() as i64
}
