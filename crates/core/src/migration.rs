//! Thread migration (§III-A), both ends.
//!
//! [`ThreadCtx::migrate`] relocates a thread exactly as the paper
//! describes. The origin captures the execution context and ships it in a
//! `MigrateRequest`. The destination's dispatcher
//! ([`handle_migrate_request`]) builds the process's remote worker on the
//! first migration of the process to that node, forks the remote thread,
//! installs the context and acknowledges with the phase breakdown
//! (Figure 3). The first migration of a thread also starts its paired
//! original thread at the origin, which services the thread's delegated
//! work while it is away. A backward migration ships the context home
//! ([`serve_migrate_back`]); it only updates the original thread's state.

use std::rc::Rc;

use dex_net::{NodeId, SpanContext};
use dex_os::{ExecutionContext, Tid, VirtAddr};
use dex_sim::{SimChannel, SimCtx, SimDuration};

use crate::counters::Counter;
use crate::delegation::pair_thread_loop;
use crate::msg::{DelegatedOp, DexMsg, MigrationPhases, Reply};
use crate::process::{
    DelegationJob, Endpoint, MigrationSample, ProcessShared, WaitError, UNWATCHED,
};
use crate::span::{SpanKind, PROTOCOL_TASK};
use crate::thread::ThreadCtx;
use crate::vma_sync::remote_worker_loop;

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

impl ThreadCtx<'_> {
    /// Relocates this thread to `dst`. A no-op when already there; a
    /// remote→remote move goes home first (backward) and then forward.
    ///
    /// # Errors
    ///
    /// [`MigrateError::NoSuchNode`] if `dst` is outside the cluster;
    /// [`MigrateError::NodeCrashed`] if a fault plan crashed `dst` (the
    /// thread stays at the origin in that case).
    pub fn migrate(&self, dst: impl Into<NodeId>) -> Result<(), MigrateError> {
        let (dst, shared) = (dst.into(), &self.shared);
        if (dst.0 as usize) >= shared.nodes {
            return Err(MigrateError::NoSuchNode {
                requested: dst,
                nodes: shared.nodes,
            });
        }
        if dst == self.node() {
            return Ok(());
        }
        self.migrate_back()?;
        if dst == shared.origin {
            return Ok(());
        }
        self.migrate_forward(dst)
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
        let (here, loads) = (self.node(), self.shared.thread_counts());
        // The thread does not load its own node; ties go to staying, then
        // to the lowest node id.
        let others = (0..loads.len() as u16).map(NodeId).filter(|n| *n != here);
        let target = std::iter::once(here)
            .chain(others)
            .min_by_key(|n| loads[n.0 as usize] - i64::from(*n == here))
            .expect("the thread's own node");
        self.migrate(target)?;
        Ok(target)
    }

    fn migrate_forward(&self, dst: NodeId) -> Result<(), MigrateError> {
        let shared = &self.shared;
        let ctx = self.sim;
        let t0 = ctx.now();
        let span = shared.spans.start(t0);

        // Origin side: capture the execution context; the first migration
        // of a thread also builds its per-thread migration structures.
        let origin_cost = if self.has_migrated.get() {
            shared.cost.context_capture_next
        } else {
            shared.cost.context_capture_first
        };
        ctx.advance(origin_cost);

        let node = self.node();
        let reply = self.round(Some(dst), false, |req_id| {
            let request = DexMsg::MigrateRequest {
                pid: shared.pid,
                tid: self.tid(),
                context: self.synthesize_context(),
                req_id,
            };
            self.endpoint(node)
                .send_traced(ctx, dst, request, span.wire());
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
        self.move_to(dst);
        if !self.has_migrated.replace(true) {
            self.start_pair_thread();
        }

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
        shared.spans.finish(span, ctx, || {
            let label = if first_on_node {
                "first_on_node"
            } else {
                "worker_reused"
            };
            SpanKind::MigrationForward.on(node, self.tid(), label)
        });
        Ok(())
    }

    /// Brings the thread back to its origin node (backward migration).
    /// No-op when already home.
    pub fn migrate_back(&self) -> Result<(), MigrateError> {
        let (shared, ctx, node) = (&self.shared, self.sim, self.node());
        if node == shared.origin {
            return Ok(());
        }
        if shared.fabric.node_crashed(node, ctx.now()) {
            // The node died under the thread: there is no remote side left
            // to capture context from, so skip the protocol round trip.
            self.rehome_after_crash();
            return Ok(());
        }
        let t0 = ctx.now();
        let span = shared.spans.start(t0);
        ctx.advance(shared.cost.backward_capture);

        let reply = self.round(UNWATCHED, false, |req_id| {
            let request = DexMsg::MigrateBack {
                pid: shared.pid,
                tid: self.tid(),
                context: self.synthesize_context(),
                req_id,
            };
            self.endpoint(node)
                .send_traced(ctx, shared.origin, request, span.wire());
        });
        match reply {
            Ok(Reply::MigrateBackAck) => {}
            Ok(other) => unreachable!("backward migration answered with {other:?}"),
            Err(WaitError::OwnNodeCrashed) => {
                // Crashed mid-backward-migration: the context capture is
                // lost with the node; re-home the thread directly.
                self.rehome_after_crash();
                return Ok(());
            }
        }
        self.move_to(shared.origin);
        shared.count(node, Counter::MigrationsBackward, 1);
        shared.migrations.lock().push(MigrationSample {
            forward: false,
            first_on_node: false,
            origin_side: shared.cost.backward_update,
            remote_side: shared.cost.backward_capture,
            total: ctx.now() - t0,
            phases: vec![("capture", shared.cost.backward_capture)],
        });
        shared.spans.finish(span, ctx, || {
            SpanKind::MigrationBack.on(node, self.tid(), "migrate_back")
        });
        Ok(())
    }

    /// Builds a deterministic register file for the context transfer so
    /// its integrity is testable end to end.
    fn synthesize_context(&self) -> ExecutionContext {
        let tid = self.tid().0;
        let mut context = ExecutionContext::default();
        for (i, r) in context.regs.iter_mut().enumerate() {
            *r = tid.wrapping_mul(0x9E3779B9).wrapping_add(i as u64);
        }
        context.ip = 0x400000 + tid * 0x10;
        context.sp = 0x7fff_0000_0000 - tid * 0x100000;
        context
    }

    /// Starts the thread's paired original thread at the origin; runs once,
    /// on the thread's first migration.
    fn start_pair_thread(&self) {
        let chan: SimChannel<DelegationJob> = SimChannel::unbounded();
        let tid = self.tid();
        self.shared.delegation.lock().insert(tid, chan.clone());
        let shared = Rc::clone(&self.shared);
        self.sim.spawn_daemon(format!("pair-{tid}"), move |ctx| {
            pair_thread_loop(ctx, shared, tid, chan);
        });
    }
}

/// Remote-node handling of a forward migration: create the per-process
/// remote worker on first contact, fork a remote thread, install the
/// context, and ack with the phase breakdown (Figure 3). Each phase is a
/// child span of the origin's migration span.
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_migrate_request(
    ctx: &SimCtx,
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
    node: NodeId,
    from: NodeId,
    tid: Tid,
    context: ExecutionContext,
    req_id: u64,
    span: SpanContext,
) {
    // Verify the context transferred intact (serialization round-trip).
    let roundtrip =
        ExecutionContext::from_bytes(&context.to_bytes()).expect("context deserializes");
    assert_eq!(roundtrip, context, "execution context corrupted in transit");

    let first = {
        let mut worker = shared.remote_workers[node.0 as usize].lock();
        let first = worker.is_none();
        if first {
            let chan = SimChannel::unbounded();
            *worker = Some(chan.clone());
            let shared2 = Rc::clone(shared);
            let endpoint2 = endpoint.clone();
            ctx.spawn_daemon(format!("remote-worker-{}-{node}", shared.pid), move |ctx| {
                remote_worker_loop(ctx, shared2, endpoint2, node, chan);
            });
        }
        first
    };
    let cost = &shared.cost;
    // Per-process setup: remote worker creation dominates the first
    // migration (620 µs of the 800 µs remote side, Figure 3).
    let setup = if first {
        ("remote_worker", cost.remote_worker_setup)
    } else {
        ("worker_reuse", cost.worker_reuse)
    };
    let phases: MigrationPhases = vec![
        setup,
        ("thread_fork", cost.thread_fork),
        ("context_install", cost.context_install),
    ];
    for &(label, d) in &phases {
        let t0 = ctx.now();
        ctx.advance(d);
        let phase = shared.spans.start(t0);
        shared.spans.finish(phase, ctx, || {
            SpanKind::MigrationPhase.on(node, tid, label).under(span)
        });
    }

    let (pid, reply) = (shared.pid, Reply::MigrateAck(phases));
    endpoint.send_traced(ctx, from, DexMsg::Reply { pid, req_id, reply }, span);
}

/// The origin's half of a backward migration: only the original thread's
/// state is updated — two orders of magnitude cheaper than forward.
pub(crate) fn serve_migrate_back(
    ctx: &SimCtx,
    shared: &ProcessShared,
    endpoint: &Endpoint,
    node: NodeId,
    from: NodeId,
    req_id: u64,
    span: SpanContext,
) {
    let update = shared.spans.start(ctx.now());
    ctx.advance(shared.cost.backward_update);
    shared.spans.finish(update, ctx, || {
        SpanKind::MigrationPhase
            .on(node, PROTOCOL_TASK, "backward_update")
            .under(span)
    });
    let (pid, reply) = (shared.pid, Reply::MigrateBackAck);
    endpoint.send_traced(ctx, from, DexMsg::Reply { pid, req_id, reply }, span);
}
