//! Per-node message dispatchers and remote workers.
//!
//! Each node runs one dispatcher daemon that drains the node's fabric
//! inbox and handles DEX protocol messages: it is the simulated analogue
//! of the kernel message-handler context. The dispatcher never blocks on
//! another node — requests that need remote acknowledgments are turned
//! into directory transactions that later acks complete — so the protocol
//! cannot deadlock across dispatchers.
//!
//! The first migration of a process onto a node also creates the
//! *remote worker* (§III-A): a per-process daemon that applies node-wide
//! operations (eager VMA updates) in its own context.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, PageFrame, Pid, Tid, PAGE_SIZE};
use dex_sim::{SimChannel, SimCtx, SimDuration};

use crate::counters::Counter;
use crate::msg::{DexMsg, MigrationPhases, Reply, VmaOp};
use crate::process::{DelegationJob, ProcessShared};
use crate::protocol::{
    self, holder_admit, holder_step, requester_step, Deferred, HomeIn, Output, PageMsg,
    RequesterIn, Role,
};
use crate::span::{Span, SpanId, SpanKind};

/// The task id span records use for protocol handlers (no app thread).
const PROTOCOL_TASK: Tid = Tid(u64::MAX);

/// The cluster-level registry the dispatchers consult to find process
/// state by pid.
#[derive(Default)]
pub(crate) struct ProcessRegistry {
    processes: Mutex<Vec<(Pid, Arc<ProcessShared>)>>,
}

impl ProcessRegistry {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn insert(&self, shared: Arc<ProcessShared>) {
        self.processes.lock().push((shared.pid, shared));
    }

    pub(crate) fn get(&self, pid: Pid) -> Arc<ProcessShared> {
        self.processes
            .lock()
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, s)| Arc::clone(s))
            .unwrap_or_else(|| panic!("message for unknown process {pid}"))
    }
}

/// Runs the dispatcher loop for `node`. Spawned as a daemon by the
/// cluster; exits when the engine drains.
pub(crate) fn dispatcher_loop(
    ctx: &SimCtx,
    node: NodeId,
    registry: Arc<ProcessRegistry>,
    endpoint: crate::process::Endpoint,
) {
    while let Some(delivery) = endpoint.recv(ctx) {
        let from = delivery.src;
        let span = delivery.span;
        match delivery.msg {
            DexMsg::Page { pid, msg } => {
                let shared = registry.get(pid);
                match msg.role() {
                    Role::Home => handle_home_msg(ctx, &shared, &endpoint, node, from, msg, span),
                    Role::Holder => {
                        let tag = span.0;
                        let admitted =
                            holder_admit(&mut shared.proto[node.0 as usize].lock(), from, msg, tag);
                        if let Some(msg) = admitted {
                            serve_holder_msg(ctx, &shared, &endpoint, node, from, msg, span);
                        }
                    }
                    Role::Requester => handle_grant(ctx, &shared, &endpoint, node, msg, span),
                }
            }
            DexMsg::VmaRequest { pid, addr, req_id } => {
                let shared = registry.get(pid);
                ctx.advance(shared.cost.protocol_handling);
                let vma = shared.space(shared.origin).lock().vmas.find(addr).cloned();
                let reply = Reply::Vma(vma);
                endpoint.send(ctx, from, DexMsg::Reply { pid, req_id, reply });
            }
            DexMsg::VmaUpdate { pid, op, req_id } => {
                let shared = registry.get(pid);
                // Node-wide operations are handed to the remote worker when
                // one exists; otherwise (no thread ever migrated here) the
                // dispatcher applies them directly.
                let chan = shared.remote_nodes[node.0 as usize]
                    .lock()
                    .worker_chan
                    .clone();
                match chan {
                    Some(chan) => {
                        // Queue the op for the remote worker; it applies the
                        // change in its own context and acks the origin
                        // itself, so the dispatcher never blocks.
                        chan.send(ctx, (op, req_id, from))
                            .expect("remote worker channel open");
                    }
                    None => {
                        apply_vma_op(&shared, node, &op);
                        let reply = Reply::BroadcastDone;
                        endpoint.send(ctx, from, DexMsg::Reply { pid, req_id, reply });
                    }
                }
            }
            DexMsg::MigrateRequest {
                pid,
                tid,
                context,
                req_id,
            } => {
                let shared = registry.get(pid);
                handle_migrate_request(
                    ctx, &shared, &endpoint, node, from, tid, context, req_id, span,
                );
            }
            DexMsg::MigrateBack { pid, req_id, .. } => {
                let shared = registry.get(pid);
                // Backward migration only updates the original thread's
                // state — two orders of magnitude cheaper than forward.
                let t0 = ctx.now();
                let update = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
                ctx.advance(shared.cost.backward_update);
                if let Some(id) = update {
                    shared.spans.record(Span {
                        id,
                        parent: SpanId(span.0),
                        kind: SpanKind::MigrationPhase,
                        node,
                        task: PROTOCOL_TASK,
                        start: t0,
                        end: ctx.now(),
                        label: "backward_update",
                        tag: None,
                        site: "",
                        addr: None,
                    });
                }
                let reply = Reply::MigrateBackAck;
                endpoint.send_traced(ctx, from, DexMsg::Reply { pid, req_id, reply }, span);
            }
            DexMsg::Delegate {
                pid,
                tid,
                op,
                req_id,
            } => {
                let shared = registry.get(pid);
                let chan = shared.delegation.lock().get(&tid).cloned();
                let chan =
                    chan.unwrap_or_else(|| panic!("delegation for {tid} with no original thread"));
                chan.send(
                    ctx,
                    DelegationJob {
                        op,
                        from,
                        req_id,
                        span,
                    },
                )
                .expect("pair channel open");
            }
            DexMsg::Reply { pid, req_id, reply } => {
                registry.get(pid).complete(ctx, node, req_id, from, reply);
            }
        }
    }
}

/// Home-side handling of a request or acknowledgment: charge the handler
/// cost, run the home step (directory transition + the home's own PTE and
/// frame changes, atomically), then perform its outputs. `node` is the
/// handling node — the origin classically, the page's home shard
/// otherwise.
fn handle_home_msg(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    msg: PageMsg<PageFrame>,
    span: SpanContext,
) {
    let t0 = ctx.now();
    // A request opens a directory-handling span; acknowledgments continue
    // under the span of the transaction they complete (echoed back by the
    // sharer), so the deferred grant stays stitched to it.
    let request = match &msg {
        PageMsg::Request { access, .. } => Some(*access),
        _ => None,
    };
    let spanned = request.is_some();
    let handling = (spanned && shared.spans.is_enabled()).then(|| shared.spans.alloc_id());
    ctx.advance(shared.cost.protocol_handling);
    let outs = shared.home_step(node, msg.page(), HomeIn::Msg { from, msg });
    // Grants and invalidations stitch to the *handling* span so the
    // requester-side fixup becomes its child; with spans off the incoming
    // context (necessarily NONE then) is forwarded unchanged.
    let out = handling.map_or(span, |id| SpanContext(id.0));
    perform_outputs(ctx, shared, endpoint, node, outs, out);
    if let Some(id) = handling {
        shared.spans.record(Span {
            id,
            parent: SpanId(span.0),
            kind: SpanKind::DirectoryHandling,
            node,
            task: PROTOCOL_TASK,
            start: t0,
            end: ctx.now(),
            label: if request.is_some_and(Access::is_write) {
                "page_request_write"
            } else {
                "page_request_read"
            },
            tag: None,
            site: "",
            addr: None,
        });
    }
}

/// Performs a role step's outputs at `node`, in order: the one place the
/// runtime turns protocol decisions into fabric sends and thread wakeups.
/// Serves the dispatcher, home-local faults and crash recovery's page
/// reclamation (`handle_node_crash`) alike.
///
/// `span` rides every outgoing message, so grants/invalidations carry the
/// directory-handling span of the transaction that produced them.
pub(crate) fn perform_outputs(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    outs: Vec<Output<PageFrame>>,
    span: SpanContext,
) {
    let pid = shared.pid;
    for out in outs {
        match out {
            Output::Send { to, msg } => {
                if matches!(msg, PageMsg::OwnerForward { .. }) {
                    shared.count(node, Counter::Forwards, 1);
                }
                endpoint.send_traced(ctx, to, DexMsg::Page { pid, msg }, span);
            }
            Output::Wake { req_id, retry } => {
                shared.complete(ctx, node, req_id, node, Reply::PageGrant { retry });
            }
            // Sharded mode: the grant the parked work was waiting for has
            // landed (or been turned into a retry) — it runs before the
            // requester's `Wake`, so the node's state is
            // protocol-consistent when the thread resumes.
            Output::Released(work) => run_deferred(ctx, shared, endpoint, node, work),
            Output::ZeroPageGrant => shared.count(node, Counter::ZeroPageGrants, 1),
            Output::WakeFollower(_) | Output::Lead | Output::Follow { .. } => {
                unreachable!("{out:?} is the faulting thread's to perform")
            }
        }
    }
}

/// Requester-side handling of a page grant: install data + PTE, run any
/// protocol work parked behind the grant, then wake the leader.
fn handle_grant(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    msg: PageMsg<PageFrame>,
    span: SpanContext,
) {
    let t0 = ctx.now();
    let fixup = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
    let label = match &msg {
        PageMsg::Grant { retry: true, .. } => "grant_retry",
        PageMsg::Grant { data: Some(_), .. } => {
            shared.count(node, Counter::PageBytesReceived, PAGE_SIZE as u64);
            "grant_with_data"
        }
        _ => "grant_no_transfer",
    };
    let outs = shared.with_node(node, |n| requester_step(n, RequesterIn::Msg(msg)));
    if let Some(id) = fixup {
        shared.spans.record(Span {
            id,
            parent: SpanId(span.0),
            kind: SpanKind::PageFixup,
            node,
            task: PROTOCOL_TASK,
            start: t0,
            end: ctx.now(),
            label,
            tag: None,
            site: "",
            addr: None,
        });
    }
    perform_outputs(ctx, shared, endpoint, node, outs, SpanContext::NONE);
}

/// Runs protocol work a node parked until its in-flight grant landed.
fn run_deferred(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    work: Deferred<PageFrame>,
) {
    shared.count(node, Counter::DeferredWork, 1);
    let span = SpanContext(work.tag);
    if matches!(work.msg, PageMsg::OwnerForward { .. }) {
        return serve_holder_msg(ctx, shared, endpoint, node, work.from, work.msg, span);
    }
    // A parked revocation was charged and spanned with the batch it
    // arrived in; only its (partial) ack is outstanding.
    let acks = shared.with_node(node, |n| holder_step(n, work.from, work.msg, work.tag));
    for ack in &acks {
        count_invalidations(shared, node, ack);
    }
    perform_outputs(ctx, shared, endpoint, node, acks, span);
}

/// Counts the invalidations an ack reports as applied at `node`. Returns
/// whether any of them ships page contents back.
fn count_invalidations(shared: &ProcessShared, node: NodeId, ack: &Output<PageFrame>) -> bool {
    let Output::Send { msg, .. } = ack else {
        return false;
    };
    let (applied, carried) = match msg {
        PageMsg::InvalidateAck { data, .. } => (1, data.is_some()),
        PageMsg::InvalidateBatchAck { entries } => (
            entries.len() as u64,
            entries.iter().any(|(_, data)| data.is_some()),
        ),
        _ => return false,
    };
    shared.count(node, Counter::Invalidations, applied);
    carried
}

/// Holder-side handling of an admitted revocation, flush or forward:
/// charge the handler cost, run the holder step on the local copy, account
/// and span it, send what it produced.
///
/// * `Invalidate` / `InvalidateBatch` — the ack echoes the *incoming*
///   (directory) span, not the local invalidation span, so the home's
///   deferred grant stays parented to the directory transaction that
///   caused the fan-out. The span carries the revoked page, the handler
///   as its site and the page's object tag: with the fault spans it is
///   the §IV-A fault record. A batch revokes one page (the directory
///   sends one entry per destination and transaction).
/// * `OwnerForward` (sharded) — the grant goes straight to the requester
///   (the two-hop critical path) and the ownership change is acknowledged
///   to the home asynchronously, both under the forward's own span.
fn serve_holder_msg(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    msg: PageMsg<PageFrame>,
    span: SpanContext,
) {
    let (kind, cost, mut label, site) = match &msg {
        PageMsg::Invalidate { needs_data, .. } => (
            Some(SpanKind::Invalidation),
            shared.cost.protocol_handling,
            if *needs_data {
                "invalidate_flush"
            } else {
                "invalidate_drop"
            },
            "protocol.invalidate",
        ),
        PageMsg::InvalidateBatch { entries } => {
            debug_assert_eq!(entries.len(), 1, "a batch revokes one page");
            (
                Some(SpanKind::InvalidateBatch),
                shared.cost.protocol_handling,
                "invalidate_batch_drop",
                "protocol.invalidate_batch",
            )
        }
        PageMsg::Flush { .. } => (None, shared.cost.protocol_handling, "", ""),
        PageMsg::OwnerForward { access, .. } => (
            Some(SpanKind::OwnerForward),
            shared.cost.forward_handling,
            if access.is_write() {
                "owner_forward_write"
            } else {
                "owner_forward_read"
            },
            "",
        ),
        other => unreachable!("{other:?} is not addressed to a holder"),
    };
    let (spanned, forward) = (kind.is_some(), kind == Some(SpanKind::OwnerForward));
    let t0 = ctx.now();
    let handling = (spanned && shared.spans.is_enabled()).then(|| shared.spans.alloc_id());
    let revoked = (handling.is_some() && !forward).then(|| msg.page().base());
    ctx.advance(cost);
    let sends = shared.with_node(node, |n| holder_step(n, from, msg, span.0));
    for ack in &sends {
        let carried = count_invalidations(shared, node, ack);
        if carried && kind == Some(SpanKind::InvalidateBatch) {
            label = "invalidate_batch_flush";
        }
    }
    let counter = match kind {
        Some(SpanKind::InvalidateBatch) => Some(Counter::InvalidateBatches),
        Some(SpanKind::OwnerForward) => Some(Counter::ForwardsServiced),
        _ => None,
    };
    if let Some(counter) = counter {
        shared.count(node, counter, 1);
    }
    let handled = |id, tag| Span {
        id,
        parent: SpanId(span.0),
        kind: kind.expect("spanned kinds only"),
        node,
        task: PROTOCOL_TASK,
        start: t0,
        end: ctx.now(),
        label,
        tag,
        site,
        addr: revoked,
    };
    // A revocation's span closes before its ack leaves; a forward's
    // covers its sends, which ride the forward's own span.
    if let Some(id) = handling.filter(|_| !forward) {
        let tag = revoked.and_then(|page| shared.tag_for(shared.origin, page));
        shared.spans.record(handled(id, tag));
    }
    let out = handling
        .filter(|_| forward)
        .map_or(span, |id| SpanContext(id.0));
    perform_outputs(ctx, shared, endpoint, node, sends, out);
    if let Some(id) = handling.filter(|_| forward) {
        shared.spans.record(handled(id, None));
    }
}

/// Remote-node handling of a forward migration: create the per-process
/// remote worker on first contact, fork a remote thread, install the
/// context, and ack with the phase breakdown (Figure 3).
#[allow(clippy::too_many_arguments)]
fn handle_migrate_request(
    ctx: &SimCtx,
    shared: &Arc<ProcessShared>,
    endpoint: &crate::process::Endpoint,
    node: NodeId,
    from: NodeId,
    tid: Tid,
    context: dex_os::ExecutionContext,
    req_id: u64,
    span: SpanContext,
) {
    // Times one remote-side phase and records it as a child of the
    // origin's migration span when spans are on.
    let record_phase = |label: &'static str, start, end| {
        let phase = shared.spans.is_enabled().then(|| shared.spans.alloc_id());
        if let Some(id) = phase {
            shared.spans.record(Span {
                id,
                parent: SpanId(span.0),
                kind: SpanKind::MigrationPhase,
                node,
                task: tid,
                start,
                end,
                label,
                tag: None,
                site: "",
                addr: None,
            });
        }
    };
    // Verify the context transferred intact (serialization round-trip).
    let roundtrip =
        dex_os::ExecutionContext::from_bytes(&context.to_bytes()).expect("context deserializes");
    assert_eq!(roundtrip, context, "execution context corrupted in transit");

    let mut phases: MigrationPhases = Vec::new();
    let first = {
        let mut state = shared.remote_nodes[node.0 as usize].lock();
        if state.worker_started {
            false
        } else {
            state.worker_started = true;
            let chan = SimChannel::unbounded();
            state.worker_chan = Some(chan.clone());
            let shared2 = Arc::clone(shared);
            let endpoint2 = endpoint.clone();
            ctx.spawn_daemon(format!("remote-worker-{}-{node}", shared.pid), move |ctx| {
                remote_worker_loop(ctx, shared2, endpoint2, node, chan);
            });
            true
        }
    };
    let t0 = ctx.now();
    if first {
        // Per-process setup: remote worker creation dominates the first
        // migration (620 µs of the 800 µs remote side, Figure 3).
        ctx.advance(shared.cost.remote_worker_setup);
        phases.push(("remote_worker", shared.cost.remote_worker_setup));
        record_phase("remote_worker", t0, ctx.now());
    } else {
        ctx.advance(shared.cost.worker_reuse);
        phases.push(("worker_reuse", shared.cost.worker_reuse));
        record_phase("worker_reuse", t0, ctx.now());
    }
    let t1 = ctx.now();
    ctx.advance(shared.cost.thread_fork);
    phases.push(("thread_fork", shared.cost.thread_fork));
    record_phase("thread_fork", t1, ctx.now());
    let t2 = ctx.now();
    ctx.advance(shared.cost.context_install);
    phases.push(("context_install", shared.cost.context_install));
    record_phase("context_install", t2, ctx.now());

    let (pid, reply) = (shared.pid, Reply::MigrateAck(phases));
    endpoint.send_traced(ctx, from, DexMsg::Reply { pid, req_id, reply }, span);
}

/// The remote worker: applies node-wide operations in its own context and
/// acknowledges each to the node that sent it.
fn remote_worker_loop(
    ctx: &SimCtx,
    shared: Arc<ProcessShared>,
    endpoint: crate::process::Endpoint,
    node: NodeId,
    chan: SimChannel<(VmaOp, u64, NodeId)>,
) {
    while let Some((op, req_id, to)) = chan.recv(ctx) {
        ctx.advance(SimDuration::from_micros(2)); // apply cost
        apply_vma_op(&shared, node, &op);
        let (pid, reply) = (shared.pid, Reply::BroadcastDone);
        endpoint.send(ctx, to, DexMsg::Reply { pid, req_id, reply });
    }
}

/// Applies a broadcast VMA operation to a node's replica: shrink/downgrade
/// the VMAs and drop any local page state in the range.
fn apply_vma_op(shared: &Arc<ProcessShared>, node: NodeId, op: &VmaOp) {
    let mut space = shared.space(node).lock();
    match op {
        VmaOp::Unmap { addr, len } => {
            let pages = space.vmas.munmap(*addr, *len).unwrap_or_default();
            let (page_table, frames) = space.page_table_and_frames();
            for vpn in pages {
                protocol::unmap(page_table, frames, vpn);
            }
        }
        VmaOp::Protect { addr, len, prot } => {
            // Replicas may not have pulled the VMA yet; only apply where
            // known. Clear PTEs so the next touch revalidates.
            let _ = space.vmas.mprotect(*addr, *len, *prot);
            for vpn in dex_os::pages_covering(*addr, *len) {
                protocol::unmap_keep_frame(&mut space.page_table, vpn);
            }
        }
    }
}
