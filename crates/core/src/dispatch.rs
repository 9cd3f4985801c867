//! Per-node message dispatchers and the page protocol's message handlers.
//!
//! Each node runs one dispatcher daemon that drains the node's fabric
//! inbox and routes each DEX message: it is the simulated analogue of the
//! kernel message-handler context. Page-protocol messages are handled
//! here (home, holder and requester roles, each one step of
//! `protocol.rs` plus its outputs); migration, delegation and VMA
//! messages go to the far end of their mechanism in `migration.rs`,
//! `delegation.rs` and `vma_sync.rs`; every reply completes its waiter.
//! The dispatcher never blocks on another node — requests that need
//! remote acknowledgments are turned into directory transactions that
//! later acks complete — so the protocol cannot deadlock across
//! dispatchers.

use std::rc::Rc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Access, PageFrame, Pid, PAGE_SIZE};
use dex_sim::SimCtx;

use crate::counters::Counter;
use crate::delegation::route_to_pair;
use crate::migration::{handle_migrate_request, serve_migrate_back};
use crate::msg::{DexMsg, Reply};
use crate::process::{Endpoint, ProcessShared};
use crate::protocol::{
    holder_admit, holder_step, requester_step, Deferred, HomeIn, Output, PageMsg, RequesterIn, Role,
};
use crate::span::{SpanKind, SpanTimer, PROTOCOL_TASK};
use crate::vma_sync::{serve_vma_pull, serve_vma_update};

/// The cluster-level registry the dispatchers consult to find process
/// state by pid.
#[derive(Default)]
pub(crate) struct ProcessRegistry {
    processes: Mutex<Vec<(Pid, Rc<ProcessShared>)>>,
}

impl ProcessRegistry {
    pub(crate) fn new() -> Rc<Self> {
        Rc::new(Self::default())
    }

    pub(crate) fn insert(&self, shared: Rc<ProcessShared>) {
        self.processes.lock().push((shared.pid, shared));
    }

    pub(crate) fn get(&self, pid: Pid) -> Rc<ProcessShared> {
        self.processes
            .lock()
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, s)| Rc::clone(s))
            .unwrap_or_else(|| panic!("message for unknown process {pid}"))
    }
}

/// Runs the dispatcher loop for `node`. Spawned as a daemon by the
/// cluster; exits when the engine drains.
pub(crate) fn dispatcher_loop(
    ctx: &SimCtx,
    node: NodeId,
    registry: Rc<ProcessRegistry>,
    endpoint: Endpoint,
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
                serve_vma_pull(ctx, &registry.get(pid), &endpoint, from, addr, req_id);
            }
            DexMsg::VmaUpdate { pid, op, req_id } => {
                serve_vma_update(ctx, &registry.get(pid), &endpoint, node, from, op, req_id);
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
                serve_migrate_back(ctx, &registry.get(pid), &endpoint, node, from, req_id, span);
            }
            DexMsg::Delegate {
                pid,
                tid,
                op,
                req_id,
            } => route_to_pair(ctx, &registry.get(pid), from, tid, op, req_id, span),
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
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
    node: NodeId,
    from: NodeId,
    msg: PageMsg<PageFrame>,
    span: SpanContext,
) {
    // A request opens a directory-handling span; acknowledgments continue
    // under the span of the transaction they complete (echoed back by the
    // sharer), so the deferred grant stays stitched to it.
    let request = match &msg {
        PageMsg::Request { access, .. } => Some(*access),
        _ => None,
    };
    let handling = match request {
        Some(_) => shared.spans.start(ctx.now()),
        None => SpanTimer::OFF,
    };
    ctx.advance(shared.cost.protocol_handling);
    let outs = shared.home_step(node, msg.page(), HomeIn::Msg { from, msg });
    // Grants and invalidations stitch to the *handling* span so the
    // requester-side fixup becomes its child; with spans off the incoming
    // context (necessarily NONE then) is forwarded unchanged.
    perform_outputs(ctx, shared, endpoint, node, outs, handling.wire_or(span));
    shared.spans.finish(handling, ctx, || {
        let label = if request.is_some_and(Access::is_write) {
            "page_request_write"
        } else {
            "page_request_read"
        };
        SpanKind::DirectoryHandling
            .on(node, PROTOCOL_TASK, label)
            .under(span)
    });
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
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
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
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
    node: NodeId,
    msg: PageMsg<PageFrame>,
    span: SpanContext,
) {
    let fixup = shared.spans.start(ctx.now());
    let label = match &msg {
        PageMsg::Grant { retry: true, .. } => "grant_retry",
        PageMsg::Grant { data: Some(_), .. } => {
            shared.count(node, Counter::PageBytesReceived, PAGE_SIZE as u64);
            "grant_with_data"
        }
        _ => "grant_no_transfer",
    };
    let outs = shared.with_node(node, |n| requester_step(n, RequesterIn::Msg(msg)));
    shared.spans.finish(fixup, ctx, || {
        SpanKind::PageFixup
            .on(node, PROTOCOL_TASK, label)
            .under(span)
    });
    perform_outputs(ctx, shared, endpoint, node, outs, SpanContext::NONE);
}

/// Runs protocol work a node parked until its in-flight grant landed.
fn run_deferred(
    ctx: &SimCtx,
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
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
    shared: &Rc<ProcessShared>,
    endpoint: &Endpoint,
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
    let forward = kind == Some(SpanKind::OwnerForward);
    let handling = match kind {
        Some(_) => shared.spans.start(ctx.now()),
        None => SpanTimer::OFF,
    };
    let page = msg.page().base();
    ctx.advance(cost);
    let sends = shared.with_node(node, |n| holder_step(n, from, msg, span.0));
    for ack in &sends {
        let carried = count_invalidations(shared, node, ack);
        if carried && kind == Some(SpanKind::InvalidateBatch) {
            label = "invalidate_batch_flush";
        }
    }
    match kind {
        Some(SpanKind::InvalidateBatch) => shared.count(node, Counter::InvalidateBatches, 1),
        Some(SpanKind::OwnerForward) => shared.count(node, Counter::ForwardsServiced, 1),
        _ => {}
    }
    let handled = || {
        let meta = kind
            .expect("spanned kinds only")
            .on(node, PROTOCOL_TASK, label)
            .under(span);
        if forward {
            meta
        } else {
            meta.at(shared.tag_for(shared.origin, page), site, page)
        }
    };
    // A revocation's span closes before its ack leaves; a forward's
    // covers its sends, which ride the forward's own span.
    if forward {
        perform_outputs(ctx, shared, endpoint, node, sends, handling.wire_or(span));
        shared.spans.finish(handling, ctx, handled);
    } else {
        shared.spans.finish(handling, ctx, handled);
        perform_outputs(ctx, shared, endpoint, node, sends, span);
    }
}
