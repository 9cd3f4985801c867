//! On-demand VMA synchronisation (§III-D), both ends.
//!
//! The origin's VMAs are authoritative. A remote replica learns a mapping
//! lazily: a thread that misses pulls the covering VMA from the origin
//! ([`ThreadCtx::vma_fault`] / [`serve_vma_pull`]). Growing changes
//! (`mmap`, permissive `mprotect`) need nothing more. Shrinking ones
//! (`munmap`, `mprotect` downgrades) run at the origin and are broadcast
//! eagerly ([`broadcast_vma_op`]): a node with a remote worker queues the
//! update to it ([`remote_worker_loop`]), any other node's dispatcher
//! applies it in place; either acknowledges to the origin.

use std::rc::Rc;

use dex_net::NodeId;
use dex_os::{Access, AddressSpace, Prot, VirtAddr, Vpn};
use dex_sim::{SimChannel, SimCtx, SimDuration};

use crate::counters::Counter;
use crate::msg::{DelegatedOp, DexMsg, Reply, VmaOp};
use crate::process::{Endpoint, ProcessShared, VmaJob, WaitError, UNWATCHED};
use crate::protocol;
use crate::span::SpanKind;
use crate::thread::ThreadCtx;

impl ThreadCtx<'_> {
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

    /// The fault path's VMA miss: pulls the covering VMA from the origin
    /// and installs it in this node's replica; the caller re-checks.
    pub(crate) fn vma_fault(&self, addr: VirtAddr, access: Access) {
        let shared = &self.shared;
        let node = self.node();
        let segv = |why: &str| -> ! {
            panic!(
                "segmentation fault: {} {access} at {addr}{why} (site {})",
                self.tid(),
                self.site.get()
            )
        };
        if node == shared.origin {
            // The origin's VMAs are authoritative: this is a real illegal
            // access.
            segv("");
        }
        shared.count(node, Counter::VmaSyncs, 1);
        let span = shared.spans.start(self.sim.now());
        let reply = self.round(UNWATCHED, false, |req_id| {
            let pull = DexMsg::VmaRequest {
                pid: shared.pid,
                addr,
                req_id,
            };
            self.endpoint(node)
                .send_traced(self.sim, shared.origin, pull, span.wire());
        });
        match reply {
            Err(WaitError::OwnNodeCrashed) => {
                // The node fail-stopped; re-home and let the caller
                // re-check at the origin, where the VMAs are authoritative.
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
                    segv(" (protection)");
                }
                shared.space(node).lock().vmas.install(vma);
            }
            Ok(Reply::Vma(None)) => segv(" (no mapping)"),
            Ok(other) => unreachable!("vma request answered with {other:?}"),
        }
        shared.spans.finish(span, self.sim, || {
            SpanKind::VmaSync.on(node, self.tid(), "vma_pull")
        });
    }
}

/// The origin's half of a VMA pull: answers with the covering VMA, if any.
pub(crate) fn serve_vma_pull(
    ctx: &SimCtx,
    shared: &ProcessShared,
    endpoint: &Endpoint,
    from: NodeId,
    addr: VirtAddr,
    req_id: u64,
) {
    ctx.advance(shared.cost.protocol_handling);
    let vma = shared.space(shared.origin).lock().vmas.find(addr).cloned();
    let (pid, reply) = (shared.pid, Reply::Vma(vma));
    endpoint.send(ctx, from, DexMsg::Reply { pid, req_id, reply });
}

/// A peer's half of a broadcast: node-wide operations are handed to the
/// remote worker when one exists; otherwise (no thread ever migrated
/// here) the dispatcher applies them directly and acknowledges.
pub(crate) fn serve_vma_update(
    ctx: &SimCtx,
    shared: &ProcessShared,
    endpoint: &Endpoint,
    node: NodeId,
    from: NodeId,
    op: VmaOp,
    req_id: u64,
) {
    let worker = shared.remote_workers[node.0 as usize].lock().clone();
    match worker {
        // The worker applies the change in its own context and acks the
        // origin itself, so the dispatcher never blocks.
        Some(chan) => chan
            .send(ctx, (op, req_id, from))
            .expect("remote worker channel open"),
        None => {
            apply_vma_op(shared, node, &op);
            let (pid, reply) = (shared.pid, Reply::BroadcastDone);
            endpoint.send(ctx, from, DexMsg::Reply { pid, req_id, reply });
        }
    }
}

/// The remote worker: applies node-wide operations in its own context and
/// acknowledges each to the node that sent it.
pub(crate) fn remote_worker_loop(
    ctx: &SimCtx,
    shared: Rc<ProcessShared>,
    endpoint: Endpoint,
    node: NodeId,
    chan: SimChannel<VmaJob>,
) {
    while let Some((op, req_id, to)) = chan.recv(ctx) {
        ctx.advance(SimDuration::from_micros(2)); // apply cost
        apply_vma_op(&shared, node, &op);
        let (pid, reply) = (shared.pid, Reply::BroadcastDone);
        endpoint.send(ctx, to, DexMsg::Reply { pid, req_id, reply });
    }
}

/// Removes `[addr, addr + len)` from `space`'s VMAs and drops the local
/// page state it covered; returns the pages, or `None` for a bad range.
fn unmap_range(space: &mut AddressSpace, addr: VirtAddr, len: u64) -> Option<Vec<Vpn>> {
    let pages = space.vmas.munmap(addr, len).ok()?;
    let (page_table, frames) = space.page_table_and_frames();
    for vpn in &pages {
        protocol::unmap(page_table, frames, *vpn);
    }
    Some(pages)
}

/// Applies a broadcast VMA operation to a node's replica: shrink/downgrade
/// the VMAs and drop any local page state in the range.
fn apply_vma_op(shared: &ProcessShared, node: NodeId, op: &VmaOp) {
    let mut space = shared.space(node).lock();
    match *op {
        VmaOp::Unmap { addr, len } => drop(unmap_range(&mut space, addr, len)),
        VmaOp::Protect { addr, len, prot } => {
            // Replicas may not have pulled the VMA yet; only apply where
            // known. Clear PTEs so the next touch revalidates.
            let _ = space.vmas.mprotect(addr, len, prot);
            for vpn in dex_os::pages_covering(addr, len) {
                protocol::unmap_keep_frame(&mut space.page_table, vpn);
            }
        }
    }
}

/// `munmap` or `mprotect` executed at the origin: updates the
/// authoritative VMAs (an unmap also drops directory state) and eagerly
/// broadcasts a shrink or a downgrade to every node; permissive changes
/// propagate lazily through on-demand synchronization.
pub(crate) fn vma_op_at_origin(ctx: &SimCtx, shared: &Rc<ProcessShared>, op: VmaOp) {
    let shrinks = match op {
        VmaOp::Unmap { addr, len } => {
            let pages = unmap_range(&mut shared.space(shared.origin).lock(), addr, len)
                .expect("munmap with bad range");
            for dir in &shared.directories {
                let _ = dir.lock().drop_pages(&pages);
            }
            true
        }
        VmaOp::Protect { addr, len, prot } => {
            let mut space = shared.space(shared.origin).lock();
            space
                .vmas
                .mprotect(addr, len, prot)
                .expect("mprotect with bad range")
        }
    };
    if shrinks {
        broadcast_vma_op(ctx, shared, op);
    }
}

/// Sends `op` to every live node but the origin and waits for each
/// acknowledgment.
fn broadcast_vma_op(ctx: &SimCtx, shared: &Rc<ProcessShared>, op: VmaOp) {
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
        let (pid, op) = (shared.pid, op.clone());
        endpoint.send(ctx, *peer, DexMsg::VmaUpdate { pid, op, req_id });
    }
    // A peer that crashes after the filter above is handled by crash
    // recovery (`complete_broadcasts_for_dead`), which the watching wait
    // triggers on timeout.
    let done = shared.wait_reply_watching(ctx, &slot, shared.origin, req_id, UNWATCHED, false);
    let Ok(Reply::BroadcastDone) = done else {
        unreachable!("vma broadcast at the origin, which cannot crash, ended with {done:?}")
    };
}
