//! DEX protocol messages.
//!
//! Everything DEX sends between nodes is a [`DexMsg`]: consistency-protocol
//! traffic (page requests/grants, invalidations, flushes), on-demand VMA
//! synchronization, thread migration, and work delegation. Every answer
//! to a VMA, migration or delegation request is one [`DexMsg::Reply`]
//! carrying the [`Reply`] its waiting thread receives. Control
//! variants are small (tens of bytes, the paper's "bimodal" small mode);
//! variants carrying page data report 4 KiB of page payload and take the
//! RDMA path in the messaging layer.

use dex_net::WireMessage;
use dex_os::{
    ExecutionContext, PageFrame, Pid, Prot, Tid, VirtAddr, Vma, CONTEXT_BYTES, PAGE_SIZE,
};
use dex_sim::SimDuration;

use crate::protocol::PageMsg;

/// An operation a remote thread delegates to its original thread at the
/// origin (§III-A: futexes and other stateful kernel features).
#[derive(Clone, Debug)]
pub enum DelegatedOp {
    /// `FUTEX_WAIT`: block if the futex word still equals `expected`.
    FutexWait {
        /// Futex word address.
        addr: VirtAddr,
        /// Expected value; mismatch returns `EAGAIN` immediately.
        expected: u32,
    },
    /// `FUTEX_WAKE`: wake up to `count` waiters of the word at `addr`.
    FutexWake {
        /// Futex word address.
        addr: VirtAddr,
        /// Maximum waiters to wake.
        count: u32,
    },
    /// `mmap`: create an anonymous mapping at the origin.
    Mmap {
        /// Requested length in bytes.
        len: u64,
        /// Protection for the new mapping.
        prot: Prot,
    },
    /// `munmap`: remove mappings (a shrinking operation — broadcast
    /// eagerly per §III-D).
    Munmap {
        /// Start of the range.
        addr: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// `mprotect`: change protection (downgrades broadcast eagerly).
    Mprotect {
        /// Start of the range.
        addr: VirtAddr,
        /// Length in bytes.
        len: u64,
        /// New protection.
        prot: Prot,
    },
    /// Ask the origin's ownership directory which node holds the page of
    /// `addr` exclusively — the placement query behind
    /// [`ThreadCtx::migrate_to_data`](crate::ThreadCtx::migrate_to_data).
    QueryOwner {
        /// Address whose page ownership is queried.
        addr: VirtAddr,
    },
    /// A stand-in for miscellaneous stateful syscalls serviced at the
    /// origin (file I/O in the paper); costs `busy` of origin-thread time.
    Syscall {
        /// How long the original thread is busy servicing it.
        busy: SimDuration,
    },
}

/// How an update to VMAs is propagated to remote replicas.
#[derive(Clone, Debug)]
pub enum VmaOp {
    /// Remove the range from every replica.
    Unmap {
        /// Start of the range.
        addr: VirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// Downgrade protection on every replica.
    Protect {
        /// Start of the range.
        addr: VirtAddr,
        /// Length in bytes.
        len: u64,
        /// New protection.
        prot: Prot,
    },
}

/// Per-phase timing of the remote side of a migration, reported back in
/// the acknowledgment (drives Figure 3).
pub type MigrationPhases = Vec<(&'static str, SimDuration)>;

/// The answer a thread waiting on a request receives: sent as
/// [`DexMsg::Reply`], or filled in place when the answer is local.
#[derive(Debug)]
pub enum Reply {
    /// A page grant arrived (PTE/frame already applied by the dispatcher);
    /// `retry` means the request conflicted and must be resent after a
    /// back-off. Always local: a grant travels as a page message.
    PageGrant {
        /// Conflict: back off and retry.
        retry: bool,
    },
    /// On-demand VMA lookup result: the covering VMA, or `None` if the
    /// access is illegal (the remote thread takes a segmentation fault).
    Vma(Option<Vma>),
    /// Result of a delegated operation (syscall-style: ≥ 0 success,
    /// < 0 errno).
    Delegate(i64),
    /// A futex waiter parked by an earlier `FutexWait` was woken.
    FutexWoken,
    /// The remote node started the migrated thread; remote-side
    /// per-phase latency breakdown (Figure 3).
    MigrateAck(MigrationPhases),
    /// The origin resumed the original thread.
    MigrateBackAck,
    /// Every peer applied a [`DexMsg::VmaUpdate`]; on the wire, one
    /// peer's acknowledgment.
    BroadcastDone,
}

/// A DEX inter-node message.
#[derive(Debug)]
pub enum DexMsg {
    // ---- memory consistency protocol (§III-B), sharded or not ----
    /// Page-protocol traffic; the variants and their handling live in
    /// [`crate::protocol`].
    Page {
        /// Owning process.
        pid: Pid,
        /// The protocol message.
        msg: PageMsg<PageFrame>,
    },

    // ---- on-demand VMA synchronization (§III-D) ----
    /// A remote replica saw an address with no local VMA.
    VmaRequest {
        /// Owning process.
        pid: Pid,
        /// The address that missed.
        addr: VirtAddr,
        /// Correlates with the reply.
        req_id: u64,
    },
    /// Eager broadcast of a shrinking/downgrading VMA operation.
    VmaUpdate {
        /// Owning process.
        pid: Pid,
        /// The operation to apply.
        op: VmaOp,
        /// Correlates with the ack.
        req_id: u64,
    },

    // ---- thread migration (§III-A) ----
    /// Forward migration: ship a thread's execution context.
    MigrateRequest {
        /// Owning process.
        pid: Pid,
        /// Migrating thread.
        tid: Tid,
        /// Captured architectural state.
        context: ExecutionContext,
        /// Correlates with the ack.
        req_id: u64,
    },
    /// Backward migration: the remote thread's final context returns home.
    MigrateBack {
        /// Owning process.
        pid: Pid,
        /// Returning thread.
        tid: Tid,
        /// Up-to-date architectural state.
        context: ExecutionContext,
        /// Correlates with the ack.
        req_id: u64,
    },

    // ---- work delegation (§III-A) ----
    /// A remote thread asks its original thread to perform `op`.
    Delegate {
        /// Owning process.
        pid: Pid,
        /// The delegating thread.
        tid: Tid,
        /// The operation.
        op: DelegatedOp,
        /// Correlates with the reply.
        req_id: u64,
    },

    // ---- every answer ----
    /// The answer to a request: migration and delegation acks, VMA pull
    /// replies and broadcast acks alike. The dispatcher hands `reply` to
    /// the thread waiting on `req_id` unchanged.
    Reply {
        /// Owning process.
        pid: Pid,
        /// Correlates with the request.
        req_id: u64,
        /// What the waiting thread receives.
        reply: Reply,
    },
}

impl WireMessage for DexMsg {
    fn control_bytes(&self) -> usize {
        match self {
            DexMsg::Page { msg, .. } => match msg {
                PageMsg::Request { .. } => 24,
                PageMsg::Grant { .. } => 32,
                PageMsg::Invalidate { .. } => 24,
                PageMsg::InvalidateAck { .. } => 24,
                PageMsg::Flush { .. } => 16,
                PageMsg::FlushAck { .. } => 16,
                PageMsg::OwnerForward { .. } => 32,
                PageMsg::OwnerAck { .. } => 24,
                // 16-byte header plus a packed (vpn, flags) word per entry.
                PageMsg::InvalidateBatch { entries } => 16 + entries.len() * 9,
                PageMsg::InvalidateBatchAck { entries } => 16 + entries.len() * 9,
            },
            DexMsg::VmaRequest { .. } => 24,
            DexMsg::VmaUpdate { .. } => 40,
            DexMsg::MigrateRequest { .. } => CONTEXT_BYTES + 16,
            DexMsg::MigrateBack { .. } => CONTEXT_BYTES + 16,
            DexMsg::Delegate { .. } => 48,
            DexMsg::Reply { reply, .. } => match reply {
                Reply::Vma(_) => 64,
                Reply::MigrateAck(phases) => 16 + phases.len() * 12,
                Reply::Delegate(_) => 24,
                Reply::PageGrant { .. }
                | Reply::FutexWoken
                | Reply::MigrateBackAck
                | Reply::BroadcastDone => 16,
            },
        }
    }

    fn page_bytes(&self) -> usize {
        let DexMsg::Page { msg, .. } = self else {
            return 0;
        };
        match msg {
            PageMsg::Grant { data: Some(_), .. } => PAGE_SIZE,
            PageMsg::InvalidateAck { data: Some(_), .. } => PAGE_SIZE,
            PageMsg::FlushAck { .. } => PAGE_SIZE,
            PageMsg::InvalidateBatchAck { entries } => {
                entries.iter().filter(|(_, d)| d.is_some()).count() * PAGE_SIZE
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_os::{Access, Vpn};

    #[test]
    fn control_messages_are_small() {
        let m = DexMsg::Page {
            pid: Pid(1),
            msg: PageMsg::Request {
                vpn: Vpn::new(7),
                access: Access::Write,
                req_id: 1,
            },
        };
        assert!(
            m.control_bytes() <= 64,
            "control messages are tens of bytes"
        );
        assert_eq!(m.page_bytes(), 0);
    }

    #[test]
    fn grants_with_data_take_the_page_path() {
        let grant = |access, data, req_id| DexMsg::Page {
            pid: Pid(1),
            msg: PageMsg::Grant {
                vpn: Vpn::new(7),
                access,
                data,
                retry: false,
                req_id,
            },
        };
        let with = grant(Access::Read, Some(PageFrame::zeroed()), 1);
        let without = grant(Access::Write, None, 2);
        assert_eq!(with.page_bytes(), PAGE_SIZE);
        assert_eq!(without.page_bytes(), 0);
    }

    #[test]
    fn replies_keep_their_wire_sizes() {
        let size = |reply| {
            DexMsg::Reply {
                pid: Pid(1),
                req_id: 2,
                reply,
            }
            .control_bytes()
        };
        let phases: MigrationPhases = vec![
            ("thread_fork", SimDuration::from_micros(1)),
            ("context_install", SimDuration::from_micros(2)),
        ];
        assert_eq!(size(Reply::Vma(None)), 64);
        assert_eq!(size(Reply::BroadcastDone), 16);
        assert_eq!(size(Reply::MigrateAck(Vec::new())), 16);
        assert_eq!(size(Reply::MigrateAck(phases)), 16 + 12 * 2);
        assert_eq!(size(Reply::MigrateBackAck), 16);
        assert_eq!(size(Reply::Delegate(-11)), 24);
        assert_eq!(size(Reply::FutexWoken), 16);
    }

    #[test]
    fn migration_context_dominates_its_message_size() {
        let m = DexMsg::MigrateRequest {
            pid: Pid(1),
            tid: Tid(2),
            context: ExecutionContext::default(),
            req_id: 3,
        };
        assert!(m.control_bytes() >= CONTEXT_BYTES);
        assert_eq!(m.page_bytes(), 0);
    }
}
