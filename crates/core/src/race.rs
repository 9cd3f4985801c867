//! Synchronization/access event recording for dynamic race detection.
//!
//! When a cluster runs with [`ClusterConfig::with_race_detection`]
//! (`crate::ClusterConfig::with_race_detection`), every application-level
//! memory access and every synchronization operation appends one
//! [`RaceEvent`] to a shared [`RaceTrace`]. The `dex-check races` pass
//! consumes the recorded stream offline: `dex-check`'s `hb.rs` rebuilds
//! the happens-before relation in one pass (lock release → acquire, the
//! waker's latest futex wake → the wait-return it caused, barrier rounds,
//! thread spawn, thread exit → join) and the race detector flags
//! conflicting unordered accesses, plus lock-order-graph cycles for
//! deadlock potential.
//!
//! Recording discipline:
//!
//! * accesses performed *inside* the futex-based synchronization
//!   primitives (`DexMutex`, `DexBarrier`, …) are suppressed — the
//!   primitives instead emit semantic events (`LockAcquire`,
//!   `BarrierLeave`, …), so their internal word traffic is never
//!   mistaken for an application race;
//! * application atomics (`rmw_bytes`, `cas_u32`, …) record
//!   `atomic: true`; two atomic accesses never conflict;
//! * a wake is recorded *before* it is performed, so it precedes the
//!   `FutexWaitReturn` naming its thread as `waker`;
//! * the deterministic simulator appends events in execution order, so
//!   the happens-before pass can process the vector front to back.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::NodeId;
use dex_os::{Tid, VirtAddr};
use dex_sim::SimTime;

/// What a [`RaceEvent`] records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RaceEventKind {
    /// An application memory access.
    Access {
        /// First byte accessed.
        addr: VirtAddr,
        /// Length in bytes.
        len: u32,
        /// Store (or read-modify-write) rather than load.
        is_write: bool,
        /// Performed with cluster-wide atomicity (`rmw_bytes` family).
        atomic: bool,
        /// The value observed (load) or deposited (store): the first
        /// `min(len, 8)` bytes, little-endian. The sequential-consistency
        /// oracle (`dex-check explore`) uses it to infer reads-from edges.
        value: u64,
    },
    /// A lock (mutex or rwlock) was acquired.
    LockAcquire {
        /// The futex word identifying the lock.
        lock: VirtAddr,
    },
    /// A lock was released.
    LockRelease {
        /// The futex word identifying the lock.
        lock: VirtAddr,
    },
    /// `FUTEX_WAKE` was issued (application-level or condvar notify).
    FutexWake {
        /// The futex word.
        addr: VirtAddr,
    },
    /// A `FUTEX_WAIT` returned after an actual wakeup.
    FutexWaitReturn {
        /// The futex word.
        addr: VirtAddr,
        /// The thread whose `FUTEX_WAKE` woke this waiter.
        waker: Tid,
    },
    /// A thread arrived at a barrier round.
    BarrierEnter {
        /// The barrier's generation word.
        barrier: VirtAddr,
        /// The round the thread arrived in.
        generation: u32,
    },
    /// A thread left a barrier round (all parties had arrived).
    BarrierLeave {
        /// The barrier's generation word.
        barrier: VirtAddr,
        /// The round the thread arrived in.
        generation: u32,
    },
    /// The recording thread spawned a sibling thread.
    Spawn {
        /// The new thread's id.
        child: Tid,
    },
    /// The recording thread's closure returned (its last event).
    ThreadExit,
    /// The recording thread's `join` of `child` returned.
    Join {
        /// The joined thread's id.
        child: Tid,
    },
}

/// One recorded synchronization or access event.
#[derive(Clone, Debug)]
pub struct RaceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Node the thread was executing on.
    pub node: NodeId,
    /// The acting thread.
    pub task: Tid,
    /// The thread's current code-site annotation.
    pub site: &'static str,
    /// The payload.
    pub kind: RaceEventKind,
}

/// A shared, append-only buffer of [`RaceEvent`]s (cloning shares the
/// buffer, mirroring [`SpanBuffer`](crate::SpanBuffer)).
#[derive(Clone)]
pub struct RaceTrace {
    enabled: bool,
    events: Arc<Mutex<Vec<RaceEvent>>>,
}

impl RaceTrace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        RaceTrace {
            enabled: true,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A trace that drops everything (the default).
    pub fn disabled() -> Self {
        RaceTrace {
            enabled: false,
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&self, event: RaceEvent) {
        if self.enabled {
            self.events.lock().push(event);
        }
    }

    /// A copy of all recorded events in execution order.
    pub fn snapshot(&self) -> Vec<RaceEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl std::fmt::Debug for RaceTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RaceTrace")
            .field("enabled", &self.enabled)
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_drops_events() {
        let t = RaceTrace::disabled();
        t.record(RaceEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            task: Tid(0),
            site: "t",
            kind: RaceEventKind::Spawn { child: Tid(1) },
        });
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_shares_across_clones() {
        let t = RaceTrace::enabled();
        let t2 = t.clone();
        t2.record(RaceEvent {
            time: SimTime::ZERO,
            node: NodeId(1),
            task: Tid(2),
            site: "s",
            kind: RaceEventKind::LockAcquire {
                lock: VirtAddr::new(0x40),
            },
        });
        assert_eq!(t.len(), 1);
        assert!(matches!(
            t.snapshot()[0].kind,
            RaceEventKind::LockAcquire { .. }
        ));
    }
}
