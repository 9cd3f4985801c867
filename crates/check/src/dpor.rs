//! Dynamic partial-order reduction for `dex-check explore`.
//!
//! The explorer enumerates schedules by forcing alternative picks at the
//! engine's choice points (see [`crate::explore`]). Naively every
//! alternative at every choice point spawns a subtree — factorial blowup.
//! Two classic reductions cut it down, both *dynamic* (driven by what the
//! executed schedule actually did, not by static analysis):
//!
//! * **Persistent-set style pruning** ([`worth_exploring`]): an
//!   alternative pick only deserves its own subtree when the thread it
//!   would run *conflicts* with the thread the executed schedule ran —
//!   they touch a common granule (at least one writing) or a common
//!   synchronization object — in the remainder of the execution.
//!   Independent steps commute: swapping them provably yields the same
//!   partial order, so the subtree is redundant. Footprints come from
//!   the event stream the race detector already records, through
//!   [`crate::hb`]'s granule walk and event → sync-object mapping;
//!   steps that cannot be attributed to a recorded thread (dispatcher
//!   daemons, protocol timers) conservatively conflict with everything.
//! * **Sleep-set analogue** ([`rf_signature`]): executions are hashed by
//!   their per-thread event projections plus observed read values (their
//!   reads-from choice). Two interleavings with equal signatures are the
//!   same Mazurkiewicz trace — every thread runs through the same local
//!   states — so only the first is expanded.
//!
//! Both reductions are sound for the oracle: they only skip executions
//! equivalent to one already checked.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use dex_core::{RaceEvent, RaceEventKind, Tid};
use dex_sim::SimTime;

use crate::hb::{granules, sync_object};

/// What one thread touched during (a suffix of) an execution.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    /// Granules read.
    pub reads: HashSet<u64>,
    /// Granules written.
    pub writes: HashSet<u64>,
    /// Synchronization objects operated on (locks, futex words,
    /// barriers).
    pub syncs: HashSet<u64>,
}

impl Footprint {
    /// Whether two footprints are *dependent*: a common granule with at
    /// least one side writing, or a common synchronization object.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        if self.syncs.intersection(&other.syncs).next().is_some() {
            return true;
        }
        if self.writes.intersection(&other.writes).next().is_some() {
            return true;
        }
        if self.writes.intersection(&other.reads).next().is_some() {
            return true;
        }
        self.reads.intersection(&other.writes).next().is_some()
    }
}

/// Per-thread footprints over the events at or after `cutoff` (pass
/// [`SimTime::ZERO`] for the whole execution).
pub fn footprints_after(events: &[RaceEvent], cutoff: SimTime) -> HashMap<Tid, Footprint> {
    let mut out: HashMap<Tid, Footprint> = HashMap::new();
    for event in events {
        if event.time < cutoff {
            continue;
        }
        let fp = out.entry(event.task).or_default();
        match event.kind {
            RaceEventKind::Access {
                addr,
                len,
                is_write,
                ..
            } => {
                let touched = if is_write {
                    &mut fp.writes
                } else {
                    &mut fp.reads
                };
                touched.extend(granules(addr, len));
            }
            _ => fp.syncs.extend(sync_object(event).map(|a| a.as_u64())),
        }
    }
    out
}

/// Recovers the application [`Tid`] from an engine thread name
/// (`DexProcess::spawn` names them `app-tid-N`). `None` for dispatcher
/// daemons, remote workers, and other runtime threads.
pub fn tid_of_candidate(name: &str) -> Option<Tid> {
    name.strip_prefix("app-tid-")?.parse::<u64>().ok().map(Tid)
}

/// Persistent-set style filter: is forcing `alt_name` instead of
/// `picked_name` at a choice point at time `now` worth a subtree?
///
/// `events` is the executed schedule's happens-before stream. When either
/// side cannot be attributed to a recorded thread the answer is `true`
/// (conservative — runtime threads move protocol messages whose effects
/// the footprints do not capture).
pub fn worth_exploring(
    events: &[RaceEvent],
    now: SimTime,
    picked_name: &str,
    alt_name: &str,
) -> bool {
    let (Some(picked), Some(alt)) = (tid_of_candidate(picked_name), tid_of_candidate(alt_name))
    else {
        return true;
    };
    if picked == alt {
        // Same thread rescheduled (e.g. its timer vs. its wakeup) —
        // ordering against itself cannot change the partial order.
        return false;
    }
    let fps = footprints_after(events, now);
    let empty = Footprint::default();
    let a = fps.get(&picked).unwrap_or(&empty);
    let b = fps.get(&alt).unwrap_or(&empty);
    a.conflicts(b)
}

/// Hashes an execution down to its Mazurkiewicz-trace signature:
/// per-thread projections of the happens-before stream, including the
/// values reads observed (the reads-from function). Equal signatures ⇒
/// equivalent executions ⇒ expanding both is redundant.
pub fn rf_signature(events: &[RaceEvent]) -> u64 {
    let mut per_thread: HashMap<Tid, Vec<RaceEventKind>> = HashMap::new();
    for event in events {
        per_thread.entry(event.task).or_default().push(event.kind);
    }
    let mut threads: Vec<(Tid, Vec<RaceEventKind>)> = per_thread.into_iter().collect();
    threads.sort_by_key(|(tid, _)| tid.0);
    let mut hasher = DefaultHasher::new();
    threads.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::NodeId;
    use dex_os::VirtAddr;

    fn access(task: u64, addr: u64, is_write: bool, value: u64) -> RaceEvent {
        RaceEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            task: Tid(task),
            site: "test",
            kind: RaceEventKind::Access {
                addr: VirtAddr::new(addr),
                len: 8,
                is_write,
                atomic: false,
                value,
            },
        }
    }

    #[test]
    fn candidate_names_parse_back_to_tids() {
        assert_eq!(tid_of_candidate("app-tid-3"), Some(Tid(3)));
        assert_eq!(tid_of_candidate("dispatcher-node0"), None);
        assert_eq!(tid_of_candidate("app-tid-x"), None);
    }

    #[test]
    fn disjoint_threads_are_independent() {
        let events = vec![access(1, 0x100, true, 1), access(2, 0x900, true, 2)];
        assert!(!worth_exploring(
            &events,
            SimTime::ZERO,
            "app-tid-1",
            "app-tid-2"
        ));
    }

    #[test]
    fn write_write_overlap_conflicts() {
        let events = vec![access(1, 0x100, true, 1), access(2, 0x100, true, 2)];
        assert!(worth_exploring(
            &events,
            SimTime::ZERO,
            "app-tid-1",
            "app-tid-2"
        ));
    }

    #[test]
    fn read_read_overlap_is_independent() {
        let events = vec![access(1, 0x100, false, 0), access(2, 0x100, false, 0)];
        assert!(!worth_exploring(
            &events,
            SimTime::ZERO,
            "app-tid-1",
            "app-tid-2"
        ));
    }

    #[test]
    fn runtime_threads_conservatively_conflict() {
        assert!(worth_exploring(
            &[],
            SimTime::ZERO,
            "dispatcher-node0",
            "app-tid-1"
        ));
    }

    #[test]
    fn same_thread_never_conflicts_with_itself() {
        let events = vec![access(1, 0x100, true, 1)];
        assert!(!worth_exploring(
            &events,
            SimTime::ZERO,
            "app-tid-1",
            "app-tid-1"
        ));
    }

    #[test]
    fn signature_tracks_read_values_and_ignores_interleaving() {
        let a = vec![access(1, 0x100, true, 1), access(2, 0x200, false, 0)];
        let b = vec![access(2, 0x200, false, 0), access(1, 0x100, true, 1)];
        assert_eq!(rf_signature(&a), rf_signature(&b), "interleaving-invariant");
        let c = vec![access(1, 0x100, true, 1), access(2, 0x200, false, 9)];
        assert_ne!(rf_signature(&a), rf_signature(&c), "read value matters");
    }
}
