//! Offline sequential-consistency oracle.
//!
//! Consumes the value-carrying access stream a cluster records under
//! [`dex_core::ClusterConfig::with_race_detection`] and checks that the
//! values observed by reads admit a legal sequentially consistent total
//! order. DEX promises SC through its single-writer ownership protocol,
//! so a protocol bug shows up here as a read observing a value no legal
//! order can justify.
//!
//! The check is deliberately conservative (no false positives on real
//! SC executions):
//!
//! 1. Take happens-before from [`crate::hb`], the pass `dex-check races`
//!    reads too (program order, lock release → acquire, the waker's
//!    latest futex wake → the wait-return it caused, barrier rounds,
//!    spawn).
//! 2. For every read *r* of value *v* at a location, collect the
//!    **reads-from candidates**: writes to the same location that
//!    deposited *v* and are not ordered *after* the read. The implicit
//!    initial write of zero (happens-before everything) is a candidate
//!    for *v = 0*.
//! 3. Flag a violation when the candidate set is empty (the value was
//!    never written — lost-update / out-of-thin-air), or when **every**
//!    candidate *w* is *stale*: some other write *w′* satisfies
//!    *w* →hb *w′* →hb *r*. Any total order extending happens-before
//!    must place *w′* between *w* and *r*, so *r* could not have
//!    observed *w* — the read returned provably overwritten data.
//!
//! Reads racing with concurrent writes are never flagged: an unordered
//! write is a legal reads-from source in *some* extension of
//! happens-before. That keeps the oracle sound; `dex-check races`
//! reports the race itself.

use std::collections::HashMap;

use dex_core::{NodeId, RaceEvent, RaceEventKind, Tid};
use dex_os::VirtAddr;
use dex_sim::SimTime;

use crate::hb::Hb;

/// A read that no sequentially consistent total order can explain.
#[derive(Clone, Debug)]
pub struct ScViolation {
    /// First byte of the location.
    pub addr: VirtAddr,
    /// Access length in bytes.
    pub len: u32,
    /// Index of the read in the analyzed event stream.
    pub read_index: usize,
    /// The reading thread.
    pub task: Tid,
    /// The node it read on.
    pub node: NodeId,
    /// Its code-site annotation.
    pub site: &'static str,
    /// Virtual time of the read.
    pub time: SimTime,
    /// The value the read observed.
    pub value: u64,
    /// Why the value is illegal.
    pub reason: String,
}

/// Result of the sequential-consistency check.
#[derive(Clone, Debug, Default)]
pub struct ScReport {
    /// Events analyzed.
    pub events: usize,
    /// Reads checked.
    pub reads: usize,
    /// Writes observed.
    pub writes: usize,
    /// Reads no legal total order can explain.
    pub violations: Vec<ScViolation>,
}

impl ScReport {
    /// `true` when every read admits a legal reads-from source.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// `(event index, value)` of every read (`[0]`) and write (`[1]`) of one
/// location, keyed by exact (addr, len): values are only comparable
/// between same-shaped accesses. Partially overlapping accesses are the
/// race detector's problem, not the oracle's.
type Accesses = [Vec<(usize, u64)>; 2];

/// Checks that observed read values admit a sequentially consistent
/// total order (see the module docs for the exact rule).
pub fn check_sequential_consistency(events: &[RaceEvent]) -> ScReport {
    let hb = Hb::new(events);
    let mut by_loc: HashMap<(u64, u32), Accesses> = HashMap::new();
    for (index, event) in events.iter().enumerate() {
        if let RaceEventKind::Access {
            addr,
            len,
            is_write,
            value,
            ..
        } = event.kind
        {
            let accesses = by_loc.entry((addr.as_u64(), len)).or_default();
            accesses[is_write as usize].push((index, value));
        }
    }

    // Reads-from justification per read.
    let mut violations = Vec::new();
    for (&(addr, len), [reads, writes]) in &by_loc {
        for &(r, value) in reads {
            // `w` provably overwritten before the read was issued.
            let stale = |w: usize| {
                writes
                    .iter()
                    .any(|&(w2, _)| w2 != w && hb.ordered(w, w2) && hb.ordered(w2, r))
            };
            // Writes of the value not ordered after the read.
            let candidates: Vec<usize> = writes
                .iter()
                .filter(|&&(w, v)| v == value && !hb.ordered(r, w))
                .map(|&(w, _)| w)
                .collect();
            // The implicit initial zero write happens-before everything;
            // it is stale once any write is ordered before the read.
            let init_candidate = value == 0;
            let init_stale = writes.iter().any(|&(w2, _)| hb.ordered(w2, r));

            let justified =
                candidates.iter().any(|&w| !stale(w)) || (init_candidate && !init_stale);
            if justified {
                continue;
            }
            let why = if candidates.is_empty() && !init_candidate {
                "that was never written to the location (lost update / corrupted grant)"
            } else {
                "but every write of that value is provably overwritten before the read \
                 (stale replica)"
            };
            let read = &events[r];
            violations.push(ScViolation {
                addr: VirtAddr::new(addr),
                len,
                read_index: r,
                task: read.task,
                node: read.node,
                site: read.site,
                time: read.time,
                value,
                reason: format!("read of {addr:#x} observed value {value} {why}"),
            });
        }
    }
    violations.sort_by_key(|v| v.read_index);

    let count = |kind: usize| by_loc.values().map(|a| a[kind].len()).sum();
    ScReport {
        events: events.len(),
        reads: count(0),
        writes: count(1),
        violations,
    }
}

/// Renders the oracle's verdict for the terminal.
pub fn render_sc_report(report: &ScReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "SC oracle: {} events ({} reads, {} writes): {} violation(s)\n",
        report.events,
        report.reads,
        report.writes,
        report.violations.len()
    ));
    for v in &report.violations {
        out.push_str(&format!(
            "  SC VIOLATION: {} read {} (len {}) = {} at t={}ns \
             (node {}, site `{}`): {}\n",
            v.task,
            v.addr,
            v.len,
            v.value,
            v.time.as_nanos(),
            v.node.0,
            v.site,
            v.reason
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: u64, kind: RaceEventKind) -> RaceEvent {
        RaceEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            task: Tid(task),
            site: "test",
            kind,
        }
    }

    fn access(task: u64, addr: u64, is_write: bool, value: u64) -> RaceEvent {
        ev(
            task,
            RaceEventKind::Access {
                addr: VirtAddr::new(addr),
                len: 8,
                is_write,
                atomic: false,
                value,
            },
        )
    }

    fn barrier_round(tasks: &[u64], generation: u32) -> Vec<RaceEvent> {
        let b = VirtAddr::new(0x80);
        let mut out = Vec::new();
        for &t in tasks {
            out.push(ev(
                t,
                RaceEventKind::BarrierEnter {
                    barrier: b,
                    generation,
                },
            ));
        }
        for &t in tasks {
            out.push(ev(
                t,
                RaceEventKind::BarrierLeave {
                    barrier: b,
                    generation,
                },
            ));
        }
        out
    }

    #[test]
    fn reading_the_ordered_write_is_clean() {
        let mut events = vec![access(1, 0x100, true, 42)];
        events.extend(barrier_round(&[1, 2], 0));
        events.push(access(2, 0x100, false, 42));
        assert!(check_sequential_consistency(&events).is_clean());
    }

    #[test]
    fn reading_zero_past_an_ordered_write_is_stale() {
        let mut events = vec![access(1, 0x100, true, 42)];
        events.extend(barrier_round(&[1, 2], 0));
        events.push(access(2, 0x100, false, 0));
        let report = check_sequential_consistency(&events);
        assert_eq!(report.violations.len(), 1, "{report:?}");
        assert!(report.violations[0].reason.contains("stale"));
    }

    #[test]
    fn reading_a_value_never_written_is_a_lost_update() {
        let events = vec![access(1, 0x100, true, 7), access(2, 0x100, false, 9)];
        let report = check_sequential_consistency(&events);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].reason.contains("never"));
    }

    #[test]
    fn reading_an_overwritten_value_is_stale() {
        let mut events = vec![access(1, 0x100, true, 7), access(1, 0x100, true, 9)];
        events.extend(barrier_round(&[1, 2], 0));
        events.push(access(2, 0x100, false, 7));
        let report = check_sequential_consistency(&events);
        assert_eq!(report.violations.len(), 1, "{report:?}");
    }

    #[test]
    fn racy_reads_are_not_flagged() {
        // The write is unordered with the read, so both the old and the
        // new value are legal observations.
        let old = vec![access(1, 0x100, true, 5), access(2, 0x100, false, 0)];
        assert!(check_sequential_consistency(&old).is_clean());
        let new = vec![access(1, 0x100, true, 5), access(2, 0x100, false, 5)];
        assert!(check_sequential_consistency(&new).is_clean());
    }

    #[test]
    fn initial_zero_is_a_legal_source_until_overwritten() {
        let events = vec![access(2, 0x100, false, 0)];
        assert!(check_sequential_consistency(&events).is_clean());
    }

    #[test]
    fn distinct_locations_do_not_interfere() {
        let mut events = vec![access(1, 0x100, true, 1), access(1, 0x108, true, 2)];
        events.extend(barrier_round(&[1, 2], 0));
        events.push(access(2, 0x100, false, 1));
        events.push(access(2, 0x108, false, 2));
        assert!(check_sequential_consistency(&events).is_clean());
    }
}
