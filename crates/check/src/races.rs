//! Trace-based dynamic race and deadlock detection.
//!
//! Consumes the synchronization/access event stream a cluster records
//! under [`dex_core::ClusterConfig::with_race_detection`] and asks
//! [`crate::hb`] — the one happens-before pass, whose module docs give
//! the exact edges (program, lock, futex, barrier and spawn order; a
//! wait-return is ordered only after its waker's latest wake on the
//! word) — whether two accesses are ordered.
//!
//! Two accesses to overlapping bytes *conflict* when at least one is a
//! write, they are unordered by happens-before, and they are not both
//! cluster-atomic (`rmw_bytes` family). Conflicts are reported with both
//! code sites, threads, and nodes attributed.
//!
//! Independently, a **lock-order graph** is built from the nest order of
//! lock acquisitions (edge `A → B` when a thread acquires `B` while
//! holding `A`); a cycle means deadlock *potential* even if this
//! particular schedule did not hang.

use std::collections::{HashMap, HashSet};

use dex_core::{NodeId, RaceEvent, RaceEventKind, Tid};
use dex_os::VirtAddr;
use dex_sim::SimTime;

use crate::hb::{granules, Hb, GRANULE};

/// A reference to one recorded access, with attribution.
#[derive(Clone, Copy, Debug)]
pub struct EventRef {
    /// Index into the analyzed event stream.
    pub index: usize,
    /// The accessing thread.
    pub task: Tid,
    /// The node the thread executed on.
    pub node: NodeId,
    /// The thread's code-site annotation.
    pub site: &'static str,
    /// Virtual time of the access.
    pub time: SimTime,
    /// Whether the access was a write.
    pub is_write: bool,
}

/// Two unordered conflicting accesses to the same bytes.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// First byte of the conflicting granule.
    pub addr: VirtAddr,
    /// The access recorded earlier.
    pub first: EventRef,
    /// The access recorded later (unordered with `first`).
    pub second: EventRef,
}

/// One edge of a lock-order cycle.
#[derive(Clone, Copy, Debug)]
pub struct CycleEdge {
    /// The lock already held.
    pub held: VirtAddr,
    /// The lock acquired while holding `held`.
    pub acquired: VirtAddr,
    /// The thread that established the edge.
    pub task: Tid,
    /// The node it was on.
    pub node: NodeId,
    /// Its code site at acquisition.
    pub site: &'static str,
}

/// A cycle in the lock-order graph — deadlock potential.
#[derive(Clone, Debug)]
pub struct LockCycle {
    /// The edges forming the cycle, in order.
    pub edges: Vec<CycleEdge>,
}

/// Everything the analysis found.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Number of events analyzed.
    pub events: usize,
    /// Number of distinct threads observed.
    pub threads: usize,
    /// Unordered conflicting access pairs (deduplicated by site pair).
    pub conflicts: Vec<Conflict>,
    /// Lock-order-graph cycles.
    pub cycles: Vec<LockCycle>,
}

impl RaceReport {
    /// `true` when neither conflicts nor cycles were found.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty() && self.cycles.is_empty()
    }
}

/// One prior access remembered per granule.
#[derive(Clone, Debug)]
struct AccessRecord {
    atomic: bool,
    evref: EventRef,
}

#[derive(Clone, Debug, Default)]
struct GranuleState {
    last_write: Option<AccessRecord>,
    /// Reads since the last write (one per thread suffices — a newer
    /// read by the same thread supersedes the older for HB purposes).
    reads: Vec<AccessRecord>,
}

/// Reports conflicting unordered accesses plus lock-order cycles.
pub fn analyze_races(events: &[RaceEvent]) -> RaceReport {
    let hb = Hb::new(events);
    // Per-granule access history.
    let mut mem: HashMap<u64, GranuleState> = HashMap::new();
    // Lock-order graph: held -> acquired, with one sample edge each.
    let mut lock_graph: HashMap<VirtAddr, HashMap<VirtAddr, CycleEdge>> = HashMap::new();
    let mut held: HashMap<Tid, Vec<VirtAddr>> = HashMap::new();

    let mut conflicts: Vec<Conflict> = Vec::new();
    let mut seen_pairs: HashSet<(&'static str, &'static str, bool, bool)> = HashSet::new();

    for (index, event) in events.iter().enumerate() {
        match event.kind {
            RaceEventKind::Access {
                addr,
                len,
                is_write,
                atomic,
                ..
            } => {
                let evref = EventRef {
                    index,
                    task: event.task,
                    node: event.node,
                    site: event.site,
                    time: event.time,
                    is_write,
                };
                let races = |prev: &&AccessRecord| {
                    prev.evref.task != event.task
                        && !(prev.atomic && atomic)
                        && !hb.ordered(prev.evref.index, index)
                };
                for g in granules(addr, len) {
                    let state = mem.entry(g).or_default();
                    // A write conflicts with the reads since the last write too.
                    let reads = if is_write { &state.reads[..] } else { &[] };
                    for prev in state.last_write.iter().chain(reads).filter(races) {
                        let key = (prev.evref.site, evref.site, prev.evref.is_write, is_write);
                        if seen_pairs.insert(key) {
                            conflicts.push(Conflict {
                                addr: VirtAddr::new(g * GRANULE),
                                first: prev.evref,
                                second: evref,
                            });
                        }
                    }
                    let record = AccessRecord { atomic, evref };
                    if is_write {
                        state.last_write = Some(record);
                        state.reads.clear();
                    } else {
                        state.reads.retain(|r| r.evref.task != event.task);
                        state.reads.push(record);
                    }
                }
            }
            RaceEventKind::LockAcquire { lock } => {
                let stack = held.entry(event.task).or_default();
                for &h in stack.iter() {
                    if h != lock {
                        lock_graph
                            .entry(h)
                            .or_default()
                            .entry(lock)
                            .or_insert(CycleEdge {
                                held: h,
                                acquired: lock,
                                task: event.task,
                                node: event.node,
                                site: event.site,
                            });
                    }
                }
                stack.push(lock);
            }
            RaceEventKind::LockRelease { lock } => {
                if let Some(stack) = held.get_mut(&event.task) {
                    if let Some(pos) = stack.iter().rposition(|&l| l == lock) {
                        stack.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    let cycles = find_cycles(&lock_graph);
    RaceReport {
        events: events.len(),
        threads: hb.threads(),
        conflicts,
        cycles,
    }
}

/// Finds elementary cycles in the lock-order graph (DFS; one cycle
/// reported per back edge).
fn find_cycles(graph: &HashMap<VirtAddr, HashMap<VirtAddr, CycleEdge>>) -> Vec<LockCycle> {
    let mut cycles = Vec::new();
    let mut reported: HashSet<Vec<VirtAddr>> = HashSet::new();
    let mut nodes: Vec<VirtAddr> = graph.keys().copied().collect();
    nodes.sort_by_key(|a| a.as_u64());
    for &start in &nodes {
        // DFS from `start`, only visiting locks >= start so each cycle is
        // found once, rooted at its smallest lock.
        let mut stack: Vec<(VirtAddr, Vec<CycleEdge>)> = vec![(start, Vec::new())];
        while let Some((node, path)) = stack.pop() {
            if path.len() > 16 {
                continue; // bound the search depth
            }
            let Some(succs) = graph.get(&node) else {
                continue;
            };
            let mut nexts: Vec<(&VirtAddr, &CycleEdge)> = succs.iter().collect();
            nexts.sort_by_key(|(a, _)| a.as_u64());
            for (&next, &edge) in nexts {
                if next == start {
                    // The edge closes a cycle back to the root.
                    let mut edges = path.clone();
                    edges.push(edge);
                    let mut key: Vec<VirtAddr> = edges.iter().map(|e| e.held).collect();
                    key.sort_by_key(|a| a.as_u64());
                    if reported.insert(key) {
                        cycles.push(LockCycle { edges });
                    }
                } else if next.as_u64() > start.as_u64() && !path.iter().any(|e| e.held == next) {
                    let mut edges = path.clone();
                    edges.push(edge);
                    stack.push((next, edges));
                }
            }
        }
    }
    cycles
}

/// Renders the analysis for the terminal.
pub fn render_race_report(report: &RaceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "analyzed {} events from {} threads: {} conflict(s), {} lock-order cycle(s)\n",
        report.events,
        report.threads,
        report.conflicts.len(),
        report.cycles.len()
    ));
    for c in &report.conflicts {
        out.push_str(&format!(
            "  DATA RACE at {}: {} by {} (node {}, site `{}`, t={}ns) \
             unordered with {} by {} (node {}, site `{}`, t={}ns)\n",
            c.addr,
            if c.first.is_write { "write" } else { "read" },
            c.first.task,
            c.first.node.0,
            c.first.site,
            c.first.time.as_nanos(),
            if c.second.is_write { "write" } else { "read" },
            c.second.task,
            c.second.node.0,
            c.second.site,
            c.second.time.as_nanos(),
        ));
    }
    for cycle in &report.cycles {
        out.push_str("  DEADLOCK POTENTIAL (lock-order cycle):\n");
        for e in &cycle.edges {
            out.push_str(&format!(
                "    {} acquired {} while holding {} (node {}, site `{}`)\n",
                e.task, e.acquired, e.held, e.node.0, e.site,
            ));
        }
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

    fn access(task: u64, addr: u64, is_write: bool) -> RaceEvent {
        ev(
            task,
            RaceEventKind::Access {
                addr: VirtAddr::new(addr),
                len: 4,
                is_write,
                atomic: false,
                value: 0,
            },
        )
    }

    #[test]
    fn unordered_write_write_is_a_conflict() {
        let events = vec![access(1, 0x100, true), access(2, 0x100, true)];
        let report = analyze_races(&events);
        assert_eq!(report.conflicts.len(), 1);
        assert!(report.conflicts[0].first.is_write);
        assert!(report.conflicts[0].second.is_write);
    }

    #[test]
    fn lock_ordered_accesses_do_not_conflict() {
        let lock = VirtAddr::new(0x40);
        let events = vec![
            ev(1, RaceEventKind::LockAcquire { lock }),
            access(1, 0x100, true),
            ev(1, RaceEventKind::LockRelease { lock }),
            ev(2, RaceEventKind::LockAcquire { lock }),
            access(2, 0x100, true),
            ev(2, RaceEventKind::LockRelease { lock }),
        ];
        let report = analyze_races(&events);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn read_read_never_conflicts() {
        let events = vec![access(1, 0x100, false), access(2, 0x100, false)];
        assert!(analyze_races(&events).is_clean());
    }

    #[test]
    fn atomics_do_not_conflict_with_atomics_but_do_with_plain() {
        let a = |task| {
            ev(
                task,
                RaceEventKind::Access {
                    addr: VirtAddr::new(0x200),
                    len: 4,
                    is_write: true,
                    atomic: true,
                    value: 0,
                },
            )
        };
        assert!(analyze_races(&[a(1), a(2)]).is_clean());
        let mixed = vec![a(1), access(2, 0x200, true)];
        assert_eq!(analyze_races(&mixed).conflicts.len(), 1);
    }

    #[test]
    fn barrier_rounds_order_across_the_round() {
        let b = VirtAddr::new(0x80);
        let events = vec![
            access(1, 0x300, true),
            ev(
                1,
                RaceEventKind::BarrierEnter {
                    barrier: b,
                    generation: 0,
                },
            ),
            ev(
                2,
                RaceEventKind::BarrierEnter {
                    barrier: b,
                    generation: 0,
                },
            ),
            ev(
                1,
                RaceEventKind::BarrierLeave {
                    barrier: b,
                    generation: 0,
                },
            ),
            ev(
                2,
                RaceEventKind::BarrierLeave {
                    barrier: b,
                    generation: 0,
                },
            ),
            access(2, 0x300, true),
        ];
        assert!(analyze_races(&events).is_clean());
    }

    #[test]
    fn spawn_orders_parent_writes_before_child() {
        let events = vec![
            access(1, 0x400, true),
            ev(1, RaceEventKind::Spawn { child: Tid(2) }),
            access(2, 0x400, false),
        ];
        assert!(analyze_races(&events).is_clean());
    }

    #[test]
    fn futex_wake_orders_waiter_after_waker() {
        let w = VirtAddr::new(0x90);
        let events = vec![
            access(1, 0x500, true),
            ev(1, RaceEventKind::FutexWake { addr: w }),
            ev(
                2,
                RaceEventKind::FutexWaitReturn {
                    addr: w,
                    waker: Tid(1),
                },
            ),
            access(2, 0x500, false),
        ];
        assert!(analyze_races(&events).is_clean());
    }

    #[test]
    fn opposite_nest_order_is_a_cycle() {
        let a = VirtAddr::new(0x10);
        let b = VirtAddr::new(0x20);
        let events = vec![
            ev(1, RaceEventKind::LockAcquire { lock: a }),
            ev(1, RaceEventKind::LockAcquire { lock: b }),
            ev(1, RaceEventKind::LockRelease { lock: b }),
            ev(1, RaceEventKind::LockRelease { lock: a }),
            ev(2, RaceEventKind::LockAcquire { lock: b }),
            ev(2, RaceEventKind::LockAcquire { lock: a }),
            ev(2, RaceEventKind::LockRelease { lock: a }),
            ev(2, RaceEventKind::LockRelease { lock: b }),
        ];
        let report = analyze_races(&events);
        assert_eq!(report.cycles.len(), 1, "{report:?}");
        assert_eq!(report.cycles[0].edges.len(), 2);
    }

    #[test]
    fn consistent_nest_order_has_no_cycle() {
        let a = VirtAddr::new(0x10);
        let b = VirtAddr::new(0x20);
        let events = vec![
            ev(1, RaceEventKind::LockAcquire { lock: a }),
            ev(1, RaceEventKind::LockAcquire { lock: b }),
            ev(1, RaceEventKind::LockRelease { lock: b }),
            ev(1, RaceEventKind::LockRelease { lock: a }),
            ev(2, RaceEventKind::LockAcquire { lock: a }),
            ev(2, RaceEventKind::LockAcquire { lock: b }),
            ev(2, RaceEventKind::LockRelease { lock: b }),
            ev(2, RaceEventKind::LockRelease { lock: a }),
        ];
        assert!(analyze_races(&events).cycles.is_empty());
    }
}
