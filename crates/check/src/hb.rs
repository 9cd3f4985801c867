//! The one happens-before pass over a recorded race-event stream.
//!
//! [`Hb::new`] walks the stream front to back once (the deterministic
//! simulator appends events in execution order) and orders events by:
//!
//! * **program order** — events of one thread, as recorded;
//! * **lock order** — a `LockRelease` happens-before every later
//!   `LockAcquire` of the same lock word;
//! * **futex order** — a `FutexWaitReturn` happens-after the latest
//!   `FutexWake` on the same word by the thread it names as its waker,
//!   and after no other wake (a notify that woke nobody orders nothing;
//!   returns are only recorded for actual wakeups, not `EAGAIN`);
//! * **barrier order** — every `BarrierEnter` of round *g* happens-before
//!   every `BarrierLeave` of round *g*;
//! * **spawn order** — a `Spawn` happens-before every event of the child;
//! * **join order** — a thread's `ThreadExit` happens-before every later
//!   `Join` naming it.
//!
//! Each event gets a stamp `(thread, epoch, segment)`: its thread's own
//! clock component at the event, and the vector-clock snapshot the
//! thread took at its latest join. Clocks only change in other
//! components at a join (acquire-type events and a thread's first
//! event), so one snapshot per join answers [`Hb::ordered`] for every
//! event in between — the epoch form of FastTrack (Flanagan & Freund,
//! PLDI 2009). The race detector, the SC oracle and DPOR footprints all
//! read this module; it also owns the conflict granule and the mapping
//! from an event to its synchronization object.

use std::collections::HashMap;
use std::ops::RangeInclusive;

use dex_core::{RaceEvent, RaceEventKind, Tid};
use dex_os::VirtAddr;

/// Bytes per conflict-tracking granule.
pub(crate) const GRANULE: u64 = 8;

/// The granules an access of `len` bytes at `addr` touches.
pub(crate) fn granules(addr: VirtAddr, len: u32) -> RangeInclusive<u64> {
    addr.as_u64() / GRANULE..=(addr.as_u64() + len.max(1) as u64 - 1) / GRANULE
}

/// Where a release-type event deposits its clock for an acquire-type
/// event to join.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Channel {
    Lock(VirtAddr),
    /// A futex word and the thread that woke through it.
    Futex(VirtAddr, Tid),
    Barrier(VirtAddr, u32),
    Spawn(Tid),
    /// A thread's exit, for the joins of it.
    Join(Tid),
}

/// The channel an event releases into and the one it acquires from.
fn channels(event: &RaceEvent) -> (Option<Channel>, Option<Channel>) {
    match event.kind {
        RaceEventKind::LockRelease { lock } => (Some(Channel::Lock(lock)), None),
        RaceEventKind::LockAcquire { lock } => (None, Some(Channel::Lock(lock))),
        RaceEventKind::FutexWake { addr } => (Some(Channel::Futex(addr, event.task)), None),
        RaceEventKind::FutexWaitReturn { addr, waker } => (None, Some(Channel::Futex(addr, waker))),
        RaceEventKind::BarrierEnter {
            barrier,
            generation,
        } => (Some(Channel::Barrier(barrier, generation)), None),
        RaceEventKind::BarrierLeave {
            barrier,
            generation,
        } => (None, Some(Channel::Barrier(barrier, generation))),
        RaceEventKind::Spawn { child } => (Some(Channel::Spawn(child)), None),
        RaceEventKind::ThreadExit => (Some(Channel::Join(event.task)), None),
        RaceEventKind::Join { child } => (None, Some(Channel::Join(child))),
        RaceEventKind::Access { .. } => (None, None),
    }
}

/// The lock, futex word or barrier an event operates on.
pub(crate) fn sync_object(event: &RaceEvent) -> Option<VirtAddr> {
    let (release, acquire) = channels(event);
    match release.or(acquire)? {
        Channel::Lock(addr) | Channel::Futex(addr, _) | Channel::Barrier(addr, _) => Some(addr),
        Channel::Spawn(_) | Channel::Join(_) => None,
    }
}

fn join(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// An event's place in happens-before.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    /// Dense thread index.
    thread: usize,
    /// The thread's own clock component at the event.
    epoch: u64,
    /// The clock snapshot holding the other components.
    segment: usize,
}

/// Happens-before over one recorded event stream.
pub(crate) struct Hb {
    stamps: Vec<Stamp>,
    segments: Vec<Vec<u64>>,
    threads: usize,
}

impl Hb {
    /// Makes the one pass over `events`.
    pub(crate) fn new(events: &[RaceEvent]) -> Hb {
        let mut tindex: HashMap<Tid, usize> = HashMap::new();
        let mut clocks: Vec<Vec<u64>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut released: HashMap<Channel, Vec<u64>> = HashMap::new();
        let mut segments: Vec<Vec<u64>> = Vec::new();
        let mut stamps = Vec::with_capacity(events.len());
        for event in events {
            let next = clocks.len();
            let t = *tindex.entry(event.task).or_insert(next);
            let (release, acquire) = channels(event);
            let first = t == clocks.len();
            if first {
                clocks.push(vec![0; t + 1]);
                current.push(0);
                if let Some(seed) = released.get(&Channel::Spawn(event.task)) {
                    join(&mut clocks[t], seed);
                }
            }
            clocks[t][t] += 1;
            if let Some(vc) = acquire.and_then(|ch| released.get(&ch)) {
                join(&mut clocks[t], vc);
            }
            // Other components change only here: snapshot them once.
            if first || acquire.is_some() {
                segments.push(clocks[t].clone());
                current[t] = segments.len() - 1;
            }
            if let Some(ch) = release {
                join(released.entry(ch).or_default(), &clocks[t]);
            }
            stamps.push(Stamp {
                thread: t,
                epoch: clocks[t][t],
                segment: current[t],
            });
        }
        Hb {
            stamps,
            segments,
            threads: clocks.len(),
        }
    }

    /// Number of distinct threads in the stream.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Whether event `a` happens-before event `b` (or is `b`).
    pub(crate) fn ordered(&self, a: usize, b: usize) -> bool {
        let (a, b) = (self.stamps[a], self.stamps[b]);
        let seen = if a.thread == b.thread {
            b.epoch
        } else {
            let clock = &self.segments[b.segment];
            clock.get(a.thread).copied().unwrap_or(0)
        };
        a.epoch <= seen
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use dex_core::NodeId;
    use dex_sim::SimTime;
    use proptest::prelude::*;

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
        let addr = VirtAddr::new(addr);
        let (len, atomic, value) = (8, false, 0);
        ev(
            task,
            RaceEventKind::Access {
                addr,
                len,
                is_write,
                atomic,
                value,
            },
        )
    }

    #[test]
    fn a_wait_return_joins_only_its_wakers_wake() {
        let (x, cv, m) = (0x100, VirtAddr::new(0x200), VirtAddr::new(0x300));
        let events = vec![
            access(0, x, true),
            ev(0, RaceEventKind::FutexWake { addr: cv }),
            ev(1, RaceEventKind::LockAcquire { lock: m }),
            ev(1, RaceEventKind::LockRelease { lock: m }),
            ev(2, RaceEventKind::FutexWake { addr: cv }),
            ev(
                1,
                RaceEventKind::FutexWaitReturn {
                    addr: cv,
                    waker: Tid(2),
                },
            ),
            ev(1, RaceEventKind::LockAcquire { lock: m }),
            access(1, x, false),
        ];
        let hb = Hb::new(&events);
        assert_eq!(hb.threads(), 3);
        assert!(hb.ordered(4, 5) && hb.ordered(4, 7), "the waker's wake");
        assert!(!hb.ordered(1, 5), "a wake that woke nobody orders nothing");
        assert!(!hb.ordered(0, 7), "so the write and the read are unordered");
        assert!(
            hb.ordered(3, 6) && hb.ordered(2, 7),
            "lock and program order"
        );
    }

    /// Builds a well-formed stream from generated `(op, thread, arg)`
    /// triples: accesses, lock acquire/release pairs, futex wakes and
    /// returns naming a waker, barrier rounds, spawns of threads that
    /// have not run yet, thread exits and joins.
    fn stream(ops: &[(u8, u64, u64)]) -> Vec<RaceEvent> {
        let mut events = Vec::new();
        let mut holder: HashMap<u64, u64> = HashMap::new();
        let mut spawned = [false; 5];
        let mut generation = 0;
        for &(op, t, arg) in ops {
            let other = (t + 1 + arg) % 5;
            let started = |events: &[RaceEvent], u: u64| events.iter().any(|e| e.task == Tid(u));
            let word = VirtAddr::new(0x40 + arg % 2 * 8);
            match op {
                0 => events.push(access(t, 0x100 + arg % 3 * 8, arg % 2 == 0)),
                1 => match holder.get(&(arg % 2)) {
                    Some(&h) if h == t => {
                        holder.remove(&(arg % 2));
                        events.push(ev(t, RaceEventKind::LockRelease { lock: word }));
                    }
                    None => {
                        holder.insert(arg % 2, t);
                        events.push(ev(t, RaceEventKind::LockAcquire { lock: word }));
                    }
                    Some(_) => {}
                },
                2 => events.push(ev(t, RaceEventKind::FutexWake { addr: word })),
                3 => events.push(ev(
                    t,
                    RaceEventKind::FutexWaitReturn {
                        addr: word,
                        waker: Tid(other),
                    },
                )),
                4 => {
                    let barrier = VirtAddr::new(0x80);
                    let parties = if other == t { vec![t] } else { vec![t, other] };
                    for &p in &parties {
                        let kind = RaceEventKind::BarrierEnter {
                            barrier,
                            generation,
                        };
                        events.push(ev(p, kind));
                    }
                    for &p in &parties {
                        let kind = RaceEventKind::BarrierLeave {
                            barrier,
                            generation,
                        };
                        events.push(ev(p, kind));
                    }
                    generation += 1;
                }
                6 => events.push(ev(t, RaceEventKind::ThreadExit)),
                7 => events.push(ev(t, RaceEventKind::Join { child: Tid(other) })),
                _ => {
                    if other != t && !spawned[other as usize] && !started(&events, other) {
                        spawned[other as usize] = true;
                        let child = Tid(other);
                        events.push(ev(t, RaceEventKind::Spawn { child }));
                    }
                }
            }
        }
        events.truncate(60);
        events
    }

    /// The explicit edge graph of the module docs, closed transitively by
    /// BFS: `reach[i][j]` when event `i` happens-before event `j`.
    fn reference(events: &[RaceEvent]) -> Vec<Vec<bool>> {
        let n = events.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, e) in events.iter().enumerate() {
            let same_thread_before = |i: usize| events[i].task == e.task;
            if let Some(i) = (0..j).rev().find(|&i| same_thread_before(i)) {
                succ[i].push(j);
            }
            if let RaceEventKind::FutexWaitReturn { addr, waker } = e.kind {
                let wake = RaceEventKind::FutexWake { addr };
                let latest = (0..j)
                    .rev()
                    .find(|&i| events[i].task == waker && events[i].kind == wake);
                if let Some(i) = latest {
                    succ[i].push(j);
                }
            }
            for (i, p) in events[..j].iter().enumerate() {
                let edge = match (p.kind, e.kind) {
                    (
                        RaceEventKind::LockRelease { lock: a },
                        RaceEventKind::LockAcquire { lock: b },
                    ) => a == b,
                    (
                        RaceEventKind::BarrierEnter {
                            barrier: a,
                            generation: g,
                        },
                        RaceEventKind::BarrierLeave {
                            barrier: b,
                            generation: h,
                        },
                    ) => (a, g) == (b, h),
                    (RaceEventKind::Spawn { child }, _) => child == e.task,
                    (RaceEventKind::ThreadExit, RaceEventKind::Join { child }) => child == p.task,
                    _ => false,
                };
                if edge {
                    succ[i].push(j);
                }
            }
        }
        (0..n)
            .map(|i| {
                let mut reach = vec![false; n];
                let mut queue: VecDeque<usize> = succ[i].iter().copied().collect();
                while let Some(j) = queue.pop_front() {
                    if !reach[j] {
                        reach[j] = true;
                        queue.extend(succ[j].iter().copied());
                    }
                }
                reach
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ordered_matches_the_explicit_edge_graph(
            ops in proptest::collection::vec((0u8..8, 0u64..5, 0u64..5), 1..40)
        ) {
            let events = stream(&ops);
            let hb = Hb::new(&events);
            let reach = reference(&events);
            for (i, row) in reach.iter().enumerate() {
                for (j, &expected) in row.iter().enumerate().filter(|&(j, _)| j != i) {
                    prop_assert_eq!(hb.ordered(i, j), expected, "{} -> {} in {:?}", i, j, events);
                }
            }
        }
    }
}
