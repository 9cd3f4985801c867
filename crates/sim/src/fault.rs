//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a *seeded, replayable* schedule of faults applied to a
//! simulated fabric: per-link delay spikes, message stalls, and
//! node-crash-at-time-T events. The plan is pure data — the network layer
//! consults it from its send/recv hooks — so the same plan always produces
//! the same run, and an **empty plan is exactly equivalent to no plan**
//! (every query short-circuits, no timers are created, the schedule is
//! bit-identical).
//!
//! Plans round-trip through a line-oriented text format (header `# faultplan
//! ...`) so `dex-check` can persist a scenario's plan and `dex-check replay`
//! can re-execute it:
//!
//! ```text
//! # faultplan seed=42 nodes=3
//! delay 0 1 10000 50000 7000
//! stall 1 0 20000 90000
//! crash 2 400000
//! ```
//!
//! Node indices are raw `u16`s here; the network layer maps them onto its
//! own node-id type. The format is hand-edited, so fields are separated by
//! any whitespace; the lines go through the one [`codec`](crate::codec)
//! reader, which also rejects a node id that does not fit a `u16`.

use std::fmt::Write as _;

use crate::codec::{self, Line, Reader};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a link fault does to messages sent inside its window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkFaultKind {
    /// Every message sent in the window is delivered late by the given
    /// extra delay (a congestion spike on the link).
    Delay(SimDuration),
    /// Every message sent in the window is held until the window closes
    /// (a stalled link that drains when it recovers).
    Stall,
}

/// A fault on one directed link, active for messages *sent* in
/// `[from, until)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkFault {
    /// Source node of the affected link.
    pub src: u16,
    /// Destination node of the affected link.
    pub dst: u16,
    /// First instant (inclusive) at which sends are affected.
    pub from: SimTime,
    /// First instant (exclusive) at which sends are no longer affected.
    pub until: SimTime,
    /// What happens to affected messages.
    pub kind: LinkFaultKind,
}

/// A node that fails permanently (fail-stop) at a given instant.
///
/// From `at` onward the node neither sends nor receives: messages it emits
/// are dropped at the source, and messages addressed to it are dropped at
/// delivery.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeCrash {
    /// The crashing node.
    pub node: u16,
    /// The instant it fail-stops.
    pub at: SimTime,
}

/// A deterministic, replayable schedule of fabric faults.
///
/// # Examples
///
/// ```
/// use dex_sim::{FaultPlan, SimDuration, SimTime};
///
/// let mut plan = FaultPlan::new();
/// plan.delay(
///     0,
///     1,
///     SimTime::from_nanos(10_000),
///     SimTime::from_nanos(50_000),
///     SimDuration::from_micros(7),
/// );
/// plan.crash(2, SimTime::from_nanos(400_000));
///
/// // A message sent on link 0→1 inside the window is delayed by 7µs.
/// let d = plan.extra_delay(0, 1, SimTime::from_nanos(20_000));
/// assert_eq!(d, SimDuration::from_micros(7));
/// assert!(plan.crashed(2, SimTime::from_nanos(400_000)));
/// assert!(!plan.crashed(2, SimTime::from_nanos(399_999)));
///
/// // Plans round-trip through text for replay.
/// let back = FaultPlan::parse(&plan.to_text()).unwrap();
/// assert_eq!(back, plan);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    link_faults: Vec<LinkFault>,
    crashes: Vec<NodeCrash>,
    header: String,
}

impl FaultPlan {
    /// Creates an empty plan (equivalent to running without faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Generates a small random-but-reproducible plan from a seed: a couple
    /// of delay spikes, one stalled link, and (when `with_crash` is set) one
    /// non-origin node crash, all within `[0, horizon)`. Node 0 is treated
    /// as the origin and never crashes.
    pub fn generate(seed: u64, nodes: u16, horizon: SimTime, with_crash: bool) -> Self {
        assert!(nodes >= 2, "a fault plan needs at least two nodes");
        let mut rng = SimRng::new(seed ^ 0xfau64.wrapping_shl(56));
        let mut plan = FaultPlan::new();
        plan.header = format!("seed={seed} nodes={nodes}");
        let span = horizon.as_nanos().max(4);
        let pick_link = |rng: &mut SimRng| {
            let src = rng.gen_range(0..nodes as u64) as u16;
            let mut dst = rng.gen_range(0..nodes as u64) as u16;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            (src, dst)
        };
        for _ in 0..2 {
            let (src, dst) = pick_link(&mut rng);
            let from = SimTime::from_nanos(rng.gen_range(0..span / 2));
            let len = 1 + rng.gen_range(0..span / 4);
            let extra = SimDuration::from_nanos(1_000 + rng.gen_range(0..20_000));
            plan.delay(src, dst, from, from + SimDuration::from_nanos(len), extra);
        }
        {
            let (src, dst) = pick_link(&mut rng);
            let from = SimTime::from_nanos(rng.gen_range(0..span / 2));
            let len = 1 + rng.gen_range(0..span / 4);
            plan.stall(src, dst, from, from + SimDuration::from_nanos(len));
        }
        if with_crash && nodes > 1 {
            let node = 1 + rng.gen_range(0..nodes as u64 - 1) as u16;
            let at = SimTime::from_nanos(span / 4 + rng.gen_range(0..span / 2));
            plan.crash(node, at);
        }
        plan
    }

    /// Adds a delay spike on the directed link `src → dst` for messages
    /// sent in `[from, until)`.
    pub fn delay(&mut self, src: u16, dst: u16, from: SimTime, until: SimTime, extra: SimDuration) {
        self.link_faults.push(LinkFault {
            src,
            dst,
            from,
            until,
            kind: LinkFaultKind::Delay(extra),
        });
    }

    /// Adds a stall on the directed link `src → dst`: messages sent in
    /// `[from, until)` are held until `until`.
    pub fn stall(&mut self, src: u16, dst: u16, from: SimTime, until: SimTime) {
        self.link_faults.push(LinkFault {
            src,
            dst,
            from,
            until,
            kind: LinkFaultKind::Stall,
        });
    }

    /// Schedules a fail-stop crash of `node` at `at`.
    pub fn crash(&mut self, node: u16, at: SimTime) {
        self.crashes.push(NodeCrash { node, at });
    }

    /// Returns `true` when the plan contains no faults at all. The fault
    /// layer disables itself entirely for empty plans so that runs stay
    /// bit-identical to runs without a plan.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.crashes.is_empty()
    }

    /// The link faults in insertion order.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The scheduled crashes in insertion order.
    pub fn crashes(&self) -> &[NodeCrash] {
        &self.crashes
    }

    /// Total extra delivery delay for a message sent on `src → dst` at
    /// `sent_at`. Stalls contribute the time remaining until the window
    /// closes; overlapping faults stack.
    pub fn extra_delay(&self, src: u16, dst: u16, sent_at: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for f in &self.link_faults {
            if f.src == src && f.dst == dst && sent_at >= f.from && sent_at < f.until {
                total += match f.kind {
                    LinkFaultKind::Delay(extra) => extra,
                    LinkFaultKind::Stall => f.until.saturating_since(sent_at),
                };
            }
        }
        total
    }

    /// The instant `node` fail-stops, if the plan crashes it.
    pub fn crash_time(&self, node: u16) -> Option<SimTime> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .map(|c| c.at)
            .min()
    }

    /// Whether `node` has fail-stopped at or before `at`.
    pub fn crashed(&self, node: u16, at: SimTime) -> bool {
        self.crash_time(node).is_some_and(|t| at >= t)
    }

    /// Serializes to the `# faultplan` text format (see module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# faultplan");
        if !self.header.is_empty() {
            out.push(' ');
            out.push_str(&codec::meta_text(&self.header));
        }
        out.push('\n');
        for f in &self.link_faults {
            let (src, dst, from, until) = (f.src, f.dst, f.from.as_nanos(), f.until.as_nanos());
            let _ = match f.kind {
                LinkFaultKind::Delay(extra) => {
                    writeln!(out, "delay {src} {dst} {from} {until} {}", extra.as_nanos())
                }
                LinkFaultKind::Stall => writeln!(out, "stall {src} {dst} {from} {until}"),
            };
        }
        for c in &self.crashes {
            let _ = writeln!(out, "crash {} {}", c.node, c.at.as_nanos());
        }
        out
    }

    /// Returns `true` when `text` looks like a fault-plan file (starts with
    /// a `# faultplan` header).
    pub fn looks_like_plan(text: &str) -> bool {
        text.trim_start().starts_with("# faultplan")
    }

    /// Parses the text format produced by [`FaultPlan::to_text`]. Node ids
    /// must fit a `u16`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        let mut saw_magic = false;
        let mut lines = Reader::words(text);
        while let Some(line) = lines.next_line() {
            let row = match line {
                Line::Meta(meta) => {
                    if let Some(hdr) = meta.text[1..].trim().strip_prefix("faultplan") {
                        saw_magic = true;
                        plan.header = format!("{} {hdr}", plan.header).trim().to_string();
                    }
                    continue;
                }
                Line::Row(row) => row,
            };
            let node = |i| row.get(i).parse::<u16>("node");
            let time = |i| row.get(i).parse("time").map(SimTime::from_nanos);
            match row.get(0).raw {
                "delay" => {
                    row.expect(6)?;
                    let extra = SimDuration::from_nanos(row.get(5).parse("delay")?);
                    plan.delay(node(1)?, node(2)?, time(3)?, time(4)?, extra);
                }
                "stall" => {
                    row.expect(5)?;
                    plan.stall(node(1)?, node(2)?, time(3)?, time(4)?);
                }
                "crash" => {
                    row.expect(3)?;
                    plan.crash(node(1)?, time(2)?);
                }
                other => return Err(row.err(format_args!("unknown directive {other:?}"))),
            }
        }
        if !saw_magic {
            return Err("missing '# faultplan' header".to_string());
        }
        Ok(plan)
    }

    /// The free-form header carried in the text format (e.g. `seed=42`).
    pub fn header(&self) -> &str {
        &self.header
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_answers_no_to_everything() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(
            plan.extra_delay(0, 1, SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
        assert!(!plan.crashed(0, SimTime::from_nanos(u64::MAX / 2)));
        assert_eq!(plan.crash_time(3), None);
    }

    #[test]
    fn delay_applies_only_inside_window_and_link() {
        let mut plan = FaultPlan::new();
        plan.delay(
            1,
            2,
            SimTime::from_nanos(100),
            SimTime::from_nanos(200),
            SimDuration::from_nanos(40),
        );
        let d = |src, dst, at| plan.extra_delay(src, dst, SimTime::from_nanos(at));
        assert_eq!(d(1, 2, 150), SimDuration::from_nanos(40));
        assert_eq!(d(1, 2, 100), SimDuration::from_nanos(40), "inclusive start");
        assert_eq!(d(1, 2, 200), SimDuration::ZERO, "exclusive end");
        assert_eq!(d(1, 2, 99), SimDuration::ZERO);
        assert_eq!(d(2, 1, 150), SimDuration::ZERO, "reverse link unaffected");
    }

    #[test]
    fn stall_holds_messages_until_window_end() {
        let mut plan = FaultPlan::new();
        plan.stall(0, 1, SimTime::from_nanos(100), SimTime::from_nanos(500));
        assert_eq!(
            plan.extra_delay(0, 1, SimTime::from_nanos(120)),
            SimDuration::from_nanos(380)
        );
        assert_eq!(
            plan.extra_delay(0, 1, SimTime::from_nanos(499)),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn overlapping_faults_stack() {
        let mut plan = FaultPlan::new();
        plan.delay(
            0,
            1,
            SimTime::ZERO,
            SimTime::from_nanos(1_000),
            SimDuration::from_nanos(10),
        );
        plan.delay(
            0,
            1,
            SimTime::ZERO,
            SimTime::from_nanos(1_000),
            SimDuration::from_nanos(5),
        );
        assert_eq!(
            plan.extra_delay(0, 1, SimTime::from_nanos(1)),
            SimDuration::from_nanos(15)
        );
    }

    #[test]
    fn crash_is_permanent_from_its_instant() {
        let mut plan = FaultPlan::new();
        plan.crash(2, SimTime::from_nanos(1_000));
        assert!(!plan.crashed(2, SimTime::from_nanos(999)));
        assert!(plan.crashed(2, SimTime::from_nanos(1_000)));
        assert!(plan.crashed(2, SimTime::from_nanos(u64::MAX / 2)));
        assert!(!plan.crashed(1, SimTime::from_nanos(u64::MAX / 2)));
    }

    #[test]
    fn text_round_trip_preserves_plan() {
        let mut plan = FaultPlan::new();
        plan.delay(
            0,
            1,
            SimTime::from_nanos(10),
            SimTime::from_nanos(20),
            SimDuration::from_nanos(3),
        );
        plan.stall(1, 0, SimTime::from_nanos(5), SimTime::from_nanos(50));
        plan.crash(2, SimTime::from_nanos(99));
        let back = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(back, plan);
        assert!(FaultPlan::looks_like_plan(&plan.to_text()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("delay 0 1 2 3 4\n").is_err(), "no header");
        assert!(FaultPlan::parse("# faultplan\nwarp 0 1\n").is_err());
        assert!(FaultPlan::parse("# faultplan\ndelay 0 1 2\n").is_err());
        assert!(FaultPlan::parse("# faultplan\ncrash x 5\n").is_err());
    }

    #[test]
    fn out_of_range_node_ids_are_rejected_not_truncated() {
        for text in [
            "# faultplan\ncrash 65537 400000\n",
            "# faultplan\ncrash 65536 400000\n",
            "# faultplan\ndelay 0 65537 10 20 5\n",
            "# faultplan\nstall 65536 1 10 20\n",
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.starts_with("line 2: bad node"), "{text:?}: {err}");
        }
        let max = FaultPlan::parse("# faultplan\ncrash 65535 1\n").unwrap();
        assert_eq!(max.crashes()[0].node, u16::MAX);
    }

    #[test]
    fn generate_is_deterministic_and_respects_origin() {
        let horizon = SimTime::from_nanos(1_000_000);
        let a = FaultPlan::generate(42, 4, horizon, true);
        let b = FaultPlan::generate(42, 4, horizon, true);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4, horizon, true);
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty());
        for crash in a.crashes() {
            assert_ne!(crash.node, 0, "origin must never crash");
        }
        for f in a.link_faults() {
            assert_ne!(f.src, f.dst, "no self-link faults");
            assert!(f.until > f.from);
        }
        // Generated plans replay through the text format too.
        assert_eq!(FaultPlan::parse(&a.to_text()).unwrap(), a);
    }
}
