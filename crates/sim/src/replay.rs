//! Deterministic schedule recording and replay.
//!
//! The simulation kernel is deterministic, so a run is fully described
//! by the sequence of scheduling decisions taken — which actor acted,
//! and what it did. This module provides the substrate verification
//! tooling builds on:
//!
//! * [`ScheduleLog`] — an append-only log of [`ScheduleStep`]s with a
//!   line-oriented text serialization (one step per line), so a model
//!   checker can persist the exact interleaving that exposed a bug;
//! * [`ReplayCursor`] — a consumer that feeds the recorded decisions
//!   back one at a time and verifies the replayed run does not diverge
//!   from the log.
//!
//! `dex-check model` writes counterexample traces in this format and
//! `dex-check replay <file>` re-executes them step by step. The text
//! reads and writes through [`codec`](crate::codec).

use std::fmt::Write as _;

use crate::codec::{self, Line, Reader};

/// One recorded scheduling decision.
///
/// `actor` identifies who acted (a thread id, node id, or message slot —
/// the producer chooses the encoding); `label` is the human-readable
/// rendering of the action. Both are preserved verbatim by the text
/// round-trip.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleStep {
    /// Monotone step index (0-based).
    pub seq: u64,
    /// Stable encoding of the decision, fed back on replay.
    pub actor: u64,
    /// Human-readable description of the decision.
    pub label: String,
}

/// An append-only log of scheduling decisions with text round-trip.
///
/// # Examples
///
/// ```
/// use dex_sim::ScheduleLog;
///
/// let mut log = ScheduleLog::new("model nodes=2 pages=1");
/// log.push(3, "T1: write page 0");
/// log.push(7, "deliver message #0");
/// let text = log.to_text();
/// let back = ScheduleLog::parse(&text).unwrap();
/// assert_eq!(back, log);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScheduleLog {
    /// Free-form description of the run the log captures.
    pub header: String,
    steps: Vec<ScheduleStep>,
}

impl ScheduleLog {
    /// Creates an empty log with a descriptive header.
    pub fn new(header: impl Into<String>) -> Self {
        ScheduleLog {
            header: header.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a decision.
    pub fn push(&mut self, actor: u64, label: impl Into<String>) {
        self.steps.push(ScheduleStep {
            seq: self.steps.len() as u64,
            actor,
            label: label.into(),
        });
    }

    /// The recorded steps in order.
    pub fn steps(&self) -> &[ScheduleStep] {
        &self.steps
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Serializes to the line-oriented text format:
    ///
    /// ```text
    /// # <header>
    /// <seq>\t<actor>\t<label>
    /// ```
    ///
    /// Labels go through the one field escaper ([`codec::escape_field`]),
    /// so arbitrary label content round-trips byte for byte through
    /// [`ScheduleLog::parse`]. Tabs and line breaks in the header become
    /// spaces.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.steps.len() * 32 + self.header.len() + 3);
        out.push_str("# ");
        out.push_str(&codec::meta_text(&self.header));
        out.push('\n');
        for step in &self.steps {
            let _ = write!(out, "{}\t{}\t", step.seq, step.actor);
            codec::escape_field(&mut out, &step.label);
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`ScheduleLog::to_text`].
    /// Blank lines are ignored; extra `#` lines extend the header.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut log = ScheduleLog::default();
        let mut lines = Reader::tabs(text);
        while let Some(line) = lines.next_line() {
            let row = match line {
                Line::Meta(meta) => {
                    let rest = meta.text[1..].trim();
                    log.header = format!("{} {rest}", log.header).trim().to_string();
                    continue;
                }
                Line::Row(row) => row,
            };
            row.expect(3)?;
            let seq: u64 = row.get(0).parse("seq")?;
            if seq != log.steps.len() as u64 {
                return Err(row.err(format_args!(
                    "out-of-order seq {seq} (expected {})",
                    log.steps.len()
                )));
            }
            log.steps.push(ScheduleStep {
                seq,
                actor: row.get(1).parse("actor")?,
                label: row.get(2).text("label")?.into_owned(),
            });
        }
        Ok(log)
    }
}

/// Feeds a [`ScheduleLog`] back one decision at a time, verifying the
/// replayed run matches the recording.
#[derive(Debug)]
pub struct ReplayCursor {
    log: ScheduleLog,
    next: usize,
}

impl ReplayCursor {
    /// Starts replaying `log` from the beginning.
    pub fn new(log: ScheduleLog) -> Self {
        ReplayCursor { log, next: 0 }
    }

    /// The header of the log being replayed.
    pub fn header(&self) -> &str {
        &self.log.header
    }

    /// The next decision to apply, without consuming it.
    pub fn peek(&self) -> Option<&ScheduleStep> {
        self.log.steps.get(self.next)
    }

    /// Consumes the next decision.
    pub fn advance(&mut self) -> Option<&ScheduleStep> {
        let step = self.log.steps.get(self.next)?;
        self.next += 1;
        Some(step)
    }

    /// Consumes the next decision, verifying the replayer resolved it to
    /// the same actor the recording did. A mismatch means the replayed
    /// system diverged from the recorded one (nondeterminism bug).
    pub fn advance_checked(&mut self, actor: u64) -> Result<&ScheduleStep, String> {
        self.advance_checked_named(actor, "?")
    }

    /// Like [`ReplayCursor::advance_checked`], but the caller also names
    /// the actor the replayed run chose, so divergence reports read as
    /// expected-vs-actual *names* (with step position and the expected
    /// step's label) rather than bare ids.
    pub fn advance_checked_named(
        &mut self,
        actor: u64,
        name: &str,
    ) -> Result<&ScheduleStep, String> {
        let idx = self.next;
        let len = self.log.steps.len();
        match self.log.steps.get(idx) {
            None => Err(format!(
                "replay ran past the end of the log (step {idx} of {len}): \
                 run chose actor {actor} (`{name}`) but the recording has no more steps"
            )),
            Some(step) if step.actor != actor => Err(format!(
                "replay diverged at step {idx} of {len}: log expected actor {} (`{}`), \
                 run chose actor {actor} (`{name}`)",
                step.actor, step.label
            )),
            Some(_) => {
                self.next += 1;
                Ok(&self.log.steps[idx])
            }
        }
    }

    /// Steps consumed so far.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Returns `true` when every step has been consumed.
    pub fn is_finished(&self) -> bool {
        self.next >= self.log.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip_preserves_everything() {
        let mut log = ScheduleLog::new("model nodes=3 pages=2 mutation=skip-invalidate");
        log.push(1, "T1: write page 0");
        log.push(42, "deliver message #0");
        log.push(7, "t=1500 worker#3");
        let back = ScheduleLog::parse(&log.to_text()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn parse_rejects_out_of_order_and_garbage() {
        assert!(ScheduleLog::parse("0\t1\tok\n2\t1\tskipped-a-step\n").is_err());
        assert!(ScheduleLog::parse("zero\t1\tbad-seq\n").is_err());
        assert!(ScheduleLog::parse("0\tnope\tbad-actor\n").is_err());
        assert!(ScheduleLog::parse("0\t1\tbad escape \\x\n").is_err());
        assert!(ScheduleLog::parse("0\t1\ttruncated escape \\").is_err());
    }

    #[test]
    fn cursor_detects_divergence() {
        let mut log = ScheduleLog::new("t");
        log.push(5, "first");
        log.push(6, "second");
        let mut cur = ReplayCursor::new(log);
        assert_eq!(cur.peek().unwrap().actor, 5);
        assert!(cur.advance_checked(5).is_ok());
        let err = cur.advance_checked_named(9, "node-9").unwrap_err();
        assert!(err.contains("diverged at step 1 of 2"), "{err}");
        assert!(err.contains("`second`"), "expected label named: {err}");
        assert!(err.contains("`node-9`"), "actual name named: {err}");
        assert!(cur.advance_checked(6).is_ok());
        assert!(cur.is_finished());
        let err = cur.advance_checked(0).unwrap_err();
        assert!(
            err.contains("past the end of the log (step 2 of 2)"),
            "{err}"
        );
    }

    #[test]
    fn empty_lines_and_extra_comments_are_tolerated() {
        let log = ScheduleLog::parse("# part one\n\n# part two\n0\t1\tstep\n").unwrap();
        assert_eq!(log.header, "part one part two");
        assert_eq!(log.len(), 1);
    }
}
