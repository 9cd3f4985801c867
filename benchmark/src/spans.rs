//! Self time over a span tree, and the benchmark's own host-time spans.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover. Children may overlap each other and may
//! stick out of the parent (a cross-node child can outlive the span that
//! caused it); overlapping cover is counted once and cover outside the
//! parent not at all.

use std::collections::HashMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// One node of a span tree, on either clock (nanoseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Unique id (non-zero).
    pub id: u64,
    /// Parent id, or 0 for a root.
    pub parent: u64,
    /// Start instant.
    pub start: u64,
    /// End instant (`>= start`).
    pub end: u64,
}

/// Self time of every span, in the order given.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    // Child intervals clipped to their parent, grouped by parent.
    let mut cover: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(&p) = index.get(&s.parent) else {
            continue;
        };
        let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
        if start < end {
            cover[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(cover)
        .map(|(s, mut children)| {
            children.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// A host-time span recorded by the benchmark around a call into the
/// program under test.
#[derive(Clone, Debug)]
pub struct HostSpan {
    /// What was called.
    pub name: &'static str,
    /// Position in the tree and on the host clock (ns since the recorder
    /// was created).
    pub at: Interval,
    /// Which repetition the span belongs to.
    pub rep: u64,
}

/// Collects host spans in memory; written out once, when the run ends.
pub struct HostRecorder {
    epoch: Instant,
    spans: Vec<HostSpan>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u64>,
    rep: u64,
}

impl Default for HostRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl HostRecorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        HostRecorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u64) {
        self.rep = rep;
    }

    /// Times `f` as a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(HostSpan {
            name,
            at: Interval {
                id,
                parent,
                start,
                end: start,
            },
            rep: self.rep,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize - 1].at.end = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Closes every open span now — after a panic unwound through them.
    pub fn close_all(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        for id in self.open.drain(..) {
            self.spans[id as usize - 1].at.end = now;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Duration of the most recently *closed* span named `name`, ns.
    pub fn last_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && !self.open.contains(&s.at.id))
            .map(|s| s.at.end - s.at.start)
    }

    /// The spans as JSON rows, each with its self time.
    pub fn to_json(&self) -> Json {
        let intervals: Vec<Interval> = self.spans.iter().map(|s| s.at).collect();
        let selfs = self_times(&intervals);
        Json::Arr(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    obj([
                        ("id", s.at.id.into()),
                        ("parent", s.at.parent.into()),
                        ("rep", s.rep.into()),
                        ("name", s.name.into()),
                        ("start_ns", s.at.start.into()),
                        ("end_ns", s.at.end.into()),
                        ("self_ns", self_ns.into()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(id: u64, parent: u64, start: u64, end: u64) -> Interval {
        Interval {
            id,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // root 0..100; children 10..40 and 30..60 overlap by 10; a third
        // child 90..130 sticks out by 30; grandchild 15..20 under child 2.
        let spans = [
            iv(1, 0, 0, 100),
            iv(2, 1, 10, 40),
            iv(3, 1, 30, 60),
            iv(4, 1, 90, 130),
            iv(5, 2, 15, 20),
            iv(6, 99, 0, 7), // parent never recorded: a root for our purposes
        ];
        let selfs = self_times(&spans);
        // Root: 100 - (10..60 = 50) - (90..100 = 10) = 40.
        assert_eq!(selfs, vec![40, 25, 30, 40, 5, 7]);
    }

    #[test]
    fn nested_and_identical_children() {
        let spans = [
            iv(1, 0, 0, 50),
            iv(2, 1, 0, 50),
            iv(3, 1, 0, 50),
            iv(4, 1, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 50, 10]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_when_children_nest() {
        let spans = [
            iv(1, 0, 0, 1000),
            iv(2, 1, 100, 400),
            iv(3, 2, 150, 250),
            iv(4, 1, 500, 900),
            iv(5, 4, 500, 600),
            iv(6, 4, 700, 900),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recorder_builds_a_tree() {
        let mut rec = HostRecorder::new();
        rec.set_rep(3);
        rec.span("rep", |rec| {
            rec.span("run", |_| std::hint::black_box(1 + 1));
            rec.span("oracle", |_| ());
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].at.parent, rec.spans[0].at.id);
        assert_eq!(rec.spans[2].at.parent, rec.spans[0].at.id);
        assert_eq!(rec.spans[0].at.parent, 0);
        assert!(rec.spans.iter().all(|s| s.rep == 3));
        assert!(rec.spans[0].at.end >= rec.spans[2].at.end);
        assert!(rec.last_ns("run").is_some());
        let rows = rec.to_json();
        assert_eq!(Json::parse(&rows.render()).unwrap(), rows);
    }
}
