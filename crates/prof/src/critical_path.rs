//! Critical-path analysis over measured span forests.
//!
//! Answers the paper's latency questions from data rather than from the
//! cost model: *where did this fault's 158.8 µs go?* (§III-B's
//! slow-mode fault = directory handling + invalidation fan-out + retry
//! back-off + page transfer + fixup) and *what does a migration cost,
//! phase by phase?* (Table II: remote worker setup, thread fork, context
//! install — reused workers skip the first two).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dex_core::{Span, SpanKind};

/// Aggregate timing for one migration phase label (one Table II row).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// The phase label (e.g. `remote_worker_setup`, `thread_fork`).
    pub label: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Total time across samples, nanoseconds.
    pub total_ns: u64,
}

impl PhaseStat {
    /// Mean phase latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1_000.0
        }
    }
}

/// Groups [`SpanKind::MigrationPhase`] spans by label — the measured
/// reconstruction of Table II's per-phase rows.
pub fn migration_phases(spans: &[Span]) -> Vec<PhaseStat> {
    let mut by_label: BTreeMap<&'static str, PhaseStat> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::MigrationPhase) {
        let e = by_label.entry(s.label).or_insert(PhaseStat {
            label: s.label,
            count: 0,
            total_ns: 0,
        });
        e.count += 1;
        e.total_ns += s.duration().as_nanos();
    }
    by_label.into_values().collect()
}

/// Aggregates the protocol-side span kinds — directory handling,
/// owner-forwarded grants, batched and unicast invalidations, fixups,
/// retries — into one (kind, label) table, so the two-hop path of the
/// sharded directory gets its own rows instead of vanishing into the
/// fault trees. Returns `(kind, label, stat)` rows in kind/label order.
pub fn protocol_path_breakdown(spans: &[Span]) -> Vec<(SpanKind, PhaseStat)> {
    let mut by_key: BTreeMap<(&'static str, &'static str), (SpanKind, PhaseStat)> = BTreeMap::new();
    for s in spans.iter().filter(|s| {
        matches!(
            s.kind,
            SpanKind::DirectoryHandling
                | SpanKind::OwnerForward
                | SpanKind::InvalidateBatch
                | SpanKind::Invalidation
                | SpanKind::PageFixup
                | SpanKind::FaultRetry
        )
    }) {
        let e = by_key.entry((s.kind.as_str(), s.label)).or_insert_with(|| {
            (
                s.kind,
                PhaseStat {
                    label: s.label,
                    count: 0,
                    total_ns: 0,
                },
            )
        });
        e.1.count += 1;
        e.1.total_ns += s.duration().as_nanos();
    }
    by_key.into_values().collect()
}

/// One node of the span forest.
pub(crate) struct TreeNode<'a> {
    pub(crate) span: &'a Span,
    /// Indices of the children, in start-time order.
    pub(crate) children: Vec<usize>,
}

/// Builds parent→children indices over a span slice: the one index of the
/// forest every consumer walks.
pub(crate) fn index_forest(spans: &[Span]) -> Vec<TreeNode<'_>> {
    let mut nodes: Vec<TreeNode<'_>> = spans
        .iter()
        .map(|span| TreeNode {
            span,
            children: Vec::new(),
        })
        .collect();
    let by_id: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id.0, i)).collect();
    for i in 0..nodes.len() {
        let parent = nodes[i].span.parent.0;
        if parent != 0 {
            if let Some(&p) = by_id.get(&parent) {
                if p != i {
                    nodes[p].children.push(i);
                }
            }
        }
    }
    // Children in start-time order makes the rendered tree a timeline.
    let starts: Vec<u64> = spans.iter().map(|s| s.start.as_nanos()).collect();
    for node in &mut nodes {
        node.children.sort_by_key(|&c| starts[c]);
    }
    nodes
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn render_tree(nodes: &[TreeNode<'_>], i: usize, depth: usize, out: &mut String) {
    let s = nodes[i].span;
    let indent = "  ".repeat(depth);
    let tag = s.tag.map(|t| format!(" [{t}]")).unwrap_or_default();
    let _ = writeln!(
        out,
        "{indent}{} {} @ node {} task {}: {:.1} us{tag}",
        s.kind,
        s.label,
        s.node.0,
        if s.task.0 == u64::MAX {
            "proto".to_string()
        } else {
            s.task.0.to_string()
        },
        us(s.duration().as_nanos()),
    );
    for &c in &nodes[i].children {
        render_tree(nodes, c, depth + 1, out);
    }
}

/// Sum of child durations clipped to the parent's own interval, so
/// "unattributed" time is the parent's span minus measured sub-work
/// (network transit, queueing, scheduling).
fn attributed_ns(nodes: &[TreeNode<'_>], i: usize) -> u64 {
    let parent = nodes[i].span;
    nodes[i]
        .children
        .iter()
        .map(|&c| {
            let child = nodes[c].span;
            let start = child.start.as_nanos().max(parent.start.as_nanos());
            let end = child.end.as_nanos().min(parent.end.as_nanos());
            end.saturating_sub(start)
        })
        .sum()
}

/// Renders the critical-path report: the slowest faults decomposed into
/// their measured sub-spans (with unattributed wire/queue time called
/// out), then the migration phase table.
///
/// `top` bounds how many fault trees are rendered.
pub fn render_critical_path(spans: &[Span], top: usize) -> String {
    let nodes = index_forest(spans);
    let mut out = String::new();
    let _ = writeln!(out, "=== DEX critical-path report ===");
    let _ = writeln!(out, "{} spans analyzed", spans.len());

    // Roots of interest: whole faults, slowest first.
    let mut faults: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].span.kind == SpanKind::Fault)
        .collect();
    faults.sort_by_key(|&i| std::cmp::Reverse(nodes[i].span.duration().as_nanos()));

    let _ = writeln!(out, "\n-- slowest faults, decomposed --");
    if faults.is_empty() {
        let _ = writeln!(out, "no fault spans recorded");
    }
    for &i in faults.iter().take(top) {
        let total = nodes[i].span.duration().as_nanos();
        render_tree(&nodes, i, 0, &mut out);
        let unattributed = total.saturating_sub(attributed_ns(&nodes, i));
        let _ = writeln!(
            out,
            "  (unattributed wire/queue/handler time: {:.1} us of {:.1} us)",
            us(unattributed),
            us(total),
        );
    }

    let protocol = protocol_path_breakdown(spans);
    if !protocol.is_empty() {
        let _ = writeln!(out, "\n-- protocol path breakdown --");
        for (kind, p) in &protocol {
            let _ = writeln!(
                out,
                "{:<18} {:<24} {:>4} sample(s)  avg {:>8.1} us",
                kind.as_str(),
                p.label,
                p.count,
                p.mean_us(),
            );
        }
    }

    let phases = migration_phases(spans);
    let _ = writeln!(out, "\n-- migration phases (Table II shape) --");
    if phases.is_empty() {
        let _ = writeln!(out, "no migration phase spans recorded");
    }
    for p in &phases {
        let _ = writeln!(
            out,
            "{:<22} {:>4} sample(s)  avg {:>8.1} us",
            p.label,
            p.count,
            p.mean_us(),
        );
    }

    let migrations: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::MigrationForward | SpanKind::MigrationBack))
        .collect();
    if !migrations.is_empty() {
        let _ = writeln!(out, "\n-- migrations end to end --");
        let mut by_label: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for m in &migrations {
            let e = by_label.entry(m.label).or_insert((0, 0));
            e.0 += 1;
            e.1 += m.duration().as_nanos();
        }
        for (label, (count, total)) in by_label {
            let _ = writeln!(
                out,
                "{label:<22} {count:>4} sample(s)  avg {:>8.1} us",
                us(total) / count as f64,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::SpanId;
    use dex_net::NodeId;
    use dex_os::Tid;
    use dex_sim::SimTime;

    fn span(
        id: u64,
        parent: u64,
        kind: SpanKind,
        label: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId(parent),
            kind,
            node: NodeId(if kind == SpanKind::DirectoryHandling {
                0
            } else {
                1
            }),
            task: Tid(3),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            label,
            tag: None,
            site: "",
            addr: None,
        }
    }

    #[test]
    fn fault_tree_reports_unattributed_time() {
        let spans = vec![
            span(1, 0, SpanKind::Fault, "write_fault", 0, 10_000),
            span(
                2,
                1,
                SpanKind::DirectoryHandling,
                "page_request_write",
                2_000,
                3_000,
            ),
            span(3, 1, SpanKind::PageFixup, "grant_with_data", 8_000, 9_000),
        ];
        let report = render_critical_path(&spans, 5);
        assert!(report.contains("fault write_fault"));
        assert!(report.contains("directory_handling"));
        assert!(
            report.contains("unattributed wire/queue/handler time: 8.0 us of 10.0 us"),
            "2 us of 10 attributed, 8 unattributed:\n{report}"
        );
    }

    #[test]
    fn forwarded_path_gets_named_rows_not_other() {
        // A sharded-directory fault: home forwards to the owner, the
        // owner services the grant, readers are revoked in one batch.
        let spans = vec![
            span(1, 0, SpanKind::Fault, "write_fault", 0, 20_000),
            span(
                2,
                1,
                SpanKind::DirectoryHandling,
                "page_request_write",
                3_000,
                4_000,
            ),
            span(
                3,
                2,
                SpanKind::OwnerForward,
                "owner_forward_write",
                7_000,
                9_500,
            ),
            span(
                4,
                2,
                SpanKind::InvalidateBatch,
                "invalidate_batch_flush",
                7_000,
                11_000,
            ),
        ];
        let rows = protocol_path_breakdown(&spans);
        let fwd = rows
            .iter()
            .find(|(k, _)| *k == SpanKind::OwnerForward)
            .expect("owner_forward has its own row");
        assert_eq!(fwd.1.label, "owner_forward_write");
        assert_eq!(fwd.1.count, 1);
        assert!((fwd.1.mean_us() - 2.5).abs() < 1e-9);
        assert!(rows.iter().any(|(k, _)| *k == SpanKind::InvalidateBatch));

        let report = render_critical_path(&spans, 5);
        assert!(report.contains("protocol path breakdown"), "{report}");
        assert!(report.contains("owner_forward"), "{report}");
        assert!(report.contains("invalidate_batch"), "{report}");
    }

    #[test]
    fn migration_phase_table_aggregates_by_label() {
        let spans = vec![
            span(
                1,
                0,
                SpanKind::MigrationPhase,
                "remote_worker_setup",
                0,
                620_000,
            ),
            span(
                2,
                0,
                SpanKind::MigrationPhase,
                "thread_fork",
                620_000,
                770_000,
            ),
            span(
                3,
                0,
                SpanKind::MigrationPhase,
                "context_install",
                770_000,
                800_000,
            ),
            span(4, 0, SpanKind::MigrationPhase, "context_install", 0, 30_000),
        ];
        let phases = migration_phases(&spans);
        let install = phases
            .iter()
            .find(|p| p.label == "context_install")
            .unwrap();
        assert_eq!(install.count, 2);
        assert!((install.mean_us() - 30.0).abs() < 1e-9);
        let setup = phases
            .iter()
            .find(|p| p.label == "remote_worker_setup")
            .unwrap();
        assert!((setup.mean_us() - 620.0).abs() < 1e-9);
    }
}
