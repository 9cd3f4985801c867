//! The sample traced workload behind `dex-check timeline` and
//! `dex-check metrics`.
//!
//! Runs a small deterministic 3-node application with spans and metrics
//! on — forward migrations, remote write faults with invalidation
//! fan-out, a read-sharing thread, backward migrations — then hands the
//! measured spans to `dex-prof`'s exporters. This is the quickest way to
//! get a real Chrome trace-event JSON out of the reproduction, and CI
//! uses it to prove the export pipeline stays valid end to end.

use dex_core::{Cluster, ClusterConfig, Counter, RunReport, SpanKind};
use dex_prof::{encode_spans, export_chrome_trace, render_critical_path};

/// Everything the observed sample run produces.
pub struct ObserveOutcome {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// The `# dex-spans v2` text encoding of the same forest.
    pub spans_text: String,
    /// The critical-path report (fault decomposition + Table II shape).
    pub critical_path: String,
    /// Rendered metrics snapshot.
    pub metrics_text: String,
    /// Where the per-node and per-link counters disagree with the run's
    /// totals (see [`metric_sum_violations`]); empty when they agree.
    pub metrics_violations: Vec<String>,
    /// Number of spans recorded.
    pub spans: usize,
    /// Whether at least one fault stitched requester → origin →
    /// requester across node boundaries.
    pub stitched_cross_node: bool,
}

/// Runs the sample workload with full observability and exports it.
pub fn run_observed_workload() -> ObserveOutcome {
    let report = observed_run();
    let spans = &report.spans;
    let stitched_cross_node = spans.iter().any(|fault| {
        fault.kind == SpanKind::Fault
            && spans.iter().any(|handling| {
                handling.kind == SpanKind::DirectoryHandling
                    && handling.parent == fault.id
                    && handling.node != fault.node
                    && spans.iter().any(|fixup| {
                        fixup.kind == SpanKind::PageFixup
                            && fixup.parent == handling.id
                            && fixup.node == fault.node
                    })
            })
    });

    ObserveOutcome {
        chrome_json: export_chrome_trace(spans),
        spans_text: encode_spans(spans),
        critical_path: render_critical_path(spans, 3),
        metrics_text: report
            .metrics
            .as_ref()
            .map(|m| m.render())
            .unwrap_or_default(),
        metrics_violations: metric_sum_violations(&report),
        spans: spans.len(),
        stitched_cross_node,
    }
}

/// The sample workload's run, with spans and metrics on.
fn observed_run() -> RunReport {
    let cluster = Cluster::new(ClusterConfig::new(3).with_spans().with_metrics());
    cluster.run(|p| {
        let data = p.alloc_vec::<u64>(256, "data");
        let flag = p.alloc_cell_tagged::<u32>(0, "flag");
        for worker in 0..2u16 {
            p.spawn(move |ctx| {
                ctx.set_site("observe.writer");
                ctx.migrate(worker + 1).expect("node exists");
                let base = worker as usize * 64;
                for i in 0..16 {
                    data.set(ctx, base + i, (base + i) as u64);
                }
                if worker == 0 {
                    flag.set(ctx, 1);
                }
                ctx.migrate_back().expect("return home");
            });
        }
        p.spawn(move |ctx| {
            ctx.set_site("observe.reader");
            while flag.get(ctx) == 0 {
                ctx.compute_ops(10_000);
            }
            let mut sum = 0u64;
            for i in 0..16 {
                sum += data.get(ctx, i);
            }
            assert_eq!(sum, (0..16).sum::<u64>());
        });
    })
}

/// Checks that the run's counters are recorded once, per node: every
/// `DexStats` field must equal the sum of its per-node counter, and the
/// per-link `msgs`/`bytes` must sum to `msgs.sent`/`bytes.sent`. When the
/// run recorded spans, each node's protocol faults (`faults.read` +
/// `faults.write`) and minor faults must also equal its fault spans of
/// each sort — an independent record, so a fault counted at the wrong
/// node fails here even though the totals still agree. A run that counted
/// no write fault fails too, so the check cannot pass on an empty store.
/// Returns one line per violation.
pub fn metric_sum_violations(report: &RunReport) -> Vec<String> {
    let Some(snap) = &report.metrics else {
        return vec!["the run has no metrics snapshot".to_string()];
    };
    let sum = |cells: &mut dyn Iterator<Item = &(String, u64)>, name: &str| -> u64 {
        cells.filter(|(n, _)| n == name).map(|(_, v)| *v).sum()
    };
    let node_sum = |name: &str| sum(&mut snap.per_node.iter().flatten(), name);
    let link_sum = |name: &str| sum(&mut snap.per_link.iter().flat_map(|l| &l.counters), name);
    let mut violations = Vec::new();
    for (name, total) in report.stats.by_counter() {
        let cells = node_sum(name);
        if cells != total {
            violations.push(format!("{name}: per-node sum {cells} != DexStats {total}"));
        }
    }
    for (link, node) in [("msgs", "msgs.sent"), ("bytes", "bytes.sent")] {
        let (links, nodes) = (link_sum(link), node_sum(node));
        if links != nodes {
            violations.push(format!("per-link {link} sum {links} != {node} {nodes}"));
        }
    }
    if !report.spans.is_empty() {
        for (node, cells) in snap.per_node.iter().enumerate() {
            let cell = |c: Counter| sum(&mut cells.iter(), c.name());
            let fault_spans = |minor: bool| {
                let spans = report.spans.iter().filter(|s| {
                    s.kind == SpanKind::Fault
                        && usize::from(s.node.0) == node
                        && (s.label == "minor_fault") == minor
                });
                spans.count() as u64
            };
            let counted = cell(Counter::FaultsRead) + cell(Counter::FaultsWrite);
            let (spans, minor) = (fault_spans(false), fault_spans(true));
            if counted != spans {
                violations.push(format!(
                    "node {node}: faults.read + faults.write {counted} != {spans} fault spans"
                ));
            }
            let counted = cell(Counter::FaultsMinor);
            if counted != minor {
                violations.push(format!(
                    "node {node}: faults.minor {counted} != {minor} minor_fault spans"
                ));
            }
        }
    }
    if report.stats.write_faults == 0 {
        violations.push("no write fault was counted".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_workload_exports_a_stitched_timeline() {
        let out = run_observed_workload();
        assert!(out.spans > 0);
        assert!(
            out.stitched_cross_node,
            "a remote fault must stitch requester -> origin -> requester"
        );
        assert!(out.chrome_json.contains("\"traceEvents\""));
        assert!(out.spans_text.starts_with("# dex-spans v2"));
        assert!(out.critical_path.contains("migration phases"));
        assert!(out.metrics_text.contains("faults.write"));
        assert_eq!(out.metrics_violations, Vec::<String>::new());
        // The JSON survives its own span codec sibling: decode the text
        // form and re-export, sizes must agree.
        let decoded = dex_prof::decode_spans(&out.spans_text).unwrap();
        assert_eq!(decoded.len(), out.spans);
    }

    #[test]
    fn a_fault_counted_at_the_wrong_node_is_a_violation() {
        let mut report = observed_run();
        assert_eq!(metric_sum_violations(&report), Vec::<String>::new());
        // Move one write fault from the node that took it to node 0: every
        // total still sums, only the fault spans disagree.
        let snap = report.metrics.as_mut().expect("metrics are on");
        let name = Counter::FaultsWrite.name();
        let from = (1..snap.nodes)
            .find(|&n| snap.per_node[n].iter().any(|(c, v)| c == name && *v > 0))
            .expect("a remote node took a write fault");
        for (n, delta) in [(from, -1i64), (0, 1)] {
            let cells = &mut snap.per_node[n];
            match cells.iter_mut().find(|(c, _)| c == name) {
                Some((_, v)) => *v = v.checked_add_signed(delta).expect("a count"),
                None => cells.push((name.to_string(), 1)),
            }
        }
        let violations = metric_sum_violations(&report);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("node 0: faults.read + faults.write"));
        assert!(violations[1].starts_with(&format!("node {from}: ")));
    }
}
