//! The `dex-prof top` dashboard: one window of a telemetry
//! [`TimeSeries`] rendered as a per-node ASCII table — counter deltas
//! by node, link traffic, per-window latency quantiles, and the health
//! alarms raised in that window.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use dex_net::{SeriesScope, TimeSeries};

use crate::health::HealthEvent;

fn pad(s: &str, width: usize) -> String {
    format!("{s:>width$}")
}

fn render_grid(out: &mut String, header: Vec<String>, rows: Vec<Vec<String>>) {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for (row_ix, row) in std::iter::once(&header).chain(rows.iter()).enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| pad(cell, widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", line.join("  "));
        if row_ix == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            let _ = writeln!(out, "  {}", rule.join("  "));
        }
    }
}

/// Renders one window of `series` as the `top` dashboard. `window`
/// defaults to the last recorded window. `health` is the run's alarms
/// (see [`health`](crate::health)), filtered down to the rendered window,
/// or `None` when they were not judged: the dashboard then says so
/// instead of calling the window healthy.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
/// use dex_prof::{health, render_top, MonitorConfig};
/// use dex_sim::SimDuration;
///
/// let config = ClusterConfig::new(2).with_telemetry(SimDuration::from_micros(50));
/// let report = Cluster::new(config).run(|p| {
///     p.spawn(|ctx| {
///         ctx.migrate(1).unwrap();
///         ctx.migrate_back().unwrap();
///     });
/// });
/// let series = report.series.expect("telemetry on");
/// let alarms = health(&series, &report.spans, &MonitorConfig::default());
/// let text = render_top(&series, Some(&alarms), None);
/// assert!(text.contains("node"));
/// ```
pub fn render_top(
    series: &TimeSeries,
    health: Option<&[HealthEvent]>,
    window: Option<u64>,
) -> String {
    let mut out = String::new();
    if series.windows == 0 {
        return "dex-prof top: the series has no windows (nothing moved)\n".to_string();
    }
    let w = window.unwrap_or(series.windows - 1).min(series.windows - 1);
    let _ = writeln!(
        out,
        "dex-prof top — window {w}/{} (width {}, run ends at {})",
        series.windows - 1,
        series.window,
        series.end
    );
    out.push('\n');

    // Per-node counters: one row per node, one column per counter name.
    let mut node_names: BTreeSet<&str> = BTreeSet::new();
    let mut node_vals: BTreeMap<(u16, &str), u64> = BTreeMap::new();
    let mut link_names: BTreeSet<&str> = BTreeSet::new();
    let mut link_vals: BTreeMap<((u16, u16), &str), u64> = BTreeMap::new();
    for p in series.counters_in(w) {
        match p.scope {
            SeriesScope::Node(n) => {
                node_names.insert(&p.name);
                *node_vals.entry((n, &p.name)).or_insert(0) += p.delta;
            }
            SeriesScope::Link(s, d) => {
                link_names.insert(&p.name);
                *link_vals.entry(((s, d), &p.name)).or_insert(0) += p.delta;
            }
        }
    }
    if node_names.is_empty() && link_names.is_empty() {
        out.push_str("  (idle window: no counter moved)\n");
    }
    if !node_names.is_empty() {
        let nodes: BTreeSet<u16> = node_vals.keys().map(|(n, _)| *n).collect();
        let mut header = vec!["node".to_string()];
        header.extend(node_names.iter().map(|s| s.to_string()));
        let rows = nodes
            .iter()
            .map(|n| {
                let mut row = vec![n.to_string()];
                row.extend(node_names.iter().map(|name| {
                    node_vals
                        .get(&(*n, *name))
                        .map_or_else(|| "-".to_string(), u64::to_string)
                }));
                row
            })
            .collect();
        render_grid(&mut out, header, rows);
        out.push('\n');
    }
    if !link_names.is_empty() {
        let links: BTreeSet<(u16, u16)> = link_vals.keys().map(|(l, _)| *l).collect();
        let mut header = vec!["link".to_string()];
        header.extend(link_names.iter().map(|s| s.to_string()));
        let rows = links
            .iter()
            .map(|(s, d)| {
                let mut row = vec![format!("{s}>{d}")];
                row.extend(link_names.iter().map(|name| {
                    link_vals
                        .get(&((*s, *d), *name))
                        .map_or_else(|| "-".to_string(), u64::to_string)
                }));
                row
            })
            .collect();
        render_grid(&mut out, header, rows);
        out.push('\n');
    }

    let hists: Vec<_> = series.hists_in(w).collect();
    if !hists.is_empty() {
        let header = ["latency", "node", "count", "p50", "p95", "p99"]
            .map(String::from)
            .to_vec();
        let rows = hists
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.node.to_string(),
                    h.count.to_string(),
                    h.p50.to_string(),
                    h.p95.to_string(),
                    h.p99.to_string(),
                ]
            })
            .collect();
        render_grid(&mut out, header, rows);
        out.push('\n');
    }

    let Some(health) = health else {
        out.push_str("health: not judged\n");
        return out;
    };
    let alarms: Vec<&HealthEvent> = health.iter().filter(|e| e.window == w).collect();
    if alarms.is_empty() {
        out.push_str("health: ok\n");
    } else {
        let _ = writeln!(out, "health: {} alarm(s)", alarms.len());
        for e in alarms {
            let _ = writeln!(out, "  {e}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_net::{CounterPoint, HistPoint};
    use dex_sim::{SimDuration, SimTime};

    fn sample() -> TimeSeries {
        TimeSeries {
            window: SimDuration::from_micros(50),
            windows: 2,
            end: SimTime::from_nanos(100_000),
            counters: vec![
                CounterPoint {
                    window: 1,
                    scope: SeriesScope::Node(0),
                    name: "faults.write".into(),
                    delta: 4,
                },
                CounterPoint {
                    window: 1,
                    scope: SeriesScope::Node(1),
                    name: "msgs.sent".into(),
                    delta: 7,
                },
                CounterPoint {
                    window: 1,
                    scope: SeriesScope::Link(0, 1),
                    name: "bytes".into(),
                    delta: 4_096,
                },
            ],
            hists: vec![HistPoint {
                window: 1,
                node: 0,
                name: "net.send_pool_wait".into(),
                count: 3,
                p50: SimDuration::from_nanos(900),
                p95: SimDuration::from_nanos(950),
                p99: SimDuration::from_nanos(990),
            }],
        }
    }

    #[test]
    fn renders_counters_links_latency_and_health() {
        let text = render_top(&sample(), Some(&[]), None);
        assert!(text.contains("window 1/1"), "{text}");
        assert!(text.contains("faults.write"));
        assert!(text.contains("msgs.sent"));
        assert!(text.contains("0>1"));
        assert!(text.contains("net.send_pool_wait"));
        assert!(text.contains("health: ok"));
        // Node 1 never wrote a fault: rendered as `-`, not 0.
        let node_row = text
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(node_row.contains('-'), "{node_row}");
    }

    #[test]
    fn idle_window_and_empty_series_render_gracefully() {
        let empty = render_top(&TimeSeries::default(), Some(&[]), None);
        assert!(empty.contains("no windows"));
        let idle = render_top(&sample(), Some(&[]), Some(0));
        assert!(idle.contains("idle window"), "{idle}");
    }

    #[test]
    fn health_alarms_of_the_window_are_listed() {
        use crate::health::HealthEventKind;
        use dex_core::SpanId;
        let health = vec![HealthEvent {
            window: 1,
            at: SimTime::from_nanos(100_000),
            kind: HealthEventKind::PagePingPong,
            node: dex_net::NodeId(0),
            span: SpanId(9),
            detail: "tag 'bouncer' faulted 8x from 2 nodes".into(),
        }];
        let text = render_top(&sample(), Some(&health), Some(1));
        assert!(text.contains("1 alarm(s)"));
        assert!(text.contains("page_ping_pong"));
        // A different window filters it out.
        let other = render_top(&sample(), Some(&health), Some(0));
        assert!(other.contains("health: ok"));
    }

    #[test]
    fn unjudged_health_is_not_reported_ok() {
        let text = render_top(&sample(), None, None);
        assert!(text.contains("health: not judged"), "{text}");
        assert!(!text.contains("health: ok"), "{text}");
    }
}
