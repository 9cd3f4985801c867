//! # dex-bench — experiment harnesses for the DEX reproduction
//!
//! One binary per table/figure of the paper:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig2`    | Figure 2 — scalability of the eight applications, 1→8 nodes, initial vs optimized |
//! | `table1`  | Table I — lines changed to convert and optimize each application |
//! | `table2`  | Table II — forward/backward migration latency, first vs repeat |
//! | `fig3`    | Figure 3 — remote-side breakdown of migration latency |
//! | `pgfault` | §V-D — bimodal page-fault handling cost microbenchmark |
//! | `scaleup` | §V-B — inherent scalability on one large scale-up machine |
//! | `ablation`| design-choice studies: leader–follower, RDMA strategy, optimization deltas |
//!
//! Run any of them with `cargo run -p dex-bench --release --bin <name>`.
//! The `benches/` directory additionally holds criterion benchmarks of the
//! simulator's host-side performance.
//!
//! Every binary also distills its run into a machine-readable
//! `BENCH_<name>.json` result in one stable schema ([`BenchResult`]),
//! written to `DEX_BENCH_OUT` (default: the current directory). The
//! `dex-check perf` subcommand diffs those files against the committed
//! baselines exactly. `--smoke` (or `DEX_BENCH_SMOKE=1`)
//! selects the reduced configuration the CI gate runs.
//!
//! Setting `DEX_BENCH_SPANS=<dir>` additionally records causal spans
//! during the representative runs and dumps each as a `# dex-spans v2`
//! trace (`SPANS_<name>.txt`) into that directory — the raw material for
//! `dex-prof diff` when the perf gate trips. Span recording is pure
//! bookkeeping on the simulator side, so the `BENCH_*.json` numbers are
//! bit-identical with or without it.

#![warn(missing_docs)]

mod perf;

pub use perf::{smoke, BenchResult, BENCH_SCHEMA};

use std::fmt::Write as _;
use std::path::PathBuf;

use dex_core::{ClusterConfig, RunReport};

/// Formats a simple aligned text table: `header` row then `rows`, each a
/// vector of cells. The first column is left-aligned, the rest right.
///
/// # Examples
///
/// ```
/// let t = dex_bench::render_table(
///     &["app", "x1", "x2"],
///     &[vec!["GRP".into(), "1.00".into(), "1.52".into()]],
/// );
/// assert!(t.contains("GRP"));
/// assert!(t.contains("x2"));
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        if i == 0 {
            let _ = write!(out, "{:<w$}", h, w = widths[i]);
        } else {
            let _ = write!(out, "  {:>w$}", h, w = widths[i]);
        }
    }
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", cell, w = widths[i]);
            } else {
                let _ = write!(out, "  {:>w$}", cell, w = widths[i]);
            }
        }
        out.push('\n');
    }
    out
}

/// The span-dump directory named by `DEX_BENCH_SPANS`, when set and
/// non-empty. Bench binaries treat this as the opt-in switch for
/// recording span traces alongside their `BENCH_*.json` results.
pub fn spans_dir() -> Option<PathBuf> {
    match std::env::var("DEX_BENCH_SPANS") {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Turns on causal-span recording when `DEX_BENCH_SPANS` requests a
/// dump. Spans are schedule-neutral bookkeeping, so the run's virtual
/// time and counters are unchanged either way.
#[must_use]
pub fn with_spans_if_requested(config: ClusterConfig) -> ClusterConfig {
    if spans_dir().is_some() {
        config.with_spans()
    } else {
        config
    }
}

/// Writes `report`'s span trace as `SPANS_<name>.txt` (the
/// `# dex-spans v2` codec) into the `DEX_BENCH_SPANS` directory and
/// returns the path; `Ok(None)` when no dump was requested.
pub fn write_spans(name: &str, report: &RunReport) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = spans_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("SPANS_{name}.txt"));
    std::fs::write(&path, dex_prof::encode_spans(&report.spans))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(path))
}

/// Parses `--flag value` style arguments from `std::env::args`.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

/// Returns `true` when `--flag` is present.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("long-name"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn arg_helpers_do_not_crash() {
        assert_eq!(arg_value("--definitely-not-set"), None);
        assert!(!arg_flag("--definitely-not-set"));
    }
}
