//! `dex-prof` — the profiling CLI for the DEX reproduction.
//!
//! ```text
//! dex-prof top [FILE] [--window N]
//! dex-prof diff BASELINE CANDIDATE [--top N]
//! ```
//!
//! `top` renders one window of a `# dex-series v1` telemetry time-series
//! as a per-node dashboard: counter deltas by node, link traffic,
//! per-window latency quantiles. A series file carries no spans, so its
//! health is not judged. Without FILE it runs the built-in sharing demo
//! workload with telemetry enabled and renders its final window, with
//! the health alarms judged from the run's series and spans.
//!
//! `diff` aligns two runs' artifacts — span traces, series, or
//! `BENCH_*.json` results, sniffed by header — and reports where the
//! virtual time moved: per span kind, per node, per link, and along the
//! slowest fault's critical path.
//!
//! Exit status: `0` on success, `1` when the rendered window carries
//! health alarms (live mode), `2` on usage or I/O errors.

use std::process::ExitCode;

use dex_core::{Cluster, ClusterConfig, DsmCell};
use dex_prof::{decode_series, health, render_diff, render_top, sniff_and_decode, MonitorConfig};
use dex_sim::SimDuration;

const USAGE: &str = "\
dex-prof — telemetry dashboard and cross-run differ for DEX runs

USAGE:
  dex-prof top [FILE] [--window N]
  dex-prof diff BASELINE CANDIDATE [--top N]

SUBCOMMANDS:
  top      render one window of a `# dex-series v1` time-series as a
           per-node dashboard (counters, link traffic, latency
           quantiles). FILE is a series text file (health not judged:
           the file has no spans); without it, the built-in sharing
           demo runs live with telemetry and the final window is
           rendered together with its health alarms.
  diff     align two artifacts of the same kind — `# dex-spans v2` span
           traces, `# dex-series v1` series, or `dex-bench v1` JSON
           results (format sniffed from the first line) — and report
           where virtual time moved, top movers first.

OPTIONS:
  --window N   (top) render window N instead of the last one
  --top N      (diff) rows per section (default 12)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "top" => cmd_top(rest),
        "diff" => cmd_diff(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dex-prof: {message}");
            ExitCode::from(2)
        }
    }
}

fn cmd_top(args: &[String]) -> Result<bool, String> {
    let mut file: Option<String> = None;
    let mut window: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                window = Some(v.parse().map_err(|_| format!("`{v}` is not a number"))?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `top`\n\n{USAGE}"))
            }
            path if file.is_none() => file = Some(path.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }

    match file {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let series = decode_series(&text).map_err(|e| format!("{path}: {e}"))?;
            print!("{}", render_top(&series, None, window));
            Ok(true)
        }
        None => {
            let report = run_demo();
            let series = report.series.expect("telemetry was enabled");
            let alarms = health(&series, &report.spans, &MonitorConfig::default());
            print!("{}", render_top(&series, Some(&alarms), window));
            Ok(alarms.is_empty())
        }
    }
}

fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let mut files: Vec<&str> = Vec::new();
    let mut top: usize = 12;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|_| format!("`{v}` is not a number"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `diff`\n\n{USAGE}"))
            }
            path => files.push(path),
        }
    }
    let [baseline, candidate] = files[..] else {
        return Err(format!(
            "diff needs exactly two files (baseline, candidate)\n\n{USAGE}"
        ));
    };
    let load = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        sniff_and_decode(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = render_diff(&load(baseline)?, &load(candidate)?, top.max(1))?;
    print!("{report}");
    Ok(true)
}

/// The live demo: two nodes alternately writing one cell — enough
/// cross-node traffic to light up every dashboard section.
fn run_demo() -> dex_core::RunReport {
    let config = ClusterConfig::new(2).with_telemetry(SimDuration::from_millis(1));
    Cluster::new(config).run(|p| {
        let cell: DsmCell<u64> = p.alloc_cell_tagged(0, "shared_counter");
        let barrier = p.new_barrier(2, "start");
        for node in [0u16, 1u16] {
            p.spawn(move |ctx| {
                if node != 0 {
                    ctx.migrate(node).expect("node exists");
                }
                barrier.wait(ctx);
                for _ in 0..12 {
                    cell.rmw(ctx, |v| v + 1);
                    ctx.compute_ops(300_000);
                }
            });
        }
    })
}
