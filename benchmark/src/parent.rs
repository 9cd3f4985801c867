//! The parent process: starts one pinned child at a time, times their
//! set-up, gathers their results, prints every metric by name with its
//! unit, and writes `results.json`, `trace_<workload>.json` and
//! `repeat.txt` under the output directory.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::catalogue::{self, Class, MetricDef};
use crate::child::{Phase, READY_LINE};
use crate::json::{obj, Json};
use crate::stats;
use crate::sys;
use crate::values::Metrics;

/// Set-up time samples per measured workload: this many children are
/// started and timed to their `ready` line (the last goes on to measure).
const SETUP_SAMPLES: usize = 5;

/// glibc malloc settings in every child's environment: one arena, and
/// fixed thresholds (setting either turns off glibc's habit of raising both
/// to the size of the last large block freed).
const MALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
];

/// One invocation's settings.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Seconds one measure phase measures.
    pub seconds: u64,
    /// Where results and traces go.
    pub out: PathBuf,
}

/// What a finished child reported.
struct ChildResult {
    /// Seconds from starting the process to its `ready` line.
    setup_s: f64,
    /// The result object (absent for a set-up-only child).
    result: Option<Json>,
}

/// Everything known about one workload after its phases ran.
struct WorkloadResult {
    name: &'static str,
    metrics: Metrics,
    attempted: u64,
    failures: Vec<String>,
    /// Timed repetitions and tail percentile of the measure phase.
    reps: Option<(u64, f64)>,
    /// Its raw host wall times, ms, for whoever wants quartiles.
    samples: Option<Json>,
    budget: Option<Json>,
    trace: Option<Json>,
}

impl WorkloadResult {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The CPU every child is pinned to: the last one this process may use
/// (CPU 0 tends to take the machine's interrupts).
fn pinned_cpu() -> Result<usize, String> {
    sys::allowed_cpus()?
        .last()
        .copied()
        .ok_or_else(|| "empty CPU affinity mask".to_string())
}

impl Run {
    /// Starts one child, waits for it, and returns what it reported. Only
    /// one child exists at a time.
    fn child(&self, phase: Phase, workload: &str, cpu: usize) -> Result<ChildResult, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["--child", phase.as_str(), "--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--cpu", &cpu.to_string()])
            // With glibc's per-thread arenas the peak RSS of identical work
            // is bimodal (10 or 33 MiB on `migrate`), because every simulated
            // thread is a short-lived OS thread; with its self-adjusting
            // thresholds `kmn` keeps 33 or 37-39 MiB, depending on which
            // exiting thread frees its block first.
            .envs(MALLOC_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut setup_s = None;
        let mut last = None;
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading child output: {e}"))?;
            if setup_s.is_none() && line == READY_LINE {
                setup_s = Some(t0.elapsed().as_secs_f64());
            } else if !line.is_empty() {
                last = Some(line);
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for child: {e}"))?;
        if !status.success() {
            return Err(format!(
                "{workload}: {} child failed ({status})",
                phase.as_str()
            ));
        }
        let setup_s = setup_s.ok_or(format!("{workload}: child never became ready"))?;
        let result = match (phase, last) {
            (Phase::Setup, _) => None,
            (_, Some(line)) => Some(Json::parse(&line).map_err(|e| format!("child result: {e}"))?),
            (_, None) => return Err(format!("{workload}: child printed no result")),
        };
        Ok(ChildResult { setup_s, result })
    }

    /// Runs the requested phases of one workload.
    fn workload(
        &self,
        def: &'static catalogue::WorkloadDef,
        cpu: usize,
        measure: bool,
        trace: bool,
    ) -> Result<WorkloadResult, String> {
        let mut out = WorkloadResult {
            name: def.name,
            metrics: Metrics::default(),
            attempted: 0,
            failures: Vec::new(),
            reps: None,
            samples: None,
            budget: None,
            trace: None,
        };
        if measure {
            let mut setups = Vec::new();
            for _ in 1..SETUP_SAMPLES {
                setups.push(self.child(Phase::Setup, def.name, cpu)?.setup_s);
            }
            let measured = self.child(Phase::Measure, def.name, cpu)?;
            setups.push(measured.setup_s);
            let result = measured.result.expect("measure children report");
            out.absorb(&result)?;
            out.metrics.set("setup_s", stats::median(&setups));
            let number = |key: &str| result.get(key).and_then(Json::as_f64);
            out.reps = number("reps")
                .map(|n| n as u64)
                .zip(number("tail_percentile"));
            out.samples = result.get("host_wall_samples_ms").cloned();
        }
        if trace {
            let traced = self.child(Phase::Trace, def.name, cpu)?;
            let result = traced.result.expect("trace children report");
            // End-to-end numbers come from the measure phase when it ran.
            let measured = std::mem::take(&mut out.metrics);
            out.absorb(&result)?;
            out.metrics.merge(&measured);
            if def.name == "pingpong" {
                let unpinned = self.child(Phase::Unpinned, def.name, cpu)?;
                let free = unpinned
                    .result
                    .as_ref()
                    .and_then(|r| metric_value(r, "host_wall_ms"))
                    .ok_or("unpinned child reported no host_wall_ms")?;
                let pinned = out.metrics.get("host_wall_ms").expect("absorbed");
                out.metrics.set_ratio(
                    "sim.unpinned_ratio",
                    free,
                    pinned,
                    "unpinned ÷ pinned median host ms (informational: bimodal)",
                );
            }
            let doc = result.get("trace").cloned().unwrap_or(Json::Null);
            out.budget = doc.get("budget").cloned();
            out.trace = Some(doc);
        }
        out.metrics.set_ratio(
            "failed_share",
            out.failures.len() as f64,
            out.attempted as f64,
            "failed ÷ attempted repetitions, all phases",
        );
        Ok(out)
    }

    fn workloads(only: Option<&str>) -> impl Iterator<Item = &'static catalogue::WorkloadDef> + '_ {
        catalogue::WORKLOADS
            .iter()
            .filter(move |w| only.is_none_or(|o| o == w.name))
    }

    /// Runs both phases of the chosen workloads, one child at a time.
    fn run_set(&self, only: Option<&str>, cpu: usize) -> Result<Vec<WorkloadResult>, String> {
        Self::workloads(only)
            .map(|def| {
                eprintln!("dex-benchmark: running {} ...", def.name);
                self.workload(def, cpu, true, true)
            })
            .collect()
    }

    /// Human-readable mode: every metric of the chosen workloads.
    pub fn report(&self, only: Option<&str>) -> Result<i32, String> {
        let cpu = pinned_cpu()?;
        let results = self.run_set(only, cpu)?;
        for r in &results {
            print!("{}", render(r, self.seed, cpu));
        }
        self.write_outputs(&results, cpu)?;
        let failed: Vec<&str> = results
            .iter()
            .filter(|r| !r.correct())
            .map(|r| r.name)
            .collect();
        if failed.is_empty() {
            println!("all oracles passed; failed_share = 0 on every workload");
            Ok(0)
        } else {
            println!("FAILED repetitions on: {}", failed.join(", "));
            Ok(1)
        }
    }

    /// Driver mode: one phase of one workload, the contract's JSON object
    /// on the last line.
    pub fn driver(&self, workload: &str, trace: bool) -> Result<i32, String> {
        let cpu = pinned_cpu()?;
        let def = catalogue::workload(workload).expect("validated by the argument parser");
        let r = self.workload(def, cpu, !trace, trace)?;
        print!("{}", render(&r, self.seed, cpu));
        self.write_outputs(std::slice::from_ref(&r), cpu)?;
        let metrics: Vec<(String, Json)> = catalogue::METRICS
            .iter()
            .filter(|m| matches!(m.class, Class::Gated(_)) != trace)
            .map(|m| {
                let value = match (r.metrics.get(m.name), m.class) {
                    (Some(v), _) => v,
                    // A metric that does not apply to this workload.
                    (None, Class::EndToEnd | Class::Layer) => 0.0,
                    (None, Class::Gated(_)) => {
                        return Err(format!("{workload}: gated metric {} is missing", m.name))
                    }
                };
                Ok((
                    m.name.to_string(),
                    obj([("value", value.into()), ("unit", m.unit.into())]),
                ))
            })
            .collect::<Result<_, String>>()?;
        let line = obj([
            ("correct", r.correct().into()),
            ("attempted", r.attempted.into()),
            ("failed", r.failures.len().into()),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{}", line.render());
        Ok(0)
    }

    /// Runs the set twice back to back and lists every end-to-end metric
    /// whose two values differ by more than its bound (exact metrics: at
    /// all). Exit code 1 if any does.
    pub fn check_repeat(&self, only: Option<&str>) -> Result<i32, String> {
        let cpu = pinned_cpu()?;
        let first = self.run_set(only, cpu)?;
        let second = self.run_set(only, cpu)?;
        let mut text = format!(
            "check-repeat: seed {}, {} s per measure phase, cpu {cpu}\n",
            self.seed, self.seconds
        );
        let mut bad = 0;
        for (a, b) in first.iter().zip(&second) {
            text.push_str(&format!("\n== {} ==\n", a.name));
            if !(a.correct() && b.correct()) {
                bad += 1;
                text.push_str("  FAIL failed repetitions\n");
            }
            for def in catalogue::METRICS {
                let (Some(x), Some(y)) = (a.metrics.get(def.name), b.metrics.get(def.name)) else {
                    continue;
                };
                let Some(verdict) = compare(def, x, y) else {
                    continue;
                };
                if verdict.starts_with("FAIL") {
                    bad += 1;
                }
                text.push_str(&format!(
                    "  {verdict:<32} {:<28} {x} -> {y} {}\n",
                    def.name, def.unit
                ));
            }
        }
        text.push_str(&if bad == 0 {
            "\nPASS: both sets agree within every bound\n".to_string()
        } else {
            format!("\nFAIL: {bad} metric(s) outside their bound\n")
        });
        print!("{text}");
        std::fs::create_dir_all(&self.out).map_err(|e| format!("{}: {e}", self.out.display()))?;
        let path = self.out.join("repeat.txt");
        std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        self.write_outputs(&second, cpu)?;
        Ok(if bad == 0 { 0 } else { 1 })
    }

    fn write_outputs(&self, results: &[WorkloadResult], cpu: usize) -> Result<(), String> {
        std::fs::create_dir_all(&self.out).map_err(|e| format!("{}: {e}", self.out.display()))?;
        let write = |name: String, doc: &Json| {
            let path = self.out.join(name);
            std::fs::write(&path, doc.render_pretty())
                .map_err(|e| format!("{}: {e}", path.display()))
        };
        for r in results {
            if let Some(trace) = &r.trace {
                write(format!("trace_{}.json", r.name), trace)?;
            }
        }
        let env = obj([
            ("nproc", sys::allowed_cpus()?.len().into()),
            ("cpu_model", sys::cpu_model().into()),
            ("pinned", true.into()),
            ("pinned_cpu", cpu.into()),
            (
                "malloc_env",
                Json::Obj(
                    MALLOC_ENV
                        .iter()
                        .map(|(k, v)| (k.to_string(), (*v).into()))
                        .collect(),
                ),
            ),
            ("rustc", sys::tool_line("rustc", &["--version"]).into()),
            (
                "git_commit",
                sys::tool_line("git", &["rev-parse", "HEAD"]).into(),
            ),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
        ]);
        let workloads = results
            .iter()
            .map(|r| (r.name.to_string(), result_json(r)))
            .collect();
        write(
            "results.json".to_string(),
            &obj([("environment", env), ("workloads", Json::Obj(workloads))]),
        )
    }
}

impl WorkloadResult {
    /// Takes metrics and failure counts out of a child's result object.
    fn absorb(&mut self, result: &Json) -> Result<(), String> {
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("child result has no metrics")?;
        for (name, entry) in metrics {
            let def =
                catalogue::metric(name).ok_or(format!("child reported unknown metric {name}"))?;
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric {name} has no value"))?;
            let base = entry.get("base").and_then(Json::as_str);
            self.metrics.insert(def.name, value, base);
        }
        self.attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .ok_or("child result has no attempted count")? as u64;
        let failures = result.get("failures").and_then(Json::as_arr).unwrap_or(&[]);
        self.failures.extend(
            failures
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string)),
        );
        Ok(())
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How the second value of `def` compares with the first: `None` when the
/// metric carries no comparison (an unbounded host-clock layer number).
fn compare(def: &MetricDef, first: f64, second: f64) -> Option<String> {
    if def.exact {
        return Some(if first.to_bits() == second.to_bits() {
            "ok   exactly equal".to_string()
        } else {
            "FAIL must be exactly equal".to_string()
        });
    }
    let bound = match def.class {
        Class::Gated(bound) => bound,
        // failed_share: any failure is already reported.
        Class::EndToEnd => 0.0,
        Class::Layer => return None,
    };
    let change = if first == second {
        0.0
    } else {
        (second - first).abs() / first.abs()
    };
    Some(format!(
        "{} {:+.2}% of {first} (bound {}%)",
        if change <= bound { "ok  " } else { "FAIL" },
        100.0 * (second - first) / if first == 0.0 { 1.0 } else { first.abs() },
        100.0 * bound
    ))
}

fn layer_of(def: &MetricDef) -> &'static str {
    match def.class {
        Class::Gated(_) | Class::EndToEnd => "end to end",
        Class::Layer => def.name.split('.').next().expect("split yields one item"),
    }
}

/// The printed block of one workload: every metric it has, by name, with
/// unit (and base, for ratios), grouped by layer, then the budget.
fn render(r: &WorkloadResult, seed: u64, cpu: usize) -> String {
    let mut text = format!("\n== {} (seed {seed}, pinned to cpu {cpu}", r.name);
    if let Some((reps, pct)) = r.reps {
        text.push_str(&format!(", n = {reps} timed repetitions, tail = p{pct:.1}"));
    }
    text.push_str(") ==\n");
    let mut layer = "";
    for def in catalogue::METRICS {
        if r.metrics.get(def.name).is_none() {
            continue;
        }
        if layer_of(def) != layer {
            layer = layer_of(def);
            text.push_str(&format!("  [{layer}]\n"));
        }
        text.push_str(&format!("    {}\n", r.metrics.line(def.name)));
    }
    if let Some(rows) = r.budget.as_ref().and_then(Json::as_obj) {
        text.push_str("  [layer budget, host ms]\n");
        for (key, value) in rows {
            match value {
                Json::Num(v) => text.push_str(&format!("    {key:<28} {v:>18.3} ms\n")),
                Json::Str(s) => text.push_str(&format!("    ({s})\n")),
                _ => {}
            }
        }
    }
    for failure in &r.failures {
        text.push_str(&format!("  FAILED {failure}\n"));
    }
    text
}

fn result_json(r: &WorkloadResult) -> Json {
    let metrics = catalogue::METRICS
        .iter()
        .filter_map(|def| {
            let value = r.metrics.get(def.name)?;
            let mut fields = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), def.unit.into()),
            ];
            if let Some(base) = r.metrics.base(def.name) {
                fields.push(("base".to_string(), base.into()));
            }
            Some((def.name.to_string(), Json::Obj(fields)))
        })
        .collect();
    let mut fields = vec![
        ("correct".to_string(), r.correct().into()),
        ("attempted".to_string(), r.attempted.into()),
        ("failed".to_string(), r.failures.len().into()),
        ("failures".to_string(), r.failures.clone().into()),
    ];
    if let Some((reps, pct)) = r.reps {
        fields.push(("reps".to_string(), reps.into()));
        fields.push(("tail_percentile".to_string(), pct.into()));
    }
    if let Some(samples) = &r.samples {
        fields.push(("host_wall_samples_ms".to_string(), samples.clone()));
    }
    fields.push(("metrics".to_string(), Json::Obj(metrics)));
    if let Some(budget) = &r.budget {
        fields.push(("budget".to_string(), budget.clone()));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        let mut metrics = Metrics::default();
        metrics.set("host_wall_ms", 301.123456789);
        metrics.set_ratio("core.retry_share", 3.0, 40.0, "retried ÷ all faults");
        metrics.set("sim.events", 20_017.0);
        WorkloadResult {
            name: "pingpong",
            metrics,
            attempted: 34,
            failures: vec!["rep 3: oracle: final cell: got 1, expected 2".to_string()],
            reps: Some((33, 69.7)),
            samples: Some(vec![301.0, 302.5].into()),
            budget: Some(obj([("host_wall_ms", 301.1.into()), ("how", "x".into())])),
            trace: None,
        }
    }

    #[test]
    fn written_results_read_back() {
        let doc = result_json(&sample());
        let back = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(back, doc);
        let wall = back.get("metrics").unwrap().get("host_wall_ms").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(301.123456789));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("ms"));
        let share = back
            .get("metrics")
            .unwrap()
            .get("core.retry_share")
            .unwrap();
        assert_eq!(
            share.get("base").unwrap().as_str(),
            Some("3 ÷ 40 retried ÷ all faults")
        );
        assert_eq!(back.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn child_results_are_absorbed_with_their_bases() {
        let child = obj([
            ("attempted", 8u64.into()),
            ("failures", Vec::<String>::new().into()),
            (
                "metrics",
                obj([
                    ("virt_time_ms", obj([("value", 27.5.into())])),
                    (
                        "virt_speedup",
                        obj([("value", 2.5.into()), ("base", "5 ÷ 2 ms".into())]),
                    ),
                ]),
            ),
        ]);
        let mut r = sample();
        r.absorb(&child).unwrap();
        assert_eq!(r.attempted, 42);
        assert_eq!(r.metrics.get("virt_time_ms"), Some(27.5));
        assert!(r.metrics.line("virt_speedup").contains("5 ÷ 2 ms"));
        let bad = obj([
            ("attempted", 1u64.into()),
            ("metrics", obj([("nope", Json::Null)])),
        ]);
        assert!(r.absorb(&bad).is_err());
    }

    #[test]
    fn rendering_names_every_metric_with_unit_and_base() {
        let text = render(&sample(), 42, 1);
        assert!(text.contains("n = 33 timed repetitions, tail = p69.7"));
        assert!(text.contains("[end to end]") && text.contains("[core]") && text.contains("[sim]"));
        assert!(text.contains("301.123456789 ms"));
        assert!(text.contains("share  (3 ÷ 40 retried ÷ all faults)"));
        assert!(text.contains("FAILED rep 3"));
    }

    #[test]
    fn repeat_comparison_uses_each_metrics_own_bound() {
        let wall = catalogue::metric("host_wall_ms").unwrap();
        assert!(compare(wall, 100.0, 119.0).unwrap().starts_with("ok"));
        assert!(compare(wall, 100.0, 121.0).unwrap().starts_with("FAIL"));
        assert!(compare(wall, 100.0, 79.0).unwrap().starts_with("FAIL"));
        let rss = catalogue::metric("peak_rss_mb").unwrap();
        assert!(compare(rss, 100.0, 114.0).unwrap().starts_with("ok"));
        assert!(compare(rss, 100.0, 116.0).unwrap().starts_with("FAIL"));
        let virt = catalogue::metric("virt_time_ms").unwrap();
        assert!(compare(virt, 27.5, 27.5).unwrap().starts_with("ok"));
        assert!(compare(virt, 27.5, 27.500001).unwrap().starts_with("FAIL"));
        let failed = catalogue::metric("failed_share").unwrap();
        assert!(compare(failed, 0.0, 0.0).unwrap().starts_with("ok"));
        assert!(compare(catalogue::metric("sim.handoff_ns").unwrap(), 1.0, 9.0).is_none());
    }
}
