//! What runs inside one pinned child process: a phase of one workload.
//!
//! The child pins itself before any other thread exists, generates the
//! inputs, runs one untimed warm-up repetition, and announces `ready` on
//! its standard output (the parent times process start to this line: the
//! set-up time). What follows depends on the phase; the last line printed
//! is the phase's result as one JSON object.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::json::{obj, Json};
use crate::probes::{LayerProbe, PASS_SPAN};
use crate::spans::HostRecorder;
use crate::stats;
use crate::sys::{self, Usage};
use crate::values::Metrics;
use crate::workloads::{self, Kmn, Observe, RepOutput, Workload};

/// What a child does after set-up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Nothing: exit once ready (a set-up time sample).
    Setup,
    /// Untraced timed repetitions for `seconds`: the end-to-end metrics.
    Measure,
    /// A few untraced and traced repetitions and the layer probes: the
    /// per-layer metrics and the trace.
    Trace,
    /// Untraced repetitions without pinning, for `sim.unpinned_ratio`.
    Unpinned,
}

impl Phase {
    /// The command-line word.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Measure => "measure",
            Phase::Trace => "trace",
            Phase::Unpinned => "unpinned",
        }
    }

    /// Parses the command-line word.
    pub fn parse(word: &str) -> Option<Phase> {
        [Phase::Setup, Phase::Measure, Phase::Trace, Phase::Unpinned]
            .into_iter()
            .find(|p| p.as_str() == word)
    }
}

/// Fewest timed repetitions of a measure phase, however short `seconds`.
pub const MIN_REPS: usize = 21;
/// Untraced repetitions of a trace phase (the base of the overhead ratio
/// and of the per-event host costs).
const TRACE_UNTRACED_REPS: usize = 7;
/// Traced repetitions of a trace phase.
const TRACED_REPS: usize = 5;
/// Probe passes of a trace phase (unit costs for the layer budget).
const PROBE_PASSES: usize = 3;
/// Repetitions of an unpinned phase.
const UNPINNED_REPS: usize = 5;

/// The line a child prints once set-up is complete.
pub const READY_LINE: &str = "{\"ready\":true}";

/// Runs repetitions, counting failures and holding every exact result to
/// the value it had the first time it was reported.
struct Runner<'a> {
    workload: &'a dyn Workload,
    rec: HostRecorder,
    attempted: u64,
    failures: Vec<String>,
    /// Every exact result reported so far, under whatever observation. A
    /// traced or recorded repetition reports more names than a plain one;
    /// the names they share must agree — observing must not perturb.
    exact: Metrics,
}

impl<'a> Runner<'a> {
    fn new(workload: &'a dyn Workload) -> Self {
        Runner {
            workload,
            rec: HostRecorder::new(),
            attempted: 0,
            failures: Vec::new(),
            exact: Metrics::default(),
        }
    }

    /// Runs one repetition; `None` (and a recorded failure) if it
    /// panicked, failed its oracle, or disagreed with an earlier one.
    fn rep(&mut self, observe: Observe) -> Option<RepOutput> {
        self.attempted += 1;
        let rep_id = self.attempted;
        self.rec.set_rep(rep_id);
        let workload = self.workload;
        let rec = &mut self.rec;
        let span = match observe {
            Observe::Off => "rep",
            Observe::Traced => "rep.traced",
            Observe::Recorded => "rep.recorded",
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            rec.span(span, |rec| workload.rep(observe, rec))
        }));
        let out = match result {
            Ok(out) => out,
            Err(panic) => {
                self.rec.close_all();
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.failures.push(format!("rep {rep_id}: panicked: {msg}"));
                return None;
            }
        };
        if let Err(e) = &out.oracle {
            self.failures.push(format!("rep {rep_id}: oracle: {e}"));
            return None;
        }
        let differing = out.exact.conflicts(&self.exact);
        if !differing.is_empty() {
            self.failures.push(format!(
                "rep {rep_id} ({span}): not deterministic: {} differ from an earlier repetition",
                differing.join(", ")
            ));
            return None;
        }
        self.exact.merge(&out.exact);
        Some(out)
    }

    /// Runs repetitions until `done(successes so far)`; returns the
    /// successful outputs.
    fn reps(&mut self, observe: Observe, mut done: impl FnMut(usize) -> bool) -> Vec<RepOutput> {
        let mut outs = Vec::new();
        // Bounded so that a workload that always fails ends the phase.
        while !done(outs.len()) && self.failures.len() < MIN_REPS {
            outs.extend(self.rep(observe));
        }
        outs
    }
}

/// `total ÷ count`, or zero when nothing was counted.
fn per(total: f64, count: f64) -> f64 {
    if count == 0.0 {
        0.0
    } else {
        total / count
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn host_ms(outs: &[RepOutput]) -> Vec<f64> {
    outs.iter().map(|o| ms(o.host_ns as f64)).collect()
}

/// Medians, metric by metric, of host-clock numbers sampled several times.
fn medians(samples: &[&Metrics]) -> Metrics {
    let mut medians = Metrics::default();
    let Some(first) = samples.first() else {
        return medians;
    };
    for (name, _) in first.iter() {
        let values: Vec<f64> = samples.iter().filter_map(|m| m.get(name)).collect();
        medians.set(name, stats::median(&values));
    }
    medians
}

/// The end-to-end metrics of a set of untraced repetitions.
fn end_to_end(exact: &Metrics, wall_ms: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    let median = stats::median(wall_ms);
    m.set("host_wall_ms", median);
    m.set("host_wall_tail_ms", stats::tail(wall_ms).0);
    m.set_ratio(
        "sim_msgs_per_host_s",
        exact
            .get("net.msgs")
            .expect("every workload sends messages"),
        median / 1e3,
        "simulated messages ÷ host s",
    );
    for def in crate::catalogue::METRICS {
        if def.class != crate::catalogue::Class::Layer {
            m.copy_from(exact, def.name);
        }
    }
    m
}

/// The layer budget of one workload: host milliseconds per layer, summing
/// to `host_wall_ms` (the remainder is attributed to `core`).
fn budget(metrics: &Metrics, apps_ms: f64) -> Json {
    let get = |name: &str| metrics.get(name).unwrap_or(0.0);
    let wall = get("host_wall_ms");
    let handoff = get("sim.handoff_ns");
    let sim = get("sim.events") * handoff / 1e6;
    // A message's host cost beyond the engine hand-offs it causes, which
    // the sim row already holds.
    let ctrl = get("net.ctrl_msg_ns") - get("net.ctrl_events_per_msg") * handoff;
    let page = get("net.page_msg_ns") - get("net.page_events_per_msg") * handoff;
    let net = (get("net.msgs") * ctrl + get("net.pages") * (page - ctrl)) / 1e6;
    obj([
        ("host_wall_ms", wall.into()),
        ("sim_ms", sim.into()),
        ("net_ms", net.into()),
        ("apps_ms", apps_ms.into()),
        ("core_remainder_ms", (wall - sim - net - apps_ms).into()),
        ("how", BUDGET_HOW.into()),
    ])
}

const BUDGET_HOW: &str = "host_wall_ms is this trace phase's own untraced median; sim = sim.events x sim.handoff_ns; net = net.msgs x c + net.pages x (p - c), \
     where c = net.ctrl_msg_ns - net.ctrl_events_per_msg x sim.handoff_ns and p likewise for pages \
     (a message's cost beyond its hand-offs); apps = apps.reference_ms (kmn only); core = host_wall_ms - the rest";

/// The budget of a workload whose repetitions are probe passes: the pass
/// that took `pass_ns` (the median one), split by the crate prefix of its
/// probe spans; the rows sum to it.
fn probe_budget(rec: &HostRecorder, pass_ns: u64) -> Json {
    let spans = rec.spans();
    let width = |s: &crate::spans::HostSpan| s.at.end - s.at.start;
    let pass = spans
        .iter()
        .find(|s| s.name == PASS_SPAN && width(s) == pass_ns)
        .expect("the median repetition recorded its pass span");
    let median_wall_ms = ms(pass_ns as f64);
    let mut rows: Vec<(String, f64)> = Vec::new();
    for child in spans.iter().filter(|s| s.at.parent == pass.at.id) {
        // The embedded ping-pong's spans carry no crate prefix: it is a
        // whole-cluster run, so it counts as `core`.
        let layer = child
            .name
            .split_once('.')
            .map_or("core", |(layer, _)| layer);
        let key = format!("{layer}_ms");
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some(row) => row.1 += ms(width(child) as f64),
            None => rows.push((key, ms(width(child) as f64))),
        }
    }
    let covered: f64 = rows.iter().map(|(_, v)| v).sum();
    let mut fields = vec![("host_wall_ms".to_string(), median_wall_ms.into())];
    fields.extend(rows.into_iter().map(|(k, v)| (k, v.into())));
    fields.push((
        "between_probes_ms".to_string(),
        (median_wall_ms - covered).into(),
    ));
    fields.push((
        "how".to_string(),
        "host time of the probe spans of the median repetition, by crate prefix".into(),
    ));
    Json::Obj(fields)
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.iter()
            .map(|(name, value)| {
                let mut fields = vec![("value".to_string(), Json::Num(value))];
                if let Some(base) = m.base(name) {
                    fields.push(("base".to_string(), base.into()));
                }
                (name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Runs `phase` of `workload` in this process and prints its result.
/// Returns the process exit code.
pub fn run(phase: Phase, name: &str, seed: u64, seconds: u64, cpu: Option<usize>) -> i32 {
    match run_phase(phase, name, seed, seconds, cpu) {
        Ok(result) => {
            if phase != Phase::Setup {
                println!("{}", result.render());
            }
            0
        }
        Err(e) => {
            eprintln!("dex-benchmark: {name}: {e}");
            3
        }
    }
}

/// A phase's named results plus whatever else it reports.
struct PhaseResult {
    metrics: Metrics,
    extra: Vec<(String, Json)>,
}

fn none_succeeded(runner: &Runner<'_>) -> String {
    format!("no repetition succeeded: {}", runner.failures.join("; "))
}

/// Untraced repetitions until `done`: the end-to-end metrics.
fn measure(
    runner: &mut Runner<'_>,
    done: impl FnMut(usize) -> bool,
) -> Result<PhaseResult, String> {
    let outs = runner.reps(Observe::Off, done);
    let wall = host_ms(&outs);
    if wall.is_empty() {
        return Err(none_succeeded(runner));
    }
    let exact = runner.exact.clone();
    runner.workload.validity(&exact)?;
    let mut metrics = end_to_end(&exact, &wall);
    metrics.set("peak_rss_mb", sys::peak_rss_kib()? as f64 / 1024.0);
    Ok(PhaseResult {
        metrics,
        extra: vec![
            ("reps".to_string(), wall.len().into()),
            ("tail_percentile".to_string(), stats::tail(&wall).1.into()),
            ("host_wall_samples_ms".to_string(), wall.into()),
        ],
    })
}

/// A few untraced and traced repetitions, the layer probes and (on `kmn`)
/// the baseline: the per-layer metrics, the budget and the trace.
fn trace(runner: &mut Runner<'_>, name: &str, seed: u64) -> Result<PhaseResult, String> {
    let before = Usage::now();
    let untraced = runner.reps(Observe::Off, |n| n >= TRACE_UNTRACED_REPS);
    let usage = Usage::now().since(&before);
    let traced = runner.reps(Observe::Traced, |n| n >= TRACED_REPS);
    // One repetition with the schedule log on, to count engine events.
    let recorded = runner.reps(Observe::Recorded, |n| n >= 1);
    if untraced.is_empty() || traced.is_empty() || recorded.is_empty() {
        return Err(none_succeeded(runner));
    }
    let exact = runner.exact.clone();
    runner.workload.validity(&exact)?;

    let wall = host_ms(&untraced);
    let traced_wall = host_ms(&traced);
    let mut metrics = end_to_end(&exact, &wall);
    metrics.merge(&exact);
    let median_ms = stats::median(&wall);
    let events = exact.get("sim.events").unwrap_or(0.0);
    metrics.set("sim.host_ns_per_event", per(median_ms * 1e6, events));
    metrics.set_ratio(
        "sim.vcsw_per_event",
        usage.vcsw as f64,
        events * untraced.len() as f64,
        "voluntary context switches ÷ events, untraced repetitions",
    );
    metrics.set_ratio(
        "sim.sys_share",
        usage.sys_s,
        usage.user_s + usage.sys_s,
        "system ÷ total CPU s, untraced repetitions",
    );
    for (metric, count) in [
        ("core.host_us_per_fault", "core.faults"),
        ("core.host_us_per_migration", "core.migrations"),
    ] {
        metrics.set(
            metric,
            per(median_ms * 1e3, exact.get(count).unwrap_or(0.0)),
        );
    }
    metrics.set_ratio(
        "core.span_overhead_ratio",
        stats::median(&traced_wall),
        median_ms,
        "traced ÷ untraced median host ms",
    );

    // Unit costs of every layer, measured here and now: by the repetitions
    // themselves if they are probe passes, else by a few passes run now.
    let own_probes: Vec<&Metrics> = untraced
        .iter()
        .map(|o| &o.host)
        .filter(|h| !h.is_empty())
        .collect();
    let probe_host = if !own_probes.is_empty() {
        medians(&own_probes)
    } else {
        let probe = LayerProbe::new(&mut dex_sim::SimRng::new(seed));
        let mut hosts = Vec::new();
        for _ in 0..PROBE_PASSES {
            let (host, exact, oracle) = runner
                .rec
                .span("probe_pass", |rec| probe.pass(Observe::Traced, rec));
            oracle.map_err(|e| format!("probe pass: {e}"))?;
            for name in [
                "net.ctrl_virt_us",
                "net.page_virt_us",
                "net.ctrl_events_per_msg",
                "net.page_events_per_msg",
            ] {
                metrics.copy_from(&exact, name);
            }
            hosts.push(host);
        }
        medians(&hosts.iter().collect::<Vec<_>>())
    };
    metrics.merge(&probe_host);

    // The apps crate's unit costs: the k-means arithmetic with no simulator,
    // and the single-node baseline the application's speed-up is against.
    let (base_host_ms, base_virt_ms, reference_ms) =
        runner.rec.span("apps.baseline", |_| Kmn::baseline(seed))?;
    metrics.set("apps.baseline_host_ms", base_host_ms);
    metrics.set("apps.baseline_virt_ms", base_virt_ms);
    metrics.set("apps.reference_ms", reference_ms);
    if name == "kmn" {
        metrics.set_ratio(
            "virt_speedup",
            base_virt_ms,
            exact.get("virt_time_ms").expect("every run has a makespan"),
            "baseline 1-node ÷ optimized 4-node virtual ms",
        );
        metrics.set_ratio(
            "apps.host_share",
            reference_ms,
            median_ms,
            "bare arithmetic ÷ simulated run, host ms",
        );
    }

    let budget = if own_probes.is_empty() {
        // Only `kmn` runs the application's arithmetic in its repetitions.
        budget(&metrics, if name == "kmn" { reference_ms } else { 0.0 })
    } else {
        let mut by_time: Vec<u64> = untraced.iter().map(|o| o.host_ns).collect();
        by_time.sort_unstable();
        probe_budget(&runner.rec, by_time[by_time.len() / 2])
    };
    let trace = obj([
        ("workload", name.into()),
        ("seed", seed.into()),
        ("host_wall_samples_ms", wall.into()),
        ("traced_host_wall_samples_ms", traced_wall.into()),
        ("budget", budget),
        ("metrics", metrics_json(&metrics)),
        ("host_spans", runner.rec.to_json()),
    ]);
    Ok(PhaseResult {
        metrics,
        extra: vec![("trace".to_string(), trace)],
    })
}

fn run_phase(
    phase: Phase,
    name: &str,
    seed: u64,
    seconds: u64,
    cpu: Option<usize>,
) -> Result<Json, String> {
    match (phase, cpu) {
        (Phase::Unpinned, _) => {}
        (_, Some(cpu)) => sys::pin_to(cpu)?,
        (_, None) => return Err("refusing to measure unpinned: no --cpu given".to_string()),
    }
    let workload = workloads::prepare(name, seed).ok_or("unknown workload")?;
    let mut runner = Runner::new(workload.as_ref());
    // Warm-up: first-use initialisation happens here, not in a timed rep.
    runner.rep(Observe::Off);
    println!("{READY_LINE}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;

    let result = match phase {
        Phase::Setup => PhaseResult {
            metrics: Metrics::default(),
            extra: Vec::new(),
        },
        Phase::Measure => {
            let deadline = Instant::now() + Duration::from_secs(seconds);
            measure(&mut runner, |n| n >= MIN_REPS && Instant::now() >= deadline)?
        }
        Phase::Unpinned => measure(&mut runner, |n| n >= UNPINNED_REPS)?,
        Phase::Trace => trace(&mut runner, name, seed)?,
    };

    let mut fields = vec![
        ("phase".to_string(), phase.as_str().into()),
        ("workload".to_string(), name.into()),
        ("seed".to_string(), seed.into()),
        ("pinned_cpu".to_string(), cpu.map_or(Json::Null, Into::into)),
        ("attempted".to_string(), runner.attempted.into()),
        ("failed".to_string(), runner.failures.len().into()),
        ("failures".to_string(), runner.failures.clone().into()),
        ("metrics".to_string(), metrics_json(&result.metrics)),
    ];
    fields.extend(result.extra);
    Ok(Json::Obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A workload that misbehaves on chosen repetitions.
    #[derive(Default)]
    struct Scripted {
        calls: Cell<u64>,
        bad_oracle_on: u64,
        panic_on: u64,
        drift_on: u64,
        always_wrong: bool,
        invalid: bool,
    }

    impl Workload for Scripted {
        fn rep(&self, _observe: Observe, rec: &mut HostRecorder) -> RepOutput {
            let call = self.calls.get() + 1;
            self.calls.set(call);
            rec.span("simulate", |_| {
                assert!(call != self.panic_on, "simulated deadlock");
            });
            let mut exact = Metrics::default();
            exact.set(
                "virt_time_ms",
                if call == self.drift_on { 2.0 } else { 1.0 },
            );
            exact.set("net.msgs", 10.0);
            RepOutput {
                host_ns: 1_000_000 + call,
                exact,
                host: Metrics::default(),
                oracle: if self.always_wrong || call == self.bad_oracle_on {
                    Err("final cell: got 1, expected 2".to_string())
                } else {
                    Ok(())
                },
            }
        }

        fn validity(&self, _exact: &Metrics) -> Result<(), String> {
            if self.invalid {
                Err("core.retry_share = 0.01 < 0.05: writers no longer collide".to_string())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn oracle_panic_and_nondeterminism_count_as_failures() {
        let workload = Scripted {
            bad_oracle_on: 2,
            panic_on: 4,
            drift_on: 6,
            ..Scripted::default()
        };
        let mut runner = Runner::new(&workload);
        let result = measure(&mut runner, |n| n >= 5).expect("five repetitions succeed");
        assert_eq!(runner.attempted, 8);
        assert_eq!(runner.failures.len(), 3);
        assert!(runner.failures[0].contains("rep 2: oracle"));
        assert!(runner.failures[1].contains("rep 4: panicked: simulated deadlock"));
        assert!(runner.failures[2].contains("rep 6 (rep): not deterministic: virt_time_ms"));
        assert_eq!(result.metrics.get("virt_time_ms"), Some(1.0));
        // The panic unwound through open spans; the recorder recovered.
        assert!(runner.rec.last_ns("rep").is_some());
    }

    #[test]
    fn a_workload_that_always_fails_ends_the_phase_with_an_error() {
        let workload = Scripted {
            always_wrong: true,
            ..Scripted::default()
        };
        let mut runner = Runner::new(&workload);
        let err = measure(&mut runner, |n| n >= 5).err().expect("phase fails");
        assert!(err.contains("no repetition succeeded"), "{err}");
        assert_eq!(runner.failures.len(), MIN_REPS);
    }

    #[test]
    fn a_failed_validity_check_aborts_instead_of_reporting() {
        let workload = Scripted {
            invalid: true,
            ..Scripted::default()
        };
        let mut runner = Runner::new(&workload);
        let err = measure(&mut runner, |n| n >= 3).err().expect("aborts");
        assert!(err.contains("writers no longer collide"), "{err}");
    }

    #[test]
    fn medians_are_taken_metric_by_metric() {
        let sample = |a: f64, b: f64| {
            let mut m = Metrics::default();
            m.set("sim.handoff_ns", a);
            m.set("os.radix_get_ns", b);
            m
        };
        let (x, y, z) = (sample(3.0, 10.0), sample(1.0, 30.0), sample(2.0, 20.0));
        let m = medians(&[&x, &y, &z]);
        assert_eq!(m.get("sim.handoff_ns"), Some(2.0));
        assert_eq!(m.get("os.radix_get_ns"), Some(20.0));
    }

    #[test]
    fn budget_rows_sum_to_the_wall_time() {
        let mut m = Metrics::default();
        m.set("host_wall_ms", 480.0);
        m.set("sim.events", 96_497.0);
        m.set("sim.handoff_ns", 4_500.0);
        m.set("net.msgs", 12_238.0);
        m.set("net.pages", 6_117.0);
        m.set("net.ctrl_msg_ns", 20_000.0);
        m.set("net.page_msg_ns", 26_000.0);
        m.set_ratio("net.ctrl_events_per_msg", 6_002.0, 1_500.0, "events ÷ msgs");
        m.set_ratio("net.page_events_per_msg", 2_146.0, 400.0, "events ÷ msgs");
        let b = budget(&m, 0.0);
        let row = |k: &str| b.get(k).and_then(Json::as_f64).unwrap();
        let sum = row("sim_ms") + row("net_ms") + row("apps_ms") + row("core_remainder_ms");
        assert!((sum - row("host_wall_ms")).abs() < 1e-9);
        assert!((row("sim_ms") - 96_497.0 * 4_500.0 / 1e6).abs() < 1e-9);
        // A message's cost beyond the hand-offs it causes.
        let c = 20_000.0 - 6_002.0 / 1_500.0 * 4_500.0;
        let p = 26_000.0 - 2_146.0 / 400.0 * 4_500.0;
        assert!((row("net_ms") - (12_238.0 * c + 6_117.0 * (p - c)) / 1e6).abs() < 1e-9);
    }
}
