//! The perf-regression gate behind `dex-check perf`.
//!
//! Every bench binary writes a `BENCH_<name>.json` result in the
//! [`BenchResult`] schema; this module diffs a directory of fresh
//! results against the committed baselines. The simulator is
//! deterministic, so every numeric field must match its baseline
//! exactly: any drift is a perf regression (or an improvement worth
//! re-baselining with `dex-check perf --update`).
//!
//! The gate must be falsifiable: [`self_test`] takes each baseline,
//! changes each field by one unit in each direction, and verifies the
//! comparison fails — run as part of `dex-check all` so CI proves the
//! gate has teeth on every commit.

use std::collections::BTreeMap;
use std::path::Path;

use dex_bench::BenchResult;

/// One field that differs from its baseline.
#[derive(Clone, Debug)]
pub struct PerfViolation {
    /// The bench the field belongs to.
    pub bench: String,
    /// Field label (`virtual_time_ns`, `extra.runs`, ...).
    pub field: String,
    /// Committed baseline value (`None`: the field is new).
    pub baseline: Option<u64>,
    /// Fresh value (`None`: the field disappeared).
    pub current: Option<u64>,
}

impl std::fmt::Display for PerfViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => {
                let pct = if b > 0 {
                    format!(" ({:+.1}%)", 100.0 * (c as f64 - b as f64) / b as f64)
                } else {
                    String::new()
                };
                write!(
                    f,
                    "{}: {} drifted: baseline {b}, got {c}{pct}",
                    self.bench, self.field
                )
            }
            (Some(b), None) => write!(
                f,
                "{}: {} (baseline {b}) missing from the fresh result",
                self.bench, self.field
            ),
            (None, Some(c)) => write!(
                f,
                "{}: new field {} = {c} not in the baseline (re-baseline with --update)",
                self.bench, self.field
            ),
            (None, None) => write!(f, "{}: {} missing on both sides", self.bench, self.field),
        }
    }
}

type Fields = BTreeMap<String, u64>;

fn fields(result: &BenchResult) -> Fields {
    result.numeric_fields().into_iter().collect()
}

/// Every field of `cur` that differs from, or is missing in, `base`.
fn diff_fields(bench: &str, base: &Fields, cur: &Fields) -> Vec<PerfViolation> {
    let violation = |field: &String, baseline: Option<u64>, current: Option<u64>| PerfViolation {
        bench: bench.to_string(),
        field: field.clone(),
        baseline,
        current,
    };
    let mut violations: Vec<PerfViolation> = base
        .iter()
        .filter(|&(field, b)| cur.get(field) != Some(b))
        .map(|(field, b)| violation(field, Some(*b), cur.get(field).copied()))
        .collect();
    violations.extend(
        cur.iter()
            .filter(|&(field, _)| !base.contains_key(field))
            .map(|(field, c)| violation(field, None, Some(*c))),
    );
    violations
}

/// Compares one fresh result against its baseline. Returns every field
/// that is not exactly equal (empty = identical).
pub fn compare_results(baseline: &BenchResult, current: &BenchResult) -> Vec<PerfViolation> {
    diff_fields(&baseline.name, &fields(baseline), &fields(current))
}

/// Loads every `BENCH_*.json` in `dir`, keyed by bench name.
pub fn load_results(dir: &Path) -> Result<BTreeMap<String, BenchResult>, String> {
    let mut results = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let path = entry.path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result =
            BenchResult::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        results.insert(result.name.clone(), result);
    }
    Ok(results)
}

/// Diffs a results directory against a baseline directory. Returns
/// `(status lines, violations)`; the gate passes when `violations` is
/// empty. Every baseline must have a fresh result and vice versa.
pub fn compare_dirs(
    baseline_dir: &Path,
    results_dir: &Path,
) -> Result<(Vec<String>, Vec<PerfViolation>), String> {
    let baselines = load_baselines(baseline_dir)?;
    let results = load_results(results_dir)?;
    let mut lines = Vec::new();
    let mut violations = Vec::new();
    for (name, baseline) in &baselines {
        match results.get(name) {
            None => {
                violations.push(PerfViolation {
                    bench: name.clone(),
                    field: "<result file>".to_string(),
                    baseline: Some(0),
                    current: None,
                });
                lines.push(format!("{name}: MISSING (no fresh BENCH_{name}.json)"));
            }
            Some(current) => {
                let v = compare_results(baseline, current);
                lines.push(format!(
                    "{name}: {} ({} fields checked, {} drifted)",
                    if v.is_empty() { "ok" } else { "FAIL" },
                    baseline.numeric_fields().len(),
                    v.len()
                ));
                violations.extend(v);
            }
        }
    }
    for name in results.keys() {
        if !baselines.contains_key(name) {
            violations.push(PerfViolation {
                bench: name.clone(),
                field: "<baseline file>".to_string(),
                baseline: None,
                current: Some(0),
            });
            lines.push(format!(
                "{name}: UNTRACKED (no committed baseline; add with --update)"
            ));
        }
    }
    Ok((lines, violations))
}

/// Loads the committed baselines; an empty directory is an error.
fn load_baselines(dir: &Path) -> Result<BTreeMap<String, BenchResult>, String> {
    let baselines = load_results(dir)?;
    if baselines.is_empty() {
        return Err(format!("no BENCH_*.json baselines in {}", dir.display()));
    }
    Ok(baselines)
}

/// Proves the gate has teeth: for every committed baseline, (a) the
/// baseline compared to itself passes, and (b) a change of one unit up
/// (and, above zero, down) in any single field fails. Returns the
/// per-bench status lines; errors if any seeded change slips through.
pub fn self_test(baseline_dir: &Path) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for (name, baseline) in &load_baselines(baseline_dir)? {
        if !compare_results(baseline, baseline).is_empty() {
            return Err(format!("{name}: baseline does not match itself"));
        }
        let base = fields(baseline);
        for (field, &value) in &base {
            for seeded in [value.checked_add(1), value.checked_sub(1)]
                .into_iter()
                .flatten()
            {
                let mut cur = base.clone();
                cur.insert(field.clone(), seeded);
                if diff_fields(name, &base, &cur).is_empty() {
                    return Err(format!(
                        "{name}: {field} {value} -> {seeded} passed the gate — it is toothless"
                    ));
                }
            }
        }
        lines.push(format!(
            "{name}: a ±1 change in any of {} fields caught",
            base.len()
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str) -> BenchResult {
        BenchResult {
            name: name.into(),
            virtual_time_ns: 1_000_000,
            read_faults: 100,
            write_faults: 200,
            retried_faults: 4,
            msgs_sent: 500,
            bytes_sent: 100_000,
            fault_p50_ns: 20_000,
            fault_p99_ns: 160_000,
            extra: [("rounds".to_string(), 50_u64)].into(),
        }
    }

    #[test]
    fn identical_results_pass() {
        let r = sample("x");
        assert!(compare_results(&r, &r).is_empty());
    }

    #[test]
    fn any_drift_fails_and_reports_its_percentage() {
        let base = sample("x");
        let mut near = base.clone();
        near.virtual_time_ns += 1;
        assert_eq!(compare_results(&base, &near).len(), 1);
        let mut far = base.clone();
        far.virtual_time_ns = 1_300_000;
        let v = compare_results(&base, &far);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].field, "virtual_time_ns");
        assert!(v[0].to_string().contains("+30.0%"), "{}", v[0]);
    }

    #[test]
    fn a_one_unit_drift_in_a_small_field_fails() {
        let mut base = sample("x");
        base.retried_faults = 2;
        for retried in [1, 3] {
            let mut cur = base.clone();
            cur.retried_faults = retried;
            assert_eq!(compare_results(&base, &cur).len(), 1);
        }
    }

    #[test]
    fn added_and_removed_extras_are_violations() {
        let base = sample("x");
        let mut cur = base.clone();
        cur.extra.remove("rounds");
        cur.extra.insert("new_thing".into(), 1);
        let v = compare_results(&base, &cur);
        assert_eq!(v.len(), 2);
        assert!(v
            .iter()
            .any(|v| v.field == "extra.rounds" && v.current.is_none()));
        assert!(v
            .iter()
            .any(|v| v.field == "extra.new_thing" && v.baseline.is_none()));
    }

    #[test]
    fn dir_comparison_and_self_test_round_trip() {
        let tmp = std::env::temp_dir().join(format!("dex-perf-test-{}", std::process::id()));
        let base_dir = tmp.join("baselines");
        let res_dir = tmp.join("results");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&res_dir).unwrap();
        let r = sample("table9");
        std::fs::write(base_dir.join(r.file_name()), r.to_json()).unwrap();
        std::fs::write(res_dir.join(r.file_name()), r.to_json()).unwrap();

        let (lines, violations) = compare_dirs(&base_dir, &res_dir).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(lines.len(), 1);

        // The self-test proves a seeded regression is caught.
        let lines = self_test(&base_dir).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("9 fields caught"), "{lines:?}");

        // A missing fresh result fails the gate.
        std::fs::remove_file(res_dir.join(r.file_name())).unwrap();
        let (_, violations) = compare_dirs(&base_dir, &res_dir).unwrap();
        assert_eq!(violations.len(), 1);

        // A run-less baseline (zero fields only move up) is covered too.
        let static_bench = BenchResult {
            name: "table9".into(),
            ..Default::default()
        }
        .with_extra("loc", 40);
        std::fs::write(
            base_dir.join(static_bench.file_name()),
            static_bench.to_json(),
        )
        .unwrap();
        let lines = self_test(&base_dir).unwrap();
        assert!(lines[0].contains("9 fields caught"), "{lines:?}");

        std::fs::remove_dir_all(&tmp).unwrap();
    }
}
