//! Causal what-if attribution reports.
//!
//! Under deterministic simulation a Coz-style virtual speedup is exact:
//! perturb one cost-model component by a factor, rerun bit-reproducibly,
//! and the end-to-end delta *is* that component's causal contribution —
//! no sampling, no confidence intervals. `dex-check whatif` produces one
//! [`WhatIfEntry`] per (component, factor) experiment; this module owns
//! the report model, its versioned text codec, and the human rendering.
//!
//! ```text
//! # dex-whatif v1
//! # workload <escaped>
//! # baseline <ns>
//! <component>\t<factor>\t<perturbed_ns>
//! ```
//!
//! The header check, the line rules and the free-form field escaping are
//! [`dex_sim::codec`]'s. A component whose name starts with `#` stays a
//! row: its line holds a raw tab, which a meta line never does.
//! Factors encode via `f64`'s `Display` (shortest round-trip form), so
//! decoding reproduces the exact bits.

use std::fmt::Write as _;

use dex_sim::codec::{escape_field, Line, Reader};

/// Magic header identifying the what-if format.
pub const WHATIF_HEADER: &str = "# dex-whatif v1";

/// One causal experiment: one component scaled by one factor.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIfEntry {
    /// The perturbed component's registry name (e.g. `retry_backoff`,
    /// `net.verb_latency`).
    pub component: String,
    /// The cost scale applied (0.5 = twice as fast, 2.0 = twice as slow).
    pub factor: f64,
    /// End-to-end virtual time of the perturbed rerun, nanoseconds.
    pub perturbed_ns: u64,
}

impl WhatIfEntry {
    /// Signed end-to-end movement against `baseline_ns` (negative =
    /// the perturbation made the run faster).
    pub fn delta_ns(&self, baseline_ns: u64) -> i64 {
        self.perturbed_ns as i64 - baseline_ns as i64
    }

    /// The movement as a percentage of the baseline.
    pub fn delta_percent(&self, baseline_ns: u64) -> f64 {
        if baseline_ns == 0 {
            0.0
        } else {
            self.delta_ns(baseline_ns) as f64 * 100.0 / baseline_ns as f64
        }
    }
}

/// A ranked causal attribution report for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WhatIfReport {
    /// The workload the sweep ran (free-form label).
    pub workload: String,
    /// Unperturbed end-to-end virtual time, nanoseconds.
    pub baseline_ns: u64,
    /// One entry per experiment, in sweep order.
    pub entries: Vec<WhatIfEntry>,
}

impl WhatIfReport {
    /// Entries ranked by causal impact: largest absolute end-to-end
    /// movement first, name-ordered among ties (so zero-impact
    /// components sort deterministically at the bottom).
    pub fn ranked(&self) -> Vec<&WhatIfEntry> {
        let mut ranked: Vec<&WhatIfEntry> = self.entries.iter().collect();
        ranked.sort_by(|a, b| {
            b.delta_ns(self.baseline_ns)
                .abs()
                .cmp(&a.delta_ns(self.baseline_ns).abs())
                .then_with(|| a.component.cmp(&b.component))
                .then(
                    a.factor
                        .partial_cmp(&b.factor)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        ranked
    }
}

/// Serializes a report into the versioned text format.
pub fn encode_whatif(report: &WhatIfReport) -> String {
    let mut out = String::with_capacity(report.entries.len() * 32 + 96);
    out.push_str(WHATIF_HEADER);
    out.push_str("\n# workload ");
    escape_field(&mut out, &report.workload);
    let _ = writeln!(out, "\n# baseline {}", report.baseline_ns);
    for e in &report.entries {
        escape_field(&mut out, &e.component);
        let _ = writeln!(out, "\t{}\t{}", e.factor, e.perturbed_ns);
    }
    out
}

/// Parses the text format produced by [`encode_whatif`].
pub fn decode_whatif(text: &str) -> Result<WhatIfReport, String> {
    let mut lines = Reader::tabs(text).header(WHATIF_HEADER, "what-if")?;
    let mut report = WhatIfReport {
        workload: String::new(),
        baseline_ns: 0,
        entries: Vec::new(),
    };
    while let Some(line) = lines.next_line() {
        let row = match line {
            Line::Meta(meta) => {
                if let Some(v) = meta.value("workload") {
                    report.workload = v.text("workload")?.into_owned();
                } else if let Some(v) = meta.value("baseline") {
                    report.baseline_ns = v.parse("baseline")?;
                }
                continue;
            }
            Line::Row(row) => row,
        };
        row.expect(3)?;
        let factor: f64 = row.get(1).parse("factor")?;
        if !factor.is_finite() || factor <= 0.0 {
            return Err(row.err(format_args!(
                "factor must be finite and positive, got {factor}"
            )));
        }
        report.entries.push(WhatIfEntry {
            component: row.get(0).text("component")?.into_owned(),
            factor,
            perturbed_ns: row.get(2).parse("perturbed time")?,
        });
    }
    Ok(report)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders the ranked human table: one row per experiment, largest causal
/// impact first, with the signed end-to-end movement each perturbation
/// produced.
pub fn render_whatif(report: &WhatIfReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== DEX what-if causal profile: {} ===",
        report.workload
    );
    let _ = writeln!(out, "baseline end-to-end: {:.1} us", us(report.baseline_ns));
    let _ = writeln!(
        out,
        "{} experiment(s), exact virtual speedups (deterministic rerun per perturbation)\n",
        report.entries.len()
    );
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>14} {:>12}",
        "component", "factor", "end-to-end", "delta"
    );
    for e in report.ranked() {
        let _ = writeln!(
            out,
            "{:<26} {:>6.2}x {:>11.1} us {:>+11.1}%",
            e.component,
            e.factor,
            us(e.perturbed_ns),
            e.delta_percent(report.baseline_ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WhatIfReport {
        WhatIfReport {
            workload: "pingpong".into(),
            baseline_ns: 1_000_000,
            entries: vec![
                WhatIfEntry {
                    component: "retry_backoff".into(),
                    factor: 0.5,
                    perturbed_ns: 690_000,
                },
                WhatIfEntry {
                    component: "thread_fork".into(),
                    factor: 0.5,
                    perturbed_ns: 996_000,
                },
                WhatIfEntry {
                    component: "backward_update".into(),
                    factor: 0.5,
                    perturbed_ns: 1_000_000,
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let report = sample();
        let decoded = decode_whatif(&encode_whatif(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn ranking_is_by_absolute_impact_then_name() {
        let report = sample();
        let ranked = report.ranked();
        assert_eq!(ranked[0].component, "retry_backoff");
        assert_eq!(ranked[1].component, "thread_fork");
        assert_eq!(ranked[2].component, "backward_update");
        // A slowdown ranks by magnitude too.
        let mut report = sample();
        report.entries.push(WhatIfEntry {
            component: "protocol_handling".into(),
            factor: 2.0,
            perturbed_ns: 1_500_000,
        });
        assert_eq!(report.ranked()[0].component, "protocol_handling");
    }

    #[test]
    fn delta_math_is_signed_and_percentual() {
        let report = sample();
        let e = &report.entries[0];
        assert_eq!(e.delta_ns(report.baseline_ns), -310_000);
        assert!((e.delta_percent(report.baseline_ns) + 31.0).abs() < 1e-9);
        assert_eq!(e.delta_percent(0), 0.0);
    }

    #[test]
    fn rejects_bad_header_and_malformed_lines() {
        assert!(decode_whatif("").is_err());
        assert!(decode_whatif("# dex-spans v2\n").is_err());
        let short = format!("{WHATIF_HEADER}\nretry_backoff\t0.5\n");
        assert!(decode_whatif(&short).is_err());
        let bad_factor = format!("{WHATIF_HEADER}\nretry_backoff\tzap\t10\n");
        assert!(decode_whatif(&bad_factor).is_err());
        let neg_factor = format!("{WHATIF_HEADER}\nretry_backoff\t-1\t10\n");
        assert!(decode_whatif(&neg_factor).is_err());
    }

    #[test]
    fn empty_report_round_trips_with_workload() {
        let report = WhatIfReport {
            workload: "shard smoke".into(),
            baseline_ns: 42,
            entries: vec![],
        };
        let decoded = decode_whatif(&encode_whatif(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn factors_round_trip_exactly() {
        // f64 Display is shortest-round-trip: the decoded factor must be
        // bit-identical, including awkward ones.
        for f in [0.1, 1.0 / 3.0, 0.875, 1e-9, 123456.789] {
            let report = WhatIfReport {
                workload: "w".into(),
                baseline_ns: 1,
                entries: vec![WhatIfEntry {
                    component: "c".into(),
                    factor: f,
                    perturbed_ns: 1,
                }],
            };
            let decoded = decode_whatif(&encode_whatif(&report)).unwrap();
            assert_eq!(decoded.entries[0].factor.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn render_shows_ranked_rows() {
        let text = render_whatif(&sample());
        assert!(text.contains("pingpong"));
        assert!(text.contains("baseline end-to-end: 1000.0 us"));
        let retry = text.find("retry_backoff").unwrap();
        let fork = text.find("thread_fork").unwrap();
        assert!(retry < fork, "dominant component renders first:\n{text}");
        assert!(text.contains("-31.0%"), "{text}");
    }
}
