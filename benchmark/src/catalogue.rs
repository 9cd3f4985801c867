//! The frozen catalogue: every workload and every metric the benchmark
//! reports, with unit, direction and (for gated metrics) regression bound.
//! `BENCHMARK.json` at the repository root is generated from this table
//! (`--print-benchmark-json`) and a unit test keeps the two equal.

use crate::json::{obj, Json};

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric is reported.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Class {
    /// End-to-end on the host clock, defined and non-zero on every
    /// workload: gated by the driver with this bound (share of the
    /// parent's median).
    Gated(f64),
    /// End-to-end on the virtual clock (and the failure share). These
    /// repeat exactly, which a relative bound cannot say and which the
    /// driver's check for made-up timings would reject; some are absent or
    /// zero on some workload. `--check-repeat` compares them exactly.
    EndToEnd,
    /// A single layer's metric.
    Layer,
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`; layer metrics are prefixed by their crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Where it is reported.
    pub class: Class,
    /// Whether equal inputs must give exactly this value again (virtual
    /// time and counts): any difference between repetitions is a failure.
    pub exact: bool,
}

/// One workload of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// One line on why it was chosen.
    pub why: &'static str,
}

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// The workloads, in the order they run.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pingpong",
        why: "2 writers on 2 nodes shuttle one page (paper V-D): pure fast-fault path, engine hand-off and fabric dominate, zero retries",
    },
    WorkloadDef {
        name: "contended",
        why: "3 remote writers with seeded gaps collide on one page: conflicting transactions, Retry and back-off, the slow fault mode",
    },
    WorkloadDef {
        name: "readfan",
        why: "3 readers replicate 1024 pages, origin write sweep revokes them: read grants, 4 KiB payloads, invalidation fan-out, large radix/PTE set",
    },
    WorkloadDef {
        name: "migrate",
        why: "4 threads x 600 seeded migrate/migrate_back round trips, every 8th under a DexMutex: the migration path, which bypasses the fault path",
    },
    WorkloadDef {
        name: "kmn",
        why: "k-means application, 4 nodes x 8 threads, optimized variant (Fig. 2): what an application user sees; apps and thread spawn matter",
    },
    WorkloadDef {
        name: "layerprobe",
        why: "each crate's public functions called directly with nothing above them: a change to os, prof or Directory shows here first",
    },
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Gated(bound),
        exact: false,
    }
}

const fn e2e_exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::EndToEnd,
        exact: true,
    }
}

/// A layer metric measured on the host clock (noisy).
const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer,
        exact: false,
    }
}

/// A layer metric that is a count or a virtual time (repeats exactly).
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class: Class::Layer,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Every metric, in the order it is printed.
pub const METRICS: &[MetricDef] = &[
    // ---- end to end, gated ----
    gated("setup_s", "s", Lower, 0.25),
    gated("host_wall_ms", "ms", Lower, 0.20),
    gated("host_wall_tail_ms", "ms", Lower, 0.25),
    gated("sim_msgs_per_host_s", "1/s", Higher, 0.20),
    gated("peak_rss_mb", "MB", Lower, 0.15),
    // ---- end to end, compared exactly ----
    MetricDef {
        name: "failed_share",
        unit: "share",
        better: Lower,
        class: Class::EndToEnd,
        exact: false,
    },
    e2e_exact("virt_time_ms", "virt_ms", Lower),
    e2e_exact("virt_fault_p50_us", "virt_us", Lower),
    e2e_exact("virt_fault_mean_us", "virt_us", Lower),
    e2e_exact("virt_fault_tail_us", "virt_us", Lower),
    e2e_exact("virt_migrate_fwd_us", "virt_us", Lower),
    e2e_exact("virt_migrate_back_us", "virt_us", Lower),
    e2e_exact("virt_speedup", "x", Higher),
    e2e_exact("virt_ref_err_pct", "%", Lower),
    // ---- sim ----
    host("sim.handoff_ns", "ns", Lower),
    host("sim.handoff32_ns", "ns", Lower),
    host("sim.park_unpark_ns", "ns", Lower),
    host("sim.spawn_us", "us", Lower),
    exact("sim.events", "count", Lower),
    host("sim.host_ns_per_event", "ns", Lower),
    host("sim.vcsw_per_event", "1/event", Lower),
    host("sim.sys_share", "share", Lower),
    host("sim.unpinned_ratio", "x", Lower),
    // ---- net ----
    host("net.ctrl_msg_ns", "ns", Lower),
    host("net.page_msg_ns", "ns", Lower),
    exact("net.ctrl_virt_us", "virt_us", Lower),
    exact("net.page_virt_us", "virt_us", Lower),
    exact("net.ctrl_events_per_msg", "1/msg", Lower),
    exact("net.page_events_per_msg", "1/msg", Lower),
    exact("net.msgs", "count", Lower),
    exact("net.pages", "count", Lower),
    exact("net.bytes", "B", Lower),
    exact("net.pool_wait_virt_us", "virt_us", Lower),
    // ---- os ----
    host("os.radix_insert_ns", "ns", Lower),
    host("os.radix_get_ns", "ns", Lower),
    host("os.radix_remove_ns", "ns", Lower),
    host("os.pte_set_get_ns", "ns", Lower),
    host("os.futex_enqueue_wake_ns", "ns", Lower),
    // ---- core ----
    host("core.dir_read_grant_ns", "ns", Lower),
    host("core.dir_write_txn_ns", "ns", Lower),
    host("core.cluster_boot_ms", "ms", Lower),
    exact("core.faults", "count", Lower),
    exact("core.read_faults", "count", Lower),
    exact("core.write_faults", "count", Lower),
    exact("core.retried_faults", "count", Lower),
    exact("core.retry_share", "share", Lower),
    exact("core.coalesced_faults", "count", Higher),
    exact("core.invalidations", "count", Lower),
    exact("core.migrations", "count", Lower),
    exact("core.delegations", "count", Lower),
    exact("core.futex_waits", "count", Lower),
    exact("core.vma_syncs", "count", Lower),
    exact("core.dir_inline_grants", "count", Higher),
    exact("core.dir_transactions", "count", Lower),
    exact("core.dir_retries", "count", Lower),
    exact("core.dir_grant_ratio", "share", Higher),
    host("core.host_us_per_fault", "us", Lower),
    host("core.host_us_per_migration", "us", Lower),
    exact("core.virt_fault_self_us", "virt_us", Lower),
    exact("core.virt_fault_retry_us", "virt_us", Lower),
    exact("core.virt_follower_wait_us", "virt_us", Lower),
    exact("core.virt_directory_us", "virt_us", Lower),
    exact("core.virt_invalidation_us", "virt_us", Lower),
    exact("core.virt_page_fixup_us", "virt_us", Lower),
    exact("core.virt_migration_fwd_us", "virt_us", Lower),
    exact("core.virt_migration_back_us", "virt_us", Lower),
    exact("core.virt_delegation_us", "virt_us", Lower),
    exact("core.virt_futex_wait_us", "virt_us", Lower),
    exact("core.virt_vma_sync_us", "virt_us", Lower),
    exact("core.spans", "count", Lower),
    host("core.span_overhead_ratio", "x", Lower),
    // ---- apps ----
    host("apps.reference_ms", "ms", Lower),
    host("apps.baseline_host_ms", "ms", Lower),
    exact("apps.baseline_virt_ms", "virt_ms", Lower),
    host("apps.host_share", "share", Higher),
    // ---- prof ----
    host("prof.encode_ns_per_span", "ns", Lower),
    host("prof.decode_ns_per_span", "ns", Lower),
    host("prof.critical_path_ms", "ms", Lower),
];

/// Looks a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metrics the driver gates (`end_to_end` in `BENCHMARK.json`).
pub fn gated_metrics() -> impl Iterator<Item = (&'static MetricDef, f64)> {
    METRICS.iter().filter_map(|m| match m.class {
        Class::Gated(bound) => Some((m, bound)),
        _ => None,
    })
}

/// The metrics reported without a bound (`per_layer` in `BENCHMARK.json`).
pub fn ungated_metrics() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|m| !matches!(m.class, Class::Gated(_)))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    obj([
        ("command", vec!["bash", "benchmark/run.sh"].into()),
        ("paths", vec!["benchmark"].into()),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                gated_metrics()
                    .map(|(m, bound)| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                ungated_metrics()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in METRICS {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&gated_metrics().count()));
        assert!((1..=128).contains(&ungated_metrics().count()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn bounds_fit_the_contract() {
        for (m, bound) in gated_metrics() {
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let (setup, bound) = gated_metrics()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s is gated");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            gated_metrics().all(|(_, b)| b <= bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn layer_metrics_are_prefixed_by_their_crate() {
        for m in METRICS.iter().filter(|m| m.class == Class::Layer) {
            let prefix = m.name.split('.').next().unwrap();
            assert!(
                ["sim", "net", "os", "core", "apps", "prof"].contains(&prefix),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }
}
