//! The workloads: seeded inputs, one full simulation per repetition,
//! an oracle for the outputs, and extraction of every deterministic
//! result from the public report types.
//!
//! The load is closed-loop throughout: each simulated thread issues its
//! next operation when the previous one completes. Every repetition
//! builds a fresh `Cluster`, so simulated caches start cold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dex_apps::{reference_checksum, run_app_with_config, AppParams, Variant};
use dex_core::{Cluster, ClusterConfig, DexProcess, RunReport, Span, SpanKind, ThreadCtx};
use dex_sim::{ScheduleLog, SimDuration, SimRng};

use crate::spans::{self_times, HostRecorder, Interval};
use crate::stats;
use crate::values::Metrics;

/// What one repetition produced.
pub struct RepOutput {
    /// Host time of the full simulation (cluster build to report), ns.
    pub host_ns: u64,
    /// Results that must repeat exactly: virtual times and counts.
    pub exact: Metrics,
    /// Host-clock layer numbers measured inside the repetition (only
    /// `layerprobe` has any); the run reports their medians.
    pub host: Metrics,
    /// Whether the outputs were correct.
    pub oracle: Result<(), String>,
}

/// How much the program observes itself during a repetition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Observe {
    /// Nothing: the configuration that is timed.
    Off,
    /// Spans and the metrics registry (`with_spans().with_metrics()`).
    Traced,
    /// As `Traced`, plus the schedule log (`with_schedule_recording()`):
    /// it holds one step per engine event, the only public way to count
    /// them.
    Recorded,
}

/// A prepared workload: inputs generated, ready to repeat.
pub trait Workload {
    /// Runs one repetition under the given self-observation.
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput;

    /// A property the exact results must have for the workload to be the
    /// one the catalogue describes; failing it aborts the run.
    fn validity(&self, _exact: &Metrics) -> Result<(), String> {
        Ok(())
    }
}

/// Generates the inputs of workload `name` from `seed`.
pub fn prepare(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let mut rng = SimRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    Some(match name {
        "pingpong" => Box::new(PageBounce::pingpong(&mut rng)),
        "contended" => Box::new(PageBounce::contended(&mut rng)),
        "readfan" => Box::new(ReadFan::new(&mut rng)),
        "migrate" => Box::new(Migrate::new(&mut rng)),
        "kmn" => Box::new(Kmn::new(seed)),
        "layerprobe" => Box::new(crate::probes::LayerProbe::new(&mut rng)),
        _ => return None,
    })
}

/// Events after which a simulation counts as livelocked (the largest
/// workload uses well under a tenth of this).
const EVENT_BUDGET: u64 = 50_000_000;

/// The cluster configuration of one repetition.
pub fn cluster_config(nodes: usize, observe: Observe) -> ClusterConfig {
    let config = ClusterConfig::new(nodes).with_event_budget(EVENT_BUDGET);
    match observe {
        Observe::Off => config,
        Observe::Traced => config.with_spans().with_metrics(),
        Observe::Recorded => config.with_spans().with_metrics().with_schedule_recording(),
    }
}

/// Times `Cluster::run` under a host span; returns the report and the
/// host nanoseconds.
fn simulate(
    rec: &mut HostRecorder,
    config: ClusterConfig,
    setup: impl FnOnce(&DexProcess<'_>),
) -> (RunReport, u64) {
    let report = rec.span("simulate", |_| Cluster::new(config).run(setup));
    let host_ns = rec.last_ns("simulate").expect("span just closed");
    (report, host_ns)
}

/// Extracts a finished run's exact results under a host span and packs
/// the repetition's output.
fn finish(
    rec: &mut HostRecorder,
    report: &RunReport,
    host_ns: u64,
    reference: Reference,
    oracle: Result<(), String>,
) -> RepOutput {
    RepOutput {
        host_ns,
        exact: rec.span("extract", |_| extract(report, reference)),
        host: Metrics::default(),
        oracle,
    }
}

fn check(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Paper reference values (§V-D, Table II).
const PAPER_FAST_FAULT_US: f64 = 19.3;
const PAPER_SLOW_FAULT_US: f64 = 158.8;
const PAPER_REPEAT_MIGRATION_US: f64 = 236.6;
/// Faults at or above this latency are the slow (retry) mode.
const SLOW_MODE_NS: u64 = 60_000;

/// Which paper number a workload's virtual result is compared with.
#[derive(Clone, Copy)]
enum Reference {
    FastFault,
    SlowFault,
    RepeatMigration,
    None,
}

/// Every deterministic result of a run, from the public report.
fn extract(report: &RunReport, reference: Reference) -> Metrics {
    let mut m = Metrics::default();
    let s = &report.stats;
    m.set("virt_time_ms", report.virtual_time.as_nanos() as f64 / 1e6);

    assert_eq!(report.fault_hist.dropped(), 0, "fault samples were dropped");
    let faults: Vec<f64> = report
        .fault_hist
        .samples()
        .iter()
        .map(|&n| n as f64)
        .collect();
    let (_, fast_mean, _, slow_mean) = report
        .fault_hist
        .split_at(SimDuration::from_nanos(SLOW_MODE_NS));
    if !faults.is_empty() {
        m.set("virt_fault_mean_us", us(stats::mean(&faults)));
        m.set("virt_fault_p50_us", us(stats::median(&faults)));
        m.set("virt_fault_tail_us", us(stats::tail(&faults).0));
    }

    let totals = |forward: bool, repeat_only: bool| -> Vec<f64> {
        report
            .migrations
            .iter()
            .filter(|s| s.forward == forward && !(repeat_only && s.first_on_node))
            .map(|s| s.total.as_nanos() as f64)
            .collect()
    };
    let (fwd, back) = (totals(true, true), totals(false, false));
    if !fwd.is_empty() {
        m.set("virt_migrate_fwd_us", us(stats::median(&fwd)));
    }
    if !back.is_empty() {
        m.set("virt_migrate_back_us", us(stats::median(&back)));
    }
    let paper = match reference {
        Reference::FastFault => Some((fast_mean.as_micros_f64(), PAPER_FAST_FAULT_US)),
        Reference::SlowFault => Some((slow_mean.as_micros_f64(), PAPER_SLOW_FAULT_US)),
        Reference::RepeatMigration => Some((us(stats::median(&fwd)), PAPER_REPEAT_MIGRATION_US)),
        Reference::None => None,
    };
    if let Some((measured, paper)) = paper {
        m.set_ratio(
            "virt_ref_err_pct",
            (measured - paper).abs(),
            paper,
            &format!("us (|{measured} measured - paper| ÷ paper)"),
        );
    }

    if let Some(text) = &report.schedule {
        let log = ScheduleLog::parse(text).expect("the engine's own schedule text parses");
        m.set("sim.events", log.len() as f64);
    }
    m.set("net.msgs", s.msgs_sent as f64);
    m.set("net.pages", s.pages_sent as f64);
    m.set("net.bytes", s.bytes_sent as f64);

    let total_faults = s.total_faults();
    m.set("core.faults", total_faults as f64);
    m.set("core.read_faults", s.read_faults as f64);
    m.set("core.write_faults", s.write_faults as f64);
    m.set("core.retried_faults", s.retried_faults as f64);
    m.set_ratio(
        "core.retry_share",
        s.retried_faults as f64,
        total_faults as f64,
        "retried ÷ all faults",
    );
    m.set("core.coalesced_faults", s.coalesced_faults as f64);
    m.set("core.invalidations", s.invalidations as f64);
    m.set(
        "core.migrations",
        (s.forward_migrations + s.backward_migrations) as f64,
    );
    m.set("core.delegations", s.delegations as f64);
    m.set("core.futex_waits", s.futex_waits as f64);
    m.set("core.vma_syncs", s.vma_syncs as f64);
    let (mut inline, mut txns, mut retries) = (0, 0, 0);
    for dir in &report.process().directories {
        let d = dir.lock().stats();
        inline += d.inline_grants;
        txns += d.transactions;
        retries += d.retries;
    }
    m.set("core.dir_inline_grants", inline as f64);
    m.set("core.dir_transactions", txns as f64);
    m.set("core.dir_retries", retries as f64);
    m.set_ratio(
        "core.dir_grant_ratio",
        (inline + txns) as f64,
        (inline + txns + retries) as f64,
        "granted ÷ all directory requests",
    );

    // Only a traced (or recorded) run has spans and a metrics snapshot.
    if let Some(snapshot) = &report.metrics {
        let wait_ns: f64 = snapshot
            .histograms
            .iter()
            .filter(|h| {
                matches!(
                    h.name.as_str(),
                    "net.send_pool_wait" | "net.sink_credit_wait" | "net.recv_credit_wait"
                )
            })
            .filter_map(|h| Some(h.count as f64 * h.stats?.mean.as_nanos() as f64))
            .sum();
        m.set("net.pool_wait_virt_us", us(wait_ns));
        for (name, ns) in virt_self_time_by_kind(&report.spans) {
            m.set(name, us(ns as f64));
        }
        m.set("core.spans", report.spans.len() as f64);
    }
    m
}

/// The metric a span kind's self time is added to. The five kinds the
/// catalogue does not name separately join the kind they serve.
fn self_time_metric(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Fault => "core.virt_fault_self_us",
        SpanKind::FaultRetry => "core.virt_fault_retry_us",
        SpanKind::FollowerWait => "core.virt_follower_wait_us",
        SpanKind::DirectoryHandling | SpanKind::OwnerForward => "core.virt_directory_us",
        SpanKind::Invalidation | SpanKind::InvalidateBatch => "core.virt_invalidation_us",
        SpanKind::PageFixup => "core.virt_page_fixup_us",
        SpanKind::MigrationForward | SpanKind::MigrationPhase => "core.virt_migration_fwd_us",
        SpanKind::MigrationBack => "core.virt_migration_back_us",
        SpanKind::Delegation | SpanKind::DelegationService => "core.virt_delegation_us",
        SpanKind::FutexWait | SpanKind::FutexWake => "core.virt_futex_wait_us",
        SpanKind::VmaSync => "core.virt_vma_sync_us",
    }
}

/// Virtual self time (ns) summed per metric, every metric present.
pub fn virt_self_time_by_kind(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut sums: Vec<(&'static str, u64)> = [
        SpanKind::Fault,
        SpanKind::FaultRetry,
        SpanKind::FollowerWait,
        SpanKind::DirectoryHandling,
        SpanKind::Invalidation,
        SpanKind::PageFixup,
        SpanKind::MigrationForward,
        SpanKind::MigrationBack,
        SpanKind::Delegation,
        SpanKind::FutexWait,
        SpanKind::VmaSync,
    ]
    .iter()
    .map(|&k| (self_time_metric(k), 0))
    .collect();
    let intervals: Vec<Interval> = spans
        .iter()
        .map(|s| Interval {
            id: s.id.0,
            parent: s.parent.0,
            start: s.start.as_nanos(),
            end: s.end.as_nanos().max(s.start.as_nanos()),
        })
        .collect();
    for (span, self_ns) in spans.iter().zip(self_times(&intervals)) {
        let name = self_time_metric(span.kind);
        sums.iter_mut()
            .find(|(n, _)| *n == name)
            .expect("every kind has a slot")
            .1 += self_ns;
    }
    sums
}

// ---------------------------------------------------------------------
// pingpong / contended: writers on distinct nodes update one cell
// ---------------------------------------------------------------------

/// Writers placed on nodes, each doing `rmw(+1)` then a compute gap.
pub struct PageBounce {
    nodes: usize,
    /// Per writer: the node it runs on and its gap (abstract ops) after
    /// each update.
    writers: Vec<(u16, Arc<Vec<u64>>)>,
    reference: Reference,
    /// Lowest retry share for which the workload is what it claims.
    min_retry_share: f64,
}

impl PageBounce {
    /// §V-D as the paper ran it: one writer at the origin, one remote,
    /// 10 000 updates each, ~2 000 ops apart. The seed jitters each gap by
    /// up to 2 % so that runs on different seeds are different inputs.
    fn pingpong(rng: &mut SimRng) -> Self {
        Self::build(
            rng,
            2,
            &[0, 1],
            10_000,
            2_000..2_041,
            Reference::FastFault,
            0.0,
        )
    }

    /// Three remote writers with gaps uniform in [24 000, 72 000] ops:
    /// transactions on the page overlap, the home answers `Retry`, and
    /// the requester backs off. (With gaps of [4 000, 16 000] the number
    /// of engine events swings by 17 % between seeds, inter-quartile, and
    /// host time with it; in this range by 1 %, and more faults are
    /// retried: 17 % against 12 %.)
    fn contended(rng: &mut SimRng) -> Self {
        Self::build(
            rng,
            4,
            &[1, 2, 3],
            1_000,
            24_000..72_001,
            Reference::SlowFault,
            0.05,
        )
    }

    fn build(
        rng: &mut SimRng,
        nodes: usize,
        on: &[u16],
        rounds: usize,
        gap: std::ops::Range<u64>,
        reference: Reference,
        min_retry_share: f64,
    ) -> Self {
        let writers = on
            .iter()
            .map(|&node| {
                let gaps = (0..rounds).map(|_| rng.gen_range(gap.clone())).collect();
                (node, Arc::new(gaps))
            })
            .collect();
        PageBounce {
            nodes,
            writers,
            reference,
            min_retry_share,
        }
    }
}

impl PageBounce {
    /// A short ping-pong for `layerprobe`: the same code path at a tenth of
    /// the rounds, as a source of spans for the profiler probes.
    pub fn small(rng: &mut SimRng) -> Self {
        Self::build(
            rng,
            2,
            &[0, 1],
            1_000,
            2_000..2_041,
            Reference::FastFault,
            0.0,
        )
    }

    /// One simulation; returns the report, host ns, and the oracle's
    /// verdict.
    pub fn run(
        &self,
        observe: Observe,
        rec: &mut HostRecorder,
    ) -> (RunReport, u64, Result<(), String>) {
        let mut cell = None;
        let (report, host_ns) = simulate(rec, cluster_config(self.nodes, observe), |p| {
            let c = p.alloc_cell_tagged::<u64>(0, "global_variable");
            cell = Some(c);
            for (node, gaps) in &self.writers {
                let (node, gaps) = (*node, Arc::clone(gaps));
                p.spawn(move |ctx| {
                    ctx.migrate(node).expect("node exists");
                    for &gap in gaps.iter() {
                        c.rmw(ctx, |v| v + 1);
                        ctx.compute_ops(gap);
                    }
                });
            }
        });
        let oracle = rec.span("oracle", |_| {
            let want: usize = self.writers.iter().map(|(_, g)| g.len()).sum();
            check(
                "final cell",
                cell.expect("allocated").snapshot(&report),
                want as u64,
            )
        });
        (report, host_ns, oracle)
    }

    /// The deterministic results of a report this workload produced.
    pub fn extract(&self, report: &RunReport) -> Metrics {
        extract(report, self.reference)
    }
}

impl Workload for PageBounce {
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput {
        let (report, host_ns, oracle) = self.run(observe, rec);
        finish(rec, &report, host_ns, self.reference, oracle)
    }

    fn validity(&self, exact: &Metrics) -> Result<(), String> {
        let share = exact.get("core.retry_share").unwrap_or(0.0);
        if self.min_retry_share == 0.0 && share != 0.0 {
            return Err(format!(
                "core.retry_share = {share} on pingpong: the fast-path workload is retrying"
            ));
        }
        if share < self.min_retry_share {
            return Err(format!(
                "core.retry_share = {share} < {}: writers no longer collide",
                self.min_retry_share
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// readfan: replicate many pages to readers, then revoke them
// ---------------------------------------------------------------------

const READFAN_NODES: usize = 4;
const READFAN_PAGES: usize = 1_024;
const READFAN_REREAD: usize = 128;
/// `u64` words per 4 KiB page.
const WORDS: usize = 512;

struct ReaderPlan {
    node: u16,
    /// Every page, in this reader's order.
    order: Vec<usize>,
    /// The pages read again after the write sweep.
    reread: Vec<usize>,
    /// Sums the reader must observe in the two phases.
    want: (u64, u64),
}

struct ReadFan {
    values: Arc<Vec<u64>>,
    /// Per page: the word the origin overwrites and its new value.
    writes: Arc<Vec<(usize, u64)>>,
    readers: Vec<Arc<ReaderPlan>>,
}

impl ReadFan {
    fn new(rng: &mut SimRng) -> Self {
        let values: Vec<u64> = (0..READFAN_PAGES * WORDS)
            .map(|_| rng.next_u64() >> 16)
            .collect();
        let writes: Vec<(usize, u64)> = (0..READFAN_PAGES)
            .map(|_| {
                (
                    rng.gen_range(0..WORDS as u64) as usize,
                    rng.next_u64() >> 16,
                )
            })
            .collect();
        let mut after = values.clone();
        for (page, &(word, value)) in writes.iter().enumerate() {
            after[page * WORDS + word] = value;
        }
        let page_sum = |data: &[u64], page: usize| -> u64 {
            data[page * WORDS..(page + 1) * WORDS]
                .iter()
                .fold(0u64, |a, &v| a.wrapping_add(v))
        };
        let readers = (1..READFAN_NODES as u16)
            .map(|node| {
                let mut order: Vec<usize> = (0..READFAN_PAGES).collect();
                rng.shuffle(&mut order);
                let mut pool: Vec<usize> = (0..READFAN_PAGES).collect();
                rng.shuffle(&mut pool);
                let reread = pool[..READFAN_REREAD].to_vec();
                let sum = |data: &[u64], pages: &[usize]| {
                    pages
                        .iter()
                        .fold(0u64, |a, &p| a.wrapping_add(page_sum(data, p)))
                };
                let want = (sum(&values, &order), sum(&after, &reread));
                Arc::new(ReaderPlan {
                    node,
                    order,
                    reread,
                    want,
                })
            })
            .collect();
        ReadFan {
            values: Arc::new(values),
            writes: Arc::new(writes),
            readers,
        }
    }
}

impl Workload for ReadFan {
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput {
        let got: Vec<Arc<(AtomicU64, AtomicU64)>> = self
            .readers
            .iter()
            .map(|_| Arc::new((AtomicU64::new(0), AtomicU64::new(0))))
            .collect();
        let (report, host_ns) = simulate(rec, cluster_config(READFAN_NODES, observe), |p| {
            let data = p.alloc_vec::<u64>(READFAN_PAGES * WORDS, "fan_data");
            data.init(p, &self.values);
            let phase = p.new_barrier(READFAN_NODES as u32, "phase");
            let read_pages = move |ctx: &ThreadCtx<'_>, pages: &[usize]| -> u64 {
                let mut buf = vec![0u64; WORDS];
                let mut sum = 0u64;
                for &page in pages {
                    data.read_slice(ctx, page * WORDS, &mut buf);
                    sum = buf.iter().fold(sum, |a, &v| a.wrapping_add(v));
                }
                sum
            };
            for (plan, got) in self.readers.iter().zip(&got) {
                let (plan, got) = (Arc::clone(plan), Arc::clone(got));
                p.spawn(move |ctx| {
                    ctx.migrate(plan.node).expect("node exists");
                    got.0.store(read_pages(ctx, &plan.order), Ordering::Relaxed);
                    phase.wait(ctx);
                    phase.wait(ctx);
                    got.1
                        .store(read_pages(ctx, &plan.reread), Ordering::Relaxed);
                });
            }
            let writes = Arc::clone(&self.writes);
            p.spawn(move |ctx| {
                phase.wait(ctx);
                for (page, &(word, value)) in writes.iter().enumerate() {
                    data.set(ctx, page * WORDS + word, value);
                }
                phase.wait(ctx);
            });
        });
        let oracle = rec.span("oracle", |_| {
            for (plan, got) in self.readers.iter().zip(&got) {
                check("first-pass sum", got.0.load(Ordering::Relaxed), plan.want.0)?;
                check("re-read sum", got.1.load(Ordering::Relaxed), plan.want.1)?;
            }
            Ok(())
        });
        finish(rec, &report, host_ns, Reference::None, oracle)
    }
}

// ---------------------------------------------------------------------
// migrate: round trips with delegated synchronization
// ---------------------------------------------------------------------

const MIGRATE_NODES: usize = 4;
const MIGRATE_THREADS: usize = 4;
const MIGRATE_TRIPS: usize = 600;
/// Every this-many-th trip takes the mutex and bumps the counter.
const MIGRATE_LOCK_EVERY: usize = 8;
/// A thread's first trips visit every remote node in rotation and take the
/// lock there, so that worker set-up and the first touch of the lock and
/// counter pages from every node are in every run whatever the seed.
/// (Left to the seed, the program's peak heap is 1.5 or 3.0 MiB.)
const MIGRATE_TOUR: usize = MIGRATE_NODES - 1;

struct Migrate {
    /// Per thread and trip: the destination, and whether the trip takes
    /// the lock.
    plans: Vec<Arc<Vec<(u16, bool)>>>,
}

impl Migrate {
    fn new(rng: &mut SimRng) -> Self {
        let plans = (0..MIGRATE_THREADS)
            .map(|thread| {
                let trips = (0..MIGRATE_TRIPS)
                    .map(|trip| {
                        let seeded = rng.gen_range(1..MIGRATE_NODES as u64) as u16;
                        if trip < MIGRATE_TOUR {
                            (1 + ((thread + trip) % MIGRATE_TOUR) as u16, true)
                        } else {
                            (seeded, trip % MIGRATE_LOCK_EVERY == 0)
                        }
                    })
                    .collect();
                Arc::new(trips)
            })
            .collect();
        Migrate { plans }
    }
}

impl Workload for Migrate {
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput {
        let mut counter = None;
        let (report, host_ns) = simulate(rec, cluster_config(MIGRATE_NODES, observe), |p| {
            let c = p.alloc_cell_tagged::<u64>(0, "guarded_counter");
            counter = Some(c);
            let lock = p.new_mutex("counter_lock");
            for plan in &self.plans {
                let plan = Arc::clone(plan);
                p.spawn(move |ctx| {
                    for &(dst, locks) in plan.iter() {
                        ctx.migrate(dst).expect("node exists");
                        ctx.compute_ops(1_000);
                        if locks {
                            lock.with(ctx, || c.rmw(ctx, |v| v + 1));
                        }
                        ctx.migrate_back().expect("origin exists");
                    }
                });
            }
        });
        let oracle = rec.span("oracle", |_| {
            let trips = (MIGRATE_THREADS * MIGRATE_TRIPS) as u64;
            check("forward migrations", report.stats.forward_migrations, trips)?;
            check(
                "backward migrations",
                report.stats.backward_migrations,
                trips,
            )?;
            let locked = self
                .plans
                .iter()
                .flat_map(|plan| plan.iter())
                .filter(|(_, locks)| *locks)
                .count();
            check(
                "guarded counter",
                counter.expect("allocated").snapshot(&report),
                locked as u64,
            )
        });
        finish(rec, &report, host_ns, Reference::RepeatMigration, oracle)
    }
}

// ---------------------------------------------------------------------
// kmn: a whole application
// ---------------------------------------------------------------------

const KMN_NODES: usize = 4;

/// The k-means application, optimized variant, evaluation scale.
pub struct Kmn {
    params: AppParams,
    want: u64,
}

impl Kmn {
    fn new(seed: u64) -> Self {
        let mut params = AppParams::new(KMN_NODES, Variant::Optimized);
        params.seed = seed;
        let want = reference_checksum("KMN", &params);
        Kmn { params, want }
    }

    /// The single-node baseline the speed-up is taken against, and the
    /// host time of the bare arithmetic: `(baseline host ms, baseline
    /// virtual ms, reference host ms)`.
    pub fn baseline(seed: u64) -> Result<(f64, f64, f64), String> {
        let mut params = AppParams::new(KMN_NODES, Variant::Baseline);
        params.seed = seed;
        let t0 = std::time::Instant::now();
        let base = dex_apps::run_app("KMN", &params);
        let host_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = std::time::Instant::now();
        let checksum = std::hint::black_box(reference_checksum("KMN", &params));
        let reference_ms = t0.elapsed().as_secs_f64() * 1e3;
        check("baseline KMN checksum", base.checksum, checksum)?;
        Ok((host_ms, base.elapsed.as_nanos() as f64 / 1e6, reference_ms))
    }
}

impl Workload for Kmn {
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput {
        let result = rec.span("simulate", |_| {
            run_app_with_config("KMN", &self.params, cluster_config(KMN_NODES, observe))
        });
        let host_ns = rec.last_ns("simulate").expect("span just closed");
        let oracle = rec.span("oracle", |_| {
            check("KMN checksum", result.checksum, self.want)
        });
        finish(rec, &result.report, host_ns, Reference::None, oracle)
    }
}
