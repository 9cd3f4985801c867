//! The public entry point: build a cluster, run a distributed process.
//!
//! [`Cluster::run`] stands up the simulated rack (fabric, per-node
//! dispatchers), creates one process at the origin node, hands the setup
//! closure a [`DexProcess`] to allocate distributed memory and spawn
//! threads, then drives the simulation to completion and returns a
//! [`RunReport`] with timing, protocol statistics, migration samples, and
//! (optionally) the causal spans that carry the page-fault record.

use std::cell::RefCell;
use std::rc::Rc;

use dex_net::{
    MetricsRegistry, MetricsSnapshot, NetConfig, NodeCounter, NodeId, SeriesBuilder, TimeSeries,
};
use dex_os::{Pid, VirtAddr, PAGE_SIZE};
use dex_sim::{Engine, Histogram, SchedulePolicyHandle, SimDuration, SimTime};

use crate::cost::CostModel;
use crate::counters::Counter;
use crate::dispatch::{dispatcher_loop, ProcessRegistry};
use crate::handle::{DsmCell, DsmMatrix, DsmScalar, DsmVec, ProcessRef};
use crate::mutation::ProtocolMutation;
use crate::process::{MigrationSample, ProcessShared};
use crate::race::{RaceEvent, RaceTrace};
use crate::span::{Span, SpanBuffer};
use crate::sync::{
    new_barrier, new_condvar, new_mutex, new_rwlock, DexBarrier, DexCondvar, DexMutex, DexRwLock,
};
use crate::thread::{DexThread, ThreadCtx};

/// Configuration of a simulated DEX cluster.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
///
/// let config = ClusterConfig::new(8).with_spans();
/// assert_eq!(config.nodes, 8);
/// let cluster = Cluster::new(config);
/// let report = cluster.run(|proc_| {
///     proc_.spawn(|ctx| ctx.compute_ops(1_000));
/// });
/// assert!(report.virtual_time.as_micros_f64() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (the paper's testbed has 8).
    pub nodes: usize,
    /// Messaging-layer cost model.
    pub net: NetConfig,
    /// Kernel-path cost model.
    pub cost: CostModel,
    /// Record causal spans (fault/migration/delegation timelines).
    pub spans: bool,
    /// Keep latency histograms and put the [`MetricsSnapshot`] of the
    /// run's counters in the report.
    pub metrics: bool,
    /// Continuous telemetry: the window of the time-series the engine's
    /// virtual-time sampler builds. `None` — the default — installs no
    /// sampler; the run is byte-identical to builds without telemetry.
    pub telemetry: Option<SimDuration>,
    /// Record the deterministic schedule (driver accept order) for
    /// bit-identity comparisons.
    pub record_schedule: bool,
    /// Record synchronization/access events for `dex-check races`.
    pub race: bool,
    /// Abort the run after this many simulation events (livelock guard).
    pub event_budget: u64,
    /// Pages in the process's shared heap VMA.
    pub heap_pages: u64,
    /// Deterministic fault plan to inject (delay spikes, stalls, node
    /// crashes). `None` — the default — runs the fabric with the fault
    /// layer disabled, which is schedule-identical to builds without it.
    pub fault_plan: Option<dex_sim::FaultPlan>,
    /// Seeded protocol bug for mutation testing the exploration tooling
    /// (`dex-check explore`). Default: [`ProtocolMutation::None`].
    pub mutation: ProtocolMutation,
    /// Schedule policy to install on the engine — the hook `dex-check
    /// explore` drives alternative interleavings through. `None` runs
    /// the engine's built-in (deterministic heap-order) scheduling.
    pub schedule_policy: Option<SchedulePolicyHandle>,
    /// Directory shards for page-ownership state. `1` — the default —
    /// keeps the classic single-origin directory and is bit-identical to
    /// earlier builds. Values above one hash each page to a home node
    /// (`vpn % dir_shards`) that runs its ownership transactions with
    /// owner-forwarded grants and batched invalidation fan-out; capped
    /// at the node count.
    pub dir_shards: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with the calibrated default cost models.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds 64 (the ownership bitmap
    /// width).
    pub fn new(nodes: usize) -> Self {
        assert!((1..=64).contains(&nodes), "cluster size must be 1..=64");
        ClusterConfig {
            nodes,
            net: NetConfig::default(),
            cost: CostModel::default(),
            spans: false,
            metrics: false,
            telemetry: None,
            record_schedule: false,
            race: false,
            event_budget: u64::MAX,
            heap_pages: 1 << 18, // 1 GiB of address space; frames on demand
            fault_plan: None,
            mutation: ProtocolMutation::None,
            schedule_policy: None,
            dir_shards: 1,
        }
    }

    /// Enables causal span tracing: fault, migration, delegation, and
    /// futex timelines stitched across nodes (exported by `dex-prof`).
    /// The instrumented schedule is identical to the uninstrumented one.
    pub fn with_spans(mut self) -> Self {
        self.spans = true;
        self
    }

    /// Keeps wait-time histograms beside the per-node and per-link
    /// counters every run records, and snapshots both into the report.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Enables continuous telemetry with the given virtual-time window:
    /// the engine samples the metrics registry at every window boundary
    /// into a [`TimeSeries`]. `dex_prof::health` judges the series and
    /// the spans after the run. Implies [`ClusterConfig::with_spans`] and
    /// [`ClusterConfig::with_metrics`].
    pub fn with_telemetry(mut self, window: SimDuration) -> Self {
        self.telemetry = Some(window);
        self.spans = true;
        self.metrics = true;
        self
    }

    /// Records the deterministic schedule (the order the engine accepted
    /// thread steps) so two runs can be compared byte for byte.
    pub fn with_schedule_recording(mut self) -> Self {
        self.record_schedule = true;
        self
    }

    /// Enables synchronization/access event recording so the run can be
    /// analyzed offline by `dex-check races` (dynamic race detection).
    pub fn with_race_detection(mut self) -> Self {
        self.race = true;
        self
    }

    /// Replaces the network cost model.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Replaces the kernel-path cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Caps the simulation event count.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Injects a deterministic fault plan (see [`dex_sim::FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: dex_sim::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Injects a seeded protocol bug (mutation testing of the checker).
    pub fn with_mutation(mut self, mutation: ProtocolMutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Installs a schedule policy on the engine, routing every scheduling
    /// tie and value choice through it (systematic exploration).
    pub fn with_schedule_policy(mut self, policy: SchedulePolicyHandle) -> Self {
        self.schedule_policy = Some(policy);
        self
    }

    /// Shards the page-ownership directory across `shards` home nodes
    /// (two-hop ownership: owner-forwarded grants, batched invalidation
    /// fan-out). `1` restores the classic single-origin directory; values
    /// above the node count are capped to it.
    pub fn with_directory_shards(mut self, shards: usize) -> Self {
        self.dir_shards = shards.max(1);
        self
    }
}

/// A simulated DEX cluster, ready to run distributed processes.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster from `config`.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config }
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs one distributed process to completion.
    ///
    /// `setup` receives the process handle to allocate distributed memory
    /// and spawn threads; it runs before virtual time starts. The report
    /// is produced when every spawned thread has finished.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks, exceeds its event budget, or an
    /// application thread panics (e.g. a simulated segmentation fault).
    pub fn run<F>(&self, setup: F) -> RunReport
    where
        F: FnOnce(&DexProcess<'_>),
    {
        self.run_multi(|cluster| {
            let proc_ = cluster.create_process(NodeId(0));
            setup(&proc_);
        })
        .into_iter()
        .next()
        .expect("run created one process")
    }

    /// Runs any number of distributed processes to completion — DEX
    /// supports several processes sharing the rack, each with its own
    /// origin node, address space, ownership directory, and futex table
    /// (messages carry the pid throughout).
    ///
    /// Returns one report per created process, in creation order.
    ///
    /// # Panics
    ///
    /// As for [`Cluster::run`]; additionally if `setup` creates no
    /// process.
    pub fn run_multi<F>(&self, setup: F) -> Vec<RunReport>
    where
        F: FnOnce(&ClusterHandle<'_>),
    {
        let cfg = &self.config;
        let engine = Engine::with_event_budget(cfg.event_budget);
        if let Some(policy) = &cfg.schedule_policy {
            engine.set_schedule_policy(policy.clone());
        }
        let schedule = cfg
            .record_schedule
            .then(|| engine.record_schedule(format!("dex run, {} nodes", cfg.nodes)));
        // The series needs the histograms even if the caller set the
        // `telemetry` field directly without `with_metrics`.
        let observed = cfg.metrics || cfg.telemetry.is_some();
        let cap = if observed {
            dex_net::DEFAULT_HIST_CAP
        } else {
            0
        };
        let metrics = MetricsRegistry::with_histogram_cap(cfg.nodes, cap);
        let fabric = crate::process::Fabric::with_instrumentation(
            cfg.net.clone(),
            cfg.nodes,
            cfg.fault_plan.clone().unwrap_or_default(),
            Rc::clone(&metrics),
        );
        let registry = ProcessRegistry::new();

        // One dispatcher daemon per node drains that node's inbox.
        for n in 0..cfg.nodes {
            let node = NodeId(n as u16);
            let registry = Rc::clone(&registry);
            let endpoint = fabric.endpoint(node);
            engine.spawn_daemon(format!("dispatcher-{node}"), move |ctx| {
                dispatcher_loop(ctx, node, registry, endpoint);
            });
        }

        let handle = ClusterHandle {
            engine: &engine,
            fabric,
            registry,
            config: cfg,
            created: RefCell::new(Vec::new()),
        };
        setup(&handle);
        let created = handle.created.into_inner();
        assert!(
            !created.is_empty(),
            "setup must create at least one process"
        );

        // With a telemetry window, the sampler closes one window of the
        // series at each boundary. It is pure observation (it reads
        // counters and closes the histogram window between events) —
        // installing it adds no events.
        let builder = cfg.telemetry.map(|window| {
            let builder = SeriesBuilder::new(Rc::clone(&metrics), window);
            let builder = Rc::new(RefCell::new(Some(builder)));
            let sampler = Rc::clone(&builder);
            engine.set_sampler(window, move |_| {
                let mut builder = sampler.borrow_mut();
                builder.as_mut().expect("sampled during the run").sample();
            });
            builder
        });

        let end: SimTime = match engine.run() {
            Ok(end) => end,
            Err(e) => panic!("dex simulation failed: {e}"),
        };

        let series = builder.map(|b| b.borrow_mut().take().expect("finished once").finish(end));
        let schedule_text = schedule.map(|log| log.borrow().to_text());
        created
            .into_iter()
            .map(|shared| {
                shared.end_run(end);
                let stats = DexStats::collect(&shared);
                let fault_hist = shared.fault_hist.clone();
                let migrations = shared.migrations.lock().clone();
                let spans = shared.spans.snapshot();
                let metrics = observed.then(|| metrics.snapshot());
                let race_events = shared.race.snapshot();
                RunReport {
                    virtual_time: end.saturating_since(SimTime::ZERO),
                    stats,
                    fault_hist,
                    migrations,
                    spans,
                    metrics,
                    series: series.clone(),
                    schedule: schedule_text.clone(),
                    race_events,
                    shared,
                }
            })
            .collect()
    }
}

/// Handle for creating processes inside [`Cluster::run_multi`].
pub struct ClusterHandle<'e> {
    engine: &'e Engine,
    fabric: Rc<crate::process::Fabric>,
    registry: Rc<ProcessRegistry>,
    config: &'e ClusterConfig,
    created: RefCell<Vec<Rc<ProcessShared>>>,
}

impl<'e> ClusterHandle<'e> {
    /// Creates a new process whose threads originate at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is outside the cluster.
    pub fn create_process(&self, origin: NodeId) -> DexProcess<'e> {
        assert!(
            (origin.0 as usize) < self.config.nodes,
            "origin {origin} outside the {}-node cluster",
            self.config.nodes
        );
        let race = if self.config.race {
            RaceTrace::enabled()
        } else {
            RaceTrace::disabled()
        };
        let spans = if self.config.spans {
            SpanBuffer::enabled()
        } else {
            SpanBuffer::disabled()
        };
        let pid = Pid(self.created.borrow().len() as u64 + 1);
        let shared = ProcessShared::new(
            pid,
            origin,
            self.config.nodes,
            self.config.cost.clone(),
            Rc::clone(&self.fabric),
            spans,
            race,
            self.config.heap_pages,
            self.config.mutation,
            self.config.dir_shards,
        );
        self.registry.insert(Rc::clone(&shared));
        self.created.borrow_mut().push(Rc::clone(&shared));
        DexProcess {
            shared,
            engine: self.engine,
        }
    }
}

impl std::fmt::Debug for ClusterHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("processes", &self.created.borrow().len())
            .finish()
    }
}

/// Handle to the distributed process during setup: allocate memory, create
/// synchronization primitives, spawn threads.
pub struct DexProcess<'e> {
    shared: Rc<ProcessShared>,
    engine: &'e Engine,
}

impl ProcessRef for DexProcess<'_> {
    fn shared_ref(&self) -> &ProcessShared {
        &self.shared
    }
}

impl DexProcess<'_> {
    /// The shared process state (advanced use).
    pub fn shared(&self) -> &Rc<ProcessShared> {
        &self.shared
    }

    /// The origin node of the process.
    pub fn origin(&self) -> NodeId {
        self.shared.origin
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.shared.nodes
    }

    /// Spawns an application thread at the origin. The closure runs in
    /// virtual time with a [`ThreadCtx`].
    pub fn spawn<F>(&self, f: F) -> DexThread
    where
        F: FnOnce(&ThreadCtx<'_>) + 'static,
    {
        let (handle, body) = DexThread::start(&self.shared, f);
        self.engine.spawn(format!("app-{}", handle.tid()), body);
        handle
    }

    /// Allocates a typed vector, packed at element alignment (objects
    /// share pages — the paper's false-sharing hazard).
    pub fn alloc_vec<T: DsmScalar>(&self, len: usize, tag: &str) -> DsmVec<T> {
        let addr = self.shared.alloc_raw(
            (len * T::BYTES) as u64,
            T::BYTES.next_power_of_two().min(4096) as u64,
            Some(tag),
        );
        DsmVec::from_raw(addr, len)
    }

    /// Allocates a typed vector aligned to a page boundary *and padded to
    /// whole pages*, so no other object shares its pages (the
    /// `posix_memalign`-plus-padding fix from §IV-B).
    pub fn alloc_vec_aligned<T: DsmScalar>(&self, len: usize, tag: &str) -> DsmVec<T> {
        let bytes = ((len * T::BYTES) as u64).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        let addr = self
            .shared
            .alloc_raw(bytes.max(PAGE_SIZE as u64), PAGE_SIZE as u64, Some(tag));
        DsmVec::from_raw(addr, len)
    }

    /// Allocates and initializes a single cell (packed).
    pub fn alloc_cell<T: DsmScalar>(&self, init: T) -> DsmCell<T> {
        self.alloc_cell_tagged(init, "cell")
    }

    /// Allocates and initializes a tagged cell (packed).
    pub fn alloc_cell_tagged<T: DsmScalar>(&self, init: T, tag: &str) -> DsmCell<T> {
        let addr = self.shared.alloc_raw(
            T::BYTES as u64,
            T::BYTES.next_power_of_two().min(4096) as u64,
            Some(tag),
        );
        let cell = DsmCell::from_raw(addr);
        cell.init(self, init);
        cell
    }

    /// Allocates and initializes a cell on its own *whole* page (padded,
    /// so nothing else ever shares it).
    pub fn alloc_cell_aligned<T: DsmScalar>(&self, init: T, tag: &str) -> DsmCell<T> {
        let addr = self
            .shared
            .alloc_raw(PAGE_SIZE as u64, PAGE_SIZE as u64, Some(tag));
        let cell = DsmCell::from_raw(addr);
        cell.init(self, init);
        cell
    }

    /// Allocates a row-major 2-D matrix, packed.
    pub fn alloc_matrix<T: DsmScalar>(&self, rows: usize, cols: usize, tag: &str) -> DsmMatrix<T> {
        let addr = self.shared.alloc_raw(
            (rows * cols * T::BYTES) as u64,
            T::BYTES.next_power_of_two().min(4096) as u64,
            Some(tag),
        );
        DsmMatrix::from_raw(addr, rows, cols, cols)
    }

    /// Allocates a 2-D matrix with every row padded to whole pages, so
    /// row partitions never share pages across workers (the grid layout
    /// BT/FT-style applications want after optimization).
    pub fn alloc_matrix_row_aligned<T: DsmScalar>(
        &self,
        rows: usize,
        cols: usize,
        tag: &str,
    ) -> DsmMatrix<T> {
        let row_bytes = (cols * T::BYTES).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let stride = row_bytes / T::BYTES;
        let addr = self
            .shared
            .alloc_raw((rows * row_bytes) as u64, PAGE_SIZE as u64, Some(tag));
        DsmMatrix::from_raw(addr, rows, cols, stride)
    }

    /// Allocates raw bytes (packed by default; pass `PAGE_SIZE` alignment
    /// to isolate).
    pub fn alloc_raw(&self, len: u64, align: u64, tag: &str) -> VirtAddr {
        self.shared.alloc_raw(len, align, Some(tag))
    }

    /// Creates a cluster-wide mutex.
    pub fn new_mutex(&self, tag: &str) -> DexMutex {
        new_mutex(self, tag)
    }

    /// Creates a cluster-wide barrier for `parties` threads.
    pub fn new_barrier(&self, parties: u32, tag: &str) -> DexBarrier {
        new_barrier(self, parties, tag)
    }

    /// Creates a cluster-wide condition variable.
    pub fn new_condvar(&self, tag: &str) -> DexCondvar {
        new_condvar(self, tag)
    }

    /// Creates a cluster-wide readers-writer lock.
    pub fn new_rwlock(&self, tag: &str) -> DexRwLock {
        new_rwlock(self, tag)
    }
}

impl std::fmt::Debug for DexProcess<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DexProcess")
            .field("pid", &self.shared.pid)
            .finish()
    }
}

/// Aggregate protocol statistics of one run (friendly snapshot of the raw
/// counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DexStats {
    /// Forward thread migrations.
    pub forward_migrations: u64,
    /// Backward thread migrations.
    pub backward_migrations: u64,
    /// Read faults entering the protocol.
    pub read_faults: u64,
    /// Write faults entering the protocol.
    pub write_faults: u64,
    /// Faults absorbed as followers by leader–follower coalescing.
    pub coalesced_faults: u64,
    /// Fault rounds retried after conflicting transactions.
    pub retried_faults: u64,
    /// Ownership revocations applied.
    pub invalidations: u64,
    /// On-demand VMA pulls.
    pub vma_syncs: u64,
    /// Eager VMA broadcasts (munmap/mprotect downgrades).
    pub vma_broadcasts: u64,
    /// Operations delegated to original threads.
    pub delegations: u64,
    /// Futex wait operations.
    pub futex_waits: u64,
    /// Futex wake operations.
    pub futex_wakes: u64,
    /// Messages sent on the fabric.
    pub msgs_sent: u64,
    /// Page payloads sent on the fabric.
    pub pages_sent: u64,
    /// Total bytes sent on the fabric.
    pub bytes_sent: u64,
}

impl DexStats {
    /// Every field with the name of the per-node counter it sums.
    fn fields(&mut self) -> [(&'static str, &mut u64); 15] {
        use {Counter as C, NodeCounter as N};
        [
            (C::MigrationsForward.name(), &mut self.forward_migrations),
            (C::MigrationsBackward.name(), &mut self.backward_migrations),
            (C::FaultsRead.name(), &mut self.read_faults),
            (C::FaultsWrite.name(), &mut self.write_faults),
            (C::FaultsCoalesced.name(), &mut self.coalesced_faults),
            (C::FaultsRetried.name(), &mut self.retried_faults),
            (C::Invalidations.name(), &mut self.invalidations),
            (C::VmaSyncs.name(), &mut self.vma_syncs),
            (C::VmaBroadcasts.name(), &mut self.vma_broadcasts),
            (C::Delegations.name(), &mut self.delegations),
            (C::FutexWaits.name(), &mut self.futex_waits),
            (C::FutexWakes.name(), &mut self.futex_wakes),
            (N::MsgsSent.name(), &mut self.msgs_sent),
            (N::PagesSent.name(), &mut self.pages_sent),
            (N::BytesSent.name(), &mut self.bytes_sent),
        ]
    }

    /// Sums the process's and the fabric's per-node counters.
    fn collect(shared: &ProcessShared) -> Self {
        let (process, fabric) = (shared.counters(), shared.fabric.counters());
        let mut stats = DexStats::default();
        for (name, field) in stats.fields() {
            *field = process.get(name) + fabric.get(name);
        }
        stats
    }

    /// Every field with the name of the per-node counter it sums.
    pub fn by_counter(mut self) -> [(&'static str, u64); 15] {
        self.fields().map(|(name, field)| (name, *field))
    }

    /// Total faults that entered the protocol (reads + writes).
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }
}

/// Everything a completed run reports.
pub struct RunReport {
    /// Total virtual time the run took.
    pub virtual_time: SimDuration,
    /// Aggregate protocol statistics.
    pub stats: DexStats,
    /// Distribution of protocol-fault handling latencies.
    pub fault_hist: Histogram,
    /// Per-migration timing samples (Table II / Figure 3 inputs).
    pub migrations: Vec<MigrationSample>,
    /// Synchronization/access events (empty unless race detection was
    /// enabled via [`ClusterConfig::with_race_detection`]).
    pub race_events: Vec<RaceEvent>,
    /// Causal spans (empty unless [`ClusterConfig::with_spans`] was set).
    pub spans: Vec<Span>,
    /// Per-node and per-link counters and histograms, cluster-wide
    /// (present only when [`ClusterConfig::with_metrics`] was set).
    pub metrics: Option<MetricsSnapshot>,
    /// Windowed time-series (present only when
    /// [`ClusterConfig::with_telemetry`] was set). Cluster-wide: every
    /// process of a multi-process run reports the same series. With the
    /// spans it is what `dex_prof::health` judges.
    pub series: Option<TimeSeries>,
    /// Text rendering of the deterministic schedule (present only when
    /// [`ClusterConfig::with_schedule_recording`] was set).
    pub schedule: Option<String>,
    shared: Rc<ProcessShared>,
}

impl ProcessRef for RunReport {
    fn shared_ref(&self) -> &ProcessShared {
        &self.shared
    }
}

impl RunReport {
    /// The shared process state, for reading final memory contents via
    /// [`DsmVec::snapshot`] / [`DsmCell::snapshot`].
    pub fn process(&self) -> &Rc<ProcessShared> {
        &self.shared
    }
}

impl std::fmt::Debug for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunReport")
            .field("virtual_time", &self.virtual_time)
            .field("stats", &self.stats)
            .field("migrations", &self.migrations.len())
            .field("spans", &self.spans.len())
            .finish()
    }
}
