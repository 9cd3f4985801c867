//! # dex-apps — the eight evaluation applications of the DEX paper
//!
//! Rust ports, against the DEX API, of the applications evaluated in §V:
//!
//! | module | paper name | source | pattern |
//! |---|---|---|---|
//! | [`grp`] | GRP | Phoenix string match | partitioned scan + global match counters |
//! | [`kmn`] | KMN | Phoenix k-means | iterative clustering with shared centroids |
//! | [`bt`]  | BT  | NPB (OpenMP, 15 regions) | fork-join regions, shared loop params |
//! | [`ep`]  | EP  | NPB (OpenMP, 1 region) | embarrassingly parallel + reduction |
//! | [`ft`]  | FT  | NPB (OpenMP, 7 regions) | all-to-all transpose every iteration |
//! | [`blk`] | BLK | PARSEC blackscholes | read-only inputs, disjoint outputs |
//! | [`bfs`] | BFS | Polymer | frontier graph traversal, scattered writes |
//! | [`bp`]  | BP  | Polymer | bandwidth-bound partitioned sweeps |
//!
//! Each application runs in three [`Variant`]s:
//!
//! * [`Variant::Baseline`] — the unmodified single-machine program (no
//!   migration calls); Figure 2's normalization point.
//! * [`Variant::Initial`] — the paper's §V-A conversion: thread-migration
//!   calls inserted blindly, data layout untouched — including the
//!   false-sharing hazards the paper documents (packed thread arguments,
//!   global counters updated per event, parameters co-located with
//!   mutable globals).
//! * [`Variant::Optimized`] — the §V-C optimizations: page-aligned
//!   per-thread data (`posix_memalign`), locally-staged updates merged
//!   once per iteration, read-only parameters on their own replicable
//!   pages, explicit argument passing instead of parent-stack reads.
//!
//! Every run returns a checksum that is verified against a plain
//! sequential Rust computation ([`reference_checksum`]), so the protocol's
//! data correctness is validated by the same code that measures it.

#![warn(missing_docs)]

pub mod bfs;
pub mod blk;
pub mod bp;
pub mod bt;
pub mod ep;
pub mod ft;
pub mod grp;
pub mod kmn;
pub mod workloads;

use dex_core::{Cluster, ClusterConfig, DexStats, NodeId, RunReport, ThreadCtx};
use dex_sim::SimDuration;

/// Which version of an application to run (see crate docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Unmodified single-machine program (runs on node 0 only).
    Baseline,
    /// Blind conversion: migration calls only (§V-A).
    Initial,
    /// Conversion plus the false-sharing optimizations (§V-C).
    Optimized,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Baseline => write!(f, "baseline"),
            Variant::Initial => write!(f, "initial"),
            Variant::Optimized => write!(f, "optimized"),
        }
    }
}

/// Problem-size selection: `Test` sizes keep unit tests fast; `Evaluation`
/// sizes drive the figure/table harnesses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small inputs for unit and property tests.
    Test,
    /// The sizes used to regenerate the paper's figures (scaled from the
    /// paper's inputs so a DES run finishes in seconds).
    Evaluation,
}

/// Parameters of one application run.
#[derive(Clone, Debug)]
pub struct AppParams {
    /// Number of nodes used.
    pub nodes: usize,
    /// Worker threads per node (the paper uses 8 to avoid hyper-threading
    /// effects).
    pub threads_per_node: usize,
    /// Which variant to run.
    pub variant: Variant,
    /// Problem size.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Record synchronization/access events for `dex-check races`.
    pub race: bool,
}

impl AppParams {
    /// Conventional parameters: `nodes` nodes, 8 threads each, evaluation
    /// scale.
    pub fn new(nodes: usize, variant: Variant) -> Self {
        AppParams {
            nodes,
            threads_per_node: 8,
            variant,
            scale: Scale::Evaluation,
            seed: 42,
            race: false,
        }
    }

    /// Small-scale parameters for tests.
    pub fn test(nodes: usize, variant: Variant) -> Self {
        AppParams {
            nodes,
            threads_per_node: 4,
            variant,
            scale: Scale::Test,
            seed: 42,
            race: false,
        }
    }

    /// Enables synchronization/access event recording (race detection).
    pub fn with_race_detection(mut self) -> Self {
        self.race = true;
        self
    }

    /// Total worker threads (baseline runs use a single node's worth).
    pub fn total_threads(&self) -> usize {
        match self.variant {
            Variant::Baseline => self.threads_per_node,
            _ => self.nodes * self.threads_per_node,
        }
    }

    /// The node worker `i` executes on: workers are distributed in blocks,
    /// so partitions align with nodes. Baseline workers stay home.
    pub fn node_of(&self, worker: usize) -> NodeId {
        match self.variant {
            Variant::Baseline => NodeId(0),
            _ => NodeId((worker / self.threads_per_node) as u16),
        }
    }

    /// Builds the cluster configuration for this run.
    pub fn cluster_config(&self) -> ClusterConfig {
        let nodes = match self.variant {
            Variant::Baseline => 1,
            _ => self.nodes,
        };
        let mut config = ClusterConfig::new(nodes);
        if self.race {
            config = config.with_race_detection();
        }
        config
    }
}

/// The outcome of one application run.
#[derive(Debug)]
pub struct AppResult {
    /// Application short name (paper acronym).
    pub name: &'static str,
    /// The parameters used.
    pub params: AppParams,
    /// Virtual time the run took.
    pub elapsed: SimDuration,
    /// Result checksum (verify against [`reference_checksum`]).
    pub checksum: u64,
    /// Protocol statistics.
    pub stats: DexStats,
    /// The full run report (migration samples, fault histogram, trace).
    pub report: RunReport,
}

/// All eight application identifiers, in the paper's presentation order.
pub const ALL_APPS: [&str; 8] = ["GRP", "KMN", "BT", "EP", "FT", "BLK", "BFS", "BP"];

/// Runs the named application.
///
/// # Panics
///
/// Panics on an unknown name (use entries of [`ALL_APPS`]).
pub fn run_app(name: &str, params: &AppParams) -> AppResult {
    match name {
        "GRP" => grp::run(params),
        "KMN" => kmn::run(params),
        "BT" => bt::run(params),
        "EP" => ep::run(params),
        "FT" => ft::run(params),
        "BLK" => blk::run(params),
        "BFS" => bfs::run(params),
        "BP" => bp::run(params),
        other => panic!("unknown application {other:?} (expected one of {ALL_APPS:?})"),
    }
}

/// Sequential ground-truth checksum for the named application at the given
/// scale and seed — computed without the simulator.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn reference_checksum(name: &str, params: &AppParams) -> u64 {
    match name {
        "GRP" => grp::reference_checksum(params),
        "KMN" => kmn::reference_checksum(params),
        "BT" => bt::reference_checksum(params),
        "EP" => ep::reference_checksum(params),
        "FT" => ft::reference_checksum(params),
        "BLK" => blk::reference_checksum(params),
        "BFS" => bfs::reference_checksum(params),
        "BP" => bp::reference_checksum(params),
        other => panic!("unknown application {other:?}"),
    }
}

/// Mixes a `u64` into a running checksum (FNV-ish, order-sensitive).
pub fn mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x100000001b3)
}

/// Quantizes an `f64` for checksumming (stable across evaluation orders
/// that stay deterministic, tolerant of representation noise).
pub fn quantize(value: f64) -> u64 {
    round_i64(value * 1e6) as u64
}

/// `x.round() as i64` — half away from zero, saturating, NaN to 0 —
/// without `f64::round`, which the x86-64 baseline target (no SSE4.1
/// `roundsd`) turns into a call to a software routine. The truncating
/// cast is one instruction, and `x - trunc(x)` is exact (Sterbenz for
/// |x| ≥ 1, `trunc(x) = 0` below, no fraction at all from 2⁵² up), so
/// comparing it with ±0.5 decides the rounding exactly.
pub fn round_i64(x: f64) -> i64 {
    let whole = x as i64;
    let frac = x - whole as f64;
    // Branch-free: which way a fraction rounds is a coin toss on real
    // data, so a branch would mispredict about half the time.
    whole.saturating_add(i64::from(frac >= 0.5) - i64::from(frac <= -0.5))
}

std::thread_local! {
    static CONFIG_OVERRIDE: std::cell::RefCell<Option<ClusterConfig>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs the named application with a custom cluster configuration (e.g. a
/// different fabric generation) instead of the default built from
/// `params`. Used by the network-generation study.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn run_app_with_config(name: &str, params: &AppParams, config: ClusterConfig) -> AppResult {
    CONFIG_OVERRIDE.with(|c| *c.borrow_mut() = Some(config));
    let result = run_app(name, params);
    CONFIG_OVERRIDE.with(|c| *c.borrow_mut() = None);
    result
}

pub(crate) fn run_cluster<F>(params: &AppParams, setup: F) -> RunReport
where
    F: FnOnce(&dex_core::DexProcess<'_>),
{
    let config = CONFIG_OVERRIDE
        .with(|c| c.borrow_mut().take())
        .unwrap_or_else(|| params.cluster_config());
    Cluster::new(config).run(setup)
}

/// Migrates a worker to its assigned node per the variant (no-op for
/// baseline), mirroring the one inserted line of §V-A.
pub(crate) fn migrate_worker(ctx: &ThreadCtx<'_>, params: &AppParams, worker: usize) {
    if params.variant != Variant::Baseline {
        ctx.migrate(params.node_of(worker)).expect("node exists");
    }
}

/// The matching backward migration at the end of the parallel region.
pub(crate) fn migrate_home(ctx: &ThreadCtx<'_>, params: &AppParams) {
    if params.variant != Variant::Baseline {
        ctx.migrate_back().expect("origin exists");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_assignment_is_blocked() {
        let p = AppParams::new(4, Variant::Initial);
        assert_eq!(p.total_threads(), 32);
        assert_eq!(p.node_of(0), NodeId(0));
        assert_eq!(p.node_of(7), NodeId(0));
        assert_eq!(p.node_of(8), NodeId(1));
        assert_eq!(p.node_of(31), NodeId(3));
    }

    #[test]
    fn baseline_stays_on_one_node() {
        let p = AppParams::new(4, Variant::Baseline);
        assert_eq!(p.total_threads(), 8);
        assert_eq!(p.node_of(7), NodeId(0));
        assert_eq!(p.cluster_config().nodes, 1);
    }

    #[test]
    fn mix_is_order_sensitive() {
        let a = mix(mix(0xcbf29ce484222325, 1), 2);
        let b = mix(mix(0xcbf29ce484222325, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn round_i64_matches_f64_round() {
        let ulp = |x: f64, up: bool| {
            let step = if (x > 0.0) == up { 1 } else { -1i64 };
            f64::from_bits((x.to_bits() as i64 + step) as u64)
        };
        let mut inputs = vec![0.0, -0.0, 0.49999999999999994, -0.49999999999999994];
        for k in 0..2000 {
            for half in [k as f64 + 0.5, -(k as f64 + 0.5)] {
                inputs.extend([half, ulp(half, true), ulp(half, false)]);
            }
            inputs.extend([k as f64 * 0.37, k as f64 * -1.13e6]);
        }
        let two52 = 4_503_599_627_370_496.0;
        for big in [
            two52 - 0.5,
            two52,
            two52 + 1.0,
            9.007e15,
            1e18,
            9.2e18,
            2f64.powi(63),
        ] {
            inputs.extend([big, -big, ulp(big, true), ulp(big, false)]);
        }
        inputs.extend([1e300, -1e300, f64::MAX, f64::MIN, f64::MIN_POSITIVE]);
        inputs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for x in inputs {
            assert_eq!(round_i64(x), x.round() as i64, "round_i64({x:e})");
        }
    }

    #[test]
    fn quantize_is_stable() {
        assert_eq!(quantize(1.25), quantize(1.25));
        assert_ne!(quantize(1.25), quantize(1.2500019));
        assert_eq!(quantize(0.0), 0);
    }
}
