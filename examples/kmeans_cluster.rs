//! K-means across a rack, with the profiling workflow from §IV.
//!
//! Runs the paper's KMN application in its *initial* (blindly converted)
//! form under the page-fault profiler, prints the analyses a developer
//! would use to find the bottlenecks, then runs the *optimized* form and
//! shows the improvement — the full §IV → §V-C loop in one binary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example kmeans_cluster
//! ```

use dex::apps::{kmn, reference_checksum, run_app_with_config, AppParams, Variant};
use dex::prof::{render_report, Profile, ReportOptions};
use dex_sim::SimDuration;

fn main() {
    let nodes = 4;

    // Step 1: run the blind conversion under tracing.
    let initial_params = AppParams::new(nodes, Variant::Initial);
    let traced = initial_params.cluster_config().with_spans();
    let initial = run_app_with_config("KMN", &initial_params, traced);
    assert_eq!(
        initial.checksum,
        reference_checksum("KMN", &initial_params),
        "distributed k-means must match the sequential reference"
    );
    println!(
        "initial port: {} on {} nodes ({} faults, {} invalidations)\n",
        initial.elapsed,
        nodes,
        initial.stats.total_faults(),
        initial.stats.invalidations
    );

    // Step 2: profile — what is causing the cross-node traffic?
    let profile = Profile::from_spans(&initial.report.spans);
    let options = ReportOptions {
        top_pages: 5,
        top_sites: 5,
        timeline_bucket: SimDuration::from_millis(5),
    };
    println!("{}", render_report(&profile, &options));

    // Step 3: the optimized port (staged updates, page-aligned objects).
    let optimized_params = AppParams::new(nodes, Variant::Optimized);
    let optimized = kmn::run(&optimized_params);
    assert_eq!(
        optimized.checksum,
        reference_checksum("KMN", &optimized_params)
    );

    let baseline = kmn::run(&AppParams::new(1, Variant::Baseline));
    let speedup_initial = baseline.elapsed.as_secs_f64() / initial.elapsed.as_secs_f64();
    let speedup_optimized = baseline.elapsed.as_secs_f64() / optimized.elapsed.as_secs_f64();

    println!("single-machine baseline : {}", baseline.elapsed);
    println!(
        "initial on {nodes} nodes    : {} ({speedup_initial:.2}x)",
        initial.elapsed
    );
    println!(
        "optimized on {nodes} nodes  : {} ({speedup_optimized:.2}x)",
        optimized.elapsed
    );
    println!(
        "\nwrite faults {} -> {}: staging centroid updates locally and",
        initial.stats.write_faults, optimized.stats.write_faults
    );
    println!("aligning per-thread data removed the page ping-pong (§V-C).");
}
