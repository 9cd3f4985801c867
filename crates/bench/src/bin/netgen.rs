//! Network-generation study — quantifying the paper's motivation (§II).
//!
//! The paper argues classic DSM failed because 1980s/90s networks were
//! "several orders of magnitude" slower than local memory, and that
//! modern interconnects (InfiniBand, Gen-Z class) change the answer. This
//! harness runs the same optimized applications on the same cluster while
//! sweeping the fabric across four generations, showing where the
//! transparent-DSM approach crosses from hopeless to profitable.
//!
//! ```text
//! cargo run -p dex-bench --release --bin netgen
//! ```

use dex_apps::{reference_checksum, run_app, run_app_with_config, AppParams, Variant};
use dex_bench::render_table;
use dex_net::NetConfig;

fn main() {
    let nodes = 4;
    let fabrics: [(&str, NetConfig); 4] = [
        ("100 Mb Ethernet ('90s DSM era)", NetConfig::ethernet_100m()),
        ("10 Gb Ethernet (no RDMA)", NetConfig::ethernet_10g()),
        (
            "56 Gb InfiniBand (paper testbed)",
            NetConfig::infiniband_56g(),
        ),
        (
            "400 Gb Gen-Z class (\u{a7}II outlook)",
            NetConfig::next_gen_400g(),
        ),
    ];

    println!("Network-generation study: optimized apps, {nodes} nodes, speedup vs");
    println!("the unmodified single-node run, across four fabric generations\n");

    let apps: &[&str] = if dex_bench::smoke() {
        &["KMN"]
    } else {
        &["KMN", "EP", "BLK"]
    };
    let mut rows = Vec::new();
    let mut representative = None;
    for app in apps {
        let base = run_app(app, &AppParams::new(1, Variant::Baseline))
            .elapsed
            .as_secs_f64();
        let mut row = vec![app.to_string()];
        // One reference per app: every fabric runs the same seed and scale.
        let params = AppParams::new(nodes, Variant::Optimized);
        let reference = reference_checksum(app, &params);
        for (_, net) in &fabrics {
            let config = params.cluster_config().with_net(net.clone());
            // Run through the cluster built with the custom fabric.
            let result = run_app_with_config(app, &params, config);
            assert_eq!(
                (result.params.seed, result.params.scale),
                (params.seed, params.scale)
            );
            assert_eq!(
                result.checksum, reference,
                "{app} must stay correct on every fabric"
            );
            row.push(format!("{:.2}", base / result.elapsed.as_secs_f64()));
            // Regression-track the first app on the paper's testbed fabric.
            if app == &apps[0] && std::ptr::eq(net, &fabrics[2].1) {
                representative = Some(result);
            }
        }
        rows.push(row);
        eprintln!("  finished {app}");
    }

    let header: Vec<&str> = std::iter::once("app")
        .chain(fabrics.iter().map(|(name, _)| *name))
        .collect();
    println!("{}", render_table(&header, &rows));
    println!("Reading: on the '90s fabric every distributed run loses badly to one");
    println!("machine — the paper's explanation for why classic DSM was abandoned.");
    println!("The crossover arrives with RDMA-class networks, and the headroom");
    println!("keeps growing with the next generation.");

    let rep = representative.expect("the sweep ran");
    dex_bench::BenchResult::from_report("netgen", &rep.report)
        .with_extra("nodes", nodes as u64)
        .write()
        .expect("write bench result");
}
