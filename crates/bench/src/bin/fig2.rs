//! Figure 2 — Scalability of applications on DEX.
//!
//! For every application and node count, runs the initial and optimized
//! ports and prints the speedup normalized to the original, unmodified
//! application on a single node (8 threads) — the same presentation as the
//! paper's figure.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dex-bench --release --bin fig2               # all apps, 1..8 nodes
//! cargo run -p dex-bench --release --bin fig2 -- --app KMN  # one app
//! cargo run -p dex-bench --release --bin fig2 -- --quick    # node counts 1,2,4,8
//! cargo run -p dex-bench --release --bin fig2 -- --smoke    # KMN only, 1-2 nodes (CI)
//! ```

use dex_apps::{reference_checksum, run_app, AppParams, Variant, ALL_APPS};
use dex_bench::{arg_flag, arg_value, render_table};

fn main() {
    let smoke = dex_bench::smoke();
    let only = arg_value("--app");
    let node_counts: Vec<usize> = if smoke {
        vec![1, 2]
    } else if arg_flag("--quick") {
        vec![1, 2, 4, 8]
    } else {
        (1..=8).collect()
    };
    let apps: Vec<&str> = if smoke && only.is_none() {
        vec!["KMN"]
    } else {
        ALL_APPS
            .iter()
            .copied()
            .filter(|a| only.as_deref().is_none_or(|o| o.eq_ignore_ascii_case(a)))
            .collect()
    };

    println!("Figure 2: speedup vs unmodified single-node run (8 threads/node)");
    println!("baseline = original application, 1 node; checksums verified per run\n");

    let mut header: Vec<String> = vec!["app".into(), "variant".into()];
    for n in &node_counts {
        header.push(format!("{n}n"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    let mut runs: u64 = 0;
    let mut representative = None;
    let last_n = *node_counts.last().expect("node counts nonempty");
    for app in &apps {
        let baseline = run_app(app, &AppParams::new(1, Variant::Baseline));
        // The reference depends on the seed and scale alone, which every
        // cell of the sweep shares.
        let reference = reference_checksum(app, &baseline.params);
        let input_of = |p: &AppParams| (p.seed, p.scale);
        assert_eq!(
            baseline.checksum, reference,
            "{app} baseline checksum mismatch"
        );
        let base = baseline.elapsed.as_secs_f64();
        for variant in [Variant::Initial, Variant::Optimized] {
            let mut row = vec![app.to_string(), variant.to_string()];
            for &n in &node_counts {
                let result = run_app(app, &AppParams::new(n, variant));
                assert_eq!(input_of(&result.params), input_of(&baseline.params));
                assert_eq!(
                    result.checksum, reference,
                    "{app} {variant} @ {n} nodes checksum mismatch"
                );
                row.push(format!("{:.2}", base / result.elapsed.as_secs_f64()));
                runs += 1;
                // The regression-tracked run: the first app's optimized
                // port at the highest node count.
                if app == &apps[0] && variant == Variant::Optimized && n == last_n {
                    representative = Some(result);
                }
            }
            rows.push(row);
            eprintln!("  finished {app} {variant}");
        }
    }
    println!("{}", render_table(&header_refs, &rows));

    let rep = representative.expect("the sweep ran");
    dex_bench::BenchResult::from_report("fig2", &rep.report)
        .with_extra("runs", runs)
        .with_extra("nodes", last_n as u64)
        .write()
        .expect("write bench result");
    println!("Paper shape: EP/BLK/BP scale unmodified (BP super-linearly at 2");
    println!("nodes); optimizing lets GRP, KMN and BT beat one machine; FT and");
    println!("BFS stay communication-bound below 1x (six of eight scale).");
}
