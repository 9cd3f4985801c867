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

/// A speedup above this beats one machine: the app "scales".
const SCALES: f64 = 1.0;
/// BP's speedup at 2 nodes above this is super-linear.
const SUPER_LINEAR_AT_2: f64 = 2.0;
/// How far below its peak an app that peaks early must end.
const DECLINE: f64 = 0.05;

/// One row of the table: an app's port and its speedup per node count.
struct Row {
    app: &'static str,
    variant: Variant,
    speedup: Vec<f64>,
}

impl Row {
    /// The highest speedup at two nodes or more, and its node count.
    fn peak(&self, nodes: &[usize]) -> (f64, usize) {
        let cells = nodes.iter().zip(&self.speedup).filter(|(n, _)| **n >= 2);
        let (n, s) = cells
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("a count of 2+");
        (*s, *n)
    }
}

/// The paper's shape claims for Figure 2, each judged on `table` with its
/// threshold in its text: `(holds, claim)`. `None` unless every app ran
/// at 2 nodes.
fn shape_claims(table: &[Row], nodes: &[usize]) -> Option<Vec<(bool, String)>> {
    let row = |app: &str, variant| table.iter().find(|r| r.app == app && r.variant == variant);
    let ports = |app| Some([row(app, Variant::Initial)?, row(app, Variant::Optimized)?]);
    // An app's better port, by its peak.
    let best = |app| {
        let [init, opt] = ports(app)?;
        Some(if init.peak(nodes).0 > opt.peak(nodes).0 {
            init
        } else {
            opt
        })
    };
    let two = nodes.iter().position(|&n| n == 2)?;
    let last = nodes.len() - 1;
    let bests = ALL_APPS
        .iter()
        .map(|&a| best(a))
        .collect::<Option<Vec<_>>>()?;
    let scaling: Vec<&Row> = bests
        .into_iter()
        .filter(|r| r.peak(nodes).0 > SCALES)
        .collect();
    let names: Vec<&str> = scaling.iter().map(|r| r.app).collect();

    let bp2 = row("BP", Variant::Initial)?.speedup[two];
    let bound = [ports("FT")?, ports("BFS")?].concat();
    let highest = bound.iter().map(|r| r.peak(nodes).0).fold(0.0, f64::max);
    let mut only_optimized = true;
    let mut grp_kmn = Vec::new();
    for app in ["GRP", "KMN"] {
        let [init, opt] = ports(app)?.map(|r| r.peak(nodes));
        only_optimized &= init.0 <= SCALES && opt.0 > SCALES;
        grp_kmn.push(format!(
            "{app} initial {:.2}x ({}n), optimized {:.2}x ({}n)",
            init.0, init.1, opt.0, opt.1
        ));
    }
    let early: Vec<&Row> = scaling
        .iter()
        .copied()
        .filter(|r| r.peak(nodes).1 != nodes[last])
        .collect();
    let declines = early
        .iter()
        .all(|r| r.speedup[last] <= r.peak(nodes).0 * (1.0 - DECLINE));
    let drops: Vec<String> = early
        .iter()
        .map(|r| {
            let (peak, n) = r.peak(nodes);
            format!("{} {peak:.2}x ({n}n) -> {:.2}x", r.app, r.speedup[last])
        })
        .collect();

    Some(vec![
        (
            scaling.len() == 6,
            format!(
                "six of eight scale (a port peaks above {SCALES:.2}x at n >= 2): {} of 8, {}",
                scaling.len(),
                names.join(" ")
            ),
        ),
        (
            bp2 > SUPER_LINEAR_AT_2,
            format!(
                "BP is super-linear from 1 to 2 nodes (initial above {SUPER_LINEAR_AT_2:.2}x \
                 at 2n): {bp2:.2}x"
            ),
        ),
        (
            highest < SCALES,
            format!("FT and BFS stay below {SCALES:.2}x for n >= 2: highest {highest:.2}x"),
        ),
        (
            only_optimized,
            format!(
                "GRP and KMN scale only when optimized (initial peak at most {SCALES:.2}x, \
                 optimized above): {}",
                grp_kmn.join("; ")
            ),
        ),
        (
            !early.is_empty() && declines,
            format!(
                "speedup declines past its peak (scalers peaking before {}n end {:.0}% or more \
                 below it): {}",
                nodes[last],
                DECLINE * 100.0,
                drops.join(", ")
            ),
        ),
    ])
}

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
    let mut table = Vec::new();
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
            let mut speedup = Vec::new();
            for &n in &node_counts {
                let result = run_app(app, &AppParams::new(n, variant));
                assert_eq!(input_of(&result.params), input_of(&baseline.params));
                assert_eq!(
                    result.checksum, reference,
                    "{app} {variant} @ {n} nodes checksum mismatch"
                );
                speedup.push(base / result.elapsed.as_secs_f64());
                row.push(format!("{:.2}", speedup[speedup.len() - 1]));
                runs += 1;
                // The regression-tracked run: the first app's optimized
                // port at the highest node count.
                if app == &apps[0] && variant == Variant::Optimized && n == last_n {
                    representative = Some(result);
                }
            }
            rows.push(row);
            table.push(Row {
                app,
                variant,
                speedup,
            });
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
    match shape_claims(&table, &node_counts) {
        Some(claims) => {
            println!("Paper shape claims, judged on the table:");
            for (holds, claim) in claims {
                println!("  {}  {claim}", if holds { "holds" } else { "FAILS" });
            }
        }
        None => println!("Paper shape claims: not judged (they need all eight apps)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Evaluation`-scale table at 1, 2, 4 and 8 nodes.
    fn table() -> Vec<Row> {
        let rows: [(&str, [f64; 4], [f64; 4]); 8] = [
            ("GRP", [1.0, 1.18, 1.10, 0.14], [1.0, 1.31, 1.78, 1.50]),
            ("KMN", [1.0, 0.67, 0.53, 0.46], [1.0, 1.61, 2.01, 1.89]),
            ("BT", [1.0, 0.71, 0.56, 0.47], [1.0, 1.41, 1.36, 1.10]),
            ("EP", [1.0, 1.93, 3.70, 6.75], [1.0, 1.93, 3.70, 6.75]),
            ("FT", [1.0, 0.30, 0.20, 0.12], [1.0, 0.30, 0.20, 0.12]),
            ("BLK", [1.0, 1.89, 3.54, 5.94], [1.0, 1.89, 3.54, 5.94]),
            ("BFS", [1.0, 0.13, 0.07, 0.04], [7.46, 0.42, 0.21, 0.12]),
            ("BP", [1.0, 2.41, 2.11, 1.41], [1.0, 2.46, 1.76, 1.32]),
        ];
        let row = |app, variant, s: [f64; 4]| Row {
            app,
            variant,
            speedup: s.to_vec(),
        };
        rows.into_iter()
            .flat_map(|(app, i, o)| {
                [
                    row(app, Variant::Initial, i),
                    row(app, Variant::Optimized, o),
                ]
            })
            .collect()
    }

    #[test]
    fn each_claim_is_judged_on_the_table() {
        let nodes = [1, 2, 4, 8];
        let mut table = table();
        let holds = |t: &[Row]| -> Vec<bool> {
            let claims = shape_claims(t, &nodes).expect("every app ran");
            claims.into_iter().map(|c| c.0).collect()
        };
        // GRP's initial port beats one machine at 2 nodes: the one failure.
        assert_eq!(holds(&table), [true, true, true, false, true]);
        table[0].speedup = vec![1.0, 0.9, 0.8, 0.1];
        assert_eq!(holds(&table), [true; 5]);
        // BP loses its super-linear step; FT creeps above 1x, a seventh
        // app that scales; EP peaks at 4 nodes and barely declines.
        table[14].speedup[1] = 1.9;
        table[8].speedup[2] = 1.01;
        for ep in &mut table[6..8] {
            ep.speedup = vec![1.0, 1.9, 3.7, 3.6];
        }
        assert_eq!(holds(&table), [false, false, false, true, false]);
        table.pop();
        assert!(shape_claims(&table, &nodes).is_none());
    }
}
