//! BT — block tri-diagonal solver (NPB, OpenMP with 15 parallel regions).
//!
//! BT executes many parallel regions per timestep. The paper's conversion
//! triggers migration around each OpenMP region, and its profiling found
//! two hazards specific to BT (§V-C):
//!
//! * *loop-range parameters*: read-only after setup, but co-located on the
//!   same page as frequently-updated globals — every serial-section write
//!   invalidates the parameter page on all nodes, so every thread
//!   re-faults it at every region;
//! * *parent-stack reads*: children read per-region values from the
//!   parent's stack page, which the parent keeps writing.
//!
//! The optimized port moves the read-only parameters to their own
//! replicable pages and passes region arguments explicitly.
//!
//! Workers are forked (and migrated) once per timestep and run the
//! regions barrier-separated — at the reproduction's reduced region
//! granularity, per-region re-migration would be pure overhead
//! (DESIGN.md documents this deviation).

use crate::{migrate_home, migrate_worker, mix, run_cluster, AppParams, AppResult, Scale, Variant};

/// Abstract ops per grid element per region (block tri-diagonal solves
/// do dozens of flops per cell).
const OPS_PER_ELEMENT: u64 = 200;

struct Dims {
    rows: usize,
    cols: usize,
    iters: usize,
    regions: usize,
}

fn dims(scale: Scale) -> Dims {
    match scale {
        Scale::Test => Dims {
            rows: 64,
            cols: 64,
            iters: 2,
            regions: 3,
        },
        Scale::Evaluation => Dims {
            rows: 2048,
            cols: 128,
            iters: 2,
            regions: 5,
        },
    }
}

fn initial_grid(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = dex_sim::SimRng::new(seed ^ 0x4254);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Per-region parameter (the loop-range constants): pure function of
/// (iteration, region) so every variant computes identical results.
fn region_param(iter: usize, region: usize) -> u64 {
    (iter as u64) << 32 | region as u64
}

fn transform(v: u64, param: u64) -> u64 {
    v.wrapping_add(param)
        .wrapping_mul(0x2545F4914F6CDD1D)
        .rotate_left(23)
}

/// Runs BT under the given parameters.
pub fn run(params: &AppParams) -> AppResult {
    let d = dims(params.scale);
    let n = d.rows * d.cols;
    let grid0 = initial_grid(params.seed, n);
    let threads = params.total_threads();
    let optimized = params.variant == Variant::Optimized;

    let mut grid_handle = None;
    let params2 = params.clone();
    let report = run_cluster(params, |p| {
        let grid = if optimized {
            p.alloc_vec_aligned::<u64>(n, "grid")
        } else {
            p.alloc_vec::<u64>(n, "grid")
        };
        grid.init(p, &grid0);
        grid_handle = Some(grid);

        // Loop-range parameters, one slot per region. Initial: packed on
        // the same page as the mutable progress counter. Optimized: own
        // page, counter elsewhere.
        let (region_params, progress) = if optimized {
            (
                p.alloc_vec_aligned::<u64>(d.regions, "loop_params"),
                p.alloc_cell_aligned::<u64>(0, "progress_counter"),
            )
        } else {
            (
                p.alloc_vec::<u64>(d.regions, "loop_params"),
                p.alloc_cell_tagged::<u64>(0, "progress_counter"),
            )
        };
        // The residual norm accumulator: the "frequently updated" global
        // the paper found co-located with the loop parameters. The
        // initial port updates it from every thread every row; the
        // optimized port stages it locally and merges once per timestep.
        let residual = if optimized {
            p.alloc_cell_aligned::<u64>(0, "residual_norm")
        } else {
            p.alloc_cell_tagged::<u64>(0, "residual_norm")
        };
        // The parent's stack page, from which children read per-region
        // values in the initial port.
        let parent_stack = p.alloc_vec::<u64>(8, "parent_stack");

        let rows_per_worker = d.rows.div_ceil(threads);
        let params_outer = params2.clone();
        p.spawn(move |ctx| {
            for iter in 0..d.iters {
                // Serial section: main prepares this timestep's region
                // parameters (writes to the param page).
                ctx.set_site("bt.serial_setup");
                let values: Vec<u64> = (0..d.regions).map(|r| region_param(iter, r)).collect();
                region_params.write_slice(ctx, 0, &values);
                parent_stack.set(ctx, 0, iter as u64);
                ctx.compute_ops(1_000);

                // Fork the timestep's workers (the OpenMP region team).
                let barrier = ctx.new_barrier(threads as u32, "region_barrier");
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let params = params_outer.clone();
                        ctx.spawn_thread(format!("bt-w{w}-i{iter}"), move |ctx| {
                            migrate_worker(ctx, &params, w);
                            let first_row = w * rows_per_worker;
                            let last_row = ((w + 1) * rows_per_worker).min(d.rows);
                            let mut row = vec![0u64; d.cols];
                            for region in 0..d.regions {
                                // Read the loop parameters — refaults every
                                // region in the initial port because the
                                // progress counter dirties the page.
                                ctx.set_site("bt.read_params");
                                let param = region_params.get(ctx, region);
                                let expected = region_param(iter, region);
                                assert_eq!(param, expected, "param page corrupt");
                                if !optimized {
                                    // Children also read the parent stack.
                                    ctx.set_site("bt.parent_stack_read");
                                    let _ = parent_stack.get(ctx, 0);
                                }
                                ctx.set_site("bt.region_compute");
                                let mut local_residual = 0u64;
                                for r in first_row..last_row {
                                    grid.read_slice(ctx, r * d.cols, &mut row);
                                    for v in row.iter_mut() {
                                        *v = transform(*v, param);
                                    }
                                    grid.write_slice(ctx, r * d.cols, &row);
                                    ctx.compute_ops(d.cols as u64 * OPS_PER_ELEMENT);
                                    let rnorm = row.iter().fold(0u64, |a, v| a.wrapping_add(*v));
                                    if optimized {
                                        local_residual = local_residual.wrapping_add(rnorm);
                                    } else {
                                        // The original accumulates the norm
                                        // into the shared global per row —
                                        // and that global shares a page
                                        // with the loop parameters.
                                        ctx.set_site("bt.residual_update");
                                        residual.rmw(ctx, |v| v.wrapping_add(rnorm));
                                        ctx.set_site("bt.region_compute");
                                    }
                                }
                                if optimized && local_residual != 0 {
                                    ctx.set_site("bt.residual_merge");
                                    residual.rmw(ctx, |v| v.wrapping_add(local_residual));
                                }
                                barrier.wait(ctx);
                                if w == 0 {
                                    // Serial tail of the region: bump the
                                    // progress counter (on the param page
                                    // in the initial port!) and scribble
                                    // on the parent stack.
                                    ctx.set_site("bt.serial_tail");
                                    progress.rmw(ctx, |v| v + 1);
                                    if !optimized {
                                        parent_stack.set(
                                            ctx,
                                            1,
                                            (iter * d.regions + region) as u64,
                                        );
                                    }
                                }
                                barrier.wait(ctx);
                            }
                            migrate_home(ctx, &params);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join(ctx);
                }
            }
        });
    });

    let values = grid_handle.expect("allocated").snapshot(&report);
    let mut sum = 0u64;
    for v in &values {
        sum = sum.wrapping_add(*v);
    }
    let checksum = mix(0xcbf29ce484222325, sum);
    AppResult {
        name: "BT",
        params: params.clone(),
        elapsed: report.virtual_time,
        checksum,
        stats: report.stats,
        report,
    }
}

/// Sequential reference checksum.
pub fn reference_checksum(params: &AppParams) -> u64 {
    let d = dims(params.scale);
    let mut grid = initial_grid(params.seed, d.rows * d.cols);
    for iter in 0..d.iters {
        for region in 0..d.regions {
            let param = region_param(iter, region);
            for v in grid.iter_mut() {
                *v = transform(*v, param);
            }
        }
    }
    let mut sum = 0u64;
    for v in &grid {
        sum = sum.wrapping_add(*v);
    }
    mix(0xcbf29ce484222325, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_composes_deterministically() {
        let a = transform(transform(5, 1), 2);
        let b = transform(transform(5, 1), 2);
        assert_eq!(a, b);
        assert_ne!(a, transform(transform(5, 2), 1));
    }

    #[test]
    fn initial_matches_reference() {
        let params = AppParams::test(2, Variant::Initial);
        assert_eq!(run(&params).checksum, reference_checksum(&params));
    }

    #[test]
    fn optimized_matches_reference() {
        let params = AppParams::test(2, Variant::Optimized);
        assert_eq!(run(&params).checksum, reference_checksum(&params));
    }

    #[test]
    fn optimized_cuts_param_page_refaults() {
        // Count the fault-record events (protocol faults and the
        // revocations they cause) attributed to the loop-parameter
        // object: the initial port re-pulls the page every region because
        // the progress counter dirties it; the optimized port replicates
        // it once per node.
        fn param_faults(variant: Variant) -> usize {
            let mut p = AppParams::new(2, variant);
            p.threads_per_node = 4;
            let r = crate::run_app_with_config("BT", &p, p.cluster_config().with_spans());
            r.report
                .spans
                .iter()
                .filter(|s| s.addr.is_some() && s.label != "minor_fault")
                .filter(|s| s.tag == Some("loop_params"))
                .count()
        }
        let initial = param_faults(Variant::Initial);
        let optimized = param_faults(Variant::Optimized);
        assert!(
            optimized * 3 < initial.max(1),
            "optimized {optimized} vs initial {initial}"
        );
    }

    #[test]
    fn workers_remigrate_every_timestep() {
        let params = AppParams::test(2, Variant::Initial);
        let result = run(&params);
        let d = dims(params.scale);
        // Workers on non-origin nodes migrate once per timestep.
        let remote_workers = params.total_threads() - params.threads_per_node;
        assert_eq!(
            result.stats.forward_migrations,
            (remote_workers * d.iters) as u64
        );
    }
}
