//! BLK — Black-Scholes option pricing (PARSEC, pthread variant).
//!
//! Prices a batch of European options with the closed-form model: inputs
//! are read-only (they replicate cleanly under DEX) and each thread writes
//! a disjoint slice of the result array. The only cross-node interference
//! in the *initial* port is partition-boundary pages of the packed result
//! array; the *optimized* port page-aligns each thread's result slab.

use crate::workloads::{black_scholes, option_batch, OptionContract};
use crate::{
    migrate_home, migrate_worker, mix, quantize, run_cluster, AppParams, AppResult, Scale, Variant,
};

/// Abstract ops per option: PARSEC evaluates the closed form NUM_RUNS=100
/// times per option (logs, exp, polynomial CND each time).
const OPS_PER_OPTION: u64 = 20_000;
const CHUNK: usize = 512;

fn batch_size(scale: Scale) -> usize {
    match scale {
        Scale::Test => 4_096,
        Scale::Evaluation => 131_072,
    }
}

fn encode(option: &OptionContract) -> [f64; 6] {
    [
        option.spot,
        option.strike,
        option.rate,
        option.volatility,
        option.expiry,
        if option.call { 1.0 } else { 0.0 },
    ]
}

fn decode(raw: &[f64; 6]) -> OptionContract {
    OptionContract {
        spot: raw[0],
        strike: raw[1],
        rate: raw[2],
        volatility: raw[3],
        expiry: raw[4],
        call: raw[5] > 0.5,
    }
}

/// Runs BLK under the given parameters.
pub fn run(params: &AppParams) -> AppResult {
    let n = batch_size(params.scale);
    let options = option_batch(params.seed, n);
    let threads = params.total_threads();
    let optimized = params.variant == Variant::Optimized;

    let mut price_handles = Vec::new();
    let params2 = params.clone();
    let per_worker = n.div_ceil(threads);
    let report = run_cluster(params, |p| {
        let inputs = p.alloc_vec::<[f64; 6]>(n, "options");
        inputs.init(p, &options.iter().map(encode).collect::<Vec<_>>());

        // Result storage: one packed array (initial) vs per-thread
        // page-aligned slabs (optimized, the posix_memalign fix).
        let packed = p.alloc_vec::<u64>(n, "prices");
        let slabs: Vec<_> = (0..threads)
            .map(|w| p.alloc_vec_aligned::<u64>(per_worker, &format!("prices_t{w}")))
            .collect();
        if optimized {
            price_handles = slabs.clone();
        } else {
            price_handles = vec![packed];
        }

        for (w, slab) in slabs.iter().copied().enumerate().take(threads) {
            let params = params2.clone();
            p.spawn(move |ctx| {
                migrate_worker(ctx, &params, w);
                ctx.set_site("blk.price_loop");
                let first = w * per_worker;
                let last = (first + per_worker).min(n);
                let mut in_buf = vec![[0f64; 6]; CHUNK];
                let mut out_buf = vec![0u64; CHUNK];
                let mut i = first;
                while i < last {
                    let len = CHUNK.min(last - i);
                    inputs.read_slice(ctx, i, &mut in_buf[..len]);
                    ctx.compute_ops(len as u64 * OPS_PER_OPTION);
                    for j in 0..len {
                        out_buf[j] = quantize(black_scholes(&decode(&in_buf[j])));
                    }
                    if optimized {
                        slab.write_slice(ctx, i - first, &out_buf[..len]);
                    } else {
                        packed.write_slice(ctx, i, &out_buf[..len]);
                    }
                    i += len;
                }
                migrate_home(ctx, &params);
            });
        }
    });

    // Reduce: wrapping sum of quantized prices (order-independent).
    let mut sum = 0u64;
    if optimized {
        for (w, slab) in price_handles.iter().enumerate() {
            let first = w * per_worker;
            let last = (first + per_worker).min(n);
            for v in slab
                .snapshot(&report)
                .iter()
                .take(last.saturating_sub(first))
            {
                sum = sum.wrapping_add(*v);
            }
        }
    } else {
        for v in price_handles[0].snapshot(&report) {
            sum = sum.wrapping_add(v);
        }
    }
    let checksum = mix(0xcbf29ce484222325, sum);
    AppResult {
        name: "BLK",
        params: params.clone(),
        elapsed: report.virtual_time,
        checksum,
        stats: report.stats,
        report,
    }
}

/// Sequential reference checksum.
pub fn reference_checksum(params: &AppParams) -> u64 {
    let options = option_batch(params.seed, batch_size(params.scale));
    let mut sum = 0u64;
    for o in options.iter() {
        sum = sum.wrapping_add(quantize(black_scholes(o)));
    }
    mix(0xcbf29ce484222325, sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let o = OptionContract {
            spot: 55.5,
            strike: 60.0,
            rate: 0.03,
            volatility: 0.25,
            expiry: 0.75,
            call: false,
        };
        let d = decode(&encode(&o));
        assert_eq!(d.spot, o.spot);
        assert_eq!(d.call, o.call);
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
    fn scales_beyond_single_node() {
        let one = run(&AppParams::test(1, Variant::Initial));
        let two = run(&AppParams::test(2, Variant::Initial));
        let speedup = one.elapsed.as_secs_f64() / two.elapsed.as_secs_f64();
        assert!(speedup > 1.2, "BLK speedup 1→2 nodes: {speedup:.2}");
    }
}
