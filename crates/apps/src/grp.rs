//! GRP — string match (Phoenix-style).
//!
//! Looks up four key strings in a text corpus and counts their
//! occurrences; the input is divided into partitions and each thread
//! counts occurrences in its partition (§V, "Benchmark applications").
//!
//! *Initial* conversion hazards (as the paper found): every occurrence
//! updates a global per-key counter, all four counters live on one page,
//! and per-thread scratch slots are packed onto a shared page — so remote
//! threads continually bounce those pages. The *optimized* version stages
//! counts thread-locally and merges once per thread at the end, with the
//! merge targets page-aligned (§V-C).

use crate::workloads::{count_keys, text_corpus};
use crate::{migrate_home, migrate_worker, mix, run_cluster, AppParams, AppResult, Scale, Variant};

const CHUNK: usize = 4096;
/// Scan cost: ~65 MB/s multi-key matching (30 abstract ops per byte at
/// the 0.5 ns/op model).
const OPS_PER_BYTE: u64 = 30;
/// Longest key, for chunk-boundary overlap.
const MAX_KEY: usize = 10;

fn text_len(scale: Scale) -> usize {
    match scale {
        Scale::Test => 64 * 1024,
        Scale::Evaluation => 8 * 1024 * 1024,
    }
}

/// Counts occurrences of each key *starting* in `[start, end)` of `text`.
/// Scans up to `MAX_KEY - 1` bytes past `end` so boundary matches are
/// attributed exactly once.
fn count_starting_in(text: &[u8], keys: &[Vec<u8>], start: usize, end: usize) -> Vec<u64> {
    keys.iter()
        .map(|key| {
            let mut n = 0u64;
            if key.is_empty() {
                return 0;
            }
            for pos in start..end.min(text.len()) {
                if text.len() - pos >= key.len() && &text[pos..pos + key.len()] == key.as_slice() {
                    n += 1;
                }
            }
            n
        })
        .collect()
}

/// Runs GRP under the given parameters.
pub fn run(params: &AppParams) -> AppResult {
    let len = text_len(params.scale);
    let corpus = text_corpus(params.seed, len);
    let keys = corpus.keys.clone();
    let threads = params.total_threads();
    let optimized = params.variant == Variant::Optimized;

    let mut counts_handle = None;
    let mut slots_handle = None;
    let params2 = params.clone();
    let report = run_cluster(params, |p| {
        let text = p.alloc_vec::<u8>(len, "text");
        text.init(p, &corpus.bytes);

        // Per-key global counters. Initial: packed on one page together
        // with the per-thread scratch slots. Optimized: page-aligned and
        // merged into only once per thread.
        let counts = p.alloc_vec::<u64>(keys.len(), "key_counts");
        counts_handle = Some(counts);
        let scratch = p.alloc_vec::<u64>(threads, "thread_scratch");
        // Match-position output buffers: the initial port allocates them
        // packed from the heap "without considering the locations of
        // other thread buffers" (§V-C) — 16 slots per thread share pages
        // across threads and nodes.
        let outputs = p.alloc_vec::<u64>(threads * 16, "match_outputs");
        // Optimized: page-aligned per-thread result slots written once at
        // the end (posix_memalign'd buffers, merged by the main thread).
        let slots = p.alloc_vec_aligned::<u64>(threads * 512, "thread_result_slots");
        slots_handle = Some(slots);

        let chunks = len.div_ceil(CHUNK);
        let per_worker = chunks.div_ceil(threads);
        for w in 0..threads {
            let keys = keys.clone();
            let params = params2.clone();
            p.spawn(move |ctx| {
                migrate_worker(ctx, &params, w);
                ctx.set_site("grp.scan");
                let first = w * per_worker;
                let last = (first + per_worker).min(chunks);
                let mut local = vec![0u64; keys.len()];
                let mut buf = vec![0u8; CHUNK + MAX_KEY];
                for c in first..last {
                    let start = c * CHUNK;
                    let end = (start + CHUNK).min(len);
                    let read_end = (end + MAX_KEY - 1).min(len);
                    let slice = &mut buf[..read_end - start];
                    text.read_slice(ctx, start, slice);
                    ctx.compute_ops((end - start) as u64 * OPS_PER_BYTE);
                    let found = count_starting_in(slice, &keys, 0, end - start);
                    for (k, n) in found.iter().enumerate() {
                        local[k] += n;
                        if !optimized && *n > 0 {
                            // The original program bumps the shared
                            // counter as it finds occurrences.
                            ctx.set_site("grp.global_count_update");
                            for occ in 0..*n {
                                let addr = counts.addr_of(k);
                                ctx.rmw_bytes(addr, 8, |b| {
                                    let v = u64::from_le_bytes(b.try_into().expect("8 bytes"));
                                    b.copy_from_slice(&(v + 1).to_le_bytes());
                                });
                                // Record the match position in this
                                // thread's packed output buffer.
                                ctx.set_site("grp.record_match");
                                outputs.set(ctx, w * 16 + (occ as usize % 16), start as u64);
                                ctx.set_site("grp.global_count_update");
                            }
                            ctx.set_site("grp.scan");
                        }
                    }
                    if !optimized {
                        // Progress written to a packed per-thread slot —
                        // co-located per-node data, the classic hazard.
                        ctx.set_site("grp.scratch_progress");
                        let total: u64 = local.iter().sum();
                        scratch.set(ctx, w, total);
                        ctx.set_site("grp.scan");
                    }
                }
                if optimized {
                    // Publish once into this thread's own aligned slot;
                    // the main thread reduces after the join.
                    ctx.set_site("grp.publish_results");
                    slots.write_slice(ctx, w * 512, &local);
                }
                migrate_home(ctx, &params);
            });
        }
    });

    let totals: Vec<u64> = if optimized {
        let raw = slots_handle.expect("allocated in setup").snapshot(&report);
        let mut sums = vec![0u64; keys.len()];
        for w in 0..threads {
            for (k, s) in sums.iter_mut().enumerate() {
                *s += raw[w * 512 + k];
            }
        }
        sums
    } else {
        counts_handle.expect("allocated in setup").snapshot(&report)
    };
    let mut checksum = 0xcbf29ce484222325;
    for t in &totals {
        checksum = mix(checksum, *t);
    }
    AppResult {
        name: "GRP",
        params: params.clone(),
        elapsed: report.virtual_time,
        checksum,
        stats: report.stats,
        report,
    }
}

/// Sequential reference checksum.
pub fn reference_checksum(params: &AppParams) -> u64 {
    let corpus = text_corpus(params.seed, text_len(params.scale));
    let counts = count_keys(&corpus.bytes, &corpus.keys);
    let mut checksum = 0xcbf29ce484222325;
    for c in &counts {
        checksum = mix(checksum, *c);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_count_equals_whole_count() {
        let corpus = text_corpus(3, 50_000);
        let whole = count_keys(&corpus.bytes, &corpus.keys);
        let mut partitioned = vec![0u64; corpus.keys.len()];
        for start in (0..corpus.bytes.len()).step_by(7_000) {
            let end = (start + 7_000).min(corpus.bytes.len());
            let counts = count_starting_in(&corpus.bytes, &corpus.keys, start, end);
            for (k, n) in counts.iter().enumerate() {
                partitioned[k] += n;
            }
        }
        assert_eq!(whole, partitioned);
    }

    #[test]
    fn initial_variant_matches_reference_on_two_nodes() {
        let params = AppParams::test(2, Variant::Initial);
        let result = run(&params);
        assert_eq!(result.checksum, reference_checksum(&params));
        // Only workers assigned to non-origin nodes actually migrate.
        assert!(result.stats.forward_migrations >= 4);
    }

    #[test]
    fn optimized_variant_matches_reference_on_two_nodes() {
        let params = AppParams::test(2, Variant::Optimized);
        let result = run(&params);
        assert_eq!(result.checksum, reference_checksum(&params));
    }

    #[test]
    fn baseline_runs_on_one_node_without_migration() {
        let params = AppParams::test(4, Variant::Baseline);
        let result = run(&params);
        assert_eq!(result.checksum, reference_checksum(&params));
        assert_eq!(result.stats.forward_migrations, 0);
    }

    #[test]
    fn optimization_reduces_write_faults() {
        // Contention only shows at evaluation scale (the test corpus is
        // too small for the counter storm to matter).
        let mut initial_params = AppParams::new(2, Variant::Initial);
        initial_params.threads_per_node = 4;
        let mut optimized_params = AppParams::new(2, Variant::Optimized);
        optimized_params.threads_per_node = 4;
        let initial = run(&initial_params);
        let optimized = run(&optimized_params);
        assert!(
            optimized.stats.write_faults * 4 < initial.stats.write_faults,
            "optimized {} vs initial {}",
            optimized.stats.write_faults,
            initial.stats.write_faults
        );
        assert!(
            optimized.elapsed < initial.elapsed,
            "optimized {} vs initial {}",
            optimized.elapsed,
            initial.elapsed
        );
    }
}
