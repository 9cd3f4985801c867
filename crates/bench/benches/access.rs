//! Criterion bench: host cost of a typed access that does not fault.
//!
//! One thread at the origin touches its data once, so every timed access is
//! a hit: the PTE check plus the copy to or from the resident frame. Each
//! line reports ns per access (`ns/element`): a `get`/`set` of one `u64`, a
//! one-page `read_slice`/`write_slice` of `u64` (512 elements) and of
//! `[f64; 3]` (170 elements), and a 48 KiB `[f64; 3]` slice (2048 elements,
//! twelve pages). An iteration boots a two-node cluster first, about
//! 25 µs on a 2-vCPU x86_64 VM; the access counts below keep that under
//! 3 % of a line.
//!
//! `cargo bench -p dex-bench --bench access`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dex_core::{Cluster, ClusterConfig, DsmScalar, DsmVec, ThreadCtx};

/// Runs `body` `reps` times in one thread at the origin, after touching
/// every page of a `len`-element vector (zero-filled, written once) so that
/// no timed access faults.
fn hits<T: DsmScalar + Default>(
    len: usize,
    reps: usize,
    body: fn(&ThreadCtx<'_>, DsmVec<T>, &mut [T]),
) {
    let cluster = Cluster::new(ClusterConfig::new(2));
    cluster.run(|p| {
        let v = p.alloc_vec_aligned::<T>(len, "data");
        p.spawn(move |ctx| {
            let mut buf = vec![T::default(); len];
            v.write_slice(ctx, 0, &buf);
            for _ in 0..reps {
                body(ctx, v, &mut buf);
            }
            std::hint::black_box(&buf);
        });
    });
}

fn get(ctx: &ThreadCtx<'_>, v: DsmVec<u64>, buf: &mut [u64]) {
    buf[0] = buf[0].wrapping_add(v.get(ctx, std::hint::black_box(7)));
}

fn set(ctx: &ThreadCtx<'_>, v: DsmVec<u64>, buf: &mut [u64]) {
    v.set(ctx, std::hint::black_box(7), buf[0]);
}

fn read<T: DsmScalar>(ctx: &ThreadCtx<'_>, v: DsmVec<T>, buf: &mut [T]) {
    v.read_slice(ctx, 0, buf);
}

fn write<T: DsmScalar>(ctx: &ThreadCtx<'_>, v: DsmVec<T>, buf: &mut [T]) {
    v.write_slice(ctx, 0, buf);
}

type Point = [f64; 3];

fn access(c: &mut Criterion) {
    let mut group = c.benchmark_group("access");

    const HITS: usize = 200_000;
    group.throughput(Throughput::Elements(HITS as u64));
    group.bench_function("hit_get_u64", |b| b.iter(|| hits(8, HITS, get)));
    group.bench_function("hit_set_u64", |b| b.iter(|| hits(8, HITS, set)));

    const PAGES: usize = 20_000;
    group.throughput(Throughput::Elements(PAGES as u64));
    group.bench_function("page_read_slice_u64", |b| {
        b.iter(|| hits::<u64>(512, PAGES, read))
    });
    group.bench_function("page_write_slice_u64", |b| {
        b.iter(|| hits::<u64>(512, PAGES, write))
    });
    group.bench_function("page_read_slice_f64x3", |b| {
        b.iter(|| hits::<Point>(170, PAGES, read))
    });
    group.bench_function("page_write_slice_f64x3", |b| {
        b.iter(|| hits::<Point>(170, PAGES, write))
    });

    const WIDE: usize = 2_000;
    group.throughput(Throughput::Elements(WIDE as u64));
    group.bench_function("48k_read_slice_f64x3", |b| {
        b.iter(|| hits::<Point>(2048, WIDE, read))
    });
    group.bench_function("48k_write_slice_f64x3", |b| {
        b.iter(|| hits::<Point>(2048, WIDE, write))
    });

    group.finish();
}

criterion_group!(benches, access);
criterion_main!(benches);
