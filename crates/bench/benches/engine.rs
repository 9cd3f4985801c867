//! Criterion bench: host cost of one engine event, on a bare engine.
//!
//! The first four shapes are the frozen benchmark's `sim.*` probes
//! (`benchmark/src/probes.rs`), so the engine can be iterated on here
//! without touching `benchmark/`. The last three are not frozen probes: they
//! are the shapes in which the thread that ends its turn is itself next, so
//! no context is switched — which the strictly alternating probes never
//! are — and `clock_reads` adds eight `now()` to each such event, about
//! what the fabric, the resources and the span sites read per message.
//! Each line reports ns per event (`ns/element`); `spawn` reports ns per
//! spawned thread (an `mmap`, an `mprotect` and a `munmap`).
//!
//! No pinning needed (`cargo bench -p dex-bench --bench engine`): every
//! simulated thread runs on the OS thread that called `run()`, so a
//! hand-off never crosses cores and pinned and unpinned runs read the same.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dex_sim::{Engine, SimDuration, ThreadId};

/// `threads` threads each `advance(1 ns)` `events` times: with two, a
/// strict alternation in which every event switches contexts; with 32, the
/// event queue and the slot table carry weight.
fn alternate(threads: u64, events: u64) {
    let engine = Engine::new();
    for t in 0..threads {
        engine.spawn(format!("t{t}"), move |ctx| {
            for _ in 0..events {
                ctx.advance(SimDuration::from_nanos(1));
            }
        });
    }
    engine.run().expect("no deadlock");
}

/// Two threads hand a baton back and forth with `unpark` + `park`.
fn park_unpark(rounds: u64) {
    let engine = Engine::new();
    let a_id = Arc::new(AtomicU64::new(0));
    let a_for_b = Arc::clone(&a_id);
    let b = engine.spawn("b", move |ctx| {
        for _ in 0..rounds {
            ctx.park();
            ctx.unpark(ThreadId(a_for_b.load(Ordering::SeqCst)));
        }
    });
    let a = engine.spawn("a", move |ctx| {
        for _ in 0..rounds {
            ctx.unpark(b);
            ctx.park();
        }
    });
    // Threads first run inside `run`, after this store.
    a_id.store(a.0, Ordering::SeqCst);
    engine.run().expect("no deadlock");
}

/// One thread `advance`s `events` times while `parked` others sit in
/// `park()` until it unparks them at the end: a fault path charging costs
/// while the rest of the cluster waits on messages.
fn one_runner(parked: u64, events: u64) {
    let engine = Engine::new();
    let sleepers: Vec<ThreadId> = (0..parked)
        .map(|p| engine.spawn(format!("p{p}"), |ctx| ctx.park()))
        .collect();
    engine.spawn("runner", move |ctx| {
        for _ in 0..events {
            ctx.advance(SimDuration::from_nanos(1));
        }
        for sleeper in sleepers {
            ctx.unpark(sleeper);
        }
    });
    engine.run().expect("no deadlock");
}

/// One thread reads the clock eight times around each of `events` advances.
fn clock_reads(events: u64) {
    let engine = Engine::new();
    engine.spawn("reader", move |ctx| {
        let mut sum = 0;
        for _ in 0..events {
            ctx.advance(SimDuration::from_nanos(1));
            for _ in 0..8 {
                sum += std::hint::black_box(ctx).now().as_nanos();
            }
        }
        std::hint::black_box(sum);
    });
    engine.run().expect("no deadlock");
}

/// One thread spawns `n` children that exit at once.
fn spawn_many(n: u64) {
    let engine = Engine::new();
    engine.spawn("parent", move |ctx| {
        for i in 0..n {
            ctx.spawn(format!("child{i}"), |_| {});
        }
    });
    engine.run().expect("no deadlock");
}

fn engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");

    group.throughput(Throughput::Elements(2 * 2_500));
    group.bench_function("advance_2_threads", |b| b.iter(|| alternate(2, 2_500)));

    group.throughput(Throughput::Elements(32 * 125));
    group.bench_function("advance_32_threads", |b| b.iter(|| alternate(32, 125)));

    group.throughput(Throughput::Elements(2 * 1_250));
    group.bench_function("park_unpark_pair", |b| b.iter(|| park_unpark(1_250)));

    group.throughput(Throughput::Elements(128));
    group.bench_function("spawn", |b| b.iter(|| spawn_many(128)));

    group.throughput(Throughput::Elements(5_000));
    group.bench_function("advance_alone", |b| b.iter(|| alternate(1, 5_000)));

    // Long enough that spawning and joining 32 threads (about 1.2 ms) is
    // the smaller part of an iteration.
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("one_runner_31_parked", |b| {
        b.iter(|| one_runner(31, 20_000))
    });

    group.throughput(Throughput::Elements(5_000));
    group.bench_function("clock_reads", |b| b.iter(|| clock_reads(5_000)));

    group.finish();
}

criterion_group!(benches, engine);
criterion_main!(benches);
