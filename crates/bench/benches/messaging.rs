//! Criterion bench: host-side throughput of the simulated fabric.

use criterion::{criterion_group, criterion_main, Criterion};
use dex_net::{Fabric, NetConfig, NodeId, TimedPool, WireMessage};
use dex_sim::{Engine, SimDuration};

struct Ping(#[allow(dead_code)] u64);

impl WireMessage for Ping {
    fn control_bytes(&self) -> usize {
        16
    }
}

struct Page;

impl WireMessage for Page {
    fn control_bytes(&self) -> usize {
        16
    }
    fn page_bytes(&self) -> usize {
        4096
    }
}

fn messaging(c: &mut Criterion) {
    c.bench_function("simulate_2000_control_messages", |b| {
        b.iter(|| {
            let engine = Engine::new();
            let fabric = Fabric::<Ping>::new(NetConfig::default(), 2);
            let tx = fabric.endpoint(NodeId(0));
            let rx = fabric.endpoint(NodeId(1));
            engine.spawn("tx", move |ctx| {
                for i in 0..2000 {
                    tx.send(ctx, NodeId(1), Ping(i));
                }
            });
            engine.spawn("rx", move |ctx| {
                for _ in 0..2000 {
                    rx.recv(ctx).expect("open");
                }
            });
            engine.run().expect("no deadlock")
        })
    });

    c.bench_function("simulate_500_page_transfers", |b| {
        b.iter(|| {
            let engine = Engine::new();
            let fabric = Fabric::<Page>::new(NetConfig::default(), 2);
            let tx = fabric.endpoint(NodeId(0));
            let rx = fabric.endpoint(NodeId(1));
            engine.spawn("tx", move |ctx| {
                for _ in 0..500 {
                    tx.send(ctx, NodeId(1), Page);
                }
            });
            engine.spawn("rx", move |ctx| {
                for _ in 0..500 {
                    rx.recv(ctx).expect("open");
                }
            });
            engine.run().expect("no deadlock")
        })
    });

    // What one link's send pool does per message, at the default size: the
    // earliest-free of 256 chunks, held for a wire time, with a compose
    // copy in between so that chunks come free in a rolling window.
    c.bench_function("send_pool_acquire_hold_2000", |b| {
        let chunks = NetConfig::default().send_pool_chunks;
        b.iter(|| {
            let engine = Engine::new();
            let pool = TimedPool::new(chunks);
            engine.spawn("sender", move |ctx| {
                for _ in 0..2000 {
                    let grant = pool.acquire(ctx);
                    ctx.advance(SimDuration::from_nanos(100));
                    pool.hold(ctx, grant, ctx.now() + SimDuration::from_micros(2));
                }
            });
            engine.run().expect("no deadlock")
        })
    });
}

criterion_group!(benches, messaging);
criterion_main!(benches);
