//! `layerprobe`: every layer called directly, with nothing above it.
//!
//! One *pass* runs each probe once on a fixed amount of work and yields
//! the host cost per operation. As a workload, a repetition is one pass
//! and its wall time is `host_wall_ms`; the trace phase of every other
//! workload also runs passes, so that its layer budget uses unit costs
//! measured in the same process on the same CPU.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dex_core::{Cluster, ClusterConfig, DirAction, Directory, Requester};
use dex_net::{Fabric, NetConfig, NodeId, WireMessage};
use dex_os::{Access, FutexTable, PageTable, Pte, RadixTree, VirtAddr, Vpn};
use dex_sim::{Engine, SimDuration, SimRng, ThreadId};

use crate::spans::HostRecorder;
use crate::values::Metrics;
use crate::workloads::{Observe, PageBounce, RepOutput, Workload};

/// Times `f` under a host span and returns `(result, elapsed ns)`.
fn timed<R>(rec: &mut HostRecorder, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let result = rec.span(name, |_| f());
    (result, rec.last_ns(name).expect("span just closed") as f64)
}

// ---- sim: the bare engine ----

// The amounts of work are fixed so that each crate gets a comparable share
// of a pass (tens of milliseconds): a change to any one of them moves the
// pass's wall time.

/// Events per thread in the two-thread hand-off probe.
const HANDOFF_EVENTS: u64 = 2_500;
/// Threads and events per thread in the wide hand-off probe.
const WIDE_THREADS: u64 = 32;
const WIDE_EVENTS: u64 = 125;
/// Round trips in the park/unpark probe.
const PARK_ROUNDS: u64 = 1_250;
/// Threads spawned (and exited) in the spawn probe.
const SPAWNED: u64 = 128;

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

fn park_unpark() {
    let engine = Engine::new();
    let a_id = Arc::new(AtomicU64::new(0));
    let a_for_b = Arc::clone(&a_id);
    // `b` is spawned first so that it is parked before `a` first unparks
    // it: the engine drops an unpark delivered before a thread's first run.
    let b = engine.spawn("b", move |ctx| {
        for _ in 0..PARK_ROUNDS {
            ctx.park();
            ctx.unpark(ThreadId(a_for_b.load(Ordering::Relaxed)));
        }
    });
    let a = engine.spawn("a", move |ctx| {
        for _ in 0..PARK_ROUNDS {
            ctx.unpark(b);
            ctx.park();
        }
    });
    // Threads first run inside `run`, after this store.
    a_id.store(a.0, Ordering::Relaxed);
    engine.run().expect("no deadlock");
}

fn spawn_many() {
    let engine = Engine::new();
    engine.spawn("parent", |ctx| {
        for i in 0..SPAWNED {
            ctx.spawn(format!("child{i}"), |_| {});
        }
    });
    engine.run().expect("no deadlock");
}

// ---- net: the bare fabric on a bare engine ----

const CTRL_MSGS: u64 = 1_500;
const PAGE_MSGS: u64 = 400;

struct Probe {
    page: bool,
}

impl WireMessage for Probe {
    fn control_bytes(&self) -> usize {
        16
    }
    fn page_bytes(&self) -> usize {
        if self.page {
            4096
        } else {
            0
        }
    }
}

/// What streaming a batch of messages over a bare fabric showed.
struct Streamed {
    /// One-way virtual latency of the first message, ns.
    first_arrival_ns: u64,
    /// Engine events the whole stream took.
    events: u64,
    /// The fabric's `(msgs, pages, bytes)` sent counters.
    sent: [u64; 3],
}

/// Streams `count` messages from node 0 to node 1.
fn stream(count: u64, page: bool) -> Streamed {
    let engine = Engine::new();
    let fabric = Fabric::<Probe>::new(NetConfig::default(), 2);
    let (tx, rx) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    engine.spawn("tx", move |ctx| {
        for _ in 0..count {
            tx.send(ctx, NodeId(1), Probe { page });
        }
    });
    let seen = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let out = Arc::clone(&seen);
    engine.spawn("rx", move |ctx| {
        for i in 0..count {
            rx.recv(ctx).expect("fabric open");
            if i == 0 {
                // The sender started at virtual time zero.
                out.0.store(ctx.now().as_nanos(), Ordering::Relaxed);
            }
        }
        // The receiver is the last thread to do anything.
        out.1.store(ctx.events_processed(), Ordering::Relaxed);
    });
    engine.run().expect("no deadlock");
    let c = fabric.counters();
    Streamed {
        first_arrival_ns: seen.0.load(Ordering::Relaxed),
        events: seen.1.load(Ordering::Relaxed),
        sent: [c.get("msgs.sent"), c.get("pages.sent"), c.get("bytes.sent")],
    }
}

// ---- os: pure data structures ----

/// Page numbers of a 64 MiB heap plus sparse stack pages — the shape the
/// directory indexes (as `crates/bench/benches/radix.rs`).
fn page_keys() -> Vec<u64> {
    let mut keys: Vec<u64> = (0x10000..0x14000u64).collect();
    keys.extend((0..64).map(|i| 0x7_f000_0000 / 4096 + i * 16));
    keys
}

/// Radix trees / page tables filled with [`page_keys`] per pass.
const OS_INSTANCES: usize = 40;
const FUTEX_ADDRS: u64 = 4_096;
const FUTEX_WAITERS_PER_ADDR: u64 = 16;

// ---- core: the directory alone, and an empty cluster ----

const DIR_PAGES: u64 = 1 << 17;
/// Empty four-node clusters booted and shut down per pass.
const CLUSTER_BOOTS: u64 = 20;

// ---- prof ----

/// Times the span set is encoded, decoded and analysed per pass.
const PROF_ROUNDS: usize = 100;

fn remote(node: u16, req_id: u64) -> Requester {
    Requester::Remote {
        node: NodeId(node),
        req_id,
    }
}

fn has_grant(actions: &[DirAction]) -> bool {
    actions.iter().any(|a| matches!(a, DirAction::Grant { .. }))
}

/// Read grants on fresh pages, then a write at the origin against three
/// readers, driven through the invalidation acks to its grant. Returns
/// `(read ns, write ns)` totals.
fn directory(rec: &mut HostRecorder) -> (f64, f64) {
    let mut dir = Directory::new(NodeId(0));
    let ((), read_ns) = timed(rec, "core.dir_read_grant", || {
        for page in 0..DIR_PAGES {
            let actions = dir.request(Vpn::new(page), Access::Read, remote(1, page));
            assert!(has_grant(&actions), "fresh page read is granted inline");
        }
    });
    for node in 2..=3 {
        for page in 0..DIR_PAGES {
            black_box(dir.request(Vpn::new(page), Access::Read, remote(node, page)));
        }
    }
    let ((), write_ns) = timed(rec, "core.dir_write_txn", || {
        for page in 0..DIR_PAGES {
            let vpn = Vpn::new(page);
            let mut actions = dir.request(vpn, Access::Write, Requester::Local { req_id: page });
            let mut granted = has_grant(&actions);
            while let Some(action) = actions.pop() {
                if let DirAction::SendInvalidate { to, needs_data } = action {
                    let done = dir.invalidate_ack(vpn, to, needs_data);
                    granted |= has_grant(&done);
                    actions.extend(done);
                }
            }
            assert!(granted, "write transaction ends in a grant");
        }
    });
    dir.check_invariants().expect("directory invariants");
    (read_ns, write_ns)
}

/// Name of the host span around one pass; the probes are its children,
/// named `<crate>.<probe>`.
pub const PASS_SPAN: &str = "pass";

/// The probes, and a short traced ping-pong that feeds the profiler
/// probes and supplies the workload's virtual results.
pub struct LayerProbe {
    pingpong: PageBounce,
}

impl LayerProbe {
    /// Prepares the probe inputs.
    pub fn new(rng: &mut SimRng) -> Self {
        LayerProbe {
            pingpong: PageBounce::small(rng),
        }
    }

    /// Runs every probe once. Returns the per-operation host costs, the
    /// exact (virtual-clock and count) results, and the oracle verdict.
    /// The embedded ping-pong always records spans, because they are the
    /// profiler probes' input; `Observe::Recorded` adds its schedule log.
    pub fn pass(
        &self,
        observe: Observe,
        rec: &mut HostRecorder,
    ) -> (Metrics, Metrics, Result<(), String>) {
        let mut host = Metrics::default();
        sim_probes(rec, &mut host);
        let net = net_probes(rec, &mut host);
        os_probes(rec, &mut host);
        core_probes(rec, &mut host);

        // prof, over the spans of a short traced ping-pong
        let observe = match observe {
            Observe::Off | Observe::Traced => Observe::Traced,
            Observe::Recorded => Observe::Recorded,
        };
        let (report, _, oracle) = self.pingpong.run(observe, rec);
        let spans = &report.spans;
        let per_span = (PROF_ROUNDS * spans.len()) as f64;
        let (text, ns) = timed(rec, "prof.encode", || {
            let mut text = String::new();
            for _ in 0..PROF_ROUNDS {
                text = dex_prof::encode_spans(black_box(spans));
            }
            text
        });
        host.set("prof.encode_ns_per_span", ns / per_span);
        let (decoded, ns) = timed(rec, "prof.decode", || {
            let mut decoded = Ok(Vec::new());
            for _ in 0..PROF_ROUNDS {
                decoded = dex_prof::decode_spans(black_box(&text));
            }
            decoded
        });
        host.set("prof.decode_ns_per_span", ns / per_span);
        let ((), ns) = timed(rec, "prof.critical_path", || {
            for _ in 0..PROF_ROUNDS {
                black_box(dex_prof::render_critical_path(black_box(spans), 10));
            }
        });
        host.set("prof.critical_path_ms", ns / PROF_ROUNDS as f64 / 1e6);
        let oracle = oracle.and_then(|()| match decoded {
            Ok(d) if d.len() == spans.len() => Ok(()),
            Ok(d) => Err(format!("decoded {} of {} spans", d.len(), spans.len())),
            Err(e) => Err(format!("span codec: {e}")),
        });

        // Exact results: the ping-pong's, plus the fabric probes' traffic,
        // one-way latencies and events per message.
        let mut exact = self.pingpong.extract(&report);
        for (i, name) in ["net.msgs", "net.pages", "net.bytes"]
            .into_iter()
            .enumerate()
        {
            let base = exact.get(name).expect("extract sets traffic counts");
            exact.set(name, base + (net.ctrl.sent[i] + net.page.sent[i]) as f64);
        }
        exact.set("net.ctrl_virt_us", net.ctrl.first_arrival_ns as f64 / 1e3);
        exact.set("net.page_virt_us", net.page.first_arrival_ns as f64 / 1e3);
        exact.set_ratio(
            "net.ctrl_events_per_msg",
            net.ctrl.events as f64,
            CTRL_MSGS as f64,
            "engine events ÷ control messages streamed",
        );
        exact.set_ratio(
            "net.page_events_per_msg",
            net.page.events as f64,
            PAGE_MSGS as f64,
            "engine events ÷ page messages streamed",
        );
        (host, exact, oracle)
    }
}

fn sim_probes(rec: &mut HostRecorder, host: &mut Metrics) {
    let ((), ns) = timed(rec, "sim.handoff", || alternate(2, HANDOFF_EVENTS));
    host.set("sim.handoff_ns", ns / (2 * HANDOFF_EVENTS) as f64);
    let ((), ns) = timed(rec, "sim.handoff32", || {
        alternate(WIDE_THREADS, WIDE_EVENTS)
    });
    host.set("sim.handoff32_ns", ns / (WIDE_THREADS * WIDE_EVENTS) as f64);
    let ((), ns) = timed(rec, "sim.park_unpark", park_unpark);
    host.set("sim.park_unpark_ns", ns / (2 * PARK_ROUNDS) as f64);
    let ((), ns) = timed(rec, "sim.spawn", spawn_many);
    host.set("sim.spawn_us", ns / SPAWNED as f64 / 1e3);
}

struct NetProbes {
    ctrl: Streamed,
    page: Streamed,
}

fn net_probes(rec: &mut HostRecorder, host: &mut Metrics) -> NetProbes {
    let (ctrl, ns) = timed(rec, "net.ctrl_msg", || stream(CTRL_MSGS, false));
    host.set("net.ctrl_msg_ns", ns / CTRL_MSGS as f64);
    let (page, ns) = timed(rec, "net.page_msg", || stream(PAGE_MSGS, true));
    host.set("net.page_msg_ns", ns / PAGE_MSGS as f64);
    NetProbes { ctrl, page }
}

fn os_probes(rec: &mut HostRecorder, host: &mut Metrics) {
    let keys = page_keys();
    let ops = (OS_INSTANCES * keys.len()) as f64;
    let mut trees: Vec<RadixTree<u64>> = (0..OS_INSTANCES).map(|_| RadixTree::new()).collect();
    let ((), ns) = timed(rec, "os.radix_insert", || {
        for tree in &mut trees {
            for &k in &keys {
                tree.insert(k, k);
            }
        }
    });
    host.set("os.radix_insert_ns", ns / ops);
    let (sum, ns) = timed(rec, "os.radix_get", || {
        trees.iter().fold(0u64, |sum, tree| {
            keys.iter()
                .fold(sum, |a, &k| a.wrapping_add(*tree.get(k).expect("inserted")))
        })
    });
    black_box(sum);
    host.set("os.radix_get_ns", ns / ops);
    let ((), ns) = timed(rec, "os.radix_remove", || {
        for tree in &mut trees {
            for &k in &keys {
                black_box(tree.remove(k));
            }
        }
    });
    assert!(trees.iter().all(RadixTree::is_empty));
    host.set("os.radix_remove_ns", ns / ops);

    let (present, ns) = timed(rec, "os.pte_set_get", || {
        (0..OS_INSTANCES)
            .map(|_| {
                let mut table = PageTable::new();
                for &k in &keys {
                    table.set(Vpn::new(k), Pte::READ_WRITE);
                }
                keys.iter()
                    .filter(|&&k| table.entry(Vpn::new(k)).present)
                    .count()
            })
            .sum::<usize>()
    });
    assert_eq!(present, OS_INSTANCES * keys.len());
    host.set("os.pte_set_get_ns", ns / ops);

    let (woken, ns) = timed(rec, "os.futex_enqueue_wake", || {
        let mut table = FutexTable::new();
        let addr = |a: u64| VirtAddr::new(0x1000_0000 + a * 64);
        for w in 0..FUTEX_WAITERS_PER_ADDR {
            for a in 0..FUTEX_ADDRS {
                table.enqueue(addr(a), ThreadId(a * FUTEX_WAITERS_PER_ADDR + w));
            }
        }
        (0..FUTEX_ADDRS)
            .map(|a| table.wake(addr(a), usize::MAX).len() as u64)
            .sum::<u64>()
    });
    assert_eq!(woken, FUTEX_ADDRS * FUTEX_WAITERS_PER_ADDR);
    host.set("os.futex_enqueue_wake_ns", ns / woken as f64);
}

fn core_probes(rec: &mut HostRecorder, host: &mut Metrics) {
    let (read_ns, write_ns) = directory(rec);
    host.set("core.dir_read_grant_ns", read_ns / DIR_PAGES as f64);
    host.set("core.dir_write_txn_ns", write_ns / DIR_PAGES as f64);
    let ((), ns) = timed(rec, "core.cluster_boot", || {
        for _ in 0..CLUSTER_BOOTS {
            black_box(Cluster::new(ClusterConfig::new(4)).run(|_| {}));
        }
    });
    host.set("core.cluster_boot_ms", ns / CLUSTER_BOOTS as f64 / 1e6);
}

impl Workload for LayerProbe {
    fn rep(&self, observe: Observe, rec: &mut HostRecorder) -> RepOutput {
        let (host, exact, oracle) = rec.span(PASS_SPAN, |rec| self.pass(observe, rec));
        RepOutput {
            host_ns: rec.last_ns(PASS_SPAN).expect("span just closed"),
            exact,
            host,
            oracle,
        }
    }
}
