//! Pins the span stream of the three mechanisms beside the page protocol:
//! thread migration, work delegation and on-demand VMA synchronisation.
//! One small traced run covers each exchange end to end, and its
//! `# dex-spans v2` text, migration samples and counters must equal
//! `mechanism_spans.txt` byte for byte, so moving the code that records
//! them cannot move an id, a parent, a label or an instant unnoticed.

use dex::core::{Cluster, ClusterConfig, Prot, RunReport, PAGE_SIZE};
use dex::prof::encode_spans;
use dex::sim::SimDuration;

/// Two threads on a three-node cluster:
///
/// * `a` migrates to node 1 first (the process's first contact: a remote
///   worker is built there), pulls the heap VMA on its first touch, maps,
///   touches (a second VMA pull), downgrades and unmaps memory from node 1
///   (delegated to its original thread; each shrink is broadcast to node
///   1's remote worker and straight to node 2's dispatcher, which has no
///   worker), then sleeps on a futex until `b` wakes it, goes home, and
///   migrates to node 1 again (the worker is reused);
/// * `b` migrates to node 1 (worker reused), waits, and wakes `a` from
///   there, so both futex halves are delegated.
fn mechanisms() -> RunReport {
    Cluster::new(ClusterConfig::new(3).with_spans()).run(|p| {
        let data = p.alloc_vec_aligned::<u64>(1024, "data");
        let word = p.alloc_cell_aligned::<u32>(0, "word");
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            data.set(ctx, 0, 1);
            let len = 2 * PAGE_SIZE as u64;
            let mapped = ctx.mmap(len, Prot::RW);
            ctx.write_u32(mapped, 5);
            ctx.mprotect(mapped, PAGE_SIZE as u64, Prot::RO);
            ctx.munmap(mapped, len);
            while word.get(ctx) == 0 {
                ctx.futex_wait(word.addr(), 0);
            }
            ctx.migrate_back().unwrap();
            ctx.migrate(1).unwrap();
            data.set(ctx, 1, 2);
            ctx.migrate_back().unwrap();
        });
        p.spawn(move |ctx| {
            ctx.migrate(1).unwrap();
            ctx.compute(SimDuration::from_millis(2));
            word.set(ctx, 1);
            ctx.futex_wake(word.addr(), 1);
            ctx.migrate_back().unwrap();
        });
    })
}

/// The run as text: the span file, one line per migration sample, one
/// line per counter total.
fn render(report: &RunReport) -> String {
    let mut out = encode_spans(&report.spans);
    out.push_str("# migrations\n");
    for sample in &report.migrations {
        out.push_str(&format!("{sample:?}\n"));
    }
    out.push_str("# counters\n");
    for (name, value) in report.process().counters().totals() {
        out.push_str(&format!("{name}\t{value}\n"));
    }
    out
}

#[test]
fn mechanism_span_stream_is_pinned() {
    let got = render(&mechanisms());
    let want = include_str!("mechanism_spans.txt");
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from mechanism_spans.txt", line + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
    assert_eq!(got, want);
}

#[test]
fn mechanism_run_covers_every_exchange() {
    let spans = mechanisms().spans;
    let has = |kind: &str, label: &str| {
        spans
            .iter()
            .any(|s| s.kind.as_str() == kind && (label.is_empty() || s.label == label))
    };
    for (kind, label) in [
        ("migration_forward", "first_on_node"),
        ("migration_forward", "worker_reused"),
        ("migration_phase", "remote_worker"),
        ("migration_phase", "worker_reuse"),
        ("migration_phase", "backward_update"),
        ("migration_back", "migrate_back"),
        ("delegation", "delegate"),
        ("delegation_service", "delegation_service"),
        ("futex_wait", "futex_woken"),
        ("futex_wake", "futex_wake"),
        ("vma_sync", "vma_pull"),
    ] {
        assert!(has(kind, label), "no {kind} span labelled {label}");
    }
}
