//! Typed slice and row access across page boundaries: handles decode
//! straight from the resident frames and encode straight into them, a
//! page-bounded piece at a time, so every way an element or a slice can
//! meet a page boundary is read and written here — at the origin, and
//! from a remote node where the second page faults mid-slice.

use std::sync::{Arc, Mutex};

use dex_core::{Cluster, ClusterConfig, DsmMatrix, DsmVec, RunReport};
use dex_os::PAGE_SIZE;

type Point = [f64; 3];

/// Distinct, exactly representable contents for element `i` after `round`
/// rounds of writes.
fn point(i: usize, round: usize) -> Point {
    let base = (round * 100_000 + i) as f64;
    [base, -base - 0.5, base * 0.25]
}

/// The node the test thread accesses from.
#[derive(Clone, Copy)]
enum From {
    Origin,
    Remote,
}

/// Runs one thread that touches the page holding `start` (so it is
/// present), reads `len` points from `start` — for a remote thread the
/// next page faults mid-slice — then owns the first page with a `set` and
/// rewrites the slice, faulting the next page again. Returns what the
/// slice read and the run.
fn vec_case(
    from: From,
    elems: usize,
    start: usize,
    len: usize,
) -> (Vec<Point>, RunReport, DsmVec<Point>) {
    let cluster = Cluster::new(ClusterConfig::new(2));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut handle = None;
    let report = cluster.run(|p| {
        let v = p.alloc_vec_aligned::<Point>(elems, "points");
        v.init(p, &(0..elems).map(|i| point(i, 0)).collect::<Vec<_>>());
        handle = Some(v);
        let seen = Arc::clone(&seen);
        p.spawn(move |ctx| {
            if let From::Remote = from {
                ctx.migrate(1).unwrap();
            }
            assert_eq!(v.get(ctx, start), point(start, 0));
            let mut out = vec![[0.0; 3]; len];
            v.read_slice(ctx, start, &mut out);
            v.set(ctx, start, point(start, 1));
            let fresh: Vec<Point> = (start..start + len).map(|i| point(i, 2)).collect();
            v.write_slice(ctx, start, &fresh);
            *seen.lock().unwrap() = out;
        });
    });
    let seen = seen.lock().unwrap().clone();
    (seen, report, handle.expect("allocated"))
}

#[test]
fn point_slices_meet_page_boundaries_at_every_phase() {
    let b = std::mem::size_of::<Point>();
    let pages = 4;
    let elems = pages * PAGE_SIZE / b;
    for from in [From::Origin, From::Remote] {
        // A 24-byte element meets the boundaries of a page-aligned vector
        // at offsets 16, 8 and 0 of the element: every phase a [f64; 3]
        // can have.
        for boundary in 1..pages {
            let split = boundary * PAGE_SIZE / b;
            for start in split - 1..=split + 1 {
                for len in 1..=3 {
                    let (seen, report, v) = vec_case(from, elems, start, len);
                    let want: Vec<Point> = (start..start + len).map(|i| point(i, 0)).collect();
                    assert_eq!(seen, want, "read start {start} len {len}");
                    let mut after: Vec<Point> = (0..elems).map(|i| point(i, 0)).collect();
                    for (i, p) in after.iter_mut().enumerate().skip(start).take(len) {
                        *p = point(i, 2);
                    }
                    assert_eq!(v.snapshot(&report), after, "write start {start} len {len}");
                }
            }
        }
    }
}

#[test]
fn a_remote_slice_faults_its_second_page_mid_slice() {
    let b = std::mem::size_of::<Point>();
    let split = PAGE_SIZE / b; // element 170 straddles the first boundary
    let (seen, report, _) = vec_case(From::Remote, 2 * PAGE_SIZE / b, split - 1, 3);
    assert_eq!(
        seen,
        (split - 1..split + 2)
            .map(|i| point(i, 0))
            .collect::<Vec<_>>()
    );
    // The get fetched page 0; the slice read faulted page 1 mid-slice; the
    // set upgraded page 0 and the slice write upgraded page 1.
    assert_eq!(report.stats.read_faults, 2);
    assert_eq!(report.stats.write_faults, 2);
}

/// An odd-width packed matrix: every row starts at a different offset
/// into its page, so rows meet page boundaries at every word phase.
#[test]
fn odd_width_matrix_rows_cross_pages() {
    const COLS: usize = 1023; // 4092 bytes: each row starts 4 bytes earlier in its page
    let (rows, cols) = (6, COLS);
    let value = |r: usize, c: usize, round: u32| (r * COLS + c) as u32 ^ (round << 24);
    for from in [From::Origin, From::Remote] {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut handle: Option<DsmMatrix<u32>> = None;
        let report = cluster.run(|p| {
            let m = p.alloc_matrix::<u32>(rows, cols, "grid");
            let init: Vec<u32> = (0..rows * cols)
                .map(|i| value(i / cols, i % cols, 0))
                .collect();
            m.init(p, &init);
            handle = Some(m);
            let seen = Arc::clone(&seen);
            p.spawn(move |ctx| {
                if let From::Remote = from {
                    ctx.migrate(1).unwrap();
                }
                let mut row = vec![0u32; cols];
                for r in 0..rows {
                    assert_eq!(m.get(ctx, r, 0), value(r, 0, 0));
                    m.read_row(ctx, r, &mut row);
                    seen.lock().unwrap().extend_from_slice(&row);
                    m.set(ctx, r, 0, value(r, 0, 1));
                    let fresh: Vec<u32> = (0..cols).map(|c| value(r, c, 2)).collect();
                    m.write_row(ctx, r, &fresh);
                }
            });
        });
        let want: Vec<u32> = (0..rows * cols)
            .map(|i| value(i / cols, i % cols, 0))
            .collect();
        assert_eq!(*seen.lock().unwrap(), want, "rows read");
        let after: Vec<u32> = (0..rows * cols)
            .map(|i| value(i / cols, i % cols, 2))
            .collect();
        assert_eq!(
            handle.expect("allocated").snapshot(&report),
            after,
            "rows written"
        );
    }
}
