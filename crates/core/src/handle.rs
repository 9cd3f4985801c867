//! Typed handles over distributed memory.
//!
//! Applications do not juggle raw addresses: [`DsmVec`] and [`DsmCell`]
//! wrap a distributed allocation with typed accessors that go through the
//! consistency protocol. They are `Copy` tokens — cheap to capture in
//! every thread closure — and the data they denote lives in simulated page
//! frames, so results are checkable against ground truth.

use std::marker::PhantomData;
use std::sync::Arc;

use dex_os::{VirtAddr, PAGE_SIZE};

use crate::process::ProcessShared;
use crate::thread::ThreadCtx;

/// A value that can live in distributed memory: fixed-size, plain-old-data
/// with an explicit little-endian layout.
pub trait DsmScalar: Copy + Send + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Encodes into `dst` (exactly [`Self::BYTES`] long).
    fn store(&self, dst: &mut [u8]);
    /// Decodes from `src` (exactly [`Self::BYTES`] long).
    fn load(src: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl DsmScalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn store(&self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            fn load(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("scalar size"))
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<T: DsmScalar, const N: usize> DsmScalar for [T; N] {
    const BYTES: usize = T::BYTES * N;
    fn store(&self, dst: &mut [u8]) {
        for (i, v) in self.iter().enumerate() {
            v.store(&mut dst[i * T::BYTES..(i + 1) * T::BYTES]);
        }
    }
    fn load(src: &[u8]) -> Self {
        std::array::from_fn(|i| T::load(&src[i * T::BYTES..(i + 1) * T::BYTES]))
    }
}

/// Anything that can hand out the shared process state — lets handle
/// methods accept a [`DexProcess`](crate::DexProcess), a
/// [`ThreadCtx`], or a [`RunReport`](crate::RunReport) interchangeably for
/// initialization and result collection.
pub trait ProcessRef {
    /// The shared process state.
    fn shared_ref(&self) -> &ProcessShared;
}

impl ProcessRef for ProcessShared {
    fn shared_ref(&self) -> &ProcessShared {
        self
    }
}

impl ProcessRef for Arc<ProcessShared> {
    fn shared_ref(&self) -> &ProcessShared {
        self
    }
}

impl ProcessRef for ThreadCtx<'_> {
    fn shared_ref(&self) -> &ProcessShared {
        self.process()
    }
}

/// A typed, fixed-length vector in distributed memory.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig};
///
/// let cluster = Cluster::new(ClusterConfig::new(2));
/// let mut handle = None;
/// let report = cluster.run(|proc_| {
///     let data = proc_.alloc_vec::<u64>(100, "data");
///     handle = Some(data);
///     proc_.spawn(move |ctx| {
///         ctx.migrate(1).unwrap();
///         for i in 0..100 {
///             data.set(ctx, i, (i as u64) * 3);
///         }
///     });
/// });
/// // Results are read back from the coherent cluster-wide view.
/// let final_data = handle.unwrap().snapshot(&report);
/// assert_eq!(final_data[10], 30);
/// ```
pub struct DsmVec<T> {
    base: VirtAddr,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DsmVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DsmVec<T> {}

impl<T: DsmScalar> DsmVec<T> {
    pub(crate) fn from_raw(base: VirtAddr, len: usize) -> Self {
        DsmVec {
            base,
            len,
            _marker: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a zero-length vector.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The base address of the allocation.
    pub fn addr(&self) -> VirtAddr {
        self.base
    }

    /// Address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn addr_of(&self, i: usize) -> VirtAddr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base.add((i * T::BYTES) as u64)
    }

    /// Reads element `i` through the consistency protocol.
    pub fn get(&self, ctx: &ThreadCtx<'_>, i: usize) -> T {
        let mut buf = vec![0u8; T::BYTES];
        ctx.read_bytes(self.addr_of(i), &mut buf);
        T::load(&buf)
    }

    /// Writes element `i` through the consistency protocol.
    pub fn set(&self, ctx: &ThreadCtx<'_>, i: usize, value: T) {
        let mut buf = vec![0u8; T::BYTES];
        value.store(&mut buf);
        ctx.write_bytes(self.addr_of(i), &buf);
    }

    /// Bulk-reads `out.len()` elements starting at `start`. One access
    /// check per covered page instead of per element — prefer this in
    /// loops.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn read_slice(&self, ctx: &ThreadCtx<'_>, start: usize, out: &mut [T]) {
        if out.is_empty() {
            return;
        }
        assert!(start + out.len() <= self.len, "slice out of bounds");
        let mut buf = vec![0u8; out.len() * T::BYTES];
        ctx.read_bytes(self.addr_of(start), &mut buf);
        for (i, v) in out.iter_mut().enumerate() {
            *v = T::load(&buf[i * T::BYTES..(i + 1) * T::BYTES]);
        }
    }

    /// Bulk-writes `values` starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn write_slice(&self, ctx: &ThreadCtx<'_>, start: usize, values: &[T]) {
        if values.is_empty() {
            return;
        }
        assert!(start + values.len() <= self.len, "slice out of bounds");
        let mut buf = vec![0u8; values.len() * T::BYTES];
        for (i, v) in values.iter().enumerate() {
            v.store(&mut buf[i * T::BYTES..(i + 1) * T::BYTES]);
        }
        ctx.write_bytes(self.addr_of(start), &buf);
    }

    /// Initializes contents before the run (writes directly into the
    /// origin replica at zero virtual cost — input loading happens before
    /// the measured region).
    ///
    /// # Panics
    ///
    /// Panics when `values` is longer than the vector.
    pub fn init(&self, proc_: &impl ProcessRef, values: &[T]) {
        assert!(values.len() <= self.len, "init data longer than vector");
        if values.is_empty() {
            return;
        }
        // One page's worth of elements at a time: the input is never
        // staged whole beside the frames it lands in.
        let shared = proc_.shared_ref();
        let per_chunk = Self::elems_per_page();
        let mut buf = vec![0u8; per_chunk.min(values.len()) * T::BYTES];
        for (c, chunk) in values.chunks(per_chunk).enumerate() {
            for (i, v) in chunk.iter().enumerate() {
                v.store(&mut buf[i * T::BYTES..(i + 1) * T::BYTES]);
            }
            shared.write_init(self.addr_of(c * per_chunk), &buf[..chunk.len() * T::BYTES]);
        }
    }

    /// Reads the final, cluster-coherent contents (each page sourced from
    /// its current owner) — for result verification after a run.
    pub fn snapshot(&self, proc_: &impl ProcessRef) -> Vec<T> {
        let shared = proc_.shared_ref();
        let per_chunk = Self::elems_per_page();
        let mut out = Vec::with_capacity(self.len);
        let mut buf = vec![0u8; per_chunk.min(self.len) * T::BYTES];
        for start in (0..self.len).step_by(per_chunk) {
            let n = per_chunk.min(self.len - start);
            shared.read_coherent(self.addr_of(start), &mut buf[..n * T::BYTES]);
            out.extend((0..n).map(|i| T::load(&buf[i * T::BYTES..(i + 1) * T::BYTES])));
        }
        out
    }

    /// Elements per page-sized chunk (at least one) for `init` and
    /// `snapshot`.
    fn elems_per_page() -> usize {
        (PAGE_SIZE / T::BYTES.max(1)).max(1)
    }
}

impl<T> std::fmt::Debug for DsmVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmVec")
            .field("base", &self.base)
            .field("len", &self.len)
            .finish()
    }
}

/// A typed 2-D matrix in distributed memory, stored row-major.
///
/// The row-aligned construction
/// ([`DexProcess::alloc_matrix_row_aligned`](crate::DexProcess::alloc_matrix_row_aligned))
/// pads every row to whole pages so row partitions never share pages
/// across workers — the layout grid applications (BT, FT) want.
pub struct DsmMatrix<T> {
    base: VirtAddr,
    rows: usize,
    cols: usize,
    /// Elements of padding between consecutive rows' starts (0 = packed).
    row_stride: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DsmMatrix<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DsmMatrix<T> {}

impl<T: DsmScalar> DsmMatrix<T> {
    pub(crate) fn from_raw(base: VirtAddr, rows: usize, cols: usize, row_stride: usize) -> Self {
        assert!(row_stride >= cols, "row stride must cover the row");
        DsmMatrix {
            base,
            rows,
            cols,
            row_stride,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Address of element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn addr_of(&self, r: usize, c: usize) -> VirtAddr {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.base.add(((r * self.row_stride + c) * T::BYTES) as u64)
    }

    /// Reads element `(r, c)`.
    pub fn get(&self, ctx: &ThreadCtx<'_>, r: usize, c: usize) -> T {
        let mut buf = vec![0u8; T::BYTES];
        ctx.read_bytes(self.addr_of(r, c), &mut buf);
        T::load(&buf)
    }

    /// Writes element `(r, c)`.
    pub fn set(&self, ctx: &ThreadCtx<'_>, r: usize, c: usize, value: T) {
        let mut buf = vec![0u8; T::BYTES];
        value.store(&mut buf);
        ctx.write_bytes(self.addr_of(r, c), &buf);
    }

    /// Bulk-reads row `r` into `out` (must be `cols` long).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != cols` or `r` is out of bounds.
    pub fn read_row(&self, ctx: &ThreadCtx<'_>, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.cols, "row buffer must be cols long");
        let mut buf = vec![0u8; self.cols * T::BYTES];
        ctx.read_bytes(self.addr_of(r, 0), &mut buf);
        for (i, v) in out.iter_mut().enumerate() {
            *v = T::load(&buf[i * T::BYTES..(i + 1) * T::BYTES]);
        }
    }

    /// Bulk-writes row `r` from `values` (must be `cols` long).
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != cols` or `r` is out of bounds.
    pub fn write_row(&self, ctx: &ThreadCtx<'_>, r: usize, values: &[T]) {
        assert_eq!(values.len(), self.cols, "row buffer must be cols long");
        let mut buf = vec![0u8; self.cols * T::BYTES];
        for (i, v) in values.iter().enumerate() {
            v.store(&mut buf[i * T::BYTES..(i + 1) * T::BYTES]);
        }
        ctx.write_bytes(self.addr_of(r, 0), &buf);
    }

    /// Initializes the matrix from a row-major slice before the run.
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != rows * cols`.
    pub fn init(&self, proc_: &impl ProcessRef, values: &[T]) {
        assert_eq!(values.len(), self.rows * self.cols, "init size mismatch");
        let shared = proc_.shared_ref();
        let mut buf = vec![0u8; self.cols * T::BYTES];
        for r in 0..self.rows {
            for (i, v) in values[r * self.cols..(r + 1) * self.cols]
                .iter()
                .enumerate()
            {
                v.store(&mut buf[i * T::BYTES..(i + 1) * T::BYTES]);
            }
            shared.write_init(self.addr_of_unchecked(r), &buf);
        }
    }

    /// Reads the final cluster-coherent contents, row-major.
    pub fn snapshot(&self, proc_: &impl ProcessRef) -> Vec<T> {
        let shared = proc_.shared_ref();
        let mut out = Vec::with_capacity(self.rows * self.cols);
        let mut buf = vec![0u8; self.cols * T::BYTES];
        for r in 0..self.rows {
            shared.read_coherent(self.addr_of_unchecked(r), &mut buf);
            for i in 0..self.cols {
                out.push(T::load(&buf[i * T::BYTES..(i + 1) * T::BYTES]));
            }
        }
        out
    }

    fn addr_of_unchecked(&self, r: usize) -> VirtAddr {
        self.base.add((r * self.row_stride * T::BYTES) as u64)
    }
}

impl<T> std::fmt::Debug for DsmMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmMatrix")
            .field("base", &self.base)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_stride", &self.row_stride)
            .finish()
    }
}

/// A single typed value in distributed memory.
pub struct DsmCell<T> {
    addr: VirtAddr,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DsmCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DsmCell<T> {}

impl<T: DsmScalar> DsmCell<T> {
    pub(crate) fn from_raw(addr: VirtAddr) -> Self {
        DsmCell {
            addr,
            _marker: PhantomData,
        }
    }

    /// The cell's address.
    pub fn addr(&self) -> VirtAddr {
        self.addr
    }

    /// Reads the value through the consistency protocol.
    pub fn get(&self, ctx: &ThreadCtx<'_>) -> T {
        let mut buf = vec![0u8; T::BYTES];
        ctx.read_bytes(self.addr, &mut buf);
        T::load(&buf)
    }

    /// Writes the value through the consistency protocol.
    pub fn set(&self, ctx: &ThreadCtx<'_>, value: T) {
        let mut buf = vec![0u8; T::BYTES];
        value.store(&mut buf);
        ctx.write_bytes(self.addr, &buf);
    }

    /// Atomically read-modify-writes the value (cluster-wide, by virtue of
    /// exclusive page ownership). Returns the previous value.
    pub fn rmw(&self, ctx: &ThreadCtx<'_>, f: impl FnOnce(T) -> T) -> T {
        let mut old = None;
        ctx.rmw_bytes(self.addr, T::BYTES, |bytes| {
            let v = T::load(bytes);
            old = Some(v);
            f(v).store(bytes);
        });
        old.expect("rmw closure ran")
    }

    /// Initializes the value before the run.
    pub fn init(&self, proc_: &impl ProcessRef, value: T) {
        let mut buf = vec![0u8; T::BYTES];
        value.store(&mut buf);
        proc_.shared_ref().write_init(self.addr, &buf);
    }

    /// Reads the final cluster-coherent value after a run.
    pub fn snapshot(&self, proc_: &impl ProcessRef) -> T {
        let mut buf = vec![0u8; T::BYTES];
        proc_.shared_ref().read_coherent(self.addr, &mut buf);
        T::load(&buf)
    }
}

impl<T> std::fmt::Debug for DsmCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsmCell").field("addr", &self.addr).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        fn roundtrip<T: DsmScalar + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = vec![0u8; T::BYTES];
            v.store(&mut buf);
            assert_eq!(T::load(&buf), v);
        }
        roundtrip(0xABu8);
        roundtrip(-7i32);
        roundtrip(u64::MAX);
        roundtrip(3.25f64);
        roundtrip([1.5f64, -2.0, 99.0]);
    }

    #[test]
    fn array_scalar_size() {
        assert_eq!(<[f64; 3] as DsmScalar>::BYTES, 24);
        assert_eq!(<[u32; 4] as DsmScalar>::BYTES, 16);
    }
}
