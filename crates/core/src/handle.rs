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

/// The largest encoded element a handle holds: an element split by a
/// page boundary is stitched through a stack buffer of this size (one
/// cache line). A larger element type fails to compile as a handle's `T`.
pub const MAX_SCALAR_BYTES: usize = 64;

/// A value that can live in distributed memory: fixed-size, plain-old-data
/// with an explicit little-endian layout, at most [`MAX_SCALAR_BYTES`]
/// long.
pub trait DsmScalar: Copy + Send + 'static {
    /// Encoded size in bytes.
    const BYTES: usize;
    /// Encodes into `dst` (exactly [`Self::BYTES`] long).
    fn store(&self, dst: &mut [u8]);
    /// Decodes from `src` (exactly [`Self::BYTES`] long).
    fn load(src: &[u8]) -> Self;

    /// Decodes `out.len()` consecutive elements from `src` (exactly
    /// `out.len() * BYTES` long).
    ///
    /// # Panics
    ///
    /// Panics when the lengths disagree.
    fn load_slice(src: &[u8], out: &mut [Self]) {
        assert_eq!(src.len(), out.len() * Self::BYTES, "load_slice length");
        for (v, bytes) in out.iter_mut().zip(src.chunks_exact(Self::BYTES)) {
            *v = Self::load(bytes);
        }
    }

    /// Encodes `values` into `dst` (exactly `values.len() * BYTES` long).
    ///
    /// # Panics
    ///
    /// Panics when the lengths disagree.
    fn store_slice(values: &[Self], dst: &mut [u8]) {
        assert_eq!(dst.len(), values.len() * Self::BYTES, "store_slice length");
        for (v, bytes) in values.iter().zip(dst.chunks_exact_mut(Self::BYTES)) {
            v.store(bytes);
        }
    }
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
            fn load_slice(src: &[u8], out: &mut [Self]) {
                assert_eq!(src.len(), out.len() * Self::BYTES, "load_slice length");
                let (chunks, _) = src.as_chunks();
                for (v, bytes) in out.iter_mut().zip(chunks) {
                    *v = <$t>::from_le_bytes(*bytes);
                }
            }
            fn store_slice(values: &[Self], dst: &mut [u8]) {
                assert_eq!(dst.len(), values.len() * Self::BYTES, "store_slice length");
                let (chunks, _) = dst.as_chunks_mut();
                for (v, bytes) in values.iter().zip(chunks) {
                    *bytes = v.to_le_bytes();
                }
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<T: DsmScalar, const N: usize> DsmScalar for [T; N] {
    const BYTES: usize = T::BYTES * N;
    fn store(&self, dst: &mut [u8]) {
        T::store_slice(self, dst);
    }
    fn load(src: &[u8]) -> Self {
        std::array::from_fn(|i| T::load(&src[i * T::BYTES..(i + 1) * T::BYTES]))
    }
    fn load_slice(src: &[u8], out: &mut [Self]) {
        T::load_slice(src, out.as_flattened_mut());
    }
    fn store_slice(values: &[Self], dst: &mut [u8]) {
        T::store_slice(values.as_flattened(), dst);
    }
}

/// A stack buffer for one element: what `get`/`set` stage through, and
/// the carry that stitches an element split by a page boundary.
type Carry = [u8; MAX_SCALAR_BYTES];

/// Fails the build when `T` does not fit a [`Carry`]; every handle
/// constructor calls it.
const fn assert_fits<T: DsmScalar>() {
    const {
        assert!(
            T::BYTES <= MAX_SCALAR_BYTES,
            "DsmScalar element larger than MAX_SCALAR_BYTES"
        )
    }
}

/// Reads one element at `addr`, staged on the stack.
fn get_one<T: DsmScalar>(ctx: &ThreadCtx<'_>, addr: VirtAddr) -> T {
    let mut buf: Carry = [0; MAX_SCALAR_BYTES];
    ctx.read_bytes(addr, &mut buf[..T::BYTES]);
    T::load(&buf[..T::BYTES])
}

/// Writes one element at `addr`, staged on the stack.
fn set_one<T: DsmScalar>(ctx: &ThreadCtx<'_>, addr: VirtAddr, value: T) {
    let mut buf: Carry = [0; MAX_SCALAR_BYTES];
    value.store(&mut buf[..T::BYTES]);
    ctx.write_bytes(addr, &buf[..T::BYTES]);
}

/// Decodes `out.len()` elements at `addr` straight from the resident
/// frames, a page-bounded piece at a time.
fn read_elems<T: DsmScalar>(ctx: &ThreadCtx<'_>, addr: VirtAddr, out: &mut [T]) {
    let b = T::BYTES;
    let mut carry: Carry = [0; MAX_SCALAR_BYTES];
    let mut carried = 0; // bytes of a split element already in `carry`
    let mut next = 0; // the next element of `out` to decode
    ctx.read_with(addr, out.len() * b, |mut piece| {
        if carried > 0 {
            let (tail, rest) = piece.split_at(b - carried);
            carry[carried..b].copy_from_slice(tail);
            out[next] = T::load(&carry[..b]);
            next += 1;
            piece = rest;
        }
        let whole = piece.len() / b;
        let (body, split) = piece.split_at(whole * b);
        T::load_slice(body, &mut out[next..next + whole]);
        next += whole;
        carry[..split.len()].copy_from_slice(split);
        carried = split.len();
    });
}

/// Encodes `values` at `addr` straight into the frames, a page-bounded
/// piece at a time.
fn write_elems<T: DsmScalar>(ctx: &ThreadCtx<'_>, addr: VirtAddr, values: &[T]) {
    let b = T::BYTES;
    // The race event carries the first 8 bytes of the write: encode the
    // elements that cover them.
    let lead = values.len().min(8usize.div_ceil(b.max(1)));
    let mut prefix: Carry = [0; MAX_SCALAR_BYTES];
    T::store_slice(&values[..lead], &mut prefix[..lead * b]);
    let mut carry: Carry = [0; MAX_SCALAR_BYTES];
    let mut carried = 0; // bytes of `carry`'s split element already written
    let mut next = 0; // the next element of `values` to encode
    ctx.write_with(addr, values.len() * b, &prefix[..lead * b], |mut piece| {
        if carried > 0 {
            let (tail, rest) = std::mem::take(&mut piece).split_at_mut(b - carried);
            tail.copy_from_slice(&carry[carried..b]);
            piece = rest;
        }
        let whole = piece.len() / b;
        let (body, split) = piece.split_at_mut(whole * b);
        T::store_slice(&values[next..next + whole], body);
        next += whole;
        carried = split.len();
        if carried > 0 {
            values[next].store(&mut carry[..b]);
            split.copy_from_slice(&carry[..carried]);
            next += 1;
        }
    });
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
        assert_fits::<T>();
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
        get_one(ctx, self.addr_of(i))
    }

    /// Writes element `i` through the consistency protocol.
    pub fn set(&self, ctx: &ThreadCtx<'_>, i: usize, value: T) {
        set_one(ctx, self.addr_of(i), value);
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
        read_elems(ctx, self.addr_of(start), out);
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
        write_elems(ctx, self.addr_of(start), values);
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
            let bytes = &mut buf[..chunk.len() * T::BYTES];
            T::store_slice(chunk, bytes);
            shared.write_init(self.addr_of(c * per_chunk), bytes);
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
            let bytes = &mut buf[..n * T::BYTES];
            shared.read_coherent(self.addr_of(start), bytes);
            out.extend((0..n).map(|i| T::load(&bytes[i * T::BYTES..(i + 1) * T::BYTES])));
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
        assert_fits::<T>();
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
        get_one(ctx, self.addr_of(r, c))
    }

    /// Writes element `(r, c)`.
    pub fn set(&self, ctx: &ThreadCtx<'_>, r: usize, c: usize, value: T) {
        set_one(ctx, self.addr_of(r, c), value);
    }

    /// Bulk-reads row `r` into `out` (must be `cols` long).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != cols` or `r` is out of bounds.
    pub fn read_row(&self, ctx: &ThreadCtx<'_>, r: usize, out: &mut [T]) {
        assert_eq!(out.len(), self.cols, "row buffer must be cols long");
        read_elems(ctx, self.addr_of(r, 0), out);
    }

    /// Bulk-writes row `r` from `values` (must be `cols` long).
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != cols` or `r` is out of bounds.
    pub fn write_row(&self, ctx: &ThreadCtx<'_>, r: usize, values: &[T]) {
        assert_eq!(values.len(), self.cols, "row buffer must be cols long");
        write_elems(ctx, self.addr_of(r, 0), values);
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
        for (r, row) in values.chunks(self.cols.max(1)).enumerate() {
            T::store_slice(row, &mut buf);
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
            out.extend((0..self.cols).map(|i| T::load(&buf[i * T::BYTES..(i + 1) * T::BYTES])));
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
        assert_fits::<T>();
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
        get_one(ctx, self.addr)
    }

    /// Writes the value through the consistency protocol.
    pub fn set(&self, ctx: &ThreadCtx<'_>, value: T) {
        set_one(ctx, self.addr, value);
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
        let mut buf: Carry = [0; MAX_SCALAR_BYTES];
        value.store(&mut buf[..T::BYTES]);
        proc_.shared_ref().write_init(self.addr, &buf[..T::BYTES]);
    }

    /// Reads the final cluster-coherent value after a run.
    pub fn snapshot(&self, proc_: &impl ProcessRef) -> T {
        let mut buf: Carry = [0; MAX_SCALAR_BYTES];
        proc_
            .shared_ref()
            .read_coherent(self.addr, &mut buf[..T::BYTES]);
        T::load(&buf[..T::BYTES])
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

    /// `load_slice`/`store_slice` must agree with element-wise
    /// `load`/`store`, whichever of them a type overrides.
    fn bulk_matches_elementwise<T: DsmScalar + PartialEq + std::fmt::Debug>(values: &[T]) {
        let b = T::BYTES;
        let mut one_by_one = vec![0u8; values.len() * b];
        for (v, bytes) in values.iter().zip(one_by_one.chunks_exact_mut(b)) {
            v.store(bytes);
        }
        let mut bulk = vec![0xAAu8; values.len() * b];
        T::store_slice(values, &mut bulk);
        assert_eq!(bulk, one_by_one, "store_slice");
        let mut decoded = values.to_vec();
        decoded.reverse();
        T::load_slice(&one_by_one, &mut decoded);
        assert_eq!(decoded, values, "load_slice");
        let elementwise: Vec<T> = one_by_one.chunks_exact(b).map(T::load).collect();
        assert_eq!(elementwise, values, "load");
    }

    #[test]
    fn bulk_codec_matches_elementwise_for_every_scalar() {
        bulk_matches_elementwise(&[0u8, 1, 0x7F, 0xFF]);
        bulk_matches_elementwise(&[0u16, 1, 0xBEEF, u16::MAX]);
        bulk_matches_elementwise(&[0u32, 7, 0xDEAD_BEEF, u32::MAX]);
        bulk_matches_elementwise(&[0u64, 9, 0x0123_4567_89AB_CDEF, u64::MAX]);
        bulk_matches_elementwise(&[0i8, -1, i8::MIN, i8::MAX]);
        bulk_matches_elementwise(&[0i16, -2, i16::MIN, i16::MAX]);
        bulk_matches_elementwise(&[0i32, -3, i32::MIN, i32::MAX]);
        bulk_matches_elementwise(&[0i64, -4, i64::MIN, i64::MAX]);
        bulk_matches_elementwise(&[0.0f32, -1.5, f32::MAX, f32::MIN_POSITIVE]);
        bulk_matches_elementwise(&[0.0f64, -2.25, f64::MAX, f64::EPSILON]);
        bulk_matches_elementwise(&[[1.5f64, -2.0, 99.0], [0.0, f64::MIN, 3.0e-300]]);
        bulk_matches_elementwise(&[[1u32, 2, 3, 4], [u32::MAX, 0, 7, 0xABCD]]);
        bulk_matches_elementwise(&[[[1u8, 2], [3, 4], [5, 6]], [[7, 8], [9, 10], [11, 12]]]);
        bulk_matches_elementwise::<u64>(&[]);
    }

    #[test]
    #[should_panic(expected = "load_slice length")]
    fn bulk_decode_rejects_a_short_source() {
        let mut out = [0u32; 2];
        u32::load_slice(&[0u8; 7], &mut out);
    }

    #[test]
    fn array_scalar_size() {
        assert_eq!(<[f64; 3] as DsmScalar>::BYTES, 24);
        assert_eq!(<[u32; 4] as DsmScalar>::BYTES, 16);
    }
}
