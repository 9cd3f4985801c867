//! Pages, addresses, and page frames.
//!
//! DEX provides memory consistency at page granularity; everything in the
//! protocol is keyed by the **virtual page number** ([`Vpn`]). Simulated
//! page frames hold real bytes so that application results computed through
//! the distributed-memory protocol can be checked against ground truth.

use std::fmt;
use std::sync::Arc;

/// Size of a simulated page in bytes (4 KiB, matching the paper's x86-64
/// testbed).
pub const PAGE_SIZE: usize = 4096;

/// Log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A virtual address within a simulated process address space.
///
/// # Examples
///
/// ```
/// use dex_os::{VirtAddr, PAGE_SIZE};
///
/// let a = VirtAddr::new(0x2000 + 17);
/// assert_eq!(a.vpn().index(), 2);
/// assert_eq!(a.page_offset(), 17);
/// assert_eq!(a.vpn().base().as_u64(), 0x2000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Wraps a raw virtual address.
    pub const fn new(addr: u64) -> Self {
        VirtAddr(addr)
    }

    /// The raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The page this address falls in.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> Self {
        VirtAddr(v)
    }
}

/// A virtual page number: a virtual address shifted down by
/// [`PAGE_SHIFT`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Wraps a raw page index.
    pub const fn new(index: u64) -> Self {
        Vpn(index)
    }

    /// The raw page index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The first address of the page.
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// The next page.
    pub const fn next(self) -> Vpn {
        Vpn(self.0 + 1)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterates the pages covering the byte range `[start, start + len)`.
///
/// # Examples
///
/// ```
/// use dex_os::{pages_covering, VirtAddr};
///
/// let pages: Vec<_> = pages_covering(VirtAddr::new(0x0fff), 2)
///     .map(|p| p.index())
///     .collect();
/// assert_eq!(pages, vec![0, 1]); // the range straddles a page boundary
/// ```
pub fn pages_covering(start: VirtAddr, len: u64) -> impl Iterator<Item = Vpn> {
    let first = start.vpn().index();
    let last = if len == 0 {
        first
    } else {
        VirtAddr::new(start.as_u64() + len - 1).vpn().index()
    };
    (first..=last).map(Vpn::new)
}

/// A 4 KiB physical page frame holding real bytes.
///
/// Frames are copy-on-write: a clone shares its source's bytes (a
/// refcount bump), and the first write through either handle copies the
/// page once if its bytes are still shared. Read replicas therefore share
/// their home's storage until someone writes, and a writer that holds the
/// only handle — the usual case once the protocol's invalidations are
/// acknowledged — writes in place.
#[derive(Clone, PartialEq, Eq)]
pub struct PageFrame {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl Default for PageFrame {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl PageFrame {
    /// A zero-filled frame (anonymous pages are zero-fill-on-demand).
    pub fn zeroed() -> Self {
        PageFrame {
            data: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read-only view of the frame contents.
    pub fn bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// Mutable view of the frame contents; copies the page first if
    /// another handle shares it.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Copies `src` into the frame at `offset` (copying the page first if
    /// another handle shares it).
    ///
    /// # Panics
    ///
    /// Panics if the copy would run past the end of the frame.
    pub fn write(&mut self, offset: usize, src: &[u8]) {
        self.bytes_mut()[offset..offset + src.len()].copy_from_slice(src);
    }
}

impl fmt::Debug for PageFrame {
    // Print a checksum, not 4 KiB of bytes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sum: u64 = self.data.iter().map(|&b| b as u64).sum();
        write!(f, "PageFrame(bytesum={sum})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_decomposition() {
        let a = VirtAddr::new(0x12345);
        assert_eq!(a.vpn(), Vpn::new(0x12));
        assert_eq!(a.page_offset(), 0x345);
        assert_eq!(a.vpn().base(), VirtAddr::new(0x12000));
    }

    #[test]
    fn pages_covering_single_byte() {
        let pages: Vec<_> = pages_covering(VirtAddr::new(0x1000), 1).collect();
        assert_eq!(pages, vec![Vpn::new(1)]);
    }

    #[test]
    fn pages_covering_exact_page() {
        let pages: Vec<_> = pages_covering(VirtAddr::new(0x1000), 4096).collect();
        assert_eq!(pages, vec![Vpn::new(1)]);
    }

    #[test]
    fn pages_covering_straddle() {
        let pages: Vec<_> = pages_covering(VirtAddr::new(0x1ffc), 8).collect();
        assert_eq!(pages, vec![Vpn::new(1), Vpn::new(2)]);
    }

    #[test]
    fn pages_covering_empty_range() {
        let pages: Vec<_> = pages_covering(VirtAddr::new(0x1000), 0).collect();
        assert_eq!(pages, vec![Vpn::new(1)]);
    }

    #[test]
    fn frame_roundtrip() {
        let mut f = PageFrame::zeroed();
        f.write(100, &[1, 2, 3, 4]);
        assert_eq!(f.bytes()[100..104], [1, 2, 3, 4]);
        assert_eq!(f.bytes()[99], 0);
        assert_eq!(f.bytes()[104], 0);
    }

    #[test]
    #[should_panic]
    fn frame_write_out_of_bounds_panics() {
        let mut f = PageFrame::zeroed();
        f.write(PAGE_SIZE - 1, &[1, 2]);
    }

    #[test]
    fn a_written_clone_leaves_the_other_unchanged() {
        let mut a = PageFrame::zeroed();
        a.write(0, &[7]);
        let mut b = a.clone();
        assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr(), "a clone shares");
        b.write(0, &[8]);
        assert_eq!((a.bytes()[0], b.bytes()[0]), (7, 8));
        a.bytes_mut()[1] = 9;
        assert_eq!((a.bytes()[1], b.bytes()[1]), (9, 0));
    }

    #[test]
    fn a_sole_owner_writes_in_place() {
        let mut f = PageFrame::zeroed();
        let before = f.bytes().as_ptr();
        f.write(10, &[1, 2, 3]);
        f.bytes_mut()[20] = 4;
        assert_eq!(f.bytes().as_ptr(), before);
        // Once the other handle is gone, the survivor is sole owner again.
        let shared = f.clone();
        drop(shared);
        f.write(30, &[5]);
        assert_eq!(f.bytes().as_ptr(), before);
    }

    #[test]
    fn equality_compares_contents() {
        let mut a = PageFrame::zeroed();
        let mut b = PageFrame::zeroed();
        assert_ne!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert_eq!(a, b);
        a.write(5, &[1]);
        assert_ne!(a, b);
        b.write(5, &[1]);
        assert_eq!(a, b);
    }
}
