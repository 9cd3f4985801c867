//! Virtual memory areas (VMAs).
//!
//! The Linux VM subsystem manages memory at two levels: VMAs describe
//! address-space *ranges* (permissions, kind, backing), PTEs describe
//! per-page state. DEX synchronizes VMAs on demand (§III-D), so this
//! module keeps a per-replica [`VmaSet`] with the usual `mmap` / `munmap` /
//! `mprotect` operations, including range splitting, plus a generation
//! counter that the on-demand synchronization protocol uses to detect
//! staleness.

use std::collections::BTreeMap;

use crate::page::{VirtAddr, Vpn, PAGE_SIZE};

/// Access protection of a VMA.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Prot {
    /// Loads permitted.
    pub read: bool,
    /// Stores permitted.
    pub write: bool,
}

impl Prot {
    /// Read-write protection.
    pub const RW: Prot = Prot {
        read: true,
        write: true,
    };
    /// Read-only protection.
    pub const RO: Prot = Prot {
        read: true,
        write: false,
    };
    /// No access (guard region).
    pub const NONE: Prot = Prot {
        read: false,
        write: false,
    };

    /// Whether `other` grants no more than `self` (used to classify
    /// `mprotect` as a downgrade that must be broadcast eagerly).
    pub fn allows(self, other: Prot) -> bool {
        (!other.read || self.read) && (!other.write || self.write)
    }
}

/// What an address-space range is used for. DEX's profiling tool groups
/// faults by this classification (stack vs. global vs. heap contention).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VmaKind {
    /// Program text.
    Code,
    /// Statically allocated global data.
    GlobalData,
    /// Dynamically allocated heap region.
    Heap,
    /// A thread's runtime stack.
    Stack,
    /// Thread-local storage.
    Tls,
    /// Plain anonymous mapping.
    Anon,
}

/// One virtual memory area: a half-open byte range with uniform protection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vma {
    /// First byte of the range (page aligned).
    pub start: VirtAddr,
    /// One past the last byte (page aligned).
    pub end: VirtAddr,
    /// Current protection.
    pub prot: Prot,
    /// Usage classification.
    pub kind: VmaKind,
    /// Optional user label (surfaces in page-fault profiles).
    pub tag: Option<&'static str>,
}

impl Vma {
    /// Length of the range in bytes.
    pub fn len(&self) -> u64 {
        self.end.as_u64() - self.start.as_u64()
    }

    /// Returns `true` if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns `true` if `addr` falls inside the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        self.start <= addr && addr < self.end
    }

    /// Pages covered by the range.
    pub fn pages(&self) -> impl Iterator<Item = Vpn> {
        let first = self.start.vpn().index();
        let last = self.end.as_u64().div_ceil(PAGE_SIZE as u64);
        (first..last).map(Vpn::new)
    }
}

/// Errors from VMA manipulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmaError {
    /// A new mapping would overlap an existing one.
    Overlap {
        /// Start of the existing conflicting mapping.
        existing_start: VirtAddr,
    },
    /// Range arguments were not page aligned or were empty.
    BadRange,
    /// The operated-on range is not fully covered by existing mappings.
    NotMapped {
        /// First unmapped address encountered.
        at: VirtAddr,
    },
}

impl std::fmt::Display for VmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmaError::Overlap { existing_start } => {
                write!(f, "mapping overlaps existing vma at {existing_start}")
            }
            VmaError::BadRange => write!(f, "range is empty or not page aligned"),
            VmaError::NotMapped { at } => write!(f, "address {at} is not mapped"),
        }
    }
}

impl std::error::Error for VmaError {}

/// Default base address for placement-chosen mappings.
pub const MMAP_BASE: u64 = 0x1000_0000;

/// The set of VMAs of one address-space replica, ordered by start address.
///
/// # Examples
///
/// ```
/// use dex_os::{Prot, VirtAddr, VmaKind, VmaSet};
///
/// let mut set = VmaSet::new();
/// let addr = set.mmap(8192, Prot::RW, VmaKind::Heap, None);
/// assert!(set.find(addr).is_some());
/// set.munmap(addr, 4096).unwrap();
/// assert!(set.find(addr).is_none());
/// assert!(set.find(addr.add(4096)).is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct VmaSet {
    map: BTreeMap<u64, Vma>,
    generation: u64,
    mmap_hint: u64,
}

impl VmaSet {
    /// Creates an empty VMA set.
    pub fn new() -> Self {
        VmaSet {
            map: BTreeMap::new(),
            generation: 0,
            mmap_hint: MMAP_BASE,
        }
    }

    /// Monotone counter bumped by every mutation; used by on-demand VMA
    /// synchronization to detect stale replicas.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no VMAs exist.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The VMA containing `addr`, if any.
    pub fn find(&self, addr: VirtAddr) -> Option<&Vma> {
        let (_, vma) = self.map.range(..=addr.as_u64()).next_back()?;
        vma.contains(addr).then_some(vma)
    }

    /// Checks that an access of kind `write` at `addr` is legal under the
    /// current VMAs.
    ///
    /// # Errors
    ///
    /// [`VmaError::NotMapped`] if no VMA covers `addr` or the protection
    /// forbids the access.
    pub fn check_access(&self, addr: VirtAddr, write: bool) -> Result<&Vma, VmaError> {
        match self.find(addr) {
            Some(vma) if (write && vma.prot.write) || (!write && vma.prot.read) => Ok(vma),
            _ => Err(VmaError::NotMapped { at: addr }),
        }
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.map.values()
    }

    /// Maps `len` bytes (rounded up to pages) at a placement-chosen
    /// address.
    pub fn mmap(
        &mut self,
        len: u64,
        prot: Prot,
        kind: VmaKind,
        tag: Option<&'static str>,
    ) -> VirtAddr {
        let len = round_up(len.max(1));
        let mut candidate = self.mmap_hint;
        loop {
            match self.first_overlap(candidate, candidate + len) {
                None => break,
                Some(existing) => {
                    candidate = round_up(existing.end.as_u64());
                }
            }
        }
        let addr = VirtAddr::new(candidate);
        self.mmap_fixed(addr, len, prot, kind, tag)
            .expect("chosen address cannot overlap");
        self.mmap_hint = candidate + len;
        addr
    }

    /// Maps `[addr, addr + len)` exactly.
    ///
    /// # Errors
    ///
    /// * [`VmaError::BadRange`] if the range is empty or misaligned.
    /// * [`VmaError::Overlap`] if it intersects an existing VMA.
    pub fn mmap_fixed(
        &mut self,
        addr: VirtAddr,
        len: u64,
        prot: Prot,
        kind: VmaKind,
        tag: Option<&'static str>,
    ) -> Result<(), VmaError> {
        if len == 0
            || !addr.as_u64().is_multiple_of(PAGE_SIZE as u64)
            || !len.is_multiple_of(PAGE_SIZE as u64)
        {
            return Err(VmaError::BadRange);
        }
        if let Some(v) = self.first_overlap(addr.as_u64(), addr.as_u64() + len) {
            return Err(VmaError::Overlap {
                existing_start: v.start,
            });
        }
        self.map.insert(
            addr.as_u64(),
            Vma {
                start: addr,
                end: addr.add(len),
                prot,
                kind,
                tag,
            },
        );
        self.generation += 1;
        Ok(())
    }

    /// Installs a VMA verbatim, replacing any overlap — used when a remote
    /// replica adopts authoritative VMA info from the origin.
    pub fn install(&mut self, vma: Vma) {
        self.carve(vma.start.as_u64(), vma.end.as_u64());
        self.map.insert(vma.start.as_u64(), vma);
        self.generation += 1;
    }

    /// Unmaps `[addr, addr + len)`, splitting partially-covered VMAs.
    /// Returns the removed page range.
    ///
    /// # Errors
    ///
    /// [`VmaError::BadRange`] if the range is empty or misaligned. (Ranges
    /// that cover no mapping are fine — like Linux `munmap`.)
    pub fn munmap(&mut self, addr: VirtAddr, len: u64) -> Result<Vec<Vpn>, VmaError> {
        if len == 0
            || !addr.as_u64().is_multiple_of(PAGE_SIZE as u64)
            || !len.is_multiple_of(PAGE_SIZE as u64)
        {
            return Err(VmaError::BadRange);
        }
        let removed = self.carve(addr.as_u64(), addr.as_u64() + len);
        self.generation += 1;
        Ok(removed.iter().flat_map(Vma::pages).collect())
    }

    /// Changes protection on `[addr, addr + len)`, splitting as needed.
    /// Returns `true` if the change *downgrades* access anywhere (which
    /// DEX must broadcast eagerly).
    ///
    /// # Errors
    ///
    /// * [`VmaError::BadRange`] for empty/misaligned ranges.
    /// * [`VmaError::NotMapped`] if any page in the range is unmapped.
    pub fn mprotect(&mut self, addr: VirtAddr, len: u64, prot: Prot) -> Result<bool, VmaError> {
        if len == 0
            || !addr.as_u64().is_multiple_of(PAGE_SIZE as u64)
            || !len.is_multiple_of(PAGE_SIZE as u64)
        {
            return Err(VmaError::BadRange);
        }
        let (start, end) = (addr.as_u64(), addr.as_u64() + len);
        // Verify full coverage first so the operation is all-or-nothing.
        let mut cursor = start;
        while cursor < end {
            match self.find(VirtAddr::new(cursor)) {
                Some(vma) => cursor = vma.end.as_u64(),
                None => {
                    return Err(VmaError::NotMapped {
                        at: VirtAddr::new(cursor),
                    })
                }
            }
        }
        let mut downgraded = false;
        for mut mid in self.carve(start, end) {
            downgraded |= !prot.allows(mid.prot);
            mid.prot = prot;
            self.map.insert(mid.start.as_u64(), mid);
        }
        self.generation += 1;
        Ok(downgraded)
    }

    fn first_overlap(&self, start: u64, end: u64) -> Option<&Vma> {
        self.overlapping(start, end).next()
    }

    fn overlapping(&self, start: u64, end: u64) -> impl Iterator<Item = &Vma> {
        // A VMA beginning before `start` may still cover it, so begin the
        // scan one entry earlier.
        let scan_from = self
            .map
            .range(..=start)
            .next_back()
            .map(|(k, _)| *k)
            .unwrap_or(start);
        self.map
            .range(scan_from..end)
            .map(|(_, v)| v)
            .filter(move |v| v.start.as_u64() < end && v.end.as_u64() > start)
    }

    /// Removes `[start, end)` from the map, splitting partially covered
    /// VMAs, and returns the removed pieces: one per affected VMA, each
    /// clipped to the range.
    fn carve(&mut self, start: u64, end: u64) -> Vec<Vma> {
        let affected: Vec<Vma> = self.overlapping(start, end).cloned().collect();
        let mut removed = Vec::with_capacity(affected.len());
        for vma in affected {
            self.map.remove(&vma.start.as_u64());
            let cut_lo = vma.start.as_u64().max(start);
            let cut_hi = vma.end.as_u64().min(end);
            if vma.start.as_u64() < cut_lo {
                let mut left = vma.clone();
                left.end = VirtAddr::new(cut_lo);
                self.map.insert(left.start.as_u64(), left);
            }
            if cut_hi < vma.end.as_u64() {
                let mut right = vma.clone();
                right.start = VirtAddr::new(cut_hi);
                self.map.insert(right.start.as_u64(), right);
            }
            let mut mid = vma;
            mid.start = VirtAddr::new(cut_lo);
            mid.end = VirtAddr::new(cut_hi);
            removed.push(mid);
        }
        removed
    }
}

fn round_up(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u64 = PAGE_SIZE as u64;

    fn set_with(start: u64, pages: u64) -> VmaSet {
        let mut s = VmaSet::new();
        s.mmap_fixed(
            VirtAddr::new(start),
            pages * P,
            Prot::RW,
            VmaKind::Anon,
            None,
        )
        .unwrap();
        s
    }

    #[test]
    fn mmap_places_without_overlap() {
        let mut s = VmaSet::new();
        let a = s.mmap(3 * P, Prot::RW, VmaKind::Heap, None);
        let b = s.mmap(P, Prot::RO, VmaKind::GlobalData, None);
        assert!(b.as_u64() >= a.as_u64() + 3 * P);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mmap_fixed_rejects_overlap() {
        let mut s = set_with(0x10000, 4);
        let err = s
            .mmap_fixed(VirtAddr::new(0x12000), P, Prot::RW, VmaKind::Anon, None)
            .unwrap_err();
        assert_eq!(
            err,
            VmaError::Overlap {
                existing_start: VirtAddr::new(0x10000)
            }
        );
    }

    #[test]
    fn mmap_fixed_rejects_misalignment() {
        let mut s = VmaSet::new();
        assert_eq!(
            s.mmap_fixed(VirtAddr::new(123), P, Prot::RW, VmaKind::Anon, None),
            Err(VmaError::BadRange)
        );
        assert_eq!(
            s.mmap_fixed(VirtAddr::new(0x1000), 100, Prot::RW, VmaKind::Anon, None),
            Err(VmaError::BadRange)
        );
    }

    #[test]
    fn find_respects_boundaries() {
        let s = set_with(0x10000, 2);
        assert!(s.find(VirtAddr::new(0x0ffff)).is_none());
        assert!(s.find(VirtAddr::new(0x10000)).is_some());
        assert!(s.find(VirtAddr::new(0x11fff)).is_some());
        assert!(s.find(VirtAddr::new(0x12000)).is_none());
    }

    #[test]
    fn check_access_enforces_prot() {
        let mut s = VmaSet::new();
        s.mmap_fixed(
            VirtAddr::new(0x10000),
            P,
            Prot::RO,
            VmaKind::GlobalData,
            None,
        )
        .unwrap();
        assert!(s.check_access(VirtAddr::new(0x10008), false).is_ok());
        assert!(s.check_access(VirtAddr::new(0x10008), true).is_err());
    }

    #[test]
    fn munmap_whole_vma() {
        let mut s = set_with(0x10000, 2);
        let removed = s.munmap(VirtAddr::new(0x10000), 2 * P).unwrap();
        assert_eq!(removed, vec![Vpn::new(0x10), Vpn::new(0x11)]);
        assert!(s.is_empty());
    }

    #[test]
    fn munmap_splits_middle() {
        let mut s = set_with(0x10000, 4); // pages 0x10..0x14
        let removed = s.munmap(VirtAddr::new(0x11000), P).unwrap();
        assert_eq!(removed, vec![Vpn::new(0x11)]);
        assert_eq!(s.len(), 2);
        assert!(s.find(VirtAddr::new(0x10000)).is_some());
        assert!(s.find(VirtAddr::new(0x11000)).is_none());
        assert!(s.find(VirtAddr::new(0x12000)).is_some());
        assert!(s.find(VirtAddr::new(0x13fff)).is_some());
    }

    #[test]
    fn munmap_shrinks_edges() {
        let mut s = set_with(0x10000, 4);
        s.munmap(VirtAddr::new(0x10000), P).unwrap(); // left edge
        s.munmap(VirtAddr::new(0x13000), P).unwrap(); // right edge
        let vma = s.find(VirtAddr::new(0x11000)).unwrap();
        assert_eq!(vma.start, VirtAddr::new(0x11000));
        assert_eq!(vma.end, VirtAddr::new(0x13000));
    }

    #[test]
    fn munmap_spanning_multiple_vmas() {
        let mut s = VmaSet::new();
        for i in 0..3u64 {
            s.mmap_fixed(
                VirtAddr::new(0x10000 + i * P),
                P,
                Prot::RW,
                VmaKind::Anon,
                None,
            )
            .unwrap();
        }
        let removed = s.munmap(VirtAddr::new(0x10000), 3 * P).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn munmap_of_unmapped_range_is_ok() {
        let mut s = VmaSet::new();
        assert_eq!(s.munmap(VirtAddr::new(0x40000), P).unwrap(), vec![]);
    }

    #[test]
    fn mprotect_detects_downgrade() {
        let mut s = set_with(0x10000, 2);
        let down = s.mprotect(VirtAddr::new(0x10000), P, Prot::RO).unwrap();
        assert!(down, "RW -> RO is a downgrade");
        let up = s.mprotect(VirtAddr::new(0x10000), P, Prot::RW).unwrap();
        assert!(!up, "RO -> RW is permissive");
    }

    #[test]
    fn mprotect_splits_range() {
        let mut s = set_with(0x10000, 3);
        s.mprotect(VirtAddr::new(0x11000), P, Prot::RO).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.find(VirtAddr::new(0x10000)).unwrap().prot, Prot::RW);
        assert_eq!(s.find(VirtAddr::new(0x11000)).unwrap().prot, Prot::RO);
        assert_eq!(s.find(VirtAddr::new(0x12000)).unwrap().prot, Prot::RW);
    }

    #[test]
    fn mprotect_unmapped_range_fails_atomically() {
        let mut s = set_with(0x10000, 1);
        let err = s
            .mprotect(VirtAddr::new(0x10000), 2 * P, Prot::RO)
            .unwrap_err();
        assert_eq!(
            err,
            VmaError::NotMapped {
                at: VirtAddr::new(0x11000)
            }
        );
        assert_eq!(s.find(VirtAddr::new(0x10000)).unwrap().prot, Prot::RW);
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut s = VmaSet::new();
        let g0 = s.generation();
        let a = s.mmap(P, Prot::RW, VmaKind::Heap, None);
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.munmap(a, P).unwrap();
        assert!(s.generation() > g1);
    }

    #[test]
    fn install_replaces_overlap() {
        let mut s = set_with(0x10000, 2);
        s.install(Vma {
            start: VirtAddr::new(0x10000),
            end: VirtAddr::new(0x11000),
            prot: Prot::RO,
            kind: VmaKind::GlobalData,
            tag: Some("params"),
        });
        assert_eq!(s.find(VirtAddr::new(0x10000)).unwrap().prot, Prot::RO);
        assert_eq!(s.find(VirtAddr::new(0x11000)).unwrap().prot, Prot::RW);
    }

    #[test]
    fn install_over_itself_and_a_partial_overlap_splits_as_munmap_does() {
        let vma = |start: u64, end: u64, prot, kind, tag: &'static str| Vma {
            start: VirtAddr::new(start),
            end: VirtAddr::new(end),
            prot,
            kind,
            tag: Some(tag),
        };
        let heap = vma(0x10000, 0x14000, Prot::RW, VmaKind::Heap, "heap");
        let data = vma(0x14000, 0x16000, Prot::RO, VmaKind::GlobalData, "data");
        let mut s = VmaSet::new();
        s.install(heap.clone());
        s.install(data.clone());
        let map = |s: &VmaSet| s.iter().cloned().collect::<Vec<_>>();

        let g = s.generation();
        s.install(heap.clone());
        assert_eq!(map(&s), vec![heap.clone(), data.clone()]);
        assert!(s.generation() > g);

        // A piece of the heap over itself: the heap splits around it.
        let g = s.generation();
        s.install(vma(0x11000, 0x13000, Prot::RW, VmaKind::Heap, "heap"));
        assert_eq!(
            map(&s),
            vec![
                vma(0x10000, 0x11000, Prot::RW, VmaKind::Heap, "heap"),
                vma(0x11000, 0x13000, Prot::RW, VmaKind::Heap, "heap"),
                vma(0x13000, 0x14000, Prot::RW, VmaKind::Heap, "heap"),
                data.clone(),
            ]
        );
        assert!(s.generation() > g);

        // Straddling two VMAs: each is clipped, the rest replaced.
        let g = s.generation();
        let grown = vma(0x12000, 0x15000, Prot::RW, VmaKind::Anon, "grown");
        s.install(grown.clone());
        assert_eq!(
            map(&s),
            vec![
                vma(0x10000, 0x11000, Prot::RW, VmaKind::Heap, "heap"),
                vma(0x11000, 0x12000, Prot::RW, VmaKind::Heap, "heap"),
                grown,
                vma(0x15000, 0x16000, Prot::RO, VmaKind::GlobalData, "data"),
            ]
        );
        assert!(s.generation() > g);

        // munmap across three VMAs returns exactly the pages it removed.
        let removed = s.munmap(VirtAddr::new(0x11000), 5 * P).unwrap();
        assert_eq!(removed, (0x11..0x16).map(Vpn::new).collect::<Vec<_>>());
        assert_eq!(
            map(&s),
            vec![vma(0x10000, 0x11000, Prot::RW, VmaKind::Heap, "heap")]
        );
    }

    #[test]
    fn vma_pages_iterates_covered_pages() {
        let vma = Vma {
            start: VirtAddr::new(0x10000),
            end: VirtAddr::new(0x12000),
            prot: Prot::RW,
            kind: VmaKind::Anon,
            tag: None,
        };
        assert_eq!(
            vma.pages().collect::<Vec<_>>(),
            vec![Vpn::new(0x10), Vpn::new(0x11)]
        );
    }
}
