//! A per-(node, process) address-space replica.
//!
//! Each node on which a DEX process runs holds a replica of the address
//! space: the VMA set (synchronized on demand), a page table (armed by the
//! consistency protocol), and the page frames actually resident on the
//! node. Frames hold real bytes, so values computed through the protocol
//! are end-to-end checkable.

use crate::page::{PageFrame, VirtAddr, Vpn, PAGE_SIZE};
use crate::pte::{Access, PageTable};
use crate::radix::RadixTree;
use crate::vma::VmaSet;

/// Why a memory access cannot proceed locally and must enter the DEX
/// protocol (or fail).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// No PTE grants this access: the consistency protocol must fetch the
    /// page / upgrade ownership.
    Protocol {
        /// The faulting page.
        vpn: Vpn,
        /// The attempted access.
        access: Access,
    },
    /// The address lies outside every locally-known VMA: trigger on-demand
    /// VMA synchronization with the origin.
    VmaMiss {
        /// The faulting address.
        addr: VirtAddr,
    },
}

/// One node's replica of a process address space.
///
/// # Examples
///
/// ```
/// use dex_os::{Access, AddressSpace, Prot, Pte, VirtAddr, VmaKind};
///
/// let mut space = AddressSpace::new();
/// let addr = space.vmas.mmap(4096, Prot::RW, VmaKind::Heap, None);
/// // The page is mapped but not yet owned: first touch faults.
/// assert!(space.check(addr, Access::Write).is_err());
/// space.page_table.set(addr.vpn(), Pte::READ_WRITE);
/// space.write(addr, &7u32.to_le_bytes());
/// let mut buf = [0u8; 4];
/// space.read(addr, &mut buf);
/// assert_eq!(u32::from_le_bytes(buf), 7);
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// The VMA set of this replica.
    pub vmas: VmaSet,
    /// The page table of this replica.
    pub page_table: PageTable,
    frames: RadixTree<PageFrame>,
}

impl AddressSpace {
    /// Creates an empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks whether an access at `addr` may proceed locally.
    ///
    /// # Errors
    ///
    /// * [`MemFault::VmaMiss`] if no local VMA covers `addr` — the caller
    ///   must synchronize VMAs with the origin and retry.
    /// * [`MemFault::Protocol`] if the VMA permits the access but the PTE
    ///   does not — the caller must run the consistency protocol.
    pub fn check(&self, addr: VirtAddr, access: Access) -> Result<(), MemFault> {
        if self.vmas.check_access(addr, access.is_write()).is_err() {
            return Err(MemFault::VmaMiss { addr });
        }
        let pte = self.page_table.entry(addr.vpn());
        if pte.permits(access) {
            Ok(())
        } else {
            Err(MemFault::Protocol {
                vpn: addr.vpn(),
                access,
            })
        }
    }

    /// Immutable view of the frame backing `vpn`, if resident.
    pub fn frame(&self, vpn: Vpn) -> Option<&PageFrame> {
        self.frames.get(vpn.index())
    }

    /// The bytes of `vpn`'s frame, or the zero page when none is resident
    /// (what a mapped but untouched anonymous page reads as).
    pub fn page_bytes(&self, vpn: Vpn) -> &[u8] {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        self.frame(vpn).map_or(&ZERO_PAGE, PageFrame::bytes)
    }

    /// Mutable frame for `vpn`, allocating a zero frame on first touch
    /// (anonymous pages are zero-fill-on-demand).
    pub fn frame_mut(&mut self, vpn: Vpn) -> &mut PageFrame {
        self.frames
            .get_or_insert_with(vpn.index(), PageFrame::zeroed)
    }

    /// Installs `frame` as the contents of `vpn` (page data arriving from
    /// another node).
    pub fn install_frame(&mut self, vpn: Vpn, frame: PageFrame) {
        self.frames.insert(vpn.index(), frame);
    }

    /// Discards the frame of `vpn` (full invalidation). The PTE should be
    /// cleared separately.
    pub fn evict_frame(&mut self, vpn: Vpn) -> Option<PageFrame> {
        self.frames.remove(vpn.index())
    }

    /// The page table and the frame store as two disjoint borrows, so
    /// the protocol core can change a mapping and its contents in one
    /// step.
    pub fn page_table_and_frames(&mut self) -> (&mut PageTable, &mut RadixTree<PageFrame>) {
        (&mut self.page_table, &mut self.frames)
    }

    /// Number of resident frames.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Copies bytes out of resident frames starting at `addr`. May span
    /// pages. Intended to be called only after `check` succeeded for every
    /// covered page.
    pub fn read(&self, addr: VirtAddr, dst: &mut [u8]) {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < dst.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(dst.len() - filled);
            dst[filled..filled + chunk]
                .copy_from_slice(&self.page_bytes(cursor.vpn())[offset..offset + chunk]);
            filled += chunk;
            cursor = cursor.add(chunk as u64);
        }
    }

    /// Copies `src` into resident frames starting at `addr`, allocating
    /// zero frames as needed. May span pages.
    pub fn write(&mut self, addr: VirtAddr, src: &[u8]) {
        let mut cursor = addr;
        let mut written = 0usize;
        while written < src.len() {
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(src.len() - written);
            self.frame_mut(cursor.vpn())
                .write(offset, &src[written..written + chunk]);
            written += chunk;
            cursor = cursor.add(chunk as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::Pte;
    use crate::vma::{Prot, VmaKind};

    fn mapped_space(pages: u64) -> (AddressSpace, VirtAddr) {
        let mut s = AddressSpace::new();
        let addr = s
            .vmas
            .mmap(pages * PAGE_SIZE as u64, Prot::RW, VmaKind::Heap, None);
        (s, addr)
    }

    #[test]
    fn unmapped_address_is_vma_miss() {
        let s = AddressSpace::new();
        assert_eq!(
            s.check(VirtAddr::new(0x4000), Access::Read),
            Err(MemFault::VmaMiss {
                addr: VirtAddr::new(0x4000)
            })
        );
    }

    #[test]
    fn mapped_but_not_present_is_protocol_fault() {
        let (s, addr) = mapped_space(1);
        assert_eq!(
            s.check(addr, Access::Read),
            Err(MemFault::Protocol {
                vpn: addr.vpn(),
                access: Access::Read
            })
        );
    }

    #[test]
    fn read_only_pte_write_faults_into_protocol() {
        let (mut s, addr) = mapped_space(1);
        s.page_table.set(addr.vpn(), Pte::READ_ONLY);
        assert!(s.check(addr, Access::Read).is_ok());
        assert_eq!(
            s.check(addr, Access::Write),
            Err(MemFault::Protocol {
                vpn: addr.vpn(),
                access: Access::Write
            })
        );
    }

    #[test]
    fn read_of_untouched_page_is_zero() {
        let (s, addr) = mapped_space(1);
        let mut buf = [0xffu8; 16];
        s.read(addr, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut s, addr) = mapped_space(1);
        s.write(addr.add(100), b"hello dex");
        let mut buf = [0u8; 9];
        s.read(addr.add(100), &mut buf);
        assert_eq!(&buf, b"hello dex");
    }

    #[test]
    fn cross_page_write_and_read() {
        let (mut s, addr) = mapped_space(2);
        let straddle = addr.add(PAGE_SIZE as u64 - 4);
        s.write(straddle, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        s.read(straddle, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn frame_install_and_evict() {
        let (mut s, addr) = mapped_space(1);
        let mut frame = PageFrame::zeroed();
        frame.write(0, &[9, 9, 9]);
        s.install_frame(addr.vpn(), frame);
        let mut buf = [0u8; 3];
        s.read(addr, &mut buf);
        assert_eq!(buf, [9, 9, 9]);
        let evicted = s.evict_frame(addr.vpn()).expect("frame resident");
        assert_eq!(evicted.bytes()[0], 9);
        assert_eq!(s.resident_pages(), 0);
    }
}
