//! Page table entries and per-replica page tables.
//!
//! DEX arms the memory-consistency protocol through PTE permissions: a
//! page a node does not own is simply not present (or present read-only),
//! so any access traps into the fault path (§III-C). The simulated
//! [`PageTable`] performs exactly that check.

use crate::page::Vpn;
use crate::radix::RadixTree;

/// The access kind of a memory operation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl Access {
    /// Returns `true` for [`Access::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, Access::Write)
    }
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Access::Read => write!(f, "read"),
            Access::Write => write!(f, "write"),
        }
    }
}

/// A simulated page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pte {
    /// The page is mapped on this node.
    pub present: bool,
    /// Stores are permitted (i.e. the node holds exclusive ownership under
    /// the DEX protocol).
    pub writable: bool,
}

impl Pte {
    /// An entry granting read-only access.
    pub const READ_ONLY: Pte = Pte {
        present: true,
        writable: false,
    };

    /// An entry granting full access.
    pub const READ_WRITE: Pte = Pte {
        present: true,
        writable: true,
    };

    /// Whether an access of kind `access` proceeds without faulting.
    pub fn permits(self, access: Access) -> bool {
        match access {
            Access::Read => self.present,
            Access::Write => self.present && self.writable,
        }
    }
}

/// A per-(node, process) page table mapping [`Vpn`]s to [`Pte`]s.
///
/// Absent entries behave as non-present PTEs, so a fresh replica faults on
/// its first touch of every page — exactly how a migrated thread starts
/// out on a remote node.
///
/// # Examples
///
/// ```
/// use dex_os::{Access, PageTable, Pte, Vpn};
///
/// let mut pt = PageTable::new();
/// let page = Vpn::new(7);
/// assert!(!pt.entry(page).permits(Access::Read)); // not present: fault
/// pt.set(page, Pte::READ_ONLY);
/// assert!(pt.entry(page).permits(Access::Read));
/// assert!(!pt.entry(page).permits(Access::Write)); // write fault
/// ```
#[derive(Clone, Default)]
pub struct PageTable {
    entries: RadixTree<Pte>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            entries: RadixTree::new(),
        }
    }

    /// The entry for `vpn` (non-present default when never set).
    pub fn entry(&self, vpn: Vpn) -> Pte {
        self.entries.get(vpn.index()).copied().unwrap_or_default()
    }

    /// Installs `pte` for `vpn`.
    pub fn set(&mut self, vpn: Vpn, pte: Pte) {
        self.entries.insert(vpn.index(), pte);
    }

    /// Clears the mapping for `vpn` (subsequent accesses fault).
    pub fn clear(&mut self, vpn: Vpn) {
        self.entries.remove(vpn.index());
    }

    /// Downgrades `vpn` to read-only if present (ownership revocation for
    /// shared readers).
    pub fn downgrade(&mut self, vpn: Vpn) {
        if let Some(pte) = self.entries.get_mut(vpn.index()) {
            pte.writable = false;
        }
    }

    /// Number of present entries.
    pub fn present_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates `(vpn, pte)` pairs in page order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.entries.iter().map(|(k, pte)| (Vpn::new(k), *pte))
    }

    /// Number of entries mapped writable (exclusive ownership under DEX).
    pub fn writable_count(&self) -> usize {
        self.entries.iter().filter(|(_, pte)| pte.writable).count()
    }

    /// A point-in-time copy of the table contents in page order.
    ///
    /// Verification tooling (`dex-check`) uses this to compare a node's
    /// mapped view against the directory's owner sets without holding a
    /// borrow of the live table.
    pub fn snapshot(&self) -> Vec<(Vpn, Pte)> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageTable")
            .field("present", &self.present_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_entry_faults_on_everything() {
        let pt = PageTable::new();
        let e = pt.entry(Vpn::new(3));
        assert!(!e.permits(Access::Read));
        assert!(!e.permits(Access::Write));
    }

    #[test]
    fn read_only_permits_reads_only() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(1), Pte::READ_ONLY);
        assert!(pt.entry(Vpn::new(1)).permits(Access::Read));
        assert!(!pt.entry(Vpn::new(1)).permits(Access::Write));
    }

    #[test]
    fn read_write_permits_both() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(1), Pte::READ_WRITE);
        assert!(pt.entry(Vpn::new(1)).permits(Access::Read));
        assert!(pt.entry(Vpn::new(1)).permits(Access::Write));
    }

    #[test]
    fn clear_revokes_access() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(9), Pte::READ_WRITE);
        pt.clear(Vpn::new(9));
        assert!(!pt.entry(Vpn::new(9)).permits(Access::Read));
        assert_eq!(pt.present_count(), 0);
    }

    #[test]
    fn downgrade_keeps_read_access() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(5), Pte::READ_WRITE);
        pt.downgrade(Vpn::new(5));
        assert!(pt.entry(Vpn::new(5)).permits(Access::Read));
        assert!(!pt.entry(Vpn::new(5)).permits(Access::Write));
        // Downgrading an absent page is a no-op.
        pt.downgrade(Vpn::new(6));
        assert!(!pt.entry(Vpn::new(6)).permits(Access::Read));
    }

    #[test]
    fn iter_in_page_order() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(30), Pte::READ_ONLY);
        pt.set(Vpn::new(10), Pte::READ_WRITE);
        let pages: Vec<u64> = pt.iter().map(|(v, _)| v.index()).collect();
        assert_eq!(pages, vec![10, 30]);
    }

    #[test]
    fn snapshot_and_counts_reflect_permissions() {
        let mut pt = PageTable::new();
        pt.set(Vpn::new(1), Pte::READ_WRITE);
        pt.set(Vpn::new(2), Pte::READ_ONLY);
        pt.set(Vpn::new(3), Pte::READ_WRITE);
        assert_eq!(pt.present_count(), 3);
        assert_eq!(pt.writable_count(), 2);
        let snap = pt.snapshot();
        assert_eq!(snap.len(), 3);
        // The snapshot is decoupled from the live table.
        pt.clear(Vpn::new(1));
        assert_eq!(snap[0], (Vpn::new(1), Pte::READ_WRITE));
    }
}
