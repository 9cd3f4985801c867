//! The origin-side ownership directory (§III-B).
//!
//! DEX tracks the location of up-to-date pages by maintaining per-page,
//! per-node ownership at the origin, indexed by a radix tree keyed on the
//! virtual page number. The model is multiple-reader / single-writer with
//! read-replicate / write-invalidate transitions:
//!
//! * initially the origin exclusively owns every page;
//! * a read request adds the requester to the owner set (replication),
//!   flushing the current exclusive writer first if there is one;
//! * a write request revokes every other owner and grants exclusivity,
//!   skipping the data transfer when the requester's copy is already up to
//!   date;
//! * a request against a page with an in-flight transaction is told to
//!   retry (the slow mode of the paper's bimodal fault cost).
//!
//! This module is *pure protocol logic*: methods consume a request and
//! return the [`DirAction`]s the caller must perform (send messages,
//! change the origin's own PTE, install staged data). That keeps the state
//! machine unit-testable without the simulator, and the invariants
//! machine-checkable (see the property tests).

pub mod model;

use dex_net::NodeId;
use dex_os::{Access, RadixTree, Vpn};

/// A compact set of node ids (the cluster is rack-scale: ≤ 64 nodes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet(0);

    /// A set containing only `node`.
    pub fn single(node: NodeId) -> Self {
        let mut s = NodeSet::EMPTY;
        s.insert(node);
        s
    }

    /// Adds `node`.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node.0 < 64, "NodeSet supports up to 64 nodes");
        self.0 |= 1 << node.0;
    }

    /// Removes `node`. A no-op for out-of-range ids (>= 64): clamping the
    /// shift would silently clear node 63's bit instead.
    pub fn remove(&mut self, node: NodeId) {
        debug_assert!(node.0 < 64, "NodeSet supports up to 64 nodes");
        if node.0 < 64 {
            self.0 &= !(1 << node.0);
        }
    }

    /// Membership test.
    pub fn contains(self, node: NodeId) -> bool {
        node.0 < 64 && self.0 & (1 << node.0) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` when empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates members in ascending node order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0..64u16)
            .filter(move |i| self.0 & (1 << i) != 0)
            .map(NodeId)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::EMPTY;
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Who is waiting for a page-request to complete.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Requester {
    /// A remote node's thread; the grant travels over the fabric.
    Remote {
        /// The requesting node.
        node: NodeId,
        /// Correlation id of its request.
        req_id: u64,
    },
    /// A thread at the origin itself; the grant is delivered locally.
    Local {
        /// Correlation id of the origin-local waiter.
        req_id: u64,
    },
}

impl Requester {
    /// The node the requester runs on.
    pub fn node(self, origin: NodeId) -> NodeId {
        match self {
            Requester::Remote { node, .. } => node,
            Requester::Local { .. } => origin,
        }
    }
}

/// An action the caller must carry out after a directory transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DirAction {
    /// Grant the request: set the requester's PTE (and ship origin frame
    /// contents when `with_data`).
    Grant {
        /// Who to grant.
        to: Requester,
        /// The access granted.
        access: Access,
        /// Whether page contents accompany the grant.
        with_data: bool,
    },
    /// Tell the requester to back off and retry.
    Retry {
        /// Who to tell.
        to: Requester,
    },
    /// Ask `to` (the current exclusive writer) to downgrade to shared and
    /// return the page contents.
    SendFlush {
        /// The writer node.
        to: NodeId,
    },
    /// Revoke `to`'s copy; `needs_data` when it holds the only up-to-date
    /// one.
    SendInvalidate {
        /// The owner being revoked.
        to: NodeId,
        /// Whether the revoked node must ship contents back.
        needs_data: bool,
    },
    /// The origin loses its own mapping (clear PTE; keep the stale frame).
    /// In sharded mode this applies to the *home* node's own mapping —
    /// the node the directory shard runs on.
    ClearOriginPte,
    /// The origin's exclusive mapping becomes shared (writable bit off).
    /// In sharded mode: the home node's own mapping.
    DowngradeOriginPte,
    /// The origin (re)gains a shared mapping of the page.
    SetOriginPteRo,
    /// Staged page contents (from a flush or a data-carrying invalidation
    /// ack) must be installed into the origin's frame.
    InstallOriginData,
    /// (Sharded mode) Ask `to`, the page's current owner, to service the
    /// request directly: adjust its own PTE, send the grant (with data)
    /// straight to the requester, and acknowledge the home
    /// asynchronously — the two-hop critical path.
    Forward {
        /// The current owner the request is forwarded to.
        to: NodeId,
        /// The requester the owner must grant directly.
        requester: Requester,
        /// The access requested.
        access: Access,
    },
    /// (Sharded mode) Revoke every doomed replica that `to` holds for the
    /// faulting transaction with one message and one aggregated ack.
    SendInvalidateBatch {
        /// The node whose replicas are revoked.
        to: NodeId,
        /// `(page, needs_data)` per doomed replica at that node.
        entries: Vec<(Vpn, bool)>,
    },
    /// (Sharded mode) The home node itself holds a doomed replica: clear
    /// the home's own PTE and evict the frame synchronously; when
    /// `needs_data`, stage the frame contents for the eventual grant
    /// first.
    DropHomeCopy {
        /// Whether the home's copy is the elected data source.
        needs_data: bool,
    },
}

/// The state the directory keeps per page.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PageInfo {
    /// Nodes holding a valid copy.
    owners: NodeSet,
    /// The exclusive writer, if any (then `owners == {writer}`).
    writer: Option<NodeId>,
    /// In-flight revocation/flush transaction.
    txn: Option<Txn>,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Txn {
    access: Access,
    requester: Requester,
    pending: NodeSet,
    /// Requester already held a valid copy (skip the data transfer).
    requester_had_copy: bool,
}

/// Statistics the directory maintains about its own activity.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DirStats {
    /// Requests answered without any remote revocation.
    pub inline_grants: u64,
    /// Requests that opened a flush/invalidate transaction.
    pub transactions: u64,
    /// Requests refused with a retry.
    pub retries: u64,
}

/// The per-process ownership directory living at the origin.
///
/// # Examples
///
/// ```
/// use dex_core::{DirAction, Directory, Requester};
/// use dex_net::NodeId;
/// use dex_os::{Access, Vpn};
///
/// let origin = NodeId(0);
/// let mut dir = Directory::new(origin);
/// // Node 1 read-faults on a fresh page: the origin owns it, so the
/// // grant is inline and carries data.
/// let actions = dir.request(
///     Vpn::new(5),
///     Access::Read,
///     Requester::Remote { node: NodeId(1), req_id: 9 },
/// );
/// assert!(actions.contains(&DirAction::Grant {
///     to: Requester::Remote { node: NodeId(1), req_id: 9 },
///     access: Access::Read,
///     with_data: true,
/// }));
/// ```
#[derive(Clone, Debug)]
pub struct Directory {
    origin: NodeId,
    /// The node this directory (shard) runs on. Equal to `origin` in the
    /// classic single-origin configuration.
    home: NodeId,
    /// Sharded mode: requests are serviced with owner forwarding and
    /// batched invalidations instead of origin-mediated transfers.
    forwarding: bool,
    pages: RadixTree<PageInfo>,
    stats: DirStats,
    /// Nodes declared fail-stopped by [`Directory::on_node_crash`]; late
    /// messages from them are ignored and they never re-enter owner sets.
    dead: NodeSet,
}

impl Directory {
    /// Creates the directory; every page starts exclusively owned by the
    /// origin.
    pub fn new(origin: NodeId) -> Self {
        Directory {
            origin,
            home: origin,
            forwarding: false,
            pages: RadixTree::new(),
            stats: DirStats::default(),
            dead: NodeSet::EMPTY,
        }
    }

    /// Creates one shard of a distributed directory, living at `home`.
    /// Untouched pages still start exclusively owned by the origin (their
    /// frames live there), but the home reaches the origin's copy through
    /// messages like any other owner's: requests are forwarded to the
    /// current owner, which grants straight to the requester.
    pub fn forwarded(home: NodeId, origin: NodeId) -> Self {
        Directory {
            origin,
            home,
            forwarding: true,
            pages: RadixTree::new(),
            stats: DirStats::default(),
            dead: NodeSet::EMPTY,
        }
    }

    /// The node this directory (shard) runs on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Whether this directory services requests with owner forwarding.
    pub fn is_forwarding(&self) -> bool {
        self.forwarding
    }

    /// Nodes declared dead so far.
    pub fn dead_nodes(&self) -> NodeSet {
        self.dead
    }

    /// Activity statistics.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Number of pages with directory state (touched by the protocol).
    pub fn tracked_pages(&self) -> usize {
        self.pages.len()
    }

    /// The node holding `vpn` exclusively, if any (the origin for pages
    /// the protocol never touched). Used by computation-placement
    /// policies ("relocating the computation near data", §VII).
    pub fn current_writer(&self, vpn: Vpn) -> Option<NodeId> {
        match self.pages.get(vpn.index()) {
            Some(info) => info.writer,
            None => Some(self.origin),
        }
    }

    /// Whether `vpn` has an in-flight transaction.
    pub fn has_txn(&self, vpn: Vpn) -> bool {
        let info = self.pages.get(vpn.index());
        info.is_some_and(|info| info.txn.is_some())
    }

    /// The nodes holding a valid copy of `vpn`.
    pub fn owners(&self, vpn: Vpn) -> NodeSet {
        match self.pages.get(vpn.index()) {
            Some(info) => info.owners,
            None => NodeSet::single(self.origin),
        }
    }

    fn info(&mut self, vpn: Vpn) -> &mut PageInfo {
        let origin = self.origin;
        self.pages.get_or_insert_with(vpn.index(), || PageInfo {
            owners: NodeSet::single(origin),
            writer: Some(origin),
            txn: None,
        })
    }

    /// Handles a page request, returning the actions to perform.
    ///
    /// # Panics
    ///
    /// Panics if a local requester claims a remote node (caller bug).
    pub fn request(&mut self, vpn: Vpn, access: Access, requester: Requester) -> Vec<DirAction> {
        if self.forwarding {
            return self.request_forwarded(vpn, access, requester);
        }
        let origin = self.origin;
        let node = requester.node(origin);
        if self.dead.contains(node) {
            // A request sent before the node fail-stopped but delivered
            // after: drop it. Any grant would leak ownership to a dead
            // node, and the reply could not be delivered anyway.
            return Vec::new();
        }
        let info = self.info(vpn);

        if info.txn.is_some() {
            self.stats.retries += 1;
            return vec![DirAction::Retry { to: requester }];
        }

        let mut actions = Vec::new();
        match access {
            Access::Read => {
                match info.writer {
                    Some(w) if w == node => {
                        // Degenerate: requester is already the writer.
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: false,
                        });
                    }
                    Some(w) if w == origin => {
                        // The origin holds the page exclusively: downgrade
                        // our own PTE and replicate to the reader.
                        info.writer = None;
                        info.owners.insert(node);
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::DowngradeOriginPte);
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: !matches!(requester, Requester::Local { .. }),
                        });
                    }
                    Some(w) => {
                        // A remote node writes the page: flush it first.
                        info.txn = Some(Txn {
                            access,
                            requester,
                            pending: NodeSet::single(w),
                            requester_had_copy: false,
                        });
                        self.stats.transactions += 1;
                        actions.push(DirAction::SendFlush { to: w });
                    }
                    None => {
                        // Shared readers; the origin always retains a copy
                        // in this state (protocol invariant).
                        debug_assert!(info.owners.contains(origin));
                        info.owners.insert(node);
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: !matches!(requester, Requester::Local { .. }),
                        });
                    }
                }
            }
            Access::Write => {
                if info.writer == Some(node) {
                    self.stats.inline_grants += 1;
                    return vec![DirAction::Grant {
                        to: requester,
                        access,
                        with_data: false,
                    }];
                }
                let had_copy = info.owners.contains(node);
                let mut pending = NodeSet::EMPTY;
                for owner in info.owners.iter() {
                    if owner == node {
                        continue;
                    }
                    if owner == origin {
                        // Revoke our own mapping synchronously.
                        actions.push(DirAction::ClearOriginPte);
                        info.owners.remove(origin);
                    } else {
                        let needs_data = info.writer == Some(owner);
                        actions.push(DirAction::SendInvalidate {
                            to: owner,
                            needs_data,
                        });
                        pending.insert(owner);
                    }
                }
                if pending.is_empty() {
                    info.owners = NodeSet::single(node);
                    info.writer = Some(node);
                    let with_data = !had_copy && !matches!(requester, Requester::Local { .. });
                    actions.push(DirAction::Grant {
                        to: requester,
                        access,
                        with_data,
                    });
                    self.stats.inline_grants += 1;
                } else {
                    info.txn = Some(Txn {
                        access,
                        requester,
                        pending,
                        requester_had_copy: had_copy,
                    });
                    self.stats.transactions += 1;
                }
            }
        }
        actions
    }

    /// The sharded-mode request path: the home owns the metadata but not
    /// (necessarily) the data, so exclusive pages are serviced by
    /// forwarding to the current owner (which grants straight to the
    /// requester — two hops on the critical path) and shared pages are
    /// written by revoking every other owner with one batched
    /// invalidation per destination node.
    fn request_forwarded(
        &mut self,
        vpn: Vpn,
        access: Access,
        requester: Requester,
    ) -> Vec<DirAction> {
        let home = self.home;
        let origin = self.origin;
        let node = requester.node(home);
        let local = matches!(requester, Requester::Local { .. });
        if self.dead.contains(node) {
            return Vec::new();
        }
        let info = self.info(vpn);

        if info.txn.is_some() {
            self.stats.retries += 1;
            return vec![DirAction::Retry { to: requester }];
        }

        let mut actions = Vec::new();
        match access {
            Access::Read => match info.writer {
                Some(w) if w == node => {
                    self.stats.inline_grants += 1;
                    actions.push(DirAction::Grant {
                        to: requester,
                        access,
                        with_data: false,
                    });
                }
                Some(w) if w == home => {
                    // The home itself holds the page exclusively:
                    // downgrade our own PTE and grant from the local frame.
                    info.writer = None;
                    info.owners.insert(node);
                    self.stats.inline_grants += 1;
                    actions.push(DirAction::DowngradeOriginPte);
                    actions.push(DirAction::Grant {
                        to: requester,
                        access,
                        with_data: !local,
                    });
                }
                Some(w) => {
                    // Exclusive elsewhere: forward. The owner downgrades
                    // itself, keeps a shared copy, and grants (with data)
                    // straight to the requester.
                    info.txn = Some(Txn {
                        access,
                        requester,
                        pending: NodeSet::single(w),
                        requester_had_copy: false,
                    });
                    self.stats.transactions += 1;
                    actions.push(DirAction::Forward {
                        to: w,
                        requester,
                        access,
                    });
                }
                None => {
                    if info.owners.contains(node) {
                        // Already a reader (a stale-PTE re-request):
                        // inline, nothing to transfer.
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: false,
                        });
                    } else if info.owners.contains(home) {
                        // The home holds a replica: serve from the local
                        // frame, two hops total.
                        info.owners.insert(node);
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: !local,
                        });
                    } else {
                        // Forward to a deterministic owner; prefer the
                        // origin so its frame stays the fallback copy.
                        let target = if info.owners.contains(origin) {
                            origin
                        } else {
                            info.owners
                                .iter()
                                .next()
                                .expect("shared page with no owners")
                        };
                        info.txn = Some(Txn {
                            access,
                            requester,
                            pending: NodeSet::single(target),
                            requester_had_copy: false,
                        });
                        self.stats.transactions += 1;
                        actions.push(DirAction::Forward {
                            to: target,
                            requester,
                            access,
                        });
                    }
                }
            },
            Access::Write => {
                if info.writer == Some(node) {
                    self.stats.inline_grants += 1;
                    return vec![DirAction::Grant {
                        to: requester,
                        access,
                        with_data: false,
                    }];
                }
                if let Some(w) = info.writer {
                    if w == home {
                        // The home is the exclusive writer: drop our own
                        // copy, staging its contents for the grant.
                        info.owners = NodeSet::single(node);
                        info.writer = Some(node);
                        self.stats.inline_grants += 1;
                        actions.push(DirAction::DropHomeCopy { needs_data: !local });
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: !local,
                        });
                    } else {
                        // Exclusive elsewhere: forward; the owner clears
                        // its own copy and grants exclusivity (with data)
                        // straight to the requester.
                        info.txn = Some(Txn {
                            access,
                            requester,
                            pending: NodeSet::single(w),
                            requester_had_copy: false,
                        });
                        self.stats.transactions += 1;
                        actions.push(DirAction::Forward {
                            to: w,
                            requester,
                            access,
                        });
                    }
                } else {
                    // Shared: revoke every other owner, one batched
                    // invalidation per destination node. When the
                    // requester has no copy, elect one doomed replica to
                    // ship contents back: the home's own (staged locally)
                    // when it holds one, else the smallest surviving
                    // owner (the origin sorts first when present).
                    let had_copy = info.owners.contains(node);
                    let need_from = if had_copy {
                        None
                    } else if info.owners.contains(home) {
                        Some(home)
                    } else {
                        info.owners.iter().find(|o| *o != node)
                    };
                    let mut pending = NodeSet::EMPTY;
                    for owner in info.owners.iter() {
                        if owner == node {
                            continue;
                        }
                        if owner == home {
                            actions.push(DirAction::DropHomeCopy {
                                needs_data: need_from == Some(home),
                            });
                            info.owners.remove(home);
                        } else {
                            actions.push(DirAction::SendInvalidateBatch {
                                to: owner,
                                entries: vec![(vpn, need_from == Some(owner))],
                            });
                            pending.insert(owner);
                        }
                    }
                    if pending.is_empty() {
                        info.owners = NodeSet::single(node);
                        info.writer = Some(node);
                        actions.push(DirAction::Grant {
                            to: requester,
                            access,
                            with_data: !had_copy && !local,
                        });
                        self.stats.inline_grants += 1;
                    } else {
                        info.txn = Some(Txn {
                            access,
                            requester,
                            pending,
                            requester_had_copy: had_copy,
                        });
                        self.stats.transactions += 1;
                    }
                }
            }
        }
        actions
    }

    /// (Sharded mode) Handles the owner's asynchronous acknowledgment of
    /// a forwarded request. The grant already went straight to the
    /// requester, so this only commits the ownership change and closes
    /// the transaction.
    ///
    /// # Panics
    ///
    /// Panics if the directory is not in sharded mode, or if no forwarded
    /// transaction is in flight for `vpn`.
    pub fn owner_ack(&mut self, vpn: Vpn, from: NodeId) -> Vec<DirAction> {
        assert!(self.forwarding, "owner acks only exist in sharded mode");
        if self.dead.contains(from) {
            // Late ack from a fail-stopped owner; `on_node_crash` already
            // force-completed the transaction.
            return Vec::new();
        }
        let home = self.home;
        let origin = self.origin;
        let info = self
            .pages
            .get_mut(vpn.index())
            .expect("owner ack for untracked page");
        let txn = info.txn.take().expect("owner ack without transaction");
        assert!(txn.pending.contains(from), "owner ack from unexpected node");
        let rnode = txn.requester.node(home);
        if self.dead.contains(rnode) {
            // The requester fail-stopped after the owner serviced it; the
            // origin's frame becomes the fallback surviving copy.
            info.owners = NodeSet::single(origin);
            info.writer = None;
            return Vec::new();
        }
        match txn.access {
            Access::Read => {
                // The owner kept a shared copy (downgrading itself if it
                // was the exclusive writer); the requester joined the
                // reader set.
                if info.writer == Some(from) {
                    info.writer = None;
                }
                info.owners.insert(from);
                info.owners.insert(rnode);
            }
            Access::Write => {
                info.owners = NodeSet::single(rnode);
                info.writer = Some(rnode);
            }
        }
        Vec::new()
    }

    /// Handles the writer's flush acknowledgment for `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if no flush transaction is in flight for `vpn` (protocol
    /// violation).
    pub fn flush_ack(&mut self, vpn: Vpn, from: NodeId) -> Vec<DirAction> {
        if self.dead.contains(from) {
            // A late flush ack from a fail-stopped node: the transaction
            // was already force-completed by `on_node_crash`.
            return Vec::new();
        }
        let origin = self.origin;
        let info = self
            .pages
            .get_mut(vpn.index())
            .expect("flush ack for untracked page");
        let txn = info.txn.take().expect("flush ack without transaction");
        assert_eq!(txn.access, Access::Read, "flush acks resolve read requests");
        assert!(txn.pending.contains(from), "flush ack from unexpected node");

        // The writer downgraded to shared; the origin installs the data
        // and keeps a read replica; the requester joins the reader set.
        info.writer = None;
        info.owners.insert(origin);
        let mut actions = vec![DirAction::InstallOriginData, DirAction::SetOriginPteRo];
        let rnode = txn.requester.node(origin);
        if !self.dead.contains(rnode) {
            info.owners.insert(rnode);
            actions.push(DirAction::Grant {
                to: txn.requester,
                access: Access::Read,
                with_data: !matches!(txn.requester, Requester::Local { .. }),
            });
        }
        actions
    }

    /// Handles an invalidation acknowledgment. Returns the completion
    /// actions once the last pending ack arrives (empty before that).
    ///
    /// # Panics
    ///
    /// Panics if no invalidation transaction is in flight for `vpn`.
    pub fn invalidate_ack(&mut self, vpn: Vpn, from: NodeId, carried_data: bool) -> Vec<DirAction> {
        if self.dead.contains(from) {
            // Late ack from a fail-stopped node; `on_node_crash` already
            // stopped waiting for it.
            return Vec::new();
        }
        let origin = self.origin;
        let home = self.home;
        let forwarding = self.forwarding;
        let info = self
            .pages
            .get_mut(vpn.index())
            .expect("invalidate ack for untracked page");
        let txn = info
            .txn
            .as_mut()
            .expect("invalidate ack without transaction");
        assert!(
            txn.pending.contains(from),
            "invalidate ack from unexpected node"
        );
        txn.pending.remove(from);

        let mut actions = Vec::new();
        if carried_data && !forwarding {
            // The revoked writer shipped the only up-to-date copy; stage
            // it in the origin frame so the grant can source from it.
            // (In sharded mode the home stages carried data out of band —
            // its own frame is not part of the transfer.)
            actions.push(DirAction::InstallOriginData);
        }
        if !txn.pending.is_empty() {
            return actions;
        }
        let txn = info.txn.take().expect("still present");
        let node = txn.requester.node(home);
        if self.dead.contains(node) {
            // The requester fail-stopped while its invalidations were in
            // flight: ownership reverts to the origin frame (which holds
            // the freshest surviving copy) instead of a dead node.
            info.owners = NodeSet::single(origin);
            info.writer = None;
            if !forwarding {
                actions.push(DirAction::SetOriginPteRo);
            }
            return actions;
        }
        info.owners = NodeSet::single(node);
        info.writer = Some(node);
        let with_data =
            !txn.requester_had_copy && !matches!(txn.requester, Requester::Local { .. });
        actions.push(DirAction::Grant {
            to: txn.requester,
            access: Access::Write,
            with_data,
        });
        actions
    }

    /// Reclaims directory state after node `dead` fail-stops.
    ///
    /// Fault-injection recovery (fail-stop model):
    ///
    /// * `dead` leaves every owner set; pages it held exclusively revert
    ///   to the origin's frame. Writes that never flushed are lost —
    ///   exactly the data-loss semantics of a real machine failure.
    /// * In-flight transactions stop waiting for acks from `dead`; if
    ///   that was the last pending ack, the transaction completes now
    ///   (granting to the requester when it survives, reverting to the
    ///   origin when the requester itself is the dead node).
    /// * Transactions still awaiting acks from *surviving* nodes stay
    ///   open; [`Directory::flush_ack`] / [`Directory::invalidate_ack`]
    ///   complete them later and know not to grant to a dead requester.
    ///
    /// Returns, per affected page, the actions the caller must apply at
    /// the origin (PTE changes and grants to surviving requesters).
    ///
    /// # Panics
    ///
    /// Panics if `dead` is the origin: the directory (and every page's
    /// backing frame) lives there, so an origin crash is process death,
    /// not something to recover from.
    pub fn on_node_crash(&mut self, dead: NodeId) -> Vec<(Vpn, Vec<DirAction>)> {
        assert_ne!(
            dead, self.origin,
            "origin crash is process death, not recoverable"
        );
        self.dead.insert(dead);
        let origin = self.origin;
        let all_dead = self.dead;
        let keys: Vec<u64> = self.pages.iter().map(|(key, _)| key).collect();
        let mut out = Vec::new();
        for key in keys {
            let vpn = Vpn::new(key);
            let mut actions = Vec::new();
            let info = self.pages.get_mut(key).expect("page vanished");

            // 1. Stop waiting for acks the dead node will never send.
            if let Some(txn) = info.txn.as_mut() {
                txn.pending.remove(dead);
                if txn.pending.is_empty() {
                    let txn = info.txn.take().expect("still present");
                    let rnode = txn.requester.node(self.home);
                    if self.forwarding {
                        // The home holds no frame to grant from, so a
                        // surviving requester is told to retry against
                        // the post-crash state instead.
                        if !all_dead.contains(rnode) {
                            actions.push(DirAction::Retry { to: txn.requester });
                        }
                    } else {
                        match txn.access {
                            Access::Read => {
                                // The dead node was the writer being flushed;
                                // its dirty data is lost. The origin's (stale)
                                // frame becomes the authoritative copy.
                                info.writer = None;
                                info.owners.insert(origin);
                                actions.push(DirAction::SetOriginPteRo);
                                if !all_dead.contains(rnode) {
                                    info.owners.insert(rnode);
                                    actions.push(DirAction::Grant {
                                        to: txn.requester,
                                        access: Access::Read,
                                        with_data: !matches!(
                                            txn.requester,
                                            Requester::Local { .. }
                                        ),
                                    });
                                }
                            }
                            Access::Write => {
                                if all_dead.contains(rnode) {
                                    info.owners = NodeSet::single(origin);
                                    info.writer = None;
                                    actions.push(DirAction::SetOriginPteRo);
                                } else {
                                    info.owners = NodeSet::single(rnode);
                                    info.writer = Some(rnode);
                                    let with_data = !txn.requester_had_copy
                                        && !matches!(txn.requester, Requester::Local { .. });
                                    actions.push(DirAction::Grant {
                                        to: txn.requester,
                                        access: Access::Write,
                                        with_data,
                                    });
                                }
                            }
                        }
                    }
                }
            }

            // 2. The dead node no longer holds any copy.
            info.owners.remove(dead);
            if info.writer == Some(dead) {
                info.writer = None;
            }

            // 3. If nobody valid is left (the dead node held the page
            // exclusively), the origin reclaims it. In sharded mode the
            // origin only steps back in once *no* owner survives (shared
            // pages legally live without an origin copy there), and no
            // PTE action is emitted: the origin's frame is the fallback
            // and its mapping re-establishes on the next forward.
            if self.forwarding {
                if info.txn.is_none() && info.writer.is_none() && info.owners.is_empty() {
                    info.owners.insert(origin);
                }
            } else if info.txn.is_none() && info.writer.is_none() && !info.owners.contains(origin) {
                info.owners.insert(origin);
                actions.push(DirAction::SetOriginPteRo);
            }

            if !actions.is_empty() {
                out.push((vpn, actions));
            }
        }
        out
    }

    /// Drops directory state for unmapped pages, returning per-node
    /// invalidations the caller must broadcast (without data — the pages
    /// are dead).
    ///
    /// # Panics
    ///
    /// Panics if any of the pages has an in-flight transaction (callers
    /// must not unmap pages being actively negotiated).
    pub fn drop_pages(&mut self, pages: &[Vpn]) -> Vec<(NodeId, Vpn)> {
        let mut revokes = Vec::new();
        for &vpn in pages {
            if let Some(info) = self.pages.get(vpn.index()) {
                assert!(
                    info.txn.is_none(),
                    "unmapping page {vpn} with an in-flight transaction"
                );
                for owner in info.owners.iter() {
                    if owner != self.origin {
                        revokes.push((owner, vpn));
                    }
                }
                self.pages.remove(vpn.index());
            }
        }
        revokes
    }

    /// Validates the protocol invariants for every tracked page; used by
    /// tests. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (key, info) in self.pages.iter() {
            for node in info.owners.iter() {
                if self.dead.contains(node) {
                    return Err(format!(
                        "page {key:#x}: dead node {node} still in owner set {:?}",
                        info.owners
                    ));
                }
            }
            match info.writer {
                Some(w) => {
                    if info.txn.is_none() && (info.owners.len() != 1 || !info.owners.contains(w)) {
                        return Err(format!(
                            "page {key:#x}: writer {w} but owners {:?}",
                            info.owners
                        ));
                    }
                }
                None => {
                    if info.txn.is_none() && self.forwarding && info.owners.is_empty() {
                        return Err(format!("page {key:#x}: shared state with no owners"));
                    }
                    if info.txn.is_none() && !self.forwarding && !info.owners.contains(self.origin)
                    {
                        // Classic mode only: sharded homes hand pages
                        // owner-to-owner without re-replicating to the
                        // origin.
                        return Err(format!(
                            "page {key:#x}: shared state without origin copy: {:?}",
                            info.owners
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: NodeId = NodeId(0);

    fn remote(node: u16, req: u64) -> Requester {
        Requester::Remote {
            node: NodeId(node),
            req_id: req,
        }
    }

    #[test]
    fn nodeset_remove_out_of_range_is_a_noop() {
        // Regression: `remove` used to clamp the shift (`node.0.min(63)`),
        // which silently cleared node 63's bit for any out-of-range id.
        let mut s = NodeSet::single(NodeId(63));
        s.insert(NodeId(7));
        if cfg!(debug_assertions) {
            // In debug builds the out-of-range remove is a programming error.
            let r = std::panic::catch_unwind(move || {
                let mut s2 = s;
                s2.remove(NodeId(64));
            });
            assert!(r.is_err(), "debug_assert should fire for node id 64");
        } else {
            s.remove(NodeId(64));
            s.remove(NodeId(200));
            assert!(s.contains(NodeId(63)), "node 63 must survive");
            assert_eq!(s.len(), 2);
        }
        // In-range removes still work.
        let mut t = NodeSet::single(NodeId(63));
        t.remove(NodeId(63));
        assert!(t.is_empty());
    }

    fn grant_of(actions: &[DirAction]) -> Option<(Requester, Access, bool)> {
        actions.iter().find_map(|a| match a {
            DirAction::Grant {
                to,
                access,
                with_data,
            } => Some((*to, *access, *with_data)),
            _ => None,
        })
    }

    #[test]
    fn first_read_from_remote_is_inline_with_data() {
        let mut dir = Directory::new(O);
        let actions = dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        // Origin was exclusive writer: it downgrades itself and grants.
        assert!(actions.contains(&DirAction::DowngradeOriginPte));
        assert_eq!(grant_of(&actions), Some((remote(1, 1), Access::Read, true)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_readers_replicate() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        let actions = dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        assert_eq!(grant_of(&actions), Some((remote(2, 2), Access::Read, true)));
        assert_eq!(
            actions.len(),
            1,
            "second reader needs no PTE change at origin"
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn write_revokes_all_readers() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        let actions = dir.request(Vpn::new(1), Access::Write, remote(3, 3));
        // Readers 1 and 2 and the origin itself all lose their copies.
        assert!(actions.contains(&DirAction::SendInvalidate {
            to: NodeId(1),
            needs_data: false
        }));
        assert!(actions.contains(&DirAction::SendInvalidate {
            to: NodeId(2),
            needs_data: false
        }));
        assert!(actions.contains(&DirAction::ClearOriginPte));
        assert!(grant_of(&actions).is_none(), "grant waits for acks");

        // Acks complete the transaction; data comes from the origin frame.
        assert_eq!(dir.invalidate_ack(Vpn::new(1), NodeId(1), false), vec![]);
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(2), false);
        assert_eq!(grant_of(&done), Some((remote(3, 3), Access::Write, true)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn write_by_existing_reader_skips_data_transfer() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        let actions = dir.request(Vpn::new(1), Access::Write, remote(1, 3));
        assert!(grant_of(&actions).is_none());
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(2), false);
        // Node 1 already had the up-to-date copy: no data transfer.
        assert_eq!(grant_of(&done), Some((remote(1, 3), Access::Write, false)));
        let skips = done.iter().filter(|a| {
            matches!(
                a,
                DirAction::Grant {
                    with_data: false,
                    ..
                }
            )
        });
        assert_eq!(skips.count(), 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn read_of_remote_written_page_flushes() {
        let mut dir = Directory::new(O);
        // Node 1 takes the page exclusively.
        let a = dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        assert!(a.contains(&DirAction::ClearOriginPte));
        assert_eq!(grant_of(&a), Some((remote(1, 1), Access::Write, true)));

        // Node 2 reads: writer must flush first.
        let b = dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        assert_eq!(b, vec![DirAction::SendFlush { to: NodeId(1) }]);

        let done = dir.flush_ack(Vpn::new(1), NodeId(1));
        assert!(done.contains(&DirAction::InstallOriginData));
        assert!(done.contains(&DirAction::SetOriginPteRo));
        assert_eq!(grant_of(&done), Some((remote(2, 2), Access::Read, true)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn conflicting_request_during_transaction_retries() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        dir.request(Vpn::new(1), Access::Read, remote(2, 2)); // opens flush txn
        let actions = dir.request(Vpn::new(1), Access::Write, remote(3, 3));
        assert_eq!(actions, vec![DirAction::Retry { to: remote(3, 3) }]);
        assert_eq!(dir.stats().retries, 1);
    }

    #[test]
    fn writer_to_writer_handoff_ships_data_via_origin() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        let actions = dir.request(Vpn::new(1), Access::Write, remote(2, 2));
        // Node 1 is the writer and must return the contents.
        assert_eq!(
            actions,
            vec![DirAction::SendInvalidate {
                to: NodeId(1),
                needs_data: true
            }]
        );
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(1), true);
        assert!(done.contains(&DirAction::InstallOriginData));
        assert_eq!(grant_of(&done), Some((remote(2, 2), Access::Write, true)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn local_write_fault_revokes_remote_writer() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        let local = Requester::Local { req_id: 42 };
        let actions = dir.request(Vpn::new(1), Access::Write, local);
        assert_eq!(
            actions,
            vec![DirAction::SendInvalidate {
                to: NodeId(1),
                needs_data: true
            }]
        );
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(1), true);
        assert!(done.contains(&DirAction::InstallOriginData));
        // Local grants never carry data over the wire.
        assert_eq!(grant_of(&done), Some((local, Access::Write, false)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn local_read_fault_after_remote_write_flushes() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        let local = Requester::Local { req_id: 7 };
        let actions = dir.request(Vpn::new(1), Access::Read, local);
        assert_eq!(actions, vec![DirAction::SendFlush { to: NodeId(1) }]);
        let done = dir.flush_ack(Vpn::new(1), NodeId(1));
        assert_eq!(grant_of(&done), Some((local, Access::Read, false)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn write_request_from_current_writer_is_no_data_fast_path() {
        // Degenerate re-request: the exclusive owner asks to write again
        // (reachable when a coalesced sibling's request raced ahead).
        let mut dir = Directory::new(O);
        let vpn = Vpn::new(0);
        for a in dir.request(vpn, Access::Write, remote(1, 1)) {
            if let DirAction::SendInvalidate { to, needs_data } = a {
                dir.invalidate_ack(vpn, to, needs_data);
            }
        }
        assert_eq!(dir.current_writer(vpn), Some(NodeId(1)));
        let again = dir.request(vpn, Access::Write, remote(1, 1));
        assert_eq!(
            again,
            vec![DirAction::Grant {
                to: remote(1, 1),
                access: Access::Write,
                with_data: false,
            }],
            "re-request by the current writer must skip the data transfer"
        );
        assert_eq!(dir.current_writer(vpn), Some(NodeId(1)));
        assert_eq!(dir.owners(vpn), NodeSet::single(NodeId(1)));
        assert!(!dir.has_txn(vpn));
    }

    #[test]
    fn read_request_from_existing_owner_leaves_owner_set_unchanged() {
        let mut dir = Directory::new(O);
        let vpn = Vpn::new(0);
        dir.request(vpn, Access::Read, remote(1, 1));
        let before = dir.owners(vpn);
        assert!(before.contains(NodeId(1)));
        // Second read from a node already in the owner set (reachable
        // after a raced coalesced fault): grant, owner set unchanged.
        let again = dir.request(vpn, Access::Read, remote(1, 1));
        assert_eq!(grant_of(&again), Some((remote(1, 1), Access::Read, true)));
        assert_eq!(again.len(), 1);
        assert_eq!(dir.owners(vpn), before);
        assert_eq!(dir.current_writer(vpn), None);
        assert!(!dir.has_txn(vpn));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn untouched_pages_cost_no_directory_state() {
        let mut dir = Directory::new(O);
        assert_eq!(dir.tracked_pages(), 0);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        assert_eq!(dir.tracked_pages(), 1);
    }

    #[test]
    fn drop_pages_revokes_remote_copies() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        dir.request(Vpn::new(2), Access::Write, remote(2, 2));
        let revokes = dir.drop_pages(&[Vpn::new(1), Vpn::new(2), Vpn::new(3)]);
        assert!(revokes.contains(&(NodeId(1), Vpn::new(1))));
        assert!(revokes.contains(&(NodeId(2), Vpn::new(2))));
        assert_eq!(revokes.len(), 2);
        assert_eq!(dir.tracked_pages(), 0);
    }

    #[test]
    fn crash_of_exclusive_writer_reverts_page_to_origin() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        let reclaimed = dir.on_node_crash(NodeId(1));
        assert_eq!(
            reclaimed,
            vec![(Vpn::new(1), vec![DirAction::SetOriginPteRo])],
            "origin re-maps its (stale) frame"
        );
        assert_eq!(dir.owners(Vpn::new(1)), NodeSet::single(O));
        assert_eq!(dir.current_writer(Vpn::new(1)), None);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn crash_completes_invalidation_waiting_on_dead_node() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        // Node 2 wants the page; the grant is blocked on node 1's ack.
        let opened = dir.request(Vpn::new(1), Access::Write, remote(2, 2));
        assert!(grant_of(&opened).is_none());
        let reclaimed = dir.on_node_crash(NodeId(1));
        assert_eq!(reclaimed.len(), 1);
        let (vpn, actions) = &reclaimed[0];
        assert_eq!(*vpn, Vpn::new(1));
        // The survivor is granted immediately (origin's copy is stale —
        // the dead writer's unflushed data is lost, as on real hardware).
        assert_eq!(grant_of(actions), Some((remote(2, 2), Access::Write, true)));
        assert_eq!(dir.current_writer(Vpn::new(1)), Some(NodeId(2)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn crash_during_flush_grants_stale_copy_to_reader() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        let b = dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        assert_eq!(b, vec![DirAction::SendFlush { to: NodeId(1) }]);
        let reclaimed = dir.on_node_crash(NodeId(1));
        let (_, actions) = &reclaimed[0];
        assert!(actions.contains(&DirAction::SetOriginPteRo));
        assert_eq!(grant_of(actions), Some((remote(2, 2), Access::Read, true)));
        let mut expect = NodeSet::single(O);
        expect.insert(NodeId(2));
        assert_eq!(dir.owners(Vpn::new(1)), expect);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn crash_of_requester_lets_survivor_ack_revert_to_origin() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Write, remote(1, 1));
        dir.request(Vpn::new(1), Access::Write, remote(2, 2)); // pending {1}
                                                               // The *requester* dies; node 1's ack is still outstanding, so the
                                                               // transaction stays open...
        let reclaimed = dir.on_node_crash(NodeId(2));
        assert!(reclaimed.is_empty(), "nothing to do until the ack lands");
        // ...and when it lands, ownership reverts to the origin instead
        // of being granted to a dead node.
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(1), true);
        assert_eq!(
            done,
            vec![DirAction::InstallOriginData, DirAction::SetOriginPteRo]
        );
        assert_eq!(dir.owners(Vpn::new(1)), NodeSet::single(O));
        assert_eq!(dir.current_writer(Vpn::new(1)), None);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn late_messages_from_dead_nodes_are_ignored() {
        let mut dir = Directory::new(O);
        dir.request(Vpn::new(1), Access::Read, remote(1, 1));
        dir.on_node_crash(NodeId(1));
        // Messages the dead node sent before crashing may still arrive.
        assert_eq!(
            dir.request(Vpn::new(1), Access::Write, remote(1, 9)),
            vec![]
        );
        assert_eq!(dir.flush_ack(Vpn::new(1), NodeId(1)), vec![]);
        assert_eq!(dir.invalidate_ack(Vpn::new(1), NodeId(1), true), vec![]);
        assert!(!dir.owners(Vpn::new(1)).contains(NodeId(1)));
        dir.check_invariants().unwrap();
    }

    // ---- sharded / forwarded mode ----

    const HOME: NodeId = NodeId(1);

    #[test]
    fn forwarded_read_of_untouched_page_forwards_to_origin() {
        let mut dir = Directory::forwarded(HOME, O);
        let actions = dir.request(Vpn::new(1), Access::Read, remote(2, 1));
        assert_eq!(
            actions,
            vec![DirAction::Forward {
                to: O,
                requester: remote(2, 1),
                access: Access::Read,
            }],
            "the origin owns untouched pages and is reached by forwarding"
        );
        // A conflicting request while the forward is in flight retries.
        assert_eq!(
            dir.request(Vpn::new(1), Access::Write, remote(3, 2)),
            vec![DirAction::Retry { to: remote(3, 2) }]
        );
        // The owner's async ack commits the ownership change.
        assert_eq!(dir.owner_ack(Vpn::new(1), O), vec![]);
        let mut expect = NodeSet::single(O);
        expect.insert(NodeId(2));
        assert_eq!(dir.owners(Vpn::new(1)), expect);
        assert_eq!(dir.current_writer(Vpn::new(1)), None);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forwarded_write_hands_exclusivity_owner_to_owner() {
        let mut dir = Directory::forwarded(HOME, O);
        let first = dir.request(Vpn::new(1), Access::Write, remote(2, 1));
        dir.owner_ack(Vpn::new(1), O);
        assert_eq!(dir.current_writer(Vpn::new(1)), Some(NodeId(2)));
        // The next writer is serviced by node 2 directly; the origin
        // never re-enters the transfer.
        let actions = dir.request(Vpn::new(1), Access::Write, remote(3, 2));
        assert_eq!(
            actions,
            vec![DirAction::Forward {
                to: NodeId(2),
                requester: remote(3, 2),
                access: Access::Write,
            }]
        );
        dir.owner_ack(Vpn::new(1), NodeId(2));
        assert_eq!(dir.owners(Vpn::new(1)), NodeSet::single(NodeId(3)));
        assert_eq!(dir.current_writer(Vpn::new(1)), Some(NodeId(3)));
        let forwards = first.iter().chain(&actions);
        let forwards = forwards.filter(|a| matches!(a, DirAction::Forward { .. }));
        assert_eq!(forwards.count(), 2);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forwarded_shared_write_batches_invalidations() {
        let mut dir = Directory::forwarded(HOME, O);
        // Nodes 2 and 3 become readers (origin keeps its copy after the
        // read downgrade).
        dir.request(Vpn::new(1), Access::Read, remote(2, 1));
        dir.owner_ack(Vpn::new(1), O);
        dir.request(Vpn::new(1), Access::Read, remote(3, 2));
        dir.owner_ack(Vpn::new(1), O);
        // Node 2 writes: every other owner gets one batched invalidation;
        // the smallest owner (the origin) is elected... but node 2
        // already holds a copy, so nobody ships data.
        let actions = dir.request(Vpn::new(1), Access::Write, remote(2, 3));
        assert!(actions.contains(&DirAction::SendInvalidateBatch {
            to: O,
            entries: vec![(Vpn::new(1), false)],
        }));
        assert!(actions.contains(&DirAction::SendInvalidateBatch {
            to: NodeId(3),
            entries: vec![(Vpn::new(1), false)],
        }));
        assert!(grant_of(&actions).is_none(), "grant waits for the acks");
        let batches = actions.iter();
        let batches = batches.filter(|a| matches!(a, DirAction::SendInvalidateBatch { .. }));
        assert_eq!(batches.count(), 2);
        assert_eq!(dir.invalidate_ack(Vpn::new(1), O, false), vec![]);
        let done = dir.invalidate_ack(Vpn::new(1), NodeId(3), false);
        // Requester had a copy: the write grant skips the transfer, and
        // no origin-frame staging actions appear in sharded mode.
        assert_eq!(
            done,
            vec![DirAction::Grant {
                to: remote(2, 3),
                access: Access::Write,
                with_data: false,
            }]
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forwarded_shared_write_elects_one_data_source() {
        let mut dir = Directory::forwarded(HOME, O);
        dir.request(Vpn::new(1), Access::Read, remote(2, 1));
        dir.owner_ack(Vpn::new(1), O);
        // Node 3 writes without a copy: the origin (smallest owner) is
        // elected to ship data back in its batch ack.
        let actions = dir.request(Vpn::new(1), Access::Write, remote(3, 2));
        assert!(actions.contains(&DirAction::SendInvalidateBatch {
            to: O,
            entries: vec![(Vpn::new(1), true)],
        }));
        assert!(actions.contains(&DirAction::SendInvalidateBatch {
            to: NodeId(2),
            entries: vec![(Vpn::new(1), false)],
        }));
        dir.invalidate_ack(Vpn::new(1), NodeId(2), false);
        let done = dir.invalidate_ack(Vpn::new(1), O, true);
        // Carried data is staged by the home's dispatcher, not installed
        // into an origin frame: the only action is the grant itself.
        assert_eq!(
            grant_of(&done),
            Some((remote(3, 2), Access::Write, true)),
            "requester had no copy: grant ships the staged data"
        );
        assert!(!done.contains(&DirAction::InstallOriginData));
        assert_eq!(dir.current_writer(Vpn::new(1)), Some(NodeId(3)));
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forwarded_home_replica_serves_reads_inline() {
        let mut dir = Directory::forwarded(HOME, O);
        // The home itself becomes a reader first (local thread at home).
        let local = Requester::Local { req_id: 1 };
        let a = dir.request(Vpn::new(1), Access::Read, local);
        assert_eq!(
            a,
            vec![DirAction::Forward {
                to: O,
                requester: local,
                access: Access::Read,
            }],
            "even the home's own fault goes through the owner"
        );
        dir.owner_ack(Vpn::new(1), O);
        // Now a remote read is served inline from the home's frame: the
        // two-hop fast path with no forwarding at all.
        let b = dir.request(Vpn::new(1), Access::Read, remote(2, 2));
        assert_eq!(grant_of(&b), Some((remote(2, 2), Access::Read, true)));
        assert_eq!(b.len(), 1);
        dir.check_invariants().unwrap();
    }

    #[test]
    fn forwarded_crash_mid_forward_tells_requester_to_retry() {
        let mut dir = Directory::forwarded(HOME, O);
        dir.request(Vpn::new(1), Access::Write, remote(2, 1));
        dir.owner_ack(Vpn::new(1), O);
        // Node 3's request is forwarded to owner 2, which then dies.
        dir.request(Vpn::new(1), Access::Read, remote(3, 2));
        let reclaimed = dir.on_node_crash(NodeId(2));
        assert_eq!(
            reclaimed,
            vec![(Vpn::new(1), vec![DirAction::Retry { to: remote(3, 2) }])],
            "no frame at the home to grant from: the survivor retries"
        );
        // The page reverted to the origin; the retry will be forwarded
        // there.
        assert_eq!(dir.owners(Vpn::new(1)), NodeSet::single(O));
        let again = dir.request(Vpn::new(1), Access::Read, remote(3, 3));
        assert_eq!(
            again,
            vec![DirAction::Forward {
                to: O,
                requester: remote(3, 3),
                access: Access::Read,
            }]
        );
        dir.check_invariants().unwrap();
    }

    #[test]
    fn nodeset_operations() {
        let mut s = NodeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(NodeId(3));
        s.insert(NodeId(0));
        s.insert(NodeId(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(0)));
        assert!(!s.contains(NodeId(1)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId(0), NodeId(3)]);
        s.remove(NodeId(0));
        assert_eq!(s, NodeSet::single(NodeId(3)));
    }
}
