//! The page-protocol core: every ownership decision outside
//! [`Directory`], as sans-IO step functions.
//!
//! One node plays up to three roles in the protocol of §III-B/§III-C:
//!
//! * **home** ([`home_step`]) — runs the directory for the pages homed
//!   here and is the single interpreter of its [`DirAction`]s: PTE and
//!   frame changes at the home, messages to other nodes, completions for
//!   the home's own waiting threads;
//! * **holder** ([`holder_admit`] + [`holder_step`]) — serves what a home
//!   asks of a node holding a copy: `Invalidate`, `InvalidateBatch`,
//!   `Flush`, `OwnerForward`, parking work that overtook a grant still in
//!   flight to this node;
//! * **requester** ([`requester_step`]) — leader–follower coalescing of
//!   same-node faults, in-flight marks, grant installation, release of
//!   parked work, retry.
//!
//! Each step takes the node's protocol state, page table and frames by
//! `&mut`, consumes one input, and returns its outputs in the order they
//! must be performed. Nothing here knows about time, locks, spans or
//! costs, so three drivers share it verbatim: the simulator runtime
//! (`thread.rs`/`dispatch.rs`/`process.rs`: lock, step, perform outputs,
//! charge `CostModel`), the model checker's closed world
//! ([`crate::model`], frames = `()`), and through the runtime the
//! schedule explorer. Every [`ProtocolMutation`] hook lives here, so a
//! seeded bug is the same bug in all three.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use dex_net::NodeId;
use dex_os::{Access, PageFrame, PageTable, Pte, RadixTree, Vpn};

use crate::directory::{DirAction, Directory, Requester};
use crate::mutation::ProtocolMutation;

/// A page-protocol message, generic over the page payload `P`
/// ([`PageFrame`] on the wire, `()` in the model).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PageMsg<P> {
    /// A node asks the page's home for ownership.
    Request {
        /// Requested page.
        vpn: Vpn,
        /// Read (shared) or write (exclusive) ownership.
        access: Access,
        /// Correlates the grant with the waiting thread.
        req_id: u64,
    },
    /// The home (or a forwarding owner) grants a request, or — with
    /// `retry` — tells the requester to back off and resend.
    Grant {
        /// Granted page.
        vpn: Vpn,
        /// Granted access.
        access: Access,
        /// Page contents; `None` when the requester's copy is up to date
        /// (the paper's no-transfer optimization) or on retry.
        data: Option<P>,
        /// The request conflicted with an in-flight transaction.
        retry: bool,
        /// Correlates with the request.
        req_id: u64,
    },
    /// The home revokes a node's copy.
    Invalidate {
        /// Page being revoked.
        vpn: Vpn,
        /// The revoked node holds the only up-to-date copy and must ship
        /// it back.
        needs_data: bool,
    },
    /// A node acknowledges an invalidation.
    InvalidateAck {
        /// Acknowledged page.
        vpn: Vpn,
        /// The up-to-date contents, when requested.
        data: Option<P>,
    },
    /// The home asks the exclusive writer to downgrade to shared and ship
    /// the current contents.
    Flush {
        /// Page to flush.
        vpn: Vpn,
    },
    /// The writer's reply to a flush.
    FlushAck {
        /// Flushed page.
        vpn: Vpn,
        /// Up-to-date contents.
        data: P,
    },
    /// (Sharded) The home asks the current owner to service a request
    /// directly: the owner adjusts its own PTE, grants (with data)
    /// straight to the requester, and acknowledges the home
    /// asynchronously — three hops become two.
    OwnerForward {
        /// Requested page.
        vpn: Vpn,
        /// Access the requester asked for.
        access: Access,
        /// The node the grant must be delivered to.
        requester: NodeId,
        /// Correlates the grant with the requester's waiting thread.
        req_id: u64,
    },
    /// (Sharded) The owner's acknowledgment that it serviced a forward;
    /// closes the home's transaction.
    OwnerAck {
        /// Page whose forwarded transaction completes.
        vpn: Vpn,
        /// Access that was granted to the requester.
        access: Access,
    },
    /// (Sharded) Every doomed replica one node holds for a transaction,
    /// revoked with a single message and a single aggregated ack.
    InvalidateBatch {
        /// `(page, needs_data)` per replica; `needs_data` marks the one
        /// elected to ship contents back.
        entries: Vec<(Vpn, bool)>,
    },
    /// (Sharded) Aggregated acknowledgment of an `InvalidateBatch`. May
    /// cover a subset when some pages had grants in flight at the
    /// destination (those are acked after the grant lands).
    InvalidateBatchAck {
        /// `(page, contents)` per acknowledged replica.
        entries: Vec<(Vpn, Option<P>)>,
    },
}

/// Which role of the receiving node a message is addressed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Requests and acknowledgments: the page's directory home.
    Home,
    /// Revocations, flushes and forwards: a node holding a copy.
    Holder,
    /// Grants and retry notices: the node that asked.
    Requester,
}

impl<P> PageMsg<P> {
    /// The role that handles this message at its destination.
    pub fn role(&self) -> Role {
        match self {
            PageMsg::Request { .. }
            | PageMsg::InvalidateAck { .. }
            | PageMsg::FlushAck { .. }
            | PageMsg::OwnerAck { .. }
            | PageMsg::InvalidateBatchAck { .. } => Role::Home,
            PageMsg::Invalidate { .. }
            | PageMsg::Flush { .. }
            | PageMsg::OwnerForward { .. }
            | PageMsg::InvalidateBatch { .. } => Role::Holder,
            PageMsg::Grant { .. } => Role::Requester,
        }
    }

    /// The page the message is about — for a batch its first page (all
    /// pages of one batch share a home, so any of them routes it).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch (never sent).
    pub fn page(&self) -> Vpn {
        match self {
            PageMsg::Request { vpn, .. }
            | PageMsg::Grant { vpn, .. }
            | PageMsg::Invalidate { vpn, .. }
            | PageMsg::InvalidateAck { vpn, .. }
            | PageMsg::Flush { vpn }
            | PageMsg::FlushAck { vpn, .. }
            | PageMsg::OwnerForward { vpn, .. }
            | PageMsg::OwnerAck { vpn, .. } => *vpn,
            PageMsg::InvalidateBatch { entries } => entries[0].0,
            PageMsg::InvalidateBatchAck { entries } => entries[0].0,
        }
    }
}

/// A node's resident page contents, as far as the protocol touches them.
/// The runtime's instance is the address space's frame store; the model's
/// is `()` — contents are not protocol state.
pub trait Frames {
    /// One page of contents.
    type Page: Clone + std::fmt::Debug;
    /// The all-zero page (what a never-written anonymous page holds).
    fn zeroed() -> Self::Page;
    /// A handle to the resident contents of `vpn`, if any; writes copy on
    /// demand.
    fn get(&self, vpn: Vpn) -> Option<Self::Page>;
    /// Installs `page` as the contents of `vpn`.
    fn put(&mut self, vpn: Vpn, page: Self::Page);
    /// Makes `vpn` resident (zero-filled) if it is not.
    fn touch(&mut self, vpn: Vpn);
    /// Discards the contents of `vpn`.
    fn evict(&mut self, vpn: Vpn);
}

impl Frames for () {
    type Page = ();
    fn zeroed() {}
    fn get(&self, _: Vpn) -> Option<()> {
        Some(())
    }
    fn put(&mut self, _: Vpn, _: ()) {}
    fn touch(&mut self, _: Vpn) {}
    fn evict(&mut self, _: Vpn) {}
}

impl Frames for RadixTree<PageFrame> {
    type Page = PageFrame;
    fn zeroed() -> PageFrame {
        PageFrame::zeroed()
    }
    fn get(&self, vpn: Vpn) -> Option<PageFrame> {
        RadixTree::get(self, vpn.index()).cloned()
    }
    fn put(&mut self, vpn: Vpn, page: PageFrame) {
        self.insert(vpn.index(), page);
    }
    fn touch(&mut self, vpn: Vpn) {
        self.get_or_insert_with(vpn.index(), PageFrame::zeroed);
    }
    fn evict(&mut self, vpn: Vpn) {
        self.remove(vpn.index());
    }
}

/// Protocol work a holder parked because a grant for the same page is
/// still in flight to it: in the sharded configuration a forwarded grant
/// (owner → requester) and the home's next message about the page travel
/// different channels and may arrive out of order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Deferred<P> {
    /// The home that sent the work.
    pub from: NodeId,
    /// The parked message: an `OwnerForward` or a one-entry
    /// `InvalidateBatch`.
    pub msg: PageMsg<P>,
    /// The driver's opaque tag for the message (the runtime's span
    /// context), handed back on release.
    pub tag: u64,
}

/// One in-flight coalesced fault: the leader negotiating it and the
/// same-node threads waiting for the leader to finish.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct FaultEntry {
    leader: u64,
    leader_tag: u64,
    followers: Vec<u64>,
}

/// The protocol state one node keeps besides its page table and frames.
/// Plain ordered data: the runtime wraps it in a lock, the model clones
/// and hashes it.
#[derive(Clone, Debug)]
pub struct NodeState<P> {
    /// Requester: in-flight faults keyed by (page, is-write) — §III-C.
    faults: BTreeMap<(Vpn, bool), FaultEntry>,
    /// Requester: requests sent to a remote home and not yet answered.
    inflight: BTreeMap<Vpn, u32>,
    /// Holder: work parked behind an in-flight grant, at most one per
    /// page (homes serialize transactions per page).
    deferred: BTreeMap<Vpn, Deferred<P>>,
    /// Home: contents a batch-invalidation ack carried, held until the
    /// transaction's grant consumes them (a sharded home's own frame is
    /// not part of the transfer).
    staged: BTreeMap<Vpn, P>,
}

impl<P> Default for NodeState<P> {
    fn default() -> Self {
        NodeState {
            faults: BTreeMap::new(),
            inflight: BTreeMap::new(),
            deferred: BTreeMap::new(),
            staged: BTreeMap::new(),
        }
    }
}

impl<P> NodeState<P> {
    /// The work currently parked at this node, in page order.
    pub fn deferred(&self) -> impl Iterator<Item = &Deferred<P>> {
        self.deferred.values()
    }

    fn defer(&mut self, vpn: Vpn, work: Deferred<P>) {
        let prev = self.deferred.insert(vpn, work);
        debug_assert!(prev.is_none(), "two parked protocol actions for {vpn}");
    }
}

/// One node as the step functions see it.
pub struct Node<'a, F: Frames> {
    /// Coalescing table, in-flight marks, parked work, staged contents.
    pub state: &'a mut NodeState<F::Page>,
    /// The node's page table.
    pub page_table: &'a mut PageTable,
    /// The node's resident page contents.
    pub frames: &'a mut F,
    /// The seeded bug, if any.
    pub mutation: ProtocolMutation,
}

impl<F: Frames> Node<'_, F> {
    /// Maps `vpn` for `access`, installing `data` when the grant carried
    /// contents. A read grant onto a mapping that is already writable is
    /// the directory's degenerate "the requester is the writer" answer
    /// (a same-node write leader won the race): the directory still
    /// records this node as writer, so the mapping stays writable.
    fn install(&mut self, vpn: Vpn, access: Access, data: Option<F::Page>) {
        if let Some(page) = data {
            self.frames.put(vpn, page);
        }
        let pte = if access.is_write() || self.page_table.entry(vpn).writable {
            Pte::READ_WRITE
        } else {
            Pte::READ_ONLY
        };
        self.page_table.set(vpn, pte);
        // Touch the frame so reads observe the page even if it was never
        // written.
        self.frames.touch(vpn);
    }

    /// Drops this node's copy for an invalidation, returning the
    /// contents when the ack must carry them.
    fn revoke(&mut self, vpn: Vpn, needs_data: bool) -> Option<F::Page> {
        let data = needs_data.then(|| {
            if self.mutation == ProtocolMutation::LoseInvalidateData {
                F::zeroed()
            } else {
                self.frames.get(vpn).unwrap_or_else(F::zeroed)
            }
        });
        if self.mutation != ProtocolMutation::SkipInvalidate {
            unmap(self.page_table, self.frames, vpn);
        }
        data
    }
}

/// Removes `vpn` from a node outright: mapping and contents. Shared by
/// protocol revocation and the VMA layer's `munmap` broadcast.
pub fn unmap<F: Frames>(page_table: &mut PageTable, frames: &mut F, vpn: Vpn) {
    page_table.clear(vpn);
    frames.evict(vpn);
}

/// Clears the mapping of `vpn` but keeps the contents, so the next touch
/// revalidates through the protocol (an `mprotect` downgrade).
pub fn unmap_keep_frame(page_table: &mut PageTable, vpn: Vpn) {
    page_table.clear(vpn);
}

/// Maps `vpn` exclusively at the origin: the state the directory assumes
/// for every page it has no record of.
pub fn map_origin_default(page_table: &mut PageTable, vpn: Vpn) {
    page_table.set(vpn, Pte::READ_WRITE);
}

// ---------------------------------------------------------------------
// Home
// ---------------------------------------------------------------------

/// What a role step asks its driver to do; a step returns these in the
/// order they must be performed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Output<P> {
    /// Send `msg` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: PageMsg<P>,
    },
    /// Wake the thread of this node waiting on `req_id`: granted (its
    /// mapping is already installed), or told to back off and `retry`.
    Wake {
        /// The answered request.
        req_id: u64,
        /// The request conflicted; back off and resend.
        retry: bool,
    },
    /// The grant this work was parked behind has landed: serve it now
    /// through [`holder_step`].
    Released(Deferred<P>),
    /// Wake a coalesced follower; it re-checks its mapping.
    WakeFollower(u64),
    /// Answer to [`RequesterIn::Fault`]: no same-node fault on this (page,
    /// access class) is in flight — run the protocol, then report
    /// [`RequesterIn::Resolved`].
    Lead,
    /// Answer to [`RequesterIn::Fault`]: coalesced behind `leader`; wait
    /// for its `WakeFollower`. With `bypass` (the follower-bypass
    /// mutation) also send a request of your own.
    Follow {
        /// The leading thread.
        leader: u64,
        /// The `tag` the leader faulted with.
        leader_tag: u64,
        /// Seeded bug: race a second request to the home.
        bypass: bool,
    },
    /// The next grant ships no data because the page was never
    /// materialized at the home (zero-page optimization): countable, no
    /// action.
    ZeroPageGrant,
}

/// What reaches a page's home.
#[derive(Clone, Debug)]
pub enum HomeIn<P> {
    /// A `Request` or an acknowledgment from node `from`. A request
    /// `from` the home itself is a fault of one of the home's own
    /// threads: it is answered with [`Output::Wake`], not a message.
    Msg {
        /// The sending node.
        from: NodeId,
        /// The message (its [`PageMsg::role`] must be [`Role::Home`]).
        msg: PageMsg<P>,
    },
    /// Crash recovery: actions [`Directory::on_node_crash`] produced for
    /// one page.
    Reclaim {
        /// The reclaimed page.
        vpn: Vpn,
        /// The directory's actions for it.
        actions: Vec<DirAction>,
    },
}

/// Runs one input through the directory at its home and interprets the
/// resulting actions. `zero_page` enables the zero-page optimization
/// (grants of never-materialized pages carry no data).
///
/// # Panics
///
/// Panics if `input` carries a message not addressed to the home role.
pub fn home_step<F: Frames>(
    dir: &mut Directory,
    node: &mut Node<'_, F>,
    zero_page: bool,
    input: HomeIn<F::Page>,
) -> Vec<Output<F::Page>> {
    let home = dir.home();
    let mut out = Vec::new();
    let mut run = |node: &mut Node<'_, F>, vpn, actions, staged| {
        apply_actions(home, node, zero_page, vpn, actions, staged, &mut out);
    };
    match input {
        HomeIn::Reclaim { vpn, actions } => run(node, vpn, actions, None),
        HomeIn::Msg { from, msg } => match msg {
            PageMsg::Request {
                vpn,
                access,
                req_id,
            } => {
                let who = if from == home {
                    Requester::Local { req_id }
                } else {
                    Requester::Remote { node: from, req_id }
                };
                let actions = dir.request(vpn, access, who);
                run(node, vpn, actions, None);
            }
            PageMsg::InvalidateAck { vpn, data } => {
                let actions = dir.invalidate_ack(vpn, from, data.is_some());
                run(node, vpn, actions, data);
            }
            PageMsg::FlushAck { vpn, data } => {
                let actions = dir.flush_ack(vpn, from);
                run(node, vpn, actions, Some(data));
            }
            PageMsg::OwnerAck { vpn, .. } => {
                let actions = dir.owner_ack(vpn, from);
                run(node, vpn, actions, None);
            }
            PageMsg::InvalidateBatchAck { entries } => {
                for (vpn, data) in entries {
                    let carried = data.is_some();
                    if let Some(page) = data {
                        // The grant may wait on further acks: stage out
                        // of band, replacing any stale leftover.
                        node.state.staged.insert(vpn, page);
                    }
                    let actions = dir.invalidate_ack(vpn, from, carried);
                    if !actions.is_empty() {
                        let staged = node.state.staged.remove(&vpn);
                        run(node, vpn, actions, staged);
                    }
                }
            }
            other => panic!("{other:?} is not addressed to a home"),
        },
    }
    out
}

/// The single interpreter of [`DirAction`]s: local PTE/frame changes and
/// the sends/completions they imply. `staged` is the page contents this
/// transaction received (a data-carrying ack, or the home's own dropped
/// copy). A dropped home copy whose grant waits on batch acks outlives
/// the step in `node.state.staged`, where the last ack's step finds it.
fn apply_actions<F: Frames>(
    home: NodeId,
    node: &mut Node<'_, F>,
    zero_page: bool,
    vpn: Vpn,
    actions: Vec<DirAction>,
    mut staged: Option<F::Page>,
    out: &mut Vec<Output<F::Page>>,
) {
    let mut home_copy = false;
    for action in actions {
        match action {
            DirAction::Grant {
                to: Requester::Remote { node: to, req_id },
                access,
                with_data,
            } => {
                // Data source: contents staged by this transaction, else
                // the home's frame. A page never materialized here is the
                // kernel zero page; with the optimization on, the
                // receiver zero-fills locally instead of pulling 4 KiB of
                // zeros over the wire.
                let source = || staged.take().or_else(|| node.frames.get(vpn));
                let data = match with_data.then(source) {
                    None => None,
                    Some(Some(_)) if node.mutation == ProtocolMutation::StaleGrantData => {
                        Some(F::zeroed())
                    }
                    Some(Some(page)) => Some(page),
                    Some(None) if zero_page => {
                        out.push(Output::ZeroPageGrant);
                        None
                    }
                    Some(None) => Some(F::zeroed()),
                };
                let msg = PageMsg::Grant {
                    vpn,
                    access,
                    data,
                    retry: false,
                    req_id,
                };
                out.push(Output::Send { to, msg });
            }
            DirAction::Grant {
                to: Requester::Local { req_id },
                access,
                ..
            } => {
                node.install(vpn, access, staged.take());
                out.push(Output::Wake {
                    req_id,
                    retry: false,
                });
            }
            DirAction::Retry {
                to: Requester::Remote { node: to, req_id },
            } => {
                let msg = PageMsg::Grant {
                    vpn,
                    access: Access::Read,
                    data: None,
                    retry: true,
                    req_id,
                };
                out.push(Output::Send { to, msg });
            }
            DirAction::Retry {
                to: Requester::Local { req_id },
            } => out.push(Output::Wake {
                req_id,
                retry: true,
            }),
            DirAction::SendFlush { to } => {
                let msg = PageMsg::Flush { vpn };
                out.push(Output::Send { to, msg });
            }
            DirAction::SendInvalidate { to, needs_data } => {
                let msg = PageMsg::Invalidate { vpn, needs_data };
                out.push(Output::Send { to, msg });
            }
            DirAction::ClearOriginPte => {
                if node.mutation != ProtocolMutation::KeepOriginPte {
                    node.page_table.clear(vpn);
                }
            }
            DirAction::DowngradeOriginPte => {
                if node.mutation != ProtocolMutation::SkipDowngrade {
                    node.page_table.downgrade(vpn);
                }
            }
            DirAction::SetOriginPteRo => node.page_table.set(vpn, Pte::READ_ONLY),
            DirAction::InstallOriginData => {
                if let Some(page) = staged.clone() {
                    node.frames.put(vpn, page);
                }
            }
            DirAction::Forward {
                to,
                requester,
                access,
            } => {
                let req_id = match requester {
                    Requester::Remote { req_id, .. } | Requester::Local { req_id } => req_id,
                };
                let msg = PageMsg::OwnerForward {
                    vpn,
                    access,
                    requester: requester.node(home),
                    req_id,
                };
                out.push(Output::Send { to, msg });
            }
            DirAction::SendInvalidateBatch { to, entries } => {
                let msg = PageMsg::InvalidateBatch { entries };
                out.push(Output::Send { to, msg });
            }
            DirAction::DropHomeCopy { needs_data } => {
                if needs_data {
                    // The home's copy is the elected data source: stage
                    // it for the grant before dropping it.
                    staged = Some(node.frames.get(vpn).unwrap_or_else(F::zeroed));
                    home_copy = true;
                }
                unmap(node.page_table, node.frames, vpn);
            }
        }
    }
    if let Some(page) = staged.filter(|_| home_copy) {
        node.state.staged.insert(vpn, page);
    }
}

// ---------------------------------------------------------------------
// Holder
// ---------------------------------------------------------------------

/// First half of serving a holder-role message, before the driver
/// charges any handling cost: an `OwnerForward` for a page whose grant is
/// still in flight to this node is parked (the node cannot grant from a
/// copy it does not hold yet) and `None` is returned; anything else comes
/// straight back for [`holder_step`].
pub fn holder_admit<P>(
    state: &mut NodeState<P>,
    from: NodeId,
    msg: PageMsg<P>,
    tag: u64,
) -> Option<PageMsg<P>> {
    match msg {
        PageMsg::OwnerForward { vpn, .. } if state.inflight.contains_key(&vpn) => {
            state.defer(vpn, Deferred { from, msg, tag });
            None
        }
        msg => Some(msg),
    }
}

/// Serves an admitted holder-role message from home `from`; every output
/// is a [`Output::Send`]. Batch entries whose page has a grant in flight
/// are parked and acknowledged after the grant lands.
///
/// # Panics
///
/// Panics if `msg` is not addressed to the holder role.
pub fn holder_step<F: Frames>(
    node: &mut Node<'_, F>,
    from: NodeId,
    msg: PageMsg<F::Page>,
    tag: u64,
) -> Vec<Output<F::Page>> {
    let acked = node.mutation != ProtocolMutation::DropAck;
    let send = |to, msg| Output::Send { to, msg };
    match msg {
        PageMsg::Invalidate { vpn, needs_data } => {
            let data = node.revoke(vpn, needs_data);
            let ack = PageMsg::InvalidateAck { vpn, data };
            Vec::from_iter(acked.then_some(send(from, ack)))
        }
        PageMsg::InvalidateBatch { entries } => {
            let mut acks = Vec::new();
            for (vpn, needs_data) in entries {
                if node.state.inflight.contains_key(&vpn) {
                    // The revocation overtook the grant it revokes.
                    let msg = PageMsg::InvalidateBatch {
                        entries: vec![(vpn, needs_data)],
                    };
                    node.state.defer(vpn, Deferred { from, msg, tag });
                } else {
                    acks.push((vpn, node.revoke(vpn, needs_data)));
                }
            }
            // One aggregated ack for every entry applied now; parked
            // entries follow in partial acks of their own.
            let sent = acked && !acks.is_empty();
            let ack = PageMsg::InvalidateBatchAck { entries: acks };
            Vec::from_iter(sent.then_some(send(from, ack)))
        }
        PageMsg::Flush { vpn } => {
            node.page_table.downgrade(vpn);
            let data = node.frames.get(vpn).unwrap_or_else(F::zeroed);
            vec![send(from, PageMsg::FlushAck { vpn, data })]
        }
        PageMsg::OwnerForward {
            vpn,
            access,
            requester,
            req_id,
        } => {
            let page = node.frames.get(vpn).unwrap_or_else(F::zeroed);
            if !access.is_write() {
                // The owner keeps a shared copy, downgrading if it was
                // the exclusive writer.
                node.page_table.downgrade(vpn);
            } else if node.mutation != ProtocolMutation::KeepOriginPte {
                unmap(node.page_table, node.frames, vpn);
            }
            let data = if node.mutation == ProtocolMutation::StaleGrantData {
                F::zeroed()
            } else {
                page
            };
            let grant = PageMsg::Grant {
                vpn,
                access,
                data: Some(data),
                retry: false,
                req_id,
            };
            let ack = PageMsg::OwnerAck { vpn, access };
            vec![send(requester, grant), send(from, ack)]
        }
        other => panic!("{other:?} is not addressed to a holder"),
    }
}

// ---------------------------------------------------------------------
// Requester
// ---------------------------------------------------------------------

/// What happens at the node a fault originates on.
#[derive(Clone, Debug)]
pub enum RequesterIn<P> {
    /// Thread `thread` traps on `(vpn, access)`; `tag` is the driver's
    /// opaque tag for the fault (the runtime's span id).
    Fault {
        /// Faulting page.
        vpn: Vpn,
        /// Attempted access.
        access: Access,
        /// The faulting thread.
        thread: u64,
        /// Handed to followers as `leader_tag`.
        tag: u64,
    },
    /// A leader (re)sends its request to the remote home `home`.
    Issue {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
        /// Correlation id the answer will carry.
        req_id: u64,
        /// The page's directory home.
        home: NodeId,
    },
    /// A `Grant` message (possibly a retry notice) landed.
    Msg(PageMsg<P>),
    /// The leader's fault on `(vpn, access)` is resolved.
    Resolved {
        /// The page.
        vpn: Vpn,
        /// The access class that was negotiated.
        access: Access,
    },
}

/// Advances the requester role of one node by one input.
///
/// # Panics
///
/// Panics on `Resolved` for a fault nobody leads, or on a message not
/// addressed to the requester role (driver bugs).
pub fn requester_step<F: Frames>(
    node: &mut Node<'_, F>,
    input: RequesterIn<F::Page>,
) -> Vec<Output<F::Page>> {
    match input {
        RequesterIn::Fault {
            vpn,
            access,
            thread,
            tag,
        } => match node.state.faults.entry((vpn, access.is_write())) {
            Entry::Occupied(mut e) => {
                e.get_mut().followers.push(thread);
                vec![Output::Follow {
                    leader: e.get().leader,
                    leader_tag: e.get().leader_tag,
                    bypass: node.mutation == ProtocolMutation::FollowerBypass,
                }]
            }
            Entry::Vacant(v) => {
                v.insert(FaultEntry {
                    leader: thread,
                    leader_tag: tag,
                    followers: Vec::new(),
                });
                vec![Output::Lead]
            }
        },
        RequesterIn::Issue {
            vpn,
            access,
            req_id,
            home,
        } => {
            // A grant for this page may be forwarded by a third node,
            // racing the home's own traffic on another channel: mark the
            // page so the holder role parks such traffic until the answer
            // lands.
            *node.state.inflight.entry(vpn).or_insert(0) += 1;
            let msg = PageMsg::Request {
                vpn,
                access,
                req_id,
            };
            vec![Output::Send { to: home, msg }]
        }
        RequesterIn::Msg(PageMsg::Grant {
            vpn,
            access,
            data,
            retry,
            req_id,
        }) => {
            if !retry {
                node.install(vpn, access, data);
            }
            let mut out = Vec::new();
            // A grant with no mark answers a home-local fault (same-
            // channel FIFO already orders those).
            if let Some(count) = node.state.inflight.get_mut(&vpn) {
                *count -= 1;
                if *count == 0 {
                    node.state.inflight.remove(&vpn);
                    out.extend(node.state.deferred.remove(&vpn).map(Output::Released));
                }
            }
            out.push(Output::Wake { req_id, retry });
            out
        }
        RequesterIn::Msg(other) => panic!("{other:?} is not addressed to a requester"),
        RequesterIn::Resolved { vpn, access } => {
            let entry = node
                .state
                .faults
                .remove(&(vpn, access.is_write()))
                .expect("leader owns the entry");
            if node.mutation == ProtocolMutation::DropWakeup {
                return Vec::new();
            }
            let wake = entry.followers.into_iter().map(Output::WakeFollower);
            wake.collect()
        }
    }
}
