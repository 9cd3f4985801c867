//! A closed, finite-state world around the DEX ownership protocol.
//!
//! The protocol itself lives in [`Directory`] and in the sans-IO role
//! steps of [`crate::protocol`] — the same code the simulator runtime
//! drives. This module only closes them into an *executable world*: one
//! directory at its home node, one page table (and `()` frames) per node,
//! per-link FIFO channels of in-flight [`PageMsg`]s, and a small set of
//! client threads that may, at any moment, fault on any page (read or
//! write) or unmap it. Exploring every interleaving of the enabled
//! [`ModelEvent`]s enumerates every behavior the protocol can exhibit for
//! a small configuration — exactly what the `dex-check` model checker
//! does by breadth-first search over canonicalized states.
//!
//! Why a closed world instead of fixed per-thread programs: the protocol
//! state (owner sets, writers, transactions, PTEs, in-flight messages)
//! is finite, so letting idle threads issue *any* operation at *any*
//! time yields a finite transition system whose reachable set covers
//! every interleaving of every operation sequence at once. Liveness is
//! then co-reachability of quiescent states ("from every reachable
//! state some fair schedule drains all in-flight work"), which detects
//! both lost-message deadlocks and retry livelocks without modeling
//! retry counters.
//!
//! What belongs here and nowhere else: event enumeration, the channels,
//! the canonical state key, the safety and liveness predicates, and
//! rendering. A [`ProtocolMutation`] in the configuration reaches the
//! shared steps unchanged, so the checker proves its teeth on the very
//! hooks the runtime carries.

use super::{Directory, NodeSet, PageInfo};
use crate::mutation::ProtocolMutation;
use crate::protocol::{
    self, holder_admit, holder_step, home_step, requester_step, Deferred, HomeIn, Node, NodeState,
    Output, PageMsg, RequesterIn, Role,
};
use dex_net::NodeId;
use dex_os::{Access, PageTable, Vpn};

/// One client operation a modeled thread can attempt.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Fault the page for reading.
    Read(Vpn),
    /// Fault the page for writing.
    Write(Vpn),
    /// Unmap the page at the origin (synchronous VMA broadcast).
    Evict(Vpn),
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Read(v) => write!(f, "read page {}", v.index()),
            Op::Write(v) => write!(f, "write page {}", v.index()),
            Op::Evict(v) => write!(f, "evict page {}", v.index()),
        }
    }
}

/// What a modeled thread is currently doing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThreadState {
    /// Ready to issue any operation.
    Idle,
    /// Request sent; waiting for a grant or a retry notice.
    Waiting {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Told to retry; will re-issue the same request.
    Backoff {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
    },
    /// Coalesced behind a same-node leader negotiating the same fault.
    Follower {
        /// Requested page.
        vpn: Vpn,
        /// Requested access.
        access: Access,
        /// Index of the leader thread.
        leader: usize,
    },
}

impl ThreadState {
    /// The fault the thread is part of, if any.
    fn fault(self) -> Option<(Vpn, Access)> {
        match self {
            ThreadState::Idle => None,
            ThreadState::Waiting { vpn, access }
            | ThreadState::Backoff { vpn, access }
            | ThreadState::Follower { vpn, access, .. } => Some((vpn, access)),
        }
    }
}

/// A protocol message in flight on the ordered fabric channel
/// `(src, dst)`.
///
/// DEX runs over RDMA reliable connections, which deliver in order per
/// connection; the single-writer invariant *depends* on that ordering (a
/// read grant overtaken by a later invalidation to the same node would
/// resurrect a revoked mapping). The model therefore only enables
/// delivery of the *oldest* message on each channel; distinct channels
/// interleave freely — a forwarded grant (owner → requester) reorders
/// against the home's own traffic, the hazard the holder's parking
/// absorbs. A home-local thread's trap travels the `(home, home)` channel
/// so it, too, reaches the directory after an arbitrary delay.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InFlight {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The message (payload-free: contents are not protocol state).
    pub msg: PageMsg<()>,
}

/// Configuration of a model instance.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Number of nodes (node 0 is the origin).
    pub nodes: u16,
    /// Number of pages (vpns `0..pages`).
    pub pages: u64,
    /// Home node of each modeled thread (`threads[i]` = node of thread
    /// `i`). Two threads on one node exercise fault coalescing.
    pub threads: Vec<u16>,
    /// Injected protocol bug.
    pub mutation: ProtocolMutation,
    /// Model the sharded-directory variant: the directory lives at a
    /// non-origin home node (node 1 when the world has one) and runs
    /// the two-hop protocol — owner-forwarded grants and batched
    /// invalidations — instead of the classic origin-centric one.
    pub sharded: bool,
}

impl ModelConfig {
    /// One thread per node, no mutation, classic (unsharded) directory.
    pub fn new(nodes: u16, pages: u64) -> Self {
        ModelConfig {
            nodes,
            pages,
            threads: (0..nodes).collect(),
            mutation: ProtocolMutation::None,
            sharded: false,
        }
    }

    /// Adds a second thread on node `node` (enables coalescing paths).
    pub fn with_extra_thread(mut self, node: u16) -> Self {
        assert!(node < self.nodes);
        self.threads.push(node);
        self
    }

    /// Sets the injected mutation.
    pub fn with_mutation(mut self, mutation: ProtocolMutation) -> Self {
        self.mutation = mutation;
        self
    }

    /// Switches the model to the sharded-directory (two-hop) variant.
    pub fn with_sharding(mut self) -> Self {
        self.sharded = true;
        self
    }

    /// The node hosting the directory: the origin classically; node 1
    /// in the sharded variant (so home ≠ origin paths are exercised)
    /// when the world has more than one node.
    pub fn home(&self) -> NodeId {
        NodeId(if self.sharded && self.nodes > 1 { 1 } else { 0 })
    }
}

/// One transition of the model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelEvent {
    /// An idle thread begins an operation.
    Issue {
        /// The acting thread.
        thread: usize,
        /// The operation.
        op: Op,
    },
    /// A backed-off thread re-sends its request.
    ReIssue {
        /// The retrying thread.
        thread: usize,
    },
    /// The in-flight message at `msg` (current insertion order) arrives.
    Deliver {
        /// Index into the state's message list.
        msg: usize,
    },
}

impl std::fmt::Display for ModelEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelEvent::Issue { thread, op } => write!(f, "T{thread}: {op}"),
            ModelEvent::ReIssue { thread } => write!(f, "T{thread}: re-issue after retry"),
            ModelEvent::Deliver { msg } => write!(f, "deliver message #{msg}"),
        }
    }
}

/// A safety violation detected while applying an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable details.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: String) -> Self {
        Violation { invariant, detail }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// One node of the world: what the protocol steps run on.
#[derive(Clone)]
struct ModelNode {
    state: NodeState<()>,
    page_table: PageTable,
    frames: (),
}

impl ModelNode {
    fn view(&mut self, mutation: ProtocolMutation) -> Node<'_, ()> {
        Node {
            state: &mut self.state,
            page_table: &mut self.page_table,
            frames: &mut self.frames,
            mutation,
        }
    }
}

/// An order-independent digest of a whole world state, for seen-set
/// deduplication.
#[derive(PartialEq, Eq, Hash)]
pub struct ModelKey {
    dir: Vec<(u64, PageInfo)>,
    mapped: Vec<Vec<(Vpn, bool)>>,
    msgs: Vec<InFlight>,
    parked: Vec<Vec<Deferred<()>>>,
    threads: Vec<ThreadState>,
}

/// The full world state: directory + per-node protocol state and page
/// tables + in-flight messages + thread states.
#[derive(Clone)]
pub struct ModelState {
    config: ModelConfig,
    dir: Directory,
    nodes: Vec<ModelNode>,
    msgs: Vec<InFlight>,
    threads: Vec<ThreadState>,
}

impl ModelState {
    /// The initial state: every page mapped read-write at the origin,
    /// nothing in flight, every thread idle.
    pub fn new(config: ModelConfig) -> Self {
        assert!(config.nodes >= 1 && config.nodes <= 64);
        assert!(config.threads.iter().all(|&n| n < config.nodes));
        let blank = ModelNode {
            state: NodeState::default(),
            page_table: PageTable::new(),
            frames: (),
        };
        let mut nodes = vec![blank; config.nodes as usize];
        for vpn in 0..config.pages {
            protocol::map_origin_default(&mut nodes[0].page_table, Vpn::new(vpn));
        }
        let dir = if config.sharded {
            Directory::forwarded(config.home(), NodeId(0))
        } else {
            Directory::new(NodeId(0))
        };
        ModelState {
            dir,
            nodes,
            msgs: Vec::new(),
            threads: vec![ThreadState::Idle; config.threads.len()],
            config,
        }
    }

    /// The node thread `t` runs on.
    fn thread_node(&self, t: usize) -> NodeId {
        NodeId(self.config.threads[t])
    }

    fn pte(&self, node: NodeId, vpn: Vpn) -> dex_os::Pte {
        self.nodes[node.0 as usize].page_table.entry(vpn)
    }

    /// Runs `f` on node `n` as the protocol steps see it.
    fn with_node<R>(&mut self, n: NodeId, f: impl FnOnce(&mut Node<'_, ()>) -> R) -> R {
        f(&mut self.nodes[n.0 as usize].view(self.config.mutation))
    }

    fn parked(&self) -> impl Iterator<Item = &Deferred<()>> {
        self.nodes.iter().flat_map(|n| n.state.deferred())
    }

    /// True when no message is in flight or parked, no transaction is
    /// open, and every thread is idle — the drained states liveness
    /// requires to be co-reachable from every reachable state.
    pub fn is_quiescent(&self) -> bool {
        self.msgs.is_empty()
            && self.parked().next().is_none()
            && self.threads.iter().all(|t| *t == ThreadState::Idle)
            && (0..self.config.pages).all(|v| !self.dir.has_txn(Vpn::new(v)))
    }

    /// Whether any message, parked work, open transaction or faulting
    /// thread concerns `vpn`. (The model's directory emits one-page
    /// batches, so a batch's first page is its only page.)
    fn page_in_flight(&self, vpn: Vpn) -> bool {
        self.dir.has_txn(vpn)
            || self.msgs.iter().any(|m| m.msg.page() == vpn)
            || self.parked().any(|d| d.msg.page() == vpn)
            || self
                .threads
                .iter()
                .any(|t| t.fault().is_some_and(|(v, _)| v == vpn))
    }

    /// Every event enabled in this state.
    pub fn enabled_events(&self) -> Vec<ModelEvent> {
        let mut events = Vec::new();
        for (t, state) in self.threads.iter().enumerate() {
            let issue = |op| ModelEvent::Issue { thread: t, op };
            match *state {
                ThreadState::Idle => {
                    for vpn in (0..self.config.pages).map(Vpn::new) {
                        let pte = self.pte(self.thread_node(t), vpn);
                        // A thread only enters the protocol on a fault.
                        if !pte.permits(Access::Read) {
                            events.push(issue(Op::Read(vpn)));
                        }
                        if !pte.permits(Access::Write) {
                            events.push(issue(Op::Write(vpn)));
                        }
                        // Unmap models a synchronous VMA broadcast; the
                        // caller guarantees the page is quiescent.
                        if !self.page_in_flight(vpn) {
                            events.push(issue(Op::Evict(vpn)));
                        }
                    }
                }
                ThreadState::Backoff { .. } => events.push(ModelEvent::ReIssue { thread: t }),
                ThreadState::Waiting { .. } | ThreadState::Follower { .. } => {}
            }
        }
        for (i, m) in self.msgs.iter().enumerate() {
            // Per-channel FIFO: only the oldest message on each channel
            // is deliverable (see [`InFlight`]).
            let overtaken = |e: &InFlight| (e.src, e.dst) == (m.src, m.dst);
            if !self.msgs[..i].iter().any(overtaken) {
                events.push(ModelEvent::Deliver { msg: i });
            }
        }
        events
    }

    /// Applies `event`, returning the safety violations it exposes.
    ///
    /// # Panics
    ///
    /// Panics if `event` is not enabled in this state (checker bug).
    pub fn apply(&mut self, event: ModelEvent) -> Vec<Violation> {
        let mut violations = Vec::new();
        match event {
            ModelEvent::Issue { thread, op } => match op {
                Op::Read(vpn) => self.fault(thread, vpn, Access::Read),
                Op::Write(vpn) => self.fault(thread, vpn, Access::Write),
                Op::Evict(vpn) => self.evict(vpn),
            },
            ModelEvent::ReIssue { thread } => {
                let ThreadState::Backoff { vpn, access } = self.threads[thread] else {
                    panic!("re-issue from state {:?}", self.threads[thread]);
                };
                self.threads[thread] = ThreadState::Waiting { vpn, access };
                self.send_request(thread, vpn, access);
            }
            ModelEvent::Deliver { msg } => {
                let m = self.msgs.remove(msg);
                self.deliver(m, &mut violations);
            }
        }
        self.check_safety(&mut violations);
        violations
    }

    /// A thread traps: the requester step decides whether it leads the
    /// fault or coalesces behind a same-node sibling.
    fn fault(&mut self, thread: usize, vpn: Vpn, access: Access) {
        let fault = RequesterIn::Fault {
            vpn,
            access,
            thread: thread as u64,
            tag: 0,
        };
        let node = self.thread_node(thread);
        let role = self.with_node(node, |n| requester_step(n, fault)).pop();
        if let Some(Output::Follow { leader, bypass, .. }) = role {
            let leader = leader as usize;
            self.threads[thread] = ThreadState::Follower {
                vpn,
                access,
                leader,
            };
            if bypass {
                self.send_request(thread, vpn, access);
            }
        } else {
            self.threads[thread] = ThreadState::Waiting { vpn, access };
            self.send_request(thread, vpn, access);
        }
    }

    fn send_request(&mut self, thread: usize, vpn: Vpn, access: Access) {
        let (node, home) = (self.thread_node(thread), self.config.home());
        let req_id = thread as u64;
        let outs = if node == home {
            // A home-local trap reaches the directory like a message, on
            // the (home, home) channel.
            let msg = PageMsg::Request {
                vpn,
                access,
                req_id,
            };
            vec![Output::Send { to: home, msg }]
        } else {
            let issue = RequesterIn::Issue {
                vpn,
                access,
                req_id,
                home,
            };
            self.with_node(node, |n| requester_step(n, issue))
        };
        self.perform(node, outs, &mut Vec::new());
    }

    fn evict(&mut self, vpn: Vpn) {
        // Synchronous origin-side unmap: revoke every remote copy, then
        // forget the page; re-touching it re-creates the origin-exclusive
        // default, so the origin mapping resets to read-write.
        for (node, v) in self.dir.drop_pages(&[vpn]) {
            let node = &mut self.nodes[node.0 as usize];
            protocol::unmap(&mut node.page_table, &mut node.frames, v);
        }
        protocol::map_origin_default(&mut self.nodes[0].page_table, vpn);
    }

    /// Hands an arriving message to the role step it is addressed to and
    /// performs the step's outputs.
    fn deliver(&mut self, m: InFlight, violations: &mut Vec<Violation>) {
        let InFlight { src, dst, msg } = m;
        let outs = match msg.role() {
            Role::Home => {
                let home = &mut self.nodes[dst.0 as usize].view(self.config.mutation);
                home_step(&mut self.dir, home, false, HomeIn::Msg { from: src, msg })
            }
            Role::Holder => {
                let state = &mut self.nodes[dst.0 as usize].state;
                let admitted = holder_admit(state, src, msg, 0);
                admitted.map_or_else(Vec::new, |msg| self.serve(dst, src, msg))
            }
            Role::Requester => self.with_node(dst, |n| requester_step(n, RequesterIn::Msg(msg))),
        };
        self.perform(dst, outs, violations);
    }

    /// Serves an admitted (or released) holder-role message at `node`.
    fn serve(&mut self, node: NodeId, from: NodeId, msg: PageMsg<()>) -> Vec<Output<()>> {
        self.with_node(node, |n| holder_step(n, from, msg, 0))
    }

    /// Performs a role step's outputs at `node`, in order.
    fn perform(&mut self, node: NodeId, outs: Vec<Output<()>>, violations: &mut Vec<Violation>) {
        for out in outs {
            match out {
                Output::Send { to, msg } => {
                    if let PageMsg::Grant {
                        retry: true,
                        req_id,
                        vpn,
                        ..
                    } = msg
                    {
                        // A retry addressed to a thread with no outstanding
                        // request: the faithful protocol never sends one,
                        // so surface it as a violation instead of crashing
                        // the checker (mutated protocols do reach it).
                        if self.threads[req_id as usize] == ThreadState::Idle {
                            let detail = format!(
                                "retry for page {} addressed to idle thread T{req_id}",
                                vpn.index()
                            );
                            violations.push(Violation::new("request/response pairing", detail));
                            continue;
                        }
                    }
                    let (src, dst) = (node, to);
                    self.msgs.push(InFlight { src, dst, msg });
                }
                Output::Released(work) => {
                    let outs = self.serve(node, work.from, work.msg);
                    self.perform(node, outs, violations);
                }
                // Home-local answers complete synchronously.
                Output::Wake { req_id, retry } => self.wake(req_id as usize, retry, violations),
                Output::WakeFollower(t) => {
                    if let ThreadState::Follower { .. } = self.threads[t as usize] {
                        self.threads[t as usize] = ThreadState::Idle;
                    }
                }
                Output::ZeroPageGrant => {}
                Output::Lead | Output::Follow { .. } => {
                    unreachable!("fault roles are consumed where the fault is raised")
                }
            }
        }
    }

    /// The answer to `thread`'s request arrived (its mapping is already
    /// installed unless `retry`). A granted leader resolves its fault at
    /// once — the model has no fix-up phase — releasing its followers.
    fn wake(&mut self, thread: usize, retry: bool, violations: &mut Vec<Violation>) {
        let Some((vpn, access)) = self.threads[thread].fault() else {
            return;
        };
        if let ThreadState::Follower { leader, .. } = self.threads[thread] {
            // Only the follower-bypass bug gets a follower answered: a
            // bounce leaves it waiting for its leader, a grant is wrong.
            if !retry {
                let detail = format!(
                    "follower T{thread} (leader T{leader}) granted {access} on page {} \
                     before its leader completed",
                    vpn.index()
                );
                violations.push(Violation::new("leader-follower ordering", detail));
                self.threads[thread] = ThreadState::Idle;
            }
        } else if retry {
            self.threads[thread] = ThreadState::Backoff { vpn, access };
        } else {
            self.threads[thread] = ThreadState::Idle;
            let node = self.thread_node(thread);
            let resolved = RequesterIn::Resolved { vpn, access };
            let outs = self.with_node(node, |n| requester_step(n, resolved));
            self.perform(node, outs, violations);
        }
    }

    /// Checks every state-level safety invariant, appending violations.
    pub fn check_safety(&self, violations: &mut Vec<Violation>) {
        for v in 0..self.config.pages {
            let vpn = Vpn::new(v);
            // (1) Single-writer exclusivity over the PTE views: a
            // writable mapping anywhere precludes the page being present
            // anywhere else. This must hold in EVERY reachable state.
            let present: Vec<NodeId> = (0..self.config.nodes)
                .map(NodeId)
                .filter(|n| self.pte(*n, vpn).present)
                .collect();
            let writable: Vec<NodeId> = present
                .iter()
                .copied()
                .filter(|n| self.pte(*n, vpn).writable)
                .collect();
            if !writable.is_empty() && present.len() > 1 {
                let others: Vec<_> = present.iter().filter(|n| **n != writable[0]).collect();
                let detail = format!(
                    "page {v}: node {} maps it writable while nodes {others:?} also map it",
                    writable[0]
                );
                violations.push(Violation::new("single-writer exclusivity", detail));
            }
            if writable.len() > 1 {
                let detail = format!("page {v}: multiple writable mappings on nodes {writable:?}");
                violations.push(Violation::new("single-writer exclusivity", detail));
            }
            // (2)+(3) Owner-set/PTE agreement and no lost invalidations:
            // once a page is quiescent (no transaction, no in-flight
            // message, no waiting thread), the nodes that map it must be
            // exactly the directory's owner set, and the writable node
            // must be the registered writer.
            if !self.page_in_flight(vpn) {
                let (owners, writer) = (self.dir.owners(vpn), self.dir.current_writer(vpn));
                let mapped: NodeSet = present.iter().copied().collect();
                let mut disagree = |detail| {
                    violations.push(Violation::new("owner-set/PTE agreement", detail));
                };
                if mapped != owners {
                    disagree(format!(
                        "page {v}: directory owners {owners:?} but mapped on {mapped:?} \
                         (stale or lost invalidation)"
                    ));
                }
                match writer {
                    Some(w) if !self.pte(w, vpn).writable => disagree(format!(
                        "page {v}: directory writer {w} lacks a writable mapping"
                    )),
                    None if !writable.is_empty() => disagree(format!(
                        "page {v}: no directory writer but node {} maps it writable",
                        writable[0]
                    )),
                    _ => {}
                }
            }
        }
        // The directory's own internal consistency.
        if let Err(err) = self.dir.check_invariants() {
            violations.push(Violation::new("directory internal consistency", err));
        }
    }

    /// A canonical, order-independent digest of the whole world state
    /// for seen-set deduplication. Coalescing tables and in-flight marks
    /// are functions of the thread states, so those stand in for them.
    pub fn canonical_key(&self) -> ModelKey {
        let mapped = |n: &ModelNode| n.page_table.iter().map(|(v, p)| (v, p.writable)).collect();
        let parked = |n: &ModelNode| n.state.deferred().cloned().collect();
        let mut msgs = self.msgs.clone();
        msgs.sort_unstable();
        // Tracked pages only: an untracked page and a tracked one in the
        // default state are told apart, as the directory does.
        let tracked = self.dir.pages.iter();
        ModelKey {
            dir: tracked.map(|(key, info)| (key, info.clone())).collect(),
            mapped: self.nodes.iter().map(mapped).collect(),
            msgs,
            parked: self.nodes.iter().map(parked).collect(),
            threads: self.threads.clone(),
        }
    }

    /// Renders the state compactly (counterexample traces).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in 0..self.config.pages {
            let vpn = Vpn::new(v);
            let mapped: Vec<String> = (0..self.config.nodes)
                .filter_map(|n| {
                    let pte = self.pte(NodeId(n), vpn);
                    let mode = if pte.writable { "w" } else { "r" };
                    pte.present.then(|| format!("{n}{mode}"))
                })
                .collect();
            let _ = write!(
                out,
                "page {v}: owners={:?} writer={:?} txn={} mapped=[{}]  ",
                self.dir.owners(vpn),
                self.dir.current_writer(vpn).map(|w| w.0),
                if self.dir.has_txn(vpn) { "yes" } else { "no" },
                mapped.join(",")
            );
        }
        let _ = write!(
            out,
            "msgs={} deferred={} threads={:?}",
            self.msgs.len(),
            self.parked().count(),
            self.threads
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: Vpn = Vpn::new(0);

    fn issue(state: &mut ModelState, thread: usize, op: Op) -> Vec<Violation> {
        state.apply(ModelEvent::Issue { thread, op })
    }

    /// Delivers messages (FIFO) until none is in flight; no new ops issued.
    fn drain(state: &mut ModelState) -> Vec<Violation> {
        let mut violations = Vec::new();
        for _ in 0..10_000 {
            if state.msgs.is_empty() {
                return violations;
            }
            violations.extend(state.apply(ModelEvent::Deliver { msg: 0 }));
        }
        panic!("model failed to drain");
    }

    /// Issues each `(thread, op)` and drains after it.
    fn run(state: &mut ModelState, ops: &[(usize, Op)]) -> Vec<Violation> {
        let mut violations = Vec::new();
        for &(thread, op) in ops {
            violations.extend(issue(state, thread, op));
            violations.extend(drain(state));
        }
        violations
    }

    fn deliver_where(state: &mut ModelState, pred: impl Fn(&InFlight) -> bool) -> Vec<Violation> {
        let msg = state.msgs.iter().position(pred);
        let msg = msg.expect("expected message in flight");
        state.apply(ModelEvent::Deliver { msg })
    }

    #[test]
    fn initial_state_is_quiescent_and_clean() {
        let state = ModelState::new(ModelConfig::new(3, 2));
        assert!(state.is_quiescent());
        let mut violations = Vec::new();
        state.check_safety(&mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn remote_write_transfers_ownership() {
        for (config, writer) in [
            (ModelConfig::new(2, 1), 1),
            // Home = node 1, origin = node 0: the write by node 2 must be
            // forwarded by the home to the origin, which grants directly.
            (ModelConfig::new(3, 1).with_sharding(), 2),
        ] {
            let mut state = ModelState::new(config);
            let violations = run(&mut state, &[(writer, Op::Write(PAGE))]);
            assert!(violations.is_empty(), "{violations:?}");
            assert!(state.is_quiescent());
            let node = NodeId(writer as u16);
            assert_eq!(state.dir.current_writer(PAGE), Some(node));
            assert!(state.pte(node, PAGE).writable);
            assert!(!state.pte(NodeId(0), PAGE).present);
        }
    }

    #[test]
    fn stale_mappings_left_by_seeded_bugs_are_detected() {
        // Node 1 reads (replica), then node 2 writes (revokes node 1): a
        // skipped invalidation leaves node 1 mapped. Sharded, the write
        // alone is forwarded to the origin, which must drop its mapping.
        let ops = [(1, Op::Read(PAGE)), (2, Op::Write(PAGE))];
        let classic = ModelConfig::new(3, 1).with_mutation(ProtocolMutation::SkipInvalidate);
        let sharded = ModelConfig::new(3, 1)
            .with_sharding()
            .with_mutation(ProtocolMutation::KeepOriginPte);
        for (cfg, ops) in [(classic, &ops[..]), (sharded, &ops[1..])] {
            let violations = run(&mut ModelState::new(cfg), ops);
            let stale = |v: &Violation| {
                v.invariant.contains("exclusivity") || v.invariant.contains("agreement")
            };
            assert!(violations.iter().any(stale), "{violations:?}");
        }
    }

    #[test]
    fn drop_ack_mutation_prevents_drain() {
        let cfg = ModelConfig::new(3, 1).with_mutation(ProtocolMutation::DropAck);
        let mut state = ModelState::new(cfg);
        // Everything deliverable gets delivered; the write's transaction
        // must stay open.
        run(&mut state, &[(1, Op::Read(PAGE)), (2, Op::Write(PAGE))]);
        assert!(state.dir.has_txn(PAGE), "txn should never drain");
        assert!(!state.is_quiescent());
    }

    #[test]
    fn coalesced_follower_completes_with_leader() {
        let mut state = ModelState::new(ModelConfig::new(2, 1).with_extra_thread(1));
        // Thread 1 (node 1) write-faults; thread 2 (node 1) coalesces.
        issue(&mut state, 1, Op::Write(PAGE));
        issue(&mut state, 2, Op::Write(PAGE));
        let follower = ThreadState::Follower {
            vpn: PAGE,
            access: Access::Write,
            leader: 1,
        };
        assert_eq!(state.threads[2], follower);
        let violations = drain(&mut state);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(state.threads[1], ThreadState::Idle);
        assert_eq!(state.threads[2], ThreadState::Idle, "follower released");
    }

    #[test]
    fn write_leader_keeps_its_writable_mapping_when_a_read_leader_is_granted() {
        // Same node, one page, a write leader and a read leader (different
        // access classes do not coalesce). The home answers the write
        // first, so the read is the degenerate "requester is the writer"
        // grant: it must not demote the mapping the directory still
        // records as the writer's.
        let mut state = ModelState::new(ModelConfig::new(2, 1).with_extra_thread(1));
        issue(&mut state, 1, Op::Write(PAGE));
        issue(&mut state, 2, Op::Read(PAGE));
        assert_eq!(state.msgs.len(), 2, "two leaders, two requests");
        let violations = drain(&mut state);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.dir.current_writer(PAGE), Some(NodeId(1)));
        assert!(state.pte(NodeId(1), PAGE).writable);
    }

    #[test]
    fn canonical_key_is_stable_under_message_reordering() {
        let mut a = ModelState::new(ModelConfig::new(3, 1));
        let mut b = a.clone();
        // Same requests issued in different orders; before any delivery
        // the in-flight multisets are equal.
        issue(&mut a, 1, Op::Read(PAGE));
        issue(&mut a, 2, Op::Write(PAGE));
        issue(&mut b, 2, Op::Write(PAGE));
        issue(&mut b, 1, Op::Read(PAGE));
        assert!(a.canonical_key() == b.canonical_key());
    }

    #[test]
    fn sharded_invalidate_overtaking_forwarded_grant_is_deferred() {
        let mut state = ModelState::new(ModelConfig::new(3, 1).with_sharding());
        let request = |m: &InFlight| matches!(m.msg, PageMsg::Request { .. });
        // Make node 2 the exclusive writer.
        let mut v = run(&mut state, &[(2, Op::Write(PAGE))]);
        assert!(v.is_empty(), "{v:?}");
        // T0 (origin) read-faults; the home forwards to owner node 2,
        // which grants straight to node 0 and acks the home. Complete
        // the home's transaction first, leaving the grant in flight.
        v.extend(issue(&mut state, 0, Op::Read(PAGE)));
        v.extend(deliver_where(&mut state, request));
        v.extend(deliver_where(&mut state, |m| {
            matches!(m.msg, PageMsg::OwnerForward { .. })
        }));
        v.extend(deliver_where(&mut state, |m| {
            matches!(m.msg, PageMsg::OwnerAck { .. })
        }));
        // The home's own thread write-faults: revocations fan out while
        // node 0's grant is still traveling on another channel.
        v.extend(issue(&mut state, 1, Op::Write(PAGE)));
        v.extend(deliver_where(&mut state, request));
        // Deliver the revocation aimed at node 0 ahead of its grant: it
        // must park instead of acking a copy that never arrived.
        v.extend(deliver_where(&mut state, |m| {
            m.dst == NodeId(0) && matches!(m.msg, PageMsg::InvalidateBatch { .. })
        }));
        assert_eq!(state.parked().count(), 1, "revocation parked behind grant");
        // The grant lands; the parked revocation applies right after it.
        v.extend(deliver_where(&mut state, |m| {
            m.dst == NodeId(0) && matches!(m.msg, PageMsg::Grant { .. })
        }));
        assert_eq!(state.parked().count(), 0, "parked revocation released");
        v.extend(drain(&mut state));
        assert!(v.is_empty(), "{v:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.dir.current_writer(PAGE), Some(NodeId(1)));
        assert!(!state.pte(NodeId(0), PAGE).present);
        assert!(state.pte(NodeId(1), PAGE).writable);
    }

    #[test]
    fn evict_last_remote_owner_resets_to_origin() {
        let mut state = ModelState::new(ModelConfig::new(2, 1));
        // Node 1 becomes the sole (remote) owner; then evict the page.
        let violations = run(&mut state, &[(1, Op::Write(PAGE)), (0, Op::Evict(PAGE))]);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(state.is_quiescent());
        assert_eq!(state.dir.current_writer(PAGE), Some(NodeId(0)));
        assert!(!state.pte(NodeId(1), PAGE).present);
        assert!(state.pte(NodeId(0), PAGE).writable);
    }
}
