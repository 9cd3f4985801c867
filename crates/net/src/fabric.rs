//! The simulated InfiniBand fabric.
//!
//! At boot, nodes establish one Reliable Connection per node pair
//! (§III-E). Each connection owns a send buffer pool, a receive buffer
//! pool, and an RDMA sink, all pre-mapped for DMA so the per-message path
//! avoids DMA mapping and memory-region registration. Small control
//! messages travel over VERB send/recv; page-sized payloads use the
//! configured [`RdmaStrategy`](crate::RdmaStrategy).
//!
//! The cost model is explicit: compose-copy at the sender, FIFO
//! serialization on the per-pair link at the configured bandwidth,
//! propagation latency, and (for the sink strategy) one drain-copy at the
//! receiver.
//!
//! # Delivery ordering
//!
//! Each directed node pair is one RC connection, so messages on the *same*
//! link are delivered in send order (their delivery times are clamped
//! monotonic per link, exactly as an RC queue pair would serialize them).
//! Across *different* links there is no such guarantee: the per-node inbox
//! is a priority queue keyed by arrival time (tie-broken by enqueue order),
//! so a message from a fast link overtakes an earlier-sent message still in
//! flight on a slow link.
//!
//! # Fault injection
//!
//! A fabric built with [`Fabric::with_instrumentation`] consults a
//! [`dex_sim::FaultPlan`] on every send and receive: link faults add
//! delivery delay, and from a node's crash instant onward the fabric drops
//! every message it sends (at the source, before any buffer accounting)
//! and every message addressed to it. An empty plan disables the whole
//! layer — no extra branches on the hot path beyond one boolean test.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;

use dex_sim::{FaultPlan, Resource, SimCtx, SimTime, ThreadId};

use crate::config::{NetConfig, RdmaStrategy};
use crate::metrics::{CounterTable, LinkCounter, MetricsRegistry, NodeCounter};
use crate::pool::{CreditPool, TimedPool};

/// Identifies a node in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u16::try_from(v).expect("node index fits in u16"))
    }
}

impl From<i32> for NodeId {
    fn from(v: i32) -> Self {
        NodeId(u16::try_from(v).expect("node index fits in u16"))
    }
}

/// Sizing information the fabric needs from a message type.
///
/// Control messages report their payload via [`WireMessage::control_bytes`]
/// (a fixed header is added); messages carrying page data additionally
/// report [`WireMessage::page_bytes`], which selects the RDMA path.
pub trait WireMessage: Send + 'static {
    /// Bytes of control payload (excluding the fixed header).
    fn control_bytes(&self) -> usize;

    /// Bytes of bulk page payload carried (0 for pure control messages).
    fn page_bytes(&self) -> usize {
        0
    }
}

/// Fixed per-message header bytes (message kind, pid, addresses).
pub const HEADER_BYTES: usize = 48;

/// Span context riding a message envelope, out of band.
///
/// `0` means "no span". In a real system the span id would piggyback in
/// reserved header bits; here it travels next to the envelope and is
/// deliberately excluded from [`WireMessage::control_bytes`], so
/// enabling tracing never changes wire sizes, serialization times, or
/// the schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SpanContext(pub u64);

impl SpanContext {
    /// The absent context (id 0).
    pub const NONE: SpanContext = SpanContext(0);

    /// Whether no span is attached.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Whether a span is attached.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// A received message with its sender.
#[derive(Debug)]
pub struct Delivery<M> {
    /// The sending node.
    pub src: NodeId,
    /// The message.
    pub msg: M,
    /// Span context the sender attached ([`SpanContext::NONE`] when the
    /// sender was not tracing).
    pub span: SpanContext,
}

struct Envelope<M> {
    src: NodeId,
    msg: M,
    span: SpanContext,
    deliver_at: SimTime,
    /// Receiver-side drain copy (sink strategy / verb-only pages).
    recv_copy_bytes: usize,
    /// Receive work request to recycle after processing.
    recv_credit: CreditPool,
    /// Sink chunk to recycle after the drain copy (sink strategy only).
    sink_credit: Option<CreditPool>,
}

struct Link {
    wire: Resource,
    send_pool: TimedPool,
    recv_pool: CreditPool,
    sink: CreditPool,
    /// Latest delivery time handed out on this link; RC ordering is
    /// enforced by clamping each new delivery time to be no earlier.
    last_deliver: Mutex<SimTime>,
}

impl Link {
    fn new(config: &NetConfig) -> Self {
        Link {
            wire: Resource::with_rate_bytes_per_sec(config.bandwidth_bytes_per_sec),
            send_pool: TimedPool::new(config.send_pool_chunks),
            recv_pool: CreditPool::new(config.recv_pool_chunks),
            sink: CreditPool::new(config.rdma_sink_chunks),
            last_deliver: Mutex::new(SimTime::ZERO),
        }
    }
}

/// Heap entry ordering the per-node inbox by `(arrival time, enqueue
/// order)`. Per-link FIFO follows from the per-link monotonic clamp on
/// `deliver_at` plus the strictly increasing `seq` tie-break.
struct QueuedEnvelope<M> {
    deliver_at: SimTime,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for QueuedEnvelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl<M> Eq for QueuedEnvelope<M> {}

impl<M> PartialOrd for QueuedEnvelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for QueuedEnvelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// A node's inbox: an arrival-time-ordered priority queue across links.
///
/// The previous implementation was a single FIFO in *send-call* order,
/// which head-of-line blocked every link behind the slowest one: `recv`
/// slept until the head envelope's `deliver_at` even when a later-queued
/// envelope from a faster link had already arrived.
struct Inbox<M> {
    inner: Mutex<InboxInner<M>>,
}

struct InboxInner<M> {
    heap: BinaryHeap<Reverse<QueuedEnvelope<M>>>,
    next_seq: u64,
    /// Receivers parked waiting for the inbox state to change; every push
    /// wakes them so they re-evaluate which envelope arrives first.
    waiters: Vec<ThreadId>,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox {
            inner: Mutex::new(InboxInner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                waiters: Vec::new(),
            }),
        }
    }

    fn push(&self, ctx: &SimCtx, env: Envelope<M>) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.heap.push(Reverse(QueuedEnvelope {
            deliver_at: env.deliver_at,
            seq,
            env,
        }));
        // `unpark` only queues an event: nothing runs, and so nothing can
        // want this lock, before it is released. Draining in place keeps
        // the buffer for the receivers' next wait.
        for tid in inner.waiters.drain(..) {
            ctx.unpark(tid);
        }
    }
}

/// The cluster-wide fabric: per-pair RC connections plus per-node inboxes.
///
/// Handlers on each node receive messages through an [`Endpoint`]; any
/// simulated thread can send through one. The fabric is cheap to share
/// (`Arc` internally).
///
/// # Examples
///
/// ```
/// use dex_net::{Fabric, NetConfig, NodeId, WireMessage};
/// use dex_sim::Engine;
///
/// struct Ping(u32);
/// impl WireMessage for Ping {
///     fn control_bytes(&self) -> usize { 4 }
/// }
///
/// let engine = Engine::new();
/// let fabric = Fabric::<Ping>::new(NetConfig::default(), 2);
/// let a = fabric.endpoint(NodeId(0));
/// let b = fabric.endpoint(NodeId(1));
/// engine.spawn("sender", move |ctx| {
///     a.send(ctx, NodeId(1), Ping(7));
/// });
/// engine.spawn("receiver", move |ctx| {
///     let d = b.recv(ctx).expect("fabric open");
///     assert_eq!(d.src, NodeId(0));
///     assert_eq!(d.msg.0, 7);
///     assert!(ctx.now().as_nanos() >= 1_500, "propagation delay applies");
/// });
/// engine.run().unwrap();
/// ```
pub struct Fabric<M> {
    config: NetConfig,
    nodes: usize,
    /// One RC connection per *distinct* ordered pair; the diagonal holds
    /// `None` (loopback never touches the fabric, so self-links get no
    /// pools — the setup counters only account real pairs).
    links: Vec<Option<Link>>,
    inboxes: Vec<Inbox<M>>,
    plan: FaultPlan,
    /// Cached `!plan.is_empty()`: an empty plan disables fault handling
    /// entirely so clean runs stay bit-identical to plan-free runs.
    faults_enabled: bool,
    /// Where the fabric counts its traffic, per node and per link.
    metrics: Arc<MetricsRegistry>,
}

impl<M: WireMessage> Fabric<M> {
    /// Builds the fabric for `nodes` nodes: one RC connection per ordered
    /// pair, with pools sized from `config`, no faults and no histograms.
    ///
    /// # Panics
    ///
    /// As [`Fabric::with_instrumentation`].
    pub fn new(config: NetConfig, nodes: usize) -> Arc<Self> {
        let counters_only = MetricsRegistry::with_histogram_cap(nodes, 0);
        Self::with_instrumentation(config, nodes, FaultPlan::new(), counters_only)
    }

    /// Builds the fabric with a fault-injection plan (see the module docs;
    /// an empty plan disables the layer), counting into `metrics`: its
    /// per-node and per-link traffic counters, and its pool/credit wait
    /// histograms if it keeps them. Metrics recording is pure
    /// bookkeeping: the instrumented schedule is identical to the bare
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero, if the registry's node count differs
    /// from `nodes`, or if a bandwidth or a pool size in `config` is zero.
    pub fn with_instrumentation(
        config: NetConfig,
        nodes: usize,
        plan: FaultPlan,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        assert!(nodes > 0, "fabric needs at least one node");
        assert_eq!(metrics.nodes(), nodes, "registry sized for the fabric");
        // A zero rate would charge every copy `u64::MAX` ns.
        assert!(config.memcpy_bytes_per_sec > 0, "memcpy bandwidth is zero");
        let mut links = Vec::with_capacity(nodes * nodes);
        for src in 0..nodes {
            for dst in 0..nodes {
                links.push((src != dst).then(|| Link::new(&config)));
            }
        }
        // Account one-time setup work: every chunk of every pool is
        // DMA-mapped at boot; every sink chunk is registered as an RDMA MR.
        let peers = nodes as u64 - 1;
        for n in 0..nodes {
            let node = NodeId::from(n);
            let pools = (config.send_pool_chunks + config.recv_pool_chunks) as u64;
            metrics.count(node, NodeCounter::SetupDmaMappings, peers * pools);
            let sinks = config.rdma_sink_chunks as u64;
            metrics.count(node, NodeCounter::SetupMrRegistrations, peers * sinks);
        }
        let faults_enabled = !plan.is_empty();
        Arc::new(Fabric {
            config,
            nodes,
            links,
            inboxes: (0..nodes).map(|_| Inbox::new()).collect(),
            plan,
            faults_enabled,
            metrics,
        })
    }

    /// The fault plan this fabric was built with (empty for [`Fabric::new`]).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The registry the fabric counts into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Whether a non-empty fault plan is active.
    pub fn faults_enabled(&self) -> bool {
        self.faults_enabled
    }

    /// Whether `node` has fail-stopped at or before `at` under the plan.
    /// Always `false` without a plan.
    pub fn node_crashed(&self, node: NodeId, at: SimTime) -> bool {
        self.faults_enabled && self.plan.crashed(node.0, at)
    }

    /// Number of nodes in the fabric.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The cost-model configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// The endpoint of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the fabric.
    pub fn endpoint(self: &Arc<Self>, node: NodeId) -> Endpoint<M> {
        assert!(
            (node.0 as usize) < self.nodes,
            "node {node} outside fabric of {} nodes",
            self.nodes
        );
        Endpoint {
            node,
            fabric: Arc::clone(self),
        }
    }

    fn link(&self, src: NodeId, dst: NodeId) -> &Link {
        self.links[src.0 as usize * self.nodes + dst.0 as usize]
            .as_ref()
            .expect("self-links have no RC connection")
    }
}

impl<M> Fabric<M> {
    /// The fabric's per-node counters (`msgs.sent`, `bytes.sent`,
    /// `pages.sent`, ...); `get` and `totals` sum them over nodes.
    pub fn counters(&self) -> &CounterTable {
        &self.metrics.node
    }
}

impl<M> std::fmt::Debug for Fabric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.nodes)
            .field("counters", &self.counters().totals())
            .finish()
    }
}

/// One node's attachment to the fabric: send to any peer, receive from
/// the node's inbox.
pub struct Endpoint<M> {
    node: NodeId,
    fabric: Arc<Fabric<M>>,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint {
            node: self.node,
            fabric: Arc::clone(&self.fabric),
        }
    }
}

impl<M: WireMessage> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The owning fabric.
    pub fn fabric(&self) -> &Arc<Fabric<M>> {
        &self.fabric
    }

    /// Sends `msg` to `dst`. Control messages go over VERB send/recv using
    /// the connection's send buffer pool; messages carrying page payload
    /// use the configured RDMA strategy. Posting is asynchronous: the
    /// caller pays compose/registration costs and any pool backpressure,
    /// not the full wire time.
    ///
    /// # Panics
    ///
    /// Panics if `dst` equals this endpoint's node (loopback messages
    /// indicate a protocol bug) or lies outside the fabric.
    pub fn send(&self, ctx: &SimCtx, dst: NodeId, msg: M) {
        self.send_traced(ctx, dst, msg, SpanContext::NONE);
    }

    /// Like [`Endpoint::send`], but attaches a span context that rides
    /// the envelope out of band and surfaces at the receiver as
    /// [`Delivery::span`]. Passing [`SpanContext::NONE`] is exactly
    /// `send` — the context influences neither costs nor ordering.
    ///
    /// # Panics
    ///
    /// Same as [`Endpoint::send`].
    pub fn send_traced(&self, ctx: &SimCtx, dst: NodeId, msg: M, span: SpanContext) {
        assert_ne!(self.node, dst, "loopback send on the fabric");
        let fabric = &self.fabric;
        let cfg = &fabric.config;
        let metrics = &*fabric.metrics;
        let sent_at = ctx.now();
        // A crashed endpoint neither sends nor receives: drop before any
        // counter or buffer accounting so dead links stay quiet.
        if fabric.faults_enabled
            && (fabric.plan.crashed(self.node.0, sent_at) || fabric.plan.crashed(dst.0, sent_at))
        {
            metrics.count(self.node, NodeCounter::MsgsDropped, 1);
            return;
        }
        let link = fabric.link(self.node, dst);
        let control = HEADER_BYTES + msg.control_bytes();
        let page = msg.page_bytes();

        let bytes = (control + page) as u64;
        metrics.count(self.node, NodeCounter::MsgsSent, 1);
        metrics.count(self.node, NodeCounter::BytesSent, bytes);
        metrics.count_link(self.node, dst, LinkCounter::Msgs, 1);
        metrics.count_link(self.node, dst, LinkCounter::Bytes, bytes);

        let (wire_bytes, extra_latency, recv_copy_bytes, sink_credit) = if page == 0 {
            // VERB control path: compose into a pre-mapped pool chunk.
            metrics.count_link(self.node, dst, LinkCounter::VerbSends, 1);
            (control, cfg.verb_latency, 0, None)
        } else {
            metrics.count(self.node, NodeCounter::PagesSent, 1);
            metrics.count_link(self.node, dst, LinkCounter::RdmaPages, 1);
            match cfg.rdma_strategy {
                RdmaStrategy::SinkCopy => {
                    // Wait for a sink chunk at the receiver, then RDMA-write
                    // into it; the receiver drains it with one memcpy.
                    self.timed(ctx, "net.sink_credit_wait", || link.sink.acquire(ctx));
                    (
                        control + page,
                        cfg.verb_latency + cfg.rdma_extra_latency,
                        page,
                        Some(link.sink.clone()),
                    )
                }
                RdmaStrategy::PerPageRegistration => {
                    // Register the final destination as an MR every time.
                    metrics.count(self.node, NodeCounter::MrRegistrations, 1);
                    ctx.advance(cfg.mr_register_cost);
                    (
                        control + page,
                        cfg.verb_latency + cfg.rdma_extra_latency,
                        0,
                        None,
                    )
                }
                RdmaStrategy::VerbOnly => {
                    // Page travels like a big control message: copied into
                    // the send pool here, copied out at the receiver.
                    ctx.advance(cfg.memcpy_time(page));
                    (control + page, cfg.verb_latency, page, None)
                }
            }
        };

        let grant = self.timed(ctx, "net.send_pool_wait", || link.send_pool.acquire(ctx));
        ctx.advance(cfg.memcpy_time(control));
        let finish = link.wire.reserve_bytes(ctx.now(), wire_bytes as u64);
        link.send_pool.hold(ctx, grant, finish);
        let mut deliver_at = finish + extra_latency;
        if fabric.faults_enabled {
            deliver_at += fabric.plan.extra_delay(self.node.0, dst.0, sent_at);
        }
        // RC ordering: a message never arrives before an earlier message on
        // the same connection, even when its raw latency is smaller (e.g. a
        // control message composed after an RDMA page).
        {
            let mut last = link.last_deliver.lock();
            deliver_at = deliver_at.max(*last);
            *last = deliver_at;
        }
        self.timed(ctx, "net.recv_credit_wait", || link.recv_pool.acquire(ctx));
        fabric.inboxes[dst.0 as usize].push(
            ctx,
            Envelope {
                src: self.node,
                msg,
                span,
                deliver_at,
                recv_copy_bytes,
                recv_credit: link.recv_pool.clone(),
                sink_credit,
            },
        );
    }

    /// Runs `wait`, recording how long it took into the histogram `name`
    /// if the registry keeps histograms (a sample costs two clock reads).
    fn timed<T>(&self, ctx: &SimCtx, name: &'static str, wait: impl FnOnce() -> T) -> T {
        let metrics = &self.fabric.metrics;
        let t0 = metrics.records_histograms().then(|| ctx.now());
        let out = wait();
        if let Some(t0) = t0 {
            metrics.observe(name, self.node, ctx.now() - t0);
        }
        out
    }

    /// Receives the next message addressed to this node — the one with the
    /// earliest arrival time across all links — advancing virtual time to
    /// that arrival and paying receiver-side costs (sink drain copy).
    /// Returns `None` only when this node has crashed under the fault plan.
    pub fn recv(&self, ctx: &SimCtx) -> Option<Delivery<M>> {
        enum Wait {
            Until(SimTime),
            Forever,
        }
        let inbox = &self.fabric.inboxes[self.node.0 as usize];
        loop {
            if self.fabric.node_crashed(self.node, ctx.now()) {
                return None;
            }
            let wait = {
                let mut inner = inbox.inner.lock();
                let me = ctx.id();
                inner.waiters.retain(|w| *w != me);
                match inner.heap.peek() {
                    Some(Reverse(head)) if head.deliver_at <= ctx.now() => {
                        let Reverse(q) = inner.heap.pop().expect("peeked entry exists");
                        // Delivery choice point: when several envelopes have
                        // already arrived, an exploration policy may deliver
                        // any of them first (real NICs do not order across
                        // connections). Without a policy the head is taken
                        // unconditionally — the hot path is untouched.
                        let q = if ctx.has_schedule_policy() {
                            let now = ctx.now();
                            let mut arrived = vec![q];
                            while inner
                                .heap
                                .peek()
                                .is_some_and(|Reverse(h)| h.deliver_at <= now)
                            {
                                let Reverse(next) = inner.heap.pop().expect("peeked entry exists");
                                arrived.push(next);
                            }
                            let pick = ctx.choose("fabric.recv", arrived.len());
                            let chosen = arrived.swap_remove(pick);
                            for other in arrived {
                                inner.heap.push(Reverse(other));
                            }
                            chosen
                        } else {
                            q
                        };
                        drop(inner);
                        return Some(self.finish_delivery(ctx, q.env));
                    }
                    Some(Reverse(head)) => {
                        let at = head.deliver_at;
                        inner.waiters.push(me);
                        Wait::Until(at)
                    }
                    None => {
                        inner.waiters.push(me);
                        Wait::Forever
                    }
                }
            };
            match wait {
                // Wait for the head to arrive — unless a sender pushes an
                // envelope that arrives earlier and wakes us to re-evaluate.
                Wait::Until(at) => {
                    ctx.park_until(at);
                }
                Wait::Forever => ctx.park(),
            }
        }
    }

    /// Receives without blocking: `None` if no message has *arrived* yet.
    /// An envelope still in flight is left in the inbox untouched (this
    /// used to consume it and jump virtual time to its future arrival).
    pub fn try_recv(&self, ctx: &SimCtx) -> Option<Delivery<M>> {
        if self.fabric.node_crashed(self.node, ctx.now()) {
            return None;
        }
        let inbox = &self.fabric.inboxes[self.node.0 as usize];
        let env = {
            let mut inner = inbox.inner.lock();
            match inner.heap.peek() {
                Some(Reverse(head)) if head.deliver_at <= ctx.now() => {
                    let Reverse(q) = inner.heap.pop().expect("peeked entry exists");
                    q.env
                }
                _ => return None,
            }
        };
        Some(self.finish_delivery(ctx, env))
    }

    /// Receiver-side tail shared by `recv`/`try_recv`: drain copy, credit
    /// recycling, accounting.
    fn finish_delivery(&self, ctx: &SimCtx, env: Envelope<M>) -> Delivery<M> {
        if env.recv_copy_bytes > 0 {
            ctx.advance(self.fabric.config.memcpy_time(env.recv_copy_bytes));
        }
        if let Some(sink) = env.sink_credit {
            sink.release(ctx);
        }
        // Repost the receive work request.
        env.recv_credit.release(ctx);
        self.fabric
            .metrics
            .count(self.node, NodeCounter::MsgsReceived, 1);
        Delivery {
            src: env.src,
            msg: env.msg,
            span: env.span,
        }
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeriesScope;
    use dex_sim::{Engine, SimDuration};
    use parking_lot::Mutex;

    struct TestMsg {
        tag: u64,
        page: usize,
    }

    impl WireMessage for TestMsg {
        fn control_bytes(&self) -> usize {
            16
        }
        fn page_bytes(&self) -> usize {
            self.page
        }
    }

    fn with_plan(nodes: usize, plan: FaultPlan) -> Arc<Fabric<TestMsg>> {
        let counters_only = MetricsRegistry::with_histogram_cap(nodes, 0);
        Fabric::with_instrumentation(NetConfig::default(), nodes, plan, counters_only)
    }

    fn fabric_with(strategy: RdmaStrategy, nodes: usize) -> Arc<Fabric<TestMsg>> {
        let cfg = NetConfig {
            rdma_strategy: strategy,
            ..NetConfig::default()
        };
        Fabric::new(cfg, nodes)
    }

    #[test]
    fn control_message_arrives_after_latency() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            tx.send(ctx, NodeId(1), TestMsg { tag: 1, page: 0 })
        });
        engine.spawn("rx", move |ctx| {
            let d = rx.recv(ctx).unwrap();
            assert_eq!(d.msg.tag, 1);
            // compose copy + wire + the configured verb latency.
            let latency = NetConfig::default().verb_latency.as_nanos();
            assert!(ctx.now().as_nanos() >= latency);
            assert!(ctx.now().as_nanos() < latency + 2_000, "at {}", ctx.now());
        });
        engine.run().unwrap();
    }

    #[test]
    fn messages_between_same_pair_stay_ordered() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            for tag in 0..20 {
                tx.send(ctx, NodeId(1), TestMsg { tag, page: 0 });
            }
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            engine.spawn("rx", move |ctx| {
                for _ in 0..20 {
                    got.lock().push(rx.recv(ctx).unwrap().msg.tag);
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(*got.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn page_transfer_is_slower_than_control() {
        fn one_way(page: usize) -> u64 {
            let engine = Engine::new();
            let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
            let tx = fabric.endpoint(NodeId(0));
            let rx = fabric.endpoint(NodeId(1));
            engine.spawn("tx", move |ctx| {
                tx.send(ctx, NodeId(1), TestMsg { tag: 0, page });
            });
            engine.spawn("rx", move |ctx| {
                rx.recv(ctx).unwrap();
            });
            engine.run().unwrap().as_nanos()
        }
        let control = one_way(0);
        let page = one_way(4096);
        assert!(page > control, "page {page}ns vs control {control}ns");
    }

    #[test]
    fn per_page_registration_charges_sender() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::PerPageRegistration, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            let before = ctx.now();
            tx.send(ctx, NodeId(1), TestMsg { tag: 0, page: 4096 });
            let spent = ctx.now() - before;
            assert!(
                spent >= SimDuration::from_micros(5),
                "registration cost paid at the sender: {spent}"
            );
        });
        engine.spawn_daemon("rx", move |ctx| while rx.recv(ctx).is_some() {});
        engine.run().unwrap();
        assert_eq!(fabric.counters().get("mr.registrations"), 1);
    }

    #[test]
    fn sink_backpressure_blocks_page_floods() {
        let engine = Engine::new();
        let cfg = NetConfig {
            rdma_sink_chunks: 2,
            ..NetConfig::default()
        };
        let fabric = Fabric::<TestMsg>::new(cfg, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        let sent_at = Arc::new(Mutex::new(Vec::new()));
        {
            let sent_at = Arc::clone(&sent_at);
            engine.spawn("tx", move |ctx| {
                for tag in 0..4 {
                    tx.send(ctx, NodeId(1), TestMsg { tag, page: 4096 });
                    sent_at.lock().push(ctx.now().as_nanos());
                }
            });
        }
        engine.spawn("rx", move |ctx| {
            for _ in 0..4 {
                ctx.advance(SimDuration::from_micros(50)); // slow consumer
                rx.recv(ctx).unwrap();
            }
        });
        engine.run().unwrap();
        let at = sent_at.lock().clone();
        assert!(at[1] < 50_000, "two sink credits available: {at:?}");
        assert!(at[2] >= 50_000, "third page waits for a drain: {at:?}");
    }

    #[test]
    fn senders_sharing_one_send_chunk_take_turns() {
        // Regression: the second sender found the only chunk granted and
        // not yet held, and slept until `SimTime::MAX` for it.
        let engine = Engine::new();
        let cfg = NetConfig {
            send_pool_chunks: 1,
            ..NetConfig::default()
        };
        let fabric = Fabric::<TestMsg>::new(cfg, 2);
        for tag in 0..2 {
            let tx = fabric.endpoint(NodeId(0));
            engine.spawn(format!("tx{tag}"), move |ctx| {
                tx.send(ctx, NodeId(1), TestMsg { tag, page: 0 });
            });
        }
        let rx = fabric.endpoint(NodeId(1));
        let got = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&got);
        engine.spawn("rx", move |ctx| {
            for _ in 0..2 {
                seen.lock().push(rx.recv(ctx).unwrap().msg.tag);
            }
        });
        let end = engine.run().unwrap();
        assert_eq!(*got.lock(), vec![0, 1]);
        assert!(end < SimTime::from_nanos(10_000), "ended at {end}");
    }

    #[test]
    fn counters_track_traffic() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 3);
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        let c = fabric.endpoint(NodeId(2));
        engine.spawn("a", move |ctx| {
            a.send(ctx, NodeId(1), TestMsg { tag: 0, page: 0 });
            a.send(ctx, NodeId(2), TestMsg { tag: 1, page: 4096 });
        });
        engine.spawn_daemon("b", move |ctx| while b.recv(ctx).is_some() {});
        engine.spawn_daemon("c", move |ctx| while c.recv(ctx).is_some() {});
        engine.run().unwrap();
        assert_eq!(fabric.counters().get("msgs.sent"), 2);
        assert_eq!(fabric.counters().get("msgs.received"), 2);
        assert_eq!(fabric.counters().get("pages.sent"), 1);
        assert!(fabric.counters().get("bytes.sent") > 4096);
        // Only what was counted has a name: a fabric that carried nothing
        // reports its setup work and no traffic counter.
        let names = |f: &Fabric<TestMsg>| -> Vec<&str> {
            f.counters().totals().into_iter().map(|c| c.0).collect()
        };
        let idle = fabric_with(RdmaStrategy::SinkCopy, 3);
        assert_eq!(
            names(&idle),
            ["setup.dma_mappings", "setup.mr_registrations"]
        );
        let sent = ["bytes.sent", "msgs.received", "msgs.sent", "pages.sent"];
        assert_eq!(names(&fabric)[..4], sent);
    }

    #[test]
    fn link_traffic_matrix_tracks_directed_flows() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 3);
        let a = fabric.endpoint(NodeId(0));
        let b = fabric.endpoint(NodeId(1));
        let c = fabric.endpoint(NodeId(2));
        engine.spawn("a", move |ctx| {
            a.send(ctx, NodeId(1), TestMsg { tag: 0, page: 0 });
            a.send(ctx, NodeId(1), TestMsg { tag: 1, page: 4096 });
            a.send(ctx, NodeId(2), TestMsg { tag: 2, page: 0 });
        });
        engine.spawn_daemon("b", move |ctx| while b.recv(ctx).is_some() {});
        engine.spawn_daemon("c", move |ctx| while c.recv(ctx).is_some() {});
        engine.run().unwrap();
        let link = |s: u16, d: u16, name: &str| {
            let counts = fabric.metrics().counts(SeriesScope::Link(s, d));
            counts.into_iter().find(|c| c.0 == name).map_or(0, |c| c.1)
        };
        assert_eq!(link(0, 1, "msgs"), 2);
        assert!(link(0, 1, "bytes") > 4096, "page payload counted");
        assert_eq!((link(0, 1, "verb.sends"), link(0, 1, "rdma.pages")), (1, 1));
        assert_eq!(link(0, 2, "msgs"), 1);
        let reverse = fabric.metrics().counts(SeriesScope::Link(1, 0));
        assert!(reverse.is_empty(), "links are directed");
        // Per-link traffic sums to the per-node totals.
        let c = fabric.counters();
        assert_eq!(link(0, 1, "msgs") + link(0, 2, "msgs"), c.get("msgs.sent"));
        assert_eq!(
            link(0, 1, "bytes") + link(0, 2, "bytes"),
            c.get("bytes.sent")
        );
    }

    #[test]
    fn fast_link_overtakes_slow_link() {
        // Regression: the inbox used to be a single FIFO in send-call
        // order, so a control message from a fast link sat behind an
        // earlier-sent page still serializing on a slow link.
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 3);
        let slow = fabric.endpoint(NodeId(0));
        let fast = fabric.endpoint(NodeId(1));
        let rx = fabric.endpoint(NodeId(2));
        engine.spawn("slow-sender", move |ctx| {
            // Page: wire time + verb + rdma latency, arrives ~5.6µs.
            slow.send(ctx, NodeId(2), TestMsg { tag: 0, page: 4096 });
        });
        engine.spawn("fast-sender", move |ctx| {
            ctx.advance(SimDuration::from_nanos(500));
            // Control sent *later* but arriving earlier (~3.5µs).
            fast.send(ctx, NodeId(2), TestMsg { tag: 1, page: 0 });
        });
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let got = Arc::clone(&got);
            engine.spawn("rx", move |ctx| {
                let first = rx.recv(ctx).unwrap();
                assert!(
                    ctx.now().as_nanos() < 5_000,
                    "first delivery must not wait for the slow page: {}",
                    ctx.now()
                );
                got.lock().push((first.src, first.msg.tag));
                let second = rx.recv(ctx).unwrap();
                got.lock().push((second.src, second.msg.tag));
            });
        }
        engine.run().unwrap();
        assert_eq!(*got.lock(), vec![(NodeId(1), 1), (NodeId(0), 0)]);
    }

    #[test]
    fn try_recv_does_not_consume_in_flight_envelopes() {
        // Regression: try_recv used to claim the head envelope and jump
        // virtual time forward to its future deliver_at.
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            tx.send(ctx, NodeId(1), TestMsg { tag: 7, page: 0 });
        });
        engine.spawn("rx", move |ctx| {
            assert!(rx.try_recv(ctx).is_none(), "nothing sent yet");
            ctx.advance(SimDuration::from_micros(1));
            // The envelope is queued but still in flight (arrives ~3µs).
            assert!(rx.try_recv(ctx).is_none(), "message has not arrived");
            assert_eq!(ctx.now().as_nanos(), 1_000, "no time travel");
            ctx.advance(SimDuration::from_micros(9));
            let d = rx.try_recv(ctx).expect("arrived by now");
            assert_eq!(d.msg.tag, 7);
            assert_eq!(ctx.now().as_nanos(), 10_000, "no sleep on arrival");
        });
        engine.run().unwrap();
    }

    #[test]
    fn setup_counters_match_allocated_chunks() {
        // Regression: pools used to be allocated for all nodes×nodes links
        // including self-links, while the setup counters only accounted
        // nodes×(nodes−1) ordered pairs.
        for nodes in [1usize, 2, 3, 5] {
            let fabric = fabric_with(RdmaStrategy::SinkCopy, nodes);
            // What was allocated: the pools of every real link.
            let links = fabric.links.iter().flatten().count() as u64;
            let cfg = &fabric.config;
            let dma = links * (cfg.send_pool_chunks + cfg.recv_pool_chunks) as u64;
            let mr = links * cfg.rdma_sink_chunks as u64;
            assert_eq!(
                fabric.counters().get("setup.dma_mappings"),
                dma,
                "{nodes} nodes: DMA mappings claimed vs allocated"
            );
            assert_eq!(
                fabric.counters().get("setup.mr_registrations"),
                mr,
                "{nodes} nodes: MR registrations claimed vs allocated"
            );
        }
    }

    #[test]
    fn fault_plan_delay_postpones_delivery() {
        let engine = Engine::new();
        let mut plan = FaultPlan::new();
        plan.delay(
            0,
            1,
            SimTime::ZERO,
            SimTime::from_nanos(1_000),
            SimDuration::from_micros(100),
        );
        let fabric = with_plan(2, plan);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            tx.send(ctx, NodeId(1), TestMsg { tag: 0, page: 0 });
        });
        engine.spawn("rx", move |ctx| {
            rx.recv(ctx).unwrap();
            assert!(
                ctx.now().as_nanos() >= 100_000,
                "delay fault applies: {}",
                ctx.now()
            );
        });
        engine.run().unwrap();
    }

    #[test]
    fn messages_to_and_from_crashed_nodes_are_dropped() {
        let engine = Engine::new();
        let mut plan = FaultPlan::new();
        plan.crash(1, SimTime::from_nanos(5_000));
        let fabric = with_plan(3, plan);
        let a = fabric.endpoint(NodeId(0));
        let dead = fabric.endpoint(NodeId(1));
        let dead_rx = fabric.endpoint(NodeId(1));
        {
            let fabric = Arc::clone(&fabric);
            engine.spawn("a", move |ctx| {
                ctx.advance(SimDuration::from_micros(10));
                a.send(ctx, NodeId(1), TestMsg { tag: 0, page: 0 });
                assert_eq!(fabric.counters().get("faults.msgs_dropped"), 1);
                assert_eq!(fabric.counters().get("msgs.sent"), 0);
            });
        }
        engine.spawn("dead-tx", move |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            dead.send(ctx, NodeId(2), TestMsg { tag: 1, page: 0 });
        });
        engine.spawn("dead-rx", move |ctx| {
            ctx.advance(SimDuration::from_micros(10));
            assert!(dead_rx.recv(ctx).is_none(), "crashed node stops receiving");
        });
        engine.run().unwrap();
        assert_eq!(fabric.counters().get("faults.msgs_dropped"), 2);
    }

    #[test]
    fn span_context_rides_the_envelope_out_of_band() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let tx = fabric.endpoint(NodeId(0));
        let rx = fabric.endpoint(NodeId(1));
        engine.spawn("tx", move |ctx| {
            tx.send_traced(ctx, NodeId(1), TestMsg { tag: 1, page: 0 }, SpanContext(42));
            tx.send(ctx, NodeId(1), TestMsg { tag: 2, page: 0 });
        });
        engine.spawn("rx", move |ctx| {
            let first = rx.recv(ctx).unwrap();
            assert_eq!(first.span, SpanContext(42));
            let second = rx.recv(ctx).unwrap();
            assert!(second.span.is_none(), "plain send carries no span");
        });
        engine.run().unwrap();
    }

    #[test]
    fn metrics_registry_observes_per_node_and_per_link_traffic() {
        use crate::metrics::MetricsRegistry;

        fn run(metrics: Arc<MetricsRegistry>) -> u64 {
            let engine = Engine::new();
            let fabric = Fabric::<TestMsg>::with_instrumentation(
                NetConfig::default(),
                3,
                FaultPlan::new(),
                metrics,
            );
            let a = fabric.endpoint(NodeId(0));
            let b = fabric.endpoint(NodeId(1));
            let c = fabric.endpoint(NodeId(2));
            engine.spawn("a", move |ctx| {
                a.send(ctx, NodeId(1), TestMsg { tag: 0, page: 0 });
                a.send(ctx, NodeId(2), TestMsg { tag: 1, page: 4096 });
            });
            engine.spawn_daemon("b", move |ctx| while b.recv(ctx).is_some() {});
            engine.spawn_daemon("c", move |ctx| while c.recv(ctx).is_some() {});
            engine.run().unwrap().as_nanos()
        }

        let registry = MetricsRegistry::new(3);
        let instrumented = run(Arc::clone(&registry));
        let bare = run(MetricsRegistry::with_histogram_cap(3, 0));
        assert_eq!(instrumented, bare, "metrics must not perturb the schedule");

        let snap = registry.snapshot();
        assert_eq!(snap.per_node[0][0], ("bytes.sent".to_string(), 4224));
        assert_eq!(snap.per_node[0][1], ("msgs.sent".to_string(), 2));
        let l02 = snap
            .per_link
            .iter()
            .find(|l| l.src == 0 && l.dst == 2)
            .expect("0->2 saw a page");
        assert!(l02.counters.contains(&("rdma.pages".to_string(), 1)));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "net.send_pool_wait" && h.node == 0 && h.count == 2));
    }

    #[test]
    #[should_panic(expected = "memcpy bandwidth is zero")]
    fn zero_memcpy_bandwidth_is_rejected() {
        // A zero rate used to charge every send `u64::MAX` ns and end the
        // run at the end of time without an error.
        let config = NetConfig {
            memcpy_bytes_per_sec: 0,
            ..NetConfig::default()
        };
        let _ = Fabric::<TestMsg>::new(config, 2);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_send_is_rejected() {
        let engine = Engine::new();
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let a = fabric.endpoint(NodeId(0));
        engine.spawn("a", move |ctx| {
            a.send(ctx, NodeId(0), TestMsg { tag: 0, page: 0 });
        });
        let _ = engine.run();
    }

    #[test]
    #[should_panic(expected = "outside fabric")]
    fn endpoint_outside_fabric_is_rejected() {
        let fabric = fabric_with(RdmaStrategy::SinkCopy, 2);
        let _ = fabric.endpoint(NodeId(9));
    }
}
