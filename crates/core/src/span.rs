//! Causal span tracing across the DEX protocol stack.
//!
//! A [`Span`] is one timed operation — a page fault, a migration phase,
//! a delegation round trip — with a parent link that makes the spans of
//! one run a forest. Causality crosses node boundaries by riding the
//! span id on the message envelope
//! ([`dex_net::SpanContext`](dex_net::SpanContext), out of band, never
//! in `control_bytes`), so a remote fault's timeline stitches the
//! requester-side fault, the origin-side directory handling, and the
//! requester-side fixup into one tree.
//!
//! # Zero cost when disabled
//!
//! Every instrumentation site is one start/finish pair:
//!
//! ```ignore
//! let span = shared.spans.start(ctx.now());         // allocates the id when on
//! /* ... the operation; `span.wire()` may ride outgoing messages ... */
//! shared.spans.finish(span, ctx, || SpanKind::VmaSync.on(node, tid, "vma_pull"));
//! ```
//!
//! While recording is off, [`SpanBuffer::start`] returns an off timer and
//! `finish` evaluates neither the clock nor its closure, so whatever
//! attributes the span (e.g. `tag_for`'s object-table scan) runs only in
//! traced runs. Everything behind a timer is pure bookkeeping — no
//! `advance`, no park, no messages — so a run with spans enabled takes
//! **exactly** the same schedule as a run without (verified by the
//! bit-identity test in `crates/core/tests/observability.rs`). Ids are
//! allocated and spans appended only here: a site cannot record a span
//! behind the timer's back.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::{NodeId, SpanContext};
use dex_os::{Tid, VirtAddr};
use dex_sim::{SimCtx, SimTime};

/// The task id span records use for protocol handlers (no app thread).
pub(crate) const PROTOCOL_TASK: Tid = Tid(u64::MAX);

/// Identifies a span within one run. Ids are allocated sequentially
/// starting at 1; 0 is reserved for "no span" (the wire encoding of an
/// absent [`dex_net::SpanContext`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no span" id.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the reserved "no span" id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl From<SpanContext> for SpanId {
    fn from(wire: SpanContext) -> SpanId {
        SpanId(wire.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "span-{}", self.0)
    }
}

/// What kind of operation a span times.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    /// A whole page fault on the faulting thread (leader side).
    Fault,
    /// One retry back-off inside a fault (conflicting transaction).
    FaultRetry,
    /// A coalesced follower waiting on its leader's fault (§III-C).
    FollowerWait,
    /// Origin-side directory lookup and action application for one
    /// protocol request.
    DirectoryHandling,
    /// Requester-side PTE fixup after a page grant arrives.
    PageFixup,
    /// A sharer handling an invalidation (possibly flushing data).
    Invalidation,
    /// The current owner servicing a grant the sharded home forwarded to
    /// it (two-hop ownership transfer, PR 9).
    OwnerForward,
    /// A destination node handling one batched invalidation fan-out
    /// message (`InvalidateBatch`, possibly flushing several pages).
    InvalidateBatch,
    /// A forward migration, origin side end to end.
    MigrationForward,
    /// One remote-side phase of a migration (worker setup, fork, ...).
    MigrationPhase,
    /// A backward migration, remote side end to end.
    MigrationBack,
    /// A delegation round trip from a remote thread to its origin pair.
    Delegation,
    /// The origin pair thread servicing one delegated operation.
    DelegationService,
    /// A futex sleep (from enter to wake).
    FutexWait,
    /// A futex wake operation.
    FutexWake,
    /// A VMA synchronization (lazy pull or eager broadcast).
    VmaSync,
}

/// Every kind with its stable lowercase name, in declaration order.
const KIND_NAMES: [(SpanKind, &str); 16] = [
    (SpanKind::Fault, "fault"),
    (SpanKind::FaultRetry, "fault_retry"),
    (SpanKind::FollowerWait, "follower_wait"),
    (SpanKind::DirectoryHandling, "directory_handling"),
    (SpanKind::PageFixup, "page_fixup"),
    (SpanKind::Invalidation, "invalidation"),
    (SpanKind::OwnerForward, "owner_forward"),
    (SpanKind::InvalidateBatch, "invalidate_batch"),
    (SpanKind::MigrationForward, "migration_forward"),
    (SpanKind::MigrationPhase, "migration_phase"),
    (SpanKind::MigrationBack, "migration_back"),
    (SpanKind::Delegation, "delegation"),
    (SpanKind::DelegationService, "delegation_service"),
    (SpanKind::FutexWait, "futex_wait"),
    (SpanKind::FutexWake, "futex_wake"),
    (SpanKind::VmaSync, "vma_sync"),
];

impl SpanKind {
    /// Stable lowercase name used by the `# dex-spans v2` codec.
    pub fn as_str(self) -> &'static str {
        KIND_NAMES[self as usize].1
    }

    /// Parses the name produced by [`SpanKind::as_str`].
    pub fn parse(name: &str) -> Option<SpanKind> {
        KIND_NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(kind, _)| kind)
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed, causally linked operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (unique within the run).
    pub id: SpanId,
    /// The causal parent ([`SpanId::NONE`] for roots). The parent may
    /// live on a different node — that is the point.
    pub parent: SpanId,
    /// Operation kind.
    pub kind: SpanKind,
    /// Node the operation ran on.
    pub node: NodeId,
    /// Task that performed it (`Tid(u64::MAX)` for protocol handlers).
    pub task: Tid,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time (spans are recorded at completion, so children
    /// may appear in the buffer before their parents).
    pub end: SimTime,
    /// Fine-grained label (e.g. the migration phase name).
    pub label: &'static str,
    /// Optional free-form attribution (e.g. the faulted object's tag),
    /// interned like `label` and `site`.
    pub tag: Option<&'static str>,
    /// The code site a fault span was raised at (the simulation analogue
    /// of the faulting instruction, set via
    /// [`ThreadCtx::set_site`](crate::ThreadCtx::set_site)), or the
    /// handler name of an invalidation span; empty elsewhere.
    pub site: &'static str,
    /// The faulting address of a fault span, or the revoked page of an
    /// invalidation span; `None` elsewhere. With `node`, `task`, `start`,
    /// `site` and `tag` it makes these spans the paper's six-tuple fault
    /// record (§IV-A).
    pub addr: Option<VirtAddr>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> dex_sim::SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A shared, append-only buffer of completed spans with an id allocator.
///
/// Cloning shares the buffer; the `enabled` flag is checked before any
/// work so a disabled buffer costs one branch.
///
/// # Examples
///
/// ```
/// use dex_core::{Cluster, ClusterConfig, SpanBuffer, SpanKind};
///
/// assert!(!SpanBuffer::disabled().is_enabled());
/// let report = Cluster::new(ClusterConfig::new(2).with_spans()).run(|p| {
///     p.spawn(|ctx| ctx.migrate(1).unwrap());
/// });
/// let forward = report.spans.iter().filter(|s| s.kind == SpanKind::MigrationForward);
/// assert_eq!(forward.count(), 1);
/// ```
#[derive(Clone)]
pub struct SpanBuffer {
    enabled: bool,
    inner: Arc<Mutex<SpanInner>>,
}

#[derive(Default)]
struct SpanInner {
    spans: Vec<Span>,
    /// Next id to hand out (ids start at 1; 0 is "no span").
    next_id: u64,
}

impl SpanBuffer {
    /// A buffer that records spans without bound.
    pub fn enabled() -> Self {
        SpanBuffer {
            enabled: true,
            inner: Arc::new(Mutex::new(SpanInner {
                spans: Vec::new(),
                next_id: 1,
            })),
        }
    }

    /// A buffer that records nothing (production mode).
    pub fn disabled() -> Self {
        SpanBuffer {
            enabled: false,
            inner: Arc::new(Mutex::new(SpanInner::default())),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing a span that began at `start`, allocating its id now;
    /// an off timer while recording is off.
    pub(crate) fn start(&self, start: SimTime) -> SpanTimer {
        SpanTimer(self.enabled.then(|| (self.alloc_id(), start)))
    }

    /// Records `timer`'s span as ending now. The clock and `what` are read
    /// only when the timer is on.
    pub(crate) fn finish(&self, timer: SpanTimer, ctx: &SimCtx, what: impl FnOnce() -> SpanMeta) {
        if let Some((id, start)) = timer.0 {
            let SpanMeta(mut span) = what();
            (span.id, span.start, span.end) = (id, start, ctx.now());
            self.record(span);
        }
    }

    /// Allocates a fresh span id.
    fn alloc_id(&self) -> SpanId {
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        SpanId(id)
    }

    /// Appends a completed span (no-op when disabled).
    fn record(&self, span: Span) {
        if self.enabled {
            self.inner.lock().spans.push(span);
        }
    }

    /// A copy of all recorded spans in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.lock().spans.clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().spans.is_empty()
    }
}

/// A span being timed: its id, allocated when the timer started, and its
/// start. Off (no id, records nothing) while recording is off.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanTimer(Option<(SpanId, SimTime)>);

impl SpanTimer {
    /// A timer that records nothing, for sites that span only some cases.
    pub(crate) const OFF: SpanTimer = SpanTimer(None);

    /// The span's id ([`SpanId::NONE`] when off).
    pub(crate) fn id(self) -> SpanId {
        self.0.map_or(SpanId::NONE, |(id, _)| id)
    }

    /// The id in its wire form, for a message envelope.
    pub(crate) fn wire(self) -> SpanContext {
        self.wire_or(SpanContext::NONE)
    }

    /// The wire form of this span when on, else `incoming` (which is
    /// `SpanContext::NONE` whenever recording is off).
    pub(crate) fn wire_or(self, incoming: SpanContext) -> SpanContext {
        self.0.map_or(incoming, |(id, _)| SpanContext(id.0))
    }
}

/// What a finished span says besides its id and times: built by
/// [`SpanKind::on`], a root with no tag, site or address unless told.
pub(crate) struct SpanMeta(Span);

impl SpanKind {
    /// A span of this kind run by `task` on `node`.
    pub(crate) fn on(self, node: NodeId, task: Tid, label: &'static str) -> SpanMeta {
        SpanMeta(Span {
            id: SpanId::NONE,
            parent: SpanId::NONE,
            kind: self,
            node,
            task,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            label,
            tag: None,
            site: "",
            addr: None,
        })
    }
}

impl SpanMeta {
    /// Parents the span to `parent` (possibly on another node).
    pub(crate) fn under(mut self, parent: impl Into<SpanId>) -> Self {
        self.0.parent = parent.into();
        self
    }

    /// Makes the span a fault record (§IV-A): the object `tag`, the code
    /// `site` and the address `at`.
    pub(crate) fn at(
        mut self,
        tag: Option<&'static str>,
        site: &'static str,
        at: VirtAddr,
    ) -> Self {
        (self.0.tag, self.0.site, self.0.addr) = (tag, site, Some(at));
        self
    }
}

impl std::fmt::Debug for SpanBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanBuffer")
            .field("enabled", &self.enabled)
            .field("spans", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: SpanKind) -> Span {
        Span {
            id: SpanId(id),
            parent: SpanId::NONE,
            kind,
            node: NodeId(0),
            task: Tid(0),
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
            label: "test",
            tag: None,
            site: "",
            addr: None,
        }
    }

    #[test]
    fn ids_start_at_one_and_increment() {
        let b = SpanBuffer::enabled();
        assert_eq!(b.alloc_id(), SpanId(1));
        assert_eq!(b.alloc_id(), SpanId(2));
        assert!(!SpanId(1).is_none());
        assert!(SpanId::NONE.is_none());
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let b = SpanBuffer::disabled();
        assert!(!b.is_enabled());
        b.record(span(1, SpanKind::Fault));
        assert!(b.is_empty());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::Fault,
            SpanKind::FaultRetry,
            SpanKind::FollowerWait,
            SpanKind::DirectoryHandling,
            SpanKind::PageFixup,
            SpanKind::Invalidation,
            SpanKind::OwnerForward,
            SpanKind::InvalidateBatch,
            SpanKind::MigrationForward,
            SpanKind::MigrationPhase,
            SpanKind::MigrationBack,
            SpanKind::Delegation,
            SpanKind::DelegationService,
            SpanKind::FutexWait,
            SpanKind::FutexWake,
            SpanKind::VmaSync,
        ] {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }
}
