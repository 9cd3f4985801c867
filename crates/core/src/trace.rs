//! Page-fault trace collection (the in-kernel half of the profiling
//! toolchain, §IV-A).
//!
//! When tracing is enabled, every fault that enters the DEX memory
//! consistency protocol appends one [`FaultEvent`] — the paper's
//! six-tuple: time, node, task, fault kind, faulting code site, faulting
//! address, plus the user tag of the containing VMA. The `dex-prof` crate
//! post-processes these records.

use std::sync::Arc;

use parking_lot::Mutex;

use dex_net::NodeId;
use dex_os::{Tid, VirtAddr};
use dex_sim::SimTime;

/// The kind of protocol event a trace record describes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// A read access entered the protocol.
    Read,
    /// A write access entered the protocol.
    Write,
    /// This node's copy was invalidated by another node's write.
    Invalidate,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Read => write!(f, "read"),
            FaultKind::Write => write!(f, "write"),
            FaultKind::Invalidate => write!(f, "invalidate"),
        }
    }
}

/// One record of the page-fault trace (the paper's six-tuple).
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Virtual time of the fault.
    pub time: SimTime,
    /// Node where the fault occurred.
    pub node: NodeId,
    /// Faulting task (`Tid(u64::MAX)` for protocol handlers applying
    /// remote invalidations).
    pub task: Tid,
    /// Fault kind.
    pub kind: FaultKind,
    /// The faulting code site — the simulation analogue of the faulting
    /// instruction address, set by applications via
    /// [`ThreadCtx::set_site`](crate::ThreadCtx::set_site).
    pub site: &'static str,
    /// The faulting memory address.
    pub addr: VirtAddr,
    /// User tag of the containing VMA (object-level attribution).
    pub tag: Option<String>,
}

/// A shared, append-only buffer of fault events.
///
/// Cloning shares the buffer. Collection is cheap when disabled (one
/// atomic-free boolean check under the same mutex the protocol already
/// holds is avoided entirely — the flag is checked first).
///
/// # Examples
///
/// ```
/// use dex_core::{FaultEvent, FaultKind, TraceBuffer};
/// use dex_net::NodeId;
/// use dex_os::{Tid, VirtAddr};
/// use dex_sim::SimTime;
///
/// let trace = TraceBuffer::enabled();
/// trace.record(FaultEvent {
///     time: SimTime::ZERO,
///     node: NodeId(1),
///     task: Tid(3),
///     kind: FaultKind::Write,
///     site: "kmeans.update_centroids",
///     addr: VirtAddr::new(0x1000_0040),
///     tag: Some("centroids".into()),
/// });
/// assert_eq!(trace.snapshot().len(), 1);
/// ```
#[derive(Clone)]
pub struct TraceBuffer {
    enabled: bool,
    events: Arc<Mutex<Vec<FaultEvent>>>,
}

impl TraceBuffer {
    /// A buffer that records events without bound.
    pub fn enabled() -> Self {
        TraceBuffer {
            enabled: true,
            events: Arc::default(),
        }
    }

    /// A buffer that drops everything (production mode).
    pub fn disabled() -> Self {
        TraceBuffer {
            enabled: false,
            events: Arc::default(),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&self, event: FaultEvent) {
        if self.enabled {
            self.events.lock().push(event);
        }
    }

    /// A copy of all recorded events in record order.
    pub fn snapshot(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("enabled", &self.enabled)
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: FaultKind) -> FaultEvent {
        FaultEvent {
            time: SimTime::ZERO,
            node: NodeId(0),
            task: Tid(0),
            kind,
            site: "test",
            addr: VirtAddr::new(0x1000),
            tag: None,
        }
    }

    #[test]
    fn enabled_buffer_records_in_order() {
        let t = TraceBuffer::enabled();
        t.record(event(FaultKind::Read));
        t.record(event(FaultKind::Write));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, FaultKind::Read);
        assert_eq!(snap[1].kind, FaultKind::Write);
    }

    #[test]
    fn disabled_buffer_drops_events() {
        let t = TraceBuffer::disabled();
        t.record(event(FaultKind::Read));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = TraceBuffer::enabled();
        let t2 = t.clone();
        t2.record(event(FaultKind::Invalidate));
        assert_eq!(t.len(), 1);
    }
}
