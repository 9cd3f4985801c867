//! Shared-resource contention models.
//!
//! Two queueing models back the simulator's hardware resources:
//!
//! * [`Resource`] — a single FIFO server with a fixed service rate. Used
//!   for serialized links (a NIC port, a memory channel pair modeled as one
//!   pipe).
//! * [`MultiResource`] — `k` identical FIFO servers. Used for CPU cores on
//!   a node: a compute burst occupies the earliest-free core.
//!
//! Both advance the *calling* simulated thread to the finish time of its
//! request, so contention appears as queueing delay in virtual time. With
//! `k` threads hammering a resource of rate `r`, each observes throughput
//! `r / k` — this is what makes memory-bandwidth-bound applications (the
//! paper's BP) scale super-linearly when spread over more nodes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::engine::SimCtx;
use crate::time::{SimDuration, SimTime};

/// A single-server FIFO resource with a byte-rate service model.
///
/// # Examples
///
/// ```
/// use dex_sim::{Engine, Resource, SimDuration};
///
/// let engine = Engine::new();
/// // 1 GiB/s memory pipe shared by two threads.
/// let mem = Resource::with_rate_bytes_per_sec(1 << 30);
/// for i in 0..2 {
///     let mem = mem.clone();
///     engine.spawn(format!("t{i}"), move |ctx| {
///         mem.acquire_bytes(ctx, 1 << 20); // each moves 1 MiB
///     });
/// }
/// let end = engine.run().unwrap();
/// // Total 2 MiB through a 1 GiB/s pipe: ~2 ms of virtual time.
/// assert!(end.as_secs_f64() > 0.0019 && end.as_secs_f64() < 0.0021);
/// ```
#[derive(Clone)]
pub struct Resource {
    inner: Rc<Cell<SimTime>>,
    nanos_per_byte: f64,
}

impl Resource {
    /// Creates a resource that serves `bytes_per_sec` bytes per virtual
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn with_rate_bytes_per_sec(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "resource rate must be non-zero");
        Resource {
            inner: Rc::new(Cell::new(SimTime::ZERO)),
            nanos_per_byte: 1e9 / bytes_per_sec as f64,
        }
    }

    /// Serves a request of `bytes`, advancing the calling thread to the
    /// finish time. Returns the total time spent (queueing + service).
    pub fn acquire_bytes(&self, ctx: &SimCtx, bytes: u64) -> SimDuration {
        let service = SimDuration::from_nanos((bytes as f64 * self.nanos_per_byte).ceil() as u64);
        self.acquire(ctx, service)
    }

    /// Serves a request with an explicit service time.
    pub fn acquire(&self, ctx: &SimCtx, service: SimDuration) -> SimDuration {
        let now = ctx.now();
        let finish = self.reserve(now, service);
        ctx.sleep_until(finish);
        finish.saturating_since(now)
    }

    /// The earliest instant at which a new request could start service.
    pub fn available_at(&self) -> SimTime {
        self.inner.get()
    }

    /// Reserves service for `bytes` starting no earlier than `now`
    /// *without blocking the caller*, returning the finish time. Models
    /// asynchronous posting (e.g. an RDMA work request): the caller
    /// continues while the resource works.
    pub fn reserve_bytes(&self, now: SimTime, bytes: u64) -> SimTime {
        let service = SimDuration::from_nanos((bytes as f64 * self.nanos_per_byte).ceil() as u64);
        self.reserve(now, service)
    }

    /// Reserves `service` time starting no earlier than `now` without
    /// blocking; returns the finish time.
    pub fn reserve(&self, now: SimTime, service: SimDuration) -> SimTime {
        let finish = self.inner.get().max(now) + service;
        self.inner.set(finish);
        finish
    }
}

impl std::fmt::Debug for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resource")
            .field("available_at", &self.inner.get())
            .field("nanos_per_byte", &self.nanos_per_byte)
            .finish()
    }
}

/// A pool of `k` identical FIFO servers (e.g. the cores of one node).
///
/// # Examples
///
/// ```
/// use dex_sim::{Engine, MultiResource, SimDuration};
///
/// let engine = Engine::new();
/// let cores = MultiResource::new(2); // 2-core node
/// for i in 0..4 {
///     let cores = cores.clone();
///     engine.spawn(format!("t{i}"), move |ctx| {
///         cores.acquire(ctx, SimDuration::from_micros(10));
///     });
/// }
/// // 4 bursts of 10 us on 2 cores: finishes at 20 us.
/// assert_eq!(engine.run().unwrap().as_nanos(), 20_000);
/// ```
#[derive(Clone)]
pub struct MultiResource {
    servers: Rc<RefCell<Vec<SimTime>>>,
}

impl MultiResource {
    /// Creates a pool of `k` servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "resource pool must have at least one server");
        MultiResource {
            servers: Rc::new(RefCell::new(vec![SimTime::ZERO; k])),
        }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.servers.borrow().len()
    }

    /// Occupies the earliest-free server for `service`, advancing the
    /// caller to the finish time. Returns total time spent.
    pub fn acquire(&self, ctx: &SimCtx, service: SimDuration) -> SimDuration {
        let now = ctx.now();
        let finish = {
            let mut servers = self.servers.borrow_mut();
            let earliest = servers
                .iter_mut()
                .min_by_key(|t| **t)
                .expect("non-empty server pool");
            let start = (*earliest).max(now);
            let finish = start + service;
            *earliest = finish;
            finish
        };
        ctx.sleep_until(finish);
        finish.saturating_since(now)
    }
}

impl std::fmt::Debug for MultiResource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiResource")
            .field("servers", &*self.servers.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn uncontended_resource_adds_only_service_time() {
        let engine = Engine::new();
        let r = Resource::with_rate_bytes_per_sec(1_000_000_000); // 1 B/ns
        engine.spawn("t", move |ctx| {
            let spent = r.acquire_bytes(ctx, 4096);
            assert_eq!(spent, SimDuration::from_nanos(4096));
            assert_eq!(ctx.now().as_nanos(), 4096);
        });
        engine.run().unwrap();
    }

    #[test]
    fn contended_resource_serializes_fifo() {
        let engine = Engine::new();
        let r = Resource::with_rate_bytes_per_sec(1_000_000_000);
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let r = r.clone();
            let finishes = Rc::clone(&finishes);
            engine.spawn(format!("t{i}"), move |ctx| {
                r.acquire_bytes(ctx, 1000);
                finishes.borrow_mut().push((i, ctx.now().as_nanos()));
            });
        }
        engine.run().unwrap();
        assert_eq!(
            *finishes.borrow_mut(),
            vec![(0, 1000), (1, 2000), (2, 3000)],
            "requests issued at the same instant serialize in spawn order"
        );
    }

    #[test]
    fn resource_idles_between_bursts() {
        let engine = Engine::new();
        let r = Resource::with_rate_bytes_per_sec(1_000_000_000);
        engine.spawn("t", move |ctx| {
            r.acquire_bytes(ctx, 100);
            ctx.advance(SimDuration::from_nanos(900)); // let it idle
            let spent = r.acquire_bytes(ctx, 100);
            assert_eq!(spent, SimDuration::from_nanos(100), "no residual queue");
        });
        engine.run().unwrap();
    }

    #[test]
    fn multi_resource_runs_k_in_parallel() {
        let engine = Engine::new();
        let cores = MultiResource::new(3);
        for i in 0..3 {
            let cores = cores.clone();
            engine.spawn(format!("t{i}"), move |ctx| {
                cores.acquire(ctx, SimDuration::from_micros(5));
                assert_eq!(ctx.now().as_nanos(), 5_000);
            });
        }
        assert_eq!(engine.run().unwrap().as_nanos(), 5_000);
    }

    #[test]
    fn multi_resource_queues_beyond_k() {
        let engine = Engine::new();
        let cores = MultiResource::new(2);
        let finishes = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let cores = cores.clone();
            let finishes = Rc::clone(&finishes);
            engine.spawn(format!("t{i}"), move |ctx| {
                cores.acquire(ctx, SimDuration::from_micros(10));
                finishes.borrow_mut().push(ctx.now().as_nanos());
            });
        }
        engine.run().unwrap();
        assert_eq!(
            *finishes.borrow_mut(),
            vec![10_000, 10_000, 20_000, 20_000, 30_000]
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_rate_rejected() {
        let _ = Resource::with_rate_bytes_per_sec(0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_servers_rejected() {
        let _ = MultiResource::new(0);
    }
}
