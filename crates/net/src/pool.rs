//! DMA-ready buffer pools.
//!
//! DMA-mapping a buffer per message is expensive, so DEX pre-maps pools of
//! physically-contiguous chunks at connection setup and recycles them
//! (§III-E). Two pool flavors model the two recycling disciplines:
//!
//! * [`TimedPool`] — send buffers: a chunk is busy from allocation until
//!   the HCA signals send completion, a time known when the message is
//!   posted. Allocation blocks (in virtual time) while every chunk is
//!   busy.
//! * [`CreditPool`] — receive work requests and RDMA sink chunks: a chunk
//!   is busy until the *consumer* explicitly recycles it (reposts the
//!   receive work request / drains the sink), which is not known in
//!   advance.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use dex_sim::{SimCtx, SimTime, ThreadId};

/// A pool of chunks that become free at known times (send buffer pool).
///
/// # Examples
///
/// ```
/// use dex_net::TimedPool;
/// use dex_sim::{Engine, SimDuration, SimTime};
///
/// let engine = Engine::new();
/// let pool = TimedPool::new(1);
/// engine.spawn("sender", move |ctx| {
///     // First allocation is immediate; the chunk is busy for 10 us.
///     pool.acquire_until(ctx, ctx.now() + SimDuration::from_micros(10));
///     // Second allocation must wait for the chunk to free.
///     pool.acquire_until(ctx, ctx.now() + SimDuration::from_micros(1));
///     assert_eq!(ctx.now().as_nanos(), 10_000);
/// });
/// engine.run().unwrap();
/// ```
#[derive(Clone)]
pub struct TimedPool {
    idle: Rc<RefCell<IdleChunks>>,
    /// One credit per idle chunk: where acquirers wait, in arrival order,
    /// while every chunk is out on a grant.
    ungranted: CreditPool,
}

/// Every chunk not out on a grant, as `(free at, index)`: the earliest free
/// on top, the lowest index first among equals.
type IdleChunks = BinaryHeap<Reverse<(SimTime, usize)>>;

/// A chunk handed out by [`TimedPool::acquire`], pending its release time.
#[derive(Debug)]
#[must_use = "a granted chunk stays busy forever unless hold() sets its release time"]
pub struct ChunkGrant {
    index: usize,
}

impl TimedPool {
    /// Creates a pool of `chunks` chunks, all free.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0, "buffer pool must have at least one chunk");
        let idle = (0..chunks).map(|i| Reverse((SimTime::ZERO, i))).collect();
        TimedPool {
            idle: Rc::new(RefCell::new(idle)),
            ungranted: CreditPool::new(chunks),
        }
    }

    /// Allocates the earliest-free chunk, blocking in virtual time until
    /// one frees; the chunk then stays busy until `busy_until`.
    pub fn acquire_until(&self, ctx: &SimCtx, busy_until: SimTime) {
        let grant = self.acquire(ctx);
        self.hold(ctx, grant, busy_until);
    }

    /// Allocates the earliest-free chunk (blocking in virtual time) and
    /// returns a grant; the chunk is busy until [`TimedPool::hold`] sets
    /// its release time. While every chunk is out on a grant, acquirers
    /// park and are served by the next `hold`s in arrival order.
    pub fn acquire(&self, ctx: &SimCtx) -> ChunkGrant {
        self.ungranted.acquire(ctx);
        let chunk = self
            .idle
            .borrow_mut()
            .pop()
            .expect("a credit per idle chunk");
        let Reverse((free_at, index)) = chunk;
        // An engine event even when the chunk is free already: dropping it
        // would reorder same-instant ties (ROADMAP item 1 (c)).
        ctx.sleep_until(free_at);
        ChunkGrant { index }
    }

    /// Marks the granted chunk free again at `busy_until`, and hands it to
    /// the longest-waiting acquirer, if any.
    pub fn hold(&self, ctx: &SimCtx, grant: ChunkGrant, busy_until: SimTime) {
        self.idle
            .borrow_mut()
            .push(Reverse((busy_until, grant.index)));
        self.ungranted.release(ctx);
    }

    /// Number of chunks free at `now`.
    pub fn free_at(&self, now: SimTime) -> usize {
        let idle = self.idle.borrow();
        idle.iter().filter(|Reverse((at, _))| *at <= now).count()
    }
}

impl std::fmt::Debug for TimedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedPool")
            .field("idle", &self.idle.borrow().len())
            .finish()
    }
}

/// A pool of chunks recycled by explicit release (receive pool, RDMA
/// sink).
///
/// # Examples
///
/// ```
/// use dex_net::CreditPool;
/// use dex_sim::{Engine, SimDuration};
///
/// let engine = Engine::new();
/// let pool = CreditPool::new(2);
/// let consumer_pool = pool.clone();
/// engine.spawn("producer", move |ctx| {
///     pool.acquire(ctx);
///     pool.acquire(ctx);
///     pool.acquire(ctx); // blocks until the consumer releases
///     assert_eq!(ctx.now().as_nanos(), 5_000);
/// });
/// engine.spawn("consumer", move |ctx| {
///     ctx.advance(SimDuration::from_micros(5));
///     consumer_pool.release(ctx);
/// });
/// engine.run().unwrap();
/// ```
#[derive(Clone)]
pub struct CreditPool {
    inner: Rc<RefCell<CreditInner>>,
}

struct CreditInner {
    free: usize,
    capacity: usize,
    waiters: VecDeque<ThreadId>,
    /// Chunks handed directly to a popped waiter by `release` but not yet
    /// picked up. Handed-off chunks never touch `free`, so a newcomer
    /// cannot barge in and steal them before the woken thread runs.
    handoffs: Vec<ThreadId>,
}

impl CreditPool {
    /// Creates a pool with `chunks` free chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0, "credit pool must have at least one chunk");
        CreditPool {
            inner: Rc::new(RefCell::new(CreditInner {
                free: chunks,
                capacity: chunks,
                waiters: VecDeque::new(),
                handoffs: Vec::new(),
            })),
        }
    }

    /// Takes one chunk, parking in virtual time while none are free.
    /// Waiters are served strictly FIFO: `release` hands the chunk directly
    /// to the longest waiter, so later acquirers cannot overtake it.
    pub fn acquire(&self, ctx: &SimCtx) {
        let me = ctx.id();
        let mut queued = false;
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if queued {
                    if let Some(pos) = inner.handoffs.iter().position(|w| *w == me) {
                        inner.handoffs.swap_remove(pos);
                        return;
                    }
                } else {
                    if inner.free > 0 {
                        inner.free -= 1;
                        return;
                    }
                    inner.waiters.push_back(me);
                    queued = true;
                }
            }
            ctx.park();
        }
    }

    /// Takes one chunk without blocking; `false` if none free.
    pub fn try_acquire(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.free > 0 {
            inner.free -= 1;
            true
        } else {
            false
        }
    }

    /// Returns one chunk. If anyone is waiting, the chunk is handed
    /// directly to the longest-waiting acquirer (never through `free`, so
    /// a concurrent newcomer cannot steal it before the waiter runs);
    /// otherwise it goes back to the free count.
    ///
    /// # Panics
    ///
    /// Panics if released more times than acquired.
    pub fn release(&self, ctx: &SimCtx) {
        let waiter = {
            let mut inner = self.inner.borrow_mut();
            assert!(
                inner.free + inner.handoffs.len() < inner.capacity,
                "credit pool released more chunks than it holds"
            );
            match inner.waiters.pop_front() {
                Some(w) => {
                    inner.handoffs.push(w);
                    Some(w)
                }
                None => {
                    inner.free += 1;
                    None
                }
            }
        };
        if let Some(w) = waiter {
            ctx.unpark(w);
        }
    }

    /// Currently-free chunks.
    pub fn free(&self) -> usize {
        self.inner.borrow().free
    }
}

impl std::fmt::Debug for CreditPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CreditPool")
            .field("free", &inner.free)
            .field("capacity", &inner.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_sim::{Engine, SimDuration};

    #[test]
    fn timed_pool_grants_immediately_when_free() {
        let engine = Engine::new();
        let pool = TimedPool::new(4);
        engine.spawn("t", move |ctx| {
            for _ in 0..4 {
                pool.acquire_until(ctx, ctx.now() + SimDuration::from_micros(100));
            }
            assert_eq!(ctx.now(), SimTime::ZERO, "4 chunks, 4 grants, no wait");
        });
        engine.run().unwrap();
    }

    #[test]
    fn timed_pool_blocks_when_exhausted() {
        let engine = Engine::new();
        let pool = TimedPool::new(2);
        engine.spawn("t", move |ctx| {
            pool.acquire_until(ctx, SimTime::from_nanos(5_000));
            pool.acquire_until(ctx, SimTime::from_nanos(9_000));
            pool.acquire_until(ctx, SimTime::from_nanos(20_000));
            assert_eq!(ctx.now().as_nanos(), 5_000, "waits for earliest free");
        });
        engine.run().unwrap();
    }

    #[test]
    fn timed_pool_free_count() {
        let engine = Engine::new();
        let pool = TimedPool::new(3);
        engine.spawn("t", move |ctx| {
            pool.acquire_until(ctx, SimTime::from_nanos(100));
            assert_eq!(pool.free_at(ctx.now()), 2);
            assert_eq!(pool.free_at(SimTime::from_nanos(101)), 3);
        });
        engine.run().unwrap();
    }

    #[test]
    fn timed_pool_acquirers_wait_for_a_hold_in_arrival_order() {
        // Regression: with every chunk granted and none held yet, `acquire`
        // used to pick a granted chunk and sleep until `SimTime::MAX`.
        let engine = Engine::new();
        let pool = TimedPool::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let user = |name: &'static str, arrive_after: [u64; 2]| {
            let (pool, order) = (pool.clone(), Rc::clone(&order));
            engine.spawn(name, move |ctx| {
                for gap in arrive_after {
                    ctx.advance(SimDuration::from_nanos(gap));
                }
                let grant = pool.acquire(ctx);
                order.borrow_mut().push((name, ctx.now().as_nanos()));
                ctx.advance(SimDuration::from_nanos(10));
                pool.hold(ctx, grant, ctx.now() + SimDuration::from_nanos(5));
            });
        };
        user("a", [0, 0]);
        user("b", [0, 0]);
        user("c", [0, 0]);
        // Queued at 5 ns, so it runs at 10 ns after `a`'s `hold` and before
        // the `b` that `hold` woke: the chunk lying there is `b`'s.
        user("barger", [5, 5]);
        assert_eq!(engine.run(), Ok(SimTime::from_nanos(55)));
        let expected = vec![("a", 0), ("b", 15), ("c", 30), ("barger", 45)];
        assert_eq!(*order.borrow_mut(), expected);
    }

    /// The first-minimum scan `TimedPool` used to be, kept as the oracle.
    struct ScanPool(Vec<SimTime>);

    impl ScanPool {
        /// The chunk granted at `now` and the instant it is granted.
        fn acquire(&mut self, now: SimTime) -> (usize, SimTime) {
            let (index, slot) = self
                .0
                .iter_mut()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .expect("pool is non-empty");
            let grant = (*slot).max(now);
            *slot = SimTime::MAX; // in use until hold() is called
            (index, grant)
        }

        fn free_at(&self, now: SimTime) -> usize {
            self.0.iter().filter(|t| **t <= now).count()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One thread drives the heap pool and the scan with the same
        /// acquires, holds and advances: same chunk, same grant instant and
        /// same free count at every step. It never acquires with every
        /// chunk granted, where the scan has the bug fixed above.
        #[test]
        fn timed_pool_grants_what_the_first_minimum_scan_granted(
            chunks in 1usize..6,
            ops in proptest::collection::vec((0u8..3, 0u64..400), 0..80),
        ) {
            let engine = Engine::new();
            engine.spawn("driver", move |ctx| {
                let pool = TimedPool::new(chunks);
                let mut scan = ScanPool(vec![SimTime::ZERO; chunks]);
                let mut granted = Vec::new();
                for (kind, arg) in ops {
                    match kind {
                        0 if granted.len() < chunks => {
                            let expected = scan.acquire(ctx.now());
                            let grant = pool.acquire(ctx);
                            assert_eq!((grant.index, ctx.now()), expected);
                            granted.push(grant);
                        }
                        1 if !granted.is_empty() => {
                            let grant = granted.swap_remove(arg as usize % granted.len());
                            let busy_until = ctx.now() + SimDuration::from_nanos(arg);
                            scan.0[grant.index] = busy_until;
                            pool.hold(ctx, grant, busy_until);
                        }
                        _ => ctx.advance(SimDuration::from_nanos(arg)),
                    }
                    for at in [ctx.now(), ctx.now() + SimDuration::from_nanos(arg)] {
                        assert_eq!(pool.free_at(at), scan.free_at(at), "free at {at}");
                    }
                }
            });
            engine.run().expect("the driver finishes");
        }
    }

    #[test]
    fn credit_pool_blocks_and_wakes_fifo() {
        let engine = Engine::new();
        let pool = CreditPool::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let pool = pool.clone();
            let order = Rc::clone(&order);
            engine.spawn(format!("acquirer-{i}"), move |ctx| {
                pool.acquire(ctx);
                order.borrow_mut().push(i);
                ctx.advance(SimDuration::from_micros(10));
                pool.release(ctx);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.borrow_mut(), vec![0, 1, 2]);
    }

    #[test]
    fn release_hands_credit_to_waiter_before_newcomers() {
        // Regression: `release` used to return the credit to `free` and
        // merely wake the longest waiter, so a newcomer running before the
        // woken thread could steal the credit and re-park it indefinitely.
        let engine = Engine::new();
        let pool = CreditPool::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let pool = pool.clone();
            engine.spawn("holder", move |ctx| {
                pool.acquire(ctx);
                ctx.advance(SimDuration::from_micros(10));
                pool.release(ctx);
            });
        }
        {
            let pool = pool.clone();
            let order = Rc::clone(&order);
            engine.spawn("waiter", move |ctx| {
                pool.acquire(ctx); // parks at t=0 behind the holder
                order.borrow_mut().push("waiter");
                pool.release(ctx);
            });
        }
        {
            let pool = pool.clone();
            let order = Rc::clone(&order);
            engine.spawn("barger", move |ctx| {
                ctx.advance(SimDuration::from_micros(10));
                // Runs after the holder's release but before the woken
                // waiter: the credit is in handoff, not stealable.
                assert!(!pool.try_acquire(), "barger must not steal the handoff");
                pool.acquire(ctx);
                order.borrow_mut().push("barger");
                pool.release(ctx);
            });
        }
        engine.run().unwrap();
        assert_eq!(*order.borrow_mut(), vec!["waiter", "barger"]);
    }

    #[test]
    fn try_acquire_never_blocks() {
        let engine = Engine::new();
        let pool = CreditPool::new(1);
        engine.spawn("t", move |ctx| {
            assert!(pool.try_acquire());
            assert!(!pool.try_acquire());
            pool.release(ctx);
            assert!(pool.try_acquire());
        });
        engine.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "more chunks")]
    fn over_release_panics() {
        let engine = Engine::new();
        let pool = CreditPool::new(1);
        engine.spawn("t", move |ctx| {
            pool.release(ctx);
        });
        let _ = engine.run();
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_chunk_pool_rejected() {
        let _ = TimedPool::new(0);
    }
}
