//! Deterministic FIFO channels between simulated threads.
//!
//! [`SimChannel`] is the building block for simulated message queues: a
//! bounded or unbounded FIFO whose blocking semantics are expressed in
//! *virtual* time via [`SimCtx::park`]/[`SimCtx::unpark`]. Waiters are
//! woken strictly in arrival order, so runs are reproducible.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{SimCtx, ThreadId};

/// Error returned by [`SimChannel::send`] when the channel was closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError;

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "send on closed channel")
    }
}

impl std::error::Error for SendError {}

struct ChanInner<T> {
    queue: VecDeque<T>,
    capacity: Option<usize>,
    recv_waiters: VecDeque<ThreadId>,
    send_waiters: VecDeque<ThreadId>,
    closed: bool,
}

/// A deterministic multi-producer multi-consumer FIFO between simulated
/// threads.
///
/// Cloning the channel clones a handle to the same queue. Blocking happens
/// in virtual time: a receiver on an empty channel (or a sender on a full
/// bounded channel) parks its simulated thread until a peer wakes it.
///
/// # Examples
///
/// ```
/// use dex_sim::{Engine, SimChannel, SimDuration};
///
/// let engine = Engine::new();
/// let chan: SimChannel<u32> = SimChannel::unbounded();
/// let tx = chan.clone();
/// engine.spawn("producer", move |ctx| {
///     ctx.advance(SimDuration::from_micros(1));
///     tx.send(ctx, 42).unwrap();
/// });
/// engine.spawn("consumer", move |ctx| {
///     let v = chan.recv(ctx).expect("channel open");
///     assert_eq!(v, 42);
/// });
/// engine.run().unwrap();
/// ```
///
/// Like the engine, a channel stays on the OS thread that made it:
///
/// ```compile_fail,E0277
/// let chan: dex_sim::SimChannel<u32> = dex_sim::SimChannel::unbounded();
/// std::thread::spawn(move || chan.len());
/// ```
pub struct SimChannel<T> {
    inner: Rc<RefCell<ChanInner<T>>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for SimChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SimChannel")
            .field("len", &inner.queue.len())
            .field("capacity", &inner.capacity)
            .field("closed", &inner.closed)
            .finish()
    }
}

impl<T> Default for SimChannel<T> {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl<T> SimChannel<T> {
    /// Creates a channel with unlimited buffering.
    pub fn unbounded() -> Self {
        Self::with_capacity(None)
    }

    /// Creates a channel that blocks senders once `capacity` items are
    /// queued — used to model finite send-buffer pools.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (rendezvous channels are not modeled).
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded channel capacity must be non-zero");
        Self::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        SimChannel {
            inner: Rc::new(RefCell::new(ChanInner {
                queue: VecDeque::new(),
                capacity,
                recv_waiters: VecDeque::new(),
                send_waiters: VecDeque::new(),
                closed: false,
            })),
        }
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Returns `true` if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sends `item`, parking in virtual time while a bounded channel is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if the channel has been closed.
    pub fn send(&self, ctx: &SimCtx, item: T) -> Result<(), SendError> {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if inner.closed {
                    return Err(SendError);
                }
                let full = inner
                    .capacity
                    .map(|c| inner.queue.len() >= c)
                    .unwrap_or(false);
                if !full {
                    inner.queue.push_back(item);
                    if let Some(waiter) = inner.recv_waiters.pop_front() {
                        drop(inner);
                        ctx.unpark(waiter);
                    }
                    return Ok(());
                }
                inner.send_waiters.push_back(ctx.id());
            }
            // Re-check once woken; another sender may have taken the slot.
            ctx.park();
        }
    }

    /// Attempts to send without blocking. Returns the item back if the
    /// channel is full or closed.
    pub fn try_send(&self, ctx: &SimCtx, item: T) -> Result<(), T> {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return Err(item);
        }
        let full = inner
            .capacity
            .map(|c| inner.queue.len() >= c)
            .unwrap_or(false);
        if full {
            return Err(item);
        }
        inner.queue.push_back(item);
        if let Some(waiter) = inner.recv_waiters.pop_front() {
            drop(inner);
            ctx.unpark(waiter);
        }
        Ok(())
    }

    /// Receives the next item, parking in virtual time while the channel is
    /// empty. Returns `None` once the channel is closed *and* drained.
    pub fn recv(&self, ctx: &SimCtx) -> Option<T> {
        loop {
            {
                let mut inner = self.inner.borrow_mut();
                if let Some(item) = inner.queue.pop_front() {
                    if let Some(waiter) = inner.send_waiters.pop_front() {
                        drop(inner);
                        ctx.unpark(waiter);
                    }
                    return Some(item);
                }
                if inner.closed {
                    return None;
                }
                inner.recv_waiters.push_back(ctx.id());
            }
            ctx.park();
        }
    }

    /// Attempts to receive without blocking.
    pub fn try_recv(&self, ctx: &SimCtx) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let item = inner.queue.pop_front();
        if item.is_some() {
            if let Some(waiter) = inner.send_waiters.pop_front() {
                drop(inner);
                ctx.unpark(waiter);
            }
        }
        item
    }

    /// Closes the channel: pending items may still be received; subsequent
    /// sends fail; all parked waiters are woken.
    pub fn close(&self, ctx: &SimCtx) {
        let waiters: Vec<ThreadId> = {
            let mut inner = self.inner.borrow_mut();
            inner.closed = true;
            let mut waiters: Vec<ThreadId> = inner.recv_waiters.drain(..).collect();
            waiters.extend(inner.send_waiters.drain(..));
            waiters
        };
        for w in waiters {
            ctx.unpark(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn fifo_order_is_preserved() {
        let engine = Engine::new();
        let chan = SimChannel::unbounded();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let chan = chan.clone();
            engine.spawn("producer", move |ctx| {
                for i in 0..10 {
                    chan.send(ctx, i).unwrap();
                    ctx.advance(SimDuration::from_nanos(5));
                }
            });
        }
        {
            let got = Rc::clone(&got);
            engine.spawn("consumer", move |ctx| {
                for _ in 0..10 {
                    got.borrow_mut().push(chan.recv(ctx).unwrap());
                }
            });
        }
        engine.run().unwrap();
        assert_eq!(*got.borrow_mut(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_channel_applies_backpressure() {
        let engine = Engine::new();
        let chan = SimChannel::bounded(2);
        let produced_at = Rc::new(RefCell::new(Vec::new()));
        {
            let chan = chan.clone();
            let produced_at = Rc::clone(&produced_at);
            engine.spawn("producer", move |ctx| {
                for i in 0..4 {
                    chan.send(ctx, i).unwrap();
                    produced_at.borrow_mut().push(ctx.now().as_nanos());
                }
            });
        }
        {
            let chan = chan.clone();
            engine.spawn("slow-consumer", move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_micros(10));
                    chan.recv(ctx).unwrap();
                }
            });
        }
        engine.run().unwrap();
        let at = produced_at.borrow_mut().clone();
        // First two sends fill the buffer at t=0; the rest wait for drains.
        assert_eq!(at[0], 0);
        assert_eq!(at[1], 0);
        assert!(at[2] >= 10_000, "third send should block: {at:?}");
        assert!(at[3] >= 20_000, "fourth send should block: {at:?}");
    }

    #[test]
    fn recv_blocks_until_item_arrives() {
        let engine = Engine::new();
        let chan: SimChannel<&str> = SimChannel::unbounded();
        let when = Rc::new(RefCell::new(None));
        {
            let chan = chan.clone();
            let when = Rc::clone(&when);
            engine.spawn("consumer", move |ctx| {
                let item = chan.recv(ctx).unwrap();
                assert_eq!(item, "hello");
                *when.borrow_mut() = Some(ctx.now().as_nanos());
            });
        }
        {
            engine.spawn("producer", move |ctx| {
                ctx.advance(SimDuration::from_micros(7));
                chan.send(ctx, "hello").unwrap();
            });
        }
        engine.run().unwrap();
        assert_eq!(when.borrow_mut().unwrap(), 7_000);
    }

    #[test]
    fn close_wakes_blocked_receiver_with_none() {
        let engine = Engine::new();
        let chan: SimChannel<u8> = SimChannel::unbounded();
        let got_none = Rc::new(RefCell::new(false));
        {
            let chan = chan.clone();
            let got_none = Rc::clone(&got_none);
            engine.spawn("consumer", move |ctx| {
                assert!(chan.recv(ctx).is_none());
                *got_none.borrow_mut() = true;
            });
        }
        engine.spawn("closer", move |ctx| {
            ctx.advance(SimDuration::from_micros(1));
            chan.close(ctx);
        });
        engine.run().unwrap();
        assert!(*got_none.borrow_mut());
    }

    #[test]
    fn send_after_close_errors() {
        let engine = Engine::new();
        let chan: SimChannel<u8> = SimChannel::unbounded();
        engine.spawn("t", move |ctx| {
            chan.close(ctx);
            assert_eq!(chan.send(ctx, 1), Err(SendError));
        });
        engine.run().unwrap();
    }

    #[test]
    fn try_ops_do_not_block() {
        let engine = Engine::new();
        let chan: SimChannel<u8> = SimChannel::bounded(1);
        engine.spawn("t", move |ctx| {
            assert!(chan.try_recv(ctx).is_none());
            assert!(chan.try_send(ctx, 1).is_ok());
            assert_eq!(chan.try_send(ctx, 2), Err(2));
            assert_eq!(chan.try_recv(ctx), Some(1));
        });
        engine.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = SimChannel::<u8>::bounded(0);
    }
}
