//! # dex-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the DEX reproduction: a discrete-event
//! simulator whose "threads" are stackful contexts that one OS thread
//! switches between in user space, one running at a time, giving
//! bit-for-bit reproducible runs in *virtual* time.
//!
//! The pieces:
//!
//! * [`Engine`] / [`SimCtx`] — the event queue and the per-thread handle
//!   (spawn, advance virtual time, park/unpark).
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`SimChannel`] — deterministic FIFO channels with virtual-time
//!   blocking and optional backpressure.
//! * [`Resource`] / [`MultiResource`] — FIFO queueing models for links,
//!   memory bandwidth, and CPU cores.
//! * [`SimRng`] — a self-contained deterministic PRNG for workloads.
//! * [`FaultPlan`] — seeded, replayable schedules of link faults and
//!   node crashes for fault-injection runs.
//! * [`SchedulePolicy`] — pluggable resolution of same-instant scheduling
//!   ties and value choices, the hook systematic concurrency testing
//!   (`dex-check explore`) drives alternative interleavings through.
//! * [`Histogram`] — measurement collection.
//! * [`codec`] — the one escaper, line reader and JSON reader every
//!   recorded text artifact goes through.
//!
//! # Examples
//!
//! A two-thread producer/consumer in virtual time:
//!
//! ```
//! use dex_sim::{Engine, SimChannel, SimDuration};
//!
//! let engine = Engine::new();
//! let chan = SimChannel::unbounded();
//! let tx = chan.clone();
//! engine.spawn("producer", move |ctx| {
//!     for i in 0..3 {
//!         ctx.advance(SimDuration::from_micros(10));
//!         tx.send(ctx, i).unwrap();
//!     }
//! });
//! engine.spawn("consumer", move |ctx| {
//!     for expect in 0..3 {
//!         assert_eq!(chan.recv(ctx), Some(expect));
//!     }
//! });
//! let end = engine.run().expect("no deadlock");
//! assert_eq!(end.as_nanos(), 30_000);
//! ```

#![warn(missing_docs)]

mod channel;
pub mod codec;
mod context;
mod engine;
mod fault;
mod replay;
mod resource;
mod rng;
mod stats;
mod time;

pub use channel::{SendError, SimChannel};
pub use engine::{
    DefaultSchedulePolicy, Engine, ScheduleChoice, SchedulePolicy, SchedulePolicyHandle,
    ShutdownToken, SimCtx, SimError, ThreadId,
};
pub use fault::{FaultPlan, LinkFault, LinkFaultKind, NodeCrash};
pub use replay::{ReplayCursor, ScheduleLog, ScheduleStep};
pub use resource::{MultiResource, Resource};
pub use rng::SimRng;
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
