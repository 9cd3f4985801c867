//! # dex-net — simulated InfiniBand messaging layer
//!
//! DEX exchanges protocol messages and page data over a custom messaging
//! system built on InfiniBand VERB and RDMA (§III-E of the paper). This
//! crate reproduces that layer structurally against the `dex-sim`
//! discrete-event kernel:
//!
//! * [`Fabric`] / [`Endpoint`] — per-node-pair Reliable Connections with
//!   FIFO links at a configurable bandwidth and latency.
//! * [`TimedPool`] / [`CreditPool`] — the DMA-ready send/receive buffer
//!   pools and RDMA sink chunks that let the per-message path avoid DMA
//!   mapping and memory-region registration.
//! * [`NetConfig`] / [`RdmaStrategy`] — the calibrated cost model, plus
//!   the alternative page-transfer strategies (per-page registration,
//!   VERB-only) used by the ablation benchmarks.
//! * [`MetricsRegistry`] — the run's one counter store (per node, per
//!   link) and its latency histograms.
//!
//! # Examples
//!
//! ```
//! use dex_net::{Fabric, NetConfig, NodeId, WireMessage};
//! use dex_sim::Engine;
//!
//! struct Req { payload: Vec<u8> }
//! impl WireMessage for Req {
//!     fn control_bytes(&self) -> usize { self.payload.len() }
//! }
//!
//! let engine = Engine::new();
//! let fabric = Fabric::<Req>::new(NetConfig::default(), 2);
//! let (tx, rx) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
//! engine.spawn("client", move |ctx| {
//!     tx.send(ctx, NodeId(1), Req { payload: vec![1, 2, 3] });
//! });
//! engine.spawn("server", move |ctx| {
//!     let d = rx.recv(ctx).expect("open");
//!     assert_eq!(d.msg.payload, vec![1, 2, 3]);
//! });
//! engine.run().unwrap();
//! ```

#![warn(missing_docs)]

mod config;
mod fabric;
mod metrics;
mod pool;
mod series;

pub use config::{NetConfig, RdmaStrategy, NET_COMPONENTS};
pub use fabric::{Delivery, Endpoint, Fabric, NodeId, SpanContext, WireMessage, HEADER_BYTES};
pub use metrics::{
    CounterTable, HistogramStats, HistogramSummary, LinkCounter, LinkMetrics, MetricsRegistry,
    MetricsSnapshot, NodeCounter, DEFAULT_HIST_CAP,
};
pub use pool::{ChunkGrant, CreditPool, TimedPool};
pub use series::{CounterPoint, HistPoint, SeriesBuilder, SeriesScope, TimeSeries};
