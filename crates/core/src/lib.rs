//! # dex-core — the DEX distributed-execution environment
//!
//! A reproduction of *“DEX: Scaling Applications Beyond Machine
//! Boundaries”* (ICDCS 2020): an operating-system-level mechanism that
//! lets the threads of an ordinary process relocate themselves across a
//! rack-scale cluster while transparently sharing a sequentially
//! consistent, page-granularity view of memory.
//!
//! The pieces, mapping one-to-one onto the paper's design:
//!
//! * **Thread migration** (§III-A) — [`ThreadCtx::migrate`] /
//!   [`ThreadCtx::migrate_back`], with per-process *remote workers* on
//!   first contact and paired *original threads* servicing
//!   [delegated work](ThreadCtx::futex_wait) at the origin.
//! * **Memory consistency protocol** (§III-B) — the origin-side
//!   [`Directory`] implements multiple-reader/single-writer
//!   read-replicate/write-invalidate ownership with retry on conflicting
//!   transactions.
//! * **Concurrent fault handling** (§III-C) — per-node leader–follower
//!   fault coalescing inside the [`ThreadCtx`] fault path.
//! * **On-demand VMA synchronization** (§III-D) — lazy pulls on miss,
//!   eager broadcast of `munmap`/`mprotect` downgrades.
//! * **Messaging** (§III-E) — the `dex-net` simulated InfiniBand layer.
//!
//! Applications use [`Cluster::run`] to stand up a simulated rack, then
//! allocate distributed memory ([`DsmVec`], [`DsmCell`]), create futex-
//! based synchronization ([`DexMutex`], [`DexBarrier`], [`DexCondvar`]),
//! and spawn threads that migrate with one call — the paper's “one line
//! per migration” conversion experience.
//!
//! # Examples
//!
//! ```
//! use dex_core::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::new(2));
//! let report = cluster.run(|proc_| {
//!     let data = proc_.alloc_vec::<u64>(1_000, "data");
//!     let done = proc_.alloc_cell_tagged::<u32>(0, "done_flag");
//!     proc_.spawn(move |ctx| {
//!         ctx.migrate(1).expect("node exists");     // forward migration
//!         for i in 0..data.len() {
//!             data.set(ctx, i, i as u64 * 2);       // remote writes
//!         }
//!         done.set(ctx, 1);
//!         ctx.migrate_back().expect("return home"); // backward migration
//!     });
//! });
//! assert_eq!(report.stats.forward_migrations, 1);
//! assert_eq!(report.stats.backward_migrations, 1);
//! assert!(report.stats.write_faults > 0);
//! ```

#![warn(missing_docs)]

mod cluster;
mod cost;
mod counters;
mod directory;
mod dispatch;
mod handle;
mod msg;
mod mutation;
mod process;
pub mod protocol;
mod race;
mod span;
mod sync;
mod telemetry;
mod thread;

pub use cluster::{Cluster, ClusterConfig, ClusterHandle, DexProcess, DexStats, RunReport};
pub use cost::{CostModel, COST_COMPONENTS};
pub use counters::Counter;
pub use directory::model;
pub use directory::{DirAction, DirStats, Directory, NodeSet, Requester};
pub use handle::{DsmCell, DsmMatrix, DsmScalar, DsmVec, ProcessRef, MAX_SCALAR_BYTES};
pub use msg::{DelegatedOp, DexMsg, MigrationPhases, Reply, VmaOp};
pub use mutation::{ProtocolMutation, ALL_MUTATIONS};
pub use process::{MigrationSample, ObjectSpan, ProcessShared};
pub use race::{RaceEvent, RaceEventKind, RaceTrace};
pub use span::{Span, SpanBuffer, SpanId, SpanKind};
pub use sync::{DexBarrier, DexCondvar, DexMutex, DexRwLock};
pub use telemetry::{HealthEvent, HealthEventKind, MonitorConfig, TelemetryConfig};
pub use thread::{DexThread, MigrateError, ThreadCtx, FUTEX_EAGAIN};

// Re-export the identifiers applications touch constantly.
pub use dex_net::{CounterTable, NodeId};
pub use dex_os::{Access, Pid, Prot, Tid, VirtAddr, Vpn, PAGE_SIZE};
