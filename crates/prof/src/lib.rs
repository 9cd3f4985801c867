//! # dex-prof — the DEX page-fault profiling toolchain
//!
//! The paper's §IV workflow made applications scale: run under tracing,
//! find the pages and code sites causing cross-node traffic, separate
//! falsely-shared objects onto their own pages, and stage updates to
//! truly-shared objects locally. This crate is the offline half of that
//! toolchain:
//!
//! * [`Profile`] — aggregates the six-tuple fault record (the fault and
//!   invalidation spans of a run) into hot pages, hot code sites,
//!   per-thread patterns, and a fault timeline.
//! * [`Profile::false_sharing_suspects`] — pages carrying multiple objects
//!   with conflicting cross-node access (fix: pad / page-align).
//! * [`Profile::contended_objects`] — single objects under true sharing
//!   (fix: stage updates locally, merge per iteration).
//! * [`render_report`] — the human-readable report.
//! * [`health`] — the health alarms of a telemetry run, judged from its
//!   series and spans after the run.
//!
//! # Examples
//!
//! Profile a run and render the report:
//!
//! ```
//! use dex_core::{Cluster, ClusterConfig};
//! use dex_prof::{render_report, Profile, ReportOptions};
//!
//! let cluster = Cluster::new(ClusterConfig::new(2).with_spans());
//! let report = cluster.run(|p| {
//!     let hot = p.alloc_cell_tagged::<u64>(0, "hot_flag");
//!     p.spawn(move |ctx| {
//!         ctx.set_site("example.loop");
//!         ctx.migrate(1).unwrap();
//!         for _ in 0..10 {
//!             hot.rmw(ctx, |v| v + 1);
//!         }
//!     });
//! });
//! let profile = Profile::from_spans(&report.spans);
//! let text = render_report(&profile, &ReportOptions::default());
//! assert!(text.contains("hot_flag"));
//! ```

#![warn(missing_docs)]

mod analyze;
mod critical_path;
pub mod diff;
mod health;
mod report;
pub mod series_codec;
pub mod span_codec;
mod timeline;
mod top;
pub mod whatif;

pub use analyze::{FalseSharingSuspect, NodeTraffic, PageStat, Profile, SiteStat};
pub use critical_path::{
    migration_phases, protocol_path_breakdown, render_critical_path, PhaseStat,
};
pub use diff::{
    bench_numeric_fields, diff_bench, diff_series, diff_spans, render_diff, sniff_and_decode,
    DiffInput, DiffRow, SpanDiff,
};
pub use health::{health, HealthEvent, HealthEventKind, MonitorConfig};
pub use report::{render_report, ReportOptions};
pub use series_codec::{decode_series, encode_series};
pub use span_codec::{decode_spans, encode_spans};
pub use timeline::{export_chrome_trace, export_chrome_trace_with_series};
pub use top::render_top;
pub use whatif::{decode_whatif, encode_whatif, render_whatif, WhatIfEntry, WhatIfReport};
