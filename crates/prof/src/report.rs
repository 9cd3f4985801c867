//! Human-readable profiling reports.
//!
//! Renders a [`Profile`] the way the paper's offline toolchain presents
//! its analyses: hottest pages with their objects and nodes, hottest code
//! sites, false-sharing suspects with remediation hints, and the fault
//! timeline.

use std::fmt::Write as _;

use dex_sim::SimDuration;

use crate::analyze::Profile;

/// Options controlling report rendering.
#[derive(Clone, Copy, Debug)]
pub struct ReportOptions {
    /// How many hot pages to list.
    pub top_pages: usize,
    /// How many hot sites to list.
    pub top_sites: usize,
    /// Timeline bucket width.
    pub timeline_bucket: SimDuration,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            top_pages: 10,
            top_sites: 10,
            timeline_bucket: SimDuration::from_millis(1),
        }
    }
}

/// Renders `profile` as a text report.
///
/// # Examples
///
/// ```
/// use dex_prof::{render_report, Profile, ReportOptions};
///
/// let profile = Profile::from_spans(&[]);
/// let report = render_report(&profile, &ReportOptions::default());
/// assert!(report.contains("0 protocol events"));
/// ```
pub fn render_report(profile: &Profile, options: &ReportOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== DEX page-fault profile ===");
    let _ = writeln!(out, "{} protocol events analyzed", profile.events());

    let _ = writeln!(out, "\n-- hottest pages --");
    for (vpn, stat) in profile.hot_pages().into_iter().take(options.top_pages) {
        let tags: Vec<&str> = stat.tags.iter().map(String::as_str).collect();
        let _ = writeln!(
            out,
            "{vpn}: {} events ({} r / {} w / {} inv) on {} node(s), objects: [{}]",
            stat.total(),
            stat.reads,
            stat.writes,
            stat.invalidations,
            stat.nodes.len(),
            tags.join(", "),
        );
    }

    let _ = writeln!(out, "\n-- hottest code sites --");
    for (site, stat) in profile.hot_sites().into_iter().take(options.top_sites) {
        let _ = writeln!(
            out,
            "{site}: {} faults ({} r / {} w) across {} page(s)",
            stat.total(),
            stat.reads,
            stat.writes,
            stat.pages.len(),
        );
    }

    let suspects = profile.false_sharing_suspects();
    let _ = writeln!(out, "\n-- false-sharing suspects --");
    if suspects.is_empty() {
        let _ = writeln!(out, "none detected");
    }
    for s in &suspects {
        let _ = writeln!(
            out,
            "{}: {} events, {} write(s), nodes {:?}, co-located objects [{}]\n  hint: pad or posix_memalign the listed objects onto separate pages",
            s.vpn,
            s.events,
            s.writes,
            s.nodes,
            s.tags.join(", "),
        );
    }

    let contended = profile.contended_objects();
    let _ = writeln!(out, "\n-- contended single objects (true sharing) --");
    if contended.is_empty() {
        let _ = writeln!(out, "none detected");
    }
    for (vpn, stat) in contended.into_iter().take(options.top_pages) {
        let tags: Vec<&str> = stat.tags.iter().map(String::as_str).collect();
        let _ = writeln!(
            out,
            "{vpn}: {} events from {} node(s) on [{}]\n  hint: stage updates thread-locally and merge once per iteration",
            stat.total(),
            stat.nodes.len(),
            tags.join(", "),
        );
    }

    let _ = writeln!(out, "\n-- fault rate over time --");
    for (t, count) in profile.timeline(options.timeline_bucket) {
        let _ = writeln!(out, "{t:>12}: {count}");
    }
    out
}
