//! Per-format round-trip properties for the `dex-prof` text codecs: any
//! span forest, telemetry series or what-if report — arbitrary ids, kinds,
//! scopes, counts, extreme integers and exact factor bits — survives an
//! encode/decode round trip unchanged, no input text panics a decoder, and
//! a wrong header is rejected. Hostile free-form strings go through the one
//! shared escaper and are covered for every format at once by `dex-check`'s
//! `hostile_strings` suite.

use dex_core::{Span, SpanId, SpanKind};
use dex_net::{CounterPoint, HistPoint, NodeId, SeriesScope, TimeSeries};
use dex_os::{Tid, VirtAddr};
use dex_prof::{
    decode_series, decode_spans, decode_whatif, encode_series, encode_spans, encode_whatif,
    WhatIfEntry, WhatIfReport,
};
use dex_sim::codec::intern;
use dex_sim::{FaultPlan, ReplayCursor, ScheduleLog, SimDuration, SimTime};
use proptest::prelude::*;

const NAME: &[char] = &['a', 'k', 'z', '_', '.', '0'];

/// A plain identifier-like name of one to eight characters.
fn name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..NAME.len(), 1..9)
        .prop_map(|ix| ix.into_iter().map(|i| NAME[i]).collect())
}

/// `None` one time in four, else a name.
fn maybe_tag() -> impl Strategy<Value = Option<&'static str>> {
    (0u8..4, name()).prop_map(|(n, s)| (n > 0).then(|| intern(&s)))
}

/// A fault record's site and address: empty and `None` one time in two
/// (the spans that record no fault), else a name and any address.
fn fault_record() -> impl Strategy<Value = (&'static str, Option<VirtAddr>)> {
    (any::<bool>(), name(), any::<u64>()).prop_map(|(faulted, site, addr)| {
        if faulted {
            (intern(&site), Some(VirtAddr::new(addr)))
        } else {
            ("", None)
        }
    })
}

fn span_kind() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Fault),
        Just(SpanKind::FaultRetry),
        Just(SpanKind::FollowerWait),
        Just(SpanKind::DirectoryHandling),
        Just(SpanKind::PageFixup),
        Just(SpanKind::Invalidation),
        Just(SpanKind::OwnerForward),
        Just(SpanKind::InvalidateBatch),
        Just(SpanKind::MigrationForward),
        Just(SpanKind::MigrationPhase),
        Just(SpanKind::MigrationBack),
        Just(SpanKind::Delegation),
        Just(SpanKind::DelegationService),
        Just(SpanKind::FutexWait),
        Just(SpanKind::FutexWake),
        Just(SpanKind::VmaSync),
    ]
}

fn arb_span() -> impl Strategy<Value = Span> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            span_kind(),
            any::<u16>(),
            any::<u64>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            name(),
            maybe_tag(),
            fault_record(),
        ),
    )
        .prop_map(
            |((id, parent, kind, node, task), (start, end, label, tag, (site, addr)))| Span {
                id: SpanId(id),
                parent: SpanId(parent),
                kind,
                node: NodeId(node),
                task: Tid(task),
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
                label: intern(&label),
                tag,
                site,
                addr,
            },
        )
}

fn arb_scope() -> impl Strategy<Value = SeriesScope> {
    prop_oneof![
        any::<u16>().prop_map(SeriesScope::Node),
        (any::<u16>(), any::<u16>()).prop_map(|(s, d)| SeriesScope::Link(s, d)),
    ]
}

fn arb_counter_point() -> impl Strategy<Value = CounterPoint> {
    (any::<u64>(), arb_scope(), name(), any::<u64>()).prop_map(|(window, scope, name, delta)| {
        CounterPoint {
            window,
            scope,
            name,
            delta,
        }
    })
}

fn arb_hist_point() -> impl Strategy<Value = HistPoint> {
    (
        (any::<u64>(), any::<u16>(), name(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|((window, node, name, count), (p50, p95, p99))| HistPoint {
            window,
            node,
            name,
            count,
            p50: SimDuration::from_nanos(p50),
            p95: SimDuration::from_nanos(p95),
            p99: SimDuration::from_nanos(p99),
        })
}

fn arb_series() -> impl Strategy<Value = TimeSeries> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(arb_counter_point(), 0..20),
        proptest::collection::vec(arb_hist_point(), 0..20),
    )
        .prop_map(|((window, windows, end), counters, hists)| TimeSeries {
            window: SimDuration::from_nanos(window),
            windows,
            end: SimTime::from_nanos(end),
            counters,
            hists,
        })
}

/// A finite positive factor; `f64::Display` is shortest-round-trip, so
/// any such value must decode back to the identical bits.
fn arb_factor() -> impl Strategy<Value = f64> {
    (1u64..=1_000_000_000, 1u64..=1_000_000_000).prop_map(|(num, den)| num as f64 / den as f64)
}

fn arb_whatif() -> impl Strategy<Value = WhatIfReport> {
    (
        name(),
        any::<u64>(),
        proptest::collection::vec(
            (name(), arb_factor(), any::<u64>()).prop_map(|(component, factor, perturbed_ns)| {
                WhatIfEntry {
                    component,
                    factor,
                    perturbed_ns,
                }
            }),
            0..20,
        ),
    )
        .prop_map(|(workload, baseline_ns, entries)| WhatIfReport {
            workload,
            baseline_ns,
            entries,
        })
}

/// Arbitrary (often invalid-UTF-8) bytes, decoded lossily.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..200)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #[test]
    fn spans_round_trip(spans in proptest::collection::vec(arb_span(), 0..20)) {
        let text = encode_spans(&spans);
        let decoded = decode_spans(&text).unwrap();
        prop_assert_eq!(format!("{decoded:?}"), format!("{spans:?}"));
        prop_assert_eq!(encode_spans(&decoded), text);
    }

    #[test]
    fn series_round_trips(series in arb_series()) {
        let decoded = decode_series(&encode_series(&series)).unwrap();
        prop_assert_eq!(decoded.window, series.window);
        prop_assert_eq!(decoded.windows, series.windows);
        prop_assert_eq!(decoded.end, series.end);
        prop_assert_eq!(&decoded.counters, &series.counters);
        prop_assert_eq!(&decoded.hists, &series.hists);
    }

    #[test]
    fn whatif_round_trips(report in arb_whatif()) {
        let decoded = decode_whatif(&encode_whatif(&report)).unwrap();
        prop_assert_eq!(&decoded.workload, &report.workload);
        prop_assert_eq!(decoded.baseline_ns, report.baseline_ns);
        prop_assert_eq!(decoded.entries.len(), report.entries.len());
        for (a, b) in report.entries.iter().zip(&decoded.entries) {
            prop_assert_eq!(&a.component, &b.component);
            prop_assert_eq!(a.factor.to_bits(), b.factor.to_bits());
            prop_assert_eq!(a.perturbed_ns, b.perturbed_ns);
        }
    }

    #[test]
    fn arbitrary_text_never_panics_the_decoders(text in arb_text()) {
        let _ = decode_spans(&text);
        let _ = decode_series(&text);
        let _ = decode_whatif(&text);
        let _ = ScheduleLog::parse(&text);
        let _ = FaultPlan::parse(&text);
        let _ = dex_sim::codec::parse_json(&text);
    }

    #[test]
    fn version_headers_are_enforced(body in name()) {
        // A file with the wrong (or no) header is rejected, not misparsed.
        let wrong = format!("# dex-spans v3\n{body}");
        prop_assert!(decode_spans(&wrong).is_err());
        let old = format!("# dex-spans v1\n{body}");
        prop_assert!(decode_spans(&old).is_err());
        let wrong_series = format!("# dex-series v2\n{body}");
        prop_assert!(decode_series(&wrong_series).is_err());
        let swapped_series = format!("# dex-spans v2\n{body}");
        prop_assert!(decode_series(&swapped_series).is_err());
        let wrong_whatif = format!("# dex-whatif v2\n{body}");
        prop_assert!(decode_whatif(&wrong_whatif).is_err());
        let headerless = format!("{body}\n");
        prop_assert!(decode_spans(&headerless).is_err());
        let plan = format!("crash 1 {}\n", body.len());
        prop_assert!(FaultPlan::parse(&plan).is_err());
    }
}

/// The empty recorded schedule (the trace a replay follows) and the empty
/// span forest both survive a round trip.
#[test]
fn empty_trace_and_empty_forest_round_trip() {
    let log = ScheduleLog::parse(&ScheduleLog::new("seed=0").to_text()).unwrap();
    assert!(log.is_empty());
    assert_eq!(ReplayCursor::new(log).header(), "seed=0");
    assert!(decode_spans(&encode_spans(&[])).unwrap().is_empty());
}
