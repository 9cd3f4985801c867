//! The one hostile-string suite. Every text artifact escapes its free-form
//! strings through `dex_sim::codec`, so one alphabet of hostile characters
//! is run through every format here: span labels, tags and sites, series names,
//! what-if workloads and components, `ScheduleLog` labels and headers,
//! `FaultPlan` headers and `BENCH_*.json` strings. The alphabet holds the
//! structural bytes, the `-` sentinel, the escape letters, `#`, a quote,
//! a control byte, spaces (trailing included) and multi-byte unicode.

use dex_bench::BenchResult;
use dex_core::{Span, SpanId, SpanKind};
use dex_net::{CounterPoint, HistPoint, NodeId, SeriesScope, TimeSeries};
use dex_os::{Tid, VirtAddr};
use dex_prof::{
    bench_numeric_fields, decode_series, decode_spans, decode_whatif, encode_series, encode_spans,
    encode_whatif, WhatIfEntry, WhatIfReport,
};
use dex_sim::codec::{escape_json, intern, meta_text, parse_json, Json};
use dex_sim::{FaultPlan, ScheduleLog, SimDuration, SimTime};
use proptest::prelude::*;

const HOSTILE: &[char] = &[
    'a', 'z', '0', '\t', '\n', '\r', '\\', ' ', '-', '#', 't', 'n', 'e', 'r', '日', '"', '\u{1}',
];

/// Up to twelve hostile characters, or exactly one of the two sentinel
/// lookalikes (`""` and `"-"`), which random strings rarely hit.
fn hostile() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("-".to_string()),
        proptest::collection::vec(0usize..HOSTILE.len(), 0..13)
            .prop_map(|ix| ix.into_iter().map(|i| HOSTILE[i]).collect::<String>()),
        proptest::collection::vec(0usize..HOSTILE.len(), 0..13)
            .prop_map(|ix| ix.into_iter().map(|i| HOSTILE[i]).collect::<String>()),
    ]
}

/// `None` one time in four, else a hostile string.
fn maybe_hostile() -> impl Strategy<Value = Option<String>> {
    (0u8..4, hostile()).prop_map(|(n, s)| (n > 0).then_some(s))
}

/// What a free-form header line keeps: tabs and line breaks become spaces,
/// and surrounding whitespace goes.
fn header_kept(s: &str) -> String {
    meta_text(s).trim().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn span_labels_and_tags_round_trip(label in hostile(), tag in maybe_hostile()) {
        let spans = vec![Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            kind: SpanKind::Fault,
            node: NodeId(1),
            task: Tid(3),
            start: SimTime::ZERO,
            end: SimTime::from_nanos(19_300),
            label: intern(&label),
            tag: tag.as_deref().map(intern),
            site: "",
            addr: None,
        }];
        let text = encode_spans(&spans);
        let decoded = decode_spans(&text).unwrap();
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(decoded[0].label, label.as_str());
        prop_assert_eq!(decoded[0].tag, tag.as_deref());
        prop_assert_eq!(encode_spans(&decoded), text);
    }

    #[test]
    fn span_sites_round_trip(site in hostile(), addr in any::<u64>()) {
        let spans = vec![Span {
            id: SpanId(1),
            parent: SpanId::NONE,
            kind: SpanKind::Fault,
            node: NodeId(1),
            task: Tid(3),
            start: SimTime::ZERO,
            end: SimTime::from_nanos(19_300),
            label: "write_fault",
            tag: None,
            site: intern(&site),
            addr: Some(VirtAddr::new(addr)),
        }];
        let text = encode_spans(&spans);
        let decoded = decode_spans(&text).unwrap();
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(decoded[0].site, site.as_str());
        prop_assert_eq!(decoded[0].addr, Some(VirtAddr::new(addr)));
        prop_assert_eq!(encode_spans(&decoded), text);
    }

    #[test]
    fn series_names_round_trip(counter in hostile(), hist in hostile()) {
        let series = TimeSeries {
            window: SimDuration::from_micros(50),
            windows: 2,
            end: SimTime::from_nanos(100_000),
            counters: vec![CounterPoint {
                window: 0,
                scope: SeriesScope::Link(0, 1),
                name: counter,
                delta: 4,
            }],
            hists: vec![HistPoint {
                window: 1,
                node: 0,
                name: hist,
                count: 2,
                p50: SimDuration::from_nanos(900),
                p95: SimDuration::from_nanos(2_400),
                p99: SimDuration::from_nanos(2_500),
            }],
        };
        let decoded = decode_series(&encode_series(&series)).unwrap();
        prop_assert_eq!(&decoded.counters, &series.counters);
        prop_assert_eq!(&decoded.hists, &series.hists);
    }

    #[test]
    fn whatif_workload_and_components_round_trip(
        workload in hostile(),
        component in hostile(),
        hash in any::<bool>(),
    ) {
        // A component may lead with `#`, the meta-line marker.
        let component = if hash { format!("#{component}") } else { component };
        let report = WhatIfReport {
            workload,
            baseline_ns: 1_000,
            entries: vec![WhatIfEntry {
                component,
                factor: 0.5,
                perturbed_ns: 700,
            }],
        };
        prop_assert_eq!(decode_whatif(&encode_whatif(&report)).unwrap(), report);
    }

    #[test]
    fn schedule_log_labels_and_headers_round_trip(
        header in hostile(),
        steps in proptest::collection::vec((any::<u64>(), hostile()), 0..12),
    ) {
        let mut log = ScheduleLog::new(header.clone());
        for (actor, label) in &steps {
            log.push(*actor, label.clone());
        }
        let text = log.to_text();
        let back = ScheduleLog::parse(&text);
        prop_assert!(back.is_ok(), "parse failed: {:?}\n{}", back.err(), text);
        let back = back.unwrap();
        prop_assert_eq!(&back.header, &header_kept(&header));
        prop_assert_eq!(back.steps(), log.steps());
        // Once the header is kept form, the text is a fixed point.
        prop_assert_eq!(ScheduleLog::parse(&back.to_text()).unwrap(), back);
    }

    #[test]
    fn fault_plan_headers_round_trip(header in hostile()) {
        let text = format!("# faultplan {}\ncrash 1 5\n", meta_text(&header));
        let plan = FaultPlan::parse(&text).unwrap();
        let kept = header_kept(&header);
        prop_assert_eq!(plan.header(), kept.as_str());
        prop_assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);
        // A raw header either fails to parse or, once re-encoded, is a
        // fixed point.
        if let Ok(raw) = FaultPlan::parse(&format!("# faultplan {header}\ncrash 1 5\n")) {
            let once = FaultPlan::parse(&raw.to_text()).unwrap();
            prop_assert_eq!(FaultPlan::parse(&once.to_text()).unwrap(), once);
        }
    }

    #[test]
    fn json_strings_round_trip(name in hostile(), key in hostile(), value in any::<u64>()) {
        let mut text = String::from("{");
        escape_json(&mut text, &key);
        text.push(':');
        escape_json(&mut text, &name);
        text.push('}');
        prop_assert_eq!(parse_json(&text).unwrap(), vec![(key.clone(), Json::Str(name.clone()))]);

        // A bench result's name and extras, read back by the perf gate and
        // by `dex-prof diff` under the same field names.
        let result = BenchResult {
            name: if name.is_empty() { "x".to_string() } else { name },
            ..BenchResult::default()
        }
        .with_extra(&key, value);
        let json = result.to_json();
        prop_assert_eq!(BenchResult::parse_json(&json).unwrap(), result.clone());
        prop_assert_eq!(bench_numeric_fields(&json).unwrap(), result.numeric_fields());
    }
}
