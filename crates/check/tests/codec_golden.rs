//! Golden texts, one per artifact format, written exactly as the current
//! encoders write them (v2 for spans, v1 for the rest). Each must decode to the expected value and
//! re-encode byte for byte, so a codec change cannot silently alter what
//! is on disk. Variants that older or hand-edited files carry (CRLF line
//! endings, a `# dropped N` line, an empty schedule label written as an
//! empty field) must decode to the same value.

use dex_bench::BenchResult;
use dex_prof::{
    decode_series, decode_spans, decode_whatif, encode_series, encode_spans, encode_whatif,
};
use dex_sim::{FaultPlan, LinkFaultKind, ScheduleLog, SimDuration};

fn crlf(text: &str) -> String {
    text.replace('\n', "\r\n")
}

const SPANS: &str = "# dex-spans v2\n\
    2\t1\tdirectory_handling\t0\t18446744073709551615\t1000\t3000\tpage_request_write\t-\t\\e\t-\n\
    3\t1\towner_forward\t2\t18446744073709551615\t5000\t7500\t\\e\t\\-\t\\e\t-\n\
    1\t0\tfault\t1\t3\t0\t158800\twrite\\tfault\tcentroids\\\\x\tkmeans\\tupdate\t268435520\n";

/// The same rows in v1, before spans carried the fault record's site and
/// address columns.
const SPANS_V1: &str = "# dex-spans v1\n\
    2\t1\tdirectory_handling\t0\t18446744073709551615\t1000\t3000\tpage_request_write\t-\n\
    3\t1\towner_forward\t2\t18446744073709551615\t5000\t7500\t\\e\t\\-\n\
    1\t0\tfault\t1\t3\t0\t158800\twrite\\tfault\tcentroids\\\\x\n";

#[test]
fn spans_v2() {
    let spans = decode_spans(SPANS).unwrap();
    let got: Vec<_> = spans
        .iter()
        .map(|s| {
            let (start, end) = (s.start.as_nanos(), s.end.as_nanos());
            let (kind, label, tag) = (s.kind.as_str(), s.label, s.tag);
            let addr = s.addr.map(|a| a.as_u64());
            (
                s.id.0, s.parent.0, kind, s.node.0, s.task.0, start, end, label, tag, s.site, addr,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            (
                2,
                1,
                "directory_handling",
                0,
                u64::MAX,
                1000,
                3000,
                "page_request_write",
                None,
                "",
                None
            ),
            (
                3,
                1,
                "owner_forward",
                2,
                u64::MAX,
                5000,
                7500,
                "",
                Some("-"),
                "",
                None
            ),
            (
                1,
                0,
                "fault",
                1,
                3,
                0,
                158800,
                "write\tfault",
                Some("centroids\\x"),
                "kmeans\tupdate",
                Some(0x1000_0040)
            ),
        ]
    );
    assert_eq!(encode_spans(&spans), SPANS);
    let dropped = SPANS.replacen('\n', "\n# dropped 3\n", 1);
    for variant in [crlf(SPANS), dropped.clone(), crlf(&dropped)] {
        assert_eq!(encode_spans(&decode_spans(&variant).unwrap()), SPANS);
    }
    // A v1 file is refused by its header, not misread as v2 rows.
    let err = decode_spans(SPANS_V1).unwrap_err();
    assert!(err.contains("dex-spans v2"), "{err}");
    let relabelled = SPANS_V1.replacen("v1", "v2", 1);
    assert!(
        decode_spans(&relabelled).is_err(),
        "v1 rows lack two columns"
    );
}

const SERIES: &str = "# dex-series v1\n\
    # window 50000\n\
    # windows 3\n\
    # end 123456\n\
    c\t0\tnode1\tfaults.write\t4\n\
    c\t2\tlink0>1\t\\e\t8192\n\
    h\t1\t0\tnet.send_pool_wait\t12\t900\t2400\t2500\n";

#[test]
fn series_v1() {
    let series = decode_series(SERIES).unwrap();
    assert_eq!(
        (
            series.window.as_nanos(),
            series.windows,
            series.end.as_nanos()
        ),
        (50_000, 3, 123_456)
    );
    let counters: Vec<_> = series
        .counters
        .iter()
        .map(|p| (p.window, p.scope.to_string(), p.name.as_str(), p.delta))
        .collect();
    assert_eq!(
        counters,
        [
            (0, "node1".to_string(), "faults.write", 4),
            (2, "link0>1".to_string(), "", 8192),
        ]
    );
    let h = &series.hists[0];
    assert_eq!(
        (h.window, h.node, h.name.as_str(), h.count),
        (1, 0, "net.send_pool_wait", 12)
    );
    assert_eq!(
        (h.p50.as_nanos(), h.p95.as_nanos(), h.p99.as_nanos()),
        (900, 2400, 2500)
    );
    assert_eq!(encode_series(&series), SERIES);
    assert_eq!(
        encode_series(&decode_series(&crlf(SERIES)).unwrap()),
        SERIES
    );
}

const WHATIF: &str = "# dex-whatif v1\n\
    # workload shard\n\
    # baseline 4253411\n\
    retry_backoff\t0.5\t4253411\n\
    # hash\t2\t4400000\n\
    \\-\t0.25\t4148873\n";

#[test]
fn whatif_v1() {
    let report = decode_whatif(WHATIF).unwrap();
    assert_eq!(
        (report.workload.as_str(), report.baseline_ns),
        ("shard", 4_253_411)
    );
    let entries: Vec<_> = report
        .entries
        .iter()
        .map(|e| (e.component.as_str(), e.factor, e.perturbed_ns))
        .collect();
    assert_eq!(
        entries,
        [
            ("retry_backoff", 0.5, 4_253_411),
            ("# hash", 2.0, 4_400_000),
            ("-", 0.25, 4_148_873),
        ]
    );
    assert_eq!(encode_whatif(&report), WHATIF);
    assert_eq!(decode_whatif(&crlf(WHATIF)).unwrap(), report);
}

const SCHEDULE: &str = "# dex-explore scenario=invalidate mutation=drop-ack decisions=5\n\
    0\t0\tevent n=4 -> dispatcher-node-0\n\
    1\t7\tlabel with\\ttab and\\nnewline plus back\\\\slash\n\
    2\t3\tt=1500 worker#3 \n";

#[test]
fn schedule_log_v1() {
    let log = ScheduleLog::parse(SCHEDULE).unwrap();
    assert_eq!(
        log.header,
        "dex-explore scenario=invalidate mutation=drop-ack decisions=5"
    );
    let steps: Vec<_> = log
        .steps()
        .iter()
        .map(|s| (s.seq, s.actor, s.label.as_str()))
        .collect();
    assert_eq!(
        steps,
        [
            (0, 0, "event n=4 -> dispatcher-node-0"),
            (1, 7, "label with\ttab and\nnewline plus back\\slash"),
            (2, 3, "t=1500 worker#3 "),
        ]
    );
    assert_eq!(log.to_text(), SCHEDULE);
    assert_eq!(ScheduleLog::parse(&crlf(SCHEDULE)).unwrap(), log);
    // An empty label was written as an empty field.
    let empty = ScheduleLog::parse("# t\n0\t1\t\n").unwrap();
    assert_eq!(empty.steps()[0].label, "");
}

const FAULT_PLAN: &str = "# faultplan seed=42 nodes=3\n\
    delay 0 1 10000 50000 7000\n\
    stall 1 0 20000 90000\n\
    crash 2 400000\n";

#[test]
fn fault_plan_v1() {
    let plan = FaultPlan::parse(FAULT_PLAN).unwrap();
    assert_eq!(plan.header(), "seed=42 nodes=3");
    let links: Vec<_> = plan
        .link_faults()
        .iter()
        .map(|f| (f.src, f.dst, f.from.as_nanos(), f.until.as_nanos(), f.kind))
        .collect();
    let delay = LinkFaultKind::Delay(SimDuration::from_nanos(7_000));
    assert_eq!(
        links,
        [
            (0, 1, 10_000, 50_000, delay),
            (1, 0, 20_000, 90_000, LinkFaultKind::Stall),
        ]
    );
    let crash = plan.crashes()[0];
    assert_eq!((crash.node, crash.at.as_nanos()), (2, 400_000));
    assert_eq!(plan.to_text(), FAULT_PLAN);
    // Hand-edited: CRLF, comments and any whitespace between fields.
    let edited = "# faultplan seed=42 nodes=3\r\n# a comment\r\n  delay\t0 1  10000 50000 7000\r\n\
                  stall 1 0 20000 90000\r\n\r\ncrash 2 400000   \r\n";
    assert_eq!(FaultPlan::parse(edited).unwrap(), plan);
}

const BENCH: &str = "{\n  \"schema\": \"dex-bench v1\",\n  \"name\": \"table2\",\n  \
    \"virtual_time_ns\": 3293020,\n  \"read_faults\": 0,\n  \"write_faults\": 0,\n  \
    \"retried_faults\": 0,\n  \"msgs_sent\": 40,\n  \"bytes_sent\": 6120,\n  \
    \"fault_p50_ns\": 0,\n  \"fault_p99_ns\": 0,\n  \"extra\": {\n    \
    \"backward_migrations\": 10,\n    \"forward_migrations\": 10\n  }\n}\n";

#[test]
fn bench_json_v1() {
    let result = BenchResult::parse_json(BENCH).unwrap();
    assert_eq!(result.name, "table2");
    assert_eq!(
        (result.virtual_time_ns, result.msgs_sent, result.bytes_sent),
        (3_293_020, 40, 6_120)
    );
    let extras: Vec<_> = result.extra.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        extras,
        [("backward_migrations", 10), ("forward_migrations", 10)]
    );
    assert_eq!(result.to_json(), BENCH);
    assert_eq!(BenchResult::parse_json(&crlf(BENCH)).unwrap(), result);
    let bare = BenchResult {
        extra: Default::default(),
        ..result
    };
    let bare_text = bare.to_json();
    assert!(bare_text.ends_with("  \"fault_p99_ns\": 0,\n  \"extra\": {}\n}\n"));
    assert_eq!(BenchResult::parse_json(&bare_text).unwrap(), bare);
}
