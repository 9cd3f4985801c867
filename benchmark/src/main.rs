//! The frozen DEX benchmark: host time and virtual time, end to end and
//! per crate, of six workloads, each run in a fresh child process pinned
//! to one CPU. See `benchmark/README.md` for the catalogue.
//!
//! Invoked through `benchmark/run.sh`, which builds this package first:
//!
//! ```text
//! benchmark/run.sh [--seed N] [--workload W] [--seconds S]   all metrics, human-readable
//! benchmark/run.sh --check-repeat                            run the set twice, compare
//! benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//!                                                            one JSON object on the last line
//! ```

mod catalogue;
mod child;
mod json;
mod parent;
mod probes;
mod spans;
mod stats;
mod sys;
mod values;
mod workloads;

use std::path::PathBuf;

use child::Phase;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    check_repeat: bool,
    print_benchmark_json: bool,
    out: PathBuf,
    child: Option<Phase>,
    cpu: Option<usize>,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--check-repeat] [--out DIR]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: catalogue::RUN_SECONDS,
        trace: None,
        check_repeat: false,
        print_benchmark_json: false,
        out: PathBuf::from("benchmark/out"),
        child: None,
        cpu: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if catalogue::workload(&name).is_none() {
                    let known: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = match value("a number")?.parse() {
                    Ok(s) if (1..=60).contains(&s) => s,
                    _ => return Err("--seconds takes a whole number from 1 to 60".to_string()),
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--child" => {
                let word = value("a phase")?;
                args.child = Some(Phase::parse(&word).ok_or(format!("unknown phase {word:?}"))?);
            }
            "--cpu" => {
                args.cpu = Some(
                    value("a CPU id")?
                        .parse()
                        .map_err(|e| format!("--cpu: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dex-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", catalogue::benchmark_json().render_pretty());
        return;
    }
    if let Some(phase) = args.child {
        let name = args.workload.as_deref().unwrap_or_else(|| {
            eprintln!("dex-benchmark: --child needs --workload");
            std::process::exit(2);
        });
        std::process::exit(child::run(phase, name, args.seed, args.seconds, args.cpu));
    }
    let run = parent::Run {
        seed: args.seed,
        seconds: args.seconds,
        out: args.out,
    };
    let code = match (args.check_repeat, args.trace) {
        (true, _) => run.check_repeat(args.workload.as_deref()),
        (false, Some(trace)) => run.driver(args.workload.as_deref().expect("checked"), trace),
        (false, None) => run.report(args.workload.as_deref()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("dex-benchmark: {e}");
            std::process::exit(1);
        }
    }
}
