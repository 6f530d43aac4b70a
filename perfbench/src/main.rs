//! seqdrift's benchmark: one command, two workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fan-drift|nsl-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A run whose outputs fail the correctness gate prints no
//! result, writes no trace and exits with status 1. See `README.md` beside
//! this package for what each workload and metric is for.

mod catalog;
mod drive;
mod fan_drift;
mod host;
mod inputs;
mod json;
mod layers;
mod outcome;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use host::Provenance;
use json::quote;
use outcome::{gate, required, result_line, Outcome};
use trace::{self_times, Tracer};
use workloads::{Kind, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload fan-drift|nsl-serve --seed N --seconds S --trace 0|1\n       perfbench --print-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(catalog::RUN_SECONDS as f64),
        trace,
    })
}

fn provenance_json(p: &Provenance, a: &Args) -> String {
    format!(
        "{{\"nproc\":{},\"pinned_cpu\":{},\"cpu\":{},\"git_rev\":{},\"rustc\":{},\"profile\":{},\"seed\":{},\"trace\":{},\"workload\":{}}}",
        p.nproc,
        p.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        quote(&p.cpu),
        quote(&p.git_rev),
        quote(&p.rustc),
        quote(&p.profile),
        a.seed,
        a.trace,
        a.workload.describe(a.seconds)
    )
}

fn run(a: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    match a.workload.kind {
        Kind::InProcess => fan_drift::run(a.seed, a.seconds, a.trace, tr),
        Kind::Serve(p) => serve::run(a.workload.config, &p, a.seed, a.seconds, a.trace, tr),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--print-benchmark-json" {
        print!("{}", catalog::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut prov = Provenance::collect(Path::new("."));
    // Every thread of the run — the server's too — shares one CPU: see the
    // README on why the host is not given two.
    match host::pin_to_one_cpu() {
        Ok(cpu) => prov.pinned_cpu = Some(cpu),
        Err(e) => {
            eprintln!("pinning to one CPU: {e}");
            return ExitCode::from(1);
        }
    }
    let prov_json = provenance_json(&prov, &args);
    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}",
        args.workload.name,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    println!("provenance {prov_json}");

    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut outcome = match run(&args, &mut tr) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        outcome.set("trace.spans", tr.span_count() as f64);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    if let Err(why) = gate(&outcome, args.trace) {
        for w in why {
            eprintln!("correctness gate: {w}");
        }
        eprintln!("no result recorded");
        return ExitCode::from(1);
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, _) in &outcome.checks {
        if seen.insert(*name) {
            println!("  check passed: {name}");
        }
    }

    if args.trace {
        let path = PathBuf::from(".bench_trace")
            .join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
        if let Err(e) = tr.write(
            &path,
            &format!("{{\"provenance\":{prov_json}}}"),
            &outcome.metrics,
        ) {
            eprintln!("writing trace {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!(
            "  trace: {} spans written to {}",
            tr.spans().len(),
            path.display()
        );
        for (name, t) in self_times(tr.spans()) {
            println!(
                "  self time {name:<24} {:>9} spans {:>12.3} ms total {:>12.3} ms self",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for m in required(args.trace) {
        println!(
            "{:<28} {:>16.4} {}",
            m.name, outcome.metrics[m.name], m.unit
        );
    }
    println!(
        "{:<28} {:>16.4} fraction ({} of {} samples)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
    use crate::inputs::{synth, Config, Schedule, Stream};

    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            catalog::render(),
            "re-render with --print-benchmark-json"
        );
        for (name, _) in WORKLOADS {
            assert!(workloads::find(name).is_some(), "{name}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_different_seed_changes_the_rows_but_not_the_metric_names() {
        for config in [Config::Nsl, Config::Fan] {
            let (a, b) = (synth(config, 1), synth(config, 2));
            let schedule = Schedule::Sudden { onset: 10 };
            let (sa, sb) = (
                Stream::new(&a.pools, schedule, 1, 0),
                Stream::new(&b.pools, schedule, 2, 0),
            );
            assert_ne!(sa.row(0), sb.row(0), "{config:?}");
            assert_ne!(sa.row(20), sb.row(20), "{config:?}");
            assert_eq!(
                sa.row(5),
                Stream::new(&synth(config, 1).pools, schedule, 1, 0).row(5)
            );
        }
        // The metric names come from the catalogue alone: a run's result
        // line lists the same names whatever the seed produced.
        let line = |seed: u64| {
            let mut o = Outcome {
                attempted: seed,
                ..Outcome::default()
            };
            for m in END_TO_END {
                o.set(m.name, seed as f64 * 1.5);
            }
            outcome::tests::metric_names(&result_line(&o, false))
        };
        assert_eq!(line(1), line(2));
    }

    #[test]
    fn arguments_parse_and_refuse_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload nsl-serve --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("nsl-serve", 7, 2.5, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload fan-drift")).is_err());
        assert!(parse_args(&argv("--workload fan-drift --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fan-drift --seed 1 --seconds 0")).is_err());
    }
}
