//! `exma-benchmark` — the one benchmark every performance claim about
//! this repository is measured with. See `benchmark/README.md`.
//!
//! The driver's form runs one workload in this process and prints every
//! metric by name and unit, then one JSON result object as the last
//! line of standard output:
//!
//! ```text
//! exma-benchmark --workload count_reads --seed 42 --seconds 8 --trace 0
//! ```
//!
//! `--all` runs the four workloads, each in a process of its own, into
//! one run file; `--compare A.json B.json` holds one run file against
//! another under the fixed bounds.

mod embedded;
mod inputs;
mod json;
mod layers;
mod machine;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 8;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "\
exma-benchmark: the EXMA benchmark

USAGE:
    exma-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    exma-benchmark --all [--seed N] [--seconds S] [--runs N] [--trace 0|1]
    exma-benchmark --compare BASE.json NEW.json
    exma-benchmark --record RUN.json

    --workload NAME  run one of count_reads, locate_seeds, both_strands,
                     serve_small in this process; --trace 1 runs it
                     traced and prints the per-layer metrics instead
    --all            run all four, each in a process of its own, and
                     write benchmark/out/run_<seed>.json; --runs N
                     repeats on seeds N, N+1, ...; --trace 1 adds one
                     traced run per workload
    --compare        one row per workload and end-to-end metric with
                     base, new, ratio, bound and verdict; exits 1 on any
                     `worse`
    --record         append a run file's summary (commit, machine, seed,
                     median and quartiles of every end-to-end metric per
                     workload) as one line to benchmark/history.jsonl
";

enum Mode {
    Workload {
        name: String,
        seed: u64,
        seconds: u64,
        traced: bool,
    },
    All(report::AllOptions),
    Compare(PathBuf, PathBuf),
    Record(PathBuf),
    Help,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut all = false;
    let mut compare = None;
    let (mut seed, mut seconds, mut runs) = (DEFAULT_SEED, DEFAULT_SECONDS, 1);
    let (mut traced, mut record) = (false, None);
    let mut args = argv.iter();
    let number = |flag: &str, raw: Option<&String>| -> Result<u64, String> {
        raw.and_then(|raw| raw.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Mode::Help),
            "--all" => all = true,
            "--record" => {
                record = Some(PathBuf::from(
                    args.next().ok_or("--record needs a run file")?,
                ));
            }
            "--workload" => workload = Some(args.next().ok_or("--workload needs a name")?.clone()),
            "--seed" => seed = number("--seed", args.next())?,
            "--seconds" => seconds = number("--seconds", args.next())?,
            "--runs" => runs = number("--runs", args.next())?,
            "--trace" => {
                traced = match args.next().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--compare" => {
                let base = args.next().ok_or("--compare needs two run files")?;
                let new = args.next().ok_or("--compare needs two run files")?;
                compare = Some((PathBuf::from(base), PathBuf::from(new)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds == 0 || runs == 0 {
        return Err("--seconds and --runs must be at least 1".to_string());
    }
    match (workload, all, compare, record) {
        (Some(name), false, None, None) => Ok(Mode::Workload {
            name,
            seed,
            seconds,
            traced,
        }),
        (None, true, None, None) => Ok(Mode::All(report::AllOptions {
            seed,
            seconds,
            runs,
            traced,
        })),
        (None, false, Some((base, new)), None) => Ok(Mode::Compare(base, new)),
        (None, false, None, Some(run)) => Ok(Mode::Record(run)),
        (None, false, None, None) => Ok(Mode::Help),
        _ => Err("choose one of --workload, --all, --compare, --record".to_string()),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("exma-benchmark: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Help => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Mode::Workload {
            name,
            seed,
            seconds,
            traced,
        } => {
            let seconds = seconds as f64;
            let result = match name.as_str() {
                "count_reads" => {
                    embedded::run(embedded::Kind::CountReads, seed, seconds, traced, started)
                }
                "locate_seeds" => {
                    embedded::run(embedded::Kind::LocateSeeds, seed, seconds, traced, started)
                }
                "both_strands" => {
                    embedded::run(embedded::Kind::BothStrands, seed, seconds, traced, started)
                }
                "serve_small" => serve::run(seed, seconds, traced),
                other => {
                    eprintln!("exma-benchmark: unknown workload {other}\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            result.print(if traced {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            });
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "exma-benchmark: {} answers failed verification",
                    result.failed
                );
                ExitCode::FAILURE
            }
        }
        Mode::All(options) => match report::run_all(&options) {
            Ok(_) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("exma-benchmark: {message}");
                ExitCode::FAILURE
            }
        },
        Mode::Record(run) => match report::record(&run) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("exma-benchmark: {message}");
                ExitCode::from(2)
            }
        },
        Mode::Compare(base, new) => match report::compare(&base, &new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("exma-benchmark: {message}");
                ExitCode::from(2)
            }
        },
    }
}
