//! The modes built on top of single workload runs: `--all` (every
//! workload, each in a process of its own, gathered into one run file),
//! `--compare` (the regression gate over two run files) and `--record`
//! (one line of history per run file).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::machine;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// Per-layer metrics that are counts of the program's own work: with one
/// seed they must repeat bit for bit, so `--compare` checks them for
/// equality instead of against a bound.
const EXACT_PER_LAYER: [&str; 15] = [
    "index.heap.k_occ_checkpoints_bytes",
    "index.heap.k_occ_deltas_bytes",
    "index.heap.k_occ_codes_bytes",
    "index.heap.one_step_occ_bytes",
    "index.heap.sa_samples_bytes",
    "index.heap.rank_bits_bytes",
    "index.heap.other_bytes",
    "index.snapshot.bytes_per_base",
    "index.resolve.lf_steps_per_position",
    "index.resolve.dropped_share",
    "engine.batch.steps_per_query",
    "engine.batch.rounds_per_batch",
    "engine.batch.resolve_lf_steps_per_query",
    "server.wire.query_bytes_f8",
    "server.wire.results_bytes_f8",
];

pub struct AllOptions {
    pub seed: u64,
    pub seconds: u64,
    pub runs: u64,
    pub traced: bool,
}

/// One child run: its standard output passed through, its last line
/// parsed as the result object.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result object: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok((result, stdout))
}

/// The value of a `name value` line of a child's output.
fn printed<'a>(stdout: &'a str, name: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or("")
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// `--all`: runs every workload `runs` times (seeds `seed`, `seed + 1`,
/// …), each run a process of its own so set-up time and peak memory are
/// that workload's alone, and writes the run file. With `traced`, each
/// workload also gets one separate traced run on the first seed.
pub fn run_all(options: &AllOptions) -> Result<PathBuf, String> {
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let mut values: Vec<Vec<Json>> = vec![Vec::new(); END_TO_END.len()];
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let (mut hashes, mut checksums) = (Vec::new(), Vec::new());
        for run in 0..options.runs {
            let seed = options.seed + run;
            println!("# {workload} --seed {seed} --seconds {}", options.seconds);
            let (result, stdout) = run_child(workload, seed, options.seconds, false)?;
            for (slot, def) in values.iter_mut().zip(END_TO_END) {
                slot.push(Json::Num(metric_value(&result, def.name)));
            }
            attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
            failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
            hashes.push(Json::from(printed(&stdout, "inputs_hash")));
            checksums.push(Json::from(printed(&stdout, "answers_checksum")));
        }
        let mut end_to_end = Json::obj();
        for (slot, def) in values.into_iter().zip(END_TO_END) {
            end_to_end = end_to_end.field(
                def.name,
                Json::obj().field("unit", def.unit).field("values", slot),
            );
        }
        let mut entry = Json::obj()
            .field("name", workload)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("inputs_hash", hashes)
            .field("answers_checksum", checksums)
            .field("end_to_end", end_to_end);
        if options.traced {
            println!("# {workload} --seed {} --trace 1", options.seed);
            let (result, _) = run_child(workload, options.seed, options.seconds, true)?;
            let mut per_layer = Json::obj();
            for def in PER_LAYER {
                per_layer = per_layer.field(
                    def.name,
                    Json::obj()
                        .field("unit", def.unit)
                        .field("value", metric_value(&result, def.name)),
                );
            }
            entry = entry.field("per_layer", per_layer);
        }
        workloads.push(entry);
    }
    let doc = Json::obj()
        .field("schema", 1u64)
        .field("commit", commit())
        .field(
            "machine",
            Json::obj()
                .field("nproc", machine::nproc() as u64)
                .field("cpu", machine::cpu_model())
                .field("rustc", machine::command_line("rustc", &["--version"])),
        )
        .field("seed", options.seed)
        .field("seconds", options.seconds)
        .field("runs", options.runs)
        .field("workloads", workloads);
    let path = machine::out_dir().join(format!("run_{}.json", options.seed));
    std::fs::create_dir_all(machine::out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# run file: {}", path.display());
    Ok(path)
}

/// The commit the benchmark's own directory is checked out at, with a
/// `+` when the tree has changes; "unknown" outside a git checkout.
fn commit() -> String {
    let dir = machine::package_dir();
    let dir = dir.to_string_lossy();
    let head = machine::command_line("git", &["-C", &dir, "rev-parse", "--short", "HEAD"]);
    let status = machine::command_line("git", &["-C", &dir, "status", "--porcelain"]);
    // `command_line` gives the first line of output: none on a clean tree.
    if head == "unknown" || status == "unknown" {
        head
    } else {
        format!("{head}+")
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_entry<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

fn end_to_end_values(entry: &Json, metric: &str) -> Vec<f64> {
    entry
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|values| values.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Failed queries ÷ attempted queries over all runs of a workload. It is
/// gated like a metric — any increase is worse — but lives in the result
/// object's `attempted` / `failed`: the driver's contract wants no
/// end-to-end metric that reads 0, and this one does on every healthy run.
fn failed_share(entry: &Json) -> f64 {
    let sum = |field: &str| -> f64 {
        entry
            .get(field)
            .and_then(Json::as_arr)
            .map_or(0.0, |runs| runs.iter().filter_map(Json::as_f64).sum())
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// A traced run's value of a per-layer metric, when the run file has one.
fn per_layer_value(entry: &Json, name: &str) -> Option<f64> {
    entry
        .get("per_layer")?
        .get(name)?
        .get("value")
        .and_then(Json::as_f64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Holds `new` against `base` under the metric's fixed bound. Where
/// either side's own quartile spread is wider than the bound, the runs
/// cannot tell a change of that size from noise: unresolved, not
/// unchanged.
pub fn verdict(def: &MetricDef, base: &[f64], new: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    if stats::spread(base) > bound || stats::spread(new) > bound {
        return Verdict::Unresolved;
    }
    let worsening = def
        .better
        .worsening(stats::median(base), stats::median(new));
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `--compare A B`: one row per workload and end-to-end metric, then
/// the exact per-layer counts that differ. `Ok(true)` when no row is
/// worse.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    let mut acceptable = true;
    for workload in WORKLOADS {
        let (Some(base_entry), Some(new_entry)) = (
            workload_entry(&base, workload),
            workload_entry(&new, workload),
        ) else {
            return Err(format!("{workload} is missing from a run file"));
        };
        for def in END_TO_END {
            let base_values = end_to_end_values(base_entry, def.name);
            let new_values = end_to_end_values(new_entry, def.name);
            if base_values.is_empty() || new_values.is_empty() {
                return Err(format!(
                    "{workload}: {} is missing from a run file",
                    def.name
                ));
            }
            let verdict = verdict(def, &base_values, &new_values);
            acceptable &= verdict != Verdict::Worse;
            let (base_median, new_median) =
                (stats::median(&base_values), stats::median(&new_values));
            println!(
                "{:<14} {:<22} {:>14.4} {:>14.4} {:>7.3} {:>7.3} {:>7.3}  {} ({} {})",
                workload,
                def.name,
                base_median,
                new_median,
                new_median / base_median,
                stats::spread(&base_values).max(stats::spread(&new_values)),
                def.bound.unwrap_or(0.0),
                verdict.as_str(),
                def.unit,
                match def.better {
                    Better::Lower => "lower is better",
                    Better::Higher => "higher is better",
                },
            );
        }
        let (base_share, new_share) = (failed_share(base_entry), failed_share(new_entry));
        let rose = new_share > base_share;
        acceptable &= !rose;
        println!(
            "{:<14} {:<22} {:>14.6} {:>14.6} {:>7} {:>7} {:>7.3}  {} (ratio lower is better)",
            workload,
            "failed_share",
            base_share,
            new_share,
            "-",
            "-",
            0.0,
            if rose { "worse" } else { "within" },
        );
        if base.get("seed") == new.get("seed") {
            // Run i of both sides used seed + i: the runs both sides
            // made must have hashed alike.
            for field in ["inputs_hash", "answers_checksum"] {
                let runs = |entry: &'_ Json| -> Vec<Json> {
                    entry
                        .get(field)
                        .and_then(Json::as_arr)
                        .map_or_else(Vec::new, <[Json]>::to_vec)
                };
                let (base_runs, new_runs) = (runs(base_entry), runs(new_entry));
                if base_runs.iter().zip(&new_runs).any(|(a, b)| a != b) {
                    println!(
                        "{workload:<14} {field} differs: the two sides did not run the same work"
                    );
                }
            }
            for name in EXACT_PER_LAYER {
                let values = (
                    per_layer_value(base_entry, name),
                    per_layer_value(new_entry, name),
                );
                if let (Some(a), Some(b)) = values {
                    if a != b {
                        println!("{workload:<14} {name} is an exact count and moved: {a} -> {b}");
                    }
                }
            }
        }
        // One traced run a set, and six of them on one commit read 8000
        // five times and 16000 once: reported, not gated.
        let rungs = (
            per_layer_value(base_entry, "server.sustained_rps"),
            per_layer_value(new_entry, "server.sustained_rps"),
        );
        if let (Some(a), Some(b)) = rungs {
            if a != b {
                println!("{workload:<14} server.sustained_rps moved a rung: {a} -> {b} req/s");
            }
        }
    }
    Ok(acceptable)
}

/// `--record RUN`: appends one line to `benchmark/history.jsonl` — the
/// run file's commit, machine and seed, and each end-to-end metric's
/// median and quartiles per workload.
pub fn record(run: &Path) -> Result<(), String> {
    let doc = load(run)?;
    let mut workloads = Json::obj();
    for workload in WORKLOADS {
        let entry = workload_entry(&doc, workload).ok_or("run file lacks a workload")?;
        let mut summary = Json::obj();
        for def in END_TO_END {
            let [q1, median, q3] = stats::quartiles(&end_to_end_values(entry, def.name));
            summary = summary.field(
                def.name,
                Json::obj()
                    .field("median", median)
                    .field("q1", q1)
                    .field("q3", q3),
            );
        }
        summary = summary.field("failed_share", failed_share(entry));
        workloads = workloads.field(workload, summary);
    }
    let mut line = Json::obj();
    for key in ["commit", "machine", "seed", "seconds", "runs"] {
        line = line.field(key, doc.get(key).cloned().unwrap_or(Json::Null));
    }
    let line = line.field("workloads", workloads);
    let path = machine::package_dir().join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# recorded in {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "test_metric",
            unit: "ns",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = |center: f64| -> Vec<f64> {
            (0..10)
                .map(|i| center * (1.0 + 0.002 * f64::from(i)))
                .collect()
        };
        let latency = def(Better::Lower);
        let verdict_of =
            |def: &MetricDef, base: f64, new: f64| verdict(def, &steady(base), &steady(new));
        assert_eq!(verdict_of(&latency, 1600.0, 1650.0), Verdict::Within);
        assert_eq!(verdict_of(&latency, 1600.0, 1800.0), Verdict::Worse);
        assert_eq!(verdict_of(&latency, 1600.0, 1300.0), Verdict::Better);
        let throughput = def(Better::Higher);
        assert_eq!(verdict_of(&throughput, 600e3, 500e3), Verdict::Worse);
        assert_eq!(verdict_of(&throughput, 600e3, 700e3), Verdict::Better);
        // A side whose own quartiles are further apart than the bound
        // resolves nothing, whichever way the medians point.
        let noisy: Vec<f64> = (0..10).map(|i| 1600.0 + 60.0 * f64::from(i)).collect();
        assert_eq!(
            verdict(&latency, &noisy, &steady(1600.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, &steady(1600.0), &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_exact_count_is_a_per_layer_metric() {
        for name in EXACT_PER_LAYER {
            assert!(PER_LAYER.iter().any(|def| def.name == name), "{name}");
        }
    }
}
