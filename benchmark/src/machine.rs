//! What the benchmark records about the box it ran on, and its one
//! machine-level measurement: the latency of a dependent cache miss.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use exma_genome::SeededRng;

/// Bytes of the pointer-chase buffer: far beyond the 4 MiB L2, and
/// owned by the benchmark so no index layout change moves the figure.
const CHASE_BYTES: usize = 256 << 20;
const LINE_BYTES: usize = 64;
const CHASE_STEPS: usize = 2_000_000;

/// The benchmark's own directory (`benchmark/`): `cargo run` exports it
/// at run time; the compile-time value covers a binary started by hand.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where run files, traces and the scratch snapshot go (`benchmark/out`,
/// ignored by git).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU's model name as the kernel reports it.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |model| model.trim().to_string())
}

/// First line of a command's standard output, or "unknown".
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds per step of a dependent pointer chase over a
/// [`CHASE_BYTES`] buffer, one pointer per 64-byte line, the lines linked
/// in one cycle in shuffled order, so every step is a miss the next step
/// waits for — the latency `engine.batch.implied_mlp` is measured
/// against.
pub fn chase_ns(seed: u64) -> f64 {
    let lines = CHASE_BYTES / LINE_BYTES;
    let words_per_line = LINE_BYTES / std::mem::size_of::<u64>();
    let mut order: Vec<u32> = (0..lines as u32).collect();
    let mut rng = SeededRng::new(seed);
    for i in (1..lines).rev() {
        order.swap(i, rng.range(0, i + 1));
    }
    // Following `order` cyclically visits every line once.
    let mut buffer = vec![0u64; lines * words_per_line];
    for pair in order.windows(2) {
        buffer[pair[0] as usize * words_per_line] = (pair[1] as usize * words_per_line) as u64;
    }
    buffer[order[lines - 1] as usize * words_per_line] =
        (order[0] as usize * words_per_line) as u64;
    drop(order);

    let mut at = 0usize;
    for _ in 0..CHASE_STEPS / 10 {
        at = buffer[at] as usize;
    }
    let start = Instant::now();
    for _ in 0..CHASE_STEPS {
        at = buffer[at] as usize;
    }
    let elapsed = start.elapsed();
    black_box(at);
    elapsed.as_nanos() as f64 / CHASE_STEPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_box_reports_itself() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(out_dir().ends_with("out"));
    }
}
