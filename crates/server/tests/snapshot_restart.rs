//! Process-level warm-restart acceptance: a real `exma-server` binary
//! writing and reloading its `--snapshot-path` snapshot.
//!
//! The claims under test: a warm restart demonstrably skips the rebuild
//! (the readiness line reports a warm load, and STATS counts it), warm
//! answers are byte-identical to the cold server's, a corrupted snapshot
//! is rejected typed on stderr and falls back to a rebuild that still
//! serves verified results, the STATS counters report
//! `snapshot_loaded`/`snapshot_rejected` truthfully, and SIGTERM —
//! even racing a second SIGTERM — drains to exit code 0.

mod common;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use exma_engine::{EngineBuilder, QueryBatch};
use exma_genome::{Genome, GenomeProfile};
use exma_server::wire;

use common::{mixed_batch, Client};

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn sigterm(child: &Child) {
    let rc = unsafe { kill(child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill(SIGTERM) failed");
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "exma_restart_{}_{}_{tag}.exma",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    path
}

/// A running `exma-server` process with its parsed readiness line.
struct ServerProcess {
    child: Child,
    addr: String,
    /// The parenthesized readiness suffix: `cold start, index built in
    /// 12.3 ms, resident 40 MiB, peak 45 MiB` or `warm start, snapshot
    /// loaded in 4.5 ms, resident 28 MiB, peak 30 MiB` (neither figure
    /// where `/proc/self/status` is unreadable).
    startup: String,
    stderr: mpsc::Receiver<String>,
}

impl ServerProcess {
    /// Spawns the release/debug test binary with `extra` CLI arguments
    /// on an ephemeral port and waits for its readiness line.
    fn start(extra: &[&str]) -> ServerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_exma-server"))
            .args(["--profile", "toy", "--len", "120000", "--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn exma-server");

        // Drain stderr continuously so the child never blocks on a full
        // pipe; lines are collected for post-exit assertions.
        let stderr_pipe = child.stderr.take().expect("stderr piped");
        let (stderr_tx, stderr) = mpsc::channel();
        thread::spawn(move || {
            for line in BufReader::new(stderr_pipe).lines().map_while(Result::ok) {
                let _ = stderr_tx.send(line);
            }
        });

        // The readiness line arrives once the index is built or loaded;
        // a bounded wait turns a wedged startup into a test failure
        // instead of a suite hang.
        let stdout = child.stdout.take().expect("stdout piped");
        let (ready_tx, ready_rx) = mpsc::channel();
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = ready_tx.send(line);
            }
        });
        let line = ready_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("readiness line before timeout");
        let rest = line
            .strip_prefix("exma-server listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"));
        let (addr, suffix) = rest.split_once(" (").expect("startup suffix");
        let startup = suffix.strip_suffix(')').expect("closing paren").to_string();
        ServerProcess {
            child,
            addr: addr.to_string(),
            startup,
            stderr,
        }
    }

    /// SIGTERMs the process and asserts the drain: exit code 0 and the
    /// `drained; exiting` farewell on stderr. Returns all stderr lines.
    fn terminate(mut self) -> Vec<String> {
        sigterm(&self.child);
        let status = self.child.wait().expect("wait for server");
        assert!(status.success(), "drain exited {status:?}");
        let lines: Vec<String> = self.stderr.iter().collect();
        assert!(
            lines.iter().any(|l| l == "drained; exiting"),
            "no drain farewell in {lines:?}"
        );
        lines
    }
}

/// The genome the spawned servers synthesize (`--profile toy --len
/// 120000`, default seed), for building oracle batches and indexes.
fn server_genome() -> Genome {
    let mut profile = GenomeProfile::toy();
    profile.len = 120_000;
    Genome::synthesize(&profile, 42)
}

#[test]
fn warm_restart_skips_the_rebuild_and_serves_identical_bytes() {
    let snapshot = temp_path("warm");
    let snapshot_arg = snapshot.to_str().expect("utf-8 temp path");
    let genome = server_genome();
    let batches: Vec<QueryBatch> = (0..4).map(|i| mixed_batch(&genome, 25, 300 + i)).collect();

    // Cold run: no snapshot exists yet, so the server builds, writes
    // the snapshot, and reports a cold start.
    let cold = ServerProcess::start(&["--snapshot-path", snapshot_arg]);
    assert!(
        cold.startup.starts_with("cold start, index built in "),
        "expected a cold start, got {:?}",
        cold.startup
    );
    // Where the kernel reports them, the suffix ends with what is
    // resident now and the resident peak, which bounds it.
    if Path::new("/proc/self/status").exists() {
        let (before, peak) = cold.startup.rsplit_once(", peak ").unzip();
        let peak_mib = peak.and_then(|peak| peak.strip_suffix(" MiB")?.parse::<u64>().ok());
        assert!(
            peak_mib.is_some_and(|mib| mib > 0),
            "no resident peak in {:?}",
            cold.startup
        );
        let resident_mib = before
            .and_then(|before| before.rsplit_once(", resident "))
            .and_then(|(_, resident)| resident.strip_suffix(" MiB")?.parse::<u64>().ok());
        assert!(
            resident_mib.is_some_and(|mib| mib > 0 && Some(mib) <= peak_mib),
            "no resident figure at or below the peak in {:?}",
            cold.startup
        );
    }
    let mut client = Client::connect(&cold.addr);
    let cold_payloads: Vec<Vec<u8>> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| client.results_payload(i as u64, b))
        .collect();
    let stats = client.stats_snapshot(50);
    assert_eq!(stats.snapshot_loaded, 0, "cold start claimed a load");
    assert_eq!(stats.snapshot_rejected, 0);
    let cold_heap = stats.heap_total;
    drop(client);
    cold.terminate();
    assert!(snapshot.exists(), "cold run wrote no snapshot");

    // Warm run: the snapshot verifies and the rebuild is skipped. The
    // evidence is what cannot flip — the readiness line, the STATS load
    // counter, the heap and the bytes served — not the two startup times,
    // which are milliseconds apart on a toy genome and race the scheduler.
    let warm = ServerProcess::start(&["--snapshot-path", snapshot_arg]);
    assert!(
        warm.startup.starts_with("warm start, snapshot loaded in "),
        "expected a warm start, got {:?}",
        warm.startup
    );

    // Byte-identical service, and STATS heap fields reflecting the
    // loaded index (not a placeholder), with snapshot_loaded == 1.
    let mut client = Client::connect(&warm.addr);
    for (i, batch) in batches.iter().enumerate() {
        assert_eq!(
            client.results_payload(100 + i as u64, batch),
            cold_payloads[i],
            "warm batch #{i} diverged from the cold server"
        );
    }
    let stats = client.stats_snapshot(150);
    assert_eq!(stats.snapshot_loaded, 1, "warm start not counted");
    assert_eq!(stats.snapshot_rejected, 0);
    assert_eq!(
        stats.heap_total, cold_heap,
        "warm heap attribution differs from the cold build's"
    );
    assert_eq!(
        stats.heap_total,
        stats.heap_k_occ_checkpoints
            + stats.heap_k_occ_deltas
            + stats.heap_k_occ_codes
            + stats.heap_one_step_occ
            + stats.heap_sa_samples
            + stats.heap_rank_bits
            + stats.heap_other,
        "warm heap fields are placeholders, not an attribution"
    );
    drop(client);
    warm.terminate();
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn corrupted_snapshot_is_rejected_and_the_rebuild_still_serves() {
    // Write a valid snapshot with exactly the server's recipe, then
    // flip one payload byte.
    let snapshot = temp_path("corrupt");
    let snapshot_arg = snapshot.to_str().expect("utf-8 temp path");
    let genome = server_genome();
    let builder = EngineBuilder::new().k(4);
    let index = Arc::new(builder.build_index(&genome.text_with_sentinel()).unwrap());
    builder
        .snapshot_to(&index, &snapshot)
        .expect("seed snapshot");
    let pristine = std::fs::read(&snapshot).expect("read snapshot");
    let mut corrupt = pristine.clone();
    corrupt[pristine.len() / 2] ^= 0x20;
    std::fs::write(&snapshot, &corrupt).expect("corrupt snapshot");

    // The server must reject it typed on stderr, fall back to a cold
    // rebuild, and keep serving byte-verified answers.
    let server = ServerProcess::start(&["--snapshot-path", snapshot_arg]);
    assert!(
        server.startup.starts_with("cold start"),
        "corrupted snapshot warm-started: {:?}",
        server.startup
    );
    let mut client = Client::connect(&server.addr);
    let batch = mixed_batch(&genome, 30, 77);
    let payload = client.results_payload(1, &batch);
    let engine = builder.attach(&index).expect("attach oracle");
    let (results, _) = engine.run(&batch);
    let mut expected = Vec::new();
    wire::encode_results_range(&results, 0, results.len(), &mut expected);
    assert_eq!(payload, expected, "fallback rebuild served wrong bytes");
    let stats = client.stats_snapshot(2);
    assert_eq!(stats.snapshot_rejected, 1, "rejection not counted");
    assert_eq!(stats.snapshot_loaded, 0);
    drop(client);
    let stderr = server.terminate();
    assert!(
        stderr
            .iter()
            .any(|l| l.starts_with("snapshot rejected: checksum mismatch")),
        "no typed rejection on stderr: {stderr:?}"
    );

    // The fallback refreshed the snapshot crash-safely: the file is
    // valid again and equal to the pristine image.
    assert_eq!(
        std::fs::read(&snapshot).expect("refreshed snapshot"),
        pristine,
        "rebuild did not rewrite a valid snapshot"
    );
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn a_snapshot_of_another_reference_is_rejected_and_rebuilt() {
    let snapshot = temp_path("reference");
    let snapshot_arg = snapshot.to_str().expect("utf-8 temp path");
    // A seed-42 cold start writes the snapshot.
    ServerProcess::start(&["--snapshot-path", snapshot_arg]).terminate();
    assert!(snapshot.exists(), "cold run wrote no snapshot");

    // Same length, same recipe, another seed: the snapshot's recipe
    // and length both match, but it holds another genome.
    let restarted = ServerProcess::start(&["--snapshot-path", snapshot_arg, "--seed", "43"]);
    assert!(
        restarted.startup.starts_with("cold start"),
        "a seed-42 snapshot warm-started a seed-43 server: {:?}",
        restarted.startup
    );
    let mut profile = GenomeProfile::toy();
    profile.len = 120_000;
    let genome = Genome::synthesize(&profile, 43);
    let builder = EngineBuilder::new().k(4);
    let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
    let engine = builder.attach(&index).expect("attach oracle");
    let batch = mixed_batch(&genome, 30, 43);
    let (results, _) = engine.run(&batch);
    let mut expected = Vec::new();
    wire::encode_results_range(&results, 0, results.len(), &mut expected);
    let mut client = Client::connect(&restarted.addr);
    assert_eq!(
        client.results_payload(1, &batch),
        expected,
        "the rebuild did not serve the seed-43 genome"
    );
    let stats = client.stats_snapshot(2);
    assert_eq!(stats.snapshot_rejected, 1, "rejection not counted");
    assert_eq!(stats.snapshot_loaded, 0);
    drop(client);
    let stderr = restarted.terminate();
    assert!(
        stderr
            .iter()
            .any(|l| l.starts_with("snapshot rejected: holds another reference")),
        "no reference rejection on stderr: {stderr:?}"
    );

    // The rebuild rewrote the snapshot for seed 43; a shorter reference
    // of that seed is rejected on its length.
    let shorter = ServerProcess::start(&[
        "--snapshot-path",
        snapshot_arg,
        "--seed",
        "43",
        "--len",
        "100000",
    ]);
    assert!(
        shorter.startup.starts_with("cold start"),
        "a 120 kbp snapshot warm-started a 100 kbp server: {:?}",
        shorter.startup
    );
    let stats = Client::connect(&shorter.addr).stats_snapshot(3);
    assert_eq!(stats.snapshot_rejected, 1, "rejection not counted");
    assert_eq!(stats.snapshot_loaded, 0);
    let stderr = shorter.terminate();
    assert!(
        stderr.iter().any(|l| l.starts_with(
            "snapshot rejected: indexes 120001 symbols but the synthesized reference needs 100001"
        )),
        "no length rejection on stderr: {stderr:?}"
    );
    let _ = std::fs::remove_file(&snapshot);
}

#[cfg(unix)]
#[test]
fn a_snapshot_path_that_is_not_a_regular_file_is_left_as_it_is() {
    use std::os::unix::fs::FileTypeExt;
    // A socket inode stands in for a FIFO or a device: the server must
    // neither block nor read forever on it, and must not replace it with
    // the snapshot it writes after the rebuild.
    let dir = temp_path("socket_dir");
    std::fs::create_dir(&dir).expect("make the directory");
    let socket = dir.join("snap");
    let _listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    let server = ServerProcess::start(&["--snapshot-path", socket.to_str().expect("utf-8")]);
    assert!(
        server.startup.starts_with("cold start"),
        "a socket warm-started the server: {:?}",
        server.startup
    );
    let stats = Client::connect(&server.addr).stats_snapshot(1);
    assert_eq!(stats.snapshot_rejected, 1, "rejection not counted");
    let stderr = server.terminate();
    for expected in ["snapshot rejected: ", "warning: cannot write snapshot: "] {
        assert!(
            stderr.iter().any(|l| l.starts_with(expected)),
            "no {expected:?} on stderr: {stderr:?}"
        );
    }
    let kind = std::fs::metadata(&socket).expect("still there").file_type();
    assert!(kind.is_socket(), "the snapshot path became {kind:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_sigterms_still_drain_to_exit_zero() {
    // Two SIGTERMs land back to back — the second racing the drain the
    // first started. The drain must stay idempotent: exit 0, farewell
    // printed once, no hang for `wait` to trip on.
    let server = ServerProcess::start(&[]);
    let mut client = Client::connect(&server.addr);
    let genome = server_genome();
    let batch = mixed_batch(&genome, 20, 5);
    client.results_payload(1, &batch);
    sigterm(&server.child);
    sigterm(&server.child);
    drop(client);
    let stderr = server.terminate();
    assert_eq!(
        stderr.iter().filter(|l| *l == "drained; exiting").count(),
        1,
        "drain ran more than once: {stderr:?}"
    );
}
