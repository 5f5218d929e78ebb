//! `exma-server`: synthesize a reference, build the k-step index, and
//! serve the EXMA wire protocol.
//!
//! The server announces its bound address on stdout
//! (`exma-server listening on HOST:PORT (cold|warm start, ...)`) once
//! the index is ready, so a script can wait for readiness by reading
//! one line; the suffix reports whether the index was rebuilt (cold)
//! or loaded from a verified `--snapshot-path` snapshot (warm), and
//! how long that took. Clients that want to verify responses rebuild
//! the identical reference from the same `--profile`/`--len`/`--seed`
//! (synthesis is deterministic) — which is exactly what
//! `exma-loadgen` does.
//!
//! SIGTERM and SIGINT trigger a graceful drain: the server stops
//! accepting, answers new QUERYs with GOAWAY, executes everything
//! already admitted, joins every thread, and exits 0 — `kill -TERM`
//! followed by `wait` is a clean shutdown, not a crash.
//!
//! ```text
//! cargo run --release -p exma-server -- --profile toy --port 7878
//! cargo run --release -p exma-server -- --profile human_rel --k 4 --linger-us 500
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::EngineBuilder;
use exma_genome::{Genome, GenomeProfile};
use exma_index::interleave::huge_page_bytes;
use exma_index::KStepFmIndex;
use exma_server::{Server, ServerConfig, ServerHandle};

const USAGE: &str = "\
exma-server: serve EXMA QueryBatches over TCP with continuous batching

USAGE:
    cargo run --release -p exma-server [-- OPTIONS]

OPTIONS:
    --profile NAME        reference profile: toy, human_rel, picea_rel,
                          pinus_rel (default: toy)
    --len N               override the profile's length in bases
    --seed N              synthesis seed (default: 42)
    --k N                 step width of the index (default: 4)
    --bidirectional       index both strands (doubled text) so clients
                          can send strand-agnostic search-both queries
    --host HOST           bind address (default: 127.0.0.1)
    --port N              bind port, 0 = ephemeral (default: 7878)
    --queue-depth N       admission-queue capacity (default: 1024)
    --linger-us N         coalescing window in microseconds (default: 0:
                          a connection that finds the engine idle runs
                          it at once, and what arrives meanwhile is the
                          next batch; a window pays only when many
                          connections keep an engine-bound server busy)
    --max-frame-len N     largest accepted frame payload (default: 1 MiB)
    --max-hits-ceiling N  clamp every locate's hit cap to N (default: none)
    --default-deadline-us N
                          server-side deadline ceiling on every query,
                          in microseconds; 0 = none (default: 0)
    --idle-timeout-ms N   reap connections silent for N ms; 0 = never
                          (default: 60000)
    --writer-queue N      per-connection writer-queue depth in frames;
                          overflow disconnects the slow reader
                          (default: 256)
    --snapshot-path FILE  persisted-index snapshot: load it if it
                          verifies (warm start, skipping the rebuild);
                          otherwise rebuild and write it crash-safely
                          (default: none — always rebuild)
    --help                print this help
";

struct Args {
    profile: String,
    len: Option<usize>,
    seed: u64,
    k: usize,
    bidirectional: bool,
    host: String,
    port: u16,
    snapshot_path: Option<PathBuf>,
    config: ServerConfig,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        profile: "toy".to_string(),
        len: None,
        seed: 42,
        k: 4,
        bidirectional: false,
        host: "127.0.0.1".to_string(),
        port: 7878,
        snapshot_path: None,
        config: ServerConfig::default(),
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--profile" => args.profile = value("--profile")?,
            "--len" => args.len = Some(parse_num(&value("--len")?)?),
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--k" => args.k = parse_num(&value("--k")?)?,
            "--bidirectional" => args.bidirectional = true,
            "--host" => args.host = value("--host")?,
            "--port" => args.port = parse_num(&value("--port")?)?,
            "--queue-depth" => args.config.queue_depth = parse_num(&value("--queue-depth")?)?,
            "--linger-us" => {
                args.config.linger = Duration::from_micros(parse_num(&value("--linger-us")?)?)
            }
            "--max-frame-len" => args.config.max_frame_len = parse_num(&value("--max-frame-len")?)?,
            "--max-hits-ceiling" => {
                args.config.max_hits_ceiling = Some(parse_num(&value("--max-hits-ceiling")?)?)
            }
            "--default-deadline-us" => {
                let us: u64 = parse_num(&value("--default-deadline-us")?)?;
                args.config.default_deadline = (us != 0).then(|| Duration::from_micros(us));
            }
            "--idle-timeout-ms" => {
                let ms: u64 = parse_num(&value("--idle-timeout-ms")?)?;
                args.config.idle_timeout = (ms != 0).then(|| Duration::from_millis(ms));
            }
            "--writer-queue" => {
                args.config.writer_queue_depth = parse_num(&value("--writer-queue")?)?
            }
            "--snapshot-path" => {
                args.snapshot_path = Some(PathBuf::from(value("--snapshot-path")?))
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(args))
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad number '{raw}'"))
}

/// Set by the signal handler; the watcher thread turns it into a
/// graceful drain. A handler may only do async-signal-safe work, and a
/// relaxed atomic store is exactly that.
static TERMINATE: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    TERMINATE.store(true, Ordering::Relaxed);
}

/// Installs SIGTERM/SIGINT handlers and a watcher thread that calls
/// [`ServerHandle::shutdown`] when either fires. Uses `signal(2)`
/// directly — std already links libc, and one extern declaration beats
/// a dependency this workspace otherwise does without.
#[cfg(unix)]
fn drain_on_signals(handle: ServerHandle) {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
    thread::spawn(move || loop {
        if TERMINATE.load(Ordering::Relaxed) {
            eprintln!("signal received: draining...");
            handle.shutdown();
            return;
        }
        thread::sleep(Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn drain_on_signals(_handle: ServerHandle) {}

/// Resolves a profile name, applying the `--len` override.
fn profile_for(name: &str, len: Option<usize>) -> Result<GenomeProfile, String> {
    let mut profile =
        GenomeProfile::by_name(name).ok_or_else(|| format!("unknown profile '{name}'"))?;
    if let Some(len) = len {
        if len == 0 {
            return Err("--len must be positive".to_string());
        }
        profile.len = len;
    }
    Ok(profile)
}

const MIB: f64 = 1024.0 * 1024.0;

/// "N of M MiB on huge pages": how much of the process the kernel backs
/// with transparent huge pages now that the `heap_bytes` index is ready.
fn huge_page_share(heap_bytes: usize) -> String {
    match huge_page_bytes() {
        Some(huge) => format!(
            "{:.0} of {:.0} MiB on huge pages",
            huge as f64 / MIB,
            heap_bytes as f64 / MIB
        ),
        None => "huge pages unreadable".to_string(),
    }
}

/// `, resident N MiB, peak M MiB`: what this process holds resident now
/// and its resident high-water mark so far (the `VmRSS` and `VmHWM` lines
/// of `/proc/self/status`) — the gap is what the start-up freed but did
/// not hand back; each part empty off Linux and wherever the file cannot
/// be read.
fn resident_and_peak() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mib = |field: &str| {
        let kib = status.lines().find_map(|line| {
            let kib = line.strip_prefix(field)?.trim().strip_suffix("kB")?;
            kib.trim().parse::<u64>().ok()
        });
        kib.map(|kib| kib as f64 / 1024.0)
    };
    [("resident", mib("VmRSS:")), ("peak", mib("VmHWM:"))]
        .into_iter()
        .filter_map(|(name, mib)| Some(format!(", {name} {:.0} MiB", mib?)))
        .collect()
}

/// Bases compared per [`KStepFmIndex::text_ends_with`] call when a
/// snapshot's reference is checked, so no whole-genome copy is made.
const CHECK_CHUNK: usize = 1 << 20;

/// Whether a loaded `index` holds exactly the synthesized reference: its
/// length (`2n + 1` for a bidirectional recipe, whose doubled text the
/// snapshot's recipe flag already gates) and its forward bases. A
/// snapshot of another seed at the same length fails the second check.
fn check_reference(
    index: &KStepFmIndex,
    genome: &Genome,
    bidirectional: bool,
) -> Result<(), String> {
    let n = genome.len();
    let expected = if bidirectional { 2 * n + 1 } else { n + 1 };
    if index.text_len() != expected {
        return Err(format!(
            "indexes {} symbols but the synthesized reference needs {expected}",
            index.text_len()
        ));
    }
    for start in (0..n).step_by(CHECK_CHUNK) {
        let len = CHECK_CHUNK.min(n - start);
        if !index.text_ends_with(start + len, &genome.seq().slice(start, len)) {
            return Err(format!(
                "holds another reference (bases {start}..{} differ)",
                start + len
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> ExitCode {
    let profile = match profile_for(&args.profile, args.len) {
        Ok(profile) => profile,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let builder = EngineBuilder::new()
        .k(args.k)
        .bidirectional(args.bidirectional);

    eprintln!(
        "synthesizing {} ({} bp, seed {})...",
        profile.name, profile.len, args.seed
    );
    let genome = Genome::synthesize(&profile, args.seed);

    // Warm path: a verified snapshot skips the index rebuild entirely.
    // Any rejection — corruption, truncation, stale version, layout or
    // reference mismatch — falls back to a cold build, which then
    // refreshes the snapshot crash-safely.
    let mut snapshot_loaded = 0u64;
    let mut snapshot_rejected = 0u64;
    let load_start = Instant::now();
    let mut warm: Option<KStepFmIndex> = None;
    if let Some(path) = args.snapshot_path.as_deref().filter(|p| p.exists()) {
        let loaded = builder
            .attach_from_snapshot(path)
            .map_err(|e| e.to_string())
            .and_then(|index| check_reference(&index, &genome, args.bidirectional).map(|()| index));
        match loaded {
            Ok(index) => warm = Some(index),
            Err(why) => {
                eprintln!("snapshot rejected: {why}; rebuilding");
                snapshot_rejected = 1;
            }
        }
    }

    let (index, startup) = match warm {
        Some(index) => {
            let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
            snapshot_loaded = 1;
            eprintln!(
                "loaded k={} index snapshot in {load_ms:.1} ms ({:.1} MiB), engine {}, {}",
                args.k,
                index.heap_bytes() as f64 / MIB,
                builder.descriptor(),
                huge_page_share(index.heap_bytes()),
            );
            (
                Arc::new(index),
                format!("warm start, snapshot loaded in {load_ms:.1} ms"),
            )
        }
        None => {
            // Only a cold build reads the symbol text: a warm start never
            // makes this n-byte copy of the reference.
            let text = genome.text_with_sentinel();
            let build_start = Instant::now();
            let index = match builder.build_index(&text) {
                Ok(index) => index,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "built k={} index in {build_ms:.1} ms ({:.1} MiB), engine {}, {}",
                args.k,
                index.heap_bytes() as f64 / MIB,
                builder.descriptor(),
                huge_page_share(index.heap_bytes()),
            );
            if let Some(path) = args.snapshot_path.as_deref() {
                // Best-effort: a failed write must not stop serving.
                match builder.snapshot_to(&index, path) {
                    Ok(()) => eprintln!("wrote index snapshot to {}", path.display()),
                    Err(e) => eprintln!("warning: cannot write snapshot: {e}"),
                }
            }
            (
                Arc::new(index),
                format!("cold start, index built in {build_ms:.1} ms"),
            )
        }
    };

    let server = match Server::bind((args.host.as_str(), args.port), index, builder, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot serve on {}:{}: {e}", args.host, args.port);
            return ExitCode::FAILURE;
        }
    };
    match server.handle() {
        Ok(handle) => {
            let stats = handle.stats();
            stats
                .snapshot_loaded
                .store(snapshot_loaded, Ordering::Relaxed);
            stats
                .snapshot_rejected
                .store(snapshot_rejected, Ordering::Relaxed);
            drain_on_signals(handle);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.local_addr() {
        // The readiness line scripts wait for — keep its prefix stable.
        // It follows the signal handlers, so a SIGTERM sent on it drains.
        // The parenthesized suffix reports cold vs warm startup, how long
        // the build or verified load took, what is resident now and the
        // resident peak the startup reached.
        Ok(addr) => println!(
            "exma-server listening on {addr} ({startup}{})",
            resident_and_peak()
        ),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("drained; exiting");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => run(&args),
        Ok(None) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_default_and_parse() {
        let args = parse_args(Vec::<String>::new().into_iter())
            .unwrap()
            .unwrap();
        assert_eq!(args.profile, "toy");
        assert_eq!(args.port, 7878);
        assert!(!args.bidirectional);
        assert_eq!(args.config.queue_depth, 1024);

        let argv = [
            "--profile",
            "human_rel",
            "--len",
            "50000",
            "--seed",
            "7",
            "--k",
            "2",
            "--bidirectional",
            "--port",
            "0",
            "--queue-depth",
            "4",
            "--linger-us",
            "500",
            "--max-hits-ceiling",
            "32",
            "--default-deadline-us",
            "2500",
            "--idle-timeout-ms",
            "0",
            "--writer-queue",
            "8",
            "--snapshot-path",
            "/tmp/exma_index.snap",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        assert_eq!(args.profile, "human_rel");
        assert_eq!(args.len, Some(50_000));
        assert_eq!(args.seed, 7);
        assert_eq!(args.k, 2);
        assert!(args.bidirectional);
        assert_eq!(args.port, 0);
        assert_eq!(args.config.queue_depth, 4);
        assert_eq!(args.config.linger, Duration::from_micros(500));
        assert_eq!(args.config.max_hits_ceiling, Some(32));
        assert_eq!(
            args.config.default_deadline,
            Some(Duration::from_micros(2500))
        );
        assert_eq!(args.config.idle_timeout, None);
        assert_eq!(args.config.writer_queue_depth, 8);
        assert_eq!(
            args.snapshot_path.as_deref(),
            Some(std::path::Path::new("/tmp/exma_index.snap"))
        );
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(["--frobnicate".to_string()].into_iter()).is_err());
        assert!(parse_args(["--seed".to_string(), "x".to_string()].into_iter()).is_err());
        assert!(parse_args(["--len".to_string()].into_iter()).is_err());
        assert!(parse_args(["--snapshot-path".to_string()].into_iter()).is_err());
        assert!(parse_args(["--max-batch".to_string(), "8".to_string()].into_iter()).is_err());
        assert!(parse_args(["--help".to_string()].into_iter())
            .unwrap()
            .is_none());
        assert!(profile_for("nope", None).is_err());
        assert!(profile_for("toy", Some(0)).is_err());
        assert_eq!(profile_for("toy", Some(123)).unwrap().len, 123);
    }
}
