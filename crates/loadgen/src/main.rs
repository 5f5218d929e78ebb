//! `exma-loadgen` — a client that byte-verifies a running `exma-server`.
//!
//! It rebuilds the server's genome and index from the same
//! `--profile`/`--len`/`--seed`/`--k`/`--bidirectional` (synthesis is
//! deterministic) and compares every RESULTS payload with the bytes the
//! *sequential* k-step [`Executor`] — never cut, never merged, not the
//! lockstep engine the server runs — produces through the same wire
//! encoder. A server that answers from the wrong index, splits a merged
//! batch at the wrong offset or mis-answers a merged batch fails the run.
//!
//! The workload is fixed: [`REQUESTS`] frames of [`QUERIES`] mixed
//! queries, dealt round-robin to [`CONNS`] connections, each of which
//! sends its `i`-th frame at `start + i × PACE` without waiting for
//! earlier answers, so the server has submissions to merge. Latency is
//! the `benchmark/` package's `serve_small` workload's to measure.
//! `--deadline-us` stamps every QUERY with a budget; `--chaos` runs a
//! seeded [`FaultPlan`] sidecar of torn, truncated, stalled and corrupted
//! frames on sacrificial connections for the whole run. The run ends with
//! one line on stdout:
//!
//! ```text
//! cargo run --release -p exma-server -- --profile toy --port 7878 &
//! cargo run --release -p exma-loadgen -- --addr 127.0.0.1:7878
//! exma-loadgen requests 1000 ok 1000 busy 0 late 0 mismatches 0 errors 0 search_both 0 reverse_hits 0 chaos_frames 0 verified true
//! ```

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, EngineError, Executor, QueryBatch, QueryRequest};
use exma_genome::{
    Base, ErrorProfile, Genome, GenomeProfile, LongReadSimulator, SeededRng, ShortReadSimulator,
};
use exma_index::bidir::{decode_hit, Strand};
use exma_server::wire::{self, Opcode, HEADER_LEN};
use exma_server::FaultPlan;

/// Request frames in the workload.
const REQUESTS: usize = 1000;
/// Queries in every request frame.
const QUERIES: usize = 8;
/// The `max_hits` cap on every locate and SearchBoth query, so answer
/// sizes stay bounded however often a pattern occurs.
const LOCATE_CAP: u32 = 16;
/// Client connections; request `idx` goes to connection `idx % CONNS`.
const CONNS: usize = 4;
/// The gap between one connection's consecutive sends.
const PACE: Duration = Duration::from_millis(1);
/// Seed of the chaos sidecar's fault plan.
const CHAOS_SEED: u64 = 99;

const USAGE: &str = "\
exma-loadgen: send a fixed workload to a running exma-server and
byte-verify every answer against a locally rebuilt index

USAGE:
    cargo run --release -p exma-loadgen -- --addr HOST:PORT [OPTIONS]

OPTIONS:
    --addr HOST:PORT   the server (required); it must have been started
                       with the same --profile/--len/--seed/--k/
                       --bidirectional and no --max-hits-ceiling below 16
    --profile NAME     reference profile: toy, human_rel, picea_rel,
                       pinus_rel (default: toy)
    --len N            override the profile's length in bases
    --seed N           genome synthesis seed (default: 42)
    --k N              step width of the index (default: 4)
    --bidirectional    make every 4th query a strand-agnostic SearchBoth
                       over a simulated read drawn from either strand
    --deadline-us N    latency budget stamped on every QUERY frame; an
                       expired request answers LATE (default: 0 = none)
    --chaos RATE       run a fault-injection sidecar alongside: sacrificial
                       connections send frames sabotaged with probability
                       RATE (default: 0 = off)
    --help             print this help

Prints one summary line. Exits 1 if any answer differs from the local
oracle, any ERROR frame arrives or any request goes unanswered; 2 on a
usage error or a failed index build; 0 otherwise. BUSY and LATE answers
are counted, not failures.";

struct Args {
    addr: String,
    profile: GenomeProfile,
    seed: u64,
    k: usize,
    bidirectional: bool,
    deadline_us: u32,
    chaos: f64,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut profile = "toy".to_string();
    let mut len: Option<usize> = None;
    let mut args = Args {
        addr: String::new(),
        profile: GenomeProfile::toy(),
        seed: 42,
        k: 4,
        bidirectional: false,
        deadline_us: 0,
        chaos: 0.0,
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--profile" => profile = value("--profile")?,
            "--len" => len = Some(parse_num(&value("--len")?)?),
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--k" => args.k = parse_num(&value("--k")?)?,
            "--bidirectional" => args.bidirectional = true,
            "--deadline-us" => args.deadline_us = parse_num(&value("--deadline-us")?)?,
            "--chaos" => {
                args.chaos = value("--chaos")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("--chaos needs a probability in [0, 1]")?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr HOST:PORT is required".to_string());
    }
    args.profile =
        GenomeProfile::by_name(&profile).ok_or_else(|| format!("unknown profile '{profile}'"))?;
    if let Some(len) = len {
        if len == 0 {
            return Err("--len must be positive".to_string());
        }
        args.profile.len = len;
    }
    Ok(Some(args))
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad number '{raw}'"))
}

/// One request of the workload: the pre-encoded QUERY frame and the
/// oracle's byte-exact RESULTS payload, both fixed before the first send.
struct Request {
    frame: Vec<u8>,
    expected: Vec<u8>,
}

/// The deterministic mixed-op batch of request `idx`: counts, capped
/// locates and intervals over hit-biased substring patterns plus
/// random (mostly-miss) ones. Locates are always capped — open-loop
/// response sizes must stay bounded regardless of pattern frequency.
///
/// With a read pool (`--bidirectional`) the op cycle widens to four:
/// every fourth query is a capped `SearchBoth` over a simulated read —
/// short or long, drawn as sequenced from either strand, sent without
/// any client-side reverse complementing. The cap keeps the
/// both-strand answers bounded just like the locates.
fn request_batch(genome: &Genome, reads: Option<&[Vec<Base>]>, idx: usize) -> QueryBatch {
    let mut rng = SeededRng::new(0x10adu64 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut batch = QueryBatch::new();
    for q in 0..QUERIES {
        let cycle = if reads.is_some() { 4 } else { 3 };
        if (idx + q) % cycle == 3 {
            let pool = reads.expect("cycle 4 only with a read pool");
            let read = pool[rng.range(0, pool.len())].clone();
            batch.push(QueryRequest::search_both_capped(LOCATE_CAP), read);
            continue;
        }
        let len = rng.range(8, 28);
        let pattern: Vec<Base> = if rng.chance(0.7) {
            let start = rng.range(0, genome.len() - len + 1);
            genome.seq().slice(start, len)
        } else {
            (0..len).map(|_| rng.base()).collect()
        };
        match (idx + q) % cycle {
            0 => batch.push(QueryRequest::Count, pattern),
            1 => batch.push(QueryRequest::locate_capped(LOCATE_CAP), pattern),
            _ => batch.push(QueryRequest::Interval, pattern),
        }
    }
    batch
}

/// The `--bidirectional` pattern pool: error-free simulated reads —
/// Illumina-length shorts and a few ONT-style longs — whose 50/50
/// strand draw guarantees reverse-strand patterns in the workload.
/// Error-free so every read matches its template exactly and the
/// oracle's SearchBoth answers always contain the origin.
fn read_pool(genome: &Genome) -> Vec<Vec<Base>> {
    let short = ShortReadSimulator::new(36, ErrorProfile::error_free());
    let long = LongReadSimulator::new(150, 40, ErrorProfile::error_free());
    short
        .simulate(genome, 64, 0x5EAD)
        .into_iter()
        .chain(long.simulate(genome, 16, 0x10E6))
        .map(|read| read.bases.to_vec())
        .collect()
}

/// What one run saw. Every request ends as exactly one of `ok`, `busy`,
/// `late`, `mismatches` or `errors` (an ERROR frame or no answer at
/// all); `search_both` and `reverse_hits` count the workload's
/// SearchBoth queries and the reverse-strand hits in the oracle's
/// answers to them.
#[derive(Default)]
struct Summary {
    ok: usize,
    busy: usize,
    late: usize,
    mismatches: usize,
    errors: usize,
    search_both: u64,
    reverse_hits: u64,
    chaos_frames: u64,
}

impl Summary {
    /// Every request was answered, by no ERROR frame and by no RESULTS
    /// that differ from the oracle's.
    fn verified(&self) -> bool {
        self.mismatches == 0 && self.errors == 0
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exma-loadgen requests {REQUESTS} ok {} busy {} late {} mismatches {} errors {} \
             search_both {} reverse_hits {} chaos_frames {} verified {}",
            self.ok,
            self.busy,
            self.late,
            self.mismatches,
            self.errors,
            self.search_both,
            self.reverse_hits,
            self.chaos_frames,
            self.verified()
        )
    }
}

/// Builds every request up front: frames encoded, oracle answers
/// computed through the same wire encoder the server uses. Request ids
/// are the request indices. The summary returned holds the strand
/// counts; the outcome counts are still zero.
fn build_requests(
    genome: &Genome,
    reads: Option<&[Vec<Base>]>,
    oracle: &dyn Executor,
    deadline_us: u32,
) -> (Vec<Request>, Summary) {
    let mut summary = Summary::default();
    let requests = (0..REQUESTS)
        .map(|idx| {
            let batch = request_batch(genome, reads, idx);
            let mut payload = Vec::new();
            wire::encode_query_batch(&batch, &mut payload).expect("loadgen batches are encodable");
            let results = oracle.run(&batch).0;
            for i in 0..batch.len() {
                if matches!(batch.request(i), QueryRequest::SearchBoth { .. }) {
                    summary.search_both += 1;
                    summary.reverse_hits += results
                        .positions(i)
                        .iter()
                        .filter(|&&hit| decode_hit(hit).1 == Strand::Reverse)
                        .count() as u64;
                }
            }
            let mut expected = Vec::new();
            wire::encode_results_range(&results, 0, results.len(), &mut expected);
            Request {
                // Deadline 0 means no budget.
                frame: wire::query_frame(idx as u64, deadline_us, &payload),
                expected,
            }
        })
        .collect();
    (requests, summary)
}

/// A client socket with Nagle off: a small frame written while an
/// earlier one is still un-ACKed leaves at once instead of waiting in
/// the kernel for that ACK.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One connection's share of the workload: sends the `i`-th of
/// `assigned` at `start + i × PACE` while a reader thread scores the
/// answers. Returns the outcome counts.
fn run_connection(addr: &str, requests: &[Request], assigned: &[usize], start: Instant) -> Summary {
    let Ok((mut sender, read_half)) =
        connect(addr).and_then(|stream| Ok((stream.try_clone()?, stream)))
    else {
        return Summary {
            errors: assigned.len(),
            ..Summary::default()
        };
    };
    thread::scope(|scope| {
        let reader = scope.spawn(move || read_answers(read_half, requests, assigned));
        for (i, &idx) in assigned.iter().enumerate() {
            thread::sleep((start + PACE * i as u32).saturating_duration_since(Instant::now()));
            if sender.write_all(&requests[idx].frame).is_err() {
                // The reader sees the broken stream too and returns; the
                // unsent requests score as unanswered.
                break;
            }
        }
        reader.join().expect("reader thread")
    })
}

/// Reads and scores answers until every `assigned` request has one, the
/// peer closes, a frame answers nothing still pending, or the 30-second
/// stall guard trips (a hung server must fail the run, not wedge it).
/// A request left unanswered counts as an error.
fn read_answers(mut stream: TcpStream, requests: &[Request], assigned: &[usize]) -> Summary {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut tally = Summary::default();
    let mut pending = assigned.to_vec();
    let mut header_bytes = [0u8; HEADER_LEN];
    while !pending.is_empty() && stream.read_exact(&mut header_bytes).is_ok() {
        // Answers to this workload are a few KiB: a longer frame is
        // broken, not something to allocate for.
        let Ok(header) = wire::decode_header(&header_bytes, 1 << 20) else {
            break;
        };
        let mut payload = vec![0u8; header.payload_len as usize];
        let answered = pending
            .iter()
            .position(|&idx| idx as u64 == header.request_id);
        let (Ok(()), Some(slot)) = (stream.read_exact(&mut payload), answered) else {
            break;
        };
        let idx = pending.swap_remove(slot);
        *match Opcode::from_byte(header.opcode) {
            Ok(Opcode::Results) if payload == requests[idx].expected => &mut tally.ok,
            Ok(Opcode::Results) => &mut tally.mismatches,
            Ok(Opcode::Busy) => &mut tally.busy,
            Ok(Opcode::Late) => &mut tally.late,
            _ => &mut tally.errors,
        } += 1;
    }
    tally.errors += pending.len();
    tally
}

/// The fault-injection sidecar: until `stop` flips, sacrificial
/// connections send workload frames sabotaged per a seeded
/// [`FaultPlan`] — torn prefixes then hangups, silent stalls, flipped
/// bytes. Nothing here is asserted beyond the count of frames thrown;
/// the assertion is that the *verified* connections stay byte-exact
/// while this runs. Returns the frames thrown.
fn run_chaos(addr: &str, requests: &[Request], rate: f64, stop: &AtomicBool) -> u64 {
    let mut plan = FaultPlan::new(CHAOS_SEED, rate);
    let mut stalled: Vec<TcpStream> = Vec::new();
    let mut thrown = 0u64;
    for idx in (0..requests.len()).cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let frame = &requests[idx].frame;
        let fault = plan.decide(frame.len());
        let Ok(mut conn) = connect(addr) else {
            // Mid-drain or a refused connect: chaos just moves on.
            thread::sleep(Duration::from_millis(5));
            continue;
        };
        let _ = conn.write_all(&fault.wire_bytes(frame));
        thrown += 1;
        if fault.stalls() {
            // Park it half-sent; the server's idle reaper owns it now.
            // Cap the herd so a long run doesn't hoard sockets.
            if stalled.len() >= 32 {
                stalled.remove(0);
            }
            stalled.push(conn);
        } else if !fault.disconnects() {
            // Whatever the answer is — RESULTS to a different question,
            // ERROR, a hangup — drain a bounded amount and move on.
            let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
            let mut sink = [0u8; 4096];
            let _ = conn.read(&mut sink);
        }
        thread::sleep(Duration::from_millis(2));
    }
    thrown
}

/// Rebuilds the oracle, sends the workload (with the chaos sidecar when
/// asked) and counts the outcomes. Fails only if the oracle's index
/// cannot be built.
fn run(args: &Args) -> Result<Summary, EngineError> {
    let genome = Genome::synthesize(&args.profile, args.seed);
    let builder = EngineBuilder::new()
        .k(args.k)
        .bidirectional(args.bidirectional);
    let index = builder.build_index(&genome.text_with_sentinel())?;
    // The sequential k-step executor: never cut, never merged — not the
    // lockstep engine the server runs, so a lockstep bug cannot verify
    // itself.
    let oracle = builder.sequential().attach(&index)?;
    let reads = args.bidirectional.then(|| read_pool(&genome));
    let (requests, mut summary) =
        build_requests(&genome, reads.as_deref(), &*oracle, args.deadline_us);

    let stop_chaos = AtomicBool::new(false);
    summary.chaos_frames = thread::scope(|scope| {
        let (addr, requests) = (args.addr.as_str(), &requests);
        let chaos = (args.chaos > 0.0)
            .then(|| scope.spawn(|| run_chaos(addr, requests, args.chaos, &stop_chaos)));
        let start = Instant::now();
        let conns: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let assigned: Vec<usize> = (c..REQUESTS).step_by(CONNS).collect();
                    run_connection(addr, requests, &assigned, start)
                })
            })
            .collect();
        for conn in conns {
            let tally = conn.join().expect("client thread");
            summary.ok += tally.ok;
            summary.busy += tally.busy;
            summary.late += tally.late;
            summary.mismatches += tally.mismatches;
            summary.errors += tally.errors;
        }
        stop_chaos.store(true, Ordering::Relaxed);
        chaos.map_or(0, |h| h.join().expect("chaos thread"))
    });
    Ok(summary)
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => match run(&args) {
            Ok(summary) => {
                println!("{summary}");
                if summary.verified() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
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
    use exma_server::{Server, ServerConfig, ServerHandle};
    use std::sync::Arc;

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_default_and_parse() {
        let args = parse(&["--addr", "127.0.0.1:7878"]).unwrap().unwrap();
        assert_eq!(args.addr, "127.0.0.1:7878");
        assert_eq!(args.profile, GenomeProfile::toy());
        assert_eq!((args.seed, args.k, args.deadline_us), (42, 4, 0));
        assert!(!args.bidirectional);
        assert_eq!(args.chaos, 0.0);

        let argv = [
            "--addr",
            "h:1",
            "--profile",
            "human_rel",
            "--len",
            "50000",
            "--seed",
            "7",
            "--k",
            "2",
            "--bidirectional",
            "--deadline-us",
            "4000",
            "--chaos",
            "0.25",
        ];
        let args = parse(&argv).unwrap().unwrap();
        assert_eq!(args.profile.name, "human_rel");
        assert_eq!(args.profile.len, 50_000);
        assert_eq!((args.seed, args.k, args.deadline_us), (7, 2, 4000));
        assert!(args.bidirectional);
        assert_eq!(args.chaos, 0.25);

        assert!(parse(&["--help"]).unwrap().is_none());
        let bad: [&[&str]; 9] = [
            &[],
            &["--addr"],
            &["--addr", "h:1", "--frobnicate"],
            &["--addr", "h:1", "--rates", "1000"],
            &["--addr", "h:1", "--chaos", "1.5"],
            &["--addr", "h:1", "--chaos", "-0.1"],
            &["--addr", "h:1", "--seed", "x"],
            &["--addr", "h:1", "--profile", "nope"],
            &["--addr", "h:1", "--len", "0"],
        ];
        for argv in bad {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn request_batches_are_deterministic_and_mixed() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
        let a = request_batch(&genome, None, 3);
        let b = request_batch(&genome, None, 3);
        assert_eq!(a.len(), QUERIES);
        for q in 0..a.len() {
            assert_eq!(a.request(q), b.request(q));
            assert_eq!(a.pattern(q), b.pattern(q));
        }
        // Kind cycle is offset by the request index.
        assert_eq!(a.request(0), QueryRequest::Count);
        assert_eq!(a.request(1), QueryRequest::locate_capped(16));
        assert_eq!(a.request(2), QueryRequest::Interval);
        assert_ne!(
            request_batch(&genome, None, 4).request(0),
            QueryRequest::Count
        );
    }

    #[test]
    fn bidirectional_batches_interleave_search_both_reads() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
        let pool = read_pool(&genome);
        assert_eq!(pool.len(), 64 + 16);
        // The pool's 50/50 strand draw really does produce reverse
        // reads — the strand-agnostic contract has something to prove.
        let short = ShortReadSimulator::new(36, ErrorProfile::error_free());
        let origins = short.simulate(&genome, 64, 0x5EAD);
        assert!(origins.iter().any(|r| r.origin.reverse));
        assert!(origins.iter().any(|r| !r.origin.reverse));

        let a = request_batch(&genome, Some(&pool), 0);
        let b = request_batch(&genome, Some(&pool), 0);
        assert_eq!(a.len(), 8);
        for q in 0..a.len() {
            assert_eq!(a.request(q), b.request(q));
            assert_eq!(a.pattern(q), b.pattern(q));
        }
        // The widened cycle: every fourth query is a capped SearchBoth
        // whose pattern is one of the simulated reads, verbatim.
        for q in [3usize, 7] {
            assert_eq!(a.request(q), QueryRequest::search_both_capped(16));
            assert!(pool.iter().any(|read| read[..] == *a.pattern(q)));
        }
        assert_eq!(a.request(0), QueryRequest::Count);
        assert_eq!(a.request(1), QueryRequest::locate_capped(16));
        assert_eq!(a.request(2), QueryRequest::Interval);
    }

    /// An in-process server over the toy genome of `seed`, on an
    /// ephemeral port, as `exma-server --profile toy` would build it.
    fn serve(
        seed: u64,
        bidirectional: bool,
    ) -> (ServerHandle, thread::JoinHandle<std::io::Result<()>>) {
        let genome = Genome::synthesize(&GenomeProfile::toy(), seed);
        let builder = EngineBuilder::new().bidirectional(bidirectional);
        let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(index),
            builder,
            ServerConfig::default(),
        )
        .unwrap();
        let handle = server.handle().unwrap();
        (handle, thread::spawn(move || server.run()))
    }

    /// Runs the client against `handle` with `flags` and drains the
    /// server.
    fn verify(
        (handle, server): (ServerHandle, thread::JoinHandle<std::io::Result<()>>),
        flags: &[&str],
    ) -> Summary {
        let addr = handle.addr().to_string();
        let argv: Vec<&str> = ["--addr", addr.as_str()]
            .into_iter()
            .chain(flags.iter().copied())
            .collect();
        let summary = run(&parse(&argv).unwrap().unwrap()).unwrap();
        handle.shutdown();
        server.join().expect("server thread").unwrap();
        summary
    }

    #[test]
    fn a_matching_server_verifies_under_chaos_and_deadlines() {
        let forward = verify(serve(42, false), &[]);
        assert!(forward.verified(), "{forward}");
        assert_eq!(forward.ok, REQUESTS);
        assert_eq!(forward.search_both, 0);

        let flags = [
            "--bidirectional",
            "--chaos",
            "0.5",
            "--deadline-us",
            "100000",
        ];
        let both = verify(serve(42, true), &flags);
        assert!(both.verified(), "{both}");
        assert_eq!(both.ok + both.busy + both.late, REQUESTS);
        assert!(both.search_both > 0 && both.reverse_hits > 0, "{both}");
        assert!(both.chaos_frames > 0, "{both}");
    }

    #[test]
    fn a_server_over_another_genome_fails_verification() {
        let summary = verify(serve(43, false), &["--seed", "42"]);
        assert!(summary.mismatches > 0, "{summary}");
        assert!(!summary.verified());
    }
}
