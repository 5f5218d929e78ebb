//! `exma-loadgen` — an open-loop load generator for `exma-server`.
//!
//! The serving claim the server makes — continuous batching turns
//! trickles of small network submissions into engine-friendly merged
//! batches — is a claim about behavior *under an arrival process*, not
//! under a lockstep test. This binary measures it: requests are
//! scheduled by a seeded Poisson process at fixed target rates and
//! sent at their scheduled instants whether or not earlier responses
//! have returned (open loop, so a slow server cannot slow the clock
//! and hide its own queueing — the coordinated-omission trap).
//! Latency is measured from each request's *scheduled* arrival to its
//! response, so queueing delay is part of the number.
//!
//! Every RESULTS payload is byte-compared against a local oracle: the
//! generator rebuilds the identical genome and index from the same
//! `--profile`/`--len`/`--seed`/`--k` (synthesis is deterministic) and
//! encodes a run of each request on the *sequential* k-step
//! [`Executor`] — one query at a time, never cut short, not the
//! lockstep engine the server runs — through the same wire encoder. A
//! server that answers from the wrong index, splits a merged batch at
//! the wrong offset, reorders routes, or whose lockstep engine
//! mis-answers a merged batch fails the run.
//!
//! STATS frames before and after each rate turn the server's counters
//! into per-rate deltas; `mean_coalesced_batch` (submissions per
//! engine run) is the continuous-batching figure of merit.
//!
//! Robustness knobs ride along: `--deadline-us` stamps every QUERY
//! with a latency budget in its deadline extension and reports the deadline-miss
//! (LATE) rate separately from the latency percentiles — under
//! overload the honest summary is "p99 of the answered plus the
//! fraction shed", not a percentile over survivors only. BUSY draws a
//! bounded retry with jittered exponential backoff. `--chaos` runs a
//! seeded [`FaultPlan`] sidecar that feeds the server torn, truncated,
//! stalled, and corrupted frames on sacrificial connections for the
//! whole measurement window; the measured connections must stay
//! byte-verified throughout.
//!
//! ```text
//! # self-hosted: spins up a server in-process on an ephemeral port
//! cargo run --release -p exma-loadgen
//!
//! # against a separately started server (must share profile/len/seed/k
//! # and run without a tighter --max-hits-ceiling than --locate-cap)
//! cargo run --release -p exma-server -- --profile toy --port 7878 &
//! cargo run --release -p exma-loadgen -- --addr 127.0.0.1:7878
//! ```

mod json;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryOutput, QueryRequest};
use exma_genome::{
    Base, ErrorProfile, Genome, GenomeProfile, LongReadSimulator, SeededRng, ShortReadSimulator,
};
use exma_index::bidir::{decode_hit, is_palindromic, Strand};
use exma_server::wire::{self, Opcode, StatsSnapshot, HEADER_LEN};
use exma_server::{FaultPlan, Server, ServerConfig, ServerHandle};

use crate::json::Json;

const USAGE: &str = "\
exma-loadgen: open-loop load generator and verifier for exma-server

USAGE:
    cargo run --release -p exma-loadgen [-- OPTIONS]

OPTIONS:
    --addr HOST:PORT   target a running exma-server; it must have been
                       started with the same --profile/--len/--seed/--k
                       and no --max-hits-ceiling below --locate-cap
                       (default: self-host a server in-process)
    --profile NAME     reference profile: toy, human_rel, picea_rel,
                       pinus_rel (default: toy)
    --len N            override the profile's length in bases
    --seed N           genome synthesis seed (default: 42)
    --k N              step width of the index (default: 4)
    --rates LIST       target request rates in req/s, comma-separated
                       (default: 1000,4000)
    --requests N       requests per rate (default: 1000)
    --conns N          client connections (default: 4)
    --queries N        queries per request frame (default: 8)
    --locate-cap N     max_hits cap on every locate query (default: 16)
    --bidirectional    serve and verify a bidirectional (both-strand)
                       index: every 4th query is a strand-agnostic
                       SearchBoth over simulated short/long reads drawn
                       as sequenced from either strand (never
                       client-side reverse-complemented), the chaos
                       sidecar sabotages SearchBoth frames too, and the
                       JSON gains a strand_mix block; a --addr server
                       must also have been started --bidirectional
    --arrival-seed N   seed of the Poisson arrival process (default: 7)
    --deadline-us N    per-request latency budget stamped on every
                       QUERY frame; expired requests come back LATE
                       and count as deadline misses (default: 0 = none)
    --busy-retries N   retry a BUSY answer up to N times with jittered
                       exponential backoff (default: 3; 0 = give up)
    --chaos RATE       run a fault-injection sidecar for the whole
                       measurement window: sacrificial connections
                       send frames sabotaged with probability RATE
                       (torn/truncated/stalled/corrupted) while the
                       measured load must stay byte-verified
                       (default: 0 = off)
    --chaos-seed N     seed of the fault plan (default: 99)
    --linger-us N      self-hosted server's coalescing window (default:
                       the server's own, 0; ignored with --addr)
    --queue-depth N    self-hosted server's admission queue (default:
                       1024; ignored with --addr)
    --no-verify        skip the byte-exact oracle comparison
    --out PATH         output JSON path (default: LOAD_exma.json)
    --help             print this help

Exits non-zero if any response diverges from the local oracle, any
ERROR frame arrives, or any request goes unanswered.";

struct Args {
    addr: Option<String>,
    profile: String,
    len: Option<usize>,
    seed: u64,
    k: usize,
    rates: Vec<f64>,
    requests: usize,
    conns: usize,
    queries: usize,
    locate_cap: u32,
    bidirectional: bool,
    arrival_seed: u64,
    deadline_us: u32,
    busy_retries: u32,
    chaos: f64,
    chaos_seed: u64,
    linger: Duration,
    queue_depth: usize,
    verify: bool,
    out: PathBuf,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        addr: None,
        profile: "toy".to_string(),
        len: None,
        seed: 42,
        k: 4,
        rates: vec![1000.0, 4000.0],
        requests: 1000,
        conns: 4,
        queries: 8,
        locate_cap: 16,
        bidirectional: false,
        arrival_seed: 7,
        deadline_us: 0,
        busy_retries: 3,
        chaos: 0.0,
        chaos_seed: 99,
        linger: ServerConfig::default().linger,
        queue_depth: 1024,
        verify: true,
        out: PathBuf::from("LOAD_exma.json"),
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--profile" => args.profile = value("--profile")?,
            "--len" => args.len = Some(parse_num(&value("--len")?)?),
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--k" => args.k = parse_num(&value("--k")?)?,
            "--rates" => {
                args.rates = value("--rates")?
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|&r| r.is_finite() && r > 0.0)
                            .ok_or_else(|| format!("bad rate '{part}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--requests" => args.requests = parse_num(&value("--requests")?)?,
            "--conns" => args.conns = parse_num(&value("--conns")?)?,
            "--queries" => args.queries = parse_num(&value("--queries")?)?,
            "--locate-cap" => args.locate_cap = parse_num(&value("--locate-cap")?)?,
            "--bidirectional" => args.bidirectional = true,
            "--arrival-seed" => args.arrival_seed = parse_num(&value("--arrival-seed")?)?,
            "--deadline-us" => args.deadline_us = parse_num(&value("--deadline-us")?)?,
            "--busy-retries" => args.busy_retries = parse_num(&value("--busy-retries")?)?,
            "--chaos" => {
                args.chaos = value("--chaos")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("--chaos needs a probability in [0, 1]")?;
            }
            "--chaos-seed" => args.chaos_seed = parse_num(&value("--chaos-seed")?)?,
            "--linger-us" => {
                args.linger = Duration::from_micros(parse_num(&value("--linger-us")?)?)
            }
            "--queue-depth" => args.queue_depth = parse_num(&value("--queue-depth")?)?,
            "--no-verify" => args.verify = false,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.rates.is_empty() {
        return Err("--rates needs at least one rate".to_string());
    }
    if args.requests == 0 || args.conns == 0 || args.queries == 0 {
        return Err("--requests, --conns and --queries must be positive".to_string());
    }
    Ok(Some(args))
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad number '{raw}'"))
}

fn profile_for(name: &str, len: Option<usize>) -> Result<GenomeProfile, String> {
    let mut profile = match name {
        "toy" => GenomeProfile::toy(),
        "human_rel" => GenomeProfile::human_rel(),
        "picea_rel" => GenomeProfile::picea_rel(),
        "pinus_rel" => GenomeProfile::pinus_rel(),
        other => return Err(format!("unknown profile '{other}'")),
    };
    if let Some(len) = len {
        if len == 0 {
            return Err("--len must be positive".to_string());
        }
        profile.len = len;
    }
    Ok(profile)
}

/// One request of the workload: the pre-encoded QUERY frame and the
/// oracle's byte-exact RESULTS payload. Both are fixed before the
/// clock starts so the hot loop does no encoding.
struct Request {
    frame: Vec<u8>,
    expected: Option<Vec<u8>>,
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
fn request_batch(
    genome: &Genome,
    reads: Option<&[Vec<Base>]>,
    idx: usize,
    queries: usize,
    locate_cap: u32,
) -> QueryBatch {
    let mut rng = SeededRng::new(0x10adu64 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut batch = QueryBatch::new();
    for q in 0..queries {
        let cycle = if reads.is_some() { 4 } else { 3 };
        if (idx + q) % cycle == 3 {
            let pool = reads.expect("cycle 4 only with a read pool");
            let read = pool[rng.range(0, pool.len())].clone();
            batch.push(QueryRequest::search_both_capped(locate_cap), read);
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
            1 => batch.push(QueryRequest::locate_capped(locate_cap), pattern),
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

/// The strand composition of the workload's SearchBoth share, from the
/// oracle's own answers (zero hit counts under `--no-verify`): the
/// per-strand hit totals, the palindromic patterns the dedup rule
/// collapses to forward-only answers, and the answers the cap
/// truncated.
#[derive(Default)]
struct StrandMix {
    search_both_queries: u64,
    forward_hits: u64,
    reverse_hits: u64,
    truncated_answers: u64,
    palindromic_patterns: u64,
}

/// Builds every request up front: frames encoded, oracle answers
/// (optionally) computed through the same wire encoder the server
/// uses, the strand mix tallied from them. Request ids are the
/// request indices.
fn build_requests(
    genome: &Genome,
    reads: Option<&[Vec<Base>]>,
    oracle: Option<&dyn Executor>,
    args: &Args,
) -> (Vec<Request>, StrandMix) {
    let mut mix = StrandMix::default();
    let requests = (0..args.requests)
        .map(|idx| {
            let batch = request_batch(genome, reads, idx, args.queries, args.locate_cap);
            let mut payload = Vec::new();
            wire::encode_query_batch(&batch, &mut payload).expect("loadgen batches are encodable");
            let results = oracle.map(|exec| exec.run(&batch).0);
            for i in 0..batch.len() {
                if !matches!(batch.request(i), QueryRequest::SearchBoth { .. }) {
                    continue;
                }
                mix.search_both_queries += 1;
                mix.palindromic_patterns += u64::from(is_palindromic(batch.pattern(i)));
                if let Some(results) = &results {
                    for &hit in results.positions(i) {
                        match decode_hit(hit).1 {
                            Strand::Forward => mix.forward_hits += 1,
                            Strand::Reverse => mix.reverse_hits += 1,
                        }
                    }
                    if matches!(
                        results.output(i),
                        QueryOutput::BothLocated { truncated: true }
                    ) {
                        mix.truncated_answers += 1;
                    }
                }
            }
            let expected = results.map(|results| {
                let mut expected = Vec::new();
                wire::encode_results_range(&results, 0, results.len(), &mut expected);
                expected
            });
            Request {
                // A QUERY frame; deadline 0 means no budget.
                frame: wire::query_frame(idx as u64, args.deadline_us, &payload),
                expected,
            }
        })
        .collect();
    (requests, mix)
}

/// Cumulative Poisson arrival offsets: `schedule[i]` is request `i`'s
/// intended send instant relative to the run start, exponential
/// inter-arrivals at `rate` per second.
fn arrival_schedule(requests: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SeededRng::new(seed);
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            // f64() is in [0, 1); flip to (0, 1] so ln never sees zero.
            let dt = -(1.0 - rng.f64()).ln() / rate;
            at += dt;
            Duration::from_secs_f64(at)
        })
        .collect()
}

fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            return;
        };
        thread::sleep(remaining);
    }
}

/// What one response turned out to be.
enum Outcome {
    /// RESULTS that matched the oracle (or went unchecked): latency
    /// from scheduled arrival to last payload byte.
    Ok(Duration),
    /// BUSY that stayed BUSY through every retry.
    Busy,
    /// A LATE frame: the server shed the request as past its deadline.
    /// Reported as a miss rate, never folded into the percentiles.
    Late,
    /// RESULTS that diverged from the oracle.
    Mismatch,
    /// An ERROR frame, an unanswered request, or a broken connection.
    Error,
}

/// Bounded jittered-exponential-backoff retry on BUSY.
#[derive(Clone, Copy)]
struct RetryPolicy {
    /// Retry attempts after the first BUSY; 0 gives up immediately.
    attempts: u32,
    /// Backoff before retry `n` is `base << n`, scaled by a uniform
    /// jitter in `[0.5, 1.5)` so synchronized clients desynchronize.
    base: Duration,
}

/// Everything measured at one target rate.
struct RateOutcome {
    target_rps: f64,
    offered_rps: f64,
    achieved_rps: f64,
    ok: usize,
    busy: usize,
    late: usize,
    mismatches: usize,
    errors: usize,
    /// BUSY retries sent across every connection.
    retries: u64,
    /// Sorted OK latencies in milliseconds.
    latencies_ms: Vec<f64>,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

/// Runs one rate: `conns` connections interleave the request list
/// round-robin, each sending on schedule from its own thread while its
/// reader thread collects responses until every assigned id is
/// answered (or the 30 s read timeout calls the rest lost).
fn run_rate(
    addr: &str,
    requests: &[Request],
    schedule: &[Duration],
    conns: usize,
    target_rps: f64,
    retry: RetryPolicy,
    stats_conn: &mut ControlConn,
) -> RateOutcome {
    let before = stats_conn.snapshot();
    let start = Instant::now();
    let per_conn: Vec<(Vec<Outcome>, u64, Option<Instant>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let assigned: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                    run_connection(addr, requests, schedule, &assigned, start, retry)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let after = stats_conn.snapshot();

    let mut ok = 0;
    let mut busy = 0;
    let mut late = 0;
    let mut mismatches = 0;
    let mut errors = 0;
    let mut retries = 0;
    let mut latencies_ms = Vec::new();
    let mut last_done = start;
    for (outcomes, conn_retries, conn_last) in per_conn {
        retries += conn_retries;
        if let Some(t) = conn_last {
            last_done = last_done.max(t);
        }
        for outcome in outcomes {
            match outcome {
                Outcome::Ok(latency) => {
                    ok += 1;
                    latencies_ms.push(latency.as_secs_f64() * 1e3);
                }
                Outcome::Busy => busy += 1,
                Outcome::Late => late += 1,
                Outcome::Mismatch => mismatches += 1,
                Outcome::Error => errors += 1,
            }
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    let wall = (last_done - start).as_secs_f64();
    RateOutcome {
        target_rps,
        offered_rps: requests.len() as f64 / schedule.last().expect("nonempty").as_secs_f64(),
        achieved_rps: if wall > 0.0 {
            (ok + busy + late) as f64 / wall
        } else {
            0.0
        },
        ok,
        busy,
        late,
        mismatches,
        errors,
        retries,
        latencies_ms,
        before,
        after,
    }
}

/// A client socket with Nagle off: a small frame written while an
/// earlier one is still un-ACKed leaves at once instead of waiting in
/// the kernel for that ACK.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One connection's share of a rate run. Returns an outcome per
/// assigned request, the BUSY retries sent, and the instant the last
/// response landed.
fn run_connection(
    addr: &str,
    requests: &[Request],
    schedule: &[Duration],
    assigned: &[usize],
    start: Instant,
    retry: RetryPolicy,
) -> (Vec<Outcome>, u64, Option<Instant>) {
    let Ok(stream) = connect(addr) else {
        return (assigned.iter().map(|_| Outcome::Error).collect(), 0, None);
    };
    let Ok(read_half) = stream.try_clone() else {
        return (assigned.iter().map(|_| Outcome::Error).collect(), 0, None);
    };

    // The reader runs concurrently with the sender — open loop means
    // many requests can be in flight on this one connection.
    let expected = assigned.len();
    let reader = thread::spawn(move || read_responses(read_half, expected));

    let mut sender = stream;
    for &idx in assigned {
        sleep_until(start + schedule[idx]);
        if sender.write_all(&requests[idx].frame).is_err() {
            // The reader sees the broken stream too and returns; the
            // unsent requests score as unanswered below.
            break;
        }
    }
    let responses = reader.join().expect("reader thread");

    let mut last_done = None;
    let mut outcomes: Vec<Outcome> = assigned
        .iter()
        .map(|&idx| {
            let Some((opcode, payload, at)) = responses
                .iter()
                .find_map(|r| (r.request_id == idx as u64).then_some((r.opcode, &r.payload, r.at)))
            else {
                return Outcome::Error; // unanswered
            };
            last_done = Some(last_done.map_or(at, |t: Instant| t.max(at)));
            match opcode {
                Ok(Opcode::Results) => match &requests[idx].expected {
                    Some(expected) if payload != expected => Outcome::Mismatch,
                    _ => Outcome::Ok(at - (start + schedule[idx])),
                },
                Ok(Opcode::Busy) => Outcome::Busy,
                Ok(Opcode::Late) => Outcome::Late,
                _ => Outcome::Error,
            }
        })
        .collect();

    // BUSY retry pass, after the open-loop schedule completes so the
    // retries never perturb it: bounded attempts, jittered exponential
    // backoff, latency still measured from the original scheduled
    // arrival (the retry wait is part of the client's experience).
    let mut retries = 0;
    if retry.attempts > 0 {
        let mut rng = SeededRng::new(0xB05Fu64 ^ assigned.first().copied().unwrap_or(0) as u64);
        let _ = sender.set_read_timeout(Some(Duration::from_secs(5)));
        for (slot, &idx) in assigned.iter().enumerate() {
            if !matches!(outcomes[slot], Outcome::Busy) {
                continue;
            }
            for attempt in 0..retry.attempts {
                let jitter = 0.5 + rng.f64();
                thread::sleep(
                    Duration::from_secs_f64(retry.base.as_secs_f64() * jitter)
                        * 2u32.pow(attempt.min(16)),
                );
                retries += 1;
                if sender.write_all(&requests[idx].frame).is_err() {
                    outcomes[slot] = Outcome::Error;
                    break;
                }
                // Nothing else is in flight here, so the next frame is
                // this retry's answer.
                let Some(response) = read_responses(sender.try_clone().expect("clone"), 1).pop()
                else {
                    outcomes[slot] = Outcome::Error;
                    break;
                };
                debug_assert_eq!(response.request_id, idx as u64);
                outcomes[slot] = match response.opcode {
                    Ok(Opcode::Results) => match &requests[idx].expected {
                        Some(expected) if &response.payload != expected => Outcome::Mismatch,
                        _ => {
                            last_done = Some(
                                last_done.map_or(response.at, |t: Instant| t.max(response.at)),
                            );
                            Outcome::Ok(response.at - (start + schedule[idx]))
                        }
                    },
                    Ok(Opcode::Busy) => Outcome::Busy,
                    Ok(Opcode::Late) => Outcome::Late,
                    _ => Outcome::Error,
                };
                if !matches!(outcomes[slot], Outcome::Busy) {
                    break;
                }
            }
        }
    }
    (outcomes, retries, last_done)
}

/// One frame as the reader saw it.
struct Response {
    request_id: u64,
    opcode: Result<Opcode, wire::WireError>,
    payload: Vec<u8>,
    at: Instant,
}

/// Reads until `expected` frames arrive, the peer closes, or the
/// 30-second stall guard trips (a hung server must fail the run, not
/// wedge it).
fn read_responses(mut stream: TcpStream, expected: usize) -> Vec<Response> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut responses = Vec::with_capacity(expected);
    let mut header_bytes = [0u8; HEADER_LEN];
    while responses.len() < expected {
        if read_exact(&mut stream, &mut header_bytes).is_err() {
            break;
        }
        let Ok(header) = wire::decode_header(&header_bytes, usize::MAX) else {
            break;
        };
        let mut payload = vec![0u8; header.payload_len as usize];
        if read_exact(&mut stream, &mut payload).is_err() {
            break;
        }
        responses.push(Response {
            request_id: header.request_id,
            opcode: Opcode::from_byte(header.opcode),
            payload,
            at: Instant::now(),
        });
    }
    responses
}

fn read_exact(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The fault-injection sidecar: until `stop` flips, sacrificial
/// connections send workload frames sabotaged per a seeded
/// [`FaultPlan`] — torn prefixes then hangups, silent stalls, flipped
/// bytes. Nothing here is asserted or measured beyond the count of
/// frames thrown; the assertion is that the *measured* connections
/// stay byte-verified while this runs. Returns the frames thrown.
fn run_chaos(addr: &str, requests: &[Request], seed: u64, rate: f64, stop: &AtomicBool) -> u64 {
    let mut plan = FaultPlan::new(seed, rate);
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

/// A dedicated connection for STATS probes, kept apart from the load
/// connections so probes never queue behind load frames.
struct ControlConn {
    stream: TcpStream,
    next_id: u64,
}

impl ControlConn {
    fn connect(addr: &str) -> std::io::Result<ControlConn> {
        Ok(ControlConn {
            stream: connect(addr)?,
            next_id: 1 << 62,
        })
    }

    fn snapshot(&mut self) -> StatsSnapshot {
        let id = self.next_id;
        self.next_id += 1;
        self.stream
            .write_all(&wire::frame(Opcode::Stats, id, &[]))
            .expect("stats request");
        let mut header_bytes = [0u8; HEADER_LEN];
        read_exact(&mut self.stream, &mut header_bytes).expect("stats header");
        let header = wire::decode_header(&header_bytes, usize::MAX).expect("stats frame");
        assert_eq!(Opcode::from_byte(header.opcode), Ok(Opcode::StatsReply));
        assert_eq!(header.request_id, id);
        let mut payload = vec![0u8; header.payload_len as usize];
        read_exact(&mut self.stream, &mut payload).expect("stats payload");
        wire::decode_stats(&payload).expect("stats decode")
    }
}

/// Nearest-rank percentile of an already-sorted sample; NaN (rendered
/// as JSON null) when the sample is empty.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Submissions per engine run between two snapshots — the
/// continuous-batching figure of merit.
fn mean_coalesced(before: &StatsSnapshot, after: &StatsSnapshot) -> f64 {
    let batches = after.batches_run.saturating_sub(before.batches_run);
    let coalesced = after
        .submissions_coalesced
        .saturating_sub(before.submissions_coalesced);
    if batches == 0 {
        return f64::NAN;
    }
    coalesced as f64 / batches as f64
}

/// The server's own account of a RESULTS frame between two snapshots:
/// mean queue wait (frame read → engine start), engine run and reply
/// (engine end → socket write returned), in µs. What the client-side
/// p50 shows beyond their sum is spent outside the server's threads.
fn stage_means_us(before: &StatsSnapshot, after: &StatsSnapshot) -> [f64; 3] {
    let replies = after.replies_timed.saturating_sub(before.replies_timed);
    [
        (after.queue_wait_ns, before.queue_wait_ns),
        (after.engine_ns, before.engine_ns),
        (after.reply_ns, before.reply_ns),
    ]
    .map(|(after, before)| after.saturating_sub(before) as f64 / 1e3 / replies as f64)
}

fn rate_entry(outcome: &RateOutcome) -> Json {
    let (before, after) = (&outcome.before, &outcome.after);
    let lat = &outcome.latencies_ms;
    let mean_ms = if lat.is_empty() {
        f64::NAN
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    Json::obj()
        .field("target_rps", outcome.target_rps)
        .field("offered_rps", outcome.offered_rps)
        .field("achieved_rps", outcome.achieved_rps)
        .field(
            "requests",
            outcome.ok + outcome.busy + outcome.late + outcome.mismatches + outcome.errors,
        )
        .field("ok", outcome.ok)
        .field("busy", outcome.busy)
        .field("late", outcome.late)
        .field("mismatches", outcome.mismatches)
        .field("errors", outcome.errors)
        .field("busy_retries", outcome.retries)
        .field(
            // Misses over everything offered — separate from (and
            // alongside) percentiles that only cover the answered.
            "deadline_miss_rate",
            outcome.late as f64
                / (outcome.ok + outcome.busy + outcome.late + outcome.mismatches + outcome.errors)
                    .max(1) as f64,
        )
        .field(
            "latency_ms",
            Json::obj()
                .field("p50", percentile(lat, 0.50))
                .field("p99", percentile(lat, 0.99))
                .field("p999", percentile(lat, 0.999))
                .field("max", lat.last().copied().unwrap_or(f64::NAN))
                .field("mean", mean_ms),
        )
        .field(
            "stats_delta",
            Json::obj()
                .field(
                    "batches_run",
                    after.batches_run.saturating_sub(before.batches_run),
                )
                .field(
                    "submissions_coalesced",
                    after
                        .submissions_coalesced
                        .saturating_sub(before.submissions_coalesced),
                )
                .field("mean_coalesced_batch", mean_coalesced(before, after))
                .field("max_coalesced_seen", after.max_coalesced)
                .field(
                    "queries_executed",
                    after
                        .queries_executed
                        .saturating_sub(before.queries_executed),
                )
                .field(
                    "positions_returned",
                    after
                        .positions_returned
                        .saturating_sub(before.positions_returned),
                )
                .field(
                    "search_rounds",
                    after.search_rounds.saturating_sub(before.search_rounds),
                )
                .field(
                    "resolve_rounds",
                    after.resolve_rounds.saturating_sub(before.resolve_rounds),
                )
                .field(
                    "late_dropped",
                    after.late_dropped.saturating_sub(before.late_dropped),
                )
                .field(
                    "writer_shed",
                    after.writer_shed.saturating_sub(before.writer_shed),
                )
                .field(
                    "conns_reaped",
                    after.conns_reaped.saturating_sub(before.conns_reaped),
                )
                .field(
                    "goaway_sent",
                    after.goaway_sent.saturating_sub(before.goaway_sent),
                ),
        )
}

fn run(args: &Args) -> ExitCode {
    let profile = match profile_for(&args.profile, args.len) {
        Ok(profile) => profile,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[loadgen] synthesizing {} ({} bp, seed {}) and building the k={}{} oracle...",
        profile.name,
        profile.len,
        args.seed,
        args.k,
        if args.bidirectional {
            " bidirectional"
        } else {
            ""
        }
    );
    let genome = Genome::synthesize(&profile, args.seed);
    let builder = EngineBuilder::new()
        .k(args.k)
        .bidirectional(args.bidirectional);
    let index = match builder.build_index(&genome.text_with_sentinel()) {
        Ok(index) => Arc::new(index),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The sequential k-step executor: never cut, never merged — not the
    // lockstep engine the server runs, so a lockstep bug cannot verify
    // itself.
    let oracle = args
        .verify
        .then(|| builder.sequential().attach(&index).expect("oracle attach"));
    let reads = args.bidirectional.then(|| read_pool(&genome));
    let (requests, strand_mix) = build_requests(&genome, reads.as_deref(), oracle.as_deref(), args);

    // Self-host unless --addr points at a running server.
    let mut hosted: Option<(ServerHandle, thread::JoinHandle<std::io::Result<()>>)> = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let config = ServerConfig {
                queue_depth: args.queue_depth,
                linger: args.linger,
                // Under chaos, stalled sacrificial connections must be
                // reaped within the run, not after a minute.
                idle_timeout: if args.chaos > 0.0 {
                    Some(Duration::from_secs(2))
                } else {
                    ServerConfig::default().idle_timeout
                },
                ..ServerConfig::default()
            };
            let server = match Server::bind("127.0.0.1:0", Arc::clone(&index), builder, config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("error: cannot self-host: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let handle = server.handle().expect("local addr");
            let addr = handle.addr().to_string();
            hosted = Some((handle, thread::spawn(move || server.run())));
            eprintln!("[loadgen] self-hosted server on {addr}");
            addr
        }
    };

    let mut stats_conn = match ControlConn::connect(&addr) {
        Ok(conn) => conn,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let retry = RetryPolicy {
        attempts: args.busy_retries,
        base: Duration::from_micros(500),
    };
    let mut rate_entries = Vec::new();
    let mut failed = false;
    let first_before = stats_conn.snapshot();
    let stop_chaos = AtomicBool::new(false);
    let chaos_thrown = thread::scope(|scope| {
        // The sidecar spans every rate: the measured load below runs
        // against a server under continuous attack.
        let chaos = (args.chaos > 0.0).then(|| {
            let (addr, requests, stop) = (&addr, &requests, &stop_chaos);
            eprintln!(
                "[loadgen] chaos sidecar on: fault rate {} (seed {})",
                args.chaos, args.chaos_seed
            );
            scope.spawn(move || run_chaos(addr, requests, args.chaos_seed, args.chaos, stop))
        });
        for (ri, &rate) in args.rates.iter().enumerate() {
            let schedule = arrival_schedule(
                args.requests,
                rate,
                args.arrival_seed ^ (ri as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
            );
            eprintln!(
                "[loadgen] rate {rate} req/s: {} requests x {} queries over {} conns...",
                args.requests, args.queries, args.conns
            );
            let outcome = run_rate(
                &addr,
                &requests,
                &schedule,
                args.conns,
                rate,
                retry,
                &mut stats_conn,
            );
            let stages = stage_means_us(&outcome.before, &outcome.after);
            eprintln!(
                "[loadgen]   ok {} busy {} late {} mismatch {} error {} | retries {} | p50 {:.2} ms p99 {:.2} ms p999 {:.2} ms | {:.0} req/s achieved | {:.2} subs/batch | server means: queue {:.0} us, engine {:.0} us, reply {:.0} us | {:.0} of {:.0} MiB on huge pages",
                outcome.ok,
                outcome.busy,
                outcome.late,
                outcome.mismatches,
                outcome.errors,
                outcome.retries,
                percentile(&outcome.latencies_ms, 0.50),
                percentile(&outcome.latencies_ms, 0.99),
                percentile(&outcome.latencies_ms, 0.999),
                outcome.achieved_rps,
                mean_coalesced(&outcome.before, &outcome.after),
                stages[0],
                stages[1],
                stages[2],
                outcome.after.heap_huge_bytes as f64 / (1024.0 * 1024.0),
                outcome.after.heap_total as f64 / (1024.0 * 1024.0),
            );
            failed |= outcome.mismatches > 0 || outcome.errors > 0;
            rate_entries.push(rate_entry(&outcome));
        }
        stop_chaos.store(true, Ordering::Relaxed);
        chaos.map(|h| h.join().expect("chaos thread"))
    });
    if let Some(thrown) = chaos_thrown {
        eprintln!("[loadgen] chaos sidecar threw {thrown} sabotaged frames");
    }
    let last_after = stats_conn.snapshot();

    let mut doc = Json::obj()
        .field("schema_version", 8u64)
        .field("mode", "loadgen")
        .field("profile", profile.name.as_str())
        .field("genome_len", genome.len())
        .field("seed", args.seed)
        .field("k", args.k)
        .field("bidirectional", args.bidirectional)
        .field(
            "server",
            if args.addr.is_some() {
                addr.as_str()
            } else {
                "self-hosted"
            },
        )
        .field("connections", args.conns)
        .field("requests_per_rate", args.requests)
        .field("queries_per_request", args.queries)
        .field("locate_cap", args.locate_cap as u64)
        .field("arrival_seed", args.arrival_seed)
        .field("deadline_us", args.deadline_us as u64)
        .field("busy_retries", args.busy_retries as u64)
        .field("chaos_rate", args.chaos)
        .field("chaos_frames", chaos_thrown.unwrap_or(0))
        .field("verified_against_oracle", args.verify && !failed)
        .field(
            "mean_coalesced_batch",
            mean_coalesced(&first_before, &last_after),
        );
    if args.bidirectional {
        doc = doc.field(
            "strand_mix",
            Json::obj()
                .field("search_both_queries", strand_mix.search_both_queries)
                .field("forward_hits", strand_mix.forward_hits)
                .field("reverse_hits", strand_mix.reverse_hits)
                .field("truncated_answers", strand_mix.truncated_answers)
                .field("palindromic_patterns", strand_mix.palindromic_patterns),
        );
    }
    let doc = doc.field("rates", rate_entries);
    let rendered = format!("{doc}\n");
    if let Err(err) = std::fs::write(&args.out, rendered) {
        eprintln!("failed to write {}: {err}", args.out.display());
        return ExitCode::from(2);
    }
    eprintln!("[loadgen] wrote {}", args.out.display());

    if let Some((handle, thread)) = hosted {
        // The drain no longer needs clients gone first (the server
        // force-closes and joins them), but closing our control
        // connection is still the polite order.
        drop(stats_conn);
        handle.shutdown();
        if thread.join().expect("server thread").is_err() {
            failed = true;
        }
    }
    if failed {
        eprintln!("loadgen FAILED: mismatches or errors above");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
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
        assert!(args.addr.is_none());
        assert!(args.verify);
        assert_eq!(args.rates, vec![1000.0, 4000.0]);
        assert_eq!(args.requests, 1000);
        assert_eq!(args.out, PathBuf::from("LOAD_exma.json"));

        let argv = [
            "--addr",
            "127.0.0.1:7878",
            "--rates",
            "500,2500.5",
            "--requests",
            "64",
            "--conns",
            "2",
            "--queries",
            "5",
            "--locate-cap",
            "9",
            "--bidirectional",
            "--deadline-us",
            "4000",
            "--busy-retries",
            "5",
            "--chaos",
            "0.25",
            "--chaos-seed",
            "11",
            "--no-verify",
            "--out",
            "/tmp/l.json",
        ];
        let args = parse_args(argv.iter().map(|s| s.to_string()))
            .unwrap()
            .unwrap();
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(args.rates, vec![500.0, 2500.5]);
        assert_eq!(args.requests, 64);
        assert_eq!(args.conns, 2);
        assert_eq!(args.queries, 5);
        assert_eq!(args.locate_cap, 9);
        assert!(args.bidirectional);
        assert_eq!(args.deadline_us, 4000);
        assert_eq!(args.busy_retries, 5);
        assert_eq!(args.chaos, 0.25);
        assert_eq!(args.chaos_seed, 11);
        assert!(!args.verify);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(["--frobnicate".to_string()].into_iter()).is_err());
        assert!(parse_args(["--rates".to_string(), "0".to_string()].into_iter()).is_err());
        assert!(parse_args(["--rates".to_string(), "x".to_string()].into_iter()).is_err());
        assert!(parse_args(["--requests".to_string(), "0".to_string()].into_iter()).is_err());
        assert!(parse_args(["--chaos".to_string(), "1.5".to_string()].into_iter()).is_err());
        assert!(parse_args(["--chaos".to_string(), "-0.1".to_string()].into_iter()).is_err());
        assert!(parse_args(["--help".to_string()].into_iter())
            .unwrap()
            .is_none());
    }

    #[test]
    fn arrival_schedule_is_monotonic_and_near_rate() {
        let schedule = arrival_schedule(4000, 1000.0, 7);
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        // 4000 arrivals at 1000/s should span ~4 s; the Poisson spread
        // at n = 4000 stays well within +-20%.
        let span = schedule.last().unwrap().as_secs_f64();
        assert!((3.2..=4.8).contains(&span), "span {span}");
        // Determinism: the same seed replays the same process.
        assert_eq!(schedule, arrival_schedule(4000, 1000.0, 7));
        assert_ne!(schedule, arrival_schedule(4000, 1000.0, 8));
    }

    #[test]
    fn request_batches_are_deterministic_and_mixed() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
        let a = request_batch(&genome, None, 3, 9, 16);
        let b = request_batch(&genome, None, 3, 9, 16);
        assert_eq!(a.len(), 9);
        for q in 0..a.len() {
            assert_eq!(a.request(q), b.request(q));
            assert_eq!(a.pattern(q), b.pattern(q));
        }
        // Kind cycle is offset by the request index.
        assert_eq!(a.request(0), QueryRequest::Count);
        assert_eq!(a.request(1), QueryRequest::locate_capped(16));
        assert_eq!(a.request(2), QueryRequest::Interval);
        assert_ne!(
            request_batch(&genome, None, 4, 9, 16).request(0),
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

        let a = request_batch(&genome, Some(&pool), 0, 8, 16);
        let b = request_batch(&genome, Some(&pool), 0, 8, 16);
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.50), 51.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn coalescing_figure_divides_delta_submissions_by_delta_batches() {
        let before = StatsSnapshot {
            batches_run: 10,
            submissions_coalesced: 10,
            ..Default::default()
        };
        let after = StatsSnapshot {
            batches_run: 14,
            submissions_coalesced: 22,
            ..Default::default()
        };
        assert_eq!(mean_coalesced(&before, &after), 3.0);
        assert!(mean_coalesced(&before, &before).is_nan());
    }

    #[test]
    fn stage_means_divide_delta_nanoseconds_by_delta_replies() {
        let before = StatsSnapshot {
            queue_wait_ns: 1_000,
            engine_ns: 5_000,
            reply_ns: 2_000,
            replies_timed: 1,
            ..Default::default()
        };
        let after = StatsSnapshot {
            queue_wait_ns: 41_000,
            engine_ns: 125_000,
            reply_ns: 22_000,
            replies_timed: 5,
            ..Default::default()
        };
        assert_eq!(stage_means_us(&before, &after), [10.0, 30.0, 5.0]);
        assert!(stage_means_us(&before, &before)[0].is_nan());
    }
}
