//! The `serve_small` workload: the in-process server with its default
//! configuration on an index warm-loaded from a snapshot, driven over
//! loopback TCP by two connections sending small mixed frames.
//!
//! The load is an open loop: seeded Poisson arrivals at 2000 req/s,
//! each request timed from the instant it was due, whatever the
//! generator or the server were doing then. The traced run then climbs
//! a ×2 rate ladder to find the highest rate the stack sustains.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use exma_engine::{EngineBuilder, Executor, QueryArena, QueryBatch, QueryResults};
use exma_genome::{Base, Genome};
use exma_index::KStepFmIndex;
use exma_server::wire::{self, Opcode, StatsSnapshot, HEADER_LEN};
use exma_server::{Server, ServerConfig, ServerHandle};

use crate::inputs::{self, Fnv, Seeds, FRAME_QUERIES};
use crate::layers::{self, timed};
use crate::machine;
use crate::metrics::{Metrics, RunResult};
use crate::stats;
use crate::trace::Trace;
use crate::verify::{naive_mismatches, NAIVE_SAMPLE};

/// Distinct frames the open loops cycle through; each is answered by the
/// local executor once.
const POOL_FRAMES: usize = 4096;
/// Client connections, each a sender and a reader thread.
const CONNECTIONS: usize = 2;
/// Arrival rate of the reference phase.
pub const REFERENCE_RPS: f64 = 2000.0;
/// Windows the reference phase is cut into; the reported percentiles
/// are medians over these.
const REFERENCE_WINDOWS: usize = 10;
/// Warm starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The rates the traced run climbs after the reference phase, and the
/// tail a rung may show before it counts as failed.
const LADDER_RPS: [f64; 4] = [4000.0, 8000.0, 16000.0, 32000.0];
const LADDER_P99_LIMIT_US: f64 = 25_000.0;
/// A response this late is a hung server: fail the run, do not wedge it.
const READ_GUARD: Duration = Duration::from_secs(10);
/// Reconnections and rounds of sending again a client of the reference
/// phase may make before a request counts as failed (see [`open_loop`]).
const RETRIES: usize = 3;

/// The frame pool: every distinct request, its encoded QUERY payload and
/// the RESULTS payload the local executor says it must get back.
struct Pool {
    batches: Vec<QueryBatch>,
    payloads: Vec<Vec<u8>>,
    results: Vec<QueryResults>,
    expected: Vec<Vec<u8>>,
}

impl Pool {
    fn build(genome: &Genome, exec: &dyn Executor, seeds: Seeds) -> Pool {
        let batches: Vec<QueryBatch> = (0..POOL_FRAMES)
            .map(|idx| inputs::frame_batch(genome, idx, FRAME_QUERIES, seeds))
            .collect();
        let payloads = batches
            .iter()
            .map(|batch| {
                let mut payload = Vec::new();
                wire::encode_query_batch(batch, &mut payload).expect("frames are encodable");
                payload
            })
            .collect();
        let results: Vec<QueryResults> = batches.iter().map(|batch| exec.run(batch).0).collect();
        let expected = results
            .iter()
            .map(|results| {
                let mut payload = Vec::new();
                wire::encode_results_range(results, 0, results.len(), &mut payload);
                payload
            })
            .collect();
        Pool {
            batches,
            payloads,
            results,
            expected,
        }
    }

    /// The QUERY frame of request `id` (no deadline).
    fn frame(&self, id: u64) -> Vec<u8> {
        wire::query_frame(id, 0, &self.payloads[id as usize % POOL_FRAMES])
    }
}

/// A server running on its own thread.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start(index: Arc<KStepFmIndex>, builder: EngineBuilder) -> Running {
        let server = Server::bind("127.0.0.1:0", index, builder, ServerConfig::default())
            .expect("bind a loopback port");
        let handle = server.handle().expect("bound address");
        Running {
            handle,
            thread: thread::spawn(move || server.run()),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drains and joins the server: returning means none of its threads
    /// is still running.
    fn stop(self) {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server drained cleanly");
    }
}

/// One frame as a client read it.
struct Reply {
    id: u64,
    opcode: u8,
    payload: Vec<u8>,
    at: Instant,
}

/// Reads one frame, or `None` at end of stream, on a timeout or on a
/// header the wire module rejects.
fn read_reply(stream: &mut TcpStream) -> Option<Reply> {
    let mut header_bytes = [0u8; HEADER_LEN];
    stream.read_exact(&mut header_bytes).ok()?;
    let header = wire::decode_header(&header_bytes, wire::DEFAULT_MAX_FRAME_LEN).ok()?;
    let mut payload = vec![0u8; header.payload_len as usize];
    stream.read_exact(&mut payload).ok()?;
    Some(Reply {
        id: header.request_id,
        opcode: header.opcode,
        payload,
        at: Instant::now(),
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(READ_GUARD))
        .expect("set read timeout");
    stream
}

/// One request-reply exchange on a fresh connection; `true` iff the
/// reply is the RESULTS the oracle expects.
fn probe(addr: SocketAddr, pool: &Pool) -> bool {
    let mut stream = connect(addr);
    stream.write_all(&pool.frame(0)).expect("write the probe");
    read_reply(&mut stream).is_some_and(|reply| {
        reply.opcode == Opcode::Results as u8 && reply.payload == pool.expected[0]
    })
}

/// One STATS → STATS_REPLY exchange.
fn stats_round_trip(stream: &mut TcpStream) -> StatsSnapshot {
    stream
        .write_all(&wire::frame(Opcode::Stats, 0, &[]))
        .expect("write STATS");
    let reply = read_reply(stream).expect("STATS_REPLY");
    wire::decode_stats(&reply.payload).expect("decodable STATS_REPLY")
}

/// The server's counters, over a connection opened for the occasion: the
/// server reaps a connection left idle for 60 s, and a phase between two
/// snapshots may last longer than that.
fn server_stats(addr: SocketAddr) -> StatsSnapshot {
    stats_round_trip(&mut connect(addr))
}

fn sleep_until(deadline: Instant) {
    while let Some(remaining) = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
    {
        thread::sleep(remaining);
    }
}

/// What one phase saw, merged over its connections.
#[derive(Default)]
struct Phase {
    /// Per verified reply: when the request was due, in seconds into the
    /// phase, and its latency from then in µs.
    samples: Vec<(f64, f64)>,
    sent: u64,
    /// Requests without a verified reply: wrong, refused or unanswered.
    failed: u64,
    /// Of those, the RESULTS frames with a wrong payload.
    mismatched: u64,
    /// Connections reopened after the server dropped one, and requests
    /// sent a second time because their first went unanswered.
    reconnects: u64,
    resent: u64,
    /// How late each request left, in µs.
    send_lag_us: Vec<f64>,
    /// Last arrival, in seconds into the phase.
    last_reply_s: f64,
    /// The instant the schedule counts from.
    started: Option<Instant>,
    trace: Option<Trace>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.sent += other.sent;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.reconnects += other.reconnects;
        self.resent += other.resent;
        self.send_lag_us.extend(other.send_lag_us);
        self.last_reply_s = self.last_reply_s.max(other.last_reply_s);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }

    fn latencies(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        stats::sort(&mut all);
        all
    }

    fn windowed(&self, span_s: f64, p: f64) -> f64 {
        stats::windowed_percentile(
            &stats::split_windows(&self.samples, span_s, REFERENCE_WINDOWS),
            p,
        )
    }
}

/// What one connection's reader saw.
#[derive(Default)]
struct Replies {
    /// Request id and arrival instant of every RESULTS frame whose
    /// payload matched the oracle's byte for byte.
    verified: Vec<(u64, Instant)>,
    /// RESULTS frames with the wrong payload.
    mismatched: u64,
}

/// Reads replies until the server closes the stream, comparing each
/// RESULTS payload with the pool's.
fn read_replies(mut stream: TcpStream, pool: &Pool, mut trace: Option<&mut Trace>) -> Replies {
    let mut replies = Replies::default();
    while let Some(reply) = read_reply(&mut stream) {
        if reply.opcode != Opcode::Results as u8 {
            continue; // ERROR, BUSY, LATE or GOAWAY: not a verified answer
        }
        let expected = &pool.expected[reply.id as usize % POOL_FRAMES];
        let matches = match trace.as_deref_mut() {
            None => &reply.payload == expected,
            Some(trace) => {
                let decoded = trace.time("server.wire.decode_results", None, reply.id, || {
                    wire::decode_results(&reply.payload)
                });
                trace.time("client.verify", None, reply.id, || {
                    decoded.is_ok() && &reply.payload == expected
                })
            }
        };
        if matches {
            replies.verified.push((reply.id, reply.at));
        } else {
            replies.mismatched += 1;
        }
    }
    replies
}

/// One TCP session of a client: the write half, and a thread reading
/// replies off the other half until the server closes it.
struct Session<'scope> {
    stream: TcpStream,
    reader: ScopedJoinHandle<'scope, (Replies, Option<Trace>)>,
}

impl<'scope> Session<'scope> {
    fn open<'env>(
        scope: &'scope Scope<'scope, 'env>,
        addr: SocketAddr,
        pool: &'env Pool,
        trace_origin: Option<Instant>,
    ) -> Session<'scope> {
        let stream = connect(addr);
        let reader_stream = stream.try_clone().expect("clone the socket");
        let reader = scope.spawn(move || {
            let mut trace = trace_origin.map(Trace::new);
            let replies = read_replies(reader_stream, pool, trace.as_mut());
            (replies, trace)
        });
        Session { stream, reader }
    }

    /// Half-closes: the server answers what is in flight, then closes,
    /// which ends the reader.
    fn close(self) -> (Replies, Option<Trace>) {
        let _ = self.stream.shutdown(Shutdown::Write);
        self.reader.join().expect("reader thread panicked")
    }
}

/// The traced sender's frame for request `id`: built and encoded at send
/// time, each step in a span.
fn traced_frame(trace: &mut Trace, genome: &Genome, seeds: Seeds, id: u64) -> Vec<u8> {
    let batch = trace.time("engine.query.build", None, id, || {
        inputs::frame_batch(genome, id as usize % POOL_FRAMES, FRAME_QUERIES, seeds)
    });
    let payload = trace.time("server.wire.encode_query_batch", None, id, || {
        let mut payload = Vec::new();
        wire::encode_query_batch(&batch, &mut payload).expect("frames are encodable");
        payload
    });
    wire::query_frame(id, 0, &payload)
}

fn write_frame(
    stream: &mut TcpStream,
    frame: &[u8],
    trace: Option<&mut Trace>,
    id: u64,
) -> std::io::Result<()> {
    match trace {
        None => stream.write_all(frame),
        Some(trace) => trace.time("client.write", None, id, || stream.write_all(frame)),
    }
}

/// The open loop: `schedule[i]` after `start`, request `i` leaves on
/// connection `i mod CONNECTIONS` whether or not earlier replies are
/// back. With a `trace_origin` the phase is traced: the sender builds
/// and encodes each frame at send time inside spans instead of sending
/// a pre-encoded one.
///
/// `retries` is how often a client may reconnect and how many rounds of
/// sending again it may make. The default server drops a connection
/// whose 256-frame writer queue overflows and answers BUSY past 1024
/// queued submissions; one run in some 120 on this 2-core VM stopped
/// getting replies part-way, as a quarter of a second of stolen vCPU
/// under the server's writer thread would cause. A client with retries
/// reconnects when a write fails, and after the schedule sends again
/// what is still unanswered; such a request's latency still counts from
/// its first due instant. Only what is unanswered after the last round
/// has failed.
fn open_loop(
    addr: SocketAddr,
    pool: &Pool,
    genome: &Genome,
    seeds: Seeds,
    schedule: &[Duration],
    trace_origin: Option<Instant>,
    retries: usize,
) -> Phase {
    // Frames are encoded before the clock starts; the traced run
    // encodes at send time instead, which is its overhead.
    let frames: Vec<Vec<u8>> = if trace_origin.is_some() {
        Vec::new()
    } else {
        (0..schedule.len() as u64)
            .map(|id| pool.frame(id))
            .collect()
    };
    let frames = &frames;
    let resend_gap = schedule.last().map_or(Duration::ZERO, |&span| {
        span / (schedule.len() / CONNECTIONS).max(1) as u32
    });
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = Phase {
        started: Some(start),
        ..Phase::default()
    };
    thread::scope(|scope| {
        let connections: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let ids: Vec<usize> = (c..schedule.len()).step_by(CONNECTIONS).collect();
                    let mut phase = Phase {
                        sent: ids.len() as u64,
                        ..Phase::default()
                    };
                    let mut send_trace = trace_origin.map(Trace::new);
                    let mut session = Session::open(scope, addr, pool, trace_origin);
                    let mut closed = Vec::new();
                    'schedule: for &id in &ids {
                        let due = start + schedule[id];
                        sleep_until(due);
                        phase.send_lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                        let built;
                        let frame: &[u8] = match send_trace.as_mut() {
                            None => &frames[id],
                            Some(trace) => {
                                built = traced_frame(trace, genome, seeds, id as u64);
                                &built
                            }
                        };
                        // A write fails once the server has dropped the
                        // connection: carry on with a new one.
                        while write_frame(
                            &mut session.stream,
                            frame,
                            send_trace.as_mut(),
                            id as u64,
                        )
                        .is_err()
                        {
                            if phase.reconnects == retries as u64 {
                                break 'schedule; // the unsent count as unanswered
                            }
                            phase.reconnects += 1;
                            let fresh = Session::open(scope, addr, pool, trace_origin);
                            closed.push(std::mem::replace(&mut session, fresh).close());
                        }
                    }
                    closed.push(session.close());
                    for _ in 0..retries {
                        let answered: BTreeSet<u64> = closed
                            .iter()
                            .flat_map(|(replies, _)| replies.verified.iter().map(|&(id, _)| id))
                            .collect();
                        let missing: Vec<u64> = ids
                            .iter()
                            .map(|&id| id as u64)
                            .filter(|id| !answered.contains(id))
                            .collect();
                        if missing.is_empty() {
                            break;
                        }
                        phase.resent += missing.len() as u64;
                        // At the connection's own mean rate: a burst would
                        // overflow the writer queue that dropped them.
                        let mut session = Session::open(scope, addr, pool, trace_origin);
                        for id in missing {
                            if session.stream.write_all(&pool.frame(id)).is_err() {
                                break;
                            }
                            thread::sleep(resend_gap);
                        }
                        closed.push(session.close());
                    }

                    let mut verified = 0;
                    for (replies, read_trace) in closed {
                        phase.mismatched += replies.mismatched;
                        if let (Some(trace), Some(read_trace)) = (send_trace.as_mut(), read_trace) {
                            trace.absorb(read_trace);
                        }
                        for (id, at) in replies.verified {
                            let Some(due) = schedule.get(id as usize).map(|&d| start + d) else {
                                continue;
                            };
                            verified += 1;
                            phase.samples.push((
                                (due - start).as_secs_f64(),
                                at.saturating_duration_since(due).as_secs_f64() * 1e6,
                            ));
                            phase.last_reply_s = phase.last_reply_s.max((at - start).as_secs_f64());
                        }
                    }
                    // A wrong answer stays a failure even if asking again
                    // got the right one.
                    phase.failed = (phase.sent - phase.sent.min(verified)).max(phase.mismatched);
                    phase.trace = send_trace;
                    phase
                })
            })
            .collect();
        for connection in connections {
            phase.absorb(connection.join().expect("client thread panicked"));
        }
    });
    phase
}

/// One rung of the traced run's rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub failed: u64,
    pub offered_rps: f64,
    pub achieved_rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Rung {
    /// A rung holds when nothing failed, the replies kept up with the
    /// arrivals (no growing backlog) and the windowed tail met the limit.
    pub fn holds(&self) -> bool {
        self.failed == 0
            && self.achieved_rps >= 0.97 * self.offered_rps
            && self.p99_us <= LADDER_P99_LIMIT_US
    }
}

/// The highest rung that holds with every rung below it holding too;
/// the climb stops at the first that does not.
pub fn sustained(rungs: &[Rung]) -> Option<&Rung> {
    rungs.iter().take_while(|rung| rung.holds()).last()
}

fn rung_of(rate: f64, phase: &Phase, schedule: &[Duration]) -> Rung {
    let span = schedule.last().map_or(1.0, Duration::as_secs_f64);
    Rung {
        rate,
        failed: phase.failed,
        offered_rps: schedule.len() as f64 / span,
        achieved_rps: phase.samples.len() as f64 / phase.last_reply_s.max(span),
        p50_us: phase.windowed(span, 50.0),
        p99_us: phase.windowed(span, 99.0),
    }
}

/// Runs `serve_small`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let seeds = Seeds::derive(seed);
    let builder = EngineBuilder::new();
    let mut metrics = Metrics::default();
    let mut result = RunResult::default();
    let snapshot_path = machine::out_dir().join(format!("serve_small_{}.snap", std::process::id()));
    let mut trace = Trace::new(Instant::now());

    // Preparation, untimed: the reference, a cold index, its snapshot,
    // the frame pool and the local executor's answer to every frame.
    let (synthesize_s, genome) = timed(|| inputs::reference(seeds));
    let text = genome.text_with_sentinel();
    let (build_s, cold) = timed(|| builder.build_index(&text));
    let cold = cold.expect("the default recipe builds on the 20 Mbp reference");
    std::fs::create_dir_all(machine::out_dir()).expect("create benchmark/out");
    builder
        .snapshot_to(&cold, &snapshot_path)
        .expect("write the snapshot");
    let pool = {
        let exec = builder.attach(&cold).expect("recipe built this index");
        let pool = Pool::build(&genome, exec.as_ref(), seeds);
        let sample = merge(&pool.batches[..NAIVE_SAMPLE / FRAME_QUERIES]);
        let (answers, _) = exec.run(&sample);
        result.attempted += sample.len() as u64;
        result.failed += naive_mismatches(&genome, &sample, &answers);
        pool
    };
    result.inputs_hash = inputs::hash_batches(&pool.batches);
    let mut checksum = Fnv::default();
    for results in &pool.results {
        inputs::hash_results(&mut checksum, results);
    }
    result.answers_checksum = checksum.finish();
    if traced {
        layers::snapshot(&mut metrics, &mut trace, &cold, genome.len());
        layers::build_breakdown(&mut metrics, &mut trace, &text, build_s);
    }
    drop(text);
    drop(cold);

    // Set-up, several times over: load the snapshot, bind, serve, answer
    // one verified request. The last server stays up for the phases.
    let mut setup_s = Vec::new();
    let mut serving: Option<(Running, Arc<KStepFmIndex>)> = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some((running, _)) = serving.take() {
            running.stop();
        }
        let from = Instant::now();
        let index = Arc::new(
            builder
                .attach_from_snapshot(&snapshot_path)
                .expect("the snapshot this run wrote loads"),
        );
        let running = Running::start(Arc::clone(&index), builder);
        let verified = probe(running.addr(), &pool);
        setup_s.push(from.elapsed().as_secs_f64());
        result.attempted += FRAME_QUERIES as u64;
        result.failed += if verified { 0 } else { FRAME_QUERIES as u64 };
        serving = Some((running, index));
    }
    std::fs::remove_file(&snapshot_path).expect("remove the scratch snapshot");
    let (running, index) = serving.expect("at least one set-up ran");
    let addr = running.addr();
    let heap = index.heap_breakdown();

    // The untraced run spends all of `seconds` in the reference phase.
    // The traced run gives it 5/8, half of that untraced (the base of
    // `trace.overhead_share`) and half traced, and climbs the ladder in
    // the rest.
    let reference_s = if traced { seconds * 5.0 / 8.0 } else { seconds };
    let untraced_s = if traced {
        reference_s / 2.0
    } else {
        reference_s
    };
    let schedule_for = |rate: f64, span: f64, salt: u64| {
        inputs::poisson_schedule((rate * span).ceil() as usize, rate, seeds.arrivals ^ salt)
    };
    let stats_rtt_us = traced.then(|| {
        // On the idle server: reader, writer and socket, no batcher.
        let mut stream = connect(addr);
        let rtts: Vec<f64> = (0..1000)
            .map(|_| timed(|| stats_round_trip(&mut stream)).0 * 1e6)
            .collect();
        stats::median(&rtts)
    });

    let before = server_stats(addr);
    let schedule = schedule_for(REFERENCE_RPS, untraced_s, 0);
    let reference = open_loop(addr, &pool, &genome, seeds, &schedule, None, RETRIES);
    let after = server_stats(addr);
    result.attempted += reference.sent * FRAME_QUERIES as u64;
    result.failed += reference.failed * FRAME_QUERIES as u64;
    let span = schedule.last().map_or(1.0, Duration::as_secs_f64);
    let latency_us_p50 = reference.windowed(span, 50.0);
    let latencies = reference.latencies();
    let per_window = latencies.len() / REFERENCE_WINDOWS;
    println!(
        "# reference phase: {} verified replies at {REFERENCE_RPS} req/s in {REFERENCE_WINDOWS} windows of about {per_window}, windowed p50 {latency_us_p50:.1} us; a window has ten samples beyond its p{}",
        latencies.len(),
        stats::highest_supported_percentile(per_window)
    );
    println!(
        "# server: {} BUSY, {} frames shed, {} connections reaped; client: {} reconnects, {} requests sent again",
        after.submissions_busy - before.submissions_busy,
        after.writer_shed - before.writer_shed,
        after.conns_reaped - before.conns_reaped,
        reference.reconnects,
        reference.resent
    );

    if !traced {
        running.stop();
        println!("# set-ups, in order, in s: {setup_s:.3?}");
        metrics.set("setup_s", stats::median(&setup_s));
        // Arrivals are scheduled, so this reads the offered 16 000
        // queries/s for as long as the server keeps up and less once
        // replies trail the schedule.
        metrics.set(
            "queries_per_s",
            (latencies.len() * FRAME_QUERIES) as f64 / reference.last_reply_s.max(span),
        );
        metrics.set("latency_us_p10", stats::percentile(&latencies, 10.0));
        metrics.set(
            "index_bytes_per_base",
            heap.total() as f64 / genome.len() as f64,
        );
        metrics.set("peak_rss_mb", machine::peak_rss_mb());
        result.metrics = metrics;
        return result;
    }

    // What the batcher did during the reference phase, from STATS.
    let runs = (after.batches_run - before.batches_run).max(1) as f64;
    let mean_coalesced = (after.submissions_coalesced - before.submissions_coalesced) as f64 / runs;
    metrics.set("server.batcher.mean_coalesced", mean_coalesced);
    metrics.set(
        "server.batcher.queries_per_run",
        (after.queries_executed - before.queries_executed) as f64 / runs,
    );
    metrics.set(
        "server.batcher.busy",
        (after.submissions_busy - before.submissions_busy) as f64,
    );
    metrics.set(
        "server.batcher.late_dropped",
        (after.late_dropped - before.late_dropped) as f64,
    );
    metrics.set(
        "server.conn.writer_shed",
        (after.writer_shed - before.writer_shed) as f64,
    );
    metrics.set("server.latency_us_p50", latency_us_p50);
    metrics.set("server.latency_us_p99", reference.windowed(span, 99.0));
    metrics.set(
        "server.latency_us_p999",
        stats::percentile(&latencies, 99.9),
    );
    metrics.set(
        "server.latency_us_max",
        latencies.last().copied().unwrap_or(0.0),
    );
    let mut lags = reference.send_lag_us.clone();
    stats::sort(&mut lags);
    metrics.set("loadgen.send_lag_us_p99", stats::percentile(&lags, 99.0));
    metrics.set("loadgen.offered_rps", schedule.len() as f64 / span);

    // The traced half of the reference phase.
    let traced_schedule = schedule_for(REFERENCE_RPS, reference_s - untraced_s, 1);
    let mut traced_phase = open_loop(
        addr,
        &pool,
        &genome,
        seeds,
        &traced_schedule,
        Some(trace.origin()),
        RETRIES,
    );
    result.attempted += traced_phase.sent * FRAME_QUERIES as u64;
    result.failed += traced_phase.failed * FRAME_QUERIES as u64;
    let traced_span = traced_schedule.last().map_or(1.0, Duration::as_secs_f64);
    metrics.set(
        "trace.overhead_share",
        traced_phase.windowed(traced_span, 50.0) / latency_us_p50 - 1.0,
    );
    let mut requests = traced_phase.trace.take().expect("the traced phase traces");
    let phase_start = traced_phase.started.expect("an open loop has a start");
    add_request_spans(&mut requests, phase_start, &traced_schedule);
    trace.absorb(requests);

    // The ladder: double the rate until a rung fails.
    let mut rungs = vec![rung_of(REFERENCE_RPS, &reference, &schedule)];
    let rung_s = (seconds - reference_s) / 2.0;
    for (salt, &rate) in LADDER_RPS.iter().enumerate() {
        if !rungs.last().is_some_and(Rung::holds) {
            break;
        }
        let schedule = schedule_for(rate, rung_s, 2 + salt as u64);
        // Overload is what the ladder looks for: no retries, a refused
        // or unanswered request ends the climb without failing the run.
        // A wrong answer fails it at any rate.
        let phase = open_loop(addr, &pool, &genome, seeds, &schedule, None, 0);
        result.attempted += phase.sent * FRAME_QUERIES as u64;
        result.failed += phase.mismatched * FRAME_QUERIES as u64;
        rungs.push(rung_of(rate, &phase, &schedule));
    }
    for rung in &rungs {
        println!(
            "# rung {} req/s: offered {:.0}, achieved {:.0}, failed {}, p50 {:.0} us, p99 {:.0} us, {}",
            rung.rate,
            rung.offered_rps,
            rung.achieved_rps,
            rung.failed,
            rung.p50_us,
            rung.p99_us,
            if rung.holds() { "holds" } else { "fails" }
        );
    }
    if let Some(knee) = sustained(&rungs) {
        metrics.set("server.sustained_rps", knee.rate);
        metrics.set("server.knee.latency_us_p50", knee.p50_us);
        metrics.set("server.knee.latency_us_p99", knee.p99_us);
    }
    metrics.set("server.conn.stats_rtt_us_p50", stats_rtt_us.unwrap_or(0.0));
    running.stop();

    // The stages in isolation, on the workload's own frames.
    let exec = builder.attach(&index).expect("recipe built this index");
    let wire_us = wire_layers(&mut metrics, &pool, exec.as_ref(), &mut trace);
    let merged_frames = mean_coalesced.round().max(1.0) as usize;
    let merged: Vec<QueryBatch> = pool
        .batches
        .chunks_exact(merged_frames)
        .map(merge)
        .collect();
    let mut arena = QueryArena::new();
    exec.run_into(&merged[0], &mut arena);
    let (engine_s, ()) = trace.time("engine.run_into", None, 0, || {
        timed(|| {
            for batch in &merged {
                exec.run_into(batch, &mut arena);
            }
        })
    });
    let engine_us = engine_s * 1e6 / merged.len() as f64;
    metrics.set("server.engine_us_per_request", engine_us);
    // The request waits out the linger window, the merged engine run,
    // the four wire stages and the socket round trip; what is left of
    // the median is what nothing here explains.
    let linger_us = ServerConfig::default().linger.as_secs_f64() * 1e6;
    let rtt_us = stats_rtt_us.unwrap_or(0.0);
    let residual_us = latency_us_p50 - rtt_us - linger_us - engine_us - wire_us;
    metrics.set("server.residual_us_p50", residual_us);
    println!(
        "# server.latency_us_p50 {latency_us_p50:.1} = stats_rtt {rtt_us:.1} + linger {linger_us:.1} + engine {engine_us:.1} + wire {wire_us:.1} + residual {residual_us:.1}"
    );

    metrics.set("genome.genome.synthesize_s", synthesize_s);
    layers::heap(&mut metrics, &heap);
    let patterns: Vec<Vec<Base>> = pool
        .batches
        .iter()
        .flat_map(|batch| batch.patterns().iter().cloned())
        .take(inputs::BATCH_QUERIES)
        .collect();
    layers::kernels(&mut metrics, &mut trace, &index, &patterns, seeds.arrivals);
    layers::machine(&mut metrics, &mut trace, seeds.arrivals);

    let path = machine::out_dir().join("trace_serve_small.json");
    trace
        .write_json(&path, "serve_small", seed)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    result.metrics = metrics;
    result
}

fn merge(frames: &[QueryBatch]) -> QueryBatch {
    let mut merged = QueryBatch::new();
    for frame in frames {
        merged.extend_from(frame);
    }
    merged
}

/// Gives every traced request its root span (due → verified) and its
/// `client.wait_reply` span (frame written → reply read), and hangs the
/// request's stage spans under the root.
fn add_request_spans(trace: &mut Trace, phase_start: Instant, schedule: &[Duration]) {
    let origin = trace.origin();
    let at = |ns: u64| origin + Duration::from_nanos(ns);
    let stages = trace.spans().len();
    // Per request: frame written, reply read, reply verified.
    let mut marks = vec![[None; 3]; schedule.len()];
    for span in trace.spans() {
        let Some(request) = marks.get_mut(span.id as usize) else {
            continue;
        };
        match span.name {
            "client.write" => request[0] = Some(at(span.end_ns)),
            "server.wire.decode_results" => request[1] = Some(at(span.start_ns)),
            "client.verify" => request[2] = Some(at(span.end_ns)),
            _ => {}
        }
    }
    let mut roots = vec![None; schedule.len()];
    for (id, request) in marks.iter().enumerate() {
        if let [Some(written), Some(read), Some(verified)] = *request {
            let due = phase_start + schedule[id];
            let root = trace.record("client.request", due, verified, None, id as u64);
            trace.record("client.wait_reply", written, read, Some(root), id as u64);
            roots[id] = Some(root);
        }
    }
    for span in 0..stages {
        let request = trace.spans()[span].id as usize;
        if let Some(root) = roots.get(request).copied().flatten() {
            trace.set_parent(span as u32, root);
        }
    }
}

/// `server.wire.*`: the four wire stages per query on the pool's
/// 8-query frames and on 512-query merges of them, plus the exact mean
/// frame sizes. Returns the four 8-query stages' total for one frame,
/// in µs.
fn wire_layers(metrics: &mut Metrics, pool: &Pool, exec: &dyn Executor, trace: &mut Trace) -> f64 {
    let merged_batches: Vec<QueryBatch> = pool.batches.chunks_exact(64).map(merge).collect();
    let merged_results: Vec<QueryResults> = merged_batches
        .iter()
        .map(|batch| exec.run(batch).0)
        .collect();
    let mut frame_us = 0.0;
    for (suffix, batches, results) in [
        ("f8", &pool.batches, &pool.results),
        ("f512", &merged_batches, &merged_results),
    ] {
        let queries: usize = batches.iter().map(QueryBatch::len).sum();
        let (encode_query_s, queries_wire) =
            trace.time("server.wire.encode_query_batch", None, 0, || {
                timed(|| {
                    batches
                        .iter()
                        .map(|batch| {
                            let mut payload = Vec::new();
                            wire::encode_query_batch(batch, &mut payload)
                                .expect("frames are encodable");
                            payload
                        })
                        .collect::<Vec<Vec<u8>>>()
                })
            });
        let (decode_query_s, decoded) =
            trace.time("server.wire.decode_query_batch", None, 0, || {
                timed(|| {
                    queries_wire
                        .iter()
                        .filter(|payload| wire::decode_query_batch(payload, 4096, None).is_ok())
                        .count()
                })
            });
        assert_eq!(decoded, batches.len(), "own QUERY payloads decode");
        let (encode_results_s, results_wire) =
            trace.time("server.wire.encode_results_range", None, 0, || {
                timed(|| {
                    results
                        .iter()
                        .map(|results| {
                            let mut payload = Vec::new();
                            wire::encode_results_range(results, 0, results.len(), &mut payload);
                            payload
                        })
                        .collect::<Vec<Vec<u8>>>()
                })
            });
        let (decode_results_s, decoded) = trace.time("server.wire.decode_results", None, 0, || {
            timed(|| {
                results_wire
                    .iter()
                    .filter(|payload| wire::decode_results(payload).is_ok())
                    .count()
            })
        });
        assert_eq!(decoded, batches.len(), "own RESULTS payloads decode");
        for (stage, seconds) in [
            ("encode_query", encode_query_s),
            ("decode_query", decode_query_s),
            ("encode_results", encode_results_s),
            ("decode_results", decode_results_s),
        ] {
            metrics.set(
                &format!("server.wire.{stage}_ns_{suffix}"),
                seconds * 1e9 / queries as f64,
            );
        }
        if suffix == "f8" {
            let mean_bytes = |payloads: &[Vec<u8>]| {
                payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len() as f64
            };
            metrics.set("server.wire.query_bytes_f8", mean_bytes(&queries_wire));
            metrics.set("server.wire.results_bytes_f8", mean_bytes(&results_wire));
            frame_us = (encode_query_s + decode_query_s + encode_results_s + decode_results_s)
                * 1e6
                / batches.len() as f64;
        }
    }
    frame_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};

    use exma_genome::GenomeProfile;

    /// Reads one QUERY frame and returns its request id.
    fn read_query(stream: &mut TcpStream) -> Option<u64> {
        let mut header_bytes = [0u8; HEADER_LEN];
        stream.read_exact(&mut header_bytes).ok()?;
        let header = wire::decode_header(&header_bytes, wire::DEFAULT_MAX_FRAME_LEN).ok()?;
        let extension = if header.has_deadline_ext() { 4 } else { 0 };
        let mut rest = vec![0u8; extension + header.payload_len as usize];
        stream.read_exact(&mut rest).ok()?;
        Some(header.request_id)
    }

    #[test]
    fn a_dropped_connection_is_reopened_and_the_unanswered_sent_again() {
        let seeds = Seeds::derive(42);
        let genome = Genome::synthesize(&GenomeProfile::toy(), seeds.genome);
        let builder = EngineBuilder::new();
        let index = builder
            .build_index(&genome.text_with_sentinel())
            .expect("the toy index builds");
        let exec = builder.attach(&index).expect("recipe built this index");
        let pool = Pool::build(&genome, exec.as_ref(), seeds);
        let schedule = inputs::poisson_schedule(400, 2000.0, 7);

        // A stand-in server that answers from the pool. Each of its first
        // `CONNECTIONS` connections reads 20 requests, answers 15 of
        // them and hangs up; later connections answer everything.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let done = AtomicBool::new(false);
        let phase = thread::scope(|scope| {
            let (pool, done) = (&pool, &done);
            scope.spawn(move || {
                for (n, stream) in listener.incoming().enumerate() {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut stream = stream.expect("accept");
                    scope.spawn(move || {
                        let mut seen = 0;
                        while let Some(id) = read_query(&mut stream) {
                            seen += 1;
                            if n < CONNECTIONS && seen == 20 {
                                break;
                            }
                            if n < CONNECTIONS && seen > 15 {
                                continue;
                            }
                            let payload = &pool.expected[id as usize % POOL_FRAMES];
                            let reply = wire::frame(Opcode::Results, id, payload);
                            if stream.write_all(&reply).is_err() {
                                break;
                            }
                        }
                    });
                }
            });
            let phase = open_loop(addr, pool, &genome, seeds, &schedule, None, RETRIES);
            done.store(true, Ordering::SeqCst);
            drop(TcpStream::connect(addr)); // wakes the accept loop
            phase
        });
        assert_eq!(phase.sent, 400);
        assert_eq!((phase.failed, phase.mismatched), (0, 0));
        assert_eq!(phase.samples.len(), 400);
        assert_eq!(phase.reconnects, CONNECTIONS as u64);
        // At least the five read and not answered on each first connection.
        assert!(phase.resent >= 10, "resent {}", phase.resent);

        // Without retries the same server costs the requests it dropped.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let phase = thread::scope(|scope| {
            scope.spawn(move || {
                for stream in listener.incoming().take(CONNECTIONS) {
                    let mut stream = stream.expect("accept");
                    scope.spawn(move || {
                        for _ in 0..20 {
                            if read_query(&mut stream).is_none() {
                                break;
                            }
                        }
                    });
                }
            });
            open_loop(addr, &pool, &genome, seeds, &schedule, None, 0)
        });
        assert_eq!((phase.sent, phase.failed, phase.reconnects), (400, 400, 0));
    }

    fn rung(rate: f64, failed: u64, achieved_share: f64, p99_us: f64) -> Rung {
        Rung {
            rate,
            failed,
            offered_rps: rate,
            achieved_rps: rate * achieved_share,
            p50_us: 1000.0,
            p99_us,
        }
    }

    #[test]
    fn a_rung_fails_on_any_failure_a_backlog_or_a_slow_tail() {
        assert!(rung(2000.0, 0, 1.0, 4000.0).holds());
        assert!(rung(2000.0, 0, 0.97, 25_000.0).holds());
        assert!(!rung(2000.0, 1, 1.0, 4000.0).holds());
        assert!(!rung(2000.0, 0, 0.96, 4000.0).holds());
        assert!(!rung(2000.0, 0, 1.0, 25_001.0).holds());
    }

    #[test]
    fn the_sustained_rate_is_the_last_rung_before_the_first_failure() {
        let good = |rate| rung(rate, 0, 1.0, 4000.0);
        let bad = |rate| rung(rate, 0, 0.5, 90_000.0);
        let climb = [good(2000.0), good(4000.0), good(8000.0), bad(16000.0)];
        assert_eq!(sustained(&climb).map(|r| r.rate), Some(8000.0));
        // A rung that holds above a failed one does not count.
        let dip = [good(2000.0), bad(4000.0), good(8000.0)];
        assert_eq!(sustained(&dip).map(|r| r.rate), Some(2000.0));
        assert_eq!(sustained(&[bad(2000.0)]), None);
        let all = [good(2000.0), good(4000.0)];
        assert_eq!(sustained(&all).map(|r| r.rate), Some(4000.0));
    }
}
