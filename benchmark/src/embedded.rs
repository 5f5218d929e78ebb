//! The three embedded workloads — `count_reads`, `locate_seeds`,
//! `both_strands`: one thread, closed loop, batches of 4096 through one
//! reused arena, every answer compared with the sequential 1-step
//! executor's.

use std::ops::Range;
use std::time::Instant;

use exma_engine::{
    BatchStats, EngineBuilder, Executor, QueryArena, QueryBatch, QueryRequest, QueryResults,
};
use exma_genome::{Base, Genome};
use exma_index::bidir::{forward_len, map_hits_in_place};
use exma_index::{BatchResolver, KStepFmIndex, ResolveConfig, UNCAPPED};

use crate::inputs::{self, Fnv, Seeds, BATCH_QUERIES, LOCATE_CAP};
use crate::layers::{self, timed};
use crate::machine;
use crate::metrics::{Metrics, RunResult};
use crate::stats;
use crate::trace::Trace;
use crate::verify::{
    mismatches, naive_mismatches, oracle_answers, sequential_one_step, NAIVE_SAMPLE,
};

/// Sub-windows a measured window is cut into; the reported medians are
/// medians over these.
const SUB_WINDOWS: usize = 5;
/// Batches the isolated executor comparisons (sequential baseline, two
/// threads) run over.
const COMPARISON_BATCHES: usize = 4;
/// Cold set-ups per untraced run of `count_reads` and `locate_seeds`;
/// `setup_s` is their median.
const COLD_SETUPS: usize = 2;
/// Warm set-ups per untraced run of `both_strands`: the index loaded
/// from a snapshot the run wrote, as `serve_small` starts. A cold
/// doubled-text build touches 0.9 GB of fresh memory, which this box's
/// host backs on first touch at anything from 0.5 to 30 s a GB: over two
/// sets of ten runs its time read 13.5 to 25 s, the quartile spread was
/// 0.30 to 0.48 and one build in a later run took 55 s. No bound can
/// gate that, so by the issue's own rule the cold build is a per-layer
/// metric (`index.kstep.build_s`) and the gated set-up is the warm one.
const WARM_SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CountReads,
    LocateSeeds,
    BothStrands,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::CountReads => "count_reads",
            Kind::LocateSeeds => "locate_seeds",
            Kind::BothStrands => "both_strands",
        }
    }

    fn request(self) -> QueryRequest {
        match self {
            Kind::CountReads => QueryRequest::Count,
            Kind::LocateSeeds => QueryRequest::locate_capped(LOCATE_CAP),
            Kind::BothStrands => QueryRequest::search_both_capped(LOCATE_CAP),
        }
    }

    /// Distinct batches the window cycles through. Every one is answered
    /// by the sequential oracle once, so the pool is sized to about a
    /// second of oracle time; 31 other batches (≥ 1.8 M table lines)
    /// pass between two visits of the same one, so nothing of it is
    /// still cached.
    fn pool_batches(self) -> usize {
        match self {
            Kind::CountReads => 32,
            Kind::LocateSeeds | Kind::BothStrands => 16,
        }
    }

    fn builder(self) -> EngineBuilder {
        EngineBuilder::new().bidirectional(self == Kind::BothStrands)
    }

    fn patterns(self, genome: &Genome, count: usize, seeds: Seeds) -> Vec<Vec<Base>> {
        match self {
            Kind::CountReads | Kind::BothStrands => inputs::reads(genome, count, seeds),
            Kind::LocateSeeds => inputs::seeds(genome, count, seeds),
        }
    }
}

/// The resolver-facing cap of a request, as the engine derives it:
/// strand searches resolve uncapped and cap after mapping.
fn resolver_cap(request: QueryRequest) -> Option<u32> {
    match request {
        QueryRequest::Locate { max_hits } => Some(max_hits.unwrap_or(UNCAPPED)),
        QueryRequest::SearchBoth { .. } => Some(UNCAPPED),
        _ => None,
    }
}

/// One cold set-up: the reference and the index over it.
struct Built {
    genome: Genome,
    index: KStepFmIndex,
    synthesize_s: f64,
    build_s: f64,
}

fn cold_build(builder: &EngineBuilder, seeds: Seeds) -> Built {
    let (synthesize_s, genome) = timed(|| inputs::reference(seeds));
    let text = genome.text_with_sentinel();
    let (build_s, index) = timed(|| builder.build_index(&text));
    Built {
        genome,
        index: index.expect("the default recipe builds on the 20 Mbp reference"),
        synthesize_s,
        build_s,
    }
}

/// What a set-up ends with: the first batch answered on a fresh executor.
fn first_answers(
    builder: &EngineBuilder,
    index: &KStepFmIndex,
    batch: &QueryBatch,
) -> QueryResults {
    let exec = builder.attach(index).expect("recipe built this index");
    exec.run(batch).0
}

/// What a measured window saw.
#[derive(Default)]
struct Window {
    /// `(seconds into the window, batch wall in µs)` per measured batch:
    /// what one `run_into` call made its caller wait.
    samples: Vec<(f64, f64)>,
    /// First batch started → last batch verified.
    wall_s: f64,
    queries: u64,
    failed: u64,
}

impl Window {
    /// Prints the sample count and the per-query quartiles behind the
    /// reported percentiles.
    fn describe(&self, label: &str) {
        let per_query: Vec<f64> = self
            .samples
            .iter()
            .map(|&(_, us)| us * 1e3 / BATCH_QUERIES as f64)
            .collect();
        let [q1, q2, q3] = stats::quartiles(&per_query);
        let per_window = per_query.len() / SUB_WINDOWS;
        println!(
            "# {label}: {} batches of {BATCH_QUERIES} in {:.3} s, {SUB_WINDOWS} sub-windows of about {per_window}; ns/query p10 {:.1}, quartiles {q1:.1} / {q2:.1} / {q3:.1}; a sub-window has ten samples beyond its p{}",
            per_query.len(),
            self.wall_s,
            self.latency_us_p10() * 1e3 / BATCH_QUERIES as f64,
            stats::highest_supported_percentile(per_window)
        );
    }

    /// Median over the sub-windows of each one's median batch wall.
    fn latency_us_p50(&self, seconds: f64) -> f64 {
        stats::windowed_percentile(
            &stats::split_windows(&self.samples, seconds, SUB_WINDOWS),
            50.0,
        )
    }

    /// Tenth percentile of the batch walls of the whole window. The
    /// box's interference only ever adds time, so the low end of the
    /// distribution is what the code costs when left alone; it needs no
    /// windowing, a stall cannot reach it.
    fn latency_us_p10(&self) -> f64 {
        let mut walls: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        stats::sort(&mut walls);
        stats::percentile(&walls, 10.0)
    }
}

/// The closed loop: cycles through `batches` for `seconds`, timing each
/// `run_into`, comparing each answer with the oracle's outside the
/// timed call, then handing the batch to `after` (the traced run's
/// replays; nothing on the untraced run).
fn measure(
    exec: &dyn Executor,
    batches: &[QueryBatch],
    expected: &[QueryResults],
    seconds: f64,
    arena: &mut QueryArena,
    mut after: impl FnMut(usize, u64, Instant, Instant, BatchStats),
) -> Window {
    let mut window = Window::default();
    let start = Instant::now();
    let mut sequence = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let i = sequence as usize % batches.len();
        let t0 = Instant::now();
        let counters = exec.run_into(&batches[i], arena);
        let t1 = Instant::now();
        window
            .samples
            .push(((t0 - start).as_secs_f64(), (t1 - t0).as_secs_f64() * 1e6));
        window.queries += batches[i].len() as u64;
        window.failed += mismatches(arena.results(), &expected[i]);
        window.wall_s = start.elapsed().as_secs_f64();
        after(i, sequence, t0, t1, counters);
        sequence += 1;
    }
    window
}

/// Runs one embedded workload. `started` is the process start: the
/// first set-up is timed from it.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, started: Instant) -> RunResult {
    let seeds = Seeds::derive(seed);
    let builder = kind.builder();
    let mut metrics = Metrics::default();
    let mut result = RunResult::default();

    // Set-up, several times over: synthesize, build, attach, answer the
    // probe batch. The reference is the same each time, so the probe's
    // brute-force answer is computed once, after the first, untimed.
    let cold_setups = if traced || kind == Kind::BothStrands {
        1
    } else {
        COLD_SETUPS
    };
    let mut setup_s = Vec::new();
    let mut built: Option<Built> = None;
    let mut probe: Option<(QueryBatch, QueryResults)> = None;
    for round in 0..cold_setups {
        drop(built.take()); // one index resident at a time: peak RSS is one build's
        let from = if round == 0 { started } else { Instant::now() };
        let fresh = cold_build(&builder, seeds);
        let batch = QueryBatch::uniform(
            kind.request(),
            kind.patterns(&fresh.genome, NAIVE_SAMPLE, seeds),
        );
        let answers = first_answers(&builder, &fresh.index, &batch);
        setup_s.push(from.elapsed().as_secs_f64());
        match &probe {
            None => {
                result.attempted += batch.len() as u64;
                result.failed += naive_mismatches(&fresh.genome, &batch, &answers);
                probe = Some((batch, answers));
            }
            Some((first, _)) => assert_eq!(&batch, first, "one seed, one input"),
        }
        built = Some(fresh);
    }
    let built = built.expect("at least one set-up ran");
    if kind == Kind::BothStrands && !traced {
        // The doubled-text build is preparation here, not set-up: see
        // `WARM_SETUPS`. Its time is printed, the warm starts are timed.
        println!("# cold set-up, untimed preparation: {:.3} s", setup_s[0]);
        setup_s.clear();
        let (batch, answers) = probe.as_ref().expect("the cold set-up probed");
        std::fs::create_dir_all(machine::out_dir()).expect("create benchmark/out");
        let snapshot = machine::out_dir().join(format!("both_strands_{}.snap", std::process::id()));
        builder
            .snapshot_to(&built.index, &snapshot)
            .expect("write the snapshot");
        for _ in 0..WARM_SETUPS {
            let from = Instant::now();
            let loaded = builder
                .attach_from_snapshot(&snapshot)
                .expect("the snapshot this run wrote loads");
            let warm_answers = first_answers(&builder, &loaded, batch);
            setup_s.push(from.elapsed().as_secs_f64());
            result.attempted += batch.len() as u64;
            result.failed += mismatches(&warm_answers, answers);
        }
        std::fs::remove_file(&snapshot).expect("remove the scratch snapshot");
    }
    let Built {
        genome,
        index,
        synthesize_s,
        build_s,
    } = built;
    let exec = builder.attach(&index).expect("recipe built this index");
    let heap = exec.heap_breakdown();

    // Inputs and their oracle answers.
    let pool_queries = kind.pool_batches() * BATCH_QUERIES;
    let (simulate_s, patterns) = timed(|| kind.patterns(&genome, pool_queries, seeds));
    let batches = inputs::uniform_batches(&patterns, kind.request());
    result.inputs_hash = inputs::hash_batches(&batches);
    let expected = oracle_answers(&index, &batches);

    // One unmeasured pass over the pool: warms the arena to its
    // steady-state capacity, verifies every batch once, and gives the
    // answer checksum (over the pool, so it does not depend on how many
    // batches a window fits).
    let mut arena = QueryArena::new();
    let mut checksum = Fnv::default();
    for (batch, expect) in batches.iter().zip(&expected) {
        exec.run_into(batch, &mut arena);
        result.attempted += batch.len() as u64;
        result.failed += mismatches(arena.results(), expect);
        inputs::hash_results(&mut checksum, arena.results());
    }
    result.answers_checksum = checksum.finish();

    let untraced_seconds = if traced { seconds / 2.0 } else { seconds };
    let window = measure(
        exec.as_ref(),
        &batches,
        &expected,
        untraced_seconds,
        &mut arena,
        |_, _, _, _, _| {},
    );
    result.attempted += window.queries;
    result.failed += window.failed;
    window.describe("untraced window");
    let latency_us_p50 = window.latency_us_p50(untraced_seconds);

    if !traced {
        println!("# set-ups, in order, in s: {setup_s:.3?}");
        metrics.set("setup_s", stats::median(&setup_s));
        metrics.set("queries_per_s", window.queries as f64 / window.wall_s);
        metrics.set("latency_us_p10", window.latency_us_p10());
        metrics.set(
            "index_bytes_per_base",
            heap.total() as f64 / genome.len() as f64,
        );
        metrics.set("peak_rss_mb", machine::peak_rss_mb());
        result.metrics = metrics;
        return result;
    }

    // The traced window: the same loop, each batch followed by replays
    // of itself through the narrower public calls.
    let traced_seconds = seconds - untraced_seconds;
    let interval_batches = inputs::uniform_batches(&patterns, QueryRequest::Interval);
    let mut replay = Replay {
        trace: Trace::new(Instant::now()),
        exec: exec.as_ref(),
        batches: &batches,
        interval_batches: &interval_batches,
        resolver: BatchResolver::with_config(index.base_index(), ResolveConfig::locality()),
        cap: resolver_cap(kind.request()),
        forward_len: forward_len(index.text_len()),
        map_hits: kind == Kind::BothStrands,
        arena: QueryArena::new(),
        intervals: Vec::new(),
        caps: Vec::new(),
        flat: Vec::new(),
        offsets: Vec::new(),
        hits: Vec::new(),
        totals: ReplayTotals::default(),
        first_pass: None,
    };
    let traced_window = measure(
        exec.as_ref(),
        &batches,
        &expected,
        traced_seconds,
        &mut arena,
        |i, sequence, t0, t1, counters| replay.batch(i, sequence, t0, t1, counters),
    );
    result.attempted += traced_window.queries;
    result.failed += traced_window.failed;
    traced_window.describe("traced window");
    let Replay {
        mut trace,
        totals,
        first_pass,
        ..
    } = replay;
    // Counts that must repeat exactly are ratios over one pass of the
    // pool; rates divide a time by the counts of the whole window.
    let pass = first_pass.unwrap_or_else(|| {
        println!(
            "# the traced window was shorter than one pass over the pool: counts are not exact"
        );
        totals
    });
    let pass_batches = batches.len().min(traced_window.samples.len()).max(1) as f64;
    let pass_queries = pass_batches * BATCH_QUERIES as f64;

    let queries = traced_window.queries as f64;
    let by_name = trace.total_ns_by_name();
    let total = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64;
    let root_ns = total("engine.run_into");
    let search_ns = total("engine.run_into.search_replay");
    let resolve_ns = total("index.resolve.resolve_intervals_capped");
    let map_ns = total("index.bidir.map_hits_in_place");
    metrics.set(
        "engine.batch.search_ns_per_step",
        search_ns / totals.replayed_steps.max(1) as f64,
    );
    metrics.set(
        "engine.batch.steps_per_query",
        pass.steps as f64 / pass_queries,
    );
    metrics.set(
        "engine.batch.rounds_per_batch",
        pass.rounds as f64 / pass_batches,
    );
    metrics.set(
        "engine.batch.resolve_lf_steps_per_query",
        pass.lf_steps as f64 / pass_queries,
    );
    metrics.set("engine.batch.search_share", search_ns / root_ns);
    metrics.set("engine.batch.resolve_share", resolve_ns / root_ns);
    // Root minus its replayed children: the engine's own merge, cap
    // bookkeeping and result pooling.
    let self_ns = trace.self_ns_by_name()["engine.run_into"] as f64;
    metrics.set("engine.batch.self_ns_per_query", self_ns / queries);
    println!(
        "# engine.run_into {:.0} ns/query = search {:.0} + resolve {:.0} + map {:.0} + self {:.0}",
        root_ns / queries,
        search_ns / queries,
        resolve_ns / queries,
        map_ns / queries,
        self_ns / queries
    );
    let mut per_query: Vec<f64> = traced_window
        .samples
        .iter()
        .map(|&(_, us)| us * 1e3 / BATCH_QUERIES as f64)
        .collect();
    stats::sort(&mut per_query);
    metrics.set(
        "engine.batch.query_ns_p50",
        latency_us_p50 * 1e3 / BATCH_QUERIES as f64,
    );
    metrics.set(
        "engine.batch.query_ns_p99",
        stats::percentile(&per_query, 99.0),
    );
    if totals.positions > 0 {
        metrics.set(
            "index.resolve.lf_step_ns",
            resolve_ns / totals.replayed_lf_steps.max(1) as f64,
        );
        metrics.set(
            "index.resolve.ns_per_position",
            resolve_ns / totals.positions as f64,
        );
        metrics.set(
            "index.resolve.lf_steps_per_position",
            pass.replayed_lf_steps as f64 / pass.positions.max(1) as f64,
        );
        metrics.set(
            "index.resolve.dropped_share",
            pass.dropped as f64 / (pass.retired + pass.dropped).max(1) as f64,
        );
    }
    if totals.raw_hits > 0 {
        metrics.set(
            "index.bidir.map_hits_ns_per_hit",
            map_ns / totals.raw_hits as f64,
        );
    }
    metrics.set(
        "trace.overhead_share",
        traced_window.latency_us_p50(traced_seconds) / latency_us_p50 - 1.0,
    );

    // The same batches through the plain sequential baseline and, with
    // a second core, through two shards.
    let comparison = &batches[..COMPARISON_BATCHES.min(batches.len())];
    let comparison_queries = (comparison.len() * BATCH_QUERIES) as f64;
    let run_all = |exec: &dyn Executor| {
        let mut arena = QueryArena::new();
        exec.run_into(&comparison[0], &mut arena);
        let (seconds, ()) = timed(|| {
            for batch in comparison {
                exec.run_into(batch, &mut arena);
            }
        });
        seconds * 1e9 / comparison_queries
    };
    let seq_ns = run_all(sequential_one_step(&index).as_ref());
    let lockstep_ns = run_all(exec.as_ref());
    metrics.set("engine.exec.seq_k1_ns_per_query", seq_ns);
    metrics.set("engine.exec.speedup_vs_seq_k1", seq_ns / lockstep_ns);
    if machine::nproc() >= 2 {
        let two = builder
            .threads(2)
            .attach(&index)
            .expect("two threads are a valid recipe");
        metrics.set(
            "engine.shard.t2_speedup",
            lockstep_ns / run_all(two.as_ref()),
        );
    }
    let (build_batch_s, rebuilt) = timed(|| inputs::uniform_batches(&patterns, kind.request()));
    assert_eq!(rebuilt.len(), batches.len());
    metrics.set(
        "engine.query.batch_build_ns_per_query",
        build_batch_s * 1e9 / pool_queries as f64,
    );

    metrics.set("genome.genome.synthesize_s", synthesize_s);
    metrics.set(
        "genome.reads.simulate_ns_per_read",
        simulate_s * 1e9 / pool_queries as f64,
    );
    layers::heap(&mut metrics, &heap);
    layers::kernels(
        &mut metrics,
        &mut trace,
        &index,
        &patterns[..BATCH_QUERIES],
        seeds.arrivals,
    );
    layers::machine(&mut metrics, &mut trace, seeds.arrivals);
    // One 64-byte line per step at the box's miss latency is what the
    // search would cost with no overlap at all; the ratio to what it did
    // cost is the memory-level parallelism the schedule achieved.
    let chase_ns = metrics.get("machine.chase_ns").unwrap_or(0.0);
    metrics.set(
        "engine.batch.implied_mlp",
        totals.steps as f64 * chase_ns / search_ns,
    );
    layers::snapshot(&mut metrics, &mut trace, &index, genome.len());
    drop(exec);
    // Last: the direct suffix-array and BWT calls need the text the
    // index was built over, and a suffix array beside it.
    let text = genome.text_with_sentinel();
    let text = if kind == Kind::BothStrands {
        exma_index::doubled_text(&text)
    } else {
        text
    };
    drop(index);
    layers::build_breakdown(&mut metrics, &mut trace, &text, build_s);

    let path = machine::out_dir().join(format!("trace_{}.json", kind.name()));
    trace
        .write_json(&path, kind.name(), seed)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    result.metrics = metrics;
    result
}

/// Counters summed over the replays of a traced window.
#[derive(Default, Clone, Copy)]
struct ReplayTotals {
    /// The root calls' own counters.
    steps: usize,
    rounds: usize,
    lf_steps: usize,
    /// The replays' counters.
    replayed_steps: usize,
    replayed_lf_steps: usize,
    retired: usize,
    dropped: usize,
    positions: usize,
    raw_hits: usize,
}

/// The traced run's per-batch replays and the buffers they reuse.
struct Replay<'a> {
    trace: Trace,
    exec: &'a dyn Executor,
    batches: &'a [QueryBatch],
    interval_batches: &'a [QueryBatch],
    resolver: BatchResolver<'a>,
    cap: Option<u32>,
    forward_len: usize,
    map_hits: bool,
    arena: QueryArena,
    intervals: Vec<Range<usize>>,
    caps: Vec<u32>,
    flat: Vec<u32>,
    offsets: Vec<usize>,
    hits: Vec<u32>,
    totals: ReplayTotals,
    /// `totals` as they stood after the first pass over the pool. How
    /// many batches a window fits varies from run to run; one pass over
    /// the same batches does not, so the *exact* counts come from here.
    first_pass: Option<ReplayTotals>,
}

impl Replay<'_> {
    /// Records batch `i`'s root span, then replays it: the search alone
    /// (the same patterns as `Interval` requests), the resolver alone on
    /// the intervals that search returned, and for strand searches the
    /// hit mapping alone on the positions that resolver returned. The
    /// replays run after the root call, not inside it; by construction
    /// root = search + resolve + map + the engine's own merge and
    /// bookkeeping.
    fn batch(&mut self, i: usize, sequence: u64, t0: Instant, t1: Instant, counters: BatchStats) {
        self.replay(i, sequence, t0, t1, counters);
        if sequence + 1 == self.batches.len() as u64 {
            self.first_pass = Some(self.totals);
        }
    }

    fn replay(&mut self, i: usize, sequence: u64, t0: Instant, t1: Instant, counters: BatchStats) {
        let root = self.trace.record("engine.run_into", t0, t1, None, sequence);
        self.totals.steps += counters.steps;
        self.totals.rounds += counters.rounds;
        self.totals.lf_steps += counters.resolve_lf_steps;

        let s0 = Instant::now();
        let searched = self
            .exec
            .run_into(&self.interval_batches[i], &mut self.arena);
        let s1 = Instant::now();
        self.trace.record(
            "engine.run_into.search_replay",
            s0,
            s1,
            Some(root),
            sequence,
        );
        self.totals.replayed_steps += searched.steps;

        let Some(cap) = self.cap else { return };
        self.intervals.clear();
        self.caps.clear();
        for q in 0..self.arena.results().len() {
            let interval = self.arena.results().interval(q);
            self.intervals.push(interval.expect("interval request"));
            self.caps.push(cap);
        }
        let r0 = Instant::now();
        let resolved = self.resolver.resolve_intervals_capped(
            &self.intervals,
            &self.caps,
            &mut self.flat,
            &mut self.offsets,
        );
        let r1 = Instant::now();
        self.trace.record(
            "index.resolve.resolve_intervals_capped",
            r0,
            r1,
            Some(root),
            sequence,
        );
        self.totals.replayed_lf_steps += resolved.lf_steps;
        self.totals.retired += resolved.retired;
        self.totals.dropped += resolved.dropped;
        self.totals.positions += self.flat.len();

        if !self.map_hits {
            return;
        }
        let m0 = Instant::now();
        for q in 0..self.intervals.len() {
            self.hits.clear();
            self.hits
                .extend_from_slice(&self.flat[self.offsets[q]..self.offsets[q + 1]]);
            map_hits_in_place(&mut self.hits, self.batches[i].pattern(q), self.forward_len);
        }
        let m1 = Instant::now();
        self.trace.record(
            "index.bidir.map_hits_in_place",
            m0,
            m1,
            Some(root),
            sequence,
        );
        self.totals.raw_hits += self.flat.len();
    }
}
