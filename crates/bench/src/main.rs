//! `exma-bench` — the benchmark harness of the EXMA reproduction.
//!
//! The ROADMAP's north star demands *measured* hot-path speedups; this
//! binary produces the measurements. It synthesizes the paper's genome
//! profiles at relative scale, simulates Illumina and ONT read workloads,
//! and drives **every variant through one `Executor` surface**: the
//! builder-config enumeration of [`engines::builder_configs`] (sequential
//! baselines, lockstep schedules, sharded thread counts, resolver
//! isolations) is timed on three ops per workload — an all-`count` batch,
//! an all-`locate` batch, and a `mixed` scenario interleaving counts,
//! capped and uncapped locates, and interval requests — then writes
//! `BENCH_exma.json` (schema v7: derived descriptors as engine labels,
//! per-component heap breakdowns, and the bidirectional preset
//! section). Every genome additionally rebuilds the headline k = 4
//! index strand-agnostic under each memory-layout preset
//! (default/compact) and times all-`SearchBoth` batches of
//! error-free reads drawn from either strand, verified against the
//! brute-force both-strand scan — the measured cost of the doubled
//! `forward·revcomp` text next to its forward-only counterpart.
//! Every variant's answers are cross-checked against the sequential
//! 1-step oracle, and the prefetching schedule is checked to issue
//! exactly the plain one's LF steps; any violation makes the process
//! exit non-zero, which is what the `bench-smoke` CI job gates on.
//!
//! ```text
//! cargo run --release -p exma-bench                 # full run (~2 min)
//! cargo run --release -p exma-bench -- --smoke      # CI-sized run (< 60 s)
//! cargo run --release -p exma-bench -- --list-engines  # print the enumeration
//! ```

mod engines;
mod json;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use exma_engine::{
    EngineBuilder, HeapBreakdown, IndexLayout, QueryArena, QueryBatch, QueryRequest, QueryResults,
};
use exma_genome::{
    Base, ErrorProfile, Genome, GenomeProfile, LongReadSimulator, ShortReadSimulator, Symbol,
};
use exma_index::{naive, KStepBuildConfig};

use crate::engines::{
    builder_configs, checksum, EngineSet, Measure, SweepPoint, Variant, OP_COUNT, OP_KINDS,
    OP_LOCATE, OP_MIXED, OP_NAMES,
};
use crate::json::Json;

/// Seed window taken from each simulated ONT read. 51 is deliberately odd:
/// it exercises the pattern-tail path of both k = 2 and k = 4 engines.
const ONT_SEED_LEN: usize = 51;

/// Illumina template read length (the paper's short-read workload).
const ILLUMINA_LEN: usize = 100;

/// Hit cap of the mixed scenario's capped-locate queries — tight enough
/// to bite on repeat patterns, loose enough that most 100 bp reads are
/// untruncated.
const MIXED_MAX_HITS: u32 = 8;

/// `k_occ_sample_rate` values covered by `--sweep-sample-rate` (the
/// default full-mode k = 4 spacing, 384, sits between the third and the
/// fourth).
const SWEEP_RATES: [usize; 5] = [64, 128, 256, 512, 1024];

/// `sa_sample_rate` values covered by `--sweep-sa-sample-rate`: the
/// default 11 between its neighbours 8 and 16, and 32, the default
/// before the occurrence lines were filled to pay for 11. Coarser rates
/// shrink the sampled suffix array but lengthen every locate cursor's
/// LF-walk — the locate-latency / heap trade-off the sweep maps.
const SA_SWEEP_RATES: [usize; 4] = [8, 11, 16, 32];

const USAGE: &str = "exma-bench: benchmark the builder-config enumeration of FM-index engines

USAGE:
    cargo run --release -p exma-bench [-- OPTIONS]

OPTIONS:
    --smoke               CI-sized run: small genomes, fewer queries, < 60 s
    --out PATH            output JSON path (default: BENCH_exma.json)
    --seed N              master seed for genomes and read sets (default: 42)
    --threads LIST        sharded-engine thread counts, comma-separated
                          (default: 1,2,4,8 full / 1,2 smoke)
    --sweep-sample-rate   also sweep k_occ_sample_rate over 64..1024 on the
                          picea profile (k = 4, locality engine)
    --sweep-sa-sample-rate
                          also sweep sa_sample_rate over 8..32 on the picea
                          profile (k = 4, locality engine, locate timing)
    --list-engines        print the derived descriptor of every enumerated
                          builder config (sweep configs included with the
                          sweep flags) and exit
    --help                print this help

Exits non-zero if any variant's results diverge from the sequential
1-step oracle on any op (count, locate, or the mixed scenario), or if
the prefetching schedule issues other LF steps than the plain one.";

struct Args {
    smoke: bool,
    out: PathBuf,
    seed: u64,
    /// Empty means "use the mode's default thread counts".
    threads: Vec<usize>,
    sweep: bool,
    sweep_sa: bool,
    list_engines: bool,
}

/// Everything that differs between `--smoke` and the full run.
struct RunSpec {
    mode: &'static str,
    genomes: Vec<GenomeProfile>,
    illumina_reads: usize,
    ont_reads: usize,
    /// Odd, so the median is an actual observation.
    count_reps: usize,
    locate_reps: usize,
    /// How many patterns per workload get full locate/mixed verification.
    verify_locates: usize,
    /// Sharded-engine thread counts measured by default.
    thread_counts: Vec<usize>,
}

fn full_spec() -> RunSpec {
    RunSpec {
        mode: "full",
        genomes: vec![
            GenomeProfile::human_rel(),
            GenomeProfile::picea_rel(),
            GenomeProfile::pinus_rel(),
        ],
        illumina_reads: 5_000,
        ont_reads: 2_000,
        // The bench box is a shared single-core VM with bursty neighbor
        // noise; 9 repetitions keep the median out of a noise burst.
        count_reps: 9,
        locate_reps: 5,
        verify_locates: 200,
        thread_counts: vec![1, 2, 4, 8],
    }
}

fn smoke_spec() -> RunSpec {
    // The paper's profiles, shrunk to CI size (builds in milliseconds,
    // whole run in seconds) but keeping their GC/repeat structure.
    let shrink = |profile: GenomeProfile, len: usize| GenomeProfile {
        name: format!("{}_smoke", profile.name),
        len,
        ..profile
    };
    RunSpec {
        mode: "smoke",
        genomes: vec![
            shrink(GenomeProfile::human_rel(), 120_000),
            shrink(GenomeProfile::picea_rel(), 200_000),
        ],
        illumina_reads: 800,
        ont_reads: 300,
        count_reps: 3,
        locate_reps: 3,
        verify_locates: 100,
        thread_counts: vec![1, 2],
    }
}

/// A named pattern set with its three pre-built query batches (one per
/// timed op) and the verification heads of the position-heavy ops.
struct Workload {
    name: String,
    queries: usize,
    /// `batches[op]` for op ∈ {OP_COUNT, OP_LOCATE, OP_MIXED}.
    batches: [QueryBatch; OP_KINDS],
    /// First `verify_locates` queries of the locate and mixed batches —
    /// full-position verification over the whole set would dominate the
    /// run.
    locate_head: QueryBatch,
    mixed_head: QueryBatch,
}

/// The mixed count+locate scenario: one submission cycling through
/// every request shape the API offers.
fn mixed_batch(patterns: &[Vec<Base>]) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for (i, pattern) in patterns.iter().enumerate() {
        match i % 4 {
            0 => batch.push(QueryRequest::Count, pattern),
            1 => batch.push(QueryRequest::locate(), pattern),
            2 => batch.push(QueryRequest::locate_capped(MIXED_MAX_HITS), pattern),
            _ => batch.push(QueryRequest::Interval, pattern),
        }
    }
    batch
}

fn workload(name: String, patterns: Vec<Vec<Base>>, verify_locates: usize) -> Workload {
    let head = patterns.len().min(verify_locates);
    Workload {
        name,
        queries: patterns.len(),
        locate_head: QueryBatch::uniform(QueryRequest::locate(), &patterns[..head]),
        mixed_head: mixed_batch(&patterns[..head]),
        batches: [
            QueryBatch::uniform(QueryRequest::Count, &patterns),
            QueryBatch::uniform(QueryRequest::locate(), &patterns),
            mixed_batch(&patterns),
        ],
    }
}

fn workloads(genome: &Genome, spec: &RunSpec, seed: u64) -> Vec<Workload> {
    // Error-bearing Illumina reads: most are exact substrings (0.12%
    // per-base error), so counts are usually >= 1 — the "mostly hit"
    // workload. Indels make a few lengths odd, which also stresses tails.
    let illumina: Vec<Vec<Base>> = ShortReadSimulator::new(ILLUMINA_LEN, ErrorProfile::illumina())
        .simulate(genome, spec.illumina_reads, seed ^ 0x1111)
        .iter()
        .map(|r| r.bases.to_vec())
        .collect();
    // Fixed-width seeds clipped from ONT reads: at ~13% per-base error a
    // 51-mer almost never matches exactly, so backward searches die early —
    // the "mostly miss" workload where batched dead-query dropping pays.
    let ont: Vec<Vec<Base>> = LongReadSimulator::new(1_200, 300, ErrorProfile::ont())
        .simulate(genome, spec.ont_reads, seed ^ 0x2222)
        .iter()
        .filter(|r| r.len() >= ONT_SEED_LEN)
        .map(|r| (0..ONT_SEED_LEN).map(|i| r.bases.get(i)).collect())
        .collect();
    vec![
        workload(
            format!("illumina_{ILLUMINA_LEN}bp"),
            illumina,
            spec.verify_locates,
        ),
        workload(
            format!("ont_seed_{ONT_SEED_LEN}bp"),
            ont,
            spec.verify_locates,
        ),
    ]
}

/// Checks every variant's answers against the sequential 1-step oracle
/// on all three ops. Returns the number of divergent (variant, workload,
/// op) triples, reporting each to stderr.
fn verify(variants: &[Variant], loads: &[Workload], genome: &str) -> usize {
    let (oracle, rest) = variants.split_first().expect("enumeration is never empty");
    let mut divergences = 0;
    for load in loads {
        let checks = [
            (OP_NAMES[OP_COUNT], &load.batches[OP_COUNT]),
            (OP_NAMES[OP_LOCATE], &load.locate_head),
            (OP_NAMES[OP_MIXED], &load.mixed_head),
        ];
        for (op, batch) in checks {
            let (expected, _) = oracle.exec.run(batch);
            for variant in rest {
                if variant.exec.run(batch).0 != expected {
                    eprintln!(
                        "DIVERGENCE: {genome}/{}/{}: {op} differs from the 1-step oracle",
                        variant.label, load.name
                    );
                    divergences += 1;
                }
            }
        }
    }
    divergences
}

/// Scheduling sanity gate: prefetching moves a round's memory traffic
/// earlier but must never add or drop refinements. Compares
/// `BatchStats.steps` of the locality schedule against the plain one on
/// every workload; returns the number of violations, reporting each to
/// stderr.
fn check_schedule_steps(variants: &[Variant], loads: &[Workload], genome: &str) -> usize {
    let steps_of = |label: &str, batch: &QueryBatch| {
        variants
            .iter()
            .find(|v| v.label == label)
            .map(|v| v.exec.run(batch).1.steps)
    };
    let mut violations = 0;
    for load in loads {
        let batch = &load.batches[OP_COUNT];
        let (Some(plain), Some(locality)) = (
            steps_of("lockstep_k4_plain", batch),
            steps_of("lockstep_k4_locality", batch),
        ) else {
            continue;
        };
        if locality != plain {
            eprintln!(
                "SCHEDULING REGRESSION: {genome}/{}: locality schedule issued {locality} LF steps, plain {plain}",
                load.name
            );
            violations += 1;
        }
    }
    violations
}

/// Accumulated timings of one (variant, workload, op) cell.
#[derive(Default, Clone)]
struct OpTiming {
    times: Vec<f64>,
    checksum: u64,
}

impl OpTiming {
    fn median_secs(&self) -> f64 {
        let mut times = self.times.clone();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    }
}

/// Times every variant on every workload and op with repetitions
/// *interleaved* across variants (rep 1 of every variant, then rep 2,
/// ...): the bench box is a shared VM with bursty neighbor noise, and
/// consecutive per-variant reps would let one burst land entirely on
/// whichever variant was being measured. Each variant reuses one
/// `QueryArena` across all reps — the steady state the pooled API is
/// designed for. Returns `timings[variant][load * OP_KINDS + op]`.
fn measure_interleaved(
    variants: &[Variant],
    loads: &[Workload],
    spec: &RunSpec,
) -> Vec<Vec<OpTiming>> {
    let mut timings = vec![vec![OpTiming::default(); loads.len() * OP_KINDS]; variants.len()];
    let mut arenas: Vec<QueryArena> = variants.iter().map(|_| QueryArena::new()).collect();
    for (li, load) in loads.iter().enumerate() {
        for op in 0..OP_KINDS {
            let reps = if op == OP_COUNT {
                spec.count_reps
            } else {
                spec.locate_reps
            };
            for _ in 0..reps {
                for (vi, variant) in variants.iter().enumerate() {
                    if !variant.measure.includes(op) {
                        continue; // locate-only variants skip count/mixed
                    }
                    let start = Instant::now();
                    variant.exec.run_into(&load.batches[op], &mut arenas[vi]);
                    let elapsed = start.elapsed().as_secs_f64();
                    let cell = &mut timings[vi][li * OP_KINDS + op];
                    cell.times.push(elapsed);
                    cell.checksum = checksum(std::hint::black_box(arenas[vi].results()));
                }
            }
        }
    }
    timings
}

/// Assembles one variant's JSON entry from its accumulated timings.
fn engine_entry(
    variant: &Variant,
    timings: &[OpTiming],
    loads: &[Workload],
    spec: &RunSpec,
    genome: &Genome,
) -> Json {
    let mut ops: Vec<Json> = Vec::new();
    for (li, load) in loads.iter().enumerate() {
        let mut shown: Vec<String> = Vec::new();
        for (op, name) in OP_NAMES.iter().enumerate() {
            let cell = &timings[li * OP_KINDS + op];
            if cell.times.is_empty() {
                continue; // op not measured for this variant
            }
            let ns_per_query = cell.median_secs() * 1e9 / load.queries as f64;
            shown.push(format!("{name} {ns_per_query:.0} ns/q"));
            ops.push(
                Json::obj()
                    .field("op", *name)
                    .field("workload", load.name.as_str())
                    .field("queries", load.queries)
                    .field("reps", cell.times.len())
                    .field("median_ns_per_query", ns_per_query)
                    .field("queries_per_sec", 1e9 / ns_per_query)
                    .field("checksum", cell.checksum),
            );
        }
        eprintln!(
            "[{}] {}/{}/{}: {}",
            spec.mode,
            genome.profile().name,
            variant.label,
            load.name,
            shown.join(", "),
        );
    }
    let mut entry = Json::obj()
        .field("genome", genome.profile().name.as_str())
        .field("genome_len", genome.len())
        .field("engine", variant.label.as_str())
        .field("k", variant.k)
        .field("build_ms", variant.build_secs * 1e3)
        .field("heap_bytes", variant.heap_bytes)
        .field("heap", heap_json(&variant.heap));
    if let Some(threads) = variant.threads {
        entry = entry.field("threads", threads);
    }
    if let Some(shared) = &variant.shares_index_with {
        entry = entry.field("shares_index_with", shared.as_str());
    }
    entry.field("ops", ops)
}

/// The per-component heap attribution of one index, as the schema-v6
/// `heap` object (`total` always equals the component sum — the
/// breakdown is exact, not an estimate).
fn heap_json(heap: &HeapBreakdown) -> Json {
    Json::obj()
        .field("total", heap.total())
        .field("k_occ_checkpoints", heap.k_occ_checkpoints)
        .field("k_occ_deltas", heap.k_occ_deltas)
        .field("k_occ_codes", heap.k_occ_codes)
        .field("one_step_occ", heap.one_step_occ)
        .field("sa_samples", heap.sa_samples)
        .field("rank_bits", heap.rank_bits)
        .field("other", heap.other)
}

/// The strand-agnostic recipes of the bidirectional section: the
/// headline k = 4 width under each memory-layout preset, rebuilt over
/// the doubled `forward·revcomp` text.
fn bidir_preset_builders() -> [(&'static str, EngineBuilder); 2] {
    [
        ("default", EngineBuilder::new().bidirectional(true)),
        (
            "compact",
            EngineBuilder::new()
                .layout(IndexLayout::compact())
                .bidirectional(true),
        ),
    ]
}

/// A named all-`SearchBoth` pattern set and its verification head.
struct BidirLoad {
    name: String,
    queries: usize,
    batch: QueryBatch,
    head: QueryBatch,
}

/// The bidirectional workloads: error-free simulated reads — Illumina
/// lengths and ONT seed clips — drawn as sequenced from either strand
/// and submitted verbatim, the "align without client-side reverse
/// complementing" scenario. Error-free so every read still matches its
/// template and the answers stay hit-biased; every query is capped at
/// [`MIXED_MAX_HITS`] so both-strand response sizes stay bounded.
fn bidir_loads(genome: &Genome, spec: &RunSpec, seed: u64) -> Vec<BidirLoad> {
    let short: Vec<Vec<Base>> = ShortReadSimulator::new(ILLUMINA_LEN, ErrorProfile::error_free())
        .simulate(genome, spec.illumina_reads / 5, seed ^ 0x3333)
        .iter()
        .map(|r| r.bases.to_vec())
        .collect();
    let long: Vec<Vec<Base>> = LongReadSimulator::new(1_200, 300, ErrorProfile::error_free())
        .simulate(genome, spec.ont_reads / 5, seed ^ 0x4444)
        .iter()
        .filter(|r| r.len() >= ONT_SEED_LEN)
        .map(|r| (0..ONT_SEED_LEN).map(|i| r.bases.get(i)).collect())
        .collect();
    let load = |name: String, patterns: Vec<Vec<Base>>| {
        let head = patterns.len().min(spec.verify_locates);
        let request = QueryRequest::search_both_capped(MIXED_MAX_HITS);
        BidirLoad {
            name,
            queries: patterns.len(),
            head: QueryBatch::uniform(request, &patterns[..head]),
            batch: QueryBatch::uniform(request, &patterns),
        }
    };
    vec![
        load(format!("illumina_{ILLUMINA_LEN}bp_bothstrand"), short),
        load(format!("ont_seed_{ONT_SEED_LEN}bp_bothstrand"), long),
    ]
}

/// The bidirectional measurement: each preset of
/// [`bidir_preset_builders`] is built, verified, and timed on the
/// [`bidir_loads`]. The default preset's verification head is checked
/// query by query against the brute-force both-strand scan (cap rule
/// included); the other preset must answer the full batches
/// identically to the default one — layout changes the footprint,
/// never the answers. Heap is reported next to the matching
/// forward-only index's, making the ~2× strand-agnostic cost a
/// measured number per preset. Returns the JSON entries and the
/// divergence count.
fn bidir_section(
    genome: &Genome,
    text: &[Symbol],
    forward_heap: [usize; 2],
    spec: &RunSpec,
    seed: u64,
) -> (Vec<Json>, usize) {
    let loads = bidir_loads(genome, spec, seed);
    let mut entries = Vec::new();
    let mut divergences = 0;
    let mut reference: Vec<QueryResults> = Vec::new();
    for (pi, (preset, builder)) in bidir_preset_builders().into_iter().enumerate() {
        let start = Instant::now();
        let index = builder
            .build_index(text)
            .expect("bidir recipes build on every profile");
        let build_secs = start.elapsed().as_secs_f64();
        let exec = builder
            .attach(&index)
            .expect("bidir recipes attach to their own index");
        let mut arena = QueryArena::new();
        let mut ops: Vec<Json> = Vec::new();
        for (li, load) in loads.iter().enumerate() {
            if pi == 0 {
                // The default preset carries the naive-oracle check.
                let (head_results, _) = exec.run(&load.head);
                for i in 0..load.head.len() {
                    let hits = naive::occurrences_both(genome.seq(), load.head.pattern(i));
                    let kept = (MIXED_MAX_HITS as usize).min(hits.len());
                    if head_results.positions(i) != &hits[..kept] {
                        eprintln!(
                            "DIVERGENCE: {}/{}/{}: search_both #{i} differs from the \
                             both-strand naive scan",
                            genome.profile().name,
                            builder.descriptor(),
                            load.name
                        );
                        divergences += 1;
                    }
                }
                reference.push(exec.run(&load.batch).0);
            } else if exec.run(&load.batch).0 != reference[li] {
                eprintln!(
                    "DIVERGENCE: {}/{}/{}: search_both differs from the default preset",
                    genome.profile().name,
                    builder.descriptor(),
                    load.name
                );
                divergences += 1;
            }
            let mut cell = OpTiming::default();
            for _ in 0..spec.locate_reps {
                let start = Instant::now();
                exec.run_into(&load.batch, &mut arena);
                cell.times.push(start.elapsed().as_secs_f64());
                cell.checksum = checksum(std::hint::black_box(arena.results()));
            }
            let ns_per_query = cell.median_secs() * 1e9 / load.queries as f64;
            eprintln!(
                "[{}] {}/{}/{}: search_both {ns_per_query:.0} ns/q",
                spec.mode,
                genome.profile().name,
                builder.descriptor(),
                load.name,
            );
            ops.push(
                Json::obj()
                    .field("op", "search_both")
                    .field("workload", load.name.as_str())
                    .field("queries", load.queries)
                    .field("reps", cell.times.len())
                    .field("median_ns_per_query", ns_per_query)
                    .field("queries_per_sec", 1e9 / ns_per_query)
                    .field("checksum", cell.checksum),
            );
        }
        entries.push(
            Json::obj()
                .field("genome", genome.profile().name.as_str())
                .field("genome_len", genome.len())
                .field("preset", preset)
                .field("engine", builder.descriptor())
                .field("k", builder.step_width())
                .field("build_ms", build_secs * 1e3)
                .field("heap_bytes", index.heap_bytes())
                .field("heap", heap_json(&index.heap_breakdown()))
                .field("forward_heap_bytes", forward_heap[pi])
                .field(
                    "heap_ratio_vs_forward",
                    index.heap_bytes() as f64 / forward_heap[pi] as f64,
                )
                .field("ops", ops),
        );
    }
    (entries, divergences)
}

/// The builder configs behind the two sweeps, descriptor-visible in
/// `--list-engines` and shared with the sweep runners below.
fn sweep_builders() -> Vec<(EngineBuilder, Measure, usize)> {
    SWEEP_RATES
        .iter()
        .map(|&rate| {
            (
                EngineBuilder::new().layout(IndexLayout::new().k_occ_sample_rate(rate)),
                Measure::All,
                rate,
            )
        })
        .collect()
}

fn sa_sweep_builders() -> Vec<(EngineBuilder, Measure, usize)> {
    SA_SWEEP_RATES
        .iter()
        .map(|&rate| {
            (
                EngineBuilder::new().layout(IndexLayout::new().sa_sample_rate(rate)),
                Measure::LocateOnly,
                rate,
            )
        })
        .collect()
}

/// `--list-engines`: print the derived descriptor of every enumerated
/// builder config (no index is built — descriptors derive from the
/// recipes alone).
fn list_engines(args: &Args, thread_counts: &[usize]) {
    println!("# main enumeration (one entry per genome in a run)");
    for (builder, measure) in builder_configs(thread_counts) {
        println!(
            "{:<34} k={} threads={} measure={:?}",
            builder.descriptor(),
            builder.step_width(),
            builder.thread_count(),
            measure
        );
    }
    println!("# bidirectional presets (one entry per genome in a run)");
    for (preset, builder) in bidir_preset_builders() {
        println!(
            "{:<34} preset={preset} k={} bidirectional",
            builder.descriptor(),
            builder.step_width(),
        );
    }
    if args.sweep {
        println!("# --sweep-sample-rate configs (picea profile)");
        for (builder, measure, rate) in sweep_builders() {
            println!(
                "{:<34} k_occ_sample_rate={rate} measure={measure:?}",
                builder.descriptor()
            );
        }
    }
    if args.sweep_sa {
        println!("# --sweep-sa-sample-rate configs (picea profile)");
        for (builder, measure, rate) in sa_sweep_builders() {
            println!(
                "{:<34} sa_sample_rate={rate} measure={measure:?}",
                builder.descriptor()
            );
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let spec = if args.smoke {
        smoke_spec()
    } else {
        full_spec()
    };
    let thread_counts = if args.threads.is_empty() {
        spec.thread_counts.clone()
    } else {
        args.threads.clone()
    };
    if args.list_engines {
        list_engines(args, &thread_counts);
        return ExitCode::SUCCESS;
    }
    let started = Instant::now();
    let mut results: Vec<Json> = Vec::new();
    let mut bidir_results: Vec<Json> = Vec::new();
    let mut sweep_results: Vec<Json> = Vec::new();
    let mut sa_sweep_results: Vec<Json> = Vec::new();
    let mut violations = 0usize;

    for profile in &spec.genomes {
        eprintln!(
            "[{}] synthesizing {} ({} bp)...",
            spec.mode, profile.name, profile.len
        );
        let genome = Genome::synthesize(profile, args.seed);
        let loads = workloads(&genome, &spec, args.seed);
        let text = genome.text_with_sentinel();

        eprintln!("[{}] building 1-step, k=2, k=4 indexes...", spec.mode);
        let set = EngineSet::build(&text);
        let variants = set.variants(&thread_counts);

        violations += verify(&variants, &loads, &profile.name);
        violations += check_schedule_steps(&variants, &loads, &profile.name);

        let timings = measure_interleaved(&variants, &loads, &spec);
        for (variant, variant_timings) in variants.iter().zip(&timings) {
            results.push(engine_entry(
                variant,
                variant_timings,
                &loads,
                &spec,
                &genome,
            ));
        }

        // The bidirectional section runs on every genome, smoke
        // included: the strand-agnostic cost per layout preset is a
        // headline number, not an opt-in sweep.
        eprintln!(
            "[{}] building bidirectional k=4 presets (default/compact)...",
            spec.mode
        );
        let forward_heap = [set.k4.heap_bytes(), set.k4_compact.heap_bytes()];
        let (entries, bidir_divergences) =
            bidir_section(&genome, &text, forward_heap, &spec, args.seed);
        violations += bidir_divergences;
        bidir_results.extend(entries);

        // The sample-rate sweeps run on the picea profile — the paper's
        // headline memory/latency trade-off genome — reusing this
        // genome's oracle and workloads. Sweep points verify against the
        // oracle variant on their measured op before being timed.
        let oracle = &variants[0];
        if args.sweep && profile.name.starts_with("picea") {
            // Oracle answers are invariant across sweep rates; compute
            // them once per workload, not once per (rate, workload).
            let oracle_counts: Vec<_> = loads
                .iter()
                .map(|load| oracle.exec.run(&load.batches[OP_COUNT]).0)
                .collect();
            for (builder, measure, rate) in sweep_builders() {
                eprintln!("[{}] sweep: k=4, k_occ_sample_rate={rate}...", spec.mode);
                let point = SweepPoint::build(&text, builder, measure);
                let sweep_variant = [point.variant()];
                for (load, expected) in loads.iter().zip(&oracle_counts) {
                    if sweep_variant[0].exec.run(&load.batches[OP_COUNT]).0 != *expected {
                        eprintln!(
                            "DIVERGENCE: {}/kocc_{rate}/{}: count differs from 1-step oracle",
                            profile.name, load.name
                        );
                        violations += 1;
                    }
                }
                let timings = measure_interleaved(&sweep_variant, &loads, &spec);
                sweep_results.push(
                    engine_entry(&sweep_variant[0], &timings[0], &loads, &spec, &genome)
                        .field("k_occ_sample_rate", rate),
                );
            }
        }

        if args.sweep_sa && profile.name.starts_with("picea") {
            // Oracle locates are likewise rate-invariant; one pass per
            // workload's verification head.
            let oracle_locates: Vec<_> = loads
                .iter()
                .map(|load| oracle.exec.run(&load.locate_head).0)
                .collect();
            for (builder, measure, rate) in sa_sweep_builders() {
                eprintln!("[{}] sa sweep: k=4, sa_sample_rate={rate}...", spec.mode);
                let point = SweepPoint::build(&text, builder, measure);
                let sweep_variant = [point.variant()];
                for (load, expected) in loads.iter().zip(&oracle_locates) {
                    if sweep_variant[0].exec.run(&load.locate_head).0 != *expected {
                        eprintln!(
                            "DIVERGENCE: {}/sa_{rate}/{}: locate differs from 1-step oracle",
                            profile.name, load.name
                        );
                        violations += 1;
                    }
                }
                let timings = measure_interleaved(&sweep_variant, &loads, &spec);
                sa_sweep_results.push(
                    engine_entry(&sweep_variant[0], &timings[0], &loads, &spec, &genome)
                        .field("sa_sample_rate", rate),
                );
            }
        }
    }

    let verified = violations == 0;
    let mut doc = Json::obj()
        .field("schema_version", 7u64)
        .field("mode", spec.mode)
        .field("seed", args.seed)
        .field("illumina_read_len", ILLUMINA_LEN)
        .field("ont_seed_len", ONT_SEED_LEN)
        .field("mixed_max_hits", MIXED_MAX_HITS as u64)
        .field(
            "thread_counts",
            thread_counts
                .iter()
                .map(|&t| Json::Int(t as u64))
                .collect::<Vec<_>>(),
        )
        // The SA sampling rate every non-sweep variant is built at.
        .field("sa_sample_rate", KStepBuildConfig::for_k(4).sa_sample_rate)
        .field("verified_against_oracle", verified)
        .field("wall_clock_secs", started.elapsed().as_secs_f64())
        .field("results", results)
        .field("bidir_presets", bidir_results);
    if args.sweep {
        doc = doc.field("sample_rate_sweep", sweep_results);
    }
    if args.sweep_sa {
        doc = doc.field("sa_rate_sweep", sa_sweep_results);
    }
    let rendered = format!("{doc}\n");
    if let Err(err) = std::fs::write(&args.out, rendered) {
        eprintln!("failed to write {}: {err}", args.out.display());
        return ExitCode::from(2);
    }
    eprintln!("[{}] wrote {}", spec.mode, args.out.display());

    if verified {
        ExitCode::SUCCESS
    } else {
        eprintln!("{violations} oracle divergence(s) / scheduling regression(s)");
        ExitCode::FAILURE
    }
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        smoke: false,
        out: PathBuf::from("BENCH_exma.json"),
        seed: 42,
        threads: Vec::new(),
        sweep: false,
        sweep_sa: false,
        list_engines: false,
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--sweep-sample-rate" => args.sweep = true,
            "--sweep-sa-sample-rate" => args.sweep_sa = true,
            "--list-engines" => args.list_engines = true,
            "--out" => {
                let path = argv.next().ok_or("--out requires a path")?;
                args.out = PathBuf::from(path);
            }
            "--seed" => {
                let raw = argv.next().ok_or("--seed requires a number")?;
                args.seed = raw.parse().map_err(|_| format!("bad seed '{raw}'"))?;
            }
            "--threads" => {
                let raw = argv.next().ok_or("--threads requires a list like 1,2,4")?;
                args.threads = raw
                    .split(',')
                    .map(|part| {
                        part.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&t| t > 0)
                            .ok_or_else(|| format!("bad thread count '{part}'"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(args))
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
        assert!(!args.smoke);
        assert!(!args.sweep);
        assert!(!args.sweep_sa);
        assert!(!args.list_engines);
        assert!(args.threads.is_empty());
        assert_eq!(args.out, PathBuf::from("BENCH_exma.json"));
        assert_eq!(args.seed, 42);

        let args = parse_args(
            [
                "--smoke",
                "--out",
                "/tmp/b.json",
                "--seed",
                "7",
                "--threads",
                "1,2,8",
                "--sweep-sample-rate",
                "--sweep-sa-sample-rate",
                "--list-engines",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap()
        .unwrap();
        assert!(args.smoke);
        assert!(args.sweep);
        assert!(args.sweep_sa);
        assert!(args.list_engines);
        assert_eq!(args.threads, vec![1, 2, 8]);
        assert_eq!(args.out, PathBuf::from("/tmp/b.json"));
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn bad_args_are_rejected() {
        assert!(parse_args(["--frobnicate".to_string()].into_iter()).is_err());
        assert!(parse_args(["--seed".to_string(), "x".to_string()].into_iter()).is_err());
        assert!(parse_args(["--threads".to_string(), "1,x".to_string()].into_iter()).is_err());
        assert!(parse_args(["--threads".to_string(), "0".to_string()].into_iter()).is_err());
        assert!(parse_args(["--help".to_string()].into_iter())
            .unwrap()
            .is_none());
    }

    #[test]
    fn smoke_spec_is_ci_sized() {
        let spec = smoke_spec();
        assert!(spec.genomes.iter().all(|g| g.len <= 200_000));
        assert!(spec.count_reps % 2 == 1, "median needs odd reps");
        assert!(spec.thread_counts.contains(&2), "CI runs sharded at 2");
    }

    #[test]
    fn full_spec_covers_all_three_references() {
        let names: Vec<_> = full_spec().genomes.iter().map(|g| g.name.clone()).collect();
        assert_eq!(names, ["human_rel", "picea_rel", "pinus_rel"]);
    }

    #[test]
    fn workloads_exercise_k_tails() {
        // 51 is odd on purpose: 51 % 2 == 1 and 51 % 4 == 3, so both k-step
        // engines hit their tail path on the ONT workload.
        assert_eq!(ONT_SEED_LEN % 2, 1);
        assert_eq!(ONT_SEED_LEN % 4, 3);
    }

    #[test]
    fn mixed_batches_cycle_every_request_shape() {
        let patterns: Vec<Vec<exma_genome::Base>> = vec![Vec::new(); 8];
        let batch = mixed_batch(&patterns);
        assert_eq!(batch.request(0), QueryRequest::Count);
        assert_eq!(batch.request(1), QueryRequest::locate());
        assert_eq!(
            batch.request(2),
            QueryRequest::locate_capped(MIXED_MAX_HITS)
        );
        assert_eq!(batch.request(3), QueryRequest::Interval);
        assert_eq!(batch.request(4), QueryRequest::Count);
    }

    #[test]
    fn sweep_builders_cover_the_advertised_rates() {
        let rates: Vec<usize> = sweep_builders().iter().map(|&(_, _, r)| r).collect();
        assert_eq!(rates, SWEEP_RATES);
        let sa_rates: Vec<usize> = sa_sweep_builders().iter().map(|&(_, _, r)| r).collect();
        assert_eq!(sa_rates, SA_SWEEP_RATES);
        assert!(sa_sweep_builders()
            .iter()
            .all(|&(_, m, _)| m == Measure::LocateOnly));
    }

    #[test]
    fn bidir_presets_cover_every_layout_with_derived_labels() {
        let presets = bidir_preset_builders();
        let names: Vec<&str> = presets.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["default", "compact"]);
        for (_, builder) in &presets {
            assert!(builder.is_bidirectional());
            assert_eq!(builder.step_width(), 4);
            assert!(
                builder.descriptor().ends_with("_bidir"),
                "{}",
                builder.descriptor()
            );
        }
        let labels: std::collections::HashSet<String> =
            presets.iter().map(|(_, b)| b.descriptor()).collect();
        assert_eq!(labels.len(), 2, "preset labels must be distinct");
    }

    #[test]
    fn heap_json_mirrors_the_breakdown_exactly() {
        let heap = HeapBreakdown {
            k_occ_checkpoints: 1,
            k_occ_deltas: 2,
            k_occ_codes: 3,
            one_step_occ: 4,
            sa_samples: 5,
            rank_bits: 6,
            other: 7,
        };
        let rendered = heap_json(&heap).to_string();
        assert!(rendered.contains("\"total\": 28"), "{rendered}");
        assert!(rendered.contains("\"k_occ_deltas\": 2"), "{rendered}");
        assert!(rendered.contains("\"other\": 7"), "{rendered}");
    }

    #[test]
    fn median_of_odd_reps_is_middle_observation() {
        let cell = OpTiming {
            times: vec![9.0, 1.0, 5.0],
            checksum: 7,
        };
        assert_eq!(cell.median_secs(), 5.0);
    }
}
