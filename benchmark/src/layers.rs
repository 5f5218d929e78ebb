//! Isolated per-layer measurements of the traced run: each calls one
//! public function of one crate in a loop of its own, on the workload's
//! own index and patterns, outside every end-to-end window.

use std::hint::black_box;
use std::time::Instant;

use exma_engine::EngineBuilder;
use exma_genome::{
    bwt_from_sa, suffix_array, Base, Genome, GenomeProfile, Kmer, SeededRng, Symbol,
};
use exma_index::{decode_snapshot, encode_snapshot, HeapBreakdown, KStepFmIndex};

use crate::machine;
use crate::metrics::Metrics;
use crate::trace::Trace;

/// Independent probes per kernel loop: enough that the loop runs for
/// tens of milliseconds, few enough that the probe arrays stay small
/// beside the index.
const PROBES: usize = 1 << 20;
/// Steps of each dependent chain.
const CHAIN_STEPS: usize = 1 << 20;

/// Seconds `work` took, and what it returned.
pub fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = work();
    (start.elapsed().as_secs_f64(), out)
}

/// [`timed`], recorded as a span of its own: every isolated measurement
/// shows in the trace file under the function it called.
fn spanned<T>(trace: &mut Trace, name: &'static str, work: impl FnOnce() -> T) -> (f64, T) {
    trace.time(name, None, 0, || timed(work))
}

/// `genome.suffix.*`, `genome.bwt.*` and `index.kstep.build_self_s`:
/// the two genome-crate stages of an index build called directly on the
/// text the workload indexed, and what is left of `build_s` without them.
pub fn build_breakdown(metrics: &mut Metrics, trace: &mut Trace, text: &[Symbol], build_s: f64) {
    let (sa_s, sa) = spanned(trace, "genome.suffix.suffix_array", || suffix_array(text));
    let (bwt_s, bwt) = spanned(trace, "genome.bwt.bwt_from_sa", || bwt_from_sa(text, &sa));
    black_box(bwt);
    let bases = text.len() as f64;
    metrics.set("genome.suffix.suffix_array_ns_per_base", sa_s * 1e9 / bases);
    metrics.set("genome.bwt.bwt_from_sa_ns_per_base", bwt_s * 1e9 / bases);
    metrics.set("index.kstep.build_s", build_s);
    metrics.set("index.kstep.build_self_s", build_s - sa_s - bwt_s);
}

/// `index.snapshot.*`: the pure encode and the fully verifying decode.
pub fn snapshot(metrics: &mut Metrics, trace: &mut Trace, index: &KStepFmIndex, genome_len: usize) {
    let (encode_s, image) = spanned(trace, "index.snapshot.encode_snapshot", || {
        encode_snapshot(index)
    });
    let (decode_s, decoded) = spanned(trace, "index.snapshot.decode_snapshot", || {
        decode_snapshot(&image, None)
    });
    assert!(
        decoded.is_ok_and(|decoded| decoded == *index),
        "a snapshot must decode to the index it encoded"
    );
    metrics.set("index.snapshot.encode_s", encode_s);
    metrics.set("index.snapshot.decode_s", decode_s);
    metrics.set(
        "index.snapshot.bytes_per_base",
        image.len() as f64 / genome_len as f64,
    );
}

/// `index.heap.*`: the exact seven-component attribution.
pub fn heap(metrics: &mut Metrics, heap: &HeapBreakdown) {
    for (name, bytes) in [
        ("index.heap.k_occ_checkpoints_bytes", heap.k_occ_checkpoints),
        ("index.heap.k_occ_deltas_bytes", heap.k_occ_deltas),
        ("index.heap.k_occ_codes_bytes", heap.k_occ_codes),
        ("index.heap.one_step_occ_bytes", heap.one_step_occ),
        ("index.heap.sa_samples_bytes", heap.sa_samples),
        ("index.heap.rank_bits_bytes", heap.rank_bits),
        ("index.heap.other_bytes", heap.other),
    ] {
        metrics.set(name, bytes as f64);
    }
}

/// Nanoseconds per `KmerOccTable::rank_pair` over random independent
/// probes: a code, a row, and a second row at most 64 further on (the
/// narrow intervals a search spends most of its steps in).
fn rank_pair_ns(trace: &mut Trace, index: &KStepFmIndex, rng: &mut SeededRng) -> f64 {
    let table = index.kmer_occ();
    let probes: Vec<(u16, u32, u32)> = (0..PROBES)
        .map(|_| {
            let lo = rng.range(0, table.len());
            let hi = (lo + rng.range(0, 64)).min(table.len());
            (rng.range(0, table.stride()) as u16, lo as u32, hi as u32)
        })
        .collect();
    let (seconds, sum) = spanned(trace, "index.kocc.rank_pair", || {
        let mut sum = 0u64;
        for &(code, lo, hi) in &probes {
            let (a, b) = table.rank_pair(code, lo as usize, hi as usize);
            sum += u64::from(a) + u64::from(b);
        }
        sum
    });
    black_box(sum);
    seconds * 1e9 / PROBES as f64
}

/// `index.kocc.*`, `index.kstep.kstep_ns`, `index.occ.lf_ns` and
/// `index.sampled_sa.get_ns` on the workload's index; the `hot` figure
/// repeats the rank probe on a 10 kbp table that stays in cache, so the
/// difference between the two is what the misses cost.
pub fn kernels(
    metrics: &mut Metrics,
    trace: &mut Trace,
    index: &KStepFmIndex,
    patterns: &[Vec<Base>],
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    metrics.set(
        "index.kocc.rank_pair_ns",
        rank_pair_ns(trace, index, &mut rng),
    );

    let toy = Genome::synthesize(&GenomeProfile::toy(), seed);
    let toy_index = EngineBuilder::new()
        .build_index(&toy.text_with_sentinel())
        .expect("the default recipe builds on the toy genome");
    metrics.set(
        "index.kocc.rank_pair_hot_ns",
        rank_pair_ns(trace, &toy_index, &mut rng),
    );

    // One sequential backward search per pattern, k symbols a step: each
    // step's rows come out of the step before, so its misses cannot
    // overlap — the latency-bound walk the lockstep schedule must beat.
    let k = index.k();
    let chains: Vec<Vec<Kmer>> = patterns
        .iter()
        .map(|pattern| {
            pattern
                .rchunks_exact(k)
                .map(Kmer::from_bases)
                .collect::<Vec<Kmer>>()
        })
        .collect();
    let (seconds, steps) = spanned(trace, "index.kstep.kstep", || {
        let mut steps = 0usize;
        for chain in &chains {
            let mut range = 0..index.text_len();
            for &kmer in chain {
                range = index.kstep(kmer, range);
                steps += 1;
                if range.is_empty() {
                    break;
                }
            }
            black_box(&range);
        }
        steps
    });
    metrics.set("index.kstep.kstep_ns", seconds * 1e9 / steps.max(1) as f64);

    let fm = index.base_index();
    let (seconds, row) = spanned(trace, "index.occ.lf", || {
        let mut row = rng.range(0, fm.text_len());
        for _ in 0..CHAIN_STEPS {
            row = fm.lf(row);
        }
        row
    });
    black_box(row);
    metrics.set("index.occ.lf_ns", seconds * 1e9 / CHAIN_STEPS as f64);

    let rows: Vec<u32> = (0..PROBES)
        .map(|_| rng.range(0, fm.text_len()) as u32)
        .collect();
    let (seconds, sum) = spanned(trace, "index.sampled_sa.get", || {
        rows.iter()
            .map(|&row| u64::from(fm.sampled_sa().get(row as usize).unwrap_or(0)))
            .sum::<u64>()
    });
    black_box(sum);
    metrics.set("index.sampled_sa.get_ns", seconds * 1e9 / PROBES as f64);
}

/// `machine.*`: the box's miss latency and core count.
pub fn machine(metrics: &mut Metrics, trace: &mut Trace, seed: u64) {
    let chase_ns = trace.time("machine.chase", None, 0, || machine::chase_ns(seed));
    metrics.set("machine.chase_ns", chase_ns);
    metrics.set("machine.nproc", machine::nproc() as f64);
}
