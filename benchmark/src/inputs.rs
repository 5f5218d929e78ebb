//! Workload inputs, all derived from the master `--seed`: the genome
//! seed, the read seed and the arrival seed, then the patterns and the
//! arrival schedule. The program under test receives only what is
//! generated here.

use std::time::Duration;

use exma_engine::{QueryBatch, QueryRequest, QueryResults};
use exma_genome::{Base, ErrorProfile, Genome, GenomeProfile, SeededRng, ShortReadSimulator};

/// Queries per batch on the embedded workloads.
pub const BATCH_QUERIES: usize = 4096;
/// Length of a `count_reads` / `both_strands` read.
pub const READ_LEN: usize = 100;
/// Length of a `locate_seeds` seed.
pub const SEED_LEN: usize = 24;
/// Hit cap of `locate_seeds` and `both_strands`.
pub const LOCATE_CAP: u32 = 32;
/// Queries per `serve_small` frame, and its locate cap.
pub const FRAME_QUERIES: usize = 8;
pub const FRAME_LOCATE_CAP: u32 = 16;

/// The three seeds every workload derives from the master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub genome: u64,
    pub reads: u64,
    pub arrivals: u64,
}

impl Seeds {
    pub fn derive(master: u64) -> Seeds {
        let mut rng = SeededRng::new(master);
        Seeds {
            genome: rng.next_u64(),
            reads: rng.next_u64(),
            arrivals: rng.next_u64(),
        }
    }
}

/// The paper-scale reference every workload indexes: 20 Mbp, 38% GC,
/// 70% repeats.
pub fn reference(seeds: Seeds) -> Genome {
    Genome::synthesize(&GenomeProfile::picea_rel(), seeds.genome)
}

/// `count` Illumina-profile reads of [`READ_LEN`] bases from either
/// strand, as sequenced (no client-side reverse complementing).
pub fn reads(genome: &Genome, count: usize, seeds: Seeds) -> Vec<Vec<Base>> {
    ShortReadSimulator::new(READ_LEN, ErrorProfile::illumina())
        .simulate(genome, count, seeds.reads)
        .into_iter()
        .map(|read| read.bases.to_vec())
        .collect()
}

/// `count` error-free [`SEED_LEN`]-base seeds cut from uniformly random
/// reference offsets.
pub fn seeds(genome: &Genome, count: usize, seeds: Seeds) -> Vec<Vec<Base>> {
    let mut rng = SeededRng::new(seeds.reads);
    (0..count)
        .map(|_| {
            let start = rng.range(0, genome.len() - SEED_LEN + 1);
            genome.seq().slice(start, SEED_LEN)
        })
        .collect()
}

/// Cuts `patterns` into batches of [`BATCH_QUERIES`] asking `request` of
/// every pattern.
pub fn uniform_batches(patterns: &[Vec<Base>], request: QueryRequest) -> Vec<QueryBatch> {
    patterns
        .chunks(BATCH_QUERIES)
        .map(|chunk| QueryBatch::uniform(request, chunk))
        .collect()
}

/// The mixed frame of request `idx`, as `exma-loadgen` mixes them:
/// count / capped locate / interval in rotation over 8..28-base
/// patterns, 70% cut from the reference and 30% random (mostly misses).
pub fn frame_batch(genome: &Genome, idx: usize, queries: usize, seeds: Seeds) -> QueryBatch {
    let mut rng = SeededRng::new(seeds.reads ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut batch = QueryBatch::new();
    for q in 0..queries {
        let len = rng.range(8, 28);
        let pattern: Vec<Base> = if rng.chance(0.7) {
            let start = rng.range(0, genome.len() - len + 1);
            genome.seq().slice(start, len)
        } else {
            (0..len).map(|_| rng.base()).collect()
        };
        let request = match (idx + q) % 3 {
            0 => QueryRequest::Count,
            1 => QueryRequest::locate_capped(FRAME_LOCATE_CAP),
            _ => QueryRequest::Interval,
        };
        batch.push(request, pattern);
    }
    batch
}

/// Cumulative Poisson arrival offsets: request `i` is due at
/// `schedule[i]` after the phase starts; exponential gaps at `rate` per
/// second.
pub fn poisson_schedule(requests: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SeededRng::new(seed);
    let mut at = 0.0f64;
    (0..requests)
        .map(|_| {
            // f64() is in [0, 1); flip to (0, 1] so ln never sees zero.
            at += -(1.0 - rng.f64()).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// FNV-1a, the content hash printed with every run so two commits can
/// show they ran the same inputs and gave the same answers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, value: u32) {
        self.bytes(&value.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hashes every request (operation, cap) and pattern of `batches`.
pub fn hash_batches(batches: &[QueryBatch]) -> u64 {
    let mut hash = Fnv::default();
    for batch in batches {
        for i in 0..batch.len() {
            let (kind, cap) = match batch.request(i) {
                QueryRequest::Count => (0, 0),
                QueryRequest::Locate { max_hits } => (1, max_hits.unwrap_or(u32::MAX)),
                QueryRequest::Interval => (2, 0),
                QueryRequest::SearchBoth { max_hits } => (3, max_hits.unwrap_or(u32::MAX)),
                _ => (u32::MAX, 0),
            };
            hash.u32(kind);
            hash.u32(cap);
            hash.u32(batch.pattern(i).len() as u32);
            for base in batch.pattern(i) {
                hash.bytes(&[base.code()]);
            }
        }
    }
    hash.finish()
}

/// Hashes the answers of one batch: every output tag and position.
pub fn hash_results(hash: &mut Fnv, results: &QueryResults) {
    for i in 0..results.len() {
        hash.u32(results.count(i) as u32);
        if let Some(interval) = results.interval(i) {
            hash.u32(interval.start as u32);
        }
        for &position in results.positions(i) {
            hash.u32(position);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedules_repeat_for_a_seed_and_hold_their_rate() {
        let a = poisson_schedule(20_000, 2000.0, 7);
        assert_eq!(a, poisson_schedule(20_000, 2000.0, 7));
        assert_ne!(a, poisson_schedule(20_000, 2000.0, 8));
        assert!(a.windows(2).all(|pair| pair[0] <= pair[1]));
        let offered = a.len() as f64 / a.last().unwrap().as_secs_f64();
        assert!((offered - 2000.0).abs() < 60.0, "offered {offered}");
    }

    #[test]
    fn seed_42_generates_the_patterns_it_always_has() {
        // A toy-sized reference keeps the test fast; the generators are
        // the ones the workloads use. A change to any of them — or to
        // the simulator, the RNG or the seed derivation underneath —
        // changes these hashes, and with them what every recorded
        // number was measured on.
        let derived = Seeds::derive(42);
        let genome = Genome::synthesize(&GenomeProfile::toy(), derived.genome);
        let read_batches = uniform_batches(&reads(&genome, 64, derived), QueryRequest::Count);
        let seed_batches = uniform_batches(
            &seeds(&genome, 64, derived),
            QueryRequest::locate_capped(LOCATE_CAP),
        );
        let frames: Vec<QueryBatch> = (0..16)
            .map(|idx| frame_batch(&genome, idx, FRAME_QUERIES, derived))
            .collect();
        let hashes = [
            hash_batches(&read_batches),
            hash_batches(&seed_batches),
            hash_batches(&frames),
        ];
        assert_eq!(
            hashes,
            [
                0x127f_2f2f_1028_914b,
                0xedc1_9f34_7d1f_bd2e,
                0xb745_fcba_cec9_0431
            ],
            "{hashes:#x?}"
        );
    }
}
