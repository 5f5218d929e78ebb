//! Answer checking: the brute-force scans every workload samples
//! before its first window, and the sequential 1-step executor every
//! measured answer is compared with.

use std::thread;

use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryRequest, QueryResults};
use exma_genome::Genome;
use exma_index::{naive, KStepFmIndex};

use crate::machine;

/// Patterns checked against the brute-force scans before any window. A
/// scan of the 20 Mbp reference costs 0.1 s a pattern (0.2 s for both
/// strands), so the sample is sized to stay a small share of the run.
pub const NAIVE_SAMPLE: usize = 16;

/// Queries of `got` that differ from the brute-force scan of the
/// reference: the first check, on a path that shares nothing with the
/// index. A capped locate may keep any `cap` of the true positions (the
/// engine's round rule picks which); a capped strand search keeps the
/// smallest.
pub fn naive_mismatches(genome: &Genome, batch: &QueryBatch, got: &QueryResults) -> u64 {
    let queries: Vec<usize> = (0..batch.len()).collect();
    let per_thread = queries.len().div_ceil(machine::nproc()).max(1);
    thread::scope(|scope| {
        let workers: Vec<_> = queries
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|&&i| !naive_agrees(genome, batch, got, i))
                        .count() as u64
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("naive scan panicked"))
            .sum()
    })
}

fn naive_agrees(genome: &Genome, batch: &QueryBatch, got: &QueryResults, i: usize) -> bool {
    let pattern = batch.pattern(i);
    match batch.request(i) {
        QueryRequest::Count | QueryRequest::Interval => {
            got.count(i) == naive::count(genome.seq(), pattern)
        }
        QueryRequest::Locate { max_hits } => {
            let truth = naive::occurrences(genome.seq(), pattern);
            let cap = max_hits.map_or(usize::MAX, |cap| cap as usize);
            let kept = got.positions(i);
            if truth.len() <= cap {
                kept == truth
            } else {
                kept.len() == cap && kept.iter().all(|p| truth.binary_search(p).is_ok())
            }
        }
        QueryRequest::SearchBoth { max_hits } => {
            let truth = naive::occurrences_both(genome.seq(), pattern);
            let cap = max_hits.map_or(usize::MAX, |cap| cap as usize);
            got.positions(i) == &truth[..truth.len().min(cap)]
        }
        _ => false,
    }
}

/// The sequential 1-step executor's answer to every batch — the oracle
/// all measured batches are compared with. It walks the 1-step tables
/// of the same index one query at a time: no k-step table, no lockstep
/// schedule, no batch resolver. Batches are split over the cores.
pub fn oracle_answers(index: &KStepFmIndex, batches: &[QueryBatch]) -> Vec<QueryResults> {
    let per_thread = batches.len().div_ceil(machine::nproc()).max(1);
    thread::scope(|scope| {
        let workers: Vec<_> = batches
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    let oracle = sequential_one_step(index);
                    chunk
                        .iter()
                        .map(|batch| oracle.run(batch).0)
                        .collect::<Vec<QueryResults>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("oracle thread panicked"))
            .collect()
    })
}

pub fn sequential_one_step(index: &KStepFmIndex) -> Box<dyn Executor + '_> {
    EngineBuilder::new()
        .k(1)
        .sequential()
        .attach_one_step(index.base_index())
        .expect("k = 1 sequential is the one-step recipe")
}

/// Queries of `got` whose answer differs from `expected`'s.
pub fn mismatches(got: &QueryResults, expected: &QueryResults) -> u64 {
    if got == expected {
        return 0;
    }
    (0..expected.len())
        .filter(|&i| {
            i >= got.len()
                || got.output(i) != expected.output(i)
                || got.positions(i) != expected.positions(i)
        })
        .count() as u64
}
