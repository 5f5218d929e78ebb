//! Acceptance property of the batch engine: lockstep execution with
//! dead-query dropping must be invisible in the answers, and so must what
//! is layered on top — software prefetch and multi-threaded sharding.
//! For k ∈ {1, 2, 4} the batched count/interval results over hundreds of
//! random patterns — tails with `len % k != 0`, empty patterns, absent
//! patterns — must equal the sequential 1-step `FmIndex` and the naive
//! oracle at any thread count, all through the unified `Executor`
//! surface.

use exma_engine::{BatchEngine, EngineBuilder, Executor, QueryBatch, QueryRequest, ShardedEngine};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::{naive, FmIndex, KStepFmIndex};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// Half reference-sampled (hits, often multi-occurrence thanks to the toy
/// profile's repeats), half uniform-random (mostly absent), with empty
/// patterns sprinkled in. Lengths 1..40 cover every residue mod 2 and 4.
fn pattern_mix(genome: &Genome, total: usize, seed: u64) -> Vec<Vec<Base>> {
    let mut rng = SeededRng::new(seed);
    (0..total)
        .map(|i| {
            if i % 101 == 0 {
                return Vec::new();
            }
            let len = rng.range(1, 40);
            if i % 2 == 0 {
                let start = rng.range(0, genome.len() - len + 1);
                genome.seq().slice(start, len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        })
        .collect()
}

#[test]
fn batch_agrees_with_one_step_on_600_patterns() {
    let genome = toy_genome();
    let one = FmIndex::from_genome(&genome);
    let patterns = pattern_mix(&genome, 600, 47);
    let batch = QueryBatch::uniform(QueryRequest::Interval, &patterns);

    for k in [1usize, 2, 4] {
        let index = KStepFmIndex::from_genome(&genome, k);
        let engine = BatchEngine::new(&index);
        let (results, stats) = engine.run(&batch);
        for (i, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                results.interval(i),
                Some(one.backward_search(pattern)),
                "k={k}, pattern #{i}"
            );
            assert_eq!(results.count(i), one.count(pattern), "k={k}, #{i}");
        }
        // Dropping must actually happen: random absent patterns die early,
        // so the engine issues far fewer refinements than rounds x batch.
        assert!(stats.peak_live > 500, "k={k}: peak {}", stats.peak_live);
        assert!(
            stats.steps < stats.rounds * stats.peak_live,
            "k={k}: no query ever died ({} steps, {} rounds x {} live)",
            stats.steps,
            stats.rounds,
            stats.peak_live
        );
    }
}

#[test]
fn sharded_engine_agrees_with_one_step_on_600_patterns() {
    let genome = toy_genome();
    let one = FmIndex::from_genome(&genome);
    let patterns = pattern_mix(&genome, 600, 67);
    let batch = QueryBatch::uniform(QueryRequest::Count, &patterns);
    let expected_counts: Vec<usize> = patterns.iter().map(|p| one.count(p)).collect();

    for k in [2usize, 4] {
        let index = KStepFmIndex::from_genome(&genome, k);
        for threads in [2usize, 4, 8] {
            let engine = ShardedEngine::new(&index, threads);
            let (results, _) = engine.run(&batch);
            let counts: Vec<usize> = (0..results.len()).map(|i| results.count(i)).collect();
            assert_eq!(counts, expected_counts, "k={k}, {threads} threads");
        }
    }
}

#[test]
fn thread_count_never_changes_answers() {
    // 1, 2 and 7 threads: 7 does not divide 600, so the last shard is
    // ragged — results must still come back identical, in input order.
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4);
    let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
    let patterns = pattern_mix(&genome, 600, 71);
    let mut batch = QueryBatch::new();
    for (i, p) in patterns.iter().enumerate() {
        match i % 3 {
            0 => batch.push(QueryRequest::Count, p),
            1 => batch.push(QueryRequest::locate(), p),
            _ => batch.push(QueryRequest::Interval, p),
        }
    }
    let (expected, _) = builder.attach(&index).unwrap().run(&batch);
    for threads in [2usize, 7] {
        let engine = builder.threads(threads).attach(&index).unwrap();
        let (results, _) = engine.run(&batch);
        assert_eq!(results, expected, "{threads} threads");
    }
}

#[test]
fn batch_locate_agrees_with_naive_scan() {
    let genome = toy_genome();
    let patterns = pattern_mix(&genome, 200, 53);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    for k in [2usize, 4] {
        let index = KStepFmIndex::from_genome(&genome, k);
        let (results, _) = BatchEngine::new(&index).run(&batch);
        for (i, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                results.positions(i),
                &naive::occurrences(genome.seq(), pattern)[..],
                "k={k}, pattern #{i}"
            );
        }
    }
}

#[test]
fn single_pattern_batches_behave() {
    let genome = toy_genome();
    let index = KStepFmIndex::from_genome(&genome, 4);
    let engine = BatchEngine::new(&index);
    for pattern in pattern_mix(&genome, 40, 59) {
        let batch = QueryBatch::new().count(&pattern);
        let (results, _) = engine.run(&batch);
        assert_eq!(results.count(0), index.count(&pattern));
    }
}

#[test]
fn rounds_track_the_longest_survivor() {
    let genome = toy_genome();
    let k = 4usize;
    let index = KStepFmIndex::from_genome(&genome, k);
    let engine = BatchEngine::new(&index);
    // All patterns sampled from the reference, so none dies early; the
    // longest (len 37 → its last K = 4 bases looked up, then 8 k-steps +
    // 1 tail step) bounds the round count. Interval requests: the one
    // kind the engine never cuts short.
    let patterns: Vec<Vec<Base>> = [5usize, 12, 23, 37]
        .iter()
        .map(|&len| genome.seq().slice(1000, len))
        .collect();
    let (_, stats) = engine.run(&QueryBatch::uniform(QueryRequest::Interval, &patterns));
    assert_eq!(stats.rounds, 37 / k + 1 - index.lookup_k() / k);
    assert_eq!(stats.peak_live, 4);
}
