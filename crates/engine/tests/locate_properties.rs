//! Acceptance property of the batched locate pipeline: converting serial
//! per-row LF-walks into prefetched lockstep resolver rounds — on one
//! thread or sharded — must be invisible in the answers. For
//! k ∈ {1, 2, 4}, a `QueryBatch` of locates over hundreds of random
//! patterns (tails with `len % k != 0`, empty patterns, absent patterns,
//! and high-occurrence short repeats) must equal the sequential 1-step
//! `FmIndex::locate`, the naive text scan, and the per-row
//! `resolve_range_into` path — ordering included, per the
//! sorted-ascending contract. Capped locates get the one dependence they
//! are allowed written down: which positions survive a cap is a function
//! of the SA sampling rate and of nothing else a layout or a recipe can
//! set. (That the resolver's prefetch hints change no answer and no
//! counter is held where they are defined, by the index crate's
//! `resolve` tests.)

use exma_engine::{
    BatchEngine, EngineBuilder, Executor, QueryBatch, QueryOutput, QueryRequest, QueryResults,
    ShardedEngine,
};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::{naive, FmIndex, KStepBuildConfig, KStepFmIndex};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// Half reference-sampled (hits, often multi-occurrence thanks to the toy
/// profile's repeats), half uniform-random (mostly absent), with empty
/// patterns sprinkled in. Every 13th pattern is 1–3 bases long — a
/// high-occurrence repeat whose interval holds hundreds of rows, the
/// worklist shape that distinguishes the lockstep resolver from the
/// per-row walk. Lengths otherwise span 1..40, covering every residue
/// mod 2 and 4.
fn locate_pattern_mix(genome: &Genome, total: usize, seed: u64) -> Vec<Vec<Base>> {
    let mut rng = SeededRng::new(seed);
    (0..total)
        .map(|i| {
            if i % 101 == 0 {
                return Vec::new();
            }
            let len = if i % 13 == 0 {
                rng.range(1, 4) // short repeat: large interval
            } else {
                rng.range(1, 40)
            };
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
fn locate_batches_agree_with_one_step_locate_on_600_patterns() {
    let genome = toy_genome();
    let one = FmIndex::from_genome(&genome);
    let patterns = locate_pattern_mix(&genome, 600, 83);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    let expected: Vec<Vec<u32>> = patterns.iter().map(|p| one.locate(p)).collect();

    for k in [1usize, 2, 4] {
        let index = KStepFmIndex::from_genome(&genome, k);
        let (results, stats) = BatchEngine::new(&index).run(&batch);
        assert_eq!(results.len(), patterns.len());
        for (i, expect) in expected.iter().enumerate() {
            assert_eq!(results.positions(i), &expect[..], "k={k}, pattern #{i}");
        }
        // Every interval row retired exactly one cursor, within the SA
        // sampling rate's round bound — the rows of a cut query that the
        // text then rejected included.
        let total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(stats.cursors_retired, total + stats.rows_rejected, "k={k}");
        assert_eq!(stats.cursors_dropped, 0, "k={k}");
        assert!(
            stats.resolve_rounds <= index.base_index().sampled_sa().sample_rate(),
            "k={k}: {} rounds",
            stats.resolve_rounds
        );
    }
}

#[test]
fn locate_batches_agree_with_naive_scan() {
    let genome = toy_genome();
    let patterns = locate_pattern_mix(&genome, 200, 89);
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
fn locate_batches_are_ordering_identical_to_the_per_row_path() {
    // The resolver retires cursors in whatever round their walk ends, so
    // ordering agreement with the serial path is a real property, not a
    // tautology — `resolve_range_into`'s contract is sorted ascending.
    let genome = toy_genome();
    let patterns = locate_pattern_mix(&genome, 400, 97);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    let index = KStepFmIndex::from_genome(&genome, 4);
    let base = index.base_index();
    let per_row: Vec<Vec<u32>> = patterns
        .iter()
        .map(|p| {
            let mut out = Vec::new();
            base.resolve_range_into(index.backward_search(p), &mut out);
            out
        })
        .collect();
    let (results, _) = BatchEngine::new(&index).run(&batch);
    for (i, expect) in per_row.iter().enumerate() {
        assert_eq!(results.positions(i), &expect[..], "#{i}");
        let mut sorted = expect.clone();
        sorted.sort_unstable();
        assert_eq!(&sorted, expect, "per-row output not ascending at #{i}");
    }
}

#[test]
fn every_positions_slice_is_sorted_ascending() {
    let genome = toy_genome();
    let patterns = locate_pattern_mix(&genome, 300, 101);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    let index = KStepFmIndex::from_genome(&genome, 4);
    let (results, _) = BatchEngine::new(&index).run(&batch);
    for i in 0..results.len() {
        assert!(
            results.positions(i).windows(2).all(|w| w[0] < w[1]),
            "positions of pattern #{i} not strictly ascending"
        );
    }
}

#[test]
fn sharded_locate_is_thread_count_invariant() {
    // 1, 2 and 7 threads: 7 does not divide 600, so the last shard is
    // ragged — pooled results must still stitch back identical, in input
    // order, with identical per-query ordering.
    let genome = toy_genome();
    let index = KStepFmIndex::from_genome(&genome, 4);
    let patterns = locate_pattern_mix(&genome, 600, 103);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    let (expected, expected_stats) = ShardedEngine::new(&index, 1).run(&batch);
    for threads in [2usize, 7] {
        let engine = ShardedEngine::new(&index, threads);
        let (results, stats) = engine.run(&batch);
        assert_eq!(results, expected, "{threads} threads");
        // Sharding moves cursors between workers but never changes the
        // total resolution work.
        assert_eq!(stats.cursors_retired, expected_stats.cursors_retired);
        assert_eq!(stats.resolve_lf_steps, expected_stats.resolve_lf_steps);
        assert!(stats.resolve_rounds <= expected_stats.resolve_rounds);
    }
}

#[test]
fn sharded_locate_agrees_with_one_step() {
    let genome = toy_genome();
    let one = FmIndex::from_genome(&genome);
    let patterns = locate_pattern_mix(&genome, 300, 107);
    let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
    let expected: Vec<Vec<u32>> = patterns.iter().map(|p| one.locate(p)).collect();
    for k in [2usize, 4] {
        let index = KStepFmIndex::from_genome(&genome, k);
        for threads in [2usize, 4] {
            let (results, _) = ShardedEngine::new(&index, threads).run(&batch);
            for (i, expect) in expected.iter().enumerate() {
                assert_eq!(
                    results.positions(i),
                    &expect[..],
                    "k={k}, {threads} threads, #{i}"
                );
            }
        }
    }
}

#[test]
fn capped_answers_depend_on_the_sa_rate_and_on_nothing_else() {
    // Two 60-base families over 70 % of 12 kbp: a 12-mer from a copy
    // occurs some seventy times, far beyond a cap of 8, while background
    // 12-mers and random ones stay under it.
    const MAX_HITS: u32 = 8;
    let profile = GenomeProfile {
        len: 12_000,
        repeat_fraction: 0.7,
        repeat_unit_len: 60,
        repeat_families: 2,
        ..GenomeProfile::toy()
    };
    let genome = Genome::synthesize(&profile, 131);
    let text = genome.text_with_sentinel();
    let mut rng = SeededRng::new(137);
    let patterns: Vec<Vec<Base>> = (0..120)
        .map(|i| match i % 6 {
            0 => (0..12).map(|_| rng.base()).collect(),
            1 => genome.seq().slice(rng.range(0, genome.len()), 0),
            2 => genome
                .seq()
                .slice(rng.range(0, genome.len() - 3), rng.range(1, 4)),
            _ => genome.seq().slice(rng.range(0, genome.len() - 12), 12),
        })
        .collect();
    let truth: Vec<Vec<u32>> = patterns
        .iter()
        .map(|p| naive::occurrences(genome.seq(), p))
        .collect();
    let over_cap = truth.iter().filter(|t| t.len() > MAX_HITS as usize).count();
    assert!(over_cap >= 40 && truth.len() - over_cap >= 20, "{over_cap}");
    let batch = QueryBatch::uniform(QueryRequest::locate_capped(MAX_HITS), &patterns);

    let mut kept_per_rate: Vec<QueryResults> = Vec::new();
    for sa_rate in [1usize, 10, 11, 32] {
        let mut reference: Option<QueryResults> = None;
        for occ_rate in [44usize, 54] {
            for superblock_rate in [8usize, 16, 64] {
                for k in [1usize, 2, 4] {
                    let mut config = KStepBuildConfig {
                        occ_sample_rate: occ_rate,
                        sa_sample_rate: sa_rate,
                        superblock_rate,
                        ..KStepBuildConfig::for_k(k)
                    };
                    // Half the recipes leave the k-derived k-occ spacing.
                    if occ_rate == 44 {
                        config.k_occ_sample_rate = 96;
                    }
                    let index = KStepFmIndex::from_text_with_config(&text, config).unwrap();
                    for threads in [1usize, 2] {
                        let flavor = EngineBuilder::new().k(k).threads(threads);
                        let (results, _) = flavor.attach(&index).unwrap().run(&batch);
                        match &reference {
                            Some(expected) => assert_eq!(
                                &results,
                                expected,
                                "{config:?}, {}",
                                flavor.descriptor()
                            ),
                            None => reference = Some(results),
                        }
                    }
                }
            }
        }
        // Whatever the rate keeps is true: everything under the cap,
        // exactly `MAX_HITS` distinct real positions over it.
        let results = reference.expect("eighteen recipes ran");
        for (i, all) in truth.iter().enumerate() {
            let at = format!("SA rate {sa_rate}, pattern #{i}");
            let got = results.positions(i);
            let truncated = all.len() > MAX_HITS as usize;
            assert_eq!(
                results.output(i),
                QueryOutput::Located { truncated },
                "{at}"
            );
            if truncated {
                assert_eq!(got.len(), MAX_HITS as usize, "{at}");
                assert!(got.windows(2).all(|w| w[0] < w[1]), "{at}: {got:?}");
                assert!(got.iter().all(|p| all.binary_search(p).is_ok()), "{at}");
            } else {
                assert_eq!(got, &all[..], "{at}");
            }
        }
        kept_per_rate.push(results);
    }
    // And the dependence is real: two rates keep different positions of
    // some over-cap interval (the reason a recipe change re-pins the
    // benchmark's locate checksum and no other change may).
    assert!(kept_per_rate.windows(2).any(|w| w[0] != w[1]));
}
