//! Acceptance properties of the unified query surface: a mixed-op
//! `QueryBatch` — count, (capped) locate, and interval requests
//! interleaved with empty and no-hit patterns — must come back
//! oracle-identical from **every** executor: the sequential `FmIndex`
//! and `KStepFmIndex` baselines, the lockstep `BatchEngine` at every
//! schedule, and the `ShardedEngine` at any thread count, for
//! k ∈ {1, 2, 4}. Capped locates additionally obey the truncated-naive
//! contract: `min(max_hits, hits)` positions, sorted ascending, every
//! one a real occurrence, bit-identical across engines.

use exma_engine::{
    BatchConfig, EngineBuilder, QueryBatch, QueryOutput, QueryRequest, QueryResults,
};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::{naive, FmIndex, ResolveConfig};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// A mixed batch cycling through every request shape: counts, uncapped
/// locates, tightly and loosely capped locates, and interval requests —
/// over the usual hit/miss/empty/short-repeat pattern mix.
fn mixed_batch(genome: &Genome, total: usize, seed: u64) -> QueryBatch {
    let mut rng = SeededRng::new(seed);
    let mut batch = QueryBatch::new();
    for i in 0..total {
        let pattern: Vec<Base> = if i % 101 == 0 {
            Vec::new()
        } else {
            let len = if i % 13 == 0 {
                rng.range(1, 4) // short repeat: large interval, caps bite
            } else {
                rng.range(1, 40)
            };
            if i % 2 == 0 {
                let start = rng.range(0, genome.len() - len + 1);
                genome.seq().slice(start, len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        };
        match i % 5 {
            0 => batch.push(QueryRequest::Count, pattern),
            1 => batch.push(QueryRequest::locate(), pattern),
            2 => batch.push(QueryRequest::locate_capped(rng.range(0, 6) as u32), pattern),
            3 => batch.push(QueryRequest::Interval, pattern),
            _ => batch.push(QueryRequest::locate_capped(1000), pattern),
        }
    }
    batch
}

/// Every executor flavor under test for a given k, by descriptor.
fn executors(k: usize) -> Vec<EngineBuilder> {
    let base = EngineBuilder::new().k(k);
    vec![
        base.sequential(),
        base.schedule(BatchConfig::default()),
        base.resolve(ResolveConfig {
            prefetch_distance: 3,
        }),
        base, // locality
        base.resolve(ResolveConfig::default()),
        base.threads(2),
        base.threads(7),
    ]
}

#[test]
fn mixed_batches_are_executor_invariant_and_oracle_identical() {
    let genome = toy_genome();
    let one = FmIndex::from_genome(&genome);
    let batch = mixed_batch(&genome, 500, 131);
    let oracle = EngineBuilder::new().k(1).sequential();
    let (expected, _) = oracle.attach_one_step(&one).unwrap().run(&batch);

    // The oracle itself honors each request shape against the naive scan.
    for i in 0..batch.len() {
        let hits = naive::occurrences(genome.seq(), batch.pattern(i));
        match batch.request(i) {
            QueryRequest::Count => {
                assert_eq!(expected.output(i), QueryOutput::Count(hits.len() as u32))
            }
            QueryRequest::Interval => {
                assert_eq!(expected.interval(i).map(|r| r.len()), Some(hits.len()))
            }
            QueryRequest::Locate { max_hits } => {
                let cap = max_hits.map_or(hits.len(), |h| h as usize);
                let kept = expected.positions(i);
                assert_eq!(kept.len(), cap.min(hits.len()), "#{i}");
                assert!(kept.windows(2).all(|w| w[0] < w[1]), "#{i} not sorted");
                assert!(kept.iter().all(|p| hits.contains(p)), "#{i} fake hit");
                assert_eq!(
                    expected.output(i),
                    QueryOutput::Located {
                        truncated: cap < hits.len()
                    },
                    "#{i}"
                );
                if cap >= hits.len() {
                    assert_eq!(kept, &hits[..], "#{i} uncapped mismatch");
                }
            }
            other => panic!("mixed_batch built an unexpected request {other:?}"),
        }
    }

    for k in [1usize, 2, 4] {
        let index = EngineBuilder::new()
            .k(k)
            .build_index(&genome.text_with_sentinel())
            .unwrap();
        for builder in executors(k) {
            let (results, _) = builder.attach(&index).unwrap().run(&batch);
            assert_eq!(results, expected, "k={k}, {}", builder.descriptor());
        }
    }
}

#[test]
fn caps_bound_resolver_work_not_just_output() {
    // A batch of tightly capped short repeats: the resolver must drop
    // cursors (satellite contract: retire a query's remaining cursors
    // once the cap is hit), not resolve everything and truncate.
    let genome = toy_genome();
    let index = EngineBuilder::new()
        .k(4)
        .build_index(&genome.text_with_sentinel())
        .unwrap();
    let mut rng = SeededRng::new(17);
    let mut capped = QueryBatch::new();
    let mut uncapped = QueryBatch::new();
    for _ in 0..40 {
        let len = rng.range(1, 3); // 1-2 bp: hundreds of occurrences
        let start = rng.range(0, genome.len() - len + 1);
        let pattern = genome.seq().slice(start, len);
        capped.push(QueryRequest::locate_capped(2), &pattern);
        uncapped.push(QueryRequest::locate(), &pattern);
    }
    let engine = EngineBuilder::new().k(4);
    let (capped_results, capped_stats) = engine.attach(&index).unwrap().run(&capped);
    let (full_results, full_stats) = engine.attach(&index).unwrap().run(&uncapped);
    assert!(capped_stats.cursors_dropped > 0, "{capped_stats:?}");
    assert!(capped_stats.cursors_retired < full_stats.cursors_retired);
    assert!(capped_stats.resolve_lf_steps < full_stats.resolve_lf_steps);
    assert_eq!(full_stats.cursors_dropped, 0);
    for i in 0..capped_results.len() {
        assert_eq!(
            capped_results.positions(i).len(),
            2.min(full_results.count(i))
        );
        // The kept positions are a subset of the full resolution.
        for p in capped_results.positions(i) {
            assert!(full_results.positions(i).contains(p), "#{i}");
        }
    }
}

#[test]
fn capped_locates_match_the_sequential_rule_at_every_thread_count() {
    let genome = toy_genome();
    let batch = mixed_batch(&genome, 300, 137);
    let index = EngineBuilder::new()
        .k(2)
        .build_index(&genome.text_with_sentinel())
        .unwrap();
    let builder = EngineBuilder::new().k(2);
    let (expected, _) = builder.sequential().attach(&index).unwrap().run(&batch);
    for threads in [1usize, 2, 7] {
        let (results, _) = builder.threads(threads).attach(&index).unwrap().run(&batch);
        assert_eq!(results, expected, "{threads} threads");
    }
}

#[test]
fn arena_reuse_is_steady_state_allocation_free_in_results() {
    // Observable arena contract: repeated submissions of the same batch
    // through one arena yield identical results and the pooled buffers
    // stop growing after the first run (capacity high-water).
    let genome = toy_genome();
    let batch = mixed_batch(&genome, 200, 139);
    let index = EngineBuilder::new()
        .k(4)
        .build_index(&genome.text_with_sentinel())
        .unwrap();
    let engine = EngineBuilder::new().k(4).attach(&index).unwrap();
    let mut arena = exma_engine::QueryArena::new();
    engine.run_into(&batch, &mut arena);
    let first: QueryResults = arena.results().clone();
    let bytes_after_warmup = arena.results().heap_bytes();
    for _ in 0..3 {
        engine.run_into(&batch, &mut arena);
        assert_eq!(arena.results(), &first);
        assert_eq!(arena.results().heap_bytes(), bytes_after_warmup);
    }
}

#[test]
fn zero_cap_and_empty_pattern_edge_cases() {
    let genome = toy_genome();
    let index = EngineBuilder::new()
        .k(4)
        .build_index(&genome.text_with_sentinel())
        .unwrap();
    let engine = EngineBuilder::new().k(4).attach(&index).unwrap();
    let frequent = genome.seq().slice(0, 1);
    let batch = QueryBatch::new()
        .locate_capped(&frequent, 0) // cap 0: no positions, truncated
        .locate_capped(Vec::<Base>::new(), 3) // empty pattern, capped
        .count(Vec::<Base>::new())
        .interval(Vec::<Base>::new());
    let (results, _) = engine.run(&batch);
    assert_eq!(results.positions(0), &[] as &[u32]);
    assert_eq!(results.output(0), QueryOutput::Located { truncated: true });
    assert_eq!(results.positions(1).len(), 3);
    assert_eq!(results.output(1), QueryOutput::Located { truncated: true });
    let n = index.text_len();
    assert_eq!(results.count(2), n);
    assert_eq!(results.interval(3), Some(0..n));
}
