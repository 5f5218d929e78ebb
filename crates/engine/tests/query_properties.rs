//! What the lockstep engines do beyond answering (answers are held in
//! `differential.rs`): rounds, capped resolver work, arena reuse, the
//! strandedness gate, and where the K-mer lookup and the cut start and
//! finish a search.

mod common;

use common::{executors, mixed_batch, patterns, toy_genome};
use exma_engine::{
    BatchEngine, EngineBuilder, Executor, QueryBatch, QueryOutput, QueryRequest, QueryResults,
};
use exma_genome::{Base, Genome, SeededRng};
use exma_index::{FmIndex, KStepFmIndex};

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

#[test]
fn caps_bound_resolver_work_not_just_output() {
    // A batch of tightly capped short repeats: the resolver must walk
    // only the rows a query keeps, not resolve everything and truncate.
    const MAX_HITS: usize = 2;
    let genome = toy_genome();
    let index = KStepFmIndex::from_genome(&genome, 4);
    let mut rng = SeededRng::new(17);
    let mut capped = QueryBatch::new();
    let mut uncapped = QueryBatch::new();
    for _ in 0..40 {
        let len = rng.range(1, 3); // 1-2 bp: hundreds of occurrences
        let start = rng.range(0, genome.len() - len + 1);
        let pattern = genome.seq().slice(start, len);
        capped.push(QueryRequest::locate_capped(MAX_HITS as u32), &pattern);
        uncapped.push(QueryRequest::locate(), &pattern);
    }
    let engine = EngineBuilder::new().k(4).attach(&index).unwrap();
    let (capped_results, capped_stats) = engine.run(&capped);
    let (full_results, full_stats) = engine.run(&uncapped);
    // At SA rate 1 no row takes a step, capped or not.
    let rate_one = exma_index::layout::SA_SAMPLE_RATE == 1;
    assert!(capped_stats.resolve_lf_steps < full_stats.resolve_lf_steps || rate_one);
    let mut kept = 0;
    for i in 0..capped_results.len() {
        let expect = MAX_HITS.min(full_results.count(i));
        assert_eq!(capped_results.positions(i).len(), expect, "#{i}");
        kept += expect;
        // The kept positions are a subset of the full resolution.
        for p in capped_results.positions(i) {
            assert!(full_results.positions(i).contains(p), "#{i}");
        }
        // No query retires more cursors than its cap.
        let alone = QueryBatch::uniform(capped.request(i), [capped.pattern(i)]);
        let (_, stats) = engine.run(&alone);
        assert_eq!(stats.cursors_retired, expect, "#{i}");
    }
    assert_eq!(capped_stats.cursors_retired, kept);
    assert!(capped_stats.cursors_retired < full_stats.cursors_retired);
}

#[test]
fn arena_reuse_is_steady_state_allocation_free_in_results() {
    // Observable arena contract: repeated submissions of the same batch
    // through one arena yield identical results and the pooled buffers
    // stop growing after the first run (capacity high-water).
    let genome = toy_genome();
    let batch = mixed_batch(&genome, 24, 139);
    let index = KStepFmIndex::from_genome(&genome, 4);
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
fn strandedness_is_part_of_the_attach_contract() {
    let genome = toy_genome();
    let forward = EngineBuilder::new().k(2);
    let bidir = forward.bidirectional(true);
    let findex = forward.build_index(&genome.text_with_sentinel()).unwrap();
    let bindex = bidir.build_index(&genome.text_with_sentinel()).unwrap();
    assert_eq!(bindex.text_len(), 2 * genome.len() + 1);
    assert!(bidir.attach(&findex).is_err());
    assert!(forward.attach(&bindex).is_err());
    assert!(bidir.attach(&bindex).is_ok());
    assert!(bidir.descriptor().ends_with("_bidir"));
    assert!(!forward.descriptor().contains("_bidir"));
}

/// LF steps from `row` to a row the sampled suffix array keeps: the walk
/// the resolver takes from it.
fn walk_len(fm: &FmIndex, mut row: usize) -> usize {
    let mut steps = 0;
    while fm.sampled_sa().get(row).is_none() {
        row = fm.lf(row);
        steps += 1;
    }
    steps
}

/// The LF steps `engine` walks for `pattern` run alone as a count: none
/// unless it is cut, else the walks of the rows it is cut at — those of
/// the suffix its search had consumed by then: the K-mer lookup's K
/// symbols (none below K), k a refinement, then one a tail step.
fn cut_walk(engine: &dyn Executor, index: &KStepFmIndex, pattern: &[Base]) -> usize {
    let (_, stats) = engine.run(&QueryBatch::new().count(pattern));
    if stats.cut_queries == 0 {
        return 0;
    }
    let (m, k, big_k) = (pattern.len(), index.k(), index.lookup_k());
    let seeded = if m >= big_k { big_k } else { 0 };
    let ksteps = (m - seeded) / k;
    let consumed = seeded + k * stats.steps.min(ksteps) + stats.steps.saturating_sub(ksteps);
    let rows = index.backward_search(&pattern[m - consumed..]);
    assert_eq!(rows.len(), stats.cursors_retired, "{stats:?}");
    rows.map(|row| walk_len(index.base_index(), row)).sum()
}

// ---- The K-mer lookup: where a search starts ----------------------------
//
// Each runs on the lockstep engine on one thread and sharded across two
// (`executors(base)[1..3]`).

#[test]
fn a_pattern_of_k_bases_is_answered_by_the_lookup_alone() {
    // K = 4 on the 10 kbp toy: a pattern of exactly K bases takes no
    // refinement at all, whatever the request; one base shorter, it
    // starts from every row and takes every step it always took.
    let genome = toy_genome();
    let text = genome.text_with_sentinel();
    let one = FmIndex::from_genome(&genome);
    for k in [1usize, 2, 4] {
        let base = EngineBuilder::new().k(k);
        let index = base.build_index(&text).unwrap();
        let big_k = index.lookup_k();
        assert_eq!(big_k, 4);
        let seeded = genome.seq().slice(1234, big_k);
        let short = genome.seq().slice(1234, big_k - 1);
        for (pattern, rounds) in [(&seeded, 0), (&short, (big_k - 1) / k + (big_k - 1) % k)] {
            let batch = QueryBatch::new()
                .count(pattern)
                .locate(pattern)
                .locate_capped(pattern, 2)
                .interval(pattern);
            let (expected, _) = one.run(&batch);
            for builder in &executors(base)[1..3] {
                let (results, stats) = builder.attach(&index).unwrap().run(&batch);
                let at = format!("k={k}, {} bases, {}", pattern.len(), builder.descriptor());
                assert_eq!(results, expected, "{at}");
                assert_eq!(stats.rounds, rounds, "{at}: {stats:?}");
                assert_eq!(stats.steps, 4 * rounds, "{at}: {stats:?}");
                assert_eq!(stats.peak_live, if rounds == 0 { 0 } else { 4 }, "{at}");
            }
        }
    }
}

#[test]
fn a_read_is_cut_straight_off_the_lookup() {
    // 6000 bases without a T but for one TTTT: that 4-mer is one row of
    // the K = 4 table, so a read ending in it is cut before its first
    // refinement, and the text decides it — here, once for a read that
    // is in the text and once for one whose first base is not.
    let mut rng = SeededRng::new(0x7777);
    let mut bases: Vec<Base> = (0..6000)
        .map(|_| Base::from_code(rng.range(0, 3) as u8))
        .collect();
    bases[3000..3004].fill(Base::T);
    let genome = Genome::from_bases("one_tttt", &bases);
    let read = bases[2976..3004].to_vec();
    let mut off = read.clone();
    off[0] = off[0].complement();
    for k in [1usize, 2, 4] {
        let base = EngineBuilder::new().k(k);
        let index = base.build_index(&genome.text_with_sentinel()).unwrap();
        assert_eq!(index.lookup_k(), 4);
        let rows = index.lookup_interval(&read[24..]);
        assert_eq!(rows.len(), 1);
        // Both reads are cut at that row, and each walks it to a sample.
        let walk = walk_len(index.base_index(), rows.start);
        for builder in &executors(base)[1..3] {
            let engine = builder.attach(&index).unwrap();
            let at = format!("k={k}, {}", builder.descriptor());
            let (results, stats) = engine.run(&QueryBatch::new().count(&read).locate(&off));
            assert_eq!(results.count(0), 1, "{at}");
            assert_eq!(results.positions(1), &[] as &[u32], "{at}");
            assert_eq!(stats.cut_queries, 2, "{at}: {stats:?}");
            assert_eq!(stats.rows_rejected, 1, "{at}: {stats:?}");
            assert_eq!(
                (stats.rounds, stats.steps, stats.peak_live),
                (0, 0, 0),
                "{at}"
            );
            assert_eq!(stats.resolve_lf_steps, 2 * walk, "{at}: {stats:?}");
        }
    }
}

#[test]
fn the_cut_stays_in_its_lane() {
    // Requests that may not be cut are not: an interval's answer is the
    // interval, and a locate that may return nothing has no row to walk.
    let genome = toy_genome();
    let patterns: Vec<Vec<Base>> = patterns(&common::toy(), 0x1A9E)
        .reads
        .into_iter()
        .map(|(read, ..)| read)
        .collect();
    let base = EngineBuilder::new().k(4);
    let index = base.build_index(&genome.text_with_sentinel()).unwrap();
    let counts = QueryBatch::uniform(QueryRequest::Count, &patterns);
    let intervals = QueryBatch::uniform(QueryRequest::Interval, &patterns);
    let zero = QueryBatch::uniform(QueryRequest::locate_capped(0), &patterns);
    for builder in &executors(base)[1..3] {
        let engine = builder.attach(&index).unwrap();
        let (_, cut) = engine.run(&counts);
        assert!(cut.cut_queries > 0, "{cut:?}");
        let walked: usize = patterns
            .iter()
            .map(|pattern| cut_walk(&*engine, &index, pattern))
            .sum();
        assert_eq!(cut.resolve_lf_steps, walked, "{cut:?}");
        for (batch, what) in [(&intervals, "intervals"), (&zero, "max_hits 0")] {
            let (results, stats) = engine.run(batch);
            assert_eq!(stats.cut_queries, 0, "{what}");
            assert_eq!(stats.rows_rejected, 0, "{what}");
            assert_eq!(stats.cursors_retired, 0, "{what}");
            // Uncut, they take every step the pattern has — at least as
            // many as the cut counts took.
            assert!(stats.steps > cut.steps, "{what}");
            assert_eq!(results.total_positions(), 0, "{what}");
        }
    }
}

#[test]
fn a_two_row_cut_keeps_the_one_row_the_text_confirms() {
    // Two sites share a 40-base suffix behind different 40-base
    // prefixes: a search for one of them is two rows wide from the
    // moment the shared suffix is unique to the pair until it is
    // consumed, is cut there, and the text tells the sites apart.
    let mut rng = SeededRng::new(0x2C07);
    let mut random = |len: usize| -> Vec<Base> { (0..len).map(|_| rng.base()).collect() };
    let (shared, first, mut second) = (random(40), random(40), random(40));
    second[39] = first[39].complement(); // the sites part right at the seam
    let mut bases = random(300);
    let first_at = bases.len();
    bases.extend(first.iter().chain(&shared));
    bases.extend(random(300));
    let second_at = bases.len();
    bases.extend(second.iter().chain(&shared));
    bases.extend(random(300));
    let genome = Genome::from_bases("two_sites", &bases);

    let queries: Vec<Vec<Base>> = [&first, &second]
        .iter()
        .map(|prefix| prefix.iter().chain(&shared).copied().collect())
        .collect();
    for k in [1usize, 2, 4] {
        let base = EngineBuilder::new().k(k);
        let index = base.build_index(&genome.text_with_sentinel()).unwrap();
        for builder in &executors(base)[1..3] {
            let engine = builder.attach(&index).unwrap();
            let (results, stats) = engine.run(
                &QueryBatch::new()
                    .count(&queries[0])
                    .locate(&queries[1])
                    .locate_capped(&queries[0], 2)
                    // One row may come back, two would have to be walked.
                    .locate_capped(&queries[1], 1),
            );
            let at = format!("k={k}, {}: {stats:?}", builder.descriptor());
            assert_eq!(results.count(0), 1, "{at}");
            assert_eq!(results.positions(1), &[second_at as u32], "{at}");
            assert_eq!(results.positions(2), &[first_at as u32], "{at}");
            assert_eq!(results.positions(3), &[second_at as u32], "{at}");
            for i in 1..4 {
                assert_eq!(results.output(i), QueryOutput::Located { truncated: false });
            }
            // Three queries cut two rows wide, each keeping one row; the
            // fourth may only be cut one row wide, where nothing is left
            // to reject.
            assert_eq!(stats.cut_queries, 4, "{at}");
            assert_eq!(stats.rows_rejected, 3, "{at}");
            assert_eq!(stats.cursors_retired, 3 * 2 + 1, "{at}");
            assert_eq!(results.total_positions(), 3, "{at}");
        }
    }
}
