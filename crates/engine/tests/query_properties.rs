//! Acceptance properties of the unified query surface: a mixed-op
//! `QueryBatch` — count, (capped) locate, and interval requests
//! interleaved with empty and no-hit patterns — must come back
//! oracle-identical from **every** executor: the sequential `FmIndex`
//! and `KStepFmIndex` baselines, the lockstep `BatchEngine`, and the
//! `ShardedEngine` at any thread count, for k ∈ {1, 2, 4}. Capped
//! locates additionally obey the truncated-naive contract:
//! `min(max_hits, hits)` positions, sorted ascending, every one a real
//! occurrence, bit-identical across engines.

use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryOutput, QueryRequest, QueryResults};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::bidir::revcomp;
use exma_index::{naive, FmIndex};

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
    vec![base.sequential(), base, base.threads(2), base.threads(7)]
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

// ---- The cut: queries finished against the text --------------------------

/// A reference built to keep intervals two and three rows wide for a
/// long time: a 150-base unit copied ten times with a point mutation
/// every 50 bases or so, separated by random filler, with one
/// reverse-complement palindrome of 2 × 30 bases in the middle. Returns
/// the genome and where the palindrome starts.
fn repeat_rich_genome() -> (Genome, usize) {
    let mut rng = SeededRng::new(0xC07);
    let mut bases: Vec<Base> = Vec::new();
    let unit: Vec<Base> = (0..150).map(|_| rng.base()).collect();
    let mut palindrome_at = 0;
    for copy in 0..10 {
        bases.extend((0..rng.range(20, 60)).map(|_| rng.base()));
        if copy == 5 {
            let half: Vec<Base> = (0..30).map(|_| rng.base()).collect();
            palindrome_at = bases.len();
            bases.extend(&half);
            bases.extend(revcomp(&half));
        }
        for &base in &unit {
            bases.push(if rng.chance(1.0 / 50.0) {
                rng.base_other_than(base)
            } else {
                base
            });
        }
    }
    bases.extend((0..40).map(|_| rng.base()));
    (Genome::from_bases("repeat_rich", &bases), palindrome_at)
}

/// The patterns the cut has to get right, by kind.
struct CutPatterns {
    /// Error-free reads, forward and reverse strand: these are cut.
    reads: Vec<Vec<Base>>,
    /// One read with one substitution at every distance from its 3′ end:
    /// near the 3′ end the search dies before any cut, further in the
    /// text has to reject the row.
    substituted: Vec<Vec<Base>>,
    /// Everything at an edge: reads hanging off position 0 (the
    /// unmatched prefix would start before the text), ending at the last
    /// base before the sentinel (of the forward and of the doubled text),
    /// straddling the doubled text's junction, palindromes, and patterns
    /// longer than the text.
    edges: Vec<Vec<Base>>,
}

fn cut_patterns(genome: &Genome, palindrome_at: Option<usize>, seed: u64) -> CutPatterns {
    let mut rng = SeededRng::new(seed);
    let n = genome.len();
    let seq = genome.seq();
    let mut reads = Vec::new();
    for i in 0..60 {
        let len = rng.range(30, 90);
        let start = rng.range(0, n - len + 1);
        reads.push(if i % 3 == 0 {
            genome.revcomp_window(start, len)
        } else {
            seq.slice(start, len)
        });
    }

    let read = seq.slice(n / 3, 52);
    let substituted = (0..read.len())
        .map(|from_end| {
            let mut read = read.clone();
            let at = read.len() - 1 - from_end;
            read[at] = rng.base_other_than(read[at]);
            read
        })
        .collect();

    let mut edges = Vec::new();
    for (hang, len) in [(1, 40), (3, 40), (12, 48), (30, 30), (40, 12)] {
        let mut pattern: Vec<Base> = (0..hang).map(|_| rng.base()).collect();
        pattern.extend(seq.slice(0, len));
        edges.push(pattern);
    }
    for len in [13, 40, 77] {
        edges.push(seq.slice(n - len, len));
        // The doubled text ends with revcomp(forward[..len]).
        edges.push(genome.revcomp_window(0, len));
    }
    for (tail, head) in [(30, 20), (10, 45), (45, 10), (1, 50), (50, 1)] {
        // forward[n - tail..] · revcomp(forward)[..head]
        let mut pattern = seq.slice(n - tail, tail);
        pattern.extend(genome.revcomp_window(n - head, head));
        edges.push(pattern);
    }
    for half in [6, 20, 25] {
        let random: Vec<Base> = (0..half).map(|_| rng.base()).collect();
        let mut palindrome = random.clone();
        palindrome.extend(revcomp(&random));
        edges.push(palindrome);
        if let Some(at) = palindrome_at {
            // The planted site's middle 2 × half bases.
            edges.push(seq.slice(at + 30 - half, 2 * half));
        }
    }
    let mut longer = seq.to_vec();
    longer.extend(seq.slice(0, 10));
    edges.push(longer.clone());
    longer.extend(seq.to_vec());
    longer.extend(seq.to_vec());
    edges.push(longer); // longer than the doubled text too
    CutPatterns {
        reads,
        substituted,
        edges,
    }
}

/// Every request shape of every pattern — strand searches only where
/// the index is doubled.
fn every_request_of(patterns: &[Vec<Base>], doubled: bool) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for pattern in patterns {
        batch.push(QueryRequest::Count, pattern);
        batch.push(QueryRequest::locate(), pattern);
        for cap in [0, 1, 2, 3, 32] {
            batch.push(QueryRequest::locate_capped(cap), pattern);
        }
        batch.push(QueryRequest::Interval, pattern);
        if doubled {
            batch.push(QueryRequest::search_both(), pattern);
            batch.push(QueryRequest::search_both_capped(1), pattern);
            batch.push(QueryRequest::search_both_capped(32), pattern);
        }
    }
    batch
}

/// Holds `results` to the brute-force scans: every request on a forward
/// index, the strand searches on a doubled one (whose other requests
/// answer over the doubled text, which only the sequential executor
/// knows how to read).
fn assert_naive(genome: &Genome, batch: &QueryBatch, results: &QueryResults, doubled: bool) {
    for i in 0..batch.len() {
        let pattern = batch.pattern(i);
        match batch.request(i) {
            QueryRequest::SearchBoth { max_hits } => {
                let hits = naive::occurrences_both(genome.seq(), pattern);
                let kept = max_hits.map_or(hits.len(), |h| h as usize).min(hits.len());
                assert_eq!(results.positions(i), &hits[..kept], "#{i}");
                let truncated = kept < hits.len();
                assert_eq!(results.output(i), QueryOutput::BothLocated { truncated });
            }
            _ if doubled => {}
            QueryRequest::Count => {
                assert_eq!(
                    results.count(i),
                    naive::count(genome.seq(), pattern),
                    "#{i}"
                )
            }
            QueryRequest::Interval => {
                let width = results.interval(i).map(|r| r.len());
                assert_eq!(width, Some(naive::count(genome.seq(), pattern)), "#{i}");
            }
            QueryRequest::Locate { max_hits } => {
                let hits = naive::occurrences(genome.seq(), pattern);
                let kept = max_hits.map_or(hits.len(), |h| h as usize).min(hits.len());
                let positions = results.positions(i);
                assert_eq!(positions.len(), kept, "#{i}");
                assert!(positions.windows(2).all(|w| w[0] < w[1]), "#{i}");
                assert!(positions.iter().all(|p| hits.contains(p)), "#{i}");
                let truncated = kept < hits.len();
                assert_eq!(results.output(i), QueryOutput::Located { truncated });
            }
            other => panic!("every_request_of built an unexpected request {other:?}"),
        }
    }
}

/// The lockstep engine on one thread and sharded across two.
fn lockstep_executors(base: EngineBuilder) -> [EngineBuilder; 2] {
    [base, base.threads(2)]
}

/// A 300 kbp reference, half of it diverged copies of a few 400-base
/// units: large enough that the K-mer table is K = 7 wide — three bases
/// more than the widest step, where the toy's K = 4 is one k-step.
fn large_repeat_rich_genome() -> Genome {
    let profile = GenomeProfile {
        name: "repeat_rich_300k".to_string(),
        len: 300_000,
        repeat_fraction: 0.5,
        repeat_divergence: 0.03,
        ..GenomeProfile::picea_rel()
    };
    Genome::synthesize(&profile, 0x300C)
}

#[test]
fn cut_queries_answer_what_the_oracles_answer() {
    let (repeat_rich, palindrome_at) = repeat_rich_genome();
    let references = [
        (toy_genome(), None),
        (repeat_rich, Some(palindrome_at)),
        (large_repeat_rich_genome(), None),
    ];
    for (genome, palindrome_at) in &references {
        let patterns = cut_patterns(genome, *palindrome_at, 0xC07 + genome.len() as u64);
        for doubled in [false, true] {
            for k in [1usize, 2, 4] {
                let at = format!("{}, doubled {doubled}, k={k}", genome.profile().name);
                let base = EngineBuilder::new().k(k).bidirectional(doubled);
                let index = base.build_index(&genome.text_with_sentinel()).unwrap();
                if genome.len() >= 300_000 {
                    assert!(index.lookup_k() >= k + 3, "{at}: K={}", index.lookup_k());
                }
                let oracle = base.sequential().attach(&index).unwrap();
                for (kind, patterns, must_cut, must_reject) in [
                    ("reads", &patterns.reads, true, false),
                    ("substituted", &patterns.substituted, true, true),
                    ("edges", &patterns.edges, false, false),
                ] {
                    let batch = every_request_of(patterns, doubled);
                    let (expected, _) = oracle.run(&batch);
                    assert_naive(genome, &batch, &expected, doubled);
                    let mut first = None;
                    for builder in lockstep_executors(base) {
                        let (results, stats) = builder.attach(&index).unwrap().run(&batch);
                        assert_eq!(results, expected, "{at}, {kind}, {}", builder.descriptor());
                        // The path ran — on one thread and sharded
                        // alike: the cut is a property of the index and
                        // the request.
                        let counters = (
                            stats.cut_queries,
                            stats.rows_rejected,
                            stats.steps,
                            stats.resolve_lf_steps,
                            stats.cursors_retired,
                        );
                        assert_eq!(*first.get_or_insert(counters), counters, "{at}, {kind}");
                        assert!(
                            !must_cut || stats.cut_queries > 0,
                            "{at}, {kind}: {stats:?}"
                        );
                        assert!(
                            !must_reject || stats.rows_rejected > 0,
                            "{at}, {kind}: {stats:?}"
                        );
                    }
                }
            }
        }
    }
}

// ---- The K-mer lookup: where a search starts ----------------------------

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
            for builder in lockstep_executors(base) {
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
        assert_eq!(index.lookup_interval(&read[24..]).len(), 1);
        for builder in lockstep_executors(base) {
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
            assert!(stats.resolve_lf_steps > 0, "{at}: {stats:?}");
        }
    }
}

#[test]
fn the_cut_stays_in_its_lane() {
    // Requests that may not be cut are not: an interval's answer is the
    // interval, and a locate that may return nothing has no row to walk.
    let genome = toy_genome();
    let patterns = cut_patterns(&genome, None, 0x1A9E).reads;
    let base = EngineBuilder::new().k(4);
    let index = base.build_index(&genome.text_with_sentinel()).unwrap();
    let counts = QueryBatch::uniform(QueryRequest::Count, &patterns);
    let intervals = QueryBatch::uniform(QueryRequest::Interval, &patterns);
    let zero = QueryBatch::uniform(QueryRequest::locate_capped(0), &patterns);
    for builder in lockstep_executors(base) {
        let engine = builder.attach(&index).unwrap();
        let (_, cut) = engine.run(&counts);
        assert!(cut.cut_queries > 0, "{cut:?}");
        assert!(cut.resolve_lf_steps > 0, "{cut:?}");
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
        for builder in lockstep_executors(base) {
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
