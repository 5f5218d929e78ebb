//! Acceptance properties of strand-agnostic search: a mixed batch with
//! `SearchBoth` requests interleaved among the plain operations must
//! come back oracle-identical from **every** executor flavor — the
//! sequential baselines, the lockstep `BatchEngine` at every schedule,
//! and the `ShardedEngine` at any thread count, for k ∈ {1, 2, 4} over
//! a bidirectional index under the default layout, and at k = 4 under a
//! memory-first one. The oracle itself is checked pattern by
//! pattern against the brute-force both-strand scan
//! (`naive::occurrences_both`), including the palindrome dedup rule and
//! the post-mapping cap (keep the `max_hits` smallest
//! `(position, strand)` hits — deterministic however the raw interval
//! was resolved).

use exma_engine::{BatchConfig, EngineBuilder, IndexLayout, QueryBatch, QueryOutput, QueryRequest};
use exma_genome::{
    Base, ErrorProfile, Genome, GenomeProfile, LongReadSimulator, SeededRng, ShortReadSimulator,
};
use exma_index::bidir::{decode_hit, Strand};
use exma_index::{naive, ResolveConfig};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// A batch mixing `SearchBoth` (uncapped, tightly capped, loosely
/// capped) with the plain operations, over genome slices, reverse
/// windows, random patterns, short repeats, palindromes, and the empty
/// pattern.
fn mixed_both_batch(genome: &Genome, total: usize, seed: u64) -> QueryBatch {
    let mut rng = SeededRng::new(seed);
    let mut batch = QueryBatch::new();
    for i in 0..total {
        let pattern: Vec<Base> = if i % 101 == 0 {
            Vec::new()
        } else if i % 37 == 0 {
            // A reverse-complement palindrome: forced dedup coverage.
            let half: Vec<Base> = (0..rng.range(1, 4)).map(|_| rng.base()).collect();
            let mut pal = half.clone();
            pal.extend(half.iter().rev().map(|b| b.complement()));
            pal
        } else {
            let len = if i % 13 == 0 {
                rng.range(1, 4) // short repeat: large interval, caps bite
            } else {
                rng.range(1, 40)
            };
            if i % 2 == 0 {
                let start = rng.range(0, genome.len() - len + 1);
                if i % 4 == 0 {
                    genome.revcomp_window(start, len)
                } else {
                    genome.seq().slice(start, len)
                }
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        };
        match i % 6 {
            0 => batch.push(QueryRequest::search_both(), pattern),
            1 => batch.push(
                QueryRequest::search_both_capped(rng.range(0, 6) as u32),
                pattern,
            ),
            2 => batch.push(QueryRequest::search_both_capped(1000), pattern),
            3 => batch.push(QueryRequest::Count, pattern),
            4 => batch.push(QueryRequest::locate_capped(3), pattern),
            _ => batch.push(QueryRequest::Interval, pattern),
        }
    }
    batch
}

/// Every executor flavor under test for a given recipe.
fn executors(base: EngineBuilder) -> Vec<EngineBuilder> {
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
fn search_both_is_executor_invariant_and_oracle_identical() {
    let genome = toy_genome();
    let batch = mixed_both_batch(&genome, 500, 131);
    let memory_first = IndexLayout::new()
        .occ_sample_rate(54)
        .sa_sample_rate(32)
        .k_occ_sample_rate(640)
        .superblock_rate(32);
    for (k, layout) in [
        (1usize, IndexLayout::new()),
        (2, IndexLayout::new()),
        (4, IndexLayout::new()),
        (4, memory_first),
    ] {
        let builder = EngineBuilder::new().k(k).layout(layout).bidirectional(true);
        let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
        let (expected, _) = builder.sequential().attach(&index).unwrap().run(&batch);

        // The sequential oracle honors the both-strand contract against
        // the naive scan, cap and dedup rules included.
        for i in 0..batch.len() {
            if let QueryRequest::SearchBoth { max_hits } = batch.request(i) {
                let hits = naive::occurrences_both(genome.seq(), batch.pattern(i));
                let cap = max_hits.map_or(hits.len(), |h| h as usize);
                let kept = cap.min(hits.len());
                assert_eq!(
                    expected.positions(i),
                    &hits[..kept],
                    "k={k} {layout:?} #{i}"
                );
                assert_eq!(
                    expected.output(i),
                    QueryOutput::BothLocated {
                        truncated: kept < hits.len()
                    },
                    "k={k} {layout:?} #{i}"
                );
            }
        }

        for builder in executors(builder) {
            let (results, _) = builder.attach(&index).unwrap().run(&batch);
            assert_eq!(results, expected, "k={k}, {}", builder.descriptor());
        }
    }
}

#[test]
fn palindromes_report_each_site_once_tagged_forward() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(2).bidirectional(true);
    let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
    let parse = |s: &str| exma_genome::alphabet::parse_bases(s).unwrap();
    let batch = QueryBatch::new()
        .search_both(parse("ACGT"))
        .search_both(parse("AATT"))
        .search_both(parse("GATC"))
        .search_both(parse("AT"))
        .search_both(Vec::<Base>::new());
    for threads in [1usize, 2, 7] {
        let (results, _) = builder.threads(threads).attach(&index).unwrap().run(&batch);
        for i in 0..batch.len() {
            let decoded: Vec<(u32, Strand)> = results
                .positions(i)
                .iter()
                .map(|&h| decode_hit(h))
                .collect();
            assert!(
                decoded.iter().all(|&(_, s)| s == Strand::Forward),
                "#{i}: reverse hit survived dedup: {decoded:?}"
            );
            assert_eq!(
                results.positions(i),
                &naive::occurrences_both(genome.seq(), batch.pattern(i))[..],
                "#{i}"
            );
        }
    }
    // The empty pattern: one forward hit per position, 0..=len.
    let (results, _) = builder.attach(&index).unwrap().run(&batch);
    assert_eq!(results.count(4), genome.len() + 1);
}

#[test]
fn caps_keep_the_smallest_hits_at_every_thread_count() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4).bidirectional(true);
    let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
    let frequent = genome.seq().slice(0, 2); // hundreds of hits both ways
    let uncapped = QueryBatch::new().search_both(&frequent);
    let (full, _) = builder.attach(&index).unwrap().run(&uncapped);
    let all = full.positions(0).to_vec();
    assert!(all.len() > 10, "pattern not frequent enough for the test");
    assert!(all.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
    for cap in [0usize, 1, 7, all.len() - 1, all.len(), all.len() + 50] {
        let batch = QueryBatch::new().search_both_capped(&frequent, cap as u32);
        for threads in [1usize, 2, 7] {
            let (results, _) = builder.threads(threads).attach(&index).unwrap().run(&batch);
            let kept = cap.min(all.len());
            // The cap keeps a prefix of the sorted hit list — the
            // smallest (position, strand) hits, not resolver order.
            assert_eq!(results.positions(0), &all[..kept], "cap={cap} t={threads}");
            assert_eq!(
                results.output(0),
                QueryOutput::BothLocated {
                    truncated: kept < all.len()
                },
                "cap={cap} t={threads}"
            );
        }
    }
}

#[test]
fn simulated_reverse_strand_reads_resolve_without_client_revcomp() {
    let genome = toy_genome();
    let builder = EngineBuilder::new().k(4).bidirectional(true);
    let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
    let engine = builder.attach(&index).unwrap();
    // Error-free reads so every read matches its template exactly; the
    // 50/50 strand draw guarantees reverse origins in any decent batch.
    let short = ShortReadSimulator::new(36, ErrorProfile::error_free());
    let long = LongReadSimulator::new(200, 50, ErrorProfile::error_free());
    let reads: Vec<exma_genome::Read> = short
        .simulate(&genome, 40, 0xB07)
        .into_iter()
        .chain(long.simulate(&genome, 10, 0x106))
        .collect();
    assert!(reads.iter().any(|r| r.origin.reverse), "no reverse reads");
    let mut batch = QueryBatch::new();
    for read in &reads {
        batch.push(QueryRequest::search_both(), read.bases.to_vec());
    }
    let (results, _) = engine.run(&batch);
    for (i, read) in reads.iter().enumerate() {
        let expect = (
            read.origin.start as u32,
            if read.origin.reverse {
                Strand::Reverse
            } else {
                Strand::Forward
            },
        );
        let decoded: Vec<(u32, Strand)> = results
            .positions(i)
            .iter()
            .map(|&h| decode_hit(h))
            .collect();
        // Palindrome dedup may retag a (rare) palindromic read; accept
        // the forward tag at the same site in that case.
        let found = decoded.contains(&expect)
            || (exma_index::bidir::is_palindromic(&read.origin.template(&genome))
                && decoded.contains(&(expect.0, Strand::Forward)));
        assert!(
            found,
            "read #{i} origin {expect:?} missing from {decoded:?}"
        );
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
