//! The acceptance property of PR 1: an `FmIndex` built from a synthetic
//! `GenomeProfile::toy()` genome must answer `count()` identically to a
//! naive substring scan for over a thousand random patterns — including
//! patterns with zero occurrences — and every `locate()` position must
//! verify against the reference text.

use exma_genome::{Base, ErrorProfile, Genome, GenomeProfile, SeededRng, ShortReadSimulator};
use exma_index::{naive, FmBuildConfig, FmIndex};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

/// Patterns mixing guaranteed hits (sampled from the reference, which the
/// toy profile's repeat structure often makes multi-occurrence) with
/// uniform-random strings that mostly do not occur at all.
fn pattern_mix(genome: &Genome, total: usize, seed: u64) -> Vec<Vec<Base>> {
    let mut rng = SeededRng::new(seed);
    (0..total)
        .map(|i| {
            let len = rng.range(4, 40);
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
fn count_agrees_with_naive_scan_on_1k_patterns() {
    let genome = toy_genome();
    let fm = FmIndex::from_genome(&genome);
    let patterns = pattern_mix(&genome, 1200, 7);

    let mut zero_hits = 0usize;
    let mut multi_hits = 0usize;
    for (i, pattern) in patterns.iter().enumerate() {
        let expect = naive::count(genome.seq(), pattern);
        assert_eq!(fm.count(pattern), expect, "pattern #{i}");
        zero_hits += usize::from(expect == 0);
        multi_hits += usize::from(expect > 1);
    }
    // The mix must actually exercise both extremes, or the test is weaker
    // than it claims.
    assert!(zero_hits >= 100, "only {zero_hits} absent patterns tested");
    assert!(
        multi_hits >= 100,
        "only {multi_hits} repeated patterns tested"
    );
}

#[test]
fn locate_positions_verify_against_the_text() {
    let genome = toy_genome();
    let fm = FmIndex::from_genome(&genome);
    for (i, pattern) in pattern_mix(&genome, 300, 11).iter().enumerate() {
        let hits = fm.locate(pattern);
        assert_eq!(
            hits,
            naive::occurrences(genome.seq(), pattern),
            "pattern #{i}"
        );
        for &pos in &hits {
            assert_eq!(
                &genome.seq().slice(pos as usize, pattern.len()),
                pattern,
                "pattern #{i} reported at {pos} but the text differs"
            );
        }
    }
}

#[test]
fn count_is_exact_across_sampling_rates() {
    let genome = Genome::synthesize(
        &GenomeProfile {
            len: 2_000,
            ..GenomeProfile::toy()
        },
        3,
    );
    let patterns = pattern_mix(&genome, 100, 13);
    for (occ_rate, sa_rate) in [(1, 1), (3, 5), (64, 32), (128, 64), (5_000, 5_000)] {
        let fm = FmIndex::from_text_with_config(
            &genome.text_with_sentinel(),
            FmBuildConfig {
                occ_sample_rate: occ_rate,
                sa_sample_rate: sa_rate,
                // Keep the superblock span provable at coarse spacings.
                superblock_rate: (65_535 / occ_rate).clamp(1, 16),
            },
        )
        .unwrap();
        for pattern in &patterns {
            assert_eq!(
                fm.count(pattern),
                naive::count(genome.seq(), pattern),
                "occ rate {occ_rate}, sa rate {sa_rate}"
            );
            assert_eq!(
                fm.locate(pattern),
                naive::occurrences(genome.seq(), pattern),
                "occ rate {occ_rate}, sa rate {sa_rate}"
            );
        }
    }
}

#[test]
fn error_free_short_reads_map_back_to_their_origin() {
    // The paper's seeding workload end to end: simulate exact reads, query
    // the index, and demand the true origin among the reported positions
    // (modulo strand: reverse reads are located via reverse complement).
    let genome = toy_genome();
    let fm = FmIndex::from_genome(&genome);
    let sim = ShortReadSimulator::new(48, ErrorProfile::error_free());
    for read in sim.simulate(&genome, 200, 17) {
        let forward: Vec<Base> = if read.origin.reverse {
            read.bases.reverse_complement().to_vec()
        } else {
            read.bases.to_vec()
        };
        let hits = fm.locate(&forward);
        assert!(
            hits.contains(&(read.origin.start as u32)),
            "read {} from {} not found (hits: {hits:?})",
            read.id,
            read.origin.start
        );
    }
}

#[test]
fn human_rel_scale_index_answers_queries() {
    // One order-of-magnitude-larger build (300 kbp) to catch scaling bugs
    // that a 10 kbp toy cannot, while keeping test runtime in milliseconds.
    let genome = Genome::synthesize(
        &GenomeProfile {
            len: 300_000,
            ..GenomeProfile::human_rel()
        },
        5,
    );
    let fm = FmIndex::from_genome(&genome);
    for (i, pattern) in pattern_mix(&genome, 50, 19).iter().enumerate() {
        assert_eq!(
            fm.count(pattern),
            naive::count(genome.seq(), pattern),
            "pattern #{i}"
        );
    }
}
