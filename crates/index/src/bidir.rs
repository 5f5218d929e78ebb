//! The bidirectional (FMD-style) index: forward and reverse-complement
//! strands in one structure, after Li's FMD-index.
//!
//! Half of every simulated DNA read set originates on the reverse
//! strand (`exma_genome::ReadOrigin::reverse`), which a forward-only
//! index cannot serve without the client querying twice. This module
//! indexes the **doubled text**
//!
//! ```text
//! forward · revcomp(forward) · $
//! ```
//!
//! — `2n + 1` symbols for an `n`-base reference, with the single
//! terminal sentinel the suffix-array builder requires — through the
//! ordinary [`crate::KStepFmIndex`] machinery (BWT, two-level occurrence
//! tables, sampled suffix array, all in the one layout).
//! One backward search over the doubled text finds a pattern on either
//! strand at once; raw doubled-text positions are then mapped back to
//! forward-reference coordinates with a strand tag by pure arithmetic:
//!
//! * a raw hit `p` with `p + m ≤ n` lies in the forward half — a
//!   [`Strand::Forward`] hit at `p`;
//! * a raw hit `p ≥ n` lies in the reverse-complement half — the
//!   forward window `s = 2n − p − m .. s + m` contains
//!   `revcomp(pattern)`, reported as a [`Strand::Reverse`] hit at `s`;
//! * raw hits straddling the half boundary (`n − m < p < n`) match a
//!   chimera of forward tail and reverse-complement head that exists on
//!   neither strand, and are dropped.
//!
//! **Palindrome dedup.** A reverse-complement palindrome
//! (`pattern == revcomp(pattern)`, necessarily of even length — the
//! empty pattern counts) occurs at forward position `s` exactly when it
//! occurs at raw reverse position `p = 2n − s − m`: the two halves
//! mirror hit for hit. Reporting both would double every site, so the
//! rule is deterministic and total: palindromic patterns drop **all**
//! reverse-classified hits and report each site once, tagged
//! [`Strand::Forward`].
//!
//! Hits travel as one `u32` each — `(position << 1) | strand_bit` (see
//! [`encode_hit`]) — so they ride the same flat pooled buffers as plain
//! locate positions, and sorting encoded hits yields deterministic
//! `(position, strand)` order. The largest profile in the workspace is
//! 31 Mbp, far under the `2^31` the shifted encoding allows.

use exma_genome::{Base, Symbol};

/// Which reference strand a strand-agnostic hit matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strand {
    /// The pattern occurs in the reference as given.
    Forward,
    /// `revcomp(pattern)` occurs in the reference; the hit position is
    /// the forward coordinate of the matched window.
    Reverse,
}

impl Strand {
    /// The encoding bit: 0 forward, 1 reverse.
    #[inline]
    pub fn bit(self) -> u32 {
        match self {
            Strand::Forward => 0,
            Strand::Reverse => 1,
        }
    }

    /// Decodes the strand bit.
    #[inline]
    pub fn from_bit(bit: u32) -> Strand {
        if bit & 1 == 0 {
            Strand::Forward
        } else {
            Strand::Reverse
        }
    }
}

/// Packs a forward-coordinate hit and its strand into one `u32`:
/// `(position << 1) | strand_bit`. Sorting encoded hits sorts by
/// `(position, strand)`.
///
/// # Panics
///
/// Debug-asserts `position < 2^31`.
#[inline]
pub fn encode_hit(position: u32, strand: Strand) -> u32 {
    debug_assert!(
        position < 1 << 31,
        "position {position} overflows the strand encoding"
    );
    (position << 1) | strand.bit()
}

/// Unpacks an [`encode_hit`] value into `(position, strand)`.
#[inline]
pub fn decode_hit(hit: u32) -> (u32, Strand) {
    (hit >> 1, Strand::from_bit(hit))
}

/// The reverse complement of a pattern.
pub fn revcomp(pattern: &[Base]) -> Vec<Base> {
    pattern.iter().rev().map(|b| b.complement()).collect()
}

/// `true` iff `pattern` equals its own reverse complement — the
/// patterns whose forward and reverse hits mirror site for site. Only
/// even lengths qualify (a middle base would have to equal its own
/// complement); the empty pattern does.
pub fn is_palindromic(pattern: &[Base]) -> bool {
    pattern.len() % 2 == 0
        && pattern
            .iter()
            .zip(pattern.iter().rev())
            .all(|(&a, &b)| a == b.complement())
}

/// Builds the doubled text `forward · revcomp(forward) · $` from a
/// sentinel-terminated forward text — the input every bidirectional
/// index is constructed over.
///
/// # Panics
///
/// Panics if `text` is empty or not sentinel-terminated.
pub fn doubled_text(text: &[Symbol]) -> Vec<Symbol> {
    assert!(
        text.last().is_some_and(|s| s.is_sentinel()),
        "doubled_text needs a sentinel-terminated forward text"
    );
    let forward = &text[..text.len() - 1];
    let mut doubled = Vec::with_capacity(2 * forward.len() + 1);
    doubled.extend_from_slice(forward);
    doubled.extend(forward.iter().rev().map(|s| match s {
        Symbol::Base(b) => Symbol::Base(b.complement()),
        Symbol::Sentinel => unreachable!("interior sentinel in forward text"),
    }));
    doubled.push(Symbol::Sentinel);
    doubled
}

/// Forward-reference length `n` of a doubled text of `text_len`
/// symbols (`2n + 1`, sentinel included).
#[inline]
pub fn forward_len(text_len: usize) -> usize {
    (text_len - 1) / 2
}

/// Maps one raw doubled-text hit to its encoded strand-hit, or `None`
/// for a half-boundary straddler. `m` is the pattern length, `n` the
/// forward-reference length. Palindrome dedup is the caller's job
/// (drop every [`Strand::Reverse`] result when the pattern is
/// palindromic).
#[inline]
pub fn map_raw_hit(raw: u32, m: usize, n: usize) -> Option<u32> {
    let p = raw as usize;
    if p + m <= n {
        Some(encode_hit(raw, Strand::Forward))
    } else if p >= n && p + m <= 2 * n {
        Some(encode_hit((2 * n - p - m) as u32, Strand::Reverse))
    } else {
        None
    }
}

/// Maps a buffer of raw doubled-text hits to encoded strand-hits in
/// place: straddlers are dropped, reverse hits of palindromic patterns
/// are dropped (the dedup rule), and the survivors are moved to the front
/// and sorted by `(position, strand)`. Returns the kept count;
/// `hits[..kept]` holds the result, and what lies behind it is spent.
pub fn map_hits_in_place(hits: &mut [u32], pattern: &[Base], n: usize) -> usize {
    let m = pattern.len();
    let palindromic = is_palindromic(pattern);
    let mut kept = 0;
    for i in 0..hits.len() {
        match map_raw_hit(hits[i], m, n) {
            Some(encoded) if !(palindromic && decode_hit(encoded).1 == Strand::Reverse) => {
                hits[kept] = encoded;
                kept += 1;
            }
            _ => {}
        }
    }
    hits[..kept].sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kstep::{KStepBuildConfig, KStepFmIndex};
    use crate::naive;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::{text_from_str, Genome};
    use exma_genome::{GenomeProfile, SeededRng};

    /// The doubled-text index over a sentinel-terminated forward text,
    /// built the way the engine builds it.
    fn both_strands(text: &[Symbol], k: usize) -> KStepFmIndex {
        let config = KStepBuildConfig {
            bidirectional: true,
            ..KStepBuildConfig::for_k(k)
        };
        KStepFmIndex::from_text_with_config(&doubled_text(text), config).unwrap()
    }

    /// Every strand-agnostic occurrence of `pattern` as sorted encoded
    /// strand-hits.
    fn locate_both(index: &KStepFmIndex, pattern: &[Base]) -> Vec<u32> {
        let mut hits = Vec::new();
        index
            .base_index()
            .resolve_range_into(index.backward_search(pattern), &mut hits);
        let kept = map_hits_in_place(&mut hits, pattern, forward_len(index.text_len()));
        hits.truncate(kept);
        hits
    }

    #[test]
    fn strand_hits_encode_and_decode() {
        for (pos, strand) in [
            (0, Strand::Forward),
            (0, Strand::Reverse),
            (1234, Strand::Reverse),
        ] {
            assert_eq!(decode_hit(encode_hit(pos, strand)), (pos, strand));
        }
        // Encoded order is (position, strand) order.
        assert!(encode_hit(5, Strand::Forward) < encode_hit(5, Strand::Reverse));
        assert!(encode_hit(5, Strand::Reverse) < encode_hit(6, Strand::Forward));
    }

    #[test]
    fn palindrome_detection() {
        for (pat, expect) in [
            ("", true),
            ("A", false),
            ("AT", true),
            ("TA", true),
            ("CG", true),
            ("AC", false),
            ("ACGT", true),
            ("AATT", true),
            ("AAT", false),
            ("GATC", true),
            ("GATTACA", false),
        ] {
            assert_eq!(is_palindromic(&parse_bases(pat).unwrap()), expect, "{pat}");
        }
    }

    #[test]
    fn doubled_text_has_one_terminal_sentinel() {
        let text = text_from_str("GATTACA").unwrap();
        let doubled = doubled_text(&text);
        assert_eq!(doubled.len(), 15);
        assert_eq!(forward_len(doubled.len()), 7);
        assert!(doubled.last().unwrap().is_sentinel());
        assert!(doubled[..14].iter().all(|s| !s.is_sentinel()));
        // Second half is the reverse complement of the first.
        let rendered: String = doubled[..14].iter().map(|s| s.to_string()).collect();
        assert_eq!(rendered, "GATTACATGTAATC");
    }

    #[test]
    fn raw_hit_mapping_covers_all_three_regions() {
        // n = 7, m = 3: forward hits at p ≤ 4, straddlers at 5..7,
        // reverse hits from 7.
        assert_eq!(map_raw_hit(0, 3, 7), Some(encode_hit(0, Strand::Forward)));
        assert_eq!(map_raw_hit(4, 3, 7), Some(encode_hit(4, Strand::Forward)));
        assert_eq!(map_raw_hit(5, 3, 7), None);
        assert_eq!(map_raw_hit(6, 3, 7), None);
        assert_eq!(map_raw_hit(7, 3, 7), Some(encode_hit(4, Strand::Reverse)));
        assert_eq!(map_raw_hit(11, 3, 7), Some(encode_hit(0, Strand::Reverse)));
    }

    #[test]
    fn locate_both_matches_the_naive_oracle_on_random_patterns() {
        let mut profile = GenomeProfile::toy();
        profile.len = 2500;
        let genome = Genome::synthesize(&profile, 13);
        let index = both_strands(&genome.text_with_sentinel(), 4);
        let mut rng = SeededRng::new(0xB1D1);
        for i in 0..300 {
            let len = rng.range(1, 24);
            let pattern: Vec<Base> = if rng.chance(0.7) {
                let start = rng.range(0, genome.len() - len + 1);
                if rng.chance(0.5) {
                    genome.revcomp_window(start, len)
                } else {
                    genome.seq().slice(start, len)
                }
            } else {
                (0..len).map(|_| rng.base()).collect()
            };
            assert_eq!(
                locate_both(&index, &pattern),
                naive::occurrences_both(genome.seq(), &pattern),
                "pattern #{i}"
            );
        }
        // The empty pattern and a palindrome, explicitly.
        assert_eq!(
            locate_both(&index, &[]),
            naive::occurrences_both(genome.seq(), &[])
        );
        let pal = parse_bases("ACGT").unwrap();
        assert_eq!(
            locate_both(&index, &pal),
            naive::occurrences_both(genome.seq(), &pal)
        );
    }

    #[test]
    fn reverse_strand_reads_resolve_to_their_origin() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 21);
        let index = both_strands(&genome.text_with_sentinel(), 2);
        let read = genome.revcomp_window(777, 31);
        let hits = locate_both(&index, &read);
        assert!(
            hits.iter()
                .any(|&h| decode_hit(h) == (777, Strand::Reverse)),
            "origin missing from {hits:?}"
        );
    }

    #[test]
    fn recipe_marker_survives_construction() {
        let index = both_strands(&text_from_str("GATTACA").unwrap(), 2);
        assert!(index.is_bidirectional());
        assert!(index.build_config().bidirectional);
        let forward = KStepFmIndex::from_text(&text_from_str("GATTACA").unwrap(), 2);
        assert!(!forward.is_bidirectional());
    }
}
