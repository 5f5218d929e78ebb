//! The K-mer lookup: a pattern's last K bases to their suffix-array
//! interval in one cache line.
//!
//! EXMA's table (§IV-A) keys each K-mer to a base pointer into the
//! suffix array. The same array answers the first K symbols of every
//! backward search: `lb[x]` counts the suffixes that sort below K-mer
//! `x`, so the rows starting with `x` are `lb[x] .. lb[x + 1]` — two
//! adjacent counters whose address depends on the pattern alone. A batch
//! can issue all of its lookups at once, none waiting on another, where
//! the k-steps they replace each wait on the interval the last one left.
//!
//! **K** is read off the text's length: the largest K with
//! `16 · 4^K ≤ n`, so the `4^K + 1` `u32` counters never cost more than a
//! quarter of a byte a base ([`lookup_k`]). On the 20 Mbp reference, and on
//! its 40 Mbp doubled text, that is K = 10 and 4 MB. Below 64 symbols no
//! K ≥ 1 fits and K is 0: one bucket, the empty K-mer's, holding every
//! row — a search seeded from it starts where it always did, at `0..n`.
//!
//! **Short suffixes.** The K suffixes that reach the sentinel within K
//! symbols belong to no bucket; each sorts *between* buckets, right
//! before the one its bases name when padded with A (the sentinel sorts
//! below A). They are counted in `lb` from that bucket on, and kept as a
//! sorted list of those buckets, so the end of `x`'s interval is
//! `lb[x + 1]` less the short suffixes sitting right before bucket
//! `x + 1`.
//!
//! The table is derived from the text a [`crate::KStepFmIndex`] already
//! keeps — one counting pass over its packed words and a prefix sum
//! ([`count_below`]) — so a snapshot does not store it: the loader
//! rebuilds it beside the other sections' decoding. The k-step index's
//! C-array is the same routine at K = k ([`kmer_buckets`]): `lb[x]` for a
//! k-mer `x` is where its bucket starts, so it is not stored either.

use std::ops::Range;

use exma_genome::Base;

use crate::interleave::{AlignedWords, WORDS_PER_LINE};
use crate::text::{PackedText, WORD_BASES};

/// Widest table the length rule can pick: `16 · 4^14` is `2^32`, more
/// rows than a `u32` index addresses.
pub(crate) const MAX_LOOKUP_K: usize = 13;

/// An unused slot of [`KmerLookup::gaps`]: above every bucket.
const NO_GAP: u32 = u32::MAX;

/// The table width the index uses for a text of `n` symbols (sentinel
/// included): the largest K with `16 · 4^K ≤ n`, or 0 when none is ≥ 1.
pub(crate) fn lookup_k(n: usize) -> usize {
    (1..=MAX_LOOKUP_K)
        .take_while(|&k| 16usize << (2 * k) <= n)
        .last()
        .unwrap_or(0)
}

/// The K-mer interval table; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KmerLookup {
    k: usize,
    /// `4^K + 1` counters: `lb[x]` suffixes sort below K-mer `x`, and
    /// `lb[4^K]` is the text length.
    lb: AlignedWords,
    /// The bucket each short suffix sits right before, ascending, then
    /// [`NO_GAP`]s. Inline: there are never more than K.
    gaps: [u32; MAX_LOOKUP_K],
}

/// The counting routine of the table: fills `lb` (`4^k + 1` counters,
/// zeroed) so that `lb[x]` suffixes of `text` sort below K-mer `x` and
/// `lb[4^k]` is the text length, and returns the buckets the short
/// suffixes sit right before, ascending, then [`NO_GAP`]s.
///
/// # Panics
///
/// Panics if `k` exceeds [`MAX_LOOKUP_K`] or `lb` is not `4^k + 1` long.
fn count_below(text: &PackedText, k: usize, lb: &mut [u32]) -> [u32; MAX_LOOKUP_K] {
    assert!(k <= MAX_LOOKUP_K, "lookup width {k} over {MAX_LOOKUP_K}");
    let n = text.len();
    let buckets = 1usize << (2 * k);
    assert_eq!(lb.len(), buckets + 1, "K={k}");
    let mut gaps = [NO_GAP; MAX_LOOKUP_K];
    if k == 0 {
        // The empty K-mer's one bucket holds every suffix.
        lb[1] = n as u32;
        return gaps;
    }

    // Every window of K bases, rolled a base at a time along the packed
    // words: the suffix starting there is in bucket `x`, which is counted
    // in `lb` from `x + 1` on.
    let mask = buckets as u32 - 1;
    let mut x = 0u32;
    let mut left = n - 1;
    for &word in text.image() {
        let take = left.min(WORD_BASES);
        let mut word = word;
        for _ in 0..take {
            x = (x << 2 | word & 3) & mask;
            word >>= 2;
            lb[x as usize + 1] += 1;
        }
        left -= take;
    }
    // The first K - 1 windows were still filling: take them back out.
    x = 0;
    for i in 0..(k - 1).min(n - 1) {
        x = x << 2 | u32::from(text.code(i));
        lb[x as usize + 1] -= 1;
    }

    // The suffixes with fewer than K bases before the sentinel, each
    // counted from the bucket its A-padded bases name.
    let short = k.min(n);
    for (slot, p) in gaps.iter_mut().zip(n - short..n) {
        let bases = n - 1 - p;
        let mut gap = 0u32;
        for i in p..n - 1 {
            gap = gap << 2 | u32::from(text.code(i));
        }
        gap <<= 2 * (k - bases);
        lb[gap as usize] += 1;
        *slot = gap;
    }
    gaps[..short].sort_unstable();

    let mut below = 0u32;
    for count in lb.iter_mut() {
        below += *count;
        *count = below;
    }
    debug_assert_eq!(below as usize, n);
    gaps
}

/// The C-array of the k-step index over `text` — for each of the `4^k`
/// k-mers, the number of suffixes that sort below it, the first row of its
/// suffix-array bucket — and each bucket's size: the suffixes that start
/// with the k-mer, which is how often the k-BWT holds its code.
/// [`count_below`] at K = k, less the last counter and the short suffixes
/// sitting between buckets; exactly `4^k` words each.
pub(crate) fn kmer_buckets(text: &PackedText, k: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0; (1 << (2 * k)) + 1];
    let gaps = count_below(text, k, &mut starts);
    let mut sizes: Vec<u32> = starts.windows(2).map(|pair| pair[1] - pair[0]).collect();
    for &gap in gaps.iter().filter(|&&gap| gap != NO_GAP && gap > 0) {
        sizes[gap as usize - 1] -= 1;
    }
    starts.pop();
    starts.shrink_to_fit();
    (starts, sizes)
}

impl KmerLookup {
    /// Counts every K-mer of `text` and sums the counts up.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`MAX_LOOKUP_K`].
    pub(crate) fn new(text: &PackedText, k: usize) -> KmerLookup {
        let buckets = 1 << (2 * k);
        let mut lb = AlignedWords::zeroed(buckets + 1);
        let gaps = count_below(text, k, &mut lb.words_mut()[..=buckets]);
        KmerLookup { k, lb, gaps }
    }

    /// K: the bases a lookup consumes.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The interval of the rows starting with `kmer` (K bases); `0..0`
    /// when there are none.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is not K bases long.
    #[inline]
    pub(crate) fn interval(&self, kmer: &[Base]) -> Range<usize> {
        let x = self.bucket(kmer);
        let lb = self.lb.words();
        let short = self.gaps.iter().filter(|&&g| g as usize == x + 1).count();
        let (lo, hi) = (lb[x] as usize, lb[x + 1] as usize - short);
        if lo < hi {
            lo..hi
        } else {
            0..0
        }
    }

    /// Hints the line(s) [`KmerLookup::interval`] of `kmer` reads. Never
    /// faults; a no-op off x86-64.
    #[inline]
    pub(crate) fn prefetch(&self, kmer: &[Base]) {
        let x = self.bucket(kmer);
        self.lb.prefetch(x);
        if (x + 1) % WORDS_PER_LINE == 0 {
            self.lb.prefetch(x + 1);
        }
    }

    /// The bucket of `kmer`: its bases two bits each, the first the most
    /// significant — lexicographic order.
    #[inline]
    fn bucket(&self, kmer: &[Base]) -> usize {
        assert_eq!(kmer.len(), self.k, "kmer width mismatch");
        kmer.iter().fold(0, |x, b| x << 2 | usize::from(b.code()))
    }

    /// Heap bytes of the counters (whole cache lines); the gaps are
    /// inline.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.lb.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_snapshot, encode_snapshot, FmIndex, KStepBuildConfig, KStepFmIndex};
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::{text_from_bases, text_from_str};
    use exma_genome::{Genome, GenomeProfile, SeededRng, Symbol};

    fn lookup_of(text: &[Symbol], k: usize) -> KmerLookup {
        KmerLookup::new(&PackedText::from_symbols(text), k)
    }

    /// Every K-mer's lookup against a 1-step backward search for it, and
    /// the rules every table holds to: `lb[4^K] == n`, and exactly
    /// `min(K, n)` short suffixes, ascending.
    fn assert_matches_search(text: &[Symbol], k: usize) {
        let lookup = lookup_of(text, k);
        let fm = FmIndex::from_text(text);
        for x in 0..1usize << (2 * k) {
            let kmer: Vec<Base> = (0..k)
                .map(|j| Base::from_code((x >> (2 * (k - 1 - j))) as u8 & 3))
                .collect();
            let expected = fm.backward_search(&kmer);
            assert_eq!(lookup.interval(&kmer), expected, "K={k}, {kmer:?}");
        }
        let n = text.len();
        assert_eq!(lookup.lb.words()[1 << (2 * k)] as usize, n, "K={k}");
        let short = lookup.gaps.iter().filter(|&&g| g != NO_GAP).count();
        assert_eq!(short, k.min(n), "K={k}");
        assert!(lookup.gaps.windows(2).all(|w| w[0] <= w[1]), "K={k}");
    }

    #[test]
    fn every_kmer_interval_is_the_backward_search_interval() {
        let mut profile = GenomeProfile::toy();
        profile.len = 4000;
        let text = Genome::synthesize(&profile, 3).text_with_sentinel();
        for k in [1, 2, 3, 5, 8] {
            assert_matches_search(&text, k);
        }
    }

    #[test]
    fn kmers_that_run_into_the_sentinel_sit_between_buckets() {
        // GTCA$ at K = 3: "CA$" sorts right before bucket CAA, "A$" and
        // "$" before AAA, and none of them is a row of those buckets.
        let text = text_from_str("GTCA").unwrap();
        let lookup = lookup_of(&text, 3);
        let caa = 0b01_00_00;
        assert_eq!(lookup.gaps[..4], [0, 0, caa, NO_GAP]);
        assert_eq!(lookup.interval(&parse_bases("CAA").unwrap()), 0..0);
        assert_eq!(lookup.interval(&parse_bases("TCA").unwrap()), 4..5);
        // Texts whose last bases repeat inside them: the padded bucket
        // is occupied, and its interval must still leave the short
        // suffixes out.
        for body in ["GTCA", "CAAACA", "AAAAAACA", "CAACAACAAA", "TTTTTTTT"] {
            let text = text_from_str(body).unwrap();
            for k in 1..=5 {
                assert_matches_search(&text, k);
            }
        }
    }

    #[test]
    fn a_text_shorter_than_k_is_all_short_suffixes() {
        for body in ["A", "GT", "ACG"] {
            let text = text_from_str(body).unwrap();
            let n = text.len();
            for k in [n, n + 1, 8] {
                assert_matches_search(&text, k);
            }
        }
    }

    #[test]
    fn k_sits_on_both_sides_of_every_boundary() {
        assert_eq!(lookup_k(1), 0);
        for k in 1..=MAX_LOOKUP_K {
            let n = 16 << (2 * k);
            assert_eq!(lookup_k(n - 1), k - 1, "n={n}");
            assert_eq!(lookup_k(n), k, "n={n}");
        }
        assert_eq!(lookup_k(10_001), 4);
        assert_eq!(lookup_k(20_000_001), 10);
        assert_eq!(lookup_k(40_000_001), 10);
        assert_eq!(lookup_k(u32::MAX as usize - 1), MAX_LOOKUP_K);
        // Real texts on both sides of the first three boundaries: the
        // index carries the table of the rule's K, and it is never more
        // than a quarter of a byte a symbol (plus the one counter past
        // the last bucket, in whole lines).
        let mut rng = SeededRng::new(0x100C);
        for n in [63, 64, 255, 256, 1023, 1024] {
            let bases: Vec<Base> = (0..n - 1).map(|_| rng.base()).collect();
            let text = text_from_bases(&bases);
            let index = KStepFmIndex::from_text(&text, 2);
            let k = lookup_k(n);
            assert_eq!(index.lookup_k(), k, "n={n}");
            assert_eq!(index.lookup, lookup_of(&text, k), "n={n}");
            assert!(index.lookup.heap_bytes() <= (n / 4 + 4).next_multiple_of(64));
            assert_matches_search(&text, k.max(1));
        }
    }

    #[test]
    fn the_empty_kmer_is_every_row() {
        let text = text_from_str("CATAGA").unwrap();
        assert_eq!(lookup_k(text.len()), 0);
        assert_matches_search(&text, 0);
        assert_eq!(lookup_of(&text, 0).interval(&[]), 0..7);
    }

    #[test]
    fn a_loaded_index_carries_the_table_of_its_cold_build() {
        let mut profile = GenomeProfile::toy();
        profile.len = 3000;
        let forward = Genome::synthesize(&profile, 21).text_with_sentinel();
        for (k, bidirectional) in [(1, false), (4, false), (2, true)] {
            let text = if bidirectional {
                crate::bidir::doubled_text(&forward)
            } else {
                forward.clone()
            };
            let config = KStepBuildConfig {
                bidirectional,
                ..KStepBuildConfig::for_k(k)
            };
            let index = KStepFmIndex::from_text_with_config(&text, config).unwrap();
            assert_eq!(index.lookup_k(), lookup_k(text.len()));
            let loaded = decode_snapshot(&encode_snapshot(&index), None).unwrap();
            assert_eq!(loaded.lookup, index.lookup, "k={k}");
            assert_eq!(loaded, index, "k={k}");
        }
    }
}
