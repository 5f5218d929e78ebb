//! The sampled suffix array backing `locate`.
//!
//! Storing the full suffix array costs 4 bytes/base — more than the 2-bit
//! reference itself. Instead we keep only entries whose *text position* is a
//! multiple of the sampling rate ("SA-value sampling", the BWA scheme): any
//! row can then be resolved by walking LF at most `rate - 1` steps until
//! a marked row is hit, adding the step count back. A rank-enabled bitset
//! maps marked rows to their slot in the compact sample vector.
//!
//! The rate is where an index's spare bytes buy the most: a walk averages
//! `(rate - 1) / 2` dependent cache misses and the samples cost
//! `4 / rate` bytes a base. The layout's rate
//! ([`crate::layout::SA_SAMPLE_RATE`], 11) is the densest the bytes freed
//! by filling the occurrence table's lines pay for.

use crate::interleave::prefetch_element;
use crate::layout::SA_SAMPLE_RATE;

/// A bitset over suffix-array rows with O(1) popcount rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankBits {
    words: Vec<u64>,
    /// `prefix[w]` = number of set bits in `words[0..w]`.
    prefix: Vec<u32>,
    len: usize,
}

impl RankBits {
    /// Builds the bitset from a predicate over `0..len`.
    pub fn from_fn(len: usize, mut is_set: impl FnMut(usize) -> bool) -> RankBits {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (i, word) in words.iter_mut().enumerate() {
            for bit in 0..64 {
                let pos = i * 64 + bit;
                if pos < len && is_set(pos) {
                    *word |= 1 << bit;
                }
            }
        }
        let mut prefix = Vec::with_capacity(words.len());
        let mut sum = 0u32;
        for &w in &words {
            prefix.push(sum);
            sum += w.count_ones();
        }
        RankBits { words, prefix, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the bitset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits in `0..i`.
    #[inline]
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank position {i} out of range");
        let (word, bit) = (i / 64, i % 64);
        let partial = if word < self.words.len() {
            // bit is in 0..=63, so the shift cannot overflow.
            (self.words[word] & ((1u64 << bit) - 1)).count_ones()
        } else {
            0
        };
        let full = if word < self.prefix.len() {
            self.prefix[word]
        } else {
            // i == len on a word boundary: all words are "full".
            self.prefix.last().copied().unwrap_or(0)
                + self.words.last().map_or(0, |w| w.count_ones())
        };
        full as usize + partial as usize
    }

    /// Combined membership test and rank: `Some(rank(i))` when bit `i` is
    /// set, else `None` — one word load answers both questions, where
    /// [`RankBits::get`] followed by [`RankBits::rank`] reads the word
    /// twice with a branch in between. The batched locate resolver
    /// issues it once per retired cursor, for the sample slot (which
    /// rows retire it reads from the occurrence line).
    ///
    /// Bounds are checked in debug builds only; in release an `i` inside
    /// the final word's padding resolves to `None` (padding bits are never
    /// set) and anything further panics on the word index.
    #[inline]
    pub fn rank_if_set(&self, i: usize) -> Option<usize> {
        debug_assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let (word, bit) = (i / 64, i % 64);
        let w = self.words[word];
        if (w >> bit) & 1 == 0 {
            return None;
        }
        // bit is in 0..=63, so the shift cannot overflow.
        Some(self.prefix[word] as usize + (w & ((1u64 << bit) - 1)).count_ones() as usize)
    }

    /// Hints the CPU to pull the word and prefix-count entries a later
    /// [`RankBits::rank_if_set`]`(i)` will read toward L1. Never faults; a
    /// no-op off x86-64.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        prefetch_element(&self.words, i / 64);
        prefetch_element(&self.prefix, i / 64);
    }

    /// Rebuilds the bitset from its raw words, recomputing the prefix
    /// counts exactly as [`RankBits::from_fn`] does — the snapshot load
    /// path. The caller validates that `words` covers `len` bits and
    /// that no padding bit past `len` is set.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> RankBits {
        let mut prefix = Vec::with_capacity(words.len());
        let mut sum = 0u32;
        for &w in &words {
            prefix.push(sum);
            sum += w.count_ones();
        }
        RankBits { words, prefix, len }
    }

    /// The raw mark words (bit `i` of the set lives at word `i / 64`,
    /// bit `i % 64`), for snapshot serialization.
    pub(crate) fn word_slice(&self) -> &[u64] {
        &self.words
    }

    /// The positions of the set bits, ascending.
    pub(crate) fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Heap bytes used.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8 + self.prefix.capacity() * 4
    }
}

/// Suffix-array samples at text positions divisible by
/// [`SA_SAMPLE_RATE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledSuffixArray {
    marks: RankBits,
    /// SA values of marked rows, in row order.
    samples: Vec<u32>,
}

impl SampledSuffixArray {
    /// Samples `sa`, keeping entries whose value is
    /// `0 (mod SA_SAMPLE_RATE)`.
    pub fn new(sa: &[u32]) -> SampledSuffixArray {
        let sampled = |v: u32| v as usize % SA_SAMPLE_RATE == 0;
        let marks = RankBits::from_fn(sa.len(), |row| sampled(sa[row]));
        // `filter` hides the exact size from `collect`, which can nearly
        // double the allocation; shrink so `heap_bytes` reports true cost.
        let mut samples: Vec<u32> = sa.iter().copied().filter(|&v| sampled(v)).collect();
        samples.shrink_to_fit();
        SampledSuffixArray { marks, samples }
    }

    /// Number of rows in the (full) suffix array this samples.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// `true` iff the underlying suffix array is empty.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// The SA value at `row` if that row is sampled, else `None`.
    ///
    /// Branch-light: one combined word load decides membership *and* the
    /// sample slot ([`RankBits::rank_if_set`]), so a serial walk's mark
    /// check does not stall on a second rank lookup for the common
    /// unsampled-row case.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        Some(self.samples[self.marks.rank_if_set(row)?])
    }

    /// Hints the CPU to pull the mark word and prefix count a later
    /// [`SampledSuffixArray::get`]`(row)` will read toward L1. Never
    /// faults; a no-op off x86-64.
    #[inline]
    pub fn prefetch(&self, row: usize) {
        self.marks.prefetch(row);
    }

    /// [`SampledSuffixArray::get`] in two halves, so the batch resolver
    /// can put a prefetch between them: the index of sampled row `row`'s
    /// value in the sample vector, to hand to
    /// [`SampledSuffixArray::prefetch_sample`] and
    /// [`SampledSuffixArray::sample`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a sampled row.
    #[inline]
    pub(crate) fn slot(&self, row: usize) -> usize {
        self.marks
            .rank_if_set(row)
            .expect("only sampled rows have a sample slot")
    }

    /// Hints the CPU to pull sample `slot` toward L1. Never faults; a
    /// no-op off x86-64.
    #[inline]
    pub(crate) fn prefetch_sample(&self, slot: usize) {
        prefetch_element(&self.samples, slot);
    }

    /// The SA value in sample slot `slot`.
    #[inline]
    pub(crate) fn sample(&self, slot: usize) -> u32 {
        self.samples[slot]
    }

    /// Number of rows actually stored.
    pub fn stored(&self) -> usize {
        self.samples.len()
    }

    /// Reassembles the structure from snapshot-verified parts. The
    /// caller (the snapshot loader) has already validated that the
    /// sample count equals the number of marked rows and that every
    /// sample is an [`SA_SAMPLE_RATE`]-aligned in-range text position.
    pub(crate) fn from_parts(marks: RankBits, samples: Vec<u32>) -> SampledSuffixArray {
        SampledSuffixArray { marks, samples }
    }

    /// The mark bitset, for snapshot serialization.
    pub(crate) fn marks(&self) -> &RankBits {
        &self.marks
    }

    /// The stored SA values in row order, for snapshot serialization.
    pub(crate) fn sample_slice(&self) -> &[u32] {
        &self.samples
    }

    /// Heap bytes attributed to SA samples vs the rank-bits marks.
    pub fn heap_breakdown(&self) -> crate::layout::HeapBreakdown {
        crate::layout::HeapBreakdown {
            sa_samples: self.samples.capacity() * 4,
            rank_bits: self.marks.heap_bytes(),
            ..crate::layout::HeapBreakdown::default()
        }
    }

    /// Heap bytes used by marks and samples.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::genome::text_from_str;
    use exma_genome::suffix_array;

    #[test]
    fn rank_bits_matches_naive() {
        let pattern = |i: usize| i % 3 == 0 || i % 7 == 0;
        for len in [0usize, 1, 63, 64, 65, 127, 128, 130, 500] {
            let bits = RankBits::from_fn(len, pattern);
            let mut expect = 0;
            for i in 0..=len {
                assert_eq!(bits.rank(i), expect, "len {len}, rank({i})");
                if i < len {
                    assert_eq!(bits.get(i), pattern(i));
                    expect += usize::from(pattern(i));
                }
            }
        }
    }

    #[test]
    fn rank_if_set_fuses_get_and_rank() {
        let pattern = |i: usize| i % 5 == 0 || i % 11 == 3;
        for len in [1usize, 63, 64, 65, 130, 500] {
            let bits = RankBits::from_fn(len, pattern);
            for i in 0..len {
                let expect = bits.get(i).then(|| bits.rank(i));
                assert_eq!(bits.rank_if_set(i), expect, "len {len}, bit {i}");
            }
        }
    }

    #[test]
    fn prefetch_is_a_safe_no_op() {
        let bits = RankBits::from_fn(100, |i| i % 2 == 0);
        for i in [0usize, 63, 99, 1 << 40] {
            bits.prefetch(i); // must never fault or panic
        }
    }

    #[test]
    fn sampled_sa_returns_exactly_the_marked_rows() {
        let text = text_from_str(&"CATAGACATTAGACCATAGGA".repeat(5)).unwrap();
        let sa = suffix_array(&text);
        let ssa = SampledSuffixArray::new(&sa);
        assert_eq!(ssa.len(), sa.len());
        for (row, &value) in sa.iter().enumerate() {
            let expect = (value as usize % SA_SAMPLE_RATE == 0).then_some(value);
            assert_eq!(ssa.get(row), expect, "row {row}");
            if expect.is_some() {
                // The same read in the two halves the resolver uses.
                assert_eq!(ssa.sample(ssa.slot(row)), value, "row {row}");
            }
        }
        let marked: Vec<usize> = ssa.marks().ones().collect();
        let sampled = (0..sa.len()).filter(|&row| sa[row] as usize % SA_SAMPLE_RATE == 0);
        assert_eq!(marked, sampled.collect::<Vec<_>>());
        assert_eq!(ssa.stored(), sa.len().div_ceil(SA_SAMPLE_RATE));
    }
}
