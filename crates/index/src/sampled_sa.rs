//! The sampled suffix array backing `locate`.
//!
//! Storing the full suffix array costs 4 bytes/base — more than the 2-bit
//! reference itself. Instead we keep only entries whose *text position* is a
//! multiple of the sampling rate ("SA-value sampling", the BWA scheme): any
//! row can then be resolved by walking LF at most `rate - 1` steps until
//! a marked row is hit, adding the step count back. The marks, and the
//! rank that maps a marked row to its slot in the compact sample vector,
//! live in the 1-step occurrence lines (`OccTable::mark_rank`), so this
//! is a view over that table and the samples.
//!
//! The rate is where an index's spare bytes buy the most: a walk averages
//! `(rate - 1) / 2` dependent cache misses and the samples cost
//! `4 / rate` bytes a base. The layout's rate
//! ([`crate::layout::SA_SAMPLE_RATE`], 11) is the densest the bytes freed
//! by filling the occurrence table's lines paid for.

use crate::layout::SA_SAMPLE_RATE;
use crate::occ::OccTable;

/// Suffix-array samples at text positions divisible by
/// [`SA_SAMPLE_RATE`]: the occurrence table that marks their rows, and
/// their values in row order. Borrowed from a [`crate::FmIndex`]
/// ([`crate::FmIndex::sampled_sa`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledSuffixArray<'a> {
    pub(crate) occ: &'a OccTable,
    /// The values, a marked row's at its `OccTable::mark_rank`.
    pub(crate) samples: &'a [u32],
}

impl SampledSuffixArray<'_> {
    /// The SA value at `row` if that row is sampled, else `None`: the
    /// row's mark and its slot read off the occurrence line an LF step
    /// from it reads, then the sample.
    ///
    /// # Panics
    ///
    /// Panics if `row` is past the suffix array.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        let (_, _, marked) = self.occ.lf_data(row);
        marked.then(|| self.samples[self.occ.mark_rank(row)])
    }
}

/// Samples `sa`, keeping entries whose value is `0 (mod SA_SAMPLE_RATE)`:
/// which rows they are, as a bitset (row `i` at bit `i % 64` of word
/// `i / 64`) — the form a build carries them in past the suffix array,
/// and a snapshot stores them in — and their values in row order.
pub(crate) fn sample(sa: &[u32]) -> (Vec<u64>, Vec<u32>) {
    let mut marks = vec![0u64; sa.len().div_ceil(64)];
    // A permutation of `0..n` holds `⌈n / rate⌉` multiples of the rate.
    let mut samples = Vec::with_capacity(sa.len().div_ceil(SA_SAMPLE_RATE));
    for (row, &value) in sa.iter().enumerate() {
        if value as usize % SA_SAMPLE_RATE == 0 {
            marks[row / 64] |= 1 << (row % 64);
            samples.push(value);
        }
    }
    (marks, samples)
}

/// The rows a mark bitset sets, ascending.
pub(crate) fn ones(marks: &[u64]) -> impl Iterator<Item = usize> + '_ {
    marks.iter().enumerate().flat_map(|(w, &word)| {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kstep::{KStepBuildConfig, KStepFmIndex};
    use exma_genome::genome::text_from_str;
    use exma_genome::suffix_array;

    #[test]
    fn sampled_sa_returns_exactly_the_marked_rows() {
        let text = text_from_str(&"CATAGACATTAGACCATAGGA".repeat(5)).unwrap();
        let sa = suffix_array(&text);
        let fm = crate::FmIndex::from_text(&text);
        let ssa = fm.sampled_sa();
        for (row, &value) in sa.iter().enumerate() {
            let expect = (value as usize % SA_SAMPLE_RATE == 0).then_some(value);
            assert_eq!(ssa.get(row), expect, "row {row}");
            if expect.is_some() {
                // The same read as the resolver makes it: the slot, then
                // the sample.
                assert_eq!(ssa.samples[ssa.occ.mark_rank(row)], value, "row {row}");
            }
        }
        let (marks, samples) = sample(&sa);
        let sampled = (0..sa.len()).filter(|&row| sa[row] as usize % SA_SAMPLE_RATE == 0);
        assert_eq!(
            ones(&marks).collect::<Vec<_>>(),
            sampled.collect::<Vec<_>>()
        );
        assert_eq!(fm.occ().mark_words().collect::<Vec<_>>(), marks);
        assert_eq!(samples, ssa.samples);
        assert_eq!(samples.len(), sa.len().div_ceil(SA_SAMPLE_RATE));
    }

    #[test]
    fn get_is_the_suffix_array_at_every_row_of_every_index() {
        // Forward and doubled texts over several blocks and superblocks,
        // at every step width the differential harness runs but 3.
        let body = "CCATAGACATTAGACCATAGGACATAGACCTTAGGACATTAGAGGATTACA".repeat(40);
        let forward = text_from_str(&body).unwrap();
        let doubled = crate::doubled_text(&forward);
        for (text, bidirectional) in [(forward, false), (doubled, true)] {
            let sa = suffix_array(&text);
            for k in [1, 2, 4] {
                let config = KStepBuildConfig { k, bidirectional };
                let index = KStepFmIndex::from_text_with_config(&text, config).unwrap();
                let ssa = index.base_index().sampled_sa();
                for (row, &value) in sa.iter().enumerate() {
                    let expect = (value as usize % SA_SAMPLE_RATE == 0).then_some(value);
                    assert_eq!(ssa.get(row), expect, "{config:?}, row {row}");
                }
                let stored = ssa.samples.len();
                assert_eq!(stored, text.len().div_ceil(SA_SAMPLE_RATE));
            }
        }
    }
}
