//! The FM-index: backward-search `count` and `locate`.
//!
//! This is the software baseline EXMA accelerates (paper §II): a C-array,
//! a sampled occurrence table over the BWT, and a sampled suffix array.
//! `count` runs one LF-refinement per pattern symbol, right to left;
//! `locate` resolves each row of the final interval by LF-walking to a
//! sampled row. Every future PR — k-step indexing, batching, the EXMA
//! table itself — is measured against this query path.

use std::ops::Range;

use exma_genome::genome::Genome;
use exma_genome::{Base, Symbol};

use crate::layout::HeapBreakdown;
use crate::occ::OccTable;
use crate::sampled_sa::SampledSuffixArray;

/// An FM-index over a sentinel-terminated text.
#[derive(Debug, Clone, PartialEq)]
pub struct FmIndex {
    /// `c_array[s]`: the rows whose suffixes start below symbol `s` — the
    /// `Count` table of paper Fig. 3(c), summed up from the BWT's symbol
    /// counts, which are the occurrence table's totals.
    c_array: [u64; 5],
    /// The occurrence table, which also marks the sampled rows.
    occ: OccTable,
    samples: Vec<u32>,
}

impl FmIndex {
    /// Assembles an index from its occurrence table, in the finish every
    /// k-step build and load ends in, and so the place where the table
    /// learns which rows the `samples` belong to: those the bitset
    /// `marks` sets.
    pub(crate) fn from_parts(mut occ: OccTable, marks: &[u64], samples: Vec<u32>) -> FmIndex {
        occ.mark_rows(marks);
        let mut below = 0;
        let c_array = occ.rank_all(occ.len()).map(|count| {
            below += count;
            below - count
        });
        FmIndex {
            c_array,
            occ,
            samples,
        }
    }

    /// Builds the index from a sentinel-terminated symbol text: the
    /// [`crate::KStepFmIndex::base_index`] of a k = 1 build, which every
    /// step width shares, so the suffix array has one consumer.
    ///
    /// # Panics
    ///
    /// Panics if `text` is not sentinel-terminated (see
    /// [`exma_genome::suffix_array`]) or too long for `u32` counters.
    pub fn from_text(text: &[Symbol]) -> FmIndex {
        crate::KStepFmIndex::from_text(text, 1).into_base()
    }

    /// Builds the index for a genome's reference sequence.
    ///
    /// ```
    /// use exma_genome::{Genome, GenomeProfile};
    /// use exma_index::FmIndex;
    ///
    /// let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
    /// let fm = FmIndex::from_genome(&genome);
    /// let pattern = genome.seq().slice(100, 20);
    /// assert!(fm.locate(&pattern).contains(&100));
    /// ```
    pub fn from_genome(genome: &Genome) -> FmIndex {
        FmIndex::from_text(&genome.text_with_sentinel())
    }

    /// Length of the indexed text, including the sentinel.
    pub fn text_len(&self) -> usize {
        self.occ.len()
    }

    /// The occurrence table.
    pub fn occ(&self) -> &OccTable {
        &self.occ
    }

    /// The sampled suffix array.
    pub fn sampled_sa(&self) -> SampledSuffixArray<'_> {
        let (occ, samples) = (&self.occ, &self.samples[..]);
        SampledSuffixArray { occ, samples }
    }

    /// LF-mapping: the suffix-array row of the suffix starting one text
    /// position before the suffix at `row` (cyclically for the sentinel
    /// row). One LF step is the unit of work EXMA's hardware pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.text_len()`.
    pub fn lf(&self, row: usize) -> usize {
        self.lf_marked(row).0
    }

    /// [`FmIndex::lf`] of `row`, and whether `row` itself is a row the
    /// sampled suffix array keeps — a locate walk's whole step, answered
    /// by the one occurrence line both facts live in
    /// ([`OccTable::lf_data`]).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.text_len()`.
    #[inline]
    pub fn lf_marked(&self, row: usize) -> (usize, bool) {
        let (s, rank, marked) = self.occ.lf_data(row);
        (
            (self.c_array[usize::from(s.code())] + rank) as usize,
            marked,
        )
    }

    /// One LF refinement: narrows `range` (rows whose suffixes start with
    /// some matched suffix `S`) to the rows starting with `b · S`. Returns
    /// `0..0` when no occurrences remain.
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the text.
    #[inline]
    pub fn step(&self, b: Base, range: Range<usize>) -> Range<usize> {
        let s = Symbol::Base(b);
        let c = self.c_array[usize::from(s.code())] as usize;
        let lo = c + self.occ.rank(s, range.start) as usize;
        let hi = c + self.occ.rank(s, range.end) as usize;
        if lo >= hi {
            0..0
        } else {
            lo..hi
        }
    }

    /// The suffix-array interval of rows whose suffixes start with
    /// `pattern` — the backward-search loop of paper Fig. 2.
    ///
    /// The empty pattern matches every row. An empty range means no
    /// occurrences.
    pub fn backward_search(&self, pattern: &[Base]) -> Range<usize> {
        let mut range = 0..self.text_len();
        for &b in pattern.iter().rev() {
            range = self.step(b, range);
            if range.is_empty() {
                return 0..0;
            }
        }
        range
    }

    /// Number of occurrences of `pattern` in the reference.
    pub fn count(&self, pattern: &[Base]) -> usize {
        self.backward_search(pattern).len()
    }

    /// All starting positions of `pattern` in the reference, sorted
    /// ascending. Resolves each interval row by LF-walking to a sampled
    /// row — at most [`crate::layout::SA_SAMPLE_RATE`]` - 1` steps, since
    /// text positions decrease by one per step and every multiple of the
    /// rate is sampled.
    pub fn locate(&self, pattern: &[Base]) -> Vec<u32> {
        let mut positions = Vec::new();
        self.locate_into(pattern, &mut positions);
        positions
    }

    /// Allocation-reusing `locate`: clears `out` and fills it with the
    /// sorted starting positions of `pattern`. Batch callers issuing many
    /// locates can recycle one buffer instead of allocating per query.
    pub fn locate_into(&self, pattern: &[Base], out: &mut Vec<u32>) {
        self.resolve_range_into(self.backward_search(pattern), out);
    }

    /// Resolves every row of a suffix-array interval (as returned by
    /// [`FmIndex::backward_search`]) into `out`, sorted ascending. `out` is
    /// cleared first. A locate capped at `h` resolves the interval's first
    /// `h` rows: the positions whose suffixes come first in the text.
    ///
    /// Each row LF-walks serially — one dependent cache miss per step.
    /// Batch callers with many rows in flight should use
    /// [`crate::resolve::BatchResolver`], which runs the same walks in
    /// lockstep rounds with prefetch; its output is element-identical to
    /// this method, interval by interval.
    pub fn resolve_range_into(&self, rows: Range<usize>, out: &mut Vec<u32>) {
        out.clear();
        out.extend(rows.map(|row| self.resolve_row(row)));
        out.sort_unstable();
    }

    /// The suffix-array value of `row`: LF steps to a sampled row, whose
    /// sample slot the last step's occurrence line gives.
    pub fn resolve_row(&self, mut row: usize) -> u32 {
        let mut steps = 0;
        loop {
            let (successor, marked) = self.lf_marked(row);
            if marked {
                return self.samples[self.occ.mark_rank(row)] + steps;
            }
            (row, steps) = (successor, steps + 1);
        }
    }

    /// Heap bytes of all index components, attributed per component.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        HeapBreakdown {
            sa_samples: self.samples.capacity() * 4,
            ..self.occ.heap_breakdown()
        }
    }

    /// Heap bytes of all index components.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SA_SAMPLE_RATE;
    use crate::{naive, KStepBuildConfig, KStepFmIndex, MAX_STEP};
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;
    use exma_genome::{bwt_from_sa, suffix_array};

    fn fig3_index() -> FmIndex {
        // The paper's running example: G = CATAGA$.
        FmIndex::from_text(&text_from_str("CATAGA").unwrap())
    }

    /// A text one block long and one of several blocks, each sampled
    /// every 11th position.
    fn block_texts() -> [Vec<Symbol>; 2] {
        let body = "CCATAGACATTAGACCATAGGACATAGACCTTAGGACATTAG";
        [body, &body.repeat(7)].map(|body| text_from_str(body).unwrap())
    }

    /// The C-array by definition: for each symbol, the text's symbols
    /// below it.
    fn naive_c_array(text: &[Symbol]) -> [u64; 5] {
        std::array::from_fn(|c| text.iter().filter(|s| usize::from(s.code()) < c).count() as u64)
    }

    #[test]
    fn fig3_c_array() {
        // Fig. 3(c): Count(A) = 1, Count(C) = 4, Count(G) = 5, Count(T) = 6.
        let fm = fig3_index();
        assert_eq!(fm.c_array, [0, 1, 4, 5, 6]);
        assert_eq!(fm.c_array, naive_c_array(&text_from_str("CATAGA").unwrap()));
    }

    #[test]
    fn the_c_array_is_the_naive_count_at_every_step_width() {
        // Read off the occurrence table's totals, forward and doubled.
        for forward in block_texts() {
            let doubled = crate::doubled_text(&forward);
            for (text, bidirectional) in [(forward, false), (doubled, true)] {
                let naive = naive_c_array(&text);
                assert_eq!(naive[1], 1, "one sentinel below every base");
                for k in [1, 2, 4] {
                    let config = KStepBuildConfig { k, bidirectional };
                    let index = KStepFmIndex::from_text_with_config(&text, config).unwrap();
                    let n = text.len();
                    assert_eq!(index.base_index().c_array, naive, "{config:?}, n {n}");
                }
            }
        }
    }

    #[test]
    fn fig3_counts() {
        let fm = fig3_index();
        assert_eq!(fm.count(&parse_bases("A").unwrap()), 3);
        assert_eq!(fm.count(&parse_bases("TA").unwrap()), 1);
        assert_eq!(fm.count(&parse_bases("AGA").unwrap()), 1);
        assert_eq!(fm.count(&parse_bases("CATAGA").unwrap()), 1);
        assert_eq!(fm.count(&parse_bases("GG").unwrap()), 0);
        assert_eq!(fm.count(&parse_bases("TT").unwrap()), 0);
    }

    #[test]
    fn fig3_locate() {
        let fm = fig3_index();
        assert_eq!(fm.locate(&parse_bases("A").unwrap()), vec![1, 3, 5]);
        assert_eq!(fm.locate(&parse_bases("CATAGA").unwrap()), vec![0]);
        assert_eq!(fm.locate(&parse_bases("GG").unwrap()), Vec::<u32>::new());
    }

    #[test]
    fn locate_into_reuses_and_clears_the_buffer() {
        let fm = fig3_index();
        let mut buf = vec![99u32; 8]; // stale content must not survive
        fm.locate_into(&parse_bases("A").unwrap(), &mut buf);
        assert_eq!(buf, vec![1, 3, 5]);
        fm.locate_into(&parse_bases("GG").unwrap(), &mut buf);
        assert_eq!(buf, Vec::<u32>::new());
    }

    #[test]
    fn empty_pattern_matches_every_row() {
        let fm = fig3_index();
        assert_eq!(fm.backward_search(&[]), 0..7);
        assert_eq!(fm.count(&[]), 7);
    }

    #[test]
    fn lf_walk_spells_text_backwards() {
        // Repeated LF from the sentinel row visits the text right to left.
        let text = text_from_str("CATAGA").unwrap();
        let fm = FmIndex::from_text(&text);
        let mut row = 0; // row 0 is the sentinel suffix.
        let mut recovered = Vec::new();
        for _ in 0..text.len() - 1 {
            recovered.push(fm.occ.symbol(row));
            row = fm.lf(row);
        }
        recovered.reverse();
        let spelled: String = recovered.iter().map(|s| s.to_string()).collect();
        assert_eq!(spelled, "CATAGA");
    }

    #[test]
    fn occurrence_lines_mark_exactly_the_sampled_rows() {
        for text in block_texts() {
            let bwt = bwt_from_sa(&text, &suffix_array(&text));
            let c_array = naive_c_array(&text);
            // The same table before `from_parts` marked it.
            let unmarked = OccTable::new(bwt.iter().copied());
            let fm = FmIndex::from_text(&text);
            let n = text.len();
            for i in 0..=n {
                assert_eq!(fm.occ().rank_all(i), unmarked.rank_all(i), "n {n}");
            }
            let mut marked = 0;
            for (row, &s) in bwt.iter().enumerate() {
                let at = format!("n {n}, row {row}");
                let sampled = fm.sampled_sa().get(row).is_some();
                marked += usize::from(sampled);
                let rank = unmarked.rank(s, row);
                assert_eq!(fm.occ().lf_data(row), (s, rank, sampled), "{at}");
                assert_eq!(fm.occ().symbol(row), s, "{at}");
                assert_eq!(fm.occ().rank(s, row), rank, "{at}");
                let lf = (c_array[usize::from(s.code())] + rank) as usize;
                assert_eq!(fm.lf(row), lf, "{at}");
                assert_eq!(fm.lf_marked(row), (lf, sampled), "{at}");
            }
            assert_eq!(marked, n.div_ceil(SA_SAMPLE_RATE), "n {n}");
        }
    }

    #[test]
    fn pattern_longer_than_text_has_no_hits() {
        let fm = fig3_index();
        assert_eq!(fm.count(&parse_bases("CATAGACATAGA").unwrap()), 0);
    }

    #[test]
    fn capped_resolution_truncates_deterministically() {
        // A capped locate resolves its interval's first rows: the hits
        // whose suffixes sort first in the text (the sentinel lowest),
        // for every cap below, at and above every width, 0 included.
        let body = "CCATAGACATTAGACCATAGGACATAGACC";
        let fm = FmIndex::from_text(&text_from_str(body).unwrap());
        let seq = exma_genome::PackedSeq::from_bases(&parse_bases(body).unwrap());
        let mut out = Vec::new();
        for pat in ["GGG", "CCATAG", "CC", "AGA", "A", ""] {
            let p = parse_bases(pat).unwrap();
            let rows = fm.backward_search(&p);
            let mut by_suffix = naive::occurrences(&seq, &p);
            assert_eq!(rows.len(), by_suffix.len());
            by_suffix.sort_by_key(|&pos| &body[pos as usize..]);
            for cap in (0..=rows.len() + 1).chain([usize::MAX]) {
                let kept = rows.len().min(cap);
                fm.resolve_range_into(rows.start..rows.start + kept, &mut out);
                let mut expect = by_suffix[..kept].to_vec();
                expect.sort_unstable();
                assert_eq!(out, expect, "{pat:?} capped at {cap}");
            }
        }
    }

    #[test]
    fn sampling_rates_do_not_change_answers() {
        // The 1-step tables and the k-mer tables at every width, each
        // checkpointed at its own spacing (192k rows), against the scan.
        let body = "CCATAGACATTAGACCATAGGACATAGACC";
        let text = text_from_str(body).unwrap();
        let seq = exma_genome::PackedSeq::from_bases(&parse_bases(body).unwrap());
        let fm = FmIndex::from_text(&text);
        let indexes: Vec<_> = (1..=MAX_STEP)
            .map(|k| KStepFmIndex::from_text(&text, k))
            .collect();
        for pat in ["A", "CAT", "TAGA", "CCATAG", "GGG", "ACATAGACC"] {
            let p = parse_bases(pat).unwrap();
            let hits = naive::occurrences(&seq, &p);
            assert_eq!(fm.count(&p), hits.len(), "count {pat}");
            assert_eq!(fm.locate(&p), hits, "locate {pat}");
            for index in &indexes {
                let k = index.k();
                assert_eq!(index.count(&p), hits.len(), "k={k}, count {pat}");
                assert_eq!(index.locate(&p), hits, "k={k}, locate {pat}");
            }
        }
    }
}
