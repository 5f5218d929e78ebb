//! The k-step FM-index: k pattern symbols per LF refinement.
//!
//! A 1-step FM-index spends one dependent memory round-trip per pattern
//! symbol — the latency wall the paper attacks (§III). The k-step index
//! widens the LF alphabet to k-mers: a C-array over the `4^k` expanded
//! alphabet ([`KStepFmIndex::kstart`]) plus a rank table over the k-BWT
//! ([`crate::kocc::KmerOccTable`]) refine the suffix-array interval by k
//! symbols at once, cutting the dependent chain of `count` from `m` to
//! `⌈m/k⌉` steps. Pattern lengths not divisible by k finish with ordinary
//! 1-step refinements on the embedded [`FmIndex`], which also resolves
//! `locate` rows — answers are identical to the 1-step index by
//! construction, and property-tested to be.
//!
//! The index also carries EXMA's base pointers (§IV-A): a table keyed by
//! every K-mer, for a K read off the text's length (10 on a 20 Mbp
//! reference), holding where the K-mer's suffix-array bucket starts
//! ([`KStepFmIndex::lookup_interval`]). It hands a search the interval of
//! its pattern's last K symbols in one line whose address depends on the
//! pattern alone, so the batch engine starts every long enough query
//! there instead of at `0..n` — the dependent k-steps it skips are the
//! widest ones, and the lookups of a whole batch are in flight at once.
//! [`KStepFmIndex::backward_search`] does not use it: the sequential
//! search stays the oracle the table is tested against.
//!
//! The C-array and the K-mer table are one routine: the C-array is the
//! K-mer table's counting pass run at K = k over the same 2-bit text, so
//! both are derived from the text alone and a snapshot stores neither.
//! The layout — every sampling rate — is the constants of
//! [`crate::layout`]; what a build chooses is `k` and the strandedness
//! ([`KStepBuildConfig`]).

use std::ops::Range;

use exma_genome::genome::Genome;
use exma_genome::{count_table, suffix_array, Base, Kmer, Symbol};

use crate::fm::FmIndex;
use crate::kocc::KmerOccTable;
use crate::layout::{HeapBreakdown, IndexError};
use crate::lookup::{kmer_buckets, lookup_k, KmerLookup};
use crate::occ::OccTable;
use crate::sampled_sa;
use crate::text::PackedText;

/// Largest supported step width: the `4^4` = 256 k-mer codes of k = 4
/// are the most a one-byte code lane of the k-step table holds, and the
/// k-BWT is built, stored and loaded as those bytes. Each wider step
/// would double the table's heap or more (its checkpoint rows hold `4^k`
/// counters) for no faster search.
pub const MAX_STEP: usize = 4;

/// What a k-step index build chooses: the step width and the
/// strandedness. Everything else about the index is the one layout of
/// [`crate::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KStepBuildConfig {
    /// Symbols consumed per LF refinement. The paper evaluates k ∈ {1, 2, 4}.
    pub k: usize,
    /// `true` iff the indexed text is the bidirectional doubled text
    /// (`forward · revcomp(forward) · $`, see [`crate::bidir`]). Purely a
    /// recipe marker: construction is identical, but snapshot and
    /// warm-start recipe-equality gates must distinguish a doubled index
    /// from a forward-only one built over a coincidentally equal text.
    pub bidirectional: bool,
}

impl KStepBuildConfig {
    /// The forward-only build at step width `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or greater than [`MAX_STEP`].
    pub fn for_k(k: usize) -> KStepBuildConfig {
        assert!(
            (1..=MAX_STEP).contains(&k),
            "k must be in 1..={MAX_STEP}, got {k}"
        );
        KStepBuildConfig {
            k,
            bidirectional: false,
        }
    }
}

/// The k-BWT of `text` from its suffix array `sa`, one byte a row: the k
/// bases cyclically in front of each suffix packed into a code, the last
/// one in the low two bits — so a code's low bits are the row's BWT
/// symbol. The window crosses the sentinel exactly at the rows of the
/// text positions below k, the *marker rows*: they take a placeholder
/// `0` and are returned in row order, with their BWT symbols.
fn k_bwt(text: &[Symbol], sa: &[u32], k: usize) -> (Vec<u8>, Vec<u32>, Vec<Symbol>) {
    let n = text.len();
    let mut markers = Vec::with_capacity(k.min(n));
    let mut symbols = Vec::with_capacity(k.min(n));
    let codes = sa
        .iter()
        .enumerate()
        .map(|(row, &p)| {
            let p = p as usize;
            if p < k {
                markers.push(row as u32);
                symbols.push(text[(p + n - 1) % n]);
                return 0;
            }
            // The window `T[p - k..p]` ends before the sentinel, the
            // text's last symbol: k bases.
            text[p - k..p]
                .iter()
                .fold(0, |code, s| code << 2 | (s.code() - 1))
        })
        .collect();
    (codes, markers, symbols)
}

/// The BWT, row by row, read off the k-BWT: the last base of each row's
/// code, and at the marker rows `symbols`, one a marker row in order.
pub(crate) fn bwt_of_codes<'a>(
    codes: &'a [u8],
    markers: &'a [u32],
    symbols: &'a [Symbol],
) -> impl ExactSizeIterator<Item = Symbol> + 'a {
    let mut next = 0;
    codes.iter().enumerate().map(move |(row, &code)| {
        if markers.get(next) == Some(&(row as u32)) {
            next += 1;
            symbols[next - 1]
        } else {
            Symbol::Base(Base::from_code(code & 3))
        }
    })
}

/// A k-step FM-index over a sentinel-terminated text.
///
/// ```
/// use exma_genome::{Genome, GenomeProfile};
/// use exma_index::{FmIndex, KStepFmIndex};
///
/// let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
/// let fm = FmIndex::from_genome(&genome);
/// let k4 = KStepFmIndex::from_genome(&genome, 4);
/// let pattern = genome.seq().slice(100, 22); // 22 % 4 == 2: exercises the tail
/// assert_eq!(k4.count(&pattern), fm.count(&pattern));
/// assert_eq!(k4.locate(&pattern), fm.locate(&pattern));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KStepFmIndex {
    k: usize,
    /// The 1-step tables: tail refinements, `locate` row resolution, and
    /// the k = 1 degenerate case.
    base: FmIndex,
    /// `kstarts[r]` = number of suffixes lexicographically smaller than the
    /// k-mer of rank `r` — the C-array over the expanded alphabet, counted
    /// from `text` by the K-mer table's routine at K = k.
    kstarts: Vec<u32>,
    /// Rank over the k-BWT (the k symbols cyclically preceding each suffix).
    kocc: KmerOccTable,
    /// Recipe marker: the indexed text is the bidirectional doubled text.
    /// Not recoverable from the tables (they see an ordinary text), so it
    /// is stored and carried through snapshots.
    bidirectional: bool,
    /// The indexed text, two bits a base: what
    /// [`KStepFmIndex::text_ends_with`] compares against.
    text: PackedText,
    /// The K-mer intervals, derived from `text`: what
    /// [`KStepFmIndex::lookup_interval`] reads.
    pub(crate) lookup: KmerLookup,
}

impl KStepFmIndex {
    /// Builds the index from a sentinel-terminated symbol text.
    ///
    /// # Errors
    ///
    /// Propagates [`IndexError`] from the rank tables: a text too long
    /// for `u32` counters.
    ///
    /// # Panics
    ///
    /// Panics if `text` is not sentinel-terminated (see
    /// [`exma_genome::suffix_array`]) or `config.k` is out of
    /// `1..=`[`MAX_STEP`].
    pub fn from_text_with_config(
        text: &[Symbol],
        config: KStepBuildConfig,
    ) -> Result<KStepFmIndex, IndexError> {
        let k = config.k;
        assert!(
            (1..=MAX_STEP).contains(&k),
            "k must be in 1..={MAX_STEP}, got {k}"
        );
        let n = text.len();
        // One pass over the suffix array gives the k-BWT codes and the
        // marker rows; the suffix array is sampled and freed before either
        // occurrence table is allocated, the 1-step table reads its
        // symbols off the codes, and the sampled rows' bitset is freed
        // once that table has marked them.
        let sa = suffix_array(text);
        let (codes, markers, marker_symbols) = k_bwt(text, &sa, k);
        let (marks, samples) = sampled_sa::sample(&sa);
        drop(sa);
        let occ = OccTable::new(bwt_of_codes(&codes, &markers, &marker_symbols))?;
        let base = FmIndex::from_parts(count_table(text), occ, &marks, samples);
        drop(marks);
        let kocc = KmerOccTable::new(codes, markers, k)?;

        let text = PackedText::from_symbols(text);
        Ok(KStepFmIndex {
            k,
            base,
            kstarts: kmer_buckets(&text, k).0,
            kocc,
            bidirectional: config.bidirectional,
            lookup: KmerLookup::new(&text, lookup_k(n)),
            text,
        })
    }

    /// Builds the forward-only index of step width `k`.
    ///
    /// # Panics
    ///
    /// As [`KStepFmIndex::from_text_with_config`], and if the text is too
    /// long for `u32` counters.
    pub fn from_text(text: &[Symbol], k: usize) -> KStepFmIndex {
        KStepFmIndex::from_text_with_config(text, KStepBuildConfig::for_k(k))
            .expect("the text fits u32 counters")
    }

    /// Builds the index for a genome's reference sequence.
    pub fn from_genome(genome: &Genome, k: usize) -> KStepFmIndex {
        KStepFmIndex::from_text(&genome.text_with_sentinel(), k)
    }

    /// Reassembles the index from snapshot-verified parts; the loader
    /// has already proven the components mutually consistent.
    pub(crate) fn from_parts(
        k: usize,
        base: FmIndex,
        kstarts: Vec<u32>,
        kocc: KmerOccTable,
        bidirectional: bool,
        text: PackedText,
        lookup: KmerLookup,
    ) -> KStepFmIndex {
        KStepFmIndex {
            k,
            base,
            kstarts,
            kocc,
            bidirectional,
            text,
            lookup,
        }
    }

    /// The packed text, for snapshot serialization.
    pub(crate) fn packed_text(&self) -> &PackedText {
        &self.text
    }

    /// The build this index was constructed with: its `k` and the stored
    /// bidirectional marker. This is the compatibility value snapshots
    /// embed: two indexes built from the same text agree byte-for-byte
    /// exactly when their configs are equal.
    pub fn build_config(&self) -> KStepBuildConfig {
        KStepBuildConfig {
            k: self.k,
            bidirectional: self.bidirectional,
        }
    }

    /// Symbols consumed per LF refinement.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `true` iff this index was built over the bidirectional doubled
    /// text (see [`crate::bidir`]).
    pub fn is_bidirectional(&self) -> bool {
        self.bidirectional
    }

    /// Length of the indexed text, including the sentinel.
    pub fn text_len(&self) -> usize {
        self.base.text_len()
    }

    /// The embedded 1-step index (tail refinements and row resolution).
    pub fn base_index(&self) -> &FmIndex {
        &self.base
    }

    /// The k-mer occurrence table.
    pub fn kmer_occ(&self) -> &KmerOccTable {
        &self.kocc
    }

    /// First suffix-array row of `kmer`'s bucket — the expanded-alphabet
    /// C-array, `C_k(kmer)`.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.k() != self.k()`.
    pub fn kstart(&self, kmer: Kmer) -> usize {
        assert_eq!(kmer.k(), self.k, "kmer width mismatch");
        self.kstarts[kmer.rank() as usize] as usize
    }

    /// One k-step LF refinement: narrows `range` (rows whose suffixes start
    /// with some matched suffix `S`) to the rows starting with `kmer · S`.
    /// Returns `0..0` when no occurrences remain.
    ///
    /// # Panics
    ///
    /// Panics if `kmer.k() != self.k()` or `range` extends past the text.
    #[inline]
    pub fn kstep(&self, kmer: Kmer, range: Range<usize>) -> Range<usize> {
        assert_eq!(kmer.k(), self.k, "kmer width mismatch");
        let r = kmer.rank() as u16;
        let start = self.kstarts[r as usize] as usize;
        let (rank_lo, rank_hi) = self.kocc.rank_pair(r, range.start, range.end);
        let lo = start + rank_lo as usize;
        let hi = start + rank_hi as usize;
        if lo >= hi {
            0..0
        } else {
            lo..hi
        }
    }

    /// The suffix-array interval of rows whose suffixes start with
    /// `pattern`: `⌊m/k⌋` k-step refinements right to left, then the
    /// leading `m mod k` symbols one at a time on the 1-step tables.
    ///
    /// The empty pattern matches every row. An empty range means no
    /// occurrences.
    pub fn backward_search(&self, pattern: &[Base]) -> Range<usize> {
        let mut range = 0..self.text_len();
        let tail = pattern.len() % self.k;
        let mut i = pattern.len();
        while i >= tail + self.k {
            i -= self.k;
            range = self.kstep(Kmer::from_bases(&pattern[i..i + self.k]), range);
            if range.is_empty() {
                return 0..0;
            }
        }
        for &b in pattern[..tail].iter().rev() {
            range = self.base.step(b, range);
            if range.is_empty() {
                return 0..0;
            }
        }
        range
    }

    /// K, the width of the K-mer lookup table: the largest K with
    /// `16 · 4^K ≤ n` for a text of `n` symbols, so the table's `4^K + 1`
    /// `u32` counters cost at most a quarter of a byte a symbol; 0 — one
    /// bucket, every row — below 64 symbols.
    pub fn lookup_k(&self) -> usize {
        self.lookup.k()
    }

    /// The suffix-array interval of the rows whose suffixes start with
    /// `kmer`, a pattern's last [`KStepFmIndex::lookup_k`] bases, read
    /// from the K-mer table: two adjacent counters, usually one line.
    /// Equal to [`KStepFmIndex::backward_search`] of `kmer`, `0..0` when
    /// it does not occur.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is not `lookup_k()` bases long.
    #[inline]
    pub fn lookup_interval(&self, kmer: &[Base]) -> Range<usize> {
        self.lookup.interval(kmer)
    }

    /// Hints the CPU to pull the line(s) a
    /// [`KStepFmIndex::lookup_interval`] of `kmer` reads toward L1. Never
    /// faults; a no-op off x86-64.
    ///
    /// # Panics
    ///
    /// Panics if `kmer` is not `lookup_k()` bases long.
    #[inline]
    pub fn prefetch_lookup(&self, kmer: &[Base]) {
        self.lookup.prefetch(kmer);
    }

    /// Number of occurrences of `pattern` in the reference.
    pub fn count(&self, pattern: &[Base]) -> usize {
        self.backward_search(pattern).len()
    }

    /// All starting positions of `pattern` in the reference, sorted
    /// ascending.
    pub fn locate(&self, pattern: &[Base]) -> Vec<u32> {
        let mut positions = Vec::new();
        self.locate_into(pattern, &mut positions);
        positions
    }

    /// Allocation-reusing `locate`: clears `out` and fills it with the
    /// sorted starting positions of `pattern`.
    pub fn locate_into(&self, pattern: &[Base], out: &mut Vec<u32>) {
        self.base
            .resolve_range_into(self.backward_search(pattern), out);
    }

    /// `true` iff the indexed text holds `prefix` right before position
    /// `end` (`text[end - prefix.len()..end] == prefix`), compared 32
    /// bases a step against the index's own 2-bit copy of the text.
    /// `false` when that range would start before the text or reach the
    /// sentinel; the empty prefix ends everywhere.
    ///
    /// This is how a search is finished by looking instead of stepping:
    /// if the rows of an interval are the suffixes that start with a
    /// pattern's last `m - j` symbols and row `r` sits at text position
    /// `p`, the whole pattern occurs at `p - j` exactly when
    /// `text_ends_with(p, &pattern[..j])`.
    #[inline]
    pub fn text_ends_with(&self, end: usize, prefix: &[Base]) -> bool {
        self.text.ends_with(end, prefix)
    }

    /// Hints the CPU to pull the line of the text copy that holds
    /// position `pos` toward L1, ahead of a
    /// [`KStepFmIndex::text_ends_with`] there. Never faults; a no-op off
    /// x86-64 and past the text.
    #[inline]
    pub fn prefetch_text(&self, pos: usize) {
        self.text.prefetch(pos);
    }

    /// Heap bytes of all index components (1-step tables included),
    /// attributed per component; the expanded-alphabet C-array, the 2-bit
    /// text and the K-mer table count under `other`.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        let mut heap = self.base.heap_breakdown().add(&self.kocc.heap_breakdown());
        heap.other +=
            self.kstarts.capacity() * 4 + self.text.heap_bytes() + self.lookup.heap_bytes();
        heap
    }

    /// Heap bytes of all index components (1-step tables included).
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    fn fig3_kstep(k: usize) -> KStepFmIndex {
        // The paper's running example: G = CATAGA$.
        KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), k)
    }

    #[test]
    fn fig3_counts_for_every_k() {
        for k in 1..=4 {
            let fm = fig3_kstep(k);
            for (pat, expect) in [
                ("A", 3),
                ("TA", 1),
                ("AGA", 1),
                ("ATAG", 1),
                ("CATAGA", 1),
                ("GG", 0),
                ("TT", 0),
                ("CATAGAC", 0),
            ] {
                assert_eq!(
                    fm.count(&parse_bases(pat).unwrap()),
                    expect,
                    "k={k}, pattern {pat}"
                );
            }
        }
    }

    #[test]
    fn fig3_locate_for_every_k() {
        for k in 1..=4 {
            let fm = fig3_kstep(k);
            assert_eq!(
                fm.locate(&parse_bases("A").unwrap()),
                vec![1, 3, 5],
                "k={k}"
            );
            assert_eq!(fm.locate(&parse_bases("AGA").unwrap()), vec![3], "k={k}");
            assert_eq!(
                fm.locate(&parse_bases("GG").unwrap()),
                Vec::<u32>::new(),
                "k={k}"
            );
        }
    }

    #[test]
    fn empty_pattern_matches_every_row() {
        let fm = fig3_kstep(2);
        assert_eq!(fm.backward_search(&[]), 0..7);
        assert_eq!(fm.count(&[]), 7);
    }

    #[test]
    fn kstart_agrees_with_one_step_search() {
        // C_k of a k-mer is the number of suffixes that sort below it —
        // the lower bound of its 1-step interval whenever the k-mer occurs
        // at all — at every width, on texts shorter than k and longer.
        let mut rng = exma_genome::SeededRng::new(0xC4);
        let mut texts = vec![text_from_str("CCATAGACATTAGACCATAGGACATAGACC").unwrap()];
        for len in [0, 1, 2, 5, 40, 101, 1001] {
            let bases: Vec<Base> = (0..len).map(|_| rng.base()).collect();
            texts.push(exma_genome::genome::text_from_bases(&bases));
        }
        for text in &texts {
            let n = text.len();
            let sa = suffix_array(text);
            for k in 1..=MAX_STEP {
                let fm = KStepFmIndex::from_text(text, k);
                let mut kmer = Some(Kmer::first(k));
                while let Some(km) = kmer {
                    let symbols = km.to_bases().into_iter().map(Symbol::Base);
                    let symbols: Vec<Symbol> = symbols.collect();
                    let below = sa.partition_point(|&p| text[p as usize..] < symbols[..]);
                    assert_eq!(fm.kstart(km), below, "n={n}, k={k}, kmer {km}");
                    let range = fm.base_index().backward_search(&km.to_bases());
                    if !range.is_empty() {
                        assert_eq!(fm.kstart(km), range.start, "n={n}, k={k}, kmer {km}");
                    }
                    kmer = km.successor();
                }
            }
        }
    }

    #[test]
    fn tail_lengths_cover_every_residue() {
        let text = text_from_str("CCATAGACATTAGACCATAGGACATAGACC").unwrap();
        let one = FmIndex::from_text(&text);
        let k4 = KStepFmIndex::from_text(&text, 4);
        // Prefixes of a known substring: lengths 1..=8 hit every residue
        // class mod 4, including the all-tail (< k) lengths 1..=3.
        let full = parse_bases("CATAGACC").unwrap();
        for len in 1..=full.len() {
            let pat = &full[full.len() - len..];
            assert_eq!(k4.count(pat), one.count(pat), "len {len}");
            assert_eq!(k4.locate(pat), one.locate(pat), "len {len}");
        }
    }

    #[test]
    fn text_shorter_than_k_still_answers() {
        // n = 3 (two bases + sentinel) with k = 4: every k-window crosses
        // the sentinel, so k-steps find nothing and tails do all the work.
        let text = text_from_str("AC").unwrap();
        let fm = KStepFmIndex::from_text(&text, 4);
        assert_eq!(fm.count(&parse_bases("A").unwrap()), 1);
        assert_eq!(fm.count(&parse_bases("AC").unwrap()), 1);
        assert_eq!(fm.count(&parse_bases("CA").unwrap()), 0);
        assert_eq!(fm.count(&parse_bases("ACAC").unwrap()), 0);
        assert_eq!(fm.locate(&parse_bases("AC").unwrap()), vec![0]);
        assert_eq!(fm.count(&[]), 3);
    }

    #[test]
    #[should_panic(expected = "kmer width mismatch")]
    fn kstep_rejects_wrong_width() {
        let fm = fig3_kstep(2);
        let _ = fm.kstep("AGA".parse().unwrap(), 0..7);
    }
}
