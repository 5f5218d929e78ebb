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
//! Nor the 1-step C-array, the occurrence table's totals summed up. A
//! cold build and a snapshot load assemble an index the same way, in
//! `KStepFmIndex::finish`, which checks its parts against each other.
//! The layout — every sampling rate — is the constants of
//! [`crate::layout`]; what a build chooses is `k` and the strandedness
//! ([`KStepBuildConfig`]).

use std::ops::Range;

use exma_genome::genome::Genome;
use exma_genome::{suffix_array, Base, Kmer, Symbol};

use crate::fm::FmIndex;
use crate::interleave::{prefetch_element, BlockStore};
use crate::kocc::KmerOccTable;
use crate::layout::{HeapBreakdown, IndexError, K_OCC_SAMPLE_RATE, SA_SAMPLE_RATE};
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

/// What one pass over the suffix array leaves of it.
struct ConsumedSa {
    /// The k-BWT, one byte a row — row `r`'s code in byte `r % 4` of word
    /// `r / 4` — in the suffix array's own buffer, shrunk to `⌈n/4⌉`
    /// words.
    codes: Vec<u32>,
    /// The marker rows, ascending.
    markers: Vec<u32>,
    /// The sampled rows as a bitset (row `i` at bit `i % 64` of word
    /// `i / 64`) — the form a snapshot stores them in — and their values
    /// in row order.
    marks: Vec<u64>,
    samples: Vec<u32>,
}

/// Consumes the suffix array `sa` of `text` in one forward pass: each
/// row's k-BWT code — the k bases cyclically in front of its suffix,
/// packed, the last one in the low two bits, so a code's low bits are the
/// row's BWT symbol — is written over the suffix array's buffer, into a
/// word the pass has already read, and the rows whose value is
/// `0 (mod SA_SAMPLE_RATE)` are sampled on the way. The window crosses
/// the sentinel exactly at the rows of the text positions below k, the
/// *marker rows*: they take a placeholder `0`. The buffer is then cut to
/// the codes and shrunk in place: beside the samples and their bitset,
/// the suffix array is the only `O(n)` buffer the pass holds.
fn consume_suffix_array(text: &[Symbol], mut sa: Vec<u32>, k: usize) -> ConsumedSa {
    /// Rows between a window's prefetch hint and its read.
    const AHEAD: usize = 32;
    let n = sa.len();
    let mut markers = Vec::with_capacity(k.min(n));
    let mut marks = vec![0u64; n.div_ceil(64)];
    // A permutation of `0..n` holds `⌈n / rate⌉` multiples of the rate.
    let mut samples = Vec::with_capacity(n.div_ceil(SA_SAMPLE_RATE));
    let mut word = [0u8; 4];
    for row in 0..n {
        // A row's window is a random read of the text, a cache miss at
        // reference scale: hint the one `AHEAD` rows on, so that many
        // are in flight at once.
        if let Some(&ahead) = sa.get(row + AHEAD) {
            prefetch_element(text, (ahead as usize).wrapping_sub(1));
        }
        let p = sa[row] as usize;
        if p % SA_SAMPLE_RATE == 0 {
            marks[row / 64] |= 1 << (row % 64);
            samples.push(p as u32);
        }
        word[row % 4] = if p < k {
            markers.push(row as u32);
            0
        } else {
            // The window `T[p - k..p]` ends before the sentinel, the
            // text's last symbol: k bases.
            text[p - k..p]
                .iter()
                .fold(0, |code, s| code << 2 | (s.code() - 1))
        };
        // Word `row / 4` lies at or before `row`: already read.
        if row % 4 == 3 || row == n - 1 {
            sa[row / 4] = u32::from_ne_bytes(std::mem::take(&mut word));
        }
    }
    sa.truncate(n.div_ceil(4));
    sa.shrink_to_fit();
    ConsumedSa {
        codes: sa,
        markers,
        marks,
        samples,
    }
}

/// Writes the codes [`consume_suffix_array`] left, `n` of them, into the
/// k-step table's `lanes`, 4 KiB — whole half-blocks, as
/// [`BlockStore::set_lanes`] takes them — at a time.
fn fill_lanes(lanes: &mut BlockStore, codes: &[u32]) {
    const PIECE: usize = 4096;
    const { assert!(PIECE % (K_OCC_SAMPLE_RATE / 2) == 0) };
    let n = lanes.len();
    let mut bytes = [0u8; PIECE];
    for (i, words) in codes.chunks(bytes.len() / 4).enumerate() {
        let first = i * bytes.len();
        for (slot, word) in bytes.chunks_exact_mut(4).zip(words) {
            slot.copy_from_slice(&word.to_ne_bytes());
        }
        let count = bytes.len().min(n - first);
        lanes.set_lanes(first, &bytes[..count]);
    }
}

/// The checks of [`KStepFmIndex::finish`] up to the k-mer totals, then
/// the two rank tables they vouch for: the 1-step index over the BWT the
/// code `lanes` hold, and the k-step table whose lanes they are.
fn rank_tables(
    lanes: BlockStore,
    markers: Vec<u32>,
    marks: Vec<u64>,
    samples: Vec<u32>,
    text: &PackedText,
) -> Result<(FmIndex, KmerOccTable), &'static str> {
    let n = text.len();
    let placeholders = markers
        .iter()
        .all(|&row| (row as usize) < n && lanes.lane(row as usize) == 0);
    if !placeholders || markers.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err("marker rows");
    }
    // Marker row `j` is the row of the `j`-th smallest suffix `T[p..]`,
    // `p < k`; its BWT symbol is the one in front of `p`.
    let mut positions: Vec<usize> = (0..markers.len()).collect();
    positions.sort_by(|&a, &b| text.cmp_suffixes(a, b));
    let symbols: Vec<Symbol> = positions
        .iter()
        .map(|&p| text.symbol((p + n - 1) % n))
        .collect();

    // Text position 0 is always 0 (mod rate), so an index always marks at
    // least one row; zero marks would make locate's LF walk endless.
    if samples.is_empty() {
        return Err("sample count");
    }
    if n % 64 != 0 && marks.last().is_some_and(|&last| last >> (n % 64) != 0) {
        return Err("mark padding bits");
    }
    let marked: u64 = marks.iter().map(|w| u64::from(w.count_ones())).sum();
    if marked != samples.len() as u64 {
        return Err("sample count");
    }
    if samples
        .iter()
        .any(|&v| v as usize >= n || v as usize % SA_SAMPLE_RATE != 0)
    {
        return Err("suffix-array sample");
    }

    // The text against the BWT the codes hold: the same base counts — the
    // occurrence table's totals — and at a sampled row the base in front
    // of the row's sampled position.
    let occ = OccTable::from_codes(&lanes, &markers, &symbols);
    if occ.rank_all(n)[1..] != text.base_counts() {
        return Err("text base counts");
    }
    for (i, (row, &position)) in sampled_sa::ones(&marks).zip(&samples).enumerate() {
        // The samples are in row order, their positions anywhere.
        if let Some(&ahead) = samples.get(i + 16) {
            text.prefetch(ahead as usize);
        }
        if occ.symbol(row) != text.symbol((position as usize + n - 1) % n) {
            return Err("text against the sampled rows");
        }
    }
    let base = FmIndex::from_parts(occ, &marks, samples);
    // The sampled row of position 0 pinned its marker row (the one `$`);
    // an LF step from the row of `T[p..]` lands on the row of `T[p - 1..]`.
    let row_of = |p: usize| markers[positions.iter().position(|&q| q == p).expect("p < k")];
    if (1..markers.len()).any(|p| base.lf(row_of(p) as usize) != row_of(p - 1) as usize) {
        return Err("marker rows against the suffix order");
    }
    Ok((base, KmerOccTable::from_lanes(lanes, markers)))
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
    /// [`IndexError::IndexTooLarge`] if the text is too long for `u32`
    /// counters, before anything is built.
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
        IndexError::check_rows(text.len())?;
        // The suffix array is the build's one large buffer: one pass turns
        // it into the k-BWT codes, a quarter of its size, and the samples.
        // The k-step table's lanes are filled from those codes, which are
        // freed before the text is packed and the finish reads the 1-step
        // table off the lanes.
        let ConsumedSa {
            codes,
            markers,
            marks,
            samples,
        } = consume_suffix_array(text, suffix_array(text), k);
        let mut lanes = KmerOccTable::lanes(text.len(), k)?;
        fill_lanes(&mut lanes, &codes);
        drop(codes);
        let text = PackedText::from_symbols(text);
        let index = KStepFmIndex::finish(config, lanes, markers, marks, samples, text);
        Ok(index.expect("the parts of a build agree"))
    }

    /// The one way an index is assembled, from exactly what a snapshot
    /// stores: the k-step table's filled code `lanes`, the sorted
    /// `markers`, the sampled rows as a bitset (`marks`) with their
    /// `samples` in row order, and the packed `text` — by a cold build
    /// after its pass over the suffix array, by a load after its framing,
    /// checksums and code range. The parts are checked against each
    /// other in this order, each failure naming its field: the marker
    /// rows, the samples, the text's base counts against the BWT's, the
    /// symbol of every sampled row against the base in front of its
    /// position, the marker rows' suffix order by LF, and each k-mer's
    /// total against its count in the text. The K-mer table and the
    /// k-step C-array are counted from the text on a second thread
    /// meanwhile.
    pub(crate) fn finish(
        config: KStepBuildConfig,
        lanes: BlockStore,
        markers: Vec<u32>,
        marks: Vec<u64>,
        samples: Vec<u32>,
        text: PackedText,
    ) -> Result<KStepFmIndex, &'static str> {
        let (k, n) = (config.k, text.len());
        let (tables, counted) = std::thread::scope(|scope| {
            let counted =
                scope.spawn(|| (KmerLookup::new(&text, lookup_k(n)), kmer_buckets(&text, k)));
            (
                rank_tables(lanes, markers, marks, samples, &text),
                counted.join(),
            )
        });
        let (lookup, (kstarts, sizes)) =
            counted.expect("counting the K-mers of a text cannot panic");
        let (base, kocc) = tables?;
        // Each code occurs as often as the text holds its k-mer: every k-step
        // interval lies inside `0..n`, and a code rewritten to another k-mer
        // with the same last base (the BWT as it was) is refused.
        if (0..kstarts.len()).any(|r| kocc.rank(r as u16, n) != sizes[r]) {
            return Err("k-mer totals");
        }
        Ok(KStepFmIndex {
            k,
            base,
            kstarts,
            kocc,
            bidirectional: config.bidirectional,
            text,
            lookup,
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

    /// The embedded 1-step index, by value: what
    /// [`FmIndex::from_text`] keeps of a k = 1 build.
    pub(crate) fn into_base(self) -> FmIndex {
        self.base
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
