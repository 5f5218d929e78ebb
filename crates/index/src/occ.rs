//! The occurrence (rank) table over the BWT.
//!
//! Backward search needs `Occ(s, i)` — the number of occurrences of symbol
//! `s` in `BWT[0..i]` — twice per pattern symbol, and every step of a
//! locate walk needs it once. Storing all `5n` prefix counts would dwarf
//! the reference itself, so production FM-indexes (and the paper's
//! baseline, §II-B) checkpoint the counts every `sample_rate` positions
//! and reconstruct the remainder from the BWT symbols in between. The
//! sampling rate is the paper's central memory/latency trade-off: EXMA's
//! whole contribution is removing the DRAM-unfriendly scan this table
//! forces on a CPU.
//!
//! Here the scan is two popcounts. The table is a run of self-contained
//! 64-byte lines, one per [`OCC_SAMPLE_RATE`] (128) rows, the dense
//! occurrence lines of Bowtie (Langmead et al., 2009): each holds the
//! rows' 2-bit bases as a low and a high bit plane, a plane of SA marks
//! (the rows the sampled suffix array keeps), and the absolute `u32`
//! counts of A, C, G and marked rows before the line. T's count is the
//! line's first row less the other three. A rank of base `b` at a row
//! selects the line's rows whose two bits spell `b` with two `xor`s and
//! an `and`, masks them below the row and counts them; nothing else is
//! read, and nothing branches on the symbol. The text's one `$` is
//! stored as an A and corrected by its row number, which the table
//! keeps.
//!
//! So the one line an LF step reads ([`OccTable::lf_data`]) also decides
//! whether the walk ends there and, through `OccTable::mark_rank`, in
//! which sample slot; the marks live nowhere else.

use exma_genome::{Base, Symbol, SYMBOL_ALPHABET};

use crate::interleave::{AlignedWords, BlockStore, Lane, WORDS_PER_LINE};
use crate::layout::{HeapBreakdown, OCC_SAMPLE_RATE};

/// One line of the table: [`OCC_SAMPLE_RATE`] rows, row `j` of the line
/// at bit `j` of each plane.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Line {
    /// Rows before the line that hold A (the `$` row among them, as
    /// stored), C and G, and the marked rows before the line.
    counts: [u32; 4],
    /// Bit 0 of each row's base code.
    low: u128,
    /// Bit 1 of each row's base code.
    high: u128,
    /// Whether the row is SA-sampled.
    marks: u128,
}

// SAFETY: four `u32`s and three `u128`s at offsets 16, 32 and 48, in
// `repr(C)` order — no padding, every bit pattern valid — in exactly one
// 64-byte line (asserted below), aligned to one.
unsafe impl Lane for Line {}

const _: () = assert!(std::mem::size_of::<Line>() == 64);

/// The rows of a line below `offset`, as a plane mask.
#[inline]
fn below(offset: usize) -> u128 {
    (1u128 << offset) - 1
}

impl Line {
    /// The base code (0–3) stored at `offset`.
    #[inline]
    fn code(&self, offset: usize) -> u8 {
        (self.low >> offset) as u8 & 1 | ((self.high >> offset) as u8 & 1) << 1
    }

    /// Rows before `offset` in the line starting at row `first` — and in
    /// every line before it — that store base code `code`.
    #[inline]
    fn rank(&self, first: usize, code: u8, offset: usize) -> u32 {
        let [a, c, g, _] = self.counts;
        let before = [a, c, g, first as u32 - a - c - g][usize::from(code)];
        // A plane flipped where `code` has a zero bit: all-ones there.
        let flip = |bit: u8| u128::from(bit).wrapping_sub(1);
        let hits = (self.low ^ flip(code & 1)) & (self.high ^ flip(code >> 1));
        before + (hits & below(offset)).count_ones()
    }
}

/// Rank structure over a BWT, one self-contained line per
/// [`OCC_SAMPLE_RATE`] rows.
///
/// Line `l` covers BWT rows `128 l .. 128 l + 128` and lays out, in bytes:
///
/// ```text
/// [ u32 A | u32 C | u32 G | u32 marked | 16 low bits | 16 high bits | 16 marks ]
/// ```
///
/// one 64-byte cache line. There are `len / 128 + 1` lines, so `rank(s,
/// len)` reads a line like any other rank; the rows past the BWT in the
/// last line are zero and never counted. The workspace addresses texts
/// through `u32` suffix-array positions, so every count fits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccTable {
    lines: AlignedWords,
    len: usize,
    /// The row whose BWT symbol is `$` (stored as an A), or `len` if no
    /// row holds one.
    sentinel: usize,
}

impl OccTable {
    /// Builds the table from the BWT's symbols in row order, with no row
    /// marked: the tests' reference for [`OccTable::from_codes`].
    #[cfg(test)]
    pub(crate) fn new(bwt: impl ExactSizeIterator<Item = Symbol>) -> OccTable {
        let mut table = OccTable::zeroed(bwt.len());
        for (row, symbol) in bwt.enumerate() {
            table.set_symbol(row, symbol);
        }
        table.counted()
    }

    /// Builds the table over the BWT the k-step table's code `lanes` hold
    /// (see [`crate::kocc`]), with no row marked. The bases are read off
    /// the lanes eight rows at a time — a row's base is in its code's low
    /// two bits — but the marker rows' symbols are `symbols`, one a marker
    /// row in order. No BWT is held beside the two tables.
    pub(crate) fn from_codes(lanes: &BlockStore, markers: &[u32], symbols: &[Symbol]) -> OccTable {
        let mut table = OccTable::zeroed(lanes.len());
        let mut row = 0;
        let Ok(()) = lanes.try_for_each_run(|run| {
            table.set_codes(row, run);
            row += run.len();
            Ok::<_, std::convert::Infallible>(())
        });
        for (&row, &symbol) in markers.iter().zip(symbols) {
            table.set_symbol(row as usize, symbol);
        }
        table.counted()
    }

    /// A table of `len` rows, every one an unmarked A, no counts set.
    fn zeroed(len: usize) -> OccTable {
        let lines = len / OCC_SAMPLE_RATE + 1;
        OccTable {
            lines: AlignedWords::zeroed(lines * WORDS_PER_LINE),
            len,
            sentinel: len,
        }
    }

    /// Stores the base codes in the low two bits of `codes` at the rows
    /// from `first` on, a multiple of eight, eight rows at a time.
    fn set_codes(&mut self, first: usize, codes: &[u8]) {
        assert!(first % 8 == 0, "codes set from row {first}");
        // Bit 0 of each of eight bytes, gathered into one byte by a
        // multiply whose eight partial products land in distinct bits.
        let gather = |x: u64| (x & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        let mut eights = codes.chunks_exact(8);
        let mut tail = [0; 8];
        tail[..eights.remainder().len()].copy_from_slice(eights.remainder());
        let words = (&mut eights).map(|eight| eight.try_into().expect("eight codes"));
        let lines = self.lines_mut();
        for (row, x) in (first..)
            .step_by(8)
            .zip(words.chain([tail]).map(u64::from_le_bytes))
        {
            let (line, offset) = (row / OCC_SAMPLE_RATE, row % OCC_SAMPLE_RATE);
            lines[line].low |= u128::from(gather(x)) << offset;
            lines[line].high |= u128::from(gather(x >> 1)) << offset;
        }
    }

    /// Stores `symbol` at `row`, which holds an A: a base's two bits, or
    /// where the `$` is.
    fn set_symbol(&mut self, row: usize, symbol: Symbol) {
        let Some(base) = symbol.base() else {
            self.sentinel = row;
            return;
        };
        let line = &mut self.lines_mut()[row / OCC_SAMPLE_RATE];
        let offset = row % OCC_SAMPLE_RATE;
        line.low |= u128::from(base.code() & 1) << offset;
        line.high |= u128::from(base.code() >> 1) << offset;
    }

    /// The table with every line's A, C and G counts set, in one pass.
    fn counted(mut self) -> OccTable {
        let lines = self.lines_mut();
        for l in 1..lines.len() {
            let Line {
                counts: [a, c, g, _],
                low,
                high,
                ..
            } = lines[l - 1];
            lines[l].counts[..3].copy_from_slice(&[
                a + (!(low | high)).count_ones(),
                c + (low & !high).count_ones(),
                g + (!low & high).count_ones(),
            ]);
        }
        self
    }

    #[inline]
    fn lines(&self) -> &[Line] {
        self.lines.lanes()
    }

    fn lines_mut(&mut self) -> &mut [Line] {
        self.lines.lanes_mut()
    }

    /// The line holding row `i` and the row's offset into it.
    #[inline]
    fn line(&self, i: usize) -> (&Line, usize) {
        (&self.lines()[i / OCC_SAMPLE_RATE], i % OCC_SAMPLE_RATE)
    }

    /// Length of the underlying BWT.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the BWT is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the rows `marks` sets (row `i` at bit `i % 64` of word
    /// `i / 64`) as SA-sampled: every line's mark plane and count, in one
    /// pass over the lines. Ranks are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `marks` does not hold one bit a row.
    pub(crate) fn mark_rows(&mut self, marks: &[u64]) {
        assert_eq!(marks.len(), self.len.div_ceil(64), "not one mark bit a row");
        let word = |w: usize| marks.get(w).copied().map_or(0, u128::from);
        let mut marked = 0;
        for (l, line) in self.lines_mut().iter_mut().enumerate() {
            line.marks = word(2 * l) | word(2 * l + 1) << 64;
            line.counts[3] = marked;
            marked += line.marks.count_ones();
        }
    }

    /// The marked rows in `0..i`: the line's mark count plus its marks
    /// below the row.
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    #[inline]
    pub(crate) fn mark_rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "mark rank position {i} out of range");
        let (line, offset) = self.line(i);
        (line.counts[3] + (line.marks & below(offset)).count_ones()) as usize
    }

    /// The marks as a bitset, one bit a row (row `i` at bit `i % 64` of
    /// word `i / 64`), read off the mark planes: what a snapshot stores.
    pub(crate) fn mark_words(&self) -> impl Iterator<Item = u64> + '_ {
        let planes = self.lines().iter().map(|line| line.marks);
        planes
            .flat_map(|marks| [marks as u64, (marks >> 64) as u64])
            .take(self.len.div_ceil(64))
    }

    /// The BWT symbol at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn symbol(&self, i: usize) -> Symbol {
        self.lf_data(i).0
    }

    /// `Occ(s, i)`: occurrences of `s` in `BWT[0..i]` (exclusive of `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    #[inline]
    pub fn rank(&self, s: Symbol, i: usize) -> u64 {
        assert!(i <= self.len, "rank position {i} out of range");
        let dollar = self.sentinel < i;
        let Some(base) = s.base() else {
            return u64::from(dollar);
        };
        let (line, offset) = self.line(i);
        let rank = line.rank(i - offset, base.code(), offset);
        u64::from(rank - u32::from(base == Base::A && dollar))
    }

    /// The BWT symbol at `i`, `Occ(symbol, i)`, and whether row `i` is
    /// SA-sampled — everything one step of a locate walk asks, from the
    /// one line that holds the row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn lf_data(&self, i: usize) -> (Symbol, u64, bool) {
        assert!(i < self.len, "LF position {i} out of range");
        let (line, offset) = self.line(i);
        let marked = line.marks >> offset & 1 != 0;
        if i == self.sentinel {
            return (Symbol::Sentinel, 0, marked);
        }
        let code = line.code(offset);
        let rank = line.rank(i - offset, code, offset) - u32::from(code == 0 && self.sentinel < i);
        (Symbol::Base(Base::from_code(code)), u64::from(rank), marked)
    }

    /// Occurrences of every symbol in `BWT[0..i]`.
    pub fn rank_all(&self, i: usize) -> [u64; 5] {
        SYMBOL_ALPHABET.map(|s| self.rank(s, i))
    }

    /// Hints the CPU to pull the line a later `rank(s, i)` will read
    /// toward L1. Never faults; a no-op off x86-64 and past the table.
    #[inline]
    pub fn prefetch_rank(&self, _s: Symbol, i: usize) {
        self.lines.prefetch(i / OCC_SAMPLE_RATE * WORDS_PER_LINE);
    }

    /// Heap bytes attributed under [`HeapBreakdown::one_step_occ`]: the
    /// lines.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        HeapBreakdown {
            one_step_occ: self.lines.heap_bytes(),
            ..HeapBreakdown::default()
        }
    }

    /// Heap bytes of the lines.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::genome::text_from_bases;
    use exma_genome::{bwt_from_sa, suffix_array, SeededRng};

    /// Random symbol sequences with the one `$` at line offsets 0, 1, 63,
    /// 64 and 127 and at the last row, over lengths on both sides of one
    /// and two lines and of a plane's halves; then the BWT of a random
    /// text several lines long.
    fn sequences() -> Vec<Vec<Symbol>> {
        let mut rng = SeededRng::new(0x0CC);
        let mut out = Vec::new();
        for len in [1, 63, 64, 65, 127, 128, 129, 3 * 128 + 5] {
            for sentinel in [0, 1, 63, 64, 127, len - 1] {
                if sentinel < len {
                    let mut symbols: Vec<Symbol> = (0..len).map(|_| rng.base().into()).collect();
                    symbols[sentinel] = Symbol::Sentinel;
                    out.push(symbols);
                }
            }
        }
        let bases: Vec<_> = (0..2000).map(|_| rng.base()).collect();
        let text = text_from_bases(&bases);
        out.push(bwt_from_sa(&text, &suffix_array(&text)));
        out
    }

    /// The mark bitset of the rows `0..len` that `is_marked` picks.
    fn marks_of(len: usize, is_marked: &dyn Fn(usize) -> bool) -> Vec<u64> {
        let mut marks = vec![0u64; len.div_ceil(64)];
        for row in (0..len).filter(|&row| is_marked(row)) {
            marks[row / 64] |= 1 << (row % 64);
        }
        marks
    }

    /// No row marked, every 11th (the SA rate's density), and every row.
    const ROW_SETS: [&dyn Fn(usize) -> bool; 3] = [&|_| false, &|i| i % 11 == 0, &|_| true];

    /// A marked table, its symbols, which of [`ROW_SETS`] it is marked
    /// by, and the naive counts of each symbol before every row.
    type Case = (OccTable, Vec<Symbol>, usize, Vec<[u64; 5]>);

    /// Every sequence, marked by each of [`ROW_SETS`].
    fn marked_tables() -> Vec<Case> {
        let mut out = Vec::new();
        for bwt in sequences() {
            let mut ranks = vec![[0u64; 5]];
            for s in &bwt {
                let mut next = *ranks.last().unwrap();
                next[s.code() as usize] += 1;
                ranks.push(next);
            }
            let plain = OccTable::new(bwt.iter().copied());
            for (set, is_marked) in ROW_SETS.iter().enumerate() {
                let mut occ = plain.clone();
                occ.mark_rows(&marks_of(bwt.len(), is_marked));
                out.push((occ, bwt.clone(), set, ranks.clone()));
            }
        }
        out
    }

    #[test]
    fn rank_matches_naive_at_every_position() {
        for (occ, bwt, set, ranks) in marked_tables() {
            for (i, ranks) in ranks.iter().enumerate() {
                for &s in &SYMBOL_ALPHABET {
                    let at = format!("n {}, row set {set}, symbol {s}, prefix {i}", bwt.len());
                    assert_eq!(occ.rank(s, i), ranks[s.code() as usize], "{at}");
                }
            }
        }
    }

    #[test]
    fn rank_all_agrees_with_rank() {
        for (occ, bwt, set, ranks) in marked_tables() {
            for (i, &ranks) in ranks.iter().enumerate() {
                assert_eq!(
                    occ.rank_all(i),
                    ranks,
                    "n {}, row set {set}, prefix {i}",
                    bwt.len()
                );
            }
        }
    }

    #[test]
    fn symbols_round_trip() {
        for (occ, bwt, set, _) in marked_tables() {
            assert_eq!(occ.len(), bwt.len());
            for (i, &s) in bwt.iter().enumerate() {
                assert_eq!(occ.symbol(i), s, "n {}, row set {set}, row {i}", bwt.len());
            }
        }
    }

    #[test]
    fn lf_data_fuses_symbol_and_rank() {
        for (occ, bwt, set, ranks) in marked_tables() {
            for (i, &s) in bwt.iter().enumerate() {
                let (symbol, rank, _) = occ.lf_data(i);
                let at = format!("n {}, row set {set}, row {i}", bwt.len());
                assert_eq!((symbol, rank), (s, ranks[i][s.code() as usize]), "{at}");
            }
        }
    }

    #[test]
    fn marks_show_in_lf_data_and_nowhere_else() {
        for (occ, bwt, set, _) in marked_tables() {
            let plain = OccTable::new(bwt.iter().copied());
            for i in 0..bwt.len() {
                let at = format!("n {}, row set {set}, row {i}", bwt.len());
                assert_eq!(occ.lf_data(i).2, ROW_SETS[set](i), "{at}");
                assert_eq!(occ.lf_data(i).0, plain.lf_data(i).0, "{at}");
                assert_eq!(occ.lf_data(i).1, plain.lf_data(i).1, "{at}");
            }
        }
    }

    #[test]
    fn mark_rank_counts_the_marked_rows_before_every_row() {
        for (occ, bwt, set, _) in marked_tables() {
            let is_marked = ROW_SETS[set];
            let mut before = 0;
            for i in 0..=bwt.len() {
                assert_eq!(
                    occ.mark_rank(i),
                    before,
                    "n {}, row set {set}, prefix {i}",
                    bwt.len()
                );
                before += usize::from(i < bwt.len() && is_marked(i));
            }
            // What a snapshot writes is what the table was marked from.
            let words: Vec<u64> = occ.mark_words().collect();
            assert_eq!(
                words,
                marks_of(bwt.len(), is_marked),
                "n {}, row set {set}",
                bwt.len()
            );
        }
    }

    #[test]
    fn default_rate_blocks_are_one_cache_line() {
        // One 64-byte line a 128 rows, and one more for the rows past the
        // last whole line (none, if the BWT fills it).
        for bwt in sequences() {
            let occ = OccTable::new(bwt.iter().copied());
            assert_eq!(
                occ.heap_bytes(),
                (bwt.len() / 128 + 1) * 64,
                "n {}",
                bwt.len()
            );
        }
    }

    #[test]
    fn prefetch_is_a_safe_no_op_everywhere() {
        let occ = OccTable::new(sequences().swap_remove(0).into_iter());
        for i in [0usize, 3, 21, 22, 1000, usize::MAX] {
            for &s in &SYMBOL_ALPHABET {
                occ.prefetch_rank(s, i); // must never fault or panic
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_end_panics() {
        let occ = OccTable::new([Symbol::Sentinel].into_iter());
        let _ = occ.rank(Symbol::Sentinel, 2);
    }
}
