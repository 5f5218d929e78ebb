//! The sampled occurrence (rank) table over the BWT.
//!
//! Backward search needs `Occ(s, i)` — the number of occurrences of symbol
//! `s` in `BWT[0..i]` — twice per pattern symbol. Storing all `5n` prefix
//! counts would dwarf the reference itself, so production FM-indexes (and
//! the paper's baseline, §II-B) checkpoint the counts every `sample_rate`
//! positions and reconstruct the remainder by scanning at most
//! `sample_rate - 1` BWT symbols. The sampling rate is the paper's central
//! memory/latency trade-off: EXMA's whole contribution is removing the
//! DRAM-unfriendly scan this table forces on a CPU.
//!
//! This revision interleaves the table (see [`crate::interleave`]): block
//! `b` packs the checkpoint counters for prefix `b * sample_rate` together
//! with the `sample_rate` BWT codes they cover in one cache-line-aligned
//! region, so a `rank` touches one contiguous block instead of the two
//! distant arrays of the flat layout, and counts the block's codes with
//! the branch-free kernel the k-step table uses too (see
//! [`crate::interleave`]): at the default spacings one 64-byte line,
//! four vector compares, and no division by the spacings 44 and 54.
//! The checkpoint row comes in two
//! layouts: flat `u32` counters (the historical default, one line per
//! block at spacing 44), or *two-level* — absolute `u32` superblock rows
//! every `superblock_rate` blocks in a separate small array, with `u16`
//! per-block deltas. The two-level header is half the size, so one line
//! fits 54 codes instead of 44; the delta width is fixed at `u16` and
//! proven safe at construction by bounding the superblock span.
//!
//! A code byte holds more than the symbol: bit 7 says whether the row is
//! one the sampled suffix array keeps (set when the index is assembled,
//! see [`crate::FmIndex::lf_marked`]), so the one line an LF step reads
//! ([`OccTable::lf_data`]) also decides whether the walk ends there.
//! Every reader of a code byte masks it down to the symbol bits, the rank
//! kernel included.

use exma_genome::Symbol;

use crate::interleave::{AlignedWords, CodeSpan, Divisor};
use crate::layout::{HeapBreakdown, IndexError};

/// Symbol codes per checkpoint row (one counter per alphabet symbol).
const HEADER_LANES: usize = 5;

/// The bits of a code byte that hold the symbol code (0–4).
const SYMBOL_MASK: u8 = 0x07;

/// Bit 7 of a code byte: the row is SA-sampled.
const MARK_BIT: u8 = 0x80;

/// Checkpointed rank structure over a BWT, interleaved per block.
///
/// Block `b` covers BWT positions `b * sample_rate ..` and lays out, in
/// bytes:
///
/// ```text
/// flat:      [ 5 u32 checkpoint counters | sample_rate codes | pad ]
/// two-level: [ 5 u16 delta counters      | sample_rate codes | pad ]
/// code byte: bit 7 = SA-sampled row, bits 0–2 = symbol
/// ```
///
/// padded so every block starts on a 64-byte cache-line boundary.
/// Checkpoints are `u32`: the workspace addresses texts through `u32`
/// suffix-array positions, so per-symbol counts always fit. Two-level
/// deltas are `u16` and relative to the nearest preceding superblock
/// row; [`OccTable::two_level`] proves at construction that one
/// superblock span cannot overflow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccTable {
    data: AlignedWords,
    /// Absolute checkpoint rows, one 5-word group per `superblock_rate`
    /// blocks; empty in the flat layout.
    superblocks: AlignedWords,
    /// Words per block, line-rounded.
    block_words: usize,
    /// Bytes of a block taken by its counter row (20 flat, 10 two-level);
    /// the code lanes start right behind it.
    header_bytes: usize,
    /// The cache lines of a block its code lanes occupy (one, at the
    /// default spacings).
    span: CodeSpan,
    /// Length of the underlying BWT.
    len: usize,
    sample_rate: Divisor,
    /// Blocks per superblock row; `None` in the flat layout.
    superblock_rate: Option<Divisor>,
    /// Occurrences of every symbol in the full BWT: the O(1) answer to
    /// `rank(s, len)`, issued by every backward search's first step.
    totals: [u32; 5],
}

impl OccTable {
    /// Builds the flat-layout table from a BWT with `u32` checkpoints
    /// every `sample_rate` symbols.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0` or the BWT is too long for `u32`
    /// counters.
    pub fn new(bwt: &[Symbol], sample_rate: usize) -> OccTable {
        OccTable::build(bwt, sample_rate, 0).expect("flat layout only fails on u32 overflow")
    }

    /// Builds the two-level table: `u16` per-block deltas off absolute
    /// superblock rows every `superblock_rate` blocks.
    ///
    /// # Errors
    ///
    /// [`IndexError::SuperblockSpanTooWide`] if
    /// `sample_rate * superblock_rate` exceeds 65 535 rows — the bound
    /// that *proves* no delta can overflow, whatever the text — and
    /// [`IndexError::IndexTooLarge`] if the BWT outgrows `u32` counters.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0` or `superblock_rate == 0`.
    pub fn two_level(
        bwt: &[Symbol],
        sample_rate: usize,
        superblock_rate: usize,
    ) -> Result<OccTable, IndexError> {
        assert!(superblock_rate > 0, "superblock rate must be positive");
        OccTable::build(bwt, sample_rate, superblock_rate)
    }

    /// Shared builder; `superblock_rate == 0` selects the flat layout.
    fn build(
        bwt: &[Symbol],
        sample_rate: usize,
        superblock_rate: usize,
    ) -> Result<OccTable, IndexError> {
        assert!(sample_rate > 0, "sample rate must be positive");
        if bwt.len() >= u32::MAX as usize {
            return Err(IndexError::IndexTooLarge { rows: bwt.len() });
        }
        let two_level = superblock_rate > 0;
        if two_level {
            let span = sample_rate.saturating_mul(superblock_rate);
            if span > u16::MAX as usize {
                return Err(IndexError::SuperblockSpanTooWide {
                    sample_rate,
                    superblock_rate,
                    max_span: u16::MAX as usize,
                });
            }
        }
        let len = bwt.len();
        let blocks = len / sample_rate + 1;
        let header_bytes = if two_level { 2 } else { 4 } * HEADER_LANES;
        let block_words = (header_bytes + sample_rate)
            .div_ceil(4)
            .next_multiple_of(crate::interleave::WORDS_PER_LINE);
        let groups = if two_level {
            blocks.div_ceil(superblock_rate)
        } else {
            0
        };
        let mut data = AlignedWords::zeroed(blocks * block_words);
        let mut superblocks = AlignedWords::zeroed(groups * HEADER_LANES);
        let mut running = [0u32; 5];
        let mut group_row = [0u32; 5];
        for block in 0..blocks {
            let base = block * block_words;
            if two_level {
                if block % superblock_rate == 0 {
                    let g = (block / superblock_rate) * HEADER_LANES;
                    superblocks.words_mut()[g..g + HEADER_LANES].copy_from_slice(&running);
                    group_row = running;
                }
                for (lane, (&now, &at_group)) in running.iter().zip(group_row.iter()).enumerate() {
                    // The span bound above proves this cast lossless.
                    data.halves_mut()[base * 2 + lane] = (now - at_group) as u16;
                }
            } else {
                data.words_mut()[base..base + HEADER_LANES].copy_from_slice(&running);
            }
            // Codes live in the block's tail as plain byte lanes.
            let code_base = base * 4 + header_bytes;
            let lo = block * sample_rate;
            let hi = (lo + sample_rate).min(len);
            for (offset, &s) in bwt[lo..hi].iter().enumerate() {
                data.bytes_mut()[code_base + offset] = s.code();
                running[s.code() as usize] += 1;
            }
        }
        Ok(OccTable {
            data,
            superblocks,
            block_words,
            header_bytes,
            span: CodeSpan::new(block_words, header_bytes, sample_rate),
            len,
            sample_rate: Divisor::new(sample_rate),
            superblock_rate: two_level.then(|| Divisor::new(superblock_rate)),
            totals: running,
        })
    }

    /// Length of the underlying BWT.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the BWT is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The checkpoint spacing this table was built with.
    pub fn sample_rate(&self) -> usize {
        self.sample_rate.get()
    }

    /// Blocks per superblock row; `0` means the flat `u32` layout.
    pub fn superblock_rate(&self) -> usize {
        self.superblock_rate.map_or(0, Divisor::get)
    }

    /// The absolute count of symbol code `code` at `block`'s checkpoint.
    #[inline]
    fn checkpoint(&self, block: usize, code: usize) -> u32 {
        let base = block * self.block_words;
        match self.superblock_rate {
            None => self.data.words()[base + code],
            Some(rate) => {
                self.superblocks.words()[rate.div_rem(block).0 * HEADER_LANES + code]
                    + u32::from(self.data.halves()[base * 2 + code])
            }
        }
    }

    /// `Occ(code, block * sample_rate + offset)`: the block's checkpoint
    /// plus one pass of the rank kernel over its code lanes.
    #[inline]
    fn block_rank(&self, block: usize, code: u8, offset: usize) -> u64 {
        let [below] = self
            .data
            .prefix_counts::<SYMBOL_MASK, 1>(self.span, block, code, [offset]);
        u64::from(self.checkpoint(block, code as usize) + below)
    }

    /// Byte index of the code lane `offset` rows into `block`.
    #[inline]
    fn code_index(&self, block: usize, offset: usize) -> usize {
        block * self.block_words * 4 + self.header_bytes + offset
    }

    /// Sets the SA-sampled bit of every row in `rows`. Symbols and ranks
    /// are unchanged; only [`OccTable::lf_data`] reports the bit.
    ///
    /// # Panics
    ///
    /// Panics if a row is not below `self.len()`.
    pub(crate) fn mark_rows(&mut self, rows: impl Iterator<Item = usize>) {
        for row in rows {
            assert!(row < self.len, "marked row {row} out of range");
            let (block, offset) = self.sample_rate.div_rem(row);
            let index = self.code_index(block, offset);
            self.data.bytes_mut()[index] |= MARK_BIT;
        }
    }

    /// The BWT symbol at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn symbol(&self, i: usize) -> Symbol {
        assert!(i < self.len, "symbol position {i} out of range");
        let (block, offset) = self.sample_rate.div_rem(i);
        Symbol::from_code(self.data.bytes()[self.code_index(block, offset)] & SYMBOL_MASK)
    }

    /// `Occ(s, i)`: occurrences of `s` in `BWT[0..i]` (exclusive of `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    #[inline]
    pub fn rank(&self, s: Symbol, i: usize) -> u64 {
        assert!(i <= self.len, "rank position {i} out of range");
        let code = s.code();
        if i == self.len {
            return u64::from(self.totals[code as usize]);
        }
        let (block, offset) = self.sample_rate.div_rem(i);
        self.block_rank(block, code, offset)
    }

    /// The BWT symbol at `i`, `Occ(symbol, i)`, and whether row `i` is
    /// SA-sampled — everything one step of a locate walk asks, from a
    /// single block visit: the code byte (symbol and mark), the
    /// checkpoint counter and the code scan all sit in the same
    /// interleaved block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn lf_data(&self, i: usize) -> (Symbol, u64, bool) {
        assert!(i < self.len, "LF position {i} out of range");
        let (block, offset) = self.sample_rate.div_rem(i);
        let byte = self.data.bytes()[self.code_index(block, offset)];
        let code = byte & SYMBOL_MASK;
        (
            Symbol::from_code(code),
            self.block_rank(block, code, offset),
            byte & MARK_BIT != 0,
        )
    }

    /// Occurrences of every symbol in `BWT[0..i]`, one scan for all five.
    pub fn rank_all(&self, i: usize) -> [u64; 5] {
        assert!(i <= self.len, "rank position {i} out of range");
        if i == self.len {
            return self.totals.map(u64::from);
        }
        let (block, scan) = self.sample_rate.div_rem(i);
        let mut counts = [0u32; 5];
        for (code, count) in counts.iter_mut().enumerate() {
            *count = self.checkpoint(block, code);
        }
        let code_base = self.code_index(block, 0);
        for &c in &self.data.bytes()[code_base..code_base + scan] {
            counts[(c & SYMBOL_MASK) as usize] += 1;
        }
        counts.map(u64::from)
    }

    /// Hints the CPU to pull every line a later `rank(s, i)` will read
    /// toward L1: the block's counter row and all of its code lines — at
    /// the default spacings one line holds both — plus, two-level, the
    /// superblock row it is relative to. Never faults; a no-op off x86-64
    /// and for the `i == len` totals fast path.
    #[inline]
    pub fn prefetch_rank(&self, _s: Symbol, i: usize) {
        if i >= self.len {
            return; // answered from `totals`, which stays cache-hot
        }
        // The counter row is shorter than a line, so the first code line
        // holds all five counters, whichever symbol is asked for.
        let block = self.sample_rate.div_rem(i).0;
        self.data.prefetch_span(self.span, block);
        if let Some(rate) = self.superblock_rate {
            self.superblocks
                .prefetch(rate.div_rem(block).0 * HEADER_LANES);
        }
    }

    /// Heap bytes attributed under [`HeapBreakdown::one_step_occ`]:
    /// interleaved blocks plus (two-level) the superblock rows.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        HeapBreakdown {
            one_step_occ: self.data.heap_bytes() + self.superblocks.heap_bytes(),
            ..HeapBreakdown::default()
        }
    }

    /// Heap bytes of the interleaved blocks and superblock rows.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

/// Reference O(n) rank used to validate the checkpointed table in tests.
pub fn naive_rank(bwt: &[Symbol], s: Symbol, i: usize) -> u64 {
    bwt[..i].iter().filter(|&&x| x == s).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::genome::text_from_str;
    use exma_genome::{bwt_from_sa, suffix_array, SYMBOL_ALPHABET};

    fn bwt_of(s: &str) -> Vec<Symbol> {
        let text = text_from_str(s).unwrap();
        let sa = suffix_array(&text);
        bwt_from_sa(&text, &sa)
    }

    /// Both layouts at a given spacing: flat and a few superblock rates.
    fn layouts(bwt: &[Symbol], rate: usize) -> Vec<OccTable> {
        let mut tables = vec![OccTable::new(bwt, rate)];
        for sb in [2, 8, 64] {
            tables.push(OccTable::two_level(bwt, rate, sb).unwrap());
        }
        tables
    }

    #[test]
    fn rank_matches_naive_at_every_position() {
        let bwt = bwt_of("CATAGACATTAGACCATAGGA");
        for rate in [1, 2, 3, 5, 7, 16, 44, 54, 64, 200] {
            for occ in layouts(&bwt, rate) {
                let sb = occ.superblock_rate();
                for i in 0..=bwt.len() {
                    for &s in &SYMBOL_ALPHABET {
                        assert_eq!(
                            occ.rank(s, i),
                            naive_rank(&bwt, s, i),
                            "rate {rate}, sb {sb}, symbol {s}, prefix {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lf_data_fuses_symbol_and_rank() {
        let bwt = bwt_of("CATAGACATTAGACCATAGGA");
        for rate in [1, 3, 7, 44, 54, 200] {
            for occ in layouts(&bwt, rate) {
                let sb = occ.superblock_rate();
                for i in 0..bwt.len() {
                    let (s, rank, marked) = occ.lf_data(i);
                    assert_eq!(s, occ.symbol(i), "rate {rate}, sb {sb}, position {i}");
                    assert_eq!(rank, occ.rank(s, i), "rate {rate}, sb {sb}, position {i}");
                    assert!(!marked, "rate {rate}, sb {sb}: nothing marked row {i}");
                }
            }
        }
    }

    #[test]
    fn marks_show_in_lf_data_and_nowhere_else() {
        let bwt = bwt_of("CATAGACATTAGACCATAGGACATAGACCTTAGGACAT");
        // No row, every third, a block's worth in a run, and every row:
        // the last puts bit 7 on every code byte a rank scans.
        let row_sets: [&dyn Fn(usize) -> bool; 4] = [
            &|_| false,
            &|i| i % 3 == 1,
            &|i| (5..12).contains(&i),
            &|_| true,
        ];
        for rate in [1, 7, 44, 54, 200] {
            for plain in layouts(&bwt, rate) {
                let sb = plain.superblock_rate();
                for (set, is_marked) in row_sets.iter().enumerate() {
                    let mut occ = plain.clone();
                    occ.mark_rows((0..bwt.len()).filter(|&i| is_marked(i)));
                    let at = format!("rate {rate}, sb {sb}, row set {set}");
                    for i in 0..=bwt.len() {
                        assert_eq!(occ.rank_all(i), plain.rank_all(i), "{at}, prefix {i}");
                        for &s in &SYMBOL_ALPHABET {
                            assert_eq!(occ.rank(s, i), naive_rank(&bwt, s, i), "{at}, prefix {i}");
                        }
                    }
                    for (i, &s) in bwt.iter().enumerate() {
                        assert_eq!(occ.symbol(i), s, "{at}, row {i}");
                        let expect = (s, naive_rank(&bwt, s, i), is_marked(i));
                        assert_eq!(occ.lf_data(i), expect, "{at}, row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn rank_all_agrees_with_rank() {
        let bwt = bwt_of("GGGCCCAAATTTGGGCCCAAATTT");
        for occ in layouts(&bwt, 4) {
            for i in 0..=bwt.len() {
                let all = occ.rank_all(i);
                for &s in &SYMBOL_ALPHABET {
                    assert_eq!(all[s.code() as usize], occ.rank(s, i));
                }
            }
        }
    }

    #[test]
    fn symbols_round_trip() {
        let bwt = bwt_of("GATTACA");
        for occ in layouts(&bwt, 3) {
            assert_eq!(occ.len(), bwt.len());
            for (i, &s) in bwt.iter().enumerate() {
                assert_eq!(occ.symbol(i), s);
            }
        }
    }

    #[test]
    fn default_rate_blocks_are_one_cache_line() {
        // Flat: 20 header bytes + 44 codes = 64. Two-level: 10 header
        // bytes + 54 codes = 64 — ten more codes in the same line.
        let bwt = bwt_of(&"ACGT".repeat(100));
        let flat = OccTable::new(&bwt, 44);
        assert_eq!(flat.heap_bytes(), (bwt.len() / 44 + 1) * 64);
        let two = OccTable::two_level(&bwt, 54, 32).unwrap();
        let blocks = bwt.len() / 54 + 1;
        let sb_lines = blocks
            .div_ceil(32)
            .saturating_mul(HEADER_LANES)
            .div_ceil(16);
        assert_eq!(two.heap_bytes(), blocks * 64 + sb_lines * 64);
    }

    #[test]
    fn too_wide_superblock_span_is_a_typed_error() {
        let bwt = bwt_of("ACGT");
        let err = OccTable::two_level(&bwt, 44, 4096).unwrap_err();
        assert_eq!(
            err,
            IndexError::SuperblockSpanTooWide {
                sample_rate: 44,
                superblock_rate: 4096,
                max_span: 65_535,
            }
        );
        // 44 * 1489 = 65516 <= 65535: the widest legal spacing builds.
        assert!(OccTable::two_level(&bwt, 44, 1489).is_ok());
    }

    #[test]
    fn prefetch_is_a_safe_no_op_everywhere() {
        let bwt = bwt_of("CATAGACATTAGACCATAGGA");
        for occ in layouts(&bwt, 7) {
            for i in [0usize, 3, 21, 22, 1000] {
                for &s in &SYMBOL_ALPHABET {
                    occ.prefetch_rank(s, i); // must never fault or panic
                }
            }
        }
    }

    #[test]
    fn coarser_sampling_uses_less_memory() {
        let bwt = bwt_of(&"ACGT".repeat(1000));
        let fine = OccTable::new(&bwt, 4);
        let coarse = OccTable::new(&bwt, 128);
        assert!(coarse.heap_bytes() < fine.heap_bytes());
        // And at matched spacing, halving the header does not cost more
        // than the superblock rows it adds.
        let flat = OccTable::new(&bwt, 54);
        let two = OccTable::two_level(&bwt, 54, 32).unwrap();
        assert!(two.heap_bytes() <= flat.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_end_panics() {
        let bwt = bwt_of("ACGT");
        let occ = OccTable::new(&bwt, 2);
        let _ = occ.rank(Symbol::Sentinel, bwt.len() + 1);
    }
}
