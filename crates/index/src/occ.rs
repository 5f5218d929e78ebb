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
//! The table is interleaved (see [`crate::interleave`]): block `b` packs
//! the checkpoint counters for prefix `b * OCC_SAMPLE_RATE` together with
//! the `OCC_SAMPLE_RATE` BWT codes they cover in one cache-line-aligned region, so
//! a `rank` touches one contiguous block, and counts the block's codes
//! with the branch-free kernel the k-step table uses too: at the default
//! spacing one 64-byte line, four vector compares, and no division by the
//! spacing. A checkpoint row is stored the one way both tables store it:
//! `u16` deltas relative to an absolute `u32` superblock row kept every
//! [`crate::layout::SUPERBLOCK_RATE`] blocks in a separate small array.
//! The twelve header bytes leave one line room for 52 codes, and 52 is
//! the spacing ([`crate::layout::OCC_SAMPLE_RATE`]): a full line costs a
//! rank what a 44-code one did. The layout's compile-time span rule
//! proves no delta can overflow.
//!
//! A code byte holds more than the symbol: bit 7 says whether the row is
//! one the sampled suffix array keeps, and a checkpoint row's sixth
//! counter counts the marked rows before the block. So the one line an
//! LF step reads ([`OccTable::lf_data`]) also decides whether the walk
//! ends there and, through `OccTable::mark_rank`, in which sample slot;
//! the marks live nowhere else. Every reader of a code byte masks it
//! down to the bits it asks about, the rank kernel included.

use exma_genome::Symbol;

use crate::interleave::BlockStore;
use crate::layout::{HeapBreakdown, IndexError, OCC_SAMPLE_RATE};

/// Counters per checkpoint row: one per alphabet symbol, then the marks.
const HEADER_LANES: usize = 6;

/// The checkpoint counter of the SA-sampled rows before a block.
const MARK_LANE: usize = 5;

/// The bits of a code byte that hold the symbol code (0–4).
const SYMBOL_MASK: u8 = 0x07;

/// Bit 7 of a code byte: the row is SA-sampled.
const MARK_BIT: u8 = 0x80;

/// Checkpointed rank structure over a BWT, interleaved per block.
///
/// Block `b` covers BWT positions `b * OCC_SAMPLE_RATE ..` and lays out,
/// in bytes:
///
/// ```text
/// [ 5 u16 symbol deltas | u16 mark delta | 52 codes ]
/// code byte: bit 7 = SA-sampled row, bits 0–2 = symbol
/// ```
///
/// one 64-byte cache line. Deltas are relative to the nearest preceding
/// absolute `u32` superblock row (the workspace addresses texts through
/// `u32` suffix-array positions, so per-symbol counts always fit); the
/// layout's span rule proves one superblock span cannot overflow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccTable {
    store: BlockStore,
    /// Occurrences of every symbol in the full BWT: the O(1) answer to
    /// `rank(s, len)`, issued by every backward search's first step.
    totals: [u32; 5],
}

impl OccTable {
    /// Builds the table from the BWT's symbols in row order,
    /// checkpointed every [`OCC_SAMPLE_RATE`] symbols, with no row marked.
    /// An iterator, so a build can derive them as it goes (from the suffix
    /// array, or from the k-BWT codes) instead of holding a BWT beside the
    /// table.
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if the BWT outgrows `u32` counters.
    pub fn new(bwt: impl ExactSizeIterator<Item = Symbol>) -> Result<OccTable, IndexError> {
        let rows = bwt.map(|s| (s.code(), usize::from(s.code())));
        let (store, totals) = BlockStore::build(HEADER_LANES, OCC_SAMPLE_RATE, rows)?;
        Ok(OccTable {
            store,
            totals: std::array::from_fn(|code| totals[code]),
        })
    }

    /// Length of the underlying BWT.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff the BWT is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter `counter` at row `block * OCC_SAMPLE_RATE + offset`: the
    /// block's checkpoint plus one pass of the rank kernel over its code
    /// lanes, counting those whose bits under `MASK` are `needle`.
    #[inline]
    fn block_rank<const MASK: u8>(
        &self,
        block: usize,
        counter: usize,
        needle: u8,
        offset: usize,
    ) -> u32 {
        let [below] = self.store.prefix_counts::<MASK, 1>(block, needle, [offset]);
        self.store.checkpoint(block, counter) + below
    }

    /// Marks the rows `marks` sets (row `i` at bit `i % 64` of word
    /// `i / 64`) as SA-sampled, on a table that has none yet: sets each
    /// one's bit 7 and writes every block's mark counter, in one pass over
    /// the blocks. Ranks are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `marks` does not hold one bit a row.
    pub(crate) fn mark_rows(&mut self, marks: &[u64]) {
        let len = self.len();
        assert_eq!(marks.len(), len.div_ceil(64), "not one mark bit a row");
        let mut marked = 0;
        for block in 0..=self.store.split(len).0 {
            self.store.set_checkpoints(block, MARK_LANE, &[marked]);
            let first = block * OCC_SAMPLE_RATE;
            let lanes = self
                .store
                .byte_lanes_mut(block, OCC_SAMPLE_RATE.min(len - first));
            // The block's marks, from the one or two words they span.
            let (word, shift) = (first / 64, first % 64);
            let spill = marks
                .get(word + 1)
                .map_or(0, |&next| next << 1 << (63 - shift));
            let bits = marks.get(word).map_or(0, |&w| w >> shift | spill);
            let mut bits = bits & !(u64::MAX << lanes.len());
            marked += bits.count_ones();
            while bits != 0 {
                lanes[bits.trailing_zeros() as usize] |= MARK_BIT;
                bits &= bits - 1;
            }
        }
    }

    /// The marked rows in `0..i`: the block's mark counter plus the rank
    /// kernel over its codes' bit 7.
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    #[inline]
    pub(crate) fn mark_rank(&self, i: usize) -> usize {
        assert!(i <= self.len(), "mark rank position {i} out of range");
        let (block, offset) = self.store.split(i);
        self.block_rank::<MARK_BIT>(block, MARK_LANE, MARK_BIT, offset) as usize
    }

    /// The marks as a bitset, one bit a row (row `i` at bit `i % 64` of
    /// word `i / 64`), read off the code bytes: what a snapshot stores.
    pub(crate) fn mark_words(&self) -> impl Iterator<Item = u64> + '_ {
        // Each block's marks, 52 bits at most, packed into whole words
        // (the last one padded with zero bits).
        let runs = self.store.lane_runs().map(|run| {
            let bits = run
                .iter()
                .rev()
                .fold(0, |bits, &b| bits << 1 | u128::from(b >> 7));
            (bits, run.len())
        });
        let mut runs = runs.chain(std::iter::repeat((0, 64)));
        let (mut pending, mut have) = (0u128, 0);
        (0..self.len().div_ceil(64)).map(move |_| {
            while have < 64 {
                let (bits, len) = runs.next().expect("the zero padding never ends");
                (pending, have) = (pending | bits << have, have + len);
            }
            let word = pending as u64;
            (pending, have) = (pending >> 64, have - 64);
            word
        })
    }

    /// The BWT symbol at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn symbol(&self, i: usize) -> Symbol {
        assert!(i < self.len(), "symbol position {i} out of range");
        let (block, offset) = self.store.split(i);
        Symbol::from_code(self.store.byte_lane(block, offset) & SYMBOL_MASK)
    }

    /// `Occ(s, i)`: occurrences of `s` in `BWT[0..i]` (exclusive of `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()`.
    #[inline]
    pub fn rank(&self, s: Symbol, i: usize) -> u64 {
        assert!(i <= self.len(), "rank position {i} out of range");
        let code = s.code();
        if i == self.len() {
            return u64::from(self.totals[code as usize]);
        }
        let (block, offset) = self.store.split(i);
        u64::from(self.block_rank::<SYMBOL_MASK>(block, code.into(), code, offset))
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
        assert!(i < self.len(), "LF position {i} out of range");
        let (block, offset) = self.store.split(i);
        let byte = self.store.byte_lane(block, offset);
        let code = byte & SYMBOL_MASK;
        (
            Symbol::from_code(code),
            u64::from(self.block_rank::<SYMBOL_MASK>(block, code.into(), code, offset)),
            byte & MARK_BIT != 0,
        )
    }

    /// Occurrences of every symbol in `BWT[0..i]`, one scan for all five.
    pub fn rank_all(&self, i: usize) -> [u64; 5] {
        assert!(i <= self.len(), "rank position {i} out of range");
        if i == self.len() {
            return self.totals.map(u64::from);
        }
        let (block, scan) = self.store.split(i);
        let mut counts = [0u32; 5];
        for (code, count) in counts.iter_mut().enumerate() {
            *count = self.store.checkpoint(block, code);
        }
        for &c in self.store.byte_lanes(block, scan) {
            counts[(c & SYMBOL_MASK) as usize] += 1;
        }
        counts.map(u64::from)
    }

    /// Hints the CPU to pull every line a later `rank(s, i)` will read
    /// toward L1: the block's delta row and its code line — one line
    /// holds both — plus the superblock row
    /// it is relative to. Never faults; a no-op off x86-64 and for the
    /// `i == len` totals fast path.
    #[inline]
    pub fn prefetch_rank(&self, _s: Symbol, i: usize) {
        if i >= self.len() {
            return; // answered from `totals`, which stays cache-hot
        }
        // The twelve bytes of deltas lead the block's first code line, so
        // the code region's hint covers all six, whichever is asked.
        self.store.prefetch_block(self.store.split(i).0, 0);
    }

    /// Heap bytes attributed under [`HeapBreakdown::one_step_occ`]:
    /// interleaved blocks plus the superblock rows.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        HeapBreakdown {
            one_step_occ: self.store.heap_split().iter().sum(),
            ..HeapBreakdown::default()
        }
    }

    /// Heap bytes of the interleaved blocks and superblock rows.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SUPERBLOCK_RATE;
    use exma_genome::genome::{text_from_bases, text_from_str};
    use exma_genome::{bwt_from_sa, suffix_array, SeededRng, SYMBOL_ALPHABET};

    fn bwt_of(s: &str) -> Vec<Symbol> {
        let text = text_from_str(s).unwrap();
        let sa = suffix_array(&text);
        bwt_from_sa(&text, &sa)
    }

    /// The BWT of a random text long enough to cross three superblocks.
    fn long_bwt() -> Vec<Symbol> {
        let mut rng = SeededRng::new(0x0CC);
        let len = 3 * OCC_SAMPLE_RATE * SUPERBLOCK_RATE + 100;
        let bases: Vec<_> = (0..len).map(|_| rng.base()).collect();
        let text = text_from_bases(&bases);
        bwt_from_sa(&text, &suffix_array(&text))
    }

    /// The BWTs the property tests cross: one shorter than a block, and
    /// one over three superblocks.
    fn bwts() -> [Vec<Symbol>; 2] {
        [bwt_of("CATAGACATTAGACCATAGGA"), long_bwt()]
    }

    /// The mark bitset of the rows `0..len` that `is_marked` picks.
    fn marks_of(len: usize, is_marked: &dyn Fn(usize) -> bool) -> Vec<u64> {
        let mut marks = vec![0u64; len.div_ceil(64)];
        for row in (0..len).filter(|&row| is_marked(row)) {
            marks[row / 64] |= 1 << (row % 64);
        }
        marks
    }

    /// Reference O(n) rank of `s` in `bwt[..i]`.
    fn naive_rank(bwt: &[Symbol], s: Symbol, i: usize) -> u64 {
        bwt[..i].iter().filter(|&&x| x == s).count() as u64
    }

    /// [`naive_rank`] of `s` at every `i` in `0..=bwt.len()`.
    fn naive_ranks(bwt: &[Symbol], s: Symbol) -> Vec<u64> {
        (0..=bwt.len()).map(|i| naive_rank(bwt, s, i)).collect()
    }

    #[test]
    fn rank_matches_naive_at_every_position() {
        for bwt in bwts() {
            let occ = OccTable::new(bwt.iter().copied()).unwrap();
            for &s in &SYMBOL_ALPHABET {
                for (i, &rank) in naive_ranks(&bwt, s).iter().enumerate() {
                    assert_eq!(
                        occ.rank(s, i),
                        rank,
                        "n {}, symbol {s}, prefix {i}",
                        bwt.len()
                    );
                }
            }
        }
    }

    #[test]
    fn lf_data_fuses_symbol_and_rank() {
        for bwt in bwts() {
            let occ = OccTable::new(bwt.iter().copied()).unwrap();
            for i in 0..bwt.len() {
                let (s, rank, marked) = occ.lf_data(i);
                assert_eq!(s, occ.symbol(i), "position {i}");
                assert_eq!(rank, occ.rank(s, i), "position {i}");
                assert!(!marked, "nothing marked row {i}");
            }
        }
    }

    #[test]
    fn marks_show_in_lf_data_and_nowhere_else() {
        // No row, every third, a block's worth in a run, and every row:
        // the last puts bit 7 on every code byte a rank scans.
        let row_sets: [&dyn Fn(usize) -> bool; 4] = [
            &|_| false,
            &|i| i % 3 == 1,
            &|i| (5..5 + OCC_SAMPLE_RATE).contains(&i),
            &|_| true,
        ];
        for bwt in bwts() {
            let plain = OccTable::new(bwt.iter().copied()).unwrap();
            let ranks = SYMBOL_ALPHABET.map(|s| naive_ranks(&bwt, s));
            for (set, is_marked) in row_sets.iter().enumerate() {
                let mut occ = plain.clone();
                occ.mark_rows(&marks_of(bwt.len(), is_marked));
                let at = format!("n {}, row set {set}", bwt.len());
                for i in 0..=bwt.len() {
                    assert_eq!(occ.rank_all(i), plain.rank_all(i), "{at}, prefix {i}");
                }
                for (&s, ranks) in SYMBOL_ALPHABET.iter().zip(&ranks) {
                    for (i, &rank) in ranks.iter().enumerate() {
                        assert_eq!(occ.rank(s, i), rank, "{at}, prefix {i}");
                    }
                }
                for (i, &s) in bwt.iter().enumerate() {
                    assert_eq!(occ.symbol(i), s, "{at}, row {i}");
                    let expect = (s, ranks[s.code() as usize][i], is_marked(i));
                    assert_eq!(occ.lf_data(i), expect, "{at}, row {i}");
                }
            }
        }
    }

    #[test]
    fn mark_rank_counts_the_marked_rows_before_every_row() {
        // No row, every 11th (the SA rate's density), one whole block, and
        // every row, each against a plain prefix count at every row.
        let row_sets: [&dyn Fn(usize) -> bool; 4] = [
            &|_| false,
            &|i| i % 11 == 0,
            &|i| (OCC_SAMPLE_RATE..2 * OCC_SAMPLE_RATE).contains(&i),
            &|_| true,
        ];
        let bwt = long_bwt();
        assert!(bwt.len() > 3 * OCC_SAMPLE_RATE * SUPERBLOCK_RATE);
        for (set, is_marked) in row_sets.iter().enumerate() {
            let mut occ = OccTable::new(bwt.iter().copied()).unwrap();
            let marks = marks_of(bwt.len(), is_marked);
            occ.mark_rows(&marks);
            let mut before = 0;
            for i in 0..=bwt.len() {
                assert_eq!(occ.mark_rank(i), before, "row set {set}, prefix {i}");
                if i < bwt.len() {
                    assert_eq!(occ.lf_data(i).2, is_marked(i), "row set {set}, row {i}");
                    before += usize::from(is_marked(i));
                }
            }
            // What a snapshot writes is what the table was marked from.
            let words: Vec<u64> = occ.mark_words().collect();
            assert_eq!(words, marks, "row set {set}");
        }
    }

    #[test]
    fn rank_all_agrees_with_rank() {
        for bwt in bwts() {
            let occ = OccTable::new(bwt.iter().copied()).unwrap();
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
        for bwt in [bwt_of("GATTACA"), long_bwt()] {
            let occ = OccTable::new(bwt.iter().copied()).unwrap();
            assert_eq!(occ.len(), bwt.len());
            for (i, &s) in bwt.iter().enumerate() {
                assert_eq!(occ.symbol(i), s);
            }
        }
    }

    #[test]
    fn default_rate_blocks_are_one_cache_line() {
        // 12 header bytes + 52 codes = 64: the spacing is the widest
        // one-line block.
        assert_eq!(HEADER_LANES * 2 + OCC_SAMPLE_RATE, 64);
        for bwt in [bwt_of(&"ACGT".repeat(100)), long_bwt()] {
            let occ = OccTable::new(bwt.iter().copied()).unwrap();
            let blocks = bwt.len() / OCC_SAMPLE_RATE + 1;
            let sb_lines = (blocks.div_ceil(SUPERBLOCK_RATE) * HEADER_LANES).div_ceil(16);
            assert_eq!(
                occ.heap_bytes(),
                blocks * 64 + sb_lines * 64,
                "n {}",
                bwt.len()
            );
        }
    }

    #[test]
    fn prefetch_is_a_safe_no_op_everywhere() {
        let bwt = bwt_of("CATAGACATTAGACCATAGGA");
        let occ = OccTable::new(bwt.iter().copied()).unwrap();
        for i in [0usize, 3, 21, 22, 1000] {
            for &s in &SYMBOL_ALPHABET {
                occ.prefetch_rank(s, i); // must never fault or panic
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_end_panics() {
        let bwt = bwt_of("ACGT");
        let occ = OccTable::new(bwt.iter().copied()).unwrap();
        let _ = occ.rank(Symbol::Sentinel, bwt.len() + 1);
    }
}
