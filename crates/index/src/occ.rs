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
//! five `u16` deltas relative to an absolute `u32` superblock row kept
//! every [`crate::layout::SUPERBLOCK_RATE`] blocks in a separate small
//! array. The ten header bytes leave one line room for 54 codes, and 54
//! is the spacing ([`crate::layout::OCC_SAMPLE_RATE`]): a full line costs
//! a rank what a 44-code one did, and the fifth of the table it saves is
//! spent on denser suffix-array samples. The layout's compile-time span
//! rule proves no delta can overflow.
//!
//! A code byte holds more than the symbol: bit 7 says whether the row is
//! one the sampled suffix array keeps (set when the index is assembled,
//! see [`crate::FmIndex::lf_marked`]), so the one line an LF step reads
//! ([`OccTable::lf_data`]) also decides whether the walk ends there.
//! Every reader of a code byte masks it down to the symbol bits, the rank
//! kernel included.

use exma_genome::Symbol;

use crate::interleave::BlockStore;
use crate::layout::{HeapBreakdown, IndexError, OCC_SAMPLE_RATE};

/// Symbol codes per checkpoint row (one counter per alphabet symbol).
const HEADER_LANES: usize = 5;

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
/// [ 5 u16 delta counters | 54 codes ]
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
    /// checkpointed every [`OCC_SAMPLE_RATE`] symbols. An iterator, so a
    /// build can derive them as it goes (from the suffix array, or from
    /// the k-BWT codes) instead of holding a BWT beside the table.
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if the BWT outgrows `u32` counters.
    pub fn new(bwt: impl ExactSizeIterator<Item = Symbol>) -> Result<OccTable, IndexError> {
        let rows = bwt.map(|s| (s.code(), usize::from(s.code())));
        let (store, totals) = BlockStore::build(HEADER_LANES, OCC_SAMPLE_RATE, rows)?;
        Ok(OccTable {
            store,
            totals: totals.try_into().expect("one total per symbol"),
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

    /// `Occ(code, block * OCC_SAMPLE_RATE + offset)`: the block's checkpoint
    /// plus one pass of the rank kernel over its code lanes.
    #[inline]
    fn block_rank(&self, block: usize, code: u8, offset: usize) -> u64 {
        let [below] = self
            .store
            .prefix_counts::<SYMBOL_MASK, 1>(block, code, [offset]);
        u64::from(self.store.checkpoint(block, code as usize) + below)
    }

    /// Sets the SA-sampled bit of every row in `rows`. Symbols and ranks
    /// are unchanged; only [`OccTable::lf_data`] reports the bit.
    ///
    /// # Panics
    ///
    /// Panics if a row is not below `self.len()`.
    pub(crate) fn mark_rows(&mut self, rows: impl Iterator<Item = usize>) {
        for row in rows {
            assert!(row < self.len(), "marked row {row} out of range");
            let (block, offset) = self.store.split(row);
            *self.store.byte_lane_mut(block, offset) |= MARK_BIT;
        }
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
        assert!(i < self.len(), "LF position {i} out of range");
        let (block, offset) = self.store.split(i);
        let byte = self.store.byte_lane(block, offset);
        let code = byte & SYMBOL_MASK;
        (
            Symbol::from_code(code),
            self.block_rank(block, code, offset),
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
        // The ten bytes of deltas lead the block's first code line, so the
        // code region's hint covers all five, whichever symbol is asked.
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

    /// The BWT of a random text long enough to cross two superblocks.
    fn long_bwt() -> Vec<Symbol> {
        let mut rng = SeededRng::new(0x0CC);
        let len = 2 * OCC_SAMPLE_RATE * SUPERBLOCK_RATE + 100;
        let bases: Vec<_> = (0..len).map(|_| rng.base()).collect();
        let text = text_from_bases(&bases);
        bwt_from_sa(&text, &suffix_array(&text))
    }

    /// The BWTs the property tests cross: one shorter than a block, and
    /// one over two superblocks.
    fn bwts() -> [Vec<Symbol>; 2] {
        [bwt_of("CATAGACATTAGACCATAGGA"), long_bwt()]
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
                occ.mark_rows((0..bwt.len()).filter(|&i| is_marked(i)));
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
        // 10 header bytes + 54 codes = 64: the spacing is the widest
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
