//! The sampled occurrence table over the *k-step* BWT.
//!
//! The k-step FM-index (paper §III) widens the LF alphabet from single
//! symbols to k-mers: row `i` of the k-BWT holds the k symbols that
//! cyclically precede suffix `SA[i]`, packed into one code over the
//! expanded alphabet of `4^k` base-only k-mers. Contexts that cross the
//! sentinel cannot equal any query k-mer, so they all share a single
//! out-of-alphabet code.
//!
//! Rank is checkpointed every `sample_rate` rows inside cache-line-aligned
//! interleaved blocks (see [`crate::interleave`]): block `b` packs the
//! checkpoint row for prefix `b * sample_rate` together with the
//! `sample_rate` codes it covers, so one `rank` touches one contiguous
//! block. Flat `u32` checkpoint rows dominate memory at k = 4 — 1 KiB of
//! counters ahead of every few hundred bytes of codes — so this revision
//! compresses them *two-level*: sparse absolute `u32` *superblock* rows
//! every [`superblock_rate`](KmerOccTable::superblock_rate) blocks live in
//! a separate (small) array, and each block keeps only narrow
//! [`DeltaWidth`] counters relative to its superblock. A rank reads
//! superblock word + delta lane + the block's code lanes, always forward
//! from the block's own checkpoint and always all of them: the
//! branch-free kernel of [`crate::interleave`] has a fixed trip count.
//! [`KmerOccTable::prefetch_rank`] hints exactly those lines.
//! [`DeltaWidth::U32`] opts back into the flat absolute rows (and skips
//! the superblock array entirely).

use crate::interleave::{AlignedWords, CodeSpan, Divisor};
use crate::layout::{DeltaWidth, HeapBreakdown, IndexError};

/// Checkpointed rank structure over k-BWT codes, interleaved per block.
///
/// Valid codes are `0 .. stride` (k-mer lexicographic ranks); the value
/// `stride` itself marks a sentinel-crossing context and is never ranked.
///
/// Block `b` covers code positions `b * sample_rate ..` and lays out, in
/// bytes:
///
/// ```text
/// [ stride delta counters (u8/u16/u32) | sample_rate codes | pad ]
/// ```
///
/// padded so every block starts on a 64-byte cache-line boundary. Code
/// lanes are one byte when `stride <= 256` and two bytes otherwise. With
/// narrow deltas, absolute rows live in a separate superblock array, one
/// `stride`-word row per `superblock_rate` blocks; with
/// [`DeltaWidth::U32`] the "delta" counters *are* the absolute rows and
/// no superblock array exists.
///
/// One wrinkle at `stride == 256` exactly: the sentinel-crossing marker
/// code (`stride`) does not fit a one-byte lane. Those rows — at most
/// k of them exist — store a placeholder `0` lane and are remembered in
/// a sorted side list; the table counts placeholders like real zeros
/// internally and subtracts the side list from every `rank(0, ..)`
/// answer, keeping checkpoints, scans, and answers consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerOccTable {
    data: AlignedWords,
    /// Absolute checkpoint rows, one `stride`-word group per
    /// `superblock_rate` blocks; empty with [`DeltaWidth::U32`].
    superblocks: AlignedWords,
    /// Words per block, line-rounded.
    block_words: usize,
    /// Bytes of a block taken by its delta (or absolute) counter row;
    /// the code lanes start right behind it.
    delta_bytes: usize,
    /// The cache lines of a block its code lanes occupy.
    span: CodeSpan,
    /// Number of blocks, `len / sample_rate + 1` (the last may cover
    /// fewer than `sample_rate` codes — possibly zero).
    blocks: usize,
    /// Number of code positions (the k-BWT length).
    len: usize,
    /// Size of the expanded alphabet, `4^k`.
    stride: usize,
    sample_rate: Divisor,
    /// Blocks per superblock (absolute checkpoint row).
    superblock_rate: Divisor,
    delta_width: DeltaWidth,
    /// Rows whose one-byte code lane holds a placeholder `0` because the
    /// sentinel marker `256` does not fit it (`stride == 256` only).
    /// Sorted; at most k entries.
    exceptions: Vec<u32>,
    /// Occurrences of every code in the full table: the O(1) answer to
    /// `rank(r, len)`, which every backward search issues on its first
    /// refinement (`hi = n`).
    totals: Vec<u32>,
}

impl KmerOccTable {
    /// Builds the table with checkpoints every `sample_rate` rows,
    /// absolute superblock rows every `superblock_rate` blocks, and
    /// `delta_width` per-block counters ([`DeltaWidth::U32`] means flat
    /// absolute rows; `superblock_rate` is then ignored). Takes the codes
    /// by value: at reference scale they are tens of megabytes, and the
    /// sole builder has no further use for them.
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if the table would overflow its
    /// `u32` counters; [`IndexError::DeltaOverflow`] if some code occurs
    /// more often within one superblock span than `delta_width` can
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`, `superblock_rate == 0`, `stride`
    /// does not fit the code type, or any code exceeds `stride` — all
    /// programming errors of the (internal) caller, not data-dependent
    /// conditions.
    pub fn new(
        codes: Vec<u16>,
        stride: usize,
        sample_rate: usize,
        delta_width: DeltaWidth,
        superblock_rate: usize,
    ) -> Result<KmerOccTable, IndexError> {
        assert!(sample_rate > 0, "sample rate must be positive");
        assert!(superblock_rate > 0, "superblock rate must be positive");
        assert!(
            stride > 0 && stride < u16::MAX as usize,
            "stride {stride} out of range"
        );
        if codes.len() >= u32::MAX as usize {
            return Err(IndexError::IndexTooLarge { rows: codes.len() });
        }
        let len = codes.len();
        let blocks = len / sample_rate + 1;
        let code_bytes: usize = if stride > 256 { 2 } else { 1 };
        // Two-byte code lanes are indexed as u16 halves, so the delta row
        // must end on an even byte (strides that need padding here are
        // exotic: real strides are powers of four).
        let delta_bytes = (stride * delta_width.bytes()).next_multiple_of(code_bytes);
        let block_words = (delta_bytes + sample_rate * code_bytes)
            .div_ceil(4)
            .next_multiple_of(crate::interleave::WORDS_PER_LINE);
        let groups = if delta_width.is_absolute() {
            0
        } else {
            blocks.div_ceil(superblock_rate)
        };
        let mut data = AlignedWords::zeroed(blocks * block_words);
        let mut superblocks = AlignedWords::zeroed(groups * stride);
        let mut running = vec![0u32; stride];
        let mut group_row = vec![0u32; stride];
        let mut exceptions: Vec<u32> = Vec::new();
        // `stride` (the sentinel marker) does not fit a one-byte lane
        // only when stride == 256 exactly; see the struct docs.
        let masked_marker = stride == 256;

        for block in 0..blocks {
            // The checkpoint row for prefix `block * sample_rate`: counts
            // accumulated so far, absolute or relative to the superblock.
            let base = block * block_words;
            if delta_width.is_absolute() {
                data.words_mut()[base..base + stride].copy_from_slice(&running);
            } else {
                if block % superblock_rate == 0 {
                    let g = (block / superblock_rate) * stride;
                    superblocks.words_mut()[g..g + stride].copy_from_slice(&running);
                    group_row.copy_from_slice(&running);
                }
                let max = delta_width.max_delta();
                for (code, (&now, &at_group)) in running.iter().zip(group_row.iter()).enumerate() {
                    let delta = now - at_group;
                    if delta > max {
                        return Err(IndexError::DeltaOverflow {
                            block,
                            code,
                            delta,
                            max,
                        });
                    }
                    match delta_width {
                        DeltaWidth::U8 => data.bytes_mut()[base * 4 + code] = delta as u8,
                        _ => data.halves_mut()[base * 2 + code] = delta as u16,
                    }
                }
            }
            // The codes this block covers, as plain narrow lanes behind
            // the counter row.
            let code_base = base * 4 + delta_bytes;
            let lo = block * sample_rate;
            let hi = (lo + sample_rate).min(len);
            for (offset, &c) in codes[lo..hi].iter().enumerate() {
                assert!((c as usize) <= stride, "code {c} exceeds stride {stride}");
                if code_bytes == 2 {
                    data.halves_mut()[code_base / 2 + offset] = c;
                } else if masked_marker && c as usize == stride {
                    exceptions.push((lo + offset) as u32);
                    // Placeholder 0 lane; counted like a real zero below
                    // so stored counts match what scans see.
                } else {
                    data.bytes_mut()[code_base + offset] = c as u8;
                }
                if (c as usize) < stride {
                    running[c as usize] += 1;
                } else if masked_marker {
                    running[0] += 1;
                }
            }
        }
        exceptions.shrink_to_fit();
        let mut totals = running;
        // `totals` answers rank(r, len) directly, so it stores *true*
        // counts: placeholders are not occurrences of code 0.
        totals[0] -= exceptions.len() as u32;
        Ok(KmerOccTable {
            data,
            superblocks,
            block_words,
            delta_bytes,
            span: CodeSpan::new(block_words, delta_bytes, sample_rate * code_bytes),
            blocks,
            len,
            stride,
            sample_rate: Divisor::new(sample_rate),
            superblock_rate: Divisor::new(superblock_rate),
            delta_width,
            exceptions,
            totals,
        })
    }

    /// Number of rows (the k-BWT length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the table covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The expanded-alphabet size `4^k` this table was built with.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The checkpoint spacing this table was built with.
    pub fn sample_rate(&self) -> usize {
        self.sample_rate.get()
    }

    /// The per-block checkpoint counter width this table was built with.
    pub fn delta_width(&self) -> DeltaWidth {
        self.delta_width
    }

    /// Blocks per absolute superblock row (meaningless — and unused —
    /// with [`DeltaWidth::U32`]).
    pub fn superblock_rate(&self) -> usize {
        self.superblock_rate.get()
    }

    /// `true` iff code lanes are two bytes wide (`stride > 256`).
    #[inline]
    fn wide_codes(&self) -> bool {
        self.stride > 256
    }

    /// The k-BWT code at row `i` (`stride` for sentinel-crossing contexts).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn code(&self, i: usize) -> u16 {
        assert!(i < self.len, "code position {i} out of range");
        if !self.exceptions.is_empty() && self.exceptions.binary_search(&(i as u32)).is_ok() {
            return self.stride as u16;
        }
        let (block, offset) = self.sample_rate.div_rem(i);
        let code_base = block * self.block_words * 4 + self.delta_bytes;
        if self.wide_codes() {
            self.data.halves()[code_base / 2 + offset]
        } else {
            u16::from(self.data.bytes()[code_base + offset])
        }
    }

    /// The absolute (physical) count of code `r` at `block`'s checkpoint:
    /// the `u32` row directly, or superblock word + narrow delta.
    #[inline]
    fn checkpoint(&self, block: usize, r: usize) -> u32 {
        let base = block * self.block_words;
        match self.delta_width {
            DeltaWidth::U32 => self.data.words()[base + r],
            DeltaWidth::U16 => {
                self.superblocks.words()[self.superblock_word(block, r)]
                    + u32::from(self.data.halves()[base * 2 + r])
            }
            DeltaWidth::U8 => {
                self.superblocks.words()[self.superblock_word(block, r)]
                    + u32::from(self.data.bytes()[base * 4 + r])
            }
        }
    }

    /// Index of the absolute superblock counter `block`'s checkpoint is
    /// relative to.
    #[inline]
    fn superblock_word(&self, block: usize, r: usize) -> usize {
        self.superblock_rate.div_rem(block).0 * self.stride + r
    }

    /// For each of `offsets`, the physical count of code `r` in rows
    /// `0 .. block * sample_rate + offset`: `block`'s checkpoint plus one
    /// pass of the rank kernel over its code lanes.
    #[inline]
    fn block_ranks<const N: usize>(&self, block: usize, r: u16, offsets: [usize; N]) -> [u32; N] {
        let below = if self.wide_codes() {
            self.data.prefix_counts_wide(self.span, block, r, offsets)
        } else {
            // r < stride <= 256, and at stride 256 a code uses all eight
            // bits of its lane: no mask.
            self.data
                .prefix_counts::<{ u8::MAX }, N>(self.span, block, r as u8, offsets)
        };
        let checkpoint = self.checkpoint(block, r as usize);
        below.map(|count| checkpoint + count)
    }

    /// Corrects a physical count (which treats placeholder lanes as code
    /// 0) down to the true rank of `r` in `0..i`. Free unless `r == 0`
    /// on a table that actually has exceptions.
    #[inline]
    fn corrected(&self, physical: u32, r: u16, i: usize) -> u32 {
        if r == 0 && !self.exceptions.is_empty() {
            physical - self.exceptions.partition_point(|&e| (e as usize) < i) as u32
        } else {
            physical
        }
    }

    /// `Occ_k(r, i)`: occurrences of k-mer code `r` in rows `0..i`
    /// (exclusive of `i`), counted forward from the block's checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()` or `r` is not a valid k-mer code.
    #[inline]
    pub fn rank(&self, r: u16, i: usize) -> u32 {
        assert!(i <= self.len, "rank position {i} out of range");
        assert!((r as usize) < self.stride, "code {r} out of alphabet");
        if i == self.len {
            return self.totals[r as usize];
        }
        if i == 0 {
            return 0; // every search's first `lo`
        }
        let (block, offset) = self.sample_rate.div_rem(i);
        let [physical] = self.block_ranks(block, r, [offset]);
        self.corrected(physical, r, i)
    }

    /// `(rank(r, lo), rank(r, hi))` in one pass: when both positions fall
    /// in the same block — the common case once a backward search has
    /// narrowed its interval below `sample_rate` — one run of the kernel
    /// over the block answers both.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `hi > self.len()`, or `r` is invalid.
    #[inline]
    pub fn rank_pair(&self, r: u16, lo: usize, hi: usize) -> (u32, u32) {
        assert!(lo <= hi, "rank pair {lo}..{hi} inverted");
        if hi >= self.len {
            return (self.rank(r, lo), self.rank(r, hi));
        }
        let (block, offset_lo) = self.sample_rate.div_rem(lo);
        let (block_hi, offset_hi) = self.sample_rate.div_rem(hi);
        if block != block_hi {
            return (self.rank(r, lo), self.rank(r, hi));
        }
        assert!((r as usize) < self.stride, "code {r} out of alphabet");
        let [at_lo, at_hi] = self.block_ranks(block, r, [offset_lo, offset_hi]);
        (self.corrected(at_lo, r, lo), self.corrected(at_hi, r, hi))
    }

    /// Hints the CPU to pull every line a later `rank(r, i)` will read
    /// toward L1: the line of its checkpoint counter (plus, two-level,
    /// the superblock word it is relative to) and all of the block's code
    /// lines. Never faults; a no-op off x86-64 and for the `i == len`
    /// totals fast path.
    #[inline]
    pub fn prefetch_rank(&self, r: u16, i: usize) {
        if i < self.len {
            self.prefetch_block(self.sample_rate.div_rem(i).0, r);
        }
    }

    /// [`KmerOccTable::prefetch_rank`] for both ends of an interval, as
    /// later consumed by a `rank_pair(r, lo, hi)`: one block's lines when
    /// the ends share it, two blocks' otherwise.
    #[inline]
    pub fn prefetch_rank_pair(&self, r: u16, lo: usize, hi: usize) {
        self.prefetch_rank(r, lo);
        if lo <= hi
            && hi < self.len
            && self.sample_rate.div_rem(hi).0 != self.sample_rate.div_rem(lo).0
        {
            self.prefetch_rank(r, hi);
        }
    }

    /// Hints the lines `block_ranks(block, r, ..)` will read.
    #[inline]
    fn prefetch_block(&self, block: usize, r: u16) {
        let r = (r as usize).min(self.stride - 1);
        let base = block * self.block_words;
        match self.delta_width {
            DeltaWidth::U32 => self.data.prefetch(base + r),
            DeltaWidth::U16 => {
                self.data.prefetch(base + r / 2);
                self.superblocks.prefetch(self.superblock_word(block, r));
            }
            DeltaWidth::U8 => {
                self.data.prefetch(base + r / 4);
                self.superblocks.prefetch(self.superblock_word(block, r));
            }
        }
        self.data.prefetch_span(self.span, block);
    }

    /// Heap bytes attributed to checkpoints (absolute rows), deltas,
    /// and code lanes. Exact: `total()` is the allocation-true footprint.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        let delta_total = self.blocks * self.delta_bytes;
        let (checkpoints, deltas) = if self.delta_width.is_absolute() {
            (delta_total, 0)
        } else {
            (self.superblocks.heap_bytes(), delta_total)
        };
        HeapBreakdown {
            k_occ_checkpoints: checkpoints,
            k_occ_deltas: deltas,
            k_occ_codes: self.data.heap_bytes() - delta_total + self.totals.capacity() * 4,
            other: self.exceptions.capacity() * 4,
            ..HeapBreakdown::default()
        }
    }

    /// Heap bytes of the interleaved blocks, superblock rows, and the
    /// totals row.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

/// Reference O(n) rank used to validate the checkpointed table in tests.
pub fn naive_krank(codes: &[u16], r: u16, i: usize) -> u32 {
    codes[..i].iter().filter(|&&c| c == r).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every layout the property tests cross: the absolute baseline plus
    /// {u8, u16} deltas x {2, 8, 64} superblock spacings.
    const LAYOUTS: [(DeltaWidth, usize); 7] = [
        (DeltaWidth::U32, 16),
        (DeltaWidth::U8, 2),
        (DeltaWidth::U8, 8),
        (DeltaWidth::U8, 64),
        (DeltaWidth::U16, 2),
        (DeltaWidth::U16, 8),
        (DeltaWidth::U16, 64),
    ];

    /// A small deterministic code stream over a stride-9 alphabet with some
    /// out-of-alphabet (sentinel-crossing) entries.
    fn fixture(len: usize, stride: u16) -> Vec<u16> {
        (0..len)
            .map(|i| {
                let x = (i * 7 + i / 3) % (stride as usize + 1);
                x as u16
            })
            .collect()
    }

    fn build(codes: Vec<u16>, stride: usize, rate: usize) -> KmerOccTable {
        KmerOccTable::new(codes, stride, rate, DeltaWidth::U16, 16).unwrap()
    }

    #[test]
    fn rank_matches_naive_across_widths_spacings_and_rates() {
        let codes = fixture(137, 9);
        for (width, sb) in LAYOUTS {
            for rate in [1, 5, 44, 200] {
                let occ = KmerOccTable::new(codes.clone(), 9, rate, width, sb).unwrap();
                for i in 0..=codes.len() {
                    for r in 0..9u16 {
                        assert_eq!(
                            occ.rank(r, i),
                            naive_krank(&codes, r, i),
                            "{width}/sb{sb}, rate {rate}, code {r}, prefix {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_pair_matches_naive_across_widths_spacings_and_rates() {
        let codes = fixture(137, 9);
        for (width, sb) in LAYOUTS {
            for rate in [1, 5, 44, 200] {
                let occ = KmerOccTable::new(codes.clone(), 9, rate, width, sb).unwrap();
                for lo in 0..=codes.len() {
                    for hi in lo..=codes.len() {
                        for r in [0u16, 3, 8] {
                            assert_eq!(
                                occ.rank_pair(r, lo, hi),
                                (naive_krank(&codes, r, lo), naive_krank(&codes, r, hi)),
                                "{width}/sb{sb}, rate {rate}, code {r}, interval {lo}..{hi}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The rank of `r` at `offset` lanes into `block`, once per byte
    /// kernel, each called directly.
    fn ranks_by_kernel(
        occ: &KmerOccTable,
        block: usize,
        r: u16,
        offset: usize,
    ) -> Vec<(&'static str, u32)> {
        let row = block * occ.sample_rate() + offset;
        let checkpoint = occ.checkpoint(block, r as usize);
        occ.data
            .prefix_counts_by_kernel::<{ u8::MAX }, 1>(occ.span, block, r as u8, [offset])
            .into_iter()
            .map(|(kernel, [below])| (kernel, occ.corrected(checkpoint + below, r, row)))
            .collect()
    }

    #[test]
    fn every_kernel_matches_naive_at_every_offset_of_every_block() {
        // Both byte kernels, called directly: every offset 0..=rate of
        // every block (the last one short, its zero padding lanes never
        // counted for code 0), line-aligned and unaligned code regions,
        // one-line and many-line blocks, and at stride 256 the
        // placeholder lanes of the marker rows.
        for stride in [4usize, 9, 256] {
            // At stride 256 a code uses all eight bits of its lane: every
            // other row's code differs from a low one only in bit 7, the
            // bit the 1-step table's readers mask off, so a mask that
            // leaked into this table's kernel would merge the two.
            let codes: Vec<u16> = if stride == 256 {
                (0..1100)
                    .map(|i| {
                        if i % 151 == 3 {
                            256
                        } else {
                            (i * 31 + i / 7) % 3 + (i % 2) * 128
                        }
                    })
                    .collect()
            } else {
                fixture(1100, stride as u16)
            };
            for rate in [1usize, 5, 16, 44, 54, 200, 256, 512] {
                for width in [DeltaWidth::U8, DeltaWidth::U16, DeltaWidth::U32] {
                    // u8 deltas need short superblock spans to build.
                    let sb = if width == DeltaWidth::U8 {
                        (300 / rate).clamp(1, 8)
                    } else {
                        2
                    };
                    let occ = KmerOccTable::new(codes.clone(), stride, rate, width, sb).unwrap();
                    for block in 0..=codes.len() / rate {
                        let covered = rate.min(codes.len() - block * rate);
                        for offset in 0..=covered {
                            // 130 is 2 with bit 7 set (a no-op repeat of
                            // the last code on the small strides).
                            for r in [0, 2, 130.min(stride - 1), stride - 1].map(|r| r as u16) {
                                let expect = naive_krank(&codes, r, block * rate + offset);
                                for (kernel, got) in ranks_by_kernel(&occ, block, r, offset) {
                                    assert_eq!(
                                        got, expect,
                                        "{kernel}: stride {stride}, rate {rate}, {width}/sb{sb}, \
                                         code {r}, block {block}, offset {offset}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rank_pair_straddling_block_and_superblock_boundaries() {
        let codes = fixture(1100, 9);
        for (width, sb) in LAYOUTS {
            for rate in [5usize, 44, 200] {
                let occ = KmerOccTable::new(codes.clone(), 9, rate, width, sb).unwrap();
                // Every block boundary, hence every superblock boundary:
                // intervals ending on it, starting on it and crossing it.
                for boundary in (rate..codes.len()).step_by(rate) {
                    for (lo, hi) in [
                        (boundary - 1, boundary),
                        (boundary, boundary + 1),
                        (boundary - 1, boundary + 1),
                        (boundary - rate, boundary),
                        (
                            boundary.saturating_sub(rate + 1),
                            (boundary + rate).min(codes.len()),
                        ),
                    ] {
                        for r in [0u16, 4, 8] {
                            assert_eq!(
                                occ.rank_pair(r, lo, hi),
                                (naive_krank(&codes, r, lo), naive_krank(&codes, r, hi)),
                                "{width}/sb{sb}, rate {rate}, code {r}, interval {lo}..{hi}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn codes_round_trip_through_the_interleaved_layout() {
        let codes = fixture(137, 9);
        for (width, sb) in LAYOUTS {
            for rate in [1, 2, 5, 16, 200] {
                let occ = KmerOccTable::new(codes.clone(), 9, rate, width, sb).unwrap();
                for (i, &c) in codes.iter().enumerate() {
                    assert_eq!(occ.code(i), c, "{width}/sb{sb}, rate {rate}, position {i}");
                }
            }
        }
    }

    #[test]
    fn wide_strides_use_two_byte_code_lanes() {
        // stride 1024 (k = 5) forces u16 lanes; markers store literally.
        let codes: Vec<u16> = (0..300).map(|i| (i * 37) % 1025).collect();
        for (width, sb) in [(DeltaWidth::U16, 8), (DeltaWidth::U32, 16)] {
            let occ = KmerOccTable::new(codes.clone(), 1024, 7, width, sb).unwrap();
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(occ.code(i), c, "{width}, position {i}");
            }
            for r in [0u16, 36, 1023] {
                for i in 0..=codes.len() {
                    assert_eq!(occ.rank(r, i), naive_krank(&codes, r, i), "{width}");
                }
            }
        }
    }

    #[test]
    fn invalid_codes_are_stored_but_never_counted() {
        let occ = build(vec![0u16, 4, 1, 4, 2], 4, 2);
        assert_eq!(occ.code(1), 4);
        assert_eq!(occ.rank(0, 5), 1);
        assert_eq!(occ.rank(1, 5), 1);
        assert_eq!(occ.rank(2, 5), 1);
        assert_eq!(occ.rank(3, 5), 0);
    }

    #[test]
    fn stride_256_markers_round_trip_and_never_count() {
        // At stride 256 the marker (256) does not fit a byte lane and
        // takes the exception path: placeholder-0 lanes, corrected ranks.
        let codes: Vec<u16> = (0..600)
            .map(|i| if i % 151 == 3 { 256 } else { (i * 31) % 256 })
            .collect();
        for (width, sb) in LAYOUTS {
            let occ = KmerOccTable::new(codes.clone(), 256, 7, width, sb).unwrap();
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(occ.code(i), c, "{width}/sb{sb}, position {i}");
            }
            // Code 0 is the corrected path; spot-check others too.
            for r in [0u16, 1, 93, 255] {
                for i in 0..=codes.len() {
                    assert_eq!(
                        occ.rank(r, i),
                        naive_krank(&codes, r, i),
                        "{width}/sb{sb}, code {r}, prefix {i}"
                    );
                }
                for lo in (0..codes.len()).step_by(41) {
                    for hi in (lo..=codes.len()).step_by(13) {
                        assert_eq!(
                            occ.rank_pair(r, lo, hi),
                            (naive_krank(&codes, r, lo), naive_krank(&codes, r, hi)),
                            "{width}/sb{sb}, code {r}, interval {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_marker_rows_still_build() {
        // A text shorter than k makes *every* row sentinel-crossing.
        let occ = KmerOccTable::new(vec![256, 256, 256], 256, 2, DeltaWidth::U16, 16).unwrap();
        assert_eq!(occ.code(1), 256);
        for r in [0u16, 255] {
            assert_eq!(occ.rank(r, 3), 0);
        }
    }

    #[test]
    fn delta_saturating_exactly_at_the_width_still_builds() {
        // 255 zeros then a tail: at rate 5 the block-52 checkpoint stores
        // delta 255 for code 0 — exactly u8::MAX, the last legal value.
        let mut codes = vec![0u16; 255];
        codes.extend([1, 1, 1, 1, 1]);
        let occ = KmerOccTable::new(codes.clone(), 4, 5, DeltaWidth::U8, 64).unwrap();
        for i in 0..=codes.len() {
            assert_eq!(occ.rank(0, i), naive_krank(&codes, 0, i), "prefix {i}");
            assert_eq!(occ.rank(1, i), naive_krank(&codes, 1, i), "prefix {i}");
        }
    }

    #[test]
    fn delta_overflowing_just_before_the_superblock_is_a_typed_error() {
        // One more zero: the block-52 delta becomes 256, which u8 cannot
        // store, and block 52 is still 12 blocks shy of the superblock
        // boundary at 64.
        let mut codes = vec![0u16; 256];
        codes.extend([1, 1, 1, 1]);
        let err = KmerOccTable::new(codes, 4, 5, DeltaWidth::U8, 64).unwrap_err();
        assert_eq!(
            err,
            IndexError::DeltaOverflow {
                block: 52,
                code: 0,
                delta: 256,
                max: 255,
            }
        );
    }

    #[test]
    fn tighter_superblocks_absorb_the_same_overflow() {
        // The same 256-zero text builds when the superblock boundary
        // lands at block 52: the delta resets there instead of saturating.
        let mut codes = vec![0u16; 256];
        codes.extend([1, 1, 1, 1]);
        let occ = KmerOccTable::new(codes.clone(), 4, 5, DeltaWidth::U8, 52).unwrap();
        for i in 0..=codes.len() {
            assert_eq!(occ.rank(0, i), naive_krank(&codes, 0, i), "prefix {i}");
        }
    }

    #[test]
    fn prefetch_is_a_safe_no_op_everywhere() {
        for (width, sb) in LAYOUTS {
            let occ = KmerOccTable::new(fixture(137, 9), 9, 16, width, sb).unwrap();
            for i in [0usize, 1, 16, 136, 137, 500] {
                for r in 0..9u16 {
                    occ.prefetch_rank(r, i); // must never fault or panic
                    occ.prefetch_rank_pair(r, i / 2, i);
                }
            }
        }
        let occ = build(fixture(137, 9), 9, 16);
        assert_eq!(occ.rank(3, 137), naive_krank(&fixture(137, 9), 3, 137));
    }

    #[test]
    fn coarser_sampling_uses_less_memory() {
        let codes = fixture(4096, 16);
        let fine = build(codes.clone(), 16, 4);
        let coarse = build(codes, 16, 256);
        assert!(coarse.heap_bytes() < fine.heap_bytes());
    }

    #[test]
    fn narrow_deltas_use_less_memory_than_absolute_rows() {
        let codes = fixture(8192, 256);
        let flat = KmerOccTable::new(codes.clone(), 256, 44, DeltaWidth::U32, 16).unwrap();
        let two_level = KmerOccTable::new(codes.clone(), 256, 44, DeltaWidth::U16, 16).unwrap();
        let tight = KmerOccTable::new(codes, 256, 44, DeltaWidth::U8, 16).unwrap();
        assert!(two_level.heap_bytes() < flat.heap_bytes());
        assert!(tight.heap_bytes() < two_level.heap_bytes());
    }

    #[test]
    fn heap_breakdown_is_exact() {
        // stride 4, rate 3, u16 deltas, superblocks every 2 blocks:
        // 8 delta bytes + 3 code bytes = 11 -> one line per block;
        // 10 codes at rate 3 -> 4 blocks; 2 superblock groups of 4 words
        // round to one 64-byte line; totals is 4 words.
        let occ = KmerOccTable::new(fixture(10, 4), 4, 3, DeltaWidth::U16, 2).unwrap();
        let heap = occ.heap_breakdown();
        assert_eq!(heap.k_occ_checkpoints, 64);
        assert_eq!(heap.k_occ_deltas, 4 * 8);
        assert_eq!(heap.k_occ_codes, 4 * 64 - 4 * 8 + 4 * 4);
        assert_eq!(heap.other, 0);
        assert_eq!(heap.total(), occ.heap_bytes());

        // The absolute layout books every row as checkpoints, no deltas,
        // and allocates no superblocks: 16 delta bytes + 3 code bytes.
        let flat = KmerOccTable::new(fixture(10, 4), 4, 3, DeltaWidth::U32, 2).unwrap();
        let heap = flat.heap_breakdown();
        assert_eq!(heap.k_occ_checkpoints, 4 * 16);
        assert_eq!(heap.k_occ_deltas, 0);
        assert_eq!(heap.total(), flat.heap_bytes());
        assert_eq!(heap.total(), 4 * 64 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_end_panics() {
        let occ = build(vec![0, 1, 2], 4, 2);
        let _ = occ.rank(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of alphabet")]
    fn rank_of_invalid_code_panics() {
        let occ = build(vec![0, 1, 2], 4, 2);
        let _ = occ.rank(4, 2);
    }
}
