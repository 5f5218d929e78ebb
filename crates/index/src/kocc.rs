//! The sampled occurrence table over the *k-step* BWT.
//!
//! The k-step FM-index (paper §III) widens the LF alphabet from single
//! symbols to k-mers: row `i` of the k-BWT holds the k symbols that
//! cyclically precede suffix `SA[i]`, packed into one code over the
//! expanded alphabet of `4^k` base-only k-mers. Contexts that cross the
//! sentinel cannot equal any query k-mer: they are the rows of the text
//! positions below k — the *marker rows*, at most k of them — which the
//! table keeps as a side list and never counts. The step width stops at
//! [`MAX_STEP`] = 4, so every other code is one byte in the table and the
//! C-array over the expanded alphabet is at most 256 words (1 KiB).
//!
//! Rank is checkpointed once every [`crate::layout::K_OCC_SAMPLE_RATE`]
//! rows, whatever `k`, inside cache-line-aligned interleaved blocks (see
//! [`crate::interleave`]): each block packs the checkpoint row for its
//! middle row between the codes of its lower half and those of its upper
//! half, so one `rank` touches one contiguous half-block and its
//! checkpoint. Absolute `u32` checkpoint rows would dominate memory at
//! k = 4 — 1 KiB of counters for every kilobyte of codes — so rows are
//! stored *two-level*: sparse absolute `u32` *superblock* rows every
//! [`crate::layout::SUPERBLOCK_RATE`] blocks live behind the last block,
//! and each block keeps only `u16` deltas relative to its superblock. A
//! rank reads the superblock word, the delta lane and the code lanes of
//! the half its row lies in, always all of them: the branch-free kernel
//! of [`crate::interleave`] has a fixed trip count. An upper-half rank
//! adds the matches from the middle up to the row, a lower-half rank
//! subtracts those from the row up to the middle; the lower half's lanes
//! run down from the middle, so both count a prefix of their half.
//! [`KmerOccTable::prefetch_rank`] hints exactly those lines.

use crate::interleave::BlockStore;
use crate::kstep::MAX_STEP;
use crate::layout::{HeapBreakdown, IndexError};

/// Checkpointed rank structure over k-BWT codes, interleaved per block.
///
/// Codes are `0 .. stride` (k-mer lexicographic ranks, `stride` = `4^k`);
/// the marker rows hold no code.
///
/// With `rate` = [`crate::layout::K_OCC_SAMPLE_RATE`], block `b` covers code positions
/// `b * rate ..` and lays out, in bytes:
///
/// ```text
/// [ rate/2 codes, last row first | stride u16 delta counters | pad | rate/2 codes ]
/// ```
///
/// padded so every block and both halves start on a 64-byte cache-line
/// boundary; the counters are those of the rows before the block's
/// middle row, `b * rate + rate/2`. Code lanes are one byte: `k` is at most
/// [`MAX_STEP`] = 4, so every k-mer code is below 256. Absolute rows live
/// behind the last block, one `stride`-word row per
/// [`crate::layout::SUPERBLOCK_RATE`] blocks.
///
/// A marker row's lane holds a placeholder `0`: the table counts it like
/// a real zero internally and subtracts the marker rows below `i` from
/// every `rank(0, i)` answer, keeping checkpoints, scans, and answers
/// consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerOccTable {
    /// Checkpoint rows of `stride` counters (the expanded alphabet,
    /// `4^k`) over the code lanes.
    store: BlockStore,
    /// The marker rows, whose lane holds a placeholder `0`. Sorted; at
    /// most k entries.
    markers: Vec<u32>,
    /// Occurrences of every code in the full table: the O(1) answer to
    /// `rank(r, len)`, which every backward search issues on its first
    /// refinement (`hi = n`).
    totals: Vec<u32>,
}

impl KmerOccTable {
    /// The code lanes of a table of step width `k` over `rows` rows, all
    /// zero and not yet counted: the caller writes every row's k-BWT code
    /// into them ([`BlockStore::set_lanes`]) — a placeholder `0` at each
    /// marker row — and hands them to [`KmerOccTable::from_lanes`]. The
    /// codes have no other home: a build writes them off the suffix
    /// array's buffer, a load off the snapshot file.
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if the table would overflow its
    /// `u32` counters.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or greater than [`MAX_STEP`].
    pub(crate) fn lanes(rows: usize, k: usize) -> Result<BlockStore, IndexError> {
        assert!(
            (1..=MAX_STEP).contains(&k),
            "k must be in 1..={MAX_STEP}, got {k}"
        );
        BlockStore::zeroed(1 << (2 * k), rows)
    }

    /// The table over filled [`KmerOccTable::lanes`] and the sorted
    /// `markers`: its checkpoints, every
    /// [`crate::layout::K_OCC_SAMPLE_RATE`] rows, counted off the lanes in
    /// one pass.
    ///
    /// # Panics
    ///
    /// Panics if a code is not below `4^k`, or a marker row is out of
    /// order, out of range or not a placeholder — programming errors of
    /// the (internal) callers, not data-dependent conditions.
    pub(crate) fn from_lanes(mut lanes: BlockStore, mut markers: Vec<u32>) -> KmerOccTable {
        assert!(
            markers.windows(2).all(|pair| pair[0] < pair[1])
                && markers
                    .iter()
                    .all(|&row| (row as usize) < lanes.len() && lanes.lane(row as usize) == 0),
            "marker rows {markers:?} are not sorted placeholder rows"
        );
        let mut totals = lanes.count_checkpoints();
        // `totals` answers rank(r, len) directly, so it stores *true*
        // counts: placeholders are not occurrences of code 0.
        totals[0] -= markers.len() as u32;
        markers.shrink_to_fit();
        KmerOccTable {
            store: lanes,
            markers,
            totals,
        }
    }

    /// Number of rows (the k-BWT length).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` iff the table covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The expanded-alphabet size `4^k` this table was built with.
    #[inline]
    pub fn stride(&self) -> usize {
        self.store.lanes()
    }

    /// The k-BWT code at row `i`, `None` at a marker row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn code(&self, i: usize) -> Option<u8> {
        assert!(i < self.len(), "code position {i} out of range");
        if self.markers.contains(&(i as u32)) {
            return None;
        }
        Some(self.store.lane(i))
    }

    /// The sorted marker rows (the rows of the text positions below k).
    pub(crate) fn markers(&self) -> &[u32] {
        &self.markers
    }

    /// Hands `f` every row's code in row order, a half-block's run at a
    /// time, with the placeholder `0` at the marker rows — the stream the
    /// table was built from — and stops at the first error `f` returns.
    pub(crate) fn try_for_each_code_run<E>(
        &self,
        f: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.store.try_for_each_run(f)
    }

    /// The physical counts of code `r` in the rows before each of the
    /// rows whose `counts` the kernel took in half-block `half` — the
    /// matches between the block's middle and the row: the checkpoint at
    /// the middle plus them in an upper half, less them in a lower one.
    /// Which half is arithmetic, not a branch.
    #[inline]
    fn around_middle<const N: usize>(&self, half: usize, r: u16, counts: [u32; N]) -> [u32; N] {
        let checkpoint = self.store.checkpoint(half / 2, r as usize);
        // All ones in a lower half: `count ^ minus - minus` is `-count`.
        let minus = 0u32.wrapping_sub(((half & 1) ^ 1) as u32);
        counts.map(|count| checkpoint.wrapping_add((count ^ minus).wrapping_sub(minus)))
    }

    /// Corrects a physical count (which treats placeholder lanes as code
    /// 0) down to the true rank of `r` in `0..i`. Free unless `r == 0`.
    #[inline]
    fn corrected(&self, physical: u32, r: u16, i: usize) -> u32 {
        if r == 0 {
            physical - self.markers.partition_point(|&e| (e as usize) < i) as u32
        } else {
            physical
        }
    }

    /// `Occ_k(r, i)`: occurrences of k-mer code `r` in rows `0..i`
    /// (exclusive of `i`), counted from the checkpoint at the middle of
    /// the row's block over the half the row lies in.
    ///
    /// # Panics
    ///
    /// Panics if `i > self.len()` or `r` is not a valid k-mer code.
    #[inline]
    pub fn rank(&self, r: u16, i: usize) -> u32 {
        assert!(i <= self.len(), "rank position {i} out of range");
        assert!((r as usize) < self.stride(), "code {r} out of alphabet");
        if i == self.len() {
            return self.totals[r as usize];
        }
        if i == 0 {
            return 0; // every search's first `lo`
        }
        let (half, offset) = self.store.split(i);
        let reach = self.store.reach(half, offset);
        // r < stride <= 256: a code is one byte lane.
        let counts = self.store.prefix_counts(half, r as u8, [reach]);
        let [physical] = self.around_middle(half, r, counts);
        self.corrected(physical, r, i)
    }

    /// `(rank(r, lo), rank(r, hi))` in one pass: when both positions fall
    /// in the same half-block — the common case once a backward search
    /// has narrowed its interval below a half-block's 512 rows — one
    /// run of the kernel over the half answers both; ends in two halves,
    /// across a block's middle or edge, take one run each.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `hi > self.len()`, or `r` is invalid.
    #[inline]
    pub fn rank_pair(&self, r: u16, lo: usize, hi: usize) -> (u32, u32) {
        assert!(lo <= hi, "rank pair {lo}..{hi} inverted");
        if hi >= self.len() {
            return (self.rank(r, lo), self.rank(r, hi));
        }
        let (half, offset_lo) = self.store.split(lo);
        let (half_hi, offset_hi) = self.store.split(hi);
        if half != half_hi {
            return (self.rank(r, lo), self.rank(r, hi));
        }
        assert!((r as usize) < self.stride(), "code {r} out of alphabet");
        let reaches = [offset_lo, offset_hi].map(|offset| self.store.reach(half, offset));
        let counts = self.store.prefix_counts(half, r as u8, reaches);
        let [at_lo, at_hi] = self.around_middle(half, r, counts);
        (self.corrected(at_lo, r, lo), self.corrected(at_hi, r, hi))
    }

    /// Hints the CPU to pull every line a later `rank(r, i)` will read
    /// toward L1: the line of its delta counter, the superblock word it
    /// is relative to, and all of the code lines of the half-block the
    /// row lies in. Never faults; a no-op off x86-64 and for the
    /// `i == len` totals fast path.
    #[inline]
    pub fn prefetch_rank(&self, r: u16, i: usize) {
        if i < self.len() {
            let (half, lane) = (self.store.split(i).0, (r as usize).min(self.stride() - 1));
            self.store.prefetch_delta(half / 2, lane);
            self.store.prefetch_half(half, lane);
        }
    }

    /// [`KmerOccTable::prefetch_rank`] for both ends of an interval, as
    /// later consumed by a `rank_pair(r, lo, hi)`: one half-block's lines
    /// when the ends share it, two halves' otherwise.
    #[inline]
    pub fn prefetch_rank_pair(&self, r: u16, lo: usize, hi: usize) {
        self.prefetch_rank(r, lo);
        if lo <= hi && hi < self.len() && self.store.split(hi).0 != self.store.split(lo).0 {
            self.prefetch_rank(r, hi);
        }
    }

    /// Heap bytes attributed to checkpoints (absolute superblock rows),
    /// deltas, and code lanes. Exact: `total()` is the allocation-true
    /// footprint.
    pub fn heap_breakdown(&self) -> HeapBreakdown {
        let [checkpoints, deltas, codes] = self.store.heap_split();
        HeapBreakdown {
            k_occ_checkpoints: checkpoints,
            k_occ_deltas: deltas,
            k_occ_codes: codes + self.totals.capacity() * 4,
            other: self.markers.capacity() * 4,
            ..HeapBreakdown::default()
        }
    }

    /// Heap bytes of the interleaved blocks, superblock rows, and the
    /// totals row.
    pub fn heap_bytes(&self) -> usize {
        self.heap_breakdown().total()
    }
}

/// Reference O(n) rank used to validate the checkpointed table in tests:
/// the rows below `i` whose code is `r` (`None` marks a marker row).
pub fn naive_krank(codes: &[Option<u8>], r: u16, i: usize) -> u32 {
    codes[..i]
        .iter()
        .filter(|&&c| c.map(u16::from) == Some(r))
        .count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{K_OCC_SAMPLE_RATE, SUPERBLOCK_RATE};

    /// A small deterministic code stream over the `4^k` codes of width
    /// `k` and marker rows (`None`).
    fn fixture(len: usize, k: usize) -> Vec<Option<u8>> {
        let stride = 1 << (2 * k);
        (0..len)
            .map(|i| u8::try_from((i * 7 + i / 3) % (stride + 1)).ok())
            .map(|c| c.filter(|&c| usize::from(c) < stride))
            .collect()
    }

    /// The table over `codes`: a placeholder `0` and a side-list entry at
    /// every marker row.
    fn table(codes: &[Option<u8>], k: usize) -> KmerOccTable {
        let mut lanes = KmerOccTable::lanes(codes.len(), k).unwrap();
        let placeholders: Vec<u8> = codes.iter().map(|c| c.unwrap_or(0)).collect();
        lanes.set_lanes(0, &placeholders);
        let markers = (0..codes.len() as u32).filter(|&i| codes[i as usize].is_none());
        KmerOccTable::from_lanes(lanes, markers.collect())
    }

    /// [`naive_krank`] of `r` at every `i` in `0..=codes.len()`, counted
    /// in one pass.
    fn naive_kranks(codes: &[Option<u8>], r: u16) -> Vec<u32> {
        let mut ranks = vec![0];
        for &c in codes {
            ranks.push(ranks.last().unwrap() + u32::from(c.map(u16::from) == Some(r)));
        }
        ranks
    }

    /// A few codes of width `k` worth checking everywhere: the first,
    /// one in the middle and the last.
    fn probe_codes(k: usize) -> [u16; 3] {
        let stride = 1u16 << (2 * k);
        [0, stride / 2 + 1, stride - 1]
    }

    #[test]
    fn rank_matches_naive_across_widths_spacings_and_rates() {
        // Every width at the one spacing: three blocks and part of a
        // fourth.
        for k in 1..=MAX_STEP {
            let codes = fixture(3 * K_OCC_SAMPLE_RATE + 100, k);
            let occ = table(&codes, k);
            for r in probe_codes(k) {
                for (i, &rank) in naive_kranks(&codes, r).iter().enumerate() {
                    assert_eq!(occ.rank(r, i), rank, "k {k}, code {r}, prefix {i}");
                }
            }
        }
    }

    #[test]
    fn rank_pair_matches_naive_across_widths_spacings_and_rates() {
        // Both halves of a block and into the next one.
        for k in 1..=MAX_STEP {
            let codes = fixture(K_OCC_SAMPLE_RATE + 76, k);
            let occ = table(&codes, k);
            for r in probe_codes(k) {
                let ranks = naive_kranks(&codes, r);
                for lo in 0..=codes.len() {
                    for hi in (lo..=codes.len()).step_by(3) {
                        assert_eq!(
                            occ.rank_pair(r, lo, hi),
                            (ranks[lo], ranks[hi]),
                            "k {k}, code {r}, interval {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    /// The rank of `r` at `row`, once per byte kernel, each called
    /// directly.
    fn ranks_by_kernel(occ: &KmerOccTable, r: u16, row: usize) -> Vec<(&'static str, u32)> {
        let (half, offset) = occ.store.split(row);
        let reach = occ.store.reach(half, offset);
        occ.store
            .prefix_counts_by_kernel(half, r as u8, [reach])
            .into_iter()
            .map(|(kernel, counts)| {
                let [physical] = occ.around_middle(half, r, counts);
                (kernel, occ.corrected(physical, r, row))
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_naive_at_every_offset_of_every_block() {
        // Both byte kernels, called directly: every offset of every
        // half-block (the last one short, its zero padding lanes never
        // counted for code 0) at every width — the upper half behind 8-,
        // 32-, 128- and 512-byte delta rows — and the placeholder lanes of
        // the marker rows.
        for k in 1..=4 {
            let stride = 1usize << (2 * k);
            let half_rows = K_OCC_SAMPLE_RATE / 2;
            // At k = 4 a code uses all eight bits of its lane: every
            // other row's code differs from a low one only in bit 7, the
            // bit the 1-step table's readers mask off, so a mask that
            // leaked into this table's kernel would merge the two.
            let codes: Vec<Option<u8>> = if k == 4 {
                (0..2100)
                    .map(|i| (i % 151 != 3).then_some(((i * 31 + i / 7) % 3 + (i % 2) * 128) as u8))
                    .collect()
            } else {
                fixture(2100, k)
            };
            let occ = table(&codes, k);
            // 130 is 2 with bit 7 set (a no-op repeat of the last code
            // on the small strides).
            for r in [0, 2, 130.min(stride - 1), stride - 1].map(|r| r as u16) {
                let ranks = naive_kranks(&codes, r);
                for half in 0..codes.len().div_ceil(half_rows) {
                    let covered = half_rows.min(codes.len() - half * half_rows);
                    for offset in 0..=covered {
                        let expect = ranks[half * half_rows + offset];
                        for (kernel, got) in ranks_by_kernel(&occ, r, half * half_rows + offset) {
                            assert_eq!(
                                got, expect,
                                "{kernel}: k {k}, code {r}, half-block {half}, offset {offset}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Holds `rank` at each of `rows` and `rank_pair` over every ordered
    /// pair of them to the naive scan over `codes`, for code 0 and the
    /// other codes worth checking, and each byte kernel, called directly,
    /// to it at every row below the end.
    fn ranks_like_naive_at(codes: &[Option<u8>], k: usize, rows: &[usize]) {
        let occ = table(codes, k);
        for r in probe_codes(k) {
            let ranks = naive_kranks(codes, r);
            for &i in rows {
                assert_eq!(occ.rank(r, i), ranks[i], "k {k}, code {r}, row {i}");
                if i < codes.len() {
                    for (kernel, got) in ranks_by_kernel(&occ, r, i) {
                        assert_eq!(got, ranks[i], "{kernel}: k {k}, code {r}, row {i}");
                    }
                }
                for &j in rows.iter().filter(|&&j| j >= i) {
                    assert_eq!(
                        occ.rank_pair(r, i, j),
                        (ranks[i], ranks[j]),
                        "k {k}, code {r}, interval {i}..{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranks_at_and_across_every_middle_row_match_naive() {
        // Two rows either side of every block's middle, where a rank
        // turns from subtracting the lower half's matches to adding the
        // upper half's, and every pair of them: within one half, across
        // a middle and across block edges.
        for k in 1..=MAX_STEP {
            let rate = K_OCC_SAMPLE_RATE;
            let codes = fixture(3 * rate + rate / 2 + 9, k);
            let rows: Vec<usize> = (0..codes.len())
                .step_by(rate)
                .flat_map(|start| start + rate / 2 - 2..=start + rate / 2 + 2)
                .collect();
            ranks_like_naive_at(&codes, k, &rows);
        }
    }

    #[test]
    fn a_table_ending_just_into_a_lower_half_ranks_like_naive() {
        // The last block's checkpoint counts the zero pad lanes of its
        // lower half as code 0, and a scan of the half takes them off
        // again: tables that end one row into a lower half, and five rows
        // in with code 0 and marker rows among them, probed around the
        // middles and edges of the blocks and at every row of the last.
        for k in 1..=MAX_STEP {
            let rate = K_OCC_SAMPLE_RATE;
            let mid = rate / 2;
            for blocks in 1..=2 {
                for tail in [&[Some(0)][..], &[Some(0), None, Some(0), None, Some(1)]] {
                    let mut codes = fixture(blocks * rate, k);
                    codes.extend_from_slice(tail);
                    let mut rows: Vec<usize> = [mid - 1, mid, mid + 1, rate - 1, rate]
                        .into_iter()
                        .flat_map(|i| [i, (blocks - 1) * rate + i])
                        .chain(blocks * rate..=codes.len())
                        .collect();
                    rows.sort_unstable();
                    rows.dedup();
                    ranks_like_naive_at(&codes, k, &rows);
                }
            }
        }
    }

    #[test]
    fn rank_pair_straddling_block_and_superblock_boundaries() {
        for k in [1, 2, 4] {
            let rate = K_OCC_SAMPLE_RATE;
            // Past the second superblock boundary.
            let codes = fixture(2 * rate * SUPERBLOCK_RATE + 100, k);
            let occ = table(&codes, k);
            for r in probe_codes(k) {
                let ranks = naive_kranks(&codes, r);
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
                        assert_eq!(
                            occ.rank_pair(r, lo, hi),
                            (ranks[lo], ranks[hi]),
                            "k {k}, code {r}, interval {lo}..{hi}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn codes_round_trip_through_the_interleaved_layout() {
        for k in 1..=MAX_STEP {
            let codes = fixture(1500, k);
            let occ = table(&codes, k);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(occ.code(i), c, "k {k}, position {i}");
            }
            let mut stream = Vec::new();
            let Ok(()) = occ.try_for_each_code_run(|run| {
                stream.extend_from_slice(run);
                Ok::<_, std::convert::Infallible>(())
            });
            let lanes: Vec<u8> = codes.iter().map(|c| c.unwrap_or(0)).collect();
            assert_eq!(stream, lanes, "k {k}");
        }
    }

    #[test]
    fn invalid_codes_are_stored_but_never_counted() {
        // Marker rows hold a placeholder lane and answer no code.
        let occ = table(&[Some(0), None, Some(1), None, Some(2)], 1);
        assert_eq!(occ.code(1), None);
        assert_eq!(occ.rank(0, 5), 1);
        assert_eq!(occ.rank(1, 5), 1);
        assert_eq!(occ.rank(2, 5), 1);
        assert_eq!(occ.rank(3, 5), 0);
    }

    #[test]
    fn stride_256_markers_round_trip_and_never_count() {
        // Placeholder-0 lanes, corrected ranks, at the full one-byte
        // alphabet. Past the first superblock boundary (16 blocks of 1 024
        // rows).
        let codes: Vec<Option<u8>> = (0..16_800)
            .map(|i| (i % 151 != 3).then_some((i * 31 % 256) as u8))
            .collect();
        let occ = table(&codes, 4);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(occ.code(i), c, "position {i}");
        }
        // Code 0 is the corrected path; spot-check others too.
        for r in [0u16, 1, 93, 255] {
            let ranks = naive_kranks(&codes, r);
            for (i, &rank) in ranks.iter().enumerate() {
                assert_eq!(occ.rank(r, i), rank, "code {r}, prefix {i}");
            }
            for lo in (0..codes.len()).step_by(83) {
                for hi in (lo..=codes.len()).step_by(13) {
                    assert_eq!(
                        occ.rank_pair(r, lo, hi),
                        (ranks[lo], ranks[hi]),
                        "code {r}, interval {lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_marker_rows_still_build() {
        // A text shorter than k makes *every* row sentinel-crossing.
        let occ = table(&[None; 3], 4);
        assert_eq!(occ.code(1), None);
        for r in [0u16, 255] {
            assert_eq!(occ.rank(r, 3), 0);
            assert_eq!(occ.rank_pair(r, 1, 2), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "not sorted placeholder rows")]
    fn a_marker_row_must_hold_the_placeholder() {
        let mut lanes = KmerOccTable::lanes(3, 1).unwrap();
        lanes.set_lanes(0, &[0, 1, 2]);
        let _ = KmerOccTable::from_lanes(lanes, vec![1]);
    }

    #[test]
    fn tighter_superblocks_absorb_the_same_overflow() {
        // A run of one code longer than a u16 delta counts. Without
        // superblocks the deltas of its last blocks would overflow; every
        // 16 blocks of 1 024 rows the absolute row resets them, so none
        // exceeds 15 x 1 024.
        let mut codes = vec![Some(0u8); 70_000];
        codes.extend([Some(1), None, Some(1), Some(1)]);
        let occ = table(&codes, 1);
        let half = K_OCC_SAMPLE_RATE / 2;
        // Around every block boundary, hence every superblock boundary,
        // and every block's middle.
        let mut zeros = 0;
        for (i, &c) in codes.iter().enumerate() {
            if i % half <= 1 || i % half == half - 1 {
                assert_eq!(occ.rank(0, i), zeros, "prefix {i}");
                assert_eq!(
                    occ.rank_pair(0, i, i + 1).1,
                    zeros + u32::from(c == Some(0))
                );
            }
            zeros += u32::from(c == Some(0));
        }
        assert_eq!(occ.rank(0, codes.len()), zeros);
    }

    #[test]
    fn prefetch_is_a_safe_no_op_everywhere() {
        let codes = fixture(137, 2);
        let occ = table(&codes, 2);
        for i in [0usize, 1, 16, 136, 137, 500] {
            for r in 0..16u16 {
                occ.prefetch_rank(r, i); // must never fault or panic
                occ.prefetch_rank_pair(r, i / 2, i);
            }
        }
        assert_eq!(occ.rank(3, 137), naive_krank(&codes, 3, 137));
    }

    #[test]
    fn heap_breakdown_is_exact() {
        // k = 1, 2000 codes: ⌈2000 / 1024⌉ = 2 blocks of 512 code bytes,
        // 8 delta bytes and 512 more code bytes, the deltas rounded to a
        // whole line: 8 + 1 + 8 = 17 lines; one superblock group of 4
        // words behind them rounds the buffer up by one 64-byte line;
        // totals is 4 words, and the side list a word a marker row.
        let codes = fixture(2000, 1);
        let markers = codes.iter().filter(|c| c.is_none()).count();
        let occ = table(&codes, 1);
        let heap = occ.heap_breakdown();
        assert_eq!(heap.k_occ_checkpoints, 64);
        assert_eq!(heap.k_occ_deltas, 2 * 8);
        assert_eq!(heap.k_occ_codes, 2 * 17 * 64 - 2 * 8 + 4 * 4);
        assert_eq!(heap.other, 4 * markers);
        assert_eq!(heap.total(), occ.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_past_end_panics() {
        let occ = table(&[Some(0), Some(1), Some(2)], 1);
        let _ = occ.rank(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of alphabet")]
    fn rank_of_invalid_code_panics() {
        let occ = table(&[Some(0), Some(1), Some(2)], 1);
        let _ = occ.rank(4, 2);
    }
}
