//! The one index layout: its sampling rates, its typed construction
//! error, and per-component heap attribution.
//!
//! The k-step table stores a checkpoint row as `u16` per-block deltas
//! relative to sparse absolute `u32` superblock rows (see
//! [`crate::KmerOccTable`]); the 1-step table's lines hold absolute `u32`
//! counts (see [`crate::OccTable`]). The four spacings are constants, fixed
//! here and nowhere else ([`OCC_SAMPLE_RATE`], [`SA_SAMPLE_RATE`],
//! [`K_OCC_SAMPLE_RATE`] and [`SUPERBLOCK_RATE`]), as the paper fixes its
//! table geometry at design time: every index has the same spacings,
//! whatever its `k`, so a snapshot stores none of them. The SA rate is
//! *derived* from the heap the occurrence rate frees, and the two move
//! together: to try another spacing, edit the constant and rebuild. A
//! compile-time assertion below proves that no superblock span can
//! overflow its `u16` deltas, so the only way a build can fail is a text
//! too long for `u32` row ids ([`IndexError`]). Beside the sampled tables a k-step
//! index keeps two unsampled ones, the k-step C-array (`4^k` words, 1 KiB
//! at most) and the K-mer lookup table; they are one counting routine
//! over the 2-bit text (see
//! [`crate::KStepFmIndex::kstart`]), so neither is stored in a snapshot
//! either. [`HeapBreakdown`] attributes an index's heap bytes to its
//! components so benchmarks and the server STATS frame can report
//! *where* the bytes went.

use std::fmt;

/// Why an index (or one of its rank tables) could not be built.
///
/// Decidable at construction time from the text's length; queries on a
/// successfully built index never see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// The text has too many rows for the table's `u32` counters and
    /// suffix-array positions.
    IndexTooLarge {
        /// Rows the text would need.
        rows: usize,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IndexError::IndexTooLarge { rows } => {
                write!(f, "text with {rows} rows is too large for u32 counters")
            }
        }
    }
}

impl std::error::Error for IndexError {}

impl IndexError {
    /// `Ok` iff a text of `rows` rows fits the tables' `u32` counters and
    /// suffix-array positions.
    pub(crate) fn check_rows(rows: usize) -> Result<(), IndexError> {
        if rows < u32::MAX as usize {
            Ok(())
        } else {
            Err(IndexError::IndexTooLarge { rows })
        }
    }
}

/// Rows a line of the 1-step occurrence table covers: two bit planes of
/// bases and one of SA marks, 16 bytes each, beside the four `u32` counts
/// before the line — one 64-byte line (see [`crate::OccTable`]). At 52
/// rows, one code byte a row beside six `u16` deltas, the table was 2.5
/// times the size and a rank scanned 52 code bytes.
pub const OCC_SAMPLE_RATE: usize = 128;

/// Text-position spacing of kept suffix-array samples, set by a byte
/// rule: the densest spacing at which [`HeapBreakdown::total`] of a
/// k = 4 index did not exceed what it was at the 44-row / 32 layout the
/// filled 54-code lines replaced. On the 20 Mbp picea index the ten rows
/// a line gained freed 5.49 MB of `one_step_occ`, samples every 11
/// positions cost 4.77 MB more than every 32, and every 10 would have
/// cost 7.6 kB more than the blocks freed. A locate walk averages 5 LF
/// steps, not 15.5. The 2.72 MB freed since by marking the sampled rows
/// in the occurrence lines alone, the 15.2 MB freed by the 128-row
/// bit-plane lines, the 15.0 MB freed by the centered 768-row k-step
/// blocks and the 3.75 MB freed by the 1 024-row ones are not spent on
/// it yet: ROADMAP.md item 16 keeps the measured grid of denser rates
/// (4, 6 and 8 against 11).
pub const SA_SAMPLE_RATE: usize = 11;

/// Checkpoint spacing of the k-mer occurrence table, the same at every
/// step width: a half-block is 512 rows, eight whole code lines at every
/// `k`, split off a row by a shift. A block keeps one checkpoint, at its
/// middle row, and a rank scans only the half its row lies in (see
/// [`crate::KmerOccTable`]). On the 20 Mbp picea index the 768-row blocks
/// before read 3.07 B/base, these 2.89 (deltas 13.33 → 10.00 MB), and
/// 512 rows would cost 0.375 B/base more. Scan width is not speed: 384-row
/// blocks ranked in five lines were no faster on `count_reads` than in
/// eight, but 1 536-row ones, twelve lines a rank, took 1.4 times its
/// 10th-percentile latency.
pub const K_OCC_SAMPLE_RATE: usize = 1024;

/// Blocks per absolute superblock row of the k-step occurrence table.
pub const SUPERBLOCK_RATE: usize = 16;

// The one overflow rule of the checkpoint format: a delta counts rows
// between its block's middle and its superblock's first middle, one a
// row at most, so a superblock span within `u16` proves every delta fits
// whatever the text: 1 024 × 16 = 16 384 rows.
const _: () = assert!(
    K_OCC_SAMPLE_RATE * SUPERBLOCK_RATE <= u16::MAX as usize,
    "a superblock span outgrows the u16 deltas"
);

/// Heap bytes of an index attributed to its components.
///
/// Produced by every table's and index's `heap_breakdown()`; the scalar
/// `heap_bytes()` accessors are now sums over this. Components are
/// *exact*: each counts real allocated capacity, and `total()` equals
/// the old scalar answer. Fields are additive so breakdowns of composed
/// structures (a [`crate::KStepFmIndex`] over a [`crate::FmIndex`]) and
/// of sharded engines can be summed with [`HeapBreakdown::add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapBreakdown {
    /// Absolute checkpoint rows of the k-step table: the sparse `u32`
    /// superblock array.
    pub k_occ_checkpoints: usize,
    /// Per-block `u16` delta rows of the k-step table.
    pub k_occ_deltas: usize,
    /// Interleaved k-BWT code lanes (including block padding) and the
    /// totals row of the k-step table.
    pub k_occ_codes: usize,
    /// The 1-step Occ table: its lines of counts, base planes and mark
    /// planes, together.
    pub one_step_occ: usize,
    /// Sampled suffix-array positions.
    pub sa_samples: usize,
    /// Always 0: the sampled rows are marked and counted in the 1-step
    /// occurrence lines alone. Kept because the benchmark's
    /// `index.heap.rank_bits_bytes` and the STATS field order name it.
    pub rank_bits: usize,
    /// Everything else: k-mer interval starts, the marker rows, and two
    /// structures a k-step index keeps that make up all but a few
    /// kilobytes of this component — the 2-bit copy of the text (a
    /// quarter of a byte a base) and the K-mer lookup table (`4 (4^K + 1)`
    /// bytes, at most a quarter of a byte a base: 4.19 MB at K = 10).
    pub other: usize,
}

impl HeapBreakdown {
    /// Total heap bytes — the old scalar `heap_bytes()` answer.
    pub fn total(&self) -> usize {
        self.k_occ_checkpoints
            + self.k_occ_deltas
            + self.k_occ_codes
            + self.one_step_occ
            + self.sa_samples
            + self.rank_bits
            + self.other
    }

    /// Component-wise sum of two breakdowns.
    #[must_use]
    pub fn add(&self, other: &HeapBreakdown) -> HeapBreakdown {
        HeapBreakdown {
            k_occ_checkpoints: self.k_occ_checkpoints + other.k_occ_checkpoints,
            k_occ_deltas: self.k_occ_deltas + other.k_occ_deltas,
            k_occ_codes: self.k_occ_codes + other.k_occ_codes,
            one_step_occ: self.one_step_occ + other.one_step_occ,
            sa_samples: self.sa_samples + other.sa_samples,
            rank_bits: self.rank_bits + other.rank_bits,
            other: self.other + other.other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_knobs() {
        let text = IndexError::IndexTooLarge {
            rows: 5_000_000_000,
        }
        .to_string();
        assert!(
            text.contains("5000000000") && text.contains("u32"),
            "{text}"
        );
    }

    #[test]
    fn breakdown_totals_and_sums() {
        let a = HeapBreakdown {
            k_occ_checkpoints: 1,
            k_occ_deltas: 2,
            k_occ_codes: 3,
            one_step_occ: 4,
            sa_samples: 5,
            rank_bits: 6,
            other: 7,
        };
        assert_eq!(a.total(), 28);
        let b = a.add(&a);
        assert_eq!(b.total(), 56);
        assert_eq!(b.k_occ_deltas, 4);
        assert_eq!(HeapBreakdown::default().total(), 0);
    }
}
