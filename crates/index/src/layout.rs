//! The one index layout: its sampling rates, its typed construction
//! error, and per-component heap attribution.
//!
//! Both occurrence tables store a checkpoint row one way (see
//! [`crate::KmerOccTable`]): `u16` per-block deltas relative to sparse
//! absolute `u32` superblock rows. The four spacings are constants, fixed
//! here and nowhere else ([`OCC_SAMPLE_RATE`], [`SA_SAMPLE_RATE`],
//! [`k_occ_sample_rate`] and [`SUPERBLOCK_RATE`]), as the paper fixes its
//! table geometry at design time: every index of a given `k` has the same
//! layout, so a snapshot stores none of it. The SA rate is *derived*
//! from the heap the occurrence rate frees, and the two move together:
//! to try another spacing, edit the constant and rebuild. A compile-time
//! assertion below proves that no superblock span can overflow its
//! `u16` deltas, so the only way a build can fail is a text too long for
//! `u32` row ids ([`IndexError`]). Beside the sampled tables a k-step
//! index keeps two unsampled ones, the k-step C-array (`4^k` words, 1 KiB
//! at most) and the K-mer lookup table; they are one counting routine
//! over the 2-bit text (see
//! [`crate::KStepFmIndex::kstart`]), so neither is stored in a snapshot
//! either. [`HeapBreakdown`] attributes an index's heap bytes to its
//! components so benchmarks and the server STATS frame can report
//! *where* the bytes went.

use std::fmt;

use crate::kstep::MAX_STEP;

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

/// Checkpoint spacing of the 1-step occurrence table: the 52 one-byte
/// codes that fill a 64-byte line beside its six `u16` deltas — one per
/// symbol, and one counting the SA-sampled rows before the block (see
/// [`crate::OccTable`]). A wider block still costs one line a rank, so
/// this is the spacing at which the table is smallest for that price.
pub const OCC_SAMPLE_RATE: usize = 52;

/// Text-position spacing of kept suffix-array samples, set by a byte
/// rule: the densest spacing at which [`HeapBreakdown::total`] of a
/// k = 4 index did not exceed what it was at the 44-row / 32 layout the
/// filled 54-code lines replaced. On the 20 Mbp picea index the ten rows
/// a line gained freed 5.49 MB of `one_step_occ`, samples every 11
/// positions cost 4.77 MB more than every 32, and every 10 would have
/// cost 7.6 kB more than the blocks freed. A locate walk averages 5 LF
/// steps, not 15.5. The 2.72 MB freed since, by marking the sampled rows
/// in the occurrence lines alone, are not spent on it yet.
pub const SA_SAMPLE_RATE: usize = 11;

/// Checkpoint spacing of the k-mer occurrence table at step width `k`:
/// `96k` rows, set by a byte rule — the smallest unpadded spacing at
/// which the table, the 2-bit text and the K-mer lookup table a
/// [`crate::KStepFmIndex`] keeps beside it take no more heap than the
/// table and the text alone did at the `80k` rows this replaced. At k = 4
/// a block is 512 B of deltas and one code byte a row; 320, 384 and 448
/// rows are the spacings near here that fill whole cache lines (13, 14
/// and 15), and 384 is the smallest past 320, which cannot pay for the
/// lookup at all: on the 20 Mbp picea index
/// the deltas fall from 32.0 to 26.67 MB and the superblock rows from
/// 4.00 to 3.33, against 4.19 MB of lookup table (the index: 96.19 →
/// 94.39 MB). The price is a sixth code line for every k-step to read;
/// the lookup buys it back by starting every search ten bases in, past
/// the widest steps (`exma-engine`'s batch engine), and the text by
/// ending most searches early (a query leaves the lockstep search once
/// its interval is a row or two wide).
pub const fn k_occ_sample_rate(k: usize) -> usize {
    96 * k
}

/// Blocks per absolute superblock row of both occurrence tables.
pub const SUPERBLOCK_RATE: usize = 16;

// The one overflow rule of the checkpoint format: a delta counts rows
// since its superblock row, one a row at most, so a superblock span
// within `u16` proves every delta fits whatever the text. The widest
// span is the k-occ table's at `MAX_STEP`: 96 × 4 × 16 = 6 144 rows.
const _: () = assert!(
    OCC_SAMPLE_RATE * SUPERBLOCK_RATE <= u16::MAX as usize
        && k_occ_sample_rate(MAX_STEP) * SUPERBLOCK_RATE <= u16::MAX as usize,
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
    /// The 1-step Occ table: superblock rows, delta rows (the SA-sampled
    /// rows' counter among them), and BWT code lanes with their marks,
    /// together.
    pub one_step_occ: usize,
    /// Sampled suffix-array positions.
    pub sa_samples: usize,
    /// Always 0: the sampled rows are marked and counted in the 1-step
    /// occurrence lines alone. Kept because the benchmark's
    /// `index.heap.rank_bits_bytes` and the STATS field order name it.
    pub rank_bits: usize,
    /// Everything else: symbol count tables, k-mer interval starts,
    /// sentinel-exception rows, and two structures a k-step index keeps
    /// that make up all but a few kilobytes of this component — the 2-bit
    /// copy of the text (a quarter of a byte a base) and the K-mer lookup
    /// table (`4 (4^K + 1)` bytes, at most a quarter of a byte a base:
    /// 4.19 MB at K = 10).
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
