//! [`EngineBuilder`]: the one way to construct an executor.
//!
//! An executor recipe is four values — step width `k`, the thread
//! count, sequential-baseline mode and strandedness — and every recipe
//! derives a canonical *descriptor* string
//! ([`EngineBuilder::descriptor`]) that names it in test failures and
//! in the server's log lines. The lockstep engines have one schedule,
//! software-prefetched search and resolve rounds, and every index has
//! the one layout of [`exma_index::layout`].
//!
//! Construction is two-phase because executors borrow their index:
//! [`EngineBuilder::build_index`] owns the expensive table build, and
//! [`EngineBuilder::attach`] wires an executor onto any index built
//! with a matching `k` and strandedness — which is how one index is
//! shared across the sequential, serial and sharded executors.

use std::fmt;
use std::path::Path;

use exma_genome::Symbol;
use exma_index::{
    load_snapshot_expecting, write_snapshot, FmIndex, IndexError, KStepBuildConfig, KStepFmIndex,
    SnapshotError,
};

use crate::batch::BatchEngine;
use crate::exec::Executor;
use crate::shard::ShardedEngine;

/// Why a builder recipe cannot build an index or attach an executor.
///
/// Returned by [`EngineBuilder::build_config`],
/// [`EngineBuilder::build_index`], [`EngineBuilder::snapshot_to`],
/// [`EngineBuilder::attach_from_snapshot`], [`EngineBuilder::attach`]
/// and [`EngineBuilder::attach_one_step`] — the construction surface is
/// panic-free, so a network front-end can turn a bad recipe into an
/// error response instead of a dead worker.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Step width outside `1..=`[`exma_index::MAX_STEP`].
    InvalidK {
        /// The rejected width.
        k: usize,
    },
    /// A thread count of zero.
    ZeroThreads,
    /// [`EngineBuilder::attach`] on an index built at a different `k`.
    StepWidthMismatch {
        /// The index's width.
        index_k: usize,
        /// The recipe's width.
        builder_k: usize,
    },
    /// A sequential recipe combined with `threads > 1`.
    SequentialThreads {
        /// The offending thread count.
        threads: usize,
    },
    /// [`EngineBuilder::attach_one_step`] on a recipe that is not the
    /// sequential `k = 1` baseline.
    NotSequentialOneStep,
    /// [`EngineBuilder::attach`] on an index whose strandedness does
    /// not match the recipe — a forward-only index would answer
    /// [`crate::QueryRequest::SearchBoth`] with garbage, and a
    /// bidirectional one would answer plain queries against the
    /// doubled text.
    StrandednessMismatch {
        /// `true` iff the index holds both strands.
        index_bidirectional: bool,
        /// `true` iff the recipe expects both strands.
        builder_bidirectional: bool,
    },
    /// The index layer refused to build: a text too large for `u32`
    /// counters.
    Index(IndexError),
    /// The snapshot layer rejected a persisted index: corruption,
    /// truncation, a stale format, a recipe mismatch, or plain I/O —
    /// see [`SnapshotError`] for the verification contract.
    Snapshot(SnapshotError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineError::InvalidK { k } => {
                write!(f, "k must be in 1..={}, got {k}", exma_index::MAX_STEP)
            }
            EngineError::ZeroThreads => write!(f, "thread count must be positive"),
            EngineError::StepWidthMismatch { index_k, builder_k } => {
                write!(f, "index k={index_k} does not match builder k={builder_k}")
            }
            EngineError::SequentialThreads { threads } => {
                write!(
                    f,
                    "sequential executors are single-threaded, got threads={threads}"
                )
            }
            EngineError::NotSequentialOneStep => {
                write!(f, "only the sequential k=1 recipe runs on a bare FmIndex")
            }
            EngineError::StrandednessMismatch {
                index_bidirectional,
                builder_bidirectional,
            } => {
                write!(
                    f,
                    "index bidirectional={index_bidirectional} does not match \
                     builder bidirectional={builder_bidirectional}"
                )
            }
            EngineError::Index(e) => write!(f, "{e}"),
            EngineError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Index(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> EngineError {
        EngineError::Index(e)
    }
}

impl From<SnapshotError> for EngineError {
    fn from(e: SnapshotError) -> EngineError {
        EngineError::Snapshot(e)
    }
}

/// A fluent recipe for any executor in the workspace.
///
/// Setters record; validation happens when the recipe is *used* —
/// [`EngineBuilder::build_index`] and [`EngineBuilder::attach`] return
/// [`EngineError`] for impossible recipes instead of panicking.
///
/// ```
/// use exma_engine::{EngineBuilder, Executor, QueryBatch};
/// use exma_genome::{Genome, GenomeProfile};
///
/// let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
/// let builder = EngineBuilder::new().k(4).threads(2);
/// assert_eq!(builder.descriptor(), "lockstep_k4_t2");
///
/// let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
/// let engine = builder.attach(&index).unwrap();
/// let batch = QueryBatch::new().count(genome.seq().slice(100, 21));
/// assert!(matches!(
///     engine.run(&batch).0.count(0),
///     n if n >= 1
/// ));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineBuilder {
    k: usize,
    sequential: bool,
    threads: usize,
    bidirectional: bool,
}

impl Default for EngineBuilder {
    /// The headline engine: k = 4 lockstep on one thread, over a
    /// forward-only index.
    fn default() -> EngineBuilder {
        EngineBuilder {
            k: 4,
            sequential: false,
            threads: 1,
            bidirectional: false,
        }
    }
}

impl EngineBuilder {
    /// The default recipe (see [`EngineBuilder::default`]).
    pub fn new() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Symbols consumed per LF refinement (`1..=`[`exma_index::MAX_STEP`];
    /// out-of-range widths surface as [`EngineError::InvalidK`] when the
    /// recipe is used).
    pub fn k(mut self, k: usize) -> EngineBuilder {
        self.k = k;
        self
    }

    /// Sequential per-query execution: the baseline the lockstep
    /// engines are measured against. Incompatible with `threads > 1`.
    pub fn sequential(mut self) -> EngineBuilder {
        self.sequential = true;
        self
    }

    /// Worker threads of a sharded executor (1 = the serial lockstep
    /// engine; the sharded path short-circuits to it anyway). Zero
    /// surfaces as [`EngineError::ZeroThreads`] when the recipe is used.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = threads;
        self
    }

    /// Bidirectional (FMD-style) indexing: [`EngineBuilder::build_index`]
    /// indexes the doubled text `forward · revcomp(forward) · $` (see
    /// [`exma_index::bidir`]), which makes
    /// [`crate::QueryRequest::SearchBoth`] answer strand-agnostic hits.
    /// The flag is part of the recipe — it flows into the descriptor
    /// (`_bidir`), the build config, and the snapshot header, so a
    /// bidirectional snapshot never warm-loads under a forward-only
    /// recipe or vice versa. Costs roughly 2× the index heap of the
    /// forward-only index, itemized by the attached executor's
    /// [`Executor::heap_breakdown`].
    pub fn bidirectional(mut self, bidirectional: bool) -> EngineBuilder {
        self.bidirectional = bidirectional;
        self
    }

    /// `true` iff this recipe indexes both strands.
    pub fn is_bidirectional(&self) -> bool {
        self.bidirectional
    }

    /// Checks the recipe's field combination, the common gate of
    /// [`EngineBuilder::build_config`] and [`EngineBuilder::attach`].
    fn validate(&self) -> Result<(), EngineError> {
        if !(1..=exma_index::MAX_STEP).contains(&self.k) {
            return Err(EngineError::InvalidK { k: self.k });
        }
        if self.threads == 0 {
            return Err(EngineError::ZeroThreads);
        }
        if self.sequential && self.threads > 1 {
            return Err(EngineError::SequentialThreads {
                threads: self.threads,
            });
        }
        Ok(())
    }

    /// The index build this recipe implies: its `k` and strandedness.
    pub fn build_config(&self) -> Result<KStepBuildConfig, EngineError> {
        self.validate()?;
        Ok(KStepBuildConfig {
            k: self.k,
            bidirectional: self.bidirectional,
        })
    }

    /// Builds the index this recipe queries — over the text as given,
    /// or over the doubled text when the recipe is
    /// [`EngineBuilder::bidirectional`]. A text too large for `u32`
    /// counters surfaces as [`EngineError::Index`].
    pub fn build_index(&self, text: &[Symbol]) -> Result<KStepFmIndex, EngineError> {
        let config = self.build_config()?;
        if self.bidirectional {
            Ok(KStepFmIndex::from_text_with_config(
                &exma_index::doubled_text(text),
                config,
            )?)
        } else {
            Ok(KStepFmIndex::from_text_with_config(text, config)?)
        }
    }

    /// Persists `index` to `path` as a crash-safe, checksummed snapshot
    /// (see [`exma_index::snapshot`]), first checking that the index was
    /// built with exactly this recipe's `k` and strandedness — a snapshot
    /// must always load back under the descriptor that wrote it.
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] with
    /// [`SnapshotError::LayoutMismatch`] when `index` does not match
    /// this recipe, or [`SnapshotError::Io`] when the write fails;
    /// recipe-validation errors as for [`EngineBuilder::build_index`].
    pub fn snapshot_to(&self, index: &KStepFmIndex, path: &Path) -> Result<(), EngineError> {
        let expected = self.build_config()?;
        let found = index.build_config();
        if expected != found {
            return Err(EngineError::Snapshot(SnapshotError::LayoutMismatch {
                expected,
                found,
            }));
        }
        Ok(write_snapshot(index, path)?)
    }

    /// Loads the snapshot at `path`, fully verifying checksums and
    /// structure *and* that its embedded recipe equals this builder's —
    /// the warm-start path. The returned index is exactly what
    /// [`EngineBuilder::build_index`] would have produced, ready for
    /// [`EngineBuilder::attach`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Snapshot`] for any verification failure (the
    /// caller's cue to fall back to a cold build);
    /// recipe-validation errors as for [`EngineBuilder::build_index`].
    pub fn attach_from_snapshot(&self, path: &Path) -> Result<KStepFmIndex, EngineError> {
        let expected = self.build_config()?;
        Ok(load_snapshot_expecting(path, Some(&expected))?)
    }

    /// Wires an executor onto `index` — sequential, serial lockstep, or
    /// sharded, per this recipe. Many recipes (sequential or not, any
    /// thread count) can attach to one index, wherever it was built — an
    /// index from [`KStepFmIndex::from_text_with_config`] or
    /// [`exma_index::load_snapshot_expecting`] attaches like one from
    /// [`EngineBuilder::build_index`]; `k` and strandedness must match
    /// ([`EngineError::StepWidthMismatch`] and
    /// [`EngineError::StrandednessMismatch`] otherwise).
    pub fn attach<'a>(
        &self,
        index: &'a KStepFmIndex,
    ) -> Result<Box<dyn Executor + 'a>, EngineError> {
        self.validate()?;
        if index.k() != self.k {
            return Err(EngineError::StepWidthMismatch {
                index_k: index.k(),
                builder_k: self.k,
            });
        }
        if index.is_bidirectional() != self.bidirectional {
            return Err(EngineError::StrandednessMismatch {
                index_bidirectional: index.is_bidirectional(),
                builder_bidirectional: self.bidirectional,
            });
        }
        Ok(if self.sequential {
            Box::new(index)
        } else if self.threads == 1 {
            Box::new(BatchEngine::new(index))
        } else {
            Box::new(ShardedEngine::new(index, self.threads))
        })
    }

    /// Wires the plain 1-step sequential executor — the oracle — onto a
    /// bare [`FmIndex`]. Only the `k = 1` sequential recipe may do
    /// this ([`EngineError::NotSequentialOneStep`] otherwise); every
    /// other recipe needs the k-step tables.
    pub fn attach_one_step<'a>(
        &self,
        fm: &'a FmIndex,
    ) -> Result<Box<dyn Executor + 'a>, EngineError> {
        self.validate()?;
        if !(self.sequential && self.k == 1) {
            return Err(EngineError::NotSequentialOneStep);
        }
        Ok(Box::new(fm))
    }

    /// The canonical descriptor of this recipe, derived field by field:
    /// `seq_k{k}` or `lockstep_k{k}`, then `_t{n}` for multi-threaded
    /// recipes, then `_bidir` for a both-strand recipe. Equal recipes
    /// derive equal descriptors.
    pub fn descriptor(&self) -> String {
        let mut tag = if self.sequential {
            format!("seq_k{}", self.k)
        } else {
            format!("lockstep_k{}", self.k)
        };
        if self.threads > 1 {
            tag.push_str(&format!("_t{}", self.threads));
        }
        if self.bidirectional {
            tag.push_str("_bidir");
        }
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBatch;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;
    use exma_genome::{Genome, GenomeProfile};
    use exma_index::kocc::naive_krank;
    use exma_index::layout::{k_occ_sample_rate, SUPERBLOCK_RATE};
    use exma_index::HeapBreakdown;

    #[test]
    fn descriptors_derive_from_every_field() {
        assert_eq!(EngineBuilder::new().descriptor(), "lockstep_k4");
        assert_eq!(
            EngineBuilder::new().k(1).sequential().descriptor(),
            "seq_k1"
        );
        assert_eq!(EngineBuilder::new().k(2).descriptor(), "lockstep_k2");
        assert_eq!(
            EngineBuilder::new().threads(8).descriptor(),
            "lockstep_k4_t8"
        );
        assert_eq!(
            EngineBuilder::new()
                .threads(2)
                .bidirectional(true)
                .descriptor(),
            "lockstep_k4_t2_bidir"
        );
        assert_eq!(
            EngineBuilder::new()
                .sequential()
                .bidirectional(true)
                .descriptor(),
            "seq_k4_bidir"
        );
    }

    #[test]
    fn layout_failures_surface_as_engine_errors() {
        // A text with more rows than a u32 counter holds is the one typed
        // build error of the index layer, which converts into an engine
        // error that renders and exposes it.
        let err = EngineError::from(IndexError::IndexTooLarge {
            rows: 5_000_000_000,
        });
        assert_eq!(
            err,
            EngineError::Index(IndexError::IndexTooLarge {
                rows: 5_000_000_000
            })
        );
        let rendered = format!("{err}");
        assert!(rendered.contains("5000000000 rows"), "{rendered}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "Index errors expose their source"
        );
    }

    #[test]
    fn the_widest_legal_span_builds_and_ranks_like_naive() {
        // The widest superblock span of the layout is the k-occ table's
        // at k = MAX_STEP: 384 x 16 = 6 144 rows. A text whose k-BWT is
        // one run of the A-mer longer than two of them drives each
        // superblock's deltas as high as they go and crosses into the
        // third.
        let k = exma_index::MAX_STEP;
        let rate = k_occ_sample_rate(k);
        let len = 2 * rate * SUPERBLOCK_RATE + 1000;
        let text = text_from_str(&"A".repeat(len)).unwrap();
        let index = EngineBuilder::new().k(k).build_index(&text).unwrap();
        let (results, _) = EngineBuilder::new()
            .k(k)
            .attach(&index)
            .unwrap()
            .run(&QueryBatch::new().count(parse_bases(&"A".repeat(20)).unwrap()));
        assert_eq!(results.count(0), len - 19);
        let kocc = index.kmer_occ();
        let codes: Vec<Option<u8>> = (0..kocc.len()).map(|i| kocc.code(i)).collect();
        assert!(codes[..=len - k].iter().all(|&c| c == Some(0)));
        // Every block boundary and its neighbours, the superblock
        // boundaries at rows 6 144 and 12 288 among them.
        let stride = kocc.stride() as u16;
        for boundary in (0..=kocc.len()).step_by(rate) {
            for i in boundary.saturating_sub(1)..=(boundary + 1).min(kocc.len()) {
                for r in [0, 1, stride - 1] {
                    assert_eq!(
                        kocc.rank(r, i),
                        naive_krank(&codes, r, i),
                        "code {r}, row {i}"
                    );
                    let lo = i.saturating_sub(rate / 2);
                    assert_eq!(
                        kocc.rank_pair(r, lo, i),
                        (naive_krank(&codes, r, lo), naive_krank(&codes, r, i)),
                        "code {r}, interval {lo}..{i}"
                    );
                }
            }
        }
    }

    #[test]
    fn heap_components_equal_their_closed_forms() {
        // The layout at k = 4 over 120 000 bases and the sentinel: every
        // component against its formula, so a silently widened checkpoint
        // row or block fails by name.
        let profile = GenomeProfile {
            len: 120_000,
            ..GenomeProfile::toy()
        };
        let text = Genome::synthesize(&profile, 42).text_with_sentinel();
        let n = text.len();
        let stride = 256; // 4^k counters per row, one-byte code lanes
        let line_round = |bytes: usize| bytes.next_multiple_of(64);
        let (occ_rate, sa_rate, kocc_rate, sb_rate) = (52, 11, 384, 16);
        let index = EngineBuilder::new().build_index(&text).unwrap();
        let kocc_blocks = n / kocc_rate + 1;
        let occ_blocks = n / occ_rate + 1;
        let expected = HeapBreakdown {
            k_occ_checkpoints: line_round(kocc_blocks.div_ceil(sb_rate) * stride * 4),
            k_occ_deltas: kocc_blocks * stride * 2,
            // Code lanes and block padding, plus the totals row.
            k_occ_codes: kocc_blocks * (line_round(stride * 2 + kocc_rate) - stride * 2)
                + stride * 4,
            // Five symbol counters and the mark counter a row, and the
            // codes, marks in bit 7.
            one_step_occ: occ_blocks * line_round(6 * 2 + occ_rate)
                + line_round(occ_blocks.div_ceil(sb_rate) * 6 * 4),
            sa_samples: n.div_ceil(sa_rate) * 4,
            // The marks live in the occurrence lines alone.
            rank_bits: 0,
            // The k-mer C-array, the k sentinel-crossing rows, the
            // packed text (whole 32-base windows and a spare one) and
            // the K-mer lookup (16 · 4^6 ≤ n < 16 · 4^7: K = 6).
            other: stride * 4
                + 4 * 4
                + line_round((n.div_ceil(32) + 1) * 8)
                + line_round(4 * ((1 << (2 * 6)) + 1)),
        };
        let heap = EngineBuilder::new()
            .attach(&index)
            .unwrap()
            .heap_breakdown();
        assert_eq!(heap, expected);
    }

    #[test]
    fn build_config_fills_k_dependent_defaults() {
        // The build is the recipe's `k` and strandedness; the k-occ
        // spacing follows from `k` alone.
        let config = EngineBuilder::new().k(2).build_config().unwrap();
        assert_eq!(config, KStepBuildConfig::for_k(2));
        let both = EngineBuilder::new().k(2).bidirectional(true);
        assert_eq!(
            both.build_config().unwrap(),
            KStepBuildConfig {
                k: 2,
                bidirectional: true
            }
        );
        assert_eq!(k_occ_sample_rate(2), 192);
    }

    #[test]
    fn every_attached_flavor_answers_identically() {
        let text = text_from_str("CCATAGACATTAGACCATAGGACATAGACC").unwrap();
        let batch = QueryBatch::new()
            .count(parse_bases("CAT").unwrap())
            .locate(parse_bases("A").unwrap())
            .interval(parse_bases("TAGA").unwrap());
        let one = FmIndex::from_text(&text);
        let oracle = EngineBuilder::new()
            .k(1)
            .sequential()
            .attach_one_step(&one)
            .unwrap();
        let (expected, _) = oracle.run(&batch);

        for k in [1usize, 2, 4] {
            let builder = EngineBuilder::new().k(k);
            let index = builder.build_index(&text).unwrap();
            for flavor in [builder.sequential(), builder, builder.threads(3)] {
                let exec = flavor.attach(&index).unwrap();
                assert_eq!(exec.run(&batch).0, expected, "{}", flavor.descriptor());
            }
        }
    }

    #[test]
    fn bad_recipes_surface_typed_errors_instead_of_panicking() {
        let text = text_from_str("CATAGA").unwrap();
        let index = EngineBuilder::new().k(2).build_index(&text).unwrap();
        let one = FmIndex::from_text(&text);

        assert_eq!(
            EngineBuilder::new().k(4).attach(&index).err(),
            Some(EngineError::StepWidthMismatch {
                index_k: 2,
                builder_k: 4
            })
        );
        assert_eq!(
            EngineBuilder::new().k(0).build_index(&text).err(),
            Some(EngineError::InvalidK { k: 0 })
        );
        assert_eq!(
            EngineBuilder::new().k(99).build_config().err(),
            Some(EngineError::InvalidK { k: 99 })
        );
        // One past the widest step a one-byte code lane holds.
        assert_eq!(
            EngineBuilder::new()
                .k(exma_index::MAX_STEP + 1)
                .build_index(&text)
                .err(),
            Some(EngineError::InvalidK { k: 5 })
        );
        assert_eq!(
            EngineBuilder::new().k(2).threads(0).attach(&index).err(),
            Some(EngineError::ZeroThreads)
        );
        assert_eq!(
            EngineBuilder::new()
                .k(2)
                .sequential()
                .threads(3)
                .attach(&index)
                .err(),
            Some(EngineError::SequentialThreads { threads: 3 })
        );
        assert_eq!(
            EngineBuilder::new().attach_one_step(&one).err(),
            Some(EngineError::NotSequentialOneStep)
        );
    }

    #[test]
    fn engine_errors_display_their_cause() {
        let rendered = format!("{}", EngineError::InvalidK { k: 9 });
        assert!(rendered.contains("k must be in 1..="), "{rendered}");
        assert!(rendered.contains("got 9"), "{rendered}");
        let mismatch = EngineError::StepWidthMismatch {
            index_k: 2,
            builder_k: 4,
        };
        assert_eq!(
            format!("{mismatch}"),
            "index k=2 does not match builder k=4"
        );
    }
}
