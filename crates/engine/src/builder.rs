//! [`EngineBuilder`]: the one way to construct an executor.
//!
//! Every knob the engine stack exposes — step width `k`, the three
//! sampling rates, the lockstep search and resolve schedules, the
//! thread count, sequential-baseline mode — combines here, and every
//! combination derives a canonical *descriptor* string
//! ([`EngineBuilder::descriptor`]) that names it in test failures and
//! in the server's log lines, so a new knob means a new builder method
//! and descriptor fragment, not a new named engine.
//!
//! Construction is two-phase because executors borrow their index:
//! [`EngineBuilder::build_index`] owns the expensive table build, and
//! [`EngineBuilder::attach`] wires an executor onto any index built
//! with a matching `k` and strandedness — which is how one index is
//! shared across every schedule and thread-count variant.

use std::fmt;
use std::path::Path;

use exma_genome::Symbol;
use exma_index::layout::{
    default_k_occ_sample_rate, DEFAULT_OCC_SAMPLE_RATE, DEFAULT_SA_SAMPLE_RATE,
    DEFAULT_SUPERBLOCK_RATE,
};
use exma_index::{
    load_snapshot_expecting, write_snapshot, FmIndex, IndexError, KStepBuildConfig, KStepFmIndex,
    ResolveConfig, SnapshotError,
};

use crate::batch::{BatchConfig, BatchEngine};
use crate::exec::Executor;
use crate::shard::ShardedEngine;

/// Why a builder recipe cannot build an index or attach an executor.
///
/// Returned by [`EngineBuilder::build_config`],
/// [`EngineBuilder::build_index`], [`EngineBuilder::attach`] and
/// [`EngineBuilder::attach_one_step`] — the construction surface is
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
    /// A sampling-rate or superblock-spacing knob was zero.
    ZeroSampleRate {
        /// Which knob (`"occ"`, `"sa"`, `"k_occ"`, or `"superblock"`).
        knob: &'static str,
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
    /// The index layer rejected the recipe while building: a text too
    /// large for `u32` counters, or a superblock span too wide for the
    /// checkpoint rows' `u16` deltas.
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
            EngineError::ZeroSampleRate { knob } => {
                write!(f, "{knob} sample rate must be positive")
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

/// The complete memory layout of an index, as one typed value.
///
/// The three sampling rates and the superblock spacing of the
/// checkpoint rows (`u16` deltas off sparse absolute `u32` superblock
/// rows, in both occurrence tables), as the single recipe taken by
/// [`EngineBuilder::layout`] — the one way to set a layout. Setters
/// record; validation happens when the owning builder's recipe is used.
/// One preset, [`IndexLayout::default`]: occ 54, sa 11, k-occ `96k`,
/// superblocks every 16 blocks — the rates of [`exma_index::layout`],
/// the one place they are defined. Any other layout is the default
/// with knobs moved, and derives one descriptor fragment per moved knob:
///
/// ```
/// use exma_engine::{EngineBuilder, IndexLayout};
///
/// let builder = EngineBuilder::new().layout(IndexLayout::new().sa_sample_rate(32));
/// assert_eq!(builder.descriptor(), "lockstep_k4_locality_sa32");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexLayout {
    occ_sample_rate: usize,
    sa_sample_rate: usize,
    /// `None` = the k-dependent default (`96 * k`).
    k_occ_sample_rate: Option<usize>,
    superblock_rate: usize,
}

impl Default for IndexLayout {
    /// The balanced default: Occ blocks that fill one cache line, the
    /// densest SA sampling the bytes that saves pay for, k-occ
    /// checkpoints every `96k` rows, superblock rows every 16 blocks.
    fn default() -> IndexLayout {
        IndexLayout {
            occ_sample_rate: DEFAULT_OCC_SAMPLE_RATE,
            sa_sample_rate: DEFAULT_SA_SAMPLE_RATE,
            k_occ_sample_rate: None,
            superblock_rate: DEFAULT_SUPERBLOCK_RATE,
        }
    }
}

impl IndexLayout {
    /// The default layout (see [`IndexLayout::default`]).
    pub fn new() -> IndexLayout {
        IndexLayout::default()
    }

    /// Checkpoint spacing of the 1-step occurrence table.
    pub fn occ_sample_rate(mut self, rate: usize) -> IndexLayout {
        self.occ_sample_rate = rate;
        self
    }

    /// Text-position spacing of kept suffix-array samples — `locate`'s
    /// latency/heap knob. Uncapped answers do not depend on it; *which*
    /// `max_hits` positions a capped locate keeps of more than
    /// `max_hits` occurrences does (see
    /// [`crate::QueryRequest::Locate`]), and on nothing else in a
    /// layout.
    pub fn sa_sample_rate(mut self, rate: usize) -> IndexLayout {
        self.sa_sample_rate = rate;
        self
    }

    /// Checkpoint spacing of the k-mer occurrence table — the paper's
    /// central memory/latency knob.
    pub fn k_occ_sample_rate(mut self, rate: usize) -> IndexLayout {
        self.k_occ_sample_rate = Some(rate);
        self
    }

    /// Blocks per absolute superblock row of both occurrence tables.
    pub fn superblock_rate(mut self, rate: usize) -> IndexLayout {
        self.superblock_rate = rate;
        self
    }

    /// Checks the layout's knobs for zero rates; the superblock span
    /// rule belongs to the index layer, which owns the checkpoint format.
    pub fn validate(&self) -> Result<(), EngineError> {
        for (knob, rate) in [
            ("occ", self.occ_sample_rate),
            ("sa", self.sa_sample_rate),
            ("k_occ", self.k_occ_sample_rate.unwrap_or(1)),
            ("superblock", self.superblock_rate),
        ] {
            if rate == 0 {
                return Err(EngineError::ZeroSampleRate { knob });
            }
        }
        Ok(())
    }

    /// The index-construction knobs this layout implies at step width
    /// `k` (which the caller has already validated).
    fn build_config(&self, k: usize) -> KStepBuildConfig {
        KStepBuildConfig {
            k,
            occ_sample_rate: self.occ_sample_rate,
            sa_sample_rate: self.sa_sample_rate,
            k_occ_sample_rate: self
                .k_occ_sample_rate
                .unwrap_or(default_k_occ_sample_rate(k)),
            superblock_rate: self.superblock_rate,
            bidirectional: false,
        }
    }

    /// The descriptor fragments this layout derives: one per
    /// non-default knob, so nothing for the default.
    fn descriptor_fragments(&self, k: usize, tag: &mut String) {
        if self.occ_sample_rate != DEFAULT_OCC_SAMPLE_RATE {
            tag.push_str(&format!("_occ{}", self.occ_sample_rate));
        }
        if self.sa_sample_rate != DEFAULT_SA_SAMPLE_RATE {
            tag.push_str(&format!("_sa{}", self.sa_sample_rate));
        }
        if let Some(rate) = self.k_occ_sample_rate {
            if rate != default_k_occ_sample_rate(k) {
                tag.push_str(&format!("_kocc{rate}"));
            }
        }
        if self.superblock_rate != DEFAULT_SUPERBLOCK_RATE {
            tag.push_str(&format!("_sb{}", self.superblock_rate));
        }
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
/// assert_eq!(builder.descriptor(), "lockstep_k4_locality_t2");
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
    layout: IndexLayout,
    batch: BatchConfig,
    sequential: bool,
    threads: usize,
    bidirectional: bool,
}

impl Default for EngineBuilder {
    /// The headline engine: k = 4 lockstep with the full locality
    /// schedule on one thread and the default [`IndexLayout`].
    fn default() -> EngineBuilder {
        EngineBuilder {
            k: 4,
            layout: IndexLayout::default(),
            batch: BatchConfig::locality(),
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

    /// Sets the memory layout — the sampling rates and superblock
    /// spacing ride an [`IndexLayout`], nothing else sets them.
    pub fn layout(mut self, layout: IndexLayout) -> EngineBuilder {
        self.layout = layout;
        self
    }

    /// The lockstep search schedule (its [`ResolveConfig`] rides along;
    /// override it afterwards with [`EngineBuilder::resolve`]).
    pub fn schedule(mut self, batch: BatchConfig) -> EngineBuilder {
        self.batch = batch;
        self
    }

    /// The locate resolver's round schedule, independent of the search
    /// schedule — how resolver scheduling is isolated from search.
    pub fn resolve(mut self, resolve: ResolveConfig) -> EngineBuilder {
        self.batch.resolve = resolve;
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
    /// same layout, itemized by the attached executor's
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
        self.layout.validate()?;
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

    /// The index-construction knobs this recipe implies.
    pub fn build_config(&self) -> Result<KStepBuildConfig, EngineError> {
        self.validate()?;
        Ok(KStepBuildConfig {
            bidirectional: self.bidirectional,
            ..self.layout.build_config(self.k)
        })
    }

    /// Builds the index this recipe queries — over the text as given,
    /// or over the doubled text when the recipe is
    /// [`EngineBuilder::bidirectional`]. Layout failures the index
    /// layer decides — a superblock span too wide, `u32` overflow —
    /// surface as [`EngineError::Index`].
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
    /// built with exactly this recipe's layout — a snapshot must always
    /// load back under the descriptor that wrote it.
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
    /// sharded, per this recipe. Many recipes (schedules, thread
    /// counts) can attach to one index; `k` and strandedness must match
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
            Box::new(BatchEngine::with_config(index, self.batch))
        } else {
            Box::new(ShardedEngine::with_config(index, self.threads, self.batch))
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
    /// `seq_k{k}` or `lockstep_k{k}_{schedule}`, then `_t{n}` for
    /// multi-threaded recipes and the layout's fragments —
    /// `_occ{r}`/`_sa{r}`/`_kocc{r}` for non-default sampling rates and
    /// `_sb{r}` for a non-default superblock spacing — then `_bidir`
    /// for a both-strand recipe. Named schedule presets print as
    /// `plain`/`locality`; a resolver override appends
    /// `_r{resolve}`. Equal recipes derive equal descriptors.
    pub fn descriptor(&self) -> String {
        let mut tag = if self.sequential {
            format!("seq_k{}", self.k)
        } else {
            format!("lockstep_k{}_{}", self.k, schedule_tag(&self.batch))
        };
        if self.threads > 1 {
            tag.push_str(&format!("_t{}", self.threads));
        }
        self.layout.descriptor_fragments(self.k, &mut tag);
        if self.bidirectional {
            tag.push_str("_bidir");
        }
        tag
    }
}

/// The schedule fragment of a descriptor: a preset name when the whole
/// [`BatchConfig`] matches one, otherwise the search fragment plus an
/// `_r{...}` resolver fragment.
fn schedule_tag(batch: &BatchConfig) -> String {
    for (preset, name) in [
        (BatchConfig::default(), "plain"),
        (BatchConfig::locality(), "locality"),
    ] {
        if *batch == preset {
            return name.to_string();
        }
        // Same search half, different resolver: preset name + override.
        if batch.prefetch_distance == preset.prefetch_distance {
            return format!("{name}_r{}", resolve_tag(&batch.resolve));
        }
    }
    format!(
        "pf{}_r{}",
        batch.prefetch_distance,
        resolve_tag(&batch.resolve)
    )
}

/// The resolver fragment: preset name or explicit look-ahead.
fn resolve_tag(resolve: &ResolveConfig) -> String {
    for (preset, name) in [
        (ResolveConfig::default(), "plain"),
        (ResolveConfig::locality(), "locality"),
    ] {
        if *resolve == preset {
            return name.to_string();
        }
    }
    format!("pf{}", resolve.prefetch_distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBatch;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;
    use exma_genome::{Genome, GenomeProfile};
    use exma_index::kocc::naive_krank;
    use exma_index::HeapBreakdown;

    #[test]
    fn descriptors_derive_from_every_field() {
        assert_eq!(EngineBuilder::new().descriptor(), "lockstep_k4_locality");
        assert_eq!(
            EngineBuilder::new().k(1).sequential().descriptor(),
            "seq_k1"
        );
        assert_eq!(
            EngineBuilder::new()
                .k(2)
                .schedule(BatchConfig::default())
                .descriptor(),
            "lockstep_k2_plain"
        );
        assert_eq!(
            EngineBuilder::new().threads(8).descriptor(),
            "lockstep_k4_locality_t8"
        );
        assert_eq!(
            EngineBuilder::new()
                .resolve(ResolveConfig::default())
                .descriptor(),
            "lockstep_k4_locality_rplain"
        );
        let with = |layout: IndexLayout| EngineBuilder::new().layout(layout).descriptor();
        // The rates the default had before it moved to 54 / 11 are
        // ordinary non-default fragments now.
        assert_eq!(
            with(IndexLayout::new().sa_sample_rate(32)),
            "lockstep_k4_locality_sa32"
        );
        assert_eq!(
            with(IndexLayout::new().k_occ_sample_rate(128)),
            "lockstep_k4_locality_kocc128"
        );
        // The k-dependent kocc default derives no fragment.
        assert_eq!(
            with(IndexLayout::new().k_occ_sample_rate(384)),
            "lockstep_k4_locality"
        );
        assert_eq!(
            with(IndexLayout::new().occ_sample_rate(44).superblock_rate(64)),
            "lockstep_k4_locality_occ44_sb64"
        );
        assert_eq!(
            with(IndexLayout::new().occ_sample_rate(54).sa_sample_rate(11)),
            "lockstep_k4_locality"
        );
        assert_eq!(
            EngineBuilder::new()
                .schedule(BatchConfig {
                    prefetch_distance: 3,
                    resolve: ResolveConfig {
                        prefetch_distance: 2,
                    },
                })
                .descriptor(),
            "lockstep_k4_pf3_rpf2"
        );
    }

    #[test]
    fn layout_failures_surface_as_engine_errors() {
        assert_eq!(
            IndexLayout::new().superblock_rate(0).validate().err(),
            Some(EngineError::ZeroSampleRate { knob: "superblock" })
        );
        // A superblock span one row wider than a u16 delta provably
        // counts (4096 x 16 = 65 536) comes back from the k-table as a
        // typed build error, not a panic — whatever the text.
        let text = text_from_str("CATAGA").unwrap();
        let err = EngineBuilder::new()
            .layout(
                IndexLayout::new()
                    .k_occ_sample_rate(4096)
                    .superblock_rate(16),
            )
            .build_index(&text)
            .expect_err("a 65 536-row span must be refused");
        assert_eq!(
            err,
            EngineError::Index(IndexError::SuperblockSpanTooWide {
                sample_rate: 4096,
                superblock_rate: 16,
                max_span: 65_535,
            })
        );
        let rendered = format!("{err}");
        assert!(rendered.contains("4096 x 16"), "{rendered}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "Index errors expose their source"
        );
    }

    #[test]
    fn the_widest_legal_span_builds_and_ranks_like_naive() {
        // 4369 x 15 = 65 535 rows, the widest span the rule admits, over
        // a text whose k-BWT is one run of A longer than it: the run
        // drives the first superblock's deltas as high as they go at this
        // spacing (14 x 4369 = 61 166) and crosses into the second.
        let text = text_from_str(&"A".repeat(70_000)).unwrap();
        let index = EngineBuilder::new()
            .k(1)
            .layout(
                IndexLayout::new()
                    .k_occ_sample_rate(4369)
                    .superblock_rate(15),
            )
            .build_index(&text)
            .unwrap();
        let kocc = index.kmer_occ();
        assert_eq!(kocc.sample_rate() * kocc.superblock_rate(), 65_535);
        let codes: Vec<u16> = (0..kocc.len()).map(|i| kocc.code(i)).collect();
        assert!(codes[..70_000].iter().all(|&c| c == 0));
        // Every block boundary and its neighbours, the superblock
        // boundary at row 65 535 among them.
        for boundary in (0..=kocc.len()).step_by(4369) {
            for i in boundary.saturating_sub(1)..=(boundary + 1).min(kocc.len()) {
                for r in 0..4u16 {
                    assert_eq!(
                        kocc.rank(r, i),
                        naive_krank(&codes, r, i),
                        "code {r}, row {i}"
                    );
                    let lo = i.saturating_sub(4369 / 2);
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
        // The default and a memory-first layout at k = 4 over 120 000
        // bases and the sentinel: every component against its formula, so
        // a silently widened checkpoint row or block fails by name.
        let profile = GenomeProfile {
            len: 120_000,
            ..GenomeProfile::toy()
        };
        let text = Genome::synthesize(&profile, 42).text_with_sentinel();
        let n = text.len();
        let stride = 256; // 4^k counters per row, one-byte code lanes
        let line_round = |bytes: usize| bytes.next_multiple_of(64);
        for (layout, occ_rate, sa_rate, kocc_rate, sb_rate) in [
            (IndexLayout::default(), 54, 11, 384, 16),
            (
                IndexLayout::new()
                    .occ_sample_rate(54)
                    .sa_sample_rate(32)
                    .k_occ_sample_rate(640)
                    .superblock_rate(32),
                54,
                32,
                640,
                32,
            ),
        ] {
            let index = EngineBuilder::new()
                .layout(layout)
                .build_index(&text)
                .unwrap();
            let kocc_blocks = n / kocc_rate + 1;
            let occ_blocks = n / occ_rate + 1;
            let expected = HeapBreakdown {
                k_occ_checkpoints: line_round(kocc_blocks.div_ceil(sb_rate) * stride * 4),
                k_occ_deltas: kocc_blocks * stride * 2,
                // Code lanes and block padding, plus the totals row.
                k_occ_codes: kocc_blocks * (line_round(stride * 2 + kocc_rate) - stride * 2)
                    + stride * 4,
                one_step_occ: occ_blocks * line_round(5 * 2 + occ_rate)
                    + line_round(occ_blocks.div_ceil(sb_rate) * 5 * 4),
                sa_samples: n.div_ceil(sa_rate) * 4,
                // One bit per row, and a u32 running rank per 64 of them.
                rank_bits: n.div_ceil(64) * (8 + 4),
                // The k-mer C-array, the k sentinel-crossing rows, the
                // packed text (whole 32-base windows and a spare one) and
                // the K-mer lookup (16 · 4^6 ≤ n < 16 · 4^7: K = 6).
                other: stride * 4
                    + 4 * 4
                    + line_round((n.div_ceil(32) + 1) * 8)
                    + line_round(4 * ((1 << (2 * 6)) + 1)),
            };
            assert_eq!(index.heap_breakdown(), expected, "{layout:?}");
        }
    }

    #[test]
    fn build_config_fills_k_dependent_defaults() {
        let config = EngineBuilder::new().k(2).build_config().unwrap();
        assert_eq!(config.k, 2);
        assert_eq!(config.k_occ_sample_rate, 192);
        assert_eq!(
            EngineBuilder::new()
                .k(2)
                .layout(IndexLayout::new().k_occ_sample_rate(999))
                .build_config()
                .unwrap()
                .k_occ_sample_rate,
            999
        );
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
            for flavor in [
                builder.sequential(),
                builder,
                builder.schedule(BatchConfig::default()),
                builder.threads(3),
            ] {
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
        assert_eq!(
            EngineBuilder::new()
                .layout(IndexLayout::new().sa_sample_rate(0))
                .build_config()
                .err(),
            Some(EngineError::ZeroSampleRate { knob: "sa" })
        );
        assert_eq!(
            EngineBuilder::new()
                .layout(IndexLayout::new().k_occ_sample_rate(0))
                .build_index(&text)
                .err(),
            Some(EngineError::ZeroSampleRate { knob: "k_occ" })
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
