//! The engines under measurement, enumerated — not hand-written.
//!
//! PR 2–4 named every (operation × schedule × threads) combination as
//! its own variant; this module replaces that list with a **generic
//! enumeration over [`EngineBuilder`] configurations**: each variant is
//! a builder plus a measurement policy, its label *derived* from the
//! builder ([`EngineBuilder::descriptor`]), and its executor attached
//! through the same builder — one uniform driver for the sequential
//! baselines, every lockstep schedule, every thread count, and both
//! sample-rate sweeps. Adding an engine knob now means adding a builder
//! method, not another hand-named entry (the SPEChpc harness lesson).
//!
//! Every variant past the sequential ones *shares* its index with the
//! matching sequential entry — scheduling, threading and resolution,
//! not the data structure, are what they isolate — so build time and
//! heap bytes are reported from the shared index. The first variant is
//! always the sequential 1-step oracle.

use std::collections::HashSet;
use std::time::Instant;

use exma_engine::{BatchConfig, EngineBuilder, Executor, HeapBreakdown, IndexLayout, QueryResults};
use exma_genome::Symbol;
use exma_index::{FmIndex, KStepFmIndex, ResolveConfig};

/// Op indices of the measurement grid.
pub const OP_COUNT: usize = 0;
/// The all-locate op.
pub const OP_LOCATE: usize = 1;
/// The mixed count+locate(+capped+interval) scenario.
pub const OP_MIXED: usize = 2;
/// Ops per workload.
pub const OP_KINDS: usize = 3;
/// JSON names of the ops.
pub const OP_NAMES: [&str; OP_KINDS] = ["count", "locate", "mixed"];

/// Which ops a variant is timed on. Resolver-isolating variants share
/// their count path with the locality engine, so re-timing counts would
/// only pad the run; every variant still *verifies* every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    /// Timed on count, locate, and the mixed scenario.
    All,
    /// Timed on locate only.
    LocateOnly,
}

impl Measure {
    /// Whether op `op` is timed for this variant.
    pub fn includes(self, op: usize) -> bool {
        match self {
            Measure::All => true,
            Measure::LocateOnly => op == OP_LOCATE,
        }
    }
}

/// The builder-config enumeration the whole harness drives off.
/// Duplicate descriptors (e.g. `--threads 1` reproducing the serial
/// locality engine, which short-circuits to it anyway) are dropped,
/// keeping the first occurrence.
pub fn builder_configs(thread_counts: &[usize]) -> Vec<(EngineBuilder, Measure)> {
    let mut configs: Vec<(EngineBuilder, Measure)> = Vec::new();
    // Sequential baselines at every step width; seq_k1 is the oracle
    // and must stay first.
    for k in [1usize, 2, 4] {
        configs.push((EngineBuilder::new().k(k).sequential(), Measure::All));
    }
    // Plain lockstep at both widths isolates batching from scheduling.
    for k in [2usize, 4] {
        configs.push((
            EngineBuilder::new().k(k).schedule(BatchConfig::default()),
            Measure::All,
        ));
    }
    // The prefetching schedule at the headline width (locality is the
    // builder default).
    configs.push((EngineBuilder::new(), Measure::All));
    // Sharding at every requested thread count.
    for &threads in thread_counts {
        configs.push((EngineBuilder::new().threads(threads), Measure::All));
    }
    // Resolver-schedule isolation: locality search, hint-free resolver
    // — locate timing only (counts are identical to the locality entry).
    configs.push((
        EngineBuilder::new().resolve(ResolveConfig::default()),
        Measure::LocateOnly,
    ));
    // The memory-first layout preset at the headline width.
    configs.push((
        EngineBuilder::new().layout(IndexLayout::compact()),
        Measure::All,
    ));
    let mut seen = HashSet::new();
    configs.retain(|(builder, _)| seen.insert(builder.descriptor()));
    configs
}

/// One genome's worth of built indexes, shared across variants.
pub struct EngineSet {
    pub one: FmIndex,
    pub k2: KStepFmIndex,
    pub k4: KStepFmIndex,
    /// k = 4 rebuilt under [`IndexLayout::compact`], the memory-first
    /// preset.
    pub k4_compact: KStepFmIndex,
    /// Wall-clock build seconds for `one`, `k2`, `k4`, `k4_compact`
    /// respectively.
    pub build_secs: [f64; 4],
}

impl EngineSet {
    /// Builds all four indexes from one sentinel-terminated text, timing
    /// each build (suffix-array construction included — each engine pays
    /// its full cost from raw text).
    pub fn build(text: &[Symbol]) -> EngineSet {
        fn timed(build: impl FnOnce() -> KStepFmIndex) -> (KStepFmIndex, f64) {
            let start = Instant::now();
            let index = build();
            (index, start.elapsed().as_secs_f64())
        }
        let t0 = Instant::now();
        let one = FmIndex::from_text(text);
        let one_secs = t0.elapsed().as_secs_f64();
        let (k2, k2_secs) = timed(|| {
            EngineBuilder::new()
                .k(2)
                .build_index(text)
                .expect("k=2 recipe builds")
        });
        let (k4, k4_secs) = timed(|| {
            EngineBuilder::new()
                .k(4)
                .build_index(text)
                .expect("k=4 recipe builds")
        });
        let (k4_compact, compact_secs) = timed(|| {
            EngineBuilder::new()
                .layout(IndexLayout::compact())
                .build_index(text)
                .expect("the compact preset builds on every profile")
        });
        EngineSet {
            one,
            k2,
            k4,
            k4_compact,
            build_secs: [one_secs, k2_secs, k4_secs, compact_secs],
        }
    }

    /// Every measured variant: the enumeration of [`builder_configs`]
    /// attached to this set's shared indexes.
    pub fn variants(&self, thread_counts: &[usize]) -> Vec<Variant<'_>> {
        builder_configs(thread_counts)
            .into_iter()
            .map(|(builder, measure)| self.attach(builder, measure))
            .collect()
    }

    /// Wires one builder config onto the shared index matching its
    /// width *and* memory layout (an executor attached to an index built
    /// under a different layout would report the wrong footprint).
    fn attach(&self, builder: EngineBuilder, measure: Measure) -> Variant<'_> {
        let k = builder.step_width();
        let layout = builder.index_layout();
        let (index, build_secs, owner): (&KStepFmIndex, f64, &str) = match (k, layout) {
            (2, l) if l == IndexLayout::default() => (&self.k2, self.build_secs[1], "seq_k2"),
            (4, l) if l == IndexLayout::compact() => (
                &self.k4_compact,
                self.build_secs[3],
                "lockstep_k4_locality_compact",
            ),
            (4, l) if l == IndexLayout::default() => (&self.k4, self.build_secs[2], "seq_k4"),
            (1, l) if l == IndexLayout::default() => {
                // The 1-step baseline attaches to the bare FmIndex; the
                // k = 1 k-step index exists only as `seq_k1`'s oracle twin.
                let exec = if builder.is_sequential() {
                    builder.attach_one_step(&self.one)
                } else {
                    unreachable!("no shared lockstep index at k=1")
                }
                .expect("enumerated recipes always attach");
                let label = builder.descriptor();
                return Variant {
                    shares_index_with: (label != "seq_k1").then(|| "seq_k1".to_string()),
                    label,
                    k,
                    exec,
                    build_secs: self.build_secs[0],
                    heap: self.one.heap_breakdown(),
                    heap_bytes: self.one.heap_bytes(),
                    threads: None,
                    measure,
                };
            }
            (k, l) => unreachable!("no shared index at k={k} with layout {l:?}"),
        };
        let exec = builder
            .attach(index)
            .expect("enumerated recipes always attach");
        let label = builder.descriptor();
        Variant {
            shares_index_with: (label != owner).then(|| owner.to_string()),
            label,
            k,
            exec,
            build_secs,
            heap: index.heap_breakdown(),
            heap_bytes: index.heap_bytes(),
            threads: (builder.thread_count() > 1).then(|| builder.thread_count()),
            measure,
        }
    }
}

/// One measured variant: a derived label, the executor behind it, and
/// its reporting metadata.
pub struct Variant<'a> {
    /// [`EngineBuilder::descriptor`] of the config — the JSON `engine`
    /// label.
    pub label: String,
    pub k: usize,
    /// The executor every op runs through.
    pub exec: Box<dyn Executor + 'a>,
    pub build_secs: f64,
    /// Per-component heap attribution of the variant's index
    /// (`heap.total() == heap_bytes`).
    pub heap: HeapBreakdown,
    pub heap_bytes: usize,
    /// The sequential entry whose index this variant reuses.
    pub shares_index_with: Option<String>,
    /// Worker threads for sharded variants, `None` for single-threaded.
    pub threads: Option<usize>,
    /// Ops this variant is timed on (it still *verifies* all ops).
    pub measure: Measure,
}

/// An index built at a swept rate, measured through a builder-derived
/// variant — how `--sweep-sample-rate` (k-mer checkpoint spacing) and
/// `--sweep-sa-sample-rate` (SA sampling) reuse the uniform driver.
pub struct SweepPoint {
    pub index: KStepFmIndex,
    pub builder: EngineBuilder,
    pub build_secs: f64,
    pub measure: Measure,
}

impl SweepPoint {
    /// Builds the swept index and remembers the recipe.
    pub fn build(text: &[Symbol], builder: EngineBuilder, measure: Measure) -> SweepPoint {
        let start = Instant::now();
        let index = builder.build_index(text).expect("sweep recipe builds");
        SweepPoint {
            index,
            builder,
            build_secs: start.elapsed().as_secs_f64(),
            measure,
        }
    }

    /// The measured variant for this sweep point (it owns its index, so
    /// nothing is shared).
    pub fn variant(&self) -> Variant<'_> {
        Variant {
            label: self.builder.descriptor(),
            k: self.builder.step_width(),
            exec: self
                .builder
                .attach(&self.index)
                .expect("sweep recipe attaches to its own index"),
            build_secs: self.build_secs,
            heap: self.index.heap_breakdown(),
            heap_bytes: self.index.heap_bytes(),
            shares_index_with: None,
            threads: (self.builder.thread_count() > 1).then(|| self.builder.thread_count()),
            measure: self.measure,
        }
    }
}

/// Folds a result set so the optimizer cannot elide query work and so
/// runs are comparable across engines: counts, interval bounds, kept
/// positions and their total all feed the sum.
pub fn checksum(results: &QueryResults) -> u64 {
    let mut sum = results.total_positions() as u64;
    for (i, output) in results.outputs().iter().enumerate() {
        sum = sum.wrapping_add(match *output {
            exma_engine::QueryOutput::Count(n) => n as u64,
            exma_engine::QueryOutput::Interval { lo, hi } => (lo as u64) << 32 | hi as u64,
            exma_engine::QueryOutput::Located { truncated }
            | exma_engine::QueryOutput::BothLocated { truncated } => {
                let fold: u64 = results.positions(i).iter().map(|&p| p as u64).sum();
                fold + u64::from(truncated)
            }
        });
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    // The harness's own mixed-scenario builder, so this agreement test
    // always covers exactly the workload the timed runs measure.
    use crate::mixed_batch;
    use exma_engine::{QueryBatch, QueryRequest};
    use exma_genome::{Base, Genome, GenomeProfile};

    #[test]
    fn enumeration_derives_dedupes_and_orders() {
        let configs = builder_configs(&[1, 2, 4]);
        let labels: Vec<String> = configs.iter().map(|(b, _)| b.descriptor()).collect();
        // seq_k1 leads (the oracle), t1 deduped into the serial locality
        // entry, the resolver isolation trails as locate-only.
        assert_eq!(labels[0], "seq_k1");
        assert_eq!(
            labels,
            [
                "seq_k1",
                "seq_k2",
                "seq_k4",
                "lockstep_k2_plain",
                "lockstep_k4_plain",
                "lockstep_k4_locality",
                "lockstep_k4_locality_t2",
                "lockstep_k4_locality_t4",
                "lockstep_k4_locality_rplain",
                "lockstep_k4_locality_compact",
            ]
        );
        assert_eq!(
            configs
                .iter()
                .filter(|(_, m)| *m == Measure::LocateOnly)
                .count(),
            1
        );
        let unique: HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "labels must be unique");
    }

    #[test]
    fn all_variants_agree_on_a_toy_genome() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
        let set = EngineSet::build(&genome.text_with_sentinel());
        let patterns: Vec<Vec<Base>> = (0..40)
            .map(|i| genome.seq().slice(i * 37, 9 + i % 13))
            .collect();
        let variants = set.variants(&[1, 2, 4]);
        assert_eq!(variants.len(), 10);
        let batches = [
            QueryBatch::uniform(QueryRequest::Count, &patterns),
            QueryBatch::uniform(QueryRequest::locate(), &patterns),
            mixed_batch(&patterns),
        ];
        for batch in &batches {
            let (expected, _) = variants[0].exec.run(batch);
            let expected_sum = checksum(&expected);
            for variant in &variants[1..] {
                let (results, _) = variant.exec.run(batch);
                assert_eq!(results, expected, "{}", variant.label);
                assert_eq!(checksum(&results), expected_sum, "{}", variant.label);
            }
        }
    }

    #[test]
    fn sharing_and_measure_metadata_line_up() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 7);
        let set = EngineSet::build(&genome.text_with_sentinel());
        let variants = set.variants(&[2]);
        assert!(variants[0].shares_index_with.is_none());
        let locality = variants
            .iter()
            .find(|v| v.label == "lockstep_k4_locality")
            .unwrap();
        assert_eq!(locality.shares_index_with.as_deref(), Some("seq_k4"));
        assert_eq!(locality.heap_bytes, set.k4.heap_bytes());
        let sharded = variants
            .iter()
            .find(|v| v.label == "lockstep_k4_locality_t2")
            .unwrap();
        assert_eq!(sharded.threads, Some(2));
        let rplain = variants
            .iter()
            .find(|v| v.label == "lockstep_k4_locality_rplain")
            .unwrap();
        assert!(!rplain.measure.includes(OP_COUNT));
        assert!(rplain.measure.includes(OP_LOCATE));
        assert!(!rplain.measure.includes(OP_MIXED));
        for variant in &variants {
            assert_eq!(
                variant.heap.total(),
                variant.heap_bytes,
                "{}: breakdown must sum to the scalar",
                variant.label
            );
        }
    }

    #[test]
    fn layout_preset_variants_own_their_indexes_and_compact_shrinks() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 17);
        let set = EngineSet::build(&genome.text_with_sentinel());
        let variants = set.variants(&[1]);
        let compact = variants
            .iter()
            .find(|v| v.label == "lockstep_k4_locality_compact")
            .unwrap();
        let default = variants
            .iter()
            .find(|v| v.label == "lockstep_k4_locality")
            .unwrap();
        // The preset variant builds its own index, so it shares nothing.
        assert!(compact.shares_index_with.is_none());
        assert_eq!(compact.heap_bytes, set.k4_compact.heap_bytes());
        assert!(
            compact.heap_bytes < default.heap_bytes,
            "compact {} vs default {}",
            compact.heap_bytes,
            default.heap_bytes
        );
        // The saving is in the checkpoint components specifically.
        assert!(
            compact.heap.k_occ_checkpoints + compact.heap.k_occ_deltas
                < default.heap.k_occ_checkpoints + default.heap.k_occ_deltas
        );
    }

    #[test]
    fn sweep_points_agree_with_the_oracle_and_shrink_with_rate() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 11);
        let text = genome.text_with_sentinel();
        let one = FmIndex::from_text(&text);
        let patterns: Vec<Vec<Base>> = (0..30).map(|i| genome.seq().slice(i * 23, 12)).collect();
        let batch = QueryBatch::uniform(QueryRequest::Count, &patterns);
        let expected: Vec<usize> = patterns.iter().map(|p| one.count(p)).collect();
        let fine = SweepPoint::build(
            &text,
            EngineBuilder::new().layout(IndexLayout::new().k_occ_sample_rate(64)),
            Measure::All,
        );
        let coarse = SweepPoint::build(
            &text,
            EngineBuilder::new().layout(IndexLayout::new().k_occ_sample_rate(1024)),
            Measure::All,
        );
        for point in [&fine, &coarse] {
            let (results, _) = point.variant().exec.run(&batch);
            let counts: Vec<usize> = (0..results.len()).map(|i| results.count(i)).collect();
            assert_eq!(counts, expected);
        }
        assert!(coarse.variant().heap_bytes < fine.variant().heap_bytes);
    }

    #[test]
    fn sa_sweep_points_agree_with_the_oracle_and_shrink_with_rate() {
        let genome = Genome::synthesize(&GenomeProfile::toy(), 13);
        let text = genome.text_with_sentinel();
        let one = FmIndex::from_text(&text);
        let patterns: Vec<Vec<Base>> = (0..30).map(|i| genome.seq().slice(i * 19, 11)).collect();
        let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
        let fine = SweepPoint::build(
            &text,
            EngineBuilder::new().layout(IndexLayout::new().sa_sample_rate(8)),
            Measure::LocateOnly,
        );
        let coarse = SweepPoint::build(
            &text,
            EngineBuilder::new().layout(IndexLayout::new().sa_sample_rate(64)),
            Measure::LocateOnly,
        );
        for point in [&fine, &coarse] {
            let (results, _) = point.variant().exec.run(&batch);
            for (i, p) in patterns.iter().enumerate() {
                assert_eq!(results.positions(i), &one.locate(p)[..]);
            }
            assert!(!point.variant().measure.includes(OP_COUNT));
            assert!(point.variant().measure.includes(OP_LOCATE));
        }
        assert!(coarse.variant().heap_bytes < fine.variant().heap_bytes);
        assert_eq!(fine.variant().label, "lockstep_k4_locality_sa8");
    }
}
