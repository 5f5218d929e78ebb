//! Acceptance properties of snapshot persistence at the engine surface:
//! for the default `IndexLayout`, a memory-first one and a custom-spacing
//! recipe, an index
//! written with `EngineBuilder::snapshot_to` and reloaded with
//! `attach_from_snapshot` must be *equal* to the freshly built one —
//! same build recipe, same heap attribution, and byte-identical
//! `Executor` results on 600 random mixed queries — and a snapshot must
//! only ever load under the recipe that wrote it, which is also how an
//! image written under an earlier default recipe migrates: refused by
//! name under today's default, loaded under its own explicit layout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use exma_engine::{
    EngineBuilder, EngineError, IndexLayout, QueryBatch, QueryRequest, SnapshotError,
};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::{naive, FmBuildConfig, KStepBuildConfig, MAX_STEP};

fn toy_genome() -> Genome {
    Genome::synthesize(&GenomeProfile::toy(), 42)
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "exma_engine_snapshot_{}_{}_{tag}.exma",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    path
}

/// Coarser k-occ checkpoints under wider superblocks and sparser SA
/// samples, every rate spelled out.
fn memory_first() -> IndexLayout {
    IndexLayout::new()
        .occ_sample_rate(54)
        .sa_sample_rate(32)
        .k_occ_sample_rate(640)
        .superblock_rate(32)
}

/// The layout matrix under test: the default, a memory-first layout,
/// plus one recipe moving every spacing off both.
fn layout_matrix() -> Vec<(&'static str, IndexLayout)> {
    vec![
        ("default", IndexLayout::new()),
        ("memory_first", memory_first()),
        (
            "custom",
            IndexLayout::new()
                .occ_sample_rate(7)
                .sa_sample_rate(8)
                .k_occ_sample_rate(96)
                .superblock_rate(2),
        ),
    ]
}

/// The loopback suites' mixed workload: counts, (capped) locates and
/// interval requests over hit/miss/empty/short-repeat patterns.
fn mixed_batch(genome: &Genome, total: usize, seed: u64) -> QueryBatch {
    let mut rng = SeededRng::new(seed);
    let mut batch = QueryBatch::new();
    for i in 0..total {
        let pattern: Vec<Base> = if i % 101 == 0 {
            Vec::new()
        } else {
            let len = if i % 13 == 0 {
                rng.range(1, 4)
            } else {
                rng.range(1, 40)
            };
            if i % 2 == 0 {
                let start = rng.range(0, genome.len() - len + 1);
                genome.seq().slice(start, len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        };
        match i % 5 {
            0 => batch.push(QueryRequest::Count, pattern),
            1 => batch.push(QueryRequest::locate(), pattern),
            2 => batch.push(QueryRequest::locate_capped(rng.range(0, 6) as u32), pattern),
            3 => batch.push(QueryRequest::Interval, pattern),
            _ => batch.push(QueryRequest::locate_capped(1000), pattern),
        }
    }
    batch
}

#[test]
fn round_trip_is_executor_identical_across_every_layout_and_width() {
    let genome = toy_genome();
    let text = genome.text_with_sentinel();
    let batch = mixed_batch(&genome, 600, 227);

    for (name, layout) in layout_matrix() {
        for k in [2usize, 4] {
            let builder = EngineBuilder::new().k(k).layout(layout);
            let fresh = builder.build_index(&text).unwrap();
            let path = temp_path(name);
            builder.snapshot_to(&fresh, &path).unwrap();
            let loaded = builder.attach_from_snapshot(&path).unwrap();
            let _ = std::fs::remove_file(&path);

            // Structural equality: recipe, tables, and allocation-exact
            // heap attribution (what STATS publishes at bind).
            assert_eq!(loaded.build_config(), fresh.build_config(), "{name} k={k}");
            assert_eq!(
                loaded.heap_breakdown(),
                fresh.heap_breakdown(),
                "{name} k={k}"
            );
            assert_eq!(loaded, fresh, "{name} k={k}");

            // Behavioral equality: byte-identical executor results on
            // the mixed workload, through the same descriptor.
            let (expected, _) = builder.attach(&fresh).unwrap().run(&batch);
            let (results, _) = builder.attach(&loaded).unwrap().run(&batch);
            assert_eq!(results, expected, "{name} k={k} ({})", builder.descriptor());
        }
    }
}

#[test]
fn a_snapshot_only_loads_under_the_recipe_that_wrote_it() {
    let text = toy_genome().text_with_sentinel();
    let writer = EngineBuilder::new().k(4).layout(memory_first());
    let index = writer.build_index(&text).unwrap();
    let path = temp_path("recipe_gate");
    writer.snapshot_to(&index, &path).unwrap();

    // Every differently-shaped reader is rejected with the typed
    // mismatch — wrong k, wrong layout, wrong spacing.
    for reader in [
        EngineBuilder::new().k(2).layout(memory_first()),
        EngineBuilder::new().k(4),
        EngineBuilder::new()
            .k(4)
            .layout(memory_first().superblock_rate(16)),
        EngineBuilder::new()
            .k(4)
            .layout(memory_first().sa_sample_rate(8)),
    ] {
        match reader.attach_from_snapshot(&path) {
            Err(EngineError::Snapshot(SnapshotError::LayoutMismatch { expected, found })) => {
                assert_eq!(expected, reader.build_config().unwrap());
                assert_eq!(found, writer.build_config().unwrap());
            }
            other => panic!("{}: {other:?}", reader.descriptor()),
        }
    }
    // The writing recipe still loads.
    assert_eq!(writer.attach_from_snapshot(&path).unwrap(), index);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_to_rejects_an_index_built_elsewhere() {
    let text = toy_genome().text_with_sentinel();
    let index = EngineBuilder::new().k(2).build_index(&text).unwrap();
    let stranger = EngineBuilder::new().k(2).layout(memory_first());
    let path = temp_path("foreign_index");
    match stranger.snapshot_to(&index, &path) {
        Err(EngineError::Snapshot(SnapshotError::LayoutMismatch { .. })) => {}
        other => panic!("foreign index accepted: {other:?}"),
    }
    assert!(!path.exists(), "rejected snapshot must not touch the disk");
}

#[test]
fn an_old_default_image_is_refused_by_name_and_loads_under_its_own_layout() {
    // occ 44 / sa 32 was `IndexLayout::default()` until the occurrence
    // lines were filled; images written then are still on disks.
    let genome = toy_genome();
    let old_default = IndexLayout::new().occ_sample_rate(44).sa_sample_rate(32);
    let writer = EngineBuilder::new().layout(old_default);
    let path = temp_path("old_default");
    let index = writer.build_index(&genome.text_with_sentinel()).unwrap();
    writer.snapshot_to(&index, &path).unwrap();

    match EngineBuilder::new().attach_from_snapshot(&path) {
        Err(err @ EngineError::Snapshot(SnapshotError::LayoutMismatch { .. })) => {
            let message = err.to_string();
            assert!(message.contains("expected k4_occ54_sa11_"), "{message}");
            assert!(message.contains("found k4_occ44_sa32_"), "{message}");
        }
        other => panic!("old-default image under the default recipe: {other:?}"),
    }

    let loaded = writer.attach_from_snapshot(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, index);
    let batch = mixed_batch(&genome, 300, 229);
    let (results, _) = writer.attach(&loaded).unwrap().run(&batch);
    for i in 0..batch.len() {
        let truth = naive::occurrences(genome.seq(), batch.pattern(i));
        match batch.request(i) {
            QueryRequest::Count => assert_eq!(results.count(i), truth.len(), "#{i}"),
            QueryRequest::Locate { max_hits } => {
                let kept = results.positions(i);
                let cap = max_hits.map_or(usize::MAX, |h| h as usize);
                assert_eq!(kept.len(), truth.len().min(cap), "#{i}");
                assert!(kept.windows(2).all(|w| w[0] < w[1]), "#{i}");
                assert!(kept.iter().all(|p| truth.binary_search(p).is_ok()), "#{i}");
            }
            _ => assert_eq!(results.interval(i).unwrap().len(), truth.len(), "#{i}"),
        }
    }
}

#[test]
fn the_default_recipe_is_one_recipe() {
    let one_step = FmBuildConfig::default();
    for k in 1..=MAX_STEP {
        let by_index = KStepBuildConfig::for_k(k);
        assert_eq!(
            EngineBuilder::new().k(k).build_config().unwrap(),
            by_index,
            "k={k}"
        );
        assert_eq!(
            FmBuildConfig {
                occ_sample_rate: by_index.occ_sample_rate,
                sa_sample_rate: by_index.sa_sample_rate,
                superblock_rate: by_index.superblock_rate,
            },
            one_step,
            "k={k}"
        );
    }
    // So its samples cost a word every `sa_sample_rate` rows (the other
    // six components: `heap_components_equal_their_closed_forms` in the
    // builder's unit tests).
    let text = toy_genome().text_with_sentinel();
    let index = EngineBuilder::new().build_index(&text).unwrap();
    assert_eq!(
        index.heap_breakdown().sa_samples,
        text.len().div_ceil(one_step.sa_sample_rate) * 4
    );
}
