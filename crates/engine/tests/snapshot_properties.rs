//! Acceptance properties of snapshot persistence at the engine surface:
//! for the default layout, a memory-first one and a custom-spacing
//! recipe, an index written to a snapshot and reloaded — the default
//! through `EngineBuilder::snapshot_to` and `attach_from_snapshot`, the
//! others through `exma_index::write_snapshot` and
//! `load_snapshot_expecting` — must be *equal* to the freshly built one:
//! same build recipe, same heap attribution, and byte-identical
//! `Executor` results on 600 random mixed queries. A snapshot must only
//! ever load under the recipe that wrote it, which is also how an image
//! written under an earlier default recipe migrates: refused by name
//! under today's default builder, loaded under its own explicit
//! `KStepBuildConfig` and attached by that builder unchanged.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use exma_engine::{EngineBuilder, EngineError, QueryBatch, QueryRequest, SnapshotError};
use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::{
    load_snapshot_expecting, naive, write_snapshot, FmBuildConfig, KStepBuildConfig, KStepFmIndex,
    MAX_STEP,
};

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
fn memory_first(k: usize) -> KStepBuildConfig {
    KStepBuildConfig {
        occ_sample_rate: 54,
        sa_sample_rate: 32,
        k_occ_sample_rate: 640,
        superblock_rate: 32,
        ..KStepBuildConfig::for_k(k)
    }
}

/// The layout matrix under test at step width `k`: the default, a
/// memory-first layout, plus one recipe moving every spacing off both.
fn layout_matrix(k: usize) -> Vec<(&'static str, KStepBuildConfig)> {
    vec![
        ("default", KStepBuildConfig::for_k(k)),
        ("memory_first", memory_first(k)),
        (
            "custom",
            KStepBuildConfig {
                occ_sample_rate: 7,
                sa_sample_rate: 8,
                k_occ_sample_rate: 96,
                superblock_rate: 2,
                ..KStepBuildConfig::for_k(k)
            },
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

    for k in [2usize, 4] {
        let builder = EngineBuilder::new().k(k);
        for (name, config) in layout_matrix(k) {
            let fresh = KStepFmIndex::from_text_with_config(&text, config).unwrap();
            let path = temp_path(name);
            // The builder persists only its own recipe; any other layout
            // goes through the index layer, recipe-checked on load.
            let loaded = if config == builder.build_config().unwrap() {
                builder.snapshot_to(&fresh, &path).unwrap();
                builder.attach_from_snapshot(&path).unwrap()
            } else {
                write_snapshot(&fresh, &path).unwrap();
                load_snapshot_expecting(&path, Some(&config)).unwrap()
            };
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
    let written = memory_first(4);
    let index = KStepFmIndex::from_text_with_config(&text, written).unwrap();
    let path = temp_path("recipe_gate");
    write_snapshot(&index, &path).unwrap();

    // The default builder is rejected with the typed mismatch naming
    // both recipes — at the image's k and at another.
    for reader in [EngineBuilder::new().k(4), EngineBuilder::new().k(2)] {
        match reader.attach_from_snapshot(&path) {
            Err(EngineError::Snapshot(SnapshotError::LayoutMismatch { expected, found })) => {
                assert_eq!(expected, reader.build_config().unwrap());
                assert_eq!(found, written);
            }
            other => panic!("{}: {other:?}", reader.descriptor()),
        }
    }
    // So is every other differently-shaped recipe — wrong k, wrong
    // spacing, wrong SA rate.
    for expected in [
        memory_first(2),
        KStepBuildConfig {
            superblock_rate: 16,
            ..written
        },
        KStepBuildConfig {
            sa_sample_rate: 8,
            ..written
        },
    ] {
        match load_snapshot_expecting(&path, Some(&expected)) {
            Err(SnapshotError::LayoutMismatch {
                expected: wanted,
                found,
            }) => {
                assert_eq!(wanted, expected);
                assert_eq!(found, written);
            }
            other => panic!("{expected:?}: {other:?}"),
        }
    }
    // The writing recipe still loads.
    assert_eq!(
        load_snapshot_expecting(&path, Some(&written)).unwrap(),
        index
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_to_rejects_an_index_built_elsewhere() {
    let text = toy_genome().text_with_sentinel();
    let index = KStepFmIndex::from_text_with_config(&text, memory_first(2)).unwrap();
    let path = temp_path("foreign_index");
    match EngineBuilder::new().k(2).snapshot_to(&index, &path) {
        Err(EngineError::Snapshot(SnapshotError::LayoutMismatch { .. })) => {}
        other => panic!("foreign index accepted: {other:?}"),
    }
    assert!(!path.exists(), "rejected snapshot must not touch the disk");
}

#[test]
fn an_old_default_image_is_refused_by_name_and_loads_under_its_own_layout() {
    // occ 44 / sa 32 was the default layout until the occurrence lines
    // were filled; images written then are still on disks.
    let genome = toy_genome();
    let old_default = KStepBuildConfig {
        occ_sample_rate: 44,
        sa_sample_rate: 32,
        ..KStepBuildConfig::for_k(4)
    };
    let path = temp_path("old_default");
    let index =
        KStepFmIndex::from_text_with_config(&genome.text_with_sentinel(), old_default).unwrap();
    write_snapshot(&index, &path).unwrap();

    let builder = EngineBuilder::new();
    match builder.attach_from_snapshot(&path) {
        Err(err @ EngineError::Snapshot(SnapshotError::LayoutMismatch { .. })) => {
            let message = err.to_string();
            assert!(message.contains("expected k4_occ54_sa11_"), "{message}");
            assert!(message.contains("found k4_occ44_sa32_"), "{message}");
        }
        other => panic!("old-default image under the default recipe: {other:?}"),
    }

    let loaded = load_snapshot_expecting(&path, Some(&old_default)).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, index);
    let batch = mixed_batch(&genome, 300, 229);
    let (results, _) = builder.attach(&loaded).unwrap().run(&batch);
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
