//! Acceptance properties of snapshot persistence at the engine surface:
//! for the default layout, a memory-first one and a custom-spacing
//! recipe, an index written to a snapshot and reloaded — the default
//! through `EngineBuilder::snapshot_to` and `attach_from_snapshot`, the
//! others through `exma_index::write_snapshot` and
//! `load_snapshot_expecting` — must be *equal* to the freshly built one:
//! same build recipe, same heap attribution, and byte-identical
//! `Executor` results on every request shape of 64 sampled patterns. A
//! snapshot must only ever load under the recipe that wrote it, which is
//! also how an image written under an earlier default recipe migrates:
//! refused by name under today's default builder, loaded under its own
//! explicit `KStepBuildConfig` and attached by that builder unchanged.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{answer, judge, layout_matrix, memory_first, mixed_batch, toy_genome, Truth};
use exma_engine::{EngineBuilder, EngineError, SnapshotError};
use exma_index::{
    load_snapshot_expecting, naive, write_snapshot, FmIndex, KStepBuildConfig, KStepFmIndex,
    MAX_STEP,
};

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

#[test]
fn round_trip_is_executor_identical_across_every_layout_and_width() {
    let genome = toy_genome();
    let text = genome.text_with_sentinel();
    let batch = mixed_batch(&genome, 64, 227);

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
    let batch = mixed_batch(&genome, 32, 229);
    let (results, _) = builder.attach(&loaded).unwrap().run(&batch);
    for i in 0..batch.len() {
        let hits = naive::occurrences(genome.seq(), batch.pattern(i));
        let truth = Truth { hits, both: vec![] };
        let verdict = judge(batch.request(i), &truth, answer(&results, i), None);
        assert_eq!(verdict, Ok(()), "#{i}");
    }
}

#[test]
fn the_default_recipe_is_one_recipe() {
    for k in 1..=MAX_STEP {
        assert_eq!(
            EngineBuilder::new().k(k).build_config().unwrap(),
            KStepBuildConfig::for_k(k),
            "k={k}"
        );
    }
    // So its samples cost a word every `sa_sample_rate` rows (the other
    // six components: `heap_components_equal_their_closed_forms` in the
    // builder's unit tests), and the 1-step oracle samples at that rate.
    let text = toy_genome().text_with_sentinel();
    let index = EngineBuilder::new().build_index(&text).unwrap();
    let sa_sample_rate = KStepBuildConfig::for_k(4).sa_sample_rate;
    assert_eq!(
        index.heap_breakdown().sa_samples,
        text.len().div_ceil(sa_sample_rate) * 4
    );
    assert_eq!(
        FmIndex::from_text(&text).sampled_sa().sample_rate(),
        sa_sample_rate
    );
}
