//! Acceptance properties of snapshot persistence at the engine surface:
//! at every step width, forward and on both strands, an index written
//! through `EngineBuilder::snapshot_to` and reloaded through
//! `attach_from_snapshot` must be *equal* to the freshly built one: same
//! build, same heap attribution, and byte-identical `Executor` results on
//! every request shape of 64 sampled patterns. A snapshot must only ever
//! load under the build (`k`, strandedness) that wrote it.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use common::{mixed_batch, toy_genome};
use exma_engine::{EngineBuilder, EngineError, SnapshotError};
use exma_index::layout::SA_SAMPLE_RATE;
use exma_index::{
    load_snapshot_expecting, write_snapshot, FmIndex, KStepBuildConfig, KStepFmIndex, MAX_STEP,
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

    for k in 1..=MAX_STEP {
        for bidirectional in [false, true] {
            let builder = EngineBuilder::new().k(k).bidirectional(bidirectional);
            let name = builder.descriptor();
            let fresh = builder.build_index(&text).unwrap();
            let path = temp_path(&name);
            builder.snapshot_to(&fresh, &path).unwrap();
            let loaded = builder.attach_from_snapshot(&path).unwrap();
            let _ = std::fs::remove_file(&path);

            // Structural equality: build, tables, and allocation-exact
            // heap attribution (what STATS publishes at bind).
            assert_eq!(loaded.build_config(), fresh.build_config(), "{name}");
            assert_eq!(loaded.heap_breakdown(), fresh.heap_breakdown(), "{name}");
            assert_eq!(loaded, fresh, "{name}");

            // Behavioral equality: byte-identical executor results on
            // the mixed workload, through the same descriptor (strand
            // searches are the differential harness's business).
            if !bidirectional {
                let (expected, _) = builder.attach(&fresh).unwrap().run(&batch);
                let (results, _) = builder.attach(&loaded).unwrap().run(&batch);
                assert_eq!(results, expected, "{name}");
            }
        }
    }
}

#[test]
fn a_snapshot_only_loads_under_the_recipe_that_wrote_it() {
    let text = toy_genome().text_with_sentinel();
    let writer = EngineBuilder::new();
    let written = writer.build_config().unwrap();
    let index = writer.build_index(&text).unwrap();
    let path = temp_path("recipe_gate");
    writer.snapshot_to(&index, &path).unwrap();

    // Another builder is rejected with the typed mismatch naming both
    // builds — at another k, and at this k on both strands.
    for reader in [
        EngineBuilder::new().k(2),
        EngineBuilder::new().bidirectional(true),
    ] {
        match reader.attach_from_snapshot(&path) {
            Err(err @ EngineError::Snapshot(SnapshotError::LayoutMismatch { expected, found })) => {
                assert_eq!(expected, reader.build_config().unwrap());
                assert_eq!(found, written);
                let message = err.to_string();
                assert!(message.ends_with("found k4"), "{message}");
            }
            other => panic!("{}: {other:?}", reader.descriptor()),
        }
    }
    // So is every other build at the index layer.
    for expected in [
        KStepBuildConfig::for_k(1),
        KStepBuildConfig {
            bidirectional: true,
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
    // The writing build still loads.
    assert_eq!(
        load_snapshot_expecting(&path, Some(&written)).unwrap(),
        index
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_to_rejects_an_index_built_elsewhere() {
    let text = toy_genome().text_with_sentinel();
    let forward = KStepFmIndex::from_text(&text, 4);
    let both = EngineBuilder::new().k(2).bidirectional(true);
    let doubled = both.build_index(&text).unwrap();
    for (builder, index) in [
        (EngineBuilder::new().k(2), &forward),
        (EngineBuilder::new().k(2), &doubled),
        (both, &forward),
    ] {
        let path = temp_path("foreign_index");
        match builder.snapshot_to(index, &path) {
            Err(EngineError::Snapshot(SnapshotError::LayoutMismatch { .. })) => {}
            other => panic!(
                "{}: foreign index accepted: {other:?}",
                builder.descriptor()
            ),
        }
        assert!(!path.exists(), "rejected snapshot must not touch the disk");
    }
    // The index layer writes any index; its build travels with it.
    let path = temp_path("index_layer");
    write_snapshot(&forward, &path).unwrap();
    let loaded = EngineBuilder::new().attach_from_snapshot(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, forward);
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
    // So its samples cost a word every `SA_SAMPLE_RATE` rows (the other
    // six components: `heap_components_equal_their_closed_forms` in the
    // builder's unit tests), and the 1-step oracle samples the same rows.
    let text = toy_genome().text_with_sentinel();
    let index = EngineBuilder::new().build_index(&text).unwrap();
    let samples = text.len().div_ceil(SA_SAMPLE_RATE) * 4;
    assert_eq!(index.heap_breakdown().sa_samples, samples);
    let fm = FmIndex::from_text(&text);
    assert_eq!(fm.heap_breakdown().sa_samples, samples);
    assert_eq!(fm.sampled_sa(), index.base_index().sampled_sa());
}
