//! The build's memory bound: a cold index build peaks at a few bytes a
//! base above what its caller holds, and a snapshot write and a snapshot
//! load stage nothing beside the index but fixed-size chunks and the
//! load's mark words, one bit a row.
//!
//! A counting global allocator keeps the live heap and its high-water
//! mark. The binary holds one test, so no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use exma_engine::EngineBuilder;
use exma_genome::{Genome, GenomeProfile};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to the system allocator with the
// caller's own arguments, so each of `GlobalAlloc`'s contracts is the
// system allocator's; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is the system's,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its value and the heap's high-water mark while it
/// ran, above what was live when it started.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let value = f();
    (value, PEAK.load(Relaxed) - before)
}

#[test]
fn a_cold_build_and_a_snapshot_write_stay_within_their_bounds() {
    let mut profile = GenomeProfile::picea_rel();
    profile.len = 2_000_000;
    let genome = Genome::synthesize(&profile, 42);
    let text = genome.text_with_sentinel();
    let bases = genome.len() as f64;

    // Forward: the 4 B/base suffix array beside the samples, while one
    // pass writes the one-byte k-BWT codes over it; the codes, shrunk in
    // place to a quarter, fill the k-step table's lanes and are freed
    // before the 1-step table is read off those lanes — never the SA-IS
    // side arrays, a BWT, the codes beside the suffix array, or the
    // suffix array beside either table.
    let builder = EngineBuilder::new();
    let (forward, peak) = peak_above(|| builder.build_index(&text).expect("builds"));
    assert!(
        peak >= forward.heap_bytes(),
        "the counter missed the index itself: {peak} B peak for a {} B index",
        forward.heap_bytes()
    );
    let per_base = peak as f64 / bases;
    assert!(
        per_base <= 4.95,
        "a forward build peaked at {per_base:.2} B/base above its caller (bound 4.95)"
    );

    // The write streams the image off the index's tables: nothing beside
    // the index but fixed-size chunks.
    let mut path = std::env::temp_dir();
    path.push(format!("exma_build_memory_{}.snap", std::process::id()));
    let (written, peak) = peak_above(|| builder.snapshot_to(&forward, &path));
    written.expect("writes the snapshot");
    let per_base = peak as f64 / bases;
    assert!(
        per_base <= 0.25,
        "a snapshot write held {per_base:.2} B/base beside the index (bound 0.25)"
    );
    drop(forward);

    // The load decodes each section straight into the buffer it becomes,
    // the k-codes into the k-step table's lanes: beside the index it holds
    // the mark words the 1-step table is marked from and the read chunk,
    // never the codes or the image.
    let (loaded, peak) = peak_above(|| builder.attach_from_snapshot(&path));
    let loaded = loaded.expect("loads the snapshot");
    let per_base = (peak - loaded.heap_bytes()) as f64 / bases;
    assert!(
        per_base <= 0.17,
        "a snapshot load held {per_base:.2} B/base beside the index it built (bound 0.17)"
    );
    drop(loaded);

    // Doubled: the same build over the 2n + 1 doubled text, which the
    // build itself makes.
    let builder = builder.bidirectional(true);
    let (doubled, peak) = peak_above(|| builder.build_index(&text).expect("builds"));
    assert!(peak >= doubled.heap_bytes());
    let per_base = peak as f64 / bases;
    assert!(
        per_base <= 12.0,
        "a doubled build peaked at {per_base:.2} B per forward base above its caller (bound 12)"
    );
    builder
        .snapshot_to(&doubled, &path)
        .expect("writes the doubled snapshot");
    drop(doubled);
    let (loaded, peak) = peak_above(|| builder.attach_from_snapshot(&path));
    let _ = std::fs::remove_file(&path);
    let loaded = loaded.expect("loads the doubled snapshot");
    let per_base = (peak - loaded.heap_bytes()) as f64 / bases;
    assert!(
        per_base <= 0.3,
        "a doubled snapshot load held {per_base:.2} B per forward base beside the index (bound 0.3)"
    );
}
