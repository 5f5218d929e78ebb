//! Seeded corruption sweep over the snapshot loader.
//!
//! The robustness contract of `exma_index::snapshot`: a corrupted file
//! can never panic the loader and never yields an index — every
//! mutation is caught as a typed [`SnapshotError`], after which a
//! rebuild from the text (the server's fallback path) serves results
//! identical to a brute-force oracle. The sweep drives well over 200
//! seeded mutations — single-bit flips, truncations at arbitrary
//! offsets, torn tmp-style prefixes, and stale-version headers — over
//! valid snapshot images. Checksums stop corruption, not a consistent
//! file that states an impossible header, so the header words the loader
//! sizes tables by (k and the text length) are also rewritten *with* the
//! file checksum redone,
//! under an allocator that records how much was asked of it — and so are
//! the text section, which no checksum ties to the tables beside it, the
//! k-codes and the marker rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use exma_genome::{Base, Genome, GenomeProfile, SeededRng};
use exma_index::layout::K_OCC_SAMPLE_RATE;
use exma_index::snapshot::crc32;
use exma_index::{
    decode_snapshot, encode_snapshot, load_snapshot, naive, KStepFmIndex, SnapshotError,
};

/// The largest single request any thread of the process has made of the
/// allocator since it was last zeroed. Process-wide, not per thread: a
/// load counts the K-mer table on a thread of its own.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

/// The size above which requests are counted into [`REQUESTS_ABOVE`]:
/// `usize::MAX`, none, outside [`requests_above`].
static NOTED_ABOVE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The requests larger than [`NOTED_ABOVE`] since it was last set.
static REQUESTS_ABOVE: AtomicUsize = AtomicUsize::new(0);

/// Taken by every test of this file for its whole run, so that the
/// requests noted while one of them decodes are that decode's.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The largest request `decode` makes of the allocator, from any thread.
fn largest_request<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.store(0, Ordering::SeqCst);
    let outcome = decode();
    (outcome, LARGEST_REQUEST.load(Ordering::SeqCst))
}

/// The largest request `decode` makes of the allocator, and how many of
/// its requests are larger than `bound`, from any thread.
fn requests_above<T>(bound: usize, decode: impl FnOnce() -> T) -> (T, usize, usize) {
    NOTED_ABOVE.store(bound, Ordering::SeqCst);
    REQUESTS_ABOVE.store(0, Ordering::SeqCst);
    let (outcome, largest) = largest_request(decode);
    NOTED_ABOVE.store(usize::MAX, Ordering::SeqCst);
    (outcome, largest, REQUESTS_ABOVE.load(Ordering::SeqCst))
}

/// The system allocator, noting each request's size.
struct NotingAllocator;

// SAFETY: both calls go to `System` with their arguments unchanged, so
// `System`'s guarantees are this allocator's (zeroed and growing
// requests reach `alloc` through the trait's default methods). The added
// notes are atomic operations on statics, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for NotingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > NOTED_ABOVE.load(Ordering::Relaxed) {
            REQUESTS_ABOVE.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: NotingAllocator = NotingAllocator;

fn toy_genome(seed: u64) -> Genome {
    let mut profile = GenomeProfile::toy();
    profile.len = 2500;
    Genome::synthesize(&profile, seed)
}

/// One corruption to apply to a pristine snapshot image.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Flip one bit anywhere in the file.
    BitFlip { offset: usize, bit: u8 },
    /// Cut the file at an arbitrary offset — an interrupted copy.
    Truncate { keep: usize },
    /// A torn write: the prefix landed, the tail reads as zeros. This
    /// is what a non-atomic writer could leave; the atomic
    /// tmp+rename protocol never exposes it at the real path, but the
    /// loader must still reject it if it ever appears.
    Torn { prefix: usize },
    /// A snapshot from a future (or garbled) format revision.
    StaleVersion { version: u32 },
}

impl Mutation {
    fn draw(rng: &mut SeededRng, len: usize) -> Mutation {
        match rng.below(4) {
            0 => Mutation::BitFlip {
                offset: rng.below(len as u64) as usize,
                bit: rng.below(8) as u8,
            },
            1 => Mutation::Truncate {
                keep: rng.below(len as u64) as usize,
            },
            2 => Mutation::Torn {
                prefix: rng.below(len as u64) as usize,
            },
            _ => Mutation::StaleVersion {
                version: 2 + rng.below(1000) as u32,
            },
        }
    }

    /// Applies the mutation; `None` when it would be a no-op (e.g. a
    /// torn write whose zero tail matches the original bytes).
    fn apply(self, pristine: &[u8]) -> Option<Vec<u8>> {
        let mut bytes = pristine.to_vec();
        match self {
            Mutation::BitFlip { offset, bit } => bytes[offset] ^= 1 << bit,
            Mutation::Truncate { keep } => bytes.truncate(keep),
            Mutation::Torn { prefix } => {
                for b in &mut bytes[prefix..] {
                    *b = 0;
                }
            }
            Mutation::StaleVersion { version } => {
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
            }
        }
        if bytes == pristine {
            return None;
        }
        Some(bytes)
    }
}

/// A handful of reference patterns whose counts the fallback index must
/// reproduce against a brute-force scan of the genome.
fn oracle_patterns(genome: &Genome, rng: &mut SeededRng) -> Vec<Vec<Base>> {
    let mut patterns = Vec::new();
    for _ in 0..4 {
        let len = rng.range(4, 16);
        let start = rng.below((genome.len() - len) as u64) as usize;
        patterns.push(genome.seq().slice(start, len));
    }
    patterns
}

#[test]
fn corruption_sweep_never_panics_and_never_yields_an_index() {
    let _turn = one_at_a_time();
    let genome = toy_genome(11);
    let text = genome.text_with_sentinel();
    let mut rng = SeededRng::new(0x534E_4150 ^ 9);

    // Two images with different recipes so flips also hit two-level
    // checkpoint geometry; mutations alternate between them.
    let index_default = KStepFmIndex::from_text(&text, 4);
    let index_k2 = KStepFmIndex::from_text(&text, 2);
    let images = [encode_snapshot(&index_default), encode_snapshot(&index_k2)];
    let patterns = oracle_patterns(&genome, &mut rng);

    let mut rejected = 0usize;
    let mut cases = 0usize;
    while cases < 240 {
        let pristine = &images[cases % 2];
        let mutation = Mutation::draw(&mut rng, pristine.len());
        let Some(corrupt) = mutation.apply(pristine) else {
            continue;
        };
        cases += 1;

        // The loader must return a typed error — any Ok here means a
        // corrupted file produced an index, the one outcome the
        // verification pipeline exists to make impossible.
        let err = match decode_snapshot(&corrupt, None) {
            Err(e) => e,
            Ok(_) => panic!("{mutation:?} yielded an index"),
        };
        match err {
            SnapshotError::BadMagic
            | SnapshotError::VersionMismatch { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::Truncated { .. }
            | SnapshotError::LayoutMismatch { .. }
            | SnapshotError::Malformed { .. } => {}
            other => panic!("{mutation:?} produced non-corruption error {other:?}"),
        }
        rejected += 1;

        // The error Display path must also hold for every variant.
        assert!(!err.to_string().is_empty());
    }
    assert_eq!(rejected, cases);
    assert_cold_build_serves(&genome, &patterns, &index_default);
}

/// The fallback the server takes after any rejection: rebuild from the
/// text and serve. Holds it to the brute-force oracle and to `expected`,
/// the index the rejected file claimed to be.
fn assert_cold_build_serves(genome: &Genome, patterns: &[Vec<Base>], expected: &KStepFmIndex) {
    let rebuilt = KStepFmIndex::from_text(&genome.text_with_sentinel(), expected.k());
    for pattern in patterns {
        assert_eq!(rebuilt.count(pattern), naive::count(genome.seq(), pattern));
        let mut positions = rebuilt.locate(pattern);
        positions.sort_unstable();
        assert_eq!(positions, naive::occurrences(genome.seq(), pattern));
    }
    assert_eq!(&rebuilt, expected);
}

#[test]
fn consistent_headers_stating_impossible_recipes_are_refused_before_anything_is_sized() {
    // Header words rewritten and the file checksum redone: the image is
    // consistent, so only the header checks stand between these values
    // and the tables sized by them (k sizes the k-mer tables, the text
    // length the K-mer lookup table).
    let _turn = one_at_a_time();
    let genome = toy_genome(14);
    let index = KStepFmIndex::from_text(&genome.text_with_sentinel(), 4);
    let pristine = encode_snapshot(&index);
    for (offset, value, field) in [
        // Step widths the k-mer tables have no codes for: k = 5's codes
        // outgrow a one-byte lane, and 4^k counters a row at k = 8 would
        // be 64 Ki, at u32::MAX unbounded.
        (12, 0, "step width k"),
        (12, 5, "step width k"),
        (12, 8, "step width k"),
        (12, u32::MAX, "step width k"),
        // A text length the sections do not hold. The K-mer table is
        // sized by it (at this length K = 13: 256 MiB of counters), so
        // the loader checks it against the k-codes section's length
        // before the table is counted.
        (16, u32::MAX - 1, "k-codes length"),
        (24, 5, "section count"),
        (28, 2, "recipe flags"),
    ] {
        let mut image = pristine.clone();
        image[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        let body = image.len() - 4;
        let checksum = crc32(&image[..body]);
        image[body..].copy_from_slice(&checksum.to_le_bytes());

        let (outcome, largest) = largest_request(|| decode_snapshot(&image, None));
        assert_eq!(
            outcome.unwrap_err(),
            SnapshotError::Malformed { field },
            "word {offset} = {value}"
        );
        assert!(
            largest <= image.len(),
            "word {offset} = {value}: asked for {largest} bytes, file has {}",
            image.len()
        );
    }
    // Past that check, a load sizes by `n` only what the k-codes section
    // has vouched for: once its framing shows `n` bytes in the file, the
    // k-step table's code-lane store, which those bytes stream into — the
    // one request a load makes that is larger than the file (about 2.3
    // bytes a row at k = 4) — and the K-mer table, `4 (4^K + 1)` bytes
    // with `16 · 4^K ≤ n`, so at most `n / 4 + 8`.
    let (loaded, largest, above) =
        requests_above(pristine.len(), || decode_snapshot(&pristine, None));
    let loaded = loaded.expect("the pristine image loads");
    let n = loaded.text_len();
    let table = 4 * ((1usize << (2 * loaded.lookup_k())) + 1);
    assert!(table <= n / 4 + 8, "K = {}, n = {n}", loaded.lookup_k());
    assert!(largest >= table);
    let store = loaded.kmer_occ().heap_bytes();
    assert!(
        largest <= store,
        "asked for {largest} bytes, the k-step table holds {store}"
    );
    assert!(
        above <= 1,
        "{above} requests larger than the file's {} bytes",
        pristine.len()
    );
    let mut rng = SeededRng::new(0x534E_4150 ^ 14);
    assert_cold_build_serves(&genome, &oracle_patterns(&genome, &mut rng), &index);
}

/// Where each section's payload lies in a pristine image.
fn section_payloads(image: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut payloads = Vec::new();
    let mut offset = 32;
    while offset + 16 <= image.len() - 4 {
        let len = u64::from_le_bytes(image[offset + 4..offset + 12].try_into().unwrap()) as usize;
        payloads.push(offset + 16..offset + 16 + len);
        offset += 16 + len;
    }
    payloads
}

#[test]
fn a_consistent_image_whose_text_disagrees_with_its_tables_is_refused() {
    // The text section rewritten, its checksum and the file's redone: a
    // text that is not the one the k-BWT and the samples were made from
    // would verify every cut query against the wrong reference.
    let _turn = one_at_a_time();
    let genome = toy_genome(15);
    let index = KStepFmIndex::from_text(&genome.text_with_sentinel(), 4);
    let pristine = encode_snapshot(&index);
    let payloads = section_payloads(&pristine);
    assert_eq!(payloads.len(), 4);
    let store = index.kmer_occ().heap_bytes();
    let text = payloads[3].clone();
    assert_eq!(text.len(), 8 * (genome.len() + 1).div_ceil(32));
    let base_at = |image: &[u8], i: usize| (image[text.start + i / 4] >> (2 * (i % 4))) & 3;
    let set_base = |image: &mut [u8], i: usize, code: u8| {
        let byte = &mut image[text.start + i / 4];
        *byte = (*byte & !(3 << (2 * (i % 4)))) | code << (2 * (i % 4));
    };
    // Two positions in front of sampled ones (the layout samples
    // every 11th) that hold different bases, to swap.
    let first = 10;
    let second = (1..)
        .map(|j| 11 * j + 10)
        .find(|&i| base_at(&pristine, i) != base_at(&pristine, first))
        .expect("the genome is not one base repeated");

    type Rewrite<'a> = Box<dyn Fn(&mut Vec<u8>) + 'a>;
    let rewrites: [(&str, Rewrite); 4] = [
        // One base changed: the counts no longer match the k-BWT's.
        (
            "text base counts",
            Box::new(|image| {
                let was = base_at(image, first);
                set_base(image, first, (was + 1) % 4);
            }),
        ),
        // Two bases swapped: the counts hold, the sampled rows do not.
        (
            "text against the sampled rows",
            Box::new(|image| {
                let (a, b) = (base_at(image, first), base_at(image, second));
                set_base(image, first, b);
                set_base(image, second, a);
            }),
        ),
        // A bit where the sentinel is stored.
        (
            "text length or padding",
            Box::new(|image| set_base(image, genome.len(), 1)),
        ),
        // A window short: the section shrinks, and the framing with it.
        (
            "text length or padding",
            Box::new(|image| {
                image.drain(text.end - 8..text.end);
                let len = (text.len() - 8) as u64;
                image[text.start - 12..text.start - 4].copy_from_slice(&len.to_le_bytes());
            }),
        ),
    ];
    for (field, rewrite) in rewrites {
        let mut image = pristine.clone();
        rewrite(&mut image);
        let body = image.len() - 4;
        let text_end = body;
        let section = crc32(&image[text.start..text_end]);
        image[text.start - 4..text.start].copy_from_slice(&section.to_le_bytes());
        let checksum = crc32(&image[..body]);
        image[body..].copy_from_slice(&checksum.to_le_bytes());

        // The first two reach the tables' decoding, and so the K-mer
        // table counted beside it: its requests are among these. The
        // k-codes section, whole and ahead of the text, has streamed into
        // the k-step table's lanes: that store, no larger than the
        // pristine index's, is the one request larger than the file.
        let (outcome, largest, above) =
            requests_above(image.len(), || decode_snapshot(&image, None));
        assert_eq!(outcome.unwrap_err(), SnapshotError::Malformed { field });
        assert!(
            above <= 1,
            "{field}: {above} requests larger than the file's {} bytes",
            image.len()
        );
        assert!(
            largest <= store,
            "{field}: asked for {largest} bytes, the k-step table holds {store}"
        );
    }
    let mut rng = SeededRng::new(0x534E_4150 ^ 15);
    assert_cold_build_serves(&genome, &oracle_patterns(&genome, &mut rng), &index);
}

#[test]
fn every_single_byte_flip_in_the_header_is_rejected() {
    // Exhaustive over the 32-byte header: whatever byte corruption
    // lands on — magic, version, k, text length, section count, flags —
    // the load fails typed. This is the region where a silent acceptance
    // would be worst: a flipped k rebuilds a *different* index that
    // would serve wrong-geometry answers.
    let _turn = one_at_a_time();
    let text = toy_genome(12).text_with_sentinel();
    let index = KStepFmIndex::from_text(&text, 3);
    let pristine = encode_snapshot(&index);
    for offset in 0..32 {
        for bit in 0..8 {
            let mut corrupt = pristine.clone();
            corrupt[offset] ^= 1 << bit;
            assert!(
                decode_snapshot(&corrupt, None).is_err(),
                "header byte {offset} bit {bit} accepted"
            );
        }
    }
}

#[test]
fn every_truncation_length_is_rejected() {
    // Exhaustive truncation sweep on a small image: every possible cut
    // point is a typed rejection, not a panic.
    let _turn = one_at_a_time();
    let mut profile = GenomeProfile::toy();
    profile.len = 400;
    let text = Genome::synthesize(&profile, 13).text_with_sentinel();
    let index = KStepFmIndex::from_text(&text, 2);
    let pristine = encode_snapshot(&index);
    for keep in 0..pristine.len() {
        let err = decode_snapshot(&pristine[..keep], None).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::Malformed { .. }
            ),
            "keep {keep}: {err:?}"
        );
    }
    // And the pristine image still loads — the sweep did not depend on
    // a broken baseline.
    assert_eq!(decode_snapshot(&pristine, None).unwrap(), index);
}

#[test]
fn a_file_and_a_slice_of_the_same_bytes_load_alike() {
    // One decoder reads both sources, so a file cut anywhere — on either
    // side of every boundary the framing draws, inside a payload, inside
    // the trailer — or corrupted any way answers what the same bytes
    // answer as a slice.
    let _turn = one_at_a_time();
    let genome = toy_genome(16);
    let index = KStepFmIndex::from_text(&genome.text_with_sentinel(), 4);
    let pristine = encode_snapshot(&index);
    let mut path = std::env::temp_dir();
    path.push(format!("exma_two_sources_{}.snap", std::process::id()));
    let agree = |bytes: &[u8], what: &dyn std::fmt::Debug| {
        std::fs::write(&path, bytes).expect("write the cut file");
        let from_file = load_snapshot(&path);
        assert_eq!(from_file, decode_snapshot(bytes, None), "{what:?}");
        from_file
    };

    let mut cuts = vec![0, 7, 8, 9, 11, 12, 13, 31, 32, 33];
    let payloads = section_payloads(&pristine);
    // The k-codes, a byte a row, then the k = 4 marker rows, four words.
    assert_eq!(payloads[0].len(), index.text_len());
    assert_eq!(payloads[1].len(), 16);
    for payload in payloads {
        let framing = payload.start - 16;
        for edge in [framing, payload.start, payload.end] {
            cuts.extend([edge - 1, edge, edge + 1]);
        }
        cuts.push(payload.start + payload.len() / 2);
    }
    cuts.retain(|&keep| keep < pristine.len());
    cuts.extend((1..4).map(|back| pristine.len() - back));
    for keep in cuts {
        let err = agree(&pristine[..keep], &format!("cut at {keep}"));
        assert!(
            matches!(
                err,
                Err(SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::Malformed { .. })
            ),
            "cut at {keep}: {err:?}"
        );
    }

    let mut rng = SeededRng::new(0x534E_4150 ^ 16);
    let mut cases = 0;
    while cases < 60 {
        let mutation = Mutation::draw(&mut rng, pristine.len());
        let Some(corrupt) = mutation.apply(&pristine) else {
            continue;
        };
        cases += 1;
        assert!(agree(&corrupt, &mutation).is_err(), "{mutation:?}");
    }
    // Consistent images, the file checksum redone, whose checks fail past
    // the checksums: a text length the k-codes section does not hold, and
    // a k the stored k-mer codes overflow.
    for (offset, value) in [(16, u32::MAX - 1), (12, 2)] {
        let mut image = pristine.clone();
        image[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        let body = image.len() - 4;
        let checksum = crc32(&image[..body]);
        image[body..].copy_from_slice(&checksum.to_le_bytes());
        let err = agree(&image, &(offset, value));
        assert!(
            matches!(err, Err(SnapshotError::Malformed { .. })),
            "{err:?}"
        );
    }
    assert_eq!(agree(&pristine, &"pristine"), Ok(index));
    let _ = std::fs::remove_file(&path);
}

/// Redoes every section checksum and the file checksum of `image`.
fn redo_checksums(image: &mut [u8]) {
    for payload in section_payloads(image) {
        let crc = crc32(&image[payload.clone()]);
        image[payload.start - 4..payload.start].copy_from_slice(&crc.to_le_bytes());
    }
    let body = image.len() - 4;
    let checksum = crc32(&image[..body]);
    image[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// The k-mers on which `index`'s k-steps and its 1-step walks count
/// differently.
fn disagreements(index: &KStepFmIndex) -> usize {
    let k = index.k();
    (0..1usize << (2 * k))
        .filter(|&code| {
            let kmer: Vec<Base> = (0..k)
                .map(|j| Base::from_code((code >> (2 * (k - 1 - j))) as u8 & 3))
                .collect();
            index.count(&kmer) != index.base_index().count(&kmer)
        })
        .count()
}

#[test]
fn a_consistent_image_cannot_make_the_k_steps_and_the_one_step_walks_disagree() {
    // The 1-step BWT is the k-codes' low bits, so one rewritten code byte,
    // checksums redone, moves both tables at once: the loader refuses it
    // (the base counts, the sampled rows, the k-mer totals or the marker
    // rows no longer hold), or what it loads answers alike both ways. In
    // the two-stream format before it, a checksum-consistent rewrite of a
    // code byte or a swap of two BWT bytes loaded and disagreed.
    let _turn = one_at_a_time();
    let genome = toy_genome(17);
    let index = KStepFmIndex::from_text(&genome.text_with_sentinel(), 4);
    let pristine = encode_snapshot(&index);
    let codes = section_payloads(&pristine)[0].clone();
    let kocc = index.kmer_occ();
    let ssa = index.base_index().sampled_sa();
    let mut rows: Vec<usize> = (0..codes.len()).step_by(97).collect();
    rows.extend((0..codes.len()).filter(|&row| kocc.code(row).is_none()));
    rows.extend(
        (0..codes.len())
            .filter(|&row| ssa.get(row).is_some())
            .take(8),
    );
    let mut refused = 0;
    for row in rows {
        // Another first base with the last one kept (the BWT as it was),
        // another last base, and every bit of the byte.
        let flips = [0b0100_0000u8, 0b0000_0001, 0b0000_0011, 0xFF];
        for flip in flips {
            let mut image = pristine.clone();
            image[codes.start + row] ^= flip;
            redo_checksums(&mut image);
            match decode_snapshot(&image, None) {
                Err(SnapshotError::Malformed { .. }) => refused += 1,
                Err(other) => panic!("row {row}, flip {flip:#x}: {other:?}"),
                Ok(loaded) => assert_eq!(disagreements(&loaded), 0, "row {row}, flip {flip:#x}"),
            }
        }
    }
    assert!(refused > 0);
    assert_eq!(disagreements(&index), 0);
}

#[test]
fn marker_rows_that_are_not_the_suffix_order_rows_are_malformed() {
    // Every marker-row word rewritten, checksums redone: a duplicate, a row
    // past the text, an order that is not ascending, and a move to another
    // row holding a 0, ascending still, so that the rows are no longer
    // those of `T[0..]`, `T[1..]`, `T[2..]`, `T[3..]` in suffix order.
    let _turn = one_at_a_time();
    let genome = toy_genome(18);
    let index = KStepFmIndex::from_text(&genome.text_with_sentinel(), 4);
    let n = index.text_len() as u32;
    let pristine = encode_snapshot(&index);
    let payloads = section_payloads(&pristine);
    let (codes, section) = (payloads[0].clone(), payloads[1].clone());
    let word = |image: &[u8], j: usize| {
        u32::from_le_bytes(image[section.start + 4 * j..][..4].try_into().unwrap())
    };
    let markers: Vec<u32> = (0..4).map(|j| word(&pristine, j)).collect();
    assert!(markers.windows(2).all(|pair| pair[0] < pair[1]));
    // The next row that also holds code 0, for each marker: an ascending
    // list of placeholder rows that is not the marker rows.
    let zero_after = |row: u32| {
        (row + 1..n)
            .find(|&r| pristine[codes.start + r as usize] == 0 && !markers.contains(&r))
            .expect("code 0 occurs again")
    };
    for j in 0..4usize {
        let neighbours = (
            j.checked_sub(1).map(|i| markers[i]),
            markers.get(j + 1).copied(),
        );
        let mut rewrites = vec![("out of range", n), ("far out of range", u32::MAX)];
        if let Some(before) = neighbours.0 {
            rewrites.push(("duplicate", before));
        }
        if let Some(after) = neighbours.1 {
            rewrites.push(("unsorted", after + 1));
        }
        let moved = zero_after(markers[j]);
        if neighbours.1.is_none_or(|after| moved < after) {
            rewrites.push(("another placeholder row", moved));
        }
        for (what, value) in rewrites {
            let mut image = pristine.clone();
            image[section.start + 4 * j..][..4].copy_from_slice(&value.to_le_bytes());
            redo_checksums(&mut image);
            let err = decode_snapshot(&image, None).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed { .. }),
                "marker {j} {what} ({value}): {err:?}"
            );
        }
    }
}

#[test]
fn a_code_outside_the_alphabet_of_k_is_malformed() {
    let _turn = one_at_a_time();
    let text = toy_genome(19).text_with_sentinel();
    let n = text.len();
    for k in 1..=3 {
        let index = KStepFmIndex::from_text(&text, k);
        let mut image = encode_snapshot(&index);
        let codes = section_payloads(&image)[0].clone();
        // The codes stream into the k-step table's lanes, a block's run
        // at a time: the first row, both sides of the first block
        // boundary, one row inside a block, and the last row.
        let rate = K_OCC_SAMPLE_RATE;
        assert!(2 * rate < n, "k {k}: the text spans two code blocks");
        for row in [0, rate - 1, rate, 100, n - 1] {
            for code in [1u8 << (2 * k), u8::MAX] {
                let mut bad = image.clone();
                bad[codes.start + row] = code;
                redo_checksums(&mut bad);
                assert_eq!(
                    decode_snapshot(&bad, None).unwrap_err(),
                    SnapshotError::Malformed {
                        field: "k-mer code"
                    },
                    "k {k}, row {row}, code {code}"
                );
            }
        }
        redo_checksums(&mut image);
        assert_eq!(decode_snapshot(&image, None).unwrap(), index);
    }
}

#[test]
fn a_two_stream_image_is_refused_by_its_version() {
    // The header of the format before, by hand: version 4, k = 4, a text
    // of 64 symbols, four sections, and the BWT section's framing behind.
    let _turn = one_at_a_time();
    let mut image = Vec::new();
    image.extend_from_slice(b"EXMASNAP");
    for word in [4u32, 4] {
        image.extend_from_slice(&word.to_le_bytes());
    }
    image.extend_from_slice(&64u64.to_le_bytes());
    for word in [4u32, 0, 1] {
        image.extend_from_slice(&word.to_le_bytes());
    }
    image.extend_from_slice(&64u64.to_le_bytes());
    image.extend_from_slice(&[0; 4 + 64 + 4]);
    assert_eq!(
        decode_snapshot(&image, None).unwrap_err(),
        SnapshotError::VersionMismatch {
            found: 4,
            supported: exma_index::snapshot::SNAPSHOT_FORMAT_VERSION
        }
    );
}
