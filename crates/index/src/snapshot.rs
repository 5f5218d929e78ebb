//! Crash-safe, checksummed snapshots of a built [`KStepFmIndex`].
//!
//! Rebuilding an FM-index costs a suffix-array construction — the bulk
//! of a server's startup on real genomes — while everything the suffix
//! array *produced* is linear to re-derive. A snapshot therefore
//! persists the text-derived components the index cannot cheaply
//! recover (the BWT symbol stream, the k-BWT code stream, the sampled
//! suffix array and the 2-bit text) together with the build (`k` and
//! the strandedness — the layout is the constants of [`crate::layout`]),
//! and a load replays the deterministic linear constructors over them.
//! Neither the K-mer lookup table nor the expanded-alphabet C-array
//! (`4^k` words, 1 KiB at most) is stored: they are one counting routine
//! over the text, run at K and at k, and a load runs it over the decoded
//! text on a second thread while
//! the other three sections decode. That buys three guarantees for free:
//! every structural invariant holds because the ordinary constructors
//! enforce it, the [`AlignedWords`](crate::interleave::AlignedWords) placement —
//! cache-line-aligned, and 2 MiB-aligned and advised onto huge pages from
//! 2 MiB up — is the cold build's because the same one allocation path
//! produces it, and the reloaded index is *equal* to a cold build —
//! byte-identical query results and an allocation-exact
//! [`HeapBreakdown`](crate::HeapBreakdown).
//!
//! # On-disk format (version 4, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"EXMASNAP"
//!      8     4  format version (= 4)
//!     12     4  k
//!     16     8  text length n (sentinel included)
//!     24     4  section count (= 4)
//!     28     4  flags (bit 0 = bidirectional)
//!     32     …  4 sections, each:
//!                 tag u32 | payload length u64 | payload CRC32 | payload
//!      …     4  whole-file CRC32 over every preceding byte
//! ```
//!
//! The flags word carries the bidirectional marker (a doubled-text index
//! is table-identical to a forward-only one, so the flag cannot be
//! recovered from the payloads). There is one format: every index is
//! written this way, and an image of any other version — the first two
//! had no text section, the third stored the four sampling rates and the
//! C-array — is refused with [`SnapshotError::VersionMismatch`], which a
//! server answers by rebuilding.
//!
//! Sections, in order: `1` BWT (n one-byte symbol codes), `2` k-BWT
//! codes (n u16 k-mer codes: k = 4's sentinel-crossing marker, 256, does
//! not fit a byte), `3` sampled suffix array (sample count
//! u64, then `⌈n/64⌉` mark words, then the u32 samples), `4` the text
//! (`⌈n/32⌉` u64 words, base `i` in bits `2 (i mod 32)` of word `i / 32`,
//! the sentinel and the padding behind it zero).
//!
//! # Verification before construction
//!
//! A load verifies *everything* before building anything: magic,
//! version, header sanity, structural bounds, every section checksum,
//! the whole-file checksum (which covers the header and section
//! framing), and finally the semantic range/consistency of each decoded
//! payload — the text against what was verified before it: its per-base
//! counts are the BWT's, every sampled row's BWT symbol is the base in
//! front of its sampled position (n / [`crate::layout::SA_SAMPLE_RATE`]
//! probes), and every k-mer bucket the counted C-array opens holds the
//! rows the k-BWT gives it. The one thing built alongside is the counting
//! pass, run once the text's length and padding check out; a load that
//! fails drops its tables with everything else. Every failure is a typed
//! [`SnapshotError`]; a corrupted file can never panic the loader and
//! never yields an index. The
//! checksums are the corruption defense — a file that collides CRC32 on
//! every region it mutated is outside the threat model (that is an
//! adversarially *crafted* file, not a corrupted one), and even then
//! the semantic validation keeps every table access in bounds. The
//! checksum kernel is slicing-by-8 ([`crc32`]: eight table lookups per
//! eight bytes, none waiting on another), because a load walks every
//! byte of the image twice — each section, then the whole file — and at
//! a byte a step those two walks were a quarter to a half of a warm
//! start; the values, and so every file, are those of the bytewise
//! definition the tests keep as the oracle.
//!
//! # Crash-safe writes
//!
//! [`write_snapshot`] streams the image to `path.tmp`, fsyncs it,
//! atomically renames it over `path`, and fsyncs the directory: a crash
//! at any point leaves either the old snapshot or the new one, never a
//! torn file at `path`. A torn `path.tmp` that somehow gets renamed by
//! hand is still caught by the length and checksum verification above.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use exma_genome::{count_table, Base, Symbol};

use crate::fm::FmIndex;
use crate::kocc::KmerOccTable;
use crate::kstep::{KStepBuildConfig, KStepFmIndex, MAX_STEP};
use crate::layout::SA_SAMPLE_RATE;
use crate::lookup::{kmer_starts, lookup_k, KmerLookup};
use crate::occ::OccTable;
use crate::sampled_sa::{RankBits, SampledSuffixArray};
use crate::text::PackedText;

/// The leading eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EXMASNAP";

/// The one on-disk format version this build writes and reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 4;

/// Magic, version, k, text length, section count, flags.
const HEADER_LEN: usize = 32;
/// Bit 0 of the flags word: the index covers the bidirectional doubled
/// text.
const FLAG_BIDIRECTIONAL: u32 = 1;
const SECTION_HEADER_LEN: usize = 16;
const SECTION_COUNT: usize = 4;
const SECTION_NAMES: [&str; SECTION_COUNT] = ["bwt", "k-codes", "sampled-sa", "text"];

/// Why a snapshot could not be written or loaded. Every load-side
/// failure is typed and total: corrupted input yields an error, never a
/// panic and never an index.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not the one this build reads.
    VersionMismatch { found: u32, supported: u32 },
    /// A CRC32 did not match: `section` names the covered region
    /// (a payload section, or `"file"` for the whole-file trailer).
    ChecksumMismatch { section: &'static str },
    /// The file ends before the bytes its own framing promises.
    Truncated { needed: u64, len: u64 },
    /// The snapshot's build (`k`, strandedness) differs from the one the
    /// caller requires (e.g. the serving builder's).
    LayoutMismatch {
        expected: KStepBuildConfig,
        found: KStepBuildConfig,
    },
    /// A checksum-valid region decoded to a semantically impossible
    /// value; `field` names it.
    Malformed { field: &'static str },
    /// The underlying filesystem operation failed.
    Io { kind: io::ErrorKind },
}

fn write_config(f: &mut fmt::Formatter<'_>, c: &KStepBuildConfig) -> fmt::Result {
    write!(f, "k{}", c.k)?;
    if c.bidirectional {
        write!(f, "_bidir")?;
    }
    Ok(())
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an EXMA index snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format v{found} is not readable by this build (supports v{supported})"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in snapshot {section} region")
            }
            SnapshotError::Truncated { needed, len } => {
                write!(f, "snapshot truncated: needs {needed} bytes, has {len}")
            }
            SnapshotError::LayoutMismatch { expected, found } => {
                write!(f, "snapshot layout mismatch: expected ")?;
                write_config(f, expected)?;
                write!(f, ", found ")?;
                write_config(f, found)
            }
            SnapshotError::Malformed { field } => {
                write!(f, "malformed snapshot: invalid {field}")
            }
            SnapshotError::Io { kind } => write!(f, "snapshot I/O error: {kind}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io { kind: e.kind() }
    }
}

/// CRC32 (IEEE 802.3), table-driven, slicing-by-8 (Kounavis & Berry,
/// 2008); the tables are const-evaluated so the implementation stays
/// dependency-free. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[j][b]` is the checksum state byte `b` leaves after `j`
/// further zero bytes, which is what lets eight bytes be folded in with
/// eight independent lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// The CRC32 checksum guarding every snapshot region: eight bytes a
/// step through the eight slicing tables, then the last `len % 8` one
/// at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Folds `bytes` into a running CRC32 state: a checksum over several
/// writes starts from `!0`, and its value is the final state inverted.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ u64::from(c);
        c = 0;
        for (j, table) in t.iter().rev().enumerate() {
            c ^= table[(v >> (8 * j)) as usize & 0xFF];
        }
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

fn u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

fn need(bytes: &[u8], needed: usize) -> Result<(), SnapshotError> {
    if bytes.len() < needed {
        return Err(SnapshotError::Truncated {
            needed: needed as u64,
            len: bytes.len() as u64,
        });
    }
    Ok(())
}

fn malformed(field: &'static str) -> SnapshotError {
    SnapshotError::Malformed { field }
}

/// The 32-byte file header: magic, version, k, text length, section
/// count, flags.
fn header(index: &KStepFmIndex) -> [u8; HEADER_LEN] {
    let config = index.build_config();
    let flags = if config.bidirectional {
        FLAG_BIDIRECTIONAL
    } else {
        0
    };
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    header[8..12].copy_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(config.k as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(index.text_len() as u64).to_le_bytes());
    header[24..28].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    header[28..32].copy_from_slice(&flags.to_le_bytes());
    header
}

/// The byte length of section `section`'s payload (0-based, in file
/// order).
fn payload_len(index: &KStepFmIndex, section: usize) -> usize {
    let n = index.text_len();
    let ssa = index.base_index().sampled_sa();
    match section {
        0 => n,
        1 => 2 * n,
        2 => 8 + 8 * ssa.marks().word_slice().len() + 4 * ssa.sample_slice().len(),
        _ => 8 * index.packed_text().image().len(),
    }
}

/// Appends section `section`'s payload (0-based, in file order) to
/// `out`: the canonical linear inputs the constructors replay on load.
fn encode_payload(index: &KStepFmIndex, section: usize, out: &mut Vec<u8>) {
    let n = index.text_len();
    match section {
        0 => {
            let occ = index.base_index().occ();
            out.extend((0..n).map(|i| occ.symbol(i).code()));
        }
        1 => {
            let kocc = index.kmer_occ();
            for i in 0..n {
                out.extend_from_slice(&kocc.code(i).to_le_bytes());
            }
        }
        2 => {
            let ssa = index.base_index().sampled_sa();
            let samples = ssa.sample_slice();
            out.extend_from_slice(&(samples.len() as u64).to_le_bytes());
            for &w in ssa.marks().word_slice() {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for &s in samples {
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        _ => {
            for &word in index.packed_text().image() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
}

/// A section's framing: tag, payload length, payload CRC32.
fn section_header(section: usize, payload: &[u8]) -> [u8; SECTION_HEADER_LEN] {
    let mut framing = [0u8; SECTION_HEADER_LEN];
    framing[..4].copy_from_slice(&(section as u32 + 1).to_le_bytes());
    framing[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    framing[12..].copy_from_slice(&crc32(payload).to_le_bytes());
    framing
}

/// Serializes `index` into its snapshot image, checksums included — the
/// pure counterpart of [`write_snapshot`]. Each payload is encoded in
/// place behind its framing, which is filled in once the payload's
/// checksum is known.
pub fn encode_snapshot(index: &KStepFmIndex) -> Vec<u8> {
    let total = HEADER_LEN
        + (0..SECTION_COUNT)
            .map(|section| SECTION_HEADER_LEN + payload_len(index, section))
            .sum::<usize>()
        + 4;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&header(index));
    for section in 0..SECTION_COUNT {
        let framing = out.len();
        out.resize(framing + SECTION_HEADER_LEN, 0);
        encode_payload(index, section, &mut out);
        let header = section_header(section, &out[framing + SECTION_HEADER_LEN..]);
        out[framing..framing + SECTION_HEADER_LEN].copy_from_slice(&header);
    }
    let file_crc = crc32(&out);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

/// Writes `index` to `path` crash-safely: the image to `path.tmp`,
/// fsync, atomic rename over `path`, directory fsync. A crash at any
/// point leaves either the previous snapshot or the complete new one.
/// The image is streamed — the header, then each section through one
/// reused payload buffer, under a running file checksum — so a write
/// holds one payload (at most 2 bytes a base, the k-BWT codes) beside
/// the index, never the whole image.
///
/// # Errors
///
/// [`SnapshotError::Io`] if any filesystem step fails; the partial
/// `path.tmp` is best-effort removed on failure.
pub fn write_snapshot(index: &KStepFmIndex, path: &Path) -> Result<(), SnapshotError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let result = (|| -> io::Result<()> {
        let mut file = BufWriter::new(File::create(&tmp)?);
        let mut file_crc = !0;
        let mut put = |file: &mut BufWriter<File>, bytes: &[u8]| {
            file_crc = crc32_update(file_crc, bytes);
            file.write_all(bytes)
        };
        put(&mut file, &header(index))?;
        let largest = (0..SECTION_COUNT).map(|section| payload_len(index, section));
        let mut payload = Vec::with_capacity(largest.max().unwrap_or(0));
        for section in 0..SECTION_COUNT {
            payload.clear();
            encode_payload(index, section, &mut payload);
            put(&mut file, &section_header(section, &payload))?;
            put(&mut file, &payload)?;
        }
        file.write_all(&(!file_crc).to_le_bytes())?;
        let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        // The rename is only durable once the directory entry is.
        #[cfg(unix)]
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map_err(SnapshotError::from)
}

/// Loads and fully verifies the snapshot at `path`.
///
/// # Errors
///
/// Any [`SnapshotError`]; see [`decode_snapshot`] for the verification
/// contract.
pub fn load_snapshot(path: &Path) -> Result<KStepFmIndex, SnapshotError> {
    load_snapshot_expecting(path, None)
}

/// [`load_snapshot`], additionally requiring the snapshot's embedded
/// build (`k`, strandedness) to equal `expected` — the warm-start
/// compatibility check, performed on the header before any payload work.
pub fn load_snapshot_expecting(
    path: &Path,
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    let bytes = fs::read(path)?;
    decode_snapshot(&bytes, expected)
}

/// Decodes a snapshot image, verifying everything before constructing
/// anything: magic, version, header sanity, structural bounds, the four
/// section checksums, the whole-file checksum, and the semantic
/// consistency of every decoded payload. Returns a typed error — never
/// panics, never yields a partially-verified index.
pub fn decode_snapshot(
    bytes: &[u8],
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    need(bytes, 8)?;
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    need(bytes, 12)?;
    let version = u32_at(bytes, 8);
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: SNAPSHOT_FORMAT_VERSION,
        });
    }
    need(bytes, HEADER_LEN)?;
    let k = u32_at(bytes, 12) as usize;
    let text_len = u64_at(bytes, 16);
    let section_count = u32_at(bytes, 24) as usize;
    let flags = u32_at(bytes, 28);
    if flags & !FLAG_BIDIRECTIONAL != 0 {
        return Err(malformed("recipe flags"));
    }
    let bidirectional = flags & FLAG_BIDIRECTIONAL != 0;

    if !(1..=MAX_STEP).contains(&k) {
        return Err(malformed("step width k"));
    }
    if text_len == 0 || text_len >= u64::from(u32::MAX) {
        return Err(malformed("text length"));
    }
    if section_count != SECTION_COUNT {
        return Err(malformed("section count"));
    }
    let config = KStepBuildConfig { k, bidirectional };
    if let Some(expected) = expected {
        if *expected != config {
            return Err(SnapshotError::LayoutMismatch {
                expected: *expected,
                found: config,
            });
        }
    }

    let n = text_len as usize;

    // Structural walk: every section header and payload must lie within
    // the buffer, in tag order, with exactly the 4-byte file checksum
    // after the last.
    let mut offset = HEADER_LEN;
    let mut sections: [(usize, usize); SECTION_COUNT] = [(0, 0); SECTION_COUNT];
    let mut section_crcs = [0u32; SECTION_COUNT];
    for (i, span) in sections.iter_mut().enumerate() {
        need(bytes, offset + SECTION_HEADER_LEN)?;
        let tag = u32_at(bytes, offset) as usize;
        let payload_len = u64_at(bytes, offset + 4);
        section_crcs[i] = u32_at(bytes, offset + 12);
        if tag != i + 1 {
            return Err(malformed("section tag"));
        }
        let payload_len = usize::try_from(payload_len).map_err(|_| SnapshotError::Truncated {
            needed: u64::MAX,
            len: bytes.len() as u64,
        })?;
        let start = offset + SECTION_HEADER_LEN;
        let end = start
            .checked_add(payload_len)
            .ok_or(SnapshotError::Truncated {
                needed: u64::MAX,
                len: bytes.len() as u64,
            })?;
        need(bytes, end)?;
        *span = (start, end);
        offset = end;
    }
    match bytes.len().cmp(&(offset + 4)) {
        std::cmp::Ordering::Less => {
            return Err(SnapshotError::Truncated {
                needed: (offset + 4) as u64,
                len: bytes.len() as u64,
            })
        }
        std::cmp::Ordering::Greater => return Err(malformed("file length")),
        std::cmp::Ordering::Equal => {}
    }

    // Integrity: each section's own checksum, then the whole-file
    // checksum (which also covers the header and section framing — a
    // flipped k must never silently rebuild a different index).
    for (i, &(start, end)) in sections.iter().enumerate() {
        if crc32(&bytes[start..end]) != section_crcs[i] {
            return Err(SnapshotError::ChecksumMismatch {
                section: SECTION_NAMES[i],
            });
        }
    }
    if crc32(&bytes[..offset]) != u32_at(bytes, offset) {
        return Err(SnapshotError::ChecksumMismatch { section: "file" });
    }

    // Semantic decode, every value range-checked before any constructor
    // that could assert sees it. The text leads: the K-mer table and the
    // C-array are derived from it alone, so they are counted on a second
    // thread while this one decodes the three other sections — and
    // joined before either the index or an error is returned. The
    // table's size is set by `n`, which the BWT section's length has
    // just vouched for: it is `4 (4^K + 1)` bytes with `16 · 4^K ≤ n`
    // (two words when K is 0), at most `n / 4 + 8`, so no header can make
    // it ask for more than the file justifies; the C-array is `4^k` words,
    // 1 KiB at most.
    let (bwt_start, bwt_end) = sections[0];
    if bwt_end - bwt_start != n {
        return Err(malformed("bwt length"));
    }
    let (text_start, text_end) = sections[3];
    let text = PackedText::from_image(&bytes[text_start..text_end], n)
        .ok_or(malformed("text length or padding"))?;
    let (tables, counted) = std::thread::scope(|scope| {
        let counted = scope.spawn(|| (KmerLookup::new(&text, lookup_k(n)), kmer_starts(&text, k)));
        let tables = decode_tables(bytes, &sections, k, &text);
        (tables, counted.join())
    });
    let (lookup, kstarts) = counted.expect("counting the K-mers of a decoded text cannot panic");
    let (base, kocc) = tables?;
    // Bucket bounds: `kstart(r) + rank(r, n) <= n` keeps every interval
    // a k-step refinement can produce inside `0..n`, so no later rank
    // call can assert out of range even on a checksummed file whose
    // k-codes disagree with its text.
    for (r, &start) in kstarts.iter().enumerate() {
        if start as usize + kocc.rank(r as u16, n) as usize > n {
            return Err(malformed("k-starts bucket"));
        }
    }
    Ok(KStepFmIndex::from_parts(
        k,
        base,
        kstarts,
        kocc,
        bidirectional,
        text,
        lookup,
    ))
}

/// Decodes sections 1–3 against the already-decoded `text` (section 4)
/// and replays the cold-build constructors over them: the 1-step index
/// and the k-mer occurrence table.
fn decode_tables(
    bytes: &[u8],
    sections: &[(usize, usize); SECTION_COUNT],
    k: usize,
    text: &PackedText,
) -> Result<(FmIndex, KmerOccTable), SnapshotError> {
    let n = text.len();
    let stride = 1usize << (2 * k);
    let (bwt_start, bwt_end) = sections[0];
    let mut bwt = Vec::with_capacity(n);
    for &b in &bytes[bwt_start..bwt_end] {
        if b > 4 {
            return Err(malformed("bwt symbol code"));
        }
        bwt.push(Symbol::from_code(b));
    }

    let (kc_start, kc_end) = sections[1];
    if kc_end - kc_start != 2 * n {
        return Err(malformed("k-codes length"));
    }
    let mut codes = Vec::with_capacity(n);
    for pair in bytes[kc_start..kc_end].chunks_exact(2) {
        let c = u16::from_le_bytes([pair[0], pair[1]]);
        if usize::from(c) > stride {
            return Err(malformed("k-mer code"));
        }
        codes.push(c);
    }

    let (ssa_start, ssa_end) = sections[2];
    let word_count = n.div_ceil(64);
    if ssa_end - ssa_start < 8 {
        return Err(malformed("sampled-sa length"));
    }
    let sample_count = u64_at(bytes, ssa_start);
    let sample_count = usize::try_from(sample_count).map_err(|_| malformed("sample count"))?;
    if ssa_end - ssa_start != 8 + 8 * word_count + 4 * sample_count {
        return Err(malformed("sampled-sa length"));
    }
    if sample_count == 0 {
        // Text position 0 is always 0 (mod rate), so a real index
        // always marks at least one row; zero marks would make locate's
        // LF walk endless.
        return Err(malformed("sample count"));
    }
    let words_bytes = &bytes[ssa_start + 8..ssa_start + 8 + 8 * word_count];
    let mut words = Vec::with_capacity(word_count);
    for chunk in words_bytes.chunks_exact(8) {
        words.push(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    if n % 64 != 0 {
        if let Some(&last) = words.last() {
            if last >> (n % 64) != 0 {
                return Err(malformed("mark padding bits"));
            }
        }
    }
    let marks = RankBits::from_words(words, n);
    if marks.rank(n) != sample_count {
        return Err(malformed("sample count"));
    }
    let mut samples = Vec::with_capacity(sample_count);
    for chunk in bytes[ssa_start + 8 + 8 * word_count..ssa_end].chunks_exact(4) {
        let v = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if v as usize >= n || v as usize % SA_SAMPLE_RATE != 0 {
            return Err(malformed("suffix-array sample"));
        }
        samples.push(v);
    }
    let ssa = SampledSuffixArray::from_parts(marks, samples);

    // The text, against what is already verified: the BWT is a
    // permutation of it, and a sampled row's BWT symbol is the base in
    // front of the row's sampled position.
    let counts = count_table(&bwt);
    for (base, count) in Base::ALL.into_iter().zip(text.base_counts()) {
        if count != counts.frequency(Symbol::Base(base)) {
            return Err(malformed("text base counts"));
        }
    }
    let samples = ssa.sample_slice();
    for (i, (row, &position)) in ssa.marks().ones().zip(samples).enumerate() {
        // The samples are in row order, their positions anywhere.
        if let Some(&ahead) = samples.get(i + 16) {
            text.prefetch(ahead as usize);
        }
        let agrees = position == 0
            || bwt[row]
                .base()
                .is_some_and(|before| text.code(position as usize - 1) == before.code());
        if !agrees {
            return Err(malformed("text against the sampled rows"));
        }
    }

    // Replay the cold-build constructors over the verified inputs; the
    // text-length check above already rules their error out.
    let occ = OccTable::new(&bwt).map_err(|_| malformed("occ layout"))?;
    // Symbol frequencies — all the C-array depends on — are the text's:
    // `counts` was taken from the BWT, a permutation of it.
    let base = FmIndex::from_parts(counts, occ, ssa);
    let kocc = KmerOccTable::new(codes, k).map_err(|_| malformed("k-occ layout"))?;
    Ok((base, kocc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::{Genome, GenomeProfile};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// An index of `config` over a `len`-base toy genome, or over its
    /// doubled text when the config says bidirectional.
    fn toy_index_with(len: usize, config: KStepBuildConfig) -> KStepFmIndex {
        let mut profile = GenomeProfile::toy();
        profile.len = len;
        let mut text = Genome::synthesize(&profile, 7).text_with_sentinel();
        if config.bidirectional {
            text = crate::bidir::doubled_text(&text);
        }
        KStepFmIndex::from_text_with_config(&text, config).unwrap()
    }

    fn toy_index(k: usize) -> KStepFmIndex {
        toy_index_with(3000, KStepBuildConfig::for_k(k))
    }

    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "exma_snapshot_{}_{}_{tag}.exma",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        path
    }

    #[test]
    fn round_trip_reproduces_the_index_exactly() {
        for k in [1, 2, 4] {
            let index = toy_index(k);
            let bytes = encode_snapshot(&index);
            let loaded = decode_snapshot(&bytes, None).expect("valid snapshot");
            assert_eq!(loaded, index, "k={k}");
            // Allocation-exact: the warm server's heap attribution must
            // equal the cold one's, capacity for capacity.
            assert_eq!(loaded.heap_breakdown(), index.heap_breakdown());
            assert_eq!(loaded.build_config(), index.build_config());
        }
    }

    #[test]
    fn sa_marks_in_the_occurrence_lines_never_reach_the_image() {
        // The trailing whole-file CRC32 of two images, pinned: a mark that
        // leaked into the BWT section would move it.
        for (index, crc) in [
            (toy_index(4), 0x6cb4_15a5),
            (toy_bidir_index(2), 0xe143_9a1c),
        ] {
            let occ = index.base_index().occ();
            let n = index.text_len();
            let marked = (0..n).filter(|&row| occ.lf_data(row).2).count();
            assert_eq!(marked, index.base_index().sampled_sa().stored());
            let bytes = encode_snapshot(&index);
            // The BWT section leads, right behind the header.
            let bwt_start = HEADER_LEN + SECTION_HEADER_LEN;
            assert_eq!(u64_at(&bytes, bwt_start - 12), n as u64);
            assert!(bytes[bwt_start..bwt_start + n].iter().all(|&b| b < 5));
            assert_eq!(u32_at(&bytes, bytes.len() - 4), crc);
            // And it loads to the index a cold build makes, marks and all.
            assert_eq!(
                decode_snapshot(&bytes, None).expect("valid snapshot"),
                index
            );
        }
    }

    #[test]
    fn round_trip_through_the_filesystem() {
        let index = toy_index(4);
        let path = temp_path("fs_round_trip");
        write_snapshot(&index, &path).expect("write");
        // The tmp staging file never survives a successful write.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let loaded = load_snapshot(&path).expect("load");
        assert_eq!(loaded, index);
        // Rewriting over an existing snapshot is the normal cold-start
        // refresh path.
        write_snapshot(&index, &path).expect("rewrite");
        assert_eq!(load_snapshot(&path).expect("reload"), index);
        // The streamed file is the image encode_snapshot builds, at every
        // k and on both strandednesses.
        for k in 1..=MAX_STEP {
            for index in [toy_index(k), toy_bidir_index(k)] {
                write_snapshot(&index, &path).expect("write");
                assert_eq!(fs::read(&path).expect("read"), encode_snapshot(&index));
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = load_snapshot(Path::new("/nonexistent/dir/snap.exma")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }), "{err}");
    }

    #[test]
    fn bad_magic_and_stale_version_are_typed() {
        let bytes = encode_snapshot(&toy_index(2));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_snapshot(&bad, None).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut stale = bytes.clone();
        stale[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&stale, None).unwrap_err(),
            SnapshotError::VersionMismatch {
                found: 99,
                supported: SNAPSHOT_FORMAT_VERSION
            }
        );
        // The three formats earlier builds wrote (no text section, then
        // the layout words and the C-array) are refused by number,
        // whatever follows the version word.
        for old in [0u32, 1, 2, 3] {
            stale[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_snapshot(&stale, None).unwrap_err(),
                SnapshotError::VersionMismatch {
                    found: old,
                    supported: SNAPSHOT_FORMAT_VERSION
                }
            );
        }
    }

    #[test]
    fn every_truncation_point_is_typed_and_total() {
        let bytes = encode_snapshot(&toy_index(2));
        for keep in [
            0,
            4,
            8,
            11,
            20,
            HEADER_LEN,
            HEADER_LEN + 7,
            bytes.len() / 2,
            bytes.len() - 1,
        ] {
            let err = decode_snapshot(&bytes[..keep], None).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "keep {keep}: {err}"
            );
        }
    }

    #[test]
    fn payload_corruption_names_the_section() {
        let index = toy_index(2);
        let bytes = encode_snapshot(&index);
        // One byte inside the first section's payload.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + SECTION_HEADER_LEN] ^= 0x40;
        assert_eq!(
            decode_snapshot(&corrupt, None).unwrap_err(),
            SnapshotError::ChecksumMismatch { section: "bwt" }
        );
        // A header flip that stays structurally sane (k = 2 read as 3)
        // is caught by the whole-file checksum — it must never silently
        // rebuild a differently-shaped index.
        let mut rewidened = bytes.clone();
        rewidened[12] ^= 0x01;
        assert_eq!(
            decode_snapshot(&rewidened, None).unwrap_err(),
            SnapshotError::ChecksumMismatch { section: "file" }
        );
        // One byte inside the last section's payload: the text.
        let mut corrupt = bytes.clone();
        let text_payload = bytes.len() - 4 - 4 * index.packed_text().image().len();
        corrupt[text_payload + 5] ^= 0x01;
        assert_eq!(
            decode_snapshot(&corrupt, None).unwrap_err(),
            SnapshotError::ChecksumMismatch { section: "text" }
        );
        // Trailing garbage after the file checksum.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_snapshot(&padded, None).unwrap_err(),
            SnapshotError::Malformed {
                field: "file length"
            }
        );
    }

    #[test]
    fn layout_mismatch_is_checked_on_the_header() {
        let index = toy_index(4);
        let bytes = encode_snapshot(&index);
        let mut expected = index.build_config();
        expected.k = 2;
        let err = decode_snapshot(&bytes, Some(&expected)).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::LayoutMismatch {
                expected,
                found: index.build_config()
            }
        );
        // The matching recipe loads.
        assert!(decode_snapshot(&bytes, Some(&index.build_config())).is_ok());
    }

    fn toy_bidir_index(k: usize) -> KStepFmIndex {
        let config = KStepBuildConfig {
            bidirectional: true,
            ..KStepBuildConfig::for_k(k)
        };
        toy_index_with(1500, config)
    }

    #[test]
    fn bidir_snapshots_round_trip_under_the_one_format() {
        for k in [1, 2, 4] {
            let forward = encode_snapshot(&toy_index(k));
            assert_eq!(u32_at(&forward, 8), SNAPSHOT_FORMAT_VERSION, "k={k}");
            assert_eq!(u32_at(&forward, 28), 0, "k={k}");
            let index = toy_bidir_index(k);
            let bytes = encode_snapshot(&index);
            assert_eq!(u32_at(&bytes, 8), SNAPSHOT_FORMAT_VERSION, "k={k}");
            assert_eq!(u32_at(&bytes, 28), FLAG_BIDIRECTIONAL, "k={k}");
            // The first section tag sits right behind the flags word.
            assert_eq!(u32_at(&bytes, HEADER_LEN), 1, "k={k}");
            let loaded = decode_snapshot(&bytes, None).expect("valid snapshot");
            assert_eq!(loaded, index, "k={k}");
            assert!(loaded.is_bidirectional());
            assert_eq!(loaded.heap_breakdown(), index.heap_breakdown());
            assert_eq!(loaded.build_config(), index.build_config());
        }
    }

    #[test]
    fn bidir_and_forward_recipes_gate_each_other_as_layout_mismatch() {
        let index = toy_bidir_index(2);
        let bytes = encode_snapshot(&index);
        let mut forward = index.build_config();
        forward.bidirectional = false;
        let err = decode_snapshot(&bytes, Some(&forward)).unwrap_err();
        assert!(matches!(err, SnapshotError::LayoutMismatch { .. }), "{err}");
        let rendered = format!("{err}");
        assert!(rendered.contains("_bidir"), "{rendered}");
        assert!(decode_snapshot(&bytes, Some(&index.build_config())).is_ok());
    }

    #[test]
    fn unknown_recipe_flags_are_malformed() {
        let mut bytes = encode_snapshot(&toy_bidir_index(2));
        bytes[28..32].copy_from_slice(&0b110u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&bytes, None).unwrap_err(),
            SnapshotError::Malformed {
                field: "recipe flags"
            }
        );
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// CRC32 by definition, a byte at a time through the classic table:
    /// the loop every snapshot on disk was written with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_definition() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut rng = exma_genome::SeededRng::new(0x5EED_C3C3);
        let mut noise =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        // Every length around the 8-byte chunking, at every alignment
        // of the slice's first byte.
        let pool = noise(130 + 8);
        for start in 0..8 {
            for len in 0..=130 {
                let bytes = &pool[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
        assert_eq!(crc32(&big[3..]), crc32_bytewise(&big[3..]));
    }
}
