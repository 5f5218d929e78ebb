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
//! text on a second thread while the tables are checked and built. That
//! buys three guarantees for free: every structural invariant holds
//! because the ordinary constructors enforce it, the [`AlignedWords`]
//! placement — cache-line-aligned, and 2 MiB-aligned and advised onto huge
//! pages from 2 MiB up — is the cold build's because the same one
//! allocation path produces it, and the reloaded index is *equal* to a
//! cold build — byte-identical query results and an allocation-exact
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
//! # One decoder, read front to back
//!
//! [`load_snapshot`] and [`decode_snapshot`] are one decoder over two
//! sources — a file, whose length its metadata gives, and a slice — so
//! the same bytes give the same index or the same error either way. It
//! reads the image once, front to back, and never holds it whole: every
//! payload passes through one staging chunk of at most 64 KiB straight
//! into the buffer it becomes — the BWT codes into the allocation that
//! turns into the `Vec<Symbol>` the 1-step table is built from, the k-BWT
//! codes into the `Vec<u16>` the k-step table takes, the mark words and
//! the samples into their own vectors, the text words into the
//! [`AlignedWords`] the index keeps. Each piece is folded into its
//! section's CRC32 and the file's as it passes. Every read is checked
//! against the source's length before it is made, and every buffer is
//! sized by a length so checked, so no header or framing can make a load
//! ask for more memory than the file's own size. A load therefore holds,
//! beside the index it builds, only the staged inputs its tables are
//! built from, each freed once its last reader is done: the BWT after the
//! 1-step table and the sampled-row check, the k-BWT codes inside the
//! k-step table's constructor.
//!
//! # Verification before construction
//!
//! A load verifies *everything* before building anything. As it reads,
//! it checks the magic, the version, the header's sanity and every
//! structural bound. Once the trailer is in, it compares every section
//! checksum and the whole-file checksum (which covers the header and
//! section framing). Then, in a fixed order, it checks the semantic
//! range/consistency of each decoded payload — a payload whose length is
//! not the one the header implies was read into nothing, and fails here
//! as malformed — and the text against what was verified before it: its
//! per-base counts are the BWT's, every sampled row's BWT
//! symbol is the base in front of its sampled position
//! (n / [`crate::layout::SA_SAMPLE_RATE`] probes), and every k-mer bucket
//! the counted C-array opens holds the rows the k-BWT gives it. The one
//! thing built alongside is the counting pass, run once the text's length
//! and padding check out; a load that fails drops its tables with
//! everything else. Every failure is a typed [`SnapshotError`]; a
//! corrupted file can never panic the loader and never yields an index,
//! and a path that is not a regular file is refused before it is opened.
//! The checksums are the corruption defense — a file that collides CRC32
//! on every region it mutated is outside the threat model (that is an
//! adversarially *crafted* file, not a corrupted one), and even then the
//! semantic validation keeps every table access in bounds. The checksum
//! kernel is slicing-by-8 ([`crc32`]: eight table lookups per eight
//! bytes, none waiting on another), because a load folds every payload
//! byte twice — into its section's checksum and the file's — and at a
//! byte a step those two passes were a quarter to a half of a warm start;
//! the values, and so every file, are those of the bytewise definition
//! the tests keep as the oracle.
//!
//! # Crash-safe writes
//!
//! [`write_snapshot`] streams the image to `path.tmp`, fsyncs it,
//! atomically renames it over `path`, and fsyncs the directory: a crash
//! at any point leaves either the old snapshot or the new one, never a
//! torn file at `path`. A torn `path.tmp` that somehow gets renamed by
//! hand is still caught by the length and checksum verification above.
//! A `path` or `path.tmp` that names an existing node other than a
//! regular file — a FIFO, a device, a socket, a directory — is refused,
//! never replaced or written into.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use exma_genome::{count_table, Base, Symbol};

use crate::fm::FmIndex;
use crate::interleave::AlignedWords;
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
/// `path.tmp` is best-effort removed on failure. A `path` or `path.tmp`
/// that names an existing node other than a regular file is refused,
/// before anything is written, with kind [`io::ErrorKind::InvalidInput`].
pub fn write_snapshot(index: &KStepFmIndex, path: &Path) -> Result<(), SnapshotError> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    // The rename replaces whatever node `path` names, and creating `tmp`
    // over a FIFO blocks until a reader comes: a FIFO or a device under
    // either name is left as it is.
    let occupied = |p: &Path| fs::metadata(p).is_ok_and(|meta| !meta.is_file());
    if occupied(path) || occupied(&tmp) {
        return Err(NOT_A_REGULAR_FILE);
    }
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
/// The file goes through [`decode_snapshot`]'s decoder as it is read, so
/// the load never holds the whole image.
///
/// # Errors
///
/// As [`decode_snapshot`]; and a path that names anything but a regular
/// file (a FIFO would block the open, a device could read forever) is
/// refused before it is opened, as [`SnapshotError::Io`] of kind
/// [`io::ErrorKind::InvalidInput`].
pub fn load_snapshot_expecting(
    path: &Path,
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    regular_file_len(&fs::metadata(path)?)?;
    let mut file = File::open(path)?;
    let len = regular_file_len(&file.metadata()?)?;
    decode(Image::new(&mut file, len), expected)
}

/// What a load or a write answers for a path that names something other
/// than a regular file.
const NOT_A_REGULAR_FILE: SnapshotError = SnapshotError::Io {
    kind: io::ErrorKind::InvalidInput,
};

/// The length of a regular file; any other kind of node is refused.
fn regular_file_len(meta: &fs::Metadata) -> Result<u64, SnapshotError> {
    if meta.is_file() {
        Ok(meta.len())
    } else {
        Err(NOT_A_REGULAR_FILE)
    }
}

/// Decodes a snapshot image, verifying everything before constructing
/// anything: magic, version, header sanity, structural bounds, the four
/// section checksums, the whole-file checksum, and the semantic
/// consistency of every decoded payload. Returns a typed error — never
/// panics, never yields a partially-verified index. The slice is read by
/// the one decoder a file load uses, so the same bytes give the same
/// index or the same error either way.
pub fn decode_snapshot(
    bytes: &[u8],
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    let mut source = bytes;
    decode(Image::new(&mut source, bytes.len() as u64), expected)
}

/// Bytes a load stages at a time between its source and a payload's
/// destination buffer. A multiple of 8, so no value of any section — the
/// widest is a `u64` mark word, and every value sits at a multiple of its
/// own width — straddles two pieces.
const CHUNK_BYTES: usize = 64 << 10;

/// A snapshot image read front to back from a source of known length.
/// Every read is checked against that length before it is made, so no
/// buffer a load sizes by what it reads can be larger than the image, and
/// every byte before the trailer is folded into the running whole-file
/// checksum.
struct Image<'a> {
    /// Read through a trait object, so the decoder is compiled once for
    /// both sources.
    source: &'a mut dyn Read,
    len: u64,
    /// Bytes read so far.
    offset: u64,
    /// The whole-file CRC32 state over those bytes.
    file_crc: u32,
    /// The staging chunk payloads pass through: [`CHUNK_BYTES`], or the
    /// image's length in whole 8-byte words if that is less. Allocated by
    /// the first payload read, when at least the 48 bytes of the header
    /// and the first framing are known to be there.
    chunk: Vec<u8>,
}

/// A section payload read into the buffer it becomes or, when its length
/// is not the one the header implies, the field that names it: reported
/// once every checksum has passed, in the order the semantic checks run.
type Staged<T> = Result<T, &'static str>;

/// Section 3 as read: the mark words, then the samples.
type Samples = (Vec<u64>, Vec<u32>);

impl<'a> Image<'a> {
    fn new(source: &'a mut dyn Read, len: u64) -> Image<'a> {
        Image {
            source,
            len,
            offset: 0,
            file_crc: !0,
            chunk: Vec::new(),
        }
    }

    /// Fails unless `bytes` more bytes follow the ones read.
    fn need(&self, bytes: u64) -> Result<(), SnapshotError> {
        let needed = self.offset.saturating_add(bytes);
        if needed > self.len {
            return Err(SnapshotError::Truncated {
                needed,
                len: self.len,
            });
        }
        Ok(())
    }

    /// Fills `buf` with the next bytes of the image.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), SnapshotError> {
        self.need(buf.len() as u64)?;
        self.source.read_exact(buf)?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// The next `N` bytes, folded into the file checksum.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut bytes = [0; N];
        self.fill(&mut bytes)?;
        self.file_crc = crc32_update(self.file_crc, &bytes);
        Ok(bytes)
    }

    /// Reads the next `len` payload bytes through the staging chunk,
    /// folding each piece into the file checksum and into `crc`, the
    /// section's, and handing it to `sink`. Every piece but the last is a
    /// whole number of 8-byte words.
    fn stream(
        &mut self,
        len: usize,
        crc: &mut u32,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), SnapshotError> {
        self.need(len as u64)?;
        if self.chunk.is_empty() {
            let bytes = self.len.min(CHUNK_BYTES as u64) as usize & !7;
            self.chunk = vec![0; bytes];
        }
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut left = len;
        while left > 0 {
            let piece = left.min(chunk.len());
            let piece = &mut chunk[..piece];
            self.fill(piece)?;
            self.file_crc = crc32_update(self.file_crc, piece);
            *crc = crc32_update(*crc, piece);
            sink(piece);
            left -= piece.len();
        }
        self.chunk = chunk;
        Ok(())
    }

    /// Reads `count` little-endian values of `W` bytes each into a vector
    /// of exactly that capacity.
    fn values<T, const W: usize>(
        &mut self,
        count: usize,
        crc: &mut u32,
        value: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        self.need((count * W) as u64)?;
        let mut values = Vec::with_capacity(count);
        self.stream(count * W, crc, |piece| {
            let each = piece.chunks_exact(W);
            values.extend(each.map(|bytes| value(bytes.try_into().expect("W bytes"))));
        })?;
        Ok(values)
    }

    /// Section 3's payload — the sample count, then `⌈n/64⌉` mark words,
    /// then the samples — into the mark and sample vectors.
    fn samples(
        &mut self,
        len: usize,
        n: usize,
        crc: &mut u32,
    ) -> Result<Staged<Samples>, SnapshotError> {
        let words = n.div_ceil(64);
        let mut left = len;
        let mut count = Err("sampled-sa length");
        if len >= 8 {
            let mut word = [0; 8];
            self.stream(8, crc, |piece| word.copy_from_slice(piece))?;
            left -= 8;
            count = usize::try_from(u64::from_le_bytes(word))
                .map_err(|_| "sample count")
                .and_then(|count| {
                    let body = count.checked_mul(4).and_then(|b| b.checked_add(8 * words));
                    (body == Some(left))
                        .then_some(count)
                        .ok_or("sampled-sa length")
                });
        }
        Ok(match count {
            Ok(count) => Ok((
                self.values(words, crc, u64::from_le_bytes)?,
                self.values(count, crc, u32::from_le_bytes)?,
            )),
            Err(field) => {
                self.stream(left, crc, |_| {})?;
                Err(field)
            }
        })
    }

    /// Section 4's payload, the 2-bit text of `n` symbols, into the
    /// buffer [`PackedText`] keeps.
    fn text(
        &mut self,
        len: usize,
        n: usize,
        crc: &mut u32,
    ) -> Result<Staged<AlignedWords>, SnapshotError> {
        let Some(mut buffer) = PackedText::image_buffer(n, len) else {
            self.stream(len, crc, |_| {})?;
            return Ok(Err("text length or padding"));
        };
        let words = buffer.words_mut();
        let mut at = 0;
        self.stream(len, crc, |piece| {
            for (word, bytes) in words[at..].iter_mut().zip(piece.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            }
            at += piece.len() / 4;
        })?;
        Ok(Ok(buffer))
    }
}

/// The one decoder behind [`decode_snapshot`] and [`load_snapshot`]:
/// the header, then each section's framing and payload in file order,
/// then the trailer. Structural failures stop it where they are read;
/// the checksums are compared once the trailer is in; the semantic
/// checks then run over the staged payloads; and only then does anything
/// get constructed.
fn decode(
    mut image: Image<'_>,
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    if image.array()? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(image.array()?);
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found: version,
            supported: SNAPSHOT_FORMAT_VERSION,
        });
    }
    let header: [u8; HEADER_LEN - 12] = image.array()?;
    let k = u32_at(&header, 0) as usize;
    let text_len = u64_at(&header, 4);
    let section_count = u32_at(&header, 12) as usize;
    let flags = u32_at(&header, 16);
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

    // The sections in tag order, each framing checked against the image's
    // length before its payload is read, and each payload read straight
    // into the buffer it becomes — sized by its own length, which the
    // image's has vouched for. A payload whose length is not the one `n`
    // implies is still read and checksummed, into nothing.
    let mut bwt = Err("bwt length");
    let mut codes = Err("k-codes length");
    let mut samples = Err("sampled-sa length");
    let mut text = Err("text length or padding");
    // Each section's stored checksum and the one its payload read to.
    let mut crcs = [(0u32, 0u32); SECTION_COUNT];
    for (section, slot) in crcs.iter_mut().enumerate() {
        let framing: [u8; SECTION_HEADER_LEN] = image.array()?;
        if u32_at(&framing, 0) as usize != section + 1 {
            return Err(malformed("section tag"));
        }
        let len = usize::try_from(u64_at(&framing, 4)).map_err(|_| SnapshotError::Truncated {
            needed: u64::MAX,
            len: image.len,
        })?;
        image.need(len as u64)?;
        let mut crc = !0;
        match section {
            0 if len == n => bwt = Ok(image.values(n, &mut crc, |[b]: [u8; 1]| b)?),
            1 if len as u64 == 2 * text_len => {
                codes = Ok(image.values(n, &mut crc, u16::from_le_bytes)?);
            }
            2 => samples = image.samples(len, n, &mut crc)?,
            3 => text = image.text(len, n, &mut crc)?,
            _ => image.stream(len, &mut crc, |_| {})?,
        }
        *slot = (u32_at(&framing, 12), !crc);
    }
    let body = image.offset;
    match image.len.cmp(&(body + 4)) {
        std::cmp::Ordering::Less => {
            return Err(SnapshotError::Truncated {
                needed: body + 4,
                len: image.len,
            })
        }
        std::cmp::Ordering::Greater => return Err(malformed("file length")),
        std::cmp::Ordering::Equal => {}
    }
    let file_crc = !image.file_crc;
    let mut trailer = [0; 4];
    image.fill(&mut trailer)?;

    // Integrity: each section's own checksum, then the whole-file
    // checksum (which also covers the header and section framing — a
    // flipped k must never silently rebuild a different index).
    for (section, &(stored, read)) in crcs.iter().enumerate() {
        if stored != read {
            return Err(SnapshotError::ChecksumMismatch {
                section: SECTION_NAMES[section],
            });
        }
    }
    if u32::from_le_bytes(trailer) != file_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "file" });
    }

    // Semantic checks, every value range-checked before any constructor
    // that could assert sees it. The text leads: the K-mer table and the
    // C-array are derived from it alone, so they are counted on a second
    // thread while this one checks the three other sections and builds
    // the tables — and joined before either the index or an error is
    // returned. The table's size is set by `n`, which the BWT section's
    // length has just vouched for: it is `4 (4^K + 1)` bytes with
    // `16 · 4^K ≤ n` (two words when K is 0), at most `n / 4 + 8`, so no
    // header can make it ask for more than the file justifies; the
    // C-array is `4^k` words, 1 KiB at most.
    let bwt = bwt.map_err(malformed)?;
    let text = text
        .ok()
        .and_then(|words| PackedText::from_image(words, n))
        .ok_or(malformed("text length or padding"))?;
    let (tables, counted) = std::thread::scope(|scope| {
        let counted = scope.spawn(|| (KmerLookup::new(&text, lookup_k(n)), kmer_starts(&text, k)));
        let tables = build_tables(bwt, codes, samples, k, &text);
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

/// Checks sections 1–3, as read, against each other and the
/// already-checked `text` (section 4), then replays the cold-build
/// constructors over them — the 1-step index and the k-mer occurrence
/// table — freeing each input once its last reader is done.
fn build_tables(
    bwt: Vec<u8>,
    codes: Staged<Vec<u16>>,
    samples: Staged<Samples>,
    k: usize,
    text: &PackedText,
) -> Result<(FmIndex, KmerOccTable), SnapshotError> {
    let n = text.len();
    let stride = 1usize << (2 * k);
    if bwt.iter().any(|&b| b > 4) {
        return Err(malformed("bwt symbol code"));
    }
    // A `Symbol` is one byte, so the codes become symbols in the
    // allocation they were read into.
    let bwt: Vec<Symbol> = bwt.into_iter().map(Symbol::from_code).collect();

    let codes = codes.map_err(malformed)?;
    if codes.iter().any(|&c| usize::from(c) > stride) {
        return Err(malformed("k-mer code"));
    }

    let (words, samples) = samples.map_err(malformed)?;
    if samples.is_empty() {
        // Text position 0 is always 0 (mod rate), so a real index
        // always marks at least one row; zero marks would make locate's
        // LF walk endless.
        return Err(malformed("sample count"));
    }
    if n % 64 != 0 {
        if let Some(&last) = words.last() {
            if last >> (n % 64) != 0 {
                return Err(malformed("mark padding bits"));
            }
        }
    }
    let marks = RankBits::from_words(words, n);
    if marks.rank(n) != samples.len() {
        return Err(malformed("sample count"));
    }
    if samples
        .iter()
        .any(|&v| v as usize >= n || v as usize % SA_SAMPLE_RATE != 0)
    {
        return Err(malformed("suffix-array sample"));
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
    drop(bwt);
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

    #[cfg(unix)]
    #[test]
    fn a_node_that_is_not_a_regular_file_is_left_as_it_is() {
        use std::os::unix::fs::FileTypeExt;
        // A socket inode stands in for a FIFO or a device: a load must not
        // open any of them (a FIFO blocks the open, a device may read
        // forever), and a write must neither stage into them nor rename a
        // file over them.
        let dir = temp_path("socket_dir");
        fs::create_dir(&dir).expect("make the directory");
        let socket = dir.join("snap");
        let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
        let refused = SnapshotError::Io {
            kind: io::ErrorKind::InvalidInput,
        };
        let index = toy_index(2);
        assert_eq!(load_snapshot(&socket).unwrap_err(), refused);
        assert_eq!(write_snapshot(&index, &socket).unwrap_err(), refused);
        let kind = fs::metadata(&socket).expect("still there").file_type();
        assert!(kind.is_socket(), "{kind:?}");
        // Nothing was staged beside it.
        assert_eq!(fs::read_dir(&dir).expect("list").count(), 1);
        // Nor is the staging name written into, or removed, when it is
        // the node.
        drop(listener);
        fs::remove_file(&socket).expect("unlink the socket");
        let staged = dir.join("snap.tmp");
        let listener = std::os::unix::net::UnixListener::bind(&staged).expect("bind");
        assert_eq!(write_snapshot(&index, &socket).unwrap_err(), refused);
        assert!(!socket.exists());
        let kind = fs::metadata(&staged).expect("still there").file_type();
        assert!(kind.is_socket(), "{kind:?}");
        // A directory is refused the same way, both ways.
        assert_eq!(load_snapshot(&dir).unwrap_err(), refused);
        assert_eq!(write_snapshot(&index, &dir).unwrap_err(), refused);
        drop(listener);
        let _ = fs::remove_dir_all(&dir);
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
