//! Crash-safe, checksummed snapshots of a built [`KStepFmIndex`].
//!
//! A snapshot stores what an index cannot cheaply recover without its
//! suffix array — the k-BWT, one byte a row, its marker rows, the sampled
//! suffix array and the 2-bit text — with the build (`k`, strandedness):
//! exactly the parts a cold build hands the finish every index ends in
//! (`KStepFmIndex::finish`), so the reloaded index *equals* a cold build,
//! down to its [`AlignedWords`] placement and an allocation-exact
//! [`HeapBreakdown`](crate::HeapBreakdown). The 1-step BWT is not stored:
//! a code's low two bits are its row's BWT symbol, and at the marker rows
//! — those of text positions `p < k`, whose window crosses the sentinel —
//! it is `T[p − 1]` or `$`, read off the text. Nor are the K-mer table and
//! the C-arrays: the k-step one is counted from the text, the 1-step one
//! is the 1-step table's totals, the BWT's symbol counts.
//!
//! # On-disk format (version 5, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"EXMASNAP"
//!      8     4  format version (= 5)
//!     12     4  k
//!     16     8  text length n (sentinel included)
//!     24     4  section count (= 4)
//!     28     4  flags (bit 0 = bidirectional)
//!     32     …  4 sections, each:
//!                 tag u32 | payload length u64 | payload CRC32 | payload
//!      …     4  whole-file CRC32 over every preceding byte
//! sections: 1 k-BWT    n bytes, a placeholder 0 at each marker row
//!           2 markers  min(k, n) u32 rows, ascending
//!           3 samples  count u64 | ⌈n/64⌉ u64 mark words | count u32
//!           4 text     ⌈n/32⌉ u64 words, base i in bits 2 (i mod 32) of
//!                      word i / 32, the sentinel and padding zero
//! ```
//!
//! Any other version (v4 held the BWT beside `u16` k-codes) is refused as
//! [`SnapshotError::VersionMismatch`]; a server answers by rebuilding.
//!
//! # One decoder, read front to back, staging nothing
//!
//! [`load_snapshot`] and [`decode_snapshot`] are one decoder over a file
//! and a slice, so the same bytes give the same index or error. It reads
//! the image once through a 64 KiB chunk into the buffers the payloads
//! become — the k-codes into the code lanes of the k-step table, the mark
//! words and samples into their vectors, the text words into the buffer
//! the index keeps — each read checked against the source's length
//! first. A load stages nothing beside the index but that chunk and the
//! mark words, one bit a row, freed once the 1-step table is marked.
//!
//! No header can make a load ask for more memory than the image vouches
//! for. Until the k-codes section's framing has shown that its `n` bytes
//! are in the source, nothing is sized by `n`, and no request is larger
//! than the source. Then the k-step table's lane store is sized — the
//! largest request a load makes and the only one larger than the source,
//! about `2.3 n` bytes at k = 4 and at most `1.6 n` below it — and every
//! later buffer is smaller than the source.
//!
//! The checks run in a fixed order: magic, version, header and framing as
//! read; then every checksum; then each payload's length and the codes'
//! range (below `4^k`). The finish then checks the parts against each
//! other: the marker rows (distinct, ascending, in range, placeholders),
//! the samples, the text's base counts against the BWT's, every sampled
//! row's symbol against the base in front of its position, the marker
//! rows' suffix order (an LF step from the row of `T[p..]` lands on that
//! of `T[p − 1..]`), and each code's count against its k-mer's in the
//! text. The 1-step table is read off the lanes once the marker rows and
//! the samples hold: it is total over any code byte, and its totals are
//! the BWT's base counts. As the BWT *is* the codes' low bits, the k-steps and the
//! 1-step walks of a loaded index answer from one text. Every failure is
//! a typed [`SnapshotError`], never a panic or an index. The checksums
//! are the corruption defense (a file that collides CRC32 on every region
//! it changed is crafted, outside the threat model); the semantic checks
//! keep every table access in bounds.
//!
//! # Crash-safe writes
//!
//! [`write_snapshot`] streams the image off the tables to `path.tmp`,
//! fsyncs it, renames it over `path` and fsyncs the directory: a crash
//! leaves the old snapshot or the new one. A `path` or `path.tmp` naming
//! a FIFO, a device, a socket or a directory is refused, left as it is.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::interleave::{AlignedWords, BlockStore};
use crate::kocc::KmerOccTable;
use crate::kstep::{KStepBuildConfig, KStepFmIndex, MAX_STEP};
use crate::layout::K_OCC_SAMPLE_RATE;
use crate::text::PackedText;

/// The leading eight bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EXMASNAP";

/// The one on-disk format version this build writes and reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// Magic, version, k, text length, section count, flags.
const HEADER_LEN: usize = 32;
/// Bit 0 of the flags word: the index covers the bidirectional doubled
/// text.
const FLAG_BIDIRECTIONAL: u32 = 1;
const SECTION_HEADER_LEN: usize = 16;
const SECTION_COUNT: usize = 4;
const SECTION_NAMES: [&str; SECTION_COUNT] = ["k-codes", "marker-rows", "sampled-sa", "text"];

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
    write!(f, "k{}{}", c.k, if c.bidirectional { "_bidir" } else { "" })
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

/// What a section's payload is handed to, a piece at a time.
type Sink<'a> = dyn FnMut(&[u8]) -> io::Result<()> + 'a;

/// Hands section `section`'s payload (0-based, in file order) to `sink`,
/// read off the index's tables, words 4 KiB at a time. The mark words are
/// read off the occurrence lines' mark bits.
fn payload(index: &KStepFmIndex, section: usize, sink: &mut Sink<'_>) -> io::Result<()> {
    fn words<T: Copy, const W: usize>(
        words: impl IntoIterator<Item = impl std::borrow::Borrow<T>>,
        le: fn(T) -> [u8; W],
        sink: &mut Sink<'_>,
    ) -> io::Result<()> {
        let mut chunk = [0; 4096];
        let mut words = words.into_iter().peekable();
        while words.peek().is_some() {
            let slots = chunk.chunks_exact_mut(W).zip(words.by_ref());
            let filled = slots.map(|(bytes, w)| bytes.copy_from_slice(&le(*w.borrow())));
            let len = filled.count() * W;
            sink(&chunk[..len])?;
        }
        Ok(())
    }
    let ssa = index.base_index().sampled_sa();
    match section {
        0 => index.kmer_occ().try_for_each_code_run(sink),
        1 => words(index.kmer_occ().markers(), u32::to_le_bytes, sink),
        2 => {
            sink(&(ssa.samples.len() as u64).to_le_bytes())?;
            words(ssa.occ.mark_words(), u64::to_le_bytes, sink)?;
            words(ssa.samples, u32::to_le_bytes, sink)
        }
        _ => words(index.packed_text().image(), u32::to_le_bytes, sink),
    }
}

/// Streams `index`'s image into `out`: the header, each section's framing
/// (from a first pass over its payload) and payload, and the checksum.
fn write_image(index: &KStepFmIndex, out: &mut impl Write) -> io::Result<()> {
    let mut file_crc = !0;
    let mut put = |bytes: &[u8]| {
        file_crc = crc32_update(file_crc, bytes);
        out.write_all(bytes)
    };
    let config = index.build_config();
    let flags = FLAG_BIDIRECTIONAL * u32::from(config.bidirectional);
    put(&SNAPSHOT_MAGIC)?;
    put(&SNAPSHOT_FORMAT_VERSION.to_le_bytes())?;
    put(&(config.k as u32).to_le_bytes())?;
    put(&(index.text_len() as u64).to_le_bytes())?;
    put(&(SECTION_COUNT as u32).to_le_bytes())?;
    put(&flags.to_le_bytes())?;
    for section in 0..SECTION_COUNT {
        let (mut len, mut crc) = (0u64, !0);
        payload(index, section, &mut |piece| {
            (len, crc) = (len + piece.len() as u64, crc32_update(crc, piece));
            Ok(())
        })?;
        put(&(section as u32 + 1).to_le_bytes())?;
        put(&len.to_le_bytes())?;
        put(&(!crc).to_le_bytes())?;
        payload(index, section, &mut put)?;
    }
    out.write_all(&(!file_crc).to_le_bytes())
}

/// Serializes `index` into its snapshot image, checksums included — the
/// pure counterpart of [`write_snapshot`], through the same writer.
pub fn encode_snapshot(index: &KStepFmIndex) -> Vec<u8> {
    let mut image = Vec::new();
    write_image(index, &mut image).expect("a Vec takes every write");
    image
}

/// Writes `index` to `path` crash-safely: the image to `path.tmp`,
/// fsync, atomic rename over `path`, directory fsync. A crash at any
/// point leaves either the previous snapshot or the complete new one.
/// The image is streamed off the index's tables, so a write holds
/// nothing beside the index but fixed-size chunks.
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
        write_image(index, &mut file)?;
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
/// As [`load_snapshot_expecting`].
pub fn load_snapshot(path: &Path) -> Result<KStepFmIndex, SnapshotError> {
    load_snapshot_expecting(path, None)
}

/// [`load_snapshot`], additionally requiring the snapshot's embedded
/// build (`k`, strandedness) to equal `expected` — the warm-start
/// compatibility check, performed on the header before any payload work.
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
    decode(&mut file, len, expected)
}

/// What a load or a write answers for a path that is not a regular file.
const NOT_A_REGULAR_FILE: SnapshotError = SnapshotError::Io {
    kind: io::ErrorKind::InvalidInput,
};

/// The length of a regular file; any other kind of node is refused.
fn regular_file_len(meta: &fs::Metadata) -> Result<u64, SnapshotError> {
    meta.is_file()
        .then_some(meta.len())
        .ok_or(NOT_A_REGULAR_FILE)
}

/// Decodes a snapshot image, verifying everything (see the module docs)
/// before constructing anything: a typed error, never a panic or a
/// partially-verified index, and what a file of the same bytes gives.
pub fn decode_snapshot(
    bytes: &[u8],
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    decode(&mut { bytes }, bytes.len() as u64, expected)
}

/// Bytes a load reads at a time: a multiple of 8, so no value (a `u64`
/// at most, each at a multiple of its width) straddles two pieces, and of
/// a k-step half-block, so every piece of the k-codes section starts one,
/// as [`BlockStore::set_lanes`] takes them.
const CHUNK_BYTES: usize = 64 << 10;
const _: () = assert!(CHUNK_BYTES % (K_OCC_SAMPLE_RATE / 2) == 0);

/// A snapshot image read front to back from a source of known length,
/// which every read is checked against before it is made; every byte
/// before the trailer is folded into the whole-file checksum.
struct Image<'a> {
    /// Read through a trait object, so the decoder is compiled once for
    /// both sources.
    source: &'a mut dyn Read,
    len: u64,
    /// Bytes read so far.
    offset: u64,
    /// The whole-file CRC32 state over those bytes.
    file_crc: u32,
    /// The read chunk: [`CHUNK_BYTES`], or the image's length in whole
    /// 8-byte words if that is less, allocated by the first payload read.
    chunk: Vec<u8>,
}

/// A section payload read into the buffer it becomes or, when its length
/// is not the one the header implies, the field that names it.
type Staged<T> = Result<T, &'static str>;

/// Section 1 as read: the k-step table's code lanes, filled, and every
/// code byte or-ed together.
type Codes = (BlockStore, u8);

/// Section 3 as read: the mark words, then the samples.
type Samples = (Vec<u64>, Vec<u32>);

impl Image<'_> {
    /// Fails unless `bytes` more bytes follow the ones read.
    fn need(&self, bytes: u64) -> Result<(), SnapshotError> {
        let (needed, len) = (self.offset.saturating_add(bytes), self.len);
        let truncated = SnapshotError::Truncated { needed, len };
        (needed <= len).then_some(()).ok_or(truncated)
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

    /// Reads the next `len` payload bytes through the read chunk,
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

    /// Section 1's payload, the `n` k-BWT codes of step width `k`,
    /// straight into the code lanes of the k-step table, each byte or-ed
    /// into one on the way: its high bits are those of some code.
    fn codes(&mut self, n: usize, k: usize, crc: &mut u32) -> Result<Codes, SnapshotError> {
        let mut lanes = KmerOccTable::lanes(n, k).map_err(|_| malformed("k-occ layout"))?;
        let (mut ored, mut at) = (0, 0);
        self.stream(n, crc, |piece| {
            ored |= piece.iter().fold(0, |ored, &code| ored | code);
            lanes.set_lanes(at, piece);
            at += piece.len();
        })?;
        Ok((lanes, ored))
    }

    /// Section 3's payload — the sample count, then `⌈n/64⌉` mark words,
    /// then the samples — into the mark and sample vectors.
    fn samples(
        &mut self,
        len: usize,
        n: usize,
        crc: &mut u32,
    ) -> Result<Staged<Samples>, SnapshotError> {
        let (words, body) = (n.div_ceil(64), len.saturating_sub(8));
        let mut count = [0; 8];
        if len >= 8 {
            self.stream(8, crc, |piece| count.copy_from_slice(piece))?;
        }
        let count = usize::try_from(u64::from_le_bytes(count))
            .ok()
            .filter(|&count| {
                len >= 8
                    && count.checked_mul(4).and_then(|b| b.checked_add(8 * words)) == Some(body)
            });
        let Some(count) = count else {
            self.stream(body, crc, |_| {})?;
            return Ok(Err("sampled-sa length"));
        };
        let marks = self.values(words, crc, u64::from_le_bytes)?;
        Ok(Ok((marks, self.values(count, crc, u32::from_le_bytes)?)))
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
/// the checksums are compared once the trailer is in; then the payloads'
/// lengths and the codes' range; and the finish every index ends in
/// checks the parts, the k-codes in the k-step table's lanes, against
/// each other before it counts the tables off them.
fn decode(
    source: &mut dyn Read,
    len: u64,
    expected: Option<&KStepBuildConfig>,
) -> Result<KStepFmIndex, SnapshotError> {
    let mut image = Image {
        source,
        len,
        offset: 0,
        file_crc: !0,
        chunk: Vec::new(),
    };
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
    let (k, text_len) = (u32_at(&header, 0) as usize, u64_at(&header, 4));
    let flags = u32_at(&header, 16);
    if flags & !FLAG_BIDIRECTIONAL != 0 {
        return Err(malformed("recipe flags"));
    }
    if !(1..=MAX_STEP).contains(&k) {
        return Err(malformed("step width k"));
    }
    if text_len == 0 || text_len >= u64::from(u32::MAX) {
        return Err(malformed("text length"));
    }
    if u32_at(&header, 12) as usize != SECTION_COUNT {
        return Err(malformed("section count"));
    }
    let bidirectional = flags & FLAG_BIDIRECTIONAL != 0;
    let found = KStepBuildConfig { k, bidirectional };
    if let Some(&expected) = expected.filter(|&&expected| expected != found) {
        return Err(SnapshotError::LayoutMismatch { expected, found });
    }
    let n = text_len as usize;

    // The sections in tag order, each framing checked against the image's
    // length before its payload is read, and each payload read straight
    // into the buffer it becomes — sized by its own length, which the
    // image's has vouched for. A payload whose length is not the one `n`
    // implies is still read and checksummed, into nothing.
    let mut codes = Err("k-codes length");
    let mut markers = Err("marker rows");
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
            0 if len == n => codes = Ok(image.codes(n, k, &mut crc)?),
            1 if len == 4 * k.min(n) => {
                markers = Ok(image.values(k.min(n), &mut crc, u32::from_le_bytes)?);
            }
            2 => samples = image.samples(len, n, &mut crc)?,
            3 => text = image.text(len, n, &mut crc)?,
            _ => image.stream(len, &mut crc, |_| {})?,
        }
        *slot = (u32_at(&framing, 12), !crc);
    }
    if image.len > image.offset + 4 {
        return Err(malformed("file length"));
    }
    let mut trailer = [0; 4];
    image.fill(&mut trailer)?;

    // Integrity: each section's own checksum, then the whole-file
    // checksum (which also covers the header and section framing — a
    // flipped k must never silently rebuild a different index).
    if let Some(section) = crcs.iter().position(|(stored, read)| stored != read) {
        let section = SECTION_NAMES[section];
        return Err(SnapshotError::ChecksumMismatch { section });
    }
    if u32::from_le_bytes(trailer) != !image.file_crc {
        return Err(SnapshotError::ChecksumMismatch { section: "file" });
    }

    // The parts, each as its section's length shaped it, then every code
    // in the alphabet of k; the finish checks them against each other.
    let (lanes, ored) = codes.map_err(malformed)?;
    let text = text
        .ok()
        .and_then(|words| PackedText::from_image(words, n))
        .ok_or(malformed("text length or padding"))?;
    if u32::from(ored) >> (2 * k) != 0 {
        return Err(malformed("k-mer code"));
    }
    let markers = markers.map_err(malformed)?;
    let (marks, samples) = samples.map_err(malformed)?;
    KStepFmIndex::finish(found, lanes, markers, marks, samples, text).map_err(malformed)
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
        // A text of 70 000 bases streams its k-codes into the k-step
        // table's lanes in two read chunks, the second starting on a
        // half-block boundary, as every chunk does.
        const { assert!(70_000 > CHUNK_BYTES && CHUNK_BYTES % (K_OCC_SAMPLE_RATE / 2) == 0) };
        for len in [3000, 70_000] {
            for k in [1, 2, 4] {
                let index = toy_index_with(len, KStepBuildConfig::for_k(k));
                let bytes = encode_snapshot(&index);
                let loaded = decode_snapshot(&bytes, None).expect("valid snapshot");
                assert_eq!(loaded, index, "len={len}, k={k}");
                // Allocation-exact: the warm server's heap attribution
                // must equal the cold one's, capacity for capacity.
                assert_eq!(loaded.heap_breakdown(), index.heap_breakdown());
                assert_eq!(loaded.build_config(), index.build_config());
            }
        }
        // Texts whose short suffixes share long prefixes — all `A`, and
        // `A…AC` repeated at period k and k + 1 — at every k, both ways.
        let periodic = |period: usize| {
            let body: String = (1..=3000)
                .map(|i| {
                    if period > 1 && i % period == 0 {
                        'C'
                    } else {
                        'A'
                    }
                })
                .collect();
            exma_genome::genome::text_from_str(&body).unwrap()
        };
        for k in 1..=MAX_STEP {
            for forward in [periodic(1), periodic(k), periodic(k + 1)] {
                let doubled = crate::bidir::doubled_text(&forward);
                for (text, bidirectional) in [(forward, false), (doubled, true)] {
                    let config = KStepBuildConfig { k, bidirectional };
                    let index = KStepFmIndex::from_text_with_config(&text, config).unwrap();
                    let loaded = decode_snapshot(&encode_snapshot(&index), None);
                    assert_eq!(loaded.expect("valid snapshot"), index, "{config:?}");
                }
            }
        }
    }

    #[test]
    fn sa_marks_in_the_occurrence_lines_never_reach_the_image() {
        // The trailing whole-file CRC32 of two images, pinned: a mark that
        // leaked into the k-codes section would move it.
        for (index, crc) in [
            (toy_index(4), 0x1ef9_805e),
            (toy_bidir_index(2), 0x3812_5bc0),
        ] {
            let occ = index.base_index().occ();
            let n = index.text_len();
            let marked: Vec<usize> = (0..n).filter(|&row| occ.lf_data(row).2).collect();
            assert_eq!(marked.len(), index.base_index().sampled_sa().samples.len());
            // The mark words the image carries are the lines' marks.
            let words: Vec<u64> = occ.mark_words().collect();
            assert_eq!(crate::sampled_sa::ones(&words).collect::<Vec<_>>(), marked);
            let bytes = encode_snapshot(&index);
            // The k-codes section leads, right behind the header: each
            // row's code, a placeholder 0 at the marker rows.
            let codes = HEADER_LEN + SECTION_HEADER_LEN;
            assert_eq!(u64_at(&bytes, codes - 12), n as u64);
            let kocc = index.kmer_occ();
            for (row, &code) in bytes[codes..codes + n].iter().enumerate() {
                assert_eq!(kocc.code(row).unwrap_or(0), code, "row {row}");
            }
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
        // The `.tmp` file never survives a successful write.
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
        // Nor is the `.tmp` name written into, or removed, when it is
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
            SnapshotError::ChecksumMismatch { section: "k-codes" }
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
