//! Cache-line-aligned, huge-page-backed storage for interleaved rank tables.
//!
//! The flat occurrence tables of earlier revisions kept symbol codes and
//! rank checkpoints in two separate allocations, so every `rank` paid two
//! distant memory round-trips — exactly the DRAM behaviour the paper
//! measures as the FM-index bottleneck (§II-C). The interleaved layout
//! used by [`crate::occ::OccTable`] and [`crate::kocc::KmerOccTable`]
//! instead packs each checkpoint row together with the codes it covers
//! into one *block*, sized to a whole number of 64-byte cache lines and
//! allocated line-aligned, so one `rank` touches one contiguous region.
//! This module holds what those tables share: a `u32` word buffer whose
//! first word sits on a cache-line boundary; the rank kernel that counts
//! a code among a block's first lanes (`BlockStore::prefix_counts`);
//! the software-prefetch hints the batch scheduler uses to overlap block
//! fetches across queries; `Divisor`, which splits a row into block and
//! offset without a hardware divide; and `BlockStore`, the checkpoint
//! format itself — `u16` deltas off sparse `u32` superblock rows — built,
//! read, hinted and sized in one place for both tables.
//!
//! # The rank kernel
//!
//! A rank is a checkpoint plus the number of matching code lanes before
//! the row. Which lanes those are differs from query to query, so a scan
//! that stops at the row — or picks the nearer of two checkpoints — ends
//! on a branch the predictor cannot learn, and on a cache-resident table
//! those mispredictions cost more than the scan. The kernel here has no
//! such branch. Its loop runs once per cache line of the block's code
//! region — a trip count fixed per table (`CodeSpan`) — counting the
//! line's matches with four aligned 16-byte compares and adding them to
//! each prefix that covers the whole line, selected by an arithmetic
//! mask; the one line a prefix ends in is then compared once more into a
//! 64-bit match mask and cut at the offset. Every code lane is one byte:
//! the k-mer table's widest codes, at k = 4, are 256 values. Several
//! offsets share the pass, so both ends of an interval come out of one
//! forward walk from the block's own checkpoint. The compares go through
//! a lane mask fixed at compile time: the 1-step table keeps a flag in
//! bit 7 of each code byte and counts `lane & 0x07`; the k-mer table's
//! codes use the whole byte, and its all-ones mask compiles away. The
//! price is that the whole code region is read every time, which is why
//! the prefetch hints cover all of it (`BlockStore::prefetch_block`).
//! Reading only up to the furthest offset's line — re-reading that line
//! in place of the later ones, to keep the trip count — measured 2.5 %
//! slower on the 20 Mbp index than reading them all.
//!
//! There are two kernels, and each is licensed by a measurement: SSE2 on
//! x86-64, where it is the baseline, and a portable fixed-trip loop
//! everywhere else (and in the tests, which hold each to the other).
//! With `prefix_counts` forced to the portable kernel on x86-64,
//! `count_reads` (20 Mbp, seed 42, 4 s runs, six interleaved pairs on a
//! 2-vCPU VM) read 0.78–1.16 M queries/s against SSE2's 1.31–1.75 M:
//! 0.52–0.69× in every pair, median 0.60×.
//!
//! # Translation
//!
//! A search step's line is fetched from a random block of a table tens
//! of megabytes long, so on 4 KiB pages nearly every step also misses
//! the TLB, and the page walk — nested, under a hypervisor — is a second
//! dependent round-trip in front of the first. [`AlignedWords`] is the
//! one buffer under both occurrence tables, so it is where that is
//! dealt with, and its own length is all it goes by:
//!
//! * **What is aligned.** A buffer of 2 MiB or more is allocated on a
//!   2 MiB boundary (a `Layout` of exactly `lines × 64` bytes with that
//!   alignment, through the global allocator, freed with the same
//!   layout); a shorter one keeps the 64-byte alignment. `heap_bytes`
//!   is `lines × 64` either way: alignment is not size.
//! * **What is hinted.** On Linux the 2 MiB-aligned range — its length
//!   rounded down to 4 KiB — is passed once to `madvise(MADV_HUGEPAGE)`
//!   before anything touches it, through one raw `extern "C"`
//!   declaration (no `libc` crate; the call is compiled out under Miri
//!   and off Linux). Every whole 2 MiB of the buffer can then be one
//!   TLB entry; the ragged end past the last boundary stays on small
//!   pages.
//! * **Why the zero fill is the first touch.** The kernel picks the
//!   page size when a page is first written. `zeroed` therefore fills
//!   the buffer itself, right after the hint, instead of asking the
//!   allocator for zeroed memory it may never have touched: the pages
//!   are huge from their first fault — nothing is left for `khugepaged`
//!   to collapse later — and what fresh pages cost is paid in set-up,
//!   in one sweep, not smeared over the first queries. On a guest that
//!   reports free pages back to its host that cost is real (README,
//!   "Start-up and memory").
//! * **Where THP is off.** With `transparent_hugepage/enabled` at
//!   `never`, on a kernel without it, or off Linux, the hint is refused
//!   or absent and the result ignored: the same code runs on 4 KiB
//!   pages, a 2 MiB alignment being merely generous. There is no flag
//!   and no second path. [`huge_page_bytes`] reads back what the
//!   process was granted.

use crate::layout::{IndexError, SUPERBLOCK_RATE};

/// One 64-byte cache line of sixteen `u32` words.
///
/// `repr(C, align(64))` pins both the size and the alignment, so a
/// line-aligned run of them is a contiguous, line-aligned `u32` buffer.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheLine([u32; WORDS_PER_LINE]);

/// `u32` words per 64-byte cache line.
pub const WORDS_PER_LINE: usize = 16;

/// Bytes per cache line.
const LINE_BYTES: usize = 64;

/// Bytes per huge page — 2 MiB on x86-64 and on aarch64 with 4 KiB base
/// pages: the length from which a buffer is aligned to, and advised
/// onto, huge pages. See the module docs' "Translation".
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// A line-aligned `u32` buffer: the backing store of interleaved tables.
///
/// Tables address it as a flat word slice via [`AlignedWords::words`];
/// the line granularity only matters at allocation time (the word count
/// is rounded up to whole lines) and for [`AlignedWords::prefetch`].
/// A buffer of 2 MiB or more starts on a 2 MiB boundary and asks the
/// kernel for huge pages (the module docs' "Translation").
pub struct AlignedWords {
    /// `lines` initialised `CacheLine`s from the global allocator under
    /// [`AlignedWords::layout`]; dangling, and never handed to the
    /// allocator, when `lines == 0`.
    ptr: std::ptr::NonNull<CacheLine>,
    lines: usize,
    words: usize,
}

// SAFETY: the buffer owns its allocation outright — `ptr` is reachable
// through no other value — and holds plain integers, so moving it to
// another thread moves everything it refers to.
unsafe impl Send for AlignedWords {}
// SAFETY: `&AlignedWords` gives out only `&` views of plain integers;
// every write goes through `&mut self`.
unsafe impl Sync for AlignedWords {}

impl AlignedWords {
    /// The allocation request behind a buffer of `lines` cache lines:
    /// exactly `lines * 64` bytes — alignment is not size — on a line
    /// boundary, or on a huge-page boundary once that long.
    fn layout(lines: usize) -> std::alloc::Layout {
        let bytes = lines
            .checked_mul(LINE_BYTES)
            .expect("buffer size overflows usize");
        let align = if bytes >= HUGE_PAGE_BYTES {
            HUGE_PAGE_BYTES
        } else {
            LINE_BYTES
        };
        std::alloc::Layout::from_size_align(bytes, align).expect("buffer size overflows isize")
    }

    /// An all-zero buffer of `words` `u32` words, padded to whole cache
    /// lines. The allocation is exact, so `heap_bytes` reports true
    /// footprint.
    pub fn zeroed(words: usize) -> AlignedWords {
        let lines = words.div_ceil(WORDS_PER_LINE);
        if lines == 0 {
            let ptr = std::ptr::NonNull::dangling();
            return AlignedWords { ptr, lines, words };
        }
        let layout = AlignedWords::layout(lines);
        // SAFETY: `layout` has a non-zero size, as `alloc` requires.
        let raw = unsafe { std::alloc::alloc(layout) };
        let Some(ptr) = std::ptr::NonNull::new(raw.cast::<CacheLine>()) else {
            std::alloc::handle_alloc_error(layout)
        };
        #[cfg(all(target_os = "linux", not(miri)))]
        if layout.align() == HUGE_PAGE_BYTES {
            const MADV_HUGEPAGE: i32 = 14;
            const BASE_PAGE_BYTES: usize = 4096;
            extern "C" {
                fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
            }
            // SAFETY: the range starts at `raw`, page-aligned because
            // huge-page-aligned, and ends at the last 4 KiB boundary
            // inside the allocation, so it names only memory this buffer
            // owns; the advice changes how the kernel backs those pages,
            // never their contents. A refusal (THP off, an old kernel)
            // leaves ordinary pages, which is why the result is ignored.
            unsafe { madvise(raw, layout.size() & !(BASE_PAGE_BYTES - 1), MADV_HUGEPAGE) };
        }
        // SAFETY: `raw` is the start of `layout.size()` writable bytes
        // this buffer alone owns, and all-zero bytes are a valid
        // `CacheLine`. An explicit fill, not `alloc_zeroed`: it is the
        // buffer's first touch (see "Translation").
        unsafe { raw.write_bytes(0, layout.size()) };
        AlignedWords { ptr, lines, words }
    }

    /// Builds the buffer from `words`, padding the allocation to whole
    /// cache lines.
    pub fn from_words(words: &[u32]) -> AlignedWords {
        let mut buf = AlignedWords::zeroed(words.len());
        buf.words_mut()[..words.len()].copy_from_slice(words);
        buf
    }

    /// The buffer's cache lines.
    #[inline]
    fn lines(&self) -> &[CacheLine] {
        // SAFETY: `ptr` is aligned and non-null even when dangling, and
        // `zeroed` initialised the `lines` lines behind it; they stay
        // allocated and unaliased by writers for as long as `self` is
        // borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.lines) }
    }

    /// The buffer reinterpreted as a slice of `T` lanes; see [`lanes_of`].
    fn lanes<T: Lane>(&self) -> &[T] {
        lanes_of(self.lines())
    }

    fn lanes_mut<T: Lane>(&mut self) -> &mut [T] {
        let per_line = LINE_BYTES / std::mem::size_of::<T>();
        // SAFETY: as in `lines` and `lanes_of`, and the borrow of `self`
        // is exclusive for the returned lifetime.
        unsafe {
            std::slice::from_raw_parts_mut(self.ptr.as_ptr().cast::<T>(), self.lines * per_line)
        }
    }

    /// The buffer as a flat word slice (padding words included, zeroed).
    #[inline]
    pub fn words(&self) -> &[u32] {
        self.lanes::<u32>()
    }

    /// Mutable word view, for builders.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u32] {
        self.lanes_mut::<u32>()
    }

    /// The buffer as `u16` half-word lanes (two per word): how the
    /// checkpoint deltas are stored. Word `w` spans lanes `2w .. 2w + 2`;
    /// regions written through this view must be read through it too.
    #[inline]
    pub fn halves(&self) -> &[u16] {
        self.lanes::<u16>()
    }

    /// Mutable half-word view, for builders.
    #[inline]
    pub fn halves_mut(&mut self) -> &mut [u16] {
        self.lanes_mut::<u16>()
    }

    /// The buffer as byte lanes (four per word). Word `w` spans bytes
    /// `4w .. 4w + 4`; same write/read-through-one-view rule as
    /// [`AlignedWords::halves`].
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.lanes::<u8>()
    }

    /// Mutable byte view, for builders.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.lanes_mut::<u8>()
    }

    /// Number of meaningful words (excluding line padding).
    pub fn len(&self) -> usize {
        self.words
    }

    /// `true` iff the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Heap bytes of the backing allocation (padding included — it is
    /// real, resident memory).
    pub fn heap_bytes(&self) -> usize {
        self.lines * LINE_BYTES
    }

    /// Hints the CPU to pull the cache line holding word `index` toward
    /// L1. A no-op off x86-64 and for out-of-range indices; never faults.
    #[inline]
    pub fn prefetch(&self, index: usize) {
        prefetch_element(self.words(), index);
    }
}

impl Drop for AlignedWords {
    fn drop(&mut self) {
        if self.lines > 0 {
            // SAFETY: `ptr` came from `alloc` under this same layout in
            // `zeroed`, and nothing else frees it.
            unsafe {
                std::alloc::dealloc(self.ptr.as_ptr().cast(), AlignedWords::layout(self.lines));
            }
        }
    }
}

impl Clone for AlignedWords {
    fn clone(&self) -> AlignedWords {
        let mut copy = AlignedWords::zeroed(self.words);
        copy.words_mut().copy_from_slice(self.words());
        copy
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &AlignedWords) -> bool {
        self.words == other.words && self.lines() == other.lines()
    }
}

impl Eq for AlignedWords {}

impl std::fmt::Debug for AlignedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedWords")
            .field("lines", &self.lines())
            .field("words", &self.words)
            .finish()
    }
}

/// Bytes of this process's anonymous memory the kernel backs with
/// transparent huge pages right now — the `AnonHugePages` line of
/// `/proc/self/smaps_rollup`: whether the hint [`AlignedWords`] gives
/// was granted. `None` off Linux and wherever the file cannot be read.
pub fn huge_page_bytes() -> Option<u64> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    rollup.lines().find_map(anon_huge_bytes)
}

/// The bytes an `AnonHugePages:    N kB` line of a `smaps` file states;
/// `None` for every other line.
fn anon_huge_bytes(line: &str) -> Option<u64> {
    let kib = line
        .strip_prefix("AnonHugePages:")?
        .trim()
        .strip_suffix("kB")?;
    Some(kib.trim().parse::<u64>().ok()? * 1024)
}

/// An integer type the buffer may be viewed as.
///
/// # Safety
///
/// Implementors must have no padding and no invalid bit patterns, a
/// size that divides a cache line, and an alignment of at most 64.
pub(crate) unsafe trait Lane: Copy {}
// SAFETY: plain integers of 1, 2 and 4 bytes.
unsafe impl Lane for u8 {}
unsafe impl Lane for u16 {}
unsafe impl Lane for u32 {}

/// `lines` reinterpreted as a slice of `T` lanes. Lane order within a
/// word is the machine's native one — fine, because writers and readers
/// of a given region always go through the *same* typed view.
fn lanes_of<T: Lane>(lines: &[CacheLine]) -> &[T] {
    let per_line = LINE_BYTES / std::mem::size_of::<T>();
    // SAFETY: `CacheLine` is `repr(C)` over `[u32; 16]` with no padding,
    // so a contiguous `[CacheLine]` is bit-identical to a contiguous
    // slice of any `Lane` type (no padding, every bit pattern valid, by
    // the trait's contract); 64-byte alignment over-satisfies each of
    // them, and the length covers exactly the borrowed lines.
    unsafe { std::slice::from_raw_parts(lines.as_ptr().cast::<T>(), lines.len() * per_line) }
}

/// Where a table's blocks keep their code lanes, in whole cache lines.
/// Fixed at construction: it is the rank kernel's trip count and the
/// prefetcher's footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CodeSpan {
    /// Cache lines per block.
    block_lines: usize,
    /// First line of the code region within a block.
    first: usize,
    /// Lines the code region touches.
    lines: usize,
    /// Byte offset of the first code lane within its line; the bytes
    /// before it are the tail of the block's counter row.
    head: usize,
}

impl CodeSpan {
    /// The span of `codes` one-byte code lanes that follow
    /// `header_bytes` of counters in blocks of `block_words` words.
    pub(crate) fn new(block_words: usize, header_bytes: usize, codes: usize) -> CodeSpan {
        assert!(codes > 0, "a block holds at least one code lane");
        assert!(
            block_words % WORDS_PER_LINE == 0 && header_bytes + codes <= block_words * 4,
            "code lanes must lie inside a line-rounded block"
        );
        let head = header_bytes % LINE_BYTES;
        CodeSpan {
            block_lines: block_words / WORDS_PER_LINE,
            first: header_bytes / LINE_BYTES,
            lines: (head + codes).div_ceil(LINE_BYTES),
            head,
        }
    }

    /// Index of the first code line of `block`.
    #[inline]
    fn first_line(self, block: usize) -> usize {
        block * self.block_lines + self.first
    }
}

/// The one checkpoint format, stored once for both occurrence tables.
///
/// Rows are checkpointed every `sample_rate` of them; block `b` packs the
/// checkpoint for prefix `b * sample_rate` with the code lanes of the
/// rows it covers, in bytes:
///
/// ```text
/// [ lanes u16 deltas | sample_rate one-byte code lanes | pad ]
/// ```
///
/// padded so every block starts on a 64-byte cache-line boundary. A delta
/// is relative to the absolute `u32` row kept, every
/// [`SUPERBLOCK_RATE`] blocks, in a separate small array. The spacing is
/// the owning table's ([`crate::layout`] has one for each), and so is
/// kept at run time. What a code lane *means* — and so
/// which lanes a rank counts — is the owning table's business: it feeds
/// the lanes in, names the counter each one bumps, and reads them back
/// through the kernel with its own mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockStore {
    data: AlignedWords,
    /// Absolute checkpoint rows, one `lanes`-word group per
    /// [`SUPERBLOCK_RATE`] blocks.
    superblocks: AlignedWords,
    /// Counters per checkpoint row.
    lanes: usize,
    /// Words per block, line-rounded.
    block_words: usize,
    /// Where a block's code lanes lie: right behind its delta row.
    span: CodeSpan,
    /// Rows covered.
    len: usize,
    sample_rate: Divisor,
}

impl BlockStore {
    /// Lays `rows` out in blocks. Each row is its code lane as stored and
    /// the counter it bumps, `lanes` or more for a lane no rank counts.
    /// Returns the store and the counters' totals over all rows.
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if the rows outgrow `u32` counters.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate == 0`. The layout's spacings are proven
    /// narrow enough for the deltas at compile time ([`crate::layout`]).
    pub(crate) fn build(
        lanes: usize,
        sample_rate: usize,
        mut rows: impl ExactSizeIterator<Item = (u8, usize)>,
    ) -> Result<(BlockStore, Vec<u32>), IndexError> {
        assert!(sample_rate > 0, "sample rate must be positive");
        let len = rows.len();
        if len >= u32::MAX as usize {
            return Err(IndexError::IndexTooLarge { rows: len });
        }
        let blocks = len / sample_rate + 1;
        let delta_bytes = lanes * 2;
        let block_words = (delta_bytes + sample_rate)
            .div_ceil(4)
            .next_multiple_of(WORDS_PER_LINE);
        let mut store = BlockStore {
            data: AlignedWords::zeroed(blocks * block_words),
            superblocks: AlignedWords::zeroed(blocks.div_ceil(SUPERBLOCK_RATE) * lanes),
            lanes,
            block_words,
            span: CodeSpan::new(block_words, delta_bytes, sample_rate),
            len,
            sample_rate: Divisor::new(sample_rate),
        };
        let mut running = vec![0u32; lanes];
        for block in 0..blocks {
            // The checkpoint row for prefix `block * sample_rate`: counts
            // accumulated so far.
            store.set_checkpoints(block, 0, &running);
            // The codes this block covers, as plain byte lanes behind the
            // delta row.
            let code_base = block * block_words * 4 + delta_bytes;
            let slots = &mut store.data.bytes_mut()[code_base..code_base + sample_rate];
            for (slot, (code, lane)) in slots.iter_mut().zip(rows.by_ref()) {
                *slot = code;
                if let Some(count) = running.get_mut(lane) {
                    *count += 1;
                }
            }
        }
        Ok((store, running))
    }

    /// Rows covered.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Counters per checkpoint row.
    #[inline]
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// The block holding `row` and the row's offset into it.
    #[inline]
    pub(crate) fn split(&self, row: usize) -> (usize, usize) {
        self.sample_rate.div_rem(row)
    }

    /// Index of the absolute superblock counter `block`'s checkpoint is
    /// relative to.
    #[inline]
    fn superblock_word(&self, block: usize, lane: usize) -> usize {
        block / SUPERBLOCK_RATE * self.lanes + lane
    }

    /// The absolute count of counter `lane` at `block`'s checkpoint:
    /// superblock word plus delta.
    #[inline]
    pub(crate) fn checkpoint(&self, block: usize, lane: usize) -> u32 {
        self.superblocks.words()[self.superblock_word(block, lane)]
            + u32::from(self.data.halves()[block * self.block_words * 2 + lane])
    }

    /// Sets the checkpoints of counters `first .. first + counts.len()` in
    /// `block` to the absolute `counts`: the superblock row if `block`
    /// starts one, and each counter's delta off it. Blocks are set in
    /// ascending order, so a superblock row is in place before any delta
    /// is taken from it.
    #[inline]
    pub(crate) fn set_checkpoints(&mut self, block: usize, first: usize, counts: &[u32]) {
        let row = self.superblock_word(block, first);
        let row = &mut self.superblocks.words_mut()[row..row + counts.len()];
        if block % SUPERBLOCK_RATE == 0 {
            row.copy_from_slice(counts);
        }
        let at = block * self.block_words * 2 + first;
        let deltas = &mut self.data.halves_mut()[at..at + counts.len()];
        for ((delta, &now), &at_group) in deltas.iter_mut().zip(counts).zip(&*row) {
            *delta = u16::try_from(now - at_group).expect("the span rule bounds every delta");
        }
    }

    /// The cache lines holding `block`'s code lanes.
    ///
    /// # Panics
    ///
    /// Panics if `block` lies past the store.
    #[inline]
    fn code_lines(&self, block: usize) -> &[CacheLine] {
        let first = self.span.first_line(block);
        &self.data.lines()[first..first + self.span.lines]
    }

    /// For each of `offsets`, the occurrences of `needle` among that many
    /// leading one-byte code lanes of `block` (each offset at most the
    /// lanes a block holds), all in one pass. The kernel of every rank
    /// over byte codes; see the module docs. A lane counts when
    /// `lane & MASK == needle`: a table whose code bytes carry flag bits
    /// above the code names the code bits here, one whose codes use the
    /// whole byte passes [`u8::MAX`], which compiles the mask away.
    ///
    /// # Panics
    ///
    /// Panics if `block` lies past the store.
    #[inline]
    pub(crate) fn prefix_counts<const MASK: u8, const N: usize>(
        &self,
        block: usize,
        needle: u8,
        offsets: [usize; N],
    ) -> [u32; N] {
        let lines = self.code_lines(block);
        #[cfg(target_arch = "x86_64")]
        return prefix_counts_sse2::<MASK, N>(lines, self.span.head, needle, offsets);
        #[cfg(not(target_arch = "x86_64"))]
        return prefix_counts_scalar(lanes_of::<u8>(lines), self.span.head, MASK, needle, offsets);
    }

    /// What each byte kernel by itself answers to a
    /// [`BlockStore::prefix_counts`] call, by name: the portable one
    /// and, on x86-64, the SSE2 one. For differential tests; nothing
    /// switches between kernels at run time.
    #[cfg(test)]
    pub(crate) fn prefix_counts_by_kernel<const MASK: u8, const N: usize>(
        &self,
        block: usize,
        needle: u8,
        offsets: [usize; N],
    ) -> Vec<(&'static str, [u32; N])> {
        let (lines, head) = (self.code_lines(block), self.span.head);
        vec![
            (
                "scalar",
                prefix_counts_scalar(lanes_of::<u8>(lines), head, MASK, needle, offsets),
            ),
            #[cfg(target_arch = "x86_64")]
            (
                "sse2",
                prefix_counts_sse2::<MASK, N>(lines, head, needle, offsets),
            ),
        ]
    }

    /// Hints the line of counter `lane`'s delta in `block`. Only a table
    /// whose delta row outgrows the block's first code line needs it;
    /// [`BlockStore::prefetch_block`] reaches that line anyway. Never
    /// faults.
    #[inline]
    pub(crate) fn prefetch_delta(&self, block: usize, lane: usize) {
        self.data.prefetch(block * self.block_words + lane / 2);
    }

    /// Hints the other lines a rank of counter `lane` in `block` reads:
    /// the superblock word its delta is relative to, and the block's whole
    /// code region, which the kernel always reads. Never faults; a no-op
    /// off x86-64 and for blocks past the store.
    #[inline]
    pub(crate) fn prefetch_block(&self, block: usize, lane: usize) {
        self.superblocks.prefetch(self.superblock_word(block, lane));
        let first = self.span.first_line(block);
        for line in first..first + self.span.lines {
            prefetch_element(self.data.lines(), line);
        }
    }

    /// Byte index of `block`'s first code lane.
    #[inline]
    fn code_base(&self, block: usize) -> usize {
        self.span.first_line(block) * LINE_BYTES + self.span.head
    }

    /// The first `count` one-byte code lanes of `block`.
    #[inline]
    pub(crate) fn byte_lanes(&self, block: usize, count: usize) -> &[u8] {
        let base = self.code_base(block);
        &self.data.bytes()[base..base + count]
    }

    /// Every row's one-byte code lane in row order, a block's run at a
    /// time.
    pub(crate) fn lane_runs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let rate = self.sample_rate.divisor;
        let runs = self.len.div_ceil(rate);
        (0..runs).map(move |block| self.byte_lanes(block, rate.min(self.len - block * rate)))
    }

    /// The one-byte code lane `offset` rows into `block`.
    #[inline]
    pub(crate) fn byte_lane(&self, block: usize, offset: usize) -> u8 {
        self.data.bytes()[self.code_base(block) + offset]
    }

    /// Mutable [`BlockStore::byte_lanes`], for flag bits the owning table
    /// keeps above its codes.
    pub(crate) fn byte_lanes_mut(&mut self, block: usize, count: usize) -> &mut [u8] {
        let base = self.code_base(block);
        &mut self.data.bytes_mut()[base..base + count]
    }

    /// Heap bytes of the absolute superblock rows, of the per-block delta
    /// rows, and of the code lanes (block padding included), in that
    /// order. Exact: they sum to the two allocations.
    pub(crate) fn heap_split(&self) -> [usize; 3] {
        let deltas = self.data.len() / self.block_words * self.lanes * 2;
        [
            self.superblocks.heap_bytes(),
            deltas,
            self.data.heap_bytes() - deltas,
        ]
    }
}

/// An all-ones word if `set`, else zero: a select written as arithmetic,
/// which compiles to a flag-to-mask sequence or a conditional move, not
/// to a branch.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn mask_if(set: bool) -> u64 {
    0u64.wrapping_sub(u64::from(set))
}

#[cfg(target_arch = "x86_64")]
impl CacheLine {
    /// The line's four 16-byte quarters, each byte lane `0xFF` where
    /// `lane & MASK` equals `needle` and zero elsewhere: four aligned
    /// 16-byte loads, an `and` each unless `MASK` keeps every bit, and
    /// four compares (SSE2, the x86-64 baseline).
    #[inline(always)]
    fn eq_quarters<const MASK: u8>(&self, needle: u8) -> [std::arch::x86_64::__m128i; 4] {
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_cmpeq_epi8, _mm_load_si128, _mm_set1_epi8,
        };
        let quarters: *const __m128i = (self as *const CacheLine).cast();
        debug_assert_eq!(
            quarters as usize % LINE_BYTES,
            0,
            "line not 64-byte aligned"
        );
        debug_assert_eq!(std::mem::size_of::<CacheLine>(), 4 * 16);
        // SAFETY: `self` is a live `CacheLine`: 64 readable bytes at a
        // 64-byte-aligned address (`repr(align(64))`, asserted above).
        // The four loads read bytes `16j .. 16j + 16` for `j < 4`, so
        // each is 16-byte aligned, as `_mm_load_si128` requires, and
        // none reaches past the line — whatever follows it in memory.
        // SSE2 is part of the x86-64 baseline this block is compiled for.
        unsafe {
            let needle = _mm_set1_epi8(needle as i8);
            [0, 1, 2, 3].map(|j| {
                debug_assert!(j < 4, "load past the line");
                let lanes = _mm_load_si128(quarters.add(j));
                if MASK == u8::MAX {
                    _mm_cmpeq_epi8(lanes, needle)
                } else {
                    _mm_cmpeq_epi8(_mm_and_si128(lanes, _mm_set1_epi8(MASK as i8)), needle)
                }
            })
        }
    }

    /// Bit `i` of the result is set iff byte lane `i`, masked, equals
    /// `needle`.
    #[inline(always)]
    fn eq_bits<const MASK: u8>(&self, needle: u8) -> u64 {
        use std::arch::x86_64::_mm_movemask_epi8;
        let [a, b, c, d] = self.eq_quarters::<MASK>(needle).map(|hits| {
            // SAFETY: a register-only SSE2 instruction; SSE2 is part of
            // the x86-64 baseline.
            u64::from(unsafe { _mm_movemask_epi8(hits) } as u16)
        });
        a | b << 16 | c << 32 | d << 48
    }

    /// How many of the 64 byte lanes, masked, equal `needle`.
    #[inline(always)]
    fn eq_count<const MASK: u8>(&self, needle: u8) -> u64 {
        use std::arch::x86_64::{
            _mm_add_epi8, _mm_cvtsi128_si64, _mm_sad_epu8, _mm_setzero_si128, _mm_sub_epi8,
            _mm_unpackhi_epi64,
        };
        let [a, b, c, d] = self.eq_quarters::<MASK>(needle);
        // SAFETY: register-only SSE2 instructions; SSE2 is part of the
        // x86-64 baseline.
        unsafe {
            // Each byte lane of the sum is minus its matches (0 to 4)
            // among the four quarters; negate, then add up the bytes.
            let minus = _mm_add_epi8(_mm_add_epi8(a, b), _mm_add_epi8(c, d));
            let zero = _mm_setzero_si128();
            let halves = _mm_sad_epu8(_mm_sub_epi8(zero, minus), zero);
            (_mm_cvtsi128_si64(halves) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(halves, halves)))
                as u64
        }
    }
}

/// The SSE2 rank kernel: for each of `offsets`, the lanes equal to
/// `needle` under `MASK` among byte lanes `head .. head + offset` of
/// `lines`. The loop visits every line but the last whatever the offsets
/// are, and nothing branches on them.
#[cfg(target_arch = "x86_64")]
#[inline]
fn prefix_counts_sse2<const MASK: u8, const N: usize>(
    lines: &[CacheLine],
    head: usize,
    needle: u8,
    offsets: [usize; N],
) -> [u32; N] {
    debug_assert!(head < LINE_BYTES, "first code lane {head} past its line");
    let ends = offsets.map(|offset| head + offset);
    debug_assert!(
        ends.iter().all(|&end| end <= lines.len() * LINE_BYTES),
        "lanes {offsets:?} at {head} past the span"
    );
    let last = lines.len() - 1;
    // Each prefix is the whole lines before its edge line plus that
    // line's low lanes; one that ends exactly on the span's end takes
    // all 64 lanes of the last line as its edge, so the last line is
    // never a whole one and a one-line span skips the loop altogether.
    let edge_lines = ends.map(|end| (end / LINE_BYTES).min(last));
    let mut whole = [0u64; N];
    for (l, line) in lines[..last].iter().enumerate() {
        let ones = line.eq_count::<MASK>(needle);
        for n in 0..N {
            whole[n] += ones & mask_if(l < edge_lines[n]);
        }
    }
    // Lanes below `head` in the first line are counter bytes, not codes:
    // drop their matches from every prefix that took that line whole.
    let counters = (1u64 << head) - 1;
    if head != 0 && last != 0 {
        let stray = u64::from((lines[0].eq_bits::<MASK>(needle) & counters).count_ones());
        for n in 0..N {
            whole[n] -= stray & mask_if(edge_lines[n] != 0);
        }
    }
    let mut counts = [0u32; N];
    for n in 0..N {
        let edge = edge_lines[n];
        let lanes = ends[n] - edge * LINE_BYTES; // 0 ..= 64
        let below = (1u64 << (lanes % LINE_BYTES)).wrapping_sub(1) | mask_if(lanes == LINE_BYTES);
        let codes = below & !(counters & mask_if(edge == 0));
        counts[n] = whole[n] as u32 + (lines[edge].eq_bits::<MASK>(needle) & codes).count_ones();
    }
    counts
}

/// The portable rank kernel: for each of `offsets`, the byte lanes equal
/// to `needle` under `mask` among `lanes[head .. head + offset]` (every
/// caller passes a constant mask, and an all-ones one folds away). Like
/// the SSE2 kernel it visits every lane and selects by comparison instead
/// of by loop bound, so it has a fixed trip count and autovectorizes. On
/// x86-64 only the tests call it, to hold the SSE2 kernel to it.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn prefix_counts_scalar<const N: usize>(
    lanes: &[u8],
    head: usize,
    mask: u8,
    needle: u8,
    offsets: [usize; N],
) -> [u32; N] {
    debug_assert!(
        offsets.iter().all(|offset| head + offset <= lanes.len()),
        "lanes {offsets:?} at {head} past the span"
    );
    let ends = offsets.map(|offset| (head + offset) as u32);
    let head = head as u32;
    let mut counts = [0u32; N];
    for (i, &lane) in (0u32..).zip(lanes) {
        let hit = u32::from(lane & mask == needle) & u32::from(i >= head);
        for n in 0..N {
            counts[n] += hit & u32::from(i < ends[n]);
        }
    }
    counts
}

/// Division by a divisor fixed at construction, as one multiply-high
/// (Lemire, Kaser & Kurz, "Faster remainder by direct computation",
/// 2019): rows split into block and offset on every rank, and the
/// checkpoint spacings are not powers of two (52, and 96k rows for the
/// k-step table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divisor {
    divisor: usize,
    /// `ceil(2^64 / divisor)`, which wraps to 0 for the divisor 1.
    magic: u64,
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    pub(crate) fn new(divisor: usize) -> Divisor {
        assert!(divisor > 0, "division by zero");
        Divisor {
            divisor,
            magic: (u64::MAX / divisor as u64).wrapping_add(1),
        }
    }

    /// `(n / divisor, n % divisor)`. Exact for every `n` that fits 32
    /// bits — the tables' row ids do, by construction.
    #[inline]
    pub(crate) fn div_rem(self, n: usize) -> (usize, usize) {
        debug_assert!(n <= u32::MAX as usize, "dividend {n} exceeds 32 bits");
        let quotient = if self.magic == 0 {
            n
        } else {
            ((u128::from(self.magic) * n as u128) >> 64) as usize
        };
        (quotient, n - quotient * self.divisor)
    }
}

/// Hints the CPU to pull the cache line holding `slice[index]` toward L1.
/// The unaligned sibling of [`AlignedWords::prefetch`], for structures
/// backed by ordinary `Vec`s (e.g. the sampled suffix array's samples).
/// A no-op off x86-64 and for out-of-range indices; never faults.
#[inline]
pub fn prefetch_element<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if index < slice.len() {
        // SAFETY: the index is in bounds of the allocation and
        // `_mm_prefetch` is a hint with no architectural effect.
        unsafe {
            let ptr = slice.as_ptr().add(index);
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, index);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_cache_line_aligned() {
        let buf = AlignedWords::from_words(&[1, 2, 3]);
        assert_eq!(buf.words().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn words_round_trip_with_zero_padding() {
        let input: Vec<u32> = (0..21).collect();
        let buf = AlignedWords::from_words(&input);
        assert_eq!(buf.len(), 21);
        assert_eq!(&buf.words()[..21], &input[..]);
        assert_eq!(buf.words().len(), 32); // padded to two lines
        assert!(buf.words()[21..].iter().all(|&w| w == 0));
    }

    #[test]
    fn heap_is_exact_whole_lines() {
        assert_eq!(AlignedWords::from_words(&[]).heap_bytes(), 0);
        assert_eq!(AlignedWords::from_words(&[0; 16]).heap_bytes(), 64);
        assert_eq!(AlignedWords::from_words(&[0; 17]).heap_bytes(), 128);
    }

    #[test]
    fn a_huge_buffer_starts_on_a_huge_page_zeroed_and_exact() {
        // 4 MiB and one ragged line past it.
        let words = (4 << 20) / 4 + 3;
        let mut buf = AlignedWords::zeroed(words);
        assert_eq!(buf.words().as_ptr() as usize % HUGE_PAGE_BYTES, 0);
        assert!(buf.words().iter().all(|&w| w == 0));
        assert_eq!(buf.len(), words);
        assert_eq!(buf.heap_bytes(), words.div_ceil(WORDS_PER_LINE) * 64);
        for (i, word) in buf.words_mut().iter_mut().enumerate() {
            *word = i as u32 ^ 0x9e37_79b9;
        }
        let copy = buf.clone();
        assert_eq!(copy.words().as_ptr() as usize % HUGE_PAGE_BYTES, 0);
        assert_ne!(copy.words().as_ptr(), buf.words().as_ptr());
        assert_eq!(copy, buf);
        assert_eq!(copy.heap_bytes(), buf.heap_bytes());
        buf.words_mut()[words - 1] ^= 1;
        assert_ne!(copy, buf);
        // One line short of 2 MiB keeps the line alignment's layout.
        assert_eq!(AlignedWords::layout((2 << 20) / 64 - 1).align(), 64);
        assert_eq!(AlignedWords::layout((2 << 20) / 64).align(), 2 << 20);
    }

    #[test]
    fn a_clone_outlives_its_original() {
        for words in [40, (2 << 20) / 4] {
            let original = AlignedWords::from_words(&vec![7; words]);
            let copy = original.clone();
            drop(original);
            assert_eq!(copy.len(), words);
            assert!(copy.words()[..words].iter().all(|&w| w == 7));
            assert!(copy.words()[words..].iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn an_empty_buffer_never_reaches_the_allocator() {
        let empty = AlignedWords::zeroed(0);
        assert_eq!(empty.ptr, std::ptr::NonNull::dangling());
        assert!(empty.is_empty() && empty.words().is_empty() && empty.bytes().is_empty());
        assert_eq!(empty.heap_bytes(), 0);
        let copy = empty.clone();
        assert_eq!(copy.ptr, std::ptr::NonNull::dangling());
        assert_eq!(copy, empty);
        assert_eq!(format!("{empty:?}"), "AlignedWords { lines: [], words: 0 }");
    }

    /// The `AnonHugePages` bytes of the mapping that holds `addr`, from
    /// `/proc/self/smaps`.
    #[cfg(target_os = "linux")]
    fn huge_bytes_of_the_mapping_at(addr: usize) -> Option<u64> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split(' ').next().and_then(|head| head.split_once('-'));
            let bounds = range.and_then(|(lo, hi)| {
                Some((
                    usize::from_str_radix(lo, 16).ok()?,
                    usize::from_str_radix(hi, 16).ok()?,
                ))
            });
            if let Some((lo, hi)) = bounds {
                inside = (lo..hi).contains(&addr);
            } else if let (true, Some(bytes)) = (inside, anon_huge_bytes(line)) {
                return Some(bytes);
            }
        }
        None
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_touched_huge_buffer_is_granted_huge_pages_where_the_kernel_gives_them() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        // The other two modes grant a hinted range its huge pages.
        if mode.is_empty() || mode.contains("[never]") {
            eprintln!("skipped: transparent huge pages are {:?} here", mode.trim());
            return;
        }
        let bytes = 16 << 20;
        // `zeroed` has touched every page by the time it returns.
        let buf = AlignedWords::zeroed(bytes / 4);
        let granted = huge_bytes_of_the_mapping_at(buf.words().as_ptr() as usize)
            .expect("the buffer's mapping is listed in /proc/self/smaps");
        assert!(
            granted >= bytes as u64 / 2,
            "THP mode {:?}, yet only {granted} of {bytes} bytes sit on huge pages",
            mode.trim()
        );
        // The process-wide figure the server reports counts them too,
        // beside whatever other tests hold right now.
        let process = huge_page_bytes().expect("/proc/self/smaps_rollup is readable");
        assert!(process >= granted, "rollup {process} < mapping {granted}");
        drop(buf);
    }

    #[test]
    fn typed_views_round_trip() {
        let mut buf = AlignedWords::zeroed(4);
        buf.words_mut()[0] = 0xdead_beef;
        buf.halves_mut()[2] = 0x1234; // first lane of word 1
        buf.halves_mut()[3] = 0x5678;
        buf.bytes_mut()[8] = 0x9a; // first lane of word 2
        assert_eq!(buf.words()[0], 0xdead_beef);
        assert_eq!(buf.halves()[2], 0x1234);
        assert_eq!(buf.halves()[3], 0x5678);
        assert_eq!(buf.bytes()[8], 0x9a);
        assert_eq!(buf.words().len(), 16);
        assert_eq!(buf.halves().len(), 32);
        assert_eq!(buf.bytes().len(), 64);
    }

    /// Bytes that hit every code of a small alphabet often, in no
    /// pattern a 16- or 64-lane period could hide behind, each with a
    /// random subset of the `flags` bits set above its code.
    fn noisy_buffer(lines: usize, flags: u8) -> AlignedWords {
        let mut buf = AlignedWords::zeroed(lines * WORDS_PER_LINE);
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for byte in buf.bytes_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *byte = (x % 5) as u8 | ((x >> 32) as u8 & flags);
        }
        buf
    }

    /// A store over `buf` as it is: blocks of `block_lines` lines whose
    /// code lanes start `header` bytes in and run for `codes` bytes.
    fn store_over(
        buf: AlignedWords,
        block_lines: usize,
        header: usize,
        codes: usize,
    ) -> BlockStore {
        let block_words = block_lines * WORDS_PER_LINE;
        BlockStore {
            data: buf,
            superblocks: AlignedWords::zeroed(0),
            lanes: 0,
            block_words,
            span: CodeSpan::new(block_words, header, codes),
            len: 0,
            sample_rate: Divisor::new(1),
        }
    }

    /// Holds both kernels to a plain scan of `lane & MASK == needle` on
    /// bytes that carry `flags` above their codes: blocks of 1..=5 lines
    /// whose code lanes start anywhere in the first line (the counter
    /// bytes before them — noise too, so some equal the needle only once
    /// masked — must never count), every pair of offsets up to the
    /// block's end, so flagged bytes fall inside and outside every
    /// counted prefix.
    fn kernels_count_like_a_plain_scan<const MASK: u8>(flags: u8) {
        for (block_lines, header) in [(1, 0), (1, 10), (1, 20), (2, 18), (4, 0), (5, 63), (3, 130)]
        {
            let span = block_lines * LINE_BYTES - header;
            let buf = noisy_buffer(3 * block_lines, flags);
            let store = store_over(buf, block_lines, header, span);
            for block in 0..3 {
                let codes = store.byte_lanes(block, span);
                for needle in [0u8, 3] {
                    let scan = |n: usize| {
                        codes[..n].iter().filter(|&&c| c & MASK == needle).count() as u32
                    };
                    for lo in (0..=span).step_by(7).chain([span]) {
                        for hi in (lo..=span).step_by(5).chain([span]) {
                            let expect = [scan(lo), scan(hi)];
                            assert_eq!(
                                store.prefix_counts::<MASK, 2>(block, needle, [lo, hi]),
                                expect
                            );
                            for (kernel, got) in
                                store.prefix_counts_by_kernel::<MASK, 2>(block, needle, [lo, hi])
                            {
                                assert_eq!(
                                    got, expect,
                                    "{kernel}: mask {MASK:#x}, flags {flags:#x}, {block_lines} \
                                     lines, header {header}, block {block}, needle {needle}, \
                                     offsets {lo}..{hi}"
                                );
                            }
                        }
                    }
                    // One offset alone, at every lane.
                    for offset in 0..=span {
                        for (kernel, got) in
                            store.prefix_counts_by_kernel::<MASK, 1>(block, needle, [offset])
                        {
                            assert_eq!(
                                got,
                                [scan(offset)],
                                "{kernel}: mask {MASK:#x}, flags {flags:#x}, offset {offset}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_counts_like_a_plain_scan() {
        // Whole-byte codes, as the k-mer table stores them; then the
        // 1-step table's bytes (bits 0-2 code, bit 7 mark) and bytes with
        // every spare bit in use, read through the code mask; and marked
        // bytes read without it, which must then match nothing they do
        // not equal.
        kernels_count_like_a_plain_scan::<{ u8::MAX }>(0);
        kernels_count_like_a_plain_scan::<0x07>(0x80);
        kernels_count_like_a_plain_scan::<0x07>(0xF8);
        kernels_count_like_a_plain_scan::<{ u8::MAX }>(0x80);
    }

    #[test]
    fn prefetching_a_span_tolerates_any_block() {
        let store = store_over(noisy_buffer(8, 0), 4, 70, 150);
        for block in [0, 1, 2, u32::MAX as usize] {
            store.prefetch_block(block, 0); // must not fault
        }
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let max = u32::MAX as usize;
        for d in [
            1,
            2,
            3,
            5,
            7,
            16,
            44,
            52,
            54,
            200,
            256,
            512,
            641,
            65_535,
            65_536,
            max - 1,
            max,
        ] {
            let divisor = Divisor::new(d);
            let mut probes = vec![0, 1, 2, max - 1, max, max / 2, max / 3];
            for multiple in [1, 2, 3, 1000, max / d] {
                let m = d.saturating_mul(multiple).min(max);
                probes.extend([m.saturating_sub(1), m, (m + 1).min(max)]);
            }
            for n in probes {
                assert_eq!(divisor.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
        // And densely where the tables live: every row of a small text.
        for d in [1, 5, 44, 52, 54, 200] {
            let divisor = Divisor::new(d);
            for n in 0..20_000 {
                assert_eq!(divisor.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inside a line-rounded block")]
    fn a_span_past_its_block_is_refused() {
        let _ = CodeSpan::new(WORDS_PER_LINE, 20, 45);
    }

    #[test]
    fn prefetch_tolerates_any_index() {
        let buf = AlignedWords::from_words(&[7; 40]);
        buf.prefetch(0);
        buf.prefetch(39);
        buf.prefetch(usize::MAX); // out of range: must not fault
    }

    #[test]
    fn slice_prefetch_tolerates_any_index() {
        let plain: Vec<u64> = vec![3; 10];
        prefetch_element(&plain, 0);
        prefetch_element(&plain, 9);
        prefetch_element(&plain, usize::MAX); // out of range: must not fault
        prefetch_element::<u32>(&[], 0); // empty: must not fault
    }
}
