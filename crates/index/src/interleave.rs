//! Cache-line-aligned, huge-page-backed storage for interleaved rank tables.
//!
//! The flat occurrence tables of earlier revisions kept symbol codes and
//! rank checkpoints in two separate allocations, so every `rank` paid two
//! distant memory round-trips — exactly the DRAM behaviour the paper
//! measures as the FM-index bottleneck (§II-C). The interleaved layout
//! of [`crate::kocc::KmerOccTable`] instead packs each checkpoint row
//! together with the codes it covers into one *block*, sized to a whole
//! number of 64-byte cache lines and allocated line-aligned, so one
//! `rank` touches one contiguous region; [`crate::occ::OccTable`] goes
//! further and fits a checkpoint and its 128 rows in one line. This
//! module holds the buffer under both, a `u32` word buffer whose first
//! word sits on a cache-line boundary, and for the k-step table: the rank
//! kernel that counts a code among a half-block's first lanes
//! (`BlockStore::prefix_counts`); the software-prefetch hints the batch
//! scheduler uses to overlap block fetches across queries; and
//! `BlockStore`, the checkpoint format itself — one checkpoint at each
//! block's middle row, `u16` deltas off sparse `u32` superblock rows —
//! built, read, hinted and sized in one place. A half-block is 512 rows
//! at every step width ([`crate::layout::K_OCC_SAMPLE_RATE`]), so a row
//! splits into half-block and offset by a shift and a mask.
//!
//! # The rank kernel
//!
//! A rank is a checkpoint plus or minus the number of matching code
//! lanes between it and the row. Each block keeps its checkpoint at its
//! middle row, between the code lanes of its two halves, so a rank scans
//! only the half its row lies in: the upper half's lanes from the middle
//! up to the row are added, the lower half's from the row up to the
//! middle subtracted. The lower half keeps its lanes in reverse row
//! order, running down from the middle, so in either half those lanes
//! are a prefix of the half's. (Counting the lower half forward and
//! taking the part before the row from the whole half cost one more
//! prefix a rank: a cache-resident `rank_pair` took 60–79 ns against
//! 48–65 ns reversed, in traced `count_reads` runs, and 46–54 ns at
//! 384-row blocks scanned forward.)
//!
//! Which lanes a rank counts differs from query to query, so a scan that
//! stops at the row — or picks its half by a branch — ends on a branch
//! the predictor cannot learn, and on a cache-resident table those
//! mispredictions cost more than the scan. The kernel here has no such
//! branch: the half's first line, the prefix's length and the lower
//! half's sign are arithmetic on the half's parity. Its loop runs once
//! per cache line of a half's code region — eight, at every step width —
//! counting the line's matches with four aligned 16-byte compares and
//! adding them to each prefix that covers the whole line, selected by an
//! arithmetic mask; the one line a prefix ends in is then compared once
//! more into a 64-bit match mask and cut at the offset. Every half fills
//! eight whole lines and the delta row starts on a line of its own, so a
//! prefix always starts at its first line's first lane and no lane of a
//! line the kernel reads belongs to anything else (at k = 4 a block is
//! 8 + 8 + 8 lines, at k = 1 8 + 1 + 8). Every code lane is one byte: the
//! k-mer table's widest codes, at k = 4, are 256 values. Several offsets
//! share the pass, so both ends of an interval in one half come out of
//! one walk. The price is that the half's whole code region is read every
//! time, which is why the prefetch hints cover all of it
//! (`BlockStore::prefetch_half`).
//! Reading only up to the furthest offset's line — re-reading that line
//! in place of the later ones, to keep the trip count — measured 2.5 %
//! slower on the 20 Mbp index than reading them all. Reading fewer lines
//! a rank buys no speed either: 384-row blocks ranked from their middle,
//! five lines a rank instead of the eight a forward scan of the same
//! block read, were no faster on `count_reads`, so the centered layout
//! spends the halved scan on more rows a block instead (see
//! [`crate::layout::K_OCC_SAMPLE_RATE`]).
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

use crate::layout::{IndexError, K_OCC_SAMPLE_RATE, SUPERBLOCK_RATE};

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
    #[inline]
    pub(crate) fn lanes<T: Lane>(&self) -> &[T] {
        lanes_of(self.lines())
    }

    /// Mutable [`AlignedWords::lanes`], for builders.
    pub(crate) fn lanes_mut<T: Lane>(&mut self) -> &mut [T] {
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

/// Rows per half-block: half the k-step checkpoint spacing.
const HALF: usize = K_OCC_SAMPLE_RATE / 2;

/// Cache lines a half-block's code lanes fill: what a scan reads.
const HALF_LINES: usize = HALF / LINE_BYTES;

const _: () = assert!(HALF % LINE_BYTES == 0);

/// Where a table's blocks keep their two halves of code lanes, in whole
/// cache lines: the lower half starts the block, the delta row starts on
/// the line after it, and the upper half on the line after the delta
/// row, so each half's first code lane is its first line's first byte.
/// Fixed at construction by the delta row's width: it is where the rank
/// kernel and the prefetcher read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CodeSpan {
    /// Cache lines per block.
    block_lines: usize,
    /// First line of the upper half's code lanes within a block.
    upper_line: usize,
}

impl CodeSpan {
    /// The spans of blocks laid out as [`HALF_LINES`] lines of code
    /// lanes, `delta_bytes` of counters rounded up to whole lines, and
    /// [`HALF_LINES`] more lines of code lanes.
    fn new(delta_bytes: usize) -> CodeSpan {
        let upper_line = HALF_LINES + delta_bytes.div_ceil(LINE_BYTES);
        CodeSpan {
            block_lines: upper_line + HALF_LINES,
            upper_line,
        }
    }

    /// Index of the first code line of half-block `half`: block
    /// `half / 2`, its upper half if `half` is odd. Arithmetic, not a
    /// branch: which half a rank reads is as random as its row.
    #[inline]
    fn first_line(self, half: usize) -> usize {
        (half >> 1) * self.block_lines + (half & 1) * self.upper_line
    }
}

/// The checkpoint format of the k-step occurrence table.
///
/// Rows are grouped in blocks of [`K_OCC_SAMPLE_RATE`]; block `b` keeps
/// one checkpoint row, the counts of the rows before its middle row
/// `b * 1024 + 512`, between the code lanes of its two halves, in bytes:
///
/// ```text
/// [ 512 lower code lanes, last row first | lanes u16 deltas | pad | 512 upper code lanes ]
/// ```
///
/// each half eight whole 64-byte cache lines and the delta row padded to
/// whole lines, so every block and every half starts on a line. A rank in
/// the upper half adds the matches from the middle up to its row; one in
/// the lower half subtracts those from its row up to the middle, the
/// leading lanes of its half too, since they run down from the middle. A
/// delta is relative to the absolute `u32` row kept, every
/// [`SUPERBLOCK_RATE`] blocks, behind the last block in the same buffer.
/// The owning table writes the lanes in, each the number of the counter
/// it bumps, has the checkpoints counted off them, and reads them back
/// through the kernel.
///
/// A text that ends in a block's lower half leaves the rest of that half
/// zero lanes. The block's checkpoint counts them as the code 0 they
/// read as, so that a scan of the half, which counts them too, takes
/// them off again; [`BlockStore::zeroed`] refuses a length whose padded
/// counts could outgrow `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockStore {
    /// The blocks, then the absolute superblock rows, one `lanes`-word
    /// group per [`SUPERBLOCK_RATE`] blocks: one buffer, so the rows sit
    /// on the blocks' huge pages.
    data: AlignedWords,
    /// Counters per checkpoint row.
    lanes: usize,
    /// First word of the superblock rows: the blocks' words.
    superblocks: usize,
    /// Where a block's two halves of code lanes lie.
    span: CodeSpan,
    /// Rows covered.
    len: usize,
}

impl BlockStore {
    /// A store of `len` rows, every code lane and checkpoint zero: the
    /// owner writes the lanes ([`BlockStore::set_lanes`]) and then counts
    /// the checkpoints off them ([`BlockStore::count_checkpoints`]).
    ///
    /// # Errors
    ///
    /// [`IndexError::IndexTooLarge`] if `len` rows, with the last
    /// block's half-block of pad lanes, outgrow `u32` counters.
    pub(crate) fn zeroed(lanes: usize, len: usize) -> Result<BlockStore, IndexError> {
        IndexError::check_rows(len.saturating_add(HALF))
            .map_err(|_| IndexError::IndexTooLarge { rows: len })?;
        let blocks = len.div_ceil(K_OCC_SAMPLE_RATE);
        let span = CodeSpan::new(lanes * 2);
        let superblocks = blocks * span.block_lines * WORDS_PER_LINE;
        let rows = blocks.div_ceil(SUPERBLOCK_RATE) * lanes;
        Ok(BlockStore {
            data: AlignedWords::zeroed(superblocks + rows),
            lanes,
            superblocks,
            span,
            len,
        })
    }

    /// Sets every block's checkpoint from the lanes already written, in
    /// one pass over the half-blocks: the counts of the rows before each
    /// block's middle — with the pad lanes of a lower half the text ends
    /// in counted as code 0 — as the lower half is passed. Returns the
    /// counters' totals over all rows, pads not included.
    ///
    /// # Panics
    ///
    /// Panics if a lane is `lanes` or more.
    pub(crate) fn count_checkpoints(&mut self) -> Vec<u32> {
        let mut running = vec![0u32; self.lanes];
        for half in 0..self.len.div_ceil(HALF) {
            let run = self.run(half);
            for &lane in run {
                running[usize::from(lane)] += 1;
            }
            if half % 2 == 0 {
                let pads = (HALF - run.len()) as u32;
                running[0] += pads;
                self.set_checkpoints(half / 2, &running);
                running[0] -= pads;
            }
        }
        running
    }

    /// Writes `codes` into the lanes of rows `first .. first + codes.len()`,
    /// a half-block's run at a time. `first` starts a half-block, so each
    /// run fills a whole half but the last, which may end short.
    ///
    /// # Panics
    ///
    /// Panics if `first` does not start a half-block or the rows reach
    /// past the store.
    pub(crate) fn set_lanes(&mut self, first: usize, codes: &[u8]) {
        assert!(
            first % HALF == 0,
            "lanes from row {first}, inside a half-block"
        );
        assert!(first + codes.len() <= self.len, "lanes past the store");
        for (half, run) in (first / HALF..).zip(codes.chunks(HALF)) {
            let base = self.code_base(half);
            if half % 2 == 0 {
                // The lower half's lanes run down from the middle.
                let lanes = &mut self.data.bytes_mut()[base + HALF - run.len()..base + HALF];
                lanes.copy_from_slice(run);
                lanes.reverse();
            } else {
                self.data.bytes_mut()[base..base + run.len()].copy_from_slice(run);
            }
        }
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

    /// The half-block holding `row` — block `half / 2`, its upper half if
    /// `half` is odd — and the row's offset into it.
    #[inline]
    pub(crate) fn split(&self, row: usize) -> (usize, usize) {
        (row / HALF, row % HALF)
    }

    /// How many leading lanes of half-block `half` hold the rows between
    /// its block's middle and the row `offset` rows into it: `offset` in
    /// an upper half, the half's rows less `offset` in a lower one, whose
    /// lanes run down from the middle. Arithmetic, not a branch.
    #[inline]
    pub(crate) fn reach(&self, half: usize, offset: usize) -> usize {
        let lower = (half & 1) ^ 1;
        let flip = HALF.wrapping_sub(2 * offset);
        offset.wrapping_add(lower * flip)
    }

    /// Index of the absolute superblock counter `block`'s checkpoint is
    /// relative to: the superblock rows follow the last block.
    #[inline]
    fn superblock_word(&self, block: usize, lane: usize) -> usize {
        self.superblocks + block / SUPERBLOCK_RATE * self.lanes + lane
    }

    /// Index of counter `lane`'s `u16` delta in `block`: the delta row
    /// starts on the line after the lower half's code lanes.
    #[inline]
    fn delta_lane(&self, block: usize, lane: usize) -> usize {
        (block * self.span.block_lines + HALF_LINES) * (LINE_BYTES / 2) + lane
    }

    /// The absolute count of counter `lane` at `block`'s checkpoint, the
    /// rows before its middle: superblock word plus delta.
    #[inline]
    pub(crate) fn checkpoint(&self, block: usize, lane: usize) -> u32 {
        self.data.words()[self.superblock_word(block, lane)]
            + u32::from(self.data.halves()[self.delta_lane(block, lane)])
    }

    /// Sets the checkpoints of `block` to the absolute `counts`: the
    /// superblock row if `block` starts one, and each counter's delta off
    /// it. Blocks are set in ascending order, so a superblock row is in
    /// place before any delta is taken from it.
    fn set_checkpoints(&mut self, block: usize, counts: &[u32]) {
        let row = self.superblock_word(block, 0);
        if block % SUPERBLOCK_RATE == 0 {
            self.data.words_mut()[row..row + counts.len()].copy_from_slice(counts);
        }
        let at = self.delta_lane(block, 0);
        for (lane, &now) in counts.iter().enumerate() {
            let delta = now - self.data.words()[row + lane];
            self.data.halves_mut()[at + lane] =
                u16::try_from(delta).expect("the span rule bounds every delta");
        }
    }

    /// The cache lines a scan of half-block `half` reads.
    ///
    /// # Panics
    ///
    /// Panics if `half` lies past the store.
    #[inline]
    fn code_lines(&self, half: usize) -> &[CacheLine] {
        let first = self.span.first_line(half);
        &self.data.lines()[first..first + HALF_LINES]
    }

    /// For each of `offsets`, the occurrences of `needle` among that many
    /// leading one-byte code lanes of half-block `half` (each offset at
    /// most the lanes a half holds), all in one pass. The kernel of every
    /// rank over byte codes; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `half` lies past the store.
    #[inline]
    pub(crate) fn prefix_counts<const N: usize>(
        &self,
        half: usize,
        needle: u8,
        offsets: [usize; N],
    ) -> [u32; N] {
        let lines = self.code_lines(half);
        #[cfg(target_arch = "x86_64")]
        return prefix_counts_sse2(lines, needle, offsets);
        #[cfg(not(target_arch = "x86_64"))]
        return prefix_counts_scalar(lanes_of::<u8>(lines), needle, offsets);
    }

    /// What each byte kernel by itself answers to a
    /// [`BlockStore::prefix_counts`] call, by name: the portable one
    /// and, on x86-64, the SSE2 one. For differential tests; nothing
    /// switches between kernels at run time.
    #[cfg(test)]
    pub(crate) fn prefix_counts_by_kernel<const N: usize>(
        &self,
        half: usize,
        needle: u8,
        offsets: [usize; N],
    ) -> Vec<(&'static str, [u32; N])> {
        let lines = self.code_lines(half);
        vec![
            (
                "scalar",
                prefix_counts_scalar(lanes_of::<u8>(lines), needle, offsets),
            ),
            #[cfg(target_arch = "x86_64")]
            ("sse2", prefix_counts_sse2(lines, needle, offsets)),
        ]
    }

    /// Hints the line of counter `lane`'s delta in `block`. Never faults.
    #[inline]
    pub(crate) fn prefetch_delta(&self, block: usize, lane: usize) {
        self.data.prefetch(self.delta_lane(block, lane) / 2);
    }

    /// Hints the other lines a rank of counter `lane` in half-block
    /// `half` reads: the superblock word its block's delta is relative
    /// to, and the half's whole code region, which the kernel always
    /// reads. Never faults; a no-op off x86-64 and for half-blocks past
    /// the store.
    #[inline]
    pub(crate) fn prefetch_half(&self, half: usize, lane: usize) {
        self.data.prefetch(self.superblock_word(half / 2, lane));
        let first = self.span.first_line(half);
        for line in first..first + HALF_LINES {
            prefetch_element(self.data.lines(), line);
        }
    }

    /// Byte index of half-block `half`'s first code lane.
    #[inline]
    fn code_base(&self, half: usize) -> usize {
        self.span.first_line(half) * LINE_BYTES
    }

    /// The lanes of half-block `half`'s rows (fewer than a half's in
    /// the last one), as stored: in reverse row order in a lower half.
    ///
    /// # Panics
    ///
    /// Panics if `half` lies past the store's rows.
    #[inline]
    fn run(&self, half: usize) -> &[u8] {
        let rows = HALF.min(self.len - half * HALF);
        let mut start = self.code_base(half);
        if half % 2 == 0 {
            // Behind the pad lanes of a lower half the text ends in.
            start += HALF - rows;
        }
        &self.data.bytes()[start..start + rows]
    }

    /// Hands `f` every row's one-byte code lane in row order, a
    /// half-block's run at a time — a lower half's turned around in a
    /// buffer on the stack, so nothing is allocated — and stops at the
    /// first error `f` returns.
    pub(crate) fn try_for_each_run<E>(
        &self,
        mut f: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut turned = [0; HALF];
        for half in 0..self.len.div_ceil(HALF) {
            let run = self.run(half);
            if half % 2 == 0 {
                let turned = &mut turned[..run.len()];
                turned.copy_from_slice(run);
                turned.reverse();
                f(turned)?;
            } else {
                f(run)?;
            }
        }
        Ok(())
    }

    /// The one-byte code lane of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies past the store.
    #[inline]
    pub(crate) fn lane(&self, row: usize) -> u8 {
        assert!(row < self.len, "lane of row {row} past the store");
        let (half, offset) = self.split(row);
        let lane = if half % 2 == 0 {
            HALF - 1 - offset
        } else {
            offset
        };
        self.data.bytes()[self.code_base(half) + lane]
    }

    /// Heap bytes of the absolute superblock rows, of the per-block delta
    /// rows, and of the code lanes (block padding included), in that
    /// order. Exact: they sum to the allocation.
    pub(crate) fn heap_split(&self) -> [usize; 3] {
        let block_bytes = self.superblocks * 4;
        let deltas = self.len.div_ceil(K_OCC_SAMPLE_RATE) * self.lanes * 2;
        [
            self.data.heap_bytes() - block_bytes,
            deltas,
            block_bytes - deltas,
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
    /// The line's four 16-byte quarters, each byte lane `0xFF` where it
    /// equals `needle` and zero elsewhere: four aligned 16-byte loads and
    /// four compares (SSE2, the x86-64 baseline).
    #[inline(always)]
    fn eq_quarters(&self, needle: u8) -> [std::arch::x86_64::__m128i; 4] {
        use std::arch::x86_64::{__m128i, _mm_cmpeq_epi8, _mm_load_si128, _mm_set1_epi8};
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
                _mm_cmpeq_epi8(_mm_load_si128(quarters.add(j)), needle)
            })
        }
    }

    /// Bit `i` of the result is set iff byte lane `i` equals `needle`.
    #[inline(always)]
    fn eq_bits(&self, needle: u8) -> u64 {
        use std::arch::x86_64::_mm_movemask_epi8;
        let [a, b, c, d] = self.eq_quarters(needle).map(|hits| {
            // SAFETY: a register-only SSE2 instruction; SSE2 is part of
            // the x86-64 baseline.
            u64::from(unsafe { _mm_movemask_epi8(hits) } as u16)
        });
        a | b << 16 | c << 32 | d << 48
    }

    /// How many of the 64 byte lanes equal `needle`.
    #[inline(always)]
    fn eq_count(&self, needle: u8) -> u64 {
        use std::arch::x86_64::{
            _mm_add_epi8, _mm_cvtsi128_si64, _mm_sad_epu8, _mm_setzero_si128, _mm_sub_epi8,
            _mm_unpackhi_epi64,
        };
        let [a, b, c, d] = self.eq_quarters(needle);
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
/// `needle` among the first `offset` byte lanes of `lines`. The loop
/// visits every line but the last whatever the offsets are, and nothing
/// branches on them.
#[cfg(target_arch = "x86_64")]
#[inline]
fn prefix_counts_sse2<const N: usize>(
    lines: &[CacheLine],
    needle: u8,
    offsets: [usize; N],
) -> [u32; N] {
    debug_assert!(
        offsets.iter().all(|&end| end <= lines.len() * LINE_BYTES),
        "lanes {offsets:?} past the span"
    );
    let last = lines.len() - 1;
    // Each prefix is the whole lines before its edge line plus that
    // line's low lanes; one that ends exactly on the span's end takes
    // all 64 lanes of the last line as its edge, so the last line is
    // never a whole one and a one-line span skips the loop altogether.
    let edge_lines = offsets.map(|end| (end / LINE_BYTES).min(last));
    let mut whole = [0u64; N];
    for (l, line) in lines[..last].iter().enumerate() {
        let ones = line.eq_count(needle);
        for n in 0..N {
            whole[n] += ones & mask_if(l < edge_lines[n]);
        }
    }
    let mut counts = [0u32; N];
    for n in 0..N {
        let edge = edge_lines[n];
        let lanes = offsets[n] - edge * LINE_BYTES; // 0 ..= 64
        let below = (1u64 << (lanes % LINE_BYTES)).wrapping_sub(1) | mask_if(lanes == LINE_BYTES);
        counts[n] = whole[n] as u32 + (lines[edge].eq_bits(needle) & below).count_ones();
    }
    counts
}

/// The portable rank kernel: for each of `offsets`, the byte lanes equal
/// to `needle` among `lanes[..offset]`. Like the SSE2 kernel it visits
/// every lane and selects by comparison instead of by loop bound, so it
/// has a fixed trip count and autovectorizes. On x86-64 only the tests
/// call it, to hold the SSE2 kernel to it.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn prefix_counts_scalar<const N: usize>(lanes: &[u8], needle: u8, offsets: [usize; N]) -> [u32; N] {
    debug_assert!(
        offsets.iter().all(|&end| end <= lanes.len()),
        "lanes {offsets:?} past the span"
    );
    let ends = offsets.map(|end| end as u32);
    let mut counts = [0u32; N];
    for (i, &lane) in (0u32..).zip(lanes) {
        let hit = u32::from(lane == needle);
        for n in 0..N {
            counts[n] += hit & u32::from(i < ends[n]);
        }
    }
    counts
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

    /// The counters a checkpoint row holds at each step width: `4^k`,
    /// two delta bytes each.
    fn lanes_of_every_width() -> impl Iterator<Item = usize> {
        (1..=crate::kstep::MAX_STEP).map(|k| 1 << (2 * k))
    }

    /// A store of three blocks of `lanes` counters a checkpoint row,
    /// every byte of it noise that hits every code of a small alphabet
    /// often, in no pattern a 16- or 64-lane period could hide behind,
    /// each with a random subset of the `flags` bits set above its code.
    fn noisy_store(lanes: usize, flags: u8) -> BlockStore {
        let mut store = BlockStore::zeroed(lanes, 3 * K_OCC_SAMPLE_RATE).unwrap();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for byte in store.data.bytes_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *byte = (x % 5) as u8 | ((x >> 32) as u8 & flags);
        }
        store
    }

    /// Holds both kernels to a plain scan of `lane == needle` on bytes
    /// that carry `flags` above small codes: both halves of blocks behind
    /// the delta row of every step width (the noise in the delta row must
    /// never count), every pair of offsets up to the half's end, so
    /// flagged bytes fall inside and outside every counted prefix.
    fn kernels_count_like_a_plain_scan(flags: u8) {
        for lanes in lanes_of_every_width() {
            let store = noisy_store(lanes, flags);
            for h in 0..6 {
                let base = store.code_base(h);
                let codes = &store.data.bytes()[base..base + HALF];
                for needle in [0u8, 3] {
                    let scan =
                        |n: usize| codes[..n].iter().filter(|&&c| c == needle).count() as u32;
                    for lo in (0..=HALF).step_by(7).chain([HALF]) {
                        for hi in (lo..=HALF).step_by(5).chain([HALF]) {
                            let expect = [scan(lo), scan(hi)];
                            assert_eq!(store.prefix_counts(h, needle, [lo, hi]), expect);
                            for (kernel, got) in store.prefix_counts_by_kernel(h, needle, [lo, hi])
                            {
                                assert_eq!(
                                    got, expect,
                                    "{kernel}: flags {flags:#x}, lanes {lanes}, half-block \
                                     {h}, needle {needle}, offsets {lo}..{hi}"
                                );
                            }
                        }
                    }
                    // One offset alone, at every lane.
                    for offset in 0..=HALF {
                        for (kernel, got) in store.prefix_counts_by_kernel(h, needle, [offset]) {
                            assert_eq!(
                                got,
                                [scan(offset)],
                                "{kernel}: flags {flags:#x}, offset {offset}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_counts_like_a_plain_scan() {
        // Small codes alone, then codes with random high bits, which must
        // match nothing they do not equal.
        kernels_count_like_a_plain_scan(0);
        kernels_count_like_a_plain_scan(0xF8);
    }

    #[test]
    fn prefetching_a_span_tolerates_any_block() {
        let store = noisy_store(4, 0);
        for half in [0, 1, 2, 3, u32::MAX as usize] {
            store.prefetch_half(half, 0); // must not fault
            store.prefetch_delta(half / 2, 0);
        }
    }

    #[test]
    fn a_length_whose_padded_counts_outgrow_u32_is_refused() {
        // A text that ends in a block's lower half leaves up to half a
        // block less one of pad lanes, which that block's checkpoint
        // counts: the largest length a store takes is the one whose
        // padded count still passes `IndexError::check_rows`. Checked on
        // the arithmetic alone; a refused length allocates nothing.
        let largest = u32::MAX as usize - 1 - HALF;
        assert!(IndexError::check_rows(largest + HALF).is_ok());
        assert!(IndexError::check_rows(largest + HALF + 1).is_err());
        for lanes in lanes_of_every_width() {
            for len in [
                largest + 1,
                u32::MAX as usize - 1,
                u32::MAX as usize,
                usize::MAX,
            ] {
                assert_eq!(
                    BlockStore::zeroed(lanes, len).unwrap_err(),
                    IndexError::IndexTooLarge { rows: len },
                    "lanes {lanes}, length {len}"
                );
            }
        }
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
