//! The indexed text itself, two bits a base.
//!
//! A backward search learns one thing a step: which rows are preceded by
//! the next k pattern symbols. Once an interval is down to a row or two
//! that is a poor use of a refinement's six to twelve cache lines — the
//! text answers the same question for *all* the symbols still unmatched
//! in one line, as soon as the row's text position is known. A
//! [`KStepFmIndex`](crate::KStepFmIndex) therefore keeps the text it was
//! built over: a quarter of a byte a base, paid for by the k-mer table's
//! wider blocks ([`crate::layout::K_OCC_SAMPLE_RATE`]).
//!
//! Base `i` sits in bits `2 (i mod 16)` of `u32` word `i / 16` — two
//! adjacent words read as one little-endian `u64` hold 32 consecutive
//! bases — and the sentinel is stored as code 0: no comparison ever
//! covers it ([`PackedText::ends_with`] refuses an `end` past the last
//! base). One spare 64-bit word follows the text, so a 64-bit window can
//! be read at any base offset without a bounds case. The words live in an
//! [`AlignedWords`], so a text of 2 MiB or more takes the same huge-page
//! path as the occurrence tables.

use std::cmp::Ordering;

use exma_genome::{Base, Symbol};

use crate::interleave::AlignedWords;

/// Bases per 64-bit window.
const WINDOW_BASES: usize = 32;
/// Bases per `u32` word.
pub(crate) const WORD_BASES: usize = 16;

/// A sentinel-terminated text packed two bits a base; see the module
/// docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PackedText {
    /// `2 (⌈len / 32⌉ + 1)` words: the text, zero-padded to a whole
    /// window, and the spare window.
    words: AlignedWords,
    /// Symbols of the text, sentinel included.
    len: usize,
}

/// `u32` words of the packed image of a `len`-symbol text: whole 64-bit
/// windows, without the spare one.
fn image_words(len: usize) -> usize {
    2 * len.div_ceil(WINDOW_BASES)
}

/// Up to 32 bases packed two bits each, the first in the low bits. Eight
/// one-byte codes are read as one `u64` and squeezed together in three
/// shift-and-mask rounds: pairs of bytes into nibbles, pairs of nibbles
/// into bytes, the two bytes of each half side by side.
#[inline]
fn pack(bases: &[Base]) -> u64 {
    debug_assert!(bases.len() <= WINDOW_BASES);
    let squeeze = |codes: [u8; 8]| {
        let mut x = u64::from_le_bytes(codes);
        x = (x | x >> 6) & 0x000F_000F_000F_000F;
        x = (x | x >> 12) & 0x0000_00FF_0000_00FF;
        (x | x >> 24) & 0xFFFF
    };
    let mut packed = 0u64;
    let mut eights = bases.chunks_exact(8);
    let mut shift = 0;
    for eight in &mut eights {
        let eight: &[Base; 8] = eight.try_into().expect("8 bases");
        packed |= squeeze(eight.map(Base::code)) << shift;
        shift += 16;
    }
    let rest = eights.remainder();
    if !rest.is_empty() {
        let mut codes = [0u8; 8];
        for (code, base) in codes.iter_mut().zip(rest) {
            *code = base.code();
        }
        packed |= squeeze(codes) << shift;
    }
    packed
}

impl PackedText {
    /// Packs a sentinel-terminated text (the sentinel as code 0).
    pub(crate) fn from_symbols(text: &[Symbol]) -> PackedText {
        let mut words = AlignedWords::zeroed(image_words(text.len()) + 2);
        for (word, chunk) in words.words_mut().iter_mut().zip(text.chunks(WORD_BASES)) {
            for (i, symbol) in chunk.iter().enumerate() {
                let code = symbol.base().map_or(0, Base::code);
                *word |= u32::from(code) << (2 * i);
            }
        }
        PackedText {
            words,
            len: text.len(),
        }
    }

    /// The all-zero buffer a `len`-symbol text is read into from its
    /// `image_bytes`-byte snapshot image (see [`PackedText::image`]): the
    /// image's words lead, the spare window follows. `None` unless the
    /// image is exactly as long as such a text packs to.
    pub(crate) fn image_buffer(len: usize, image_bytes: usize) -> Option<AlignedWords> {
        (len != 0 && image_bytes == 4 * image_words(len))
            .then(|| AlignedWords::zeroed(image_words(len) + 2))
    }

    /// The text of `len` symbols whose image has been read into `words`,
    /// a buffer from [`PackedText::image_buffer`]; `None` unless every bit
    /// from the sentinel's on is zero.
    pub(crate) fn from_image(words: AlignedWords, len: usize) -> Option<PackedText> {
        let text = PackedText { words, len };
        // The sentinel and the padding behind it are stored as zeros, and
        // so is the spare window: the 32 bases from the sentinel on cover
        // all of the former and nothing else.
        (text.window(len - 1) == 0).then_some(text)
    }

    /// The words a snapshot stores: the packed text in whole 64-bit
    /// windows, without the spare one.
    pub(crate) fn image(&self) -> &[u32] {
        &self.words.words()[..image_words(self.len)]
    }

    /// Symbols of the text, sentinel included.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The 2-bit code at text position `i` (0 for the sentinel).
    pub(crate) fn code(&self, i: usize) -> u8 {
        assert!(i < self.len, "text position {i} out of range");
        (self.words.words()[i / WORD_BASES] >> (2 * (i % WORD_BASES))) as u8 & 3
    }

    /// The symbol at text position `i`.
    pub(crate) fn symbol(&self, i: usize) -> Symbol {
        if i + 1 == self.len {
            Symbol::Sentinel
        } else {
            Symbol::Base(Base::from_code(self.code(i)))
        }
    }

    /// The lexicographic order of the suffixes starting at `a` and `b`,
    /// compared 32 bases a step. Past their common bases the shorter one,
    /// the later, reaches the sentinel first, and is the smaller.
    pub(crate) fn cmp_suffixes(&self, a: usize, b: usize) -> Ordering {
        let common = self.len - 1 - a.max(b);
        for at in (0..common).step_by(WINDOW_BASES) {
            let bases = (common - at).min(WINDOW_BASES);
            let (x, y) = (self.window(a + at), self.window(b + at));
            let differing = (x ^ y) & (u64::MAX >> (64 - 2 * bases));
            if differing != 0 {
                let shift = differing.trailing_zeros() & !1;
                return (x >> shift & 3).cmp(&(y >> shift & 3));
            }
        }
        b.cmp(&a)
    }

    /// Occurrences of each base in the text, counted a window at a time.
    pub(crate) fn base_counts(&self) -> [u64; 4] {
        const LOW_BITS: u64 = 0x5555_5555_5555_5555;
        let mut counts = [0u64; 4];
        for pair in self.image().chunks_exact(2) {
            let w = u64::from(pair[0]) | u64::from(pair[1]) << 32;
            let (lo, hi) = (w & LOW_BITS, (w >> 1) & LOW_BITS);
            counts[1] += u64::from((lo & !hi).count_ones());
            counts[2] += u64::from((hi & !lo).count_ones());
            counts[3] += u64::from((lo & hi).count_ones());
        }
        // Everything else is code 0 — less the sentinel and the padding,
        // which are stored as 0 and are not bases.
        counts[0] = (self.len - 1) as u64 - counts[1] - counts[2] - counts[3];
        counts
    }

    /// The 32 bases from position `at` on, the first in the low bits: two
    /// adjacent windows shifted into one.
    #[inline]
    fn window(&self, at: usize) -> u64 {
        let words = self.words.words();
        let word64 = |j: usize| u64::from(words[2 * j]) | u64::from(words[2 * j + 1]) << 32;
        let (j, shift) = (at / WINDOW_BASES, 2 * (at % WINDOW_BASES));
        // `<< 1 << (63 - shift)`: a shift by 64 when `shift` is 0 would
        // overflow; this one leaves 0, which is what is wanted.
        word64(j) >> shift | word64(j + 1) << 1 << (63 - shift)
    }

    /// `true` iff `prefix` is what the text holds right before position
    /// `end`: `text[end - prefix.len()..end] == prefix`. `false` when
    /// that range would start before the text or reach the sentinel; the
    /// empty prefix ends everywhere. Compares 32 bases a step.
    #[inline]
    pub(crate) fn ends_with(&self, end: usize, prefix: &[Base]) -> bool {
        if end < prefix.len() || end >= self.len {
            return false;
        }
        let mut at = end - prefix.len();
        for chunk in prefix.chunks(WINDOW_BASES) {
            let mut differing = self.window(at) ^ pack(chunk);
            if chunk.len() < WINDOW_BASES {
                differing &= (1u64 << (2 * chunk.len())) - 1;
            }
            if differing != 0 {
                return false;
            }
            at += chunk.len();
        }
        true
    }

    /// Hints the CPU to pull the line holding text position `pos` toward
    /// L1. Never faults; a no-op off x86-64 and for a `pos` past the text.
    #[inline]
    pub(crate) fn prefetch(&self, pos: usize) {
        self.words.prefetch(pos / WORD_BASES);
    }

    /// Heap bytes of the packed words (whole cache lines).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::SeededRng;

    fn noise(len: usize, seed: u64) -> Vec<Base> {
        let mut rng = SeededRng::new(seed);
        (0..len).map(|_| rng.base()).collect()
    }

    fn text_of(bases: &[Base]) -> Vec<Symbol> {
        let mut text: Vec<Symbol> = bases.iter().map(|&b| Symbol::Base(b)).collect();
        text.push(Symbol::Sentinel);
        text
    }

    /// The definition, a base at a time.
    fn ends_with_by_definition(bases: &[Base], end: usize, prefix: &[Base]) -> bool {
        end >= prefix.len() && end <= bases.len() && bases[end - prefix.len()..end] == *prefix
    }

    #[test]
    fn suffixes_compare_as_their_symbols_do() {
        let period = [Base::C, Base::A, Base::G];
        let periodic: Vec<Base> = period.into_iter().cycle().take(150).collect();
        for bases in [
            noise(150, 5),
            periodic,
            vec![Base::A; 150],
            vec![Base::T; 65],
        ] {
            let symbols = text_of(&bases);
            let text = PackedText::from_symbols(&symbols);
            for a in 0..symbols.len() {
                for b in 0..symbols.len() {
                    let expect = symbols[a..].cmp(&symbols[b..]);
                    assert_eq!(text.cmp_suffixes(a, b), expect, "suffixes {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn pack_puts_base_i_in_bits_2i() {
        let bases = noise(32, 1);
        for len in 0..=32 {
            let packed = pack(&bases[..len]);
            for (i, base) in bases[..len].iter().enumerate() {
                assert_eq!((packed >> (2 * i)) & 3, u64::from(base.code()), "len {len}");
            }
            assert_eq!(packed.checked_shr(2 * len as u32).unwrap_or(0), 0);
        }
    }

    #[test]
    fn ends_with_equals_the_per_base_definition_at_every_offset_and_length() {
        let bases = noise(64 + 130 + 7, 0x7e47);
        let text = PackedText::from_symbols(&text_of(&bases));
        for (i, base) in bases.iter().enumerate() {
            assert_eq!(text.code(i), base.code());
        }
        assert_eq!(text.code(bases.len()), 0);
        for start in 0..64 {
            for len in 0..=130 {
                let end = start + len;
                let mut prefix = bases[start..end].to_vec();
                assert!(text.ends_with(end, &prefix), "start {start}, len {len}");
                // One base off, at every position of the prefix.
                for at in 0..len {
                    let was = prefix[at];
                    prefix[at] = Base::from_code((was.code() + 1 + (at % 3) as u8) % 4);
                    assert!(
                        !text.ends_with(end, &prefix),
                        "start {start}, len {len}, differing at {at}"
                    );
                    prefix[at] = was;
                }
            }
        }
        // Unrelated prefixes: whatever the definition says.
        let other = noise(300, 0xd1ff);
        for end in 0..bases.len() + 3 {
            for len in [0, 1, 2, 3, 5, 31, 32, 33, 64] {
                for from in [0, 7, 100] {
                    let prefix = &other[from..from + len];
                    assert_eq!(
                        text.ends_with(end, prefix),
                        ends_with_by_definition(&bases, end, prefix),
                        "end {end}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_ends_of_the_text_are_not_special() {
        for n in [1usize, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
            let bases = noise(n, n as u64);
            let text = PackedText::from_symbols(&text_of(&bases));
            // The whole text, ending at the last base before the sentinel.
            assert!(text.ends_with(n, &bases), "n {n}");
            assert!(text.ends_with(n, &bases[n / 2..]), "n {n}");
            // A prefix hanging off position 0.
            let mut longer = vec![Base::A];
            longer.extend_from_slice(&bases);
            assert!(!text.ends_with(n, &longer), "n {n}");
            assert!(!text.ends_with(0, &bases[..1]), "n {n}");
            // An end on or past the sentinel is no end of a base run —
            // even for a prefix of the code the sentinel is stored as.
            assert!(!text.ends_with(n + 1, &[Base::A]), "n {n}");
            assert!(!text.ends_with(n + 1, &[]), "n {n}");
            assert!(!text.ends_with(n + 40, &bases[..1]), "n {n}");
            // The empty prefix ends everywhere else.
            for end in 0..=n {
                assert!(text.ends_with(end, &[]), "n {n}, end {end}");
            }
            text.prefetch(0);
            text.prefetch(n + 1000);
        }
    }

    #[test]
    fn the_image_round_trips_and_its_padding_is_checked() {
        for n in [1usize, 15, 16, 31, 32, 33, 64, 95, 96, 97, 1000] {
            let bases = noise(n, 3 * n as u64);
            let text = PackedText::from_symbols(&text_of(&bases));
            let image: Vec<u8> = text.image().iter().flat_map(|w| w.to_le_bytes()).collect();
            let from_image = |image: &[u8], len: usize| {
                let mut words = PackedText::image_buffer(len, image.len())?;
                for (word, bytes) in words.words_mut().iter_mut().zip(image.chunks_exact(4)) {
                    *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                }
                PackedText::from_image(words, len)
            };
            assert_eq!(image.len(), 8 * (n + 1).div_ceil(32));
            assert_eq!(from_image(&image, n + 1), Some(text.clone()));
            // Wrong length, either way.
            assert_eq!(from_image(&image[..image.len() - 1], n + 1), None);
            assert_eq!(from_image(&image, n + 1 + 32), None);
            assert_eq!(from_image(&image, 0), None);
            // Any bit from the sentinel's on.
            for bit in 2 * n..8 * image.len() {
                let mut dirty = image.clone();
                dirty[bit / 8] |= 1 << (bit % 8);
                assert_eq!(from_image(&dirty, n + 1), None, "n {n}, bit {bit}");
            }
            let mut counts = [0u64; 4];
            for base in &bases {
                counts[base.code() as usize] += 1;
            }
            assert_eq!(text.base_counts(), counts, "n {n}");
        }
    }

    #[test]
    fn an_index_keeps_its_text_through_a_snapshot_and_counts_it_under_other() {
        use crate::{decode_snapshot, encode_snapshot, KStepFmIndex};
        use exma_genome::{Genome, GenomeProfile};

        let genome = Genome::synthesize(&GenomeProfile::toy(), 5);
        for k in [1, 4] {
            let index = KStepFmIndex::from_genome(&genome, k);
            let text = index.packed_text();
            assert_eq!(
                text,
                &PackedText::from_symbols(&genome.text_with_sentinel())
            );
            let read = genome.seq().slice(genome.len() - 40, 40);
            assert!(index.text_ends_with(genome.len(), &read));
            assert!(!index.text_ends_with(genome.len() - 1, &read));

            let loaded = decode_snapshot(&encode_snapshot(&index), None).expect("valid snapshot");
            assert_eq!(loaded.packed_text(), text, "k={k}");

            // The text's share of `other` is its buffer, whole lines.
            let elsewhere = index.base_index().heap_breakdown().other
                + index.kmer_occ().heap_breakdown().other
                + 4 * (1 << (2 * k))
                + index.lookup.heap_bytes();
            assert_eq!(
                index.heap_breakdown().other - elsewhere,
                text.words.heap_bytes(),
                "k={k}"
            );
        }
    }

    #[test]
    fn heap_is_exact_whole_lines() {
        for n in [1usize, 100, 511, 512, 513, 5000] {
            let text = PackedText::from_symbols(&text_of(&noise(n, 9)));
            let words = 2 * ((n + 1).div_ceil(32) + 1);
            assert_eq!(text.heap_bytes(), words.div_ceil(16) * 64, "n {n}");
        }
    }
}
