//! 2-bit packed DNA sequences.
//!
//! A reference genome at pinus scale (31 Mbp scaled, 31 Gbp full) is the
//! dominant memory consumer of the workspace, so references are stored 2 bits
//! per base, exactly as production FM-Index implementations (BWA, SGA) do.

use crate::alphabet::Base;

/// An immutable DNA sequence packed 2 bits per base.
///
/// Bases are stored little-endian within each `u64` word: base `i` occupies
/// bits `2*(i % 32) ..= 2*(i % 32) + 1` of word `i / 32`.
///
/// ```
/// use exma_genome::{PackedSeq, Base};
///
/// let seq: PackedSeq = "GATTACA".parse().unwrap();
/// assert_eq!(seq.len(), 7);
/// assert_eq!(seq.get(0), Base::G);
/// assert_eq!(seq.to_string(), "GATTACA");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Creates an empty sequence.
    pub fn new() -> PackedSeq {
        PackedSeq::default()
    }

    /// Creates an empty sequence with room for `cap` bases.
    pub fn with_capacity(cap: usize) -> PackedSeq {
        PackedSeq {
            words: Vec::with_capacity(cap.div_ceil(32)),
            len: 0,
        }
    }

    /// Packs a base slice.
    pub fn from_bases(bases: &[Base]) -> PackedSeq {
        let mut seq = PackedSeq::with_capacity(bases.len());
        for &b in bases {
            seq.push(b);
        }
        seq
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let (word, shift) = (self.len / 32, 2 * (self.len % 32));
        if shift == 0 {
            self.words.push(0);
        }
        self.words[word] |= (base.code() as u64) << shift;
        self.len += 1;
    }

    /// The base at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Base {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let code = (self.words[i / 32] >> (2 * (i % 32))) & 0b11;
        Base::from_code(code as u8)
    }

    /// Copies bases `start..start + len` into a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the sequence.
    pub fn slice(&self, start: usize, len: usize) -> Vec<Base> {
        assert!(
            start + len <= self.len,
            "slice {start}..{} out of bounds (len {})",
            start + len,
            self.len
        );
        (start..start + len).map(|i| self.get(i)).collect()
    }

    /// Iterates over all bases, straight off the packed words.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        let bases = self.words.iter().flat_map(|&word| {
            (0..32).map(move |i| Base::from_code((word >> (2 * i)) as u8 & 0b11))
        });
        bases.take(self.len)
    }

    /// Unpacks the whole sequence.
    pub fn to_vec(&self) -> Vec<Base> {
        self.iter().collect()
    }

    /// Heap bytes used by the packed representation.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl std::str::FromStr for PackedSeq {
    type Err = usize;

    /// Parses an ACGT string; the error is the offset of the first bad byte.
    fn from_str(s: &str) -> Result<PackedSeq, usize> {
        let bases = crate::alphabet::parse_bases(s)?;
        Ok(PackedSeq::from_bases(&bases))
    }
}

impl std::fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> PackedSeq {
        let mut seq = PackedSeq::new();
        for b in iter {
            seq.push(b);
        }
        seq
    }
}

impl Extend<Base> for PackedSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let bases: Vec<Base> = "ACGTACGTTGCA".parse::<PackedSeq>().unwrap().to_vec();
        let seq = PackedSeq::from_bases(&bases);
        for (i, &b) in bases.iter().enumerate() {
            assert_eq!(seq.get(i), b);
        }
    }

    #[test]
    fn crosses_word_boundaries() {
        let bases: Vec<Base> = (0..100).map(|i| Base::from_code((i % 4) as u8)).collect();
        let seq = PackedSeq::from_bases(&bases);
        assert_eq!(seq.len(), 100);
        assert_eq!(seq.to_vec(), bases);
    }

    #[test]
    fn packing_is_dense() {
        let bases: Vec<Base> = (0..1024).map(|i| Base::from_code((i % 4) as u8)).collect();
        let seq = PackedSeq::from_bases(&bases);
        // 1024 bases = 2048 bits = 32 u64 words.
        assert!(seq.heap_bytes() <= 64 * 8);
    }

    #[test]
    fn slice_extracts_window() {
        let seq: PackedSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(crate::alphabet::bases_to_string(&seq.slice(2, 4)), "GTAC");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_end_panics() {
        let seq: PackedSeq = "ACGT".parse().unwrap();
        let _ = seq.get(4);
    }

    #[test]
    fn collect_from_iterator() {
        let seq: PackedSeq = "ACGT".parse::<PackedSeq>().unwrap().iter().collect();
        assert_eq!(seq.to_string(), "ACGT");
    }
}
