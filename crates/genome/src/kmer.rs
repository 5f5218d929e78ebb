//! Fixed-length k-mers packed into a `u64`.
//!
//! The EXMA table (paper §IV-A) is keyed by k-mers: each of the `4^k`
//! possible k-mers owns a base pointer and a run of increments. [`Kmer`]
//! stores up to 31 bases, 2 bits each, such that the packed integer value
//! *is* the lexicographic rank — the property the EXMA base table relies on
//! for contiguous, row-buffer-friendly layout.

use crate::alphabet::Base;
use std::fmt;

/// Maximum supported k (bases fit in a `u64` with 2 bits each).
pub const MAX_K: usize = 31;

/// A k-mer of `1..=31` bases packed big-endian (first base in the most
/// significant bit pair), so that integer order equals lexicographic order.
///
/// ```
/// use exma_genome::Kmer;
///
/// let aa: Kmer = "AA".parse().unwrap();
/// let ac: Kmer = "AC".parse().unwrap();
/// let tt: Kmer = "TT".parse().unwrap();
/// assert!(aa.rank() < ac.rank() && ac.rank() < tt.rank());
/// assert_eq!(tt.rank(), 15); // last of the 16 2-mers
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    rank: u64,
    k: u8,
}

impl Kmer {
    /// Packs `bases` into a k-mer.
    ///
    /// # Panics
    ///
    /// Panics if `bases` is empty or longer than [`MAX_K`].
    pub fn from_bases(bases: &[Base]) -> Kmer {
        assert!(
            !bases.is_empty() && bases.len() <= MAX_K,
            "k must be in 1..={MAX_K}, got {}",
            bases.len()
        );
        let mut rank = 0u64;
        for &b in bases {
            rank = (rank << 2) | b.code() as u64;
        }
        Kmer {
            rank,
            k: bases.len() as u8,
        }
    }

    /// Builds a k-mer from its lexicographic rank.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or `rank >= 4^k`.
    pub fn from_rank(rank: u64, k: usize) -> Kmer {
        assert!(
            (1..=MAX_K).contains(&k),
            "k must be in 1..={MAX_K}, got {k}"
        );
        assert!(rank < count(k), "rank {rank} out of range for k={k}");
        Kmer { rank, k: k as u8 }
    }

    /// Lexicographic rank in `0..4^k`.
    #[inline]
    pub fn rank(self) -> u64 {
        self.rank
    }

    /// Number of bases.
    #[inline]
    pub fn k(self) -> usize {
        self.k as usize
    }

    /// The base at position `i` (0 = leftmost / most significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[inline]
    pub fn base(self, i: usize) -> Base {
        assert!(
            i < self.k as usize,
            "index {i} out of bounds for k={}",
            self.k
        );
        let shift = 2 * (self.k as usize - 1 - i);
        Base::from_code(((self.rank >> shift) & 0b11) as u8)
    }

    /// Unpacks into a base vector.
    pub fn to_bases(self) -> Vec<Base> {
        (0..self.k as usize).map(|i| self.base(i)).collect()
    }

    /// The next k-mer in lexicographic order, or `None` at `T...T`.
    pub fn successor(self) -> Option<Kmer> {
        (self.rank + 1 < count(self.k as usize)).then(|| Kmer {
            rank: self.rank + 1,
            k: self.k,
        })
    }

    /// The lexicographically smallest k-mer (`A...A`).
    pub fn first(k: usize) -> Kmer {
        Kmer::from_rank(0, k)
    }
}

/// Number of distinct k-mers: `4^k`.
///
/// # Panics
///
/// Panics if `k > 31`.
pub fn count(k: usize) -> u64 {
    assert!(k <= MAX_K);
    1u64 << (2 * k)
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k as usize {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Kmer {
    type Err = usize;

    /// Parses an ACGT string; the error is the offset of the first bad byte.
    fn from_str(s: &str) -> Result<Kmer, usize> {
        let bases = crate::alphabet::parse_bases(s)?;
        Ok(Kmer::from_bases(&bases))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_lexicographic() {
        let mut prev: Option<Kmer> = None;
        for r in 0..count(3) {
            let km = Kmer::from_rank(r, 3);
            if let Some(p) = prev {
                assert!(p.to_bases() < km.to_bases());
            }
            prev = Some(km);
        }
    }

    #[test]
    fn pack_unpack_round_trip() {
        let km: Kmer = "GATTACAGATTACA".parse().unwrap();
        assert_eq!(km.to_string(), "GATTACAGATTACA");
        assert_eq!(Kmer::from_bases(&km.to_bases()), km);
        assert_eq!(Kmer::from_rank(km.rank(), km.k()), km);
    }

    #[test]
    fn first_and_last() {
        assert_eq!(Kmer::first(4).to_string(), "AAAA");
        let last = Kmer::from_rank(count(4) - 1, 4);
        assert_eq!(last.to_string(), "TTTT");
        assert_eq!(last.successor(), None);
        assert_eq!(Kmer::first(4).successor().unwrap().to_string(), "AAAC");
    }

    #[test]
    fn max_k_31_works() {
        let bases: Vec<Base> = (0..31).map(|i| Base::from_code((i % 4) as u8)).collect();
        let km = Kmer::from_bases(&bases);
        assert_eq!(km.to_bases(), bases);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn from_rank_rejects_overflow() {
        let _ = Kmer::from_rank(16, 2);
    }
}
