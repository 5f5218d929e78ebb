//! Linear-time suffix-array construction (SA-IS) in the suffix array's own
//! space.
//!
//! Every FM-index structure in this workspace — the 1-step index, the
//! k-step table and the sampled suffix array — is derived from the suffix
//! array of the sentinel-terminated reference, so a build can never hold
//! less than this array: 4 bytes a base. [`suffix_array`] sorts with the
//! SA-IS induced-sorting algorithm (Nong, Zhang & Chan, 2009), O(n) time,
//! laid out as in the authors' own implementation so that its workspace is
//! the output array itself:
//!
//! - the text is read in place, through a `Letter` trait: [`Symbol`] codes at
//!   the top level, the reduced string's `u32` names below it;
//! - the S/L suffix types are one bit a position;
//! - the sorted LMS positions are compacted into `sa[..m]`, each LMS
//!   substring's name is written to `sa[m + pos / 2]` (LMS positions are at
//!   least two apart and `m ≤ n / 2`, so those slots are distinct and in
//!   range), and the names are gathered into `sa[n - m..]` as the reduced
//!   string, whose suffix array is then built recursively in `sa[..m]`;
//! - every other allocation is a bucket array over the level's alphabet,
//!   five symbols at the top level, and is freed before the recursion.
//!
//! Beyond the returned `4n` bytes a build holds at most `n / 4` bytes of
//! type bits over all levels, plus the bucket arrays of one level.
//!
//! Because the reference ends with a unique, lexicographically smallest
//! sentinel, sorting suffixes is equivalent to sorting the cyclic rotations
//! of the Burrows-Wheeler matrix in the paper's Fig. 3(a).

use crate::alphabet::{Symbol, SYMBOL_ALPHABET};

const EMPTY: u32 = u32::MAX;

/// Builds the suffix array of `text`.
///
/// `text` must be a sentinel-terminated symbol string: the final symbol must
/// be `$` and `$` must not occur anywhere else. The returned vector `sa`
/// satisfies: `sa[i]` is the starting position of the i-th smallest suffix.
///
/// ```
/// use exma_genome::{suffix_array, Genome, GenomeProfile};
///
/// // G = CATAGA$ (the paper's Fig. 3 example)
/// let text = exma_genome::genome::text_from_str("CATAGA").unwrap();
/// assert_eq!(suffix_array(&text), vec![6, 5, 3, 1, 0, 4, 2]);
/// ```
///
/// # Panics
///
/// Panics if `text` is empty, does not end with the sentinel, or contains
/// the sentinel before the final position.
pub fn suffix_array(text: &[Symbol]) -> Vec<u32> {
    assert!(
        !text.is_empty(),
        "text must be sentinel-terminated, got empty"
    );
    assert!(
        text.last().unwrap().is_sentinel(),
        "text must end with the sentinel"
    );
    assert!(
        text[..text.len() - 1].iter().all(|s| !s.is_sentinel()),
        "sentinel must only appear at the final position"
    );
    assert!(
        text.len() < u32::MAX as usize,
        "text longer than u32 range is not supported"
    );
    let mut sa = vec![EMPTY; text.len()];
    sais(text, &mut sa, SYMBOL_ALPHABET.len());
    sa
}

/// A symbol of one SA-IS level, read in place as its rank in `0..sigma`.
trait Letter: Copy {
    fn rank(self) -> usize;
}

impl Letter for Symbol {
    #[inline]
    fn rank(self) -> usize {
        self.code() as usize
    }
}

impl Letter for u32 {
    #[inline]
    fn rank(self) -> usize {
        self as usize
    }
}

/// The S/L type of every suffix, one bit a position (set = S-type).
struct Types(Vec<u64>);

impl Types {
    fn classify<L: Letter>(text: &[L]) -> Types {
        let n = text.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        let mut s = true;
        bits[(n - 1) / 64] |= 1 << ((n - 1) % 64);
        for i in (0..n - 1).rev() {
            let (a, b) = (text[i].rank(), text[i + 1].rank());
            s = a < b || (a == b && s);
            bits[i / 64] |= u64::from(s) << (i % 64);
        }
        Types(bits)
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Leftmost-S: an S-type suffix whose predecessor is L-type.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// Fills `bkt` with where each symbol's bucket starts or (`ends`) one
/// past where it ends, counting `text` afresh: a level keeps no array of
/// bucket sizes beside its one working array.
fn buckets<L: Letter>(text: &[L], bkt: &mut [u32], ends: bool) {
    bkt.fill(0);
    for &c in text {
        bkt[c.rank()] += 1;
    }
    let mut sum = 0;
    for b in bkt.iter_mut() {
        sum += *b;
        *b = if ends { sum } else { sum - *b };
    }
}

/// Induced sort: from LMS suffixes placed at their bucket tails, places
/// every L-type suffix (left to right), then every S-type one (right to
/// left).
fn induce<L: Letter>(text: &[L], sa: &mut [u32], types: &Types, bkt: &mut [u32]) {
    buckets(text, bkt, false);
    for i in 0..sa.len() {
        let j = sa[i];
        if j != EMPTY && j > 0 && !types.is_s(j as usize - 1) {
            let c = text[j as usize - 1].rank();
            sa[bkt[c] as usize] = j - 1;
            bkt[c] += 1;
        }
    }
    buckets(text, bkt, true);
    for i in (0..sa.len()).rev() {
        let j = sa[i];
        if j != EMPTY && j > 0 && types.is_s(j as usize - 1) {
            let c = text[j as usize - 1].rank();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = j - 1;
        }
    }
}

/// Whether the LMS substrings at `a` and `b` are equal: the same symbols
/// and types up to and including the next LMS position. The unique
/// sentinel ends every comparison before it can run off the text.
fn lms_substrings_equal<L: Letter>(text: &[L], types: &Types, a: usize, b: usize) -> bool {
    for d in 0.. {
        let (x, y) = (a + d, b + d);
        if text[x].rank() != text[y].rank() || types.is_s(x) != types.is_s(y) {
            return false;
        }
        if d > 0 && types.is_lms(x) {
            return true;
        }
    }
    unreachable!("the sentinel ends every LMS substring")
}

/// SA-IS over `text`, an alphabet `0..sigma` string ending with a unique
/// smallest symbol, into `sa`, which is also its only `O(n)` workspace.
fn sais<L: Letter>(text: &[L], sa: &mut [u32], sigma: usize) {
    let n = text.len();
    debug_assert_eq!(sa.len(), n);
    if n == 1 {
        sa[0] = 0;
        return;
    }
    let types = Types::classify(text);

    // Sort the LMS substrings: seed each LMS position at its bucket's
    // tail and induce.
    sa.fill(EMPTY);
    let mut bkt = vec![0u32; sigma];
    buckets(text, &mut bkt, true);
    for (i, c) in text.iter().enumerate().skip(1) {
        if types.is_lms(i) {
            let c = c.rank();
            bkt[c] -= 1;
            sa[bkt[c] as usize] = i as u32;
        }
    }
    induce(text, sa, &types, &mut bkt);
    drop(bkt);

    // Compact the sorted LMS positions into sa[..m] and name each LMS
    // substring in that order, at sa[m + pos / 2].
    let mut m = 0;
    for i in 0..n {
        let pos = sa[i];
        if types.is_lms(pos as usize) {
            sa[m] = pos;
            m += 1;
        }
    }
    sa[m..].fill(EMPTY);
    let mut names = 0u32;
    let mut prev = None;
    for i in 0..m {
        let pos = sa[i] as usize;
        if prev.map_or(true, |p| !lms_substrings_equal(text, &types, p, pos)) {
            names += 1;
        }
        prev = Some(pos);
        sa[m + pos / 2] = names - 1;
    }
    // Gather the names, in text order, into sa[n - m..]: the reduced string.
    let mut j = n;
    for i in (m..n).rev() {
        if sa[i] != EMPTY {
            j -= 1;
            sa[j] = sa[i];
        }
    }

    // Sort the LMS suffixes: the reduced string's suffix array, recursively
    // unless every name is unique, then mapped back through the LMS
    // positions, which overwrite the reduced string.
    let (lms_order, reduced) = sa.split_at_mut(n - m);
    let lms_order = &mut lms_order[..m];
    if (names as usize) < m {
        sais(&*reduced, lms_order, names as usize);
    } else {
        for (i, &name) in reduced.iter().enumerate() {
            lms_order[name as usize] = i as u32;
        }
    }
    let mut j = 0;
    for i in 1..n {
        if types.is_lms(i) {
            reduced[j] = i as u32;
            j += 1;
        }
    }
    for r in lms_order.iter_mut() {
        *r = reduced[*r as usize];
    }

    // Seed the sorted LMS suffixes at their bucket tails, last first (each
    // lands at or after its own slot), and induce the final order.
    sa[m..].fill(EMPTY);
    let mut bkt = vec![0u32; sigma];
    buckets(text, &mut bkt, true);
    for i in (0..m).rev() {
        let pos = sa[i];
        sa[i] = EMPTY;
        let c = text[pos as usize].rank();
        bkt[c] -= 1;
        sa[bkt[c] as usize] = pos;
    }
    induce(text, sa, &types, &mut bkt);
}

/// Reference O(n^2 log n) suffix sort used to cross-check SA-IS in tests and
/// small examples. Exposed so downstream crates' tests can validate too.
pub fn naive_suffix_array(text: &[Symbol]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::text_from_str;

    #[test]
    fn paper_example_catagata() {
        // Fig. 3(a): G = CATAGA$, SA column = 6 5 3 1 0 4 2.
        let text = text_from_str("CATAGA").unwrap();
        assert_eq!(suffix_array(&text), vec![6, 5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn matches_naive_on_fixed_strings() {
        for s in [
            "A",
            "AAAA",
            "ACGT",
            "GATTACA",
            "TTTTTTTTTT",
            "ACGTACGTACGTACGT",
            "GGGCCCAAATTTGGGCCCAAATTT",
        ] {
            assert_matches_naive(s);
        }
    }

    #[test]
    fn matches_naive_on_random_strings() {
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(7);
        for _ in 0..50 {
            let len = rng.range(1, 200);
            let s: String = (0..len).map(|_| char::from(rng.base())).collect();
            assert_matches_naive(&s);
        }
    }

    /// SA-IS equals the naive sort on `s`, a string of bases.
    fn assert_matches_naive(s: &str) {
        let text = text_from_str(s).unwrap();
        assert_eq!(
            suffix_array(&text),
            naive_suffix_array(&text),
            "text of {} bases starting {:?}",
            s.len(),
            &s[..s.len().min(40)]
        );
    }

    // The texts below make SA-IS recurse: their LMS substrings repeat, so
    // the names are not unique and the reduced string is sorted by a
    // recursive call — six levels deep for the longest Fibonacci and
    // Thue–Morse words. Random text of a few hundred bases names almost
    // every LMS substring uniquely and stops at the first level.

    #[test]
    fn matches_naive_on_fibonacci_words() {
        let (mut shorter, mut word) = (String::from("A"), String::from("AC"));
        while word.len() <= 4096 {
            assert_matches_naive(&word);
            let next = format!("{word}{shorter}");
            shorter = std::mem::replace(&mut word, next);
        }
    }

    #[test]
    fn matches_naive_on_periodic_texts() {
        for unit in ["AC", "ACG", "ACGT", "AAC"] {
            for len in [1, 2, 7, 100, 4000] {
                assert_matches_naive(&unit.repeat(len / unit.len() + 1)[..len]);
            }
        }
    }

    #[test]
    fn matches_naive_on_thue_morse() {
        // Base i is A iff i has an even number of set bits: cube-free, so
        // LMS substrings recur at every scale without a short period.
        let word: String = (0..4096u32)
            .map(|i| if i.count_ones() % 2 == 0 { 'A' } else { 'C' })
            .collect();
        for len in [3, 64, 1000, 4096] {
            assert_matches_naive(&word[..len]);
        }
    }

    #[test]
    fn matches_naive_on_homopolymer_runs() {
        use crate::rng::SeededRng;
        for base in ["A", "T"] {
            assert_matches_naive(&base.repeat(2000));
        }
        // Short runs repeat their LMS substrings (and recurse); long ones
        // make each LMS substring a long comparison.
        let mut rng = SeededRng::new(11);
        for max_run in [3, 60] {
            let mut s = String::new();
            while s.len() < 4000 {
                let run = rng.range(1, max_run + 1);
                s.extend(std::iter::repeat(char::from(rng.base())).take(run));
            }
            assert_matches_naive(&s);
        }
    }

    #[test]
    fn matches_naive_on_planted_repeats() {
        use crate::rng::SeededRng;
        let mut rng = SeededRng::new(13);
        for _ in 0..4 {
            // A random 3 kbp text with long copies of its own substrings,
            // some back to back, pasted over it.
            let mut bases: Vec<_> = (0..3000).map(|_| rng.base()).collect();
            for _ in 0..rng.range(2, 8) {
                let len = rng.range(50, 600);
                let from = rng.range(0, bases.len() - len);
                let to = rng.range(0, bases.len() - len);
                bases.copy_within(from..from + len, to);
            }
            assert_matches_naive(&bases.iter().map(|&b| char::from(b)).collect::<String>());
        }
    }

    #[test]
    fn sa_is_a_permutation() {
        let text = text_from_str("ACGTACGTTGCAACGT").unwrap();
        let mut sa = suffix_array(&text);
        sa.sort_unstable();
        let expect: Vec<u32> = (0..text.len() as u32).collect();
        assert_eq!(sa, expect);
    }

    #[test]
    fn handles_single_base() {
        let text = text_from_str("G").unwrap();
        assert_eq!(suffix_array(&text), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn rejects_missing_sentinel() {
        use crate::alphabet::{Base, Symbol};
        let _ = suffix_array(&[Symbol::Base(Base::A)]);
    }
}
