//! Burrows-Wheeler transform and the `Count` table.
//!
//! The BWT is the last column of the sorted rotation matrix (paper Fig. 3a);
//! with a sentinel-terminated text it is derived from the suffix array as
//! `BWT[i] = text[SA[i] - 1]` (cyclically). `Count(s)` — the number of text
//! symbols lexicographically smaller than `s` (Fig. 3c) — seeds every
//! backward-search iteration.

use crate::alphabet::Symbol;

/// Derives the BWT from a text and its suffix array.
///
/// `BWT[i]` is the symbol cyclically preceding suffix `sa[i]`, i.e. the last
/// column of the Burrows-Wheeler matrix.
///
/// # Panics
///
/// Panics if `sa` is not the same length as `text`.
pub fn bwt_from_sa(text: &[Symbol], sa: &[u32]) -> Vec<Symbol> {
    assert_eq!(text.len(), sa.len(), "suffix array length mismatch");
    sa.iter()
        .map(|&p| {
            if p == 0 {
                text[text.len() - 1]
            } else {
                text[(p - 1) as usize]
            }
        })
        .collect()
}

/// The `Count` table over the 5-symbol alphabet `{$, A, C, G, T}`.
///
/// `Count(s)` is the number of symbols in the text strictly smaller than `s`
/// (paper Fig. 3c). Equivalently it is the matrix row where suffixes starting
/// with `s` begin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountTable {
    /// `starts[c]` = number of symbols with code `< c`; `starts[5]` = n.
    starts: [u64; 6],
}

impl CountTable {
    /// Counts symbol occurrences in `text` and accumulates them.
    pub fn from_text(text: &[Symbol]) -> CountTable {
        // Four histograms side by side: a counter bumped twice running
        // waits on its own store, and neighbours in a genome (or its BWT)
        // are often equal.
        let mut lanes = [[0u64; 5]; 4];
        let mut quads = text.chunks_exact(4);
        for quad in &mut quads {
            for (lane, s) in lanes.iter_mut().zip(quad) {
                lane[s.code() as usize] += 1;
            }
        }
        for s in quads.remainder() {
            lanes[0][s.code() as usize] += 1;
        }
        let mut freq = [0u64; 5];
        for lane in lanes {
            for (total, count) in freq.iter_mut().zip(lane) {
                *total += count;
            }
        }
        CountTable::from_frequencies(freq)
    }

    /// The table of a text in which the symbol of code `c` occurs
    /// `freq[c]` times: all a `Count` table depends on.
    pub fn from_frequencies(freq: [u64; 5]) -> CountTable {
        let mut starts = [0u64; 6];
        for c in 0..5 {
            starts[c + 1] = starts[c] + freq[c];
        }
        CountTable { starts }
    }

    /// `Count(s)`: number of text symbols lexicographically smaller than `s`.
    #[inline]
    pub fn count(&self, s: Symbol) -> u64 {
        self.starts[s.code() as usize]
    }

    /// Number of occurrences of `s` in the text.
    #[inline]
    pub fn frequency(&self, s: Symbol) -> u64 {
        self.starts[s.code() as usize + 1] - self.starts[s.code() as usize]
    }

    /// Total text length (including the sentinel).
    #[inline]
    pub fn text_len(&self) -> u64 {
        self.starts[5]
    }
}

/// Convenience wrapper building the `Count` table directly from a text.
pub fn count_table(text: &[Symbol]) -> CountTable {
    CountTable::from_text(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::SYMBOL_ALPHABET;
    use crate::genome::text_from_str;
    use crate::suffix::suffix_array;

    fn symbols_to_string(bwt: &[Symbol]) -> String {
        bwt.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_example_bwt() {
        // Fig. 3(a): BWT(CATAGA$) = AGTC$AA.
        let text = text_from_str("CATAGA").unwrap();
        let sa = suffix_array(&text);
        assert_eq!(symbols_to_string(&bwt_from_sa(&text, &sa)), "AGTC$AA");
    }

    #[test]
    fn paper_example_count() {
        // Fig. 3(c): Count(A)=1, Count(C)=4, Count(G)=5, Count(T)=6.
        use crate::alphabet::Base;
        let text = text_from_str("CATAGA").unwrap();
        let table = count_table(&text);
        assert_eq!(table.count(Symbol::Sentinel), 0);
        assert_eq!(table.count(Symbol::Base(Base::A)), 1);
        assert_eq!(table.count(Symbol::Base(Base::C)), 4);
        assert_eq!(table.count(Symbol::Base(Base::G)), 5);
        assert_eq!(table.count(Symbol::Base(Base::T)), 6);
    }

    #[test]
    fn frequencies_sum_to_length() {
        let text = text_from_str("GATTACAGGGCAT").unwrap();
        let table = count_table(&text);
        let total: u64 = SYMBOL_ALPHABET.iter().map(|&s| table.frequency(s)).sum();
        assert_eq!(total, text.len() as u64);
        assert_eq!(table.text_len(), text.len() as u64);
    }

    #[test]
    fn bwt_is_permutation_of_text() {
        let text = text_from_str("ACGTACGTTGCA").unwrap();
        let sa = suffix_array(&text);
        let mut bwt = bwt_from_sa(&text, &sa);
        let mut sorted_text = text.clone();
        bwt.sort();
        sorted_text.sort();
        assert_eq!(bwt, sorted_text);
    }
}
