//! The Burrows-Wheeler transform.
//!
//! The BWT is the last column of the sorted rotation matrix (paper Fig. 3a);
//! with a sentinel-terminated text it is derived from the suffix array as
//! `BWT[i] = text[SA[i] - 1]` (cyclically). The `Count` table of Fig. 3(c)
//! is the BWT's symbol counts summed up, which an index reads off its
//! occurrence table's totals.

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

#[cfg(test)]
mod tests {
    use super::*;
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
