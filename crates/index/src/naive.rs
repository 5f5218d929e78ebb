//! Brute-force exact matching, the oracle every index answer is checked
//! against.
//!
//! An O(nm) scan is hopeless at reference scale but trivially correct,
//! which makes it the right ground truth for property tests — the same way
//! the paper validates EXMA output against unaccelerated FM-index queries.

use exma_genome::{Base, PackedSeq};

/// All starting positions (sorted ascending) where `pattern` occurs in
/// `seq`. The empty pattern occurs at every position `0..=seq.len()`.
pub fn occurrences(seq: &PackedSeq, pattern: &[Base]) -> Vec<u32> {
    if pattern.len() > seq.len() {
        return Vec::new();
    }
    (0..=seq.len() - pattern.len())
        .filter(|&start| {
            pattern
                .iter()
                .enumerate()
                .all(|(k, &b)| seq.get(start + k) == b)
        })
        .map(|start| start as u32)
        .collect()
}

/// Number of occurrences of `pattern` in `seq`.
pub fn count(seq: &PackedSeq, pattern: &[Base]) -> usize {
    occurrences(seq, pattern).len()
}

/// All strand-agnostic occurrences of `pattern` in `seq`, as
/// [`crate::bidir`] encoded strand-hits sorted ascending: forward
/// occurrences tagged [`crate::bidir::Strand::Forward`], plus — for
/// non-palindromic patterns — every occurrence of `revcomp(pattern)`
/// tagged [`crate::bidir::Strand::Reverse`] at the forward coordinate of
/// the matched window. Palindromic patterns (the empty pattern included)
/// report forward hits only: their reverse hits mirror the forward set
/// site for site, and the dedup rule keeps the forward tag.
pub fn occurrences_both(seq: &PackedSeq, pattern: &[Base]) -> Vec<u32> {
    use crate::bidir::{encode_hit, is_palindromic, revcomp, Strand};

    let mut hits: Vec<u32> = occurrences(seq, pattern)
        .into_iter()
        .map(|p| encode_hit(p, Strand::Forward))
        .collect();
    if !is_palindromic(pattern) {
        hits.extend(
            occurrences(seq, &revcomp(pattern))
                .into_iter()
                .map(|p| encode_hit(p, Strand::Reverse)),
        );
    }
    hits.sort_unstable();
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use exma_genome::alphabet::parse_bases;

    #[test]
    fn finds_overlapping_occurrences() {
        let seq: PackedSeq = "AAAA".parse().unwrap();
        assert_eq!(
            occurrences(&seq, &parse_bases("AA").unwrap()),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn absent_pattern_yields_nothing() {
        let seq: PackedSeq = "ACGTACGT".parse().unwrap();
        assert_eq!(count(&seq, &parse_bases("GGG").unwrap()), 0);
    }

    #[test]
    fn pattern_longer_than_text_yields_nothing() {
        let seq: PackedSeq = "ACG".parse().unwrap();
        assert_eq!(count(&seq, &parse_bases("ACGT").unwrap()), 0);
    }

    #[test]
    fn whole_text_matches_once() {
        let seq: PackedSeq = "GATTACA".parse().unwrap();
        assert_eq!(occurrences(&seq, &parse_bases("GATTACA").unwrap()), vec![0]);
    }

    #[test]
    fn both_strand_oracle_tags_each_strand() {
        use crate::bidir::{decode_hit, Strand};
        // "AC" occurs forward at 0; its revcomp "GT" occurs at 2 — one hit
        // per strand, forward (even encoding) sorting first at equal
        // positions.
        let seq: PackedSeq = "ACGTAC".parse().unwrap();
        let hits = occurrences_both(&seq, &parse_bases("AC").unwrap());
        let decoded: Vec<(u32, Strand)> = hits.iter().map(|&h| decode_hit(h)).collect();
        assert_eq!(
            decoded,
            vec![
                (0, Strand::Forward),
                (2, Strand::Reverse),
                (4, Strand::Forward)
            ]
        );
    }

    #[test]
    fn palindromic_patterns_report_forward_only() {
        use crate::bidir::{decode_hit, Strand};
        let seq: PackedSeq = "ACGTACGT".parse().unwrap();
        // "ACGT" is its own reverse complement.
        let hits = occurrences_both(&seq, &parse_bases("ACGT").unwrap());
        assert_eq!(
            hits.iter().map(|&h| decode_hit(h)).collect::<Vec<_>>(),
            vec![(0, Strand::Forward), (4, Strand::Forward)]
        );
        // The empty pattern is palindromic: every position, forward only.
        let empty = occurrences_both(&seq, &[]);
        assert_eq!(empty.len(), seq.len() + 1);
        assert!(empty.iter().all(|&h| decode_hit(h).1 == Strand::Forward));
    }

    #[test]
    fn both_strand_counts_add_up() {
        let seq: PackedSeq = "ACGTAC".parse().unwrap();
        let p = parse_bases("AC").unwrap();
        let rc = crate::bidir::revcomp(&p);
        assert_eq!(
            occurrences_both(&seq, &p).len(),
            count(&seq, &p) + count(&seq, &rc)
        );
    }
}
