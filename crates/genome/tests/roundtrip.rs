//! Round-trip and property tests over the genomics substrate: packed
//! sequences, suffix arrays and the BWT must survive randomized
//! encode/decode and invert cleanly, for many seeds.

use exma_genome::genome::{text_from_bases, text_from_str};
use exma_genome::{
    bwt_from_sa, naive_suffix_array, suffix_array, Base, PackedSeq, SeededRng, Symbol,
};

/// The inverse permutation of a suffix array: `rows[sa[i]] = i`, the
/// matrix row of the rotation starting at each text position.
fn rows_of(sa: &[u32]) -> Vec<u32> {
    let mut rows = vec![0; sa.len()];
    for (row, &pos) in sa.iter().enumerate() {
        rows[pos as usize] = row as u32;
    }
    rows
}

fn random_bases(rng: &mut SeededRng, len: usize) -> Vec<Base> {
    (0..len).map(|_| rng.base()).collect()
}

#[test]
fn packed_seq_encode_decode_round_trip() {
    let mut rng = SeededRng::new(101);
    for _ in 0..200 {
        let len = rng.range(0, 300);
        let bases = random_bases(&mut rng, len);
        let packed = PackedSeq::from_bases(&bases);
        assert_eq!(packed.len(), bases.len());
        assert_eq!(packed.to_vec(), bases);
        for (i, &b) in bases.iter().enumerate() {
            assert_eq!(packed.get(i), b);
        }
    }
}

#[test]
fn packed_seq_string_round_trip() {
    let mut rng = SeededRng::new(103);
    for _ in 0..100 {
        let len = rng.range(1, 200);
        let bases = random_bases(&mut rng, len);
        let s = exma_genome::alphabet::bases_to_string(&bases);
        let packed: PackedSeq = s.parse().unwrap();
        assert_eq!(packed.to_string(), s);
    }
}

#[test]
fn suffix_array_matches_naive_sort() {
    let mut rng = SeededRng::new(107);
    for _ in 0..100 {
        let len = rng.range(1, 400);
        let bases = random_bases(&mut rng, len);
        let text = text_from_bases(&bases);
        assert_eq!(
            suffix_array(&text),
            naive_suffix_array(&text),
            "text {}",
            exma_genome::alphabet::bases_to_string(&bases)
        );
    }
}

#[test]
fn bwt_inversion_recovers_text() {
    // BWT[isa[i]] is the symbol preceding position i (cyclically), so the
    // inverse suffix array inverts the transform in one pass:
    // text[i - 1] = BWT[isa[i]], and text[n - 1] ($) = BWT[isa[0]].
    let mut rng = SeededRng::new(109);
    for _ in 0..100 {
        let len = rng.range(1, 400);
        let bases = random_bases(&mut rng, len);
        let text = text_from_bases(&bases);
        let sa = suffix_array(&text);
        let bwt = bwt_from_sa(&text, &sa);
        let isa = rows_of(&sa);

        let n = text.len();
        let mut recovered = vec![Symbol::Sentinel; n];
        for i in 0..n {
            let preceding = bwt[isa[i] as usize];
            recovered[(i + n - 1) % n] = preceding;
        }
        assert_eq!(recovered, text);
    }
}

#[test]
fn bwt_inversion_paper_example() {
    let text = text_from_str("CATAGA").unwrap();
    let sa = suffix_array(&text);
    let bwt = bwt_from_sa(&text, &sa);
    let isa = rows_of(&sa);
    let n = text.len();
    let recovered: Vec<Symbol> = (0..n).map(|i| bwt[isa[(i + 1) % n] as usize]).collect();
    assert_eq!(recovered, text);
}
