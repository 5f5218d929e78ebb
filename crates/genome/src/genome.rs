//! Synthetic reference genomes.
//!
//! The EXMA paper evaluates on human (3 Gbp), picea (20 Gbp) and pinus
//! (31 Gbp) references. Those datasets are not redistributable, so this
//! module synthesizes references with the two properties that actually
//! drive FM-index behaviour: base composition (GC bias) and repeat
//! structure (repeats make suffix-array intervals wide and `locate` heavy).
//! Profiles reproduce the paper's genomes at matched *relative* sizes —
//! `human_rel()` is 3 Mbp to the real 3 Gbp, a fixed 1:1000 scale — and all
//! synthesis is reproducible from a single `u64` seed.

use crate::alphabet::{parse_bases, Base, Symbol};
use crate::rng::SeededRng;
use crate::seq::PackedSeq;

/// A recipe for synthesizing a reference genome.
///
/// `repeat_fraction` of the genome (approximately) is covered by diverged
/// copies of a small library of repeat units — the synthetic analogue of
/// transposable-element families like Alu/LINE-1 that dominate real
/// references and stress FM-index `locate`.
///
/// **Copies sit on a grid.** [`Genome::synthesize`] emits segments of
/// exactly `repeat_unit_len` bases, so every repeat copy starts at a
/// multiple of it and the occurrences of a seed inside a family are all
/// congruent modulo `repeat_unit_len`. A suffix-array sampling rate that
/// shares a factor `g` with that period therefore sees a family's rows in
/// only `rate / g` of its `rate` residue classes — they reach a sampled
/// row in few, crowded lockstep rounds — where a rate coprime to the
/// period spreads them over all classes, as an aperiodic genome would at
/// any rate. No `locate` answer depends on it — a `max_hits` cap keeps
/// the first rows of an interval, whatever their walks — but how long
/// the kept rows' walks are does (400 against the rates 32, 11 and 10
/// has gcd 16, 1 and 10). Compare locate throughput across sampling
/// rates on these profiles with that in mind.
#[derive(Debug, Clone, PartialEq)]
pub struct GenomeProfile {
    /// Human-readable profile name, carried into [`Genome`].
    pub name: String,
    /// Target length in bases (excluding the sentinel).
    pub len: usize,
    /// Probability that a background base is G or C.
    pub gc_content: f64,
    /// Approximate fraction of the genome covered by repeat copies.
    pub repeat_fraction: f64,
    /// Length of each repeat unit in the library.
    pub repeat_unit_len: usize,
    /// Number of distinct repeat units ("families") in the library.
    pub repeat_families: usize,
    /// Per-base substitution probability applied to each repeat copy, so
    /// copies diverge from their family consensus as real repeats do.
    pub repeat_divergence: f64,
}

impl GenomeProfile {
    /// A tiny profile (10 kbp) for unit tests and doctests; builds in
    /// microseconds yet still has enough repeat structure to exercise
    /// multi-occurrence patterns.
    pub fn toy() -> GenomeProfile {
        GenomeProfile {
            name: "toy".to_string(),
            len: 10_000,
            gc_content: 0.41,
            repeat_fraction: 0.30,
            repeat_unit_len: 200,
            repeat_families: 4,
            repeat_divergence: 0.02,
        }
    }

    /// Human at 1:1000 relative scale — 3 Mbp, 41% GC, ~45% repetitive
    /// with Alu-sized (300 bp) units.
    pub fn human_rel() -> GenomeProfile {
        GenomeProfile {
            name: "human_rel".to_string(),
            len: 3_000_000,
            gc_content: 0.41,
            repeat_fraction: 0.45,
            repeat_unit_len: 300,
            repeat_families: 8,
            repeat_divergence: 0.10,
        }
    }

    /// Picea abies (Norway spruce) at 1:1000 relative scale — 20 Mbp,
    /// conifer genomes are ~38% GC and extremely repeat-rich.
    pub fn picea_rel() -> GenomeProfile {
        GenomeProfile {
            name: "picea_rel".to_string(),
            len: 20_000_000,
            gc_content: 0.38,
            repeat_fraction: 0.70,
            repeat_unit_len: 400,
            repeat_families: 12,
            repeat_divergence: 0.12,
        }
    }

    /// Pinus taeda (loblolly pine) at 1:1000 relative scale — 31 Mbp, the
    /// largest reference in the paper.
    pub fn pinus_rel() -> GenomeProfile {
        GenomeProfile {
            name: "pinus_rel".to_string(),
            len: 31_000_000,
            gc_content: 0.38,
            repeat_fraction: 0.75,
            repeat_unit_len: 400,
            repeat_families: 12,
            repeat_divergence: 0.12,
        }
    }

    /// The profile a command line names: `toy`, `human_rel`, `picea_rel`
    /// or `pinus_rel`; `None` for any other name.
    pub fn by_name(name: &str) -> Option<GenomeProfile> {
        match name {
            "toy" => Some(GenomeProfile::toy()),
            "human_rel" => Some(GenomeProfile::human_rel()),
            "picea_rel" => Some(GenomeProfile::picea_rel()),
            "pinus_rel" => Some(GenomeProfile::pinus_rel()),
            _ => None,
        }
    }
}

/// A synthesized reference genome: a 2-bit packed sequence plus the profile
/// and seed that produced it (so any genome can be regenerated exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    profile: GenomeProfile,
    seed: u64,
    seq: PackedSeq,
}

impl Genome {
    /// Synthesizes a genome from `profile` with the given seed.
    ///
    /// Synthesis alternates background stretches with diverged repeat
    /// copies: each segment is a repeat copy with probability
    /// `repeat_fraction`, so repeats cover approximately that fraction of
    /// the final sequence.
    ///
    /// ```
    /// use exma_genome::{Genome, GenomeProfile};
    ///
    /// let g = Genome::synthesize(&GenomeProfile::toy(), 42);
    /// assert_eq!(g.len(), GenomeProfile::toy().len);
    /// // Deterministic: same profile + seed => same sequence.
    /// assert_eq!(g, Genome::synthesize(&GenomeProfile::toy(), 42));
    /// ```
    pub fn synthesize(profile: &GenomeProfile, seed: u64) -> Genome {
        assert!(profile.len > 0, "profile length must be positive");
        assert!(
            profile.repeat_unit_len > 0,
            "repeat unit length must be positive"
        );
        assert!(
            profile.repeat_families > 0,
            "need at least one repeat family"
        );
        let mut rng = SeededRng::new(seed);

        // Build the repeat library from its own fork so the background
        // stream is independent of the library size.
        let mut lib_rng = rng.fork();
        let library: Vec<Vec<Base>> = (0..profile.repeat_families)
            .map(|_| {
                (0..profile.repeat_unit_len)
                    .map(|_| lib_rng.base_gc(profile.gc_content))
                    .collect()
            })
            .collect();

        let mut seq = PackedSeq::with_capacity(profile.len);
        while seq.len() < profile.len {
            let remaining = profile.len - seq.len();
            let segment = profile.repeat_unit_len.min(remaining);
            if rng.chance(profile.repeat_fraction) {
                // Emit a diverged copy of a random family.
                let unit = &library[rng.range(0, library.len())];
                for &consensus in unit.iter().take(segment) {
                    let base = if rng.chance(profile.repeat_divergence) {
                        rng.base_other_than(consensus)
                    } else {
                        consensus
                    };
                    seq.push(base);
                }
            } else {
                // Emit GC-biased background.
                for _ in 0..segment {
                    seq.push(rng.base_gc(profile.gc_content));
                }
            }
        }

        Genome {
            profile: profile.clone(),
            seed,
            seq,
        }
    }

    /// Wraps an explicit sequence (e.g. a parsed test string) in a genome.
    pub fn from_bases(name: &str, bases: &[Base]) -> Genome {
        Genome {
            profile: GenomeProfile {
                name: name.to_string(),
                len: bases.len(),
                gc_content: 0.0,
                repeat_fraction: 0.0,
                repeat_unit_len: 1,
                repeat_families: 1,
                repeat_divergence: 0.0,
            },
            seed: 0,
            seq: PackedSeq::from_bases(bases),
        }
    }

    /// The profile this genome was synthesized from.
    pub fn profile(&self) -> &GenomeProfile {
        &self.profile
    }

    /// The seed this genome was synthesized with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The packed reference sequence.
    pub fn seq(&self) -> &PackedSeq {
        &self.seq
    }

    /// Reference length in bases (excluding the sentinel).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` iff the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// The sentinel-terminated symbol text fed to suffix-array and BWT
    /// construction: every base as a [`Symbol`] plus a trailing `$`,
    /// filled straight from the packed sequence into a vector of exactly
    /// that length — no unpacked copy of the bases beside it.
    pub fn text_with_sentinel(&self) -> Vec<Symbol> {
        let mut text = Vec::with_capacity(self.seq.len() + 1);
        text.extend(self.seq.iter().map(Symbol::Base));
        text.push(Symbol::Sentinel);
        text
    }

    /// The reverse complement of the window `start..start + len` — what a
    /// reverse-strand read of that template reports. The one place the
    /// workspace derives a reverse complement of reference coordinates, so
    /// read simulation and both-strand oracles agree by construction.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the reference (same contract as
    /// [`PackedSeq::slice`]).
    pub fn revcomp_window(&self, start: usize, len: usize) -> Vec<Base> {
        let mut window = self.seq.slice(start, len);
        window.reverse();
        for base in &mut window {
            *base = base.complement();
        }
        window
    }
}

/// Converts a base slice into a sentinel-terminated symbol text.
pub fn text_from_bases(bases: &[Base]) -> Vec<Symbol> {
    let mut text: Vec<Symbol> = bases.iter().map(|&b| Symbol::Base(b)).collect();
    text.push(Symbol::Sentinel);
    text
}

/// Parses an ACGT string into a sentinel-terminated symbol text.
///
/// # Errors
///
/// Returns the byte offset of the first non-ACGT character.
///
/// ```
/// use exma_genome::genome::text_from_str;
///
/// let text = text_from_str("CATAGA").unwrap();
/// assert_eq!(text.len(), 7); // six bases + sentinel
/// assert!(text.last().unwrap().is_sentinel());
/// ```
pub fn text_from_str(s: &str) -> Result<Vec<Symbol>, usize> {
    Ok(text_from_bases(&parse_bases(s)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic() {
        let p = GenomeProfile::toy();
        assert_eq!(Genome::synthesize(&p, 1), Genome::synthesize(&p, 1));
    }

    #[test]
    fn profiles_resolve_by_name() {
        for name in ["toy", "human_rel", "picea_rel", "pinus_rel"] {
            assert_eq!(GenomeProfile::by_name(name).unwrap().name, name);
        }
        assert_eq!(GenomeProfile::by_name("toy"), Some(GenomeProfile::toy()));
        assert_eq!(GenomeProfile::by_name("mouse_rel"), None);
    }

    #[test]
    fn different_seeds_differ() {
        let p = GenomeProfile::toy();
        assert_ne!(Genome::synthesize(&p, 1), Genome::synthesize(&p, 2));
    }

    #[test]
    fn length_matches_profile() {
        for len in [1usize, 7, 199, 200, 201, 10_000] {
            let p = GenomeProfile {
                len,
                ..GenomeProfile::toy()
            };
            assert_eq!(Genome::synthesize(&p, 3).len(), len);
        }
    }

    #[test]
    fn gc_bias_is_respected() {
        let rich = GenomeProfile {
            gc_content: 0.70,
            repeat_fraction: 0.0,
            ..GenomeProfile::toy()
        };
        let poor = GenomeProfile {
            gc_content: 0.20,
            repeat_fraction: 0.0,
            ..GenomeProfile::toy()
        };
        let gc_share = |genome: Genome| {
            let gc = genome.seq().iter().filter(|b| b.is_gc()).count();
            gc as f64 / genome.len() as f64
        };
        let g_rich = gc_share(Genome::synthesize(&rich, 5));
        let g_poor = gc_share(Genome::synthesize(&poor, 5));
        assert!((g_rich - 0.70).abs() < 0.03, "observed GC {g_rich}");
        assert!((g_poor - 0.20).abs() < 0.03, "observed GC {g_poor}");
    }

    #[test]
    fn repeats_create_recurring_kmers() {
        // With 30% repeat coverage from 4 families of 200 bp units, many
        // 32-mers must occur more than once; a repeat-free random genome of
        // the same size has essentially none.
        use crate::kmer::Kmer;
        use std::collections::HashMap;

        let count_dups = |g: &Genome| {
            let mut seen: HashMap<u64, u32> = HashMap::new();
            let bases = g.seq().to_vec();
            for window in bases.windows(31) {
                *seen.entry(Kmer::from_bases(window).rank()).or_insert(0) += 1;
            }
            seen.values().filter(|&&c| c > 1).count()
        };

        let repetitive = Genome::synthesize(&GenomeProfile::toy(), 8);
        let plain = Genome::synthesize(
            &GenomeProfile {
                repeat_fraction: 0.0,
                ..GenomeProfile::toy()
            },
            8,
        );
        assert!(count_dups(&repetitive) > 20, "expected recurring 31-mers");
        assert_eq!(
            count_dups(&plain),
            0,
            "random genome should not repeat 31-mers"
        );
    }

    #[test]
    fn text_with_sentinel_terminates() {
        let g = Genome::synthesize(&GenomeProfile::toy(), 2);
        let text = g.text_with_sentinel();
        assert_eq!(text.len(), g.len() + 1);
        assert!(text.last().unwrap().is_sentinel());
        assert!(text[..text.len() - 1].iter().all(|s| !s.is_sentinel()));
    }

    #[test]
    fn text_from_str_rejects_bad_chars() {
        assert_eq!(text_from_str("ACGNT"), Err(3));
    }

    #[test]
    fn revcomp_window_matches_hand_derivation() {
        let g = Genome::from_bases("fixture", &crate::alphabet::parse_bases("GATTACA").unwrap());
        assert_eq!(
            crate::alphabet::bases_to_string(&g.revcomp_window(0, 7)),
            "TGTAATC"
        );
        assert_eq!(
            crate::alphabet::bases_to_string(&g.revcomp_window(1, 3)),
            "AAT"
        );
        assert!(g.revcomp_window(3, 0).is_empty());
    }

    #[test]
    fn double_revcomp_is_identity_on_random_windows() {
        // Property: revcomp(revcomp(w)) == w for random windows of a
        // synthesized genome.
        let g = Genome::synthesize(&GenomeProfile::toy(), 11);
        let mut rng = SeededRng::new(0xABCD);
        for _ in 0..200 {
            let len = rng.range(0, 64);
            let start = rng.range(0, g.len() - len + 1);
            let window = g.seq().slice(start, len);
            let rc = g.revcomp_window(start, len);
            let mut rc_rc = rc.clone();
            rc_rc.reverse();
            for base in &mut rc_rc {
                *base = base.complement();
            }
            assert_eq!(rc_rc, window, "start {start} len {len}");
        }
    }

    #[test]
    fn from_bases_round_trip() {
        let bases = crate::alphabet::parse_bases("GATTACA").unwrap();
        let g = Genome::from_bases("fixture", &bases);
        assert_eq!(g.len(), 7);
        assert_eq!(g.seq().to_vec(), bases);
        assert_eq!(g.text_with_sentinel(), text_from_str("GATTACA").unwrap());
    }
}
