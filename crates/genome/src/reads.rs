//! Read simulation with the error profiles used in the paper.
//!
//! EXMA's workloads are seeding queries from short reads (DWGSIM-simulated
//! Illumina) and long reads (PBSIM-simulated PacBio CLR and Oxford
//! Nanopore). This module re-implements both simulators against our
//! synthetic genomes, with per-base error rates the caller gives as an
//! [`ErrorProfile`] (Illumina's is a preset), and records each read's true
//! origin so mapping results can be verified against ground truth.

use crate::alphabet::Base;
use crate::genome::Genome;
use crate::rng::SeededRng;
use crate::seq::PackedSeq;

/// Per-base error rates of a sequencing technology.
///
/// Rates are independent per-base probabilities; a read simulator walks the
/// template and at each base may delete it, insert a random base before it,
/// or substitute it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Probability a template base is replaced by a different base.
    pub substitution: f64,
    /// Probability a random base is inserted before a template base.
    pub insertion: f64,
    /// Probability a template base is dropped.
    pub deletion: f64,
}

impl ErrorProfile {
    /// No errors: reads are exact substrings (or reverse complements) of
    /// the reference. Exact-match seeding workloads use this profile.
    pub fn error_free() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.0,
            insertion: 0.0,
            deletion: 0.0,
        }
    }

    /// Illumina short reads: ~0.1% substitutions, indels an order of
    /// magnitude rarer (the DWGSim defaults used by the paper).
    pub fn illumina() -> ErrorProfile {
        ErrorProfile {
            substitution: 0.001,
            insertion: 0.0001,
            deletion: 0.0001,
        }
    }
}

/// Ground truth for a simulated read: the reference window it was drawn
/// from and the strand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    /// Start of the template window in the reference (0-based).
    pub start: usize,
    /// Length of the template window (before sequencing errors).
    pub template_len: usize,
    /// `true` if the read is the reverse complement of the window.
    pub reverse: bool,
}

/// A simulated read: error-bearing bases plus ground-truth origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Index of the read within its simulation batch.
    pub id: u64,
    /// The (possibly error-mutated) read sequence.
    pub bases: PackedSeq,
    /// Where the template window came from.
    pub origin: ReadOrigin,
}

impl Read {
    /// Read length in bases (after errors; may differ from the template).
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// `true` iff the read has no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

impl ReadOrigin {
    /// The error-free template this origin denotes: the reference window,
    /// reverse-complemented for reverse-strand origins.
    pub fn template(&self, genome: &Genome) -> Vec<Base> {
        if self.reverse {
            genome.revcomp_window(self.start, self.template_len)
        } else {
            genome.seq().slice(self.start, self.template_len)
        }
    }
}

/// Reads `origin`'s template out of the genome and applies per-base errors.
fn sequence_template(
    genome: &Genome,
    origin: ReadOrigin,
    profile: &ErrorProfile,
    rng: &mut SeededRng,
) -> PackedSeq {
    let template = origin.template(genome);
    let mut out = PackedSeq::with_capacity(template.len());
    for &b in &template {
        // One roll per template base selects among the disjoint error bands
        // [0, del) | [del, del+ins) | [del+ins, del+ins+sub) | rest = exact.
        let mut roll = rng.f64();
        if roll < profile.deletion {
            continue;
        }
        roll -= profile.deletion;
        if roll < profile.insertion {
            out.push(rng.base());
            out.push(b);
            continue;
        }
        roll -= profile.insertion;
        if roll < profile.substitution {
            out.push(rng.base_other_than(b));
        } else {
            out.push(b);
        }
    }
    out
}

/// Uniformly samples a template window of `len` bases and a strand.
fn sample_origin(genome: &Genome, len: usize, rng: &mut SeededRng) -> ReadOrigin {
    ReadOrigin {
        start: rng.range(0, genome.len() - len + 1),
        template_len: len,
        reverse: rng.chance(0.5),
    }
}

/// Fixed-length short-read simulator (Illumina-style).
#[derive(Debug, Clone)]
pub struct ShortReadSimulator {
    read_len: usize,
    profile: ErrorProfile,
}

impl ShortReadSimulator {
    /// A simulator producing reads of exactly `read_len` template bases.
    pub fn new(read_len: usize, profile: ErrorProfile) -> ShortReadSimulator {
        assert!(read_len > 0, "read length must be positive");
        ShortReadSimulator { read_len, profile }
    }

    /// Simulates `count` reads from uniformly random positions and strands.
    ///
    /// # Panics
    ///
    /// Panics if the genome is shorter than the read length.
    pub fn simulate(&self, genome: &Genome, count: usize, seed: u64) -> Vec<Read> {
        assert!(
            genome.len() >= self.read_len,
            "genome ({} bp) shorter than read length ({})",
            genome.len(),
            self.read_len
        );
        let mut rng = SeededRng::new(seed);
        (0..count as u64)
            .map(|id| {
                let mut read_rng = rng.fork();
                let origin = sample_origin(genome, self.read_len, &mut read_rng);
                let bases = sequence_template(genome, origin, &self.profile, &mut read_rng);
                Read { id, bases, origin }
            })
            .collect()
    }
}

/// Variable-length long-read simulator (PacBio/ONT-style).
///
/// Template lengths are `min_len` plus an exponential tail with the given
/// mean, truncated to the genome length — the standard PBSIM length model.
#[derive(Debug, Clone)]
pub struct LongReadSimulator {
    mean_len: usize,
    min_len: usize,
    profile: ErrorProfile,
}

impl LongReadSimulator {
    /// A simulator with mean template length `mean_len` (must be at least
    /// `min_len`, the shortest read emitted).
    pub fn new(mean_len: usize, min_len: usize, profile: ErrorProfile) -> LongReadSimulator {
        assert!(min_len > 0, "minimum read length must be positive");
        assert!(mean_len >= min_len, "mean length below minimum");
        LongReadSimulator {
            mean_len,
            min_len,
            profile,
        }
    }

    /// Draws a template length: `min_len + Exp(mean_len - min_len)`.
    fn sample_len(&self, rng: &mut SeededRng, max: usize) -> usize {
        let tail = (self.mean_len - self.min_len) as f64;
        let draw = if tail > 0.0 {
            // Inverse-CDF sample of an exponential; f64() < 1 keeps ln finite.
            (-tail * (1.0 - rng.f64()).ln()).round() as usize
        } else {
            0
        };
        (self.min_len + draw).min(max)
    }

    /// Simulates `count` reads from uniformly random positions and strands.
    ///
    /// # Panics
    ///
    /// Panics if the genome is shorter than the minimum read length.
    pub fn simulate(&self, genome: &Genome, count: usize, seed: u64) -> Vec<Read> {
        assert!(
            genome.len() >= self.min_len,
            "genome ({} bp) shorter than minimum read length ({})",
            genome.len(),
            self.min_len
        );
        let mut rng = SeededRng::new(seed);
        (0..count as u64)
            .map(|id| {
                let mut read_rng = rng.fork();
                let len = self.sample_len(&mut read_rng, genome.len());
                let origin = sample_origin(genome, len, &mut read_rng);
                let bases = sequence_template(genome, origin, &self.profile, &mut read_rng);
                Read { id, bases, origin }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeProfile;

    /// PacBio CLR long reads: ~15% total error, dominated by insertions
    /// (the PBSIM CLR model).
    const CLR: ErrorProfile = ErrorProfile {
        substitution: 0.014,
        insertion: 0.110,
        deletion: 0.040,
    };

    fn toy_genome() -> Genome {
        Genome::synthesize(&GenomeProfile::toy(), 42)
    }

    #[test]
    fn error_free_short_reads_match_reference() {
        let genome = toy_genome();
        let sim = ShortReadSimulator::new(100, ErrorProfile::error_free());
        for read in sim.simulate(&genome, 50, 7) {
            assert_eq!(read.len(), 100);
            let expect = read.origin.template(&genome);
            assert_eq!(read.bases.to_vec(), expect, "read {}", read.id);
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let genome = toy_genome();
        let sim = ShortReadSimulator::new(75, ErrorProfile::illumina());
        assert_eq!(sim.simulate(&genome, 20, 9), sim.simulate(&genome, 20, 9));
    }

    #[test]
    fn origins_stay_in_bounds() {
        let genome = toy_genome();
        let sim = LongReadSimulator::new(2_000, 500, CLR);
        for read in sim.simulate(&genome, 50, 3) {
            assert!(read.origin.start + read.origin.template_len <= genome.len());
            assert!(read.origin.template_len >= 500);
        }
    }

    #[test]
    fn illumina_error_rate_is_low() {
        // With 0.12% total error, 100 reads x 100 bp ≈ 12 errored bases;
        // mismatches against the template must stay well under 1%.
        let genome = toy_genome();
        let sim = ShortReadSimulator::new(100, ErrorProfile::illumina());
        let reads = sim.simulate(&genome, 100, 11);
        let mut mismatches = 0usize;
        let mut total = 0usize;
        for read in &reads {
            let template = read.origin.template(&genome);
            // Illumina indels are rare enough that most reads align 1:1.
            if read.len() == template.len() {
                total += template.len();
                mismatches += template
                    .iter()
                    .zip(read.bases.iter())
                    .filter(|(&t, r)| t != *r)
                    .count();
            }
        }
        assert!(total > 0);
        let rate = mismatches as f64 / total as f64;
        assert!(rate < 0.01, "observed substitution rate {rate}");
    }

    #[test]
    fn pacbio_reads_carry_heavy_errors() {
        // 15%+ per-base error must leave visible length drift (insertions
        // dominate, so reads run longer than their templates on average).
        let genome = toy_genome();
        let sim = LongReadSimulator::new(1_000, 200, CLR);
        let reads = sim.simulate(&genome, 100, 13);
        let grew = reads
            .iter()
            .filter(|r| r.len() > r.origin.template_len)
            .count();
        assert!(
            grew > 60,
            "only {grew}/100 reads grew under the CLR profile"
        );
    }

    #[test]
    fn long_read_lengths_vary() {
        let genome = toy_genome();
        let sim = LongReadSimulator::new(1_500, 300, ErrorProfile::error_free());
        let reads = sim.simulate(&genome, 100, 17);
        let lens: std::collections::HashSet<usize> =
            reads.iter().map(|r| r.origin.template_len).collect();
        assert!(
            lens.len() > 10,
            "length model collapsed to {} values",
            lens.len()
        );
    }

    #[test]
    fn both_strands_are_sampled() {
        let genome = toy_genome();
        let sim = ShortReadSimulator::new(50, ErrorProfile::error_free());
        let reads = sim.simulate(&genome, 100, 19);
        let reverse = reads.iter().filter(|r| r.origin.reverse).count();
        assert!((20..=80).contains(&reverse), "strand balance {reverse}/100");
    }

    #[test]
    fn published_profiles_have_expected_magnitudes() {
        let total = |p: ErrorProfile| p.substitution + p.insertion + p.deletion;
        assert!(total(ErrorProfile::illumina()) < 0.01);
        assert!((0.10..=0.20).contains(&total(CLR)));
        assert_eq!(total(ErrorProfile::error_free()), 0.0);
    }
}
