//! # exma-genome
//!
//! Genomics substrate for the EXMA reproduction: DNA alphabet and 2-bit
//! packed sequences, k-mers, synthetic reference-genome generation, read
//! simulators with the error profiles used in the paper (Illumina, PacBio,
//! Oxford Nanopore), an O(n) SA-IS suffix-array builder and the
//! Burrows-Wheeler transform.
//!
//! The EXMA paper evaluates on real human (3 Gbp), picea (20 Gbp) and pinus
//! (31 Gbp) genomes sequenced with DWGSim/PBSIM-simulated reads. Those inputs
//! are not redistributable, so this crate generates synthetic genomes with
//! controlled GC bias and repeat structure at matched *relative* sizes, and
//! re-implements the read simulators with the paper's published error rates.
//!
//! ```
//! use exma_genome::{GenomeProfile, Genome, suffix_array, bwt_from_sa};
//!
//! let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
//! let text = genome.text_with_sentinel();
//! let sa = suffix_array(&text);
//! let bwt = bwt_from_sa(&text, &sa);
//! assert_eq!(bwt.len(), text.len());
//! ```

pub mod alphabet;
pub mod bwt;
pub mod genome;
pub mod kmer;
pub mod reads;
pub mod rng;
pub mod seq;
pub mod suffix;

pub use alphabet::{Base, Symbol, SENTINEL_CODE, SYMBOL_ALPHABET};
pub use bwt::bwt_from_sa;
pub use genome::{Genome, GenomeProfile};
pub use kmer::Kmer;
pub use reads::{ErrorProfile, LongReadSimulator, Read, ReadOrigin, ShortReadSimulator};
pub use rng::SeededRng;
pub use seq::PackedSeq;
pub use suffix::{naive_suffix_array, suffix_array};
