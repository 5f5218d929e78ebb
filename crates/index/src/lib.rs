//! # exma-index
//!
//! The FM-index exact-match engine of the EXMA reproduction. This crate is
//! the software baseline the paper accelerates: a sampled occurrence table
//! (checkpointed rank over the BWT), the C-array, LF-mapping, `count` by
//! backward search and `locate` through a sampled suffix array — built on
//! the suffix-array/BWT substrate of [`exma_genome`]. The k-step variant
//! ([`KStepFmIndex`]) widens the LF alphabet to k-mers (paper §III),
//! consuming k pattern symbols per refinement with answers byte-identical
//! to the 1-step index.
//!
//! ```
//! use exma_genome::{Genome, GenomeProfile};
//! use exma_index::{naive, FmIndex};
//!
//! let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
//! let fm = FmIndex::from_genome(&genome);
//!
//! // A 16-mer sampled from the reference is found where it came from...
//! let pattern = genome.seq().slice(1000, 16);
//! assert!(fm.locate(&pattern).contains(&1000));
//! // ...and the index agrees with a brute-force scan.
//! assert_eq!(fm.count(&pattern), naive::count(genome.seq(), &pattern));
//! ```

pub mod bidir;
pub mod fm;
pub mod interleave;
pub mod kocc;
pub mod kstep;
pub mod layout;
mod lookup;
pub mod naive;
pub mod occ;
pub mod resolve;
pub mod sampled_sa;
pub mod snapshot;
mod text;

pub use bidir::{decode_hit, doubled_text, encode_hit, is_palindromic, Strand};
pub use fm::FmIndex;
pub use kocc::KmerOccTable;
pub use kstep::{KStepBuildConfig, KStepFmIndex, MAX_STEP};
pub use layout::{HeapBreakdown, IndexError};
pub use occ::OccTable;
pub use resolve::{
    resolve_capped_with_arena, BatchResolver, ResolveArena, ResolveConfig, ResolveStats, UNCAPPED,
};
pub use sampled_sa::{RankBits, SampledSuffixArray};
pub use snapshot::{
    decode_snapshot, encode_snapshot, load_snapshot, load_snapshot_expecting, write_snapshot,
    SnapshotError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC,
};
