//! # exma-engine
//!
//! The batched query engine of the EXMA reproduction. The paper's
//! accelerator owes as much to *scheduling* as to the k-step index: many
//! in-flight queries advance in lockstep rounds — one LF refinement per
//! live query per round — so consecutive accesses hit the same occurrence
//! table regions instead of chasing one query's dependent chain at a time
//! (§III-C). Queries whose suffix-array interval empties are dropped from
//! the round immediately, which on real read sets (where most error-bearing
//! seeds match nothing) shrinks the working set round over round.
//!
//! The crate exposes one execution surface for all of it: a typed
//! [`QueryBatch`] carries any mix of [`QueryRequest::Count`],
//! [`QueryRequest::Locate`] (optionally hit-capped) and
//! [`QueryRequest::Interval`] queries, and an [`Executor`] answers the
//! whole batch in one run with pooled [`QueryResults`]. The lockstep
//! implementations share one pipeline regardless of the mix: every
//! query's backward search advances through the same round-loop —
//! optionally software-prefetched ([`BatchConfig`]) — until it is
//! finished or its interval is down to a row or two, and then every
//! locate query's interval rows, and the rows of every search that
//! stopped early, feed one shared lockstep resolver worklist
//! ([`exma_index::BatchResolver`]'s machinery) that retires positions
//! into the pooled buffer, honoring per-query `max_hits` caps at round
//! boundaries; a search that stopped early is finished by comparing the
//! rest of its pattern with the text at those positions (the [`batch`]
//! module docs say why the answer is the same). [`ShardedEngine`] splits a batch across scoped threads
//! (short-circuiting to the serial path at one thread), and a reusable
//! [`QueryArena`] makes steady-state submissions allocation-free.
//! [`EngineBuilder`] is the one place index parameters, schedules, and
//! thread counts combine into an executor — each combination deriving a
//! canonical descriptor string that names it.
//!
//! ```
//! use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryOutput};
//! use exma_genome::{Genome, GenomeProfile};
//! use exma_index::FmIndex;
//!
//! let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
//! let builder = EngineBuilder::new().k(4);
//! let index = builder.build_index(&genome.text_with_sentinel()).unwrap();
//! let engine = builder.attach(&index).unwrap();
//!
//! // One submission, three operations.
//! let batch = QueryBatch::new()
//!     .count(genome.seq().slice(100, 21))
//!     .locate(genome.seq().slice(500, 33))
//!     .locate_capped(genome.seq().slice(40, 3), 4);
//! let (results, stats) = engine.run(&batch);
//!
//! let one_step = FmIndex::from_genome(&genome);
//! assert_eq!(results.count(0), one_step.count(&genome.seq().slice(100, 21)));
//! assert_eq!(
//!     results.positions(1),
//!     &one_step.locate(&genome.seq().slice(500, 33))[..]
//! );
//! assert!(results.positions(2).len() <= 4);
//! assert!(stats.rounds >= 1);
//! ```

pub mod batch;
pub mod builder;
pub mod exec;
pub mod query;
pub mod shard;

pub use batch::{BatchConfig, BatchEngine, BatchStats, DEFAULT_PREFETCH_DISTANCE};
pub use builder::{EngineBuilder, EngineError, IndexLayout};
pub use exec::Executor;
// The index-layer types the engine surface returns, so engine users need
// not depend on `exma_index` directly.
pub use exma_index::{HeapBreakdown, IndexError, SnapshotError};
pub use query::{QueryArena, QueryBatch, QueryOutput, QueryRequest, QueryResults};
pub use shard::ShardedEngine;
