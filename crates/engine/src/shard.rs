//! Multi-threaded query sharding over the batch engine.
//!
//! A batch of queries is embarrassingly parallel: queries never exchange
//! state, and the [`exma_index::KStepFmIndex`] is read-only and `Sync`.
//! The [`crate::Executor`] impl of [`ShardedEngine`] splits a
//! [`crate::QueryBatch`] into contiguous shards — one per worker — and
//! runs each shard's lockstep rounds (search *and* locate resolution) on
//! its own [`std::thread::scope`] thread. Scoped threads keep the engine
//! dependency-free (no rayon, the container builds offline) while still
//! borrowing the index and patterns without `Arc` plumbing. Results come
//! back in input order; per-shard [`crate::BatchStats`] are merged. With
//! `threads == 1` the sharded path short-circuits to the serial
//! [`crate::BatchEngine`] — no spawn, no merge — so a one-thread
//! executor costs exactly what the serial engine costs.

use exma_index::KStepFmIndex;

/// A sharded, multi-threaded batch engine over a [`KStepFmIndex`].
///
/// Each of `threads` workers runs a [`crate::BatchEngine`] on one
/// contiguous shard of the batch. Answers are identical to
/// single-threaded execution for any thread count — shard boundaries
/// only move work between workers, never change it — and are
/// property-tested to be.
///
/// Run it through the [`crate::Executor`] trait with a
/// [`crate::QueryBatch`]; construct it through [`crate::EngineBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedEngine<'a> {
    index: &'a KStepFmIndex,
    threads: usize,
}

impl<'a> ShardedEngine<'a> {
    /// An engine borrowing `index`, sharding across `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(index: &'a KStepFmIndex, threads: usize) -> ShardedEngine<'a> {
        assert!(threads > 0, "thread count must be positive");
        ShardedEngine { index, threads }
    }

    /// The index this engine queries.
    pub fn index(&self) -> &'a KStepFmIndex {
        self.index
    }

    /// Number of worker threads a batch is sharded across.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchEngine, BatchStats};
    use crate::exec::Executor;
    use crate::query::{QueryBatch, QueryOutput, QueryRequest};
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    fn fig3_batch() -> (KStepFmIndex, QueryBatch) {
        let index = KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), 2);
        let mut batch = QueryBatch::new();
        for (i, p) in ["A", "TA", "AGA", "CATAGA", "GG", ""].iter().enumerate() {
            let pattern = parse_bases(p).unwrap();
            match i % 3 {
                0 => batch.push(QueryRequest::Count, pattern),
                1 => batch.push(QueryRequest::locate(), pattern),
                _ => batch.push(QueryRequest::Interval, pattern),
            }
        }
        (index, batch)
    }

    #[test]
    fn any_thread_count_matches_the_batch_engine() {
        let (index, batch) = fig3_batch();
        let (expected, expected_stats) = BatchEngine::new(&index).run(&batch);
        for threads in [1usize, 2, 3, 6, 9] {
            let (results, stats) = ShardedEngine::new(&index, threads).run(&batch);
            assert_eq!(results, expected, "{threads} threads");
            // Sharding moves work between workers but never changes its
            // total; no shard can run more rounds than the whole batch's
            // longest query.
            assert_eq!(stats.steps, expected_stats.steps, "{threads} threads");
            assert_eq!(stats.peak_live, expected_stats.peak_live);
            assert_eq!(stats.cursors_retired, expected_stats.cursors_retired);
            assert_eq!(stats.resolve_lf_steps, expected_stats.resolve_lf_steps);
            assert!(stats.rounds <= expected_stats.rounds);
            assert!(stats.resolve_rounds <= expected_stats.resolve_rounds);
        }
    }

    #[test]
    fn one_thread_short_circuits_to_the_serial_engine() {
        // threads == 1 must take the serial path — identical results AND
        // identical stats shape (a spawned shard would still merge, but
        // the short-circuit is observable through the arena: the serial
        // path pools into the caller's arena with no append pass).
        let (index, batch) = fig3_batch();
        let serial = BatchEngine::new(&index);
        let sharded = ShardedEngine::new(&index, 1);
        let mut arena = crate::query::QueryArena::new();
        let stats = sharded.run_into(&batch, &mut arena);
        let (expected, expected_stats) = serial.run(&batch);
        assert_eq!(arena.results(), &expected);
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn mixed_outputs_survive_ragged_sharding() {
        let (index, batch) = fig3_batch();
        // 6 queries on 4 threads: shards of 2, 2, 2 — and on 5 threads:
        // 2, 2, 2 ragged. Tags must come back in input order either way.
        for threads in [4usize, 5] {
            let (results, _) = ShardedEngine::new(&index, threads).run(&batch);
            assert!(matches!(results.output(0), QueryOutput::Count(3)));
            assert_eq!(results.positions(1), &[2]);
            assert!(results.interval(2).is_some());
            assert!(matches!(results.output(3), QueryOutput::Count(1)));
            assert_eq!(results.positions(4), &[] as &[u32]);
            assert_eq!(results.interval(5), Some(0..7));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (index, _) = fig3_batch();
        let (results, stats) = ShardedEngine::new(&index, 4).run(&QueryBatch::new());
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_is_rejected() {
        let (index, _) = fig3_batch();
        let _ = ShardedEngine::new(&index, 0);
    }
}
