//! The [`Executor`] trait: one execution surface for every engine.
//!
//! An executor takes a [`QueryBatch`] — any mix of count, (capped)
//! locate, and interval requests — and answers it in one run. The
//! lockstep engines share a single pipeline shape regardless of the
//! mix: **every** query's backward search advances through the same
//! lockstep round-loop (an interval is what all three operations need
//! first) until it is finished or *cut* (`batch.rs`: narrow enough that
//! the text finishes it sooner); then every locate query's interval rows
//! and every cut query's feed one shared resolver worklist; then a cut
//! query's positions are checked against the text, and counts and
//! intervals are read straight off the search result. The sequential
//! index types implement the same trait query-by-query and uncut, which
//! is what makes them drop-in oracles and baselines for the benchmark
//! harness's uniform enumeration.
//!
//! Construct executors through [`crate::EngineBuilder`] — it is the one
//! place index parameters, schedules and thread counts combine.

use std::ops::Range;

use exma_genome::Base;
use exma_index::bidir::{forward_len, map_hits_in_place};
use exma_index::{resolve_capped_with_arena, FmIndex, HeapBreakdown, KStepFmIndex, UNCAPPED};

use crate::batch::{BatchEngine, BatchStats};
use crate::query::{QueryArena, QueryBatch, QueryOutput, QueryRequest, QueryResults};
use crate::shard::ShardedEngine;

/// How many cut queries ahead of the one being compared the engine hints
/// the text lines of: a cut is at most [`crate::batch::CUT_ROWS`] rows, so
/// this leads by about sixteen comparisons, as the resolver leads its
/// walks.
const CUT_LOOKAHEAD: usize = 8;

/// A query engine that can answer a mixed-operation [`QueryBatch`].
///
/// Implemented by the sequential indexes ([`FmIndex`],
/// [`KStepFmIndex`]), the lockstep [`BatchEngine`], and the
/// multi-threaded [`ShardedEngine`]. Answers are engine-independent:
/// every implementation returns identical [`QueryResults`] for the same
/// batch over the same text — capped locates included — which the
/// property suites enforce and the benchmark verifies on every run.
pub trait Executor {
    /// Runs `batch` through `arena`, leaving the answers in
    /// `arena.results()`. A caller that keeps one arena across
    /// submissions reaches a steady state where the single-threaded
    /// executors allocate nothing. (A multi-threaded [`ShardedEngine`]
    /// still allocates worker-local scratch per call — only its merged
    /// results pool in the caller's arena — so latency-critical
    /// single-submission loops should use a one-thread executor.)
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats;

    /// One-shot convenience over [`Executor::run_into`] with a fresh
    /// arena.
    fn run(&self, batch: &QueryBatch) -> (QueryResults, BatchStats) {
        let mut arena = QueryArena::new();
        let stats = self.run_into(batch, &mut arena);
        (arena.take_results(), stats)
    }

    /// Exact per-component heap attribution of the index structures this
    /// executor queries. Executors that share one index (every lockstep
    /// and sharded engine attached to it) report the same breakdown —
    /// the bytes exist once, however many executors borrow them.
    fn heap_breakdown(&self) -> HeapBreakdown;
}

impl<E: Executor + ?Sized> Executor for &E {
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        (**self).run_into(batch, arena)
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        (**self).heap_breakdown()
    }
}

/// Sequential execution: one query at a time through `search`, locates
/// resolved per-row through `fm`. The reference semantics every
/// lockstep executor must reproduce — including the capped-locate
/// selection rule, which [`FmIndex::resolve_range_capped_into`]
/// defines.
fn run_sequential(
    batch: &QueryBatch,
    arena: &mut QueryArena,
    fm: &FmIndex,
    search: impl Fn(&[Base]) -> Range<usize>,
) -> BatchStats {
    let QueryArena {
        results, seq_buf, ..
    } = arena;
    results.reset(batch.len());
    for i in 0..batch.len() {
        let interval = search(batch.pattern(i));
        match batch.request(i) {
            QueryRequest::Count => results.push_tag(QueryOutput::Count(interval.len() as u32)),
            QueryRequest::Interval => results.push_tag(QueryOutput::Interval {
                lo: interval.start as u32,
                hi: interval.end as u32,
            }),
            QueryRequest::Locate { max_hits } => {
                let truncated =
                    fm.resolve_range_capped_into(interval, max_hits.unwrap_or(UNCAPPED), seq_buf);
                results.push_positions(seq_buf, truncated);
            }
            QueryRequest::SearchBoth { max_hits } => {
                // Resolve the raw doubled-text interval uncapped —
                // straddlers and palindrome duplicates are only known
                // after mapping — then map, sort, and apply the cap to
                // the smallest (position, strand) hits.
                fm.resolve_range_capped_into(interval, UNCAPPED, seq_buf);
                let valid =
                    map_hits_in_place(seq_buf, batch.pattern(i), forward_len(fm.text_len()));
                let kept = (max_hits.unwrap_or(UNCAPPED) as usize).min(valid);
                seq_buf.truncate(kept);
                results.push_both_positions(seq_buf, kept < valid);
            }
        }
    }
    // Sequential executors are baselines, not schedulers: they track no
    // lockstep counters.
    BatchStats::default()
}

impl Executor for FmIndex {
    /// The 1-step sequential baseline — and the oracle every other
    /// executor is verified against.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        run_sequential(batch, arena, self, |p| self.backward_search(p))
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        FmIndex::heap_breakdown(self)
    }
}

impl Executor for KStepFmIndex {
    /// The k-step sequential baseline: k symbols per refinement, still
    /// one query at a time.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        run_sequential(batch, arena, self.base_index(), |p| self.backward_search(p))
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        KStepFmIndex::heap_breakdown(self)
    }
}

impl BatchEngine<'_> {
    /// The mixed-batch lockstep pipeline over raw request/pattern
    /// slices — [`Executor::run_into`] for this engine, and the unit of
    /// work a [`ShardedEngine`] worker runs on its shard.
    pub(crate) fn run_slice(
        &self,
        requests: &[QueryRequest],
        patterns: &[Vec<Base>],
        arena: &mut QueryArena,
    ) -> BatchStats {
        debug_assert_eq!(requests.len(), patterns.len());
        let QueryArena {
            results,
            intervals,
            locate_intervals,
            caps,
            locate_offsets,
            cuts,
            search,
            resolve,
            seq_buf,
        } = arena;

        // Phase 1 — one lockstep search round-loop for the whole batch:
        // counts, locates and interval requests all need the suffix-array
        // interval first, so the mix is invisible to the scheduler. A
        // query the loop cut comes back with the interval of its
        // pattern's last symbols and the number still unmatched.
        let mut stats = self.search_core(requests, patterns, intervals, search);
        let unmatched = &search.unmatched;

        // Phase 2 — every locate query's interval feeds one shared
        // resolver worklist, with its cap riding along, and so does every
        // cut query's: its rows must all be walked (a cut is never wider
        // than its request may answer), whatever the request.
        locate_intervals.clear();
        caps.clear();
        cuts.clear();
        for (i, request) in requests.iter().enumerate() {
            let cap = if unmatched[i] > 0 {
                cuts.push((unmatched[i], locate_intervals.len() as u32));
                Some(UNCAPPED)
            } else {
                request.resolver_cap()
            };
            if let Some(cap) = cap {
                locate_intervals.push(intervals[i].clone());
                caps.push(cap);
            }
        }
        results.reset(requests.len());
        let resolved = resolve_capped_with_arena(
            self.index().base_index(),
            self.config().resolve,
            locate_intervals,
            caps,
            results.flat_mut(),
            locate_offsets,
            resolve,
        );
        stats.resolve_rounds = resolved.rounds;
        stats.resolve_lf_steps = resolved.lf_steps;
        stats.cursors_retired = resolved.retired;
        stats.cursors_dropped = resolved.dropped;

        // Phase 3 — tag every query, mapping the resolver's pooled
        // regions (in resolving-query order == query order restricted
        // to locates, strand searches and cut queries) back onto the
        // full batch. Regions shrink in place — a cut query keeps only
        // the positions the text confirms, and its count keeps none; a
        // SearchBoth region holds *raw doubled-text* positions, of which
        // straddlers and palindrome duplicates drop and the post-mapping
        // cap truncates — so the pool is compacted left as it is
        // walked, and later regions shift down by the accumulated
        // shrink.
        let index = self.index();
        let n = forward_len(index.text_len());
        let mut next_resolved = 0;
        let mut next_cut = 0;
        let mut shrink = 0;
        for (i, request) in requests.iter().enumerate() {
            let interval = &intervals[i];
            let left = unmatched[i] as usize;
            match *request {
                QueryRequest::Interval => {
                    results.push_tag(QueryOutput::Interval {
                        lo: interval.start as u32,
                        hi: interval.end as u32,
                    });
                    continue;
                }
                QueryRequest::Count if left == 0 => {
                    results.push_tag(QueryOutput::Count(interval.len() as u32));
                    continue;
                }
                _ => {}
            }
            let (start, full_end) = (
                locate_offsets[next_resolved],
                locate_offsets[next_resolved + 1],
            );
            next_resolved += 1;
            let flat = results.flat_mut();
            // A cut query's region holds where its matched suffix
            // occurs: keep the positions with the unmatched prefix in
            // front of them, as where the whole pattern starts.
            let mut end = full_end;
            if left > 0 {
                if let Some(&(ahead, region)) = cuts.get(next_cut + CUT_LOOKAHEAD) {
                    let (from, to) = (
                        locate_offsets[region as usize],
                        locate_offsets[region as usize + 1],
                    );
                    for &pos in &flat[from..to] {
                        index.prefetch_text(pos.saturating_sub(ahead) as usize);
                        index.prefetch_text(pos as usize);
                    }
                }
                next_cut += 1;
                end = start;
                for at in start..full_end {
                    let pos = flat[at] as usize;
                    if index.text_ends_with(pos, &patterns[i][..left]) {
                        flat[end] = (pos - left) as u32;
                        end += 1;
                    }
                }
                stats.rows_rejected += full_end - end;
            }
            match *request {
                QueryRequest::SearchBoth { max_hits } => {
                    seq_buf.clear();
                    seq_buf.extend_from_slice(&flat[start..end]);
                    let valid = map_hits_in_place(seq_buf, &patterns[i], n);
                    let kept = (max_hits.unwrap_or(UNCAPPED) as usize).min(valid);
                    flat[start - shrink..start - shrink + kept].copy_from_slice(&seq_buf[..kept]);
                    shrink += (full_end - start) - kept;
                    results.push_both_located(kept, kept < valid);
                }
                QueryRequest::Locate { .. } => {
                    if shrink > 0 {
                        flat.copy_within(start..end, start - shrink);
                    }
                    shrink += full_end - end;
                    // A cut locate was no wider than its cap.
                    let truncated = left == 0 && end - start < interval.len();
                    results.push_located(end - start, truncated);
                }
                // A cut count: its region leaves the pool.
                QueryRequest::Count => {
                    shrink += full_end - start;
                    results.push_tag(QueryOutput::Count((end - start) as u32));
                }
                QueryRequest::Interval => unreachable!("tagged above: never resolved"),
            }
        }
        if shrink > 0 {
            let total = *locate_offsets.last().expect("resolver ran");
            results.flat_mut().truncate(total - shrink);
        }
        stats
    }
}

impl Executor for BatchEngine<'_> {
    /// Lockstep execution: one shared search round-loop, then one
    /// shared resolver worklist for every locate interval.
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        self.run_slice(batch.requests(), batch.patterns(), arena)
    }

    fn heap_breakdown(&self) -> HeapBreakdown {
        self.index().heap_breakdown()
    }
}

impl Executor for ShardedEngine<'_> {
    /// Sharded execution: contiguous query shards, one worker each,
    /// per-shard pools stitched back into input order. With one thread
    /// (or at most one query) this short-circuits to the serial
    /// [`BatchEngine`] path in the caller's arena — no scoped-thread
    /// spawn, no merge copy, so a `threads == 1` executor costs exactly
    /// what the serial engine costs (PR 4 measured the spawn tax at
    /// ~1-2% on the single-core bench box).
    fn run_into(&self, batch: &QueryBatch, arena: &mut QueryArena) -> BatchStats {
        let engine = BatchEngine::with_config(self.index(), self.config());
        if self.threads() == 1 || batch.len() <= 1 {
            return engine.run_into(batch, arena);
        }
        let shard_len = batch.len().div_ceil(self.threads());
        let shards: Vec<(QueryResults, BatchStats)> = std::thread::scope(|scope| {
            let workers: Vec<_> = batch
                .shards(shard_len)
                .map(|(requests, patterns)| {
                    scope.spawn(move || {
                        let mut arena = QueryArena::new();
                        let stats = engine.run_slice(requests, patterns, &mut arena);
                        (arena.take_results(), stats)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("shard worker panicked"))
                .collect()
        });
        let mut stats = BatchStats::default();
        arena.results.reset(batch.len());
        for (results, shard_stats) in &shards {
            arena.results.append(results);
            stats.absorb_shard(*shard_stats);
        }
        stats
    }

    /// Workers share the one borrowed index, so the footprint is the
    /// index's — not `threads ×` anything.
    fn heap_breakdown(&self) -> HeapBreakdown {
        self.index().heap_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    fn fig3_batch() -> (KStepFmIndex, QueryBatch) {
        let index = KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), 2);
        // The paper's running example, one query per operation shape:
        // hits, a multi-occurrence locate, a capped locate, a miss, an
        // interval, and the empty pattern.
        let batch = QueryBatch::new()
            .count(parse_bases("A").unwrap())
            .locate(parse_bases("A").unwrap())
            .locate_capped(parse_bases("A").unwrap(), 2)
            .locate(parse_bases("GG").unwrap())
            .interval(parse_bases("TA").unwrap())
            .count(parse_bases("").unwrap());
        (index, batch)
    }

    #[test]
    fn every_executor_agrees_on_the_fig3_batch() {
        let (index, batch) = fig3_batch();
        let one = FmIndex::from_text(&text_from_str("CATAGA").unwrap());
        let (expected, _) = (&one as &dyn Executor).run(&batch);
        assert_eq!(expected.count(0), 3);
        assert_eq!(expected.positions(1), &[1, 3, 5]);
        assert_eq!(expected.positions(2).len(), 2);
        assert_eq!(expected.output(2), QueryOutput::Located { truncated: true });
        assert_eq!(expected.positions(3), &[] as &[u32]);
        assert_eq!(
            expected.output(3),
            QueryOutput::Located { truncated: false }
        );
        assert_eq!(expected.interval(4).map(|r| r.len()), Some(1));
        assert_eq!(expected.count(5), 7);

        let executors: Vec<Box<dyn Executor + '_>> = vec![
            Box::new(&index),
            Box::new(BatchEngine::new(&index)),
            Box::new(BatchEngine::with_config(&index, BatchConfig::locality())),
            Box::new(ShardedEngine::new(&index, 1)),
            Box::new(ShardedEngine::new(&index, 3)),
        ];
        for (e, exec) in executors.iter().enumerate() {
            assert_eq!(exec.run(&batch).0, expected, "executor #{e}");
        }
    }

    #[test]
    fn arena_reuse_returns_identical_results() {
        let (index, batch) = fig3_batch();
        let engine = BatchEngine::with_config(&index, BatchConfig::locality());
        let mut arena = QueryArena::new();
        engine.run_into(&batch, &mut arena);
        let first = arena.results().clone();
        let stats = engine.run_into(&batch, &mut arena);
        assert_eq!(arena.results(), &first);
        assert!(stats.rounds > 0);
        // A different batch through the same arena must not leak state.
        let tiny = QueryBatch::new().count(parse_bases("GA").unwrap());
        engine.run_into(&tiny, &mut arena);
        assert_eq!(arena.results().len(), 1);
        assert_eq!(arena.results().count(0), 1);
        assert_eq!(arena.results().total_positions(), 0);
    }

    #[test]
    fn empty_batches_are_fine_everywhere() {
        let (index, _) = fig3_batch();
        let empty = QueryBatch::new();
        for exec in [
            Box::new(BatchEngine::new(&index)) as Box<dyn Executor>,
            Box::new(ShardedEngine::new(&index, 4)),
            Box::new(&index as &KStepFmIndex),
        ] {
            let (results, stats) = exec.run(&empty);
            assert!(results.is_empty());
            assert_eq!(results.total_positions(), 0);
            assert_eq!(stats.peak_live, 0);
        }
    }

    #[test]
    fn mixed_stats_cover_search_and_resolve() {
        let (index, batch) = fig3_batch();
        let (results, stats) = BatchEngine::new(&index).run(&batch);
        // 5 non-empty patterns search; 3 locate queries resolve.
        assert_eq!(stats.peak_live, 5);
        assert!(stats.rounds >= 1);
        assert!(stats.resolve_rounds >= 1);
        // Cursors dropped only because of the capped locate.
        assert!(stats.cursors_retired >= results.total_positions());
        let uncapped = QueryBatch::new().locate(parse_bases("A").unwrap());
        let (_, ustats) = BatchEngine::new(&index).run(&uncapped);
        assert_eq!(ustats.cursors_dropped, 0);
    }
}
