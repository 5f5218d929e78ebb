//! The typed query surface: requests, batches, pooled results, and the
//! reusable arena every [`crate::Executor`] runs through.
//!
//! Four PRs of hot-path work left the engine with six overlapping
//! entry points (`search_batch`, `count_batch`, `run_locate`, ...), each
//! fixing one operation for the whole batch. A production batch is not
//! that uniform: a read mapper counts some seeds, locates others — often
//! with a per-seed hit cap — and wants raw suffix-array intervals for
//! the rest. This module replaces the per-op methods with data: a
//! [`QueryRequest`] names the operation (and its limits) per query, a
//! [`QueryBatch`] carries any mix of them in one submission, and a
//! [`QueryResults`] returns every answer through one pooled buffer —
//! one flat position pool delimited by per-query offsets, with a
//! per-query [`QueryOutput`] tag. A [`QueryArena`] owns every piece of
//! scratch an execution needs, so a caller that keeps one arena across
//! submissions allocates nothing in steady state.

use std::ops::Range;

use exma_genome::Base;
use exma_index::{ResolveArena, UNCAPPED};

use crate::batch::{SearchScratch, CUT_ROWS};

/// What one query of a [`QueryBatch`] asks for.
///
/// `#[non_exhaustive]`: the ROADMAP names future request shapes
/// (approximate search, document listing), so out-of-crate matches must
/// carry a wildcard arm — a wire decoder, for instance, maps unknown
/// shapes to an error frame instead of failing to compile when one
/// lands.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRequest {
    /// Number of occurrences of the pattern.
    Count,
    /// Occurrence positions, optionally capped: with `max_hits: Some(h)`
    /// a pattern whose suffix-array interval is `lo..hi` answers the text
    /// positions of rows `lo .. lo + min(hi - lo, h)`, sorted ascending —
    /// the `h` occurrences whose suffixes come first in the text — and is
    /// flagged truncated iff `hi - lo > h`. Only those rows are walked,
    /// so the cap bounds the work, and the rule is defined on the text:
    /// no sampling rate, layout, `k` or thread count changes it.
    Locate {
        /// `None` resolves every occurrence.
        max_hits: Option<u32>,
    },
    /// The raw suffix-array interval of the pattern — for callers that
    /// schedule their own resolution or cache intervals across batches.
    Interval,
    /// Strand-agnostic occurrence positions over a bidirectional
    /// (doubled-text) index: forward hits plus reverse-complement hits
    /// mapped back to forward coordinates, each answer an
    /// [`exma_index::bidir::encode_hit`] value carrying its strand bit.
    /// Palindromic patterns report each site once, tagged forward (see
    /// [`exma_index::bidir`] for the dedup rule). The cap keeps the
    /// `max_hits` *smallest* `(position, strand)` hits after mapping, a
    /// rule of its own: [`QueryRequest::Locate`] keeps its first rows.
    ///
    /// On a forward-only index the mapping arithmetic still runs but
    /// classifies against a half boundary that does not exist; the
    /// output is deterministic yet meaningless, exactly as a locate
    /// against the wrong reference would be. Build the index with
    /// [`crate::EngineBuilder::bidirectional`] to make it answer.
    SearchBoth {
        /// `None` keeps every strand-agnostic hit.
        max_hits: Option<u32>,
    },
}

impl QueryRequest {
    /// An uncapped locate.
    pub fn locate() -> QueryRequest {
        QueryRequest::Locate { max_hits: None }
    }

    /// A locate returning at most `max_hits` positions.
    pub fn locate_capped(max_hits: u32) -> QueryRequest {
        QueryRequest::Locate {
            max_hits: Some(max_hits),
        }
    }

    /// An uncapped strand-agnostic search.
    pub fn search_both() -> QueryRequest {
        QueryRequest::SearchBoth { max_hits: None }
    }

    /// A strand-agnostic search returning at most `max_hits` hits.
    pub fn search_both_capped(max_hits: u32) -> QueryRequest {
        QueryRequest::SearchBoth {
            max_hits: Some(max_hits),
        }
    }

    /// The resolver-facing cap of a locate request (`None` for the
    /// operations that never feed the resolver). A [`QueryRequest::SearchBoth`]
    /// resolves its raw interval *uncapped*: boundary straddlers and
    /// palindrome duplicates are only identified after mapping, so the
    /// user cap is applied post-mapping to keep the selection
    /// deterministic.
    pub(crate) fn resolver_cap(&self) -> Option<u32> {
        match *self {
            QueryRequest::Locate { max_hits } => Some(max_hits.unwrap_or(UNCAPPED)),
            QueryRequest::SearchBoth { .. } => Some(UNCAPPED),
            _ => None,
        }
    }

    /// Widest interval at which the lockstep engine may stop refining
    /// this request and finish it against the text (the `batch` module
    /// docs): [`CUT_ROWS`], but never more rows than the request may
    /// return — a cut interval's rows are in the order of the pattern's
    /// suffix, not of the pattern, so a locate's cap must not bite a cut
    /// query, and `max_hits` 0 is never cut — and none for an interval
    /// request, whose answer is the interval. A strand search caps after
    /// mapping, so its cap does not bound the raw rows.
    pub(crate) fn cut_rows(&self) -> usize {
        match *self {
            QueryRequest::Count | QueryRequest::SearchBoth { .. } => CUT_ROWS,
            QueryRequest::Locate { max_hits } => {
                CUT_ROWS.min(max_hits.unwrap_or(UNCAPPED) as usize)
            }
            QueryRequest::Interval => 0,
        }
    }
}

/// A batch of typed queries: any mix of counts, (capped) locates, and
/// interval requests, submitted to an [`crate::Executor`] in one call.
///
/// ```
/// use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryOutput};
/// use exma_genome::{Genome, GenomeProfile};
///
/// let genome = Genome::synthesize(&GenomeProfile::toy(), 42);
/// let index = EngineBuilder::new()
///     .k(2)
///     .build_index(&genome.text_with_sentinel())
///     .unwrap();
/// let engine = EngineBuilder::new().k(2).attach(&index).unwrap();
///
/// let batch = QueryBatch::new()
///     .count(genome.seq().slice(100, 21))
///     .locate(genome.seq().slice(500, 33))
///     .locate_capped(genome.seq().slice(40, 4), 5)
///     .interval(genome.seq().slice(900, 12));
/// let (results, _stats) = engine.run(&batch);
///
/// assert!(matches!(results.output(0), QueryOutput::Count(n) if n >= 1));
/// assert!(results.positions(1).contains(&500));
/// assert!(results.positions(2).len() <= 5);
/// assert!(results.interval(3).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryBatch {
    requests: Vec<QueryRequest>,
    patterns: Vec<Vec<Base>>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> QueryBatch {
        QueryBatch::default()
    }

    /// Appends one query.
    pub fn push(&mut self, request: QueryRequest, pattern: impl AsRef<[Base]>) {
        self.requests.push(request);
        self.patterns.push(pattern.as_ref().to_vec());
    }

    /// Appends a count query (builder style).
    pub fn count(mut self, pattern: impl AsRef<[Base]>) -> QueryBatch {
        self.push(QueryRequest::Count, pattern);
        self
    }

    /// Appends an uncapped locate query (builder style).
    pub fn locate(mut self, pattern: impl AsRef<[Base]>) -> QueryBatch {
        self.push(QueryRequest::locate(), pattern);
        self
    }

    /// Appends a locate query keeping at most `max_hits` positions
    /// (builder style).
    pub fn locate_capped(mut self, pattern: impl AsRef<[Base]>, max_hits: u32) -> QueryBatch {
        self.push(QueryRequest::locate_capped(max_hits), pattern);
        self
    }

    /// Appends an interval query (builder style).
    pub fn interval(mut self, pattern: impl AsRef<[Base]>) -> QueryBatch {
        self.push(QueryRequest::Interval, pattern);
        self
    }

    /// Appends an uncapped strand-agnostic search (builder style).
    pub fn search_both(mut self, pattern: impl AsRef<[Base]>) -> QueryBatch {
        self.push(QueryRequest::search_both(), pattern);
        self
    }

    /// Appends a strand-agnostic search keeping at most `max_hits`
    /// encoded hits (builder style).
    pub fn search_both_capped(mut self, pattern: impl AsRef<[Base]>, max_hits: u32) -> QueryBatch {
        self.push(QueryRequest::search_both_capped(max_hits), pattern);
        self
    }

    /// A batch asking the same `request` of every pattern — how the
    /// uniform workloads (all-count, all-locate) are spelled.
    pub fn uniform<P: AsRef<[Base]>>(
        request: QueryRequest,
        patterns: impl IntoIterator<Item = P>,
    ) -> QueryBatch {
        let mut batch = QueryBatch::new();
        for pattern in patterns {
            batch.push(request, pattern);
        }
        batch
    }

    /// Appends every query of `other` after this batch's, in order —
    /// how a serving front-end coalesces many client submissions into
    /// one engine run. The merged batch's query `self.len() + i` is
    /// `other`'s query `i`, so callers can map pooled results back to
    /// each submission by remembering the offset at which it was merged.
    pub fn extend_from(&mut self, other: &QueryBatch) {
        self.requests.extend_from_slice(&other.requests);
        self.patterns.extend_from_slice(&other.patterns);
    }

    /// Empties the batch, keeping the outer buffers' capacity — a
    /// coalescing loop can reuse one merge target across rounds.
    pub fn clear(&mut self) {
        self.requests.clear();
        self.patterns.clear();
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` iff the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Query `i`'s request.
    pub fn request(&self, i: usize) -> QueryRequest {
        self.requests[i]
    }

    /// Query `i`'s pattern.
    pub fn pattern(&self, i: usize) -> &[Base] {
        &self.patterns[i]
    }

    /// All requests, in query order.
    pub fn requests(&self) -> &[QueryRequest] {
        &self.requests
    }

    /// All patterns, in query order.
    pub fn patterns(&self) -> &[Vec<Base>] {
        &self.patterns
    }

    /// Contiguous shards of at most `shard_len` queries — how the
    /// sharded engine splits a batch across workers.
    pub(crate) fn shards(
        &self,
        shard_len: usize,
    ) -> impl Iterator<Item = (&[QueryRequest], &[Vec<Base>])> {
        self.requests
            .chunks(shard_len)
            .zip(self.patterns.chunks(shard_len))
    }
}

/// The per-query tag of a [`QueryResults`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutput {
    /// Occurrence count of a [`QueryRequest::Count`] query.
    Count(u32),
    /// Suffix-array interval of a [`QueryRequest::Interval`] query
    /// (`lo == hi` means no occurrences).
    Interval {
        /// First row of the interval.
        lo: u32,
        /// One past the last row.
        hi: u32,
    },
    /// A [`QueryRequest::Locate`] query whose positions sit in the
    /// pooled buffer ([`QueryResults::positions`]).
    Located {
        /// `true` iff `max_hits` cut the output short of the full
        /// occurrence list.
        truncated: bool,
    },
    /// A [`QueryRequest::SearchBoth`] query whose pooled positions are
    /// [`exma_index::bidir::encode_hit`] strand-hits, sorted by
    /// `(position, strand)`.
    BothLocated {
        /// `true` iff `max_hits` cut the output short of the full
        /// strand-agnostic hit list.
        truncated: bool,
    },
}

/// Pooled answers of one executed [`QueryBatch`].
///
/// Every located position lives in one flat buffer delimited by
/// per-query offsets (non-locate queries own a zero-width slice), and
/// each query carries a [`QueryOutput`] tag — two allocations for the
/// whole batch, whatever mix of operations it carried. A
/// recycled instance (via [`QueryArena`]) keeps its buffers' capacity,
/// so repeated batches of similar shape allocate nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResults {
    /// All located positions, concatenated in query order.
    flat: Vec<u32>,
    /// `offsets[i]..offsets[i + 1]` delimits query `i` in `flat`; empty
    /// only before any batch ran (a 0-query batch still yields `[0]`).
    offsets: Vec<usize>,
    /// Query `i`'s output tag.
    outputs: Vec<QueryOutput>,
}

impl QueryResults {
    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// `true` iff the batch held no queries.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Query `i`'s output tag.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn output(&self, i: usize) -> QueryOutput {
        self.outputs[i]
    }

    /// Every query's output tag, in query order.
    pub fn outputs(&self) -> &[QueryOutput] {
        &self.outputs
    }

    /// Query `i`'s pooled answers, sorted ascending: the text positions
    /// of a [`QueryRequest::Locate`], the [`exma_index::bidir::encode_hit`]
    /// strand-hits of a [`QueryRequest::SearchBoth`], and nothing for a
    /// count or an interval.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn positions(&self, i: usize) -> &[u32] {
        &self.flat[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Query `i`'s occurrence count, whatever its operation: the stored
    /// count, the interval width, or the number of *kept* positions
    /// (which a capped locate may have truncated).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn count(&self, i: usize) -> usize {
        match self.outputs[i] {
            QueryOutput::Count(n) => n as usize,
            QueryOutput::Interval { lo, hi } => (hi - lo) as usize,
            QueryOutput::Located { .. } | QueryOutput::BothLocated { .. } => {
                self.offsets[i + 1] - self.offsets[i]
            }
        }
    }

    /// Query `i`'s suffix-array interval, if it was a
    /// [`QueryRequest::Interval`] query.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn interval(&self, i: usize) -> Option<Range<usize>> {
        match self.outputs[i] {
            QueryOutput::Interval { lo, hi } => Some(lo as usize..hi as usize),
            _ => None,
        }
    }

    /// Total located positions across all queries.
    pub fn total_positions(&self) -> usize {
        self.flat.len()
    }

    /// Heap bytes of the pooled buffers (capacity-based: a recycled
    /// instance reports its high-water footprint).
    pub fn heap_bytes(&self) -> usize {
        self.flat.capacity() * 4
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.outputs.capacity() * std::mem::size_of::<QueryOutput>()
    }

    /// Clears for a new batch of `queries` queries, keeping capacity.
    pub(crate) fn reset(&mut self, queries: usize) {
        self.flat.clear();
        self.offsets.clear();
        self.offsets.reserve(queries + 1);
        self.offsets.push(0);
        self.outputs.clear();
        self.outputs.reserve(queries);
    }

    /// Appends the next query's answer: its tag and the positions it
    /// owns (none for a count or an interval). Every executor fills the
    /// pool through this one call.
    pub(crate) fn push(&mut self, output: QueryOutput, positions: &[u32]) {
        debug_assert!(!self.offsets.is_empty(), "reset first");
        self.flat.extend_from_slice(positions);
        self.offsets.push(self.flat.len());
        self.outputs.push(output);
    }
}

/// Every piece of scratch one [`crate::Executor`] run needs: the pooled
/// [`QueryResults`], the searched intervals, the resolver feed and its
/// scratch output pool, and the lockstep worklists. All buffers keep
/// their high-water capacity, so a
/// caller that reuses one arena across submissions reaches a steady
/// state where [`crate::Executor::run_into`] allocates nothing.
/// (The sharded engine's workers each use a worker-local arena; the
/// caller's arena still pools the merged results.)
#[derive(Debug, Default)]
pub struct QueryArena {
    /// The batch's pooled answers.
    pub(crate) results: QueryResults,
    /// Searched suffix-array interval of every query (of a cut query,
    /// the interval it was cut at).
    pub(crate) intervals: Vec<Range<usize>>,
    /// Intervals of the locate queries and of the cut queries, in query
    /// order — the resolver worklist feed.
    pub(crate) locate_intervals: Vec<Range<usize>>,
    /// Hit caps aligned with `locate_intervals`.
    pub(crate) caps: Vec<u32>,
    /// The resolver's output, one region per `locate_intervals` entry:
    /// scratch, filtered (and, for a strand search, mapped) in place
    /// before a query's positions are pushed. The sequential executors
    /// resolve each query into it alone.
    pub(crate) resolved: Vec<u32>,
    /// The resolver's offsets delimiting those regions.
    pub(crate) locate_offsets: Vec<usize>,
    /// The cut queries, in query order: `(symbols left unmatched, slot
    /// in locate_intervals)` — what the text comparison looks ahead over.
    pub(crate) cuts: Vec<(u32, u32)>,
    /// Lockstep search worklists.
    pub(crate) search: SearchScratch,
    /// Lockstep resolver worklists.
    pub(crate) resolve: ResolveArena,
}

impl QueryArena {
    /// A fresh arena; buffers warm up over the first submissions.
    pub fn new() -> QueryArena {
        QueryArena::default()
    }

    /// The last run's results, by reference.
    pub fn results(&self) -> &QueryResults {
        &self.results
    }

    /// Moves the last run's results out (the arena's result buffers
    /// start cold again; prefer [`QueryArena::results`] when pooling).
    pub fn take_results(&mut self) -> QueryResults {
        std::mem::take(&mut self.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builders_record_requests_in_order() {
        let base = |s: &str| exma_genome::alphabet::parse_bases(s).unwrap();
        let batch = QueryBatch::new()
            .count(base("ACG"))
            .locate(base("T"))
            .locate_capped(base("GG"), 3)
            .interval(base(""));
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        assert_eq!(batch.request(0), QueryRequest::Count);
        assert_eq!(batch.request(1), QueryRequest::locate());
        assert_eq!(batch.request(2), QueryRequest::locate_capped(3));
        assert_eq!(batch.request(3), QueryRequest::Interval);
        assert_eq!(batch.pattern(0), &base("ACG")[..]);
        assert!(batch.pattern(3).is_empty());

        let uniform = QueryBatch::uniform(QueryRequest::Count, [base("A"), base("C")]);
        assert_eq!(uniform.requests(), &[QueryRequest::Count; 2]);
    }

    #[test]
    fn extend_from_merges_submissions_in_order() {
        let base = |s: &str| exma_genome::alphabet::parse_bases(s).unwrap();
        let mut merged = QueryBatch::new().count(base("AC"));
        let other = QueryBatch::new().locate(base("G")).interval(base("T"));
        merged.extend_from(&other);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.request(0), QueryRequest::Count);
        assert_eq!(merged.request(1), QueryRequest::locate());
        assert_eq!(merged.pattern(2), &base("T")[..]);
        merged.clear();
        assert!(merged.is_empty());
    }

    #[test]
    fn resolver_caps_only_exist_for_resolving_requests() {
        assert_eq!(QueryRequest::Count.resolver_cap(), None);
        assert_eq!(QueryRequest::Interval.resolver_cap(), None);
        assert_eq!(QueryRequest::locate().resolver_cap(), Some(UNCAPPED));
        assert_eq!(QueryRequest::locate_capped(7).resolver_cap(), Some(7));
        // SearchBoth resolves uncapped whatever the user cap: straddler
        // and palindrome filtering happen after mapping, then the cap.
        assert_eq!(QueryRequest::search_both().resolver_cap(), Some(UNCAPPED));
        assert_eq!(
            QueryRequest::search_both_capped(7).resolver_cap(),
            Some(UNCAPPED)
        );
    }

    #[test]
    fn a_request_is_never_cut_wider_than_it_may_answer() {
        assert_eq!(QueryRequest::Count.cut_rows(), CUT_ROWS);
        assert_eq!(QueryRequest::locate().cut_rows(), CUT_ROWS);
        assert_eq!(QueryRequest::locate_capped(32).cut_rows(), CUT_ROWS);
        assert_eq!(QueryRequest::locate_capped(1).cut_rows(), 1);
        assert_eq!(QueryRequest::locate_capped(0).cut_rows(), 0);
        assert_eq!(QueryRequest::Interval.cut_rows(), 0);
        // Capped after mapping: the cap says nothing about raw rows.
        assert_eq!(QueryRequest::search_both_capped(0).cut_rows(), CUT_ROWS);
    }

    #[test]
    fn search_both_builders_and_pool_accessors_line_up() {
        let base = |s: &str| exma_genome::alphabet::parse_bases(s).unwrap();
        let batch = QueryBatch::new()
            .search_both(base("ACG"))
            .search_both_capped(base("T"), 2);
        assert_eq!(batch.request(0), QueryRequest::search_both());
        assert_eq!(batch.request(1), QueryRequest::search_both_capped(2));

        let mut results = QueryResults::default();
        results.reset(2);
        // Encoded strand-hits ride the same flat pool as plain positions.
        results.push(
            QueryOutput::BothLocated { truncated: false },
            &[0b100, 0b111],
        );
        results.push(QueryOutput::BothLocated { truncated: true }, &[0b10]);
        assert_eq!(
            results.output(0),
            QueryOutput::BothLocated { truncated: false }
        );
        assert_eq!(results.positions(0), &[0b100, 0b111]);
        assert_eq!(results.count(0), 2);
        assert_eq!(
            results.output(1),
            QueryOutput::BothLocated { truncated: true }
        );
        assert_eq!(results.count(1), 1);
        assert_eq!(results.positions(1), &[0b10]);
    }

    #[test]
    fn results_assembly_and_accessors_line_up() {
        let mut results = QueryResults::default();
        results.reset(4);
        results.push(QueryOutput::Count(5), &[]);
        results.push(QueryOutput::Located { truncated: false }, &[3, 9]);
        results.push(QueryOutput::Interval { lo: 2, hi: 6 }, &[]);
        results.push(QueryOutput::Located { truncated: true }, &[1]);
        assert_eq!(results.len(), 4);
        assert_eq!(results.count(0), 5);
        assert_eq!(results.positions(0), &[] as &[u32]);
        assert_eq!(results.positions(1), &[3, 9]);
        assert_eq!(results.count(2), 4);
        assert_eq!(results.interval(2), Some(2..6));
        assert_eq!(results.interval(1), None);
        assert_eq!(results.output(3), QueryOutput::Located { truncated: true });
        assert_eq!(results.count(3), 1);
        assert_eq!(results.total_positions(), 3);
    }

    #[test]
    fn arena_hands_results_out_both_ways() {
        let mut arena = QueryArena::new();
        arena.results.reset(1);
        arena.results.push(QueryOutput::Count(3), &[]);
        assert_eq!(arena.results().len(), 1);
        let taken = arena.take_results();
        assert_eq!(taken.len(), 1);
        assert_eq!(arena.results().len(), 0);
    }
}
