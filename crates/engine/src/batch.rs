//! Lockstep batched backward search with dead-query dropping, software
//! prefetch and an early exit to the text — the round-loop every
//! [`crate::Executor`] run of a [`BatchEngine`] goes through, whatever
//! mix of operations the batch carries.
//!
//! A batch runs in three phases (`exec.rs` holds the second and third):
//!
//! 1. **Search.** A query of at least K symbols starts from the interval
//!    the index's K-mer table holds for its last K
//!    ([`KStepFmIndex::lookup_interval`], K = 10 on a 20 Mbp reference),
//!    a shorter one from every row. The interval is then refined in
//!    lockstep rounds, k symbols a round. A query leaves the search —
//!    right after the lookup, or after any round — when it has consumed
//!    its pattern, when its interval empties, or when it is **cut**: its
//!    interval is down to a row or two (`CUT_ROWS`) with enough of the
//!    pattern still unmatched (`CUT_STEPS_PER_ROW`) that looking the
//!    rest up in the text is cheaper than stepping through it.
//! 2. **Resolve.** The rows of every cut query join the rows of every
//!    locate query on the one resolver worklist, which walks each to its
//!    text position — verification walks and locate walks hide each
//!    other's misses.
//! 3. **Compare and tag.** A cut query's positions are where its matched
//!    *suffix* occurs; each is kept iff the text in front of it is the
//!    unmatched prefix ([`KStepFmIndex::text_ends_with`]: one or two
//!    cache lines of the index's 2-bit text). What is kept is the count,
//!    or — moved back by the prefix length — the located positions.
//!
//! **Why a seeded query's answer is the full search's.** A backward
//! search's interval after consuming a suffix `s` of the pattern is the
//! set of rows whose suffixes start with `s` — a function of `s` alone,
//! not of the steps that consumed it. The table's interval of the last K
//! symbols is that set, read off K-mer bucket bounds instead of refined
//! to, so the rounds that follow are exactly the rounds of a search that
//! had taken the first steps itself; only the steps are gone. They were
//! the dear ones: a round-0 interval spans the whole table, so each of
//! them read two blocks far apart, each waiting on the last, where the
//! lookup reads one line whose address the pattern alone determines —
//! every lookup of a batch can be in flight at once.
//!
//! **Why a cut query's answer is the full search's.** After the
//! refinements that consumed `pattern[j..]`, the interval's rows are
//! exactly the suffixes of the text that start with `pattern[j..]`. The
//! pattern occurs at `p` iff `pattern[j..]` occurs at `p + j` *and*
//! `text[p..p + j] == pattern[..j]`; so the occurrences of the pattern
//! are, one for one, the interval's rows whose text position `p + j` has
//! `pattern[..j]` in front of it. Finishing the search would keep those
//! rows and drop the others; the text comparison keeps the same ones.
//! The subtraction keeps their order, so a resolved region stays sorted.
//! A request is cut only while its interval is no wider than what it may
//! return (a locate capped at `h` at most `h` rows; `h = 0` never), so a
//! cap can never bite a cut query and capped answers are those of the
//! sequential executors — which are never cut: they are the oracle.
//! [`crate::QueryRequest::Interval`] is never cut either: its answer *is*
//! the interval.
//!
//! Whether a query is cut depends on the index and the request alone —
//! never on the thread count — so every sharding of a batch issues
//! identical counters.

use std::ops::Range;

use exma_genome::{Base, Kmer, Symbol};
use exma_index::KStepFmIndex;

use crate::query::QueryRequest;

/// How many queries ahead of the one being refined the engine prefetches
/// the lines of the next refinement.
///
/// A refinement costs some 53 ns and a miss 160–265 ns
/// (`machine.chase_ns`), so the hints must lead by at least four
/// queries; each query hints ten lines per rank (its delta line, its
/// superblock word and the eight code lines of the half-block it scans,
/// 512 of a block's 1 024 rows), so a lead of `d` keeps up to `20 d`
/// lines in flight, and a core's 48 KiB L1
/// (`lscpu` prints the two cores' 96 KiB) and its fill buffers bound that
/// from above. On `count_reads` the sweep is flat from 4 to 16
/// (10th-percentile ns/query at d = 2, 4, 8, 12, 16: 987, 936, 901, 929,
/// 912; CHANGES.md, PR 14) and 8 sits in the middle of the plateau.
/// The seeding loop hints the K-mer table's line of the pattern the same
/// distance ahead: one line a query, with nothing to compute first.
pub(crate) const PREFETCH_DISTANCE: usize = 8;

/// Widest interval a query may be cut at (see the module docs): a query
/// leaves the lockstep search for the text once its interval holds at
/// most this many rows.
///
/// Every row of a cut interval costs an LF walk to its text position
/// (five steps on average at the default SA rate) and a comparison,
/// whether or not it verifies, so the cut pays only while the interval is
/// about as narrow as the answer. On the 20 Mbp `count_reads` index an
/// interval is one row wide after 12–16 bases. Swept on the final build
/// (8 s runs, k queries/s, two seeds): 1 / 2 / 3 rows at 3 steps a row
/// read 2162 / 2173 / 2108 and 2512 / 2112 / 1833 — flat within the
/// box's ±10 % — and no bound on the width 1701 and 1602, a quarter
/// slower. 2 keeps the pairs of rows a repeat leaves behind without
/// paying for wide ones (CHANGES.md, PR 23, has every run).
pub(crate) const CUT_ROWS: usize = 2;

/// How many k-step refinements must still be ahead of a query, per row of
/// its interval, before it is cut: a walk and a comparison cost about
/// three refinements, so with fewer left the search finishes sooner by
/// stepping. Flat too: at 2 rows, 1 / 3 / 6 steps a row read 2078 /
/// 2173 / 2292 and 2178 / 2112 / 2052 k queries/s on `count_reads`, and
/// on `locate_seeds` (24 bp: cut only one row wide with 12 bases left at
/// 3, not at all at 6) 1314 / 975–1241 / 1115 and 1327 / 1104–1187 /
/// 1277 beside the parent's 1133–1391 (CHANGES.md, PR 23).
pub(crate) const CUT_STEPS_PER_ROW: usize = 3;

/// Execution counters of one executed batch, for tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Lockstep rounds executed: `⌊m/k⌋` k-step rounds plus `m mod k`
    /// single-symbol tail rounds, for the longest surviving query, whose
    /// `m` symbols are those its K-mer lookup left (all of a pattern
    /// shorter than K).
    pub rounds: usize,
    /// Total LF refinements issued across all queries and rounds. A
    /// lookup is none; a cut query stops adding to this, and its rows'
    /// walks count under `resolve_lf_steps`.
    pub steps: usize,
    /// Queries live in the widest round: the first, which every
    /// non-empty pattern the lookup did not already answer or cut enters.
    pub peak_live: usize,
    /// Resolver rounds of the batch's locate queries (zero when the
    /// batch located nothing) — bounded by the SA sampling rate.
    pub resolve_rounds: usize,
    /// LF steps the locate resolver issued across all cursors and rounds.
    pub resolve_lf_steps: usize,
    /// Cursors the locate resolver retired by hitting a sampled mark,
    /// one a row walked: a locate's kept rows (a capped one walks only
    /// its first `max_hits`), and every row of a strand search or a cut
    /// query.
    pub cursors_retired: usize,
    /// Queries that left the lockstep search early, to be finished
    /// against the text (see the module docs).
    pub cut_queries: usize,
    /// Rows of cut queries that were walked to their text position and
    /// did not verify: the text in front of them is not the unmatched
    /// prefix.
    pub rows_rejected: usize,
}

impl BatchStats {
    /// Folds a shard's counters into a batch-wide total: work counters
    /// (`steps`, `peak_live`, resolver steps, retirements, cuts and
    /// rejected rows) add up across concurrent workers, while the round
    /// counters — each the
    /// depth of the longest shard's lockstep schedule — take the maximum,
    /// matching wall-clock intuition.
    pub(crate) fn absorb_shard(&mut self, shard: BatchStats) {
        self.steps += shard.steps;
        self.peak_live += shard.peak_live;
        self.rounds = self.rounds.max(shard.rounds);
        self.resolve_lf_steps += shard.resolve_lf_steps;
        self.cursors_retired += shard.cursors_retired;
        self.cut_queries += shard.cut_queries;
        self.rows_rejected += shard.rows_rejected;
        self.resolve_rounds = self.resolve_rounds.max(shard.resolve_rounds);
    }
}

/// In-flight state of one query between rounds. Rows fit `u32` because the
/// suffix array itself stores `u32` positions.
#[derive(Clone, Copy)]
struct LiveQuery {
    pattern: u32,
    /// Pattern symbols not yet consumed (a suffix of this length remains).
    remaining: u32,
    lo: u32,
    hi: u32,
}

impl LiveQuery {
    fn new(pattern: usize, remaining: usize, range: Range<usize>) -> LiveQuery {
        LiveQuery {
            pattern: pattern as u32,
            remaining: remaining as u32,
            lo: range.start as u32,
            hi: range.end as u32,
        }
    }
}

/// The rules a query's new interval is held to — after the lookup that
/// seeds it and after every refinement: it has **died** if the interval
/// is empty (its answer stays `0..0`), **finished** if no symbol is left,
/// and is **cut** if its request allows ([`QueryRequest::cut_rows`]) and
/// the interval is narrow enough for what is left (see [`CUT_ROWS`]).
/// Records the answer of a query that leaves the search; returns one that
/// searches on.
#[inline]
fn settle(
    q: LiveQuery,
    requests: &[QueryRequest],
    k: usize,
    intervals: &mut [Range<usize>],
    unmatched: &mut [u32],
    stats: &mut BatchStats,
) -> Option<LiveQuery> {
    let (i, left) = (q.pattern as usize, q.remaining as usize);
    let width = (q.hi - q.lo) as usize;
    if width == 0 {
        return None;
    }
    if left == 0 {
        intervals[i] = q.lo as usize..q.hi as usize;
        return None;
    }
    if width <= requests[i].cut_rows() && width * CUT_STEPS_PER_ROW <= left / k {
        // Cut: the text will say which of these rows are preceded by the
        // `left` symbols still unmatched.
        intervals[i] = q.lo as usize..q.hi as usize;
        unmatched[i] = left as u32;
        stats.cut_queries += 1;
        return None;
    }
    Some(q)
}

/// Reusable worklists of the lockstep search loop, double-buffered so
/// the prefetch look-ahead can peek at untouched entries, and what the
/// loop reports beside each interval. Lives in a [`crate::QueryArena`] so
/// steady-state runs allocate nothing.
#[derive(Default)]
pub struct SearchScratch {
    live: Vec<LiveQuery>,
    next: Vec<LiveQuery>,
    /// Per query, the pattern symbols a cut left unmatched: its interval
    /// is that of `pattern[unmatched..]`. Zero for a query searched to
    /// the end.
    pub(crate) unmatched: Vec<u32>,
}

impl std::fmt::Debug for SearchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchScratch")
            .field("live_capacity", &self.live.capacity())
            .field("next_capacity", &self.next.capacity())
            .field("unmatched_capacity", &self.unmatched.capacity())
            .finish()
    }
}

/// A batched query engine over a [`KStepFmIndex`].
///
/// All queries start from the index's K-mer table and advance together:
/// each round issues one k-step refinement per live query (1-step
/// refinements once a query is into its sub-k tail), then drops queries
/// that finished, died, or were cut — narrowed to a row or two with most
/// of the pattern still ahead, and so cheaper to finish by walking those
/// rows to their text positions and comparing the rest of the pattern
/// with the text there (the module docs have the three phases and why
/// the answer is the same). See the crate docs for why the lockstep
/// ordering matters to the paper. While refining one query the engine
/// software-prefetches the table lines of the query `PREFETCH_DISTANCE`
/// (8) places ahead of it, and the resolver hints its cursors the same way
/// (`exma_index::resolve`), turning a round's
/// dependent memory round-trips into overlapped fetches. Live queries
/// are refined in input order: with every line of the next refinements
/// prefetched, sorting a round by interval costs more than the address
/// order buys, and it scatters the pattern reads.
///
/// Run it through the [`crate::Executor`] trait with a
/// [`crate::QueryBatch`]; construct it through [`crate::EngineBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine<'a> {
    index: &'a KStepFmIndex,
}

impl<'a> BatchEngine<'a> {
    /// An engine borrowing `index`.
    pub fn new(index: &'a KStepFmIndex) -> BatchEngine<'a> {
        BatchEngine { index }
    }

    /// The index this engine queries.
    pub fn index(&self) -> &'a KStepFmIndex {
        self.index
    }

    /// The lockstep search round-loop: suffix-array intervals for every
    /// pattern, in input order, written into `intervals` (cleared
    /// first). Every operation of a mixed batch shares this loop —
    /// counts read the interval width, locates feed the resolver, and
    /// interval requests return it raw. Empty intervals are normalized
    /// to `0..0`; empty patterns match every row.
    ///
    /// A query whose request allows it ([`QueryRequest::cut_rows`]) is
    /// cut as the module docs describe: `intervals[i]` is then the
    /// interval of the pattern's last `m - j` symbols and
    /// `scratch.unmatched[i]` is `j`.
    pub(crate) fn search_core(
        &self,
        requests: &[QueryRequest],
        patterns: &[impl AsRef<[Base]>],
        intervals: &mut Vec<Range<usize>>,
        scratch: &mut SearchScratch,
    ) -> BatchStats {
        let k = self.index.k();
        let n = self.index.text_len();
        let big_k = self.index.lookup_k();
        assert!(patterns.len() < u32::MAX as usize, "batch too large");
        intervals.clear();
        intervals.resize(patterns.len(), 0..0);
        let SearchScratch {
            live,
            next,
            unmatched,
        } = scratch;
        live.clear();
        next.clear();
        unmatched.clear();
        unmatched.resize(patterns.len(), 0);
        let mut stats = BatchStats::default();

        // Seeding: a pattern of at least K symbols starts from the K-mer
        // table's interval of its last K, a line whose address depends on
        // nothing but the pattern — so the line of the pattern
        // `PREFETCH_DISTANCE` ahead is hinted, and every lookup of the
        // batch can be in flight at once. A shorter one starts from
        // every row. The rules of the rounds apply right away: a query
        // can die, finish or be cut before its first refinement.
        for (i, pattern) in patterns.iter().enumerate() {
            if let Some(ahead) = patterns.get(i + PREFETCH_DISTANCE) {
                let ahead = ahead.as_ref();
                if ahead.len() >= big_k {
                    self.index.prefetch_lookup(&ahead[ahead.len() - big_k..]);
                }
            }
            let pattern = pattern.as_ref();
            let m = pattern.len();
            let (range, left) = if m >= big_k {
                (self.index.lookup_interval(&pattern[m - big_k..]), m - big_k)
            } else {
                (0..n, m)
            };
            let q = LiveQuery::new(i, left, range);
            if let Some(q) = settle(q, requests, k, intervals, unmatched, &mut stats) {
                live.push(q);
            }
        }
        stats.peak_live = live.len();

        // Survivors of each round are double-buffered into `next` instead
        // of compacted in place, so the prefetch look-ahead below can peek
        // at untouched entries.
        while !live.is_empty() {
            stats.rounds += 1;
            stats.steps += live.len();
            for j in 0..live.len() {
                if let Some(ahead) = live.get(j + PREFETCH_DISTANCE) {
                    self.prefetch_query(patterns, ahead);
                }
                let q = live[j];
                let pattern = patterns[q.pattern as usize].as_ref();
                let rem = q.remaining as usize;
                let range = q.lo as usize..q.hi as usize;
                let (range, consumed) = if rem >= k {
                    let kmer = Kmer::from_bases(&pattern[rem - k..rem]);
                    (self.index.kstep(kmer, range), k)
                } else {
                    (self.index.base_index().step(pattern[rem - 1], range), 1)
                };
                let q = LiveQuery::new(q.pattern as usize, rem - consumed, range);
                if let Some(q) = settle(q, requests, k, intervals, unmatched, &mut stats) {
                    next.push(q);
                }
            }
            std::mem::swap(live, next);
            next.clear();
        }
        stats
    }

    /// Hints every line `q`'s next refinement will read — checkpoint
    /// counters and code lanes of both the `lo` and `hi` rank blocks, on
    /// whichever table (k-mer or 1-step tail) the refinement will use.
    #[inline]
    fn prefetch_query(&self, patterns: &[impl AsRef<[Base]>], q: &LiveQuery) {
        let pattern = patterns[q.pattern as usize].as_ref();
        let rem = q.remaining as usize;
        let k = self.index.k();
        if rem >= k {
            let code = Kmer::from_bases(&pattern[rem - k..rem]).rank() as u16;
            self.index
                .kmer_occ()
                .prefetch_rank_pair(code, q.lo as usize, q.hi as usize);
        } else {
            let s = Symbol::Base(pattern[rem - 1]);
            let occ = self.index.base_index().occ();
            occ.prefetch_rank(s, q.lo as usize);
            occ.prefetch_rank(s, q.hi as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::query::{QueryBatch, QueryRequest};
    use exma_genome::alphabet::parse_bases;
    use exma_genome::genome::text_from_str;

    fn fig3_engine_input() -> (KStepFmIndex, Vec<Vec<Base>>) {
        let index = KStepFmIndex::from_text(&text_from_str("CATAGA").unwrap(), 2);
        let patterns = ["A", "TA", "AGA", "CATAGA", "GG", ""]
            .iter()
            .map(|p| parse_bases(p).unwrap())
            .collect();
        (index, patterns)
    }

    #[test]
    fn batch_intervals_match_sequential_backward_search() {
        let (index, patterns) = fig3_engine_input();
        let batch = QueryBatch::uniform(QueryRequest::Interval, &patterns);
        let (results, _) = BatchEngine::new(&index).run(&batch);
        for (i, pattern) in patterns.iter().enumerate() {
            assert_eq!(
                results.interval(i),
                Some(index.backward_search(pattern)),
                "pattern #{i}"
            );
        }
    }

    #[test]
    fn counts_and_locates_line_up() {
        let (index, patterns) = fig3_engine_input();
        let engine = BatchEngine::new(&index);
        let counts = engine
            .run(&QueryBatch::uniform(QueryRequest::Count, &patterns))
            .0;
        assert_eq!(
            (0..counts.len())
                .map(|i| counts.count(i))
                .collect::<Vec<_>>(),
            vec![3, 1, 1, 1, 0, 7]
        );
        let located = engine
            .run(&QueryBatch::uniform(QueryRequest::locate(), &patterns))
            .0;
        assert_eq!(located.positions(0), &[1, 3, 5]);
        assert_eq!(located.positions(3), &[0]);
        assert_eq!(located.positions(4), &[] as &[u32]);
    }

    #[test]
    fn run_locate_matches_the_per_row_path() {
        let (index, patterns) = fig3_engine_input();
        let base = index.base_index();
        let batch = QueryBatch::uniform(QueryRequest::locate(), &patterns);
        // The serial per-row baseline, straight off the index layer.
        let expected: Vec<Vec<u32>> = patterns
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                base.resolve_range_into(index.backward_search(p), &mut out);
                out
            })
            .collect();
        let (results, stats) = BatchEngine::new(&index).run(&batch);
        assert_eq!(results.len(), patterns.len());
        for (i, expect) in expected.iter().enumerate() {
            assert_eq!(results.positions(i), &expect[..], "#{i}");
        }
        // Every interval row becomes exactly one retired cursor.
        let total: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(stats.cursors_retired, total);
        assert!(stats.resolve_rounds >= 1);
    }

    #[test]
    fn pure_search_batches_never_touch_resolve_counters() {
        let (index, patterns) = fig3_engine_input();
        let batch = QueryBatch::uniform(QueryRequest::Count, &patterns);
        let (_, stats) = BatchEngine::new(&index).run(&batch);
        assert_eq!(stats.resolve_rounds, 0);
        assert_eq!(stats.resolve_lf_steps, 0);
        assert_eq!(stats.cursors_retired, 0);
    }

    #[test]
    fn stats_count_rounds_and_dropped_queries() {
        let (index, patterns) = fig3_engine_input();
        let engine = BatchEngine::new(&index);
        let (_, stats) = engine.run(&QueryBatch::uniform(QueryRequest::Count, &patterns));
        // Empty pattern never enters the round-robin.
        assert_eq!(stats.peak_live, 5);
        // Longest pattern is 6 symbols at k = 2 → 3 rounds.
        assert_eq!(stats.rounds, 3);
        // Dead/finished queries must not keep consuming steps: "GG" dies in
        // round 1, "A"/"TA" finish in round 1, "AGA" finishes in round 2
        // (k-step then tail step), "CATAGA" runs all 3 rounds:
        // 5 + 2 + 1 = 8 refinements, strictly fewer than 5 queries x 3.
        assert_eq!(stats.steps, 8);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (index, _) = fig3_engine_input();
        let engine = BatchEngine::new(&index);
        let (results, stats) = engine.run(&QueryBatch::new());
        assert!(results.is_empty());
        assert_eq!(stats, BatchStats::default());
    }
}
