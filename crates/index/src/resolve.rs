//! Lockstep batched resolution of suffix-array intervals — `locate`'s
//! counterpart to the batch engine's lockstep backward search.
//!
//! The per-row path ([`FmIndex::resolve_row`]) LF-walks each row serially,
//! one dependent cache miss a step — the DRAM pattern the paper blames for
//! FM-index latency (§II-C). Here every row of one or many intervals
//! becomes a *cursor* `(row, steps, slot)` on a shared worklist, `slot`
//! being where its position goes in the output, and a round takes every
//! live cursor one step, in worklist order, hinting the line of the
//! cursor sixteen places ahead (with every line hinted, sorting a round
//! by row costs more than the address order buys). A step reads one
//! occurrence line ([`FmIndex::lf_marked`]): the row's BWT symbol, its
//! rank, and whether the row is SA-sampled. A marked cursor retires: its
//! position is three dependent reads away (mark word, prefix count,
//! sample), so the round's retirements are hinted and resolved in two
//! passes at its end.
//!
//! **Hit caps.** An interval `lo..hi` capped at `h` (`max_hits` of a
//! `QueryRequest::Locate`) keeps the positions of its first rows,
//! `lo..lo + min(hi - lo, h)` — those whose suffixes come first in the
//! text — and only those rows become cursors. The cap bounds the LF work,
//! and no sampling rate, schedule or thread count changes what it keeps.
//! An uncapped interval is one capped at [`UNCAPPED`]. Each output region
//! is sorted at the end, so an interval resolves element-identical to
//! [`FmIndex::resolve_range_into`] over its kept rows.

use std::ops::Range;

use exma_genome::Symbol;

use crate::fm::FmIndex;

/// How many cursors ahead of the one being stepped the resolver hints.
/// A step costs 20–25 ns and a miss 160–265 ns (`machine.chase_ns`), so
/// the hint must lead by ten cursors or so. One index walked at d = 4, 8,
/// 16, 32, 64 read 30.9, 27.3, 25.7, 26.8, 26.8 ns a step; at SA rate 11,
/// `locate_seeds` read 903, 870, 869 ns/query at d = 8, 16, 32 (both in
/// CHANGES.md).
const PREFETCH_DISTANCE: usize = 16;

/// Hit-cap sentinel: an interval with this cap keeps every position.
pub const UNCAPPED: u32 = u32::MAX;

/// The resolver's schedule. There is one, so the type carries nothing;
/// it stays because [`BatchResolver::with_config`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveConfig;

impl ResolveConfig {
    /// The one schedule.
    pub fn locality() -> ResolveConfig {
        ResolveConfig
    }
}

/// Execution counters of one batched resolution, for tests and the bench
/// harness's `BatchStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResolveStats {
    /// Lockstep rounds executed — at most the SA sampling rate
    /// ([`crate::layout::SA_SAMPLE_RATE`], 11), since every cursor
    /// resolves within `SA_SAMPLE_RATE - 1` LF steps.
    pub rounds: usize,
    /// LF steps issued across all cursors and rounds.
    pub lf_steps: usize,
    /// Cursors retired by hitting a sampled mark: every kept row.
    pub retired: usize,
    /// Cursors live in the widest round (the initial worklist).
    pub peak_live: usize,
    /// Rows past their interval's cap, never walked: the LF walks the cap
    /// made unnecessary.
    pub dropped: usize,
}

/// In-flight state of one kept row. Rows fit `u32` as the suffix array's
/// values do; slots, because the worklist size is asserted below it.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// The row reached so far; on the `retiring` list, between the two
    /// end-of-round passes, its slot in the sample vector.
    row: u32,
    /// LF steps taken so far — added back to the sampled position.
    steps: u32,
    /// Where in the output its position goes.
    slot: u32,
}

/// The lockstep resolver's worklists, which keep their high-water
/// capacity across calls: a long-lived arena stops allocating.
#[derive(Debug, Clone, Default)]
pub struct ResolveArena {
    live: Vec<Cursor>,
    next: Vec<Cursor>,
    retiring: Vec<Cursor>,
}

/// Resolves the kept rows of every interval into one pooled output:
/// after the call, `flat[offsets[i]..offsets[i + 1]]` holds the text
/// positions of interval `i`'s first `min(len, caps[i])` rows, sorted
/// ascending — with an empty `caps`, of all its rows, element-identical
/// to running [`FmIndex::resolve_range_into`] on each interval. Both
/// buffers are cleared first; `arena` supplies every piece of scratch, so
/// steady-state calls allocate nothing once capacities are warm.
///
/// # Panics
///
/// Panics if `caps` is non-empty with a length different from
/// `intervals`, an interval extends past the text, or the kept row count
/// does not fit the `u32` cursor slots.
pub fn resolve_capped_with_arena(
    fm: &FmIndex,
    intervals: &[Range<usize>],
    caps: &[u32],
    flat: &mut Vec<u32>,
    offsets: &mut Vec<usize>,
    arena: &mut ResolveArena,
) -> ResolveStats {
    assert!(
        caps.is_empty() || caps.len() == intervals.len(),
        "caps length {} does not match {} intervals",
        caps.len(),
        intervals.len()
    );
    let ResolveArena {
        live,
        next,
        retiring,
    } = arena;
    live.clear();
    offsets.clear();
    offsets.push(0);
    let mut rows = 0;
    for (i, interval) in intervals.iter().enumerate() {
        assert!(
            interval.end <= fm.text_len(),
            "interval {interval:?} extends past the text"
        );
        let cap = caps.get(i).copied().unwrap_or(UNCAPPED) as usize;
        let kept = interval.start..interval.start + interval.len().min(cap);
        rows += interval.len();
        let first = live.len();
        live.extend(kept.zip(first..).map(|(row, slot)| Cursor {
            row: row as u32,
            steps: 0,
            slot: slot as u32,
        }));
        offsets.push(live.len());
    }
    assert!(
        live.len() < u32::MAX as usize,
        "worklist too large for u32 slots"
    );
    flat.clear();
    flat.resize(live.len(), 0);

    let mut stats = ResolveStats {
        peak_live: live.len(),
        dropped: rows - live.len(),
        ..ResolveStats::default()
    };
    let (occ, ssa) = (fm.occ(), fm.sampled_sa());
    while !live.is_empty() {
        stats.rounds += 1;
        for j in 0..live.len() {
            if let Some(ahead) = live.get(j + PREFETCH_DISTANCE) {
                // Whatever its symbol: one block holds all of a row.
                occ.prefetch_rank(Symbol::Sentinel, ahead.row as usize);
            }
            let c = live[j];
            let (successor, marked) = fm.lf_marked(c.row as usize);
            if marked {
                ssa.prefetch(c.row as usize);
                retiring.push(c);
            } else {
                next.push(Cursor {
                    row: successor as u32,
                    steps: c.steps + 1,
                    ..c
                });
            }
        }
        stats.lf_steps += next.len();
        stats.retired += retiring.len();
        for r in retiring.iter_mut() {
            r.row = ssa.slot(r.row as usize) as u32;
            ssa.prefetch_sample(r.row as usize);
        }
        for r in retiring.drain(..) {
            flat[r.slot as usize] = ssa.sample(r.row as usize) + r.steps;
        }
        std::mem::swap(live, next);
        next.clear();
    }
    // A region fills in retirement order.
    for bounds in offsets.windows(2) {
        flat[bounds[0]..bounds[1]].sort_unstable();
    }
    stats
}

/// A lockstep multi-row resolver over a [`FmIndex`]'s sampled suffix
/// array and occurrence table.
///
/// The resolver owns its scratch and reuses it across calls; callers
/// that manage their own (the engine's query arena) use
/// [`resolve_capped_with_arena`] directly.
///
/// ```
/// use exma_genome::alphabet::parse_bases;
/// use exma_genome::genome::text_from_str;
/// use exma_index::{BatchResolver, FmIndex, ResolveConfig};
///
/// let fm = FmIndex::from_text(&text_from_str("CATAGACATTAGA").unwrap());
/// let intervals = [fm.backward_search(&parse_bases("ATA").unwrap())];
/// let (mut flat, mut offsets) = (Vec::new(), Vec::new());
/// let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
/// resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
///
/// let mut expect = Vec::new();
/// fm.resolve_range_into(intervals[0].clone(), &mut expect);
/// assert_eq!(flat, expect); // answer-identical to the per-row path
/// ```
#[derive(Debug, Clone)]
pub struct BatchResolver<'a> {
    fm: &'a FmIndex,
    arena: ResolveArena,
}

impl<'a> BatchResolver<'a> {
    /// A resolver borrowing `fm`'s tables, running the one schedule.
    pub fn with_config(fm: &'a FmIndex, _: ResolveConfig) -> BatchResolver<'a> {
        BatchResolver {
            fm,
            arena: ResolveArena::default(),
        }
    }

    /// [`resolve_capped_with_arena`] through the resolver's own arena; an
    /// empty `caps` caps nothing.
    pub fn resolve_intervals_capped(
        &mut self,
        intervals: &[Range<usize>],
        caps: &[u32],
        flat: &mut Vec<u32>,
        offsets: &mut Vec<usize>,
    ) -> ResolveStats {
        resolve_capped_with_arena(self.fm, intervals, caps, flat, offsets, &mut self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SA_SAMPLE_RATE;
    use exma_genome::genome::text_from_str;

    fn small_index() -> FmIndex {
        FmIndex::from_text(&text_from_str("CCATAGACATTAGACCATAGGACATAGACC").unwrap())
    }

    fn intervals_of(fm: &FmIndex) -> Vec<std::ops::Range<usize>> {
        ["A", "CAT", "TAGA", "CCATAG", "GGG", ""]
            .iter()
            .map(|p| fm.backward_search(&exma_genome::alphabet::parse_bases(p).unwrap()))
            .collect()
    }

    fn resolve(fm: &FmIndex, intervals: &[Range<usize>], caps: &[u32]) -> (Vec<u32>, Vec<usize>) {
        let mut resolver = BatchResolver::with_config(fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        resolver.resolve_intervals_capped(intervals, caps, &mut flat, &mut offsets);
        (flat, offsets)
    }

    /// What interval `rows` capped at `cap` must answer: the per-row path
    /// over its first `min(len, cap)` rows.
    fn first_rows(fm: &FmIndex, rows: &Range<usize>, cap: u32) -> Vec<u32> {
        let kept = rows.len().min(cap as usize);
        let mut out = Vec::new();
        fm.resolve_range_into(rows.start..rows.start + kept, &mut out);
        out
    }

    /// LF steps from `row` to a sampled row: the round, from 0, in
    /// which its cursor retires.
    fn walk_len(fm: &FmIndex, mut row: usize) -> usize {
        let mut steps = 0;
        while fm.sampled_sa().get(row).is_none() {
            row = fm.lf(row);
            steps += 1;
        }
        steps
    }

    #[test]
    fn matches_per_row_resolution_under_every_schedule() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let mut expect_flat = Vec::new();
        let mut expect_offsets = vec![0usize];
        for interval in &intervals {
            expect_flat.extend(first_rows(&fm, interval, UNCAPPED));
            expect_offsets.push(expect_flat.len());
        }
        assert_eq!(resolve(&fm, &intervals, &[]), (expect_flat, expect_offsets));
    }

    #[test]
    fn capped_resolution_matches_the_sequential_capped_rule() {
        // Widths 0, 1, h - 1, h, h + 1 and far more than h, as prefixes
        // of the widest interval, under h = 3 and every other cap.
        let fm = small_index();
        let wide = fm.backward_search(&exma_genome::alphabet::parse_bases("A").unwrap());
        assert!(wide.len() > 10);
        let mut intervals: Vec<Range<usize>> = [0, 1, 2, 3, 4]
            .iter()
            .map(|w| wide.start..wide.start + w)
            .collect();
        intervals.push(wide);
        intervals.extend(intervals_of(&fm));
        for cap in [0u32, 1, 2, 3, 100, UNCAPPED] {
            let caps = vec![cap; intervals.len()];
            let (flat, offsets) = resolve(&fm, &intervals, &caps);
            assert_eq!(offsets.len(), intervals.len() + 1);
            for (i, interval) in intervals.iter().enumerate() {
                let got = &flat[offsets[i]..offsets[i + 1]];
                assert_eq!(
                    got,
                    first_rows(&fm, interval, cap),
                    "cap {cap}, {interval:?}"
                );
            }
        }
    }

    /// What the counters must read, from each kept row's walk length
    /// alone: a row `w` LF steps from a mark takes `w` steps and retires
    /// in round `w` (from 0); the rows past an interval's cap are never
    /// walked.
    fn reference_stats(fm: &FmIndex, intervals: &[Range<usize>], caps: &[u32]) -> ResolveStats {
        let mut stats = ResolveStats::default();
        for (interval, &cap) in intervals.iter().zip(caps) {
            let kept = interval.len().min(cap as usize);
            stats.dropped += interval.len() - kept;
            stats.retired += kept;
            stats.peak_live += kept;
            for row in interval.start..interval.start + kept {
                let w = walk_len(fm, row);
                stats.lf_steps += w;
                stats.rounds = stats.rounds.max(w + 1);
            }
        }
        stats
    }

    #[test]
    fn answers_and_counters_match_the_references_on_a_repeat_rich_genome() {
        // A 90-base unit copied 45 times with a point mutation every 60
        // bases or so: 1-3 base patterns span hundreds of rows and unit
        // substrings about one row a copy, far beyond caps of 1 and 2.
        let mut rng = exma_genome::SeededRng::new(0x5eed);
        let unit: Vec<u8> = (0..90).map(|_| b"ACGT"[rng.range(0, 4)]).collect();
        let genome: String = (0..45 * unit.len())
            .map(|i| match rng.chance(1.0 / 60.0) {
                true => b"ACGT"[rng.range(0, 4)] as char,
                false => unit[i % unit.len()] as char,
            })
            .collect();
        let text = text_from_str(&genome).unwrap();
        let cap_set = [0, 1, 2, 31, 32, 33, UNCAPPED];
        let fm = FmIndex::from_text(&text);
        let search = |start: usize, len: usize| {
            let pattern = &genome[start..start + len];
            fm.backward_search(&exma_genome::alphabet::parse_bases(pattern).unwrap())
        };
        // Wide, cap 0, wide: a closed interval between two live ones;
        // then empties, the whole text, and a spread of widths under
        // every cap in turn.
        let mut intervals = vec![search(3, 2), search(11, 1), search(40, 3), 0..0, 9..9];
        let mut caps = vec![2, 0, UNCAPPED, 1, 0];
        for (i, len) in [1usize, 2, 3, 8, 12, 20, 30]
            .iter()
            .cycle()
            .take(49)
            .enumerate()
        {
            intervals.push(search(i * 53 % 3000, *len));
            caps.push(cap_set[(i + i / 7) % cap_set.len()]);
        }
        for cap in [31, UNCAPPED] {
            intervals.push(0..fm.text_len());
            caps.push(cap);
        }
        assert!(intervals
            .iter()
            .zip(&caps)
            .any(|(r, &c)| r.len() > 100 && c == 1));

        let expect = reference_stats(&fm, &intervals, &caps);
        assert!(expect.dropped > 0, "{expect:?}");
        assert_eq!(expect.rounds, SA_SAMPLE_RATE, "{expect:?}");
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        let stats = resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
        assert_eq!(stats, expect);
        for (i, interval) in intervals.iter().enumerate() {
            let got = &flat[offsets[i]..offsets[i + 1]];
            let expect = first_rows(&fm, interval, caps[i]);
            assert_eq!(got, expect, "interval {i} {interval:?} cap {}", caps[i]);
        }
    }

    #[test]
    fn a_capped_interval_walks_only_its_kept_rows_at_every_period() {
        // 64 exact copies of a 30-base unit, one every `period` bases over
        // random filler — the grid `Genome::synthesize` lays repeat
        // copies on. A 12-mer at offset 1 of the unit then occurs at
        // period · i + 1, and a row's walk length is that modulo the SA
        // rate: whether the rate divides the period decides how long the
        // walks are, and nothing else.
        const COPIES: usize = 64;
        const CAP: u32 = 8;
        for period in [44, 55, 40, 39] {
            let mut rng = exma_genome::SeededRng::new(0x9e1d);
            let mut base = || b"ACGT"[rng.range(0, 4)] as char;
            let unit: String = (0..30).map(|_| base()).collect();
            let genome: String = (0..COPIES)
                .flat_map(|_| {
                    let filler: String = (0..period - unit.len()).map(|_| base()).collect();
                    [unit.clone(), filler]
                })
                .collect();
            let fm = FmIndex::from_text(&text_from_str(&genome).unwrap());
            let seed = exma_genome::alphabet::parse_bases(&unit[1..13]).unwrap();
            let intervals = [fm.backward_search(&seed)];
            assert_eq!(intervals[0].len(), COPIES);
            let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
            let (mut flat, mut offsets) = (Vec::new(), Vec::new());
            let stats =
                resolver.resolve_intervals_capped(&intervals, &[CAP], &mut flat, &mut offsets);
            assert_eq!(stats, reference_stats(&fm, &intervals, &[CAP]));
            assert_eq!(stats.retired, CAP as usize, "period {period}");
            assert_eq!(stats.dropped, COPIES - CAP as usize, "period {period}");
            // The kept positions are the copies whose suffixes sort
            // first, whatever the period.
            let mut truth: Vec<u32> = (0..COPIES).map(|i| (period * i + 1) as u32).collect();
            truth.sort_by_key(|&p| &genome[p as usize..]);
            truth.truncate(CAP as usize);
            truth.sort_unstable();
            assert_eq!(flat, truth, "period {period}");
            // Periods the rate divides put every row `1 mod rate` steps
            // from a mark.
            if period % SA_SAMPLE_RATE == 0 {
                let walk = 1 % SA_SAMPLE_RATE;
                assert_eq!(
                    (stats.rounds, stats.lf_steps),
                    (walk + 1, walk * CAP as usize)
                );
            }
        }
    }

    #[test]
    fn capping_actually_drops_cursors() {
        let fm = small_index();
        // "A" has many occurrences; cap 1 must walk one row, not every
        // row to a mark.
        let intervals = vec![fm.backward_search(&exma_genome::alphabet::parse_bases("A").unwrap())];
        assert!(intervals[0].len() > 3);
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        let uncapped = resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        let capped = resolver.resolve_intervals_capped(&intervals, &[1], &mut flat, &mut offsets);
        assert_eq!(flat.len(), 1);
        assert_eq!(capped.retired, 1, "{capped:?}");
        assert_eq!(capped.dropped, intervals[0].len() - 1, "{capped:?}");
        assert!(capped.lf_steps <= uncapped.lf_steps);
        assert_eq!(uncapped.dropped, 0);
        let nothing = resolver.resolve_intervals_capped(&intervals, &[0], &mut flat, &mut offsets);
        assert_eq!((nothing.rounds, nothing.retired), (0, 0));
        assert_eq!(nothing.dropped, intervals[0].len());
        assert!(flat.is_empty());
    }

    #[test]
    fn mixed_caps_only_trim_their_own_interval() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        // Cap only interval 0; everything else keeps full output.
        let mut caps = vec![UNCAPPED; intervals.len()];
        caps[0] = 2;
        let (flat, offsets) = resolve(&fm, &intervals, &caps);
        for (i, interval) in intervals.iter().enumerate() {
            let expect = first_rows(&fm, interval, caps[i]);
            assert_eq!(
                &flat[offsets[i]..offsets[i + 1]],
                &expect[..],
                "interval {i}"
            );
        }
    }

    #[test]
    fn stats_bound_rounds_by_the_sampling_rate() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let total: usize = intervals.iter().map(|r| r.len()).sum();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        let stats = resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        assert_eq!(stats.retired, total);
        assert_eq!(stats.peak_live, total);
        assert!(stats.rounds <= SA_SAMPLE_RATE);
        assert!(stats.rounds >= 1);
        // Every LF step belongs to a cursor that survived a round; a
        // cursor takes at most rate - 1 steps.
        assert!(stats.lf_steps <= total * (SA_SAMPLE_RATE - 1));
    }

    #[test]
    fn empty_worklists_and_buffers_reset() {
        let fm = small_index();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (vec![9u32; 4], vec![7usize; 4]);
        let stats = resolver.resolve_intervals_capped(&[], &[], &mut flat, &mut offsets);
        assert_eq!(stats, ResolveStats::default());
        assert!(flat.is_empty());
        assert_eq!(offsets, vec![0]);

        // Stale buffer content must not survive a real call either.
        let stats = resolver.resolve_intervals_capped(&[0..0, 2..2], &[], &mut flat, &mut offsets);
        assert_eq!(stats.rounds, 0);
        assert!(flat.is_empty());
        assert_eq!(offsets, vec![0, 0, 0]);
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        let first = flat.clone();
        resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        assert_eq!(flat, first);
        // Alternating capped and uncapped calls through one arena must
        // not leak worklist state between them.
        let caps = vec![1u32; intervals.len()];
        resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
        resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        assert_eq!(flat, first);
    }

    #[test]
    #[should_panic(expected = "extends past the text")]
    fn out_of_range_interval_panics() {
        let fm = small_index();
        resolve(&fm, &[0..1, 0..fm.text_len() + 1], &[]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_caps_are_rejected() {
        let fm = small_index();
        resolve(&fm, &[0..1, 0..2], &[1]);
    }
}
