//! Lockstep batched resolution of suffix-array intervals — `locate`'s
//! counterpart to the batch engine's lockstep backward search.
//!
//! The per-row path ([`FmIndex::resolve_row`]) LF-walks each interval row
//! serially: every step loads the occurrence block the previous step's
//! answer points at, so the whole walk is one dependent cache-miss chain —
//! the exact DRAM pattern the paper's measurements blame for FM-index
//! latency (§II-C). This module overlaps those walks: every row of one or
//! many intervals becomes a *cursor* `(row, steps, interval)` on a shared
//! worklist, and a round takes every live cursor one step, in worklist
//! order (with every line hinted ahead, sorting a round by row costs more
//! than the address order buys).
//!
//! **One line per step.** A step reads one occurrence line
//! ([`FmIndex::lf_marked`]): the row's code byte holds its BWT symbol and,
//! in bit 7, whether the row is SA-sampled; the counters and code lanes
//! around it give the rank. A marked cursor retires, an unmarked one moves
//! to its LF successor, and while the loop handles cursor `j` it hints the
//! line cursor `j + d` will read.
//!
//! **Pipelined retirement.** A marked row's position is three dependent
//! reads away — mark word, prefix count, sample — so retirements queue
//! behind hints too: a retiring cursor claims the next free slot of its
//! interval's staging region, joins the round's `retiring` list and hints
//! its mark word; at the end of the round one pass turns each listed row
//! into its sample slot and hints the sample, a second writes
//! `sample + steps`.
//!
//! Intervals can carry a **hit cap** (`max_hits` of a
//! `QueryRequest::Locate`): once an interval has retired its cap's worth
//! of cursors, its survivors are dropped at the end of that round, which
//! bounds both the output and the remaining LF work. The kept positions
//! follow the round-based rule of [`FmIndex::resolve_range_capped_into`],
//! so capped answers are identical across schedules, engines and thread
//! counts. An uncapped interval is one capped at [`UNCAPPED`] — the same
//! loop, a cap it cannot reach — and resolves element-identical to
//! [`FmIndex::resolve_range_into`].

use std::ops::Range;

use exma_genome::Symbol;

use crate::fm::FmIndex;

/// How many cursors ahead of the one being stepped the resolver hints
/// when [`ResolveConfig::prefetch_distance`] is left to the preset.
///
/// A step costs 20–25 ns and a miss 160–265 ns (`machine.chase_ns`), so
/// the hint must lead by ten cursors or so; it is one line and one
/// superblock word a cursor, so a longer lead crowds nothing out. One
/// index walked at every distance in one process reads, at d = 4, 8, 16,
/// 32, 64, 30.9, 27.3, 25.7, 26.8, 26.8 ns a step; through the benchmark
/// `locate_seeds` was flat from 8 to 64 within the box's noise at SA
/// rate 32 (10th-percentile ns/query 1975, 1742, 1865, 1852, 1726;
/// CHANGES.md, PR 18). At the default rate of 11 a batch lives at most
/// eleven rounds and its worklist shrinks faster; re-measured there, five
/// rotated runs each: d = 8, 16, 32 read 903, 870, 869 ns/query (8 behind
/// in all five, 16 and 32 level; CHANGES.md, PR 20).
pub const DEFAULT_RESOLVE_PREFETCH_DISTANCE: usize = 16;

/// Hit-cap sentinel: an interval with this cap keeps every position.
pub const UNCAPPED: u32 = u32::MAX;

/// Scheduling knobs of a [`BatchResolver`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResolveConfig {
    /// While stepping cursor `j`, prefetch the occurrence line cursor
    /// `j + d` will read, and prefetch ahead of each retirement's mark
    /// and sample reads. `0`, the default, issues no hint at all.
    pub prefetch_distance: usize,
}

impl ResolveConfig {
    /// Software prefetch at [`DEFAULT_RESOLVE_PREFETCH_DISTANCE`].
    pub fn locality() -> ResolveConfig {
        ResolveConfig {
            prefetch_distance: DEFAULT_RESOLVE_PREFETCH_DISTANCE,
        }
    }
}

/// Execution counters of one batched resolution, for tests and the bench
/// harness's `BatchStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResolveStats {
    /// Lockstep rounds executed — at most the SA sampling rate
    /// ([`crate::layout::SA_SAMPLE_RATE`], 11), since every cursor
    /// resolves within `SA_SAMPLE_RATE - 1` LF steps; fewer when caps
    /// close every interval early.
    pub rounds: usize,
    /// LF steps issued across all cursors and rounds.
    pub lf_steps: usize,
    /// Cursors retired by hitting a sampled mark: every row of an
    /// uncapped interval; a capped one may retire more than its cap (the
    /// cap is checked at round boundaries) before its output is trimmed.
    pub retired: usize,
    /// Cursors live in the widest round (the initial worklist).
    pub peak_live: usize,
    /// Cursors dropped unresolved because their interval hit its cap —
    /// LF-walks the cap made unnecessary.
    pub dropped: usize,
}

/// In-flight state of one interval row between rounds. Rows and interval
/// indices fit `u32` because the suffix array itself stores `u32`
/// positions and the worklist size is asserted below it.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    row: u32,
    /// LF steps taken so far — added back to the sampled position.
    steps: u32,
    /// The interval whose staging region and cap this row belongs to.
    interval: u32,
}

/// A cursor that hit a mark this round, on its way to its staging slot.
#[derive(Debug, Clone, Copy)]
struct Retiring {
    /// The marked row; then, between the two end-of-round passes, its
    /// slot in the sample vector.
    at: u32,
    steps: u32,
    /// Index into the staging buffer.
    slot: u32,
}

/// Reusable scratch of the lockstep resolver: worklists, per-interval
/// retirement counters, and the full-width staging buffer. A long-lived
/// arena resolves many batches without reallocating — the buffers keep
/// their high-water capacity across calls.
#[derive(Debug, Clone, Default)]
pub struct ResolveArena {
    live: Vec<Cursor>,
    next: Vec<Cursor>,
    retiring: Vec<Retiring>,
    /// One cap per interval ([`UNCAPPED`] where the caller gave none).
    caps: Vec<u32>,
    /// Cursors retired so far per interval: its staging region's fill.
    filled: Vec<u32>,
    /// Prefix sums of *full* interval widths — the staging layout rows
    /// resolve into before each region is trimmed to its cap.
    full: Vec<usize>,
    /// Full-width staging buffer; region `i` holds `filled[i]` positions.
    staging: Vec<u32>,
}

/// Resolves every row of every interval into one pooled output: after
/// the call, `flat[offsets[i]..offsets[i + 1]]` holds interval `i`'s
/// text positions sorted ascending. With an empty `caps` (or every cap at
/// least its interval's width), output is element-identical to running
/// [`FmIndex::resolve_range_into`] on each interval; a capped interval
/// keeps `min(cap, len)` positions chosen by the deterministic rule of
/// [`FmIndex::resolve_range_capped_into`]. Both buffers are cleared
/// first; `arena` supplies every piece of scratch, so steady-state calls
/// allocate nothing once capacities are warm.
///
/// # Panics
///
/// Panics if `caps` is non-empty with a length different from
/// `intervals`, an interval extends past the text, or the total row
/// count does not fit the `u32` cursor slots.
pub fn resolve_capped_with_arena(
    fm: &FmIndex,
    config: ResolveConfig,
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
    arena.caps.clear();
    arena.caps.extend_from_slice(caps);
    arena.caps.resize(intervals.len(), UNCAPPED);
    arena.full.clear();
    arena.full.push(0);
    let mut total = 0usize;
    for interval in intervals {
        assert!(
            interval.end <= fm.text_len(),
            "interval {interval:?} extends past the text"
        );
        total += interval.len();
        arena.full.push(total);
    }
    assert!(
        total < u32::MAX as usize,
        "worklist too large for u32 slots"
    );
    if arena.staging.len() < total {
        arena.staging.resize(total, 0);
    }
    arena.filled.clear();
    arena.filled.resize(intervals.len(), 0);
    arena.live.clear();
    for (i, interval) in intervals.iter().enumerate() {
        if arena.caps[i] == 0 {
            continue; // nothing to keep: its rows never enter the worklist
        }
        arena.live.extend(interval.clone().map(|row| Cursor {
            row: row as u32,
            steps: 0,
            interval: i as u32,
        }));
    }

    let mut stats = ResolveStats {
        peak_live: arena.live.len(),
        ..ResolveStats::default()
    };
    let (occ, ssa) = (fm.occ(), fm.sampled_sa());
    let d = config.prefetch_distance;
    while !arena.live.is_empty() {
        stats.rounds += 1;
        let mut capped_round = false;
        for j in 0..arena.live.len() {
            if d > 0 {
                if let Some(ahead) = arena.live.get(j + d) {
                    // Whatever its symbol: one block holds all of a row.
                    occ.prefetch_rank(Symbol::Sentinel, ahead.row as usize);
                }
            }
            let c = arena.live[j];
            let (successor, marked) = fm.lf_marked(c.row as usize);
            if !marked {
                arena.next.push(Cursor {
                    row: successor as u32,
                    steps: c.steps + 1,
                    interval: c.interval,
                });
                continue;
            }
            let i = c.interval as usize;
            arena.retiring.push(Retiring {
                at: c.row,
                steps: c.steps,
                slot: (arena.full[i] + arena.filled[i] as usize) as u32,
            });
            arena.filled[i] += 1;
            capped_round |= arena.filled[i] >= arena.caps[i];
            if d > 0 {
                ssa.prefetch(c.row as usize);
            }
        }
        stats.lf_steps += arena.next.len();
        stats.retired += arena.retiring.len();
        for r in arena.retiring.iter_mut() {
            r.at = ssa.slot(r.at as usize) as u32;
            if d > 0 {
                ssa.prefetch_sample(r.at as usize);
            }
        }
        for r in arena.retiring.drain(..) {
            arena.staging[r.slot as usize] = ssa.sample(r.at as usize) + r.steps;
        }
        // Cap enforcement happens here, at the round boundary: every
        // cursor whose walk ends this round still retires (keeping the
        // drop set independent of in-round processing order), and only
        // then do capped intervals shed their survivors.
        if capped_round {
            let (next, filled, caps) = (&mut arena.next, &arena.filled, &arena.caps);
            let before = next.len();
            next.retain(|c| filled[c.interval as usize] < caps[c.interval as usize]);
            stats.dropped += before - next.len();
        }
        std::mem::swap(&mut arena.live, &mut arena.next);
        arena.next.clear();
    }

    // A region fills in retirement order: sort it, and its first
    // `min(cap, len)` are the smallest positions that beat the cap.
    offsets.clear();
    offsets.push(0);
    flat.clear();
    for (i, interval) in intervals.iter().enumerate() {
        let start = arena.full[i];
        let region = &mut arena.staging[start..start + arena.filled[i] as usize];
        region.sort_unstable();
        flat.extend_from_slice(&region[..(arena.caps[i] as usize).min(interval.len())]);
        offsets.push(flat.len());
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
    config: ResolveConfig,
    arena: ResolveArena,
}

impl<'a> BatchResolver<'a> {
    /// A resolver borrowing `fm`'s tables, running round schedule `config`.
    pub fn with_config(fm: &'a FmIndex, config: ResolveConfig) -> BatchResolver<'a> {
        BatchResolver {
            fm,
            config,
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
        resolve_capped_with_arena(
            self.fm,
            self.config,
            intervals,
            caps,
            flat,
            offsets,
            &mut self.arena,
        )
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

    /// Every schedule the benchmarks exercise, plus a short look-ahead.
    fn all_configs() -> [ResolveConfig; 3] {
        [
            ResolveConfig::default(),
            ResolveConfig::locality(),
            ResolveConfig {
                prefetch_distance: 2,
            },
        ]
    }

    fn intervals_of(fm: &FmIndex) -> Vec<std::ops::Range<usize>> {
        ["A", "CAT", "TAGA", "CCATAG", "GGG", ""]
            .iter()
            .map(|p| fm.backward_search(&exma_genome::alphabet::parse_bases(p).unwrap()))
            .collect()
    }

    #[test]
    fn matches_per_row_resolution_under_every_schedule() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let mut expect_flat = Vec::new();
        let mut expect_offsets = vec![0usize];
        let mut buf = Vec::new();
        for interval in &intervals {
            fm.resolve_range_into(interval.clone(), &mut buf);
            expect_flat.extend_from_slice(&buf);
            expect_offsets.push(expect_flat.len());
        }
        for config in all_configs() {
            let mut resolver = BatchResolver::with_config(&fm, config);
            let (mut flat, mut offsets) = (Vec::new(), Vec::new());
            resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
            assert_eq!(flat, expect_flat, "{config:?}");
            assert_eq!(offsets, expect_offsets, "{config:?}");
        }
    }

    #[test]
    fn capped_resolution_matches_the_sequential_capped_rule() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        for cap in [0u32, 1, 2, 3, 100, UNCAPPED] {
            let caps = vec![cap; intervals.len()];
            let mut expect_flat = Vec::new();
            let mut expect_offsets = vec![0usize];
            let mut buf = Vec::new();
            for interval in &intervals {
                fm.resolve_range_capped_into(interval.clone(), cap, &mut buf);
                expect_flat.extend_from_slice(&buf);
                expect_offsets.push(expect_flat.len());
            }
            for config in all_configs() {
                let mut resolver = BatchResolver::with_config(&fm, config);
                let (mut flat, mut offsets) = (Vec::new(), Vec::new());
                resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
                assert_eq!(flat, expect_flat, "cap={cap}, {config:?}");
                assert_eq!(offsets, expect_offsets, "cap={cap}, {config:?}");
            }
        }
    }

    /// What the counters must read, from each row's walk length alone. A
    /// row `w` LF steps from a mark retires in round `w` (from 0); an
    /// interval closes at the end of the first round by which `cap` of
    /// its rows have retired, and its other rows — stepped once in every
    /// round so far — are dropped there.
    fn reference_stats(fm: &FmIndex, intervals: &[Range<usize>], caps: &[u32]) -> ResolveStats {
        let mut stats = ResolveStats::default();
        for (interval, &cap) in intervals.iter().zip(caps) {
            if cap == 0 {
                continue; // its rows never enter the worklist
            }
            let walks: Vec<usize> = interval
                .clone()
                .map(|row| fm.resolve_row_with_steps(row).1 as usize)
                .collect();
            let mut sorted = walks.clone();
            sorted.sort_unstable();
            // The round that retires the cap-th row, if one does.
            let close = sorted.get(cap as usize - 1).copied().unwrap_or(usize::MAX);
            stats.peak_live += walks.len();
            for w in walks {
                let (steps, live_rounds) = if w <= close {
                    stats.retired += 1;
                    (w, w + 1)
                } else {
                    stats.dropped += 1;
                    (close + 1, close + 1)
                };
                stats.lf_steps += steps;
                stats.rounds = stats.rounds.max(live_rounds);
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
        for prefetch_distance in [0, 3, 16] {
            let at = format!("distance {prefetch_distance}");
            let mut resolver = BatchResolver::with_config(&fm, ResolveConfig { prefetch_distance });
            let (mut flat, mut offsets) = (Vec::new(), Vec::new());
            let stats =
                resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
            assert_eq!(stats, expect, "{at}");
            let mut buf = Vec::new();
            for (i, interval) in intervals.iter().enumerate() {
                fm.resolve_range_capped_into(interval.clone(), caps[i], &mut buf);
                let got = &flat[offsets[i]..offsets[i + 1]];
                assert_eq!(
                    got,
                    &buf[..],
                    "{at}, interval {i} {interval:?} cap {}",
                    caps[i]
                );
            }
        }
    }

    #[test]
    fn a_period_the_sa_rate_divides_crowds_a_capped_interval_into_one_round() {
        // 64 exact copies of a 30-base unit, one every `period` bases over
        // random filler — the grid `Genome::synthesize` lays repeat
        // copies on. A 12-mer at offset 1 of the unit then occurs at
        // period · i + 1, and a row's walk length is that modulo the SA
        // rate.
        const COPIES: usize = 64;
        const CAP: u32 = 8;
        let resolve = |period: usize| {
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
            let truth: Vec<u32> = (0..COPIES).map(|i| (period * i + 1) as u32).collect();
            let intervals = [fm.backward_search(&seed)];
            assert_eq!(intervals[0].len(), COPIES);
            let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::locality());
            let (mut flat, mut offsets) = (Vec::new(), Vec::new());
            let stats =
                resolver.resolve_intervals_capped(&intervals, &[CAP], &mut flat, &mut offsets);
            assert_eq!(stats, reference_stats(&fm, &intervals, &[CAP]));
            // Either way the cap keeps `CAP` true positions.
            assert_eq!(flat.len(), CAP as usize, "period {period}");
            assert!(flat.windows(2).all(|w| w[0] < w[1]));
            assert!(flat.iter().all(|p| truth.binary_search(p).is_ok()));
            stats
        };

        // Periods the rate divides: every row is one step from a mark,
        // so all 64 retire together in round 2 and the cap, checked at
        // the round boundary, finds nothing left to drop.
        for period in [44, 55] {
            assert_eq!(period % SA_SAMPLE_RATE, 0);
            let stats = resolve(period);
            assert_eq!((stats.rounds, stats.dropped), (2, 0), "period {period}");
            assert_eq!(stats.retired, COPIES, "period {period}");
        }
        // Periods coprime to it: period · i + 1 visits every residue
        // class, five or six rows each, so the second round reaches the
        // cap and the rest of the worklist is dropped there.
        for period in [40, 39] {
            let stats = resolve(period);
            assert_eq!(stats.rounds, 2, "period {period}");
            assert!(stats.retired >= CAP as usize && stats.retired < 2 * CAP as usize);
            assert_eq!(stats.dropped, COPIES - stats.retired, "period {period}");
        }
    }

    #[test]
    fn capping_actually_drops_cursors() {
        let fm = small_index();
        // "A" has many occurrences; cap 1 must shed the rest of its
        // worklist instead of walking every row to a mark.
        let intervals = vec![fm.backward_search(&exma_genome::alphabet::parse_bases("A").unwrap())];
        assert!(intervals[0].len() > 3);
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        let uncapped = resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        let capped = resolver.resolve_intervals_capped(&intervals, &[1], &mut flat, &mut offsets);
        assert_eq!(flat.len(), 1);
        assert!(capped.dropped > 0, "{capped:?}");
        assert!(capped.retired < uncapped.retired);
        assert!(capped.lf_steps <= uncapped.lf_steps);
        assert_eq!(uncapped.dropped, 0);
    }

    #[test]
    fn mixed_caps_only_trim_their_own_interval() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        // Cap only interval 0; everything else keeps full output.
        let mut caps = vec![UNCAPPED; intervals.len()];
        caps[0] = 2;
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
        let mut buf = Vec::new();
        for (i, interval) in intervals.iter().enumerate() {
            fm.resolve_range_capped_into(interval.clone(), caps[i], &mut buf);
            assert_eq!(&flat[offsets[i]..offsets[i + 1]], &buf[..], "interval {i}");
        }
    }

    #[test]
    fn stats_bound_rounds_by_the_sampling_rate() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let total: usize = intervals.iter().map(|r| r.len()).sum();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
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
    fn prefetching_changes_no_counter() {
        let fm = small_index();
        let intervals = intervals_of(&fm);
        let run = |config: ResolveConfig, caps: &[u32]| {
            let mut resolver = BatchResolver::with_config(&fm, config);
            let (mut flat, mut offsets) = (Vec::new(), Vec::new());
            resolver.resolve_intervals_capped(&intervals, caps, &mut flat, &mut offsets)
        };
        for caps in [vec![], vec![2; intervals_of(&fm).len()]] {
            let plain = run(ResolveConfig::default(), &caps);
            for config in &all_configs()[1..] {
                assert_eq!(run(*config, &caps), plain, "{config:?}, caps {caps:?}");
            }
        }
    }

    #[test]
    fn empty_worklists_and_buffers_reset() {
        let fm = small_index();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
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
        // not leak staging state between them.
        let caps = vec![1u32; intervals.len()];
        resolver.resolve_intervals_capped(&intervals, &caps, &mut flat, &mut offsets);
        resolver.resolve_intervals_capped(&intervals, &[], &mut flat, &mut offsets);
        assert_eq!(flat, first);
    }

    #[test]
    #[should_panic(expected = "extends past the text")]
    fn out_of_range_interval_panics() {
        let fm = small_index();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        resolver.resolve_intervals_capped(
            &[0..1, 0..fm.text_len() + 1],
            &[],
            &mut flat,
            &mut offsets,
        );
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_caps_are_rejected() {
        let fm = small_index();
        let mut resolver = BatchResolver::with_config(&fm, ResolveConfig::default());
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        resolver.resolve_intervals_capped(&[0..1, 0..2], &[1], &mut flat, &mut offsets);
    }
}
