//! The differential harness: every executor, on both strands and at
//! every step width, held to the naive scan.
//!
//! One generator (`common`) draws the references, their patterns and
//! every request shape; each `#[test]` is one reference × strandedness
//! over every step width — `KStepBuildConfig::for_k` at every k in
//! `1..=MAX_STEP` (k = 3 only up to 10 kbp), all in the one
//! layout — answered by the sequential executor, the lockstep engine on
//! one thread, sharded on two and seven, and the 1-step `FmIndex`
//! oracle. What holds:
//!
//! - Every answer equals the naive scan of the indexed text. A locate
//!   capped at `h` keeps, sorted, the `h` hits whose suffixes come first
//!   in the text, and is flagged truncated iff there are more: the rule
//!   is the text's, so no index or executor may answer otherwise.
//! - Every executor answers what the sequential one answers, and the
//!   index's own `count` / `locate_into` agree with the scan.
//! - The lockstep counters do not depend on the thread count.
//!
//! A failure names the reference and its seed, the build, the executor,
//! the query, its request and its pattern, and says whether the query
//! still fails run alone: to replay it, build that reference at that k
//! and run the pattern as a batch of one.

mod common;

use common::{
    answer, every_request_of, executors, in_suffix_order, judge, patterns, Reference, Truth,
};
use exma_engine::{EngineBuilder, Executor, QueryBatch, QueryRequest, QueryResults};
use exma_genome::{Base, PackedSeq, SeededRng, Symbol};
use exma_index::bidir::{encode_hit, is_palindromic, revcomp, Strand};
use exma_index::layout::SA_SAMPLE_RATE;
use exma_index::{doubled_text, naive, FmIndex, KStepBuildConfig, KStepFmIndex, MAX_STEP};

/// One kind of pattern, every request shape of each, and the truth.
struct Kind {
    name: &'static str,
    patterns: Vec<Vec<Base>>,
    truth: Vec<Truth>,
    batch: QueryBatch,
}

impl Kind {
    fn truth_of(&self, query: usize) -> &Truth {
        &self.truth[query / (self.batch.len() / self.patterns.len())]
    }
}

/// A reference indexed forward or doubled: the text of the index, and
/// the sequence the naive scan reads in its place, packed and as bases.
struct Case<'a> {
    reference: &'a Reference,
    doubled: bool,
    text: Vec<Symbol>,
    indexed: PackedSeq,
    bases: Vec<Base>,
}

impl<'a> Case<'a> {
    fn new(reference: &'a Reference, doubled: bool) -> Case<'a> {
        let genome = &reference.genome;
        let mut bases = genome.seq().to_vec();
        let mut text = genome.text_with_sentinel();
        if doubled {
            bases.extend(revcomp(&bases));
            text = doubled_text(&text);
        }
        let indexed = PackedSeq::from_bases(&bases);
        Case {
            reference,
            doubled,
            text,
            indexed,
            bases,
        }
    }

    /// Every request shape of `patterns`, with the truth.
    fn kind(&self, name: &'static str, patterns: Vec<Vec<Base>>) -> Kind {
        let forward = self.reference.genome.seq();
        let truth = patterns
            .iter()
            .map(|p| {
                let hits = naive::occurrences(&self.indexed, p);
                Truth {
                    by_suffix: in_suffix_order(&self.bases, &hits),
                    hits,
                    both: match self.doubled {
                        true => naive::occurrences_both(forward, p),
                        false => Vec::new(),
                    },
                }
            })
            .collect();
        let batch = every_request_of(&patterns, self.doubled);
        Kind {
            name,
            patterns,
            truth,
            batch,
        }
    }

    /// Where an answer came from, for failure messages.
    fn at(&self, recipe: &str, descriptor: &str, kind: &str) -> String {
        let strand = if self.doubled { "doubled" } else { "forward" };
        let (name, seed) = (&self.reference.genome.profile().name, self.reference.seed);
        format!("{name} (seed {seed:#x}), {strand}, {recipe}, {descriptor}, {kind} patterns")
    }
}

fn acgt(pattern: &[Base]) -> String {
    pattern.iter().map(|b| b.to_string()).collect()
}

fn alone(engine: &dyn Executor, batch: &QueryBatch, i: usize) -> QueryResults {
    engine
        .run(&QueryBatch::uniform(batch.request(i), [batch.pattern(i)]))
        .0
}

/// Holds every answer of `results` to the truth and to `same`; every
/// `alone_every`-th query must also answer the same in a batch of one.
fn hold(
    at: &str,
    kind: &Kind,
    engine: &dyn Executor,
    results: &QueryResults,
    same: Option<&QueryResults>,
    alone_every: usize,
) {
    let batch = &kind.batch;
    assert_eq!(results.len(), batch.len(), "{at}");
    for i in 0..batch.len() {
        let same_i = same.map(|same| answer(same, i));
        let judge = |got| judge(batch.request(i), kind.truth_of(i), got, same_i);
        let mut verdict = judge(answer(results, i));
        if verdict.is_ok() && i % alone_every == 0 {
            let single = alone(engine, batch, i);
            if answer(&single, 0) != answer(results, i) {
                verdict = Err(format!("a batch of one answers {:?}", answer(&single, 0)));
            }
        }
        if let Err(why) = verdict {
            let rerun = match judge(answer(&alone(engine, batch, i), 0)) {
                Ok(()) => "run alone it passes".to_string(),
                Err(why) => format!("run alone it fails too: {why}"),
            };
            let (request, pattern) = (batch.request(i), acgt(batch.pattern(i)));
            panic!("{at}: query #{i}, {request:?} of {pattern:?}: {why}; {rerun}");
        }
    }
}

/// The index's own `count`, k-step and 1-step, and its `locate_into`
/// (into a buffer holding the last answer), against the scan.
fn hold_methods(at: &str, kind: &Kind, index: &KStepFmIndex) {
    let mut buf = Vec::new();
    for (pattern, truth) in kind.patterns.iter().zip(&kind.truth) {
        let at = format!("{at}: the index's own answer for {:?}", acgt(pattern));
        let counts = (index.count(pattern), index.base_index().count(pattern));
        assert_eq!(counts, (truth.hits.len(), truth.hits.len()), "{at}");
        index.locate_into(pattern, &mut buf);
        assert_eq!(buf, truth.hits, "{at}");
    }
}

/// Runs the whole matrix over `reference`: `for_k` at every k (k = 3
/// only up to 10 kbp).
fn differential(reference: &Reference, doubled: bool) {
    let case = Case::new(reference, doubled);
    let genome = &reference.genome;
    let forward = genome.seq();
    let generated = patterns(reference, reference.seed ^ 0xD1FF);
    // The generator's reads are where it says they are. A forward index
    // is asked for each as the reference holds it.
    let mut reads = Vec::new();
    for (read, start, reverse) in generated.reads {
        let both = naive::occurrences_both(forward, &read);
        let found = |strand| both.contains(&encode_hit(start as u32, strand));
        let found = found(Strand::from_bit(reverse as u32))
            || is_palindromic(&read) && found(Strand::Forward);
        assert!(found, "{}: no read at {start}", genome.profile().name);
        let as_held = reverse && !doubled;
        reads.push(if as_held { revcomp(&read) } else { read });
    }
    let kinds: Vec<Kind> = [
        ("sampled", generated.sampled),
        ("reads", reads),
        ("substituted", generated.substituted),
        ("edges", generated.edges),
    ]
    .into_iter()
    .filter(|(_, patterns)| !patterns.is_empty())
    .map(|(name, patterns)| case.kind(name, patterns))
    .collect();
    // The sampled kind has misses, repeats and hits of every length mod k.
    let hits: Vec<usize> = kinds[0].truth.iter().map(|t| t.hits.len()).collect();
    assert!(hits.contains(&0) && hits.iter().any(|&h| h > 1), "{hits:?}");
    let lengths: Vec<usize> = kinds[0].patterns.iter().step_by(2).map(Vec::len).collect();
    let every_residue = |k| (0..k).all(|r| lengths.iter().any(|len| len % k == r));
    assert!(
        genome.len() < 100 || (1..=MAX_STEP).all(every_residue),
        "{lengths:?}"
    );
    // The 1-step oracle.
    let fm = FmIndex::from_text(&case.text);
    let one_step = EngineBuilder::new().k(1).sequential();
    let one_step = one_step.attach_one_step(&fm).unwrap();
    let oracle: Vec<QueryResults> = kinds
        .iter()
        .map(|kind| {
            let at = case.at("1-step FmIndex", "seq_k1", kind.name);
            let (results, _) = one_step.run(&kind.batch);
            hold(&at, kind, &*one_step, &results, None, usize::MAX);
            results
        })
        .collect();

    let widths = (1..=MAX_STEP).filter(|&k| k != 3 || genome.len() <= 10_000);
    for k in widths {
        let config = KStepBuildConfig {
            k,
            bidirectional: doubled,
        };
        let index = KStepFmIndex::from_text_with_config(&case.text, config).unwrap();
        if genome.len() >= 300_000 {
            assert!(index.lookup_k() >= k + 3, "K = {}", index.lookup_k());
        }
        let [sequential, lockstep @ ..] =
            executors(EngineBuilder::new().k(k).bidirectional(doubled));
        // Every answer, interval bounds included, is the 1-step oracle's.
        for (kind, oracle) in kinds.iter().zip(&oracle) {
            let recipe = format!("{config:?}");
            let at = case.at(&recipe, &sequential.descriptor(), kind.name);
            hold_methods(&at, kind, &index);
            let engine = sequential.attach(&index).unwrap();
            let (expected, _) = engine.run(&kind.batch);
            hold(&at, kind, &*engine, &expected, Some(oracle), usize::MAX);
            let mut first = None;
            for builder in lockstep {
                let at = case.at(&recipe, &builder.descriptor(), kind.name);
                let engine = builder.attach(&index).unwrap();
                let (results, stats) = engine.run(&kind.batch);
                hold(&at, kind, &*engine, &results, Some(&expected), 61);
                // The cut and the resolver's work are properties of the
                // index and the request, not of the sharding.
                let counters = (
                    stats.cut_queries,
                    stats.rows_rejected,
                    stats.steps,
                    stats.resolve_lf_steps,
                    stats.cursors_retired,
                );
                let (one_thread, rounds) = *first.get_or_insert((counters, stats.resolve_rounds));
                assert_eq!(counters, one_thread, "{at}: {stats:?}");
                assert!(stats.resolve_rounds <= rounds, "{at}: {stats:?}");
                if builder != lockstep[0] {
                    continue;
                }
                match kind.name {
                    "reads" => assert!(stats.cut_queries > 0, "{at}: {stats:?}"),
                    "substituted" => assert!(stats.rows_rejected > 0, "{at}: {stats:?}"),
                    // Dead queries drop out: random misses die early.
                    "sampled" => assert!(
                        stats.rounds < 2 || stats.steps < stats.rounds * stats.peak_live,
                        "{at}: {stats:?}"
                    ),
                    _ => {}
                }
                // Uncapped locates alone: every row walked retires one
                // cursor within the SA rate's round bound, the rows a cut
                // query's text rejected included.
                let locates = QueryBatch::uniform(QueryRequest::locate(), &kind.patterns);
                let (results, stats) = engine.run(&locates);
                for (j, truth) in kind.truth.iter().enumerate() {
                    assert_eq!(results.positions(j), &truth.hits[..], "{at}: uncapped #{j}");
                }
                let hits: usize = kind.truth.iter().map(|t| t.hits.len()).sum();
                assert_eq!(stats.cursors_retired, hits + stats.rows_rejected, "{at}");
                assert!(stats.resolve_rounds <= SA_SAMPLE_RATE, "{at}: {stats:?}");
            }
        }
    }
}

/// Forty random references, of every length from 1 to 31 bases.
fn tiny() -> Vec<Reference> {
    (0..40)
        .map(|i| common::random(1 + i % 31, 0x7141 + i as u64))
        .collect()
}

/// One `#[test]` per reference × strandedness, so they run in parallel.
macro_rules! cases {
    ($($name:ident: $references:expr, $doubled:expr;)*) => {
        $(#[test]
        fn $name() {
            for reference in $references {
                differential(&reference, $doubled);
            }
        })*
    };
}

cases! {
    toy_10k_forward: [common::toy()], false;
    toy_10k_doubled: [common::toy()], true;
    repeat_rich_forward: [common::repeat_rich()], false;
    repeat_rich_doubled: [common::repeat_rich()], true;
    repeat_rich_300k_forward: [common::large_repeat_rich()], false;
    repeat_rich_300k_doubled: [common::large_repeat_rich()], true;
    random_1_to_31_bases_forward: tiny(), false;
    random_1_to_31_bases_doubled: tiny(), true;
    degenerate_forward: common::degenerate(), false;
    degenerate_doubled: common::degenerate(), true;
}

#[test]
fn capped_answers_are_the_same_at_every_k_and_thread_count() {
    // A 12-mer from a family copy occurs some seventy times, far beyond
    // a cap of 8, while background 12-mers and random ones stay under it.
    // A capped locate keeps the 8 hits whose suffixes come first in the
    // text, a rule no index builds in: every width and thread count is
    // held to the scan's order of the suffixes.
    const MAX_HITS: u32 = 8;
    let reference = common::two_families();
    let case = Case::new(&reference, false);
    let (seq, n) = (reference.genome.seq(), reference.genome.len());
    let mut rng = SeededRng::new(137);
    let patterns: Vec<Vec<Base>> = (0..120)
        .map(|i| match i % 6 {
            0 => (0..12).map(|_| rng.base()).collect(),
            1 => seq.slice(rng.range(0, n), 0),
            2 => seq.slice(rng.range(0, n - 3), rng.range(1, 4)),
            _ => seq.slice(rng.range(0, n - 12), 12),
        })
        .collect();
    let mut kind = case.kind("capped", patterns);
    kind.batch = QueryBatch::uniform(QueryRequest::locate_capped(MAX_HITS), &kind.patterns);
    let over_cap = kind
        .truth
        .iter()
        .filter(|t| t.hits.len() > MAX_HITS as usize)
        .count();
    assert!(
        over_cap >= 40 && kind.truth.len() - over_cap >= 20,
        "{over_cap}"
    );

    for k in [1usize, 2, 4] {
        let index = KStepFmIndex::from_text(&case.text, k);
        for threads in [1usize, 2] {
            let flavor = EngineBuilder::new().k(k).threads(threads);
            let engine = flavor.attach(&index).unwrap();
            let (results, _) = engine.run(&kind.batch);
            let at = case.at(&format!("k={k}"), &flavor.descriptor(), kind.name);
            hold(&at, &kind, &*engine, &results, None, usize::MAX);
        }
    }
}
