//! The one generator the engine's integration tests draw on: the
//! references, the patterns cut from them, the requests asked of them,
//! the executors that answer and the rule each answer is held to.
//! Every seed is a constant here or at the call site, so a failure
//! replays by name.

#![allow(dead_code)] // each test crate uses its own part of the generator

use exma_engine::{EngineBuilder, QueryBatch, QueryOutput, QueryRequest, QueryResults};
use exma_genome::{Base, ErrorProfile, Genome, GenomeProfile, SeededRng};
use exma_genome::{LongReadSimulator, ShortReadSimulator};
use exma_index::bidir::revcomp;

/// A reference of the generator: the genome, the seed it was drawn
/// from, and where its planted palindrome starts, if it has one.
pub struct Reference {
    pub genome: Genome,
    pub seed: u64,
    pub palindrome_at: Option<usize>,
}

impl Reference {
    fn new(genome: Genome, seed: u64, palindrome_at: Option<usize>) -> Reference {
        Reference {
            genome,
            seed,
            palindrome_at,
        }
    }
}

fn synthesized(profile: GenomeProfile, seed: u64) -> Reference {
    Reference::new(Genome::synthesize(&profile, seed), seed, None)
}

/// The 10 kbp toy reference.
pub fn toy() -> Reference {
    synthesized(GenomeProfile::toy(), 42)
}

pub fn toy_genome() -> Genome {
    toy().genome
}

/// A reference built to keep intervals two and three rows wide for a
/// long time: a 150-base unit copied ten times with a point mutation
/// every 50 bases or so, separated by random filler, with one
/// reverse-complement palindrome of 2 × 30 bases in the middle.
pub fn repeat_rich() -> Reference {
    let seed = 0xC07;
    let mut rng = SeededRng::new(seed);
    let mut bases: Vec<Base> = Vec::new();
    let unit: Vec<Base> = (0..150).map(|_| rng.base()).collect();
    let mut palindrome_at = 0;
    for copy in 0..10 {
        bases.extend((0..rng.range(20, 60)).map(|_| rng.base()));
        if copy == 5 {
            let half: Vec<Base> = (0..30).map(|_| rng.base()).collect();
            palindrome_at = bases.len();
            bases.extend(&half);
            bases.extend(revcomp(&half));
        }
        for &base in &unit {
            bases.push(if rng.chance(1.0 / 50.0) {
                rng.base_other_than(base)
            } else {
                base
            });
        }
    }
    bases.extend((0..40).map(|_| rng.base()));
    let genome = Genome::from_bases("repeat_rich", &bases);
    Reference::new(genome, seed, Some(palindrome_at))
}

/// A 300 kbp reference, half of it diverged copies of a few 400-base
/// units: large enough that the K-mer table is K = 7 wide — three bases
/// more than the widest default step, where the toy's K = 4 is one k-step.
pub fn large_repeat_rich() -> Reference {
    let profile = GenomeProfile {
        name: "repeat_rich_300k".to_string(),
        len: 300_000,
        repeat_fraction: 0.5,
        repeat_divergence: 0.03,
        ..GenomeProfile::picea_rel()
    };
    synthesized(profile, 0x300C)
}

/// Two 60-base families over 70 % of 12 kbp: a 12-mer from a copy
/// occurs some seventy times, while background 12-mers stay rare.
pub fn two_families() -> Reference {
    let profile = GenomeProfile {
        len: 12_000,
        repeat_fraction: 0.7,
        repeat_unit_len: 60,
        repeat_families: 2,
        ..GenomeProfile::toy()
    };
    synthesized(profile, 131)
}

/// A uniformly random reference of `len` bases.
pub fn random(len: usize, seed: u64) -> Reference {
    let mut rng = SeededRng::new(seed);
    let bases: Vec<Base> = (0..len).map(|_| rng.base()).collect();
    Reference::new(
        Genome::from_bases(&format!("random_{len}"), &bases),
        seed,
        None,
    )
}

/// References whose short suffixes share long prefixes: all `A`, and
/// `A…AC` repeated, of every period 2 to 5 — period k and k + 1 at every
/// step width. Each is under 100 bases, so it is asked the sampled kind
/// only.
pub fn degenerate() -> Vec<Reference> {
    (1..=5)
        .map(|period| {
            let unit = |i: usize| match period > 1 && i % period == period - 1 {
                true => Base::C,
                false => Base::A,
            };
            let bases: Vec<Base> = (0..97).map(unit).collect();
            let genome = Genome::from_bases(&format!("period_{period}"), &bases);
            Reference::new(genome, period as u64, None)
        })
        .collect()
}

/// `total` patterns: the empty pattern, then every other one a
/// reference-sampled hit and the rest random (mostly misses), every 13th
/// a 1–3-base repeat and the others of 4–40 bases.
pub fn sampled(genome: &Genome, total: usize, seed: u64) -> Vec<Vec<Base>> {
    let mut rng = SeededRng::new(seed);
    let n = genome.len();
    (0..total)
        .map(|i| {
            if i == 0 {
                return Vec::new();
            }
            let (shortest, longest) = if i % 13 == 0 { (1, 3) } else { (4, 40) };
            let len = rng.range(shortest, longest + 1);
            if i % 2 == 0 {
                let len = len.min(n);
                genome.seq().slice(rng.range(0, n - len + 1), len)
            } else {
                (0..len).map(|_| rng.base()).collect()
            }
        })
        .collect()
}

/// The patterns a reference is queried with, by kind.
pub struct Patterns {
    /// See [`sampled`]; under 100 bases also the whole reference, and it
    /// with one base more.
    pub sampled: Vec<Vec<Base>>,
    /// Error-free reads of both strands, cut from the reference or drawn by
    /// the read simulators, each with its origin `(start, reverse)`.
    pub reads: Vec<(Vec<Base>, usize, bool)>,
    /// One read with one substitution at every distance from its 3′ end:
    /// near the 3′ end the search dies before any cut, further in the
    /// text has to reject the row.
    pub substituted: Vec<Vec<Base>>,
    /// Edges: reads hanging off position 0, ending at the sentinel (of the
    /// forward and of the doubled text) or straddling the doubled text's
    /// junction, palindromes, and patterns longer than the text.
    pub edges: Vec<Vec<Base>>,
}

/// Every kind of pattern for `reference`; a reference under 100 bases
/// gets the sampled kind only. Over 10 kbp the patterns of under four
/// bases go: each locate of one walks a good part of the text (the
/// smaller references hold them to the scan).
pub fn patterns(reference: &Reference, seed: u64) -> Patterns {
    let genome = &reference.genome;
    let mut rng = SeededRng::new(seed);
    let n = genome.len();
    let seq = genome.seq();
    let mut patterns = Patterns {
        sampled: sampled(genome, 150.min(20 + 2 * n), seed),
        reads: Vec::new(),
        substituted: Vec::new(),
        edges: Vec::new(),
    };
    if n < 100 {
        let mut whole = seq.to_vec();
        patterns.sampled.push(whole.clone());
        whole.push(rng.base());
        patterns.sampled.push(whole);
        return patterns;
    }

    for i in 0..60 {
        let len = rng.range(30, 90);
        let start = rng.range(0, n - len + 1);
        let reverse = i % 3 == 0;
        let read = match reverse {
            true => genome.revcomp_window(start, len),
            false => seq.slice(start, len),
        };
        patterns.reads.push((read, start, reverse));
    }
    let short = ShortReadSimulator::new(36, ErrorProfile::error_free());
    let long = LongReadSimulator::new(200, 50, ErrorProfile::error_free());
    let mut simulated = short.simulate(genome, 20, seed ^ 0xB07);
    simulated.extend(long.simulate(genome, 5, seed ^ 0x106));
    for exma_genome::Read { bases, origin, .. } in simulated {
        patterns
            .reads
            .push((bases.to_vec(), origin.start, origin.reverse));
    }

    let read = seq.slice(n / 3, 52);
    patterns.substituted = (0..read.len())
        .map(|from_end| {
            let mut read = read.clone();
            let at = read.len() - 1 - from_end;
            read[at] = rng.base_other_than(read[at]);
            read
        })
        .collect();

    let edges = &mut patterns.edges;
    for (hang, len) in [(1, 40), (3, 40), (12, 48), (30, 30), (40, 12)] {
        let mut pattern: Vec<Base> = (0..hang).map(|_| rng.base()).collect();
        pattern.extend(seq.slice(0, len));
        edges.push(pattern);
    }
    for len in [13, 40, 77] {
        edges.push(seq.slice(n - len, len));
        // The doubled text ends with revcomp(forward[..len]).
        edges.push(genome.revcomp_window(0, len));
    }
    for (tail, head) in [(30, 20), (10, 45), (45, 10), (1, 50), (50, 1)] {
        // forward[n - tail..] · revcomp(forward)[..head]
        let mut pattern = seq.slice(n - tail, tail);
        pattern.extend(genome.revcomp_window(n - head, head));
        edges.push(pattern);
    }
    for half in [1, 2, 3, 6, 20, 25] {
        let random: Vec<Base> = (0..half).map(|_| rng.base()).collect();
        let mut palindrome = random.clone();
        palindrome.extend(revcomp(&random));
        edges.push(palindrome);
        if let (Some(at), true) = (reference.palindrome_at, half > 3) {
            // The planted site's middle 2 × half bases.
            edges.push(seq.slice(at + 30 - half, 2 * half));
        }
    }
    for palindrome in ["ACGT", "AATT", "GATC", "AT"] {
        edges.push(exma_genome::alphabet::parse_bases(palindrome).unwrap());
    }
    let mut longer = seq.to_vec();
    longer.extend(seq.slice(0, 10));
    edges.push(longer.clone());
    longer.extend(seq.to_vec());
    longer.extend(seq.to_vec());
    edges.push(longer); // longer than the doubled text too
    if n > 10_000 {
        patterns.sampled.retain(|pattern| pattern.len() >= 4);
        patterns.edges.retain(|pattern| pattern.len() >= 4);
    }
    patterns
}

/// Every request shape of every pattern: count, interval, locate
/// uncapped and capped at 0, 1, 2, 3, 32 and `u32::MAX` — and the strand
/// searches, uncapped and capped at 0, 1 and 32, where it is doubled.
pub fn every_request_of(patterns: &[Vec<Base>], doubled: bool) -> QueryBatch {
    let mut batch = QueryBatch::new();
    for pattern in patterns {
        batch.push(QueryRequest::Count, pattern);
        batch.push(QueryRequest::locate(), pattern);
        for cap in [0, 1, 2, 3, 32, u32::MAX] {
            batch.push(QueryRequest::locate_capped(cap), pattern);
        }
        batch.push(QueryRequest::Interval, pattern);
        if doubled {
            batch.push(QueryRequest::search_both(), pattern);
            for cap in [0, 1, 32] {
                batch.push(QueryRequest::search_both_capped(cap), pattern);
            }
        }
    }
    batch
}

/// Every forward request shape of `total` sampled patterns.
pub fn mixed_batch(genome: &Genome, total: usize, seed: u64) -> QueryBatch {
    every_request_of(&sampled(genome, total, seed), false)
}

/// What the naive scans say about one pattern: its hits in the indexed
/// text, the same hits in the order of the suffixes that start there,
/// and, on a doubled index, its strand hits in the forward one.
pub struct Truth {
    pub hits: Vec<u32>,
    pub by_suffix: Vec<u32>,
    pub both: Vec<u32>,
}

/// `hits` in the order of the suffixes of `text` that start there, the
/// sentinel lowest: a suffix that ends where a longer one goes on sorts
/// first. A locate capped at `h` keeps the first `h`.
pub fn in_suffix_order(text: &[Base], hits: &[u32]) -> Vec<u32> {
    let mut ordered = hits.to_vec();
    ordered.sort_by_key(|&p| &text[p as usize..]);
    ordered
}

pub type Answer<'r> = (QueryOutput, &'r [u32]);

pub fn answer(results: &QueryResults, i: usize) -> Answer<'_> {
    (results.output(i), results.positions(i))
}

fn brief(hits: &[u32]) -> String {
    match hits.len() {
        0..=8 => format!("{hits:?}"),
        n => format!("{:?}… ({n})", &hits[..8]),
    }
}

/// Why `got` is not the answer the naive scans give for `request`, or
/// not `same`, the sequential executor's answer on the same index.
pub fn judge(
    request: QueryRequest,
    truth: &Truth,
    got: Answer,
    same: Option<Answer>,
) -> Result<(), String> {
    let (output, positions) = got;
    let hits = &truth.hits[..];
    let kept = |cap: Option<u32>, of: usize| cap.map_or(of, |h| (h as usize).min(of));
    let mut expect = hits.to_vec();
    let fine = match request {
        QueryRequest::Count => output == QueryOutput::Count(hits.len() as u32),
        QueryRequest::Interval => matches!(output,
            QueryOutput::Interval { lo, hi } if (hi - lo) as usize == hits.len()),
        QueryRequest::Locate { max_hits } => {
            // The hits whose suffixes come first, by position.
            let kept = kept(max_hits, hits.len());
            expect = truth.by_suffix[..kept].to_vec();
            expect.sort_unstable();
            let truncated = kept < hits.len();
            output == QueryOutput::Located { truncated } && positions == &expect[..]
        }
        QueryRequest::SearchBoth { max_hits } => {
            let kept = kept(max_hits, truth.both.len());
            expect = truth.both[..kept].to_vec();
            let truncated = kept < truth.both.len();
            output == QueryOutput::BothLocated { truncated } && positions == &expect[..]
        }
        other => panic!("the generator asks no {other:?}"),
    };
    if !fine {
        let (got, expect) = (brief(positions), brief(&expect));
        return Err(format!(
            "answered {output:?} {got}; the scan keeps {expect}"
        ));
    }
    match same {
        Some(same) if same != got => Err(format!(
            "answered {output:?} {}, the sequential executor {:?} {}",
            brief(positions),
            same.0,
            brief(same.1)
        )),
        _ => Ok(()),
    }
}

/// Every executor of a recipe: the sequential oracle, the lockstep
/// engine on one thread, and sharded across two and (ragged) seven.
pub fn executors(base: EngineBuilder) -> [EngineBuilder; 4] {
    [base.sequential(), base, base.threads(2), base.threads(7)]
}
