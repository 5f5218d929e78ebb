//! The metric catalog — every name the benchmark may print, with its
//! unit and direction — and the result a workload run hands back.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two together.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// By what share of `base` the value `new` is worse (negative when
    /// it is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// A metric's catalog entry. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The driver's contract has every
/// workload report every one of these from its untraced run, none of
/// them ever 0, so each is defined to mean the same thing on every
/// workload; README.md gives the definitions and the measured spreads
/// the bounds are three times of.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("queries_per_s", "queries/s", Higher, 0.25),
    e2e("latency_us_p10", "us", Lower, 0.25),
    e2e("index_bytes_per_base", "B/base", Lower, 0.005),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers, measured by the traced run only. A metric that does
/// not exist on a workload (a server metric on an embedded workload)
/// is reported as 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // genome
    layer("genome.genome.synthesize_s", "s", Lower),
    layer("genome.suffix.suffix_array_ns_per_base", "ns/base", Lower),
    layer("genome.bwt.bwt_from_sa_ns_per_base", "ns/base", Lower),
    layer("genome.reads.simulate_ns_per_read", "ns/read", Lower),
    // index: build and persist
    layer("index.kstep.build_s", "s", Lower),
    layer("index.kstep.build_self_s", "s", Lower),
    layer("index.snapshot.encode_s", "s", Lower),
    layer("index.snapshot.decode_s", "s", Lower),
    layer("index.snapshot.bytes_per_base", "B/base", Lower),
    // index: heap (exact)
    layer("index.heap.k_occ_checkpoints_bytes", "B", Lower),
    layer("index.heap.k_occ_deltas_bytes", "B", Lower),
    layer("index.heap.k_occ_codes_bytes", "B", Lower),
    layer("index.heap.one_step_occ_bytes", "B", Lower),
    layer("index.heap.sa_samples_bytes", "B", Lower),
    layer("index.heap.rank_bits_bytes", "B", Lower),
    layer("index.heap.other_bytes", "B", Lower),
    // index: kernels in isolation
    layer("index.kocc.rank_pair_ns", "ns", Lower),
    layer("index.kocc.rank_pair_hot_ns", "ns", Lower),
    layer("index.kstep.kstep_ns", "ns", Lower),
    layer("index.occ.lf_ns", "ns", Lower),
    layer("index.sampled_sa.get_ns", "ns", Lower),
    // index: resolver
    layer("index.resolve.lf_step_ns", "ns", Lower),
    layer("index.resolve.ns_per_position", "ns", Lower),
    layer("index.resolve.lf_steps_per_position", "count", Lower),
    layer("index.resolve.dropped_share", "ratio", Lower),
    layer("index.bidir.map_hits_ns_per_hit", "ns", Lower),
    // engine
    layer("engine.batch.search_ns_per_step", "ns", Lower),
    layer("engine.batch.steps_per_query", "count", Lower),
    layer("engine.batch.rounds_per_batch", "count", Lower),
    layer("engine.batch.resolve_lf_steps_per_query", "count", Lower),
    layer("engine.batch.search_share", "ratio", Lower),
    layer("engine.batch.resolve_share", "ratio", Lower),
    layer("engine.batch.self_ns_per_query", "ns/query", Lower),
    layer("engine.batch.query_ns_p50", "ns/query", Lower),
    layer("engine.batch.query_ns_p99", "ns/query", Lower),
    layer("engine.exec.seq_k1_ns_per_query", "ns/query", Lower),
    layer("engine.exec.speedup_vs_seq_k1", "ratio", Higher),
    layer("engine.shard.t2_speedup", "ratio", Higher),
    layer("engine.query.batch_build_ns_per_query", "ns/query", Lower),
    layer("engine.batch.implied_mlp", "ratio", Higher),
    // server
    layer("server.wire.encode_query_ns_f8", "ns/query", Lower),
    layer("server.wire.decode_query_ns_f8", "ns/query", Lower),
    layer("server.wire.encode_results_ns_f8", "ns/query", Lower),
    layer("server.wire.decode_results_ns_f8", "ns/query", Lower),
    layer("server.wire.encode_query_ns_f512", "ns/query", Lower),
    layer("server.wire.decode_query_ns_f512", "ns/query", Lower),
    layer("server.wire.encode_results_ns_f512", "ns/query", Lower),
    layer("server.wire.decode_results_ns_f512", "ns/query", Lower),
    layer("server.wire.query_bytes_f8", "B", Lower),
    layer("server.wire.results_bytes_f8", "B", Lower),
    layer("server.conn.stats_rtt_us_p50", "us", Lower),
    layer("server.batcher.mean_coalesced", "count", Higher),
    layer("server.batcher.queries_per_run", "count", Higher),
    layer("server.batcher.busy", "count", Lower),
    layer("server.batcher.late_dropped", "count", Lower),
    layer("server.conn.writer_shed", "count", Lower),
    layer("server.engine_us_per_request", "us", Lower),
    layer("server.residual_us_p50", "us", Lower),
    layer("server.latency_us_p50", "us", Lower),
    layer("server.latency_us_p99", "us", Lower),
    layer("server.latency_us_p999", "us", Lower),
    layer("server.latency_us_max", "us", Lower),
    layer("server.knee.latency_us_p50", "us", Lower),
    layer("server.knee.latency_us_p99", "us", Lower),
    layer("server.sustained_rps", "req/s", Higher),
    // the benchmark's own self-checks
    layer("loadgen.send_lag_us_p99", "us", Lower),
    layer("loadgen.offered_rps", "req/s", Higher),
    layer("machine.chase_ns", "ns", Lower),
    layer("machine.nproc", "count", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Looks a metric up in either catalog.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// The four workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = ["count_reads", "locate_seeds", "both_strands", "serve_small"];

/// Measured values by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalog: a metric nobody declared
    /// is a bug in the benchmark, not a result.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload hands back.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Queries sent for an answer, and those whose answer was wrong,
    /// refused, late or missing.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Content hash of the generated patterns and checksum of the
    /// verified answers.
    pub inputs_hash: u64,
    pub answers_checksum: u64,
}

impl RunResult {
    /// Prints every metric of `catalog` by name with its unit, then the
    /// driver's result object as the last line of standard output.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured.
    pub fn print(&self, catalog: &[MetricDef]) {
        let mut listed = Json::obj();
        for def in catalog {
            let value = match (self.metrics.get(def.name), def.bound) {
                (Some(value), _) => value,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric {} was not measured", def.name),
            };
            println!("{} {value} {}", def.name, def.unit);
            listed = listed.field(
                def.name,
                Json::obj().field("value", value).field("unit", def.unit),
            );
        }
        println!("inputs_hash {:016x}", self.inputs_hash);
        println!("answers_checksum {:016x}", self.answers_checksum);
        println!(
            "{}",
            Json::obj()
                .field("correct", self.failed == 0)
                .field("attempted", self.attempted)
                .field("failed", self.failed)
                .field("metrics", listed)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            if let Some(bound) = def.bound {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        let path = crate::machine::package_dir().join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let catalog = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Better::Lower => "lower",
                            Better::Higher => "higher",
                        }
                        .to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalog(END_TO_END));
        assert_eq!(listed("per_layer"), catalog(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
