//! Exact timing work of a study: one timing simulation per benchmark.
//!
//! Every node runs the same machine, so the reference phase's one engine
//! pass per benchmark fills the activity trace of every node's interval
//! length, and each scaled node's lookup is a cache hit. The counts are
//! exact at any thread count because the reference phase finishes before
//! the scaled phase starts.
//!
//! This file holds a single test: the timing cache and its counters are
//! process-global, and a concurrently running test would perturb them.

use ramp_core::{results_digest, run_study, StudyConfig};

/// The benchgate reference workload's results digest.
const REFERENCE_DIGEST: &str = "874190a1ad3ea009";

#[test]
fn quick_study_simulates_once_per_benchmark_at_any_thread_count() {
    let benchmarks = ["gzip", "vpr", "ammp", "apsi"];
    let b = benchmarks.len() as u64;
    for threads in [1, 2, 8] {
        ramp_microarch::clear_timing_cache();
        let mut cfg = StudyConfig::quick().with_benchmarks(&benchmarks).unwrap();
        cfg.pipeline.record_thermal_trace = true;
        cfg.pipeline.thermal_trace_stride = 50;
        cfg.threads = threads;
        assert_eq!(cfg.nodes.len(), 5);
        let results = run_study(&cfg).unwrap();
        let m = results.metrics();
        assert_eq!(
            m.cache_misses, b,
            "threads={threads}: one simulation per benchmark"
        );
        assert_eq!(
            m.cache_hits,
            4 * b,
            "threads={threads}: every scaled node hits"
        );
        let stats = ramp_microarch::timing_cache_stats();
        assert_eq!((stats.misses, stats.hits), (b, 4 * b), "threads={threads}");
        assert_eq!(stats.entries as u64, b, "one entry per benchmark");
        assert_eq!(
            results_digest(&results),
            REFERENCE_DIGEST,
            "threads={threads}"
        );
    }
}
