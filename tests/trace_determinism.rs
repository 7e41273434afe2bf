//! Byte-level determinism with causal tracing **enabled**.
//!
//! Tracing is observability, never an input: with `RAMP_TRACE` on, the
//! serialized study results and the canonical fleet population JSON must
//! stay byte-identical across thread counts, the span ring must hold its
//! installed memory bound (drop counters, never growth), and the exported
//! file must be well-formed Chrome Trace Event JSON.
//!
//! This suite lives in its own test binary on purpose: installing the
//! span ring is process-global and first-call-wins, so these tests share
//! one traced process while every other determinism suite keeps running
//! with tracing off.

use ramp_core::mechanisms::PerMechanism;
use ramp_core::{
    run_study, NodeId, PipelineConfig, Qualification, QueryEngine, StudyConfig,
};
use ramp_fleet::{run_fleet, FleetConfig};
use std::path::PathBuf;

/// Small on purpose: a quick study records more spans than this, so the
/// bounded-memory path (overwrite + drop counter) is exercised for real.
const RING_CAPACITY: usize = 2048;

fn trace_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "ramp-trace-determinism-{}.json",
        std::process::id()
    ))
}

/// Enables tracing exactly the way the binaries do: through the
/// `RAMP_TRACE` / `RAMP_TRACE_CAPACITY` environment and `init_from_env`.
/// Every test calls this first; the `Once` makes it race-free.
fn init_tracing() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        std::env::set_var(ramp_obs::TRACE_ENV, trace_path());
        std::env::set_var(ramp_obs::TRACE_CAPACITY_ENV, RING_CAPACITY.to_string());
        ramp_obs::init_from_env();
        assert!(
            ramp_obs::tracing_enabled(),
            "RAMP_TRACE in the environment must enable span recording"
        );
    });
}

fn study_json(threads: usize) -> String {
    let mut cfg = StudyConfig::quick()
        .with_benchmarks(&["gzip", "vpr"])
        .unwrap();
    cfg.threads = threads;
    serde_json::to_string(&run_study(&cfg).unwrap()).unwrap()
}

#[test]
fn study_json_is_byte_identical_with_tracing_on() {
    init_tracing();
    let serial = study_json(1);
    for threads in [2, 8] {
        let parallel = study_json(threads);
        assert!(
            serial == parallel,
            "traced study diverged between 1 and {threads} threads \
             (lengths {} vs {})",
            serial.len(),
            parallel.len()
        );
    }
    assert!(
        ramp_obs::ring_stats().recorded > 0,
        "the traced studies must actually have recorded spans"
    );
    // The study root trace id is derived from the config digest, which
    // deliberately ignores the thread count: every run above belongs to
    // the *same* deterministic trace.
    let study_traces: std::collections::BTreeSet<u64> = ramp_obs::ring_snapshot()
        .iter()
        .filter(|s| s.name == "study")
        .map(|s| s.trace)
        .collect();
    assert_eq!(
        study_traces.len(),
        1,
        "identical configs must map to one deterministic trace id, got {study_traces:?}"
    );
}

#[test]
fn population_json_is_byte_identical_with_tracing_on() {
    init_tracing();
    let engine = QueryEngine::with_qualification(
        Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
        PipelineConfig::quick(),
        "trace-determinism-tests",
    );
    let config = |threads| FleetConfig {
        benchmark: "gzip".to_string(),
        nodes: vec![NodeId::N180, NodeId::N65HighV],
        chips: 4_000,
        seed: 20_260_808,
        chunk: 256,
        threads: Some(threads),
        ..FleetConfig::default()
    };
    let reference = run_fleet(&engine, &config(1)).unwrap().population_json();
    for threads in [2, 8] {
        let run = run_fleet(&engine, &config(threads)).unwrap();
        assert!(
            run.population_json() == reference,
            "traced population diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn span_ring_is_bounded_and_counts_drops() {
    init_tracing();
    let before = ramp_obs::ring_stats();
    assert_eq!(before.capacity, RING_CAPACITY as u64);
    let _trace = ramp_obs::root_trace(|| "ring-bound-test".to_string());
    let pushes = (RING_CAPACITY * 3) as u64;
    for _ in 0..pushes {
        ramp_obs::span!("ring_filler").finish();
    }
    let after = ramp_obs::ring_stats();
    assert!(
        after.recorded >= before.recorded + pushes,
        "every finished span must count as recorded"
    );
    assert_eq!(
        after.dropped,
        after.recorded.saturating_sub(after.capacity),
        "drops are exactly the overwritten overflow"
    );
    assert!(
        ramp_obs::ring_snapshot().len() <= RING_CAPACITY,
        "snapshot can never exceed the installed capacity"
    );
}

#[test]
fn exported_trace_file_is_valid_chrome_trace_json() {
    init_tracing();
    // Guarantee at least one recorded span regardless of test order.
    {
        let _trace = ramp_obs::root_trace(|| "export-check".to_string());
        ramp_obs::span!("export_probe").finish();
    }
    ramp_obs::flush();
    let json = std::fs::read_to_string(trace_path()).expect("RAMP_TRACE file written on flush");
    let doc: serde::Value = serde_json::from_str(&json).expect("trace file parses as JSON");
    let events = doc
        .field("traceEvents")
        .and_then(serde::Value::elements)
        .map(<[serde::Value]>::to_vec)
        .unwrap_or_default();
    assert!(!events.is_empty(), "flushed trace must contain events");
    for event in &events {
        assert_eq!(
            event.field("ph").and_then(serde::Value::str).unwrap_or(""),
            "X",
            "every exported span is a complete event"
        );
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(
                event.field(key).is_ok(),
                "complete events carry {key:?}: {event:?}"
            );
        }
    }
}
