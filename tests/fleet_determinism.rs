//! Byte-level determinism of the population Monte Carlo fleet.
//!
//! Every chip's randomness is a pure function of `(seed, node index, chip
//! index)` and the population accumulator's merged state is integer-only,
//! so the canonical population JSON must be **byte-identical** across
//! worker-thread counts, chunk sizes, and reruns — `RAMP_THREADS` and
//! chunking are pure performance knobs, exactly as for the study
//! executor (see `parallel_determinism.rs`).

use ramp_core::mechanisms::PerMechanism;
use ramp_core::{NodeId, PipelineConfig, Qualification, QueryEngine};
use ramp_fleet::{run_fleet, FleetConfig, VariationModel};

fn test_engine() -> QueryEngine {
    QueryEngine::with_qualification(
        Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
        PipelineConfig::quick(),
        "fleet-determinism-tests",
    )
}

fn base_config() -> FleetConfig {
    FleetConfig {
        benchmark: "gzip".to_string(),
        nodes: vec![NodeId::N180, NodeId::N90, NodeId::N65HighV],
        chips: 5_000,
        seed: 20_260_808,
        chunk: 512,
        threads: Some(2),
        ..FleetConfig::default()
    }
}

#[test]
fn population_json_is_byte_identical_across_thread_counts() {
    let engine = test_engine();
    let reference = run_fleet(&engine, &base_config()).unwrap();
    let reference_json = reference.population_json();
    assert!(!reference_json.is_empty());
    for threads in [1, 8] {
        let config = FleetConfig {
            threads: Some(threads),
            ..base_config()
        };
        let run = run_fleet(&engine, &config).unwrap();
        assert!(
            run.population_json() == reference_json,
            "population diverged between 2 and {threads} threads \
             (digests {} vs {})",
            run.population_digest(),
            reference.population_digest(),
        );
    }
}

#[test]
fn population_json_is_chunking_invariant() {
    let engine = test_engine();
    let reference_json = run_fleet(&engine, &base_config()).unwrap().population_json();
    // One chip per task, coarse chunks, and "unchunked" (a single chunk
    // spanning the whole population) must all merge to the same bytes.
    for chunk in [1, 1_000, 5_000, u64::MAX] {
        let config = FleetConfig {
            chunk,
            ..base_config()
        };
        let run = run_fleet(&engine, &config).unwrap();
        assert!(
            run.population_json() == reference_json,
            "population diverged at chunk size {chunk} (digest {})",
            run.population_digest(),
        );
    }
}

#[test]
fn reruns_on_a_fresh_engine_reproduce_the_digest() {
    let first = run_fleet(&test_engine(), &base_config()).unwrap();
    let second = run_fleet(&test_engine(), &base_config()).unwrap();
    assert_eq!(first.population_digest(), second.population_digest());
    assert_eq!(first.population_json(), second.population_json());
    // Wall-clock fields are the one permitted difference between runs and
    // must therefore live outside the canonical surface.
    assert!(!first.population_json().contains("chips_per_sec"));
    assert!(!first.population_json().contains("elapsed_seconds"));
}

#[test]
fn seed_and_population_changes_move_the_digest() {
    let engine = test_engine();
    let reference = run_fleet(&engine, &base_config()).unwrap();
    let reseeded = run_fleet(
        &engine,
        &FleetConfig {
            seed: 1,
            ..base_config()
        },
    )
    .unwrap();
    assert_ne!(reference.population_digest(), reseeded.population_digest());
    let grown = run_fleet(
        &engine,
        &FleetConfig {
            chips: 5_001,
            ..base_config()
        },
    )
    .unwrap();
    assert_ne!(reference.population_digest(), grown.population_digest());
}

#[test]
fn population_digests_match_pinned_literals() {
    // Cross-commit oracle: the within-commit tests above cannot notice a
    // change that moves every run the same way. These literals were
    // computed before the per-chip kernel hoisted its chip-invariant rate
    // terms out of the per-structure loop; the kernel must reproduce every
    // chip's failure time bit for bit, so they must never move unless the
    // fleet's science deliberately changes.
    let engine = test_engine();
    let run = run_fleet(&engine, &base_config()).unwrap();
    assert_eq!(run.population_digest(), "b815a210cee51d3c");
    let degenerate = run_fleet(
        &engine,
        &FleetConfig {
            variation: VariationModel::degenerate(),
            ..base_config()
        },
    )
    .unwrap();
    assert_eq!(degenerate.population_digest(), "009fec67445a384e");
}
