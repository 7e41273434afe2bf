//! The fleet runner: anchors, fans out, reduces, reports.
//!
//! [`run_fleet`] evaluates one [`ramp_core::PopulationAnchor`] per
//! requested node (the only pipeline-priced work), then simulates the
//! chip population in fixed-size chunks on the shared deterministic
//! [`ramp_core::Executor`]. Each chunk builds a private
//! [`PopulationAccumulator`]; the partials come back in input order and
//! merge left-to-right. Because every chip's randomness is a pure
//! function of `(seed, node, chip index)` and the merged state is
//! integer-only, the canonical output is byte-identical for any
//! `RAMP_THREADS` value and any chunk size.

use crate::accumulator::{PopulationAccumulator, PopulationSummary};
use crate::chip::ChipSampler;
use crate::rng::chip_rng;
use crate::variation::VariationModel;
use ramp_core::{fnv1a_hex, Executor, NodeId, QueryEngine, RampError};
use serde::{Deserialize, Serialize};

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Benchmark whose anchor the population perturbs.
    pub benchmark: String,
    /// Nodes to simulate a population at.
    pub nodes: Vec<NodeId>,
    /// Chips per node.
    pub chips: u64,
    /// Master seed; combined with node and chip indices counter-style.
    pub seed: u64,
    /// Chips per executor task. Any value produces identical output; it
    /// only tunes scheduling granularity.
    pub chunk: u64,
    /// Worker threads: `Some(n)` forces `n`, `None` follows
    /// `RAMP_THREADS`.
    pub threads: Option<usize>,
    /// Process-variation and lifetime-scatter parameters.
    pub variation: VariationModel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            benchmark: "gzip".to_string(),
            nodes: NodeId::ALL.to_vec(),
            chips: 1_000_000,
            seed: 42,
            chunk: 8192,
            threads: None,
            variation: VariationModel::default(),
        }
    }
}

/// One node's population result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePopulation {
    /// The simulated node.
    pub node: NodeId,
    /// Human-readable node label (Table-4 style).
    pub label: String,
    /// The anchor's cache key (pins calibration + query content).
    pub anchor_key: String,
    /// Merged population statistics.
    pub summary: PopulationSummary,
}

/// The full result of a fleet run.
///
/// The population content (everything except the wall-clock throughput
/// figures) is the determinism surface: [`FleetResults::population_json`]
/// renders exactly that content, and [`FleetResults::population_digest`]
/// pins it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResults {
    /// Benchmark the populations were anchored on.
    pub benchmark: String,
    /// Master seed.
    pub seed: u64,
    /// Chips per node.
    pub chips_per_node: u64,
    /// Per-node populations, in request order.
    pub populations: Vec<NodePopulation>,
    /// Measured simulation throughput (chips/second, all nodes pooled).
    /// Wall-clock derived — excluded from the canonical output.
    pub chips_per_sec: f64,
    /// Total simulation wall-clock, seconds. Excluded from the canonical
    /// output.
    pub elapsed_seconds: f64,
}

/// The deterministic subset of [`FleetResults`] (no wall-clock fields).
/// Owned because the vendored serde derive does not support borrowed
/// fields; the clone is a handful of small vectors per call.
#[derive(Serialize)]
struct CanonicalFleet {
    benchmark: String,
    seed: u64,
    chips_per_node: u64,
    populations: Vec<NodePopulation>,
}

impl FleetResults {
    /// Canonical JSON of the population content — the byte-identity
    /// surface the determinism tests and `--assert-deterministic` compare.
    #[must_use]
    pub fn population_json(&self) -> String {
        serde_json::to_string_pretty(&CanonicalFleet {
            benchmark: self.benchmark.clone(),
            seed: self.seed,
            chips_per_node: self.chips_per_node,
            populations: self.populations.clone(),
        })
        .expect("fleet results are plain data, always serializable") // ramp-lint:allow(panic-hygiene) -- schema has no fallible serialize cases
    }

    /// FNV-1a digest of [`FleetResults::population_json`].
    #[must_use]
    pub fn population_digest(&self) -> String {
        fnv1a_hex(&self.population_json())
    }

    /// Warranty-return curves as CSV: one row per (node, year) with the
    /// cumulative failure fraction in DPPM.
    #[must_use]
    pub fn warranty_csv(&self) -> String {
        let mut out = String::from("node,year,cumulative_dppm\n");
        for pop in &self.populations {
            for (i, dppm) in pop.summary.dppm_by_year.iter().enumerate() {
                out.push_str(&format!("{},{},{:.1}\n", pop.label, i + 1, dppm));
            }
        }
        out
    }
}

/// Runs a full fleet simulation. See the module docs for the determinism
/// argument.
///
/// # Errors
///
/// Returns [`RampError::InvalidConfiguration`] for an empty node list or
/// zero chips, and propagates any anchor (pipeline) error.
pub fn run_fleet(engine: &QueryEngine, config: &FleetConfig) -> Result<FleetResults, RampError> {
    if config.nodes.is_empty() {
        return Err(RampError::InvalidConfiguration(
            "fleet needs at least one node".into(),
        ));
    }
    if config.chips == 0 {
        return Err(RampError::InvalidConfiguration(
            "fleet needs at least one chip".into(),
        ));
    }
    let executor = match config.threads {
        Some(n) => Executor::new(n),
        None => Executor::from_env(),
    };
    // Root a causal trace on the fleet parameters when nobody upstream
    // (e.g. the serve dispatcher) carries one already. Purely
    // content-derived, so reruns of the same config share a trace id.
    let _trace = ramp_obs::root_trace(|| {
        format!("fleet|{}|{}|{}", config.benchmark, config.seed, config.chips)
    });
    let span = ramp_obs::span!(
        "fleet_run",
        "benchmark={} nodes={} chips={} threads={}",
        config.benchmark,
        config.nodes.len(),
        config.chips,
        executor.threads()
    );
    let chips_counter = ramp_obs::counter("fleet.chips_simulated");
    let chunk = config.chunk.max(1);
    // Wall-clock feeds only chips_per_sec/elapsed_seconds, which live
    // outside the canonical population surface (see `population_json`).
    let started = std::time::Instant::now(); // ramp-lint:allow(determinism) -- throughput telemetry only, never in canonical output
    let mut populations = Vec::with_capacity(config.nodes.len());
    for (node_index, &node) in config.nodes.iter().enumerate() {
        let node_span = ramp_obs::span!("fleet_node", "node={}", node);
        let query = engine.query(&config.benchmark, node)?;
        let anchor = engine.population_anchor(&query)?;
        let sampler = ChipSampler::new(&anchor, config.variation);
        let chunks: Vec<(u64, u64)> = (0..config.chips)
            .step_by(usize::try_from(chunk).unwrap_or(usize::MAX).max(1))
            .map(|start| (start, chunk.min(config.chips - start)))
            .collect();
        let partials: Vec<PopulationAccumulator> =
            executor.map(&chunks, |&(start, count)| {
                let chunk_span =
                    ramp_obs::span!("fleet_chunk", "start={start} count={count}");
                let mut acc = PopulationAccumulator::new();
                for chip in start..start + count {
                    let mut rng = chip_rng(config.seed, node_index as u64, chip);
                    let outcome = sampler.sample_chip(&mut rng);
                    acc.record(outcome.failure_years, outcome.killer);
                }
                chunk_span.finish();
                acc
            });
        let mut merged = PopulationAccumulator::new();
        for part in &partials {
            merged.merge(part);
        }
        chips_counter.add(config.chips);
        populations.push(NodePopulation {
            node,
            label: node.to_string(),
            anchor_key: anchor.cache_key,
            summary: merged.summary(),
        });
        node_span.finish();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let simulated = config.chips * config.nodes.len() as u64;
    let chips_per_sec = if elapsed > 0.0 {
        simulated as f64 / elapsed
    } else {
        0.0
    };
    ramp_obs::gauge("fleet.chips_per_sec").set(chips_per_sec);
    span.finish();
    Ok(FleetResults {
        benchmark: config.benchmark.clone(),
        seed: config.seed,
        chips_per_node: config.chips,
        populations,
        chips_per_sec,
        elapsed_seconds: elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_core::mechanisms::PerMechanism;
    use ramp_core::{PipelineConfig, Qualification};

    fn test_engine() -> QueryEngine {
        QueryEngine::with_qualification(
            Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
            PipelineConfig::quick(),
            "population-tests",
        )
    }

    fn small_config() -> FleetConfig {
        FleetConfig {
            nodes: vec![NodeId::N180, NodeId::N65HighV],
            chips: 2000,
            chunk: 256,
            threads: Some(2),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let engine = test_engine();
        let empty_nodes = FleetConfig {
            nodes: vec![],
            ..small_config()
        };
        assert!(matches!(
            run_fleet(&engine, &empty_nodes),
            Err(RampError::InvalidConfiguration(_))
        ));
        let no_chips = FleetConfig {
            chips: 0,
            ..small_config()
        };
        assert!(matches!(
            run_fleet(&engine, &no_chips),
            Err(RampError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn reruns_are_byte_identical_and_chunking_free() {
        let engine = test_engine();
        let base = run_fleet(&engine, &small_config()).unwrap();
        let rerun = run_fleet(&engine, &small_config()).unwrap();
        assert_eq!(base.population_json(), rerun.population_json());
        for (threads, chunk) in [(1, 37), (4, 2000), (3, 1)] {
            let varied = run_fleet(
                &engine,
                &FleetConfig {
                    threads: Some(threads),
                    chunk,
                    ..small_config()
                },
            )
            .unwrap();
            assert_eq!(
                base.population_json(),
                varied.population_json(),
                "threads={threads} chunk={chunk} diverged"
            );
        }
    }

    #[test]
    fn seed_changes_the_population() {
        let engine = test_engine();
        let a = run_fleet(&engine, &small_config()).unwrap();
        let b = run_fleet(
            &engine,
            &FleetConfig {
                seed: 43,
                ..small_config()
            },
        )
        .unwrap();
        assert_ne!(a.population_json(), b.population_json());
        assert_ne!(a.population_digest(), b.population_digest());
    }

    #[test]
    fn populations_are_complete_and_ordered() {
        let engine = test_engine();
        let results = run_fleet(&engine, &small_config()).unwrap();
        assert_eq!(results.populations.len(), 2);
        assert_eq!(results.populations[0].node, NodeId::N180);
        assert_eq!(results.populations[1].node, NodeId::N65HighV);
        for pop in &results.populations {
            assert_eq!(pop.summary.chips, 2000);
            let killed: u64 = pop.summary.killer_counts.iter().sum();
            assert_eq!(killed, 2000, "every chip has exactly one killer");
            assert!(pop.summary.p1_years <= pop.summary.p50_years);
            assert!(pop.summary.p50_years <= pop.summary.p99_years);
        }
        assert!(results.chips_per_sec > 0.0);
        let csv = results.warranty_csv();
        assert_eq!(csv.lines().count(), 1 + 2 * 30);
        assert!(csv.starts_with("node,year,cumulative_dppm\n"));
    }
}
