//! Benchmark telemetry: versioned `BENCH_<seq>.json` snapshots, a
//! median-of-K measurement harness over the reference study workload, and
//! a noise-aware performance gate with exact numerical drift detection.
//!
//! # Snapshot model
//!
//! A [`BenchSnapshot`] freezes one harness run: per-stage wall-clock
//! statistics harvested from the `ramp-obs` span tree, timing-cache
//! effectiveness, executor utilization, histogram percentiles, and — the
//! part that must never drift — the study's numerical outputs (per-node
//! and per-mechanism FIT plus an FNV-1a digest of the full serialized
//! [`StudyResults`]). Snapshots are append-only files named
//! `BENCH_0001.json`, `BENCH_0002.json`, … at the repository root.
//!
//! # Gate semantics
//!
//! [`compare`] applies two very different standards:
//!
//! * **Wall-clock is noisy** — each stage gets a budget of
//!   `baseline_median × tolerance + spread_slack × (baseline_max −
//!   baseline_min)`, and stages whose baseline median sits below
//!   `min_stage_seconds` are reported but never gated (timer jitter
//!   dominates them).
//! * **Numbers are exact** — the results digest, the per-node FIT table,
//!   and the per-mechanism FIT table must match *bit for bit*. The study
//!   is byte-deterministic across thread counts and observability
//!   configurations (a tested contract), so any difference is real drift,
//!   not noise.
//!
//! A baseline taken under a different study configuration (different
//! config digest) fails fast with a "re-baseline" message rather than
//! producing meaningless deltas.

use ramp_core::{
    config_digest, fnv1a_hex, results_digest, run_study, Provenance, RunManifest, StageNode,
    StudyConfig, StudyResults,
};
use ramp_core::mechanisms::MechanismKind;
use ramp_obs::{MetricSnapshot, MetricValue};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Snapshot schema version, bumped on incompatible field changes.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Benchmarks of the reference workload: two per suite.
pub const REFERENCE_BENCHMARKS: [&str; 4] = ["gzip", "vpr", "ammp", "apsi"];

/// Label stamped into snapshots and per-sample manifests.
pub const REFERENCE_LABEL: &str = "reference_workload";

/// The study configuration the harness measures: the quick pipeline over
/// [`REFERENCE_BENCHMARKS`] with the thermal trace recorded.
#[must_use]
pub fn reference_workload() -> StudyConfig {
    let mut cfg = StudyConfig::quick()
        .with_benchmarks(&REFERENCE_BENCHMARKS)
        .expect("reference benchmark subset is valid");
    cfg.pipeline.record_thermal_trace = true;
    cfg.pipeline.thermal_trace_stride = 50;
    cfg
}

// ---------------------------------------------------------------------------
// Snapshot schema
// ---------------------------------------------------------------------------

/// What the harness ran (the workload identity, not its outputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSection {
    /// Harness label (see [`REFERENCE_LABEL`]).
    pub label: String,
    /// Benchmark names, in run order.
    pub benchmarks: Vec<String>,
    /// Node labels, in run order.
    pub nodes: Vec<String>,
    /// Measured samples (K of median-of-K).
    pub samples: u32,
    /// Worker threads the sweep used.
    pub threads: u64,
}

/// Median/min/max of one quantity across the K measured samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingStat {
    /// Median across samples, seconds.
    pub median_seconds: f64,
    /// Fastest sample, seconds.
    pub min_seconds: f64,
    /// Slowest sample, seconds.
    pub max_seconds: f64,
}

impl TimingStat {
    /// Spread (max − min) — the harness's own noise estimate.
    #[must_use]
    pub fn spread_seconds(&self) -> f64 {
        self.max_seconds - self.min_seconds
    }
}

/// Wall-clock statistics for one span path across the measured samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Full `/`-joined span path, e.g. `"study/reference/worker/run/timing"`.
    pub path: String,
    /// Spans collapsed into this path in one sample.
    pub count: u64,
    /// Timing across samples.
    pub timing: TimingStat,
    /// Median share of the total study wall-clock (0–1).
    pub share: f64,
}

/// Timing-cache effectiveness over one measured sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSection {
    /// Cache hits during one sample.
    pub hits: u64,
    /// Cache misses during one sample.
    pub misses: u64,
    /// Hit rate (0–1; 0 when no lookups happened).
    pub hit_rate: f64,
}

/// Parallel-executor effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorSection {
    /// Worker threads.
    pub threads: u64,
    /// Median measured speedup (serial-equivalent ÷ wall).
    pub speedup: f64,
    /// Median utilization (speedup ÷ threads, 0–1).
    pub utilization: f64,
}

/// Percentile summary of one obs histogram over the measured window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramStat {
    /// Registered metric name.
    pub name: String,
    /// Observations during the measured window.
    pub count: u64,
    /// Mean observed value.
    pub mean: f64,
    /// Estimated 50th percentile.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One node's headline FIT numbers (exact-match gated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFit {
    /// Node label.
    pub node: String,
    /// Mean total FIT over the workload's benchmarks.
    pub avg_fit: f64,
    /// Highest single-benchmark total FIT.
    pub max_fit: f64,
}

/// Mean FIT of one mechanism on one node (exact-match gated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismFit {
    /// Node label.
    pub node: String,
    /// Mechanism label (`"EM"`, `"SM"`, `"TDDB"`, `"TC"`).
    pub mechanism: String,
    /// Mean FIT over the workload's benchmarks.
    pub avg_fit: f64,
}

/// The study's numerical outputs: digests plus a human-readable FIT
/// table so a failed gate can say *where* the numbers moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumericsSection {
    /// FNV-1a digest of the study configuration — identifies the workload.
    pub config_digest: String,
    /// FNV-1a digest of the serialized [`StudyResults`] — identifies the
    /// exact numerical outcome.
    pub results_digest: String,
    /// Per-node headline FIT.
    pub nodes: Vec<NodeFit>,
    /// Per-(node, mechanism) mean FIT.
    pub mechanisms: Vec<MechanismFit>,
}

/// Population fleet telemetry: throughput (noisy, informational) plus the
/// canonical population digest (exact-match gated when both sides have
/// it). Optional because snapshots captured before the fleet simulator
/// existed lack the section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSection {
    /// Benchmark the fleet was anchored on.
    pub benchmark: String,
    /// Chips simulated per node.
    pub chips_per_node: u64,
    /// Master seed of the population run.
    pub seed: u64,
    /// Measured simulation throughput, chips per second (wall-clock
    /// derived — never gated).
    pub chips_per_sec: f64,
    /// FNV-1a digest of the canonical population JSON
    /// ([`ramp_fleet::FleetResults::population_digest`]) — exact-match
    /// gated against baselines that carry a fleet section.
    pub population_digest: String,
}

/// Heap allocations attributed to one span path during the allocation
/// telemetry pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocStageStat {
    /// Full `/`-joined span path.
    pub path: String,
    /// Heap allocations attributed to the path (own-thread, entry-to-exit).
    pub allocs: u64,
    /// Heap bytes allocated by the path's spans.
    pub bytes: u64,
}

/// Allocation telemetry from a dedicated single-threaded pass over the
/// workload with the tracking allocator on. Allocation *counts* are
/// deterministic at one thread (the digest is exact-match gated);
/// `peak_live_bytes` is a high-water gauge held to a budget rather than
/// an exact match. Optional because snapshots captured before the
/// tracking allocator existed lack the section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocSection {
    /// Worker threads of the pass (always 1 — required for determinism).
    pub threads: u64,
    /// Total heap allocations during the pass.
    pub allocs: u64,
    /// Total heap bytes allocated during the pass.
    pub alloc_bytes: u64,
    /// High-water live heap bytes observed by the tracking allocator.
    pub peak_live_bytes: u64,
    /// FNV-1a digest of the canonical per-stage allocation-count
    /// rendering (`path=count` lines, path-sorted) — exact-match gated
    /// against baselines that carry an alloc section.
    pub stage_digest: String,
    /// Per-stage allocation attribution, path-sorted.
    pub stages: Vec<AllocStageStat>,
}

/// One versioned benchmark snapshot (`BENCH_<seq>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSnapshot {
    /// Snapshot schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotonic sequence number (1-based, from the file name).
    pub seq: u32,
    /// Wall-clock capture time, Unix milliseconds.
    pub created_unix_ms: u64,
    /// Host/OS/git provenance of the capturing process.
    pub provenance: Provenance,
    /// What ran.
    pub workload: WorkloadSection,
    /// Whole-study wall-clock across samples.
    pub total: TimingStat,
    /// Per-stage wall-clock statistics (flattened span tree).
    pub stages: Vec<StageStat>,
    /// Timing-cache effectiveness.
    pub cache: CacheSection,
    /// Executor effectiveness.
    pub executor: ExecutorSection,
    /// Histogram percentile summaries.
    pub histograms: Vec<HistogramStat>,
    /// Exact-match numerical outputs.
    pub numerics: NumericsSection,
    /// Fleet population telemetry (absent in pre-fleet snapshots).
    #[serde(default)]
    pub fleet: Option<FleetSection>,
    /// Allocation telemetry (absent in pre-allocator snapshots).
    #[serde(default)]
    pub alloc: Option<AllocSection>,
}

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Measured samples (median-of-K). Clamped to ≥ 1.
    pub samples: u32,
    /// Run one unmeasured warmup sample first (pays one-time costs —
    /// allocator growth, page faults — outside the measurement).
    pub warmup: bool,
    /// Chips per node for the fleet telemetry pass (0 skips the pass and
    /// leaves the snapshot's fleet section empty). Runs after the study
    /// samples, so it never contaminates stage timings.
    pub fleet_chips: u64,
    /// Run the allocation telemetry pass (a single-threaded study with
    /// the tracking allocator on, after the timed samples, so allocator
    /// bookkeeping never contaminates stage timings).
    pub alloc_pass: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            samples: 3,
            warmup: true,
            fleet_chips: 100_000,
            alloc_pass: true,
        }
    }
}

impl HarnessOptions {
    /// CI smoke shape: one sample, no warmup, a smaller fleet — fast,
    /// paired with the loose [`GateConfig::smoke`] tolerances. The alloc
    /// pass stays on: its digest is noise-free and carries the gate.
    #[must_use]
    pub fn smoke() -> Self {
        HarnessOptions {
            samples: 1,
            warmup: false,
            fleet_chips: 20_000,
            alloc_pass: true,
        }
    }
}

/// Everything one harness run produced, before being stamped into a
/// [`BenchSnapshot`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload identity.
    pub workload: WorkloadSection,
    /// Whole-study wall-clock across samples.
    pub total: TimingStat,
    /// Per-stage statistics.
    pub stages: Vec<StageStat>,
    /// Timing-cache effectiveness (first measured sample).
    pub cache: CacheSection,
    /// Executor effectiveness (medians across samples).
    pub executor: ExecutorSection,
    /// Histogram percentile summaries over the measured window.
    pub histograms: Vec<HistogramStat>,
    /// Exact numerical outputs.
    pub numerics: NumericsSection,
    /// Fleet population telemetry.
    pub fleet: Option<FleetSection>,
    /// Allocation telemetry.
    pub alloc: Option<AllocSection>,
    /// Serialized [`StudyResults`] bytes — identical for every sample
    /// (the harness verifies this) and identical to a run without
    /// telemetry (the byte-determinism contract).
    pub results_json: String,
    /// Per-sample run manifests (sample `i` of `samples`).
    pub manifests: Vec<RunManifest>,
}

/// Runs `config` K times and aggregates the telemetry.
///
/// Each measured sample starts from a cold timing cache and a fresh span
/// registry, so per-stage numbers describe the full pipeline, not a
/// cache replay. The serialized results of every sample must be
/// byte-identical — a mismatch is a determinism bug and fails the run.
///
/// # Errors
///
/// Returns a message when the study fails, serialization fails, or
/// inter-sample determinism is violated.
pub fn run_harness(config: &StudyConfig, opts: &HarnessOptions) -> Result<Measurement, String> {
    let samples = opts.samples.max(1);
    crate::init_obs();

    if opts.warmup {
        ramp_microarch::clear_timing_cache();
        run_study(config).map_err(|e| format!("warmup study failed: {e}"))?;
    }

    let metrics_before = ramp_obs::metrics_snapshot();
    let mut walls: Vec<f64> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut stage_samples: Vec<Vec<(String, u64, f64)>> = Vec::new();
    let mut manifests: Vec<RunManifest> = Vec::new();
    let mut results_json: Option<String> = None;
    let mut cache = CacheSection {
        hits: 0,
        misses: 0,
        hit_rate: 0.0,
    };
    let mut last_results: Option<StudyResults> = None;

    for sample in 1..=samples {
        ramp_microarch::clear_timing_cache();
        ramp_obs::reset_spans();
        let t0 = Instant::now();
        let results = run_study(config).map_err(|e| format!("sample {sample} failed: {e}"))?;
        let wall = t0.elapsed().as_secs_f64();

        let manifest = RunManifest::capture(config, &results).with_benchmark(
            REFERENCE_LABEL,
            sample,
            samples,
        );
        stage_samples.push(flatten_stages(&manifest.stages));

        let json = serde_json::to_string(&results)
            .map_err(|e| format!("sample {sample}: results do not serialize: {e}"))?;
        match &results_json {
            None => results_json = Some(json),
            Some(first) if *first != json => {
                return Err(format!(
                    "determinism violation: sample {sample} produced different \
                     result bytes than sample 1 ({} vs {} bytes)",
                    json.len(),
                    first.len()
                ));
            }
            Some(_) => {}
        }

        let m = results.metrics();
        walls.push(wall);
        speedups.push(m.parallel_speedup());
        if sample == 1 {
            let lookups = m.cache_hits + m.cache_misses;
            cache = CacheSection {
                hits: m.cache_hits,
                misses: m.cache_misses,
                hit_rate: if lookups > 0 {
                    m.cache_hits as f64 / lookups as f64
                } else {
                    0.0
                },
            };
        }
        manifests.push(manifest);
        last_results = Some(results);
    }
    let metrics_after = ramp_obs::metrics_snapshot();

    // Fleet telemetry pass — deliberately after `metrics_after`, so its
    // spans and counters cannot leak into the measured window above.
    let fleet = if opts.fleet_chips > 0 {
        Some(fleet_section(config, opts.fleet_chips)?)
    } else {
        None
    };

    let results = last_results.expect("samples >= 1");
    let results_json = results_json.expect("samples >= 1");

    // Allocation telemetry pass — also after `metrics_after`, and last,
    // so tracking-allocator bookkeeping touches neither the timed
    // samples nor the fleet throughput number.
    let alloc = if opts.alloc_pass {
        Some(alloc_section(config, &results_json)?)
    } else {
        None
    };
    let threads = manifests[0].threads;

    let total = timing_stat(&walls);
    let speedup = median(&speedups);

    Ok(Measurement {
        workload: WorkloadSection {
            label: REFERENCE_LABEL.to_string(),
            benchmarks: config.benchmarks.iter().map(|p| p.name.clone()).collect(),
            nodes: config.nodes.iter().map(|n| n.label().to_string()).collect(),
            samples,
            threads,
        },
        total,
        stages: aggregate_stages(&stage_samples, total.median_seconds),
        cache,
        executor: ExecutorSection {
            threads,
            speedup,
            utilization: if threads > 0 {
                (speedup / threads as f64).min(1.0)
            } else {
                0.0
            },
        },
        histograms: histogram_stats(&metrics_before, &metrics_after),
        numerics: numerics_section(config, &results),
        fleet,
        alloc,
        results_json,
        manifests,
    })
}

/// Canonical rendering the alloc digest is taken over: one
/// `path=count` line per stage, path-sorted. Counts only — byte totals
/// can legitimately vary with allocator growth policy, counts cannot.
fn alloc_stage_canonical(stages: &[AllocStageStat]) -> String {
    let mut out = String::new();
    for s in stages {
        out.push_str(&s.path);
        out.push('=');
        out.push_str(&s.allocs.to_string());
        out.push('\n');
    }
    out
}

/// Runs the allocation telemetry pass: the same workload, one worker
/// thread, tracking allocator on. Single-threaded execution makes the
/// per-stage allocation *counts* exactly reproducible, so the section's
/// digest can be gated like the results digest. The pass also re-checks
/// the byte-determinism contract: its results must match the timed
/// samples bit for bit even though the thread count and the allocator
/// instrumentation differ.
fn alloc_section(config: &StudyConfig, expected_json: &str) -> Result<AllocSection, String> {
    let mut cfg = config.clone();
    cfg.threads = 1;
    ramp_microarch::clear_timing_cache();
    ramp_obs::reset_spans();
    let before = ramp_obs::alloc_stats();
    ramp_obs::set_alloc_tracking(true);
    let outcome = run_study(&cfg);
    ramp_obs::set_alloc_tracking(false);
    let after = ramp_obs::alloc_stats();
    let results = outcome.map_err(|e| format!("alloc pass failed: {e}"))?;

    let json = serde_json::to_string(&results)
        .map_err(|e| format!("alloc pass: results do not serialize: {e}"))?;
    if json != expected_json {
        return Err(format!(
            "determinism violation: the alloc pass (threads=1, tracking on) produced \
             different result bytes than the timed samples ({} vs {} bytes)",
            json.len(),
            expected_json.len()
        ));
    }

    let delta = after.delta_since(&before);
    let stages: Vec<AllocStageStat> = ramp_obs::span_stats()
        .into_iter()
        .map(|s| AllocStageStat {
            path: s.path,
            allocs: s.alloc_count,
            bytes: s.alloc_bytes,
        })
        .collect();
    Ok(AllocSection {
        threads: 1,
        allocs: delta.allocs,
        alloc_bytes: delta.alloc_bytes,
        peak_live_bytes: after.peak_live_bytes,
        stage_digest: fnv1a_hex(&alloc_stage_canonical(&stages)),
        stages,
    })
}

/// Runs the fleet telemetry pass: a fixed-seed population over the
/// workload's first benchmark and all its nodes, reported as throughput
/// plus the canonical population digest.
fn fleet_section(config: &StudyConfig, chips: u64) -> Result<FleetSection, String> {
    let benchmark = config
        .benchmarks
        .first()
        .map(|p| p.name.clone())
        .ok_or_else(|| "fleet telemetry needs at least one benchmark".to_string())?;
    let engine = ramp_core::QueryEngine::calibrate(config)
        .map_err(|e| format!("fleet calibration failed: {e}"))?;
    let fleet_config = ramp_fleet::FleetConfig {
        benchmark: benchmark.clone(),
        nodes: config.nodes.clone(),
        chips,
        threads: Some(config.threads),
        ..ramp_fleet::FleetConfig::default()
    };
    let results = ramp_fleet::run_fleet(&engine, &fleet_config)
        .map_err(|e| format!("fleet telemetry run failed: {e}"))?;
    Ok(FleetSection {
        benchmark,
        chips_per_node: results.chips_per_node,
        seed: results.seed,
        chips_per_sec: results.chips_per_sec,
        population_digest: results.population_digest(),
    })
}

/// Runs the [`reference_workload`] through the harness.
///
/// # Errors
///
/// Propagates [`run_harness`] failures.
pub fn run_reference_workload(opts: &HarnessOptions) -> Result<Measurement, String> {
    run_harness(&reference_workload(), opts)
}

/// Stamps a measurement into a versioned snapshot.
#[must_use]
pub fn capture_snapshot(measurement: &Measurement, seq: u32) -> BenchSnapshot {
    BenchSnapshot {
        schema_version: BENCH_SCHEMA_VERSION,
        seq,
        created_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        provenance: Provenance::capture(),
        workload: measurement.workload.clone(),
        total: measurement.total,
        stages: measurement.stages.clone(),
        cache: measurement.cache,
        executor: measurement.executor,
        histograms: measurement.histograms.clone(),
        numerics: measurement.numerics.clone(),
        fleet: measurement.fleet.clone(),
        alloc: measurement.alloc.clone(),
    }
}

fn numerics_section(config: &StudyConfig, results: &StudyResults) -> NumericsSection {
    let mut nodes = Vec::new();
    let mut mechanisms = Vec::new();
    for &node in &config.nodes {
        nodes.push(NodeFit {
            node: node.label().to_string(),
            avg_fit: results.overall_average_fit(node).value(),
            max_fit: results.max_app_fit(node).value(),
        });
        for mech in MechanismKind::ALL {
            let rs: Vec<_> = results
                .app_results()
                .iter()
                .filter(|r| r.node == node)
                .collect();
            let mean = rs
                .iter()
                .map(|r| r.fit.mechanism_total(mech).value())
                .sum::<f64>()
                / rs.len() as f64;
            mechanisms.push(MechanismFit {
                node: node.label().to_string(),
                mechanism: mech.label().to_string(),
                avg_fit: mean,
            });
        }
    }
    NumericsSection {
        config_digest: config_digest(config),
        results_digest: results_digest(results),
        nodes,
        mechanisms,
    }
}

/// Flattens a stage tree into `(path, count, seconds)` rows, depth-first.
fn flatten_stages(stages: &[StageNode]) -> Vec<(String, u64, f64)> {
    fn walk(node: &StageNode, out: &mut Vec<(String, u64, f64)>) {
        out.push((node.path.clone(), node.count, node.total_seconds));
        for child in &node.children {
            walk(child, out);
        }
    }
    let mut out = Vec::new();
    for s in stages {
        walk(s, &mut out);
    }
    out
}

/// Merges per-sample flattened stage rows into per-path statistics.
/// Paths are keyed exactly; a path absent from some samples contributes
/// zeros for those samples (it genuinely cost nothing there).
fn aggregate_stages(samples: &[Vec<(String, u64, f64)>], total_median: f64) -> Vec<StageStat> {
    // Path order of the first sample, then any new paths in later samples.
    let mut order: Vec<String> = Vec::new();
    for sample in samples {
        for (path, _, _) in sample {
            if !order.contains(path) {
                order.push(path.clone());
            }
        }
    }
    order
        .iter()
        .map(|path| {
            let mut seconds = Vec::with_capacity(samples.len());
            let mut count = 0u64;
            for sample in samples {
                match sample.iter().find(|(p, _, _)| p == path) {
                    Some((_, c, s)) => {
                        seconds.push(*s);
                        count = count.max(*c);
                    }
                    None => seconds.push(0.0),
                }
            }
            let timing = timing_stat(&seconds);
            StageStat {
                path: path.clone(),
                count,
                timing,
                share: if total_median > 0.0 {
                    (timing.median_seconds / total_median).min(1.0)
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Percentiles of each histogram's *delta* between two registry
/// snapshots: only observations recorded inside the measured window
/// count, even though the registry is process-global.
fn histogram_stats(before: &[MetricSnapshot], after: &[MetricSnapshot]) -> Vec<HistogramStat> {
    let mut out = Vec::new();
    for snap in after {
        let MetricValue::Histogram {
            bounds,
            counts,
            bucket_sums,
            count,
            sum,
        } = &snap.value
        else {
            continue;
        };
        let (mut d_counts, mut d_sums, mut d_count, mut d_sum) =
            (counts.clone(), bucket_sums.clone(), *count, *sum);
        if let Some(prev) = before.iter().find(|p| p.name == snap.name) {
            if let MetricValue::Histogram {
                counts: p_counts,
                bucket_sums: p_sums,
                count: p_count,
                sum: p_sum,
                ..
            } = &prev.value
            {
                for (d, p) in d_counts.iter_mut().zip(p_counts) {
                    *d = d.saturating_sub(*p);
                }
                for (d, p) in d_sums.iter_mut().zip(p_sums) {
                    *d -= p;
                }
                d_count = d_count.saturating_sub(*p_count);
                d_sum -= p_sum;
            }
        }
        if d_count == 0 {
            continue;
        }
        out.push(HistogramStat {
            name: snap.name.clone(),
            count: d_count,
            mean: d_sum / d_count as f64,
            p50: ramp_obs::bucket_percentile_with_sums(bounds, &d_counts, &d_sums, 50.0),
            p95: ramp_obs::bucket_percentile_with_sums(bounds, &d_counts, &d_sums, 95.0),
            p99: ramp_obs::bucket_percentile_with_sums(bounds, &d_counts, &d_sums, 99.0),
        });
    }
    out
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn timing_stat(values: &[f64]) -> TimingStat {
    TimingStat {
        median_seconds: median(values),
        min_seconds: values.iter().copied().fold(f64::INFINITY, f64::min),
        max_seconds: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

/// Noise model of the performance gate.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Multiplier on the baseline median: the core of each stage budget.
    pub tolerance: f64,
    /// Multiplier on the baseline spread (max − min) added to the
    /// budget — a run-to-run noise allowance measured by the baseline
    /// harness itself.
    pub spread_slack: f64,
    /// Stages whose baseline median is below this are reported but not
    /// gated: at that scale, timer jitter exceeds any real regression.
    pub min_stage_seconds: f64,
    /// Multiplier on the baseline peak-live-bytes the current peak is
    /// held to. Allocation *counts* are exact; the live-byte high-water
    /// mark can shift slightly with allocator growth policy, so it gets
    /// a budget instead of an exact match.
    pub peak_live_slack: f64,
}

impl GateConfig {
    /// Standard gate: generous enough for shared CI hardware, tight
    /// enough to catch a real 3× stage regression.
    #[must_use]
    pub fn standard() -> Self {
        GateConfig {
            tolerance: 3.0,
            spread_slack: 2.0,
            min_stage_seconds: 0.02,
            peak_live_slack: 1.5,
        }
    }

    /// Smoke gate for K=1 CI runs: wall-clock is almost advisory (10×
    /// budgets, 100 ms floor); the numerical exact-match checks — which
    /// are noise-free — carry the gate.
    #[must_use]
    pub fn smoke() -> Self {
        GateConfig {
            tolerance: 10.0,
            spread_slack: 4.0,
            min_stage_seconds: 0.10,
            peak_live_slack: 2.0,
        }
    }

    fn budget(&self, baseline: &TimingStat) -> f64 {
        baseline.median_seconds * self.tolerance + self.spread_slack * baseline.spread_seconds()
    }
}

/// Outcome of one stage comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Within budget.
    Ok,
    /// Median exceeded the budget — gate failure.
    Over,
    /// Baseline median below the gating floor — informational only.
    Skipped,
    /// Stage in the baseline but absent from the current run — the
    /// pipeline shape changed; gate failure.
    Missing,
    /// Stage only in the current run — informational only.
    New,
}

impl StageStatus {
    /// Short lowercase label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StageStatus::Ok => "ok",
            StageStatus::Over => "OVER",
            StageStatus::Skipped => "skip",
            StageStatus::Missing => "MISSING",
            StageStatus::New => "new",
        }
    }

    /// Whether this status fails the gate.
    #[must_use]
    pub fn is_failure(self) -> bool {
        matches!(self, StageStatus::Over | StageStatus::Missing)
    }
}

/// One row of the per-stage delta report.
#[derive(Debug, Clone)]
pub struct StageDelta {
    /// Full span path.
    pub path: String,
    /// Baseline median, seconds (0 for [`StageStatus::New`]).
    pub baseline_seconds: f64,
    /// Current median, seconds (0 for [`StageStatus::Missing`]).
    pub current_seconds: f64,
    /// Budget the current median was held to (0 when not gated).
    pub budget_seconds: f64,
    /// Outcome.
    pub status: StageStatus,
}

impl StageDelta {
    /// current ÷ baseline (∞ when the baseline is 0).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.baseline_seconds > 0.0 {
            self.current_seconds / self.baseline_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Full outcome of a gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Baseline snapshot sequence number.
    pub baseline_seq: u32,
    /// Whether the two runs measured the same workload (config digests
    /// match). When false every other field is advisory.
    pub config_match: bool,
    /// Whether the numerical outputs matched exactly.
    pub digest_match: bool,
    /// Whether the fleet population digests matched. `true` when the
    /// comparison does not apply: either side lacks a fleet section, or
    /// the fleet parameters (benchmark, chips, seed) differ.
    pub fleet_digest_match: bool,
    /// Human-readable fleet drift description (empty when
    /// `fleet_digest_match`).
    pub fleet_diff: Option<String>,
    /// Whether the per-stage allocation-count digests matched. `true`
    /// when the comparison does not apply (either side lacks an alloc
    /// section or the pass thread counts differ).
    pub alloc_digest_match: bool,
    /// Whether the current peak-live-bytes sat within the baseline
    /// budget (`peak × peak_live_slack`). `true` when not applicable.
    pub alloc_peak_ok: bool,
    /// Human-readable allocation drift localization (empty when both
    /// alloc checks passed).
    pub alloc_diffs: Vec<String>,
    /// Human-readable localization of numerical drift (empty when
    /// `digest_match`).
    pub numeric_diffs: Vec<String>,
    /// Worker threads of the baseline's sweep.
    pub baseline_threads: u64,
    /// Worker threads of the candidate's sweep.
    pub current_threads: u64,
    /// CPUs available when the baseline was captured.
    pub baseline_cpus: u64,
    /// CPUs available to the candidate.
    pub current_cpus: u64,
    /// Whole-study wall-clock row.
    pub total: StageDelta,
    /// Per-stage rows, baseline order, then new stages.
    pub stages: Vec<StageDelta>,
}

impl GateReport {
    /// Whether the gate passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.config_match
            && self.digest_match
            && self.fleet_digest_match
            && self.alloc_digest_match
            && self.alloc_peak_ok
            && !self.total.status.is_failure()
            && self.stages.iter().all(|s| !s.status.is_failure())
    }
}

/// Compares a current measurement against a baseline snapshot.
#[must_use]
pub fn compare(baseline: &BenchSnapshot, current: &Measurement, gate: &GateConfig) -> GateReport {
    let config_match = baseline.numerics.config_digest == current.numerics.config_digest;
    let digest_match =
        config_match && baseline.numerics.results_digest == current.numerics.results_digest;

    let mut numeric_diffs = Vec::new();
    if config_match && !digest_match {
        numeric_diffs.push(format!(
            "results digest {} -> {}",
            baseline.numerics.results_digest, current.numerics.results_digest
        ));
        for b in &baseline.numerics.nodes {
            if let Some(c) = current.numerics.nodes.iter().find(|n| n.node == b.node) {
                if c.avg_fit != b.avg_fit || c.max_fit != b.max_fit {
                    numeric_diffs.push(format!(
                        "{}: avg FIT {:.6} -> {:.6}, max FIT {:.6} -> {:.6}",
                        b.node, b.avg_fit, c.avg_fit, b.max_fit, c.max_fit
                    ));
                }
            }
        }
        for b in &baseline.numerics.mechanisms {
            if let Some(c) = current
                .numerics
                .mechanisms
                .iter()
                .find(|m| m.node == b.node && m.mechanism == b.mechanism)
            {
                if c.avg_fit != b.avg_fit {
                    numeric_diffs.push(format!(
                        "{} {}: avg FIT {:.6} -> {:.6}",
                        b.node, b.mechanism, b.avg_fit, c.avg_fit
                    ));
                }
            }
        }
    }

    // The fleet digest is gated exactly, but only when both sides ran the
    // same population (section present, same benchmark/chips/seed) —
    // pre-fleet baselines and smoke-vs-full fleet sizes compare as "not
    // applicable", never as failures.
    let (fleet_digest_match, fleet_diff) = match (&baseline.fleet, &current.fleet) {
        (Some(b), Some(c))
            if b.benchmark == c.benchmark
                && b.chips_per_node == c.chips_per_node
                && b.seed == c.seed =>
        {
            if b.population_digest == c.population_digest {
                (true, None)
            } else {
                (
                    false,
                    Some(format!(
                        "fleet population digest {} -> {} ({} chips/node, seed {})",
                        b.population_digest, c.population_digest, c.chips_per_node, c.seed
                    )),
                )
            }
        }
        _ => (true, None),
    };

    // The alloc digest is exact (single-threaded counts are
    // deterministic); the peak-live high-water mark gets a budget. Both
    // apply only when the two sides ran comparable passes.
    let mut alloc_diffs = Vec::new();
    let (alloc_digest_match, alloc_peak_ok) = match (&baseline.alloc, &current.alloc) {
        (Some(b), Some(c)) if b.threads == c.threads && config_match => {
            let digest_ok = b.stage_digest == c.stage_digest;
            if !digest_ok {
                alloc_diffs.push(format!(
                    "alloc stage digest {} -> {} ({} -> {} total allocations)",
                    b.stage_digest, c.stage_digest, b.allocs, c.allocs
                ));
                for bs in &b.stages {
                    match c.stages.iter().find(|cs| cs.path == bs.path) {
                        Some(cs) if cs.allocs != bs.allocs => {
                            alloc_diffs.push(format!(
                                "  {}: {} -> {} allocs",
                                bs.path, bs.allocs, cs.allocs
                            ));
                        }
                        Some(_) => {}
                        None => alloc_diffs.push(format!("  {}: stage vanished", bs.path)),
                    }
                }
                for cs in &c.stages {
                    if !b.stages.iter().any(|bs| bs.path == cs.path) {
                        alloc_diffs.push(format!(
                            "  {}: new stage ({} allocs)",
                            cs.path, cs.allocs
                        ));
                    }
                }
            }
            let peak_budget = (b.peak_live_bytes as f64 * gate.peak_live_slack) as u64;
            let peak_ok = c.peak_live_bytes <= peak_budget;
            if !peak_ok {
                alloc_diffs.push(format!(
                    "peak live bytes {} exceeds budget {} ({} baseline x {:.1})",
                    c.peak_live_bytes, peak_budget, b.peak_live_bytes, gate.peak_live_slack
                ));
            }
            (digest_ok, peak_ok)
        }
        _ => (true, true),
    };

    let total_budget = gate.budget(&baseline.total);
    let total = StageDelta {
        path: "(total)".to_string(),
        baseline_seconds: baseline.total.median_seconds,
        current_seconds: current.total.median_seconds,
        budget_seconds: total_budget,
        status: if current.total.median_seconds > total_budget {
            StageStatus::Over
        } else {
            StageStatus::Ok
        },
    };

    let mut stages = Vec::new();
    for b in &baseline.stages {
        let cur = current.stages.iter().find(|c| c.path == b.path);
        let delta = match cur {
            Some(c) if b.timing.median_seconds < gate.min_stage_seconds => StageDelta {
                path: b.path.clone(),
                baseline_seconds: b.timing.median_seconds,
                current_seconds: c.timing.median_seconds,
                budget_seconds: 0.0,
                status: StageStatus::Skipped,
            },
            Some(c) => {
                let budget = gate.budget(&b.timing);
                StageDelta {
                    path: b.path.clone(),
                    baseline_seconds: b.timing.median_seconds,
                    current_seconds: c.timing.median_seconds,
                    budget_seconds: budget,
                    status: if c.timing.median_seconds > budget {
                        StageStatus::Over
                    } else {
                        StageStatus::Ok
                    },
                }
            }
            None if b.timing.median_seconds < gate.min_stage_seconds => StageDelta {
                path: b.path.clone(),
                baseline_seconds: b.timing.median_seconds,
                current_seconds: 0.0,
                budget_seconds: 0.0,
                status: StageStatus::Skipped,
            },
            None => StageDelta {
                path: b.path.clone(),
                baseline_seconds: b.timing.median_seconds,
                current_seconds: 0.0,
                budget_seconds: 0.0,
                status: StageStatus::Missing,
            },
        };
        stages.push(delta);
    }
    for c in &current.stages {
        if !baseline.stages.iter().any(|b| b.path == c.path) {
            stages.push(StageDelta {
                path: c.path.clone(),
                baseline_seconds: 0.0,
                current_seconds: c.timing.median_seconds,
                budget_seconds: 0.0,
                status: StageStatus::New,
            });
        }
    }

    GateReport {
        baseline_seq: baseline.seq,
        baseline_threads: baseline.workload.threads,
        current_threads: current.workload.threads,
        baseline_cpus: baseline.provenance.cpus,
        current_cpus: current
            .manifests
            .first()
            .map_or_else(|| Provenance::capture().cpus, |m| m.provenance.cpus),
        config_match,
        digest_match,
        fleet_digest_match,
        fleet_diff,
        alloc_digest_match,
        alloc_peak_ok,
        alloc_diffs,
        numeric_diffs,
        total,
        stages,
    }
}

/// Renders a gate report for humans (what CI prints on failure).
#[must_use]
pub fn render_report(report: &GateReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchgate vs BENCH_{:04}: {}",
        report.baseline_seq,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    let _ = writeln!(
        out,
        "  baseline: {} thread(s) on {} CPU(s); candidate: {} thread(s) on {} CPU(s)",
        report.baseline_threads, report.baseline_cpus, report.current_threads, report.current_cpus
    );
    if report.baseline_threads != report.current_threads {
        let _ = writeln!(
            out,
            "  thread counts differ: wall-clock rows compare unlike sweeps"
        );
    }
    if report.baseline_cpus != report.current_cpus {
        let _ = writeln!(
            out,
            "  CPU counts differ: wall-clock rows compare different hosts"
        );
    }

    if !report.config_match {
        let _ = writeln!(
            out,
            "  workload mismatch: the baseline was captured under a different study \
             configuration; wall-clock and numeric deltas below are meaningless. \
             Re-baseline with `benchgate --update`."
        );
    }
    if report.config_match {
        if report.digest_match {
            let _ = writeln!(out, "  numerics: exact match (results digest unchanged)");
        } else {
            let _ = writeln!(out, "  numerics: DRIFT DETECTED");
            for d in &report.numeric_diffs {
                let _ = writeln!(out, "    {d}");
            }
        }
        if report.fleet_digest_match {
            let _ = writeln!(out, "  fleet: population digest ok");
        } else {
            let _ = writeln!(out, "  fleet: POPULATION DRIFT");
            if let Some(d) = &report.fleet_diff {
                let _ = writeln!(out, "    {d}");
            }
        }
        if report.alloc_digest_match && report.alloc_peak_ok {
            let _ = writeln!(out, "  alloc: stage digest and peak budget ok");
        } else {
            let _ = writeln!(out, "  alloc: ALLOCATION DRIFT");
            for d in &report.alloc_diffs {
                let _ = writeln!(out, "    {d}");
            }
        }
    }

    let _ = writeln!(
        out,
        "  {:<44} {:>10} {:>10} {:>10}  status",
        "stage", "base(s)", "cur(s)", "budget(s)"
    );
    let render_row = |out: &mut String, d: &StageDelta| {
        let budget = if d.budget_seconds > 0.0 {
            format!("{:.3}", d.budget_seconds)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "  {:<44} {:>10.3} {:>10.3} {:>10}  {}",
            d.path, d.baseline_seconds, d.current_seconds, budget,
            d.status.label()
        );
    };
    render_row(&mut out, &report.total);
    for d in &report.stages {
        render_row(&mut out, d);
    }
    out
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// File name of snapshot `seq` (`BENCH_0001.json`).
#[must_use]
pub fn snapshot_file_name(seq: u32) -> String {
    format!("BENCH_{seq:04}.json")
}

/// All `BENCH_<seq>.json` files in `dir`, sorted by sequence number.
#[must_use]
pub fn find_snapshots(dir: &Path) -> Vec<(u32, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|(seq, _)| *seq);
    found
}

/// The highest-sequence snapshot in `dir`, if any.
#[must_use]
pub fn latest_snapshot(dir: &Path) -> Option<(u32, PathBuf)> {
    find_snapshots(dir).into_iter().next_back()
}

/// The sequence number the next snapshot in `dir` should use.
#[must_use]
pub fn next_seq(dir: &Path) -> u32 {
    latest_snapshot(dir).map_or(1, |(seq, _)| seq + 1)
}

/// Loads and validates a snapshot file.
///
/// # Errors
///
/// Returns a message when the file is unreadable, not valid snapshot
/// JSON, or from a different schema version.
pub fn load_snapshot(path: &Path) -> Result<BenchSnapshot, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let snap: BenchSnapshot = serde_json::from_str(&raw)
        .map_err(|e| format!("{} is not a BENCH snapshot: {e}", path.display()))?;
    if snap.schema_version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "{}: schema version {} (this binary understands {})",
            path.display(),
            snap.schema_version,
            BENCH_SCHEMA_VERSION
        ));
    }
    Ok(snap)
}

/// Writes a snapshot as pretty-stable JSON.
///
/// # Errors
///
/// Returns a message when serialization or the write fails.
pub fn save_snapshot(snapshot: &BenchSnapshot, path: &Path) -> Result<(), String> {
    let json = serde_json::to_string(snapshot)
        .map_err(|e| format!("snapshot does not serialize: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(median: f64, min: f64, max: f64) -> TimingStat {
        TimingStat {
            median_seconds: median,
            min_seconds: min,
            max_seconds: max,
        }
    }

    fn snapshot_fixture() -> BenchSnapshot {
        BenchSnapshot {
            schema_version: BENCH_SCHEMA_VERSION,
            seq: 1,
            created_unix_ms: 0,
            provenance: Provenance::capture(),
            workload: WorkloadSection {
                label: REFERENCE_LABEL.to_string(),
                benchmarks: vec!["gzip".into()],
                nodes: vec!["180nm".into()],
                samples: 3,
                threads: 1,
            },
            total: stat(1.0, 0.9, 1.1),
            stages: vec![
                StageStat {
                    path: "study".into(),
                    count: 1,
                    timing: stat(1.0, 0.9, 1.1),
                    share: 1.0,
                },
                StageStat {
                    path: "study/tiny".into(),
                    count: 1,
                    timing: stat(0.001, 0.001, 0.002),
                    share: 0.001,
                },
            ],
            cache: CacheSection {
                hits: 0,
                misses: 20,
                hit_rate: 0.0,
            },
            executor: ExecutorSection {
                threads: 1,
                speedup: 1.0,
                utilization: 1.0,
            },
            histograms: vec![],
            numerics: NumericsSection {
                config_digest: "c".into(),
                results_digest: "r".into(),
                nodes: vec![NodeFit {
                    node: "180nm".into(),
                    avg_fit: 4000.0,
                    max_fit: 4400.0,
                }],
                mechanisms: vec![MechanismFit {
                    node: "180nm".into(),
                    mechanism: "EM".into(),
                    avg_fit: 1000.0,
                }],
            },
            fleet: Some(FleetSection {
                benchmark: "gzip".into(),
                chips_per_node: 20_000,
                seed: 42,
                chips_per_sec: 1.0e5,
                population_digest: "f".into(),
            }),
            alloc: Some(alloc_fixture()),
        }
    }

    fn alloc_fixture() -> AllocSection {
        let stages = vec![
            AllocStageStat {
                path: "study".into(),
                allocs: 100,
                bytes: 10_000,
            },
            AllocStageStat {
                path: "study/run".into(),
                allocs: 80,
                bytes: 8_000,
            },
        ];
        AllocSection {
            threads: 1,
            allocs: 200,
            alloc_bytes: 20_000,
            peak_live_bytes: 1_000_000,
            stage_digest: fnv1a_hex(&alloc_stage_canonical(&stages)),
            stages,
        }
    }

    fn measurement_like(snapshot: &BenchSnapshot) -> Measurement {
        Measurement {
            workload: snapshot.workload.clone(),
            total: snapshot.total,
            stages: snapshot.stages.clone(),
            cache: snapshot.cache,
            executor: snapshot.executor,
            histograms: snapshot.histograms.clone(),
            numerics: snapshot.numerics.clone(),
            fleet: snapshot.fleet.clone(),
            alloc: snapshot.alloc.clone(),
            results_json: String::new(),
            manifests: vec![],
        }
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let base = snapshot_fixture();
        let report = compare(&base, &measurement_like(&base), &GateConfig::standard());
        assert!(report.passed(), "{}", render_report(&report));
        assert!(report.digest_match);
    }

    #[test]
    fn report_header_states_both_sides_threads_and_cpus() {
        let mut base = snapshot_fixture();
        base.provenance.cpus = 1;
        let mut cur = measurement_like(&base);
        let report = compare(&base, &cur, &GateConfig::standard());
        let rendered = render_report(&report);
        let cpus = Provenance::capture().cpus;
        assert!(
            rendered.contains(&format!(
                "baseline: 1 thread(s) on 1 CPU(s); candidate: 1 thread(s) on {cpus} CPU(s)"
            )),
            "{rendered}"
        );
        assert!(!rendered.contains("thread counts differ"), "{rendered}");
        // A candidate at another thread count is flagged, not hidden.
        cur.workload.threads = 2;
        let rendered = render_report(&compare(&base, &cur, &GateConfig::standard()));
        assert!(rendered.contains("candidate: 2 thread(s)"), "{rendered}");
        assert!(rendered.contains("thread counts differ"), "{rendered}");
    }

    #[test]
    fn stage_over_budget_fails_with_delta_row() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        cur.stages[0].timing = stat(10.0, 10.0, 10.0); // 10x the baseline
        let report = compare(&base, &cur, &GateConfig::standard());
        assert!(!report.passed());
        let row = report.stages.iter().find(|s| s.path == "study").unwrap();
        assert_eq!(row.status, StageStatus::Over);
        assert!(render_report(&report).contains("OVER"));
    }

    #[test]
    fn tiny_stages_are_never_gated() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        // 1000x regression on a 1 ms stage: below the floor, not gated.
        cur.stages[1].timing = stat(1.0, 1.0, 1.0);
        cur.stages[1].path = "study/tiny".into();
        let report = compare(&base, &cur, &GateConfig::standard());
        let row = report.stages.iter().find(|s| s.path == "study/tiny").unwrap();
        assert_eq!(row.status, StageStatus::Skipped);
        assert!(report.passed());
    }

    #[test]
    fn digest_mismatch_fails_regardless_of_timing() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        cur.numerics.results_digest = "drifted".into();
        cur.numerics.nodes[0].avg_fit += 1e-9;
        let report = compare(&base, &cur, &GateConfig::smoke());
        assert!(!report.passed());
        assert!(!report.digest_match);
        assert!(!report.numeric_diffs.is_empty());
        assert!(render_report(&report).contains("DRIFT"));
    }

    #[test]
    fn config_mismatch_asks_for_rebaseline() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        cur.numerics.config_digest = "other".into();
        let report = compare(&base, &cur, &GateConfig::standard());
        assert!(!report.passed());
        assert!(!report.config_match);
        assert!(render_report(&report).contains("Re-baseline"));
    }

    #[test]
    fn missing_baseline_stage_fails() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        cur.stages.remove(0);
        let report = compare(&base, &cur, &GateConfig::standard());
        let row = report.stages.iter().find(|s| s.path == "study").unwrap();
        assert_eq!(row.status, StageStatus::Missing);
        assert!(!report.passed());
    }

    #[test]
    fn new_stages_are_informational() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        cur.stages.push(StageStat {
            path: "study/extra".into(),
            count: 1,
            timing: stat(5.0, 5.0, 5.0),
            share: 0.5,
        });
        let report = compare(&base, &cur, &GateConfig::standard());
        let row = report.stages.iter().find(|s| s.path == "study/extra").unwrap();
        assert_eq!(row.status, StageStatus::New);
        assert!(report.passed());
    }

    #[test]
    fn alloc_count_drift_fails_the_gate() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        let alloc = cur.alloc.as_mut().unwrap();
        alloc.stages[1].allocs += 1;
        alloc.stage_digest = fnv1a_hex(&alloc_stage_canonical(&alloc.stages));
        let report = compare(&base, &cur, &GateConfig::smoke());
        assert!(!report.passed());
        assert!(!report.alloc_digest_match);
        assert!(report.alloc_peak_ok);
        let rendered = render_report(&report);
        assert!(rendered.contains("ALLOCATION DRIFT"), "{rendered}");
        assert!(rendered.contains("study/run: 80 -> 81 allocs"), "{rendered}");
    }

    #[test]
    fn peak_live_bytes_over_budget_fails_the_gate() {
        let base = snapshot_fixture();
        let mut cur = measurement_like(&base);
        // 1.5x slack on a 1 MB baseline: 2 MB is over budget.
        cur.alloc.as_mut().unwrap().peak_live_bytes = 2_000_000;
        let report = compare(&base, &cur, &GateConfig::standard());
        assert!(!report.passed());
        assert!(report.alloc_digest_match);
        assert!(!report.alloc_peak_ok);
        assert!(render_report(&report).contains("peak live bytes"));
    }

    #[test]
    fn missing_alloc_section_compares_as_not_applicable() {
        let mut base = snapshot_fixture();
        base.alloc = None;
        let cur = measurement_like(&snapshot_fixture());
        let report = compare(&base, &cur, &GateConfig::standard());
        assert!(report.alloc_digest_match);
        assert!(report.alloc_peak_ok);
        assert!(report.passed(), "{}", render_report(&report));
    }

    #[test]
    fn alloc_canonical_rendering_is_stable() {
        let stages = vec![
            AllocStageStat {
                path: "a".into(),
                allocs: 1,
                bytes: 10,
            },
            AllocStageStat {
                path: "b".into(),
                allocs: 2,
                bytes: 99,
            },
        ];
        // Counts only: byte totals must not move the digest.
        assert_eq!(alloc_stage_canonical(&stages), "a=1\nb=2\n");
        let mut fatter = stages.clone();
        fatter[0].bytes = 1_000_000;
        assert_eq!(
            fnv1a_hex(&alloc_stage_canonical(&stages)),
            fnv1a_hex(&alloc_stage_canonical(&fatter))
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = snapshot_fixture();
        let json = serde_json::to_string(&snap).unwrap();
        let back: BenchSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_files_are_discovered_in_sequence_order() {
        let dir = std::env::temp_dir().join(format!("ramp-bench-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = snapshot_fixture();
        for seq in [3u32, 1, 2] {
            snap.seq = seq;
            save_snapshot(&snap, &dir.join(snapshot_file_name(seq))).unwrap();
        }
        std::fs::write(dir.join("BENCH_bogus.json"), "{}").unwrap();
        let found = find_snapshots(&dir);
        assert_eq!(
            found.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(latest_snapshot(&dir).unwrap().0, 3);
        assert_eq!(next_seq(&dir), 4);
        let loaded = load_snapshot(&found[0].1).unwrap();
        assert_eq!(loaded.seq, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ramp-bench-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = snapshot_fixture();
        snap.schema_version = BENCH_SCHEMA_VERSION + 1;
        let path = dir.join(snapshot_file_name(9));
        save_snapshot(&snap, &path).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn stage_aggregation_takes_medians_per_path() {
        let samples = vec![
            vec![("study".to_string(), 1, 1.0), ("study/run".to_string(), 4, 0.8)],
            vec![("study".to_string(), 1, 3.0), ("study/run".to_string(), 4, 2.4)],
            vec![("study".to_string(), 1, 2.0)],
        ];
        let stats = aggregate_stages(&samples, 2.0);
        let study = stats.iter().find(|s| s.path == "study").unwrap();
        assert_eq!(study.timing.median_seconds, 2.0);
        assert_eq!(study.timing.min_seconds, 1.0);
        assert_eq!(study.timing.max_seconds, 3.0);
        assert_eq!(study.share, 1.0);
        // Path absent from sample 3 contributes a zero.
        let run = stats.iter().find(|s| s.path == "study/run").unwrap();
        assert_eq!(run.timing.min_seconds, 0.0);
        assert_eq!(run.timing.median_seconds, 0.8);
        assert_eq!(run.count, 4);
    }
}
