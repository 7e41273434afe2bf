//! Experiment harness for regenerating every table and figure of the
//! paper's evaluation.
//!
//! Binaries:
//!
//! | binary | reproduces |
//! |---|---|
//! | `paper` | one 16-benchmark × 5-node study, then the headline claims, Tables 1–4 and Figures 2–5 |
//! | `ablations` | design-choice ablations (DESIGN.md §6) |
//! | `calibrate` | refit the workload-profile knobs |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod plot;
pub mod telemetry;

use ramp_core::{RunManifest, StudyConfig, StudyResults};
use std::path::PathBuf;

/// Initialises `ramp-obs` from the environment: a stderr sink gated by
/// `RAMP_LOG` (default `info`) plus a JSONL sink when `RAMP_EVENTS` names
/// a file. Every bench binary calls this first; repeated calls are no-ops.
pub fn init_obs() {
    ramp_obs::init_from_env();
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Location of the run manifest written next to a freshly-run study.
#[must_use]
pub fn manifest_path() -> PathBuf {
    target_dir().join("ramp-run-manifest.json")
}

/// Captures and writes the run manifest for a study that just executed,
/// returning it. Failures to write are logged, not fatal: the manifest is
/// diagnostics, never an input.
pub fn write_manifest(config: &StudyConfig, results: &StudyResults) -> RunManifest {
    let manifest = RunManifest::capture(config, results);
    let path = manifest_path();
    match manifest.write_json(&path) {
        Ok(()) => ramp_obs::debug!("manifest written to {}", path.display()),
        Err(e) => ramp_obs::warn!("could not write manifest: {e}"),
    }
    manifest
}

/// Prints the execution metrics (per-stage wall clock, throughput,
/// timing-cache effectiveness) of a study run in this process to stderr.
pub fn print_study_metrics(results: &StudyResults) {
    for line in results.metrics().report().lines() {
        ramp_obs::info!("{line}");
    }
}
