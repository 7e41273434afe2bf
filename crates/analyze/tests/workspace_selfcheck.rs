//! The self-check: this workspace must pass its own lint on every
//! `cargo test` run. This is the inner gate backing the `ramp-lint` CI
//! job — a regression fails the test suite even if the lint job is
//! skipped.

use ramp_analyze::summary::summarize;
use ramp_analyze::{analyze_workspace, workspace, FileContext};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/analyze
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzable");
    assert!(
        report.is_clean(),
        "ramp-lint found findings:\n{}",
        report.to_human()
    );
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
}

#[test]
fn v2_rules_stay_at_zero() {
    // The four structural rules landed with the live tree fully burned
    // down (inline allows carry the invariants; three call sites were
    // refactored index-free). Pin that per rule: any new cross-file
    // finding must be fixed or justified inline.
    let report = analyze_workspace(&workspace_root()).expect("workspace analyzable");
    for rule in ["panic-reach", "float-determinism", "atomic-ordering", "alloc-hygiene"] {
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
        assert!(
            hits.is_empty(),
            "{rule} regressed with {} finding(s):\n{}",
            hits.len(),
            hits.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}

#[test]
fn live_hot_set_is_exactly_the_benchmarked_step_functions() {
    // The functions on the benchmark-critical path (BENCH_0003 stage
    // attribution: study/*/run/timing/timing_sim dominates wall-clock)
    // carry `// ramp-lint: hot` markers. Losing or adding one changes
    // what alloc-hygiene guards, so the set is pinned here.
    let root = workspace_root();
    let mut hot: Vec<(String, String)> = Vec::new();
    for file in workspace::discover(&root).expect("workspace walkable") {
        let source = std::fs::read_to_string(&file.abs_path).expect("source readable");
        let summary = summarize(&FileContext::new(
            &file.crate_name,
            file.kind,
            &file.rel_path,
            &source,
        ));
        for func in summary.fns.iter().filter(|f| f.hot) {
            hot.push((summary.crate_name.clone(), func.qual_name.clone()));
        }
    }
    hot.sort();
    let expected = [
        ("microarch", "Cache::access"),
        ("microarch", "Engine::step"),
        ("microarch", "GsharePredictor::update"),
        ("thermal", "RcNetwork::step"),
        ("thermal", "ThermalSimulator::step_many"),
        ("trace", "Rng::next_u64"),
    ];
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|(c, f)| ((*c).to_string(), (*f).to_string()))
        .collect();
    assert_eq!(hot, expected);
}
