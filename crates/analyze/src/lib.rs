//! `ramp-analyze`: a dependency-free static analyzer that enforces the
//! workspace's cross-cutting invariants, from token-level hygiene to
//! cross-file dataflow.
//!
//! The simulation stack's guarantees — unit-safe public APIs,
//! byte-identical results across thread counts, observability routed
//! through `ramp-obs`, non-panicking library paths — are easy to erode
//! one innocuous edit at a time. The `ramp-lint` binary in this crate
//! walks every first-party crate and checks nine named rules:
//!
//! | rule | severity | scope | what it catches |
//! |---|---|---|---|
//! | `unit-safety` | error | token | raw `f64` in `pub fn` signatures of the model crates |
//! | `determinism` | error | token | wall clocks, OS entropy, hash-order iteration in simulation code |
//! | `obs-hygiene` | warning | token | `println!`/`eprintln!`/`dbg!` bypassing the sinks |
//! | `panic-hygiene` | warning | token | `unwrap()`/`expect()`/`panic!` on library paths |
//! | `span-hygiene` | warning | token | dynamic or malformed span/metric names |
//! | `panic-reach` | error | cross-file | `pub` model-crate APIs transitively reaching a panic site |
//! | `float-determinism` | error | structural | float accumulation in `Executor` closures / merge callbacks |
//! | `atomic-ordering` | warning | cross-file | Relaxed stores paired with Acquire loads; stray atomics |
//! | `alloc-hygiene` | warning | cross-file | allocations in `// ramp-lint: hot` functions; dangling markers |
//!
//! The token rules are lexical ([`lexer`]); the v2 rules add a total
//! item-level parser ([`parse`]), per-file summaries ([`summary`]), a
//! conservative workspace call graph ([`callgraph`]), and the
//! cross-file pass ([`xrules`]). One run is one sequential pass over
//! the workspace (under 100 ms for the whole tree), so there is nothing
//! to cache or parallelize.
//!
//! Two in-source comments steer the analysis, and nothing else does:
//! `// ramp-lint:allow(rule) -- why` on (or directly above) a line
//! documents an individual exception in place, and a `// ramp-lint: hot`
//! line directly above a function declares it a hot path for
//! `alloc-hygiene`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod callgraph;
pub mod context;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod summary;
pub mod workspace;
pub mod xrules;

pub use context::{FileContext, FileKind};
pub use findings::{Finding, Severity};

use std::path::Path;

/// Everything one analysis run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived inline allows — these fail the run.
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline `ramp-lint:allow` comments.
    pub suppressed: usize,
    /// Source files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// True when the run found nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the whole report as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(Finding::to_json).collect();
        format!(
            "{{\"findings\":[{}],\"total\":{},\"suppressed_inline\":{},\"files_scanned\":{}}}",
            findings.join(","),
            self.findings.len(),
            self.suppressed,
            self.files_scanned,
        )
    }

    /// Renders the human-readable report (one line per finding plus a
    /// summary line).
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "ramp-lint: {} finding(s) ({} inline-suppressed) across {} files\n",
            self.findings.len(),
            self.suppressed,
            self.files_scanned,
        ));
        out
    }
}

/// Renders the report as a SARIF 2.1.0 document (see [`sarif`]).
#[must_use]
pub fn to_sarif(report: &Report) -> String {
    sarif::render(report)
}

/// Analyzes one in-memory source file with the token-local rules only.
/// This is the composition point the single-file fixture tests drive
/// directly; [`analyze_sources`] adds the structural and cross-file
/// rules, and [`analyze_workspace`] is the same thing fed from disk.
#[must_use]
pub fn analyze_source(
    crate_name: &str,
    kind: FileKind,
    rel_path: &str,
    source: &str,
) -> Vec<Finding> {
    rules::check_file(&FileContext::new(crate_name, kind, rel_path, source))
}

/// Analyzes a set of in-memory source files with the *full* rule set —
/// local rules plus the cross-file pass. This is the composition point
/// the cross-file fixture tests drive: each entry is
/// `(crate_name, kind, rel_path, source)`.
#[must_use]
pub fn analyze_sources(files: &[(&str, FileKind, &str, &str)]) -> Vec<Finding> {
    let summaries: Vec<summary::FileSummary> = files
        .iter()
        .map(|(crate_name, kind, rel_path, source)| {
            summary::summarize(&FileContext::new(crate_name, *kind, rel_path, source))
        })
        .collect();
    report_for(&summaries).findings
}

/// Walks the workspace at `root` and runs every rule over every
/// first-party file: per-file summaries (lex, parse, local rules), then
/// the cross-file pass over all of them.
///
/// # Errors
///
/// Returns [`std::io::Error`] if the workspace cannot be walked or a
/// source file cannot be read.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let summaries: Vec<summary::FileSummary> = workspace::discover(root)?
        .iter()
        .map(|file| {
            let source = std::fs::read_to_string(&file.abs_path)?;
            let ctx = FileContext::new(&file.crate_name, file.kind, &file.rel_path, &source);
            Ok(summary::summarize(&ctx))
        })
        .collect::<std::io::Result<_>>()?;
    Ok(report_for(&summaries))
}

/// Local findings of every summary plus the cross-file findings.
fn report_for(summaries: &[summary::FileSummary]) -> Report {
    let mut findings: Vec<Finding> = summaries.iter().flat_map(|s| s.findings.clone()).collect();
    findings.extend(xrules::cross_file(summaries));
    Report {
        findings,
        suppressed: summaries.iter().map(|s| s.suppressed).sum(),
        files_scanned: summaries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let report = Report {
            findings: vec![Finding {
                rule: "determinism",
                severity: Severity::Error,
                file: "f.rs".to_string(),
                line: 3,
                col: 1,
                symbol: "g".to_string(),
                message: "m".to_string(),
            }],
            suppressed: 2,
            files_scanned: 10,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"findings\":[{"));
        assert!(json.contains("\"total\":1"));
        assert!(json.contains("\"suppressed_inline\":2"));
        assert!(json.ends_with("\"files_scanned\":10}"));
        assert!(!report.is_clean());
    }

    #[test]
    fn human_report_summarises() {
        let report = Report {
            suppressed: 3,
            files_scanned: 4,
            ..Report::default()
        };
        assert!(report.is_clean());
        assert_eq!(
            report.to_human(),
            "ramp-lint: 0 finding(s) (3 inline-suppressed) across 4 files\n"
        );
    }

    #[test]
    fn analyze_sources_combines_local_and_cross_file_rules() {
        let files = [
            (
                "thermal",
                FileKind::Lib,
                "crates/thermal/src/a.rs",
                "pub fn api() { helper(); }\nfn helper(x: Option<u32>) { x.unwrap(); }\n",
            ),
            (
                "thermal",
                FileKind::Lib,
                "crates/thermal/src/b.rs",
                "fn quiet() {}\n",
            ),
        ];
        let findings = analyze_sources(&files);
        // panic-hygiene (local, on the unwrap) + panic-reach (cross-file,
        // on the pub API).
        assert!(findings.iter().any(|f| f.rule == "panic-hygiene"));
        assert!(findings.iter().any(|f| f.rule == "panic-reach"));
    }
}
