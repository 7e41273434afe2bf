//! The cross-file rules: checks that need more than one file's tokens.
//!
//! Each rule consumes the per-file [`crate::summary::FileSummary`]s
//! (plus the call graph for panic-reach) and produces ordinary
//! [`Finding`]s. `float-determinism` is the exception: it is file-local
//! and runs inside [`crate::summary::summarize`] with the token rules,
//! but it lives here with its siblings because it shares their
//! structural (parser-backed) style.

pub mod alloc_hygiene;
pub mod atomic_ordering;
pub mod float_determinism;
pub mod panic_reach;

use crate::callgraph;
use crate::findings::Finding;
use crate::summary::FileSummary;

/// Runs every cross-file rule over the workspace summaries.
#[must_use]
pub fn cross_file(summaries: &[FileSummary]) -> Vec<Finding> {
    let graph = callgraph::build(summaries);
    let mut findings = panic_reach::check(&graph);
    findings.extend(atomic_ordering::check(summaries));
    findings.extend(alloc_hygiene::check(summaries));
    // Deterministic report order regardless of summary ordering.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings
}
