//! alloc-hygiene: declared hot paths must not allocate.
//!
//! The allocation-tracking work (BENCH_0003) pinned per-stage
//! allocation budgets; this rule moves the same pressure to the source
//! level. A function is *hot* when a `// ramp-lint: hot` line sits
//! directly above it (see [`crate::summary::HOT_MARKER`]). Any
//! allocation-prone construct inside a hot function — `Vec::new`,
//! `.push()`, `Box::new`, `format!`, `.clone()`, `.collect()`, … — is a
//! warning, with one finding per function anchored at the first site.
//! A marker that binds no function is a warning too: it would otherwise
//! drop a hot path without a trace.

use crate::findings::{Finding, Severity};
use crate::summary::{FileSummary, HOT_MARKER};

/// Runs the rule over the workspace summaries.
#[must_use]
pub fn check(summaries: &[FileSummary]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in summaries {
        for &line in &file.dangling_hot_markers {
            findings.push(Finding {
                rule: "alloc-hygiene",
                severity: Severity::Warning,
                file: file.rel_path.clone(),
                line,
                col: 1,
                symbol: HOT_MARKER.to_string(),
                message: format!(
                    "`{HOT_MARKER}` binds no function; put it directly above \
                     the hot function's declaration (at most 3 lines up)"
                ),
            });
        }
        for func in &file.fns {
            if !func.hot || func.allocs.is_empty() {
                continue;
            }
            let first = &func.allocs[0];
            let extra = func.allocs.len() - 1;
            let more = if extra > 0 {
                format!(" (+{extra} more site{})", if extra == 1 { "" } else { "s" })
            } else {
                String::new()
            };
            findings.push(Finding {
                rule: "alloc-hygiene",
                severity: Severity::Warning,
                file: file.rel_path.clone(),
                line: first.line,
                col: first.col,
                symbol: func.qual_name.clone(),
                message: format!(
                    "hot path `{}` allocates: `{}`{more}; hoist allocations \
                     out of the per-step loop, reuse buffers, or drop the \
                     function from the hot-path set",
                    func.qual_name, first.what
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileContext, FileKind};
    use crate::summary::summarize;

    fn file(src: &str) -> FileSummary {
        summarize(&FileContext::new(
            "thermal",
            FileKind::Lib,
            "crates/thermal/src/x.rs",
            src,
        ))
    }

    #[test]
    fn marker_hot_fn_with_allocations_is_flagged_once() {
        let s = file(
            "// ramp-lint: hot\n\
             pub fn step(&mut self) {\n\
                 let scratch = Vec::new();\n\
                 let label = format!(\"x\");\n\
                 drop((scratch, label));\n\
             }\n",
        );
        let all = [s];
        let findings = check(&all);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Vec::new"));
        assert!(findings[0].message.contains("+1 more"));
    }

    #[test]
    fn marked_impl_method_is_flagged_and_unmarked_fn_is_not() {
        let s = file(
            "impl Sim {\n\
                 // ramp-lint: hot\n\
                 pub fn step_many(&mut self) { let v = vec![1]; drop(v); }\n\
             }\n\
             pub fn cold() { let v = Vec::new(); drop(v); }\n",
        );
        let all = [s];
        let findings = check(&all);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].symbol, "Sim::step_many");
    }

    #[test]
    fn inline_allow_on_the_site_clears_the_fn() {
        let s = file(
            "// ramp-lint: hot\n\
             pub fn step(&mut self) {\n\
                 let once = Vec::new(); // ramp-lint:allow(alloc-hygiene) -- one-time warmup\n\
                 drop(once);\n\
             }\n",
        );
        let all = [s];
        assert!(check(&all).is_empty());
    }

    #[test]
    fn alloc_free_hot_fn_is_clean() {
        let s = file(
            "// ramp-lint: hot\n\
             pub fn step(&mut self, xs: &mut [f64]) {\n\
                 for x in xs.iter_mut() { *x *= 2.0; }\n\
             }\n",
        );
        let all = [s];
        assert!(check(&all).is_empty());
    }
}
