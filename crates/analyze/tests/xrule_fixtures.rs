//! Fixture matrix for the four cross-file/structural v2 rules.
//!
//! Every rule gets a positive case (the defect fires), a negative case
//! (correct code stays quiet), and an inline-allow case (a justified
//! `ramp-lint:allow` silences exactly that finding). Fixtures drive
//! [`ramp_analyze::analyze_sources`], the same composition the workspace
//! walk uses, so what passes here is what the real gate enforces.

use ramp_analyze::{analyze_sources, FileKind};

type Src = (&'static str, FileKind, &'static str, &'static str);

fn rules_of(files: &[Src]) -> Vec<&'static str> {
    analyze_sources(files)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

fn findings_for(files: &[Src], rule: &str) -> Vec<ramp_analyze::Finding> {
    analyze_sources(files)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---------------------------------------------------------------- panic-reach

#[test]
fn panic_reach_positive_reports_the_full_call_chain() {
    let files: [Src; 2] = [
        (
            "thermal",
            FileKind::Lib,
            "crates/thermal/src/api.rs",
            "pub fn entry(x: Option<u32>) -> u32 { middle(x) }\n\
             fn middle(x: Option<u32>) -> u32 { inner(x) }\n",
        ),
        (
            "thermal",
            FileKind::Lib,
            "crates/thermal/src/impl.rs",
            "pub(crate) fn inner(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ];
    let found = findings_for(&files, "panic-reach");
    assert_eq!(found.len(), 1, "exactly the pub entry point is flagged");
    let f = &found[0];
    assert_eq!(f.symbol, "entry");
    assert_eq!((f.line, f.file.as_str()), (1, "crates/thermal/src/api.rs"));
    // The full chain, in call order, with the site location.
    assert!(
        f.message.contains("`entry -> middle -> inner`"),
        "chain missing from: {}",
        f.message
    );
    assert!(f.message.contains(".unwrap() at crates/thermal/src/impl.rs:1"));
}

#[test]
fn panic_reach_negative_total_functions_are_quiet() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/api.rs",
        "pub fn entry(x: Option<u32>) -> u32 { middle(x) }\n\
         fn middle(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    )];
    assert!(!rules_of(&files).contains(&"panic-reach"));
}

#[test]
fn panic_reach_inline_allow_on_the_site_clears_every_caller() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/api.rs",
        "pub fn entry(xs: &[u32]) -> u32 { pick(xs) }\n\
         fn pick(xs: &[u32]) -> u32 {\n\
             xs[0] // ramp-lint:allow(panic-reach) -- caller guarantees non-empty\n\
         }\n",
    )];
    assert!(!rules_of(&files).contains(&"panic-reach"));
}

#[test]
fn panic_reach_ignores_non_model_crates() {
    let files: [Src; 1] = [(
        "bench",
        FileKind::Lib,
        "crates/bench/src/lib.rs",
        "pub fn entry(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )];
    assert!(!rules_of(&files).contains(&"panic-reach"));
}

// --------------------------------------------------------- float-determinism

#[test]
fn float_determinism_positive_seeded_accumulation_in_executor_closure() {
    // The seeded bug from the EXPERIMENTS.md walkthrough: a shared f64
    // accumulated inside an `Executor::map` closure makes the merged
    // total depend on thread scheduling.
    let files: [Src; 1] = [(
        "core",
        FileKind::Lib,
        "crates/core/src/study.rs",
        "pub fn total(chunks: &[Vec<f64>], exec: &Executor) -> Vec<f64> {\n\
             exec.map(&chunks, |c| {\n\
                 let mut total: f64 = 0.0;\n\
                 for x in c { total += x; }\n\
                 total\n\
             })\n\
         }\n",
    )];
    let found = findings_for(&files, "float-determinism");
    assert_eq!(found.len(), 1, "the seeded `f64 +=` is caught");
    assert_eq!(found[0].file, "crates/core/src/study.rs");
}

#[test]
fn float_determinism_negative_integer_accumulation_and_plain_iterators() {
    let files: [Src; 1] = [(
        "core",
        FileKind::Lib,
        "crates/core/src/study.rs",
        "pub fn count(items: &[u64], exec: &Executor) -> u64 {\n\
             let mut n: u64 = 0;\n\
             let _ = exec.map(&items, |x| x + 1);\n\
             for x in items.iter() { n += x; }\n\
             items.iter().map(|x| x * 2).sum()\n\
         }\n",
    )];
    assert!(!rules_of(&files).contains(&"float-determinism"));
}

#[test]
fn float_determinism_inline_allow_documents_the_tolerance() {
    let files: [Src; 1] = [(
        "core",
        FileKind::Lib,
        "crates/core/src/study.rs",
        "pub fn total(items: &[f64], exec: &Executor) -> Vec<f64> {\n\
             // ramp-lint:allow(float-determinism) -- diagnostic only, never merged\n\
             exec.map(&items, |x| { let mut s: f64 = 0.0; s += *x; s })\n\
         }\n",
    )];
    assert!(!rules_of(&files).contains(&"float-determinism"));
}

// ----------------------------------------------------------- atomic-ordering

#[test]
fn atomic_ordering_positive_relaxed_store_against_acquire_load() {
    let files: [Src; 2] = [
        (
            "obs",
            FileKind::Lib,
            "crates/obs/src/a.rs",
            "pub fn publish(flag: &AtomicBool) { flag.store(true, Ordering::Relaxed); }\n",
        ),
        (
            "obs",
            FileKind::Lib,
            "crates/obs/src/b.rs",
            "pub fn consume(flag: &AtomicBool) -> bool { flag.load(Ordering::Acquire) }\n",
        ),
    ];
    let found = findings_for(&files, "atomic-ordering");
    assert_eq!(found.len(), 1);
    assert!(found[0].message.contains("Relaxed"));
    assert!(found[0].message.contains("Acquire"));
}

#[test]
fn atomic_ordering_negative_matched_orderings_and_home_crate_decls() {
    let files: [Src; 1] = [(
        "obs",
        FileKind::Lib,
        "crates/obs/src/a.rs",
        "pub struct Counters { hits: AtomicU64 }\n\
         pub fn bump(c: &Counters) { c.hits.fetch_add(1, Ordering::Relaxed); }\n\
         pub fn read(c: &Counters) -> u64 { c.hits.load(Ordering::Relaxed) }\n",
    )];
    assert!(!rules_of(&files).contains(&"atomic-ordering"));
}

#[test]
fn atomic_ordering_inline_allow_accepts_a_stray_decl() {
    let stray: [Src; 1] = [(
        "serve",
        FileKind::Lib,
        "crates/serve/src/s.rs",
        "pub struct Stats { n: AtomicU64 }\n",
    )];
    assert!(rules_of(&stray).contains(&"atomic-ordering"), "stray decl fires");

    let allowed: [Src; 1] = [(
        "serve",
        FileKind::Lib,
        "crates/serve/src/s.rs",
        "pub struct Stats { n: AtomicU64 } // ramp-lint:allow(atomic-ordering) -- monotone counter\n",
    )];
    assert!(!rules_of(&allowed).contains(&"atomic-ordering"));
}

// ------------------------------------------------------------- alloc-hygiene

#[test]
fn alloc_hygiene_positive_marker_hot_function_with_allocation() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "// ramp-lint: hot\n\
         pub fn step(xs: &[f64]) -> Vec<f64> {\n\
             xs.iter().map(|x| x * 2.0).collect()\n\
         }\n",
    )];
    let found = findings_for(&files, "alloc-hygiene");
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].symbol, "step");
}

#[test]
fn alloc_hygiene_marked_impl_method_is_flagged_and_unmarked_fn_is_not() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "impl Sim {\n\
             // ramp-lint: hot\n\
             pub fn step(&mut self, xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n\
         }\n\
         pub fn cold(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n",
    )];
    let found = findings_for(&files, "alloc-hygiene");
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].symbol, "Sim::step");
}

#[test]
fn alloc_hygiene_dangling_marker_is_a_finding() {
    // The marker sits four lines above the next function: it binds
    // nothing, which would silently drop a hot path.
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "// ramp-lint: hot\n\
         \n\
         const SCALE: f64 = 2.0;\n\
         \n\
         pub fn step(xs: &mut [f64]) { for x in xs { *x *= SCALE; } }\n",
    )];
    let found = findings_for(&files, "alloc-hygiene");
    assert_eq!(found.len(), 1);
    assert_eq!((found[0].line, found[0].symbol.as_str()), (1, "// ramp-lint: hot"));
}

#[test]
fn alloc_hygiene_doc_comment_mentioning_the_marker_is_not_one() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "/// Not hot: only a plain `// ramp-lint: hot` line marks a function.\n\
         pub fn report(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n\
         /* // ramp-lint: hot */\n\
         pub fn table(xs: &[f64]) -> Vec<f64> { xs.to_vec() }\n",
    )];
    assert!(findings_for(&files, "alloc-hygiene").is_empty());
}

#[test]
fn alloc_hygiene_negative_cold_functions_allocate_freely() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "pub fn report(xs: &[f64]) -> Vec<String> {\n\
             xs.iter().map(|x| format!(\"{x}\")).collect()\n\
         }\n",
    )];
    assert!(!rules_of(&files).contains(&"alloc-hygiene"));
}

#[test]
fn alloc_hygiene_inline_allow_keeps_a_justified_allocation() {
    let files: [Src; 1] = [(
        "thermal",
        FileKind::Lib,
        "crates/thermal/src/sim.rs",
        "// ramp-lint: hot\n\
         pub fn step(xs: &[f64]) -> Vec<f64> {\n\
             // ramp-lint:allow(alloc-hygiene) -- one-time warmup buffer\n\
             xs.to_vec()\n\
         }\n",
    )];
    assert!(!rules_of(&files).contains(&"alloc-hygiene"));
}
