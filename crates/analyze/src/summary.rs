//! Per-file analysis summaries: everything the cross-file pass needs
//! from one file, extracted once per run.
//!
//! A [`FileSummary`] holds only *local* facts — findings of the
//! token-local rules, function symbols with their call/panic/alloc
//! sites and hot markers, and atomic declarations/operations — so the
//! cross-file pass ([`crate::xrules`]) works from the summaries alone.

use crate::context::{FileContext, FileKind};
use crate::findings::Finding;
use crate::parse::{self, FnItem, ParsedFile, Vis};
use crate::rules;
use crate::xrules::float_determinism;
use std::collections::BTreeSet;

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called function name (`step_many`).
    pub callee: String,
    /// Resolution hint: the `::`-path prefix (`ThermalSimulator`,
    /// `ramp_thermal::solve`) or the method receiver (`self`, `sim`).
    pub qualifier: Option<String>,
    /// True for `receiver.callee(…)`, false for path/free calls.
    pub is_method: bool,
    /// 1-based line of the callee token.
    pub line: u32,
    /// 1-based column of the callee token.
    pub col: u32,
}

/// One potential panic site (`unwrap`, `expect`, `panic!`-family, or
/// slice indexing) not justified by an inline allow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// What panics (`unwrap()`, `panic!`, `indexing`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One allocation-prone construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// The construct (`Vec::new`, `.clone()`, `format!`).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One function's cross-file-relevant facts.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Bare name (`step_many`).
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qual_name: String,
    /// Self type for methods.
    pub self_type: Option<String>,
    /// Item visibility.
    pub vis: Vis,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Bound by a hot marker ([`HOT_MARKER`]).
    pub hot: bool,
    /// Outgoing call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Unjustified panic sites, in source order.
    pub panics: Vec<PanicSite>,
    /// Allocation-prone sites, in source order.
    pub allocs: Vec<AllocSite>,
}

/// One atomic-typed declaration (struct with `Atomic*` fields, or an
/// `Atomic*` static).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicDecl {
    /// Declared name.
    pub name: String,
    /// Item keyword (`struct`, `static`, …).
    pub keyword: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
}

/// One atomic operation with an explicit `Ordering`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicOp {
    /// Receiver field or static name hint (`hits` in
    /// `self.hits.load(…)`).
    pub field: String,
    /// The method (`load`, `store`, `fetch_add`, …).
    pub method: String,
    /// Orderings named in the arguments (`Relaxed`, `Acquire`, …).
    pub orderings: Vec<String>,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Everything one run needs to remember about one file.
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    /// Crate directory name (`thermal`).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Local findings (token rules plus float-determinism), after
    /// inline allows.
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline allows.
    pub suppressed: usize,
    /// Non-test function symbols (lib files only).
    pub fns: Vec<FnSummary>,
    /// Atomic-owning declarations (lib files only).
    pub atomic_decls: Vec<AtomicDecl>,
    /// Atomic operations with explicit orderings (lib files only).
    pub atomic_ops: Vec<AtomicOp>,
    /// 1-based lines of hot markers that bind no function (lib files
    /// only).
    pub dangling_hot_markers: Vec<u32>,
}

/// Control-flow keywords that look like calls (`if (…)`) but are not.
const NOT_CALLS: [&str; 9] = [
    "if", "while", "for", "match", "return", "loop", "move", "fn", "in",
];

/// The `std::sync::atomic` type names. Exact matches only, so
/// first-party types that merely start with `Atomic` (like this crate's
/// own summary structs) are not misread as atomic state.
const STD_ATOMIC_TYPES: [&str; 12] = [
    "AtomicBool",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicPtr",
];

/// Atomic methods whose arguments carry an `Ordering`.
const ATOMIC_METHODS: [&str; 9] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "compare_exchange_weak",
];

/// The memory orderings of `std::sync::atomic::Ordering`.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Summarizes one file: local findings plus the symbol/site facts the
/// cross-file rules consume.
#[must_use]
pub fn summarize(ctx: &FileContext) -> FileSummary {
    let (mut findings, mut suppressed) = rules::check_file_counted(ctx);
    let parsed = parse::parse_items(ctx);
    let mut summary = FileSummary {
        crate_name: ctx.crate_name.clone(),
        rel_path: ctx.rel_path.clone(),
        ..FileSummary::default()
    };
    if ctx.kind == FileKind::Lib {
        let (float_findings, float_suppressed) = float_determinism::check(ctx, &parsed);
        findings.extend(float_findings);
        suppressed += float_suppressed;
        let live_fns: Vec<&FnItem> = parsed.fns.iter().filter(|f| !f.in_test).collect();
        let (hot, dangling) = bind_hot_markers(ctx, &live_fns);
        for (i, f) in live_fns.iter().enumerate() {
            summary.fns.push(summarize_fn(ctx, f, hot.contains(&i)));
        }
        summary.dangling_hot_markers = dangling;
        extract_atomics(ctx, &parsed, &mut summary);
    }
    summary.findings = findings;
    summary.suppressed = suppressed;
    summary
}

/// The exact text of a hot-path marker line.
pub const HOT_MARKER: &str = "// ramp-lint: hot";

/// Binds every `// ramp-lint: hot` marker to a function: returns the
/// indices (into `fns`) of hot functions and the lines of markers that
/// bind none. A marker is a plain line comment whose trimmed text is
/// exactly [`HOT_MARKER`] (doc comments that mention it do not count);
/// it binds the next function declared at or within three lines below
/// it (room for attributes and the visibility line), so it never leaks
/// past one function onto its neighbour.
fn bind_hot_markers(ctx: &FileContext, fns: &[&FnItem]) -> (BTreeSet<usize>, Vec<u32>) {
    let mut hot = BTreeSet::new();
    let mut dangling = Vec::new();
    let markers = ctx
        .tokens
        .iter()
        .filter(|t| t.kind == crate::lexer::TokenKind::LineComment && t.text.trim() == HOT_MARKER);
    for m in markers {
        let next = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.line >= m.line)
            .min_by_key(|(_, f)| f.line);
        match next {
            Some((i, f)) if f.line - m.line <= 3 => {
                hot.insert(i);
            }
            _ => dangling.push(m.line),
        }
    }
    (hot, dangling)
}

/// Extracts one function's call/panic/alloc sites.
fn summarize_fn(ctx: &FileContext, item: &FnItem, hot: bool) -> FnSummary {
    let mut out = FnSummary {
        name: item.name.clone(),
        qual_name: item.qual_name(),
        self_type: item.self_type.clone(),
        vis: item.vis,
        line: item.line,
        col: item.col,
        hot,
        calls: Vec::new(),
        panics: Vec::new(),
        allocs: Vec::new(),
    };
    let Some((start, end)) = item.body else {
        return out;
    };
    for pos in start..end.min(ctx.code.len()) {
        if ctx.in_test_span(ctx.code[pos]) {
            continue;
        }
        collect_call(ctx, pos, &mut out.calls);
        collect_panic(ctx, pos, &mut out.panics);
        collect_alloc(ctx, pos, &mut out.allocs);
    }
    out
}

/// Records a call site if the token at `pos` begins one.
fn collect_call(ctx: &FileContext, pos: usize, calls: &mut Vec<CallSite>) {
    let Some(tok) = ctx.code_token(pos) else { return };
    if tok.kind != crate::lexer::TokenKind::Ident
        || ctx.code_text(pos + 1) != "("
        || NOT_CALLS.contains(&tok.text.as_str())
    {
        return;
    }
    let prev = if pos > 0 { ctx.code_text(pos - 1) } else { "" };
    if prev == "fn" {
        return; // nested item declaration, not a call
    }
    let (qualifier, is_method) = if prev == "." {
        // `receiver.callee(…)` — keep the receiver as a hint when it is
        // a plain identifier (`self`, a local, a static).
        let hint = if pos >= 2 {
            ctx.code_token(pos - 2)
                .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
                .map(|t| t.text.clone())
        } else {
            None
        };
        (hint, true)
    } else if prev == ":" && pos >= 2 && ctx.code_text(pos - 2) == ":" {
        // `a::b::callee(…)` — collect the whole path prefix.
        let mut segments: Vec<String> = Vec::new();
        let mut back = pos;
        while back >= 3
            && ctx.code_text(back - 1) == ":"
            && ctx.code_text(back - 2) == ":"
            && ctx
                .code_token(back - 3)
                .is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident)
        {
            segments.push(ctx.code_text(back - 3).to_string());
            back -= 3;
        }
        segments.reverse();
        if segments.is_empty() {
            (None, false)
        } else {
            (Some(segments.join("::")), false)
        }
    } else {
        (None, false)
    };
    calls.push(CallSite {
        callee: tok.text.clone(),
        qualifier,
        is_method,
        line: tok.line,
        col: tok.col,
    });
}

/// Records a panic source if the token at `pos` is one and no inline
/// allow justifies it. Allows for `panic-hygiene` count too: they state
/// the invariant that makes the site total, which is exactly the proof
/// panic-reach wants.
fn collect_panic(ctx: &FileContext, pos: usize, panics: &mut Vec<PanicSite>) {
    let Some(tok) = ctx.code_token(pos) else { return };
    let site: Option<String> = match tok.text.as_str() {
        "unwrap" | "expect"
            if pos > 0 && ctx.code_text(pos - 1) == "." && ctx.code_text(pos + 1) == "(" =>
        {
            Some(format!(".{}()", tok.text))
        }
        "panic" | "unreachable" | "todo" | "unimplemented"
            if ctx.code_text(pos + 1) == "!" =>
        {
            Some(format!("{}!", tok.text))
        }
        "[" => {
            // Index expressions panic out of bounds. The previous token
            // disambiguates indexing (`xs[`, `)[`, `][`) from array
            // literals/types (`= [`, `([`, `: [`, `&[`).
            let prev = if pos > 0 { ctx.code_text(pos - 1) } else { "" };
            let is_index = pos > 0
                && (matches!(prev, ")" | "]" | "?")
                    || ctx
                        .code_token(pos - 1)
                        .is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident))
                && !matches!(
                    prev,
                    "in" | "return" | "as" | "mut" | "dyn" | "else" | "let"
                );
            if is_index {
                Some("indexing".to_string())
            } else {
                None
            }
        }
        _ => None,
    };
    let Some(what) = site else { return };
    if ctx.is_allowed(tok.line, "panic-hygiene") || ctx.is_allowed(tok.line, "panic-reach") {
        return;
    }
    panics.push(PanicSite {
        what,
        line: tok.line,
        col: tok.col,
    });
}

/// Records an allocation-prone construct at `pos`, unless inline-allowed.
fn collect_alloc(ctx: &FileContext, pos: usize, allocs: &mut Vec<AllocSite>) {
    let Some(tok) = ctx.code_token(pos) else { return };
    if tok.kind != crate::lexer::TokenKind::Ident {
        return;
    }
    let prev = if pos > 0 { ctx.code_text(pos - 1) } else { "" };
    let what: Option<String> = match tok.text.as_str() {
        // `Vec::new()`, `String::with_capacity(…)`, `Box::new(…)`, …
        "Vec" | "String" | "Box" | "VecDeque" | "BTreeMap" | "BTreeSet"
            if ctx.code_text(pos + 1) == ":"
                && ctx.code_text(pos + 2) == ":"
                && matches!(ctx.code_text(pos + 3), "new" | "with_capacity" | "from") =>
        {
            Some(format!("{}::{}", tok.text, ctx.code_text(pos + 3)))
        }
        "push" | "collect" | "clone" | "to_string" | "to_vec" | "to_owned" | "push_str"
            if prev == "." && ctx.code_text(pos + 1) == "(" =>
        {
            Some(format!(".{}()", tok.text))
        }
        "format" | "vec" if ctx.code_text(pos + 1) == "!" => Some(format!("{}!", tok.text)),
        _ => None,
    };
    let Some(what) = what else { return };
    if ctx.is_allowed(tok.line, "alloc-hygiene") {
        return;
    }
    allocs.push(AllocSite {
        what,
        line: tok.line,
        col: tok.col,
    });
}

/// Extracts atomic declarations and explicitly-ordered operations.
fn extract_atomics(ctx: &FileContext, parsed: &ParsedFile, out: &mut FileSummary) {
    for decl in parsed.decls.iter().filter(|d| !d.in_test) {
        let (s, e) = decl.span;
        let has_atomic = (s..e.min(ctx.code.len()))
            .any(|p| STD_ATOMIC_TYPES.contains(&ctx.code_text(p)));
        if has_atomic && !ctx.is_allowed(decl.line, "atomic-ordering") {
            out.atomic_decls.push(AtomicDecl {
                name: decl.name.clone(),
                keyword: decl.keyword.to_string(),
                line: decl.line,
                col: decl.col,
            });
        }
    }
    for pos in 0..ctx.code.len() {
        if ctx.code_text(pos) != "."
            || !ATOMIC_METHODS.contains(&ctx.code_text(pos + 1))
            || ctx.code_text(pos + 2) != "("
        {
            continue;
        }
        if ctx.in_test_span(ctx.code[pos]) {
            continue;
        }
        let Some(meth_tok) = ctx.code_token(pos + 1) else { continue };
        let args_end = parse::skip_balanced(ctx, pos + 2, "(", ")");
        let orderings: Vec<String> = (pos + 3..args_end)
            .filter_map(|p| ctx.code_token(p))
            .filter(|t| ORDERINGS.contains(&t.text.as_str()))
            .map(|t| t.text.clone())
            .collect();
        if orderings.is_empty() {
            continue; // not an atomic op (e.g. `mmap.load(path)`)
        }
        if ctx.is_allowed(meth_tok.line, "atomic-ordering") {
            continue;
        }
        let field = if pos > 0 { ctx.code_text(pos - 1).to_string() } else { String::new() };
        out.atomic_ops.push(AtomicOp {
            field,
            method: meth_tok.text.clone(),
            orderings,
            line: meth_tok.line,
            col: meth_tok.col,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FileContext, FileKind};

    fn summary(crate_name: &str, src: &str) -> FileSummary {
        summarize(&FileContext::new(
            crate_name,
            FileKind::Lib,
            &format!("crates/{crate_name}/src/x.rs"),
            src,
        ))
    }

    #[test]
    fn calls_are_extracted_with_qualifiers() {
        let s = summary(
            "fleet",
            "fn run(sim: &Sim) {\n\
                 helper();\n\
                 sim.step_many(3);\n\
                 ThermalSimulator::build(sim);\n\
                 if x { nested_call(); }\n\
             }\n\
             fn helper() {}\n",
        );
        let run = &s.fns[0];
        let got: Vec<(&str, Option<&str>, bool)> = run
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.qualifier.as_deref(), c.is_method))
            .collect();
        assert_eq!(
            got,
            vec![
                ("helper", None, false),
                ("step_many", Some("sim"), true),
                ("build", Some("ThermalSimulator"), false),
                ("nested_call", None, false),
            ]
        );
    }

    #[test]
    fn panic_sites_respect_allows_and_tests() {
        let s = summary(
            "core",
            "fn a(xs: &[u32]) -> u32 {\n\
                 let v = xs[0];\n\
                 let w = xs[1]; // ramp-lint:allow(panic-reach) -- len checked\n\
                 maybe();\n\
                 good().unwrap(); // ramp-lint:allow(panic-hygiene) -- total\n\
                 stop();\n\
                 other().unwrap()\n\
             }\n\
             #[cfg(test)] mod t { fn b() { x.unwrap(); } }\n",
        );
        let a = &s.fns[0];
        let whats: Vec<&str> = a.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["indexing", ".unwrap()"]);
        assert_eq!(s.fns.len(), 1, "test fn excluded");
    }

    #[test]
    fn indexing_heuristic_skips_types_and_literals() {
        let s = summary(
            "core",
            "fn f(xs: &[f64; 4]) -> Vec<u32> {\n\
                 let a = [0u32; 4];\n\
                 let b: [u32; 2] = [1, 2];\n\
                 let [x, y] = [1u32, 2];\n\
                 let c = &xs[..2];\n\
                 a.to_vec()\n\
             }\n",
        );
        // `xs[..2]` is real indexing (slicing can panic); the literals
        // and types are not.
        let whats: Vec<&str> = s.fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(whats, vec!["indexing"]);
    }

    #[test]
    fn alloc_sites_cover_the_prone_constructs() {
        let s = summary(
            "thermal",
            "fn build() -> Vec<String> {\n\
                 let mut v = Vec::new();\n\
                 v.push(format!(\"x\"));\n\
                 let w = v.clone();\n\
                 w.iter().map(|s| s.to_string()).collect()\n\
             }\n",
        );
        let whats: Vec<&str> = s.fns[0].allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["Vec::new", ".push()", "format!", ".clone()", ".to_string()", ".collect()"]
        );
    }

    #[test]
    fn hot_marker_near_fn_sets_flag() {
        let s = summary(
            "thermal",
            "// ramp-lint: hot\npub fn step() {}\n\npub fn cold() {}\n",
        );
        assert!(s.fns[0].hot);
        assert!(!s.fns[1].hot);
    }

    #[test]
    fn atomics_extracted_with_orderings() {
        let s = summary(
            "serve",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub struct Stats { hits: AtomicU64 }\n\
             static TOTAL: AtomicU64 = AtomicU64::new(0);\n\
             impl Stats {\n\
                 fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
                 fn read(&self) -> u64 { self.hits.load(Ordering::Acquire) }\n\
             }\n",
        );
        let decls: Vec<&str> = s.atomic_decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(decls, vec!["Stats", "TOTAL"]);
        let ops: Vec<(&str, &str, &str)> = s
            .atomic_ops
            .iter()
            .map(|o| (o.field.as_str(), o.method.as_str(), o.orderings[0].as_str()))
            .collect();
        assert_eq!(
            ops,
            vec![("hits", "fetch_add", "Relaxed"), ("hits", "load", "Acquire")]
        );
    }
}
