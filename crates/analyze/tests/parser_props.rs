//! Totality properties for the item-level parser and the summarizer.
//!
//! The analyzer runs over every byte the repository will ever contain,
//! including half-written code mid-rebase, so `parse_items` (and the
//! summarizer above it) must be total: any input, however mangled,
//! produces a `ParsedFile` without panicking.

use proptest::prelude::*;
use ramp_analyze::parse::parse_items;
use ramp_analyze::summary::summarize;
use ramp_analyze::{FileContext, FileKind};

/// Tokens biased toward the parser's hard paths: visibility qualifiers,
/// generic brackets, closure pipes, nested braces, and item keywords.
const STEERING: &[&str] = &[
    "pub", "(", "crate", ")", "fn", "struct", "enum", "impl", "for", "mod",
    "static", "const", "trait", "where", "<", ">", "{", "}", "|", "&", "mut",
    "::", "->", "=", ";", ",", "#", "[", "]", "'a", "f", "x", "0.5", "\"s\"",
    "//c\n", "/*b*/", "\n",
];

fn ctx_of(src: &str) -> FileContext {
    FileContext::new("core", FileKind::Lib, "crates/core/src/fuzz.rs", src)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsing_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_items(&ctx_of(&src));
    }

    #[test]
    fn parsing_item_keyword_soup_never_panics(picks in proptest::collection::vec(0usize..STEERING.len(), 0..128)) {
        let src: String = picks
            .iter()
            .flat_map(|&i| [STEERING[i], " "])
            .collect();
        let parsed = parse_items(&ctx_of(&src));
        // Totality also means every recorded function lies inside the file.
        for f in &parsed.fns {
            prop_assert!(f.line >= 1);
        }
    }

    #[test]
    fn summarizing_keyword_soup_never_panics(picks in proptest::collection::vec(0usize..STEERING.len(), 0..96)) {
        let src: String = picks
            .iter()
            .flat_map(|&i| [STEERING[i], " "])
            .collect();
        // The full file pipeline: lex → parse → token rules → symbol
        // extraction.
        let _ = summarize(&ctx_of(&src));
    }

    #[test]
    fn parsing_is_deterministic(bytes in proptest::collection::vec(32u8..127, 0..128)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let a = parse_items(&ctx_of(&src));
        let b = parse_items(&ctx_of(&src));
        let names = |p: &ramp_analyze::parse::ParsedFile| {
            p.fns.iter().map(|f| (f.name.clone(), f.line)).collect::<Vec<_>>()
        };
        prop_assert_eq!(names(&a), names(&b));
    }
}
