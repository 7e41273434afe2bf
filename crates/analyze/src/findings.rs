//! Finding and severity types, plus the human and JSON renderings.

use std::fmt;

/// How bad a finding is. Severities are advisory labels for readers; any
/// unsuppressed finding fails the lint run regardless of
/// severity (the workspace invariant is "clean", not "clean enough").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a correctness-adjacent invariant (unit safety,
    /// determinism).
    Error,
    /// Violates a hygiene invariant (stray stdout, panicking library
    /// paths).
    Warning,
}

impl Severity {
    /// Lower-case label used in both output formats.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One rule violation at a specific site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name, e.g. `"unit-safety"`.
    pub rule: &'static str,
    /// Severity of the rule that fired.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the triggering token.
    pub line: u32,
    /// 1-based character column of the triggering token (0 when the
    /// rule could not anchor the finding to a single token).
    pub col: u32,
    /// The enclosing function (or the matched construct when no function
    /// encloses the site).
    pub symbol: String,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}:{} ({}): {}",
            self.severity.label(),
            self.rule,
            self.file,
            self.line,
            self.col,
            self.symbol,
            self.message
        )
    }
}

/// Escapes `s` for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl Finding {
    /// This finding as one self-contained JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"symbol\":\"{}\",\"message\":\"{}\"}}",
            json_escape(self.rule),
            self.severity.label(),
            json_escape(&self.file),
            self.line,
            self.col,
            json_escape(&self.symbol),
            json_escape(&self.message),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_grep_friendly() {
        let f = Finding {
            rule: "obs-hygiene",
            severity: Severity::Warning,
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            col: 1,
            symbol: "run".to_string(),
            message: "println! in library code".to_string(),
        };
        let s = f.to_string();
        assert!(s.contains("warning[obs-hygiene]"));
        assert!(s.contains("crates/x/src/lib.rs:7"));
    }

    #[test]
    fn json_escaping_handles_quotes_and_control() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn finding_json_is_parseable_shape() {
        let f = Finding {
            rule: "determinism",
            severity: Severity::Error,
            file: "f.rs".to_string(),
            line: 1,
            col: 1,
            symbol: "s".to_string(),
            message: "m \"quoted\"".to_string(),
        };
        let json = f.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"quoted\\\""));
    }
}
