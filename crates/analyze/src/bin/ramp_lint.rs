//! `ramp-lint`: the workspace invariant checker CLI.
//!
//! ```text
//! ramp-lint [--root DIR] [--format human|json|sarif]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error. The
//! JSON format is a single object suitable for CI artifact upload;
//! human format is grep-able one-line-per-finding; SARIF 2.1.0 is what
//! GitHub code scanning ingests.

use ramp_analyze::analyze_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
    Sarif,
}

const USAGE: &str = "usage: ramp-lint [--root DIR] [--format human|json|sarif]";

fn parse_args() -> Result<(PathBuf, Format), String> {
    let mut root = PathBuf::from(".");
    let mut format = Format::Human;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a directory")?),
            "--format" => {
                format = match args.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    _ => return Err("--format needs `human`, `json`, or `sarif`".to_string()),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((root, format))
}

fn main() -> ExitCode {
    let (root, format) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("ramp-lint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match analyze_workspace(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "ramp-lint: cannot analyze workspace at `{}`: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    match format {
        Format::Human => print!("{}", report.to_human()),
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", ramp_analyze::to_sarif(&report)),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
