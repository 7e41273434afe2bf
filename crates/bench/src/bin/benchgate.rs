//! Noise-aware benchmark gate over versioned `BENCH_<seq>.json` snapshots.
//!
//! ```text
//! benchgate --update                 # measure and append BENCH_<next>.json
//! benchgate --against BENCH_0001.json # gate this tree against a baseline
//! benchgate                          # gate against the latest snapshot
//! ```
//!
//! Flags:
//!
//! * `--against <file>` — baseline snapshot to gate against.
//! * `--update` — append a new snapshot instead of gating.
//! * `--samples <K>` — measured samples (median-of-K; default 3).
//! * `--smoke` — CI shape: K=1, no warmup, loose tolerances.
//! * `--tolerance <f>` — override the stage budget multiplier.
//! * `--dir <path>` — snapshot directory (default: current directory).
//! * `--emit <file>` — also write the candidate snapshot (CI artifact).
//!
//! When gating, the candidate runs at the baseline's worker-thread count
//! (`workload.threads`), so wall-clock rows compare like with like; the
//! report header states both sides' threads and CPU counts.
//!
//! Exit codes: 0 = gate passed (or snapshot written), 1 = gate failed
//! (per-stage delta report on stdout), 2 = usage or I/O error.

use ramp_bench::telemetry::{
    capture_snapshot, compare, latest_snapshot, load_snapshot, next_seq, reference_workload,
    render_report, run_harness, save_snapshot, snapshot_file_name, BenchSnapshot, GateConfig,
    HarnessOptions,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    against: Option<PathBuf>,
    update: bool,
    samples: Option<u32>,
    smoke: bool,
    tolerance: Option<f64>,
    dir: PathBuf,
    emit: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        against: None,
        update: false,
        samples: None,
        smoke: false,
        tolerance: None,
        dir: PathBuf::from("."),
        emit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--against" => args.against = Some(PathBuf::from(value("--against")?)),
            "--update" => args.update = true,
            "--samples" => {
                args.samples = Some(
                    value("--samples")?
                        .parse()
                        .map_err(|e| format!("--samples: {e}"))?,
                );
            }
            "--smoke" => args.smoke = true,
            "--tolerance" => {
                args.tolerance = Some(
                    value("--tolerance")?
                        .parse()
                        .map_err(|e| format!("--tolerance: {e}"))?,
                );
            }
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            "--emit" => args.emit = Some(PathBuf::from(value("--emit")?)),
            other => return Err(format!("unknown flag {other:?} (see the module docs)")),
        }
    }
    if args.update && args.against.is_some() {
        return Err("--update and --against are mutually exclusive".into());
    }
    Ok(args)
}

/// Resolves and loads the snapshot to gate against (`--against`, else the
/// latest in `--dir`); the error is the exit code to return.
fn load_baseline(args: &Args) -> Result<BenchSnapshot, ExitCode> {
    let baseline_path = match &args.against {
        Some(p) => p.clone(),
        None => match latest_snapshot(&args.dir) {
            Some((_, p)) => p,
            None => {
                eprintln!(
                    "benchgate: no BENCH_*.json in {}; create one with --update",
                    args.dir.display()
                );
                return Err(ExitCode::from(2));
            }
        },
    };
    load_snapshot(&baseline_path).map_err(|e| {
        eprintln!("benchgate: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut opts = if args.smoke {
        HarnessOptions::smoke()
    } else {
        HarnessOptions::default()
    };
    if let Some(k) = args.samples {
        opts.samples = k.max(1);
    }
    let mut gate = if args.smoke {
        GateConfig::smoke()
    } else {
        GateConfig::standard()
    };
    if let Some(t) = args.tolerance {
        gate.tolerance = t;
    }

    // Gating needs the baseline first: the candidate runs at its thread
    // count.
    let baseline = if args.update {
        None
    } else {
        match load_baseline(&args) {
            Ok(b) => Some(b),
            Err(code) => return code,
        }
    };
    let mut config = reference_workload();
    if let Some(b) = &baseline {
        config.threads = usize::try_from(b.workload.threads).unwrap_or(1).max(1);
    }

    eprintln!(
        "benchgate: measuring reference workload on {} thread(s) (median of {} sample{}{})...",
        config.threads,
        opts.samples,
        if opts.samples == 1 { "" } else { "s" },
        if opts.warmup { " after warmup" } else { "" },
    );
    let measurement = match run_harness(&config, &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "benchgate: {:.2}s median wall, cache hit rate {:.0}%, results digest {}",
        measurement.total.median_seconds,
        measurement.cache.hit_rate * 100.0,
        measurement.numerics.results_digest,
    );

    if let Some(path) = &args.emit {
        let candidate = capture_snapshot(&measurement, 0);
        if let Err(e) = save_snapshot(&candidate, path) {
            eprintln!("benchgate: --emit: {e}");
            return ExitCode::from(2);
        }
        eprintln!("benchgate: candidate snapshot written to {}", path.display());
    }

    if args.update {
        let seq = next_seq(&args.dir);
        let path = args.dir.join(snapshot_file_name(seq));
        let snapshot = capture_snapshot(&measurement, seq);
        if let Err(e) = save_snapshot(&snapshot, &path) {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
        println!("benchgate: baseline written to {}", path.display());
        return ExitCode::SUCCESS;
    }

    let Some(baseline) = baseline else {
        // Unreachable: gating always loaded a baseline above.
        return ExitCode::from(2);
    };
    let report = compare(&baseline, &measurement, &gate);
    print!("{}", render_report(&report));
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
