//! The repository benchmark. Usage:
//!
//! ```text
//! ramp-perfbench --workload <study|query_mix|fleet> --seed N --seconds S --trace 0|1
//!                [--git-rev REV] [--out FILE] [--spans-out FILE]
//! ramp-perfbench selftest
//! ```
//!
//! With `--trace 0` the run sets up three times (reporting the median
//! `setup_s`), repeats the workload's operation for `--seconds`, and
//! prints the end-to-end metrics. The gated times are process CPU
//! seconds: on a shared host the hypervisor steals a varying share of
//! wall time, which moves wall-clock figures several times more than CPU
//! time. Wall-clock figures are printed beside them and reported,
//! ungated, by the traced run. With `--trace 1` it sets up once,
//! repeats the operation untraced for half the window, runs the layer
//! probes, then repeats the operation as often again with spans on (the
//! benchmark's own spans plus the program's obs span ring), and prints
//! the per-layer metrics. The last stdout line is one JSON object; the
//! exit code is non-zero when any output digest or response disagrees.

mod probes;
mod spans;
mod util;
mod workloads;

use spans::{SpanId, Tracer, NONE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use util::{host_steal_s, median, peak_rss_mb, process_cpu_s, quantile, timed};
use workloads::{Fleet, OpSample, QueryMix, Study, Workload};

/// Worker threads for every workload: the reference machine's CPU count.
const THREADS: usize = 2;
/// The seed the pinned digests belong to.
const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest operations a measuring window may hold.
const MIN_OPS: usize = 3;

/// (name, unit) of every end-to-end metric, as listed in BENCHMARK.json.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("op_cpu_s", "s"), ("peak_rss_mb", "MB")];

/// (name, unit) of every per-layer metric, as listed in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 45] = [
    ("trace.records", "count"),
    ("trace.gen_mrec_per_s", "Mrec/s"),
    ("microarch.sims", "count"),
    ("microarch.instr_simulated", "count"),
    ("microarch.engine_minstr_per_s", "Minstr/s"),
    ("microarch.timing_busy_s", "s"),
    ("microarch.timing_cache_hit_ratio", "ratio"),
    ("microarch.timing_lookups", "count"),
    ("microarch.timing_hit_us", "us"),
    ("power.sample_per_s", "1/s"),
    ("thermal.step_many_per_s", "1/s"),
    ("thermal.initial_state_us", "us"),
    ("core.runs", "count"),
    ("core.intervals", "count"),
    ("core.structure_updates", "count"),
    ("core.first_pass_busy_s", "s"),
    ("core.second_pass_busy_s", "s"),
    ("core.observe_per_s", "1/s"),
    ("core.evaluate_p50_ms", "ms"),
    ("core.evaluate_p99_ms", "ms"),
    ("core.executor_utilization", "ratio"),
    ("serve.cached_p50_us", "us"),
    ("serve.cached_p99_us", "us"),
    ("serve.computed_p50_ms", "ms"),
    ("serve.computed_p99_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.lookups", "count"),
    ("serve.executions", "count"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
    ("serve.overloaded", "count"),
    ("serve.errors", "count"),
    ("fleet.chips", "count"),
    ("fleet.anchor_ms", "ms"),
    ("fleet.sample_chips_per_s", "1/s"),
    ("fleet.parallel_efficiency", "ratio"),
    ("obs.spans", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("ops_failed_frac", "ratio"),
    ("wall.setup_s", "s"),
    ("wall.op_p50_ms", "ms"),
    ("wall.op_p99_ms", "ms"),
    ("wall.op_samples", "count"),
    ("wall.work_per_s", "1/s"),
];

/// Counters that must repeat exactly from one operation to the next.
const EXACT: [&str; 6] = [
    "microarch.sims",
    "microarch.instr_simulated",
    "trace.records",
    "core.intervals",
    "core.structure_updates",
    "fleet.chips",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    out: Option<String>,
    spans_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        git_rev: "unknown".to_string(),
        out: None,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--git-rev" => args.git_rev = value()?,
            "--out" => args.out = Some(value()?),
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn make_workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "study" => Some(Box::new(Study::new(THREADS))),
        "query_mix" => Some(Box::new(QueryMix::new(seed, THREADS))),
        "fleet" => Some(Box::new(Fleet::new(seed, THREADS))),
        _ => None,
    }
}

/// One operation, with the process CPU time it used and the host time
/// stolen meanwhile.
fn run_op(w: &mut dyn Workload, tracer: &Tracer, parent: SpanId) -> OpSample {
    let (cpu, steal) = (process_cpu_s(), host_steal_s());
    let mut op = w.op(tracer, parent);
    op.cpu_s = process_cpu_s() - cpu;
    op.steal_s = host_steal_s() - steal;
    op
}

/// Repeats the operation until `window` seconds of operations have run
/// and at least `min_ops` completed.
fn measure(w: &mut dyn Workload, window: f64, min_ops: usize, tracer: &Tracer) -> Vec<OpSample> {
    let started = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < min_ops || started.elapsed().as_secs_f64() < window {
        ops.push(run_op(w, tracer, NONE));
    }
    ops
}

/// Operations whose output digest is not `expect`.
fn digest_mismatches(ops: &[OpSample], expect: &str) -> u64 {
    ops.iter().filter(|o| o.digest != expect).count() as u64
}

/// Figures of the measured operations: name -> (value, samples).
fn summarize(ops: &[OpSample], workload: &str) -> BTreeMap<&'static str, (f64, usize)> {
    let mut f = BTreeMap::new();
    let cpu: Vec<f64> = ops.iter().map(|o| o.cpu_s).collect();
    f.insert("op_cpu_s", (median(&cpu), ops.len()));
    let total_wall: f64 = ops.iter().map(|o| o.wall_s).sum();
    let total_work: f64 = ops.iter().map(|o| o.work).sum();
    f.insert("wall.work_per_s", (total_work / total_wall, ops.len()));
    // A query_mix operation is a round of requests; its latencies are
    // the requests'. The other workloads time whole operations.
    let lat: Vec<f64> = if workload == "query_mix" {
        ops.iter()
            .flat_map(|o| o.latencies_ms.iter().copied())
            .collect()
    } else {
        ops.iter().map(|o| o.wall_s * 1e3).collect()
    };
    f.insert("wall.op_p50_ms", (median(&lat), lat.len()));
    f.insert("wall.op_p99_ms", (quantile(&lat, 0.99), lat.len()));
    f
}

/// Per-layer values read from the untraced operations (medians across
/// them), plus whether each exact counter repeated.
fn layer_counters(ops: &[OpSample]) -> (probes::Values, BTreeMap<&'static str, bool>) {
    let mut per_op: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for o in ops {
        let c = &o.counters;
        let mut put = |k: &'static str, x: f64| per_op.entry(k).or_default().push(x);
        put("trace.records", c.trace_records as f64);
        put("microarch.sims", c.sims as f64);
        put("microarch.instr_simulated", c.instr_simulated as f64);
        put("microarch.timing_busy_s", c.timing_busy_s);
        put("microarch.timing_lookups", c.timing_lookups as f64);
        put(
            "microarch.timing_cache_hit_ratio",
            if c.timing_lookups > 0 {
                c.timing_hits as f64 / c.timing_lookups as f64
            } else {
                0.0
            },
        );
        put("core.runs", c.runs as f64);
        put("core.intervals", c.intervals as f64);
        put("core.structure_updates", c.structure_updates as f64);
        put("core.first_pass_busy_s", c.first_pass_busy_s);
        put("core.second_pass_busy_s", c.second_pass_busy_s);
        put(
            "core.executor_utilization",
            c.executor_busy_s / (o.wall_s * THREADS as f64),
        );
        put("fleet.chips", c.fleet_chips as f64);
        put("obs.spans", c.spans as f64);
        let s = c.serve.clone().unwrap_or_default();
        put(
            "serve.cache_hit_ratio",
            if s.lookups > 0 {
                s.cache_hits as f64 / s.lookups as f64
            } else {
                0.0
            },
        );
        put("serve.lookups", s.lookups as f64);
        put("serve.executions", s.executions as f64);
        put("serve.coalesced", s.coalesced as f64);
        put("serve.evictions", s.evictions as f64);
        put("serve.overloaded", s.overloaded as f64);
        put("serve.errors", s.errors as f64);
    }
    let exact = EXACT
        .iter()
        .map(|&k| (k, per_op[k].windows(2).all(|w| w[0] == w[1])))
        .collect();
    let values = per_op.iter().map(|(&k, xs)| (k, median(xs))).collect();
    (values, exact)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let mut w = make_workload(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (study, query_mix, fleet)",
            args.workload
        )
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let instructions = ramp_core::PipelineConfig::quick().instructions;
    let stamp = format!(
        "\"workload\":\"{}\",\"seed\":{},\"threads\":{THREADS},\"nproc\":{nproc},\"instructions\":{instructions},\"git_rev\":\"{}\"",
        args.workload, args.seed, args.git_rev
    );
    println!(
        "perfbench workload={} seed={} threads={THREADS} nproc={nproc} instructions={instructions} git_rev={} trace={}",
        args.workload,
        args.seed,
        args.git_rev,
        u8::from(args.trace)
    );
    let off = Tracer::new(false);
    let setup_reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_cpu, setup_wall): (Vec<f64>, Vec<f64>) = (0..setup_reps)
        .map(|_| {
            let cpu = process_cpu_s();
            let wall = timed(|| w.setup()).1;
            (process_cpu_s() - cpu, wall)
        })
        .unzip();
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_ops = if args.trace { 2 } else { MIN_OPS };
    let ops = measure(w.as_mut(), window, min_ops, &off);

    // The study has no seed, so its digest is pinned for every seed; the
    // other workloads are pinned at the default seed, and at any other
    // seed every operation must reproduce the run's first.
    let expect = if args.seed == DEFAULT_SEED || args.workload == "study" {
        w.pinned_digest().to_string()
    } else {
        ops[0].digest.clone()
    };
    let mismatches = digest_mismatches(&ops, &expect);
    let mut attempted: u64 = ops.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = ops.iter().map(|o| o.failed).sum::<u64>() + mismatches;
    let mut figures = summarize(&ops, &args.workload);
    figures.insert("setup_s", (median(&setup_cpu), setup_cpu.len()));
    figures.insert("wall.setup_s", (median(&setup_wall), setup_wall.len()));
    figures.insert("peak_rss_mb", (peak_rss_mb(), 1));
    let (mut layer, exact) = layer_counters(&ops);

    let mut metrics: Vec<(&str, &str, f64, usize)> = Vec::new();
    let mut report = String::new();
    if !args.trace {
        for (name, unit) in END_TO_END {
            let (value, n) = figures[name];
            metrics.push((name, unit, value, n));
        }
        // Wall-clock figures, under the names a reader of the workload
        // uses. They are not gated: host steal moves them run to run.
        let work = figures["wall.work_per_s"];
        let p50 = figures["wall.op_p50_ms"];
        let mut named = vec![("setup_wall_s", "s", figures["wall.setup_s"])];
        match args.workload.as_str() {
            "study" => named.push(("study_wall_s", "s", (p50.0 / 1e3, p50.1))),
            "query_mix" => {
                named.push(("query_rps", "1/s", work));
                named.push(("query_p50_ms", "ms", p50));
                named.push(("query_p99_ms", "ms", figures["wall.op_p99_ms"]));
            }
            _ => named.push(("fleet_chips_per_s", "1/s", work)),
        }
        let _ = writeln!(report, "wall clock (not gated):");
        for (name, unit, (value, n)) in named {
            let _ = writeln!(report, "  {name:<32} {value:>14.6} {unit:<8} n={n}");
        }
    } else {
        let on = Tracer::new(true);
        let root = on.begin("run", NONE, 0);
        let inputs = on.scope("probe.inputs", root, |_| w.probe_inputs());
        let (probe_values, probe_failed) = probes::run_all(&inputs, args.seed, THREADS, &on, root);
        failed += probe_failed;
        attempted += probes::probe_keys(&inputs).len() as u64;
        layer.extend(probe_values);

        // The traced half: the benchmark's spans plus the program's own
        // span ring, over as many operations as the untraced half.
        ramp_obs::install_trace(None, ramp_obs::DEFAULT_RING_CAPACITY);
        let traced: Vec<OpSample> = (0..ops.len())
            .map(|_| run_op(w.as_mut(), &on, root))
            .collect();
        on.end(root);
        failed += digest_mismatches(&traced, &expect);
        failed += traced.iter().map(|o| o.failed).sum::<u64>();
        attempted += traced.iter().map(|o| o.attempted).sum::<u64>();
        // Overhead in CPU time, which host load moves less than wall time.
        let untraced_cpu = figures["op_cpu_s"].0;
        let traced_cpu = median(&traced.iter().map(|o| o.cpu_s).collect::<Vec<_>>());
        let cpu_list = |ops: &[OpSample]| -> String {
            ops.iter()
                .map(|o| format!("{:.3}", o.cpu_s))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            report,
            "  CPU s per operation: untraced {}; traced {}",
            cpu_list(&ops),
            cpu_list(&traced)
        );
        layer.insert(
            "obs.trace_overhead_frac",
            (traced_cpu - untraced_cpu) / untraced_cpu,
        );
        let efficiency = if args.workload == "fleet" {
            figures["wall.work_per_s"].0 / (THREADS as f64 * layer["fleet.sample_chips_per_s"])
        } else {
            0.0
        };
        layer.insert("fleet.parallel_efficiency", efficiency);
        for name in [
            "wall.setup_s",
            "wall.op_p50_ms",
            "wall.op_p99_ms",
            "wall.work_per_s",
        ] {
            layer.insert(name, figures[name].0);
        }
        layer.insert("wall.op_samples", figures["wall.op_p99_ms"].1 as f64);
        layer.insert("ops_failed_frac", failed as f64 / attempted as f64);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layer[name], ops.len()));
        }
        // Shares of the layers reachable only inside an enclosing call,
        // from the probes' per-unit costs on the workload's inputs.
        let (gen, eng) = (
            1.0 / layer["trace.gen_mrec_per_s"],
            1.0 / layer["microarch.engine_minstr_per_s"],
        );
        let _ = writeln!(
            report,
            "  share of a timing simulation: trace generation {:.1}%, engine {:.1}%",
            100.0 * gen / (gen + eng),
            100.0 * eng / (gen + eng)
        );
        let (pw, th, ob) = (
            1.0 / layer["power.sample_per_s"],
            1.0 / layer["thermal.step_many_per_s"],
            1.0 / layer["core.observe_per_s"],
        );
        let _ = writeln!(
            report,
            "  share of a second-pass interval: power {:.1}%, thermal {:.1}%, rates {:.1}%",
            100.0 * pw / (pw + th + ob),
            100.0 * th / (pw + th + ob),
            100.0 * ob / (pw + th + ob)
        );
        let _ = writeln!(
            report,
            "  timing busy per operation: {:.3} s measured, {:.3} s predicted by the probes ({} instructions simulated)",
            layer["microarch.timing_busy_s"],
            layer["microarch.instr_simulated"] * 1e-6 * (gen + eng),
            layer["microarch.instr_simulated"]
        );
        let _ = writeln!(
            report,
            "  probed keys: {} of {} distinct",
            probes::probe_keys(&inputs).len(),
            inputs.keys.len()
        );
        let _ = writeln!(report, "  spans (name: count, total s, self s):");
        for (name, (count, total, self_s)) in on.self_times() {
            let _ = writeln!(
                report,
                "    {name:<28} {count:>7} {total:>10.4} {self_s:>10.4}"
            );
        }
        if let Some(path) = &args.spans_out {
            std::fs::write(path, on.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
    }

    let correct = failed == 0;
    println!(
        "metrics ({}):",
        if args.trace {
            "traced run, per layer"
        } else {
            "tracing off, end to end"
        }
    );
    for (name, unit, value, n) in &metrics {
        println!("  {name:<32} {value:>14.6} {unit:<8} n={n}");
    }
    print!("{report}");
    let exact_line: Vec<String> = exact
        .iter()
        .map(|(k, same)| {
            format!(
                "{k}={} ({})",
                layer[k],
                if *same { "exact" } else { "VARIED" }
            )
        })
        .collect();
    println!("work counters per operation: {}", exact_line.join(", "));
    let steal: f64 = ops.iter().map(|o| o.steal_s).sum();
    let wall: f64 = ops.iter().map(|o| o.wall_s).sum();
    println!(
        "host: {:.1}% of the CPU time in the measuring window was stolen by the hypervisor",
        100.0 * steal / (wall * nproc as f64)
    );
    println!(
        "digest={} (expected {expect}) ops={} attempted={attempted} failed={failed} ops_failed_frac={}",
        ops[0].digest,
        ops.len(),
        failed as f64 / attempted as f64
    );

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    if let Some(path) = &args.out {
        let samples: Vec<String> = metrics
            .iter()
            .map(|(name, _, _, n)| format!("\"{name}\":{n}"))
            .collect();
        let exact_json: Vec<String> = exact.iter().map(|(k, s)| format!("\"{k}\":{s}")).collect();
        let record = format!(
            "{{{stamp},\"trace\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"digest\":\"{}\",\"metrics\":{{{}}},\"samples\":{{{}}},\"exact\":{{{}}}}}\n",
            args.trace,
            ops[0].digest,
            metrics_json.join(","),
            samples.join(","),
            exact_json.join(",")
        );
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics_json.join(",")
    );
    Ok(correct)
}

/// Shrunk versions of each workload must give identical digests at one
/// and two threads; the shrunk study is the benchgate reference workload,
/// whose results digest is pinned repository-wide.
fn selftest() -> bool {
    const REFERENCE_DIGEST: &str = "874190a1ad3ea009";
    let mut ok = true;
    let mut check = |name: &str, digests: Vec<String>, expect: Option<&str>| {
        let same = digests.windows(2).all(|d| d[0] == d[1]);
        let pinned = expect.is_none_or(|e| digests[0] == e);
        let pass = same && pinned && !digests[0].starts_with("error") && !digests[0].is_empty();
        println!(
            "selftest {name}: {} digests at threads 1,2 = {}",
            if pass { "PASS" } else { "FAIL" },
            digests.join(", ")
        );
        ok &= pass;
    };
    let off = Tracer::new(false);

    let study: Vec<String> = [1, 2]
        .iter()
        .map(|&t| {
            ramp_microarch::clear_timing_cache();
            let mut cfg = ramp_core::StudyConfig::quick()
                .with_benchmarks(&["gzip", "vpr", "ammp", "apsi"])
                .expect("known benchmarks");
            cfg.pipeline.record_thermal_trace = true;
            cfg.pipeline.thermal_trace_stride = 50;
            cfg.threads = t;
            ramp_core::run_study(&cfg)
                .map_or_else(|e| format!("error: {e}"), |r| ramp_core::results_digest(&r))
        })
        .collect();
    check(
        "study (reference 4 benchmarks)",
        study,
        Some(REFERENCE_DIGEST),
    );

    let mix: Vec<String> = [1, 2]
        .iter()
        .map(|&t| {
            let mut w = QueryMix::with_size(DEFAULT_SEED, t, Some(&["gzip", "vpr"]), 2, 200, "");
            w.setup();
            let op = w.op(&off, NONE);
            if op.failed == 0 {
                op.digest
            } else {
                format!("error: {} failed", op.failed)
            }
        })
        .collect();
    check("query_mix (2 benchmarks, 200 requests)", mix, None);

    let fleet: Vec<String> = [1, 2]
        .iter()
        .map(|&t| {
            let mut w = Fleet::with_chips(DEFAULT_SEED, t, 20_000, "");
            w.setup();
            w.op(&off, NONE).digest
        })
        .collect();
    check("fleet (20k chips per node)", fleet, None);
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("selftest") {
        return if selftest() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
