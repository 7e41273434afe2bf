//! The paper's evaluation from one study run.
//!
//! Runs the full 16-benchmark × 5-node study (`StudyConfig::default()`)
//! once, logs its execution metrics, writes the run manifest, and prints
//! every result in EXPERIMENTS.md order: the headline claims, Tables 2–4,
//! Figures 2–5 and Table 1.
//!
//! ```text
//! paper [--csv <dir>] [--plot]
//! ```
//!
//! * `--csv <dir>` — also write apps.csv / worst_case.csv / nodes.csv.
//! * `--plot` — follow each Figure 2 and Figure 3 panel with an ASCII
//!   line chart of the same series.
//!
//! Exit codes: 0 = report printed, 1 = CSV export failed, 2 = usage error.

use ramp_bench::plot::{self, Series};
use ramp_core::mechanisms::{standard_models, MechanismKind};
use ramp_core::{
    run_study, AppNodeResult, NodeId, OperatingPoint, StudyConfig, StudyResults, TechNode,
};
use ramp_microarch::MachineConfig;
use ramp_trace::{spec, BenchmarkProfile, Suite};
use ramp_units::{ActivityFactor, Kelvin, Volts};
use std::fmt::{self, Display, Formatter};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: paper [--csv <dir>] [--plot]";

/// The two panels of Figures 2–4.
const PANELS: [(&str, Suite); 2] = [("(a)", Suite::Fp), ("(b)", Suite::Int)];

#[derive(Debug, Default, PartialEq)]
struct Args {
    csv: Option<PathBuf>,
    plot: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => {
                let dir = args.next().ok_or("--csv requires a directory")?;
                parsed.csv = Some(PathBuf::from(dir));
            }
            "--plot" => parsed.plot = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    ramp_bench::init_obs();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let config = StudyConfig::default();
    ramp_obs::info!(
        "running study with {} threads (set RAMP_THREADS to override)",
        config.threads
    );
    let results = run_study(&config).expect("study should run");
    ramp_bench::print_study_metrics(&results);
    ramp_bench::write_manifest(&config, &results);
    // Make the study's spans durable: rewrites the RAMP_TRACE Chrome
    // trace file (when configured) and flushes buffered sinks.
    ramp_obs::flush();

    if let Some(dir) = &args.csv {
        if let Err(e) = results.write_csv(dir) {
            ramp_obs::error!("csv export failed: {e}");
            return ExitCode::from(1);
        }
        ramp_obs::info!(
            "wrote apps.csv / worst_case.csv / nodes.csv to {}",
            dir.display()
        );
    }

    let report = Report {
        results: &results,
        plot: args.plot,
    };
    print!("{report}");
    ExitCode::SUCCESS
}

/// The report: every section in EXPERIMENTS.md order, separated by blank
/// lines.
struct Report<'a> {
    results: &'a StudyResults,
    plot: bool,
}

impl Display for Report<'_> {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let (results, plot) = (self.results, self.plot);
        headline(f, results)?;
        writeln!(f)?;
        table2(f)?;
        writeln!(f)?;
        table3(f, results)?;
        writeln!(f)?;
        table4(f, results)?;
        writeln!(f)?;
        figure2(f, results, plot)?;
        writeln!(f)?;
        figure3(f, results, plot)?;
        writeln!(f)?;
        figure4(f, results)?;
        writeln!(f)?;
        figure5(f, results)?;
        writeln!(f)?;
        table1(f)
    }
}

/// The rows of one app × node panel: a series per benchmark of `suite`,
/// then a `footer` series (worst case or heat sink).
fn panel_rows(
    results: &StudyResults,
    suite: Suite,
    app: impl Fn(&AppNodeResult) -> f64,
    footer: &str,
    per_node: impl Fn(NodeId) -> f64,
) -> Vec<Series> {
    let cell = |name: &str, id| {
        app(results
            .result(name, id)
            .expect("study covers all app/node pairs"))
    };
    let mut rows: Vec<Series> = spec::suite_profiles(suite)
        .into_iter()
        .map(|p| Series {
            values: NodeId::ALL.map(|id| cell(&p.name, id)).to_vec(),
            label: p.name,
        })
        .collect();
    rows.push(Series {
        label: footer.into(),
        values: NodeId::ALL.map(per_node).to_vec(),
    });
    rows
}

/// Writes one app-rows × node-columns panel of Figures 2, 3 and 5, every
/// cell to `precision` decimals; with a `chart` height, a blank line and
/// the same series as a line chart follow.
fn write_panel(
    f: &mut Formatter<'_>,
    title: &str,
    rows: &[Series],
    precision: usize,
    chart: Option<usize>,
) -> fmt::Result {
    writeln!(f, "{title}")?;
    write!(f, "{:<10}", "app")?;
    for id in NodeId::ALL {
        write!(f, " {:>12}", id.label())?;
    }
    writeln!(f)?;
    for row in rows {
        write!(f, "{:<10}", row.label)?;
        for v in &row.values {
            write!(f, " {v:>12.precision$}")?;
        }
        writeln!(f)?;
    }
    match chart {
        Some(height) => {
            let labels = NodeId::ALL.map(NodeId::label);
            write!(f, "\n{}", plot::render(&labels, rows, height))
        }
        None => Ok(()),
    }
}

fn worst_case_fit(results: &StudyResults, id: NodeId, mechanism: Option<MechanismKind>) -> f64 {
    let fit = &results.worst_case(id).expect("worst case per node").fit;
    mechanism
        .map_or(fit.total(), |m| fit.mechanism_total(m))
        .value()
}

/// The summary table and the headline comparisons against the paper.
fn headline(f: &mut Formatter<'_>, results: &StudyResults) -> fmt::Result {
    writeln!(f, "{}", results.summary())?;

    f.write_str("--- headline vs paper ---\n")?;
    let base = NodeId::N180;
    for (label, node) in [
        ("65nm(0.9V)", NodeId::N65LowV),
        ("65nm(1.0V)", NodeId::N65HighV),
    ] {
        for suite in [Suite::Fp, Suite::Int] {
            let b = results.average_total_fit(suite, base);
            let s = results.average_total_fit(suite, node);
            writeln!(
                f,
                "{label} {suite}: total FIT {:+.0}%  (paper: 0.9V +70/+86, 1.0V +274/+357)",
                s.percent_increase_over(b)
            )?;
        }
    }
    writeln!(f)?;
    for m in MechanismKind::ALL {
        for suite in [Suite::Fp, Suite::Int] {
            let b = results.average_mechanism_fit(suite, base, m);
            let lo = results.average_mechanism_fit(suite, NodeId::N65LowV, m);
            let hi = results.average_mechanism_fit(suite, NodeId::N65HighV, m);
            writeln!(
                f,
                "{m:<4} {suite}: 0.9V {:+.0}%, 1.0V {:+.0}%",
                lo.percent_increase_over(b),
                hi.percent_increase_over(b)
            )?;
        }
    }
    f.write_str("(paper: EM +97/128, +303/447 | SM +43/52, +76/106 | TDDB +106/127, +667/812 | TC +32/36, +52/66)\n")?;
    writeln!(f)?;
    for node in NodeId::ALL {
        let avg_max_fp = results.average_max_temperature(Suite::Fp, node);
        let avg_max_int = results.average_max_temperature(Suite::Int, node);
        writeln!(
            f,
            "{:<12} avg max temp FP {:.1} INT {:.1}  sink {:.1}  wc-margins: vs-max {:.0}% vs-avg {:.0}%  range {:.0} FIT ({:.0}% of avg)",
            node.label(),
            avg_max_fp.value(),
            avg_max_int.value(),
            results.average_sink_temperature(node).value(),
            results.worst_case_margin_over_max(node).expect("node present"),
            results.worst_case_margin_over_average(node).expect("node present"),
            results.fit_range(node),
            results.fit_range(node) / results.overall_average_fit(node).value() * 100.0,
        )?;
    }
    f.write_str("(paper: +15K max temp 180→65(1.0V); wc-vs-max 25%→90%; wc-vs-avg 67%→206%; range 62%→104% of avg)\n")
}

/// Table 2: the base 180 nm POWER4-like processor configuration, in the
/// paper's layout.
fn table2(f: &mut Formatter<'_>) -> fmt::Result {
    let cfg = MachineConfig::power4_180nm();
    let node = TechNode::reference();

    f.write_str("Table 2. Base 180nm POWER4-like processor.\n\n")?;
    f.write_str("Technology Parameters\n")?;
    writeln!(f, "  Process technology             {}", node.feature)?;
    writeln!(f, "  Vdd                            {}", node.vdd)?;
    writeln!(f, "  Processor frequency            {}", node.frequency)?;
    writeln!(
        f,
        "  Processor core size            {} (9mm x 9mm), excluding L2",
        node.core_area()
    )?;
    writeln!(
        f,
        "  Leakage power density at 383K  {}",
        node.leakage_density
    )?;
    f.write_str("\nBase Processor Parameters\n")?;
    writeln!(
        f,
        "  Fetch rate                     {} per cycle",
        cfg.fetch_width
    )?;
    writeln!(
        f,
        "  Retirement rate                1 dispatch-group (={}, max)",
        cfg.retire_width
    )?;
    writeln!(
        f,
        "  Functional units               {} Int, {} FP, {} Load-Store, {} Branch, {} LCR",
        cfg.int_units, cfg.fp_units, cfg.ls_units, cfg.branch_units, cfg.cr_units
    )?;
    writeln!(
        f,
        "  Integer FU latencies           {}/{}/{} add/multiply/divide",
        cfg.int_alu_latency, cfg.int_mul_latency, cfg.int_div_latency
    )?;
    writeln!(
        f,
        "  FP FU latencies                {} default, {} divide",
        cfg.fp_latency, cfg.fp_div_latency
    )?;
    writeln!(f, "  Reorder buffer size            {}", cfg.rob_entries)?;
    writeln!(
        f,
        "  Register file size             {} integer, {} FP",
        cfg.int_regs, cfg.fp_regs
    )?;
    writeln!(
        f,
        "  Memory queue size              {} entries",
        cfg.mem_queue
    )?;
    f.write_str("\nBase Memory Hierarchy Parameters\n")?;
    writeln!(
        f,
        "  L1 D/L1 I/L2 unified           {}KB/{}KB/{}MB",
        cfg.l1d.bytes >> 10,
        cfg.l1i.bytes >> 10,
        cfg.l2.bytes >> 20
    )?;
    f.write_str("Base Contentionless Memory Latencies\n")?;
    writeln!(
        f,
        "  L1 D/L2/Main memory            {}/{}/{} cycles",
        cfg.l1d.hit_latency, cfg.l2.hit_latency, cfg.memory_latency
    )
}

/// One suite's half of a Table 3 row: IPC and power, each beside the
/// paper's value.
fn table3_half(name: &str, ipc: f64, paper_ipc: f64, power: f64, paper_power: f64) -> String {
    format!("{name:<10} {ipc:>6.2} {paper_ipc:>6.2} | {power:>9.2} {paper_power:>9.2}")
}

/// Table 3: per-benchmark IPC and average total power (dynamic + leakage)
/// at 180 nm, beside the paper's published values.
fn table3(f: &mut Formatter<'_>, results: &StudyResults) -> fmt::Result {
    f.write_str("Table 3. Average IPC and power for the 180nm base processor.\n\n")?;
    writeln!(
        f,
        "{:<10} {:>6} {:>6} | {:>9} {:>9}    {:<10} {:>6} {:>6} | {:>9} {:>9}",
        "SpecFP", "IPC", "pub", "power(W)", "pub", "SpecInt", "IPC", "pub", "power(W)", "pub"
    )?;

    let app = |p: &BenchmarkProfile| {
        let r = results
            .result(&p.name, NodeId::N180)
            .expect("study covers all benchmarks");
        let power = r.avg_total_power().value();
        table3_half(&p.name, r.ipc, p.published.ipc, power, p.published.power_w)
    };
    let int = spec::suite_profiles(Suite::Int);
    for (fp, int) in spec::suite_profiles(Suite::Fp).iter().zip(&int) {
        writeln!(f, "{}    {}", app(fp), app(int))?;
    }

    let average = |suite: Suite, paper_ipc: f64, paper_power: f64| {
        let rs = results.suite_results(suite, NodeId::N180);
        let mean =
            |x: fn(&AppNodeResult) -> f64| rs.iter().map(|r| x(r)).sum::<f64>() / rs.len() as f64;
        let power = mean(|r| r.avg_total_power().value());
        table3_half("Average", mean(|r| r.ipc), paper_ipc, power, paper_power)
    };
    let fp_avg = average(Suite::Fp, 1.52, 28.51);
    writeln!(f, "{fp_avg}    {}", average(Suite::Int, 1.79, 29.66))?;
    f.write_str("\n(`pub` columns are the paper's Table-3 values.)\n")
}

/// Table 4: the scaled technology parameters, with the simulated average
/// total power and relative power density (outputs of the paper's flow,
/// not inputs).
fn table4(f: &mut Formatter<'_>, results: &StudyResults) -> fmt::Result {
    f.write_str("Table 4. Scaled parameters used (last two columns simulated).\n\n")?;
    writeln!(
        f,
        "{:<12} {:>5} {:>6} {:>7} {:>7} {:>6} {:>8} {:>9} {:>11} {:>10}",
        "Tech gen",
        "Vdd",
        "f GHz",
        "RelCap",
        "RelArea",
        "tox Å",
        "J mA/µm²",
        "leak W/mm²",
        "avg power W",
        "rel dens"
    )?;

    let average_power = |node: NodeId| {
        let rs: Vec<_> = results
            .app_results()
            .iter()
            .filter(|r| r.node == node)
            .collect();
        rs.iter().map(|r| r.avg_total_power().value()).sum::<f64>() / rs.len() as f64
    };
    let reference_density =
        average_power(NodeId::N180) / TechNode::get(NodeId::N180).core_area().value();

    for &id in &NodeId::ALL {
        let node = TechNode::get(id);
        let power = average_power(id);
        let density = power / node.core_area().value();
        writeln!(
            f,
            "{:<12} {:>5.1} {:>6.2} {:>7.2} {:>7.2} {:>6.0} {:>8.1} {:>9.2} {:>11.1} {:>10.2}",
            node.id.label(),
            node.vdd.value(),
            node.frequency.value(),
            node.capacitance_rel,
            node.area_rel,
            node.tox.value(),
            node.j_max.value(),
            node.leakage_density.value(),
            power,
            density / reference_density,
        )?;
    }
    f.write_str("\npaper avg power:   29.1 / 19.0 / 14.7 / 14.4 / 16.9 W\n")?;
    f.write_str("paper rel density:  1.0 / 1.31 / 2.02 / 3.09 / 3.63\n")
}

/// Figure 2: the maximum temperature reached by any structure, per
/// application and node, plus the (constant) average heat-sink
/// temperature. The paper's two panels become two tables.
fn figure2(f: &mut Formatter<'_>, results: &StudyResults, plot: bool) -> fmt::Result {
    for (panel, suite) in PANELS {
        let rows = panel_rows(
            results,
            suite,
            |r| r.max_temperature().value(),
            "heat sink",
            |id| results.average_sink_temperature(id).value(),
        );
        let title = format!("Figure 2 {panel} {suite}: max structure temperature (K)");
        write_panel(f, &title, &rows, 1, plot.then_some(16))?;
        writeln!(f)?;
    }

    let delta_fp = results.average_max_temperature(Suite::Fp, NodeId::N65HighV)
        - results.average_max_temperature(Suite::Fp, NodeId::N180);
    let delta_int = results.average_max_temperature(Suite::Int, NodeId::N65HighV)
        - results.average_max_temperature(Suite::Int, NodeId::N180);
    writeln!(
        f,
        "hottest-structure rise 180nm -> 65nm (1.0V): SpecFP +{delta_fp:.1} K, SpecInt +{delta_int:.1} K (paper: ~+15 K average)"
    )
}

/// Figure 3: total processor FIT per application and node, plus the
/// worst-case (`max`) curve from the highest temperature and activity
/// any application reaches; then how much of a worst-case budget the
/// average application uses.
fn figure3(f: &mut Formatter<'_>, results: &StudyResults, plot: bool) -> fmt::Result {
    for (panel, suite) in PANELS {
        let rows = panel_rows(
            results,
            suite,
            |r| r.fit.total().value(),
            "max",
            |id| worst_case_fit(results, id, None),
        );
        let title = format!("Figure 3 {panel} {suite}: total processor FIT");
        write_panel(f, &title, &rows, 0, plot.then_some(18))?;
        writeln!(f)?;
    }

    f.write_str("workload dependence (paper §5.2):\n")?;
    for id in [NodeId::N180, NodeId::N65LowV, NodeId::N65HighV] {
        writeln!(
            f,
            "  {:<12} worst-case vs hottest app {:+.0}%  vs average {:+.0}%  app range {:.0} FIT ({:.0}% of average)",
            id.label(),
            results.worst_case_margin_over_max(id).expect("node present"),
            results
                .worst_case_margin_over_average(id)
                .expect("node present"),
            results.fit_range(id),
            results.fit_range(id) / results.overall_average_fit(id).value() * 100.0,
        )?;
    }
    f.write_str(
        "(paper: margins 25%→90% and 67%→206%; range 2479 FIT (62%) → 17272 FIT (104%))\n\n",
    )?;

    // If the design must meet 4000 FIT at the worst-case operating point,
    // how much of that budget does the average application use?
    f.write_str("=== ablation 3: worst-case vs expected-case qualification ===\n")?;
    for node in [NodeId::N180, NodeId::N65HighV] {
        let wc = worst_case_fit(results, node, None);
        let avg = results.overall_average_fit(node).value();
        writeln!(
            f,
            "  {:<12} worst-case {:.0} FIT, average app {:.0} FIT → typical workload uses {:.0}% of a worst-case budget",
            node.label(),
            wc,
            avg,
            avg / wc * 100.0
        )?;
    }
    f.write_str("  Worst-case qualification over-designs for every real workload —\n")?;
    f.write_str("  the paper's case for dynamic reliability management.\n")
}

/// Figure 4: suite-average FIT per node, broken down by mechanism.
fn figure4(f: &mut Formatter<'_>, results: &StudyResults) -> fmt::Result {
    for (panel, suite) in PANELS {
        writeln!(
            f,
            "Figure 4 {panel} {suite}: suite-average FIT by mechanism"
        )?;
        write!(f, "{:<12}", "node")?;
        for m in MechanismKind::ALL {
            write!(f, " {:>8}", m.label())?;
        }
        writeln!(f, " {:>8}  {:>6}", "total", "Δ/180")?;
        let base = results.average_total_fit(suite, NodeId::N180);
        for id in NodeId::ALL {
            write!(f, "{:<12}", id.label())?;
            for m in MechanismKind::ALL {
                let fit = results.average_mechanism_fit(suite, id, m);
                write!(f, " {:>8.0}", fit.value())?;
            }
            let total = results.average_total_fit(suite, id);
            let growth = total.percent_increase_over(base);
            writeln!(f, " {:>8.0}  {growth:>+5.0}%", total.value())?;
        }
        writeln!(f)?;
    }
    f.write_str(
        "paper: total FIT rises +274% (SpecFP) / +357% (SpecInt) from 180nm to 65nm (1.0V),\n",
    )?;
    f.write_str(
        "       +70% / +86% to 65nm (0.9V); SpecInt sits above SpecFP at every scaled node.\n",
    )
}

/// Figure 5: FIT per mechanism, application and node, with each
/// mechanism's worst-case (`max`) curve — the paper's eight panels as
/// eight tables.
fn figure5(f: &mut Formatter<'_>, results: &StudyResults) -> fmt::Result {
    for m in MechanismKind::ALL {
        for suite in [Suite::Fp, Suite::Int] {
            let rows = panel_rows(
                results,
                suite,
                |r| r.fit.mechanism_total(m).value(),
                "max",
                |id| worst_case_fit(results, id, Some(m)),
            );
            write_panel(f, &format!("Figure 5: {m} FIT, {suite}"), &rows, 0, None)?;
            let base = results.average_mechanism_fit(suite, NodeId::N180, m);
            let low = results.average_mechanism_fit(suite, NodeId::N65LowV, m);
            let high = results.average_mechanism_fit(suite, NodeId::N65HighV, m);
            writeln!(
                f,
                "{:<10} 180→65nm: {:+.0}% (0.9V), {:+.0}% (1.0V)\n",
                "avg",
                low.percent_increase_over(base),
                high.percent_increase_over(base)
            )?;
        }
    }
    f.write_str("paper (FP/INT): EM +97/128% (0.9V) +303/447% (1.0V); SM +43/52%, +76/106%;\n")?;
    f.write_str("                TDDB +106/127%, +667/812%; TC +32/36%, +52/66%\n")
}

fn op(t: f64, v: f64) -> OperatingPoint {
    OperatingPoint::new(
        Kelvin::new(t).expect("valid test temperature"),
        Volts::new(v).expect("valid test voltage"),
        ActivityFactor::new(0.4).expect("valid activity"),
    )
}

/// Table 1, quantified: the multiplicative change in each mechanism's
/// failure rate per +10 K, per +0.1 V, and from the 65 nm feature-size
/// terms alone, at one representative operating point.
fn table1(f: &mut Formatter<'_>) -> fmt::Result {
    let n180 = TechNode::reference();
    let n65 = TechNode::get(NodeId::N65HighV);
    let t0 = 356.0;
    let v0 = 1.3;

    f.write_str("Table 1 (quantified): sensitivity of each failure-rate model\n")?;
    writeln!(f, "at T = {t0} K, V = {v0} V, p = 0.4, 180nm reference.\n")?;
    writeln!(
        f,
        "{:<6} {:>14} {:>14} {:>18}",
        "mech", "x per +10K", "x per +0.1V", "x feature terms*"
    )?;
    let mut temp_sens = Vec::new();
    for model in standard_models().iter() {
        let base = model.relative_rate(&op(t0, v0), &n180);
        let hot = model.relative_rate(&op(t0 + 10.0, v0), &n180) / base;
        let volt = model.relative_rate(&op(t0, v0 + 0.1), &n180) / base;
        // Feature-size terms isolated: same op point, 65 nm node.
        let scaled = model.relative_rate(&op(t0, v0), &n65) / base;
        let kind = model.kind();
        writeln!(
            f,
            "{:<6} {hot:>14.3} {volt:>14.3} {scaled:>18.3}",
            kind.label()
        )?;
        temp_sens.push((kind, hot));
    }
    f.write_str("\n*feature terms = rate at 65nm (1.0V node parameters) / rate at 180nm,\n")?;
    f.write_str(" holding temperature, voltage, and activity fixed — i.e. the w·h (EM),\n")?;
    f.write_str(" t_ox & gate-area (TDDB) columns of the paper's Table 1. SM and TC\n")?;
    f.write_str(" show 1.0 there, exactly as the paper's empty cells indicate.\n\n")?;
    f.write_str(
        "Temperature column ordering check (paper: TDDB strongest, then EM/SM, TC gentlest):\n",
    )?;
    temp_sens.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (kind, s) in temp_sens {
        writeln!(f, "  {kind}: x{s:.3} per +10K")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn only_csv_and_plot_are_accepted() {
        let both = parse(&["--plot", "--csv", "out"]).expect("both flags parse");
        assert_eq!((both.csv, both.plot), (Some(PathBuf::from("out")), true));
        assert_eq!(parse(&[]), Ok(Args::default()));
        assert!(parse(&["--csv"]).is_err(), "--csv needs its directory");
        for unknown in ["--full", "--config", "-h"] {
            assert!(parse(&[unknown]).expect_err(unknown).contains(unknown));
        }
    }

    #[test]
    fn report_has_every_table_and_figure_with_every_app() {
        let results = run_study(&StudyConfig::quick()).expect("quick study");
        let report = Report {
            results: &results,
            plot: true,
        }
        .to_string();
        let lines: Vec<&str> = report.lines().collect();

        let tables = [
            "Table 1 (quantified)",
            "Table 2. ",
            "Table 3. ",
            "Table 4. ",
        ];
        let mut headings = vec!["--- headline vs paper ---".into(), "=== ablation 3:".into()];
        headings.extend(tables.map(String::from));
        for (panel, suite) in PANELS {
            let figures = ["Figure 2", "Figure 3", "Figure 4"];
            headings.extend(figures.map(|fig| format!("{fig} {panel} {suite}:")));
            headings.extend(MechanismKind::ALL.map(|m| format!("Figure 5: {m} FIT, {suite}")));
        }
        for heading in &headings {
            let count = lines.iter().filter(|l| l.starts_with(heading.as_str()));
            assert_eq!(count.count(), 1, "{heading}");
        }

        // Every app × node panel lists its suite's benchmarks in order,
        // then its footer row.
        let first_word = |i: usize| lines[i].split_whitespace().next().unwrap_or("");
        let panels: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("app "))
            .collect();
        assert_eq!(panels.len(), 12);
        for i in panels {
            let fp = lines[i - 1].contains("SpecFP");
            let suite = if fp { Suite::Fp } else { Suite::Int };
            let names: Vec<String> = spec::suite_profiles(suite)
                .into_iter()
                .map(|p| p.name)
                .collect();
            assert_eq!(names.len(), 8);
            let rows: Vec<&str> = (i + 1..=i + 8).map(first_word).collect();
            assert_eq!(rows, names, "{}", lines[i - 1]);
            assert!(
                ["max", "heat"].contains(&first_word(i + 9)),
                "{}",
                lines[i - 1]
            );
        }
        let charts = lines.iter().filter(|l| l.trim_start().starts_with("a = "));
        assert_eq!(charts.count(), 4, "one chart per Figure 2 and 3 panel");

        // Table 3 pairs the two suites' benchmarks row by row.
        let t3 = lines
            .iter()
            .position(|l| l.starts_with("SpecFP "))
            .expect("Table 3");
        let int = spec::suite_profiles(Suite::Int);
        for (row, (fp, int)) in spec::suite_profiles(Suite::Fp).iter().zip(&int).enumerate() {
            let cells: Vec<&str> = lines[t3 + 1 + row].split_whitespace().collect();
            assert_eq!((cells[0], cells[6]), (fp.name.as_str(), int.name.as_str()));
        }
    }
}
