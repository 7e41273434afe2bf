//! Layer probes for the traced run. Some layers are reachable only
//! through an enclosing call (generation and the engine inside
//! `run_study`, the second pass inside a query), so each probe calls the
//! layer's public function directly on the inputs the workload feeds it:
//! the same profiles, instruction budget, interval lengths, nodes and
//! `trace_repeats`.

use crate::spans::{SpanId, Tracer};
use crate::util::{median, quantile, timed};
use crate::workloads::{interval_cycles, ok_body, request_line, ProbeInputs, FLEET_BENCHMARK};
use ramp_core::mechanisms::standard_models;
use ramp_core::{OperatingPoint, PipelineConfig, RateAccumulator, TechNode};
use ramp_fleet::rng::chip_rng;
use ramp_fleet::{ChipSampler, VariationModel};
use ramp_microarch::{
    simulate, simulate_profile_cached, MachineConfig, PerStructure, SimulationLength,
};
use ramp_power::{DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel};
use ramp_serve::{ServeOptions, Server};
use ramp_thermal::{ThermalSimulator, ThermalState};
use ramp_trace::{BenchmarkProfile, TraceGenerator};
use ramp_units::{Kelvin, Seconds};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Keys the per-key probes (second pass, evaluate, serve) visit.
const MAX_PROBE_KEYS: usize = 64;
/// Timed warm lookups per timing-cache key.
const HIT_ROUNDS: usize = 20;
/// Chips sampled per node by the single-thread fleet probe.
const PROBE_CHIPS: u64 = 100_000;

pub type Values = BTreeMap<&'static str, f64>;

/// The keys the per-key probes visit.
pub fn probe_keys(inputs: &ProbeInputs) -> &[crate::workloads::Key] {
    &inputs.keys[..inputs.keys.len().min(MAX_PROBE_KEYS)]
}

/// Runs every probe; returns the probe metrics and the number of serve
/// responses that failed or disagreed between the computed and cached
/// path.
pub fn run_all(
    inputs: &ProbeInputs,
    seed: u64,
    threads: usize,
    tracer: &Tracer,
    parent: SpanId,
) -> (Values, u64) {
    let mut v = Values::new();
    let keys = probe_keys(inputs);
    tracer.scope("probe.trace_microarch", parent, |s| {
        generation_and_engine(inputs, tracer, s, &mut v);
    });
    tracer.scope("probe.timing_hit", parent, |s| {
        timing_hits(inputs, tracer, s, &mut v)
    });
    tracer.scope("probe.power_thermal_core", parent, |s| {
        second_pass(inputs, keys, tracer, s, &mut v);
    });
    let evaluate_ms = tracer.scope("probe.evaluate", parent, |s| {
        let mut ms = Vec::new();
        for key in keys {
            let mut query = inputs
                .engine
                .query(&key.benchmark, key.node)
                .expect("known benchmark");
            query.pipeline.trace_repeats = key.repeats;
            let call = tracer.begin("evaluate", s, 0);
            let (outcome, t) = timed(|| inputs.engine.evaluate(&query));
            tracer.end(call);
            outcome.expect("evaluation succeeds");
            ms.push(t * 1e3);
        }
        ms
    });
    v.insert("core.evaluate_p50_ms", median(&evaluate_ms));
    v.insert("core.evaluate_p99_ms", quantile(&evaluate_ms, 0.99));
    let failed = tracer.scope("probe.serve", parent, |s| {
        serve(
            inputs,
            keys,
            threads,
            median(&evaluate_ms),
            tracer,
            s,
            &mut v,
        )
    });
    tracer.scope("probe.fleet", parent, |s| {
        fleet(inputs, seed, tracer, s, &mut v)
    });
    (v, failed)
}

fn generation_and_engine(inputs: &ProbeInputs, tracer: &Tracer, parent: SpanId, v: &mut Values) {
    let machine = MachineConfig::power4_180nm();
    let budget = inputs.pipeline.instructions;
    let ics: BTreeSet<u64> = inputs.nodes.iter().map(|&n| interval_cycles(n)).collect();
    let (mut records, mut gen_s, mut instr, mut engine_s) = (0u64, 0.0, 0u64, 0.0);
    for profile in &inputs.profiles {
        let span = tracer.begin("generate", parent, 0);
        let (trace, t) = timed(|| {
            let mut trace = Vec::with_capacity(budget as usize);
            trace.extend(TraceGenerator::new(profile).take(budget as usize));
            trace
        });
        tracer.end(span);
        records += trace.len() as u64;
        gen_s += t;
        for &ic in &ics {
            let span = tracer.begin("simulate", parent, 0);
            let (out, t) = timed(|| {
                simulate(
                    &machine,
                    trace.iter().copied(),
                    SimulationLength::Instructions(budget),
                    ic,
                )
            });
            tracer.end(span);
            instr += black_box(out).stats.instructions;
            engine_s += t;
        }
    }
    v.insert("trace.gen_mrec_per_s", records as f64 / gen_s / 1e6);
    v.insert(
        "microarch.engine_minstr_per_s",
        instr as f64 / engine_s / 1e6,
    );
}

fn timing_hits(inputs: &ProbeInputs, tracer: &Tracer, parent: SpanId, v: &mut Values) {
    let machine = MachineConfig::power4_180nm();
    let length = SimulationLength::Instructions(inputs.pipeline.instructions);
    let ics: BTreeSet<u64> = inputs.nodes.iter().map(|&n| interval_cycles(n)).collect();
    let keys: Vec<(&BenchmarkProfile, u64)> = inputs
        .profiles
        .iter()
        .flat_map(|p| ics.iter().map(move |&ic| (p, ic)))
        .collect();
    for &(p, ic) in &keys {
        simulate_profile_cached(&machine, p, length, ic);
    }
    let mut us = Vec::with_capacity(keys.len() * HIT_ROUNDS);
    for _ in 0..HIT_ROUNDS {
        for &(p, ic) in &keys {
            let span = tracer.begin("timing_lookup", parent, 0);
            let t0 = Instant::now();
            black_box(simulate_profile_cached(&machine, p, length, ic));
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
        }
    }
    v.insert("microarch.timing_hit_us", median(&us));
}

/// The node's power model for a benchmark, built as the pipeline builds it.
fn power_model(profile: &BenchmarkProfile, node: &TechNode, cfg: &PipelineConfig) -> PowerModel {
    let reference = TechNode::reference();
    let scaling = DynamicScaling::new(
        node.capacitance_rel,
        node.vdd.ratio_to(reference.vdd),
        node.frequency.ratio_to(reference.frequency),
    )
    .expect("table scaling is valid");
    let leakage = LeakageModel::new(node.leakage_density, node.core_area(), cfg.leakage_beta)
        .expect("table leakage is valid");
    let residual = ramp_trace::spec::power_residual(&profile.name).unwrap_or(1.0);
    PowerModel::new(
        DynamicPowerModel::new(cfg.budgets.clone(), scaling),
        leakage,
        residual,
    )
    .expect("residual is positive")
}

/// Power sampling, the thermal solver and rate accumulation, on the
/// activity traces, nodes and repeat counts of the workload's keys.
fn second_pass(
    inputs: &ProbeInputs,
    keys: &[crate::workloads::Key],
    tracer: &Tracer,
    parent: SpanId,
    v: &mut Values,
) {
    let machine = MachineConfig::power4_180nm();
    let cfg = &inputs.pipeline;
    let models = standard_models();
    let (mut samples, mut power_s) = (0u64, 0.0);
    let (mut steps, mut step_s) = (0u64, 0.0);
    let (mut observed, mut observe_s) = (0u64, 0.0);
    let mut initial_us = Vec::new();
    for key in keys {
        let profile = ramp_trace::spec::profile(&key.benchmark).expect("known benchmark");
        let node = TechNode::get(key.node);
        let out = simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(cfg.instructions),
            interval_cycles(key.node),
        );
        let intervals = out.activity.intervals();
        let power = power_model(&profile, &node, cfg);
        let sim = ThermalSimulator::new(node.core_area(), cfg.thermal).expect("valid package");
        let start_temps = PerStructure::from_fn(|_| Kelvin::new_const(345.0));
        let avg = power
            .sample(&out.activity.average(), &start_temps)
            .per_structure_total();
        let span = tracer.begin("initial_state", parent, 0);
        let (state, t) = timed(|| sim.initial_state(&avg));
        tracer.end(span);
        initial_us.push(t * 1e6);
        let mut state: ThermalState = state.expect("steady state solves");
        let total_dt = 1e-6 * cfg.time_compression;
        let substeps = (total_dt / sim.network().max_stable_step().value())
            .ceil()
            .max(1.0) as u32;
        let dt = Seconds::new(total_dt / f64::from(substeps)).expect("positive step");

        // Walk the key's second pass once, untimed, to record each
        // layer's inputs; then time each layer alone on them.
        let mut power_in = Vec::new();
        let mut step_in = Vec::new();
        let mut ops = Vec::new();
        for _ in 0..key.repeats {
            for interval in intervals {
                power_in.push((interval.factors, state.structures));
                let sample = power.sample(&interval.factors, &state.structures);
                let watts = sample.per_structure_total();
                step_in.push((state, watts));
                state = sim.step_many(&state, &watts, dt, substeps);
                ops.push(PerStructure::from_fn(|s| {
                    OperatingPoint::new(state.structures[s], node.vdd, interval.factors[s])
                }));
            }
        }
        let span = tracer.begin("power.sample", parent, 0);
        let t0 = Instant::now();
        for (factors, temps) in &power_in {
            black_box(power.sample(factors, temps));
        }
        power_s += t0.elapsed().as_secs_f64();
        tracer.end(span);
        samples += power_in.len() as u64;

        let span = tracer.begin("thermal.step_many", parent, 0);
        let t0 = Instant::now();
        for (s, watts) in &step_in {
            black_box(sim.step_many(s, watts, dt, substeps));
        }
        step_s += t0.elapsed().as_secs_f64();
        tracer.end(span);
        steps += step_in.len() as u64;

        let span = tracer.begin("rates.observe", parent, 0);
        let mut acc = RateAccumulator::new(&models, node);
        let t0 = Instant::now();
        for op in &ops {
            acc.observe(op, 1.0);
        }
        observe_s += t0.elapsed().as_secs_f64();
        black_box(acc.finish());
        tracer.end(span);
        observed += ops.len() as u64;
    }
    v.insert("power.sample_per_s", samples as f64 / power_s);
    v.insert("thermal.step_many_per_s", steps as f64 / step_s);
    v.insert("thermal.initial_state_us", median(&initial_us));
    v.insert("core.observe_per_s", observed as f64 / observe_s);
}

/// Each key once through a fresh server (computed), then again at once
/// (cached: the entry was just inserted). Returns the failed count.
fn serve(
    inputs: &ProbeInputs,
    keys: &[crate::workloads::Key],
    threads: usize,
    evaluate_p50_ms: f64,
    tracer: &Tracer,
    parent: SpanId,
    v: &mut Values,
) -> u64 {
    let server = Server::start(
        inputs.engine.clone(),
        ServeOptions {
            threads,
            ..ServeOptions::default()
        },
    );
    let client = server.connect();
    let mut computed_ms = Vec::new();
    let mut cached_us = Vec::new();
    let mut failed = 0;
    for (i, key) in keys.iter().enumerate() {
        let line = request_line(i as u64 + 1, key);
        let span = tracer.begin("request.computed", parent, i as u64 + 1);
        let (first, t) = timed(|| client.request_line(&line).unwrap_or_default());
        tracer.end(span);
        computed_ms.push(t * 1e3);
        let span = tracer.begin("request.cached", parent, i as u64 + 1);
        let (second, t) = timed(|| client.request_line(&line).unwrap_or_default());
        tracer.end(span);
        cached_us.push(t * 1e6);
        match (ok_body(&first), ok_body(&second)) {
            (Some(a), Some(b)) if a == b => {}
            _ => failed += 1,
        }
    }
    drop(client);
    server.shutdown();
    v.insert("serve.cached_p50_us", median(&cached_us));
    v.insert("serve.cached_p99_us", quantile(&cached_us, 0.99));
    v.insert("serve.computed_p50_ms", median(&computed_ms));
    v.insert("serve.computed_p99_ms", quantile(&computed_ms, 0.99));
    v.insert("serve.overhead_ms", median(&computed_ms) - evaluate_p50_ms);
    failed
}

/// Anchor construction and single-thread chip sampling for gzip at the
/// workload's nodes.
fn fleet(inputs: &ProbeInputs, seed: u64, tracer: &Tracer, parent: SpanId, v: &mut Values) {
    let mut anchor_ms = Vec::new();
    let (mut chips, mut sample_s) = (0u64, 0.0);
    for (node_index, &node) in inputs.nodes.iter().enumerate() {
        let query = inputs
            .engine
            .query(FLEET_BENCHMARK, node)
            .expect("known benchmark");
        let span = tracer.begin("population_anchor", parent, 0);
        let (anchor, t) = timed(|| inputs.engine.population_anchor(&query));
        tracer.end(span);
        anchor_ms.push(t * 1e3);
        let sampler = ChipSampler::new(&anchor.expect("anchor builds"), VariationModel::default());
        let span = tracer.begin("sample_chip", parent, 0);
        let t0 = Instant::now();
        for chip in 0..PROBE_CHIPS {
            let mut rng = chip_rng(seed, node_index as u64, chip);
            black_box(sampler.sample_chip(&mut rng));
        }
        sample_s += t0.elapsed().as_secs_f64();
        tracer.end(span);
        chips += PROBE_CHIPS;
    }
    v.insert("fleet.anchor_ms", median(&anchor_ms));
    v.insert("fleet.sample_chips_per_s", chips as f64 / sample_s);
}
