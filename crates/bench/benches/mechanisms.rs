//! Criterion benchmarks of the RAMP failure models: single-mechanism rate
//! evaluation, the second pass's rate accumulation over a fixed
//! 1000-interval sequence, report
//! generation — the inner loop of the reliability engine — and the fleet's
//! per-chip kernel, which re-prices every mechanism once per sampled chip.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ramp_core::mechanisms::{standard_models, PerMechanism};
use ramp_core::{
    NodeId, OperatingPoint, PipelineConfig, Qualification, QueryEngine, RateAccumulator, TechNode,
};
use ramp_fleet::{chip_rng, ChipSampler, VariationModel};
use ramp_microarch::PerStructure;
use ramp_units::{ActivityFactor, Kelvin, Volts};

fn ops() -> PerStructure<OperatingPoint> {
    PerStructure::from_fn(|s| {
        OperatingPoint::new(
            Kelvin::new(345.0 + 3.0 * s.index() as f64).unwrap(),
            Volts::new(1.3).unwrap(),
            ActivityFactor::new(0.1 + 0.1 * s.index() as f64).unwrap(),
        )
    })
}

fn bench_single_rates(c: &mut Criterion) {
    let models = standard_models();
    let node = TechNode::reference();
    let point = ops()[ramp_microarch::Structure::Lsu];
    let mut group = c.benchmark_group("mechanism_rate");
    for model in models.iter() {
        group.bench_function(model.kind().label(), |b| {
            b.iter(|| black_box(model.relative_rate(black_box(&point), &node)));
        });
    }
    group.finish();
}

/// Intervals in one pass of the accumulator benchmark.
const OBSERVE_INTERVALS: usize = 1000;

/// A fixed operating-point sequence at `node`'s supply: temperatures
/// sweep 340–379 K and activities 0–1 (idle included) per structure.
fn interval_sequence(node: &TechNode) -> Vec<PerStructure<OperatingPoint>> {
    (0..OBSERVE_INTERVALS)
        .map(|i| {
            PerStructure::from_fn(|s| {
                let k = s.index();
                OperatingPoint::new(
                    Kelvin::new(340.0 + ((i * 7 + k * 13) % 40) as f64).unwrap(),
                    node.vdd,
                    ActivityFactor::new(((i * 3 + k * 5) % 11) as f64 / 10.0).unwrap(),
                )
            })
        })
        .collect()
}

fn bench_rate_accumulator_observe(c: &mut Criterion) {
    let models = standard_models();
    let mut group = c.benchmark_group("rate_accumulator_observe");
    group.throughput(Throughput::Elements(OBSERVE_INTERVALS as u64));
    for (label, id) in [("180nm", NodeId::N180), ("65nm", NodeId::N65HighV)] {
        let node = TechNode::get(id);
        let sequence = interval_sequence(&node);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = RateAccumulator::new(&models, node);
                for ops in &sequence {
                    acc.observe(black_box(ops), 1.0);
                }
                black_box(acc.finish())
            });
        });
    }
    group.finish();
}

fn bench_fit_report(c: &mut Criterion) {
    let models = standard_models();
    let node = TechNode::reference();
    let mut acc = RateAccumulator::new(&models, node);
    acc.observe(&ops(), 1.0);
    let rates = acc.finish();
    let qual = Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap();
    c.bench_function("fit_report_and_sofr_total", |b| {
        b.iter(|| {
            let report = qual.fit_report(black_box(&rates));
            black_box(report.total())
        });
    });
}

/// Chips sampled per node in one iteration of the fleet benchmark.
const FLEET_CHIPS: u64 = 10_000;

fn bench_fleet_sample_chip(c: &mut Criterion) {
    let engine = QueryEngine::with_qualification(
        Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
        PipelineConfig::quick(),
        "fleet-sample-chip-bench",
    );
    let samplers: Vec<ChipSampler> = NodeId::ALL
        .iter()
        .map(|&id| {
            let anchor = engine
                .population_anchor(&engine.query("gzip", id).unwrap())
                .unwrap();
            ChipSampler::new(&anchor, VariationModel::default())
        })
        .collect();
    let mut group = c.benchmark_group("fleet_sample_chip");
    group.throughput(Throughput::Elements(FLEET_CHIPS * samplers.len() as u64));
    group.bench_function("gzip_5_nodes_x_10k_chips", |b| {
        b.iter(|| {
            for (node, sampler) in (0u64..).zip(&samplers) {
                for chip in 0..FLEET_CHIPS {
                    black_box(sampler.sample_chip(&mut chip_rng(42, node, chip)));
                }
            }
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_single_rates, bench_rate_accumulator_observe, bench_fit_report, bench_fleet_sample_chip
}
criterion_main!(benches);
