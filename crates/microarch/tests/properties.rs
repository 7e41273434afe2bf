//! Property-based tests of the timing simulator's architectural
//! invariants over randomly generated instruction streams.

use proptest::prelude::*;
use ramp_microarch::{
    simulate, simulate_intervals, simulate_profile_cached, Engine, MachineConfig, SimulationLength,
    Structure,
};
use ramp_trace::{BranchInfo, MemRef, TraceRecord, ALL_OP_CLASSES};

/// Strategy: a random but architecturally well-formed trace record.
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0usize..ALL_OP_CLASSES.len(),
        0u64..4096,
        proptest::option::of(0u8..72),
        proptest::option::of(0u8..72),
        0u8..72,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(op_idx, pc_slot, src0, src1, dst, addr, taken)| {
            let op = ALL_OP_CLASSES[op_idx];
            let pc = 0x10_0000 + pc_slot * 4;
            let mut rec = TraceRecord::new(pc, op).with_sources([src0, src1]);
            if op.writes_register() {
                rec = rec.with_dest(Some(dst));
            }
            if op.is_memory() {
                rec = rec.with_mem(MemRef {
                    addr: 0x1000_0000 + (addr % (1 << 22)),
                    size: 8,
                });
            }
            if op.is_branch() {
                rec = rec.with_branch(BranchInfo {
                    taken,
                    target: 0x10_0000 + (addr % 4096) * 4,
                });
            }
            rec
        })
}

/// Source registers must have been written earlier for the run to be
/// architecturally sensible; rewrite sources to a previously written
/// register (or drop them).
fn close_dataflow(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    let mut written: Vec<u8> = Vec::new();
    for rec in &mut records {
        let fix = |src: Option<u8>, written: &Vec<u8>| -> Option<u8> {
            src.and_then(|s| {
                if written.is_empty() {
                    None
                } else {
                    Some(written[s as usize % written.len()])
                }
            })
        };
        let srcs = rec.sources();
        *rec = rec.with_sources([fix(srcs[0], &written), fix(srcs[1], &written)]);
        if let Some(d) = rec.dest() {
            written.push(d);
        }
    }
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine never panics, retires everything, and respects the
    /// machine's architectural throughput bound on any well-formed trace.
    #[test]
    fn engine_total_on_arbitrary_traces(
        raw in proptest::collection::vec(arb_record(), 200..2_000)
    ) {
        let records = close_dataflow(raw);
        let cfg = MachineConfig::power4_180nm();
        let mut engine = Engine::new(&cfg, 1_000);
        for rec in &records {
            engine.step(rec);
        }
        let out = engine.finish();
        prop_assert_eq!(out.stats.instructions, records.len() as u64);
        let ipc = out.stats.ipc();
        prop_assert!(ipc > 0.0);
        prop_assert!(
            ipc <= f64::from(cfg.retire_width),
            "ipc {ipc} exceeds retire width"
        );
        // Activity factors are always within the unit interval.
        for record in out.activity.intervals() {
            for s in Structure::ALL {
                let p = record.factors[s].value();
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    /// Cutting a trace short never increases total cycles: simulation
    /// progress is monotone in trace length.
    #[test]
    fn cycles_monotone_in_trace_length(
        raw in proptest::collection::vec(arb_record(), 400..800)
    ) {
        let records = close_dataflow(raw);
        let cfg = MachineConfig::power4_180nm();
        let run = |n: usize| {
            let mut engine = Engine::new(&cfg, 1_000);
            for rec in &records[..n] {
                engine.step(rec);
            }
            engine.finish().stats.cycles
        };
        let half = run(records.len() / 2);
        let full = run(records.len());
        prop_assert!(full >= half);
    }

    /// Doubling every functional unit and width can only help (or leave
    /// unchanged) any workload's cycle count.
    #[test]
    fn wider_machine_is_never_slower(
        raw in proptest::collection::vec(arb_record(), 300..900)
    ) {
        let records = close_dataflow(raw);
        let base = MachineConfig::power4_180nm();
        let mut wide = base.clone();
        wide.int_units *= 2;
        wide.fp_units *= 2;
        wide.ls_units *= 2;
        wide.branch_units *= 2;
        wide.cr_units *= 2;
        wide.dispatch_width *= 2;
        wide.retire_width *= 2;
        wide.rob_entries *= 2;
        wide.int_regs = 32 + (wide.int_regs - 32) * 2;
        wide.fp_regs = 32 + (wide.fp_regs - 32) * 2;
        wide.mem_queue *= 2;
        wide.miss_registers *= 2;
        let run = |cfg: &MachineConfig| {
            let mut engine = Engine::new(cfg, 1_000);
            for rec in &records {
                engine.step(rec);
            }
            engine.finish().stats.cycles
        };
        let slow = run(&base);
        let fast = run(&wide);
        prop_assert!(fast <= slow, "wider machine took {fast} vs {slow}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The timing cache is an invisible optimisation: for any profile,
    /// budget, and interval length it returns exactly the trace a fresh
    /// simulation produces, and repeated lookups share one result.
    #[test]
    fn cached_timing_equals_fresh_simulation(
        bench_idx in 0usize..16,
        instructions in 5_000u64..40_000,
        interval_idx in 0usize..3,
    ) {
        let interval_cycles = [1_100u64, 1_650, 2_000][interval_idx];
        let profiles = ramp_trace::spec::all_profiles();
        let profile = &profiles[bench_idx % profiles.len()];
        let cfg = MachineConfig::power4_180nm();
        let length = SimulationLength::Instructions(instructions);

        let cached = simulate_profile_cached(&cfg, profile, length, interval_cycles);
        let fresh = simulate(
            &cfg,
            ramp_trace::TraceGenerator::new(profile),
            length,
            interval_cycles,
        );
        prop_assert_eq!(&cached.stats, &fresh.stats, "{}", profile.name);
        prop_assert_eq!(&cached.activity, &fresh.activity, "{}", profile.name);

        // A repeat lookup is a hit on the very same shared output.
        let again = simulate_profile_cached(&cfg, profile, length, interval_cycles);
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &again));
    }
}

/// Strategy: a set of 1–5 interval lengths, mixing short lengths (often
/// coprime, so the common bucket shrinks to a few cycles), the paper's
/// node lengths, and lengths longer than any run here.
fn arb_intervals() -> impl Strategy<Value = Vec<u64>> {
    let interval = (
        0u8..4,
        1u64..64,
        64u64..3_000,
        0usize..4,
        40_000u64..200_000,
    )
        .prop_map(|(kind, tiny, short, node, long)| match kind {
            0 => tiny,
            1 => short,
            2 => [1_100, 1_350, 1_650, 2_000][node],
            _ => long,
        });
    proptest::collection::vec(interval, 1..6)
}

/// Strategy: an instruction- or cycle-bounded run, short enough that
/// long intervals overhang it.
fn arb_length() -> impl Strategy<Value = SimulationLength> {
    (any::<bool>(), 1u64..25_000, 1u64..20_000).prop_map(|(by_cycles, instructions, cycles)| {
        if by_cycles {
            SimulationLength::Cycles(cycles)
        } else {
            SimulationLength::Instructions(instructions)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One engine pass for a set of interval lengths gives, per length,
    /// exactly the trace and statistics of a simulation at that length
    /// alone — for any profile (reseeded), run bound, and interval set.
    #[test]
    fn single_pass_equals_per_interval_simulations(
        bench_idx in 0usize..16,
        seed in any::<u64>(),
        length in arb_length(),
        intervals in arb_intervals(),
    ) {
        let mut profile = ramp_trace::spec::all_profiles().swap_remove(bench_idx);
        profile.seed = seed;
        let cfg = MachineConfig::power4_180nm();
        let outputs = simulate_intervals(
            &cfg,
            ramp_trace::TraceGenerator::new(&profile),
            length,
            &intervals,
        );
        prop_assert_eq!(outputs.len(), intervals.len());
        for (&ic, out) in intervals.iter().zip(&outputs) {
            let alone = simulate(&cfg, ramp_trace::TraceGenerator::new(&profile), length, ic);
            prop_assert_eq!(&out.stats, &alone.stats, "{} at {}", profile.name, ic);
            prop_assert_eq!(&out.activity, &alone.activity, "{} at {}", profile.name, ic);
        }
    }

    /// The same contract on arbitrary well-formed instruction streams,
    /// driving the engine step by step.
    #[test]
    fn single_pass_equals_per_interval_engines_on_arbitrary_traces(
        raw in proptest::collection::vec(arb_record(), 1..3_000),
        intervals in arb_intervals(),
    ) {
        let records = close_dataflow(raw);
        let cfg = MachineConfig::power4_180nm();
        let mut multi = Engine::with_intervals(&cfg, &intervals);
        for rec in &records {
            multi.step(rec);
        }
        let outputs = multi.finish_intervals();
        for (&ic, out) in intervals.iter().zip(&outputs) {
            let mut alone = Engine::new(&cfg, ic);
            for rec in &records {
                alone.step(rec);
            }
            prop_assert_eq!(out, &alone.finish(), "interval {}", ic);
        }
    }
}

/// The collector's working memory (its ring of unfolded fine buckets) is
/// bounded by how far events run ahead of fetch — the in-flight window —
/// not by the run length: a memory-bound 2M-instruction run never holds
/// more than a few dozen 50-cycle buckets of its ~35 000.
#[test]
fn collector_ring_stays_bounded_over_a_long_run() {
    let cfg = MachineConfig::power4_180nm();
    let profile = ramp_trace::spec::profile("ammp").unwrap();
    let mut engine = Engine::with_intervals(&cfg, &[1_100, 1_350, 1_650, 2_000]);
    let mut early = 0;
    for (i, rec) in ramp_trace::TraceGenerator::new(&profile)
        .take(2_000_000)
        .enumerate()
    {
        engine.step(&rec);
        if i == 100_000 {
            early = engine.collector_high_water();
        }
    }
    let fine_buckets = engine.cycle() / 50;
    let high_water = engine.collector_high_water();
    assert!(fine_buckets > 20_000, "run spans {fine_buckets} buckets");
    assert!(high_water <= 64, "ring held {high_water} buckets");
    // Twenty times the run adds nothing: the bound is set early.
    assert!(
        high_water <= early + 2,
        "{early} after 100k, {high_water} after 2M"
    );
}

#[test]
fn simulate_respects_instruction_budget_exactly() {
    let cfg = MachineConfig::power4_180nm();
    let p = ramp_trace::spec::profile("gzip").unwrap();
    for n in [1u64, 7, 1_000, 12_345] {
        let out = simulate(
            &cfg,
            ramp_trace::TraceGenerator::new(&p),
            SimulationLength::Instructions(n),
            1_000,
        );
        assert_eq!(out.stats.instructions, n);
    }
}
