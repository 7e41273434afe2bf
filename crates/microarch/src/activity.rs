//! Per-structure activity-factor collection.
//!
//! The timing simulator records discrete work events (instructions fetched,
//! issued, executed per unit) tagged with the cycle they occur in. The
//! collector buckets them into fixed-length cycle intervals and normalises
//! each bucket by the structure's per-cycle event capacity, yielding the
//! activity factor `p ∈ [0, 1]` that both the power model and the
//! electromigration model consume.
//!
//! One collector serves several interval lengths from a single event
//! stream. Events are counted once, in a ring of fine buckets one
//! greatest-common-divisor of the lengths wide (50 cycles for the paper's
//! 1100/1350/1650/2000-cycle nodes). The producer advances a *watermark*
//! — a cycle below which no further event will land; the engine uses its
//! monotone fetch cycle — and every fine bucket wholly below it is folded,
//! with integer sums, into each length's current interval. The outputs
//! are therefore exactly what a separate collector per length would have
//! counted, and the ring only spans the cycles between the watermark and
//! the latest event.

use crate::{PerStructure, Structure};
use ramp_units::ActivityFactor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-cycle event capacity of each structure on the Table-2 machine.
///
/// IFU can fetch 8 instructions; IDU dispatches a 5-wide group; ISU issues
/// up to the total FU issue width (8); FXU/FPU/LSU have two pipes each; BXU
/// one branch plus one CR op.
#[must_use]
pub fn default_capacities(config: &crate::MachineConfig) -> PerStructure<u64> {
    let issue_width = u64::from(
        config.int_units + config.fp_units + config.ls_units + config.branch_units
            + config.cr_units,
    );
    PerStructure::from_fn(|s| match s {
        Structure::Ifu => u64::from(config.fetch_width),
        Structure::Idu => u64::from(config.dispatch_width),
        Structure::Isu => issue_width,
        Structure::Fxu => u64::from(config.int_units),
        Structure::Fpu => u64::from(config.fp_units),
        Structure::Lsu => u64::from(config.ls_units),
        Structure::Bxu => u64::from(config.branch_units + config.cr_units),
    })
}

/// One interval's activity factors plus utilisation metadata.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// Activity factor per structure.
    pub factors: PerStructure<ActivityFactor>,
    /// Instructions retired in the interval.
    pub retired: u64,
}

impl ActivityRecord {
    /// IPC over the interval, given its length in cycles.
    #[must_use]
    pub fn ipc(&self, interval_cycles: u64) -> f64 {
        self.retired as f64 / interval_cycles as f64
    }
}

/// The full activity trace of one simulation: a sequence of equal-length
/// intervals.
///
/// # Examples
///
/// ```
/// use ramp_microarch::{simulate, MachineConfig, SimulationLength, Structure};
/// use ramp_trace::{spec, TraceGenerator};
/// let cfg = MachineConfig::power4_180nm();
/// let profile = spec::profile("gzip").unwrap();
/// let out = simulate(&cfg, TraceGenerator::new(&profile),
///                    SimulationLength::Instructions(20_000), 1_000);
/// let trace = &out.activity;
/// assert!(trace.intervals().len() > 1);
/// let avg = trace.average();
/// assert!(avg[Structure::Ifu].value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityTrace {
    interval_cycles: u64,
    intervals: Vec<ActivityRecord>,
}

impl ActivityTrace {
    /// Interval length in cycles.
    #[must_use]
    pub fn interval_cycles(&self) -> u64 {
        self.interval_cycles
    }

    /// The recorded intervals in time order.
    #[must_use]
    pub fn intervals(&self) -> &[ActivityRecord] {
        &self.intervals
    }

    /// Time-average activity factor per structure over the whole trace.
    #[must_use]
    pub fn average(&self) -> PerStructure<ActivityFactor> {
        if self.intervals.is_empty() {
            return PerStructure::from_fn(|_| ActivityFactor::IDLE);
        }
        PerStructure::from_fn(|s| {
            let sum: f64 = self
                .intervals
                .iter()
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .map(|r| r.factors[s].value())
                .sum();
            ActivityFactor::new(sum / self.intervals.len() as f64)
                .expect("mean of unit-interval values is in the unit interval") // ramp-lint:allow(panic-hygiene) -- mean of unit-interval samples stays in the unit interval
        })
    }

    /// Pointwise-maximum activity factor per structure over the trace —
    /// one ingredient of the paper's worst-case operating point.
    #[must_use]
    pub fn peak(&self) -> PerStructure<ActivityFactor> {
        PerStructure::from_fn(|s| {
            self.intervals
                .iter()
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                .map(|r| r.factors[s])
                .fold(ActivityFactor::IDLE, ActivityFactor::max)
        })
    }
}

/// Event counts of one fine bucket: the seven structures' work events
/// (indexed by [`Structure::index`]) followed by retirements.
type Counts = [u64; Structure::COUNT + 1];

/// Slot of the retirement count within [`Counts`].
const RETIRED: usize = Structure::COUNT;

/// One output interval length and the trace being folded for it.
#[derive(Debug, Clone)]
struct IntervalStream {
    interval_cycles: u64,
    /// Fine buckets per interval (`interval_cycles / fine_cycles`).
    fine_per_interval: u64,
    /// Sum of the fine buckets folded into the current interval so far.
    acc: Counts,
    /// How many fine buckets `acc` holds.
    acc_fine: u64,
    intervals: Vec<ActivityRecord>,
}

impl IntervalStream {
    fn fold(&mut self, bucket: &Counts, capacities: &PerStructure<u64>) {
        for (a, b) in self.acc.iter_mut().zip(bucket) {
            *a += b;
        }
        self.acc_fine += 1;
        if self.acc_fine == self.fine_per_interval {
            self.close(capacities);
        }
    }

    /// Emits the accumulated interval (complete or not) as a record.
    fn close(&mut self, capacities: &PerStructure<u64>) {
        let denom = self.interval_cycles;
        let acc = self.acc;
        self.intervals.push(ActivityRecord {
            factors: PerStructure::from_fn(|s| {
                // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total and `Structure::index` < `Counts` length
                ActivityFactor::from_events(acc[s.index()], capacities[s] * denom)
            }),
            retired: acc[RETIRED], // ramp-lint:allow(panic-reach) -- `RETIRED` is the last `Counts` slot
        });
        self.acc = [0; Structure::COUNT + 1];
        self.acc_fine = 0;
    }
}

/// Accumulates raw events and produces one [`ActivityTrace`] per
/// requested interval length, from a single event stream.
///
/// Each event is recorded once, into a ring of *fine* buckets whose
/// length is the greatest common divisor of the interval lengths. Every
/// interval length is a whole number of fine buckets, so each output
/// interval is an integer sum of consecutive fine buckets — the same
/// integers a collector for that length alone would have counted.
///
/// A fine bucket is folded into every output once the producer's
/// watermark (see [`ActivityCollector::advance`]) has passed it; the
/// ring therefore holds only the buckets between the watermark and the
/// latest event, and its memory is bounded by how far ahead of the
/// watermark events land, not by the length of the run.
#[derive(Debug, Clone)]
pub struct ActivityCollector {
    fine_cycles: u64,
    capacities: PerStructure<u64>,
    /// Unfolded fine buckets; `ring[i]` is fine bucket `base + i`.
    ring: VecDeque<Counts>,
    base: u64,
    /// First cycle past fine bucket `base`: the watermark at which the
    /// ring's front bucket becomes final.
    next_fold: u64,
    ring_high_water: usize,
    streams: Vec<IntervalStream>,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl ActivityCollector {
    /// Creates a collector bucketing by `interval_cycles`, normalising by
    /// `capacities` events/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero or any capacity is zero.
    #[must_use]
    pub fn new(interval_cycles: u64, capacities: PerStructure<u64>) -> Self {
        Self::with_intervals(&[interval_cycles], capacities)
    }

    /// Creates a collector producing one trace per entry of
    /// `intervals_cycles`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `intervals_cycles` is empty, any interval is zero, or
    /// any capacity is zero.
    #[must_use]
    pub fn with_intervals(intervals_cycles: &[u64], capacities: PerStructure<u64>) -> Self {
        assert!(
            !intervals_cycles.is_empty(),
            "at least one interval is required"
        );
        assert!(
            intervals_cycles.iter().all(|&c| c > 0),
            "interval must be positive"
        );
        assert!(
            capacities.as_array().iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        let fine_cycles = intervals_cycles.iter().copied().fold(0, gcd);
        ActivityCollector {
            fine_cycles,
            capacities,
            ring: VecDeque::new(),
            base: 0,
            next_fold: fine_cycles,
            ring_high_water: 0,
            streams: intervals_cycles
                .iter()
                .map(|&interval_cycles| IntervalStream {
                    interval_cycles,
                    fine_per_interval: interval_cycles / fine_cycles,
                    acc: [0; Structure::COUNT + 1],
                    acc_fine: 0,
                    intervals: Vec::new(),
                })
                .collect(),
        }
    }

    /// The fine bucket holding `cycle`, created (zeroed, with any gap
    /// before it) on first touch. Touching a bucket counts it even when
    /// the event carries zero work, as a per-interval collector would.
    fn bucket_mut(&mut self, cycle: u64) -> &mut Counts {
        let fine = cycle / self.fine_cycles;
        debug_assert!(
            fine >= self.base,
            "event at cycle {cycle} lands below the watermark (fine bucket {} < {})",
            fine,
            self.base
        );
        let idx = fine.saturating_sub(self.base) as usize;
        if idx >= self.ring.len() {
            self.ring.resize(idx + 1, [0; Structure::COUNT + 1]);
            self.ring_high_water = self.ring_high_water.max(self.ring.len());
        }
        // ramp-lint:allow(panic-reach) -- the ring was just extended past `idx`
        &mut self.ring[idx]
    }

    /// Records `count` work events on `structure` at `cycle`.
    pub fn record(&mut self, structure: Structure, cycle: u64, count: u64) {
        // ramp-lint:allow(panic-reach) -- `Structure::index` is below the `Counts` length
        self.bucket_mut(cycle)[structure.index()] += count;
    }

    /// Records an instruction retirement at `cycle`.
    pub fn record_retire(&mut self, cycle: u64, count: u64) {
        // ramp-lint:allow(panic-reach) -- `RETIRED` is the last `Counts` slot
        self.bucket_mut(cycle)[RETIRED] += count;
    }

    /// Declares that no later event lands below cycle `watermark`, and
    /// folds every fine bucket that lies wholly below it into each
    /// output interval. Recording an event below an earlier watermark is
    /// a contract violation (checked in debug builds).
    pub fn advance(&mut self, watermark: u64) {
        while watermark >= self.next_fold {
            let Some(bucket) = self.ring.pop_front() else {
                break;
            };
            for stream in &mut self.streams {
                stream.fold(&bucket, &self.capacities);
            }
            self.base += 1;
            self.next_fold += self.fine_cycles;
        }
    }

    /// The most fine buckets the ring has held at once — the collector's
    /// working memory beyond its output traces.
    #[must_use]
    pub(crate) fn ring_high_water(&self) -> usize {
        self.ring_high_water
    }

    /// Finalises into one [`ActivityTrace`] per interval length, in the
    /// order given at construction. Each trace keeps the intervals that
    /// end by `end_cycle`, dropping a partial last one — but keeps at
    /// least one interval when any event was recorded, so very short
    /// runs still yield a non-empty trace.
    #[must_use]
    pub fn finish(mut self, end_cycle: u64) -> Vec<ActivityTrace> {
        self.advance(u64::MAX);
        let capacities = self.capacities;
        self.streams
            .into_iter()
            .map(|mut stream| {
                if stream.acc_fine > 0 {
                    stream.close(&capacities);
                }
                let touched = stream.intervals.len();
                let complete =
                    usize::try_from(end_cycle / stream.interval_cycles).unwrap_or(usize::MAX);
                stream
                    .intervals
                    .truncate(complete.min(touched).max(usize::from(touched > 0)));
                ActivityTrace {
                    interval_cycles: stream.interval_cycles,
                    intervals: stream.intervals,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn caps() -> PerStructure<u64> {
        default_capacities(&MachineConfig::power4_180nm())
    }

    fn single(col: ActivityCollector, end_cycle: u64) -> ActivityTrace {
        let mut traces = col.finish(end_cycle);
        assert_eq!(traces.len(), 1);
        traces.remove(0)
    }

    /// One event as (structure or `None` for a retirement, cycle, count).
    type Event = (Option<Structure>, u64, u64);

    fn feed(col: &mut ActivityCollector, events: &[Event]) {
        for &(structure, cycle, count) in events {
            match structure {
                Some(s) => col.record(s, cycle, count),
                None => col.record_retire(cycle, count),
            }
        }
    }

    /// Feeds `events` once into a collector for all of `intervals`
    /// (advancing the watermark to each event's cycle first, as the
    /// engine does with its monotone fetch cycle) and once into a
    /// separate collector per interval that never folds, and asserts
    /// the traces agree exactly.
    fn assert_fold_matches_per_interval(intervals: &[u64], events: &[Event], end_cycle: u64) {
        let mut multi = ActivityCollector::with_intervals(intervals, caps());
        for &event in events {
            multi.advance(event.1);
            feed(&mut multi, &[event]);
        }
        let folded = multi.finish(end_cycle);
        assert_eq!(folded.len(), intervals.len());
        for (&ic, trace) in intervals.iter().zip(&folded) {
            let mut alone = ActivityCollector::new(ic, caps());
            feed(&mut alone, events);
            assert_eq!(*trace, single(alone, end_cycle), "interval {ic}");
            assert_eq!(trace.interval_cycles(), ic);
        }
    }

    #[test]
    fn capacities_match_machine_widths() {
        let c = caps();
        assert_eq!(c[Structure::Ifu], 8);
        assert_eq!(c[Structure::Idu], 5);
        assert_eq!(c[Structure::Isu], 8);
        assert_eq!(c[Structure::Fxu], 2);
        assert_eq!(c[Structure::Lsu], 2);
        assert_eq!(c[Structure::Bxu], 2);
    }

    #[test]
    fn buckets_and_normalises() {
        let mut col = ActivityCollector::new(100, caps());
        // 100 int ops in the first interval: 100 / (2*100) = 0.5.
        for cyc in 0..100 {
            col.record(Structure::Fxu, cyc, 1);
        }
        col.record(Structure::Fxu, 150, 60); // second interval: 60/200 = 0.3
        let trace = single(col, 200);
        assert_eq!(trace.intervals().len(), 2);
        assert!((trace.intervals()[0].factors[Structure::Fxu].value() - 0.5).abs() < 1e-12);
        assert!((trace.intervals()[1].factors[Structure::Fxu].value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn clamps_overflow_to_one() {
        let mut col = ActivityCollector::new(10, caps());
        col.record(Structure::Bxu, 5, 1000);
        let trace = single(col, 10);
        assert_eq!(trace.intervals()[0].factors[Structure::Bxu].value(), 1.0);
    }

    #[test]
    fn average_and_peak() {
        let mut col = ActivityCollector::new(10, caps());
        col.record(Structure::Lsu, 0, 20); // interval 0: 20/20 = 1.0
        col.record(Structure::Lsu, 10, 10); // interval 1: 0.5
        let trace = single(col, 20);
        assert!((trace.average()[Structure::Lsu].value() - 0.75).abs() < 1e-12);
        assert_eq!(trace.peak()[Structure::Lsu].value(), 1.0);
    }

    #[test]
    fn partial_last_bucket_dropped() {
        let mut col = ActivityCollector::new(100, caps());
        col.record(Structure::Ifu, 0, 10);
        col.record(Structure::Ifu, 150, 10);
        let trace = single(col, 150); // second bucket incomplete
        assert_eq!(trace.intervals().len(), 1);
    }

    #[test]
    fn run_shorter_than_an_interval_keeps_one_partial_interval() {
        // Downstream consumers need a non-empty trace even when the run
        // ends before the first interval closes — at every length.
        let mut col = ActivityCollector::with_intervals(&[100, 100_000], caps());
        col.record(Structure::Ifu, 10, 8);
        col.record(Structure::Ifu, 4_990, 8);
        let traces = col.finish(5_000);
        assert_eq!(traces[0].intervals().len(), 50);
        assert_eq!(traces[1].intervals().len(), 1);
        let lone = traces[1].intervals()[0].factors[Structure::Ifu].value();
        assert!((lone - 16.0 / 800_000.0).abs() < 1e-15, "{lone}");
    }

    #[test]
    fn retire_and_ipc() {
        let mut col = ActivityCollector::new(100, caps());
        col.record_retire(50, 150);
        let trace = single(col, 100);
        assert!((trace.intervals()[0].ipc(100) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_count_events_still_extend_every_trace() {
        // The engine charges `wrong / 2` dispatch events, which is 0 for a
        // one-slot shadow. The touch alone must create the bucket, in
        // every interval's trace, exactly as a per-interval collector does.
        let events = [
            (Some(Structure::Ifu), 10, 3),
            (None, 40, 1),
            (Some(Structure::Idu), 2_399, 0),
        ];
        assert_fold_matches_per_interval(&[1_100, 2_000], &events, 1_000);
        let mut col = ActivityCollector::with_intervals(&[1_100, 2_000], caps());
        feed(&mut col, &events);
        let traces = col.finish(2_500);
        // 2 399 touched the third 1 100-cycle interval (dropped as
        // incomplete) and the second 2 000-cycle one (also incomplete).
        assert_eq!(traces[0].intervals().len(), 2);
        assert_eq!(traces[1].intervals().len(), 1);
        assert_eq!(
            traces[0].intervals()[1].factors[Structure::Idu].value(),
            0.0
        );
    }

    #[test]
    fn run_ending_mid_bucket_keeps_complete_intervals_only() {
        // gcd(1 100, 1 350) = 50: the run ends at 2 725, inside the fine
        // bucket [2 700, 2 750) and inside both intervals' third bucket.
        let events: Vec<Event> = (0..2_725)
            .step_by(7)
            .flat_map(|c| [(Some(Structure::Fxu), c, 1), (None, c, 2)])
            .collect();
        assert_fold_matches_per_interval(&[1_100, 1_350], &events, 2_725);
        let mut col = ActivityCollector::with_intervals(&[1_100, 1_350], caps());
        feed(&mut col, &events);
        let traces = col.finish(2_725);
        assert_eq!(traces[0].intervals().len(), 2);
        assert_eq!(traces[1].intervals().len(), 2);
    }

    #[test]
    fn events_on_bucket_boundaries_land_in_the_later_bucket() {
        let intervals = [1_100, 1_350, 1_650, 2_000];
        let mut events = Vec::new();
        for boundary in [
            0u64, 49, 50, 1_099, 1_100, 1_349, 1_350, 1_650, 2_000, 2_200, 3_299, 3_300,
        ] {
            events.push((Some(Structure::Lsu), boundary, 1));
            events.push((None, boundary, 1));
        }
        assert_fold_matches_per_interval(&intervals, &events, 3_301);
        let mut col = ActivityCollector::with_intervals(&intervals, caps());
        feed(&mut col, &events);
        let traces = col.finish(4_400);
        // Cycle 1 100 opens the 1 100-cycle trace's second interval.
        let first = traces[0].intervals();
        assert_eq!(first[0].retired, 4, "cycles 0, 49, 50, 1 099");
        assert_eq!(first[1].retired, 5, "cycles 1 100 .. 2 000");
        assert_eq!(first[2].retired, 2, "cycles 2 200 and 3 299");
        assert_eq!(first[3].retired, 1, "cycle 3 300 opens the fourth");
    }

    #[test]
    fn coprime_intervals_fold_through_unit_buckets() {
        let events: Vec<Event> = (0..500u64)
            .map(|i| (Some(Structure::ALL[(i % 7) as usize]), i * 3 + i % 5, i % 4))
            .collect();
        assert_fold_matches_per_interval(&[7, 11, 13], &events, 1_400);
    }

    #[test]
    fn ring_holds_only_unfolded_buckets() {
        let mut col = ActivityCollector::with_intervals(&[1_100, 2_000], caps());
        for cycle in 0..100_000u64 {
            col.advance(cycle);
            col.record(Structure::Ifu, cycle, 1);
            col.record_retire(cycle + 300, 1);
        }
        // Events land at most 300 cycles past the watermark: 7 fine
        // 50-cycle buckets plus the one being filled.
        assert!(col.ring_high_water() <= 8, "{}", col.ring_high_water());
        let traces = col.finish(100_300);
        assert_eq!(traces[0].intervals().len(), 91);
        assert_eq!(traces[1].intervals().len(), 50);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "below the watermark")]
    fn event_below_the_watermark_is_caught_in_debug_builds() {
        let mut col = ActivityCollector::with_intervals(&[1_100, 1_650], caps());
        col.record(Structure::Ifu, 400, 1);
        col.advance(1_000);
        col.record(Structure::Ifu, 20, 1);
    }
}
