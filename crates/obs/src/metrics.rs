//! Process-wide metric instruments: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Instruments are registered by name in a global registry and handed out
//! behind `Arc`, so the hot path (incrementing) is lock-free atomics; the
//! registry lock is only taken at registration/lookup and snapshot time.
//! Callers that update a metric in a tight loop should look the handle up
//! once per run (e.g. at simulator construction) and reuse it.
//!
//! All values are monotone (counters) or last-write-wins (gauges); the
//! registry is append-only until [`reset_metrics`], which tests use to
//! start from a clean slate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Convenience for `add(1)`.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point metric (also supports deltas, for
/// in-flight style gauges).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative) atomically.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with fixed upper-bound buckets plus an overflow bucket.
///
/// `bounds` are inclusive upper bounds in ascending order; an observation
/// `v` lands in the first bucket with `v <= bound`, or in the overflow
/// bucket beyond the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    sums: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

fn atomic_f64_add(bits: &AtomicU64, add: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + add).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            // ramp-lint:allow(panic-reach) -- `windows(2)` always yields two-element slices
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sums: (0..=bounds.len())
                .map(|_| AtomicU64::new(0.0_f64.to_bits()))
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` identical observations (one bucket update).
    pub fn observe_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(n, Ordering::Relaxed); // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        self.count.fetch_add(n, Ordering::Relaxed);
        let add = v * n as f64;
        atomic_f64_add(&self.sums[idx], add); // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        atomic_f64_add(&self.sum_bits, add);
    }

    /// The configured upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final element is the overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-bucket sums of observed values; the final element is the
    /// overflow bucket. Together with [`Histogram::bucket_counts`] these
    /// give the exact mean of each bucket, which is what the percentile
    /// estimator anchors on.
    #[must_use]
    pub fn bucket_sums(&self) -> Vec<f64> {
        self.sums
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
            .collect()
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimates the `q`-th percentile (`q` in `[0, 100]`) from the bucket
    /// counts and per-bucket sums; see [`bucket_percentile_with_sums`] for
    /// the estimation rules. A constant stream of observations reports that
    /// constant at every percentile.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        bucket_percentile_with_sums(&self.bounds, &self.bucket_counts(), &self.bucket_sums(), q)
    }
}

/// Estimates the `q`-th percentile (`q` in `[0, 100]`) of a fixed-bucket
/// histogram given its upper `bounds` and per-bucket `counts` (one extra
/// trailing count for the overflow bucket).
///
/// Uses the standard cumulative-bucket estimator: the target rank
/// `q/100 × count` is located in the first bucket whose cumulative count
/// reaches it, and the value is linearly interpolated between the bucket's
/// lower and upper bound (the first bucket's lower bound is taken as 0,
/// which matches duration-style metrics). Ranks landing in the overflow
/// bucket clamp to the last finite bound — the estimator cannot see past
/// it. Returns 0 for an empty histogram.
#[must_use]
pub fn bucket_percentile(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 100.0) / 100.0) * total as f64;
    let rank = rank.max(1.0); // percentiles below the first observation clamp to it
    let mut cumulative = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        let prev = cumulative;
        cumulative += n;
        if (cumulative as f64) < rank || n == 0 {
            continue;
        }
        if i >= bounds.len() {
            // Overflow bucket: no finite upper edge to interpolate toward.
            return bounds[bounds.len() - 1]; // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        }
        let lower = if i == 0 { 0.0_f64.min(bounds[0]) } else { bounds[i - 1] }; // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        let upper = bounds[i];
        let fraction = (rank - prev as f64) / n as f64;
        return lower + (upper - lower) * fraction;
    }
    bounds[bounds.len() - 1] // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
}

/// Estimates the `q`-th percentile (`q` in `[0, 100]`) of a fixed-bucket
/// histogram given its upper `bounds`, per-bucket `counts`, and per-bucket
/// `sums` (both with one extra trailing slot for the overflow bucket).
///
/// The target rank `q/100 × count` is located in the first bucket whose
/// cumulative count reaches it, and the estimate is that bucket's exact
/// mean (`sum/count`), clamped into the bucket's bound range to guard
/// against floating-point accumulation drift. Anchoring on the mean rather
/// than interpolating between the bucket edges means a constant
/// distribution reports its value at every percentile — interpolation from
/// the lower edge famously reports p50 = 0.5 for a stream of 1.0s — and
/// the estimate stays monotone in `q` because bucket means are ordered by
/// the bucket ranges themselves. Ranks landing in the overflow bucket
/// report the overflow mean (at least the last finite bound), which is
/// strictly more information than clamping. Falls back to
/// [`bucket_percentile`] when the target bucket's sum is non-finite, and
/// returns 0 for an empty histogram.
#[must_use]
pub fn bucket_percentile_with_sums(
    bounds: &[f64],
    counts: &[u64],
    sums: &[f64],
    q: f64,
) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || bounds.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 100.0) / 100.0) * total as f64;
    let rank = rank.max(1.0); // percentiles below the first observation clamp to it
    let mut cumulative = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        cumulative += n;
        if (cumulative as f64) < rank || n == 0 {
            continue;
        }
        let mean = sums.get(i).map_or(f64::NAN, |s| s / n as f64);
        if !mean.is_finite() {
            return bucket_percentile(bounds, counts, q);
        }
        if i >= bounds.len() {
            // Overflow bucket: the mean is exact but can never undershoot
            // the last finite bound.
            return mean.max(bounds[bounds.len() - 1]); // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        }
        let clamped = mean.min(bounds[i]); // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
        return if i == 0 { clamped } else { clamped.max(bounds[i - 1]) };
    }
    bounds[bounds.len() - 1] // ramp-lint:allow(panic-reach) -- bucket search returns an in-range index
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: Mutex<BTreeMap<String, Instrument>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Instrument>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Returns (registering on first use) the counter named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
    {
        Instrument::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different kind"), // ramp-lint:allow(panic-hygiene) -- registry misuse is a programming error worth aborting
    }
}

/// Returns (registering on first use) the gauge named `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind.
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
    {
        Instrument::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different kind"), // ramp-lint:allow(panic-hygiene) -- registry misuse is a programming error worth aborting
    }
}

/// Returns (registering on first use) the histogram named `name` with the
/// given bucket upper bounds. A histogram registered earlier keeps its
/// original bounds.
///
/// # Panics
///
/// Panics if `name` is already registered as a different instrument kind,
/// or if `bounds` are not strictly ascending.
#[must_use]
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    let mut reg = registry();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Instrument::Histogram(Arc::new(Histogram::new(bounds))))
    {
        Instrument::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different kind"), // ramp-lint:allow(panic-hygiene) -- registry misuse is a programming error worth aborting
    }
}

/// A point-in-time copy of one metric's state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// The value payload of a [`MetricSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (last = overflow).
        counts: Vec<u64>,
        /// Per-bucket sums of observed values (last = overflow).
        bucket_sums: Vec<f64>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    },
}

/// Snapshots every registered metric, sorted by name.
#[must_use]
pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
    registry()
        .iter()
        .map(|(name, inst)| MetricSnapshot {
            name: name.clone(),
            value: match inst {
                Instrument::Counter(c) => MetricValue::Counter(c.get()),
                Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                Instrument::Histogram(h) => MetricValue::Histogram {
                    bounds: h.bounds().to_vec(),
                    counts: h.bucket_counts(),
                    bucket_sums: h.bucket_sums(),
                    count: h.count(),
                    sum: h.sum(),
                },
            },
        })
        .collect()
}

/// Reads a counter's current value without registering it: `None` if no
/// counter with that name exists yet. Unlike [`counter`], safe to call in
/// assertions without perturbing the registry.
#[must_use]
pub fn counter_value(name: &str) -> Option<u64> {
    match registry().get(name) {
        Some(Instrument::Counter(c)) => Some(c.get()),
        _ => None,
    }
}

/// Reads a gauge's current value without registering it: `None` if no
/// gauge with that name exists yet.
#[must_use]
pub fn gauge_value(name: &str) -> Option<f64> {
    match registry().get(name) {
        Some(Instrument::Gauge(g)) => Some(g.get()),
        _ => None,
    }
}

/// Unregisters every metric (tests). Handles already held keep working
/// but are no longer visible to [`metrics_snapshot`].
pub fn reset_metrics() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared() {
        let a = counter("test.counter.shared");
        let b = counter("test.counter.shared");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn value_lookups_do_not_register() {
        assert_eq!(counter_value("test.lookup.unregistered"), None);
        assert_eq!(gauge_value("test.lookup.unregistered"), None);
        assert!(!metrics_snapshot()
            .iter()
            .any(|m| m.name == "test.lookup.unregistered"));
        let c = counter("test.lookup.counter");
        c.add(7);
        assert_eq!(counter_value("test.lookup.counter"), Some(7));
        // Kind mismatch reads as absent rather than panicking.
        assert_eq!(gauge_value("test.lookup.counter"), None);
        let g = gauge("test.lookup.gauge");
        g.set(1.25);
        assert_eq!(gauge_value("test.lookup.gauge"), Some(1.25));
    }

    #[test]
    fn gauge_set_and_delta() {
        let g = gauge("test.gauge.basic");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_observations_correctly() {
        let h = histogram("test.hist.buckets", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        // v <= 1 → bucket 0 (0.5 and the boundary value 1.0);
        // 1 < v <= 2 → bucket 1; 2 < v <= 4 → bucket 2; rest overflow.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 15.0).abs() < 1e-12);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_observe_n_weights_one_bucket() {
        let h = histogram("test.hist.weighted", &[10.0]);
        h.observe_n(3.0, 4);
        assert_eq!(h.bucket_counts(), vec![4, 0]);
        assert!((h.sum() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = histogram("test.hist.bad", &[2.0, 1.0]);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        counter("test.snap.a").add(7);
        gauge("test.snap.b").set(1.25);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let a = snap.iter().find(|m| m.name == "test.snap.a").unwrap();
        assert_eq!(a.value, MetricValue::Counter(7));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let _ = counter("test.kind.clash");
        let _ = gauge("test.kind.clash");
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let h = histogram("test.pct.empty", &[1.0, 2.0]);
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), 0.0);
        }
    }

    #[test]
    fn percentile_constant_distribution_reports_the_constant() {
        let h = histogram("test.pct.single", &[10.0]);
        h.observe_n(5.0, 4);
        // A constant stream must report the constant at every percentile —
        // the bucket mean is exactly the observed value.
        for q in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert!((h.percentile(q) - 5.0).abs() < 1e-9, "p{q} drifted");
        }
    }

    #[test]
    fn percentile_skewed_distribution() {
        let h = histogram("test.pct.skewed", &[1.0, 2.0, 4.0, 8.0]);
        // 90 fast observations, 9 mid, 1 beyond the last bound.
        h.observe_n(0.5, 90);
        h.observe_n(3.0, 9);
        h.observe(100.0);
        let p50 = h.percentile(50.0);
        let p95 = h.percentile(95.0);
        let p99 = h.percentile(99.0);
        assert!((p50 - 0.5).abs() < 1e-9, "p50 {p50} must be the first-bucket mean");
        assert!((p95 - 3.0).abs() < 1e-9, "p95 {p95} must be the 2..4 bucket mean");
        assert!(p50 <= p95 && p95 <= p99, "percentiles must be monotone");
        // Overflow mass reports the exact overflow mean, never below the
        // last finite bound.
        assert_eq!(h.percentile(100.0), 100.0);
    }

    #[test]
    fn percentile_counts_only_estimator_still_interpolates() {
        // The legacy counts-only estimator keeps its edge-interpolation
        // semantics for callers without sums.
        assert!((bucket_percentile(&[10.0], &[4, 0], 50.0) - 5.0).abs() < 1e-9);
        assert!((bucket_percentile(&[10.0], &[4, 0], 100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_with_sums_falls_back_on_non_finite_sum() {
        let v = bucket_percentile_with_sums(&[10.0], &[4, 0], &[f64::NAN, 0.0], 50.0);
        assert!((v - 5.0).abs() < 1e-9, "NaN sum must fall back to interpolation");
    }

    #[test]
    fn percentile_with_sums_clamps_mean_into_bucket_range() {
        // A sum drifted past the bucket's range (accumulation noise) is
        // clamped back inside it.
        let v = bucket_percentile_with_sums(&[1.0, 2.0], &[0, 3, 0], &[0.0, 6.3, 0.0], 50.0);
        assert!((v - 2.0).abs() < 1e-9, "mean beyond upper bound must clamp: {v}");
        let v = bucket_percentile_with_sums(&[1.0, 2.0], &[0, 3, 0], &[0.0, 2.4, 0.0], 50.0);
        assert!((v - 1.0).abs() < 1e-9, "mean below lower bound must clamp: {v}");
    }

    #[test]
    fn bucket_percentile_handles_boundless_histograms() {
        assert_eq!(bucket_percentile(&[], &[5], 50.0), 0.0);
    }
}
