//! Process-wide cache of timing-pass results.
//!
//! The timing simulation of a benchmark depends only on the machine
//! configuration, the benchmark profile (trace generation is a pure
//! function of the profile, seed included), and the simulation length.
//! The activity-sampling interval only changes how the one cycle stream
//! is bucketed, so a single engine pass (see [`simulate_intervals`])
//! yields the trace for every interval length at once. An entry is
//! therefore keyed by (machine, profile, length) and holds the outputs
//! of one pass for a set of interval lengths; a lookup for any interval
//! in that set is a hit. A lookup for an interval the resident entry
//! lacks re-simulates once with the union of both sets, so callers that
//! name every interval they will need up front (`pass_intervals`) pay
//! for exactly one pass per key.
//!
//! The key is made of fingerprints of the serialized machine config and
//! profile plus the length. Results sit behind `Arc` so hits are O(1)
//! clones; least-recently-used entries are evicted beyond a fixed
//! capacity; and in-flight computations are deduplicated: if two workers
//! ask for the same pass simultaneously, one simulates and the other
//! blocks on the same [`OnceLock`] rather than redoing the work. Results
//! are bit-identical to a fresh [`simulate`] call at the requested
//! interval by construction — the cache stores, it never approximates.
//!
//! [`simulate`]: crate::simulate

use crate::engine::{simulate_intervals, SimulationLength, SimulationOutput};
use crate::MachineConfig;
use ramp_trace::{BenchmarkProfile, TraceGenerator};
use std::collections::HashMap; // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum retained entries. A full 16-benchmark study touches 16 keys
/// (one pass per benchmark covers every node), so the whole sweep fits
/// with room for a second machine or simulation length. An entry holds
/// one trace per interval length of its pass (four in a study).
pub const TIMING_CACHE_CAPACITY: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    machine: u64,
    profile: u64,
    length: (bool, u64),
}

impl Key {
    /// Canonical printable form of the key: the two config fingerprints
    /// plus the simulation length. This is what run manifests and span
    /// args record so a surprising hit rate can be traced back to the
    /// exact lookups that produced it.
    fn normalized(&self) -> String {
        let (cycles, n) = self.length;
        format!(
            "m={:016x}/p={:016x}/len={}{n}",
            self.machine,
            self.profile,
            if cycles { "c" } else { "i" }
        )
    }
}

/// FNV-1a over the canonical JSON encoding; collisions are astronomically
/// unlikely across the handful of configs a process ever touches.
fn fingerprint<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("config types serialize infallibly"); // ramp-lint:allow(panic-hygiene) -- config types contain no non-serializable values
    ramp_obs::fnv1a_64(&json)
}

/// One engine pass: the interval lengths it covers (sorted, distinct)
/// and, once computed, one output per length in the same order.
struct Pass {
    intervals: Vec<u64>,
    outputs: OnceLock<Vec<Arc<SimulationOutput>>>,
}

struct Entry {
    pass: Arc<Pass>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<Key, Entry>, // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
    tick: u64,
}

static CACHE: Mutex<Option<CacheState>> = Mutex::new(None);
static HITS: AtomicU64 = AtomicU64::new(0); // ramp-lint:allow(atomic-ordering) -- monotone Relaxed telemetry counters
static MISSES: AtomicU64 = AtomicU64::new(0); // ramp-lint:allow(atomic-ordering) -- monotone Relaxed telemetry counters

/// Whether a [`simulate_profile_cached_traced`] lookup was served from
/// the cache or had to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The interval was already resident (or in flight on another worker).
    Hit,
    /// This lookup ran (or is running) the simulation.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase label (`"hit"` / `"miss"`), as used in span args.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Counters describing cache effectiveness, for study summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimingCacheStats {
    /// Lookups that found an existing (possibly in-flight) entry.
    pub hits: u64,
    /// Lookups that had to run the simulation.
    pub misses: u64,
    /// Entries currently retained.
    pub entries: usize,
}

/// Current process-wide cache counters.
pub fn timing_cache_stats() -> TimingCacheStats {
    let guard = CACHE.lock().expect("timing cache lock"); // ramp-lint:allow(panic-hygiene) -- lock poisoning implies a worker already panicked
    TimingCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: guard.as_ref().map_or(0, |s| s.map.len()),
    }
}

/// Empties the cache and zeroes the counters (tests, benchmarks).
pub fn clear_timing_cache() {
    let mut guard = CACHE.lock().expect("timing cache lock"); // ramp-lint:allow(panic-hygiene) -- lock poisoning implies a worker already panicked
    *guard = None;
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Runs (or replays) the timing pass for a benchmark profile.
///
/// Returns exactly what
/// `simulate(machine, TraceGenerator::new(profile), length, interval_cycles)`
/// would, behind an `Arc`; the first caller per key simulates and later
/// callers share the stored result. A caller at an interval length the
/// resident pass lacks simulates again, for both passes' lengths.
/// Concurrent callers with the same key block on the in-flight
/// computation instead of duplicating it.
pub fn simulate_profile_cached(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    length: SimulationLength,
    interval_cycles: u64,
) -> Arc<SimulationOutput> {
    simulate_profile_cached_traced(machine, profile, length, interval_cycles, &[]).0
}

/// [`simulate_profile_cached`] with the pass made explicit and the cache
/// made visible.
///
/// On a miss, the one engine pass also fills every interval length in
/// `pass_intervals` (plus those of the entry it replaces), so later
/// lookups at those lengths hit. Also returns whether this lookup hit,
/// and the normalized cache key it resolved to (for span args and
/// run-manifest cache stats).
pub fn simulate_profile_cached_traced(
    machine: &MachineConfig,
    profile: &BenchmarkProfile,
    length: SimulationLength,
    interval_cycles: u64,
    pass_intervals: &[u64],
) -> (Arc<SimulationOutput>, CacheOutcome, String) {
    let key = Key {
        machine: fingerprint(machine),
        profile: fingerprint(profile),
        length: match length {
            SimulationLength::Instructions(n) => (false, n),
            SimulationLength::Cycles(c) => (true, c),
        },
    };

    let (pass, outcome) = {
        let mut guard = CACHE.lock().expect("timing cache lock"); // ramp-lint:allow(panic-hygiene) -- lock poisoning implies a worker already panicked
        let state = guard.get_or_insert_with(|| CacheState {
            map: HashMap::new(), // ramp-lint:allow(determinism) -- keyed lookup only; iteration order never reaches output
            tick: 0,
        });
        state.tick += 1;
        let tick = state.tick;
        let resident = state
            .map
            .get_mut(&key)
            .filter(|entry| entry.pass.intervals.binary_search(&interval_cycles).is_ok());
        let (pass, outcome) = match resident {
            Some(entry) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                ramp_obs::counter("timing_cache.hits").incr();
                entry.last_used = tick;
                (Arc::clone(&entry.pass), CacheOutcome::Hit)
            }
            None => {
                MISSES.fetch_add(1, Ordering::Relaxed);
                ramp_obs::counter("timing_cache.misses").incr();
                let mut intervals: Vec<u64> = pass_intervals.to_vec();
                intervals.push(interval_cycles);
                if let Some(old) = state.map.get(&key) {
                    intervals.extend_from_slice(&old.pass.intervals);
                }
                intervals.sort_unstable();
                intervals.dedup();
                let pass = Arc::new(Pass {
                    intervals,
                    outputs: OnceLock::new(),
                });
                state.map.insert(
                    key,
                    Entry {
                        pass: Arc::clone(&pass),
                        last_used: tick,
                    },
                );
                (pass, CacheOutcome::Miss)
            }
        };
        while state.map.len() > TIMING_CACHE_CAPACITY {
            // Evict the least-recently-used completed entry; in-flight
            // entries survive because their `Arc` is held by a worker
            // anyway.
            let victim = state
                .map
                .iter()
                .filter(|(k, e)| e.pass.outputs.get().is_some() && **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    state.map.remove(&k);
                }
                None => break,
            }
        }
        ramp_obs::gauge("timing_cache.entries").set(state.map.len() as f64);
        (pass, outcome)
    };

    // The simulation itself runs outside the map lock so other keys
    // proceed in parallel; `get_or_init` serializes same-pass callers.
    let outputs = pass.outputs.get_or_init(|| {
        let in_flight = ramp_obs::gauge("timing_cache.in_flight");
        in_flight.add(1.0);
        let span = ramp_obs::span!("timing_sim", "intervals={:?}", pass.intervals);
        let outputs = simulate_intervals(
            machine,
            TraceGenerator::new(profile),
            length,
            &pass.intervals,
        )
        .into_iter()
        .map(Arc::new)
        .collect();
        drop(span);
        in_flight.add(-1.0);
        outputs
    });
    // The pass covers `interval_cycles` by construction, so this is its
    // position in the sorted interval list.
    let idx = pass.intervals.partition_point(|&c| c < interval_cycles);
    // ramp-lint:allow(panic-reach) -- one output per pass interval, and the pass covers `interval_cycles`
    let output = Arc::clone(&outputs[idx]);
    (output, outcome, key.normalized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use ramp_trace::spec;

    /// Serializes access across the tests in this module: they observe
    /// and reset process-global counters.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fresh(profile: &BenchmarkProfile, length: SimulationLength, ic: u64) -> SimulationOutput {
        simulate(
            &MachineConfig::power4_180nm(),
            TraceGenerator::new(profile),
            length,
            ic,
        )
    }

    #[test]
    fn hit_returns_identical_output() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gzip").unwrap();
        let length = SimulationLength::Instructions(20_000);
        let a = simulate_profile_cached(&machine, &profile, length, 1_100);
        let b = simulate_profile_cached(&machine, &profile, length, 1_100);
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the stored Arc");
        assert_eq!(*a, fresh(&profile, length, 1_100));
        let stats = timing_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn other_interval_of_a_filled_pass_is_a_bit_identical_hit() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("ammp").unwrap();
        let length = SimulationLength::Instructions(10_000);
        let pass = [1_100, 1_350, 1_650, 2_000];
        let (a, first, _) =
            simulate_profile_cached_traced(&machine, &profile, length, 1_100, &pass);
        let (b, second, _) =
            simulate_profile_cached_traced(&machine, &profile, length, 1_650, &pass);
        assert_eq!((first, second), (CacheOutcome::Miss, CacheOutcome::Hit));
        // The compatible entry point also hits on any filled interval.
        let c = simulate_profile_cached(&machine, &profile, length, 2_000);
        assert_eq!(*a, fresh(&profile, length, 1_100));
        assert_eq!(*b, fresh(&profile, length, 1_650));
        assert_eq!(*c, fresh(&profile, length, 2_000));
        assert_eq!(a.stats, b.stats, "one pass, one set of statistics");
        let stats = timing_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn absent_interval_resimulates_with_the_union() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("vpr").unwrap();
        let length = SimulationLength::Instructions(8_000);
        let a = simulate_profile_cached(&machine, &profile, length, 1_100);
        // 1 650 is not in the resident pass: one more simulation, which
        // also re-fills 1 100, so neither length misses again.
        let b = simulate_profile_cached(&machine, &profile, length, 1_650);
        let a2 = simulate_profile_cached(&machine, &profile, length, 1_100);
        let b2 = simulate_profile_cached(&machine, &profile, length, 1_650);
        assert!(Arc::ptr_eq(&b, &b2));
        assert_eq!(*a2, *a);
        assert_eq!(*b, fresh(&profile, length, 1_650));
        let stats = timing_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));
    }

    #[test]
    fn concurrent_same_key_simulates_once() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gcc").unwrap();
        let pass = [1_100, 1_350, 1_650, 2_000];
        let outputs: Vec<Arc<SimulationOutput>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (machine, profile) = (&machine, &profile);
                    scope.spawn(move || {
                        simulate_profile_cached_traced(
                            machine,
                            profile,
                            SimulationLength::Instructions(15_000),
                            pass[i % pass.len()],
                            &pass,
                        )
                        .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, out) in outputs.iter().enumerate().skip(pass.len()) {
            assert!(Arc::ptr_eq(&outputs[i - pass.len()], out));
        }
        let stats = timing_cache_stats();
        assert_eq!(stats.misses, 1, "one thread simulated");
        assert_eq!(stats.hits, 7, "the rest shared it");
    }

    #[test]
    fn traced_lookup_reports_outcome_and_interval_free_key() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("gzip").unwrap();
        let length = SimulationLength::Instructions(5_000);
        let pass = [1_100, 1_650];
        let (_, first, key_a) =
            simulate_profile_cached_traced(&machine, &profile, length, 1_100, &pass);
        let (_, second, key_b) =
            simulate_profile_cached_traced(&machine, &profile, length, 1_100, &pass);
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(first.as_str(), "miss");
        assert_eq!(key_a, key_b, "same lookup normalizes to the same key");
        assert!(key_a.ends_with("/len=i5000"), "{key_a}");
        // A different interval of the same pass is the same key, and a hit.
        let (_, third, key_c) =
            simulate_profile_cached_traced(&machine, &profile, length, 1_650, &pass);
        assert_eq!(third, CacheOutcome::Hit);
        assert_eq!(key_a, key_c);
        assert!(!key_a.contains("ic="), "{key_a}");
    }

    #[test]
    fn eviction_keeps_recently_used_entries() {
        let _guard = locked();
        clear_timing_cache();
        let machine = MachineConfig::power4_180nm();
        let profile = spec::profile("mesa").unwrap();
        // Fill past capacity using distinct simulation lengths as keys;
        // every lookup names two intervals, which share one entry.
        let n = TIMING_CACHE_CAPACITY as u64 + 8;
        for i in 0..n {
            let length = SimulationLength::Instructions(2_000 + i);
            simulate_profile_cached_traced(&machine, &profile, length, 1_100, &[1_100, 2_000]);
        }
        let stats = timing_cache_stats();
        assert_eq!(stats.misses, n);
        assert!(stats.entries <= TIMING_CACHE_CAPACITY);
        // The most recent key must still be resident at both intervals:
        // re-requesting it is a hit, not a re-simulation.
        let last = SimulationLength::Instructions(2_000 + n - 1);
        simulate_profile_cached(&machine, &profile, last, 1_100);
        simulate_profile_cached(&machine, &profile, last, 2_000);
        assert_eq!(timing_cache_stats().misses, n);
        // The oldest was evicted.
        simulate_profile_cached(
            &machine,
            &profile,
            SimulationLength::Instructions(2_000),
            1_100,
        );
        assert_eq!(timing_cache_stats().misses, n + 1);
    }
}
