//! Deterministic parallel sweep executor.
//!
//! Every grid walk in the workspace (the 16 × 5 study, the figure/table
//! binaries, sensitivity sweeps, calibration) fans its independent jobs
//! over this executor. Work is distributed dynamically — workers pull the
//! next job index from a shared atomic counter — but every result carries
//! its input index and the output is reassembled in input order, so the
//! returned `Vec` is **identical for any thread count**, including 1.
//!
//! The thread count comes from [`Executor::from_env`] in normal use: the
//! `RAMP_THREADS` environment variable when set to a positive integer,
//! otherwise [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker thread count.
pub const THREADS_ENV: &str = "RAMP_THREADS";

/// A scoped worker pool that maps closures over job slices in
/// deterministic (input) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// An executor honouring `RAMP_THREADS` when set to a positive
    /// integer, defaulting to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Executor::new(n),
                _ => {
                    ramp_obs::warn!(
                        "ignoring {THREADS_ENV}={raw:?} (want a positive integer)"
                    );
                    Executor::new(Self::default_threads())
                }
            },
            Err(_) => Executor::new(Self::default_threads()),
        }
    }

    /// The fallback thread count when `RAMP_THREADS` is unset.
    #[must_use]
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    }

    /// The worker count this executor fans out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in input
    /// order regardless of which worker ran which item.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`Executor::map`] but the closure also receives the item's
    /// input index (useful for labelling progress output).
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n.max(1));
        let queue_depth = ramp_obs::gauge("executor.queue_depth");
        let in_flight = ramp_obs::gauge("executor.in_flight");
        let jobs_completed = ramp_obs::counter("executor.jobs_completed");
        ramp_obs::gauge("executor.workers").set(workers as f64);
        queue_depth.set(n as f64);
        if workers <= 1 {
            // The serial path still runs under a `worker` span so the
            // aggregated span tree keeps the same shape for any
            // RAMP_THREADS value.
            let mut span = ramp_obs::span!("worker");
            let out: Vec<R> = items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    queue_depth.add(-1.0);
                    let r = f(i, t);
                    jobs_completed.incr();
                    r
                })
                .collect();
            span.set_detail(format!("jobs={n}"));
            return out;
        }

        // Workers adopt the caller's span context (its path and, when
        // causal tracing is on, its trace) so their spans aggregate under
        // the same tree node and link into the same trace, whichever OS
        // thread ran which job.
        let parent = ramp_obs::current_context();
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        ramp_obs::with_context(&parent, || {
                            let mut span = ramp_obs::span!("worker");
                            in_flight.add(1.0);
                            // Workers keep results local and merge once at
                            // the end, so the shared lock is uncontended.
                            let mut local: Vec<(usize, R)> = Vec::new();
                            loop {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                if idx >= n {
                                    break;
                                }
                                queue_depth.add(-1.0);
                                // ramp-lint:allow(panic-reach) -- `idx` comes from the shared counter and is checked against `items.len()`
                                local.push((idx, f(idx, &items[idx])));
                                jobs_completed.incr();
                            }
                            span.set_detail(format!("jobs={}", local.len()));
                            in_flight.add(-1.0);
                            collected
                                .lock()
                                .expect("no worker holds the lock across a panic") // ramp-lint:allow(panic-hygiene) -- lock poisoning implies a worker already panicked
                                .append(&mut local);
                        });
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("executor worker panicked"); // ramp-lint:allow(panic-hygiene) -- worker panics must propagate, not vanish
            }
        });

        let mut pairs = collected.into_inner().expect("all workers joined"); // ramp-lint:allow(panic-hygiene) -- all workers joined above
        debug_assert_eq!(pairs.len(), n, "every job produced exactly one result");
        // Reassemble in input order: this is what makes the output
        // independent of scheduling.
        pairs.sort_unstable_by_key(|(idx, _)| *idx);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let items: Vec<u64> = (0..100).collect();
            let out = Executor::new(threads).map(&items, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn map_indexed_sees_true_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = Executor::new(3).map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let serial = Executor::new(1).map(&items, f);
        for threads in [2, 5, 16] {
            assert_eq!(Executor::new(threads).map(&items, f), serial);
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = Executor::new(8).map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_more_threads_than_items() {
        let items = vec![1u32, 2];
        assert_eq!(Executor::new(16).map(&items, |&x| x + 1), vec![2, 3]);
    }

    #[test]
    fn workers_adopt_the_callers_span_context() {
        ramp_obs::install_trace(None, 4096);
        let _t = ramp_obs::root_trace(|| "executor-trace-test".to_string());
        let want = ramp_obs::current_context()
            .trace_id()
            .expect("tracing is on")
            .as_u64();
        {
            let outer = ramp_obs::span!("executor_context_test");
            let items: Vec<u64> = (0..32).collect();
            let _ = Executor::new(4).map(&items, |&x| x + 1);
            drop(outer);
        }
        let workers: Vec<_> = ramp_obs::ring_snapshot()
            .into_iter()
            .filter(|s| s.trace == want && s.name == "worker")
            .collect();
        assert!(
            !workers.is_empty(),
            "worker spans recorded into the caller's trace"
        );
        assert!(
            workers.iter().all(|s| s.parent != 0),
            "worker spans attach under the caller's open span, not the root"
        );
        let aggregated = ramp_obs::span_stats()
            .into_iter()
            .find(|s| s.path == "executor_context_test/worker")
            .map(|s| s.count);
        assert_eq!(
            aggregated,
            Some(4),
            "all four worker spans aggregate under the caller's span path"
        );
    }
}
