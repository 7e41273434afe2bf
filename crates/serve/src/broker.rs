//! The request broker: coalesces identical in-flight work.
//!
//! Requests sharing a config digest (the [`ramp_core::QueryEngine`]
//! cache key) must cost one pipeline execution, no matter how many
//! arrive concurrently. The first request for a digest becomes the
//! *leader* and owns enqueueing the execution; every later request for
//! the same digest, arriving before the leader's result lands, becomes a
//! *follower* and blocks on the shared [`Flight`] instead.
//!
//! The server completes a flight only **after** inserting the result
//! into the cache, so there is no window in which a digest is neither
//! in-flight nor cached: a request either joins the flight or hits the
//! cache, and exactly one execution ever happens per digest (while it
//! stays cached).

use crate::ServeError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The outcome slot one coalesced group shares: the serialized response
/// payload, or the error that befell the leader.
#[derive(Debug)]
pub struct Flight { // ramp-lint:allow(atomic-ordering) -- one-shot coalescing slot; atomics are a Relaxed waiter tally

    state: Mutex<Option<Result<Arc<str>, ServeError>>>,
    done: Condvar,
    /// Trace id of the leading request (0 when tracing is off), so a
    /// follower's wait span can name the trace doing its work.
    leader_trace: AtomicU64,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            done: Condvar::new(),
            leader_trace: AtomicU64::new(0),
        }
    }

    /// Trace id of the request leading this flight, 0 when the leader
    /// carried no causal trace.
    #[must_use]
    pub fn leader_trace(&self) -> u64 {
        self.leader_trace.load(Ordering::Relaxed)
    }

    /// Publishes the outcome and wakes every waiter.
    fn complete(&self, outcome: Result<Arc<str>, ServeError>) {
        let mut slot = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(outcome);
        self.done.notify_all();
    }

    /// Blocks until the leader publishes, then returns a copy of the
    /// outcome. Waiters that have already been satisfied return
    /// immediately; a waiter abandoned by its client simply never calls
    /// this (the flight completes regardless — cancellation-safe).
    pub fn wait(&self) -> Result<Arc<str>, ServeError> {
        let mut slot = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while slot.is_none() {
            slot = self
                .done
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        slot.as_ref()
            .expect("loop exits only when the slot is filled") // ramp-lint:allow(panic-hygiene) -- guarded by the wait loop above
            .clone()
    }
}

/// Whether this request leads or follows its coalesced group.
#[derive(Debug)]
pub enum Role {
    /// First request for the digest: must enqueue the execution and then
    /// wait on the flight like everyone else.
    Leader(Arc<Flight>),
    /// A later request: only waits.
    Follower(Arc<Flight>),
}

/// Tracks one [`Flight`] per in-flight digest.
///
/// Uses a `BTreeMap` (not a hash map) so iteration order — and therefore
/// anything derived from it, like metrics dumps — is deterministic, per
/// the workspace determinism policy.
#[derive(Debug, Default)]
pub struct Broker {
    inflight: Mutex<BTreeMap<String, Arc<Flight>>>,
}

impl Broker {
    /// Creates an empty broker.
    #[must_use]
    pub fn new() -> Self {
        Broker::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Flight>>> {
        self.inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Joins the flight for `digest`, creating it (and electing the
    /// caller leader) if none is in flight.
    #[must_use]
    pub fn join_or_lead(&self, digest: &str) -> Role {
        let mut map = self.lock();
        if let Some(flight) = map.get(digest) {
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        flight.leader_trace.store(
            ramp_obs::current_context()
                .trace_id()
                .map_or(0, ramp_obs::TraceId::as_u64),
            Ordering::Relaxed,
        );
        map.insert(digest.to_string(), Arc::clone(&flight));
        Role::Leader(flight)
    }

    /// Publishes the outcome for `digest` and retires the flight. Call
    /// only after the result has been made cache-visible, so late
    /// requests can never slip between flight removal and cache insert.
    pub fn complete(&self, digest: &str, outcome: Result<Arc<str>, ServeError>) {
        let flight = self.lock().remove(digest);
        if let Some(flight) = flight {
            flight.complete(outcome);
        }
    }

    /// Number of digests currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_joiner_leads_rest_follow() {
        let broker = Broker::new();
        let Role::Leader(lead) = broker.join_or_lead("d1") else {
            panic!("first join must lead");
        };
        assert!(matches!(broker.join_or_lead("d1"), Role::Follower(_)));
        assert!(matches!(broker.join_or_lead("d2"), Role::Leader(_)));
        assert_eq!(broker.in_flight(), 2);
        broker.complete("d1", Ok(Arc::from("x")));
        assert_eq!(lead.wait().unwrap().as_ref(), "x");
        assert_eq!(broker.in_flight(), 1);
        // A fresh request for a completed digest leads a new flight.
        assert!(matches!(broker.join_or_lead("d1"), Role::Leader(_)));
    }

    #[test]
    fn followers_all_observe_the_leaders_outcome() {
        let broker = Arc::new(Broker::new());
        let followers = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let mut waiters = Vec::new();
            let Role::Leader(lead) = broker.join_or_lead("digest") else {
                panic!("first join must lead");
            };
            for _ in 0..8 {
                let role = broker.join_or_lead("digest");
                let Role::Follower(flight) = role else {
                    panic!("later joins must follow");
                };
                followers.fetch_add(1, Ordering::Relaxed);
                waiters.push(scope.spawn(move || flight.wait()));
            }
            broker.complete("digest", Ok(Arc::from("answer")));
            for w in waiters {
                assert_eq!(w.join().unwrap().unwrap().as_ref(), "answer");
            }
            assert_eq!(lead.wait().unwrap().as_ref(), "answer");
        });
        assert_eq!(followers.load(Ordering::Relaxed), 8);
        assert_eq!(broker.in_flight(), 0);
    }

    #[test]
    fn errors_propagate_to_every_waiter() {
        let broker = Broker::new();
        let Role::Leader(lead) = broker.join_or_lead("bad") else {
            panic!("first join must lead");
        };
        let Role::Follower(follow) = broker.join_or_lead("bad") else {
            panic!("second join must follow");
        };
        broker.complete(
            "bad",
            Err(ServeError::Overloaded { queue_capacity: 4 }),
        );
        assert_eq!(
            lead.wait().unwrap_err(),
            ServeError::Overloaded { queue_capacity: 4 }
        );
        assert_eq!(
            follow.wait().unwrap_err(),
            ServeError::Overloaded { queue_capacity: 4 }
        );
    }

    #[test]
    fn leaders_trace_id_is_visible_to_followers() {
        ramp_obs::install_trace(None, 1024);
        let broker = Broker::new();
        let _t = ramp_obs::root_trace(|| "broker-leader-trace-test".to_string());
        let want = ramp_obs::current_context()
            .trace_id()
            .expect("tracing is on")
            .as_u64();
        let Role::Leader(lead) = broker.join_or_lead("traced") else {
            panic!("first join must lead");
        };
        assert_eq!(lead.leader_trace(), want);
        let Role::Follower(follow) = broker.join_or_lead("traced") else {
            panic!("second join must follow");
        };
        assert_eq!(follow.leader_trace(), want);
        broker.complete("traced", Ok(Arc::from("x")));
    }

    #[test]
    fn completing_an_unknown_digest_is_a_noop() {
        let broker = Broker::new();
        broker.complete("ghost", Ok(Arc::from("x")));
        assert_eq!(broker.in_flight(), 0);
    }
}
