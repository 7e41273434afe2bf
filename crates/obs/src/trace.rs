//! Causal trace identity: deterministic trace and span ids.
//!
//! A trace is one causal tree of spans. Its [`TraceId`] is the FNV-1a
//! digest of a caller-supplied seed string (a config digest, a request
//! digest — **never** wall-clock or OS entropy). The thread-local span
//! context ([`crate::span`]) carries the current trace as a `TraceCtx`:
//! the trace id, the innermost open traced span (the parent new spans
//! attach under), and the trace's shared span-id sequence. Traces are
//! started only by [`crate::root_trace`] and travel between threads only
//! inside a [`crate::SpanContext`].
//!
//! Span ids are allocated from the per-trace sequence (an
//! `Arc<AtomicU64>` shared by every clone of the context), then mixed
//! with the trace id. Given a fixed schedule (serial execution, or any
//! single-threaded region) the ids are fully deterministic; under
//! parallel workers the *numbering* follows job-claim order while the
//! parent/child structure stays schedule-independent. No wall-clock bits
//! ever enter an id.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of one causal trace, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw 64-bit id (never zero).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The canonical 16-hex-digit rendering.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a 64-bit over a string — the workspace's one FNV-1a: trace and
/// span ids here, benchmark trace seeds, timing-cache fingerprints, and
/// (hex-formatted by `ramp_core::fnv1a_hex`) every config and results
/// digest.
#[must_use]
pub fn fnv1a_64(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The trace half of a span context. Cheap to clone; clones share the
/// span-id sequence.
#[derive(Debug, Clone)]
pub(crate) struct TraceCtx {
    pub(crate) trace: TraceId,
    /// The innermost open traced span (`0` at the root).
    pub(crate) parent: u64,
    seq: Arc<AtomicU64>,
}

impl TraceCtx {
    /// A root context whose [`TraceId`] is the FNV-1a digest of `seed`:
    /// re-running the same work yields the same trace id.
    pub(crate) fn root(seed: &str) -> Self {
        TraceCtx {
            trace: TraceId(fnv1a_64(seed).max(1)),
            parent: 0,
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The next span id of this trace (never zero).
    pub(crate) fn next_span_id(&self) -> u64 {
        let n = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Mix the per-trace sequence into the trace id so span ids are
        // unique across traces without any entropy source.
        fnv1a_64(&format!("{:016x}.{n}", self.trace.0)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_digests() {
        let a = TraceCtx::root("study|deadbeef");
        let b = TraceCtx::root("study|deadbeef");
        let c = TraceCtx::root("study|cafebabe");
        assert_eq!(a.trace, b.trace);
        assert_ne!(a.trace, c.trace);
        assert_eq!(a.trace.to_hex().len(), 16);
        assert_ne!(a.trace.as_u64(), 0, "zero is reserved");
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        // Classic test vector.
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
