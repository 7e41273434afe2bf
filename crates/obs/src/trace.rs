//! Causal trace context: deterministic trace/span identity, propagated
//! alongside the span path stack.
//!
//! A [`TraceCtx`] names a causal tree: a [`TraceId`] derived by FNV-1a
//! from a caller-supplied seed string (a config digest, a request digest —
//! **never** wall-clock or OS entropy), plus the id of the innermost open
//! span. Roots are minted with [`trace_root`]; a scope adopts a context
//! with [`adopt_trace`] (RAII) or [`with_trace`] (closure, used by the
//! executor to re-root worker threads exactly like
//! [`crate::with_root_path`] re-roots their span paths).
//!
//! While a context is current, every [`crate::span!`] that ends is
//! recorded into the bounded span ring ([`crate::ring`]) with its trace,
//! span, and parent ids — nothing is recorded (and nothing is allocated)
//! unless a ring is installed, so disabled tracing costs one relaxed
//! atomic load per span.
//!
//! Span ids are allocated from a per-trace sequence shared through the
//! context (an `Arc<AtomicU64>`), then mixed with the trace id. Given a
//! fixed schedule (serial execution, or any single-threaded region) the
//! ids are fully deterministic; under parallel workers the *numbering*
//! follows job-claim order while the parent/child structure stays
//! schedule-independent. No wall-clock bits ever enter an id.

use crate::ring::{self, CompletedSpan};
use crate::sink;
use std::cell::RefCell;
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

/// Identity of one span within a trace (`0` is reserved for "no parent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw 64-bit id.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
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

/// A propagatable trace context: the trace id, the innermost open span
/// (the parent any new span attaches under), and the shared span-id
/// sequence. Cheap to clone; clones share the sequence.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    trace: TraceId,
    parent: SpanId,
    seq: Arc<AtomicU64>,
}

impl TraceCtx {
    /// The trace this context belongs to.
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// The span new work would attach under (`0` at the root).
    #[must_use]
    pub fn parent_span(&self) -> SpanId {
        self.parent
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// Mints a new root context whose [`TraceId`] is the FNV-1a digest of
/// `seed`. Pass digest-derived strings only (config digests, request
/// digests): the whole point is that re-running the same work yields the
/// same trace id.
#[must_use]
pub fn trace_root(seed: &str) -> TraceCtx {
    let raw = fnv1a_64(seed);
    TraceCtx {
        trace: TraceId(raw.max(1)),
        parent: SpanId(0),
        seq: Arc::new(AtomicU64::new(0)),
    }
}

/// The calling thread's current trace context, if any.
#[must_use]
pub fn current_trace() -> Option<TraceCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// RAII guard restoring the previous thread-local context on drop.
/// Returned by [`adopt_trace`]; hold it (`let _t = …`) for the scope that
/// should run under the context.
#[derive(Debug)]
pub struct TraceScope {
    saved: Option<TraceCtx>,
    active: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.active {
            let saved = self.saved.take();
            CURRENT.with(|c| *c.borrow_mut() = saved);
        }
    }
}

/// Makes `ctx` the calling thread's trace context until the returned
/// guard drops. `None` is a no-op guard, so call sites can write
/// `adopt_trace(enabled.then(|| trace_root(…)))` without branching.
#[must_use]
pub fn adopt_trace(ctx: Option<TraceCtx>) -> TraceScope {
    match ctx {
        Some(ctx) => {
            let saved = CURRENT.with(|c| c.borrow_mut().replace(ctx));
            TraceScope {
                saved,
                active: true,
            }
        }
        None => TraceScope {
            saved: None,
            active: false,
        },
    }
}

/// Runs `f` with `ctx` (cloned) as the current context, restoring the
/// previous one afterwards — the worker-thread twin of
/// [`crate::with_root_path`].
pub fn with_trace<R>(ctx: Option<&TraceCtx>, f: impl FnOnce() -> R) -> R {
    let _scope = adopt_trace(ctx.cloned());
    f()
}

/// Live recording state carried by an open [`crate::SpanGuard`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanToken {
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    start_us: u64,
}

/// Called at span entry. Returns `None` (no recording, no allocation)
/// unless a ring is installed *and* a context is current; otherwise
/// allocates the span's id and pushes it as the thread's parent.
pub(crate) fn enter_span() -> Option<SpanToken> {
    if !ring::tracing_enabled() {
        return None;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let ctx = cur.as_mut()?;
        let n = ctx.seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Mix the per-trace sequence into the trace id so span ids are
        // unique across traces without any entropy source.
        let id = fnv1a_64(&format!("{:016x}.{n}", ctx.trace.0)).max(1);
        let token = SpanToken {
            trace: ctx.trace,
            span: SpanId(id),
            parent: ctx.parent,
            start_us: sink::elapsed_us(),
        };
        ctx.parent = token.span;
        Some(token)
    })
}

/// Called at span end: pops the parent and records the completed span.
/// `alloc_count`/`alloc_bytes` are the span's own-thread allocation
/// deltas (zero when tracking is off); the process live-byte gauge is
/// sampled here so the export can render a memory counter track.
pub(crate) fn exit_span(
    token: SpanToken,
    name: &'static str,
    target: &'static str,
    args: &str,
    dur_ns: u64,
    alloc_count: u64,
    alloc_bytes: u64,
) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            if ctx.trace == token.trace && ctx.parent == token.span {
                ctx.parent = token.parent;
            }
        }
    });
    ring::record(CompletedSpan {
        trace: token.trace.as_u64(),
        span: token.span.as_u64(),
        parent: token.parent.as_u64(),
        name,
        target,
        args: args.to_string(),
        start_us: token.start_us,
        dur_ns,
        thread: sink::thread_id(),
        seq: 0,
        alloc_count,
        alloc_bytes,
        live_bytes: crate::alloc::live_bytes_if_enabled(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_digests() {
        let a = trace_root("study|deadbeef");
        let b = trace_root("study|deadbeef");
        let c = trace_root("study|cafebabe");
        assert_eq!(a.trace_id(), b.trace_id());
        assert_ne!(a.trace_id(), c.trace_id());
        assert_eq!(a.trace_id().to_hex().len(), 16);
        assert_ne!(a.trace_id().as_u64(), 0, "zero is reserved");
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the empty string is the offset basis.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        // Classic test vector.
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn adopt_and_restore_nest() {
        assert!(current_trace().is_none());
        let root = trace_root("t1");
        {
            let _a = adopt_trace(Some(root.clone()));
            assert_eq!(
                current_trace().map(|c| c.trace_id()),
                Some(root.trace_id())
            );
            let inner = trace_root("t2");
            {
                let _b = adopt_trace(Some(inner.clone()));
                assert_eq!(
                    current_trace().map(|c| c.trace_id()),
                    Some(inner.trace_id())
                );
            }
            assert_eq!(
                current_trace().map(|c| c.trace_id()),
                Some(root.trace_id())
            );
        }
        assert!(current_trace().is_none());
    }

    #[test]
    fn none_guard_is_a_no_op() {
        let root = trace_root("outer");
        let _a = adopt_trace(Some(root.clone()));
        {
            let _b = adopt_trace(None);
            assert_eq!(
                current_trace().map(|c| c.trace_id()),
                Some(root.trace_id())
            );
        }
        assert!(current_trace().is_some());
    }

    #[test]
    fn spans_record_causal_links_into_the_ring() {
        ring::install_ring(1024);
        let root = trace_root("record-test");
        let want = root.trace_id().as_u64();
        {
            let _t = adopt_trace(Some(root));
            let outer = crate::span_guard("t", "outer_rec", String::new());
            {
                let inner =
                    crate::span_guard("t", "inner_rec", "cache=hit".to_string());
                drop(inner);
            }
            drop(outer);
        }
        let spans: Vec<_> = ring::ring_snapshot()
            .into_iter()
            .filter(|s| s.trace == want)
            .collect();
        assert_eq!(spans.len(), 2, "both spans recorded");
        let inner = spans.iter().find(|s| s.name == "inner_rec").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer_rec").unwrap();
        assert_eq!(outer.parent, 0, "outer attaches at the trace root");
        assert_eq!(inner.parent, outer.span, "inner nests under outer");
        assert_eq!(inner.args, "cache=hit");
        assert_ne!(inner.span, outer.span);
        // Spans end inner-first, so the ring holds inner before outer.
        assert!(inner.seq < outer.seq);
    }

    #[test]
    fn with_trace_propagates_across_threads() {
        let root = trace_root("xthread");
        let want = root.trace_id();
        let got = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    with_trace(Some(&root), || current_trace().map(|c| c.trace_id()))
                })
                .join()
                .unwrap()
        });
        assert_eq!(got, Some(want));
    }
}
