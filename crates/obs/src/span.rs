//! Spans and the span context they nest in.
//!
//! A [`SpanGuard`] times the region between its creation and its
//! [`finish`](SpanGuard::finish) (or drop). Each thread keeps one span
//! context: the `/`-joined path of its open spans and, while causal
//! tracing is on, the trace they belong to. Entering a span pushes its
//! name onto the path and, if a trace is current, its span id as the
//! trace's parent, in one borrow; ending it pops both. The span named
//! `"timing"` created inside `"run"` inside `"study"` has the path
//! `study/run/timing`. On end, every span is folded into the profile
//! registry ([`crate::profile`]), recorded into the span ring when traced
//! ([`crate::ring`]), and dispatched to the sinks as a `span_end` event.
//!
//! The context is thread-local, so work handed to another thread (the
//! executor's workers) or run later on one (the serve dispatcher's jobs)
//! takes it along: [`current_context`] captures the path and the trace
//! together and [`with_context`] runs a closure under them. The stage
//! tree and the causal tree then agree on where that work belongs, for
//! any `RAMP_THREADS`. [`root_trace`] is the one place a trace starts.

use crate::level::Level;
use crate::ring::{self, CompletedSpan};
use crate::sink::{self, Event, EventKind};
use crate::trace::{TraceCtx, TraceId};
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context { path: String::new(), marks: Vec::new(), trace: None })
    };
}

struct Context {
    /// `/`-joined span names, e.g. `study/run/timing`.
    path: String,
    /// Length of `path` before each push, for O(1) pops.
    marks: Vec<usize>,
    /// The trace new spans join (`None` while tracing is off or no trace
    /// was rooted or adopted).
    trace: Option<TraceCtx>,
}

/// A thread's place in the span tree — its span path and, when tracing,
/// its causal trace and innermost traced span — captured by
/// [`current_context`] for [`with_context`] to adopt elsewhere.
#[derive(Debug, Clone)]
pub struct SpanContext {
    path: String,
    trace: Option<TraceCtx>,
}

impl SpanContext {
    /// The `/`-joined path of the open spans (`""` outside any span).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The causal trace, if one is current.
    #[must_use]
    pub fn trace_id(&self) -> Option<TraceId> {
        self.trace.as_ref().map(|t| t.trace)
    }
}

/// The calling thread's span context.
#[must_use]
pub fn current_context() -> SpanContext {
    CONTEXT.with(|c| {
        let c = c.borrow();
        SpanContext {
            path: c.path.clone(),
            trace: c.trace.clone(),
        }
    })
}

/// Runs `f` with this thread's span context replaced by `ctx`, restoring
/// the previous one afterwards (also on unwind). Spans `f` opens nest
/// under `ctx`'s path and, when it carries a trace, under its innermost
/// traced span.
///
/// The executor captures [`current_context`] before fan-out and each
/// worker runs its loop under it; the serve dispatcher runs each job
/// under the context of the request that admitted it.
pub fn with_context<R>(ctx: &SpanContext, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Context>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(saved) = self.0.take() {
                CONTEXT.with(|c| *c.borrow_mut() = saved);
            }
        }
    }
    let adopted = Context {
        path: ctx.path.clone(),
        marks: Vec::new(),
        trace: ctx.trace.clone(),
    };
    let _restore = Restore(Some(CONTEXT.with(|c| c.replace(adopted))));
    f()
}

/// Guard returned by [`root_trace`]: ends the rooted trace on drop (a
/// no-op when nothing was rooted). Hold it (`let _trace = …`) for the
/// scope the trace should cover.
#[derive(Debug)]
#[must_use]
pub struct TraceScope {
    rooted: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.rooted {
            CONTEXT.with(|c| c.borrow_mut().trace = None);
        }
    }
}

/// Roots a causal trace for the calling scope, seeded by `seed()` — only
/// when tracing is on and no trace is current. Otherwise `seed` never
/// runs (an untraced run formats nothing) and spans keep joining the
/// current trace, so a query evaluated for a served request lands in
/// that request's trace.
///
/// Pass digest-derived seeds only (config digests, request digests): the
/// same work must yield the same trace id.
pub fn root_trace(seed: impl FnOnce() -> String) -> TraceScope {
    let rooted = ring::tracing_enabled() && CONTEXT.with(|c| c.borrow().trace.is_none());
    if rooted {
        let root = TraceCtx::root(&seed());
        CONTEXT.with(|c| c.borrow_mut().trace = Some(root));
    }
    TraceScope { rooted }
}

/// Causal identity of a traced span, recorded into the ring on end.
#[derive(Debug)]
struct TracedSpan {
    trace: TraceId,
    span: u64,
    parent: u64,
    start_us: u64,
}

/// An active span. Create with [`span_guard`] or the [`span!`](crate::span!)
/// macro; end explicitly with [`finish`](SpanGuard::finish) to get the
/// duration, or let it drop.
#[derive(Debug)]
pub struct SpanGuard {
    target: &'static str,
    name: &'static str,
    detail: String,
    path: String,
    start: Instant,
    finished: bool,
    /// `Some` only when tracing was on and a trace was current at entry.
    traced: Option<TracedSpan>,
    /// This thread's allocation counters at entry: `Some` only while
    /// allocation tracking is on (see [`crate::alloc_stats`]). Diffed on
    /// end to attribute heap churn to the span.
    alloc_start: Option<crate::alloc::ThreadAllocSnapshot>,
}

impl SpanGuard {
    /// Time elapsed since the span started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The span's full `/`-joined path.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Replaces the detail string attached to the `span_end` event.
    pub fn set_detail(&mut self, detail: String) {
        self.detail = detail;
    }

    /// Ends the span and returns its duration.
    pub fn finish(mut self) -> Duration {
        self.end()
    }

    fn end(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if self.finished {
            return dur;
        }
        self.finished = true;
        // Measure the allocation delta before any end-of-span bookkeeping
        // below allocates (profile registry, ring record, sink dispatch):
        // that machinery belongs to the *enclosing* span, not this one.
        let (alloc_count, alloc_bytes) = match self.alloc_start.take() {
            Some(start) => {
                let now = crate::alloc::thread_alloc_snapshot();
                (
                    now.allocs.saturating_sub(start.allocs),
                    now.bytes.saturating_sub(start.bytes),
                )
            }
            None => (0, 0),
        };
        let traced = self.traced.take();
        CONTEXT.with(|c| {
            let mut c = c.borrow_mut();
            if let Some(mark) = c.marks.pop() {
                c.path.truncate(mark);
            }
            if let (Some(ctx), Some(t)) = (c.trace.as_mut(), &traced) {
                if ctx.trace == t.trace && ctx.parent == t.span {
                    ctx.parent = t.parent;
                }
            }
        });
        crate::profile::record_span(&self.path, dur, alloc_count, alloc_bytes);
        if let Some(t) = traced {
            ring::record(CompletedSpan {
                trace: t.trace.as_u64(),
                span: t.span,
                parent: t.parent,
                name: self.name,
                target: self.target,
                args: self.detail.clone(),
                start_us: t.start_us,
                dur_ns: dur.as_nanos() as u64,
                thread: sink::thread_id(),
                seq: 0,
                alloc_count,
                alloc_bytes,
                live_bytes: crate::alloc::live_bytes_if_enabled(),
            });
        }
        if sink::any_sink() {
            sink::dispatch(&Event {
                kind: EventKind::SpanEnd,
                level: Level::Debug,
                target: self.target,
                name: self.name,
                path: &self.path,
                message: &self.detail,
                duration_ns: Some(dur.as_nanos() as u64),
                seq: sink::next_seq(),
                elapsed_us: sink::elapsed_us(),
                thread: sink::thread_id(),
            });
        }
        dur
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.end();
    }
}

/// Enters a span named `name` under the current thread's span context,
/// emitting a `span_start` event. Prefer the [`span!`](crate::span!)
/// macro, which fills in `target` from `module_path!()`.
#[must_use]
pub fn span_guard(target: &'static str, name: &'static str, detail: String) -> SpanGuard {
    let tracing = ring::tracing_enabled();
    let (path, traced) = CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let mark = c.path.len();
        c.marks.push(mark);
        if mark > 0 {
            c.path.push('/');
        }
        c.path.push_str(name);
        let path = c.path.clone();
        let traced = match c.trace.as_mut() {
            Some(ctx) if tracing => {
                let span = ctx.next_span_id();
                let parent = std::mem::replace(&mut ctx.parent, span);
                Some(TracedSpan {
                    trace: ctx.trace,
                    span,
                    parent,
                    start_us: sink::elapsed_us(),
                })
            }
            _ => None,
        };
        (path, traced)
    });
    if sink::any_sink() {
        sink::dispatch(&Event {
            kind: EventKind::SpanStart,
            level: Level::Debug,
            target,
            name,
            path: &path,
            message: &detail,
            duration_ns: None,
            seq: sink::next_seq(),
            elapsed_us: sink::elapsed_us(),
            thread: sink::thread_id(),
        });
    }
    // Snapshot allocation counters *last* so the span-entry machinery
    // above (path clone, span id derivation, sink dispatch) is charged
    // to the enclosing span rather than this one.
    let alloc_start = crate::alloc::alloc_tracking_enabled()
        .then(crate::alloc::thread_alloc_snapshot);
    SpanGuard {
        target,
        name,
        detail,
        path,
        start: Instant::now(),
        finished: false,
        traced,
        alloc_start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_now() -> String {
        current_context().path().to_string()
    }

    fn trace_now() -> Option<TraceId> {
        current_context().trace_id()
    }

    fn seed_id(seed: &str) -> TraceId {
        TraceCtx::root(seed).trace
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let outer = span_guard("t", "outer", String::new());
        assert_eq!(outer.path(), "outer");
        {
            let inner = span_guard("t", "inner", String::new());
            assert_eq!(inner.path(), "outer/inner");
            assert_eq!(path_now(), "outer/inner");
        }
        assert_eq!(path_now(), "outer");
        let dur = outer.finish();
        assert!(dur >= Duration::ZERO);
        assert_eq!(path_now(), "");
    }

    #[test]
    fn with_context_adopts_and_restores() {
        let run = {
            let _study = span_guard("t", "study", String::new());
            let _run = span_guard("t", "run", String::new());
            current_context()
        };
        let outer = span_guard("t", "alpha", String::new());
        with_context(&run, || {
            let s = span_guard("t", "beta", String::new());
            assert_eq!(s.path(), "study/run/beta");
        });
        assert_eq!(path_now(), "alpha");
        drop(outer);
    }

    #[test]
    fn finish_is_idempotent_with_drop() {
        let s = span_guard("t", "once", String::new());
        let _ = s.finish();
        // Dropping after finish must not double-pop someone else's frame.
        let other = span_guard("t", "other", String::new());
        assert_eq!(other.path(), "other");
    }

    #[test]
    fn adopt_and_restore_nest() {
        ring::install_ring(1024);
        assert!(trace_now().is_none());
        let traced = |seed: &'static str| {
            let _t = root_trace(|| seed.to_string());
            current_context()
        };
        let (t1, t2) = (traced("t1"), traced("t2"));
        assert!(trace_now().is_none(), "a root ends with its scope");
        with_context(&t1, || {
            assert_eq!(trace_now(), Some(seed_id("t1")));
            with_context(&t2, || assert_eq!(trace_now(), Some(seed_id("t2"))));
            assert_eq!(trace_now(), Some(seed_id("t1")));
        });
        assert!(trace_now().is_none());
    }

    #[test]
    fn root_trace_under_a_current_trace_is_a_no_op() {
        ring::install_ring(1024);
        let _a = root_trace(|| "outer".to_string());
        {
            let _b = root_trace(|| unreachable!("no seed is formatted under a current trace"));
            assert_eq!(trace_now(), Some(seed_id("outer")));
        }
        assert!(trace_now().is_some());
    }

    #[test]
    fn spans_record_causal_links_into_the_ring() {
        ring::install_ring(1024);
        let want = seed_id("record-test").as_u64();
        {
            let _t = root_trace(|| "record-test".to_string());
            let outer = span_guard("t", "outer_rec", String::new());
            {
                let inner = span_guard("t", "inner_rec", "cache=hit".to_string());
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
    fn with_context_propagates_across_threads() {
        ring::install_ring(1024);
        let _t = root_trace(|| "xthread".to_string());
        let span = span_guard("t", "xthread_parent", String::new());
        let ctx = current_context();
        let got = std::thread::scope(|scope| {
            scope
                .spawn(|| with_context(&ctx, || (trace_now(), path_now())))
                .join()
                .unwrap()
        });
        assert_eq!(
            got,
            (Some(seed_id("xthread")), "xthread_parent".to_string())
        );
        drop(span);
    }
}
