//! The benchmark's own span recorder, used only in the traced run.
//!
//! Spans are recorded around the benchmark's calls into the program: the
//! run, each operation, each request, and each layer-probe call. They are
//! kept in memory and written once when the run ends. A span's self time
//! is its duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `NONE` is the parent of root spans.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; a no-op returning `NONE` when tracing is off.
    pub fn begin(&self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store lock")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent, 0);
        let r = f(id);
        self.end(id);
        r
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn self_times(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span store lock");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if s.parent != NONE {
                children[s.parent].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_len(&mut children[i]);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// All spans as JSON lines: name, start, end (ns since the run
    /// began), parent index, and request id.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span store lock");
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// Total length covered by a set of (possibly overlapping) intervals:
/// children on different worker threads may overlap each other.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}
