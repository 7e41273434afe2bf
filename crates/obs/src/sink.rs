//! Event sinks: where spans and log events go.
//!
//! Two sinks ship with the crate: a pretty-printing stderr sink filtered
//! by `RAMP_LOG`, and a JSONL writer that appends one JSON object per
//! event to a file (path from `RAMP_EVENTS` or an explicit install).
//! Any number of additional [`Sink`] implementations can be attached with
//! [`add_sink`] (tests use in-memory collectors).
//!
//! Timestamps exist **only** here: events carry microseconds since
//! process start, and the JSONL stream opens with a `run_start` record
//! holding the wall-clock epoch. Nothing timestamped ever flows into
//! `StudyResults`, preserving the byte-identity guarantee.

use crate::level::{Filter, Level};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A formatted log message.
    Message,
    /// A span was entered.
    SpanStart,
    /// A span finished; `duration_ns` is set.
    SpanEnd,
}

impl EventKind {
    /// Stable lower-snake name used in the JSONL `type` field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Message => "event",
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
        }
    }
}

/// One observable record, borrowed from the emission site.
#[derive(Debug, Clone)]
pub struct Event<'a> {
    /// Record kind.
    pub kind: EventKind,
    /// Severity (span records are [`Level::Debug`]).
    pub level: Level,
    /// Module path of the emitting code.
    pub target: &'a str,
    /// Span name (`""` for messages).
    pub name: &'a str,
    /// Current span path (`""` outside any span).
    pub path: &'a str,
    /// Message text, or span detail string.
    pub message: &'a str,
    /// Span duration (span-end records only).
    pub duration_ns: Option<u64>,
    /// Global sequence number.
    pub seq: u64,
    /// Microseconds since process observability start.
    pub elapsed_us: u64,
    /// Small per-process thread identifier.
    pub thread: u64,
}

/// A destination for events.
pub trait Sink: Send + Sync {
    /// Whether this sink wants message events at `level` from `target`.
    /// Span records bypass this check (sinks decide in [`Sink::on_event`]).
    fn enabled(&self, level: Level, target: &str) -> bool;

    /// The most verbose message level this sink could accept (drives the
    /// global fast-path check).
    fn max_level(&self) -> Option<Level>;

    /// Receives one event.
    fn on_event(&self, event: &Event<'_>);

    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());
/// Cached max of all sinks' `max_level` (0 = none installed).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
static HAVE_SINKS: AtomicU8 = AtomicU8::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static EVENT_FILE: Mutex<Option<PathBuf>> = Mutex::new(None);

fn clock_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Microseconds since the observability clock started (first use).
#[must_use]
pub fn elapsed_us() -> u64 {
    clock_start().elapsed().as_micros() as u64
}

pub(crate) fn next_seq() -> u64 {
    SEQ.fetch_add(1, Ordering::Relaxed)
}

pub(crate) fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

fn sinks() -> std::sync::RwLockReadGuard<'static, Vec<Arc<dyn Sink>>> {
    SINKS.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn recompute_caches(list: &[Arc<dyn Sink>]) {
    let max = list
        .iter()
        .filter_map(|s| s.max_level())
        .max()
        .map_or(0, Level::as_u8);
    MAX_LEVEL.store(max, Ordering::Relaxed);
    HAVE_SINKS.store(u8::from(!list.is_empty()), Ordering::Relaxed);
}

/// Attaches a sink.
pub fn add_sink(sink: Arc<dyn Sink>) {
    let mut list = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    list.push(sink);
    recompute_caches(&list);
}

/// Removes every sink and forgets the recorded event-file path (tests).
pub fn reset_sinks() {
    let mut list = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for s in list.iter() {
        s.flush();
    }
    list.clear();
    recompute_caches(&list);
    *EVENT_FILE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Flushes every sink (call before reading a JSONL file back).
pub fn flush() {
    for s in sinks().iter() {
        s.flush();
    }
}

/// The JSONL file most recently installed via [`install_jsonl`] /
/// `RAMP_EVENTS`, if any.
#[must_use]
pub fn event_file_path() -> Option<PathBuf> {
    EVENT_FILE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Whether a message event at `level` from `target` would reach any sink.
///
/// With **no sinks installed**, warnings and errors still report enabled —
/// they fall back to a bare stderr line so misconfiguration is never
/// silently swallowed in uninitialised library use.
#[must_use]
pub fn enabled(level: Level, target: &str) -> bool {
    if HAVE_SINKS.load(Ordering::Relaxed) == 0 {
        return level <= Level::Warn;
    }
    if level.as_u8() > MAX_LEVEL.load(Ordering::Relaxed) {
        return false;
    }
    sinks().iter().any(|s| s.enabled(level, target))
}

/// Whether any sink is installed at all (spans skip serialization work
/// when not).
#[must_use]
pub fn any_sink() -> bool {
    HAVE_SINKS.load(Ordering::Relaxed) != 0
}

/// Sends a fully-formed event to every sink. Message events are filtered
/// per sink; span records go to every sink.
pub(crate) fn dispatch(event: &Event<'_>) {
    let list = sinks();
    if list.is_empty() {
        if event.kind == EventKind::Message && event.level <= Level::Warn {
            eprintln!("[{:>5} {}] {}", event.level, event.target, event.message);
        }
        return;
    }
    for s in list.iter() {
        match event.kind {
            EventKind::Message => {
                if s.enabled(event.level, event.target) {
                    s.on_event(event);
                }
            }
            _ => s.on_event(event),
        }
    }
}

/// Formats and dispatches one message event (the macros' entry point).
pub fn emit(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    if !enabled(level, target) {
        return;
    }
    let message = args.to_string();
    let context = crate::span::current_context();
    dispatch(&Event {
        kind: EventKind::Message,
        level,
        target,
        name: "",
        path: context.path(),
        message: &message,
        duration_ns: None,
        seq: next_seq(),
        elapsed_us: elapsed_us(),
        thread: thread_id(),
    });
}

// ---------------------------------------------------------------------------
// Stderr sink
// ---------------------------------------------------------------------------

/// Human-readable sink writing to stderr, filtered by a [`Filter`].
/// Span-start records are suppressed; span ends print at debug level.
#[derive(Debug)]
pub struct StderrSink {
    filter: Filter,
}

impl StderrSink {
    /// Creates a stderr sink with the given filter.
    #[must_use]
    pub fn new(filter: Filter) -> Self {
        StderrSink { filter }
    }

    /// Renders one event the way it would appear on stderr (exposed so
    /// tests can check formatting without capturing the stream).
    #[must_use]
    pub fn format(event: &Event<'_>) -> String {
        match event.kind {
            EventKind::Message => {
                if event.path.is_empty() {
                    format!("[{:>5} {}] {}", event.level, event.target, event.message)
                } else {
                    format!(
                        "[{:>5} {}] ({}) {}",
                        event.level, event.target, event.path, event.message
                    )
                }
            }
            EventKind::SpanStart => format!("[debug span] > {}", event.path),
            EventKind::SpanEnd => {
                let ms = event.duration_ns.unwrap_or(0) as f64 / 1e6;
                if event.message.is_empty() {
                    format!("[debug span] < {} {ms:.3} ms", event.path)
                } else {
                    format!("[debug span] < {} {{{}}} {ms:.3} ms", event.path, event.message)
                }
            }
        }
    }
}

impl Sink for StderrSink {
    fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    fn max_level(&self) -> Option<Level> {
        self.filter.max_level()
    }

    fn on_event(&self, event: &Event<'_>) {
        match event.kind {
            EventKind::SpanStart => {}
            EventKind::SpanEnd => {
                if self.filter.enabled(Level::Debug, event.target) {
                    eprintln!("{}", Self::format(event));
                }
            }
            EventKind::Message => eprintln!("{}", Self::format(event)),
        }
    }
}

/// Installs a stderr sink with the given filter.
pub fn install_stderr(filter: Filter) {
    add_sink(Arc::new(StderrSink::new(filter)));
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

/// Appends the JSON escape of `s` (with surrounding quotes) to `out`.
pub(crate) fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Machine-readable sink: one JSON object per line.
///
/// Message events are filtered by the sink's own [`Filter`]; span records
/// are always written. The first line of the stream is a `run_start`
/// record carrying the wall-clock epoch in Unix milliseconds, so offline
/// consumers can reconstruct absolute times from the per-event
/// `elapsed_us` monotonic stamps.
pub struct JsonlSink {
    filter: Filter,
    writer: Mutex<BufWriter<File>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("filter", &self.filter).finish()
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path` and writes the `run_start`
    /// header record.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or written.
    pub fn create(path: &Path, filter: Filter) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        writeln!(
            writer,
            "{{\"type\":\"run_start\",\"unix_ms\":{unix_ms},\"elapsed_us\":{}}}",
            elapsed_us()
        )?;
        Ok(JsonlSink {
            filter,
            writer: Mutex::new(writer),
        })
    }

    fn encode(event: &Event<'_>) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"type\":");
        write_json_str(&mut out, event.kind.as_str());
        out.push_str(",\"seq\":");
        out.push_str(&event.seq.to_string());
        out.push_str(",\"elapsed_us\":");
        out.push_str(&event.elapsed_us.to_string());
        out.push_str(",\"thread\":");
        out.push_str(&event.thread.to_string());
        out.push_str(",\"level\":");
        write_json_str(&mut out, event.level.as_str());
        out.push_str(",\"target\":");
        write_json_str(&mut out, event.target);
        if !event.path.is_empty() {
            out.push_str(",\"path\":");
            write_json_str(&mut out, event.path);
        }
        if !event.name.is_empty() {
            out.push_str(",\"name\":");
            write_json_str(&mut out, event.name);
        }
        match event.kind {
            EventKind::Message => {
                out.push_str(",\"message\":");
                write_json_str(&mut out, event.message);
            }
            _ => {
                if !event.message.is_empty() {
                    out.push_str(",\"detail\":");
                    write_json_str(&mut out, event.message);
                }
            }
        }
        if let Some(ns) = event.duration_ns {
            out.push_str(",\"dur_us\":");
            // Microsecond resolution with three decimals keeps files small
            // while preserving sub-µs span costs.
            out.push_str(&format!("{:.3}", ns as f64 / 1e3));
        }
        out.push('}');
        out
    }
}

impl Sink for JsonlSink {
    fn enabled(&self, level: Level, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    fn max_level(&self) -> Option<Level> {
        self.filter.max_level()
    }

    fn on_event(&self, event: &Event<'_>) {
        let line = Self::encode(event);
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = w.flush();
    }
}

/// Creates and installs a JSONL sink writing to `path`, and records the
/// path for [`event_file_path`] (what run manifests reference).
///
/// # Errors
///
/// Returns the I/O error if the file cannot be created.
pub fn install_jsonl(path: &Path, filter: Filter) -> std::io::Result<()> {
    let sink = JsonlSink::create(path, filter)?;
    *EVENT_FILE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(path.to_path_buf());
    add_sink(Arc::new(sink));
    Ok(())
}
