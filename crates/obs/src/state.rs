//! Process-global and per-thread collection state.
//!
//! Every recording call lands in a thread-local [`ThreadBuf`]; the buffer
//! flushes into the process-global sinks when its thread exits (TLS drop)
//! or when [`snapshot`] runs on that thread. Counter and histogram shards
//! merge by integer addition — commutative and associative — so merged
//! totals never depend on thread scheduling or worker count.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{registry_kinds, HistData, HistSummary, MetricKind};

/// A span or event name: almost always a `&'static str`, occasionally
/// formatted (e.g. per-design spans).
pub(crate) type Name = Cow<'static, str>;

/// Soft cap on retained events; beyond it new events are counted but
/// dropped, so a runaway instrumentation loop cannot exhaust memory.
const MAX_EVENTS: usize = 1 << 20;

/// One completed span. Ids are process-global, so a span tree
/// reconstructs by matching `parent` to `id` (`parent` is 0 for a root).
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name.
    pub name: Name,
    /// Stable small thread id (0 = first thread seen).
    pub tid: u64,
    /// Unique span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Start, microseconds since process epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A completed span.
    Span(Span),
    /// A point-in-time measurement or progress message.
    Instant {
        /// Event name.
        name: Name,
        /// Stable small thread id.
        tid: u64,
        /// Enclosing span id (0 = root).
        parent: u64,
        /// Timestamp, microseconds since process epoch.
        ts_us: u64,
        /// Numeric payload, when the event carries one.
        value: Option<f64>,
        /// Text payload (progress lines).
        msg: Option<String>,
    },
}

impl Event {
    /// The event's name.
    pub fn name(&self) -> &str {
        match self {
            Event::Span(Span { name, .. }) | Event::Instant { name, .. } => name,
        }
    }

    /// The span id (0 for instants).
    pub fn id(&self) -> u64 {
        match self {
            Event::Span(s) => s.id,
            Event::Instant { .. } => 0,
        }
    }

    /// The parent span id (0 = root).
    pub fn parent(&self) -> u64 {
        match self {
            Event::Span(Span { parent, .. }) | Event::Instant { parent, .. } => *parent,
        }
    }

    /// Start timestamp in microseconds since the process epoch.
    pub fn ts_us(&self) -> u64 {
        match self {
            Event::Span(Span { ts_us, .. }) | Event::Instant { ts_us, .. } => *ts_us,
        }
    }
}

/// Everything collected so far, merged across threads. Produced by
/// [`crate::snapshot`]; consumed by the [`crate::export`] functions.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All events, ordered by start time.
    pub events: Vec<Event>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Events discarded past the retention cap.
    pub dropped_events: u64,
}

impl Report {
    /// Looks up a counter total.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Looks up a histogram summary.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms.get(name)
    }

    /// Names of all recorded spans, deduplicated.
    pub fn span_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .events
            .iter()
            .filter(|e| matches!(e, Event::Span(_)))
            .map(Event::name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Merged cross-thread sinks.
#[derive(Debug, Default)]
struct Global {
    events: Vec<Event>,
    dropped: u64,
    /// Indexed by metric registry index.
    counters: Vec<u64>,
    hists: Vec<HistData>,
    gauges: Vec<Option<f64>>,
}

static GLOBAL: Mutex<Global> = Mutex::new(Global {
    events: Vec::new(),
    dropped: 0,
    counters: Vec::new(),
    hists: Vec::new(),
    gauges: Vec::new(),
});

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Microseconds since the first observability call in this process.
pub(crate) fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// Trace data drained from one thread: spans tagged with their trace key,
/// plus the per-trace counter shard (if any delta accumulated).
pub(crate) type TraceDrain = (Vec<(u64, Span)>, Option<(u64, Vec<u64>)>);

/// Per-thread trace-span buffer flush threshold: keeps the buffer bounded
/// while a long request runs, without touching the live-trace lock on
/// every span.
const TRACE_SPAN_FLUSH: usize = 1024;

/// Per-thread buffers, flushed on thread exit.
pub(crate) struct ThreadBuf {
    pub(crate) tid: u64,
    /// Live span-id stack; the top is the current parent.
    pub(crate) stack: Vec<u64>,
    events: Vec<Event>,
    /// Counter shard, indexed by metric registry index.
    counters: Vec<u64>,
    /// Histogram shard, indexed by metric registry index.
    hists: Vec<HistData>,
    /// Live-trace key spans and counters on this thread attribute to
    /// (0 = none). Installed by `live::begin` / `with_context`.
    pub(crate) trace: u64,
    /// Completed spans awaiting routing into their trace, each tagged with
    /// the trace key current when it was recorded.
    trace_spans: Vec<(u64, Span)>,
    /// Per-trace counter shard, indexed by metric registry index;
    /// attributed to `trace` and flushed on trace switch.
    trace_counters: Vec<u64>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::new(),
            events: Vec::new(),
            counters: Vec::new(),
            hists: Vec::new(),
            trace: 0,
            trace_spans: Vec::new(),
            trace_counters: Vec::new(),
        }
    }

    /// Takes the pending trace spans and (if any delta accumulated) the
    /// per-trace counter shard, for routing via `live::absorb`. Must be
    /// called *outside* the global sink lock — `absorb` takes the live
    /// lock and the two must never nest.
    fn take_trace(&mut self) -> TraceDrain {
        let spans = std::mem::take(&mut self.trace_spans);
        let shard = if self.trace != 0 && self.trace_counters.iter().any(|&c| c != 0) {
            Some((self.trace, std::mem::take(&mut self.trace_counters)))
        } else {
            self.trace_counters.clear();
            None
        };
        (spans, shard)
    }

    fn flush_into(&mut self, g: &mut Global) {
        let room = MAX_EVENTS.saturating_sub(g.events.len());
        if self.events.len() > room {
            g.dropped += (self.events.len() - room) as u64;
            self.events.truncate(room);
        }
        g.events.append(&mut self.events);
        if g.counters.len() < self.counters.len() {
            g.counters.resize(self.counters.len(), 0);
        }
        for (total, shard) in g.counters.iter_mut().zip(&self.counters) {
            *total += shard;
        }
        self.counters.clear();
        if g.hists.len() < self.hists.len() {
            g.hists.resize_with(self.hists.len(), HistData::default);
        }
        for (total, shard) in g.hists.iter_mut().zip(&self.hists) {
            total.merge(shard);
        }
        self.hists.clear();
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.events.is_empty() || !self.counters.is_empty() || !self.hists.is_empty() {
            if let Ok(mut g) = GLOBAL.lock() {
                self.flush_into(&mut g);
            }
        }
        let (spans, shard) = self.take_trace();
        if !spans.is_empty() || shard.is_some() {
            crate::live::absorb(spans, shard);
        }
    }
}

thread_local! {
    pub(crate) static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Records a completed span into exactly one buffer: the calling thread's
/// trace buffer when a live trace is installed (the trace owns it), the
/// thread's event buffer otherwise.
pub(crate) fn record_span(name: Name, id: u64, parent: u64, ts_us: u64, dur_us: u64) {
    let overflow = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let span = Span {
            name,
            tid: t.tid,
            id,
            parent,
            ts_us,
            dur_us,
        };
        if t.trace == 0 {
            t.events.push(Event::Span(span));
            return None;
        }
        let trace = t.trace;
        t.trace_spans.push((trace, span));
        (t.trace_spans.len() >= TRACE_SPAN_FLUSH).then(|| std::mem::take(&mut t.trace_spans))
    });
    if let Some(spans) = overflow {
        crate::live::absorb(spans, None);
    }
}

/// Appends a finished trace's spans to the process log under the
/// [`MAX_EVENTS`] cap, counting `dropped` (spans the trace itself shed past
/// its own cap) and any overflow as dropped events. Takes the global sink
/// lock, so callers must not hold the live lock.
pub(crate) fn append_spans(spans: &[Span], dropped: u64) {
    let mut g = GLOBAL.lock().expect("obs global lock");
    let room = MAX_EVENTS.saturating_sub(g.events.len()).min(spans.len());
    g.dropped += dropped + (spans.len() - room) as u64;
    g.events
        .extend(spans[..room].iter().cloned().map(Event::Span));
}

/// Installs `key` as the calling thread's live-trace key, returning the
/// previous key. Flushes the per-trace counter shard of the outgoing trace
/// first, so deltas never leak across traces on reused pool threads.
pub(crate) fn set_thread_trace(key: u64) -> u64 {
    let (prev, shard) = TLS.with(|t| {
        let mut t = t.borrow_mut();
        let prev = t.trace;
        let shard = if prev != key && prev != 0 && t.trace_counters.iter().any(|&c| c != 0) {
            Some((prev, std::mem::take(&mut t.trace_counters)))
        } else {
            None
        };
        t.trace = key;
        (prev, shard)
    });
    if shard.is_some() {
        crate::live::absorb(Vec::new(), shard);
    }
    prev
}

/// Records a named numeric instant event (e.g. a per-epoch loss) under the
/// current span. No-op while collection is disabled.
pub fn instant(name: &'static str, value: f64) {
    if !crate::enabled() {
        return;
    }
    push_instant(Cow::Borrowed(name), Some(value), None);
}

/// Records a textual instant event (progress lines).
pub(crate) fn instant_msg(name: &'static str, msg: &str) {
    push_instant(Cow::Borrowed(name), None, Some(msg.to_owned()));
}

fn push_instant(name: Name, value: Option<f64>, msg: Option<String>) {
    let ts_us = now_us();
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        let tid = t.tid;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.events.push(Event::Instant {
            name,
            tid,
            parent,
            ts_us,
            value,
            msg,
        });
    });
}

/// Adds `n` to the counter shard slot `idx` (and the per-trace shard when
/// a live trace is installed).
pub(crate) fn shard_counter_add(idx: usize, n: u64) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.counters.len() <= idx {
            t.counters.resize(idx + 1, 0);
        }
        t.counters[idx] += n;
        if t.trace != 0 {
            if t.trace_counters.len() <= idx {
                t.trace_counters.resize(idx + 1, 0);
            }
            t.trace_counters[idx] += n;
        }
    });
}

/// Records `v` into the histogram shard slot `idx`.
pub(crate) fn shard_hist_record(idx: usize, v: u64) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        if t.hists.len() <= idx {
            t.hists.resize_with(idx + 1, HistData::default);
        }
        t.hists[idx].record(v);
    });
}

/// Sets gauge slot `idx` (gauges are set-last-wins and global; they are
/// written from coordinator code, not hot loops).
pub(crate) fn gauge_set(idx: usize, v: f64) {
    let mut g = GLOBAL.lock().expect("obs global lock");
    if g.gauges.len() <= idx {
        g.gauges.resize(idx + 1, None);
    }
    g.gauges[idx] = Some(v);
}

/// Flushes the calling thread's buffers into the global sinks.
///
/// Worker threads should call this before returning: `std::thread::scope`
/// can observe a task as finished *before* the thread's TLS destructors run,
/// so relying on the drop-flush alone races with a `snapshot` taken right
/// after the scope exits. `veribug-par` calls this at the end of every
/// worker; the TLS drop remains a safety net for plain spawned threads.
pub fn flush_thread() {
    let (spans, shard) = TLS.with(|t| t.borrow_mut().take_trace());
    if !spans.is_empty() || shard.is_some() {
        crate::live::absorb(spans, shard);
    }
    let mut g = GLOBAL.lock().expect("obs global lock");
    TLS.with(|t| t.borrow_mut().flush_into(&mut g));
}

/// Flushes the calling thread and assembles the merged [`Report`].
pub(crate) fn snapshot() -> Report {
    let (spans, shard) = TLS.with(|t| t.borrow_mut().take_trace());
    if !spans.is_empty() || shard.is_some() {
        crate::live::absorb(spans, shard);
    }
    let mut g = GLOBAL.lock().expect("obs global lock");
    TLS.with(|t| t.borrow_mut().flush_into(&mut g));
    let mut events = g.events.clone();
    events.sort_by_key(|e| (e.ts_us(), e.id()));
    let mut report = Report {
        events,
        dropped_events: g.dropped,
        ..Report::default()
    };
    for (name, kind, idx) in registry_kinds() {
        match kind {
            MetricKind::Counter => {
                let v = g.counters.get(idx).copied().unwrap_or(0);
                report.counters.insert(name.to_owned(), v);
            }
            MetricKind::Gauge => {
                if let Some(v) = g.gauges.get(idx).copied().flatten() {
                    report.gauges.insert(name.to_owned(), v);
                }
            }
            MetricKind::Hist { micros } => {
                let h = g.hists.get(idx).cloned().unwrap_or_default();
                report.histograms.insert(name.to_owned(), h.summary(micros));
            }
        }
    }
    report
}

/// Clears global sinks and the calling thread's shard.
pub(crate) fn reset() {
    let mut g = GLOBAL.lock().expect("obs global lock");
    g.events.clear();
    g.dropped = 0;
    g.counters.clear();
    g.hists.clear();
    g.gauges.clear();
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.events.clear();
        t.counters.clear();
        t.hists.clear();
        t.trace_spans.clear();
        t.trace_counters.clear();
    });
}
