//! Live request telemetry: per-request trace IDs, per-trace span trees and
//! counter deltas, and a fixed-capacity ring of completed traces with
//! tail-based sampling.
//!
//! The batch exporters in [`crate::export`] answer "what did this process
//! do since boot"; this module answers "what did *that request* do, and
//! which recent requests were slow or failed" — the question a serving
//! fleet asks while the process is still running.
//!
//! ## Life of a trace
//!
//! 1. The server mints (or honors) a request ID and calls [`begin`], which
//!    registers an active trace and installs the trace key in the
//!    calling thread's TLS.
//! 2. While the key is installed, every completed span is recorded into a
//!    per-thread trace buffer *instead of* the process event log, and every
//!    counter increment also lands in a per-thread per-trace shard.
//!    [`crate::current_context`] carries the key across `veribug-par`
//!    fan-outs, so worker spans and counter deltas attribute to the request
//!    that spawned them. Buffers route to the trace's entry on the existing
//!    [`crate::flush_thread`] path — the hot path stays thread-local.
//! 3. [`TraceScope::finish`] assembles the completed span tree, makes the
//!    tail-sampling decision, and pushes the result into the ring. Only when
//!    a `--obs` report will be written ([`crate::output_configured`]) does
//!    it also hand the tree to the process log, so a server without `--obs`
//!    keeps nothing per request outside the ring and the rolling windows.
//!
//! ## Tail-based sampling
//!
//! Every completed request enters the ring, but only the interesting ones
//! keep their full span tree: errors (5xx, which includes deadline 504 and
//! panic 500) always do, and so do the rolling slowest-N requests among
//! those currently in the ring. Everything else is demoted to a one-line
//! digest (ID, route, status, duration), so a healthy high-throughput
//! server retains deep diagnostics exactly where they matter while memory
//! stays bounded by `ring capacity × digest + N × tree`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::metrics::{registry_kinds, MetricKind};
use crate::state::{self, Event, Name, Span};

/// Traces the ring retains (digest or sampled).
const RING_CAPACITY: usize = 128;
/// Rolling slowest-N requests that keep their full span tree even when
/// healthy.
const SLOW_KEEP: usize = 16;
/// Spans a single trace may retain; beyond it new spans are counted but
/// dropped, so a runaway request cannot exhaust memory.
const MAX_TRACE_SPANS: usize = 4096;
/// Concurrent active traces tracked; beyond it [`begin`] hands out inert
/// scopes (the request still runs, it just isn't traced).
const MAX_ACTIVE: usize = 1024;

/// Why a completed trace kept (or lost) its span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// 5xx outcome (includes 504 deadline and 500 panic): always sampled.
    Error,
    /// Among the rolling slowest-N in the ring: sampled until demoted.
    Slow,
    /// Healthy and fast: one-line digest only.
    Digest,
}

impl Keep {
    /// Stable lowercase label (`error`, `slow`, `digest`).
    pub fn label(self) -> &'static str {
        match self {
            Keep::Error => "error",
            Keep::Slow => "slow",
            Keep::Digest => "digest",
        }
    }
}

/// A finished request as retained by the ring.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The request ID (client-provided or minted), echoed in
    /// `x-veribug-request-id`.
    pub id: String,
    /// Monotonic completion index (newer = larger).
    pub seq: u64,
    /// Request method (`GET`, `POST`).
    pub method: String,
    /// Route label (the path, query stripped, unknown routes normalized).
    pub path: String,
    /// HTTP status the request answered with.
    pub status: u16,
    /// Start, microseconds since process epoch.
    pub start_us: u64,
    /// End-to-end duration in microseconds.
    pub dur_us: u64,
    /// Sampling verdict.
    pub keep: Keep,
    /// The span tree (empty for digests).
    pub spans: Vec<Span>,
    /// Counter deltas attributed to this request, by metric name (empty
    /// for digests).
    pub counters: Vec<(&'static str, u64)>,
    /// Spans dropped past the per-trace span cap (`MAX_TRACE_SPANS`).
    pub dropped_spans: u64,
}

impl CompletedTrace {
    /// True when the full span tree was retained.
    pub fn sampled(&self) -> bool {
        self.keep != Keep::Digest
    }

    /// Sums span durations by name — the per-stage breakdown the rolling
    /// windows and `/statusz` aggregate.
    fn stage_us(&self) -> Vec<(Name, u64)> {
        let mut agg: Vec<(Name, u64)> = Vec::new();
        for s in &self.spans {
            match agg.iter_mut().find(|(n, _)| *n == s.name) {
                Some(slot) => slot.1 += s.dur_us,
                None => agg.push((s.name.clone(), s.dur_us)),
            }
        }
        agg
    }

    fn demote(&mut self) {
        if self.keep == Keep::Slow {
            self.keep = Keep::Digest;
            self.spans = Vec::new();
            self.counters = Vec::new();
        }
    }
}

/// An in-flight trace accumulating spans and counter deltas.
#[derive(Debug, Default)]
struct ActiveTrace {
    id: String,
    method: String,
    path: String,
    start_us: u64,
    spans: Vec<Span>,
    /// Counter deltas indexed by metric-registry slot.
    counters: Vec<u64>,
    dropped_spans: u64,
}

/// A fixed-capacity overwrite-oldest buffer of completed traces with a
/// bounded "slow set" of full span trees. Kept generic over capacity so
/// wraparound and demotion are unit-testable off the global instance.
#[derive(Debug)]
pub(crate) struct Ring {
    slots: Vec<Option<CompletedTrace>>,
    next: usize,
    seq: u64,
    slow_keep: usize,
    capacity: usize,
}

impl Ring {
    pub(crate) fn new(capacity: usize, slow_keep: usize) -> Ring {
        Ring {
            slots: Vec::new(),
            next: 0,
            seq: 0,
            slow_keep,
            capacity: capacity.max(1),
        }
    }

    /// Inserts a completed trace, deciding its sampling verdict against
    /// the ring's current contents. Returns the verdict.
    fn push(&mut self, mut t: CompletedTrace) -> Keep {
        self.seq += 1;
        t.seq = self.seq;
        t.keep = if t.status >= 500 {
            Keep::Error
        } else if t.spans.is_empty() {
            // Tail-sampling keeps span *trees*; a trace with no spans
            // (e.g. an accept-loop rejection) has nothing worth a
            // slow-set slot.
            Keep::Digest
        } else {
            Keep::Slow // provisional; demoted below unless it makes the cut
        };
        if t.keep == Keep::Slow {
            // Count current slow entries; find the fastest to demote if
            // the set is full.
            let mut slow = 0usize;
            let mut fastest: Option<usize> = None;
            for (i, s) in self.slots.iter().enumerate() {
                if let Some(s) = s {
                    if s.keep == Keep::Slow && i != self.next {
                        slow += 1;
                        if fastest.is_none_or(|f| {
                            self.slots[f]
                                .as_ref()
                                .is_some_and(|fs| s.dur_us < fs.dur_us)
                        }) {
                            fastest = Some(i);
                        }
                    }
                }
            }
            if slow >= self.slow_keep {
                let fastest_dur = fastest
                    .and_then(|f| self.slots[f].as_ref())
                    .map_or(0, |s| s.dur_us);
                if t.dur_us > fastest_dur {
                    if let Some(f) = fastest.and_then(|f| self.slots[f].as_mut()) {
                        f.demote();
                    }
                } else {
                    t.demote();
                }
            }
        }
        if t.keep == Keep::Digest {
            t.spans = Vec::new();
            t.counters = Vec::new();
        }
        let keep = t.keep;
        if self.slots.len() < self.capacity {
            self.slots.push(Some(t));
            self.next = self.slots.len() % self.capacity;
        } else {
            self.slots[self.next] = Some(t);
            self.next = (self.next + 1) % self.capacity;
        }
        keep
    }

    /// Retained traces, newest first, at most `limit`.
    fn recent(&self, limit: usize) -> Vec<CompletedTrace> {
        let mut all: Vec<&CompletedTrace> = self.slots.iter().flatten().collect();
        all.sort_by_key(|t| std::cmp::Reverse(t.seq));
        all.into_iter().take(limit).cloned().collect()
    }

    /// Newest retained trace with the given request ID.
    fn find(&self, id: &str) -> Option<CompletedTrace> {
        self.slots
            .iter()
            .flatten()
            .filter(|t| t.id == id)
            .max_by_key(|t| t.seq)
            .cloned()
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn sampled(&self) -> usize {
        self.slots.iter().flatten().filter(|t| t.sampled()).count()
    }
}

struct LiveState {
    active: HashMap<u64, ActiveTrace>,
    ring: Ring,
}

static LIVE: Mutex<Option<LiveState>> = Mutex::new(None);
static NEXT_KEY: AtomicU64 = AtomicU64::new(1);
static MINT_STATE: Mutex<u64> = Mutex::new(0);

fn with_live<R>(f: impl FnOnce(&mut LiveState) -> R) -> R {
    let mut guard = LIVE.lock().expect("obs live lock");
    let state = guard.get_or_insert_with(|| LiveState {
        active: HashMap::new(),
        ring: Ring::new(RING_CAPACITY, SLOW_KEEP),
    });
    f(state)
}

/// Mints a process-unique request ID: 16 lowercase hex digits seeded from
/// the wall clock and process ID, stepped by splitmix64 so concurrent
/// mints never collide within a process and rarely collide across a fleet.
pub fn mint_id() -> String {
    let mut s = MINT_STATE.lock().expect("obs mint lock");
    if *s == 0 {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x9E37_79B9_7F4A_7C15, |d| d.as_nanos() as u64);
        *s = nanos ^ (u64::from(std::process::id()) << 32) | 1;
    }
    // splitmix64 step.
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    format!("{:016x}", z ^ (z >> 31))
}

/// True when `id` is acceptable as a client-provided request ID: 1–64
/// characters from `[A-Za-z0-9._-]`.
pub fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// An open trace: restores the previous thread trace key on drop, and
/// [`finish`](TraceScope::finish) completes the trace into the ring.
/// An inert scope (live telemetry at capacity, or obs disabled) records
/// nothing and finishes to no effect.
#[must_use = "hold the scope for the extent of the request and call finish()"]
#[derive(Debug)]
pub struct TraceScope {
    key: u64,
    prev: u64,
}

/// Starts tracing a request on the calling thread. The returned scope must
/// outlive the request handler; spans and counters recorded on this thread
/// (and on `veribug-par` workers spawned under it) attribute to this trace
/// until the scope is finished or dropped.
pub fn begin(id: &str, method: &str, path: &str) -> TraceScope {
    if !crate::enabled() {
        return TraceScope { key: 0, prev: 0 };
    }
    let key = NEXT_KEY.fetch_add(1, Ordering::Relaxed);
    let start_us = state::now_us();
    let registered = with_live(|l| {
        if l.active.len() >= MAX_ACTIVE {
            return false;
        }
        l.active.insert(
            key,
            ActiveTrace {
                id: id.to_owned(),
                method: method.to_owned(),
                path: path.to_owned(),
                start_us,
                ..ActiveTrace::default()
            },
        );
        true
    });
    if !registered {
        return TraceScope { key: 0, prev: 0 };
    }
    let prev = state::set_thread_trace(key);
    TraceScope { key, prev }
}

impl TraceScope {
    /// The internal routing key (0 for an inert scope). Exposed for tests.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Completes the trace: flushes this thread's buffers, assembles the
    /// span tree and counter deltas, applies the tail-sampling decision,
    /// records the rolling-window sample, and returns the completed trace
    /// (`None` for inert scopes).
    ///
    /// The trace's spans live only in the trace. When a report path is
    /// configured, the whole tree (sampled or not) is also appended to the
    /// process log for the `--obs` file, with spans dropped past the
    /// per-trace cap counted as dropped events; that append takes the
    /// global sink lock after the live lock is released.
    pub fn finish(mut self, status: u16) -> Option<CompletedTrace> {
        if self.key == 0 {
            return None;
        }
        // Flush while the trace is still installed (the counter shard is
        // attributed to the *current* thread trace), then restore the
        // previous trace and disarm Drop (which would otherwise discard
        // the active entry we are about to assemble).
        state::flush_thread();
        state::set_thread_trace(self.prev);
        let key = self.key;
        self.key = 0;
        drop(self);
        let end_us = state::now_us();
        let names: Vec<(&'static str, MetricKind, usize)> = registry_kinds();
        let mut t = with_live(|l| {
            let active = l.active.remove(&key)?;
            let counters: Vec<(&'static str, u64)> = names
                .iter()
                .filter(|(_, kind, _)| *kind == MetricKind::Counter)
                .filter_map(|&(name, _, idx)| {
                    match active.counters.get(idx).copied().unwrap_or(0) {
                        0 => None,
                        v => Some((name, v)),
                    }
                })
                .collect();
            let mut t = CompletedTrace {
                id: active.id,
                seq: 0,
                method: active.method,
                path: active.path,
                status,
                start_us: active.start_us,
                dur_us: end_us.saturating_sub(active.start_us),
                keep: Keep::Digest,
                spans: active.spans,
                counters,
                dropped_spans: active.dropped_spans,
            };
            let cache_hits = t
                .counters
                .iter()
                .find(|(n, _)| *n == "serve.cache.hits")
                .map_or(0, |(_, v)| *v);
            let cache_misses = t
                .counters
                .iter()
                .find(|(n, _)| *n == "serve.cache.misses")
                .map_or(0, |(_, v)| *v);
            crate::rolling::record(
                &t.path,
                t.status,
                t.dur_us,
                &t.stage_us(),
                cache_hits,
                cache_misses,
            );
            // push() decides the final verdict; record it on the returned
            // copy so callers see what the ring retained.
            t.keep = l.ring.push(t.clone());
            Some(t)
        })?;
        if crate::output_configured() {
            state::append_spans(&t.spans, t.dropped_spans);
        }
        if t.keep == Keep::Digest {
            t.spans = Vec::new();
            t.counters = Vec::new();
        }
        Some(t)
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.key == 0 {
            return;
        }
        state::set_thread_trace(self.prev);
        // An abandoned (never finished) trace is discarded, not ringed:
        // the serve layer always finishes, so anything left here is an
        // embedder bug we contain rather than export.
        let key = self.key;
        self.key = 0;
        with_live(|l| {
            l.active.remove(&key);
        });
    }
}

/// Records a request that never got a trace scope (e.g. accept-loop 429
/// rejections) as a digest-or-error ring entry plus a rolling-window
/// sample, so backpressure is visible in `/tracez` and `/statusz`.
pub fn record_untraced(id: &str, method: &str, path: &str, status: u16, dur_us: u64) {
    if !crate::enabled() {
        return;
    }
    let end_us = state::now_us();
    crate::rolling::record(path, status, dur_us, &[], 0, 0);
    with_live(|l| {
        l.ring.push(CompletedTrace {
            id: id.to_owned(),
            seq: 0,
            method: method.to_owned(),
            path: path.to_owned(),
            status,
            start_us: end_us.saturating_sub(dur_us),
            dur_us,
            keep: Keep::Digest,
            spans: Vec::new(),
            counters: Vec::new(),
            dropped_spans: 0,
        });
    });
}

/// Routes a flushed per-thread trace-span batch and per-trace counter
/// shard into the matching active traces. Called under no other obs lock.
pub(crate) fn absorb(spans: Vec<(u64, Span)>, counter_shard: Option<(u64, Vec<u64>)>) {
    if spans.is_empty() && counter_shard.is_none() {
        return;
    }
    with_live(|l| {
        for (key, span) in spans {
            if let Some(a) = l.active.get_mut(&key) {
                if a.spans.len() >= MAX_TRACE_SPANS {
                    a.dropped_spans += 1;
                } else {
                    a.spans.push(span);
                }
            }
        }
        if let Some((key, shard)) = counter_shard {
            if let Some(a) = l.active.get_mut(&key) {
                if a.counters.len() < shard.len() {
                    a.counters.resize(shard.len(), 0);
                }
                for (total, delta) in a.counters.iter_mut().zip(&shard) {
                    *total += delta;
                }
            }
        }
    });
}

/// Retained completed traces, newest first, at most `limit`.
pub fn recent(limit: usize) -> Vec<CompletedTrace> {
    with_live(|l| l.ring.recent(limit))
}

/// The newest retained trace with request ID `id`.
pub fn find(id: &str) -> Option<CompletedTrace> {
    with_live(|l| l.ring.find(id))
}

/// `(retained, sampled, active)` occupancy of the live-telemetry layer.
pub fn occupancy() -> (usize, usize, usize) {
    with_live(|l| (l.ring.len(), l.ring.sampled(), l.active.len()))
}

/// Renders a trace's span tree as the Chrome `trace_event` format (the
/// same schema as [`crate::export::chrome_trace`], without the metrics
/// block viewers ignore anyway), so a single request can be dropped into
/// Perfetto.
pub fn chrome_trace_of(t: &CompletedTrace) -> String {
    let mut report = crate::Report {
        events: t.spans.iter().cloned().map(Event::Span).collect(),
        ..crate::Report::default()
    };
    report.events.sort_by_key(|e| (e.ts_us(), e.id()));
    crate::export::chrome_trace(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: &str, status: u16, dur_us: u64, nspans: usize) -> CompletedTrace {
        CompletedTrace {
            id: id.to_owned(),
            seq: 0,
            method: "POST".to_owned(),
            path: "/v1/localize".to_owned(),
            status,
            start_us: 0,
            dur_us,
            keep: Keep::Digest,
            spans: (0..nspans)
                .map(|i| Span {
                    name: Name::Borrowed("stage"),
                    tid: 0,
                    id: i as u64 + 1,
                    parent: 0,
                    ts_us: 0,
                    dur_us: 1,
                })
                .collect(),
            counters: vec![("sim.cycles", 8)],
            dropped_spans: 0,
        }
    }

    #[test]
    fn errors_always_keep_their_tree() {
        let mut ring = Ring::new(4, 1);
        for i in 0..8 {
            ring.push(trace(&format!("ok{i}"), 200, 1_000_000, 3));
        }
        let keep = ring.push(trace("boom", 500, 1, 3));
        assert_eq!(keep, Keep::Error);
        let found = ring.find("boom").expect("retained");
        assert_eq!(found.spans.len(), 3, "error keeps full tree");
    }

    #[test]
    fn slowest_n_is_rolling_and_demotes() {
        let mut ring = Ring::new(16, 2);
        assert_eq!(ring.push(trace("a", 200, 100, 2)), Keep::Slow);
        assert_eq!(ring.push(trace("b", 200, 200, 2)), Keep::Slow);
        // Faster than both current slow entries: digested on arrival.
        assert_eq!(ring.push(trace("c", 200, 50, 2)), Keep::Digest);
        assert!(ring.find("c").unwrap().spans.is_empty());
        // Slower than `a`: takes its place; `a` is demoted in situ.
        assert_eq!(ring.push(trace("d", 200, 300, 2)), Keep::Slow);
        assert_eq!(ring.find("a").unwrap().keep, Keep::Digest);
        assert!(
            ring.find("a").unwrap().spans.is_empty(),
            "demotion drops spans"
        );
        assert_eq!(ring.find("b").unwrap().keep, Keep::Slow);
        assert_eq!(ring.find("d").unwrap().spans.len(), 2);
    }

    #[test]
    fn an_untraced_listing_slower_than_the_slow_set_demotes_nothing() {
        let mut ring = Ring::new(64, 16);
        for i in 0..16 {
            let keep = ring.push(trace(&format!("loc{i}"), 200, 900 + i, 3));
            assert_eq!(keep, Keep::Slow);
        }
        // A `/tracez` listing slower than every localize in the full slow
        // set, booked as the server books introspection routes
        // (`record_untraced`: no spans).
        let listing = CompletedTrace {
            method: "GET".to_owned(),
            path: "/tracez".to_owned(),
            ..trace("list", 200, 1_130, 0)
        };
        assert_eq!(ring.push(listing), Keep::Digest);
        for i in 0..16 {
            let t = ring.find(&format!("loc{i}")).expect("retained");
            assert!(t.sampled(), "loc{i} was demoted");
        }
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let mut ring = Ring::new(4, 4);
        for i in 0..11 {
            ring.push(trace(&format!("t{i}"), 200, i, 1));
        }
        assert_eq!(ring.len(), 4);
        let recent = ring.recent(16);
        assert_eq!(recent.len(), 4);
        let ids: Vec<&str> = recent.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(
            ids,
            ["t10", "t9", "t8", "t7"],
            "newest first, oldest overwritten"
        );
        assert!(ring.find("t0").is_none(), "t0 was overwritten");
        // seq stays monotonic across wraps.
        assert!(recent.windows(2).all(|w| w[0].seq > w[1].seq));
    }

    #[test]
    fn recent_respects_limit_and_find_prefers_newest() {
        let mut ring = Ring::new(8, 8);
        ring.push(trace("dup", 200, 10, 1));
        ring.push(trace("dup", 200, 20, 1));
        assert_eq!(ring.recent(1).len(), 1);
        assert_eq!(ring.find("dup").unwrap().dur_us, 20);
    }

    #[test]
    fn minted_ids_are_unique_and_valid() {
        let a = mint_id();
        let b = mint_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(valid_id(&a) && valid_id(&b));
        assert!(!valid_id(""));
        assert!(!valid_id("has space"));
        assert!(!valid_id(&"x".repeat(65)));
        assert!(valid_id("client-id_01.example"));
    }

    #[test]
    fn begin_finish_captures_spans_and_counters() {
        crate::enable();
        let scope = begin("livetest-req", "POST", "/v1/localize");
        assert_ne!(scope.key(), 0);
        {
            let _outer = crate::span("livetest.outer");
            let _inner = crate::span("livetest.inner");
            static C: crate::LazyCounter = crate::LazyCounter::new("livetest.counter");
            C.add(5);
        }
        let done = scope.finish(200).expect("real scope finishes");
        assert_eq!(done.id, "livetest-req");
        assert_eq!(done.status, 200);
        if done.sampled() {
            let names: Vec<&str> = done.spans.iter().map(|s| &*s.name).collect();
            assert!(names.contains(&"livetest.outer"));
            assert!(names.contains(&"livetest.inner"));
            let outer = done
                .spans
                .iter()
                .find(|s| &*s.name == "livetest.outer")
                .unwrap();
            let inner = done
                .spans
                .iter()
                .find(|s| &*s.name == "livetest.inner")
                .unwrap();
            assert_eq!(inner.parent, outer.id, "tree structure survives");
            assert!(done
                .counters
                .iter()
                .any(|(n, v)| *n == "livetest.counter" && *v == 5));
        }
        // The thread trace is restored: spans recorded now attribute to
        // nothing.
        let _stray = crate::span("livetest.stray");
    }

    #[test]
    fn a_span_is_recorded_once_in_the_trace_or_the_log() {
        crate::enable();
        let scope = begin("livetest-once", "POST", "/v1/localize");
        assert_ne!(scope.key(), 0);
        drop(crate::span("livetest.once.traced"));
        // 5xx always keeps its tree, whatever else is in the ring.
        let done = scope.finish(500).expect("real scope finishes");
        drop(crate::span("livetest.once.untraced"));
        let in_trace = |name: &str| done.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(in_trace("livetest.once.traced"), 1);
        assert_eq!(in_trace("livetest.once.untraced"), 0);
        let log = crate::snapshot();
        let in_log = |name: &str| log.events.iter().filter(|e| e.name() == name).count();
        assert_eq!(
            in_log("livetest.once.traced"),
            0,
            "traced span copied to the log"
        );
        assert_eq!(in_log("livetest.once.untraced"), 1);
    }

    #[test]
    fn par_workers_attribute_to_the_spawning_trace() {
        crate::enable();
        let scope = begin("livetest-fanout", "POST", "/v1/localize");
        let key = scope.key();
        {
            let _stage = crate::span("livetest.fanout");
            let ctx = crate::current_context();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        crate::with_context(ctx, || {
                            let _w = crate::span("livetest.worker");
                            static W: crate::LazyCounter =
                                crate::LazyCounter::new("livetest.worker_units");
                            W.add(3);
                        });
                        crate::flush_thread();
                    });
                }
            });
        }
        let done = scope.finish(200).expect("finishes");
        if key != 0 && done.sampled() {
            let workers = done
                .spans
                .iter()
                .filter(|s| &*s.name == "livetest.worker")
                .count();
            assert_eq!(workers, 2, "both worker spans attributed");
            assert!(done
                .counters
                .iter()
                .any(|(n, v)| *n == "livetest.worker_units" && *v == 6));
        }
    }

    #[test]
    fn chrome_export_of_a_trace_validates() {
        let t = trace("export-me", 200, 5, 3);
        let rendered = chrome_trace_of(&t);
        let v = crate::validate::chrome_trace(&rendered).expect("schema-valid");
        assert_eq!(v.span_names, ["stage"]);
    }

    #[test]
    fn untraced_rejections_land_in_the_ring() {
        crate::enable();
        record_untraced("livetest-429", "POST", "/v1/localize", 429, 10);
        let found = find("livetest-429").expect("rejection retained");
        assert_eq!(found.status, 429);
        assert!(!found.sampled(), "429 digest has no tree to keep");
    }
}
