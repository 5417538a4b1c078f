//! # veribug-obs
//!
//! Zero-dependency (std-only) observability for the VeriBug pipeline:
//!
//! - **Hierarchical spans** ([`span`], [`span_dyn`]) with RAII guards and a
//!   thread-local span stack. Parent context propagates into worker threads
//!   through [`current_context`] / [`with_context`] (wired up inside
//!   `veribug-par`), so flame charts stay connected across fan-outs.
//! - **Typed metrics** — [`LazyCounter`], [`LazyGauge`], [`LazyHistogram`] —
//!   behind a global registry. Counter and histogram updates land in
//!   per-thread shards and are merged by commutative integer addition, so
//!   the merged totals are identical at any thread count and enabling
//!   metrics never perturbs pipeline results (see the differential tests in
//!   `veribug-bench`).
//! - **Exporters** (see [`export`]): a human-readable summary table and
//!   the Chrome `trace_event` format that `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev) load directly for flame-chart
//!   profiling.
//!
//! Everything is gated on one process-global switch: when disabled (the
//! default), every instrumentation call is a single relaxed atomic load.
//!
//! ## Uniform CLI convention
//!
//! Every VeriBug binary accepts `--obs <path>` (or the `VERIBUG_OBS`
//! environment variable) and calls [`init`] at startup and [`report`] at
//! exit, which writes a Chrome trace with an embedded `"metrics"` block.
//!
//! ```
//! let _root = veribug_obs::span("demo");
//! {
//!     let _child = veribug_obs::span("demo.child");
//!     static CELLS: veribug_obs::LazyCounter = veribug_obs::LazyCounter::new("demo.cells");
//!     CELLS.add(3);
//! }
//! // With obs disabled (the default) the above costs one atomic load per call.
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod json;
pub mod live;
mod metrics;
pub mod rolling;
mod span;
mod state;
pub mod validate;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use metrics::{HistSummary, LazyCounter, LazyGauge, LazyHistogram};
pub use span::{current_context, span, span_dyn, with_context, SpanContext, SpanGuard};
pub use state::{flush_thread, instant, Report, Span};

/// Process-global master switch. All instrumentation is a no-op while this
/// is false.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Suppresses [`progress_fmt`] stderr echo when set (`--quiet`).
static QUIET: AtomicBool = AtomicBool::new(false);
/// Output path configured by the first [`init`] that found one; consumed
/// by [`report`]. Read lock-free, since every progress line checks it.
static OUT_PATH: OnceLock<String> = OnceLock::new();
/// Set once [`report`] has emitted; later calls are no-ops. Makes at-exit
/// reporting idempotent when more than one path reaches it (e.g. `veribug
/// serve` draining via `/v1/shutdown` and then returning through `main`'s
/// unconditional `report()` call).
static REPORTED: AtomicBool = AtomicBool::new(false);

/// True when observability collection is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on without configuring an output file (tests,
/// embedders that call the [`export`] functions themselves).
pub fn enable() {
    set_enabled(true);
}

/// Sets the master switch directly. For benchmark harnesses and
/// differential tests that compare enabled-vs-disabled runs within one
/// process; everything recorded so far stays buffered across a toggle.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables collection and remembers where [`report`] should write.
///
/// `path_arg` is the value of a `--obs <path>` flag when the caller saw
/// one; otherwise the `VERIBUG_OBS` environment variable is consulted.
/// When neither is present this is a no-op and collection stays off. The
/// first path found is kept for the life of the process.
pub fn init(path_arg: Option<&str>) {
    let path = path_arg
        .map(str::to_owned)
        .or_else(|| std::env::var("VERIBUG_OBS").ok())
        .filter(|p| !p.is_empty());
    if let Some(path) = path {
        let _ = OUT_PATH.set(path);
        enable();
    }
}

/// Sets progress-line verbosity (`--quiet` suppresses the stderr echo;
/// events are still recorded when collection is enabled).
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// True when progress lines should not be echoed to stderr.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Emits one progress line: echoed to stderr unless [`quiet`], and recorded
/// as an instant event when collection is enabled and a report file will be
/// written (only the file exporters read instants). `args` is formatted only
/// for those, so a quiet process without a report path pays two relaxed
/// loads and no lock. Prefer the [`progress!`](crate::progress) macro.
pub fn progress_fmt(args: std::fmt::Arguments<'_>) {
    if !quiet() {
        eprintln!("{args}");
    }
    if enabled() && output_configured() {
        state::instant_msg("progress", &args.to_string());
    }
}

/// `eprintln!`-style progress reporting that respects `--quiet` and records
/// an instant event in the `--obs` trace.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::progress_fmt(format_args!($($arg)*))
    };
}

/// Collects everything recorded so far into a [`Report`] (flushes the
/// calling thread's buffers first). Worker threads must have flushed
/// already: `veribug-par` calls [`flush_thread`] at the end of every
/// worker, and plain spawned threads flush when their TLS drops on exit.
pub fn snapshot() -> Report {
    state::snapshot()
}

/// Clears all recorded events and metric *values* (the metric registry
/// itself persists, handles stay valid). Only the calling thread's live
/// shard is reset; shards of still-running threads are untouched, so call
/// this between fan-outs, not during one. Intended for tests and for
/// benchmark harnesses that measure phases independently.
pub fn reset() {
    state::reset();
}

/// True when [`init`] configured an output path that [`report`] will
/// write. Spans of finished live traces and progress instants reach the
/// process log only then.
pub fn output_configured() -> bool {
    OUT_PATH.get().is_some()
}

/// Writes the report file [`init`] configured and prints the
/// human-readable summary table to stderr (unless quiet). Renders nothing
/// without a configured path: the report is the `--obs` report.
///
/// Returns the path written, if any. Emission is idempotent: the first
/// call that runs with collection enabled and a path configured emits,
/// every later call is a no-op returning `None` — so a drain path and the
/// at-exit path can both call this without double-rendering the summary.
pub fn report() -> Option<String> {
    if !enabled() {
        return None;
    }
    let path = OUT_PATH.get()?;
    if REPORTED.swap(true, Ordering::SeqCst) {
        return None;
    }
    let report = snapshot();
    if !quiet() {
        eprint!("{}", export::summary(&report));
    }
    match std::fs::write(path, export::chrome_trace(&report)) {
        Ok(()) => {
            if !quiet() {
                eprintln!("obs: trace written to {path}");
            }
            Some(path.clone())
        }
        Err(e) => {
            eprintln!("obs: cannot write {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Obs state is process-global and tests run concurrently in one
    // process, so every test here works with the *enabled* switch on and
    // asserts only on data it created itself (unique metric names).

    #[test]
    fn disabled_span_is_inert() {
        // Never enables; relies on being cheap and not panicking.
        let g = span("never.recorded");
        drop(g);
        static C: LazyCounter = LazyCounter::new("never.counter");
        C.incr();
    }

    #[test]
    fn spans_nest_and_record() {
        enable();
        {
            let _a = span("test.outer");
            let _b = span("test.inner");
        }
        let r = snapshot();
        let names: Vec<&str> = r.events.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"test.outer"));
        assert!(names.contains(&"test.inner"));
        let outer = r.events.iter().find(|e| e.name() == "test.outer").unwrap();
        let inner = r.events.iter().find(|e| e.name() == "test.inner").unwrap();
        assert_eq!(inner.parent(), outer.id(), "inner's parent is outer");
    }

    #[test]
    fn counters_merge_across_scoped_threads() {
        enable();
        static SHARDED: LazyCounter = LazyCounter::new("test.sharded_adds");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        SHARDED.incr();
                    }
                    // Scope exit can race the TLS drop-flush; flush
                    // explicitly like veribug-par workers do.
                    flush_thread();
                });
            }
        });
        let r = snapshot();
        let total = r.counter("test.sharded_adds").expect("registered");
        assert!(total >= 4000, "expected >= 4000 adds, saw {total}");
        assert_eq!(total % 1000, 0, "adds merge losslessly");
    }

    #[test]
    fn histogram_summarizes() {
        enable();
        static H: LazyHistogram = LazyHistogram::new("test.hist");
        for v in [1u64, 2, 4, 100, 1000] {
            H.record(v);
        }
        let r = snapshot();
        let h = r.histogram("test.hist").expect("registered");
        assert!(h.count >= 5);
        assert!(h.max >= 1000.0);
        assert!(h.min <= 1.0);
    }

    #[test]
    fn report_without_path_is_none() {
        enable();
        assert_eq!(report(), None);
    }

    /// Counts how often it is formatted.
    struct Counted<'a>(&'a std::cell::Cell<usize>);

    impl std::fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("counted")
        }
    }

    #[test]
    fn progress_formats_only_when_read() {
        // No test here configures a report path, so a quiet process
        // drops the line before formatting it, enabled or not.
        enable();
        let formatted = std::cell::Cell::new(0);
        set_quiet(true);
        crate::progress!("test.progress {}", Counted(&formatted));
        assert_eq!(formatted.get(), 0, "a quiet line is never formatted");
        set_quiet(false);
        crate::progress!("test.progress {}", Counted(&formatted));
        assert_eq!(formatted.get(), 1, "an echoed line is formatted once");
    }
}
