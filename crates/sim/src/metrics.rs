//! Simulator observability counters (see `veribug-obs`).
//!
//! All counters are no-ops unless observability collection is enabled; the
//! hot loops accumulate into locals and flush once per run, so the disabled
//! cost is a handful of register adds per simulation.

use obs::{LazyCounter, LazyHistogram};

/// Simulated clock cycles.
pub(crate) static CYCLES: LazyCounter = LazyCounter::new("sim.cycles");
/// (combinational process, lane) pairs the compiled engine's per-lane
/// dirty gate evaluated.
pub(crate) static COMB_EVALS: LazyCounter = LazyCounter::new("sim.comb_evals");
/// (combinational process, lane) pairs the dirty gate skipped because the
/// process's fanin did not change on that lane.
pub(crate) static COMB_SKIPS: LazyCounter = LazyCounter::new("sim.comb_skips");
/// Bytecode instructions executed by the compiled engine.
pub(crate) static BYTECODE_OPS: LazyCounter = LazyCounter::new("sim.bytecode_ops");
/// Sequential process evaluations (clock-edge programs run).
pub(crate) static SEQ_EVALS: LazyCounter = LazyCounter::new("sim.seq_evals");
/// Combinational passes a settle-plan design ran to reach its fixpoint,
/// the converged pass included (per batch cycle, not per lane).
pub(crate) static SETTLE_ITERS: LazyCounter = LazyCounter::new("sim.settle_iters");
/// Stimuli simulated by the compiled engine (lanes, not batches).
pub(crate) static RUNS_BATCH: LazyCounter = LazyCounter::new("sim.runs_batch");
/// Lane fill per compiled-engine invocation (64 = full batch).
pub(crate) static BATCH_LANES: LazyHistogram = LazyHistogram::new("sim.batch_lanes");
/// Branch/case points where lanes split onto different paths.
pub(crate) static MASK_DIVERGENCES: LazyCounter = LazyCounter::new("sim.mask_divergences");
/// [`crate::trace::StmtExec`] records a verdict-mode run declined to
/// materialize (best-effort: executed assignments, every pass of a settle
/// plan included; replay/descriptor re-use that full mode would also have
/// elided is not re-counted).
pub(crate) static RECORDS_ELIDED: LazyCounter = LazyCounter::new("sim.records_elided");
/// [`crate::trace::StmtExec`] records a records-only run did not
/// materialize because their statement is outside the requested set:
/// the full trace's record count minus the kept trace's, re-used
/// descriptors included.
pub(crate) static RECORDS_SKIPPED: LazyCounter = LazyCounter::new("sim.records_skipped");
/// Simulations served in verdict (values-only) mode.
pub(crate) static RUNS_VERDICT: LazyCounter = LazyCounter::new("sim.runs_verdict");
