//! The cycle-based simulation scheduler.
//!
//! Each simulated cycle:
//!
//! 1. apply the stimulus vector to the input ports,
//! 2. settle combinational logic to a fixpoint (silently), then run one more
//!    recording pass so executed-statement records reflect stable values,
//! 3. snapshot all signal values into the cycle record,
//! 4. fire the clock edge: run every sequential block against pre-edge
//!    values (recording executions), then commit all non-blocking writes.
//!
//! Async-reset edges are approximated synchronously: reset blocks execute at
//! every clock edge with the current reset value, which matches the paper's
//! usage (reset held during the first cycles of each GOLDMINE testbench).

use crate::batch::BatchEngine;
use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::eval::{EvalCtx, Write};
use crate::netlist::{Netlist, Process, SignalId};
use crate::testbench::{PortResolver, Stimulus};
use crate::trace::{Records, SignalSet, StmtExec, Trace, TraceMode, VerdictTrace};
use crate::value::{Value, LANES};
use std::collections::BTreeSet;
use verilog::{Module, StmtId};

/// Which execution strategy a [`Simulator`] settled on at elaboration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The compiled engine: levelized, bit-parallel bytecode evaluating up
    /// to [`LANES`] stimuli at once with per-lane dirty-set re-evaluation.
    /// A single stimulus runs as a one-lane batch.
    Batch,
    /// AST-walking fixpoint interpreter (fallback for static combinational
    /// cycles and constructs whose single-pass equivalence is unprovable).
    Interpreted,
}

/// A reusable simulator for one design.
///
/// [`Simulator::new`] compiles the design into the levelized, bit-parallel
/// bytecode engine when static analysis proves a single ordered
/// combinational pass equivalent to the fixpoint settle; otherwise it falls
/// back to the AST interpreter. Both produce bit-identical [`Trace`]s —
/// signal snapshots and [`StmtExec`] records — for every supported design.
#[derive(Debug)]
pub struct Simulator {
    netlist: Netlist,
    batch: Option<BatchEngine>,
    cancel: CancelToken,
}

impl Simulator {
    /// Elaborates a module into a simulator.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors ([`SimError::Unsupported`],
    /// [`SimError::ClockMismatch`]).
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use veribug_sim::{Simulator, TestbenchGen};
    ///
    /// let unit = verilog::parse(
    ///     "module m(input clk, input d, output reg q);\n\
    ///      always @(posedge clk) q <= d;\nendmodule",
    /// )?;
    /// let mut sim = Simulator::new(unit.top())?;
    /// let stim = TestbenchGen::new(7).generate(sim.netlist(), 16);
    /// let trace = sim.run(&stim)?;
    /// assert_eq!(trace.len(), 16);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(module: &Module) -> Result<Self, SimError> {
        let netlist = Netlist::elaborate(module)?;
        let batch =
            crate::compile::analyze(&netlist).and_then(|a| BatchEngine::build(&netlist, &a));
        Ok(Simulator {
            netlist,
            batch,
            cancel: CancelToken::inert(),
        })
    }

    /// Elaborates a module into a simulator that always uses the fixpoint
    /// interpreter, even when the design would compile. Used by differential
    /// tests and benchmarks comparing the two engines.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::new`].
    pub fn interpreted(module: &Module) -> Result<Self, SimError> {
        Ok(Simulator {
            netlist: Netlist::elaborate(module)?,
            batch: None,
            cancel: CancelToken::inert(),
        })
    }

    /// An independent simulator for the same design that shares this one's
    /// compiled bytecode (an `Arc` bump instead of a parse→levelize→compile
    /// pass). Runtime state is fresh and the cancel token is reset to
    /// inert, so forks are safe to run concurrently on other threads. This
    /// is what the serving layer's compiled-design cache hands out per
    /// request.
    pub fn fork(&self) -> Simulator {
        Simulator {
            netlist: self.netlist.clone(),
            batch: self.batch.as_ref().map(BatchEngine::fork),
            cancel: CancelToken::inert(),
        }
    }

    /// Installs a cancellation token checked once per simulated cycle.
    /// Every subsequent [`run`](Self::run) fails with
    /// [`SimError::Cancelled`] once the token fires; partial work is
    /// discarded. Install [`CancelToken::inert`] to clear.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Which engine every run uses: [`EngineKind::Batch`] when the design
    /// compiled, otherwise [`EngineKind::Interpreted`].
    pub fn batch_engine_kind(&self) -> EngineKind {
        if self.batch.is_some() {
            EngineKind::Batch
        } else {
            EngineKind::Interpreted
        }
    }

    /// The installed cancellation token (inert unless
    /// [`set_cancel`](Self::set_cancel) was called). Lets batch pipelines
    /// propagate a parent simulator's token onto forks, which reset to
    /// inert.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The elaborated design.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Runs a stimulus from the all-zero reset state and returns the trace.
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] when the stimulus drives a non-input,
    /// [`SimError::CombinationalLoop`] when combinational logic does not
    /// settle, [`SimError::Cancelled`] when an installed
    /// [`CancelToken`] fires, plus any evaluation error.
    pub fn run(&mut self, stimulus: &Stimulus) -> Result<Trace, SimError> {
        let mut traces = self.run_batch(std::slice::from_ref(stimulus))?;
        Ok(traces.pop().expect("one trace per stimulus"))
    }

    /// Runs many stimuli and returns one trace per stimulus, in order.
    ///
    /// When the design compiled, consecutive stimuli of equal cycle count
    /// are grouped into batches of up to [`LANES`] and simulated
    /// bit-parallel — one bytecode op evaluates every lane at once — which
    /// is how campaigns, dataset builds, and localization amortize
    /// per-stimulus cost. Traces, snapshots, and [`StmtExec`] records are
    /// bit-identical to the interpreter's, whatever the grouping. Designs
    /// that fell back to the interpreter run sequentially.
    ///
    /// # Errors
    ///
    /// The same errors as [`run`](Self::run); the first failing stimulus
    /// (in order) aborts the remainder, and any partial results are
    /// discarded.
    pub fn run_batch(&mut self, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
        let runs = self.run_batch_mode(stimuli, TraceMode::full())?;
        Ok(runs.into_iter().map(|(trace, _)| trace).collect())
    }

    /// Runs many stimuli in records-only mode ([`TraceMode::records`]): one
    /// [`Trace`] per stimulus, in order, batched exactly as
    /// [`run_batch`](Self::run_batch). Each cycle's `execs` hold only the
    /// records of statements in `stmts`, in full-trace order — exactly the
    /// full trace's records filtered to the set — and `signals` is an empty
    /// snapshot: no value arena is allocated, so
    /// [`CycleRecord::value`](crate::CycleRecord::value) panics on these
    /// traces. Values, input validation and cancellation behave as in full
    /// mode.
    ///
    /// # Errors
    ///
    /// The same errors as [`run_batch`](Self::run_batch), at the same
    /// points.
    pub fn run_batch_records(
        &mut self,
        stimuli: &[Stimulus],
        stmts: &BTreeSet<StmtId>,
    ) -> Result<Vec<Trace>, SimError> {
        let runs = self.run_batch_mode(stimuli, TraceMode::records(stmts))?;
        Ok(runs.into_iter().map(|(trace, _)| trace).collect())
    }

    /// Runs many stimuli in verdict mode ([`TraceMode::verdict`]), one
    /// [`VerdictTrace`] per stimulus in order, batched exactly as
    /// [`run_batch`](Self::run_batch). Value evolution, input validation,
    /// and cancellation behave as in full mode, but no [`StmtExec`] records
    /// are materialized and only `observed` signals are snapshotted per
    /// cycle: each result is exactly the observed columns of the full
    /// trace. This is the campaign screening pass: the 64-lane compute win
    /// with none of the trace-production memory traffic.
    ///
    /// # Errors
    ///
    /// The same errors as [`run_batch`](Self::run_batch); the first failing
    /// stimulus aborts the remainder.
    pub fn run_batch_verdict(
        &mut self,
        stimuli: &[Stimulus],
        observed: &SignalSet,
    ) -> Result<Vec<VerdictTrace>, SimError> {
        let runs = self.run_batch_mode(stimuli, TraceMode::verdict(observed))?;
        Ok(runs.into_iter().map(|(_, verdict)| verdict).collect())
    }

    /// Runs many stimuli under `mode` and returns one `(trace, observed
    /// values)` pair per stimulus, in order. The trace holds what `mode`
    /// records (no cycles when it records nothing); the [`VerdictTrace`]
    /// holds the observed signals' per-cycle values (none when it observes
    /// nothing). Both engines run one cycle loop for every mode, so each
    /// product equals the corresponding part of the full trace.
    ///
    /// When the design compiled, consecutive stimuli of equal cycle count
    /// are grouped into batches of up to [`LANES`] and simulated
    /// bit-parallel; designs that fell back to the interpreter run
    /// sequentially.
    ///
    /// # Errors
    ///
    /// The same errors as [`run`](Self::run); the first failing stimulus
    /// (in order) aborts the remainder, and any partial results are
    /// discarded.
    pub fn run_batch_mode(
        &mut self,
        stimuli: &[Stimulus],
        mode: TraceMode<'_>,
    ) -> Result<Vec<(Trace, VerdictTrace)>, SimError> {
        let Some(batch) = &mut self.batch else {
            let mut ports = PortResolver::default();
            return stimuli
                .iter()
                .map(|s| {
                    let ids = ports.resolve(&self.netlist, s)?;
                    self.run_interpreted(s, &ids, mode)
                })
                .collect();
        };
        let mut runs = Vec::with_capacity(stimuli.len());
        for chunk in lane_groups(stimuli) {
            runs.extend(batch.run(&self.netlist, chunk, &self.cancel, mode)?);
        }
        Ok(runs)
    }

    /// The fixpoint-interpreter path: settle combinational logic by
    /// iteration, then, when `mode` records anything, one recording pass
    /// per cycle (at the settle fixpoint it is value-neutral, so a mode
    /// that records nothing skips it). `ids` are the stimulus's ports
    /// resolved against this netlist. A records-only set filters at push
    /// time. The verdict's `records_elided` is 0 here (best-effort
    /// accounting; the fallback never counts would-be records).
    fn run_interpreted(
        &mut self,
        stimulus: &Stimulus,
        ids: &[SignalId],
        mode: TraceMode<'_>,
    ) -> Result<(Trace, VerdictTrace), SimError> {
        crate::metrics::RUNS_INTERPRETED.incr();
        let mut ctx = EvalCtx::new(&self.netlist);
        let (record, nsnap) = match mode.records {
            Records::All => (true, self.netlist.signal_count()),
            Records::Only(stmts) => {
                ctx.record_only = Some(stmts);
                (true, 0)
            }
            Records::Nothing => (false, 0),
        };
        let ncycles = stimulus.len();
        let nobs = mode.observed.len();
        if nobs > 0 {
            crate::metrics::RUNS_VERDICT.incr();
        }
        // One run-wide snapshot arena instead of a value-vector per cycle.
        let mut arena: Vec<Value> = Vec::with_capacity(ncycles * nsnap);
        let mut observed: Vec<Value> = Vec::with_capacity(ncycles * nobs);
        let mut cycle_execs: Vec<Vec<StmtExec>> = Vec::new();
        for cycle_idx in 0..ncycles {
            let cycle = cycle_idx as u32;
            if self.cancel.is_cancelled() {
                return Err(SimError::Cancelled { at_cycle: cycle });
            }
            // 1. Apply inputs.
            self.apply_inputs(&mut ctx, stimulus.cycle(cycle_idx), ids);

            // 2. Combinational settle + recording pass.
            let mut execs: Vec<StmtExec> = Vec::new();
            self.settle_comb(&mut ctx)?;
            if record {
                for p in &self.netlist.comb {
                    self.run_comb_process(&mut ctx, p, Some(&mut execs))?;
                }
            }

            // 3. Snapshot pre-edge values into the arena and the observed
            // column.
            arena.extend_from_slice(&ctx.values[..nsnap]);
            observed.extend(mode.observed.iter().map(|id| ctx.values[id.0 as usize]));

            // 4. Clock edge: sequential blocks with deferred commits.
            let mut deferred: Vec<Write> = Vec::new();
            for p in &self.netlist.seq {
                let Process::Seq(blk) = p else { continue };
                let recorder = if record { Some(&mut execs) } else { None };
                ctx.exec_stmts(&blk.body, Some(&mut deferred), recorder)?;
            }
            for w in deferred {
                let cur = ctx.values[w.target.0 as usize];
                ctx.values[w.target.0 as usize] = w.apply(cur);
            }

            if record {
                cycle_execs.push(execs);
            }
        }
        crate::metrics::CYCLES.add(ncycles as u64);
        let verdict = VerdictTrace {
            values: observed,
            nobs,
            records_elided: 0,
        };
        Ok((Trace::assemble(arena.into(), nsnap, cycle_execs), verdict))
    }

    /// Drives one cycle's words onto their resolved input signals.
    fn apply_inputs(&self, ctx: &mut EvalCtx<'_>, words: &[u64], ids: &[SignalId]) {
        for (&bits, &id) in words.iter().zip(ids) {
            ctx.values[id.0 as usize] = Value::new(bits, self.netlist.signal(id).width);
        }
    }

    fn run_comb_process(
        &self,
        ctx: &mut EvalCtx<'_>,
        p: &Process,
        recorder: Option<&mut Vec<StmtExec>>,
    ) -> Result<(), SimError> {
        match p {
            Process::Assign(a) => ctx.exec_assign(a, None, recorder),
            Process::Comb(blk) => ctx.exec_stmts(&blk.body, None, recorder),
            Process::Seq(_) => Ok(()),
        }
    }

    /// Iterates the combinational processes until no signal changes.
    fn settle_comb(&self, ctx: &mut EvalCtx<'_>) -> Result<(), SimError> {
        let max_iters = (self.netlist.comb.len() as u32 + 4) * 4;
        // One scratch snapshot reused across iterations: `clone_from` keeps
        // the allocation instead of reallocating the value vector each pass.
        let mut before = Vec::new();
        for iter in 0..max_iters {
            before.clone_from(&ctx.values);
            for p in &self.netlist.comb {
                self.run_comb_process(ctx, p, None)?;
            }
            if ctx.values == before {
                crate::metrics::SETTLE_ITERS.add(u64::from(iter) + 1);
                return Ok(());
            }
        }
        Err(SimError::CombinationalLoop {
            iterations: max_iters,
        })
    }
}

/// Splits `stimuli` into maximal runs of equal cycle count, each capped at
/// [`LANES`] — the batches the compiled engine runs.
fn lane_groups(mut rest: &[Stimulus]) -> impl Iterator<Item = &[Stimulus]> {
    std::iter::from_fn(move || {
        let cycles = rest.first()?.len();
        let take = rest
            .iter()
            .take(LANES)
            .take_while(|s| s.len() == cycles)
            .count();
        let (chunk, tail) = rest.split_at(take);
        rest = tail;
        Some(chunk)
    })
}

/// One-shot convenience: elaborate, simulate, return the trace.
///
/// # Errors
///
/// See [`Simulator::new`] and [`Simulator::run`].
pub fn simulate(module: &Module, stimulus: &Stimulus) -> Result<Trace, SimError> {
    Simulator::new(module)?.run(stimulus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::Stimulus;

    fn stim(vectors: Vec<Vec<(&str, u64)>>) -> Stimulus {
        Stimulus::from_named(vectors)
    }

    fn run(src: &str, vectors: Vec<Vec<(&str, u64)>>) -> (Simulator, Trace) {
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let t = sim.run(&stim(vectors)).unwrap();
        (sim, t)
    }

    #[test]
    fn combinational_logic_settles_through_chain() {
        let src = "module m(input a, output y);\nwire t1, t2;\n\
                   assign t2 = ~t1;\nassign t1 = ~a;\nassign y = t2;\nendmodule";
        let (sim, t) = run(src, vec![vec![("a", 1)], vec![("a", 0)]]);
        let y = sim.netlist().signal_id("y").unwrap();
        assert_eq!(t.cycles[0].value(y).bits(), 1);
        assert_eq!(t.cycles[1].value(y).bits(), 0);
    }

    #[test]
    fn register_delays_by_one_cycle() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let (sim, t) = run(src, vec![vec![("d", 1)], vec![("d", 0)], vec![("d", 1)]]);
        let q = sim.netlist().signal_id("q").unwrap();
        // Pre-edge snapshot: q holds the previous cycle's d.
        assert_eq!(t.cycles[0].value(q).bits(), 0);
        assert_eq!(t.cycles[1].value(q).bits(), 1);
        assert_eq!(t.cycles[2].value(q).bits(), 0);
    }

    #[test]
    fn nonblocking_swap_is_simultaneous() {
        let src = "module m(input clk, input seed, output reg a, output reg b);\n\
                   always @(posedge clk) begin\n\
                   if (seed) begin a <= 1'b1; b <= 1'b0; end\n\
                   else begin a <= b; b <= a; end\nend\nendmodule";
        let (sim, t) = run(
            src,
            vec![
                vec![("seed", 1)],
                vec![("seed", 0)],
                vec![("seed", 0)],
                vec![("seed", 0)],
            ],
        );
        let a = sim.netlist().signal_id("a").unwrap();
        let b = sim.netlist().signal_id("b").unwrap();
        // After the seed cycle: a=1,b=0. Swaps alternate each edge.
        assert_eq!(
            (t.cycles[1].value(a).bits(), t.cycles[1].value(b).bits()),
            (1, 0)
        );
        assert_eq!(
            (t.cycles[2].value(a).bits(), t.cycles[2].value(b).bits()),
            (0, 1)
        );
        assert_eq!(
            (t.cycles[3].value(a).bits(), t.cycles[3].value(b).bits()),
            (1, 0)
        );
    }

    #[test]
    fn comb_loop_detected() {
        let src = "module m(input a, output y);\nwire t;\n\
                   assign t = ~y;\nassign y = t & a;\nendmodule";
        // With a=1: y = ~y — a genuine oscillation.
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let err = sim.run(&stim(vec![vec![("a", 1)]])).unwrap_err();
        assert!(matches!(err, SimError::CombinationalLoop { .. }));
    }

    #[test]
    fn execution_records_capture_operands_and_branches() {
        let src = "module m(input c, input a, input b, output reg y);\n\
                   always @(*) begin\nif (c) y = a; else y = b;\nend\nendmodule";
        let (_, t) = run(src, vec![vec![("c", 1), ("a", 1), ("b", 0)]]);
        let execs = &t.cycles[0].execs;
        assert_eq!(execs.len(), 1, "only the taken branch records");
        let e = execs.iter().next().unwrap();
        assert_eq!(e.stmt, verilog::StmtId(0));
        // `y = a` reads only `a`, so record position 0 holds its value.
        assert_eq!(e.operand(0).unwrap().bits(), 1);
        assert_eq!(e.operands.len(), 1);
        assert_eq!(e.result.bits(), 1);
    }

    #[test]
    fn driving_non_input_errors() {
        let src = "module m(input a, output y);\nassign y = a;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let err = sim.run(&stim(vec![vec![("y", 1)]])).unwrap_err();
        assert!(matches!(err, SimError::NotAnInput { .. }));
    }

    #[test]
    fn case_statement_executes_matching_arm() {
        let src = "module m(input [1:0] s, input a, input b, output reg y);\n\
                   always @(*) begin\ncase (s)\n2'b00: y = a;\n2'b01: y = b;\ndefault: y = 1'b1;\nendcase\nend\nendmodule";
        let (sim, t) = run(
            src,
            vec![
                vec![("s", 0), ("a", 1), ("b", 0)],
                vec![("s", 1), ("a", 1), ("b", 0)],
                vec![("s", 3), ("a", 0), ("b", 0)],
            ],
        );
        let y = sim.netlist().signal_id("y").unwrap();
        assert_eq!(t.cycles[0].value(y).bits(), 1); // y = a = 1
        assert_eq!(t.cycles[1].value(y).bits(), 0); // y = b = 0
        assert_eq!(t.cycles[2].value(y).bits(), 1); // default
    }

    #[test]
    fn async_reset_block_approximated_synchronously() {
        let src = "module m(input clk, input rst_n, input d, output reg q);\n\
                   always @(posedge clk or negedge rst_n) begin\n\
                   if (!rst_n) q <= 1'b0; else q <= d;\nend\nendmodule";
        let (sim, t) = run(
            src,
            vec![
                vec![("rst_n", 0), ("d", 1)],
                vec![("rst_n", 1), ("d", 1)],
                vec![("rst_n", 1), ("d", 0)],
            ],
        );
        let q = sim.netlist().signal_id("q").unwrap();
        assert_eq!(t.cycles[1].value(q).bits(), 0); // held in reset at cycle 0 edge
        assert_eq!(t.cycles[2].value(q).bits(), 1); // captured d=1 at cycle 1 edge
    }

    #[test]
    fn cancelled_token_stops_both_engines() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let vectors = stim(vec![vec![("d", 1)], vec![("d", 0)]]);
        for interpreted in [false, true] {
            let mut sim = if interpreted {
                Simulator::interpreted(unit.top()).unwrap()
            } else {
                Simulator::new(unit.top()).unwrap()
            };
            let token = CancelToken::new();
            token.cancel();
            sim.set_cancel(token);
            let err = sim.run(&vectors).unwrap_err();
            assert!(matches!(err, SimError::Cancelled { at_cycle: 0 }));
            // Clearing the token makes the simulator runnable again.
            sim.set_cancel(CancelToken::inert());
            assert_eq!(sim.run(&vectors).unwrap().len(), 2);
        }
    }

    #[test]
    fn fork_shares_code_and_matches_traces() {
        let src = "module m(input clk, input en, output reg [3:0] n, output y);\n\
                   assign y = n[0];\n\
                   always @(posedge clk) begin\nif (en) n <= n + 1'b1;\nend\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut original = Simulator::new(unit.top()).unwrap();
        let mut forked = original.fork();
        assert_eq!(original.batch_engine_kind(), forked.batch_engine_kind());
        let vectors = stim(vec![vec![("en", 1)], vec![("en", 1)], vec![("en", 0)]]);
        let a = original.run(&vectors).unwrap();
        let b = forked.run(&vectors).unwrap();
        assert_eq!(a, b, "forked simulator produces identical traces");
        // A cancelled parent does not poison the fork.
        let token = CancelToken::new();
        original.set_cancel(token.clone());
        token.cancel();
        assert!(original.run(&vectors).is_err());
        let fresh = original.fork();
        assert_eq!(fresh.batch_engine_kind(), EngineKind::Batch);
        let mut fresh = fresh;
        assert_eq!(fresh.run(&vectors).unwrap(), a);
    }

    #[test]
    fn run_batch_matches_sequential_runs_with_divergent_branches() {
        // A design whose control flow actually diverges across stimuli:
        // if/else plus a case over a 2-bit selector.
        let src = "module m(input clk, input [1:0] s, input [3:0] a, output reg [3:0] y, output reg [3:0] n);\n\
                   always @(*) begin\nif (s[0]) y = a + 4'd1; else y = a - 4'd1;\nend\n\
                   always @(posedge clk) begin\ncase (s)\n2'b00: n <= n + 4'd1;\n2'b01: n <= a;\ndefault: n <= 4'd0;\nendcase\nend\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let mut interp = Simulator::interpreted(unit.top()).unwrap();
        assert_eq!(sim.batch_engine_kind(), EngineKind::Batch);
        let gen = crate::testbench::TestbenchGen::new(11);
        let stimuli = gen.generate_many(sim.netlist(), 9, 7);
        let batched = sim.run_batch(&stimuli).unwrap();
        let sequential: Vec<Trace> = stimuli.iter().map(|s| interp.run(s).unwrap()).collect();
        assert_eq!(batched, sequential);
        // One stimulus at a time is a one-lane batch, with the same traces.
        let single: Vec<Trace> = stimuli.iter().map(|s| sim.run(s).unwrap()).collect();
        assert_eq!(single, sequential);
    }

    #[test]
    fn run_batch_splits_uneven_cycle_counts_into_chunks() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let mut interp = Simulator::interpreted(unit.top()).unwrap();
        // 3-cycle, 3-cycle, 5-cycle, 3-cycle: three batch chunks.
        let stimuli = vec![
            stim(vec![vec![("d", 1)]; 3]),
            stim(vec![vec![("d", 0)]; 3]),
            stim(vec![vec![("d", 1)]; 5]),
            stim(vec![vec![("d", 1)]; 3]),
        ];
        let batched = sim.run_batch(&stimuli).unwrap();
        assert_eq!(batched.len(), 4);
        for (t, s) in batched.iter().zip(&stimuli) {
            assert_eq!(t.len(), s.len());
            assert_eq!(t, &interp.run(s).unwrap());
        }
        // Empty input is a no-op.
        assert!(sim.run_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn run_batch_falls_back_for_interpreted_designs() {
        let src = "module m(input a, output y);\nassign y = a;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::interpreted(unit.top()).unwrap();
        assert_eq!(sim.batch_engine_kind(), EngineKind::Interpreted);
        let stimuli = vec![stim(vec![vec![("a", 1)]]), stim(vec![vec![("a", 0)]])];
        let traces = sim.run_batch(&stimuli).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0], sim.run(&stimuli[0]).unwrap());
    }

    #[test]
    fn run_batch_reports_scalar_input_errors() {
        let src = "module m(input a, output y);\nassign y = a;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let stimuli = vec![stim(vec![vec![("a", 1)]]), stim(vec![vec![("ghost", 1)]])];
        let err = sim.run_batch(&stimuli).unwrap_err();
        assert!(matches!(err, SimError::UnknownSignal { name } if name == "ghost"));
        let stimuli = vec![stim(vec![vec![("y", 1)]])];
        assert!(matches!(
            sim.run_batch(&stimuli).unwrap_err(),
            SimError::NotAnInput { .. }
        ));
    }

    #[test]
    fn run_batch_cancels_mid_batch_deterministically() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let stimuli = vec![stim(vec![vec![("d", 1)]; 8]); 5];
        // The batch engine polls once per cycle per chunk; a 2-poll budget
        // cancels at cycle 2 of the single 5-lane chunk.
        sim.set_cancel(CancelToken::after_polls(2));
        let err = sim.run_batch(&stimuli).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { at_cycle: 2 }));
        // Clearing the token makes the batch runnable again.
        sim.set_cancel(CancelToken::inert());
        assert_eq!(sim.run_batch(&stimuli).unwrap().len(), 5);
    }

    #[test]
    fn verdict_mode_matches_full_trace_columns_on_both_engines() {
        // Divergent control flow + nonblocking state: exercises the dirty
        // gate, masks, and deferred writes in verdict mode.
        let src = "module m(input clk, input [1:0] s, input [3:0] a, output reg [3:0] y, output reg [3:0] n);\n\
                   always @(*) begin\nif (s[0]) y = a + 4'd1; else y = a - 4'd1;\nend\n\
                   always @(posedge clk) begin\ncase (s)\n2'b00: n <= n + 4'd1;\n2'b01: n <= a;\ndefault: n <= 4'd0;\nendcase\nend\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let mut interp = Simulator::interpreted(unit.top()).unwrap();
        let y = sim.netlist().signal_id("y").unwrap();
        let n = sim.netlist().signal_id("n").unwrap();
        let observed = SignalSet::from_ids([n, y]);
        let gen = crate::testbench::TestbenchGen::new(23);
        let stimuli = gen.generate_many(sim.netlist(), 9, 7);

        let full: Vec<Trace> = stimuli.iter().map(|s| interp.run(s).unwrap()).collect();
        let expect = |t: &Trace| VerdictTrace {
            values: t
                .cycles
                .iter()
                .flat_map(|c| observed.ids().iter().map(|&id| c.value(id)))
                .collect(),
            nobs: observed.len(),
            records_elided: 0,
        };
        // Interpreter, one-lane, and full-batch verdict paths all
        // reproduce exactly the observed columns of the full trace.
        for (s, t) in stimuli.iter().zip(&full) {
            let one = std::slice::from_ref(s);
            assert_eq!(sim.run_batch_verdict(one, &observed).unwrap(), [expect(t)]);
            assert_eq!(
                interp.run_batch_verdict(one, &observed).unwrap(),
                [expect(t)]
            );
        }
        let batched = sim.run_batch_verdict(&stimuli, &observed).unwrap();
        assert_eq!(batched.len(), full.len());
        for (v, t) in batched.iter().zip(&full) {
            assert_eq!(v, &expect(t));
            assert!(v.records_elided > 0, "batch verdict elides records");
        }
    }

    #[test]
    fn verdict_mode_cancels_and_errors_like_full_mode() {
        let src = "module m(input clk, input d, output reg q);\n\
                   always @(posedge clk) q <= d;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let q = sim.netlist().signal_id("q").unwrap();
        let observed = SignalSet::from_ids([q]);
        let stimuli = vec![stim(vec![vec![("d", 1)]; 8]); 5];
        sim.set_cancel(CancelToken::after_polls(2));
        let err = sim.run_batch_verdict(&stimuli, &observed).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { at_cycle: 2 }));
        sim.set_cancel(CancelToken::inert());
        assert_eq!(sim.run_batch_verdict(&stimuli, &observed).unwrap().len(), 5);
        // Input validation errors match full mode.
        let bad = vec![stim(vec![vec![("ghost", 1)]])];
        assert!(matches!(
            sim.run_batch_verdict(&bad, &observed).unwrap_err(),
            SimError::UnknownSignal { name } if name == "ghost"
        ));
        assert!(matches!(
            sim.run_batch_verdict(&[stim(vec![vec![("q", 1)]])], &observed)
                .unwrap_err(),
            SimError::NotAnInput { .. }
        ));
    }

    #[test]
    fn records_only_runs_filter_records_and_snapshot_nothing() {
        obs::enable();
        let skipped = || obs::snapshot().counter("sim.records_skipped").unwrap_or(0);
        let src = "module m(input clk, input [1:0] s, input [3:0] a, output reg [3:0] y, output reg [3:0] n);\n\
                   always @(*) begin\nif (s[0]) y = a + 4'd1; else y = a - 4'd1;\nend\n\
                   always @(posedge clk) begin\ncase (s)\n2'b00: n <= n + 4'd1;\n2'b01: n <= a;\ndefault: n <= 4'd0;\nendcase\nend\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let keep = BTreeSet::from([StmtId(0), StmtId(3)]);
        for interpreted in [false, true] {
            let mut sim = if interpreted {
                Simulator::interpreted(unit.top()).unwrap()
            } else {
                Simulator::new(unit.top()).unwrap()
            };
            let stimuli = crate::testbench::TestbenchGen::new(5).generate_many(sim.netlist(), 9, 7);
            let full = sim.run_batch(&stimuli).unwrap();
            let before = skipped();
            let records = sim.run_batch_records(&stimuli, &keep).unwrap();
            let mut dropped = 0;
            for (r, f) in records.iter().zip(&full) {
                assert_eq!(r.len(), f.len());
                for (rc, fc) in r.cycles.iter().zip(&f.cycles) {
                    assert!(rc.signals.is_empty(), "no snapshot in records-only mode");
                    let kept: Vec<StmtExec> = fc
                        .execs
                        .iter()
                        .filter(|e| keep.contains(&e.stmt))
                        .cloned()
                        .collect();
                    dropped += fc.execs.len() - kept.len();
                    assert_eq!(rc.execs, kept.into());
                }
            }
            assert!(dropped > 0, "the set must drop some records");
            // Other tests may add to the shared total concurrently, so
            // only a lower bound holds; the interpreter does not count.
            if !interpreted {
                assert!(skipped() - before >= dropped as u64);
            }
        }
    }

    #[test]
    fn dirty_gate_counts_skips_through_single_runs() {
        obs::enable();
        // `z` depends only on `b`, which holds still: after the first
        // cycle its process is skipped on every cycle.
        let src = "module m(input a, input b, output y, output z);\n\
                   assign y = ~a;\nassign z = ~b;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let counters = || {
            let report = obs::snapshot();
            let get = |name| report.counter(name).unwrap_or(0);
            (get("sim.comb_evals"), get("sim.comb_skips"))
        };
        let (evals_before, skips_before) = counters();
        let vectors = (0..4).map(|c| vec![("a", c % 2), ("b", 1)]).collect();
        sim.run(&stim(vectors)).unwrap();
        let (evals_after, skips_after) = counters();
        // Other tests may add to the shared totals concurrently, so only
        // lower bounds hold: 2 processes at cycle 0 plus `y` on 3 more
        // cycles evaluate; `z` skips on cycles 1..4.
        assert!(evals_after - evals_before >= 5);
        assert!(skips_after - skips_before >= 3);
    }

    #[test]
    fn blocking_order_within_comb_block() {
        let src = "module m(input a, output reg y);\nreg t;\n\
                   always @(*) begin\nt = ~a;\ny = t;\nend\nendmodule";
        let (sim, t) = run(src, vec![vec![("a", 0)], vec![("a", 1)]]);
        let y = sim.netlist().signal_id("y").unwrap();
        assert_eq!(t.cycles[0].value(y).bits(), 1);
        assert_eq!(t.cycles[1].value(y).bits(), 0);
    }
}
