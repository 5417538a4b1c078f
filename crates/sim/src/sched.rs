//! The simulator front end: [`Simulator`] elaborates a design, compiles it
//! into the batch engine, and groups stimuli into lane batches.

use std::sync::Arc;

use crate::batch::BatchEngine;
use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::netlist::Netlist;
use crate::testbench::Stimulus;
use crate::trace::{Trace, TraceMode, VerdictTrace};
use crate::value::LANES;
use verilog::Module;

/// Which execution strategy a [`Simulator`] runs. There is one; the enum
/// stays so reports keep naming their engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The compiled engine: levelized, bit-parallel bytecode evaluating up
    /// to [`LANES`] stimuli at once with per-lane dirty-set re-evaluation,
    /// or a per-cycle fixpoint settle for designs without a levelized
    /// schedule. A single stimulus runs as a one-lane batch.
    Batch,
}

/// A reusable simulator for one design.
///
/// [`Simulator::new`] compiles the design into the bit-parallel bytecode
/// engine. When static analysis proves that one ordered combinational pass
/// per cycle equals the fixpoint settle, the engine runs that levelized
/// pass under a per-lane dirty gate; otherwise (a static combinational
/// cycle, several drivers of one signal, combinational logic writing an
/// input, or a signal written both combinationally and sequentially) it
/// iterates combinational passes to a fixpoint each cycle, exactly as the
/// interpreter oracle ([`crate::oracle::interpret`]) does. Either way its
/// [`Trace`]s — signal snapshots and [`crate::StmtExec`] records — are
/// bit-identical to the oracle's.
#[derive(Debug)]
pub struct Simulator {
    netlist: Arc<Netlist>,
    engine: BatchEngine,
    cancel: CancelToken,
}

impl Simulator {
    /// Elaborates and compiles a module into a simulator.
    ///
    /// # Errors
    ///
    /// Propagates elaboration errors ([`SimError::Unsupported`],
    /// [`SimError::ClockMismatch`]), and rejects with
    /// [`SimError::Unsupported`] — naming the construct and its position —
    /// a construct with no simulated value: an inverted part select or one
    /// wider than 64 bits on either side of an assignment, or a
    /// concatenation or replication wider than 64 bits.
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
        let engine = BatchEngine::build(&netlist)?;
        Ok(Simulator {
            netlist: Arc::new(netlist),
            engine,
            cancel: CancelToken::inert(),
        })
    }

    /// An independent simulator for the same design that shares this one's
    /// elaborated netlist and compiled bytecode (two `Arc` bumps instead of
    /// a parse→levelize→compile pass or any copy of the design). Runtime
    /// state is fresh and the cancel token is reset to inert, so forks are
    /// safe to run concurrently on other threads. This is what the serving
    /// layer's compiled-design cache hands out per request.
    pub fn fork(&self) -> Simulator {
        Simulator {
            netlist: Arc::clone(&self.netlist),
            engine: self.engine.fork(),
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

    /// Which engine every run uses: always [`EngineKind::Batch`].
    pub fn batch_engine_kind(&self) -> EngineKind {
        EngineKind::Batch
    }

    /// The installed cancellation token (inert unless
    /// [`set_cancel`](Self::set_cancel) was called). Lets batch pipelines
    /// propagate a parent simulator's token onto forks, which reset to
    /// inert.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The elaborated design, shared by every fork of this simulator.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// Runs a stimulus from the all-zero reset state and returns the trace.
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] when the stimulus drives a non-input,
    /// [`SimError::CombinationalLoop`] when combinational logic does not
    /// settle, and [`SimError::Cancelled`] when an installed
    /// [`CancelToken`] fires.
    pub fn run(&mut self, stimulus: &Stimulus) -> Result<Trace, SimError> {
        let mut runs = self.run_batch_mode(std::slice::from_ref(stimulus), TraceMode::full())?;
        Ok(runs.pop().expect("one trace per stimulus").0)
    }

    /// Runs many stimuli under `mode` and returns one `(trace, observed
    /// values)` pair per stimulus, in order. The trace holds what `mode`
    /// records (no cycles when it records nothing); the [`VerdictTrace`]
    /// holds the observed signals' per-cycle values (none when it observes
    /// nothing). The engine runs one cycle loop for every mode, so each
    /// product equals the corresponding part of the full trace:
    /// [`TraceMode::full`] gives the traces [`run`](Self::run) would, and
    /// [`TraceMode::verdict`] — the campaign screening pass — gives exactly
    /// their observed columns with no [`crate::StmtExec`] records
    /// materialized.
    ///
    /// Consecutive stimuli of equal cycle count are grouped into batches of
    /// up to [`LANES`] and simulated bit-parallel — one bytecode op
    /// evaluates every lane at once — which is how campaigns, dataset
    /// builds, and localization amortize per-stimulus cost. Traces,
    /// snapshots, and records are bit-identical to the oracle's, whatever
    /// the grouping.
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
        let mut runs = Vec::with_capacity(stimuli.len());
        for chunk in lane_groups(stimuli) {
            runs.extend(self.engine.run(&self.netlist, chunk, &self.cancel, mode)?);
        }
        Ok(runs)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::interpret;
    use crate::testbench::Stimulus;
    use crate::trace::{SignalSet, StmtExec};

    fn stim(vectors: Vec<Vec<(&str, u64)>>) -> Stimulus {
        Stimulus::from_named(vectors)
    }

    /// The full traces of `stimuli`, one per stimulus.
    fn traces(sim: &mut Simulator, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
        let runs = sim.run_batch_mode(stimuli, TraceMode::full())?;
        Ok(runs.into_iter().map(|(trace, _)| trace).collect())
    }

    /// The `observed` columns of `stimuli`'s traces, one per stimulus.
    fn verdicts(
        sim: &mut Simulator,
        stimuli: &[Stimulus],
        observed: &SignalSet,
    ) -> Result<Vec<VerdictTrace>, SimError> {
        let runs = sim.run_batch_mode(stimuli, TraceMode::verdict(observed))?;
        Ok(runs.into_iter().map(|(_, verdict)| verdict).collect())
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

    /// A levelized design and a settle-plan design (a static cycle
    /// between `y` and `t`), both registering `d`.
    const LEVELIZED_AND_SETTLED: [&str; 2] = [
        "module m(input clk, input d, output reg q);\n\
         always @(posedge clk) q <= d;\nendmodule",
        "module m(input clk, input d, output reg q, output y);\nwire t;\n\
         assign y = t | d;\nassign t = y & q;\n\
         always @(posedge clk) q <= d;\nendmodule",
    ];

    #[test]
    fn cancelled_token_stops_both_engines() {
        // One engine, two schedules: levelized and settle.
        let vectors = stim(vec![vec![("d", 1)], vec![("d", 0)]]);
        for src in LEVELIZED_AND_SETTLED {
            let unit = verilog::parse(src).unwrap();
            let mut sim = Simulator::new(unit.top()).unwrap();
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
        let (parent, child): (&Netlist, &Netlist) = (original.netlist(), forked.netlist());
        assert!(
            std::ptr::eq(parent, child),
            "a fork shares its parent's netlist instead of copying it"
        );
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
        let gen = crate::testbench::TestbenchGen::new(11);
        let stimuli = gen.generate_many(sim.netlist(), 9, 7);
        let batched = traces(&mut sim, &stimuli).unwrap();
        let sequential: Vec<Trace> = stimuli
            .iter()
            .map(|s| interpret(sim.netlist(), s).unwrap())
            .collect();
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
        // 3-cycle, 3-cycle, 5-cycle, 3-cycle: three batch chunks.
        let stimuli = vec![
            stim(vec![vec![("d", 1)]; 3]),
            stim(vec![vec![("d", 0)]; 3]),
            stim(vec![vec![("d", 1)]; 5]),
            stim(vec![vec![("d", 1)]; 3]),
        ];
        let batched = traces(&mut sim, &stimuli).unwrap();
        assert_eq!(batched.len(), 4);
        for (t, s) in batched.iter().zip(&stimuli) {
            assert_eq!(t.len(), s.len());
            assert_eq!(t, &interpret(sim.netlist(), s).unwrap());
        }
        // Empty input is a no-op.
        assert!(traces(&mut sim, &[]).unwrap().is_empty());
    }

    #[test]
    fn run_batch_settles_designs_without_a_levelized_schedule() {
        // A converging static cycle, two drivers of one signal, a
        // combinational write to an input, and a signal written by both
        // kinds of process: each settles per cycle like the oracle.
        let sources = [
            LEVELIZED_AND_SETTLED[1],
            "module m(input a, input b, output y);\nassign y = a;\nassign y = b;\nendmodule",
            "module m(input a, input b, output y);\nassign a = b;\nassign y = a;\nendmodule",
            "module m(input clk, input a, output reg y);\n\
             always @(*) y = a;\nalways @(posedge clk) y <= ~y;\nendmodule",
        ];
        for src in sources {
            let unit = verilog::parse(src).unwrap();
            let mut sim = Simulator::new(unit.top()).unwrap();
            assert!(sim.engine.settles(), "{src}");
            let stimuli =
                crate::testbench::TestbenchGen::new(3).generate_many(sim.netlist(), 9, 70);
            let oracle: Vec<Trace> = stimuli
                .iter()
                .map(|s| interpret(sim.netlist(), s).unwrap())
                .collect();
            assert_eq!(traces(&mut sim, &stimuli).unwrap(), oracle, "{src}");
            assert_eq!(sim.run(&stimuli[0]).unwrap(), oracle[0], "{src}");
        }
    }

    #[test]
    fn run_batch_reports_scalar_input_errors() {
        let src = "module m(input a, output y);\nassign y = a;\nendmodule";
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let stimuli = vec![stim(vec![vec![("a", 1)]]), stim(vec![vec![("ghost", 1)]])];
        let err = traces(&mut sim, &stimuli).unwrap_err();
        assert!(matches!(err, SimError::UnknownSignal { name } if name == "ghost"));
        let stimuli = vec![stim(vec![vec![("y", 1)]])];
        assert!(matches!(
            traces(&mut sim, &stimuli).unwrap_err(),
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
        let err = traces(&mut sim, &stimuli).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { at_cycle: 2 }));
        // Clearing the token makes the batch runnable again.
        sim.set_cancel(CancelToken::inert());
        assert_eq!(traces(&mut sim, &stimuli).unwrap().len(), 5);
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
        let y = sim.netlist().signal_id("y").unwrap();
        let n = sim.netlist().signal_id("n").unwrap();
        let observed = SignalSet::from_ids([n, y]);
        let gen = crate::testbench::TestbenchGen::new(23);
        let stimuli = gen.generate_many(sim.netlist(), 9, 7);

        let full: Vec<Trace> = stimuli
            .iter()
            .map(|s| interpret(sim.netlist(), s).unwrap())
            .collect();
        let expect = |t: &Trace| VerdictTrace {
            values: t
                .cycles
                .iter()
                .flat_map(|c| observed.ids().iter().map(|&id| c.value(id)))
                .collect(),
            nobs: observed.len(),
        };
        // One-lane and full-batch verdict paths both reproduce exactly
        // the observed columns of the oracle's full trace.
        for (s, t) in stimuli.iter().zip(&full) {
            let one = std::slice::from_ref(s);
            assert_eq!(verdicts(&mut sim, one, &observed).unwrap(), [expect(t)]);
        }
        obs::enable();
        let elided = || obs::snapshot().counter("sim.records_elided").unwrap_or(0);
        let before = elided();
        let batched = verdicts(&mut sim, &stimuli, &observed).unwrap();
        assert!(elided() > before, "batch verdict elides records");
        assert_eq!(batched.len(), full.len());
        for (v, t) in batched.iter().zip(&full) {
            assert_eq!(v, &expect(t));
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
        let err = verdicts(&mut sim, &stimuli, &observed).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { at_cycle: 2 }));
        sim.set_cancel(CancelToken::inert());
        assert_eq!(verdicts(&mut sim, &stimuli, &observed).unwrap().len(), 5);
        // Input validation errors match full mode.
        let bad = vec![stim(vec![vec![("ghost", 1)]])];
        assert!(matches!(
            verdicts(&mut sim, &bad, &observed).unwrap_err(),
            SimError::UnknownSignal { name } if name == "ghost"
        ));
        assert!(matches!(
            verdicts(&mut sim, &[stim(vec![vec![("q", 1)]])], &observed).unwrap_err(),
            SimError::NotAnInput { .. }
        ));
    }

    #[test]
    fn records_only_runs_filter_records_and_snapshot_nothing() {
        obs::enable();
        let skipped = || obs::snapshot().counter("sim.records_skipped").unwrap_or(0);
        // The same design levelized, and with a feedback read of `y` that
        // forces a settle plan.
        let src = "module m(input clk, input [1:0] s, input [3:0] a, output reg [3:0] y, output reg [3:0] n);\n\
                   always @(*) begin\nif (s[0]) y = a + 4'd1; else y = a - 4'd1;\nend\n\
                   always @(posedge clk) begin\ncase (s)\n2'b00: n <= n + 4'd1;\n2'b01: n <= a;\ndefault: n <= 4'd0;\nendcase\nend\nendmodule";
        let settled = src.replace("a - 4'd1", "a | y");
        let keep = std::collections::BTreeSet::from([verilog::StmtId(0), verilog::StmtId(3)]);
        for src in [src, settled.as_str()] {
            let unit = verilog::parse(src).unwrap();
            let mut sim = Simulator::new(unit.top()).unwrap();
            let stimuli = crate::testbench::TestbenchGen::new(5).generate_many(sim.netlist(), 9, 7);
            let full = traces(&mut sim, &stimuli).unwrap();
            let before = skipped();
            let records = sim
                .run_batch_mode(&stimuli, TraceMode::records(&keep))
                .unwrap();
            let mut dropped = 0;
            for ((r, _), f) in records.iter().zip(&full) {
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
            // only a lower bound holds.
            assert!(skipped() - before >= dropped as u64);
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
