//! Observability checking by golden-vs-mutant co-simulation.
//!
//! A bug is **observable** when it symptomatizes at the target output under
//! at least one stimulus (paper Sec. V, "Bug injection"). The same
//! comparison also labels runs: a run where the target diverges is a
//! failure trace (`T_f`), one where the bug stays masked is a correct trace
//! (`T_c`).
//!
//! Production labels come from verdict-mode screening ([`screen_with`]),
//! which simulates only the target column. [`crate::oracle::cosimulate`]
//! is the one full-trace reference: it labels runs from complete signal
//! snapshots, independently of the verdict path, for tests and benchmarks
//! to check that path against.

use sim::{SignalSet, SimError, Simulator, Stimulus, Trace, TraceLabel, TraceMode, VerdictTrace};

/// One mutant run on one stimulus, with its failure label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledRun {
    /// The mutant's trace (this is what VeriBug analyzes). A campaign
    /// keeps execution records only (empty `signals` snapshots);
    /// [`crate::oracle::cosimulate`] returns the full trace.
    pub trace: Trace,
    /// Failing when the target output diverged in any cycle.
    pub label: TraceLabel,
    /// Cycles (ascending) where the target output diverged from golden;
    /// empty exactly when the run is correct.
    pub failure_cycles: Vec<u32>,
}

impl LabelledRun {
    /// Labels `trace` from the cycles where its target diverged.
    pub(crate) fn new(trace: Trace, failure_cycles: Vec<u32>) -> LabelledRun {
        LabelledRun {
            trace,
            label: label_of(&failure_cycles),
            failure_cycles,
        }
    }
}

/// The verdict of one screening run: where (if anywhere) the mutant's
/// target output diverged from golden.
///
/// This is everything the campaign's accept/reject machinery reads — the
/// observable flag is "any run diverged", the label is "this run diverged",
/// and the divergence-cycle histogram takes the first cycle — so the
/// screening pass can run in [`TraceMode::verdict`] and skip full traces
/// entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct RunVerdict {
    /// Cycles (ascending) where the target output diverged from golden.
    pub divergence_cycles: Vec<u32>,
}

impl RunVerdict {
    /// True when the target output diverged in any cycle.
    pub fn diverged(&self) -> bool {
        !self.divergence_cycles.is_empty()
    }

    /// The label full-trace co-simulation would assign this run.
    pub fn label(&self) -> TraceLabel {
        label_of(&self.divergence_cycles)
    }

    /// The first divergence cycle, if any.
    pub fn first_divergence(&self) -> Option<u32> {
        self.divergence_cycles.first().copied()
    }
}

/// Failing when the target diverged in any cycle, correct otherwise.
fn label_of(divergence_cycles: &[u32]) -> TraceLabel {
    if divergence_cycles.is_empty() {
        TraceLabel::Correct
    } else {
        TraceLabel::Failing
    }
}

/// Runs a simulator over a stimulus set bit-parallel, partitioning the set
/// into lane groups of up to [`sim::LANES`] stimuli.
///
/// The groups fan out with [`par::par_chunk_map`] — one lane group per
/// partition (a single group runs inline on the calling thread), on a fork
/// sharing the netlist and compiled code, with the parent's cancel token
/// re-installed (forks reset to inert) — and results merge in stimulus
/// order, so the output is identical at any thread count.
pub fn run_lane_groups(sim: &mut Simulator, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
    let runs = run_lane_groups_mode(sim, stimuli, TraceMode::full())?;
    Ok(runs.into_iter().map(|(trace, _)| trace).collect())
}

/// [`run_lane_groups`] under any [`TraceMode`]
/// ([`Simulator::run_batch_mode`]): one `(trace, observed values)` pair per
/// stimulus. With [`TraceMode::records_observing`] this is one simulation
/// that both labels each run and records what explaining it reads.
pub fn run_lane_groups_mode(
    sim: &Simulator,
    stimuli: &[Stimulus],
    mode: TraceMode<'_>,
) -> Result<Vec<(Trace, VerdictTrace)>, SimError> {
    let results = par::par_chunk_map(stimuli, sim::LANES, |_, group| {
        let mut fork = sim.fork();
        fork.set_cancel(sim.cancel_token().clone());
        fork.run_batch_mode(group, mode)
    });
    let mut out = Vec::with_capacity(stimuli.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Runs the golden design over every stimulus in verdict mode, observing
/// only `target` — the reference values the screening pass compares mutants
/// to.
///
/// # Errors
///
/// Propagates simulation errors from the golden design.
pub fn golden_verdicts(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    target: sim::SignalId,
) -> Result<Vec<VerdictTrace>, SimError> {
    let observed = SignalSet::from_ids([target]);
    let runs = run_lane_groups_mode(sim, stimuli, TraceMode::verdict(&observed))?;
    Ok(runs.into_iter().map(|(_, verdict)| verdict).collect())
}

/// Screens a mutant, simulated by `mutant_sim`, against precomputed golden
/// verdicts: verdict-mode co-simulation yielding one [`RunVerdict`] per
/// stimulus. Divergence verdicts, labels, and divergence cycles are
/// identical to what full-trace co-simulation
/// ([`crate::oracle::cosimulate`]) would produce — verdict mode reproduces
/// exactly the observed columns of the full trace — at a fraction of the
/// memory traffic.
///
/// # Errors
///
/// Propagates simulation errors (including cancellation) from the mutant
/// (the same errors, at the same points, as the full-trace pass).
pub fn screen_with(
    mutant_sim: &mut Simulator,
    golden: &[VerdictTrace],
    target: sim::SignalId,
    stimuli: &[Stimulus],
) -> Result<Vec<RunVerdict>, SimError> {
    assert_eq!(
        golden.len(),
        stimuli.len(),
        "one golden verdict per stimulus required"
    );
    let _span = obs::span("campaign.screen");
    // The mutant's verdicts observe the target exactly as golden's do.
    let verdicts = golden_verdicts(mutant_sim, stimuli, target)?;
    Ok(verdicts
        .into_iter()
        .zip(golden)
        .map(|(mv, gv)| RunVerdict {
            divergence_cycles: mv.divergence_cycles(gv, 0),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::cosimulate;
    use sim::TestbenchGen;
    use verilog::Module;

    fn module(src: &str) -> Module {
        verilog::parse(src).unwrap().top().clone()
    }

    /// [`cosimulate`] of `mutant` against `golden` on `stimuli`.
    fn cosim(
        golden: &Module,
        mutant: &Module,
        target: &str,
        stimuli: &[Stimulus],
    ) -> Vec<LabelledRun> {
        let golden = run_lane_groups(&mut Simulator::new(golden).unwrap(), stimuli).unwrap();
        cosimulate(
            &golden,
            &mut Simulator::new(mutant).unwrap(),
            target,
            stimuli,
        )
        .unwrap()
    }

    fn observable(runs: &[LabelledRun]) -> bool {
        runs.iter().any(|r| r.label == TraceLabel::Failing)
    }

    #[test]
    fn detects_observable_divergence() {
        let golden = module("module m(input a, input b, output y);\nassign y = a & b;\nendmodule");
        let mutant = module("module m(input a, input b, output y);\nassign y = a | b;\nendmodule");
        let sim0 = Simulator::new(&golden).unwrap();
        let stimuli = TestbenchGen::new(1).generate_many(sim0.netlist(), 16, 4);
        let runs = cosim(&golden, &mutant, "y", &stimuli);
        assert!(observable(&runs));
        for r in &runs {
            assert_eq!(r.label == TraceLabel::Failing, !r.failure_cycles.is_empty());
        }
    }

    #[test]
    fn masked_bug_is_unobservable() {
        // y only looks at a; mutating the z logic cannot show at y.
        let golden = module(
            "module m(input a, input b, output y, output z);\nassign y = a;\nassign z = a & b;\nendmodule",
        );
        let mutant = module(
            "module m(input a, input b, output y, output z);\nassign y = a;\nassign z = a | b;\nendmodule",
        );
        let sim0 = Simulator::new(&golden).unwrap();
        let stimuli = TestbenchGen::new(2).generate_many(sim0.netlist(), 16, 4);
        assert!(!observable(&cosim(&golden, &mutant, "y", &stimuli)));
    }

    #[test]
    fn identical_designs_never_fail() {
        let golden = module("module m(input a, output y);\nassign y = ~a;\nendmodule");
        let sim0 = Simulator::new(&golden).unwrap();
        let stimuli = TestbenchGen::new(3).generate_many(sim0.netlist(), 8, 3);
        let runs = cosim(&golden, &golden, "y", &stimuli);
        assert!(runs.iter().all(|r| r.label == TraceLabel::Correct));
    }

    #[test]
    fn verdict_screening_matches_full_cosimulation() {
        let golden = module(
            "module m(input clk, input a, input b, output reg y);\n\
             always @(posedge clk) y <= a ^ b;\nendmodule",
        );
        let mutant = module(
            "module m(input clk, input a, input b, output reg y);\n\
             always @(posedge clk) y <= a & b;\nendmodule",
        );
        let mut golden_sim = Simulator::new(&golden).unwrap();
        let target = golden_sim.netlist().signal_id("y").unwrap();
        let stimuli = TestbenchGen::new(5).generate_many(golden_sim.netlist(), 12, 70);

        let gv = golden_verdicts(&mut golden_sim, &stimuli, target).unwrap();
        let mut mutant_sim = Simulator::new(&mutant).unwrap();
        let verdicts = screen_with(&mut mutant_sim, &gv, target, &stimuli).unwrap();
        let runs = cosim(&golden, &mutant, "y", &stimuli);

        assert_eq!(verdicts.len(), runs.len());
        assert_eq!(verdicts.iter().any(RunVerdict::diverged), observable(&runs));
        for (v, r) in verdicts.iter().zip(&runs) {
            assert_eq!(v.label(), r.label);
            assert_eq!(v.divergence_cycles, r.failure_cycles);
            assert_eq!(v.first_divergence(), r.failure_cycles.first().copied());
        }
    }

    #[test]
    fn unknown_target_errors() {
        let golden = module("module m(input a, output y);\nassign y = a;\nendmodule");
        let mut sim = Simulator::new(&golden).unwrap();
        let err = cosimulate(&[], &mut sim, "ghost", &[]).unwrap_err();
        assert!(matches!(err, SimError::UnknownSignal { .. }));
    }
}
