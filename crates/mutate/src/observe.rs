//! Observability checking by golden-vs-mutant co-simulation.
//!
//! A bug is **observable** when it symptomatizes at the target output under
//! at least one stimulus (paper Sec. V, "Bug injection"). The same
//! co-simulation also labels traces: a run where the target diverges is a
//! failure trace (`T_f`), one where the bug stays masked is a correct trace
//! (`T_c`).

use sim::{SignalSet, SimError, Simulator, Stimulus, Trace, TraceLabel, TraceMode, VerdictTrace};
use verilog::Module;

/// A pair of traces from the same stimulus, with the failure label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledRun {
    /// The mutant's trace (this is what VeriBug analyzes).
    pub trace: Trace,
    /// The golden design's trace on the same stimulus.
    pub golden: Trace,
    /// Failing when the target output diverged in any cycle.
    pub label: TraceLabel,
    /// The target output's signal id (same in golden and mutant: the
    /// mutation never touches declarations).
    pub target: sim::SignalId,
}

impl LabelledRun {
    /// Cycles where the mutant's target output diverged from golden.
    pub fn failure_cycles(&self) -> Vec<u32> {
        self.trace
            .cycles
            .iter()
            .zip(&self.golden.cycles)
            .filter(|(m, g)| m.value(self.target) != g.value(self.target))
            .map(|(m, _)| m.cycle)
            .collect()
    }
}

/// The verdict of one screening run: where (if anywhere) the mutant's
/// target output diverged from golden, plus elision accounting.
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
    /// [`sim::StmtExec`] records the verdict run declined to materialize
    /// (best-effort accounting, not part of the verdict itself).
    pub records_elided: u64,
}

impl RunVerdict {
    /// True when the target output diverged in any cycle.
    pub fn diverged(&self) -> bool {
        !self.divergence_cycles.is_empty()
    }

    /// The label full-trace co-simulation would assign this run.
    pub fn label(&self) -> TraceLabel {
        if self.diverged() {
            TraceLabel::Failing
        } else {
            TraceLabel::Correct
        }
    }

    /// The first divergence cycle, if any.
    pub fn first_divergence(&self) -> Option<u32> {
        self.divergence_cycles.first().copied()
    }
}

/// Runs a simulator over a stimulus set bit-parallel, partitioning the set
/// into lane groups of up to [`sim::LANES`] stimuli.
///
/// A single group runs on the caller's simulator directly; larger sets fan
/// the groups out with [`par::par_chunk_map`] — one lane group per
/// partition, on a fork sharing the compiled code, with the parent's
/// cancel token re-installed (forks reset to inert) — and merge results in
/// stimulus order, so the output is identical at any thread count.
pub fn run_lane_groups(sim: &mut Simulator, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
    fan_out(sim, stimuli, Simulator::run_batch)
}

/// [`run_lane_groups`] in verdict mode ([`Simulator::run_batch_verdict`]).
pub fn run_lane_groups_verdict(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    observed: &SignalSet,
) -> Result<Vec<VerdictTrace>, SimError> {
    fan_out(sim, stimuli, |s, g| s.run_batch_verdict(g, observed))
}

/// [`run_lane_groups`] under any [`TraceMode`]
/// ([`Simulator::run_batch_mode`]): one `(trace, observed values)` pair per
/// stimulus. With [`TraceMode::records_observing`] this is one simulation
/// that both labels each run and records what explaining it reads.
pub fn run_lane_groups_mode(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    mode: TraceMode<'_>,
) -> Result<Vec<(Trace, VerdictTrace)>, SimError> {
    fan_out(sim, stimuli, |s, g| s.run_batch_mode(g, mode))
}

/// The lane-group fan-out behind every `run_lane_groups*` function.
fn fan_out<T: Send>(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    run: impl Fn(&mut Simulator, &[Stimulus]) -> Result<Vec<T>, SimError> + Sync,
) -> Result<Vec<T>, SimError> {
    if stimuli.len() <= sim::LANES {
        return run(sim, stimuli);
    }
    let shared = &*sim;
    let results = par::par_chunk_map(stimuli, sim::LANES, |_, group| {
        let mut fork = shared.fork();
        fork.set_cancel(shared.cancel_token().clone());
        run(&mut fork, group)
    });
    let mut out = Vec::with_capacity(stimuli.len());
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Runs the golden design over every stimulus in verdict mode, observing
/// only `target` — the reference values the screening pass compares mutants
/// to. The verdict-mode counterpart of [`golden_traces`].
///
/// # Errors
///
/// Propagates simulation errors from the golden design.
pub fn golden_verdicts(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    target: sim::SignalId,
) -> Result<Vec<VerdictTrace>, SimError> {
    run_lane_groups_verdict(sim, stimuli, &SignalSet::from_ids([target]))
}

/// Screens a mutant against precomputed golden verdicts: verdict-mode
/// co-simulation yielding one [`RunVerdict`] per stimulus. Divergence
/// verdicts, labels, and divergence cycles are identical to what
/// full-trace co-simulation ([`cosimulate_against`]) would produce —
/// verdict mode reproduces exactly the observed columns of the full trace —
/// at a fraction of the memory traffic.
///
/// # Errors
///
/// Propagates elaboration or simulation errors from the mutant (the same
/// errors, at the same points, as the full-trace pass).
pub fn screen_against(
    golden: &[VerdictTrace],
    target: sim::SignalId,
    mutant: &Module,
    stimuli: &[Stimulus],
) -> Result<Vec<RunVerdict>, SimError> {
    let mut mutant_sim = Simulator::new(mutant)?;
    screen_with(&mut mutant_sim, golden, target, stimuli)
}

/// [`screen_against`] with a caller-supplied mutant simulator.
///
/// # Errors
///
/// Propagates simulation errors (including cancellation) from the mutant.
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
    let verdicts = run_lane_groups_verdict(mutant_sim, stimuli, &SignalSet::from_ids([target]))?;
    Ok(verdicts
        .into_iter()
        .zip(golden)
        .map(|(mv, gv)| RunVerdict {
            divergence_cycles: mv.divergence_cycles(gv, 0),
            records_elided: mv.records_elided,
        })
        .collect())
}

/// True when any screening run diverged — the verdict-mode counterpart of
/// [`is_observable`].
pub fn any_diverged(verdicts: &[RunVerdict]) -> bool {
    verdicts.iter().any(RunVerdict::diverged)
}

/// Runs the golden design on every stimulus — batched up to
/// [`sim::LANES`]-wide — producing the reference traces that
/// [`cosimulate_against`] compares mutants to.
///
/// A mutation campaign evaluates many mutants against the **same** golden
/// design and stimuli, so the golden traces are computed once up front and
/// shared across every candidate instead of being re-simulated per mutant.
///
/// # Errors
///
/// Propagates simulation errors from the golden design.
pub fn golden_traces(sim: &mut Simulator, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
    run_lane_groups(sim, stimuli)
}

/// Co-simulates a mutant against precomputed golden traces and labels every
/// run at the target output.
///
/// `golden[i]` must be the golden design's trace on `stimuli[i]` (as produced
/// by [`golden_traces`]); the two slices must have equal length.
///
/// # Errors
///
/// Propagates elaboration or simulation errors from the mutant.
pub fn cosimulate_against(
    golden: &[Trace],
    target: sim::SignalId,
    mutant: &Module,
    stimuli: &[Stimulus],
) -> Result<Vec<LabelledRun>, SimError> {
    assert_eq!(
        golden.len(),
        stimuli.len(),
        "one golden trace per stimulus required"
    );
    let mut mutant_sim = Simulator::new(mutant)?;
    cosimulate_with(&mut mutant_sim, golden, target, stimuli)
}

/// [`cosimulate_against`] with a caller-supplied mutant simulator.
///
/// Lets callers that already hold an elaborated (and possibly compiled)
/// simulator — e.g. the serving layer's design cache — skip the
/// parse→levelize→compile pass, and honours any [`sim::CancelToken`]
/// installed on it.
///
/// # Errors
///
/// Propagates simulation errors (including cancellation) from the mutant.
pub fn cosimulate_with(
    mutant_sim: &mut Simulator,
    golden: &[Trace],
    target: sim::SignalId,
    stimuli: &[Stimulus],
) -> Result<Vec<LabelledRun>, SimError> {
    assert_eq!(
        golden.len(),
        stimuli.len(),
        "one golden trace per stimulus required"
    );
    let _span = obs::span("campaign.cosim");
    let traces = run_lane_groups(mutant_sim, stimuli)?;
    let mut out = Vec::with_capacity(stimuli.len());
    for (mt, gt) in traces.into_iter().zip(golden) {
        let label = if mt.differs_at(gt, target) {
            TraceLabel::Failing
        } else {
            TraceLabel::Correct
        };
        out.push(LabelledRun {
            trace: mt,
            golden: gt.clone(),
            label,
            target,
        });
    }
    Ok(out)
}

/// Co-simulates golden and mutant designs on a set of stimuli and labels
/// every run against the target output.
///
/// Convenience wrapper over [`golden_traces`] + [`cosimulate_against`] for
/// one-off comparisons; campaigns should precompute the golden traces and
/// call [`cosimulate_against`] directly to avoid re-simulating the golden
/// design per mutant.
///
/// # Errors
///
/// Propagates elaboration or simulation errors from either design.
pub fn cosimulate(
    golden: &Module,
    mutant: &Module,
    target: &str,
    stimuli: &[Stimulus],
) -> Result<Vec<LabelledRun>, SimError> {
    let mut golden_sim = Simulator::new(golden)?;
    let target_id =
        golden_sim
            .netlist()
            .signal_id(target)
            .ok_or_else(|| SimError::UnknownSignal {
                name: target.to_owned(),
            })?;
    let golden = golden_traces(&mut golden_sim, stimuli)?;
    cosimulate_against(&golden, target_id, mutant, stimuli)
}

/// True when any run in `runs` is failing — i.e. the bug is observable at
/// the target.
pub fn is_observable(runs: &[LabelledRun]) -> bool {
    runs.iter().any(|r| r.label == TraceLabel::Failing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::TestbenchGen;

    fn module(src: &str) -> Module {
        verilog::parse(src).unwrap().top().clone()
    }

    #[test]
    fn detects_observable_divergence() {
        let golden = module("module m(input a, input b, output y);\nassign y = a & b;\nendmodule");
        let mutant = module("module m(input a, input b, output y);\nassign y = a | b;\nendmodule");
        let sim0 = Simulator::new(&golden).unwrap();
        let stimuli = TestbenchGen::new(1).generate_many(sim0.netlist(), 16, 4);
        let runs = cosimulate(&golden, &mutant, "y", &stimuli).unwrap();
        assert!(is_observable(&runs));
        assert!(runs.iter().any(|r| r.label == TraceLabel::Failing));
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
        let runs = cosimulate(&golden, &mutant, "y", &stimuli).unwrap();
        assert!(!is_observable(&runs));
    }

    #[test]
    fn identical_designs_never_fail() {
        let golden = module("module m(input a, output y);\nassign y = ~a;\nendmodule");
        let sim0 = Simulator::new(&golden).unwrap();
        let stimuli = TestbenchGen::new(3).generate_many(sim0.netlist(), 8, 3);
        let runs = cosimulate(&golden, &golden, "y", &stimuli).unwrap();
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
        let verdicts = screen_against(&gv, target, &mutant, &stimuli).unwrap();
        let gt = golden_traces(&mut golden_sim, &stimuli).unwrap();
        let runs = cosimulate_against(&gt, target, &mutant, &stimuli).unwrap();

        assert_eq!(verdicts.len(), runs.len());
        assert_eq!(any_diverged(&verdicts), is_observable(&runs));
        for (v, r) in verdicts.iter().zip(&runs) {
            assert_eq!(v.label(), r.label);
            assert_eq!(v.divergence_cycles, r.failure_cycles());
            assert_eq!(v.first_divergence(), r.failure_cycles().first().copied());
        }
    }

    #[test]
    fn unknown_target_errors() {
        let golden = module("module m(input a, output y);\nassign y = a;\nendmodule");
        let err = cosimulate(&golden, &golden, "ghost", &[]).unwrap_err();
        assert!(matches!(err, SimError::UnknownSignal { .. }));
    }
}
