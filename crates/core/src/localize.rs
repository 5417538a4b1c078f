//! The reusable bug-localization entry point.
//!
//! Everything the `veribug localize` CLI command does — stimulus
//! generation, golden/buggy co-simulation, grouped heatmap explanation —
//! packaged as a library call so the CLI and the HTTP serving layer run
//! the *same* pipeline and produce byte-identical suspect rankings.
//!
//! Two entry points:
//!
//! - [`run`] elaborates both designs itself (the CLI path);
//! - [`run_with_sims`] accepts pre-built simulators plus a
//!   [`sim::CancelToken`], so a server can reuse cached compiled designs
//!   (see `veribug-serve`) and enforce per-request deadlines.
//!
//! Internally both entry points use the **two-pass trace-elision flow**
//! (see DESIGN.md §2c): a values-only verdict pass labels every run, then
//! execution records are produced only for the buggy design, only when at
//! least one run failed, and only for the statements the explainer
//! attributes. The golden design is never simulated with records. The
//! report is bit-identical to a single-pass flow — the differential suite
//! in `crates/bench/tests/differential.rs` proves it.

use crate::coverage::DEFAULT_RUN_GROUPS;
use crate::explain::{AttentionMap, Heatmap, LabelledTrace};
use crate::model::VeriBugModel;
use crate::{Explainer, VeriBugError, DEFAULT_THRESHOLD};
use mutate::{golden_verdicts, run_lane_groups_records, screen_with};
use sim::{CancelToken, EngineKind, Simulator, TestbenchGen};
use verilog::Module;

/// Tunable knobs of one localization request. [`Default`] matches the CLI
/// defaults, so two callers with default options are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeOptions {
    /// Constrained-random stimuli to co-simulate.
    pub runs: usize,
    /// Cycles per stimulus.
    pub cycles: usize,
    /// Attention threshold for heatmap admission.
    pub threshold: f32,
    /// Independent run groups max-pooled by
    /// [`grouped_heatmap`](crate::coverage::grouped_heatmap).
    pub run_groups: usize,
    /// Seed of the stimulus generator.
    pub stim_seed: u64,
    /// Input hold probability of the stimulus generator.
    pub hold_probability: f64,
}

impl Default for LocalizeOptions {
    fn default() -> Self {
        LocalizeOptions {
            runs: 160,
            cycles: 16,
            threshold: DEFAULT_THRESHOLD,
            run_groups: DEFAULT_RUN_GROUPS,
            stim_seed: 0xD0_17,
            hold_probability: 0.8,
        }
    }
}

/// One ranked suspect statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Suspect {
    /// The statement id in the buggy design.
    pub stmt: verilog::StmtId,
    /// Its suspiciousness score (higher = more suspicious).
    pub suspiciousness: f32,
    /// The statement source, rendered as `lhs = rhs`.
    pub source: String,
}

/// The result of one localization run.
#[derive(Debug, Clone)]
pub struct LocalizeReport {
    /// The buggy module's name.
    pub module: String,
    /// The target output localized against.
    pub target: String,
    /// Total co-simulated runs.
    pub total_runs: usize,
    /// Runs whose target output diverged from golden.
    pub failing_runs: usize,
    /// The threshold used.
    pub threshold: f32,
    /// Which engine simulated the buggy design.
    pub engine: EngineKind,
    /// Suspects, most suspicious first (ties break toward lower ids).
    /// Empty when no run failed or nothing crossed the threshold.
    pub suspects: Vec<Suspect>,
    /// The full grouped heatmap (drives the comparison rendering).
    pub heatmap: Heatmap,
    /// The correct-trace attention map (for comparison rendering).
    pub correct_map: AttentionMap,
}

impl LocalizeReport {
    /// True when at least one run exposed a failure at the target.
    pub fn has_failures(&self) -> bool {
        self.failing_runs > 0
    }
}

/// Localizes a bug by comparing a buggy design to its golden reference.
///
/// Elaborates both designs, co-simulates [`LocalizeOptions::runs`] seeded
/// stimuli, labels each run at `target`, and explains failing runs with
/// the trained model. See [`run_with_sims`] for the cache/deadline-aware
/// variant.
///
/// # Errors
///
/// [`VeriBugError::UnknownTarget`] when `target` is not a signal of the
/// golden design; [`VeriBugError::Sim`] for elaboration or simulation
/// failures.
pub fn run(
    model: &VeriBugModel,
    golden: &Module,
    buggy: &Module,
    target: &str,
    opts: &LocalizeOptions,
) -> Result<LocalizeReport, VeriBugError> {
    let (mut golden_sim, mut buggy_sim) = {
        let _span = obs::span("elaborate");
        (Simulator::new(golden)?, Simulator::new(buggy)?)
    };
    run_with_sims(
        model,
        &mut golden_sim,
        &mut buggy_sim,
        target,
        opts,
        &CancelToken::inert(),
    )
}

/// [`run`] with caller-supplied simulators and a cancellation token.
///
/// The simulators may come from a compiled-design cache (see
/// [`sim::Simulator::fork`]); `cancel` is installed on both for the
/// duration of the call (and cleared afterwards), so a fired deadline
/// stops the cycle loops at the next cycle boundary.
///
/// # Errors
///
/// As [`run`], plus [`VeriBugError::Sim`] wrapping
/// [`sim::SimError::Cancelled`] when `cancel` fires mid-run.
pub fn run_with_sims(
    model: &VeriBugModel,
    golden_sim: &mut Simulator,
    buggy_sim: &mut Simulator,
    target: &str,
    opts: &LocalizeOptions,
    cancel: &CancelToken,
) -> Result<LocalizeReport, VeriBugError> {
    golden_sim.set_cancel(cancel.clone());
    buggy_sim.set_cancel(cancel.clone());
    let result = localize_inner(model, golden_sim, buggy_sim, target, opts, cancel);
    golden_sim.set_cancel(CancelToken::inert());
    buggy_sim.set_cancel(CancelToken::inert());
    result
}

fn localize_inner(
    model: &VeriBugModel,
    golden_sim: &mut Simulator,
    buggy_sim: &mut Simulator,
    target: &str,
    opts: &LocalizeOptions,
    cancel: &CancelToken,
) -> Result<LocalizeReport, VeriBugError> {
    let target_id =
        golden_sim
            .netlist()
            .signal_id(target)
            .ok_or_else(|| VeriBugError::UnknownTarget {
                target: target.to_owned(),
            })?;
    let stimuli = {
        let _span = obs::span("stimgen");
        TestbenchGen::new(opts.stim_seed)
            .with_hold_probability(opts.hold_probability)
            .generate_many(golden_sim.netlist(), opts.cycles, opts.runs)
    };
    // Pass 1 — verdict screening: both designs run in
    // [`sim::TraceMode::Verdict`] with only `target` observed, so the
    // labelling step is pure lane-parallel compute plus an O(1)-per-cycle
    // compare. The golden design is *never* simulated with full traces:
    // the explainer below only ever reads buggy-side records.
    let golden_vs = {
        let _span = obs::span("simulate");
        golden_verdicts(golden_sim, &stimuli, target_id)?
    };
    let verdicts = {
        let _span = obs::span("campaign");
        screen_with(buggy_sim, &golden_vs, target_id, &stimuli)?
    };
    let failing = verdicts.iter().filter(|v| v.diverged()).count();
    let mut report = LocalizeReport {
        module: buggy_sim.netlist().module.name.clone(),
        target: target.to_owned(),
        total_runs: verdicts.len(),
        failing_runs: failing,
        threshold: opts.threshold,
        engine: buggy_sim.batch_engine_kind(),
        suspects: Vec::new(),
        heatmap: Heatmap {
            entries: Default::default(),
            threshold: opts.threshold,
        },
        correct_map: AttentionMap::default(),
    };
    if failing == 0 {
        return Ok(report);
    }
    if cancel.is_cancelled() {
        return Err(sim::SimError::Cancelled { at_cycle: 0 }.into());
    }

    // Pass 2 — records-only traces, buggy design only, and only because at
    // least one run failed. Only the statements the explainer attributes
    // are recorded, and no signal is snapshotted: labels and failure
    // cycles come from the verdict pass. Records are a pure function of
    // statement + values read, so each kept record is byte-identical to
    // what a single-pass full trace would have recorded.
    let mut explainer = {
        let _span = obs::span("explain");
        Explainer::new(model, &buggy_sim.netlist().module, target)
    };
    let buggy_traces = {
        let _span = obs::span("full_trace");
        run_lane_groups_records(buggy_sim, &stimuli, &explainer.attributed())?
    };
    let buggy = &buggy_sim.netlist().module;
    let runs_view: Vec<LabelledTrace<'_>> = buggy_traces
        .iter()
        .zip(&verdicts)
        .map(|(trace, v)| LabelledTrace {
            trace,
            label: v.label(),
            failure_cycles: if v.diverged() {
                v.divergence_cycles.clone()
            } else {
                Vec::new()
            },
        })
        .collect();
    let _explain_span = obs::span("explain");
    // Each trace is walked once; the grouped heatmap and the correct-trace
    // map both aggregate the same resolved records.
    let resolved = explainer.resolve(&runs_view, |_| true);
    report.heatmap = explainer.grouped(&resolved, opts.threshold, opts.run_groups);
    report.correct_map = explainer.correct_map(&resolved);
    report.suspects = report
        .heatmap
        .ranked()
        .into_iter()
        .map(|(stmt, sus)| Suspect {
            stmt,
            suspiciousness: sus,
            source: buggy
                .assignment(stmt)
                .map(|a| format!("{} = {}", a.lhs.base, verilog::print_expr(&a.rhs)))
                .unwrap_or_else(|| "<unknown>".to_owned()),
        })
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use std::time::{Duration, Instant};

    const GOLDEN: &str = "module m(input a, input b, input c, output y);\n\
                          wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule";
    const BUGGY: &str = "module m(input a, input b, input c, output y);\n\
                         wire t;\nassign t = a | b;\nassign y = t | c;\nendmodule";

    fn modules() -> (Module, Module) {
        (
            verilog::parse(GOLDEN).unwrap().top().clone(),
            verilog::parse(BUGGY).unwrap().top().clone(),
        )
    }

    fn small_opts() -> LocalizeOptions {
        LocalizeOptions {
            runs: 24,
            cycles: 8,
            ..LocalizeOptions::default()
        }
    }

    #[test]
    fn localize_finds_failures_and_ranks_suspects() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let report = run(&model, &golden, &buggy, "y", &small_opts()).unwrap();
        assert!(report.has_failures(), "a|b vs a&b must diverge");
        assert_eq!(report.total_runs, 24);
        assert_eq!(report.module, "m");
        // The ranking is sorted most-suspicious-first.
        for w in report.suspects.windows(2) {
            assert!(w[0].suspiciousness >= w[1].suspiciousness);
        }
    }

    #[test]
    fn localize_is_deterministic() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let a = run(&model, &golden, &buggy, "y", &small_opts()).unwrap();
        let b = run(&model, &golden, &buggy, "y", &small_opts()).unwrap();
        assert_eq!(a.failing_runs, b.failing_runs);
        assert_eq!(a.suspects, b.suspects);
    }

    #[test]
    fn forked_cached_sims_match_fresh_elaboration() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let fresh = run(&model, &golden, &buggy, "y", &small_opts()).unwrap();
        // Simulate the serve cache: build once, fork per request.
        let golden_template = Simulator::new(&golden).unwrap();
        let buggy_template = Simulator::new(&buggy).unwrap();
        for _ in 0..2 {
            let cached = run_with_sims(
                &model,
                &mut golden_template.fork(),
                &mut buggy_template.fork(),
                "y",
                &small_opts(),
                &CancelToken::inert(),
            )
            .unwrap();
            assert_eq!(cached.suspects, fresh.suspects);
            assert_eq!(cached.failing_runs, fresh.failing_runs);
        }
    }

    #[test]
    fn unknown_target_is_typed() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let err = run(&model, &golden, &buggy, "nope", &small_opts()).unwrap_err();
        assert!(matches!(err, VeriBugError::UnknownTarget { .. }));
    }

    #[test]
    fn expired_deadline_cancels() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let mut gs = Simulator::new(&golden).unwrap();
        let mut bs = Simulator::new(&buggy).unwrap();
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let err =
            run_with_sims(&model, &mut gs, &mut bs, "y", &small_opts(), &expired).unwrap_err();
        assert!(matches!(
            err,
            VeriBugError::Sim(sim::SimError::Cancelled { .. })
        ));
        // The token is cleared afterwards: the sims stay usable.
        let ok = run_with_sims(
            &model,
            &mut gs,
            &mut bs,
            "y",
            &small_opts(),
            &CancelToken::inert(),
        );
        assert!(ok.is_ok());
    }
}
