//! The reusable bug-localization entry point.
//!
//! Everything the `veribug localize` CLI command does — stimulus
//! generation, golden/buggy co-simulation, grouped heatmap explanation —
//! packaged as a library call so the CLI and the HTTP serving layer run
//! the *same* pipeline and produce byte-identical suspect rankings.
//!
//! Two entry points:
//!
//! - [`run`] elaborates both designs and builds the [`GoldenRef`] itself
//!   (the CLI path);
//! - [`run_with_sims`] accepts a caller's [`GoldenRef`], a pre-built buggy
//!   simulator, the buggy design's [`ExplainerState`] and a
//!   [`sim::CancelToken`], so a server can reuse cached compiled designs,
//!   memoized golden references and memoized explainers (see
//!   `veribug-serve`) and enforce per-request deadlines.
//!
//! The golden side of a localization — the seeded stimuli and the golden
//! design's values at the target — is a [`GoldenRef`]: one values-only
//! verdict simulation of the golden design, a pure function of the golden
//! source and its [`GoldenKey`], so `veribug-serve` memoizes it in the
//! golden design's cache entry (DESIGN.md §2e). The explainer's tables and
//! attention memo are likewise a pure function of the buggy design, the
//! target and the weights ([`ExplainerState`]), so it memoizes those in the
//! buggy design's entry. The buggy design is
//! simulated **once** per localization (DESIGN.md §2c): one pass records
//! only the statements the explainer attributes and observes the target,
//! whose per-cycle values label each run against the golden column. The
//! golden design is never simulated with records. The report is
//! bit-identical to a full-trace flow — the differential suite in
//! `crates/bench/tests/differential.rs` proves each part of the pass equal
//! to the full trace's.

use crate::coverage::DEFAULT_RUN_GROUPS;
use crate::explain::{
    AttentionMap, ExplainerState, Heatmap, LabelledTrace, DEFAULT_FAILURE_WINDOW,
};
use crate::model::VeriBugModel;
use crate::{VeriBugError, DEFAULT_THRESHOLD};
use mutate::{golden_verdicts, run_lane_groups_mode};
use sim::{
    CancelToken, EngineKind, SignalSet, Simulator, Stimulus, TestbenchGen, TraceLabel, TraceMode,
    VerdictTrace,
};
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
/// Elaborates both designs, builds the [`GoldenRef`] (seeded stimuli and
/// golden target values) inline, co-simulates [`LocalizeOptions::runs`]
/// runs, labels each at `target`, and explains failing runs with the
/// trained model. See [`run_with_sims`] for the cache/deadline-aware
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
    let inert = CancelToken::inert();
    let reference = GoldenRef::build(&mut golden_sim, target, opts, &inert)?;
    let mut explainer = {
        let _span = obs::span("explain");
        ExplainerState::new(buggy_sim.netlist(), target)
    };
    run_with_sims(
        model,
        &reference,
        &mut buggy_sim,
        &mut explainer,
        target,
        opts,
        &inert,
    )
}

/// The golden side of one localization: the seeded stimuli and the golden
/// design's per-cycle `target` values on each. It is a pure function of
/// the golden design and its [`GoldenKey`], so a server can build it once
/// per key and share it (behind an `Arc`) across requests.
#[derive(Debug)]
pub struct GoldenRef {
    /// The target's signal id in the golden design; the buggy design is
    /// observed at the same id (a mutation never touches declarations).
    target: sim::SignalId,
    stimuli: Vec<Stimulus>,
    /// The golden design's target column per stimulus.
    verdicts: Vec<VerdictTrace>,
}

impl GoldenRef {
    /// Generates the stimuli and simulates the golden design over them in
    /// verdict mode, observing only `target`. `cancel` is installed on
    /// `golden_sim` for the call and cleared afterwards.
    ///
    /// # Errors
    ///
    /// [`VeriBugError::UnknownTarget`] when `target` is not a signal of the
    /// golden design; [`VeriBugError::Sim`] for simulation failures,
    /// including [`sim::SimError::Cancelled`] when `cancel` fires.
    pub fn build(
        golden_sim: &mut Simulator,
        target: &str,
        opts: &LocalizeOptions,
        cancel: &CancelToken,
    ) -> Result<GoldenRef, VeriBugError> {
        let target =
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
        golden_sim.set_cancel(cancel.clone());
        let verdicts = {
            let _span = obs::span("simulate");
            golden_verdicts(golden_sim, &stimuli, target)
        };
        golden_sim.set_cancel(CancelToken::inert());
        Ok(GoldenRef {
            target,
            stimuli,
            verdicts: verdicts?,
        })
    }
}

/// Everything a [`GoldenRef`] depends on besides the golden source: the
/// target and the stimulus options. The threshold and run groups only
/// shape the explanation, so they are not part of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GoldenKey {
    target: String,
    stim_seed: u64,
    runs: usize,
    cycles: usize,
    /// `hold_probability` as bits, so the key is `Eq` and `Hash`.
    hold: u64,
}

impl GoldenKey {
    /// The key of the [`GoldenRef`] a localization of `target` under
    /// `opts` needs.
    pub fn new(target: &str, opts: &LocalizeOptions) -> GoldenKey {
        GoldenKey {
            target: target.to_owned(),
            stim_seed: opts.stim_seed,
            runs: opts.runs,
            cycles: opts.cycles,
            hold: opts.hold_probability.to_bits(),
        }
    }
}

/// [`run`] against a caller-supplied golden reference, buggy simulator and
/// explainer state, under a cancellation token.
///
/// `golden` must have been built for `target` and `opts` (see
/// [`GoldenKey`]); a server takes it from a memo next to the compiled
/// golden design. The simulator may come from a compiled-design cache (see
/// [`sim::Simulator::fork`]); `cancel` is installed on it for the duration
/// of the call (and cleared afterwards), so a fired deadline stops the
/// cycle loop at the next cycle boundary.
///
/// `explainer` must have been built for the buggy design and `target`
/// ([`ExplainerState::new`]) and only ever used with `model`'s weights.
/// The call extends its attention memo, so handing the same state to the
/// next localization of that design and target skips every model
/// evaluation already made; the report is the same either way. A failed
/// or cancelled call leaves the state as valid as it found it.
///
/// # Errors
///
/// [`VeriBugError::Sim`] for simulation failures, including
/// [`sim::SimError::Cancelled`] when `cancel` fires mid-run.
pub fn run_with_sims(
    model: &VeriBugModel,
    golden: &GoldenRef,
    buggy_sim: &mut Simulator,
    explainer: &mut ExplainerState,
    target: &str,
    opts: &LocalizeOptions,
    cancel: &CancelToken,
) -> Result<LocalizeReport, VeriBugError> {
    buggy_sim.set_cancel(cancel.clone());
    let result = localize_inner(model, golden, buggy_sim, explainer, target, opts);
    buggy_sim.set_cancel(CancelToken::inert());
    result
}

fn localize_inner(
    model: &VeriBugModel,
    golden: &GoldenRef,
    buggy_sim: &mut Simulator,
    explainer: &mut ExplainerState,
    target: &str,
    opts: &LocalizeOptions,
) -> Result<LocalizeReport, VeriBugError> {
    // One buggy pass: records of the statements the explainer attributes
    // (no signal snapshots) plus the target's per-cycle values, which
    // label each run against the golden column. Records are a pure
    // function of statement + values read, so each kept record is
    // byte-identical to what a full trace would have recorded.
    let attributed = explainer.attributed();
    let observed = SignalSet::from_ids([golden.target]);
    let runs = {
        let _span = obs::span("buggy_pass");
        run_lane_groups_mode(
            buggy_sim,
            &golden.stimuli,
            TraceMode::records_observing(&attributed, &observed),
        )?
    };
    let runs_view: Vec<LabelledTrace<'_>> = runs
        .iter()
        .zip(&golden.verdicts)
        .map(|((trace, column), golden_column)| {
            let failure_cycles = column.divergence_cycles(golden_column, 0);
            LabelledTrace {
                trace,
                label: if failure_cycles.is_empty() {
                    TraceLabel::Correct
                } else {
                    TraceLabel::Failing
                },
                failure_cycles,
            }
        })
        .collect();
    let failing = runs_view
        .iter()
        .filter(|r| r.label == TraceLabel::Failing)
        .count();
    let buggy = &buggy_sim.netlist().module;
    let mut report = LocalizeReport {
        module: buggy.name.clone(),
        target: target.to_owned(),
        total_runs: runs_view.len(),
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

    let _explain_span = obs::span("explain");
    // Each trace is walked once; the grouped heatmap and the correct-trace
    // map both aggregate the same resolved records.
    let resolved = explainer.resolve(model, DEFAULT_FAILURE_WINDOW, &runs_view, |_| true);
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
        // Simulate the serve cache: build once, fork per request, and
        // share one golden reference across requests.
        let golden_template = Simulator::new(&golden).unwrap();
        let buggy_template = Simulator::new(&buggy).unwrap();
        let inert = CancelToken::inert();
        let reference =
            GoldenRef::build(&mut golden_template.fork(), "y", &small_opts(), &inert).unwrap();
        for _ in 0..2 {
            let cached = run_with_sims(
                &model,
                &reference,
                &mut buggy_template.fork(),
                &mut ExplainerState::new(buggy_template.netlist(), "y"),
                "y",
                &small_opts(),
                &inert,
            )
            .unwrap();
            assert_eq!(cached.suspects, fresh.suspects);
            assert_eq!(cached.failing_runs, fresh.failing_runs);
        }
    }

    #[test]
    fn golden_key_covers_every_stimulus_option() {
        let base = small_opts();
        let key = GoldenKey::new("y", &base);
        // Explanation-only knobs share a key.
        let explain_only = LocalizeOptions {
            threshold: 0.5,
            run_groups: 7,
            ..small_opts()
        };
        assert_eq!(GoldenKey::new("y", &explain_only), key);
        let variants = [
            LocalizeOptions {
                stim_seed: base.stim_seed + 1,
                ..small_opts()
            },
            LocalizeOptions {
                runs: base.runs + 1,
                ..small_opts()
            },
            LocalizeOptions {
                cycles: base.cycles + 1,
                ..small_opts()
            },
            LocalizeOptions {
                hold_probability: 0.5,
                ..small_opts()
            },
        ];
        for opts in &variants {
            assert_ne!(GoldenKey::new("y", opts), key);
        }
        assert_ne!(GoldenKey::new("t", &base), key);
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
        let is_cancelled =
            |e: VeriBugError| matches!(e, VeriBugError::Sim(sim::SimError::Cancelled { .. }));
        let err = GoldenRef::build(&mut gs, "y", &small_opts(), &expired).unwrap_err();
        assert!(is_cancelled(err));
        // The token is cleared afterwards: the golden sim stays usable.
        let inert = CancelToken::inert();
        let reference = GoldenRef::build(&mut gs, "y", &small_opts(), &inert).unwrap();
        let mut explainer = ExplainerState::new(bs.netlist(), "y");
        let mut localize = |cancel: &CancelToken| {
            let opts = small_opts();
            run_with_sims(
                &model,
                &reference,
                &mut bs,
                &mut explainer,
                "y",
                &opts,
                cancel,
            )
        };
        assert!(is_cancelled(localize(&expired).unwrap_err()));
        // So does the buggy sim, and the explainer state stays usable.
        assert!(localize(&inert).is_ok());
    }

    #[test]
    fn a_reused_explainer_state_answers_like_a_cold_one_without_evaluating() {
        let (golden, buggy) = modules();
        let model = VeriBugModel::new(ModelConfig::default());
        let cold = run(&model, &golden, &buggy, "y", &small_opts()).unwrap();
        assert!(cold.has_failures());
        let inert = CancelToken::inert();
        let reference = GoldenRef::build(
            &mut Simulator::new(&golden).unwrap(),
            "y",
            &small_opts(),
            &inert,
        )
        .unwrap();
        let buggy_template = Simulator::new(&buggy).unwrap();
        let mut explainer = ExplainerState::new(buggy_template.netlist(), "y");
        let mut arena = Vec::new();
        for _ in 0..3 {
            let report = run_with_sims(
                &model,
                &reference,
                &mut buggy_template.fork(),
                &mut explainer,
                "y",
                &small_opts(),
                &inert,
            )
            .unwrap();
            assert_eq!(report.suspects, cold.suspects);
            assert_eq!(report.heatmap, cold.heatmap);
            assert_eq!(report.correct_map, cold.correct_map);
            arena.push(explainer.arena_len());
        }
        // The first run fills the memo; every model evaluation appends to
        // the arena, so a later run that leaves it as it was evaluated
        // nothing (the `model.evals` counter itself is checked in
        // `crates/bench/tests/explain_obs.rs`, a binary of its own).
        assert!(arena[0] > 0);
        assert_eq!(arena, [arena[0]; 3]);
    }
}
