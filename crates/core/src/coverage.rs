//! Top-1 bug-coverage scoring (paper Sec. VI-A, Table III).
//!
//! A bug is **localized** when the highest suspiciousness score in the
//! heatmap `H_t` lands on the statement containing the root cause. Coverage
//! for a design/target pair is `localized / observable`.

use crate::explain::{Explainer, Heatmap, LabelledTrace, DEFAULT_THRESHOLD};
use crate::model::VeriBugModel;
use mutate::{Mutant, MutationKind};
use sim::TraceLabel;

/// Builds the explainer's input from a mutant's labelled co-simulation
/// runs, attaching divergence cycles to failing runs.
pub fn labelled_traces(mutant: &Mutant) -> Vec<LabelledTrace<'_>> {
    mutant
        .runs
        .iter()
        .map(|r| LabelledTrace {
            trace: &r.trace,
            label: r.label,
            failure_cycles: if r.label == TraceLabel::Failing {
                r.failure_cycles()
            } else {
                Vec::new()
            },
        })
        .collect()
}

/// The outcome of localizing one injected bug.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LocalizationOutcome {
    /// The injected mutation's kind.
    pub kind: MutationKind,
    /// The mutated (root-cause) statement.
    pub bug_stmt: verilog::StmtId,
    /// Whether the bug was observable at the target at all.
    pub observable: bool,
    /// The heatmap's top-1 statement, if any.
    pub top1: Option<verilog::StmtId>,
    /// Whether top-1 localization succeeded.
    pub localized: bool,
    /// The bug statement's suspiciousness, when it entered the heatmap.
    pub bug_suspiciousness: Option<f32>,
    /// Heatmap size (candidate statements).
    pub heatmap_size: usize,
}

/// Aggregated top-1 coverage for a set of outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Coverage {
    /// Bugs injected.
    pub injected: usize,
    /// Bugs observable at the target.
    pub observable: usize,
    /// Bugs localized at top-1.
    pub localized: usize,
}

impl Coverage {
    /// `localized / observable` (1.0 when nothing was observable).
    pub fn ratio(&self) -> f64 {
        if self.observable == 0 {
            1.0
        } else {
            self.localized as f64 / self.observable as f64
        }
    }

    /// Coverage as a percentage.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }

    /// Merges another coverage tally into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.injected += other.injected;
        self.observable += other.observable;
        self.localized += other.localized;
    }
}

/// Localizes one mutant with a trained model and scores the outcome.
///
/// The explainer runs on the *mutant* design (that is what a verification
/// engineer has); the golden design only supplied the failure labels.
pub fn localize_mutant(
    model: &VeriBugModel,
    mutant: &Mutant,
    target: &str,
    threshold: f32,
) -> LocalizationOutcome {
    localize_mutant_with(
        model,
        mutant,
        target,
        threshold,
        crate::explain::DEFAULT_FAILURE_WINDOW,
    )
}

/// How many independent run groups the localization max-pools over (the
/// paper: "we consider the highest suspiciousness scores after running the
/// same VeriBug instance over multiple simulation runs").
pub const DEFAULT_RUN_GROUPS: usize = 8;

/// [`localize_mutant`] with an explicit failure-window width.
///
/// The mutant's runs are split into [`DEFAULT_RUN_GROUPS`] groups; each
/// group produces its own heatmap and a statement's final suspiciousness is
/// its highest across groups.
pub fn localize_mutant_with(
    model: &VeriBugModel,
    mutant: &Mutant,
    target: &str,
    threshold: f32,
    failure_window: u32,
) -> LocalizationOutcome {
    let mut explainer =
        Explainer::new(model, &mutant.module, target).with_failure_window(failure_window);
    let runs = labelled_traces(mutant);
    let heatmap = grouped_heatmap(&mut explainer, &runs, threshold, DEFAULT_RUN_GROUPS);
    score(&heatmap, mutant)
}

/// Splits `runs` into `groups` interleaved subsets, explains each, and
/// max-pools statement suspiciousness across the per-group heatmaps.
pub fn grouped_heatmap(
    explainer: &mut Explainer<'_>,
    runs: &[LabelledTrace<'_>],
    threshold: f32,
    groups: usize,
) -> Heatmap {
    let groups = group_count(runs.len(), groups);
    // Runs of groups without a failing run are never aggregated.
    let failing_group: Vec<bool> = (0..groups)
        .map(|g| {
            runs.iter()
                .skip(g)
                .step_by(groups)
                .any(|r| r.label == sim::TraceLabel::Failing)
        })
        .collect();
    let resolved = explainer.resolve(runs, |i| failing_group[i % groups]);
    explainer.grouped(&resolved, threshold, groups)
}

/// The number of run groups [`grouped_heatmap`] forms: at least one, at
/// most one per run.
pub(crate) fn group_count(runs: usize, groups: usize) -> usize {
    groups.max(1).min(runs.max(1))
}

fn score(heatmap: &Heatmap, mutant: &Mutant) -> LocalizationOutcome {
    let top1 = heatmap.top1();
    let bug_stmt = mutant.site.stmt;
    LocalizationOutcome {
        kind: mutant.site.kind,
        bug_stmt,
        observable: mutant.observable,
        top1,
        localized: mutant.observable && top1 == Some(bug_stmt),
        bug_suspiciousness: heatmap.entries.get(&bug_stmt).map(|e| e.suspiciousness),
        heatmap_size: heatmap.len(),
    }
}

/// Localizes every observable mutant of a campaign and tallies coverage.
/// Unobservable mutants count toward `injected` only.
pub fn coverage_for_mutants(
    model: &VeriBugModel,
    mutants: &[Mutant],
    target: &str,
) -> (Coverage, Vec<LocalizationOutcome>) {
    let mut cov = Coverage::default();
    let mut outcomes = Vec::with_capacity(mutants.len());
    for m in mutants {
        cov.injected += 1;
        if !m.observable {
            outcomes.push(LocalizationOutcome {
                kind: m.site.kind,
                bug_stmt: m.site.stmt,
                observable: false,
                top1: None,
                localized: false,
                bug_suspiciousness: None,
                heatmap_size: 0,
            });
            continue;
        }
        cov.observable += 1;
        let outcome = localize_mutant(model, m, target, DEFAULT_THRESHOLD);
        if outcome.localized {
            cov.localized += 1;
        }
        outcomes.push(outcome);
    }
    (cov, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_ratio() {
        let c = Coverage {
            injected: 10,
            observable: 8,
            localized: 6,
        };
        assert!((c.ratio() - 0.75).abs() < 1e-9);
        assert!((c.percent() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_observable_is_full_coverage() {
        let c = Coverage {
            injected: 3,
            observable: 0,
            localized: 0,
        };
        assert_eq!(c.ratio(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Coverage {
            injected: 2,
            observable: 2,
            localized: 1,
        };
        a.merge(&Coverage {
            injected: 3,
            observable: 2,
            localized: 2,
        });
        assert_eq!(
            a,
            Coverage {
                injected: 5,
                observable: 4,
                localized: 3
            }
        );
    }
}
