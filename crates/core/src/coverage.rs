//! Top-1 bug-coverage scoring (paper Sec. VI-A, Table III).
//!
//! A bug is **localized** when the highest suspiciousness score in the
//! heatmap `H_t` lands on the statement containing the root cause. Coverage
//! for a design/target pair is `localized / observable`.

use crate::explain::{
    Explainer, ExplainerState, Heatmap, LabelledTrace, DEFAULT_FAILURE_WINDOW, DEFAULT_THRESHOLD,
};
use crate::localize::rank;
use crate::model::VeriBugModel;
use mutate::{Mutant, MutationKind};

/// Builds the explainer's input from a mutant's labelled co-simulation
/// runs (failing runs carry their divergence cycles, correct runs none).
pub fn labelled_traces(mutant: &Mutant) -> Vec<LabelledTrace<'_>> {
    mutant
        .runs
        .iter()
        .map(|r| LabelledTrace {
            trace: &r.trace,
            label: r.label,
            failure_cycles: r.failure_cycles.clone(),
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

/// How many independent run groups the localization max-pools over (the
/// paper: "we consider the highest suspiciousness scores after running the
/// same VeriBug instance over multiple simulation runs").
pub const DEFAULT_RUN_GROUPS: usize = 8;

/// [`rank`]'s heatmap over `explainer`'s state, at the default failure
/// window. Kept, with [`Explainer`], for perfbench's layer replay until
/// that replay takes its layers from the server.
pub fn grouped_heatmap(
    explainer: &mut Explainer<'_>,
    runs: &[LabelledTrace<'_>],
    threshold: f32,
    groups: usize,
) -> Heatmap {
    let (model, state) = (explainer.model, &mut explainer.state);
    rank(
        model,
        state,
        DEFAULT_FAILURE_WINDOW,
        runs,
        threshold,
        groups,
    )
    .heatmap
}

/// Localizes every observable mutant of a campaign through [`rank`] on
/// the mutant design (that is what a verification engineer has; the golden
/// design only supplied the failure labels) and tallies coverage.
/// Unobservable mutants count toward `injected` only.
pub fn coverage_for_mutants(
    model: &VeriBugModel,
    mutants: &[Mutant],
    target: &str,
) -> (Coverage, Vec<LocalizationOutcome>) {
    let mut cov = Coverage::default();
    let mut outcomes = Vec::with_capacity(mutants.len());
    for m in mutants {
        let mut top1 = None;
        if m.observable {
            let mut state = ExplainerState::new(&m.netlist, target);
            let (window, groups) = (DEFAULT_FAILURE_WINDOW, DEFAULT_RUN_GROUPS);
            let runs = labelled_traces(m);
            let ranking = rank(model, &mut state, window, &runs, DEFAULT_THRESHOLD, groups);
            top1 = ranking.heatmap.top1();
        }
        let localized = m.observable && top1 == Some(m.site.stmt);
        cov.injected += 1;
        cov.observable += usize::from(m.observable);
        cov.localized += usize::from(localized);
        outcomes.push(LocalizationOutcome {
            kind: m.site.kind,
            bug_stmt: m.site.stmt,
            observable: m.observable,
            top1,
            localized,
        });
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
