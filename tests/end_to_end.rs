//! Cross-crate integration tests: the full pipeline from Verilog source to
//! localization heatmaps, exercised on small but complete scenarios.

use veribug_suite::cdfg::{dependencies_of, Slice, Vdg};
use veribug_suite::mutate::{BugBudget, Campaign, MutationKind};
use veribug_suite::rvdg::{Generator, RvdgConfig};
use veribug_suite::sim::{Simulator, TestbenchGen, TraceLabel};
use veribug_suite::veribug::{
    coverage::{coverage_for_mutants, labelled_traces},
    explain::DEFAULT_FAILURE_WINDOW,
    localize::rank,
    model::{ModelConfig, VeriBugModel},
    train::{self, Dataset, TrainConfig},
    ExplainerState, StatementFeatures, DEFAULT_THRESHOLD,
};
use veribug_suite::verilog;

const ARB: &str = "\
module arb(input clk, input req1, input req2, output reg gnt1, output reg gnt2);
  reg state;
  always @(posedge clk) state <= req1 ^ req2;
  always @(*) begin
    if (state) gnt1 = req1 & ~req2;
    else gnt1 = req1 | req2;
    gnt2 = req2 & ~req1;
  end
endmodule
";

fn trained_model() -> VeriBugModel {
    let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 5)
        .generate_corpus(6)
        .expect("corpus generates")
        .into_iter()
        .map(|d| d.module)
        .collect();
    let dataset = Dataset::from_designs(&corpus, 1, 32, 2).expect("dataset builds");
    let mut model = VeriBugModel::new(ModelConfig::default());
    train::train(
        &mut model,
        &dataset,
        &TrainConfig {
            epochs: 12,
            ..TrainConfig::default()
        },
    )
    .expect("training succeeds");
    model
}

#[test]
fn parse_analyze_simulate_roundtrip() {
    let module = verilog::parse(ARB).expect("parses").top().clone();

    // Static analysis agrees with the design's structure.
    let vdg = Vdg::build(&module);
    let dep: Vec<_> = dependencies_of(&vdg, "gnt1").into_iter().collect();
    assert_eq!(dep, vec!["req1", "req2", "state"]);
    let slice = Slice::of_target(&module, "gnt1");
    assert_eq!(slice.len(), 3); // state stmt + both gnt1 branches

    // Simulation executes the slice and records operand values.
    let mut sim = Simulator::new(&module).expect("elaborates");
    let stim = TestbenchGen::new(3).generate(sim.netlist(), 32);
    let trace = sim.run(&stim).expect("simulates");
    let executed = trace.executed_stmts();
    for stmt in &slice.stmts {
        assert!(executed.contains(stmt), "slice stmt {stmt} never executed");
    }

    // Feature extraction covers the slice statements.
    let features = StatementFeatures::extract_all(&module);
    for stmt in &slice.stmts {
        assert!(features.contains_key(stmt), "no features for {stmt}");
    }
}

#[test]
fn pretty_print_mutant_reparses_and_preserves_ids() {
    let module = verilog::parse(ARB).expect("parses").top().clone();
    let sites = veribug_suite::mutate::enumerate_sites(&module, None);
    assert!(!sites.is_empty());
    for site in sites.iter().take(20) {
        let Some(mutant) = veribug_suite::mutate::apply(&module, site) else {
            continue;
        };
        let printed = verilog::print_module(&mutant);
        let reparsed = verilog::parse(&printed)
            .unwrap_or_else(|e| panic!("mutant does not reparse: {e}\n{printed}"));
        let ids_a: Vec<_> = mutant.assignments().iter().map(|a| a.id).collect();
        let ids_b: Vec<_> = reparsed.top().assignments().iter().map(|a| a.id).collect();
        assert_eq!(ids_a, ids_b, "ids changed through print/parse");
    }
}

#[test]
fn campaign_explain_coverage_end_to_end() {
    let model = trained_model();
    let golden = verilog::parse(ARB).expect("parses").top().clone();
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let mutants = Campaign::new(7)
        .with_runs_per_mutant(16)
        .run(&golden, "gnt1", &budget)
        .expect("campaign runs");
    assert!(!mutants.is_empty());

    let (cov, outcomes) = coverage_for_mutants(&model, &mutants, "gnt1");
    assert_eq!(cov.injected, mutants.len());
    assert_eq!(outcomes.len(), mutants.len());
    assert!(cov.observable > 0, "nothing observable");
    // Every outcome is self-consistent.
    for (m, o) in mutants.iter().zip(&outcomes) {
        assert_eq!(o.kind, m.site.kind);
        assert_eq!(o.observable, m.observable);
        if o.localized {
            assert_eq!(o.top1, Some(o.bug_stmt));
        }
    }
}

#[test]
fn explainer_maps_are_distributions_and_respect_slice() {
    let model = trained_model();
    let golden = verilog::parse(ARB).expect("parses").top().clone();
    let mutants = Campaign::new(11)
        .with_runs_per_mutant(12)
        .run(
            &golden,
            "gnt1",
            &BugBudget {
                negation: 1,
                operation: 0,
                misuse: 0,
            },
        )
        .expect("campaign runs");
    let m = mutants
        .iter()
        .find(|m| m.observable)
        .expect("observable bug");
    let mut state = ExplainerState::new(&m.netlist, "gnt1");
    let runs = labelled_traces(m);
    let ranking = rank(
        &model,
        &mut state,
        DEFAULT_FAILURE_WINDOW,
        &runs,
        DEFAULT_THRESHOLD,
        1,
    );
    let f_map = ranking.failing_map(&state);
    let (heatmap, c_map) = (ranking.heatmap, ranking.correct_map);

    let slice = state.slice();
    for map in [&f_map, &c_map] {
        for (stmt, att) in &map.per_stmt {
            assert!(slice.contains(*stmt), "{stmt} outside slice");
            let sum: f32 = att.weights.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-3,
                "attention not a distribution: {att:?}"
            );
        }
    }
    for (stmt, entry) in &heatmap.entries {
        assert!(slice.contains(*stmt));
        assert!((0.0..=1.0).contains(&entry.suspiciousness));
    }
}

#[test]
fn benchmark_designs_full_pipeline_smoke() {
    // Every Table I design must survive the full pipeline: parse, analyze,
    // inject, co-simulate, and explain — with a lightly trained model.
    let model = trained_model();
    for design in veribug_suite::designs::catalog() {
        let golden = design.module().expect("design parses");
        let target = design.targets[0];
        let mutants = Campaign::new(13)
            .with_runs_per_mutant(10)
            .run(
                &golden,
                target,
                &BugBudget {
                    negation: 1,
                    operation: 1,
                    misuse: 1,
                },
            )
            .unwrap_or_else(|e| panic!("{}: campaign: {e}", design.name));
        let (cov, _) = coverage_for_mutants(&model, &mutants, target);
        assert_eq!(cov.injected, mutants.len(), "{}", design.name);
    }
}

#[test]
fn labels_match_divergence() {
    let golden = verilog::parse(ARB).expect("parses").top().clone();
    let mutants = Campaign::new(17)
        .with_runs_per_mutant(12)
        .run(
            &golden,
            "gnt1",
            &BugBudget {
                negation: 1,
                operation: 1,
                misuse: 1,
            },
        )
        .expect("campaign runs");
    for m in &mutants {
        for run in &m.runs {
            let failures = &run.failure_cycles;
            match run.label {
                TraceLabel::Failing => {
                    assert!(!failures.is_empty(), "failing run without divergence")
                }
                TraceLabel::Correct => {
                    assert!(failures.is_empty(), "correct run with divergence")
                }
            }
        }
        if m.observable {
            assert!(m.runs.iter().any(|r| r.label == TraceLabel::Failing));
        }
        let kinds = [
            MutationKind::Negation,
            MutationKind::OperationSubstitution,
            MutationKind::VariableMisuse,
        ];
        assert!(kinds.contains(&m.site.kind));
    }
}
