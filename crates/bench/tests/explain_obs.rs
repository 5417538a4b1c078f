//! Observability of the explanation step: collection is observation-only,
//! and its counters and spans describe the resolve-once flow and the
//! localize layers around it. One test in
//! its own binary, because obs counters are process-wide.

use mutate::{BugBudget, Campaign};
use sim::TraceLabel;
use veribug::coverage::labelled_traces;
use veribug::explain::AttentionMap;
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::{Explainer, LocalizeOptions, DEFAULT_THRESHOLD};

fn counter(name: &str) -> u64 {
    obs::snapshot().counter(name).unwrap_or(0)
}

fn executions(map: &AttentionMap) -> u64 {
    map.per_stmt.values().map(|a| a.count as u64).sum()
}

#[test]
fn collection_leaves_explanations_unchanged_and_counts_resolved_records() {
    let design = &designs::catalog()[0];
    let golden = design.module().expect("catalog design parses");
    let target = design.targets[0];
    let mutants = Campaign::new(0x0B5)
        .with_runs_per_mutant(24)
        .run(
            &golden,
            target,
            &BugBudget {
                negation: 2,
                operation: 2,
                misuse: 0,
            },
        )
        .expect("campaign runs");
    let model = VeriBugModel::new(ModelConfig::default());
    let opts = LocalizeOptions {
        runs: 48,
        threshold: 0.01,
        ..LocalizeOptions::default()
    };
    let mut explained = 0;
    for m in mutants.iter().filter(|m| m.observable) {
        let runs = labelled_traces(m);
        assert!(runs.iter().any(|r| r.label == TraceLabel::Failing));

        obs::set_enabled(false);
        let off = Explainer::new(&model, &m.module, target).explain(&runs, DEFAULT_THRESHOLD);
        let report_off =
            veribug::localize::run(&model, &golden, &m.module, target, &opts).expect("localizes");

        obs::set_enabled(true);
        obs::reset();
        let on = Explainer::new(&model, &m.module, target).explain(&runs, DEFAULT_THRESHOLD);
        let (hits, misses, evals) = (
            counter("explain.attention_cache_hits"),
            counter("explain.attention_cache_misses"),
            counter("model.evals"),
        );
        let report_on =
            veribug::localize::run(&model, &golden, &m.module, target, &opts).expect("localizes");
        let snapshot = obs::snapshot();
        obs::set_enabled(false);

        assert_eq!(on, off, "collection changed an explanation");
        assert_eq!(report_on.heatmap, report_off.heatmap);
        assert_eq!(report_on.correct_map, report_off.correct_map);
        // One model evaluation per memo miss; every resolved record is a
        // hit or a miss, and feeds exactly one of F_t and C_t.
        assert_eq!(evals, misses);
        assert_eq!(hits + misses, executions(&on.1) + executions(&on.2));
        assert!(snapshot.histogram("explain.attention_entropy").is_some());
        assert!(snapshot.histogram("model.score_margin").is_some());
        // The localize call's resolve and aggregate spans nest in its
        // explain span.
        let explain_ids: Vec<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.name() == "explain")
            .map(|e| e.id())
            .collect();
        for name in ["explain.resolve", "explain.aggregate"] {
            assert!(
                snapshot
                    .events
                    .iter()
                    .any(|e| e.name() == name && explain_ids.contains(&e.parent())),
                "no {name} span inside the explain span"
            );
        }
        // Stimulus generation is a layer of its own, next to the
        // simulation passes, not self time of the localize call.
        assert!(
            snapshot.events.iter().any(|e| e.name() == "stimgen"),
            "no stimgen span"
        );

        // A localization handed the explainer state of an earlier one of
        // the same design and target answers alike without evaluating the
        // model once.
        let inert = sim::CancelToken::inert();
        let mut golden_sim = sim::Simulator::new(&golden).expect("elaborates");
        let reference = veribug::GoldenRef::build(&mut golden_sim, target, &opts, &inert)
            .expect("golden reference");
        let buggy_sim = sim::Simulator::new(&m.module).expect("elaborates");
        let mut state = veribug::ExplainerState::new(buggy_sim.netlist(), target);
        let mut localize_counting_evals = || {
            obs::set_enabled(true);
            obs::reset();
            let report = veribug::localize::run_with_sims(
                &model,
                &reference,
                &mut buggy_sim.fork(),
                &mut state,
                target,
                &opts,
                &inert,
            )
            .expect("localizes");
            let evals = counter("model.evals");
            obs::set_enabled(false);
            (report, evals)
        };
        let (cold, cold_evals) = localize_counting_evals();
        let (warm, warm_evals) = localize_counting_evals();
        assert!(cold_evals > 0, "a fresh state evaluates the model");
        assert_eq!(warm_evals, 0, "a warm state evaluated the model");
        for report in [&cold, &warm] {
            assert_eq!(report.suspects, report_off.suspects);
            assert_eq!(report.heatmap, report_off.heatmap);
            assert_eq!(report.correct_map, report_off.correct_map);
        }
        explained += 1;
    }
    assert!(explained > 0, "no observable mutant");
}
