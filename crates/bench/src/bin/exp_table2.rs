//! Regenerates **Table II**: execution-semantics predictor quality
//! (accuracy, per-class precision/recall on holdout synthetic designs) for
//! each regularization weight α ∈ {0.01, 0.05, 0.10, 0.15, 0.20, 0.25}.
//!
//! Ablations (DESIGN.md Sec. 6):
//! - `--ablate-eps`: additionally compares skip-weight initializations.
//! - `--ctx-agg`: compares sum- vs mean-aggregation of path embeddings.
//! - `--quick`: reduced scale for smoke tests.
//!
//! Run with: `cargo run --release -p veribug-bench --bin exp_table2`

use rvdg::{Generator, RvdgConfig, TemplateMix};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use veribug_bench::{datasets, train_model, ExperimentScale};

const ALPHAS: [f32; 6] = [0.01, 0.05, 0.10, 0.15, 0.20, 0.25];

const FLAGS: obs::cli::Spec = obs::cli::Spec {
    name: "exp_table2",
    switches: &["quick", "ablate-eps", "ctx-agg"],
    values: &[],
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = obs::cli::init(&FLAGS, std::env::args().skip(1));
    let scale = ExperimentScale::new(opts.has("quick"));
    let ablate_eps = opts.has("ablate-eps");
    let ablate_ctx = opts.has("ctx-agg");

    // A second holdout drawn from the paper's minimal template (pure
    // Boolean statements, no wide signals): the apples-to-apples comparison
    // against the paper's 93.8-98% accuracy band. The enriched holdout
    // includes comparisons/arithmetic on vectors and is strictly harder.
    let paper_template = RvdgConfig {
        num_wide_inputs: 0,
        mix: TemplateMix::boolean_only(),
        ..RvdgConfig::default()
    };
    let paper_holdout_modules: Vec<_> = Generator::new(paper_template, 4321)
        .generate_corpus(scale.holdout_designs)?
        .into_iter()
        .map(|d| d.module)
        .collect();
    let paper_holdout = Dataset::from_designs(
        &paper_holdout_modules,
        99,
        scale.cycles,
        scale.runs_per_design,
    )?;

    println!("TABLE II: Results on test-set obtained for different weighting alpha factors.");
    println!(
        "{:<7} {:>8} {:>12}  {:>16}  {:>16}",
        "alpha", "Acc.(%)", "Acc.(bool)%", "Pr/Re (Target 0)", "Pr/Re (Target 1)"
    );
    println!("{}", "-".repeat(68));
    let mut best = (0.0f32, 0.0f32);
    for alpha in ALPHAS {
        obs::progress!("training predictor at alpha {alpha}...");
        let (model, _train, holdout) = train_model(&scale, alpha, 1234)?;
        let m = train::evaluate(&model, &holdout);
        let mb = train::evaluate(&model, &paper_holdout);
        println!(
            "{:<7} {:>8.1} {:>12.1}  {:>7.2}/{:<8.2}  {:>7.2}/{:<8.2}",
            alpha,
            m.accuracy * 100.0,
            mb.accuracy * 100.0,
            m.precision0,
            m.recall0,
            m.precision1,
            m.recall1
        );
        if m.accuracy > best.1 {
            best = (alpha, m.accuracy);
        }
    }
    println!(
        "(Acc.(bool) = accuracy on a holdout drawn from the paper's pure-Boolean\n\
         RVDG template; the main column uses the enriched template with vector\n\
         comparisons/arithmetic, which is harder but required for transfer.)"
    );

    // Apples-to-apples with the paper: train AND evaluate on the minimal
    // pure-Boolean template (the localization experiments keep the
    // enriched-template model).
    {
        let gen = Generator::new(
            RvdgConfig {
                num_wide_inputs: 0,
                mix: TemplateMix::boolean_only(),
                expr: rvdg::ExprConfig {
                    max_operands: 3,
                    ..rvdg::ExprConfig::default()
                },
                ..RvdgConfig::default()
            },
            1234,
        );
        let all = gen.generate_corpus(scale.train_designs + scale.holdout_designs)?;
        let (tr, ho) = all.split_at(scale.train_designs);
        let tr: Vec<_> = tr.iter().map(|d| d.module.clone()).collect();
        let ho: Vec<_> = ho.iter().map(|d| d.module.clone()).collect();
        let tr_set = Dataset::from_designs(&tr, 11, scale.cycles, scale.runs_per_design)?;
        let ho_set = Dataset::from_designs(&ho, 12, scale.cycles, scale.runs_per_design)?;
        let mut model = VeriBugModel::new(ModelConfig::default());
        train::train(
            &mut model,
            &tr_set,
            &TrainConfig {
                epochs: scale.epochs,
                alpha: 0.10,
                ..TrainConfig::default()
            },
        )?;
        let m = train::evaluate(&model, &ho_set);
        println!(
            "\npaper-template pipeline (boolean-only train AND eval, alpha 0.10):\n  \
             accuracy {:.1}%  Pr/Re(0) {:.2}/{:.2}  Pr/Re(1) {:.2}/{:.2}  (paper band: 93.8-98.0%)",
            m.accuracy * 100.0,
            m.precision0,
            m.recall0,
            m.precision1,
            m.recall1
        );
    }
    println!(
        "\nbest predictor: alpha = {} ({:.1}% holdout accuracy); the paper\n\
         selects alpha = 0.10 and so do the other experiments here.",
        best.0,
        best.1 * 100.0
    );

    if ablate_ctx {
        println!("\nABLATION: context aggregation (sum vs mean of path embeddings)");
        let (train_set, holdout_set) = datasets(&scale, 1234)?;
        for (label, agg) in [
            ("sum (paper)", veribug::ContextAggregation::Sum),
            ("mean", veribug::ContextAggregation::Mean),
        ] {
            let mut model = VeriBugModel::new(ModelConfig {
                context_aggregation: agg,
                ..ModelConfig::default()
            });
            train::train(
                &mut model,
                &train_set,
                &TrainConfig {
                    epochs: scale.epochs,
                    alpha: 0.10,
                    ..TrainConfig::default()
                },
            )?;
            let m = train::evaluate(&model, &holdout_set);
            println!("  ctx-agg {:<12} acc {:>5.1}%", label, m.accuracy * 100.0);
        }
    }

    if ablate_eps {
        println!("\nABLATION: aggregation skip-connection (epsilon)");
        let (train_set, holdout_set) = datasets(&scale, 1234)?;
        for (label, eps) in [("init 0.5", 0.5f32), ("init 0.0", 0.0)] {
            let mut model = VeriBugModel::new(ModelConfig {
                epsilon_init: eps,
                ..ModelConfig::default()
            });
            // "Frozen" is emulated by initializing at 0; with the skip off
            // the updated embeddings collapse to a statement-level constant,
            // so the comparison shows the skip's role.
            train::train(
                &mut model,
                &train_set,
                &TrainConfig {
                    epochs: scale.epochs,
                    alpha: 0.10,
                    ..TrainConfig::default()
                },
            )?;
            let m = train::evaluate(&model, &holdout_set);
            println!(
                "  epsilon {:<20} acc {:>5.1}%  (final epsilon {:.3})",
                label,
                m.accuracy * 100.0,
                model.epsilon()
            );
        }
    }
    obs::report();
    Ok(())
}
