//! End-to-end localization on the Wishbone multiplexer (a Table III row):
//! train on RVDG synthetic designs, inject the paper's bug budget into
//! `wb_mux_2`, localize every observable bug against both targets, and
//! print a rendered heatmap for one mutant.
//!
//! Run with: `cargo run --release --example localize_wb_mux [failure_window]`

use veribug_suite::designs;
use veribug_suite::mutate::{BugBudget, Campaign};
use veribug_suite::rvdg::{Generator, RvdgConfig};
use veribug_suite::veribug::{
    coverage::{labelled_traces, DEFAULT_RUN_GROUPS},
    localize::rank,
    model::{ModelConfig, VeriBugModel},
    render::render_comparison,
    train::{self, Dataset, TrainConfig},
    Coverage, ExplainerState, DEFAULT_THRESHOLD,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let window: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(veribug_suite::veribug::explain::DEFAULT_FAILURE_WINDOW);
    let runs: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let thr: f32 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD);

    println!("== training ==");
    let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 101)
        .generate_corpus(32)?
        .into_iter()
        .map(|d| d.module)
        .collect();
    let dataset = Dataset::from_designs(&corpus, 1, 64, 3)?;
    let mut model = VeriBugModel::new(ModelConfig::default());
    train::train(
        &mut model,
        &dataset,
        &TrainConfig {
            epochs: 100,
            ..TrainConfig::default()
        },
    )?;

    let design = designs::WB_MUX_2;
    let golden = design.module()?;
    // Table III budget for wb_mux_2: 2 negation, 2 operation, 4 misuse per
    // target.
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 4,
    };
    let mut total = Coverage::default();
    for target in design.targets {
        println!(
            "\n== {} / target {target} (window {window}) ==",
            design.name
        );
        let mutants = Campaign::new(0xC0FFEE)
            .with_runs_per_mutant(runs)
            .run(&golden, target, &budget)?;
        let mut cov = Coverage::default();
        let mut shown = false;
        for m in &mutants {
            cov.injected += 1;
            if !m.observable {
                println!("  [{}] at {}: unobservable", m.site.kind, m.site.stmt);
                continue;
            }
            cov.observable += 1;
            let mut state = ExplainerState::new(&m.netlist, target);
            let runs = labelled_traces(m);
            let heatmap = rank(&model, &mut state, window, &runs, thr, DEFAULT_RUN_GROUPS).heatmap;
            let top1 = heatmap.top1();
            let localized = top1 == Some(m.site.stmt);
            if localized {
                cov.localized += 1;
            }
            println!(
                "  [{}] at {} -> top-1 {:?} ({}{})",
                m.site.kind,
                m.site.stmt,
                top1,
                if localized { "LOCALIZED" } else { "missed" },
                heatmap
                    .entries
                    .get(&m.site.stmt)
                    .map(|e| format!(", bug suspiciousness {:.3}", e.suspiciousness))
                    .unwrap_or_default(),
            );
            if !shown && localized {
                let single = rank(&model, &mut state, window, &runs, DEFAULT_THRESHOLD, 1);
                let (h, c) = (&single.heatmap, &single.correct_map);
                let rendered = render_comparison(&m.netlist.module, h, c, false);
                println!("\n-- heatmap --\n{rendered}");
                shown = true;
            }
        }
        println!(
            "  coverage: {}/{} observable localized ({:.1}%)",
            cov.localized,
            cov.observable,
            cov.percent()
        );
        total.merge(&cov);
    }
    println!(
        "\noverall: {}/{} ({:.1}%)",
        total.localized,
        total.observable,
        total.percent()
    );
    Ok(())
}
