//! Regenerates **Figure 4**: qualitative VeriBug heatmaps on the realistic
//! designs. For one representative observable mutant per design, prints the
//! mutated statement, the correct-trace importance scores (`C_t`, blue when
//! ANSI is enabled), the failing-trace scores copied into the heatmap
//! (`H_t`/`F_t`, red), and the suspiciousness of the root-cause statement.
//!
//! Flags: `--ansi` for colored output, `--quick` for a fast smoke run.
//!
//! Run with: `cargo run --release -p veribug-bench --bin exp_fig4 -- --ansi`

use mutate::{BugBudget, Campaign};
use veribug::coverage::labelled_traces;
use veribug::explain::DEFAULT_FAILURE_WINDOW;
use veribug::localize::rank;
use veribug::render::render_comparison;
use veribug::{ExplainerState, DEFAULT_THRESHOLD};
use veribug_bench::{train_model, ExperimentScale};

const FLAGS: obs::cli::Spec = obs::cli::Spec {
    name: "exp_fig4",
    switches: &["quick", "ansi"],
    values: &[],
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = obs::cli::init(&FLAGS, std::env::args().skip(1));
    let scale = ExperimentScale::new(opts.has("quick"));
    let ansi = opts.has("ansi");

    obs::progress!("training the VeriBug model...");
    let (model, _, _) = train_model(&scale, 0.10, 1234)?;

    println!("FIGURE 4: VeriBug qualitative results on realistic designs.");
    println!("(operand scores shown as name[score]; H_t copies F_t when the");
    println!(" suspiciousness of the buggy statement exceeds the 0.10 threshold)\n");
    for design in designs::catalog() {
        let golden = design.module()?;
        let target = design.targets[0];
        let budget = BugBudget {
            negation: 2,
            operation: 2,
            misuse: 2,
        };
        let mutants = Campaign::new(0xF164)
            .with_runs_per_mutant(scale.runs_per_mutant)
            .run(&golden, target, &budget)?;
        // Prefer a mutant whose heatmap actually contains the bug.
        let mut printed = false;
        for m in mutants.iter().filter(|m| m.observable) {
            let mut state = ExplainerState::new(&m.netlist, target);
            let (runs, window) = (labelled_traces(m), DEFAULT_FAILURE_WINDOW);
            let ranking = rank(&model, &mut state, window, &runs, DEFAULT_THRESHOLD, 1);
            let (heatmap, c) = (&ranking.heatmap, &ranking.correct_map);
            if !heatmap.entries.contains_key(&m.site.stmt) {
                continue;
            }
            println!("== {} (target {target}) ==", design.name);
            println!(
                "mutant: {} at statement {} // golden: {}",
                m.site.kind,
                m.site.stmt,
                golden
                    .assignment(m.site.stmt)
                    .map(|a| verilog::print_expr(&a.rhs))
                    .unwrap_or_default()
            );
            print!("{}", render_comparison(&m.netlist.module, heatmap, c, ansi));
            printed = true;
            break;
        }
        if !printed {
            println!(
                "== {} (target {target}) == (no mutant produced a heatmap hit at this scale)\n",
                design.name
            );
        }
    }
    obs::report();
    Ok(())
}
