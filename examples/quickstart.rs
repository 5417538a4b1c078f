//! Quickstart: the full VeriBug pipeline on a toy arbiter, in ~60 lines.
//!
//! 1. Train the execution-semantics model on RVDG synthetic designs.
//! 2. Inject one bug into a golden arbiter.
//! 3. Localize it: aggregated attention maps -> suspiciousness -> heatmap.
//!
//! Run with: `cargo run --release --example quickstart`

use veribug_suite::mutate::{BugBudget, Campaign};
use veribug_suite::rvdg::{Generator, RvdgConfig};
use veribug_suite::veribug::{
    coverage::{labelled_traces, localize_mutant},
    model::{ModelConfig, VeriBugModel},
    render::render_comparison,
    train::{self, Dataset, TrainConfig},
    Explainer, DEFAULT_THRESHOLD,
};
use veribug_suite::verilog;

const GOLDEN: &str = "\
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train on a small synthetic corpus (paper Sec. V: the model never
    //    sees the design under debug).
    println!("== training on RVDG synthetic designs ==");
    let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 11)
        .generate_corpus(16)?
        .into_iter()
        .map(|d| d.module)
        .collect();
    let dataset = Dataset::from_designs(&corpus, 1, 48, 2)?;
    println!("dataset: {} unique statement executions", dataset.len());
    let mut model = VeriBugModel::new(ModelConfig::default());
    let report = train::train(&mut model, &dataset, &TrainConfig::paper())?;
    println!(
        "trained {} epochs, loss {:.4} -> {:.4}, epsilon = {:.3}",
        report.epoch_losses.len(),
        report.epoch_losses.first().unwrap_or(&0.0),
        report.epoch_losses.last().unwrap_or(&0.0),
        report.final_epsilon,
    );

    // 2. Inject bugs into the golden arbiter, targeting output gnt1.
    println!("\n== injecting bugs into the arbiter (target: gnt1) ==");
    let golden = verilog::parse(GOLDEN)?.top().clone();
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let mutants = Campaign::new(3).run(&golden, "gnt1", &budget)?;
    println!(
        "{} mutants, {} observable at gnt1",
        mutants.len(),
        mutants.iter().filter(|m| m.observable).count()
    );

    // 3. Localize each observable bug and show one heatmap.
    println!("\n== localization ==");
    let mut shown = false;
    for m in mutants.iter().filter(|m| m.observable) {
        let outcome = localize_mutant(&model, m, "gnt1", DEFAULT_THRESHOLD);
        println!(
            "bug [{}] at {} -> top-1 {:?} ({})",
            m.site.kind,
            m.site.stmt,
            outcome.top1,
            if outcome.localized {
                "LOCALIZED"
            } else {
                "missed"
            },
        );
        if !shown {
            let mut explainer = Explainer::new(&model, &m.module, "gnt1");
            let runs = labelled_traces(m);
            let (heatmap, _f_map, c_map) = explainer.explain(&runs, DEFAULT_THRESHOLD);
            println!("\n-- heatmap (C_t vs H_t) for this mutant --");
            print!("{}", render_comparison(&m.module, &heatmap, &c_map, false));
            shown = true;
        }
    }
    Ok(())
}
