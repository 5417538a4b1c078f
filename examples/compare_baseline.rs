//! VeriBug vs classical spectrum-based fault localization (SBFL) on one
//! design: injects the same bugs and compares top-1 hits of the attention
//! heatmap against Tarantula/Ochiai/Jaccard rankings over the identical
//! labelled runs.
//!
//! Run with: `cargo run --release --example compare_baseline [design] [target]`

use veribug_suite::baseline::{collect_spectra, top1, SpectrumFormula};
use veribug_suite::cdfg::Slice;
use veribug_suite::designs;
use veribug_suite::mutate::{BugBudget, Campaign};
use veribug_suite::rvdg::{Generator, RvdgConfig};
use veribug_suite::sim::TraceLabel;
use veribug_suite::veribug::{
    coverage::{labelled_traces, DEFAULT_RUN_GROUPS},
    explain::DEFAULT_FAILURE_WINDOW,
    localize::rank,
    model::{ModelConfig, VeriBugModel},
    train::{self, Dataset, TrainConfig},
    ExplainerState, DEFAULT_THRESHOLD,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "usbf_idma".into());
    let design =
        designs::by_name(&design_name).ok_or_else(|| format!("unknown design `{design_name}`"))?;
    let target = std::env::args()
        .nth(2)
        .unwrap_or_else(|| design.targets[0].to_owned());

    println!("== training VeriBug ==");
    let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 101)
        .generate_corpus(24)?
        .into_iter()
        .map(|d| d.module)
        .collect();
    let dataset = Dataset::from_designs(&corpus, 1, 64, 3)?;
    let mut model = VeriBugModel::new(ModelConfig::default());
    train::train(&mut model, &dataset, &TrainConfig::paper())?;

    println!("\n== campaign: {design_name} / {target} ==");
    let golden = design.module()?;
    let slice = Slice::of_target(&golden, &target);
    let budget = BugBudget {
        negation: 4,
        operation: 4,
        misuse: 6,
    };
    let mutants = Campaign::new(0xBA5E)
        .with_runs_per_mutant(60)
        .run(&golden, &target, &budget)?;

    let mut veribug_hits = 0usize;
    let mut sbfl_hits = [0usize; 3];
    let mut observable = 0usize;
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "mutant", "veribug", "tarantula", "ochiai", "jaccard"
    );
    for m in mutants.iter().filter(|m| m.observable) {
        observable += 1;
        let mut state = ExplainerState::new(&m.netlist, &target);
        let heatmap = rank(
            &model,
            &mut state,
            DEFAULT_FAILURE_WINDOW,
            &labelled_traces(m),
            DEFAULT_THRESHOLD,
            DEFAULT_RUN_GROUPS,
        )
        .heatmap;
        let localized = heatmap.top1() == Some(m.site.stmt);
        if localized {
            veribug_hits += 1;
        }
        let runs: Vec<(TraceLabel, &veribug_suite::sim::Trace)> =
            m.runs.iter().map(|r| (r.label, &r.trace)).collect();
        let spectra = collect_spectra(&runs, &slice.stmts);
        let mut row = format!(
            "{:<26} {:>10}",
            format!("{} at {}", m.site.kind, m.site.stmt),
            if localized { "hit" } else { "-" }
        );
        for (i, f) in SpectrumFormula::ALL.iter().enumerate() {
            let hit = top1(&spectra, *f) == Some(m.site.stmt);
            if hit {
                sbfl_hits[i] += 1;
            }
            row += &format!(" {:>10}", if hit { "hit" } else { "-" });
        }
        println!("{row}");
    }
    println!("\ntop-1 coverage over {observable} observable bugs:");
    println!(
        "  VeriBug  : {:.1}%",
        100.0 * veribug_hits as f64 / observable.max(1) as f64
    );
    for (i, f) in SpectrumFormula::ALL.iter().enumerate() {
        println!(
            "  {:<9}: {:.1}%",
            f.to_string(),
            100.0 * sbfl_hits[i] as f64 / observable.max(1) as f64
        );
    }
    println!(
        "\nNote: SBFL needs *coverage* differences between failing and passing\n\
         runs; combinational statements execute every cycle, so spectra often\n\
         tie and SBFL degenerates — the gap VeriBug's value-sensitive\n\
         attention closes (paper Sec. I)."
    );
    Ok(())
}
