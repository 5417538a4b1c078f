//! Regenerates **Table I**: details of the modules in the localization test
//! set — module name, lines of code (this reproduction vs the paper's
//! original), and a short description — plus the per-target cone sizes that
//! drive localization difficulty.
//!
//! Run with: `cargo run --release -p veribug-bench --bin exp_table1`

use cdfg::{dependencies_of, Slice, Vdg};

const FLAGS: obs::cli::Spec = obs::cli::Spec {
    name: "exp_table1",
    switches: &[],
    values: &[],
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    obs::cli::init(&FLAGS, std::env::args().skip(1));
    println!("TABLE I: Details of modules in our localization test set.");
    println!(
        "{:<17} {:>9} {:>11}  {:<34} Targets (|Dep_t| / slice stmts)",
        "Module Name", "LoC(ours)", "LoC(paper)", "Short Description"
    );
    println!("{}", "-".repeat(110));
    for d in designs::catalog() {
        let module = d.module()?;
        let vdg = Vdg::build(&module);
        let targets = d
            .targets
            .iter()
            .map(|t| {
                let dep = dependencies_of(&vdg, t).len();
                let slice = Slice::of_target(&module, t).len();
                format!("{t} ({dep}/{slice})")
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{:<17} {:>9} {:>11}  {:<34} {}",
            d.name,
            d.loc(),
            d.paper_loc,
            d.description,
            targets
        );
    }
    println!(
        "\nNote: LoC differs from the paper because the designs are reduced\n\
         re-implementations in the supported Verilog subset (DESIGN.md,\n\
         substitution #3); interface signals, targets, and control/data-flow\n\
         structure match the originals."
    );
    obs::report();
    Ok(())
}
