//! Regenerates **Table III**: bug coverage for bug localization on the
//! realistic designs — per design/target, the number of injected bugs of
//! each type, the observable count, and top-1 coverage — plus an extra
//! comparison column: top-1 coverage of the strongest SBFL baseline
//! (Ochiai) over the same runs.
//!
//! Flags:
//! - `--quick`: reduced training/campaign scale for smoke tests.
//! - `--threshold-sweep`: re-scores every observable bug at suspiciousness
//!   thresholds {0.05, 0.10, 0.20} (DESIGN.md Sec. 6 ablation).
//!
//! Run with: `cargo run --release -p veribug-bench --bin exp_table3`

use baseline::{collect_spectra, top1, SpectrumFormula};
use mutate::{BugBudget, Campaign, Mutant, MutationKind};
use sim::TraceLabel;
use veribug::coverage::{labelled_traces, Coverage, DEFAULT_RUN_GROUPS};
use veribug::explain::DEFAULT_FAILURE_WINDOW;
use veribug::localize::rank;
use veribug::model::VeriBugModel;
use veribug::{ExplainerState, DEFAULT_THRESHOLD};
use veribug_bench::{ratio, train_model, ExperimentScale};

/// One Table III row: design, target, and the paper's per-kind bug budget.
struct Row {
    design: &'static str,
    target: &'static str,
    budget: BugBudget,
}

const ROWS: [Row; 8] = [
    Row {
        design: "wb_mux_2",
        target: "wbs0_we_o",
        budget: BugBudget {
            negation: 2,
            operation: 2,
            misuse: 4,
        },
    },
    Row {
        design: "wb_mux_2",
        target: "wbs0_stb_o",
        budget: BugBudget {
            negation: 2,
            operation: 2,
            misuse: 4,
        },
    },
    Row {
        design: "usbf_pl",
        target: "match_o",
        budget: BugBudget {
            negation: 5,
            operation: 8,
            misuse: 9,
        },
    },
    Row {
        design: "usbf_pl",
        target: "frame_no_we",
        budget: BugBudget {
            negation: 3,
            operation: 4,
            misuse: 9,
        },
    },
    Row {
        design: "usbf_idma",
        target: "mreq",
        budget: BugBudget {
            negation: 3,
            operation: 4,
            misuse: 6,
        },
    },
    Row {
        design: "usbf_idma",
        target: "adr_incw",
        budget: BugBudget {
            negation: 2,
            operation: 2,
            misuse: 8,
        },
    },
    Row {
        design: "ibex_controller",
        target: "stall",
        budget: BugBudget {
            negation: 4,
            operation: 6,
            misuse: 12,
        },
    },
    Row {
        design: "ibex_controller",
        target: "instr_valid_clear_o",
        budget: BugBudget {
            negation: 3,
            operation: 4,
            misuse: 12,
        },
    },
];

struct RowResult {
    design: &'static str,
    target: &'static str,
    injected_by_kind: [usize; 3],
    injected: usize,
    observable: usize,
    localized: usize,
    sbfl_localized: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    veribug_bench::init_obs();
    let scale = ExperimentScale::from_args();
    let sweep = std::env::args().any(|a| a == "--threshold-sweep");
    let detail = std::env::args().any(|a| a == "--detail");
    let cyc: usize = std::env::args()
        .position(|a| a == "--cycles")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let runs_override: Option<usize> = std::env::args()
        .position(|a| a == "--runs")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok());
    let hold: f64 = std::env::args()
        .position(|a| a == "--hold")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.8);
    let window: u32 = std::env::args()
        .position(|a| a == "--window")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_FAILURE_WINDOW);

    obs::progress!("training the VeriBug model on RVDG synthetic designs...");
    let alpha: f32 = std::env::args()
        .position(|a| a == "--alpha")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.10);
    let (model, _train, holdout) = train_model(&scale, alpha, 1234)?;
    let quality = veribug::train::evaluate(&model, &holdout);
    obs::progress!(
        "predictor holdout accuracy: {:.1}% (n={})",
        quality.accuracy * 100.0,
        quality.count
    );

    let mut results: Vec<RowResult> = Vec::new();
    let mut all_mutants: Vec<(usize, Vec<Mutant>)> = Vec::new();
    for (ri, row) in ROWS.iter().enumerate() {
        let design = designs::by_name(row.design).expect("known design");
        let golden = design.module()?;
        obs::progress!("campaign: {} / {} ...", row.design, row.target);
        let mutants = Campaign::new(0xDA7E_2024 + ri as u64)
            .with_runs_per_mutant(runs_override.unwrap_or(scale.runs_per_mutant))
            .with_cycles(cyc)
            .with_hold_probability(hold)
            .run(&golden, row.target, &row.budget)?;

        let outcomes = localize_all(&model, &mutants, row.target, DEFAULT_THRESHOLD, window);
        let slice = cdfg::Slice::of_target(&golden, row.target);
        let mut rr = RowResult {
            design: row.design,
            target: row.target,
            injected_by_kind: [0; 3],
            injected: mutants.len(),
            observable: 0,
            localized: 0,
            sbfl_localized: 0,
        };
        for (m, localized) in mutants.iter().zip(&outcomes) {
            let k = match m.site.kind {
                MutationKind::Negation => 0,
                MutationKind::OperationSubstitution => 1,
                MutationKind::VariableMisuse => 2,
            };
            rr.injected_by_kind[k] += 1;
            if !m.observable {
                continue;
            }
            rr.observable += 1;
            if *localized {
                rr.localized += 1;
            }
            // SBFL baseline on the same labelled runs.
            let runs: Vec<(TraceLabel, &sim::Trace)> =
                m.runs.iter().map(|r| (r.label, &r.trace)).collect();
            let spectra = collect_spectra(&runs, &slice.stmts);
            if top1(&spectra, SpectrumFormula::Ochiai) == Some(m.site.stmt) {
                rr.sbfl_localized += 1;
            }
        }
        if detail {
            for m in mutants.iter().filter(|m| m.observable) {
                let mut state = ExplainerState::new(&m.netlist, row.target);
                let runs = labelled_traces(m);
                let ranking = rank(&model, &mut state, window, &runs, DEFAULT_THRESHOLD, 1);
                let f_map = ranking.failing_map(&state);
                let (h, c_map) = (ranking.heatmap, ranking.correct_map);
                let ranked = h.ranked();
                let rank = ranked.iter().position(|(id, _)| *id == m.site.stmt);
                let nops = m
                    .netlist
                    .module
                    .assignment(m.site.stmt)
                    .map(|a| a.rhs.referenced_signals().len())
                    .unwrap_or(0);
                obs::progress!(
                    "  DETAIL [{}] bug@{} ops={} inF={} inC={} sus={:?} rank={:?}/{} top1={:?} top1sus={:?}",
                    m.site.kind,
                    m.site.stmt,
                    nops,
                    f_map.per_stmt.contains_key(&m.site.stmt),
                    c_map.per_stmt.contains_key(&m.site.stmt),
                    h.entries.get(&m.site.stmt).map(|e| e.suspiciousness),
                    rank.map(|r| r + 1),
                    h.len(),
                    h.top1(),
                    h.top1().and_then(|t| h.entries.get(&t)).map(|e| (e.suspiciousness, e.reason)),
                );
            }
        }
        results.push(rr);
        all_mutants.push((ri, mutants));
    }

    println!("\nTABLE III: Bug coverage for bug-localization on realistic designs.");
    println!(
        "{:<17} {:<20} {:>4} {:>4} {:>4}  {:>18}  {:>16}  {:>16}",
        "Design Name",
        "Target",
        "Neg",
        "Op",
        "Mis",
        "Total (Observable)",
        "top-1 Coverage",
        "Ochiai baseline"
    );
    println!("{}", "-".repeat(110));
    let mut per_design: std::collections::BTreeMap<&str, Coverage> = Default::default();
    let mut per_design_sbfl: std::collections::BTreeMap<&str, usize> = Default::default();
    for rr in &results {
        println!(
            "{:<17} {:<20} {:>4} {:>4} {:>4}  {:>13} ({:>2})  {:>16}  {:>16}",
            rr.design,
            rr.target,
            rr.injected_by_kind[0],
            rr.injected_by_kind[1],
            rr.injected_by_kind[2],
            rr.injected,
            rr.observable,
            ratio(rr.localized, rr.observable),
            ratio(rr.sbfl_localized, rr.observable),
        );
        let c = per_design.entry(rr.design).or_default();
        c.injected += rr.injected;
        c.observable += rr.observable;
        c.localized += rr.localized;
        *per_design_sbfl.entry(rr.design).or_default() += rr.sbfl_localized;
    }
    println!("{}", "-".repeat(110));
    let mut overall = Coverage::default();
    let mut overall_sbfl = 0;
    for (design, c) in &per_design {
        println!(
            "{:<17} {:<20} {:>30} ({:>2})  {:>16}  {:>16}",
            design,
            "-",
            c.injected,
            c.observable,
            ratio(c.localized, c.observable),
            ratio(per_design_sbfl[design], c.observable),
        );
        overall.merge(c);
        overall_sbfl += per_design_sbfl[design];
    }
    println!("{}", "-".repeat(110));
    println!(
        "{:<17} {:<20} {:>30} ({:>2})  {:>16}  {:>16}",
        "Overall",
        "-",
        overall.injected,
        overall.observable,
        ratio(overall.localized, overall.observable),
        ratio(overall_sbfl, overall.observable),
    );
    println!("(paper: overall 82.5% (85/103) over 120 injected bugs)");

    if sweep {
        println!("\nTHRESHOLD SWEEP (suspiciousness threshold ablation):");
        for thr in [0.05f32, 0.10, 0.20] {
            let mut cov = Coverage::default();
            for (ri, mutants) in &all_mutants {
                let row = &ROWS[*ri];
                let outcomes = localize_all(&model, mutants, row.target, thr, window);
                for (m, localized) in mutants.iter().zip(&outcomes) {
                    cov.injected += 1;
                    if m.observable {
                        cov.observable += 1;
                        if *localized {
                            cov.localized += 1;
                        }
                    }
                }
            }
            println!(
                "  threshold {:.2}: overall {}",
                thr,
                ratio(cov.localized, cov.observable)
            );
        }
    }
    obs::report();
    Ok(())
}

/// Localizes every mutant in parallel; returns per-mutant success flags
/// (false for unobservable mutants).
fn localize_all(
    model: &VeriBugModel,
    mutants: &[Mutant],
    target: &str,
    threshold: f32,
    window: u32,
) -> Vec<bool> {
    par::par_map(mutants, |m| {
        m.observable && {
            let mut state = ExplainerState::new(&m.netlist, target);
            let (runs, groups) = (labelled_traces(m), DEFAULT_RUN_GROUPS);
            let h = rank(model, &mut state, window, &runs, threshold, groups).heatmap;
            h.top1() == Some(m.site.stmt)
        }
    })
}
