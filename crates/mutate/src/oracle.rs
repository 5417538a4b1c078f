//! The campaign oracle: a full-trace reading of observability and run
//! labels that the production verdict path is held to. Tests, the
//! differential suite (`crates/bench/tests/differential.rs`) and
//! `bench_pipeline` compare against it; production campaigns use
//! [`Campaign::run`] and [`crate::screen_with`].
//!
//! Neither function shares the verdict path's comparison: labels come from
//! the target column of complete signal snapshots.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::campaign::{shuffle, Prelude, WAVE};
use crate::mutation::{apply, MutationKind, MutationSite};
use crate::observe::{run_lane_groups, LabelledRun};
use crate::{BugBudget, Campaign, Mutant};
use sim::{SimError, Simulator, Stimulus, Trace, TraceLabel};
use verilog::Module;

/// The full-trace reference labelling: runs the mutant on every stimulus
/// with full traces and compares the `target` column of each cycle's
/// snapshot with golden's.
///
/// `golden[i]` must be the golden design's full trace on `stimuli[i]`
/// (from [`run_lane_groups`]); the two slices must have equal length.
/// `target` is resolved in the mutant's netlist, whose signal ids match
/// golden's: mutations never touch declarations.
///
/// # Errors
///
/// [`SimError::UnknownSignal`] when the mutant has no `target`; otherwise
/// propagates simulation errors (including cancellation) from the mutant.
pub fn cosimulate(
    golden: &[Trace],
    mutant: &mut Simulator,
    target: &str,
    stimuli: &[Stimulus],
) -> Result<Vec<LabelledRun>, SimError> {
    assert_eq!(
        golden.len(),
        stimuli.len(),
        "one golden trace per stimulus required"
    );
    let target = mutant
        .netlist()
        .signal_id(target)
        .ok_or_else(|| SimError::UnknownSignal {
            name: target.to_owned(),
        })?;
    let traces = run_lane_groups(mutant, stimuli)?;
    Ok(traces
        .into_iter()
        .zip(golden)
        .map(|(trace, golden)| {
            let failure_cycles = trace
                .cycles
                .iter()
                .zip(&golden.cycles)
                .filter(|(m, g)| m.value(target) != g.value(target))
                .map(|(m, _)| m.cycle)
                .collect();
            LabelledRun::new(trace, failure_cycles)
        })
        .collect())
}

/// The single-pass campaign: every candidate is co-simulated with full
/// traces ([`cosimulate`]), kept or not, and labelled from its snapshots.
/// [`Campaign::run`] must return the same mutants, sites, observability
/// flags, labels, failure cycles and per-cycle records; the differential
/// suite checks it at 1/2/8 threads, and `bench_pipeline` times the two
/// flows against each other.
///
/// Sites, stimuli and target resolution come from the same prelude as
/// [`Campaign::run`], so the two flows cannot drift on their inputs.
///
/// # Errors
///
/// As [`Campaign::run`].
pub fn run_single_pass(
    campaign: &Campaign,
    golden: &Module,
    target: &str,
    budget: &BugBudget,
) -> Result<Vec<Mutant>, SimError> {
    let mut rng = StdRng::seed_from_u64(campaign.seed);
    let Prelude {
        all_sites,
        mut golden_sim,
        stimuli,
        golden_source,
        ..
    } = campaign.prelude(golden, target)?;
    // The golden design is simulated exactly once per stimulus; every
    // candidate mutant in every wave compares against these shared traces.
    let golden_runs = run_lane_groups(&mut golden_sim, &stimuli)?;

    let mut out = Vec::new();
    for kind in MutationKind::ALL {
        let mut sites: Vec<&MutationSite> = all_sites.iter().filter(|s| s.kind == kind).collect();
        shuffle(&mut sites, &mut rng);
        let want = budget.for_kind(kind);
        let mut produced = 0;
        let mut seen_sources: BTreeSet<String> = BTreeSet::new();
        for wave in sites.chunks(WAVE) {
            if produced >= want {
                break;
            }
            // Parallel part: everything that depends only on the site.
            let candidates = par::par_map(wave, |site| {
                let module = apply(golden, site)?;
                let source = verilog::print_module(&module);
                if source == golden_source {
                    return None; // mutation was a source-level no-op
                }
                // A mutation may e.g. create a combinational loop; skip.
                let mut sim = Simulator::new(&module).ok()?;
                let runs = cosimulate(&golden_runs, &mut sim, target, &stimuli).ok()?;
                let observable = runs.iter().any(|r| r.label == TraceLabel::Failing);
                Some((Arc::clone(sim.netlist()), source, runs, observable))
            });
            // Sequential merge in site order: duplicate and budget
            // decisions replay exactly as a serial pass would.
            for (site, cand) in wave.iter().zip(candidates) {
                if produced >= want {
                    break;
                }
                let Some((netlist, source, runs, observable)) = cand else {
                    continue;
                };
                if !seen_sources.insert(source.clone()) {
                    continue; // duplicate mutant
                }
                out.push(Mutant {
                    netlist,
                    source,
                    site: (*site).clone(),
                    runs,
                    observable,
                });
                produced += 1;
            }
        }
    }
    Ok(out)
}
