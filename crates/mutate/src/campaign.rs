//! Bug-injection campaigns: sample mutation sites, build mutants, and
//! classify observability — the experimental setup behind Table III.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

use crate::mutation::{apply, enumerate_sites, MutationKind, MutationSite};
use crate::observe::{golden_verdicts, run_lane_groups_mode, screen_with, LabelledRun, RunVerdict};
use cdfg::Slice;
use sim::{SimError, Simulator, Stimulus, TestbenchGen, TraceMode};
use verilog::Module;

/// Sites co-simulated per parallel wave. A fixed constant: waves bound the
/// work wasted past the budget without letting the worker count influence
/// which sites get considered.
pub(crate) const WAVE: usize = 8;

/// Candidate mutation sites considered (after slice restriction).
static SITES: obs::LazyCounter = obs::LazyCounter::new("campaign.sites_enumerated");
/// Mutants accepted into the output (within budget, deduplicated).
static PRODUCED: obs::LazyCounter = obs::LazyCounter::new("campaign.mutants_produced");
/// Accepted mutants whose bug symptomatized at the target.
static OBSERVABLE: obs::LazyCounter = obs::LazyCounter::new("campaign.mutants_observable");
/// Candidates rejected as source-level duplicates.
static DUPLICATES: obs::LazyCounter = obs::LazyCounter::new("campaign.duplicates");
/// Candidates that failed to elaborate/simulate or were no-ops.
static SKIPPED: obs::LazyCounter = obs::LazyCounter::new("campaign.skipped");
/// First cycle at which a failing co-simulation run diverged.
static DIVERGENCE: obs::LazyHistogram = obs::LazyHistogram::new("campaign.divergence_cycle");

/// How many mutants of each kind a campaign should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BugBudget {
    /// Negation mutants.
    pub negation: usize,
    /// Operation-substitution mutants.
    pub operation: usize,
    /// Variable-misuse mutants.
    pub misuse: usize,
}

impl BugBudget {
    /// Total mutants requested.
    pub fn total(&self) -> usize {
        self.negation + self.operation + self.misuse
    }

    /// The budget for one kind.
    pub fn for_kind(&self, kind: MutationKind) -> usize {
        match kind {
            MutationKind::Negation => self.negation,
            MutationKind::OperationSubstitution => self.operation,
            MutationKind::VariableMisuse => self.misuse,
        }
    }
}

/// One injected-bug experiment: the mutant and its labelled co-simulation runs.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The mutated module (statement ids match the golden design).
    pub module: Module,
    /// Pretty-printed mutant source.
    pub source: String,
    /// The mutation that was injected.
    pub site: MutationSite,
    /// One labelled run per stimulus. [`Campaign::run`] keeps each run's
    /// execution records only (no signal snapshots), with the label and
    /// failure cycles from its screening verdict.
    pub runs: Vec<LabelledRun>,
    /// Whether the bug symptomatized at the target in any run.
    pub observable: bool,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) seed: u64,
    cycles: usize,
    runs_per_mutant: usize,
    hold_probability: f64,
}

impl Campaign {
    /// Creates a campaign with the defaults used by the Table III harness:
    /// many short, calm stimuli (40 runs × 16 cycles, hold probability 0.8)
    /// so that a bug is typically *masked* in some runs — the correct-trace
    /// set `T_c` the explainer compares against — and sites restricted to
    /// the target's static slice (bugs outside the cone can never be
    /// observable at the target output).
    pub fn new(seed: u64) -> Self {
        Campaign {
            seed,
            cycles: 16,
            runs_per_mutant: 40,
            hold_probability: 0.8,
        }
    }

    /// Overrides the stimulus hold probability (temporal correlation of the
    /// random inputs; higher = calmer, more directed-looking stimulus).
    pub fn with_hold_probability(mut self, p: f64) -> Self {
        self.hold_probability = p;
        self
    }

    /// Overrides the stimulus length.
    pub fn with_cycles(mut self, cycles: usize) -> Self {
        self.cycles = cycles;
        self
    }

    /// Overrides the number of independent runs per mutant.
    pub fn with_runs_per_mutant(mut self, runs: usize) -> Self {
        self.runs_per_mutant = runs;
        self
    }

    /// Campaign setup shared by both flows: vetted sites, the golden
    /// simulator, the resolved target, and the seeded stimulus set.
    pub(crate) fn prelude(&self, golden: &Module, target: &str) -> Result<Prelude, SimError> {
        let slice = Slice::of_target(golden, target).stmts;
        let all_sites = enumerate_sites(golden, Some(&slice));
        SITES.add(all_sites.len() as u64);
        let golden_sim = Simulator::new(golden)?;
        let target_id =
            golden_sim
                .netlist()
                .signal_id(target)
                .ok_or_else(|| SimError::UnknownSignal {
                    name: target.to_owned(),
                })?;
        let stimuli: Vec<Stimulus> = TestbenchGen::new(self.seed ^ 0xD1CE_F00D)
            .with_hold_probability(self.hold_probability)
            .generate_many(golden_sim.netlist(), self.cycles, self.runs_per_mutant);
        let golden_source = verilog::print_module(golden);
        Ok(Prelude {
            all_sites,
            golden_sim,
            target_id,
            stimuli,
            golden_source,
        })
    }

    /// Runs the campaign: inject up to `budget` bugs per kind into `golden`
    /// and co-simulate each against the target output.
    ///
    /// This is the **two-pass verdict flow**. Pass 1 screens golden and
    /// every candidate mutant through the batch engine in
    /// [`sim::TraceMode::verdict`] — no execution records, target-output
    /// snapshots only — which is all the accept/reject machinery
    /// (observability, dedup, budget, divergence cycles) reads, and which
    /// labels every run. Pass 2 re-simulates **only the mutants the
    /// campaign keeps**, in [`sim::TraceMode::records`] of every
    /// assignment: each run's execution records, with no signal snapshots
    /// and no golden simulation. Mutants, labels, failure cycles and
    /// per-cycle records equal those of the full-trace oracle
    /// [`crate::oracle::run_single_pass`] — the differential suite proves
    /// it at 1/2/8 threads.
    ///
    /// Candidate mutants are built and screened in parallel, in fixed-size
    /// waves of shuffled sites. The wave partitioning and the in-order
    /// merge depend only on the seed — never on the worker count — so the
    /// returned mutant list is identical at any thread count (and to a
    /// fully serial pass). Thread count follows `VERIBUG_THREADS` (see
    /// [`par::max_threads`]).
    ///
    /// What the verdict pass never materialized, and how full its batches
    /// ran, is the simulator's to count: `sim.records_elided` and
    /// `sim.batch_lanes`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors. Mutants that fail to elaborate or
    /// simulate (e.g. a misuse creating a combinational loop) are skipped
    /// rather than failing the campaign — verdict mode reports exactly the
    /// errors full-trace simulation would, so the skip set is identical.
    pub fn run(
        &self,
        golden: &Module,
        target: &str,
        budget: &BugBudget,
    ) -> Result<Vec<Mutant>, SimError> {
        let _span = obs::span("campaign");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let Prelude {
            all_sites,
            mut golden_sim,
            target_id,
            stimuli,
            golden_source,
        } = self.prelude(golden, target)?;

        // Pass 1: screen golden + every candidate in verdict mode. The
        // golden design is simulated exactly once per stimulus; every
        // candidate in every wave compares against these shared verdicts.
        let golden_vs = {
            let _g = obs::span("campaign.golden_verdict");
            golden_verdicts(&mut golden_sim, &stimuli, target_id)?
        };

        /// One screened-and-accepted candidate awaiting its records pass.
        /// Keeps the pass-1 simulator, whose netlist holds the mutant's one
        /// module, so pass 2 forks it instead of re-elaborating the mutant,
        /// and the pass-1 verdicts that label its runs.
        struct Accepted {
            source: String,
            site: MutationSite,
            sim: Simulator,
            verdicts: Vec<RunVerdict>,
            observable: bool,
        }
        let mut accepted: Vec<Accepted> = Vec::new();
        for kind in MutationKind::ALL {
            let mut sites: Vec<&MutationSite> =
                all_sites.iter().filter(|s| s.kind == kind).collect();
            shuffle(&mut sites, &mut rng);
            let want = budget.for_kind(kind);
            let mut produced = 0;
            let mut seen_sources: BTreeSet<String> = BTreeSet::new();
            for wave in sites.chunks(WAVE) {
                if produced >= want {
                    break;
                }
                // Parallel part: everything that depends only on the site.
                let _wave_span = obs::span("campaign.wave");
                let candidates = par::par_map(wave, |site| {
                    let module = apply(golden, site)?;
                    let source = verilog::print_module(&module);
                    if source == golden_source {
                        return None; // mutation was a source-level no-op
                    }
                    // A mutation may e.g. create a combinational loop; skip.
                    // Verdict mode hits the same errors full mode would, so
                    // this skip set matches the single-pass flow's.
                    let mut sim = Simulator::new(&module).ok()?;
                    let verdicts = screen_with(&mut sim, &golden_vs, target_id, &stimuli).ok()?;
                    let observable = verdicts.iter().any(RunVerdict::diverged);
                    Some((source, sim, verdicts, observable))
                });
                // Sequential merge in site order: duplicate and budget
                // decisions replay exactly as a serial pass would.
                for (site, cand) in wave.iter().zip(candidates) {
                    if produced >= want {
                        break;
                    }
                    let Some((source, sim, verdicts, observable)) = cand else {
                        SKIPPED.incr();
                        continue;
                    };
                    if !seen_sources.insert(source.clone()) {
                        DUPLICATES.incr();
                        continue; // duplicate mutant
                    }
                    PRODUCED.incr();
                    if observable {
                        OBSERVABLE.incr();
                        if obs::enabled() {
                            for v in verdicts.iter().filter(|v| v.diverged()) {
                                if let Some(first) = v.first_divergence() {
                                    DIVERGENCE.record(u64::from(first));
                                }
                            }
                        }
                    }
                    accepted.push(Accepted {
                        source,
                        site: (*site).clone(),
                        sim,
                        verdicts,
                        observable,
                    });
                    produced += 1;
                }
            }
        }

        // Pass 2: execution records for the kept mutants only. Only
        // assignments emit records, so recording every assignment keeps
        // exactly the full trace's records; labels come from pass 1.
        let stmts: BTreeSet<_> = golden.assignments().iter().map(|a| a.id).collect();
        let _records_span = obs::span("campaign.records_pass");
        let records = par::par_map(&accepted, |a| {
            // Each lane group forks the screened mutant's simulator — pass 2
            // pays for record production, never for re-elaboration.
            run_lane_groups_mode(&a.sim, &stimuli, TraceMode::records(&stmts))
        });
        let mut out = Vec::with_capacity(accepted.len());
        for (a, traces) in accepted.into_iter().zip(records) {
            // Screening already proved this mutant simulates; re-running it
            // to record cannot newly fail.
            let runs = traces?
                .into_iter()
                .zip(a.verdicts)
                .map(|((trace, _), v)| LabelledRun::new(trace, v.divergence_cycles))
                .collect();
            out.push(Mutant {
                module: a.sim.netlist().module.clone(),
                source: a.source,
                site: a.site,
                runs,
                observable: a.observable,
            });
        }
        Ok(out)
    }
}

/// Campaign setup shared by [`Campaign::run`] and
/// [`crate::oracle::run_single_pass`], so the two flows cannot drift on
/// sites, stimuli, or target resolution.
pub(crate) struct Prelude {
    pub(crate) all_sites: Vec<MutationSite>,
    pub(crate) golden_sim: Simulator,
    pub(crate) target_id: sim::SignalId,
    pub(crate) stimuli: Vec<Stimulus>,
    pub(crate) golden_source: String,
}

/// Fisher–Yates shuffle (avoids pulling in rand's slice extension trait).
pub(crate) fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn golden() -> Module {
        verilog::parse(ARB).unwrap().top().clone()
    }

    #[test]
    fn campaign_produces_budgeted_mutants() {
        let budget = BugBudget {
            negation: 2,
            operation: 2,
            misuse: 2,
        };
        let mutants = Campaign::new(7).run(&golden(), "gnt1", &budget).unwrap();
        assert!(!mutants.is_empty());
        assert!(mutants.len() <= budget.total());
        for kind in MutationKind::ALL {
            let n = mutants.iter().filter(|m| m.site.kind == kind).count();
            assert!(n <= budget.for_kind(kind));
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let budget = BugBudget {
            negation: 2,
            operation: 1,
            misuse: 2,
        };
        let a = Campaign::new(11).run(&golden(), "gnt1", &budget).unwrap();
        let b = Campaign::new(11).run(&golden(), "gnt1", &budget).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.observable, y.observable);
        }
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let budget = BugBudget {
            negation: 3,
            operation: 2,
            misuse: 3,
        };
        let runs: Vec<Vec<Mutant>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                par::with_threads(threads, || {
                    Campaign::new(23).run(&golden(), "gnt1", &budget).unwrap()
                })
            })
            .collect();
        let single = &runs[0];
        assert!(!single.is_empty());
        for (threads, r) in [2usize, 8].iter().zip(&runs[1..]) {
            assert_eq!(r.len(), single.len(), "{threads} threads");
            for (a, b) in single.iter().zip(r) {
                assert_eq!(a.source, b.source, "{threads} threads");
                assert_eq!(a.site, b.site, "{threads} threads");
                assert_eq!(a.observable, b.observable, "{threads} threads");
                assert_eq!(a.runs.len(), b.runs.len(), "{threads} threads");
                assert_eq!(a.runs, b.runs, "{threads} threads");
            }
        }
    }

    #[test]
    fn mutated_statement_is_inside_target_slice() {
        let budget = BugBudget {
            negation: 3,
            operation: 3,
            misuse: 3,
        };
        let slice = Slice::of_target(&golden(), "gnt1");
        let mutants = Campaign::new(13).run(&golden(), "gnt1", &budget).unwrap();
        for m in &mutants {
            assert!(
                slice.contains(m.site.stmt),
                "mutation outside slice: {:?}",
                m.site
            );
        }
    }

    #[test]
    fn observable_mutants_have_failing_runs() {
        let budget = BugBudget {
            negation: 3,
            operation: 3,
            misuse: 3,
        };
        let mutants = Campaign::new(17).run(&golden(), "gnt1", &budget).unwrap();
        let observable = mutants.iter().filter(|m| m.observable).count();
        assert!(observable > 0, "campaign found no observable bugs");
        for m in mutants.iter().filter(|m| m.observable) {
            assert!(m.runs.iter().any(|r| r.label == sim::TraceLabel::Failing));
        }
    }

    /// The elision metrics must be live: a verdict-screened campaign moves
    /// the simulator's count of records it never materialized and its
    /// lane-fill histogram (both rendered by `/metricsz`).
    #[test]
    fn campaign_records_elision_metrics() {
        obs::enable();
        let budget = BugBudget {
            negation: 2,
            operation: 1,
            misuse: 1,
        };
        let tallies = || {
            let report = obs::snapshot();
            let lanes = report.histogram("sim.batch_lanes").map(|h| h.count);
            (report.counter("sim.records_elided").unwrap_or(0), lanes)
        };
        let (elided, lanes) = tallies();
        Campaign::new(31).run(&golden(), "gnt1", &budget).unwrap();
        let (elided_after, lanes_after) = tallies();
        assert!(
            elided_after > elided,
            "verdict screening must elide records"
        );
        let lanes_after = lanes_after.expect("batch lane histogram recorded");
        assert!(lanes_after > lanes.unwrap_or(0));
    }

    /// The two-pass verdict flow must match the single-pass full-trace
    /// oracle: same mutants, sources, sites and observability flags, the
    /// same labels and failure cycles, and per cycle the oracle's records,
    /// with no signal snapshots.
    #[test]
    fn two_pass_flow_matches_single_pass_oracle() {
        let budget = BugBudget {
            negation: 3,
            operation: 2,
            misuse: 3,
        };
        let campaign = Campaign::new(29);
        let two_pass = campaign.run(&golden(), "gnt1", &budget).unwrap();
        let single = crate::oracle::run_single_pass(&campaign, &golden(), "gnt1", &budget).unwrap();
        assert!(!two_pass.is_empty());
        assert_eq!(two_pass.len(), single.len());
        for (a, b) in two_pass.iter().zip(&single) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.site, b.site);
            assert_eq!(a.observable, b.observable);
            assert_eq!(a.runs.len(), b.runs.len());
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.label, rb.label);
                assert_eq!(ra.failure_cycles, rb.failure_cycles);
                assert_eq!(ra.trace.len(), rb.trace.len());
                for (ca, cb) in ra.trace.cycles.iter().zip(&rb.trace.cycles) {
                    assert_eq!(ca.cycle, cb.cycle);
                    assert_eq!(ca.execs, cb.execs);
                    assert!(ca.signals.is_empty());
                }
            }
        }
    }
}
