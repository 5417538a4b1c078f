//! Wall-clock benchmark of the parallel execution layer and the compiled
//! simulation engine, written to `BENCH_pipeline.json`.
//!
//! For each pipeline stage (mutation campaign, co-simulation, dataset build,
//! one training epoch, holdout evaluation) the runner times the stage at
//! 1/2/4/8 worker threads (via `par::with_threads`), reports the speedup
//! relative to the single-thread row, and cross-checks that every stage's
//! *result* is identical at every thread count — the determinism guarantee
//! the layer is built around. A separate single-thread comparison times the
//! compiled engine against the interpreter oracle on the campaign
//! co-simulation workload, one stimulus per run (`engine`), as full 64-lane
//! batches (`engine_batch`), and as verdict-mode batches
//! (`engine_batch_verdict`), recording each speedup over the interpreter.
//!
//! Speedups are honest numbers for the current host: on a single-core
//! machine every threading row is flat (the JSON records `host_cores` so
//! readers can tell); the engine speedup is thread-independent. Timings take
//! the minimum over `--reps N` repetitions (default 3).
//!
//! Run with: `cargo run --release -p veribug-bench --bin bench_pipeline`
//!
//! `--smoke` shrinks the workload for CI and exits non-zero when any stage's
//! result differs across thread counts (without rewriting the JSON), when
//! the compiled engine's traces — one stimulus per run or batched — diverge
//! from the interpreter's, when the verdict pass disagrees with the full-trace oracle (inline check or
//! the time-boxed RVDG fuzz) or regresses below 3x full-trace batch
//! throughput, or when the measured observability overhead exceeds 5%.
//!
//! The runner also times the simulation workload with metrics collection
//! enabled vs disabled and records the relative overhead as `obs_overhead`
//! in the JSON — the number backing the "<5% overhead" claim in DESIGN.md.
//! Pass `--obs trace.json` / `--quiet` like any other VeriBug binary to
//! profile the benchmark run itself.

use std::fmt::Write as _;
use std::time::Instant;

use rvdg::{Generator, RvdgConfig};
use sim::{
    EngineKind, SignalRole, SignalSet, Simulator, Stimulus, TestbenchGen, Trace, TraceLabel,
    TraceMode, VerdictTrace,
};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use veribug_bench::stats;
use verilog::Module;

/// Worker counts benchmarked for every stage.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One stage's timings (seconds per thread count) plus the cross-thread
/// determinism verdict.
struct StageResult {
    name: &'static str,
    secs: Vec<f64>,
    deterministic: bool,
}

/// Times `f` at each worker count, keeping the fastest of `reps` runs and a
/// per-thread-count fingerprint for the determinism check. Also returns the
/// first worker count's fingerprint, for comparisons across stages.
fn run_stage<R, K: PartialEq>(
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
    fingerprint: impl Fn(&R) -> K,
) -> (StageResult, K) {
    let mut secs = Vec::with_capacity(THREADS.len());
    let mut prints: Vec<K> = Vec::with_capacity(THREADS.len());
    let _span = obs::span_dyn(|| format!("bench.{name}"));
    for &threads in &THREADS {
        let (best, last) = par::with_threads(threads, || stats::min_of_reps(reps, &mut f));
        secs.push(best);
        prints.push(fingerprint(&last));
    }
    let deterministic = prints.iter().all(|p| *p == prints[0]);
    obs::progress!(
        "{name:<14} {} deterministic={deterministic}",
        THREADS
            .iter()
            .zip(&secs)
            .map(|(t, s)| format!("t{t}={s:.3}s"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let first = prints.swap_remove(0);
    (
        StageResult {
            name,
            secs,
            deterministic,
        },
        first,
    )
}

/// A campaign's fingerprint: every mutant's source and observability, and
/// every run's label and failure cycles.
type CampaignPrint = Vec<(String, bool, Vec<(TraceLabel, Vec<u32>)>)>;

fn campaign_print(mutants: &[mutate::Mutant]) -> CampaignPrint {
    mutants
        .iter()
        .map(|m| {
            let runs = m.runs.iter().map(|r| (r.label, r.failure_cycles.clone()));
            (m.source.clone(), m.observable, runs.collect())
        })
        .collect()
}

fn corpus(n: usize) -> Vec<Module> {
    Generator::new(RvdgConfig::default(), 5)
        .generate_corpus(n)
        .expect("rvdg generates")
        .into_iter()
        .map(|d| d.module)
        .collect()
}

/// Compiled-vs-interpreted engine timing on the campaign co-simulation
/// workload: every Table I design simulated on many short, calm stimuli,
/// single-threaded, seconds per pass (see [`compare_engines`]). Also
/// cross-checks every compiled result against the interpreter's — a cheap
/// inline version of the differential test suite.
struct EngineCompare {
    /// Compiled-engine time running one stimulus per `Simulator::run` call
    /// (one-lane batches).
    compiled_s: f64,
    interpreted_s: f64,
    /// One-stimulus compiled traces bit-identical to the interpreter's.
    traces_identical: bool,
    /// Compiled-engine time on the same workload as full batches (one
    /// full-mode `run_batch_mode` call per design; `runs` stimuli fill
    /// `runs` of the 64 lanes).
    batch_s: f64,
    /// Lanes occupied per batch (the per-design run count).
    lane_fill: usize,
    /// Total stimuli simulated per engine pass (for stimuli/sec rates).
    stimuli: usize,
    /// Batch-extracted traces bit-identical to the interpreter's.
    batch_identical: bool,
    /// Batch-engine time on the same workload in verdict mode (observed =
    /// the design's campaign target only, no execution records).
    verdict_s: f64,
    /// Verdict values equal the observed columns of the full traces.
    verdict_identical: bool,
}

/// Relative cost of leaving metrics collection enabled on the simulation
/// workload (the instrumentation-densest path: per-cycle dirty-gate and
/// bytecode counters).
struct ObsOverhead {
    /// Workload passes timed back to back in one rep.
    passes: usize,
    /// Fastest collection-off rep, seconds for all `passes`.
    baseline_s: f64,
    /// Fastest collection-on rep, seconds for all `passes`.
    enabled_s: f64,
    /// `(enabled - baseline) / baseline`, clamped at 0 (noise can make the
    /// enabled run the faster one).
    overhead_frac: f64,
}

/// Times the same single-threaded simulation workload with collection off
/// and on, fastest of `reps` each. The workload is deterministic, so
/// min-of-reps makes scheduling noise one-sided; off/on reps interleave,
/// alternating which runs first, so a transient host slowdown (downclock,
/// background work) hits both sides rather than biasing either one. Each
/// rep runs the workload [`stats::passes_per_rep`] times, calibrated with
/// collection off.
fn measure_obs_overhead(
    modules: &[Module],
    cycles: usize,
    runs: usize,
    reps: usize,
) -> ObsOverhead {
    let was_enabled = obs::enabled();
    let workload = || {
        for module in modules {
            let mut s = Simulator::new(module).expect("elaborates");
            let stimuli = TestbenchGen::new(0x0B5E)
                .with_hold_probability(0.8)
                .generate_many(s.netlist(), cycles, runs);
            for stim in &stimuli {
                std::hint::black_box(s.run(stim).expect("simulates"));
            }
        }
    };
    obs::set_enabled(false);
    let passes = stats::passes_per_rep(workload);
    let Ok([[baseline_s], [enabled_s]]) = stats::interleaved_min_of_reps(reps, |arm| {
        obs::set_enabled(arm == 1);
        let rep = || (0..passes).for_each(|_| workload());
        Ok::<_, std::convert::Infallible>([stats::min_of_reps(1, rep).0])
    });
    obs::set_enabled(was_enabled);
    let overhead_frac = ((enabled_s - baseline_s) / baseline_s.max(1e-12)).max(0.0);
    obs::progress!(
        "obs_overhead   passes={passes} off={baseline_s:.3}s on={enabled_s:.3}s overhead={:.2}%",
        overhead_frac * 100.0
    );
    ObsOverhead {
        passes,
        baseline_s,
        enabled_s,
        overhead_frac,
    }
}

/// One engine arm of [`compare_engines`]: its own simulators, built
/// outside the timed region (a campaign compiles each design once and then
/// runs hundreds of stimuli against it, so steady-state stimuli/sec is the
/// comparison that matters), the pass it times over every design of the
/// workload, and the last pass's results in workload order.
struct EngineArm<'w, T, F> {
    workload: &'w [(Module, Vec<Stimulus>, SignalSet)],
    sims: Vec<Simulator>,
    run: F,
    /// Passes per rep, from [`stats::passes_per_rep`].
    passes: usize,
    results: Vec<T>,
}

impl<'w, T, F> EngineArm<'w, T, F>
where
    F: FnMut(&mut Simulator, &[Stimulus], &SignalSet) -> Vec<T>,
{
    fn new(workload: &'w [(Module, Vec<Stimulus>, SignalSet)], run: F) -> Self {
        let sims = workload
            .iter()
            .map(|(module, _, _)| Simulator::new(module).expect("elaborates"))
            .collect();
        let mut arm = EngineArm {
            workload,
            sims,
            run,
            passes: 1,
            results: Vec::new(),
        };
        arm.passes = stats::passes_per_rep(|| arm.pass());
        arm
    }

    fn pass(&mut self) -> Vec<T> {
        let EngineArm {
            workload,
            sims,
            run,
            ..
        } = self;
        workload
            .iter()
            .zip(sims)
            .flat_map(|((_, stimuli, observed), s)| run(s, stimuli, observed))
            .collect()
    }

    /// Times one rep, [`stats::passes_per_rep`] passes back to back, and returns
    /// its seconds per pass.
    fn rep(&mut self) -> f64 {
        let (rep_s, results) = stats::min_of_reps(1, || {
            (1..self.passes).for_each(|_| drop(std::hint::black_box(self.pass())));
            self.pass()
        });
        self.results = results;
        rep_s / self.passes as f64
    }
}

/// Times the engines against each other on the catalog's co-simulation
/// workload, single-threaded. The four arms interleave within every rep
/// (rotating which runs first), so host speed drift between reps moves
/// every arm alike instead of skewing their ratios; each keeps its fastest
/// rep.
fn compare_engines(cycles: usize, runs: usize, reps: usize) -> EngineCompare {
    let workload: Vec<(Module, Vec<Stimulus>, SignalSet)> = designs::catalog()
        .iter()
        .map(|d| {
            let module = d.module().expect("parses");
            let probe = Simulator::new(&module).expect("elaborates");
            assert_eq!(probe.batch_engine_kind(), EngineKind::Batch);
            let stimuli = TestbenchGen::new(0xD1CE_F00D)
                .with_hold_probability(0.8)
                .generate_many(probe.netlist(), cycles, runs);
            // Verdict workload observes what a campaign observes: the
            // design's first localization target, nothing else.
            let target = probe
                .netlist()
                .signal_id(d.targets[0])
                .expect("catalog target resolves");
            (module, stimuli, SignalSet::from_ids([target]))
        })
        .collect();
    let mut compiled = EngineArm::new(&workload, |s, st, _| {
        st.iter()
            .map(|stim| s.run(stim).expect("simulates"))
            .collect()
    });
    let mut interpreted = EngineArm::new(&workload, |s, st, _| {
        st.iter()
            .map(|stim| sim::oracle::interpret(s.netlist(), stim).expect("simulates"))
            .collect()
    });
    let mut batch = EngineArm::new(&workload, |s, st, _| {
        let runs = s.run_batch_mode(st, TraceMode::full()).expect("simulates");
        runs.into_iter().map(|(trace, _)| trace).collect()
    });
    let mut verdict = EngineArm::new(&workload, |s, st, observed| {
        let runs = s
            .run_batch_mode(st, TraceMode::verdict(observed))
            .expect("simulates");
        runs.into_iter().map(|(_, verdict)| verdict).collect()
    });
    let Ok([[compiled_s], [interpreted_s], [batch_s], [verdict_s]]) =
        stats::interleaved_min_of_reps(reps, |arm| {
            Ok::<_, std::convert::Infallible>([match arm {
                0 => compiled.rep(),
                1 => interpreted.rep(),
                2 => batch.rep(),
                _ => verdict.rep(),
            }])
        });
    let (compiled_traces, interpreted_traces) = (compiled.results, interpreted.results);
    let (batch_traces, verdicts) = (batch.results, verdict.results);
    let traces_identical = compiled_traces == interpreted_traces;
    let batch_identical = batch_traces == interpreted_traces;
    // Verdict values must equal the observed columns of the full traces —
    // an inline version of the differential suite's verdict oracle.
    let expected_verdicts: Vec<VerdictTrace> = workload
        .iter()
        .flat_map(|(_, stimuli, observed)| stimuli.iter().map(move |_| observed))
        .zip(&interpreted_traces)
        .map(|(observed, trace)| VerdictTrace {
            values: trace
                .cycles
                .iter()
                .flat_map(|c| observed.ids().iter().map(|&id| c.value(id)))
                .collect(),
            nobs: observed.len(),
        })
        .collect();
    let verdict_identical = verdicts == expected_verdicts;
    let stimuli: usize = workload.iter().map(|(_, st, _)| st.len()).sum();
    obs::progress!(
        "engine         verdict={verdict_s:.3}s batch={batch_s:.3}s compiled={compiled_s:.3}s \
         interpreted={interpreted_s:.3}s batch_speedup={:.2}x verdict_speedup={:.2}x identical={}",
        interpreted_s / batch_s.max(1e-12),
        batch_s / verdict_s.max(1e-12),
        traces_identical && batch_identical && verdict_identical
    );
    EngineCompare {
        compiled_s,
        interpreted_s,
        traces_identical,
        batch_s,
        lane_fill: runs,
        stimuli,
        batch_identical,
        verdict_s,
        verdict_identical,
    }
}

/// Outcome of the time-boxed RVDG verdict fuzz: random designs and random
/// mutants screened in verdict mode, with every verdict (diverged? first
/// divergence cycle?) checked against a full-trace cosimulation oracle at
/// 1/2/8 worker threads.
struct VerdictFuzz {
    designs: usize,
    mutants: usize,
    runs_checked: usize,
    mismatches: usize,
    elapsed_s: f64,
}

fn fuzz_verdicts(budget_s: f64) -> VerdictFuzz {
    let _span = obs::span("bench.verdict_fuzz");
    let start = Instant::now();
    let mut out = VerdictFuzz {
        designs: 0,
        mutants: 0,
        runs_checked: 0,
        mismatches: 0,
        elapsed_s: 0.0,
    };
    let mut seed = 0xF02Du64;
    'budget: loop {
        for &threads in &[1usize, 2, 8] {
            if start.elapsed().as_secs_f64() >= budget_s {
                break 'budget;
            }
            let design = Generator::new(RvdgConfig::default(), seed)
                .generate_corpus(1)
                .expect("rvdg generates")
                .remove(0);
            let mut golden_sim = Simulator::new(&design.module).expect("elaborates");
            let target_id = golden_sim
                .netlist()
                .signals()
                .iter()
                .position(|s| s.role == SignalRole::Output)
                .map(|i| sim::SignalId(i as u32))
                .expect("rvdg designs have outputs");
            // More stimuli than `sim::LANES` so the verdict pass spills
            // into a second lane group and the worker pool actually fans
            // out at 2/8 threads.
            let stimuli = TestbenchGen::new(seed ^ 0xF155)
                .with_hold_probability(0.8)
                .generate_many(golden_sim.netlist(), 24, sim::LANES + 6);
            par::with_threads(threads, || {
                let golden_vs = mutate::golden_verdicts(&mut golden_sim, &stimuli, target_id)
                    .expect("golden verdicts");
                let golden_runs =
                    mutate::run_lane_groups(&mut golden_sim, &stimuli).expect("golden traces");
                let target = &golden_sim.netlist().signals()[target_id.0 as usize].name;
                out.designs += 1;
                for site in mutate::enumerate_sites(&design.module, None).iter().take(4) {
                    let Some(mutant) = mutate::apply(&design.module, site) else {
                        continue;
                    };
                    // Both flows must agree even on which mutants simulate
                    // at all (e.g. injected combinational loops).
                    let screened = Simulator::new(&mutant).and_then(|mut sim| {
                        mutate::screen_with(&mut sim, &golden_vs, target_id, &stimuli)
                    });
                    let full = Simulator::new(&mutant).and_then(|mut sim| {
                        mutate::oracle::cosimulate(&golden_runs, &mut sim, target, &stimuli)
                    });
                    out.mutants += 1;
                    let (verdicts, labelled) = match (screened, full) {
                        (Ok(v), Ok(l)) => (v, l),
                        (Err(_), Err(_)) => continue,
                        _ => {
                            out.mismatches += 1;
                            continue;
                        }
                    };
                    for (v, l) in verdicts.iter().zip(&labelled) {
                        out.runs_checked += 1;
                        let full_diverged = l.label == TraceLabel::Failing;
                        let full_first = l.failure_cycles.first().copied();
                        if v.diverged() != full_diverged || v.first_divergence() != full_first {
                            out.mismatches += 1;
                        }
                    }
                }
            });
            seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    obs::progress!(
        "verdict_fuzz   designs={} mutants={} runs={} mismatches={} in {:.1}s",
        out.designs,
        out.mutants,
        out.runs_checked,
        out.mismatches,
        out.elapsed_s
    );
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    veribug_bench::init_obs();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let reps: usize = args
        .iter()
        .position(|a| a == "--reps")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--reps takes a number"))
        .unwrap_or(if smoke { 1 } else { 3 })
        .max(1);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    // Smoke mode shrinks every workload so CI can run the whole binary in
    // seconds; the determinism cross-check is identical either way.
    let (sim_cycles, sim_runs) = if smoke { (16, 4) } else { (16, 24) };

    let campaign_module = designs::WB_MUX_2.module().expect("parses");
    let budget = mutate::BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let modules = corpus(3);
    let sim_modules: Vec<Module> = designs::catalog()
        .iter()
        .map(|d| d.module().expect("parses"))
        .chain(corpus(if smoke { 2 } else { 6 }))
        .collect();
    let dataset = Dataset::from_designs(&modules, 1, 24, 2)?;
    let cfg = TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    };

    let (campaign, two_pass_print) = run_stage(
        "campaign",
        reps,
        || {
            mutate::Campaign::new(7)
                .with_runs_per_mutant(64)
                .run(&campaign_module, "wbs0_we_o", &budget)
                .expect("campaign runs")
        },
        |mutants| campaign_print(mutants),
    );
    let (campaign_1pass, single_pass_print) = run_stage(
        "campaign_1pass",
        reps,
        || {
            let campaign = mutate::Campaign::new(7).with_runs_per_mutant(64);
            mutate::oracle::run_single_pass(&campaign, &campaign_module, "wbs0_we_o", &budget)
                .expect("campaign runs")
        },
        |mutants| campaign_print(mutants),
    );
    // Both flows must label every run alike: verdict-derived labels in
    // the two-pass flow, snapshot-derived ones in the single-pass oracle.
    let campaign_flows_agree = two_pass_print == single_pass_print;
    let stages = vec![
        campaign,
        campaign_1pass,
        run_stage(
            "simulate",
            reps,
            || {
                par::par_map(&sim_modules, |module| {
                    let mut s = Simulator::new(module).expect("elaborates");
                    let stimuli = TestbenchGen::new(0xBEEF)
                        .with_hold_probability(0.8)
                        .generate_many(s.netlist(), sim_cycles, sim_runs);
                    stimuli
                        .iter()
                        .map(|stim| s.run(stim).expect("simulates"))
                        .collect::<Vec<Trace>>()
                })
            },
            |traces| traces.clone(),
        )
        .0,
        run_stage(
            "dataset_build",
            reps,
            || Dataset::from_designs(&modules, 1, 24, 2).expect("builds"),
            |ds| ds.clone(),
        )
        .0,
        run_stage(
            "train_epoch",
            reps,
            || {
                let mut model = VeriBugModel::new(ModelConfig::default());
                train::train(&mut model, &dataset, &cfg).expect("trains")
            },
            |report| {
                // Bit-exact: compare the f32 losses by bits, not by value.
                report
                    .epoch_losses
                    .iter()
                    .map(|l| l.to_bits())
                    .collect::<Vec<_>>()
            },
        )
        .0,
        run_stage(
            "evaluate",
            reps,
            || {
                let model = VeriBugModel::new(ModelConfig::default());
                train::evaluate(&model, &dataset)
            },
            |m| (m.accuracy.to_bits(), m.count),
        )
        .0,
    ];

    // Full 64-lane fill even in smoke mode: the verdict-vs-full gate below
    // compares trace-production cost against lane-parallel compute, and a
    // partial fill understates the former (partial fills are covered by the
    // differential suite). 64 cycles keeps each timed region well above
    // timer/allocator noise so the min-of-reps ratio gate is stable.
    let engine = par::with_threads(1, || compare_engines(64, 64, reps.max(3)));

    // The overhead measurement needs enough work per rep to dwarf timer and
    // scheduling noise, so it keeps a fixed per-module workload and extra
    // reps even in smoke mode.
    let overhead = par::with_threads(1, || {
        measure_obs_overhead(&sim_modules, 32, 32, reps.max(5))
    });

    // Time-boxed RVDG verdict fuzz: verdict-pass answers vs the full-trace
    // oracle on random designs and mutants, at 1/2/8 threads.
    let fuzz = fuzz_verdicts(if smoke { 3.0 } else { 8.0 });

    let json = render_json(host_cores, reps, &stages, &engine, &overhead, &fuzz);
    println!("{json}");
    // Smoke never rewrites the checked-in BENCH_pipeline.json: its numbers
    // come from the shrunken workload and would silently replace the full
    // run's timings.
    if !smoke {
        std::fs::write("BENCH_pipeline.json", &json)?;
        obs::progress!("wrote BENCH_pipeline.json");
    }

    if smoke {
        let bad: Vec<&str> = stages
            .iter()
            .filter(|s| !s.deterministic)
            .map(|s| s.name)
            .collect();
        if !bad.is_empty() || !engine.traces_identical || !engine.batch_identical {
            eprintln!(
                "smoke FAILED: non-deterministic stages {bad:?}, compiled/interpreted \
                 identical: {}, batch/interpreted identical: {}",
                engine.traces_identical, engine.batch_identical
            );
            std::process::exit(1);
        }
        if !engine.verdict_identical {
            eprintln!("smoke FAILED: verdict-pass values diverge from the full-trace oracle");
            std::process::exit(1);
        }
        if !campaign_flows_agree {
            eprintln!(
                "smoke FAILED: the two-pass campaign's mutants, labels or failure cycles \
                 differ from the single-pass oracle's"
            );
            std::process::exit(1);
        }
        let verdict_speedup = engine.batch_s / engine.verdict_s.max(1e-12);
        if verdict_speedup < 3.0 {
            eprintln!(
                "smoke FAILED: verdict pass is only {verdict_speedup:.2}x the full-trace \
                 batch (gate: 3x)"
            );
            std::process::exit(1);
        }
        if fuzz.mismatches > 0 {
            eprintln!(
                "smoke FAILED: verdict fuzz found {} mismatches across {} runs",
                fuzz.mismatches, fuzz.runs_checked
            );
            std::process::exit(1);
        }
        if overhead.overhead_frac > 0.05 {
            eprintln!(
                "smoke FAILED: observability overhead {:.2}% exceeds the 5% budget",
                overhead.overhead_frac * 100.0
            );
            std::process::exit(1);
        }
        obs::progress!(
            "smoke OK: all stages deterministic across thread counts, campaign flows \
             agree, verdict pass {verdict_speedup:.2}x full-trace batch and fuzz-clean, \
             obs overhead {:.2}%",
            overhead.overhead_frac * 100.0
        );
    }
    obs::report();
    Ok(())
}

/// Hand-rolled JSON (the vendored serde is a compile-surface stub and does
/// not serialize).
fn render_json(
    host_cores: usize,
    reps: usize,
    stages: &[StageResult],
    engine: &EngineCompare,
    overhead: &ObsOverhead,
    fuzz: &VerdictFuzz,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(
        out,
        "  \"thread_counts\": [{}],",
        THREADS
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("  \"stages\": [\n");
    for (si, s) in stages.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
        let wall: Vec<String> = THREADS
            .iter()
            .zip(&s.secs)
            .map(|(t, sec)| format!("\"{t}\": {sec:.6}"))
            .collect();
        let _ = writeln!(out, "      \"wall_clock_s\": {{ {} }},", wall.join(", "));
        let serial = s.secs[0];
        let speed: Vec<String> = THREADS
            .iter()
            .zip(&s.secs)
            .map(|(t, sec)| format!("\"{t}\": {:.3}", serial / sec.max(1e-12)))
            .collect();
        let _ = writeln!(
            out,
            "      \"speedup_vs_serial\": {{ {} }},",
            speed.join(", ")
        );
        let _ = writeln!(
            out,
            "      \"deterministic_across_threads\": {}",
            s.deterministic
        );
        out.push_str("    }");
        out.push_str(if si + 1 < stages.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"engine\": {\n");
    out.push_str(
        "    \"workload\": \"designs catalog, campaign-style stimuli, 1 thread, one \
         stimulus per run (one-lane batches)\",\n",
    );
    let _ = writeln!(out, "    \"compiled_s\": {:.6},", engine.compiled_s);
    let _ = writeln!(out, "    \"interpreted_s\": {:.6},", engine.interpreted_s);
    let _ = writeln!(
        out,
        "    \"speedup\": {:.3},",
        engine.interpreted_s / engine.compiled_s.max(1e-12)
    );
    let _ = writeln!(out, "    \"traces_identical\": {}", engine.traces_identical);
    out.push_str("  },\n");
    out.push_str("  \"engine_batch\": {\n");
    out.push_str(
        "    \"workload\": \"designs catalog, campaign-style stimuli, 1 thread, \
         one 64-lane batch per design\",\n",
    );
    let _ = writeln!(out, "    \"lane_fill\": {},", engine.lane_fill);
    let _ = writeln!(out, "    \"stimuli\": {},", engine.stimuli);
    let _ = writeln!(out, "    \"batch_s\": {:.6},", engine.batch_s);
    let n = engine.stimuli as f64;
    let _ = writeln!(out, "    \"stimuli_per_s\": {{");
    let _ = writeln!(
        out,
        "      \"batch\": {:.1},",
        n / engine.batch_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "      \"compiled_one_per_run\": {:.1},",
        n / engine.compiled_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "      \"interpreted\": {:.1}",
        n / engine.interpreted_s.max(1e-12)
    );
    let _ = writeln!(out, "    }},");
    let _ = writeln!(
        out,
        "    \"speedup_vs_interpreted\": {:.3},",
        engine.interpreted_s / engine.batch_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "    \"traces_identical_to_interpreted\": {},",
        engine.batch_identical
    );
    out.push_str(
        "    \"note\": \"full traces: every run emits per-statement execution \
         records and per-cycle snapshots, a memory-bound cost that bounds the \
         bit-parallel gain well below the 64-lane compute speedup\"\n",
    );
    out.push_str("  },\n");
    out.push_str("  \"engine_batch_verdict\": {\n");
    out.push_str(
        "    \"workload\": \"same stimuli as engine_batch, TraceMode::verdict with \
         observed = the design's campaign target\",\n",
    );
    let _ = writeln!(out, "    \"verdict_s\": {:.6},", engine.verdict_s);
    let _ = writeln!(
        out,
        "    \"stimuli_per_s\": {:.1},",
        n / engine.verdict_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "    \"speedup_vs_full_batch\": {:.3},",
        engine.batch_s / engine.verdict_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "    \"speedup_vs_interpreted\": {:.3},",
        engine.interpreted_s / engine.verdict_s.max(1e-12)
    );
    let _ = writeln!(
        out,
        "    \"values_match_full_trace\": {},",
        engine.verdict_identical
    );
    out.push_str(
        "    \"note\": \"verdict mode emits no execution records and snapshots only \
         the observed signals, so the hot loop is pure 64-lane compute plus an \
         O(observed) per-cycle copy; the two-pass campaign screens every candidate \
         this way, then records execution records without snapshots only for the \
         mutants it keeps\"\n",
    );
    out.push_str("  },\n");
    out.push_str("  \"verdict_fuzz\": {\n");
    out.push_str(
        "    \"workload\": \"time-boxed RVDG designs + mutants, verdict screen vs \
         full-trace cosimulation oracle at 1/2/8 threads\",\n",
    );
    let _ = writeln!(out, "    \"designs\": {},", fuzz.designs);
    let _ = writeln!(out, "    \"mutants\": {},", fuzz.mutants);
    let _ = writeln!(out, "    \"runs_checked\": {},", fuzz.runs_checked);
    let _ = writeln!(out, "    \"mismatches\": {},", fuzz.mismatches);
    let _ = writeln!(out, "    \"elapsed_s\": {:.3}", fuzz.elapsed_s);
    out.push_str("  },\n");
    out.push_str("  \"obs_overhead\": {\n");
    out.push_str(
        "    \"workload\": \"simulation sweep (the instrumentation-densest stage), 1 thread\",\n",
    );
    let _ = writeln!(out, "    \"passes_per_rep\": {},", overhead.passes);
    let _ = writeln!(out, "    \"baseline_s\": {:.6},", overhead.baseline_s);
    let _ = writeln!(out, "    \"enabled_s\": {:.6},", overhead.enabled_s);
    let _ = writeln!(
        out,
        "    \"overhead_pct\": {:.3}",
        overhead.overhead_frac * 100.0
    );
    out.push_str("  },\n");
    out.push_str(
        "  \"note\": \"speedup_vs_serial is measured on this host; with host_cores = 1 \
         all rows are flat and only the determinism column is meaningful. The engine blocks \
         compare the compiled levelized/bytecode engine to the interpreter oracle on \
         one thread and are core-count independent\"\n",
    );
    out.push_str("}\n");
    out
}
