//! Differential tests: the compiled engine must be bit-identical to the
//! interpreter oracle (`sim::oracle::interpret`) — signal snapshots **and**
//! `StmtExec` records — on every design in `crates/designs`, a large
//! RVDG-generated corpus, and every mutant whose combinational logic has
//! no levelized schedule, at every supported thread count, in every trace
//! mode (full traces, verdicts, and records-only traces, each checked as a
//! filter of the oracle's full trace), whether stimuli run one per call or
//! as 64-lane batches of any shape.

use mutate::{BugBudget, Campaign};
use rvdg::{Generator, RvdgConfig};
use sim::oracle::interpret;
use sim::{
    CancelToken, EngineKind, SignalId, SignalRole, SignalSet, SimError, Simulator, Stimulus,
    StmtExec, TestbenchGen, Trace, TraceMode, VerdictTrace,
};
use std::collections::BTreeSet;
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use verilog::{Module, StmtId};

/// Cycles per stimulus; long enough to exercise resets, wrap-around and
/// dirty-set skipping, short enough to keep the corpus fast.
const CYCLES: usize = 48;
/// Independent stimuli per design.
const STIMULI: usize = 3;

/// The compiled engine's full traces for `stimuli`, one per stimulus.
fn traces(sim: &mut Simulator, stimuli: &[Stimulus]) -> Result<Vec<Trace>, SimError> {
    let runs = sim.run_batch_mode(stimuli, TraceMode::full())?;
    Ok(runs.into_iter().map(|(trace, _)| trace).collect())
}

/// The compiled engine's `observed` columns for `stimuli`, one per stimulus.
fn verdicts(
    sim: &mut Simulator,
    stimuli: &[Stimulus],
    observed: &SignalSet,
) -> Result<Vec<VerdictTrace>, SimError> {
    let runs = sim.run_batch_mode(stimuli, TraceMode::verdict(observed))?;
    Ok(runs.into_iter().map(|(_, verdict)| verdict).collect())
}

/// The oracle's traces for `stimuli`, one run per stimulus: what every
/// compiled result is held to.
fn interpreted_traces(sim: &Simulator, stimuli: &[Stimulus]) -> Vec<Trace> {
    stimuli
        .iter()
        .map(|st| interpret(sim.netlist(), st).expect("oracle run"))
        .collect()
}

/// Asserts the compiled engine's traces match the interpreter's, stimulus
/// by stimulus.
fn assert_matches_interpreter(name: &str, compiled: &[Trace], interp: &[Trace]) {
    assert_eq!(compiled.len(), interp.len(), "{name}: trace count");
    for (i, (c, t)) in compiled.iter().zip(interp).enumerate() {
        assert_eq!(
            c, t,
            "{name}: stimulus {i} diverged between compiled and interpreted engines"
        );
    }
}

/// Runs `module` on `STIMULI` seeded stimuli through the interpreter and
/// through the compiled engine twice — as one batch and one stimulus per
/// [`Simulator::run`] call — and asserts all three agree.
fn check_full_traces(name: &str, module: &Module, seed: u64) {
    let mut compiled = Simulator::new(module).expect("elaborates");
    let stimuli = TestbenchGen::new(seed).generate_many(compiled.netlist(), CYCLES, STIMULI);
    let oracle = interpreted_traces(&compiled, &stimuli);
    let batched = traces(&mut compiled, &stimuli).expect("batch run");
    assert_matches_interpreter(&format!("{name} batch"), &batched, &oracle);
    let single: Vec<Trace> = stimuli
        .iter()
        .map(|st| compiled.run(st).expect("single run"))
        .collect();
    assert_matches_interpreter(&format!("{name} single"), &single, &oracle);
}

/// Every Table I design, compiled vs interpreted, at 1/2/8 threads.
#[test]
fn designs_catalog_is_bit_identical_across_engines_and_threads() {
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            par::par_map(&designs::catalog(), |d| {
                let module = d.module().expect("design parses");
                check_full_traces(d.name, &module, 0xD1FF_0001);
            });
        });
    }
}

/// ≥ 100 RVDG-generated designs, compiled vs interpreted, at 1/2/8 threads.
#[test]
fn rvdg_corpus_is_bit_identical_across_engines_and_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0xC0FF_EE00)
        .generate_corpus(104)
        .expect("rvdg corpus generates");
    assert!(corpus.len() >= 100);
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            par::par_map(&corpus, |d| {
                check_full_traces(&format!("rvdg seed {}", d.seed), &d.module, d.seed ^ 0xD1FF);
            });
        });
    }
}

/// A wider RVDG shape (more branches, wider vectors) to cover part selects,
/// case statements and multi-bit arithmetic beyond the default mix.
#[test]
fn rvdg_wide_corpus_is_bit_identical() {
    let cfg = RvdgConfig {
        num_wide_inputs: 4,
        wide_width: 8,
        num_branches: 5,
        stmts_per_branch: 3,
        ..RvdgConfig::default()
    };
    let corpus = Generator::new(cfg, 0xBEEF_0002)
        .generate_corpus(24)
        .expect("rvdg corpus generates");
    for d in &corpus {
        check_full_traces(
            &format!("rvdg-wide seed {}", d.seed),
            &d.module,
            d.seed ^ 0xA5A5,
        );
    }
}

/// One end-to-end pass over `corpus`: simulate every design (the returned
/// [`Trace`]s carry both signal snapshots and `StmtExec` records), build the
/// training dataset, and train a model for two epochs. The fingerprint is
/// everything downstream code consumes — traces plus bit-level epoch losses.
fn pipeline_fingerprint(corpus: &[Module]) -> (Vec<Trace>, Vec<u32>) {
    let traces: Vec<Trace> = par::par_map(corpus, |m| {
        let mut s = Simulator::new(m).expect("elaborates");
        let stimuli = TestbenchGen::new(0xAB5)
            .with_hold_probability(0.8)
            .generate_many(s.netlist(), 24, 2);
        traces(&mut s, &stimuli).expect("simulates")
    })
    .into_iter()
    .flatten()
    .collect();
    let dataset = Dataset::from_designs(corpus, 7, 24, 2).expect("builds");
    let mut model = VeriBugModel::new(ModelConfig::default());
    let report = train::train(
        &mut model,
        &dataset,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    )
    .expect("trains");
    let losses = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    (traces, losses)
}

/// Enabling metrics/span collection must never perturb pipeline results:
/// the obs layer is observation-only (per-thread shards merged by
/// commutative addition, spans off the hot path). Compares traces, exec
/// records, and training losses bit-for-bit between an obs-off run and an
/// obs-on run **inside a live trace** (span-tree capture plus per-trace
/// counter attribution active, as in `veribug serve`) at 1/2/8 threads.
#[test]
fn obs_collection_never_perturbs_results() {
    let corpus: Vec<Module> = Generator::new(RvdgConfig::default(), 0x0B5_D1FF)
        .generate_corpus(6)
        .expect("rvdg corpus generates")
        .into_iter()
        .map(|d| d.module)
        .collect();
    for threads in [1usize, 2, 8] {
        let (off, on) = par::with_threads(threads, || {
            let was_enabled = obs::enabled();
            obs::set_enabled(false);
            let off = pipeline_fingerprint(&corpus);
            obs::set_enabled(true);
            let scope =
                obs::live::begin(&format!("differential-{threads}"), "TEST", "/differential");
            let on = {
                let _span = obs::span("serve.request");
                pipeline_fingerprint(&corpus)
            };
            scope.finish(200);
            obs::set_enabled(was_enabled);
            (off, on)
        });
        assert_eq!(
            off.0, on.0,
            "traces/exec records perturbed by live telemetry at {threads} threads"
        );
        assert_eq!(
            off.1, on.1,
            "training losses perturbed by live telemetry at {threads} threads"
        );
    }
}

/// Runs `n` stimuli through the compiled engine as batches and through the
/// interpreter one at a time, returning the paired trace vectors.
fn run_batch_vs_interpreter(module: &Module, seed: u64, n: usize) -> (Vec<Trace>, Vec<Trace>) {
    let mut compiled = Simulator::new(module).expect("elaborates");
    let stimuli = TestbenchGen::new(seed).generate_many(compiled.netlist(), CYCLES, n);
    let batched = traces(&mut compiled, &stimuli).expect("batch run");
    (batched, interpreted_traces(&compiled, &stimuli))
}

/// Every Table I design, batch vs interpreter, at lane counts that cover a
/// single lane, an odd partial batch, both boundary fills (63/64), a spill
/// into a second batch (65), and two full batches plus a partial tail (130).
#[test]
fn batch_engine_matches_interpreter_across_lane_counts() {
    for d in &designs::catalog() {
        let module = d.module().expect("design parses");
        for n in [1usize, 7, 63, 64, 65, 130] {
            let (batched, oracle) = run_batch_vs_interpreter(&module, 0xBA7C_0001 ^ n as u64, n);
            assert_matches_interpreter(&format!("{} n={n}", d.name), &batched, &oracle);
        }
    }
}

/// RVDG corpus, batch vs interpreter, under the worker pool at 1/2/8
/// threads. Each design gets a partial batch (7 lanes) so mask bookkeeping
/// runs with inactive high lanes while other designs simulate concurrently.
#[test]
fn batch_matches_interpreter_on_rvdg_corpus_across_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0xBA7C_0002)
        .generate_corpus(24)
        .expect("rvdg corpus generates");
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            let results = par::par_map(&corpus, |d| {
                (
                    d.seed,
                    run_batch_vs_interpreter(&d.module, d.seed ^ 0x7EA7, 7),
                )
            });
            for (seed, (batched, oracle)) in &results {
                assert_matches_interpreter(&format!("rvdg seed {seed}"), batched, oracle);
            }
        });
    }
}

/// Cancellation mid-batch: a poll-budget token fires at a deterministic
/// cycle, the whole batch reports `Cancelled` (the collect-everything-or-
/// error contract), and the simulator recovers after the token is replaced.
#[test]
fn batch_cancellation_mid_batch_is_deterministic_and_recoverable() {
    let catalog = designs::catalog();
    let module = catalog[0].module().expect("design parses");
    let mut sim = Simulator::new(&module).expect("elaborates");
    let stimuli = TestbenchGen::new(0xCA4C).generate_many(sim.netlist(), CYCLES, 10);
    sim.set_cancel(CancelToken::after_polls(3));
    let err = traces(&mut sim, &stimuli).expect_err("budget must fire mid-batch");
    assert!(
        matches!(err, SimError::Cancelled { at_cycle: 3 }),
        "expected deterministic cancellation at cycle 3, got {err:?}"
    );
    sim.set_cancel(CancelToken::new());
    let batched = traces(&mut sim, &stimuli).expect("rerun after cancel");
    let oracle = interpreted_traces(&sim, &stimuli);
    assert_matches_interpreter("post-cancel rerun", &batched, &oracle);
}

/// Read-modify-write part/bit selects on a width-64 register under divergent
/// masks: some lanes take the branch that flips bit 63 and rewrites a part
/// select, others take the dynamic-bit-select path. The merged register
/// state and the per-lane `StmtExec` records must match the interpreter
/// exactly.
#[test]
fn part_select_rmw_at_bit_63_under_divergent_masks() {
    let unit = verilog::parse(
        "module psel(input clk, input c, input [5:0] i, output reg [63:0] r);
         always @(posedge clk) begin
         if (c) begin
         r[63] <= ~r[63];
         r[62:56] <= r[6:0] + 1'b1;
         end else begin
         r[i] <= ~r[i];
         end
         end
endmodule",
    )
    .expect("parses");
    let (batched, oracle) = run_batch_vs_interpreter(unit.top(), 0x9E1, 64);
    assert_matches_interpreter("psel", &batched, &oracle);
}

/// Mixed-width concatenation feeding full-width and narrow registers, with
/// per-lane shift-in bits, batch vs interpreter across a full 64-lane batch.
#[test]
fn mixed_width_concat_across_lanes_matches_interpreter() {
    let unit = verilog::parse(
        "module mwc(input clk, input a, input [6:0] b, input [3:0] s,
         output reg [63:0] y, output reg [11:0] z);
         always @(posedge clk) begin
         y <= {y[62:0], a ^ b[0]};
         z <= {b[3:0], s, b[6:3]};
         end
endmodule",
    )
    .expect("parses");
    let (batched, oracle) = run_batch_vs_interpreter(unit.top(), 0x3C0C, 64);
    assert_matches_interpreter("mwc", &batched, &oracle);
}

/// Every design output, as a verdict-mode observed set.
fn output_set(sim: &Simulator) -> SignalSet {
    SignalSet::from_ids(
        sim.netlist()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role == SignalRole::Output)
            .map(|(i, _)| SignalId(i as u32)),
    )
}

/// The verdict a full trace implies for `observed`: its observed columns,
/// cycle-major.
fn expected_verdict(trace: &Trace, observed: &SignalSet) -> VerdictTrace {
    VerdictTrace {
        values: trace
            .cycles
            .iter()
            .flat_map(|c| observed.ids().iter().map(|&id| c.value(id)))
            .collect(),
        nobs: observed.len(),
    }
}

/// Runs `module` in verdict mode — as one batch and one stimulus per call —
/// and asserts each verdict equals the observed columns of the oracle's
/// full traces: same values, and therefore the same
/// diverged/first-divergence answers any screen would compute.
fn assert_verdicts_match_full(name: &str, module: &Module, seed: u64, n: usize) {
    let mut compiled = Simulator::new(module).expect("elaborates");
    let observed = output_set(&compiled);
    assert!(!observed.is_empty(), "{name}: design has no outputs");
    let stimuli = TestbenchGen::new(seed).generate_many(compiled.netlist(), CYCLES, n);
    let full = interpreted_traces(&compiled, &stimuli);
    for (i, (st, t)) in stimuli.iter().zip(&full).enumerate() {
        let expect = [expected_verdict(t, &observed)];
        let one = std::slice::from_ref(st);
        let single = verdicts(&mut compiled, one, &observed).expect("single-stimulus verdict");
        assert_eq!(single, expect, "{name}: stimulus {i} single verdict");
    }
    let batched = verdicts(&mut compiled, &stimuli, &observed).expect("batch verdict");
    assert_eq!(batched.len(), full.len(), "{name}: verdict count");
    for (i, (v, t)) in batched.iter().zip(&full).enumerate() {
        assert_eq!(
            v,
            &expected_verdict(t, &observed),
            "{name}: stimulus {i} batch verdict"
        );
    }
}

/// Verdict mode vs the full-trace oracle on every Table I design and an
/// RVDG corpus, under the worker pool at 1/2/8 threads.
#[test]
fn verdict_mode_matches_full_oracle_on_catalog_and_rvdg_across_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0x7E4D_1C70)
        .generate_corpus(16)
        .expect("rvdg corpus generates");
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            par::par_map(&designs::catalog(), |d| {
                let module = d.module().expect("design parses");
                assert_verdicts_match_full(d.name, &module, 0x7E4D_0001, 9);
            });
            par::par_map(&corpus, |d| {
                assert_verdicts_match_full(
                    &format!("rvdg seed {}", d.seed),
                    &d.module,
                    d.seed ^ 0x7E4D,
                    7,
                );
            });
        });
    }
}

/// The two-pass campaign (verdict screening, then records-only traces for
/// kept mutants only) must match the single-pass full-trace oracle at
/// every thread count: same mutants in the same order, same sources and
/// sites, same observability flags, same labels and failure cycles, and
/// per cycle the oracle's records, with no signal snapshots.
#[test]
fn two_pass_campaign_is_bit_identical_to_single_pass_across_threads() {
    let module = designs::catalog()[0].module().expect("design parses");
    let target = designs::catalog()[0].targets[0];
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let campaign = Campaign::new(0x2BA55);
    let oracle = mutate::oracle::run_single_pass(&campaign, &module, target, &budget)
        .expect("single-pass oracle");
    assert!(!oracle.is_empty(), "oracle campaign produced no mutants");
    for threads in [1usize, 2, 8] {
        let two_pass = par::with_threads(threads, || {
            campaign
                .run(&module, target, &budget)
                .expect("two-pass campaign")
        });
        assert_eq!(two_pass.len(), oracle.len(), "{threads} threads");
        for (a, b) in two_pass.iter().zip(&oracle) {
            assert_eq!(a.source, b.source, "{threads} threads");
            assert_eq!(a.site, b.site, "{threads} threads");
            assert_eq!(a.observable, b.observable, "{threads} threads");
            assert_eq!(a.runs.len(), b.runs.len(), "{threads} threads");
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.label, rb.label, "{threads} threads");
                assert_eq!(ra.failure_cycles, rb.failure_cycles, "{threads} threads");
                assert_eq!(ra.trace.len(), rb.trace.len(), "{threads} threads");
                for (ca, cb) in ra.trace.cycles.iter().zip(&rb.trace.cycles) {
                    assert_eq!(ca.cycle, cb.cycle, "{threads} threads");
                    assert_eq!(ca.execs, cb.execs, "{threads} threads");
                    assert!(ca.signals.is_empty(), "{threads} threads: snapshot kept");
                }
            }
        }
    }
}

/// The localizer (golden verdict pass, one buggy records-and-observe pass)
/// must produce the same report at every thread count, and its
/// verdict-derived labels must match what a full-trace cosimulation
/// computes on the same stimuli.
#[test]
fn two_pass_localize_report_is_thread_invariant_and_matches_full_cosim() {
    let golden = verilog::parse(
        "module m(input a, input b, input c, output y);\n\
         wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule",
    )
    .expect("parses")
    .top()
    .clone();
    let buggy = verilog::parse(
        "module m(input a, input b, input c, output y);\n\
         wire t;\nassign t = a | b;\nassign y = t | c;\nendmodule",
    )
    .expect("parses")
    .top()
    .clone();
    let model = VeriBugModel::new(ModelConfig::default());
    let opts = veribug::LocalizeOptions {
        runs: 24,
        cycles: 8,
        ..Default::default()
    };
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            par::with_threads(threads, || {
                veribug::localize::run(&model, &golden, &buggy, "y", &opts).expect("localizes")
            })
        })
        .collect();
    let base = &reports[0];
    assert!(base.has_failures(), "a|b vs a&b must diverge");
    for r in &reports[1..] {
        assert_eq!(r.failing_runs, base.failing_runs);
        assert_eq!(r.suspects, base.suspects);
    }
    // The verdict-derived failure labelling must agree with a full-trace
    // cosimulation of the same seeded stimuli.
    let mut golden_sim = Simulator::new(&golden).expect("elaborates");
    let stimuli = TestbenchGen::new(opts.stim_seed)
        .with_hold_probability(opts.hold_probability)
        .generate_many(golden_sim.netlist(), opts.cycles, opts.runs);
    let golden_runs = mutate::run_lane_groups(&mut golden_sim, &stimuli).expect("golden traces");
    let mut buggy_sim = Simulator::new(&buggy).expect("elaborates");
    let labelled = mutate::oracle::cosimulate(&golden_runs, &mut buggy_sim, "y", &stimuli)
        .expect("cosimulates");
    let failing = labelled
        .iter()
        .filter(|r| r.label == sim::TraceLabel::Failing)
        .count();
    assert_eq!(base.failing_runs, failing);
    assert_eq!(base.total_runs, labelled.len());
}

/// A static combinational loop runs on the batch engine and reports the
/// oracle's `CombinationalLoop` error.
#[test]
fn comb_loop_runs_on_batch_and_still_errors() {
    let unit = verilog::parse(
        "module loopy(input a, output y);\nwire t;\n\
         assign t = ~y;\nassign y = t & a;\nendmodule",
    )
    .expect("parses");
    let mut sim = Simulator::new(unit.top()).expect("elaborates");
    assert_eq!(sim.batch_engine_kind(), EngineKind::Batch);
    let stim = Stimulus::from_named(vec![vec![("a", 1)]]);
    let err = sim.run(&stim).expect_err("oscillating loop must error");
    assert!(matches!(err, SimError::CombinationalLoop { .. }));
    assert_eq!(interpret(sim.netlist(), &stim), Err(err));
}

/// Cycles per stimulus in the records-only checks: localize's default.
const RECORDS_CYCLES: usize = 16;

/// Asserts a records-only run is the full run filtered to `stmts`, cycle
/// by cycle: same cycle indices, no snapshot, and exactly the full
/// trace's records of statements in the set, in full-trace order.
fn assert_records_are_filtered_full(
    name: &str,
    records: &[Trace],
    full: &[Trace],
    stmts: &BTreeSet<StmtId>,
) {
    assert_eq!(records.len(), full.len(), "{name}: trace count");
    for (i, (r, f)) in records.iter().zip(full).enumerate() {
        assert_eq!(r.len(), f.len(), "{name}: stimulus {i} cycle count");
        for (rc, fc) in r.cycles.iter().zip(&f.cycles) {
            assert_eq!(rc.cycle, fc.cycle, "{name}: stimulus {i} cycle index");
            assert!(
                rc.signals.is_empty(),
                "{name}: stimulus {i} cycle {} carries a snapshot",
                rc.cycle
            );
            let kept: Vec<StmtExec> = fc
                .execs
                .iter()
                .filter(|e| stmts.contains(&e.stmt))
                .cloned()
                .collect();
            assert_eq!(
                rc.execs,
                kept.into(),
                "{name}: stimulus {i} cycle {} records differ from the filtered full trace",
                rc.cycle
            );
        }
    }
}

/// The error a run reports under a fresh two-poll cancel budget.
fn cancelled_after_two_polls<T: std::fmt::Debug>(
    sim: &mut Simulator,
    run: impl FnOnce(&mut Simulator) -> Result<T, SimError>,
) -> SimError {
    sim.set_cancel(CancelToken::after_polls(2));
    let err = run(sim).expect_err("a two-poll budget must cancel");
    sim.set_cancel(CancelToken::inert());
    err
}

/// Records-only checks for one design: at 1, 64 and 160 (64 + 64 + 32)
/// stimuli and for the empty set, every statement, and the localize slice
/// set (what the explainer attributes for `target`), the records-only pass
/// and the combined records-and-observe pass — fanned out over lane groups
/// like localize's buggy pass — equal the oracle's full traces filtered to
/// the set, and the combined pass's observed column equals the full
/// traces' `target` column. A fired cancel token and bad stimulus ports
/// give the same errors as full mode in both. Returns the slice set's
/// size.
fn check_records_only(name: &str, module: &Module, target: &str, seed: u64) -> usize {
    let mut sim = Simulator::new(module).expect("elaborates");
    let slice = veribug::ExplainerState::new(sim.netlist(), target).attributed();
    let slice_len = slice.len();
    let all: BTreeSet<StmtId> = module.assignments().iter().map(|a| a.id).collect();
    let sets = [("empty", BTreeSet::new()), ("all", all), ("slice", slice)];
    let target_id = sim.netlist().signal_id(target).expect("target signal");
    let observed = SignalSet::from_ids([target_id]);
    let stimuli = TestbenchGen::new(seed).generate_many(sim.netlist(), RECORDS_CYCLES, 160);
    let oracle = interpreted_traces(&sim, &stimuli);
    for n in [1usize, 64, 160] {
        let stimuli = &stimuli[..n];
        let full = &oracle[..n];
        let target_columns: Vec<VerdictTrace> = full
            .iter()
            .map(|t| expected_verdict(t, &observed))
            .collect();
        for (set_name, set) in &sets {
            let label = format!("{name} n={n} {set_name}");
            let records: Vec<Trace> =
                mutate::run_lane_groups_mode(&sim, stimuli, TraceMode::records(set))
                    .expect("records run")
                    .into_iter()
                    .map(|(trace, _)| trace)
                    .collect();
            assert_records_are_filtered_full(&label, &records, full, set);
            let mode = TraceMode::records_observing(set, &observed);
            let (records, columns): (Vec<Trace>, Vec<VerdictTrace>) =
                mutate::run_lane_groups_mode(&sim, stimuli, mode)
                    .expect("combined run")
                    .into_iter()
                    .unzip();
            let label = format!("{label} combined");
            assert_records_are_filtered_full(&label, &records, full, set);
            assert_eq!(
                columns, target_columns,
                "{label}: observed column differs from the full trace's target column"
            );
        }
    }
    let set = &sets[2].1;
    let combined = TraceMode::records_observing(set, &observed);
    let stimuli = &stimuli[..70];
    let full_cancel = cancelled_after_two_polls(&mut sim, |s| traces(s, stimuli));
    assert_eq!(
        cancelled_after_two_polls(&mut sim, |s| s
            .run_batch_mode(stimuli, TraceMode::records(set))),
        full_cancel,
        "{name}: cancellation differs from full mode"
    );
    let combined_cancel =
        cancelled_after_two_polls(&mut sim, |s| s.run_batch_mode(stimuli, combined));
    assert_eq!(
        combined_cancel, full_cancel,
        "{name}: combined-mode cancellation differs from full mode"
    );
    let output = sim
        .netlist()
        .signals()
        .iter()
        .find(|s| s.role == SignalRole::Output)
        .map(|s| s.name.clone())
        .expect("design has an output");
    for port in ["ghost", output.as_str()] {
        let bad = [
            stimuli[0].clone(),
            Stimulus::from_named(vec![vec![(port, 1)]; RECORDS_CYCLES]),
        ];
        let full_err = traces(&mut sim, &bad).unwrap_err();
        assert_eq!(
            sim.run_batch_mode(&bad, TraceMode::records(set))
                .unwrap_err(),
            full_err,
            "{name}: bad port `{port}` errors differ from full mode"
        );
        assert_eq!(
            sim.run_batch_mode(&bad, combined).unwrap_err(),
            full_err,
            "{name}: bad port `{port}` combined-mode errors differ from full mode"
        );
    }
    slice_len
}

/// The records-only pass is the filtered full pass on every Table I design
/// (first target) and 8 RVDG designs (first output).
#[test]
fn records_only_pass_is_the_filtered_full_pass() {
    for d in &designs::catalog() {
        let module = d.module().expect("design parses");
        let slice = check_records_only(d.name, &module, d.targets[0], 0x2EC0_0001);
        assert!(slice > 0, "{}: empty localize slice", d.name);
    }
    let corpus = Generator::new(RvdgConfig::default(), 0x2EC0_0002)
        .generate_corpus(8)
        .expect("rvdg corpus generates");
    assert_eq!(corpus.len(), 8);
    for d in &corpus {
        let sim = Simulator::new(&d.module).expect("elaborates");
        let target = sim
            .netlist()
            .signals()
            .iter()
            .find(|s| s.role == SignalRole::Output)
            .map(|s| s.name.clone())
            .expect("rvdg design has an output");
        check_records_only(&format!("rvdg seed {}", d.seed), &d.module, &target, d.seed);
    }
}

/// Every distinct mutant of `module` (all mutation sites, misuse included)
/// whose combinational logic has a static cycle, so it runs on a settle
/// plan.
fn cyclic_mutants(module: &Module) -> Vec<Module> {
    let mut seen = BTreeSet::new();
    mutate::enumerate_sites(module, None)
        .iter()
        .filter_map(|site| mutate::apply(module, site))
        .filter(|m| !cdfg::levelize(m).is_acyclic())
        .filter(|m| seen.insert(verilog::print_module(m)))
        .collect()
}

/// Settle-plan checks for one design against the oracle, at 1, 64 and 160
/// (64 + 64 + 32) stimuli of 16 cycles, fanned out over lane groups: full
/// traces are equal (or both runs fail with the same
/// `CombinationalLoop`), and a records-and-observe pass over every other
/// statement and every output equals the oracle's filtered trace and its
/// output columns. Returns whether the oracle reported a loop error.
fn check_against_oracle(name: &str, module: &Module, seed: u64) -> bool {
    let mut sim = Simulator::new(module).expect("elaborates");
    let stimuli = TestbenchGen::new(seed).generate_many(sim.netlist(), RECORDS_CYCLES, 160);
    let oracle: Vec<Result<Trace, SimError>> = stimuli
        .iter()
        .map(|st| interpret(sim.netlist(), st))
        .collect();
    let every_other: BTreeSet<StmtId> = module
        .assignments()
        .iter()
        .step_by(2)
        .map(|a| a.id)
        .collect();
    let outputs = output_set(&sim);
    for n in [1usize, 64, 160] {
        let stimuli = &stimuli[..n];
        let label = format!("{name} n={n}");
        // Only errors are printed: a trace's debug view repeats its shared
        // record arena once per cycle.
        let expected: Result<Vec<Trace>, SimError> = oracle[..n].iter().cloned().collect();
        match (mutate::run_lane_groups(&mut sim, stimuli), &expected) {
            (Ok(got), Ok(want)) => assert!(got == *want, "{label}: full traces differ"),
            (got, want) => assert_eq!(got.err(), want.clone().err(), "{label}: errors"),
        }
        let mode = TraceMode::records_observing(&every_other, &outputs);
        let (records, columns): (Vec<Trace>, Vec<VerdictTrace>) =
            match (mutate::run_lane_groups_mode(&sim, stimuli, mode), &expected) {
                (Ok(runs), Ok(_)) => runs.into_iter().unzip(),
                (got, want) => {
                    let got = got.err();
                    assert_eq!(got, want.clone().err(), "{label}: combined-mode errors");
                    continue;
                }
            };
        let expected = expected.expect("oracle succeeded");
        let label = format!("{label} combined");
        assert_records_are_filtered_full(&label, &records, &expected, &every_other);
        let expected_columns: Vec<VerdictTrace> = expected
            .iter()
            .map(|t| expected_verdict(t, &outputs))
            .collect();
        assert_eq!(columns, expected_columns, "{label}: output columns");
    }
    oracle.iter().any(Result::is_err)
}

/// Every mutant with a static combinational cycle — variable misuse is the
/// only bug class that closes one — from the Table I designs and the first
/// 8 RVDG designs of seed 99539660 runs on the batch engine's settle plan
/// and matches the oracle, loop errors included.
#[test]
fn cyclic_mutants_match_the_oracle() {
    let mut corpus: Vec<(String, Module)> = Vec::new();
    let mut catalog_count = 0;
    for d in &designs::catalog() {
        let mutants = cyclic_mutants(&d.module().expect("design parses"));
        catalog_count += mutants.len();
        corpus.extend(
            (0..)
                .zip(mutants)
                .map(|(i, m)| (format!("{} cyclic mutant {i}", d.name), m)),
        );
    }
    let rvdg = Generator::new(RvdgConfig::default(), 99_539_660)
        .generate_corpus(8)
        .expect("rvdg corpus generates");
    let mut rvdg_count = 0;
    for d in &rvdg {
        let mutants = cyclic_mutants(&d.module);
        rvdg_count += mutants.len();
        corpus.extend(
            (0..)
                .zip(mutants)
                .map(|(i, m)| (format!("rvdg seed {} cyclic mutant {i}", d.seed), m)),
        );
    }
    assert_eq!((catalog_count, rvdg_count), (16, 53));
    let looped = par::par_map(&corpus, |(name, module)| {
        check_against_oracle(name, module, 0xC7C1_0001)
    });
    // Both outcomes occur: most mutants settle, some oscillate.
    let looped = looped.iter().filter(|&&l| l).count();
    assert!(
        (1..corpus.len()).contains(&looped),
        "{looped} of {} cyclic mutants hit the loop error",
        corpus.len()
    );
}

/// The other designs without a levelized schedule that the front-end
/// accepts — two drivers of one signal, combinational logic writing an
/// input, and a signal written both combinationally and sequentially —
/// run on a settle plan and match the oracle.
#[test]
fn settle_plan_designs_match_the_oracle() {
    let sources = [
        "module multi(input [3:0] a, input [3:0] b, input s, output [3:0] y, output [3:0] z);\n\
         assign y = a & b;\nassign z = y + 4'd1;\nassign y = s ? a : b;\nendmodule",
        "module drive_in(input [3:0] a, input [3:0] b, output [3:0] y);\n\
         assign y = a ^ b;\nassign a = b + 4'd3;\nendmodule",
        "module overlap(input clk, input e, input [3:0] a, output reg [3:0] y, output [3:0] z);\n\
         always @(*) begin\nif (e) y = a;\nend\n\
         always @(posedge clk) y <= y + 4'd1;\nassign z = ~y;\nendmodule",
    ];
    for src in sources {
        let unit = verilog::parse(src).expect("front-end accepts the design");
        let module = unit.top();
        assert!(
            cdfg::levelize(module).is_acyclic(),
            "{}: no static cycle, so only the write checks force settling",
            module.name
        );
        assert!(!check_against_oracle(&module.name, module, 0x5E77_1E00));
    }
}
