//! Localization-quality benchmark: precision@k over injected mutations,
//! written to `BENCH_accuracy.json`.
//!
//! The harness runs the full pipeline — mutate → campaign → train →
//! localize — over the four-design Table I catalog (first target each)
//! plus a seeded RVDG corpus, using each mutant's injected site as ground
//! truth. For every observable mutant it computes the rank of the mutated
//! statement in the grouped heatmap and aggregates precision@1/@3/@5 and
//! MRR overall, per design, and per mutation class, alongside two quality
//! distributions: attention entropy over heatmap-entry weights and the
//! predictor's absolute logit margin over the holdout set.
//!
//! The whole evaluation runs at 1/2/8 worker threads and the JSON records
//! whether every number was bit-identical across thread counts — the same
//! determinism invariant the rest of the repo holds. Seeds are fixed and
//! recorded in a `seed_manifest` block so any row can be reproduced.
//!
//! Run with: `cargo run --release -p veribug-bench --bin accuracy_bench`
//!
//! Flags:
//! - `--quick`: reduced training/campaign scale;
//! - `--smoke`: implies `--quick`; prints the JSON without touching the
//!   checked-in `BENCH_accuracy.json` (pass `--out PATH` to keep a copy)
//!   and exits non-zero when precision@5 falls below the CI floor or any
//!   number differs across thread counts;
//! - `--out PATH`: write the JSON to `PATH` instead of the default.
//!
//! Every run trains, runs the campaigns and evaluates at every checked
//! thread count: nothing is read back from an earlier run, so the file
//! always measures the code that wrote it.

use std::fmt::Write as _;

use mutate::{BugBudget, Campaign, Mutant, MutationKind};
use rvdg::{Generator, RvdgConfig};
use veribug::coverage::{labelled_traces, DEFAULT_RUN_GROUPS};
use veribug::explain::{attention_entropy, DEFAULT_FAILURE_WINDOW};
use veribug::localize::rank;
use veribug::model::VeriBugModel;
use veribug::train::Dataset;
use veribug::{ExplainerState, DEFAULT_THRESHOLD};
use veribug_bench::{stats, ExperimentScale};
use verilog::{Module, PortDir};

/// Worker counts every number is cross-checked at.
const THREADS_CHECKED: [usize; 3] = [1, 2, 8];

/// Training seed (same as the Table II/III harnesses).
const TRAIN_SEED: u64 = 1234;
/// Base seed for the per-case mutation campaigns (case index is added).
const CAMPAIGN_SEED: u64 = 0xACC_2026;
/// Seed for the ground-truth RVDG corpus.
const RVDG_SEED: u64 = 0x05EE_DACC;

/// CI floor on overall precision@5 in `--smoke` mode. The quick-scale run
/// sits well above this (see EXPERIMENTS.md); the floor catches wholesale
/// regressions, not noise.
const SMOKE_P5_FLOOR: f64 = 0.50;

/// One design/target pair the harness localizes bugs in.
struct Case {
    name: String,
    target: String,
    module: Module,
    corpus: &'static str,
}

/// Ground-truth outcome for one injected mutation.
struct MutantEval {
    case_idx: usize,
    kind: MutationKind,
    observable: bool,
    /// 1-based rank of the injected statement in the heatmap, if present.
    rank: Option<usize>,
    /// Attention entropy of each heatmap entry's `F_t` weights.
    entropies: Vec<f64>,
}

/// Everything the evaluation computes (per thread count).
struct EvalOut {
    mutants: Vec<MutantEval>,
    /// Absolute logit margins over the holdout set, in dataset order.
    margins: Vec<f64>,
}

/// Rank + entropy aggregates for one slice of the mutant population.
#[derive(Default, Clone, Copy)]
struct Agg {
    injected: usize,
    observable: usize,
    hit1: usize,
    hit3: usize,
    hit5: usize,
    rr_sum: f64,
}

impl Agg {
    fn add(&mut self, m: &MutantEval) {
        self.injected += 1;
        if !m.observable {
            return;
        }
        self.observable += 1;
        if let Some(r) = m.rank {
            self.hit1 += usize::from(r <= 1);
            self.hit3 += usize::from(r <= 3);
            self.hit5 += usize::from(r <= 5);
            self.rr_sum += 1.0 / r as f64;
        }
    }

    fn p_at(&self, hits: usize) -> f64 {
        if self.observable == 0 {
            0.0
        } else {
            hits as f64 / self.observable as f64
        }
    }

    fn mrr(&self) -> f64 {
        if self.observable == 0 {
            0.0
        } else {
            self.rr_sum / self.observable as f64
        }
    }
}

/// A deterministic summary of a sample (percentiles by nearest rank,
/// [`stats::nearest_rank`] — no interpolation, so the numbers are exact
/// f64s from the sample and bit-stable).
struct Dist {
    count: usize,
    mean: f64,
    min: f64,
    max: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

fn dist(values: &[f64]) -> Dist {
    if values.is_empty() {
        return Dist {
            count: 0,
            mean: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let pick = |p| stats::nearest_rank(&sorted, p).expect("non-empty sample");
    Dist {
        count: n,
        mean: sorted.iter().sum::<f64>() / n as f64,
        min: sorted[0],
        max: sorted[n - 1],
        p50: pick(50.0),
        p90: pick(90.0),
        p99: pick(99.0),
    }
}

/// Localizes every mutant of every case and scores the holdout margins.
/// Pure function of its inputs — run under `par::with_threads` to check
/// thread invariance.
fn evaluate(
    model: &VeriBugModel,
    cases: &[Case],
    campaigns: &[Vec<Mutant>],
    holdout: &Dataset,
) -> EvalOut {
    let flat: Vec<(usize, &Mutant)> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(ci, ms)| ms.iter().map(move |m| (ci, m)))
        .collect();
    let mutants = par::par_map(&flat, |&(ci, m)| {
        if !m.observable {
            return MutantEval {
                case_idx: ci,
                kind: m.site.kind,
                observable: false,
                rank: None,
                entropies: Vec::new(),
            };
        }
        let mut state = ExplainerState::new(&m.netlist, &cases[ci].target);
        let (window, groups) = (DEFAULT_FAILURE_WINDOW, DEFAULT_RUN_GROUPS);
        let runs = labelled_traces(m);
        let heatmap = rank(model, &mut state, window, &runs, DEFAULT_THRESHOLD, groups).heatmap;
        let rank = heatmap
            .ranked()
            .iter()
            .position(|(id, _)| *id == m.site.stmt)
            .map(|r| r + 1);
        let entropies = heatmap
            .entries
            .values()
            .map(|e| attention_entropy(&e.weights))
            .collect();
        MutantEval {
            case_idx: ci,
            kind: m.site.kind,
            observable: true,
            rank,
            entropies,
        }
    });
    let contexts = par::par_map(&holdout.stmts, |f| model.operand_contexts(f));
    let margin_chunks = par::par_chunk_map(&holdout.entries, 64, |_, chunk| {
        chunk
            .iter()
            .map(|entry| {
                let out = model.infer(&contexts[entry.stmt_idx], &entry.sample.values);
                let row = out.logits.data();
                f64::from((row[1] - row[0]).abs())
            })
            .collect::<Vec<f64>>()
    });
    EvalOut {
        mutants,
        margins: margin_chunks.into_iter().flatten().collect(),
    }
}

/// Bit-exact fingerprint of every number the evaluation produced.
fn fingerprint(ev: &EvalOut) -> Vec<u64> {
    let mut fp = Vec::new();
    for m in &ev.mutants {
        fp.push(m.case_idx as u64);
        fp.push(m.rank.map_or(0, |r| r as u64));
        for e in &m.entropies {
            fp.push(e.to_bits());
        }
    }
    for m in &ev.margins {
        fp.push(m.to_bits());
    }
    fp
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    veribug_bench::init_obs();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = smoke || args.iter().any(|a| a == "--quick");
    let out: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };

    obs::progress!("training the VeriBug model on RVDG synthetic designs...");
    let (model, _train_set, holdout) = veribug_bench::train_model(&scale, 0.10, TRAIN_SEED)?;
    let weights_hash = veribug::persist::content_hash_hex(&model);

    // Ground-truth cases: the Table I catalog (first target each, matching
    // the paper's per-design rows) plus a seeded RVDG corpus whose target
    // is the design's first output port.
    let mut cases: Vec<Case> = Vec::new();
    for d in designs::catalog() {
        cases.push(Case {
            name: d.name.to_owned(),
            target: d.targets[0].to_owned(),
            module: d.module()?,
            corpus: "catalog",
        });
    }
    let rvdg_designs = if quick { 2 } else { 4 };
    for (i, d) in Generator::new(RvdgConfig::default(), RVDG_SEED)
        .generate_corpus(rvdg_designs)?
        .into_iter()
        .enumerate()
    {
        let target = d
            .module
            .ports
            .iter()
            .find(|p| p.dir == PortDir::Output)
            .expect("rvdg designs have outputs")
            .name
            .clone();
        cases.push(Case {
            name: format!("rvdg_{i}"),
            target,
            module: d.module,
            corpus: "rvdg",
        });
    }

    let budget = if quick {
        BugBudget {
            negation: 1,
            operation: 1,
            misuse: 2,
        }
    } else {
        BugBudget {
            negation: 3,
            operation: 4,
            misuse: 5,
        }
    };

    // Campaigns run once (they are deterministic; bench_pipeline --smoke
    // cross-checks the campaign stage across thread counts), then the
    // localization/margin evaluation reruns at every checked thread count.
    let mut campaigns: Vec<Vec<Mutant>> = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        obs::progress!("campaign: {} / {} ...", case.name, case.target);
        let mutants = Campaign::new(CAMPAIGN_SEED + ci as u64)
            .with_runs_per_mutant(scale.runs_per_mutant)
            .run(&case.module, &case.target, &budget)?;
        campaigns.push(mutants);
    }

    let mut evals: Vec<EvalOut> = Vec::new();
    for &threads in &THREADS_CHECKED {
        par::with_threads(threads, || {
            evals.push(evaluate(&model, &cases, &campaigns, &holdout));
        });
        obs::progress!("evaluated at {threads} thread(s)");
    }
    let fp0 = fingerprint(&evals[0]);
    let deterministic = evals.iter().all(|e| fingerprint(e) == fp0);
    let ev = &evals[0];

    let mut overall = Agg::default();
    let mut by_case: Vec<Agg> = vec![Agg::default(); cases.len()];
    let mut by_kind: Vec<Agg> = vec![Agg::default(); MutationKind::ALL.len()];
    for m in &ev.mutants {
        overall.add(m);
        by_case[m.case_idx].add(m);
        let k = MutationKind::ALL
            .iter()
            .position(|k| *k == m.kind)
            .expect("kind in ALL");
        by_kind[k].add(m);
    }
    let entropies: Vec<f64> = ev
        .mutants
        .iter()
        .flat_map(|m| m.entropies.iter().copied())
        .collect();

    let json = render_json(&RenderInput {
        scale: &scale,
        budget: &budget,
        weights_hash: &weights_hash,
        deterministic,
        overall,
        cases: &cases,
        by_case: &by_case,
        by_kind: &by_kind,
        entropy: dist(&entropies),
        margin: dist(&ev.margins),
    });
    // Smoke never touches the checked-in BENCH_accuracy.json: its numbers
    // come from the reduced scale and would silently replace the full run.
    match (&out, smoke) {
        (Some(path), _) => std::fs::write(path, &json)?,
        (None, false) => std::fs::write("BENCH_accuracy.json", &json)?,
        (None, true) => {}
    }
    println!("{json}");

    if smoke {
        if !deterministic {
            eprintln!("smoke FAILED: evaluation differs across thread counts {THREADS_CHECKED:?}");
            std::process::exit(1);
        }
        if overall.observable == 0 {
            eprintln!("smoke FAILED: no injected bug was observable at any target");
            std::process::exit(1);
        }
        let p5 = overall.p_at(overall.hit5);
        if p5 < SMOKE_P5_FLOOR {
            eprintln!(
                "smoke FAILED: precision@5 {:.3} below the {:.2} floor ({} of {} observable)",
                p5, SMOKE_P5_FLOOR, overall.hit5, overall.observable
            );
            std::process::exit(1);
        }
        obs::progress!(
            "smoke OK: precision@5 {:.3} (floor {:.2}), deterministic at {THREADS_CHECKED:?} threads",
            p5,
            SMOKE_P5_FLOOR
        );
    }
    obs::report();
    Ok(())
}

/// Everything `render_json` needs, bundled to keep the signature readable.
struct RenderInput<'a> {
    scale: &'a ExperimentScale,
    budget: &'a BugBudget,
    weights_hash: &'a str,
    deterministic: bool,
    overall: Agg,
    cases: &'a [Case],
    by_case: &'a [Agg],
    by_kind: &'a [Agg],
    entropy: Dist,
    margin: Dist,
}

fn write_agg(out: &mut String, indent: &str, a: &Agg) {
    let _ = write!(
        out,
        "{indent}\"injected\": {}, \"observable\": {}, \"p_at_1\": ",
        a.injected, a.observable
    );
    obs::json::write_f64(out, a.p_at(a.hit1));
    out.push_str(", \"p_at_3\": ");
    obs::json::write_f64(out, a.p_at(a.hit3));
    out.push_str(", \"p_at_5\": ");
    obs::json::write_f64(out, a.p_at(a.hit5));
    out.push_str(", \"mrr\": ");
    obs::json::write_f64(out, a.mrr());
}

fn write_dist(out: &mut String, d: &Dist) {
    let _ = write!(out, "{{ \"count\": {}, \"mean\": ", d.count);
    obs::json::write_f64(out, d.mean);
    out.push_str(", \"min\": ");
    obs::json::write_f64(out, d.min);
    out.push_str(", \"max\": ");
    obs::json::write_f64(out, d.max);
    out.push_str(", \"p50\": ");
    obs::json::write_f64(out, d.p50);
    out.push_str(", \"p90\": ");
    obs::json::write_f64(out, d.p90);
    out.push_str(", \"p99\": ");
    obs::json::write_f64(out, d.p99);
    out.push_str(" }");
}

/// Hand-rolled JSON (the vendored serde is a compile-surface stub and does
/// not serialize). Field order is fixed and floats go through
/// [`obs::json::write_f64`], so identical inputs render byte-identically.
fn render_json(input: &RenderInput<'_>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"veribug-accuracy v1\",\n");
    out.push_str("  \"seed_manifest\": {\n");
    let _ = writeln!(out, "    \"train_seed\": {TRAIN_SEED},");
    let _ = writeln!(out, "    \"campaign_seed_base\": {CAMPAIGN_SEED},");
    let _ = writeln!(out, "    \"rvdg_seed\": {RVDG_SEED},");
    let _ = writeln!(
        out,
        "    \"threads_checked\": [{}]",
        THREADS_CHECKED
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("  },\n");
    out.push_str("  \"scale\": {\n");
    let _ = writeln!(
        out,
        "    \"train_designs\": {}, \"holdout_designs\": {}, \"cycles\": {},",
        input.scale.train_designs, input.scale.holdout_designs, input.scale.cycles
    );
    let _ = writeln!(
        out,
        "    \"epochs\": {}, \"runs_per_mutant\": {},",
        input.scale.epochs, input.scale.runs_per_mutant
    );
    let _ = writeln!(
        out,
        "    \"budget_per_case\": {{ \"negation\": {}, \"operation\": {}, \"misuse\": {} }}",
        input.budget.negation, input.budget.operation, input.budget.misuse
    );
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"weights_hash\": \"{}\",", input.weights_hash);
    let _ = writeln!(
        out,
        "  \"deterministic_across_threads\": {},",
        input.deterministic
    );
    out.push_str("  \"overall\": {\n");
    write_agg(&mut out, "    ", &input.overall);
    out.push_str("\n  },\n");
    out.push_str("  \"designs\": [\n");
    for (i, (case, agg)) in input.cases.iter().zip(input.by_case).enumerate() {
        out.push_str("    { \"name\": ");
        obs::json::write_str(&mut out, &case.name);
        out.push_str(", \"target\": ");
        obs::json::write_str(&mut out, &case.target);
        let _ = writeln!(out, ", \"corpus\": \"{}\",", case.corpus);
        write_agg(&mut out, "      ", agg);
        out.push_str(" }");
        out.push_str(if i + 1 < input.cases.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"classes\": [\n");
    for (i, (kind, agg)) in MutationKind::ALL.iter().zip(input.by_kind).enumerate() {
        let _ = writeln!(out, "    {{ \"kind\": \"{kind}\",");
        write_agg(&mut out, "      ", agg);
        out.push_str(" }");
        out.push_str(if i + 1 < MutationKind::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"distributions\": {\n");
    out.push_str("    \"attention_entropy\": ");
    write_dist(&mut out, &input.entropy);
    out.push_str(",\n    \"score_margin\": ");
    write_dist(&mut out, &input.margin);
    out.push_str("\n  },\n");
    out.push_str(
        "  \"note\": \"rank = position of the injected statement in the grouped heatmap; \
         p_at_k and mrr are over observable mutants (absent rank scores 0). \
         attention_entropy is over heatmap-entry F_t weights; score_margin is |l1 - l0| \
         over the holdout set\"\n",
    );
    out.push_str("}\n");
    out
}
