//! Bit-identity pins for the explanation step (paper Sec. IV-C/D).
//!
//! Every rendering a client can see — `/v1/localize` bodies, `/v1/explain`
//! attribution reports, and `Explainer::explain`'s heatmap, `F_t` and
//! `C_t` down to each f32's bits — is folded into FNV-1a digests and
//! compared against constants. The inputs are every observable mutant of
//! a campaign over the Table I catalog plus 32 RVDG golden/buggy pairs,
//! at initial weights and at the trained weights of `tests/end_to_end.rs`,
//! together with the explainer's edge cases: zero runs, all runs failing
//! (the masked-cycle `C_t` fallback), failing runs without divergence
//! cycles, and more run groups than runs. A refactor of the explainer or
//! the model's inference path must leave every digest unchanged.

use std::sync::{Arc, OnceLock};

use mutate::{BugBudget, Campaign, LabelledRun, MutationKind};
use rvdg::{Generator, RvdgConfig};
use serve::api;
use sim::{CycleRecord, Operands, Snapshot, StmtExec, TestbenchGen, Trace, TraceLabel, Value};
use veribug::coverage::grouped_heatmap;
use veribug::explain::{AttentionMap, Heatmap, LabelledTrace, SuspicionReason};
use veribug::introspect::AttributionReport;
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use veribug::{Explainer, LocalizeOptions, StatementFeatures, DEFAULT_THRESHOLD};
use verilog::{Module, PortDir};

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn f32s(&mut self, ws: &[f32]) {
        self.u64(ws.len() as u64);
        for w in ws {
            self.u64(u64::from(w.to_bits()));
        }
    }

    fn map(&mut self, map: &AttentionMap) {
        self.u64(map.per_stmt.len() as u64);
        for (id, att) in &map.per_stmt {
            self.u64(u64::from(id.0));
            self.u64(att.operands.len() as u64);
            for name in &att.operands {
                self.str(name);
            }
            self.u64(att.count as u64);
            self.f32s(&att.weights);
        }
    }

    fn heatmap(&mut self, h: &Heatmap) {
        self.u64(u64::from(h.threshold.to_bits()));
        self.u64(h.entries.len() as u64);
        for (id, e) in &h.entries {
            self.u64(u64::from(id.0));
            for name in &e.operands {
                self.str(name);
            }
            self.f32s(&e.weights);
            self.u64(u64::from(e.suspiciousness.to_bits()));
            self.u64(match e.reason {
                SuspicionReason::OnlyInFailing => 1,
                SuspicionReason::DivergentAttention => 2,
            });
        }
    }
}

/// The trained model of `tests/end_to_end.rs`: 12 epochs over six RVDG
/// designs (seed 5).
fn trained_model() -> &'static VeriBugModel {
    static MODEL: OnceLock<VeriBugModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus: Vec<_> = Generator::new(RvdgConfig::default(), 5)
            .generate_corpus(6)
            .expect("corpus generates")
            .into_iter()
            .map(|d| d.module)
            .collect();
        let dataset = Dataset::from_designs(&corpus, 1, 32, 2).expect("dataset builds");
        let mut model = VeriBugModel::new(ModelConfig::default());
        train::train(
            &mut model,
            &dataset,
            &TrainConfig {
                epochs: 12,
                ..TrainConfig::default()
            },
        )
        .expect("training succeeds");
        model
    })
}

/// One golden/buggy pair with the buggy design's labelled co-simulation
/// runs and the options `/v1/localize` is asked with.
struct Case {
    golden: Module,
    buggy: Module,
    target: String,
    runs: Vec<LabelledRun>,
    opts: LocalizeOptions,
}

impl Case {
    fn labelled(&self) -> Vec<LabelledTrace<'_>> {
        self.runs
            .iter()
            .map(|r| LabelledTrace {
                trace: &r.trace,
                label: r.label,
                failure_cycles: r.failure_cycles.clone(),
            })
            .collect()
    }
}

/// Every observable mutant of a small campaign over each catalog design's
/// first target.
fn catalog_cases() -> Vec<Case> {
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let mut cases = Vec::new();
    for (ci, design) in designs::catalog().iter().enumerate() {
        let golden = design.module().expect("catalog design parses");
        let target = design.targets[0];
        let mutants = Campaign::new(0x5EED + ci as u64)
            .with_runs_per_mutant(24)
            .run(&golden, target, &budget)
            .expect("campaign runs");
        for m in mutants.into_iter().filter(|m| m.observable) {
            cases.push(Case {
                golden: golden.clone(),
                buggy: m.netlist.module.clone(),
                target: target.to_owned(),
                runs: m.runs,
                opts: LocalizeOptions {
                    runs: 48,
                    threshold: 0.01,
                    ..LocalizeOptions::default()
                },
            });
        }
    }
    cases
}

/// `count` RVDG designs, each with one negation or operation mutation of
/// a statement in its first output's slice.
fn rvdg_cases(count: usize) -> Vec<Case> {
    let generator = Generator::new(RvdgConfig::default(), 0xD16E57);
    let mut cases = Vec::new();
    let mut index = 0u64;
    while cases.len() < count {
        let design = generator.generate(index).expect("design generates");
        index += 1;
        let Some(target) = design
            .module
            .ports
            .iter()
            .find(|p| p.dir == PortDir::Output)
            .map(|p| p.name.clone())
        else {
            continue;
        };
        let slice = cdfg::Slice::of_target(&design.module, &target).stmts;
        let sites: Vec<_> = mutate::enumerate_sites(&design.module, Some(&slice))
            .into_iter()
            .filter(|s| s.kind != MutationKind::VariableMisuse)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let site = &sites[index as usize % sites.len()];
        let Some(buggy) = mutate::apply(&design.module, site) else {
            continue;
        };
        let mut golden_sim = sim::Simulator::new(&design.module).expect("elaborates");
        let stimuli = TestbenchGen::new(index).generate_many(golden_sim.netlist(), 12, 16);
        let golden_runs = mutate::run_lane_groups(&mut golden_sim, &stimuli).expect("simulates");
        let mut buggy_sim = sim::Simulator::new(&buggy).expect("elaborates");
        let runs = mutate::oracle::cosimulate(&golden_runs, &mut buggy_sim, &target, &stimuli)
            .expect("cosimulates");
        cases.push(Case {
            golden: design.module,
            buggy,
            target,
            runs,
            opts: LocalizeOptions {
                runs: 16,
                cycles: 8,
                threshold: 0.01,
                ..LocalizeOptions::default()
            },
        });
    }
    cases
}

/// Digests of one model over every case: `[render, introspect, maps]`.
fn digests(model: &VeriBugModel, cases: &[Case]) -> [u64; 3] {
    let mut render = Fnv::new();
    let mut introspect = Fnv::new();
    let mut maps = Fnv::new();
    for case in cases {
        let report =
            veribug::localize::run(model, &case.golden, &case.buggy, &case.target, &case.opts)
                .expect("localizes");
        render.str(&api::render_report(&report));
        let attribution = AttributionReport::from_localize(model, &case.buggy, &report);
        introspect.str(&attribution.to_json());
        introspect.str(&attribution.to_text());

        let runs = case.labelled();
        let mut ex = Explainer::new(model, &case.buggy, &case.target);
        let (h, f, c) = ex.explain(&runs, DEFAULT_THRESHOLD);
        maps.heatmap(&h);
        maps.map(&f);
        maps.map(&c);
        // Every run failing: C_t falls back to the masked cycles.
        let failing: Vec<LabelledTrace<'_>> = runs
            .iter()
            .filter(|r| r.label == TraceLabel::Failing)
            .cloned()
            .collect();
        let (h, f, c) = ex.explain(&failing, DEFAULT_THRESHOLD);
        maps.heatmap(&h);
        maps.map(&f);
        maps.map(&c);
        // Failing runs without divergence cycles aggregate whole traces.
        let unknown: Vec<LabelledTrace<'_>> = failing
            .iter()
            .map(|r| LabelledTrace::new(r.label, r.trace))
            .collect();
        let (h, f, c) = ex.explain(&unknown, DEFAULT_THRESHOLD);
        maps.heatmap(&h);
        maps.map(&f);
        maps.map(&c);
        maps.heatmap(&grouped_heatmap(&mut ex, &runs, 0.01, 8));
        maps.heatmap(&grouped_heatmap(
            &mut ex,
            &runs,
            DEFAULT_THRESHOLD,
            runs.len() + 3,
        ));
        let (h, f, c) = ex.explain(&[], DEFAULT_THRESHOLD);
        assert!(h.is_empty() && f.is_empty() && c.is_empty());
    }
    [render.0, introspect.0, maps.0]
}

/// Observable mutants the catalog campaign keeps.
const CATALOG_CASES: usize = 23;

fn all_cases() -> Vec<Case> {
    let mut cases = catalog_cases();
    assert_eq!(cases.len(), CATALOG_CASES, "observable catalog mutants");
    cases.extend(rvdg_cases(32));
    cases
}

fn hex(d: [u64; 3]) -> [String; 3] {
    d.map(|v| format!("{v:016x}"))
}

#[test]
fn explanations_match_pinned_digests_at_init_and_trained_weights() {
    let cases = all_cases();
    let init = VeriBugModel::new(ModelConfig::default());
    let at_init = hex(digests(&init, &cases));
    let trained = hex(digests(trained_model(), &cases));
    assert_eq!(
        at_init,
        ["938f65abfc93b359", "e7358ba12b433494", "047ea7167629ab92"],
        "initial weights: [render, introspect, maps]"
    );
    assert_eq!(
        trained,
        ["ec0e5c1d474e97f1", "0cf08876c6c55432", "2ca04d264a2ac400"],
        "trained weights: [render, introspect, maps]"
    );
}

/// Operands of the wide statement: more than fit in one 64-bit key word.
const WIDE: usize = 66;

/// A design whose only statement reads [`WIDE`] one-bit inputs, grouped
/// into reductions so its operand contexts stay cheap to embed.
fn wide_module() -> Module {
    let names: Vec<String> = (0..WIDE).map(|i| format!("a{i}")).collect();
    let group = |r: std::ops::Range<usize>| format!("^{{{}}}", names[r].join(", "));
    let src = format!(
        "module wide({}, output y);\nassign y = ^{{{}, {}, {}}};\nendmodule",
        names
            .iter()
            .map(|n| format!("input {n}"))
            .collect::<Vec<_>>()
            .join(", "),
        group(0..32),
        group(32..64),
        group(64..WIDE),
    );
    verilog::parse(&src).expect("parses").top().clone()
}

/// A trace of one wide-statement execution per cycle; `hot[c]` lists the
/// operand indices (in feature order) that are 1 at cycle `c`.
fn wide_trace(module: &Module, f: &StatementFeatures, hot: &[&[usize]]) -> Trace {
    let netlist = sim::Netlist::elaborate(module).expect("elaborates");
    let names = &netlist.assign_info(f.stmt).expect("recorded").names;
    let arena: Arc<[Value]> = Arc::from(Vec::new());
    Trace {
        cycles: hot
            .iter()
            .enumerate()
            .map(|(c, ones)| {
                let values: Vec<Value> = names
                    .iter()
                    .map(|n| {
                        let i = f.operand_index(n).expect("operand");
                        Value::bit(ones.contains(&i))
                    })
                    .collect();
                CycleRecord {
                    cycle: c as u32,
                    signals: Snapshot::view(arena.clone(), 0, 0),
                    execs: vec![StmtExec {
                        stmt: f.stmt,
                        operands: Operands::from_values(&values),
                        result: Value::bit(false),
                    }]
                    .into(),
                }
            })
            .collect(),
    }
}

/// Mean attention over `hot` executions, summed in execution order — the
/// explainer's aggregation, computed through `VeriBugModel::predict`.
fn mean_attention(model: &VeriBugModel, f: &StatementFeatures, hot: &[&[usize]]) -> Vec<f32> {
    let mut sums = vec![0.0f32; WIDE];
    for ones in hot {
        let values: Vec<bool> = (0..WIDE).map(|i| ones.contains(&i)).collect();
        for (s, w) in sums.iter_mut().zip(model.predict(f, &values).1) {
            *s += w;
        }
    }
    sums.iter().map(|s| s / hot.len() as f32).collect()
}

/// Value vectors that differ only beyond the 64th operand must not share
/// a memoized attention vector.
#[test]
fn statements_wider_than_one_key_word_are_memoized_by_every_operand() {
    let module = wide_module();
    let f = StatementFeatures::extract(module.assignments()[0]).expect("features");
    assert_eq!(f.operand_count(), WIDE);
    let model = VeriBugModel::new(ModelConfig::default());
    let failing: &[&[usize]] = &[&[], &[64], &[65], &[], &[64]];
    let correct: &[&[usize]] = &[&[65], &[0, 65]];
    let (tf, tc) = (
        wide_trace(&module, &f, failing),
        wide_trace(&module, &f, correct),
    );
    let runs = [
        LabelledTrace::new(TraceLabel::Failing, &tf),
        LabelledTrace::new(TraceLabel::Correct, &tc),
    ];
    let mut ex = Explainer::new(&model, &module, "y");
    let (_, f_map, c_map) = ex.explain(&runs, DEFAULT_THRESHOLD);
    let (fa, ca) = (&f_map.per_stmt[&f.stmt], &c_map.per_stmt[&f.stmt]);
    assert_eq!((fa.count, ca.count), (failing.len(), correct.len()));
    let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fa.weights),
        bits(&mean_attention(&model, &f, failing))
    );
    assert_eq!(
        bits(&ca.weights),
        bits(&mean_attention(&model, &f, correct))
    );
    // The three distinct vectors really do attend differently.
    let att = |ones: &[usize]| {
        let values: Vec<bool> = (0..WIDE).map(|i| ones.contains(&i)).collect();
        bits(&model.predict(&f, &values).1)
    };
    assert_ne!(att(&[64]), att(&[65]));
    assert_ne!(att(&[]), att(&[64]));
}

/// SplitMix64: a seeded, std-only source of sampled value vectors.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every value vector of a statement with up to 8 operands; 64 seeded
/// vectors beyond that.
fn value_vectors(n: usize, seed: u64) -> Vec<Vec<bool>> {
    if n <= 8 {
        (0..1u64 << n)
            .map(|bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
            .collect()
    } else {
        (0..64u64)
            .map(|k| {
                (0..n)
                    .map(|i| splitmix(seed ^ (k << 32) ^ i as u64) & 1 == 1)
                    .collect()
            })
            .collect()
    }
}

/// The tape-free evaluator behind `predict` must reproduce `forward` on
/// an autograd tape bit for bit, in attention and logits, for every
/// statement of the catalog and of an RVDG corpus.
#[test]
fn tape_free_inference_matches_the_tape_bit_for_bit() {
    let mut modules: Vec<Module> = designs::catalog()
        .iter()
        .map(|d| d.module().expect("catalog design parses"))
        .collect();
    modules.extend(
        Generator::new(RvdgConfig::default(), 0xE7A1)
            .generate_corpus(6)
            .expect("corpus generates")
            .into_iter()
            .map(|d| d.module),
    );
    let init = VeriBugModel::new(ModelConfig::default());
    let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    let mut checked = 0usize;
    for model in [&init, trained_model()] {
        for module in &modules {
            for (id, f) in StatementFeatures::extract_all(module) {
                let contexts = model.operand_contexts(&f);
                for values in value_vectors(f.operand_count(), u64::from(id.0)) {
                    let mut g = neuro::Graph::new();
                    let sample = veribug::Sample {
                        values: values.clone(),
                        target: false,
                    };
                    let fwd = model.forward(&mut g, &f, &sample);
                    let tape_logits = g.value(fwd.logits);
                    let out = model.infer(&contexts, &values);
                    assert_eq!(bits(out.logits.data()), bits(tape_logits.data()), "{id}");
                    assert_eq!(bits(&out.attention), bits(&fwd.attention), "{id}");
                    let (class, attention) = model.predict(&f, &values);
                    assert_eq!(class, tape_logits.argmax_row() == 1, "{id}");
                    assert_eq!(bits(&attention), bits(&fwd.attention), "{id}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} evaluations compared");
}
