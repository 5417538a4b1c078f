//! Property-based tests on cross-crate invariants: parser/printer
//! round-trips over generated designs, simulator determinism and value
//! invariants, slicing soundness, feature/attention well-formedness, and
//! golden-vs-golden co-simulation.
//!
//! Each property runs [`CASES`] seeded cases drawn from a generator keyed
//! by the property's name, so a failure reproduces exactly; assertion
//! messages carry the drawn inputs.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use veribug_suite::cdfg::{Cdfg, Slice, Vdg};
use veribug_suite::designs;
use veribug_suite::mutate;
use veribug_suite::rvdg::{ExprConfig, Generator, RvdgConfig};
use veribug_suite::sim::{Simulator, TestbenchGen, TraceLabel, Value};
use veribug_suite::veribug::StatementFeatures;
use veribug_suite::verilog::{self, NodeKind};

/// Cases per property.
const CASES: usize = 24;

/// The FNV-1a offset basis, the digest of no bytes.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a digest `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The case generator for `property`, seeded by the FNV-1a hash of its
/// qualified name.
fn case_rng(property: &str) -> StdRng {
    let name = format!("properties::{property}");
    StdRng::seed_from_u64(fnv1a(FNV_BASIS, name.as_bytes()))
}

/// [`CASES`] seeds drawn from `range` for `property`.
fn seeds(property: &str, range: Range<u64>) -> Vec<u64> {
    let mut rng = case_rng(property);
    (0..CASES)
        .map(|_| rng.random_range(range.clone()))
        .collect()
}

/// A bounded RVDG configuration (small, so tests stay fast).
fn rvdg_config(rng: &mut StdRng) -> RvdgConfig {
    RvdgConfig {
        num_inputs: rng.random_range(1usize..5),
        num_state: rng.random_range(1usize..3),
        num_outputs: rng.random_range(1usize..3),
        num_temps: rng.random_range(1usize..4),
        num_branches: rng.random_range(1usize..4),
        stmts_per_branch: rng.random_range(1usize..3),
        num_wide_inputs: rng.random_range(0usize..3),
        wide_width: 3,
        expr: ExprConfig::default(),
        mix: Default::default(),
    }
}

/// Every generated design parses, prints, and re-parses to the same
/// statement structure with stable ids.
#[test]
fn generated_designs_roundtrip() {
    let mut rng = case_rng("generated_designs_roundtrip");
    for _ in 0..CASES {
        let cfg = rvdg_config(&mut rng);
        let seed = rng.random_range(0u64..1000);
        let design = Generator::new(cfg.clone(), seed)
            .generate(0)
            .expect("generates");
        let printed = verilog::print_module(&design.module);
        let reparsed = verilog::parse(&printed).expect("round-trips").top().clone();
        let a: Vec<_> = design
            .module
            .assignments()
            .iter()
            .map(|x| (x.id, x.kind))
            .collect();
        let b: Vec<_> = reparsed
            .assignments()
            .iter()
            .map(|x| (x.id, x.kind))
            .collect();
        assert_eq!(a, b, "seed {seed}, {cfg:?}");
    }
}

/// Simulation is deterministic: same design + same stimulus = same trace.
#[test]
fn simulation_is_deterministic() {
    for seed in seeds("simulation_is_deterministic", 0..500) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(0)
            .expect("generates");
        let mut sim1 = Simulator::new(&design.module).expect("elaborates");
        let mut sim2 = Simulator::new(&design.module).expect("elaborates");
        let stim = TestbenchGen::new(seed ^ 0xABCD).generate(sim1.netlist(), 24);
        let t1 = sim1.run(&stim).expect("simulates");
        let t2 = sim2.run(&stim).expect("simulates");
        assert_eq!(t1, t2, "seed {seed}");
    }
}

/// Every recorded signal value respects its declared width, and every
/// executed statement is part of the design.
#[test]
fn trace_values_respect_widths() {
    for seed in seeds("trace_values_respect_widths", 0..500) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(1)
            .expect("generates");
        let mut sim = Simulator::new(&design.module).expect("elaborates");
        let stim = TestbenchGen::new(seed).generate(sim.netlist(), 16);
        let trace = sim.run(&stim).expect("simulates");
        let stmt_ids: std::collections::BTreeSet<_> =
            design.module.assignments().iter().map(|a| a.id).collect();
        for cyc in &trace.cycles {
            for (sig, value) in sim.netlist().signals().iter().zip(cyc.signals.iter()) {
                assert_eq!(value.width(), sig.width, "seed {seed}");
                assert_eq!(value.bits() & !Value::mask(sig.width), 0, "seed {seed}");
            }
            for exec in &cyc.execs {
                assert!(stmt_ids.contains(&exec.stmt), "seed {seed}");
            }
        }
    }
}

/// Slicing soundness: every statement whose LHS transitively reaches
/// the target in the VDG is in the slice, and nothing else is.
#[test]
fn slice_matches_vdg_reachability() {
    for seed in seeds("slice_matches_vdg_reachability", 0..500) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(2)
            .expect("generates");
        let module = &design.module;
        let target = module.output_names()[0].to_owned();
        let vdg = Vdg::build(module);
        let slice = Slice::of_target(module, &target);
        for a in module.assignments() {
            let reaches = vdg.influences(&a.lhs.base, &target);
            assert_eq!(
                slice.contains(a.id),
                reaches,
                "seed {seed}: stmt {} (lhs {}) slice membership mismatch",
                a.id,
                &a.lhs.base
            );
        }
    }
}

/// CDFG guard variables are consistent with the VDG's control edges.
#[test]
fn cdfg_guards_imply_vdg_control_edges() {
    for seed in seeds("cdfg_guards_imply_vdg_control_edges", 0..300) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(3)
            .expect("generates");
        let module = &design.module;
        let cdfg = Cdfg::build(module);
        let vdg = Vdg::from_cdfg(module, &cdfg);
        for node in cdfg.nodes() {
            for g in &node.guard_vars {
                assert!(
                    vdg.influences(g, &node.lhs),
                    "seed {seed}: guard {} does not influence {}",
                    g,
                    &node.lhs
                );
            }
        }
    }
}

/// Feature extraction: every path is non-empty, starts at a node
/// adjacent to the operand, and every operand of a statement appears in
/// the statement's RHS (or LHS index).
#[test]
fn features_are_well_formed() {
    for seed in seeds("features_are_well_formed", 0..500) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(4)
            .expect("generates");
        for (id, f) in StatementFeatures::extract_all(&design.module) {
            let a = design.module.assignment(id).expect("statement exists");
            let rhs_vars: Vec<&str> = a.rhs.referenced_signals();
            for op in &f.operands {
                assert!(
                    rhs_vars.contains(&op.name.as_str()),
                    "seed {seed}: operand {} not in RHS of {}",
                    &op.name,
                    id
                );
                assert!(!op.paths.is_empty(), "seed {seed}");
                for path in &op.paths {
                    assert!(!path.is_empty(), "seed {seed}");
                    for kind in path {
                        // Paths contain interior nodes only.
                        assert_ne!(*kind, NodeKind::Operand, "seed {seed}");
                        assert_ne!(*kind, NodeKind::Literal, "seed {seed}");
                    }
                }
            }
        }
    }
}

/// Mutation invariants over every site of the catalog designs and of
/// seeded RVDG designs: each statement has one negation site per signal
/// it reads, and each mutant keeps the statement ids, differs from golden
/// in exactly the site's statement, and prints to a print/parse fixpoint.
#[test]
fn mutants_differ_in_exactly_one_statement() {
    let mut designs = catalog_modules();
    for seed in seeds("mutants_differ_in_exactly_one_statement", 0..300) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(5)
            .expect("generates");
        designs.push((format!("seed {seed}"), design.module));
    }
    for (name, module) in &designs {
        let sites = mutate::enumerate_sites(module, None);
        let golden_stmts = module.assignments();
        for a in &golden_stmts {
            let negations = sites
                .iter()
                .filter(|s| s.stmt == a.id && s.kind == mutate::MutationKind::Negation)
                .count();
            assert_eq!(
                negations,
                a.rhs.referenced_signals().len(),
                "{name} {}",
                a.id
            );
        }
        for site in &sites {
            let mutant = mutate::apply(module, site)
                .unwrap_or_else(|| panic!("{name}: {site:?} does not apply"));
            let mutant_stmts = mutant.assignments();
            let ids =
                |stmts: &[&verilog::Assignment]| stmts.iter().map(|a| a.id).collect::<Vec<_>>();
            assert_eq!(ids(&golden_stmts), ids(&mutant_stmts), "{name}");
            let differing: Vec<_> = golden_stmts
                .iter()
                .zip(&mutant_stmts)
                .filter(|(g, m)| g != m)
                .map(|(g, _)| g.id)
                .collect();
            assert_eq!(differing, vec![site.stmt], "{name}: {site:?}");
            let printed = verilog::print_module(&mutant);
            let reparsed = verilog::parse(&printed).expect("mutant re-parses");
            assert_eq!(
                verilog::print_module(reparsed.top()),
                printed,
                "{name}: {site:?} does not print to a fixpoint"
            );
        }
    }
}

/// Every Table I catalog design, parsed, with its name.
fn catalog_modules() -> Vec<(String, verilog::Module)> {
    designs::catalog()
        .iter()
        .map(|d| (d.name.to_owned(), d.module().expect("catalog parses")))
        .collect()
}

/// Every catalog design and a fixed RVDG corpus, as mutation inputs.
fn mutation_corpus() -> Vec<(String, verilog::Module)> {
    let mut out = catalog_modules();
    let generator = Generator::new(RvdgConfig::default(), 0x5173);
    for i in 0..32 {
        let design = generator.generate(i).expect("generates");
        out.push((format!("rvdg{i}"), design.module));
    }
    out
}

/// The mutant set is pinned: one FNV-1a digest over every design's
/// `enumerate_sites` list and the printed mutant of each site. Any change
/// to the site order, the misuse candidates or a mutation's edit moves it.
#[test]
fn mutants_match_the_pinned_digest() {
    let mut h = FNV_BASIS;
    let mut field = |bytes: &[u8]| {
        h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv1a(h, bytes);
    };
    for (name, module) in mutation_corpus() {
        field(name.as_bytes());
        for site in mutate::enumerate_sites(&module, None) {
            field(&site.stmt.0.to_le_bytes());
            field(site.kind.to_string().as_bytes());
            field(&(site.occurrence as u64).to_le_bytes());
            field(site.replacement.as_deref().unwrap_or("-").as_bytes());
            field(site.new_op.map_or("-", |op| op.symbol()).as_bytes());
            let mutant = mutate::apply(&module, &site).map(|m| verilog::print_module(&m));
            field(mutant.as_deref().unwrap_or("-").as_bytes());
        }
    }
    assert_eq!(format!("{h:016x}"), "3a18380291abb7f6");
}

/// Golden-vs-golden co-simulation never labels a run as failing.
#[test]
fn golden_never_fails_against_itself() {
    for seed in seeds("golden_never_fails_against_itself", 0..200) {
        let design = Generator::new(RvdgConfig::default(), seed)
            .generate(6)
            .expect("generates");
        let module = &design.module;
        let target = module.output_names()[0].to_owned();
        let mut sim = Simulator::new(module).expect("elaborates");
        let stimuli = TestbenchGen::new(seed).generate_many(sim.netlist(), 12, 3);
        let golden = mutate::run_lane_groups(&mut sim, &stimuli).expect("simulates");
        let runs =
            mutate::oracle::cosimulate(&golden, &mut sim, &target, &stimuli).expect("cosimulates");
        assert!(
            runs.iter().all(|r| r.label == TraceLabel::Correct),
            "seed {seed}"
        );
    }
}
