//! Property-based tests on cross-crate invariants: parser/printer
//! round-trips over generated designs, simulator determinism and value
//! invariants, slicing soundness, feature/attention well-formedness, and
//! golden-vs-golden co-simulation.

use proptest::prelude::*;

use veribug_suite::cdfg::{Cdfg, Slice, Vdg};
use veribug_suite::mutate;
use veribug_suite::rvdg::{ExprConfig, Generator, RvdgConfig};
use veribug_suite::sim::{Simulator, TestbenchGen, TraceLabel, Value};
use veribug_suite::veribug::StatementFeatures;
use veribug_suite::verilog::{self, NodeKind};

/// A strategy over RVDG configurations (bounded so tests stay fast).
fn rvdg_config() -> impl Strategy<Value = RvdgConfig> {
    (
        1usize..5,
        1usize..3,
        1usize..3,
        1usize..4,
        1usize..4,
        1usize..3,
        0usize..3,
    )
        .prop_map(
            |(inputs, state, outputs, temps, branches, stmts, wide)| RvdgConfig {
                num_inputs: inputs,
                num_state: state,
                num_outputs: outputs,
                num_temps: temps,
                num_branches: branches,
                stmts_per_branch: stmts,
                num_wide_inputs: wide,
                wide_width: 3,
                expr: ExprConfig::default(),
                mix: Default::default(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated design parses, prints, and re-parses to the same
    /// statement structure with stable ids.
    #[test]
    fn generated_designs_roundtrip(cfg in rvdg_config(), seed in 0u64..1000) {
        let design = Generator::new(cfg, seed).generate(0).expect("generates");
        let printed = verilog::print_module(&design.module);
        let reparsed = verilog::parse(&printed).expect("round-trips").top().clone();
        let a: Vec<_> = design.module.assignments().iter().map(|x| (x.id, x.kind)).collect();
        let b: Vec<_> = reparsed.assignments().iter().map(|x| (x.id, x.kind)).collect();
        prop_assert_eq!(a, b);
    }

    /// Simulation is deterministic: same design + same stimulus = same trace.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..500) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(0).expect("generates");
        let mut sim1 = Simulator::new(&design.module).expect("elaborates");
        let mut sim2 = Simulator::new(&design.module).expect("elaborates");
        let stim = TestbenchGen::new(seed ^ 0xABCD).generate(sim1.netlist(), 24);
        let t1 = sim1.run(&stim).expect("simulates");
        let t2 = sim2.run(&stim).expect("simulates");
        prop_assert_eq!(t1, t2);
    }

    /// Every recorded signal value respects its declared width, and every
    /// executed statement is part of the design.
    #[test]
    fn trace_values_respect_widths(seed in 0u64..500) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(1).expect("generates");
        let mut sim = Simulator::new(&design.module).expect("elaborates");
        let stim = TestbenchGen::new(seed).generate(sim.netlist(), 16);
        let trace = sim.run(&stim).expect("simulates");
        let stmt_ids: std::collections::BTreeSet<_> =
            design.module.assignments().iter().map(|a| a.id).collect();
        for cyc in &trace.cycles {
            for (sig, value) in sim.netlist().signals().iter().zip(cyc.signals.iter()) {
                prop_assert_eq!(value.width(), sig.width);
                prop_assert_eq!(value.bits() & !Value::mask(sig.width), 0);
            }
            for exec in &cyc.execs {
                prop_assert!(stmt_ids.contains(&exec.stmt));
            }
        }
    }

    /// Slicing soundness: every statement whose LHS transitively reaches
    /// the target in the VDG is in the slice, and nothing else is.
    #[test]
    fn slice_matches_vdg_reachability(seed in 0u64..500) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(2).expect("generates");
        let module = &design.module;
        let target = module.output_names()[0].to_owned();
        let vdg = Vdg::build(module);
        let slice = Slice::of_target(module, &target);
        for a in module.assignments() {
            let reaches = vdg.influences(&a.lhs.base, &target);
            prop_assert_eq!(
                slice.contains(a.id),
                reaches,
                "stmt {} (lhs {}) slice membership mismatch",
                a.id,
                &a.lhs.base
            );
        }
    }

    /// CDFG guard variables are consistent with the VDG's control edges.
    #[test]
    fn cdfg_guards_imply_vdg_control_edges(seed in 0u64..300) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(3).expect("generates");
        let module = &design.module;
        let cdfg = Cdfg::build(module);
        let vdg = Vdg::from_cdfg(module, &cdfg);
        for node in cdfg.nodes() {
            for g in &node.guard_vars {
                prop_assert!(
                    vdg.influences(g, &node.lhs),
                    "guard {} does not influence {}",
                    g,
                    &node.lhs
                );
            }
        }
    }

    /// Feature extraction: every path is non-empty, starts at a node
    /// adjacent to the operand, and every operand of a statement appears in
    /// the statement's RHS (or LHS index).
    #[test]
    fn features_are_well_formed(seed in 0u64..500) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(4).expect("generates");
        for (id, f) in StatementFeatures::extract_all(&design.module) {
            let a = design.module.assignment(id).expect("statement exists");
            let rhs_vars: Vec<&str> = a.rhs.referenced_signals();
            for op in &f.operands {
                prop_assert!(
                    rhs_vars.contains(&op.name.as_str()),
                    "operand {} not in RHS of {}",
                    &op.name,
                    id
                );
                prop_assert!(!op.paths.is_empty());
                for path in &op.paths {
                    prop_assert!(!path.is_empty());
                    for kind in path {
                        // Paths contain interior nodes only.
                        prop_assert_ne!(*kind, NodeKind::Operand);
                        prop_assert_ne!(*kind, NodeKind::Literal);
                    }
                }
            }
        }
    }

    /// Mutation invariants: a mutant differs from golden in exactly one
    /// statement, ids are preserved, and the mutant re-parses.
    #[test]
    fn mutants_differ_in_exactly_one_statement(seed in 0u64..300) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(5).expect("generates");
        let module = &design.module;
        let sites = mutate::enumerate_sites(module, None);
        prop_assume!(!sites.is_empty());
        let site = &sites[(seed as usize) % sites.len()];
        let Some(mutant) = mutate::apply(module, site) else {
            return Ok(());
        };
        let golden_stmts = module.assignments();
        let mutant_stmts = mutant.assignments();
        prop_assert_eq!(golden_stmts.len(), mutant_stmts.len());
        let mut diffs = 0;
        for (g, m) in golden_stmts.iter().zip(&mutant_stmts) {
            prop_assert_eq!(g.id, m.id);
            if g != m {
                diffs += 1;
                prop_assert_eq!(g.id, site.stmt);
            }
        }
        prop_assert!(diffs <= 1, "mutation touched {} statements", diffs);
        verilog::parse(&verilog::print_module(&mutant)).expect("mutant re-parses");
    }

    /// Golden-vs-golden co-simulation never labels a run as failing.
    #[test]
    fn golden_never_fails_against_itself(seed in 0u64..200) {
        let design = Generator::new(RvdgConfig::default(), seed).generate(6).expect("generates");
        let module = &design.module;
        let target = module.output_names()[0].to_owned();
        let mut sim = Simulator::new(module).expect("elaborates");
        let stimuli = TestbenchGen::new(seed).generate_many(sim.netlist(), 12, 3);
        let golden = mutate::run_lane_groups(&mut sim, &stimuli).expect("simulates");
        let runs = mutate::oracle::cosimulate(&golden, &mut sim, &target, &stimuli)
            .expect("cosimulates");
        prop_assert!(runs.iter().all(|r| r.label == TraceLabel::Correct));
    }
}
