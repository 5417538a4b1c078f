//! Edge-case and failure-injection tests across the workspace: parser
//! rejection paths, simulator corner semantics, explainer degenerate inputs,
//! persistence tampering, and CLI-facing invariants.

use veribug_suite::sim::{Simulator, Stimulus, TestbenchGen, Value};
use veribug_suite::veribug::{
    explain::{LabelledTrace, DEFAULT_FAILURE_WINDOW},
    localize::rank,
    model::{ModelConfig, VeriBugModel},
    persist, ExplainerState, StatementFeatures, DEFAULT_THRESHOLD,
};
use veribug_suite::verilog::{self, ParseError};

fn stim(vectors: Vec<Vec<(&str, u64)>>) -> Stimulus {
    Stimulus::from_named(vectors)
}

// ---- parser rejection paths ----

#[test]
fn parser_rejects_unsupported_constructs() {
    // Width above 64 bits.
    let err = verilog::parse("module m(input [64:0] a, output y);\nassign y = a[0];\nendmodule")
        .unwrap_err();
    assert!(matches!(err, ParseError::Unsupported { .. }), "{err}");

    // Ascending bit range.
    let err = verilog::parse("module m(input [0:3] a, output y);\nassign y = a[0];\nendmodule")
        .unwrap_err();
    assert!(matches!(err, ParseError::Unsupported { .. }), "{err}");

    // Non-zero LSB range.
    let err = verilog::parse("module m(input [7:4] a, output y);\nassign y = a[4];\nendmodule")
        .unwrap_err();
    assert!(matches!(err, ParseError::Unsupported { .. }), "{err}");
}

#[test]
fn parser_rejects_malformed_modules() {
    for (src, what) in [
        ("", "empty file"),
        (
            "module m(input a, output y)\nassign y = a;\nendmodule",
            "missing semicolon",
        ),
        (
            "module m(input a, output y);\nassign y = a &;\nendmodule",
            "dangling operator",
        ),
        (
            "module m(input a, output y);\nassign y = a;\n",
            "missing endmodule",
        ),
        (
            "module m(input a, output y);\nassign = a;\nendmodule",
            "missing lvalue",
        ),
    ] {
        assert!(verilog::parse(src).is_err(), "accepted {what}");
    }
}

#[test]
fn parser_rejects_non_constant_parameter() {
    let err =
        verilog::parse("module m(input a, output y);\nparameter P = a;\nassign y = a;\nendmodule")
            .unwrap_err();
    assert!(matches!(err, ParseError::Semantic { .. }), "{err}");
}

#[test]
fn division_by_zero_in_constant_expression_is_semantic_error() {
    let err = verilog::parse(
        "module m(input a, output y);\nlocalparam P = 4 / 0;\nassign y = a;\nendmodule",
    )
    .unwrap_err();
    assert!(matches!(err, ParseError::Semantic { .. }), "{err}");
}

// ---- simulator corner semantics ----

#[test]
fn sixty_four_bit_arithmetic_wraps() {
    let src =
        "module m(input [63:0] a, input [63:0] b, output [63:0] s);\nassign s = a + b;\nendmodule";
    let unit = verilog::parse(src).unwrap();
    let mut sim = Simulator::new(unit.top()).unwrap();
    let t = sim
        .run(&stim(vec![vec![("a", u64::MAX), ("b", 1)]]))
        .unwrap();
    let s = sim.netlist().signal_id("s").unwrap();
    assert_eq!(t.cycles[0].value(s).bits(), 0);
}

#[test]
fn shift_by_full_width_clears() {
    let src =
        "module m(input [7:0] a, input [6:0] n, output [7:0] y);\nassign y = a << n;\nendmodule";
    let unit = verilog::parse(src).unwrap();
    let mut sim = Simulator::new(unit.top()).unwrap();
    let t = sim.run(&stim(vec![vec![("a", 0xFF), ("n", 64)]])).unwrap();
    let y = sim.netlist().signal_id("y").unwrap();
    assert_eq!(t.cycles[0].value(y).bits(), 0);
}

#[test]
fn logical_vs_bitwise_operators_differ_on_vectors() {
    let src = "module m(input [1:0] a, input [1:0] b, output l, output [1:0] w);\n\
               assign l = a && b;\nassign w = a & b;\nendmodule";
    let unit = verilog::parse(src).unwrap();
    let mut sim = Simulator::new(unit.top()).unwrap();
    // a=2, b=1: bitwise AND is 0, logical AND is 1.
    let t = sim.run(&stim(vec![vec![("a", 2), ("b", 1)]])).unwrap();
    let l = sim.netlist().signal_id("l").unwrap();
    let w = sim.netlist().signal_id("w").unwrap();
    assert_eq!(t.cycles[0].value(l).bits(), 1);
    assert_eq!(t.cycles[0].value(w).bits(), 0);
}

#[test]
fn partial_lhs_writes_merge_bits() {
    let src = "module m(input a, input b, output reg [3:0] y);\n\
               always @(*) begin\ny = 4'b0000;\ny[0] = a;\ny[3] = b;\nend\nendmodule";
    let unit = verilog::parse(src).unwrap();
    let mut sim = Simulator::new(unit.top()).unwrap();
    let t = sim.run(&stim(vec![vec![("a", 1), ("b", 1)]])).unwrap();
    let y = sim.netlist().signal_id("y").unwrap();
    assert_eq!(t.cycles[0].value(y).bits(), 0b1001);
}

#[test]
fn empty_stimulus_gives_empty_trace() {
    let src = "module m(input a, output y);\nassign y = a;\nendmodule";
    let unit = verilog::parse(src).unwrap();
    let mut sim = Simulator::new(unit.top()).unwrap();
    let t = sim.run(&stim(vec![])).unwrap();
    assert!(t.is_empty());
    assert!(t.executed_stmts().is_empty());
}

#[test]
fn vcd_export_of_benchmark_design_is_wellformed() {
    let design = veribug_suite::designs::USBF_IDMA;
    let module = design.module().unwrap();
    let mut sim = Simulator::new(&module).unwrap();
    let tb = TestbenchGen::new(5).generate(sim.netlist(), 32);
    let trace = sim.run(&tb).unwrap();
    let vcd = veribug_suite::sim::to_vcd(sim.netlist(), &trace, 10);
    assert!(vcd.contains("$enddefinitions $end"));
    // Every declared signal appears exactly once in the header.
    for sig in sim.netlist().signals() {
        let decl = format!(" {} $end", sig.name);
        assert_eq!(
            vcd.matches(&decl).count(),
            1,
            "signal {} declared wrong number of times",
            sig.name
        );
    }
    // Timestamps are monotonically increasing.
    let stamps: Vec<u64> = vcd
        .lines()
        .filter_map(|l| l.strip_prefix('#').and_then(|n| n.parse().ok()))
        .collect();
    assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
}

// ---- explainer degenerate inputs ----

#[test]
fn explainer_with_no_runs_yields_empty_heatmap() {
    let module =
        verilog::parse("module m(input a, input b, output y);\nassign y = a & b;\nendmodule")
            .unwrap()
            .top()
            .clone();
    let model = VeriBugModel::new(ModelConfig::default());
    let sim = Simulator::new(&module).unwrap();
    let mut state = ExplainerState::new(sim.netlist(), "y");
    let ranking = rank(
        &model,
        &mut state,
        DEFAULT_FAILURE_WINDOW,
        &[],
        DEFAULT_THRESHOLD,
        1,
    );
    assert!(ranking.heatmap.is_empty());
    assert!(ranking.failing_map(&state).is_empty());
    assert!(ranking.correct_map.is_empty());
}

#[test]
fn grouped_heatmap_with_more_groups_than_runs_is_safe() {
    let module =
        verilog::parse("module m(input a, input b, output y);\nassign y = a ^ b;\nendmodule")
            .unwrap()
            .top()
            .clone();
    let model = VeriBugModel::new(ModelConfig::default());
    let mut sim = Simulator::new(&module).unwrap();
    let tb = TestbenchGen::new(2).generate(sim.netlist(), 8);
    let trace = sim.run(&tb).unwrap();
    let runs = vec![LabelledTrace::new(
        veribug_suite::sim::TraceLabel::Failing,
        &trace,
    )];
    let mut state = ExplainerState::new(sim.netlist(), "y");
    // 8 groups over 1 run must not panic and must still use the run.
    let heatmap = rank(
        &model,
        &mut state,
        DEFAULT_FAILURE_WINDOW,
        &runs,
        DEFAULT_THRESHOLD,
        8,
    )
    .heatmap;
    // With no correct traces and no failure cycles the whole trace is F_t;
    // C_t is empty, so the statement lands in the heatmap as only-in-failing.
    assert_eq!(heatmap.len(), 1);
}

#[test]
fn explainer_target_without_slice_is_empty() {
    let module = verilog::parse("module m(input a, output y);\nassign y = a;\nendmodule")
        .unwrap()
        .top()
        .clone();
    let model = VeriBugModel::new(ModelConfig::default());
    let sim = Simulator::new(&module).unwrap();
    let mut state = ExplainerState::new(sim.netlist(), "ghost");
    assert!(state.slice().is_empty());
    let ranking = rank(
        &model,
        &mut state,
        DEFAULT_FAILURE_WINDOW,
        &[],
        DEFAULT_THRESHOLD,
        1,
    );
    assert!(ranking.heatmap.is_empty());
}

// ---- persistence tampering ----

#[test]
fn persisted_model_survives_reformatting_noise() {
    let model = VeriBugModel::new(ModelConfig::default());
    let mut text = persist::to_string(&model);
    text.push_str("\n\n"); // trailing noise after `end` is ignored
    let loaded = persist::from_str(&text).unwrap();
    assert_eq!(loaded.config(), model.config());
}

#[test]
fn persisted_model_rejects_unknown_parameter() {
    let model = VeriBugModel::new(ModelConfig::default());
    let text = persist::to_string(&model).replacen("param tok.table", "param bogus.name", 1);
    assert!(persist::from_str(&text).is_err());
}

// ---- feature/statement invariants on the benchmark designs ----

#[test]
fn every_benchmark_slice_statement_has_features_or_is_constant() {
    for design in veribug_suite::designs::catalog() {
        let module = design.module().unwrap();
        let features = StatementFeatures::extract_all(&module);
        for target in design.targets {
            let slice = veribug_suite::cdfg::Slice::of_target(&module, target);
            for stmt in &slice.stmts {
                let a = module.assignment(*stmt).unwrap();
                let has_operands = !a.rhs.referenced_signals().is_empty();
                assert_eq!(
                    features.contains_key(stmt),
                    has_operands,
                    "{}: features/operands mismatch at {stmt}",
                    design.name
                );
            }
        }
    }
}

#[test]
fn value_masking_invariant_holds_for_all_widths() {
    for width in 1..=64u8 {
        let v = Value::new(u64::MAX, width);
        assert_eq!(v.bits(), Value::mask(width));
        assert_eq!(v.width(), width);
    }
}
