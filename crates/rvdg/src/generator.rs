//! The Random Verilog Design Generator (paper Sec. V, "Dataset generation").
//!
//! Each generated design follows the paper's two-part template:
//!
//! - a **clocked always block** `C` acting as the memory element — state
//!   registers capture their next-state values at the clock edge,
//! - a **non-clocked always block** `NC` computing next state and outputs
//!   from current state and inputs through chains of `if`/`else-if` arms of
//!   blocking assignments.
//!
//! Interdependencies are enforced by a layer of intermediate temporaries:
//! each `t_i` may read inputs, state, and *lower-indexed* temporaries (which
//! guarantees the combinational block is loop-free), and branch bodies
//! assign outputs/next-state from any of them.
//!
//! Beyond the paper's pure-Boolean statements, the generator mixes in
//! multi-bit signals with comparisons, ternaries, bit-selects, reductions,
//! and narrow arithmetic (see [`crate::template`]) so the trained token
//! embeddings cover the AST vocabulary the realistic designs use. Set
//! [`TemplateMix::boolean_only`] to reproduce the minimal paper template.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

use crate::expr::ExprConfig;
use crate::template::{random_bool_expr, random_wide_expr, SignalPool, TemplateMix};
use verilog::{Module, ParseError};

/// Configuration for the design generator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RvdgConfig {
    /// Number of one-bit primary inputs (excluding the clock).
    pub num_inputs: usize,
    /// Number of one-bit state registers.
    pub num_state: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of intermediate temporaries (the data-flow "glue").
    pub num_temps: usize,
    /// Number of `if`/`else-if` arms in the combinational block (≥ 1; a
    /// final `else` arm is always added).
    pub num_branches: usize,
    /// Statements per branch arm.
    pub stmts_per_branch: usize,
    /// Number of multi-bit primary inputs.
    pub num_wide_inputs: usize,
    /// Width of multi-bit signals (2..=8 recommended).
    pub wide_width: u32,
    /// Expression shape bounds.
    pub expr: ExprConfig,
    /// Statement-template mixing weights.
    pub mix: TemplateMix,
}

impl Default for RvdgConfig {
    fn default() -> Self {
        RvdgConfig {
            num_inputs: 4,
            num_state: 2,
            num_outputs: 2,
            num_temps: 3,
            num_branches: 3,
            stmts_per_branch: 2,
            num_wide_inputs: 2,
            wide_width: 3,
            expr: ExprConfig::default(),
            mix: TemplateMix::default(),
        }
    }
}

/// A generated design: source text plus its parsed module.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedDesign {
    /// The Verilog source.
    pub source: String,
    /// The parsed module.
    pub module: Module,
    /// The seed that produced it.
    pub seed: u64,
}

/// The seeded design generator.
#[derive(Debug, Clone)]
pub struct Generator {
    cfg: RvdgConfig,
    seed: u64,
}

impl Generator {
    /// Creates a generator from a configuration and base seed.
    pub fn new(cfg: RvdgConfig, seed: u64) -> Self {
        Generator { cfg, seed }
    }

    /// Generates the `index`-th design of the corpus.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the emitted source is invalid — which
    /// would be a generator bug; the error is surfaced rather than hidden so
    /// property tests can catch regressions.
    pub fn generate(&self, index: u64) -> Result<GeneratedDesign, ParseError> {
        let seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        let mut rng = StdRng::seed_from_u64(seed);
        let source = self.emit(&mut rng, index);
        let module = verilog::parse(&source)?.top().clone();
        Ok(GeneratedDesign {
            source,
            module,
            seed,
        })
    }

    /// Generates a corpus of `count` designs.
    ///
    /// # Errors
    ///
    /// Propagates the first generation failure.
    pub fn generate_corpus(&self, count: usize) -> Result<Vec<GeneratedDesign>, ParseError> {
        (0..count as u64).map(|i| self.generate(i)).collect()
    }

    fn emit(&self, rng: &mut StdRng, index: u64) -> String {
        let c = &self.cfg;
        let inputs: Vec<String> = (0..c.num_inputs).map(|i| format!("in{i}")).collect();
        let states: Vec<String> = (0..c.num_state).map(|i| format!("s{i}")).collect();
        let nexts: Vec<String> = (0..c.num_state).map(|i| format!("n{i}")).collect();
        let temps: Vec<String> = (0..c.num_temps).map(|i| format!("t{i}")).collect();
        let outputs: Vec<String> = (0..c.num_outputs).map(|i| format!("y{i}")).collect();
        let wide_inputs: Vec<String> = (0..c.num_wide_inputs).map(|i| format!("w{i}")).collect();
        let has_wide = c.num_wide_inputs > 0;
        let ww = c.wide_width.max(2);

        let mut src = String::new();
        let _ = write!(src, "module rvdg_{index}(input clk");
        for i in &inputs {
            let _ = write!(src, ", input {i}");
        }
        for w in &wide_inputs {
            let _ = write!(src, ", input [{}:0] {w}", ww - 1);
        }
        for o in &outputs {
            let _ = write!(src, ", output reg {o}");
        }
        src.push_str(");\n");
        for s in &states {
            let _ = writeln!(src, "  reg {s};");
        }
        for n in &nexts {
            let _ = writeln!(src, "  reg {n};");
        }
        for t in &temps {
            let _ = writeln!(src, "  reg {t};");
        }
        if has_wide {
            let _ = writeln!(src, "  reg [{}:0] ws;", ww - 1);
            let _ = writeln!(src, "  reg [{}:0] wn;", ww - 1);
        }

        // The clocked block C: plain state capture.
        src.push_str("  always @(posedge clk) begin\n");
        for (s, n) in states.iter().zip(&nexts) {
            let _ = writeln!(src, "    {s} <= {n};");
        }
        if has_wide {
            src.push_str("    ws <= wn;\n");
        }
        src.push_str("  end\n");

        // The combinational block NC.
        src.push_str("  always @(*) begin\n");

        // Temporaries: each may read inputs, state, and earlier temps.
        let mut pool = SignalPool {
            bits: inputs.iter().chain(&states).cloned().collect(),
            wide: wide_inputs
                .iter()
                .map(|w| (w.clone(), ww))
                .chain(has_wide.then(|| ("ws".to_owned(), ww)))
                .collect(),
        };
        let cond_pool = pool.clone();
        for t in &temps {
            let e = random_bool_expr(rng, &pool, &c.expr, &c.mix);
            let _ = writeln!(src, "    {t} = {e};");
            pool.bits.push(t.clone());
        }

        // Defaults so no latches are inferred.
        for (n, s) in nexts.iter().zip(&states) {
            let _ = writeln!(src, "    {n} = {s};");
        }
        for o in &outputs {
            let _ = writeln!(src, "    {o} = 1'b0;");
        }
        if has_wide {
            src.push_str("    wn = ws;\n");
        }

        // Branch targets: next-state (1-bit and wide) and outputs.
        let bit_targets: Vec<String> = nexts.iter().chain(&outputs).cloned().collect();
        for arm in 0..c.num_branches {
            let cond = random_bool_expr(rng, &cond_pool, &c.expr, &c.mix);
            let kw = if arm == 0 { "if" } else { "else if" };
            let _ = writeln!(src, "    {kw} ({cond}) begin");
            self.emit_branch_body(rng, &mut src, &pool, &bit_targets, has_wide, ww);
            src.push_str("    end\n");
        }
        src.push_str("    else begin\n");
        self.emit_branch_body(rng, &mut src, &pool, &bit_targets, has_wide, ww);
        src.push_str("    end\n");

        src.push_str("  end\nendmodule\n");
        src
    }

    fn emit_branch_body(
        &self,
        rng: &mut StdRng,
        src: &mut String,
        pool: &SignalPool,
        bit_targets: &[String],
        has_wide: bool,
        ww: u32,
    ) {
        for _ in 0..self.cfg.stmts_per_branch {
            // Occasionally update the wide next-state register instead of a
            // one-bit target, so wide arithmetic appears in training data.
            if has_wide && rng.random_bool(0.25) {
                let e = random_wide_expr(rng, pool, ww);
                let _ = writeln!(src, "      wn = {e};");
            } else {
                let target = &bit_targets[rng.random_range(0..bit_targets.len())];
                let e = random_bool_expr(rng, pool, &self.cfg.expr, &self.cfg.mix);
                let _ = writeln!(src, "      {target} = {e};");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{Simulator, TestbenchGen};

    #[test]
    fn generated_designs_parse_and_have_template_shape() {
        let gen = Generator::new(RvdgConfig::default(), 11);
        let d = gen.generate(0).unwrap();
        let m = &d.module;
        let inputs = m.ports.iter().filter(|p| p.dir == verilog::PortDir::Input);
        assert_eq!(inputs.count(), 7); // clk + 4 bit inputs + 2 wide
        assert_eq!(m.output_names().len(), 2);
        assert_eq!(m.items.len(), 2, "one clocked + one combinational block");
    }

    #[test]
    fn corpus_is_deterministic_and_varied() {
        let gen = Generator::new(RvdgConfig::default(), 3);
        let a = gen.generate_corpus(4).unwrap();
        let b = gen.generate_corpus(4).unwrap();
        assert_eq!(a, b);
        assert_ne!(a[0].source, a[1].source);
        assert_ne!(a[1].source, a[2].source);
    }

    #[test]
    fn generated_designs_simulate_without_errors() {
        let gen = Generator::new(RvdgConfig::default(), 17);
        for d in gen.generate_corpus(12).unwrap() {
            let mut sim = Simulator::new(&d.module)
                .unwrap_or_else(|e| panic!("elaboration failed for seed {}: {e}", d.seed));
            let stim = TestbenchGen::new(d.seed).generate(sim.netlist(), 32);
            let trace = sim
                .run(&stim)
                .unwrap_or_else(|e| panic!("simulation failed for seed {}: {e}", d.seed));
            assert_eq!(trace.len(), 32);
            // Statements actually execute (the training corpus is non-empty).
            assert!(!trace.executed_stmts().is_empty());
        }
    }

    #[test]
    fn boolean_only_mix_reproduces_paper_template() {
        let cfg = RvdgConfig {
            num_wide_inputs: 0,
            mix: TemplateMix::boolean_only(),
            ..RvdgConfig::default()
        };
        let gen = Generator::new(cfg, 19);
        let d = gen.generate(0).unwrap();
        assert!(!d.source.contains("=="));
        assert!(!d.source.contains('?'));
        assert!(!d.source.contains("ws"));
    }

    #[test]
    fn corpus_covers_transfer_vocabulary() {
        // Across a corpus, the sources must exercise comparisons, ternaries,
        // and bit-selects so every token embedding gets trained.
        let gen = Generator::new(RvdgConfig::default(), 23);
        let all: String = gen
            .generate_corpus(8)
            .unwrap()
            .iter()
            .map(|d| d.source.clone())
            .collect();
        assert!(all.contains("==") || all.contains("!="), "no comparisons");
        assert!(all.contains('?'), "no ternaries");
        assert!(all.contains('['), "no selects");
    }

    #[test]
    fn state_feeds_back_through_clocked_block() {
        // The template must create sequential behavior: an output depends
        // on a state register through the read-set closure.
        let gen = Generator::new(RvdgConfig::default(), 23);
        let d = gen.generate(1).unwrap();
        assert!(
            influences_state(&d.module),
            "outputs never depend on state registers"
        );
    }

    // Local reachability check to avoid a dev-dependency cycle with
    // veribug-cdfg: walk assignments and confirm some output transitively
    // reads a state register.
    fn influences_state(m: &Module) -> bool {
        use std::collections::{BTreeMap, BTreeSet};
        let mut reads: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for a in m.assignments() {
            let entry = reads.entry(a.lhs.base.clone()).or_default();
            for r in a.rhs.referenced_signals() {
                entry.insert(r.to_owned());
            }
        }
        let is_state = |n: &str| n == "ws" || (n.starts_with('s') && n[1..].parse::<u32>().is_ok());
        for o in m.output_names() {
            let mut seen = BTreeSet::new();
            let mut stack = vec![o.to_owned()];
            while let Some(n) = stack.pop() {
                if !seen.insert(n.clone()) {
                    continue;
                }
                if is_state(&n) {
                    return true;
                }
                if let Some(rs) = reads.get(&n) {
                    stack.extend(rs.iter().cloned());
                }
            }
        }
        false
    }
}
