//! Variable dependency graph (VDG).
//!
//! The VDG abstracts operation details away from the CDFG: one node per
//! design variable, one edge `u → v` when `u` contributes (through data or
//! control) to some assignment of `v`. Edges remember whether they cross a
//! register boundary (non-blocking assignment), which the cone-of-influence
//! analysis uses to count cycles.

use std::collections::{BTreeSet, HashMap};

use crate::graph::{Cdfg, DepKind};
use verilog::{AssignKind, Module};

/// One directed VDG edge: `from` influences `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct VdgEdge {
    /// Index of the influencing variable.
    pub from: usize,
    /// Index of the influenced (defined) variable.
    pub to: usize,
    /// Data or control dependency.
    pub kind: DepKind,
    /// True when the defining assignment is non-blocking (register).
    pub sequential: bool,
}

/// The variable dependency graph of one module.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Vdg {
    signals: Vec<String>,
    index: HashMap<String, usize>,
    edges: Vec<VdgEdge>,
    /// Outgoing adjacency (by `from`).
    fwd: Vec<Vec<usize>>,
    /// Incoming adjacency (by `to`).
    rev: Vec<Vec<usize>>,
}

impl Vdg {
    /// Builds the VDG of a module (via its CDFG).
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let unit = verilog::parse(
    ///     "module m(input a, input b, output y);\n\
    ///      wire t;\nassign t = a & b;\nassign y = ~t;\nendmodule",
    /// )?;
    /// let vdg = veribug_cdfg::Vdg::build(unit.top());
    /// assert!(vdg.influences("a", "y"));
    /// assert!(!vdg.influences("y", "a"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(module: &Module) -> Self {
        let cdfg = Cdfg::build(module);
        Self::from_cdfg(module, &cdfg)
    }

    /// Builds the VDG from an already-computed CDFG.
    pub fn from_cdfg(module: &Module, cdfg: &Cdfg) -> Self {
        let mut signals: Vec<String> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let intern = |name: &str, signals: &mut Vec<String>, index: &mut HashMap<String, usize>| {
            if let Some(&i) = index.get(name) {
                i
            } else {
                let i = signals.len();
                signals.push(name.to_owned());
                index.insert(name.to_owned(), i);
                i
            }
        };
        // Intern every declared signal so isolated inputs still appear.
        for p in &module.ports {
            intern(&p.name, &mut signals, &mut index);
        }
        for d in &module.decls {
            intern(&d.name, &mut signals, &mut index);
        }

        let mut edge_set: BTreeSet<(usize, usize, DepKind, bool)> = BTreeSet::new();
        for node in cdfg.nodes() {
            let to = intern(&node.lhs, &mut signals, &mut index);
            let sequential = node.kind == AssignKind::NonBlocking;
            for v in &node.rhs_vars {
                let from = intern(v, &mut signals, &mut index);
                edge_set.insert((from, to, DepKind::Data, sequential));
            }
            for v in &node.guard_vars {
                let from = intern(v, &mut signals, &mut index);
                edge_set.insert((from, to, DepKind::Control, sequential));
            }
        }
        let edges: Vec<VdgEdge> = edge_set
            .into_iter()
            .map(|(from, to, kind, sequential)| VdgEdge {
                from,
                to,
                kind,
                sequential,
            })
            .collect();
        let mut fwd = vec![Vec::new(); signals.len()];
        let mut rev = vec![Vec::new(); signals.len()];
        for (i, e) in edges.iter().enumerate() {
            fwd[e.from].push(i);
            rev[e.to].push(i);
        }
        Vdg {
            signals,
            index,
            edges,
            fwd,
            rev,
        }
    }

    /// All signal names, by node index.
    pub fn signals(&self) -> &[String] {
        &self.signals
    }

    /// All edges.
    pub fn edges(&self) -> &[VdgEdge] {
        &self.edges
    }

    /// The node index of a signal, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Indices of edges entering `node` (what influences it).
    pub fn in_edges(&self, node: usize) -> &[usize] {
        &self.rev[node]
    }

    /// True when `from` transitively influences `to` (any path, any length).
    pub fn influences(&self, from: &str, to: &str) -> bool {
        let (Some(src), Some(dst)) = (self.index_of(from), self.index_of(to)) else {
            return false;
        };
        if src == dst {
            return true;
        }
        let mut seen = vec![false; self.signals.len()];
        let mut stack = vec![src];
        seen[src] = true;
        while let Some(n) = stack.pop() {
            for &ei in &self.fwd[n] {
                let next = self.edges[ei].to;
                if next == dst {
                    return true;
                }
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vdg(src: &str) -> Vdg {
        Vdg::build(verilog::parse(src).unwrap().top())
    }

    #[test]
    fn chains_are_transitive() {
        let g = vdg("module m(input a, output y);\nwire t1, t2;\n\
             assign t1 = ~a;\nassign t2 = ~t1;\nassign y = ~t2;\nendmodule");
        assert!(g.influences("a", "y"));
        assert!(g.influences("t1", "y"));
        assert!(!g.influences("y", "t1"));
    }

    #[test]
    fn control_dependencies_are_edges() {
        let g = vdg("module m(input c, input a, output reg y);\n\
             always @(*) begin\nif (c) y = a; else y = 1'b0;\nend\nendmodule");
        let yc = g.edges().iter().any(|e| {
            g.signals()[e.from] == "c" && g.signals()[e.to] == "y" && e.kind == DepKind::Control
        });
        assert!(yc, "expected control edge c -> y");
    }

    #[test]
    fn sequential_flag_on_nonblocking_defs() {
        let g = vdg("module m(input clk, input d, output reg q);\n\
             always @(posedge clk) q <= d;\nendmodule");
        let e = g
            .edges()
            .iter()
            .find(|e| g.signals()[e.from] == "d" && g.signals()[e.to] == "q")
            .unwrap();
        assert!(e.sequential);
    }

    #[test]
    fn isolated_inputs_have_nodes() {
        let g = vdg("module m(input a, input unused, output y);\nassign y = a;\nendmodule");
        let unused = g.index_of("unused").unwrap();
        assert!(g.edges().iter().all(|e| e.from != unused));
    }

    #[test]
    fn self_influence_is_true() {
        let g = vdg("module m(input a, output y);\nassign y = a;\nendmodule");
        assert!(g.influences("a", "a"));
    }
}
