//! Statement-level control-data flow graph (CDFG).
//!
//! One node per assignment statement; a **data** edge `A → B` when `A`'s
//! defined signal is read by `B`'s right-hand side, and a **control** edge
//! `A → B` when `A`'s defined signal appears in a branch condition guarding
//! `B`. Guard conditions are accumulated while walking `if`/`case` bodies, so
//! every node also knows the full set of signals its execution depends on.

use verilog::{AssignKind, CaseStmt, Expr, IfStmt, Item, Module, Span, Stmt, StmtId};

/// Whether a dependency flows through data or control.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum DepKind {
    /// The source signal is read by the defining expression.
    Data,
    /// The source signal appears in a guarding branch condition.
    Control,
}

/// A CDFG node: one assignment statement plus its guard context.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CdfgNode {
    /// The statement's stable id.
    pub stmt: StmtId,
    /// Signal defined by the statement.
    pub lhs: String,
    /// Signals read by the right-hand side (dedup'd, source order).
    pub rhs_vars: Vec<String>,
    /// Signals read by every enclosing branch condition (dedup'd).
    pub guard_vars: Vec<String>,
    /// Continuous / blocking / non-blocking.
    pub kind: AssignKind,
    /// Source location of the statement.
    pub span: Span,
}

/// A directed CDFG edge between statement nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct CdfgEdge {
    /// Index of the defining node.
    pub from: usize,
    /// Index of the consuming node.
    pub to: usize,
    /// Data or control dependency.
    pub kind: DepKind,
}

/// The control-data flow graph of one module.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cdfg {
    nodes: Vec<CdfgNode>,
    edges: Vec<CdfgEdge>,
}

impl Cdfg {
    /// Builds the CDFG of a module.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let unit = verilog::parse(
    ///     "module m(input a, input b, output y);\n\
    ///      wire t;\nassign t = a & b;\nassign y = ~t;\nendmodule",
    /// )?;
    /// let cdfg = veribug_cdfg::Cdfg::build(unit.top());
    /// assert_eq!(cdfg.nodes().len(), 2);
    /// assert_eq!(cdfg.edges().len(), 1); // t flows into y
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(module: &Module) -> Self {
        let mut nodes = Vec::new();
        for item in &module.items {
            match item {
                Item::Assign(a) => {
                    nodes.push(CdfgNode {
                        stmt: a.id,
                        lhs: a.lhs.base.clone(),
                        rhs_vars: dedup(rhs_reads(a)),
                        guard_vars: Vec::new(),
                        kind: a.kind,
                        span: a.span,
                    });
                }
                Item::Always(blk) => {
                    let mut guards: Vec<String> = Vec::new();
                    collect_nodes(&blk.body, &mut guards, &mut nodes);
                }
            }
        }
        // Def→use edges between statements.
        let mut edges = Vec::new();
        for (from, def) in nodes.iter().enumerate() {
            for (to, usenode) in nodes.iter().enumerate() {
                if usenode.rhs_vars.contains(&def.lhs) {
                    edges.push(CdfgEdge {
                        from,
                        to,
                        kind: DepKind::Data,
                    });
                }
                if usenode.guard_vars.contains(&def.lhs) {
                    edges.push(CdfgEdge {
                        from,
                        to,
                        kind: DepKind::Control,
                    });
                }
            }
        }
        Cdfg { nodes, edges }
    }

    /// All statement nodes, indexed by position.
    pub fn nodes(&self) -> &[CdfgNode] {
        &self.nodes
    }

    /// All dependency edges.
    pub fn edges(&self) -> &[CdfgEdge] {
        &self.edges
    }
}

fn rhs_reads(a: &verilog::Assignment) -> Vec<String> {
    a.reads().into_iter().map(str::to_owned).collect()
}

fn expr_vars(e: &Expr) -> Vec<String> {
    e.referenced_signals()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

fn collect_nodes(stmts: &[Stmt], guards: &mut Vec<String>, nodes: &mut Vec<CdfgNode>) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => nodes.push(CdfgNode {
                stmt: a.id,
                lhs: a.lhs.base.clone(),
                rhs_vars: dedup(rhs_reads(a)),
                guard_vars: dedup(guards.clone()),
                kind: a.kind,
                span: a.span,
            }),
            Stmt::If(IfStmt {
                cond,
                then_branch,
                else_branch,
                ..
            }) => {
                let depth = guards.len();
                guards.extend(expr_vars(cond));
                collect_nodes(then_branch, guards, nodes);
                collect_nodes(else_branch, guards, nodes);
                guards.truncate(depth);
            }
            Stmt::Case(CaseStmt {
                subject,
                arms,
                default,
                ..
            }) => {
                let depth = guards.len();
                guards.extend(expr_vars(subject));
                for arm in arms {
                    for label in &arm.labels {
                        guards.extend(expr_vars(label));
                    }
                    collect_nodes(&arm.body, guards, nodes);
                    // Label vars only guard their own arm.
                    guards.truncate(depth + expr_vars(subject).len());
                }
                collect_nodes(default, guards, nodes);
                guards.truncate(depth);
            }
        }
    }
}

fn dedup(vars: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    vars.into_iter()
        .filter(|v| seen.insert(v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        verilog::parse(src).unwrap().top().clone()
    }

    #[test]
    fn data_edges_follow_def_use() {
        let m = module(
            "module m(input a, input b, output y);\nwire t;\nassign t = a & b;\nassign y = ~t;\nendmodule",
        );
        let g = Cdfg::build(&m);
        assert_eq!(g.nodes().len(), 2);
        let e = g.edges();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].kind, DepKind::Data);
        assert_eq!(g.nodes()[e[0].from].lhs, "t");
        assert_eq!(g.nodes()[e[0].to].lhs, "y");
    }

    #[test]
    fn guard_vars_accumulate_through_nesting() {
        let m = module(
            "module m(input c1, input c2, input a, output reg y);\n\
             always @(*) begin\n\
               if (c1) begin\n\
                 if (c2) y = a; else y = ~a;\n\
               end else y = 1'b0;\n\
             end\nendmodule",
        );
        let g = Cdfg::build(&m);
        assert_eq!(g.nodes().len(), 3);
        // First node: guarded by c1 and c2.
        assert_eq!(g.nodes()[0].guard_vars, vec!["c1", "c2"]);
        // Second (else of inner if): same guard set.
        assert_eq!(g.nodes()[1].guard_vars, vec!["c1", "c2"]);
        // Third (outer else): only c1.
        assert_eq!(g.nodes()[2].guard_vars, vec!["c1"]);
    }

    #[test]
    fn control_edges_from_guard_defs() {
        let m = module(
            "module m(input a, input b, output reg y);\nwire sel;\n\
             assign sel = a ^ b;\n\
             always @(*) begin\nif (sel) y = a; else y = b;\nend\nendmodule",
        );
        let g = Cdfg::build(&m);
        let ctrl: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == DepKind::Control)
            .collect();
        assert_eq!(ctrl.len(), 2); // sel guards both branch assignments
        for e in ctrl {
            assert_eq!(g.nodes()[e.from].lhs, "sel");
        }
    }

    #[test]
    fn case_labels_guard_only_their_arm() {
        let m = module(
            "module m(input [1:0] s, input a, input b, output reg y);\n\
             always @(*) begin\ncase (s)\n2'b00: y = a;\n2'b01: y = b;\ndefault: y = 1'b0;\nendcase\nend\nendmodule",
        );
        let g = Cdfg::build(&m);
        for n in g.nodes() {
            assert_eq!(n.guard_vars, vec!["s"]);
        }
    }

    #[test]
    fn defs_of_finds_multiple_branch_defs() {
        let m = module(
            "module m(input c, input a, input b, output reg y);\n\
             always @(*) begin\nif (c) y = a; else y = b;\nend\nendmodule",
        );
        let g = Cdfg::build(&m);
        assert_eq!(g.nodes().iter().filter(|n| n.lhs == "y").count(), 2);
    }

    #[test]
    fn lhs_bit_select_index_counts_as_read() {
        let m = module(
            "module m(input [1:0] i, input a, output reg [3:0] y);\n\
             always @(*) begin\ny[i] = a;\nend\nendmodule",
        );
        let g = Cdfg::build(&m);
        assert!(g.nodes()[0].rhs_vars.contains(&"a".to_owned()));
        assert!(g.nodes()[0].rhs_vars.contains(&"i".to_owned()));
    }
}
