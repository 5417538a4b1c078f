//! Levelization of combinational processes.
//!
//! A cycle-based simulator can replace its fixpoint settle loop with a single
//! pass when the combinational processes admit a topological order under the
//! writes-before-reads relation. This module computes, for every
//! combinational process of a module (continuous assigns and `@(*)`/level
//! always blocks, in source order), its **exposed read set** and **write
//! set**, then orders the processes so every writer runs before its readers.
//!
//! A read is *exposed* when the signal's value can flow in from outside the
//! process: a reference is not exposed only if the signal was definitely
//! assigned — fully and on every control path — earlier in the same process.
//! Exposed reads are what create scheduling edges; block-local temporaries
//! (written then read inside one `always`) do not.
//!
//! The analysis is conservative: `if`/`case` branches contribute the
//! *intersection* of their definitely-written sets, only whole-signal
//! assignments (no bit/part select) count as definite writes, and every
//! `case` label is treated as read. When the conservative dependency graph
//! has a cycle (including a self-loop), [`levelize`] reports `order: None`
//! and the caller must iterate to a fixpoint instead.

use std::collections::BTreeSet;

use verilog::{Expr, Item, LValue, Module, Select, Stmt};

/// Read/write summary of one combinational process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombProcess {
    /// Index of the originating item in [`Module::items`].
    pub item: usize,
    /// Signals whose outside value the process may read (exposed reads).
    pub reads: BTreeSet<String>,
    /// Signals the process may write.
    pub writes: BTreeSet<String>,
}

/// The levelization result for a module's combinational processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// One summary per combinational process, in source order — the same
    /// order a simulator's elaboration classifies them.
    pub processes: Vec<CombProcess>,
    /// Indices into `processes` in evaluation order, or `None` when the
    /// dependency graph is cyclic (a static combinational loop).
    pub order: Option<Vec<usize>>,
}

impl Levelization {
    /// True when a single ordered pass suffices to settle the logic.
    pub fn is_acyclic(&self) -> bool {
        self.order.is_some()
    }
}

/// Computes read/write sets for every combinational process and a
/// deterministic topological evaluation order (smallest process index first
/// among ready processes), or `None` if the dependency graph is cyclic.
pub fn levelize(module: &Module) -> Levelization {
    let mut processes = Vec::new();
    for (item_idx, item) in module.items.iter().enumerate() {
        let mut p = CombProcess {
            item: item_idx,
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
        };
        match item {
            Item::Assign(a) => {
                let mut defined = BTreeSet::new();
                assign_deps(&a.rhs, &a.lhs, a.lhs.select.is_none(), &mut defined, &mut p);
            }
            Item::Always(blk) if blk.sensitivity.is_combinational() => {
                let mut defined = BTreeSet::new();
                stmts_deps(&blk.body, &mut defined, &mut p);
            }
            Item::Always(_) => continue,
        }
        processes.push(p);
    }

    let order = topo_order(&processes);
    Levelization { processes, order }
}

/// Adds every signal `e` references that is not already definitely written.
fn expr_reads(e: &Expr, defined: &BTreeSet<String>, p: &mut CombProcess) {
    for name in e.referenced_signals() {
        if !defined.contains(name) {
            p.reads.insert(name.to_owned());
        }
    }
}

/// Records one assignment's reads and its write; `full` marks a
/// whole-signal assignment that definitely overwrites the target.
fn assign_deps(
    rhs: &Expr,
    lhs: &LValue,
    full: bool,
    defined: &mut BTreeSet<String>,
    p: &mut CombProcess,
) {
    expr_reads(rhs, defined, p);
    match &lhs.select {
        Some(Select::Bit(idx)) => expr_reads(idx, defined, p),
        Some(Select::Part { .. }) | None => {}
    }
    // A partial write reads the unreplaced bits of the previous value.
    if !full && !defined.contains(&lhs.base) {
        p.reads.insert(lhs.base.clone());
    }
    p.writes.insert(lhs.base.clone());
    if full {
        defined.insert(lhs.base.clone());
    }
}

/// Walks a statement list tracking the definitely-written set.
fn stmts_deps(stmts: &[Stmt], defined: &mut BTreeSet<String>, p: &mut CombProcess) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                assign_deps(&a.rhs, &a.lhs, a.lhs.select.is_none(), defined, p);
            }
            Stmt::If(i) => {
                expr_reads(&i.cond, defined, p);
                let mut then_def = defined.clone();
                stmts_deps(&i.then_branch, &mut then_def, p);
                let mut else_def = defined.clone();
                stmts_deps(&i.else_branch, &mut else_def, p);
                *defined = then_def.intersection(&else_def).cloned().collect();
            }
            Stmt::Case(c) => {
                expr_reads(&c.subject, defined, p);
                // Labels are evaluated until one matches; conservatively all read.
                for arm in &c.arms {
                    for label in &arm.labels {
                        expr_reads(label, defined, p);
                    }
                }
                let mut merged: Option<BTreeSet<String>> = None;
                for body in c
                    .arms
                    .iter()
                    .map(|arm| arm.body.as_slice())
                    .chain(std::iter::once(c.default.as_slice()))
                {
                    let mut branch_def = defined.clone();
                    stmts_deps(body, &mut branch_def, p);
                    merged = Some(match merged {
                        None => branch_def,
                        Some(m) => m.intersection(&branch_def).cloned().collect(),
                    });
                }
                if let Some(m) = merged {
                    *defined = m;
                }
            }
        }
    }
}

/// Kahn's algorithm with a smallest-index-first ready set, so the order is
/// deterministic and independent of hash state or thread count.
fn topo_order(processes: &[CombProcess]) -> Option<Vec<usize>> {
    let n = processes.len();
    // Self-loop: an exposed read of a signal the same process writes means
    // the process's input depends on its own output.
    for p in processes {
        if p.reads.intersection(&p.writes).next().is_some() {
            return None;
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, pi) in processes.iter().enumerate() {
        for (j, pj) in processes.iter().enumerate() {
            if i != j && pi.writes.intersection(&pj.reads).next().is_some() {
                succs[i].push(j);
                indeg[j] += 1;
            }
        }
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(i);
        for &j in &succs[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.insert(j);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lev(src: &str) -> Levelization {
        levelize(verilog::parse(src).unwrap().top())
    }

    #[test]
    fn chain_orders_writer_before_reader() {
        let l = lev("module m(input a, output y);\nwire t1, t2;\n\
                     assign t2 = ~t1;\nassign t1 = ~a;\nassign y = t2;\nendmodule");
        // Processes in source order: t2=~t1 (0), t1=~a (1), y=t2 (2).
        let order = l.order.expect("acyclic");
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(1) < pos(0), "t1 settles before t2");
        assert!(pos(0) < pos(2), "t2 settles before y");
    }

    #[test]
    fn static_loop_is_reported() {
        let l = lev("module m(input a, output y);\nwire t;\n\
                     assign t = ~y;\nassign y = t & a;\nendmodule");
        assert!(!l.is_acyclic());
    }

    #[test]
    fn self_dependency_is_a_loop() {
        let l = lev("module m(output reg y);\nalways @(*) y = ~y;\nendmodule");
        assert!(!l.is_acyclic());
    }

    #[test]
    fn block_local_temporary_is_not_exposed() {
        let l = lev("module m(input a, output reg y);\nreg t;\n\
                     always @(*) begin\nt = ~a;\ny = t;\nend\nendmodule");
        assert_eq!(l.processes.len(), 1);
        let p = &l.processes[0];
        assert!(p.reads.contains("a"));
        assert!(!p.reads.contains("t"), "t is written before it is read");
        assert!(p.writes.contains("t") && p.writes.contains("y"));
        assert!(l.is_acyclic());
    }

    #[test]
    fn read_before_write_in_branch_is_exposed() {
        // Only the then-branch defines t before the trailing read, so the
        // read of t stays exposed (and self-loops the process).
        let l = lev("module m(input a, input c, output reg y);\nreg t;\n\
                     always @(*) begin\nif (c) t = a;\ny = t;\nend\nendmodule");
        let p = &l.processes[0];
        assert!(p.reads.contains("t"));
        assert!(!l.is_acyclic(), "t in reads and writes is a self-loop");
    }

    #[test]
    fn case_without_default_does_not_define() {
        let l = lev(
            "module m(input [1:0] s, input a, output reg y, output reg z);\n\
                     always @(*) begin\ncase (s)\n2'b00: y = a;\n2'b01: y = ~a;\nendcase\n\
                     z = y;\nend\nendmodule",
        );
        let p = &l.processes[0];
        // The implicit empty default leaves y undefined on that path, so the
        // later read of y is exposed.
        assert!(p.reads.contains("y"));
        assert!(!l.is_acyclic());
    }

    #[test]
    fn partial_write_reads_previous_value() {
        let l = lev("module m(input a, output reg [3:0] y);\n\
                     always @(*) y[0] = a;\nendmodule");
        let p = &l.processes[0];
        assert!(p.reads.contains("y"), "partial write keeps unwritten bits");
        assert!(!l.is_acyclic());
    }

    #[test]
    fn sequential_blocks_are_ignored() {
        let l = lev("module m(input clk, input d, output reg q, output w);\n\
                     assign w = q;\nalways @(posedge clk) q <= d;\nendmodule");
        assert_eq!(l.processes.len(), 1);
        assert_eq!(l.processes[0].item, 0);
        assert!(l.is_acyclic());
    }

    #[test]
    fn order_is_deterministic() {
        let src = "module m(input a, output v, output w, output x, output y);\n\
                   assign v = a;\nassign w = a;\nassign x = a;\nassign y = a;\nendmodule";
        let a = lev(src).order.unwrap();
        let b = lev(src).order.unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![0, 1, 2, 3],
            "independent processes keep source order"
        );
    }
}
