//! Mutation operators: the paper's three data-centric bug classes.
//!
//! - **Negation** — insert a wrong `~` in front of an operand, or remove an
//!   existing one;
//! - **Variable misuse** — replace a variable with another, preferring
//!   syntactically similar names (the classic copy-paste error);
//! - **Operation substitution** — replace a Boolean operator with a wrong
//!   one (e.g. `|` → `&`).
//!
//! One bug per mutated design; statement ids are preserved so the mutated
//! statement can be compared against the golden design.

use verilog::{Assignment, BinaryOp, Expr, Item, Module, Stmt, StmtId, UnaryOp};

/// The paper's three injected bug types.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum MutationKind {
    /// Insert or remove a `~` on an operand.
    Negation,
    /// Swap one variable reference for another.
    VariableMisuse,
    /// Swap one Boolean operator for another.
    OperationSubstitution,
}

impl MutationKind {
    /// All kinds, in the paper's Table III column order.
    pub const ALL: [MutationKind; 3] = [
        MutationKind::Negation,
        MutationKind::OperationSubstitution,
        MutationKind::VariableMisuse,
    ];
}

impl std::fmt::Display for MutationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MutationKind::Negation => "negation",
            MutationKind::VariableMisuse => "variable-misuse",
            MutationKind::OperationSubstitution => "operation-substitution",
        })
    }
}

/// A concrete mutation site inside a module.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct MutationSite {
    /// Which statement is mutated.
    pub stmt: StmtId,
    /// The bug class.
    pub kind: MutationKind,
    /// Occurrence index of the mutated node inside the statement's RHS
    /// (idents for negation/misuse, binary ops for substitution).
    pub occurrence: usize,
    /// For [`MutationKind::VariableMisuse`]: the replacement signal name.
    pub replacement: Option<String>,
    /// For [`MutationKind::OperationSubstitution`]: the replacement operator.
    pub new_op: Option<BinaryOp>,
}

/// Enumerates every applicable mutation site in `module`, optionally
/// restricted to a statement set (e.g. the static slice of a target).
pub fn enumerate_sites(
    module: &Module,
    restrict: Option<&std::collections::BTreeSet<StmtId>>,
) -> Vec<MutationSite> {
    let mut out = Vec::new();
    for a in module.assignments() {
        if let Some(r) = restrict {
            if !r.contains(&a.id) {
                continue;
            }
        }
        // Negation + misuse: one site per ident occurrence in the RHS.
        let idents = count_idents(&a.rhs);
        for occ in 0..idents {
            out.push(MutationSite {
                stmt: a.id,
                kind: MutationKind::Negation,
                occurrence: occ,
                replacement: None,
                new_op: None,
            });
            for repl in misuse_candidates(module, a, occ) {
                out.push(MutationSite {
                    stmt: a.id,
                    kind: MutationKind::VariableMisuse,
                    occurrence: occ,
                    replacement: Some(repl),
                    new_op: None,
                });
            }
        }
        // Operation substitution: one site per substitutable binary op.
        let ops = collect_ops(&a.rhs);
        for (occ, op) in ops.iter().enumerate() {
            for new_op in substitutions_for(*op) {
                out.push(MutationSite {
                    stmt: a.id,
                    kind: MutationKind::OperationSubstitution,
                    occurrence: occ,
                    replacement: None,
                    new_op: Some(new_op),
                });
            }
        }
    }
    out
}

/// Applies a mutation site to a module, returning the mutated clone.
///
/// Statement ids are preserved. Returns `None` when the site does not apply
/// (stale occurrence index, unknown statement).
pub fn apply(module: &Module, site: &MutationSite) -> Option<Module> {
    let mut mutated = module.clone();
    let mut applied = false;
    for_each_assignment_mut(&mut mutated, |a| {
        if a.id != site.stmt || applied {
            return None;
        }
        applied = match site.kind {
            MutationKind::Negation => toggle_negation(&mut a.rhs, &mut site.occurrence.clone()),
            MutationKind::VariableMisuse => {
                let repl = site.replacement.clone().unwrap_or_default();
                rename_ident(&mut a.rhs, &mut site.occurrence.clone(), &repl)
            }
            MutationKind::OperationSubstitution => {
                let new_op = site.new_op?;
                replace_op(&mut a.rhs, &mut site.occurrence.clone(), new_op)
            }
        }
        .is_some();
        Some(())
    });
    applied.then_some(mutated)
}

/// Candidate same-width replacement names for the `occ`-th ident of `a`'s
/// RHS, ranked by name similarity (most similar first, at most 3).
fn misuse_candidates(module: &Module, a: &Assignment, occ: usize) -> Vec<String> {
    let Some(original) = nth_ident(&a.rhs, occ) else {
        return Vec::new();
    };
    let width = module.width_of(&original).unwrap_or(1);
    let mut cands: Vec<(usize, String)> = Vec::new();
    let mut consider = |name: &str| {
        if name == original || name == a.lhs.base {
            return;
        }
        let lower = name.to_ascii_lowercase();
        if lower == "clk" || lower == "clock" {
            return;
        }
        if module.width_of(name) == Some(width) {
            cands.push((levenshtein(&original, name), name.to_owned()));
        }
    };
    for p in &module.ports {
        consider(&p.name);
    }
    for d in &module.decls {
        consider(&d.name);
    }
    cands.sort();
    cands.truncate(3);
    cands.into_iter().map(|(_, n)| n).collect()
}

/// Wrong-operator substitutions the paper's campaign draws from.
fn substitutions_for(op: BinaryOp) -> Vec<BinaryOp> {
    match op {
        BinaryOp::And => vec![BinaryOp::Or, BinaryOp::Xor],
        BinaryOp::Or => vec![BinaryOp::And, BinaryOp::Xor],
        BinaryOp::Xor => vec![BinaryOp::And, BinaryOp::Or, BinaryOp::Xnor],
        BinaryOp::Xnor => vec![BinaryOp::Xor],
        BinaryOp::LogAnd => vec![BinaryOp::LogOr],
        BinaryOp::LogOr => vec![BinaryOp::LogAnd],
        BinaryOp::Eq => vec![BinaryOp::Neq],
        BinaryOp::Neq => vec![BinaryOp::Eq],
        BinaryOp::Lt => vec![BinaryOp::Le, BinaryOp::Ge],
        BinaryOp::Le => vec![BinaryOp::Lt, BinaryOp::Gt],
        BinaryOp::Gt => vec![BinaryOp::Ge, BinaryOp::Le],
        BinaryOp::Ge => vec![BinaryOp::Gt, BinaryOp::Lt],
        BinaryOp::Add => vec![BinaryOp::Sub],
        BinaryOp::Sub => vec![BinaryOp::Add],
        _ => Vec::new(),
    }
}

// ---- AST walking helpers ----

/// Calls `f` on every assignment of the module (mutably). `f` returning
/// `Some(())` is ignored; it exists so callers can use `?` internally.
fn for_each_assignment_mut(module: &mut Module, mut f: impl FnMut(&mut Assignment) -> Option<()>) {
    fn walk(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Assignment) -> Option<()>) {
        for s in stmts {
            match s {
                Stmt::Assign(a) => {
                    let _ = f(a);
                }
                Stmt::If(i) => {
                    walk(&mut i.then_branch, f);
                    walk(&mut i.else_branch, f);
                }
                Stmt::Case(c) => {
                    for arm in &mut c.arms {
                        walk(&mut arm.body, f);
                    }
                    walk(&mut c.default, f);
                }
            }
        }
    }
    for item in &mut module.items {
        match item {
            Item::Assign(a) => {
                let _ = f(a);
            }
            Item::Always(b) => walk(&mut b.body, &mut f),
        }
    }
}

fn count_idents(e: &Expr) -> usize {
    match e {
        Expr::Ident { .. } => 1,
        Expr::Literal { .. } => 0,
        Expr::Unary { operand, .. } => count_idents(operand),
        Expr::Binary { lhs, rhs, .. } => count_idents(lhs) + count_idents(rhs),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => count_idents(cond) + count_idents(then_expr) + count_idents(else_expr),
        Expr::Index { index, .. } => 1 + count_idents(index),
        Expr::Part { .. } => 1,
        Expr::Concat { parts, .. } => parts.iter().map(count_idents).sum(),
        Expr::Repeat { inner, .. } => count_idents(inner),
    }
}

fn nth_ident(e: &Expr, n: usize) -> Option<String> {
    let mut counter = n;
    find_ident(e, &mut counter)
}

fn find_ident(e: &Expr, counter: &mut usize) -> Option<String> {
    let take = |name: &str, counter: &mut usize| {
        if *counter == 0 {
            Some(name.to_owned())
        } else {
            *counter -= 1;
            None
        }
    };
    match e {
        Expr::Ident { name, .. } => take(name, counter),
        Expr::Literal { .. } => None,
        Expr::Unary { operand, .. } => find_ident(operand, counter),
        Expr::Binary { lhs, rhs, .. } => {
            find_ident(lhs, counter).or_else(|| find_ident(rhs, counter))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => find_ident(cond, counter)
            .or_else(|| find_ident(then_expr, counter))
            .or_else(|| find_ident(else_expr, counter)),
        Expr::Index { base, index, .. } => {
            take(base, counter).or_else(|| find_ident(index, counter))
        }
        Expr::Part { base, .. } => take(base, counter),
        Expr::Concat { parts, .. } => parts.iter().find_map(|p| find_ident(p, counter)),
        Expr::Repeat { inner, .. } => find_ident(inner, counter),
    }
}

/// Toggles `~` on the `counter`-th ident occurrence (pre-order).
fn toggle_negation(e: &mut Expr, counter: &mut usize) -> Option<()> {
    // Removal case: `~ident` where the ident is the targeted occurrence.
    if let Expr::Unary {
        op: UnaryOp::Not,
        operand,
        ..
    } = e
    {
        if matches!(**operand, Expr::Ident { .. }) {
            if *counter == 0 {
                *e = (**operand).clone();
                return Some(());
            }
            *counter -= 1;
            return None;
        }
    }
    // A bit/part select counts as one occurrence at its base; negating it
    // wraps the whole select expression.
    if matches!(e, Expr::Index { .. } | Expr::Part { .. }) {
        if *counter == 0 {
            let span = e.span();
            let inner = e.clone();
            *e = Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(inner),
                span,
            };
            return Some(());
        }
        *counter -= 1;
        if let Expr::Index { index, .. } = e {
            return toggle_negation(index, counter);
        }
        return None;
    }
    match e {
        Expr::Ident { name, span } => {
            if *counter == 0 {
                let ident = Expr::Ident {
                    name: name.clone(),
                    span: *span,
                };
                *e = Expr::Unary {
                    op: UnaryOp::Not,
                    operand: Box::new(ident),
                    span: *span,
                };
                Some(())
            } else {
                *counter -= 1;
                None
            }
        }
        Expr::Literal { .. } => None,
        Expr::Unary { operand, .. } => toggle_negation(operand, counter),
        Expr::Binary { lhs, rhs, .. } => {
            toggle_negation(lhs, counter).or_else(|| toggle_negation(rhs, counter))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => toggle_negation(cond, counter)
            .or_else(|| toggle_negation(then_expr, counter))
            .or_else(|| toggle_negation(else_expr, counter)),
        // Handled by the wrap-case above.
        Expr::Index { .. } | Expr::Part { .. } => None,
        Expr::Concat { parts, .. } => parts.iter_mut().find_map(|p| toggle_negation(p, counter)),
        Expr::Repeat { inner, .. } => toggle_negation(inner, counter),
    }
}

/// Renames the `counter`-th ident occurrence to `replacement`.
fn rename_ident(e: &mut Expr, counter: &mut usize, replacement: &str) -> Option<()> {
    match e {
        Expr::Ident { name, .. } => {
            if *counter == 0 {
                *name = replacement.to_owned();
                Some(())
            } else {
                *counter -= 1;
                None
            }
        }
        Expr::Literal { .. } => None,
        Expr::Unary { operand, .. } => rename_ident(operand, counter, replacement),
        Expr::Binary { lhs, rhs, .. } => rename_ident(lhs, counter, replacement)
            .or_else(|| rename_ident(rhs, counter, replacement)),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => rename_ident(cond, counter, replacement)
            .or_else(|| rename_ident(then_expr, counter, replacement))
            .or_else(|| rename_ident(else_expr, counter, replacement)),
        Expr::Index { base, index, .. } => {
            if *counter == 0 {
                *base = replacement.to_owned();
                Some(())
            } else {
                *counter -= 1;
                rename_ident(index, counter, replacement)
            }
        }
        Expr::Part { base, .. } => {
            if *counter == 0 {
                *base = replacement.to_owned();
                Some(())
            } else {
                *counter -= 1;
                None
            }
        }
        Expr::Concat { parts, .. } => parts
            .iter_mut()
            .find_map(|p| rename_ident(p, counter, replacement)),
        Expr::Repeat { inner, .. } => rename_ident(inner, counter, replacement),
    }
}

fn collect_ops(e: &Expr) -> Vec<BinaryOp> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<BinaryOp>) {
        match e {
            Expr::Binary { op, lhs, rhs, .. } => {
                if !substitutions_for(*op).is_empty() {
                    out.push(*op);
                }
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Unary { operand, .. } => walk(operand, out),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                walk(cond, out);
                walk(then_expr, out);
                walk(else_expr, out);
            }
            Expr::Index { index, .. } => walk(index, out),
            Expr::Concat { parts, .. } => parts.iter().for_each(|p| walk(p, out)),
            Expr::Repeat { inner, .. } => walk(inner, out),
            Expr::Ident { .. } | Expr::Literal { .. } | Expr::Part { .. } => {}
        }
    }
    walk(e, &mut out);
    out
}

/// Replaces the `counter`-th substitutable binary op (pre-order).
fn replace_op(e: &mut Expr, counter: &mut usize, new_op: BinaryOp) -> Option<()> {
    match e {
        Expr::Binary { op, lhs, rhs, .. } => {
            if !substitutions_for(*op).is_empty() {
                if *counter == 0 {
                    *op = new_op;
                    return Some(());
                }
                *counter -= 1;
            }
            replace_op(lhs, counter, new_op).or_else(|| replace_op(rhs, counter, new_op))
        }
        Expr::Unary { operand, .. } => replace_op(operand, counter, new_op),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => replace_op(cond, counter, new_op)
            .or_else(|| replace_op(then_expr, counter, new_op))
            .or_else(|| replace_op(else_expr, counter, new_op)),
        Expr::Index { index, .. } => replace_op(index, counter, new_op),
        Expr::Concat { parts, .. } => parts
            .iter_mut()
            .find_map(|p| replace_op(p, counter, new_op)),
        Expr::Repeat { inner, .. } => replace_op(inner, counter, new_op),
        Expr::Ident { .. } | Expr::Literal { .. } | Expr::Part { .. } => None,
    }
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(src: &str) -> Module {
        verilog::parse(src).unwrap().top().clone()
    }

    const SRC: &str =
        "module m(input a, input b, input ab, output y);\nassign y = a & ~b;\nendmodule";

    #[test]
    fn negation_insert_and_remove() {
        let m = module(SRC);
        // Occurrence 0 = `a`: insert a not.
        let site = MutationSite {
            stmt: StmtId(0),
            kind: MutationKind::Negation,
            occurrence: 0,
            replacement: None,
            new_op: None,
        };
        let mutated = apply(&m, &site).unwrap();
        let printed = verilog::print_expr(&mutated.assignments()[0].rhs);
        assert_eq!(printed, "((~a) & (~b))");
        // Occurrence 1 = `b` under a not: remove it.
        let site = MutationSite {
            occurrence: 1,
            ..site
        };
        let mutated = apply(&m, &site).unwrap();
        let printed = verilog::print_expr(&mutated.assignments()[0].rhs);
        assert_eq!(printed, "(a & b)");
    }

    #[test]
    fn operation_substitution() {
        let m = module(SRC);
        let site = MutationSite {
            stmt: StmtId(0),
            kind: MutationKind::OperationSubstitution,
            occurrence: 0,
            replacement: None,
            new_op: Some(BinaryOp::Or),
        };
        let mutated = apply(&m, &site).unwrap();
        let printed = verilog::print_expr(&mutated.assignments()[0].rhs);
        assert_eq!(printed, "(a | (~b))");
    }

    #[test]
    fn variable_misuse_prefers_similar_names() {
        let m = module(SRC);
        let sites = enumerate_sites(&m, None);
        let misuse: Vec<_> = sites
            .iter()
            .filter(|s| s.kind == MutationKind::VariableMisuse && s.occurrence == 0)
            .collect();
        // For `a`, the closest names are `b` (distance 1) and `ab` (1).
        assert!(!misuse.is_empty());
        let first = misuse[0].replacement.as_deref().unwrap();
        assert!(first == "b" || first == "ab");
        let mutated = apply(&m, misuse[0]).unwrap();
        let printed = verilog::print_expr(&mutated.assignments()[0].rhs);
        assert!(printed.contains(first));
    }

    #[test]
    fn statement_ids_preserved_after_mutation() {
        let m = module(
            "module m(input a, input b, output y, output z);\nassign y = a & b;\nassign z = a | b;\nendmodule",
        );
        let site = MutationSite {
            stmt: StmtId(1),
            kind: MutationKind::Negation,
            occurrence: 0,
            replacement: None,
            new_op: None,
        };
        let mutated = apply(&m, &site).unwrap();
        let ids: Vec<_> = mutated.assignments().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![StmtId(0), StmtId(1)]);
        // Only statement 1 changed.
        assert_eq!(m.assignments()[0], mutated.assignments()[0]);
        assert_ne!(m.assignments()[1], mutated.assignments()[1]);
    }

    #[test]
    fn mutants_reparse() {
        let m = module(SRC);
        for site in enumerate_sites(&m, None) {
            let Some(mutated) = apply(&m, &site) else {
                continue;
            };
            let src = verilog::print_module(&mutated);
            verilog::parse(&src).unwrap_or_else(|e| panic!("mutant failed to reparse: {e}\n{src}"));
        }
    }

    #[test]
    fn restriction_filters_statements() {
        let m = module(
            "module m(input a, input b, output y, output z);\nassign y = a & b;\nassign z = a | b;\nendmodule",
        );
        let only_first: std::collections::BTreeSet<_> = [StmtId(0)].into_iter().collect();
        let sites = enumerate_sites(&m, Some(&only_first));
        assert!(sites.iter().all(|s| s.stmt == StmtId(0)));
        assert!(!sites.is_empty());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("req1", "req2"), 1);
        assert_eq!(levenshtein("stall", "stall"), 0);
        assert_eq!(levenshtein("a", "xyz"), 3);
    }

    #[test]
    fn misuse_never_suggests_lhs_or_clock() {
        let m = module(
            "module m(input clk, input d, input e, output reg q);\nalways @(posedge clk) q <= d & e;\nendmodule",
        );
        for s in enumerate_sites(&m, None) {
            if let Some(r) = &s.replacement {
                assert_ne!(r, "q");
                assert_ne!(r, "clk");
            }
        }
    }
}
