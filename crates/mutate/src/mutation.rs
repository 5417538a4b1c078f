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
//! statement can be compared against the golden design. A site names its
//! operand by [`MutationSite::occurrence`], whose doc states the one
//! occurrence order every site kind follows.

use verilog::{Assignment, BinaryOp, Expr, Module, StmtId, UnaryOp};

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
    /// Which node of the statement's RHS is mutated, counted in pre-order.
    ///
    /// Negation and misuse count signal occurrences in
    /// [`Expr::referenced_signals`] order: occurrence `n` is the `n`-th
    /// name that list holds. A `~ident` counts once, at its ident, and
    /// negating it removes the `~`. A bit or part select counts once, at
    /// its base, and negating it wraps the whole select; a bit select's
    /// index expression is walked after its base. Substitution counts
    /// binary operators, each before its operands, and only those with a
    /// wrong-operator substitution.
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
        let site = |kind, occurrence| MutationSite {
            stmt: a.id,
            kind,
            occurrence,
            replacement: None,
            new_op: None,
        };
        // Negation + misuse: one site per signal occurrence in the RHS.
        for (occ, original) in a.rhs.referenced_signals().into_iter().enumerate() {
            out.push(site(MutationKind::Negation, occ));
            for repl in misuse_candidates(module, a, original) {
                out.push(MutationSite {
                    replacement: Some(repl),
                    ..site(MutationKind::VariableMisuse, occ)
                });
            }
        }
        // Operation substitution: one site per substitutable binary op,
        // found by the same walker `apply` edits through (on a copy).
        let mut rhs = a.rhs.clone();
        for occ in 0.. {
            let Some(Expr::Binary { op, .. }) = nth_site(&mut rhs, true, occ) else {
                break;
            };
            for new_op in substitutions_for(*op) {
                out.push(MutationSite {
                    new_op: Some(new_op),
                    ..site(MutationKind::OperationSubstitution, occ)
                });
            }
        }
    }
    out
}

/// Applies a mutation site to a module, returning the mutated clone.
///
/// Statement ids are preserved. Returns `None` when the site does not apply
/// (unknown statement, stale occurrence index, or a misuse or substitution
/// site without its replacement).
pub fn apply(module: &Module, site: &MutationSite) -> Option<Module> {
    let mut mutated = module.clone();
    let rhs = &mut mutated.assignment_mut(site.stmt)?.rhs;
    let operators = site.kind == MutationKind::OperationSubstitution;
    let node = nth_site(rhs, operators, site.occurrence)?;
    match site.kind {
        MutationKind::Negation => {
            *node = match node.clone() {
                // The one unary site is a `~ident`: drop its `~`.
                Expr::Unary { operand, .. } => *operand,
                other => Expr::Unary {
                    op: UnaryOp::Not,
                    span: other.span(),
                    operand: Box::new(other),
                },
            }
        }
        MutationKind::VariableMisuse => {
            let repl = site.replacement.clone()?;
            let named = match node {
                Expr::Unary { operand, .. } => &mut **operand,
                other => other,
            };
            if let Expr::Ident { name, .. }
            | Expr::Index { base: name, .. }
            | Expr::Part { base: name, .. } = named
            {
                *name = repl;
            }
        }
        MutationKind::OperationSubstitution => {
            if let Expr::Binary { op, .. } = node {
                *op = site.new_op?;
            }
        }
    }
    Some(mutated)
}

/// The `n`-th site node of `e` in the [`MutationSite::occurrence`] order:
/// substitutable binary operators when `operators`, else signal
/// occurrences (an ident, a `~ident`, or a bit/part select).
fn nth_site(e: &mut Expr, operators: bool, mut n: usize) -> Option<&mut Expr> {
    fn walk<'e>(e: &'e mut Expr, operators: bool, n: &mut usize) -> Option<&'e mut Expr> {
        let site = match &*e {
            Expr::Unary {
                op: UnaryOp::Not,
                operand,
                ..
            } => !operators && matches!(**operand, Expr::Ident { .. }),
            Expr::Ident { .. } | Expr::Index { .. } | Expr::Part { .. } => !operators,
            Expr::Binary { op, .. } => operators && !substitutions_for(*op).is_empty(),
            _ => false,
        };
        if site {
            if *n == 0 {
                return Some(e);
            }
            *n -= 1;
        }
        match e {
            // A `~ident` site was counted above, at its ident.
            Expr::Unary { operand, .. } if !site => walk(operand, operators, n),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, operators, n).or_else(|| walk(rhs, operators, n))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => walk(cond, operators, n)
                .or_else(|| walk(then_expr, operators, n))
                .or_else(|| walk(else_expr, operators, n)),
            Expr::Index { index, .. } => walk(index, operators, n),
            Expr::Concat { parts, .. } => parts.iter_mut().find_map(|p| walk(p, operators, n)),
            Expr::Repeat { inner, .. } => walk(inner, operators, n),
            Expr::Unary { .. } | Expr::Ident { .. } | Expr::Literal { .. } | Expr::Part { .. } => {
                None
            }
        }
    }
    walk(e, operators, &mut n)
}

/// Candidate same-width replacement names for the signal `original` read
/// by `a`'s RHS, ranked by name similarity (most similar first, at most 3).
fn misuse_candidates(module: &Module, a: &Assignment, original: &str) -> Vec<String> {
    let width = module.width_of(original).unwrap_or(1);
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
            cands.push((levenshtein(original, name), name.to_owned()));
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
    fn a_select_counts_once_at_its_base_before_its_index() {
        let m = module(
            "module m(input [3:0] v, input [1:0] i, input [1:0] j, output y);\nassign y = v[i] & ~v[3:2];\nendmodule",
        );
        let mutant = |occurrence, kind, replacement: Option<&str>| {
            let site = MutationSite {
                stmt: StmtId(0),
                kind,
                occurrence,
                replacement: replacement.map(str::to_owned),
                new_op: None,
            };
            apply(&m, &site).map(|x| verilog::print_expr(&x.assignments()[0].rhs))
        };
        let negated = |occurrence| mutant(occurrence, MutationKind::Negation, None);
        assert_eq!(negated(0).unwrap(), "((~v[i]) & (~v[3:2]))");
        assert_eq!(negated(1).unwrap(), "(v[(~i)] & (~v[3:2]))");
        assert_eq!(negated(2).unwrap(), "(v[i] & (~(~v[3:2])))");
        assert_eq!(negated(3), None);
        let renamed = mutant(1, MutationKind::VariableMisuse, Some("j"));
        assert_eq!(renamed.unwrap(), "(v[j] & (~v[3:2]))");
    }

    #[test]
    fn sites_without_their_replacement_do_not_apply() {
        let m = module(SRC);
        let misuse = MutationSite {
            stmt: StmtId(0),
            kind: MutationKind::VariableMisuse,
            occurrence: 0,
            replacement: None,
            new_op: None,
        };
        assert_eq!(apply(&m, &misuse), None);
        let substitution = MutationSite {
            kind: MutationKind::OperationSubstitution,
            ..misuse
        };
        assert_eq!(apply(&m, &substitution), None);
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
