//! Pretty-printer: emits parseable Verilog source from the AST.
//!
//! Used by the mutation engine (mutants are materialized as source), the RVDG
//! generator, and round-trip property tests. The printer always emits ANSI
//! port headers and fully parenthesized expressions, so `parse(print(ast))`
//! reproduces the expression structure exactly (spans and statement ids are
//! regenerated).

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a module as Verilog source text.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), veribug_verilog::ParseError> {
/// let unit = veribug_verilog::parse("module m(input a, output y); assign y = ~a; endmodule")?;
/// let src = veribug_verilog::print_module(unit.top());
/// let reparsed = veribug_verilog::parse(&src)?;
/// assert_eq!(reparsed.top().assignments().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let _ = write!(out, "module {}", module.name);
    if !module.ports.is_empty() {
        out.push_str("(\n");
        for (i, p) in module.ports.iter().enumerate() {
            let dir = p.dir.to_string();
            let reg = if p.is_reg { " reg" } else { "" };
            let range = if p.width > 1 {
                format!(" [{}:0]", p.width - 1)
            } else {
                String::new()
            };
            let sep = if i + 1 == module.ports.len() { "" } else { "," };
            let _ = writeln!(out, "  {dir}{reg}{range} {}{sep}", p.name);
        }
        out.push(')');
    }
    out.push_str(";\n");
    for d in &module.decls {
        // Skip decls that shadow ports (non-ANSI inputs re-declared as reg);
        // the ANSI header printed above already carries the storage class.
        if module.ports.iter().any(|p| p.name == d.name) {
            continue;
        }
        let kw = match d.kind {
            NetKind::Wire => "wire",
            NetKind::Reg => "reg",
        };
        if d.width > 1 {
            let _ = writeln!(out, "  {kw} [{}:0] {};", d.width - 1, d.name);
        } else {
            let _ = writeln!(out, "  {kw} {};", d.name);
        }
    }
    for item in &module.items {
        match item {
            Item::Assign(a) => {
                let _ = writeln!(
                    out,
                    "  assign {} = {};",
                    print_lvalue(&a.lhs),
                    print_expr(&a.rhs)
                );
            }
            Item::Always(blk) => {
                let sens = match &blk.sensitivity {
                    Sensitivity::Star => "*".to_owned(),
                    Sensitivity::Edges(edges) => edges
                        .iter()
                        .map(|(e, s)| {
                            let kw = match e {
                                EdgeKind::Pos => "posedge",
                                EdgeKind::Neg => "negedge",
                            };
                            format!("{kw} {s}")
                        })
                        .collect::<Vec<_>>()
                        .join(" or "),
                    Sensitivity::Level(names) => names.join(" or "),
                };
                let _ = writeln!(out, "  always @({sens}) begin");
                for s in &blk.body {
                    print_stmt(&mut out, s, 2);
                }
                out.push_str("  end\n");
            }
        }
    }
    out.push_str("endmodule\n");
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn print_stmt(out: &mut String, stmt: &Stmt, depth: usize) {
    match stmt {
        Stmt::Assign(a) => {
            indent(out, depth);
            let op = match a.kind {
                AssignKind::NonBlocking => "<=",
                _ => "=",
            };
            let _ = writeln!(out, "{} {op} {};", print_lvalue(&a.lhs), print_expr(&a.rhs));
        }
        Stmt::If(i) => {
            indent(out, depth);
            let _ = writeln!(out, "if ({}) begin", print_expr(&i.cond));
            for s in &i.then_branch {
                print_stmt(out, s, depth + 1);
            }
            indent(out, depth);
            if i.else_branch.is_empty() {
                out.push_str("end\n");
            } else {
                out.push_str("end else begin\n");
                for s in &i.else_branch {
                    print_stmt(out, s, depth + 1);
                }
                indent(out, depth);
                out.push_str("end\n");
            }
        }
        Stmt::Case(c) => {
            indent(out, depth);
            let kw = if c.casez { "casez" } else { "case" };
            let _ = writeln!(out, "{kw} ({})", print_expr(&c.subject));
            for arm in &c.arms {
                indent(out, depth + 1);
                let labels = arm
                    .labels
                    .iter()
                    .map(print_expr)
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "{labels}: begin");
                for s in &arm.body {
                    print_stmt(out, s, depth + 2);
                }
                indent(out, depth + 1);
                out.push_str("end\n");
            }
            if !c.default.is_empty() {
                indent(out, depth + 1);
                out.push_str("default: begin\n");
                for s in &c.default {
                    print_stmt(out, s, depth + 2);
                }
                indent(out, depth + 1);
                out.push_str("end\n");
            }
            indent(out, depth);
            out.push_str("endcase\n");
        }
    }
}

fn print_lvalue(lv: &LValue) -> String {
    match &lv.select {
        None => lv.base.clone(),
        Some(Select::Bit(i)) => format!("{}[{}]", lv.base, print_expr(i)),
        Some(Select::Part { msb, lsb }) => format!("{}[{msb}:{lsb}]", lv.base),
    }
}

/// Renders an assignment as the one-line label suspects, attributions and
/// analyze summaries show: `base = rhs`, the target without its select.
pub fn print_label(a: &Assignment) -> String {
    format!("{} = {}", a.lhs.base, print_expr(&a.rhs))
}

/// Renders an expression, fully parenthesized.
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Ident { name, .. } => name.clone(),
        Expr::Literal { width, value, .. } => match width {
            Some(w) => format!("{w}'d{value}"),
            None => format!("{value}"),
        },
        Expr::Unary { op, operand, .. } => {
            format!("({}{})", op.symbol(), print_expr(operand))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            format!("({} {} {})", print_expr(lhs), op.symbol(), print_expr(rhs))
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => format!(
            "({} ? {} : {})",
            print_expr(cond),
            print_expr(then_expr),
            print_expr(else_expr)
        ),
        Expr::Index { base, index, .. } => format!("{base}[{}]", print_expr(index)),
        Expr::Part { base, msb, lsb, .. } => format!("{base}[{msb}:{lsb}]"),
        Expr::Concat { parts, .. } => {
            let inner = parts.iter().map(print_expr).collect::<Vec<_>>().join(", ");
            format!("{{{inner}}}")
        }
        Expr::Repeat { count, inner, .. } => {
            format!("{{{count}{{{}}}}}", print_expr(inner))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn strip_volatile(unit: &SourceUnit) -> Vec<(AssignKind, String, String)> {
        unit.top()
            .assignments()
            .iter()
            .map(|a| (a.kind, print_lvalue(&a.lhs), print_expr(&a.rhs)))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let src = "\
module m(input clk, input a, input [3:0] b, output reg y, output [1:0] z);
  wire t;
  assign t = a ? b[0] : b[1];
  assign z = {a, t};
  always @(posedge clk) begin
    if (a & t) y <= b[2] ^ ~b[3];
    else y <= |b;
  end
endmodule
";
        let unit1 = parse(src).unwrap();
        let printed = print_module(unit1.top());
        let unit2 = parse(&printed).unwrap();
        assert_eq!(strip_volatile(&unit1), strip_volatile(&unit2));
        // Statement ids are regenerated in the same source order.
        let ids1: Vec<_> = unit1.top().assignments().iter().map(|a| a.id).collect();
        let ids2: Vec<_> = unit2.top().assignments().iter().map(|a| a.id).collect();
        assert_eq!(ids1, ids2);
    }

    #[test]
    fn prints_case_roundtrip() {
        let src = "\
module m(input [1:0] sel, input a, output reg y);
  always @(*) begin
    case (sel)
      2'b00: y = a;
      default: y = 1'b0;
    endcase
  end
endmodule
";
        let unit1 = parse(src).unwrap();
        let printed = print_module(unit1.top());
        let unit2 = parse(&printed).unwrap();
        assert_eq!(strip_volatile(&unit1), strip_volatile(&unit2));
    }
}
