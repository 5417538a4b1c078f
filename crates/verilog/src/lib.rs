//! # veribug-verilog
//!
//! Lexer, parser, typed AST, and pretty-printer for the synthesizable
//! Verilog-2001 subset used throughout the VeriBug reproduction.
//!
//! The subset covers what the paper's designs and its Random Verilog Design
//! Generator exercise: modules with ANSI or non-ANSI port lists, `wire`/`reg`
//! declarations with constant ranges up to 64 bits, parameters (folded at
//! parse time), continuous assignments, combinational and edge-sensitive
//! `always` blocks, `if`/`else if`/`case`, blocking and non-blocking
//! assignments, the full unary/binary/ternary operator set, bit/part selects,
//! concatenation, and replication. Four-state logic (`x`/`z`) is excluded —
//! the downstream simulator is two-state.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), veribug_verilog::ParseError> {
//! use veribug_verilog::{parse, print_module};
//!
//! let unit = parse(
//!     "module arb(input req1, input req2, output gnt1);\n\
//!      assign gnt1 = req1 & ~req2;\nendmodule",
//! )?;
//! let module = unit.top();
//! assert_eq!(module.output_names(), vec!["gnt1"]);
//! let roundtrip = parse(&print_module(module))?;
//! assert_eq!(roundtrip.top().assignments().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod ast;
mod error;
mod lexer;
mod parser;
mod pretty;
mod token;

pub use ast::{
    AlwaysBlock, AssignKind, Assignment, BinaryOp, CaseArm, CaseStmt, Decl, EdgeKind, Expr, IfStmt,
    Item, LValue, Module, NetKind, NodeKind, Param, Port, PortDir, Select, Sensitivity, SourceUnit,
    Stmt, StmtId, UnaryOp,
};
pub use error::ParseError;
pub use lexer::lex;
pub use parser::parse;
pub use pretty::{print_expr, print_label, print_module};
pub use token::{Keyword, Span, Token, TokenKind};
