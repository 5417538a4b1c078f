//! Typed AST for the Verilog subset.
//!
//! The AST serves three masters:
//!
//! 1. the RTL simulator (`veribug-sim`) elaborates and executes it,
//! 2. the static analyzer (`veribug-cdfg`) builds CDFG/VDG views over it,
//! 3. VeriBug's feature extractor walks assignment ASTs to produce
//!    *leaf-to-leaf paths* whose interior node kinds come from [`NodeKind`].
//!
//! Every assignment (continuous, blocking, non-blocking) carries a stable
//! [`StmtId`] assigned in source order by the parser; golden and mutated
//! versions of the same design therefore agree on statement identity.

use crate::token::Span;
use std::fmt;

/// A stable identifier for an assignment statement within one module,
/// assigned in source order starting from zero.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A parsed source file (one or more modules).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SourceUnit {
    /// The modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceUnit {
    /// The first module, which is the design under analysis in this
    /// reproduction (hierarchical designs are flattened upstream).
    pub fn top(&self) -> &Module {
        &self.modules[0]
    }
}

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout` (parsed but rejected by the simulator)
    Inout,
}

impl fmt::Display for PortDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PortDir::Input => "input",
            PortDir::Output => "output",
            PortDir::Inout => "inout",
        })
    }
}

/// Storage class of a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NetKind {
    /// `wire` — driven by continuous assignments or combinational blocks.
    Wire,
    /// `reg` — assigned in procedural blocks.
    Reg,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Bit width (1 for scalars).
    pub width: u32,
    /// Whether the port was also declared `reg`.
    pub is_reg: bool,
    /// Source location.
    pub span: Span,
}

/// An internal signal declaration (`wire`/`reg`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Decl {
    /// Signal name.
    pub name: String,
    /// Storage class.
    pub kind: NetKind,
    /// Bit width (1 for scalars).
    pub width: u32,
    /// Source location.
    pub span: Span,
}

/// A `parameter`/`localparam` binding (resolved to a constant at parse time).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Its constant value.
    pub value: u64,
    /// Declared width, if sized.
    pub width: Option<u32>,
    /// Source location.
    pub span: Span,
}

/// A Verilog module.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Ports in header order.
    pub ports: Vec<Port>,
    /// Parameters (already substituted into expressions; kept for printing).
    pub params: Vec<Param>,
    /// Internal declarations.
    pub decls: Vec<Decl>,
    /// Module items in source order.
    pub items: Vec<Item>,
    /// Source location of the `module` keyword.
    pub span: Span,
}

impl Module {
    /// Width of a named signal (port or internal), if declared.
    pub fn width_of(&self, name: &str) -> Option<u32> {
        self.ports
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.width)
            .or_else(|| self.decls.iter().find(|d| d.name == name).map(|d| d.width))
    }

    /// Iterates over every assignment in the module, in source order,
    /// including those nested inside `if`/`case` bodies.
    pub fn assignments(&self) -> Vec<&Assignment> {
        let mut out = Vec::new();
        for item in &self.items {
            item.collect_assignments(&mut out);
        }
        out
    }

    /// Looks up an assignment by its stable id.
    pub fn assignment(&self, id: StmtId) -> Option<&Assignment> {
        self.items.iter().find_map(|item| match item {
            Item::Assign(a) => (a.id == id).then_some(a),
            Item::Always(b) => assignment_in(&b.body, id),
        })
    }

    /// Looks up an assignment by its stable id, mutably.
    pub fn assignment_mut(&mut self, id: StmtId) -> Option<&mut Assignment> {
        self.items.iter_mut().find_map(|item| match item {
            Item::Assign(a) => (a.id == id).then_some(a),
            Item::Always(b) => assignment_in_mut(&mut b.body, id),
        })
    }

    /// Names of all output ports.
    pub fn output_names(&self) -> Vec<&str> {
        self.ports
            .iter()
            .filter(|p| p.dir == PortDir::Output)
            .map(|p| p.name.as_str())
            .collect()
    }
}

/// Defines `$name(stmts, id)`: the assignment with id `id` in a statement
/// tree, found without allocating. One body serves the shared borrow
/// ([`Module::assignment`]) and, given `mut`, the mutable one
/// ([`Module::assignment_mut`]), so both visit statements alike.
macro_rules! assignment_in {
    ($name:ident $(, $m:tt)?) => {
        fn $name(stmts: &$($m)? [Stmt], id: StmtId) -> Option<&$($m)? Assignment> {
            IntoIterator::into_iter(stmts).find_map(|s| match s {
                Stmt::Assign(a) => (a.id == id).then_some(a),
                Stmt::If(i) => $name(&$($m)? i.then_branch, id)
                    .or_else(|| $name(&$($m)? i.else_branch, id)),
                Stmt::Case(c) => IntoIterator::into_iter(&$($m)? c.arms)
                    .find_map(|arm| $name(&$($m)? arm.body, id))
                    .or_else(|| $name(&$($m)? c.default, id)),
            })
        }
    };
}
assignment_in!(assignment_in);
assignment_in!(assignment_in_mut, mut);

fn collect_assignments<'m>(stmts: &'m [Stmt], out: &mut Vec<&'m Assignment>) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => out.push(a),
            Stmt::If(i) => {
                collect_assignments(&i.then_branch, out);
                collect_assignments(&i.else_branch, out);
            }
            Stmt::Case(c) => {
                for arm in &c.arms {
                    collect_assignments(&arm.body, out);
                }
                collect_assignments(&c.default, out);
            }
        }
    }
}

/// A top-level module item.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Item {
    /// `assign lhs = rhs;`
    Assign(Assignment),
    /// An `always` block.
    Always(AlwaysBlock),
}

impl Item {
    /// Every assignment of the item, in source order, including those
    /// nested inside `if`/`case` bodies.
    pub fn assignments(&self) -> Vec<&Assignment> {
        let mut out = Vec::new();
        self.collect_assignments(&mut out);
        out
    }

    fn collect_assignments<'m>(&'m self, out: &mut Vec<&'m Assignment>) {
        match self {
            Item::Assign(a) => out.push(a),
            Item::Always(b) => collect_assignments(&b.body, out),
        }
    }
}

/// Which clock edge an edge-sensitive block triggers on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EdgeKind {
    /// `posedge`
    Pos,
    /// `negedge`
    Neg,
}

/// An always block's sensitivity list.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Sensitivity {
    /// `always @(*)` — combinational.
    Star,
    /// `always @(posedge clk)` / `@(posedge clk or negedge rst_n)` — sequential.
    Edges(Vec<(EdgeKind, String)>),
    /// `always @(a or b or c)` — level-sensitive combinational.
    Level(Vec<String>),
}

impl Sensitivity {
    /// True for combinational sensitivity (`*` or a level list).
    pub fn is_combinational(&self) -> bool {
        !matches!(self, Sensitivity::Edges(_))
    }
}

/// An `always` block.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlwaysBlock {
    /// Trigger condition.
    pub sensitivity: Sensitivity,
    /// Statement body.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// What flavor of assignment a statement is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AssignKind {
    /// `assign lhs = rhs;` at module scope.
    Continuous,
    /// `lhs = rhs;` inside a procedural block.
    Blocking,
    /// `lhs <= rhs;` inside a procedural block.
    NonBlocking,
}

impl AssignKind {
    /// The AST node kind that roots a path tree for this assignment.
    pub fn node_kind(self) -> NodeKind {
        match self {
            AssignKind::Continuous => NodeKind::ContinuousAssign,
            AssignKind::Blocking => NodeKind::BlockingAssignment,
            AssignKind::NonBlocking => NodeKind::NonBlockingAssignment,
        }
    }
}

/// An assignment statement — the unit of localization in VeriBug.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Assignment {
    /// Stable statement id (source order within the module).
    pub id: StmtId,
    /// Continuous / blocking / non-blocking.
    pub kind: AssignKind,
    /// Left-hand side.
    pub lhs: LValue,
    /// Right-hand side expression.
    pub rhs: Expr,
    /// Source location of the statement.
    pub span: Span,
}

impl Assignment {
    /// Every signal name the statement reads: the RHS references, then
    /// the references of a bit-select index on the LHS (`x[i] = ..` reads
    /// `i`), each in source order with duplicates preserved.
    pub fn reads(&self) -> Vec<&str> {
        let mut out = self.rhs.referenced_signals();
        if let Some(Select::Bit(idx)) = &self.lhs.select {
            out.extend(idx.referenced_signals());
        }
        out
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LValue {
    /// Base signal name.
    pub base: String,
    /// Optional bit/part select.
    pub select: Option<Select>,
    /// Source location.
    pub span: Span,
}

/// A bit or part select.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Select {
    /// `x[i]` with a (possibly dynamic) index expression.
    Bit(Box<Expr>),
    /// `x[msb:lsb]` with constant bounds.
    Part {
        /// Most-significant bit index.
        msb: u32,
        /// Least-significant bit index.
        lsb: u32,
    },
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Stmt {
    /// A blocking or non-blocking assignment.
    Assign(Assignment),
    /// `if (...) ... else ...`
    If(IfStmt),
    /// `case (...) ... endcase`
    Case(CaseStmt),
}

/// An `if` statement; `else if` chains nest in `else_branch`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IfStmt {
    /// Branch condition.
    pub cond: Expr,
    /// Taken when the condition is non-zero.
    pub then_branch: Vec<Stmt>,
    /// Taken otherwise (empty when there is no `else`).
    pub else_branch: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A `case`/`casez` statement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CaseStmt {
    /// The discriminating expression.
    pub subject: Expr,
    /// Labelled arms in source order.
    pub arms: Vec<CaseArm>,
    /// The `default:` body (empty when absent).
    pub default: Vec<Stmt>,
    /// Whether this is `casez` (z/? wildcard matching is *not* supported;
    /// the flag is preserved for printing).
    pub casez: bool,
    /// Source location.
    pub span: Span,
}

/// One arm of a case statement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CaseArm {
    /// Match labels (an arm may have several, comma-separated).
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Vec<Stmt>,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum UnaryOp {
    /// `~x` bitwise not
    Not,
    /// `!x` logical not
    LogicalNot,
    /// `-x` arithmetic negate
    Negate,
    /// `&x` reduction and
    RedAnd,
    /// `|x` reduction or
    RedOr,
    /// `^x` reduction xor
    RedXor,
    /// `~^x` reduction xnor
    RedXnor,
}

impl UnaryOp {
    /// AST node kind for path extraction.
    pub fn node_kind(self) -> NodeKind {
        match self {
            UnaryOp::Not => NodeKind::Not,
            UnaryOp::LogicalNot => NodeKind::LogicalNot,
            UnaryOp::Negate => NodeKind::Negate,
            UnaryOp::RedAnd => NodeKind::RedAnd,
            UnaryOp::RedOr => NodeKind::RedOr,
            UnaryOp::RedXor => NodeKind::RedXor,
            UnaryOp::RedXnor => NodeKind::RedXnor,
        }
    }

    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Not => "~",
            UnaryOp::LogicalNot => "!",
            UnaryOp::Negate => "-",
            UnaryOp::RedAnd => "&",
            UnaryOp::RedOr => "|",
            UnaryOp::RedXor => "^",
            UnaryOp::RedXnor => "~^",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BinaryOp {
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^`
    Xnor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `===` (two-state: same as `==`)
    CaseEq,
    /// `!==` (two-state: same as `!=`)
    CaseNeq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinaryOp {
    /// AST node kind for path extraction.
    pub fn node_kind(self) -> NodeKind {
        match self {
            BinaryOp::And => NodeKind::And,
            BinaryOp::Or => NodeKind::Or,
            BinaryOp::Xor => NodeKind::Xor,
            BinaryOp::Xnor => NodeKind::Xnor,
            BinaryOp::LogAnd => NodeKind::LogAnd,
            BinaryOp::LogOr => NodeKind::LogOr,
            BinaryOp::Eq => NodeKind::Eq,
            BinaryOp::Neq => NodeKind::Neq,
            BinaryOp::CaseEq => NodeKind::Eq,
            BinaryOp::CaseNeq => NodeKind::Neq,
            BinaryOp::Lt => NodeKind::Lt,
            BinaryOp::Le => NodeKind::Le,
            BinaryOp::Gt => NodeKind::Gt,
            BinaryOp::Ge => NodeKind::Ge,
            BinaryOp::Add => NodeKind::Add,
            BinaryOp::Sub => NodeKind::Sub,
            BinaryOp::Mul => NodeKind::Mul,
            BinaryOp::Div => NodeKind::Div,
            BinaryOp::Mod => NodeKind::Mod,
            BinaryOp::Shl => NodeKind::Shl,
            BinaryOp::Shr => NodeKind::Shr,
        }
    }

    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
            BinaryOp::Xor => "^",
            BinaryOp::Xnor => "~^",
            BinaryOp::LogAnd => "&&",
            BinaryOp::LogOr => "||",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::CaseEq => "===",
            BinaryOp::CaseNeq => "!==",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Expr {
    /// A signal reference.
    Ident {
        /// Signal name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// A number literal.
    Literal {
        /// Bit width when sized.
        width: Option<u32>,
        /// Value, truncated to the width.
        value: u64,
        /// Source location.
        span: Span,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        operand: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `cond ? then : else`
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when the condition is non-zero.
        then_expr: Box<Expr>,
        /// Value otherwise.
        else_expr: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `base[index]` bit select.
    Index {
        /// Base signal name.
        base: String,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// `base[msb:lsb]` part select with constant bounds.
    Part {
        /// Base signal name.
        base: String,
        /// Most-significant bit.
        msb: u32,
        /// Least-significant bit.
        lsb: u32,
        /// Source location.
        span: Span,
    },
    /// `{a, b, c}` concatenation (leftmost part is most significant).
    Concat {
        /// The concatenated parts.
        parts: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// `{n{x}}` replication.
    Repeat {
        /// Replication count.
        count: u32,
        /// Replicated expression.
        inner: Box<Expr>,
        /// Source location.
        span: Span,
    },
}

impl Expr {
    /// The expression's source location.
    pub fn span(&self) -> Span {
        match self {
            Expr::Ident { span, .. }
            | Expr::Literal { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Index { span, .. }
            | Expr::Part { span, .. }
            | Expr::Concat { span, .. }
            | Expr::Repeat { span, .. } => *span,
        }
    }

    /// Collects every signal name referenced by the expression, in
    /// left-to-right source order, with duplicates preserved.
    pub fn referenced_signals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_signals(&mut out);
        out
    }

    fn collect_signals<'e>(&'e self, out: &mut Vec<&'e str>) {
        match self {
            Expr::Ident { name, .. } => out.push(name),
            Expr::Literal { .. } => {}
            Expr::Unary { operand, .. } => operand.collect_signals(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_signals(out);
                rhs.collect_signals(out);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                cond.collect_signals(out);
                then_expr.collect_signals(out);
                else_expr.collect_signals(out);
            }
            Expr::Index { base, index, .. } => {
                out.push(base);
                index.collect_signals(out);
            }
            Expr::Part { base, .. } => out.push(base),
            Expr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_signals(out);
                }
            }
            Expr::Repeat { inner, .. } => inner.collect_signals(out),
        }
    }
}

/// The AST-node vocabulary for VeriBug's leaf-to-leaf paths.
///
/// Each interior node of an assignment's AST (including the assignment root
/// and the `Lvalue`/`Rvalue` wrappers, per Fig. 2 of the paper) maps to one of
/// these kinds. The [`NodeKind::ALL`] array fixes an indexing used for the
/// learned token embeddings, so its order must stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NodeKind {
    /// Root of a continuous `assign`.
    ContinuousAssign,
    /// Root of a blocking procedural assignment.
    BlockingAssignment,
    /// Root of a non-blocking procedural assignment.
    NonBlockingAssignment,
    /// Wrapper over the assignment target.
    Lvalue,
    /// Wrapper over the right-hand side.
    Rvalue,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `~^`
    Xnor,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-` (binary)
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `~`
    Not,
    /// `!`
    LogicalNot,
    /// `-` (unary)
    Negate,
    /// `&x`
    RedAnd,
    /// `|x`
    RedOr,
    /// `^x`
    RedXor,
    /// `~^x`
    RedXnor,
    /// `?:` node
    Ternary,
    /// Position marker: child is the ternary condition.
    TernaryCond,
    /// Position marker: child is the ternary then-value.
    TernaryThen,
    /// Position marker: child is the ternary else-value.
    TernaryElse,
    /// `x[i]`
    BitSelect,
    /// `x[m:l]`
    PartSelect,
    /// `{...}`
    Concat,
    /// `{n{...}}`
    Repeat,
    /// A constant leaf.
    Literal,
    /// A signal leaf (operand).
    Operand,
}

impl NodeKind {
    /// Every node kind, in embedding-index order. **Do not reorder**: trained
    /// models serialize token embeddings positionally against this array.
    pub const ALL: [NodeKind; 41] = [
        NodeKind::ContinuousAssign,
        NodeKind::BlockingAssignment,
        NodeKind::NonBlockingAssignment,
        NodeKind::Lvalue,
        NodeKind::Rvalue,
        NodeKind::And,
        NodeKind::Or,
        NodeKind::Xor,
        NodeKind::Xnor,
        NodeKind::LogAnd,
        NodeKind::LogOr,
        NodeKind::Eq,
        NodeKind::Neq,
        NodeKind::Lt,
        NodeKind::Le,
        NodeKind::Gt,
        NodeKind::Ge,
        NodeKind::Add,
        NodeKind::Sub,
        NodeKind::Mul,
        NodeKind::Div,
        NodeKind::Mod,
        NodeKind::Shl,
        NodeKind::Shr,
        NodeKind::Not,
        NodeKind::LogicalNot,
        NodeKind::Negate,
        NodeKind::RedAnd,
        NodeKind::RedOr,
        NodeKind::RedXor,
        NodeKind::RedXnor,
        NodeKind::Ternary,
        NodeKind::TernaryCond,
        NodeKind::TernaryThen,
        NodeKind::TernaryElse,
        NodeKind::BitSelect,
        NodeKind::PartSelect,
        NodeKind::Concat,
        NodeKind::Repeat,
        NodeKind::Literal,
        NodeKind::Operand,
    ];

    /// The embedding index of this kind (its position in [`NodeKind::ALL`]).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every NodeKind is listed in ALL")
    }

    /// Number of distinct node kinds (the token-embedding vocabulary size).
    pub fn vocab_size() -> usize {
        Self::ALL.len()
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_indices_are_consistent() {
        for (i, k) in NodeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(NodeKind::vocab_size(), 41);
    }

    #[test]
    fn every_assignment_is_reachable_by_id_and_by_item() {
        let src =
            "module m(input clk, input [1:0] s, input a, output reg y, output reg z, output w);\n\
                   assign w = a;\n\
                   always @(posedge clk) begin\n\
                   if (a) y <= a; else begin case (s) 2'd0: z <= a; default: z <= ~a; endcase end\n\
                   end\n\
                   endmodule";
        let mut m = crate::parse(src).unwrap().top().clone();
        let ids: Vec<_> = m.assignments().iter().map(|a| a.id).collect();
        let by_item: Vec<_> = m
            .items
            .iter()
            .flat_map(Item::assignments)
            .map(|a| a.id)
            .collect();
        assert_eq!(ids, by_item);
        assert_eq!(ids.len(), 4);
        for id in ids {
            assert_eq!(m.assignment_mut(id).map(|a| a.id), Some(id));
        }
        assert!(m.assignment_mut(StmtId(4)).is_none());
    }

    #[test]
    fn referenced_signals_in_order_with_duplicates() {
        let e = Expr::Binary {
            op: BinaryOp::And,
            lhs: Box::new(Expr::Ident {
                name: "a".into(),
                span: Span::synthetic(),
            }),
            rhs: Box::new(Expr::Binary {
                op: BinaryOp::Or,
                lhs: Box::new(Expr::Ident {
                    name: "b".into(),
                    span: Span::synthetic(),
                }),
                rhs: Box::new(Expr::Ident {
                    name: "a".into(),
                    span: Span::synthetic(),
                }),
                span: Span::synthetic(),
            }),
            span: Span::synthetic(),
        };
        assert_eq!(e.referenced_signals(), vec!["a", "b", "a"]);
    }

    #[test]
    fn assign_kind_roots() {
        assert_eq!(
            AssignKind::Continuous.node_kind(),
            NodeKind::ContinuousAssign
        );
        assert_eq!(
            AssignKind::Blocking.node_kind(),
            NodeKind::BlockingAssignment
        );
        assert_eq!(
            AssignKind::NonBlocking.node_kind(),
            NodeKind::NonBlockingAssignment
        );
    }
}
