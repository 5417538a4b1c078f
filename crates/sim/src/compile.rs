//! Compilation front end shared by the compiled (batch) engine: static
//! analysis plus expression and assignment lowering.
//!
//! [`analyze`] levelizes a netlist's combinational processes with
//! [`cdfg::levelize`] and proves that one ordered pass per cycle equals the
//! interpreter's fixpoint settle. [`Compiler`] lowers expressions into a
//! flat register-machine [`Op`] sequence over a value slab and assignments
//! into [`AssignMeta`] side-table entries; `crate::batch` drives it and
//! adds the structured `if`/`case` mask operations.
//!
//! Either step returns `None` — and the simulator falls back to the AST
//! interpreter — whenever single-pass equivalence cannot be proven
//! statically: static combinational cycles (including exposed self-reads),
//! multiple drivers of one signal, combinational writes to input ports or
//! overlap with sequential writes, unknown signals, or width corner cases
//! whose interpreter behavior is an error or a debug panic (over-wide
//! concats/replications, 64-bit leading concat parts, inverted part-select
//! bounds, zero-width literals). The fallback reproduces the interpreter's
//! behavior exactly, including `SimError::CombinationalLoop`.

use std::collections::BTreeSet;

use crate::netlist::{Netlist, Process, SignalId, SignalRole};
use crate::value::Value;
use verilog::{Assignment, BinaryOp, Expr, Select, Stmt, StmtId, UnaryOp};

/// One expression instruction. Slots index the value slab; `sig` fields
/// index the netlist's signal values. The batch engine evaluates each op on
/// every lane at once.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `slab[dst] = values[sig]`
    Load { dst: u16, sig: u32 },
    /// `slab[dst] = val`
    Const { dst: u16, val: Value },
    /// `slab[dst] = op slab[a]`
    Unary { dst: u16, op: UnaryOp, a: u16 },
    /// `slab[dst] = slab[a] op slab[b]`
    Binary {
        dst: u16,
        op: BinaryOp,
        a: u16,
        b: u16,
    },
    /// `slab[dst] = slab[cond] ? slab[t] : slab[f]` (both sides evaluated).
    Ternary { dst: u16, cond: u16, t: u16, f: u16 },
    /// `slab[dst] = values[sig][slab[idx]]` (out-of-range reads as 0).
    Index { dst: u16, sig: u32, idx: u16 },
    /// `slab[dst] = values[sig][lsb + width - 1 : lsb]`
    Part {
        dst: u16,
        sig: u32,
        lsb: u32,
        width: u8,
    },
    /// `slab[dst] = {slab[hi], slab[lo]}`
    Concat { dst: u16, hi: u16, lo: u16 },
}

/// How an assignment's target bits are selected.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SelKind {
    /// Whole-signal write at the signal's declared width.
    Full { width: u8 },
    /// Dynamic bit select; the index lives in slot `idx`.
    Bit { width: u8, idx: u16 },
    /// Constant part select (`lo`/`width` mirror the interpreter's casts).
    Part { lo: u8, width: u8 },
}

/// Static description of one lowered assignment statement.
#[derive(Debug, Clone)]
pub(crate) struct AssignMeta {
    pub(crate) stmt: StmtId,
    pub(crate) target: SignalId,
    pub(crate) sel: SelKind,
    pub(crate) nonblocking: bool,
    /// Signal ids of the statement's reads, in record read order (matching
    /// the netlist's `AssignInfo::names` positionally).
    pub(crate) read_ids: Vec<SignalId>,
}

/// The engine-independent half of compilation: levelization plus the
/// eligibility checks that prove a single ordered combinational pass
/// equivalent to the fixpoint settle.
#[derive(Debug)]
pub(crate) struct Analysis {
    /// Topological evaluation order over combinational process indices.
    pub(crate) order: Vec<u32>,
    /// Per-comb-process exposed-read signal ids (the dirty-set gate).
    pub(crate) fanin: Vec<Vec<u32>>,
}

/// Levelizes and vets a netlist, or `None` when single-pass equivalence
/// with the fixpoint interpreter cannot be proven (the caller then falls
/// back to the interpreter).
pub(crate) fn analyze(netlist: &Netlist) -> Option<Analysis> {
    let lev = cdfg::levelize(&netlist.module);
    if lev.processes.len() != netlist.comb.len() {
        return None;
    }
    let order: Vec<u32> = lev.order.as_ref()?.iter().map(|&i| i as u32).collect();

    // Resolve the name-based summaries to ids. Unknown names, inputs
    // driven by combinational logic, multi-driver signals, and
    // comb/seq write overlap all void the single-pass argument.
    let mut fanin: Vec<Vec<u32>> = Vec::with_capacity(lev.processes.len());
    let mut comb_written: BTreeSet<u32> = BTreeSet::new();
    for p in &lev.processes {
        let mut f = Vec::with_capacity(p.reads.len());
        for name in &p.reads {
            f.push(netlist.signal_id(name)?.0);
        }
        fanin.push(f);
        for name in &p.writes {
            let id = netlist.signal_id(name)?;
            if netlist.signal(id).role == SignalRole::Input {
                return None;
            }
            if !comb_written.insert(id.0) {
                return None;
            }
        }
    }
    for p in &netlist.seq {
        let Process::Seq(blk) = p else { continue };
        let mut bases = Vec::new();
        collect_write_bases(&blk.body, &mut bases);
        for base in bases {
            let id = netlist.signal_id(base)?;
            if comb_written.contains(&id.0) {
                return None;
            }
        }
    }
    Some(Analysis { order, fanin })
}

/// Collects the base names of every assignment target in a statement tree.
fn collect_write_bases<'s>(stmts: &'s [Stmt], out: &mut Vec<&'s str>) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => out.push(&a.lhs.base),
            Stmt::If(i) => {
                collect_write_bases(&i.then_branch, out);
                collect_write_bases(&i.else_branch, out);
            }
            Stmt::Case(c) => {
                for arm in &c.arms {
                    collect_write_bases(&arm.body, out);
                }
                collect_write_bases(&c.default, out);
            }
        }
    }
}

/// Lowers expressions and assignments into bytecode. Every method returns
/// `None` to request interpreter fallback.
///
/// The batch engine drives this lowerer and wraps the emitted ops; it
/// lowers `if`/`case` control flow itself.
pub(crate) struct Compiler<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) ops: Vec<Op>,
    pub(crate) metas: &'a mut Vec<AssignMeta>,
    pub(crate) next_slot: u32,
}

impl Compiler<'_> {
    fn slot(&mut self) -> Option<u16> {
        let s = self.next_slot;
        if s > u32::from(u16::MAX) {
            return None;
        }
        self.next_slot += 1;
        Some(s as u16)
    }

    fn signal(&self, name: &str) -> Option<(u32, u8)> {
        let id = self.netlist.signal_id(name)?;
        Some((id.0, self.netlist.signal(id).width))
    }

    /// Compiles an expression; returns its result slot and static width
    /// (widths are fully static in this Verilog subset, so the returned
    /// width always equals the runtime `Value` width).
    pub(crate) fn expr(&mut self, e: &Expr) -> Option<(u16, u8)> {
        match e {
            Expr::Ident { name, .. } => {
                let (sig, w) = self.signal(name)?;
                let dst = self.slot()?;
                self.ops.push(Op::Load { dst, sig });
                Some((dst, w))
            }
            Expr::Literal { width, value, .. } => {
                let w = width.unwrap_or(32).min(64) as u8;
                if w == 0 {
                    return None; // the interpreter panics at runtime
                }
                let dst = self.slot()?;
                self.ops.push(Op::Const {
                    dst,
                    val: Value::new(*value, w),
                });
                Some((dst, w))
            }
            Expr::Unary { op, operand, .. } => {
                let (a, wa) = self.expr(operand)?;
                let dst = self.slot()?;
                self.ops.push(Op::Unary { dst, op: *op, a });
                let w = match op {
                    UnaryOp::Not | UnaryOp::Negate => wa,
                    _ => 1,
                };
                Some((dst, w))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, wa) = self.expr(lhs)?;
                let (b, wb) = self.expr(rhs)?;
                let dst = self.slot()?;
                self.ops.push(Op::Binary { dst, op: *op, a, b });
                let w = match op {
                    BinaryOp::And
                    | BinaryOp::Or
                    | BinaryOp::Xor
                    | BinaryOp::Xnor
                    | BinaryOp::Add
                    | BinaryOp::Sub
                    | BinaryOp::Mul
                    | BinaryOp::Div
                    | BinaryOp::Mod => wa.max(wb),
                    BinaryOp::Shl | BinaryOp::Shr => wa,
                    _ => 1,
                };
                Some((dst, w))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let (c, _) = self.expr(cond)?;
                let (t, wt) = self.expr(then_expr)?;
                let (f, wf) = self.expr(else_expr)?;
                let dst = self.slot()?;
                self.ops.push(Op::Ternary { dst, cond: c, t, f });
                Some((dst, wt.max(wf)))
            }
            Expr::Index { base, index, .. } => {
                let (sig, _) = self.signal(base)?;
                let (idx, _) = self.expr(index)?;
                let dst = self.slot()?;
                self.ops.push(Op::Index { dst, sig, idx });
                Some((dst, 1))
            }
            Expr::Part { base, msb, lsb, .. } => {
                let (sig, _) = self.signal(base)?;
                if msb < lsb || *lsb >= 64 {
                    return None; // interpreter panics (underflow / shift overflow)
                }
                let width = (msb - lsb + 1) as u8;
                if !(1..=64).contains(&width) {
                    return None;
                }
                let dst = self.slot()?;
                self.ops.push(Op::Part {
                    dst,
                    sig,
                    lsb: *lsb,
                    width,
                });
                Some((dst, width))
            }
            Expr::Concat { parts, .. } => {
                let mut compiled = Vec::with_capacity(parts.len());
                for p in parts {
                    compiled.push(self.expr(p)?);
                }
                self.concat_chain(&compiled)
            }
            Expr::Repeat { count, inner, .. } => {
                let part = self.expr(inner)?;
                let total = u32::from(part.1) * count;
                if total > 64 || total == 0 {
                    return None; // interpreter errors at runtime
                }
                // The inner expression is evaluated once; its slot repeats.
                let compiled = vec![part; *count as usize];
                self.concat_chain(&compiled)
            }
        }
    }

    /// Folds already-compiled parts most-significant-first into a chain of
    /// `Concat` ops, mirroring the interpreter's left fold. Falls back on
    /// empty part lists and totals over 64 bits (interpreter errors), and
    /// on a 64-bit leading part (the interpreter's first `0 << width`
    /// shift debug-panics there).
    fn concat_chain(&mut self, parts: &[(u16, u8)]) -> Option<(u16, u8)> {
        let (&(mut acc, mut width), rest) = parts.split_first()?;
        if width == 64 {
            return None;
        }
        for &(slot, w) in rest {
            if u32::from(width) + u32::from(w) > 64 {
                return None;
            }
            let dst = self.slot()?;
            self.ops.push(Op::Concat {
                dst,
                hi: acc,
                lo: slot,
            });
            acc = dst;
            width += w;
        }
        Some((acc, width))
    }

    /// Lowers an assignment's right-hand side and bit-select index and
    /// registers its [`AssignMeta`]; returns the right-hand-side slot and
    /// the meta index.
    pub(crate) fn assign(&mut self, a: &Assignment) -> Option<(u16, u32)> {
        let (rhs, _) = self.expr(&a.rhs)?;
        let info = self.netlist.assign_info(a.id)?;
        let target = info.target?;
        let full = self.netlist.signal(target).width;
        let sel = match &a.lhs.select {
            None => SelKind::Full { width: full },
            Some(Select::Bit(idx_expr)) => {
                let (idx, _) = self.expr(idx_expr)?;
                SelKind::Bit { width: full, idx }
            }
            Some(Select::Part { msb, lsb }) => {
                if msb < lsb {
                    return None; // interpreter panics on the underflow
                }
                // Mirror the interpreter's casts exactly; out-of-range
                // widths panic identically in the compiled engine and the
                // interpreter at runtime.
                SelKind::Part {
                    lo: *lsb as u8,
                    width: (msb - lsb + 1) as u8,
                }
            }
        };
        let meta = self.metas.len() as u32;
        self.metas.push(AssignMeta {
            stmt: a.id,
            target,
            sel,
            nonblocking: a.kind == verilog::AssignKind::NonBlocking,
            read_ids: info.read_ids.clone(),
        });
        Some((rhs, meta))
    }
}
