//! Compilation front end of the batch engine: static analysis plus
//! lowering to batch bytecode.
//!
//! [`analyze`] levelizes a netlist's combinational processes with
//! [`cdfg::levelize`]. When it proves that one ordered pass per cycle
//! equals the fixpoint settle, the plan is that topological order plus each
//! process's fanin (the per-lane dirty gate). Otherwise — a static
//! combinational cycle (exposed self-reads included), several
//! combinational drivers of one signal, a combinational write to an input,
//! or a signal written both combinationally and sequentially — it returns
//! a **settle plan**, which `crate::batch` iterates to a fixpoint each
//! cycle like the interpreter oracle ([`crate::oracle`]).
//!
//! [`Compiler`] lowers each process body into one [`BOp`] program:
//! expressions into flat register-machine [`Op`]s over a value slab,
//! assignments into [`AssignMeta`] side-table entries, and `if`/`case`
//! into structured mask operations that `crate::batch` executes. A
//! construct with no simulated value (an inverted or over-64-bit part
//! select, an over-64-bit concatenation or replication, a zero-width
//! literal, slot overflow) is rejected with the [`SimError::Unsupported`]
//! that [`crate::Simulator::new`] reports.

use std::collections::BTreeSet;

use crate::error::SimError;
use crate::netlist::{Netlist, SignalId, SignalRole};
use crate::value::Value;
use verilog::Span;
use verilog::{Assignment, BinaryOp, Expr, Item, Select, Stmt, StmtId, UnaryOp};

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

/// One batch instruction: an expression op evaluated lane-wise, a masked
/// assignment, or a structured mask-control op.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BOp {
    /// An expression [`Op`], evaluated on all lanes.
    Expr(Op),
    /// Masked assignment: resolve + record + apply per active lane.
    Assign { rhs: u16, meta: u32 },
    /// `if`: split the current mask on `slab[cond]`'s per-lane truthiness.
    /// When no lane takes the then-side, jump to `else_at` (the matching
    /// [`BOp::Else`]).
    BranchIf { cond: u16, else_at: u32 },
    /// Swap to the else-side mask; jump to `end_at` (the matching
    /// [`BOp::EndIf`]) when no lane takes it.
    Else { end_at: u32 },
    /// Pop the `if` frame and restore the enclosing mask.
    EndIf,
    /// `case`: open a frame remembering the subject slot and the lanes
    /// still unmatched.
    CaseBegin { subj: u16 },
    /// One arm: lanes whose subject equals any of
    /// `case_labels[labels_start..labels_start + labels_len]` (raw-bit
    /// compare) become active; they are removed from the unmatched set.
    /// Jump to `next_at` (the next arm/default) when no lane matches.
    CaseArm {
        labels_start: u32,
        labels_len: u32,
        next_at: u32,
    },
    /// The default arm: all still-unmatched lanes become active; jump to
    /// `end_at` (the matching [`BOp::CaseEnd`]) when there are none.
    CaseDefault { end_at: u32 },
    /// Pop the `case` frame and restore the enclosing mask.
    CaseEnd,
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

/// The combinational schedule a netlist compiles to.
#[derive(Debug)]
pub(crate) struct Analysis {
    /// Evaluation order over combinational process indices: topological
    /// when levelized, source order under a settle plan.
    pub(crate) order: Vec<u32>,
    /// Per-comb-process exposed-read signal ids (the dirty-set gate; empty
    /// under a settle plan, which runs with the gate off).
    pub(crate) fanin: Vec<Vec<u32>>,
    /// A settle plan: iterate combinational passes to a fixpoint each cycle.
    pub(crate) settle: bool,
}

/// Levelizes and vets a netlist: the levelized plan when one ordered pass
/// provably equals the fixpoint settle, a settle plan otherwise.
pub(crate) fn analyze(netlist: &Netlist) -> Analysis {
    levelized(netlist).unwrap_or_else(|| {
        let ncomb = netlist.comb.len();
        Analysis {
            order: (0..ncomb as u32).collect(),
            fanin: vec![Vec::new(); ncomb],
            settle: true,
        }
    })
}

/// The levelized plan, or `None` when single-pass equivalence with the
/// fixpoint settle cannot be proven.
fn levelized(netlist: &Netlist) -> Option<Analysis> {
    let lev = cdfg::levelize(&netlist.module);
    // Both must classify the same items as combinational, in source order.
    let items = lev.processes.iter().map(|p| p.item);
    if !items.eq(netlist.comb.iter().copied()) {
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
    for &i in &netlist.seq {
        let mut bases = Vec::new();
        match &netlist.module.items[i] {
            Item::Assign(a) => bases.push(a.lhs.base.as_str()),
            Item::Always(blk) => collect_write_bases(&blk.body, &mut bases),
        }
        for base in bases {
            let id = netlist.signal_id(base)?;
            if comb_written.contains(&id.0) {
                return None;
            }
        }
    }
    Some(Analysis {
        order,
        fanin,
        settle: false,
    })
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

/// The width of the constant part select `base[msb:lsb]`.
///
/// # Errors
///
/// [`SimError::Unsupported`] when the range is inverted or wider than 64
/// bits.
pub(crate) fn part_width(base: &str, msb: u32, lsb: u32, at: Span) -> Result<u8, SimError> {
    match msb.checked_sub(lsb) {
        Some(d) if d < 64 => Ok(d as u8 + 1),
        _ => Err(unsupported(format!(
            "{} part select `{base}[{msb}:{lsb}]` at {at}",
            if msb < lsb { "inverted" } else { "over-64-bit" }
        ))),
    }
}

fn unsupported(detail: String) -> SimError {
    SimError::Unsupported { detail }
}

/// Lowers one process body into batch bytecode: expressions into
/// [`BOp::Expr`] ops, assignments into [`BOp::Assign`] plus an
/// [`AssignMeta`], and `if`/`case` into structured mask ops. Every method
/// fails with the [`SimError`] that rejects the design.
pub(crate) struct Compiler<'a> {
    pub(crate) netlist: &'a Netlist,
    /// The process's program, in emission order.
    pub(crate) code: Vec<BOp>,
    pub(crate) metas: &'a mut Vec<AssignMeta>,
    /// Side pool of case-label slot indices referenced by [`BOp::CaseArm`].
    pub(crate) case_labels: &'a mut Vec<u16>,
    pub(crate) next_slot: u32,
}

impl Compiler<'_> {
    fn emit(&mut self, op: Op) {
        self.code.push(BOp::Expr(op));
    }

    fn slot(&mut self) -> Result<u16, SimError> {
        let s = u16::try_from(self.next_slot).map_err(|_| {
            unsupported(format!(
                "a process needing more than {} value slots",
                u32::from(u16::MAX) + 1
            ))
        })?;
        self.next_slot += 1;
        Ok(s)
    }

    fn signal(&self, name: &str) -> Result<(u32, u8), SimError> {
        let id = self
            .netlist
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal {
                name: name.to_owned(),
            })?;
        Ok((id.0, self.netlist.signal(id).width))
    }

    /// Compiles an expression; returns its result slot and static width
    /// (widths are fully static in this Verilog subset, so the returned
    /// width always equals the runtime `Value` width).
    fn expr(&mut self, e: &Expr) -> Result<(u16, u8), SimError> {
        match e {
            Expr::Ident { name, .. } => {
                let (sig, w) = self.signal(name)?;
                let dst = self.slot()?;
                self.emit(Op::Load { dst, sig });
                Ok((dst, w))
            }
            Expr::Literal { width, value, span } => {
                let w = width.unwrap_or(32).min(64) as u8;
                if w == 0 {
                    return Err(unsupported(format!("zero-width literal at {span}")));
                }
                let dst = self.slot()?;
                self.emit(Op::Const {
                    dst,
                    val: Value::new(*value, w),
                });
                Ok((dst, w))
            }
            Expr::Unary { op, operand, .. } => {
                let (a, wa) = self.expr(operand)?;
                let dst = self.slot()?;
                self.emit(Op::Unary { dst, op: *op, a });
                let w = match op {
                    UnaryOp::Not | UnaryOp::Negate => wa,
                    _ => 1,
                };
                Ok((dst, w))
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let (a, wa) = self.expr(lhs)?;
                let (b, wb) = self.expr(rhs)?;
                let dst = self.slot()?;
                self.emit(Op::Binary { dst, op: *op, a, b });
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
                Ok((dst, w))
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
                self.emit(Op::Ternary { dst, cond: c, t, f });
                Ok((dst, wt.max(wf)))
            }
            Expr::Index { base, index, .. } => {
                let (sig, _) = self.signal(base)?;
                let (idx, _) = self.expr(index)?;
                let dst = self.slot()?;
                self.emit(Op::Index { dst, sig, idx });
                Ok((dst, 1))
            }
            Expr::Part {
                base,
                msb,
                lsb,
                span,
            } => {
                let (sig, _) = self.signal(base)?;
                let width = part_width(base, *msb, *lsb, *span)?;
                let dst = self.slot()?;
                self.emit(Op::Part {
                    dst,
                    sig,
                    lsb: *lsb,
                    width,
                });
                Ok((dst, width))
            }
            Expr::Concat { parts, span } => {
                let mut compiled = Vec::with_capacity(parts.len());
                for p in parts {
                    compiled.push(self.expr(p)?);
                }
                let total: u32 = compiled.iter().map(|&(_, w)| u32::from(w)).sum();
                if compiled.is_empty() || total > 64 {
                    return Err(unsupported(format!(
                        "concatenation of width {total} at {span}"
                    )));
                }
                self.concat_chain(&compiled)
            }
            Expr::Repeat { count, inner, span } => {
                let part = self.expr(inner)?;
                let total = u64::from(part.1) * u64::from(*count);
                if !(1..=64).contains(&total) {
                    return Err(unsupported(format!("replication width {total} at {span}")));
                }
                // The inner expression is evaluated once; its slot repeats.
                self.concat_chain(&vec![part; *count as usize])
            }
        }
    }

    /// Folds already-compiled parts (non-empty, at most 64 bits in total)
    /// most-significant-first into a chain of `Concat` ops, mirroring the
    /// interpreter's left fold.
    fn concat_chain(&mut self, parts: &[(u16, u8)]) -> Result<(u16, u8), SimError> {
        let (&(mut acc, mut width), rest) = parts.split_first().expect("non-empty parts");
        for &(slot, w) in rest {
            let dst = self.slot()?;
            self.emit(Op::Concat {
                dst,
                hi: acc,
                lo: slot,
            });
            acc = dst;
            width += w;
        }
        Ok((acc, width))
    }

    /// Lowers an assignment's right-hand side and bit-select index,
    /// registers its [`AssignMeta`] and emits the [`BOp::Assign`].
    pub(crate) fn assign(&mut self, a: &Assignment) -> Result<(), SimError> {
        let (rhs, _) = self.expr(&a.rhs)?;
        let unknown = || SimError::UnknownSignal {
            name: a.lhs.base.clone(),
        };
        let info = self.netlist.assign_info(a.id).ok_or_else(unknown)?;
        let target = info.target.ok_or_else(unknown)?;
        let full = self.netlist.signal(target).width;
        let sel = match &a.lhs.select {
            None => SelKind::Full { width: full },
            Some(Select::Bit(idx_expr)) => {
                let (idx, _) = self.expr(idx_expr)?;
                SelKind::Bit { width: full, idx }
            }
            // `lo` mirrors the oracle's cast; a position past bit 63 wraps
            // modulo 64 in `Write::apply`.
            Some(Select::Part { msb, lsb }) => SelKind::Part {
                lo: *lsb as u8,
                width: part_width(&a.lhs.base, *msb, *lsb, a.lhs.span)?,
            },
        };
        let meta = self.metas.len() as u32;
        self.metas.push(AssignMeta {
            stmt: a.id,
            target,
            sel,
            nonblocking: a.kind == verilog::AssignKind::NonBlocking,
            read_ids: info.read_ids.clone(),
        });
        self.code.push(BOp::Assign { rhs, meta });
        Ok(())
    }

    /// Lowers a statement list, emitting structured mask ops for
    /// `if`/`case`.
    pub(crate) fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), SimError> {
        for s in stmts {
            match s {
                Stmt::Assign(a) => self.assign(a)?,
                Stmt::If(i) => {
                    let (cond, _) = self.expr(&i.cond)?;
                    let branch_at = self.code.len();
                    self.code.push(BOp::BranchIf { cond, else_at: 0 });
                    self.stmts(&i.then_branch)?;
                    let else_at = self.code.len();
                    // An `Else` op is emitted even for if-without-else: the
                    // executor restores the else mask there (running zero
                    // statements under it), keeping the frame protocol
                    // uniform.
                    self.code.push(BOp::Else { end_at: 0 });
                    self.patch(branch_at, else_at);
                    self.stmts(&i.else_branch)?;
                    let end_at = self.code.len();
                    self.code.push(BOp::EndIf);
                    self.patch(else_at, end_at);
                }
                Stmt::Case(c) => {
                    let (subj, _) = self.expr(&c.subject)?;
                    // Evaluate ALL labels before any body (labels are pure,
                    // so evaluating ones past the interpreter's first match
                    // is unobservable; slots are never reused within a
                    // program, so label slots stay live).
                    let mut ranges = Vec::with_capacity(c.arms.len());
                    for arm in &c.arms {
                        let start = self.case_labels.len();
                        for label in &arm.labels {
                            let (slot, _) = self.expr(label)?;
                            self.case_labels.push(slot);
                        }
                        ranges.push((start as u32, arm.labels.len() as u32));
                    }
                    self.code.push(BOp::CaseBegin { subj });
                    for (arm, (labels_start, labels_len)) in c.arms.iter().zip(ranges) {
                        let arm_at = self.code.len();
                        self.code.push(BOp::CaseArm {
                            labels_start,
                            labels_len,
                            next_at: 0,
                        });
                        self.stmts(&arm.body)?;
                        self.patch(arm_at, self.code.len());
                    }
                    let default_at = self.code.len();
                    self.code.push(BOp::CaseDefault { end_at: 0 });
                    self.stmts(&c.default)?;
                    self.patch(default_at, self.code.len());
                    self.code.push(BOp::CaseEnd);
                }
            }
        }
        Ok(())
    }

    /// Redirects the forward offset of the structured op at `at` to `to`.
    fn patch(&mut self, at: usize, to: usize) {
        let to = to as u32;
        match &mut self.code[at] {
            BOp::BranchIf { else_at: t, .. }
            | BOp::Else { end_at: t }
            | BOp::CaseArm { next_at: t, .. }
            | BOp::CaseDefault { end_at: t } => *t = to,
            _ => unreachable!("patch target is a structured control op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::oracle::interpret;
    use crate::{SimError, Simulator, Stimulus};

    /// The `Unsupported` detail `Simulator::new` rejects `src` with.
    fn rejection(src: &str) -> String {
        let unit = verilog::parse(src).unwrap();
        match Simulator::new(unit.top()) {
            Err(SimError::Unsupported { detail }) => detail,
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    /// `y` after one cycle with `a` driven to a word whose bit 6 and bits
    /// 3..=6 are set, on the engine and the oracle (which must agree).
    fn simulated_y(src: &str) -> u64 {
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let stim = Stimulus::from_named(vec![vec![("a", 0x55AA_F0F0_1234_5678)]]);
        let trace = sim.run(&stim).unwrap();
        assert_eq!(trace, interpret(sim.netlist(), &stim).unwrap());
        let y = sim.netlist().signal_id("y").unwrap();
        trace.cycles[0].value(y).bits()
    }

    #[test]
    fn inverted_rhs_part_select_is_rejected() {
        let src = "module m(input [63:0] a, output [3:0] y);\nassign y = a[0:3];\nendmodule";
        assert_eq!(rejection(src), "inverted part select `a[0:3]` at 2:12");
    }

    #[test]
    fn inverted_lhs_part_select_is_rejected() {
        let src = "module m(input [63:0] a, output reg [63:0] y);\n\
                   always @(*) y[0:3] = a;\nendmodule";
        assert_eq!(rejection(src), "inverted part select `y[0:3]` at 2:13");
    }

    #[test]
    fn over_64_bit_lhs_part_select_is_rejected() {
        let src = "module m(input [63:0] a, output reg [63:0] y);\n\
                   always @(*) y[80:0] = a;\nendmodule";
        assert_eq!(rejection(src), "over-64-bit part select `y[80:0]` at 2:13");
    }

    #[test]
    fn over_64_bit_concatenation_is_rejected() {
        let src = "module m(input [63:0] a, output [63:0] y);\nassign y = {a, a};\nendmodule";
        assert_eq!(rejection(src), "concatenation of width 128 at 2:12");
    }

    #[test]
    fn over_64_bit_replication_is_rejected() {
        let src = "module m(input [63:0] a, output [63:0] y);\nassign y = {2{a}};\nendmodule";
        assert_eq!(rejection(src), "replication width 128 at 2:12");
    }

    #[test]
    fn slot_overflow_is_rejected() {
        // One `Load` slot per statement: 65,537 of them in one process.
        let body = "y = a;\n".repeat(65_537);
        let src =
            format!("module m(input a, output reg y);\nalways @(*) begin\n{body}end\nendmodule");
        assert_eq!(
            rejection(&src),
            "a process needing more than 65536 value slots"
        );
    }

    #[test]
    fn part_select_past_bit_63_reads_the_release_value() {
        // The position wraps modulo 64: bit 6.
        let src = "module m(input [63:0] a, output [3:0] y);\nassign y = a[70:70];\nendmodule";
        assert_eq!(simulated_y(src), 1);
    }

    #[test]
    fn leading_64_bit_concat_part_is_the_part() {
        let src = "module m(input [63:0] a, output [63:0] y);\nassign y = {a};\nendmodule";
        assert_eq!(simulated_y(src), 0x55AA_F0F0_1234_5678);
    }
}
