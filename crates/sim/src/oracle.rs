//! The interpreter oracle: an AST-walking reading of the simulation
//! semantics that the compiled engine is held to, bit for bit. The
//! differential suite (`crates/bench/tests/differential.rs`) compares
//! against it, and `bench_pipeline` times it; production runs use
//! [`crate::Simulator`].
//!
//! Each simulated cycle:
//!
//! 1. apply the stimulus words to the input ports,
//! 2. settle combinational logic: repeat passes over every combinational
//!    process in source order until a pass changes no value (failing with
//!    [`SimError::CombinationalLoop`] after `(processes + 4) * 4` passes),
//!    then run one more pass that records executions, so records reflect
//!    stable values,
//! 3. snapshot every signal into the cycle record,
//! 4. fire the clock edge: run every sequential block against pre-edge
//!    values (recording executions), then commit all non-blocking writes in
//!    push order.
//!
//! Async-reset edges are approximated synchronously: reset blocks execute at
//! every clock edge with the current reset value, which matches the paper's
//! usage (reset held during the first cycles of each GOLDMINE testbench).

use crate::compile::part_width;
use crate::error::SimError;
use crate::eval::{eval_binary, eval_unary, Write};
use crate::netlist::{Netlist, SignalId};
use crate::testbench::{PortResolver, Stimulus};
use crate::trace::{Operands, StmtExec, Trace};
use crate::value::Value;
use verilog::{Assignment, CaseStmt, Expr, IfStmt, Item, LValue, Select, Stmt};

/// Simulates one stimulus from the all-zero reset state and returns its
/// full trace: every signal's per-cycle snapshot and every execution
/// record. Views a [`crate::TraceMode`] would select are filters of it.
///
/// # Errors
///
/// [`SimError::UnknownSignal`] / [`SimError::NotAnInput`] for bad stimulus
/// ports, [`SimError::CombinationalLoop`] when combinational logic does not
/// settle, and [`SimError::Unsupported`] for an over-wide concatenation or
/// replication, or a part select that is inverted or wider than 64 bits.
pub fn interpret(netlist: &Netlist, stimulus: &Stimulus) -> Result<Trace, SimError> {
    let ids = PortResolver::default().resolve(netlist, stimulus)?;
    let mut ctx = EvalCtx::new(netlist);
    let nsig = netlist.signal_count();
    let mut arena: Vec<Value> = Vec::with_capacity(stimulus.len() * nsig);
    let mut cycle_execs: Vec<Vec<StmtExec>> = Vec::with_capacity(stimulus.len());
    for c in 0..stimulus.len() {
        for (&bits, &id) in stimulus.cycle(c).iter().zip(ids.iter()) {
            ctx.values[id.0 as usize] = Value::new(bits, netlist.signal(id).width);
        }
        let mut execs: Vec<StmtExec> = Vec::new();
        ctx.settle()?;
        for &i in &netlist.comb {
            ctx.exec_item(i, None, Some(&mut execs))?;
        }
        arena.extend_from_slice(&ctx.values);
        let mut deferred: Vec<Write> = Vec::new();
        for &i in &netlist.seq {
            ctx.exec_item(i, Some(&mut deferred), Some(&mut execs))?;
        }
        for w in deferred {
            let cur = ctx.values[w.target.0 as usize];
            ctx.values[w.target.0 as usize] = w.apply(cur);
        }
        cycle_execs.push(execs);
    }
    Ok(Trace::assemble(arena.into(), nsig, cycle_execs))
}

/// Mutable evaluation state over a netlist.
#[derive(Debug)]
pub(crate) struct EvalCtx<'n> {
    netlist: &'n Netlist,
    /// Current value of every signal, indexed by [`SignalId`].
    pub(crate) values: Vec<Value>,
}

impl<'n> EvalCtx<'n> {
    /// Creates a context with every signal at zero.
    pub(crate) fn new(netlist: &'n Netlist) -> Self {
        let values = netlist
            .signals()
            .iter()
            .map(|s| Value::zero(s.width))
            .collect();
        EvalCtx { netlist, values }
    }

    fn value_of(&self, name: &str) -> Result<Value, SimError> {
        let id = self
            .netlist
            .signal_id(name)
            .ok_or_else(|| SimError::UnknownSignal {
                name: name.to_owned(),
            })?;
        Ok(self.values[id.0 as usize])
    }

    /// Evaluates an expression against the current signal values.
    pub(crate) fn eval(&self, e: &Expr) -> Result<Value, SimError> {
        match e {
            Expr::Ident { name, .. } => self.value_of(name),
            Expr::Literal { width, value, .. } => {
                let w = width.unwrap_or(32).min(64) as u8;
                Ok(Value::new(*value, w))
            }
            Expr::Unary { op, operand, .. } => Ok(eval_unary(*op, self.eval(operand)?)),
            Expr::Binary { op, lhs, rhs, .. } => {
                Ok(eval_binary(*op, self.eval(lhs)?, self.eval(rhs)?))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
                ..
            } => {
                let c = self.eval(cond)?;
                let t = self.eval(then_expr)?;
                let f = self.eval(else_expr)?;
                let w = t.width().max(f.width());
                Ok(if c.is_truthy() {
                    t.resize(w)
                } else {
                    f.resize(w)
                })
            }
            Expr::Index { base, index, .. } => {
                let v = self.value_of(base)?;
                let i = self.eval(index)?.bits();
                Ok(Value::bit(
                    i < u64::from(v.width()) && (v.bits() >> i) & 1 == 1,
                ))
            }
            Expr::Part {
                base,
                msb,
                lsb,
                span,
            } => {
                let v = self.value_of(base)?;
                let width = part_width(base, *msb, *lsb, *span)?;
                // A position past bit 63 wraps modulo 64.
                Ok(Value::new(v.bits().wrapping_shr(*lsb), width))
            }
            Expr::Concat { parts, span } => {
                let mut bits = 0u64;
                let mut width = 0u32;
                for p in parts {
                    let v = self.eval(p)?;
                    width += u32::from(v.width());
                    if width > 64 {
                        return Err(SimError::Unsupported {
                            detail: format!("concatenation wider than 64 bits at {span}"),
                        });
                    }
                    bits = shift_in(bits, v);
                }
                Ok(Value::new(bits, width.max(1) as u8))
            }
            Expr::Repeat {
                count, inner, span, ..
            } => {
                let v = self.eval(inner)?;
                let width = u64::from(v.width()) * u64::from(*count);
                if width > 64 || width == 0 {
                    return Err(SimError::Unsupported {
                        detail: format!("replication width {width} at {span}"),
                    });
                }
                let mut bits = 0u64;
                for _ in 0..*count {
                    bits = shift_in(bits, v);
                }
                Ok(Value::new(bits, width as u8))
            }
        }
    }

    /// Resolves an l-value with a pre-resolved base signal into a [`Write`]
    /// carrying `value`.
    fn resolve_write(
        &self,
        target: SignalId,
        lhs: &LValue,
        value: Value,
    ) -> Result<Write, SimError> {
        let full = self.netlist.signal(target).width;
        Ok(match &lhs.select {
            None => Write {
                target,
                lo: 0,
                width: full,
                bits: value.resize(full).bits(),
            },
            Some(Select::Bit(idx)) => {
                let i = self.eval(idx)?.bits().min(63) as u8;
                Write {
                    target,
                    lo: i.min(full - 1),
                    width: 1,
                    bits: u64::from(value.lsb()),
                }
            }
            Some(Select::Part { msb, lsb }) => {
                let width = part_width(&lhs.base, *msb, *lsb, lhs.span)?;
                Write {
                    target,
                    lo: *lsb as u8,
                    width,
                    bits: value.resize(width).bits(),
                }
            }
        })
    }

    /// Executes one assignment: evaluates the RHS, optionally records the
    /// execution (operands in the netlist's record read order), and either
    /// applies the write immediately or defers it.
    fn exec_assign(
        &mut self,
        a: &Assignment,
        defer: Option<&mut Vec<Write>>,
        recorder: Option<&mut Vec<StmtExec>>,
    ) -> Result<(), SimError> {
        let value = self.eval(&a.rhs)?;
        let unknown = || SimError::UnknownSignal {
            name: a.lhs.base.clone(),
        };
        let info = self.netlist.assign_info(a.id).ok_or_else(unknown)?;
        let target = info.target.ok_or_else(unknown)?;
        let write = self.resolve_write(target, &a.lhs, value)?;
        if let Some(rec) = recorder {
            rec.push(StmtExec {
                stmt: a.id,
                operands: Operands::capture(info.read_ids.len(), |k| {
                    self.values[info.read_ids[k].0 as usize]
                }),
                result: Value::new(write.bits, write.width),
            });
        }
        match (defer, a.kind == verilog::AssignKind::NonBlocking) {
            (Some(d), true) => d.push(write),
            _ => {
                let cur = self.values[write.target.0 as usize];
                self.values[write.target.0 as usize] = write.apply(cur);
            }
        }
        Ok(())
    }

    /// Executes a statement list. Non-blocking writes are deferred into
    /// `defer` when it is provided (sequential context); blocking writes are
    /// always immediate. When `recorder` is provided, every executed
    /// assignment appends a [`StmtExec`].
    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        mut defer: Option<&mut Vec<Write>>,
        mut recorder: Option<&mut Vec<StmtExec>>,
    ) -> Result<(), SimError> {
        for s in stmts {
            match s {
                Stmt::Assign(a) => {
                    self.exec_assign(a, defer.as_deref_mut(), recorder.as_deref_mut())?;
                }
                Stmt::If(IfStmt {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                }) => {
                    let taken = if self.eval(cond)?.is_truthy() {
                        then_branch
                    } else {
                        else_branch
                    };
                    self.exec_stmts(taken, defer.as_deref_mut(), recorder.as_deref_mut())?;
                }
                Stmt::Case(CaseStmt {
                    subject,
                    arms,
                    default,
                    ..
                }) => {
                    let subj = self.eval(subject)?;
                    let mut matched = false;
                    for arm in arms {
                        for label in &arm.labels {
                            if self.eval(label)?.bits() == subj.bits() {
                                matched = true;
                                break;
                            }
                        }
                        if matched {
                            self.exec_stmts(
                                &arm.body,
                                defer.as_deref_mut(),
                                recorder.as_deref_mut(),
                            )?;
                            break;
                        }
                    }
                    if !matched {
                        self.exec_stmts(default, defer.as_deref_mut(), recorder.as_deref_mut())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes item `i` of the netlist's module.
    fn exec_item(
        &mut self,
        i: usize,
        defer: Option<&mut Vec<Write>>,
        recorder: Option<&mut Vec<StmtExec>>,
    ) -> Result<(), SimError> {
        match &self.netlist.module.items[i] {
            Item::Assign(a) => self.exec_assign(a, defer, recorder),
            Item::Always(blk) => self.exec_stmts(&blk.body, defer, recorder),
        }
    }

    /// Iterates the combinational processes until no signal changes.
    fn settle(&mut self) -> Result<(), SimError> {
        let max_iters = (self.netlist.comb.len() as u32 + 4) * 4;
        let netlist = self.netlist;
        let mut before = Vec::new();
        for _ in 0..max_iters {
            before.clone_from(&self.values);
            for &i in &netlist.comb {
                self.exec_item(i, None, None)?;
            }
            if self.values == before {
                return Ok(());
            }
        }
        Err(SimError::CombinationalLoop {
            iterations: max_iters,
        })
    }
}

/// `bits` shifted left by `v`'s width with `v` in the vacated low bits; a
/// 64-bit `v` (only ever a leading part) shifts everything out.
fn shift_in(bits: u64, v: Value) -> u64 {
    bits.checked_shl(u32::from(v.width())).unwrap_or(0) | v.bits()
}
