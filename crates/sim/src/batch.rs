//! The compiled execution engine: bit-parallel bytecode over up to
//! [`LANES`] stimuli per op.
//!
//! [`BatchEngine::build`] lowers a netlist at elaboration time through
//! [`crate::compile::Compiler`], which decides slot allocation, static
//! widths and every rejected construct, and lowers `if`/`case` into
//! **structured mask operations**.
//! Each signal and slab slot holds a [`BatchValue`] (one `u64` word per
//! lane); one ALU op evaluates all lanes at once. Data-dependent control
//! flow keeps a per-lane activity mask: when lanes disagree on a branch
//! condition, both sides execute under complementary masks and only the
//! active lanes of each side observe assignments, so per-lane [`StmtExec`]
//! records and final traces stay bit-identical to running each stimulus
//! through the interpreter oracle ([`crate::oracle`]). A single stimulus is
//! a one-lane batch.
//!
//! Divergence bookkeeping is plain word arithmetic because a mask is one
//! `u64` (bit `l` = lane `l` active). Empty-mask branch bodies are skipped
//! entirely via the structured ops' forward offsets, so converged batches
//! pay no masking overhead beyond one test per branch.
//!
//! Under a levelized plan ([`crate::compile::analyze`]), combinational
//! processes run once per cycle in the topological order computed by
//! [`cdfg::levelize`], under a **per-lane dirty gate**: every
//! signal keeps a changed-lanes mask, a process executes under a root mask
//! of just its dirty lanes, and a clean lane re-uses its previous segment
//! descriptor into the run-wide record arena — an 8-byte copy instead of
//! re-recording. Re-executing nothing for a clean lane is sound for values
//! too: its fanin is unchanged, so recomputed temporaries are identical and
//! assignments are masked off.
//!
//! Under a settle plan (a static cycle, several drivers, a combinational
//! write to an input, or a signal written by both kinds of process), the
//! gate is off and each cycle repeats the pass over every combinational
//! process in source order until a pass leaves every value as it found it
//! — the oracle's Gauss–Seidel settle across the lanes — and fails with
//! [`SimError::CombinationalLoop`] after `(processes + 4) * 4` passes, the
//! oracle's bound.

use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::compile::{analyze, Analysis, AssignMeta, BOp, Compiler, Op, SelKind};
use crate::error::SimError;
use crate::eval::{eval_binary_batch, eval_unary_batch, Write};
use crate::metrics;
use crate::netlist::{Netlist, SignalId};
use crate::testbench::{PortResolver, Stimulus};
use crate::trace::{
    CycleRecord, Execs, Operands, Records, Snapshot, StmtExec, Trace, TraceMode, VerdictTrace,
};
use crate::value::{BatchValue, Value, LANES};
use verilog::Item;

/// A control-flow frame on the mask stack.
#[derive(Debug, Clone, Copy)]
enum Frame {
    If {
        saved: u64,
        else_mask: u64,
    },
    Case {
        saved: u64,
        remaining: u64,
        subj: u16,
        taken: u8,
    },
}

/// Everything immutable after `build`.
#[derive(Debug)]
struct BatchCode {
    /// One program per combinational process, in source order.
    comb: Vec<Vec<BOp>>,
    /// One program per sequential process, in source order.
    seq: Vec<Vec<BOp>>,
    /// Evaluation order over `comb` indices.
    order: Vec<u32>,
    /// Per-comb-process exposed-read signal ids (the per-lane dirty gate).
    fanin: Vec<Vec<u32>>,
    /// Settle plan: repeat the ungated pass until no value changes.
    settle: bool,
    metas: Vec<AssignMeta>,
    /// Side pool of case-label slot indices referenced by [`BOp::CaseArm`].
    case_labels: Vec<u16>,
    /// Slab size: the widest program's slot count.
    slots: usize,
}

/// Reusable per-run scratch.
#[derive(Debug, Default)]
struct BatchState {
    slab: Vec<BatchValue>,
    /// Per-lane record scratch for the currently executing program; drained
    /// into the run-wide record arena after each process (combinational)
    /// or each edge (sequential).
    scratch: Vec<Vec<StmtExec>>,
    /// Per-lane deferred non-blocking writes, committed in push order.
    deferred: Vec<Vec<Write>>,
    /// The mask stack.
    frames: Vec<Frame>,
}

/// A compiled simulator for one netlist. The immutable [`BatchCode`] is
/// shared (`Arc`) so [`BatchEngine::fork`] hands out independent runnable
/// copies without recompiling — the basis of the serving layer's
/// compiled-design cache.
#[derive(Debug)]
pub(crate) struct BatchEngine {
    code: Arc<BatchCode>,
    state: BatchState,
}

impl BatchEngine {
    /// Analyzes and compiles a netlist.
    ///
    /// # Errors
    ///
    /// The [`SimError`] that rejects a construct with no simulated value
    /// (see [`crate::compile`]).
    pub(crate) fn build(netlist: &Netlist) -> Result<BatchEngine, SimError> {
        let Analysis {
            order,
            fanin,
            settle,
        } = analyze(netlist);
        let mut metas = Vec::new();
        let mut case_labels = Vec::new();
        let mut slots = 0usize;
        let mut compile = |&item: &usize| -> Result<Vec<BOp>, SimError> {
            let mut c = Compiler {
                netlist,
                code: Vec::new(),
                metas: &mut metas,
                case_labels: &mut case_labels,
                next_slot: 0,
            };
            match &netlist.module.items[item] {
                Item::Assign(a) => c.assign(a)?,
                Item::Always(blk) => c.stmts(&blk.body)?,
            }
            slots = slots.max(c.next_slot as usize);
            Ok(c.code)
        };
        let comb: Vec<Vec<BOp>> = netlist
            .comb
            .iter()
            .map(&mut compile)
            .collect::<Result<_, _>>()?;
        let seq: Vec<Vec<BOp>> = netlist
            .seq
            .iter()
            .map(&mut compile)
            .collect::<Result<_, _>>()?;

        Ok(BatchEngine {
            code: Arc::new(BatchCode {
                comb,
                seq,
                order,
                fanin,
                settle,
                metas,
                case_labels,
                slots,
            }),
            state: BatchState::default(),
        })
    }

    /// True under a settle plan.
    #[cfg(test)]
    pub(crate) fn settles(&self) -> bool {
        self.code.settle
    }

    /// An independent runnable engine sharing this one's compiled code.
    pub(crate) fn fork(&self) -> BatchEngine {
        BatchEngine {
            code: Arc::clone(&self.code),
            state: BatchState::default(),
        }
    }

    /// Runs up to [`LANES`] equal-length stimuli from the all-zero reset
    /// state, one lane each, under `mode`, and returns one `(trace,
    /// observed values)` pair per stimulus in order.
    ///
    /// One cycle loop serves every [`TraceMode`]. Each assignment's record
    /// flag comes from a per-[`AssignMeta`] mask derived once per call (all
    /// true in full mode, all false in verdict mode); a mode that records
    /// nothing keeps no record arena, descriptor pool or trace cycles.
    /// Observed signals are lane-extracted every cycle, and full mode also
    /// snapshots every signal. Values, dirty bits and masks evolve
    /// identically under every mode.
    ///
    /// # Errors
    ///
    /// [`SimError::CombinationalLoop`] when a settle plan's passes do not
    /// reach a fixpoint on some lane within the oracle's bound;
    /// [`SimError::UnknownSignal`] / [`SimError::NotAnInput`] for bad
    /// stimulus ports, reported before any cycle runs, for the first bad
    /// port of the first stimulus that has one: the assignment a
    /// stimulus-by-stimulus loop would reach first; and
    /// [`SimError::Cancelled`] when `cancel` fires between cycles (the whole
    /// batch is abandoned, like a sequential loop where a fired token fails
    /// every remaining run).
    ///
    /// # Panics
    ///
    /// Panics if `stimuli` is empty, longer than [`LANES`], or of uneven
    /// cycle counts — [`crate::Simulator::run_batch_mode`] chunks arbitrary
    /// stimulus sets to meet this contract.
    pub(crate) fn run(
        &mut self,
        netlist: &Netlist,
        stimuli: &[Stimulus],
        cancel: &CancelToken,
        mode: TraceMode<'_>,
    ) -> Result<Vec<(Trace, VerdictTrace)>, SimError> {
        let (fill, ncycles, fill_mask) = batch_shape(stimuli);

        let inputs = Inputs::resolve(netlist, stimuli)?;

        let code = &*self.code;
        let ncomb = code.comb.len();
        let keep: Vec<bool> = code.metas.iter().map(|m| mode.keeps(m.stmt)).collect();
        let record = !matches!(mode.records, Records::Nothing);
        let nsig = netlist.signal_count();
        // Signals per snapshot: every signal in full mode, none otherwise
        // (so no value arena is allocated).
        let nsnap = if matches!(mode.records, Records::All) {
            nsig
        } else {
            0
        };
        let observed = mode.observed;
        let nobs = observed.len();
        let state = &mut self.state;
        let mut values: Vec<BatchValue> = netlist
            .signals()
            .iter()
            .map(|s| BatchValue::zeros(s.width))
            .collect();
        state.slab.clear();
        state.slab.resize(code.slots, BatchValue::zeros(1));
        state.scratch.resize_with(fill, Vec::new);
        state.deferred.resize_with(fill, Vec::new);
        for v in &mut state.scratch {
            v.clear();
        }
        for v in &mut state.deferred {
            v.clear();
        }

        let mut arena: Vec<Value> = Vec::with_capacity(ncycles * fill * nsnap);
        let mut obs: Vec<Vec<Value>> = (0..fill)
            .map(|_| Vec::with_capacity(ncycles * nobs))
            .collect();
        // The run-wide record arena and segment-descriptor pool: every
        // fresh record of the run lands in `records` exactly once; each
        // (cycle, lane) execution list is a `spans` window over `segs`
        // descriptors into it. Clean lanes re-use their previous
        // descriptor, so nothing is copied for them.
        let mut records: Vec<StmtExec> = Vec::new();
        let mut segs: Vec<(u32, u32)> = Vec::new();
        let mut spans: Vec<(u32, u32)> =
            Vec::with_capacity(if record { ncycles * fill } else { 0 });
        // Last fresh descriptor per (comb process, lane), with the count
        // of records that execution did not keep (re-used with it).
        let mut last_desc: Vec<(u32, u32, u64)> =
            vec![(0, 0, 0); if record { ncomb * fill } else { 0 }];
        // Per-lane executions not recorded: by the program just executed
        // in a recording mode, over the whole run otherwise.
        let mut unrecorded = [0u64; LANES];
        // Records a recording mode did not keep, re-used descriptors
        // included.
        let mut skipped = 0u64;
        // Per-signal changed-lanes masks — the dirty set, one bit per
        // lane. Everything starts dirty at reset.
        let mut changed: Vec<u64> = vec![fill_mask; nsig];
        let mut m_divergences = 0u64;
        let mut m_ops = 0u64;
        let mut m_comb_evals = 0u64;
        let mut m_comb_skips = 0u64;
        // Settle plans: the pass bound (the oracle's) and pre-pass values.
        let max_passes = (ncomb as u32 + 4) * 4;
        let mut m_settle_passes = 0u64;
        let mut before: Vec<BatchValue> = Vec::new();

        for cycle_idx in 0..ncycles {
            let cycle = cycle_idx as u32;
            if cancel.is_cancelled() {
                return Err(SimError::Cancelled { at_cycle: cycle });
            }

            // 1. Apply inputs lane by lane; a changed input seeds the
            // lane's dirty bit.
            inputs.apply(stimuli, cycle_idx, &mut values, &mut changed);

            // 2. Combinational passes in plan order. Each process runs
            // under a root mask of just its dirty lanes (fanin changed); a
            // lane outside the mask neither writes nor records — its
            // previous segment descriptor is re-used below. Cycle 0 forces
            // a full execution so constant processes (empty fanin) record
            // once. A settle plan runs every lane and repeats the pass
            // until it leaves `values` as it found it (values, not
            // `changed` bits: a blocking temporary can change and revert
            // within one pass). That last pass starts from the fixpoint,
            // so its records are the ones the oracle's extra recording pass
            // makes; earlier passes' records are dropped.
            let pass_start = records.len();
            for pass in 1.. {
                if code.settle {
                    records.truncate(pass_start);
                    before.clone_from(&values);
                }
                for &pi in &code.order {
                    let pi = pi as usize;
                    let all = cycle_idx == 0 || code.settle;
                    let dmask = dirty_lanes(&code.fanin[pi], &changed, fill_mask, all);
                    let evaluated = u64::from(dmask.count_ones());
                    m_comb_evals += evaluated;
                    m_comb_skips += fill as u64 - evaluated;
                    if dmask == 0 {
                        continue;
                    }
                    exec_bops(
                        &code.comb[pi],
                        code,
                        &keep,
                        &mut state.slab,
                        &mut values,
                        &mut state.scratch,
                        fill,
                        dmask,
                        None,
                        &mut state.frames,
                        &mut changed,
                        &mut m_divergences,
                        &mut m_ops,
                        &mut unrecorded,
                    );
                    if !record {
                        continue;
                    }
                    // Fresh records for the dirty lanes move into the arena
                    // once; the descriptor is all later cycles need.
                    let mut lanes = dmask;
                    while lanes != 0 {
                        let l = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        let start = records.len() as u32;
                        records.append(&mut state.scratch[l]);
                        let len = records.len() as u32 - start;
                        last_desc[pi * fill + l] = (start, len, std::mem::take(&mut unrecorded[l]));
                    }
                }
                if !code.settle {
                    break;
                }
                if values == before {
                    m_settle_passes += u64::from(pass);
                    break;
                }
                if pass == max_passes {
                    return Err(SimError::CombinationalLoop {
                        iterations: max_passes,
                    });
                }
            }

            // 3. Snapshot pre-edge values: lane-extract into the run-wide
            // arena, cycle-major then lane-major, so lane `l`'s cycle `c`
            // window starts at `(c * fill + l) * nsnap`; observed signals
            // go to each lane's cycle-major column.
            for (l, lane_obs) in obs.iter_mut().enumerate() {
                for v in &values[..nsnap] {
                    arena.push(v.lane(l));
                }
                for &id in observed {
                    lane_obs.push(values[id.0 as usize].lane(l));
                }
            }

            // Changes are consumed; anything the edge writes below seeds
            // the next cycle's gate.
            for c in changed.iter_mut() {
                *c = 0;
            }

            // 4. Clock edge: sequential programs always execute in full
            // and record fresh; non-blocking writes defer per lane and
            // commit in push order, like the interpreter.
            for prog in &code.seq {
                exec_bops(
                    prog,
                    code,
                    &keep,
                    &mut state.slab,
                    &mut values,
                    &mut state.scratch,
                    fill,
                    fill_mask,
                    Some(state.deferred.as_mut_slice()),
                    &mut state.frames,
                    &mut changed,
                    &mut m_divergences,
                    &mut m_ops,
                    &mut unrecorded,
                );
            }
            commit_deferred(&mut state.deferred, &mut values, &mut changed);

            if !record {
                continue;
            }
            // 5. Describe each lane's cycle: combinational descriptors in
            // source-process order (fresh or re-used), then this edge's
            // sequential records. A process with no kept records pushes
            // no descriptor.
            for l in 0..fill {
                let seg_start = segs.len() as u32;
                for p in 0..ncomb {
                    let (start, len, skip) = last_desc[p * fill + l];
                    skipped += skip;
                    if len != 0 {
                        segs.push((start, len));
                    }
                }
                skipped += std::mem::take(&mut unrecorded[l]);
                let seq_rec = &mut state.scratch[l];
                if !seq_rec.is_empty() {
                    let start = records.len() as u32;
                    records.append(seq_rec);
                    segs.push((start, records.len() as u32 - start));
                }
                spans.push((seg_start, segs.len() as u32 - seg_start));
            }

            // Cycle 0 executes every process on every lane, so its record
            // and descriptor counts bound the per-cycle worst case; one
            // up-front reserve avoids doubling-growth memcpys of the
            // run-wide arena on later cycles.
            if cycle_idx == 0 && ncycles > 1 {
                records.reserve(records.len() * (ncycles - 1));
                segs.reserve(segs.len() * (ncycles - 1));
            }
        }

        metrics::CYCLES.add((ncycles * fill) as u64);
        metrics::RUNS_BATCH.add(fill as u64);
        metrics::BATCH_LANES.record(fill as u64);
        metrics::MASK_DIVERGENCES.add(m_divergences);
        metrics::COMB_EVALS.add(m_comb_evals);
        metrics::COMB_SKIPS.add(m_comb_skips);
        metrics::BYTECODE_OPS.add(m_ops);
        metrics::SEQ_EVALS.add((ncycles * code.seq.len()) as u64);
        metrics::SETTLE_ITERS.add(m_settle_passes);
        if nobs > 0 {
            metrics::RUNS_VERDICT.add(fill as u64);
        }
        // What the run did not materialize: a recording mode's skipped
        // records, or every execution of a mode that records nothing.
        if record {
            metrics::RECORDS_SKIPPED.add(skipped);
        } else {
            metrics::RECORDS_ELIDED.add(unrecorded[..fill].iter().sum());
        }

        // Assemble one trace per lane. Snapshots view the shared value
        // arena at lane-strided offsets; execution lists view the shared
        // record arena through their descriptor spans. Equality compares
        // viewed contents, so these compare equal to interpreter traces.
        let arena: Arc<[Value]> = arena.into();
        let records = Arc::new(records);
        let segs = Arc::new(segs);
        let mut lane_cycles: Vec<Vec<CycleRecord>> = (0..fill)
            .map(|_| Vec::with_capacity(if record { ncycles } else { 0 }))
            .collect();
        for (i, &(seg_start, seg_len)) in spans.iter().enumerate() {
            let (c, l) = (i / fill, i % fill);
            lane_cycles[l].push(CycleRecord {
                cycle: c as u32,
                signals: Snapshot::view(Arc::clone(&arena), i * nsnap, nsnap),
                execs: Execs::from_parts(
                    Arc::clone(&records),
                    Arc::clone(&segs),
                    seg_start,
                    seg_len,
                ),
            });
        }
        Ok(lane_cycles
            .into_iter()
            .zip(obs)
            .map(|(cycles, values)| (Trace { cycles }, VerdictTrace { values, nobs }))
            .collect())
    }
}

/// Validates a batch's shape and returns `(fill, cycles, fill_mask)`.
///
/// # Panics
///
/// When `stimuli` is empty, longer than [`LANES`], or of uneven cycle
/// counts.
fn batch_shape(stimuli: &[Stimulus]) -> (usize, usize, u64) {
    let fill = stimuli.len();
    assert!(
        (1..=LANES).contains(&fill),
        "batch fill {fill} out of 1..={LANES}"
    );
    let ncycles = stimuli[0].len();
    assert!(
        stimuli.iter().all(|s| s.len() == ncycles),
        "batched stimuli must have equal cycle counts"
    );
    let fill_mask = if fill == LANES {
        u64::MAX
    } else {
        (1u64 << fill) - 1
    };
    (fill, ncycles, fill_mask)
}

/// Every lane's input ports resolved to signal ids up front — once per
/// distinct port list, so a generated set resolves once per batch.
struct Inputs {
    /// `ids[l]` is lane `l`'s signal id per port.
    ids: Vec<Arc<[SignalId]>>,
}

impl Inputs {
    /// Resolves every lane's ports in stimulus order, so the first
    /// validation error is the one a stimulus-by-stimulus interpreter loop
    /// would hit.
    fn resolve(netlist: &Netlist, stimuli: &[Stimulus]) -> Result<Inputs, SimError> {
        let mut resolver = PortResolver::default();
        let ids = stimuli
            .iter()
            .map(|stim| resolver.resolve(netlist, stim))
            .collect::<Result<_, _>>()?;
        Ok(Inputs { ids })
    }

    /// Applies cycle `cycle`'s words on every lane, marking lanes whose
    /// input value changed in `changed`.
    fn apply(
        &self,
        stimuli: &[Stimulus],
        cycle: usize,
        values: &mut [BatchValue],
        changed: &mut [u64],
    ) {
        for (l, (stim, ids)) in stimuli.iter().zip(&self.ids).enumerate() {
            for (&bits, id) in stim.cycle(cycle).iter().zip(ids.iter()) {
                let v = &mut values[id.0 as usize];
                let next = bits & Value::mask(v.width());
                let word = &mut v.words_mut()[l];
                if *word != next {
                    *word = next;
                    changed[id.0 as usize] |= 1 << l;
                }
            }
        }
    }
}

/// The lanes on which a combinational process must run this cycle: every
/// filled lane when `all` is set (the first cycle, so constant processes
/// record once, and every cycle of a settle plan), otherwise the lanes
/// where some fanin signal changed.
fn dirty_lanes(fanin: &[u32], changed: &[u64], fill_mask: u64, all: bool) -> u64 {
    if all {
        return fill_mask;
    }
    fanin.iter().fold(0, |m, &sig| m | changed[sig as usize]) & fill_mask
}

/// Commits each lane's deferred non-blocking writes in push order, marking
/// value-changing writes in `changed`.
fn commit_deferred(deferred: &mut [Vec<Write>], values: &mut [BatchValue], changed: &mut [u64]) {
    for (l, writes) in deferred.iter_mut().enumerate() {
        for w in writes.drain(..) {
            let t = &mut values[w.target.0 as usize];
            let cur = t.lane(l);
            let next = w.apply(cur);
            if next != cur {
                t.set_lane(l, next);
                changed[w.target.0 as usize] |= 1 << l;
            }
        }
    }
}

/// Executes one batch program under a root activity mask (the caller's
/// per-lane dirty mask for combinational processes, the full fill mask for
/// sequential ones and settle passes). Infallible by construction: every
/// construct without a simulated value was rejected at compile time.
/// Value-changing writes OR the written lane into the
/// signal's `changed` mask, feeding the per-lane dirty gate.
///
/// An active-lane assignment pushes a per-lane [`StmtExec`] into
/// `recorders[l]` when its `keep[meta]` flag is set, and is tallied per lane
/// in `unrecorded` otherwise. Masks, values, and deferred writes evolve
/// identically either way.
#[allow(clippy::too_many_arguments)]
fn exec_bops(
    bops: &[BOp],
    code: &BatchCode,
    keep: &[bool],
    slab: &mut [BatchValue],
    values: &mut [BatchValue],
    recorders: &mut [Vec<StmtExec>],
    fill: usize,
    root_mask: u64,
    mut deferred: Option<&mut [Vec<Write>]>,
    frames: &mut Vec<Frame>,
    changed: &mut [u64],
    m_divergences: &mut u64,
    m_ops: &mut u64,
    unrecorded: &mut [u64; LANES],
) {
    let metas = &code.metas;
    let mut mask = root_mask;
    let mut executed = 0u64;
    frames.clear();
    let mut pc = 0usize;
    while pc < bops.len() {
        executed += 1;
        match bops[pc] {
            BOp::Expr(op) => exec_expr(op, slab, values, fill),
            BOp::Assign { rhs, meta } => {
                let m = &metas[meta as usize];
                let record = keep[meta as usize];
                let value = &slab[rhs as usize];
                let mut lanes = mask;
                while lanes != 0 {
                    let l = lanes.trailing_zeros() as usize;
                    lanes &= lanes - 1;
                    let write = match m.sel {
                        SelKind::Full { width } => Write {
                            target: m.target,
                            lo: 0,
                            width,
                            bits: value.words()[l] & Value::mask(width),
                        },
                        SelKind::Bit { width, idx } => {
                            let i = slab[idx as usize].words()[l].min(63) as u8;
                            Write {
                                target: m.target,
                                lo: i.min(width - 1),
                                width: 1,
                                bits: value.words()[l] & 1,
                            }
                        }
                        SelKind::Part { lo, width } => Write {
                            target: m.target,
                            lo,
                            width,
                            bits: value.words()[l] & Value::mask(width),
                        },
                    };
                    // Operands are read before the write lands, matching
                    // the interpreter's record-then-apply order.
                    if record {
                        recorders[l].push(StmtExec {
                            stmt: m.stmt,
                            operands: Operands::capture(m.read_ids.len(), |k| {
                                values[m.read_ids[k].0 as usize].lane(l)
                            }),
                            result: Value::new(write.bits, write.width),
                        });
                    } else {
                        unrecorded[l] += 1;
                    }
                    match (&mut deferred, m.nonblocking) {
                        (Some(d), true) => d[l].push(write),
                        _ => {
                            let t = &mut values[write.target.0 as usize];
                            let cur = t.lane(l);
                            let next = write.apply(cur);
                            if next != cur {
                                t.set_lane(l, next);
                                changed[write.target.0 as usize] |= 1 << l;
                            }
                        }
                    }
                }
            }
            BOp::BranchIf { cond, else_at } => {
                let t = mask & slab[cond as usize].truthy_mask();
                let e = mask & !t;
                if t != 0 && e != 0 {
                    *m_divergences += 1;
                }
                frames.push(Frame::If {
                    saved: mask,
                    else_mask: e,
                });
                if t == 0 {
                    pc = else_at as usize;
                    continue;
                }
                mask = t;
            }
            BOp::Else { end_at } => {
                let Some(Frame::If { else_mask, .. }) = frames.last() else {
                    unreachable!("Else outside an if frame");
                };
                mask = *else_mask;
                if mask == 0 {
                    pc = end_at as usize;
                    continue;
                }
            }
            BOp::EndIf => {
                let Some(Frame::If { saved, .. }) = frames.pop() else {
                    unreachable!("EndIf outside an if frame");
                };
                mask = saved;
            }
            BOp::CaseBegin { subj } => {
                frames.push(Frame::Case {
                    saved: mask,
                    remaining: mask,
                    subj,
                    taken: 0,
                });
            }
            BOp::CaseArm {
                labels_start,
                labels_len,
                next_at,
            } => {
                let Some(Frame::Case {
                    remaining,
                    subj,
                    taken,
                    ..
                }) = frames.last_mut()
                else {
                    unreachable!("CaseArm outside a case frame");
                };
                let subject = &slab[*subj as usize];
                let mut matched = 0u64;
                let range = labels_start as usize..(labels_start + labels_len) as usize;
                for &label_slot in &code.case_labels[range] {
                    matched |= subject.eq_mask(&slab[label_slot as usize]);
                }
                let arm = *remaining & matched;
                *remaining &= !arm;
                if arm == 0 {
                    pc = next_at as usize;
                    continue;
                }
                *taken += 1;
                mask = arm;
            }
            BOp::CaseDefault { end_at } => {
                let Some(Frame::Case {
                    remaining, taken, ..
                }) = frames.last_mut()
                else {
                    unreachable!("CaseDefault outside a case frame");
                };
                mask = *remaining;
                if mask == 0 {
                    pc = end_at as usize;
                    continue;
                }
                *taken += 1;
            }
            BOp::CaseEnd => {
                let Some(Frame::Case { saved, taken, .. }) = frames.pop() else {
                    unreachable!("CaseEnd outside a case frame");
                };
                if taken > 1 {
                    *m_divergences += u64::from(taken) - 1;
                }
                mask = saved;
            }
        }
        pc += 1;
    }
    *m_ops += executed;
}

/// Evaluates one expression op on the first `n` lanes, writing the
/// destination slot in place. Expressions for inactive lanes compute
/// harmless garbage (assignment is the only side effect, and it is
/// masked); every kernel is total, so no lane can fault. Lanes `n..LANES`
/// of the destination are left untouched — nothing reads beyond the fill.
///
/// The compiler allocates a fresh destination slot *after* its operand
/// slots (slots are never reused within a program), so `dst` is strictly
/// greater than every operand slot and `split_at_mut` yields disjoint
/// borrows without copying 512-byte values through temporaries.
fn exec_expr(op: Op, slab: &mut [BatchValue], values: &[BatchValue], n: usize) {
    match op {
        Op::Load { dst, sig } => slab[dst as usize].copy_lanes(&values[sig as usize], n),
        Op::Const { dst, val } => slab[dst as usize].splat_lanes(val, n),
        Op::Unary { dst, op, a } => {
            debug_assert!(a < dst);
            let (lo, hi) = slab.split_at_mut(dst as usize);
            eval_unary_batch(op, &lo[a as usize], n, &mut hi[0]);
        }
        Op::Binary { dst, op, a, b } => {
            debug_assert!(a < dst && b < dst);
            let (lo, hi) = slab.split_at_mut(dst as usize);
            eval_binary_batch(op, &lo[a as usize], &lo[b as usize], n, &mut hi[0]);
        }
        Op::Ternary { dst, cond, t, f } => {
            debug_assert!(cond < dst && t < dst && f < dst);
            let (lo, hi) = slab.split_at_mut(dst as usize);
            let c = lo[cond as usize].truthy_mask();
            let tv = &lo[t as usize];
            let fv = &lo[f as usize];
            let w = tv.width().max(fv.width());
            let out = hi[0].words_mut();
            let (tw, fw) = (&tv.words()[..n], &fv.words()[..n]);
            for (l, ((o, &t), &f)) in out.iter_mut().zip(tw).zip(fw).enumerate() {
                *o = if c >> l & 1 == 1 { t } else { f };
            }
            hi[0].set_width(w);
        }
        Op::Index { dst, sig, idx } => {
            debug_assert!(idx < dst);
            let v = &values[sig as usize];
            let (lo, hi) = slab.split_at_mut(dst as usize);
            let i = &lo[idx as usize];
            let w = u64::from(v.width());
            let out = hi[0].words_mut();
            let (iw, vw) = (&i.words()[..n], &v.words()[..n]);
            for ((o, &bit), &word) in out.iter_mut().zip(iw).zip(vw) {
                *o = u64::from(bit < w && (word >> bit) & 1 == 1);
            }
            hi[0].set_width(1);
        }
        Op::Part {
            dst,
            sig,
            lsb,
            width,
        } => {
            let v = &values[sig as usize];
            let m = Value::mask(width);
            let d = &mut slab[dst as usize];
            let out = d.words_mut();
            // A position past bit 63 wraps modulo 64, like the oracle.
            for (o, &word) in out.iter_mut().zip(&v.words()[..n]) {
                *o = word.wrapping_shr(lsb) & m;
            }
            d.set_width(width);
        }
        Op::Concat { dst, hi, lo } => {
            debug_assert!(hi < dst && lo < dst);
            let (rest, d) = slab.split_at_mut(dst as usize);
            let h = &rest[hi as usize];
            let l = &rest[lo as usize];
            let lw = l.width();
            let out = d[0].words_mut();
            let (hw, lo_w) = (&h.words()[..n], &l.words()[..n]);
            for ((o, &hi_word), &lo_word) in out.iter_mut().zip(hw).zip(lo_w) {
                *o = (hi_word << lw) | lo_word;
            }
            d[0].set_width(h.width() + lw);
        }
    }
}
