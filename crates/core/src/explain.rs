//! Explanation generation (paper Sec. IV-D): attention maps, aggregated
//! maps `F_t`/`C_t`, suspiciousness scores, and the final heatmap `H_t`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::features::StatementFeatures;
use crate::model::{OperandContexts, VeriBugModel};
use crate::train::operand_positions;
use cdfg::{Cdfg, ConeOfInfluence, Slice, Vdg};
use sim::{StmtExec, Trace, TraceLabel};
use verilog::{Module, StmtId};

/// The default suspiciousness threshold (paper: 0.10).
pub const DEFAULT_THRESHOLD: f32 = 0.10;

/// How many cycles before a target divergence still count as
/// "failure-relevant" when aggregating failing-trace attention. Covers
/// sequential propagation from a buggy register update to the output.
pub const DEFAULT_FAILURE_WINDOW: u32 = 1;

/// One trace with its label and (for failing traces) the cycles where the
/// target output diverged from the golden design.
#[derive(Debug, Clone)]
pub struct LabelledTrace<'t> {
    /// The (mutant) trace to analyze.
    pub trace: &'t Trace,
    /// Failing (`T_f`) or correct (`T_c`).
    pub label: TraceLabel,
    /// Divergence cycles, when known. Empty means "unknown": the whole
    /// failing trace is aggregated (the paper's plain trace-level scheme).
    pub failure_cycles: Vec<u32>,
}

impl<'t> LabelledTrace<'t> {
    /// Wraps a trace with a label and no divergence information.
    pub fn new(label: TraceLabel, trace: &'t Trace) -> Self {
        LabelledTrace {
            trace,
            label,
            failure_cycles: Vec::new(),
        }
    }
}

/// Per-statement aggregated attention: mean operand importance over every
/// execution seen in one trace set.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StmtAttention {
    /// Operand names, aligned with `weights`.
    pub operands: Vec<String>,
    /// Mean attention weight per operand.
    pub weights: Vec<f32>,
    /// Number of executions averaged.
    pub count: usize,
}

/// An aggregated attention map over a set of traces (the paper's `F_t` or
/// `C_t`).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct AttentionMap {
    /// Mean attention per statement in the dynamic slice.
    pub per_stmt: BTreeMap<StmtId, StmtAttention>,
}

impl AttentionMap {
    /// True when no statement was observed.
    pub fn is_empty(&self) -> bool {
        self.per_stmt.is_empty()
    }
}

/// Why a statement entered the heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SuspicionReason {
    /// Present only in failing traces.
    OnlyInFailing,
    /// Present in both; attention differs above the threshold.
    DivergentAttention,
}

/// One heatmap entry: a candidate buggy statement with its `F_t` weights.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeatmapEntry {
    /// Operand names, aligned with `weights`.
    pub operands: Vec<String>,
    /// The failing-trace importance scores (copied from `F_t`).
    pub weights: Vec<f32>,
    /// The suspiciousness score `d(F_t(l), C_t(l))` (1.0 for statements
    /// absent from `C_t`).
    pub suspiciousness: f32,
    /// Why the statement is in the heatmap.
    pub reason: SuspicionReason,
}

/// The final heatmap `H_t`: candidate buggy statements only.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Heatmap {
    /// Heatmap entries by statement.
    pub entries: BTreeMap<StmtId, HeatmapEntry>,
    /// The threshold used.
    pub threshold: f32,
}

impl Heatmap {
    /// The statement with the highest suspiciousness, if any. Ties break
    /// toward the lowest statement id (deterministic).
    pub fn top1(&self) -> Option<StmtId> {
        self.entries
            .iter()
            .max_by(|a, b| {
                a.1.suspiciousness
                    .total_cmp(&b.1.suspiciousness)
                    .then(b.0.cmp(a.0))
            })
            .map(|(id, _)| *id)
    }

    /// Statements ranked by decreasing suspiciousness.
    pub fn ranked(&self) -> Vec<(StmtId, f32)> {
        let mut v: Vec<(StmtId, f32)> = self
            .entries
            .iter()
            .map(|(id, e)| (*id, e.suspiciousness))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Number of candidate statements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing crossed the threshold.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Slot of a statement the explainer does not attribute.
const NO_SLOT: u32 = u32::MAX;

/// One statement the explainer attributes: executed records of it are in
/// the target's dynamic slice. Resolved once in [`ExplainerState::new`].
#[derive(Debug)]
struct Slot {
    features: StatementFeatures,
    /// Record read-order position of each feature operand (execution
    /// records store operand values positionally).
    positions: Vec<usize>,
    /// Sequential depth: the minimum number of clock cycles for a change
    /// at the defined signal to reach the target (from the
    /// cone-of-influence analysis). A buggy execution at depth δ
    /// symptomatizes δ cycles later, so failing-trace aggregation aligns
    /// the statement's window by its own δ.
    depth: u32,
    /// Where the statement's operand weights start in a [`DenseMap`].
    offset: usize,
    /// Operand contexts, embedded on the statement's first memo miss.
    contexts: Option<OperandContexts>,
    /// Memoized attention per operand value vector, bit-packed (operand
    /// `i` is bit `i`): executions of a statement with the same values
    /// always produce the same weights, and traces repeat them constantly.
    /// Values index [`ExplainerState`]'s weight arena.
    memo: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The same memo for statements with more than 64 operands, keyed by
    /// the unpacked values.
    wide_memo: HashMap<Vec<bool>, u32>,
}

impl Slot {
    fn width(&self) -> usize {
        self.positions.len()
    }

    /// This statement's operand weights in `map`.
    fn weights_in<'a>(&self, map: &'a DenseMap) -> &'a [f32] {
        &map.weights[self.offset..][..self.width()]
    }

    fn operand_names(&self) -> Vec<String> {
        self.features
            .operands
            .iter()
            .map(|o| o.name.clone())
            .collect()
    }
}

/// A one-multiply hasher for bit-packed value keys: they are small
/// integers the explainer derives itself, so SipHash's flooding
/// resistance would only cost time on every record.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One execution record resolved against the explainer's tables.
#[derive(Debug, Clone, Copy)]
struct Record {
    slot: u32,
    /// Offset of the execution's attention vector in the weight arena.
    weights: u32,
}

/// One labelled trace, resolved: its records split by the map they feed.
#[derive(Debug, Default)]
struct ResolvedRun {
    failing: bool,
    /// Records aggregated into `F_t`, in trace order.
    f: Vec<Record>,
    /// Records aggregated into `C_t`, in trace order.
    c: Vec<Record>,
}

/// A run set resolved by [`ExplainerState::resolve`], in run order.
#[derive(Debug)]
pub(crate) struct Resolved {
    runs: Vec<ResolvedRun>,
}

/// Per-statement attention in slot layout: each slot's operand weights at
/// its offset, plus the slot's execution count (0 means absent).
#[derive(Debug)]
struct DenseMap {
    weights: Vec<f32>,
    counts: Vec<usize>,
}

/// The Explainer: a trained model applied to labelled traces of one design.
///
/// Each labelled trace is walked once (`Explainer::resolve`): every
/// record of an attributed statement is looked up in dense
/// statement-indexed tables, classified into the `F_t` and/or `C_t`
/// aggregation it feeds, and paired with its memoized attention vector.
/// All maps and heatmaps are then aggregated from those compact records.
/// Everything but the model reference and the failure window lives in an
/// [`ExplainerState`].
#[derive(Debug)]
pub struct Explainer<'m> {
    model: &'m VeriBugModel,
    failure_window: u32,
    state: ExplainerState,
}

/// The part of an [`Explainer`] that does not borrow the model: the
/// target's static slice, the slot tables with their lazily embedded
/// operand contexts and attention memo, and the memo's weight arena.
///
/// It is a function of the design, the target and the model's weights
/// alone, so a caller that localizes the same design and target again
/// under the same weights can hand the state of the last run to the next
/// ([`run_with_sims`](crate::localize::run_with_sims)): that run skips
/// building the tables and every model evaluation the memo already holds.
/// A memoized vector equals a fresh evaluation over the same contexts and
/// aggregation order does not depend on the memo, so reuse never changes
/// a result.
#[derive(Debug)]
pub struct ExplainerState {
    slice: Slice,
    /// Statement id → slot index, [`NO_SLOT`] for statements outside the
    /// slice or without attributable operands.
    slot_of: Vec<u32>,
    slots: Vec<Slot>,
    /// Total operand count over all slots: the length of a [`DenseMap`].
    width: usize,
    /// Every memoized attention vector, back to back.
    arena: Vec<f32>,
}

impl<'m> Explainer<'m> {
    /// Prepares an explainer for `module` and target output `t`,
    /// elaborating `module` for operand read order.
    pub fn new(model: &'m VeriBugModel, module: &Module, target: &str) -> Self {
        let netlist = sim::Netlist::elaborate(module).ok();
        Explainer {
            model,
            failure_window: DEFAULT_FAILURE_WINDOW,
            state: ExplainerState::build(module, netlist.as_ref(), target),
        }
    }

    /// Overrides the failure-window width (cycles before a divergence that
    /// still count as failure-relevant).
    pub fn with_failure_window(mut self, window: u32) -> Self {
        self.failure_window = window;
        self
    }

    /// The static slice the explainer restricts attention to.
    pub fn slice(&self) -> &Slice {
        &self.state.slice
    }

    /// The statements the explainer attributes (see
    /// [`ExplainerState::attributed`]).
    pub fn attributed(&self) -> BTreeSet<StmtId> {
        self.state.attributed()
    }

    /// Builds the heatmap `H_t` from failing and correct attention maps
    /// using the paper's three-case comparison and the given threshold.
    pub fn heatmap(failing: &AttentionMap, correct: &AttentionMap, threshold: f32) -> Heatmap {
        let mut entries = BTreeMap::new();
        for (id, f_att) in &failing.per_stmt {
            let c_weights = correct.per_stmt.get(id).map(|c| &c.weights[..]);
            if let Some((score, reason)) = suspicion(&f_att.weights, c_weights, threshold) {
                entries.insert(
                    *id,
                    HeatmapEntry {
                        operands: f_att.operands.clone(),
                        weights: f_att.weights.clone(),
                        suspiciousness: score,
                        reason,
                    },
                );
            }
        }
        Heatmap { entries, threshold }
    }

    /// End-to-end explanation: split labelled runs into `T_f`/`T_c`,
    /// aggregate both maps, and produce the heatmap.
    ///
    /// Two refinements over the plain trace-level scheme (both documented
    /// in DESIGN.md):
    ///
    /// - **Failure-centered aggregation.** When a failing trace carries its
    ///   divergence cycles, only executions within
    ///   [`DEFAULT_FAILURE_WINDOW`] cycles *before* (and including) a
    ///   divergence contribute to `F_t`. Executions far from any symptom
    ///   carry correct-behavior statistics and would dilute the comparison.
    /// - **Masked-cycle fallback for `C_t`.** When *no* run is fully
    ///   correct (short aggressive stimuli can expose a bug in every run),
    ///   the correct map is built from the non-divergent cycles of the
    ///   failing traces instead of being empty, which would otherwise mark
    ///   every statement "only-in-failing" and destroy the ranking.
    pub fn explain(
        &mut self,
        runs: &[LabelledTrace<'_>],
        threshold: f32,
    ) -> (Heatmap, AttentionMap, AttentionMap) {
        let resolved = self.resolve(runs, |_| true);
        let _span = obs::span("explain.aggregate");
        let state = &self.state;
        let runs: Vec<&ResolvedRun> = resolved.runs.iter().collect();
        let f_map = state.to_map(&state.failing_dense(&runs));
        let c_map = state.to_map(&state.correct_dense(&runs));
        let heatmap = Self::heatmap(&f_map, &c_map, threshold);
        (heatmap, f_map, c_map)
    }

    /// [`ExplainerState::resolve`] under this explainer's model and
    /// failure window.
    pub(crate) fn resolve(
        &mut self,
        runs: &[LabelledTrace<'_>],
        keep: impl Fn(usize) -> bool,
    ) -> Resolved {
        self.state
            .resolve(self.model, self.failure_window, runs, keep)
    }

    /// [`ExplainerState::grouped`].
    pub(crate) fn grouped(&self, resolved: &Resolved, threshold: f32, groups: usize) -> Heatmap {
        self.state.grouped(resolved, threshold, groups)
    }
}

impl ExplainerState {
    /// Builds the slice and slot tables of `netlist.module` for `target`,
    /// with an empty memo; operand read order comes from the netlist.
    pub fn new(netlist: &sim::Netlist, target: &str) -> ExplainerState {
        ExplainerState::build(&netlist.module, Some(netlist), target)
    }

    /// [`ExplainerState::new`]; `netlist` is `None` when elaboration failed.
    fn build(module: &Module, netlist: Option<&sim::Netlist>, target: &str) -> ExplainerState {
        let cdfg = Cdfg::build(module);
        let vdg = Vdg::from_cdfg(module, &cdfg);
        let slice = Slice::of_target_with(&cdfg, &vdg, target);
        let coi = ConeOfInfluence::compute(&vdg, target, 16);
        let mut depth = BTreeMap::new();
        for node in cdfg.nodes() {
            if !slice.contains(node.stmt) {
                continue;
            }
            let signal_depth = if node.lhs == target {
                0
            } else {
                coi.min_cycles.get(&node.lhs).copied().unwrap_or(0)
            };
            // A non-blocking assignment executed at cycle c commits its
            // value at the clock edge, so its effect is visible from cycle
            // c+1: the statement sits one cycle deeper than its signal.
            let commit_delay = u32::from(node.kind == verilog::AssignKind::NonBlocking);
            depth.insert(node.stmt, signal_depth + commit_delay);
        }
        // Records carry positional operand values; resolve each feature
        // operand's position once, against the netlist's read order. Designs
        // that fail to elaborate produce no traces, so they need no slots;
        // neither do statements with an operand the simulator never records.
        let mut slot_of = Vec::new();
        let mut slots = Vec::new();
        let mut width = 0;
        if let Some(netlist) = netlist {
            for a in module.assignments() {
                let id = a.id;
                if !slice.contains(id) {
                    continue;
                }
                let Some(features) = StatementFeatures::extract(a) else {
                    continue;
                };
                let Some(positions) = operand_positions(&features, netlist)
                    .into_iter()
                    .collect::<Option<Vec<usize>>>()
                else {
                    continue;
                };
                let index = id.0 as usize;
                if slot_of.len() <= index {
                    slot_of.resize(index + 1, NO_SLOT);
                }
                slot_of[index] = slots.len() as u32;
                let slot = Slot {
                    features,
                    depth: depth.get(&id).copied().unwrap_or(0),
                    offset: width,
                    positions,
                    contexts: None,
                    memo: HashMap::default(),
                    wide_memo: HashMap::new(),
                };
                width += slot.width();
                slots.push(slot);
            }
        }
        ExplainerState {
            slice,
            slot_of,
            slots,
            width,
            arena: Vec::new(),
        }
    }

    /// The statements the explainer attributes: slice statements whose
    /// feature operands the simulator records. Records of any other
    /// statement are never read, so a records-only run over this set
    /// ([`sim::TraceMode::records`]) explains identically to a full trace.
    pub fn attributed(&self) -> BTreeSet<StmtId> {
        self.slots.iter().map(|s| s.features.stmt).collect()
    }

    /// How many `f32`s the attention memo holds: it grows by one
    /// statement's operand count per model evaluation, and never shrinks.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Walks each labelled trace once, resolving every attributable record
    /// of the runs `keep` selects (by index) into the maps it feeds and its
    /// memoized attention, evaluating `model` on memo misses. Runs not kept
    /// resolve to no records.
    pub(crate) fn resolve(
        &mut self,
        model: &VeriBugModel,
        failure_window: u32,
        runs: &[LabelledTrace<'_>],
        keep: impl Fn(usize) -> bool,
    ) -> Resolved {
        let _span = obs::span("explain.resolve");
        Resolved {
            runs: runs
                .iter()
                .enumerate()
                .map(|(i, run)| {
                    if keep(i) {
                        self.resolve_run(model, failure_window, run)
                    } else {
                        ResolvedRun::default()
                    }
                })
                .collect(),
        }
    }

    fn resolve_run(
        &mut self,
        model: &VeriBugModel,
        window: u32,
        run: &LabelledTrace<'_>,
    ) -> ResolvedRun {
        static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("explain.attention_cache_hits");
        let failing = run.label == TraceLabel::Failing;
        let divergences = &run.failure_cycles;
        let mut out = ResolvedRun {
            failing,
            ..ResolvedRun::default()
        };
        let mut hits = 0u64;
        for cycle in &run.trace.cycles {
            for exec in &cycle.execs {
                let slot = self
                    .slot_of
                    .get(exec.stmt.0 as usize)
                    .copied()
                    .unwrap_or(NO_SLOT);
                if slot == NO_SLOT {
                    continue;
                }
                // Which maps the execution feeds: F_t is failure-centered
                // when divergence cycles are known (the whole trace when
                // not); C_t takes correct runs whole plus the masked
                // cycles of failing runs.
                let (into_f, into_c) = if !failing {
                    (false, true)
                } else if divergences.is_empty() {
                    (true, false)
                } else {
                    let depth = self.slots[slot as usize].depth;
                    (
                        near_divergence(divergences, depth, window, cycle.cycle),
                        far_from_divergences(divergences, depth, window, cycle.cycle),
                    )
                };
                if !(into_f || into_c) {
                    continue;
                }
                let Some((weights, hit)) = self.attention_of(model, slot, exec) else {
                    continue;
                };
                hits += u64::from(hit);
                let record = Record { slot, weights };
                if into_f {
                    out.f.push(record);
                }
                if into_c {
                    out.c.push(record);
                }
            }
        }
        CACHE_HITS.add(hits);
        out
    }

    /// The memoized attention of one execution of `slot`: its arena offset
    /// and whether the memo already held it. `None` when a feature operand
    /// was not recorded (should not happen for executions produced by
    /// `veribug-sim`).
    fn attention_of(
        &mut self,
        model: &VeriBugModel,
        slot: u32,
        exec: &StmtExec,
    ) -> Option<(u32, bool)> {
        let arena = &mut self.arena;
        let slot = &mut self.slots[slot as usize];
        let recorded = exec.operands.values();
        if slot.width() <= 64 {
            let mut key = 0u64;
            for (i, &p) in slot.positions.iter().enumerate() {
                key |= u64::from(recorded.get(p)?.is_truthy()) << i;
            }
            if let Some(&w) = slot.memo.get(&key) {
                return Some((w, true));
            }
            let values: Vec<bool> = (0..slot.width()).map(|i| key >> i & 1 == 1).collect();
            let w = evaluate(model, slot, &values, arena);
            slot.memo.insert(key, w);
            Some((w, false))
        } else {
            let values = slot
                .positions
                .iter()
                .map(|&p| recorded.get(p).map(|v| v.is_truthy()))
                .collect::<Option<Vec<bool>>>()?;
            if let Some(&w) = slot.wide_memo.get(&values) {
                return Some((w, true));
            }
            let w = evaluate(model, slot, &values, arena);
            slot.wide_memo.insert(values, w);
            Some((w, false))
        }
    }

    /// Splits the resolved runs into `groups` interleaved subsets, builds
    /// each subset's heatmap, and max-pools statement suspiciousness
    /// across them (see [`grouped_heatmap`](crate::coverage::grouped_heatmap)).
    pub(crate) fn grouped(&self, resolved: &Resolved, threshold: f32, groups: usize) -> Heatmap {
        let _span = obs::span("explain.aggregate");
        let groups = crate::coverage::group_count(resolved.runs.len(), groups);
        // Per slot, the most suspicious group's (score, reason, F_t weights).
        let mut best: Vec<Option<(f32, SuspicionReason, Vec<f32>)>> =
            self.slots.iter().map(|_| None).collect();
        for g in 0..groups {
            let subset: Vec<&ResolvedRun> = resolved.runs.iter().skip(g).step_by(groups).collect();
            // A group with no failing runs carries no localization signal.
            if !subset.iter().any(|r| r.failing) {
                continue;
            }
            let f_map = self.failing_dense(&subset);
            let c_map = self.correct_dense(&subset);
            for (i, slot) in self.slots.iter().enumerate() {
                if f_map.counts[i] == 0 {
                    continue;
                }
                let weights = slot.weights_in(&f_map);
                let c_weights = (c_map.counts[i] > 0).then(|| slot.weights_in(&c_map));
                let Some((score, reason)) = suspicion(weights, c_weights, threshold) else {
                    continue;
                };
                if best[i].as_ref().is_none_or(|b| score > b.0) {
                    best[i] = Some((score, reason, weights.to_vec()));
                }
            }
        }
        let entries = self
            .slots
            .iter()
            .zip(best)
            .filter_map(|(slot, best)| {
                let (score, reason, weights) = best?;
                Some((
                    slot.features.stmt,
                    HeatmapEntry {
                        operands: slot.operand_names(),
                        weights,
                        suspiciousness: score,
                        reason,
                    },
                ))
            })
            .collect();
        Heatmap { entries, threshold }
    }

    /// `F_t`: per-run partials merged in run order.
    fn failing_dense(&self, runs: &[&ResolvedRun]) -> DenseMap {
        let mut f_map = self.empty_map();
        for run in runs.iter().filter(|r| r.failing && !r.f.is_empty()) {
            self.merge(&mut f_map, &self.mean_map(std::iter::once(&run.f[..])));
        }
        f_map
    }

    /// `C_t` over all resolved runs.
    pub(crate) fn correct_map(&self, resolved: &Resolved) -> AttentionMap {
        let _span = obs::span("explain.aggregate");
        self.to_map(&self.correct_dense(&resolved.runs.iter().collect::<Vec<_>>()))
    }

    /// `C_t`: fully-correct runs summed jointly, then the masked (far-from-
    /// failure) cycles of each failing run merged in run order — both
    /// exhibit correct behavior, and the extra executions sharpen the
    /// comparison baseline.
    fn correct_dense(&self, runs: &[&ResolvedRun]) -> DenseMap {
        let mut c_map = self.mean_map(runs.iter().filter(|r| !r.failing).map(|r| &r.c[..]));
        for run in runs.iter().filter(|r| r.failing && !r.c.is_empty()) {
            self.merge(&mut c_map, &self.mean_map(std::iter::once(&run.c[..])));
        }
        c_map
    }

    fn empty_map(&self) -> DenseMap {
        DenseMap {
            weights: vec![0.0; self.width],
            counts: vec![0; self.slots.len()],
        }
    }

    /// Mean attention per statement over `record_sets`, summed in order.
    fn mean_map<'r>(&self, record_sets: impl Iterator<Item = &'r [Record]>) -> DenseMap {
        let mut map = self.empty_map();
        for records in record_sets {
            for r in records {
                let slot = &self.slots[r.slot as usize];
                let w = &self.arena[r.weights as usize..][..slot.width()];
                for (s, w) in map.weights[slot.offset..][..slot.width()].iter_mut().zip(w) {
                    *s += w;
                }
                map.counts[r.slot as usize] += 1;
            }
        }
        for (slot, &count) in self.slots.iter().zip(&map.counts) {
            if count > 0 {
                let n = count as f32;
                for s in &mut map.weights[slot.offset..][..slot.width()] {
                    *s /= n;
                }
            }
        }
        map
    }

    /// Count-weighted merge of one map into another.
    fn merge(&self, into: &mut DenseMap, from: &DenseMap) {
        for (i, slot) in self.slots.iter().enumerate() {
            let new = from.counts[i];
            if new == 0 {
                continue;
            }
            let range = slot.offset..slot.offset + slot.width();
            let old = into.counts[i];
            into.counts[i] += new;
            if old == 0 {
                into.weights[range.clone()].copy_from_slice(&from.weights[range]);
                continue;
            }
            let (old, new) = (old as f32, new as f32);
            let total = old + new;
            for (w, nw) in into.weights[range.clone()]
                .iter_mut()
                .zip(&from.weights[range])
            {
                *w = (*w * old + nw * new) / total;
            }
        }
    }

    fn to_map(&self, map: &DenseMap) -> AttentionMap {
        AttentionMap {
            per_stmt: self
                .slots
                .iter()
                .zip(&map.counts)
                .filter(|(_, &count)| count > 0)
                .map(|(slot, &count)| {
                    (
                        slot.features.stmt,
                        StmtAttention {
                            operands: slot.operand_names(),
                            weights: slot.weights_in(map).to_vec(),
                            count,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Scores one memo miss: embeds the statement's operand contexts on its
/// first miss, evaluates the model tape-free, and appends the attention
/// vector to `arena`, returning its offset.
fn evaluate(model: &VeriBugModel, slot: &mut Slot, values: &[bool], arena: &mut Vec<f32>) -> u32 {
    static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("explain.attention_cache_misses");
    /// Shannon entropy (nats) of each freshly computed attention
    /// distribution.
    static ENTROPY: obs::LazyHistogram =
        obs::LazyHistogram::new_micros("explain.attention_entropy");
    CACHE_MISSES.incr();
    let contexts = slot
        .contexts
        .get_or_insert_with(|| model.operand_contexts(&slot.features));
    let weights = model.predict_with(contexts, values).1;
    if obs::enabled() {
        ENTROPY.record_f64(attention_entropy(&weights));
    }
    let offset = arena.len() as u32;
    arena.extend_from_slice(&weights);
    offset
}

/// Failure-centered window of `F_t`: a statement at depth δ executed at
/// cycle `c` can have caused the symptom at divergence `k` when
/// `c ∈ [k−δ−window, k−δ]`.
fn near_divergence(divergences: &[u32], depth: u32, window: u32, c: u32) -> bool {
    divergences.iter().any(|&k| {
        let hi = k.saturating_sub(depth);
        c <= hi && hi.saturating_sub(window) <= c
    })
}

/// Masked cycles of a failing run that feed `C_t`: clear of every
/// divergence's window by a margin on both sides.
fn far_from_divergences(divergences: &[u32], depth: u32, window: u32, c: u32) -> bool {
    divergences.iter().all(|&k| {
        let hi = k.saturating_sub(depth);
        c + window + 1 < hi.max(1) || hi + 2 < c
    })
}

/// The paper's three-case rule for one statement of `F_t`, given its
/// `C_t` weights when present: its suspiciousness and why, or `None` when
/// it stays below `threshold`. Statements present only in `C_t` never
/// reach this rule: failing traces never executed them, so they cannot
/// have caused the symptom (paper case 1).
fn suspicion(f: &[f32], c: Option<&[f32]>, threshold: f32) -> Option<(f32, SuspicionReason)> {
    match c {
        // Present only in F_t: suspicious.
        None => Some((1.0, SuspicionReason::OnlyInFailing)),
        // Present in both: compare attention with the normalized norm-1
        // distance (min 0, max 2 → divide by 2).
        Some(c) => {
            let d = suspiciousness(f, c);
            (d > threshold).then_some((d, SuspicionReason::DivergentAttention))
        }
    }
}

/// The paper's suspiciousness score: norm-1 distance between two attention
/// vectors, min-max normalized with `min = 0, max = 2`.
///
/// When the operand sets differ in length (a variable-misuse mutation can
/// change the operand list), missing positions count as zero weight.
pub fn suspiciousness(f_weights: &[f32], c_weights: &[f32]) -> f32 {
    let n = f_weights.len().max(c_weights.len());
    let mut l1 = 0.0f32;
    for i in 0..n {
        let a = f_weights.get(i).copied().unwrap_or(0.0);
        let b = c_weights.get(i).copied().unwrap_or(0.0);
        l1 += (a - b).abs();
    }
    l1 / 2.0
}

/// Shannon entropy (nats) of an attention distribution. The weights are
/// renormalized first so numerically drifted vectors still yield a proper
/// distribution; zero weights contribute nothing.
///
/// Used both for the `explain.attention_entropy` histogram and by the
/// `accuracy_bench` harness, which reports the entropy distribution of
/// every heatmap entry (a flat distribution means the model has nothing
/// to say about a statement; a peaked one is a confident attribution).
pub fn attention_entropy(weights: &[f32]) -> f64 {
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0f64;
    for &w in weights {
        let p = f64::from(w.max(0.0)) / total;
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, VeriBugModel};
    use sim::{Simulator, TestbenchGen};

    fn arb() -> Module {
        verilog::parse(
            "module arb(input clk, input req1, input req2, output reg gnt1, output reg gnt2);\n\
             reg state;\n\
             always @(posedge clk) state <= req1 ^ req2;\n\
             always @(*) begin\n\
             if (state) gnt1 = req1 & ~req2;\n\
             else gnt1 = req1 | req2;\n\
             gnt2 = req2 & ~req1;\n\
             end\nendmodule",
        )
        .unwrap()
        .top()
        .clone()
    }

    #[test]
    fn suspiciousness_bounds() {
        assert_eq!(suspiciousness(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        // Completely disjoint distributions -> max distance 2, normalized 1.
        assert!((suspiciousness(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        // Length mismatch: missing weights count as zero.
        assert!((suspiciousness(&[1.0], &[0.5, 0.5]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn attention_map_covers_dynamic_slice_only() {
        let module = arb();
        let model = VeriBugModel::new(ModelConfig::default());
        let mut sim = Simulator::new(&module).unwrap();
        let stim = TestbenchGen::new(3).generate(sim.netlist(), 32);
        let trace = sim.run(&stim).unwrap();
        let mut ex = Explainer::new(&model, &module, "gnt1");
        let runs = [
            LabelledTrace::new(TraceLabel::Failing, &trace),
            LabelledTrace::new(TraceLabel::Correct, &trace),
        ];
        let (_, f_map, c_map) = ex.explain(&runs, DEFAULT_THRESHOLD);
        for map in [&f_map, &c_map] {
            // gnt2's statement (id 3) is outside gnt1's slice.
            assert!(!map.per_stmt.contains_key(&StmtId(3)));
            assert!(!map.is_empty());
            // Every weight vector is a distribution.
            for att in map.per_stmt.values() {
                let sum: f32 = att.weights.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "not a distribution: {att:?}");
                assert!(att.count > 0);
            }
        }
    }

    #[test]
    fn heatmap_three_cases() {
        let mk = |stmts: &[(u32, Vec<f32>)]| AttentionMap {
            per_stmt: stmts
                .iter()
                .map(|(id, w)| {
                    (
                        StmtId(*id),
                        StmtAttention {
                            operands: (0..w.len()).map(|i| format!("op{i}")).collect(),
                            weights: w.clone(),
                            count: 1,
                        },
                    )
                })
                .collect(),
        };
        // s0: identical in both (not suspicious).
        // s1: diverges strongly (suspicious).
        // s2: only in failing (suspicious, score 1.0).
        // s3: only in correct (ignored).
        let f = mk(&[
            (0, vec![0.5, 0.5]),
            (1, vec![0.9, 0.1]),
            (2, vec![0.3, 0.7]),
        ]);
        let c = mk(&[(0, vec![0.5, 0.5]), (1, vec![0.1, 0.9]), (3, vec![1.0])]);
        let h = Explainer::heatmap(&f, &c, DEFAULT_THRESHOLD);
        assert_eq!(h.len(), 2);
        assert!(!h.entries.contains_key(&StmtId(0)));
        assert!(!h.entries.contains_key(&StmtId(3)));
        let s1 = &h.entries[&StmtId(1)];
        assert_eq!(s1.reason, SuspicionReason::DivergentAttention);
        assert!((s1.suspiciousness - 0.8).abs() < 1e-6);
        let s2 = &h.entries[&StmtId(2)];
        assert_eq!(s2.reason, SuspicionReason::OnlyInFailing);
        assert_eq!(s2.suspiciousness, 1.0);
        // top-1 is the only-in-failing statement (score 1.0).
        assert_eq!(h.top1(), Some(StmtId(2)));
        let ranked = h.ranked();
        assert_eq!(ranked[0].0, StmtId(2));
        assert_eq!(ranked[1].0, StmtId(1));
    }

    #[test]
    fn below_threshold_statements_are_excluded() {
        let f = AttentionMap {
            per_stmt: [(
                StmtId(0),
                StmtAttention {
                    operands: vec!["a".into(), "b".into()],
                    weights: vec![0.52, 0.48],
                    count: 4,
                },
            )]
            .into_iter()
            .collect(),
        };
        let c = AttentionMap {
            per_stmt: [(
                StmtId(0),
                StmtAttention {
                    operands: vec!["a".into(), "b".into()],
                    weights: vec![0.48, 0.52],
                    count: 4,
                },
            )]
            .into_iter()
            .collect(),
        };
        let h = Explainer::heatmap(&f, &c, DEFAULT_THRESHOLD);
        assert!(h.is_empty());
        assert_eq!(h.top1(), None);
    }
}
