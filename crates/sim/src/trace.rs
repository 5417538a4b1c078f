//! Simulation traces: per-cycle signal values and per-statement execution
//! records — the free supervision VeriBug trains on.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::netlist::{Netlist, SignalId};
use crate::value::Value;
use verilog::StmtId;

/// Operand values stored inline up to [`INLINE_OPERANDS`]; wider statements
/// spill to a boxed slice.
const INLINE_OPERANDS: usize = 4;

#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum OperandValues {
    Inline {
        len: u8,
        vals: [Value; INLINE_OPERANDS],
    },
    Spill(Box<[Value]>),
}

/// Execution-time operand values of one statement execution, in the
/// statement's record read order: distinct right-hand-side signal
/// references in first-occurrence order, then distinct LHS bit-select
/// index references (the statement's [`AssignInfo::names`] list holds the
/// matching names; resolve names to positions there, once per statement).
///
/// [`AssignInfo::names`]: crate::AssignInfo::names
///
/// Values are stored inline for up to four operands, and no name storage
/// or reference counting is attached: recording or cloning a record is a
/// fixed-size copy with no heap allocation and no atomics in the common
/// case. Traces are record-dense — every statement execution of every
/// simulated cycle carries one of these — so this representation is what
/// keeps trace construction off the simulator's critical path.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Operands {
    values: OperandValues,
}

impl Operands {
    /// A record with no operands (e.g. a constant right-hand side).
    pub fn empty() -> Operands {
        Operands {
            values: OperandValues::Inline {
                len: 0,
                vals: [Value::bit(false); INLINE_OPERANDS],
            },
        }
    }

    /// Captures `n` operand values via `value_at` (called with each
    /// position in record read order).
    pub fn capture(n: usize, mut value_at: impl FnMut(usize) -> Value) -> Operands {
        let values = if n <= INLINE_OPERANDS {
            let mut vals = [Value::bit(false); INLINE_OPERANDS];
            for (i, v) in vals.iter_mut().enumerate().take(n) {
                *v = value_at(i);
            }
            OperandValues::Inline { len: n as u8, vals }
        } else {
            OperandValues::Spill((0..n).map(&mut value_at).collect())
        };
        Operands { values }
    }

    /// Builds from an explicit value list (tests and callers that already
    /// hold the values).
    pub fn from_values(values: &[Value]) -> Operands {
        Operands::capture(values.len(), |i| values[i])
    }

    /// Operand values, positionally matching the statement's record read
    /// order.
    pub fn values(&self) -> &[Value] {
        match &self.values {
            OperandValues::Inline { len, vals } => &vals[..*len as usize],
            OperandValues::Spill(v) => v,
        }
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// True when the statement read no signals.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }

    /// The value at `position` in record read order, if recorded.
    pub fn get(&self, position: usize) -> Option<Value> {
        self.values().get(position).copied()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

/// One execution of one assignment statement.
///
/// Carries no cycle index: the enclosing [`CycleRecord`] provides it. That
/// makes a record a pure function of the statement and the values it read,
/// so identical executions in different cycles are byte-identical — which
/// is what lets the compiled engine share one stored record run across
/// every cycle (and lane) whose fanin did not change instead of cloning
/// records.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StmtExec {
    /// Which statement executed.
    pub stmt: StmtId,
    /// Values of the distinct signals read by the right-hand side (and any
    /// LHS index expression) at execution time, in record read order.
    pub operands: Operands,
    /// The value assigned to the left-hand side.
    pub result: Value,
}

impl StmtExec {
    /// The recorded value of the operand at `position` in the statement's
    /// record read order (resolve names to positions once per statement via
    /// [`crate::AssignInfo::names`]).
    pub fn operand(&self, position: usize) -> Option<Value> {
        self.operands.get(position)
    }
}

/// A per-cycle view of all signal values, backed by a run-wide arena.
///
/// The simulator allocates **one** `Arc<[Value]>` per run and hands every
/// cycle a `(start, len)` window into it, so long testbenches no longer pay
/// one value-vector allocation per cycle. The type dereferences to
/// `[Value]`, so existing slice-style access (`signals[i]`, `.iter()`)
/// keeps working; equality compares the viewed values, not arena identity.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    arena: Arc<[Value]>,
    start: usize,
    len: usize,
}

impl Snapshot {
    /// A window of `len` values starting at `start` in a shared arena.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the arena.
    pub fn view(arena: Arc<[Value]>, start: usize, len: usize) -> Self {
        assert!(start + len <= arena.len(), "snapshot window out of bounds");
        Snapshot { arena, start, len }
    }

    /// The viewed values as a slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.arena[self.start..self.start + self.len]
    }
}

impl std::ops::Deref for Snapshot {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<Value>> for Snapshot {
    fn from(values: Vec<Value>) -> Self {
        let len = values.len();
        Snapshot {
            arena: values.into(),
            start: 0,
            len,
        }
    }
}

/// One cycle's statement executions: an ordered sequence of segments
/// viewing a run-wide record arena.
///
/// The compiled engine writes every [`StmtExec`] of a run into **one**
/// flat arena and describes each cycle's execution list as `(start, len)`
/// segment descriptors into it. A cycle whose process fanin did not change
/// re-uses the previous cycle's descriptors verbatim — the records are
/// shared, not copied — so a clean lane's "replay" costs one 8-byte
/// descriptor. Cloning is three `Arc` bumps; equality compares the
/// logical record sequence, not arena identity, so segmented and
/// contiguous traces of the same run compare equal.
///
/// The interpreter oracle builds cycles from plain record vectors via
/// `From<Vec<StmtExec>>` (a single segment spanning the whole vector).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Execs {
    records: Arc<Vec<StmtExec>>,
    /// `(start, len)` windows into `records`, shared run-wide.
    segs: Arc<Vec<(u32, u32)>>,
    /// This cycle's descriptors: `segs[seg_start..seg_start + seg_len]`.
    seg_start: u32,
    seg_len: u32,
    /// Total record count across this cycle's segments.
    total: u32,
}

impl Execs {
    /// A cycle view over a shared record arena and descriptor pool.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a descriptor exceeds the arena or the
    /// descriptor window exceeds the pool.
    pub(crate) fn from_parts(
        records: Arc<Vec<StmtExec>>,
        segs: Arc<Vec<(u32, u32)>>,
        seg_start: u32,
        seg_len: u32,
    ) -> Execs {
        debug_assert!((seg_start + seg_len) as usize <= segs.len());
        let total = segs[seg_start as usize..(seg_start + seg_len) as usize]
            .iter()
            .map(|&(s, n)| {
                debug_assert!((s + n) as usize <= records.len());
                n
            })
            .sum();
        Execs {
            records,
            segs,
            seg_start,
            seg_len,
            total,
        }
    }

    /// The records in execution order.
    pub fn iter(&self) -> ExecsIter<'_> {
        ExecsIter {
            records: &self.records,
            segs: self.segs[self.seg_start as usize..(self.seg_start + self.seg_len) as usize]
                .iter(),
            cur: [].iter(),
        }
    }

    /// Number of records this cycle.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// True when nothing executed this cycle.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Iterator over one cycle's records, walking its segment descriptors.
pub struct ExecsIter<'a> {
    records: &'a [StmtExec],
    segs: std::slice::Iter<'a, (u32, u32)>,
    cur: std::slice::Iter<'a, StmtExec>,
}

impl<'a> Iterator for ExecsIter<'a> {
    type Item = &'a StmtExec;

    fn next(&mut self) -> Option<&'a StmtExec> {
        loop {
            if let Some(e) = self.cur.next() {
                return Some(e);
            }
            let &(s, n) = self.segs.next()?;
            self.cur = self.records[s as usize..(s + n) as usize].iter();
        }
    }
}

impl<'a> IntoIterator for &'a Execs {
    type Item = &'a StmtExec;
    type IntoIter = ExecsIter<'a>;

    fn into_iter(self) -> ExecsIter<'a> {
        self.iter()
    }
}

impl PartialEq for Execs {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.iter().eq(other.iter())
    }
}

impl From<Vec<StmtExec>> for Execs {
    fn from(records: Vec<StmtExec>) -> Execs {
        let n = records.len() as u32;
        Execs {
            records: Arc::new(records),
            segs: Arc::new(vec![(0, n)]),
            seg_start: 0,
            seg_len: 1,
            total: n,
        }
    }
}

/// Everything observed in one clock cycle.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CycleRecord {
    /// Cycle index (0-based).
    pub cycle: u32,
    /// Post-settle value of every signal, indexed by [`SignalId`]. Empty in
    /// a records-only run ([`TraceMode::records`]).
    pub signals: Snapshot,
    /// Statement executions this cycle (combinational settle + clock edge).
    pub execs: Execs,
}

impl CycleRecord {
    /// The settled value of a signal this cycle.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range, which includes every id of a
    /// records-only run: those carry no snapshot ([`TraceMode::records`]).
    pub fn value(&self, id: SignalId) -> Value {
        self.signals[id.0 as usize]
    }
}

/// A complete simulation run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Trace {
    /// Per-cycle records in time order.
    pub cycles: Vec<CycleRecord>,
}

impl Trace {
    /// Assembles a trace from a run-wide snapshot arena holding one
    /// contiguous `nsig`-value window per cycle, plus per-cycle execution
    /// records. Used by the interpreter oracle; the compiled engine views the same
    /// kind of arena at lane-strided offsets instead.
    pub(crate) fn assemble(
        arena: Arc<[Value]>,
        nsig: usize,
        cycle_execs: Vec<Vec<StmtExec>>,
    ) -> Trace {
        let cycles = cycle_execs
            .into_iter()
            .enumerate()
            .map(|(i, execs)| CycleRecord {
                cycle: i as u32,
                signals: Snapshot::view(arena.clone(), i * nsig, nsig),
                execs: execs.into(),
            })
            .collect();
        Trace { cycles }
    }

    /// The sequence of settled values a signal took, one per cycle.
    fn signal_values(&self, id: SignalId) -> Vec<Value> {
        self.cycles.iter().map(|c| c.value(id)).collect()
    }

    /// Looks up a signal by name in `netlist` and returns its per-cycle values.
    pub fn values_of(&self, netlist: &Netlist, name: &str) -> Option<Vec<Value>> {
        netlist.signal_id(name).map(|id| self.signal_values(id))
    }

    /// Every statement that executed at least once in the trace.
    pub fn executed_stmts(&self) -> BTreeSet<StmtId> {
        self.cycles
            .iter()
            .flat_map(|c| c.execs.iter().map(|e| e.stmt))
            .collect()
    }

    /// All executions of a given statement across the trace.
    pub fn execs_of(&self, stmt: StmtId) -> Vec<&StmtExec> {
        self.cycles
            .iter()
            .flat_map(|c| c.execs.iter().filter(move |e| e.stmt == stmt))
            .collect()
    }

    /// Number of simulated cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// True when no cycles were simulated.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// A sorted, deduplicated set of signals a verdict-mode run observes.
///
/// Verdict simulation snapshots only these signals per cycle; everything
/// else is computed but never materialized. Construction sorts and dedups,
/// so two sets built from the same ids in any order are equal and index
/// positions ([`SignalSet::position`]) are stable.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SignalSet {
    ids: Vec<SignalId>,
}

impl SignalSet {
    /// Builds a set from signal ids (order-insensitive, duplicates folded).
    pub fn from_ids(ids: impl IntoIterator<Item = SignalId>) -> SignalSet {
        let mut ids: Vec<SignalId> = ids.into_iter().collect();
        ids.sort_unstable_by_key(|id| id.0);
        ids.dedup();
        SignalSet { ids }
    }

    /// The observed ids in ascending order.
    pub fn ids(&self) -> &[SignalId] {
        &self.ids
    }

    /// Number of observed signals.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is observed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True when `id` is observed.
    pub fn contains(&self, id: SignalId) -> bool {
        self.position(id).is_some()
    }

    /// The column index of `id` in verdict snapshots, if observed.
    pub fn position(&self, id: SignalId) -> Option<usize> {
        self.ids.binary_search_by_key(&id.0, |s| s.0).ok()
    }
}

/// How much of a simulation run to materialize: the spec both engines'
/// single cycle loop consumes ([`crate::Simulator::run_batch_mode`]).
///
/// A run produces a [`Trace`] of execution records (plus every signal's
/// per-cycle snapshot in full mode) and a [`VerdictTrace`] of the observed
/// signals' per-cycle values. Values, dirty bits, input validation and
/// cancellation evolve identically under every mode; only what is kept
/// differs. What a mode drops is counted, not returned: the
/// `sim.records_skipped` counter tallies records a recording mode did not
/// keep, and `sim.records_elided` every execution a mode that records
/// nothing did not record. The presets:
///
/// | Preset                                           | Records      | Snapshot     | Observed |
/// |--------------------------------------------------|--------------|--------------|----------|
/// | [`full`](Self::full)                             | every stmt   | every signal | none     |
/// | [`verdict`](Self::verdict)                       | none         | none         | the set  |
/// | [`records`](Self::records)                       | stmts in set | none         | none     |
/// | [`records_observing`](Self::records_observing)   | stmts in set | none         | the set  |
#[derive(Debug, Clone, Copy)]
pub struct TraceMode<'a> {
    pub(crate) records: Records<'a>,
    pub(crate) observed: &'a [SignalId],
}

/// Which statement executions a [`TraceMode`] records.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Records<'a> {
    /// Every statement, with full per-cycle signal snapshots.
    All,
    /// Only statements in the set, with no snapshots.
    Only(&'a BTreeSet<StmtId>),
    /// Nothing: the trace has no cycles and no record arena exists.
    Nothing,
}

impl<'a> TraceMode<'a> {
    /// Every statement's records and every signal's per-cycle snapshot —
    /// everything [`Trace`] carries. This is what datasets consume.
    pub fn full() -> TraceMode<'static> {
        TraceMode {
            records: Records::All,
            observed: &[],
        }
    }

    /// **No** execution records and per-cycle values of `observed` only —
    /// sufficient to decide whether two runs diverge at those signals and
    /// at which cycles. The hot loop becomes pure compute plus an
    /// O(observed) per-cycle store; the trace has no cycles.
    pub fn verdict(observed: &'a SignalSet) -> TraceMode<'a> {
        TraceMode {
            records: Records::Nothing,
            observed: observed.ids(),
        }
    }

    /// Records of the statements in `stmts` only, in full-trace order, and
    /// no signal snapshots: each cycle's `signals` is empty, so
    /// [`CycleRecord::value`] panics on these traces.
    pub fn records(stmts: &'a BTreeSet<StmtId>) -> TraceMode<'a> {
        TraceMode {
            records: Records::Only(stmts),
            observed: &[],
        }
    }

    /// [`records`](Self::records) of `stmts` plus per-cycle values of
    /// `observed`, from one simulation: the localizer labels each run from
    /// the observed target column and explains it from the records.
    pub fn records_observing(
        stmts: &'a BTreeSet<StmtId>,
        observed: &'a SignalSet,
    ) -> TraceMode<'a> {
        TraceMode {
            records: Records::Only(stmts),
            observed: observed.ids(),
        }
    }

    /// True when executions of `stmt` are recorded.
    pub(crate) fn keeps(&self, stmt: StmtId) -> bool {
        match self.records {
            Records::All => true,
            Records::Only(set) => set.contains(&stmt),
            Records::Nothing => false,
        }
    }
}

/// The values-only product of a verdict-mode run: per-cycle values of the
/// observed signals, nothing else.
///
/// Values are cycle-major: `values[cycle * nobs + k]` is observed signal
/// `k` (in [`SignalSet`] order) at `cycle`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VerdictTrace {
    /// Cycle-major observed values: `values[cycle * nobs + k]`.
    pub values: Vec<Value>,
    /// Number of observed signals per cycle.
    pub nobs: usize,
}

impl VerdictTrace {
    /// Number of simulated cycles.
    pub fn len(&self) -> usize {
        self.values.len().checked_div(self.nobs).unwrap_or(0)
    }

    /// True when no cycles were simulated (or nothing was observed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observed signal `k`'s value at `cycle`.
    pub fn value(&self, cycle: usize, k: usize) -> Value {
        self.values[cycle * self.nobs + k]
    }

    /// Cycles (ascending) where `self` and `other` disagree on observed
    /// column `k`, compared over the shorter run — the verdict-mode
    /// equivalent of zipping two [`Trace`]s at a target signal.
    pub fn divergence_cycles(&self, other: &VerdictTrace, k: usize) -> Vec<u32> {
        let n = self.len().min(other.len());
        (0..n)
            .filter(|&c| self.value(c, k) != other.value(c, k))
            .map(|c| c as u32)
            .collect()
    }
}

/// A trace labelled by golden-vs-mutant comparison at a target output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TraceLabel {
    /// The bug symptomatized at the target output: a failure trace (`T_f`).
    Failing,
    /// The target output matched the golden design: a correct trace (`T_c`).
    Correct,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(stmt: u32, result: u64) -> StmtExec {
        StmtExec {
            stmt: StmtId(stmt),
            operands: Operands::from_values(&[Value::bit(true)]),
            result: Value::new(result, 1),
        }
    }

    #[test]
    fn executed_stmts_dedups() {
        let t = Trace {
            cycles: vec![
                CycleRecord {
                    cycle: 0,
                    signals: vec![Value::bit(false)].into(),
                    execs: vec![exec(0, 1), exec(1, 0)].into(),
                },
                CycleRecord {
                    cycle: 1,
                    signals: vec![Value::bit(true)].into(),
                    execs: vec![exec(0, 1)].into(),
                },
            ],
        };
        let s = t.executed_stmts();
        assert_eq!(s.len(), 2);
        assert_eq!(t.execs_of(StmtId(0)).len(), 2);
        assert_eq!(t.execs_of(StmtId(1)).len(), 1);
    }

    #[test]
    fn operand_lookup() {
        let e = exec(0, 1);
        assert_eq!(e.operand(0), Some(Value::bit(true)));
        assert_eq!(e.operand(1), None);
        let wide = Operands::capture(6, |i| Value::new(i as u64, 8));
        assert_eq!(wide.len(), 6);
        assert_eq!(wide.get(5), Some(Value::new(5, 8)));
        assert_eq!(wide, Operands::from_values(wide.values()));
    }

    #[test]
    fn segmented_execs_match_contiguous() {
        // Records [a, b, c] described as segments [c], [a, b] must equal
        // the contiguous vector [c, a, b] — and reusing one descriptor
        // window twice shares records without copying.
        let arena = Arc::new(vec![exec(0, 1), exec(1, 0), exec(2, 1)]);
        let segs = Arc::new(vec![(2u32, 1u32), (0u32, 2u32), (2u32, 1u32)]);
        let seg = Execs::from_parts(arena.clone(), segs.clone(), 0, 2);
        assert_eq!(seg.len(), 3);
        let flat: Execs = vec![exec(2, 1), exec(0, 1), exec(1, 0)].into();
        assert_eq!(seg, flat);
        assert_ne!(seg, vec![exec(0, 1)].into());
        // A different descriptor window over the same arena.
        let tail = Execs::from_parts(arena, segs, 2, 1);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail, vec![exec(2, 1)].into());
        assert!(Execs::from(Vec::new()).is_empty());
    }

    #[test]
    fn signal_set_sorts_dedups_and_positions() {
        let s = SignalSet::from_ids([SignalId(7), SignalId(2), SignalId(7), SignalId(4)]);
        assert_eq!(s.ids(), &[SignalId(2), SignalId(4), SignalId(7)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(SignalId(4)));
        assert!(!s.contains(SignalId(3)));
        assert_eq!(s.position(SignalId(7)), Some(2));
        assert_eq!(s.position(SignalId(0)), None);
        assert_eq!(
            s,
            SignalSet::from_ids([SignalId(4), SignalId(7), SignalId(2)])
        );
        assert!(SignalSet::from_ids([]).is_empty());
    }

    #[test]
    fn verdict_trace_divergence_and_equality() {
        let v = |vals: &[u64]| vals.iter().map(|&b| Value::new(b, 4)).collect::<Vec<_>>();
        let a = VerdictTrace {
            values: v(&[1, 2, 3, 4, 5, 6]),
            nobs: 2,
        };
        let b = VerdictTrace {
            values: v(&[1, 2, 3, 9, 5, 6]),
            nobs: 2,
        };
        assert_eq!(a.len(), 3);
        assert_eq!(a.value(1, 0), Value::new(3, 4));
        assert_eq!(a.divergence_cycles(&b, 0), Vec::<u32>::new());
        assert_eq!(a.divergence_cycles(&b, 1), vec![1]);
        assert_ne!(a, b);
        // Shorter-run comparison only covers shared cycles.
        let short = VerdictTrace {
            values: v(&[1, 2]),
            nobs: 2,
        };
        for k in 0..2 {
            assert_eq!(a.divergence_cycles(&short, k), Vec::<u32>::new());
        }
    }

    mod execs_properties {
        //! Property tests for `Execs` logical equality: a segmented view
        //! over a shared record arena must equal the flat `Vec<StmtExec>`
        //! holding the same logical record sequence — across arbitrary
        //! segmentations, descriptor re-use at window boundaries, and
        //! empty/full segments.
        use super::*;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        /// Cases per property.
        const CASES: usize = 64;

        /// The case generator for `property`, seeded by the FNV-1a hash of
        /// its qualified name, so a failing case reproduces exactly.
        fn case_rng(property: &str) -> StdRng {
            let name = format!("{}::{property}", module_path!());
            let hash = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            StdRng::seed_from_u64(hash)
        }

        /// Record arena + descriptor pool + the flat per-segment expansion.
        type BuiltArena = (Arc<Vec<StmtExec>>, Arc<Vec<(u32, u32)>>, Vec<Vec<StmtExec>>);

        /// Deterministically expands a seed into a record arena and a
        /// descriptor pool, returning also the flat expansion of the
        /// descriptor window `[seg_start, seg_start + seg_len)`.
        fn build(arena_len: usize, nsegs: usize, seed: u64) -> BuiltArena {
            let mut state = seed | 1;
            let mut next = move || {
                // xorshift64 — cheap, deterministic, no vendored-rand needed.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let records: Vec<StmtExec> = (0..arena_len)
                .map(|i| StmtExec {
                    stmt: StmtId((next() % 8) as u32),
                    operands: Operands::capture((next() % 6) as usize, |p| {
                        Value::new(next() ^ p as u64, 16)
                    }),
                    result: Value::new(next(), 8 + (i % 32) as u8),
                })
                .collect();
            // Descriptors may overlap, repeat, be empty, or span the whole
            // arena — exactly the shapes descriptor re-use produces.
            let segs: Vec<(u32, u32)> = (0..nsegs)
                .map(|_| {
                    let start = (next() as usize) % (arena_len + 1);
                    let len = (next() as usize) % (arena_len - start + 1);
                    (start as u32, len as u32)
                })
                .collect();
            let expansions = segs
                .iter()
                .map(|&(s, n)| records[s as usize..(s + n) as usize].to_vec())
                .collect();
            (Arc::new(records), Arc::new(segs), expansions)
        }

        /// Any descriptor window equals the flat vector of its logical
        /// expansion, and lengths agree.
        #[test]
        fn segmented_equals_flat() {
            let mut rng = case_rng("segmented_equals_flat");
            for _ in 0..CASES {
                let arena_len = rng.random_range(1usize..12);
                let nsegs = rng.random_range(1usize..8);
                let seed = rng.random_range(0u64..u64::MAX);
                let window = (rng.random_range(0usize..8), rng.random_range(1usize..4));
                let case =
                    format!("arena {arena_len}, segs {nsegs}, seed {seed}, window {window:?}");
                let (records, segs, expansions) = build(arena_len, nsegs, seed);
                let seg_start = window.0 % nsegs;
                let seg_len = window.1.min(nsegs - seg_start);
                let view = Execs::from_parts(records, segs, seg_start as u32, seg_len as u32);
                let flat: Vec<StmtExec> = expansions[seg_start..seg_start + seg_len]
                    .iter()
                    .flatten()
                    .cloned()
                    .collect();
                assert_eq!(view.len(), flat.len(), "{case}");
                assert_eq!(view.is_empty(), flat.is_empty(), "{case}");
                assert_eq!(view, Execs::from(flat), "{case}");
            }
        }

        /// Two adjacent windows sharing a descriptor boundary expand to the
        /// same records as the combined window — descriptor re-use at
        /// boundaries never drops or duplicates records.
        #[test]
        fn windows_compose_at_boundaries() {
            let mut rng = case_rng("windows_compose_at_boundaries");
            for _ in 0..CASES {
                let arena_len = rng.random_range(1usize..10);
                let nsegs = rng.random_range(2usize..8);
                let seed = rng.random_range(0u64..u64::MAX);
                let cut = rng.random_range(1usize..7);
                let case = format!("arena {arena_len}, segs {nsegs}, seed {seed}, cut {cut}");
                let (records, segs, expansions) = build(arena_len, nsegs, seed);
                let cut = 1 + (cut % (nsegs - 1));
                let left = Execs::from_parts(records.clone(), segs.clone(), 0, cut as u32);
                let right = Execs::from_parts(
                    records.clone(),
                    segs.clone(),
                    cut as u32,
                    (nsegs - cut) as u32,
                );
                let whole = Execs::from_parts(records, segs, 0, nsegs as u32);
                let glued: Vec<StmtExec> = left.iter().chain(right.iter()).cloned().collect();
                assert_eq!(whole.len(), left.len() + right.len(), "{case}");
                assert_eq!(whole, Execs::from(glued), "{case}");
                let flat_all: Vec<StmtExec> = expansions.iter().flatten().cloned().collect();
                assert_eq!(
                    left.iter().count() + right.iter().count(),
                    flat_all.len(),
                    "{case}"
                );
            }
        }

        /// Perturbing any single expanded record breaks equality — logical
        /// equality is exact, not structural-shape equality.
        #[test]
        fn equality_is_exact() {
            let mut rng = case_rng("equality_is_exact");
            for _ in 0..CASES {
                let arena_len = rng.random_range(1usize..8);
                let nsegs = rng.random_range(1usize..5);
                let seed = rng.random_range(0u64..u64::MAX);
                let victim = rng.random_range(0usize..64);
                let case = format!("arena {arena_len}, segs {nsegs}, seed {seed}, victim {victim}");
                let (records, segs, expansions) = build(arena_len, nsegs, seed);
                let view = Execs::from_parts(records, segs, 0, nsegs as u32);
                let mut flat: Vec<StmtExec> = expansions.iter().flatten().cloned().collect();
                if flat.is_empty() {
                    // All-empty segments: equal to the empty flat vector.
                    assert_eq!(view, Execs::from(flat), "{case}");
                } else {
                    let i = victim % flat.len();
                    let bumped = flat[i].result.bits().wrapping_add(1);
                    flat[i].result = Value::new(bumped, flat[i].result.width());
                    assert_ne!(view, Execs::from(flat), "{case}");
                }
            }
        }
    }
}
