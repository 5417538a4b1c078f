//! Elaboration: from a parsed [`Module`] to a simulatable [`Netlist`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::SimError;
use verilog::{EdgeKind, Item, Module, NetKind, PortDir, Sensitivity, StmtId};

/// Index of a signal in the elaborated design.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct SignalId(pub u32);

/// How a signal is driven / observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SignalRole {
    /// Driven by the testbench.
    Input,
    /// Observable design output.
    Output,
    /// Internal wire or register.
    Internal,
}

/// An elaborated signal.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Signal {
    /// Declared name.
    pub name: String,
    /// Bit width.
    pub width: u8,
    /// Input / output / internal.
    pub role: SignalRole,
    /// True for `reg` storage (procedurally assigned).
    pub is_reg: bool,
}

/// Precomputed execution info for one assignment statement — resolved at
/// elaboration so the simulator's hot loop never re-walks expression trees
/// or re-hashes signal names.
#[derive(Debug, Clone)]
pub struct AssignInfo {
    /// Interned names of the distinct declared signals the statement reads
    /// (RHS references in first-occurrence order, then LHS bit-select index
    /// references) — the **record read order**. Execution records store
    /// operand values positionally in this order and carry no names of
    /// their own; resolve a name to a position here once per statement
    /// instead of per record.
    pub names: Arc<[Arc<str>]>,
    /// Signal ids matching `names` positionally.
    pub read_ids: Vec<SignalId>,
    /// The LHS base signal, when it resolves to a declared signal.
    /// `None` surfaces as [`SimError::UnknownSignal`] at compile time.
    pub target: Option<SignalId>,
}

/// A simulatable, flattened design. Not `Clone`: a [`crate::Simulator`]
/// holds its netlist behind an `Arc` that every fork shares.
#[derive(Debug)]
pub struct Netlist {
    /// The source module (used for spans and feature extraction).
    pub module: Module,
    signals: Vec<Signal>,
    index: HashMap<String, SignalId>,
    assign_info: HashMap<StmtId, AssignInfo>,
    /// Combinational processes (continuous assigns and `@(*)`/level
    /// always blocks) as indices into `module.items`, in source order.
    pub comb: Vec<usize>,
    /// Edge-sensitive always blocks (clocked, possibly with an async reset
    /// as an extra edge) as indices into `module.items`, in source order.
    pub seq: Vec<usize>,
    /// The single clock signal, if the design is sequential.
    pub clock: Option<SignalId>,
    /// Signals used as async-reset edges (excluded from random stimulus
    /// toggling after cycle 0 by convention of the testbench generator).
    pub resets: Vec<SignalId>,
}

impl Netlist {
    /// Elaborates a module.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] for `inout` ports, and
    /// [`SimError::ClockMismatch`] when several edge-sensitive blocks use
    /// different clock signals.
    pub fn elaborate(module: &Module) -> Result<Self, SimError> {
        let mut signals = Vec::new();
        let mut index = HashMap::new();
        for p in &module.ports {
            let role = match p.dir {
                PortDir::Input => SignalRole::Input,
                PortDir::Output => SignalRole::Output,
                PortDir::Inout => {
                    return Err(SimError::Unsupported {
                        detail: format!("inout port `{}`", p.name),
                    });
                }
            };
            let id = SignalId(signals.len() as u32);
            index.insert(p.name.clone(), id);
            signals.push(Signal {
                name: p.name.clone(),
                width: p.width as u8,
                role,
                is_reg: p.is_reg,
            });
        }
        for d in &module.decls {
            if index.contains_key(&d.name) {
                // Port re-declared in the body (non-ANSI style): upgrade reg-ness.
                let id = index[&d.name];
                if d.kind == NetKind::Reg {
                    signals[id.0 as usize].is_reg = true;
                }
                continue;
            }
            let id = SignalId(signals.len() as u32);
            index.insert(d.name.clone(), id);
            signals.push(Signal {
                name: d.name.clone(),
                width: d.width as u8,
                role: SignalRole::Internal,
                is_reg: d.kind == NetKind::Reg,
            });
        }

        let mut comb = Vec::new();
        let mut seq = Vec::new();
        let mut clock: Option<SignalId> = None;
        let mut resets: Vec<SignalId> = Vec::new();
        for (i, item) in module.items.iter().enumerate() {
            match item {
                Item::Assign(_) => comb.push(i),
                Item::Always(blk) => match &blk.sensitivity {
                    Sensitivity::Star | Sensitivity::Level(_) => comb.push(i),
                    Sensitivity::Edges(edges) => {
                        // First posedge is the clock; any other edge signal
                        // is an async reset.
                        let mut block_clock: Option<&str> = None;
                        for (kind, name) in edges {
                            let id = *index
                                .get(name)
                                .ok_or_else(|| SimError::UnknownSignal { name: name.clone() })?;
                            if *kind == EdgeKind::Pos && block_clock.is_none() {
                                block_clock = Some(name);
                                match clock {
                                    None => clock = Some(id),
                                    Some(c) if c == id => {}
                                    Some(c) => {
                                        return Err(SimError::ClockMismatch {
                                            first: signals[c.0 as usize].name.clone(),
                                            second: name.clone(),
                                        });
                                    }
                                }
                            } else if !resets.contains(&id) {
                                resets.push(id);
                            }
                        }
                        if block_clock.is_none() {
                            // Pure negedge-clocked block: treat its first
                            // edge signal as the clock.
                            let (_, name) = &edges[0];
                            let id = index[name];
                            match clock {
                                None => clock = Some(id),
                                Some(c) if c == id => {
                                    resets.retain(|r| *r != id);
                                }
                                Some(c) => {
                                    return Err(SimError::ClockMismatch {
                                        first: signals[c.0 as usize].name.clone(),
                                        second: name.clone(),
                                    });
                                }
                            }
                            resets.retain(|r| *r != id);
                        }
                        seq.push(i);
                    }
                },
            }
        }
        // Intern names once and resolve every assignment's read set and
        // write target up front. Undeclared RHS names are omitted: execution
        // fails during RHS evaluation before any recording happens, so the
        // cache is only consulted on paths where all reads resolved.
        let mut interned: HashMap<&str, Arc<str>> = HashMap::new();
        let mut assign_info = HashMap::new();
        for a in module.assignments() {
            let mut read_names: Vec<Arc<str>> = Vec::new();
            let mut read_ids: Vec<SignalId> = Vec::new();
            for name in a.reads() {
                let Some(&id) = index.get(name) else { continue };
                if read_names.iter().any(|n| n.as_ref() == name) {
                    continue;
                }
                let arc = interned
                    .entry(name)
                    .or_insert_with(|| Arc::from(name))
                    .clone();
                read_names.push(arc);
                read_ids.push(id);
            }
            let target = index.get(&a.lhs.base).copied();
            assign_info.insert(
                a.id,
                AssignInfo {
                    names: read_names.into(),
                    read_ids,
                    target,
                },
            );
        }

        Ok(Netlist {
            module: module.clone(),
            signals,
            index,
            assign_info,
            comb,
            seq,
            clock,
            resets,
        })
    }

    /// Precomputed execution info for an assignment, when the statement id
    /// belongs to this design.
    pub fn assign_info(&self, id: StmtId) -> Option<&AssignInfo> {
        self.assign_info.get(&id)
    }

    /// All signals, indexed by [`SignalId`].
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Looks a signal up by name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.index.get(name).copied()
    }

    /// The signal record for an id.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.0 as usize]
    }

    /// Input ports the testbench should randomize: inputs minus the clock.
    pub fn stimulus_inputs(&self) -> Vec<SignalId> {
        (0..self.signals.len() as u32)
            .map(SignalId)
            .filter(|&id| self.signal(id).role == SignalRole::Input && Some(id) != self.clock)
            .collect()
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn netlist(src: &str) -> Netlist {
        Netlist::elaborate(verilog::parse(src).unwrap().top()).unwrap()
    }

    #[test]
    fn classifies_processes() {
        let n = netlist(
            "module m(input clk, input a, output reg q, output w);\n\
             assign w = a;\n\
             always @(posedge clk) q <= a;\n\
             endmodule",
        );
        assert_eq!(n.comb, vec![0], "the assign is item 0");
        assert_eq!(n.seq, vec![1], "the clocked block is item 1");
        assert_eq!(n.clock, n.signal_id("clk"));
    }

    #[test]
    fn stimulus_inputs_exclude_clock() {
        let n = netlist(
            "module m(input clk, input a, input b, output reg q);\n\
             always @(posedge clk) q <= a & b;\nendmodule",
        );
        let names: Vec<_> = n
            .stimulus_inputs()
            .iter()
            .map(|id| n.signal(*id).name.clone())
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn async_reset_is_detected() {
        let n = netlist(
            "module m(input clk, input rst_n, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
             if (!rst_n) q <= 1'b0; else q <= 1'b1;\nend\nendmodule",
        );
        assert_eq!(n.resets, vec![n.signal_id("rst_n").unwrap()]);
    }

    #[test]
    fn conflicting_clocks_rejected() {
        let err = Netlist::elaborate(
            verilog::parse(
                "module m(input c1, input c2, input d, output reg q1, output reg q2);\n\
                 always @(posedge c1) q1 <= d;\n\
                 always @(posedge c2) q2 <= d;\nendmodule",
            )
            .unwrap()
            .top(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ClockMismatch { .. }));
    }

    #[test]
    fn combinational_only_design_has_no_clock() {
        let n = netlist("module m(input a, output y);\nassign y = ~a;\nendmodule");
        assert!(n.clock.is_none());
        assert!(n.seq.is_empty());
    }

    #[test]
    fn assign_info_resolves_reads_and_target() {
        let n = netlist(
            "module m(input [3:0] a, input [1:0] i, output reg [3:0] y, output w);\n\
             assign w = a[0] & a[1];\n\
             always @(*) y[i] = a[i] ^ a[0];\n\
             endmodule",
        );
        let assigns = n.module.assignments();
        let cont = n.assign_info(assigns[0].id).expect("continuous assign");
        assert_eq!(cont.target, n.signal_id("w"));
        assert_eq!(
            cont.names.iter().map(|s| s.as_ref()).collect::<Vec<_>>(),
            vec!["a"],
            "reads are deduped"
        );
        let proc = n.assign_info(assigns[1].id).expect("procedural assign");
        assert_eq!(proc.target, n.signal_id("y"));
        // RHS reads first (a, then its index i), deduped against the
        // LHS bit-select index (i again).
        let names: Vec<&str> = proc.names.iter().map(|s| s.as_ref()).collect();
        assert_eq!(names, vec!["a", "i"]);
        assert_eq!(proc.read_ids[1], n.signal_id("i").unwrap());
        assert!(n.assign_info(verilog::StmtId(999)).is_none());
    }

    #[test]
    fn port_redeclared_as_reg_is_merged() {
        let n = netlist(
            "module m(q, d, clk);\noutput q;\ninput d;\ninput clk;\nreg q;\n\
             always @(posedge clk) q <= d;\nendmodule",
        );
        let q = n.signal(n.signal_id("q").unwrap());
        assert!(q.is_reg);
        assert_eq!(q.role, SignalRole::Output);
    }
}
