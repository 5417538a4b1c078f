//! # veribug-sim
//!
//! A two-state, cycle-based RTL simulator for the VeriBug reproduction.
//!
//! Beyond computing output values, the simulator records **per-statement
//! execution records** — which assignment executed in which cycle, the values
//! of its operands at execution time, and the value it produced. Those
//! records are exactly the "free supervision" VeriBug trains its execution-
//! semantics model on (paper Sec. IV-C), and they drive the dynamic-slicing
//! step of feature extraction (Sec. IV-B).
//!
//! The crate also provides [`TestbenchGen`], a seeded constrained-random
//! stimulus generator standing in for GOLDMINE-generated testbenches.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use veribug_sim::{Simulator, TestbenchGen};
//!
//! let unit = verilog::parse(
//!     "module counter(input clk, input en, output reg [3:0] n);\n\
//!      always @(posedge clk) begin\nif (en) n <= n + 1'b1;\nend\nendmodule",
//! )?;
//! let mut sim = Simulator::new(unit.top())?;
//! let stim = TestbenchGen::new(42).generate(sim.netlist(), 32);
//! let trace = sim.run(&stim)?;
//! assert_eq!(trace.len(), 32);
//! // Every execution of the increment was recorded with operand values.
//! let execs = trace.execs_of(verilog::StmtId(0));
//! assert!(!execs.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batch;
mod cancel;
mod compile;
mod error;
mod eval;
mod metrics;
mod netlist;
pub mod oracle;
mod sched;
mod testbench;
mod trace;
mod value;
mod vcd;

pub use cancel::CancelToken;
pub use error::SimError;
pub use eval::Write;
pub use netlist::{AssignInfo, Netlist, Signal, SignalId, SignalRole};
pub use sched::{EngineKind, Simulator};
pub use testbench::{Stimulus, TestbenchGen};
pub use trace::{
    CycleRecord, Execs, ExecsIter, Operands, SignalSet, Snapshot, StmtExec, Trace, TraceLabel,
    TraceMode, VerdictTrace,
};
pub use value::{BatchValue, Value, LANES};
pub use vcd::to_vcd;
