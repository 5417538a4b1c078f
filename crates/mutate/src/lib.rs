//! # veribug-mutate
//!
//! Mutation-based bug injection for the VeriBug reproduction (paper Sec. V,
//! "Bug injection"): the three data-centric bug classes — **negation**,
//! **variable misuse**, and **operation substitution** — applied one bug per
//! mutated design, plus golden-vs-mutant co-simulation that decides whether
//! each bug is *observable* at a target output and labels every simulation
//! run as failing (`T_f`) or correct (`T_c`).
//!
//! A [`Campaign`] labels runs from verdict-mode screening, which simulates
//! only the target output, and then records the kept mutants' statement
//! executions without any signal snapshots. The [`oracle`] module holds
//! the full-trace reference labelling and single-pass campaign that tests
//! and benchmarks check this against.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use veribug_mutate::{BugBudget, Campaign};
//!
//! let golden = verilog::parse(
//!     "module m(input a, input b, output y);\nassign y = a & ~b;\nendmodule",
//! )?.top().clone();
//! let budget = BugBudget { negation: 1, operation: 1, misuse: 1 };
//! let mutants = Campaign::new(42).run(&golden, "y", &budget)?;
//! assert!(!mutants.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod campaign;
mod mutation;
mod observe;
pub mod oracle;

pub use campaign::{BugBudget, Campaign, Mutant};
pub use mutation::{apply, enumerate_sites, MutationKind, MutationSite};
pub use observe::{
    golden_verdicts, run_lane_groups, run_lane_groups_mode, screen_with, LabelledRun, RunVerdict,
};
