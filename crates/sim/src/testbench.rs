//! Random-stimulus testbench generation (GOLDMINE testbench substitute).
//!
//! Generates seeded, reproducible input sequences. Reset-like inputs
//! (detected by name or by appearing as an async-reset edge) are held active
//! for the first cycles and inactive afterwards; every other input is
//! re-randomized per cycle with a configurable hold probability, which keeps
//! temporal correlation in the stimulus the way constrained-random
//! testbenches do.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::SimError;
use crate::netlist::{Netlist, SignalId, SignalRole};
use crate::value::Value;

/// A complete multi-cycle stimulus in dense form: the driven input ports
/// by name, and one `u64` word per port per cycle, cycle-major.
///
/// Every stimulus of a generated set shares one port list, so an engine
/// resolves names to its own netlist's signal ids once per set and then
/// loads words with no lookups. Each cycle drives every listed port; a
/// port keeps its previous word when the stimulus holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stimulus {
    ports: Arc<[String]>,
    /// `cycles × ports.len()` words; cycle `c` is `words[c * n..(c + 1) * n]`.
    words: Vec<u64>,
    cycles: usize,
}

impl Stimulus {
    /// Builds a stimulus from per-cycle `(port, bits)` assignments, for
    /// tests and hand-written stimuli. Ports are listed in order of first
    /// assignment. A cycle that does not assign a port keeps its previous
    /// value (0 before the first assignment, matching the reset state);
    /// within a cycle the last assignment to a port wins. Names are not
    /// checked here: running the stimulus reports an undeclared or
    /// non-input port as [`SimError::UnknownSignal`] /
    /// [`SimError::NotAnInput`], for the first bad port in this order.
    ///
    /// # Examples
    ///
    /// ```
    /// use veribug_sim::Stimulus;
    ///
    /// let stim = Stimulus::from_named(vec![vec![("d", 1), ("en", 1)], vec![("d", 0)]]);
    /// assert_eq!(stim.len(), 2);
    /// assert_eq!(stim.ports(), ["d", "en"]);
    /// // `en` is held in the second cycle.
    /// assert_eq!(stim.cycle(1), [0, 1]);
    /// ```
    pub fn from_named<'a, C, V>(cycles: C) -> Stimulus
    where
        C: IntoIterator<Item = V>,
        V: IntoIterator<Item = (&'a str, u64)>,
    {
        let cycles: Vec<Vec<(&str, u64)>> = cycles
            .into_iter()
            .map(|v| v.into_iter().collect())
            .collect();
        let mut ports: Vec<&str> = Vec::new();
        for (name, _) in cycles.iter().flatten() {
            if !ports.contains(name) {
                ports.push(name);
            }
        }
        let n = ports.len();
        let mut words = vec![0u64; cycles.len() * n];
        for (c, assigns) in cycles.iter().enumerate() {
            if c > 0 {
                words.copy_within((c - 1) * n..c * n, c * n);
            }
            for (name, bits) in assigns {
                let slot = ports.iter().position(|p| p == name).expect("listed");
                words[c * n + slot] = *bits;
            }
        }
        Stimulus {
            ports: ports.into_iter().map(str::to_owned).collect(),
            words,
            cycles: cycles.len(),
        }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles
    }

    /// True when the stimulus has no cycles.
    pub fn is_empty(&self) -> bool {
        self.cycles == 0
    }

    /// The driven input ports, in word order.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// Cycle `cycle`'s words, one per port in [`ports`](Self::ports) order.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= self.len()`.
    pub fn cycle(&self, cycle: usize) -> &[u64] {
        assert!(
            cycle < self.cycles,
            "cycle {cycle} out of 0..{}",
            self.cycles
        );
        let n = self.ports.len();
        &self.words[cycle * n..(cycle + 1) * n]
    }
}

/// Resolves stimulus port lists to one netlist's signal ids, once per
/// distinct shared list: a generated set costs O(ports), not
/// O(runs × cycles × ports). Golden and buggy netlists may declare ports
/// in different orders, so each engine resolves against its own.
#[derive(Debug, Default)]
pub(crate) struct PortResolver {
    /// The last port list resolved, and its ids.
    ports: Option<Arc<[String]>>,
    ids: Arc<[SignalId]>,
}

impl PortResolver {
    /// The signal id of each of `stim`'s ports, in port order.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] / [`SimError::NotAnInput`] for the first
    /// bad port in port order — the first bad assignment a cycle-by-cycle
    /// loop over the stimulus would hit.
    pub(crate) fn resolve(
        &mut self,
        netlist: &Netlist,
        stim: &Stimulus,
    ) -> Result<Arc<[SignalId]>, SimError> {
        if self
            .ports
            .as_ref()
            .is_some_and(|ports| Arc::ptr_eq(ports, &stim.ports))
        {
            return Ok(Arc::clone(&self.ids));
        }
        let ids: Arc<[SignalId]> = stim
            .ports
            .iter()
            .map(|name| {
                let id = netlist
                    .signal_id(name)
                    .ok_or_else(|| SimError::UnknownSignal { name: name.clone() })?;
                if netlist.signal(id).role != SignalRole::Input {
                    return Err(SimError::NotAnInput { name: name.clone() });
                }
                Ok(id)
            })
            .collect::<Result<_, SimError>>()?;
        self.ports = Some(Arc::clone(&stim.ports));
        self.ids = Arc::clone(&ids);
        Ok(ids)
    }
}

/// One stimulus input's generation plan, hoisted out of the per-cycle
/// loop.
#[derive(Debug)]
struct InputPlan {
    /// `Some(active_low)` for reset-like inputs.
    reset: Option<bool>,
    width: u8,
    mask: u64,
    /// Earlier inputs of the same width — coupling candidates — by slot.
    peers: Vec<usize>,
}

/// A design's stimulus inputs, resolved once per generated set.
#[derive(Debug)]
struct Plan {
    ports: Arc<[String]>,
    inputs: Vec<InputPlan>,
}

impl Plan {
    fn new(netlist: &Netlist) -> Plan {
        let ids = netlist.stimulus_inputs();
        let inputs = ids
            .iter()
            .enumerate()
            .map(|(slot, &id)| {
                let sig = netlist.signal(id);
                InputPlan {
                    reset: reset_polarity(netlist, &sig.name, id),
                    width: sig.width,
                    mask: Value::mask(sig.width),
                    peers: (0..slot)
                        .filter(|&p| netlist.signal(ids[p]).width == sig.width)
                        .collect(),
                }
            })
            .collect();
        Plan {
            ports: ids
                .iter()
                .map(|&id| netlist.signal(id).name.clone())
                .collect(),
            inputs,
        }
    }
}

/// Seeded random testbench generator.
#[derive(Debug, Clone)]
pub struct TestbenchGen {
    seed: u64,
    hold_probability: f64,
}

/// How many leading cycles reset-like inputs stay asserted.
const RESET_CYCLES: usize = 2;

/// The probability that a multi-bit input copies the value of another
/// same-width input in the same cycle. Coupling makes equality comparisons
/// (address matches, tag compares) fire at useful rates — the role
/// GOLDMINE's design-aware testbenches play in the paper.
const COUPLE_PROBABILITY: f64 = 0.25;

impl TestbenchGen {
    /// Creates a generator with the default hold probability (0.5), a
    /// 2-cycle reset window, and 25% input coupling.
    pub fn new(seed: u64) -> Self {
        TestbenchGen {
            seed,
            hold_probability: 0.5,
        }
    }

    /// Sets the probability that an input holds its previous value.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn with_hold_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        self.hold_probability = p;
        self
    }

    /// Generates a stimulus of `cycles` cycles for a design.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use veribug_sim::{Netlist, TestbenchGen};
    ///
    /// let unit = verilog::parse(
    ///     "module m(input clk, input rst_n, input d, output reg q);\n\
    ///      always @(posedge clk) q <= d & rst_n;\nendmodule",
    /// )?;
    /// let netlist = Netlist::elaborate(unit.top())?;
    /// let stim = TestbenchGen::new(42).generate(&netlist, 8);
    /// assert_eq!(stim.len(), 8);
    /// assert_eq!(stim.ports(), ["rst_n", "d"]);
    /// // rst_n is active-low: held at 0 during the reset window.
    /// assert_eq!(stim.cycle(0)[0], 0);
    /// assert_eq!(stim.cycle(7)[0], 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(&self, netlist: &Netlist, cycles: usize) -> Stimulus {
        self.generate_planned(&Plan::new(netlist), cycles)
    }

    /// Generates `count` independent stimuli by perturbing the seed. They
    /// share one port list.
    pub fn generate_many(&self, netlist: &Netlist, cycles: usize, count: usize) -> Vec<Stimulus> {
        let plan = Plan::new(netlist);
        (0..count)
            .map(|i| {
                TestbenchGen {
                    seed: self
                        .seed
                        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                    ..self.clone()
                }
                .generate_planned(&plan, cycles)
            })
            .collect()
    }

    /// The generator proper. Per cycle and input, in port order: a
    /// reset-like input follows its window and draws nothing; otherwise one
    /// draw decides a hold (after the first cycle), then a multi-bit input
    /// draws whether to couple to an earlier same-width input of this
    /// cycle, and finally draws its value or its peer. Every stream depends
    /// on this exact draw sequence.
    fn generate_planned(&self, plan: &Plan, cycles: usize) -> Stimulus {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = plan.inputs.len();
        let mut words = vec![0u64; cycles * n];
        for cycle in 0..cycles {
            let (done, rest) = words.split_at_mut(cycle * n);
            let prev = &done[done.len().saturating_sub(n)..];
            let row = &mut rest[..n];
            for (slot, input) in plan.inputs.iter().enumerate() {
                row[slot] = if let Some(active_low) = input.reset {
                    let in_reset = cycle < RESET_CYCLES;
                    // Active-low reset: 0 while resetting. Active-high: 1.
                    u64::from(in_reset != active_low)
                } else if cycle > 0 && rng.random_bool(self.hold_probability) {
                    prev[slot]
                } else if input.width > 1 && rng.random_bool(COUPLE_PROBABILITY) {
                    // Copy another same-width input already driven this
                    // cycle, so equality comparisons can fire.
                    if input.peers.is_empty() {
                        rng.random::<u64>() & input.mask
                    } else {
                        row[input.peers[rng.random_range(0..input.peers.len())]]
                    }
                } else {
                    rng.random::<u64>() & input.mask
                };
            }
        }
        Stimulus {
            ports: Arc::clone(&plan.ports),
            words,
            cycles,
        }
    }
}

/// Returns `Some(active_low)` when the signal looks like a reset.
fn reset_polarity(netlist: &Netlist, name: &str, id: SignalId) -> Option<bool> {
    let lower = name.to_ascii_lowercase();
    let is_named_reset = lower == "rst"
        || lower == "reset"
        || lower.starts_with("rst_")
        || lower.starts_with("reset_")
        || lower.ends_with("_rst")
        || lower.ends_with("_reset")
        || lower.ends_with("rst_n")
        || lower.ends_with("resetn")
        || lower.ends_with("rst_ni");
    if !is_named_reset && !netlist.resets.contains(&id) {
        return None;
    }
    let active_low = lower.ends_with('n') || lower.ends_with("_ni") || lower.contains("_n");
    Some(active_low)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn netlist(src: &str) -> Netlist {
        Netlist::elaborate(verilog::parse(src).unwrap().top()).unwrap()
    }

    /// The word `port` carries in `cycle`.
    fn word(s: &Stimulus, cycle: usize, port: &str) -> u64 {
        let slot = s.ports().iter().position(|p| p == port).unwrap();
        s.cycle(cycle)[slot]
    }

    #[test]
    fn deterministic_for_same_seed() {
        let n = netlist(
            "module m(input clk, input [7:0] a, input b, output reg [7:0] q);\n\
             always @(posedge clk) q <= a & {8{b}};\nendmodule",
        );
        let s1 = TestbenchGen::new(123).generate(&n, 32);
        let s2 = TestbenchGen::new(123).generate(&n, 32);
        let s3 = TestbenchGen::new(124).generate(&n, 32);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn values_respect_widths() {
        let n = netlist(
            "module m(input clk, input [2:0] a, output reg [2:0] q);\n\
             always @(posedge clk) q <= a;\nendmodule",
        );
        let s = TestbenchGen::new(9)
            .with_hold_probability(0.0)
            .generate(&n, 64);
        for c in 0..s.len() {
            let a = word(&s, c, "a");
            assert!(a < 8, "3-bit input out of range: {a}");
        }
    }

    #[test]
    fn reset_window_polarity() {
        let n = netlist(
            "module m(input clk, input rst, input rst_n, input d, output reg q);\n\
             always @(posedge clk) q <= d & rst_n & ~rst;\nendmodule",
        );
        let s = TestbenchGen::new(5).generate(&n, 6);
        for c in 0..RESET_CYCLES {
            assert_eq!(word(&s, c, "rst"), 1, "active-high asserted");
            assert_eq!(word(&s, c, "rst_n"), 0, "active-low asserted");
        }
        for c in RESET_CYCLES..6 {
            assert_eq!(word(&s, c, "rst"), 0);
            assert_eq!(word(&s, c, "rst_n"), 1);
        }
    }

    #[test]
    fn generate_many_yields_distinct_stimuli() {
        let n = netlist(
            "module m(input clk, input [7:0] a, output reg [7:0] q);\n\
             always @(posedge clk) q <= a;\nendmodule",
        );
        let many = TestbenchGen::new(1).generate_many(&n, 16, 4);
        assert_eq!(many.len(), 4);
        assert_ne!(many[0], many[1]);
        assert_ne!(many[1], many[2]);
    }

    #[test]
    fn hold_probability_one_freezes_inputs_after_first_cycle() {
        let n = netlist(
            "module m(input clk, input [7:0] a, output reg [7:0] q);\n\
             always @(posedge clk) q <= a;\nendmodule",
        );
        let s = TestbenchGen::new(2)
            .with_hold_probability(1.0)
            .generate(&n, 8);
        let first = word(&s, 0, "a");
        for c in 0..s.len() {
            assert_eq!(word(&s, c, "a"), first);
        }
    }

    #[test]
    fn generated_sets_share_one_port_list() {
        let n = netlist(
            "module m(input clk, input [7:0] a, input b, output reg [7:0] q);\n\
             always @(posedge clk) q <= a & {8{b}};\nendmodule",
        );
        let many = TestbenchGen::new(1).generate_many(&n, 4, 3);
        assert_eq!(many[0].ports(), ["a", "b"]);
        assert!(many.iter().all(|s| Arc::ptr_eq(&s.ports, &many[0].ports)));
    }

    #[test]
    fn from_named_holds_undriven_ports() {
        let s = Stimulus::from_named(vec![
            vec![("a", 3)],
            vec![("b", 1), ("a", 5), ("a", 6)],
            vec![],
        ]);
        assert_eq!(s.ports(), ["a", "b"]);
        assert_eq!(s.cycle(0), [3, 0], "b is 0 before its first drive");
        assert_eq!(s.cycle(1), [6, 1], "the last assignment wins");
        assert_eq!(s.cycle(2), [6, 1], "an empty cycle holds every port");
        assert!(Stimulus::from_named(Vec::<Vec<(&str, u64)>>::new()).is_empty());
    }

    #[test]
    fn resolver_reports_first_bad_port_and_memoizes() {
        let n = netlist("module m(input a, input b, output y);\nassign y = a & b;\nendmodule");
        let mut r = PortResolver::default();
        let s = Stimulus::from_named(vec![vec![("b", 1)], vec![("y", 1), ("ghost", 1)]]);
        assert!(matches!(
            r.resolve(&n, &s),
            Err(SimError::NotAnInput { name }) if name == "y"
        ));
        let s = Stimulus::from_named(vec![vec![("b", 1), ("a", 0)]]);
        let ids = r.resolve(&n, &s).unwrap();
        let names: Vec<_> = ids.iter().map(|&id| n.signal(id).name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
        assert!(Arc::ptr_eq(&ids, &r.resolve(&n, &s.clone()).unwrap()));
    }
}
