//! VCD (Value Change Dump) export for traces.
//!
//! Lets any recorded [`Trace`] be inspected in standard waveform viewers
//! (GTKWave & co.), which is how a verification engineer would consume the
//! failing runs VeriBug localizes from.

use std::fmt::Write as _;

use crate::netlist::Netlist;
use crate::trace::Trace;
use crate::value::Value;

/// Renders a trace as VCD text.
///
/// One VCD timestep spans `timescale_ns` nanoseconds per simulated cycle;
/// all signals live under a scope named after the module.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use veribug_sim::{to_vcd, Simulator, TestbenchGen};
///
/// let unit = verilog::parse(
///     "module m(input clk, input d, output reg q);\n\
///      always @(posedge clk) q <= d;\nendmodule",
/// )?;
/// let mut sim = Simulator::new(unit.top())?;
/// let stim = TestbenchGen::new(1).generate(sim.netlist(), 8);
/// let trace = sim.run(&stim)?;
/// let vcd = to_vcd(sim.netlist(), &trace, 10);
/// assert!(vcd.starts_with("$date"));
/// assert!(vcd.contains("$var wire 1"));
/// # Ok(())
/// # }
/// ```
pub fn to_vcd(netlist: &Netlist, trace: &Trace, timescale_ns: u32) -> String {
    let mut out = String::new();
    out.push_str("$date\n  (veribug-sim)\n$end\n");
    out.push_str("$version\n  veribug-sim VCD export\n$end\n");
    let _ = writeln!(out, "$timescale {timescale_ns}ns $end");
    let _ = writeln!(out, "$scope module {} $end", netlist.module.name);
    let ids: Vec<String> = (0..netlist.signal_count()).map(vcd_id).collect();
    for (i, sig) in netlist.signals().iter().enumerate() {
        let _ = writeln!(out, "$var wire {} {} {} $end", sig.width, ids[i], sig.name);
    }
    out.push_str("$upscope $end\n$enddefinitions $end\n");

    let mut last: Vec<Option<Value>> = vec![None; netlist.signal_count()];
    for cyc in &trace.cycles {
        let _ = writeln!(out, "#{}", u64::from(cyc.cycle) * u64::from(timescale_ns));
        for (i, value) in cyc.signals.iter().enumerate() {
            if last[i] == Some(*value) {
                continue;
            }
            last[i] = Some(*value);
            if value.width() == 1 {
                let _ = writeln!(out, "{}{}", u8::from(value.lsb()), ids[i]);
            } else {
                let _ = writeln!(out, "b{:b} {}", value, ids[i]);
            }
        }
    }
    // Close the waveform one step after the last cycle.
    let _ = writeln!(
        out,
        "#{}",
        u64::from(trace.len() as u32) * u64::from(timescale_ns)
    );
    out
}

/// Generates a printable short identifier (`!`, `"`, ..., `!!`, ...).
fn vcd_id(mut n: usize) -> String {
    const FIRST: u8 = b'!';
    const COUNT: usize = 94; // printable ASCII minus space
    let mut s = String::new();
    loop {
        s.push((FIRST + (n % COUNT) as u8) as char);
        n /= COUNT;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Simulator;
    use crate::testbench::Stimulus;

    fn run(src: &str, vectors: Vec<Vec<(&str, u64)>>) -> (Simulator, Trace) {
        let unit = verilog::parse(src).unwrap();
        let mut sim = Simulator::new(unit.top()).unwrap();
        let t = sim.run(&Stimulus::from_named(vectors)).unwrap();
        (sim, t)
    }

    #[test]
    fn header_declares_all_signals() {
        let (sim, t) = run(
            "module m(input a, input [3:0] b, output y);\nassign y = a ^ b[0];\nendmodule",
            vec![vec![("a", 1), ("b", 5)]],
        );
        let vcd = to_vcd(sim.netlist(), &t, 10);
        assert!(vcd.contains("$var wire 1 ! a $end"), "{vcd}");
        assert!(vcd.contains("$var wire 4"), "{vcd}");
        assert!(vcd.contains("$scope module m $end"));
    }

    #[test]
    fn only_changes_are_dumped() {
        let (sim, t) = run(
            "module m(input a, output y);\nassign y = ~a;\nendmodule",
            vec![vec![("a", 0)], vec![("a", 0)], vec![("a", 1)]],
        );
        let vcd = to_vcd(sim.netlist(), &t, 10);
        // `a` is dumped at #0 and again only when it changes at #20.
        let a_changes = vcd.lines().filter(|l| *l == "0!" || *l == "1!").count();
        assert_eq!(a_changes, 2, "{vcd}");
        assert!(vcd.contains("#20"));
    }

    #[test]
    fn multibit_values_use_binary_format() {
        let (sim, t) = run(
            "module m(input [3:0] b, output [3:0] y);\nassign y = b;\nendmodule",
            vec![vec![("b", 0b1010)]],
        );
        let vcd = to_vcd(sim.netlist(), &t, 10);
        assert!(vcd.contains("b1010 "), "{vcd}");
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..500 {
            let id = vcd_id(n);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
        assert_eq!(vcd_id(0), "!");
        assert_eq!(vcd_id(93), "~");
        assert_eq!(vcd_id(94), "!!");
    }
}
