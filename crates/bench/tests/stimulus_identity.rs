//! Bit-identity pins for the random testbench streams (GOLDMINE
//! substitute, paper Sec. IV-B/C).
//!
//! Every stimulus set the pipeline generates — `localize::run`'s default
//! 160×16 screen, a `Campaign`'s 40×16 mutant screen and `train`'s 2×32
//! dataset harvest — is folded into an FNV-1a digest per flow, over the
//! four Table I catalog designs and eight RVDG designs. The words are read
//! back through the simulator as verdict snapshots of every stimulus
//! input, so the digest covers both the generated values and the engine
//! loading them onto the right ports. A rewrite of the generator or of the
//! stimulus layout must leave every digest unchanged.

use rvdg::{Generator, RvdgConfig};
use sim::{SignalSet, Simulator, Stimulus, TestbenchGen, TraceMode};
use store::hash::Fnv1a;
use veribug::LocalizeOptions;
use verilog::Module;

/// The catalog designs followed by the first eight RVDG designs of the
/// training seed.
fn designs() -> Vec<Module> {
    let mut modules: Vec<Module> = designs::catalog()
        .iter()
        .map(|d| d.module().expect("catalog parses"))
        .collect();
    let corpus = Generator::new(RvdgConfig::default(), 1234)
        .generate_corpus(8)
        .expect("corpus generates");
    modules.extend(corpus.into_iter().map(|d| d.module));
    modules
}

/// Folds a stimulus set into `fnv`: the input port names, then every
/// stimulus's per-cycle input values as the simulator loads them.
fn fold(fnv: &mut Fnv1a, sim: &mut Simulator, stimuli: &[Stimulus]) {
    let netlist = sim.netlist();
    let inputs = SignalSet::from_ids(netlist.stimulus_inputs());
    for &id in inputs.ids() {
        let name = &netlist.signal(id).name;
        fnv.update(&(name.len() as u64).to_le_bytes());
        fnv.update(name.as_bytes());
    }
    fnv.update(&(stimuli.len() as u64).to_le_bytes());
    let runs = sim
        .run_batch_mode(stimuli, TraceMode::verdict(&inputs))
        .expect("simulates");
    for (stim, (_, verdict)) in stimuli.iter().zip(runs) {
        fnv.update(&(stim.len() as u64).to_le_bytes());
        for v in &verdict.values {
            fnv.update(&v.bits().to_le_bytes());
        }
    }
}

/// Digests `[localize, campaign, train]` over every design.
fn digests() -> [u64; 3] {
    let opts = LocalizeOptions::default();
    let mut localize = Fnv1a::new();
    let mut campaign = Fnv1a::new();
    let mut train = Fnv1a::new();
    for (di, module) in designs().iter().enumerate() {
        let mut sim = Simulator::new(module).expect("elaborates");
        // `localize::run` with default options.
        let stimuli = TestbenchGen::new(opts.stim_seed)
            .with_hold_probability(opts.hold_probability)
            .generate_many(sim.netlist(), opts.cycles, opts.runs);
        fold(&mut localize, &mut sim, &stimuli);
        // `Campaign::new(seed)` defaults: 40 runs × 16 cycles, hold 0.8,
        // seeded `seed ^ 0xD1CE_F00D`.
        let seed = 0x0ACC_2026 + di as u64;
        let stimuli = TestbenchGen::new(seed ^ 0xD1CE_F00D)
            .with_hold_probability(0.8)
            .generate_many(sim.netlist(), 16, 40);
        fold(&mut campaign, &mut sim, &stimuli);
        // `Dataset::from_designs(corpus, 1234 ^ 1, 32, 2)`: design `di`
        // seeded `seed + di * 7919`, default hold probability.
        let stimuli = TestbenchGen::new((1234u64 ^ 1).wrapping_add(di as u64 * 7919))
            .generate_many(sim.netlist(), 32, 2);
        fold(&mut train, &mut sim, &stimuli);
    }
    [localize.finish(), campaign.finish(), train.finish()]
}

#[test]
fn stimulus_streams_are_pinned() {
    assert_eq!(digests(), PINNED);
}

/// The single-stimulus `generate` the CLI simulates with, at its default
/// hold probability.
#[test]
fn single_generate_is_pinned() {
    let mut fnv = Fnv1a::new();
    for module in designs() {
        let mut sim = Simulator::new(&module).expect("elaborates");
        let stim = TestbenchGen::new(7).generate(sim.netlist(), 24);
        fold(&mut fnv, &mut sim, std::slice::from_ref(&stim));
    }
    assert_eq!(fnv.finish(), PINNED_SINGLE);
}

/// Captured from the `Vec<(String, u64)>`-per-cycle generator that
/// preceded the dense stimulus layout.
const PINNED: [u64; 3] = [
    12_707_990_367_304_192_550,
    5_665_059_444_189_536_954,
    14_242_073_117_256_484_611,
];
const PINNED_SINGLE: u64 = 240_724_307_405_020_568;
