//! The model-training path, run in process at fixed seeds: RVDG corpus →
//! mutation campaign over the Table I catalog → dataset → train →
//! evaluate. Every workload runs it before timing, because the served
//! model and the `localize_hot` mutants come out of it; its timings are
//! the offline metrics.

use std::error::Error;
use std::time::Instant;

use mutate::{BugBudget, Campaign, Mutant};
use rvdg::{Generator, RvdgConfig};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use verilog::Module;

use crate::stats::median;

/// Seed of the training corpus and of the training loop's shuffles.
const TRAIN_SEED: u64 = 1234;
/// Base seed of the per-design campaigns (the design index is added).
const CAMPAIGN_SEED: u64 = 0x0ACC_2026;
/// RVDG designs trained on, plus the held-out designs evaluated on.
const CORPUS_DESIGNS: usize = 16;
const HOLDOUT_DESIGNS: usize = 4;
/// Dataset harvesting: cycles per stimulus and stimuli per design.
const DATASET_CYCLES: usize = 32;
const DATASET_RUNS: usize = 2;
/// Training epochs.
const EPOCHS: usize = 8;
/// `persist::content_hash_hex` of the weights the offline path trains. A
/// run that trains anything else has changed the program's answers.
pub const WEIGHTS_HASH: &str = "334ba84de2fca584";
/// Mutants asked of each catalog design, per bug class.
const BUDGET: BugBudget = BugBudget {
    negation: 3,
    operation: 4,
    misuse: 5,
};

/// One Table I design with the target the benchmark localizes against.
pub struct Case {
    /// The embedded source, byte for byte what a client would post.
    pub source: &'static str,
    /// The parsed module.
    pub module: Module,
    /// The design's first paper target.
    pub target: &'static str,
}

/// What the offline path reads: the generated corpus and the catalog.
pub struct OfflineInputs {
    corpus: Vec<Module>,
    holdout: Vec<Module>,
    /// The four catalog designs, in paper order.
    pub cases: Vec<Case>,
    /// Wall seconds `Generator::generate_corpus` took.
    pub generate_s: f64,
}

/// Generates the RVDG corpus and parses the catalog.
///
/// # Errors
///
/// Generator or parse failures.
pub fn load_inputs() -> Result<OfflineInputs, Box<dyn Error>> {
    let t = Instant::now();
    let all = Generator::new(RvdgConfig::default(), TRAIN_SEED)
        .generate_corpus(CORPUS_DESIGNS + HOLDOUT_DESIGNS)?;
    let generate_s = t.elapsed().as_secs_f64();
    let (train, hold) = all.split_at(CORPUS_DESIGNS);
    let mut cases = Vec::new();
    for d in designs::catalog() {
        cases.push(Case {
            source: d.source,
            module: d.module()?,
            target: d.targets[0],
        });
    }
    Ok(OfflineInputs {
        corpus: train.iter().map(|d| d.module.clone()).collect(),
        holdout: hold.iter().map(|d| d.module.clone()).collect(),
        cases,
        generate_s,
    })
}

/// One pass of the offline path and what it cost.
pub struct Round {
    /// The trained model.
    pub model: VeriBugModel,
    /// Every mutant the campaigns kept, with the index of its catalog case.
    pub mutants: Vec<(usize, Mutant)>,
    /// `persist::content_hash_hex` of the trained weights.
    pub weights_hash: String,
    /// Wall seconds of the whole round.
    pub total_s: f64,
    /// Wall seconds of the four campaigns.
    pub campaign_s: f64,
    /// Candidates the campaigns screened and merged (kept + duplicates).
    pub screened: u64,
    /// Candidates the campaigns kept.
    pub kept: u64,
    /// Wall seconds building the training and holdout datasets.
    pub dataset_s: f64,
    /// Wall seconds of `train::train`.
    pub train_s: f64,
    /// Median wall seconds of one training epoch.
    pub epoch_s: f64,
    /// Dataset entries times epochs: samples the training loop processed.
    pub samples_trained: usize,
    /// Wall seconds of `train::evaluate` over the holdout set.
    pub evaluate_s: f64,
}

fn counter(name: &str) -> u64 {
    obs::snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Runs the offline path once. Needs obs collection on, for the
/// campaign's duplicate counter.
///
/// # Errors
///
/// Campaign, dataset or training failures.
pub fn round(inputs: &OfflineInputs) -> Result<Round, Box<dyn Error>> {
    let started = Instant::now();
    let duplicates0 = counter("campaign.duplicates");
    let mut mutants = Vec::new();
    for (ci, case) in inputs.cases.iter().enumerate() {
        let kept =
            Campaign::new(CAMPAIGN_SEED + ci as u64).run(&case.module, case.target, &BUDGET)?;
        mutants.extend(kept.into_iter().map(|m| (ci, m)));
    }
    let campaign_s = started.elapsed().as_secs_f64();
    let kept = mutants.len() as u64;
    let screened = kept + counter("campaign.duplicates") - duplicates0;

    let t = Instant::now();
    let train_set =
        Dataset::from_designs(&inputs.corpus, TRAIN_SEED ^ 1, DATASET_CYCLES, DATASET_RUNS)?;
    let holdout = Dataset::from_designs(
        &inputs.holdout,
        TRAIN_SEED ^ 2,
        DATASET_CYCLES,
        DATASET_RUNS,
    )?;
    let dataset_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut model = VeriBugModel::new(ModelConfig::default());
    let report = train::train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: EPOCHS,
            seed: TRAIN_SEED,
            ..TrainConfig::default()
        },
    )?;
    let train_s = t.elapsed().as_secs_f64();
    let epoch_walls: Vec<f64> = report.epochs.iter().map(|e| e.wall_s).collect();

    let t = Instant::now();
    let eval = train::evaluate(&model, &holdout);
    let evaluate_s = t.elapsed().as_secs_f64();
    if eval.count != holdout.len() {
        return Err("evaluate scored a different number of samples than the holdout holds".into());
    }

    Ok(Round {
        weights_hash: veribug::persist::content_hash_hex(&model),
        model,
        mutants,
        total_s: started.elapsed().as_secs_f64(),
        campaign_s,
        screened,
        kept,
        dataset_s,
        train_s,
        epoch_s: median(&epoch_walls),
        samples_trained: train_set.len() * EPOCHS,
        evaluate_s,
    })
}
