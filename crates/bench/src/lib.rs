//! # veribug-bench
//!
//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and figures:
//!
//! - `exp_table1` — Table I: localization test-set modules;
//! - `exp_table2` — Table II: predictor quality vs regularization weight α
//!   (plus `--ablate-eps` and `--ctx-agg` ablations);
//! - `exp_table3` — Table III: per-design/per-target top-1 bug coverage
//!   (plus SBFL baseline columns and `--threshold-sweep`);
//! - `exp_fig4` — Fig. 4: qualitative heatmaps on the realistic designs;
//!
//! and for the harnesses behind the checked-in `BENCH_*.json` files:
//!
//! - `bench_pipeline` — per-stage wall-clock at 1/2/4/8 threads with
//!   determinism verdicts, compiled engine vs interpreter oracle, and the
//!   observability overhead (`BENCH_pipeline.json`);
//! - `serve_bench` — the service's sequential cold/warm latency, store
//!   restart, telemetry overhead and drain (`BENCH_serve.json`);
//! - `accuracy_bench` — precision@k and MRR over injected mutations
//!   (`BENCH_accuracy.json`).
//!
//! Served latency and throughput under concurrent load are measured by the
//! standalone `perfbench/` package. Every harness here reduces its samples
//! through [`stats`].

#![warn(missing_docs)]

use rvdg::{Generator, RvdgConfig};
use veribug::{
    model::{ModelConfig, VeriBugModel},
    train::{self, Dataset, TrainConfig},
    VeriBugError,
};
use verilog::Module;

/// The corpus/training sizes the experiments use.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// RVDG designs in the training corpus.
    pub train_designs: usize,
    /// RVDG designs held out for Table II evaluation.
    pub holdout_designs: usize,
    /// Cycles per dataset-building stimulus.
    pub cycles: usize,
    /// Stimuli per design.
    pub runs_per_design: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Co-simulation runs per mutant in campaigns.
    pub runs_per_mutant: usize,
}

impl ExperimentScale {
    /// Full scale: what EXPERIMENTS.md reports.
    pub fn full() -> Self {
        ExperimentScale {
            train_designs: 32,
            holdout_designs: 8,
            cycles: 64,
            runs_per_design: 3,
            epochs: 80,
            runs_per_mutant: 160,
        }
    }

    /// Reduced scale for smoke-testing the harness (`--quick`).
    pub fn quick() -> Self {
        ExperimentScale {
            train_designs: 16,
            holdout_designs: 4,
            cycles: 48,
            runs_per_design: 2,
            epochs: 30,
            runs_per_mutant: 30,
        }
    }

    /// Picks full or quick scale from the presence of a `--quick` flag.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            ExperimentScale::quick()
        } else {
            ExperimentScale::full()
        }
    }
}

/// Generates the RVDG corpora: `(train, holdout)` module sets.
///
/// # Errors
///
/// Propagates generator/parse failures.
pub fn corpora(
    scale: &ExperimentScale,
    seed: u64,
) -> Result<(Vec<Module>, Vec<Module>), verilog::ParseError> {
    let generator = Generator::new(RvdgConfig::default(), seed);
    let all = generator.generate_corpus(scale.train_designs + scale.holdout_designs)?;
    let (train, hold) = all.split_at(scale.train_designs);
    Ok((
        train.iter().map(|d| d.module.clone()).collect(),
        hold.iter().map(|d| d.module.clone()).collect(),
    ))
}

/// Trains a model at the given scale with a specific regularization α.
///
/// # Errors
///
/// Propagates dataset/simulation failures.
pub fn train_model(
    scale: &ExperimentScale,
    alpha: f32,
    seed: u64,
) -> Result<(VeriBugModel, Dataset, Dataset), VeriBugError> {
    train_model_cached(scale, alpha, seed, None)
}

/// The artifact-store key for a training run: an FNV-1a hash of the seed
/// manifest — everything that determines the resulting weights, including
/// the persist format version so a format bump invalidates old entries.
fn weights_key(scale: &ExperimentScale, alpha: f32, seed: u64) -> u64 {
    store::hash::fnv1a(
        format!(
            "veribug-bench weights v1\nscale {} {} {} {} {}\nalpha {alpha:e}\nseed {seed}\nformat {}\n",
            scale.train_designs,
            scale.holdout_designs,
            scale.cycles,
            scale.runs_per_design,
            scale.epochs,
            veribug::persist::format_version()
        )
        .as_bytes(),
    )
}

/// [`train_model`] with optional weight reuse through a persistent
/// artifact store: a hit on the seed-manifest key skips the training loop
/// (the datasets are still built — callers need them for evaluation), a
/// miss trains and writes the weights through. Training is deterministic,
/// so reused weights are byte-identical to a fresh run's.
///
/// # Errors
///
/// Propagates dataset/simulation failures and store write failures.
pub fn train_model_cached(
    scale: &ExperimentScale,
    alpha: f32,
    seed: u64,
    artifact_store: Option<&store::Store>,
) -> Result<(VeriBugModel, Dataset, Dataset), VeriBugError> {
    let (train_modules, holdout_modules) = corpora(scale, seed)?;
    let train_set = Dataset::from_designs(
        &train_modules,
        seed ^ 1,
        scale.cycles,
        scale.runs_per_design,
    )?;
    let holdout_set = Dataset::from_designs(
        &holdout_modules,
        seed ^ 2,
        scale.cycles,
        scale.runs_per_design,
    )?;
    let key = weights_key(scale, alpha, seed);
    if let Some(s) = artifact_store {
        if let Some(model) = s
            .get(store::ArtifactKind::Weights, key)
            .and_then(|bytes| String::from_utf8(bytes).ok())
            .and_then(|text| veribug::persist::from_str(&text).ok())
        {
            obs::progress!(
                "reusing stored weights {} (seed {seed})",
                store::hash::key_hex(key)
            );
            return Ok((model, train_set, holdout_set));
        }
    }
    let mut model = VeriBugModel::new(ModelConfig::default());
    train::train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: scale.epochs,
            alpha,
            ..TrainConfig::default()
        },
    )?;
    if let Some(s) = artifact_store {
        // A failed cache write costs the next run a retrain, nothing more.
        if let Err(e) = s.put(
            store::ArtifactKind::Weights,
            key,
            veribug::persist::to_string(&model).as_bytes(),
        ) {
            obs::progress!("warning: weight store write failed: {e}");
        }
    }
    Ok((model, train_set, holdout_set))
}

/// Initializes observability from the uniform CLI surface every experiment
/// binary shares: `--obs <path>` (or the `VERIBUG_OBS` environment
/// variable) enables collection, `--quiet` suppresses progress lines.
///
/// Call once at the top of `main` and pair with [`obs::report`] before
/// exit — same convention as the `veribug` CLI.
pub fn init_obs() {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .iter()
        .position(|a| a == "--obs")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    obs::init(path);
    obs::set_quiet(args.iter().any(|a| a == "--quiet"));
}

/// Formats a ratio as `"x/y (p%)"`.
pub fn ratio(localized: usize, observable: usize) -> String {
    if observable == 0 {
        "-".to_owned()
    } else {
        format!(
            "{:.1}% ({}/{})",
            100.0 * localized as f64 / observable as f64,
            localized,
            observable
        )
    }
}

/// The statistics every harness reports through, so a "p99" or a
/// "fastest of N reps" means the same thing in every `BENCH_*.json`.
pub mod stats {
    use std::time::Instant;

    /// Nearest-rank percentile of an ascending slice: the smallest sample
    /// with at least `p_percent` percent of all samples at or below it.
    /// `None` when `sorted` is empty or `p_percent` lies outside `0..=100`.
    pub fn nearest_rank(sorted: &[f64], p_percent: f64) -> Option<f64> {
        let n = sorted.len();
        if n == 0 || !(0.0..=100.0).contains(&p_percent) {
            return None;
        }
        let rank = (p_percent / 100.0 * n as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, n) - 1])
    }

    /// Runs `f` `reps` times (at least once) and returns the fastest run's
    /// wall-clock seconds with the last run's result. The workloads timed
    /// this way are deterministic, so scheduling noise only ever adds time
    /// and the minimum is the honest estimate.
    pub fn min_of_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
        let mut timed = || {
            let start = Instant::now();
            let r = f();
            (start.elapsed().as_secs_f64(), r)
        };
        let (mut best, mut last) = timed();
        for _ in 1..reps {
            let (secs, r) = timed();
            best = best.min(secs);
            last = r;
        }
        (best, last)
    }

    /// Interleaved min-of-reps over `K` arms. Every rep measures every arm,
    /// starting at arm `rep % K` and rotating (for two arms: A then B on
    /// even reps, B then A on odd ones), so slow drift on a shared host
    /// hits every arm alike instead of biasing whichever would always run
    /// last. `measure(arm)` returns one rep's figures for an arm; the
    /// result is each arm's element-wise minimum over the reps (at least
    /// one), indexed by arm. The first error ends the reps.
    ///
    /// # Errors
    ///
    /// The first error `measure` returns.
    pub fn interleaved_min_of_reps<const K: usize, const N: usize, E>(
        reps: usize,
        mut measure: impl FnMut(usize) -> Result<[f64; N], E>,
    ) -> Result<[[f64; N]; K], E> {
        let mut best = [[f64::INFINITY; N]; K];
        for rep in 0..reps.max(1) {
            for i in 0..K {
                let arm = (rep + i) % K;
                let figures = measure(arm)?;
                for (m, f) in best[arm].iter_mut().zip(figures) {
                    *m = m.min(f);
                }
            }
        }
        Ok(best)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn ramp(n: usize) -> Vec<f64> {
            (1..=n).map(|i| i as f64).collect()
        }

        #[test]
        fn nearest_rank_picks_a_sample() {
            let v = ramp(10);
            assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
            assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
            assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
            assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
            assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
            assert_eq!(nearest_rank(&[], 50.0), None);
            assert_eq!(nearest_rank(&v, 101.0), None);
        }

        #[test]
        fn min_of_reps_keeps_the_fastest_time_and_the_last_result() {
            // Rep 1 sleeps, the others return at once: the minimum must be
            // one of the fast reps, and the result the third rep's.
            let mut rep = 0;
            let (best, last) = min_of_reps(3, || {
                rep += 1;
                if rep == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                rep
            });
            assert_eq!(last, 3);
            assert!(best < 0.05, "fastest rep took {best}s");
            // Zero reps still runs once.
            let (_, once) = min_of_reps(0, || 7);
            assert_eq!(once, 7);
        }

        #[test]
        fn interleaved_min_of_reps_rotates_order_and_keeps_each_arms_minimum() {
            let mut calls = Vec::new();
            let figures = [[5.0, 50.0], [3.0, 70.0], [4.0, 60.0]];
            let [a, b] = interleaved_min_of_reps(3, |arm| {
                let rep = calls.len() / 2;
                calls.push(arm);
                let [x, y] = figures[rep];
                Ok::<_, ()>(if arm == 1 {
                    [x + 10.0, y]
                } else {
                    [x, y + 10.0]
                })
            })
            .unwrap();
            assert_eq!(calls, [0, 1, 1, 0, 0, 1]);
            assert_eq!(a, [3.0, 60.0]);
            assert_eq!(b, [13.0, 50.0]);
            // Three arms rotate their starting point: each runs first,
            // second and last once over three reps.
            let mut calls = Vec::new();
            let [x, y, z] = interleaved_min_of_reps(3, |arm| {
                calls.push(arm);
                Ok::<_, ()>([(arm * 10 + calls.len()) as f64])
            })
            .unwrap();
            assert_eq!(calls, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
            assert_eq!((x, y, z), ([1.0], [12.0], [23.0]));
            // The first error stops the reps.
            let mut n = 0;
            let err = interleaved_min_of_reps::<2, 1, _>(4, |_| {
                n += 1;
                if n == 2 {
                    Err("boom")
                } else {
                    Ok([1.0])
                }
            });
            assert_eq!(err, Err("boom"));
            assert_eq!(n, 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_trains_end_to_end() {
        let scale = ExperimentScale::quick();
        let (model, train_set, holdout) = train_model(&scale, 0.10, 99).unwrap();
        assert!(train_set.len() > 50);
        assert!(!holdout.is_empty());
        let m = veribug::train::evaluate(&model, &holdout);
        assert!(m.accuracy > 0.5, "quick model worse than chance: {m:?}");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(7, 8), "87.5% (7/8)");
        assert_eq!(ratio(0, 0), "-");
    }
}
