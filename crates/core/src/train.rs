//! Dataset construction and training (paper Secs. IV-C, V).
//!
//! VeriBug trains on *free supervision*: the per-statement execution records
//! produced by simulating RVDG-generated synthetic designs. The loss is a
//! class-weighted cross-entropy (inverse class frequency) plus the
//! localization regularizer `(α/N) Σ 1/‖X*_i‖` that keeps the aggregation
//! and attention parameters training (paper "Training Loss").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;

use crate::error::VeriBugError;
use crate::features::StatementFeatures;
use crate::model::{Sample, VeriBugModel};
use neuro::{GradBuffer, Graph};
use sim::{Simulator, TestbenchGen, TraceMode};
use verilog::Module;

/// One dataset entry: a statement (by index into the feature table) plus an
/// observed execution.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DatasetEntry {
    /// Index into [`Dataset::stmts`].
    pub stmt_idx: usize,
    /// Operand values and target bit.
    pub sample: Sample,
}

/// A supervised dataset of statement executions.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Dataset {
    /// Feature table (deduplicated across designs).
    pub stmts: Vec<StatementFeatures>,
    /// Execution samples referencing the feature table.
    pub entries: Vec<DatasetEntry>,
}

impl Dataset {
    /// Builds a dataset by simulating each design with seeded random
    /// stimuli and collecting every *distinct* `(statement, operand values)`
    /// execution observed.
    ///
    /// Designs are simulated and harvested in parallel; results are merged
    /// in design order, so the dataset is identical at any thread count (see
    /// [`par::max_threads`] for the thread knobs). Each design's stimuli
    /// depend only on `seed` and the design's position, never on scheduling.
    ///
    /// # Errors
    ///
    /// Propagates elaboration/simulation failures, and reports a
    /// [`VeriBugError::BadDataset`] when nothing executable was observed.
    pub fn from_designs(
        modules: &[Module],
        seed: u64,
        cycles: usize,
        runs_per_design: usize,
    ) -> Result<Self, VeriBugError> {
        let _span = obs::span("train.dataset");
        let harvests = par::par_run(modules.len(), |di| {
            harvest_design(&modules[di], seed, di, cycles, runs_per_design)
        });
        let mut stmts: Vec<StatementFeatures> = Vec::new();
        let mut entries: Vec<DatasetEntry> = Vec::new();
        for harvest in harvests {
            let (design_stmts, design_entries) = harvest?;
            let base = stmts.len();
            stmts.extend(design_stmts);
            entries.extend(design_entries.into_iter().map(|mut e| {
                e.stmt_idx += base;
                e
            }));
        }
        if entries.is_empty() {
            return Err(VeriBugError::BadDataset {
                detail: "no statement executions observed".to_owned(),
            });
        }
        Ok(Dataset { stmts, entries })
    }

    /// Class weights `(w0, w1)` by inverse class frequency over the targets.
    ///
    /// # Errors
    ///
    /// Fails when only one class is present.
    pub fn class_weights(&self) -> Result<(f32, f32), VeriBugError> {
        let ones = self.entries.iter().filter(|e| e.sample.target).count();
        let zeros = self.entries.len() - ones;
        if ones == 0 || zeros == 0 {
            return Err(VeriBugError::BadDataset {
                detail: format!("single-class dataset ({zeros} zeros, {ones} ones)"),
            });
        }
        let n = self.entries.len() as f32;
        Ok((n / (2.0 * zeros as f32), n / (2.0 * ones as f32)))
    }

    /// Splits into `(train, holdout)` with the given holdout fraction,
    /// shuffling entries with `seed`. The feature table is shared (cloned).
    pub fn split(&self, holdout_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let cut = ((self.entries.len() as f64) * holdout_fraction).round() as usize;
        let (hold_idx, train_idx) = order.split_at(cut.min(order.len()));
        let pick = |idxs: &[usize]| Dataset {
            stmts: self.stmts.clone(),
            entries: idxs.iter().map(|&i| self.entries[i].clone()).collect(),
        };
        (pick(train_idx), pick(hold_idx))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Simulates one design and harvests its distinct statement executions.
///
/// Only the records of statements with features are read, so the design
/// runs records-only over exactly those ([`TraceMode::records`]): no
/// signal snapshots, and the same records, in the same order, as a full
/// trace filtered to them.
///
/// Returns the design's feature table and entries with *design-local*
/// statement indices; [`Dataset::from_designs`] offsets them into the global
/// table. Deduplication is per design, which is equivalent to the global
/// dedup of a serial pass because `(stmt_idx, values)` keys never collide
/// across designs (each design owns a disjoint index range).
fn harvest_design(
    module: &Module,
    seed: u64,
    di: usize,
    cycles: usize,
    runs_per_design: usize,
) -> Result<(Vec<StatementFeatures>, Vec<DatasetEntry>), VeriBugError> {
    let features = StatementFeatures::extract_all(module);
    let mut sim = Simulator::new(module)?;
    // Map stmt id -> design-local feature-table index.
    let mut local: std::collections::BTreeMap<verilog::StmtId, usize> =
        std::collections::BTreeMap::new();
    for id in features.keys() {
        local.insert(*id, local.len());
    }
    let recorded: BTreeSet<verilog::StmtId> = features.keys().copied().collect();
    let stmts: Vec<StatementFeatures> = features.into_values().collect();
    let positions: Vec<Vec<Option<usize>>> = stmts
        .iter()
        .map(|f| operand_positions(f, sim.netlist()))
        .collect();
    let mut entries: Vec<DatasetEntry> = Vec::new();
    let mut seen: BTreeSet<(usize, Vec<bool>)> = BTreeSet::new();
    let tb = TestbenchGen::new(seed.wrapping_add(di as u64 * 7919));
    let stimuli = tb.generate_many(sim.netlist(), cycles, runs_per_design);
    // All runs share a cycle count, so the whole harvest packs into
    // 64-wide batches; dedup below stays in stimulus order either way.
    for (trace, _) in sim.run_batch_mode(&stimuli, TraceMode::records(&recorded))? {
        for cyc in &trace.cycles {
            for exec in &cyc.execs {
                let Some(&idx) = local.get(&exec.stmt) else {
                    continue;
                };
                let Some(values) = operand_values(&positions[idx], exec) else {
                    continue;
                };
                if !seen.insert((idx, values.clone())) {
                    continue;
                }
                entries.push(DatasetEntry {
                    stmt_idx: idx,
                    sample: Sample {
                        values,
                        target: exec.result.is_truthy(),
                    },
                });
            }
        }
    }
    Ok((stmts, entries))
}

/// Maps a statement's feature operands to their positions in the
/// simulator's record read order (execution records store operand values
/// positionally, without names). `positions[j]` is the record position of
/// feature operand `j`, or `None` when the elaborated design does not
/// record that operand. Compute once per statement, not per record.
pub fn operand_positions(f: &StatementFeatures, netlist: &sim::Netlist) -> Vec<Option<usize>> {
    let names = netlist.assign_info(f.stmt).map(|i| i.names.as_ref());
    f.operands
        .iter()
        .map(|o| names.and_then(|ns| ns.iter().position(|n| n.as_ref() == o.name)))
        .collect()
}

/// Reads the recorded operand values for a statement's feature operands,
/// using a position map from [`operand_positions`]. Returns `None` when a
/// feature operand was not recorded (should not happen for executions
/// produced by `veribug-sim`).
pub fn operand_values(positions: &[Option<usize>], exec: &sim::StmtExec) -> Option<Vec<bool>> {
    positions
        .iter()
        .map(|p| p.and_then(|i| exec.operand(i)).map(|v| v.is_truthy()))
        .collect()
}

/// Training hyper-parameters. Defaults follow the paper: Adam with
/// `lr = 1e-3`, `wd = 1e-5`, regularization weight `α = 0.10`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// The regularizer weight α.
    pub alpha: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Adam weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            alpha: 0.10,
            learning_rate: 1e-3,
            weight_decay: 1e-5,
            seed: 7,
        }
    }
}

impl TrainConfig {
    /// The configuration the experiment harness uses: enough epochs for the
    /// predictor to reach its Table II operating point (the default is kept
    /// small so unit tests stay fast).
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        }
    }
}

/// One epoch's telemetry row (persisted to `train_log.jsonl` by
/// [`append_train_log`]).
///
/// Everything except `wall_s` is bit-identical at any thread count —
/// gradient norms and attention entropies come from the same fixed-order
/// shard merges as the loss. `wall_s` is observation only and must never
/// enter a reproducibility comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean batch loss.
    pub loss: f32,
    /// Mean merged-gradient L2 norm over the epoch's batches.
    pub grad_norm: f64,
    /// Mean attention entropy (bits) over the epoch's forward passes.
    pub attention_entropy: f64,
    /// Wall-clock seconds the epoch took (not deterministic).
    pub wall_s: f64,
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainReport {
    /// Mean batch loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final ε (skip-weight) value.
    pub final_epsilon: f32,
    /// Full per-epoch telemetry, aligned with `epoch_losses`.
    pub epochs: Vec<EpochStats>,
}

/// Trains a model in place.
///
/// Each minibatch is data-parallel over fixed-size shards (see
/// `train_batch`'s internals): shard gradients are accumulated into
/// per-worker buffers and merged in shard order before the optimizer step.
/// Because no reduction order ever depends on the worker count, the final
/// parameters — and every reported epoch loss — are bit-identical whether
/// training runs on one thread or many.
///
/// # Errors
///
/// Fails on unusable datasets (empty or single-class).
pub fn train(
    model: &mut VeriBugModel,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainReport, VeriBugError> {
    let _span = obs::span("train");
    static SAMPLES: obs::LazyGauge = obs::LazyGauge::new("train.samples");
    SAMPLES.set(dataset.len() as f64);
    let (w0, w1) = dataset.class_weights()?;
    let mut adam = neuro::Adam::new(cfg.learning_rate).with_weight_decay(cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut epochs = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let _epoch_span = obs::span("train.epoch");
        let epoch_start = std::time::Instant::now();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0f32;
        let mut batches = 0usize;
        let mut norm_sum = 0.0f64;
        let mut ent_sum = 0.0f64;
        let mut ent_count = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let stats = train_batch(model, dataset, chunk, w0, w1, cfg.alpha, &mut adam);
            total += stats.loss;
            norm_sum += stats.grad_norm;
            ent_sum += stats.entropy_sum;
            ent_count += stats.entropy_count;
            batches += 1;
        }
        let epoch_loss = total / batches.max(1) as f32;
        obs::instant("train.epoch_loss", f64::from(epoch_loss));
        epoch_losses.push(epoch_loss);
        epochs.push(EpochStats {
            epoch,
            loss: epoch_loss,
            grad_norm: norm_sum / batches.max(1) as f64,
            attention_entropy: ent_sum / ent_count.max(1) as f64,
            wall_s: epoch_start.elapsed().as_secs_f64(),
        });
    }
    static FINAL_LOSS: obs::LazyGauge = obs::LazyGauge::new("train.final_loss");
    if let Some(&last) = epoch_losses.last() {
        FINAL_LOSS.set(f64::from(last));
    }
    Ok(TrainReport {
        epoch_losses,
        final_epsilon: model.epsilon(),
        epochs,
    })
}

/// Samples per data-parallel shard of a minibatch. A fixed constant: shard
/// boundaries (and therefore every f32 reduction order) depend only on the
/// batch itself, never on how many workers happen to run, so training is
/// bit-reproducible at any thread count.
const SHARD: usize = 8;

/// What one [`train_batch`] call observed: the loss plus the telemetry
/// inputs for [`EpochStats`]. Entropy is carried as `(sum, count)` so the
/// epoch mean is a single fixed-order division.
struct BatchStats {
    loss: f32,
    grad_norm: f64,
    entropy_sum: f64,
    entropy_count: usize,
}

/// One optimizer step on a minibatch; returns the batch loss and stats.
///
/// The batch is split into fixed-size shards. Each shard runs its forward
/// and backward pass on its own tape into a private [`GradBuffer`]; buffers,
/// shard losses, and shard attention-entropy sums are then merged in shard
/// order before a single Adam step, so the result is independent of the
/// worker count.
fn train_batch(
    model: &mut VeriBugModel,
    dataset: &Dataset,
    batch: &[usize],
    w0: f32,
    w1: f32,
    alpha: f32,
    adam: &mut neuro::Adam,
) -> BatchStats {
    // The normalizers depend on the whole batch, so compute them before
    // sharding: each shard contributes `Σ w_i·ce_i / weight_sum` and
    // `(α/N) Σ reg_i` directly.
    let weight_sum: f32 = batch
        .iter()
        .map(|&i| {
            if dataset.entries[i].sample.target {
                w1
            } else {
                w0
            }
        })
        .sum();
    let shard_model: &VeriBugModel = model;
    let shards = par::par_chunk_map(batch, SHARD, |_, shard| {
        let mut g = Graph::new();
        let mut ce_terms = Vec::with_capacity(shard.len());
        let mut reg_terms = Vec::with_capacity(shard.len());
        let mut ent_sum = 0.0f64;
        for &i in shard {
            let entry = &dataset.entries[i];
            let f = &dataset.stmts[entry.stmt_idx];
            let fwd = shard_model.forward(&mut g, f, &entry.sample);
            ent_sum += crate::explain::attention_entropy(&fwd.attention);
            let target = usize::from(entry.sample.target);
            let w = if entry.sample.target { w1 } else { w0 };
            let ce = g.cross_entropy_logits(fwd.logits, target);
            ce_terms.push(g.scale(ce, w));
            reg_terms.push(g.recip_frob_norm(fwd.x_star));
        }
        let ce_sum = sum_nodes(&mut g, &ce_terms);
        let ce_part = g.scale(ce_sum, 1.0 / weight_sum);
        let reg_sum = sum_nodes(&mut g, &reg_terms);
        let reg_part = g.scale(reg_sum, alpha / batch.len() as f32);
        let loss = g.add(ce_part, reg_part);
        let loss_value = g.value(loss).item();
        let mut grads = GradBuffer::zeros_like(shard_model.params());
        g.backward_to(loss, &mut grads);
        (loss_value, grads, ent_sum, shard.len())
    });
    let mut total = GradBuffer::zeros_like(model.params());
    let mut loss_value = 0.0f32;
    let mut entropy_sum = 0.0f64;
    let mut entropy_count = 0usize;
    for (shard_loss, grads, ent, n) in &shards {
        loss_value += shard_loss;
        total.merge(grads);
        entropy_sum += ent;
        entropy_count += n;
    }
    // Observation only — reads the merged buffer, never changes the update.
    // The norm feeds `train_log.jsonl`, so compute it unconditionally; the
    // histogram still only records when obs output is on.
    static GRAD_NORM: obs::LazyHistogram = obs::LazyHistogram::new_micros("train.grad_norm");
    static ADAM_US: obs::LazyHistogram = obs::LazyHistogram::new("train.adam_step_us");
    let mut sq = 0.0f64;
    for id in model.params().ids() {
        for &g in total.grad(id).data() {
            sq += f64::from(g) * f64::from(g);
        }
    }
    let grad_norm = sq.sqrt();
    GRAD_NORM.record_f64(grad_norm);
    total.apply_to(model.params_mut());
    let step_start = obs::enabled().then(std::time::Instant::now);
    adam.step(model.params_mut(), 1.0);
    if let Some(t0) = step_start {
        ADAM_US.record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    BatchStats {
        loss: loss_value,
        grad_norm,
        entropy_sum,
        entropy_count,
    }
}

fn sum_nodes(g: &mut Graph, nodes: &[neuro::NodeId]) -> neuro::NodeId {
    let mut acc = nodes[0];
    for &n in &nodes[1..] {
        acc = g.add(acc, n);
    }
    acc
}

/// Evaluation metrics for the execution-semantics predictor (Table II
/// columns).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalMetrics {
    /// Overall accuracy.
    pub accuracy: f32,
    /// Precision for target bit 0.
    pub precision0: f32,
    /// Recall for target bit 0.
    pub recall0: f32,
    /// Precision for target bit 1.
    pub precision1: f32,
    /// Recall for target bit 1.
    pub recall1: f32,
    /// Number of evaluated samples.
    pub count: usize,
}

/// Evaluates a model on a dataset.
///
/// Each statement's operand contexts are embedded once; entries are then
/// scored tape-free in parallel chunks ([`VeriBugModel::predict_with`]).
/// The per-chunk confusion counts are integer sums, so the metrics are
/// identical at any thread count.
pub fn evaluate(model: &VeriBugModel, dataset: &Dataset) -> EvalMetrics {
    let contexts = par::par_map(&dataset.stmts, |f| model.operand_contexts(f));
    // Confusion counts: [actual][predicted].
    let chunks = par::par_chunk_map(&dataset.entries, 64, |_, chunk| {
        let mut m = [[0usize; 2]; 2];
        for entry in chunk {
            let ctx = &contexts[entry.stmt_idx];
            let (pred, _) = model.predict_with(ctx, &entry.sample.values);
            m[usize::from(entry.sample.target)][usize::from(pred)] += 1;
        }
        m
    });
    let mut m = [[0usize; 2]; 2];
    for c in &chunks {
        for (row, crow) in m.iter_mut().zip(c) {
            for (cell, v) in row.iter_mut().zip(crow) {
                *cell += v;
            }
        }
    }
    let total = dataset.len().max(1);
    let div = |a: usize, b: usize| {
        if b == 0 {
            0.0
        } else {
            a as f32 / b as f32
        }
    };
    EvalMetrics {
        accuracy: (m[0][0] + m[1][1]) as f32 / total as f32,
        precision0: div(m[0][0], m[0][0] + m[1][0]),
        recall0: div(m[0][0], m[0][0] + m[0][1]),
        precision1: div(m[1][1], m[1][1] + m[0][1]),
        recall1: div(m[1][1], m[1][1] + m[1][0]),
        count: dataset.len(),
    }
}

/// Appends one JSON line per epoch of `report` to the training log at
/// `path` (created if absent, never truncated), in the obs JSON-lines
/// event idiom: each line is a self-contained object with a `"type"` tag.
///
/// ```json
/// {"type":"train_epoch","epoch":0,"loss":0.61,"grad_norm":2.3,
///  "attention_entropy":1.9,"wall_s":0.41,"threads":8,
///  "weights_hash":"8f3a…","alpha":0.1,"seed":7}
/// ```
///
/// `weights_hash` is the content hash of the *final* trained weights
/// ([`crate::persist::content_hash_hex`]), so an accuracy regression seen
/// against a saved model can be traced back to the run — and the epochs —
/// that produced it.
///
/// # Errors
///
/// Propagates I/O failures opening or appending to `path`.
pub fn append_train_log(
    path: &std::path::Path,
    report: &TrainReport,
    cfg: &TrainConfig,
    model: &VeriBugModel,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    use std::io::Write as _;
    let hash = crate::persist::content_hash_hex(model);
    let threads = par::max_threads();
    let mut out = String::with_capacity(report.epochs.len() * 160);
    for e in &report.epochs {
        let _ = write!(out, "{{\"type\":\"train_epoch\",\"epoch\":{},", e.epoch);
        out.push_str("\"loss\":");
        obs::json::write_f64(&mut out, f64::from(e.loss));
        out.push_str(",\"grad_norm\":");
        obs::json::write_f64(&mut out, e.grad_norm);
        out.push_str(",\"attention_entropy\":");
        obs::json::write_f64(&mut out, e.attention_entropy);
        out.push_str(",\"wall_s\":");
        obs::json::write_f64(&mut out, e.wall_s);
        let _ = write!(out, ",\"threads\":{threads},\"weights_hash\":");
        obs::json::write_str(&mut out, &hash);
        out.push_str(",\"alpha\":");
        obs::json::write_f64(&mut out, f64::from(cfg.alpha));
        let _ = writeln!(out, ",\"seed\":{}}}", cfg.seed);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use rvdg::{Generator, RvdgConfig};

    fn small_corpus(n: usize) -> Vec<Module> {
        Generator::new(RvdgConfig::default(), 5)
            .generate_corpus(n)
            .unwrap()
            .into_iter()
            .map(|d| d.module)
            .collect()
    }

    #[test]
    fn dataset_builds_and_is_two_class() {
        let ds = Dataset::from_designs(&small_corpus(3), 1, 24, 2).unwrap();
        assert!(ds.len() > 20, "dataset too small: {}", ds.len());
        let (w0, w1) = ds.class_weights().unwrap();
        assert!(w0 > 0.0 && w1 > 0.0);
    }

    #[test]
    fn dataset_entries_are_unique() {
        let ds = Dataset::from_designs(&small_corpus(2), 2, 24, 2).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for e in &ds.entries {
            assert!(
                seen.insert((e.stmt_idx, e.sample.values.clone())),
                "duplicate entry"
            );
        }
    }

    #[test]
    fn split_partitions_entries() {
        let ds = Dataset::from_designs(&small_corpus(2), 3, 24, 2).unwrap();
        let (train, hold) = ds.split(0.25, 9);
        assert_eq!(train.len() + hold.len(), ds.len());
        assert!(!hold.is_empty());
        assert!(train.len() > hold.len());
    }

    #[test]
    fn training_reduces_loss_and_learns_something() {
        let ds = Dataset::from_designs(&small_corpus(4), 4, 32, 2).unwrap();
        let (train_ds, hold) = ds.split(0.2, 1);
        let mut model = VeriBugModel::new(ModelConfig::default());
        let before = evaluate(&model, &hold);
        let report = train(
            &mut model,
            &train_ds,
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let after = evaluate(&model, &hold);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
        assert!(
            after.accuracy > before.accuracy.max(0.6),
            "accuracy before {} after {}",
            before.accuracy,
            after.accuracy
        );
    }

    #[test]
    fn dataset_is_thread_count_invariant() {
        let corpus = small_corpus(3);
        let single = par::with_threads(1, || Dataset::from_designs(&corpus, 1, 24, 2).unwrap());
        for threads in [2usize, 8] {
            let multi = par::with_threads(threads, || {
                Dataset::from_designs(&corpus, 1, 24, 2).unwrap()
            });
            assert_eq!(single, multi, "{threads} threads");
        }
    }

    /// The records-only harvest yields exactly the entries a harvest of
    /// full [`Simulator::run_batch`] traces does: the same records, first
    /// seen in the same order, deduplicated alike.
    #[test]
    fn records_only_harvest_matches_full_trace_harvest() {
        let corpus = small_corpus(3);
        let (seed, cycles, runs) = (1u64, 24, 2);
        let ds = Dataset::from_designs(&corpus, seed, cycles, runs).unwrap();
        let mut full = Vec::new();
        let mut base = 0;
        for (di, module) in corpus.iter().enumerate() {
            let stmts: Vec<StatementFeatures> = StatementFeatures::extract_all(module)
                .into_values()
                .collect();
            let mut sim = Simulator::new(module).unwrap();
            let stimuli = TestbenchGen::new(seed + di as u64 * 7919).generate_many(
                sim.netlist(),
                cycles,
                runs,
            );
            let mut seen = BTreeSet::new();
            for trace in sim.run_batch(&stimuli).unwrap() {
                for exec in trace.cycles.iter().flat_map(|c| c.execs.iter()) {
                    let Some(idx) = stmts.iter().position(|f| f.stmt == exec.stmt) else {
                        continue;
                    };
                    let positions = operand_positions(&stmts[idx], sim.netlist());
                    let Some(values) = operand_values(&positions, exec) else {
                        continue;
                    };
                    if seen.insert((idx, values.clone())) {
                        full.push(DatasetEntry {
                            stmt_idx: base + idx,
                            sample: Sample {
                                values,
                                target: exec.result.is_truthy(),
                            },
                        });
                    }
                }
            }
            base += stmts.len();
        }
        assert!(!full.is_empty());
        assert_eq!(ds.entries, full);
    }

    #[test]
    fn training_is_thread_count_invariant() {
        let ds = Dataset::from_designs(&small_corpus(2), 5, 24, 2).unwrap();
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut model = VeriBugModel::new(ModelConfig::default());
                let report = train(&mut model, &ds, &cfg).unwrap();
                (report, evaluate(&model, &ds))
            })
        };
        let (report1, eval1) = run(1);
        for threads in [2usize, 8] {
            let (report_n, eval_n) = run(threads);
            // Exact f32 equality: sharded reductions are merged in a fixed
            // order, so thread count must not perturb a single bit.
            assert_eq!(
                report1.epoch_losses, report_n.epoch_losses,
                "{threads} threads"
            );
            assert_eq!(
                report1.final_epsilon, report_n.final_epsilon,
                "{threads} threads"
            );
            assert_eq!(eval1, eval_n, "{threads} threads");
        }
    }

    #[test]
    fn epoch_stats_are_populated_and_deterministic() {
        let ds = Dataset::from_designs(&small_corpus(2), 6, 16, 1).unwrap();
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let strip = |r: &TrainReport| -> Vec<(u32, u64, u64)> {
            r.epochs
                .iter()
                .map(|e| {
                    (
                        e.loss.to_bits(),
                        e.grad_norm.to_bits(),
                        e.attention_entropy.to_bits(),
                    )
                })
                .collect()
        };
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut model = VeriBugModel::new(ModelConfig::default());
                train(&mut model, &ds, &cfg).unwrap()
            })
        };
        let r1 = run(1);
        assert_eq!(r1.epochs.len(), cfg.epochs);
        for (i, e) in r1.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!(e.loss, r1.epoch_losses[i]);
            assert!(e.grad_norm > 0.0, "{e:?}");
            assert!(e.attention_entropy >= 0.0, "{e:?}");
        }
        for threads in [2usize, 8] {
            assert_eq!(strip(&r1), strip(&run(threads)), "{threads} threads");
        }
    }

    #[test]
    fn train_log_is_append_only_jsonl() {
        let ds = Dataset::from_designs(&small_corpus(2), 6, 16, 1).unwrap();
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut model = VeriBugModel::new(ModelConfig::default());
        let report = train(&mut model, &ds, &cfg).unwrap();
        let path =
            std::env::temp_dir().join(format!("veribug_train_log_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_train_log(&path, &report, &cfg, &model).unwrap();
        append_train_log(&path, &report, &cfg, &model).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "two appends of two epochs each");
        let hash = crate::persist::content_hash_hex(&model);
        for line in lines {
            let v = obs::json::parse(line).expect("line parses");
            assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("train_epoch"));
            assert_eq!(
                v.get("weights_hash").and_then(|h| h.as_str()),
                Some(hash.as_str())
            );
            for field in [
                "epoch",
                "loss",
                "grad_norm",
                "attention_entropy",
                "wall_s",
                "threads",
                "alpha",
                "seed",
            ] {
                assert!(v.get(field).and_then(|x| x.as_num()).is_some(), "{field}");
            }
        }
    }

    #[test]
    fn single_class_dataset_is_rejected() {
        let ds = Dataset {
            stmts: vec![],
            entries: vec![DatasetEntry {
                stmt_idx: 0,
                sample: Sample {
                    values: vec![true],
                    target: true,
                },
            }],
        };
        assert!(ds.class_weights().is_err());
    }
}
