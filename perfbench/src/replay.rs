//! The replay pass: the served requests again, in process, one layer at a
//! time through each layer's public functions, timed from outside. The
//! decomposition mirrors `veribug::localize::run_with_sims` step for step,
//! so the body it renders must equal the served one byte for byte.

use std::error::Error;
use std::time::Instant;

use mutate::{golden_verdicts, run_lane_groups, screen_with};
use serve::cache::fnv1a;
use serve::{api, DesignCache};
use sim::{Simulator, TestbenchGen};
use store::{ArtifactKind, Store};
use veribug::coverage::grouped_heatmap;
use veribug::explain::LabelledTrace;
use veribug::model::VeriBugModel;
use veribug::{AttentionMap, Explainer, Heatmap, LocalizeReport, Suspect};

use crate::inputs::Request;

/// Per-request layer times in milliseconds (both designs summed where a
/// layer runs once per design), plus run counts.
#[derive(Default)]
pub struct LayerTimes {
    /// `api::parse_localize`.
    pub parse: Vec<f64>,
    /// Both `DesignCache::get` calls, in the cache state the server had.
    pub get: Vec<f64>,
    /// Both lookups when both hit.
    pub get_hit: Vec<f64>,
    /// Both lookups when both missed.
    pub get_miss: Vec<f64>,
    /// `verilog::parse` of both sources.
    pub verilog_parse: Vec<f64>,
    /// `Simulator::new` of both designs.
    pub sim_build: Vec<f64>,
    /// `Store::put` of both sources into a scratch store.
    pub store_put: Vec<f64>,
    /// `TestbenchGen::generate_many`.
    pub stimgen: Vec<f64>,
    /// `golden_verdicts` + `screen_with`.
    pub verdict: Vec<f64>,
    /// `run_lane_groups` over the buggy design; 0 when no run failed.
    pub full_trace: Vec<f64>,
    /// `Explainer` + `grouped_heatmap` + the correct-trace map; 0 when no
    /// run failed.
    pub explain: Vec<f64>,
    /// `api::render_report`.
    pub render: Vec<f64>,
    /// Runs the verdict pass labelled failing, over all replayed requests.
    pub failing_runs: usize,
    /// Runs the verdict pass simulated, over all replayed requests.
    pub total_runs: usize,
}

/// What the replay reads besides the request.
pub struct Replayer<'a> {
    /// The model the server loaded.
    pub model: &'a VeriBugModel,
    /// A design cache in the state the server's was in.
    pub cache: &'a DesignCache,
    /// Where `store.put_ms` writes.
    pub scratch: &'a Store,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn err(e: impl std::fmt::Display) -> Box<dyn Error> {
    e.to_string().into()
}

impl Replayer<'_> {
    /// Replays one request, recording each layer's time into `times`, and
    /// returns the rendered 200 body.
    ///
    /// # Errors
    ///
    /// Any layer failing; a request the server answered 200 must not.
    pub fn replay(&self, req: &Request, times: &mut LayerTimes) -> Result<String, Box<dyn Error>> {
        let t = Instant::now();
        let parsed = api::parse_localize(req.body.as_bytes()).map_err(|e| err(e.message))?;
        times.parse.push(ms_since(t));

        let t = Instant::now();
        let golden = self.cache.get(&parsed.golden).map_err(err)?;
        let buggy = self.cache.get(&parsed.buggy).map_err(err)?;
        let get_ms = ms_since(t);
        times.get.push(get_ms);
        // The opposite cache state, so hits and misses are both measured on
        // every workload: a cold cache after two hits, a repeat lookup
        // after two misses.
        if golden.hit && buggy.hit {
            times.get_hit.push(get_ms);
            let cold = DesignCache::new(2);
            let t = Instant::now();
            cold.get(&parsed.golden).map_err(err)?;
            cold.get(&parsed.buggy).map_err(err)?;
            times.get_miss.push(ms_since(t));
        } else {
            if !golden.hit && !buggy.hit {
                times.get_miss.push(get_ms);
            }
            let t = Instant::now();
            self.cache.get(&parsed.golden).map_err(err)?;
            self.cache.get(&parsed.buggy).map_err(err)?;
            times.get_hit.push(ms_since(t));
        }

        // What a miss is made of, timed on its own.
        let t = Instant::now();
        let g_mod = verilog::parse(&parsed.golden).map_err(err)?.top().clone();
        let b_mod = verilog::parse(&parsed.buggy).map_err(err)?.top().clone();
        times.verilog_parse.push(ms_since(t));
        let t = Instant::now();
        Simulator::new(&g_mod).map_err(err)?;
        Simulator::new(&b_mod).map_err(err)?;
        times.sim_build.push(ms_since(t));
        let t = Instant::now();
        for src in [&parsed.golden, &parsed.buggy] {
            self.scratch
                .put(ArtifactKind::Design, fnv1a(src.as_bytes()), src.as_bytes())?;
        }
        times.store_put.push(ms_since(t));

        let report = self.localize(golden.sim, buggy.sim, &parsed, times)?;

        let t = Instant::now();
        let body = api::render_report(&report);
        times.render.push(ms_since(t));
        Ok(body)
    }

    /// `localize_inner`, one timed layer at a time.
    fn localize(
        &self,
        mut golden_sim: Simulator,
        mut buggy_sim: Simulator,
        req: &api::LocalizeRequest,
        times: &mut LayerTimes,
    ) -> Result<LocalizeReport, Box<dyn Error>> {
        let opts = &req.opts;
        let target_id = golden_sim
            .netlist()
            .signal_id(&req.target)
            .ok_or("replayed target is not a signal of the golden design")?;

        let t = Instant::now();
        let stimuli = TestbenchGen::new(opts.stim_seed)
            .with_hold_probability(opts.hold_probability)
            .generate_many(golden_sim.netlist(), opts.cycles, opts.runs);
        times.stimgen.push(ms_since(t));

        let t = Instant::now();
        let golden_vs = golden_verdicts(&mut golden_sim, &stimuli, target_id)?;
        let verdicts = screen_with(&mut buggy_sim, &golden_vs, target_id, &stimuli)?;
        times.verdict.push(ms_since(t));
        let failing = verdicts.iter().filter(|v| v.diverged()).count();
        times.failing_runs += failing;
        times.total_runs += verdicts.len();

        let mut report = LocalizeReport {
            module: buggy_sim.netlist().module.name.clone(),
            target: req.target.clone(),
            total_runs: verdicts.len(),
            failing_runs: failing,
            threshold: opts.threshold,
            engine: buggy_sim.batch_engine_kind(),
            suspects: Vec::new(),
            heatmap: Heatmap {
                entries: Default::default(),
                threshold: opts.threshold,
            },
            correct_map: AttentionMap::default(),
        };
        if failing == 0 {
            // Nothing to explain: the served request skipped both layers too.
            times.full_trace.push(0.0);
            times.explain.push(0.0);
            return Ok(report);
        }

        let t = Instant::now();
        let traces = run_lane_groups(&mut buggy_sim, &stimuli)?;
        times.full_trace.push(ms_since(t));

        let t = Instant::now();
        let buggy = &buggy_sim.netlist().module;
        let runs: Vec<LabelledTrace<'_>> = traces
            .iter()
            .zip(&verdicts)
            .map(|(trace, v)| LabelledTrace {
                trace,
                label: v.label(),
                failure_cycles: if v.diverged() {
                    v.divergence_cycles.clone()
                } else {
                    Vec::new()
                },
            })
            .collect();
        let mut explainer = Explainer::new(self.model, buggy, &req.target);
        report.heatmap = grouped_heatmap(&mut explainer, &runs, opts.threshold, opts.run_groups);
        report.correct_map = explainer.explain(&runs, opts.threshold).2;
        report.suspects = report
            .heatmap
            .ranked()
            .into_iter()
            .map(|(stmt, suspiciousness)| Suspect {
                stmt,
                suspiciousness,
                source: buggy
                    .assignment(stmt)
                    .map(|a| format!("{} = {}", a.lhs.base, verilog::print_expr(&a.rhs)))
                    .unwrap_or_else(|| "<unknown>".to_owned()),
            })
            .collect();
        times.explain.push(ms_since(t));
        Ok(report)
    }
}
