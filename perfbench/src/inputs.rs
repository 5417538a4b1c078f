//! The `/v1/localize` requests each serve workload sends, built before
//! timing. The server only ever sees these bytes.

use std::error::Error;
use std::fmt::Write as _;

use mutate::{Mutant, MutationKind};
use rvdg::{Generator, RvdgConfig};
use veribug::LocalizeOptions;
use verilog::PortDir;

use crate::prep::Case;

/// One request: its body plus what the benchmark needs to check and
/// replay it.
pub struct Request {
    /// The JSON body posted to `/v1/localize`.
    pub body: String,
    /// Golden source, as posted.
    pub golden: String,
    /// Buggy source, as posted.
    pub buggy: String,
    /// Target output.
    pub target: String,
    /// The options the server will parse out of `body`.
    pub opts: LocalizeOptions,
    /// The injected statement's id, as the response body spells it.
    pub site: String,
}

/// Attention threshold every request carries.
const THRESHOLD: f32 = 0.01;

impl Request {
    fn new(
        golden: String,
        buggy: String,
        target: String,
        runs: usize,
        cycles: usize,
        site: String,
    ) -> Request {
        let mut body = String::from("{\"golden\":");
        obs::json::write_str(&mut body, &golden);
        body.push_str(",\"buggy\":");
        obs::json::write_str(&mut body, &buggy);
        body.push_str(",\"target\":");
        obs::json::write_str(&mut body, &target);
        let _ = write!(
            body,
            ",\"options\":{{\"runs\":{runs},\"cycles\":{cycles},\"threshold\":{THRESHOLD}}}}}"
        );
        Request {
            body,
            golden,
            buggy,
            target,
            opts: LocalizeOptions {
                runs,
                cycles,
                threshold: THRESHOLD,
                ..LocalizeOptions::default()
            },
            site,
        }
    }
}

/// `localize_hot`: one request per observable campaign mutant, at the CLI
/// default of 160 runs × 16 cycles. The golden side is the catalog source
/// exactly as embedded.
pub fn hot(cases: &[Case], mutants: &[(usize, Mutant)]) -> Vec<Request> {
    let defaults = LocalizeOptions::default();
    mutants
        .iter()
        .filter(|(_, m)| m.observable)
        .map(|(ci, m)| {
            let case = &cases[*ci];
            Request::new(
                case.source.to_owned(),
                m.source.clone(),
                case.target.to_owned(),
                defaults.runs,
                defaults.cycles,
                m.site.stmt.to_string(),
            )
        })
        .collect()
}

/// Runs and cycles of a `localize_fresh` request: small, so building the
/// designs and not simulating them is the request's cost.
const FRESH_RUNS: usize = 16;
/// See [`FRESH_RUNS`].
const FRESH_CYCLES: usize = 8;

/// SplitMix64 step: a seeded, std-only source of site choices.
pub fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `localize_fresh`: `count` golden/buggy pairs, each a fresh RVDG design
/// from `seed` plus one mutation of a statement in its first output's
/// slice. Every pair's sources are distinct, so no two requests share a
/// cache key.
///
/// # Errors
///
/// Generator failures.
pub fn fresh(seed: u64, first: u64, count: usize) -> Result<Vec<Request>, Box<dyn Error>> {
    let generator = Generator::new(RvdgConfig::default(), seed);
    let mut out = Vec::with_capacity(count);
    let mut index = first;
    while out.len() < count {
        let design = generator.generate(index)?;
        index += 1;
        let Some(target) = design
            .module
            .ports
            .iter()
            .find(|p| p.dir == PortDir::Output)
            .map(|p| p.name.clone())
        else {
            continue;
        };
        let slice = cdfg::Slice::of_target(&design.module, &target).stmts;
        // Variable misuse can close a combinational loop, which the server
        // rightly refuses with a 422; the other two classes never add a
        // dependency, so every pair localizes.
        let sites: Vec<_> = mutate::enumerate_sites(&design.module, Some(&slice))
            .into_iter()
            .filter(|s| s.kind != MutationKind::VariableMisuse)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let pick = splitmix(seed ^ index.rotate_left(32)) as usize;
        let unmutated = verilog::print_module(&design.module);
        let mutated = (0..sites.len()).find_map(|k| {
            let site = &sites[(pick + k) % sites.len()];
            let source = verilog::print_module(&mutate::apply(&design.module, site)?);
            (source != unmutated).then_some((site.stmt, source))
        });
        let Some((stmt, buggy)) = mutated else {
            continue;
        };
        out.push(Request::new(
            design.source,
            buggy,
            target,
            FRESH_RUNS,
            FRESH_CYCLES,
            stmt.to_string(),
        ));
    }
    Ok(out)
}

/// True when `site` ranks among the first five suspects of a 200 body.
pub fn in_top5(body: &str, site: &str) -> bool {
    let Ok(doc) = obs::json::parse(body) else {
        return false;
    };
    doc.get("suspects")
        .and_then(obs::json::Json::as_arr)
        .is_some_and(|suspects| {
            suspects
                .iter()
                .take(5)
                .any(|s| s.get("stmt").and_then(obs::json::Json::as_str) == Some(site))
        })
}
