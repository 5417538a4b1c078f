//! Rolling time-window aggregation of per-endpoint request statistics.
//!
//! `/metricsz` answers "what has this process done since boot"; the
//! rolling window answers "what is it doing *right now*" — the question
//! `/statusz` asks. The window is 60 one-second buckets keyed by absolute
//! second since the process epoch: recording into a bucket whose stored
//! second is stale resets it first, so idle periods age out without a
//! background sweeper thread and a snapshot only merges buckets that are
//! genuinely recent.
//!
//! Per bucket and endpoint we keep a request count, status-class counts,
//! a power-of-two latency histogram (the same `HistData` the batch
//! metrics use, so percentile semantics match `/metricsz`), per-stage
//! span-time sums, and cache hit/miss attribution. Endpoint labels are
//! normalized by the caller (the serve router passes known routes
//! verbatim and folds everything else into `"other"`), and each bucket
//! additionally caps distinct endpoints, so cardinality is bounded even
//! against adversarial paths.

use std::sync::Mutex;

use crate::metrics::{HistData, HistSummary};
use crate::state::{self, Name};

/// Window length in one-second buckets.
pub const WINDOW_SECONDS: u64 = 60;
/// Distinct endpoint labels per bucket; overflow folds into `"other"`.
const MAX_ENDPOINTS: usize = 16;
/// Distinct stage names per endpoint bucket; overflow is dropped (stage
/// names come from our own span names, so this is a safety bound, not a
/// working limit).
const MAX_STAGES: usize = 32;

#[derive(Debug, Default)]
struct EndpointBucket {
    path: String,
    count: u64,
    s2xx: u64,
    s4xx: u64,
    s5xx: u64,
    latency: HistData,
    /// Total span time by stage name, microseconds.
    stages: Vec<(Name, u64)>,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Debug, Default)]
struct Bucket {
    /// Absolute second (since process epoch) this bucket holds; a write
    /// for a different second resets it.
    second: u64,
    endpoints: Vec<EndpointBucket>,
}

static WINDOW: Mutex<Vec<Bucket>> = Mutex::new(Vec::new());

/// Records one completed request into the current one-second bucket.
/// `stages` is the per-stage span-time breakdown (summed µs by span name).
pub(crate) fn record(
    path: &str,
    status: u16,
    dur_us: u64,
    stages: &[(Name, u64)],
    cache_hits: u64,
    cache_misses: u64,
) {
    let now_s = state::now_us() / 1_000_000;
    let idx = (now_s % WINDOW_SECONDS) as usize;
    let mut w = WINDOW.lock().expect("obs rolling lock");
    if w.is_empty() {
        w.resize_with(WINDOW_SECONDS as usize, Bucket::default);
    }
    let bucket = &mut w[idx];
    if bucket.second != now_s {
        bucket.second = now_s;
        bucket.endpoints.clear();
    }
    let ep = match bucket.endpoints.iter_mut().position(|e| e.path == path) {
        Some(i) => &mut bucket.endpoints[i],
        None => {
            if bucket.endpoints.len() >= MAX_ENDPOINTS {
                // Fold into the overflow label, appending it if needed
                // (so a bucket holds at most MAX_ENDPOINTS + 1 entries
                // and no prior endpoint's data is displaced).
                match bucket.endpoints.iter().position(|e| e.path == "other") {
                    Some(i) => &mut bucket.endpoints[i],
                    None => {
                        bucket.endpoints.push(EndpointBucket {
                            path: "other".to_owned(),
                            ..EndpointBucket::default()
                        });
                        bucket.endpoints.last_mut().expect("just pushed")
                    }
                }
            } else {
                bucket.endpoints.push(EndpointBucket {
                    path: path.to_owned(),
                    ..EndpointBucket::default()
                });
                bucket.endpoints.last_mut().expect("just pushed")
            }
        }
    };
    ep.count += 1;
    match status {
        200..=299 => ep.s2xx += 1,
        500..=599 => ep.s5xx += 1,
        _ => ep.s4xx += 1,
    }
    ep.latency.record(dur_us);
    ep.cache_hits += cache_hits;
    ep.cache_misses += cache_misses;
    for (name, us) in stages {
        match ep.stages.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 += us,
            None => {
                if ep.stages.len() < MAX_STAGES {
                    ep.stages.push((name.clone(), *us));
                }
            }
        }
    }
}

/// Rolling statistics for one endpoint over the snapshot window.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Endpoint label (a route path, or `"other"`).
    pub path: String,
    /// Requests completed in the window.
    pub count: u64,
    /// 2xx responses.
    pub s2xx: u64,
    /// 4xx responses (and anything not 2xx/5xx).
    pub s4xx: u64,
    /// 5xx responses.
    pub s5xx: u64,
    /// Requests per second over the window.
    pub rps: f64,
    /// End-to-end latency in **seconds** (the histogram records µs;
    /// percentiles are power-of-two bucket upper bounds).
    pub latency: HistSummary,
    /// Total span time by stage name, microseconds, descending.
    pub stages: Vec<(String, u64)>,
    /// Design-cache hits attributed to this endpoint's requests.
    pub cache_hits: u64,
    /// Design-cache misses attributed to this endpoint's requests.
    pub cache_misses: u64,
}

/// A merged view over the most recent `window_s` seconds.
#[derive(Debug, Clone, Default)]
pub struct RollingSnapshot {
    /// Seconds of history merged (≤ [`WINDOW_SECONDS`]).
    pub window_s: u64,
    /// Per-endpoint statistics, busiest first.
    pub endpoints: Vec<EndpointStats>,
}

/// Merges the buckets of the last `window_s` seconds (clamped to the
/// window length) into per-endpoint statistics.
pub fn snapshot(window_s: u64) -> RollingSnapshot {
    let window_s = window_s.clamp(1, WINDOW_SECONDS);
    let now_s = state::now_us() / 1_000_000;
    let oldest = now_s.saturating_sub(window_s - 1);
    let w = WINDOW.lock().expect("obs rolling lock");
    let mut merged: Vec<(HistData, EndpointStats)> = Vec::new();
    for bucket in w.iter() {
        if bucket.second < oldest || bucket.second > now_s {
            continue;
        }
        for ep in &bucket.endpoints {
            let slot = match merged.iter_mut().position(|(_, m)| m.path == ep.path) {
                Some(i) => &mut merged[i],
                None => {
                    merged.push((
                        HistData::default(),
                        EndpointStats {
                            path: ep.path.clone(),
                            count: 0,
                            s2xx: 0,
                            s4xx: 0,
                            s5xx: 0,
                            rps: 0.0,
                            latency: HistSummary::default(),
                            stages: Vec::new(),
                            cache_hits: 0,
                            cache_misses: 0,
                        },
                    ));
                    merged.last_mut().expect("just pushed")
                }
            };
            slot.0.merge(&ep.latency);
            slot.1.count += ep.count;
            slot.1.s2xx += ep.s2xx;
            slot.1.s4xx += ep.s4xx;
            slot.1.s5xx += ep.s5xx;
            slot.1.cache_hits += ep.cache_hits;
            slot.1.cache_misses += ep.cache_misses;
            for (name, us) in &ep.stages {
                match slot.1.stages.iter_mut().find(|(n, _)| n == &**name) {
                    Some(s) => s.1 += us,
                    None => slot.1.stages.push((name.to_string(), *us)),
                }
            }
        }
    }
    let mut endpoints: Vec<EndpointStats> = merged
        .into_iter()
        .map(|(hist, mut stats)| {
            stats.latency = hist.summary(true); // µs samples → seconds out
            stats.rps = stats.count as f64 / window_s as f64;
            stats
                .stages
                .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            stats
        })
        .collect();
    endpoints.sort_by(|a, b| b.count.cmp(&a.count).then(a.path.cmp(&b.path)));
    RollingSnapshot {
        window_s,
        endpoints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    /// The window is process-global and the flood test fills the current
    /// second's bucket to the cardinality cap, so these tests serialize
    /// and each starts on a fresh one-second bucket.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn fresh_second() {
        let in_second = state::now_us() % 1_000_000;
        std::thread::sleep(std::time::Duration::from_micros(
            1_000_000 - in_second + 2_000,
        ));
    }

    #[test]
    fn records_aggregate_per_endpoint() {
        let _serial = TEST_LOCK.lock().unwrap();
        crate::enable();
        fresh_second();
        let stages = [(Cow::Borrowed("rolling.stage"), 500u64)];
        record("/rolling/test-a", 200, 1_000, &stages, 1, 0);
        record("/rolling/test-a", 200, 3_000, &stages, 0, 1);
        record("/rolling/test-a", 504, 9_000, &[], 0, 0);
        record("/rolling/test-b", 200, 2_000, &[], 0, 0);
        let snap = snapshot(2);
        let a = snap
            .endpoints
            .iter()
            .find(|e| e.path == "/rolling/test-a")
            .expect("endpoint a present");
        assert_eq!(a.count, 3);
        assert_eq!(a.s2xx, 2);
        assert_eq!(a.s5xx, 1);
        assert_eq!(a.cache_hits, 1);
        assert_eq!(a.cache_misses, 1);
        assert_eq!(a.latency.count, 3);
        assert!(a.latency.max >= 0.009, "9ms max in seconds");
        let stage = a
            .stages
            .iter()
            .find(|(n, _)| n == "rolling.stage")
            .expect("stage breakdown");
        assert_eq!(stage.1, 1_000, "stage time sums across requests");
        assert!(snap.endpoints.iter().any(|e| e.path == "/rolling/test-b"));
    }

    #[test]
    fn endpoint_cardinality_is_bounded() {
        let _serial = TEST_LOCK.lock().unwrap();
        crate::enable();
        fresh_second();
        for i in 0..3 * MAX_ENDPOINTS {
            record(&format!("/rolling/flood-{i}"), 200, 100, &[], 0, 0);
        }
        // The flood may straddle a one-second bucket boundary, so allow
        // two buckets' worth (plus endpoints from concurrently running
        // tests — obs state is process-global).
        let snap = snapshot(2);
        assert!(
            snap.endpoints.len() <= 2 * MAX_ENDPOINTS + 8,
            "bounded endpoints, saw {}",
            snap.endpoints.len()
        );
        let total: u64 = snap
            .endpoints
            .iter()
            .filter(|e| e.path.starts_with("/rolling/flood-") || e.path == "other")
            .map(|e| e.count)
            .sum();
        assert!(
            total >= 3 * MAX_ENDPOINTS as u64,
            "overflow folds into 'other', not dropped (saw {total})"
        );
    }

    #[test]
    fn snapshot_clamps_window() {
        let snap = snapshot(10_000);
        assert_eq!(snap.window_s, WINDOW_SECONDS);
        let snap = snapshot(0);
        assert_eq!(snap.window_s, 1);
    }
}
