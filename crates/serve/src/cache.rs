//! A content-addressed LRU cache of parsed, elaborated, compiled designs.
//!
//! Keys are the FNV-1a hash of the Verilog source text, so two requests
//! carrying the same bytes share one parse → levelize → compile. An entry
//! holds one template [`sim::Simulator`] — the design's only copy, its
//! module reachable as `sim.netlist().module` — and a hit costs one
//! [`sim::Simulator::fork`]: the netlist and the compiled bytecode are
//! behind `Arc`s, so a fork bumps two refcounts and allocates only fresh
//! evaluation state. Eviction is least-recently-used under a single mutex;
//! builds happen *outside* the lock so a slow compile never blocks hits on
//! other designs.
//!
//! Failures (parse or elaboration errors) are not cached: they are cheap
//! to reproduce and the offending source is unlikely to repeat.
//!
//! Each entry also memoizes up to [`GOLDEN_REFS_PER_DESIGN`] golden
//! references ([`veribug::GoldenRef`]: stimuli plus golden target values,
//! keyed by [`veribug::GoldenKey`]) for the design used as a golden, so a
//! repeated localization neither regenerates stimuli nor re-simulates the
//! golden design ([`DesignCache::golden_ref`]). For the design used as the
//! buggy one it memoizes, beside them, up to as many explainer states
//! ([`veribug::ExplainerState`]: slot tables plus attention memo, keyed by
//! target and weights), so a repeated localization neither rebuilds the
//! explainer nor re-evaluates the model on operand values it has seen
//! ([`DesignCache::explainer`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use sim::Simulator;
use store::{ArtifactKind, Store};
use veribug::{ExplainerState, GoldenKey, GoldenRef};

/// The cache key function, re-exported from the workspace's single
/// FNV-1a implementation ([`store::hash`]).
pub use store::hash::fnv1a;

static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("serve.cache.hits");
static CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("serve.cache.misses");
static CACHE_EVICTIONS: obs::LazyCounter = obs::LazyCounter::new("serve.cache.evictions");
static GOLDEN_HITS: obs::LazyCounter = obs::LazyCounter::new("serve.golden_ref.hits");
static GOLDEN_MISSES: obs::LazyCounter = obs::LazyCounter::new("serve.golden_ref.misses");
static EXPLAINER_HITS: obs::LazyCounter = obs::LazyCounter::new("serve.explainer.hits");
static EXPLAINER_MISSES: obs::LazyCounter = obs::LazyCounter::new("serve.explainer.misses");

/// Golden references, and explainer states, memoized per cached design;
/// the least recently used one is dropped to make room.
pub const GOLDEN_REFS_PER_DESIGN: usize = 4;

/// The largest attention memo, in `f32`s ([`ExplainerState::arena_len`]),
/// an explainer state may hold and still be memoized: 256 KiB. A memo
/// grows with every operand-value combination it sees, so without a cap a
/// client varying `stim_seed` on a wide statement could grow one without
/// limit. A state past the cap still answers its own request; it is just
/// not put back.
pub const EXPLAINER_ARENA_CAP: usize = 1 << 16;

/// Why a design could not enter the cache.
#[derive(Debug)]
pub enum BuildError {
    /// The source failed to parse (carries line/column via
    /// [`verilog::ParseError::span`]).
    Parse(verilog::ParseError),
    /// The design parsed but elaboration/compilation failed.
    Elab(sim::SimError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Elab(e) => write!(f, "{e}"),
        }
    }
}

/// What a cache lookup hands back.
#[derive(Debug)]
pub struct CachedDesign {
    /// A private simulator forked off the cached template: shares the
    /// netlist (and through it the parsed module) and the compiled
    /// bytecode, owns its evaluation state.
    pub sim: Simulator,
    /// True when the compiled design was already cached.
    pub hit: bool,
}

struct Entry {
    template: Simulator,
    last_used: u64,
    /// Memoized golden references, least recently used first.
    golden_refs: Vec<(GoldenKey, Arc<GoldenRef>)>,
    /// Memoized explainer states by (target, weights hash), least
    /// recently used first.
    explainers: Vec<(ExplainerKey, ExplainerState)>,
}

/// What a memoized explainer state depends on besides the buggy source:
/// the target and the weights' content hash.
type ExplainerKey = (String, String);

impl Entry {
    fn new(template: Simulator, last_used: u64) -> Entry {
        Entry {
            template,
            last_used,
            golden_refs: Vec::new(),
            explainers: Vec::new(),
        }
    }
}

struct CacheInner {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// The cache itself. Cheap to share behind an `Arc`.
pub struct DesignCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    /// Optional persistent backing: successful builds write their source
    /// through ([`ArtifactKind::Design`], keyed by the same FNV hash), and
    /// [`preload`](DesignCache::preload) compiles stored sources back into
    /// the LRU so a restarted server answers its first request warm.
    store: Option<Arc<Store>>,
    /// [`EXPLAINER_ARENA_CAP`], a field so the unit tests can lower it.
    explainer_arena_cap: usize,
}

impl DesignCache {
    /// A cache holding at most `capacity` compiled designs (min 1).
    pub fn new(capacity: usize) -> DesignCache {
        DesignCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            store: None,
            explainer_arena_cap: EXPLAINER_ARENA_CAP,
        }
    }

    /// A cache that writes successful builds through to `store` and can
    /// [`preload`](DesignCache::preload) from it.
    pub fn with_store(capacity: usize, store: Arc<Store>) -> DesignCache {
        let mut cache = DesignCache::new(capacity);
        cache.store = Some(store);
        cache
    }

    /// Compiles sources persisted in the backing store into the in-memory
    /// LRU, most recently used first, up to capacity. Returns how many
    /// designs were loaded. Entries that fail verification or no longer
    /// parse are skipped — a stale store degrades to a cold cache, never
    /// an error. A no-op without a store.
    pub fn preload(&self) -> usize {
        let Some(store) = &self.store else {
            return 0;
        };
        let Ok(mut designs) = store.list() else {
            return 0;
        };
        // Newest first, so when the store holds more designs than the LRU
        // fits, the ones evicted here are the ones least recently served.
        designs.sort_by(|a, b| b.modified.cmp(&a.modified).then(a.key.cmp(&b.key)));
        designs.truncate(self.capacity);
        // Insert oldest-first so the in-memory recency order mirrors the
        // store's: the newest stored design gets the highest tick.
        designs.reverse();
        let mut loaded = 0;
        for entry in designs {
            let Some(bytes) = store.get(ArtifactKind::Design, entry.key) else {
                continue;
            };
            let Ok(source) = String::from_utf8(bytes) else {
                continue;
            };
            // Stored under the content hash, so the key recomputes from
            // the payload; anything inconsistent was already rejected by
            // the store's checksum.
            let Ok(parsed) = verilog::parse(&source) else {
                continue;
            };
            let Ok(template) = Simulator::new(parsed.top()) else {
                continue;
            };
            let mut c = self.inner.lock().expect("design cache lock");
            c.tick += 1;
            let tick = c.tick;
            if c.entries.len() < self.capacity {
                c.entries
                    .entry(entry.key)
                    .or_insert_with(|| Entry::new(template, tick));
                loaded += 1;
            }
        }
        loaded
    }

    /// Looks up `source`, building (and caching) on a miss.
    ///
    /// # Errors
    ///
    /// [`BuildError::Parse`] / [`BuildError::Elab`] when the source is
    /// unusable; errors are never cached.
    pub fn get(&self, source: &str) -> Result<CachedDesign, BuildError> {
        let key = fnv1a(source.as_bytes());
        {
            let mut c = self.inner.lock().expect("design cache lock");
            c.tick += 1;
            let tick = c.tick;
            if let Some(e) = c.entries.get_mut(&key) {
                e.last_used = tick;
                CACHE_HITS.incr();
                return Ok(CachedDesign {
                    sim: e.template.fork(),
                    hit: true,
                });
            }
        }
        CACHE_MISSES.incr();
        let parsed = verilog::parse(source).map_err(BuildError::Parse)?;
        let template = Simulator::new(parsed.top()).map_err(BuildError::Elab)?;
        let sim = template.fork();
        // Write the source through to the persistent store (outside the
        // lock; a full disk must not take down the serving path).
        if let Some(store) = &self.store {
            let _ = store.put(ArtifactKind::Design, key, source.as_bytes());
        }
        let mut c = self.inner.lock().expect("design cache lock");
        c.tick += 1;
        let tick = c.tick;
        if !c.entries.contains_key(&key) && c.entries.len() >= self.capacity {
            let lru = c
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            if let Some(lru) = lru {
                c.entries.remove(&lru);
                CACHE_EVICTIONS.incr();
            }
        }
        // A concurrent miss may have inserted the design meanwhile; keep
        // its entry (and any golden references memoized in it).
        c.entries
            .entry(key)
            .or_insert_with(|| Entry::new(template, tick))
            .last_used = tick;
        Ok(CachedDesign { sim, hit: false })
    }

    /// The golden reference for `key` memoized in `source`'s entry, or
    /// the one `build` returns on a miss; the flag is true on a hit.
    ///
    /// `build` runs outside the lock. What it returns is memoized only
    /// while `source` is still cached, evicting the entry's least recently
    /// used reference beyond [`GOLDEN_REFS_PER_DESIGN`]; its errors
    /// (including cancellation) are returned and never cached.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns.
    pub fn golden_ref<E>(
        &self,
        source: &str,
        key: &GoldenKey,
        build: impl FnOnce() -> Result<GoldenRef, E>,
    ) -> Result<(Arc<GoldenRef>, bool), E> {
        let design = fnv1a(source.as_bytes());
        {
            let mut c = self.inner.lock().expect("design cache lock");
            if let Some(refs) = c.entries.get_mut(&design).map(|e| &mut e.golden_refs) {
                if let Some(i) = refs.iter().position(|(k, _)| k == key) {
                    let found = refs.remove(i);
                    let golden = Arc::clone(&found.1);
                    refs.push(found);
                    GOLDEN_HITS.incr();
                    return Ok((golden, true));
                }
            }
        }
        GOLDEN_MISSES.incr();
        let golden = Arc::new(build()?);
        let mut c = self.inner.lock().expect("design cache lock");
        if let Some(refs) = c.entries.get_mut(&design).map(|e| &mut e.golden_refs) {
            if !refs.iter().any(|(k, _)| k == key) {
                if refs.len() >= GOLDEN_REFS_PER_DESIGN {
                    refs.remove(0);
                }
                refs.push((key.clone(), Arc::clone(&golden)));
            }
        }
        Ok((golden, false))
    }

    /// Runs `run` on the explainer state memoized in `source`'s entry for
    /// `target` under the weights hashed `weights`, or on the one `build`
    /// returns on a miss; the flag is true on a hit.
    ///
    /// The state is checked out for the call: it leaves the entry before
    /// `run` and is put back afterwards, so the lock is never held while
    /// `run` simulates, and a concurrent call for the same key misses and
    /// builds its own. The state goes back only while `source` is still
    /// cached and its memo is within [`EXPLAINER_ARENA_CAP`], as the
    /// entry's most recently used one, evicting the least recently used
    /// beyond [`GOLDEN_REFS_PER_DESIGN`]. `run` must leave a state that
    /// still matches the key, which [`veribug::localize::run_with_sims`]
    /// does even when it fails.
    pub fn explainer<R>(
        &self,
        source: &str,
        target: &str,
        weights: &str,
        build: impl FnOnce() -> ExplainerState,
        run: impl FnOnce(&mut ExplainerState) -> R,
    ) -> (R, bool) {
        let design = fnv1a(source.as_bytes());
        let key = (target.to_owned(), weights.to_owned());
        let found = {
            let mut c = self.inner.lock().expect("design cache lock");
            c.entries.get_mut(&design).and_then(|e| {
                let i = e.explainers.iter().position(|(k, _)| *k == key)?;
                Some(e.explainers.remove(i).1)
            })
        };
        let hit = found.is_some();
        if hit {
            EXPLAINER_HITS.incr();
        } else {
            EXPLAINER_MISSES.incr();
        }
        let mut state = found.unwrap_or_else(build);
        let result = run(&mut state);
        if state.arena_len() <= self.explainer_arena_cap {
            let mut c = self.inner.lock().expect("design cache lock");
            if let Some(memo) = c.entries.get_mut(&design).map(|e| &mut e.explainers) {
                // A concurrent call may have put its own state back
                // meanwhile; this one is the more recently used.
                memo.retain(|(k, _)| *k != key);
                if memo.len() >= GOLDEN_REFS_PER_DESIGN {
                    memo.remove(0);
                }
                memo.push((key, state));
            }
        }
        (result, hit)
    }

    /// How many explainer states `source`'s entry memoizes (0 when the
    /// design is not cached).
    pub fn explainers(&self, source: &str) -> usize {
        let c = self.inner.lock().expect("design cache lock");
        c.entries
            .get(&fnv1a(source.as_bytes()))
            .map_or(0, |e| e.explainers.len())
    }

    /// How many golden references `source`'s entry memoizes (0 when the
    /// design is not cached).
    pub fn golden_refs(&self, source: &str) -> usize {
        let c = self.inner.lock().expect("design cache lock");
        c.entries
            .get(&fnv1a(source.as_bytes()))
            .map_or(0, |e| e.golden_refs.len())
    }

    /// Number of designs currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("design cache lock").entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The persistent store backing this cache, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_A: &str = "module a(input x, input y, output z);\nassign z = x & y;\nendmodule";
    const SRC_B: &str = "module b(input x, input y, output z);\nassign z = x | y;\nendmodule";
    const SRC_C: &str = "module c(input x, output z);\nassign z = !x;\nendmodule";

    #[test]
    fn second_lookup_is_a_hit() {
        let cache = DesignCache::new(4);
        let first = cache.get(SRC_A).unwrap();
        assert!(!first.hit);
        let second = cache.get(SRC_A).unwrap();
        assert!(second.hit);
        let (a, b): (&sim::Netlist, &sim::Netlist) = (first.sim.netlist(), second.sim.netlist());
        assert!(
            std::ptr::eq(a, b),
            "both forks read the entry's one netlist"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn forked_sims_are_independent_and_equivalent() {
        let cache = DesignCache::new(4);
        let mut cold = cache.get(SRC_A).unwrap();
        let mut warm = cache.get(SRC_A).unwrap();
        let stim = sim::TestbenchGen::new(7).generate(cold.sim.netlist(), 8);
        let t1 = cold.sim.run(&stim).unwrap();
        let t2 = warm.sim.run(&stim).unwrap();
        assert_eq!(t1, t2, "cold and cached forks simulate identically");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = DesignCache::new(2);
        cache.get(SRC_A).unwrap();
        cache.get(SRC_B).unwrap();
        cache.get(SRC_A).unwrap(); // refresh A; B is now LRU
        cache.get(SRC_C).unwrap(); // evicts B
        assert_eq!(cache.len(), 2);
        assert!(cache.get(SRC_A).unwrap().hit, "A survived");
        assert!(!cache.get(SRC_B).unwrap().hit, "B was evicted");
    }

    #[test]
    fn parse_errors_are_typed_and_not_cached() {
        let cache = DesignCache::new(4);
        let err = cache.get("module broken(").unwrap_err();
        assert!(matches!(err, BuildError::Parse(_)));
        assert_eq!(cache.len(), 0);
        let again = cache.get("module broken(").unwrap_err();
        assert!(matches!(again, BuildError::Parse(_)));
    }

    #[test]
    fn write_through_and_preload_warm_a_fresh_cache() {
        let root =
            std::env::temp_dir().join(format!("veribug-serve-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(Store::open(&root, store::DEFAULT_BUDGET).unwrap());

        let first = DesignCache::with_store(4, Arc::clone(&store));
        assert!(!first.get(SRC_A).unwrap().hit);
        assert!(!first.get(SRC_B).unwrap().hit);
        assert_eq!(store.stats().writes, 2, "misses write sources through");

        // A fresh cache over the same store — a restarted process — is
        // warm after preload: the first lookup is already a hit.
        let second = DesignCache::with_store(4, Arc::clone(&store));
        assert_eq!(second.preload(), 2);
        assert!(second.get(SRC_A).unwrap().hit);
        assert!(second.get(SRC_B).unwrap().hit);

        // Preload respects capacity.
        let tiny = DesignCache::with_store(1, Arc::clone(&store));
        assert_eq!(tiny.preload(), 1);
        assert_eq!(tiny.len(), 1);

        // A corrupted stored source degrades to a cold entry, not an
        // error.
        let key = fnv1a(SRC_A.as_bytes());
        std::fs::write(store.entry_path(ArtifactKind::Design, key), b"garbage").unwrap();
        let third = DesignCache::with_store(4, Arc::clone(&store));
        assert_eq!(third.preload(), 1, "only the intact design loads");
        assert!(!third.get(SRC_A).unwrap().hit);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Checks out `source`'s explainer state for `target` under `weights`
    /// and puts it back untouched; true on a hit.
    fn touch_explainer(cache: &DesignCache, source: &str, target: &str, weights: &str) -> bool {
        let sim = cache.get(source).unwrap().sim;
        let build = || ExplainerState::new(sim.netlist(), target);
        cache.explainer(source, target, weights, build, |_| ()).1
    }

    #[test]
    fn explainer_memo_is_reused_and_bounded_per_design() {
        let cache = DesignCache::new(4);
        assert!(!touch_explainer(&cache, SRC_A, "z", "w0"));
        assert!(touch_explainer(&cache, SRC_A, "z", "w0"));
        // Target and weights are both part of the key.
        assert!(!touch_explainer(&cache, SRC_A, "x", "w0"));
        assert_eq!(cache.explainers(SRC_A), 2);
        assert!(touch_explainer(&cache, SRC_A, "z", "w0"));
        // One more key than the bound: the least recently used one,
        // target `x`, is dropped.
        for w in 1..GOLDEN_REFS_PER_DESIGN {
            assert!(!touch_explainer(&cache, SRC_A, "z", &format!("w{w}")));
            assert!(cache.explainers(SRC_A) <= GOLDEN_REFS_PER_DESIGN);
        }
        assert_eq!(cache.explainers(SRC_A), GOLDEN_REFS_PER_DESIGN);
        for w in 0..GOLDEN_REFS_PER_DESIGN {
            assert!(touch_explainer(&cache, SRC_A, "z", &format!("w{w}")));
        }
        assert!(!touch_explainer(&cache, SRC_A, "x", "w0"), "x was evicted");
        assert_eq!(cache.explainers(SRC_A), GOLDEN_REFS_PER_DESIGN);
        // Nothing is memoized for a design that is not cached.
        let sim = Simulator::new(verilog::parse(SRC_C).unwrap().top()).unwrap();
        let build = || ExplainerState::new(sim.netlist(), "z");
        for _ in 0..2 {
            assert!(!cache.explainer(SRC_C, "z", "w0", build, |_| ()).1);
        }
        assert_eq!(cache.explainers(SRC_C), 0);
    }

    #[test]
    fn evicting_a_design_drops_its_explainer_memo() {
        let cache = DesignCache::new(1);
        assert!(!touch_explainer(&cache, SRC_A, "z", "w0"));
        assert_eq!(cache.explainers(SRC_A), 1);
        cache.get(SRC_B).unwrap(); // evicts A
        assert_eq!(cache.explainers(SRC_A), 0);
        assert!(!cache.get(SRC_A).unwrap().hit);
        assert!(!touch_explainer(&cache, SRC_A, "z", "w0"));
    }

    #[test]
    fn an_explainer_past_the_arena_cap_is_not_put_back() {
        let model = veribug::VeriBugModel::new(veribug::ModelConfig::default());
        let opts = veribug::LocalizeOptions {
            runs: 16,
            cycles: 4,
            ..Default::default()
        };
        let localize = |cache: &DesignCache| {
            let mut golden = cache.get(SRC_A).unwrap();
            let mut buggy = cache.get(SRC_B).unwrap();
            let inert = sim::CancelToken::inert();
            let reference = GoldenRef::build(&mut golden.sim, "z", &opts, &inert).unwrap();
            let netlist = Arc::clone(buggy.sim.netlist());
            let build = || ExplainerState::new(&netlist, "z");
            let (arena, hit) = cache.explainer(SRC_B, "z", "w0", build, |state| {
                let report = veribug::localize::run_with_sims(
                    &model,
                    &reference,
                    &mut buggy.sim,
                    state,
                    "z",
                    &opts,
                    &inert,
                )
                .unwrap();
                assert!(report.has_failures());
                state.arena_len()
            });
            (arena, hit)
        };
        let roomy = DesignCache::new(4);
        let (arena, hit) = localize(&roomy);
        assert!(!hit && arena > 0);
        assert_eq!(roomy.explainers(SRC_B), 1);
        assert_eq!(localize(&roomy), (arena, true));

        let mut tight = DesignCache::new(4);
        tight.explainer_arena_cap = arena - 1;
        assert_eq!(localize(&tight), (arena, false));
        assert_eq!(tight.explainers(SRC_B), 0, "an over-cap memo is dropped");
        assert_eq!(localize(&tight), (arena, false));
        tight.explainer_arena_cap = arena;
        assert_eq!(localize(&tight), (arena, false));
        assert_eq!(localize(&tight), (arena, true), "a memo at the cap is kept");
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(SRC_A.as_bytes()), fnv1a(SRC_B.as_bytes()));
        assert_eq!(fnv1a(SRC_A.as_bytes()), fnv1a(SRC_A.as_bytes()));
    }
}
