//! `veribug-store`: a persistent, content-addressed artifact store.
//!
//! The artifacts are Verilog design sources: the serve cache writes each
//! design it compiles through to the store under the hash of its source
//! and preloads them on restart, so a restarted server answers warm. The
//! store is deliberately primitive:
//!
//! * **Layout is the index.** Entries live at `<root>/design/<key>.art`
//!   where `key` is 16 lowercase hex digits ([`hash::key_hex`]). There is
//!   no shared mutable index file to corrupt or race on; a directory scan
//!   *is* the manifest, and each entry carries its own header. Any other
//!   directory under the root (`weights/` and `campaign/` from older
//!   layouts) is ignored and left in place.
//! * **Writes are atomic.** An entry is staged under `<root>/tmp/` and
//!   published with a single `rename`, so concurrent writers of the same
//!   key settle on one complete entry and readers never observe a torn
//!   file.
//! * **Loads are corruption-tolerant.** Every entry embeds a format
//!   version, its kind, its key, a checksum of the payload, and the
//!   payload length. Anything that fails verification — truncation, bit
//!   rot, a future format — is a **miss**, never a crash; the offending
//!   file is deleted so the slot heals on the next write.
//! * **Eviction is LRU by age under a byte budget.** Each successful read
//!   bumps the entry's modification time; [`Store::gc`] removes
//!   oldest-first (ties broken by key, so eviction order is
//!   deterministic) until the store fits the budget.
//!
//! The store is `std`-only. Counters (`store.hits` / `store.misses` /
//! `store.writes` / `store.evictions` / `store.corrupt` and the
//! `store.bytes` gauge) flow into the `obs` registry when collection is
//! enabled and sum every handle in the process. [`Store::stats`] reads
//! plain per-handle atomics instead, which count this handle's operations
//! only (a server's `/statusz` reports its own handle's).

#![warn(missing_docs)]

pub mod hash;

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

static STORE_HITS: obs::LazyCounter = obs::LazyCounter::new("store.hits");
static STORE_MISSES: obs::LazyCounter = obs::LazyCounter::new("store.misses");
static STORE_WRITES: obs::LazyCounter = obs::LazyCounter::new("store.writes");
static STORE_EVICTIONS: obs::LazyCounter = obs::LazyCounter::new("store.evictions");
static STORE_CORRUPT: obs::LazyCounter = obs::LazyCounter::new("store.corrupt");
static STORE_BYTES: obs::LazyGauge = obs::LazyGauge::new("store.bytes");

/// First line of every entry file; bump the trailing version on breaking
/// format changes. Entries with any other first line load as misses.
pub const FORMAT: &str = "veribug-store v1";

/// Default byte budget when `VERIBUG_STORE_BUDGET` is unset: 1 GiB.
pub const DEFAULT_BUDGET: u64 = 1 << 30;

/// Environment variable naming the store root directory.
pub const ENV_ROOT: &str = "VERIBUG_STORE";

/// Environment variable overriding the byte budget (decimal bytes).
pub const ENV_BUDGET: &str = "VERIBUG_STORE_BUDGET";

/// What an artifact is, which decides the subdirectory it lives in and
/// the `kind` token of its header. Design sources are the one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A Verilog design source worth precompiling on restart. The key is
    /// the FNV-1a hash of the source bytes (same as the serve cache key).
    Design,
}

impl ArtifactKind {
    /// The subdirectory (and header token) for this kind.
    #[must_use]
    pub fn dir_name(self) -> &'static str {
        match self {
            ArtifactKind::Design => "design",
        }
    }
}

/// One row of [`Store::list`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// The entry key.
    pub key: u64,
    /// On-disk size of the entry file (header + payload).
    pub bytes: u64,
    /// When the entry was last written or successfully read.
    pub modified: SystemTime,
    /// `now - modified`, saturating to zero.
    pub age: Duration,
}

/// What [`Store::gc`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcReport {
    /// Entries removed.
    pub removed: usize,
    /// Bytes freed.
    pub freed: u64,
    /// Bytes still resident after the sweep.
    pub remaining_bytes: u64,
}

/// A point-in-time snapshot of this handle's operation counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Successful [`Store::get`] calls.
    pub hits: u64,
    /// [`Store::get`] calls that found nothing usable.
    pub misses: u64,
    /// Successful [`Store::put`] calls.
    pub writes: u64,
    /// Entries removed by budget enforcement.
    pub evictions: u64,
    /// Entries that failed verification and were discarded.
    pub corrupt: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

/// The store handle. Cheap to share behind an `Arc`; all methods take
/// `&self` and are safe to call from multiple threads and processes
/// pointed at the same root.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    budget: u64,
    handle_id: u64,
    seq: AtomicU64,
    stats: StatCells,
}

/// Distinguishes staged-write names between `Store` handles that share a
/// process (and therefore a pid).
static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(0);

impl Store {
    /// Opens (creating if needed) a store rooted at `root` with the given
    /// byte budget. A budget of zero means "evict everything on gc" —
    /// useful for tests, never useful in production.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from creating the root/design/tmp directories.
    pub fn open(root: impl AsRef<Path>, budget: u64) -> io::Result<Store> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join(ArtifactKind::Design.dir_name()))?;
        let store = Store {
            root,
            budget,
            handle_id: NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(0),
            stats: StatCells::default(),
        };
        // Publish occupancy at open so a read-only process (a warm
        // restart that never writes) still reports `store.bytes`.
        store.set_bytes_gauge();
        Ok(store)
    }

    /// The store root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Where an entry for `(kind, key)` lives (whether or not it exists).
    #[must_use]
    pub fn entry_path(&self, kind: ArtifactKind, key: u64) -> PathBuf {
        self.root
            .join(kind.dir_name())
            .join(format!("{}.art", hash::key_hex(key)))
    }

    /// Stores `payload` under `(kind, key)`, replacing any existing entry,
    /// then enforces the byte budget. The write is staged in `tmp/` and
    /// published with one `rename`, so a concurrent reader sees either the
    /// old complete entry or the new complete entry.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from staging, renaming, or the budget sweep.
    pub fn put(&self, kind: ArtifactKind, key: u64, payload: &[u8]) -> io::Result<()> {
        // Staged names must be unique across processes (pid), across
        // handles within a process (handle id), and across writes from
        // one handle (seq) — otherwise two writers could stage into the
        // same file and one rename would snatch the other's bytes.
        let staged = self.root.join("tmp").join(format!(
            "{}-{}-{}.tmp",
            std::process::id(),
            self.handle_id,
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&staged)?;
            f.write_all(
                format!(
                    "{FORMAT}\nkind {}\nkey {}\nsum {}\nlen {}\n",
                    kind.dir_name(),
                    hash::key_hex(key),
                    hash::fnv1a_hex(payload),
                    payload.len()
                )
                .as_bytes(),
            )?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        let result = fs::rename(&staged, self.entry_path(kind, key));
        if result.is_err() {
            let _ = fs::remove_file(&staged);
        }
        result?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        STORE_WRITES.incr();
        self.enforce_budget()?;
        Ok(())
    }

    /// Loads the payload stored under `(kind, key)`, or `None` on a miss.
    /// A miss is *any* failure: no entry, unreadable file, truncated
    /// header, wrong format version, kind/key/length/checksum mismatch.
    /// Entries that exist but fail verification are deleted so the slot
    /// heals. A successful read bumps the entry's modification time,
    /// which is the recency signal eviction sorts on.
    #[must_use]
    pub fn get(&self, kind: ArtifactKind, key: u64) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                STORE_MISSES.incr();
                return None;
            }
        };
        match parse_entry(&raw, kind, key) {
            Some(payload) => {
                if let Ok(f) = fs::OpenOptions::new().write(true).open(&path) {
                    let _ = f.set_modified(SystemTime::now());
                }
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                STORE_HITS.incr();
                Some(payload)
            }
            None => {
                let _ = fs::remove_file(&path);
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                STORE_CORRUPT.incr();
                STORE_MISSES.incr();
                None
            }
        }
    }

    /// Removes the entry for `key`. Returns whether there was one.
    ///
    /// # Errors
    ///
    /// Any `io::Error` other than "not found" from the deletion.
    pub fn remove(&self, key: u64) -> io::Result<bool> {
        let removed = match fs::remove_file(self.entry_path(ArtifactKind::Design, key)) {
            Ok(()) => true,
            Err(e) if e.kind() == io::ErrorKind::NotFound => false,
            Err(e) => return Err(e),
        };
        self.set_bytes_gauge();
        Ok(removed)
    }

    /// Every resident entry, sorted by key.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from scanning the design directory.
    pub fn list(&self) -> io::Result<Vec<EntryInfo>> {
        let now = SystemTime::now();
        let mut out = Vec::new();
        for entry in fs::read_dir(self.root.join(ArtifactKind::Design.dir_name()))? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".art")) else {
                continue;
            };
            let Some(key) = hash::parse_key(stem) else {
                continue;
            };
            let meta = entry.metadata()?;
            let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            out.push(EntryInfo {
                key,
                bytes: meta.len(),
                modified,
                age: now.duration_since(modified).unwrap_or(Duration::ZERO),
            });
        }
        out.sort_by_key(|e| e.key);
        Ok(out)
    }

    /// Total bytes resident.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from scanning the design directory.
    pub fn total_bytes(&self) -> io::Result<u64> {
        Ok(self.list()?.iter().map(|e| e.bytes).sum())
    }

    /// Enforces the byte budget now: removes entries oldest-first (ties
    /// broken by key, so two stores holding the same files
    /// always evict in the same order) until total size fits.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from scanning or deleting.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.evict(self.list()?)
    }

    /// [`Store::gc`] over an already-scanned listing.
    fn evict(&self, mut entries: Vec<EntryInfo>) -> io::Result<GcReport> {
        entries.sort_by_key(|e| (e.modified, e.key));
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport {
            remaining_bytes: total,
            ..GcReport::default()
        };
        for e in &entries {
            if total <= self.budget {
                break;
            }
            match fs::remove_file(self.entry_path(ArtifactKind::Design, e.key)) {
                Ok(()) => {
                    total -= e.bytes;
                    report.removed += 1;
                    report.freed += e.bytes;
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    STORE_EVICTIONS.incr();
                }
                // A concurrent process beat us to it; its bytes are gone
                // either way.
                Err(err) if err.kind() == io::ErrorKind::NotFound => total -= e.bytes,
                Err(err) => return Err(err),
            }
        }
        report.remaining_bytes = total;
        #[allow(clippy::cast_precision_loss)]
        STORE_BYTES.set(total as f64);
        Ok(report)
    }

    /// This handle's operation counts.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
        }
    }

    /// One directory scan per write: evicts from it when over budget,
    /// otherwise publishes its total as `store.bytes`.
    fn enforce_budget(&self) -> io::Result<()> {
        let entries = self.list()?;
        let total: u64 = entries.iter().map(|e| e.bytes).sum();
        if total > self.budget {
            self.evict(entries)?;
        } else {
            #[allow(clippy::cast_precision_loss)]
            STORE_BYTES.set(total as f64);
        }
        Ok(())
    }

    fn set_bytes_gauge(&self) {
        if let Ok(total) = self.total_bytes() {
            #[allow(clippy::cast_precision_loss)]
            STORE_BYTES.set(total as f64);
        }
    }
}

/// The byte budget named by `VERIBUG_STORE_BUDGET`, or [`DEFAULT_BUDGET`]
/// when unset or empty.
///
/// # Errors
///
/// `InvalidInput` when the variable is set but not a decimal integer.
pub fn env_budget() -> io::Result<u64> {
    match std::env::var(ENV_BUDGET) {
        Ok(v) if !v.is_empty() => v.parse::<u64>().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{ENV_BUDGET} must be a decimal byte count, got {v:?}"),
            )
        }),
        _ => Ok(DEFAULT_BUDGET),
    }
}

/// Verifies one raw entry file against the expected kind/key and returns
/// its payload. `None` means the entry is unusable in any way.
fn parse_entry(raw: &[u8], kind: ArtifactKind, key: u64) -> Option<Vec<u8>> {
    let mut rest = raw;
    let mut next_line = || -> Option<&str> {
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let (line, tail) = rest.split_at(nl);
        rest = &tail[1..];
        std::str::from_utf8(line).ok()
    };
    if next_line()? != FORMAT {
        return None;
    }
    if next_line()?.strip_prefix("kind ")? != kind.dir_name() {
        return None;
    }
    if hash::parse_key(next_line()?.strip_prefix("key ")?)? != key {
        return None;
    }
    let sum = hash::parse_key(next_line()?.strip_prefix("sum ")?)?;
    let len: usize = next_line()?.strip_prefix("len ")?.parse().ok()?;
    if rest.len() != len || hash::fnv1a(rest) != sum {
        return None;
    }
    Some(rest.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("veribug-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let store = Store::open(temp_root("roundtrip"), DEFAULT_BUDGET).unwrap();
        let key = hash::fnv1a(b"payload");
        assert_eq!(store.get(ArtifactKind::Design, key), None);
        store.put(ArtifactKind::Design, key, b"payload").unwrap();
        assert_eq!(
            store.get(ArtifactKind::Design, key).as_deref(),
            Some(&b"payload"[..])
        );
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 1, 1));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn remove_deletes_across_kinds() {
        let store = Store::open(temp_root("remove"), DEFAULT_BUDGET).unwrap();
        let key = 0xabcd;
        store.put(ArtifactKind::Design, key, b"a").unwrap();
        assert!(store.remove(key).unwrap());
        assert!(!store.remove(key).unwrap());
        assert_eq!(store.get(ArtifactKind::Design, key), None);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn list_reports_sizes_and_sorted_order() {
        let store = Store::open(temp_root("list"), DEFAULT_BUDGET).unwrap();
        store.put(ArtifactKind::Design, 9, b"dddd").unwrap();
        store.put(ArtifactKind::Design, 3, b"dd").unwrap();
        let rows = store.list().unwrap();
        let keys: Vec<u64> = rows.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![3, 9]);
        assert_eq!(
            rows[1].bytes - rows[0].bytes,
            2,
            "entry size tracks payload size (same header width)"
        );
        fs::remove_dir_all(store.root()).unwrap();
    }
}
