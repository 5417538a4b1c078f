//! Robustness tests: corrupted entries load as misses, concurrent
//! same-key writers never produce a torn read, and byte-budget eviction
//! is deterministic.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use veribug_store::{hash, ArtifactKind, Store, DEFAULT_BUDGET, FORMAT};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("veribug-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn truncated_entry_is_a_miss_and_self_heals() {
    let s = Store::open(temp_root("trunc"), DEFAULT_BUDGET).unwrap();
    let key = hash::fnv1a(b"some payload");
    s.put(ArtifactKind::Design, key, b"some payload").unwrap();
    let path = s.entry_path(ArtifactKind::Design, key);
    let full = fs::read(&path).unwrap();
    for cut in [0, 1, 5, full.len() / 2, full.len() - 1] {
        fs::write(&path, &full[..cut]).unwrap();
        assert_eq!(s.get(ArtifactKind::Design, key), None, "cut at {cut}");
        assert!(!path.exists(), "corrupt entry deleted (cut at {cut})");
        fs::write(&path, &full).unwrap();
    }
    assert_eq!(
        s.get(ArtifactKind::Design, key).as_deref(),
        Some(&b"some payload"[..])
    );
    assert_eq!(s.stats().corrupt, 5);
    fs::remove_dir_all(s.root()).unwrap();
}

#[test]
fn flipped_payload_byte_is_a_miss() {
    let s = Store::open(temp_root("flip"), DEFAULT_BUDGET).unwrap();
    let key = 42;
    s.put(ArtifactKind::Design, key, b"design payload").unwrap();
    let path = s.entry_path(ArtifactKind::Design, key);
    let mut raw = fs::read(&path).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x01;
    fs::write(&path, &raw).unwrap();
    assert_eq!(
        s.get(ArtifactKind::Design, key),
        None,
        "checksum catches bit flip"
    );
    fs::remove_dir_all(s.root()).unwrap();
}

#[test]
fn wrong_version_or_kind_or_key_is_a_miss() {
    let s = Store::open(temp_root("version"), DEFAULT_BUDGET).unwrap();
    let key = 7;
    let good = {
        s.put(ArtifactKind::Design, key, b"rows").unwrap();
        fs::read(s.entry_path(ArtifactKind::Design, key)).unwrap()
    };
    let good_text = String::from_utf8(good).unwrap();
    let cases = [
        (
            "future version",
            good_text.replace(FORMAT, "veribug-store v2"),
        ),
        ("other tool", good_text.replace(FORMAT, "not-a-store")),
        (
            "kind mismatch",
            good_text.replace("kind design", "kind weights"),
        ),
        (
            "key mismatch",
            good_text.replace(
                &format!("key {}", hash::key_hex(key)),
                &format!("key {}", hash::key_hex(8)),
            ),
        ),
        (
            "declared length too long",
            good_text.replace("len 4", "len 400"),
        ),
    ];
    for (what, doctored) in cases {
        fs::write(s.entry_path(ArtifactKind::Design, key), doctored).unwrap();
        assert_eq!(s.get(ArtifactKind::Design, key), None, "{what}");
        fs::write(s.entry_path(ArtifactKind::Design, key), &good_text).unwrap();
    }
    assert_eq!(
        s.get(ArtifactKind::Design, key).as_deref(),
        Some(&b"rows"[..])
    );
    fs::remove_dir_all(s.root()).unwrap();
}

#[test]
fn a_root_left_by_the_old_layout_still_opens_and_hides_the_leftover() {
    // Older stores also kept `campaign/` and `weights/` kind directories.
    // Their entries are no longer a kind: the store must work around them
    // and never list them (an operator may delete the directories by hand).
    let root = temp_root("old-layout");
    let leftovers: Vec<PathBuf> = ["campaign", "weights"]
        .into_iter()
        .map(|kind| {
            fs::create_dir_all(root.join(kind)).unwrap();
            let leftover = root.join(kind).join(format!("{}.art", hash::key_hex(7)));
            fs::write(
                &leftover,
                format!(
                    "{FORMAT}\nkind {kind}\nkey {}\nsum {}\nlen 4\nrows",
                    hash::key_hex(7),
                    hash::fnv1a_hex(b"rows")
                ),
            )
            .unwrap();
            leftover
        })
        .collect();

    let s = Store::open(&root, DEFAULT_BUDGET).unwrap();
    let key = hash::fnv1a(b"module m; endmodule");
    s.put(ArtifactKind::Design, key, b"module m; endmodule")
        .unwrap();
    assert_eq!(
        s.get(ArtifactKind::Design, key).as_deref(),
        Some(&b"module m; endmodule"[..])
    );
    let listed: Vec<u64> = s.list().unwrap().iter().map(|e| e.key).collect();
    assert_eq!(listed, vec![key], "leftovers never listed");
    let report = s.gc().unwrap();
    assert_eq!(report.removed, 0);
    assert_eq!(report.remaining_bytes, s.total_bytes().unwrap());
    assert!(!s.remove(7).unwrap(), "a leftover's key names no entry");
    for leftover in &leftovers {
        assert!(leftover.exists(), "unknown directories are left alone");
    }
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn concurrent_same_key_writes_never_tear() {
    let root = temp_root("race");
    let store = Arc::new(Store::open(&root, DEFAULT_BUDGET).unwrap());
    let key = hash::fnv1a(b"contended");
    // Two distinct payloads of different lengths so a torn read (header
    // from one write, payload from the other) cannot pass verification by
    // accident.
    let a = vec![b'a'; 4096];
    let b = vec![b'b'; 9000];
    store.put(ArtifactKind::Design, key, &a).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for payload in [a.clone(), b.clone()] {
        // Separate handles over the same root, like separate processes.
        let w = Store::open(&root, DEFAULT_BUDGET).unwrap();
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                w.put(ArtifactKind::Design, key, &payload).unwrap();
            }
        }));
    }
    let mut reads = 0u32;
    while reads < 400 {
        let got = store
            .get(ArtifactKind::Design, key)
            .expect("entry always present and intact under concurrent rewrites");
        assert!(got == a || got == b, "read a complete payload, not a blend");
        reads += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(store.stats().corrupt, 0, "no torn reads observed");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn eviction_respects_the_byte_budget_deterministically() {
    // Entries of 100 payload bytes each; header is ~60 bytes, so pick a
    // budget that keeps exactly two entries.
    let probe = Store::open(temp_root("evict-probe"), DEFAULT_BUDGET).unwrap();
    probe.put(ArtifactKind::Design, 0, &[b'x'; 100]).unwrap();
    let entry_bytes = probe.total_bytes().unwrap();
    fs::remove_dir_all(probe.root()).unwrap();

    let budget = entry_bytes * 2;
    let root = temp_root("evict");
    // Stage through a generous handle (puts enforce the budget eagerly,
    // which would interfere with the pinned timestamps below), then sweep
    // through a handle with the budget under test.
    let stage = Store::open(&root, DEFAULT_BUDGET).unwrap();
    for key in [10u64, 11, 12, 13] {
        stage.put(ArtifactKind::Design, key, &[b'x'; 100]).unwrap();
        // Pin distinct, widely spaced modification times so recency order
        // is unambiguous regardless of filesystem timestamp resolution:
        // oldest = key 10, newest = key 13.
        let f = fs::OpenOptions::new()
            .write(true)
            .open(stage.entry_path(ArtifactKind::Design, key))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1000 * key))
            .unwrap();
    }
    let s = Store::open(&root, budget).unwrap();
    let report = s.gc().unwrap();
    assert_eq!(report.removed, 2, "two oldest evicted");
    assert_eq!(report.freed, entry_bytes * 2);
    assert_eq!(report.remaining_bytes, entry_bytes * 2);
    assert!(report.remaining_bytes <= budget);
    let surviving: Vec<u64> = s.list().unwrap().iter().map(|e| e.key).collect();
    assert_eq!(surviving, vec![12, 13], "oldest-first, so 10 and 11 go");
    assert_eq!(s.stats().evictions, 2);

    fs::remove_dir_all(&root).unwrap();

    // Ties in modification time break by key, deterministically. Stage
    // with a generous budget, then sweep through a tighter handle over
    // the same root (stores are plain directories; budgets are per
    // handle).
    let root = temp_root("evict-tie");
    let big = Store::open(&root, DEFAULT_BUDGET).unwrap();
    let tied = SystemTime::UNIX_EPOCH + Duration::from_secs(999_999);
    for (key, mtime) in [
        (20u64, tied),
        (21, tied),
        (22, tied + Duration::from_secs(5)),
    ] {
        big.put(ArtifactKind::Design, key, &[b'y'; 100]).unwrap();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(big.entry_path(ArtifactKind::Design, key))
            .unwrap();
        f.set_modified(mtime).unwrap();
    }
    let small = Store::open(&root, entry_bytes * 2).unwrap();
    small.gc().unwrap();
    let surviving: Vec<u64> = small.list().unwrap().iter().map(|e| e.key).collect();
    assert_eq!(
        surviving,
        vec![21, 22],
        "tied pair evicts the smaller key first"
    );
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn put_enforces_budget_automatically() {
    let probe = Store::open(temp_root("auto-probe"), DEFAULT_BUDGET).unwrap();
    probe.put(ArtifactKind::Design, 0, &[b'x'; 50]).unwrap();
    let entry_bytes = probe.total_bytes().unwrap();
    fs::remove_dir_all(probe.root()).unwrap();

    let s = Store::open(temp_root("auto"), entry_bytes * 3).unwrap();
    for key in 0..10u64 {
        s.put(ArtifactKind::Design, key, &[b'x'; 50]).unwrap();
        // Space out recency without sleeping.
        let f = fs::OpenOptions::new()
            .write(true)
            .open(s.entry_path(ArtifactKind::Design, key))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(100 * (key + 1)))
            .unwrap();
    }
    assert!(
        s.total_bytes().unwrap() <= entry_bytes * 3,
        "puts keep the store under budget"
    );
    let surviving: Vec<u64> = s.list().unwrap().iter().map(|e| e.key).collect();
    assert_eq!(surviving, vec![7, 8, 9]);
    fs::remove_dir_all(s.root()).unwrap();
}
