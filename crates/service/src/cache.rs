//! The sharded, content-addressed result cache — with an optional
//! persistent disk tier.
//!
//! Every cacheable endpoint reduces its request to a **canonical string**
//! (fixed field order, deterministic float formatting — see
//! `api::SimulateRequest::canonical`) that fully determines the response:
//! simulations are bitwise deterministic per `(request, seed)` under the
//! PR 1 determinism contract, and the solver is a pure function of the
//! game. Cache hits are therefore *exact* — the stored body is byte
//! identical to what a cold computation would produce.
//!
//! Sharding: an FNV-1a hash of the canonical key picks one of `S`
//! mutex-guarded shards, so concurrent workers rarely contend on the same
//! lock. Keys are compared by full string equality inside the shard —
//! the hash only routes, it never decides identity.
//!
//! Eviction is FIFO per shard: the oldest *inserted* entry goes first.
//! (The previous policy evicted `HashMap::keys().next()`, whose iteration
//! order is arbitrary and can repeatedly victimize the same hot entry.)
//!
//! # The disk tier
//!
//! With [`ResultCache::with_disk`] every insert is also written to
//! `<dir>/<fnv1a64(key) as hex>-<key len>.json`, a JSON document that
//! embeds the **full canonical key** next to the body — the filename only
//! routes, equality on the embedded key decides identity, exactly like
//! the in-memory shards. Writes go to a temp file first and are
//! `rename`d into place, so a crash mid-write can never leave a
//! half-entry under a valid name; readers see the old bytes or the new
//! bytes, nothing in between. Memory misses fall through to a lazy disk
//! read (verified, counted as a hit, promoted back into memory), so a
//! restarted daemon re-serves warm responses byte-identically without
//! recomputing. Corrupt or truncated files are treated as misses and
//! deleted — the entry is simply recomputed. A byte budget bounds the
//! directory; enforcement evicts oldest-mtime files first.
//!
//! Every document is also stamped with [`RESULT_EPOCH`]. A canonical key
//! names a request, not the bytes some build computed for it, so a build
//! whose results differ byte for byte (same law, new RNG stream) bumps
//! the epoch. An entry with a missing or different epoch is then a miss
//! and is deleted like a corrupt one, instead of re-serving bytes that a
//! cold run of this build no longer produces.

use popgame_obs::metrics::{registry, Counter};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-global cache hit counter (`popgame_cache_hits_total`), shared
/// with `/metrics`. The per-instance `AtomicU64`s below stay the source
/// of truth for `/healthz` (they reset with the instance); the globals
/// only ever accumulate.
fn global_hits() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        registry().counter("popgame_cache_hits_total", "Result-cache lookups that found an entry", &[])
    })
}

/// Process-global cache miss counter (`popgame_cache_misses_total`).
fn global_misses() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        registry().counter("popgame_cache_misses_total", "Result-cache lookups that found nothing", &[])
    })
}

/// Process-global eviction counter (`popgame_cache_evictions_total`):
/// entries pushed out of a full shard, FIFO order.
fn global_evictions() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        registry().counter(
            "popgame_cache_evictions_total",
            "Entries evicted from full cache shards (FIFO insertion order)",
            &[],
        )
    })
}

/// Process-global disk-tier read-through counter
/// (`popgame_cache_disk_hits_total`): memory misses satisfied from the
/// persistent tier.
fn global_disk_hits() -> &'static Arc<Counter> {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| {
        registry().counter(
            "popgame_cache_disk_hits_total",
            "Memory misses served from the persistent disk tier",
            &[],
        )
    })
}

/// 64-bit FNV-1a, the classic cheap content hash (shard router, disk
/// filenames, artifact ids, and the fleet hash ring).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Default per-shard entry cap (see [`ResultCache::with_capacity`]).
const DEFAULT_SHARD_CAPACITY: usize = 8192;

/// Default disk-tier byte budget: 256 MiB.
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

/// The result epoch stamped into every disk-tier document. Bump it
/// whenever a change alters response bytes for an unchanged canonical
/// key. Epoch 2 is the count-flow τ-leap, whose RNG stream differs from
/// the per-entry leap of epoch 1 (unstamped documents); epoch 3 is the
/// BTRS binomial sampler, which draws the same law from a different
/// stream than epoch 2's mode-centred inversion.
pub const RESULT_EPOCH: u64 = 3;

/// One shard: the map plus its insertion-order queue. The queue holds
/// exactly the map's keys, oldest inserted at the front — updates of a
/// resident key keep its original position (FIFO, not LRU: residency is
/// a hint, correctness never depends on it).
struct Shard {
    map: HashMap<String, Arc<String>>,
    order: VecDeque<String>,
}

/// The persistent tier: a directory of content-addressed entry files
/// bounded by a byte budget.
struct DiskTier {
    dir: PathBuf,
    byte_budget: u64,
    /// Monotonic temp-file discriminator (several threads may write the
    /// same entry concurrently; each gets its own temp name and the
    /// renames race benignly — both carry identical bytes).
    temp_seq: AtomicU64,
    hits: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
}

impl DiskTier {
    /// The entry path for a canonical key: hash routes, embedded key
    /// decides (exactly the in-memory discipline). The key length in the
    /// name cheaply separates most accidental hash collisions too.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}-{}.json", fnv1a64(key.as_bytes()), key.len()))
    }

    /// Reads an entry back, verifying the embedded key byte-for-byte and
    /// the result epoch. Any failure — missing file, bad JSON, wrong
    /// shape, key mismatch, missing or stale epoch — is a miss; such files
    /// are deleted so they cannot shadow a future write of the true entry.
    fn read(&self, key: &str) -> Option<Arc<String>> {
        let path = self.entry_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let parsed: Option<Arc<String>> = (|| {
            let doc = popgame_util::json::Json::parse(&text).ok()?;
            if doc.get("epoch")?.as_u64()? != RESULT_EPOCH {
                return None;
            }
            let stored_key = doc.get("key")?.as_str()?;
            if stored_key != key {
                return None;
            }
            let body = doc.get("body")?.as_str()?;
            Some(Arc::new(body.to_string()))
        })();
        if parsed.is_none() {
            // Truncated, corrupt or stale: recompute rather than serve
            // bad bytes.
            let _ = std::fs::remove_file(&path);
        }
        parsed
    }

    /// Writes an entry atomically: temp file in the same directory, then
    /// `rename`. On any I/O failure the tier just skips the write — the
    /// memory tier still has the entry, and persistence is best-effort.
    fn write(&self, key: &str, body: &str) {
        let doc = popgame_util::json::Json::obj([
            ("epoch", popgame_util::json::Json::from(RESULT_EPOCH)),
            ("key", popgame_util::json::Json::from(key)),
            ("body", popgame_util::json::Json::from(body)),
        ]);
        let temp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&temp, doc.encode()).is_err() {
            return;
        }
        if std::fs::rename(&temp, self.entry_path(key)).is_err() {
            let _ = std::fs::remove_file(&temp);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget();
    }

    /// Deletes oldest-mtime entries until the directory fits the budget.
    /// Freshly-written files carry the newest mtime, so enforcement can
    /// never evict the entry that triggered it (unless it alone exceeds
    /// the budget).
    fn enforce_budget(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, u64, PathBuf)> = entries
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some("json") {
                    return None;
                }
                let meta = entry.metadata().ok()?;
                Some((meta.modified().ok()?, meta.len(), path))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
        if total <= self.byte_budget {
            return;
        }
        files.sort_by_key(|(mtime, _, _)| *mtime);
        for (_, len, path) in files {
            if total <= self.byte_budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A sharded `canonical request → response body` map with hit/miss/
/// eviction counters, a per-shard entry cap (so a stream of
/// never-repeating requests cannot grow the daemon without bound), and an
/// optional persistent disk tier that survives restarts.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Bitmask over the (power-of-two) shard count.
    mask: u64,
    /// Maximum entries per shard; insertion past it evicts the oldest
    /// inserted resident entry (correctness never depends on residency —
    /// an evicted result is just recomputed).
    shard_capacity: usize,
    disk: Option<DiskTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// Creates a cache with at least `shards` shards (rounded up to a
    /// power of two, minimum 1) and the default per-shard capacity.
    pub fn new(shards: usize) -> Self {
        Self::with_capacity(shards, DEFAULT_SHARD_CAPACITY)
    }

    /// [`ResultCache::new`] with an explicit per-shard entry cap.
    pub fn with_capacity(shards: usize, shard_capacity: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        ResultCache {
            shards: (0..count)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            mask: count as u64 - 1,
            shard_capacity: shard_capacity.max(1),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Attaches the persistent disk tier: every insert is also written
    /// (atomically) under `dir`, and memory misses read through it. The
    /// directory is created if absent; existing entries become servable
    /// immediately — this is how a restarted daemon recovers its warmth.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn with_disk(
        mut self,
        dir: impl Into<PathBuf>,
        byte_budget: u64,
    ) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.disk = Some(DiskTier {
            dir,
            byte_budget: byte_budget.max(1),
            temp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        });
        Ok(self)
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a64(key.as_bytes()) & self.mask) as usize]
    }

    /// Looks a canonical key up, counting the hit or miss. A memory miss
    /// falls through to the disk tier (when attached): a verified disk
    /// entry counts as a hit and is promoted back into memory.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard lock")
            .map
            .get(key)
            .cloned();
        let found = match found {
            Some(body) => Some(body),
            None => match self.disk.as_ref().and_then(|disk| {
                let body = disk.read(key)?;
                disk.hits.fetch_add(1, Ordering::Relaxed);
                global_disk_hits().inc();
                Some(body)
            }) {
                Some(body) => {
                    // Promote without re-writing the disk entry.
                    self.insert_memory(key.to_string(), Arc::clone(&body));
                    Some(body)
                }
                None => None,
            },
        };
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                global_hits().inc();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                global_misses().inc();
            }
        }
        found
    }

    /// The memory-tier insert: FIFO eviction when the shard is full.
    fn insert_memory(&self, key: String, body: Arc<String>) {
        let mut shard = self.shard(&key).lock().expect("cache shard lock");
        if shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&key) {
            // Oldest-inserted goes first. The queue mirrors the map, so
            // the front always names a resident entry.
            if let Some(victim) = shard.order.pop_front() {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                global_evictions().inc();
            }
        }
        if shard.map.insert(key.clone(), body).is_none() {
            shard.order.push_back(key);
        }
    }

    /// Stores a response body under its canonical key, evicting the
    /// oldest-inserted entry when the shard is at capacity, and writing
    /// through to the disk tier when one is attached.
    pub fn insert(&self, key: String, body: Arc<String>) {
        if let Some(disk) = &self.disk {
            disk.write(&key, &body);
        }
        self.insert_memory(key, body);
    }

    /// Number of cached entries (sums all shards; memory tier only).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry (either tier).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted from full shards (FIFO order).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Whether a persistent disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Disk-tier counters `(hits, writes, evictions)`; zeros without a
    /// tier.
    pub fn disk_stats(&self) -> (u64, u64, u64) {
        self.disk.as_ref().map_or((0, 0, 0), |d| {
            (
                d.hits.load(Ordering::Relaxed),
                d.writes.load(Ordering::Relaxed),
                d.evictions.load(Ordering::Relaxed),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "popgame-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = ResultCache::new(4);
        assert!(cache.is_empty());
        assert_eq!(cache.get("k1"), None);
        cache.insert("k1".to_string(), Arc::new("v1".to_string()));
        assert_eq!(cache.get("k1").as_deref().map(String::as_str), Some("v1"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        for (requested, expect) in [(0usize, 1usize), (1, 1), (3, 4), (16, 16), (17, 32)] {
            assert_eq!(ResultCache::new(requested).shards.len(), expect);
        }
    }

    #[test]
    fn capacity_bounds_each_shard() {
        let cache = ResultCache::with_capacity(1, 4);
        for i in 0..100 {
            cache.insert(format!("key-{i}"), Arc::new(format!("v{i}")));
        }
        assert!(cache.len() <= 4, "cap must hold, got {}", cache.len());
        assert_eq!(cache.evictions(), 96);
        // Re-inserting a resident key is an update, not an eviction.
        let survivor = (0..100)
            .map(|i| format!("key-{i}"))
            .find(|k| cache.get(k).is_some())
            .expect("some entry survives");
        let before = cache.evictions();
        cache.insert(survivor.clone(), Arc::new("updated".to_string()));
        assert_eq!(cache.get(&survivor).as_deref().map(String::as_str), Some("updated"));
        assert!(cache.len() <= 4);
        assert_eq!(cache.evictions(), before);
    }

    #[test]
    fn eviction_is_fifo_never_repeat_victimizing() {
        // Single shard, capacity 3: after inserting a, b, c, d, e the
        // survivors must be exactly the newest three — the old
        // keys().next() policy could evict the same hot slot repeatedly
        // while stale entries squatted forever.
        let cache = ResultCache::with_capacity(1, 3);
        for key in ["a", "b", "c", "d", "e"] {
            cache.insert(key.to_string(), Arc::new(key.to_string()));
        }
        for (key, resident) in [("a", false), ("b", false), ("c", true), ("d", true), ("e", true)]
        {
            assert_eq!(cache.get(key).is_some(), resident, "key {key}");
        }
        assert_eq!(cache.evictions(), 2);
        // An update must not advance the victim queue: updating "c" then
        // overflowing once still evicts "c" (oldest inserted), not "d".
        cache.insert("c".to_string(), Arc::new("c2".to_string()));
        cache.insert("f".to_string(), Arc::new("f".to_string()));
        assert!(cache.get("c").is_none(), "oldest-inserted c must go first");
        assert!(cache.get("d").is_some());
        assert!(cache.get("e").is_some());
        assert!(cache.get("f").is_some());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(ResultCache::new(8));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = format!("key-{}", (t * 7 + i) % 50);
                        if cache.get(&key).is_none() {
                            cache.insert(key.clone(), Arc::new(format!("body-{key}")));
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 50);
        for i in 0..50 {
            let key = format!("key-{i}");
            if let Some(body) = cache.get(&key) {
                assert_eq!(*body, format!("body-{key}"));
            }
        }
    }

    #[test]
    fn disk_tier_round_trips_across_instances() {
        let dir = temp_dir("roundtrip");
        let first = ResultCache::new(4)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        let key = r#"{"endpoint":"simulate","seed":7}"#;
        first.insert(key.to_string(), Arc::new("the body".to_string()));
        assert_eq!(first.disk_stats().1, 1, "one write");
        drop(first);
        // A brand-new instance over the same directory — the restart.
        let second = ResultCache::new(4)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        assert_eq!(second.len(), 0, "memory starts cold");
        let body = second.get(key).expect("disk read-through");
        assert_eq!(*body, "the body");
        assert_eq!(second.hits(), 1, "a disk hit is a hit");
        assert_eq!(second.disk_stats().0, 1, "counted on the disk tier too");
        // Promoted: the second lookup is a pure memory hit.
        assert!(second.get(key).is_some());
        assert_eq!(second.disk_stats().0, 1, "no second disk read");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_fall_back_to_miss_and_are_deleted() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::new(1)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        let key = "some canonical key";
        cache.insert(key.to_string(), Arc::new("good".to_string()));
        let path = dir.join(format!("{:016x}-{}.json", fnv1a64(key.as_bytes()), key.len()));
        assert!(path.exists());
        // Truncate the entry mid-document, then restart.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let rebooted = ResultCache::new(1)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        assert!(rebooted.get(key).is_none(), "corrupt entry must be a miss");
        assert!(!path.exists(), "corrupt entry must be deleted");
        // A key whose entry holds a *different* embedded key (hash-route
        // collision shape) is also a miss, never served.
        let impostor = popgame_util::json::Json::obj([
            ("key", popgame_util::json::Json::from("other key")),
            ("body", popgame_util::json::Json::from("wrong bytes")),
        ]);
        std::fs::write(&path, impostor.encode()).unwrap();
        assert!(rebooted.get(key).is_none(), "embedded-key mismatch is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_of_another_epoch_are_misses_and_are_rewritten() {
        let dir = temp_dir("epoch");
        let cache = ResultCache::new(1)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        let key = r#"{"endpoint":"simulate","seed":7}"#;
        let path = dir.join(format!("{:016x}-{}.json", fnv1a64(key.as_bytes()), key.len()));
        let entry = |epoch: Option<u64>| {
            let mut fields = vec![
                ("key", popgame_util::json::Json::from(key)),
                ("body", popgame_util::json::Json::from("stale bytes")),
            ];
            if let Some(epoch) = epoch {
                fields.insert(0, ("epoch", popgame_util::json::Json::from(epoch)));
            }
            popgame_util::json::Json::obj(fields).encode()
        };
        // The shape an older build wrote: the right embedded key, no epoch.
        // Then the same entry stamped with a different epoch.
        for stale in [None, Some(RESULT_EPOCH - 1)] {
            std::fs::write(&path, entry(stale)).unwrap();
            assert!(cache.get(key).is_none(), "epoch {stale:?} must be a miss");
            assert!(!path.exists(), "epoch {stale:?} entry must be deleted");
        }
        // The recomputed result is rewritten under the current epoch and
        // served to the next instance.
        cache.insert(key.to_string(), Arc::new("fresh bytes".to_string()));
        let doc = popgame_util::json::Json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap();
        assert_eq!(doc.get("epoch").and_then(|e| e.as_u64()), Some(RESULT_EPOCH));
        let rebooted = ResultCache::new(1)
            .with_disk(&dir, DEFAULT_DISK_BUDGET)
            .unwrap();
        assert_eq!(rebooted.get(key).as_deref().map(String::as_str), Some("fresh bytes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_oldest_mtime_first() {
        let dir = temp_dir("budget");
        // ~120-byte entries, budget 400: a few survivors at most.
        let cache = ResultCache::new(1).with_disk(&dir, 400).unwrap();
        for i in 0..6 {
            cache.insert(format!("budget-key-{i}"), Arc::new("x".repeat(64)));
            // Distinct mtimes even on coarse-granularity filesystems.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= 400, "budget must hold, got {total}");
        assert!(cache.disk_stats().2 > 0, "evictions counted");
        // The newest entry survives; the oldest is gone (from disk — the
        // memory tier still holds everything, so probe the tier directly).
        let disk = cache.disk.as_ref().unwrap();
        assert!(disk.read("budget-key-5").is_some(), "newest survives");
        assert!(disk.read("budget-key-0").is_none(), "oldest evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
