//! Content-addressed, crash-safe persistence for round-elimination
//! towers.
//!
//! A [`TowerStore`] is a directory of [`TowerSnapshot`] documents keyed
//! by the 16-hex-digit [`canonical fingerprint`](lcl::canonical_key) of
//! the base problem: structurally identical LCLs (same constraints up to
//! label renaming) share one entry, so a tower is computed once per
//! structural class no matter how many spellings clients submit.
//!
//! Two invariants make the store safe to kill at any instant:
//!
//! * **Atomic publication.** Every write lands in a `*.tmp` sibling
//!   first and is published with a single `rename`. A crash mid-write
//!   leaves only a temp file, which [`TowerStore::open`] sweeps away; a
//!   reader never observes a half-written entry.
//! * **Validated admission.** [`TowerStore::open`] re-parses every
//!   `*.tower.json` it finds and indexes only documents that decode
//!   cleanly; anything else is quarantined (left on disk, never served).
//!   The index keeps each admitted entry's [`TowerSummary`], all a hit
//!   reads: an entry overwritten behind this single-writer store's back
//!   keeps hitting from it, while the resume path's [`TowerStore::get`]
//!   fails as [`StoreError::Corrupt`] and the next open quarantines it.
//!
//! Alongside final towers the store keeps *checkpoints*
//! (`<key>.ckpt.json`): the latest partial tower of an in-flight build,
//! written before every supervised f-step so a restarted server resumes
//! instead of recomputing.
//!
//! The store is **single-writer**: [`TowerStore::open`] takes an
//! advisory lock (`store.lock`, created with `O_EXCL` and holding the
//! owner's pid) and refuses with [`StoreError::Locked`] while another
//! live process holds it. A lock left behind by a dead process — the
//! pid no longer exists — is swept and re-taken, so a crashed server
//! never bricks its store. The lock is advisory: it guards against
//! accidental double-opens (two servers pointed at one directory), not
//! against writers that bypass [`TowerStore`].

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lcl_core::{SnapshotError, TowerSnapshot};

/// Why a store operation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// A filesystem operation failed; `what` names the operation.
    Io {
        /// The operation that failed (e.g. `"create store dir"`).
        what: &'static str,
        /// The path involved.
        path: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// An indexed entry no longer decodes — the document was valid at
    /// admission, so this indicates on-disk corruption after the fact.
    Corrupt {
        /// The store key of the bad entry.
        key: String,
        /// The decode failure.
        error: SnapshotError,
    },
    /// Another live process already holds the store's advisory lock.
    /// The store is single-writer; point the second opener at its own
    /// directory, or stop the owner first.
    Locked {
        /// The lock file path.
        path: String,
        /// The pid recorded in the lock (still alive when checked).
        owner_pid: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { what, path, error } => {
                write!(f, "store i/o failure ({what} at {path}): {error}")
            }
            StoreError::Corrupt { key, error } => {
                write!(f, "store entry {key} is corrupt: {error}")
            }
            StoreError::Locked { path, owner_pid } => {
                write!(
                    f,
                    "store is locked by live process {owner_pid} (advisory lock at {path}); \
                     the store is single-writer"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(what: &'static str, path: &Path, error: std::io::Error) -> StoreError {
    StoreError::Io {
        what,
        path: path.display().to_string(),
        error: error.to_string(),
    }
}

/// Suffix of published tower entries.
const TOWER_SUFFIX: &str = ".tower.json";
/// Suffix of in-flight build checkpoints.
const CKPT_SUFFIX: &str = ".ckpt.json";
/// Suffix of not-yet-published writes (swept on open).
const TMP_SUFFIX: &str = ".tmp";
/// The advisory single-writer lock file inside the store directory.
const LOCK_FILE: &str = "store.lock";

/// Whether the process with `pid` is alive. On Linux this is a `/proc`
/// existence check; elsewhere we have no portable std-only probe, so we
/// conservatively report alive (a stale lock then needs manual removal
/// rather than risking two live writers).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// Ownership of the store's advisory lock file; dropping it releases
/// the lock. Removal failures are ignored — the directory may already
/// be gone, and a leftover lock from a dead pid is swept on next open.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// One exclusive-create attempt: `Ok(Some)` on success, `Ok(None)` when
/// the lock already exists, `Err` on any other filesystem failure.
fn try_lock(path: &Path) -> Result<Option<LockGuard>, StoreError> {
    match fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
    {
        Ok(mut file) => {
            let pid = format!("{}\n", std::process::id());
            file.write_all(pid.as_bytes())
                .map_err(|e| io_err("write lock file", path, e))?;
            file.sync_all()
                .map_err(|e| io_err("sync lock file", path, e))?;
            Ok(Some(LockGuard {
                path: path.to_path_buf(),
            }))
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(None),
        Err(e) => Err(io_err("create lock file", path, e)),
    }
}

/// Takes the advisory lock in `dir`, sweeping at most one stale lock
/// (unparseable content, or a recorded pid that is no longer alive).
fn acquire_lock(dir: &Path) -> Result<LockGuard, StoreError> {
    let path = dir.join(LOCK_FILE);
    if let Some(guard) = try_lock(&path)? {
        return Ok(guard);
    }
    let owner = fs::read_to_string(&path)
        .ok()
        .and_then(|text| text.trim().parse::<u32>().ok());
    if let Some(pid) = owner {
        if pid_alive(pid) {
            return Err(StoreError::Locked {
                path: path.display().to_string(),
                owner_pid: pid,
            });
        }
    }
    // Unparseable pid or dead owner: the lock is stale. Sweep it and
    // retry the exclusive create once.
    match fs::remove_file(&path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(io_err("sweep stale lock", &path, e)),
    }
    match try_lock(&path)? {
        Some(guard) => Ok(guard),
        // Another opener raced us to the swept slot; report who has it.
        None => {
            let winner = fs::read_to_string(&path)
                .ok()
                .and_then(|text| text.trim().parse::<u32>().ok())
                .unwrap_or(0);
            Err(StoreError::Locked {
                path: path.display().to_string(),
                owner_pid: winner,
            })
        }
    }
}

/// What a cache hit reads off a published tower's snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TowerSummary {
    /// Derived `f`-rounds (each `f = R̄ ∘ R` adds two layers).
    pub derived_f: u64,
    /// Levels of the tower, the base included.
    pub levels: u64,
    /// The snapshot's structural [`TowerSnapshot::fingerprint`].
    pub tower_fingerprint: String,
    /// The topmost span's `fixpoint-of` counter (the level it repeats).
    pub fixpoint: Option<u64>,
}

impl TowerSummary {
    pub(crate) fn of(snap: &TowerSnapshot) -> Self {
        let mut counters = snap.spans.iter().rev().flat_map(|span| &span.counters);
        Self {
            derived_f: (snap.layers.len() / 2) as u64,
            levels: (snap.layers.len() + 1) as u64,
            tower_fingerprint: snap.fingerprint(),
            fixpoint: counters.find(|(n, _)| n == "fixpoint-of").map(|&(_, v)| v),
        }
    }
}

/// A content-addressed on-disk tower store. See the module docs for the
/// layout and crash-safety invariants. All methods take `&self`; the
/// in-memory index is behind a mutex, so one store can be shared across
/// worker threads via `Arc`.
#[derive(Debug)]
pub struct TowerStore {
    dir: PathBuf,
    index: Mutex<BTreeMap<String, TowerSummary>>,
    /// Held for the store's lifetime; released (removed) on drop.
    _lock: LockGuard,
}

impl TowerStore {
    /// Opens (creating if needed) the store rooted at `dir`: takes the
    /// single-writer advisory lock, sweeps crash leftovers (`*.tmp`),
    /// validates every published entry, and indexes the summaries of
    /// the ones that decode cleanly.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or read;
    /// [`StoreError::Locked`] when another live process holds the
    /// store's lock (a lock whose recorded pid is dead is swept, not an
    /// error). A corrupt *entry* is not an error — it is simply not
    /// indexed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create store dir", &dir, e))?;
        let lock = acquire_lock(&dir)?;
        let mut index = BTreeMap::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("read store dir", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read store dir entry", &dir, e))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(TMP_SUFFIX) {
                // A crash mid-write: the publish rename never happened,
                // so the content is unaccounted for. Remove it.
                fs::remove_file(&path).map_err(|e| io_err("sweep temp file", &path, e))?;
                continue;
            }
            if let Some(key) = name.strip_suffix(TOWER_SUFFIX) {
                let text =
                    fs::read_to_string(&path).map_err(|e| io_err("read tower entry", &path, e))?;
                if let Ok(snap) = TowerSnapshot::parse(&text) {
                    index.insert(key.to_string(), TowerSummary::of(&snap));
                }
            }
        }
        Ok(Self {
            dir,
            index: Mutex::new(index),
            _lock: lock,
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of published (indexed) tower entries.
    pub fn len(&self) -> usize {
        self.lock_index().len()
    }

    /// `true` when no tower has been published yet.
    pub fn is_empty(&self) -> bool {
        self.lock_index().is_empty()
    }

    /// The published summary for `key`, read from memory (no file).
    pub fn summary(&self, key: &str) -> Option<TowerSummary> {
        self.lock_index().get(key).cloned()
    }

    /// Loads the published tower for `key`, or `None` when the key is
    /// unknown.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the entry cannot be read,
    /// [`StoreError::Corrupt`] when an indexed entry no longer decodes.
    pub fn get(&self, key: &str) -> Result<Option<TowerSnapshot>, StoreError> {
        if !self.lock_index().contains_key(key) {
            return Ok(None);
        }
        let path = self.tower_path(key);
        let text = fs::read_to_string(&path).map_err(|e| io_err("read tower entry", &path, e))?;
        match TowerSnapshot::parse(&text) {
            Ok(snap) => Ok(Some(snap)),
            Err(error) => Err(StoreError::Corrupt {
                key: key.to_string(),
                error,
            }),
        }
    }

    /// Publishes `snap` as the tower for `key` (atomically: temp file +
    /// rename) and returns its summary, replacing any previous entry's.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write or rename fails.
    pub fn put(&self, key: &str, snap: &TowerSnapshot) -> Result<TowerSummary, StoreError> {
        self.write_atomic(&self.tower_path(key), &snap.to_json())?;
        let summary = TowerSummary::of(snap);
        self.lock_index().insert(key.to_string(), summary.clone());
        Ok(summary)
    }

    /// Persists the in-flight partial tower for `key`. Checkpoints are
    /// written with the same temp-file-plus-rename discipline but are
    /// *not* indexed: they answer [`TowerStore::load_checkpoint`], never
    /// [`TowerStore::get`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write or rename fails.
    pub fn checkpoint(&self, key: &str, snap: &TowerSnapshot) -> Result<(), StoreError> {
        self.write_atomic(&self.ckpt_path(key), &snap.to_json())
    }

    /// Loads the latest checkpoint for `key`, or `None` when there is
    /// none or it no longer decodes (a bad checkpoint is worth a fresh
    /// build, not a typed failure — the published entry is the one whose
    /// corruption must surface).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when an existing checkpoint cannot be read.
    pub fn load_checkpoint(&self, key: &str) -> Result<Option<TowerSnapshot>, StoreError> {
        let path = self.ckpt_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("read checkpoint", &path, e)),
        };
        Ok(TowerSnapshot::parse(&text).ok())
    }

    /// Removes the checkpoint for `key`, if any (idempotent).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when an existing checkpoint cannot be removed.
    pub fn clear_checkpoint(&self, key: &str) -> Result<(), StoreError> {
        let path = self.ckpt_path(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove checkpoint", &path, e)),
        }
    }

    fn tower_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}{TOWER_SUFFIX}"))
    }

    fn ckpt_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}{CKPT_SUFFIX}"))
    }

    fn lock_index(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, TowerSummary>> {
        self.index
            .lock()
            .expect("why: no store method can panic while holding the index lock")
    }

    fn write_atomic(&self, path: &Path, content: &str) -> Result<(), StoreError> {
        let tmp = PathBuf::from(format!("{}{TMP_SUFFIX}", path.display()));
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create temp file", &tmp, e))?;
        file.write_all(content.as_bytes())
            .map_err(|e| io_err("write temp file", &tmp, e))?;
        file.sync_all()
            .map_err(|e| io_err("sync temp file", &tmp, e))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| io_err("publish rename", path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::{ReOptions, ReTower};
    use lcl_problems::catalog::{k_coloring, sinkless_orientation};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lcl-service-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_tower() -> ReTower {
        let mut tower = ReTower::new(sinkless_orientation(3));
        tower.push_f(ReOptions::default()).unwrap();
        tower
    }

    #[test]
    fn put_then_get_round_trips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let store = TowerStore::open(&dir).unwrap();
        let snap = small_tower().snapshot();
        store.put("00aa", &snap).unwrap();
        assert!(store.summary("00aa").is_some());
        let loaded = store.get("00aa").unwrap().unwrap();
        assert_eq!(loaded.to_json(), snap.to_json());
        assert_eq!(store.get("ffff").unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What `get(key)` implies for a hit, read through the tower the
    /// snapshot resumes into rather than through `TowerSummary::of`.
    fn implied_by_get(store: &TowerStore, key: &str) -> TowerSummary {
        let tower = ReTower::resume_from(&store.get(key).unwrap().unwrap()).unwrap();
        let top = tower.level_count() - 1;
        TowerSummary {
            derived_f: (top / 2) as u64,
            levels: tower.level_count() as u64,
            tower_fingerprint: tower.fingerprint(),
            fixpoint: (1..=top)
                .rev()
                .find_map(|level| tower.fixpoint_of(level))
                .map(|l| l as u64),
        }
    }

    #[test]
    fn summaries_match_what_get_implies_after_put_and_cold_reopen() {
        let dir = tmp_dir("summary");
        // Sinkless orientation's level 1 repeats the base table, so its
        // spans carry `fixpoint-of`; 3-coloring's one f-step does not.
        let mut coloring = ReTower::new(k_coloring(3, 3));
        coloring.push_f(ReOptions::default()).unwrap();
        let towers = [("00aa", small_tower()), ("00bb", coloring)];
        {
            let store = TowerStore::open(&dir).unwrap();
            for (key, tower) in &towers {
                let published = store.put(key, &tower.snapshot()).unwrap();
                assert_eq!(store.summary(key), Some(published));
                assert_eq!(store.summary(key).unwrap(), implied_by_get(&store, key));
            }
            assert_eq!(store.summary("00aa").unwrap().fixpoint, Some(0));
            assert_eq!(store.summary("00bb").unwrap().fixpoint, None);
            assert_eq!(store.summary("ffff"), None);
        }
        let cold = TowerStore::open(&dir).unwrap();
        for (key, tower) in &towers {
            let summary = cold.summary(key).unwrap();
            assert_eq!(summary, implied_by_get(&cold, key));
            assert_eq!(summary.tower_fingerprint, tower.fingerprint());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_write_leaves_no_entry_after_reopen() {
        let dir = tmp_dir("crash");
        let store = TowerStore::open(&dir).unwrap();
        let snap = small_tower().snapshot();
        store.put("00aa", &snap).unwrap();
        // Simulate a crash mid-write: a temp file with half a document,
        // never renamed into place.
        let half = &snap.to_json()[..37];
        fs::write(dir.join("00bb.tower.json.tmp"), half).unwrap();
        // And a crash that corrupted a published entry outright.
        fs::write(dir.join("00cc.tower.json"), half).unwrap();
        drop(store);

        let reopened = TowerStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.summary("00aa").is_some());
        assert_eq!(reopened.get("00bb").unwrap(), None);
        assert_eq!(reopened.get("00cc").unwrap(), None);
        // The temp file was swept; the undecodable entry is quarantined
        // on disk but never served.
        assert!(!dir.join("00bb.tower.json.tmp").exists());
        assert!(dir.join("00cc.tower.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_restart_serves_prior_entries_bit_identically() {
        let dir = tmp_dir("cold");
        let snap = small_tower().snapshot();
        let wire = snap.to_json();
        {
            let store = TowerStore::open(&dir).unwrap();
            store.put("00aa", &snap).unwrap();
        }
        let cold = TowerStore::open(&dir).unwrap();
        assert_eq!(cold.len(), 1);
        let served = cold.get("00aa").unwrap().unwrap();
        assert_eq!(served.to_json(), wire);
        assert_eq!(served.fingerprint(), snap.fingerprint());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_are_separate_from_published_entries() {
        let dir = tmp_dir("ckpt");
        let store = TowerStore::open(&dir).unwrap();
        let snap = small_tower().snapshot();
        store.checkpoint("00aa", &snap).unwrap();
        // A checkpoint is not a published tower.
        assert_eq!(store.summary("00aa"), None);
        assert_eq!(store.get("00aa").unwrap(), None);
        let resumed = store.load_checkpoint("00aa").unwrap().unwrap();
        assert_eq!(resumed.to_json(), snap.to_json());
        // Checkpoints survive a reopen (that is their whole point).
        drop(store);
        let reopened = TowerStore::open(&dir).unwrap();
        assert!(reopened.load_checkpoint("00aa").unwrap().is_some());
        reopened.clear_checkpoint("00aa").unwrap();
        assert_eq!(reopened.load_checkpoint("00aa").unwrap(), None);
        // Clearing twice is fine.
        reopened.clear_checkpoint("00aa").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_open_is_refused_while_the_lock_is_held() {
        let dir = tmp_dir("locked");
        let store = TowerStore::open(&dir).unwrap();
        assert!(dir.join(LOCK_FILE).exists(), "open takes the lock");
        let refused = TowerStore::open(&dir);
        match refused {
            Err(StoreError::Locked { owner_pid, path }) => {
                assert_eq!(owner_pid, std::process::id(), "we are the live owner");
                assert!(path.ends_with(LOCK_FILE));
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(store);
        assert!(!dir.join(LOCK_FILE).exists(), "drop releases the lock");
        let reopened = TowerStore::open(&dir).unwrap();
        assert!(reopened.is_empty());
        drop(reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")] // liveness probing is /proc-based
    fn stale_locks_from_dead_owners_are_swept() {
        let dir = tmp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // A pid far beyond any kernel's pid_max: its /proc entry cannot
        // exist, so the lock reads as a dead owner's leftover.
        fs::write(dir.join(LOCK_FILE), "4000000000\n").unwrap();
        let store = TowerStore::open(&dir).expect("dead owner's lock is swept");
        drop(store);
        // An unparseable lock is equally stale.
        fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let store = TowerStore::open(&dir).expect("garbage lock is swept");
        let text = fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
        assert_eq!(
            text.trim().parse::<u32>().unwrap(),
            std::process::id(),
            "the swept lock is re-taken under our own pid"
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deeply_nested_entries_are_skipped_not_a_stack_overflow() {
        let dir = tmp_dir("nested");
        fs::create_dir_all(&dir).unwrap();
        let deep = "[".repeat(1_000_000);
        fs::write(dir.join(format!("00dd{TOWER_SUFFIX}")), &deep).unwrap();
        fs::write(dir.join(format!("00dd{CKPT_SUFFIX}")), &deep).unwrap();
        let store = TowerStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.get("00dd").unwrap(), None);
        assert_eq!(store.load_checkpoint("00dd").unwrap(), None);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatched_entries_are_not_admitted() {
        let dir = tmp_dir("version");
        {
            let store = TowerStore::open(&dir).unwrap();
            store.put("00aa", &small_tower().snapshot()).unwrap();
        }
        // A future process wrote an entry in a newer format.
        let text = fs::read_to_string(dir.join("00aa.tower.json")).unwrap();
        let future = text.replacen("\"version\":1", "\"version\":7", 1);
        fs::write(dir.join("00aa.tower.json"), future).unwrap();
        let reopened = TowerStore::open(&dir).unwrap();
        assert_eq!(reopened.summary("00aa"), None);
        fs::remove_dir_all(&dir).unwrap();
    }
}
