//! The content-addressed on-disk **fit** cache.
//!
//! Where [`crate::cache::DiskCellCache`] stores finished cell outcomes,
//! this cache stores the expensive intermediate: one fitted synthesizer
//! state per `(dataset content, synthesizer, ε, trial seed)`. Fit seeds are
//! derived from the dataset's content digest rather than the paper id (see
//! `synrd::benchmark`), so any two papers whose generators produce the same
//! rows share every entry — the redundant-refit fix this crate level
//! persists across processes.
//!
//! Layout inside a store directory (shared with the cell cache):
//!
//! ```text
//! out-dir/
//!   fits/<digest16>.json   one fitted state each
//! ```
//!
//! Each file embeds its key block (fingerprint, dataset digest,
//! synthesizer, ε bits, seed index) and the load path verifies it before
//! decoding, so collisions, stale files, truncation, or hand edits all
//! degrade to a cache miss — the grid refits and overwrites. The fit
//! fingerprint deliberately covers *only* the knobs a fit depends on: the
//! master data seed (fit seeds derive from it) and nothing else. Changing
//! `bootstraps`, `scale`, `min_rows` or the fit timeout invalidates cells
//! but keeps fits warm — scale/floor changes flow in through the dataset
//! digest when they actually change the data.

use crate::cache::{write_atomic, CacheStats};
use crate::codec::JsonCodec;
use crate::digest::{hex16, Fnv1a};
use crate::json::JsonValue;
use crate::parse::parse;
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use synrd::benchmark::{BenchmarkConfig, FitStore};
use synrd_synth::{FittedState, SynthKind};

/// Version tag mixed into every fit fingerprint; bump when fitted-state
/// semantics change so old fit files invalidate wholesale.
///
/// v2: PATECTGAN fits are produced by the batched minibatch round loop
/// (new trajectory and retuned hyperparameters), so v1 fit files describe
/// states the current trainer can no longer reproduce.
const FIT_FINGERPRINT_VERSION: u64 = 2;

/// Digest of the config knobs a *fit* depends on.
///
/// Fit seeds are `grid_seed(data_seed, dataset_key, synth, ε, seed_idx)`,
/// so the master seed is the only config input beyond the per-entry key;
/// everything else either cannot change a fit (`bootstraps`, timeouts) or
/// reaches it through the dataset content digest (`data_scale`,
/// `min_rows`).
pub fn fit_fingerprint(config: &BenchmarkConfig) -> u64 {
    Fnv1a::new()
        .write_u64(FIT_FINGERPRINT_VERSION)
        .write_u64(config.data_seed)
        .finish()
}

/// Content address of one fit:
/// `(fingerprint, dataset digest, synthesizer, ε bits, seed index)`.
pub fn fit_digest(
    fingerprint: u64,
    dataset_digest: u64,
    synth: &str,
    epsilon: f64,
    seed_index: usize,
) -> u64 {
    Fnv1a::new()
        .write_u64(fingerprint)
        .write_u64(dataset_digest)
        .write_str(synth)
        .write_u64(epsilon.to_bits())
        .write_u64(seed_index as u64)
        .finish()
}

/// A content-addressed fit cache rooted at a store directory.
///
/// Same concurrency contract as the cell cache: `&self` everywhere, atomic
/// counters, and atomic temp-file writes, so one handle serves a whole
/// rayon grid.
#[derive(Debug)]
pub struct DiskFitCache {
    root: PathBuf,
    fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    errors: AtomicU64,
}

impl DiskFitCache {
    /// Open (creating if needed) the fit cache under `root` for `config`.
    ///
    /// # Errors
    /// Directory creation failing.
    pub fn open(root: impl Into<PathBuf>, config: &BenchmarkConfig) -> io::Result<DiskFitCache> {
        let root = root.into();
        fs::create_dir_all(root.join("fits"))?;
        Ok(DiskFitCache {
            root,
            fingerprint: fit_fingerprint(config),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The cache's root directory (the store's `--out-dir`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fingerprint fits are being keyed under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Counters since this handle was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Copy every fit file from another store directory that this cache
    /// does not already hold. A shard without a `fits/` subdirectory (an
    /// older store layout) contributes nothing and is not an error.
    ///
    /// # Errors
    /// I/O failures while reading or copying.
    pub fn merge_from(&self, other_root: &Path) -> io::Result<usize> {
        let src = other_root.join("fits");
        if !src.is_dir() {
            return Ok(0);
        }
        let mut copied = 0usize;
        for entry in fs::read_dir(&src)? {
            let entry = entry?;
            let name = entry.file_name();
            if entry.path().extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let dest = self.root.join("fits").join(&name);
            if dest.exists() {
                continue;
            }
            let bytes = fs::read(entry.path())?;
            write_atomic(&dest, &bytes)?;
            copied += 1;
        }
        Ok(copied)
    }

    fn fit_path(&self, digest: u64) -> PathBuf {
        self.root
            .join("fits")
            .join(format!("{}.json", hex16(digest)))
    }

    fn key_block(
        &self,
        dataset_digest: u64,
        synth: &str,
        epsilon: f64,
        seed_index: usize,
    ) -> JsonValue {
        JsonValue::obj(vec![
            ("fingerprint", JsonValue::Str(hex16(self.fingerprint))),
            ("dataset", JsonValue::Str(hex16(dataset_digest))),
            ("synth", JsonValue::Str(synth.to_string())),
            ("epsilon_bits", JsonValue::Str(hex16(epsilon.to_bits()))),
            ("epsilon", JsonValue::Num(epsilon)),
            ("seed_index", JsonValue::Uint(seed_index as u64)),
        ])
    }
}

impl FitStore for DiskFitCache {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        let digest = fit_digest(
            self.fingerprint,
            dataset_digest,
            kind.name(),
            epsilon,
            seed_index,
        );
        let text = match fs::read_to_string(self.fit_path(digest)) {
            Ok(text) => text,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let decoded = parse(&text).ok().and_then(|doc| {
            // Verify the embedded key before trusting the payload, exactly
            // as the cell cache does.
            let expected = self.key_block(dataset_digest, kind.name(), epsilon, seed_index);
            if doc.get("key") != Some(&expected) {
                return None;
            }
            FittedState::from_json(doc.get("state")?).ok()
        });
        match decoded {
            Some(state) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(state)
            }
            None => {
                // Truncated, corrupted, or mismatched file: a miss (the
                // grid refits and the save path overwrites the bad file),
                // plus an error count for the summary line.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        let digest = fit_digest(
            self.fingerprint,
            dataset_digest,
            kind.name(),
            epsilon,
            seed_index,
        );
        let doc = JsonValue::obj(vec![
            (
                "key",
                self.key_block(dataset_digest, kind.name(), epsilon, seed_index),
            ),
            ("state", state.to_json()),
        ]);
        match write_atomic(&self.fit_path(digest), doc.to_text().as_bytes()) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Best-effort by contract: a failed save must not fail the
                // run, the fit just will not be cached.
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A fit-store adapter that never serves loads — paired with
/// [`crate::cache::WriteOnly`] when `--out-dir` is given without
/// `--resume`: fits are recomputed and (re)written, never read back.
pub struct WriteOnlyFits<'a>(pub &'a DiskFitCache);

/// A fit-store adapter that serves only fits written **through this
/// handle** — the non-`--resume` grid mode. A fresh run distrusts whatever
/// a previous process left on disk (like [`WriteOnlyFits`]), but papers
/// sharing a dataset *within* the run still share every fit: the first
/// paper's saves are served back to the later ones.
pub struct SessionFits<'a> {
    cache: &'a DiskFitCache,
    written: Mutex<HashSet<(u64, &'static str, u64, usize)>>,
}

impl<'a> SessionFits<'a> {
    /// A session view over `cache` that starts out empty.
    pub fn new(cache: &'a DiskFitCache) -> SessionFits<'a> {
        SessionFits {
            cache,
            written: Mutex::new(HashSet::new()),
        }
    }
}

impl FitStore for SessionFits<'_> {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        if !self.written.lock().unwrap().contains(&key) {
            return None;
        }
        self.cache.load(dataset_digest, kind, epsilon, seed_index)
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        self.cache
            .save(dataset_digest, kind, epsilon, seed_index, state);
        self.written.lock().unwrap().insert((
            dataset_digest,
            kind.name(),
            epsilon.to_bits(),
            seed_index,
        ));
    }
}

impl FitStore for WriteOnlyFits<'_> {
    fn load(
        &self,
        _dataset_digest: u64,
        _kind: SynthKind,
        _epsilon: f64,
        _seed_index: usize,
    ) -> Option<FittedState> {
        None
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        self.0
            .save(dataset_digest, kind, epsilon, seed_index, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synrd_data::{Attribute, Dataset, Domain};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("synrd-fit-unit-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fitted_state(seed: u64) -> FittedState {
        let domain = Domain::new(vec![
            Attribute::binary("x"),
            Attribute::binary("y"),
            Attribute::ordinal("z", 3),
        ]);
        let mut data = Dataset::with_capacity(domain, 200);
        for i in 0..200u64 {
            let h = i.wrapping_mul(seed | 1).wrapping_add(seed);
            data.push_row(&[(h % 2) as u32, ((h >> 1) % 2) as u32, ((h >> 2) % 3) as u32])
                .unwrap();
        }
        let mut synth = SynthKind::Mst.build();
        synth
            .fit(
                &data,
                SynthKind::Mst.native_privacy(1.0, data.n_rows()),
                seed,
            )
            .unwrap();
        synth.fitted_state().unwrap()
    }

    fn restored_samples(state: FittedState) -> Dataset {
        let mut synth = SynthKind::Mst.build();
        synth.restore_state(state).unwrap();
        synth.sample(300, 5).unwrap()
    }

    #[test]
    fn save_then_load_roundtrips_the_sampler_bitwise() {
        let dir = tmp_dir("roundtrip");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let state = fitted_state(11);
        let want = restored_samples(state.clone());

        assert!(cache.load(42, SynthKind::Mst, 1.0, 0).is_none());
        cache.save(42, SynthKind::Mst, 1.0, 0, &state);
        let back = cache.load(42, SynthKind::Mst, 1.0, 0).unwrap();
        assert_eq!(restored_samples(back), want);

        // Other coordinates do not alias.
        assert!(cache.load(43, SynthKind::Mst, 1.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Aim, 1.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Mst, 2.0, 0).is_none());
        assert!(cache.load(42, SynthKind::Mst, 1.0, 1).is_none());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.misses, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_files_degrade_to_misses_and_are_overwritten() {
        let dir = tmp_dir("truncate");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let state = fitted_state(7);
        cache.save(9, SynthKind::Mst, 1.0, 0, &state);
        let digest = fit_digest(cache.fingerprint(), 9, "MST", 1.0, 0);
        let path = cache.fit_path(digest);

        // Truncate the entry mid-file, as if the writer was killed (the
        // rename makes this unreachable for *our* writes, but files from
        // other tools or damaged disks must still degrade gracefully).
        let full = fs::read_to_string(&path).unwrap();
        for cut in [full.len() / 2, 1, full.len() - 1] {
            fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            assert!(
                cache.load(9, SynthKind::Mst, 1.0, 0).is_none(),
                "truncation at {cut} must be a miss, not an error"
            );
        }
        assert_eq!(cache.stats().errors, 3);

        // The refit path overwrites the damaged file and recovers.
        cache.save(9, SynthKind::Mst, 1.0, 0, &state);
        assert!(cache.load(9, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn master_seed_change_invalidates_fits() {
        let dir = tmp_dir("invalidate");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        cache.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(3));

        let mut reseeded = BenchmarkConfig::quick();
        reseeded.data_seed ^= 0xdead;
        let cache2 = DiskFitCache::open(&dir, &reseeded).unwrap();
        assert_ne!(cache.fingerprint(), cache2.fingerprint());
        assert!(cache2.load(1, SynthKind::Mst, 1.0, 0).is_none());

        // Cell-only knobs keep fits warm: fits do not depend on bootstraps.
        let mut more_draws = BenchmarkConfig::quick();
        more_draws.bootstraps += 7;
        let cache3 = DiskFitCache::open(&dir, &more_draws).unwrap();
        assert_eq!(cache.fingerprint(), cache3.fingerprint());
        assert!(cache3.load(1, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fit_thread_allowance_never_reaches_the_fingerprint() {
        // Intra-fit parallelism is bit-identical at any thread count, so the
        // allowance must stay out of fit identity: configs differing only in
        // `fit_threads` fingerprint identically, and a fit saved by a
        // sequential run loads under any allowance.
        let dir = tmp_dir("fit-threads");
        let seq = BenchmarkConfig {
            fit_threads: Some(1),
            ..BenchmarkConfig::quick()
        };
        let wide = BenchmarkConfig {
            fit_threads: Some(8),
            ..BenchmarkConfig::quick()
        };
        let auto = BenchmarkConfig {
            fit_threads: None,
            ..BenchmarkConfig::quick()
        };
        let fp = fit_fingerprint(&seq);
        assert_eq!(fit_fingerprint(&wide), fp);
        assert_eq!(fit_fingerprint(&auto), fp);

        let cache = DiskFitCache::open(&dir, &seq).unwrap();
        cache.save(9, SynthKind::Mst, 1.0, 0, &fitted_state(3));
        let reopened = DiskFitCache::open(&dir, &wide).unwrap();
        assert!(
            reopened.load(9, SynthKind::Mst, 1.0, 0).is_some(),
            "a sequential fit must hit under an 8-thread allowance"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_only_never_serves_loads() {
        let dir = tmp_dir("write-only");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        let wo = WriteOnlyFits(&cache);
        wo.save(5, SynthKind::Mst, 1.0, 0, &fitted_state(1));
        assert!(wo.load(5, SynthKind::Mst, 1.0, 0).is_none());
        assert!(cache.load(5, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_fits_serve_only_what_this_run_wrote() {
        let dir = tmp_dir("session");
        let config = BenchmarkConfig::quick();
        let cache = DiskFitCache::open(&dir, &config).unwrap();
        // A previous process left a fit behind.
        cache.save(5, SynthKind::Mst, 1.0, 0, &fitted_state(1));

        let session = SessionFits::new(&cache);
        // Stale disk state is invisible to a fresh run...
        assert!(session.load(5, SynthKind::Mst, 1.0, 0).is_none());
        // ...but the run's own saves are served back (shared-dataset
        // papers within one sweep), write-through to disk included.
        session.save(6, SynthKind::Mst, 1.0, 0, &fitted_state(2));
        assert!(session.load(6, SynthKind::Mst, 1.0, 0).is_some());
        assert!(session.load(6, SynthKind::Mst, 2.0, 0).is_none());
        assert!(cache.load(6, SynthKind::Mst, 1.0, 0).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merging_copies_missing_fits_and_tolerates_fitless_shards() {
        let shard_a = tmp_dir("merge-a");
        let shard_b = tmp_dir("merge-b");
        let dest = tmp_dir("merge-dest");
        let config = BenchmarkConfig::quick();
        let a = DiskFitCache::open(&shard_a, &config).unwrap();
        let b = DiskFitCache::open(&shard_b, &config).unwrap();
        a.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(1));
        b.save(1, SynthKind::Mst, 1.0, 0, &fitted_state(1)); // duplicate
        b.save(2, SynthKind::Mst, 1.0, 0, &fitted_state(2));

        let merged = DiskFitCache::open(&dest, &config).unwrap();
        assert_eq!(merged.merge_from(&shard_a).unwrap(), 1);
        assert_eq!(merged.merge_from(&shard_b).unwrap(), 1); // dup skipped
        assert!(merged.load(1, SynthKind::Mst, 1.0, 0).is_some());
        assert!(merged.load(2, SynthKind::Mst, 1.0, 0).is_some());

        // A store from before fit caching has no fits/ directory.
        let empty = tmp_dir("merge-empty");
        fs::create_dir_all(&empty).unwrap();
        assert_eq!(merged.merge_from(&empty).unwrap(), 0);
        for dir in [&shard_a, &shard_b, &dest, &empty] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
}
