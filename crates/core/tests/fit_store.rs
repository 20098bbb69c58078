//! The grid's [`FitStore`] hook: fits are keyed by dataset *content*, so
//! two papers over the same generated dataset share every
//! `(synthesizer, ε, seed)` fit — and serving a fit from the store must not
//! change a single bit of any report.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use synrd::benchmark::{fits_performed, run_paper_with_stores, BenchmarkConfig, FitStore};
use synrd::finding::{Check, Finding, FindingType};
use synrd::Publication;
use synrd_data::{Attribute, BenchmarkDataset, Dataset, Domain};
use synrd_synth::{FittedState, SynthKind};

/// Serializes the tests in this file: they assert deltas of the
/// process-global `fits_performed` counter, which any concurrently running
/// test in this binary would also bump.
static SERIAL: Mutex<()> = Mutex::new(());

/// Hold [`SERIAL`] for the rest of a test (poisoning from a failed test
/// must not fail the others).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(dataset digest, synth name, ε bits, seed index)` — a fit's identity.
type FitKey = (u64, &'static str, u64, usize);

/// In-memory fit store with hit/store counters.
#[derive(Default)]
struct MemFitStore {
    fits: Mutex<HashMap<FitKey, FittedState>>,
    hits: AtomicU64,
    stores: AtomicU64,
}

impl FitStore for MemFitStore {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        let state = self.fits.lock().unwrap().get(&key).cloned();
        if state.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        state
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        let key = (dataset_digest, kind.name(), epsilon.to_bits(), seed_index);
        self.fits.lock().unwrap().insert(key, state.clone());
        self.stores.fetch_add(1, Ordering::Relaxed);
    }
}

/// A store that serves deliberately wrong-variant states: restore must
/// fail, and the grid must silently refit instead of erroring.
struct SabotagedStore(MemFitStore);

impl FitStore for SabotagedStore {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        self.0
            .load(dataset_digest, kind, epsilon, seed_index)
            .map(|state| match state {
                // Swap variants: hand PGM methods a GEM-shaped husk.
                FittedState::Pgm { domain, .. } => FittedState::Gem {
                    domain,
                    model: synrd_synth::GemState {
                        logits: vec![],
                        m: vec![],
                        v: vec![],
                        step: 0,
                    },
                },
                other => other,
            })
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

fn shared_dataset(n: usize, seed: u64) -> Dataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let domain = Domain::new(vec![
        Attribute::binary("x"),
        Attribute::binary("y"),
        Attribute::ordinal("z", 3),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = Dataset::with_capacity(domain, n);
    for _ in 0..n {
        let x = u32::from(rng.gen::<f64>() < 0.4);
        let y = if rng.gen::<f64>() < 0.8 { x } else { 1 - x };
        let z = rng.gen_range(0..3);
        ds.push_row(&[x, y, z]).unwrap();
    }
    ds
}

/// Two papers over the *same* generated dataset, asking different
/// questions of it (different findings, different benchmark ids).
struct MeanPaper;
struct ProportionPaper;

impl Publication for MeanPaper {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Saw2018
    }

    fn generate(&self, n: usize, seed: u64) -> Dataset {
        shared_dataset(n, seed)
    }

    fn findings(&self) -> Vec<Finding> {
        vec![Finding::new(
            1,
            "mean of z",
            FindingType::DescriptiveStatistics,
            Check::Tolerance { alpha: 0.5 },
            Box::new(|ds| Ok(vec![ds.mean_of(2).unwrap_or(0.0)])),
        )]
    }
}

impl Publication for ProportionPaper {
    fn dataset(&self) -> BenchmarkDataset {
        BenchmarkDataset::Jeong2021
    }

    fn generate(&self, n: usize, seed: u64) -> Dataset {
        shared_dataset(n, seed)
    }

    fn findings(&self) -> Vec<Finding> {
        vec![Finding::new(
            1,
            "x proportion",
            FindingType::DescriptiveStatistics,
            Check::Tolerance { alpha: 0.5 },
            Box::new(|ds| Ok(vec![ds.mean_of(0).unwrap_or(0.0)])),
        )]
    }
}

fn config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![1.0],
        seeds: 2,
        bootstraps: 2,
        data_scale: 0.01,
        min_rows: 600,
        data_seed: 7,
        threads: 1,
        fit_threads: None,
        fit_timeout: None,
        restrict_privmrf: true,
        synthesizers: vec![SynthKind::Mst, SynthKind::Gem],
    }
}

#[test]
fn papers_sharing_a_dataset_share_every_fit() {
    let _serial = serial();
    let config = config();
    let store = MemFitStore::default();
    let expected_fits = (config.seeds * config.synthesizers.len() * config.epsilons.len()) as u64;

    // Baseline (no stores): the numbers every cached run must reproduce.
    let baseline_a = run_paper_with_stores(&MeanPaper, &config, None, None).unwrap();
    let baseline_b = run_paper_with_stores(&ProportionPaper, &config, None, None).unwrap();

    // Cold paper A: every (synth, ε, seed) fit happens once and is stored.
    let before = fits_performed();
    let report_a = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(fits_performed() - before, expected_fits, "cold run fits");
    assert_eq!(store.stores.load(Ordering::Relaxed), expected_fits);

    // Paper B shares the dataset: zero fits, everything served.
    let before = fits_performed();
    let report_b = run_paper_with_stores(&ProportionPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(
        fits_performed() - before,
        0,
        "shared-dataset paper must refit nothing"
    );
    assert_eq!(store.hits.load(Ordering::Relaxed), expected_fits);

    // Warm rerun of paper A: zero fits too.
    let before = fits_performed();
    let report_a_warm = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(fits_performed() - before, 0, "warm rerun fits");

    // Served fits change nothing: bit-identical to the store-free runs.
    assert!(report_a.bitwise_eq(&baseline_a));
    assert!(report_a_warm.bitwise_eq(&baseline_a));
    assert!(report_b.bitwise_eq(&baseline_b));
}

#[test]
fn fit_cache_hits_across_fit_thread_counts() {
    let _serial = serial();
    // The intra-fit thread allowance is throughput-only and deliberately
    // absent from both `FittedState` and the fit-cache key: fits are
    // bit-identical at any thread count, so a store populated by a
    // sequential run must serve a multi-threaded run (and vice versa) with
    // zero refits and bit-identical reports. MST + GEM exercise both the
    // mirror-descent and analytic-trainer parallel paths.
    let config = BenchmarkConfig {
        fit_threads: Some(1),
        ..config()
    };
    let store = MemFitStore::default();
    let expected_fits = (config.seeds * config.synthesizers.len() * config.epsilons.len()) as u64;

    let seq_report = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    assert_eq!(store.stores.load(Ordering::Relaxed), expected_fits);

    let mt_config = BenchmarkConfig {
        fit_threads: Some(4),
        ..config
    };
    let before = fits_performed();
    let mt_report = run_paper_with_stores(&MeanPaper, &mt_config, None, Some(&store)).unwrap();
    assert_eq!(
        fits_performed() - before,
        0,
        "sequential fits must serve a 4-thread run"
    );
    assert_eq!(store.hits.load(Ordering::Relaxed), expected_fits);
    assert!(
        mt_report.bitwise_eq(&seq_report),
        "served fits must be thread-count-independent bit for bit"
    );

    // And the reverse direction from a cold store: a 4-thread cold run must
    // produce bitwise the same states the sequential run stored.
    let cold_mt = MemFitStore::default();
    let cold_report = run_paper_with_stores(&MeanPaper, &mt_config, None, Some(&cold_mt)).unwrap();
    assert!(cold_report.bitwise_eq(&seq_report));
    let seq_fits = store.fits.lock().unwrap();
    let mt_fits = cold_mt.fits.lock().unwrap();
    assert_eq!(seq_fits.len(), mt_fits.len());
    for (key, state) in seq_fits.iter() {
        let other = &mt_fits[key];
        assert!(
            format!("{state:?}") == format!("{other:?}"),
            "fitted state for {key:?} differs across fit-thread counts"
        );
    }
}

#[test]
fn unrestorable_states_degrade_to_refits() {
    let _serial = serial();
    let config = config();
    let store = SabotagedStore(MemFitStore::default());
    let baseline = run_paper_with_stores(&MeanPaper, &config, None, None).unwrap();
    let cold = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();

    // Warm rerun: MST states come back variant-swapped and fail to
    // restore, so MST refits; GEM states are untouched and serve.
    let before = fits_performed();
    let warm = run_paper_with_stores(&MeanPaper, &config, None, Some(&store)).unwrap();
    let mst_fits = (config.seeds * config.epsilons.len()) as u64;
    assert_eq!(
        fits_performed() - before,
        mst_fits,
        "only the sabotaged synthesizer refits"
    );
    assert!(cold.bitwise_eq(&baseline));
    assert!(warm.bitwise_eq(&baseline));
}
