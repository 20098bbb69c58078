//! Report-digest regression tests: `run_paper` must produce a
//! **byte-identical** canonical-JSON [`PaperReport`] across refactors of the
//! numeric substrate. Each fixture stores only the FNV-1a digest of the
//! canonical encoding (the full document is a few hundred KB), which is
//! enough to pin every float bit in every cell.
//!
//! The saw2018 digest was generated *before* the stride-kernel rewrite of
//! `synrd-pgm`, so a passing run proves the rewritten factor algebra is
//! bit-identical to the naive implementation over a full paper pipeline
//! (data generation → DP measurement → mirror descent → sampling → parity).
//! Regenerated once since: the fit-cache PR re-keyed fit seeds by dataset
//! content digest instead of paper id (so papers sharing a dataset share
//! fits), which intentionally changed every cell's draws.
//!
//! The jeong2021 digest was generated with the sort-based tree split search,
//! before the rank/histogram rewrite of `synrd-ml`'s forest: jeong2021 is the
//! one paper whose findings train a random forest on every draw and every
//! control-row resample, so it pins the forest end to end.
//!
//! To regenerate after an *intentional* numeric or schema change:
//!
//! ```text
//! SYNRD_GOLDEN_REGEN=1 cargo test --test integration_report_digest
//! ```

use std::path::PathBuf;
use synrd::benchmark::{run_paper, BenchmarkConfig, PaperReport};
use synrd::publication::publication_by_id;
use synrd_store::{fnv1a64, hex16, JsonCodec};
use synrd_synth::SynthKind;

fn digest_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Small-but-real configuration: both ε values the PGM family cares about,
/// two seeds so the seed-variance path is exercised, no fit timeout so the
/// outcome cannot depend on machine speed.
fn digest_config() -> BenchmarkConfig {
    BenchmarkConfig {
        epsilons: vec![1.0, std::f64::consts::E],
        seeds: 2,
        bootstraps: 2,
        data_scale: 0.05,
        min_rows: 1_500,
        data_seed: 99,
        threads: 4,
        fit_threads: None,
        fit_timeout: None,
        restrict_privmrf: true,
        synthesizers: vec![SynthKind::Mst, SynthKind::Aim],
    }
}

/// Compare the report's canonical bytes against `tests/golden/<file>`.
fn assert_digest(mut report: PaperReport, file: &str) {
    // `fit_seconds` is wall-clock time — the one legitimately
    // nondeterministic field. Zero it so the digest pins every *numeric*
    // output bit (parity, seed variance, statuses, control row) only.
    for row in &mut report.cells {
        for cell in row {
            cell.fit_seconds = 0.0;
        }
    }
    let text = report.to_json_text();
    let digest = format!("{} {} bytes\n", hex16(fnv1a64(text.as_bytes())), text.len());

    let path = digest_path(file);
    if std::env::var_os("SYNRD_GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &digest).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); run with SYNRD_GOLDEN_REGEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        digest, expected,
        "canonical PaperReport bytes drifted from the pre-rewrite baseline; \
         the rewritten kernels are no longer bit-identical (or the schema \
         changed intentionally — then regenerate with SYNRD_GOLDEN_REGEN=1)"
    );
}

#[test]
fn saw2018_report_digest_is_stable() {
    let paper = publication_by_id("saw2018").expect("registered paper");
    let report = run_paper(paper.as_ref(), &digest_config()).expect("grid runs");
    assert_digest(report, "saw2018_report.digest");
}

#[test]
fn jeong2021_report_digest_is_stable() {
    let paper = publication_by_id("jeong2021").expect("registered paper");
    let config = BenchmarkConfig {
        epsilons: vec![1.0],
        seeds: 1,
        bootstraps: 2,
        threads: 2,
        synthesizers: vec![SynthKind::PrivBayes, SynthKind::Mst],
        ..digest_config()
    };
    let report = run_paper(paper.as_ref(), &config).expect("grid runs");
    assert_digest(report, "jeong2021_report.digest");
}

/// The bootstrap control row evaluates its resamples on the grid's worker
/// pool when `threads > 1`; its replicate rows are drawn sequentially from
/// one keystream, so the row must be bit-identical at any thread count.
#[test]
fn control_row_is_bitwise_equal_across_thread_counts() {
    for id in ["saw2018", "jeong2021"] {
        let paper = publication_by_id(id).expect("registered paper");
        let control = |threads: usize| {
            let config = BenchmarkConfig {
                threads,
                synthesizers: Vec::new(),
                ..digest_config()
            };
            run_paper(paper.as_ref(), &config)
                .expect("control row runs")
                .control
        };
        let sequential = control(1);
        let parallel = control(2);
        assert_eq!(sequential.len(), paper.findings().len());
        assert!(
            sequential
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{id}: control row differs between 1 and 2 threads: \
             {sequential:?} vs {parallel:?}"
        );
    }
}
