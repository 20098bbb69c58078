//! GEM fitted-state regression test: a real GEM fit must produce a
//! **byte-identical** canonical-JSON `FittedState` across rewrites of its
//! trainer. The fixture stores only the FNV-1a digest of the encoding, which
//! pins every logit and Adam-moment bit.
//!
//! The digest was generated with the trainer that recomputed every softmax
//! on demand, before the rewrite that computes each one once per step, so a
//! passing run proves the rewrite is bit-identical on a real paper's data.
//!
//! Regenerate it only from the parent commit's code: run this in a checkout
//! of the commit *before* the change under test and copy the digest back.
//! A digest regenerated from the code it checks would prove nothing.
//!
//! ```text
//! SYNRD_GOLDEN_REGEN=1 cargo test --test integration_gem_digest
//! ```

use std::path::PathBuf;
use synrd::benchmark::BenchmarkConfig;
use synrd::publication::publication_by_id;
use synrd_store::{fnv1a64, hex16, JsonCodec};
use synrd_synth::SynthKind;

/// saw2018 at quick scale, fitted by the default GEM at native ε = 1.
#[test]
fn saw2018_gem_fit_digest_is_stable() {
    let paper = publication_by_id("saw2018").expect("registered paper");
    let config = BenchmarkConfig::quick();
    let data = paper.generate(config.rows_for(paper.dataset().paper_n()), config.data_seed);
    let privacy = SynthKind::Gem.native_privacy(1.0, data.n_rows());
    let mut synth = SynthKind::Gem.build();
    synth.fit(&data, privacy, 0).expect("GEM fits saw2018");
    let text = synth.fitted_state().expect("fitted state").to_json_text();
    let digest = format!("{} {} bytes\n", hex16(fnv1a64(text.as_bytes())), text.len());

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gem_fit.digest");
    if std::env::var_os("SYNRD_GOLDEN_REGEN").is_some() {
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
        "GEM's fitted state drifted from the baseline trainer; the trainer is \
         no longer bit-identical (or the codec changed intentionally — then \
         regenerate with SYNRD_GOLDEN_REGEN=1)"
    );
}
