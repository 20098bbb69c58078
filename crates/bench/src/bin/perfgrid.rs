//! Records the kernel performance trajectory to `BENCH_pgm.json` (factor
//! algebra), `BENCH_marginal.json` (marginal-counting engine),
//! `BENCH_sampling.json` (row-generation engine), `BENCH_dataset.json`
//! (bit-packed columnar storage), `BENCH_ml.json` (batched MLP kernels
//! and the jeong2021 random-forest fit), `BENCH_fit.json` (intra-fit
//! parallelism and GEM's trainer) and `BENCH_eval.json` (finding
//! evaluation: subgroup row views and the logistic IRLS kernels).
//!
//! Times a small fixed grid of calibration problems through both factor
//! algebras — the stride kernels that power production and the retained
//! naive-reference oracle (`naive-reference` feature) — plus end-to-end
//! mirror descent and sampler construction; then the data side: the
//! synthesizer selection paths (AIM round loops, MST's all-pairs sweep)
//! through the `MarginalEngine` vs the naive per-row counter; then the
//! sampling side: batched clique-major `TreeSampler::sample_columns` vs
//! the retained per-row oracle, with batched-vs-naive and
//! parallel-vs-sequential bit-identity asserted on every problem; and
//! finally the storage side: the packed-word counting kernels vs the
//! retained `u32`-slice kernel on the same fused sweeps, decode throughput,
//! and packed-vs-unpacked bytes per row across the ten registry datasets.
//! Results are written as canonical JSON (via `synrd-store`) so the repo
//! carries a comparable perf record from PR to PR.
//!
//! ```text
//! cargo run --release -p synrd-bench --bin perfgrid \
//!     [--quick] [--out PATH] [--marginal-out PATH] [--sampling-out PATH] \
//!     [--dataset-out PATH] [--ml-out PATH] [--fit-out PATH] [--eval-out PATH]
//! ```
//!
//! `--quick` shrinks repetitions for CI smoke runs; the JSON schemas are
//! identical. Timings are medians over repeated runs; `speedup` is
//! `naive_ns / engine_ns` for the same problem.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use synrd_data::{Marginal, MarginalEngine};
use synrd_pgm::{
    calibrate_into, calibrate_naive, estimate, estimate_naive, factor_buffer_allocs,
    CalibratedTree, CalibrationWorkspace, EstimationOptions, Factor, FittedModel, JunctionTree,
    NoisyMeasurement, SamplingWorkspace, TreeSampler,
};
use synrd_store::JsonValue;

/// One calibration problem of the fixed grid.
struct Problem {
    name: String,
    tree: JunctionTree,
    pots: Vec<Factor>,
}

/// Chain of adjacent pairs over `d` attributes of cardinality `card`
/// (shared with the criterion benches via [`synrd_bench::pgm_chain_problem`]).
fn chain(d: usize, card: usize) -> Problem {
    let (tree, pots) = synrd_bench::pgm_chain_problem(d, card);
    Problem {
        name: format!("chain-d{d}-c{card}"),
        tree,
        pots,
    }
}

/// Overlapping triples (width-3 cliques) over `d` attributes.
fn triples(d: usize, card: usize) -> Problem {
    let (tree, pots) = synrd_bench::pgm_triples_problem(d, card);
    Problem {
        name: format!("triples-d{d}-c{card}"),
        tree,
        pots,
    }
}

/// Median wall time (ns) of `reps` timed runs of `body`.
fn median_ns(reps: usize, mut body: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// The marginal-engine half of the perf record: time the synthesizer
/// selection paths through the engine vs the naive counter and write
/// `BENCH_marginal.json`. Returns the minimum selection-path speedup.
fn marginal_section(quick: bool, out_path: &str) -> f64 {
    let rows = if quick { 40_000 } else { 120_000 };
    let d = 12usize;
    let shape = synrd_bench::marginal_bench_shape(d);
    let data = synrd_bench::marginal_bench_dataset(rows, &shape);
    let reps = if quick { 5 } else { 15 };
    let pairs: Vec<Vec<usize>> = (0..d)
        .flat_map(|a| ((a + 1)..d).map(move |b| vec![a, b]))
        .collect();
    let one_ways: Vec<Vec<usize>> = (0..d).map(|a| vec![a]).collect();
    let mut bench_rows = Vec::new();
    let mut selection_speedups = Vec::new();

    // Sweep benches: a batch of attribute sets counted once — naive loops
    // over per-set row scans, the engine answers the batch in fused sweeps.
    let sweeps: [(&str, &[Vec<usize>], bool); 2] = [
        ("one-way-sweep", &one_ways, false),
        ("mst-pairs", &pairs, true), // MST phase 2: all O(d²) joints
    ];
    for (name, sets, is_selection) in sweeps {
        let naive_ns = median_ns(reps, || {
            let mut sink = 0.0;
            for attrs in sets {
                sink += Marginal::count_naive(&data, attrs).expect("count").total();
            }
            black_box(sink);
        });
        let engine_ns = median_ns(reps, || {
            let mut engine = MarginalEngine::new(&data);
            let batch = engine.count_many(sets).expect("count");
            black_box(batch.iter().map(Marginal::total).sum::<f64>());
        });
        let speedup = naive_ns / engine_ns;
        if is_selection {
            selection_speedups.push(speedup);
        }
        println!(
            "marginal   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
            name, engine_ns, naive_ns, speedup
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("sets", JsonValue::Uint(sets.len() as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
        ]));
    }

    // AIM round loop: every round re-scores the whole pair workload against
    // the (unchanged) true counts. The naive path recounts per round; the
    // engine counts once and serves rounds 2..R from the cache.
    let rounds = 5usize;
    let naive_ns = median_ns(reps, || {
        let mut sink = 0.0;
        for _ in 0..rounds {
            for attrs in &pairs {
                sink += Marginal::count_naive(&data, attrs).expect("count").total();
            }
        }
        black_box(sink);
    });
    let engine_ns = median_ns(reps, || {
        let mut engine = MarginalEngine::new(&data);
        let mut sink = 0.0;
        for _ in 0..rounds {
            for attrs in &pairs {
                sink += engine.count(attrs).expect("count").total();
            }
        }
        black_box(sink);
    });
    let aim_speedup = naive_ns / engine_ns;
    selection_speedups.push(aim_speedup);
    let aim_name = format!("aim-round-loop-x{rounds}");
    println!(
        "marginal   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
        aim_name, engine_ns, naive_ns, aim_speedup
    );
    bench_rows.push(JsonValue::obj(vec![
        ("name", JsonValue::Str(aim_name)),
        ("sets", JsonValue::Uint(pairs.len() as u64)),
        ("rounds", JsonValue::Uint(rounds as u64)),
        ("engine_ns", JsonValue::Num(engine_ns)),
        ("naive_ns", JsonValue::Num(naive_ns)),
        ("speedup", JsonValue::Num(aim_speedup)),
    ]));

    let selection_min = selection_speedups
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-marginal/1".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        ("attrs", JsonValue::Uint(d as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("selection_speedup_min", JsonValue::Num(selection_min)),
                ("aim_round_loop_speedup", JsonValue::Num(aim_speedup)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_marginal.json");
    println!("wrote {out_path} (min selection-path speedup {selection_min:.2}x)");
    selection_min
}

/// Mirror-descent fit of chain-pair measurements over `d` attributes of
/// cardinality `card` (the MST/AIM measurement shape).
fn fitted_chain(d: usize, card: usize) -> FittedModel {
    let domain = vec![card; d];
    let ms: Vec<NoisyMeasurement> = (0..d - 1)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..card * card)
                .map(|k| 60.0 + 17.0 * (k as f64).sin())
                .collect(),
            sigma: 2.0,
        })
        .collect();
    fit(&domain, ms)
}

/// Same, with overlapping width-3 cliques (the PrivMRF triple shape).
fn fitted_triples(d: usize, card: usize) -> FittedModel {
    let domain = vec![card; d];
    let ms: Vec<NoisyMeasurement> = (0..d - 2)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1, a + 2],
            values: (0..card * card * card)
                .map(|k| 45.0 + 11.0 * (k as f64 * 0.7).cos())
                .collect(),
            sigma: 2.0,
        })
        .collect();
    fit(&domain, ms)
}

fn fit(domain: &[usize], ms: Vec<NoisyMeasurement>) -> FittedModel {
    estimate(
        domain,
        &ms,
        EstimationOptions {
            iterations: 40,
            initial_step: 1.0,
            cell_limit: 1 << 21,
            fit_threads: 1,
        },
    )
    .expect("fit")
}

/// The sampling-engine third of the perf record: batched clique-major
/// `sample_columns` vs the retained per-row oracle on fitted models, with
/// bit-identity (batched vs naive, parallel vs sequential) asserted on
/// every problem. Writes `BENCH_sampling.json`; returns the minimum
/// `sample_columns` speedup.
fn sampling_section(quick: bool, out_path: &str) -> f64 {
    let rows = if quick { 30_000 } else { 100_000 };
    let reps = if quick { 5 } else { 11 };
    let problems: Vec<(String, FittedModel)> = vec![
        ("chain-d10-c4".to_string(), fitted_chain(10, 4)),
        ("chain-d6-c10".to_string(), fitted_chain(6, 10)),
        ("triples-d8-c4".to_string(), fitted_triples(8, 4)),
    ];
    let mut bench_rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, model) in &problems {
        let sampler = TreeSampler::new(model).expect("sampler");
        // Bit-identity first (batched vs oracle, chunk-parallel vs
        // sequential), on the same seed the timings use.
        let batched = sampler.sample_columns(rows, &mut StdRng::seed_from_u64(17));
        let naive = sampler.sample_columns_naive(rows, &mut StdRng::seed_from_u64(17));
        assert_eq!(batched, naive, "{name}: batched != naive");
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        let chunked = pool.install(|| {
            sampler.sample_columns_chunked(rows, &mut StdRng::seed_from_u64(17), rows / 7 + 1)
        });
        assert_eq!(batched, chunked, "{name}: parallel != sequential");

        let mut ws = SamplingWorkspace::new();
        let engine_ns = median_ns(reps, || {
            let cols = sampler.sample_columns_with(rows, &mut StdRng::seed_from_u64(17), &mut ws);
            black_box(cols[0][rows - 1]);
        });
        let naive_ns = median_ns(reps, || {
            let cols = sampler.sample_columns_naive(rows, &mut StdRng::seed_from_u64(17));
            black_box(cols[0][rows - 1]);
        });
        let speedup = naive_ns / engine_ns;
        speedups.push(speedup);
        let rows_per_s = rows as f64 / (engine_ns * 1e-9);
        println!(
            "sampling   {:<14} engine {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x   \
             ({:.1}M rows/s)",
            name,
            engine_ns,
            naive_ns,
            speedup,
            rows_per_s / 1e6
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.clone())),
            (
                "cliques",
                JsonValue::Uint(model.tree().cliques().len() as u64),
            ),
            ("rows", JsonValue::Uint(rows as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("rows_per_second", JsonValue::Num(rows_per_s)),
            ("bit_identical", JsonValue::Bool(true)),
            ("parallel_bit_identical", JsonValue::Bool(true)),
        ]));
    }
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-sampling/1".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("sample_columns_speedup_min", JsonValue::Num(min_speedup)),
                ("sample_columns_speedup_geomean", JsonValue::Num(geomean)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_sampling.json");
    println!("wrote {out_path} (min sample_columns speedup {min_speedup:.2}x)");
    min_speedup
}

/// The dataset-storage quarter of the perf record: the packed block-decode
/// counting kernels vs the retained `u32`-slice kernel on the same fused
/// sweeps (bit-identity asserted first), bulk decode throughput, and
/// packed-vs-unpacked bytes per row across the ten registry datasets.
/// Writes `BENCH_dataset.json`; returns `(marginal sweep speedup, min
/// bytes-per-row compression ratio)`.
fn dataset_section(quick: bool, out_path: &str) -> (f64, f64) {
    use synrd_data::engine::unpacked::count_many_unpacked;
    use synrd_data::{BenchmarkDataset, ColumnAccess, DEFAULT_CELL_LIMIT};

    let rows = if quick { 40_000 } else { 120_000 };
    let d = 12usize;
    let shape = synrd_bench::marginal_bench_shape(d);
    let data = synrd_bench::marginal_bench_dataset(rows, &shape);
    let columns = data.to_columns();
    let reps = if quick { 5 } else { 15 };
    let one_ways: Vec<Vec<usize>> = (0..d).map(|a| vec![a]).collect();
    let pairs: Vec<Vec<usize>> = (0..d)
        .flat_map(|a| ((a + 1)..d).map(move |b| vec![a, b]))
        .collect();
    let mut bench_rows = Vec::new();
    let mut marginal_sweep_speedup = f64::INFINITY;

    // Packed kernels vs the retained u32-slice kernel, on the same fused
    // batches the synthesizers issue. Bit-identity first, then timings.
    // The marginal sweep is the gated metric: its bit-sliced counting is
    // the kernel shape packing enables. The pair sweep is recorded as
    // context — it is histogram-bump-bound, so packing trades decode cost
    // for smaller streams and lands near parity by construction.
    let sweeps: [(&str, &[Vec<usize>], bool); 2] = [
        ("marginal-sweep", &one_ways, true),
        ("pair-sweep", &pairs, false),
    ];
    for (name, sets, gated) in sweeps {
        let packed_tables = MarginalEngine::new(&data)
            .count_many(sets)
            .expect("packed count");
        let unpacked_tables =
            count_many_unpacked(data.domain(), &columns, sets, DEFAULT_CELL_LIMIT)
                .expect("unpacked count");
        assert_eq!(packed_tables, unpacked_tables, "{name}: packed != unpacked");

        let packed_ns = median_ns(reps, || {
            let mut engine = MarginalEngine::new(&data);
            let batch = engine.count_many(sets).expect("count");
            black_box(batch.iter().map(Marginal::total).sum::<f64>());
        });
        let unpacked_ns = median_ns(reps, || {
            let batch = count_many_unpacked(data.domain(), &columns, sets, DEFAULT_CELL_LIMIT)
                .expect("count");
            black_box(batch.iter().map(Marginal::total).sum::<f64>());
        });
        let speedup = unpacked_ns / packed_ns;
        if gated {
            marginal_sweep_speedup = marginal_sweep_speedup.min(speedup);
        }
        println!(
            "dataset    {:<14} packed {:>10.0} ns   u32 {:>12.0} ns   speedup {:>5.2}x",
            name, packed_ns, unpacked_ns, speedup
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("sets", JsonValue::Uint(sets.len() as u64)),
            ("packed_ns", JsonValue::Num(packed_ns)),
            ("unpacked_ns", JsonValue::Num(unpacked_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
        ]));
    }

    // Bulk decode throughput: unpack every column of the bench grid into a
    // reused scratch buffer (the consumer path for per-code readers).
    let mut scratch = Vec::new();
    let decode_ns = median_ns(reps, || {
        let mut sink = 0u64;
        for a in 0..d {
            data.decode_column_into(a, &mut scratch).expect("decode");
            sink = sink.wrapping_add(u64::from(scratch[rows - 1]));
        }
        black_box(sink);
    });
    let decoded_codes = (rows * d) as f64;
    let decode_rate = decoded_codes / (decode_ns * 1e-9);
    println!(
        "dataset    {:<14} decode {:>10.0} ns   ({:.0}M codes/s)",
        "decode-all",
        decode_ns,
        decode_rate / 1e6
    );

    // Storage footprint across the registry: packed words vs the 4-byte
    // codes the pre-packing Dataset stored, per dataset and per row.
    let reg_rows = if quick { 5_000 } else { 20_000 };
    let mut registry_rows = Vec::new();
    let mut min_ratio = f64::INFINITY;
    for bd in BenchmarkDataset::ALL {
        let ds = bd.generate(reg_rows, 11);
        let packed = ds.packed_bytes();
        let unpacked = ds.unpacked_bytes();
        let ratio = unpacked as f64 / packed as f64;
        min_ratio = min_ratio.min(ratio);
        let packed_per_row = packed as f64 / reg_rows as f64;
        // Aggregate code width across the domain, in bits per row.
        let bits_per_row: usize = (0..ds.n_attrs())
            .map(|a| ds.packed_column(a).expect("attr").width() as usize)
            .sum();
        println!(
            "dataset    {:<14} packed {:>6.1} B/row   u32 {:>5} B/row   ratio {:>5.2}x   \
             ({} bits)",
            bd.id(),
            packed_per_row,
            ds.n_attrs() * 4,
            ratio,
            bits_per_row
        );
        registry_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(bd.id().to_string())),
            ("attrs", JsonValue::Uint(ds.n_attrs() as u64)),
            ("rows", JsonValue::Uint(reg_rows as u64)),
            ("packed_bytes", JsonValue::Uint(packed as u64)),
            ("unpacked_bytes", JsonValue::Uint(unpacked as u64)),
            ("packed_bytes_per_row", JsonValue::Num(packed_per_row)),
            ("code_bits_per_row", JsonValue::Uint(bits_per_row as u64)),
            ("compression_ratio", JsonValue::Num(ratio)),
        ]));
    }

    let doc = JsonValue::obj(vec![
        (
            "schema",
            JsonValue::Str("synrd-bench-dataset/1".to_string()),
        ),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("rows", JsonValue::Uint(rows as u64)),
        ("attrs", JsonValue::Uint(d as u64)),
        (
            "threads",
            JsonValue::Uint(rayon::current_num_threads() as u64),
        ),
        ("sweeps", JsonValue::Arr(bench_rows)),
        (
            "decode",
            JsonValue::obj(vec![
                ("decode_ns", JsonValue::Num(decode_ns)),
                ("codes", JsonValue::Num(decoded_codes)),
                ("codes_per_second", JsonValue::Num(decode_rate)),
            ]),
        ),
        ("registry", JsonValue::Arr(registry_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                (
                    "marginal_sweep_speedup",
                    JsonValue::Num(marginal_sweep_speedup),
                ),
                ("compression_ratio_min", JsonValue::Num(min_ratio)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_dataset.json");
    println!(
        "wrote {out_path} (marginal sweep speedup {marginal_sweep_speedup:.2}x, \
         min compression {min_ratio:.2}x)"
    );
    (marginal_sweep_speedup, min_ratio)
}

/// The jeong2021 forest fit: the training split of the quick-scale
/// generator dataset, as the paper's pipeline featurizes and splits it
/// (`synrd::papers::jeong2021::pipeline_split`), fitted with the
/// pipeline's options (20 trees, depth 8, min split 10, √d features) and
/// RNG stream through the rank/histogram forest and the retained
/// sort-based oracle. Bit-identity of the predictions on the test
/// split and of the RNG end state is asserted before timing. Returns the
/// record row and the speedup over the oracle.
fn forest_leg(quick: bool) -> (JsonValue, f64) {
    use rand::Rng;
    use synrd::papers::jeong2021::{pipeline_split, FOREST_OPTIONS};
    use synrd_data::BenchmarkDataset;
    use synrd_ml::RandomForest;

    let dataset = BenchmarkDataset::Jeong2021;
    let config = synrd::benchmark::BenchmarkConfig::quick();
    let ds = dataset.generate(config.rows_for(dataset.paper_n()), config.data_seed);
    let split = pipeline_split(&ds).expect("jeong2021 pipeline split");
    let (xtr, ytr, xte) = (&split.x_train, &split.y_train, &split.x_test);
    let options = FOREST_OPTIONS;
    let fit_rng = || split.rng.clone();
    let (mut a, mut b) = (fit_rng(), fit_rng());
    let binned = RandomForest::fit(xtr, ytr, options, &mut a).expect("forest fit");
    let naive = RandomForest::fit_naive(xtr, ytr, options, &mut b).expect("forest fit");
    let bits = |f: &RandomForest| -> Vec<u64> {
        f.predict_proba(xte).iter().map(|p| p.to_bits()).collect()
    };
    assert_eq!(
        bits(&binned),
        bits(&naive),
        "forest: binned predictions != sort-based oracle"
    );
    assert_eq!(
        a.gen::<u64>(),
        b.gen::<u64>(),
        "forest: binned fit consumed a different RNG stream"
    );

    let reps = if quick { 7 } else { 31 };
    let binned_ns = median_ns(reps, || {
        let mut rng = fit_rng();
        black_box(RandomForest::fit(xtr, ytr, options, &mut rng).expect("forest fit"));
    });
    let naive_ns = median_ns(reps, || {
        let mut rng = fit_rng();
        black_box(RandomForest::fit_naive(xtr, ytr, options, &mut rng).expect("forest fit"));
    });
    let speedup = naive_ns / binned_ns;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "ml         {:<14} binned {:>9.0} ns   naive {:>10.0} ns   speedup {:>5.2}x   \
         ({} x {}, 20 trees, nproc {nproc})",
        "jeong2021-rf",
        binned_ns,
        naive_ns,
        speedup,
        xtr.len(),
        xtr[0].len()
    );
    let record = JsonValue::obj(vec![
        ("name", JsonValue::Str("jeong2021-rf".to_string())),
        ("rows", JsonValue::Uint(xtr.len() as u64)),
        ("features", JsonValue::Uint(xtr[0].len() as u64)),
        ("n_trees", JsonValue::Uint(options.n_trees as u64)),
        ("max_depth", JsonValue::Uint(options.tree.max_depth as u64)),
        (
            "min_samples_split",
            JsonValue::Uint(options.tree.min_samples_split as u64),
        ),
        ("binned_ns", JsonValue::Num(binned_ns)),
        ("naive_ns", JsonValue::Num(naive_ns)),
        ("speedup", JsonValue::Num(speedup)),
        ("bit_identical", JsonValue::Bool(true)),
        ("nproc", JsonValue::Uint(nproc as u64)),
    ]);
    (record, speedup)
}

/// The ML-kernel fifth of the perf record: one PATECTGAN-shaped training
/// round (batched forward + one minibatch Adam step at batch 48) through
/// the batched `BatchWorkspace` kernels vs the retained per-example oracle,
/// plus `SimdBackend` vs `CpuBackend` on the same rounds, with bit-identity
/// of the fitted states asserted on every shape and every registered
/// backend before timing; then the jeong2021 forest fit ([`forest_leg`]).
/// Writes `BENCH_ml.json`; returns (minimum gated round speedup over the
/// oracle, minimum gated SimdBackend-over-CpuBackend speedup — `+inf` when
/// SIMD is unsupported on this CPU — and the forest speedup over its
/// oracle).
fn ml_section(quick: bool, out_path: &str) -> (f64, f64, f64) {
    use synrd_ml::backend::{detected_cpu_features, registered_backends};
    use synrd_ml::{Activation, AnyBackend, BatchWorkspace, Mlp, SimdBackend};

    let batch = 48usize;
    let reps = if quick { 51 } else { 201 };
    let identity_rounds = 5usize;
    let simd = SimdBackend::supported();
    let features: Vec<String> = detected_cpu_features()
        .iter()
        .map(|(name, on)| format!("{}{}", if *on { "+" } else { "-" }, name))
        .collect();
    println!(
        "ml         cpu features [{}]   simd backend {}",
        features.join(" "),
        if simd { "supported" } else { "unsupported" }
    );
    // The two generator shapes bracket the one-hot widths the benchmark
    // grid produces (saw2018-scale and a wide domain); all three shapes
    // gate the batched-over-oracle speedup now that the student pass also
    // routes through the backend seam, while the SIMD-over-CPU gate binds
    // on the generator shapes only (the student's 1-wide output layer gives
    // SIMD little to chew on).
    let shapes: [(&str, Vec<usize>, Activation, bool); 3] = [
        ("generator-o96", vec![16, 64, 96], Activation::Linear, true),
        (
            "generator-o320",
            vec![16, 64, 320],
            Activation::Linear,
            true,
        ),
        ("student-o96", vec![96, 64, 1], Activation::Sigmoid, false),
    ];
    let mut bench_rows = Vec::new();
    let mut gated_speedups = Vec::new();
    let mut gated_simd_speedups = Vec::new();
    for (name, sizes, act, simd_gated) in shapes {
        let mut rng = StdRng::seed_from_u64(33);
        let net = Mlp::new(&sizes, act, &mut rng);
        let n_in = batch * sizes[0];
        let n_out = batch * sizes[sizes.len() - 1];
        let xs: Vec<f64> = (0..n_in).map(|i| (i as f64 * 0.137).sin()).collect();
        let grads: Vec<f64> = (0..n_out).map(|i| (i as f64 * 0.061).cos() * 0.1).collect();

        // Bit-identity first: N batched rounds on every registered backend
        // vs N per-example-oracle rounds from the same initial state must
        // land on the same weights, Adam moments and step counter, bit for
        // bit.
        let mut naive = net.clone();
        for _ in 0..identity_rounds {
            let caches = naive.forward_batch_naive(&xs, batch);
            naive.backward_apply_batch_naive(&caches, &grads);
        }
        for backend in registered_backends() {
            let mut batched = net.clone();
            let mut ws = BatchWorkspace::with_backend(backend);
            for _ in 0..identity_rounds {
                batched.forward_batch(&xs, batch, &mut ws);
                batched.backward_apply_batch(&mut ws, &grads);
            }
            assert_eq!(
                batched.export_state(),
                naive.export_state(),
                "{name}: {} batched round != per-example oracle",
                backend.name()
            );
        }

        // Timings: one full round per rep, workspace already warm. The
        // oracle comparison is pinned to CpuBackend so the record stays
        // comparable across machines with and without SIMD.
        let mut ws = BatchWorkspace::with_backend(AnyBackend::Cpu);
        let mut cpu_net = net.clone();
        let engine_ns = median_ns(reps, || {
            cpu_net.forward_batch(&xs, batch, &mut ws);
            cpu_net.backward_apply_batch(&mut ws, &grads);
            black_box(ws.output().len());
        });
        let simd_ns = simd.then(|| {
            let mut ws = BatchWorkspace::with_backend(AnyBackend::Simd);
            let mut simd_net = net.clone();
            median_ns(reps, || {
                simd_net.forward_batch(&xs, batch, &mut ws);
                simd_net.backward_apply_batch(&mut ws, &grads);
                black_box(ws.output().len());
            })
        });
        let mut naive_net = net;
        let naive_ns = median_ns(reps, || {
            let caches = naive_net.forward_batch_naive(&xs, batch);
            naive_net.backward_apply_batch_naive(&caches, &grads);
            black_box(caches.len());
        });
        let speedup = naive_ns / engine_ns;
        gated_speedups.push(speedup);
        let simd_speedup = simd_ns.map(|ns| engine_ns / ns);
        if simd_gated {
            if let Some(s) = simd_speedup {
                gated_simd_speedups.push(s);
            }
        }
        println!(
            "ml         {:<14} cpu {:>9.0} ns   naive {:>10.0} ns   speedup {:>5.2}x   \
             simd {}",
            name,
            engine_ns,
            naive_ns,
            speedup,
            match (simd_ns, simd_speedup) {
                (Some(ns), Some(s)) => format!("{ns:>9.0} ns ({s:.2}x over cpu)"),
                _ => "unsupported".to_string(),
            }
        );
        let mut row = vec![
            ("name", JsonValue::Str(name.to_string())),
            (
                "layers",
                JsonValue::Arr(sizes.iter().map(|&s| JsonValue::Uint(s as u64)).collect()),
            ),
            ("batch", JsonValue::Uint(batch as u64)),
            ("engine_ns", JsonValue::Num(engine_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
            ("gated", JsonValue::Bool(true)),
            ("simd_gated", JsonValue::Bool(simd_gated)),
        ];
        if let (Some(ns), Some(s)) = (simd_ns, simd_speedup) {
            row.push(("simd_ns", JsonValue::Num(ns)));
            row.push(("simd_speedup", JsonValue::Num(s)));
            row.push(("simd_bit_identical", JsonValue::Bool(true)));
        }
        bench_rows.push(JsonValue::obj(row));
    }
    let min_speedup = gated_speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean =
        (gated_speedups.iter().map(|s| s.ln()).sum::<f64>() / gated_speedups.len() as f64).exp();
    let simd_min = gated_simd_speedups
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let mut summary = vec![
        ("round_speedup_min", JsonValue::Num(min_speedup)),
        ("round_speedup_geomean", JsonValue::Num(geomean)),
        ("simd_supported", JsonValue::Bool(simd)),
    ];
    if !gated_simd_speedups.is_empty() {
        let simd_geomean = (gated_simd_speedups.iter().map(|s| s.ln()).sum::<f64>()
            / gated_simd_speedups.len() as f64)
            .exp();
        summary.push(("simd_over_cpu_min", JsonValue::Num(simd_min)));
        summary.push(("simd_over_cpu_geomean", JsonValue::Num(simd_geomean)));
    }
    let (forest, forest_speedup) = forest_leg(quick);
    summary.push(("forest_speedup", JsonValue::Num(forest_speedup)));
    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-ml/3".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("batch", JsonValue::Uint(batch as u64)),
        ("benches", JsonValue::Arr(bench_rows)),
        ("forest", forest),
        ("summary", JsonValue::obj(summary)),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_ml.json");
    println!(
        "wrote {out_path} (min round speedup {min_speedup:.2}x, min simd-over-cpu {simd_min:.2}x, \
         forest {forest_speedup:.2}x)"
    );
    (min_speedup, simd_min, forest_speedup)
}

/// A descent-dominated calibration problem: overlapping triples where every
/// clique carries its triple marginal, all three pairs and all three
/// singletons (≈7 targets per clique, the AIM/MST regime in which
/// `loss_and_grad`'s per-measurement phases dominate the iteration).
fn rich_problem(d: usize, card: usize) -> (Vec<usize>, Vec<NoisyMeasurement>) {
    let domain = vec![card; d];
    let meas = |attrs: Vec<usize>| {
        let cells: usize = attrs.iter().map(|&a| domain[a]).product();
        NoisyMeasurement {
            values: (0..cells)
                .map(|k| 80.0 + 23.0 * ((k + attrs[0]) as f64).sin())
                .collect(),
            sigma: 2.0,
            attrs,
        }
    };
    let mut ms = Vec::new();
    for a in (0..d - 2).step_by(2) {
        ms.push(meas(vec![a, a + 1, a + 2]));
        ms.push(meas(vec![a, a + 1]));
        ms.push(meas(vec![a, a + 2]));
        ms.push(meas(vec![a + 1, a + 2]));
    }
    for a in 0..d {
        ms.push(meas(vec![a]));
    }
    (domain, ms)
}

/// GEM's trainer: the quick-scale saw2018 and jeong2021 datasets
/// (`BenchmarkConfig::quick()` rows and data seed) fitted by the default
/// GEM at native ε = 1, on one thread, through `fit_with` (each softmax
/// once per step) and the retained `fit_naive` oracle. Bit-identity of the
/// fitted states and of a sample is asserted before timing. Returns the
/// record rows and the minimum speedup over the oracle.
fn gem_leg(quick: bool) -> (Vec<JsonValue>, f64) {
    use synrd::benchmark::BenchmarkConfig;
    use synrd::publication_by_id;
    use synrd_store::JsonCodec;
    use synrd_synth::{FitContext, Gem, SynthKind, Synthesizer};

    let config = BenchmarkConfig::quick();
    let reps = if quick { 3 } else { 7 };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = FitContext::sequential();
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for id in ["saw2018", "jeong2021"] {
        let paper = publication_by_id(id).expect("registered paper");
        let data = paper.generate(config.rows_for(paper.dataset().paper_n()), config.data_seed);
        let privacy = SynthKind::Gem.native_privacy(1.0, data.n_rows());
        let fit = |naive: bool| {
            let mut gem = Gem::default();
            if naive {
                gem.fit_naive(&data, privacy, 0, ctx)
            } else {
                gem.fit_with(&data, privacy, 0, ctx)
            }
            .expect("GEM fit");
            gem
        };
        let (new, naive) = (fit(false), fit(true));
        let state = |gem: &Gem| gem.fitted_state().expect("fitted").to_json_text();
        assert_eq!(
            state(&new),
            state(&naive),
            "{id}: GEM fitted state != naive oracle"
        );
        assert_eq!(
            new.sample(2_000, 1).expect("sample"),
            naive.sample(2_000, 1).expect("sample"),
            "{id}: GEM sample != naive oracle"
        );
        let new_ns = median_ns(reps, || {
            black_box(fit(false));
        });
        let naive_ns = median_ns(reps, || {
            black_box(fit(true));
        });
        let speedup = naive_ns / new_ns;
        min_speedup = min_speedup.min(speedup);
        let name = format!("{id}-gem");
        println!(
            "fit        {name:<14} new {new_ns:>12.0} ns   naive {naive_ns:>12.0} ns   speedup {speedup:>5.2}x   \
             ({} x {}, nproc {nproc})",
            data.n_rows(),
            data.n_attrs()
        );
        rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name)),
            ("rows", JsonValue::Uint(data.n_rows() as u64)),
            ("attrs", JsonValue::Uint(data.n_attrs() as u64)),
            ("fit_threads", JsonValue::Uint(1)),
            ("new_ns", JsonValue::Num(new_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
            ("nproc", JsonValue::Uint(nproc as u64)),
        ]));
    }
    (rows, min_speedup)
}

/// Intra-fit parallelism: sequential vs 8-thread mirror descent on
/// descent-dominated shapes (bit-identity asserted before any timing), plus
/// the two-level core-budget grid leg and GEM's trainer ([`gem_leg`]);
/// writes `BENCH_fit.json`. Returns `(min single-cell speedup at 8 threads,
/// grid plain/budget wall ratio, min GEM speedup over its oracle)`.
fn fit_section(quick: bool, out_path: &str) -> (f64, f64, f64) {
    use synrd::benchmark::{run_paper, BenchmarkConfig};
    use synrd::publication_by_id;
    use synrd_synth::SynthKind;

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mt = 8usize;
    let est_reps = if quick { 3 } else { 7 };
    // Cardinalities are chosen so each parallel region carries millisecond-
    // scale marginalization work — enough to amortize the per-region thread
    // spawns the eager rayon shim pays.
    let shapes = [("rich-d8-c14", 8usize, 14usize), ("rich-d6-c16", 6, 16)];
    let mut bench_rows = Vec::new();
    let mut speedups = Vec::new();
    for (name, d, card) in shapes {
        let (domain, ms) = rich_problem(d, card);
        let opts = EstimationOptions {
            iterations: if quick { 25 } else { 80 },
            initial_step: 1.0,
            cell_limit: 1 << 21,
            fit_threads: 1,
        };
        let mt_opts = EstimationOptions {
            fit_threads: mt,
            ..opts
        };
        // Bit-identity first, always — the speedup gate may be host-gated,
        // the reduction-order contract never is.
        let seq_model = estimate(&domain, &ms, opts).expect("fit");
        let mt_model = estimate(&domain, &ms, mt_opts).expect("fit");
        assert_eq!(
            seq_model.calibrated().beliefs,
            mt_model.calibrated().beliefs,
            "{name}: {mt}-thread descent changed the fitted beliefs"
        );
        assert_eq!(
            seq_model.final_loss().to_bits(),
            mt_model.final_loss().to_bits(),
            "{name}: {mt}-thread descent changed the final loss"
        );
        let mut seq_ws = CalibrationWorkspace::new();
        let mut mt_ws = CalibrationWorkspace::new();
        // Warm both workspaces so timings reflect steady state.
        synrd_pgm::estimate_with(&domain, &ms, opts, &mut seq_ws).expect("fit");
        synrd_pgm::estimate_with(&domain, &ms, mt_opts, &mut mt_ws).expect("fit");
        let seq_ns = median_ns(est_reps, || {
            synrd_pgm::estimate_with(&domain, &ms, opts, &mut seq_ws).expect("fit");
        });
        let mt_ns = median_ns(est_reps, || {
            synrd_pgm::estimate_with(&domain, &ms, mt_opts, &mut mt_ws).expect("fit");
        });
        let speedup = seq_ns / mt_ns;
        speedups.push(speedup);
        println!(
            "fit        {name:<14} 1-thread {seq_ns:>10.0} ns   {mt}-thread {mt_ns:>10.0} ns   speedup {speedup:>5.2}x"
        );
        bench_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(name.to_string())),
            ("measurements", JsonValue::Uint(ms.len() as u64)),
            ("iterations", JsonValue::Uint(opts.iterations as u64)),
            ("seq_ns", JsonValue::Num(seq_ns)),
            ("mt_ns", JsonValue::Num(mt_ns)),
            ("speedup", JsonValue::Num(speedup)),
            ("bit_identical", JsonValue::Bool(true)),
        ]));
    }
    let fit_min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);

    // Full-grid leg: the two-level core budget (grid workers + intra-fit
    // allowance from the same pool) must not lose to cells-only
    // parallelism. Reports are asserted bitwise equal first.
    let paper = publication_by_id("fruiht2018").expect("registered paper");
    let base = BenchmarkConfig {
        epsilons: vec![1.0, std::f64::consts::E],
        seeds: 1,
        bootstraps: 1,
        data_scale: 0.02,
        min_rows: 500,
        data_seed: 11,
        threads: host_threads.min(8),
        fit_threads: Some(1),
        fit_timeout: None,
        restrict_privmrf: true,
        synthesizers: vec![SynthKind::Mst, SynthKind::Gem],
    };
    let budget = BenchmarkConfig {
        fit_threads: None,
        ..base.clone()
    };
    let plain_report = run_paper(paper.as_ref(), &base).expect("grid");
    let budget_report = run_paper(paper.as_ref(), &budget).expect("grid");
    assert!(
        budget_report.bitwise_eq(&plain_report),
        "core-budget grid diverged from cells-only grid"
    );
    let grid_reps = if quick { 3 } else { 5 };
    let plain_ns = median_ns(grid_reps, || {
        run_paper(paper.as_ref(), &base).expect("grid");
    });
    let budget_ns = median_ns(grid_reps, || {
        run_paper(paper.as_ref(), &budget).expect("grid");
    });
    let grid_ratio = plain_ns / budget_ns;
    println!(
        "fit        grid-budget    cells-only {plain_ns:>10.0} ns   budgeted {budget_ns:>10.0} ns   ratio {grid_ratio:>5.2}x"
    );

    let (gem_rows, gem_min) = gem_leg(quick);

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-fit/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("host_threads", JsonValue::Uint(host_threads as u64)),
        ("fit_threads", JsonValue::Uint(mt as u64)),
        ("benches", JsonValue::Arr(bench_rows)),
        (
            "grid",
            JsonValue::obj(vec![
                ("paper", JsonValue::Str("fruiht2018".to_string())),
                ("cells_only_ns", JsonValue::Num(plain_ns)),
                ("core_budget_ns", JsonValue::Num(budget_ns)),
                ("ratio", JsonValue::Num(grid_ratio)),
                ("report_bitwise_equal", JsonValue::Bool(true)),
            ]),
        ),
        ("gem", JsonValue::Arr(gem_rows)),
        (
            "summary",
            JsonValue::obj(vec![
                ("fit_speedup_min", JsonValue::Num(fit_min)),
                ("grid_budget_ratio", JsonValue::Num(grid_ratio)),
                ("gem_speedup_min", JsonValue::Num(gem_min)),
                ("speedup_gate_active", JsonValue::Bool(host_threads >= mt)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_fit.json");
    println!(
        "wrote {out_path} (min fit speedup {fit_min:.2}x, grid ratio {grid_ratio:.2}x, \
         min GEM speedup {gem_min:.2}x)"
    );
    (fit_min, grid_ratio, gem_min)
}

/// saw2018's 15 finding statistics (ids 90–104, in order) computed the
/// way they were before the row view: every subgroup is a
/// `Dataset::filter_rows` copy. The oracle for [`eval_section`].
fn saw2018_filter_rows(ds: &synrd_data::Dataset) -> Vec<Vec<f64>> {
    use synrd_data::RowRef;
    let idx = |name: &str| ds.domain().index_of(name).expect("saw2018 attribute");
    let (sex, ses, race, math) = (idx("sex"), idx("ses"), idx("race"), idx("math9"));
    let (asp9, asp11) = (idx("stem_asp_9"), idx("stem_asp_11"));
    // P(target = 1) over the rows `keep` selects; NaN for none.
    let rate = |target: usize, keep: &dyn Fn(RowRef<'_>) -> bool| -> f64 {
        let sub = ds.filter_rows(keep);
        if sub.is_empty() {
            return f64::NAN;
        }
        sub.proportion(target, 1).expect("proportion")
    };
    let p9 = |keep: &dyn Fn(RowRef<'_>) -> bool| rate(asp9, keep);
    let p11 = |keep: &dyn Fn(RowRef<'_>) -> bool| rate(asp11, keep);
    let transition = |a9: u32, s: u32| p11(&|r| r.get(asp9) == a9 && r.get(ses) == s);
    let whole = |attr: usize| ds.proportion(attr, 1).expect("proportion");
    let numeric = |name: &str| ds.numeric_column(idx(name)).expect("numeric column");
    vec![
        vec![p9(&|r| r.get(sex) == 0), p9(&|r| r.get(sex) == 1)],
        vec![p9(&|r| r.get(sex) == 0) - p9(&|r| r.get(sex) == 1)],
        vec![p9(&|r| r.get(ses) == 3), p9(&|r| r.get(ses) == 0)],
        vec![p11(&|r| r.get(asp9) == 1), p11(&|r| r.get(asp9) == 0)],
        vec![whole(asp9), whole(asp11)],
        vec![
            p11(&|r| r.get(asp9) == 1 && r.get(sex) == 0),
            p11(&|r| r.get(asp9) == 1 && r.get(sex) == 1),
        ],
        vec![
            transition(1, 0),
            transition(1, 1),
            transition(1, 3),
            transition(0, 0),
            transition(0, 1),
            transition(0, 3),
        ],
        vec![transition(0, 3), transition(0, 0)],
        vec![p9(&|r| r.get(race) == 3), p9(&|r| r.get(race) == 0)],
        vec![p9(&|r| r.get(race) == 0), p9(&|r| r.get(race) == 1)],
        vec![
            p11(&|r| r.get(asp9) == 1 && r.get(math) >= 9),
            p11(&|r| r.get(asp9) == 1 && r.get(math) < 5),
        ],
        vec![
            p9(&|r| r.get(sex) == 0 && r.get(race) == 0 && r.get(ses) == 3),
            p9(&|r| r.get(sex) == 0 && (r.get(race) == 1 || r.get(race) == 2) && r.get(ses) <= 1),
        ],
        vec![
            p11(&|r| r.get(asp9) == 0 && r.get(sex) == 0),
            p11(&|r| r.get(asp9) == 0 && r.get(sex) == 1),
        ],
        vec![synrd_stats::pearson(&numeric("ses"), &numeric("parent_edu")).expect("pearson")],
        vec![whole(asp9)],
    ]
}

/// Finding evaluation, the per-draw cost of the paper's measure: saw2018's
/// 15 findings on one quick-scale draw (a seeded bootstrap resample of the
/// quick-scale dataset) through the `Subset` row view vs the
/// `filter_rows` oracle ([`saw2018_filter_rows`]), and jeong2021's
/// logistic fit on the pipeline's training split
/// (`synrd::papers::jeong2021::logistic_split`) through the four-row
/// blocked Gram and factor-once inverse vs the row-at-a-time Gram and
/// per-column inverse (`logistic_naive`), plus the Gram alone.
/// Bit-identity is asserted before timing. Writes `BENCH_eval.json`;
/// returns (saw2018 view speedup, logistic fit speedup).
fn eval_section(quick: bool, out_path: &str) -> (f64, f64) {
    use synrd::benchmark::BenchmarkConfig;
    use synrd::papers::jeong2021::logistic_split;
    use synrd::publication_by_id;
    use synrd_stats::{logistic, logistic::logistic_naive, LogisticOptions};

    let config = BenchmarkConfig::quick();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if quick { 51 } else { 301 };
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let saw = publication_by_id("saw2018").expect("registered paper");
    let n = config.rows_for(saw.dataset().paper_n());
    let real = saw.generate(n, config.data_seed);
    let draw = real.bootstrap_sample(n, &mut StdRng::seed_from_u64(1));
    let findings = saw.findings();
    let evaluate = || -> Vec<Vec<f64>> {
        findings
            .iter()
            .map(|f| f.evaluate(&draw).expect("saw2018 finding"))
            .collect()
    };
    let view = evaluate();
    let oracle = saw2018_filter_rows(&draw);
    assert_eq!(view.len(), oracle.len(), "saw2018: finding count");
    for ((f, a), b) in findings.iter().zip(&view).zip(&oracle) {
        assert_eq!(
            to_bits(a),
            to_bits(b),
            "saw2018 #{}: view != filter_rows",
            f.id
        );
    }
    let view_ns = median_ns(reps, || {
        black_box(evaluate());
    });
    let oracle_ns = median_ns(reps, || {
        black_box(saw2018_filter_rows(&draw));
    });
    let view_speedup = oracle_ns / view_ns;
    println!(
        "eval       {:<14} view {view_ns:>10.0} ns   filter_rows {oracle_ns:>10.0} ns   speedup {view_speedup:>5.2}x   \
         ({n} rows, {} findings, nproc {nproc})",
        "saw2018",
        findings.len()
    );
    let saw_row = JsonValue::obj(vec![
        ("name", JsonValue::Str("saw2018-findings".to_string())),
        ("rows", JsonValue::Uint(n as u64)),
        ("findings", JsonValue::Uint(findings.len() as u64)),
        ("view_ns", JsonValue::Num(view_ns)),
        ("filter_rows_ns", JsonValue::Num(oracle_ns)),
        ("speedup", JsonValue::Num(view_speedup)),
        ("bit_identical", JsonValue::Bool(true)),
        ("nproc", JsonValue::Uint(nproc as u64)),
    ]);

    let jeong = publication_by_id("jeong2021").expect("registered paper");
    let ds = jeong.generate(config.rows_for(jeong.dataset().paper_n()), config.data_seed);
    let split = logistic_split(&ds).expect("jeong2021 logistic split");
    let (x, y) = (&split.x_train, &split.y_train);
    let options = LogisticOptions::default();
    let fit = logistic(x, y, options).expect("logistic fit");
    let naive = logistic_naive(x, y, options).expect("logistic fit");
    assert_eq!(
        (to_bits(&fit.coefficients), to_bits(&fit.std_errors)),
        (to_bits(&naive.coefficients), to_bits(&naive.std_errors)),
        "jeong2021: blocked logistic fit != naive kernels"
    );
    let fit_reps = if quick { 7 } else { 31 };
    let fit_ns = median_ns(fit_reps, || {
        black_box(logistic(x, y, options).expect("logistic fit"));
    });
    let naive_fit_ns = median_ns(fit_reps, || {
        black_box(logistic_naive(x, y, options).expect("logistic fit"));
    });
    let fit_speedup = naive_fit_ns / fit_ns;
    // The Gram alone, at the final IRLS weights of the fit above.
    let weights: Vec<f64> = fit
        .predict_proba(x)
        .expect("predict")
        .iter()
        .map(|m| (m * (1.0 - m)).max(1e-10))
        .collect();
    let gram_bits = |g: synrd_stats::Matrix| -> Vec<u64> {
        (0..g.n_rows()).flat_map(|r| to_bits(g.row(r))).collect()
    };
    assert_eq!(
        gram_bits(x.gram(Some(&weights)).expect("gram")),
        gram_bits(x.gram_naive(Some(&weights)).expect("gram")),
        "jeong2021: blocked Gram != naive"
    );
    let gram_ns = median_ns(reps, || {
        black_box(x.gram(Some(&weights)).expect("gram"));
    });
    let naive_gram_ns = median_ns(reps, || {
        black_box(x.gram_naive(Some(&weights)).expect("gram"));
    });
    let gram_speedup = naive_gram_ns / gram_ns;
    println!(
        "eval       {:<14} fit {fit_ns:>11.0} ns   naive {naive_fit_ns:>11.0} ns   speedup {fit_speedup:>5.2}x   \
         gram {gram_speedup:>5.2}x   ({} x {}, {} IRLS iterations, nproc {nproc})",
        "jeong2021-lr",
        x.n_rows(),
        x.n_cols(),
        fit.iterations
    );
    let jeong_row = JsonValue::obj(vec![
        ("name", JsonValue::Str("jeong2021-logistic".to_string())),
        ("rows", JsonValue::Uint(x.n_rows() as u64)),
        ("columns", JsonValue::Uint(x.n_cols() as u64)),
        ("iterations", JsonValue::Uint(fit.iterations as u64)),
        ("fit_ns", JsonValue::Num(fit_ns)),
        ("naive_fit_ns", JsonValue::Num(naive_fit_ns)),
        ("fit_speedup", JsonValue::Num(fit_speedup)),
        ("gram_ns", JsonValue::Num(gram_ns)),
        ("naive_gram_ns", JsonValue::Num(naive_gram_ns)),
        ("gram_speedup", JsonValue::Num(gram_speedup)),
        ("bit_identical", JsonValue::Bool(true)),
        ("nproc", JsonValue::Uint(nproc as u64)),
    ]);

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-eval/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("benches", JsonValue::Arr(vec![saw_row, jeong_row])),
        (
            "summary",
            JsonValue::obj(vec![
                ("saw2018_view_speedup", JsonValue::Num(view_speedup)),
                ("jeong2021_logistic_speedup", JsonValue::Num(fit_speedup)),
            ]),
        ),
    ]);
    std::fs::write(out_path, format!("{}\n", doc.to_text())).expect("write BENCH_eval.json");
    println!(
        "wrote {out_path} (saw2018 view {view_speedup:.2}x, jeong2021 logistic {fit_speedup:.2}x)"
    );
    (view_speedup, fit_speedup)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pgm.json".to_string());
    let marginal_out = args
        .iter()
        .position(|a| a == "--marginal-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_marginal.json".to_string());
    let sampling_out = args
        .iter()
        .position(|a| a == "--sampling-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sampling.json".to_string());
    let dataset_out = args
        .iter()
        .position(|a| a == "--dataset-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_dataset.json".to_string());
    let ml_out = args
        .iter()
        .position(|a| a == "--ml-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_ml.json".to_string());
    let fit_out = args
        .iter()
        .position(|a| a == "--fit-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fit.json".to_string());
    let eval_out = args
        .iter()
        .position(|a| a == "--eval-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_eval.json".to_string());
    let reps = if quick { 7 } else { 31 };

    // --- Kernel grid: stride vs naive calibration -------------------------
    let problems = vec![chain(8, 4), chain(6, 10), triples(7, 4), triples(5, 8)];
    let mut kernel_rows = Vec::new();
    let mut speedups = Vec::new();
    for p in &problems {
        let mut ws = CalibrationWorkspace::new();
        let mut out = CalibratedTree::default();
        // Warm the workspace so the stride timing reflects steady state
        // (the mirror-descent loop's regime).
        calibrate_into(&p.tree, &p.pots, &mut ws, &mut out).expect("calibrate");
        let stride_ns = median_ns(reps, || {
            calibrate_into(&p.tree, &p.pots, &mut ws, &mut out).expect("calibrate");
        });
        let naive_ns = median_ns(reps, || {
            calibrate_naive(&p.tree, &p.pots).expect("calibrate");
        });
        let speedup = naive_ns / stride_ns;
        speedups.push(speedup);
        println!(
            "calibrate {:<14} stride {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
            p.name, stride_ns, naive_ns, speedup
        );
        kernel_rows.push(JsonValue::obj(vec![
            ("name", JsonValue::Str(p.name.clone())),
            ("cliques", JsonValue::Uint(p.tree.cliques().len() as u64)),
            (
                "max_clique_cells",
                JsonValue::Uint(p.tree.max_clique_cells() as u64),
            ),
            ("stride_ns", JsonValue::Num(stride_ns)),
            ("naive_ns", JsonValue::Num(naive_ns)),
            ("speedup", JsonValue::Num(speedup)),
        ]));
    }

    // --- End-to-end mirror descent ----------------------------------------
    let domain = vec![4usize; 8];
    let measurements: Vec<NoisyMeasurement> = (0..7)
        .map(|a| NoisyMeasurement {
            attrs: vec![a, a + 1],
            values: (0..16).map(|k| 60.0 + 17.0 * (k as f64).sin()).collect(),
            sigma: 2.0,
        })
        .collect();
    let opts = EstimationOptions {
        iterations: if quick { 30 } else { 120 },
        initial_step: 1.0,
        cell_limit: 1 << 21,
        fit_threads: 1,
    };
    let est_reps = if quick { 3 } else { 9 };
    let mut ws = CalibrationWorkspace::new();
    let stride_fit_ns = median_ns(est_reps, || {
        synrd_pgm::estimate_with(&domain, &measurements, opts, &mut ws).expect("fit");
    });
    let naive_fit_ns = median_ns(est_reps, || {
        estimate_naive(&domain, &measurements, opts).expect("fit");
    });
    let fit_speedup = naive_fit_ns / stride_fit_ns;
    println!(
        "estimate   {:<14} stride {:>10.0} ns   naive {:>10.0} ns   speedup {:>5.2}x",
        format!("chain-d8 x{}", opts.iterations),
        stride_fit_ns,
        naive_fit_ns,
        fit_speedup
    );

    // Allocation trajectory: factor buffers for a fit, and the marginal
    // cost of additional iterations (must be zero).
    let allocs_for = |iters: usize| -> u64 {
        let o = EstimationOptions {
            iterations: iters,
            ..opts
        };
        let before = factor_buffer_allocs();
        let model = estimate(&domain, &measurements, o).expect("fit");
        let mut ws = CalibrationWorkspace::new();
        TreeSampler::new_with_workspace(&model, &mut ws).expect("sampler");
        factor_buffer_allocs() - before
    };
    let allocs_30 = allocs_for(30);
    let allocs_120 = allocs_for(120);
    let allocs_per_iter = (allocs_120 as i64 - allocs_30 as i64) as f64 / 90.0;
    println!(
        "allocs     fit+sampler: {allocs_120} buffers; per extra iteration: {allocs_per_iter}"
    );

    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();

    let doc = JsonValue::obj(vec![
        ("schema", JsonValue::Str("synrd-bench-pgm/1".to_string())),
        (
            "mode",
            JsonValue::Str(if quick { "quick" } else { "full" }.to_string()),
        ),
        ("calibrate_kernels", JsonValue::Arr(kernel_rows)),
        (
            "estimate",
            JsonValue::obj(vec![
                ("name", JsonValue::Str("chain-d8-c4".to_string())),
                ("iterations", JsonValue::Uint(opts.iterations as u64)),
                ("stride_ns", JsonValue::Num(stride_fit_ns)),
                ("naive_ns", JsonValue::Num(naive_fit_ns)),
                ("speedup", JsonValue::Num(fit_speedup)),
                (
                    "factor_buffer_allocs_fit_and_sampler",
                    JsonValue::Uint(allocs_120),
                ),
                (
                    "allocs_per_extra_iteration",
                    JsonValue::Num(allocs_per_iter),
                ),
            ]),
        ),
        (
            "summary",
            JsonValue::obj(vec![
                ("calibrate_speedup_min", JsonValue::Num(min_speedup)),
                ("calibrate_speedup_geomean", JsonValue::Num(geomean)),
                ("estimate_speedup", JsonValue::Num(fit_speedup)),
            ]),
        ),
    ]);
    let text = doc.to_text();
    std::fs::write(&out_path, format!("{text}\n")).expect("write BENCH_pgm.json");
    println!("wrote {out_path} (min calibrate speedup {min_speedup:.2}x, geomean {geomean:.2}x)");

    // --- Marginal engine: the synthesizer selection paths ------------------
    let selection_min = marginal_section(quick, &marginal_out);

    // --- Sampling engine: the row-generation path --------------------------
    let sampling_min = sampling_section(quick, &sampling_out);

    // --- Dataset storage: packed words vs u32 slices -----------------------
    let (dataset_min, compression_min) = dataset_section(quick, &dataset_out);

    // --- ML kernels: batched MLP round vs the per-example oracle -----------
    let (ml_min, ml_simd_min, forest_speedup) = ml_section(quick, &ml_out);

    // --- Intra-fit parallelism, core-budget grid and GEM's trainer ---------
    let (fit_min, grid_ratio, gem_min) = fit_section(quick, &fit_out);

    // --- Finding evaluation: row views and the IRLS kernels ----------------
    let (view_speedup, logistic_speedup) = eval_section(quick, &eval_out);

    if min_speedup < 1.0 {
        eprintln!("warning: stride kernels slower than naive on some problem");
        std::process::exit(1);
    }
    // The record's target is 2x. selection_min is always set by the slowest
    // one-shot sweep (mst-pairs, ~2.3x on the checked-in record) — the
    // cached round-loop bench sits near 10x and never binds — so the hard
    // exit gate is softened in --quick mode, where short reps on noisy
    // shared CI runners can shave that sweep's ratio without any code
    // regression.
    let gate = if quick { 1.4 } else { 2.0 };
    if selection_min < gate {
        eprintln!(
            "warning: marginal engine under the {gate:.1}x selection-path gate \
             ({selection_min:.2}x)"
        );
        std::process::exit(1);
    }
    // Same 2x target for the sampling engine at 100k rows, softened in
    // --quick mode for the same CI-noise reason.
    let sampling_gate = if quick { 1.4 } else { 2.0 };
    if sampling_min < sampling_gate {
        eprintln!(
            "warning: sampling engine under the {sampling_gate:.1}x sample_columns gate \
             ({sampling_min:.2}x)"
        );
        std::process::exit(1);
    }
    // The packed marginal sweep (bit-sliced one-way counting) must beat the
    // retained u32-slice kernel by 1.25x on the full grid — the checked-in
    // record sits near 2x. Softened in --quick mode where short reps on
    // noisy CI runners can shave the ratio without any code regression.
    let dataset_gate = if quick { 1.05 } else { 1.25 };
    if dataset_min < dataset_gate {
        eprintln!(
            "warning: packed marginal sweep under the {dataset_gate:.2}x gate ({dataset_min:.2}x)"
        );
        std::process::exit(1);
    }
    // Storage compression is deterministic (no timing noise): every registry
    // dataset must pack at least 4x denser than 4-byte codes.
    if compression_min < 4.0 {
        eprintln!("warning: registry compression under the 4x gate ({compression_min:.2}x)");
        std::process::exit(1);
    }
    // Batched ML kernels: the PATECTGAN generator round through the
    // `BatchWorkspace` GEMM passes must beat the per-example oracle by 2x
    // (1.4x in --quick mode for the usual CI-noise reason).
    let ml_gate = if quick { 1.4 } else { 2.0 };
    if ml_min < ml_gate {
        eprintln!("warning: batched generator round under the {ml_gate:.1}x gate ({ml_min:.2}x)");
        std::process::exit(1);
    }
    // SimdBackend must pay for its dispatch: ≥1.5x over CpuBackend on the
    // generator training rounds (1.2x in --quick mode for the usual
    // CI-noise reason). `+inf` (no gate) only when the CPU has no SIMD path.
    let ml_simd_gate = if quick { 1.2 } else { 1.5 };
    if ml_simd_min.is_finite() && ml_simd_min < ml_simd_gate {
        eprintln!(
            "warning: SimdBackend under the {ml_simd_gate:.1}x over-CpuBackend gate \
             ({ml_simd_min:.2}x)"
        );
        std::process::exit(1);
    }
    // The rank/histogram forest must beat the sort-based oracle by 3x at
    // the jeong2021 fit shape (2x in --quick mode for the usual CI-noise
    // reason).
    let forest_gate = if quick { 2.0 } else { 3.0 };
    if forest_speedup < forest_gate {
        eprintln!(
            "warning: jeong2021 forest fit under the {forest_gate:.1}x gate ({forest_speedup:.2}x)"
        );
        std::process::exit(1);
    }
    // Intra-fit descent scaling: ≥2.5x at 8 threads on the descent-dominated
    // shapes (1.4x in --quick mode). The gate binds only on hosts that
    // actually have 8 cores — bit-identity is asserted unconditionally
    // inside the section, so thread-starved runners still verify the
    // reduction-order contract and record the (ungated) ratio.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fit_gate = if quick { 1.4 } else { 2.5 };
    if host_threads >= 8 && fit_min < fit_gate {
        eprintln!(
            "warning: intra-fit descent scaling under the {fit_gate:.1}x gate ({fit_min:.2}x)"
        );
        std::process::exit(1);
    }
    // GEM's cached-softmax trainer must beat the on-demand oracle by 2x on
    // the quick-scale saw2018 and jeong2021 fits (1.5x in --quick mode for
    // the usual CI-noise reason).
    let gem_gate = if quick { 1.5 } else { 2.0 };
    if gem_min < gem_gate {
        eprintln!("warning: GEM trainer under the {gem_gate:.1}x gate ({gem_min:.2}x)");
        std::process::exit(1);
    }
    // Finding evaluation: the saw2018 row view must beat the filter_rows
    // copies by 3x and the jeong2021 logistic fit its row-at-a-time
    // kernels by 1.3x (2x and 1.15x in --quick mode for the usual CI-noise
    // reason).
    let (view_gate, logistic_gate) = if quick { (2.0, 1.15) } else { (3.0, 1.3) };
    if view_speedup < view_gate {
        eprintln!("warning: saw2018 row view under the {view_gate:.1}x gate ({view_speedup:.2}x)");
        std::process::exit(1);
    }
    if logistic_speedup < logistic_gate {
        eprintln!(
            "warning: jeong2021 logistic fit under the {logistic_gate:.2}x gate \
             ({logistic_speedup:.2}x)"
        );
        std::process::exit(1);
    }
    // The two-level core budget must not lose to cells-only parallelism
    // (25% slack full, 33% in --quick mode, for grid-scale timing noise).
    let grid_gate = if quick { 0.67 } else { 0.8 };
    if grid_ratio < grid_gate {
        eprintln!(
            "warning: core-budget grid slower than cells-only parallelism \
             (ratio {grid_ratio:.2}x, gate {grid_gate:.2}x)"
        );
        std::process::exit(1);
    }
}
