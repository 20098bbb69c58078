//! # synrd-bench — harness regenerating every table and figure
//!
//! One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — dataset meta-features |
//! | `table2` | Table 2 — finding counts per type |
//! | `fig1`   | Figure 1 — Fairman visual finding, real vs MST at ε = e |
//! | `fig3`   | Figure 3 — parity heatmap per finding × synthesizer × ε |
//! | `fig4`   | Figure 4 — mean parity / parity variance vs ε |
//!
//! All binaries run at laptop scale by default and accept `--paper-scale`
//! for the full protocol (k = 10, B = 25, paper sample sizes). Criterion
//! benches in `benches/` cover the §7 "computational resources" comparison
//! and our ablations.

use std::path::PathBuf;
use synrd::benchmark::{
    assemble_report, run_grid_sharded, run_paper_with_stores, BenchmarkConfig, CellStore, FitStore,
    PaperReport, Shard,
};
use synrd::Publication;
use synrd_store::{merge_shard_dirs, DiskCellCache, DiskFitCache, SessionFits, WriteOnly};

/// Result-store flags shared by the grid binaries (`fig3`, `fig4`).
#[derive(Debug, Default)]
pub struct StoreOptions {
    /// `--out-dir DIR`: root of the persistent result store.
    pub out_dir: Option<PathBuf>,
    /// `--resume`: serve cached cells instead of recomputing them.
    pub resume: bool,
    /// `--shard i/n`: compute only this shard of the global cell list.
    pub shard: Option<Shard>,
    /// `--merge-shards a,b,c`: union these shard stores into `--out-dir`.
    pub merge_shards: Vec<PathBuf>,
}

impl StoreOptions {
    /// Open the store at `--out-dir` (if given) for `config`, exiting with
    /// a message on I/O failure.
    pub fn open_cache(&self, config: &BenchmarkConfig) -> Option<DiskCellCache> {
        let dir = self.out_dir.as_ref()?;
        match DiskCellCache::open(dir, config) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("cannot open result store {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }

    /// Open the fit cache sharing `--out-dir` with the cell store, exiting
    /// with a message on I/O failure. Fits live under `fits/`, cells under
    /// `cells/` — one directory serves both, and `synrd serve` later
    /// answers sampling requests from the same tree.
    pub fn open_fit_cache(&self, config: &BenchmarkConfig) -> Option<DiskFitCache> {
        let dir = self.out_dir.as_ref()?;
        match DiskFitCache::open(dir, config) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("cannot open fit cache {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
}

/// Run `body` with the store viewed through `--resume` semantics: with the
/// flag, cells are served from disk; without it, the cache is write-only
/// (cells are recomputed and rewritten).
fn with_cell_store<R>(
    cache: Option<&DiskCellCache>,
    resume: bool,
    body: impl FnOnce(Option<&dyn CellStore>) -> R,
) -> R {
    match cache {
        Some(cache) if resume => body(Some(cache)),
        Some(cache) => body(Some(&WriteOnly(cache))),
        None => body(None),
    }
}

/// The fit-cache twin of [`with_cell_store`]. `--resume` serves every
/// stored fit; a fresh run distrusts prior on-disk state but still shares
/// fits *within* the run (papers whose generators produce the same dataset
/// fit each `(synthesizer, ε, seed)` once — the redundant-refit fix),
/// repopulating the cache as it goes. Fits are keyed by dataset content,
/// so loads are bit-identical to refitting either way.
fn with_fit_store<R>(
    cache: Option<&DiskFitCache>,
    resume: bool,
    body: impl FnOnce(Option<&dyn FitStore>) -> R,
) -> R {
    match cache {
        Some(cache) if resume => body(Some(cache)),
        Some(cache) => body(Some(&SessionFits::new(cache))),
        None => body(None),
    }
}

/// Everything the figure binaries take from the command line.
#[derive(Debug)]
pub struct CliOptions {
    /// Grid configuration after flag overrides.
    pub config: BenchmarkConfig,
    /// `--papers` filter (empty = all eight); every id is a registered
    /// paper.
    pub papers: Vec<String>,
    /// Result-store options.
    pub store: StoreOptions,
}

/// Parse the CLI flags shared by the figure binaries (`args` excludes the
/// program name).
///
/// Supported flags:
/// * `--paper-scale` — full protocol (expect hours of compute);
/// * `--papers a,b,c` — restrict to specific paper ids;
/// * `--seeds K` / `--bootstraps B` / `--threads N` — positive integers
///   overriding the grid knobs (`--threads 1` is sequential; results are
///   bit-identical at any count);
/// * `--scale F` — positive multiplier on each paper's sample size;
/// * `--out-dir DIR` — persist cells/reports into a result store;
/// * `--resume` — serve already-stored cells instead of refitting;
/// * `--shard i/n` — compute only shard `i` of `n` (requires `--out-dir`);
/// * `--merge-shards a,b,c` — union shard stores into `--out-dir` and
///   assemble reports purely from cached cells;
/// * `--fit-threads auto|N` — intra-fit thread allowance per cell. `auto`
///   (the default) derives it from the core budget (`threads / live cells`,
///   floored at 1); `N` pins it. Fits are bit-identical at any thread
///   count, so this changes throughput only.
///
/// # Errors
/// A message for unknown arguments, unknown paper ids, missing or
/// malformed flag values, and store-mode flags without `--out-dir`.
pub fn cli_from(args: &[String]) -> Result<CliOptions, String> {
    let mut config = if args.iter().any(|a| a == "--paper-scale") {
        BenchmarkConfig::paper()
    } else {
        BenchmarkConfig::quick()
    };
    let mut papers: Vec<String> = Vec::new();
    let mut store = StoreOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--paper-scale" => {}
            "--papers" => {
                papers = flag_value(flag, it.next())?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--seeds" => config.seeds = positive(flag, &flag_value(flag, it.next())?)?,
            "--bootstraps" => config.bootstraps = positive(flag, &flag_value(flag, it.next())?)?,
            "--threads" => config.threads = positive(flag, &flag_value(flag, it.next())?)?,
            "--scale" => {
                let spec = flag_value(flag, it.next())?;
                config.data_scale = match spec.parse::<f64>() {
                    Ok(v) if v.is_finite() && v > 0.0 => v,
                    _ => return Err(format!("bad --scale '{spec}': expected a positive number")),
                };
            }
            "--out-dir" => store.out_dir = Some(PathBuf::from(flag_value(flag, it.next())?)),
            "--resume" => store.resume = true,
            "--shard" => {
                let spec = flag_value(flag, it.next())?;
                let shard =
                    parse_shard(&spec).map_err(|msg| format!("bad --shard '{spec}': {msg}"))?;
                store.shard = Some(shard);
            }
            "--merge-shards" => {
                store.merge_shards = flag_value(flag, it.next())?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(PathBuf::from)
                    .collect();
            }
            "--fit-threads" => {
                let spec = flag_value(flag, it.next())?;
                config.fit_threads = match spec.as_str() {
                    "auto" => None,
                    n => Some(positive(flag, n).map_err(|e| format!("{e} or 'auto'"))?),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(bad) = papers
        .iter()
        .find(|id| synrd::publication_by_id(id).is_none())
    {
        let valid: Vec<&str> = synrd::all_publications()
            .iter()
            .map(|p| p.dataset().id())
            .collect();
        return Err(format!(
            "unknown paper id '{bad}' (valid: {})",
            valid.join(", ")
        ));
    }
    if (store.shard.is_some() || !store.merge_shards.is_empty()) && store.out_dir.is_none() {
        return Err("--shard and --merge-shards require --out-dir".to_string());
    }
    Ok(CliOptions {
        config,
        papers,
        store,
    })
}

/// [`cli_from`] over the process arguments, exiting with status 2 and the
/// message on bad input.
pub fn cli_from_args() -> CliOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli_from(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// The stores a figure run used, for its closing telemetry lines.
pub struct RunStores {
    /// The cell store at `--out-dir`, if one was given.
    pub cells: Option<DiskCellCache>,
    /// The fit cache at `--out-dir`, if the run could fit (merge mode
    /// never fits, so it reports no fit cache).
    pub fits: Option<DiskFitCache>,
}

impl RunStores {
    /// Print the one-line telemetry of each open store: `[store]` (cell
    /// cache counters plus the process-wide fit and sampled-row counts)
    /// and `[fits]` (fit cache counters). CI's cache end-to-end job greps
    /// them for `misses=0`, `fits=0` and `hits=` on warm reruns.
    pub fn print_summaries(&self) {
        if let Some(cache) = &self.cells {
            let stats = cache.stats();
            println!(
                "[store] dir={} fingerprint={} hits={} misses={} stores={} errors={} fits={} \
                 sampled_rows={}",
                cache.root().display(),
                synrd_store::hex16(cache.fingerprint()),
                stats.hits,
                stats.misses,
                stats.stores,
                stats.errors,
                synrd::benchmark::fits_performed(),
                synrd::benchmark::rows_sampled(),
            );
        }
        if let Some(cache) = &self.fits {
            let stats = cache.stats();
            println!(
                "[fits] dir={} fingerprint={} hits={} misses={} stores={} errors={}",
                cache.root().display(),
                synrd_store::hex16(cache.fingerprint()),
                stats.hits,
                stats.misses,
                stats.stores,
                stats.errors,
            );
        }
    }
}

/// Run the grid the way `cli` asks; `fig3` and `fig4` differ only in how
/// they render the reports.
///
/// * `--merge-shards`: union the shard stores (cells and fits) into
///   `--out-dir`, then assemble every report purely from cached cells.
/// * `--shard i/n`: compute the owned slice of the global cell list into
///   the store, print the partition and store summaries, and return `None`
///   — there is nothing to render until the shards are merged.
/// * Otherwise run each paper, backed by the `--out-dir` stores if given.
///   The fit store spans the whole paper loop, so later papers reuse fits
///   an earlier paper computed on the same dataset.
///
/// Each paper's `(name, result)` goes to `on_report` as soon as it is
/// ready, so callers can print-and-continue; with a store, successful
/// reports are also persisted under `reports/`. Exits when a shard run or
/// the merge itself fails.
pub fn run_reports(
    cli: &CliOptions,
    papers: &[Box<dyn Publication>],
    mut on_report: impl FnMut(&'static str, synrd::Result<PaperReport>),
) -> Option<RunStores> {
    let config = &cli.config;
    let resume = cli.store.resume;
    if !cli.store.merge_shards.is_empty() {
        let cache = merge_shards(cli);
        for paper in papers {
            let result = assemble_report(paper.as_ref(), config, &cache);
            if let Ok(report) = &result {
                let _ = cache.write_report(report);
            }
            on_report(paper.name(), result);
        }
        return Some(RunStores {
            cells: Some(cache),
            fits: None,
        });
    }

    let stores = RunStores {
        cells: cli.store.open_cache(config),
        fits: cli.store.open_fit_cache(config),
    };
    if let Some(shard) = cli.store.shard {
        let summary = with_cell_store(stores.cells.as_ref(), resume, |store| {
            with_fit_store(stores.fits.as_ref(), resume, |fits| {
                let store = store.expect("--shard requires --out-dir");
                run_grid_sharded(papers, config, store, fits, shard)
            })
        });
        match summary {
            Ok(s) => println!(
                "shard {}/{}: owned {} of {} cells ({} computed, {} already stored)",
                shard.index(),
                shard.count(),
                s.cells_owned,
                s.cells_total,
                s.cells_computed,
                s.cells_cached
            ),
            Err(e) => {
                eprintln!("shard run failed: {e}");
                std::process::exit(1);
            }
        }
        stores.print_summaries();
        return None;
    }

    with_fit_store(stores.fits.as_ref(), resume, |fits| {
        for paper in papers {
            let result = with_cell_store(stores.cells.as_ref(), resume, |store| {
                run_paper_with_stores(paper.as_ref(), config, store, fits)
            });
            if let (Ok(report), Some(cache)) = (&result, &stores.cells) {
                let _ = cache.write_report(report);
            }
            on_report(paper.name(), result);
        }
    });
    Some(stores)
}

/// Union the `--merge-shards` stores into `--out-dir`: cells into the cell
/// store (returned for report assembly), fits into the fit cache so the
/// merged store can feed `synrd serve`. Exits on failure.
fn merge_shards(cli: &CliOptions) -> DiskCellCache {
    let dest = cli
        .store
        .out_dir
        .as_ref()
        .expect("--merge-shards requires --out-dir");
    let cache = merge_shard_dirs(&cli.store.merge_shards, dest, &cli.config).unwrap_or_else(|e| {
        eprintln!("merging shard stores failed: {e}");
        std::process::exit(1);
    });
    if let Some(fit_cache) = cli.store.open_fit_cache(&cli.config) {
        for shard in &cli.store.merge_shards {
            if let Err(e) = fit_cache.merge_from(shard) {
                eprintln!("merging fits from {} failed: {e}", shard.display());
                std::process::exit(1);
            }
        }
    }
    cache
}

/// The value of a flag that requires one: a missing value, or one that
/// looks like another flag, is a user error — either would otherwise
/// silently misread the command line.
fn flag_value(flag: &str, next: Option<&String>) -> Result<String, String> {
    match next {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        Some(v) => Err(format!("{flag} requires a value, but got the flag '{v}'")),
        None => Err(format!("{flag} requires a value")),
    }
}

/// `flag`'s value `spec` as a positive integer.
fn positive(flag: &str, spec: &str) -> Result<usize, String> {
    match spec.parse::<usize>() {
        Ok(v) if v >= 1 => Ok(v),
        _ => Err(format!("bad {flag} '{spec}': expected a positive integer")),
    }
}

/// Parse `i/n` into a [`Shard`].
///
/// # Errors
/// A human-readable message for malformed specs.
pub fn parse_shard(spec: &str) -> Result<Shard, String> {
    let (i, n) = spec
        .split_once('/')
        .ok_or_else(|| "expected the form i/n, e.g. 0/3".to_string())?;
    let index: usize = i.trim().parse().map_err(|_| format!("bad index '{i}'"))?;
    let count: usize = n.trim().parse().map_err(|_| format!("bad count '{n}'"))?;
    Shard::new(index, count).map_err(|e| e.to_string())
}

/// The publications selected by `--papers` (all eight when empty). Ids
/// are validated by [`cli_from`].
pub fn selected_publications(papers: &[String]) -> Vec<Box<dyn synrd::Publication>> {
    if papers.is_empty() {
        synrd::all_publications()
    } else {
        papers
            .iter()
            .filter_map(|id| synrd::publication_by_id(id))
            .collect()
    }
}

/// A benchmark calibration problem: a junction tree plus one deterministic
/// log-potential per clique. Shared by the criterion kernel benches
/// (`benches/pgm.rs`) and the `perfgrid` binary so both measure exactly the
/// same problems (the checked-in `BENCH_pgm.json` record stays comparable
/// to the interactive benches).
pub fn pgm_problem(
    shape: Vec<usize>,
    sets: Vec<Vec<usize>>,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    let tree =
        synrd_pgm::JunctionTree::build(&shape, &sets, 1 << 21).expect("tree fits cell limit");
    let pots = tree
        .cliques()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cshape: Vec<usize> = c.iter().map(|&a| shape[a]).collect();
            let cells: usize = cshape.iter().product();
            let vals: Vec<f64> = (0..cells)
                .map(|k| ((k as f64) * 0.37 + i as f64 * 0.11).sin())
                .collect();
            synrd_pgm::Factor::from_log_values(c.clone(), cshape, vals).expect("potential")
        })
        .collect();
    (tree, pots)
}

/// Chain of adjacent attribute pairs over `d` attributes of cardinality
/// `card` (the MST measurement shape).
pub fn pgm_chain_problem(
    d: usize,
    card: usize,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    pgm_problem(vec![card; d], (0..d - 1).map(|a| vec![a, a + 1]).collect())
}

/// Overlapping attribute triples (width-3 cliques) over `d` attributes.
pub fn pgm_triples_problem(
    d: usize,
    card: usize,
) -> (synrd_pgm::JunctionTree, Vec<synrd_pgm::Factor>) {
    pgm_problem(
        vec![card; d],
        (0..d - 2).map(|a| vec![a, a + 1, a + 2]).collect(),
    )
}

/// Mixed-cardinality shape for the marginal-engine benches: `d` attributes
/// cycling through small-to-medium cardinalities (the regime of the paper's
/// social-science domains).
pub fn marginal_bench_shape(d: usize) -> Vec<usize> {
    const CARDS: [usize; 6] = [2, 3, 5, 7, 4, 9];
    (0..d).map(|a| CARDS[a % CARDS.len()]).collect()
}

/// Deterministic synthetic dataset for the marginal-engine benches, shared
/// by the criterion benches (`benches/marginal.rs`) and `perfgrid` so the
/// checked-in `BENCH_marginal.json` record stays comparable to the
/// interactive benches. Codes come from a SplitMix64 stream (no `rand`
/// dependency in the bench library), mildly correlated across adjacent
/// attributes so counting hits realistic cell distributions.
pub fn marginal_bench_dataset(rows: usize, shape: &[usize]) -> synrd_data::Dataset {
    let mut state = 0x243f_6a88_85a3_08d3u64; // pi digits; any fixed seed works
    let mut next = move || -> u64 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut columns: Vec<Vec<u32>> = Vec::with_capacity(shape.len());
    for (a, &card) in shape.iter().enumerate() {
        let mut col = Vec::with_capacity(rows);
        if a == 0 {
            for _ in 0..rows {
                col.push((next() % card as u64) as u32);
            }
        } else {
            // Couple each attribute to its predecessor half the time.
            let prev = &columns[a - 1];
            for &p in prev.iter() {
                let fresh = (next() % card as u64) as u32;
                let code = if next() % 2 == 0 {
                    p.min(card as u32 - 1)
                } else {
                    fresh
                };
                col.push(code);
            }
        }
        columns.push(col);
    }
    let attrs = shape
        .iter()
        .enumerate()
        .map(|(i, &card)| synrd_data::Attribute::ordinal(format!("x{i}"), card))
        .collect();
    synrd_data::Dataset::new(synrd_data::Domain::new(attrs), columns)
        .expect("generated codes are in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<CliOptions, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        cli_from(&args)
    }

    fn rejected(line: &str) -> String {
        parse(line).expect_err(line)
    }

    #[test]
    fn full_command_line_is_accepted() {
        let cli = parse(
            "--paper-scale --papers saw2018,fruiht2018 --seeds 2 --bootstraps 4 --scale 0.25 \
             --threads 3 --fit-threads 2 --out-dir store --resume --shard 1/3",
        )
        .expect("valid command line");
        assert_eq!(cli.papers, ["saw2018", "fruiht2018"]);
        assert_eq!(cli.config.seeds, 2);
        assert_eq!(cli.config.bootstraps, 4);
        assert_eq!(cli.config.data_scale, 0.25);
        assert_eq!(cli.config.threads, 3);
        assert_eq!(cli.config.fit_threads, Some(2));
        assert_eq!(
            cli.config.fit_timeout,
            BenchmarkConfig::paper().fit_timeout,
            "--paper-scale selects the paper protocol"
        );
        assert_eq!(cli.store.out_dir, Some(PathBuf::from("store")));
        assert!(cli.store.resume);
        assert_eq!(cli.store.shard, Some(Shard::new(1, 3).unwrap()));
        assert_eq!(selected_publications(&cli.papers).len(), 2);
    }

    #[test]
    fn unknown_paper_ids_are_rejected_with_the_valid_list() {
        let msg = rejected("--papers saw2018,nosuch");
        assert!(msg.contains("'nosuch'"), "{msg}");
        assert!(
            msg.contains("saw2018") && msg.contains("jeong2021"),
            "{msg}"
        );
    }

    #[test]
    fn malformed_numeric_flags_are_rejected() {
        for flag in ["--seeds", "--bootstraps", "--threads"] {
            for value in ["x", "0", "-1", "2.5"] {
                let msg = rejected(&format!("{flag} {value}"));
                assert!(msg.contains(flag), "{msg}");
            }
        }
        for value in ["x", "0", "-0.1", "inf", "NaN"] {
            let msg = rejected(&format!("--scale {value}"));
            assert!(msg.contains("--scale"), "{msg}");
        }
        assert!(rejected("--fit-threads 0").contains("--fit-threads"));
        assert!(rejected("--shard 3/3 --out-dir d").contains("--shard"));
    }

    #[test]
    fn missing_values_and_unknown_arguments_are_rejected() {
        assert!(rejected("--seeds").contains("requires a value"));
        assert!(rejected("--papers --seeds 1").contains("requires a value"));
        assert!(rejected("--ml-backend cpu").contains("unknown argument"));
        assert!(rejected("--shard 0/2").contains("--out-dir"));
    }
}
