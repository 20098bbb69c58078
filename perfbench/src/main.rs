//! End-to-end benchmark of the SynRD grid and serve mode.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-small|warm-redraw|serve-warm> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up its workload several times, then repeats
//! the workload's pass for at least `--seconds` seconds (and at least twice),
//! and reports the end-to-end metrics. With `--trace 1` it sets up once, runs
//! one untraced pass and one traced pass, and reports the per-layer metrics
//! from the traced pass with the tracing overhead. Either way it checks the
//! program's outputs; the last line of standard output is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! nonzero when any check failed.

mod grid;
mod host;
mod procfs;
mod serve;
mod stats;
mod trace;

use grid::{Counters, Part, Pass, Tally};
use procfs::CpuTimes;
use serve::{Fit, Reply, ServePass};
use stats::{median, percentile, tail_at, tail_level};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use synrd::benchmark::{BenchmarkConfig, CellStatus, CoreBudget, PaperReport};
use synrd_serve::FitService;
use synrd_store::{DiskFitCache, JsonValue};
use synrd_synth::SynthKind;
use trace::{self_times, Span, Tracer};

/// Timed passes per untraced run, at least: repetitions are compared bit for
/// bit, and the tail percentile is fixed from this many passes' operations.
const MIN_PASSES: usize = 2;
/// Set-ups per untraced run, at least; cheap set-ups repeat until they have
/// taken `SETUP_MIN_SECONDS`, at most `SETUP_MAX_REPS` times. `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;
/// Grid threads and client connections, capped at the host's core count.
const MAX_THREADS: usize = 2;
/// Papers whose finding evaluation is reported on its own.
const PAPERS: [&str; 3] = ["saw2018", "fruiht2018", "jeong2021"];

const USAGE: &str = "usage: perfbench --workload <cold-small|warm-redraw|serve-warm> \
                     --seed N --seconds S --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdSmall,
    WarmRedraw,
    ServeWarm,
}

impl Workload {
    fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cold-small" => Some(Workload::ColdSmall),
            "warm-redraw" => Some(Workload::WarmRedraw),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    /// Whether the timed phase starts from a filled fit cache.
    fn warm(self) -> bool {
        self != Workload::ColdSmall
    }

    /// The papers the workload runs, each with its grid configuration:
    /// `fig3`'s default `quick()` grid with one training seed and two draws
    /// unless stated, and `seed` as the data seed.
    fn parts(self, seed: u64, threads: usize) -> Vec<Part> {
        let base = BenchmarkConfig {
            seeds: 1,
            bootstraps: 2,
            data_seed: seed,
            threads,
            ..BenchmarkConfig::quick()
        };
        let part = |id: &str, config: BenchmarkConfig| Part {
            paper: synrd::publication_by_id(id).expect("registered paper id"),
            config,
        };
        match self {
            Workload::ColdSmall => vec![part("saw2018", base.clone()), part("fruiht2018", base)],
            // The paper's B = 25 draws per fit; jeong2021 at e⁰ only, since
            // each of its draws trains a logistic regression and a forest.
            Workload::WarmRedraw => {
                let redraw = BenchmarkConfig {
                    bootstraps: 25,
                    ..base
                };
                vec![
                    part("saw2018", redraw.clone()),
                    part(
                        "jeong2021",
                        BenchmarkConfig {
                            epsilons: vec![1.0],
                            ..redraw
                        },
                    ),
                ]
            }
            Workload::ServeWarm => vec![part("fruiht2018", base.clone()), part("saw2018", base)],
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                map.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?.to_string();
    let workload =
        Workload::from_name(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds must be a positive integer")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        // An empty float sum is -0.0; report it as 0.
        value: value + 0.0,
        unit,
    }
}

/// What a run measured and whether its outputs checked out.
#[derive(Default)]
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Facts printed with the result: pass count, percentile levels, etc.
    notes: Vec<(&'static str, JsonValue)>,
    /// Metrics printed for reading but not part of the result line.
    info: Vec<Metric>,
    fit_threads: Vec<usize>,
}

impl Outcome {
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}

/// A working directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_cache(dir: &Path, config: &BenchmarkConfig) -> DiskFitCache {
    let _ = std::fs::remove_dir_all(dir);
    DiskFitCache::open(dir, config).expect("create a fit cache inside the checkout")
}

/// The content digest of each part's real data: the fit cache's key.
fn dataset_digests(parts: &[Part]) -> Vec<u64> {
    parts
        .iter()
        .map(|p| {
            let n = p.config.rows_for(p.paper.dataset().paper_n());
            p.paper.generate(n, p.config.data_seed).content_digest()
        })
        .collect()
}

fn feasible_cells(reports: &[PaperReport]) -> usize {
    reports
        .iter()
        .flat_map(|r| r.cells.iter().flatten())
        .filter(|c| c.status == CellStatus::Ok)
        .count()
}

/// Checks every grid pass must pass: bit-equal reports and equal counters
/// across passes, the implied row count, and the fit-cache hits a cold or
/// warm pass must see.
fn check_grid_pass(
    out: &mut Outcome,
    what: &str,
    pass: &Pass,
    reference: &Pass,
    parts: &[Part],
    warm: bool,
) {
    out.check(
        grid::reports_equal(&pass.reports, &reference.reports),
        || format!("{what}: reports differ from the first pass"),
    );
    out.check(pass.counters == reference.counters, || {
        format!(
            "{what}: counters {:?} differ from the first pass's {:?}",
            pass.counters, reference.counters
        )
    });
    let rows = grid::expected_rows(parts, &pass.reports);
    out.check(pass.counters.rows_sampled == rows, || {
        format!(
            "{what}: sampled {} rows, the grid shape implies {rows}",
            pass.counters.rows_sampled
        )
    });
    let hits = if warm {
        (feasible_cells(&pass.reports) * parts[0].config.seeds) as u64
    } else {
        0
    };
    out.check(pass.counters.fit_hits == hits, || {
        format!(
            "{what}: {} fit-cache hits, expected {hits}",
            pass.counters.fit_hits
        )
    });
}

fn run_grid(args: &Args, threads: usize, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let parts = args.workload.parts(args.seed, threads);
    let config = &parts[0].config;
    out.fit_threads = parts
        .iter()
        .map(|p| {
            CoreBudget::from_config(&p.config)
                .fit_threads(p.config.synthesizers.len() * p.config.epsilons.len())
        })
        .collect();
    let warm = args.workload.warm();

    // Set-up: make the inputs and the fit cache the timed phase starts from
    // (filled by an untimed grid run for the warm workload).
    let setup = repeat_setup(args.trace, || {
        let cache = open_cache(&work.join("setup"), config);
        let digests = dataset_digests(&parts);
        if warm {
            grid::fill_fit_cache(&parts, &cache)?;
        }
        Ok((cache, digests))
    });
    let (setup_s, (setup_cache, digests)) = match setup {
        Ok(setup) => setup,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };

    let mut run_pass = |i: usize, traced: Option<(&Tracer, &Tally)>| -> Option<(Pass, u64)> {
        let fresh;
        let cache = if warm {
            &setup_cache
        } else {
            fresh = open_cache(&work.join(&format!("pass-{i}")), config);
            &fresh
        };
        let bytes = grid::dir_bytes(&cache.root().join("fits"));
        let result = match traced {
            None => grid::untraced_pass(&parts, cache),
            Some((tracer, tally)) => grid::traced_pass(&parts, cache, tracer, tally),
        };
        let pass = match result {
            Ok(pass) => pass,
            Err(e) => {
                out.errors.push(format!("pass {i}: {e}"));
                return None;
            }
        };
        let written = grid::dir_bytes(&cache.root().join("fits")) - bytes;
        out.attempted += grid::cell_count(&pass.reports);
        out.failed += grid::timed_out_cells(&pass.reports);
        if !warm {
            if let Err(e) = grid::check_fits_stored(&parts, &pass.reports, &digests, cache) {
                out.errors.push(format!("pass {i}: {e}"));
            }
            let _ = std::fs::remove_dir_all(cache.root());
        }
        Some((pass, written))
    };

    if !args.trace {
        let mut passes: Vec<Pass> = Vec::new();
        let phase = Instant::now();
        while passes.len() < MIN_PASSES || phase.elapsed() < args.seconds {
            let Some((pass, _)) = run_pass(passes.len(), None) else {
                return out;
            };
            passes.push(pass);
        }
        for (i, pass) in passes.iter().enumerate() {
            check_grid_pass(
                &mut out,
                &format!("pass {i}"),
                pass,
                &passes[0],
                &parts,
                warm,
            );
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
        let cells = grid::cell_count(&passes[0].reports) as usize;
        end_to_end(&mut out, &walls, &setup_s, cells, "cells");
        return out;
    }

    let Some((reference, _)) = run_pass(0, None) else {
        return out;
    };
    let tracer = Tracer::new();
    let tally = Tally::default();
    let Some((traced, written)) = run_pass(1, Some((&tracer, &tally))) else {
        return out;
    };
    check_grid_pass(
        &mut out,
        "untraced pass",
        &reference,
        &reference,
        &parts,
        warm,
    );
    check_grid_pass(&mut out, "traced pass", &traced, &reference, &parts, warm);
    let spans = tracer.spans();
    let layers = LayerInput {
        spans: &spans,
        tally: &tally,
        counters: traced.counters,
        cpu: traced.cpu,
        wall: traced.wall,
        untraced_wall: reference.wall,
        threads,
        timed_out: grid::timed_out_cells(&traced.reports),
        bytes_written: written,
        restore_s: 0.0,
        serve: false,
    };
    out.metrics = per_layer(&layers);
    out.notes.push((
        "pass_walls_s",
        JsonValue::num_arr(&[reference.wall, traced.wall]),
    ));
    write_spans(&tracer, args, &mut out);
    out
}

/// Run a set-up `SETUP_REPS` times (once when tracing), and more while the
/// reps have taken under `SETUP_MIN_SECONDS`, so that a cheap set-up's
/// median is not one noisy microsecond reading. Each rep starts afresh;
/// the last rep's product is kept.
fn repeat_setup<T>(
    trace: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut seconds = Vec::new();
    let mut last = None;
    while seconds.len() < SETUP_MAX_REPS
        && (seconds.len() < if trace { 1 } else { SETUP_REPS }
            || (!trace && seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS))
    {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup().map_err(|e| format!("set-up {}: {e}", seconds.len()))?);
        seconds.push(started.elapsed().as_secs_f64());
    }
    Ok((seconds, last.expect("at least one set-up")))
}

/// The end-to-end metrics of an untraced run. An operation is a grid cell
/// or a serve request.
fn end_to_end(
    out: &mut Outcome,
    walls: &[f64],
    setup_s: &[f64],
    ops_per_pass: usize,
    op_name: &'static str,
) {
    out.notes.push(("pass_walls_s", JsonValue::num_arr(walls)));
    out.notes
        .push(("setup_reps", JsonValue::Uint(setup_s.len() as u64)));
    out.notes.push(("op", JsonValue::Str(op_name.to_string())));
    out.notes
        .push(("ops_per_pass", JsonValue::Uint(ops_per_pass as u64)));
    out.metrics = vec![
        metric("wall_s", median(walls), "s"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        metric(
            "ops_per_s",
            (ops_per_pass * walls.len()) as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ),
    ];
}

/// Everything the per-layer metrics are computed from.
struct LayerInput<'a> {
    spans: &'a [Span],
    tally: &'a Tally,
    counters: Counters,
    cpu: CpuTimes,
    wall: f64,
    untraced_wall: f64,
    threads: usize,
    timed_out: u64,
    bytes_written: u64,
    restore_s: f64,
    serve: bool,
}

/// Per-layer metrics of a traced pass, the same names on every workload
/// (zero where a workload does not reach the layer).
fn per_layer(input: &LayerInput) -> Vec<Metric> {
    let spans = input.spans;
    let of = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum = |name: &'static str, label: Option<&str>| -> f64 {
        of(name)
            .filter(|s| label.is_none_or(|l| s.label == l))
            .map(Span::duration)
            .sum()
    };
    let durations = |name: &'static str| -> Vec<f64> { of(name).map(Span::duration).collect() };
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let self_time = self_times(spans);
    // On serve-warm a request's sampling happens inside `handle_line`.
    let sample_span = if input.serve {
        "serve.handle"
    } else {
        "synth.sample"
    };
    let capacity = input.wall * input.threads as f64;
    let c = &input.counters;
    let cells = durations("core.cell");
    let sample_s = sum(sample_span, None);

    let mut m = vec![
        metric("core.cells", cells.len() as f64, "count"),
        metric("core.cell_s.p50", finite(percentile(&cells, 50.0)), "s"),
        metric("core.cell_s.p90", finite(percentile(&cells, 90.0)), "s"),
        metric("core.ground_truth_s", sum("core.ground_truth", None), "s"),
        metric("core.render_s", sum("core.render", None), "s"),
        metric(
            "core.self_s",
            spans
                .iter()
                .filter(|s| s.name.starts_with("core."))
                .map(|s| self_time[&s.id])
                .sum(),
            "s",
        ),
        metric("core.cells_timed_out", input.timed_out as f64, "count"),
        metric("rayon.cpu_util", input.cpu.total() / capacity, "fraction"),
        metric(
            "rayon.sys_frac",
            finite(input.cpu.system / input.cpu.total()),
            "fraction",
        ),
        metric("data.generate_s", sum("data.generate", None), "s"),
        metric("data.marginal_counts", c.marginal_counts as f64, "count"),
        metric("synth.fit_s", sum("synth.fit", None), "s"),
    ];
    for kind in SynthKind::ALL {
        m.push(metric(
            format!("synth.fit_s.{}", kind.name()),
            sum("synth.fit", Some(kind.name())),
            "s",
        ));
    }
    m.extend([
        metric("synth.fits", c.fits as f64, "count"),
        metric("synth.fit_errors", count(&input.tally.fit_errors), "count"),
        metric("synth.infeasible", count(&input.tally.infeasible), "count"),
        metric("synth.sample_s", sample_s, "s"),
    ]);
    for kind in SynthKind::ALL {
        m.push(metric(
            format!("synth.sample_s.{}", kind.name()),
            sum(sample_span, Some(kind.name())),
            "s",
        ));
    }
    let hits = c.fit_hits as f64;
    let misses = c.fit_misses as f64;
    m.extend([
        metric(
            "synth.sample_errors",
            count(&input.tally.sample_errors),
            "count",
        ),
        metric("synth.restore_s", sum("synth.restore", None), "s"),
        metric("pgm.rows_sampled", c.rows_sampled as f64, "rows"),
        metric("pgm.sampling_passes", c.sampling_passes as f64, "count"),
        metric("pgm.samplers_built", c.samplers_built as f64, "count"),
        metric(
            "pgm.factor_buffer_allocs",
            count(&input.tally.factor_allocs),
            "count",
        ),
        metric(
            "pgm.sample_rows_per_s",
            finite(c.rows_sampled as f64 / sample_s),
            "rows/s",
        ),
        metric(
            "ml.share",
            (sum("synth.fit", Some("PATECTGAN")) + sum(sample_span, Some("PATECTGAN"))) / capacity,
            "fraction",
        ),
        metric("finding.evaluate_s", sum("finding.evaluate", None), "s"),
    ]);
    for paper in PAPERS {
        m.push(metric(
            format!("finding.evaluate_s.{paper}"),
            sum("finding.evaluate", Some(paper)),
            "s",
        ));
    }
    let handle = durations("serve.handle");
    let wait: Vec<f64> = of("serve.request").map(|s| self_time[&s.id]).collect();
    m.extend([
        metric(
            "finding.evaluations",
            count(&input.tally.evaluations),
            "count",
        ),
        metric(
            "finding.eval_errors",
            count(&input.tally.eval_errors),
            "count",
        ),
        metric("store.fit_save_s", sum("store.fit_save", None), "s"),
        metric("store.bytes_written", input.bytes_written as f64, "bytes"),
        metric("store.fit_load_s", sum("store.fit_load", None), "s"),
        metric("store.fit_hits", hits, "count"),
        metric("store.fit_misses", misses, "count"),
        metric("store.fit_errors", c.fit_errors as f64, "count"),
        metric(
            "store.fit_hit_ratio",
            finite(hits / (hits + misses)),
            "fraction",
        ),
        metric(
            "serve.handle_ms.p50",
            finite(percentile(&handle, 50.0)) * 1e3,
            "ms",
        ),
        metric(
            "serve.handle_ms.p99",
            finite(percentile(&handle, 99.0)) * 1e3,
            "ms",
        ),
        metric(
            "serve.wait_ms.p50",
            finite(percentile(&wait, 50.0)) * 1e3,
            "ms",
        ),
        metric("serve.restore_s", input.restore_s, "s"),
        metric("trace.spans", spans.len() as f64, "count"),
        metric("trace.overhead_s", input.wall - input.untraced_wall, "s"),
        metric(
            "trace.overhead_frac",
            (input.wall - input.untraced_wall) / input.untraced_wall,
            "fraction",
        ),
    ]);
    m
}

fn write_spans(tracer: &Tracer, args: &Args, out: &mut Outcome) {
    let dir = Path::new(".bench_work").join("results");
    let path = dir.join(format!("{}-seed{}.spans.jsonl", args.name, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_jsonl(&path)) {
        Ok(()) => out
            .notes
            .push(("spans_file", JsonValue::Str(path.display().to_string()))),
        Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
    }
}

/// Serve set-up: fill a fit cache through the grid, open the service on it
/// and restore every fit once.
struct ServeSetup {
    service: FitService,
    fits: Vec<Fit>,
    attrs: HashMap<&'static str, usize>,
    restore_s: f64,
    store: grid::Counters,
}

fn serve_setup(parts: &[Part], dir: &Path) -> Result<ServeSetup, String> {
    let config = &parts[0].config;
    let reports = grid::fill_fit_cache(parts, &open_cache(dir, config))?;
    let service = FitService::open(dir, config.clone()).map_err(|e| e.to_string())?;
    let mut fits = Vec::new();
    let mut attrs = HashMap::new();
    for (part, report) in parts.iter().zip(&reports) {
        let n = config.rows_for(part.paper.dataset().paper_n());
        attrs.insert(
            report.paper_id,
            part.paper.generate(n, config.data_seed).n_attrs(),
        );
        for (&kind, row) in report.synthesizers.iter().zip(&report.cells) {
            for (&epsilon, cell) in report.epsilons.iter().zip(row) {
                if cell.status == CellStatus::Ok {
                    fits.push(Fit {
                        paper: report.paper_id,
                        kind,
                        epsilon,
                    });
                }
            }
        }
    }
    let before = Counters::read(service.fits());
    let started = Instant::now();
    serve::warm_up(&service, &fits)?;
    let restore_s = started.elapsed().as_secs_f64();
    let store = Counters::read(service.fits()).since(&before);
    Ok(ServeSetup {
        service,
        fits,
        attrs,
        restore_s,
        store,
    })
}

/// Checks every serve pass must pass: every reply `"ok":true` and equal to
/// the first pass's, equal counters, and the implied row count.
fn check_serve_pass(
    out: &mut Outcome,
    what: &str,
    pass: &ServePass,
    counters: &Counters,
    reference: (&[Option<Reply>], &Counters),
) {
    out.attempted += pass.replies.len() as u64;
    let failed = pass
        .replies
        .iter()
        .filter(|r| !r.as_ref().is_some_and(|r| r.ok))
        .count();
    out.failed += failed as u64;
    out.check(failed == 0, || {
        format!("{what}: {failed} requests failed or were not ok")
    });
    let same = pass
        .replies
        .iter()
        .zip(reference.0)
        .all(|(a, b)| a.as_ref().map(|r| r.hash) == b.as_ref().map(|r| r.hash));
    out.check(same, || {
        format!("{what}: replies differ from the first pass")
    });
    out.check(counters == reference.1, || {
        format!(
            "{what}: counters {counters:?} differ from the first pass's {:?}",
            reference.1
        )
    });
    let rows = (serve::ROWS * pass.replies.len()) as u64;
    out.check(counters.rows_sampled == rows, || {
        format!(
            "{what}: sampled {} rows, the request mix implies {rows}",
            counters.rows_sampled
        )
    });
}

fn run_serve(args: &Args, threads: usize, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let parts = args.workload.parts(args.seed, threads);
    out.fit_threads = vec![synrd_synth::default_fit_threads()];
    let (setup_s, setup) =
        match repeat_setup(args.trace, || serve_setup(&parts, &work.join("setup"))) {
            Ok(setup) => setup,
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        };
    let ServeSetup {
        service,
        fits,
        attrs,
        restore_s,
        store,
    } = setup;
    let requests = serve::make_requests(&fits, &attrs, args.seed);
    let service = Arc::new(service);

    // Untraced passes against `synrd_serve::serve` itself, each on a fresh
    // server, so that one run does not inherit a single placement of the
    // server's worker threads for all of its passes.
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let mut passes: Vec<(ServePass, Counters)> = Vec::new();
    let phase = Instant::now();
    while passes.len() < min_passes || (!args.trace && phase.elapsed() < args.seconds) {
        let server = match synrd_serve::serve(Arc::clone(&service), "127.0.0.1:0", threads) {
            Ok(server) => server,
            Err(e) => {
                out.errors.push(format!("starting the server: {e}"));
                return out;
            }
        };
        let before = Counters::read(service.fits());
        let pass = serve::pass(server.addr(), &requests, threads);
        passes.push((pass, Counters::read(service.fits()).since(&before)));
        serve::shutdown(server.addr());
        server.join();
    }
    let (first, first_counters) = &passes[0];
    for (i, (pass, counters)) in passes.iter().enumerate() {
        check_serve_pass(
            &mut out,
            &format!("pass {i}"),
            pass,
            counters,
            (&first.replies, first_counters),
        );
    }
    match serve::verify_digests(&service, &requests, &first.replies) {
        Ok(n) => out
            .notes
            .push(("digests_verified", JsonValue::Uint(n as u64))),
        Err(e) => out.errors.push(e),
    }

    if !args.trace {
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|(p, _)| p.replies.iter().flatten().map(|r| r.latency))
            .collect();
        let walls: Vec<f64> = passes.iter().map(|(p, _)| p.wall).collect();
        end_to_end(&mut out, &walls, &setup_s, requests.len(), "requests");
        // Request latency, printed with the percentile rule's level and
        // count; the gated metrics above stay the same on every workload.
        let tail = tail_at(&latencies, tail_level(requests.len() * MIN_PASSES));
        out.info = vec![
            metric("req_p50_ms", median(&latencies) * 1e3, "ms"),
            metric(format!("req_p{}_ms", tail.level), tail.value * 1e3, "ms"),
            metric(
                "req_per_s",
                latencies.len() as f64 / walls.iter().sum::<f64>(),
                "1/s",
            ),
        ];
        out.notes
            .push(("latency_samples", JsonValue::Uint(tail.count as u64)));
        return out;
    }

    let tracer = Tracer::new();
    let before = Counters::read(service.fits());
    let traced = serve::traced_pass(&service, &requests, threads, &tracer);
    let counters = Counters::read(service.fits()).since(&before);
    check_serve_pass(
        &mut out,
        "traced pass",
        &traced,
        &counters,
        (&first.replies, first_counters),
    );
    let spans = tracer.spans();
    let layers = LayerInput {
        spans: &spans,
        tally: &Tally::default(),
        counters: Counters {
            fit_hits: store.fit_hits,
            fit_misses: store.fit_misses,
            fit_errors: store.fit_errors,
            ..counters
        },
        cpu: traced.cpu,
        wall: traced.wall,
        untraced_wall: first.wall,
        threads,
        timed_out: 0,
        bytes_written: 0,
        restore_s,
        serve: true,
    };
    out.metrics = per_layer(&layers);
    write_spans(&tracer, args, &mut out);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = host::nproc().min(MAX_THREADS);
    let work =
        WorkDir(Path::new(".bench_work").join(format!("{}-{}", args.name, std::process::id())));
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={threads}",
        args.name,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let mut out = match args.workload {
        Workload::ServeWarm => run_serve(&args, threads, &work),
        _ => run_grid(&args, threads, &work),
    };
    drop(work);
    let not_finite: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    out.errors.extend(not_finite);

    let mut host = host::record(threads, &out.fit_threads);
    host.extend(std::mem::take(&mut out.notes));
    println!("host: {}", JsonValue::obj(host).to_text());
    for m in out.metrics.iter().chain(&out.info) {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<32} {:>16.6} fraction ({} of {} operations failed)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for e in &out.errors {
        println!("check failed: {e}");
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                JsonValue::obj(vec![
                    (
                        "value",
                        JsonValue::Num(if m.value.is_finite() { m.value } else { 0.0 }),
                    ),
                    ("unit", JsonValue::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Uint(out.attempted.max(1))),
        ("failed", JsonValue::Uint(out.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ]);
    println!("{}", result.to_text());
    if !correct {
        std::process::exit(1);
    }
}
