//! Grid workloads: the untraced grid pass through `synrd::benchmark`, and the
//! traced recomposition that drives every cell itself through the same
//! public calls so each layer can be timed.

use crate::procfs::{cpu_times, CpuTimes};
use crate::trace::{Span, Tracer};
use rayon::prelude::*;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use synrd::benchmark::{
    run_paper_with_stores, BenchmarkConfig, CellOutcome, CellStatus, CoreBudget, FitStore,
    PaperReport,
};
use synrd::report::render_fig3_block;
use synrd::{Finding, Publication};
use synrd_data::Dataset;
use synrd_dp::{grid_seed, rng_for};
use synrd_store::{fit_digest, hex16, DiskFitCache};
use synrd_synth::{FitContext, FittedState, SynthError, SynthKind, Synthesizer};

/// One paper of a grid workload with the configuration it runs under.
pub struct Part {
    pub paper: Box<dyn Publication>,
    pub config: BenchmarkConfig,
}

/// Process counters read before and after a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub fits: u64,
    pub rows_sampled: u64,
    pub sampling_passes: u64,
    pub samplers_built: u64,
    pub marginal_counts: u64,
    pub fit_hits: u64,
    pub fit_misses: u64,
    pub fit_errors: u64,
}

impl Counters {
    pub fn read(cache: &DiskFitCache) -> Counters {
        let stats = cache.stats();
        Counters {
            fits: synrd::fits_performed(),
            rows_sampled: synrd::benchmark::rows_sampled(),
            sampling_passes: synrd::benchmark::sampling_passes(),
            samplers_built: synrd_pgm::samplers_built(),
            marginal_counts: synrd_data::marginal_counts_performed(),
            fit_hits: stats.hits,
            fit_misses: stats.misses,
            fit_errors: stats.errors,
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            fits: self.fits - earlier.fits,
            rows_sampled: self.rows_sampled - earlier.rows_sampled,
            sampling_passes: self.sampling_passes - earlier.sampling_passes,
            samplers_built: self.samplers_built - earlier.samplers_built,
            marginal_counts: self.marginal_counts - earlier.marginal_counts,
            fit_hits: self.fit_hits - earlier.fit_hits,
            fit_misses: self.fit_misses - earlier.fit_misses,
            fit_errors: self.fit_errors - earlier.fit_errors,
        }
    }
}

/// What one pass over a workload's papers produced.
pub struct Pass {
    pub wall: f64,
    pub reports: Vec<PaperReport>,
    pub counters: Counters,
    pub cpu: CpuTimes,
}

/// Run every part through `run_paper_with_stores`, rendering each report as `fig3`
/// does.
pub fn untraced_pass(parts: &[Part], fits: &DiskFitCache) -> Result<Pass, String> {
    let before = Counters::read(fits);
    let cpu = cpu_times();
    let started = Instant::now();
    let mut reports = Vec::with_capacity(parts.len());
    for part in parts {
        let report = run_paper_with_stores(part.paper.as_ref(), &part.config, None, Some(fits))
            .map_err(|e| format!("{}: {e}", part.paper.name()))?;
        std::hint::black_box(render_fig3_block(&report));
        reports.push(report);
    }
    Ok(Pass {
        wall: started.elapsed().as_secs_f64(),
        reports,
        counters: Counters::read(fits).since(&before),
        cpu: cpu_times().since(&cpu),
    })
}

/// Run every part once through the grid without timing, to fill `fits`.
pub fn fill_fit_cache(parts: &[Part], fits: &DiskFitCache) -> Result<Vec<PaperReport>, String> {
    parts
        .iter()
        .map(|part| {
            let config = BenchmarkConfig {
                bootstraps: 1,
                ..part.config.clone()
            };
            run_paper_with_stores(part.paper.as_ref(), &config, None, Some(fits))
                .map_err(|e| format!("{}: {e}", part.paper.name()))
        })
        .collect()
}

/// Rows the grid must sample for `reports`: n × seeds × B per feasible cell.
pub fn expected_rows(parts: &[Part], reports: &[PaperReport]) -> u64 {
    parts
        .iter()
        .zip(reports)
        .map(|(part, report)| {
            let ok = report
                .cells
                .iter()
                .flatten()
                .filter(|c| c.status == CellStatus::Ok)
                .count();
            (report.n_rows * part.config.seeds * part.config.bootstraps * ok) as u64
        })
        .sum()
}

/// Cells whose first fit ran over the fit budget.
pub fn timed_out_cells(reports: &[PaperReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| r.cells.iter().flatten())
        .filter(|c| c.status == CellStatus::TimedOut)
        .count() as u64
}

pub fn cell_count(reports: &[PaperReport]) -> u64 {
    reports
        .iter()
        .map(|r| r.cells.iter().flatten().count())
        .sum::<usize>() as u64
}

/// Check that the fit cache holds a stored fit for every seed of every
/// feasible cell, at the content address the store keys it by.
pub fn check_fits_stored(
    parts: &[Part],
    reports: &[PaperReport],
    digests: &[u64],
    fits: &DiskFitCache,
) -> Result<(), String> {
    for ((part, report), &digest) in parts.iter().zip(reports).zip(digests) {
        for (kind, row) in report.synthesizers.iter().zip(&report.cells) {
            for (&epsilon, cell) in report.epsilons.iter().zip(row) {
                if cell.status != CellStatus::Ok {
                    continue;
                }
                for seed in 0..part.config.seeds {
                    let address =
                        fit_digest(fits.fingerprint(), digest, kind.name(), epsilon, seed);
                    let path = fits
                        .root()
                        .join("fits")
                        .join(format!("{}.json", hex16(address)));
                    if !path.is_file() {
                        return Err(format!(
                            "{} {} eps={epsilon} seed {seed}: fit was not written to {}",
                            report.paper_id,
                            kind.name(),
                            path.display()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Total size of the files under `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Counts the traced recomposition keeps alongside its spans.
#[derive(Default)]
pub struct Tally {
    pub fits: AtomicU64,
    pub fit_errors: AtomicU64,
    pub infeasible: AtomicU64,
    pub sample_errors: AtomicU64,
    pub evaluations: AtomicU64,
    pub eval_errors: AtomicU64,
    /// Factor buffer allocations on the threads that called fit and sample.
    pub factor_allocs: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A timing wrapper over any fit store: each call becomes a span under the
/// cell that made it.
struct TimedFits<'a> {
    inner: &'a dyn FitStore,
    tracer: &'a Tracer,
    cell: u64,
}

impl FitStore for TimedFits<'_> {
    fn load(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
    ) -> Option<FittedState> {
        self.tracer.span(
            "store.fit_load",
            kind.name(),
            self.cell,
            Some(self.cell),
            |_| self.inner.load(dataset_digest, kind, epsilon, seed_index),
        )
    }

    fn save(
        &self,
        dataset_digest: u64,
        kind: SynthKind,
        epsilon: f64,
        seed_index: usize,
        state: &FittedState,
    ) {
        self.tracer.span(
            "store.fit_save",
            kind.name(),
            self.cell,
            Some(self.cell),
            |_| {
                self.inner
                    .save(dataset_digest, kind, epsilon, seed_index, state)
            },
        )
    }
}

/// The paper's real data, its findings and their statistics on that data.
struct Ground {
    real: Dataset,
    findings: Vec<Finding>,
    real_stats: Vec<Vec<f64>>,
    digest: u64,
    /// The fit-seed keystream key the grid derives from the digest.
    key: String,
}

/// Context shared by every traced call of one paper.
struct Ctx<'a> {
    tracer: &'a Tracer,
    tally: &'a Tally,
    paper_id: &'static str,
}

impl Ctx<'_> {
    /// Evaluate a finding inside a `finding.evaluate` span.
    fn evaluate(
        &self,
        finding: &Finding,
        data: &Dataset,
        group: u64,
        parent: u64,
    ) -> Option<Vec<f64>> {
        bump(&self.tally.evaluations, 1);
        let result = self.tracer.span(
            "finding.evaluate",
            self.paper_id,
            group,
            Some(parent),
            |_| finding.evaluate(data),
        );
        if result.is_err() {
            bump(&self.tally.eval_errors, 1);
        }
        result.ok()
    }
}

/// The grid's ground truth and control row, made through the same public
/// calls in the same order, with the same seeds.
fn traced_ground(part: &Part, ctx: &Ctx) -> Result<(Ground, Vec<f64>), String> {
    let Part { paper, config } = part;
    let tracer = ctx.tracer;
    let id = tracer.next_id();
    let group = id;
    let start = tracer.now();
    let n = config.rows_for(paper.dataset().paper_n());
    let real = tracer.span("data.generate", ctx.paper_id, group, Some(id), |_| {
        paper.generate(n, config.data_seed)
    });
    let findings = paper.findings();
    let mut real_stats = Vec::with_capacity(findings.len());
    for f in &findings {
        let stats = ctx
            .evaluate(f, &real, group, id)
            .filter(|s| s.iter().all(|v| v.is_finite()))
            .ok_or_else(|| format!("{}: finding {} undefined on real data", ctx.paper_id, f.id))?;
        real_stats.push(stats);
    }
    let digest = real.content_digest();
    let replicates = (config.bootstraps * config.seeds.max(1)).max(10);
    let mut rng = rng_for(config.data_seed, "bootstrap-control");
    let mut holds = vec![0.0f64; findings.len()];
    for _ in 0..replicates {
        let resample = real.bootstrap_sample(real.n_rows(), &mut rng);
        for (fi, finding) in findings.iter().enumerate() {
            let reproduced = ctx
                .evaluate(finding, &resample, group, id)
                .is_some_and(|stats| finding.reproduced(&real_stats[fi], &stats));
            if reproduced {
                holds[fi] += 1.0;
            }
        }
    }
    let control = holds.iter().map(|h| h / replicates as f64).collect();
    tracer.record(Span {
        id,
        parent: None,
        name: "core.ground_truth",
        label: ctx.paper_id,
        group,
        start,
        end: tracer.now(),
    });
    let ground = Ground {
        real,
        findings,
        real_stats,
        digest,
        key: format!("ds-{digest:016x}"),
    };
    Ok((ground, control))
}

fn unavailable(status: CellStatus, findings: usize, fit_seconds: f64) -> CellOutcome {
    CellOutcome {
        parity: vec![f64::NAN; findings],
        seed_variance: vec![f64::NAN; findings],
        status,
        fit_seconds,
    }
}

/// One (synthesizer, ε) cell, making the calls `run_cell` makes in the same
/// order with the same seeds, each inside a span parented by the cell.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    ctx: &Ctx,
    ground: &Ground,
    config: &BenchmarkConfig,
    kind: SynthKind,
    epsilon: f64,
    store: &dyn FitStore,
    fit_threads: usize,
    cell: u64,
) -> CellOutcome {
    let Ground {
        real,
        findings,
        real_stats,
        ..
    } = ground;
    let tracer = ctx.tracer;
    let tally = ctx.tally;
    let fits = TimedFits {
        inner: store,
        tracer,
        cell,
    };
    if config.restrict_privmrf && kind == SynthKind::PrivMrf && (epsilon - 1.0).abs() > 1e-9 {
        return unavailable(CellStatus::Skipped, findings.len(), 0.0);
    }
    let privacy = kind.native_privacy(epsilon, real.n_rows());
    let mut per_seed_parity: Vec<Vec<f64>> = Vec::with_capacity(config.seeds);
    let mut first_fit_seconds = 0.0f64;
    for seed_idx in 0..config.seeds {
        let started = Instant::now();
        let restored: Option<Box<dyn Synthesizer>> = fits
            .load(ground.digest, kind, epsilon, seed_idx)
            .and_then(|state| {
                let mut synth = kind.build();
                tracer
                    .span("synth.restore", kind.name(), cell, Some(cell), |_| {
                        synth.restore_state(state)
                    })
                    .ok()
                    .map(|()| synth)
            });
        let freshly_fitted = restored.is_none();
        let synth = match restored {
            Some(synth) => synth,
            None => {
                let mut synth = kind.build();
                let fit_seed = grid_seed(
                    config.data_seed,
                    &ground.key,
                    kind.name(),
                    epsilon,
                    seed_idx as u64,
                );
                bump(&tally.fits, 1);
                let allocs = synrd_pgm::factor_buffer_allocs();
                let fitted = tracer.span("synth.fit", kind.name(), cell, Some(cell), |_| {
                    synth.fit_with(
                        real,
                        privacy,
                        fit_seed,
                        FitContext::with_threads(fit_threads),
                    )
                });
                bump(
                    &tally.factor_allocs,
                    synrd_pgm::factor_buffer_allocs() - allocs,
                );
                match fitted {
                    Ok(()) => {}
                    Err(SynthError::Infeasible { reason }) => {
                        bump(&tally.infeasible, 1);
                        return unavailable(
                            CellStatus::Infeasible(reason),
                            findings.len(),
                            started.elapsed().as_secs_f64(),
                        );
                    }
                    Err(_) => {
                        bump(&tally.fit_errors, 1);
                        per_seed_parity.push(vec![0.0; findings.len()]);
                        continue;
                    }
                }
                synth
            }
        };
        let fit_seconds = started.elapsed().as_secs_f64();
        if seed_idx == 0 {
            first_fit_seconds = fit_seconds;
            if let Some(budget) = config.fit_timeout {
                if fit_seconds > budget.as_secs_f64() {
                    return unavailable(CellStatus::TimedOut, findings.len(), fit_seconds);
                }
            }
        }
        if freshly_fitted {
            if let Some(state) = synth.fitted_state() {
                fits.save(ground.digest, kind, epsilon, seed_idx, &state);
            }
        }
        let mut holds = vec![0.0f64; findings.len()];
        for b in 0..config.bootstraps {
            let draw_seed = grid_seed(
                config.data_seed,
                ctx.paper_id,
                kind.name(),
                epsilon,
                (config.seeds + seed_idx * config.bootstraps + b) as u64,
            );
            let allocs = synrd_pgm::factor_buffer_allocs();
            let sample = tracer.span("synth.sample", kind.name(), cell, Some(cell), |_| {
                synth.sample(real.n_rows(), draw_seed)
            });
            bump(
                &tally.factor_allocs,
                synrd_pgm::factor_buffer_allocs() - allocs,
            );
            let Ok(sample) = sample else {
                bump(&tally.sample_errors, 1);
                continue;
            };
            for (fi, finding) in findings.iter().enumerate() {
                let reproduced = ctx
                    .evaluate(finding, &sample, cell, cell)
                    .is_some_and(|stats| finding.reproduced(&real_stats[fi], &stats));
                if reproduced {
                    holds[fi] += 1.0;
                }
            }
        }
        per_seed_parity.push(holds.iter().map(|h| h / config.bootstraps as f64).collect());
    }
    let k = per_seed_parity.len().max(1) as f64;
    let parity: Vec<f64> = (0..findings.len())
        .map(|fi| per_seed_parity.iter().map(|s| s[fi]).sum::<f64>() / k)
        .collect();
    let seed_variance: Vec<f64> = (0..findings.len())
        .map(|fi| {
            let mean = parity[fi];
            per_seed_parity
                .iter()
                .map(|s| (s[fi] - mean).powi(2))
                .sum::<f64>()
                / k
        })
        .collect();
    CellOutcome {
        parity,
        seed_variance,
        status: CellStatus::Ok,
        fit_seconds: first_fit_seconds,
    }
}

/// One paper's grid, driven cell by cell on the grid's thread count with the
/// grid's per-fit thread allowance.
fn traced_paper(
    part: &Part,
    store: &dyn FitStore,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<PaperReport, String> {
    let Part { paper, config } = part;
    let ctx = Ctx {
        tracer,
        tally,
        paper_id: paper.dataset().id(),
    };
    let (ground, control) = traced_ground(part, &ctx)?;
    let grid: Vec<(usize, usize)> = (0..config.synthesizers.len())
        .flat_map(|s| (0..config.epsilons.len()).map(move |e| (s, e)))
        .collect();
    let fit_threads = CoreBudget::from_config(config).fit_threads(grid.len());
    let cell = |&(s, e): &(usize, usize)| -> CellOutcome {
        let kind = config.synthesizers[s];
        let epsilon = config.epsilons[e];
        let id = tracer.next_id();
        let start = tracer.now();
        let out = traced_cell(&ctx, &ground, config, kind, epsilon, store, fit_threads, id);
        tracer.record(Span {
            id,
            parent: None,
            name: "core.cell",
            label: kind.name(),
            group: id,
            start,
            end: tracer.now(),
        });
        out
    };
    let outcomes: Vec<CellOutcome> = if config.threads > 1 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(config.threads)
            .build()
            .expect("thread pool construction cannot fail")
            .install(|| grid.par_iter().map(cell).collect())
    } else {
        grid.iter().map(cell).collect()
    };
    Ok(PaperReport {
        paper_id: ctx.paper_id,
        paper_name: paper.name(),
        findings: ground
            .findings
            .iter()
            .map(|f| (f.id, f.name, f.kind))
            .collect(),
        epsilons: config.epsilons.clone(),
        synthesizers: config.synthesizers.clone(),
        cells: outcomes
            .chunks(config.epsilons.len().max(1))
            .map(<[CellOutcome]>::to_vec)
            .collect(),
        control,
        n_rows: ground.real.n_rows(),
    })
}

/// The traced counterpart of [`untraced_pass`].
pub fn traced_pass(
    parts: &[Part],
    fits: &DiskFitCache,
    tracer: &Tracer,
    tally: &Tally,
) -> Result<Pass, String> {
    let before = Counters::read(fits);
    let cpu = cpu_times();
    let started = Instant::now();
    let mut reports = Vec::with_capacity(parts.len());
    for part in parts {
        let report = traced_paper(part, fits, tracer, tally)?;
        let id = tracer.next_id();
        tracer.span("core.render", report.paper_id, id, None, |_| {
            std::hint::black_box(render_fig3_block(&report))
        });
        reports.push(report);
    }
    let mut counters = Counters::read(fits).since(&before);
    counters.fits = tally.fits.load(Ordering::Relaxed);
    Ok(Pass {
        wall: started.elapsed().as_secs_f64(),
        reports,
        counters,
        cpu: cpu_times().since(&cpu),
    })
}

/// Whether two sets of reports agree bit for bit (fit times excluded).
pub fn reports_equal(a: &[PaperReport], b: &[PaperReport]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bitwise_eq(y))
}
