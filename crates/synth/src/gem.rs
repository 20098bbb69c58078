//! GEM (Liu, Vietri & Wu 2021): generative networks with the Adaptive
//! Measurements framework under ρ-zCDP.
//!
//! GEM iteratively (1) privately selects the workload query where the
//! current generator errs most, (2) measures it with Gaussian noise, and
//! (3) gradient-updates the generator to match all noisy measurements so
//! far. Our generator is a uniform mixture of K product distributions with
//! per-attribute softmax logits — the same model family GEM's neural
//! network parameterizes, with fully analytic gradients. Because it never
//! materializes anything larger than a pair marginal, GEM runs on domains
//! that defeat every PGM-based method (e.g. Jeong et al.'s 1e43).
//!
//! The analytic trainer contains no GEMM, so the ML backend
//! (`synrd_ml::backend`) plays no part in this synthesizer — only
//! PATE-CTGAN's batched MLP passes route through it.

use crate::common::{dataset_from_columns, measure_gaussian};
use crate::error::{Result, SynthError};
use crate::workload::all_pairs;
use crate::{FitContext, FittedState, Synthesizer};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use synrd_data::{Dataset, Domain, MarginalEngine};
use synrd_dp::{derive_seed, exponential_epsilon, exponential_mechanism, Accountant, Privacy};
use synrd_pgm::{parallel_rows, record_sampling_pass, search_cumulative, NoisyMeasurement};

/// Configuration for [`Gem`].
#[derive(Debug, Clone, Copy)]
pub struct GemOptions {
    /// Mixture components.
    pub mixture: usize,
    /// Select-measure rounds.
    pub rounds: usize,
    /// Gradient steps after each new measurement.
    pub grad_steps: usize,
    /// Adam learning rate on the logits.
    pub learning_rate: f64,
}

impl Default for GemOptions {
    fn default() -> Self {
        GemOptions {
            mixture: 24,
            rounds: 16,
            grad_steps: 120,
            learning_rate: 0.08,
        }
    }
}

/// Serializable GEM generator state: the mixture logits plus the Adam
/// moments, so a restored model resumes (or replays) exactly where the fit
/// left off. Shapes are `[component][attribute][code]`.
#[derive(Debug, Clone, PartialEq)]
pub struct GemState {
    /// Mixture logits.
    pub logits: Vec<Vec<Vec<f64>>>,
    /// Adam first moments, same shape as `logits`.
    pub m: Vec<Vec<Vec<f64>>>,
    /// Adam second moments, same shape as `logits`.
    pub v: Vec<Vec<Vec<f64>>>,
    /// Adam step counter.
    pub step: u64,
}

/// Mixture-of-products generator parameters.
#[derive(Debug, Clone)]
struct GemModel {
    /// logits[k][attr][code].
    logits: Vec<Vec<Vec<f64>>>,
    /// Adam moments, same shape.
    m: Vec<Vec<Vec<f64>>>,
    v: Vec<Vec<Vec<f64>>>,
    step: usize,
}

impl GemModel {
    /// Initialize with small random logits: starting every component at the
    /// same point would give all of them identical gradients forever and
    /// collapse the mixture to a single product distribution (independence),
    /// losing all pair structure.
    fn new<R: Rng + ?Sized>(k: usize, shape: &[usize], rng: &mut R) -> GemModel {
        let zeros: Vec<Vec<f64>> = shape.iter().map(|&c| vec![0.0; c]).collect();
        let logits = (0..k)
            .map(|_| {
                shape
                    .iter()
                    .map(|&c| (0..c).map(|_| rng.gen::<f64>() * 1.6 - 0.8).collect())
                    .collect()
            })
            .collect();
        GemModel {
            logits,
            m: vec![zeros.clone(); k],
            v: vec![zeros; k],
            step: 0,
        }
    }

    /// Every component×attribute softmax, shaped `[component][attribute][code]`.
    fn all_probs(&self) -> Vec<Vec<Vec<f64>>> {
        self.logits
            .iter()
            .map(|comp| comp.iter().map(|l| softmax(l)).collect())
            .collect()
    }

    /// Export as plain serializable state.
    fn to_state(&self) -> GemState {
        GemState {
            logits: self.logits.clone(),
            m: self.m.clone(),
            v: self.v.clone(),
            step: self.step as u64,
        }
    }

    /// Rebuild from exported state, validating that all three parameter
    /// tensors share one shape and that shape matches `shape` (the domain's
    /// per-attribute cardinalities).
    fn from_state(state: GemState, shape: &[usize]) -> std::result::Result<GemModel, String> {
        let k = state.logits.len();
        if k == 0 {
            return Err("empty mixture".to_string());
        }
        if state.m.len() != k || state.v.len() != k {
            return Err(format!(
                "moment tensors have {} / {} components, logits have {k}",
                state.m.len(),
                state.v.len()
            ));
        }
        for comp in 0..k {
            for tensor in [&state.logits[comp], &state.m[comp], &state.v[comp]] {
                if tensor.len() != shape.len() {
                    return Err(format!(
                        "component {comp} covers {} attributes, domain has {}",
                        tensor.len(),
                        shape.len()
                    ));
                }
                for (a, (per_code, &card)) in tensor.iter().zip(shape).enumerate() {
                    if per_code.len() != card {
                        return Err(format!(
                            "component {comp} attribute {a} has {} codes, domain has {card}",
                            per_code.len()
                        ));
                    }
                }
            }
        }
        let step = usize::try_from(state.step).map_err(|_| "step overflows usize".to_string())?;
        Ok(GemModel {
            logits: state.logits,
            m: state.m,
            v: state.v,
            step,
        })
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] into a caller-owned buffer of the same length.
fn softmax_into(logits: &[f64], out: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (o, l) in out.iter_mut().zip(logits) {
        *o = (l - max).exp();
    }
    let total: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= total;
    }
}

/// Mixture marginal over 1 or 2 attributes (probability space) from cached
/// per-component probabilities, written into `out`. Components are summed
/// in ascending order, each term divided by the mixture size, exactly as
/// the on-demand `GemModel::marginal` does.
fn marginal_into(probs: &[Vec<Vec<f64>>], attrs: &[usize], out: &mut [f64]) {
    let kk = probs.len() as f64;
    out.fill(0.0);
    match attrs {
        [a] => {
            for comp in probs {
                for (o, p) in out.iter_mut().zip(&comp[*a]) {
                    *o += p / kk;
                }
            }
        }
        [a, b] => {
            for comp in probs {
                let pb = &comp[*b];
                for (row, &x) in out.chunks_exact_mut(pb.len()).zip(&comp[*a]) {
                    for (o, &y) in row.iter_mut().zip(pb) {
                        *o += x * y / kk;
                    }
                }
            }
        }
        _ => unreachable!("GEM measures only 1- and 2-way marginals"),
    }
}

/// The retained on-demand softmax accessors, used only by the
/// differential oracle [`train_naive`] and its round scoring.
#[cfg(any(test, feature = "naive-reference"))]
impl GemModel {
    /// Per-component softmax probabilities for one attribute.
    fn probs(&self, k: usize, attr: usize) -> Vec<f64> {
        softmax(&self.logits[k][attr])
    }

    /// Model marginal over 1 or 2 attributes (probability space).
    fn marginal(&self, attrs: &[usize]) -> Vec<f64> {
        let kk = self.logits.len() as f64;
        match attrs {
            [a] => {
                let card = self.logits[0][*a].len();
                let mut out = vec![0.0; card];
                for k in 0..self.logits.len() {
                    for (o, p) in out.iter_mut().zip(self.probs(k, *a)) {
                        *o += p / kk;
                    }
                }
                out
            }
            [a, b] => {
                let ca = self.logits[0][*a].len();
                let cb = self.logits[0][*b].len();
                let mut out = vec![0.0; ca * cb];
                for k in 0..self.logits.len() {
                    let pa = self.probs(k, *a);
                    let pb = self.probs(k, *b);
                    for (i, &x) in pa.iter().enumerate() {
                        for (j, &y) in pb.iter().enumerate() {
                            out[i * cb + j] += x * y / kk;
                        }
                    }
                }
                out
            }
            _ => unreachable!("GEM measures only 1- and 2-way marginals"),
        }
    }
}

/// The GEM synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Gem {
    options: GemOptions,
    fitted: Option<(Domain, GemModel)>,
}

impl Gem {
    /// GEM with custom options.
    pub fn with_options(options: GemOptions) -> Gem {
        Gem {
            options,
            fitted: None,
        }
    }

    /// The fit, generic over the numeric kernels: [`Cached`] in production,
    /// the retained `Naive` oracle in differential tests.
    fn fit_using<K: Kernels>(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-fit"));
        let mut accountant = Accountant::new(privacy);
        let total = accountant.total();
        let d = data.n_attrs();
        let shape = data.domain().shape();
        let n = data.n_rows() as f64;

        // One marginal engine per fit: every adaptive round re-scores the
        // whole workload against the same true counts, so each pair is
        // counted once and cached.
        let mut engine = MarginalEngine::new(data);

        // Warm start: all 1-way marginals on 20% of the budget.
        let rho_one = 0.20 * total / d as f64;
        let mut measured: Vec<(NoisyMeasurement, f64)> = Vec::new(); // (measurement, weight)
        for a in 0..d {
            accountant.spend(rho_one)?;
            let m = measure_gaussian(&mut engine, &[a], rho_one, &mut rng)?;
            let w = 1.0 / m.sigma.powi(2);
            measured.push((m, w));
        }

        let workload = all_pairs(data.domain());
        if workload.is_empty() {
            return Err(SynthError::Infeasible {
                reason: "GEM: empty workload (single-attribute domain)".to_string(),
            });
        }
        let mut model = GemModel::new(self.options.mixture, &shape, &mut rng);
        K::train(&mut model, &measured, &shape, n, &self.options, ctx.threads);

        // Adaptive rounds on the remaining 80%. Round 0 scores every pair,
        // so count the whole workload in one fused sweep up front.
        let rounds = self.options.rounds.min(workload.len());
        if rounds > 0 {
            let sets: Vec<Vec<usize>> = workload.iter().map(|q| q.attrs.clone()).collect();
            engine.prefetch(&sets)?;
        }
        let mut chosen: Vec<Vec<usize>> = Vec::new();
        for round in 0..rounds {
            let remaining = accountant.remaining();
            if remaining <= 1e-12 {
                break;
            }
            let rho_round = remaining / (rounds - round) as f64;
            let (rho_select, rho_measure) = (rho_round / 2.0, rho_round / 2.0);

            // Score candidates by the generator's L1 error on true counts.
            let cands: Vec<&Vec<usize>> = workload
                .iter()
                .map(|q| &q.attrs)
                .filter(|attrs| !chosen.contains(attrs))
                .collect();
            if cands.is_empty() {
                break;
            }
            let mut scores: Vec<f64> = Vec::with_capacity(cands.len());
            for (attrs, model_probs) in cands.iter().zip(K::marginals(&model, &shape, &cands)) {
                let true_counts = engine.count(attrs)?;
                let l1: f64 = true_counts
                    .counts()
                    .iter()
                    .zip(&model_probs)
                    .map(|(&c, &p)| (c - n * p).abs())
                    .sum();
                scores.push(l1);
            }
            accountant.spend(rho_select)?;
            let eps_select = exponential_epsilon(rho_select)?;
            let pick = exponential_mechanism(&scores, 2.0, eps_select, &mut rng)?;
            let attrs = cands[pick].clone();

            accountant.spend(rho_measure)?;
            let m = measure_gaussian(&mut engine, &attrs, rho_measure, &mut rng)?;
            let w = 1.0 / m.sigma.powi(2);
            measured.push((m, w));
            chosen.push(attrs);
            K::train(&mut model, &measured, &shape, n, &self.options, ctx.threads);
        }

        self.fitted = Some((data.domain().clone(), model));
        Ok(())
    }
}

/// The retained differential oracle: the trainer and round scoring that
/// recompute every softmax on demand.
#[cfg(any(test, feature = "naive-reference"))]
impl Gem {
    /// [`Synthesizer::fit_with`] through `train_naive` and on-demand
    /// marginal scoring. Bit-identical to `fit_with`; kept as its oracle.
    ///
    /// # Errors
    /// As [`Synthesizer::fit_with`].
    pub fn fit_naive(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        self.fit_using::<Naive>(data, privacy, seed, ctx)
    }
}

impl Synthesizer for Gem {
    fn name(&self) -> &'static str {
        "GEM"
    }

    fn fit_with(
        &mut self,
        data: &Dataset,
        privacy: Privacy,
        seed: u64,
        ctx: FitContext,
    ) -> Result<()> {
        self.fit_using::<Cached>(data, privacy, seed, ctx)
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, model) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-sample"));
        let d = domain.len();
        let kk = model.logits.len();
        let cums = cumulative_tables(model);
        // Pre-draw the mixture-component pick and the per-attribute
        // uniforms of every row in the exact row-major order the per-row
        // sampler consumed them, so the node-major pass below is
        // bit-identical to it.
        let mut comps: Vec<u32> = Vec::with_capacity(n);
        let mut uniforms: Vec<f64> = Vec::with_capacity(n * d);
        for _ in 0..n {
            comps.push(rng.gen_range(0..kk) as u32);
            for _ in 0..d {
                uniforms.push(rng.gen());
            }
        }
        record_sampling_pass(n as u64);
        // Node-major batched ancestral sampling: resolve one attribute
        // across all rows off its precomputed per-component cumulative
        // tables. Columns are independent given the pre-drawn randomness,
        // so the parallel map is bit-identical to the sequential one.
        let build_column = |a: &usize| -> Vec<u32> {
            let a = *a;
            (0..n)
                .map(|r| {
                    let cum = &cums[comps[r] as usize][a];
                    search_cumulative(cum, uniforms[r * d + a]) as u32
                })
                .collect()
        };
        let attrs: Vec<usize> = (0..d).collect();
        let columns: Vec<Vec<u32>> = if parallel_rows(n) && d > 1 {
            attrs.par_iter().map(build_column).collect()
        } else {
            attrs.iter().map(build_column).collect()
        };
        dataset_from_columns(domain, columns)
    }

    fn fitted_state(&self) -> Option<FittedState> {
        self.fitted
            .as_ref()
            .map(|(domain, model)| FittedState::Gem {
                domain: domain.clone(),
                model: model.to_state(),
            })
    }

    fn restore_state(&mut self, state: FittedState) -> Result<()> {
        match state {
            FittedState::Gem { domain, model } => {
                let model = GemModel::from_state(model, &domain.shape()).map_err(|reason| {
                    SynthError::StateMismatch {
                        reason: format!("GEM: {reason}"),
                    }
                })?;
                self.fitted = Some((domain, model));
                Ok(())
            }
            other => Err(SynthError::StateMismatch {
                reason: format!("GEM: expected gem state, got {}", other.variant()),
            }),
        }
    }
}

/// Per-component, per-attribute cumulative probability tables (unnormalized
/// tails exactly as the per-row sampler accumulated them).
fn cumulative_tables(model: &GemModel) -> Vec<Vec<Vec<f64>>> {
    let mut cums = model.all_probs();
    for c in cums.iter_mut().flatten() {
        let mut acc = 0.0;
        for v in c.iter_mut() {
            acc += *v;
            *v = acc;
        }
    }
    cums
}

#[cfg(test)]
impl Gem {
    /// The original per-row sampler, retained as the differential oracle
    /// for the node-major batched path.
    fn sample_naive(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, model) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-sample"));
        let d = domain.len();
        let kk = model.logits.len();
        let cums = cumulative_tables(model);
        let mut columns = vec![vec![0u32; n]; d];
        for r in 0..n {
            let k = rng.gen_range(0..kk);
            for (a, col) in columns.iter_mut().enumerate() {
                let u: f64 = rng.gen();
                col[r] = search_cumulative(&cums[k][a], u) as u32;
            }
        }
        dataset_from_columns(domain, columns)
    }
}

/// The numeric kernels of a fit: the trainer and the model marginals the
/// round scoring compares against true counts.
trait Kernels {
    /// Adam on the mixture logits against all measurements so far.
    fn train(
        model: &mut GemModel,
        measured: &[(NoisyMeasurement, f64)],
        shape: &[usize],
        n: f64,
        options: &GemOptions,
        threads: usize,
    );

    /// The model marginal of every candidate, in order.
    fn marginals(model: &GemModel, shape: &[usize], candidates: &[&Vec<usize>]) -> Vec<Vec<f64>>;
}

/// Production kernels: every softmax computed once per step (or round).
struct Cached;

impl Kernels for Cached {
    fn train(
        model: &mut GemModel,
        measured: &[(NoisyMeasurement, f64)],
        shape: &[usize],
        n: f64,
        options: &GemOptions,
        threads: usize,
    ) {
        train(model, measured, shape, n, options, threads);
    }

    fn marginals(model: &GemModel, shape: &[usize], candidates: &[&Vec<usize>]) -> Vec<Vec<f64>> {
        let probs = model.all_probs();
        candidates
            .iter()
            .map(|attrs| {
                let cells = attrs.iter().map(|&a| shape[a]).product();
                let mut out = vec![0.0; cells];
                marginal_into(&probs, attrs, &mut out);
                out
            })
            .collect()
    }
}

/// Oracle kernels: [`train_naive`] and on-demand `GemModel::marginal`.
#[cfg(any(test, feature = "naive-reference"))]
struct Naive;

#[cfg(any(test, feature = "naive-reference"))]
impl Kernels for Naive {
    fn train(
        model: &mut GemModel,
        measured: &[(NoisyMeasurement, f64)],
        _shape: &[usize],
        n: f64,
        options: &GemOptions,
        threads: usize,
    ) {
        train_naive(
            model,
            measured,
            n,
            options.grad_steps,
            options.learning_rate,
            threads,
        );
    }

    fn marginals(model: &GemModel, _shape: &[usize], candidates: &[&Vec<usize>]) -> Vec<Vec<f64>> {
        candidates
            .iter()
            .map(|attrs| model.marginal(attrs))
            .collect()
    }
}

/// One component's `[attribute][code]` tensors, the unit of a training
/// step's parallel region: logits, Adam moments `m` and `v`, the gradient
/// scratch and the cached softmax.
type ComponentJob<'a> = (
    &'a mut Vec<Vec<f64>>,
    &'a mut Vec<Vec<f64>>,
    &'a mut Vec<Vec<f64>>,
    &'a mut Vec<Vec<f64>>,
    &'a mut Vec<Vec<f64>>,
);

/// Adam on the mixture logits against all measurements so far.
///
/// The trainer is analytic (no GEMM). Each step:
///
/// 1. reads the cached softmax of every component×attribute — computed once
///    before the first step and refreshed by each component's own update,
///    so every softmax is computed exactly once per step;
/// 2. builds each measurement's mixture marginal from those probabilities
///    and turns it in place into the residual `2.0 * w * (m - t)`, hoisted
///    out of the per-component loop because it does not depend on the
///    component;
/// 3. runs one parallel region with one job per component: accumulate the
///    probability-space gradient (`residual / kf` for 1-way measurements,
///    `Σ residual * p` then `/ kf` for pairs), chain it through the cached
///    softmax, take the Adam step, then refresh that component's softmax.
///
/// A component's job reads only the shared pre-step residuals and its own
/// slices, and every cell accumulates in ascending measurement (and code)
/// order, so the trainer is **bit-identical at any thread count** and to
/// `train_naive`. That identity rests on keeping the float expressions
/// exactly as the oracle wrote them: the hoisted factor is `2.0 * w * (m -
/// t)`, then `* p` or `/ kf` is applied to it — never reassociate them (no
/// `2.0 * w / kf`, no folding `/ kf` into the residual).
fn train(
    model: &mut GemModel,
    measured: &[(NoisyMeasurement, f64)],
    shape: &[usize],
    n: f64,
    options: &GemOptions,
    threads: usize,
) {
    let (steps, lr) = (options.grad_steps, options.learning_rate);
    let kk = model.logits.len();
    let kf = kk as f64;
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
    // Normalize weights so the learning rate is scale-free.
    let wsum: f64 = measured.iter().map(|(_, w)| *w).sum::<f64>().max(1e-12);
    // Measurement weights and proportion targets are step-invariant.
    let prepared: Vec<(&[usize], f64, Vec<f64>)> = measured
        .iter()
        .map(|(meas, w)| {
            let target = meas.values.iter().map(|v| v / n).collect();
            (meas.attrs.as_slice(), w / wsum, target)
        })
        .collect();
    // Per-step buffers, allocated once: each measurement's residual, each
    // component's probability-space gradient, and the cached softmaxes.
    let mut residuals: Vec<Vec<f64>> = prepared
        .iter()
        .map(|(_, _, target)| vec![0.0; target.len()])
        .collect();
    let zeros: Vec<Vec<f64>> = shape.iter().map(|&c| vec![0.0; c]).collect();
    let mut grad_p = vec![zeros; kk];
    let mut probs = model.all_probs();
    let max_card = shape.iter().copied().max().unwrap_or(0);
    let threads = threads.clamp(1, kk);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("gem thread pool");

    for _ in 0..steps {
        model.step += 1;
        let t = model.step as f64;
        // Adam bias-correction scalars hoisted to once per step; `powf` is
        // deterministic, so dividing by the precomputed corrections is
        // bit-identical to recomputing them per parameter.
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);

        // Residuals against the pre-step mixture, shared by every component.
        for ((attrs, w, target), r) in prepared.iter().zip(residuals.iter_mut()) {
            marginal_into(&probs, attrs, r);
            for (r, t) in r.iter_mut().zip(target) {
                *r = 2.0 * w * (*r - t);
            }
        }

        let prepared = &prepared;
        let residuals = &residuals;
        let step_component = |(logits_k, m_k, v_k, grad_k, probs_k): ComponentJob| {
            // Gradient wrt probabilities, measurements in ascending order.
            for g in grad_k.iter_mut() {
                g.fill(0.0);
            }
            let mut col_acc = vec![0.0; max_card];
            for ((attrs, _, _), r) in prepared.iter().zip(residuals) {
                match **attrs {
                    [a] => {
                        for (g, &res) in grad_k[a].iter_mut().zip(r) {
                            *g += res / kf;
                        }
                    }
                    [a, b] => {
                        let (pa, pb) = (&probs_k[a], &probs_k[b]);
                        let col_acc = &mut col_acc[..shape[b]];
                        col_acc.fill(0.0);
                        // One row-major pass: the row sum for `a`'s code i
                        // runs over j ascending, and each column sum for
                        // `b`'s code j over i ascending, as in the oracle.
                        for ((ga, row), &pai) in
                            grad_k[a].iter_mut().zip(r.chunks_exact(shape[b])).zip(pa)
                        {
                            let mut acc = 0.0;
                            for ((&res, &pbj), cj) in row.iter().zip(pb).zip(col_acc.iter_mut()) {
                                acc += res * pbj;
                                *cj += res * pai;
                            }
                            *ga += acc / kf;
                        }
                        for (gb, &cj) in grad_k[b].iter_mut().zip(col_acc.iter()) {
                            *gb += cj / kf;
                        }
                    }
                    _ => {}
                }
            }
            // Chain through the (pre-step) softmax, take the Adam step, then
            // refresh this component's softmax for the next step.
            for (((logits_a, p), gp), (m_a, v_a)) in logits_k
                .iter_mut()
                .zip(probs_k.iter_mut())
                .zip(grad_k.iter())
                .zip(m_k.iter_mut().zip(v_k.iter_mut()))
            {
                let dot: f64 = p.iter().zip(gp).map(|(x, y)| x * y).sum();
                for u in 0..p.len() {
                    let g = p[u] * (gp[u] - dot);
                    let m = &mut m_a[u];
                    let v = &mut v_a[u];
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    logits_a[u] -= lr * mhat / (vhat.sqrt() + eps);
                }
                softmax_into(logits_a, p);
            }
        };
        let jobs = model
            .logits
            .iter_mut()
            .zip(model.m.iter_mut())
            .zip(model.v.iter_mut())
            .zip(grad_p.iter_mut())
            .zip(probs.iter_mut())
            .map(|((((l, m), v), g), p)| (l, m, v, g, p));
        if threads > 1 {
            let jobs: Vec<_> = jobs.collect();
            pool.install(|| jobs.into_par_iter().for_each(step_component));
        } else {
            jobs.for_each(step_component);
        }
    }
}

/// The original trainer, retained as the differential oracle for
/// [`train`]: it recomputes every softmax on demand (each measurement's
/// marginal, each component's pair gradient, the Adam step) and runs the
/// gradient and Adam phases as two parallel regions per step.
#[cfg(any(test, feature = "naive-reference"))]
fn train_naive(
    model: &mut GemModel,
    measured: &[(NoisyMeasurement, f64)],
    n: f64,
    steps: usize,
    lr: f64,
    threads: usize,
) {
    let kk = model.logits.len();
    let kf = kk as f64;
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8f64);
    // Normalize weights so the learning rate is scale-free.
    let wsum: f64 = measured.iter().map(|(_, w)| *w).sum::<f64>().max(1e-12);
    // Gradient arena wrt probabilities, hoisted out of the step loop and
    // zeroed in place: allocating `mixture × d` nested Vecs per step made
    // the trainer allocation-bound at high step counts.
    let mut grad_p: Vec<Vec<Vec<f64>>> = model
        .logits
        .iter()
        .map(|comp| comp.iter().map(|l| vec![0.0; l.len()]).collect())
        .collect();
    // Measurement weights and proportion targets are step-invariant.
    let prepared: Vec<(&NoisyMeasurement, f64, Vec<f64>)> = measured
        .iter()
        .map(|(meas, w)| (meas, w / wsum, meas.values.iter().map(|v| v / n).collect()))
        .collect();
    let threads = threads.clamp(1, kk);

    for _ in 0..steps {
        model.step += 1;
        let t = model.step as f64;
        // Adam bias-correction scalars hoisted to once per step; `powf` is
        // deterministic, so dividing by the precomputed corrections is
        // bit-identical to recomputing them per parameter.
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);

        // Model marginals once per measurement per step (pure reads of the
        // pre-step model, shared by every component's gradient).
        let mps: Vec<Vec<f64>> = prepared
            .iter()
            .map(|(meas, _, _)| model.marginal(&meas.attrs))
            .collect();

        // Accumulate gradients wrt probabilities, one component at a time;
        // every cell sums its measurement contributions in ascending
        // measurement order.
        let model_ref: &GemModel = model;
        let mps_ref = &mps;
        let prepared_ref = &prepared;
        let accumulate = move |k: usize, comp: &mut Vec<Vec<f64>>| {
            for g in comp.iter_mut() {
                g.fill(0.0);
            }
            for ((meas, w, target), mp) in prepared_ref.iter().zip(mps_ref) {
                match meas.attrs.as_slice() {
                    [a] => {
                        for (v, g) in comp[*a].iter_mut().enumerate() {
                            *g += 2.0 * w * (mp[v] - target[v]) / kf;
                        }
                    }
                    [a, b] => {
                        let cb = model_ref.logits[0][*b].len();
                        let pa = model_ref.probs(k, *a);
                        let pb = model_ref.probs(k, *b);
                        for (i, ga) in comp[*a].iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (j, &pbj) in pb.iter().enumerate() {
                                acc += 2.0 * w * (mp[i * cb + j] - target[i * cb + j]) * pbj;
                            }
                            *ga += acc / kf;
                        }
                        for (j, gb) in comp[*b].iter_mut().enumerate() {
                            let mut acc = 0.0;
                            for (i, &pai) in pa.iter().enumerate() {
                                acc += 2.0 * w * (mp[i * cb + j] - target[i * cb + j]) * pai;
                            }
                            *gb += acc / kf;
                        }
                    }
                    _ => {}
                }
            }
        };
        if threads > 1 {
            let jobs: Vec<(usize, &mut Vec<Vec<f64>>)> = grad_p.iter_mut().enumerate().collect();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("gem thread pool");
            pool.install(|| {
                jobs.into_par_iter()
                    .for_each(|(k, comp)| accumulate(k, comp));
            });
        } else {
            for (k, comp) in grad_p.iter_mut().enumerate() {
                accumulate(k, comp);
            }
        }

        // Chain through softmax and apply Adam — per-component parameter and
        // moment slices are disjoint, and the update is element-wise.
        let step_component = |logits_k: &mut Vec<Vec<f64>>,
                              m_k: &mut Vec<Vec<f64>>,
                              v_k: &mut Vec<Vec<f64>>,
                              grad_k: &Vec<Vec<f64>>| {
            for a in 0..logits_k.len() {
                let p = softmax(&logits_k[a]);
                let gp = &grad_k[a];
                let dot: f64 = p.iter().zip(gp).map(|(x, y)| x * y).sum();
                for u in 0..p.len() {
                    let g = p[u] * (gp[u] - dot);
                    let m = &mut m_k[a][u];
                    let v = &mut v_k[a][u];
                    *m = b1 * *m + (1.0 - b1) * g;
                    *v = b2 * *v + (1.0 - b2) * g * g;
                    let mhat = *m / bc1;
                    let vhat = *v / bc2;
                    logits_k[a][u] -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        };
        if threads > 1 {
            #[allow(clippy::type_complexity)]
            let jobs: Vec<(
                (&mut Vec<Vec<f64>>, &mut Vec<Vec<f64>>, &mut Vec<Vec<f64>>),
                &Vec<Vec<f64>>,
            )> = model
                .logits
                .iter_mut()
                .zip(model.m.iter_mut())
                .zip(model.v.iter_mut())
                .map(|((l, m), v)| (l, m, v))
                .zip(grad_p.iter())
                .collect();
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("gem thread pool");
            pool.install(|| {
                jobs.into_par_iter()
                    .for_each(|((l, m, v), g)| step_component(l, m, v, g));
            });
        } else {
            for (((l, m), v), g) in model
                .logits
                .iter_mut()
                .zip(model.m.iter_mut())
                .zip(model.v.iter_mut())
                .zip(grad_p.iter())
            {
                step_component(l, m, v, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use synrd_data::Attribute;

    fn gem_state(synth: &Gem) -> GemState {
        match synth.fitted_state() {
            Some(FittedState::Gem { model, .. }) => model,
            other => panic!("expected gem state, got {other:?}"),
        }
    }

    fn correlated(n: usize) -> Dataset {
        let domain = Domain::new(vec![Attribute::binary("x"), Attribute::ordinal("y", 3)]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let x = u32::from(rng.gen::<f64>() < 0.4);
            let y = if x == 1 {
                2
            } else {
                u32::from(rng.gen::<f64>() < 0.5)
            };
            ds.push_row(&[x, y]).unwrap();
        }
        ds
    }

    #[test]
    fn mixture_learns_pair_structure() {
        let data = correlated(5_000);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(2.0).unwrap(), 3).unwrap();
        let sample = synth.sample(5_000, 5).unwrap();
        // P(y = 2 | x = 1) must stay dominant.
        let x1 = sample.filter_rows(|r| r.get(0) == 1);
        let p = x1.proportion(1, 2).unwrap();
        assert!(p > 0.7, "p(y=2|x=1) = {p:.3}");
    }

    #[test]
    fn one_way_marginals_match_under_generous_budget() {
        let data = correlated(5_000);
        let mut synth = Gem::default();
        synth.fit(&data, Privacy::zcdp(4.0).unwrap(), 7).unwrap();
        let sample = synth.sample(5_000, 9).unwrap();
        let real = data.mean_of(0).unwrap();
        let got = sample.mean_of(0).unwrap();
        assert!((real - got).abs() < 0.05, "{got} vs {real}");
    }

    #[test]
    fn batched_sample_matches_naive() {
        let data = correlated(2_000);
        let mut synth = Gem::with_options(GemOptions {
            mixture: 8,
            rounds: 3,
            grad_steps: 30,
            learning_rate: 0.1,
        });
        synth.fit(&data, Privacy::zcdp(1.0).unwrap(), 5).unwrap();
        for (n, seed) in [(0usize, 1u64), (1, 2), (513, 3), (20_000, 4)] {
            let batched = synth.sample(n, seed).unwrap();
            let naive = synth.sample_naive(n, seed).unwrap();
            assert_eq!(batched, naive, "n = {n}");
        }
    }

    #[test]
    fn fit_is_bit_identical_across_thread_counts() {
        let data = correlated(1_200);
        let opts = GemOptions {
            mixture: 8,
            rounds: 3,
            grad_steps: 25,
            learning_rate: 0.1,
        };
        let mut base = Gem::with_options(opts);
        base.fit_with(
            &data,
            Privacy::zcdp(1.0).unwrap(),
            11,
            FitContext::sequential(),
        )
        .unwrap();
        let base_state = gem_state(&base);
        let base_sample = base.sample(777, 4).unwrap();
        for threads in [2usize, 3, 7] {
            let mut mt = Gem::with_options(opts);
            mt.fit_with(
                &data,
                Privacy::zcdp(1.0).unwrap(),
                11,
                FitContext::with_threads(threads),
            )
            .unwrap();
            assert_eq!(gem_state(&mt), base_state, "threads = {threads}");
            assert_eq!(
                mt.sample(777, 4).unwrap(),
                base_sample,
                "threads = {threads}"
            );
        }
    }

    /// Four attributes of cardinalities 2, 3, 5 and 7, each code drawn
    /// near the previous attribute's so every pair carries structure.
    fn mixed(n: usize) -> Dataset {
        let cards = [2usize, 3, 5, 7];
        let domain = Domain::new(
            cards
                .iter()
                .enumerate()
                .map(|(a, &c)| Attribute::ordinal(format!("a{a}"), c))
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(17);
        let mut ds = Dataset::with_capacity(domain, n);
        for _ in 0..n {
            let mut row = [0u32; 4];
            for (a, &c) in cards.iter().enumerate() {
                let prev = if a == 0 { 0 } else { row[a - 1] as usize };
                row[a] = ((prev + rng.gen_range(0..2usize)) % c) as u32;
            }
            ds.push_row(&row).unwrap();
        }
        ds
    }

    #[test]
    fn cached_trainer_matches_naive_oracle() {
        let data = mixed(900);
        let privacy = Privacy::zcdp(1.0).unwrap();
        let cases = [
            ("1-way only", 6usize, 0usize),
            ("adaptive rounds", 8, 4),
            ("single component", 1, 3),
            ("fewer components than threads", 3, 3),
        ];
        for (label, mixture, rounds) in cases {
            let opts = GemOptions {
                mixture,
                rounds,
                grad_steps: 15,
                learning_rate: 0.1,
            };
            for threads in [1usize, 2, 3, 7] {
                let ctx = FitContext::with_threads(threads);
                let mut cached = Gem::with_options(opts);
                cached.fit_with(&data, privacy, 21, ctx).unwrap();
                let mut naive = Gem::with_options(opts);
                naive.fit_naive(&data, privacy, 21, ctx).unwrap();
                assert_eq!(
                    gem_state(&cached),
                    gem_state(&naive),
                    "{label}, threads = {threads}"
                );
                assert_eq!(
                    cached.sample(500, 2).unwrap(),
                    naive.sample(500, 2).unwrap(),
                    "{label}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn runs_on_single_pair_workload() {
        // Smallest possible multi-attribute domain.
        let data = correlated(800);
        let mut synth = Gem::with_options(GemOptions {
            mixture: 8,
            rounds: 2,
            grad_steps: 40,
            learning_rate: 0.1,
        });
        synth.fit(&data, Privacy::zcdp(0.5).unwrap(), 1).unwrap();
        assert_eq!(synth.sample(100, 1).unwrap().n_rows(), 100);
    }
}
