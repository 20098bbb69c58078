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

    /// Per-component softmax probabilities for one attribute.
    fn probs(&self, k: usize, attr: usize) -> Vec<f64> {
        softmax(&self.logits[k][attr])
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

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / total).collect()
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
        train(
            &mut model,
            &measured,
            n,
            self.options.grad_steps,
            self.options.learning_rate,
            ctx.threads,
        );

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
            let mut cands: Vec<&Vec<usize>> = Vec::new();
            let mut scores: Vec<f64> = Vec::new();
            for q in &workload {
                if chosen.contains(&q.attrs) {
                    continue;
                }
                let true_counts = engine.count(&q.attrs)?;
                let model_probs = model.marginal(&q.attrs);
                let l1: f64 = true_counts
                    .counts()
                    .iter()
                    .zip(&model_probs)
                    .map(|(&c, &p)| (c - n * p).abs())
                    .sum();
                cands.push(&q.attrs);
                scores.push(l1);
            }
            if cands.is_empty() {
                break;
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
            train(
                &mut model,
                &measured,
                n,
                self.options.grad_steps,
                self.options.learning_rate,
                ctx.threads,
            );
        }

        self.fitted = Some((data.domain().clone(), model));
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Dataset> {
        let (domain, model) = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "gem-sample"));
        let d = domain.len();
        let kk = model.logits.len();
        let cums = cumulative_tables(model, d);
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
fn cumulative_tables(model: &GemModel, d: usize) -> Vec<Vec<Vec<f64>>> {
    let kk = model.logits.len();
    let mut cums: Vec<Vec<Vec<f64>>> = Vec::with_capacity(kk);
    for k in 0..kk {
        let mut per_attr = Vec::with_capacity(d);
        for a in 0..d {
            let mut c = model.probs(k, a);
            let mut acc = 0.0;
            for v in c.iter_mut() {
                acc += *v;
                *v = acc;
            }
            per_attr.push(c);
        }
        cums.push(per_attr);
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
        let cums = cumulative_tables(model, d);
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

/// Adam on the mixture logits against all measurements so far.
///
/// The trainer is analytic (no GEMM): each step accumulates per-component
/// probability-space gradients, chains them through the softmax and takes
/// one Adam step. Both phases decompose over mixture components — every
/// component owns disjoint `grad_p[k]` / `logits[k]` / moment slices, and
/// each cell's accumulation stays in ascending measurement order — so the
/// fan-out over components is **bit-identical at any thread count**.
fn train(
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
        let gem_state = |synth: &Gem| match synth.fitted_state() {
            Some(FittedState::Gem { model, .. }) => model,
            other => panic!("expected gem state, got {other:?}"),
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
