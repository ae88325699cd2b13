//! The count-vector Ehrenfest process (Definition 2.3).

use crate::error::EhrenfestError;
use popgame_population::protocol::{EnumerableProtocol, Protocol};
use popgame_util::sampler::sample_weighted_index;
use rand::Rng;

/// Parameters of a `(k, a, b, m)`-Ehrenfest process: `k ≥ 2` urns, up/down
/// probabilities `a, b > 0` with `a + b ≤ 1`, and `m ≥ 1` balls.
///
/// # Example
///
/// ```
/// use popgame_ehrenfest::process::EhrenfestParams;
///
/// let p = EhrenfestParams::new(4, 0.3, 0.15, 50)?;
/// assert_eq!(p.lambda(), 2.0);
/// # Ok::<(), popgame_ehrenfest::EhrenfestError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EhrenfestParams {
    k: usize,
    a: f64,
    b: f64,
    m: u64,
}

impl EhrenfestParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`EhrenfestError::InvalidParameters`] unless `k ≥ 2`,
    /// `a, b > 0`, `a + b ≤ 1`, and `m ≥ 1`.
    pub fn new(k: usize, a: f64, b: f64, m: u64) -> Result<Self, EhrenfestError> {
        if k < 2 {
            return Err(EhrenfestError::InvalidParameters {
                reason: format!("k = {k}, need k >= 2"),
            });
        }
        if !(a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0 && a + b <= 1.0 + 1e-12) {
            return Err(EhrenfestError::InvalidParameters {
                reason: format!("need a, b > 0 with a + b <= 1; got a = {a}, b = {b}"),
            });
        }
        if m == 0 {
            return Err(EhrenfestError::InvalidParameters {
                reason: "m = 0, need at least one ball".into(),
            });
        }
        Ok(Self { k, a, b, m })
    }

    /// Number of urns `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Up-move probability `a`.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Down-move probability `b`.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Number of balls `m`.
    pub fn m(&self) -> u64 {
        self.m
    }

    /// The bias ratio `λ = a/b` governing the stationary law (Theorem 2.4).
    pub fn lambda(&self) -> f64 {
        self.a / self.b
    }

    /// Whether the process is unbiased (`a = b`), the slow-mixing case of
    /// Theorem 2.5.
    pub fn is_unbiased(&self) -> bool {
        (self.a - self.b).abs() < 1e-12
    }
}

/// A running count-vector Ehrenfest process, stepped exactly by
/// Definition 2.3 — the reference for [`EhrenfestProtocol`] on the
/// batched engine, and the only simulator for `m = 1`.
///
/// # Example
///
/// ```
/// use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProcess};
/// use popgame_util::rng::rng_from_seed;
///
/// let params = EhrenfestParams::new(3, 0.2, 0.2, 9)?;
/// let mut p = EhrenfestProcess::all_in_last_urn(params);
/// assert_eq!(p.counts(), &[0, 0, 9]);
/// let mut rng = rng_from_seed(1);
/// p.step(&mut rng);
/// assert_eq!(p.counts().iter().sum::<u64>(), 9); // balls conserved
/// # Ok::<(), popgame_ehrenfest::EhrenfestError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EhrenfestProcess {
    params: EhrenfestParams,
    counts: Vec<u64>,
    steps: u64,
}

impl EhrenfestProcess {
    /// Starts from an explicit count vector.
    ///
    /// # Errors
    ///
    /// Returns [`EhrenfestError::InvalidState`] when the counts have the
    /// wrong length or total.
    pub fn from_counts(params: EhrenfestParams, counts: Vec<u64>) -> Result<Self, EhrenfestError> {
        if counts.len() != params.k() || counts.iter().sum::<u64>() != params.m() {
            return Err(EhrenfestError::InvalidState {
                expected: format!("{} urns summing to {}", params.k(), params.m()),
                got: format!("{} urns summing to {}", counts.len(), counts.iter().sum::<u64>()),
            });
        }
        Ok(Self {
            params,
            counts,
            steps: 0,
        })
    }

    /// Starts with every ball in urn 1 — one of the two extreme corners of
    /// the simplex (the diameter endpoints of Proposition A.9).
    pub fn all_in_first_urn(params: EhrenfestParams) -> Self {
        let mut counts = vec![0u64; params.k()];
        counts[0] = params.m();
        Self {
            params,
            counts,
            steps: 0,
        }
    }

    /// Starts with every ball in urn `k` — the opposite extreme corner.
    pub fn all_in_last_urn(params: EhrenfestParams) -> Self {
        let mut counts = vec![0u64; params.k()];
        counts[params.k() - 1] = params.m();
        Self {
            params,
            counts,
            steps: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> EhrenfestParams {
        self.params
    }

    /// Current count vector.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The weighted-position statistic `Σ_j (j−1)·x_j` (0-indexed urns),
    /// a scalar summary used by trajectory plots.
    pub fn weight(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(j, &x)| j as u64 * x)
            .sum()
    }

    /// One step of Definition 2.3: pick a ball uniformly (an urn `j` with
    /// probability `x_j/m`), then move it up with probability `a` (held at
    /// the top urn), down with probability `b` (held at the bottom), and
    /// hold otherwise.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        let j = sample_weighted_index(&weights, rng).expect("m >= 1 ball always present");
        let u: f64 = rng.gen();
        if u < self.params.a {
            if j + 1 < self.params.k {
                self.counts[j] -= 1;
                self.counts[j + 1] += 1;
            }
        } else if u < self.params.a + self.params.b && j > 0 {
            self.counts[j] -= 1;
            self.counts[j - 1] += 1;
        }
        self.steps += 1;
    }

    /// Runs `steps` steps.
    pub fn run<R: Rng + ?Sized>(&mut self, steps: u64, rng: &mut R) {
        for _ in 0..steps {
            self.step(rng);
        }
    }
}

/// Definition 2.3 as a one-way population protocol over the `k` urns, so
/// the process τ-leaps on
/// [`BatchedEngine`](popgame_population::batch::BatchedEngine).
///
/// An agent is a ball and its state is its urn. The initiator moves up
/// one urn with probability `a` (held at the top urn) and down one urn
/// with probability `b` (held at the bottom urn); the responder never
/// changes. Under the engine's pair law `x_i (x_j − δ_ij)`, the initiator
/// sits in urn `i` with probability `x_i/m`, so one engine interaction is
/// one step of [`EhrenfestProcess::step`], and a leap draws each move
/// `i → i±1` as one count flow. The engine needs `m ≥ 2` balls; `m = 1`
/// runs only on [`EhrenfestProcess`].
///
/// # Example
///
/// ```
/// use popgame_ehrenfest::process::{EhrenfestParams, EhrenfestProtocol};
/// use popgame_population::batch::BatchedEngine;
/// use popgame_util::rng::rng_from_seed;
///
/// let params = EhrenfestParams::new(3, 0.2, 0.2, 100)?;
/// let mut engine = BatchedEngine::from_counts(EhrenfestProtocol::new(params), vec![100, 0, 0])?;
/// engine.run_batched(5_000, 10, &mut rng_from_seed(1))?;
/// assert_eq!(engine.counts().iter().sum::<u64>(), 100); // balls conserved
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EhrenfestProtocol {
    params: EhrenfestParams,
}

impl EhrenfestProtocol {
    /// The protocol of a `(k, a, b, m)`-Ehrenfest process.
    pub fn new(params: EhrenfestParams) -> Self {
        Self { params }
    }
}

impl Protocol for EhrenfestProtocol {
    type State = usize;

    fn interact<R: Rng + ?Sized>(
        &self,
        initiator: usize,
        responder: usize,
        rng: &mut R,
    ) -> (usize, usize) {
        let u: f64 = rng.gen();
        let urn = if u < self.params.a {
            (initiator + 1).min(self.params.k - 1)
        } else if u < self.params.a + self.params.b {
            initiator.saturating_sub(1)
        } else {
            initiator
        };
        (urn, responder)
    }

    fn is_one_way(&self) -> bool {
        true
    }

    fn has_random_transitions(&self) -> bool {
        true
    }
}

impl EnumerableProtocol for EhrenfestProtocol {
    fn num_states(&self) -> usize {
        self.params.k
    }

    fn state_index(&self, state: usize) -> usize {
        state
    }

    fn state_at(&self, index: usize) -> usize {
        index
    }

    fn pair_kernel(&self, i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
        let mut law = Vec::with_capacity(3);
        let mut stay = 1.0;
        if i + 1 < self.params.k {
            law.push(((i + 1, j), self.params.a));
            stay -= self.params.a;
        }
        if i > 0 {
            law.push(((i - 1, j), self.params.b));
            stay -= self.params.b;
        }
        // `a + b ≤ 1` holds up to 1e-12, so `stay` may dip below zero by
        // rounding.
        law.push(((i, j), f64::max(stay, 0.0)));
        Some(law)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_population::batch::BatchedEngine;
    use popgame_population::error::PopulationError;
    use popgame_util::rng::{rng_from_seed, stream_rng};
    use proptest::prelude::*;

    #[test]
    fn params_validation() {
        assert!(EhrenfestParams::new(1, 0.3, 0.3, 5).is_err());
        assert!(EhrenfestParams::new(2, 0.0, 0.3, 5).is_err());
        assert!(EhrenfestParams::new(2, 0.3, 0.0, 5).is_err());
        assert!(EhrenfestParams::new(2, 0.6, 0.6, 5).is_err());
        assert!(EhrenfestParams::new(2, 0.3, 0.3, 0).is_err());
        assert!(EhrenfestParams::new(2, f64::NAN, 0.3, 5).is_err());
        let p = EhrenfestParams::new(2, 0.5, 0.25, 5).unwrap();
        assert_eq!(p.lambda(), 2.0);
        assert!(!p.is_unbiased());
        assert!(EhrenfestParams::new(2, 0.25, 0.25, 5).unwrap().is_unbiased());
    }

    #[test]
    fn state_validation() {
        let p = EhrenfestParams::new(3, 0.2, 0.2, 4).unwrap();
        assert!(EhrenfestProcess::from_counts(p, vec![2, 2]).is_err()); // wrong k
        assert!(EhrenfestProcess::from_counts(p, vec![2, 2, 2]).is_err()); // wrong m
        assert!(EhrenfestProcess::from_counts(p, vec![1, 2, 1]).is_ok());
    }

    #[test]
    fn corner_constructors() {
        let p = EhrenfestParams::new(4, 0.2, 0.2, 7).unwrap();
        assert_eq!(EhrenfestProcess::all_in_first_urn(p).counts(), &[7, 0, 0, 0]);
        assert_eq!(EhrenfestProcess::all_in_last_urn(p).counts(), &[0, 0, 0, 7]);
    }

    #[test]
    fn weight_statistic() {
        let p = EhrenfestParams::new(3, 0.2, 0.2, 6).unwrap();
        let proc = EhrenfestProcess::from_counts(p, vec![1, 2, 3]).unwrap();
        // 0*1 + 1*2 + 2*3 = 8
        assert_eq!(proc.weight(), 8);
    }

    #[test]
    fn truncation_at_boundaries() {
        // a + b = 1: every step tries to move; from the top corner only
        // down-moves can change anything; from the bottom only up-moves.
        let p = EhrenfestParams::new(2, 0.5, 0.5, 1).unwrap();
        let mut top = EhrenfestProcess::all_in_last_urn(p);
        let mut rng = rng_from_seed(2);
        for _ in 0..100 {
            top.step(&mut rng);
            let total: u64 = top.counts().iter().sum();
            assert_eq!(total, 1);
        }
    }

    #[test]
    fn biased_process_drifts_up() {
        let p = EhrenfestParams::new(5, 0.45, 0.05, 100).unwrap();
        let mut proc = EhrenfestProcess::all_in_first_urn(p);
        let w0 = proc.weight();
        let mut rng = rng_from_seed(3);
        proc.run(20_000, &mut rng);
        assert!(proc.weight() > w0 + 200, "weight failed to drift: {}", proc.weight());
        assert_eq!(proc.steps(), 20_000);
    }

    /// The engine over `params`, every ball in the first urn.
    fn engine_at_first_urn(params: EhrenfestParams) -> BatchedEngine<EhrenfestProtocol> {
        let counts = EhrenfestProcess::all_in_first_urn(params).counts().to_vec();
        BatchedEngine::from_counts(EhrenfestProtocol::new(params), counts).unwrap()
    }

    /// The weighted-position statistic of [`EhrenfestProcess::weight`].
    fn weight(counts: &[u64]) -> u64 {
        counts.iter().enumerate().map(|(j, &x)| j as u64 * x).sum()
    }

    #[test]
    fn batched_run_conserves_and_counts_steps() {
        let p = EhrenfestParams::new(4, 0.3, 0.2, 100).unwrap();
        let mut engine = engine_at_first_urn(p);
        let mut rng = rng_from_seed(9);
        // A batch of √m.
        engine.run_batched(10_000, 10, &mut rng).unwrap();
        assert_eq!(engine.interactions(), 10_000);
        assert_eq!(engine.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn batched_run_matches_exact_mean_weight() {
        // Ergodic mean of the weight statistic under exact stepping vs
        // τ-leaps on the engine must agree within Monte-Carlo error.
        let p = EhrenfestParams::new(3, 0.3, 0.15, 60).unwrap();
        let horizon = 20_000u64;
        let reps = 40u64;
        let mean = |batched: bool, base: u64| -> f64 {
            let mut acc = 0.0;
            for rep in 0..reps {
                let mut rng = stream_rng(base, rep);
                acc += if batched {
                    let mut engine = engine_at_first_urn(p);
                    // A batch of ⌊√m⌋.
                    engine.run_batched(horizon, 7, &mut rng).unwrap();
                    weight(engine.counts())
                } else {
                    let mut proc = EhrenfestProcess::all_in_first_urn(p);
                    proc.run(horizon, &mut rng);
                    proc.weight()
                } as f64;
            }
            acc / reps as f64
        };
        let exact = mean(false, 100);
        let batched = mean(true, 200);
        // Stationary mean weight ~ 75 here; allow generous MC slack.
        assert!(
            (exact - batched).abs() < 0.08 * exact.max(1.0),
            "exact {exact} vs batched {batched}"
        );
    }

    #[test]
    fn batch_one_is_reasonable_at_corners() {
        // A single ball at the top corner: only down-moves can fire, and
        // the exact step conserves it every step.
        let p = EhrenfestParams::new(2, 0.5, 0.5, 1).unwrap();
        let mut proc = EhrenfestProcess::all_in_last_urn(p);
        let mut rng = rng_from_seed(10);
        for _ in 0..200 {
            proc.step(&mut rng);
            assert_eq!(proc.counts().iter().sum::<u64>(), 1);
        }
        assert_eq!(proc.steps(), 200);
    }

    #[test]
    fn declared_kernel_is_the_law_of_interact() {
        // Every pair's declared pmf against 20,000 draws of `interact`,
        // with the boundary urns and a + b = 1 included.
        let draws = 20_000u32;
        for (k, a, b) in [(4, 0.3, 0.15), (3, 0.5, 0.5), (2, 0.1, 0.6)] {
            let protocol = EhrenfestProtocol::new(EhrenfestParams::new(k, a, b, 10).unwrap());
            let mut rng = rng_from_seed(11);
            for i in 0..k {
                for j in 0..k {
                    let law = protocol.pair_kernel(i, j).unwrap();
                    let total: f64 = law.iter().map(|&(_, p)| p).sum();
                    assert!((total - 1.0).abs() < 1e-12, "({i}, {j}) sums to {total}");
                    let mut hits = vec![0u32; law.len()];
                    for _ in 0..draws {
                        let outcome = protocol.interact(i, j, &mut rng);
                        let slot = law
                            .iter()
                            .position(|&(o, _)| o == outcome)
                            .unwrap_or_else(|| panic!("({i}, {j}) → {outcome:?} undeclared"));
                        hits[slot] += 1;
                    }
                    for (&(outcome, p), &hit) in law.iter().zip(&hits) {
                        let freq = f64::from(hit) / f64::from(draws);
                        let sd = (p * (1.0 - p) / f64::from(draws)).sqrt();
                        assert!(
                            (freq - p).abs() <= 5.0 * sd + 1e-12,
                            "k = {k}: ({i}, {j}) → {outcome:?} drawn {freq}, declared {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_batch_one_matches_exact_process_chi_square() {
        // Batch-1 leaps on the engine against Definition 2.3's exact step:
        // the end-state weight histogram after a fixed horizon must follow
        // the same law across a seed family (two-sample chi-square).
        let p = EhrenfestParams::new(3, 0.3, 0.15, 6).unwrap();
        let horizon = 40u64;
        let reps = 4_000u64;
        let bins = 13usize; // weight in 0..=12
        let mut hist_exact = vec![0u64; bins];
        let mut hist_engine = vec![0u64; bins];
        for rep in 0..reps {
            let mut proc = EhrenfestProcess::all_in_first_urn(p);
            proc.run(horizon, &mut stream_rng(7, rep));
            hist_exact[proc.weight() as usize] += 1;

            let mut engine = engine_at_first_urn(p);
            let mut rng = stream_rng(0x5eed ^ rep.wrapping_mul(0x9E37_79B9), rep);
            for _ in 0..horizon {
                engine.step_batch(1, &mut rng).unwrap();
            }
            hist_engine[weight(engine.counts()) as usize] += 1;
        }
        // With equal sample sizes the two-sample statistic is
        // Σ (a − b)² / (a + b) over the non-empty bins.
        let chi2: f64 = hist_exact
            .iter()
            .zip(&hist_engine)
            .filter(|&(&a, &b)| a + b > 0)
            .map(|(&a, &b)| (a as f64 - b as f64).powi(2) / (a + b) as f64)
            .sum();
        // dof <= 12; 99.9% quantile of chi2(12) ~ 32.9.
        assert!(chi2 < 32.9, "chi-square {chi2}: {hist_exact:?} vs {hist_engine:?}");
    }

    #[test]
    fn engine_rejects_a_single_ball() {
        // The engine's pair law needs two agents; m = 1 runs only on the
        // exact process.
        let p = EhrenfestParams::new(2, 0.5, 0.5, 1).unwrap();
        let engine = BatchedEngine::from_counts(EhrenfestProtocol::new(p), vec![0, 1]);
        assert!(matches!(engine, Err(PopulationError::TooFewAgents { n: 1 })));
    }

    proptest! {
        #[test]
        fn prop_balls_conserved(
            k in 2usize..6,
            m in 1u64..40,
            a in 0.05..0.45f64,
            b in 0.05..0.45f64,
            seed in 0u64..30,
        ) {
            let p = EhrenfestParams::new(k, a, b, m).unwrap();
            let mut proc = EhrenfestProcess::all_in_first_urn(p);
            let mut rng = rng_from_seed(seed);
            proc.run(200, &mut rng);
            prop_assert_eq!(proc.counts().iter().sum::<u64>(), m);
            prop_assert_eq!(proc.counts().len(), k);
        }

        #[test]
        fn prop_weight_bounded(
            k in 2usize..5,
            m in 1u64..30,
            seed in 0u64..20,
        ) {
            let p = EhrenfestParams::new(k, 0.3, 0.3, m).unwrap();
            let mut proc = EhrenfestProcess::all_in_last_urn(p);
            let mut rng = rng_from_seed(seed);
            proc.run(300, &mut rng);
            prop_assert!(proc.weight() <= (k as u64 - 1) * m);
        }
    }
}
