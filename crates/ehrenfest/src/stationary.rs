//! The multinomial stationary law (Theorem 2.4).
//!
//! For the `(k, a, b, m)`-Ehrenfest process with `λ = a/b`, the stationary
//! distribution is multinomial with parameters `m` and
//! `p_j = λ^{j−1} / Σ_{i=1}^{k} λ^{i−1}`. The weights are computed in a
//! normalized form that is stable for large `k` and extreme `λ`.

use crate::process::EhrenfestParams;
use popgame_dist::multinomial::Multinomial;

/// The stationary urn-probabilities `(p_1, …, p_k)` of Theorem 2.4:
/// `p_j ∝ λ^{j−1}` over `k` urns. The same geometric law is the k-IGT
/// level law of Theorem 2.7, so `popgame-igt` calls this with its own
/// `λ = (1−β)/β`.
///
/// # Example
///
/// ```
/// use popgame_ehrenfest::stationary::stationary_probs;
///
/// // λ = 2, k = 3: weights 1, 2, 4 → probabilities 1/7, 2/7, 4/7.
/// let probs = stationary_probs(3, 2.0);
/// assert!((probs[2] - 4.0 / 7.0).abs() < 1e-12);
/// ```
pub fn stationary_probs(k: usize, lambda: f64) -> Vec<f64> {
    // Normalize by the dominant weight so nothing overflows even for huge
    // λ^{k-1}: weight_j = λ^{j-1} / λ^{j*-1} where j* is the dominant index.
    let log_lambda = lambda.ln();
    let logs: Vec<f64> = (0..k).map(|j| j as f64 * log_lambda).collect();
    let hi = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = logs.iter().map(|&l| (l - hi).exp()).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// The full stationary distribution: `Multinomial(m, stationary_probs)`.
pub fn stationary_distribution(params: &EhrenfestParams) -> Multinomial {
    Multinomial::new(params.m(), stationary_probs(params.k(), params.lambda()))
        .expect("stationary probabilities are a valid pmf by construction")
}

/// The stationary mean count vector `E[π] = (m p_1, …, m p_k)`.
pub fn stationary_mean(params: &EhrenfestParams) -> Vec<f64> {
    stationary_distribution(params).mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_dist::simplex::SimplexSpace;
    use proptest::prelude::*;

    #[test]
    fn unbiased_process_has_uniform_urn_probs() {
        let p = EhrenfestParams::new(4, 0.25, 0.25, 8).unwrap();
        for prob in stationary_probs(p.k(), p.lambda()) {
            assert!((prob - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn k2_reduces_to_binomial_of_remark_a2() {
        // Remark A.2: for k = 2 the stationary law is Binomial(m, 1/(1+λ))
        // in the *first* coordinate... the paper's π(x) = λ^{x2} C(m,x1)/(1+λ)^m,
        // i.e. p1 = 1/(1+λ) after normalizing — here p_j ∝ λ^{j-1} gives
        // p1 = 1/(1+λ), p2 = λ/(1+λ). Consistent.
        let p = EhrenfestParams::new(2, 0.4, 0.2, 12).unwrap();
        let probs = stationary_probs(p.k(), p.lambda());
        let lambda = 2.0;
        assert!((probs[0] - 1.0 / (1.0 + lambda)).abs() < 1e-12);
        assert!((probs[1] - lambda / (1.0 + lambda)).abs() < 1e-12);
    }

    #[test]
    fn extreme_lambda_is_stable() {
        // λ = 9, k = 64: λ^63 overflows naive arithmetic but not this path.
        let p = EhrenfestParams::new(64, 0.9, 0.1, 10).unwrap();
        let probs = stationary_probs(p.k(), p.lambda());
        assert!(probs.iter().all(|x| x.is_finite()));
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Mass concentrates at the top urn.
        assert!(probs[63] > 0.88);
    }

    #[test]
    fn tiny_lambda_concentrates_at_bottom() {
        let p = EhrenfestParams::new(16, 0.05, 0.45, 10).unwrap();
        let probs = stationary_probs(p.k(), p.lambda());
        assert!(probs[0] > 0.85);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_pmf_sums_to_one_over_simplex() {
        let p = EhrenfestParams::new(3, 0.3, 0.15, 6).unwrap();
        let dist = stationary_distribution(&p);
        let space = SimplexSpace::new(3, 6).unwrap();
        let total: f64 = space.iter().map(|x| dist.pmf(&x)).sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mean_scales_with_m() {
        let p1 = EhrenfestParams::new(3, 0.4, 0.2, 10).unwrap();
        let p2 = EhrenfestParams::new(3, 0.4, 0.2, 100).unwrap();
        let m1 = stationary_mean(&p1);
        let m2 = stationary_mean(&p2);
        for j in 0..3 {
            assert!((m2[j] - 10.0 * m1[j]).abs() < 1e-9);
        }
    }

    proptest! {
        #[test]
        fn prop_probs_geometric_progression(
            k in 2usize..10,
            a in 0.05..0.45f64,
            b in 0.05..0.45f64,
        ) {
            let p = EhrenfestParams::new(k, a, b, 5).unwrap();
            let probs = stationary_probs(p.k(), p.lambda());
            let lambda = a / b;
            for j in 0..k - 1 {
                // p_{j+1}/p_j = λ
                prop_assert!((probs[j + 1] / probs[j] - lambda).abs() < 1e-6 * lambda);
            }
        }
    }
}
