//! Exact discrete samplers built from scratch.
//!
//! The simulation layers need four primitives: Bernoulli draws, binomial
//! counts (for sampling multinomial stationary laws), geometric waiting
//! times (repeated-game lengths), and O(1) weighted index sampling (picking
//! an urn proportionally to its load). All are implemented here against the
//! [`rand::Rng`] trait with no further dependencies.

use crate::error::UtilError;
use crate::numeric::{ln_factorial, KahanSum};
use rand::Rng;
use std::sync::OnceLock;

/// Validates that `p` is a probability in `[0, 1]`, returning it unchanged.
///
/// # Errors
///
/// Returns [`UtilError::InvalidProbability`] when `p` is outside `[0, 1]` or
/// not finite.
///
/// # Example
///
/// ```
/// use popgame_util::sampler::checked_probability;
/// assert_eq!(checked_probability(0.25).unwrap(), 0.25);
/// assert!(checked_probability(-0.1).is_err());
/// assert!(checked_probability(f64::NAN).is_err());
/// ```
pub fn checked_probability(p: f64) -> Result<f64, UtilError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(UtilError::InvalidProbability { value: p })
    }
}

/// Draws `true` with probability `p`.
///
/// # Example
///
/// ```
/// use popgame_util::{rng::rng_from_seed, sampler::sample_bernoulli};
///
/// let mut rng = rng_from_seed(1);
/// let hits = (0..10_000).filter(|_| sample_bernoulli(0.3, &mut rng)).count();
/// assert!((hits as f64 / 10_000.0 - 0.3).abs() < 0.02);
/// ```
#[inline]
pub fn sample_bernoulli<R: Rng + ?Sized>(p: f64, rng: &mut R) -> bool {
    debug_assert!((0.0..=1.0).contains(&p), "bernoulli p out of range: {p}");
    rng.gen::<f64>() < p
}

/// Samples a geometric waiting time: the number of failures before the first
/// success in independent Bernoulli(`p`) trials (support `{0, 1, 2, …}`).
///
/// Uses the inversion formula `⌊ln U / ln(1 − p)⌋`, exact up to `f64`
/// rounding.
///
/// # Panics
///
/// Panics (debug assertion) when `p ∉ (0, 1]`. `p = 1` always returns 0.
///
/// # Example
///
/// ```
/// use popgame_util::{rng::rng_from_seed, sampler::sample_geometric};
///
/// let mut rng = rng_from_seed(2);
/// let mean: f64 = (0..20_000).map(|_| sample_geometric(0.5, &mut rng) as f64).sum::<f64>() / 20_000.0;
/// assert!((mean - 1.0).abs() < 0.05); // E = (1-p)/p = 1
/// ```
#[inline]
pub fn sample_geometric<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0, "geometric p out of range: {p}");
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()) as u64
}

/// Samples a Binomial(`n`, `p`) count exactly.
///
/// Strategy: mirror to `q = min(p, 1−p)`, then pick one of two exact
/// samplers by `n·q`, the mean of the mirrored draw.
///
/// - `n ≤ 64` or `n·q ≤ 10`: bottom-up inversion. It walks the pmf up from
///   zero with the ratio recurrence, `O(n q)` multiplications and no
///   log-space set-up.
/// - Otherwise: Hörmann's BTRS, transformed rejection with squeeze
///   (W. Hörmann, "The generation of binomial random variates", *J. Stat.
///   Comput. Simul.* 46, 1993). It takes 1.13–1.32 expected rounds of two
///   uniforms whatever `n`. The squeeze accepts about 85% of draws at
///   τ-leap sizes (`n·q` in the hundreds) and about half at the `n·q ≈ 10`
///   boundary, for a division and a few multiplications; the rest evaluate
///   the pmf ratio exactly, from a table of `ln k!` for `n < 4096` and in
///   Hörmann's Stirling form above.
///
/// The τ-leap chains at large populations draw mostly in the second regime
/// (a leap of `√n` interactions splits over a few flows), small ones mostly
/// in the first. Both are exact — rejection sampling does not approximate —
/// so distributional tests can use tight tolerances.
///
/// # Example
///
/// ```
/// use popgame_util::{rng::rng_from_seed, sampler::sample_binomial};
///
/// let mut rng = rng_from_seed(3);
/// let x = sample_binomial(1000, 0.25, &mut rng);
/// assert!(x <= 1000);
/// ```
///
/// # Panics
///
/// Panics when `p` is NaN; `p` outside `[0, 1]` is a debug assertion.
pub fn sample_binomial<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    // A NaN fails every comparison below, so it would reach the samplers
    // as q = NaN, where the bottom-up walk returns a wrong count and BTRS
    // never accepts.
    assert!(!p.is_nan(), "binomial p is NaN (n = {n})");
    debug_assert!((0.0..=1.0).contains(&p), "binomial p out of range: {p}");
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Work with q = min(p, 1-p) and mirror at the end.
    let (q, mirrored) = if p <= 0.5 { (p, false) } else { (1.0 - p, true) };
    let x = if n <= 64 || n as f64 * q <= 10.0 {
        binomial_inversion_from_zero(n, q, rng)
    } else {
        binomial_btrs(n, q, rng)
    };
    if mirrored {
        n - x
    } else {
        x
    }
}

/// Exact bottom-up inversion: start at `pmf(0) = (1−p)^n` and walk up with
/// the ratio recurrence until the uniform variate is covered. Expected
/// `O(n p)` steps of a few multiplications each, with no logarithms or
/// exponentials in the common case — cheaper than BTRS when `n p` is small.
///
/// The walk keeps its step as an `f64` too, so no step converts `u64 → f64`
/// (a multi-instruction sequence on baseline x86-64). The ratios are the
/// ones the integer casts would give whenever `n < 2⁵³`.
fn binomial_inversion_from_zero<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    // (1−p)^n: repeated squaring for small n (a handful of multiplies),
    // log-space otherwise (only reachable when p is tiny, so `ln_1p`
    // keeps full precision).
    let pmf0 = if n <= 64 {
        (1.0 - p).powi(n as i32)
    } else {
        (n as f64 * (-p).ln_1p()).exp()
    };
    let u: f64 = rng.gen();
    let ratio = p / (1.0 - p);
    let mut pmf = pmf0;
    let mut cumulative = pmf0;
    let nf = n as f64;
    let (mut k, mut kf) = (0u64, 0.0f64);
    while u >= cumulative && k < n {
        pmf *= (nf - kf) / (kf + 1.0) * ratio;
        k += 1;
        kf += 1.0;
        cumulative += pmf;
    }
    // `u` can exceed the accumulated total only through floating-point
    // rounding at the far tail; `k` has then already saturated at `n`.
    k
}

/// Hörmann's BTRS for `p ≤ 0.5`, `n > 64` and `n·p > 10`. Each round draws
/// `(u, v)` uniform and maps `u` through the transformed-rejection hat to
/// the candidate `k = ⌊(2a/u_s + b)·u + c⌋`. The squeeze `u_s ≥ 0.07,
/// v ≤ v_r` accepts most candidates outright; the rest scale `v` under the
/// hat and accept when `ln v ≤ ln(f(k)/f(m))`, the exact log pmf ratio to
/// the mode `m`: four reads of the `ln k!` table and one `ln` when `n` is
/// below [`BTRS_TABLE_LEN`], [`ln_pmf_ratio`] above.
fn binomial_btrs<R: Rng + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    let spq = (n as f64 * p * (1.0 - p)).sqrt();
    let b = 1.15 + 2.53 * spq;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = n as f64 * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        // `us = 0` only at `u = −½`, where `x = −∞`: never NaN.
        let x = (2.0 * a / us + b) * u + c;
        if x < 0.0 {
            continue;
        }
        // ⌊x⌋ for x ≥ 0 without a libm `floor` call, through `i64`: one
        // `cvttsd2si` on baseline x86-64, where `f64 → u64` takes a
        // multi-instruction sequence. Equal to `x as u64` below 2⁶³.
        let k = x as i64 as u64;
        if us >= 0.07 && v <= v_r {
            return k;
        }
        if k > n {
            continue;
        }
        let alpha = (2.83 + 5.1 / b) * spq;
        let v = v * alpha / (a / (us * us) + b);
        let mode = ((n + 1) as f64 * p) as u64;
        let ratio = if n < BTRS_TABLE_LEN as u64 {
            table_ln_pmf_ratio(n, p, k, mode)
        } else {
            ln_pmf_ratio(n, p, k, mode)
        };
        if v.ln() <= ratio {
            return k;
        }
    }
}

/// Length of the `ln k!` table of the BTRS rejection test: it covers every
/// `n` up to 4095, which includes each binomial a τ-leap draws at batch
/// sizes up to `√(10⁷) ≈ 3162`.
const BTRS_TABLE_LEN: usize = 4096;

/// `ln k!` for `k < BTRS_TABLE_LEN`, each entry the compensated sum of
/// `ln 2 + … + ln k`, so correct to within an ulp or two.
fn btrs_ln_factorials() -> &'static [f64; BTRS_TABLE_LEN] {
    static TABLE: OnceLock<[f64; BTRS_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0; BTRS_TABLE_LEN];
        let mut sum = KahanSum::new();
        for (k, entry) in table.iter_mut().enumerate().skip(2) {
            sum.add((k as f64).ln());
            *entry = sum.value();
        }
        table
    })
}

/// `ln(f(k) / f(m))` for the Binomial(`n`, `p`) pmf `f` with
/// `n < BTRS_TABLE_LEN`, straight from the `ln k!` table:
/// `ln m! − ln k! + ln(n − m)! − ln(n − k)! + (k − m)·ln(p / (1 − p))`.
/// Each entry is at most ~3·10⁴, so the sum is good to ~10⁻¹¹ absolute.
fn table_ln_pmf_ratio(n: u64, p: f64, k: u64, m: u64) -> f64 {
    let table = btrs_ln_factorials();
    let (n, k, m) = (n as usize, k as usize, m as usize);
    let d = k as f64 - m as f64;
    (table[m] - table[k]) + (table[n - m] - table[n - k]) + d * (p / (1.0 - p)).ln()
}

/// `ln(f(k) / f(m))` for the Binomial(`n`, `p`) pmf `f`, in Hörmann's
/// well-conditioned form. Each `ln j!` is written as Stirling's
/// `(j + ½)·ln(j + 1) − (j + 1) + ½·ln 2π` plus [`stirling_tail`]`(j)`; the
/// linear terms cancel and the rest regroup into logarithms of ratios, so
/// the result keeps full precision at `n = 10¹²`, where `ln n!` itself has
/// only ~3 correct decimals.
#[cold]
fn ln_pmf_ratio(n: u64, p: f64, k: u64, m: u64) -> f64 {
    let (nf, kf, mf) = (n as f64, k as f64, m as f64);
    let d = kf - mf;
    (mf + 0.5) * (-d / (kf + 1.0)).ln_1p()
        + (nf - mf + 0.5) * (d / (nf - kf + 1.0)).ln_1p()
        + d * ((nf - kf + 1.0) / (kf + 1.0)).ln()
        + d * (p / (1.0 - p)).ln()
        + stirling_tail(m)
        + stirling_tail(n - m)
        - stirling_tail(k)
        - stirling_tail(n - k)
}

/// `ln k! − ((k + ½)·ln(k + 1) − (k + 1) + ½·ln 2π)`, the remainder of
/// Stirling's formula. Exact from the `ln k!` table below 16; above, the
/// series `1/12x − 1/360x³ + 1/1260x⁵` with `x = k + 1`, whose truncation
/// error is below `2e-12` there.
fn stirling_tail(k: u64) -> f64 {
    let x = (k + 1) as f64;
    if k < 16 {
        ln_factorial(k) - ((x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln())
    } else {
        let x2 = x * x;
        (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x
    }
}

/// Samples an index `i` with probability `weights[i] / Σ weights` by linear
/// scan. `O(len)` per draw — use [`AliasTable`] when drawing many times from
/// the same weights.
///
/// # Errors
///
/// Returns [`UtilError::InvalidWeights`] when the slice is empty, contains a
/// negative or non-finite weight, or sums to zero.
///
/// # Example
///
/// ```
/// use popgame_util::{rng::rng_from_seed, sampler::sample_weighted_index};
///
/// let mut rng = rng_from_seed(4);
/// let i = sample_weighted_index(&[0.0, 2.0, 0.0], &mut rng).unwrap();
/// assert_eq!(i, 1);
/// ```
pub fn sample_weighted_index<R: Rng + ?Sized>(
    weights: &[f64],
    rng: &mut R,
) -> Result<usize, UtilError> {
    validate_weights(weights)?;
    let total: f64 = weights.iter().sum();
    let mut target = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return Ok(i);
        }
        target -= w;
    }
    // Floating-point rounding can exhaust the scan; return the last index
    // with positive weight.
    Ok(weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("validated weights contain a positive entry"))
}

fn validate_weights(weights: &[f64]) -> Result<(), UtilError> {
    if weights.is_empty() {
        return Err(UtilError::InvalidWeights {
            reason: "empty weight vector".into(),
        });
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(UtilError::InvalidWeights {
            reason: "weights must be finite and non-negative".into(),
        });
    }
    if weights.iter().sum::<f64>() <= 0.0 {
        return Err(UtilError::InvalidWeights {
            reason: "weights sum to zero".into(),
        });
    }
    Ok(())
}

/// Walker's alias table: `O(len)` construction, `O(1)` weighted index draws.
///
/// This is the hot-path sampler for picking an interaction partner's state
/// proportionally to population counts.
///
/// # Example
///
/// ```
/// use popgame_util::{rng::rng_from_seed, sampler::AliasTable};
///
/// let table = AliasTable::new(&[1.0, 3.0]).unwrap();
/// let mut rng = rng_from_seed(5);
/// let ones = (0..40_000).filter(|_| table.sample(&mut rng) == 1).count();
/// assert!((ones as f64 / 40_000.0 - 0.75).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from unnormalized weights.
    ///
    /// # Errors
    ///
    /// Same conditions as [`sample_weighted_index`].
    pub fn new(weights: &[f64]) -> Result<Self, UtilError> {
        validate_weights(weights)?;
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        // Scale weights so the average cell is 1.
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self { prob, alias })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// `true` when the table has zero categories (cannot occur after `new`).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one index in `O(1)`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::ln_binomial;
    use crate::rng::rng_from_seed;
    use crate::stats::RunningStats;
    use proptest::prelude::*;

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(0);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    #[should_panic(expected = "binomial p is NaN")]
    fn binomial_nan_probability_panics() {
        let mut rng = rng_from_seed(0);
        sample_binomial(1000, f64::NAN, &mut rng);
    }

    #[test]
    fn binomial_mean_and_variance_match_theory() {
        let mut rng = rng_from_seed(11);
        let (n, p) = (400u64, 0.3);
        let stats: RunningStats = (0..30_000)
            .map(|_| sample_binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = n as f64 * p;
        let var = n as f64 * p * (1.0 - p);
        assert!((stats.mean() - mean).abs() < 0.3, "mean {}", stats.mean());
        assert!(
            (stats.sample_variance() - var).abs() < var * 0.05,
            "variance {}",
            stats.sample_variance()
        );
    }

    #[test]
    fn binomial_large_p_mirrors_correctly() {
        let mut rng = rng_from_seed(12);
        let stats: RunningStats = (0..20_000)
            .map(|_| sample_binomial(100, 0.9, &mut rng) as f64)
            .collect();
        assert!((stats.mean() - 90.0).abs() < 0.25);
    }

    /// Exact Binomial(`n`, `p`) log pmf, the oracle for the law battery.
    fn ln_pmf(n: u64, p: f64, k: u64) -> f64 {
        ln_binomial(n, k) + k as f64 * p.ln() + (n - k) as f64 * (-p).ln_1p()
    }

    /// Chi-square of observed counts `observed[k − lo]` against the exact
    /// pmf over `lo..=hi`, as a z-score `(χ² − dof)/√(2·dof)`. Cells are
    /// adjacent `k` merged until each expects ≥ `min_expected` draws; counts
    /// outside the range were clamped into the end cells.
    fn chi_square_z(n: u64, p: f64, lo: u64, observed: &[u64], min_expected: f64) -> f64 {
        let draws: u64 = observed.iter().sum();
        let mut cells = vec![(0.0f64, 0u64)];
        for (k, &o) in (lo..).zip(observed) {
            if cells.last().unwrap().0 >= min_expected {
                cells.push((0.0, 0));
            }
            let cell = cells.last_mut().unwrap();
            cell.0 += ln_pmf(n, p, k).exp() * draws as f64;
            cell.1 += o;
        }
        // A short last cell joins its neighbour.
        if cells.len() > 1 && cells.last().unwrap().0 < min_expected {
            let (e, o) = cells.pop().unwrap();
            let cell = cells.last_mut().unwrap();
            cell.0 += e;
            cell.1 += o;
        }
        let chi2: f64 = cells.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        let dof = (cells.len() - 1) as f64;
        (chi2 - dof) / (2.0 * dof).sqrt()
    }

    #[test]
    fn binomial_law_battery_matches_exact_pmf() {
        // Both regimes (n ≤ 64 included), the BTRS boundary at n·q ≈ 10
        // where the squeeze rejects most, the p > ½ mirror, and a
        // τ-leap-sized n = 3162.
        let points = [
            (6u64, 0.35),
            (65, 0.2),
            (100, 0.12),
            (320, 0.3),
            (3162, 0.5),
            (3162, 0.97),
            (50_000, 0.01),
            (10_000_000, 0.3),
        ];
        let draws = 4_000_000u64;
        for (i, &(n, p)) in points.iter().enumerate() {
            // mean ± 12 sd; the excluded tail mass is below 1e-19.
            let (mean, sd) = (n as f64 * p, (n as f64 * p * (1.0 - p)).sqrt());
            let lo = (mean - 12.0 * sd).max(0.0) as u64;
            let hi = ((mean + 12.0 * sd) as u64).min(n);
            let mut observed = vec![0u64; (hi - lo + 1) as usize];
            let mut rng = rng_from_seed(100 + i as u64);
            for _ in 0..draws {
                observed[(sample_binomial(n, p, &mut rng).clamp(lo, hi) - lo) as usize] += 1;
            }
            // Fine cells (expected ≥ 20) catch local errors such as an
            // off-by-one floor; coarse ones (≤ 100 cells) have the power
            // for broad distortions such as a too-generous squeeze.
            for min_expected in [20.0, draws as f64 / 100.0] {
                let z = chi_square_z(n, p, lo, &observed, min_expected);
                assert!(
                    z.abs() < 4.0,
                    "Binomial({n}, {p}), cells ≥ {min_expected}: chi-square z = {z:.2}"
                );
            }
        }
    }

    #[test]
    fn btrs_pmf_ratio_matches_exact_oracle() {
        for &(n, p) in &[(65u64, 0.2), (3162, 0.3), (50_000, 0.01), (10_000_000, 0.3)] {
            let m = ((n + 1) as f64 * p) as u64;
            for k in [0, 1, 5, m / 2, m.saturating_sub(3), m, m + 7, 2 * m, n] {
                let exact = ln_pmf(n, p, k) - ln_pmf(n, p, m);
                let got = ln_pmf_ratio(n, p, k, m);
                // The oracle differences `ln j!` values of size `ln n!`.
                let tol = 1e-9 * exact.abs().max(1.0) + 8.0 * f64::EPSILON * ln_factorial(n);
                assert!((got - exact).abs() < tol, "({n}, {p}, {k}): {got} {exact}");
            }
        }
    }

    #[test]
    fn table_pmf_ratio_matches_stirling_form() {
        // A grid of the `n` the table serves, at `p` from the `n·p = 10`
        // boundary to ½, and candidates `k` across the hat: from 0 to `n`
        // in the tails, densely within ±12 sd of the mode.
        let mut checked = 0;
        let last = BTRS_TABLE_LEN as u64 - 1;
        for n in (65..last).step_by(89).chain([last]) {
            for p in [0.01, 0.07, 0.2, 0.35, 0.5] {
                if n as f64 * p <= 10.0 {
                    continue;
                }
                let m = ((n + 1) as f64 * p) as u64;
                let sd = (n as f64 * p * (1.0 - p)).sqrt();
                let body = (-48..=48).map(|t| m as f64 + t as f64 * sd / 4.0);
                let ks = body.filter(|&k| k >= 0.0).map(|k| (k as u64).min(n));
                for k in ks.chain([0, 1, n / 2, n - 1, n]) {
                    let (table, stirling) =
                        (table_ln_pmf_ratio(n, p, k, m), ln_pmf_ratio(n, p, k, m));
                    assert!(
                        (table - stirling).abs() < 1e-9,
                        "({n}, {p}, {k}): table {table}, Stirling {stirling}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 20_000, "{checked} points");
    }

    #[test]
    fn binomial_same_seed_same_stream() {
        let points = [
            (40u64, 0.3),
            (500, 0.01),
            (3162, 0.3),
            (3162, 0.998),
            (10_000_000, 0.5),
        ];
        for (n, p) in points {
            let run = |seed| {
                let mut rng = rng_from_seed(seed);
                let draw = |_| sample_binomial(n, p, &mut rng);
                (0..2_000).map(draw).collect::<Vec<_>>()
            };
            assert_eq!(run(7), run(7), "Binomial({n}, {p}) not reproducible");
            assert_ne!(run(7), run(8), "Binomial({n}, {p}) ignores the seed");
        }
    }

    /// Pins the map from uniforms to variates: the first 16 draws at a
    /// fixed seed in each regime — bottom-up inversion (`n ≤ 64`, then
    /// `n·q ≤ 10`), BTRS, BTRS through the `p > ½` mirror, and BTRS at
    /// `n = 10⁷`. A rewrite of the samplers' arithmetic that moves any
    /// variate moves every seeded simulation built on them.
    #[test]
    fn binomial_stream_is_pinned() {
        let golden: [((u64, f64), [u64; 16]); 5] = [
            ((40, 0.3), [12, 19, 8, 11, 11, 11, 10, 14, 8, 15, 19, 10, 17, 12, 8, 7]),
            ((145, 0.05), [7, 14, 4, 7, 7, 6, 6, 9, 4, 10, 14, 6, 12, 8, 4, 3]),
            ((145, 0.2), [21, 28, 26, 40, 22, 30, 33, 32, 27, 29, 30, 22, 26, 32, 23, 29]),
            (
                (3162, 0.97),
                [
                    3082, 3069, 3074, 3081, 3045, 3082, 3066, 3064, 3060, 3062, 3072, 3067, 3066,
                    3082, 3074, 3061,
                ],
            ),
            (
                (10_000_000, 0.3),
                [
                    3000234, 2997682, 2999723, 2999029, 2997903, 3003404, 2997811, 3000183,
                    3000458, 3001039, 3000812, 2999305, 3000086, 3000239, 2997783, 2999057,
                ],
            ),
        ];
        for ((n, p), want) in golden {
            let mut rng = rng_from_seed(0x5EED);
            let got: Vec<u64> = (0..16).map(|_| sample_binomial(n, p, &mut rng)).collect();
            assert_eq!(got, want, "Binomial({n}, {p}) stream moved");
        }
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = rng_from_seed(14);
        assert_eq!(sample_geometric(1.0, &mut rng), 0);
    }

    #[test]
    fn weighted_index_error_paths() {
        let mut rng = rng_from_seed(15);
        assert!(sample_weighted_index(&[], &mut rng).is_err());
        assert!(sample_weighted_index(&[-1.0, 2.0], &mut rng).is_err());
        assert!(sample_weighted_index(&[0.0, 0.0], &mut rng).is_err());
        assert!(sample_weighted_index(&[f64::NAN], &mut rng).is_err());
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [0.5, 1.5, 3.0, 0.0, 5.0];
        let table = AliasTable::new(&weights).unwrap();
        assert_eq!(table.len(), 5);
        let mut rng = rng_from_seed(16);
        let mut counts = [0u64; 5];
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for i in 0..5 {
            let expected = weights[i] / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "index {i}: expected {expected}, got {got}"
            );
        }
        assert_eq!(counts[3], 0, "zero-weight category must never be drawn");
    }

    #[test]
    fn alias_table_single_category() {
        let table = AliasTable::new(&[2.0]).unwrap();
        let mut rng = rng_from_seed(17);
        assert_eq!(table.sample(&mut rng), 0);
    }

    proptest! {
        #[test]
        fn prop_binomial_in_support(
            log_n in -1.0..=12.0f64,
            log_q in -12.0..=0.0f64,
            mirror in 0u8..2,
            seed in 0u64..1_000,
        ) {
            // n from 0 to 10¹², p from 10⁻¹² to 1 − 10⁻¹², log-uniformly.
            let n = 10f64.powf(log_n) as u64;
            let q = 10f64.powf(log_q);
            let p = if mirror == 1 { 1.0 - q } else { q };
            let mut rng = rng_from_seed(seed);
            for _ in 0..8 {
                prop_assert!(sample_binomial(n, p, &mut rng) <= n);
            }
        }

        #[test]
        fn prop_weighted_index_skips_zero_weights(seed in 0u64..200) {
            let weights = [0.0, 1.0, 0.0, 2.0, 0.0];
            let mut rng = rng_from_seed(seed);
            let i = sample_weighted_index(&weights, &mut rng).unwrap();
            prop_assert!(i == 1 || i == 3);
        }

        #[test]
        fn prop_alias_table_in_range(
            weights in proptest::collection::vec(0.0..10.0f64, 1..20),
            seed in 0u64..100,
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let table = AliasTable::new(&weights).unwrap();
            let mut rng = rng_from_seed(seed);
            for _ in 0..50 {
                prop_assert!(table.sample(&mut rng) < weights.len());
            }
        }

        #[test]
        fn prop_geometric_support(p in 0.01..1.0f64, seed in 0u64..100) {
            let mut rng = rng_from_seed(seed);
            let _ = sample_geometric(p, &mut rng); // must not panic
        }
    }
}
