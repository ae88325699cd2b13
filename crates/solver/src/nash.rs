//! Exact Nash equilibrium computation by support enumeration with
//! linear-feasibility certification.
//!
//! For every pair of equal-size supports `(S₁, S₂)` the solver solves the
//! two indifference systems
//!
//! ```text
//! Σ_{j∈S₂} A[i][j] y_j = v₁  (i ∈ S₁),   Σ y_j = 1
//! Σ_{i∈S₁} B[i][j] x_i = v₂  (j ∈ S₂),   Σ x_i = 1
//! ```
//!
//! and keeps `(x, y)` exactly when it is feasible (non-negative on the
//! support) and certified: the full best-response gap of
//! [`crate::certify::bimatrix_gap`] is at most the certification tolerance.
//! For *nondegenerate* games this enumeration is exhaustive — every Nash
//! equilibrium has equal-size supports and a unique solution on them
//! (Nash's lemma via the standard support characterization) — so the
//! returned list is the complete equilibrium set. Degenerate games may
//! additionally carry continua of equilibria, of which the enumeration
//! reports the support-wise isolated representatives it can certify.
//!
//! Cost is `Σ_m C(K,m)² · O(m³)` — exhaustive for the registry-scale games
//! (`K ≤ 8`); use [`crate::zerosum`] for large zero-sum instances.

use crate::certify::bimatrix_gap;
use crate::error::SolverError;
use crate::game::MatrixGame;
use crate::linalg::solve_linear;

/// Certification tolerance: an accepted profile's best-response gap.
pub const CERT_TOL: f64 = 1e-9;
/// Pivot tolerance under which an indifference system counts as singular.
const PIVOT_TOL: f64 = 1e-11;
/// Two equilibria within this L∞ distance are considered the same.
const DEDUP_TOL: f64 = 1e-7;

/// One exact mixed equilibrium of a bimatrix game.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// The row player's mixed strategy.
    pub x: Vec<f64>,
    /// The column player's mixed strategy.
    pub y: Vec<f64>,
    /// The row player's equilibrium payoff `xᵀA y`.
    pub row_value: f64,
    /// The column player's equilibrium payoff `xᵀB y`.
    pub col_value: f64,
}

impl Equilibrium {
    /// Whether both strategies are pure (a single support point each).
    pub fn is_pure(&self) -> bool {
        let pure = |v: &[f64]| v.iter().filter(|&&p| p > DEDUP_TOL).count() == 1;
        pure(&self.x) && pure(&self.y)
    }

    /// Whether both players mix identically within `tol` — the profiles a
    /// one-population protocol can realize.
    pub fn is_symmetric_profile(&self, tol: f64) -> bool {
        self.x
            .iter()
            .zip(&self.y)
            .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// Solves the indifference system for the mixture `m` of the player whose
/// *opponent* has support `own_support`: for each `i ∈ own_support`,
/// `Σ_{j∈mix_support} payoff(i, j) m_j = v`, plus `Σ m_j = 1`.
///
/// `payoff(i, j)` abstracts over `A` (solving for `y`) and `Bᵀ` (solving
/// for `x`). Returns the full-length mixture and the value `v`, or `None`
/// when the system is singular or infeasible (negative mass beyond
/// tolerance).
fn solve_support(
    k: usize,
    own_support: &[usize],
    mix_support: &[usize],
    payoff: impl Fn(usize, usize) -> f64,
) -> Option<(Vec<f64>, f64)> {
    let m = own_support.len();
    debug_assert_eq!(m, mix_support.len());
    let dim = m + 1;
    let mut a = vec![vec![0.0; dim]; dim];
    let mut b = vec![0.0; dim];
    for (row, &i) in own_support.iter().enumerate() {
        for (colidx, &j) in mix_support.iter().enumerate() {
            a[row][colidx] = payoff(i, j);
        }
        a[row][m] = -1.0; // −v
    }
    for cell in a[m].iter_mut().take(m) {
        *cell = 1.0;
    }
    b[m] = 1.0;
    let solution = solve_linear(a, b, PIVOT_TOL)?;
    let v = solution[m];
    if solution[..m].iter().any(|&p| p < -CERT_TOL) {
        return None;
    }
    // Clamp the (tiny) negative round-off and renormalize.
    let mut mix = vec![0.0; k];
    let mut total = 0.0;
    for (colidx, &j) in mix_support.iter().enumerate() {
        let p = solution[colidx].max(0.0);
        mix[j] = p;
        total += p;
    }
    if total <= 0.0 {
        return None;
    }
    for p in &mut mix {
        *p /= total;
    }
    Some((mix, v))
}

/// Hard cap on the strategy count for support enumeration: beyond this
/// the `Σ_m C(K,m)²` support-pair count is computationally infeasible
/// anyway, and the bitmask enumeration would overflow.
pub const MAX_ENUMERATION_K: usize = 24;

/// The non-empty subsets of `0..k` with exactly `size` elements, as sorted
/// index lists, in ascending bitmask order (deterministic output order).
fn supports_of_size(k: usize, size: usize) -> Vec<Vec<usize>> {
    debug_assert!(k <= MAX_ENUMERATION_K);
    let mut out = Vec::new();
    for mask in 1u32..(1u32 << k) {
        if mask.count_ones() as usize == size {
            out.push((0..k).filter(|i| mask & (1 << i) != 0).collect());
        }
    }
    out
}

fn is_duplicate(found: &[Equilibrium], x: &[f64], y: &[f64]) -> bool {
    found.iter().any(|eq| {
        eq.x.iter().zip(x).all(|(a, b)| (a - b).abs() < DEDUP_TOL)
            && eq.y.iter().zip(y).all(|(a, b)| (a - b).abs() < DEDUP_TOL)
    })
}

/// Enumerates the Nash equilibria of a bimatrix game (complete for
/// nondegenerate games; see the module docs for the degenerate caveat).
///
/// Output is deterministic: equilibria appear in ascending support-size
/// order, pure equilibria first, each certified to a best-response gap of
/// at most [`CERT_TOL`].
///
/// # Panics
///
/// Panics when the game has more than [`MAX_ENUMERATION_K`] strategies —
/// the enumeration is exponential in `K` and infeasible far before that
/// point; use [`crate::zerosum`] for large zero-sum instances.
pub fn enumerate_equilibria(game: &MatrixGame) -> Vec<Equilibrium> {
    let k = game.k();
    assert!(
        k <= MAX_ENUMERATION_K,
        "support enumeration is exponential: k = {k} exceeds the cap of {MAX_ENUMERATION_K}"
    );
    let mut found: Vec<Equilibrium> = Vec::new();
    for size in 1..=k {
        let supports = supports_of_size(k, size);
        for s1 in &supports {
            for s2 in &supports {
                let Some((y, _)) = solve_support(k, s1, s2, |i, j| game.row(i, j)) else {
                    continue;
                };
                let Some((x, _)) = solve_support(k, s2, s1, |j, i| game.col(i, j)) else {
                    continue;
                };
                let Ok(gap) = bimatrix_gap(game, &x, &y) else {
                    continue;
                };
                if gap > CERT_TOL || is_duplicate(&found, &x, &y) {
                    continue;
                }
                let (row_value, col_value) =
                    game.expected_payoffs(&x, &y).expect("certified profile is valid");
                found.push(Equilibrium {
                    x,
                    y,
                    row_value,
                    col_value,
                });
            }
        }
    }
    found
}

/// Enumerates the *symmetric* equilibria `(x, x)` of a symmetric game —
/// exactly the profiles a single well-mixed population can realize, and
/// the solver-side ground truth for the paper's distributional
/// equilibria.
///
/// # Errors
///
/// Returns [`SolverError::NotSymmetric`] unless `B = Aᵀ` within `1e-9`.
///
/// # Panics
///
/// Panics when the game has more than [`MAX_ENUMERATION_K`] strategies
/// (see [`enumerate_equilibria`]).
pub fn symmetric_equilibria(game: &MatrixGame) -> Result<Vec<Equilibrium>, SolverError> {
    if !game.is_symmetric(1e-9) {
        return Err(SolverError::NotSymmetric);
    }
    let k = game.k();
    assert!(
        k <= MAX_ENUMERATION_K,
        "support enumeration is exponential: k = {k} exceeds the cap of {MAX_ENUMERATION_K}"
    );
    let mut found: Vec<Equilibrium> = Vec::new();
    for size in 1..=k {
        for support in supports_of_size(k, size) {
            let Some((x, _)) = solve_support(k, &support, &support, |i, j| game.row(i, j))
            else {
                continue;
            };
            let Ok(gap) = bimatrix_gap(game, &x, &x) else {
                continue;
            };
            if gap > CERT_TOL || is_duplicate(&found, &x, &x) {
                continue;
            }
            let (row_value, col_value) =
                game.expected_payoffs(&x, &x).expect("certified profile is valid");
            found.push(Equilibrium {
                y: x.clone(),
                x,
                row_value,
                col_value,
            });
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn prisoners_dilemma_has_unique_all_defect_equilibrium() {
        let g = MatrixGame::donation(2.0, 1.0).unwrap();
        let eqs = enumerate_equilibria(&g);
        assert_eq!(eqs.len(), 1);
        assert!(close(&eqs[0].x, &[0.0, 1.0], 1e-12));
        assert!(close(&eqs[0].y, &[0.0, 1.0], 1e-12));
        assert_eq!(eqs[0].row_value, 0.0);
        assert!(eqs[0].is_pure());
        let sym = symmetric_equilibria(&g).unwrap();
        assert_eq!(sym.len(), 1);
        assert!(close(&sym[0].x, &[0.0, 1.0], 1e-12));
    }

    #[test]
    fn matching_pennies_has_unique_uniform_mix() {
        let g = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let eqs = enumerate_equilibria(&g);
        assert_eq!(eqs.len(), 1);
        assert!(close(&eqs[0].x, &[0.5, 0.5], 1e-12));
        assert!(close(&eqs[0].y, &[0.5, 0.5], 1e-12));
        assert!(eqs[0].row_value.abs() < 1e-12);
        assert!(!eqs[0].is_pure());
        // Matching pennies is not symmetric: the symmetric search refuses.
        assert_eq!(symmetric_equilibria(&g), Err(SolverError::NotSymmetric));
    }

    #[test]
    fn hawk_dove_has_two_pure_and_one_mixed() {
        // V = 2, C = 4: A = [[-1, 2], [0, 1]]; mixed NE at h = V/C = 1/2.
        let g = MatrixGame::symmetric(vec![vec![-1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        let eqs = enumerate_equilibria(&g);
        assert_eq!(eqs.len(), 3);
        // Pure anti-coordination pair (H, D) and (D, H)…
        assert!(eqs.iter().any(|e| close(&e.x, &[1.0, 0.0], 1e-12)
            && close(&e.y, &[0.0, 1.0], 1e-12)));
        assert!(eqs.iter().any(|e| close(&e.x, &[0.0, 1.0], 1e-12)
            && close(&e.y, &[1.0, 0.0], 1e-12)));
        // …and the symmetric interior mix.
        assert!(eqs.iter().any(|e| close(&e.x, &[0.5, 0.5], 1e-12)
            && close(&e.y, &[0.5, 0.5], 1e-12)));
        // Only the mix is reachable by one population.
        let sym = symmetric_equilibria(&g).unwrap();
        assert_eq!(sym.len(), 1);
        assert!(close(&sym[0].x, &[0.5, 0.5], 1e-12));
        assert!((sym[0].row_value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stag_hunt_has_two_pure_and_one_mixed() {
        let g = MatrixGame::symmetric(vec![vec![4.0, 0.0], vec![3.0, 3.0]]).unwrap();
        let sym = symmetric_equilibria(&g).unwrap();
        assert_eq!(sym.len(), 3);
        assert!(sym.iter().any(|e| close(&e.x, &[1.0, 0.0], 1e-12)));
        assert!(sym.iter().any(|e| close(&e.x, &[0.0, 1.0], 1e-12)));
        // Indifference: 4p = 3 ⟹ p = 3/4.
        assert!(sym.iter().any(|e| close(&e.x, &[0.75, 0.25], 1e-12)));
        // The bimatrix enumeration finds the same three (all symmetric).
        let eqs = enumerate_equilibria(&g);
        assert_eq!(eqs.len(), 3);
        assert!(eqs.iter().all(|e| e.is_symmetric_profile(1e-12)));
    }

    #[test]
    fn rock_paper_scissors_unique_uniform() {
        let g = MatrixGame::symmetric(vec![
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap();
        let eqs = enumerate_equilibria(&g);
        assert_eq!(eqs.len(), 1);
        let third = 1.0 / 3.0;
        assert!(close(&eqs[0].x, &[third, third, third], 1e-12));
        assert!(close(&eqs[0].y, &[third, third, third], 1e-12));
        let sym = symmetric_equilibria(&g).unwrap();
        assert_eq!(sym.len(), 1);
        assert!(close(&sym[0].x, &[third, third, third], 1e-12));
    }

    #[test]
    fn diagonal_coordination_counts_all_support_equilibria() {
        // A = diag(1, 2, 3): every non-empty support carries exactly one
        // symmetric equilibrium (2³ − 1 = 7 of them).
        let g = MatrixGame::symmetric(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 3.0],
        ])
        .unwrap();
        let sym = symmetric_equilibria(&g).unwrap();
        assert_eq!(sym.len(), 7);
        // Support {0,1}: x solves x₀ = 2x₁ ⟹ (2/3, 1/3, 0).
        assert!(sym
            .iter()
            .any(|e| close(&e.x, &[2.0 / 3.0, 1.0 / 3.0, 0.0], 1e-12)));
        // Full support: x_i ∝ 1/a_i = (6/11, 3/11, 2/11).
        assert!(sym
            .iter()
            .any(|e| close(&e.x, &[6.0 / 11.0, 3.0 / 11.0, 2.0 / 11.0], 1e-12)));
    }

    #[test]
    fn is_pure_counts_support_points_not_majorities() {
        // A mixed profile with a > 1/2 component is still mixed.
        let eq = Equilibrium {
            x: vec![0.6, 0.4],
            y: vec![0.7, 0.3],
            row_value: 0.0,
            col_value: 0.0,
        };
        assert!(!eq.is_pure());
        let pure = Equilibrium {
            x: vec![1.0, 0.0],
            y: vec![0.0, 1.0],
            row_value: 0.0,
            col_value: 0.0,
        };
        assert!(pure.is_pure());
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn oversized_games_panic_instead_of_returning_empty() {
        let k = MAX_ENUMERATION_K + 1;
        let rows: Vec<Vec<f64>> = (0..k).map(|_| vec![0.0; k]).collect();
        let g = MatrixGame::symmetric(rows).unwrap();
        let _ = enumerate_equilibria(&g);
    }

    #[test]
    fn equilibria_are_certified_and_deterministic() {
        let g = MatrixGame::symmetric(vec![vec![-1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        for eq in symmetric_equilibria(&g).unwrap() {
            assert!(bimatrix_gap(&g, &eq.x, &eq.x).unwrap() <= CERT_TOL);
        }
        assert_eq!(enumerate_equilibria(&g), enumerate_equilibria(&g));
    }
}
