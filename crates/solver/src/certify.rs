//! ε-Nash certification.
//!
//! The **bimatrix gap** of a profile `(x, y)` is the larger of the two
//! players' best unilateral deviation gains. On a symmetric profile it is
//! the paper's Definition 1.1 **distributional gap**: `bimatrix_gap(g, µ,
//! µ)` is the smallest `ε` for which `µ` is an ε-approximate distributional
//! equilibrium, with both interaction partners drawn from `µ`.

use crate::error::SolverError;
use crate::game::MatrixGame;

/// The smallest `ε ≥ 0` such that `(x, y)` is an ε-Nash profile: the
/// larger of the two players' best-deviation gains, floored at zero.
///
/// # Errors
///
/// Returns [`SolverError::InvalidProfile`] when either side is not a pmf
/// over the game's strategy set.
pub fn bimatrix_gap(game: &MatrixGame, x: &[f64], y: &[f64]) -> Result<f64, SolverError> {
    let (e_row, e_col) = game.expected_payoffs(x, y)?;
    let best_row = game
        .row_payoffs_against(y)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
    let best_col = game
        .col_payoffs_against(x)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max);
    Ok((best_row - e_row).max(best_col - e_col).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_zero_exactly_at_equilibria() {
        let g = MatrixGame::donation(2.0, 1.0).unwrap();
        assert!(bimatrix_gap(&g, &[0.0, 1.0], &[0.0, 1.0]).unwrap() < 1e-12);
        assert!((bimatrix_gap(&g, &[1.0, 0.0], &[1.0, 0.0]).unwrap() - 1.0).abs() < 1e-12);
        // Matching pennies (zero-sum): the uniform mix is exact; against
        // pure heads the column player gains 1 − (−1) by switching.
        let mp = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        assert!(bimatrix_gap(&mp, &[0.5, 0.5], &[0.5, 0.5]).unwrap() < 1e-12);
        assert_eq!(bimatrix_gap(&mp, &[1.0, 0.0], &[1.0, 0.0]).unwrap(), 2.0);
    }

    #[test]
    fn rejects_invalid_profiles() {
        let g = MatrixGame::donation(2.0, 1.0).unwrap();
        assert!(bimatrix_gap(&g, &[1.0], &[0.0, 1.0]).is_err());
        assert!(bimatrix_gap(&g, &[0.8, 0.8], &[0.0, 1.0]).is_err());
        assert!(bimatrix_gap(&g, &[-0.5, 1.5], &[-0.5, 1.5]).is_err());
    }
}
