//! [`MatrixGame`]: arbitrary finite two-player matrix games.
//!
//! Generalizes the workspace's hard-coded 2×2 donation game to any `K×K`
//! bimatrix game `(A, B)` where `A[i][j]` is the row player's payoff and
//! `B[i][j]` the column player's when row plays `i` against column `j`.
//! Symmetric games (`B = Aᵀ`) are the one-population case the paper's
//! distributional-equilibrium concept lives in; zero-sum games (`B = −A`)
//! get an exact LP value through [`crate::zerosum`].

use crate::error::SolverError;

/// A finite two-player game in bimatrix form.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGame {
    k: usize,
    row: Vec<Vec<f64>>,
    col: Vec<Vec<f64>>,
}

/// Validates one `k×k` payoff matrix.
fn validate_matrix(name: &str, m: &[Vec<f64>], k: usize) -> Result<(), SolverError> {
    if m.len() != k {
        return Err(SolverError::InvalidGame {
            reason: format!("{name} has {} rows, expected {k}", m.len()),
        });
    }
    for (i, row) in m.iter().enumerate() {
        if row.len() != k {
            return Err(SolverError::InvalidGame {
                reason: format!("{name} row {i} has length {}, expected {k}", row.len()),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(SolverError::InvalidGame {
                reason: format!("{name} row {i} contains a non-finite payoff"),
            });
        }
    }
    Ok(())
}

impl MatrixGame {
    /// Builds a general bimatrix game from row- and column-player payoff
    /// matrices.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] when the matrices are empty,
    /// ragged, of unequal dimension, or contain non-finite entries.
    pub fn bimatrix(row: Vec<Vec<f64>>, col: Vec<Vec<f64>>) -> Result<Self, SolverError> {
        let k = row.len();
        if k == 0 {
            return Err(SolverError::InvalidGame {
                reason: "game needs at least one strategy".into(),
            });
        }
        validate_matrix("row matrix", &row, k)?;
        validate_matrix("column matrix", &col, k)?;
        Ok(MatrixGame { k, row, col })
    }

    /// Builds a symmetric game from the row player's payoffs: `B = Aᵀ`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bimatrix`](Self::bimatrix).
    pub fn symmetric(row: Vec<Vec<f64>>) -> Result<Self, SolverError> {
        let k = row.len();
        let col = (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| row.get(j).and_then(|r| r.get(i)).copied().unwrap_or(f64::NAN))
                    .collect()
            })
            .collect();
        Self::bimatrix(row, col)
    }

    /// Builds a zero-sum game from the row player's payoffs: `B = −A`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`bimatrix`](Self::bimatrix).
    pub fn zero_sum(row: Vec<Vec<f64>>) -> Result<Self, SolverError> {
        let col = row
            .iter()
            .map(|r| r.iter().map(|&v| -v).collect())
            .collect();
        Self::bimatrix(row, col)
    }

    /// The donation game with benefit `b` and cost `c` (strategies
    /// `{C, D}`): the 2×2 instance the rest of the workspace hard-codes,
    /// here as the symmetric game `[[b−c, −c], [b, 0]]`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] on non-finite parameters.
    pub fn donation(b: f64, c: f64) -> Result<Self, SolverError> {
        Self::symmetric(vec![vec![b - c, -c], vec![b, 0.0]])
    }

    /// Number of strategies per player.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row player's payoff `A[i][j]`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn row(&self, i: usize, j: usize) -> f64 {
        self.row[i][j]
    }

    /// Column player's payoff `B[i][j]`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn col(&self, i: usize, j: usize) -> f64 {
        self.col[i][j]
    }

    /// The full row-player matrix.
    pub fn row_matrix(&self) -> &[Vec<f64>] {
        &self.row
    }

    /// The full column-player matrix.
    pub fn col_matrix(&self) -> &[Vec<f64>] {
        &self.col
    }

    /// Whether `B = Aᵀ` within `tol` — the one-population case.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (0..self.k)
            .all(|i| (0..self.k).all(|j| (self.col[i][j] - self.row[j][i]).abs() <= tol))
    }

    /// Whether `B = −A` within `tol`.
    pub fn is_zero_sum(&self, tol: f64) -> bool {
        (0..self.k)
            .all(|i| (0..self.k).all(|j| (self.col[i][j] + self.row[i][j]).abs() <= tol))
    }

    /// Validates that `x` is a pmf over the strategy set.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProfile`] on wrong length, negative or
    /// non-finite mass, or total far from 1.
    pub fn validate_profile(&self, x: &[f64]) -> Result<(), SolverError> {
        if x.len() != self.k {
            return Err(SolverError::InvalidProfile {
                reason: format!("profile has length {}, game has {} strategies", x.len(), self.k),
            });
        }
        if x.iter().any(|p| !p.is_finite() || *p < -1e-12) {
            return Err(SolverError::InvalidProfile {
                reason: "profile has negative or non-finite mass".into(),
            });
        }
        let total: f64 = x.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(SolverError::InvalidProfile {
                reason: format!("profile sums to {total}"),
            });
        }
        Ok(())
    }

    /// The row player's expected payoffs per pure strategy against the
    /// column mixture `y`: the vector `A y`.
    pub fn row_payoffs_against(&self, y: &[f64]) -> Vec<f64> {
        self.row
            .iter()
            .map(|row| row.iter().zip(y).map(|(a, p)| a * p).sum())
            .collect()
    }

    /// The column player's expected payoffs per pure strategy against the
    /// row mixture `x`: the vector `Bᵀ x`.
    pub fn col_payoffs_against(&self, x: &[f64]) -> Vec<f64> {
        (0..self.k)
            .map(|j| x.iter().enumerate().map(|(i, p)| p * self.col[i][j]).sum())
            .collect()
    }

    /// Expected payoffs `(xᵀA y, xᵀB y)` of the mixed profile `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidProfile`] when either side is not a
    /// pmf.
    pub fn expected_payoffs(&self, x: &[f64], y: &[f64]) -> Result<(f64, f64), SolverError> {
        self.validate_profile(x)?;
        self.validate_profile(y)?;
        let mut e_row = 0.0;
        let mut e_col = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &yj) in y.iter().enumerate() {
                if yj == 0.0 {
                    continue;
                }
                e_row += xi * yj * self.row[i][j];
                e_col += xi * yj * self.col[i][j];
            }
        }
        Ok((e_row, e_col))
    }

    /// The symmetrized companion game: the `2k×2k` **symmetric** game
    /// `[[0, A′], [B′ᵀ, 0]]` where `A′` and `B′` are the two payoff
    /// matrices shifted strictly positive (`m′ = m − min m + 1`).
    ///
    /// Strategies `0..k` are "play row-side `i`", strategies `k..2k` are
    /// "play column-side `j`"; a same-side encounter pays nothing. With
    /// both shifted matrices strictly positive, every symmetric
    /// equilibrium `x` of the companion game splits its mass across both
    /// sides and projects to a Nash equilibrium `(p, q)` of the original
    /// bimatrix game (the standard symmetrization reduction) — which is
    /// how asymmetric games become reachable by *one-population* protocol
    /// dynamics: run any [`crate::dynamics::GameDynamics`] rule on the
    /// companion game and compare against its exact symmetric equilibria.
    ///
    /// Payoff shifts change neither best responses nor equilibria of the
    /// original game, so the projection is exact, not approximate.
    pub fn symmetrized(&self) -> MatrixGame {
        let k = self.k;
        let shift = |m: &[Vec<f64>]| {
            let min = m
                .iter()
                .flatten()
                .copied()
                .fold(f64::INFINITY, f64::min);
            move |v: f64| v - min + 1.0
        };
        let a = shift(&self.row);
        let b = shift(&self.col);
        let rows = (0..2 * k)
            .map(|i| {
                (0..2 * k)
                    .map(|j| match (i < k, j < k) {
                        (true, false) => a(self.row[i][j - k]),
                        (false, true) => b(self.col[j][i - k]),
                        _ => 0.0,
                    })
                    .collect()
            })
            .collect();
        Self::symmetric(rows).expect("shifted finite payoffs stay finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_malformed_games() {
        assert!(MatrixGame::bimatrix(vec![], vec![]).is_err());
        assert!(MatrixGame::bimatrix(vec![vec![1.0, 2.0]], vec![vec![1.0, 2.0]]).is_err());
        assert!(MatrixGame::bimatrix(
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            vec![vec![1.0], vec![3.0, 4.0]]
        )
        .is_err());
        assert!(MatrixGame::symmetric(vec![vec![f64::NAN, 0.0], vec![0.0, 0.0]]).is_err());
    }

    #[test]
    fn symmetric_and_zero_sum_constructors() {
        let g = MatrixGame::symmetric(vec![vec![1.0, -1.0], vec![2.0, 0.0]]).unwrap();
        assert!(g.is_symmetric(0.0));
        assert_eq!(g.col(0, 1), 2.0); // B[C][D] = A[D][C]
        let z = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        assert!(z.is_zero_sum(0.0));
        assert!(!z.is_symmetric(1e-12));
    }

    #[test]
    fn donation_game_lifts_the_hard_coded_instance() {
        let g = MatrixGame::donation(2.0, 1.0).unwrap();
        assert_eq!(g.row_matrix(), &[vec![1.0, -1.0], vec![2.0, 0.0]]);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn payoff_vectors_and_expectations() {
        let g = MatrixGame::donation(2.0, 1.0).unwrap();
        let against_half = g.row_payoffs_against(&[0.5, 0.5]);
        assert_eq!(against_half, vec![0.0, 1.0]);
        let (er, ec) = g.expected_payoffs(&[0.5, 0.5], &[0.5, 0.5]).unwrap();
        assert!((er - 0.5).abs() < 1e-12 && (ec - 0.5).abs() < 1e-12);
        assert!(g.expected_payoffs(&[0.5], &[0.5, 0.5]).is_err());
        assert!(g.expected_payoffs(&[0.9, 0.9], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn symmetrization_embeds_the_original_payoffs_positively() {
        let mp = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let sym = mp.symmetrized();
        assert_eq!(sym.k(), 4);
        assert!(sym.is_symmetric(0.0));
        // Cross-side payoffs are the shifted originals (min −1 → +2).
        assert_eq!(sym.row(0, 2), 3.0); // A[0][0] + 2
        assert_eq!(sym.row(0, 3), 1.0); // A[0][1] + 2
        assert_eq!(sym.row(2, 0), 1.0); // B[0][0] + 2
        assert_eq!(sym.row(3, 0), 3.0); // B[0][1] + 2
        // Same-side encounters pay nothing.
        assert_eq!(sym.row(0, 1), 0.0);
        assert_eq!(sym.row(2, 3), 0.0);
    }

    #[test]
    fn symmetrized_equilibria_project_to_the_original_nash() {
        use crate::nash::symmetric_equilibria;
        // Matching pennies: unique Nash (1/2, 1/2) each side, so the
        // companion game's symmetric equilibria all project to it.
        let mp = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let eqs = symmetric_equilibria(&mp.symmetrized()).unwrap();
        assert!(!eqs.is_empty(), "companion game must have a symmetric equilibrium");
        for eq in &eqs {
            let row_mass: f64 = eq.x[..2].iter().sum();
            let col_mass: f64 = eq.x[2..].iter().sum();
            assert!(row_mass > 1e-9 && col_mass > 1e-9, "{:?}", eq.x);
            for side in [&eq.x[..2], &eq.x[2..]] {
                let total: f64 = side.iter().sum();
                for &p in side {
                    assert!((p / total - 0.5).abs() < 1e-9, "{:?}", eq.x);
                }
            }
        }
    }
}
