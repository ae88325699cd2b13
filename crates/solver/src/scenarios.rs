//! The named-scenario registry: classic matrix games with
//! constructor-level parameterization, exact solver-computed equilibria,
//! and ready-to-run population dynamics.
//!
//! | name | payoffs (row matrix) | known equilibria |
//! |------|----------------------|------------------|
//! | `prisoners-dilemma` | donation `[[b−c, −c], [b, 0]]` | unique pure all-defect |
//! | `hawk-dove` | `[[ (V−C)/2, V], [0, V/2]]` | 2 pure anti-coordinated + mixed `h = V/C` |
//! | `rock-paper-scissors` | cyclic `±w/±l` | unique uniform mix |
//! | `matching-pennies` | zero-sum `[[1,−1],[−1,1]]` | unique uniform mix (bimatrix only) |
//! | `stag-hunt` | `[[s, 0], [h, h]]` | 2 pure consensus + mixed `p = h/s` |
//! | `coordination` | `diag(1, …, K)` | one per non-empty support (`2^K − 1`) |
//! | `congestion` | routes `u(i,j) = −w_i(1+δ_ij)` | potential maximizer `(0.8, 0.2, 0)` |
//! | `shapley-cycle` | bad RPS (win 1, loss 2) | unique uniform mix; BR/replicator cycle |
//! | `random-symmetric` | seeded uniform `[−1, 1]` | whatever the solver certifies |
//! | `random-symmetric-5` | seeded uniform `[−1, 1]`, `K = 5` | whatever the solver certifies |
//! | `random-zero-sum` | seeded uniform `[−1, 1]`, `B = −A` | unique value via LP |
//! | `random-zero-sum-5` | seeded uniform `[−1, 1]`, `B = −A`, `K = 5` | unique value via LP |
//!
//! `congestion` is an exact potential game: the mean-field payoff
//! `F_i(x) = −w_i(1 + x_i)` is the gradient of the strictly concave
//! population potential `f(x) = −Σ_i w_i (x_i + x_i²/2)`, so its unique
//! maximizer over the simplex *is* the unique symmetric equilibrium — the
//! reference the dynamics are measured against. `shapley-cycle` is the
//! opposite stress case: the unique Nash equilibrium is the uniform mix,
//! but the game is non-zero-sum cyclic (losses outweigh wins), so
//! best-response play circulates through the pure-strategy cycle and the
//! replicator spirals *away* from the equilibrium toward the boundary
//! (Gaunersdorfer–Hofbauer's Shapley triangle) while logit revision
//! converges — the divergence panel of the report harness measures
//! exactly this split.
//!
//! Each [`Scenario`] exposes (a) its exact equilibria through
//! [`crate::nash`] and (b) pairwise population dynamics
//! ([`crate::dynamics::GameDynamics`]) runnable on the batched count-level
//! engine — the ground-truth/empirical pairing the report harness
//! sweeps.

use crate::dynamics::{DynamicsRule, GameDynamics};
use crate::error::SolverError;
use crate::game::MatrixGame;
use crate::nash::{enumerate_equilibria, symmetric_equilibria, Equilibrium};
use popgame_util::rng::rng_from_seed;
use rand::Rng;
use std::sync::OnceLock;

/// A named, parameterized game instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    description: String,
    game: MatrixGame,
}

impl Scenario {
    /// The donation-game prisoner's dilemma with benefit `b` and cost `c`
    /// (`b > c > 0`): defection strictly dominates.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless `b > c > 0` and both
    /// are finite.
    pub fn prisoners_dilemma(b: f64, c: f64) -> Result<Self, SolverError> {
        if !(b.is_finite() && c.is_finite() && b > c && c > 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!("prisoner's dilemma needs b > c > 0, got b={b}, c={c}"),
            });
        }
        Ok(Scenario {
            name: "prisoners-dilemma".into(),
            description: format!("donation game, benefit {b}, cost {c}; all-defect dominant"),
            game: MatrixGame::donation(b, c)?,
        })
    }

    /// Hawk–Dove over a resource worth `v` with fight cost `c > v > 0`:
    /// the symmetric equilibrium mixes hawks at `v/c`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless `c > v > 0`.
    pub fn hawk_dove(v: f64, c: f64) -> Result<Self, SolverError> {
        if !(v.is_finite() && c.is_finite() && c > v && v > 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!("hawk-dove needs c > v > 0, got v={v}, c={c}"),
            });
        }
        Ok(Scenario {
            name: "hawk-dove".into(),
            description: format!("resource {v}, fight cost {c}; mixed hawks at v/c"),
            game: MatrixGame::symmetric(vec![
                vec![(v - c) / 2.0, v],
                vec![0.0, v / 2.0],
            ])?,
        })
    }

    /// Rock–Paper–Scissors with win payoff `w` and loss payoff `−l`
    /// (`w, l > 0`); `w = l` is the classic zero-sum cycle with the
    /// uniform mix as unique equilibrium.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless `w, l > 0`.
    pub fn rock_paper_scissors(w: f64, l: f64) -> Result<Self, SolverError> {
        if !(w.is_finite() && l.is_finite() && w > 0.0 && l > 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!("rock-paper-scissors needs w, l > 0, got w={w}, l={l}"),
            });
        }
        Ok(Scenario {
            name: "rock-paper-scissors".into(),
            description: format!("cyclic game, win {w}, loss {l}; uniform mix unique"),
            game: MatrixGame::symmetric(vec![
                vec![0.0, -l, w],
                vec![w, 0.0, -l],
                vec![-l, w, 0.0],
            ])?,
        })
    }

    /// Matching pennies: the 2×2 zero-sum classic. Not symmetric, so it
    /// carries no one-population dynamics — it exercises the bimatrix and
    /// zero-sum solver paths.
    pub fn matching_pennies() -> Self {
        Scenario {
            name: "matching-pennies".into(),
            description: "zero-sum; unique uniform mix, value 0".into(),
            game: MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]])
                .expect("static payoffs are valid"),
        }
    }

    /// Stag hunt with stag payoff `s` and hare payoff `h` (`s > h > 0`):
    /// payoff-dominant and risk-dominant pure consensus equilibria plus
    /// the mixed equilibrium at stag share `h/s`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless `s > h > 0`.
    pub fn stag_hunt(s: f64, h: f64) -> Result<Self, SolverError> {
        if !(s.is_finite() && h.is_finite() && s > h && h > 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!("stag hunt needs s > h > 0, got s={s}, h={h}"),
            });
        }
        Ok(Scenario {
            name: "stag-hunt".into(),
            description: format!("stag {s}, hare {h}; two consensus equilibria + mix"),
            game: MatrixGame::symmetric(vec![vec![s, 0.0], vec![h, h]])?,
        })
    }

    /// Pure coordination over `k` actions with payoffs `diag(1, …, k)`:
    /// every non-empty support carries exactly one symmetric equilibrium.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] when `k = 0`.
    pub fn coordination(k: usize) -> Result<Self, SolverError> {
        if k == 0 {
            return Err(SolverError::InvalidGame {
                reason: "coordination needs at least one action".into(),
            });
        }
        let rows = (0..k)
            .map(|i| (0..k).map(|j| if i == j { (i + 1) as f64 } else { 0.0 }).collect())
            .collect();
        Ok(Scenario {
            name: "coordination".into(),
            description: format!("diagonal coordination on {k} actions"),
            game: MatrixGame::symmetric(rows)?,
        })
    }

    /// A symmetric congestion game over `K` routes with weights `w`:
    /// picking route `i` against an opponent on route `j` costs
    /// `w_i (1 + δ_ij)` (your route's weight, doubled when shared), i.e.
    /// payoffs `u(i, j) = −w_i (1 + δ_ij)`.
    ///
    /// An exact potential game: `F_i(x) = −w_i(1 + x_i)` is the gradient
    /// of the strictly concave potential `f(x) = −Σ_i w_i(x_i + x_i²/2)`,
    /// whose unique simplex maximizer is the unique symmetric equilibrium
    /// (closed form: equalize `w_i(1 + x_i)` over the cheapest support).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless at least two routes are
    /// given with finite positive weights.
    pub fn congestion(weights: Vec<f64>) -> Result<Self, SolverError> {
        if weights.len() < 2 || weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!(
                    "congestion needs >= 2 routes with positive finite weights, got {weights:?}"
                ),
            });
        }
        let k = weights.len();
        let rows = (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| -weights[i] * if i == j { 2.0 } else { 1.0 })
                    .collect()
            })
            .collect();
        Ok(Scenario {
            name: "congestion".into(),
            description: format!(
                "route-choice congestion game, weights {weights:?}; unique potential maximizer"
            ),
            game: MatrixGame::symmetric(rows)?,
        })
    }

    /// The closed-form equilibrium of [`Scenario::congestion`] — the
    /// water-filling potential maximizer: routes are used in ascending
    /// weight order, each used route's cost `w_i(1 + x_i)` equalized at
    /// the level `λ` that exhausts unit mass.
    pub fn congestion_equilibrium(weights: &[f64]) -> Vec<f64> {
        let k = weights.len();
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| {
            weights[a]
                .partial_cmp(&weights[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Try support sizes 1..=k over the cheapest routes:
        // λ = (1 + Σ 1/w already-included... ) solves Σ (λ/w_i − 1) = 1.
        let mut x = vec![0.0; k];
        for support in 1..=k {
            let inv_sum: f64 = order[..support].iter().map(|&i| 1.0 / weights[i]).sum();
            let lambda = (1.0 + support as f64) / inv_sum;
            let feasible = order[..support]
                .iter()
                .all(|&i| lambda / weights[i] - 1.0 >= -1e-12)
                && (support == k || lambda <= weights[order[support]] + 1e-12);
            if feasible {
                for &i in &order[..support] {
                    x[i] = (lambda / weights[i] - 1.0).max(0.0);
                }
                break;
            }
        }
        x
    }

    /// The population potential `f(x) = −Σ_i w_i (x_i + x_i²/2)` of
    /// [`Scenario::congestion`], maximized exactly at the equilibrium.
    pub fn congestion_potential(weights: &[f64], x: &[f64]) -> f64 {
        weights
            .iter()
            .zip(x)
            .map(|(w, xi)| -w * (xi + xi * xi / 2.0))
            .sum()
    }

    /// A Shapley-style cycling game: generalized rock–paper–scissors with
    /// win payoff `win` and loss payoff `−loss` where `loss > win > 0`
    /// (the "bad RPS" regime). The unique Nash equilibrium is the uniform
    /// mix, yet the game is *not* zero-sum as a bimatrix, and with losses
    /// outweighing wins the interior equilibrium repels the replicator
    /// (trajectories spiral to the boundary Shapley triangle,
    /// Gaunersdorfer–Hofbauer 1995) and best-response play cycles through
    /// the pure strategies — while logit revision still converges. The
    /// report harness's divergence panel runs exactly this split.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] unless `loss > win > 0`.
    pub fn shapley_cycle(win: f64, loss: f64) -> Result<Self, SolverError> {
        if !(win.is_finite() && loss.is_finite() && loss > win && win > 0.0) {
            return Err(SolverError::InvalidGame {
                reason: format!("shapley-cycle needs loss > win > 0, got win={win}, loss={loss}"),
            });
        }
        Ok(Scenario {
            name: "shapley-cycle".into(),
            description: format!(
                "bad RPS (win {win}, loss {loss}); uniform Nash repels BR/replicator, logit converges"
            ),
            game: MatrixGame::symmetric(vec![
                vec![0.0, -loss, win],
                vec![win, 0.0, -loss],
                vec![-loss, win, 0.0],
            ])?,
        })
    }

    /// A seeded random symmetric game with payoffs uniform in `[−1, 1]`:
    /// scenario diversity for fuzzing the solver/dynamics pipeline while
    /// staying reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] when `k = 0`.
    pub fn random_symmetric(k: usize, seed: u64) -> Result<Self, SolverError> {
        if k == 0 {
            return Err(SolverError::InvalidGame {
                reason: "random game needs at least one strategy".into(),
            });
        }
        let mut rng = rng_from_seed(seed ^ 0x5CE7_A710);
        let rows: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Ok(Scenario {
            name: "random-symmetric".into(),
            description: format!("seeded random symmetric {k}x{k} game (seed {seed})"),
            game: MatrixGame::symmetric(rows)?,
        })
    }

    /// A seeded random zero-sum game with payoffs uniform in `[−1, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidGame`] when `k = 0`.
    pub fn random_zero_sum(k: usize, seed: u64) -> Result<Self, SolverError> {
        if k == 0 {
            return Err(SolverError::InvalidGame {
                reason: "random game needs at least one strategy".into(),
            });
        }
        let mut rng = rng_from_seed(seed ^ 0x002E_050C_u64);
        let rows: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Ok(Scenario {
            name: "random-zero-sum".into(),
            description: format!("seeded random zero-sum {k}x{k} game (seed {seed})"),
            game: MatrixGame::zero_sum(rows)?,
        })
    }

    /// Registry-internal renaming for ensemble members whose constructor
    /// shares one generic name (e.g. the `K = 5` random games).
    fn renamed(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }

    /// The scenario's stable name (registry key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A one-line human description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The underlying game.
    pub fn game(&self) -> &MatrixGame {
        &self.game
    }

    /// All bimatrix Nash equilibria (complete for nondegenerate games).
    pub fn equilibria(&self) -> Vec<Equilibrium> {
        enumerate_equilibria(&self.game)
    }

    /// The symmetric equilibria — the one-population ground truth. Empty
    /// for asymmetric scenarios (e.g. matching pennies).
    pub fn symmetric_equilibria(&self) -> Vec<Equilibrium> {
        symmetric_equilibria(&self.game).unwrap_or_default()
    }

    /// Builds the pairwise revision dynamics for this scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSymmetric`] for asymmetric scenarios.
    pub fn dynamics(&self, rule: DynamicsRule) -> Result<GameDynamics, SolverError> {
        GameDynamics::new(&self.game, rule)
    }
}

/// The canonical registry: one instance of every named scenario, with the
/// parameters used throughout the workspace's tests and experiments.
///
/// The registry is process-static: it is built once, on first use, and
/// every later call returns the same `&'static` slice, so looking a
/// scenario up never rebuilds the games.
pub fn registry() -> &'static [Scenario] {
    static REGISTRY: OnceLock<Vec<Scenario>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Runs once per process, under [`registry`]'s `OnceLock`.
#[cold]
fn build_registry() -> Vec<Scenario> {
    vec![
        Scenario::prisoners_dilemma(2.0, 1.0).expect("canonical parameters are valid"),
        Scenario::hawk_dove(2.0, 4.0).expect("canonical parameters are valid"),
        Scenario::rock_paper_scissors(1.0, 1.0).expect("canonical parameters are valid"),
        Scenario::matching_pennies(),
        Scenario::stag_hunt(4.0, 3.0).expect("canonical parameters are valid"),
        Scenario::coordination(3).expect("canonical parameters are valid"),
        Scenario::congestion(vec![1.0, 1.5, 2.5]).expect("canonical parameters are valid"),
        Scenario::shapley_cycle(1.0, 2.0).expect("canonical parameters are valid"),
        Scenario::random_symmetric(3, 2024).expect("canonical parameters are valid"),
        Scenario::random_symmetric(5, 2025)
            .expect("canonical parameters are valid")
            .renamed("random-symmetric-5"),
        Scenario::random_zero_sum(3, 2024).expect("canonical parameters are valid"),
        Scenario::random_zero_sum(5, 2025)
            .expect("canonical parameters are valid")
            .renamed("random-zero-sum-5"),
    ]
}

/// The registry as a JSON document — one object per scenario with its
/// shape, solver-computed equilibrium counts, and description. Shared by
/// the `scenarios` CLI (`--list`) and `popgamed`'s `GET /scenarios`.
pub fn registry_listing() -> popgame_util::json::Json {
    use popgame_util::json::Json;
    Json::arr(registry().iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name())),
            ("k", Json::from(s.game().k())),
            ("symmetric", Json::from(s.game().is_symmetric(1e-9))),
            ("zero_sum", Json::from(s.game().is_zero_sum(1e-9))),
            ("equilibria", Json::from(s.equilibria().len())),
            (
                "symmetric_equilibria",
                Json::from(s.symmetric_equilibria().len()),
            ),
            ("description", Json::from(s.description())),
        ])
    }))
}

/// Looks a canonical scenario up by name in the process-static
/// [`registry`]; the result borrows the registry entry for `'static`.
///
/// # Errors
///
/// Returns [`SolverError::UnknownScenario`] when the name is not in
/// [`registry`].
pub fn by_name(name: &str) -> Result<&'static Scenario, SolverError> {
    registry()
        .iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| SolverError::UnknownScenario { name: name.into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::bimatrix_gap;
    use crate::zerosum::solve_zero_sum;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let all = registry();
        assert!(all.len() >= 12, "at least twelve named scenarios");
        for s in all {
            let found = by_name(s.name()).unwrap();
            assert_eq!(found.game(), s.game());
        }
        let mut names: Vec<&str> = all.iter().map(Scenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
        assert!(by_name("nonexistent").is_err());
    }

    #[test]
    fn registry_listing_covers_every_scenario() {
        let listing = registry_listing();
        let items = listing.as_array().unwrap();
        assert_eq!(items.len(), registry().len());
        assert!(items
            .iter()
            .any(|s| s.get("name").unwrap().as_str() == Some("rock-paper-scissors")));
        // Deterministic bytes (the service caches this document).
        assert_eq!(registry_listing().encode(), listing.encode());
    }

    #[test]
    fn parameter_validation() {
        assert!(Scenario::prisoners_dilemma(1.0, 2.0).is_err());
        assert!(Scenario::hawk_dove(4.0, 2.0).is_err());
        assert!(Scenario::rock_paper_scissors(0.0, 1.0).is_err());
        assert!(Scenario::stag_hunt(3.0, 4.0).is_err());
        assert!(Scenario::coordination(0).is_err());
        assert!(Scenario::congestion(vec![1.0]).is_err());
        assert!(Scenario::congestion(vec![1.0, -2.0]).is_err());
        assert!(Scenario::shapley_cycle(2.0, 1.0).is_err(), "needs loss > win");
        assert!(Scenario::shapley_cycle(1.0, 1.0).is_err(), "zero-sum RPS is not the cycling regime");
        assert!(Scenario::random_symmetric(0, 1).is_err());
        assert!(Scenario::random_zero_sum(0, 1).is_err());
    }

    #[test]
    fn congestion_equilibrium_is_the_closed_form_potential_maximizer() {
        let weights = [1.0, 1.5, 2.5];
        let s = by_name("congestion").unwrap();
        // Water-filling closed form: support {0, 1} at λ = 1.8.
        let closed = Scenario::congestion_equilibrium(&weights);
        assert!((closed[0] - 0.8).abs() < 1e-12, "{closed:?}");
        assert!((closed[1] - 0.2).abs() < 1e-12, "{closed:?}");
        assert_eq!(closed[2], 0.0);
        // The solver finds exactly this (and only this) symmetric
        // equilibrium, certified by the Definition 1.1 gap at 1e-9.
        let sym = s.symmetric_equilibria();
        assert_eq!(sym.len(), 1, "{sym:?}");
        for (a, b) in sym[0].x.iter().zip(&closed) {
            assert!((a - b).abs() < 1e-9, "{:?} vs {closed:?}", sym[0].x);
        }
        let gap = bimatrix_gap(s.game(), &closed, &closed).unwrap();
        assert!(gap <= 1e-9, "closed form gap {gap}");
        // Water-filling handles all-equal weights (uniform split) and a
        // dominant cheap route (pure) too, and the result is always a pmf
        // maximizing the potential.
        for w in [vec![2.0, 2.0, 2.0], vec![1.0, 5.0, 9.0], vec![3.0, 1.0, 2.0, 1.5]] {
            let x = Scenario::congestion_equilibrium(&w);
            assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{w:?}: {x:?}");
            let gap = bimatrix_gap(Scenario::congestion(w.clone()).unwrap().game(), &x, &x).unwrap();
            assert!(gap <= 1e-9, "{w:?}: gap {gap}");
        }
    }

    #[test]
    fn shapley_cycle_has_the_known_unique_mixed_equilibrium() {
        let s = by_name("shapley-cycle").unwrap();
        assert!(s.game().is_symmetric(0.0));
        assert!(
            !s.game().is_zero_sum(1e-9),
            "the cycling regime is essentially non-zero-sum"
        );
        // Unique Nash: the uniform mix — bimatrix and symmetric alike.
        let eqs = s.equilibria();
        assert_eq!(eqs.len(), 1, "{eqs:?}");
        for &p in eqs[0].x.iter().chain(&eqs[0].y) {
            assert!((p - 1.0 / 3.0).abs() < 1e-12, "{eqs:?}");
        }
        let sym = s.symmetric_equilibria();
        assert_eq!(sym.len(), 1);
        assert!(sym[0].x.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-12));
        // The repelling-equilibrium certificate: the replicator's uniform
        // rest point is linearly unstable iff loss > win (Jacobian
        // eigenvalue real part (loss − win)/6 > 0) — the closed-form fact
        // the divergence panel leans on, checked for the canonical
        // parameters via the constructor's own validation.
        assert!(Scenario::shapley_cycle(1.0, 1.0 + 1e-9).is_ok());
    }

    #[test]
    fn known_equilibria_of_the_canonical_instances() {
        // The six classics, verified against closed forms.
        assert_eq!(by_name("prisoners-dilemma").unwrap().equilibria().len(), 1);
        let hd = by_name("hawk-dove").unwrap();
        assert_eq!(hd.equilibria().len(), 3);
        let hd_sym = hd.symmetric_equilibria();
        assert_eq!(hd_sym.len(), 1);
        assert!((hd_sym[0].x[0] - 0.5).abs() < 1e-12); // V/C = 1/2
        let rps = by_name("rock-paper-scissors").unwrap();
        let rps_eqs = rps.equilibria();
        assert_eq!(rps_eqs.len(), 1);
        assert!(rps_eqs[0].x.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-12));
        let mp = by_name("matching-pennies").unwrap();
        let mp_eqs = mp.equilibria();
        assert_eq!(mp_eqs.len(), 1);
        assert!((mp_eqs[0].x[0] - 0.5).abs() < 1e-12);
        assert!(mp.symmetric_equilibria().is_empty());
        let sh = by_name("stag-hunt").unwrap().symmetric_equilibria();
        assert_eq!(sh.len(), 3);
        assert!(sh.iter().any(|e| (e.x[0] - 0.75).abs() < 1e-12)); // h/s = 3/4
        assert_eq!(by_name("coordination").unwrap().symmetric_equilibria().len(), 7);
    }

    #[test]
    fn every_symmetric_equilibrium_passes_the_de_checker() {
        for s in registry() {
            for eq in s.symmetric_equilibria() {
                let gap = bimatrix_gap(s.game(), &eq.x, &eq.x).unwrap();
                assert!(gap <= 1e-9, "{}: gap {gap}", s.name());
            }
        }
    }

    #[test]
    fn zero_sum_scenarios_agree_with_the_lp_value() {
        for name in ["matching-pennies", "random-zero-sum"] {
            let s = by_name(name).unwrap();
            assert!(s.game().is_zero_sum(1e-12), "{name}");
            let sol = solve_zero_sum(s.game().row_matrix()).unwrap();
            // Every enumerated equilibrium earns exactly the LP value.
            for eq in s.equilibria() {
                assert!(
                    (eq.row_value - sol.value).abs() < 1e-7,
                    "{name}: {} vs {}",
                    eq.row_value,
                    sol.value
                );
            }
        }
    }

    #[test]
    fn k5_zero_sum_ensemble_cross_checks_enumeration_vs_lp() {
        // The k = 5 random zero-sum ensemble: support enumeration and the
        // simplex LP are independent solvers — every enumerated
        // equilibrium must earn exactly the LP value, and the LP's own
        // strategy pair must certify as a Nash profile.
        for seed in 0..12 {
            let s = Scenario::random_zero_sum(5, seed).unwrap();
            let sol = solve_zero_sum(s.game().row_matrix()).unwrap();
            let eqs = s.equilibria();
            assert!(!eqs.is_empty(), "seed {seed}: no enumerated equilibrium");
            for eq in &eqs {
                assert!(
                    (eq.row_value - sol.value).abs() < 1e-7,
                    "seed {seed}: {} vs LP {}",
                    eq.row_value,
                    sol.value
                );
            }
            let gap = crate::certify::bimatrix_gap(
                s.game(),
                &sol.row_strategy,
                &sol.col_strategy,
            )
            .unwrap();
            assert!(gap < 1e-7, "seed {seed}: LP profile gap {gap}");
        }
        // Wider ensembles are out of enumeration's reach; the LP alone
        // must still solve them, and its profile must certify.
        for k in [8, 16] {
            for seed in 0..64 {
                let s = Scenario::random_zero_sum(k, seed).unwrap();
                let sol = solve_zero_sum(s.game().row_matrix()).unwrap();
                let gap = crate::certify::bimatrix_gap(
                    s.game(),
                    &sol.row_strategy,
                    &sol.col_strategy,
                )
                .unwrap();
                assert!(gap < 1e-7, "k = {k}, seed {seed}: LP profile gap {gap}");
            }
        }
    }

    #[test]
    fn k5_symmetric_ensemble_equilibria_certify() {
        // The k = 5 random symmetric ensemble: enumeration must find at
        // least one symmetric equilibrium (Nash's theorem; random games
        // are nondegenerate a.s.), and everything it returns passes the
        // paper-side Definition 1.1 checker at ε ≤ 1e-9.
        for seed in 0..12 {
            let s = Scenario::random_symmetric(5, seed).unwrap();
            let sym = s.symmetric_equilibria();
            assert!(!sym.is_empty(), "seed {seed}: no symmetric equilibrium");
            for eq in &sym {
                let gap = bimatrix_gap(s.game(), &eq.x, &eq.x).unwrap();
                assert!(gap <= 1e-9, "seed {seed}: gap {gap}");
            }
        }
    }

    #[test]
    fn seeded_random_scenarios_are_reproducible() {
        let a = Scenario::random_symmetric(4, 7).unwrap();
        let b = Scenario::random_symmetric(4, 7).unwrap();
        assert_eq!(a.game(), b.game());
        assert!(a.game().is_symmetric(0.0));
        let c = Scenario::random_symmetric(4, 8).unwrap();
        assert_ne!(a.game(), c.game());
        assert!(Scenario::random_zero_sum(4, 7).unwrap().game().is_zero_sum(0.0));
    }

    #[test]
    fn dynamics_availability_tracks_symmetry() {
        assert!(by_name("hawk-dove").unwrap().dynamics(DynamicsRule::BestResponse).is_ok());
        assert_eq!(
            by_name("matching-pennies").unwrap().dynamics(DynamicsRule::Imitation),
            Err(SolverError::NotSymmetric)
        );
        // The new rules ride the same gate: any symmetric scenario takes
        // them, k-IGT additionally demands the two-action substrate.
        let shapley = by_name("shapley-cycle").unwrap();
        assert!(shapley.dynamics(DynamicsRule::PairwiseImitation).is_ok());
        assert!(shapley.dynamics(DynamicsRule::TwoWayImitation).is_ok());
        assert!(shapley
            .dynamics(DynamicsRule::SampledBestResponse { samples: 5 })
            .is_ok());
        assert!(shapley.dynamics(DynamicsRule::KIgt { levels: 5 }).is_err());
        assert!(by_name("prisoners-dilemma")
            .unwrap()
            .dynamics(DynamicsRule::KIgt { levels: 5 })
            .is_ok());
    }

    proptest::proptest! {
        /// The closed-form congestion equilibrium maximizes the exact
        /// potential over the whole simplex: no random profile beats it.
        #[test]
        fn prop_congestion_potential_is_maximized_at_the_equilibrium(
            weights in proptest::collection::vec(0.2..5.0f64, 2..6),
            masses in proptest::collection::vec(0.01..1.0f64, 6),
        ) {
            let x_star = Scenario::congestion_equilibrium(&weights);
            let best = Scenario::congestion_potential(&weights, &x_star);
            let k = weights.len();
            let total: f64 = masses[..k].iter().sum();
            let y: Vec<f64> = masses[..k].iter().map(|m| m / total).collect();
            let other = Scenario::congestion_potential(&weights, &y);
            proptest::prop_assert!(
                other <= best + 1e-9,
                "potential {other} at {y:?} beats maximizer {best} at {x_star:?}"
            );
            // And the closed form always certifies as an exact equilibrium.
            let game = Scenario::congestion(weights.clone()).unwrap();
            let gap = bimatrix_gap(game.game(), &x_star, &x_star).unwrap();
            proptest::prop_assert!(gap <= 1e-9, "{weights:?}: gap {gap}");
        }
    }
}
