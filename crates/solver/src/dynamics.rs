//! Game-playing population dynamics as `popgame_population` protocols.
//!
//! One well-mixed population of `n` agents, each holding a pure strategy
//! of a *symmetric* matrix game (or, for [`DynamicsRule::KIgt`], a
//! behavioural state of the paper's donation-game population). The
//! scheduler samples an ordered pair `(initiator, responder)` and applies
//! the revision rule:
//!
//! * **Best response** — switch to the best reply against the responder's
//!   strategy (sample-of-one best response, footnote 3 of the paper; ties
//!   break to the lowest index). Deterministic, one-way, tabulated and
//!   τ-leaped by the batched engine.
//! * **Logit / smoothed best response** — sample the new strategy from
//!   `softmax(η · u(·, responder))`. Randomized, but its per-pair outcome
//!   law is closed-form and count-independent, so it declares a
//!   [`pair_kernel`](EnumerableProtocol::pair_kernel) and τ-leaps.
//! * **Imitation** — copy the responder's strategy exactly when the
//!   responder's realized payoff in this encounter strictly beats the
//!   initiator's. Deterministic, one-way, tabulated.
//! * **Pairwise proportional imitation** — Schlag's proportional
//!   imitation: the initiator observes the responder's realized payoff
//!   from an *independent* encounter, compares it with its own realized
//!   payoff from another independent encounter, and copies the
//!   responder's strategy with probability proportional to the positive
//!   part of the difference. The comparison opponents are drawn from the
//!   population mixture, so the rule is **count-coupled**
//!   ([`EnumerableProtocol::kernel_depends_on_counts`]) — and its
//!   mean-field limit is *exactly* the replicator dynamics
//!   `ẋ = x ∘ (Ax − xᵀAx·1) / κ` (time in interactions per agent,
//!   `κ` = payoff span). No count-independent pairwise rule can achieve
//!   this: the replicator drift is quadratic in `x`, while every frozen
//!   pair kernel yields linear drift.
//! * **Two-way imitation** — *both* agents adopt the strategy that
//!   strictly out-earned the other in this encounter (ties keep both
//!   states). The workspace's canonical two-way protocol: deterministic,
//!   `is_one_way() == false`, both components tabulated.
//! * **Sampled best response** — the initiator redraws its strategy as
//!   the best reply to the *empirical mixture of `m` opponents sampled
//!   from the population* (the `m → ∞` limit is the classical
//!   best-response dynamics, which provably cycles on Shapley-style
//!   games). Count-coupled, randomized.
//! * **k-IGT** — the paper's Definition 2.1 dynamics over states
//!   `{AC, AD, GTFT level 1..k}` in the canonical
//!   `(α, β, γ) = (0.3, 0.2, 0.5)` population: a GTFT initiator
//!   increments its generosity level on meeting `AC`/`GTFT` and
//!   decrements on meeting `AD`; `AC`/`AD` never change. Deterministic,
//!   one-way, tabulated; its exact stationary reference is the Theorem
//!   2.7 law `π_j ∝ ((1−β)/β)^j` (see
//!   [`GameDynamics::reference_profiles`]).
//!
//! These are the pairwise-protocol forms of the textbook dynamics studied
//! for population protocols by Bournez et al. and
//! Chatzigiannakis–Spirakis; their mean-field rest points are measured
//! against the exact solver equilibria by the `popgame-report`
//! reproduction harness (REPORT's convergence matrix).

use crate::error::SolverError;
use crate::game::MatrixGame;
use popgame_population::batch::BatchedEngine;
use popgame_population::error::PopulationError;
use popgame_population::protocol::{
    write_static_kernels, EnumerableProtocol, KernelDeps, KernelLaws, Protocol,
};
use rand::Rng;

/// `AC` fraction of the canonical k-IGT population.
pub const KIGT_ALPHA: f64 = 0.3;
/// `AD` fraction of the canonical k-IGT population.
pub const KIGT_BETA: f64 = 0.2;
/// `GTFT` fraction of the canonical k-IGT population.
pub const KIGT_GAMMA: f64 = 1.0 - KIGT_ALPHA - KIGT_BETA;

/// Ceiling on [`DynamicsRule::SampledBestResponse`] sample counts: the
/// kernel enumerates all `C(m+K−1, K−1)` sample multisets per rebuild.
pub const MAX_BR_SAMPLES: usize = 10;

/// The revision rule applied on an interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynamicsRule {
    /// Best reply to the responder's strategy (lowest index on ties).
    BestResponse,
    /// Logit choice `∝ exp(η · u(·, responder))`.
    Logit {
        /// Inverse temperature: `η → ∞` recovers best response, `η = 0`
        /// uniform revision.
        eta: f64,
    },
    /// Copy the responder exactly when it out-earned the initiator in
    /// this encounter.
    Imitation,
    /// Schlag's pairwise proportional imitation against independently
    /// sampled encounter payoffs — replicator-exact in the mean-field
    /// limit. Count-coupled.
    PairwiseImitation,
    /// Both agents adopt the encounter's strictly higher-earning strategy
    /// (ties change nothing). The canonical two-way protocol.
    TwoWayImitation,
    /// Best reply to the empirical mixture of `samples` opponents drawn
    /// from the population — the sampled form of the classical
    /// best-response dynamics. Count-coupled.
    SampledBestResponse {
        /// Number of sampled opponents (`1..=`[`MAX_BR_SAMPLES`]).
        samples: usize,
    },
    /// The paper's k-IGT dynamics over `{AC, AD, GTFT×levels}` with the
    /// canonical `(α, β, γ)` composition.
    KIgt {
        /// Generosity-grid size `k ≥ 2` (paper's `G = {g_1, …, g_k}`).
        levels: usize,
    },
}

impl DynamicsRule {
    /// Stable lowercase label used by registries, reports, and CLIs.
    pub fn label(&self) -> &'static str {
        match self {
            DynamicsRule::BestResponse => "best-response",
            DynamicsRule::Logit { .. } => "logit",
            DynamicsRule::Imitation => "imitation",
            DynamicsRule::PairwiseImitation => "pairwise-imitation",
            DynamicsRule::TwoWayImitation => "imitation-two-way",
            DynamicsRule::SampledBestResponse { .. } => "br-sample",
            DynamicsRule::KIgt { .. } => "k-igt",
        }
    }

    /// Every canonical rule instance, as served by `popgamed` and swept by
    /// the report harness (logit at its default `η = 2`, `br-sample` at
    /// `m = 5`, `k-igt` on a 5-level grid).
    pub fn canonical_all() -> Vec<DynamicsRule> {
        CANONICAL_RULES.to_vec()
    }

    /// The canonical rule whose [`label`](Self::label) is `label`, with
    /// logit at inverse temperature `eta`; `None` for an unknown label.
    pub fn from_label(label: &str, eta: f64) -> Option<DynamicsRule> {
        let rule = CANONICAL_RULES.into_iter().find(|rule| rule.label() == label)?;
        Some(match rule {
            DynamicsRule::Logit { .. } => DynamicsRule::Logit { eta },
            rule => rule,
        })
    }
}

/// [`DynamicsRule::canonical_all`], in order.
const CANONICAL_RULES: [DynamicsRule; 7] = [
    DynamicsRule::BestResponse,
    DynamicsRule::Logit { eta: 2.0 },
    DynamicsRule::Imitation,
    DynamicsRule::PairwiseImitation,
    DynamicsRule::TwoWayImitation,
    DynamicsRule::SampledBestResponse { samples: 5 },
    DynamicsRule::KIgt { levels: 5 },
];

/// A symmetric matrix game turned into a pairwise revision protocol.
///
/// # Example
///
/// ```
/// use popgame_solver::dynamics::{DynamicsRule, GameDynamics};
/// use popgame_solver::game::MatrixGame;
/// use popgame_population::batch::BatchedEngine;
/// use popgame_util::rng::rng_from_seed;
///
/// let rps = MatrixGame::symmetric(vec![
///     vec![0.0, -1.0, 1.0],
///     vec![1.0, 0.0, -1.0],
///     vec![-1.0, 1.0, 0.0],
/// ]).unwrap();
/// let protocol = GameDynamics::new(&rps, DynamicsRule::BestResponse).unwrap();
/// let mut engine = BatchedEngine::from_counts(protocol, vec![500, 300, 200]).unwrap();
/// let mut rng = rng_from_seed(9);
/// engine.run_batched(50_000, 32, &mut rng).unwrap();
/// let freq = engine.frequencies();
/// // Sample-of-one best response contracts toward the uniform equilibrium.
/// assert!(freq.iter().all(|&f| (f - 1.0 / 3.0).abs() < 0.1), "{freq:?}");
/// ```
#[derive(Debug, Clone)]
pub struct GameDynamics {
    /// Row payoffs `u[i][j]` of the symmetric game.
    payoff: Vec<Vec<f64>>,
    rule: DynamicsRule,
    /// `best_reply[j]` — precomputed for [`DynamicsRule::BestResponse`].
    best_reply: Vec<u8>,
    /// `logit_cdf[j]` — cumulative softmax weights per responder state,
    /// precomputed for [`DynamicsRule::Logit`]. The pmf the τ-leap kernel
    /// declares is exactly the adjacent-difference of this CDF, so
    /// per-interaction sampling and kernel leaping follow the same law.
    logit_cdf: Vec<Vec<f64>>,
    /// Payoff span `max u − min u`, the proportional-imitation normalizer
    /// `κ` (1 for constant games, where the rule is a no-op anyway).
    span: f64,
    /// Pairwise-imitation gain table, precomputed at construction:
    /// `switch_gain[(a * k + b) * k² + i * k + j] = (u(j, a) − u(i, b))₊`,
    /// the comparison gain of a strategy-`i` initiator observing `j` when
    /// the two comparison opponents play `a` and `b`. `k⁴` entries, the
    /// size of one full refresh's work. Empty for every other rule.
    switch_gain: Vec<f64>,
    /// Flattened sampled-BR composition table, precomputed at
    /// construction: row `c` of `br_comp_counts` (stride `k`) is a
    /// composition of `samples` opponents into strategies,
    /// `br_comp_coef[c]` its multinomial coefficient, and
    /// `br_comp_br[c]` the best reply to that empirical sample. Both the
    /// coefficient and the argmax are frequency-independent, so each
    /// kernel rebuild only evaluates `coef · Π freq[t]^c_t` per row
    /// instead of re-running the composition recursion. Empty for every
    /// other rule.
    br_comp_counts: Vec<u8>,
    br_comp_coef: Vec<f64>,
    br_comp_br: Vec<u8>,
}

impl PartialEq for GameDynamics {
    fn eq(&self, other: &Self) -> bool {
        // The precomputed tables follow from the game and the rule: two
        // dynamics are equal when they encode the same game under the
        // same rule.
        self.payoff == other.payoff && self.rule == other.rule
    }
}

impl GameDynamics {
    /// Builds the protocol for a symmetric game under the given rule.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::NotSymmetric`] unless `B = Aᵀ` within
    /// `1e-9` (one-population dynamics need a single payoff perspective),
    /// and [`SolverError::InvalidGame`] when the state space exceeds 256
    /// (states are `u8`), `η` is non-finite, `samples` is outside
    /// `1..=`[`MAX_BR_SAMPLES`], or a k-IGT grid is degenerate
    /// (`levels < 2`) or requested on a game other than the two-action
    /// donation substrate.
    pub fn new(game: &MatrixGame, rule: DynamicsRule) -> Result<Self, SolverError> {
        if !game.is_symmetric(1e-9) {
            return Err(SolverError::NotSymmetric);
        }
        let k = game.k();
        if k > u8::MAX as usize + 1 {
            return Err(SolverError::InvalidGame {
                reason: format!("{k} strategies exceed the u8 state space"),
            });
        }
        match rule {
            DynamicsRule::Logit { eta } if !eta.is_finite() => {
                return Err(SolverError::InvalidGame {
                    reason: format!("logit eta must be finite, got {eta}"),
                });
            }
            DynamicsRule::SampledBestResponse { samples }
                if samples == 0 || samples > MAX_BR_SAMPLES =>
            {
                return Err(SolverError::InvalidGame {
                    reason: format!(
                        "br-sample needs 1..={MAX_BR_SAMPLES} samples, got {samples}"
                    ),
                });
            }
            DynamicsRule::KIgt { levels } if !(2..=250).contains(&levels) => {
                return Err(SolverError::InvalidGame {
                    reason: format!("k-igt needs a 2..=250 level grid, got {levels}"),
                });
            }
            DynamicsRule::KIgt { .. } => {
                // The walk ignores payoffs, so the gate is purely
                // semantic: only the donation game `[[b−c, −c], [b, 0]]`
                // (b > 0 > −c) is the Definition 2.1 substrate — accepting
                // any 2×2 game would report the Theorem 2.7 reference as
                // if it were meaningful there.
                let is_donation = k == 2 && {
                    let (bc, mc, b, z) =
                        (game.row(0, 0), game.row(0, 1), game.row(1, 0), game.row(1, 1));
                    z == 0.0 && b > 0.0 && mc < 0.0 && (bc - (b + mc)).abs() <= 1e-9
                };
                if !is_donation {
                    return Err(SolverError::InvalidGame {
                        reason: "k-igt tunes GTFT generosity against the donation game \
                                 [[b-c, -c], [b, 0]]; this game is not one"
                            .into(),
                    });
                }
            }
            _ => {}
        }
        let payoff = game.row_matrix().to_vec();
        let best_reply = (0..k)
            .map(|j| {
                (0..k)
                    .max_by(|&a, &b| {
                        payoff[a][j]
                            .partial_cmp(&payoff[b][j])
                            .unwrap_or(std::cmp::Ordering::Equal)
                            // Ties break to the lowest index.
                            .then(b.cmp(&a))
                    })
                    .expect("k >= 1") as u8
            })
            .collect();
        let logit_cdf = match rule {
            DynamicsRule::Logit { eta } => (0..k)
                .map(|j| {
                    // Max-shifted softmax, accumulated to a CDF.
                    let max = (0..k)
                        .map(|i| payoff[i][j])
                        .fold(f64::NEG_INFINITY, f64::max);
                    let mut acc = 0.0;
                    let mut cdf: Vec<f64> = (0..k)
                        .map(|i| {
                            acc += (eta * (payoff[i][j] - max)).exp();
                            acc
                        })
                        .collect();
                    let total = acc;
                    for c in &mut cdf {
                        *c /= total;
                    }
                    cdf
                })
                .collect(),
            _ => Vec::new(),
        };
        let max = payoff.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = payoff.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let span = if max > min { max - min } else { 1.0 };
        let switch_gain = match rule {
            DynamicsRule::PairwiseImitation => {
                let mut gain = Vec::with_capacity(k * k * k * k);
                for a in 0..k {
                    for b in 0..k {
                        for i in 0..k {
                            gain.extend((0..k).map(|j| (payoff[j][a] - payoff[i][b]).max(0.0)));
                        }
                    }
                }
                gain
            }
            _ => Vec::new(),
        };
        let (br_comp_counts, br_comp_coef, br_comp_br) = match rule {
            DynamicsRule::SampledBestResponse { samples } => {
                build_br_comp_table(&payoff, samples)
            }
            _ => (Vec::new(), Vec::new(), Vec::new()),
        };
        Ok(GameDynamics {
            payoff,
            rule,
            best_reply,
            logit_cdf,
            span,
            switch_gain,
            br_comp_counts,
            br_comp_coef,
            br_comp_br,
        })
    }

    /// The revision rule.
    pub fn rule(&self) -> DynamicsRule {
        self.rule
    }

    /// Number of pure strategies of the underlying game (for
    /// [`DynamicsRule::KIgt`] this is 2, while the protocol's *state*
    /// count is `levels + 2`; see
    /// [`num_states`](EnumerableProtocol::num_states)).
    pub fn k(&self) -> usize {
        self.payoff.len()
    }

    /// The payoff-span normalizer `κ` of the proportional-imitation rule:
    /// the mean-field replicator time unit is `κ` interactions per agent.
    pub fn payoff_span(&self) -> f64 {
        self.span
    }

    /// The profile every harness seeds runs from: uniform over strategies,
    /// except k-IGT, which starts at the paper's
    /// `(α, β, γ·uniform-over-levels)` composition (types are immutable,
    /// so the composition *is* part of the dynamics).
    pub fn initial_profile(&self) -> Vec<f64> {
        match self.rule {
            DynamicsRule::KIgt { levels } => {
                let mut profile = vec![KIGT_ALPHA, KIGT_BETA];
                profile.extend(std::iter::repeat_n(KIGT_GAMMA / levels as f64, levels));
                profile
            }
            _ => {
                let k = self.num_states();
                vec![1.0 / k as f64; k]
            }
        }
    }

    /// Exact reference profiles the dynamics should concentrate on, when
    /// the rule carries its own ground truth instead of the game's
    /// equilibria: for [`DynamicsRule::KIgt`] the Theorem 2.7 stationary
    /// law — `AC`/`AD` frozen at `(α, β)` and GTFT mass split over levels
    /// as `π_j ∝ λ^j` with `λ = (1−β)/β` (each agent's generosity level
    /// is a reflecting birth–death walk with up-rate `1−β`, down-rate
    /// `β`). `None` for every game-payoff rule, whose references are the
    /// solver's symmetric equilibria.
    pub fn reference_profiles(&self) -> Option<Vec<Vec<f64>>> {
        match self.rule {
            DynamicsRule::KIgt { levels } => {
                let lambda = (1.0 - KIGT_BETA) / KIGT_BETA;
                let weights: Vec<f64> = (0..levels).map(|j| lambda.powi(j as i32)).collect();
                let total: f64 = weights.iter().sum();
                let mut profile = vec![KIGT_ALPHA, KIGT_BETA];
                profile.extend(weights.iter().map(|w| KIGT_GAMMA * w / total));
                Some(vec![profile])
            }
            _ => None,
        }
    }

    /// [`Self::sampled_br_law_fast`] by a fresh composition recursion per
    /// call: its test oracle. The two agree up to floating-point
    /// reassociation.
    #[cfg(test)]
    fn sampled_br_law(&self, freq: &[f64], samples: usize) -> Vec<f64> {
        let k = self.payoff.len();
        let mut rho = vec![0.0; k];
        let mut factorial = vec![1.0f64; samples + 1];
        for m in 1..=samples {
            factorial[m] = factorial[m - 1] * m as f64;
        }
        let mut counts = vec![0usize; k];
        // Depth-first enumeration of all compositions of `samples` into
        // `k` parts.
        fn recurse(
            dyn_: &GameDynamics,
            freq: &[f64],
            factorial: &[f64],
            counts: &mut Vec<usize>,
            state: usize,
            remaining: usize,
            rho: &mut Vec<f64>,
        ) {
            let k = counts.len();
            if state + 1 == k {
                counts[state] = remaining;
                let samples = factorial.len() - 1;
                let mut prob = factorial[samples];
                for (t, &c) in counts.iter().enumerate() {
                    if c > 0 {
                        prob *= freq[t].powi(c as i32) / factorial[c];
                    }
                }
                if prob > 0.0 {
                    let br = (0..k)
                        .max_by(|&a, &b| {
                            let score = |s: usize| {
                                counts
                                    .iter()
                                    .enumerate()
                                    .map(|(t, &c)| c as f64 * dyn_.payoff[s][t])
                                    .sum::<f64>()
                            };
                            score(a)
                                .partial_cmp(&score(b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then(b.cmp(&a))
                        })
                        .expect("k >= 1");
                    rho[br] += prob;
                }
                counts[state] = 0;
                return;
            }
            for c in 0..=remaining {
                counts[state] = c;
                recurse(dyn_, freq, factorial, counts, state + 1, remaining - c, rho);
            }
            counts[state] = 0;
        }
        recurse(self, freq, &factorial, &mut counts, 0, samples, &mut rho);
        rho
    }

    /// The sampled-best-response choice law at `freq`: the distribution of
    /// `argmax_a Σ_t c_t · u(a, t)` over multiset samples `c` of size
    /// `samples` drawn iid from `freq` (ties to the lowest index).
    ///
    /// The multinomial coefficient and the argmax best reply of every
    /// composition were precomputed at construction
    /// ([`build_br_comp_table`]), so each kernel rebuild only
    /// evaluates the frequency-dependent product `coef · Π_t freq[t]^{c_t}`
    /// per composition row. The powers come from a table refilled per
    /// call with `freq[t]^c` for every `c ≤ samples`, by the
    /// square-and-multiply of [`powi_bits`]: the bits of the `powi` calls
    /// the rows would make, computed `k·samples` times instead of once per
    /// row and state, and without a libcall each. `freq[t]⁰ = 1` and a
    /// zero row adds `+0`, so neither needs a branch. The power table
    /// and then the law (length `k`, returned) are laid out in `scratch`,
    /// which is caller-owned, so a warm call allocates nothing.
    fn sampled_br_law_fast<'s>(
        &self,
        freq: &[f64],
        samples: usize,
        scratch: &'s mut Vec<f64>,
    ) -> &'s [f64] {
        let k = self.payoff.len();
        let stride = samples + 1;
        scratch.clear();
        for &f in freq {
            scratch.push(1.0);
            scratch.extend((1..=samples as u32).map(|c| powi_bits(f, c)));
        }
        scratch.resize(k * stride + k, 0.0);
        let (pows, rho) = scratch.split_at_mut(k * stride);
        for (row, (&coef, &br)) in
            self.br_comp_coef.iter().zip(&self.br_comp_br).enumerate()
        {
            let counts = &self.br_comp_counts[row * k..(row + 1) * k];
            let mut prob = coef;
            for (t, &c) in counts.iter().enumerate() {
                prob *= pows[t * stride + c as usize];
            }
            rho[br as usize] += prob;
        }
        rho
    }

    /// Writes the pairwise-imitation law of every cell flagged in `cells`
    /// into `laws`: a strategy-`i` initiator observing `j` switches with
    /// the Schlag probability `E[(u(j, X) − u(i, Y))₊] / κ`, the
    /// comparison opponents `X, Y ~ freq` iid.
    ///
    /// All switch probabilities are summed in one pass over the
    /// comparison-opponent pairs `(a, b)` and the gain table, into one
    /// accumulator per cell in `laws.scratch`, from `0.0` and in `(a, b)`
    /// order. A pair with no mass or no gain adds `fa · fb · 0 = ±0`,
    /// which leaves the sum's bits where skipping it would. Every cell is
    /// summed, flagged or not, so the pass has no branch.
    fn switch_laws(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
        let k = self.payoff.len();
        let expect = &mut laws.scratch;
        expect.clear();
        expect.resize(k * k, 0.0);
        let mut gains = self.switch_gain.chunks_exact(k * k);
        for &fa in freq {
            for &fb in freq {
                let w = fa * fb;
                let gains = gains.next().expect("the gain table has k² rows");
                for (sum, &gain) in expect.iter_mut().zip(gains) {
                    *sum += w * gain;
                }
            }
        }
        for i in 0..k {
            for j in 0..k {
                if !cells[i * k + j] {
                    continue;
                }
                if i == j {
                    // Copying one's own strategy is a no-op regardless of
                    // the sampled payoffs.
                    laws.entries.push(((i, j), 1.0));
                } else {
                    let p = (expect[i * k + j] / self.span).clamp(0.0, 1.0);
                    laws.entries.push(((j, j), p));
                    laws.entries.push(((i, j), 1.0 - p));
                }
                laws.ends.push(laws.entries.len());
            }
        }
    }

    /// The k-IGT level walk: `AC`(0) and `AD`(1) are immutable; a GTFT
    /// initiator (state `2 + level`) decrements on meeting `AD` and
    /// increments otherwise, saturating at the grid edges.
    fn kigt_update(&self, levels: usize, i: usize, j: usize) -> usize {
        if i < 2 {
            return i;
        }
        let level = i - 2;
        let new_level = if j == 1 {
            level.saturating_sub(1)
        } else {
            (level + 1).min(levels - 1)
        };
        new_level + 2
    }
}

/// `x.powi(c)` bit for bit, inline: the square-and-multiply the `powi`
/// libcall runs (`__powidf2`), rounding after every product as it does.
#[inline]
fn powi_bits(mut x: f64, mut c: u32) -> f64 {
    let mut power = 1.0;
    loop {
        if c & 1 == 1 {
            power *= x;
        }
        c >>= 1;
        if c == 0 {
            return power;
        }
        x *= x;
    }
}

/// Enumerates every composition of `samples` opponents into the `k`
/// strategies of `payoff`, depth first, and precomputes the
/// frequency-*independent* part of each term: the multinomial coefficient
/// `samples! / Π c_t!` and the best reply to the empirical sample (ties
/// to the lowest index). Returns `(counts, coef, br)` with `counts`
/// flattened at stride `k`.
fn build_br_comp_table(payoff: &[Vec<f64>], samples: usize) -> (Vec<u8>, Vec<f64>, Vec<u8>) {
    let k = payoff.len();
    let mut factorial = vec![1.0f64; samples + 1];
    for m in 1..=samples {
        factorial[m] = factorial[m - 1] * m as f64;
    }
    let mut counts = vec![0usize; k];
    let mut out: (Vec<u8>, Vec<f64>, Vec<u8>) = (Vec::new(), Vec::new(), Vec::new());
    fn visit(
        payoff: &[Vec<f64>],
        factorial: &[f64],
        counts: &mut Vec<usize>,
        state: usize,
        remaining: usize,
        out: &mut (Vec<u8>, Vec<f64>, Vec<u8>),
    ) {
        let k = counts.len();
        if state + 1 == k {
            counts[state] = remaining;
            let samples = factorial.len() - 1;
            let mut coef = factorial[samples];
            for &c in counts.iter() {
                if c > 1 {
                    coef /= factorial[c];
                }
            }
            let br = (0..k)
                .max_by(|&a, &b| {
                    let score = |s: usize| {
                        counts
                            .iter()
                            .enumerate()
                            .map(|(t, &c)| c as f64 * payoff[s][t])
                            .sum::<f64>()
                    };
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
                .expect("k >= 1");
            out.0.extend(counts.iter().map(|&c| c as u8));
            out.1.push(coef);
            out.2.push(br as u8);
            counts[state] = 0;
            return;
        }
        for c in 0..=remaining {
            counts[state] = c;
            visit(payoff, factorial, counts, state + 1, remaining - c, out);
        }
        counts[state] = 0;
    }
    visit(payoff, &factorial, &mut counts, 0, samples, &mut out);
    out
}

impl Protocol for GameDynamics {
    type State = u8;

    fn interact<R: Rng + ?Sized>(&self, initiator: u8, responder: u8, rng: &mut R) -> (u8, u8) {
        let (i, j) = (initiator as usize, responder as usize);
        match self.rule {
            DynamicsRule::BestResponse => (self.best_reply[j], responder),
            DynamicsRule::Logit { .. } => {
                let cdf = &self.logit_cdf[j];
                let u: f64 = rng.gen();
                let new = cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1) as u8;
                (new, responder)
            }
            DynamicsRule::Imitation => {
                if self.payoff[j][i] > self.payoff[i][j] {
                    (responder, responder)
                } else {
                    (initiator, responder)
                }
            }
            DynamicsRule::TwoWayImitation => {
                // Both agents adopt the encounter's strictly higher earner.
                if self.payoff[j][i] > self.payoff[i][j] {
                    (responder, responder)
                } else if self.payoff[i][j] > self.payoff[j][i] {
                    (initiator, initiator)
                } else {
                    (initiator, responder)
                }
            }
            DynamicsRule::KIgt { levels } => {
                (self.kigt_update(levels, i, j) as u8, responder)
            }
            DynamicsRule::PairwiseImitation | DynamicsRule::SampledBestResponse { .. } => {
                unreachable!(
                    "count-coupled dynamics ({}) run through pair_kernels_at_into on \
                     BatchedEngine, never through interact",
                    self.rule.label()
                )
            }
        }
    }

    fn is_one_way(&self) -> bool {
        !matches!(self.rule, DynamicsRule::TwoWayImitation)
    }

    fn has_random_transitions(&self) -> bool {
        matches!(
            self.rule,
            DynamicsRule::Logit { .. }
                | DynamicsRule::PairwiseImitation
                | DynamicsRule::SampledBestResponse { .. }
        )
    }
}

impl EnumerableProtocol for GameDynamics {
    fn num_states(&self) -> usize {
        match self.rule {
            DynamicsRule::KIgt { levels } => levels + 2,
            _ => self.k(),
        }
    }

    fn state_index(&self, state: u8) -> usize {
        state as usize
    }

    fn state_at(&self, index: usize) -> u8 {
        index as u8
    }

    fn pair_kernel(&self, _i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
        match self.rule {
            // Logit's outcome law is (softmax(η·u(·, j)), j) — closed
            // form, count-independent, hence τ-leapable. The pmf is the
            // adjacent-difference of the CDF `interact` samples from,
            // so both execution paths share one law bit-for-bit.
            DynamicsRule::Logit { .. } => {
                let cdf = &self.logit_cdf[j];
                let mut prev = 0.0;
                Some(
                    cdf.iter()
                        .enumerate()
                        .map(|(t, &c)| {
                            let p = c - prev;
                            prev = c;
                            ((t, j), p)
                        })
                        .collect(),
                )
            }
            // Deterministic rules are tabulated directly by the engine;
            // count-coupled rules declare their law via
            // pair_kernels_at_into.
            _ => None,
        }
    }

    fn kernel_depends_on_counts(&self) -> bool {
        matches!(
            self.rule,
            DynamicsRule::PairwiseImitation | DynamicsRule::SampledBestResponse { .. }
        )
    }

    fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
        let k = self.num_states();
        match self.rule {
            DynamicsRule::PairwiseImitation => self.switch_laws(freq, cells, laws),
            DynamicsRule::SampledBestResponse { samples } => {
                // The choice law reads neither agent's state: one
                // evaluation serves every cell.
                let rho = self.sampled_br_law_fast(freq, samples, &mut laws.scratch);
                for flagged in cells.chunks_exact(k) {
                    for (j, _) in flagged.iter().enumerate().filter(|&(_, &f)| f) {
                        laws.entries.extend(rho.iter().enumerate().map(|(a, &p)| ((a, j), p)));
                        laws.ends.push(laws.entries.len());
                    }
                }
            }
            _ => write_static_kernels(self, cells, laws),
        }
    }

    fn pair_kernel_deps(&self, i: usize, j: usize) -> KernelDeps {
        match self.rule {
            // A diagonal pairwise-imitation cell is an unconditional
            // no-op: its law never reads the counts, so the engine's
            // incremental refresh can skip it forever.
            DynamicsRule::PairwiseImitation if i == j => KernelDeps::None,
            // Off-diagonal pairwise imitation integrates over freq ⊗ freq
            // and the sampled-BR law sums over full opponent samples —
            // every state's frequency is read.
            _ => KernelDeps::All,
        }
    }
}

/// Deterministically rounds a mixed profile to integer counts summing to
/// `n` (largest-remainder apportionment; ties to the lowest index).
///
/// # Errors
///
/// Returns [`SolverError::InvalidProfile`] when `profile` is not a pmf.
pub fn profile_counts(profile: &[f64], n: u64) -> Result<Vec<u64>, SolverError> {
    if profile.is_empty() {
        return Err(SolverError::InvalidProfile {
            reason: "empty profile".into(),
        });
    }
    let total: f64 = profile.iter().sum();
    if profile.iter().any(|p| !p.is_finite() || *p < 0.0) || (total - 1.0).abs() > 1e-6 {
        return Err(SolverError::InvalidProfile {
            reason: "profile must be a pmf".into(),
        });
    }
    // Normalize before flooring so float drift within the 1e-6 sum
    // tolerance cannot push Σ floor(p·n) past n at large n.
    let mut counts: Vec<u64> = profile
        .iter()
        .map(|p| (p / total * n as f64).floor() as u64)
        .collect();
    let mut assigned: u64 = counts.iter().sum();
    // Shave any residual over-assignment (at most a few rounding units)
    // off the largest counts before distributing the remainder.
    while assigned > n {
        let largest = (0..counts.len())
            .max_by_key(|&i| counts[i])
            .expect("profile is non-empty");
        counts[largest] -= 1;
        assigned -= 1;
    }
    // Distribute the leftover units by descending fractional part.
    let mut order: Vec<usize> = (0..profile.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = profile[a] / total * n as f64 - counts[a] as f64;
        let fb = profile[b] / total * n as f64 - counts[b] as f64;
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    for idx in 0..(n - assigned) as usize {
        counts[order[idx % order.len()]] += 1;
    }
    Ok(counts)
}

/// Builds a [`BatchedEngine`] over the dynamics with `n` agents seeded at
/// the rounded `profile`.
///
/// # Errors
///
/// Returns [`SolverError::InvalidProfile`] when `profile` is not a pmf or
/// when engine construction rejects the counts (dimension mismatch,
/// `n < 2`).
pub fn engine_from_profile(
    dynamics: GameDynamics,
    profile: &[f64],
    n: u64,
) -> Result<BatchedEngine<GameDynamics>, SolverError> {
    let counts = profile_counts(profile, n)?;
    BatchedEngine::from_counts(dynamics, counts).map_err(|e: PopulationError| {
        SolverError::InvalidProfile {
            reason: e.to_string(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_population::batch::LeapLaw;
    use popgame_util::rng::{rng_from_seed, stream_rng};

    fn rps() -> MatrixGame {
        MatrixGame::symmetric(vec![
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    fn hawk_dove() -> MatrixGame {
        MatrixGame::symmetric(vec![vec![-1.0, 2.0], vec![0.0, 1.0]]).unwrap()
    }

    /// The law of cell `(i, j)` at `freq`, as the engine reads it.
    fn cell_law(d: &GameDynamics, i: usize, j: usize, freq: &[f64]) -> Vec<((usize, usize), f64)> {
        let k = d.num_states();
        let mut cells = vec![false; k * k];
        cells[i * k + j] = true;
        let mut laws = KernelLaws::default();
        d.pair_kernels_at_into(freq, &cells, &mut laws);
        laws.entries
    }

    /// The law a fresh engine at `freq` starts from: every cell's law in
    /// one call, checked and classified.
    fn fresh_law(d: &GameDynamics, freq: &[f64]) -> LeapLaw {
        let k = d.num_states();
        let mut laws = KernelLaws::default();
        d.pair_kernels_at_into(freq, &vec![true; k * k], &mut laws);
        LeapLaw::from_laws(k, &laws).unwrap().expect("every cell stated")
    }

    #[test]
    fn asymmetric_games_are_rejected() {
        let mp = MatrixGame::zero_sum(vec![vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        assert_eq!(
            GameDynamics::new(&mp, DynamicsRule::BestResponse).unwrap_err(),
            SolverError::NotSymmetric
        );
        assert!(GameDynamics::new(&rps(), DynamicsRule::Logit { eta: f64::NAN }).is_err());
    }

    #[test]
    fn rule_parameters_are_validated() {
        assert!(GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse { samples: 0 }
        )
        .is_err());
        assert!(GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse {
                samples: MAX_BR_SAMPLES + 1
            }
        )
        .is_err());
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        assert!(GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 1 }).is_err());
        // k-IGT needs the donation substrate itself — other games,
        // including other 2×2 games, are rejected, since the Theorem 2.7
        // reference would be meaningless for them.
        assert!(GameDynamics::new(&rps(), DynamicsRule::KIgt { levels: 5 }).is_err());
        assert!(GameDynamics::new(&hawk_dove(), DynamicsRule::KIgt { levels: 5 }).is_err());
        assert!(GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 5 }).is_ok());
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<&str> = DynamicsRule::canonical_all()
            .iter()
            .map(DynamicsRule::label)
            .collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
        assert!(labels.contains(&"pairwise-imitation"));
        assert!(labels.contains(&"imitation-two-way"));
        assert!(labels.contains(&"k-igt"));
    }

    #[test]
    fn best_response_tables_match_the_game() {
        let d = GameDynamics::new(&rps(), DynamicsRule::BestResponse).unwrap();
        let mut rng = rng_from_seed(0);
        // BR(R) = P, BR(P) = S, BR(S) = R.
        assert_eq!(d.interact(0, 0, &mut rng), (1, 0));
        assert_eq!(d.interact(2, 1, &mut rng), (2, 1));
        assert_eq!(d.interact(1, 2, &mut rng), (0, 2));
        assert!(d.is_one_way());
        assert!(!d.has_random_transitions());
        // Hawk–Dove anti-coordination: BR(H) = D, BR(D) = H.
        let hd = GameDynamics::new(&hawk_dove(), DynamicsRule::BestResponse).unwrap();
        assert_eq!(hd.interact(0, 0, &mut rng), (1, 0));
        assert_eq!(hd.interact(1, 1, &mut rng), (0, 1));
    }

    #[test]
    fn imitation_copies_only_strict_winners() {
        // Donation game: D out-earns C in mixed encounters.
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::Imitation).unwrap();
        let mut rng = rng_from_seed(0);
        // (C, D): u(D, C) = 2 > u(C, D) = −1 ⟹ C copies D.
        assert_eq!(d.interact(0, 1, &mut rng), (1, 1));
        // (D, C): u(C, D) = −1 < u(D, C) = 2 ⟹ D keeps.
        assert_eq!(d.interact(1, 0, &mut rng), (1, 0));
        // Equal payoffs (C, C): keep.
        assert_eq!(d.interact(0, 0, &mut rng), (0, 0));
    }

    #[test]
    fn two_way_imitation_updates_both_agents() {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::TwoWayImitation).unwrap();
        assert!(!d.is_one_way());
        assert!(!d.has_random_transitions());
        let mut rng = rng_from_seed(0);
        // (C, D): D out-earns C, so the *initiator* converts: both end D.
        assert_eq!(d.interact(0, 1, &mut rng), (1, 1));
        // (D, C): same encounter, other orientation — the *responder*
        // converts: both end D. The two-way rule is orientation-covariant.
        assert_eq!(d.interact(1, 0, &mut rng), (1, 1));
        // Ties change nothing.
        assert_eq!(d.interact(0, 0, &mut rng), (0, 0));
        // The batched engine tabulates both components.
        use popgame_population::batch::TransitionTable;
        let table = TransitionTable::build(&d).unwrap().expect("deterministic");
        assert_eq!(table.apply(0, 1), (1, 1));
        assert_eq!(table.apply(1, 0), (1, 1));
        // All-defect is absorbing under two-way imitation on the PD.
        let mut engine = BatchedEngine::from_counts(d, vec![300, 300]).unwrap();
        let mut rng = rng_from_seed(5);
        engine.run_batched(20_000, 32, &mut rng).unwrap();
        assert_eq!(engine.counts(), &[0, 600], "defection sweeps the population");
    }

    #[test]
    fn logit_distribution_matches_softmax() {
        let eta = 1.5;
        let d = GameDynamics::new(&hawk_dove(), DynamicsRule::Logit { eta }).unwrap();
        assert!(d.has_random_transitions());
        let mut rng = rng_from_seed(7);
        let reps = 200_000;
        let mut hawks = 0u64;
        for _ in 0..reps {
            if d.interact(1, 1, &mut rng).0 == 0 {
                hawks += 1;
            }
        }
        // Against D: u(H, D) = 2, u(D, D) = 1 ⟹ P(H) = e^{1.5·2}/(e^{1.5·2}+e^{1.5}).
        let expect = (eta * 2.0).exp() / ((eta * 2.0).exp() + eta.exp());
        let got = hawks as f64 / reps as f64;
        assert!((got - expect).abs() < 0.005, "{got} vs {expect}");
    }

    #[test]
    fn logit_eta_zero_is_uniform_revision() {
        let d = GameDynamics::new(&rps(), DynamicsRule::Logit { eta: 0.0 }).unwrap();
        let mut rng = rng_from_seed(11);
        let mut counts = [0u64; 3];
        for _ in 0..90_000 {
            counts[d.interact(0, 2, &mut rng).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 90_000.0 - 1.0 / 3.0).abs() < 0.01);
        }
    }

    #[test]
    fn pairwise_imitation_kernel_is_the_schlag_law() {
        // Hawk-dove, freq (0.5, 0.5), span = 2 − (−1) = 3. Switch prob for
        // (D → H): E[(u(H,·) − u(D,·))₊]/3 with both opponents uniform:
        // pairs (u_H, u_D) ∈ {−1,2}×{0,1} each w.p. 1/4 →
        // positive diffs: (2−0)=2, (2−1)=1 → E = 3/4 → p = 1/4.
        let d = GameDynamics::new(&hawk_dove(), DynamicsRule::PairwiseImitation).unwrap();
        assert!(d.kernel_depends_on_counts());
        assert!(d.has_random_transitions());
        assert_eq!(d.payoff_span(), 3.0);
        let freq = [0.5, 0.5];
        let cell = cell_law(&d, 1, 0, &freq);
        let switch = cell
            .iter()
            .find(|&&((a, _), _)| a == 0)
            .map(|&(_, p)| p)
            .unwrap();
        assert!((switch - 0.25).abs() < 1e-12, "{switch}");
        // Total mass 1; self-pairs are exact no-ops.
        let total: f64 = cell.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(cell_law(&d, 1, 1, &freq), vec![((1, 1), 1.0)]);
        // Static kernel declines (the law needs the counts).
        assert!(d.pair_kernel(1, 0).is_none());
    }

    #[test]
    fn branchless_switch_prob_matches_the_skipping_sum_bitwise() {
        // The same sum with the zero-mass and no-gain pairs skipped: the
        // ±0 terms the branchless loop adds must leave every bit in place,
        // including at extinct strategies.
        let game = crate::scenarios::by_name("random-symmetric-5").unwrap();
        let d = GameDynamics::new(game.game(), DynamicsRule::PairwiseImitation).unwrap();
        let mut rng = rng_from_seed(41);
        let mut laws = KernelLaws::default();
        for round in 0..200 {
            let mut freq: Vec<f64> = (0..5).map(|_| rng.gen_range(0..4u32) as f64).collect();
            freq[round % 5] = 0.0;
            let total: f64 = freq.iter().sum::<f64>().max(1.0);
            freq.iter_mut().for_each(|f| *f /= total);
            laws.clear();
            d.pair_kernels_at_into(&freq, &[true; 25], &mut laws);
            let cells: Vec<_> = laws.cells().collect();
            for (i, j) in (0..5).flat_map(|i| (0..5).map(move |j| (i, j))) {
                if i == j {
                    assert_eq!(cells[i * 5 + j], [((i, j), 1.0)]);
                    continue;
                }
                let mut expect = 0.0;
                for (a, &fa) in freq.iter().enumerate().filter(|&(_, &f)| f != 0.0) {
                    for (b, &fb) in freq.iter().enumerate().filter(|&(_, &f)| f != 0.0) {
                        let diff = d.payoff[j][a] - d.payoff[i][b];
                        if diff > 0.0 {
                            expect += fa * fb * diff;
                        }
                    }
                }
                let skipping = (expect / d.span).clamp(0.0, 1.0);
                let ((target, _), got) = cells[i * 5 + j][0];
                assert_eq!(target, j, "the first outcome is the switch");
                assert_eq!(got.to_bits(), skipping.to_bits(), "({i}, {j}) at {freq:?}");
            }
        }
    }

    #[test]
    fn sampled_br_power_table_matches_per_row_powi_bitwise() {
        // The law with every power taken per row, zero counts and zero
        // rows skipped: the table must reproduce it bit for bit.
        let game = crate::scenarios::by_name("random-symmetric-5").unwrap();
        let samples = 5;
        let rule = DynamicsRule::SampledBestResponse { samples };
        let d = GameDynamics::new(game.game(), rule).unwrap();
        let mut rng = rng_from_seed(43);
        let mut scratch = Vec::new();
        for round in 0..100 {
            let mut freq: Vec<f64> = (0..5).map(|_| rng.gen_range(0..4u32) as f64).collect();
            freq[round % 5] = 0.0;
            let total: f64 = freq.iter().sum::<f64>().max(1.0);
            freq.iter_mut().for_each(|f| *f /= total);
            let mut rho = vec![0.0f64; 5];
            for (row, (&coef, &br)) in d.br_comp_coef.iter().zip(&d.br_comp_br).enumerate() {
                let mut prob = coef;
                for (t, &c) in d.br_comp_counts[row * 5..(row + 1) * 5].iter().enumerate() {
                    if c > 0 {
                        prob *= freq[t].powi(c as i32);
                    }
                }
                if prob > 0.0 {
                    rho[br as usize] += prob;
                }
            }
            let fast = d.sampled_br_law_fast(&freq, samples, &mut scratch);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fast), bits(&rho), "at {freq:?}");
        }
    }

    #[test]
    fn inline_powers_match_powi_bitwise() {
        // Every exponent the power table takes, over frequencies of every
        // magnitude a count vector gives (with n up to 10⁸), edges included.
        let mut rng = rng_from_seed(47);
        let mut bases = vec![0.0, 1.0, 0.5, 1e-8, 1.0 - 1e-8, f64::MIN_POSITIVE];
        bases.extend((0..20_000).map(|_| rng.gen_range(1..=100_000_000u64) as f64 / 1e8));
        bases.extend((0..20_000).map(|_| rng.gen::<f64>()));
        for &x in &bases {
            for c in 0..=MAX_BR_SAMPLES as u32 + 1 {
                let (got, want) = (powi_bits(x, c), x.powi(c as i32));
                assert_eq!(got.to_bits(), want.to_bits(), "{x}^{c}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn pairwise_imitation_mean_switch_flow_is_replicator_signed() {
        // Net D→H vs H→D flow at freq x must carry the replicator sign:
        // positive toward the better-performing strategy against x.
        let d = GameDynamics::new(&hawk_dove(), DynamicsRule::PairwiseImitation).unwrap();
        for &h in &[0.2, 0.5, 0.8] {
            let freq = [h, 1.0 - h];
            let p_dh = cell_law(&d, 1, 0, &freq)[0].1; // D adopts H
            let p_hd = cell_law(&d, 0, 1, &freq)[0].1; // H adopts D
            // (Ax)_H − (Ax)_D = (−1)h + 2(1−h) − (1−h) = 1 − 2h.
            let payoff_gap = 1.0 - 2.0 * h;
            let net = p_dh - p_hd;
            assert!(
                (net * 3.0 - payoff_gap).abs() < 1e-12,
                "h={h}: net {net} vs gap {payoff_gap}"
            );
        }
    }

    #[test]
    fn sampled_br_law_is_a_pmf_and_sharpens_with_samples() {
        let d1 = GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse { samples: 1 },
        )
        .unwrap();
        // One sample: BR of a single opponent draw — the sample-of-one law.
        let rho = d1.sampled_br_law(&[0.5, 0.3, 0.2], 1);
        assert!((rho.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // P(BR = paper) = P(sample = rock) = 0.5, etc.
        assert!((rho[1] - 0.5).abs() < 1e-12);
        assert!((rho[2] - 0.3).abs() < 1e-12);
        assert!((rho[0] - 0.2).abs() < 1e-12);
        // Five samples concentrate on the best reply to the mixture.
        let d5 = GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse { samples: 5 },
        )
        .unwrap();
        let rho5 = d5.sampled_br_law(&[0.8, 0.1, 0.1], 5);
        assert!((rho5.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(rho5[1] > 0.8, "BR(rock-heavy mix) = paper: {rho5:?}");
        // The kernel cell shares the law across responders.
        let cell = cell_law(&d5, 0, 2, &[0.8, 0.1, 0.1]);
        for &((_, rj), _) in &cell {
            assert_eq!(rj, 2, "responder never changes");
        }
    }

    #[test]
    fn kigt_walk_matches_definition_2_1() {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 3 }).unwrap();
        assert_eq!(d.num_states(), 5);
        assert!(d.is_one_way());
        assert!(!d.has_random_transitions());
        let mut rng = rng_from_seed(0);
        // AC (0) and AD (1) never change, whatever they meet.
        for j in 0..5u8 {
            assert_eq!(d.interact(0, j, &mut rng), (0, j));
            assert_eq!(d.interact(1, j, &mut rng), (1, j));
        }
        // GTFT level 0 (state 2): increment on AC/GTFT, floor on AD.
        assert_eq!(d.interact(2, 0, &mut rng), (3, 0));
        assert_eq!(d.interact(2, 4, &mut rng), (3, 4));
        assert_eq!(d.interact(2, 1, &mut rng), (2, 1));
        // Top level (state 4): cap on increment, decrement on AD.
        assert_eq!(d.interact(4, 0, &mut rng), (4, 0));
        assert_eq!(d.interact(4, 1, &mut rng), (3, 1));
    }

    #[test]
    fn kigt_profiles_encode_the_canonical_composition() {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 5 }).unwrap();
        let init = d.initial_profile();
        assert_eq!(init.len(), 7);
        assert!((init.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(&init[..2], &[KIGT_ALPHA, KIGT_BETA]);
        let reference = d.reference_profiles().expect("k-IGT carries its own truth");
        assert_eq!(reference.len(), 1);
        let stat = &reference[0];
        assert!((stat.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Theorem 2.7 ratio: π_{j+1}/π_j = (1−β)/β = 4.
        for w in stat[2..].windows(2) {
            assert!((w[1] / w[0] - 4.0).abs() < 1e-9, "{stat:?}");
        }
        // Game rules carry no override and start uniform.
        let br = GameDynamics::new(&pd, DynamicsRule::BestResponse).unwrap();
        assert!(br.reference_profiles().is_none());
        assert_eq!(br.initial_profile(), vec![0.5, 0.5]);
    }

    #[test]
    fn kigt_concentrates_on_the_stationary_law() {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 5 }).unwrap();
        let reference = d.reference_profiles().unwrap().remove(0);
        let mut engine = engine_from_profile(d.clone(), &d.initial_profile(), 20_000).unwrap();
        let mut rng = rng_from_seed(33);
        engine
            .run_batched(40 * 20_000, engine.suggested_batch(), &mut rng)
            .unwrap();
        let freq = engine.frequencies();
        let tv: f64 = freq
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "TV to Theorem 2.7 law: {tv} ({freq:?})");
    }

    #[test]
    fn profile_counts_round_deterministically() {
        assert_eq!(profile_counts(&[0.5, 0.5], 10).unwrap(), vec![5, 5]);
        assert_eq!(profile_counts(&[1.0 / 3.0; 3], 10).unwrap(), vec![4, 3, 3]);
        assert_eq!(profile_counts(&[0.0, 1.0], 7).unwrap(), vec![0, 7]);
        assert!(profile_counts(&[0.9, 0.9], 7).is_err());
        assert!(profile_counts(&[], 7).is_err());
        let c = profile_counts(&[0.21, 0.33, 0.46], 1_000_003).unwrap();
        assert_eq!(c.iter().sum::<u64>(), 1_000_003);
    }

    #[test]
    fn profile_counts_survive_drifted_totals_at_large_n() {
        // A sum just inside the 1e-6 validation tolerance: flooring the
        // raw (unnormalized) masses at n = 1e7 would over-assign and
        // underflow the remainder loop; normalization + shaving keeps the
        // total exact.
        let drifted = [0.500_000_4, 0.500_000_4];
        let n = 10_000_000u64;
        let c = profile_counts(&drifted, n).unwrap();
        assert_eq!(c.iter().sum::<u64>(), n);
        let low = [0.499_999_6, 0.499_999_6];
        let c = profile_counts(&low, n).unwrap();
        assert_eq!(c.iter().sum::<u64>(), n);
    }

    #[test]
    fn logit_declares_a_tau_leapable_kernel() {
        let d = GameDynamics::new(&rps(), DynamicsRule::Logit { eta: 1.0 }).unwrap();
        // The declared pmf matches the CDF interact() samples from.
        for j in 0..3 {
            let outs = d.pair_kernel(0, j).expect("logit has a kernel");
            let total: f64 = outs.iter().map(|&(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-12);
            for &((_, rj), _) in &outs {
                assert_eq!(rj, j, "responder never changes");
            }
        }
        // Every cell is stated and classifies, so the engine leaps logit.
        fresh_law(&d, &[1.0 / 3.0; 3]);
        // Deterministic rules keep using the transition table (no kernel).
        let br = GameDynamics::new(&rps(), DynamicsRule::BestResponse).unwrap();
        assert!((0..9).all(|cell| br.pair_kernel(cell / 3, cell % 3).is_none()));
    }

    /// Two-sample chi-square statistic over paired histograms.
    fn two_sample_chi_square(a: &[u64], b: &[u64]) -> f64 {
        let (ta, tb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
        let mut chi2 = 0.0;
        for (&ca, &cb) in a.iter().zip(b) {
            let total = (ca + cb) as f64;
            if total == 0.0 {
                continue;
            }
            let ea = total * ta / (ta + tb);
            let eb = total * tb / (ta + tb);
            chi2 += (ca as f64 - ea).powi(2) / ea + (cb as f64 - eb).powi(2) / eb;
        }
        chi2
    }

    /// Step-vs-batch equivalence harness: final state-0 count histograms
    /// after `horizon` interactions from `counts`, exact stepping vs
    /// τ-leaps of `batch`, across `reps` decorrelated seed pairs.
    fn step_vs_batch_chi_square(
        dynamics: &GameDynamics,
        counts: &[u64],
        horizon: u64,
        batch: u64,
        reps: u64,
        salt: u64,
    ) -> f64 {
        let n: u64 = counts.iter().sum();
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(dynamics.clone(), counts.to_vec()).unwrap();
            let mut rng = stream_rng(salt, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(dynamics.clone(), counts.to_vec()).unwrap();
            // Decorrelated from the step family at EVERY rep — an xor of
            // `rep·φ` alone would collide with the step stream at rep 0.
            let mut rng = stream_rng(
                salt.wrapping_add(0x0BAD_5EED) ^ rep.wrapping_mul(0x9E37_79B9),
                rep,
            );
            engine.run_batched(horizon, batch, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        two_sample_chi_square(&hist_step, &hist_batch)
    }

    #[test]
    fn logit_step_vs_batch_chi_square_across_the_eta_sweep() {
        // The report's η-sweep axis: every swept η must stay
        // chi-square-equivalent between exact stepping and τ-leaping.
        for (idx, &eta) in [0.5, 1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            let d = GameDynamics::new(&hawk_dove(), DynamicsRule::Logit { eta }).unwrap();
            let chi2 = step_vs_batch_chi_square(&d, &[6, 6], 40, 3, 2_000, 31 + idx as u64);
            // 13 cells; 99.9% quantile of chi2(12) ~ 32.9, plus leap-bias
            // room.
            assert!(chi2 < 45.0, "eta={eta}: chi-square {chi2}");
        }
    }

    #[test]
    fn pairwise_imitation_step_vs_batch_chi_square() {
        // The count-coupled kernel path: exact stepping rebuilds the
        // Schlag kernel after every count change, leaps freeze it per
        // leap; both must sample one law.
        let d = GameDynamics::new(&hawk_dove(), DynamicsRule::PairwiseImitation).unwrap();
        let chi2 = step_vs_batch_chi_square(&d, &[6, 6], 40, 3, 4_000, 103);
        assert!(chi2 < 45.0, "chi-square {chi2}");
    }

    #[test]
    fn sampled_br_step_vs_batch_chi_square() {
        let d = GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse { samples: 5 },
        )
        .unwrap();
        let chi2 = step_vs_batch_chi_square(&d, &[6, 4, 2], 30, 2, 4_000, 107);
        assert!(chi2 < 45.0, "chi-square {chi2}");
    }

    #[test]
    fn two_way_imitation_step_vs_batch_chi_square() {
        let d = GameDynamics::new(&hawk_dove(), DynamicsRule::TwoWayImitation).unwrap();
        let chi2 = step_vs_batch_chi_square(&d, &[6, 6], 30, 3, 4_000, 109);
        assert!(chi2 < 45.0, "chi-square {chi2}");
    }

    #[test]
    fn kigt_step_vs_batch_chi_square() {
        let pd = MatrixGame::donation(2.0, 1.0).unwrap();
        let d = GameDynamics::new(&pd, DynamicsRule::KIgt { levels: 3 }).unwrap();
        // Composition 4 AC, 2 AD, 6 GTFT at level 0; histogram over the
        // level-0 count (state 2) — the moving part.
        let n = 12u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(d.clone(), vec![4, 2, 6, 0, 0]).unwrap();
            let mut rng = stream_rng(113, rep);
            for _ in 0..30 {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[2] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(d.clone(), vec![4, 2, 6, 0, 0]).unwrap();
            let mut rng = stream_rng(
                113u64.wrapping_add(0x0BAD_5EED) ^ rep.wrapping_mul(0x9E37_79B9),
                rep,
            );
            engine.run_batched(30, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[2] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        assert!(chi2 < 45.0, "chi-square {chi2}");
    }

    #[test]
    fn batched_engine_runs_deterministic_best_response() {
        let d = GameDynamics::new(&rps(), DynamicsRule::BestResponse).unwrap();
        let run = |seed: u64| {
            let mut engine =
                engine_from_profile(d.clone(), &[0.5, 0.3, 0.2], 10_000).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(200_000, engine.suggested_batch(), &mut rng).unwrap();
            engine.counts().to_vec()
        };
        assert_eq!(run(3), run(3));
        let counts = run(3);
        assert_eq!(counts.iter().sum::<u64>(), 10_000);
        // Near the uniform equilibrium after 20n interactions.
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0 / 3.0).abs() < 0.1, "{counts:?}");
        }
    }

    #[test]
    fn count_coupled_dynamics_are_deterministic_per_seed() {
        for rule in [
            DynamicsRule::PairwiseImitation,
            DynamicsRule::SampledBestResponse { samples: 5 },
        ] {
            let d = GameDynamics::new(&rps(), rule).unwrap();
            let run = |seed: u64| {
                let mut engine =
                    engine_from_profile(d.clone(), &[0.5, 0.3, 0.2], 3_000).unwrap();
                let mut rng = rng_from_seed(seed);
                engine
                    .run_batched(30_000, engine.suggested_batch(), &mut rng)
                    .unwrap();
                engine.counts().to_vec()
            };
            assert_eq!(run(3), run(3), "{rule:?}");
            assert_eq!(run(3).iter().sum::<u64>(), 3_000);
        }
    }

    /// Pins the count-coupled leap end to end: golden final counts of
    /// seeded runs of hawk-dove pairwise imitation and shapley-cycle
    /// br-sample (m = 5), in leaps small enough to draw through the flow
    /// alias and large enough for the fused binomial chain. A change that
    /// moves one bit of a law the leap draws from, or one draw, moves
    /// these counts.
    #[test]
    fn count_coupled_leap_streams_are_pinned() {
        let run = |scenario: &str, rule: DynamicsRule, batch: u64, seed: u64| {
            let d = crate::scenarios::by_name(scenario).unwrap().dynamics(rule).unwrap();
            let mut engine = engine_from_profile(d.clone(), &d.initial_profile(), 3_000).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(60_000, batch, &mut rng).unwrap();
            engine.counts().to_vec()
        };
        let br_sample = DynamicsRule::SampledBestResponse { samples: 5 };
        let runs = [
            (
                "pairwise-imitation, alias",
                run("hawk-dove", DynamicsRule::PairwiseImitation, 20, 41),
                vec![1510, 1490],
            ),
            (
                "pairwise-imitation, chain",
                run("hawk-dove", DynamicsRule::PairwiseImitation, 1_500, 42),
                vec![1519, 1481],
            ),
            (
                "br-sample, alias",
                run("shapley-cycle", br_sample, 20, 43),
                vec![1005, 1011, 984],
            ),
            (
                "br-sample, chain",
                run("shapley-cycle", br_sample, 1_500, 44),
                vec![1176, 858, 966],
            ),
        ];
        for (name, got, want) in runs {
            assert_eq!(got, want, "{name}: leap stream moved");
        }
    }

    /// Two-way max-consensus: both agents adopt the larger state.
    #[derive(Clone, Copy)]
    struct MaxConsensus;

    impl Protocol for MaxConsensus {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            (i.max(r), i.max(r))
        }
    }

    impl EnumerableProtocol for MaxConsensus {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
    }

    /// Runs `total` interactions in leaps of `batch` through
    /// `run_recorded` and `run_batched`, which skip the absorbed tail, and
    /// through a `step_batch` loop offering every leap clock, which does
    /// not; all three must agree on the trajectory (capacity 4), the final
    /// counts, the clock and the RNG stream. Returns the final counts.
    fn assert_absorbed_tail_skip_is_unobservable<P: EnumerableProtocol + Clone>(
        protocol: P,
        counts: &[u64],
        total: u64,
        batch: u64,
        seed: u64,
    ) -> Vec<u64> {
        use popgame_population::trajectory::TrajectoryRecorder;
        assert_ne!(total % batch, 0, "the final leap is ragged");
        let mut every = BatchedEngine::from_counts(protocol.clone(), counts.to_vec()).unwrap();
        let mut rng = rng_from_seed(seed);
        let mut oracle = TrajectoryRecorder::new(4).unwrap();
        oracle.offer(every.interactions(), every.counts());
        let (mut executed, mut stride_at_last_change) = (0, oracle.stride());
        while executed < total {
            let before = every.counts().to_vec();
            let burst = batch.min(total - executed);
            every.step_batch(burst, &mut rng).unwrap();
            executed += burst;
            oracle.offer(every.interactions(), every.counts());
            if every.counts() != before {
                stride_at_last_change = oracle.stride();
            }
        }
        oracle.force(every.interactions(), every.counts());
        let next_draw = rng.gen::<u64>();
        // The premise: the run absorbed, and the recorder thinned its
        // points again inside the absorbed tail.
        assert!(oracle.stride() > stride_at_last_change, "no thinning in the tail");

        let mut recorded = BatchedEngine::from_counts(protocol.clone(), counts.to_vec()).unwrap();
        let mut rng = rng_from_seed(seed);
        let mut rec = TrajectoryRecorder::new(4).unwrap();
        recorded.run_recorded(total, batch, &mut rng, &mut rec).unwrap();
        assert_eq!(rec.points(), oracle.points());
        assert_eq!(rec.stride(), oracle.stride());
        assert_eq!(recorded.counts(), every.counts());
        assert_eq!(recorded.interactions(), every.interactions());
        assert_eq!(rng.gen::<u64>(), next_draw);

        let mut plain = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let mut rng = rng_from_seed(seed);
        plain.run_batched(total, batch, &mut rng).unwrap();
        assert_eq!(plain.counts(), every.counts());
        assert_eq!(plain.interactions(), every.interactions());
        assert_eq!(rng.gen::<u64>(), next_draw);
        every.counts().to_vec()
    }

    #[test]
    fn skipping_the_absorbed_tail_is_unobservable() {
        let max = assert_absorbed_tail_skip_is_unobservable(MaxConsensus, &[6, 4, 2], 1_003, 5, 71);
        assert_eq!(max, [0, 0, 12]);
        // Coordination pays nothing off the diagonal, so every encounter
        // is a tie and two-way imitation is absorbed from the start.
        let coordination = crate::scenarios::by_name("coordination").unwrap();
        let rule = DynamicsRule::TwoWayImitation;
        let two_way = GameDynamics::new(coordination.game(), rule).unwrap();
        let tied = assert_absorbed_tail_skip_is_unobservable(two_way, &[4, 4, 4], 1_001, 4, 73);
        assert_eq!(tied, [4, 4, 4]);
        // Count-coupled: pairwise imitation fixes one strategy.
        let pd = crate::scenarios::by_name("prisoners-dilemma").unwrap();
        let ppi = GameDynamics::new(pd.game(), DynamicsRule::PairwiseImitation).unwrap();
        let fixed = assert_absorbed_tail_skip_is_unobservable(ppi, &[6, 6], 20_002, 3, 79);
        assert!(fixed.contains(&12), "{fixed:?}");
    }

    #[test]
    fn sampled_br_fast_law_matches_the_reference_recursion() {
        // The construction-time composition table must reproduce the
        // reference recursion's law up to floating-point reassociation
        // at every sample count and across asymmetric frequencies.
        for samples in 1..=MAX_BR_SAMPLES {
            let d = GameDynamics::new(
                &rps(),
                DynamicsRule::SampledBestResponse { samples },
            )
            .unwrap();
            for freq in [
                [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
                [0.5, 0.3, 0.2],
                [0.97, 0.02, 0.01],
                [0.0, 0.6, 0.4],
                [1.0, 0.0, 0.0],
            ] {
                let reference = d.sampled_br_law(&freq, samples);
                let fast = d.sampled_br_law_fast(&freq, samples, &mut Vec::new()).to_vec();
                for (a, (&r, &f)) in reference.iter().zip(&fast).enumerate() {
                    assert!(
                        (r - f).abs() <= 1e-12,
                        "samples={samples} freq={freq:?} state {a}: {r} vs {f}"
                    );
                }
                assert!((fast.iter().sum::<f64>() - 1.0).abs() <= 1e-9, "{fast:?}");
            }
        }
    }

    /// The engine's dirty mask after the states flagged in `changed` moved.
    fn dirty_mask(d: &GameDynamics, changed: &[bool]) -> Vec<bool> {
        let k = d.num_states();
        (0..k * k)
            .map(|cell| match d.pair_kernel_deps(cell / k, cell % k) {
                KernelDeps::None => false,
                KernelDeps::All => changed.iter().any(|&c| c),
                KernelDeps::States(states) => states.iter().any(|&s| changed[s]),
            })
            .collect()
    }

    #[test]
    fn reweigh_at_matches_a_fresh_build_bitwise() {
        // The engine's per-leap re-weigh writes only the cells a move
        // made dirty, and must land on the law of a fresh build bit for
        // bit, for every rule that states a frequency-dependent law.
        let mut rng = rng_from_seed(61);
        let symmetric = crate::scenarios::registry()
            .iter()
            .filter(|scenario| scenario.game().is_symmetric(1e-9));
        let (mut checked, mut in_place) = (0, 0);
        for scenario in symmetric {
            for rule in [
                DynamicsRule::PairwiseImitation,
                DynamicsRule::SampledBestResponse { samples: 1 },
                DynamicsRule::SampledBestResponse { samples: 5 },
                DynamicsRule::SampledBestResponse { samples: MAX_BR_SAMPLES },
            ] {
                let d = GameDynamics::new(scenario.game(), rule).unwrap();
                let k = d.num_states();
                let label = format!("{} {rule:?}", scenario.name());
                // Counts of 0..4 per state, one state emptied on the
                // first round.
                let mut counts: Vec<u64> = (0..k).map(|_| rng.gen_range(1..4u64)).collect();
                counts[0] = 0;
                let freq_of = |counts: &[u64]| {
                    let n = counts.iter().sum::<u64>() as f64;
                    counts.iter().map(|&c| c as f64 / n).collect::<Vec<_>>()
                };
                let mut freq = freq_of(&counts);
                let mut law = fresh_law(&d, &freq);
                let mut refresh_laws = KernelLaws::default();
                for round in 0..20 {
                    // Move one agent, re-weigh, and compare against
                    // a fresh build bit for bit.
                    let occupied: Vec<usize> = (0..k).filter(|&s| counts[s] > 0).collect();
                    let from = occupied[round % occupied.len()];
                    let to = (from + 1 + round % (k - 1)) % k;
                    counts[from] -= 1;
                    counts[to] += 1;
                    let mut changed = vec![false; k];
                    (changed[from], changed[to]) = (true, true);
                    freq = freq_of(&counts);
                    let dirty = dirty_mask(&d, &changed);
                    in_place += u32::from(
                        law.reweigh_at(&d, &freq, &dirty, &mut refresh_laws).unwrap(),
                    );
                    // `LeapLaw`'s `==` compares probabilities by bits.
                    assert!(law == fresh_law(&d, &freq), "{label} round {round} at {freq:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 20 * 8 * 4, "{checked} rounds");
        // Most rounds leave the set of outcomes with mass unchanged, so
        // the law is re-weighed in place, not classified afresh.
        assert!(2 * in_place > checked, "{in_place} of {checked} rounds in place");
    }

    #[test]
    fn kernel_deps_declarations_match_the_laws() {
        let ppi = GameDynamics::new(&rps(), DynamicsRule::PairwiseImitation).unwrap();
        let br = GameDynamics::new(
            &rps(),
            DynamicsRule::SampledBestResponse { samples: 3 },
        )
        .unwrap();
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    assert_eq!(ppi.pair_kernel_deps(i, j), KernelDeps::None);
                    // Contract check: the diagonal law really is
                    // count-free.
                    let a = cell_law(&ppi, i, j, &[0.2, 0.5, 0.3]);
                    let b = cell_law(&ppi, i, j, &[0.9, 0.05, 0.05]);
                    assert_eq!(a, b);
                } else {
                    assert_eq!(ppi.pair_kernel_deps(i, j), KernelDeps::All);
                }
                assert_eq!(br.pair_kernel_deps(i, j), KernelDeps::All);
            }
        }
    }
}
