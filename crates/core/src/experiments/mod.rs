//! Experiment harnesses regenerating every table/figure-equivalent of the
//! paper (E1–E15 in `DESIGN.md` / `EXPERIMENTS.md`).
//!
//! The paper is a theory paper: its "evaluation" is a set of exact
//! theorems. Each experiment here re-derives one quantitative claim
//! empirically and returns a displayable report whose `Display` output is
//! the table the `reproduce` binary prints (and that `EXPERIMENTS.md`
//! records). Reports carry the raw numbers too, so integration tests and
//! benches can assert on them.
//!
//! | fn | paper item | claim |
//! |----|-----------|-------|
//! | [`stationary::run_e1`] | Thm 2.4 | Ehrenfest stationary law is multinomial |
//! | [`mixing::run_e2`] | Thm 2.5 | mixing-time scaling in `k`, `m`, bias |
//! | [`mixing::run_e3`] | Prop A.9 | diameter lower bound `t_mix ≥ (k−1)m/2` |
//! | [`walks::run_e4`] | Prop A.7 | absorption-time closed forms |
//! | [`stationary::run_e5`] | Thm 2.7 | `k`-IGT stationary law (3 engines) |
//! | [`dynamics::run_e6`] | Prop 2.8 | average stationary generosity |
//! | [`equilibrium::run_e7`] | Thm 2.9 | `ε(k) = O(1/k)` + decomposition |
//! | [`payoffs::run_e8`] | Prop 2.2 | transition local-optimality |
//! | [`payoffs::run_e9`] | App. B | payoffs: closed = linear = Monte-Carlo |
//! | [`dynamics::run_e10`] | Fig. 1 | one-step increment/decrement rates |
//! | [`stationary::run_e11`] | Fig. 2 | the `k=3, m=3` exact state graph |
//! | [`mixing::run_e12`] | Rem. 2.6 | cutoff at `½ m log m` |
//! | [`equilibrium::run_e13`] | Thm 2.9 fn. 4 | DE failure for `λ ∈ (1/2, 2)` |
//! | [`dynamics::run_e14`] | Def. 2.1 rem. | action-observed ≈ strategy-typed |
//! | [`dynamics::run_e15`] | §1.1.2 | TFT collapses under noise; GTFT doesn't |

pub mod dynamics;
pub mod equilibrium;
pub mod mixing;
pub mod payoffs;
pub mod stationary;
pub mod table;
pub mod walks;
