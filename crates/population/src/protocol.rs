//! The protocol trait: local transition rules over pairs of agents.

use rand::Rng;

/// Which population frequencies a count-coupled cell's law reads —
/// declared per ordered pair via
/// [`EnumerableProtocol::pair_kernel_deps`], and used by
/// [`crate::batch::BatchedEngine`] to re-weigh only the kernel cells whose
/// inputs actually changed since the last update (the dirty mask of
/// [`crate::batch::LeapLaw::reweigh_at`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelDeps {
    /// The cell's law never changes with the counts (e.g. a diagonal
    /// self-imitation cell that is an unconditional no-op). Never
    /// refreshed.
    None,
    /// The cell's law may read every state's frequency — the conservative
    /// default. Refreshed whenever any count changed.
    All,
    /// The cell's law reads only the listed state indices' frequencies.
    /// Refreshed only when one of them changed.
    States(Vec<usize>),
}

/// Caller-owned buffers of one
/// [`EnumerableProtocol::pair_kernels_at_into`] call, reused across calls
/// so a warm kernel refresh allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct KernelLaws {
    /// `((initiator'_idx, responder'_idx), probability)` entries of every
    /// written cell, cell after cell.
    pub entries: Vec<((usize, usize), f64)>,
    /// Per written cell, the end of its entries in `entries`.
    pub ends: Vec<usize>,
    /// Scratch for the protocol's intermediate values.
    pub scratch: Vec<f64>,
}

impl KernelLaws {
    /// Empties `entries` and `ends`, keeping every allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.ends.clear();
    }

    /// The written cells' entries, in the order they were written.
    pub fn cells(&self) -> impl Iterator<Item = &[((usize, usize), f64)]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.entries[start..end])
    }
}

/// A population protocol: a (possibly randomized) transition function
/// applied to a sampled ordered pair of agents.
///
/// The paper's protocols are *one-way* (footnote 3): only the initiator
/// updates. Implementors of one-way protocols simply return the responder's
/// state unchanged; [`Protocol::is_one_way`] documents the intent and lets
/// engines and tests assert it.
///
/// # The two-way contract
///
/// Protocols where *both* agents may update are first-class: every engine
/// in this crate applies the returned `(initiator', responder')` pair in
/// full, [`crate::batch::TransitionTable`] tabulates both components, and
/// [`crate::batch::KernelTable`] leaps joint outcome laws over ordered
/// pairs. A two-way protocol must (a) return `false` from
/// [`is_one_way`](Protocol::is_one_way) and (b) keep its outcome a
/// function of the *ordered* pair — the scheduler's pair law
/// `x_i (x_j − δ_ij)` is ordered, so symmetric rules must hold for both
/// orientations themselves. Determinism guarantees are unchanged: a
/// deterministic two-way protocol tabulates and τ-leaps exactly like a
/// one-way one.
///
/// # Example
///
/// ```
/// use popgame_population::protocol::Protocol;
///
/// /// Epidemic spreading: the initiator catches the responder's infection.
/// struct Epidemic;
///
/// impl Protocol for Epidemic {
///     type State = bool; // infected?
///     fn interact<R: rand::Rng + ?Sized>(
///         &self,
///         initiator: bool,
///         responder: bool,
///         _rng: &mut R,
///     ) -> (bool, bool) {
///         (initiator || responder, responder)
///     }
///     fn is_one_way(&self) -> bool { true }
/// }
/// ```
pub trait Protocol {
    /// The local state of one agent.
    type State: Copy + Eq + std::fmt::Debug;

    /// Computes the post-interaction states `(initiator', responder')`.
    fn interact<R: Rng + ?Sized>(
        &self,
        initiator: Self::State,
        responder: Self::State,
        rng: &mut R,
    ) -> (Self::State, Self::State);

    /// Whether the protocol only ever updates the initiator. Default `false`.
    fn is_one_way(&self) -> bool {
        false
    }

    /// Whether [`interact`](Self::interact) consults its RNG. Default
    /// `false` (deterministic transition function).
    ///
    /// Engines use this to decide whether the transition function can be
    /// tabulated once and replayed — the key enabler of the batched
    /// count-level stepper. Implementations whose transitions are
    /// randomized **must** override this to `true`; a cached table built
    /// from a randomized `interact` would silently freeze one outcome.
    fn has_random_transitions(&self) -> bool {
        false
    }
}

/// A protocol whose state space is finite and enumerable, enabling the
/// count-level engine ([`crate::counts::CountedPopulation`]).
///
/// The enumeration must be a bijection between `0..num_states()` and the
/// reachable states.
pub trait EnumerableProtocol: Protocol {
    /// Number of distinct states.
    fn num_states(&self) -> usize;

    /// Index of a state within `0..num_states()`.
    fn state_index(&self, state: Self::State) -> usize;

    /// The state at a given index.
    ///
    /// # Panics
    ///
    /// May panic when `index >= num_states()`.
    fn state_at(&self, index: usize) -> Self::State;

    /// The closed-form outcome law of
    /// [`interact`](Protocol::interact) for the ordered state-*index*
    /// pair `(i, j)`, when the protocol can state it exactly: a list of
    /// `((initiator'_idx, responder'_idx), probability)` entries summing
    /// to 1. Default `None`.
    ///
    /// Deterministic protocols don't need this — engines tabulate them
    /// directly. *Randomized* protocols
    /// ([`has_random_transitions`](Protocol::has_random_transitions) =
    /// `true`) that override it become τ-leapable on
    /// [`crate::batch::BatchedEngine`]: the engine validates the per-pair
    /// kernel as a [`crate::batch::KernelTable`], classifies its outcomes
    /// into count flows ([`crate::batch::LeapLaw`]) and draws each leap
    /// over them instead of falling back to exact per-interaction
    /// stepping. The declared law
    /// **must** equal the law of `interact` exactly, or batched and exact
    /// execution will diverge distributionally.
    fn pair_kernel(&self, _i: usize, _j: usize) -> Option<Vec<((usize, usize), f64)>> {
        None
    }

    /// Whether the protocol's outcome law is coupled to the *current
    /// population frequencies* (a mean-field-coupled revision rule, e.g.
    /// imitation against independently sampled bystanders, or best
    /// response to a `k`-sample of the population). Default `false`.
    ///
    /// # The count-coupled contract
    ///
    /// Count-coupled protocols cannot state their law through
    /// [`interact`](Protocol::interact) — the signature has no access to
    /// the counts — so they **must**:
    ///
    /// 1. return `true` here *and* from
    ///    [`has_random_transitions`](Protocol::has_random_transitions);
    /// 2. declare the full law via
    ///    [`pair_kernels_at_into`](Self::pair_kernels_at_into) (and return
    ///    `None` from the static [`pair_kernel`](Self::pair_kernel));
    /// 3. treat [`interact`](Protocol::interact) as unreachable — engines
    ///    aware of this flag never call it, and
    ///    [`crate::counts::CountedPopulation`] rejects count-coupled
    ///    protocols with an error instead of silently sampling a wrong
    ///    law. Implementations conventionally `panic!` with a message
    ///    pointing at [`crate::batch::BatchedEngine`].
    ///
    /// [`crate::batch::BatchedEngine`] executes such protocols from the
    /// law at the current frequencies: the sampled pair's law at **every**
    /// exact step, and the law of every cell once per leap (from the
    /// frozen counts) under τ-leaping — the same frozen-population
    /// idealization as the leap itself, so step and batch stay
    /// chi-square-equivalent.
    fn kernel_depends_on_counts(&self) -> bool {
        false
    }

    /// The laws of every cell flagged in `cells` (`cells[i * k + j]`, row
    /// by row) **given the current population frequencies** `freq` (one
    /// entry per state index, summing to 1), written in one call into the
    /// caller-owned buffers of `laws`: for each flagged cell in order,
    /// its entries `((initiator'_idx, responder'_idx), probability)` are
    /// appended to [`KernelLaws::entries`] and the new length pushed to
    /// [`KernelLaws::ends`]. The caller clears both first
    /// ([`KernelLaws::clear`]); [`KernelLaws::scratch`] is the protocol's
    /// own. A protocol that cannot state a flagged cell's law stops
    /// there, so fewer cells than flagged are written.
    ///
    /// This is the engine's only law entry point: a kernel build flags
    /// every cell, a leap's re-weigh the dirty ones and an exact step the
    /// sampled pair's, so a protocol whose cells share work (one choice
    /// law per frequency vector, one pass over opponent pairs) does it
    /// once per call, not once per cell. The default ignores `freq` and
    /// delegates cell by cell to the static
    /// [`pair_kernel`](Self::pair_kernel). Count-coupled protocols
    /// override it, and hot ones write their entries straight into the
    /// buffers, so a warm refresh performs no heap allocation. The
    /// declared law must be a pmf for every reachable `freq`, exactly
    /// like the static kernel, and must depend on `freq` alone: the same
    /// frequencies give the same entries bit for bit, whichever cells are
    /// flagged with them.
    fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
        let _ = freq;
        let k = self.num_states();
        for (cell, _) in cells.iter().enumerate().filter(|&(_, &flagged)| flagged) {
            let Some(entries) = self.pair_kernel(cell / k, cell % k) else {
                return;
            };
            laws.entries.extend(entries);
            laws.ends.push(laws.entries.len());
        }
    }

    /// Which frequency components the pair `(i, j)` law
    /// ([`pair_kernels_at_into`](Self::pair_kernels_at_into)) reads. The default is
    /// the conservative [`KernelDeps::All`]; count-coupled protocols
    /// should override it where cells are count-free (unconditional
    /// no-ops) or read only a few states, so the engine's incremental
    /// kernel refresh can skip them. The declaration is a *contract*: a
    /// cell declared independent of a state must return bitwise-identical
    /// laws across any change confined to that state's frequency.
    fn pair_kernel_deps(&self, _i: usize, _j: usize) -> KernelDeps {
        KernelDeps::All
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popgame_util::rng::rng_from_seed;

    struct Epidemic;

    impl Protocol for Epidemic {
        type State = bool;
        fn interact<R: Rng + ?Sized>(&self, i: bool, r: bool, _rng: &mut R) -> (bool, bool) {
            (i || r, r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for Epidemic {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, state: bool) -> usize {
            usize::from(state)
        }
        fn state_at(&self, index: usize) -> bool {
            index == 1
        }
    }

    #[test]
    fn one_way_flag_and_interaction() {
        let mut rng = rng_from_seed(0);
        let p = Epidemic;
        assert!(p.is_one_way());
        assert_eq!(p.interact(false, true, &mut rng), (true, true));
        assert_eq!(p.interact(false, false, &mut rng), (false, false));
    }

    #[test]
    fn enumeration_round_trips() {
        let p = Epidemic;
        for i in 0..p.num_states() {
            assert_eq!(p.state_index(p.state_at(i)), i);
        }
    }
}
