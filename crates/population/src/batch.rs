//! The batched count-level engine: alias-table pair sampling and
//! multinomial interaction leaps over count flows.
//!
//! The engine holds a population as its count vector `(x_1, …, x_K)`, the
//! paper's collapse of the agents onto `z^t` (§2.2.1), and runs an
//! [`EnumerableProtocol`] over its `K` states in two regimes:
//!
//! 1. [`BatchedEngine::step`] — one interaction at a time, `O(1)` expected
//!    via a Walker alias table rebuilt lazily, only when the counts have
//!    changed since the last build. Exact: the pair is drawn with weight
//!    `x_i (x_j − δ_ij)`, the law of an ordered pair of distinct agents
//!    drawn uniformly at random (§1.1.1), so every count observable has
//!    the law of the model itself.
//! 2. [`BatchedEngine::step_batch`] — a *τ-leap*: freezes the count vector
//!    for `batch` interactions, draws how many of them make each count
//!    flow from the exact multinomial, and applies the flows in bulk.
//!    Work is `O(K²)` per **batch** instead of per interaction. Exact for
//!    `batch = 1`; for `batch > 1` it idealizes away the intra-batch
//!    count drift, an `O(batch/n)` perturbation per step of the same
//!    character as the paper's eq. (5) idealization (sampling with a
//!    frozen population). Leaps that would drive a count negative are
//!    split recursively, so conservation is unconditional.
//!
//! **Count flows.** Every interaction moves at most two agents, so a
//! leap's effect on the count vector depends only on how many agents made
//! each move `s → t`. The leap therefore weights every count-changing
//! alternative `(i, j) → (a, b)` — a tabulated pair, or one declared
//! outcome of a randomized pair — by `x_i (x_j − δ_ij) · P(a, b | i, j)`
//! and adds that weight into the flow keyed by its effect: `i → a` when
//! the responder stays, `j → b` when the initiator stays. Only an
//! alternative that moves both agents out of the pair, to states outside
//! it, stays un-aggregated. A leap draws over at most `K(K − 1)` flows
//! plus those entries. By the aggregation property of the multinomial
//! the per-flow totals have exactly the law of a draw over every
//! (pair, outcome) entry, so a leap that cannot overdraw has the law of
//! `batch` iid interactions from the frozen counts, which the tests
//! compute by convolution and check leaps against. This is the
//! count-level view of Chatzigiannakis–Spirakis, *The Dynamics of
//! Probabilistic Population Protocols*.
//!
//! Which flow an alternative feeds depends on the law alone, not on the
//! counts, so the engine classifies the alternatives once per law
//! ([`LeapLaw`]), at construction. A leap then only weighs the `K²` pairs
//! and sums each flow's terms, in the order the alternatives are
//! enumerated, so the flow weights carry the same bits as a per-leap
//! classification.
//!
//! A count-coupled law has one copy in the engine, the classified one.
//! Before a leap that follows a count change, the protocol writes the
//! laws of the cells whose declared inputs changed into reusable buffers
//! ([`KernelLaws`]), and [`LeapLaw::reweigh_at`] checks each pmf and
//! writes its probabilities straight to their terms, through a scatter
//! fixed when the law was classified. Only a change in which outcomes have
//! mass classifies the law afresh. An exact step reads the sampled pair's
//! law at the current counts; no per-cell kernel table is kept up to date.
//!
//! Randomized protocols τ-leap too, provided they declare their exact
//! per-pair outcome law via [`EnumerableProtocol::pair_kernel`] (or, when
//! it reads the counts, [`EnumerableProtocol::pair_kernels_at_into`]): at
//! construction the engine reads every cell's law in one call, checks each
//! pmf and classifies the outcomes ([`LeapLaw::from_laws`]), which then
//! feed the flows like tabulated pairs. Randomized protocols *without* a
//! declared law fall back to exact per-interaction stepping.
//!
//! The pair law is the model's scheduler exactly (§1.1.1): the ordered
//! pair `(i, j)` has weight `x_i (x_j − δ_ij)` — sampling *without*
//! replacement, including the `δ` correction that removes the initiator
//! from its own state's responder pool.

use crate::error::PopulationError;
use crate::metrics::Tally;
use crate::protocol::{EnumerableProtocol, KernelDeps, KernelLaws};
use popgame_util::sampler::{sample_binomial, AliasTable};
use rand::Rng;
use std::hint::select_unpredictable;

/// A protocol's transition function tabulated over all `K²` ordered state
/// pairs. Only available when the protocol is deterministic
/// ([`crate::protocol::Protocol::has_random_transitions`] is `false`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionTable {
    k: usize,
    /// `targets[i * k + j] = (initiator', responder')` as state indices.
    targets: Vec<(u32, u32)>,
}

impl TransitionTable {
    /// Tabulates a deterministic protocol; `None` when the protocol
    /// declares randomized transitions — or *behaves* randomized.
    ///
    /// Defense against a forgotten
    /// [`has_random_transitions`](crate::protocol::Protocol::has_random_transitions)
    /// override: every pair is probed three times with differently seeded
    /// RNGs, and any outcome mismatch downgrades the protocol to `None`
    /// (exact per-interaction stepping) instead of freezing one sampled
    /// outcome into the table.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when the protocol maps
    /// a pair outside its own enumeration.
    pub fn build<P: EnumerableProtocol>(
        protocol: &P,
    ) -> Result<Option<Self>, PopulationError> {
        if protocol.has_random_transitions() {
            return Ok(None);
        }
        let k = protocol.num_states();
        let mut targets = Vec::with_capacity(k * k);
        let mut probes = [
            popgame_util::rng::rng_from_seed(0x7AB1E),
            popgame_util::rng::rng_from_seed(0xD1CE),
            popgame_util::rng::rng_from_seed(0xF1_1B57),
        ];
        for i in 0..k {
            for j in 0..k {
                let (si, sj) = (protocol.state_at(i), protocol.state_at(j));
                let (ni, nj) = protocol.interact(si, sj, &mut probes[0]);
                for probe in &mut probes[1..] {
                    if protocol.interact(si, sj, probe) != (ni, nj) {
                        // Misdeclared randomized protocol: stay exact.
                        return Ok(None);
                    }
                }
                let (ni, nj) = (protocol.state_index(ni), protocol.state_index(nj));
                if ni >= k || nj >= k {
                    return Err(PopulationError::StateOutOfRange {
                        index: ni.max(nj),
                        num_states: k,
                    });
                }
                targets.push((ni as u32, nj as u32));
            }
        }
        Ok(Some(TransitionTable { k, targets }))
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.k
    }

    /// The post-interaction state indices for ordered pair `(i, j)`.
    #[inline]
    pub fn apply(&self, i: usize, j: usize) -> (usize, usize) {
        let (a, b) = self.targets[i * self.k + j];
        (a as usize, b as usize)
    }
}

/// Outcome probabilities must sum to 1 within this tolerance.
const KERNEL_SUM_TOL: f64 = 1e-9;

/// Checks one entry `(a, b)` of mass `p` of the declared pmf of pair `(i,
/// j)`: both states in range, the mass finite and non-negative. With
/// [`check_total`] these are the rules every declared law is held to,
/// whichever path reads it.
#[inline]
fn check_entry(
    k: usize,
    (i, j): (usize, usize),
    (a, b): (usize, usize),
    p: f64,
) -> Result<(), PopulationError> {
    if a >= k || b >= k {
        return Err(PopulationError::StateOutOfRange {
            index: a.max(b),
            num_states: k,
        });
    }
    if !p.is_finite() || p < 0.0 {
        return Err(PopulationError::InvalidArgument {
            reason: format!("kernel pmf for pair ({i}, {j}) has invalid mass {p}"),
        });
    }
    Ok(())
}

/// Checks that the masses of pair `(i, j)`'s pmf, summed in declaration
/// order, total 1 within [`KERNEL_SUM_TOL`].
#[inline]
fn check_total((i, j): (usize, usize), total: f64) -> Result<(), PopulationError> {
    if (total - 1.0).abs() > KERNEL_SUM_TOL {
        return Err(PopulationError::InvalidArgument {
            reason: format!("kernel pmf for pair ({i}, {j}) sums to {total}"),
        });
    }
    Ok(())
}

/// Checks pair `(i, j)`'s declared pmf by [`check_entry`] and
/// [`check_total`].
fn check_pmf(
    k: usize,
    ij: (usize, usize),
    outcomes: &[((usize, usize), f64)],
) -> Result<(), PopulationError> {
    let mut total = 0.0f64;
    for &(ab, p) in outcomes {
        check_entry(k, ij, ab, p)?;
        total += p;
    }
    check_total(ij, total)
}

/// The error of a count-coupled protocol that stops stating laws at pair
/// `(i, j)` after it stated them all at construction.
fn declined((i, j): (usize, usize)) -> PopulationError {
    PopulationError::InvalidArgument {
        reason: format!(
            "count-coupled protocol declined to state the law for pair ({i}, {j}) mid-run"
        ),
    }
}

/// The high-throughput count-level engine.
///
/// Owns the protocol, the count vector, the lazily rebuilt alias table for
/// `O(1)` exact pair sampling, the cached [`TransitionTable`], the leap's
/// classified law, and all scratch buffers, so the hot loop performs no
/// allocation.
///
/// # Example
///
/// ```
/// use popgame_population::batch::BatchedEngine;
/// use popgame_population::protocol::{EnumerableProtocol, Protocol};
/// use popgame_util::rng::rng_from_seed;
/// use rand::Rng;
///
/// /// Two-way annihilation: opposite opinions that meet both fall silent.
/// struct Annihilation;
///
/// impl Protocol for Annihilation {
///     type State = usize; // 0 = A, 1 = B, 2 = silent
///     fn interact<R: Rng + ?Sized>(&self, i: usize, r: usize, _rng: &mut R) -> (usize, usize) {
///         if i + r == 1 { (2, 2) } else { (i, r) }
///     }
/// }
///
/// impl EnumerableProtocol for Annihilation {
///     fn num_states(&self) -> usize {
///         3
///     }
///     fn state_index(&self, state: usize) -> usize {
///         state
///     }
///     fn state_at(&self, index: usize) -> usize {
///         index
///     }
/// }
///
/// let mut engine = BatchedEngine::from_counts(Annihilation, vec![600, 400, 0]).unwrap();
/// let mut rng = rng_from_seed(7);
/// engine.run_batched(100_000, 128, &mut rng).unwrap();
/// assert_eq!(engine.counts().iter().sum::<u64>(), 1000);
/// assert_eq!(engine.interactions(), 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct BatchedEngine<P: EnumerableProtocol> {
    protocol: P,
    counts: Vec<u64>,
    n: u64,
    interactions: u64,
    table: Option<TransitionTable>,
    /// Whether the protocol's kernel is coupled to the current counts
    /// ([`EnumerableProtocol::kernel_depends_on_counts`]): `law` is then
    /// re-weighed before each leap that follows a count change, and
    /// [`Protocol::interact`](crate::protocol::Protocol::interact) is
    /// never called.
    coupled: bool,
    alias: Option<AliasTable>,
    alias_dirty: bool,
    /// Scratch: per-state count deltas of the current leap.
    deltas: Vec<i64>,
    /// Per-cell frequency dependencies declared by the protocol
    /// ([`EnumerableProtocol::pair_kernel_deps`]); count-coupled only.
    deps: Vec<KernelDeps>,
    /// Which states' counts changed since `law` was last re-weighed — the
    /// dirty mask driving the incremental update (count-coupled only).
    stale: Vec<bool>,
    /// Scratch: per-cell flags of the cells whose laws the protocol
    /// writes, for [`LeapLaw::reweigh_at`] and coupled exact steps.
    dirty_cells: Vec<bool>,
    /// Scratch: current frequencies, reused across updates.
    freq_scratch: Vec<f64>,
    /// Scratch: the flagged cells' declared laws, reused across updates.
    cell_laws: KernelLaws,
    /// The count-changing alternatives of the table or of the declared
    /// kernel, classified by effect ([`LeapLaw`]); `None` for a randomized
    /// protocol that declares no kernel, which steps exactly instead.
    law: Option<LeapLaw>,
    /// Scratch: the count flows of a leap — at most `k(k − 1)`
    /// single-agent flows plus the un-aggregated both-move entries.
    flows: Vec<Flow>,
    /// Scratch: the pair weights `x_i (x_j − δ_ij)` of a leap, at
    /// `i * k + j`.
    pair_w: Vec<f64>,
    /// Scratch: draws per flow on the categorical path of a leap.
    tally: Vec<u64>,
    /// Scratch: Walker-alias buffers (acceptance probabilities, alias
    /// slots, and the small/large worklists of the build) for the
    /// categorical draw path of a leap. Rebuilt in place per leap — no
    /// allocation once capacity is reached.
    alias_prob: Vec<f64>,
    alias_slot: Vec<u32>,
    alias_small: Vec<u32>,
    alias_large: Vec<u32>,
    /// Work done since the last public call returned; published to the
    /// [`crate::metrics`] counters as each one returns.
    work: Tally,
}

/// One count flow of a leap: each of its draws moves one agent `i → a`
/// and one agent `j → b`. A single-agent flow has `j == b`, so its second
/// move is a no-op. `w` is the summed weight of every alternative with
/// this effect on the counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flow {
    i: u32,
    a: u32,
    j: u32,
    b: u32,
    w: f64,
}

/// One term of a single-agent flow while a law is classified: the
/// probability `P(a, b | i, j)` (1 for a tabulated pair) of an alternative
/// of pair `i * k + j` whose only effect on the counts is the flow's move.
#[derive(Debug, Clone, Copy)]
struct Term {
    p: f64,
    pair: u32,
}

/// Pads a lane past its flow's last term: it adds `x_0 (x_0 − 1) · 0 = ±0`.
const PAD: Term = Term { p: 0.0, pair: 0 };

/// Flow weights are summed in lanes of this many flows, one accumulator
/// each, so the additions of different flows overlap instead of waiting
/// on one another.
const LANES: usize = 4;

/// The [`LeapLaw::scatter`] slot of an outcome that feeds no flow, until
/// the classification ends and the sink slot is known.
const UNPLACED: u32 = u32::MAX;

/// Up to [`LANES`] consecutive single-agent flows `s → t`, summed together
/// over the term rows that end at `end` in [`LeapLaw::rows`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlowGroup {
    moves: [(u32, u32); LANES],
    flows: u32,
    end: u32,
}

/// A law's count-changing alternatives, classified by their effect on the
/// counts: the form a leap draws from, and for a count-coupled protocol
/// the one copy of its law the engine keeps.
///
/// A leap weights alternative `(i, j) → (a, b)` by `x_i (x_j − δ_ij) ·
/// P(a, b | i, j)` and sums the weights of each flow. Every flow keeps its
/// terms in `(i, j, outcome)` order, the order the alternatives are
/// enumerated in, so its sum does not depend on how flows are grouped.
/// Pads and pairs without weight add `±0`, which changes no sum.
///
/// Tabulated and static laws are classified once, at construction. A
/// count-coupled law is re-weighed before each leap that follows a count
/// change ([`Self::reweigh_at`]): the protocol writes the laws of the
/// cells whose inputs changed into caller-owned buffers, and each
/// probability goes straight to its term through a scatter fixed at
/// classification. Only a law whose positive-mass outcomes changed is
/// classified afresh.
#[derive(Debug, Clone, Default)]
pub struct LeapLaw {
    /// The single-agent flows in key order `s * k + t`, in groups.
    groups: Vec<FlowGroup>,
    /// Term rows: lane `l` of a group's rows holds the pair `i * k + j` of
    /// a term of its `l`-th flow; lanes past a flow's last term hold pads.
    rows: Vec<[u32; LANES]>,
    /// Both-move entries in `(i, j, outcome)` order: the pair, and the
    /// moves (with `w = 0`; the probability lives in `probs`).
    both: Vec<(u32, Flow)>,
    /// Every term's probability: both-move entry `e` at `e`, lane `l` of
    /// row `r` at `both.len() + r * LANES + l` (pads at 0), then one sink
    /// slot that takes the probabilities of outcomes feeding no flow.
    probs: Vec<f64>,
    /// Every positive-mass outcome `(a, b)` in `(i, j, outcome)` order,
    /// with the slot of `probs` its probability is written to.
    scatter: Vec<((u32, u32), u32)>,
    /// Per pair `i * k + j`: the end of its outcomes in `scatter`.
    pair_ends: Vec<u32>,
    /// Scratch: `(key, term, outcome)` in `(i, j, outcome)` order.
    raw: Vec<(u32, Term, u32)>,
    /// Scratch: `raw`'s terms and outcomes, sorted by key, stably.
    sorted: Vec<(Term, u32)>,
    /// Scratch: per-key offsets into `sorted`.
    offsets: Vec<u32>,
}

/// Two laws are equal when they classify the same outcomes into the same
/// flows and carry the same probabilities bit for bit (the sink slot and
/// the scratch buffers aside).
impl PartialEq for LeapLaw {
    fn eq(&self, other: &Self) -> bool {
        let bits = |law: &Self| {
            let terms = &law.probs[..law.probs.len().saturating_sub(1)];
            terms.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        };
        self.groups == other.groups
            && self.rows == other.rows
            && self.both == other.both
            && self.scatter == other.scatter
            && self.pair_ends == other.pair_ends
            && bits(self) == bits(other)
    }
}

impl LeapLaw {
    /// Checks and classifies a declared law over `k` states, the cells of
    /// `laws` listed row by row from `(0, 0)` as one
    /// [`EnumerableProtocol::pair_kernels_at_into`] call over every cell
    /// writes them: the law an engine starts from. `None` when `laws`
    /// holds fewer than all `k²` cells (the protocol declined a cell).
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when a declared
    /// outcome maps outside the `k` states, and
    /// [`PopulationError::InvalidArgument`] when a written cell's
    /// probabilities do not form a pmf (negative/non-finite mass or a
    /// total away from 1) — a protocol bug, named as such.
    pub fn from_laws(k: usize, laws: &KernelLaws) -> Result<Option<Self>, PopulationError> {
        let mut law = Self::default();
        Ok(law.classify_laws(k, laws)?.then_some(law))
    }

    /// Classifies a transition table's `K²` pairs, each with probability 1.
    fn from_table(table: &TransitionTable) -> Self {
        let k = table.k;
        let cells = (0..k * k).map(|pair| [(table.apply(pair / k, pair % k), 1.0)]);
        let mut law = Self::default();
        law.classify(k, cells);
        law
    }

    /// Brings a count-coupled law to `freq`, re-weighing the cells flagged
    /// in `dirty` (`dirty[i * k + j]`, row by row) — the engine's update
    /// before each leap that follows a count change. The protocol writes
    /// the flagged cells' laws in one
    /// [`EnumerableProtocol::pair_kernels_at_into`] call into `laws`,
    /// caller-owned buffers reused across calls, and each pmf is checked by
    /// the rules of [`Self::from_laws`] as its probabilities are written to
    /// their terms, so a warm update in place allocates nothing and copies
    /// each probability once.
    ///
    /// Provided the protocol's [`EnumerableProtocol::pair_kernel_deps`]
    /// declarations are truthful and `dirty` covers every cell whose
    /// declared inputs changed, the result equals a fresh
    /// [`Self::from_laws`] of every cell's law at `freq` bit for bit:
    /// clean cells keep values that could not have changed, and a flagged
    /// cell whose positive-mass outcomes are not the ones it was
    /// classified with sends the whole law back through classification,
    /// from every cell's law at `freq`. Returns whether
    /// the law was re-weighed in place (`false` after a fresh
    /// classification).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::from_laws`]; additionally
    /// [`PopulationError::InvalidArgument`] when the protocol declines to
    /// state a law mid-run (a count-coupled contract violation).
    pub fn reweigh_at<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        freq: &[f64],
        dirty: &[bool],
        laws: &mut KernelLaws,
    ) -> Result<bool, PopulationError> {
        let k = protocol.num_states();
        debug_assert_eq!(dirty.len(), k * k, "dirty mask must cover every cell");
        laws.clear();
        protocol.pair_kernels_at_into(freq, dirty, laws);
        if self.reweigh(k, dirty, laws)? {
            return Ok(true);
        }
        laws.clear();
        protocol.pair_kernels_at_into(freq, &vec![true; k * k], laws);
        if !self.classify_laws(k, laws)? {
            let written = laws.ends.len();
            return Err(declined((written / k, written % k)));
        }
        Ok(false)
    }

    /// [`Self::from_laws`] in place: checks every cell `laws` holds and,
    /// when it holds all `k²`, classifies them; `false`, with the law
    /// untouched, when it holds fewer.
    fn classify_laws(&mut self, k: usize, laws: &KernelLaws) -> Result<bool, PopulationError> {
        for (pair, outcomes) in laws.cells().enumerate() {
            check_pmf(k, (pair / k, pair % k), outcomes)?;
        }
        if laws.ends.len() < k * k {
            return Ok(false);
        }
        self.classify(k, laws.cells().map(|outcomes| outcomes.iter().copied()));
        Ok(true)
    }

    /// Writes the probabilities of the flagged cells' laws, which `laws`
    /// holds in cell order, through the scatter; `false`, with the law
    /// half rewritten, at the first cell whose positive-mass outcomes are
    /// not the ones it was classified with.
    fn reweigh(
        &mut self,
        k: usize,
        dirty: &[bool],
        laws: &KernelLaws,
    ) -> Result<bool, PopulationError> {
        let mut written = laws.cells();
        let mut start = 0;
        for (pair, &end) in self.pair_ends.iter().enumerate() {
            let placed = &self.scatter[start..end as usize];
            start = end as usize;
            if !dirty[pair] {
                continue;
            }
            let ij = (pair / k, pair % k);
            let outcomes = written.next().ok_or_else(|| declined(ij))?;
            let (mut total, mut next) = (0.0f64, 0);
            for &((a, b), p) in outcomes {
                check_entry(k, ij, (a, b), p)?;
                total += p;
                if p > 0.0 {
                    match placed.get(next) {
                        Some(&(ab, slot)) if ab == (a as u32, b as u32) => {
                            self.probs[slot as usize] = p;
                        }
                        _ => return Ok(false),
                    }
                    next += 1;
                }
            }
            check_total(ij, total)?;
            if next != placed.len() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Classifies the positive-mass outcomes of every pair, `cells` listing
    /// each pair's outcomes in `(i, j)` order, row by row.
    fn classify<C, O>(&mut self, k: usize, cells: C)
    where
        C: IntoIterator<Item = O>,
        O: IntoIterator<Item = ((usize, usize), f64)>,
    {
        self.raw.clear();
        self.both.clear();
        self.probs.clear();
        self.scatter.clear();
        self.pair_ends.clear();
        for (pair, outcomes) in cells.into_iter().enumerate() {
            for (ab, p) in outcomes {
                if p > 0.0 {
                    self.push(k, (pair / k, pair % k), ab, p);
                }
            }
            self.pair_ends.push(self.scatter.len() as u32);
        }
        // Stable counting sort of the terms by key; each `offsets[key]`
        // ends up at the end of its key's run.
        let keys = k * k;
        self.offsets.clear();
        self.offsets.resize(keys + 1, 0);
        for &(key, ..) in &self.raw {
            self.offsets[key as usize + 1] += 1;
        }
        for key in 0..keys {
            self.offsets[key + 1] += self.offsets[key];
        }
        self.sorted.clear();
        self.sorted.resize(self.raw.len(), (PAD, 0));
        for &(key, term, outcome) in &self.raw {
            let next = &mut self.offsets[key as usize];
            self.sorted[*next as usize] = (term, outcome);
            *next += 1;
        }
        self.groups.clear();
        self.rows.clear();
        let (mut lanes, mut filled) = ([(0, 0, 0); LANES], 0);
        let mut start = 0;
        for key in 0..keys {
            let end = self.offsets[key] as usize;
            if end > start {
                lanes[filled] = (key, start, end);
                filled += 1;
                if filled == LANES {
                    self.push_group(k, &lanes);
                    filled = 0;
                }
            }
            start = end;
        }
        if filled > 0 {
            self.push_group(k, &lanes[..filled]);
        }
        let sink = self.probs.len() as u32;
        self.probs.push(0.0);
        for (_, slot) in &mut self.scatter {
            if *slot == UNPLACED {
                *slot = sink;
            }
        }
    }

    /// Lays out the sorted terms of up to [`LANES`] flows, each `(key,
    /// start, end)`, as one group of padded rows.
    fn push_group(&mut self, k: usize, lanes: &[(usize, usize, usize)]) {
        let mut moves = [(0, 0); LANES];
        let mut longest = 0;
        for (lane, &(key, start, end)) in lanes.iter().enumerate() {
            moves[lane] = ((key / k) as u32, (key % k) as u32);
            longest = longest.max(end - start);
        }
        for r in 0..longest {
            let (mut pairs, mut probs) = ([PAD.pair; LANES], [PAD.p; LANES]);
            for (lane, &(_, start, end)) in lanes.iter().enumerate() {
                if start + r < end {
                    let (term, outcome) = self.sorted[start + r];
                    (pairs[lane], probs[lane]) = (term.pair, term.p);
                    let slot = (self.probs.len() + lane) as u32;
                    self.scatter[outcome as usize].1 = slot;
                }
            }
            self.rows.push(pairs);
            self.probs.extend(probs);
        }
        let (flows, end) = (lanes.len() as u32, self.rows.len() as u32);
        self.groups.push(FlowGroup { moves, flows, end });
    }

    /// Classifies alternative `(i, j) → (a, b)` of probability `p`.
    /// Cancelling the states that both leave and enter the pair leaves
    /// nothing (a no-op or a swap, dropped), one move `s → t`, or two
    /// disjoint moves, which stay a both-move entry of their own.
    fn push(&mut self, k: usize, (i, j): (usize, usize), (a, b): (usize, usize), p: f64) {
        let (pair, outcome) = ((i * k + j) as u32, self.scatter.len() as u32);
        let ab = (a as u32, b as u32);
        let (s, t) = if b == j {
            (i, a)
        } else if a == i {
            (j, b)
        } else if a == j {
            (i, b)
        } else if b == i {
            (j, a)
        } else {
            // Both-move entries precede every row in `probs`.
            self.scatter.push((ab, self.probs.len() as u32));
            self.probs.push(p);
            let (i, j) = (i as u32, j as u32);
            self.both.push((pair, Flow { i, a: ab.0, j, b: ab.1, w: 0.0 }));
            return;
        };
        // Single moves learn their slot when their flow is laid out.
        self.scatter.push((ab, UNPLACED));
        if s != t {
            self.raw.push(((s * k + t) as u32, Term { p, pair }, outcome));
        }
    }
}

impl<P: EnumerableProtocol> BatchedEngine<P> {
    /// Builds the engine over a population given by its per-state counts
    /// (`counts[s]` agents in state `s`).
    ///
    /// A randomized protocol's declared law is read here, in one
    /// [`EnumerableProtocol::pair_kernels_at_into`] call over every cell at
    /// the starting frequencies, and checked and classified by
    /// [`LeapLaw::from_laws`], so a malformed law errors at construction,
    /// not deep inside a run.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::TooFewAgents`] when the counts total
    /// fewer than two agents, then [`PopulationError::StateOutOfRange`]
    /// when their length does not match the protocol's state count or the
    /// protocol maps a pair outside its enumeration, and
    /// [`PopulationError::InvalidArgument`] when a declared law is not a
    /// pmf or a count-coupled protocol declines to state one.
    pub fn from_counts(protocol: P, counts: Vec<u64>) -> Result<Self, PopulationError> {
        let n: u64 = counts.iter().sum();
        if n < 2 {
            return Err(PopulationError::TooFewAgents { n: n as usize });
        }
        let k = protocol.num_states();
        if counts.len() != k {
            return Err(PopulationError::StateOutOfRange {
                index: counts.len(),
                num_states: k,
            });
        }
        let coupled = protocol.kernel_depends_on_counts();
        let table = if coupled {
            None
        } else {
            TransitionTable::build(&protocol)?
        };
        let mut cell_laws = KernelLaws::default();
        let law = match &table {
            Some(table) => Some(LeapLaw::from_table(table)),
            None => {
                let _build_span = crate::metrics::kernel_build_span();
                let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
                protocol.pair_kernels_at_into(&freq, &vec![true; k * k], &mut cell_laws);
                let law = LeapLaw::from_laws(k, &cell_laws)?;
                if law.is_some() {
                    crate::metrics::kernel_full_builds().inc();
                } else if coupled {
                    return Err(PopulationError::InvalidArgument {
                        reason: "count-coupled protocol states no law through pair_kernels_at_into"
                            .into(),
                    });
                }
                law
            }
        };
        let deps = if coupled {
            (0..k * k)
                .map(|cell| protocol.pair_kernel_deps(cell / k, cell % k))
                .collect()
        } else {
            Vec::new()
        };
        Ok(BatchedEngine {
            protocol,
            counts,
            n,
            interactions: 0,
            table,
            coupled,
            alias: None,
            alias_dirty: true,
            deltas: vec![0; k],
            deps,
            stale: vec![false; k],
            dirty_cells: vec![false; k * k],
            freq_scratch: Vec::with_capacity(k),
            cell_laws,
            law,
            flows: Vec::with_capacity(k * k),
            pair_w: Vec::with_capacity(k * k),
            tally: Vec::with_capacity(k * k),
            alias_prob: Vec::with_capacity(k * k),
            alias_slot: Vec::with_capacity(k * k),
            alias_small: Vec::with_capacity(k * k),
            alias_large: Vec::with_capacity(k * k),
            work: Tally::default(),
        })
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of agents.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when there are no agents (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Interactions executed so far (batched interactions included).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Normalized occupation frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| c as f64 / self.n as f64)
            .collect()
    }

    /// Whether every agent holds the same state (at most one non-zero
    /// count) — the count-level consensus observer.
    pub fn is_consensus(&self) -> bool {
        self.counts.iter().filter(|&&c| c > 0).count() <= 1
    }

    fn ensure_alias(&mut self) {
        if self.alias_dirty || self.alias.is_none() {
            let _span = crate::metrics::alias_rebuild_span();
            let weights: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
            self.alias = Some(AliasTable::new(&weights).expect("population non-empty"));
            self.alias_dirty = false;
            self.work.alias_rebuilds += 1;
        }
    }

    /// Writes the current frequencies into `freq_scratch`.
    fn fill_freq(&mut self) {
        let n = self.n as f64;
        self.freq_scratch.clear();
        self.freq_scratch
            .extend(self.counts.iter().map(|&c| c as f64 / n));
    }

    /// Brings a count-coupled `law` up to the current counts when they
    /// have changed since it was last re-weighed. Only cells whose
    /// declared frequency dependencies
    /// ([`EnumerableProtocol::pair_kernel_deps`]) intersect the states
    /// that changed are re-weighed, in place, through reusable scratch
    /// buffers: no allocation on a warm update, and the bits of a fresh
    /// classification ([`LeapLaw::reweigh_at`]).
    fn reweigh_law(&mut self) {
        if !(self.coupled && self.stale.contains(&true)) {
            return;
        }
        let _span = crate::metrics::kernel_refresh_span();
        self.fill_freq();
        let mut recomputed = 0u64;
        for (cell, dirty) in self.dirty_cells.iter_mut().enumerate() {
            *dirty = match &self.deps[cell] {
                KernelDeps::None => false,
                KernelDeps::All => true,
                KernelDeps::States(states) => states.iter().any(|&s| self.stale[s]),
            };
            recomputed += u64::from(*dirty);
        }
        self.work.kernel_refreshes += 1;
        self.work.dirty_cells += recomputed;
        self.law
            .as_mut()
            .expect("a count-coupled protocol has a law")
            .reweigh_at(
                &self.protocol,
                &self.freq_scratch,
                &self.dirty_cells,
                &mut self.cell_laws,
            )
            .expect("count-coupled kernel law broke mid-run (protocol bug)");
        self.stale.fill(false);
    }

    /// Draws the outcome of pair `(i, j)` of a count-coupled protocol from
    /// the pair's law at the current counts, which the protocol writes for
    /// this one cell. The pmf is checked by the rules of
    /// [`LeapLaw::from_laws`], and the walk sums its positive masses in
    /// declaration order.
    fn coupled_outcome<R: Rng + ?Sized>(
        &mut self,
        i: usize,
        j: usize,
        rng: &mut R,
    ) -> (usize, usize) {
        let k = self.counts.len();
        self.fill_freq();
        self.dirty_cells.fill(false);
        self.dirty_cells[i * k + j] = true;
        self.cell_laws.clear();
        self.protocol.pair_kernels_at_into(
            &self.freq_scratch,
            &self.dirty_cells,
            &mut self.cell_laws,
        );
        let broke = "count-coupled kernel law broke mid-run (protocol bug)";
        let outcomes = self.cell_laws.cells().next();
        let outcomes = outcomes.ok_or_else(|| declined((i, j))).expect(broke);
        check_pmf(k, (i, j), outcomes).expect(broke);
        let mut positive = outcomes.iter().filter(|&&(_, p)| p > 0.0);
        let last = positive.clone().next_back().expect("a pmf has mass").0;
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        positive
            .find(|&&(_, p)| {
                acc += p;
                u < acc
            })
            .map_or(last, |&(ab, _)| ab)
    }

    /// One exact interaction via alias-table sampling: `O(1)` expected when
    /// the counts are unchanged since the last step, `O(K)` to rebuild the
    /// table after a change. The ordered pair `(i, j)` is drawn with
    /// weight `x_i (x_j − δ_ij)`, as the model's scheduler draws it.
    /// Returns the sampled pre-interaction `(initiator_state,
    /// responder_state)` indices.
    ///
    /// Count-coupled protocols are exact here too: the outcome is drawn
    /// from the sampled pair's law at the *current* frequencies, which the
    /// protocol states afresh for the step.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (usize, usize) {
        let pair = self.exact_step(rng);
        self.work.publish();
        pair
    }

    /// [`Self::step`] without publishing its work.
    fn exact_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (usize, usize) {
        self.ensure_alias();
        let alias = self.alias.as_ref().expect("built above");
        // Initiator ∝ x_i.
        let i = alias.sample(rng);
        // Responder ∝ x_j − δ_ij via rejection: propose ∝ x_j; a proposal
        // equal to the initiator's state is accepted with probability
        // (x_i − 1)/x_i, which tilts the law to the without-replacement
        // weights. Expected proposals ≤ n/(n−1) ≤ 2.
        let j = loop {
            let j = alias.sample(rng);
            if j != i {
                break j;
            }
            let xi = self.counts[i];
            if xi > 1 && rng.gen::<f64>() * (xi as f64) < (xi - 1) as f64 {
                break j;
            }
        };
        let (ni, nj) = match &self.table {
            Some(table) => table.apply(i, j),
            // `interact` is never called for count-coupled protocols.
            None if self.coupled => self.coupled_outcome(i, j, rng),
            None => {
                let (si, sj) = (self.protocol.state_at(i), self.protocol.state_at(j));
                let (ni, nj) = self.protocol.interact(si, sj, rng);
                (self.protocol.state_index(ni), self.protocol.state_index(nj))
            }
        };
        if (ni, nj) != (i, j) {
            self.counts[i] -= 1;
            self.counts[ni] += 1;
            self.counts[j] -= 1;
            self.counts[nj] += 1;
            self.alias_dirty = true;
            for s in [i, ni, j, nj] {
                self.stale[s] = true;
            }
        }
        self.interactions += 1;
        self.work.exact_steps += 1;
        (i, j)
    }

    /// Executes `batch` interactions as one multinomial leap (see the
    /// module docs for the exactness contract). Falls back to exact
    /// per-interaction stepping for randomized protocols.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::TooFewAgents`] when `n < 2`.
    pub fn step_batch<R: Rng + ?Sized>(
        &mut self,
        batch: u64,
        rng: &mut R,
    ) -> Result<(), PopulationError> {
        self.check_pairs()?;
        self.batch_step(batch, rng);
        self.work.publish();
        Ok(())
    }

    /// A pair needs two agents.
    fn check_pairs(&self) -> Result<(), PopulationError> {
        if self.n < 2 {
            return Err(PopulationError::TooFewAgents { n: self.n as usize });
        }
        Ok(())
    }

    /// [`Self::step_batch`] past its check, without publishing its work.
    /// Returns whether its last leap found the population absorbed: every
    /// later leap is then a no-op that draws no random number.
    fn batch_step<R: Rng + ?Sized>(&mut self, batch: u64, rng: &mut R) -> bool {
        if self.law.is_none() {
            // Randomized transitions without a declared kernel cannot be
            // tabulated; stay exact.
            for _ in 0..batch {
                self.exact_step(rng);
            }
            return false;
        }
        self.leap(batch, rng)
    }

    /// Runs `total` interactions in leaps of `batch` (the final leap is
    /// ragged). Once a leap finds the population absorbed, the clock jumps
    /// to the end of the run: the leaps left could neither change a count
    /// nor draw a random number, so the result and the RNG stream are
    /// those of running them.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step_batch`] errors.
    pub fn run_batched<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
    ) -> Result<(), PopulationError> {
        self.run_loop(total, batch, rng, None)
    }

    /// [`Self::run_batched`] with bounded-memory trajectory capture: the
    /// count vector is offered to `recorder` before the first leap and
    /// after every leap (in the skipped absorbed tail, at the clocks the
    /// recorder keeps), and the final state is always retained
    /// ([`crate::trajectory::TrajectoryRecorder::force`]). The recorder never consumes
    /// randomness, so a recorded run draws exactly the same RNG stream —
    /// and reaches exactly the same final counts — as an unrecorded
    /// [`Self::run_batched`] with the same arguments (both are thin
    /// wrappers over one leap loop).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step_batch`] errors.
    pub fn run_recorded<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
        recorder: &mut crate::trajectory::TrajectoryRecorder,
    ) -> Result<(), PopulationError> {
        self.run_loop(total, batch, rng, Some(recorder))
    }

    /// The shared leap loop behind [`Self::run_batched`] and
    /// [`Self::run_recorded`]; the recorder is observation-only.
    ///
    /// Once a leap finds the population absorbed, no later leap can change
    /// a count or draw a random number, so the loop jumps the clock to the
    /// end of the run ([`Self::skip_absorbed`]) instead of leaping on.
    fn run_loop<R: Rng + ?Sized>(
        &mut self,
        total: u64,
        batch: u64,
        rng: &mut R,
        mut recorder: Option<&mut crate::trajectory::TrajectoryRecorder>,
    ) -> Result<(), PopulationError> {
        assert!(batch > 0, "batch size must be positive");
        if let Some(rec) = recorder.as_deref_mut() {
            rec.offer(self.interactions, &self.counts);
        }
        if total > 0 {
            self.check_pairs()?;
        }
        let mut executed = 0u64;
        while executed < total {
            let burst = batch.min(total - executed);
            let absorbed = self.batch_step(burst, rng);
            executed += burst;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.offer(self.interactions, &self.counts);
            }
            if absorbed {
                self.skip_absorbed(total - executed, batch, recorder.as_deref_mut());
                break;
            }
        }
        if let Some(rec) = recorder {
            rec.force(self.interactions, &self.counts);
        }
        self.work.publish();
        Ok(())
    }

    /// Advances the clock over the `rest` interactions that leaps of
    /// `batch` would spend on an absorbed population. Those leaps would
    /// offer the recorder the clocks `start + m · batch` below `start +
    /// rest`, then `start + rest`, all with the same counts; only the
    /// clocks it keeps are offered, so it ends in the same state.
    fn skip_absorbed(
        &mut self,
        rest: u64,
        batch: u64,
        recorder: Option<&mut crate::trajectory::TrajectoryRecorder>,
    ) {
        let (start, end) = (self.interactions, self.interactions + rest);
        if let Some(rec) = recorder {
            loop {
                // The first clock those leaps offer at or past the due one.
                let due = rec.next_due();
                let leaps = due.saturating_sub(start).div_ceil(batch).max(1);
                let clock = start + leaps.saturating_mul(batch).min(rest);
                if clock < due {
                    break;
                }
                rec.offer(clock, &self.counts);
                if clock == end {
                    break;
                }
            }
        }
        self.interactions = end;
    }

    /// A batch size balancing leap overhead against τ-leap drift:
    /// `max(1, √n)`. Scaling sublinearly keeps the frozen-count
    /// idealization *vanishing* in `n` — the per-interaction perturbation
    /// is `O(batch/n) = O(1/√n)`, larger than the paper's
    /// `O(1/n)`-per-agent eq. (5) idealization by a factor `√n` but
    /// still vanishing — while amortizing the `O(K²)` leap cost over `√n`
    /// interactions.
    pub fn suggested_batch(&self) -> u64 {
        ((self.n as f64).sqrt() as u64).max(1)
    }

    /// The multinomial leap over frozen counts, drawn over count flows
    /// (see the module docs); splits on (rare) negative excursions.
    ///
    /// Count-coupled laws are re-weighed here from the counts being
    /// frozen, so the law shares the leap's own idealization exactly —
    /// overdraw splits re-enter through this update and see updated
    /// frequencies.
    ///
    /// The law's count-changing alternatives were classified by effect
    /// once ([`LeapLaw`]), so building the flows takes the `K²` pair
    /// weights `x_i (x_j − δ_ij)` and one multiply-add per term: a flow
    /// weighs `Σ x_i (x_j − δ_ij) · P(a, b | i, j)` over its terms, summed
    /// in `(i, j, outcome)` order. This is exact: per-entry multinomial
    /// counts, summed over the entries of one flow, are multinomial with
    /// the summed weights, and the deltas see the draw only through those
    /// sums.
    ///
    /// A leading `p_active` binomial thins away all no-op mass, so near
    /// equilibrium most leaps end after a handful of small draws. The
    /// surviving draws go to the flows through a fused binomial chain or,
    /// when they are few relative to the flows, iid categorical draws from
    /// a Walker alias table — the same multinomial law by the splitting
    /// property.
    ///
    /// The hot loops avoid `u64 ↔ f64` conversions, which lower to
    /// multi-instruction sequences on baseline x86-64 (one `cvtsi2sd` or
    /// `cvttsd2si` serves `i64` and `u32`): counts convert through `i64`
    /// and alias slots are `u32`. Both are exact, as every value is below
    /// 2⁵³, so the stream is the one plain `u64`/`usize` casts would give.
    ///
    /// Returns whether the leap found the population absorbed: no flow
    /// has weight, so it draws nothing and neither can any later leap.
    fn leap<R: Rng + ?Sized>(&mut self, batch: u64, rng: &mut R) -> bool {
        let _leap_span = crate::metrics::leap_span();
        self.work.leaps += 1;
        self.reweigh_law();
        let law = self.law.as_ref().expect("a leapable protocol has a law");
        // Pair weights through `i64`: exact, as every count is below 2⁵³.
        // An empty state's diagonal pair weighs `0 · (0 − 1) = −0`, which
        // adds to a flow's sum as `+0` does.
        self.pair_w.clear();
        for (i, &xi) in self.counts.iter().enumerate() {
            let xi = xi as i64 as f64;
            self.pair_w.extend(
                self.counts
                    .iter()
                    .enumerate()
                    .map(|(j, &xj)| xi * (xj as i64 - i64::from(i == j)) as f64),
            );
        }
        // The flows, summed into `active_weight` in flow order.
        self.flows.clear();
        let mut active_weight = 0.0;
        let (both_p, row_p) = law.probs.split_at(law.both.len());
        let (row_p, _) = row_p.as_chunks::<LANES>();
        for (&(pair, flow), &p) in law.both.iter().zip(both_p) {
            let wpair = self.pair_w[pair as usize];
            if wpair > 0.0 {
                let w = wpair * p;
                active_weight += w;
                self.flows.push(Flow { w, ..flow });
            }
        }
        let mut start = 0;
        for group in &law.groups {
            let end = group.end as usize;
            let mut sums = [0.0f64; LANES];
            for (pairs, probs) in law.rows[start..end].iter().zip(&row_p[start..end]) {
                for ((sum, &pair), &p) in sums.iter_mut().zip(pairs).zip(probs) {
                    *sum += self.pair_w[pair as usize] * p;
                }
            }
            start = end;
            for (&(s, t), &w) in group.moves.iter().zip(&sums).take(group.flows as usize) {
                if w > 0.0 {
                    active_weight += w;
                    self.flows.push(Flow { i: s, a: t, j: t, b: t, w });
                }
            }
        }
        if active_weight <= 0.0 {
            // Absorbed: every remaining interaction is a no-op.
            self.interactions += batch;
            return true;
        }
        let total_weight = self.n as f64 * (self.n - 1) as f64;
        // How many of the `batch` interactions change anything at all.
        let p_active = (active_weight / total_weight).min(1.0);
        let mut remaining = sample_binomial(batch, p_active, rng);
        self.deltas.iter_mut().for_each(|d| *d = 0);
        let flows = self.flows.len();
        if remaining > 0 && remaining < 12 * flows as u64 {
            // Draws cheaper than one binomial sample per flow: draw each
            // active interaction's flow iid-categorically from a Walker
            // alias table, at `O(F)` rebuild plus `O(1)` per draw, and
            // apply each flow's tally once.
            self.rebuild_flow_alias(active_weight);
            self.tally.clear();
            self.tally.resize(flows, 0);
            let (prob, alias, tally) = (&self.alias_prob, &self.alias_slot, &mut self.tally);
            let slots = flows as u32;
            for _ in 0..remaining {
                // One uniform per draw: the integer part picks the slot,
                // the fractional part accepts or aliases. Acceptance is a
                // coin flip as often as not, so select without a branch.
                let u = rng.gen::<f64>() * f64::from(slots);
                let slot = (u as u32).min(slots - 1);
                let (accept, other) = (prob[slot as usize], alias[slot as usize]);
                let idx = select_unpredictable(u - f64::from(slot) < accept, slot, other);
                tally[idx as usize] += 1;
            }
            for (flow, &c) in self.flows.iter().zip(&self.tally) {
                let c = c as i64;
                self.deltas[flow.i as usize] -= c;
                self.deltas[flow.a as usize] += c;
                self.deltas[flow.j as usize] -= c;
                self.deltas[flow.b as usize] += c;
            }
        } else {
            // Fused binomial chain over the flows.
            let mut mass_left = active_weight;
            for idx in 0..flows {
                if remaining == 0 {
                    break;
                }
                let flow = self.flows[idx];
                let q = if idx + 1 == flows {
                    1.0
                } else {
                    (flow.w / mass_left).clamp(0.0, 1.0)
                };
                let c = sample_binomial(remaining, q, rng);
                mass_left -= flow.w;
                if c > 0 {
                    remaining -= c;
                    let c = c as i64;
                    self.deltas[flow.i as usize] -= c;
                    self.deltas[flow.a as usize] += c;
                    self.deltas[flow.j as usize] -= c;
                    self.deltas[flow.b as usize] += c;
                }
            }
        }
        self.commit_or_split(batch, rng)
    }

    /// Applies the leap's `deltas` to the counts. A leap that would
    /// overdraw a state is instead split in half; each half sees refreshed
    /// counts, shrinking the draw. Returns whether the last half found
    /// the population absorbed.
    fn commit_or_split<R: Rng + ?Sized>(&mut self, batch: u64, rng: &mut R) -> bool {
        let overdraws = self
            .counts
            .iter()
            .zip(&self.deltas)
            .any(|(&c, &d)| (c as i64) + d < 0);
        if overdraws {
            if batch == 1 {
                // A single interaction can never overdraw; replay exactly.
                self.exact_step(rng);
                return false;
            }
            let half = batch / 2;
            let mut absorbed = false;
            for part in [half, batch - half] {
                absorbed = self.leap(part, rng);
            }
            return absorbed;
        }
        let mut changed = false;
        for (s, delta) in self.deltas.iter().enumerate() {
            if *delta != 0 {
                self.counts[s] = (self.counts[s] as i64 + delta) as u64;
                self.stale[s] = true;
                changed = true;
            }
        }
        self.interactions += batch;
        if changed {
            self.alias_dirty = true;
        }
        false
    }

    /// Rebuilds the Walker alias table over the current flow weights
    /// (total mass `total`) in place via the Vose pairing, reusing the
    /// engine's scratch buffers — the same construction as
    /// [`popgame_util::sampler::AliasTable`], without the per-leap
    /// allocations.
    fn rebuild_flow_alias(&mut self, total: f64) {
        let _span = crate::metrics::alias_rebuild_span();
        self.work.alias_rebuilds += 1;
        let entries = self.flows.len();
        self.alias_prob.clear();
        self.alias_prob
            .extend(self.flows.iter().map(|f| f.w * entries as f64 / total));
        self.alias_slot.clear();
        self.alias_slot.resize(entries, 0);
        self.alias_small.clear();
        self.alias_large.clear();
        for (i, &scaled) in self.alias_prob.iter().enumerate() {
            if scaled < 1.0 {
                self.alias_small.push(i as u32);
            } else {
                self.alias_large.push(i as u32);
            }
        }
        // `alias_prob` starts as the scaled weights (mean 1) and is
        // finalized in place: a slot popped from `small` keeps its current
        // value as its acceptance probability, and donates its deficit to
        // the paired large slot.
        while let (Some(&s), Some(&l)) =
            (self.alias_small.last(), self.alias_large.last())
        {
            self.alias_small.pop();
            let (s, l) = (s as usize, l as usize);
            self.alias_slot[s] = l as u32;
            self.alias_prob[l] = (self.alias_prob[l] + self.alias_prob[s]) - 1.0;
            if self.alias_prob[l] < 1.0 {
                self.alias_large.pop();
                self.alias_small.push(l as u32);
            }
        }
        for i in 0..self.alias_small.len() {
            let i = self.alias_small[i] as usize;
            self.alias_prob[i] = 1.0;
            self.alias_slot[i] = i as u32;
        }
        for i in 0..self.alias_large.len() {
            let i = self.alias_large[i] as usize;
            self.alias_prob[i] = 1.0;
            self.alias_slot[i] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use popgame_util::rng::{rng_from_seed, stream_rng};
    use proptest::prelude::*;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// One-way epidemic over {0: healthy, 1: infected}.
    #[derive(Clone, Copy)]
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
        fn state_index(&self, s: bool) -> usize {
            usize::from(s)
        }
        fn state_at(&self, i: usize) -> bool {
            i == 1
        }
    }

    /// Three-state cyclic rock-paper-scissors-like protocol: the initiator
    /// adopts the successor of the responder's state. Keeps all counts
    /// moving, which exercises the overdraw-splitting path.
    #[derive(Clone, Copy)]
    struct Cyclic;

    impl Protocol for Cyclic {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            ((r + 1) % 3, r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for Cyclic {
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

    /// A randomized protocol: the initiator flips to a uniform state.
    #[derive(Clone, Copy)]
    struct RandomFlip;

    impl Protocol for RandomFlip {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for RandomFlip {
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

    #[test]
    fn transition_table_tabulates_deterministic_protocols() {
        let table = TransitionTable::build(&Epidemic).unwrap().unwrap();
        assert_eq!(table.num_states(), 2);
        assert_eq!(table.apply(0, 1), (1, 1));
        assert_eq!(table.apply(0, 0), (0, 0));
        assert_eq!(table.apply(1, 1), (1, 1));
    }

    #[test]
    fn transition_table_refuses_randomized_protocols() {
        assert!(TransitionTable::build(&RandomFlip).unwrap().is_none());
    }

    /// `RandomFlip` with its outcome law declared: the initiator flips to
    /// a uniform state, so the kernel of `(i, j)` is `1/3` on each
    /// `((t, j))`. τ-leapable.
    #[derive(Clone, Copy)]
    struct DeclaredRandomFlip;

    impl Protocol for DeclaredRandomFlip {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for DeclaredRandomFlip {
        fn num_states(&self) -> usize {
            3
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn pair_kernel(&self, _i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
            Some((0..3).map(|t| ((t, j), 1.0 / 3.0)).collect())
        }
    }

    /// Every cell's declared law at `freq`, written by one
    /// `pair_kernels_at_into` call, as engine construction reads it.
    fn laws_at<P: EnumerableProtocol>(protocol: &P, freq: &[f64]) -> KernelLaws {
        let k = protocol.num_states();
        let mut laws = KernelLaws::default();
        protocol.pair_kernels_at_into(freq, &vec![true; k * k], &mut laws);
        laws
    }

    /// The law a fresh engine at `freq` starts from.
    fn fresh_law<P: EnumerableProtocol>(protocol: &P, freq: &[f64]) -> LeapLaw {
        let laws = laws_at(protocol, freq);
        LeapLaw::from_laws(protocol.num_states(), &laws).unwrap().expect("every cell stated")
    }

    #[test]
    fn from_laws_classifies_declared_randomized_protocols() {
        let laws = laws_at(&DeclaredRandomFlip, &[0.5, 0.25, 0.25]);
        // (i, j) = (0, 1): the identity (0, 1) is one of three outcomes.
        assert_eq!(laws.cells().nth(1).unwrap().len(), 3);
        assert!(LeapLaw::from_laws(3, &laws).unwrap().is_some());
        let engine = BatchedEngine::from_counts(DeclaredRandomFlip, vec![2, 1, 1]).unwrap();
        assert!(engine.law.is_some());
        // Undeclared randomized protocols state no law and step exactly.
        let laws = laws_at(&RandomFlip, &[0.5, 0.25, 0.25]);
        assert!(LeapLaw::from_laws(3, &laws).unwrap().is_none());
        let engine = BatchedEngine::from_counts(RandomFlip, vec![2, 1, 1]).unwrap();
        assert!(engine.law.is_none());
        // Deterministic protocols don't need one: they are tabulated.
        let engine = BatchedEngine::from_counts(Epidemic, vec![1, 1]).unwrap();
        assert!(engine.table.is_some() && engine.law.is_some());
    }

    /// A protocol declaring an ill-formed kernel (probabilities sum to 2).
    #[derive(Clone, Copy)]
    struct BadKernel;

    impl Protocol for BadKernel {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            (i, r)
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for BadKernel {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn pair_kernel(&self, i: usize, j: usize) -> Option<Vec<((usize, usize), f64)>> {
            Some(vec![((i, j), 1.0), ((j, i), 1.0)])
        }
    }

    #[test]
    fn from_laws_rejects_non_pmf_kernels() {
        let err = LeapLaw::from_laws(2, &laws_at(&BadKernel, &[0.5, 0.5])).unwrap_err();
        assert!(
            matches!(&err, PopulationError::InvalidArgument { reason } if reason.contains("sums to")),
            "{err}"
        );
        assert!(BatchedEngine::from_counts(BadKernel, vec![2, 2]).is_err());
        // One cell over one state: an outcome out of range, a mass that is
        // not a number, and no cell at all.
        let one_cell =
            |entry| KernelLaws { entries: vec![entry], ends: vec![1], ..Default::default() };
        assert!(matches!(
            LeapLaw::from_laws(1, &one_cell(((0, 1), 1.0))),
            Err(PopulationError::StateOutOfRange { index: 1, num_states: 1 })
        ));
        let err = LeapLaw::from_laws(1, &one_cell(((0, 0), f64::NAN))).unwrap_err();
        assert!(err.to_string().contains("invalid mass"), "{err}");
        assert!(LeapLaw::from_laws(1, &KernelLaws::default()).unwrap().is_none());
    }

    #[test]
    fn kernel_batch_matches_per_step_law_chi_square() {
        // Step-vs-batch distributional equivalence for a *randomized*
        // protocol executed through its declared kernel: final state-0
        // count of DeclaredRandomFlip after a fixed horizon, exact
        // stepping vs τ-leaps of n/4, two-sample chi-square.
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![10, 1, 1]).unwrap();
            let mut rng = stream_rng(23, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![10, 1, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // ~13 populated cells; 99.9% quantile of chi2(12) ~ 32.9, plus
        // room for the documented O(batch/n) leap bias.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A randomized protocol that *forgets* to override
    /// `has_random_transitions`: the probe pass must catch the mismatch
    /// and fall back to exact stepping instead of freezing one outcome.
    #[derive(Clone, Copy)]
    struct MisdeclaredRandom;

    impl Protocol for MisdeclaredRandom {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, r: u8, rng: &mut R) -> (u8, u8) {
            (rng.gen_range(0..3u8), r)
        }
        // has_random_transitions deliberately left at the false default.
    }

    impl EnumerableProtocol for MisdeclaredRandom {
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

    #[test]
    fn transition_table_detects_misdeclared_randomized_protocols() {
        assert!(
            TransitionTable::build(&MisdeclaredRandom).unwrap().is_none(),
            "probe pass must notice outcome mismatches"
        );
        // The engine still runs (exactly, per interaction).
        let mut engine =
            BatchedEngine::from_counts(MisdeclaredRandom, vec![4, 4, 4]).unwrap();
        let mut rng = rng_from_seed(13);
        engine.step_batch(200, &mut rng).unwrap();
        assert_eq!(engine.counts().iter().sum::<u64>(), 12);
        assert_eq!(engine.interactions(), 200);
    }

    #[test]
    fn alias_step_matches_reference_law() {
        // Chi-square over the sampled (initiator, responder) pre-state
        // pairs of the alias step against the exact without-replacement
        // law x_i (x_j - delta_ij) / (n (n-1)).
        let counts = [6u64, 3, 1];
        let n = 10u64;
        let draws = 120_000u64;
        let mut observed = [0u64; 9];
        for rep in 0..draws {
            let mut engine =
                BatchedEngine::from_counts(Cyclic, counts.to_vec()).unwrap();
            let mut rng = stream_rng(42, rep);
            let (i, j) = engine.step(&mut rng);
            observed[i * 3 + j] += 1;
        }
        let mut chi2 = 0.0;
        let mut cells = 0;
        for i in 0..3 {
            for j in 0..3 {
                let w = counts[i] as f64
                    * (counts[j] - u64::from(i == j)) as f64;
                let expected = w / (n as f64 * (n - 1) as f64) * draws as f64;
                let got = observed[i * 3 + j] as f64;
                if expected == 0.0 {
                    assert_eq!(got, 0.0, "impossible pair ({i},{j}) sampled");
                } else {
                    chi2 += (got - expected).powi(2) / expected;
                    cells += 1;
                }
            }
        }
        // 8 positive cells -> 7 dof; 99.9% quantile ~ 24.3.
        assert!(chi2 < 24.3, "pair-law chi-square too large: {chi2} ({cells} cells)");
    }

    /// The exact law of the epidemic's infected count `c` after `steps`
    /// interactions from `infected` of `n` agents, by forward recursion:
    /// an interaction infects one more agent when it pairs a healthy
    /// initiator with an infected responder, with probability
    /// `(n − c) c / n(n − 1)`.
    fn epidemic_law(n: u64, infected: u64, steps: u64) -> Vec<f64> {
        let n = n as usize;
        let mut law = vec![0.0; n + 1];
        law[infected as usize] = 1.0;
        let pairs = (n * (n - 1)) as f64;
        for _ in 0..steps {
            // Downwards, so each count's outflow reads its old mass.
            for c in (1..n).rev() {
                let moved = law[c] * ((n - c) * c) as f64 / pairs;
                law[c] -= moved;
                law[c + 1] += moved;
            }
        }
        law
    }

    /// Final infected counts of `reps` seeded runs of `horizon`
    /// interactions in leaps of `batch` from one infected agent of `n`,
    /// chi-squared against [`epidemic_law`]; returns the statistic and
    /// the 99.9% bound of [`pooled_chi_square`].
    fn epidemic_fit(n: u64, horizon: u64, batch: u64, reps: u64) -> (f64, f64) {
        let mut hist = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine = BatchedEngine::from_counts(Epidemic, vec![n - 1, 1]).unwrap();
            engine.run_batched(horizon, batch, &mut stream_rng(badge(rep), rep)).unwrap();
            hist[engine.counts()[1] as usize] += 1;
        }
        let law = epidemic_law(n, 1, horizon);
        pooled_chi_square(law.iter().zip(hist).map(|(&p, seen)| (p * reps as f64, seen)).collect())
    }

    #[test]
    fn batch_one_matches_per_step_law_chi_square() {
        // Leaps of one interaction are exact: the epidemic's infected
        // count after a fixed horizon follows the chain's exact law.
        let (chi2, bound) = epidemic_fit(12, 40, 1, 4_000);
        assert!(chi2 < bound, "chi-square {chi2} >= {bound}");
    }

    /// Decorrelates the second seed family from the first.
    fn badge(rep: u64) -> u64 {
        0x5eed ^ rep.wrapping_mul(0x9E37_79B9)
    }

    /// Two-sample chi-square statistic over paired histograms.
    fn two_sample_chi_square(a: &[u64], b: &[u64]) -> f64 {
        let (ta, tb) = (
            a.iter().sum::<u64>() as f64,
            b.iter().sum::<u64>() as f64,
        );
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

    #[test]
    fn moderate_batches_stay_distributionally_close() {
        // τ-leap bias check: with batch = n/8 the epidemic's infected
        // count stays within a loose chi-square of the exact law (the
        // bias is O(batch/n) per leap).
        let n = 64;
        let (chi2, bound) = epidemic_fit(n, 6 * n, n / 8, 2_000);
        // Room above the 99.9% bound for the documented leap bias.
        assert!(chi2 < 160.0, "chi-square {chi2} (99.9% bound {bound})");
    }

    #[test]
    fn randomized_protocol_falls_back_to_exact_stepping() {
        let mut engine =
            BatchedEngine::from_counts(RandomFlip, vec![10, 10, 10]).unwrap();
        let mut rng = rng_from_seed(3);
        engine.step_batch(500, &mut rng).unwrap();
        assert_eq!(engine.interactions(), 500);
        assert_eq!(engine.counts().iter().sum::<u64>(), 30);
    }

    #[test]
    fn absorbed_population_leaps_in_constant_time() {
        let mut engine = BatchedEngine::from_counts(Epidemic, vec![0, 50]).unwrap();
        let mut rng = rng_from_seed(4);
        engine.run_batched(1_000_000_000, 1_000_000, &mut rng).unwrap();
        assert_eq!(engine.interactions(), 1_000_000_000);
        assert_eq!(engine.counts(), &[0, 50]);
        assert!(engine.is_consensus());
    }

    /// A *two-way* deterministic protocol: both agents adopt the larger of
    /// the two states (max-consensus). Exercises both-update tabulation.
    #[derive(Clone, Copy)]
    struct MaxConsensus;

    impl Protocol for MaxConsensus {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, i: u8, r: u8, _rng: &mut R) -> (u8, u8) {
            let m = i.max(r);
            (m, m)
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

    #[test]
    fn two_way_protocols_tabulate_both_updates() {
        let table = TransitionTable::build(&MaxConsensus).unwrap().unwrap();
        // Both components change: (0, 2) -> (2, 2) and (2, 0) -> (2, 2).
        assert_eq!(table.apply(0, 2), (2, 2));
        assert_eq!(table.apply(2, 0), (2, 2));
        assert_eq!(table.apply(1, 1), (1, 1));
        assert_eq!(table.apply(1, 0), (1, 1));
    }

    #[test]
    fn two_way_step_vs_batch_chi_square() {
        // Step-vs-batch distributional equivalence for a two-way protocol:
        // final max-state count after a fixed horizon, exact stepping vs
        // τ-leaps of n/4.
        let n = 12u64;
        let horizon = 20u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![6, 4, 2]).unwrap();
            let mut rng = stream_rng(51, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[2] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![6, 4, 2]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[2] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // ~11 populated cells; 99.9% quantile of chi2(10) ~ 29.6, plus
        // leap-bias room.
        assert!(chi2 < 42.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A *count-coupled* randomized protocol: the initiator flips to state
    /// 0 with probability equal to the current frequency of state 0
    /// (a mean-field-coupled contagion). Its law cannot be stated by
    /// `interact`.
    #[derive(Clone, Copy)]
    struct FieldContagion;

    impl Protocol for FieldContagion {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("count-coupled protocols run through pair_kernels_at_into")
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for FieldContagion {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
            let p0 = freq[0];
            write_laws(cells, laws, |_, j| vec![((0, j), p0), ((1, j), 1.0 - p0)]);
        }
    }

    /// Writes `law(i, j)` for every cell flagged in the `k²` cells of
    /// `cells`, as a count-coupled protocol answers `pair_kernels_at_into`.
    fn write_laws(cells: &[bool], laws: &mut KernelLaws, law: impl Fn(usize, usize) -> Law) {
        let k = cells.len().isqrt();
        for (cell, _) in cells.iter().enumerate().filter(|&(_, &flagged)| flagged) {
            laws.entries.extend(law(cell / k, cell % k));
            laws.ends.push(laws.entries.len());
        }
    }

    #[test]
    fn count_coupled_step_vs_batch_chi_square() {
        // The dynamic-kernel path: exact stepping rebuilds the kernel after
        // every count change; τ-leaps freeze it per leap. The two must stay
        // distributionally equivalent (the freeze is the same O(batch/n)
        // idealization as the leap itself).
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![8, 4]).unwrap();
            let mut rng = stream_rng(77, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![8, 4]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // 13 cells; 99.9% quantile of chi2(12) ~ 32.9, plus leap-bias room.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// A count-coupled protocol with *partial* kernel dependencies: four
    /// states on a ring, where cell `(i, j)` advances the initiator to
    /// `i + 1` with a probability that reads only `freq[i]` — declared
    /// via `KernelDeps::States([i])`, so the incremental refresh skips
    /// every cell whose initiator state kept its count. `FieldContagion`
    /// keeps the conservative `All` default; this one exercises the
    /// sparse mask.
    #[derive(Clone, Copy)]
    struct LocalDrift;

    impl Protocol for LocalDrift {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("count-coupled protocols run through pair_kernels_at_into")
        }
        fn is_one_way(&self) -> bool {
            true
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for LocalDrift {
        fn num_states(&self) -> usize {
            4
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
            write_laws(cells, laws, |i, j| {
                if i == j {
                    return vec![((i, j), 1.0)];
                }
                let p = 0.2 + 0.6 * freq[i];
                vec![(((i + 1) % 4, j), p), ((i, j), 1.0 - p)]
            });
        }
        fn pair_kernel_deps(&self, i: usize, j: usize) -> KernelDeps {
            if i == j {
                KernelDeps::None
            } else {
                KernelDeps::States(vec![i])
            }
        }
    }

    #[test]
    fn partial_deps_step_vs_batch_chi_square() {
        // Same battery as `count_coupled_step_vs_batch_chi_square`, but
        // over sparse `KernelDeps::States` declarations: exact stepping
        // reads the sampled pair's law afresh at every step, τ-leaps
        // re-weigh only the stale initiators' cells once per leap. Both
        // must sample the one declared law.
        let n = 12u64;
        let horizon = 30u64;
        let reps = 4_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut engine =
                BatchedEngine::from_counts(LocalDrift, vec![5, 3, 2, 2]).unwrap();
            let mut rng = stream_rng(901, rep);
            for _ in 0..horizon {
                engine.step(&mut rng);
            }
            hist_step[engine.counts()[0] as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(LocalDrift, vec![5, 3, 2, 2]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 4, &mut rng).unwrap();
            hist_batch[engine.counts()[0] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // 13 cells; 99.9% quantile of chi2(12) ~ 32.9, plus leap-bias room.
        assert!(chi2 < 45.0, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
    }

    /// The per-cell dirty mask `reweigh_law` derives from the declared
    /// deps and the set of states whose counts changed — replicated here
    /// so the proptest can drive `reweigh_at` exactly the way the engine
    /// does.
    fn deps_dirty_mask<P: EnumerableProtocol>(protocol: &P, changed: &[bool]) -> Vec<bool> {
        let k = protocol.num_states();
        let mut dirty = vec![false; k * k];
        for i in 0..k {
            for j in 0..k {
                dirty[i * k + j] = match protocol.pair_kernel_deps(i, j) {
                    KernelDeps::None => false,
                    KernelDeps::All => changed.iter().any(|&c| c),
                    KernelDeps::States(states) => states.iter().any(|&s| changed[s]),
                };
            }
        }
        dirty
    }

    /// A count-coupled protocol whose declared pmf breaks when any state
    /// empties (mass 1 + freq[0] at the boundary) — construction must
    /// surface the bug immediately.
    #[derive(Clone, Copy, Debug)]
    struct BrokenCoupled;

    impl Protocol for BrokenCoupled {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!()
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for BrokenCoupled {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
            write_laws(cells, laws, |_, j| vec![((0, j), 1.0 + freq[0])]);
        }
    }

    #[test]
    fn count_coupled_construction_validates_the_declared_law() {
        assert!(matches!(
            BatchedEngine::from_counts(BrokenCoupled, vec![4, 4]).unwrap_err(),
            PopulationError::InvalidArgument { .. }
        ));
    }

    /// A count-coupled protocol whose law is `FieldContagion`'s while
    /// `freq[0] ≥ 1/2` and breaks below: cell `(0, 0)` then puts all its
    /// mass on one outcome, a valid pmf with new positive outcomes, and
    /// cell `(1, 1)` is declined (`decline`) or states mass `1 + freq[0]`.
    #[derive(Clone, Copy, Debug)]
    struct FadingContagion {
        decline: bool,
    }

    impl Protocol for FadingContagion {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("count-coupled protocols run through pair_kernels_at_into")
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for FadingContagion {
        fn num_states(&self) -> usize {
            2
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn kernel_depends_on_counts(&self) -> bool {
            true
        }
        fn pair_kernels_at_into(&self, freq: &[f64], cells: &[bool], laws: &mut KernelLaws) {
            let p0 = freq[0];
            for (cell, _) in cells.iter().enumerate().filter(|&(_, &flagged)| flagged) {
                let j = cell % 2;
                let law = match (p0 < 0.5, cell) {
                    (true, 0) => vec![((1, 0), 1.0)],
                    (true, 3) if self.decline => return,
                    (true, 3) => vec![((0, 1), p0), ((1, 1), 1.0)],
                    _ => vec![((0, j), p0), ((1, j), 1.0 - p0)],
                };
                laws.entries.extend(law);
                laws.ends.push(laws.entries.len());
            }
        }
    }

    /// A law that was valid when classified and breaks mid-run is an
    /// error on both paths of `reweigh_at`: flagging only the broken cell
    /// `(1, 1)` re-weighs in place, flagging only `(0, 0)`, whose positive
    /// outcomes changed, sends the law to a fresh classification.
    #[test]
    fn mid_run_law_faults_are_errors_on_both_reweigh_paths() {
        for (decline, needle) in [(true, "mid-run"), (false, "sums to")] {
            let protocol = FadingContagion { decline };
            let law = fresh_law(&protocol, &[0.6, 0.4]);
            for flagged in [3, 0] {
                let mut dirty = [false; 4];
                dirty[flagged] = true;
                let mut scratch = KernelLaws::default();
                let err = law
                    .clone()
                    .reweigh_at(&protocol, &[0.4, 0.6], &dirty, &mut scratch)
                    .unwrap_err();
                assert!(
                    matches!(&err, PopulationError::InvalidArgument { reason } if reason.contains(needle)),
                    "decline {decline}, cell {flagged}: {err}"
                );
            }
            // Broken at the starting counts, construction refuses it.
            let err = BatchedEngine::from_counts(protocol, vec![2, 3]).unwrap_err();
            assert!(matches!(err, PopulationError::InvalidArgument { .. }), "{err}");
        }
    }

    #[test]
    fn recorded_runs_match_unrecorded_runs_bitwise() {
        use crate::trajectory::TrajectoryRecorder;
        let mut plain = BatchedEngine::from_counts(Cyclic, vec![40, 30, 30]).unwrap();
        let mut rng = rng_from_seed(17);
        plain.run_batched(10_000, 16, &mut rng).unwrap();

        let mut recorded = BatchedEngine::from_counts(Cyclic, vec![40, 30, 30]).unwrap();
        let mut rng = rng_from_seed(17);
        let mut rec = TrajectoryRecorder::new(32).unwrap();
        recorded.run_recorded(10_000, 16, &mut rng, &mut rec).unwrap();

        // The recorder draws no randomness: identical final counts.
        assert_eq!(plain.counts(), recorded.counts());
        assert_eq!(plain.interactions(), recorded.interactions());
        // Capture is bounded, spans the run, and conserves agents.
        let points = rec.points();
        assert!(points.len() >= 2 && points.len() <= 32, "{}", points.len());
        assert_eq!(points.first().unwrap().interactions, 0);
        assert_eq!(points.last().unwrap().interactions, 10_000);
        for p in points {
            assert_eq!(p.counts.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn construction_validation() {
        // Too few agents is reported first, then a length mismatch.
        for counts in [vec![1], vec![0, 0], vec![1, 0, 0]] {
            let n = counts.iter().sum::<u64>() as usize;
            assert!(matches!(
                BatchedEngine::from_counts(Epidemic, counts),
                Err(PopulationError::TooFewAgents { n: m }) if m == n
            ));
        }
        assert!(matches!(
            BatchedEngine::from_counts(Epidemic, vec![5, 5, 5]),
            Err(PopulationError::StateOutOfRange { index: 3, num_states: 2 })
        ));
        let mut engine = BatchedEngine::from_counts(Epidemic, vec![2, 3]).unwrap();
        assert_eq!((engine.len(), engine.interactions()), (5, 0));
        assert_eq!(engine.counts(), &[2, 3]);
        assert_eq!(engine.frequencies(), vec![0.4, 0.6]);
        engine.run_batched(100, 8, &mut rng_from_seed(5)).unwrap();
        assert_eq!((engine.len(), engine.interactions()), (5, 100));
    }

    /// A declared outcome pmf of one ordered pair.
    type Law = Vec<((usize, usize), f64)>;

    /// A randomized protocol over `k` states that runs only through its
    /// declared kernel `law(i, j)`.
    #[derive(Clone, Copy)]
    struct KernelOnly {
        k: usize,
        law: fn(usize, usize) -> Law,
    }

    impl Protocol for KernelOnly {
        type State = u8;
        fn interact<R: Rng + ?Sized>(&self, _i: u8, _r: u8, _rng: &mut R) -> (u8, u8) {
            unreachable!("runs through its declared kernel")
        }
        fn has_random_transitions(&self) -> bool {
            true
        }
    }

    impl EnumerableProtocol for KernelOnly {
        fn num_states(&self) -> usize {
            self.k
        }
        fn state_index(&self, s: u8) -> usize {
            s as usize
        }
        fn state_at(&self, i: usize) -> u8 {
            i as u8
        }
        fn pair_kernel(&self, i: usize, j: usize) -> Option<Law> {
            Some((self.law)(i, j))
        }
    }

    /// A static five-state kernel shaped like logit: the initiator adopts
    /// `t` with a probability that depends only on the responder's state
    /// `j`, so the alternatives of every pair `(i, j)` with the same `i`
    /// land in the same flows `i → t`, aggregated across `j`.
    const RESPONDER_SOFTMAX: KernelOnly = KernelOnly {
        k: 5,
        law: |_i, j| {
            let scores = [0.0, 0.7, -0.4, 1.1, 0.3];
            let w = scores.map(|u: f64| (u * (1.0 + j as f64 / 2.0)).exp());
            let total: f64 = w.iter().sum();
            (0..5).map(|t| ((t, j), w[t] / total)).collect()
        },
    };

    /// A four-state kernel with an outcome that moves both agents: pair
    /// `(i, j)` advances the initiator by one (p = 1/4), or the initiator
    /// by two and the responder by one (p = 1/4), else stays put. The
    /// second outcome is a both-move entry whenever neither target lies
    /// in `{i, j}`, and collapses to one move when a target does.
    const PAIR_SHIFT: KernelOnly = KernelOnly {
        k: 4,
        law: |i, j| {
            vec![
                (((i + 1) % 4, j), 0.25),
                (((i + 2) % 4, (j + 1) % 4), 0.25),
                ((i, j), 0.5),
            ]
        },
    };

    /// Post-leap count vectors, padded with zeros to five states.
    type Counts = [u64; 5];

    /// Every cell's outcome law at `counts`, as the protocol states it:
    /// its tabulated target with probability 1, or its declared pmf at
    /// the frequencies of `counts`.
    fn declared_laws<P: EnumerableProtocol>(protocol: &P, counts: &[u64]) -> Vec<Law> {
        let k = counts.len();
        if let Some(table) = TransitionTable::build(protocol).unwrap() {
            return (0..k * k).map(|cell| vec![(table.apply(cell / k, cell % k), 1.0)]).collect();
        }
        let n = counts.iter().sum::<u64>() as f64;
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
        laws_at(protocol, &freq).cells().map(<[_]>::to_vec).collect()
    }

    /// The exact law of the counts after `batch` interactions from
    /// `counts`, each drawn independently from the frozen pair law: the
    /// ordered pair `(i, j)` with probability `x_i (x_j − δ_ij) / n(n − 1)`,
    /// then outcome `(a, b)` with probability `P(a, b | i, j)` from
    /// `laws[i * k + j]`. The `batch`-fold convolution of the law of one
    /// interaction's effect on the counts.
    fn exact_leap_law(counts: &[u64], laws: &[Law], batch: u64) -> BTreeMap<Counts, f64> {
        let (k, n) = (counts.len(), counts.iter().sum::<u64>() as f64);
        let mut step = BTreeMap::<[i64; 5], f64>::new();
        for (cell, law) in laws.iter().enumerate() {
            let (i, j) = (cell / k, cell % k);
            let pairs = counts[i] as f64 * (counts[j] - u64::from(i == j)) as f64;
            for &((a, b), p) in law {
                let mut delta = [0; 5];
                delta[i] -= 1;
                delta[j] -= 1;
                delta[a] += 1;
                delta[b] += 1;
                *step.entry(delta).or_default() += pairs / (n * (n - 1.0)) * p;
            }
        }
        let mut start = [0; 5];
        start[..k].copy_from_slice(counts);
        let mut law = BTreeMap::from([(start, 1.0)]);
        for _ in 0..batch {
            let mut next = BTreeMap::new();
            for (before, &p) in &law {
                for (delta, &q) in &step {
                    let after = std::array::from_fn(|s| {
                        before[s].checked_add_signed(delta[s]).expect("counts >= 2 batch")
                    });
                    *next.entry(after).or_default() += p * q;
                }
            }
            law = next;
        }
        law
    }

    /// Leaps per case of [`assert_leap_matches_exact_law`].
    const LEAPS: u64 = 20_000;

    /// Checks one `batch`-interaction leap from `counts` against
    /// [`exact_leap_law`]: a [`pooled_chi_square`] over [`LEAPS`] seeded
    /// leaps, held to its 99.9% bound. No interaction takes more than two
    /// agents out of a state, so with every count at least `2 batch` no
    /// leap can overdraw and split. Returns the share of leaps that drew
    /// through the flow alias table rather than the binomial chain.
    fn assert_leap_matches_exact_law<P: EnumerableProtocol + Clone>(
        protocol: P,
        counts: &[u64],
        batch: u64,
        seed: u64,
    ) -> f64 {
        assert!(counts.iter().all(|&c| c >= 2 * batch), "a leap could split");
        let exact = exact_leap_law(counts, &declared_laws(&protocol, counts), batch);
        let engine = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let (mut observed, mut alias_leaps) = (BTreeMap::<Counts, u64>::new(), 0);
        for rep in 0..LEAPS {
            let mut leap = engine.clone();
            leap.batch_step(batch, &mut stream_rng(seed, rep));
            assert_eq!(leap.work.leaps, 1, "the leap split");
            alias_leaps += u64::from(leap.work.alias_rebuilds > 0);
            let mut after = [0; 5];
            after[..counts.len()].copy_from_slice(leap.counts());
            *observed.entry(after).or_default() += 1;
        }
        if let Some(after) = observed.keys().find(|after| !exact.contains_key(*after)) {
            panic!("a leap reached {after:?}, which the exact law cannot");
        }
        let cells = exact
            .iter()
            .map(|(after, &p)| (p * LEAPS as f64, observed.get(after).copied().unwrap_or(0)));
        let (chi2, bound) = pooled_chi_square(cells.collect());
        assert!(chi2 < bound, "chi-square {chi2} >= {bound}");
        alias_leaps as f64 / LEAPS as f64
    }

    /// A chi-square of observed against expected counts, `(expected,
    /// observed)` per cell, with the cells pooled, smallest expectation
    /// first, until each pooled cell expects at least 5. Returns the
    /// statistic and the chi-square 99.9% quantile of its degrees of
    /// freedom (Wilson–Hilferty).
    fn pooled_chi_square(mut cells: Vec<(f64, u64)>) -> (f64, f64) {
        if let Some(&(_, seen)) = cells.iter().find(|&&(e, o)| e == 0.0 && o > 0) {
            panic!("{seen} outcomes the exact law cannot reach");
        }
        cells.sort_by(|x, y| x.0.total_cmp(&y.0));
        let (mut bins, mut pool) = (Vec::new(), (0.0, 0));
        for (expected, seen) in cells {
            pool = (pool.0 + expected, pool.1 + seen);
            if pool.0 >= 5.0 {
                bins.push(std::mem::take(&mut pool));
            }
        }
        match bins.last_mut() {
            Some(last) => *last = (last.0 + pool.0, last.1 + pool.1),
            None => bins.push(pool),
        }
        let chi2: f64 = bins.iter().map(|&(e, o)| (o as f64 - e).powi(2) / e).sum();
        let dof = bins.len().max(2) as f64 - 1.0;
        let h = 2.0 / (9.0 * dof);
        (chi2, dof * (1.0 - h + 3.09 * h.sqrt()).powi(3))
    }

    /// One leap has the exact law of `batch` independent interactions
    /// from the frozen counts, on a static kernel whose flows aggregate
    /// across responders, a law with both-move outcomes, a deterministic
    /// two-way table and a count-coupled law. The short leaps draw
    /// through the flow alias table, the long ones through the binomial
    /// chain.
    #[test]
    fn one_leap_matches_the_exact_law() {
        let alias = [
            assert_leap_matches_exact_law(RESPONDER_SOFTMAX, &[8, 6, 6, 7, 9], 3, 1),
            assert_leap_matches_exact_law(PAIR_SHIFT, &[6, 7, 6, 8], 3, 2),
            assert_leap_matches_exact_law(MaxConsensus, &[6, 4, 5], 2, 3),
            assert_leap_matches_exact_law(FieldContagion, &[4, 6], 2, 4),
        ];
        let chain = [
            assert_leap_matches_exact_law(MaxConsensus, &[140, 150, 160], 70, 5),
            assert_leap_matches_exact_law(FieldContagion, &[160, 200], 80, 6),
        ];
        assert!(alias.iter().all(|&share| share > 0.5), "alias shares {alias:?}");
        assert!(chain.iter().all(|&share| share < 0.01), "alias shares {chain:?}");
    }

    /// Final counts of a seeded `run_batched(total, batch)` from `counts`.
    fn pinned_run<P: EnumerableProtocol>(
        protocol: P,
        counts: &[u64],
        total: u64,
        batch: u64,
        seed: u64,
    ) -> Vec<u64> {
        let mut engine = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let mut rng = rng_from_seed(seed);
        engine.run_batched(total, batch, &mut rng).unwrap();
        engine.counts().to_vec()
    }

    /// Pins the leap's RNG stream: golden final counts of fixed
    /// `(counts, total, batch, seed)` runs on a tabulated, a static-kernel,
    /// a count-coupled and a both-move protocol. Between them the runs
    /// draw through the alias path (few active draws per flow), the fused
    /// binomial chain (many), and overdraw splits (leaps of the whole
    /// population over small counts). A rewrite of the leap that keeps its
    /// law but moves its stream fails here, not only in the REPORT `cmp`.
    #[test]
    fn leap_stream_is_pinned() {
        let softmax = [800, 400, 400, 200, 200];
        let runs = [
            (
                "table, alias",
                pinned_run(MaxConsensus, &[400, 350, 250], 3_000, 40, 11),
                vec![0, 5, 995],
            ),
            (
                "table, chain",
                pinned_run(MaxConsensus, &[400, 350, 250], 1_200, 300, 12),
                vec![40, 195, 765],
            ),
            (
                "static kernel, alias",
                pinned_run(RESPONDER_SOFTMAX, &softmax, 20_000, 64, 13),
                vec![103, 481, 49, 1179, 188],
            ),
            (
                "static kernel, chain",
                pinned_run(RESPONDER_SOFTMAX, &softmax, 20_000, 2_000, 14),
                vec![118, 461, 47, 1183, 191],
            ),
            (
                "count-coupled, alias",
                pinned_run(LocalDrift, &[500, 300, 200, 200], 12_000, 30, 15),
                vec![299, 288, 333, 280],
            ),
            (
                "count-coupled, chain",
                pinned_run(LocalDrift, &[50, 30, 20, 20], 1_200, 240, 16),
                vec![35, 26, 27, 32],
            ),
            (
                "both-move, overdraw splits",
                pinned_run(PAIR_SHIFT, &[6, 5, 4, 3], 360, 90, 17),
                vec![2, 6, 8, 2],
            ),
            (
                "both-move, chain",
                pinned_run(PAIR_SHIFT, &[600, 500, 400, 300], 18_000, 1_800, 18),
                vec![465, 445, 452, 438],
            ),
        ];
        for (name, got, want) in runs {
            assert_eq!(got, want, "{name}: leap stream moved");
        }
    }

    /// FNV-1a over the flows a leap builds after `warmup` interactions in
    /// leaps of 60 from `counts`: every flow's moves and the bits of its
    /// weight, in flow order.
    fn flow_digest<P: EnumerableProtocol>(protocol: P, counts: &[u64], warmup: u64) -> u64 {
        let mut engine = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let mut rng = rng_from_seed(29);
        engine.run_batched(warmup, 60, &mut rng).unwrap();
        engine.leap(1, &mut rng);
        let words = engine.flows.iter().flat_map(|f| {
            [f.i.into(), f.a.into(), f.j.into(), f.b.into(), f.w.to_bits()]
        });
        words.fold(0xCBF2_9CE4_8422_2325, |h, word: u64| {
            (h ^ word).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Pins the bits of the flow weights, which a stream pin cannot see:
    /// a weight that moves by one ulp almost never moves a draw. Golden
    /// digests of the flows of a tabulated, a static-kernel, a
    /// count-coupled (after refreshes) and a both-move law.
    #[test]
    fn flow_weights_are_pinned_bitwise() {
        let softmax = [800, 400, 400, 200, 200];
        let digests = [
            flow_digest(MaxConsensus, &[400, 350, 250], 600),
            flow_digest(RESPONDER_SOFTMAX, &softmax, 0),
            flow_digest(LocalDrift, &[500, 300, 200, 200], 3_000),
            flow_digest(PAIR_SHIFT, &[600, 500, 400, 300], 3_000),
        ];
        let golden = [
            0xaa62_abf7_c7af_bf07,
            0x440d_2a06_5ea3_da25,
            0x585b_4be1_4ddb_40e3,
            0xe905_016b_80a5_9aa5,
        ];
        assert_eq!(digests, golden);
    }

    /// A count-changing alternative `((i, j), (a, b), weight)` of a leap.
    type Alternative = ((usize, usize), (usize, usize), f64);

    /// Runs one leap from `counts` and returns the flows it built, with
    /// every count-changing alternative it saw.
    fn leap_flows<P: EnumerableProtocol>(
        protocol: P,
        counts: &[u64],
        rng: &mut impl Rng,
    ) -> (Vec<Flow>, Vec<Alternative>) {
        let laws = declared_laws(&protocol, counts);
        let mut engine = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let k = counts.len();
        let mut alternatives = Vec::new();
        for (cell, law) in laws.into_iter().enumerate() {
            let (i, j) = (cell / k, cell % k);
            let w = counts[i] as f64 * counts[j].saturating_sub(u64::from(i == j)) as f64;
            for (ab, p) in law {
                if w > 0.0 && p > 0.0 && ab != (i, j) {
                    alternatives.push(((i, j), ab, w * p));
                }
            }
        }
        engine.leap(1, rng);
        (engine.flows.clone(), alternatives)
    }

    proptest! {
        /// Batch sizes 1, n, and 10n all conserve the total agent count.
        #[test]
        fn prop_batches_conserve_agents(
            healthy in 1u64..60,
            infected in 1u64..60,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = healthy + infected;
            let batch = [1, n, 10 * n][scale];
            let mut engine = BatchedEngine::from_counts(
                Epidemic,
                vec![healthy, infected],
            ).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(3 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 3 * n);
        }

        /// Kernel-driven leaps conserve agents across batch sizes.
        #[test]
        fn prop_kernel_leaps_conserve_agents(
            a in 1u64..40,
            b in 1u64..40,
            c in 1u64..40,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = a + b + c;
            let batch = [1, n, 10 * n][scale];
            let mut engine =
                BatchedEngine::from_counts(DeclaredRandomFlip, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 4 * n);
        }

        /// Count-coupled dynamic-kernel leaps conserve agents across batch
        /// sizes (the kernel is rebuilt per leap and per exact step).
        #[test]
        fn prop_count_coupled_conserves_agents(
            a in 1u64..40,
            b in 1u64..40,
            seed in 0u64..50,
            scale in 0usize..3,
        ) {
            let n = a + b;
            let batch = [1, n, 10 * n][scale];
            let mut engine =
                BatchedEngine::from_counts(FieldContagion, vec![a, b]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, batch, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            prop_assert_eq!(engine.interactions(), 4 * n);
        }

        /// Two-way protocols conserve agents under large batches: both
        /// halves of each tabulated update land in the deltas.
        #[test]
        fn prop_two_way_conserves_agents(
            a in 1u64..30,
            b in 1u64..30,
            c in 1u64..30,
            seed in 0u64..50,
        ) {
            let n = a + b + c;
            let mut engine =
                BatchedEngine::from_counts(MaxConsensus, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(4 * n, n, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
            // Max-consensus absorbs at the largest initially-present state.
            prop_assert!(engine.counts()[2] >= c);
        }

        /// The cyclic protocol (every cell active) conserves agents across
        /// batches too, exercising the overdraw split.
        #[test]
        fn prop_cyclic_conserves_under_large_batches(
            a in 1u64..30,
            b in 1u64..30,
            c in 1u64..30,
            seed in 0u64..50,
        ) {
            let n = a + b + c;
            let mut engine =
                BatchedEngine::from_counts(Cyclic, vec![a, b, c]).unwrap();
            let mut rng = rng_from_seed(seed);
            engine.run_batched(5 * n, n, &mut rng).unwrap();
            prop_assert_eq!(engine.counts().iter().sum::<u64>(), n);
        }

        /// After any randomized walk of single-agent moves, a law
        /// maintained through `reweigh_at` with the deps-derived dirty
        /// mask is bitwise identical to a fresh `from_laws` classification
        /// at the same counts — term probabilities compared by bit pattern, not
        /// just by `==`. Run against both the sparse-deps protocol and the
        /// conservative-`All` one.
        #[test]
        fn prop_incremental_refresh_matches_full_rebuild(
            seed in 0u64..150,
            moves in 1usize..24,
            sparse_flag in 0u8..2,
        ) {
            let sparse = sparse_flag == 1;
            let k = if sparse { 4usize } else { 2 };
            let mut counts = if sparse {
                vec![6u64, 4, 3, 3]
            } else {
                vec![9u64, 7]
            };
            let n: u64 = counts.iter().sum();
            let freq_of = |counts: &[u64]| -> Vec<f64> {
                counts.iter().map(|&c| c as f64 / n as f64).collect()
            };
            let build = |freq: &[f64]| {
                if sparse {
                    fresh_law(&LocalDrift, freq)
                } else {
                    fresh_law(&FieldContagion, freq)
                }
            };
            let mut law = build(&freq_of(&counts));
            let mut rng = rng_from_seed(seed);
            let mut scratch = KernelLaws::default();
            for _ in 0..moves {
                let from = rng.gen_range(0..k);
                let to = rng.gen_range(0..k);
                if from == to || counts[from] == 0 {
                    continue;
                }
                counts[from] -= 1;
                counts[to] += 1;
                let mut changed = vec![false; k];
                changed[from] = true;
                changed[to] = true;
                let freq = freq_of(&counts);
                let dirty = if sparse {
                    deps_dirty_mask(&LocalDrift, &changed)
                } else {
                    deps_dirty_mask(&FieldContagion, &changed)
                };
                if sparse {
                    law.reweigh_at(&LocalDrift, &freq, &dirty, &mut scratch)
                } else {
                    law.reweigh_at(&FieldContagion, &freq, &dirty, &mut scratch)
                }
                .unwrap();
                // `LeapLaw`'s `==` compares probabilities by bit pattern.
                prop_assert_eq!(&law, &build(&freq));
            }
        }

        /// A leap builds at most `k(k − 1)` single-agent flows, one per
        /// move `s → t`, plus one entry per both-move alternative, and
        /// the flows carry exactly the weight of the count-changing
        /// alternatives. Checked on the tabulated, the aggregating and
        /// the both-move protocols.
        #[test]
        fn prop_leap_builds_at_most_k_k_minus_1_flows_plus_both_moves(
            seed in 0u64..1_000,
            which in 0usize..3,
        ) {
            let mut rng = rng_from_seed(seed);
            let k = [3usize, 5, 4][which];
            let counts: Vec<u64> = (0..k).map(|_| rng.gen_range(0..6u64)).collect();
            prop_assume!(counts.iter().sum::<u64>() >= 2);
            let (flows, alternatives) = match which {
                0 => leap_flows(MaxConsensus, &counts, &mut rng),
                1 => leap_flows(RESPONDER_SOFTMAX, &counts, &mut rng),
                _ => leap_flows(PAIR_SHIFT, &counts, &mut rng),
            };
            let singles: Vec<(u32, u32)> = flows
                .iter()
                .filter(|f| f.j == f.b)
                .map(|f| (f.i, f.a))
                .collect();
            let mut keys = singles.clone();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(keys.len(), singles.len(), "one flow per move");
            prop_assert!(singles.iter().all(|&(s, t)| s != t));
            prop_assert!(singles.len() <= k * (k - 1));
            let both_moves = alternatives
                .iter()
                .filter(|&&((i, j), (a, b), _)| a != i && a != j && b != i && b != j)
                .count();
            prop_assert_eq!(flows.len() - singles.len(), both_moves);
            // Mass is conserved by the aggregation: every alternative whose
            // net effect is non-zero lands in exactly one flow.
            let moving: f64 = alternatives
                .iter()
                .filter(|&&((i, j), (a, b), _)| {
                    let mut from = [i, j];
                    let mut to = [a, b];
                    from.sort_unstable();
                    to.sort_unstable();
                    from != to
                })
                .map(|&(_, _, w)| w)
                .sum();
            let total: f64 = flows.iter().map(|f| f.w).sum();
            prop_assert!((total - moving).abs() <= 1e-9 * moving.max(1.0));
        }

        /// Alias stepping and reference stepping agree on monotonicity of
        /// the epidemic (infected never decreases) and conservation.
        #[test]
        fn prop_alias_step_invariants(seed in 0u64..80) {
            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![12, 3]).unwrap();
            let mut rng = rng_from_seed(seed);
            let mut prev = engine.counts()[1];
            for _ in 0..150 {
                engine.step(&mut rng);
                let now = engine.counts()[1];
                prop_assert!(now >= prev);
                prop_assert_eq!(engine.counts().iter().sum::<u64>(), 15);
                prev = now;
            }
        }
    }
}
