//! The batched count-level engine: alias-table pair sampling and
//! multinomial interaction leaps over count flows.
//!
//! Three execution regimes for an [`EnumerableProtocol`] over `K` states,
//! from slowest/most-faithful to fastest/approximate:
//!
//! 1. [`crate::counts::CountedPopulation::step`] — one interaction at a
//!    time, `O(K)` weighted scans. Exact. The reference implementation.
//! 2. [`BatchedEngine::step`] — one interaction at a time, `O(1)` expected
//!    via a Walker alias table rebuilt lazily, only when the counts have
//!    changed since the last build. Exact: identical in law to (1).
//! 3. [`BatchedEngine::step_batch`] — a *τ-leap*: freezes the count vector
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
//! (pair, outcome) entry, which [`BatchedEngine::set_reference_leap`]
//! keeps as the test oracle. This is the count-level view of
//! Chatzigiannakis–Spirakis, *The Dynamics of Probabilistic Population
//! Protocols*.
//!
//! Which flow an alternative feeds depends on the law alone, not on the
//! counts, so the engine classifies the alternatives once per law: at
//! construction for tables and static kernels, after a refresh for
//! count-coupled kernels. A leap then only weighs the `K²` pairs and sums
//! each flow's terms, in the order the alternatives are enumerated, so
//! the flow weights carry the same bits as a per-leap classification.
//!
//! Randomized protocols τ-leap too, provided they declare their exact
//! per-pair outcome law via
//! [`EnumerableProtocol::pair_kernel`]: the engine freezes it into a
//! [`KernelTable`] whose outcomes feed the flows like tabulated pairs.
//! Randomized protocols *without* a kernel fall back to exact
//! per-interaction stepping.
//!
//! The pair law matches the agent-level scheduler exactly: the ordered
//! pair `(i, j)` has weight `x_i (x_j − δ_ij)` — sampling *without*
//! replacement, including the `δ` correction that removes the initiator
//! from its own state's responder pool.

use crate::counts::CountedPopulation;
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

    /// Whether pair `(i, j)` is a no-op on the count vector.
    #[inline]
    pub fn is_identity(&self, i: usize, j: usize) -> bool {
        self.targets[i * self.k + j] == (i as u32, j as u32)
    }
}

/// A randomized protocol's per-pair outcome law tabulated over all `K²`
/// ordered state pairs — the stochastic counterpart of
/// [`TransitionTable`], built from
/// [`EnumerableProtocol::pair_kernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTable {
    k: usize,
    /// `cells[i * k + j]` — the outcome pmf for ordered pair `(i, j)`,
    /// entries `((initiator', responder'), p)` with positive `p`.
    cells: Vec<Vec<((u32, u32), f64)>>,
    /// Whether cell `(i, j)` is a count-vector no-op with probability 1.
    identity: Vec<bool>,
}

/// Outcome probabilities must sum to 1 within this tolerance.
const KERNEL_SUM_TOL: f64 = 1e-9;

/// Validates one declared outcome pmf and writes its positive-mass entries
/// into `cell` (cleared first, allocation reused). Returns whether the
/// cell is an almost-sure count-vector no-op. Shared by the full
/// [`KernelTable::build_with`] construction and the incremental
/// [`KernelTable::refresh_at`] path so the two produce bitwise-identical
/// cells from identical inputs.
fn fill_cell(
    k: usize,
    i: usize,
    j: usize,
    outcomes: &[((usize, usize), f64)],
    cell: &mut Vec<((u32, u32), f64)>,
) -> Result<bool, PopulationError> {
    cell.clear();
    let mut total = 0.0f64;
    for &((a, b), p) in outcomes {
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
        total += p;
        if p > 0.0 {
            cell.push(((a as u32, b as u32), p));
        }
    }
    if (total - 1.0).abs() > KERNEL_SUM_TOL {
        return Err(PopulationError::InvalidArgument {
            reason: format!("kernel pmf for pair ({i}, {j}) sums to {total}"),
        });
    }
    Ok(cell
        .iter()
        .all(|&((a, b), _)| (a as usize, b as usize) == (i, j)))
}

impl KernelTable {
    /// Tabulates a protocol's declared outcome kernel; `None` when any
    /// pair declines to state its law (no kernel ⇒ exact stepping).
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when a declared
    /// outcome maps outside the protocol's enumeration, and
    /// [`PopulationError::InvalidArgument`] when a pair's declared
    /// probabilities do not form a pmf (negative/non-finite mass or a
    /// total away from 1) — a protocol bug, named as such.
    pub fn build<P: EnumerableProtocol>(protocol: &P) -> Result<Option<Self>, PopulationError> {
        let k = protocol.num_states();
        let mut laws = KernelLaws::default();
        for cell in 0..k * k {
            let Some(entries) = protocol.pair_kernel(cell / k, cell % k) else {
                break;
            };
            laws.entries.extend(entries);
            laws.ends.push(laws.entries.len());
        }
        Self::from_laws(k, &laws)
    }

    /// Tabulates a *count-coupled* protocol's outcome kernel at the given
    /// population frequencies, in one
    /// [`EnumerableProtocol::pair_kernels_at_into`] call over every cell.
    /// The engine calls this at construction, and on every count change
    /// on the reference path ([`BatchedEngine::set_reference_leap`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTable::build`].
    pub fn build_at<P: EnumerableProtocol>(
        protocol: &P,
        freq: &[f64],
    ) -> Result<Option<Self>, PopulationError> {
        let k = protocol.num_states();
        let mut laws = KernelLaws::default();
        protocol.pair_kernels_at_into(freq, &vec![true; k * k], &mut laws);
        Self::from_laws(k, &laws)
    }

    /// Validates the cells `laws` holds, row by row from `(0, 0)`; `None`
    /// when it holds fewer than all `k²`.
    fn from_laws(k: usize, laws: &KernelLaws) -> Result<Option<Self>, PopulationError> {
        let mut cells = Vec::with_capacity(k * k);
        let mut identity = Vec::with_capacity(k * k);
        for (index, outcomes) in laws.cells().enumerate() {
            let mut cell = Vec::with_capacity(outcomes.len());
            identity.push(fill_cell(k, index / k, index % k, outcomes, &mut cell)?);
            cells.push(cell);
        }
        Ok((cells.len() == k * k).then_some(KernelTable { k, cells, identity }))
    }

    /// Refreshes the table in place at new frequencies, recomputing only
    /// the cells flagged in `dirty` (`dirty[i * k + j]`) and reusing every
    /// cell's allocation — the incremental counterpart of a full
    /// [`KernelTable::build_at`] rebuild. The dirty cells' laws come from
    /// one [`EnumerableProtocol::pair_kernels_at_into`] call into `laws`,
    /// caller-owned buffers reused across calls, so a warm refresh
    /// performs no heap allocation at all.
    ///
    /// Provided the protocol's [`EnumerableProtocol::pair_kernel_deps`]
    /// declarations are truthful and `dirty` covers every cell whose
    /// declared inputs changed, the refreshed table is **bitwise
    /// identical** to a freshly built one: clean cells keep values that
    /// could not have changed, and dirty cells are recomputed through the
    /// exact same validation/fill path as [`KernelTable::build_at`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`KernelTable::build`]; additionally
    /// [`PopulationError::InvalidArgument`] when the protocol declines to
    /// state a law mid-run (a count-coupled contract violation).
    pub fn refresh_at<P: EnumerableProtocol>(
        &mut self,
        protocol: &P,
        freq: &[f64],
        dirty: &[bool],
        laws: &mut KernelLaws,
    ) -> Result<(), PopulationError> {
        let k = self.k;
        debug_assert_eq!(dirty.len(), k * k, "dirty mask must cover every cell");
        laws.clear();
        protocol.pair_kernels_at_into(freq, dirty, laws);
        let mut written = laws.cells();
        for i in 0..k {
            for j in 0..k {
                let cell_index = i * k + j;
                if !dirty[cell_index] {
                    continue;
                }
                let Some(outcomes) = written.next() else {
                    return Err(PopulationError::InvalidArgument {
                        reason: format!(
                            "count-coupled protocol declined to state the law for \
                             pair ({i}, {j}) mid-run"
                        ),
                    });
                };
                self.identity[cell_index] =
                    fill_cell(k, i, j, outcomes, &mut self.cells[cell_index])?;
            }
        }
        Ok(())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.k
    }

    /// The positive-probability outcomes of ordered pair `(i, j)`.
    #[inline]
    pub fn outcomes(&self, i: usize, j: usize) -> &[((u32, u32), f64)] {
        &self.cells[i * self.k + j]
    }

    /// Whether pair `(i, j)` is almost surely a no-op on the count vector.
    #[inline]
    pub fn is_identity(&self, i: usize, j: usize) -> bool {
        self.identity[i * self.k + j]
    }
}

/// The high-throughput count-level engine.
///
/// Owns the protocol, the count vector, the lazily rebuilt alias table for
/// `O(1)` exact pair sampling, the cached [`TransitionTable`], and all
/// scratch buffers, so the hot loop performs no allocation.
///
/// # Example
///
/// ```
/// use popgame_population::batch::BatchedEngine;
/// use popgame_population::counts::CountedPopulation;
/// use popgame_population::classic::UndecidedDynamics;
/// use popgame_util::rng::rng_from_seed;
///
/// let pop = CountedPopulation::from_counts(vec![600, 400, 0]).unwrap();
/// let mut engine = BatchedEngine::new(UndecidedDynamics, pop).unwrap();
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
    /// Outcome kernel for randomized protocols that declare their law
    /// ([`EnumerableProtocol::pair_kernel`]); only built when `table` is
    /// unavailable. For count-coupled protocols (`coupled`), this is the
    /// kernel at the counts it was last rebuilt from.
    kernel: Option<KernelTable>,
    /// Whether the protocol's kernel is coupled to the current counts
    /// ([`EnumerableProtocol::kernel_depends_on_counts`]): the kernel is
    /// then rebuilt lazily whenever the counts have changed, and
    /// [`Protocol::interact`](crate::protocol::Protocol::interact) is
    /// never called.
    coupled: bool,
    /// Whether `kernel` predates a count change (count-coupled only).
    kernel_dirty: bool,
    alias: Option<AliasTable>,
    alias_dirty: bool,
    /// Scratch: indices of non-identity cells with positive weight (the
    /// reference leap path only).
    active_cells: Vec<usize>,
    /// Scratch: per-state count deltas of the current leap.
    deltas: Vec<i64>,
    /// Per-cell frequency dependencies declared by the protocol
    /// ([`EnumerableProtocol::pair_kernel_deps`]); count-coupled only.
    deps: Vec<KernelDeps>,
    /// Which states' counts changed since the kernel was last refreshed —
    /// the dirty mask driving the incremental refresh.
    stale: Vec<bool>,
    /// Scratch: per-cell dirty flags for [`KernelTable::refresh_at`].
    dirty_cells: Vec<bool>,
    /// Scratch: current frequencies, reused across refreshes.
    freq_scratch: Vec<f64>,
    /// Scratch: the dirty cells' declared laws, reused across refreshes.
    cell_laws: KernelLaws,
    /// The table's or kernel's count-changing alternatives, classified by
    /// effect ([`LeapLaw::classify`]).
    law: LeapLaw,
    /// Whether `law` predates the last kernel refresh (count-coupled only).
    /// The next leap brings it up to date, so exact steps never pay for it.
    law_stale: bool,
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
    /// Run the pre-incremental reference paths (full kernel rebuild per
    /// change, per-cell outcome chains). Kept for equivalence tests and
    /// benchmark baselines; see [`Self::set_reference_leap`].
    reference: bool,
    /// Work done since the last public call returned; published to the
    /// [`crate::metrics`] counters as each one returns.
    work: Tally,
}

/// One count flow of a leap: each of its draws moves one agent `i → a`
/// and one agent `j → b`. A single-agent flow has `j == b`, so its second
/// move is a no-op. `w` is the summed weight of every alternative with
/// this effect on the counts.
#[derive(Debug, Clone, Copy)]
struct Flow {
    i: u32,
    a: u32,
    j: u32,
    b: u32,
    w: f64,
}

/// One term of a single-agent flow: the probability `P(a, b | i, j)` (1 for
/// a tabulated pair) of an alternative of pair `i * k + j` whose only
/// effect on the counts is the flow's move.
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

/// Up to [`LANES`] consecutive single-agent flows `s → t`, summed together
/// over the term rows that end at `end` in [`LeapLaw::rows`].
#[derive(Debug, Clone, Copy)]
struct FlowGroup {
    moves: [(u32, u32); LANES],
    flows: u32,
    end: u32,
}

/// Where one outcome `(a, b)` of a pair went when its law was classified.
#[derive(Debug, Clone, Copy)]
struct Placed {
    ab: (u32, u32),
    at: Place,
}

#[derive(Debug, Clone, Copy)]
enum Place {
    /// A no-op or a swap: no flow.
    Dropped,
    /// Entry `e` of [`LeapLaw::both`].
    Both(u32),
    /// Lane `l` of row `r` of [`LeapLaw::rows`], at `r * LANES + l`.
    Lane(u32),
}

/// A law's count-changing alternatives, classified by their effect on the
/// counts once per law instead of once per leap: at construction for
/// tabulated and static kernels; for count-coupled kernels after a refresh
/// that changes which outcomes have mass, while a refresh that keeps them
/// only rewrites the probabilities in place ([`Self::reweigh`]).
///
/// A leap weights alternative `(i, j) → (a, b)` by `x_i (x_j − δ_ij) ·
/// P(a, b | i, j)` and sums the weights of each flow. Every flow keeps its
/// terms in `(i, j, outcome)` order, the order the alternatives are
/// enumerated in, so its sum does not depend on how flows are grouped.
/// Pads and pairs without weight add `±0`, which changes no sum.
#[derive(Debug, Clone, Default)]
struct LeapLaw {
    /// The single-agent flows in key order `s * k + t`, in groups.
    groups: Vec<FlowGroup>,
    /// Term rows: lane `l` of a group's rows holds the terms of its `l`-th
    /// flow, padded to the group's longest flow with [`PAD`].
    rows: Vec<[Term; LANES]>,
    /// Both-move entries in `(i, j, outcome)` order: the pair, and the
    /// moves with `w = P(a, b | i, j)`.
    both: Vec<(u32, Flow)>,
    /// Every outcome in `(i, j, outcome)` order, and where it went.
    placed: Vec<Placed>,
    /// Per pair `i * k + j`: the end of its outcomes in `placed`.
    pair_ends: Vec<u32>,
    /// Scratch: `(key, term, outcome)` in `(i, j, outcome)` order.
    raw: Vec<(u32, Term, u32)>,
    /// Scratch: `raw`'s terms and outcomes, sorted by key, stably.
    sorted: Vec<(Term, u32)>,
    /// Scratch: per-key offsets into `sorted`.
    offsets: Vec<u32>,
}

impl LeapLaw {
    /// Classifies every count-changing alternative of the table or kernel.
    fn classify(
        &mut self,
        k: usize,
        table: Option<&TransitionTable>,
        kernel: Option<&KernelTable>,
    ) {
        self.raw.clear();
        self.both.clear();
        self.placed.clear();
        self.pair_ends.clear();
        for i in 0..k {
            for j in 0..k {
                match (table, kernel) {
                    (Some(table), _) => self.push(k, (i, j), table.apply(i, j), 1.0),
                    (None, Some(kernel)) => {
                        for &((a, b), p) in kernel.outcomes(i, j) {
                            self.push(k, (i, j), (a as usize, b as usize), p);
                        }
                    }
                    (None, None) => {}
                }
                self.pair_ends.push(self.placed.len() as u32);
            }
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
            let mut row = [PAD; LANES];
            for (lane, &(_, start, end)) in lanes.iter().enumerate() {
                if start + r < end {
                    let (term, outcome) = self.sorted[start + r];
                    row[lane] = term;
                    let at = Place::Lane((self.rows.len() * LANES + lane) as u32);
                    self.placed[outcome as usize].at = at;
                }
            }
            self.rows.push(row);
        }
        let (flows, end) = (lanes.len() as u32, self.rows.len() as u32);
        self.groups.push(FlowGroup { moves, flows, end });
    }

    /// Classifies alternative `(i, j) → (a, b)` of probability `p`.
    /// Cancelling the states that both leave and enter the pair leaves
    /// nothing (a no-op or a swap, dropped), one move `s → t`, or two
    /// disjoint moves, which stay a both-move entry of their own.
    fn push(&mut self, k: usize, (i, j): (usize, usize), (a, b): (usize, usize), p: f64) {
        let (pair, outcome) = ((i * k + j) as u32, self.placed.len() as u32);
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
            let at = Place::Both(self.both.len() as u32);
            self.placed.push(Placed { ab, at });
            let (i, j) = (i as u32, j as u32);
            self.both.push((pair, Flow { i, a: ab.0, j, b: ab.1, w: p }));
            return;
        };
        // Single moves learn their place when their flow is laid out.
        self.placed.push(Placed { ab, at: Place::Dropped });
        if s != t {
            self.raw.push(((s * k + t) as u32, Term { p, pair }, outcome));
        }
    }

    /// Rewrites the probabilities of a refreshed kernel in place when every
    /// pair still has the outcomes it was classified with, in order;
    /// `false`, with the law half rewritten, when one does not.
    fn reweigh(&mut self, kernel: &KernelTable) -> bool {
        let mut start = 0;
        for (outcomes, &end) in kernel.cells.iter().zip(&self.pair_ends) {
            let placed = &self.placed[start..end as usize];
            if outcomes.len() != placed.len() {
                return false;
            }
            for (&(ab, p), place) in outcomes.iter().zip(placed) {
                if ab != place.ab {
                    return false;
                }
                match place.at {
                    Place::Dropped => {}
                    Place::Both(e) => self.both[e as usize].1.w = p,
                    Place::Lane(at) => {
                        let at = at as usize;
                        self.rows[at / LANES][at % LANES].p = p;
                    }
                }
            }
            start = end as usize;
        }
        true
    }
}

impl<P: EnumerableProtocol> BatchedEngine<P> {
    /// Wraps a counted population.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::StateOutOfRange`] when the population's
    /// count vector length does not match the protocol's state count.
    pub fn new(protocol: P, population: CountedPopulation) -> Result<Self, PopulationError> {
        let k = protocol.num_states();
        if population.counts().len() != k {
            return Err(PopulationError::StateOutOfRange {
                index: population.counts().len(),
                num_states: k,
            });
        }
        let coupled = protocol.kernel_depends_on_counts();
        let table = if coupled {
            None
        } else {
            TransitionTable::build(&protocol)?
        };
        let interactions = population.interactions();
        let counts = population.counts().to_vec();
        let n = population.len();
        let kernel = if coupled {
            // Probe the count-coupled kernel once at construction so a
            // malformed law errors here, not deep inside a run. A `None`
            // declaration is a contract violation with the same shape.
            let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
            let _build_span = crate::metrics::kernel_build_span();
            let built = KernelTable::build_at(&protocol, &freq)?;
            if built.is_none() {
                return Err(PopulationError::InvalidArgument {
                    reason: "count-coupled protocol declares no pair_kernel_at law".into(),
                });
            }
            crate::metrics::kernel_full_builds().inc();
            built
        } else if table.is_none() {
            let _build_span = crate::metrics::kernel_build_span();
            let built = KernelTable::build(&protocol)?;
            if built.is_some() {
                crate::metrics::kernel_full_builds().inc();
            }
            built
        } else {
            None
        };
        let deps = if coupled {
            (0..k * k)
                .map(|cell| protocol.pair_kernel_deps(cell / k, cell % k))
                .collect()
        } else {
            Vec::new()
        };
        let mut law = LeapLaw::default();
        law.classify(k, table.as_ref(), kernel.as_ref());
        Ok(BatchedEngine {
            protocol,
            counts,
            n,
            interactions,
            table,
            kernel,
            coupled,
            kernel_dirty: false,
            alias: None,
            alias_dirty: true,
            active_cells: Vec::with_capacity(k * k),
            deltas: vec![0; k],
            deps,
            stale: vec![false; k],
            dirty_cells: vec![false; k * k],
            freq_scratch: Vec::with_capacity(k),
            cell_laws: KernelLaws::default(),
            law,
            law_stale: false,
            flows: Vec::with_capacity(k * k),
            pair_w: Vec::with_capacity(k * k),
            tally: Vec::with_capacity(k * k),
            alias_prob: Vec::with_capacity(k * k),
            alias_slot: Vec::with_capacity(k * k),
            alias_small: Vec::with_capacity(k * k),
            alias_large: Vec::with_capacity(k * k),
            reference: false,
            work: Tally::default(),
        })
    }

    /// Switches the engine onto its *reference* execution paths: a full
    /// allocating [`KernelTable::build_at`] rebuild on every count change
    /// and the per-cell (unfused) multinomial chains — the pre-incremental
    /// implementation, preserved verbatim. The reference and default paths
    /// are identical in law (equivalence-tested), but draw different RNG
    /// streams; benchmarks use this switch to measure the incremental
    /// path's speedup and tests use it as an oracle.
    pub fn set_reference_leap(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// Builds the engine directly from per-state counts.
    ///
    /// # Errors
    ///
    /// Propagates count-vector validation and dimension mismatches.
    pub fn from_counts(protocol: P, counts: Vec<u64>) -> Result<Self, PopulationError> {
        Self::new(protocol, CountedPopulation::from_counts(counts)?)
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

    /// Converts back into a plain [`CountedPopulation`].
    pub fn into_population(self) -> CountedPopulation {
        CountedPopulation::from_parts(self.counts, self.interactions)
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

    /// Refreshes the count-coupled kernel when the counts have changed
    /// since it was last built. No-op for static-kernel protocols.
    ///
    /// The default path is *incremental*: only cells whose declared
    /// frequency dependencies ([`EnumerableProtocol::pair_kernel_deps`])
    /// intersect the states that actually changed are recomputed, in
    /// place, through reusable scratch buffers — no allocation on a warm
    /// refresh, and bitwise-identical results to a full rebuild. The
    /// reference path ([`Self::set_reference_leap`]) performs the full
    /// allocating rebuild instead.
    fn ensure_kernel(&mut self) {
        if !(self.coupled && self.kernel_dirty) {
            return;
        }
        if self.reference {
            let _span = crate::metrics::kernel_build_span();
            let freq: Vec<f64> = self
                .counts
                .iter()
                .map(|&c| c as f64 / self.n as f64)
                .collect();
            self.kernel = KernelTable::build_at(&self.protocol, &freq)
                .expect("count-coupled kernel law broke mid-run (protocol bug)");
            debug_assert!(self.kernel.is_some(), "validated at construction");
            self.work.kernel_full_builds += 1;
        } else {
            let _span = crate::metrics::kernel_refresh_span();
            self.freq_scratch.clear();
            self.freq_scratch
                .extend(self.counts.iter().map(|&c| c as f64 / self.n as f64));
            let any_stale = self.stale.iter().any(|&s| s);
            let mut recomputed = 0u64;
            for (cell, dirty) in self.dirty_cells.iter_mut().enumerate() {
                *dirty = match &self.deps[cell] {
                    KernelDeps::None => false,
                    KernelDeps::All => any_stale,
                    KernelDeps::States(states) => {
                        states.iter().any(|&s| self.stale[s])
                    }
                };
                recomputed += u64::from(*dirty);
            }
            self.work.kernel_refreshes += 1;
            self.work.dirty_cells += recomputed;
            let kernel = self
                .kernel
                .as_mut()
                .expect("coupled engines keep a kernel");
            kernel
                .refresh_at(
                    &self.protocol,
                    &self.freq_scratch,
                    &self.dirty_cells,
                    &mut self.cell_laws,
                )
                .expect("count-coupled kernel law broke mid-run (protocol bug)");
        }
        self.stale.iter_mut().for_each(|s| *s = false);
        self.kernel_dirty = false;
        self.law_stale = true;
    }

    /// One exact interaction via alias-table sampling: `O(1)` expected when
    /// the counts are unchanged since the last step, `O(K)` to rebuild the
    /// table after a change. Identical in law to
    /// [`CountedPopulation::step`]. Returns the sampled pre-interaction
    /// `(initiator_state, responder_state)` indices.
    ///
    /// Count-coupled protocols are exact here too: the kernel is rebuilt
    /// from the *current* frequencies before the outcome is drawn (an
    /// `O(K²)` rebuild after every count change).
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (usize, usize) {
        let pair = self.exact_step(rng);
        self.work.publish();
        pair
    }

    /// [`Self::step`] without publishing its work.
    fn exact_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (usize, usize) {
        self.ensure_kernel();
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
            None if self.coupled => {
                // Sample the outcome from the freshly rebuilt kernel —
                // `interact` is never called for count-coupled protocols.
                let kernel = self.kernel.as_ref().expect("coupled engines keep a kernel");
                let outs = kernel.outcomes(i, j);
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut chosen = outs.last().expect("kernel cells are non-empty").0;
                for &(out, p) in outs {
                    acc += p;
                    if u < acc {
                        chosen = out;
                        break;
                    }
                }
                (chosen.0 as usize, chosen.1 as usize)
            }
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
            self.kernel_dirty = true;
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
        if self.table.is_none() && self.kernel.is_none() {
            // Randomized transitions without a declared kernel cannot be
            // tabulated; stay exact.
            for _ in 0..batch {
                self.exact_step(rng);
            }
            return false;
        }
        if self.reference {
            self.leap_reference(batch, rng)
        } else {
            self.leap(batch, rng)
        }
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
    /// is `O(batch/n) = O(1/√n)`, strictly smaller than the paper's
    /// `O(1/n)`-per-agent eq. (5) idealization only by a vanishing
    /// factor — while amortizing the `O(K²)` leap cost over `√n`
    /// interactions.
    pub fn suggested_batch(&self) -> u64 {
        ((self.n as f64).sqrt() as u64).max(1)
    }

    /// The multinomial leap over frozen counts, drawn over count flows
    /// (see the module docs); splits on (rare) negative excursions.
    ///
    /// Count-coupled kernels are refreshed here from the counts being
    /// frozen, so the kernel shares the leap's own idealization exactly —
    /// overdraw splits re-enter through this refresh and see updated
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
        self.ensure_kernel();
        let k = self.counts.len();
        debug_assert!(
            self.table.is_some() || self.kernel.is_some(),
            "leap requires a table or a kernel"
        );
        if self.law_stale {
            let kernel = self.kernel.as_ref().expect("only count-coupled laws go stale");
            if !self.law.reweigh(kernel) {
                self.law.classify(k, None, Some(kernel));
            }
            self.law_stale = false;
        }
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
        for &(pair, flow) in &self.law.both {
            let wpair = self.pair_w[pair as usize];
            if wpair > 0.0 {
                let w = wpair * flow.w;
                active_weight += w;
                self.flows.push(Flow { w, ..flow });
            }
        }
        let mut start = 0;
        for group in &self.law.groups {
            let end = group.end as usize;
            let mut sums = [0.0f64; LANES];
            for row in &self.law.rows[start..end] {
                for (sum, term) in sums.iter_mut().zip(row) {
                    *sum += self.pair_w[term.pair as usize] * term.p;
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
                absorbed = if self.reference {
                    self.leap_reference(part, rng)
                } else {
                    self.leap(part, rng)
                };
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
            self.kernel_dirty = true;
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

    /// The pre-incremental leap: per-pair binomial chain with nested
    /// per-outcome chains and no identity-mass fusion. Identical in law to
    /// [`Self::leap`] (equivalence-tested), different in RNG stream; kept
    /// as the benchmark baseline and test oracle behind
    /// [`Self::set_reference_leap`]. Returns whether it found no active
    /// cell, like [`Self::leap`].
    fn leap_reference<R: Rng + ?Sized>(&mut self, batch: u64, rng: &mut R) -> bool {
        let _leap_span = crate::metrics::leap_span();
        self.work.leaps += 1;
        self.ensure_kernel();
        let k = self.counts.len();
        debug_assert!(
            self.table.is_some() || self.kernel.is_some(),
            "leap requires a table or a kernel"
        );
        // Enumerate non-identity cells with positive weight. For kernel
        // cells "identity" means almost surely a no-op; cells that are
        // no-ops only with some probability stay active and simply
        // contribute zero deltas on their identity outcomes.
        self.active_cells.clear();
        let mut active_weight = 0.0f64;
        for i in 0..k {
            let xi = self.counts[i];
            if xi == 0 {
                continue;
            }
            for j in 0..k {
                let identity = match &self.table {
                    Some(table) => table.is_identity(i, j),
                    None => self.kernel.as_ref().expect("checked above").is_identity(i, j),
                };
                if identity {
                    continue;
                }
                let w = xi as f64 * (self.counts[j] - u64::from(i == j)) as f64;
                if w > 0.0 {
                    self.active_cells.push(i * k + j);
                    active_weight += w;
                }
            }
        }
        let total_weight = self.n as f64 * (self.n - 1) as f64;
        if self.active_cells.is_empty() {
            // Absorbed: every remaining interaction is a no-op.
            self.interactions += batch;
            return true;
        }
        // How many of the `batch` interactions change anything at all.
        let p_active = (active_weight / total_weight).min(1.0);
        let mut remaining = sample_binomial(batch, p_active, rng);
        let mut mass_left = active_weight;
        // Binomial chain over the active cells.
        self.deltas.iter_mut().for_each(|d| *d = 0);
        for idx in 0..self.active_cells.len() {
            if remaining == 0 {
                break;
            }
            let cell = self.active_cells[idx];
            let (i, j) = (cell / k, cell % k);
            let w = self.counts[i] as f64 * (self.counts[j] - u64::from(i == j)) as f64;
            let q = if idx + 1 == self.active_cells.len() {
                1.0
            } else {
                (w / mass_left).clamp(0.0, 1.0)
            };
            let c = sample_binomial(remaining, q, rng);
            mass_left -= w;
            if c > 0 {
                remaining -= c;
                match &self.table {
                    Some(table) => {
                        let (a, b) = table.apply(i, j);
                        self.deltas[i] -= c as i64;
                        self.deltas[a] += c as i64;
                        self.deltas[j] -= c as i64;
                        self.deltas[b] += c as i64;
                    }
                    None => {
                        // Split this cell's c interactions multinomially
                        // over the kernel's outcomes (binomial chain).
                        let kernel = self.kernel.as_ref().expect("leap requires a kernel");
                        let outs = kernel.outcomes(i, j);
                        let mut cell_rem = c;
                        let mut cell_mass = 1.0f64;
                        for (out_idx, &((a, b), p)) in outs.iter().enumerate() {
                            if cell_rem == 0 {
                                break;
                            }
                            let oq = if out_idx + 1 == outs.len() {
                                1.0
                            } else {
                                (p / cell_mass).clamp(0.0, 1.0)
                            };
                            let oc = sample_binomial(cell_rem, oq, rng);
                            cell_mass -= p;
                            cell_rem -= oc;
                            let (a, b) = (a as usize, b as usize);
                            if oc > 0 && (a, b) != (i, j) {
                                self.deltas[i] -= oc as i64;
                                self.deltas[a] += oc as i64;
                                self.deltas[j] -= oc as i64;
                                self.deltas[b] += oc as i64;
                            }
                        }
                    }
                }
            }
        }
        self.commit_or_split(batch, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use popgame_util::rng::{rng_from_seed, stream_rng};
    use proptest::prelude::*;
    use rand::Rng;

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
        assert!(table.is_identity(1, 1));
        assert!(!table.is_identity(0, 1));
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

    #[test]
    fn kernel_table_tabulates_declared_randomized_protocols() {
        let kernel = KernelTable::build(&DeclaredRandomFlip).unwrap().unwrap();
        assert_eq!(kernel.num_states(), 3);
        assert_eq!(kernel.outcomes(0, 1).len(), 3);
        // (i, j) = (0, 1): outcome (0, 1) is the identity with p = 1/3,
        // but the cell as a whole is not an almost-sure no-op.
        assert!(!kernel.is_identity(0, 1));
        // Undeclared randomized protocols yield no kernel.
        assert!(KernelTable::build(&RandomFlip).unwrap().is_none());
        // Deterministic protocols don't need one, but building works.
        assert!(KernelTable::build(&Epidemic).unwrap().is_none());
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
    fn kernel_table_rejects_non_pmf_kernels() {
        let err = KernelTable::build(&BadKernel).unwrap_err();
        assert!(
            matches!(&err, PopulationError::InvalidArgument { reason } if reason.contains("sums to")),
            "{err}"
        );
        assert!(BatchedEngine::from_counts(BadKernel, vec![2, 2]).is_err());
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

    #[test]
    fn batch_one_matches_per_step_law_chi_square() {
        // Distributional equivalence at batch size 1: the end-state count
        // of the epidemic after a fixed horizon must follow the same law
        // under CountedPopulation::step and step_batch(1), across a seed
        // family. Two-sample chi-square over the infected-count histogram.
        let horizon = 40u64;
        let reps = 4_000u64;
        let bins = 12usize; // infected count in 1..=12 (n = 12)
        let mut hist_step = vec![0u64; bins + 1];
        let mut hist_batch = vec![0u64; bins + 1];
        for rep in 0..reps {
            let mut pop = CountedPopulation::from_counts(vec![11, 1]).unwrap();
            let mut rng = stream_rng(7, rep);
            pop.run(&Epidemic, horizon, &mut rng).unwrap();
            hist_step[pop.count(1) as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![11, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            for _ in 0..horizon {
                engine.step_batch(1, &mut rng).unwrap();
            }
            hist_batch[engine.counts()[1] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // dof <= 11; 99.9% quantile of chi2(11) ~ 31.3.
        assert!(chi2 < 31.3, "chi-square {chi2}: {hist_step:?} vs {hist_batch:?}");
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
        // tau-leap bias check: with batch = n/8 the epidemic's end-state
        // histogram stays within a loose two-sample chi-square of the
        // exact law (the bias is O(batch/n) per leap).
        let n = 64u64;
        let horizon = 6 * n;
        let reps = 2_000u64;
        let mut hist_step = vec![0u64; n as usize + 1];
        let mut hist_batch = vec![0u64; n as usize + 1];
        for rep in 0..reps {
            let mut pop = CountedPopulation::from_counts(vec![n - 1, 1]).unwrap();
            let mut rng = stream_rng(11, rep);
            pop.run(&Epidemic, horizon, &mut rng).unwrap();
            hist_step[pop.count(1) as usize] += 1;

            let mut engine =
                BatchedEngine::from_counts(Epidemic, vec![n - 1, 1]).unwrap();
            let mut rng = stream_rng(badge(rep), rep);
            engine.run_batched(horizon, n / 8, &mut rng).unwrap();
            hist_batch[engine.counts()[1] as usize] += 1;
        }
        let chi2 = two_sample_chi_square(&hist_step, &hist_batch);
        // Wide support (~65 cells): the 99.9% quantile of chi2(64) ~ 112;
        // allow extra room for the documented leap bias.
        assert!(chi2 < 160.0, "chi-square {chi2}");
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
        assert!(table.is_identity(1, 1));
        assert!(!table.is_identity(1, 0));
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
            unreachable!("count-coupled protocols run through pair_kernel_at")
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
        fn pair_kernel_at(
            &self,
            _i: usize,
            j: usize,
            freq: &[f64],
        ) -> Option<Vec<((usize, usize), f64)>> {
            let p0 = freq[0];
            Some(vec![((0, j), p0), ((1, j), 1.0 - p0)])
        }
    }

    #[test]
    fn count_coupled_protocols_are_rejected_by_agent_paths() {
        let mut pop = CountedPopulation::from_counts(vec![6, 6]).unwrap();
        let mut rng = rng_from_seed(2);
        assert!(matches!(
            pop.step(&FieldContagion, &mut rng),
            Err(PopulationError::InvalidArgument { .. })
        ));
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
            unreachable!("count-coupled protocols run through pair_kernel_at")
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
        fn pair_kernel_at(
            &self,
            i: usize,
            j: usize,
            freq: &[f64],
        ) -> Option<Vec<((usize, usize), f64)>> {
            if i == j {
                return Some(vec![((i, j), 1.0)]);
            }
            let p = 0.2 + 0.6 * freq[i];
            Some(vec![(((i + 1) % 4, j), p), ((i, j), 1.0 - p)])
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
        // refreshes only the stale initiators' cells after every count
        // change, τ-leaps refresh once per leap. Both route through
        // `refresh_at`, and both must sample the one declared law.
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

    /// The per-cell dirty mask `ensure_kernel` derives from the declared
    /// deps and the set of states whose counts changed — replicated here
    /// so the proptest can drive `refresh_at` exactly the way the engine
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
        fn pair_kernel_at(
            &self,
            _i: usize,
            j: usize,
            freq: &[f64],
        ) -> Option<Vec<((usize, usize), f64)>> {
            Some(vec![((0, j), 1.0 + freq[0])])
        }
    }

    #[test]
    fn count_coupled_construction_validates_the_declared_law() {
        assert!(matches!(
            BatchedEngine::from_counts(BrokenCoupled, vec![4, 4]).unwrap_err(),
            PopulationError::InvalidArgument { .. }
        ));
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
    fn round_trip_through_counted_population() {
        let pop = CountedPopulation::from_counts(vec![5, 5]).unwrap();
        let mut engine = BatchedEngine::new(Epidemic, pop).unwrap();
        let mut rng = rng_from_seed(5);
        engine.run_batched(100, 8, &mut rng).unwrap();
        let back = engine.into_population();
        assert_eq!(back.interactions(), 100);
        assert_eq!(back.len(), 10);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        assert!(BatchedEngine::from_counts(Epidemic, vec![5, 5, 5]).is_err());
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

    /// Asserts the flow leap and the reference (per-entry) leap agree in
    /// law on every state's final count after `horizon` interactions in
    /// leaps of `batch`. The two are the same law exactly, so the bound is
    /// the chi-square 99.9% quantile (Wilson–Hilferty), with no leap-bias
    /// allowance.
    fn assert_flow_leap_matches_reference(
        protocol: KernelOnly,
        start: &[u64],
        horizon: u64,
        batch: u64,
    ) {
        let n = start.iter().sum::<u64>() as usize;
        let mut hists = [vec![vec![0u64; n + 1]; start.len()], vec![vec![0u64; n + 1]; start.len()]];
        for rep in 0..4_000 {
            for (reference, hist) in [false, true].into_iter().zip(&mut hists) {
                let mut engine = BatchedEngine::from_counts(protocol, start.to_vec()).unwrap();
                engine.set_reference_leap(reference);
                let mut rng = stream_rng(if reference { badge(rep) } else { 0xF10 ^ rep }, rep);
                engine.run_batched(horizon, batch, &mut rng).unwrap();
                for (h, &c) in hist.iter_mut().zip(engine.counts()) {
                    h[c as usize] += 1;
                }
            }
        }
        for (state, (a, b)) in hists[0].iter().zip(&hists[1]).enumerate() {
            let populated = a.iter().zip(b).filter(|(&x, &y)| x + y > 0).count();
            let dof = populated.max(2) as f64 - 1.0;
            let h = 2.0 / (9.0 * dof);
            let bound = dof * (1.0 - h + 3.09 * h.sqrt()).powi(3);
            let chi2 = two_sample_chi_square(a, b);
            assert!(chi2 < bound, "state {state}: chi-square {chi2} >= {bound}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn flow_leap_matches_reference_when_flows_aggregate_across_responders() {
        assert_flow_leap_matches_reference(RESPONDER_SOFTMAX, &[8, 4, 4, 2, 2], 60, 10);
    }

    #[test]
    fn flow_leap_matches_reference_with_both_move_outcomes() {
        assert_flow_leap_matches_reference(PAIR_SHIFT, &[6, 5, 4, 3], 40, 6);
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
        let mut engine = BatchedEngine::from_counts(protocol, counts.to_vec()).unwrap();
        let k = counts.len();
        let mut alternatives = Vec::new();
        for i in 0..k {
            for j in 0..k {
                let w = counts[i] as f64 * counts[j].saturating_sub(u64::from(i == j)) as f64;
                if w <= 0.0 {
                    continue;
                }
                let outcomes = match (&engine.table, &engine.kernel) {
                    (Some(table), _) => vec![(table.apply(i, j), 1.0)],
                    (None, Some(kernel)) => kernel
                        .outcomes(i, j)
                        .iter()
                        .map(|&((a, b), p)| ((a as usize, b as usize), p))
                        .collect(),
                    (None, None) => unreachable!("tabulated or kernel protocols only"),
                };
                for (ab, p) in outcomes {
                    if ab != (i, j) {
                        alternatives.push(((i, j), ab, w * p));
                    }
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

        /// After any randomized walk of single-agent moves, a table
        /// maintained through `refresh_at` with the deps-derived dirty
        /// mask is bitwise identical to a fresh `build_at` — outcome
        /// masses compared by bit pattern, not just by `==`. Run against
        /// both the sparse-deps protocol and the conservative-`All` one.
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
                    KernelTable::build_at(&LocalDrift, freq)
                } else {
                    KernelTable::build_at(&FieldContagion, freq)
                }
                .unwrap()
                .unwrap()
            };
            let mut table = build(&freq_of(&counts));
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
                    table.refresh_at(&LocalDrift, &freq, &dirty, &mut scratch)
                } else {
                    table.refresh_at(&FieldContagion, &freq, &dirty, &mut scratch)
                }
                .unwrap();
                let rebuilt = build(&freq);
                prop_assert_eq!(&table, &rebuilt);
                let bits = |t: &KernelTable| {
                    t.cells
                        .iter()
                        .flatten()
                        .map(|&(ab, p)| (ab, p.to_bits()))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&table), bits(&rebuilt));
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
