//! Bounded-memory trajectory capture for count-level runs.
//!
//! Long simulations execute millions of interactions; storing the count
//! vector after every leap would cost `O(steps)` memory and drown any
//! report in data. [`TrajectoryRecorder`] keeps a *strided* sample
//! instead: it accepts every offered snapshot whose interaction clock has
//! passed the next due tick, and whenever the buffer would exceed its
//! capacity it doubles the stride and discards every other retained
//! point. Memory is therefore bounded by the configured capacity while
//! the samples always span the whole run at uniform (power-of-two
//! thinned) density.
//!
//! The recorder is a pure function of the offered sequence — it never
//! draws randomness — so wiring it into a deterministic simulation (e.g.
//! [`crate::batch::BatchedEngine::run_recorded`]) leaves the run's RNG
//! stream, and hence its bitwise reproducibility, untouched.
//!
//! # Example
//!
//! ```
//! use popgame_population::trajectory::TrajectoryRecorder;
//!
//! let mut rec = TrajectoryRecorder::new(4).unwrap();
//! for t in 0..100u64 {
//!     rec.offer(t, &[t, 100 - t]);
//! }
//! assert!(rec.points().len() <= 4);
//! // The retained points still span the run.
//! assert_eq!(rec.points().first().unwrap().interactions, 0);
//! assert!(rec.points().last().unwrap().interactions >= 64);
//! ```

use crate::error::PopulationError;

/// One retained snapshot: the interaction clock and the count vector at
/// that instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Interactions executed when the snapshot was taken.
    pub interactions: u64,
    /// Per-state agent counts at that instant.
    pub counts: Vec<u64>,
}

impl TrajectoryPoint {
    /// The snapshot as normalized occupation frequencies.
    pub fn frequencies(&self) -> Vec<f64> {
        let n: u64 = self.counts.iter().sum();
        self.counts
            .iter()
            .map(|&c| c as f64 / n.max(1) as f64)
            .collect()
    }
}

/// A strided, capacity-bounded recorder of count-vector snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryRecorder {
    capacity: usize,
    stride: u64,
    next_due: u64,
    points: Vec<TrajectoryPoint>,
}

impl TrajectoryRecorder {
    /// Creates a recorder retaining at most `capacity` points.
    ///
    /// # Errors
    ///
    /// Returns [`PopulationError::InvalidArgument`] when `capacity < 2` —
    /// a trajectory needs at least a start and an end.
    pub fn new(capacity: usize) -> Result<Self, PopulationError> {
        if capacity < 2 {
            return Err(PopulationError::InvalidArgument {
                reason: format!("trajectory capacity must be >= 2, got {capacity}"),
            });
        }
        Ok(TrajectoryRecorder {
            capacity,
            stride: 1,
            next_due: 0,
            points: Vec::new(),
        })
    }

    /// Offers a snapshot; the recorder keeps it if the interaction clock
    /// has reached the next stride tick. Offers must arrive in
    /// non-decreasing `interactions` order (violations are ignored, not
    /// recorded).
    pub fn offer(&mut self, interactions: u64, counts: &[u64]) {
        if interactions < self.next_due {
            return;
        }
        self.push(interactions, counts);
    }

    /// Records a snapshot regardless of the stride (used for the final
    /// state of a run, which must be present whatever the thinning did).
    /// Like [`Self::offer`], clocks must be non-decreasing: a snapshot at
    /// or before the last retained clock is ignored, keeping
    /// [`Self::points`] strictly ordered.
    pub fn force(&mut self, interactions: u64, counts: &[u64]) {
        if self
            .points
            .last()
            .is_some_and(|p| p.interactions >= interactions)
        {
            return;
        }
        self.push(interactions, counts);
    }

    fn push(&mut self, interactions: u64, counts: &[u64]) {
        if self.points.len() == self.capacity {
            // Thin to every other point and double the stride: memory
            // stays bounded, coverage stays uniform over the whole run.
            let mut keep = 0usize;
            self.points.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.stride = self.stride.saturating_mul(2);
        }
        self.points.push(TrajectoryPoint {
            interactions,
            counts: counts.to_vec(),
        });
        self.next_due = interactions.saturating_add(self.stride);
    }

    /// The retained snapshots, in interaction order.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// Consumes the recorder, returning the retained snapshots.
    pub fn into_points(self) -> Vec<TrajectoryPoint> {
        self.points
    }

    /// The smallest clock [`Self::offer`] keeps next.
    pub(crate) fn next_due(&self) -> u64 {
        self.next_due
    }

    /// The current stride between accepted samples.
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced_and_coverage_spans_the_run() {
        let mut rec = TrajectoryRecorder::new(8).unwrap();
        for t in 0..10_000u64 {
            rec.offer(t, &[t, 10_000 - t]);
        }
        assert!(rec.points().len() <= 8);
        assert!(rec.stride() > 1);
        let times: Vec<u64> = rec.points().iter().map(|p| p.interactions).collect();
        assert_eq!(times[0], 0);
        assert!(*times.last().unwrap() > 8_000, "{times:?}");
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
    }

    #[test]
    fn recorder_is_deterministic_in_its_input() {
        let run = || {
            let mut rec = TrajectoryRecorder::new(16).unwrap();
            for t in (0..5_000u64).step_by(37) {
                rec.offer(t, &[t % 7, t % 11]);
            }
            rec.force(5_000, &[1, 2]);
            rec.into_points()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn force_always_lands_and_deduplicates() {
        let mut rec = TrajectoryRecorder::new(4).unwrap();
        for t in 0..100u64 {
            rec.offer(t, &[t]);
        }
        let before = rec.points().len();
        rec.force(99, &[99]); // repeat of the last clock: ignored if present
        rec.force(10, &[10]); // rewound clock: ignored, order preserved
        rec.force(1_000, &[7]);
        rec.force(1_000, &[7]);
        assert!(rec.points().len() <= 4.max(before + 1));
        assert_eq!(rec.points().last().unwrap().interactions, 1_000);
        assert_eq!(
            rec.points()
                .iter()
                .filter(|p| p.interactions == 1_000)
                .count(),
            1
        );
    }

    #[test]
    fn frequencies_normalize() {
        let p = TrajectoryPoint {
            interactions: 5,
            counts: vec![3, 1],
        };
        assert_eq!(p.frequencies(), vec![0.75, 0.25]);
    }

    #[test]
    fn tiny_capacity_is_rejected() {
        assert!(TrajectoryRecorder::new(0).is_err());
        assert!(TrajectoryRecorder::new(1).is_err());
        assert!(TrajectoryRecorder::new(2).is_ok());
    }
}
