//! Lazy-evaluation (CELF-style) acceleration of TrimCaching Gen.
//!
//! Algorithm 3 recomputes the marginal hit-ratio gain of *every* remaining
//! `(server, model)` pair in every greedy step, which costs `O(M·I)` gain
//! evaluations per step and `O((M·I)²)` overall. Because the objective
//! `U(X)` of Eq. (2) is submodular (Proposition 1), the marginal gain of a
//! pair can only shrink as the placement grows; stale gains are therefore
//! valid *upper bounds*. [`TrimCachingGenLazy`] exploits this with the
//! classic CELF ("cost-effective lazy forward") priority queue: gains are
//! only recomputed for pairs that float to the top of the queue, and a pair
//! whose refreshed gain still dominates the rest of the queue is selected
//! without touching the other candidates.
//!
//! The produced placement is identical to [`crate::TrimCachingGen`] (ties
//! are broken the same way: larger gain first, then smaller server index,
//! then smaller model index) while performing far fewer marginal-gain
//! evaluations — never more than the eager greedy, which scores every
//! feasible pair in every step. The difference is visible in the
//! [`PlacementOutcome::evaluations`] counter and in the
//! `lazy_greedy_scaling` benchmark. Two further devices keep the work
//! proportional to what can still change between steps, and neither can
//! alter a selection:
//!
//! * **Capacity-blocked pairs leave the queue.** Whether `(m, i)` fits
//!   under the parameter-sharing storage constraint (Eq. 7) depends only
//!   on server `m`'s cache, and is checked *before* the pair's gain is
//!   refreshed. A pair that does not fit is dropped for good: used bytes
//!   plus the pair's marginal bytes are the deduplicated size of the
//!   union of the cached models' blocks and the model's own blocks, and
//!   that union only grows as the solve adds models. A sibling that pays
//!   for shared blocks shrinks the pair's marginal cost, but never by
//!   more than the bytes it adds itself, so a blocked pair never fits
//!   again.
//! * **Incremental coverage.** A solve starts from an empty placement, so
//!   request `(k, i)` is served exactly when some placed `(m, i)` lists
//!   `k` among its eligible users. The solver keeps that as a `K × I`
//!   bitmap, set from `users_for(m, i)` when `(m, i)` is placed, instead
//!   of probing every candidate server of every user on each refresh. A
//!   refresh sums the weights of the uncovered eligible users in the same
//!   ascending order as [`HitRatioObjective::marginal_hits`], so every
//!   gain is bit-equal to it: each [`EligibilityView`] (dense, sparse,
//!   masked) lists the same triples through `users_for` and `servers_for`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use trimcaching_modellib::ModelId;
use trimcaching_scenario::{
    DemandView, EligibilityView, HitRatioObjective, Placement, Scenario, ServerId, StorageTracker,
};

use crate::error::PlacementError;
use crate::outcome::{PlacementAlgorithm, PlacementOutcome};

/// A candidate `(server, model)` pair with a (possibly stale) gain bound.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    /// Upper bound on the marginal expected-hit gain.
    gain: f64,
    /// Server index `m`.
    server: usize,
    /// Model index `i`.
    model: usize,
    /// Greedy step at which `gain` was last recomputed (0: never).
    round: u64,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties prefer the smaller (server, model) pair so
        // the selection order matches the eager greedy's first-strictly-
        // greater scan over servers (outer) and models (inner).
        self.gain
            .partial_cmp(&other.gain)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.server.cmp(&self.server))
            .then_with(|| other.model.cmp(&self.model))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Which requests `(k, i)` the placement built so far already serves,
/// stored model-major (`i · K + k`) so a refresh walks one row.
#[derive(Debug)]
struct Coverage {
    num_users: usize,
    covered: Vec<bool>,
}

impl Coverage {
    /// Coverage of the empty placement.
    fn new(objective: &HitRatioObjective<'_>) -> Self {
        let num_users = objective.num_users();
        Self {
            num_users,
            covered: vec![false; num_users * objective.num_models()],
        }
    }

    /// The marginal gain of placing `model` on `server`: bit-equal to
    /// [`HitRatioObjective::marginal_hits`] over the covered placement.
    fn gain(&self, objective: &HitRatioObjective<'_>, server: ServerId, model: ModelId) -> f64 {
        let row = model.index() * self.num_users;
        let mut gain = 0.0;
        for user in objective.eligible_users(server, model) {
            if !self.covered[row + user.index()] {
                gain += objective.weight(user, model);
            }
        }
        gain
    }

    /// Marks every request `(server, model)` can serve as served.
    fn cover(&mut self, objective: &HitRatioObjective<'_>, server: ServerId, model: ModelId) {
        let row = model.index() * self.num_users;
        for user in objective.eligible_users(server, model) {
            self.covered[row + user.index()] = true;
        }
    }
}

/// CELF-accelerated variant of the TrimCaching Gen greedy (Algorithm 3).
///
/// Produces the same placement as [`crate::TrimCachingGen`] with far fewer
/// marginal-gain evaluations on realistic problem sizes.
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use trimcaching_modellib::builders::SpecialCaseBuilder;
/// use trimcaching_placement::{PlacementAlgorithm, TrimCachingGen, TrimCachingGenLazy};
/// use trimcaching_scenario::prelude::*;
/// use trimcaching_wireless::geometry::{DeploymentArea, Point};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let library = SpecialCaseBuilder::paper_setup().models_per_backbone(3).build(1);
/// let mut rng = StdRng::seed_from_u64(7);
/// let area = DeploymentArea::paper_default();
/// let users: Vec<Point> = (0..8).map(|_| area.sample_uniform(&mut rng)).collect();
/// let demand = DemandConfig::paper_defaults().generate(8, library.num_models(), &mut rng)?;
/// let scenario = Scenario::builder()
///     .library(library)
///     .servers(vec![
///         EdgeServer::new(ServerId(0), Point::new(300.0, 500.0), gigabytes(1.0))?,
///         EdgeServer::new(ServerId(1), Point::new(700.0, 500.0), gigabytes(1.0))?,
///     ])
///     .users_at(&users)
///     .demand(demand)
///     .build()?;
///
/// let eager = TrimCachingGen::new().place(&scenario)?;
/// let lazy = TrimCachingGenLazy::new().place(&scenario)?;
/// assert_eq!(eager.placement, lazy.placement);
/// assert!(lazy.evaluations <= eager.evaluations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimCachingGenLazy;

impl TrimCachingGenLazy {
    /// Creates the algorithm.
    pub fn new() -> Self {
        Self
    }

    /// Runs the CELF greedy against an *arbitrary demand surface* over
    /// the scenario's eligibility and capacities — the re-placement
    /// entry point: an online controller feeds the
    /// [`DemandEstimate`](trimcaching_scenario::DemandEstimate) it
    /// reconstructed from the served request stream and gets back the
    /// placement the solver would choose for the demand it *observed*
    /// instead of the frozen offline snapshot. Passing the scenario's
    /// own [`Demand`](trimcaching_scenario::Demand) reproduces
    /// [`PlacementAlgorithm::place`] exactly.
    ///
    /// The returned outcome's `hit_ratio` is still evaluated under the
    /// scenario's ground-truth demand, so callers can compare planned
    /// placements on one scale regardless of the estimate quality.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the demand view's dimensions
    /// disagree with the scenario's, or the scenario is inconsistent.
    pub fn place_with_demand(
        &self,
        scenario: &Scenario,
        demand: &dyn DemandView,
    ) -> Result<PlacementOutcome, PlacementError> {
        let objective = scenario.objective_with_demand(demand)?;
        self.place_with_objective(scenario, &objective)
    }

    /// [`Self::place_with_demand`] over an *explicit eligibility view*
    /// instead of the scenario's own — the failure-aware re-placement
    /// entry point: a controller passes the scenario eligibility wrapped
    /// in a [`MaskedEligibility`](trimcaching_scenario::MaskedEligibility)
    /// hiding the servers currently down, and the greedy never places a
    /// model on (or counts hits from) a dead server. Capacities and
    /// block sharing still come from the scenario. Passing the
    /// scenario's own eligibility reproduces
    /// [`Self::place_with_demand`] exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the demand's or eligibility's
    /// dimensions disagree, or the scenario is inconsistent.
    pub fn place_with_demand_on(
        &self,
        scenario: &Scenario,
        demand: &dyn DemandView,
        eligibility: &dyn EligibilityView,
    ) -> Result<PlacementOutcome, PlacementError> {
        let objective = HitRatioObjective::from_views(demand, eligibility)?;
        self.place_with_objective(scenario, &objective)
    }

    /// The placement [`Self::place_with_demand_on`] chooses, without
    /// scoring it: no ground-truth hit ratio (a `K × I` scan), no wall
    /// clock and no evaluation count. An online planner that only needs
    /// the target placement calls this on every re-plan.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the demand's or eligibility's
    /// dimensions disagree, or the scenario is inconsistent.
    pub fn placement_with_demand_on(
        &self,
        scenario: &Scenario,
        demand: &dyn DemandView,
        eligibility: &dyn EligibilityView,
    ) -> Result<Placement, PlacementError> {
        let objective = HitRatioObjective::from_views(demand, eligibility)?;
        Ok(self.solve(scenario, &objective)?.0)
    }

    /// Solves over an explicit objective and scores the result (shared
    /// by the ground-truth and estimated-demand entry points).
    fn place_with_objective(
        &self,
        scenario: &Scenario,
        objective: &HitRatioObjective<'_>,
    ) -> Result<PlacementOutcome, PlacementError> {
        // audit:allow(wall-clock): measures solver wall time for PlacementOutcome reporting; never enters simulated time or traces
        let start = Instant::now();
        let (placement, evaluations) = self.solve(scenario, objective)?;
        Ok(PlacementOutcome::new(
            self.name(),
            scenario,
            placement,
            start.elapsed(),
            evaluations,
        ))
    }

    /// The CELF loop: returns the placement and the number of gain
    /// evaluations it took.
    fn solve(
        &self,
        scenario: &Scenario,
        objective: &HitRatioObjective<'_>,
    ) -> Result<(Placement, u64), PlacementError> {
        let num_servers = scenario.num_servers();

        let mut placement = scenario.empty_placement();
        let mut trackers: Vec<StorageTracker<'_>> = (0..num_servers)
            .map(|m| scenario.storage_tracker(ServerId(m)))
            .collect::<Result<_, _>>()?;
        let mut coverage = Coverage::new(objective);
        let mut evaluations: u64 = 0;

        // Every candidate pair enters with an infinite, never-computed
        // bound, so the first step scores exactly the pairs that fit, as
        // the eager greedy's first scan does. Models without an eligible
        // user at the server have zero gain forever and never enter the
        // queue.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for m in 0..num_servers {
            for model in objective.candidate_models(ServerId(m)) {
                heap.push(Candidate {
                    gain: f64::INFINITY,
                    server: m,
                    model: model.index(),
                    round: 0,
                });
            }
        }

        let mut round: u64 = 0;
        loop {
            round += 1;
            let mut selected: Option<Candidate> = None;

            while let Some(mut top) = heap.pop() {
                if top.round == round {
                    // A fresh gain dominating everything still queued; it
                    // fit when it was refreshed, and no cache has changed
                    // within this step.
                    selected = Some(top);
                    break;
                }
                if !trackers[top.server].fits(ModelId(top.model))? {
                    // Its server's cache only grows: it never fits again.
                    continue;
                }
                // Stale upper bound on a feasible pair: refresh and
                // reconsider.
                evaluations += 1;
                top.gain = coverage.gain(objective, ServerId(top.server), ModelId(top.model));
                top.round = round;
                if top.gain > 0.0 {
                    heap.push(top);
                }
            }

            match selected {
                Some(best) => {
                    let (server, model) = (ServerId(best.server), ModelId(best.model));
                    placement.place(server, model)?;
                    trackers[best.server].add(model)?;
                    coverage.cover(objective, server, model);
                }
                None => break,
            }
        }

        Ok((placement, evaluations))
    }
}

impl PlacementAlgorithm for TrimCachingGenLazy {
    fn name(&self) -> &str {
        "trimcaching-gen-lazy"
    }

    fn place(&self, scenario: &Scenario) -> Result<PlacementOutcome, PlacementError> {
        self.place_with_objective(scenario, &scenario.objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general::TrimCachingGen;
    use crate::test_support::{paper_like_scenario, tiny_scenario};

    #[test]
    fn lazy_greedy_matches_eager_greedy_exactly() {
        for (seed, special) in [(1_u64, true), (5, true), (9, false), (13, false)] {
            let scenario = paper_like_scenario(4, 12, 12, 0.5, seed, special).unwrap();
            let eager = TrimCachingGen::new().place(&scenario).unwrap();
            let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
            assert_eq!(
                eager.placement, lazy.placement,
                "seed {seed}: lazy greedy diverged from the eager greedy"
            );
            assert!((eager.hit_ratio - lazy.hit_ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn lazy_greedy_needs_no_more_evaluations_than_eager() {
        let scenario = paper_like_scenario(4, 15, 18, 0.75, 3, true).unwrap();
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert!(
            lazy.evaluations <= eager.evaluations,
            "lazy ({}) should not evaluate more gains than eager ({})",
            lazy.evaluations,
            eager.evaluations
        );
        // On non-trivial instances the saving is substantial.
        if eager.evaluations > 1_000 {
            assert!(lazy.evaluations * 2 <= eager.evaluations * 3);
        }
    }

    #[test]
    fn lazy_greedy_respects_shared_capacity() {
        for seed in [2_u64, 7, 11] {
            let scenario = paper_like_scenario(3, 10, 12, 0.4, seed, true).unwrap();
            let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
            assert!(scenario.satisfies_capacities(&outcome.placement));
            assert!((0.0..=1.0).contains(&outcome.hit_ratio));
        }
    }

    #[test]
    fn capacity_blocked_candidates_leave_the_same_packing_as_eager() {
        // A tight capacity blocks large models early; the lazy variant
        // drops them from its queue and must still end up with the
        // packing of the eager variant, which re-checks them every step.
        let scenario = tiny_scenario(9, 0.25, 17).unwrap();
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert_eq!(eager.placement, lazy.placement);
    }

    /// Walks an uncapacitated greedy trajectory over `objective` and
    /// asserts, before every step, that the coverage gain of every
    /// `(server, model)` pair equals `marginal_hits` bit for bit.
    fn assert_coverage_tracks_marginal_hits(objective: &HitRatioObjective<'_>) -> usize {
        let (num_servers, num_models) = (objective.num_servers(), objective.num_models());
        let mut placement = Placement::empty(num_servers, num_models);
        let mut coverage = Coverage::new(objective);
        let mut steps = 0;
        loop {
            let mut best: Option<(f64, ServerId, ModelId)> = None;
            for m in (0..num_servers).map(ServerId) {
                for model in (0..num_models).map(ModelId) {
                    let exact = objective.marginal_hits(&placement, m, model);
                    let tracked = coverage.gain(objective, m, model);
                    assert_eq!(
                        tracked.to_bits(),
                        exact.to_bits(),
                        "step {steps}, pair ({}, {}): {tracked} vs {exact}",
                        m.index(),
                        model.index()
                    );
                    if exact > 0.0 && best.is_none_or(|(g, _, _)| exact > g) {
                        best = Some((exact, m, model));
                    }
                }
            }
            let Some((_, m, model)) = best else {
                return steps;
            };
            placement.place(m, model).unwrap();
            coverage.cover(objective, m, model);
            steps += 1;
        }
    }

    #[test]
    fn coverage_gains_equal_marginal_hits_on_every_view() {
        use trimcaching_scenario::{
            EligibilityTensor, MaskedEligibility, SparseEligibility, UserId,
        };
        for (seed, special) in [(3_u64, true), (10, false)] {
            let scenario = paper_like_scenario(5, 14, 12, 0.5, seed, special).unwrap();
            let view = scenario.eligibility();
            let (m, k, i) = (
                scenario.num_servers(),
                scenario.num_users(),
                scenario.num_models(),
            );
            let eligible =
                |s: usize, u: usize, model: usize| view.eligible(s, UserId(u), ModelId(model));
            let dense = EligibilityTensor::from_fn(m, k, i, eligible);
            let sparse = SparseEligibility::from_fn(m, k, i, eligible);
            let down: Vec<bool> = (0..m).map(|s| s % 2 == 1).collect();
            let masked_dense = MaskedEligibility::new(&dense, &down);
            let masked_sparse = MaskedEligibility::new(&sparse, &down);
            let views: [&dyn EligibilityView; 4] = [&dense, &sparse, &masked_dense, &masked_sparse];
            for view in views {
                let objective = HitRatioObjective::from_views(scenario.demand(), view).unwrap();
                let steps = assert_coverage_tracks_marginal_hits(&objective);
                assert!(steps > 1, "seed {seed}: the trajectory must place models");
            }
        }
    }

    #[test]
    fn placement_only_entry_point_matches_the_scored_solve() {
        use trimcaching_scenario::MaskedEligibility;
        let scenario = paper_like_scenario(4, 12, 12, 0.4, 17, true).unwrap();
        let down = [false, true, false, true];
        let masked = MaskedEligibility::new(scenario.eligibility(), &down);
        let views: [&dyn EligibilityView; 2] = [scenario.eligibility(), &masked];
        for view in views {
            let scored = TrimCachingGenLazy::new()
                .place_with_demand_on(&scenario, scenario.demand(), view)
                .unwrap();
            let placement = TrimCachingGenLazy::new()
                .placement_with_demand_on(&scenario, scenario.demand(), view)
                .unwrap();
            assert_eq!(scored.placement, placement);
        }
        let direct = TrimCachingGenLazy::new().place(&scenario).unwrap();
        let placement = TrimCachingGenLazy::new()
            .placement_with_demand_on(&scenario, scenario.demand(), scenario.eligibility())
            .unwrap();
        assert_eq!(direct.placement, placement);
    }

    #[test]
    fn ground_truth_demand_view_reproduces_place_exactly() {
        let scenario = paper_like_scenario(4, 12, 12, 0.5, 21, true).unwrap();
        let direct = TrimCachingGenLazy::new().place(&scenario).unwrap();
        let via_view = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, scenario.demand())
            .unwrap();
        assert_eq!(direct.placement, via_view.placement);
        assert_eq!(direct.evaluations, via_view.evaluations);
        assert!((direct.hit_ratio - via_view.hit_ratio).abs() < 1e-15);
    }

    #[test]
    fn estimated_demand_steers_the_solver() {
        use trimcaching_scenario::DemandEstimate;
        let scenario = paper_like_scenario(3, 10, 12, 0.25, 8, true).unwrap();
        let truth = TrimCachingGenLazy::new().place(&scenario).unwrap();
        // An estimate that concentrates all observed demand on one model
        // still yields a feasible placement — and one that caches that
        // model wherever it has eligible users.
        let k = scenario.num_users();
        let i = scenario.num_models();
        let hot = 7usize;
        let mut weights = vec![vec![0.0; i]; k];
        for row in &mut weights {
            row[hot] = 1.0;
        }
        let estimate = DemandEstimate::new(weights).unwrap();
        let skewed = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &estimate)
            .unwrap();
        assert!(scenario.satisfies_capacities(&skewed.placement));
        let hot_copies = (0..scenario.num_servers())
            .filter(|&m| {
                skewed
                    .placement
                    .contains(trimcaching_scenario::ServerId(m), ModelId(hot))
            })
            .count();
        assert!(hot_copies >= 1, "the observed-hot model must be cached");
        // The outcome's hit ratio is scored under ground truth, so the
        // skewed plan cannot beat the solver run on the true demand.
        assert!(skewed.hit_ratio <= truth.hit_ratio + 1e-12);
        // A zero-mass estimate (nothing observed) plans nothing.
        let empty = DemandEstimate::new(vec![vec![0.0; i]; k]).unwrap();
        let none = TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &empty)
            .unwrap();
        assert!(none.placement.is_empty());
        // Dimension mismatches are rejected.
        let wrong = DemandEstimate::new(vec![vec![1.0; i + 1]; k]).unwrap();
        assert!(TrimCachingGenLazy::new()
            .place_with_demand(&scenario, &wrong)
            .is_err());
    }

    #[test]
    fn empty_capacity_yields_empty_placement() {
        let scenario = paper_like_scenario(2, 6, 6, 0.001, 4, true).unwrap();
        let outcome = TrimCachingGenLazy::new().place(&scenario).unwrap();
        assert!(outcome.placement.is_empty());
        assert_eq!(outcome.hit_ratio, 0.0);
        assert_eq!(outcome.algorithm, "trimcaching-gen-lazy");
    }

    #[test]
    fn candidate_ordering_prefers_gain_then_low_indices() {
        let a = Candidate {
            gain: 0.5,
            server: 1,
            model: 1,
            round: 0,
        };
        let b = Candidate {
            gain: 0.4,
            server: 0,
            model: 0,
            round: 0,
        };
        assert!(a > b);
        let c = Candidate {
            gain: 0.5,
            server: 0,
            model: 3,
            round: 0,
        };
        // Equal gain: the smaller server index wins (is "greater" in the
        // max-heap order).
        assert!(c > a);
        let d = Candidate {
            gain: 0.5,
            server: 0,
            model: 1,
            round: 0,
        };
        assert!(d > c);
    }
}
