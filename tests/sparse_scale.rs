//! Integration test for the coverage-pruned sparse eligibility at scale:
//! a 200-server / 5 000-user district built with the sparse
//! representation must drive lazy-greedy placement to the *identical*
//! result the dense path produces, while never materialising the
//! `M × K × I` cube. On the serving benchmark's district the lazy
//! greedy's gain evaluations stay within a small multiple of its
//! candidate pairs, with and without a failure mask.

use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching::modellib::ModelId;
use trimcaching::placement::{PlacementAlgorithm, TrimCachingGenLazy};
use trimcaching::prelude::*;
use trimcaching::sim::CityScaleConfig;
use trimcaching::wireless::geometry::DeploymentArea;

/// A ~200-server / 5 000-user Poisson district (the `district` preset's
/// native scale), downscaled from the 1 000-server / 50 000-user city of
/// the bench harness so the dense reference fits the test budget.
fn district(repr: EligibilityRepr) -> Scenario {
    let library = trimcaching::modellib::builders::SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(2024);
    let config = CityScaleConfig::district().with_repr(repr);
    config.generate(&library, 2024, 0).expect("district builds")
}

#[test]
fn lazy_greedy_is_identical_on_sparse_and_dense_districts() {
    let sparse = district(EligibilityRepr::Sparse);
    assert!(sparse.eligibility().is_sparse());
    assert!(sparse.num_servers() >= 150, "Poisson draw far below λ·area");
    assert_eq!(sparse.num_users(), 5_000);
    // The indicator really is coverage-pruned: a small fraction of the
    // cube is eligible.
    assert!(
        sparse.eligibility().density() < 0.1,
        "density {} is not city-sparse",
        sparse.eligibility().density()
    );

    let dense = district(EligibilityRepr::Dense);
    assert!(!dense.eligibility().is_sparse());
    assert_eq!(dense.num_servers(), sparse.num_servers());
    assert_eq!(
        dense.eligibility().num_eligible(),
        sparse.eligibility().num_eligible()
    );

    let lazy = TrimCachingGenLazy::new();
    let from_sparse = lazy.place(&sparse).expect("sparse placement runs");
    let from_dense = lazy.place(&dense).expect("dense placement runs");
    assert_eq!(
        from_sparse.placement, from_dense.placement,
        "sparse and dense paths must select the identical placement"
    );
    assert_eq!(
        from_sparse.hit_ratio.to_bits(),
        from_dense.hit_ratio.to_bits(),
        "hit ratios must be bit-identical"
    );
    assert!(from_sparse.hit_ratio > 0.0);
    assert!(sparse.satisfies_capacities(&from_sparse.placement));

    // Cross-evaluation: the sparse scenario scores the dense path's
    // placement identically, and vice versa.
    assert_eq!(
        sparse.hit_ratio(&from_dense.placement).to_bits(),
        dense.hit_ratio(&from_sparse.placement).to_bits()
    );
}

#[test]
fn sparse_district_serves_requests_through_the_runtime() {
    // The runtime's serving path iterates candidate servers through the
    // sparse view; a short replay must produce hits on a warm start.
    let sparse = district(EligibilityRepr::Sparse);
    let mut placement = sparse.empty_placement();
    for m in 0..sparse.num_servers() {
        for i in 0..sparse.num_models().min(3) {
            placement.place(ServerId(m), ModelId(i)).unwrap();
        }
    }
    let config = ServeConfig::smoke()
        .with_duration_s(5.0)
        .with_request_rate_hz(0.05);
    let report = serve(&sparse, &Lru, Some(&placement), &config).expect("replay runs");
    assert!(report.metrics.requests > 0);
    assert!(report.metrics.hits > 0, "warm-started caches must hit");
}

/// The `city-mobile` serving benchmark's district: 30 models (10 per
/// backbone), 0.4 GB caches, 2 500 users in 64 demand classes at
/// p_A = 0.005, fixed sites, users placed by seed 2024.
fn serving_district() -> Scenario {
    let library = trimcaching::modellib::builders::SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(2024);
    let mut city = CityScaleConfig::district()
        .with_users(2_500)
        .with_demand_classes(64);
    city.capacity_gb = 0.4;
    city.radio.activity_probability = 0.005;
    let district = city.generate(&library, 2024, 0).expect("district builds");
    let area = DeploymentArea::new(city.area_side_m).expect("valid area");
    let users = area.sample_uniform_n(2_500, &mut StdRng::seed_from_u64(2024));
    district
        .with_user_positions(&users)
        .expect("users move into the district")
}

/// Candidate `(server, model)` pairs the view offers the greedy.
fn candidate_pairs(view: &dyn EligibilityView) -> u64 {
    (0..view.num_servers())
        .map(|m| view.server_models(m).count() as u64)
        .sum()
}

#[test]
fn lazy_greedy_evaluations_stay_linear_in_the_candidate_pairs() {
    // Servers fill long before their candidates run out of gain. If a
    // candidate that does not fit were re-scored in every greedy step,
    // the evaluations would grow with steps × pairs (hundreds of
    // thousands here) instead of staying near the pair count.
    let scenario = serving_district();
    let pairs = candidate_pairs(scenario.eligibility());
    let outcome = TrimCachingGenLazy::new()
        .place(&scenario)
        .expect("placement runs");
    assert!(outcome.hit_ratio > 0.0);
    assert!(
        outcome.evaluations <= 4 * pairs,
        "{} evaluations for {pairs} candidate pairs",
        outcome.evaluations
    );

    // Every other server down: the masked solve places nothing there
    // and keeps the same evaluation budget over its own pairs.
    let down: Vec<bool> = (0..scenario.num_servers()).map(|m| m % 2 == 1).collect();
    let masked = MaskedEligibility::new(scenario.eligibility(), &down);
    let pairs = candidate_pairs(&masked);
    let outcome = TrimCachingGenLazy::new()
        .place_with_demand_on(&scenario, scenario.demand(), &masked)
        .expect("masked placement runs");
    assert!(!outcome.placement.is_empty());
    for m in (0..scenario.num_servers()).filter(|&m| down[m]) {
        assert!(
            outcome.placement.models_on(ServerId(m)).unwrap().is_empty(),
            "server {m} is down but received a model"
        );
    }
    assert!(
        outcome.evaluations <= 4 * pairs,
        "{} masked evaluations for {pairs} candidate pairs",
        outcome.evaluations
    );
}
