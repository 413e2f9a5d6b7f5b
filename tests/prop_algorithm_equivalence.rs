//! Cross-crate property tests on algorithm relationships: the CELF lazy
//! greedy is equivalent to the eager Algorithm 3, simple baselines are
//! feasible and dominated, and the approximation-guarantee bookkeeping of
//! Theorems 2–3 brackets every algorithm's placement.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use trimcaching::modellib::builders::{GeneralCaseBuilder, SpecialCaseBuilder};
use trimcaching::placement::{gamma_bound, spec_guarantee_floor, theorem3_floor};
use trimcaching::prelude::*;
use trimcaching::wireless::geometry::{DeploymentArea, Point};

/// Deterministically builds a random scenario from compact parameters.
fn build_scenario(
    seed: u64,
    special: bool,
    num_servers: usize,
    num_users: usize,
    models_per_backbone: usize,
    capacity_gb: f64,
) -> Scenario {
    let library = if special {
        SpecialCaseBuilder::paper_setup()
            .models_per_backbone(models_per_backbone)
            .build(seed)
    } else {
        GeneralCaseBuilder::paper_setup()
            .classes_per_backbone(models_per_backbone)
            .build(seed)
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
    let area = DeploymentArea::paper_default();
    let servers: Vec<EdgeServer> = (0..num_servers)
        .map(|m| {
            EdgeServer::new(
                ServerId(m),
                area.sample_uniform(&mut rng),
                gigabytes(capacity_gb),
            )
            .unwrap()
        })
        .collect();
    use rand::Rng;
    let users: Vec<Point> = (0..num_users)
        .map(|_| {
            let anchor = servers[rng.gen_range(0..servers.len())].position();
            let r: f64 = rng.gen_range(5.0..260.0);
            let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            area.clamp(anchor.translated(r * a.cos(), r * a.sin()))
        })
        .collect();
    let demand = DemandConfig::paper_defaults()
        .generate(num_users, library.num_models(), &mut rng)
        .unwrap();
    Scenario::builder()
        .library(library)
        .servers(servers)
        .users_at(&users)
        .demand(demand)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The CELF lazy greedy returns exactly the same placement as the eager
    /// Algorithm 3 while never evaluating more marginal gains.
    #[test]
    fn lazy_greedy_is_equivalent_to_eager_greedy(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 2usize..5,
        num_users in 4usize..12,
        capacity_tenths in 2u32..14,
    ) {
        let scenario = build_scenario(
            seed,
            special,
            num_servers,
            num_users,
            3,
            capacity_tenths as f64 / 10.0,
        );
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        prop_assert_eq!(&eager.placement, &lazy.placement);
        prop_assert!((eager.hit_ratio - lazy.hit_ratio).abs() < 1e-12);
        prop_assert!(lazy.evaluations <= eager.evaluations);
    }

    /// The same equivalence where servers fill: many servers, a 30-model
    /// library and 0.1–0.5 GB caches, so models that still have positive
    /// gain stop fitting and the lazy greedy drops them from its queue
    /// while the eager greedy re-checks them every step.
    #[test]
    fn lazy_greedy_is_equivalent_to_eager_greedy_when_servers_fill(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 6usize..11,
        num_users in 10usize..30,
        capacity_hundredths in 10u32..51,
    ) {
        let scenario = build_scenario(
            seed,
            special,
            num_servers,
            num_users,
            10,
            capacity_hundredths as f64 / 100.0,
        );
        let eager = TrimCachingGen::new().place(&scenario).unwrap();
        let lazy = TrimCachingGenLazy::new().place(&scenario).unwrap();
        prop_assert_eq!(&eager.placement, &lazy.placement);
        prop_assert_eq!(eager.hit_ratio.to_bits(), lazy.hit_ratio.to_bits());
        prop_assert!(lazy.evaluations <= eager.evaluations);
    }

    /// The popularity and random baselines always return feasible
    /// placements, and the sharing-aware greedy never loses to either.
    #[test]
    fn baselines_are_feasible_and_dominated(
        seed in 0u64..5000,
        num_servers in 2usize..5,
        num_users in 4usize..12,
        capacity_tenths in 2u32..14,
    ) {
        let scenario = build_scenario(seed, true, num_servers, num_users, 3, capacity_tenths as f64 / 10.0);
        let gen = TrimCachingGen::new().place(&scenario).unwrap();
        let popularity = TopPopularity::new().place(&scenario).unwrap();
        let random = RandomPlacement::new(seed).place(&scenario).unwrap();
        for outcome in [&popularity, &random] {
            prop_assert!((0.0..=1.0).contains(&outcome.hit_ratio));
            prop_assert!(scenario.satisfies_capacities(&outcome.placement));
        }
        prop_assert!(gen.hit_ratio >= popularity.hit_ratio - 1e-9);
        prop_assert!(gen.hit_ratio >= random.hit_ratio - 1e-9);
    }

    /// The Γ bracket of Theorem 3 admits every algorithm's placement, and
    /// its lower bound is itself feasible (so lower ≤ Γ ≤ upper).
    #[test]
    fn gamma_bracket_admits_all_placements(
        seed in 0u64..5000,
        special in any::<bool>(),
        num_servers in 2usize..4,
        num_users in 4usize..10,
        capacity_tenths in 2u32..12,
    ) {
        let scenario = build_scenario(seed, special, num_servers, num_users, 3, capacity_tenths as f64 / 10.0);
        let bound = gamma_bound(&scenario).unwrap();
        prop_assert!(bound.lower <= bound.upper);
        for placement in [
            TrimCachingGen::new().place(&scenario).unwrap().placement,
            TrimCachingSpec::new().place(&scenario).unwrap().placement,
            TopPopularity::new().place(&scenario).unwrap().placement,
        ] {
            prop_assert!(bound.admits(placement.len()),
                "placement of {} exceeds upper bound {}", placement.len(), bound.upper);
        }
    }
}

/// Theorems 2 and 3 hold against the exhaustive optimum on instances small
/// enough to enumerate (the Fig. 6 regime).
#[test]
fn approximation_guarantees_hold_against_the_optimum() {
    for seed in [3_u64, 8, 21] {
        let library = SpecialCaseBuilder::paper_setup()
            .models_per_backbone(2)
            .build(seed);
        let topology = TopologyConfig::paper_small().with_capacity_gb(0.25);
        let scenario = topology.generate(&library, seed, 0).unwrap();
        let optimal = ExhaustiveSearch::new().place(&scenario).unwrap();
        let spec = TrimCachingSpec::new().place(&scenario).unwrap();
        let gen = TrimCachingGen::new().place(&scenario).unwrap();
        let bound = gamma_bound(&scenario).unwrap();

        assert!(optimal.hit_ratio >= spec.hit_ratio - 1e-9);
        assert!(optimal.hit_ratio >= gen.hit_ratio - 1e-9);
        assert!(
            spec.hit_ratio >= spec_guarantee_floor(optimal.hit_ratio, 0.1) - 1e-9,
            "seed {seed}: Theorem 2 violated"
        );
        assert!(
            gen.hit_ratio >= theorem3_floor(optimal.hit_ratio, bound.upper.max(1)) - 1e-9,
            "seed {seed}: Theorem 3 violated"
        );
    }
}
