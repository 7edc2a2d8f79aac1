//! Property-based tests over the core invariants of the reproduction,
//! spanning crates (the per-crate `tests/prop.rs` suites go deeper into
//! each module).

use pagerankvm::profile::place_multiset;
use pagerankvm::{pagerank, GraphLimits, Orientation, PageRankConfig, ProfileGraph};
use pagerankvm::{ProfileSpace, ProfileVm, ScoreBook};
use proptest::prelude::*;
use prvm_model::combin::{distinct_placements, first_feasible};
use prvm_model::{catalog, Cluster, PmId, Quantizer, VmId};
use prvm_sim::Algorithm;
use prvm_traces::stats::Percentiles;
use std::sync::{Arc, OnceLock};

/// Random small placement instances: dimensions with usage <= cap, plus a
/// demand multiset.
fn placement_instance() -> impl Strategy<Value = (Vec<u64>, Vec<u64>, Vec<u64>)> {
    (1usize..6, 0usize..5).prop_flat_map(|(dims, demands)| {
        (
            prop::collection::vec(0u64..5, dims),
            prop::collection::vec(1u64..5, demands.min(dims)),
        )
            .prop_map(|(used, mut demands)| {
                let caps: Vec<u64> = used.iter().map(|&u| u + 4).collect();
                demands.sort_unstable_by(|a, b| b.cmp(a));
                (used, caps, demands)
            })
    })
}

proptest! {
    #[test]
    fn distinct_placements_respect_anti_collocation_and_capacity(
        (used, caps, demands) in placement_instance()
    ) {
        for assignment in distinct_placements(&used, &caps, &demands) {
            // Parallel to demands.
            prop_assert_eq!(assignment.len(), demands.len());
            // Distinct dimensions.
            let mut dims = assignment.clone();
            dims.sort_unstable();
            dims.dedup();
            prop_assert_eq!(dims.len(), assignment.len());
            // Capacity respected.
            for (j, &dim) in assignment.iter().enumerate() {
                prop_assert!(used[dim] + demands[j] <= caps[dim]);
            }
        }
    }

    #[test]
    fn distinct_placements_yield_distinct_outcomes(
        (used, caps, demands) in placement_instance()
    ) {
        let placements = distinct_placements(&used, &caps, &demands);
        let mut outcomes: Vec<Vec<u64>> = placements
            .iter()
            .map(|a| {
                let mut v = used.clone();
                for (j, &dim) in a.iter().enumerate() {
                    v[dim] += demands[j];
                }
                v.sort_unstable();
                v
            })
            .collect();
        let n = outcomes.len();
        outcomes.sort();
        outcomes.dedup();
        prop_assert_eq!(outcomes.len(), n, "duplicate canonical outcomes");
    }

    #[test]
    fn first_feasible_agrees_with_enumeration(
        (used, caps, demands) in placement_instance()
    ) {
        let greedy = first_feasible(&used, &caps, &demands);
        let all = distinct_placements(&used, &caps, &demands);
        prop_assert_eq!(greedy.is_some(), !all.is_empty());
    }

    #[test]
    fn profile_place_is_complete_and_canonical(
        usage in prop::collection::vec(0u16..5, 2..6),
        demand_count in 1usize..4,
    ) {
        let dims = usage.len();
        let space = ProfileSpace::uniform(dims, 4);
        let usage64: Vec<u64> = usage.iter().map(|&u| u64::from(u.min(4))).collect();
        let profile = space.canonicalize(&[&usage64]);
        let vm = ProfileVm::from_demands(
            "p",
            vec![vec![1; demand_count.min(dims)]],
        );
        for out in space.place(&profile, &vm) {
            // Canonical: sorted ascending within the single kind.
            let vals = out.values();
            prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]));
            // Total increased by exactly the demand total.
            let before: u64 = profile.values().iter().map(|&v| u64::from(v)).sum();
            let after: u64 = vals.iter().map(|&v| u64::from(v)).sum();
            prop_assert_eq!(after, before + demand_count.min(dims) as u64);
            // Capacity respected.
            prop_assert!(vals.iter().all(|&v| v <= 4));
        }
    }

    #[test]
    fn pagerank_is_a_distribution_on_random_graphs(
        dims in 2usize..5,
        cap in 2u16..5,
        seed_shape in 1u64..4,
        orientation in prop::sample::select(vec![
            Orientation::TowardEmptier,
            Orientation::TowardFuller,
        ]),
    ) {
        let space = ProfileSpace::uniform(dims, cap);
        let vms = vec![
            ProfileVm::from_demands("a", vec![vec![seed_shape.min(u64::from(cap))]]),
            ProfileVm::from_demands("b", vec![vec![1, 1][..dims.min(2)].to_vec()]),
        ];
        let graph = ProfileGraph::build(space, vms, GraphLimits::default()).expect("small graph builds");
        let r = pagerank(
            &graph,
            &PageRankConfig { orientation, ..PageRankConfig::default() },
        );
        let sum: f64 = r.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        prop_assert!(r.scores.iter().all(|&s| s > 0.0 && s <= 1.0));
        prop_assert!(r.converged);
    }

    #[test]
    fn percentiles_are_ordered_and_within_range(
        values in prop::collection::vec(-1e6f64..1e6, 1..200)
    ) {
        let p = Percentiles::of(&values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p.p1 <= p.median && p.median <= p.p99);
        prop_assert!(p.p1 >= min && p.p99 <= max);
    }
}

/// Every placer the experiments build.
const ALL_ALGORITHMS: [Algorithm; 7] = [
    Algorithm::PageRankVm,
    Algorithm::TwoChoice,
    Algorithm::FirstFit,
    Algorithm::FfdSum,
    Algorithm::CompVm,
    Algorithm::BestFit,
    Algorithm::WorstFit,
];

/// An EC2 book at a coarse quantization: memory rounds up hard, so
/// PageRankVM's quantized-infeasible but real-feasible fallback occurs.
/// Built once.
fn coarse_ec2_book() -> Arc<ScoreBook> {
    static BOOK: OnceLock<Arc<ScoreBook>> = OnceLock::new();
    let book = BOOK.get_or_init(|| {
        let quantizer = Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        };
        Arc::new(
            ScoreBook::build(
                quantizer,
                &catalog::ec2_pm_types(),
                &catalog::ec2_vm_types(),
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .expect("catalog book builds"),
        )
    });
    Arc::clone(book)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every placer, on one random sequence of steps over a small
    /// interleaved M3/C3 cluster. A step `(kind, VM type, extra)` removes
    /// the resident `extra` (kind 0), places excluding the PMs in stripe
    /// `extra` mod 3 (kind 1) or places with nothing excluded. A decision
    /// never names an excluded PM and validates; `None` comes only when
    /// no kept PM has a feasible assignment.
    #[test]
    fn every_placer_respects_exclusion_and_misses_no_room(
        pms in 2usize..10,
        seed in any::<u64>(),
        steps in prop::collection::vec((0u8..5, 0usize..16, 0usize..64), 20..80),
    ) {
        let book = coarse_ec2_book();
        let types = catalog::ec2_vm_types();
        for algo in ALL_ALGORITHMS {
            let (mut placer, _) = algo.build(&book, seed);
            let mut cluster = Cluster::from_specs((0..pms).map(|i| {
                if i % 3 == 2 {
                    catalog::pm_c3()
                } else {
                    catalog::pm_m3()
                }
            }));
            let mut residents: Vec<VmId> = Vec::new();
            for &(kind, ty, extra) in &steps {
                if kind == 0 {
                    if !residents.is_empty() {
                        let victim = residents.swap_remove(extra % residents.len());
                        cluster.remove(victim).expect("resident");
                    }
                    continue;
                }
                let vm = &types[ty % types.len()];
                let stripe = extra % 3;
                let none = |_: PmId| false;
                let striped = |pm: PmId| pm.0 % 3 == stripe;
                let exclude: &dyn Fn(PmId) -> bool = if kind == 1 { &striped } else { &none };
                match placer.choose(&cluster, vm, exclude) {
                    Some(d) => {
                        prop_assert!(!exclude(d.pm), "{}: chose excluded {:?}", algo.name(), d.pm);
                        let valid = cluster.pm(d.pm).validate(vm, &d.assignment);
                        prop_assert!(valid.is_ok(), "{}: {valid:?}", algo.name());
                        residents.push(cluster.place(d.pm, vm.clone(), d.assignment).expect("valid"));
                    }
                    None => {
                        let room = cluster
                            .used_then_unused()
                            .filter(|&pm| !exclude(pm))
                            .find(|&pm| cluster.pm(pm).first_feasible(vm).is_some());
                        prop_assert!(room.is_none(), "{}: missed {room:?} for {}", algo.name(), vm.name);
                    }
                }
            }
        }
    }
}

// The graph builder and the placers must enumerate the same distinct
// outcomes; more cases than the default, since both are cheap here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn place_multiset_lists_the_outcomes_of_distinct_placements(
        (usage, cap, demands) in (1u16..6, 1usize..7, 0usize..8).prop_flat_map(|(cap, dims, k)| (
            prop::collection::vec(0..=cap, dims),
            Just(cap),
            prop::collection::vec(1..=u64::from(cap) + 1, k),
        ))
    ) {
        let mut usage = usage;
        usage.sort_unstable();
        let mut demands = demands;
        demands.sort_unstable_by(|a, b| b.cmp(a));
        let used: Vec<u64> = usage.iter().map(|&u| u64::from(u)).collect();
        let caps = vec![u64::from(cap); used.len()];
        let mut outcomes: Vec<Vec<u16>> = distinct_placements(&used, &caps, &demands)
            .into_iter()
            .map(|assignment| {
                let mut v = usage.clone();
                for (j, &dim) in assignment.iter().enumerate() {
                    v[dim] += u16::try_from(demands[j]).expect("demands stay small");
                }
                v.sort_unstable();
                v
            })
            .collect();
        outcomes.sort_unstable();
        outcomes.dedup();
        prop_assert_eq!(place_multiset(&usage, cap, &demands), outcomes);
    }
}
