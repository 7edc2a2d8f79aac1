//! Property-based tests of the PageRankVM core: profile canonicalisation,
//! graph structure, PageRank and BPRU invariants, and the placer's
//! ranked-option cache against a cache-free scan.

use pagerankvm::{
    compute_bpru, pagerank, GraphLimits, KindSpace, Orientation, PageRankConfig, PageRankVmPlacer,
    ProfileGraph, ProfileSpace, ProfileVm, ScoreBook, ScoreTable,
};
use proptest::prelude::*;
use prvm_model::{
    catalog, Assignment, Cluster, PlacementAlgorithm, PlacementDecision, PmId, PmSpec, Quantizer,
    VmId, VmSpec,
};
use std::sync::{Arc, OnceLock};

/// Small random uniform spaces plus VM sets that fit them.
fn arb_setting() -> impl Strategy<Value = (ProfileSpace, Vec<ProfileVm>)> {
    (2usize..5, 2u16..5).prop_flat_map(|(dims, cap)| {
        let space = ProfileSpace::uniform(dims, cap);
        let vm = (1usize..=dims, 1u64..=u64::from(cap))
            .prop_map(|(width, size)| ProfileVm::from_demands("vm", vec![vec![size; width]]));
        (Just(space), prop::collection::vec(vm, 1..4))
    })
}

proptest! {
    /// Canonicalisation is idempotent and permutation-invariant.
    #[test]
    fn canonical_form_is_permutation_invariant(
        mut usage in prop::collection::vec(0u64..5, 2..8)
    ) {
        let space = ProfileSpace::uniform(usage.len(), 8);
        let a = space.canonicalize(&[&usage]);
        usage.reverse();
        let b = space.canonicalize(&[&usage]);
        prop_assert_eq!(&a, &b);
        // Idempotent: canonicalising the canonical values is a no-op.
        let vals: Vec<u64> = a.values().iter().map(|&v| u64::from(v)).collect();
        prop_assert_eq!(space.canonicalize(&[&vals]), a);
    }

    /// Every graph edge increases total usage by a VM's exact demand.
    #[test]
    fn edges_add_exactly_one_vm((space, vms) in arb_setting()) {
        let demands: Vec<u64> = vms.iter().map(ProfileVm::total_units).collect();
        let Ok(graph) = ProfileGraph::build(space, vms, GraphLimits::default()) else {
            return Ok(()); // no usable VM type: nothing to check
        };
        for id in graph.node_ids() {
            let from: u64 = graph.profile(id).values().iter().map(|&v| u64::from(v)).sum();
            for &s in graph.successors(id) {
                let to: u64 = graph
                    .profile(s)
                    .values()
                    .iter()
                    .map(|&v| u64::from(v))
                    .sum();
                prop_assert!(
                    demands.contains(&(to - from)),
                    "edge delta {} matches no VM demand {:?}",
                    to - from,
                    demands
                );
            }
        }
    }

    /// PageRank scores form a positive distribution under both
    /// orientations; BPRU is in (0, 1] and bounded below by the node's own
    /// utilization.
    #[test]
    fn rank_and_bpru_invariants((space, vms) in arb_setting()) {
        let Ok(graph) = ProfileGraph::build(space, vms, GraphLimits::default()) else {
            return Ok(());
        };
        for orientation in [Orientation::TowardEmptier, Orientation::TowardFuller] {
            let r = pagerank(
                &graph,
                &PageRankConfig { orientation, ..PageRankConfig::default() },
            );
            let sum: f64 = r.scores.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert!(r.scores.iter().all(|&s| s > 0.0));
        }
        let b = compute_bpru(&graph);
        for id in graph.node_ids() {
            let v = b[id as usize];
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
            prop_assert!(v >= graph.utilization(id) - 1e-12);
        }
    }

    /// The best profile, when reachable, always carries BPRU exactly 1 and
    /// every node on a path to it does too.
    #[test]
    fn bpru_is_one_exactly_on_best_reaching_nodes((space, vms) in arb_setting()) {
        let Ok(graph) = ProfileGraph::build(space.clone(), vms, GraphLimits::default()) else {
            return Ok(());
        };
        let b = compute_bpru(&graph);
        if let Some(best) = graph.node(&space.best_profile()) {
            prop_assert!((b[best as usize] - 1.0).abs() < 1e-12);
            // Any predecessor of a bpru-1 node has bpru 1.
            for id in graph.node_ids() {
                if graph
                    .successors(id)
                    .iter()
                    .any(|&s| (b[s as usize] - 1.0).abs() < 1e-12)
                {
                    prop_assert!((b[id as usize] - 1.0).abs() < 1e-12);
                }
            }
        }
    }

    /// Full-space tables cover every canonical profile and scores are
    /// finite and positive.
    #[test]
    fn full_table_is_total(dims in 2usize..4, cap in 2u16..4) {
        let space = ProfileSpace::uniform(dims, cap);
        let vms = vec![ProfileVm::from_demands("u", vec![vec![1]])];
        let table = ScoreTable::build_full(
            space,
            vms,
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap();
        // Count = multisets of size `dims` over {0..cap}: C(dims+cap, dims).
        let expect = {
            let n = dims as u64 + u64::from(cap);
            let k = dims as u64;
            let mut c = 1u64;
            for i in 0..k {
                c = c * (n - i) / (i + 1);
            }
            c as usize
        };
        prop_assert_eq!(table.len(), expect);
        for (_, s) in table.iter() {
            prop_assert!(s.is_finite() && s > 0.0);
        }
    }
}

/// A multi-kind space from `(count, cap)` per kind, plus one VM per
/// `raw` row: kind `k` demands the non-zero values of
/// `raw[3k..3k + count]`, each reduced mod `cap + 1` (so a VM may skip a
/// kind, or demand less than the kind has dimensions).
fn multi_kind_setting(kinds: &[(usize, u16)], raw: &[Vec<u64>]) -> (ProfileSpace, Vec<ProfileVm>) {
    let space = ProfileSpace::new(
        kinds
            .iter()
            .enumerate()
            .map(|(k, &(count, cap))| KindSpace {
                name: format!("kind{k}"),
                count,
                cap,
            }),
    );
    let vms = raw
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let demands = kinds
                .iter()
                .enumerate()
                .map(|(k, &(count, cap))| {
                    let mut d: Vec<u64> = row[3 * k..3 * k + count]
                        .iter()
                        .map(|&v| v % (u64::from(cap) + 1))
                        .filter(|&v| v > 0)
                        .collect();
                    d.sort_unstable_by(|a, b| b.cmp(a));
                    d
                })
                .collect();
            ProfileVm::from_demands(format!("vm{i}"), demands)
        })
        .collect();
    (space, vms)
}

/// Every node's per-VM expansion group is `ProfileSpace::place` of the
/// node's profile, interned in enumeration order.
fn groups_match_place(graph: &ProfileGraph) -> Result<(), TestCaseError> {
    for id in graph.node_ids() {
        for (v, vm) in graph.vm_types().iter().enumerate() {
            let want: Vec<u32> = graph
                .space()
                .place(graph.profile(id), vm)
                .iter()
                .map(|p| graph.node(p).expect("every outcome is a node"))
                .collect();
            prop_assert_eq!(graph.vm_successors(id, v), want.as_slice());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The graph builder's memoised per-kind placements reproduce the
    /// reference `place` on every node, for reachable and full-space
    /// builds and for extends, at 1 and 2 workers. The extends grow the
    /// first `split` drawn types by the rest, by renamed copies of drawn
    /// base types (`repeats`, which alias a known footprint), or by both.
    #[test]
    fn expansion_groups_equal_reference_place(
        kinds in prop::collection::vec((1usize..4, 1u16..6), 1..4),
        raw in prop::collection::vec(prop::collection::vec(0u64..6, 9), 1..4),
        split in 1usize..4,
        repeats in prop::collection::vec(0usize..4, 0..3),
    ) {
        let (space, vms) = multi_kind_setting(&kinds, &raw);
        let (base_vms, new_vms) = vms.split_at(split.min(vms.len()));
        let known: Vec<ProfileVm> = repeats
            .iter()
            .map(|&i| {
                let vm = &base_vms[i % base_vms.len()];
                ProfileVm::from_demands(format!("{}'", vm.name), vm.demands().to_vec())
            })
            .collect();
        let mixed: Vec<ProfileVm> = known.iter().chain(new_vms).cloned().collect();
        let limits = GraphLimits { max_nodes: 4000 };
        for threads in [1, 2] {
            prvm_par::set_global_threads(threads);
            let base = ProfileGraph::build(space.clone(), base_vms.to_vec(), limits);
            let full_base = ProfileGraph::build_full(space.clone(), base_vms.to_vec(), limits);
            let built = [
                ProfileGraph::build(space.clone(), vms.clone(), limits),
                ProfileGraph::build_full(space.clone(), vms.clone(), limits),
                base.clone().and_then(|g| g.extend(new_vms.to_vec(), limits)),
                base.clone().and_then(|g| g.extend(known.clone(), limits)),
                base.and_then(|g| g.extend(mixed.clone(), limits)),
                full_base.and_then(|g| g.extend(known.clone(), limits)),
            ];
            for graph in built.iter().flatten() {
                groups_match_place(graph)?;
            }
        }
        prvm_par::set_global_threads(0);
    }
}

/// A score book with the PM and VM types it was built for.
type Catalog = (Arc<ScoreBook>, Vec<PmSpec>, Vec<VmSpec>);

/// The two books the placer properties run on: EC2 at a coarse
/// quantization (memory rounds up hard, so quantized-infeasible but
/// real-feasible PMs and the fallback branch occur) and GENI. Built once.
fn placer_books() -> &'static [Catalog; 2] {
    static BOOKS: OnceLock<[Catalog; 2]> = OnceLock::new();
    BOOKS.get_or_init(|| {
        let build = |q: Quantizer, pms: Vec<PmSpec>, vms: Vec<VmSpec>| {
            let book = ScoreBook::build(
                q,
                &pms,
                &vms,
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .expect("catalog book builds");
            (Arc::new(book), pms, vms)
        };
        [
            build(
                Quantizer {
                    core_slots: 2,
                    mem_levels: 4,
                    disk_levels: 2,
                },
                catalog::ec2_pm_types(),
                catalog::ec2_vm_types(),
            ),
            build(
                Quantizer::default(),
                vec![catalog::geni_pm()],
                catalog::geni_vm_types(),
            ),
        ]
    })
}

/// Algorithm 2 without the cache: `best_option` on every scanned used
/// PM, strict `>` keeps the earliest maximum, then the first
/// real-feasible fallback, then the first unused PM that fits.
fn uncached_choose(
    placer: &PageRankVmPlacer,
    cluster: &Cluster,
    vm: &VmSpec,
    exclude: &dyn Fn(PmId) -> bool,
) -> Option<PlacementDecision> {
    let mut best: Option<(f64, PmId, Assignment)> = None;
    let mut fallback: Option<PlacementDecision> = None;
    for pm_id in cluster.used_pms() {
        let pm = cluster.pm(pm_id);
        if exclude(pm_id) || !pm.has_aggregate_room(vm) {
            continue;
        }
        match placer.best_option(pm, vm) {
            Some((score, assignment)) => {
                if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
                    best = Some((score, pm_id, assignment));
                }
            }
            None => {
                if fallback.is_none() {
                    fallback = pm.first_feasible(vm).map(|assignment| PlacementDecision {
                        pm: pm_id,
                        assignment,
                    });
                }
            }
        }
    }
    if let Some((_, pm, assignment)) = best {
        return Some(PlacementDecision { pm, assignment });
    }
    fallback.or_else(|| {
        cluster
            .unused_pms()
            .filter(|&pm| !exclude(pm))
            .find_map(|pm| {
                cluster
                    .pm(pm)
                    .first_feasible(vm)
                    .map(|assignment| PlacementDecision { pm, assignment })
            })
    })
}

/// One step of a placer property run: `(kind, VM type, extra)`. Kind 0
/// removes the resident `extra` (mod count), 1 places excluding PMs in
/// stripe `extra` mod 3, anything else places with nothing excluded.
fn arb_steps() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..5, 0usize..16, 0usize..64), 20..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cached `choose` returns exactly what a cache-free scan of
    /// `best_option` returns, on every step of a random place/remove
    /// sequence — including exclusions, quantized fallbacks and
    /// unused-PM opens — and its cache stays within 2 × used PMs.
    #[test]
    fn cached_choose_equals_uncached_scan(
        which in 0usize..2,
        m3 in 1usize..10,
        c3 in 0usize..5,
        steps in arb_steps(),
    ) {
        let (book, pm_types, vm_types) = &placer_books()[which];
        let specs = (0..m3 + c3).map(|i| pm_types[usize::from(i >= m3) % pm_types.len()].clone());
        let mut cluster = Cluster::from_specs(specs);
        let mut placer = PageRankVmPlacer::new(Arc::clone(book));
        let mut residents: Vec<VmId> = Vec::new();
        for (kind, ty, extra) in steps {
            if kind == 0 {
                if !residents.is_empty() {
                    let victim = residents.swap_remove(extra % residents.len());
                    cluster.remove(victim).expect("resident");
                }
                continue;
            }
            let vm = &vm_types[ty % vm_types.len()];
            let stripe = extra % 3;
            let none = |_: PmId| false;
            let striped = |pm: PmId| pm.0 % 3 == stripe;
            let exclude: &dyn Fn(PmId) -> bool = if kind == 1 { &striped } else { &none };
            let want = uncached_choose(&placer, &cluster, vm, exclude);
            let got = placer.choose(&cluster, vm, exclude);
            prop_assert_eq!(&got, &want);
            prop_assert!(placer.cache_len() <= 2 * cluster.active_pm_count());
            if let Some(d) = got {
                residents.push(cluster.place(d.pm, vm.clone(), d.assignment).expect("valid"));
            }
        }
    }
}
