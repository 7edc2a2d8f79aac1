//! The PageRankVM placement algorithm (Algorithm 2) and its eviction rule.

use crate::table::{ScoreBook, ScoreTable};
use prvm_model::combin::distinct_placements;
use prvm_model::units::convert;
use prvm_model::{
    scan, Assignment, Cluster, EvictionPolicy, Mhz, PlacementAlgorithm, PlacementDecision, Pm,
    PmId, QuantizedVm, VmId, VmSpec,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a over 64-bit words: deterministic across runs and platforms (no
/// `RandomState`, D002), like the profile interner's hash. Keys are small
/// quantized unit counts, never raw outside input, and the cache holds at
/// most 2 × used PMs of them.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
            self.0 = (self.0 ^ word).wrapping_mul(PRIME);
        }
        for &byte in words.remainder() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// How the PageRankVM rater rates a PM: `(scored, score)`. A scored
/// option is `(true, its score)`; the quantized fallback is
/// `(false, 0.0)`, below every scored option.
pub(crate) type Rating = (bool, f64);

/// Every scored way of hosting one quantized VM on one quantized PM
/// usage, best first: score descending, enumeration order among equal
/// scores. Built by [`PageRankVmPlacer::ranked_options`].
#[derive(Debug, Clone, Default)]
pub struct RankedOptions {
    /// Distinct core placements of the vCPUs.
    cores: Vec<Vec<usize>>,
    /// Distinct disk placements of the virtual disks.
    disks: Vec<Vec<usize>>,
    /// `(score, index into cores, index into disks)`, ranked.
    ranked: Vec<(f64, usize, usize)>,
}

impl RankedOptions {
    /// The options as `(score, assignment)`, best first.
    pub fn iter(&self) -> impl Iterator<Item = (f64, Assignment)> + '_ {
        self.ranked
            .iter()
            .map(|&(score, c, d)| (score, self.assignment(c, d)))
    }

    fn assignment(&self, c: usize, d: usize) -> Assignment {
        let cores = self.cores.get(c).cloned().unwrap_or_default();
        let disks = self.disks.get(d).cloned().unwrap_or_default();
        Assignment::new(cores, disks)
    }

    /// The best option scoring strictly above `floor` (any score when
    /// `None`) that `pm`'s real-unit validator accepts. vCPU slots round
    /// to nearest, so a quantized option can be slightly optimistic.
    fn first_valid(&self, pm: &Pm, vm: &VmSpec, floor: Option<f64>) -> Option<(f64, Assignment)> {
        self.ranked
            .iter()
            .take_while(|(score, _, _)| floor.is_none_or(|f| *score > f))
            .map(|&(score, c, d)| (score, self.assignment(c, d)))
            .find(|(_, assignment)| pm.validate(vm, assignment).is_ok())
    }
}

/// PageRank-based VM placement with anti-collocation constraints.
///
/// For a given VM, the placer walks `used_PM_list`, derives the set of
/// possible PM profiles after accommodating *every distinct permutation* of
/// the VM's demands, looks each up in the Profile–PageRank score table, and
/// selects the PM (and permutation) with the maximum score. If no used PM
/// fits, the first unused PM with sufficient resources is opened
/// (Algorithm 2 lines 17–24).
///
/// PMs with the same type and the same quantized usage rank a VM's
/// options identically, so the placer keeps each ranked list in a cache
/// keyed by content (table, quantized VM, quantized usage) and scores a
/// distinct usage once rather than once per PM (DESIGN.md §5).
///
/// # Example
///
/// Place one `m3.large` on an empty cluster — the placer opens exactly
/// one PM and returns an anti-collocation-respecting assignment:
///
/// ```
/// use pagerankvm::{GraphLimits, PageRankConfig, PageRankVmPlacer, ScoreBook};
/// use prvm_model::{catalog, Cluster, PlacementAlgorithm, Quantizer};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let book = Arc::new(ScoreBook::build(
///     Quantizer { core_slots: 2, mem_levels: 4, disk_levels: 2 },
///     &catalog::ec2_pm_types(),
///     &catalog::ec2_vm_types(),
///     &PageRankConfig::default(),
///     GraphLimits::default(),
/// )?);
/// let mut placer = PageRankVmPlacer::new(book);
/// let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 4);
///
/// let vm = catalog::vm_m3_large();
/// let decision = placer
///     .choose(&cluster, &vm, &|_| false)
///     .expect("an m3 PM can host an m3.large");
/// assert!(decision.assignment.is_anti_collocated());
/// cluster.place(decision.pm, vm, decision.assignment)?;
/// assert_eq!(cluster.active_pm_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PageRankVmPlacer {
    book: Arc<ScoreBook>,
    /// Ranked options by flattened key: table index, quantized usage,
    /// quantized VM (see `choose`). Holds at most 2 × used PMs entries.
    cache: HashMap<Vec<u64>, RankedOptions, BuildHasherDefault<Fnv>>,
}

impl PageRankVmPlacer {
    /// Create a placer over a pre-built [`ScoreBook`].
    #[must_use]
    pub fn new(book: Arc<ScoreBook>) -> Self {
        Self {
            book,
            cache: HashMap::default(),
        }
    }

    /// The shared score book (also used by [`PageRankEviction`]).
    #[must_use]
    pub fn book(&self) -> &Arc<ScoreBook> {
        &self.book
    }

    /// Number of ranked option lists currently cached.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The best `(score, assignment)` for hosting `vm` on `pm`, evaluating
    /// every distinct permutation of the VM's demands in quantized space
    /// (Algorithm 2, lines 6–7): the first of
    /// [`Self::ranked_options`] that the real-unit validator accepts.
    ///
    /// Returns `None` when the PM type has no table, the placement is
    /// quantized-infeasible, or every resulting profile falls outside the
    /// graph.
    #[must_use]
    pub fn best_option(&self, pm: &Pm, vm: &VmSpec) -> Option<(f64, Assignment)> {
        let table = self.book.table(pm.spec())?;
        let quantizer = self.book.quantizer();
        let qvm = quantizer.quantize_vm(vm, pm.spec());
        let (cores, mem, disks) = quantizer.quantized_usage(pm);
        self.ranked_options(table, &qvm, &cores, mem, &disks)
            .first_valid(pm, vm, None)
    }

    /// Every scored option for hosting the quantized VM `qvm` on a PM of
    /// `table`'s type with quantized usage `(cores, mem, disks)`, ranked
    /// best first (stable: enumeration order breaks ties). A pure
    /// function of its arguments — no PM, no real units — so one list
    /// serves every PM with the same type and usage.
    #[must_use]
    pub fn ranked_options(
        &self,
        table: &ScoreTable,
        qvm: &QuantizedVm,
        cores: &[u64],
        mem: u64,
        disks: &[u64],
    ) -> RankedOptions {
        prvm_obs::counter!("placer.profiles_scored");
        let space = table.space();
        let cap_of = |name: &str| -> u64 {
            space
                .kinds()
                .iter()
                .find(|k| k.name == name)
                .map_or(0, |k| u64::from(k.cap))
        };

        // Memory is a single scalar dimension.
        let mem_cap = cap_of("mem");
        if mem + qvm.mem_units > mem_cap && qvm.mem_units > 0 {
            return RankedOptions::default();
        }
        let new_mem = mem + qvm.mem_units;

        let core_caps = vec![cap_of("cores"); cores.len()];
        let cpu_demands = vec![qvm.vcpu_slots; qvm.vcpus];
        let core_options = distinct_placements(cores, &core_caps, &cpu_demands);
        let disk_caps = vec![cap_of("disks"); disks.len()];
        let disk_options = distinct_placements(disks, &disk_caps, &qvm.disk_units);
        if core_options.is_empty() || disk_options.is_empty() {
            return RankedOptions::default();
        }
        prvm_obs::counter!(
            "placer.permutations_evaluated",
            convert::usize_to_u64(core_options.len() * disk_options.len())
        );

        let mut ranked = Vec::new();
        let mut new_cores = cores.to_vec();
        let mut new_disks = disks.to_vec();
        'cores: for (ci, co) in core_options.iter().enumerate() {
            new_cores.copy_from_slice(cores);
            for (&c, &demand) in co.iter().zip(&cpu_demands) {
                let Some(slot) = new_cores.get_mut(c) else {
                    debug_assert!(false, "core index {c} out of range");
                    continue 'cores;
                };
                *slot += demand;
            }
            'disks: for (di, do_) in disk_options.iter().enumerate() {
                new_disks.copy_from_slice(disks);
                for (&d, &units) in do_.iter().zip(&qvm.disk_units) {
                    let Some(slot) = new_disks.get_mut(d) else {
                        debug_assert!(false, "disk index {d} out of range");
                        continue 'disks;
                    };
                    *slot += units;
                }
                let profile = self
                    .book
                    .usage_profile(space, &new_cores, new_mem, &new_disks);
                if let Some(score) = table.score(&profile) {
                    ranked.push((score, ci, di));
                }
            }
        }
        // Stable: equal scores keep enumeration order, so the first valid
        // option is the one the strict-`>` scan over enumeration order
        // would keep.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        RankedOptions {
            cores: core_options,
            disks: disk_options,
            ranked,
        }
    }

    /// The rater [`scan`] and [`best_of`](prvm_model::best_of) call for
    /// `vm` on `cluster`: a PM's best option through the ranked-option
    /// cache, rated `(true, score)`.
    ///
    /// A PM with no scored option that beats the floor rates `None`,
    /// except while nothing has rated yet: then a quantized-infeasible
    /// (or unscored) but real-feasible PM rates `(false, 0.0)`. Every
    /// scored option outranks that, so it is Algorithm 2's fallback
    /// (DESIGN.md §5): the first such PM, taken only if no PM scores.
    pub(crate) fn rater<'a>(
        &'a mut self,
        cluster: &Cluster,
        vm: &'a VmSpec,
    ) -> impl FnMut(&Pm, Option<&Rating>) -> Option<(Rating, Assignment)> + 'a {
        // Bound the cache by cluster size, 2 × used PMs: a scan adds at
        // most one list per used PM, and a dropped list is rebuilt on
        // its next miss.
        let limit = 2 * cluster.active_pm_count();
        if self.cache.len() > limit {
            self.cache.clear();
        }
        let book = Arc::clone(&self.book);
        // The VM quantized once per PM type met in this scan.
        let mut qvms: Vec<Option<QuantizedVm>> = vec![None; book.len()];
        let mut key: Vec<u64> = Vec::new();
        move |pm, floor| {
            let quantizer = book.quantizer();
            let found = book
                .tables()
                .enumerate()
                .find(|(_, (spec, _))| *spec == pm.spec());
            let pick = found.and_then(|(t, (spec, table))| {
                let qvm = qvms
                    .get_mut(t)?
                    .get_or_insert_with(|| quantizer.quantize_vm(vm, spec));
                let (cores, mem, disks) = quantizer.quantized_usage(pm);
                key.clear();
                key.push(convert::usize_to_u64(t));
                key.extend_from_slice(&cores);
                key.push(mem);
                key.extend_from_slice(&disks);
                key.extend([
                    convert::usize_to_u64(qvm.vcpus),
                    qvm.vcpu_slots,
                    qvm.mem_units,
                ]);
                key.extend_from_slice(&qvm.disk_units);
                let options = match self.cache.get(key.as_slice()) {
                    Some(options) => options,
                    None => {
                        if self.cache.len() >= limit {
                            self.cache.clear();
                        }
                        let options = self.ranked_options(table, qvm, &cores, mem, &disks);
                        self.cache.entry(key.clone()).or_insert(options)
                    }
                };
                // Only an option scoring above the best so far can change
                // the outcome; the first valid one in rank order is this
                // PM's best.
                let above = floor.and_then(|&(scored, score)| scored.then_some(score));
                options.first_valid(pm, vm, above)
            });
            match pick {
                Some((score, assignment)) => Some(((true, score), assignment)),
                None if floor.is_none() => pm.first_feasible(vm).map(|a| ((false, 0.0), a)),
                None => None,
            }
        }
    }
}

impl PlacementAlgorithm for PageRankVmPlacer {
    fn name(&self) -> &str {
        "PageRankVM"
    }

    fn choose(
        &mut self,
        cluster: &Cluster,
        vm: &VmSpec,
        exclude: &dyn Fn(PmId) -> bool,
    ) -> Option<PlacementDecision> {
        // One span per VM placed; `ranked_options` below stays span-free
        // (it runs once per distinct scanned usage, too hot — see
        // lint.toml).
        let _span = prvm_obs::Span::enter("choose");
        let mut scanned = 0u64;
        let mut rate = self.rater(cluster, vm);
        // Lines 2–13 over the used PMs, else lines 17–24: open the first
        // unused PM with sufficient resources.
        let found = scan(cluster, vm, exclude, |pm, floor| {
            scanned += 1;
            rate(pm, floor)
        });
        prvm_obs::counter!("placer.used_pms_scanned", scanned);
        match found {
            Some((Some((scored, _)), decision)) => {
                prvm_obs::counter!("placer.used_pm_placements");
                if !scored {
                    prvm_obs::counter!("placer.quantized_fallbacks");
                }
                Some(decision)
            }
            Some((None, decision)) => {
                prvm_obs::counter!("placer.unused_pm_opens");
                Some(decision)
            }
            None => {
                prvm_obs::counter!("placer.placement_failures");
                None
            }
        }
    }
}

/// PageRankVM's overload handling (§VI-A, Comparison Algorithms): "for each
/// VM on the PM, we check the PageRank value of the resulting profile of
/// this PM after removing the VM. Then we select the VM that can result in
/// the highest PageRank value to remove."
#[derive(Debug, Clone)]
pub struct PageRankEviction {
    book: Arc<ScoreBook>,
}

impl PageRankEviction {
    /// Create the eviction rule over the same book as the placer.
    #[must_use]
    pub fn new(book: Arc<ScoreBook>) -> Self {
        Self { book }
    }
}

impl EvictionPolicy for PageRankEviction {
    fn name(&self) -> &str {
        "PageRankVM"
    }

    fn select(&mut self, pm: &Pm, _cpu_demand: &dyn Fn(VmId) -> Mhz) -> Option<VmId> {
        if pm.is_empty() {
            return None;
        }
        let quantizer = self.book.quantizer();
        let table = self.book.table(pm.spec());
        let (cores, mem, disks) = quantizer.quantized_usage(pm);

        let mut best: Option<(f64, VmId)> = None;
        let mut biggest: Option<(u64, VmId)> = None;
        for (id, vm, assignment) in pm.vms() {
            let qvm = quantizer.quantize_vm(vm, pm.spec());
            let total = qvm.vcpu_slots * convert::usize_to_u64(qvm.vcpus)
                + qvm.mem_units
                + qvm.disk_units.iter().sum::<u64>();
            if biggest.as_ref().is_none_or(|(t, _)| total > *t) {
                biggest = Some((total, id));
            }
            let Some(table) = table else { continue };
            let mut rc = cores.clone();
            for &c in &assignment.cores {
                let Some(slot) = rc.get_mut(c) else {
                    debug_assert!(false, "assigned core {c} out of range");
                    continue;
                };
                *slot = slot.saturating_sub(qvm.vcpu_slots);
            }
            let rm = mem.saturating_sub(qvm.mem_units);
            let mut rd = disks.clone();
            for (&d, &units) in assignment.disks.iter().zip(&qvm.disk_units) {
                let Some(slot) = rd.get_mut(d) else {
                    debug_assert!(false, "assigned disk {d} out of range");
                    continue;
                };
                *slot = slot.saturating_sub(units);
            }
            let profile = self.book.usage_profile(table.space(), &rc, rm, &rd);
            if let Some(score) = table.score(&profile) {
                if best.as_ref().is_none_or(|(b, _)| score > *b) {
                    best = Some((score, id));
                }
            }
        }
        // Fallback when no post-removal profile is scoreable: evict the
        // largest VM (it frees the most quantized resource).
        let fell_back = best.is_none();
        let victim = best.map(|(_, id)| id).or(biggest.map(|(_, id)| id));
        if victim.is_some() {
            prvm_obs::counter!("placer.eviction_picks");
            if fell_back {
                prvm_obs::counter!("placer.eviction_size_fallbacks");
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::pagerank::PageRankConfig;
    use prvm_model::{catalog, place_batch, Quantizer};

    fn book() -> Arc<ScoreBook> {
        let q = Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        };
        Arc::new(
            ScoreBook::build(
                q,
                &catalog::ec2_pm_types(),
                &catalog::ec2_vm_types(),
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .unwrap(),
        )
    }

    fn geni_book() -> Arc<ScoreBook> {
        Arc::new(
            ScoreBook::build(
                Quantizer::default(),
                &[catalog::geni_pm()],
                &catalog::geni_vm_types(),
                &PageRankConfig::default(),
                GraphLimits::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn places_batch_and_prefers_used_pms() {
        let mut placer = PageRankVmPlacer::new(book());
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 10);
        let vms = vec![catalog::vm_m3_medium(); 8];
        place_batch(&mut placer, &mut cluster, vms).unwrap();
        // 8 m3.medium easily share far fewer than 8 PMs.
        assert!(
            cluster.active_pm_count() <= 2,
            "{}",
            cluster.active_pm_count()
        );
    }

    #[test]
    fn best_option_scores_empty_pm() {
        let placer = PageRankVmPlacer::new(book());
        let pm = Pm::new(catalog::pm_m3());
        let (score, assignment) = placer
            .best_option(&pm, &catalog::vm_m3_large())
            .expect("fits");
        assert!(score > 0.0);
        pm.validate(&catalog::vm_m3_large(), &assignment).unwrap();
    }

    #[test]
    fn ranked_options_are_best_first_and_best_option_is_first_valid() {
        let b = book();
        let placer = PageRankVmPlacer::new(Arc::clone(&b));
        let mut pm = Pm::new(catalog::pm_m3());
        let resident = catalog::vm_m3_large();
        let a = pm.first_feasible(&resident).unwrap();
        pm.place(VmId(0), resident, a).unwrap();
        let vm = catalog::vm_c3_large();
        let q = b.quantizer();
        let (cores, mem, disks) = q.quantized_usage(&pm);
        let qvm = q.quantize_vm(&vm, pm.spec());
        let table = b.table(pm.spec()).unwrap();
        let options = placer.ranked_options(table, &qvm, &cores, mem, &disks);
        // Score descending; equal scores in enumeration order.
        assert!(
            options
                .ranked
                .windows(2)
                .all(|w| w[0].0 > w[1].0
                    || (w[0].0 == w[1].0 && (w[0].1, w[0].2) < (w[1].1, w[1].2))),
            "{options:?}"
        );
        let ranked: Vec<(f64, Assignment)> = options.iter().collect();
        assert!(ranked.len() > 1, "{ranked:?}");
        let first_valid = ranked
            .into_iter()
            .find(|(_, a)| pm.validate(&vm, a).is_ok());
        assert_eq!(placer.best_option(&pm, &vm), first_valid);
    }

    #[test]
    fn quantized_feasibility_implies_real_feasibility() {
        // Fill a PM step by step; every option the placer returns must be
        // acceptable to the real-unit validator.
        let mut placer = PageRankVmPlacer::new(book());
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 3);
        for _ in 0..12 {
            let vm = catalog::vm_c3_large();
            let Some(d) = placer.choose(&cluster, &vm, &|_| false) else {
                break;
            };
            cluster.pm(d.pm).validate(&vm, &d.assignment).unwrap();
            cluster.place(d.pm, vm, d.assignment).unwrap();
        }
        assert!(cluster.vm_count() > 0);
    }

    #[test]
    fn geni_placer_packs_tightly() {
        // 4 cores x 4 slots: four [1,1,1,1] VMs exactly fill a node.
        let mut placer = PageRankVmPlacer::new(geni_book());
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 4);
        let vms = vec![catalog::geni_vm_4(); 4];
        place_batch(&mut placer, &mut cluster, vms).unwrap();
        assert_eq!(cluster.active_pm_count(), 1, "perfect packing expected");
    }

    #[test]
    fn exclusion_moves_choice_elsewhere() {
        let mut placer = PageRankVmPlacer::new(book());
        let mut cluster = Cluster::homogeneous(catalog::pm_m3(), 2);
        let vm = catalog::vm_m3_medium();
        let d = placer.choose(&cluster, &vm, &|_| false).unwrap();
        cluster.place(d.pm, vm.clone(), d.assignment).unwrap();
        let first = cluster.used_pms().next().unwrap();
        let d2 = placer.choose(&cluster, &vm, &|pm| pm == first).unwrap();
        assert_ne!(d2.pm, first);
    }

    #[test]
    fn no_capacity_returns_none() {
        let mut placer = PageRankVmPlacer::new(geni_book());
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 1);
        let vms = vec![catalog::geni_vm_4(); 4];
        place_batch(&mut placer, &mut cluster, vms).unwrap();
        assert!(placer
            .choose(&cluster, &catalog::geni_vm_2(), &|_| false)
            .is_none());
    }

    #[test]
    fn cache_stays_within_twice_the_used_pms_over_long_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let types = catalog::ec2_vm_types();
        let mut placer = PageRankVmPlacer::new(book());
        let mut cluster = Cluster::from_specs((0..60).map(|i| {
            if i % 3 == 2 {
                catalog::pm_c3()
            } else {
                catalog::pm_m3()
            }
        }));
        let mut residents = Vec::new();
        let (mut peak, mut clears) = (0, 0);
        for step in 0..3000 {
            // Grow to ~120 residents, then churn: remove one, place one.
            if step >= 120 && !residents.is_empty() {
                let victim = residents.swap_remove(rng.gen_range(0..residents.len()));
                cluster.remove(victim).unwrap();
            }
            let vm = types[rng.gen_range(0..types.len())].clone();
            let before = placer.cache_len();
            let decision = placer.choose(&cluster, &vm, &|_| false);
            let after = placer.cache_len();
            assert!(
                after <= 2 * cluster.active_pm_count(),
                "step {step}: {after} cached lists for {} used PMs",
                cluster.active_pm_count()
            );
            peak = peak.max(after);
            clears += usize::from(after < before);
            if let Some(d) = decision {
                residents.push(cluster.place(d.pm, vm, d.assignment).unwrap());
            }
        }
        // The bound was reached and enforced, not merely never tested.
        assert!(clears > 0, "cache never cleared (peak {peak})");
    }

    #[test]
    fn eviction_picks_scoreable_vm() {
        let b = geni_book();
        let mut placer = PageRankVmPlacer::new(b.clone());
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 1);
        let vms = vec![
            catalog::geni_vm_4(),
            catalog::geni_vm_2(),
            catalog::geni_vm_2(),
        ];
        place_batch(&mut placer, &mut cluster, vms).unwrap();
        let pm = cluster.pm(PmId(0));
        let mut evict = PageRankEviction::new(b);
        let victim = evict.select(pm, &|_| Mhz::ZERO).expect("pm has vms");
        assert!(pm.vm(victim).is_some());
    }

    #[test]
    fn eviction_on_empty_pm_is_none() {
        let mut evict = PageRankEviction::new(geni_book());
        let pm = Pm::new(catalog::geni_pm());
        assert_eq!(evict.select(&pm, &|_| Mhz::ZERO), None);
    }

    #[test]
    fn eviction_prefers_profile_with_highest_score() {
        // One [1,1,1,1] and one [1,1] on a GENI node. Removing the [1,1]
        // leaves [1,1,1,1] (balanced); removing the [1,1,1,1] leaves
        // [1,1,0,0]. The table decides; assert the choice is consistent
        // with the table's own ranking.
        let b = geni_book();
        let mut placer = PageRankVmPlacer::new(b.clone());
        let mut cluster = Cluster::homogeneous(catalog::geni_pm(), 1);
        let ids = place_batch(
            &mut placer,
            &mut cluster,
            vec![catalog::geni_vm_4(), catalog::geni_vm_2()],
        )
        .unwrap();
        let pm = cluster.pm(PmId(0));
        let table = b.table(pm.spec()).unwrap();
        let space = table.space();
        let s_remove_small = table.score(&space.canonicalize(&[&[1, 1, 1, 1]])).unwrap();
        let s_remove_big = table.score(&space.canonicalize(&[&[1, 1, 0, 0]])).unwrap();
        let mut evict = PageRankEviction::new(b.clone());
        let victim = evict.select(pm, &|_| Mhz::ZERO).unwrap();
        if s_remove_small > s_remove_big {
            assert_eq!(victim, ids[1], "should remove the [1,1] VM");
        } else {
            assert_eq!(victim, ids[0], "should remove the [1,1,1,1] VM");
        }
    }
}
