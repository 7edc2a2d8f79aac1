//! The Profile–PageRank score table (§V-B).
//!
//! "We produce a Profile-PageRank score table from the graph, in which each
//! profile is associated with a rank score." The table is what Algorithm 2
//! consults at placement time; it is rebuilt only when the VM-type set
//! changes. A [`ScoreBook`] bundles one table per PM type together with the
//! [`Quantizer`] that maps live machines into the profile space.

use crate::bpru::bpru;
use crate::graph::{ix, GraphError, GraphLimits, ProfileGraph};
use crate::pagerank::{pagerank, pagerank_warm, PageRankConfig, PageRankResult};
use crate::profile::{Profile, ProfileSpace, ProfileVm};
use prvm_model::{PmSpec, Quantizer, VmSpec};

/// Final per-profile scores for one PM type:
/// `PR(P_i) * BPRU(P_i)` (Algorithm 1, line 19).
#[derive(Debug, Clone)]
#[must_use]
pub struct ScoreTable {
    graph: ProfileGraph,
    scores: Vec<f64>,
    pagerank: PageRankResult,
}

impl ScoreTable {
    /// Build graph, run PageRank, apply the BPRU discount.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from graph construction.
    pub fn build(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let graph = ProfileGraph::build(space, vm_types, limits)?;
        let pr = pagerank(&graph, config);
        Ok(Self::from_graph(graph, pr))
    }

    /// Like [`Self::build`], but over **all** canonical profiles of the
    /// space rather than just those reachable from empty — the setting of
    /// the paper's motivation section (§III-B), whose example profile
    /// `[4,3,3,3]` no in-catalog VM sequence produces.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from graph construction.
    pub fn build_full(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let graph = ProfileGraph::build_full(space, vm_types, limits)?;
        let pr = pagerank(&graph, config);
        Ok(Self::from_graph(graph, pr))
    }

    /// Rebuild this table for a catalog grown by `delta` VM types:
    /// [`ProfileGraph::extend`] aliases a delta that only repeats known
    /// footprints and otherwise builds the merged graph cold,
    /// [`pagerank_warm`] restarts power iteration from this table's
    /// converged scores, and the BPRU discount is recomputed over the
    /// extended graph. Bit-identical to [`Self::build_seeded`] over the
    /// same `(base, delta)` history (DESIGN.md §15).
    ///
    /// The two graph paths cost very different amounts. In
    ///
    /// ```text
    /// bash perfbench/run.sh --workload book-refresh --seed 1 --seconds 20 --trace 1
    /// ```
    ///
    /// `graph.extend_ms.identity` (a same-footprint refresh, aliased)
    /// reads 6.5 ms per refresh and `graph.extend_ms.structural` (the
    /// `c3.xlarge` delta, a cold build) 228 ms (medians of four runs,
    /// seeds 1–4, one worker, 2 vCPUs). The warm start likewise pays
    /// only for deltas that leave the graph as it was:
    /// `pagerank.warm_sweeps` is 16.5 per table against
    /// `pagerank.sweeps` = 101 for the two cold base tables, and that
    /// mean is mostly same-footprint refreshes (2–3 sweeps); the
    /// structural delta still takes 46 of a cold run's 47 sweeps on M3
    /// (see [`pagerank_warm`]).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from the graph extension.
    pub fn extend(
        &self,
        delta: Vec<ProfileVm>,
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let graph = self.graph.extend(delta, limits)?;
        let pr = pagerank_warm(&graph, config, &self.graph, &self.pagerank.scores);
        Ok(Self::from_graph(graph, pr))
    }

    /// From-scratch replay of an incremental history: build the base
    /// catalog's table cold, then build the **merged** graph fresh (via
    /// [`ProfileGraph::build`], not the extend path) and warm-start
    /// PageRank from the freshly computed base scores.
    ///
    /// This is the comparator the determinism tests pin [`Self::extend`]
    /// against: both paths see bit-identical graphs (an extend's graph
    /// is the merged catalog's, aliased or built cold) and bit-identical
    /// warm seeds, so their score tables must agree bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from either graph construction.
    pub fn build_seeded(
        space: ProfileSpace,
        base_vm_types: Vec<ProfileVm>,
        delta: Vec<ProfileVm>,
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let base = Self::build(space.clone(), base_vm_types, config, limits)?;
        let merged: Vec<ProfileVm> = base.graph.vm_types().iter().cloned().chain(delta).collect();
        let graph = ProfileGraph::build(space, merged, limits)?;
        let pr = pagerank_warm(&graph, config, &base.graph, &base.pagerank.scores);
        Ok(Self::from_graph(graph, pr))
    }

    /// Apply the BPRU discount to `pr` over `graph`: the final scores
    /// `PR(P_i) * BPRU(P_i)` (Algorithm 1, line 19).
    fn from_graph(graph: ProfileGraph, pr: PageRankResult) -> Self {
        let discount = bpru(&graph);
        let scores = pr
            .scores
            .iter()
            .zip(&discount)
            .map(|(&p, &b)| p * b)
            .collect();
        Self {
            graph,
            scores,
            pagerank: pr,
        }
    }

    /// Reassemble a table from cached parts (the PVSB loader).
    pub(crate) fn from_parts(
        graph: ProfileGraph,
        scores: Vec<f64>,
        pagerank: PageRankResult,
    ) -> Self {
        Self {
            graph,
            scores,
            pagerank,
        }
    }

    /// Raw final scores in node-id order (the PVSB writer).
    pub(crate) fn scores_raw(&self) -> &[f64] {
        &self.scores
    }

    /// The underlying profile graph.
    #[must_use]
    pub fn graph(&self) -> &ProfileGraph {
        &self.graph
    }

    /// The profile space the table is defined over.
    #[must_use]
    pub fn space(&self) -> &ProfileSpace {
        self.graph.space()
    }

    /// Raw PageRank output (before the BPRU discount).
    #[must_use]
    pub fn pagerank(&self) -> &PageRankResult {
        &self.pagerank
    }

    /// Final score of a profile, or `None` if the profile is not reachable
    /// in the graph (e.g. an over-committed fallback placement).
    #[must_use]
    pub fn score(&self, profile: &Profile) -> Option<f64> {
        self.graph.node(profile).map(|id| self.scores[ix(id)])
    }

    /// Iterate `(profile, score)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Profile, f64)> + '_ {
        self.graph
            .node_ids()
            .map(move |id| (self.graph.profile(id), self.scores[ix(id)]))
    }

    /// Number of profiles in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` if the table has no entries (cannot occur for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// One score table per PM type, plus the quantizer, shared by the placer
/// and the eviction policy.
/// Tables are stored in first-seen `pm_specs` order (not a hash map), so
/// every iteration over the book is deterministic — a D001 requirement:
/// the book sits on the placement path and downstream audits/reports
/// walk it.
#[derive(Debug)]
#[must_use]
pub struct ScoreBook {
    quantizer: Quantizer,
    tables: Vec<(PmSpec, ScoreTable)>,
}

impl ScoreBook {
    /// Build a table for every PM type in `pm_specs` against the VM set
    /// `vm_types`.
    ///
    /// # Errors
    ///
    /// Fails if any PM type's profile graph cannot be built. A PM type for
    /// which *no* VM type fits is rejected ([`GraphError::NoUsableVmTypes`])
    /// — such a PM could never host anything anyway.
    pub fn build(
        quantizer: Quantizer,
        pm_specs: &[PmSpec],
        vm_types: &[VmSpec],
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_tables(quantizer, pm_specs, vm_types, None, config, limits)
    }

    /// Rebuild every table for a catalog grown by `delta_vm_types`: each
    /// table runs [`ScoreTable::extend`] with the delta quantized into
    /// its PM type's space, so whether a table aliases or builds cold
    /// depends on the footprints in that space. PM types for which no
    /// delta VM fits still re-run the (cheap) warm PageRank, so the
    /// result is bit-identical to [`Self::build_seeded`] over the same
    /// history on every table.
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError`] from any table's extension.
    pub fn extend(
        &self,
        delta_vm_types: &[VmSpec],
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let _span = prvm_obs::Span::enter("score_book_extend");
        let mut tables: Vec<(PmSpec, ScoreTable)> = Vec::with_capacity(self.tables.len());
        for (pm, table) in &self.tables {
            let delta = profile_vms(&self.quantizer, pm, table.space(), delta_vm_types);
            tables.push((pm.clone(), table.extend(delta, config, limits)?));
        }
        prvm_obs::event("score_book.extended")
            .field("pm_types", tables.len())
            .field("delta_vm_types", delta_vm_types.len())
            .emit();
        Ok(Self {
            quantizer: self.quantizer,
            tables,
        })
    }

    /// From-scratch replay of an incremental history — the book-level
    /// analogue of [`ScoreTable::build_seeded`], and the comparator the
    /// incremental-smoke byte-diff pins [`Self::extend`] against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`].
    pub fn build_seeded(
        quantizer: Quantizer,
        pm_specs: &[PmSpec],
        base_vm_types: &[VmSpec],
        delta_vm_types: &[VmSpec],
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_tables(
            quantizer,
            pm_specs,
            base_vm_types,
            Some(delta_vm_types),
            config,
            limits,
        )
    }

    /// The per-PM-type loop behind [`Self::build`] (no delta)
    /// and [`Self::build_seeded`]: one table per distinct PM type, in
    /// first-seen order, over the VM types quantized into its space.
    fn build_tables(
        quantizer: Quantizer,
        pm_specs: &[PmSpec],
        base_vm_types: &[VmSpec],
        delta_vm_types: Option<&[VmSpec]>,
        config: &PageRankConfig,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        let _span = prvm_obs::Span::enter("score_book");
        let mut tables: Vec<(PmSpec, ScoreTable)> = Vec::new();
        for pm in pm_specs {
            if tables.iter().any(|(spec, _)| spec == pm) {
                continue;
            }
            let space = ProfileSpace::from_quantized_pm(&quantizer.quantize_pm(pm));
            let base = profile_vms(&quantizer, pm, &space, base_vm_types);
            let table = match delta_vm_types {
                None => ScoreTable::build(space, base, config, limits)?,
                Some(delta) => {
                    let delta = profile_vms(&quantizer, pm, &space, delta);
                    ScoreTable::build_seeded(space, base, delta, config, limits)?
                }
            };
            tables.push((pm.clone(), table));
        }
        prvm_obs::event("score_book.built")
            .field("pm_types", tables.len())
            .emit();
        Ok(Self { quantizer, tables })
    }

    /// Reassemble a book from cached parts (the PVSB loader).
    pub(crate) fn from_parts(quantizer: Quantizer, tables: Vec<(PmSpec, ScoreTable)>) -> Self {
        Self { quantizer, tables }
    }

    /// The quantizer shared by all tables.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The table for a PM type, if one was built. Linear scan: a book
    /// holds one table per PM *type* (a handful), not per PM.
    #[must_use]
    pub fn table(&self, pm: &PmSpec) -> Option<&ScoreTable> {
        self.tables
            .iter()
            .find(|(spec, _)| spec == pm)
            .map(|(_, t)| t)
    }

    /// Iterate every `(PM type, table)` pair in first-seen build order.
    pub fn tables(&self) -> impl Iterator<Item = (&PmSpec, &ScoreTable)> {
        self.tables.iter().map(|(spec, t)| (spec, t))
    }

    /// Number of PM types covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` if no PM type is covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Canonicalise raw quantized usage into the given space.
    ///
    /// Kind order follows [`ProfileSpace::from_quantized_pm`]: cores, then
    /// memory (if present), then disks (if present).
    ///
    /// # Panics
    ///
    /// Panics if the space contains a kind other than `cores`, `mem` or
    /// `disks`; spaces built by [`ProfileSpace::from_quantized_pm`] never
    /// do.
    #[must_use]
    pub fn usage_profile(
        &self,
        space: &ProfileSpace,
        cores: &[u64],
        mem: u64,
        disks: &[u64],
    ) -> Profile {
        let mem_slice = [mem];
        let mut parts: Vec<&[u64]> = vec![cores];
        for kind in space.kinds().iter().skip(1) {
            match kind.name.as_str() {
                "mem" => parts.push(&mem_slice),
                "disks" => parts.push(disks),
                other => unreachable!("unexpected kind {other}"),
            }
        }
        space.canonicalize(&parts)
    }
}

/// The VM types of `vms` that fit `space`, quantized against `pm`.
fn profile_vms(
    quantizer: &Quantizer,
    pm: &PmSpec,
    space: &ProfileSpace,
    vms: &[VmSpec],
) -> Vec<ProfileVm> {
    vms.iter()
        .filter_map(|v| space.vm_demand(&quantizer.quantize_vm(v, pm)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prvm_model::catalog;

    fn paper_table() -> ScoreTable {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        ScoreTable::build(
            space,
            vms,
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap()
    }

    fn score(t: &ScoreTable, v: &[u64]) -> f64 {
        t.score(&t.space().canonicalize(&[v])).expect("reachable")
    }

    #[test]
    fn motivation_example_ranking_holds() {
        // §III-B: [3,3,2,2] must outrank [4,3,3,3] even though the latter
        // has higher utilization and lower variance — THE paper's central
        // claim. [4,3,3,3] has an odd total so it is unreachable by
        // in-catalog VMs; the motivation reasons over the full space.
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        let t = ScoreTable::build_full(
            space,
            vms,
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap();
        assert!(
            score(&t, &[3, 3, 2, 2]) > score(&t, &[4, 3, 3, 3]),
            "pagerank table must prefer [3,3,2,2]: {} vs {}",
            score(&t, &[3, 3, 2, 2]),
            score(&t, &[4, 3, 3, 3]),
        );
    }

    #[test]
    fn full_table_covers_every_canonical_profile() {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![ProfileVm::from_demands("[1,1]", vec![vec![1, 1]])];
        let t = ScoreTable::build_full(
            space,
            vms,
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap();
        // Multisets of size 4 over {0..4}: C(8,4) = 70.
        assert_eq!(t.len(), 70);
        // Odd-total profiles now have scores too.
        assert!(t.score(&t.space().canonicalize(&[&[1, 0, 0, 0]])).is_some());
    }

    #[test]
    fn quality_example_ranking_holds() {
        // §V-A / Fig. 2: [3,3,3,3] has higher quality than [4,4,2,2].
        let t = paper_table();
        assert!(score(&t, &[3, 3, 3, 3]) > score(&t, &[4, 4, 2, 2]));
    }

    #[test]
    fn unreachable_profile_scores_none() {
        let t = paper_table();
        // Odd total usage is unreachable with even-sized VM shapes.
        let p = t.space().canonicalize(&[&[1, 0, 0, 0]]);
        assert_eq!(t.score(&p), None);
    }

    #[test]
    fn iter_covers_all_nodes() {
        let t = paper_table();
        assert_eq!(t.iter().count(), t.len());
        assert!(!t.is_empty());
        assert!(t.iter().all(|(_, s)| s > 0.0));
    }

    #[test]
    fn book_builds_tables_for_ec2_catalog() {
        // A coarse quantizer keeps this test quick.
        let q = Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        };
        let book = ScoreBook::build(
            q,
            &catalog::ec2_pm_types(),
            &catalog::ec2_vm_types(),
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap();
        assert_eq!(book.len(), 2);
        assert!(book.table(&catalog::pm_m3()).is_some());
        assert!(book.table(&catalog::pm_c3()).is_some());
        assert!(book.table(&catalog::geni_pm()).is_none());
    }

    fn table_bits(t: &ScoreTable) -> Vec<u64> {
        t.graph()
            .node_ids()
            .map(|id| {
                t.score(t.graph().profile(id))
                    .expect("own profile")
                    .to_bits()
            })
            .collect()
    }

    #[test]
    fn extend_matches_build_seeded_bitwise() {
        let space = ProfileSpace::uniform(4, 4);
        let pair = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let quad = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let config = PageRankConfig::default();
        let base = ScoreTable::build(
            space.clone(),
            vec![pair.clone()],
            &config,
            GraphLimits::default(),
        )
        .unwrap();
        let extended = base
            .extend(vec![quad.clone()], &config, GraphLimits::default())
            .unwrap();
        let seeded = ScoreTable::build_seeded(
            space,
            vec![pair],
            vec![quad],
            &config,
            GraphLimits::default(),
        )
        .unwrap();
        assert_eq!(extended.len(), seeded.len());
        assert_eq!(extended.pagerank().iterations, seeded.pagerank().iterations);
        assert_eq!(table_bits(&extended), table_bits(&seeded));
    }

    #[test]
    fn book_extend_matches_build_seeded_bitwise() {
        let q = Quantizer {
            core_slots: 2,
            mem_levels: 4,
            disk_levels: 2,
        };
        let config = PageRankConfig::default();
        let mut base_vms = catalog::ec2_vm_types();
        let delta = vec![base_vms.pop().unwrap()];
        let pms = [catalog::pm_m3()];
        let base = ScoreBook::build(q, &pms, &base_vms, &config, GraphLimits::default()).unwrap();
        let extended = base
            .extend(&delta, &config, GraphLimits::default())
            .unwrap();
        let seeded =
            ScoreBook::build_seeded(q, &pms, &base_vms, &delta, &config, GraphLimits::default())
                .unwrap();
        assert_eq!(extended.len(), seeded.len());
        for ((pa, ta), (pb, tb)) in extended.tables().zip(seeded.tables()) {
            assert_eq!(pa, pb);
            assert_eq!(table_bits(ta), table_bits(tb));
        }
    }

    #[test]
    fn duplicate_pm_specs_build_one_table() {
        let q = Quantizer {
            core_slots: 2,
            mem_levels: 2,
            disk_levels: 2,
        };
        let specs = vec![catalog::pm_m3(), catalog::pm_m3(), catalog::pm_m3()];
        let book = ScoreBook::build(
            q,
            &specs,
            &catalog::ec2_vm_types(),
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap();
        assert_eq!(book.len(), 1);
    }
}
