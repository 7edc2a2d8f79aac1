//! The profile graph (Algorithm 1, line 1).
//!
//! Nodes are PM usage profiles; an edge `A → B` means "profile `A` becomes
//! profile `B` by accommodating one VM from the VM-type set" (in any
//! permutation of the VM's anti-collocated demands). The graph is built by
//! breadth-first search from the empty profile, so it contains exactly the
//! profiles reachable by some placement sequence — every state a PM managed
//! by PageRankVM can be in.
//!
//! The graph is a DAG: every edge strictly increases total usage (VM demands
//! are positive), which `bpru` exploits for a linear-time reverse-topological
//! sweep.
//!
//! # Representation (DESIGN.md §15)
//!
//! Profiles are hash-consed into a [`ProfileInterner`] whose dense
//! [`ProfileId`]s *are* the node ids, and adjacency is CSR-first: a flat
//! `u32` successor array plus offsets, with no intermediate map. Besides
//! the deduplicated successor CSR the graph keeps the **expansion cache**
//! — per `(node, VM type)`, the outcome ids of `place` in enumeration
//! order.
//!
//! # One construction routine
//!
//! Every graph comes out of one level-synchronous BFS, the *replay* of a
//! base graph's catalog grown by some VM types. Its starting nodes
//! depend on the base graph's mode: node 0, the empty profile, for a
//! reachable graph; every node, in id order, for a full-space graph.
//! Expansions the base graph already holds are answered from its
//! expansion cache, translated into the new numbering, and an old
//! node's successor row starts from its base row; everything else is
//! read from the replay's `MoveTable`, which computes each distinct
//! per-kind placement once and keys every node by its tuple of
//! per-kind states.
//!
//! - [`ProfileGraph::build`] replays its catalog over a 1-node root with
//!   no VM types, so every expansion is read from the move table;
//! - [`ProfileGraph::build_full`] does the same over a root holding every
//!   canonical profile, so no node is ever minted;
//! - [`ProfileGraph::extend`] replays the merged catalog over `self`,
//!   which mints node ids in exactly the order a fresh build would — the
//!   extended graph is bit-for-bit identical to a fresh build over the
//!   merged catalog.

use crate::intern::{ProfileId, ProfileInterner};
use crate::profile::{MoveTable, Profile, ProfileSpace, ProfileVm};
use prvm_model::units::convert;
use prvm_obs::Span;
use prvm_par::Pool;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Node handle inside a [`ProfileGraph`].
pub type NodeId = u32;

/// Widen a node id to a vector index — the single audited `NodeId → usize`
/// conversion site. Lossless: `NodeId` is `u32` and every supported target
/// has at least 32-bit pointers, so the fallback is unreachable.
#[inline]
pub(crate) fn ix(id: NodeId) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

/// Narrow a node index to a `NodeId` — the single audited `usize → NodeId`
/// conversion site. Builders bound the node count by both
/// [`GraphLimits::max_nodes`] and `u32::MAX` before minting ids, so the
/// saturating fallback is unreachable.
#[inline]
pub(crate) fn nid(i: usize) -> NodeId {
    NodeId::try_from(i).unwrap_or(NodeId::MAX)
}

/// Sentinel in the old↔new id maps maintained by the replay.
const UNMAPPED: NodeId = NodeId::MAX;

/// Construction limits guarding against a quantization that explodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphLimits {
    /// Refuse to grow past this many nodes.
    pub max_nodes: usize,
}

impl Default for GraphLimits {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
        }
    }
}

/// Failure to build a profile graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The reachable profile space exceeds [`GraphLimits::max_nodes`];
    /// choose a coarser [`prvm_model::Quantizer`].
    TooLarge {
        /// The configured bound that was hit.
        max_nodes: usize,
    },
    /// No VM type fits the empty profile — the graph would be a single
    /// node and every rank degenerate.
    NoUsableVmTypes,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge { max_nodes } => write!(
                f,
                "profile graph exceeds {max_nodes} nodes; use a coarser quantizer"
            ),
            Self::NoUsableVmTypes => write!(f, "no VM type fits the empty profile"),
        }
    }
}

impl Error for GraphError {}

/// Which node set a graph was built over. It picks the replay's
/// starting nodes, so an extended graph keeps its base's node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildMode {
    /// BFS from the empty profile ([`ProfileGraph::build`]).
    Reachable,
    /// Every canonical profile of the space ([`ProfileGraph::build_full`]).
    Full,
}

/// Owned CSR arrays of a graph, as decoded by the PVSB cache loader
/// and handed to [`ProfileGraph::from_parts`].
pub(crate) struct CsrParts {
    pub succ: Vec<NodeId>,
    pub succ_off: Vec<usize>,
    pub gsucc: Vec<NodeId>,
    pub goff: Vec<usize>,
    pub util: Vec<f64>,
    pub full: bool,
}

/// Borrowed CSR arrays for the PVSB cache writer:
/// `(succ, succ_off, gsucc, goff, util, full)`.
pub(crate) type RawParts<'a> = (
    &'a [NodeId],
    &'a [usize],
    &'a [NodeId],
    &'a [usize],
    &'a [f64],
    bool,
);

/// The expansion of one frontier node, produced on a worker: for each VM
/// type the worker had to evaluate, the outcomes' move-table state
/// tuples (one state per kind) and the per-VM outcome count.
struct Expansion {
    states: Vec<ProfileId>,
    counts: Vec<usize>,
}

/// A replayed graph plus the tallies its entry point reports.
struct Replayed {
    graph: ProfileGraph,
    /// Group outcomes that landed on an already-numbered node.
    dedup_hits: u64,
    /// `(node, VM)` groups replayed from the base's expansion cache.
    cached_groups: u64,
    /// `(node, VM)` groups computed from the move table.
    computed_groups: u64,
    /// Distinct per-kind placements (`place_multiset` calls).
    kind_moves: u64,
}

/// The profile graph for one PM type and one VM-type set.
#[derive(Debug, Clone)]
pub struct ProfileGraph {
    space: ProfileSpace,
    vm_types: Vec<ProfileVm>,
    interner: ProfileInterner,
    /// CSR adjacency: successors of node `i` are
    /// `succ[succ_off[i]..succ_off[i+1]]`, sorted and deduplicated.
    succ: Vec<NodeId>,
    succ_off: Vec<usize>,
    /// Expansion cache: outcomes of `place(profile(i), vm_types[v])` in
    /// enumeration order, at `gsucc[goff[i*V + v]..goff[i*V + v + 1]]`.
    gsucc: Vec<NodeId>,
    goff: Vec<usize>,
    util: Vec<f64>,
    mode: BuildMode,
}

impl ProfileGraph {
    /// Build the graph over **every** canonical profile of the space (not
    /// just those reachable from empty). This is the space of the paper's
    /// motivation section, which reasons about arbitrary profiles such as
    /// `[4,3,3,3]` that no sequence of in-catalog VMs produces. Placement
    /// only ever needs the reachable graph ([`Self::build`]), which is
    /// smaller.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`].
    pub fn build_full(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_from_root(space, vm_types, limits, &Pool::global(), BuildMode::Full)
    }

    /// Build the graph by BFS from the empty profile.
    ///
    /// VM types that cannot fit even an empty PM are ignored (they would
    /// contribute no edges). Expansion runs on the global worker
    /// [`Pool`], sized by [`prvm_par::set_global_threads`].
    ///
    /// The BFS is level-synchronous: each frontier's successor profiles
    /// are enumerated in parallel (as products of memoised per-kind
    /// placements), then merged **sequentially in frontier order**, which
    /// mints node ids in exactly the order the single-threaded queue
    /// BFS would — so the resulting graph (node numbering, CSR layout,
    /// everything) is bit-for-bit identical at any worker count
    /// (DESIGN.md §10).
    ///
    /// ```
    /// use pagerankvm::{GraphLimits, ProfileGraph, ProfileSpace, ProfileVm};
    ///
    /// // The paper's running example: a [4,4,4,4] PM hosting VM shapes
    /// // [1,1] and [1,1,1,1].
    /// let graph = ProfileGraph::build(
    ///     ProfileSpace::uniform(4, 4),
    ///     vec![
    ///         ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
    ///         ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ///     ],
    ///     GraphLimits::default(),
    /// )?;
    /// // Node 0 is the empty profile; the fully-packed best profile is
    /// // reachable and hosts nothing more.
    /// let best = graph.node(&graph.space().best_profile()).unwrap();
    /// assert!(graph.is_endpoint(best));
    /// # Ok::<(), pagerankvm::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`GraphError::TooLarge`] if the reachable space exceeds the limit;
    /// [`GraphError::NoUsableVmTypes`] if no VM type fits an empty PM.
    pub fn build(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
    ) -> Result<Self, GraphError> {
        Self::build_from_root(
            space,
            vm_types,
            limits,
            &Pool::global(),
            BuildMode::Reachable,
        )
    }

    /// The cold build behind [`Self::build`] and [`Self::build_full`]:
    /// replay the usable VM types over a root graph that has none.
    fn build_from_root(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
        pool: &Pool,
        mode: BuildMode,
    ) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_build");
        let usable = usable_vms(&space, vm_types);
        if usable.is_empty() {
            return Err(GraphError::NoUsableVmTypes);
        }
        let run = Self::root(space, mode, limits)?.replay(usable, limits, pool)?;
        let graph = run.graph;
        prvm_obs::event("graph.built")
            .field(
                "mode",
                match mode {
                    BuildMode::Reachable => "bfs",
                    BuildMode::Full => "full",
                },
            )
            .field("nodes", graph.node_count())
            .field("edges", graph.edge_count())
            .field("dedup_hits", run.dedup_hits)
            .field("kind_moves", run.kind_moves)
            .field("vm_types", graph.vm_types.len())
            .emit();
        Ok(graph)
    }

    /// A graph with no VM types over the replay's starting nodes: the
    /// empty profile, or every canonical profile for [`BuildMode::Full`].
    /// Every node is an endpoint and the expansion cache is empty.
    fn root(space: ProfileSpace, mode: BuildMode, limits: GraphLimits) -> Result<Self, GraphError> {
        let interner = match mode {
            BuildMode::Reachable => {
                let mut interner = ProfileInterner::new();
                interner.intern(space.empty_profile());
                interner
            }
            BuildMode::Full => enumerate_full_space(&space, limits)?,
        };
        Ok(Self {
            space,
            vm_types: Vec::new(),
            succ: Vec::new(),
            succ_off: vec![0; interner.len() + 1],
            gsucc: Vec::new(),
            goff: vec![0],
            util: Vec::new(),
            interner,
            mode,
        })
    }

    /// Rebuild this graph for a catalog grown by `delta` VM types, on
    /// the global worker [`Pool`].
    ///
    /// The BFS is *replayed* over the merged catalog, but for `(node,
    /// VM type)` pairs already present in this graph the expansion
    /// cache answers — only profiles first reached through a delta
    /// edge, plus every node's delta-VM expansions, are enumerated
    /// afresh. Ids are minted in replay
    /// (= from-scratch) discovery order, so the result is bit-for-bit
    /// identical to a fresh build (of the same mode) over
    /// `self.vm_types() ++ delta`, at any worker count.
    ///
    /// ```
    /// use pagerankvm::{GraphLimits, ProfileGraph, ProfileSpace, ProfileVm};
    ///
    /// let space = ProfileSpace::uniform(4, 4);
    /// let base = ProfileGraph::build(
    ///     space.clone(),
    ///     vec![ProfileVm::from_demands("[1,1]", vec![vec![1, 1]])],
    ///     GraphLimits::default(),
    /// )?;
    /// let delta = vec![ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]])];
    ///
    /// // The extended graph is bit-identical to a from-scratch build
    /// // over the merged catalog — same nodes, same numbering, same CSR.
    /// let extended = base.extend(delta.clone(), GraphLimits::default())?;
    /// let scratch = ProfileGraph::build(
    ///     space,
    ///     base.vm_types().iter().cloned().chain(delta).collect(),
    ///     GraphLimits::default(),
    /// )?;
    /// assert_eq!(extended.node_count(), scratch.node_count());
    /// assert!(extended
    ///     .node_ids()
    ///     .all(|id| extended.successors(id) == scratch.successors(id)
    ///         && extended.profile(id) == scratch.profile(id)));
    /// # Ok::<(), pagerankvm::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`] over the merged catalog.
    pub fn extend(&self, delta: Vec<ProfileVm>, limits: GraphLimits) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_extend");
        let usable_delta = usable_vms(&self.space, delta);
        if usable_delta.is_empty() {
            // Nothing usable changed: the merged catalog equals ours, and
            // a replay would reproduce this graph field for field.
            return Ok(self.clone());
        }
        let run = self.replay(usable_delta, limits, &Pool::global())?;
        let graph = run.graph;
        prvm_obs::counter!("graph.extend.cached_groups", run.cached_groups);
        prvm_obs::counter!("graph.extend.computed_groups", run.computed_groups);
        prvm_obs::event("graph.extended")
            .field("nodes", graph.node_count())
            .field(
                "new_nodes",
                graph.node_count().saturating_sub(self.node_count()),
            )
            .field("edges", graph.edge_count())
            .field("dedup_hits", run.dedup_hits)
            .field("cached_groups", run.cached_groups)
            .field("computed_groups", run.computed_groups)
            .field("kind_moves", run.kind_moves)
            .field("vm_types", graph.vm_types.len())
            .emit();
        Ok(graph)
    }

    /// The one graph-construction routine: a level-synchronous BFS over
    /// `self.vm_types() ++ delta`, seeded with this graph's starting
    /// nodes under their own ids (node 0 for [`BuildMode::Reachable`],
    /// every node for [`BuildMode::Full`]). Old `(node, VM)` expansions
    /// are replayed from the expansion cache, each entry translated
    /// through the old→new id map (minting on a miss), and an old
    /// node's successor row is its base row translated the same way;
    /// the rest are read from a `MoveTable` on the pool as per-kind
    /// state tuples, looked up in the table's node index (minting on a
    /// miss) and merged into the row. Ids are minted in first-discovery
    /// order, so a replay over a root with no VM types is a cold build,
    /// and a replay over any graph equals the cold build of the merged
    /// catalog. Counts `graph.{nodes,edges,dedup_hits,kind_moves}`; the
    /// caller emits its event.
    fn replay(
        &self,
        delta: Vec<ProfileVm>,
        limits: GraphLimits,
        pool: &Pool,
    ) -> Result<Replayed, GraphError> {
        let space = self.space.clone();
        let old_v = self.vm_types.len();
        let merged: Vec<ProfileVm> = self.vm_types.iter().cloned().chain(delta).collect();
        // Every node is added to the move table as it is minted, so a
        // frontier's per-kind placements are all in it before the
        // frontier is expanded.
        let mut moves = MoveTable::new(&space, &merged, self.node_count());

        let seeds = match self.mode {
            BuildMode::Reachable => 1,
            BuildMode::Full => self.node_count(),
        };
        // Starting nodes keep their base ids: both id maps begin as the
        // identity over them.
        let mut new2old: Vec<NodeId> = Vec::with_capacity(self.node_count());
        new2old.extend((0..seeds).map(nid));
        let mut old2new = new2old.clone();
        old2new.resize(self.node_count(), UNMAPPED);
        let mut interner = ProfileInterner::with_capacity(self.node_count());
        for &id in &new2old {
            moves.add_node(self.profile(id).values());
            interner.push_distinct(self.profile(id).clone());
        }

        let mut succ: Vec<NodeId> = Vec::new();
        let mut succ_off: Vec<usize> = vec![0];
        let mut gsucc: Vec<NodeId> = Vec::with_capacity(self.gsucc.len());
        let mut goff: Vec<usize> = vec![0];
        let mut buf: Vec<NodeId> = Vec::new();
        let mut dedup_hits = 0u64;
        let mut computed_groups = 0u64;
        let mut cached_groups = 0u64;
        // Every edge strictly increases total usage, so nodes discovered
        // while merging frontier node `j` sort after everything
        // discovered from frontier nodes `< j`: processing frontiers in
        // insertion order visits the same nodes in the same order as a
        // plain FIFO queue, and each node is fully expanded exactly once.
        let mut level_start = 0usize;
        while level_start < interner.len() {
            // Expand the whole frontier in parallel; its chunks land on
            // worker lanes when tracing. Workers read the move table only
            // where the expansion cache cannot answer: delta VMs
            // everywhere, plus every VM on nodes this graph has never
            // seen.
            let expansions: Vec<Expansion> = {
                let _expand = Span::enter("expand");
                let jobs: Vec<(usize, bool)> = (level_start..interner.len())
                    .map(|j| (j, new2old[j] != UNMAPPED))
                    .collect();
                pool.map(&jobs, |&(j, is_old)| {
                    let computed = if is_old { old_v } else { 0 }..merged.len();
                    expand_node(&moves, nid(j), computed)
                })
            };
            let frontier_start = level_start;
            level_start = interner.len();
            // The sequential id-minting merge, which also adds each
            // minted node to the move table. The expand/stitch split
            // is what makes the speedup story diagnosable in a trace
            // (parallel compute vs serial merge).
            let stitch_span = Span::enter("stitch");
            for (offset, exp) in expansions.into_iter().enumerate() {
                let j = frontier_start + offset;
                let old_id = new2old[j];
                buf.clear();
                if old_id != UNMAPPED {
                    // Replay the cached expansions: same outcomes in the
                    // same enumeration order `place` would give.
                    for v in 0..old_v {
                        cached_groups += 1;
                        for &old_s in self.vm_successors(old_id, v) {
                            let id = match old2new[ix(old_s)] {
                                UNMAPPED => {
                                    check_room(&interner, limits)?;
                                    moves.add_node(self.profile(old_s).values());
                                    let id =
                                        interner.push_distinct(self.profile(old_s).clone()).node();
                                    old2new[ix(old_s)] = id;
                                    new2old.push(old_s);
                                    id
                                }
                                id => {
                                    dedup_hits += 1;
                                    id
                                }
                            };
                            gsucc.push(id);
                        }
                        goff.push(gsucc.len());
                    }
                    // The base row is the sorted, deduplicated union of
                    // the groups just translated, so every id in it is
                    // mapped by now: seed `buf` with it rather than
                    // re-collecting every group entry.
                    buf.extend(self.successors(old_id).iter().map(|&s| {
                        let id = old2new[ix(s)];
                        debug_assert!(id != UNMAPPED, "base row id {s} unmapped");
                        id
                    }));
                }
                let mut tuples = exp.states.chunks_exact(moves.width());
                for &count in &exp.counts {
                    computed_groups += 1;
                    for tuple in tuples.by_ref().take(count) {
                        let id = match moves.node_of(tuple) {
                            Some(id) => {
                                dedup_hits += 1;
                                id
                            }
                            None => {
                                check_room(&interner, limits)?;
                                moves.add_states(tuple);
                                let profile = moves.profile(tuple);
                                // A delta edge can be the first road into
                                // a profile this graph already knows:
                                // link the id spaces so its cached
                                // expansions replay later.
                                let old = self.interner.get(profile.values());
                                let id = interner.push_distinct(profile).node();
                                match old {
                                    Some(old_pid) => {
                                        old2new[old_pid.index()] = id;
                                        new2old.push(old_pid.node());
                                    }
                                    None => new2old.push(UNMAPPED),
                                }
                                id
                            }
                        };
                        gsucc.push(id);
                        buf.push(id);
                    }
                    goff.push(gsucc.len());
                }
                buf.sort_unstable();
                buf.dedup();
                succ.extend_from_slice(&buf);
                succ_off.push(succ.len());
            }
            drop(stitch_span);
        }

        let util = interner
            .profiles()
            .iter()
            .map(|p| space.utilization(p))
            .collect();
        prvm_obs::counter!("graph.nodes", convert::usize_to_u64(interner.len()));
        prvm_obs::counter!("graph.edges", convert::usize_to_u64(succ.len()));
        prvm_obs::counter!("graph.dedup_hits", dedup_hits);
        let kind_moves = moves.kind_moves();
        prvm_obs::counter!("graph.kind_moves", kind_moves);
        Ok(Replayed {
            graph: Self {
                space,
                vm_types: merged,
                interner,
                succ,
                succ_off,
                gsucc,
                goff,
                util,
                mode: self.mode,
            },
            dedup_hits,
            cached_groups,
            computed_groups,
            kind_moves,
        })
    }

    /// Reassemble a graph from serialized parts (the PVSB cache loader).
    /// The caller has validated structure (offsets monotone, ids in
    /// range); profiles are re-interned in id order.
    pub(crate) fn from_parts(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        interner: ProfileInterner,
        parts: CsrParts,
    ) -> Self {
        Self {
            space,
            vm_types,
            interner,
            succ: parts.succ,
            succ_off: parts.succ_off,
            gsucc: parts.gsucc,
            goff: parts.goff,
            util: parts.util,
            mode: if parts.full {
                BuildMode::Full
            } else {
                BuildMode::Reachable
            },
        }
    }

    /// Raw parts for serialization (the PVSB cache writer):
    /// `(succ, succ_off, gsucc, goff, util, full)`.
    pub(crate) fn parts(&self) -> RawParts<'_> {
        (
            &self.succ,
            &self.succ_off,
            &self.gsucc,
            &self.goff,
            &self.util,
            self.mode == BuildMode::Full,
        )
    }

    /// The space this graph lives in.
    #[must_use]
    pub fn space(&self) -> &ProfileSpace {
        &self.space
    }

    /// The VM types that contribute edges.
    #[must_use]
    pub fn vm_types(&self) -> &[ProfileVm] {
        &self.vm_types
    }

    /// The interned profile arena backing this graph. Node ids and
    /// [`ProfileId`]s coincide: `interner().resolve(ProfileId(id))` is
    /// [`Self::profile`]`(id)`.
    #[must_use]
    pub fn interner(&self) -> &ProfileInterner {
        &self.interner
    }

    /// Number of nodes (`N` in Equ. (12)).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of (deduplicated) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// The profile of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn profile(&self, id: NodeId) -> &Profile {
        self.interner.resolve(ProfileId(id))
    }

    /// Node id of a profile, if reachable.
    #[must_use]
    pub fn node(&self, profile: &Profile) -> Option<NodeId> {
        self.interner.get(profile.values()).map(ProfileId::node)
    }

    /// Successors of a node: `S(P_i)`, the profiles derived by
    /// accommodating one more VM (Algorithm 1, line 8).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succ[self.succ_off[ix(id)]..self.succ_off[ix(id) + 1]]
    }

    /// The cached expansion of one `(node, VM type)` pair: outcome ids
    /// of `place(profile(id), vm_types()[vm])` in enumeration order
    /// (duplicates across VM types are *not* removed here — that is
    /// [`Self::successors`]). This is the cache [`Self::extend`]
    /// replays.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `vm` is out of range.
    #[must_use]
    pub fn vm_successors(&self, id: NodeId, vm: usize) -> &[NodeId] {
        let v = self.vm_types.len();
        &self.gsucc[self.goff[ix(id) * v + vm]..self.goff[ix(id) * v + vm + 1]]
    }

    /// Resource utilization of a node's profile.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn utilization(&self, id: NodeId) -> f64 {
        self.util[ix(id)]
    }

    /// `true` if the node has no successors — no VM type fits any more.
    /// These are the "endpoints" of the BPRU definition.
    #[must_use]
    pub fn is_endpoint(&self, id: NodeId) -> bool {
        self.successors(id).is_empty()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..nid(self.interner.len())
    }
}

/// Read the outcomes of each VM index in `vms` on node `node` from the
/// move table, as state tuples with per-VM counts. Runs on workers;
/// outcome order is `place`'s enumeration order.
fn expand_node(moves: &MoveTable<'_>, node: NodeId, vms: Range<usize>) -> Expansion {
    let mut states: Vec<ProfileId> = Vec::new();
    let mut counts: Vec<usize> = Vec::with_capacity(vms.len());
    let mut row = vec![ProfileId(0); moves.width()];
    for vm in vms {
        counts.push(moves.place_into(node, vm, &mut row, &mut states));
    }
    Expansion { states, counts }
}

/// The VM types that fit the empty profile; the rest contribute no edges.
fn usable_vms(space: &ProfileSpace, vms: Vec<ProfileVm>) -> Vec<ProfileVm> {
    let empty = space.empty_profile();
    vms.into_iter()
        .filter(|vm| !space.place(&empty, vm).is_empty())
        .collect()
}

/// Refuse to mint a node past [`GraphLimits::max_nodes`] or `u32::MAX`.
fn check_room(interner: &ProfileInterner, limits: GraphLimits) -> Result<(), GraphError> {
    if interner.len() >= limits.max_nodes || NodeId::try_from(interner.len()).is_err() {
        return Err(GraphError::TooLarge {
            max_nodes: limits.max_nodes,
        });
    }
    Ok(())
}

/// Enumerate every canonical profile of the space in lexicographic
/// (kind-by-kind, non-decreasing) order — the full-graph node set.
fn enumerate_full_space(
    space: &ProfileSpace,
    limits: GraphLimits,
) -> Result<ProfileInterner, GraphError> {
    let mut per_kind: Vec<Vec<Vec<u16>>> = Vec::new();
    for k in space.kinds() {
        let mut seqs: Vec<Vec<u16>> = Vec::new();
        let mut cur = Vec::with_capacity(k.count);
        fn rec(cap: u16, len: usize, min: u16, cur: &mut Vec<u16>, out: &mut Vec<Vec<u16>>) {
            if cur.len() == len {
                out.push(cur.clone());
                return;
            }
            for v in min..=cap {
                cur.push(v);
                rec(cap, len, v, cur, out);
                cur.pop();
            }
        }
        rec(k.cap, k.count, 0, &mut cur, &mut seqs);
        per_kind.push(seqs);
    }
    let total: usize = per_kind.iter().map(Vec::len).product();
    if total > limits.max_nodes || NodeId::try_from(total).is_err() {
        return Err(GraphError::TooLarge {
            max_nodes: limits.max_nodes,
        });
    }

    let mut interner = ProfileInterner::with_capacity(total);
    fn cartesian(
        remaining: &[Vec<Vec<u16>>],
        scratch: &mut Vec<u16>,
        interner: &mut ProfileInterner,
    ) {
        let Some((head, rest)) = remaining.split_first() else {
            interner.intern_values(scratch);
            return;
        };
        for seq in head {
            let start = scratch.len();
            scratch.extend_from_slice(seq);
            cartesian(rest, scratch, interner);
            scratch.truncate(start);
        }
    }
    cartesian(
        &per_kind,
        &mut Vec::with_capacity(space.dims()),
        &mut interner,
    );
    Ok(interner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: capacity [4,4,4,4] and VM set
    /// {[1,1], [1,1,1,1]}.
    fn paper_graph() -> ProfileGraph {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        ProfileGraph::build(space, vms, GraphLimits::default()).unwrap()
    }

    fn assert_graphs_identical(a: &ProfileGraph, b: &ProfileGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(
            a.vm_types().iter().map(|v| &v.name).collect::<Vec<_>>(),
            b.vm_types().iter().map(|v| &v.name).collect::<Vec<_>>()
        );
        for id in a.node_ids() {
            assert_eq!(a.profile(id), b.profile(id), "node {id}");
            assert_eq!(a.successors(id), b.successors(id), "succ {id}");
            assert_eq!(
                a.utilization(id).to_bits(),
                b.utilization(id).to_bits(),
                "util {id}"
            );
            for v in 0..a.vm_types().len() {
                assert_eq!(
                    a.vm_successors(id, v),
                    b.vm_successors(id, v),
                    "group {id}/{v}"
                );
            }
        }
    }

    #[test]
    fn paper_example_graph_structure() {
        let g = paper_graph();
        // Nodes are the multisets of {0..4}^4 reachable by sums of the two
        // VM shapes; the best profile is reachable.
        let best = g.space().best_profile();
        assert!(g.node(&best).is_some());
        // Empty profile is node 0 with successors {[1,1,0,0],[1,1,1,1]}.
        let empty = g.space().empty_profile();
        let n0 = g.node(&empty).unwrap();
        assert_eq!(n0, 0);
        let succs: Vec<&Profile> = g.successors(n0).iter().map(|&s| g.profile(s)).collect();
        assert_eq!(succs.len(), 2);
        // The best profile is an endpoint.
        assert!(g.is_endpoint(g.node(&best).unwrap()));
    }

    #[test]
    fn all_nodes_reachable_have_monotone_edges() {
        let g = paper_graph();
        for id in g.node_ids() {
            let from: u64 = g.profile(id).values().iter().map(|&v| u64::from(v)).sum();
            for &s in g.successors(id) {
                let to: u64 = g.profile(s).values().iter().map(|&v| u64::from(v)).sum();
                assert!(to > from, "edge must strictly increase usage");
            }
        }
    }

    #[test]
    fn successor_sets_are_sorted_and_deduped() {
        let g = paper_graph();
        for id in g.node_ids() {
            let s = g.successors(id);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        }
    }

    #[test]
    fn expansion_cache_concatenates_to_the_csr() {
        // The deduplicated successor set of every node must equal the
        // union of its per-VM expansion groups, and each group must be
        // exactly `place`'s output in order.
        let g = paper_graph();
        for id in g.node_ids() {
            let mut union: Vec<NodeId> = Vec::new();
            for (v, vm) in g.vm_types().iter().enumerate() {
                let group = g.vm_successors(id, v);
                let placed = g.space().place(g.profile(id), vm);
                let placed_ids: Vec<NodeId> = placed.iter().map(|p| g.node(p).unwrap()).collect();
                assert_eq!(group, placed_ids.as_slice(), "node {id} vm {v}");
                union.extend_from_slice(group);
            }
            union.sort_unstable();
            union.dedup();
            assert_eq!(g.successors(id), union.as_slice(), "node {id}");
        }
    }

    #[test]
    fn quality_example_profiles_exist() {
        // §V-A compares [4,4,2,2] and [3,3,3,3]; both must be reachable.
        let g = paper_graph();
        let s = g.space();
        assert!(g.node(&s.canonicalize(&[&[4, 4, 2, 2]])).is_some());
        assert!(g.node(&s.canonicalize(&[&[3, 3, 3, 3]])).is_some());
    }

    #[test]
    fn unusable_vm_types_are_dropped() {
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![
            ProfileVm::from_demands("fits", vec![vec![1]]),
            ProfileVm::from_demands("too-big", vec![vec![3]]),
        ];
        let g = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap();
        assert_eq!(g.vm_types().len(), 1);
        assert_eq!(g.vm_types()[0].name, "fits");
    }

    #[test]
    fn empty_vm_set_is_an_error() {
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![ProfileVm::from_demands("too-big", vec![vec![3]])];
        let err = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap_err();
        assert_eq!(err, GraphError::NoUsableVmTypes);
    }

    #[test]
    fn node_limit_is_enforced() {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let err = ProfileGraph::build(space, vms, GraphLimits { max_nodes: 5 }).unwrap_err();
        assert_eq!(err, GraphError::TooLarge { max_nodes: 5 });
    }

    #[test]
    fn single_unit_vm_reaches_every_multiset() {
        // With VM type [1], every multiset of {0..2}^2 is reachable:
        // C(2+2,2) = 6 nodes.
        let space = ProfileSpace::uniform(2, 2);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let g = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap();
        assert_eq!(g.node_count(), 6);
        // Endpoint: only [2,2].
        let endpoints: Vec<NodeId> = g.node_ids().filter(|&n| g.is_endpoint(n)).collect();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(g.profile(endpoints[0]), &g.space().best_profile());
    }

    #[test]
    fn extend_matches_scratch_build_on_paper_example() {
        let space = ProfileSpace::uniform(4, 4);
        let small = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let big = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base = ProfileGraph::build(space.clone(), vec![small.clone()], GraphLimits::default())
            .unwrap();
        let extended = base
            .extend(vec![big.clone()], GraphLimits::default())
            .unwrap();
        let scratch = ProfileGraph::build(
            space.clone(),
            vec![small.clone(), big],
            GraphLimits::default(),
        )
        .unwrap();
        assert_graphs_identical(&extended, &scratch);

        // A same-footprint delta (a renamed [1,1]) lands every outcome
        // on a node the base already numbered: the successor CSR stays
        // the base's.
        let renamed = ProfileVm::from_demands("[1,1]'", vec![vec![1, 1]]);
        let refreshed = base
            .extend(vec![renamed.clone()], GraphLimits::default())
            .unwrap();
        let scratch =
            ProfileGraph::build(space, vec![small, renamed], GraphLimits::default()).unwrap();
        assert_graphs_identical(&refreshed, &scratch);
        assert_eq!(refreshed.succ, base.succ);
        assert_eq!(refreshed.succ_off, base.succ_off);
    }

    #[test]
    fn extend_discovers_new_nodes_via_delta_edges() {
        // Base catalog [2]: even totals only. Delta [1]: every multiset
        // becomes reachable, including odd-total profiles first reached
        // through a delta edge from an old node.
        let space = ProfileSpace::uniform(2, 2);
        let even = ProfileVm::from_demands("[2]", vec![vec![2]]);
        let unit = ProfileVm::from_demands("[1]", vec![vec![1]]);
        let base =
            ProfileGraph::build(space.clone(), vec![even.clone()], GraphLimits::default()).unwrap();
        assert!(base.node_count() < 6);
        let extended = base
            .extend(vec![unit.clone()], GraphLimits::default())
            .unwrap();
        let scratch = ProfileGraph::build(space, vec![even, unit], GraphLimits::default()).unwrap();
        assert_eq!(extended.node_count(), 6);
        assert_graphs_identical(&extended, &scratch);
    }

    #[test]
    fn extend_with_unusable_delta_is_identity() {
        let g = paper_graph();
        let e = g
            .extend(
                vec![ProfileVm::from_demands("huge", vec![vec![9]])],
                GraphLimits::default(),
            )
            .unwrap();
        assert_graphs_identical(&g, &e);
    }

    #[test]
    fn extend_full_matches_scratch_full_build() {
        let space = ProfileSpace::uniform(4, 4);
        let small = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let big = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base =
            ProfileGraph::build_full(space.clone(), vec![small.clone()], GraphLimits::default())
                .unwrap();
        let extended = base
            .extend(vec![big.clone()], GraphLimits::default())
            .unwrap();
        let scratch =
            ProfileGraph::build_full(space, vec![small, big], GraphLimits::default()).unwrap();
        assert_graphs_identical(&extended, &scratch);
    }

    /// The default-quantizer M3 space and the EC2 catalog in it.
    fn default_m3() -> (ProfileSpace, Vec<ProfileVm>) {
        use prvm_model::{catalog, Quantizer, VmSpec};
        let quantizer = Quantizer::default();
        let pm = catalog::pm_m3();
        let space = ProfileSpace::from_quantized_pm(&quantizer.quantize_pm(&pm));
        let demand = |v: &VmSpec| space.vm_demand(&quantizer.quantize_vm(v, &pm));
        let mut vms: Vec<ProfileVm> = catalog::ec2_vm_types().iter().filter_map(demand).collect();
        let m3 = catalog::vm_m3_2xlarge();
        let renamed = VmSpec::new(
            "m3.2xlarge.g2",
            m3.vcpus,
            m3.vcpu_mhz,
            m3.memory,
            m3.disks().to_vec(),
        );
        vms.extend(demand(&renamed));
        (space, vms)
    }

    fn tallies(run: &Replayed) -> [u64; 4] {
        [
            run.kind_moves,
            run.dedup_hits,
            run.cached_groups,
            run.computed_groups,
        ]
    }

    /// The replay's tallies on the default M3 table: the cold build of
    /// the EC2 catalog, the structural `c3.xlarge` extend of the base
    /// (every type but `c3.xlarge`), and the identity extend of that
    /// base by a renamed `m3.2xlarge`. Each is
    /// `[kind_moves, dedup_hits, cached_groups, computed_groups]`.
    #[test]
    fn replay_tallies_are_pinned_on_the_default_m3_table() {
        let limits = GraphLimits::default();
        let pool = Pool::global();
        let (space, mut vms) = default_m3();
        let renamed = vms.pop().unwrap();
        assert_eq!(renamed.name, "m3.2xlarge.g2");
        let structural = vms.pop().unwrap();
        assert_eq!(structural.name, "c3.xlarge");

        let root = || ProfileGraph::root(space.clone(), BuildMode::Reachable, limits).unwrap();
        let mut catalog = vms.clone();
        catalog.push(structural.clone());
        let cold = root().replay(catalog, limits, &pool).unwrap();
        assert_eq!(cold.graph.node_count(), 82_265);
        let base = root().replay(vms, limits, &pool).unwrap().graph;
        let extend = base.replay(vec![structural], limits, &pool).unwrap();
        let refresh = base.replay(vec![renamed], limits, &pool).unwrap();

        let got = [tallies(&cold), tallies(&extend), tallies(&refresh)];
        let want = [
            [3_486, 3_227_496, 0, 493_590],
            [3_486, 3_227_496, 187_340, 306_250],
            [2_946, 1_073_823, 187_340, 37_468],
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn extend_respects_node_limit() {
        let space = ProfileSpace::uniform(4, 4);
        let pair = ProfileVm::from_demands("[2,2]", vec![vec![2, 2]]);
        let unit = ProfileVm::from_demands("[1]", vec![vec![1]]);
        let base = ProfileGraph::build(space, vec![pair], GraphLimits::default()).unwrap();
        let limit = base.node_count(); // merged graph needs far more
        let err = base
            .extend(vec![unit], GraphLimits { max_nodes: limit })
            .unwrap_err();
        assert_eq!(err, GraphError::TooLarge { max_nodes: limit });
    }
}
