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
//! the deduplicated successor CSR the graph keeps the **expansion groups**
//! — per `(node, VM type)`, the outcome ids of `place` in enumeration
//! order.
//!
//! # One construction routine
//!
//! Every graph comes out of one level-synchronous BFS over its catalog.
//! Its starting nodes depend on the mode: node 0, the empty profile, for
//! a reachable graph; every canonical profile, in id order, for a
//! full-space graph. Expansions are read from the build's `MoveTable`,
//! which computes each distinct per-kind placement once and keys every
//! node by its tuple of per-kind states.
//!
//! - [`ProfileGraph::build`] runs it from the empty profile;
//! - [`ProfileGraph::build_full`] runs it from every canonical profile,
//!   so no node is ever minted;
//! - [`ProfileGraph::extend`] aliases a delta that only repeats known
//!   footprints (each alias's groups are copies of its source's, and
//!   nothing is minted), and otherwise runs it over the merged catalog.
//!   Either way the extended graph is bit-for-bit identical to a fresh
//!   build over the merged catalog.

use crate::intern::{ProfileId, ProfileInterner};
use crate::profile::{MoveTable, Profile, ProfileSpace, ProfileVm};
use prvm_model::units::convert;
use prvm_obs::Span;
use prvm_par::Pool;
use std::error::Error;
use std::fmt;

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

/// Which node set a graph was built over. It picks the build's
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
/// type, the outcomes' move-table state tuples (one state per kind) and
/// the per-VM outcome count.
struct Expansion {
    states: Vec<ProfileId>,
    counts: Vec<usize>,
}

/// A cold-built graph plus the tallies its `graph.built` event reports.
struct Built {
    graph: ProfileGraph,
    /// Group outcomes that landed on an already-numbered node.
    dedup_hits: u64,
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
    /// Expansion groups: outcomes of `place(profile(i), vm_types[v])` in
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
        Ok(Self::build_cold(space, vm_types, limits, BuildMode::Full)?.graph)
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
        Ok(Self::build_cold(space, vm_types, limits, BuildMode::Reachable)?.graph)
    }

    /// The one graph-construction routine, behind [`Self::build`],
    /// [`Self::build_full`] and a structural [`Self::extend`]: a
    /// level-synchronous BFS over the usable VM types from the mode's
    /// starting nodes (node 0, the empty profile, for
    /// [`BuildMode::Reachable`]; every canonical profile, in id order,
    /// for [`BuildMode::Full`]). Expansions are read from a `MoveTable`
    /// on the global [`Pool`] as per-kind state tuples, looked up in the
    /// table's node trie and minted on a miss, so ids come out in
    /// first-discovery order. Counts
    /// `graph.{nodes,edges,dedup_hits,kind_moves}` and emits
    /// `graph.built`.
    fn build_cold(
        space: ProfileSpace,
        vm_types: Vec<ProfileVm>,
        limits: GraphLimits,
        mode: BuildMode,
    ) -> Result<Built, GraphError> {
        let _span = Span::enter("graph_build");
        let vm_types = usable_vms(&space, vm_types);
        if vm_types.is_empty() {
            return Err(GraphError::NoUsableVmTypes);
        }
        let mut interner = match mode {
            BuildMode::Reachable => {
                let mut interner = ProfileInterner::new();
                interner.intern(space.empty_profile());
                interner
            }
            BuildMode::Full => enumerate_full_space(&space, limits)?,
        };
        // Every node is added to the move table as it is minted (the
        // starting nodes up front), so a frontier's per-kind placements
        // are all in it before the frontier is expanded.
        let mut moves = MoveTable::new(&space, &vm_types, interner.len());
        for profile in interner.profiles() {
            moves.add_node(profile.values());
        }

        let pool = Pool::global();
        let mut succ: Vec<NodeId> = Vec::new();
        let mut succ_off: Vec<usize> = vec![0];
        let mut gsucc: Vec<NodeId> = Vec::new();
        let mut goff: Vec<usize> = vec![0];
        let mut buf: Vec<NodeId> = Vec::new();
        let mut dedup_hits = 0u64;
        // Every edge strictly increases total usage, so nodes discovered
        // while merging frontier node `j` sort after everything
        // discovered from frontier nodes `< j`: processing frontiers in
        // insertion order visits the same nodes in the same order as a
        // plain FIFO queue, and each node is fully expanded exactly once.
        let mut level_start = 0usize;
        while level_start < interner.len() {
            // Expand the whole frontier in parallel; its chunks land on
            // worker lanes when tracing.
            let expansions: Vec<Expansion> = {
                let _expand = Span::enter("expand");
                let frontier: Vec<NodeId> = (level_start..interner.len()).map(nid).collect();
                pool.map(&frontier, |&node| expand_node(&moves, node, vm_types.len()))
            };
            level_start = interner.len();
            // The sequential id-minting merge, which also adds each
            // minted node to the move table. The expand/stitch split
            // is what makes the speedup story diagnosable in a trace
            // (parallel compute vs serial merge).
            let stitch_span = Span::enter("stitch");
            for exp in expansions {
                buf.clear();
                let mut tuples = exp.states.chunks_exact(moves.width());
                for &count in &exp.counts {
                    for tuple in tuples.by_ref().take(count) {
                        let id = match moves.node_of(tuple) {
                            Some(id) => {
                                dedup_hits += 1;
                                id
                            }
                            None => {
                                check_room(&interner, limits)?;
                                moves.add_states(tuple);
                                interner.push_distinct(moves.profile(tuple)).node()
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
        let kind_moves = moves.kind_moves();
        let built = Built {
            graph: Self {
                space,
                vm_types,
                interner,
                succ,
                succ_off,
                gsucc,
                goff,
                util,
                mode,
            },
            dedup_hits,
            kind_moves,
        };
        let graph = &built.graph;
        prvm_obs::counter!("graph.nodes", convert::usize_to_u64(graph.node_count()));
        prvm_obs::counter!("graph.edges", convert::usize_to_u64(graph.edge_count()));
        prvm_obs::counter!("graph.dedup_hits", built.dedup_hits);
        prvm_obs::counter!("graph.kind_moves", built.kind_moves);
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
            .field("dedup_hits", built.dedup_hits)
            .field("kind_moves", built.kind_moves)
            .field("vm_types", graph.vm_types.len())
            .emit();
        Ok(built)
    }

    /// Rebuild this graph for a catalog grown by `delta` VM types. The
    /// result is bit-for-bit identical to a fresh build (of the same
    /// mode) over `self.vm_types() ++ delta`, at any worker count, and
    /// is made one of two ways:
    ///
    /// - **alias** — every usable delta type repeats the demands of a
    ///   type this graph already has (a refresh, or an empty usable
    ///   delta). Its groups are copies of that type's groups, so the
    ///   nodes, the successor CSR and the utilizations stay this
    ///   graph's and no node is minted;
    /// - **cold** — otherwise, the merged catalog is built from
    ///   scratch on the global worker [`Pool`].
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
    ///
    /// // A renamed `[1,1]` repeats a known footprint: an alias, whose
    /// // groups are copies of `[1,1]`'s and which reaches no new node.
    /// let renamed = vec![ProfileVm::from_demands("[1,1]'", vec![vec![1, 1]])];
    /// let refreshed = base.extend(renamed, GraphLimits::default())?;
    /// assert_eq!(refreshed.node_count(), base.node_count());
    /// assert!(refreshed.node_ids().all(|id| refreshed.vm_successors(id, 1)
    ///     == base.vm_successors(id, 0)));
    /// # Ok::<(), pagerankvm::GraphError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::build`] over the merged catalog.
    pub fn extend(&self, delta: Vec<ProfileVm>, limits: GraphLimits) -> Result<Self, GraphError> {
        let _span = Span::enter("graph_extend");
        let delta = usable_vms(&self.space, delta);
        // Per delta type, the index of the type whose demands it
        // repeats, if every delta type has one.
        let sources: Option<Vec<usize>> = delta
            .iter()
            .map(|vm| {
                self.vm_types
                    .iter()
                    .position(|known| known.demands() == vm.demands())
            })
            .collect();
        let (graph, path) = match sources {
            Some(sources) => (self.alias(delta, &sources), "alias"),
            None => {
                let merged = self.vm_types.iter().cloned().chain(delta).collect();
                let built = Self::build_cold(self.space.clone(), merged, limits, self.mode)?;
                (built.graph, "cold")
            }
        };
        prvm_obs::event("graph.extended")
            .field("path", path)
            .field("nodes", graph.node_count())
            .field(
                "new_nodes",
                graph.node_count().saturating_sub(self.node_count()),
            )
            .field("edges", graph.edge_count())
            .field("vm_types", graph.vm_types.len())
            .emit();
        Ok(graph)
    }

    /// This graph with `delta` appended to its VM types, where
    /// `delta[a]` repeats the demands of `vm_types()[sources[a]]`: each
    /// node's groups are its own, then a copy of each source's group in
    /// delta order. A cold build of the merged catalog reaches every
    /// outcome of an alias through its source first, so it mints the
    /// same nodes in the same order, and this is that build.
    fn alias(&self, delta: Vec<ProfileVm>, sources: &[usize]) -> Self {
        let copied: usize = self
            .node_ids()
            .map(|id| {
                sources
                    .iter()
                    .map(|&vm| self.vm_successors(id, vm).len())
                    .sum::<usize>()
            })
            .sum();
        let mut gsucc = Vec::with_capacity(self.gsucc.len() + copied);
        let mut goff = Vec::with_capacity(self.goff.len() + self.node_count() * sources.len());
        goff.push(0);
        for id in self.node_ids() {
            for vm in (0..self.vm_types.len()).chain(sources.iter().copied()) {
                gsucc.extend_from_slice(self.vm_successors(id, vm));
                goff.push(gsucc.len());
            }
        }
        Self {
            space: self.space.clone(),
            vm_types: self.vm_types.iter().cloned().chain(delta).collect(),
            interner: self.interner.clone(),
            succ: self.succ.clone(),
            succ_off: self.succ_off.clone(),
            gsucc,
            goff,
            util: self.util.clone(),
            mode: self.mode,
        }
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

    /// The expansion group of one `(node, VM type)` pair: outcome ids
    /// of `place(profile(id), vm_types()[vm])` in enumeration order
    /// (duplicates across VM types are *not* removed here — that is
    /// [`Self::successors`]). [`Self::extend`] copies these for a delta
    /// type that repeats a known footprint.
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

/// Read the outcomes of each of the `vms` VM types on node `node` from
/// the move table, as state tuples with per-VM counts. Runs on workers;
/// outcome order is `place`'s enumeration order.
fn expand_node(moves: &MoveTable<'_>, node: NodeId, vms: usize) -> Expansion {
    let mut states: Vec<ProfileId> = Vec::new();
    let mut counts: Vec<usize> = Vec::with_capacity(vms);
    let mut row = vec![ProfileId(0); moves.width()];
    for vm in 0..vms {
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
        assert_eq!(a.mode, b.mode);
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

    /// The extend cases on the paper's `[4,4,4,4]` space, as `(base
    /// catalog, delta, aliased)`: a new footprint, a known one, two
    /// known ones at once (in the opposite order to their sources), a
    /// known plus a new one, a delta that fits no VM slot, and an empty
    /// delta. `aliased` marks the deltas that add no new footprint.
    fn paper_extend_cases() -> Vec<(Vec<ProfileVm>, Vec<ProfileVm>, bool)> {
        let vm = |name: &str, demands: Vec<u64>| ProfileVm::from_demands(name, vec![demands]);
        let small = vm("[1,1]", vec![1, 1]);
        let big = vm("[1,1,1,1]", vec![1, 1, 1, 1]);
        let small2 = vm("[1,1]'", vec![1, 1]);
        let big2 = vm("[1,1,1,1]'", vec![1, 1, 1, 1]);
        let huge = vm("[9]", vec![9]);
        vec![
            (vec![small.clone()], vec![big.clone()], false),
            (vec![small.clone()], vec![small2.clone()], true),
            (
                vec![small.clone(), big.clone()],
                vec![big2, small2.clone()],
                true,
            ),
            (vec![small.clone()], vec![small2, big], false),
            (vec![small.clone()], vec![huge], true),
            (vec![small], Vec::new(), true),
        ]
    }

    /// Every paper extend case equals `build` of the merged catalog, and
    /// an aliased one keeps its base's successor CSR.
    fn assert_extends_match_scratch(
        build: fn(ProfileSpace, Vec<ProfileVm>, GraphLimits) -> Result<ProfileGraph, GraphError>,
    ) {
        let space = ProfileSpace::uniform(4, 4);
        let limits = GraphLimits::default();
        for (base_vms, delta, aliased) in paper_extend_cases() {
            let base = build(space.clone(), base_vms.clone(), limits).unwrap();
            let extended = base.extend(delta.clone(), limits).unwrap();
            let merged = base_vms.into_iter().chain(delta).collect();
            let scratch = build(space.clone(), merged, limits).unwrap();
            assert_graphs_identical(&extended, &scratch);
            if aliased {
                assert_eq!(extended.succ, base.succ);
                assert_eq!(extended.succ_off, base.succ_off);
            }
        }
    }

    #[test]
    fn extend_matches_scratch_build_on_paper_example() {
        assert_extends_match_scratch(ProfileGraph::build);
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
    fn extend_full_matches_scratch_full_build() {
        assert_extends_match_scratch(ProfileGraph::build_full);
    }

    /// The cold build's tallies on the default-quantizer M3 table, as
    /// `[kind_moves, dedup_hits, groups]` (one group per node and VM
    /// type). The structural `c3.xlarge` extend of the base (every EC2
    /// type but `c3.xlarge`) equals that build.
    #[test]
    fn build_tallies_are_pinned_on_the_default_m3_table() {
        use prvm_model::{catalog, Quantizer, VmSpec};
        let limits = GraphLimits::default();
        let quantizer = Quantizer::default();
        let pm = catalog::pm_m3();
        let space = ProfileSpace::from_quantized_pm(&quantizer.quantize_pm(&pm));
        let demand = |v: &VmSpec| space.vm_demand(&quantizer.quantize_vm(v, &pm));
        let mut vms: Vec<ProfileVm> = catalog::ec2_vm_types().iter().filter_map(demand).collect();
        let cold =
            ProfileGraph::build_cold(space.clone(), vms.clone(), limits, BuildMode::Reachable)
                .unwrap();
        let graph = &cold.graph;
        assert_eq!(graph.node_count(), 82_265);
        let groups = convert::usize_to_u64(graph.node_count() * graph.vm_types().len());
        assert_eq!(
            [cold.kind_moves, cold.dedup_hits, groups],
            [3_486, 3_227_496, 493_590]
        );

        let structural = vms.pop().unwrap();
        assert_eq!(structural.name, "c3.xlarge");
        let base = ProfileGraph::build(space, vms, limits).unwrap();
        assert_graphs_identical(&base.extend(vec![structural], limits).unwrap(), graph);
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
