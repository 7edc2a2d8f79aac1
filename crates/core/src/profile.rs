//! PM resource-usage profiles in the quantized space.
//!
//! A profile is the paper's `p = [p_1, …, p_m]`: utilization of every
//! resource dimension, where each physical core and each physical disk is
//! its own dimension (§IV). Dimensions of the same *kind* (cores among
//! themselves, disks among themselves) are interchangeable, so a profile is
//! stored in **canonical form**: the usage values of each kind sorted
//! ascending. This collapses the permutations the paper talks about —
//! `{α,α,0,0}` and `{0,0,α,α}` map to the same canonical profile — while
//! preserving exactly the distinctions that matter for ranking.

use crate::graph::{ix, nid, NodeId};
use crate::intern::{ProfileId, ProfileInterner};
use prvm_model::combin;
use prvm_model::units::convert;
use prvm_model::{QuantizedPm, QuantizedVm};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One kind of interchangeable dimensions (cores, memory, disks).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KindSpace {
    /// Diagnostic label: `"cores"`, `"mem"`, `"disks"`.
    pub name: String,
    /// Number of dimensions of this kind.
    pub count: usize,
    /// Capacity of each dimension, in quantized units.
    pub cap: u16,
}

/// The shape of the quantized profile space for one PM type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProfileSpace {
    kinds: Vec<KindSpace>,
    /// Flat offset of each kind within a profile (kinds.len() + 1 entries).
    offsets: Vec<usize>,
    total_cap: u64,
}

impl ProfileSpace {
    /// Build a space from explicit kinds. Kinds with `count == 0` or
    /// `cap == 0` are dropped (absent dimensions).
    ///
    /// # Panics
    ///
    /// Panics if no kind remains (a PM must have at least one dimension).
    #[must_use]
    pub fn new(kinds: impl IntoIterator<Item = KindSpace>) -> Self {
        let kinds: Vec<KindSpace> = kinds
            .into_iter()
            .filter(|k| k.count > 0 && k.cap > 0)
            .collect();
        assert!(!kinds.is_empty(), "profile space needs at least one kind");
        let mut offsets = Vec::with_capacity(kinds.len() + 1);
        let mut off = 0;
        for k in &kinds {
            offsets.push(off);
            off += k.count;
        }
        offsets.push(off);
        let total_cap = kinds
            .iter()
            .map(|k| u64::from(k.cap) * convert::usize_to_u64(k.count))
            .sum();
        Self {
            kinds,
            offsets,
            total_cap,
        }
    }

    /// The space of a quantized PM: cores, then memory, then disks.
    #[must_use]
    pub fn from_quantized_pm(pm: &QuantizedPm) -> Self {
        Self::new([
            KindSpace {
                name: "cores".into(),
                count: pm.cores,
                cap: convert::u64_to_u16_saturating(pm.core_cap),
            },
            KindSpace {
                name: "mem".into(),
                count: usize::from(pm.mem_cap > 0),
                cap: convert::u64_to_u16_saturating(pm.mem_cap),
            },
            KindSpace {
                name: "disks".into(),
                count: pm.disks,
                cap: convert::u64_to_u16_saturating(pm.disk_cap),
            },
        ])
    }

    /// A uniform space: `dims` interchangeable dimensions of capacity `cap`
    /// — the shape of all the paper's worked examples (e.g. `[4,4,4,4]`).
    #[must_use]
    pub fn uniform(dims: usize, cap: u16) -> Self {
        Self::new([KindSpace {
            name: "dims".into(),
            count: dims,
            cap,
        }])
    }

    /// The kinds of this space.
    #[must_use]
    pub fn kinds(&self) -> &[KindSpace] {
        &self.kinds
    }

    /// Total number of dimensions (`m` in the paper).
    #[must_use]
    pub fn dims(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Sum of all dimension capacities (denominator of utilization).
    #[must_use]
    pub fn total_cap(&self) -> u64 {
        self.total_cap
    }

    /// The all-zero profile.
    #[must_use]
    pub fn empty_profile(&self) -> Profile {
        Profile(vec![0; self.dims()].into_boxed_slice())
    }

    /// The best profile: full utilization in every dimension (§V-A).
    #[must_use]
    pub fn best_profile(&self) -> Profile {
        let mut v = Vec::with_capacity(self.dims());
        for k in &self.kinds {
            v.extend(std::iter::repeat_n(k.cap, k.count));
        }
        Profile(v.into_boxed_slice())
    }

    /// Canonicalise raw per-kind usage vectors into a [`Profile`].
    ///
    /// `usage` must contain one slice per kind, in kind order, with exactly
    /// `count` entries each. Values may exceed capacity (over-committed
    /// fallback placements); such profiles are valid keys, they just never
    /// appear in a graph.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the space.
    #[must_use]
    pub fn canonicalize(&self, usage: &[&[u64]]) -> Profile {
        assert_eq!(usage.len(), self.kinds.len(), "kind count mismatch");
        let mut v = Vec::with_capacity(self.dims());
        for (k, &slice) in self.kinds.iter().zip(usage) {
            assert_eq!(slice.len(), k.count, "dimension count mismatch");
            let start = v.len();
            v.extend(slice.iter().map(|&u| u16::try_from(u).unwrap_or(u16::MAX)));
            v[start..].sort_unstable();
        }
        Profile(v.into_boxed_slice())
    }

    /// View of one kind's usage inside a profile.
    #[must_use]
    pub fn kind_usage<'p>(&self, profile: &'p Profile, kind: usize) -> &'p [u16] {
        &profile.0[self.offsets[kind]..self.offsets[kind + 1]]
    }

    /// Utilization `u/Σcap` of a profile: the paper's resource utilization
    /// normalised to `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, profile: &Profile) -> f64 {
        let used: u64 = profile.0.iter().map(|&u| u64::from(u)).sum();
        convert::u64_to_f64(used) / convert::u64_to_f64(self.total_cap)
    }

    /// Variance of per-dimension utilization — the metric of the
    /// variance-based approaches the paper's motivation critiques (§III-B).
    #[must_use]
    pub fn variance(&self, profile: &Profile) -> f64 {
        let mut fracs = Vec::with_capacity(self.dims());
        for (i, k) in self.kinds.iter().enumerate() {
            for &u in self.kind_usage(profile, i) {
                fracs.push(f64::from(u) / f64::from(k.cap));
            }
        }
        let dims = convert::usize_to_f64(fracs.len());
        let mean = fracs.iter().sum::<f64>() / dims;
        fracs.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / dims
    }

    /// Convert a quantized VM into this space's demand shape. Returns
    /// `None` if the VM structurally cannot fit (more vCPUs than cores,
    /// memory demanded on a memory-less PM, …).
    #[must_use]
    pub fn vm_demand(&self, vm: &QuantizedVm) -> Option<ProfileVm> {
        let mut demands: Vec<Vec<u64>> = vec![Vec::new(); self.kinds.len()];
        let mut assign = |name: &str, d: Vec<u64>| -> bool {
            if d.is_empty() {
                return true;
            }
            match self.kinds.iter().position(|k| k.name == name) {
                Some(i) if d.len() <= self.kinds[i].count => {
                    demands[i] = d;
                    true
                }
                _ => false,
            }
        };
        let cpu: Vec<u64> = std::iter::repeat_n(vm.vcpu_slots, vm.vcpus)
            .filter(|&s| s > 0)
            .collect();
        let mem: Vec<u64> = if vm.mem_units > 0 {
            vec![vm.mem_units]
        } else {
            Vec::new()
        };
        let disks: Vec<u64> = vm.disk_units.iter().copied().filter(|&d| d > 0).collect();
        if assign("cores", cpu) && assign("mem", mem) && assign("disks", disks) {
            Some(ProfileVm {
                name: vm.name.clone(),
                demands,
            })
        } else {
            None
        }
    }

    /// Enumerate every *distinct* profile reachable from `profile` by
    /// hosting one `vm` (the paper's `S(P_i)` restricted to one VM type).
    /// Empty when the VM does not fit.
    ///
    /// The outcomes are the cartesian product of each kind's
    /// [`place_multiset`] outcomes, first kind outermost. This is the
    /// reference the graph builder's `MoveTable` reproduces.
    #[must_use]
    pub fn place(&self, profile: &Profile, vm: &ProfileVm) -> Vec<Profile> {
        debug_assert_eq!(vm.demands.len(), self.kinds.len());
        // Distinct per-kind multisets give distinct combined profiles,
        // so no dedup is needed.
        let mut rows: Vec<Vec<u16>> = vec![Vec::new()];
        for (i, k) in self.kinds.iter().enumerate() {
            let outcomes = place_multiset(self.kind_usage(profile, i), k.cap, &vm.demands[i]);
            rows = rows
                .iter()
                .flat_map(|row| outcomes.iter().map(move |o| [row.as_slice(), o].concat()))
                .collect();
        }
        rows.into_iter()
            .map(|row| Profile(row.into_boxed_slice()))
            .collect()
    }
}

/// The per-kind placements of one graph build, and its node trie
/// (DESIGN.md §15).
///
/// A profile graph visits every node once per VM type, but the nodes
/// share few distinct per-kind usages: the default M3 graph has 82k
/// nodes yet only 581 distinct usages over its three kinds. Per kind, a
/// [`ProfileInterner`] numbers each distinct kind usage (a *state*), and
/// a flat CSR array holds, per `(state, VM index)`, the states of that
/// state's sorted and deduplicated [`place_multiset`] outcomes, computed
/// once, when the first node in that state is added. A node is its tuple
/// of states, one per kind; its outcomes for a VM are the cartesian
/// product of its states' rows, in [`ProfileSpace::place`]'s order, and
/// each outcome tuple is looked up among the added nodes by walking a
/// dense trie over the state ids: one bounds-checked load per kind, no
/// hash and no key compare.
///
/// The graph builder adds each node as it mints it (sequentially) and
/// reads the table from its workers, so the table holds no locks.
pub(crate) struct MoveTable<'a> {
    space: &'a ProfileSpace,
    vms: &'a [ProfileVm],
    kinds: Vec<KindMoves>,
    /// Per added node, its state in each kind:
    /// `node_states[node * kinds + k]`.
    node_states: Vec<ProfileId>,
    /// The added nodes, as a trie over their state tuples. Block 0 is
    /// indexed by the kind-0 state; an entry of a kind-`k` block is `0`
    /// (no added node has that prefix) or, below the last kind, the index
    /// of the kind-`k + 1` block and, on the last kind, `node + 1`. A
    /// block is sized to its kind's state count when it is made and grows
    /// when a later state is inserted, so a state past its end misses.
    trie: Vec<Vec<u32>>,
    /// `place_multiset` calls made so far.
    kind_moves: u64,
}

/// The states and outcome rows of one kind of a `MoveTable`.
struct KindMoves {
    states: ProfileInterner,
    /// Per state, the index in `off` of its first row, or `NO_ROWS`
    /// until a node in that state is added.
    first: Vec<usize>,
    /// Outcome states of `(state s, VM v)`, at
    /// `outs[off[first[s] + v]..off[first[s] + v + 1]]`.
    outs: Vec<ProfileId>,
    off: Vec<usize>,
}

/// `KindMoves::first` of a state whose rows are not computed yet.
const NO_ROWS: usize = usize::MAX;

impl<'a> MoveTable<'a> {
    /// An empty table for placing `vms` in `space`, sized for roughly
    /// `nodes` nodes.
    pub(crate) fn new(space: &'a ProfileSpace, vms: &'a [ProfileVm], nodes: usize) -> Self {
        let kinds = space
            .kinds
            .iter()
            .map(|_| KindMoves {
                states: ProfileInterner::new(),
                first: Vec::new(),
                outs: Vec::new(),
                off: vec![0],
            })
            .collect();
        Self {
            space,
            vms,
            kinds,
            node_states: Vec::with_capacity(nodes * space.kinds.len()),
            trie: vec![Vec::new()],
            kind_moves: 0,
        }
    }

    /// The number of kinds: the width of a state tuple.
    pub(crate) fn width(&self) -> usize {
        self.kinds.len()
    }

    /// Add the next node, given its canonical values: its state in each
    /// kind is interned first.
    pub(crate) fn add_node(&mut self, values: &[u16]) {
        for (k, moves) in self.kinds.iter_mut().enumerate() {
            let usage = &values[self.space.offsets[k]..self.space.offsets[k + 1]];
            self.node_states.push(moves.states.intern_values(usage).0);
        }
        self.index_last();
    }

    /// Add the next node, given its state tuple (an outcome of
    /// [`Self::place_into`] that [`Self::node_of`] does not know).
    pub(crate) fn add_states(&mut self, states: &[ProfileId]) {
        self.node_states.extend_from_slice(states);
        self.index_last();
    }

    /// The added node whose state tuple is `states`, if any.
    pub(crate) fn node_of(&self, states: &[ProfileId]) -> Option<NodeId> {
        let (last, prefix) = states.split_last()?;
        let mut block = &self.trie[0];
        for state in prefix {
            match *block.get(state.index())? {
                0 => return None,
                child => block = &self.trie[ix(child)],
            }
        }
        block.get(last.index())?.checked_sub(1)
    }

    /// The profile whose kind usages are the states of `states`.
    pub(crate) fn profile(&self, states: &[ProfileId]) -> Profile {
        let mut values = Vec::with_capacity(self.space.dims());
        for (moves, &state) in self.kinds.iter().zip(states) {
            values.extend_from_slice(moves.states.resolve(state).values());
        }
        Profile(values.into_boxed_slice())
    }

    /// The number of `place_multiset` calls made so far.
    pub(crate) fn kind_moves(&self) -> u64 {
        self.kind_moves
    }

    /// Append to `out` the state tuples of the outcomes of placing
    /// `vms[vm]` on added node `node`, in [`ProfileSpace::place`]'s
    /// order; `row` is tuple-wide scratch. Returns the outcome count.
    pub(crate) fn place_into(
        &self,
        node: NodeId,
        vm: usize,
        row: &mut [ProfileId],
        out: &mut Vec<ProfileId>,
    ) -> usize {
        let before = out.len();
        self.product(self.states_of(node), vm, 0, row, out);
        (out.len() - before) / row.len()
    }

    /// The state tuple of added node `node`.
    fn states_of(&self, node: NodeId) -> &[ProfileId] {
        let n = self.kinds.len();
        let at = ix(node) * n;
        &self.node_states[at..at + n]
    }

    /// Compute the rows of the last added node's states that have none,
    /// then enter the node in the trie along its states' path, making
    /// and growing blocks as needed.
    fn index_last(&mut self) {
        let n = self.kinds.len();
        let node = self.node_states.len() / n - 1;
        for k in 0..n {
            self.add_rows(k, self.node_states[node * n + k]);
        }
        let mut block = 0;
        for k in 0..n {
            let state = self.node_states[node * n + k].index();
            if self.trie[block].len() <= state {
                self.trie[block].resize(self.kinds[k].states.len(), 0);
            }
            if k + 1 == n {
                debug_assert_eq!(self.trie[block][state], 0, "node {node} added twice");
                self.trie[block][state] = nid(node + 1);
            } else if self.trie[block][state] == 0 {
                let child = self.trie.len();
                self.trie[block][state] = nid(child);
                self.trie.push(vec![0; self.kinds[k + 1].states.len()]);
                block = child;
            } else {
                block = ix(self.trie[block][state]);
            }
        }
    }

    /// Compute kind `k`'s rows of `state`, every VM in order, unless
    /// they exist: each outcome is interned as a state of the kind.
    fn add_rows(&mut self, k: usize, state: ProfileId) {
        let cap = self.space.kinds[k].cap;
        let moves = &mut self.kinds[k];
        moves.first.resize(moves.states.len(), NO_ROWS);
        if moves.first[state.index()] != NO_ROWS {
            return;
        }
        moves.first[state.index()] = moves.off.len() - 1;
        let usage = moves.states.resolve(state).values().to_vec();
        for vm in self.vms {
            for outcome in place_multiset(&usage, cap, &vm.demands[k]) {
                moves.outs.push(moves.states.intern_values(&outcome).0);
            }
            moves.off.push(moves.outs.len());
            self.kind_moves += 1;
        }
    }

    /// Kind `k`'s outcome states for `(state, vm)`.
    fn outcomes(&self, k: usize, state: ProfileId, vm: usize) -> &[ProfileId] {
        let moves = &self.kinds[k];
        let at = moves.first[state.index()] + vm;
        &moves.outs[moves.off[at]..moves.off[at + 1]]
    }

    /// Append the product of kinds `k..` to `out`, with `row` holding
    /// the chosen outcome states of kinds `..k`. A kind with no outcome
    /// (the VM does not fit) ends the product empty.
    fn product(
        &self,
        states: &[ProfileId],
        vm: usize,
        k: usize,
        row: &mut [ProfileId],
        out: &mut Vec<ProfileId>,
    ) {
        let Some(&state) = states.get(k) else {
            out.extend_from_slice(row);
            return;
        };
        for &outcome in self.outcomes(k, state, vm) {
            row[k] = outcome;
            self.product(states, vm, k + 1, row, out);
        }
    }
}

/// A canonical PM usage profile: per kind, usage values sorted ascending,
/// flattened.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Profile(Box<[u16]>);

impl Profile {
    /// Raw canonical values (kind boundaries live in the [`ProfileSpace`]).
    #[must_use]
    pub fn values(&self) -> &[u16] {
        &self.0
    }

    /// Wrap already-canonical values (the interner's miss path and the
    /// cache loader; both hold values produced by this crate's own
    /// canonicalization, so no re-sorting is needed).
    pub(crate) fn from_values(values: Box<[u16]>) -> Self {
        Self(values)
    }
}

impl fmt::Debug for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Profile{:?}", &self.0[..])
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// A VM's demand expressed in a specific [`ProfileSpace`]: per kind, the
/// units that must land on *distinct* dimensions of that kind, sorted
/// descending.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProfileVm {
    /// VM type name (diagnostics).
    pub name: String,
    demands: Vec<Vec<u64>>,
}

impl ProfileVm {
    /// Construct directly from per-kind demands (sorted descending within
    /// each kind). Used by tests and the paper's abstract examples; real
    /// workloads go through [`ProfileSpace::vm_demand`].
    ///
    /// # Panics
    ///
    /// Panics if a kind's demands are not sorted descending.
    #[must_use]
    pub fn from_demands(name: impl Into<String>, demands: Vec<Vec<u64>>) -> Self {
        for d in &demands {
            assert!(d.windows(2).all(|w| w[0] >= w[1]), "demands must be sorted");
        }
        Self {
            name: name.into(),
            demands,
        }
    }

    /// Per-kind demands.
    #[must_use]
    pub fn demands(&self) -> &[Vec<u64>] {
        &self.demands
    }

    /// Total demanded units across all kinds.
    #[must_use]
    pub fn total_units(&self) -> u64 {
        self.demands.iter().flatten().sum()
    }
}

/// Enumerate the distinct sorted-ascending outcomes of adding `demands`
/// (sorted descending, each on a distinct dimension) to the sorted-ascending
/// usage multiset `usage` with uniform capacity `cap`.
///
/// The dimensions of equal usage form the groups that
/// [`prvm_model::combin::for_each_distribution`] hands the demands out
/// over. The outcomes come back sorted, which fixes the profile graph's
/// node ids.
#[must_use]
pub fn place_multiset(usage: &[u16], cap: u16, demands: &[u64]) -> Vec<Vec<u16>> {
    let groups = combin::run_lengths(usage.iter().copied());
    let mut results = Vec::new();
    combin::for_each_distribution(
        &groups,
        demands,
        |&value, d| u64::from(value) + d <= u64::from(cap),
        |runs, choice| {
            let mut outcome = Vec::with_capacity(usage.len());
            for (g, &(value, n)) in groups.iter().enumerate() {
                let mut bumped = 0;
                for (&(demand, _), counts) in runs.iter().zip(choice) {
                    // A demand only lands where it fits under `cap`, so
                    // this saturation never triggers.
                    let demand = u16::try_from(demand).unwrap_or(u16::MAX);
                    outcome.extend(std::iter::repeat_n(value.saturating_add(demand), counts[g]));
                    bumped += counts[g];
                }
                outcome.extend(std::iter::repeat_n(value, n - bumped));
            }
            outcome.sort_unstable();
            results.push(outcome);
        },
    );
    results.sort_unstable();
    results.dedup();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space4() -> ProfileSpace {
        ProfileSpace::uniform(4, 4)
    }

    fn profile(space: &ProfileSpace, v: &[u64]) -> Profile {
        space.canonicalize(&[v])
    }

    #[test]
    fn canonical_form_sorts_within_kinds() {
        let s = space4();
        let a = profile(&s, &[4, 3, 0, 1]);
        let b = profile(&s, &[0, 1, 3, 4]);
        assert_eq!(a, b);
        assert_eq!(a.values(), &[0, 1, 3, 4]);
    }

    #[test]
    fn kinds_do_not_mix() {
        // Two kinds with identical caps must not merge: memory is not a core.
        let s = ProfileSpace::new([
            KindSpace {
                name: "cores".into(),
                count: 2,
                cap: 4,
            },
            KindSpace {
                name: "mem".into(),
                count: 1,
                cap: 4,
            },
        ]);
        let p = s.canonicalize(&[&[3, 0], &[1]]);
        assert_eq!(p.values(), &[0, 3, 1]); // cores sorted, mem separate
        assert_eq!(s.kind_usage(&p, 0), &[0, 3]);
        assert_eq!(s.kind_usage(&p, 1), &[1]);
    }

    #[test]
    fn utilization_and_best_profile() {
        let s = space4();
        assert_eq!(s.utilization(&s.empty_profile()), 0.0);
        assert_eq!(s.utilization(&s.best_profile()), 1.0);
        let p = profile(&s, &[4, 3, 3, 3]);
        assert!((s.utilization(&p) - 13.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_motivation_example() {
        // §III-B compares [4,3,3,3] (raw variance 0.1875, the paper quotes
        // the unnormalised 0.75) against [3,3,2,2] (raw 0.25, paper 1.0).
        // Our variance is on capacity-normalised fractions: raw/cap².
        let s = space4();
        let a = s.variance(&profile(&s, &[4, 3, 3, 3]));
        let b = s.variance(&profile(&s, &[3, 3, 2, 2]));
        assert!((a - 0.1875 / 16.0).abs() < 1e-9, "{a}");
        assert!((b - 0.25 / 16.0).abs() < 1e-9, "{b}");
        // What matters for the motivation: the variance metric prefers
        // [4,3,3,3], which the paper shows is the *worse* host.
        assert!(a < b);
    }

    #[test]
    fn place_single_vm_type_matches_paper_example() {
        // §V-A / Fig. 2: from [2,2,0,0]... use [3,3,3,3] hosting [1,1].
        let s = space4();
        let vm = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let from = profile(&s, &[3, 3, 3, 3]);
        let out = s.place(&from, &vm);
        assert_eq!(out, vec![profile(&s, &[4, 4, 3, 3])]);

        // [1,1,1,1] onto [3,3,3,3] -> best profile.
        let vm4 = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let out = s.place(&from, &vm4);
        assert_eq!(out, vec![s.best_profile()]);

        // [1,1,1,1] onto [4,4,2,2] does not fit (two dims are full).
        let out = s.place(&profile(&s, &[4, 4, 2, 2]), &vm4);
        assert!(out.is_empty());
    }

    #[test]
    fn place_enumerates_distinct_permutations_only() {
        let s = space4();
        let vm = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        // [2,2,0,0] + [1,1]: three distinct outcomes (both-on-2s, split,
        // both-on-0s).
        let out = s.place(&profile(&s, &[2, 2, 0, 0]), &vm);
        let expect: Vec<Profile> = vec![
            profile(&s, &[3, 3, 0, 0]),
            profile(&s, &[3, 2, 1, 0]),
            profile(&s, &[2, 2, 1, 1]),
        ];
        let mut got = out.clone();
        got.sort();
        let mut want = expect;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn place_respects_multi_kind_demands() {
        let s = ProfileSpace::new([
            KindSpace {
                name: "cores".into(),
                count: 2,
                cap: 4,
            },
            KindSpace {
                name: "mem".into(),
                count: 1,
                cap: 8,
            },
        ]);
        let vm = ProfileVm::from_demands("v", vec![vec![2, 2], vec![3]]);
        let from = s.canonicalize(&[&[1, 0], &[4]]);
        let out = s.place(&from, &vm);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[2, 3, 7]);
        // Memory overflow: 4 + 3 <= 8 ok, but from [4,4] cores it fails.
        let full = s.canonicalize(&[&[3, 3], &[6]]);
        assert!(s.place(&full, &vm).is_empty());
    }

    #[test]
    fn vm_demand_conversion() {
        use prvm_model::QuantizedVm;
        let s = ProfileSpace::new([
            KindSpace {
                name: "cores".into(),
                count: 8,
                cap: 4,
            },
            KindSpace {
                name: "mem".into(),
                count: 1,
                cap: 8,
            },
            KindSpace {
                name: "disks".into(),
                count: 4,
                cap: 4,
            },
        ]);
        let q = QuantizedVm {
            name: "m3.xlarge".into(),
            vcpus: 4,
            vcpu_slots: 1,
            mem_units: 2,
            disk_units: vec![1, 1],
        };
        let vm = s.vm_demand(&q).unwrap();
        assert_eq!(vm.demands(), &[vec![1, 1, 1, 1], vec![2], vec![1, 1]]);
        assert_eq!(vm.total_units(), 8);

        // 16 vCPUs cannot fit 8 cores structurally.
        let too_wide = QuantizedVm {
            name: "wide".into(),
            vcpus: 16,
            vcpu_slots: 1,
            mem_units: 0,
            disk_units: vec![],
        };
        assert!(s.vm_demand(&too_wide).is_none());
    }

    #[test]
    fn vm_demand_on_cpu_only_space() {
        use prvm_model::QuantizedVm;
        let s = ProfileSpace::new([KindSpace {
            name: "cores".into(),
            count: 4,
            cap: 4,
        }]);
        let q = QuantizedVm {
            name: "[1,1]".into(),
            vcpus: 2,
            vcpu_slots: 1,
            mem_units: 0,
            disk_units: vec![],
        };
        let vm = s.vm_demand(&q).unwrap();
        assert_eq!(vm.demands(), &[vec![1, 1]]);
        // Demanding memory on a memory-less space is structural misfit.
        let q = QuantizedVm {
            name: "memful".into(),
            vcpus: 1,
            vcpu_slots: 1,
            mem_units: 3,
            disk_units: vec![],
        };
        assert!(s.vm_demand(&q).is_none());
    }

    #[test]
    fn place_multiset_heterogeneous_demands() {
        // Usage [0,1] cap 4, demands [2,1]: outcomes {[2,2] (2->0,1->1),
        // [1,3] (2->1,1->0)} in ascending order.
        let got = place_multiset(&[0, 1], 4, &[2, 1]);
        assert_eq!(got, vec![vec![1, 3], vec![2, 2]]);
    }

    #[test]
    fn place_multiset_empty_demand_is_identity() {
        assert_eq!(place_multiset(&[1, 2], 4, &[]), vec![vec![1, 2]]);
    }

    #[test]
    fn move_table_node_index_agrees_with_the_interner() {
        use crate::graph::{nid, GraphLimits, ProfileGraph};
        let space = ProfileSpace::new([
            KindSpace {
                name: "cores".into(),
                count: 4,
                cap: 3,
            },
            KindSpace {
                name: "disks".into(),
                count: 2,
                cap: 3,
            },
        ]);
        let vms = vec![
            ProfileVm::from_demands("a", vec![vec![1, 1], vec![1]]),
            ProfileVm::from_demands("b", vec![vec![2], vec![]]),
        ];
        let graph = ProfileGraph::build(space.clone(), vms, GraphLimits::default()).unwrap();
        let mut moves = MoveTable::new(&space, graph.vm_types(), 0);
        // After each add, every pairing of the states known so far finds
        // exactly the node added with those states, or misses: checked
        // after every insert, including each one that grew a block to
        // take a state minted after the block was sized.
        let (mut hits, mut misses, mut grown) = (0, 0, 0);
        for id in graph.node_ids() {
            let sizes: Vec<usize> = moves.trie.iter().map(Vec::len).collect();
            moves.add_node(graph.profile(id).values());
            grown += sizes
                .iter()
                .zip(&moves.trie)
                .filter(|&(&before, block)| before > 0 && block.len() > before)
                .count();
            for a in 0..moves.kinds[0].states.len() {
                for b in 0..moves.kinds[1].states.len() {
                    let states = [ProfileId(nid(a)), ProfileId(nid(b))];
                    let want = graph
                        .node(&moves.profile(&states))
                        .filter(|&node| node <= id);
                    assert_eq!(moves.node_of(&states), want, "{states:?} after {id}");
                    if want.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
        }
        assert!(hits > 0 && misses > 0);
        assert!(
            grown > 0,
            "{} nodes never grew a sized block",
            graph.node_count()
        );

        for id in graph.node_ids() {
            let states = moves.states_of(id).to_vec();
            let values = graph.profile(id).values();
            assert_eq!(moves.profile(&states).values(), values, "node {id}");
            assert_eq!(
                moves.node_of(&states),
                graph.interner().get(values).map(ProfileId::node),
                "node {id}"
            );
        }
        // A tuple of ids no kind ever minted misses too.
        assert_eq!(moves.node_of(&[ProfileId(u32::MAX); 2]), None);
    }

    #[test]
    fn display_and_debug() {
        let s = space4();
        let p = profile(&s, &[4, 3, 3, 3]);
        assert_eq!(p.to_string(), "[3,3,3,4]");
        assert!(format!("{p:?}").contains("Profile"));
    }
}
