//! Hash-consed profile interning.
//!
//! [`ProfileInterner`] is an arena of canonical profiles plus an
//! open-addressing index keyed by an FNV-1a hash of the raw `u16`
//! values: canonicalization and allocation happen once per *distinct*
//! profile, lookups hash borrowed slices without allocating, and the
//! table layout is a pure function of insertion order — no
//! `RandomState`, nothing to iterate, nothing for the D001 determinism
//! lint to worry about.
//!
//! The graph builder uses it in two roles. Per kind, in its move table
//! (`profile.rs`), the interned values are one kind's usage slice and
//! the ids number the distinct per-kind states, including the states
//! of every placement outcome. For whole profiles, the ids are the
//! node ids: the builder appends each node it mints, once, and the
//! index then answers profile queries such as
//! [`crate::ProfileGraph::node`]. The ~3.3M successor visits of a
//! default EC2 build do not reach it: the move table finds each
//! outcome's node in a dense trie over its per-kind state ids.

use crate::profile::Profile;

/// Handle of an interned profile inside a [`ProfileInterner`].
///
/// Ids are minted densely from `0` in insertion order, so a `ProfileId`
/// doubles as the node id of graphs built over the same interner:
/// [`crate::ProfileGraph`] mints its [`crate::NodeId`]s by interning
/// profiles in BFS discovery order, and the two number spaces coincide.
///
/// ```
/// use pagerankvm::intern::{ProfileId, ProfileInterner};
/// use pagerankvm::ProfileSpace;
///
/// let space = ProfileSpace::uniform(4, 4);
/// let mut interner = ProfileInterner::new();
/// let (id, fresh) = interner.intern(space.empty_profile());
/// assert_eq!((id, fresh), (ProfileId(0), true));
/// // Interning the same canonical profile again is a hit, not a copy.
/// let (again, fresh) = interner.intern(space.empty_profile());
/// assert_eq!((again, fresh), (ProfileId(0), false));
/// assert_eq!(interner.resolve(id), &space.empty_profile());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProfileId(pub u32);

impl ProfileId {
    /// The id as a graph node id (same number space; see the type docs).
    #[must_use]
    pub fn node(self) -> crate::NodeId {
        self.0
    }

    /// The id widened to a vector index.
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// Sentinel for an empty hash slot (`0` means empty; stored ids are +1).
const EMPTY: u32 = 0;

/// Grow when the table is more than ~7/8 full.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// FNV-1a over the little-endian bytes of the values — deterministic
/// across runs, platforms and thread counts (no `RandomState`).
#[inline]
fn fnv1a(values: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in values {
        h ^= u64::from(v & 0xff);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= u64::from(v >> 8);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An open-addressing index over dense ids `0..len`, whose keys live
/// with the caller: the caller hashes a key (the low bits pick the
/// slot) and tells [`Self::find`] which id holds it. Its one user is
/// the [`ProfileInterner`], which keys profiles by value.
#[derive(Debug, Clone)]
pub(crate) struct IdIndex {
    /// Power-of-two probe table; `slots[h & mask]` is `EMPTY` or `id + 1`.
    slots: Vec<u32>,
    mask: usize,
}

impl Default for IdIndex {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl IdIndex {
    /// An empty index sized for roughly `cap` ids.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let table = (cap * LOAD_DEN / LOAD_NUM + 1).next_power_of_two().max(16);
        Self {
            slots: vec![EMPTY; table],
            mask: table - 1,
        }
    }

    /// The first id on the probe path of `hash` that `is_key` accepts.
    pub(crate) fn find(&self, hash: u64, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut slot = self.slot(hash);
        loop {
            let id = self.slots[slot].checked_sub(1)?;
            if is_key(id) {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Enter the newest of `len` ids, `len - 1`; `hash_of` hashes an
    /// id's key. Past the load factor the table doubles and every id is
    /// entered again.
    pub(crate) fn push(&mut self, len: usize, hash_of: impl Fn(u32) -> u64) {
        let newest = crate::graph::nid(len - 1);
        if len * LOAD_DEN < self.slots.len() * LOAD_NUM {
            self.place(newest, hash_of(newest));
            return;
        }
        let table = self.slots.len() * 2;
        self.slots = vec![EMPTY; table];
        self.mask = table - 1;
        for id in 0..=newest {
            self.place(id, hash_of(id));
        }
    }

    fn slot(&self, hash: u64) -> usize {
        #[expect(
            clippy::as_conversions,
            reason = "hash-to-slot: masked to table size immediately; truncation is the point"
        )]
        let slot = (hash as usize) & self.mask;
        slot
    }

    fn place(&mut self, id: u32, hash: u64) {
        let mut slot = self.slot(hash);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.slots[slot] = id + 1;
    }
}

/// Arena + open-addressing index of canonical [`Profile`]s.
///
/// See [`ProfileId`] for an example. The structure is append-only: ids,
/// once minted, never move, and the arena owns the only copy of each
/// profile (the index stores ids, not keys).
#[derive(Debug, Clone, Default)]
pub struct ProfileInterner {
    profiles: Vec<Profile>,
    index: IdIndex,
}

impl ProfileInterner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty interner sized for roughly `cap` distinct profiles.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            profiles: Vec::with_capacity(cap),
            index: IdIndex::with_capacity(cap),
        }
    }

    /// Number of distinct interned profiles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Look up canonical values without allocating.
    #[must_use]
    pub fn get(&self, values: &[u16]) -> Option<ProfileId> {
        self.index
            .find(fnv1a(values), |id| {
                self.profiles[ProfileId(id).index()].values() == values
            })
            .map(ProfileId)
    }

    /// Intern an owned profile; returns its id and whether it was fresh.
    pub fn intern(&mut self, profile: Profile) -> (ProfileId, bool) {
        if let Some(id) = self.get(profile.values()) {
            return (id, false);
        }
        (self.push_new(profile), true)
    }

    /// Intern canonical values borrowed from a scratch buffer; allocates
    /// a [`Profile`] only on a miss, so a hit costs one FNV pass and a
    /// probe, nothing more.
    pub fn intern_values(&mut self, values: &[u16]) -> (ProfileId, bool) {
        if let Some(id) = self.get(values) {
            return (id, false);
        }
        (self.push_new(Profile::from_values(values.into())), true)
    }

    /// Append a profile the caller knows is not interned yet, without
    /// looking it up first: the graph builder's mint, whose move table
    /// has already ruled the profile out.
    pub(crate) fn push_distinct(&mut self, profile: Profile) -> ProfileId {
        debug_assert!(
            self.get(profile.values()).is_none(),
            "{profile:?} interned twice"
        );
        self.push_new(profile)
    }

    /// The profile behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this interner.
    #[must_use]
    pub fn resolve(&self, id: ProfileId) -> &Profile {
        &self.profiles[id.index()]
    }

    /// All interned profiles in id order (the arena itself).
    #[must_use]
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    fn push_new(&mut self, profile: Profile) -> ProfileId {
        assert!(
            self.profiles.len() < usize::try_from(u32::MAX).unwrap_or(usize::MAX),
            "interner is full: u32::MAX profiles"
        );
        self.profiles.push(profile);
        let profiles = &self.profiles;
        self.index.push(profiles.len(), |id| {
            fnv1a(profiles[ProfileId(id).index()].values())
        });
        ProfileId(crate::graph::nid(profiles.len() - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileSpace;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let s = ProfileSpace::uniform(4, 4);
        let mut it = ProfileInterner::new();
        let (a, fresh_a) = it.intern(s.canonicalize(&[&[1, 2, 3, 4]]));
        let (b, fresh_b) = it.intern(s.canonicalize(&[&[4, 3, 2, 1]])); // same canonical
        let (c, fresh_c) = it.intern(s.canonicalize(&[&[0, 0, 0, 1]]));
        assert_eq!((a, fresh_a), (ProfileId(0), true));
        assert_eq!((b, fresh_b), (ProfileId(0), false));
        assert_eq!((c, fresh_c), (ProfileId(1), true));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn get_matches_intern_without_allocating() {
        let s = ProfileSpace::uniform(4, 4);
        let mut it = ProfileInterner::new();
        assert_eq!(it.get(&[0, 0, 1, 3]), None);
        let p = s.canonicalize(&[&[3, 1, 0, 0]]);
        let (id, _) = it.intern(p.clone());
        assert_eq!(it.get(&[0, 0, 1, 3]), Some(id));
        assert_eq!(it.resolve(id), &p);
    }

    #[test]
    fn intern_values_allocates_only_on_miss() {
        let mut it = ProfileInterner::new();
        let (a, fresh) = it.intern_values(&[1, 1, 2]);
        assert!(fresh);
        let (b, fresh) = it.intern_values(&[1, 1, 2]);
        assert!(!fresh);
        assert_eq!(a, b);
    }

    #[test]
    fn survives_growth_past_initial_table() {
        // Push enough distinct profiles to force several grows and
        // verify every id still resolves and round-trips.
        let mut it = ProfileInterner::with_capacity(4);
        let mut ids = Vec::new();
        for v in 0u16..2000 {
            let (id, fresh) = it.intern_values(&[v, v.wrapping_mul(31), 7]);
            assert!(fresh);
            ids.push((id, v));
        }
        assert_eq!(it.len(), 2000);
        for (id, v) in ids {
            assert_eq!(it.resolve(id).values(), &[v, v.wrapping_mul(31), 7]);
            assert_eq!(it.get(&[v, v.wrapping_mul(31), 7]), Some(id));
        }
    }

    #[test]
    fn default_interner_misses_then_interns() {
        let mut it = ProfileInterner::default();
        assert_eq!(it.get(&[1, 2]), None);
        assert_eq!(it.intern_values(&[1, 2]), (ProfileId(0), true));
        assert_eq!(it.get(&[1, 2]), Some(ProfileId(0)));
    }

    #[test]
    fn insertion_order_is_the_id_order() {
        let mut it = ProfileInterner::new();
        it.intern_values(&[5]);
        it.intern_values(&[9]);
        it.intern_values(&[5]);
        it.intern_values(&[1]);
        let got: Vec<&[u16]> = it.profiles().iter().map(|p| p.values()).collect();
        assert_eq!(got, vec![&[5][..], &[9][..], &[1][..]]);
    }
}
