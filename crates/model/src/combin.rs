//! Enumeration of *distinct* anti-collocated placements.
//!
//! A VM's demand on an anti-collocated resource kind (vCPUs on cores,
//! virtual disks on physical disks) is **permutable**: `{α,α,0,0}` and
//! `{0,0,α,α}` are the same request (paper §IV). Placing the demand means
//! picking a *distinct* dimension for each demand element. Naively there are
//! `P(n, k)` permutations, but dimensions with identical `(used, capacity)`
//! are interchangeable, so the number of *distinct resulting usage profiles*
//! is tiny. This module enumerates exactly one representative assignment per
//! distinct outcome — the operation both Algorithm 2 (scoring every
//! permutation of a VM's request) and the profile-graph construction rest on.

use std::collections::HashSet;

/// Enumerate one representative assignment per distinct resulting usage
/// multiset, when placing `demands` onto dimensions with current usage
/// `used[i]` and capacity `caps[i]`.
///
/// Each returned vector is parallel to `demands`: entry `j` is the dimension
/// index receiving `demands[j]`. All entries within one assignment are
/// distinct (anti-collocation).
///
/// `demands` must be sorted in descending order (callers keep demands
/// canonicalised; see [`crate::VmSpec::disks`]). Zero-valued demands still
/// occupy a dimension — the paper's anti-collocation is about *distinctness*,
/// and all real demands are positive anyway.
///
/// # Panics
///
/// Panics if `used.len() != caps.len()` or `demands` is not sorted
/// descending.
#[must_use]
pub fn distinct_placements(used: &[u64], caps: &[u64], demands: &[u64]) -> Vec<Vec<usize>> {
    assert_eq!(used.len(), caps.len(), "used/caps length mismatch");
    assert!(
        demands.windows(2).all(|w| w[0] >= w[1]),
        "demands must be sorted descending"
    );
    // Group interchangeable dimensions: identical (used, cap) pairs are
    // consecutive in `order`.
    let mut order: Vec<usize> = (0..used.len()).collect();
    order.sort_unstable_by_key(|&i| (used[i], caps[i]));
    let groups = run_lengths(order.iter().map(|&i| (used[i], caps[i])));

    let mut results = Vec::new();
    // Distinct distributions almost always give distinct outcomes, but we do
    // not rely on it: keep the first assignment per resulting usage multiset.
    let mut seen = HashSet::new();
    let mut next = vec![0usize; groups.len()]; // next unused slot of `order` per group
    for_each_distribution(
        &groups,
        demands,
        |&(u, c), d| u + d <= c,
        |_, choice| {
            // One representative assignment: each run hands its count per
            // group to the next untaken dims of that group.
            let mut start = 0;
            for (slot, &(_, n)) in next.iter_mut().zip(&groups) {
                *slot = start;
                start += n;
            }
            let mut assignment = Vec::with_capacity(demands.len());
            for counts in choice {
                for (g, &count) in counts.iter().enumerate() {
                    assignment.extend_from_slice(&order[next[g]..next[g] + count]);
                    next[g] += count;
                }
            }
            let mut outcome = used.to_vec();
            for (&dim, &d) in assignment.iter().zip(demands) {
                outcome[dim] += d;
            }
            outcome.sort_unstable();
            if seen.insert(outcome) {
                results.push(assignment);
            }
        },
    );
    results
}

/// Run-length encode `items`: each maximal run of equal items becomes
/// `(item, run length)`.
#[must_use]
pub fn run_lengths<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<(T, usize)> {
    let mut runs: Vec<(T, usize)> = Vec::new();
    for item in items {
        match runs.last_mut() {
            Some((last, n)) if *last == item => *n += 1,
            _ => runs.push((item, 1)),
        }
    }
    runs
}

/// Hand `demands` (sorted descending) out over `groups` of interchangeable
/// dimensions, one distinct dimension per demand, and call
/// `emit(runs, choice)` once per distinct distribution. A group is
/// `(key, size)`; a demand `d` may land in it only when `fits(key, d)`.
/// `runs` is the run-length encoding of `demands` and `choice[r][g]` is how
/// many of run `r`'s demands land in group `g`.
///
/// This is the one enumerator behind both [`distinct_placements`] and the
/// profile graph's `place_multiset`, and its order is part of their
/// contract: run by run, group by group, each count from high to low.
/// Empty `demands` emit once, with nothing placed; more demands than
/// dimensions emit nothing.
pub fn for_each_distribution<K>(
    groups: &[(K, usize)],
    demands: &[u64],
    fits: impl Fn(&K, u64) -> bool,
    emit: impl FnMut(&[(u64, usize)], &[Vec<usize>]),
) {
    if demands.len() > groups.iter().map(|&(_, n)| n).sum() {
        return;
    }
    let runs = run_lengths(demands.iter().copied());
    let mut walk = Walk {
        groups,
        runs: &runs,
        taken: vec![0; groups.len()],
        choice: vec![vec![0; groups.len()]; runs.len()],
        fits,
        emit,
    };
    match runs.first() {
        Some(&(_, count)) => walk.rec(0, count, 0),
        None => (walk.emit)(&runs, &walk.choice),
    }
}

/// The recursion state of [`for_each_distribution`].
struct Walk<'a, K, F, E> {
    groups: &'a [(K, usize)],
    runs: &'a [(u64, usize)],
    /// Dimensions consumed per group by the runs placed so far.
    taken: Vec<usize>,
    choice: Vec<Vec<usize>>,
    fits: F,
    emit: E,
}

impl<K, F, E> Walk<'_, K, F, E>
where
    F: Fn(&K, u64) -> bool,
    E: FnMut(&[(u64, usize)], &[Vec<usize>]),
{
    /// Place the `remaining` demands of run `run` on groups `g..`, then
    /// every later run.
    fn rec(&mut self, run: usize, remaining: usize, g: usize) {
        if remaining == 0 {
            self.choice[run][g..].fill(0);
            match self.runs.get(run + 1) {
                Some(&(_, count)) => self.rec(run + 1, count, 0),
                None => (self.emit)(self.runs, &self.choice),
            }
            return;
        }
        let Some((key, size)) = self.groups.get(g) else {
            return; // demands left over, no group to hold them
        };
        let avail = if (self.fits)(key, self.runs[run].0) {
            size - self.taken[g]
        } else {
            0
        };
        for c in (0..=avail.min(remaining)).rev() {
            self.choice[run][g] = c;
            self.taken[g] += c;
            self.rec(run, remaining - c, g + 1);
            self.taken[g] -= c;
        }
    }
}

/// Find any single feasible anti-collocated assignment, or `None`.
///
/// Greedy: match demands (descending) to dimensions in order of descending
/// free capacity. Because every demand is compatible with a *prefix* of the
/// dimensions in that order, the greedy matching is complete: it fails only
/// when no assignment exists.
#[must_use]
pub fn first_feasible(used: &[u64], caps: &[u64], demands: &[u64]) -> Option<Vec<usize>> {
    assert_eq!(used.len(), caps.len(), "used/caps length mismatch");
    assert!(
        demands.windows(2).all(|w| w[0] >= w[1]),
        "demands must be sorted descending"
    );
    if demands.len() > used.len() {
        return None;
    }
    let mut dims: Vec<usize> = (0..used.len()).collect();
    dims.sort_unstable_by_key(|&i| std::cmp::Reverse(caps[i].saturating_sub(used[i])));
    let mut assignment = Vec::with_capacity(demands.len());
    for (j, &d) in demands.iter().enumerate() {
        let dim = dims[j];
        if used[dim] + d > caps[dim] {
            return None;
        }
        assignment.push(dim);
    }
    Some(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(used: &[u64], caps: &[u64], demands: &[u64]) -> Vec<Vec<u64>> {
        let mut out: Vec<Vec<u64>> = distinct_placements(used, caps, demands)
            .into_iter()
            .map(|a| {
                let mut v = used.to_vec();
                for (j, &dim) in a.iter().enumerate() {
                    v[dim] += demands[j];
                }
                v.sort_unstable();
                v
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn empty_demand_has_single_trivial_placement() {
        assert_eq!(distinct_placements(&[0, 0], &[4, 4], &[]), vec![vec![]]);
    }

    #[test]
    fn too_many_demands_yields_nothing() {
        assert!(distinct_placements(&[0, 0], &[4, 4], &[1, 1, 1]).is_empty());
    }

    #[test]
    fn identical_dims_collapse_to_one_outcome() {
        // Placing [1,1] on an empty 4-core PM: only one distinct outcome.
        let p = distinct_placements(&[0, 0, 0, 0], &[4, 4, 4, 4], &[1, 1]);
        assert_eq!(p.len(), 1);
        assert_eq!(
            outcomes(&[0, 0, 0, 0], &[4, 4, 4, 4], &[1, 1]),
            vec![vec![0, 0, 1, 1]]
        );
    }

    #[test]
    fn distinct_usages_generate_multiple_outcomes() {
        // Paper §V-A: profile [2,2,0,0] hosting a [1,1] VM can become
        // [3,3,0,0], [3,2,1,0] (i.e. [2,0]+1s split) or [2,2,1,1].
        let got = outcomes(&[2, 2, 0, 0], &[4, 4, 4, 4], &[1, 1]);
        assert_eq!(
            got,
            vec![vec![0, 0, 3, 3], vec![0, 1, 2, 3], vec![1, 1, 2, 2]]
        );
    }

    #[test]
    fn capacity_is_respected() {
        // One core is full: the [1,1,1,1] VM no longer fits.
        assert!(distinct_placements(&[4, 0, 0, 0], &[4, 4, 4, 4], &[1, 1, 1, 1]).is_empty());
        // But [1,1] still fits on the three free cores.
        let got = outcomes(&[4, 0, 0, 0], &[4, 4, 4, 4], &[1, 1]);
        assert_eq!(got, vec![vec![0, 1, 1, 4]]);
    }

    #[test]
    fn heterogeneous_demands() {
        // Two disks of different size onto two empty disks: one outcome
        // (disks interchangeable).
        let p = distinct_placements(&[0, 0], &[250, 250], &[40, 8]);
        assert_eq!(p.len(), 1);
        // Onto disks with different usage: both pairings are distinct.
        let got = outcomes(&[10, 0], &[250, 250], &[40, 8]);
        assert_eq!(got, vec![vec![8, 50], vec![18, 40]]);
    }

    #[test]
    fn anti_collocation_within_assignment() {
        for a in distinct_placements(&[0, 1, 2, 3], &[4, 4, 4, 4], &[1, 1, 1]) {
            let mut dims = a.clone();
            dims.sort_unstable();
            dims.dedup();
            assert_eq!(dims.len(), a.len(), "assignment reused a dimension: {a:?}");
        }
    }

    #[test]
    fn representative_assignment_matches_outcome_count() {
        // 8 cores, mixed usage; 4-vCPU VM.
        let used = [0, 0, 1, 1, 2, 2, 3, 3];
        let caps = [4u64; 8];
        let placements = distinct_placements(&used, &caps, &[1, 1, 1, 1]);
        // Choose 4 of the 4 usage groups with repetition, bounded by group
        // size 2: compositions of 4 into 4 parts each <= 2 and value 3 group
        // excluded (3+1 <= 4 ok, so included).
        let outcomes: HashSet<Vec<u64>> = placements
            .iter()
            .map(|a| {
                let mut v = used.to_vec();
                for (j, &dim) in a.iter().enumerate() {
                    v[dim] += [1u64, 1, 1, 1][j];
                }
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(outcomes.len(), placements.len(), "duplicate outcomes");
        assert!(!placements.is_empty());
    }

    #[test]
    fn first_feasible_agrees_with_enumeration() {
        let cases: &[(&[u64], &[u64], &[u64])] = &[
            (&[0, 0, 0, 0], &[4, 4, 4, 4], &[1, 1]),
            (&[4, 4, 4, 4], &[4, 4, 4, 4], &[1]),
            (&[3, 3, 2, 2], &[4, 4, 4, 4], &[1, 1, 1, 1]),
            (&[3, 3, 2, 2], &[4, 4, 4, 4], &[2, 2]),
            (&[2, 1], &[4, 4], &[3, 2]),
            (&[2, 1], &[4, 4], &[3, 3]),
        ];
        for &(used, caps, demands) in cases {
            let any = first_feasible(used, caps, demands);
            let all = distinct_placements(used, caps, demands);
            assert_eq!(
                any.is_some(),
                !all.is_empty(),
                "disagreement for {used:?} {demands:?}"
            );
            if let Some(a) = any {
                for (j, &dim) in a.iter().enumerate() {
                    assert!(used[dim] + demands[j] <= caps[dim]);
                }
                let mut d = a.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), a.len());
            }
        }
    }

    #[test]
    fn zero_capacity_dimensions_never_receive_positive_demand() {
        let p = distinct_placements(&[0, 0], &[0, 4], &[1]);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0], vec![1]);
    }
}
