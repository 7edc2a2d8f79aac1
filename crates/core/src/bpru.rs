//! Best Possible Resource Utilization (Algorithm 1, line 19).
//!
//! The BPRU of a profile is "the maximum resource utilization that the
//! profile can further reach by accommodating several other VMs, i.e. the
//! maximum resource utilization among those of the endpoints of paths
//! containing the profile. If a profile cannot accommodate any other VMs,
//! then the BPRU of this profile is the resource utilization of itself."
//!
//! Because the profile graph is a DAG whose edges strictly increase total
//! usage, sorting nodes by total usage yields a topological order, and BPRU
//! is a single max-propagation sweep in reverse of it. Multiplying PageRank
//! scores by BPRU discounts profiles whose every future ends short of the
//! best profile.

use crate::graph::{ix, NodeId, ProfileGraph};

/// Compute the BPRU of every node.
///
/// `bpru[i] ∈ (0, 1]`, and `bpru[i] == 1.0` exactly when some endpoint with
/// full utilization (the best profile) is reachable from `i`.
#[must_use]
pub fn bpru(graph: &ProfileGraph) -> Vec<f64> {
    let n = graph.node_count();
    // Bucket the nodes by total usage, summed once per node. Every edge
    // strictly raises the total, so the buckets in decreasing order are
    // a reverse topological order, whatever the order within each.
    let mut by_total: Vec<Vec<NodeId>> = Vec::new();
    for id in graph.node_ids() {
        let total: usize = graph
            .profile(id)
            .values()
            .iter()
            .map(|&v| usize::from(v))
            .sum();
        if by_total.len() <= total {
            by_total.resize_with(total + 1, Vec::new);
        }
        by_total[total].push(id);
    }

    let mut out = vec![0.0f64; n];
    for id in by_total.into_iter().rev().flatten() {
        let succ = graph.successors(id);
        out[ix(id)] = if succ.is_empty() {
            graph.utilization(id)
        } else {
            succ.iter()
                .map(|&s| out[ix(s)])
                .fold(f64::NEG_INFINITY, f64::max)
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::profile::{Profile, ProfileSpace, ProfileVm};

    fn paper_graph() -> ProfileGraph {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        ProfileGraph::build(space, vms, GraphLimits::default()).unwrap()
    }

    fn node(g: &ProfileGraph, v: &[u64]) -> usize {
        let p: Profile = g.space().canonicalize(&[v]);
        g.node(&p).expect("profile reachable") as usize
    }

    #[test]
    fn profiles_that_can_reach_best_have_bpru_one() {
        let g = paper_graph();
        let b = bpru(&g);
        // §III-B: [3,3,2,2] can develop to the best profile…
        assert!((b[node(&g, &[3, 3, 2, 2])] - 1.0).abs() < 1e-12);
        // …and so can the empty profile and [3,3,3,3].
        assert!((b[node(&g, &[0, 0, 0, 0])] - 1.0).abs() < 1e-12);
        assert!((b[node(&g, &[3, 3, 3, 3])] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_end_profiles_are_discounted() {
        // §III-B: [4,3,3,3] can never reach [4,4,4,4] with VM set
        // {[1,1],[1,1,1,1]} — both shapes add even totals while the
        // deficit is 3. The profile itself is only in the *full* graph
        // (odd total ⇒ unreachable from empty).
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        let g = ProfileGraph::build_full(space, vms, GraphLimits::default()).unwrap();
        let b = bpru(&g);
        let id = node(&g, &[4, 3, 3, 3]);
        assert!(b[id] < 1.0, "bpru = {}", b[id]);
        // Its best endpoint is [4,4,4,3]: utilization 15/16.
        assert!((b[id] - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn endpoint_bpru_is_its_own_utilization() {
        let g = paper_graph();
        let b = bpru(&g);
        for id in g.node_ids() {
            if g.is_endpoint(id) {
                assert!((b[id as usize] - g.utilization(id)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bpru_is_monotone_along_edges() {
        // A node's BPRU is the max over its successors', so it can never
        // exceed… wait: predecessors can reach everything a successor can,
        // so bpru[pred] >= bpru[succ] is false in general — bpru[pred] is
        // the max over ALL its successors. Check the defining recurrence.
        let g = paper_graph();
        let b = bpru(&g);
        for id in g.node_ids() {
            let succ = g.successors(id);
            if !succ.is_empty() {
                let max = succ
                    .iter()
                    .map(|&s| b[s as usize])
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!((b[id as usize] - max).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bpru_bounds() {
        let g = paper_graph();
        for (id, v) in bpru(&g).iter().enumerate() {
            assert!(*v > 0.0 && *v <= 1.0, "node {id}: {v}");
            // BPRU can never be below the node's own utilization.
            assert!(*v >= g.utilization(id as u32) - 1e-12);
        }
    }
}
