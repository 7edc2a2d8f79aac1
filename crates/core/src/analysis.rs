//! Analysis helpers over profile graphs and score tables: exact path
//! counting (the paper's "ways to develop to the best profile"), rank
//! statistics, and top-profile reports — used by the figure binaries and
//! by anyone inspecting why the placer prefers one profile over another.

use crate::graph::{ix, NodeId, ProfileGraph};
use crate::profile::Profile;
use crate::table::ScoreTable;
use prvm_model::units::convert;

/// Exact number of distinct placement *sequences* from each node to the
/// best profile — the quantity the paper's §V-A quality argument counts
/// ("there are two ways for `[3,3,3,3]` to develop to the best profile").
///
/// Counts paths in the profile graph (each edge = hosting one VM giving a
/// distinct resulting profile), saturating at `u64::MAX`. Nodes that
/// cannot reach the best profile get 0. Returns `None` when the best
/// profile is not in the graph at all.
#[must_use]
pub fn paths_to_best(graph: &ProfileGraph) -> Option<Vec<u64>> {
    let best = graph.node(&graph.space().best_profile())?;
    let n = graph.node_count();
    let mut counts = vec![0u64; n];
    counts[ix(best)] = 1;

    // Reverse topological order (decreasing total usage) makes this a
    // single sweep: a node's count is the sum over its successors'.
    let total = |id: NodeId| -> u64 {
        graph
            .profile(id)
            .values()
            .iter()
            .map(|&v| u64::from(v))
            .sum()
    };
    let mut order: Vec<NodeId> = graph.node_ids().collect();
    order.sort_unstable_by_key(|&id| std::cmp::Reverse(total(id)));
    for id in order {
        if id == best {
            continue;
        }
        let mut sum = 0u64;
        for &s in graph.successors(id) {
            sum = sum.saturating_add(counts[ix(s)]);
        }
        counts[ix(id)] = sum;
    }
    Some(counts)
}

/// Summary statistics of a score table's final ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    /// Number of profiles.
    pub profiles: usize,
    /// Minimum final score.
    pub min: f64,
    /// Maximum final score.
    pub max: f64,
    /// Mean final score.
    pub mean: f64,
    /// Fraction of profiles that can still reach the best profile
    /// (BPRU = 1 ⇔ undiscounted).
    pub best_reaching_fraction: f64,
}

/// Compute [`RankStats`] for a table.
///
/// # Panics
///
/// Panics if the table is empty (cannot be constructed).
#[must_use]
pub fn rank_stats(table: &ScoreTable) -> RankStats {
    let graph = table.graph();
    let bpru = crate::bpru::bpru(graph);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    let mut n = 0usize;
    for (_, s) in table.iter() {
        min = min.min(s);
        max = max.max(s);
        sum += s;
        n += 1;
    }
    assert!(n > 0, "score table is never empty");
    let reaching = bpru.iter().filter(|&&b| (b - 1.0).abs() < 1e-12).count();
    RankStats {
        profiles: n,
        min,
        max,
        mean: sum / convert::usize_to_f64(n),
        best_reaching_fraction: convert::usize_to_f64(reaching) / convert::usize_to_f64(n),
    }
}

/// The `k` highest-scored profiles, descending.
#[must_use]
pub fn top_profiles(table: &ScoreTable, k: usize) -> Vec<(Profile, f64)> {
    let mut all: Vec<(Profile, f64)> = table.iter().map(|(p, s)| (p.clone(), s)).collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::pagerank::PageRankConfig;
    use crate::profile::{ProfileSpace, ProfileVm};

    fn paper_table() -> ScoreTable {
        ScoreTable::build(
            ProfileSpace::uniform(4, 4),
            vec![
                ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
                ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
            ],
            &PageRankConfig::default(),
            GraphLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn paths_to_best_matches_paper_quality_example() {
        // §V-A: "two ways for [3,3,3,3]" ([1,1,1,1]; or [1,1]+[1,1]) and
        // "one way for [4,4,2,2]" ([1,1]+[1,1] on the free dims — but the
        // two [1,1]s land identically, so one distinct way per step;
        // counting sequences: [4,4,2,2]->[4,4,3,3]->[4,4,4,4] is 1 path).
        let t = paper_table();
        let g = t.graph();
        let counts = paths_to_best(g).expect("best profile reachable");
        let node = |raw: &[u64]| g.node(&g.space().canonicalize(&[raw])).unwrap() as usize;
        assert_eq!(counts[node(&[4, 4, 2, 2])], 1);
        assert_eq!(counts[node(&[3, 3, 3, 3])], 2);
        // The best profile itself: exactly the empty path.
        assert_eq!(counts[node(&[4, 4, 4, 4])], 1);
        // And the ordering the paper argues from:
        assert!(counts[node(&[3, 3, 3, 3])] > counts[node(&[4, 4, 2, 2])]);
    }

    #[test]
    fn paths_are_zero_exactly_when_bpru_discounts() {
        let t = paper_table();
        let g = t.graph();
        let counts = paths_to_best(g).unwrap();
        let bpru = crate::bpru::bpru(g);
        for id in g.node_ids() {
            let reaches = counts[id as usize] > 0;
            let undiscounted = (bpru[id as usize] - 1.0).abs() < 1e-12;
            assert_eq!(reaches, undiscounted, "node {id}");
        }
    }

    #[test]
    fn rank_stats_are_sane() {
        let t = paper_table();
        let s = rank_stats(&t);
        assert_eq!(s.profiles, t.len());
        assert!(s.min > 0.0 && s.min <= s.mean && s.mean <= s.max);
        assert!(s.best_reaching_fraction > 0.0 && s.best_reaching_fraction <= 1.0);
    }

    #[test]
    fn top_profiles_are_sorted_and_bounded() {
        let t = paper_table();
        let top = top_profiles(&t, 5);
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        let all = top_profiles(&t, usize::MAX);
        assert_eq!(all.len(), t.len());
    }
}
