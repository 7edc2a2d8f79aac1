//! Fig. 1: the PageRank graph showing rank values of different PM
//! profiles.
//!
//! Reproduces the paper's illustrative graph on a small space — a PM of
//! capacity `[4,4,4,4]` with the VM set `{[1,1], [1,1,1,1]}` (the shapes
//! of §V-A / Fig. 2) — and prints every node with its final score and
//! outgoing edges.

use pagerankvm::{GraphLimits, PageRankConfig, ProfileSpace, ProfileVm, ScoreTable};
use prvm_bench::report_line;

fn main() -> Result<(), String> {
    let space = ProfileSpace::uniform(4, 4);
    let vms = vec![
        ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
        ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ];
    let table = ScoreTable::build(
        space,
        vms,
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .expect("tiny graph builds");

    let g = table.graph();
    report_line(format_args!(
        "Profile graph: PM capacity [4,4,4,4], VM set {{[1,1],[1,1,1,1]}}: \
         {} profiles, {} edges, PageRank converged in {} iterations\n",
        g.node_count(),
        g.edge_count(),
        table.pagerank().iterations
    ))?;

    // Sort nodes by final score (descending) like the figure's shading.
    let mut nodes: Vec<(u32, f64)> = g
        .node_ids()
        .map(|id| (id, table.score(g.profile(id)).expect("own node")))
        .collect();
    nodes.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));

    report_line(format_args!(
        "{:<14} {:>10} {:>7} {:>9}  successors",
        "profile", "score", "util", "endpoint"
    ))?;
    for (id, score) in nodes {
        let succ: Vec<String> = g
            .successors(id)
            .iter()
            .map(|&s| g.profile(s).to_string())
            .collect();
        report_line(format_args!(
            "{:<14} {:>10.6} {:>6.0}% {:>9} {}",
            g.profile(id).to_string(),
            score * 1000.0,
            g.utilization(id) * 100.0,
            if g.is_endpoint(id) { "yes" } else { "" },
            succ.join(" ")
        ))?;
    }
    report_line(format_args!(
        "\n(scores ×1000; higher = preferred placement outcome)"
    ))?;
    Ok(())
}
