//! PageRank over the profile graph — the paper's Algorithm 1, in both of
//! the orientations the paper (inconsistently) describes.
//!
//! The score of profile `P_i` follows Equ. (12):
//!
//! ```text
//! PR(P_i) = (1 - d)/N + d * Σ_{P_j ∈ M(P_i)} PR(P_j)/L(P_j)
//! ```
//!
//! computed iteratively with the auxiliary accumulator `Aux` of the
//! pseudocode, normalising after every sweep (line 17) and stopping when no
//! score moves by more than `epsilon`.
//!
//! # The orientation discrepancy
//!
//! The paper's *pseudocode* pushes each profile's rank to the profiles it
//! can become (`S(P_i)`, line 10): rank flows **toward fuller** profiles,
//! rewarding profiles with many in-ways. Its *worked examples*, however,
//! claim the rank measures a profile's ability to **develop to the best
//! profile** — an out-path property: §V-A says `[3,3,3,3]` outranks
//! `[4,4,2,2]` because it has *two* ways onward to `[4,4,4,4]` versus one.
//! Under the pseudocode's orientation that example is *false* (`[4,4,2,2]`
//! has strictly more predecessors). Running PageRank on the transposed
//! graph — each achievable successor votes for the profiles that can reach
//! it — makes every worked example hold, so that is the default here;
//! [`Orientation::TowardFuller`] gives the literal pseudocode for
//! comparison (see DESIGN.md §5 and the ablation bench).

use crate::graph::{ix, nid, NodeId, ProfileGraph};
use prvm_model::units::convert;
use prvm_obs::{event, Registry, Span};
use prvm_par::Pool;

/// Which way votes flow along profile-graph edges. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// Votes flow opposite the hosting edges: a profile is supported by the
    /// profiles it can develop into. Matches the paper's narrative and
    /// worked examples (default).
    #[default]
    TowardEmptier,
    /// Votes flow along hosting edges, toward fuller profiles. The literal
    /// reading of Algorithm 1's pseudocode.
    TowardFuller,
}

/// Damping factor `d` of Equ. (12); Algorithm 1 fixes the customary 0.85.
const DAMPING: f64 = 0.85;

/// Parameters of the PageRank iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Convergence threshold `ε` on the max per-node change.
    pub epsilon: f64,
    /// Safety bound on iterations.
    pub max_iters: usize,
    /// Vote direction (see [`Orientation`]).
    pub orientation: Orientation,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-10,
            max_iters: 500,
            orientation: Orientation::default(),
        }
    }
}

/// Result of a PageRank computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Normalised score per node (sums to 1).
    pub scores: Vec<f64>,
    /// Iterations executed before convergence (or the cap).
    pub iterations: usize,
    /// `true` if the `epsilon` criterion was met within `max_iters`.
    pub converged: bool,
    /// Max per-node score change after each executed iteration, in
    /// order — the convergence trajectory. `residuals.len()` equals
    /// `iterations`, and the last entry is below `epsilon` iff
    /// `converged`.
    pub residuals: Vec<f64>,
}

/// Run Algorithm 1 (lines 2–18) over `graph`, on the global worker
/// [`prvm_par::Pool`].
///
/// The sparse mat-vec inside each power-iteration sweep is *gathered*
/// per receiving node — every node's incoming votes are summed
/// left-to-right in a fixed (ascending voter id) order by whichever
/// worker owns that node — so residuals and score bit patterns are
/// identical at any worker count (DESIGN.md §10). The teleport /
/// normalisation passes are O(n) and stay sequential, preserving the
/// historical summation order.
///
/// ```
/// use pagerankvm::{pagerank, GraphLimits, PageRankConfig, ProfileGraph,
///                  ProfileSpace, ProfileVm};
///
/// let graph = ProfileGraph::build(
///     ProfileSpace::uniform(4, 4),
///     vec![ProfileVm::from_demands("[1,1]", vec![vec![1, 1]])],
///     GraphLimits::default(),
/// )?;
/// let result = pagerank(&graph, &PageRankConfig::default());
/// assert!(result.converged);
/// // Scores are a probability distribution over profiles.
/// assert!((result.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok::<(), pagerankvm::GraphError>(())
/// ```
#[must_use]
pub fn pagerank(graph: &ProfileGraph, config: &PageRankConfig) -> PageRankResult {
    let n = graph.node_count();
    let nf = convert::usize_to_f64(n);
    power_iterate(graph, config, &Pool::global(), vec![1.0 / nf; n])
}

/// [`pagerank`] warm-started from a previous run's scores, on the global
/// worker [`prvm_par::Pool`] — the incremental path after
/// [`ProfileGraph::extend`].
///
/// Each node of `graph` whose profile also exists in `prev_graph` starts
/// from that node's previous score; nodes new to `graph` start from the
/// uniform `1/N`. The seed vector is renormalised and then iterated by
/// exactly the same sweep as a cold run, so the only difference is the
/// starting point, and [`PageRankResult::iterations`] counts what it
/// saves. That is little once the delta reshapes the graph:
///
/// ```text
/// bash perfbench/run.sh --workload book-refresh --seed 1 --seconds 20 --trace 1
/// ```
///
/// reports `pagerank.sweeps` = 101 for the cold base book (M3 50 + C3
/// 51) and `pagerank.warm_sweeps` = 16.5 per table over its refreshes.
/// That mean hides two cases: a same-footprint delta converges in 2–3
/// sweeps, while the structural `c3.xlarge` delta takes 46 warm against
/// 47 cold on M3 (43 vs 51 on C3; EXPERIMENTS.md). A sweep costs
/// `pagerank.ms_per_sweep` = 0.95 ms there and a refresh's warm runs
/// `pagerank.warm_ms` = 102 ms (medians of four runs, one worker,
/// 2 vCPUs).
///
/// Determinism: the seed is a pure function of `(graph, prev_graph,
/// prev_scores)` built in node-id order, so warm runs are bit-identical
/// at any worker count, and replaying the same `(base, delta)` history
/// reproduces bit-identical scores (DESIGN.md §15).
///
/// ```
/// use pagerankvm::{pagerank, pagerank_warm, GraphLimits, PageRankConfig,
///                  ProfileGraph, ProfileSpace, ProfileVm};
///
/// let space = ProfileSpace::uniform(4, 4);
/// let pair = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
/// let quad = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
/// let base = ProfileGraph::build(space, vec![pair], GraphLimits::default())?;
/// let config = PageRankConfig::default();
/// let cold = pagerank(&base, &config);
///
/// let extended = base.extend(vec![quad], GraphLimits::default())?;
/// let warm = pagerank_warm(&extended, &config, &base, &cold.scores);
/// assert!(warm.converged);
/// // Warm restart converges at least as fast as a cold run of the
/// // extended graph.
/// assert!(warm.iterations <= pagerank(&extended, &config).iterations);
/// # Ok::<(), pagerankvm::GraphError>(())
/// ```
///
/// # Panics
///
/// Panics if `prev_scores` does not match `prev_graph`'s node count, or
/// the seed mass is not positive (previous PageRank scores are all
/// positive by the teleport term).
#[must_use]
pub fn pagerank_warm(
    graph: &ProfileGraph,
    config: &PageRankConfig,
    prev_graph: &ProfileGraph,
    prev_scores: &[f64],
) -> PageRankResult {
    let _span = Span::enter("pagerank_warm");
    let n = graph.node_count();
    assert_eq!(
        prev_scores.len(),
        prev_graph.node_count(),
        "previous scores must match the previous graph"
    );
    let nf = convert::usize_to_f64(n);

    // Seed in node-id order: previous score where the profile existed,
    // uniform mass for profiles the delta made reachable.
    let mut seeded = 0u64;
    let mut init = Vec::with_capacity(n);
    for i in 0..n {
        match prev_graph.node(graph.profile(nid(i))) {
            Some(old) => {
                seeded += 1;
                init.push(prev_scores[ix(old)]);
            }
            None => init.push(1.0 / nf),
        }
    }
    let mut total = 0.0f64;
    for &v in &init {
        total += v;
    }
    assert!(total > 0.0, "warm seed must carry positive mass");
    for v in &mut init {
        *v /= total;
    }
    event("pagerank.warm_seed")
        .field("nodes", n)
        .field("seeded", seeded)
        .field("fresh", convert::usize_to_u64(n).saturating_sub(seeded))
        .emit();
    power_iterate(graph, config, &Pool::global(), init)
}

/// The power iteration itself (Algorithm 1 lines 2–18), from an explicit
/// starting vector — cold runs pass uniform `1/N`, warm runs a mapped
/// previous result. Everything below the starting point is shared, which
/// is what makes warm and cold runs comparable sweep for sweep.
fn power_iterate(
    graph: &ProfileGraph,
    config: &PageRankConfig,
    pool: &Pool,
    init: Vec<f64>,
) -> PageRankResult {
    let n = graph.node_count();
    let _span = Span::enter("pagerank");
    let run = Registry::global().counter("pagerank.runs").add_fetch(1);
    let residual_series = Registry::global().series(&format!("pagerank.residuals.run{run}"));

    // The votes each node casts: along its forward in-edges under the
    // default (transposed) orientation, along its forward out-edges under
    // the pseudocode's. A node splits its rank evenly over its votes.
    let mut indeg = vec![0usize; n];
    for id in graph.node_ids() {
        for &s in graph.successors(id) {
            indeg[ix(s)] += 1;
        }
    }
    let fanout: Vec<f64> = graph
        .node_ids()
        .zip(&indeg)
        .map(|(id, &d)| {
            convert::usize_to_f64(match config.orientation {
                Orientation::TowardEmptier => d,
                Orientation::TowardFuller => graph.successors(id).len(),
            })
        })
        .collect();
    // The pseudocode orientation gathers over each node's predecessors:
    // a CSR of voter ids, ascending per receiver — the order the
    // historical sequential scatter added their votes in.
    let (preds, pred_off) = match config.orientation {
        Orientation::TowardEmptier => (Vec::new(), Vec::new()),
        Orientation::TowardFuller => {
            let off: Vec<usize> = std::iter::once(0)
                .chain(indeg.iter().scan(0, |end, &d| {
                    *end += d;
                    Some(*end)
                }))
                .collect();
            let mut next = off.clone();
            let mut preds = vec![0; graph.edge_count()];
            for id in graph.node_ids() {
                for &s in graph.successors(id) {
                    preds[next[ix(s)]] = id;
                    next[ix(s)] += 1;
                }
            }
            (preds, off)
        }
    };

    let nf = convert::usize_to_f64(n);
    let mut pr = init;
    let mut share = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut residuals = Vec::new();

    while iterations < config.max_iters {
        iterations += 1;
        // Lines 7–12: propagate rank over each edge, split evenly over the
        // voter's votes. Each voter's share `pr / fanout` is divided once
        // per sweep; a node that casts no vote gets a share nobody reads.
        for ((sh, &p), &f) in share.iter_mut().zip(&pr).zip(&fanout) {
            *sh = p / f;
        }
        // Both orientations gather per receiver: each receiving node's
        // sum is an independent left-to-right fold of its voters' shares
        // in ascending voter id order, so the parallel map is
        // bit-identical to a sequential sweep.
        let aux: Vec<f64> = {
            // Sub-span per iteration: the parallel part of the sweep.
            // Its chunks land on worker lanes when tracing.
            let _gather = Span::enter("gather");
            let sum = |voters: &[NodeId]| voters.iter().fold(0.0f64, |acc, &v| acc + share[ix(v)]);
            match config.orientation {
                // Edge i -> s in the hosting graph is a vote s -> i.
                Orientation::TowardEmptier => pool.map_index(n, |i| sum(graph.successors(nid(i)))),
                Orientation::TowardFuller => {
                    pool.map_index(n, |i| sum(&preds[pred_off[i]..pred_off[i + 1]]))
                }
            }
        };
        // Lines 13–16: new scores from the teleport term plus damped votes.
        let teleport = (1.0 - DAMPING) / nf;
        let mut total = 0.0;
        let mut next = vec![0.0; n];
        for (nx, &a) in next.iter_mut().zip(aux.iter()) {
            *nx = teleport + DAMPING * a;
            total += *nx;
        }
        // Line 17: normalise.
        let mut delta = 0.0f64;
        for (nx, &old) in next.iter_mut().zip(pr.iter()) {
            *nx /= total;
            delta = delta.max((*nx - old).abs());
        }
        pr = next;
        residuals.push(delta);
        residual_series.push(delta);
        event("pagerank.iteration")
            .field("run", run)
            .field("iter", iterations)
            .field("residual", delta)
            .emit();
        if delta < config.epsilon {
            converged = true;
            break;
        }
    }

    prvm_obs::counter!(
        "pagerank.iterations_total",
        convert::usize_to_u64(iterations)
    );
    event("pagerank.done")
        .field("run", run)
        .field("nodes", n)
        .field("iterations", iterations)
        .field("converged", converged)
        .field("residual", residuals.last().copied().unwrap_or(0.0))
        .emit();

    PageRankResult {
        scores: pr,
        iterations,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphLimits;
    use crate::profile::{ProfileSpace, ProfileVm};

    fn paper_graph() -> ProfileGraph {
        let space = ProfileSpace::uniform(4, 4);
        let vms = vec![
            ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
            ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
        ];
        ProfileGraph::build(space, vms, GraphLimits::default()).unwrap()
    }

    fn cfg(orientation: Orientation) -> PageRankConfig {
        PageRankConfig {
            orientation,
            ..PageRankConfig::default()
        }
    }

    #[test]
    fn scores_sum_to_one_and_converge_both_orientations() {
        let g = paper_graph();
        for o in [Orientation::TowardFuller, Orientation::TowardEmptier] {
            let r = pagerank(&g, &cfg(o));
            assert!(r.converged, "{o:?} did not converge in {}", r.iterations);
            let sum: f64 = r.scores.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{o:?}: sum = {sum}");
            assert!(r.scores.iter().all(|&s| s > 0.0), "teleport keeps all > 0");
        }
    }

    #[test]
    fn forward_orientation_favours_fuller_profiles() {
        let g = paper_graph();
        let r = pagerank(&g, &cfg(Orientation::TowardFuller));
        let s = g.space();
        let best = g.node(&s.best_profile()).unwrap() as usize;
        let empty = g.node(&s.empty_profile()).unwrap() as usize;
        assert!(r.scores[best] > r.scores[empty]);
    }

    #[test]
    fn reverse_orientation_favours_flexible_profiles() {
        // Under the narrative orientation the empty profile — which can
        // develop into everything — outranks the terminal best profile.
        let g = paper_graph();
        let r = pagerank(&g, &cfg(Orientation::TowardEmptier));
        let s = g.space();
        let best = g.node(&s.best_profile()).unwrap() as usize;
        let empty = g.node(&s.empty_profile()).unwrap() as usize;
        assert!(r.scores[empty] > r.scores[best]);
    }

    #[test]
    fn quality_example_holds_under_default_orientation() {
        // §V-A: [3,3,3,3] outranks [4,4,2,2] (two ways vs one way to the
        // best profile). This is the orientation acid test.
        let g = paper_graph();
        let r = pagerank(&g, &PageRankConfig::default());
        let s = g.space();
        let a = g.node(&s.canonicalize(&[&[3, 3, 3, 3]])).unwrap() as usize;
        let b = g.node(&s.canonicalize(&[&[4, 4, 2, 2]])).unwrap() as usize;
        assert!(
            r.scores[a] > r.scores[b],
            "[3,3,3,3]={} vs [4,4,2,2]={}",
            r.scores[a],
            r.scores[b]
        );
    }

    #[test]
    fn tighter_epsilon_needs_more_iterations() {
        let g = paper_graph();
        let loose = pagerank(
            &g,
            &PageRankConfig {
                epsilon: 1e-4,
                ..PageRankConfig::default()
            },
        );
        let tight = pagerank(
            &g,
            &PageRankConfig {
                epsilon: 1e-12,
                ..PageRankConfig::default()
            },
        );
        assert!(tight.iterations >= loose.iterations);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = paper_graph();
        let r = pagerank(
            &g,
            &PageRankConfig {
                epsilon: 0.0,
                max_iters: 3,
                ..PageRankConfig::default()
            },
        );
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn residuals_trace_the_convergence_trajectory() {
        let g = paper_graph();
        let r = pagerank(&g, &PageRankConfig::default());
        assert_eq!(r.residuals.len(), r.iterations);
        assert!(r.converged);
        let last = *r.residuals.last().unwrap();
        assert!(last < PageRankConfig::default().epsilon);
        // Every earlier residual stayed at or above the threshold (the
        // loop stops at the first sub-epsilon sweep).
        assert!(r.residuals[..r.iterations - 1]
            .iter()
            .all(|&d| d >= PageRankConfig::default().epsilon));

        // A capped run reports the full (unconverged) trajectory too.
        let capped = pagerank(
            &g,
            &PageRankConfig {
                epsilon: 0.0,
                max_iters: 3,
                ..PageRankConfig::default()
            },
        );
        assert_eq!(capped.residuals.len(), 3);
        assert!(!capped.converged);
    }

    #[test]
    fn warm_restart_from_converged_scores_stops_immediately() {
        let g = paper_graph();
        let config = PageRankConfig::default();
        let cold = pagerank(&g, &config);
        // Re-seeding the same graph with its own fixpoint needs a single
        // confirming sweep.
        let warm = pagerank_warm(&g, &config, &g, &cold.scores);
        assert!(warm.converged);
        assert!(warm.iterations <= 2, "{} sweeps", warm.iterations);
    }

    #[test]
    fn warm_restart_beats_cold_on_a_delta() {
        let space = ProfileSpace::uniform(4, 4);
        let pair = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let quad = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base = ProfileGraph::build(space, vec![pair], GraphLimits::default()).unwrap();
        let config = PageRankConfig::default();
        let base_scores = pagerank(&base, &config);
        let extended = base.extend(vec![quad], GraphLimits::default()).unwrap();
        let cold = pagerank(&extended, &config);
        let warm = pagerank_warm(&extended, &config, &base, &base_scores.scores);
        assert!(warm.converged && cold.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // Warm and cold converge to the same distribution within epsilon.
        let worst = warm
            .scores
            .iter()
            .zip(cold.scores.iter())
            .fold(0.0f64, |acc, (&a, &b)| acc.max((a - b).abs()));
        assert!(worst < 1e-7, "worst divergence {worst}");
    }

    #[test]
    fn warm_restart_is_deterministic() {
        let space = ProfileSpace::uniform(4, 4);
        let pair = ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]);
        let quad = ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]);
        let base = ProfileGraph::build(space, vec![pair], GraphLimits::default()).unwrap();
        let config = PageRankConfig::default();
        let base_scores = pagerank(&base, &config);
        let extended = base.extend(vec![quad], GraphLimits::default()).unwrap();
        let a = pagerank_warm(&extended, &config, &base, &base_scores.scores);
        let b = pagerank_warm(&extended, &config, &base, &base_scores.scores);
        assert_eq!(a.iterations, b.iterations);
        assert!(a
            .scores
            .iter()
            .zip(b.scores.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn two_node_chain_has_closed_form() {
        // Graph: 0 -> 1 (single VM that exactly fills the PM). Under the
        // forward orientation the fixpoint of the normalised iteration
        // gives: d·p0² + 2a·p0 − a = 0 with a = (1-d)/2.
        let space = ProfileSpace::uniform(1, 1);
        let vms = vec![ProfileVm::from_demands("[1]", vec![vec![1]])];
        let g = ProfileGraph::build(space, vms, GraphLimits::default()).unwrap();
        assert_eq!(g.node_count(), 2);
        let r = pagerank(&g, &cfg(Orientation::TowardFuller));
        let d: f64 = 0.85;
        let a = (1.0 - d) / 2.0;
        let p0 = (-a + (a * a + a * d).sqrt()) / d;
        assert!((r.scores[0] - p0).abs() < 1e-8, "{}", r.scores[0]);
        assert!((r.scores[1] - (1.0 - p0)).abs() < 1e-8);

        // Under the reverse orientation the roles swap: node 1 votes for
        // node 0, so node 0 carries the larger score.
        let r = pagerank(&g, &cfg(Orientation::TowardEmptier));
        assert!((r.scores[1] - p0).abs() < 1e-8, "{}", r.scores[1]);
        assert!((r.scores[0] - (1.0 - p0)).abs() < 1e-8);
    }
}
