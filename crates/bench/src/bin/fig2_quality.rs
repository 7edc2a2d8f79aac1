//! Fig. 2 and the §III-B motivation: profile "quality" under the
//! PageRank ranking versus utilization/variance ranking.
//!
//! Prints the two comparisons the paper argues from:
//! * §V-A / Fig. 2 — `[3,3,3,3]` vs `[4,4,2,2]` (two ways vs one way to
//!   the best profile);
//! * §III-B — `[3,3,2,2]` vs `[4,3,3,3]` (the variance metric prefers the
//!   dead-end profile);
//! * the VM-set change (`{[1],[1,1]}`) under which the paper says
//!   `[4,4,2,2]` and `[3,3,3,3]` become equal quality.

use pagerankvm::{GraphLimits, PageRankConfig, Profile, ProfileSpace, ProfileVm, ScoreTable};
use prvm_bench::report_line;

fn table(vms: Vec<ProfileVm>) -> ScoreTable {
    ScoreTable::build_full(
        ProfileSpace::uniform(4, 4),
        vms,
        &PageRankConfig::default(),
        GraphLimits::default(),
    )
    .expect("70-node graph builds")
}

fn report(t: &ScoreTable, raw: &[u64]) -> (f64, f64, f64) {
    let space = t.space();
    let p: Profile = space.canonicalize(&[raw]);
    let score = t.score(&p).expect("full graph covers all profiles");
    (score * 1000.0, space.utilization(&p), space.variance(&p))
}

fn main() -> Result<(), String> {
    report_line(format_args!(
        "PM capacity [4,4,4,4]; VM set {{[1,1], [1,1,1,1]}}\n"
    ))?;
    let t = table(vec![
        ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
        ProfileVm::from_demands("[1,1,1,1]", vec![vec![1, 1, 1, 1]]),
    ]);

    report_line(format_args!(
        "{:<12} {:>12} {:>8} {:>10}",
        "profile", "score(x1000)", "util", "variance"
    ))?;
    for raw in [[3u64, 3, 3, 3], [4, 4, 2, 2], [3, 3, 2, 2], [4, 3, 3, 3]] {
        let (s, u, v) = report(&t, &raw);
        report_line(format_args!(
            "{:<12} {:>12.6} {:>7.0}% {:>10.5}",
            format!("{raw:?}"),
            s,
            u * 100.0,
            v
        ))?;
    }

    let (a, _, _) = report(&t, &[3, 3, 3, 3]);
    let (b, _, _) = report(&t, &[4, 4, 2, 2]);
    report_line(format_args!(
        "\nFig. 2 claim  : quality([3,3,3,3]) > quality([4,4,2,2])  -> {}",
        if a > b { "HOLDS" } else { "VIOLATED" }
    ))?;
    let (c, _, _) = report(&t, &[3, 3, 2, 2]);
    let (d, _, _) = report(&t, &[4, 3, 3, 3]);
    report_line(format_args!(
        "SIII-B claim : quality([3,3,2,2]) > quality([4,3,3,3])  -> {}",
        if c > d { "HOLDS" } else { "VIOLATED" }
    ))?;
    report_line(format_args!(
        "               (utilization/variance metrics prefer [4,3,3,3]: util {:.0}% vs {:.0}%)",
        report(&t, &[4, 3, 3, 3]).1 * 100.0,
        report(&t, &[3, 3, 2, 2]).1 * 100.0,
    ))?;

    report_line(format_args!("\nVM set changed to {{[1], [1,1]}}:"))?;
    let t2 = table(vec![
        ProfileVm::from_demands("[1]", vec![vec![1]]),
        ProfileVm::from_demands("[1,1]", vec![vec![1, 1]]),
    ]);
    let (a2, _, _) = report(&t2, &[3, 3, 3, 3]);
    let (b2, _, _) = report(&t2, &[4, 4, 2, 2]);
    report_line(format_args!(
        "quality([3,3,3,3]) = {a2:.6}, quality([4,4,2,2]) = {b2:.6} \
         (paper: both can reach the best profile; gap shrinks from {:.6} to {:.6})",
        (a - b).abs(),
        (a2 - b2).abs()
    ))?;
    Ok(())
}
