//! Deterministic fault injection for the PageRankVM reproduction.
//!
//! A [`FaultPlan`] is a seeded schedule of things that go wrong in a run:
//! PM crashes and recoveries at fixed scans, transient migration failures
//! with probability `p`, node-agent kills and stalls at fixed ticks, and
//! trace-reading corruption. A [`FaultClock`] answers point queries about
//! the plan ("does this migration attempt fail?", "is this utilization
//! read corrupted?") so the sim engine can consult it inline without
//! threading any RNG state through its loops.
//!
//! Two properties are load-bearing:
//!
//! - **Determinism**: every probabilistic decision is a pure hash of
//!   `(seed, domain, operands)` — a splitmix64-style coin, not a shared
//!   RNG stream. The same plan and seed always fail the same migration
//!   attempts, in any call order.
//! - **Zero drift when empty**: [`FaultPlan::none`] injects nothing and
//!   perturbs no RNG stream, so runs with the empty plan are byte-identical
//!   to runs without fault support at all. Fault injection is strictly
//!   opt-in; the paper-reproduction numbers never move.

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

pub mod io;

pub use io::{CrashSite, FaultFile, IoCrash, IoFaultPlan, StorageFile};

use serde::{Deserialize, Serialize};

/// One scheduled PM failure: the PM crashes at the start of scan `at`
/// and, if `recover_at` is set, comes back at the start of that scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmCrash {
    /// Index of the PM that fails.
    pub pm: usize,
    /// Scan (virtual time step) at which it fails.
    pub at: usize,
    /// Scan at which it recovers, if ever. Must be `> at` to take effect.
    pub recover_at: Option<usize>,
}

/// Faults applied to one testbed node agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentFault {
    /// The agent dies at the tick for this time step: that tick goes
    /// unanswered and every later call is refused — a hard, permanent
    /// node loss from the controller's view.
    pub die_at_tick: Option<usize>,
    /// The agent swallows ticks in `[from, from + ticks)` without
    /// responding, then resumes — a transient stall/partition.
    pub stall: Option<StallWindow>,
}

/// A half-open window of ticks during which a node agent stays silent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallWindow {
    /// First silent tick.
    pub from: usize,
    /// Number of consecutive silent ticks.
    pub ticks: usize,
}

impl StallWindow {
    /// True when tick `t` falls inside the silent window.
    #[must_use]
    pub fn covers(&self, t: usize) -> bool {
        t >= self.from && t < self.from + self.ticks
    }
}

/// A complete seeded fault schedule for one run. The default plan is
/// empty: nothing fails, and every consumer behaves exactly as if fault
/// injection did not exist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[must_use]
pub struct FaultPlan {
    /// Seed for the hash-based probabilistic decisions.
    pub seed: u64,
    /// Scheduled PM crash/recover events (sim and testbed mirror PMs).
    pub pm_crashes: Vec<PmCrash>,
    /// Probability that any single migration or evacuation attempt fails
    /// in flight (the VM stays where it was; the attempt is re-tried or
    /// accounted as failed).
    pub migration_failure_prob: f64,
    /// Probability that one `(vm, scan)` trace read returns garbage
    /// instead of the recorded utilization.
    pub trace_corruption_prob: f64,
    /// Per-node testbed agent faults as `(node index, fault)` pairs.
    pub agent_faults: Vec<(usize, AgentFault)>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, guarantees byte-identical runs.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan can never inject anything. Consumers use this
    /// to skip fault processing entirely on the paper-reproduction path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pm_crashes.is_empty()
            && self.agent_faults.is_empty()
            && self.migration_failure_prob <= 0.0
            && self.trace_corruption_prob <= 0.0
    }

    /// Set the hash seed (builder style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule a PM crash (builder style).
    pub fn with_pm_crash(mut self, pm: usize, at: usize, recover_at: Option<usize>) -> Self {
        self.pm_crashes.push(PmCrash { pm, at, recover_at });
        self
    }

    /// Set the per-attempt migration failure probability (builder style).
    pub fn with_migration_failures(mut self, prob: f64) -> Self {
        self.migration_failure_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Set the per-read trace corruption probability (builder style).
    pub fn with_trace_corruption(mut self, prob: f64) -> Self {
        self.trace_corruption_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Kill a node agent at a tick (builder style).
    pub fn with_agent_kill(mut self, node: usize, at_tick: usize) -> Self {
        self.agent_faults.push((
            node,
            AgentFault {
                die_at_tick: Some(at_tick),
                stall: None,
            },
        ));
        self
    }

    /// Stall a node agent for `ticks` ticks starting at `from` (builder
    /// style).
    pub fn with_agent_stall(mut self, node: usize, from: usize, ticks: usize) -> Self {
        self.agent_faults.push((
            node,
            AgentFault {
                die_at_tick: None,
                stall: Some(StallWindow { from, ticks }),
            },
        ));
        self
    }

    /// The fault (if any) configured for one testbed node. Multiple
    /// entries for the same node merge; the earliest kill wins.
    #[must_use]
    pub fn agent_fault(&self, node: usize) -> Option<AgentFault> {
        let mut merged: Option<AgentFault> = None;
        for (n, fault) in &self.agent_faults {
            if *n != node {
                continue;
            }
            let slot = merged.get_or_insert(AgentFault {
                die_at_tick: None,
                stall: None,
            });
            slot.die_at_tick = match (slot.die_at_tick, fault.die_at_tick) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if slot.stall.is_none() {
                slot.stall = fault.stall;
            }
        }
        merged
    }

    /// The named preset plans the `pagerankvm chaos` matrix runs, scaled
    /// to a horizon of `scans` scans. `None` for an unknown name.
    #[must_use]
    pub fn preset(name: &str, scans: usize, seed: u64) -> Option<Self> {
        let mid = scans / 2;
        let plan = match name {
            "none" => Self::none(),
            "pm-crash" => Self::none()
                .with_pm_crash(0, scans / 4, Some(mid.max(scans / 4 + 1)))
                .with_pm_crash(1, mid, None),
            "flaky-migrations" => Self::none().with_migration_failures(0.3),
            "trace-noise" => Self::none().with_trace_corruption(0.05),
            "all" => Self::none()
                .with_pm_crash(0, scans / 4, Some(mid.max(scans / 4 + 1)))
                .with_migration_failures(0.2)
                .with_trace_corruption(0.02),
            _ => return None,
        };
        Some(plan.seeded(seed))
    }

    /// Names accepted by [`FaultPlan::preset`], in matrix order.
    #[must_use]
    pub fn preset_names() -> &'static [&'static str] {
        &["none", "pm-crash", "flaky-migrations", "trace-noise", "all"]
    }
}

/// The splitmix64 finalizer: a strong 64-bit mix. The workspace's one
/// copy, shared by the fault coins, the I/O chaos matrix and `loadgen`'s
/// request stream.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decision domains keep independent coins independent: the same
/// `(scan, vm)` pair must not correlate across fault kinds.
const DOMAIN_MIGRATION: u64 = 0x4d49_4752; // "MIGR"
const DOMAIN_TRACE: u64 = 0x5452_4143; // "TRAC"

/// Point-query view over a [`FaultPlan`]: the object the sim engine
/// consults each scan. Stateless — all answers are pure functions of the
/// plan, so consulting it in any order (or twice) changes nothing.
#[derive(Debug, Clone)]
pub struct FaultClock<'a> {
    plan: &'a FaultPlan,
}

impl<'a> FaultClock<'a> {
    /// View a plan.
    #[must_use]
    pub fn new(plan: &'a FaultPlan) -> Self {
        Self { plan }
    }

    /// A deterministic coin in `[0, 1)` for one decision.
    fn unit(&self, domain: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(
            self.plan.seed ^ domain.rotate_left(32) ^ splitmix64(a) ^ splitmix64(b).rotate_left(17),
        );
        // 53 high bits → uniform double in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Does the migration/evacuation attempt for `vm` at scan `t` fail
    /// in flight? Keyed by attempt ordinal so retries re-toss the coin.
    #[must_use]
    pub fn migration_fails(&self, scan: usize, vm: u64, attempt: u32) -> bool {
        let p = self.plan.migration_failure_prob;
        p > 0.0
            && self.unit(
                DOMAIN_MIGRATION,
                scan as u64,
                vm ^ (u64::from(attempt) << 48),
            ) < p
    }

    /// Corrupted utilization for `(vm, scan)`, if this read is corrupted:
    /// a deterministic garbage value in `[0, 1]` replacing the trace's.
    #[must_use]
    pub fn corrupt_utilization(&self, scan: usize, vm: u64) -> Option<f64> {
        let p = self.plan.trace_corruption_prob;
        if p > 0.0 && self.unit(DOMAIN_TRACE, scan as u64, vm) < p {
            // An independent draw for the garbage value itself.
            Some(self.unit(DOMAIN_TRACE, vm.wrapping_add(1), scan as u64))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let clock = FaultClock::new(&plan);
        for t in 0..100 {
            for vm in 0..20 {
                assert!(!clock.migration_fails(t, vm, 1));
                assert!(clock.corrupt_utilization(t, vm).is_none());
            }
        }
    }

    #[test]
    fn coins_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::none().with_migration_failures(0.5).seeded(1);
        let b = FaultPlan::none().with_migration_failures(0.5).seeded(2);
        let ca = FaultClock::new(&a);
        let ca2 = FaultClock::new(&a);
        let cb = FaultClock::new(&b);
        let mut differs = false;
        for t in 0..200 {
            assert_eq!(
                ca.migration_fails(t, 7, 1),
                ca2.migration_fails(t, 7, 1),
                "same seed must agree"
            );
            differs |= ca.migration_fails(t, 7, 1) != cb.migration_fails(t, 7, 1);
        }
        assert!(differs, "different seeds must eventually disagree");
    }

    #[test]
    fn coin_rates_approximate_probability() {
        let plan = FaultPlan::none().with_migration_failures(0.3).seeded(42);
        let clock = FaultClock::new(&plan);
        let n = 20_000u64;
        let fails = (0..n)
            .filter(|&i| clock.migration_fails((i / 100) as usize, i % 100, 1))
            .count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn retries_retoss_the_coin() {
        let plan = FaultPlan::none().with_migration_failures(0.5).seeded(9);
        let clock = FaultClock::new(&plan);
        let differs =
            (0..100).any(|vm| clock.migration_fails(3, vm, 1) != clock.migration_fails(3, vm, 2));
        assert!(differs, "attempt ordinal must vary the coin");
    }

    #[test]
    fn corrupted_utilization_is_bounded() {
        let plan = FaultPlan::none().with_trace_corruption(1.0).seeded(3);
        let clock = FaultClock::new(&plan);
        for t in 0..50 {
            for vm in 0..10 {
                let u = clock.corrupt_utilization(t, vm).expect("p = 1");
                assert!((0.0..=1.0).contains(&u), "{u}");
            }
        }
    }

    #[test]
    fn agent_faults_merge_per_node() {
        let plan = FaultPlan::none()
            .with_agent_kill(2, 9)
            .with_agent_kill(2, 4)
            .with_agent_stall(2, 1, 2)
            .with_agent_stall(5, 3, 4);
        let f = plan.agent_fault(2).expect("node 2 has faults");
        assert_eq!(f.die_at_tick, Some(4), "earliest kill wins");
        assert_eq!(f.stall, Some(StallWindow { from: 1, ticks: 2 }));
        assert!(plan.agent_fault(0).is_none());
        let s = plan.agent_fault(5).expect("node 5 stalls");
        assert!(s.stall.expect("stall").covers(3));
        assert!(!s.stall.expect("stall").covers(7));
    }

    #[test]
    fn presets_cover_the_matrix() {
        for name in FaultPlan::preset_names() {
            let plan = FaultPlan::preset(name, 8, 42).expect("known preset");
            if *name == "none" {
                assert!(plan.is_empty());
            } else {
                assert!(!plan.is_empty(), "{name} must inject something");
            }
        }
        assert!(FaultPlan::preset("earthquake", 8, 42).is_none());
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = FaultPlan::preset("all", 16, 7).expect("preset");
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(plan, back);
    }
}
