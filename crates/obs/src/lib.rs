//! Structured observability for the PageRankVM suite.
//!
//! Three cooperating layers, all safe to leave compiled into hot paths:
//!
//! * **Spans** ([`Span`]) — RAII wall-time phases. `Span::enter("pagerank")`
//!   times a block; nesting builds slash paths (`simulate/scan`). Every
//!   drop feeds the `span.<path>` histogram in the global [`Registry`]
//!   and emits a `span_end` event.
//! * **Metrics** ([`Registry`]) — named counters, gauges, log-scale
//!   latency histograms and numeric series. Always on: recording is a
//!   couple of relaxed atomic ops, and the [`counter!`]/[`gauge!`]
//!   macros cache the name lookup per call site, re-resolving when the
//!   global registry is swapped ([`Registry::install_global`]).
//! * **Events** ([`event()`]) — structured JSON-lines records with a
//!   pluggable sink ([`init`]): pretty or JSON on stderr, and/or a
//!   JSONL file. Off by default; the disabled path is one atomic load.
//! * **Profiling** ([`timeline`], [`trace`]) — opt-in per-worker span
//!   timelines recorded by the `prvm-par` pool, rendered as
//!   `chrome://tracing` / Perfetto trace-event JSON by [`TraceSink`].
//!   With the `prof-alloc` feature, a counting global allocator
//!   additionally reports net/peak heap bytes per top-level span as
//!   `mem.<phase>.*` gauges.
//!
//! [`report`] turns either a recorded event log or a live
//! [`MetricsSnapshot`] back into human-readable phase breakdowns and
//! PageRank convergence summaries.
//!
//! Event envelope schema (one JSON object per line):
//!
//! ```json
//! {"seq":7,"ts_s":0.0123,"name":"pagerank.iteration",
//!  "span":"place/pagerank","fields":{"run":1,"iter":3,"residual":1e-4}}
//! ```

#![warn(clippy::expect_used)]

#[cfg(feature = "prof-alloc")]
pub mod alloc;
pub mod event;
pub mod metrics;
pub mod report;
pub mod span;
pub mod timeline;
pub mod trace;

pub use event::{event, flush, init, is_enabled, EventBuilder, LogMode, ObsConfig};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, PhaseSummary, Registry, Series,
};
pub use report::{render_report, summarize_events, ReportSummary};
pub use span::Span;
pub use timeline::Timeline;
pub use trace::{validate_chrome_trace, TraceSink, TraceStats};

/// The per-call-site handle cache behind [`counter!`], [`gauge!`] and
/// [`histogram!`]: resolve the `$lookup` handle of type `$kind` once,
/// then call `$method($value)` on it. The cache is keyed on
/// [`Registry::generation`], read **before** resolving the global, so a
/// concurrent swap costs at most one wasted re-resolve, never a
/// permanently stale cache.
#[doc(hidden)]
#[macro_export]
macro_rules! __cached_metric {
    ($kind:ident, $lookup:ident, $name:expr, $method:ident($value:expr)) => {{
        static CACHED: ::std::sync::Mutex<
            ::std::option::Option<(u64, ::std::sync::Arc<$crate::$kind>)>,
        > = ::std::sync::Mutex::new(::std::option::Option::None);
        let generation = $crate::Registry::generation();
        let mut cached = CACHED
            .lock()
            .unwrap_or_else(::std::sync::PoisonError::into_inner);
        match cached.as_ref() {
            ::std::option::Option::Some((cached_generation, handle))
                if *cached_generation == generation =>
            {
                handle.$method($value);
            }
            _ => {
                let handle = $crate::Registry::global().$lookup($name);
                handle.$method($value);
                *cached = ::std::option::Option::Some((generation, handle));
            }
        }
    }};
}

/// Bump a named counter in the global [`Registry`], caching the handle
/// per call site. The cache is keyed on [`Registry::generation`], so a
/// test that swaps the global registry ([`Registry::install_global`])
/// sees subsequent increments land in the new registry rather than a
/// stale handle on the old one.
///
/// ```
/// prvm_obs::counter!("placer.permutations_evaluated", 12);
/// prvm_obs::counter!("placer.evictions"); // increment by one
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $delta:expr) => {
        $crate::__cached_metric!(Counter, counter, $name, add($delta as u64))
    };
}

/// Set a named gauge in the global [`Registry`], caching the handle
/// per call site. Generation-aware exactly like [`counter!`]: the
/// handle re-resolves after the global registry is swapped.
///
/// ```
/// prvm_obs::gauge!("sim.mean_utilization", 0.62);
/// ```
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::__cached_metric!(Gauge, gauge, $name, set($value as f64))
    };
}

/// Record a value into a named histogram in the global [`Registry`],
/// caching the handle per call site. Generation-aware exactly like
/// [`counter!`]: the handle re-resolves after the global registry is
/// swapped.
///
/// ```
/// prvm_obs::histogram!("serve.request_latency_us", 1250u64);
/// ```
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::__cached_metric!(Histogram, histogram, $name, record($value as u64))
    };
}

/// Serializes unit tests that read or swap the global registry, so a
/// swap in one test cannot redirect another test's recordings. Tests
/// that allocate 64 KiB or more take it too: the allocator counters are
/// process-global, and a large live block skews a `MemoryWindow`.
#[cfg(test)]
pub(crate) fn global_registry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_record_into_the_global_registry() {
        let _guard = crate::global_registry_test_lock();
        counter!("obs_lib_test.counter", 2);
        counter!("obs_lib_test.counter", 2);
        gauge!("obs_lib_test.gauge", 1.25);
        histogram!("obs_lib_test.histogram", 10u64);
        histogram!("obs_lib_test.histogram", 1000u64);
        assert_eq!(
            crate::Registry::global()
                .counter("obs_lib_test.counter")
                .get(),
            4
        );
        assert_eq!(
            crate::Registry::global().gauge("obs_lib_test.gauge").get(),
            1.25
        );
        let hist = crate::Registry::global().histogram("obs_lib_test.histogram");
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 1010);
    }

    /// Regression test for the stale-cache bug: a `counter!`/`gauge!`
    /// call site primed against one global registry must follow a
    /// [`crate::Registry::install_global`] swap instead of recording
    /// into the displaced registry forever.
    #[test]
    fn macro_caches_follow_global_registry_swaps() {
        let _guard = crate::global_registry_test_lock();
        // Single call sites invoked across the swap, so each macro's
        // per-site static cache is primed on the old registry.
        let bump = |delta: u64| counter!("obs_lib_swap.counter", delta);
        let level = |value: f64| gauge!("obs_lib_swap.gauge", value);
        bump(1);
        level(1.0);
        let old = crate::Registry::global();
        let fresh = crate::Registry::replace_global();
        bump(5);
        level(2.5);
        assert_eq!(
            fresh.counter("obs_lib_swap.counter").get(),
            5,
            "cached counter handle kept recording into the old registry"
        );
        assert_eq!(
            fresh.gauge("obs_lib_swap.gauge").get(),
            2.5,
            "cached gauge handle kept recording into the old registry"
        );
        assert_eq!(old.counter("obs_lib_swap.counter").get(), 1);
        assert_eq!(old.gauge("obs_lib_swap.gauge").get(), 1.0);
        // Put the original registry back for the other tests.
        crate::Registry::install_global(old);
    }
}
