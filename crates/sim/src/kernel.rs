//! Deterministic discrete-event kernel: the virtual-time heart the
//! simulator runs on (DESIGN.md §14).
//!
//! Events are dispatched in a **total order**: ascending virtual time,
//! then ascending event class (a small per-kind priority so same-time
//! events of different kinds interleave predictably — e.g. a PM
//! recovery fires before the same scan's crash sweep), then ascending
//! schedule sequence number. The sequence number is assigned at
//! [`Kernel::schedule`] time, so two events of the same kind at the
//! same instant dispatch in the order they were scheduled. Nothing in
//! the kernel reads a wall clock or iterates a randomized container:
//! given the same initial schedule and deterministic handlers, the
//! event trace is bit-for-bit reproducible (the D001/D002 lint roots
//! cover [`Kernel::run`]).
//!
//! Handlers run on the caller's thread, one at a time. They must not
//! dispatch onto the worker pool, spawn threads, or block (lint rule
//! D005): a handler that parks the thread would stall virtual time for
//! every component. Wall-clock observation is the one exception —
//! when the timeline recorder is on, each dispatch is stamped with
//! [`prvm_obs::timeline::stamp`] (the sole sanctioned clock) and
//! recorded on a per-class `events/*` lane of the Chrome trace.

use prvm_model::units::convert;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something the kernel can schedule and dispatch.
pub trait Event {
    /// Same-time ordering class: lower classes dispatch first at equal
    /// virtual time. Keep classes dense and small (they index trace
    /// lanes).
    fn class(&self) -> u8;
    /// Stable short name, used for `sim.events.<label>` counters and
    /// the per-class trace lane.
    fn label(&self) -> &'static str;
}

/// A component driven by the kernel. `handle` receives the kernel so
/// it can schedule follow-up events; it must not block (D005).
pub trait EventHandler<E: Event> {
    /// React to one event at virtual time `now_s`.
    fn handle(&mut self, now_s: u64, event: E, kernel: &mut Kernel<E>);
}

/// One line of the event trace every kernel records: the dispatch order
/// proof the determinism proptests compare across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Virtual dispatch time, seconds.
    pub time_s: u64,
    /// Event class at dispatch.
    pub class: u8,
    /// Schedule sequence number (global, monotone).
    pub seq: u64,
    /// The event's label.
    pub label: &'static str,
}

/// Totals the kernel hands back when the queue drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Events scheduled over the run (including the initial schedule).
    pub scheduled: u64,
    /// Events dispatched to the handler.
    pub dispatched: u64,
    /// Largest queue length observed.
    pub peak_queue: usize,
    /// Virtual time of the last dispatched event, seconds.
    pub end_time_s: u64,
}

struct Scheduled<E> {
    time_s: u64,
    class: u8,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    /// Reversed (time, class, seq) so the max-heap pops the earliest
    /// event: the kernel's total order.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time_s, other.class, other.seq).cmp(&(self.time_s, self.class, self.seq))
    }
}

/// Chrome-trace lanes `EVENT_LANE_BASE + class` carry dispatched
/// events, far above the pool's `1..=workers` worker lanes.
const EVENT_LANE_BASE: u32 = 100;

/// The seeded, virtual-time event queue. Generic over the event type
/// so the compatibility scenario ([`crate::engine`]) and the
/// multi-scheduler scenario ([`crate::multi`]) each bring their own
/// typed events.
pub struct Kernel<E> {
    queue: BinaryHeap<Scheduled<E>>,
    now_s: u64,
    next_seq: u64,
    stats: KernelStats,
    /// `(label, dispatch count)` per event kind, in first-dispatch
    /// order; flushed to `sim.events.<label>` counters when the queue
    /// drains.
    per_label: Vec<(&'static str, u64)>,
    trace: Vec<EventRecord>,
}

impl<E: Event> Default for Kernel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event> Kernel<E> {
    /// An empty kernel at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: BinaryHeap::new(),
            now_s: 0,
            next_seq: 0,
            stats: KernelStats::default(),
            per_label: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Current virtual time, seconds. Monotone across dispatches.
    #[must_use]
    pub fn now_s(&self) -> u64 {
        self.now_s
    }

    /// Events waiting in the queue.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute virtual time `time_s`. Scheduling
    /// into the past is clamped to *now* (the event still dispatches,
    /// after everything already queued for the current instant with a
    /// lower class or earlier sequence number).
    pub fn schedule(&mut self, time_s: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.queue.push(Scheduled {
            time_s: time_s.max(self.now_s),
            class: event.class(),
            seq,
            event,
        });
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
    }

    /// Schedule `event` `delay_s` seconds after the current virtual
    /// time.
    pub fn schedule_in(&mut self, delay_s: u64, event: E) {
        self.schedule(self.now_s.saturating_add(delay_s), event);
    }

    /// Dispatch events in (time, class, seq) order until the queue is
    /// empty, then flush `sim.events.*` counters and return the run's
    /// totals. Handlers may keep scheduling; the queue must go quiet
    /// for the run to end, so every scenario needs a finite event
    /// horizon.
    pub fn run<H: EventHandler<E>>(&mut self, handler: &mut H) -> KernelStats {
        let profiled = prvm_obs::timeline::is_enabled();
        while let Some(next) = self.queue.pop() {
            debug_assert!(next.time_s >= self.now_s, "virtual time went backwards");
            self.now_s = next.time_s;
            self.stats.dispatched += 1;
            self.stats.end_time_s = next.time_s;
            let label = next.event.label();
            match self.per_label.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => self.per_label.push((label, 1)),
            }
            self.trace.push(EventRecord {
                time_s: next.time_s,
                class: next.class,
                seq: next.seq,
                label,
            });
            if profiled {
                // Observation only: the stamp never feeds back into
                // virtual time or handler state.
                let lane = EVENT_LANE_BASE + u32::from(next.class);
                prvm_obs::timeline::name_lane(lane, &format!("events/{label}"));
                let started = prvm_obs::timeline::stamp();
                handler.handle(next.time_s, next.event, self);
                let ended = prvm_obs::timeline::stamp();
                prvm_obs::timeline::record_on_lane(lane, label, Some(next.seq), started, ended);
            } else {
                handler.handle(next.time_s, next.event, self);
            }
        }
        self.flush_counters();
        self.stats
    }

    /// Every dispatch so far, one [`EventRecord`] each, in dispatch
    /// order; empties the buffer.
    pub fn take_trace(&mut self) -> Vec<EventRecord> {
        std::mem::take(&mut self.trace)
    }

    /// Totals so far (final after [`Kernel::run`] returns).
    #[must_use]
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    fn flush_counters(&mut self) {
        let registry = prvm_obs::Registry::global();
        registry
            .counter("sim.events.scheduled")
            .add(self.stats.scheduled);
        registry
            .counter("sim.events.dispatched")
            .add(self.stats.dispatched);
        registry
            .gauge("sim.events.peak_queue")
            .set(convert::usize_to_f64(self.stats.peak_queue));
        for (label, n) in self.per_label.drain(..) {
            registry.counter(&format!("sim.events.{label}")).add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tick(u8);

    impl Event for Tick {
        fn class(&self) -> u8 {
            self.0
        }
        fn label(&self) -> &'static str {
            "tick"
        }
    }

    #[derive(Default)]
    struct Collector {
        seen: Vec<(u64, u8, u64)>,
    }

    impl EventHandler<Tick> for Collector {
        fn handle(&mut self, now_s: u64, event: Tick, kernel: &mut Kernel<Tick>) {
            self.seen.push((now_s, event.0, kernel.stats().dispatched));
        }
    }

    #[test]
    fn dispatch_order_is_time_then_class_then_seq() {
        let mut kernel = Kernel::new();
        kernel.schedule(20, Tick(0));
        kernel.schedule(10, Tick(5));
        kernel.schedule(10, Tick(1));
        kernel.schedule(10, Tick(1));
        kernel.schedule(0, Tick(9));
        let mut collector = Collector::default();
        let stats = kernel.run(&mut collector);
        let order: Vec<(u64, u8)> = collector.seen.iter().map(|&(t, c, _)| (t, c)).collect();
        assert_eq!(order, vec![(0, 9), (10, 1), (10, 1), (10, 5), (20, 0)]);
        // Equal (time, class): schedule order (seq 2 before seq 3).
        let trace = kernel.take_trace();
        assert_eq!(trace[1].seq, 2);
        assert_eq!(trace[2].seq, 3);
        assert_eq!(stats.dispatched, 5);
        assert_eq!(stats.scheduled, 5);
        assert_eq!(stats.end_time_s, 20);
        assert_eq!(stats.peak_queue, 5);
    }

    struct Chainer {
        remaining: u32,
    }

    impl EventHandler<Tick> for Chainer {
        fn handle(&mut self, _now_s: u64, _event: Tick, kernel: &mut Kernel<Tick>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                kernel.schedule_in(7, Tick(0));
            }
        }
    }

    #[test]
    fn handlers_can_chain_schedules_and_time_advances() {
        let mut kernel = Kernel::new();
        kernel.schedule(0, Tick(0));
        let mut chainer = Chainer { remaining: 4 };
        let stats = kernel.run(&mut chainer);
        assert_eq!(stats.dispatched, 5);
        assert_eq!(stats.end_time_s, 28, "4 chained hops of 7 s");
        assert_eq!(kernel.now_s(), 28);
        assert_eq!(kernel.pending(), 0);
    }

    #[test]
    fn scheduling_into_the_past_clamps_to_now() {
        struct PastScheduler {
            fired: bool,
        }
        impl EventHandler<Tick> for PastScheduler {
            fn handle(&mut self, now_s: u64, event: Tick, kernel: &mut Kernel<Tick>) {
                if event.0 == 0 && !self.fired {
                    self.fired = true;
                    kernel.schedule(now_s.saturating_sub(100), Tick(1));
                }
            }
        }
        let mut kernel = Kernel::new();
        kernel.schedule(50, Tick(0));
        kernel.run(&mut PastScheduler { fired: false });
        let trace = kernel.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].time_s, 50, "clamped to the current instant");
    }

    #[test]
    fn same_seed_schedule_gives_identical_traces() {
        let build = || {
            let mut kernel = Kernel::new();
            for i in 0..32u64 {
                // A fixed pseudo-schedule: varied times and classes.
                kernel.schedule(i * 31 % 97, Tick((i % 7) as u8));
            }
            let mut collector = Collector::default();
            kernel.run(&mut collector);
            kernel.take_trace()
        };
        assert_eq!(build(), build());
    }
}
