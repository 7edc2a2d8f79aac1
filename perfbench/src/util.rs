//! Shared measurement helpers: seeded RNG, percentiles, memory and
//! host-speed probes, and the run report every workload fills in.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// `--seed` alone and never on the program's RNG stand-ins.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_f00d_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derive an independent seed for sub-stream `k` of `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A set of samples, kept in arrival order, with nearest-rank
/// percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: Option<Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = None;
    }

    /// The samples in arrival order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn count_at_least(&self, limit: f64) -> usize {
        self.values.iter().filter(|&&v| v >= limit).count()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
    pub fn pct(&mut self, q: f64) -> f64 {
        let values = &self.values;
        let sorted = self.sorted.get_or_insert_with(|| {
            let mut v = values.clone();
            v.sort_by(f64::total_cmp);
            v
        });
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.pct(0.5)
    }

    /// The highest of p99, p90 and p50 with at least ten samples beyond
    /// it, as `(quantile, value)`.
    pub fn tail(&mut self) -> (f64, f64) {
        let n = self.values.len() as f64;
        for q in [0.99, 0.9] {
            if n * (1.0 - q) >= 10.0 - 1e-9 {
                return (q, self.pct(q));
            }
        }
        (0.5, self.median())
    }

    /// Median, over consecutive windows of `window` samples in arrival
    /// order (whole windows only), of each window's p99, and the number
    /// of windows. With `window` at least 1000 every p99 has ten samples
    /// beyond it; a burst of host noise moves one window, not the median.
    pub fn windowed_p99(&self, window: usize) -> (f64, usize) {
        let mut p99s = Samples::default();
        for chunk in self.values.chunks_exact(window) {
            let mut w = Samples::default();
            chunk.iter().for_each(|&v| w.push(v));
            p99s.push(w.pct(0.99));
        }
        (p99s.median(), p99s.len())
    }
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`, ns).
/// Unlike wall time it leaves out the time the thread waits for a CPU,
/// which on a shared host includes the hypervisor's steal. With one
/// `prvm-par` worker every in-process layer runs on the calling thread.
/// (`/proc/thread-self/schedstat` would avoid the foreign call, but it
/// advances only at scheduler ticks, 4 ms here: coarser than one op.)
pub fn thread_cpu() -> Result<Duration, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec laid out as the C struct
    // on 64-bit Linux (two 64-bit fields), and `clock_gettime` writes
    // nothing but `*tp`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok();
    let nanos = u32::try_from(ts.tv_nsec).ok();
    match (rc, secs, nanos) {
        (0, Some(s), Some(n)) => Ok(Duration::new(s, n)),
        _ => Err(format!(
            "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed: {rc}"
        )),
    }
}

/// Wall and on-CPU time since `start`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Result<Self, String> {
        Ok(Self {
            wall: Instant::now(),
            cpu: thread_cpu()?,
        })
    }

    /// `(wall, cpu)` elapsed.
    pub fn read(&self) -> Result<(Duration, Duration), String> {
        let cpu = thread_cpu()?;
        Ok((self.wall.elapsed(), cpu.saturating_sub(self.cpu)))
    }
}

/// Peak resident set of a process in MiB (`VmHWM`), `pid` `None` for
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: bad VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// A fixed integer loop in the benchmark's own code: the host-speed
/// probe.
fn spin(iterations: u32) {
    let mut rng = Rng::new(1);
    let mut acc = 0u64;
    for _ in 0..iterations {
        acc = acc.rotate_left(7) ^ rng.next_u64();
    }
    std::hint::black_box(acc);
}

/// Host-speed probe: the probe loop, 20 M iterations, in wall ms. A
/// diagnostic for drift in host speed between runs, printed before and
/// after every run.
pub fn host_probe_ms() -> f64 {
    let start = Instant::now();
    spin(20_000_000);
    ms(start.elapsed())
}

/// Iterations of the integer half of the short probe behind [`Speed`].
const SPEED_ITERS: u32 = 2_000_000;
/// Slots of the ring the memory half of the short probe chases: 8 MiB,
/// more cache than the host gives one process, like the score books and
/// graphs the in-process layers read.
const CHASE_SLOTS: usize = 2 << 20;
/// Steps of the chase per probe.
const CHASE_STEPS: u32 = 10_000;
/// On-CPU ms of the short probe on the reference host (a 2-vCPU shared
/// VM at its fast state): ~1.5 ms for the integer half, ~1 ms for the
/// chase. [`Speed`] scales on-CPU times to a host on which the probe
/// takes this long.
pub const SPEED_REF_MS: f64 = 2.5;

/// A ring over `CHASE_SLOTS` slots in one random cycle (Sattolo's
/// shuffle), built once per process.
fn chase_ring() -> &'static [u32] {
    static RING: OnceLock<Vec<u32>> = OnceLock::new();
    RING.get_or_init(|| {
        let mut ring: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = Rng::new(2);
        for i in (1..CHASE_SLOTS).rev() {
            ring.swap(i, rng.below(i));
        }
        ring
    })
}

/// On-CPU ms of the short probe: the integer loop, then a dependent
/// walk of `CHASE_STEPS` slots of the ring, each step a cache miss.
fn speed_probe_ms() -> Result<f64, String> {
    let ring = chase_ring();
    let t = thread_cpu()?;
    spin(SPEED_ITERS);
    let mut slot = 0usize;
    for _ in 0..CHASE_STEPS {
        slot = ring[slot] as usize;
    }
    std::hint::black_box(slot);
    Ok(ms(thread_cpu()?.saturating_sub(t)))
}

/// Scales on-CPU times to the reference host speed.
///
/// The hosts this benchmark runs on are shared: the on-CPU time of the
/// same op has been seen to double within a minute and stay there, with
/// the probe slowing alike. A short probe (~2.5 ms) runs before and
/// after each measured group of ops (a one-second slice, a day, a
/// refresh cycle, a set-up); the group's on-CPU time times
/// `SPEED_REF_MS` over the mean of the two probes is what the group
/// would cost on the reference host. The probe is the benchmark's own
/// code, so a change in the program moves the scaled time as much as
/// the raw one. It has an integer half and a memory half because the
/// layers lean on both and the host slows them by different amounts:
/// over six or seven runs per workload, the spread of the six scaled
/// set-up and per-op times averaged 9.5 % with the integer loop alone,
/// 9.4 % with the chase alone and 7.1 % with both.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    last_ms: f64,
}

impl Speed {
    pub fn start() -> Result<Self, String> {
        Ok(Self {
            last_ms: speed_probe_ms()?,
        })
    }

    /// Probe again; returns the factor that scales on-CPU time spent
    /// since the previous probe to the reference host.
    pub fn scale(&mut self) -> Result<f64, String> {
        let now = speed_probe_ms()?;
        let factor = 2.0 * SPEED_REF_MS / (self.last_ms + now);
        self.last_ms = now;
        Ok(factor)
    }
}

/// One metric line of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    pub note: String,
}

/// What one workload invocation produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result (never in the JSON).
    pub info: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_note(name, value, unit, samples, String::new());
    }

    pub fn metric_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// A `.p99` metric: p99 when at least ten samples lie beyond it,
    /// else the highest percentile that has them, named in the note.
    pub fn metric_p99(&mut self, name: &str, samples: &mut Samples, unit: &'static str) {
        let (q, value) = samples.tail();
        let note = if q < 0.99 {
            format!("p{:.0}: too few samples for p99", q * 100.0)
        } else {
            String::new()
        };
        self.metric_note(name, value, unit, samples.len(), note);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Print the human-readable table, then the one-line JSON result
    /// restricted to `names` (the metrics the invoked mode promises).
    pub fn print(&self, names: &[&str]) -> Result<(), String> {
        for line in &self.info {
            println!("# {line}");
        }
        for v in &self.violations {
            println!("# CHECK FAILED: {v}");
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "# {:<34} {:>14.4} {:<6} n={}{note}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
        Ok(())
    }
}
