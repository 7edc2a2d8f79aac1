//! `serve-steady`: the real `pagerankvm serve` daemon under steady load.
//!
//! The daemon runs with the coarse score book, `PMS` PMs, its default
//! `ServerConfig` and its store on disk. Its PVSB cache is written by
//! the daemon under test in an untimed preparation boot. `setup_s` is
//! the median of `SETUP_BOOTS` daemon starts, each against a reference
//! process start beside it. One TCP connection then fills the cluster to
//! `TARGET_VMS` residents (untimed), and:
//!
//! - the untraced run sends one request at a time, to the daemon and to
//!   the reference path (`crate::refpath`) in turn, for `--seconds`;
//!   `lat_p50_ms` and `ops_per_s` are the daemon's round trips relative
//!   to the reference path's, in ms and 1/s on a host where the
//!   reference round trip takes `REF_RTT_MS`;
//! - the traced run drives the loops its per-layer metrics come from:
//!   an open loop at `OPEN_RATE` requests/s for `OPEN_SHARE` of the run,
//!   latency from each request's due time to its reply, then a closed
//!   loop with `WINDOW` requests outstanding, pipelined through a
//!   receiver thread.
//!
//! Places and evictions hold residency near `TARGET_VMS`; migrations
//! and `stats` reads are mixed in. The request sequence is a pure
//! function of the seed, and no request of it fails (see [`Gen`]).
//! Afterwards every reply and the drained daemon's state are checked
//! against an in-process replay.

use crate::refpath::RefServer;
use crate::trace::Tracer;
use crate::util::{ms, us, Report, Rng, Samples};
use crate::Args;
use prvm_faults::StorageFile;
use prvm_model::Quantizer;
use prvm_serve::wire::{ErrorResp, EvictReq, MigrateReq, PlaceReq, StatsReq};
use prvm_serve::{
    Client, FrameDecoder, Journal, Op, Request, Response, ServeState, ServerConfig, Snapshot, Store,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// PMs in the daemon's cluster (`serve --pms`).
const PMS: usize = 64;
/// Residency the mix holds, about 28 active PMs of 64.
const TARGET_VMS: usize = 96;
/// Residency may wander this far from the target before the mix
/// forces a place or an eviction.
const BAND: usize = 12;
/// Offered rate of the open-loop phase, requests per second: about a
/// third of the daemon's capacity with one request outstanding. On a
/// shared host the sender itself can stall for tens of ms; at 750/s a
/// 40 ms stall backs up 30 requests, and it takes an 85 ms one to fill
/// the default admission queue (64).
const OPEN_RATE: f64 = 750.0;
/// Share of `--seconds` spent in the open loop; the closed loop gets
/// the rest.
const OPEN_SHARE: f64 = 0.6;
/// Requests kept outstanding in the closed-loop phase; below the
/// default admission queue capacity (64), so nothing is shed.
const WINDOW: usize = 16;
/// Latency limit of the open-loop phase: a failed request counts as a
/// miss against it.
const LIMIT_MS: f64 = 20.0;
/// Most requests outstanding in the open loop, below the default
/// admission queue capacity (64): a host stall delays requests but
/// never gets one shed.
const OPEN_CAP: usize = 48;
/// Deadline every request carries. The default (1 s) can expire behind
/// a host stall of a second; with this one such a stall makes requests
/// slow, not failed.
const DEADLINE_MS: u64 = 60_000;
/// Daemon boots timed for `setup_s`, each beside a reference process
/// start; the median ratio is reported.
const SETUP_BOOTS: usize = 21;
/// Untimed warm-up after the fill, in the pattern of the timed phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Requests per window of the open-loop tail: its p99 has ten samples
/// beyond it.
const TAIL_WINDOW: u64 = 1000;
/// How long to wait for outstanding replies after a phase.
const SETTLE: Duration = Duration::from_secs(10);

const VM_TYPES: &[&str] = &[
    "m3.medium",
    "m3.large",
    "m3.xlarge",
    "m3.2xlarge",
    "c3.large",
    "c3.xlarge",
];

/// The daemon's catalog: `pagerankvm serve --coarse --pms PMS`.
fn catalog() -> prvm_serve::CatalogSpec {
    prvm_serve::CatalogSpec::ec2(PMS).with_quantizer(Quantizer {
        core_slots: 2,
        mem_levels: 4,
        disk_levels: 2,
    })
}

// ---------------------------------------------------------------------
// The daemon process.
// ---------------------------------------------------------------------

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawn and wait for the first reply; returns the daemon, the
    /// seconds from spawn to its "listening" line (book loaded, store
    /// recovered, socket bound) and the seconds from spawn to the reply.
    fn boot(exe: &Path, store: &Path) -> Result<(Self, f64, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--store"])
            .arg(store)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--pms",
                &PMS.to_string(),
                "--coarse",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout missing".into());
        };
        let mut daemon = Self {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .split_whitespace()
            .nth(3)
            .filter(|_| line.starts_with("prvm-serve listening on "))
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        let listening = t.elapsed().as_secs_f64();
        let mut client =
            Client::connect(daemon.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        client.stats().map_err(|e| format!("first stats: {e}"))?;
        Ok((daemon, listening, t.elapsed().as_secs_f64()))
    }

    /// Drain over the wire and wait for a clean exit.
    fn drain(mut self) -> Result<(), String> {
        let mut client =
            Client::connect(self.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        client.drain().map_err(|e| format!("drain: {e}"))?;
        let start = Instant::now();
        while start.elapsed() < SETTLE {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
        Err("daemon did not exit after drain".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// The request sequence.
// ---------------------------------------------------------------------

/// Seeded request mix, generated against an in-process mirror of the
/// daemon's state. Every request it emits succeeds on the mirror, and
/// the daemon applies the connection's requests in the order sent, so
/// every request succeeds on the daemon too: a place with no room
/// becomes an eviction, a migration with no destination a `stats` read.
/// Targets are the mirror's VM ids, known without waiting for a reply,
/// and the sequence is a pure function of the seed.
struct Gen {
    rng: Rng,
    mirror: ServeState,
    /// VM ids the mix holds resident, oldest first.
    resident: Vec<u64>,
}

impl Gen {
    fn new(book: &Arc<pagerankvm::ScoreBook>, seed: u64) -> Result<Self, String> {
        Ok(Self {
            rng: Rng::new(seed),
            mirror: ServeState::recover_with_book(&catalog(), Arc::clone(book), None, &[])
                .map_err(|e| format!("mirror state: {e}"))?,
            resident: Vec::new(),
        })
    }

    fn commit(&mut self, op: &Op) -> Result<(), String> {
        self.mirror
            .commit(op)
            .map_err(|e| format!("mirror commit: {e}"))
    }

    /// The request with id `id`.
    fn next(&mut self, id: u64) -> Result<Request, String> {
        let deadline_ms = DEADLINE_MS;
        let n = self.resident.len();
        let roll = self.rng.below(100);
        let place = n + BAND < TARGET_VMS || n == 0 || (n <= TARGET_VMS + BAND && roll < 40);
        if place {
            let req = PlaceReq {
                id,
                deadline_ms,
                vm_type: VM_TYPES[self.rng.below(VM_TYPES.len())].to_string(),
            };
            if let Ok((op, resp)) = self.mirror.prepare_place(&req) {
                self.commit(&op)?;
                self.resident.push(resp.vm);
                return Ok(Request::Place(req));
            }
            if n == 0 {
                return Err(format!("no room for a {} in an empty cluster", req.vm_type));
            }
        }
        let slot = self.rng.below(n);
        let vm = self.resident[slot];
        if place || n > TARGET_VMS + BAND || roll < 80 {
            let req = EvictReq {
                id,
                deadline_ms,
                vm,
            };
            let (op, _) = self
                .mirror
                .prepare_evict(&req)
                .map_err(|e| format!("mirror evict: {e:?}"))?;
            self.commit(&op)?;
            self.resident.remove(slot);
            return Ok(Request::Evict(req));
        }
        if roll < 92 {
            let req = MigrateReq {
                id,
                deadline_ms,
                vm,
            };
            if let Ok((op, _)) = self.mirror.prepare_migrate(&req) {
                self.commit(&op)?;
                return Ok(Request::Migrate(req));
            }
        }
        Ok(Request::Stats(StatsReq { id, deadline_ms }))
    }
}

fn is_read(req: &Request) -> bool {
    matches!(req, Request::Stats(_))
}

// ---------------------------------------------------------------------
// The pipelined connection.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Open,
    Closed,
    Ping,
}

struct Pending {
    due: Instant,
    sent: Instant,
}

/// A request's reply.
struct Done {
    idx: usize,
    due: Instant,
    sent: Instant,
    end: Instant,
    resp: Response,
}

impl Done {
    fn ok(&self) -> bool {
        !matches!(
            self.resp,
            Response::Shed(_) | Response::Timeout(_) | Response::Error(_)
        )
    }
}

#[derive(Default)]
struct Flight {
    pending: HashMap<u64, Pending>,
    done: Vec<Done>,
    problems: Vec<String>,
    closed: bool,
}

struct Shared {
    flight: Mutex<Flight>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Flight> {
        self.flight.lock().expect("receiver thread panicked")
    }
}

/// Turn on `TCP_QUICKACK`: the next segments received are ACKed at
/// once instead of after the delayed-ACK timer. Linux clears it again
/// as the connection goes on, so the receiver re-arms it after every
/// read.
///
/// The daemon writes replies without `TCP_NODELAY`. Under Nagle's rule
/// a reply waits while an earlier one is unacknowledged, so without
/// quick ACKs an open-loop reply waits for the client's next request to
/// carry the ACK, and the latency reads about one inter-arrival gap
/// whatever the daemon's service time.
pub fn quickack(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the fd is a live socket owned by `stream`; `value` points
    // to an `i32` that outlives the call and `len` is its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Set the calling thread's timer slack to 1 ns. The open-loop sender
/// sleeps until each request is due; with the default slack of 50 µs
/// the kernel may wake it that much later, and the lateness sits inside
/// every open-loop latency.
fn tight_timers() -> std::io::Result<()> {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // changes only the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// What one read of the connection brought.
enum Pumped {
    Replies,
    /// The read timed out with nothing to read.
    Idle,
    /// The daemon closed the connection.
    Closed,
}

/// The reading half of the connection: decodes replies and records
/// them in arrival (= processing) order.
struct Inbox {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Inbox {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            decoder: FrameDecoder::new(),
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// One read; every whole reply in it is recorded in `shared`.
    fn pump(&mut self, shared: &Shared) -> Result<Pumped, String> {
        quickack(&self.stream).map_err(|e| format!("TCP_QUICKACK: {e}"))?;
        let n = match self.stream.read(&mut self.buf) {
            Ok(0) => return Ok(Pumped::Closed),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(Pumped::Idle)
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        let end = Instant::now();
        self.decoder.feed(&self.buf[..n]);
        let mut flight = shared.lock();
        loop {
            let resp = match self.decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => match Response::decode(&frame) {
                    Ok(r) => r,
                    Err(e) => {
                        flight.problems.push(format!("reply decode: {e}"));
                        continue;
                    }
                },
                Err(e) => {
                    flight.problems.push(format!("frame: {e}"));
                    break;
                }
            };
            let id = resp.id();
            let Some(p) = flight.pending.remove(&id) else {
                flight
                    .problems
                    .push(format!("reply id {id} matches no request"));
                continue;
            };
            flight.done.push(Done {
                idx: (id - 1) as usize,
                due: p.due,
                sent: p.sent,
                end,
                resp,
            });
        }
        drop(flight);
        shared.cv.notify_all();
        Ok(Pumped::Replies)
    }
}

/// Receiver thread of a threaded session.
fn receive(mut inbox: Inbox, shared: &Shared, stop: &AtomicBool) {
    loop {
        match inbox.pump(shared) {
            Ok(Pumped::Replies) => {}
            Ok(Pumped::Idle) if !stop.load(Ordering::SeqCst) => {}
            Ok(Pumped::Idle | Pumped::Closed) => break,
            Err(e) => {
                shared.lock().problems.push(e);
                break;
            }
        }
    }
    shared.lock().closed = true;
    shared.cv.notify_all();
}

/// One pipelined connection plus the request log.
struct Session {
    out: TcpStream,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    /// Threaded session: the receiver thread.
    receiver: Option<thread::JoinHandle<()>>,
    /// Single-thread session: the sender reads replies itself.
    inbox: Option<Inbox>,
    gen: Gen,
    requests: Vec<Request>,
    phases: Vec<Phase>,
    /// Open loop: send time minus due time, ms.
    late_ms: Samples,
    backlog_max: usize,
}

impl Session {
    /// Open the connection; the calling thread becomes the sender.
    /// `threaded` starts a receiver thread, which an open loop needs;
    /// without it the sender reads each reply itself when it waits,
    /// like the reference path's client, and no thread hand-off sits in
    /// the latencies.
    fn open(addr: &str, gen: Gen, threaded: bool) -> Result<Self, String> {
        tight_timers().map_err(|e| format!("PR_SET_TIMERSLACK: {e}"))?;
        let out = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        out.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let input = out.try_clone().map_err(|e| format!("clone: {e}"))?;
        input
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| format!("timeout: {e}"))?;
        let shared = Arc::new(Shared {
            flight: Mutex::new(Flight::default()),
            cv: Condvar::new(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let inbox = Inbox::new(input);
        let (receiver, inbox) = if threaded {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let handle = thread::Builder::new()
                .name("bench-receiver".into())
                .spawn(move || receive(inbox, &shared, &stop))
                .map_err(|e| format!("spawn receiver: {e}"))?;
            (Some(handle), None)
        } else {
            (None, Some(inbox))
        };
        Ok(Self {
            out,
            shared,
            stop,
            receiver,
            inbox,
            gen,
            requests: Vec::new(),
            phases: Vec::new(),
            late_ms: Samples::default(),
            backlog_max: 0,
        })
    }

    /// Register `req` as sent now, due at `due`, and send it.
    fn send(&mut self, req: Request, phase: Phase, due: Instant) -> Result<(), String> {
        let frame = req.encode().map_err(|e| format!("encode: {e}"))?;
        let id = req.id();
        self.requests.push(req);
        self.phases.push(phase);
        let sent = Instant::now();
        {
            let mut flight = self.shared.lock();
            flight.pending.insert(id, Pending { due, sent });
            self.backlog_max = self.backlog_max.max(flight.pending.len());
        }
        if phase == Phase::Open {
            self.late_ms.push(ms(sent.saturating_duration_since(due)));
        }
        self.out.write_all(&frame).map_err(|e| format!("send: {e}"))
    }

    /// Generate and send the next request of the mix.
    fn send_next(&mut self, phase: Phase, due: Instant) -> Result<(), String> {
        let req = self.gen.next(self.requests.len() as u64 + 1)?;
        self.send(req, phase, due)
    }

    /// Open loop: request k is due at `k / rate` after the start. At
    /// most `OPEN_CAP` requests are outstanding; a request held back by
    /// the cap is late, and its latency counts from its due time.
    fn open_loop(&mut self, phase: Phase, rate: f64, length: Duration) -> Result<usize, String> {
        let start = Instant::now();
        let mut k = 0u64;
        loop {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            if due >= start + length {
                break;
            }
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            self.wait_below(OPEN_CAP, SETTLE)?;
            self.send_next(phase, due)?;
            k += 1;
        }
        Ok(k as usize)
    }

    /// Closed loop: keep `window` requests outstanding for `length`, or
    /// until `count` requests have been sent.
    fn closed_loop(
        &mut self,
        phase: Phase,
        window: usize,
        length: Duration,
        count: usize,
    ) -> Result<(usize, Duration), String> {
        let start = Instant::now();
        let mut sent = 0;
        while start.elapsed() < length && sent < count {
            self.wait_below(window, SETTLE)?;
            self.send_next(phase, Instant::now())?;
            sent += 1;
        }
        self.settle()?;
        Ok((sent, start.elapsed()))
    }

    /// Wait until fewer than `window` requests are outstanding, for at
    /// most `limit`.
    fn wait_below(&mut self, window: usize, limit: Duration) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let flight = self.shared.lock();
            let waiting = flight.pending.len();
            if waiting < window {
                return Ok(());
            }
            if flight.closed {
                return Err("daemon closed the connection".into());
            }
            if start.elapsed() > limit {
                return Err(format!("{waiting} requests got no reply"));
            }
            match self.inbox.as_mut() {
                Some(inbox) => {
                    drop(flight);
                    match inbox.pump(&self.shared)? {
                        Pumped::Closed => self.shared.lock().closed = true,
                        Pumped::Replies | Pumped::Idle => {}
                    }
                }
                None => drop(
                    self.shared
                        .cv
                        .wait_timeout(flight, Duration::from_millis(5))
                        .expect("receiver thread panicked"),
                ),
            }
        }
    }

    /// Wait until every request has its reply.
    fn settle(&mut self) -> Result<(), String> {
        self.wait_below(1, SETTLE)
    }

    /// Send one request outside the mix and wait for its reply.
    fn call(&mut self, make: impl FnOnce(u64) -> Request) -> Result<Response, String> {
        let idx = self.requests.len();
        let req = make(idx as u64 + 1);
        self.send(req, Phase::Warmup, Instant::now())?;
        self.settle()?;
        let flight = self.shared.lock();
        flight
            .done
            .iter()
            .rev()
            .find(|d| d.idx == idx)
            .map(|d| d.resp.clone())
            .ok_or_else(|| "no reply recorded".to_string())
    }

    /// Close the connection; returns the request log, each request's
    /// phase and the final replies.
    fn finish(mut self) -> Result<(Vec<Request>, Vec<Phase>, Flight), String> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.out.shutdown(std::net::Shutdown::Write);
        if let Some(h) = self.receiver.take() {
            h.join().map_err(|_| "receiver thread panicked")?;
        }
        let flight = std::mem::take(&mut *self.shared.lock());
        Ok((
            std::mem::take(&mut self.requests),
            std::mem::take(&mut self.phases),
            flight,
        ))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.out.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.receiver.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// In-process replay.
// ---------------------------------------------------------------------

/// A journal file that counts `sync` calls.
struct Counting {
    file: std::fs::File,
    syncs: u64,
}

impl Read for Counting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.file.read(buf)
    }
}

impl Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for Counting {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

impl StorageFile for Counting {
    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs += 1;
        self.file.sync_all()
    }
    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
}

/// Durable half of the replay: journal + store, as the daemon's worker
/// uses them.
struct Disk {
    journal: Journal<Counting>,
    store: Store,
    version: u64,
    compact_every: u64,
}

impl Disk {
    fn open(dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(dir);
        let store = Store::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join("journal.wal"))
            .map_err(|e| format!("replay journal: {e}"))?;
        let (journal, _) = Journal::open(Counting { file, syncs: 0 })
            .map_err(|e| format!("replay journal: {e}"))?;
        Ok(Self {
            journal,
            store,
            version: 0,
            compact_every: ServerConfig::default().compact_every,
        })
    }
}

/// Replay the daemon's processing order in-process. Compares every
/// reply with the daemon's; with `disk`, also journals and compacts
/// like the daemon's worker, timing each layer under `tracer`.
/// Returns the final state and the replayed service time per request
/// index, µs.
fn replay(
    book: &Arc<pagerankvm::ScoreBook>,
    requests: &[Request],
    done: &[Done],
    mut disk: Option<&mut Disk>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(ServeState, HashMap<usize, f64>), String> {
    let mut state = ServeState::recover_with_book(&catalog(), Arc::clone(book), None, &[])
        .map_err(|e| format!("replay state: {e}"))?;
    let mut service = HashMap::new();
    let mut mismatches = 0usize;
    for d in done {
        if matches!(d.resp, Response::Shed(_) | Response::Timeout(_)) {
            continue;
        }
        let req = &requests[d.idx];
        let rid = d.idx as u64 + 1;
        let t = Instant::now();
        let top = tracer.begin("serve.request", rid);
        let prepared: Result<(Op, Response), ErrorResp> = match req {
            Request::Place(r) => tracer.span("state.prepare", rid, || {
                state
                    .prepare_place(r)
                    .map(|(op, resp)| (op, Response::Placed(resp)))
            }),
            Request::Evict(r) => tracer.span("state.prepare", rid, || {
                state
                    .prepare_evict(r)
                    .map(|(op, resp)| (op, Response::Evicted(resp)))
            }),
            Request::Migrate(r) => tracer.span("state.prepare", rid, || {
                state
                    .prepare_migrate(r)
                    .map(|(op, resp)| (op, Response::Migrated(resp)))
            }),
            Request::Stats(_) => {
                let stats = tracer.span("state.stats", rid, || state.state_stats());
                let same = matches!(&d.resp, Response::Stats(s) if s.state == stats);
                mismatches += usize::from(!same);
                tracer.end(top);
                service.insert(d.idx, us(t.elapsed()));
                continue;
            }
            other => return Err(format!("unexpected request in the log: {other:?}")),
        };
        let expected = match prepared {
            Ok((op, resp)) => {
                if let Some(disk) = disk.as_deref_mut() {
                    tracer
                        .span("journal.append", rid, || disk.journal.append(&op))
                        .map_err(|e| format!("replay append: {e}"))?;
                }
                tracer
                    .span("state.commit", rid, || state.commit(&op))
                    .map_err(|e| format!("replay commit: {e}"))?;
                if let Some(disk) = disk.as_deref_mut() {
                    if disk.journal.records() >= disk.compact_every {
                        let open = tracer.begin("store.compact", rid);
                        disk.version += 1;
                        let snap: Snapshot = state.snapshot(disk.version);
                        disk.store
                            .commit_snapshot(&snap)
                            .and_then(|()| disk.journal.reset())
                            .map_err(|e| format!("replay compaction: {e}"))?;
                        tracer.end(open);
                    }
                }
                resp
            }
            Err(e) => Response::Error(e),
        };
        tracer.end(top);
        service.insert(d.idx, us(t.elapsed()));
        let same = match (&expected, &d.resp) {
            (Response::Error(a), Response::Error(b)) => a.code == b.code,
            (a, b) => a == b,
        };
        mismatches += usize::from(!same);
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} daemon replies differ from the in-process replay")
    });
    Ok((state, service))
}

/// The state a fresh daemon would recover from `dir`.
fn recovered(book: &Arc<pagerankvm::ScoreBook>, dir: &Path) -> Result<ServeState, String> {
    let store = Store::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let snapshot = store
        .load_snapshot()
        .map_err(|e| format!("snapshot: {e}"))?;
    let (_, replay) = store.open_journal().map_err(|e| format!("journal: {e}"))?;
    ServeState::recover_with_book(&catalog(), Arc::clone(book), snapshot.as_ref(), &replay.ops)
        .map_err(|e| format!("recover: {e}"))
}

fn load_book(path: &Path) -> Result<Arc<pagerankvm::ScoreBook>, String> {
    let mut f = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    pagerankvm::ScoreBook::load(&mut f, catalog().hash())
        .map(Arc::new)
        .map_err(|e| format!("load {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

/// Seconds from spawning the benchmark's own binary in its
/// `--boot-probe` mode to its one line of output: the reference
/// process start beside each daemon boot.
fn boot_probe() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(&exe)
        .arg("--boot-probe")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out)
            .read_line(&mut line)
            .map_err(|e| e.to_string()),
        None => Err("boot probe stdout missing".to_string()),
    };
    let secs = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("boot probe: {e}"))?;
    read?;
    if !status.success() || line.trim() != "ready" {
        return Err(format!("boot probe: {status}, output {line:?}"));
    }
    Ok(secs)
}

fn fresh_store(root: &Path, name: &str, book: Option<&Path>) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Some(book) = book {
        std::fs::copy(book, dir.join("scores.pvsb")).map_err(|e| format!("copy book: {e}"))?;
    }
    Ok(dir)
}

/// The untraced run's phase: for `length`, one request at a time, the
/// daemon's and the reference path's in turn, so that each round trip
/// of the daemon has one of the reference path beside it, taken under
/// the same host conditions. Returns the reference path's round trips,
/// ms, in order. With `timed` false this is a warm-up.
fn paired(
    session: &mut Session,
    reference: &mut RefServer,
    timed: bool,
    length: Duration,
) -> Result<Vec<f64>, String> {
    let phase = if timed { Phase::Ping } else { Phase::Warmup };
    let mut ref_ping = Vec::new();
    let start = Instant::now();
    while start.elapsed() < length {
        session.closed_loop(phase, 1, length, 1)?;
        ref_ping.push(reference.ping()?);
    }
    Ok(ref_ping)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let exe = args
        .daemon
        .as_deref()
        .ok_or("serve-steady needs --daemon PATH (the pagerankvm binary)")?;
    let root = args
        .work
        .join(format!("serve-{}-{}", args.seed, std::process::id()));
    let result = run_in(args, exe, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn run_in(args: &Args, exe: &Path, root: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    // Preparation boot: the daemon under test writes its PVSB cache.
    let prep = fresh_store(root, "prep", None)?;
    Daemon::boot(exe, &prep)?.0.drain()?;
    let book_file = prep.join("scores.pvsb");
    let book = load_book(&book_file)?;

    // The daemon's listener polls `accept` every 20 ms, so the first
    // reply comes about 3 ms or about 23 ms after spawn, as the client's
    // connect races the listener's first poll. `setup_s` times the
    // start to the "listening" line, against a reference process start
    // beside each boot; the time to the first reply is a `#` line.
    let mut boots = Samples::default();
    let mut probes = Samples::default();
    let mut boot_ratio = Samples::default();
    let mut first_reply = Samples::default();
    let mut daemon = None;
    for i in 0..SETUP_BOOTS {
        if let Some((d, _)) = daemon.take() {
            Daemon::drain(d)?;
        }
        let store = fresh_store(root, &format!("store{i}"), Some(&book_file))?;
        let probe = boot_probe()?;
        let (d, listening, replied) = Daemon::boot(exe, &store)?;
        probes.push(probe);
        boot_ratio.push(listening / probe);
        boots.push(listening);
        first_reply.push(replied);
        daemon = Some((d, store));
    }
    let (daemon, store) = daemon.ok_or("no daemon booted")?;

    let mut session = Session::open(&daemon.addr, Gen::new(&book, args.seed)?, args.trace)?;
    // Warm-up: fill to the target residency.
    session.closed_loop(Phase::Warmup, WINDOW, SETTLE, TARGET_VMS)?;
    let total = Duration::from_secs_f64(args.seconds);
    let mut open_start = Instant::now();
    let mut late_ms = Samples::default();
    let mut backlog_max = 0;
    let mut closed_sent = 0;
    let paired = if args.trace {
        // The loops the per-layer metrics come from.
        session.open_loop(Phase::Warmup, OPEN_RATE, WARMUP)?;
        session.settle()?;
        session.late_ms = Samples::default();
        session.backlog_max = 0;
        open_start = Instant::now();
        session.open_loop(Phase::Open, OPEN_RATE, total.mul_f64(OPEN_SHARE))?;
        session.settle()?;
        late_ms = std::mem::take(&mut session.late_ms);
        backlog_max = session.backlog_max;
        closed_sent = session
            .closed_loop(
                Phase::Closed,
                WINDOW,
                total.mul_f64(1.0 - OPEN_SHARE),
                usize::MAX,
            )?
            .0;
        None
    } else {
        let refdir = root.join("reference");
        std::fs::create_dir_all(&refdir).map_err(|e| format!("{}: {e}", refdir.display()))?;
        let mut reference = RefServer::start(&refdir)?;
        paired(&mut session, &mut reference, false, WARMUP)?;
        let ref_ping = paired(&mut session, &mut reference, true, total)?;
        reference.finish()?;
        Some(ref_ping)
    };
    let final_stats = match session.call(|id| {
        Request::Stats(StatsReq {
            id,
            deadline_ms: DEADLINE_MS,
        })
    }) {
        Ok(Response::Stats(s)) => s,
        other => return Err(format!("final stats: {other:?}")),
    };
    let rss = crate::util::peak_rss_mb(Some(daemon.child.id()))?;
    let (requests, phases, flight) = session.finish()?;
    daemon.drain()?;

    for p in &flight.problems {
        report.check(false, || format!("connection: {p}"));
    }

    // Latencies, failures and residency per phase. The open-loop tail
    // is also given as a median over fixed windows of requests: a host
    // stall that hits one window moves it no more than any other.
    let mut open_windows: BTreeMap<u64, Samples> = BTreeMap::new();
    let mut open_lat = Samples::default();
    let mut read_lat = Samples::default();
    let mut write_lat = Samples::default();
    let mut ping_lat = Samples::default();
    let mut active = Samples::default();
    for d in &flight.done {
        let phase = phases[d.idx];
        if phase == Phase::Warmup {
            continue;
        }
        report.attempted += 1;
        report.failed += u64::from(!d.ok());
        if let Response::Stats(s) = &d.resp {
            active.push(s.state.active_pms as f64);
        }
        match phase {
            Phase::Open => {
                let lat = ms(d.end - d.due);
                let lat = if d.ok() { lat } else { lat.max(LIMIT_MS) };
                open_lat.push(lat);
                let k = ((d.due - open_start).as_secs_f64() * OPEN_RATE).round() as u64;
                open_windows.entry(k / TAIL_WINDOW).or_default().push(lat);
                if is_read(&requests[d.idx]) {
                    read_lat.push(lat);
                } else {
                    write_lat.push(lat);
                }
            }
            // Done records come in processing order, which is the
            // order sent: the k-th is the k-th of the pairs.
            Phase::Ping => ping_lat.push(ms(d.end - d.sent)),
            Phase::Warmup | Phase::Closed => {}
        }
    }
    let code_counts = flight.done.iter().fold(HashMap::new(), |mut m, d| {
        if let Response::Error(e) = &d.resp {
            *m.entry(format!("{:?}", e.code)).or_insert(0usize) += 1;
        }
        m
    });
    if !code_counts.is_empty() {
        report.info(format!("error replies by code: {code_counts:?}"));
    }
    // Correctness: replay, daemon's final digest, recovered digest.
    let mut off = Tracer::new(false);
    let (state, _) = replay(&book, &requests, &flight.done, None, &mut off, &mut report)?;
    let want = state.state_stats();
    report.check(final_stats.state == want, || {
        format!(
            "daemon state {:?} differs from the in-process replay {want:?}",
            final_stats.state
        )
    });
    // Recovery keeps every placement but not the "ever used" history.
    let back = recovered(&book, &store)?.state_stats();
    report.check(
        (
            back.digest.as_str(),
            back.vms,
            back.active_pms,
            back.next_vm_id,
        ) == (
            want.digest.as_str(),
            want.vms,
            want.active_pms,
            want.next_vm_id,
        ),
        || {
            format!(
                "state recovered from the drained store {back:?} differs from the replay {want:?}"
            )
        },
    );
    let mut ids: Vec<usize> = flight.done.iter().map(|d| d.idx).collect();
    ids.sort_unstable();
    ids.dedup();
    report.check(
        ids.len() == flight.done.len() && ids.len() == requests.len(),
        || {
            format!(
                "{} requests, {} final replies, {} distinct",
                requests.len(),
                flight.done.len(),
                ids.len()
            )
        },
    );

    if args.trace {
        let over_limit = open_lat.count_at_least(LIMIT_MS);
        {
            let mut l = open_lat.clone();
            let mut g = late_ms.clone();
            report.info(format!(
                "open-loop latency ms: p90 {:.3} p99 {:.3}; generator late p50 {:.3} p99 {:.3} ms; \
                 backlog max {backlog_max}",
                l.pct(0.9),
                l.pct(0.99),
                g.median(),
                g.pct(0.99)
            ));
        }
        report.info(format!(
            "open loop: {} requests at {OPEN_RATE}/s; closed loop: {closed_sent} sent, window {WINDOW}; \
             mean active PMs {:.1}; {over_limit} open-loop requests at or over the {LIMIT_MS} ms limit",
            open_lat.len(),
            active.mean()
        ));
        let dir = root.join("replay");
        // Untraced, then traced replay on the same disk: the overhead.
        let mut disk = Disk::open(&dir)?;
        let t = Instant::now();
        let mut scratch = Report::default();
        replay(
            &book,
            &requests,
            &flight.done,
            Some(&mut disk),
            &mut off,
            &mut scratch,
        )?;
        let untraced = t.elapsed();
        let mut disk = Disk::open(&dir)?;
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let (_, service) = replay(
            &book,
            &requests,
            &flight.done,
            Some(&mut disk),
            &mut tracer,
            &mut report,
        )?;
        let traced = t.elapsed();
        report.metric(
            "bench.trace_overhead_pct",
            (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
            "%",
            flight.done.len(),
        );
        let mut append = tracer.durations_us("journal.append");
        let appends = append.len();
        report.metric("journal.append_us.p50", append.median(), "us", appends);
        report.metric_p99("journal.append_us.p99", &mut append, "us");
        report.metric(
            "journal.fsyncs_per_op",
            disk.journal.into_file().syncs as f64 / appends.max(1) as f64,
            "count",
            appends,
        );
        let mut compact = tracer.durations_us("store.compact");
        report.metric(
            "store.compact_ms.p50",
            compact.median() / 1e3,
            "ms",
            compact.len(),
        );
        report.metric(
            "store.compactions",
            compact.len() as f64,
            "count",
            compact.len(),
        );
        let mut prepare = tracer.durations_us("state.prepare");
        report.metric(
            "state.prepare_us.p50",
            prepare.median(),
            "us",
            prepare.len(),
        );
        report.metric_p99("state.prepare_us.p99", &mut prepare, "us");
        let mut commit = tracer.durations_us("state.commit");
        report.metric("state.commit_us.p50", commit.median(), "us", commit.len());

        // Open-loop latency (due to final reply) = generator lateness
        // (due to send) + replayed service + wire, queue and transport,
        // the remainder of the round trip. A sum of medians is not the
        // median of the sums, hence the tolerance.
        let mut qt = Samples::default();
        let mut svc = Samples::default();
        let mut late = late_ms;
        for d in flight
            .done
            .iter()
            .filter(|d| phases[d.idx] == Phase::Open && d.ok())
        {
            let Some(&s) = service.get(&d.idx) else {
                continue;
            };
            qt.push(us(d.end - d.sent) - s);
            svc.push(s);
        }
        let n = qt.len();
        let qt50 = qt.median();
        report.metric("serve.queue_transport_us.p50", qt50, "us", n);
        report.metric_p99("serve.queue_transport_us.p99", &mut qt, "us");
        let client50 = open_lat.median() * 1e3;
        let late50 = late.median() * 1e3;
        let err = ((svc.median() + qt50 + late50) / client50 - 1.0) * 100.0;
        report.metric_note(
            "serve.reconcile_err_pct",
            err,
            "%",
            n,
            format!(
                "service p50 {:.1} us + queue/transport p50 {qt50:.1} us + generator late p50 \
                 {late50:.1} us vs open-loop p50 {client50:.1} us",
                svc.median()
            ),
        );
        report.check(err.abs() <= RECONCILE_TOLERANCE_PCT, || {
            format!("serve p50 decomposition off by {err:.1}% (> {RECONCILE_TOLERANCE_PCT}%)")
        });
        report.metric("serve.backlog_max", backlog_max as f64, "count", 1);
        let mut tails = Samples::default();
        for window in open_windows.values_mut() {
            if window.len() as u64 == TAIL_WINDOW {
                tails.push(window.pct(0.99));
            }
        }
        report.metric_p99("serve.lat_p99_ms", &mut open_lat, "ms");
        report.info(format!(
            "open loop: median of p99 over {} windows of {TAIL_WINDOW} requests {:.3} ms",
            tails.len(),
            tails.median()
        ));
        report.metric_p99("bench.gen_late_ms.p99", &mut late, "ms");
        report.metric(
            "serve.read.lat_p50_ms",
            read_lat.median(),
            "ms",
            read_lat.len(),
        );
        report.metric(
            "serve.write.lat_p50_ms",
            write_lat.median(),
            "ms",
            write_lat.len(),
        );
        report.metric_p99("serve.write.lat_p99_ms", &mut write_lat, "ms");
        report.metric("quality.pms_used", active.mean(), "PMs", active.len());
        let t = Instant::now();
        let mut bytes = Vec::new();
        book.save(&mut bytes, catalog().hash())
            .map_err(|e| format!("save: {e}"))?;
        report.metric("cache.save_ms", ms(t.elapsed()), "ms", 1);
        let t = Instant::now();
        let _ = pagerankvm::ScoreBook::load(&mut bytes.as_slice(), catalog().hash())
            .map_err(|e| format!("load: {e}"))?;
        report.metric("cache.load_ms", ms(t.elapsed()), "ms", 1);
        report.metric("bench.spans", tracer.len() as f64, "count", 1);
        let trace_path = args
            .work
            .join(format!("trace-serve-steady-{}.json", args.seed));
        tracer.write_chrome(&trace_path)?;
        report.info(format!("chrome trace: {}", trace_path.display()));
    } else {
        let paired = paired.ok_or("the untraced run has no paired phase")?;
        report.metric_note(
            "setup_s",
            REF_BOOT_S * boot_ratio.median(),
            "s",
            boot_ratio.len(),
            format!(
                "median of daemon/reference process starts; daemon p50 {:.4} s, reference \
                 p50 {:.4} s",
                boots.median(),
                probes.median()
            ),
        );
        report.info(format!(
            "daemon boot: spawn to first reply p50 {:.4} s",
            first_reply.median()
        ));
        // The k-th round trip of the daemon (done records come in the
        // order sent) and the k-th of the reference path form a pair.
        let mut ref_ping = Samples::default();
        let mut pair_ratio = Samples::default();
        for (&d, &r) in ping_lat.values().iter().zip(&paired) {
            ref_ping.push(r);
            pair_ratio.push(d / r);
        }
        let daemon_total: f64 = ping_lat.values().iter().sum();
        let ref_total: f64 = ref_ping.values().iter().sum();
        report.metric_note(
            "ops_per_s",
            1000.0 / REF_RTT_MS * ref_total / daemon_total,
            "1/s",
            ping_lat.len(),
            format!(
                "one outstanding, relative to the reference path; daemon {:.1}/s, reference \
                 path {:.1}/s",
                1000.0 * ping_lat.len() as f64 / daemon_total,
                1000.0 * ref_ping.len() as f64 / ref_total
            ),
        );
        report.metric_note(
            "lat_p50_ms",
            REF_RTT_MS * pair_ratio.median(),
            "ms",
            pair_ratio.len(),
            format!(
                "median of daemon/reference round trips; daemon p50 {:.4} ms, reference p50 \
                 {:.4} ms",
                ping_lat.median(),
                ref_ping.median()
            ),
        );
    }
    report.metric(
        "ok_pct",
        100.0 * (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
        "%",
        report.attempted as usize,
    );
    report.metric("peak_rss_mb", rss, "MiB", 1);
    Ok(report)
}

/// Start of the reference process (`--boot-probe`) on the reference
/// host, s. `setup_s` is the median ratio of the daemon's start (spawn
/// to its "listening" line) to the reference process start beside it,
/// times this.
const REF_BOOT_S: f64 = 0.0015;
/// Round trip of the reference path with one request outstanding on
/// the reference host, ms. `lat_p50_ms` is the median ratio of the
/// daemon's round trip to the reference path's, taken in turn, times
/// this: the daemon's median latency on a host where the reference path
/// takes this long. `ops_per_s` is the reference path's total round-trip
/// time over the daemon's, times `1000 / REF_RTT_MS`: the rate of one
/// client with one request outstanding on that host.
const REF_RTT_MS: f64 = 0.1;

/// Stated tolerance for the traced run's p50 decomposition.
const RECONCILE_TOLERANCE_PCT: f64 = 25.0;
