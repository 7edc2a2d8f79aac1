//! The daemon: listener + per-connection readers + one state-owning
//! worker, glued by a bounded admission queue.
//!
//! **Threading model.** Readers parse frames and enqueue jobs; exactly
//! one worker owns the [`ServeState`] and the journal, so every
//! mutation is serialized without locks around placement logic. Replies
//! go back through a per-connection `Arc<Mutex<TcpStream>>`; frames are
//! written whole under the lock, so responses never interleave.
//!
//! **Backpressure.** The queue is bounded. When it is full the reader
//! replies immediately with a typed shed response carrying deterministic
//! capped-doubling backoff guidance ([`retry_backoff_ms`]) — a function
//! of the consecutive-shed streak, not of any clock or RNG — and keeps
//! the connection open. Nothing is ever silently dropped.
//!
//! **Deadlines.** Every request carries a deadline budget measured from
//! arrival. If the worker dequeues it too late, the client gets a typed
//! timeout reply instead of a stale mutation.
//!
//! **WAL discipline.** append → sync → apply → reply. A journal append
//! failure produces a typed error reply and the op is NOT applied, so
//! memory never runs ahead of disk.
//!
//! **Drain.** On SIGTERM (see [`ServerHandle::drain_on_signals`]), a
//! `drain` request, or [`ServerHandle::shutdown`]: stop accepting
//! connections, stop reading new requests, answer everything already
//! admitted, cut a final snapshot, and exit.

use crate::journal::{Journal, Replay, Store};
use crate::state::{CatalogSpec, ServeState, StateError};
use crate::wire::{
    DrainResp, ErrorCode, ErrorResp, FrameDecoder, ProcessStats, ProtocolError, Request, Response,
    ShedResp, SnapshotResp, StatsResp, TimeoutResp,
};
use prvm_obs::{counter, gauge, histogram};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission queue capacity; requests beyond it are shed (typed).
    pub queue_capacity: usize,
    /// Deadline applied when a request carries `deadline_ms == 0`.
    pub default_deadline_ms: u64,
    /// Journal records between automatic compactions.
    pub compact_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            default_deadline_ms: 1_000,
            compact_every: 256,
        }
    }
}

/// Deterministic capped-doubling backoff guidance for the `streak`-th
/// consecutive shed (1-based): 50 ms, 100 ms, … capped at 3200 ms.
/// A pure function — same congestion, same guidance, every run.
#[must_use]
pub fn retry_backoff_ms(streak: u64) -> u64 {
    let exp = streak.saturating_sub(1).min(6);
    50u64 << exp
}

/// Daemon start-up failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(io::Error),
    /// Journal or snapshot failure.
    Journal(crate::journal::JournalError),
    /// State recovery failure (catalog mismatch, corrupt store).
    State(StateError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serve I/O: {e}"),
            Self::Journal(e) => write!(f, "{e}"),
            Self::State(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<crate::journal::JournalError> for ServeError {
    fn from(e: crate::journal::JournalError) -> Self {
        Self::Journal(e)
    }
}

impl From<StateError> for ServeError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

/// One admitted request awaiting the worker.
struct Job {
    req: Request,
    received: Instant,
    out: Arc<Mutex<TcpStream>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shed_streak: u64,
}

/// State shared by listener, readers, and worker.
struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    /// Set when drain starts: listener stops accepting, readers stop
    /// reading, worker exits once the queue is empty.
    draining: AtomicBool,
    queue_capacity: usize,
    shed_total: AtomicU64,
    timeout_total: AtomicU64,
}

impl Shared {
    /// Admit a request or shed it. Returns the shed reply to send when
    /// the queue was full or the daemon is draining.
    fn admit(&self, job: Job) -> Option<Response> {
        if self.draining.load(Ordering::SeqCst) {
            return Some(Response::Error(ErrorResp {
                id: job.req.id(),
                code: ErrorCode::Draining,
                detail: "daemon is draining".to_string(),
                retry_after_ms: 0,
            }));
        }
        let mut q = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if q.jobs.len() >= self.queue_capacity {
            q.shed_streak += 1;
            let reply = Response::Shed(ShedResp {
                id: job.req.id(),
                queue_depth: q.jobs.len(),
                retry_after_ms: retry_backoff_ms(q.shed_streak),
            });
            drop(q);
            self.shed_total.fetch_add(1, Ordering::Relaxed);
            counter!("serve.shed");
            return Some(reply);
        }
        q.shed_streak = 0;
        q.jobs.push_back(job);
        gauge!("serve.queue_depth", q.jobs.len() as f64);
        drop(q);
        self.cv.notify_one();
        None
    }
}

/// Write one response frame to a connection. Failures are counted, not
/// fatal: the peer may have hung up, which is its right.
fn send(out: &Arc<Mutex<TcpStream>>, resp: &Response) {
    let Ok(bytes) = resp.encode() else {
        counter!("serve.reply_encode_failures");
        return;
    };
    let mut stream = out
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_err()
    {
        counter!("serve.reply_write_failures");
    }
}

/// The worker: sole owner of state + journal.
struct Worker {
    state: ServeState,
    journal: Journal<std::fs::File>,
    store: Store,
    config: ServerConfig,
    shared: Arc<Shared>,
    stats: ProcessStats,
    snapshot_version: u64,
}

impl Worker {
    fn run(mut self) -> ProcessStats {
        loop {
            let job = {
                let mut q = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        gauge!("serve.queue_depth", q.jobs.len() as f64);
                        break Some(job);
                    }
                    if self.shared.draining.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (guard, _) = self
                        .shared
                        .cv
                        .wait_timeout(q, Duration::from_millis(50))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    q = guard;
                }
            };
            let Some(job) = job else {
                // Draining and the queue is empty: final compaction, out.
                self.compact();
                break;
            };
            self.process(job);
        }
        self.stats.journal_records = self.journal.records();
        self.stats
    }

    fn process(&mut self, job: Job) {
        self.stats.requests += 1;
        counter!("serve.requests");
        let deadline_ms = match job.req.deadline_ms() {
            0 => self.config.default_deadline_ms,
            d => d,
        };
        let waited = job.received.elapsed();
        if waited > Duration::from_millis(deadline_ms) {
            self.shared.timeout_total.fetch_add(1, Ordering::Relaxed);
            self.stats.timeouts += 1;
            counter!("serve.timeouts");
            send(
                &job.out,
                &Response::Timeout(TimeoutResp {
                    id: job.req.id(),
                    deadline_ms,
                }),
            );
            return;
        }
        let started = Instant::now();
        let reply = self.dispatch(&job.req);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        histogram!("serve.request_latency_us", micros);
        if matches!(reply, Response::Error(_)) {
            self.stats.errors += 1;
            counter!("serve.errors");
        }
        gauge!("serve.vms_resident", self.state.cluster().vm_count() as f64);
        send(&job.out, &reply);
    }

    fn dispatch(&mut self, req: &Request) -> Response {
        match req {
            Request::Place(r) => match self.state.prepare_place(r) {
                Ok((op, reply)) => match self.apply(&op) {
                    Ok(()) => {
                        self.stats.placed += 1;
                        counter!("serve.placed");
                        Response::Placed(reply)
                    }
                    Err(resp) => resp_with_id(resp, r.id),
                },
                Err(e) => Response::Error(e),
            },
            Request::Evict(r) => match self.state.prepare_evict(r) {
                Ok((op, reply)) => match self.apply(&op) {
                    Ok(()) => {
                        self.stats.evicted += 1;
                        counter!("serve.evicted");
                        Response::Evicted(reply)
                    }
                    Err(resp) => resp_with_id(resp, r.id),
                },
                Err(e) => Response::Error(e),
            },
            Request::Migrate(r) => match self.state.prepare_migrate(r) {
                Ok((op, reply)) => match self.apply(&op) {
                    Ok(()) => {
                        self.stats.migrated += 1;
                        counter!("serve.migrated");
                        Response::Migrated(reply)
                    }
                    Err(resp) => resp_with_id(resp, r.id),
                },
                Err(e) => Response::Error(e),
            },
            Request::Stats(r) => {
                let mut process = self.stats;
                process.journal_records = self.journal.records();
                process.snapshot_version = self.snapshot_version;
                process.shed = self.shared.shed_total.load(Ordering::Relaxed);
                Response::Stats(StatsResp {
                    id: r.id,
                    state: self.state.state_stats(),
                    process,
                })
            }
            Request::Snapshot(r) => {
                self.compact();
                Response::Snapshotted(SnapshotResp {
                    id: r.id,
                    version: self.snapshot_version,
                })
            }
            Request::Drain(r) => {
                self.shared.draining.store(true, Ordering::SeqCst);
                Response::Draining(DrainResp { id: r.id })
            }
        }
    }

    /// Journal-then-commit. On journal failure the op is NOT applied
    /// and the caller replies with a typed journal error.
    ///
    /// The `Err` variant is the ready-to-send reply frame; it is built
    /// once per failure on a cold path, so its size is irrelevant.
    #[allow(clippy::result_large_err)]
    fn apply(&mut self, op: &crate::journal::Op) -> Result<(), Response> {
        if let Err(e) = self.journal.append(op) {
            return Err(Response::Error(ErrorResp {
                id: 0,
                code: ErrorCode::Journal,
                detail: e.to_string(),
                retry_after_ms: retry_backoff_ms(1),
            }));
        }
        self.stats.journal_appends += 1;
        counter!("serve.journal_appends");
        if let Err(e) = self.state.commit(op) {
            // Impossible on the live path (prepare validated against
            // this exact state); surface typed rather than panic.
            return Err(Response::Error(ErrorResp {
                id: 0,
                code: ErrorCode::InvalidRequest,
                detail: e.to_string(),
                retry_after_ms: 0,
            }));
        }
        if self.journal.records() >= self.config.compact_every {
            self.compact();
        }
        Ok(())
    }

    /// Cut a snapshot and truncate the journal. Failure is non-fatal:
    /// the journal stays authoritative and compaction retries later.
    fn compact(&mut self) {
        let next_version = self.snapshot_version + 1;
        let snap = self.state.snapshot(next_version);
        match self
            .store
            .commit_snapshot(&snap)
            .and_then(|()| self.journal.reset())
        {
            Ok(()) => {
                self.snapshot_version = next_version;
                self.stats.compactions += 1;
                self.stats.snapshot_version = next_version;
                counter!("serve.compactions");
            }
            Err(_) => {
                counter!("serve.compaction_failures");
            }
        }
    }
}

fn resp_with_id(resp: Response, id: u64) -> Response {
    match resp {
        Response::Error(mut e) => {
            e.id = id;
            Response::Error(e)
        }
        other => other,
    }
}

/// Per-connection reader: parse frames, admit jobs, answer protocol
/// violations with a typed reply, then close. Replies go out with
/// Nagle off, as the client's requests do: each is one small frame a
/// waiting client needs now.
fn reader_loop(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
    {
        return;
    }
    let out = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    }));
    let mut stream = stream;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if self_stopped(shared) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => match Request::decode(&frame) {
                    Ok(req) => {
                        let job = Job {
                            req,
                            received: Instant::now(),
                            out: Arc::clone(&out),
                        };
                        if let Some(reply) = shared.admit(job) {
                            send(&out, &reply);
                        }
                    }
                    Err(e) => {
                        protocol_reply(&out, &e);
                        return;
                    }
                },
                Err(e) => {
                    protocol_reply(&out, &e);
                    return;
                }
            }
        }
    }
}

fn self_stopped(shared: &Arc<Shared>) -> bool {
    shared.draining.load(Ordering::SeqCst)
}

fn protocol_reply(out: &Arc<Mutex<TcpStream>>, err: &ProtocolError) {
    counter!("serve.protocol_errors");
    send(
        out,
        &Response::Error(ErrorResp {
            id: 0,
            code: ErrorCode::Protocol,
            detail: err.to_string(),
            retry_after_ms: 0,
        }),
    );
}

/// A running daemon.
pub struct Server;

impl Server {
    /// Recover state from `store`, bind `addr`, and start serving.
    ///
    /// # Errors
    ///
    /// Propagates recovery and socket failures; a daemon that cannot
    /// recover its journal refuses to start rather than serving from
    /// partial state.
    pub fn start(
        catalog_spec: &CatalogSpec,
        store: Store,
        config: ServerConfig,
        addr: &str,
    ) -> Result<ServerHandle, ServeError> {
        let snapshot = store.load_snapshot()?;
        let (journal, replay): (Journal<std::fs::File>, Replay) = store.open_journal()?;
        // Cold-start fast path: a valid PVSB artifact skips the graph
        // build + PageRank entirely (observable via the
        // serve.book_cache.* counters); any invalid artifact falls back
        // to a full rebuild and is overwritten with a fresh one.
        let book = ServeState::load_or_build_book(catalog_spec, &store.book_path())?;
        let state =
            ServeState::recover_with_book(catalog_spec, book, snapshot.as_ref(), &replay.ops)?;
        if replay.truncated_bytes > 0 {
            counter!("serve.journal_truncated_bytes", replay.truncated_bytes);
        }
        let snapshot_version = snapshot.map_or(0, |s| s.version);
        gauge!("serve.vms_resident", state.cluster().vm_count() as f64);

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shed_streak: 0,
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            queue_capacity: config.queue_capacity.max(1),
            shed_total: AtomicU64::new(0),
            timeout_total: AtomicU64::new(0),
        });

        let worker = {
            let shared = Arc::clone(&shared);
            let worker = Worker {
                state,
                journal,
                store,
                config,
                shared,
                stats: ProcessStats {
                    snapshot_version,
                    ..ProcessStats::default()
                },
                snapshot_version,
            };
            thread::Builder::new()
                .name("prvm-serve-worker".to_string())
                .spawn(move || worker.run())?
        };

        let listener_thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("prvm-serve-listener".to_string())
                .spawn(move || {
                    let mut readers = Vec::new();
                    loop {
                        if shared.draining.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok((conn, _)) => {
                                let shared = Arc::clone(&shared);
                                if let Ok(handle) = thread::Builder::new()
                                    .name("prvm-serve-conn".to_string())
                                    .spawn(move || reader_loop(conn, &shared))
                                {
                                    readers.push(handle);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                thread::sleep(Duration::from_millis(20));
                            }
                            Err(_) => break,
                        }
                        readers.retain(|h| !h.is_finished());
                    }
                    for handle in readers {
                        let _ = handle.join();
                    }
                })?
        };

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            worker,
            listener: listener_thread,
        })
    }
}

/// Handle to a running daemon: its address plus drain/join controls.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    worker: thread::JoinHandle<ProcessStats>,
    listener: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain: stop accepting, answer what's admitted,
    /// snapshot, exit. Non-blocking; pair with [`ServerHandle::join`].
    pub fn initiate_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.cv_kick();
    }

    fn cv_kick(&self) {
        // Wake the worker if it is parked on an empty queue.
        self.shared.cv.notify_all();
    }

    /// True once a drain has been initiated (by signal, request, or
    /// [`ServerHandle::initiate_drain`]).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Wait for the daemon to finish draining; returns the final
    /// process counters. Call [`ServerHandle::initiate_drain`] first
    /// (or let a signal / drain request do it).
    #[must_use]
    pub fn join(self) -> ProcessStats {
        let stats = self.worker.join().unwrap_or_default();
        let _ = self.listener.join();
        stats
    }

    /// Drain now and wait: the one-call shutdown.
    #[must_use]
    pub fn shutdown(self) -> ProcessStats {
        self.initiate_drain();
        self.join()
    }

    /// Block until SIGTERM or SIGINT arrives, then drain and wait.
    /// This is the daemon's foreground main loop.
    ///
    /// # Errors
    ///
    /// Signal registration failures (non-Unix platforms).
    pub fn drain_on_signals(self) -> io::Result<ProcessStats> {
        let term = signal_hook::flag::register(signal_hook::consts::SIGTERM)?;
        let int = signal_hook::flag::register(signal_hook::consts::SIGINT)?;
        loop {
            if term.load(Ordering::SeqCst) || int.load(Ordering::SeqCst) || self.is_draining() {
                break;
            }
            thread::sleep(Duration::from_millis(100));
        }
        self.initiate_drain();
        Ok(self.join())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_doubling() {
        assert_eq!(retry_backoff_ms(1), 50);
        assert_eq!(retry_backoff_ms(2), 100);
        assert_eq!(retry_backoff_ms(3), 200);
        assert_eq!(retry_backoff_ms(7), 3200);
        assert_eq!(retry_backoff_ms(8), 3200, "capped");
        assert_eq!(retry_backoff_ms(10_000), 3200, "capped forever");
        assert_eq!(retry_backoff_ms(0), 50, "degenerate streak still guides");
    }
}
