//! The reference request path of `serve-steady`: the daemon's request
//! shape with none of the program's work in it.
//!
//! A server thread pair in the benchmark's own code mirrors the
//! daemon's: a connection reader hands each 32-byte request through a
//! mutex-and-condvar queue to a worker, which appends 96 bytes to a
//! file on the same disk as the daemon's journal, syncs it and writes a
//! 32-byte reply. Loopback TCP, two thread wake-ups and one `fsync` per
//! request are what the host charges the daemon for besides the
//! program's own work, and they are what drifts most when the shared
//! host changes speed. serve-steady sends one request to the daemon and
//! one to the reference path in turn and reports the daemon's round
//! trips relative to the reference path's.

use crate::util::ms;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Bytes in a reference request and in its reply.
const FRAME: usize = 32;
/// Bytes appended to the reference journal per request: about one
/// journal record of the daemon.
const RECORD: usize = 96;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<[u8; FRAME]>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    cv: Condvar,
}

/// A running reference server: one connection, reader and worker.
pub struct RefServer {
    client: Option<TcpStream>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

impl RefServer {
    /// Start the server with its journal in `dir` and connect to it.
    pub fn start(dir: &Path) -> Result<Self, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reference bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("reference addr: {e}"))?;
        let client = TcpStream::connect(addr).map_err(|e| format!("reference connect: {e}"))?;
        client
            .set_nodelay(true)
            .map_err(|e| format!("reference nodelay: {e}"))?;
        let (conn, _) = listener
            .accept()
            .map_err(|e| format!("reference accept: {e}"))?;
        let reply = conn
            .try_clone()
            .map_err(|e| format!("reference clone: {e}"))?;
        let journal = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(dir.join("reference.wal"))
            .map_err(|e| format!("reference journal: {e}"))?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("bench-ref-reader".into())
                .spawn(move || read_requests(conn, &shared))
                .map_err(|e| format!("spawn reference reader: {e}"))?
        };
        let worker = thread::Builder::new()
            .name("bench-ref-worker".into())
            .spawn(move || serve_requests(journal, reply, &shared))
            .map_err(|e| format!("spawn reference worker: {e}"))?;
        Ok(Self {
            client: Some(client),
            threads: vec![reader, worker],
        })
    }

    /// One request with nothing else outstanding; its latency in ms.
    pub fn ping(&mut self) -> Result<f64, String> {
        let stream = self.client.as_mut().ok_or("reference client closed")?;
        let mut reply = [0u8; FRAME];
        let at = Instant::now();
        stream
            .write_all(&[7u8; FRAME])
            .map_err(|e| format!("reference send: {e}"))?;
        crate::serve_steady::quickack(stream)
            .map_err(|e| format!("reference TCP_QUICKACK: {e}"))?;
        stream
            .read_exact(&mut reply)
            .map_err(|e| format!("reference reply: {e}"))?;
        Ok(ms(at.elapsed()))
    }

    /// Close the connection and wait for both server threads.
    pub fn finish(mut self) -> Result<(), String> {
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        if let Some(client) = self.client.take() {
            let _ = client.shutdown(std::net::Shutdown::Both);
        }
        let mut result = Ok(());
        for handle in self.threads.drain(..) {
            let r = handle
                .join()
                .unwrap_or_else(|_| Err("reference thread panicked".into()));
            result = result.and(r);
        }
        result
    }
}

impl Drop for RefServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn read_requests(mut conn: TcpStream, shared: &Shared) -> Result<(), String> {
    let mut frame = [0u8; FRAME];
    let result = loop {
        match conn.read_exact(&mut frame) {
            Ok(()) => {
                shared
                    .queue
                    .lock()
                    .map_err(|_| "reference queue poisoned")?
                    .jobs
                    .push_back(frame);
                shared.cv.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break Ok(()),
            Err(e) => break Err(format!("reference read: {e}")),
        }
    };
    if let Ok(mut q) = shared.queue.lock() {
        q.closed = true;
    }
    shared.cv.notify_one();
    result
}

fn serve_requests(
    mut journal: std::fs::File,
    mut reply: TcpStream,
    shared: &Shared,
) -> Result<(), String> {
    let record = [1u8; RECORD];
    loop {
        let job = {
            let mut q = shared
                .queue
                .lock()
                .map_err(|_| "reference queue poisoned")?;
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return Ok(());
                }
                q = shared.cv.wait(q).map_err(|_| "reference queue poisoned")?;
            }
        };
        journal
            .write_all(&record)
            .and_then(|()| journal.sync_all())
            .map_err(|e| format!("reference journal: {e}"))?;
        // The peer may already have closed its end after its last reply.
        let _ = reply.write_all(&job);
    }
}
