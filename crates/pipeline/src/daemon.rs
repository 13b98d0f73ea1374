//! The line-daemon shell shared by `read-store`, `read-worker` and
//! `read-serve`.
//!
//! All three daemons speak line-delimited text over TCP, one handler thread
//! per connection.  [`LineDaemon`] owns everything but the verbs: bind, the
//! accept loop, socket setup, the line read loop, a registry of live
//! connections and shutdown.  A daemon supplies a [`LineService`] that
//! answers one request line and says what the connection does next.
//!
//! Shutdown is bounded by in-flight work.  A request counts as in flight
//! from the moment its line is read until its reply is flushed (a worker's
//! whole plan session is one request).  Shutdown stops the acceptor and
//! closes every connection that sits between requests, so the drain waits
//! only for requests already running — never for an idle or dead peer.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::PipelineError;

/// How long a connection may stay silent between requests before its
/// handler drops it.  Shutdown does not wait for it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(120);

/// What a connection does after its [`LineService`] answered a line.
pub(crate) enum Flow {
    /// Read the next request line.
    Continue,
    /// Close this connection.
    Close,
    /// Close this connection and shut the daemon down.
    Shutdown,
}

/// One connection's buffered halves.  The shell flushes the writer after
/// every dispatched line.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: BufWriter<TcpStream>,
}

/// A daemon's verbs.
pub(crate) trait LineService: Sync {
    /// Answers one trimmed, non-empty request line.  A service that owns the
    /// rest of the stream (a worker's plan session) reads it from
    /// `conn.reader` before returning.
    fn dispatch(&self, line: &str, conn: &mut Conn) -> Flow;
}

/// The bound listener plus the registry of its live connections.
pub(crate) struct LineDaemon {
    listener: TcpListener,
    addr: SocketAddr,
    live: Mutex<Live>,
}

#[derive(Default)]
struct Live {
    closing: bool,
    next_id: u64,
    /// Every open connection: a handle for closing it, and whether a
    /// request is in flight on it.
    conns: HashMap<u64, (TcpStream, bool)>,
}

impl LineDaemon {
    /// Binds to `addr` (port 0 picks an ephemeral port).
    pub(crate) fn bind(addr: &str) -> Result<LineDaemon, PipelineError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| PipelineError::exec(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PipelineError::exec(format!("local_addr: {e}")))?;
        Ok(LineDaemon {
            listener,
            addr,
            live: Mutex::default(),
        })
    }

    /// The bound socket address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn live(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Serves connections until a service returns [`Flow::Shutdown`], then
    /// drains: idle connections are closed and the requests in flight
    /// finish before this returns.
    pub(crate) fn run(&self, service: &impl LineService) -> Result<(), PipelineError> {
        std::thread::scope(|scope| loop {
            let accepted = self.listener.accept();
            let mut live = self.live();
            if live.closing {
                // The wake-up connection (or a late client): drop it and
                // stop accepting; scope exit drains the handlers.
                return Ok(());
            }
            let stream = match accepted {
                Ok((stream, _)) => stream,
                Err(e) => {
                    drop(live);
                    self.shutdown();
                    return Err(PipelineError::exec(format!("accept: {e}")));
                }
            };
            let Ok(handle) = stream.try_clone() else {
                continue;
            };
            let id = live.next_id;
            live.next_id += 1;
            live.conns.insert(id, (handle, false));
            drop(live);
            scope.spawn(move || {
                self.serve(service, stream, id);
                self.live().conns.remove(&id);
            });
        })
    }

    fn serve(&self, service: &impl LineService, stream: TcpStream, id: u64) {
        let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match conn.reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let request = line.trim();
            if request.is_empty() {
                continue;
            }
            if !self.set_busy(id, true) {
                return;
            }
            let flow = service.dispatch(request, &mut conn);
            let flushed = conn.writer.flush().is_ok();
            match flow {
                Flow::Continue if flushed && self.set_busy(id, false) => {}
                Flow::Shutdown => return self.shutdown(),
                _ => return,
            }
        }
    }

    /// Marks connection `id` busy or idle.  Returns `false` once shutdown
    /// has begun: the connection must close instead of taking (or waiting
    /// for) another request.
    fn set_busy(&self, id: u64, busy: bool) -> bool {
        let mut live = self.live();
        if live.closing {
            return false;
        }
        if let Some(entry) = live.conns.get_mut(&id) {
            entry.1 = busy;
        }
        true
    }

    /// Stops the acceptor and closes every idle connection; busy ones close
    /// themselves when their request completes.
    fn shutdown(&self) {
        let mut live = self.live();
        live.closing = true;
        for (stream, busy) in live.conns.values() {
            if !busy {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        drop(live);
        // Wake the acceptor so it observes the flag (std has no
        // signal/select machinery; a self-connection is the portable nudge).
        let _ = TcpStream::connect(self.addr);
    }
}

/// A daemon running on a background thread: the in-process form used by
/// tests and examples.  [`crate::ServeHandle`], [`crate::WorkerHandle`] and
/// [`crate::StoreHandle`] name it per daemon.
pub struct DaemonHandle<D> {
    addr: SocketAddr,
    join: JoinHandle<Result<(), PipelineError>>,
    daemon: PhantomData<fn() -> D>,
}

impl<D> DaemonHandle<D> {
    /// Runs `run` on a new thread for the daemon bound to `addr`.
    pub(crate) fn spawn(
        addr: SocketAddr,
        run: impl FnOnce() -> Result<(), PipelineError> + Send + 'static,
    ) -> DaemonHandle<D> {
        DaemonHandle {
            addr,
            join: std::thread::spawn(run),
            daemon: PhantomData,
        }
    }

    /// The daemon's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit and returns its run result.  Send it
    /// `shutdown` first, or this blocks until the daemon stops on its own
    /// (a worker's injected death).
    ///
    /// # Errors
    ///
    /// Propagates the daemon's exit result (an `Err` for a worker's injected
    /// death, the in-process analog of a non-zero exit); a panicked daemon
    /// thread surfaces as [`PipelineError::Exec`].
    pub fn join(self) -> Result<(), PipelineError> {
        self.join
            .join()
            .map_err(|_| PipelineError::exec("daemon thread panicked"))?
    }
}
