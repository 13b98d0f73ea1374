//! Daemon shutdown is bounded by in-flight work.  For each of `read-serve`,
//! `read-worker` and `read-store`, an idle client connection is closed at
//! shutdown and never stalls the drain; a request already running when
//! `shutdown` arrives still gets its full reply.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use read_repro::prelude::*;

/// How long a drain may take once `shutdown` is acknowledged.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

type Join = Box<dyn FnOnce() -> Result<(), PipelineError> + Send>;

/// A daemon under test: its name, how to spawn it in-process, and how to
/// ask it to shut down.
type DaemonCase = (&'static str, fn() -> (SocketAddr, Join), fn(SocketAddr));

const DAEMONS: [DaemonCase; 3] = [
    (
        "read-serve",
        || {
            let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
            (handle.addr(), Box::new(move || handle.join()))
        },
        |addr| ServeClient::new(addr).shutdown().unwrap(),
    ),
    (
        "read-worker",
        || {
            let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
            (handle.addr(), Box::new(move || handle.join()))
        },
        |addr| WorkerServer::shutdown_at(&addr.to_string()).unwrap(),
    ),
    (
        "read-store",
        || {
            let handle = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new())).unwrap();
            (handle.addr(), Box::new(move || handle.join()))
        },
        |addr| {
            RemoteStore::new(addr.to_string())
                .shutdown_daemon()
                .unwrap()
        },
    ),
];

/// Waits for `join` on a helper thread, failing the test if the daemon
/// has not exited within `bound`.
fn join_within(name: &str, join: Join, bound: Duration) {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(join());
    });
    match wait.recv_timeout(bound) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{name}: drain failed: {e}")),
        Err(_) => panic!("{name}: drain took longer than {bound:?}"),
    }
}

/// Opens a connection, proves the daemon serves it (every daemon answers
/// `ping` with `ok pong`), and leaves it idle.
fn open_idle(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(DRAIN_BOUND)).unwrap();
    let mut reader = BufReader::new(stream);
    std::io::Write::write_all(&mut reader.get_ref(), b"ping\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "ok pong");
    reader
}

/// Whether the daemon closed `idle`: the rest of its stream reads to EOF
/// instead of timing out.
fn closed_by_daemon(mut idle: BufReader<TcpStream>) -> bool {
    idle.read_to_end(&mut Vec::new()).is_ok()
}

#[test]
fn idle_connections_never_stall_a_drain() {
    for (name, spawn, shutdown) in DAEMONS {
        let (addr, join) = spawn();
        let idle = open_idle(addr);
        shutdown(addr);
        join_within(name, join, DRAIN_BOUND);
        assert!(closed_by_daemon(idle), "{name}: idle connection left open");
    }
}

/// An in-memory store whose first `load` blocks until released, so a test
/// can hold a request in flight.
struct GatedStore {
    inner: MemoryStore,
    entered: Mutex<Option<mpsc::Sender<()>>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl ArtifactStore for GatedStore {
    fn name(&self) -> String {
        "gated".to_string()
    }

    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        let entered = self.entered.lock().unwrap().take();
        if let Some(entered) = entered {
            entered.send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        self.inner.load(kind, key, check)
    }

    fn put(&self, kind: &str, key: u64, check: &str, payload: &str) {
        self.inner.put(kind, key, check, payload);
    }

    fn note_corrupt(&self, kind: &str, key: u64) {
        self.inner.note_corrupt(kind, key);
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn a_request_in_flight_at_shutdown_gets_its_full_reply() {
    let (entered, wait_entered) = mpsc::channel();
    let (release, wait_release) = mpsc::channel();
    let store = GatedStore {
        inner: MemoryStore::new(),
        entered: Mutex::new(Some(entered)),
        release: Mutex::new(wait_release),
    };
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            store: Some(Arc::new(store)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let idle = open_idle(addr);

    let mut request = ServeRequest::ter("drain-busy");
    request.layers = 1;
    request.pixels = 1;
    request.sources = vec![SourceSpec::Baseline];
    request.corners = vec![CornerSpec::ideal()];
    let in_flight = std::thread::spawn(move || ServeClient::new(addr).request(&request));
    wait_entered
        .recv_timeout(Duration::from_secs(60))
        .expect("the request reaches the store");

    // Shutdown is acknowledged and the idle connection closed while the
    // request is still held in the store.
    ServeClient::new(addr).shutdown().unwrap();
    assert!(closed_by_daemon(idle), "idle connection left open");

    release.send(()).unwrap();
    let reply = in_flight
        .join()
        .unwrap()
        .expect("the in-flight request gets its full reply");
    assert_eq!(reply.units, 1);
    assert!(reply.report_json.contains("drain-busy"));
    join_within("read-serve", Box::new(move || handle.join()), DRAIN_BOUND);
}
