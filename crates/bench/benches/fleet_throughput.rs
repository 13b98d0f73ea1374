//! Fleet dispatch throughput: units per second through a `SocketExecutor`
//! driving two in-process workers, with an injected per-message latency
//! shim between driver and fleet — the regime windowed dispatch exists
//! for.
//!
//! Same harness as `kernel_throughput`/`dataflow_throughput`: interleaved
//! A/B samples (minimum of repeated timed runs after warmup) with
//! byte-identical-result checks inside the measured pairs, and
//! `--json <path>` to write the committed `BENCH_<pr>.json`
//! perf-trajectory record.
//!
//! Topology: a `StoreServer` (shared artifact namespace) and two
//! `WorkerServer`s run in-process; every TCP hop — driver→worker and
//! worker→store — goes through a latency relay that delivers each wire
//! line a fixed delay after it was read.  The relay models *latency*, not
//! bandwidth: lines in flight overlap, so a pipelining peer can hide the
//! delay while a lock-step peer pays a full round trip per unit.
//!
//! * `window2_vs_lockstep` / `window8_vs_lockstep` — before =
//!   `SocketExecutor::window(1)` (lock-step dispatch: one unit in flight
//!   per worker, negotiated like any other window), after = the same
//!   fleet driven with 2 or 8 units in flight per worker.
//!   Workers are warm (the shared store memoizes unit artifacts and each
//!   connection prefetches them in `mget` batches), so the measured cost
//!   is dispatch, which is the point.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use read_core::SortCriterion;
use read_pipeline::{
    vgg16_workloads_prefix, Algorithm, ArtifactStore, CornerSpec, Executor, LayerWorkload, McSpec,
    MemoryStore, PipelineError, ReadPipeline, RemoteStore, SerialExecutor, ServeRequest,
    SocketExecutor, StoreServer, SweepPlan, WorkerConfig, WorkerServer, WorkloadConfig,
};

/// Injected one-way latency per wire line, each hop.  A lock-step driver
/// pays two of these per unit (request out, result back); a windowed
/// driver amortizes them across its in-flight window.
const LINE_DELAY: Duration = Duration::from_millis(6);

/// Times an A/B pair with interleaved samples, returning each side's best
/// observed seconds (see `kernel_throughput` for the rationale).
fn time_ab(runs: usize, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    before();
    after(); // warmup both sides (and the fleet's shared store)
    let mut best_before = f64::INFINITY;
    let mut best_after = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        before();
        best_before = best_before.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        after();
        best_after = best_after.min(start.elapsed().as_secs_f64());
    }
    (best_before, best_after)
}

/// One A/B measurement over `elems` work units per run.
struct Record {
    kernel: String,
    elems: u64,
    before_s: f64,
    after_s: f64,
}

impl Record {
    fn ns_per_elem(&self, seconds: f64) -> f64 {
        seconds * 1e9 / self.elems as f64
    }

    fn elems_per_sec(&self, seconds: f64) -> f64 {
        self.elems as f64 / seconds
    }

    fn speedup(&self) -> f64 {
        self.before_s / self.after_s
    }

    fn print(&self) {
        println!(
            "fleet {:<44} before {:>10.1} us/unit ({:.3e} units/s)  after {:>10.1} us/unit  speedup {:.2}x",
            self.kernel,
            self.ns_per_elem(self.before_s) / 1e3,
            self.elems_per_sec(self.before_s),
            self.ns_per_elem(self.after_s) / 1e3,
            self.speedup()
        );
    }
}

fn side_json(record: &Record, seconds: f64) -> String {
    format!(
        "{{ \"seconds\": {seconds:.9}, \"ns_per_elem\": {:.4}, \"elems_per_sec\": {:.4e} }}",
        record.ns_per_elem(seconds),
        record.elems_per_sec(seconds)
    )
}

fn to_json(records: &[Record]) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"elems\": {}, \"before\": {}, \"after\": {}, \"speedup\": {:.3} }}{}\n",
            r.kernel,
            r.elems,
            side_json(r, r.before_s),
            side_json(r, r.after_s),
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One direction of a latency relay: a reader thread stamps each incoming
/// line with its delivery deadline, a writer thread sleeps until the
/// deadline and forwards it.  Splitting read from write is what makes the
/// delay a *latency* — the reader keeps draining while earlier lines are
/// still waiting out their deadlines, so in-flight lines overlap.
fn relay(from: TcpStream, to: TcpStream, delay: Duration) {
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    thread::spawn(move || {
        let mut reader = BufReader::new(from);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if tx.send((Instant::now() + delay, line)).is_err() {
                        break;
                    }
                }
            }
        }
    });
    thread::spawn(move || {
        let mut to = to;
        for (deadline, line) in rx {
            let now = Instant::now();
            if deadline > now {
                thread::sleep(deadline - now);
            }
            if to
                .write_all(line.as_bytes())
                .and_then(|()| to.flush())
                .is_err()
            {
                break;
            }
        }
        // Propagate EOF so the peer's read loop terminates cleanly.
        let _ = to.shutdown(Shutdown::Write);
    });
}

/// Spawns a per-line latency relay in front of `upstream` and returns the
/// address to dial instead.
fn latency_proxy(upstream: SocketAddr, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(upstream) else {
                continue;
            };
            relay(
                client.try_clone().expect("clone client"),
                server.try_clone().expect("clone server"),
                delay,
            );
            relay(server, client, delay);
        }
    });
    addr
}

/// The benched experiment: the first VGG-16 layer only (27-row reduction —
/// units are cheap, so dispatch is the cost being measured, not compute),
/// baseline vs READ, three corners, typical, and a finely sharded
/// Monte-Carlo budget to produce a deep queue of small units.
fn fleet_request() -> ServeRequest {
    let mut request = ServeRequest::sweep("fleet-bench");
    request.layers = 1;
    request.pixels = 1;
    request.corners = vec![
        CornerSpec::ideal(),
        CornerSpec {
            aging_years: 0.0,
            vt_fluctuation: 0.05,
        },
        CornerSpec::aging_vt(10.0, 0.05),
    ];
    request.typical = true;
    request.mc = Some(McSpec {
        trials: 64,
        seed: 7,
        trials_per_shard: 2,
    });
    request
}

/// The driver-side pipeline for [`fleet_request`] (same plan ⇒ same unit
/// encodings ⇒ same store keys the workers use).
fn fleet_pipeline(
    request: &ServeRequest,
    store: Arc<dyn ArtifactStore>,
    executor: impl Executor + 'static,
) -> Result<(ReadPipeline, Vec<LayerWorkload>), PipelineError> {
    let config = WorkloadConfig {
        pixels_per_layer: request.pixels,
        seed: request.workload_seed,
        ..WorkloadConfig::default()
    };
    let workloads = vgg16_workloads_prefix(&config, request.layers);
    let mut plan = SweepPlan::new().conditions(request.corners.iter().map(CornerSpec::resolve));
    if request.typical {
        plan = plan.typical();
    }
    plan = plan.dies(request.dies.iter().copied());
    if let Some(mc) = &request.mc {
        plan = plan.monte_carlo(mc.trials, mc.seed);
        if mc.trials_per_shard > 0 {
            plan = plan.trials_per_shard(mc.trials_per_shard);
        }
    }
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .sweep(plan)
        .store_arc(store)
        .executor(executor)
        .build()?;
    Ok((pipeline, workloads))
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json_path = Some(argv.next().expect("--json requires a path")),
            "--bench" => {} // forwarded by `cargo bench`
            other => eprintln!("ignoring unknown argument: {other}"),
        }
    }

    let request = fleet_request();

    // The serial reference: same experiment, in-process, private store —
    // every fleet run below must reproduce these exact bytes.
    let (serial, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor)
            .expect("serial pipeline");
    let units = serial
        .plan_sweep(&request.network, &workloads)
        .expect("plan")
        .len();
    let reference = serial
        .run_sweep(&request.network, &workloads)
        .expect("serial sweep")
        .to_json();
    println!(
        "fleet bench: {units} units, {} byte reference report, {:?} per-line injected latency\n",
        reference.len(),
        LINE_DELAY
    );

    // The fleet: one store daemon and two workers in-process, every hop
    // behind a latency relay.
    let store = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()) as _)
        .expect("spawn store daemon");
    let store_proxy = latency_proxy(store.addr(), LINE_DELAY);
    let worker = |_: usize| {
        let config = WorkerConfig {
            store: Some(Arc::new(RemoteStore::new(store_proxy.to_string())) as _),
            die_after_units: None,
        };
        WorkerServer::spawn("127.0.0.1:0", config).expect("spawn worker")
    };
    let workers = [worker(0), worker(1)];
    let proxied: Vec<String> = workers
        .iter()
        .map(|w| latency_proxy(w.addr(), LINE_DELAY).to_string())
        .collect();

    let run_fleet = |window: usize| {
        let executor = SocketExecutor::new(request.encode(), proxied.iter().cloned())
            .window(window)
            .liveness_timeout(Duration::from_secs(60));
        let (fleet, workloads) = fleet_pipeline(&request, Arc::new(MemoryStore::new()), executor)
            .expect("fleet pipeline");
        let json = fleet
            .run_sweep(&request.network, &workloads)
            .expect("fleet sweep")
            .to_json();
        assert_eq!(json, reference, "fleet report must match the serial bytes");
    };

    let mut records = Vec::new();
    for (window, label) in [(2usize, "window2"), (8, "window8")] {
        let (before, after) = time_ab(5, || run_fleet(1), || run_fleet(window));
        records.push(Record {
            kernel: format!("fleet/{label}_vs_lockstep_{units}units_2workers"),
            elems: units as u64,
            before_s: before,
            after_s: after,
        });
    }

    // Drain the fleet: workers first (they hold store-client connections),
    // then the store daemon.
    for w in workers {
        WorkerServer::shutdown_at(&w.addr().to_string()).expect("worker shutdown");
        w.join().expect("worker drained");
    }
    store.client().shutdown_daemon().expect("store shutdown");
    store.join().expect("store drained");

    for r in &records {
        r.print();
    }
    if let Some(path) = &json_path {
        std::fs::write(path, to_json(&records)).expect("writable --json path");
        println!("wrote fleet records to {path}");
    }
}
