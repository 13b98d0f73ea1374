//! End-to-end tests of the multi-machine execution layer — the PR-8
//! acceptance criteria: a shared artifact-store daemon (`StoreServer`) plus
//! two fleet workers (`WorkerServer`) — one rigged to die mid-stream —
//! driven by a `SocketExecutor` must produce a `SweepReport` byte-identical
//! to `SerialExecutor`, with the lost unit retried on the survivor and the
//! death counted; a warm rerun against the shared `RemoteStore` then
//! executes zero fresh units.  Also covered: `FlakyExecutor` over the
//! socket transport (reorders aggregate byte-identically, losses fail
//! loudly) and bulk-request routing through a `read-serve` daemon with a
//! fleet configured.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use read_repro::prelude::*;

/// A unique, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("read-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep request every fleet test ships to its workers: 2 VGG-16
/// layers, baseline vs READ, ideal + stress corners, typical die + one
/// per-PE die, a sharded Monte-Carlo budget — 12 units.
fn fleet_request(network: &str) -> ServeRequest {
    let mut request = ServeRequest::sweep(network);
    request.pixels = 1;
    request.corners = vec![CornerSpec::ideal(), CornerSpec::aging_vt(10.0, 0.05)];
    request.dies = vec![5];
    request.mc = Some(McSpec {
        trials: 24,
        seed: 11,
        trials_per_shard: 7,
    });
    request
}

/// The driver-side mirror of [`fleet_request`]: the same experiment as a
/// local pipeline.  Must stay in sync with the request — same plan ⇒ same
/// unit encodings on the wire ⇒ same store keys as the workers'.
fn fleet_pipeline(
    request: &ServeRequest,
    store: Arc<dyn ArtifactStore>,
    executor: impl Executor + 'static,
) -> (ReadPipeline, Vec<LayerWorkload>) {
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
        .build()
        .unwrap();
    (pipeline, workloads)
}

// ---- the acceptance criterion -------------------------------------------

/// A fleet run with an injected mid-stream worker death produces a
/// `SweepReport` byte-identical to `SerialExecutor` — the lost unit is
/// retried on the survivor, the death and retry are observable in
/// `FleetStats`, and a warm rerun against the fleet's shared store
/// executes zero fresh units.
#[test]
fn fleet_with_mid_stream_worker_death_matches_serial_and_reruns_warm() {
    let dir = scratch_dir("death");
    let request = fleet_request("fleet-death");

    // Serial reference on a private in-memory store.
    let (reference_pipeline, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor);
    let reference = reference_pipeline
        .run_sweep(&request.network, &workloads)
        .unwrap()
        .to_json();

    // One shared store daemon; two workers attached to its namespace, one
    // rigged to serve a single unit and then drop its connection without
    // replying — a mid-stream crash as the driver sees it.
    let store = StoreServer::spawn("127.0.0.1:0", Arc::new(DiskStore::new(&dir).unwrap())).unwrap();
    let store_addr = store.addr().to_string();
    let worker_store =
        || -> Arc<dyn ArtifactStore> { Arc::new(RemoteStore::connect(&store_addr).unwrap()) };
    let healthy = WorkerServer::spawn(
        "127.0.0.1:0",
        WorkerConfig {
            store: Some(worker_store()),
            die_after_units: None,
        },
    )
    .unwrap();
    let flaky = WorkerServer::spawn(
        "127.0.0.1:0",
        WorkerConfig {
            store: Some(worker_store()),
            die_after_units: Some(1),
        },
    )
    .unwrap();

    // Drive the fleet through the socket executor.
    let executor = SocketExecutor::new(
        request.encode(),
        [healthy.addr().to_string(), flaky.addr().to_string()],
    )
    .liveness_timeout(Duration::from_secs(30));
    let stats = executor.stats();
    let (fleet_pipe, workloads) = fleet_pipeline(&request, worker_store(), executor);
    let distributed = fleet_pipe.run_sweep(&request.network, &workloads).unwrap();
    assert_eq!(
        distributed.to_json().into_bytes(),
        reference.clone().into_bytes(),
        "fleet bytes must match serial despite the mid-stream death"
    );
    assert!(
        stats.worker_deaths() >= 1,
        "the rigged worker must have died mid-stream"
    );
    assert!(
        stats.retried_units() >= 1,
        "the lost unit must have been retried on the survivor"
    );

    // Warm rerun: a fresh serial pipeline on the fleet's shared store is
    // pure aggregation — zero fresh schedules, histograms, or units.
    let (warm_pipeline, workloads) = fleet_pipeline(&request, worker_store(), SerialExecutor);
    let warm = warm_pipeline
        .run_sweep(&request.network, &workloads)
        .unwrap();
    assert_eq!(warm.to_json(), reference);
    let warm_stats = warm_pipeline.cache_stats();
    assert_eq!(warm_stats.misses, 0, "schedules came from the fleet store");
    assert_eq!(
        warm_stats.hist_misses, 0,
        "histograms came from the fleet store"
    );
    assert_eq!(
        warm_stats.unit_misses, 0,
        "no unit ran again after the fleet run"
    );

    // Teardown: the healthy worker drains clean; the rigged worker reports
    // its own death; the store daemon drains clean.
    WorkerServer::shutdown_at(&healthy.addr().to_string()).unwrap();
    healthy.join().unwrap();
    let death = flaky.join().unwrap_err();
    assert!(
        death.to_string().contains("died"),
        "the rigged worker must report its injected death: {death}"
    );
    let remote = RemoteStore::connect(&store_addr).unwrap();
    remote.shutdown_daemon().unwrap();
    store.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- flaky transport over the socket executor ----------------------------

/// `FlakyExecutor` over the socket transport, swept across dispatch
/// windows (lock-step, shallow, and deep pipelining): reordered results
/// still aggregate byte-identically to serial, while dropped results are
/// refused loudly — never a silently short report.
#[test]
fn flaky_socket_transport_reaggregates_or_fails_loudly() {
    let request = fleet_request("fleet-flaky");
    let worker = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();

    let (pipeline, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor);
    let reference = pipeline
        .run_sweep(&request.network, &workloads)
        .unwrap()
        .to_json();
    let plan = pipeline.plan_sweep(&request.network, &workloads).unwrap();

    for window in [1usize, 2, 8] {
        let shuffled = FlakyExecutor::new(
            SocketExecutor::new(request.encode(), [worker.addr().to_string()]).window(window),
            9,
        )
        .shuffle(true);
        let results = shuffled.execute(&plan, 0..plan.len()).unwrap();
        let report = plan.aggregate(results).unwrap().into_sweep().unwrap();
        assert_eq!(
            report.to_json(),
            reference,
            "window={window}: shuffled fleet results must reaggregate to the serial bytes"
        );

        // Dropping results over the same transport must fail loudly.
        let lossy = FlakyExecutor::new(
            SocketExecutor::new(request.encode(), [worker.addr().to_string()]).window(window),
            9,
        )
        .drop_per_mille(1000);
        let results = lossy.execute(&plan, 0..plan.len()).unwrap();
        assert!(
            lossy.dropped() > 0,
            "window={window}: the injection rate must drop something"
        );
        assert!(
            plan.aggregate(results).is_err(),
            "window={window}: lost results must be refused, not silently omitted"
        );
    }

    WorkerServer::shutdown_at(&worker.addr().to_string()).unwrap();
    worker.join().unwrap();
}

// ---- windowed dispatch ----------------------------------------------------

/// The window handshake is mandatory: a peer that answers `window=8` with
/// anything but `ok window=<m>` — here the `!unknown command` a worker
/// without windowed dispatch would send — is a failed connect.  With no
/// other worker the run fails loudly, naming the peer's reply, and no unit
/// is reported complete.
#[test]
fn a_peer_that_refuses_the_window_handshake_is_a_failed_connect() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut offer = String::new();
        BufReader::new(&stream).read_line(&mut offer).unwrap();
        (&stream).write_all(b"!unknown command\n").unwrap();
        offer
    });

    let request = fleet_request("fleet-refused-window");
    let executor = SocketExecutor::new(request.encode(), [addr]).window(8);
    let stats = executor.stats();
    let (pipeline, workloads) = fleet_pipeline(&request, Arc::new(MemoryStore::new()), executor);
    let err = pipeline
        .run_sweep(&request.network, &workloads)
        .expect_err("a refused handshake must fail the run")
        .to_string();

    assert_eq!(peer.join().unwrap(), "window=8\n");
    assert_eq!(stats.failed_connects(), 1);
    assert!(
        err.contains("!unknown command"),
        "the error must carry the peer's reply: {err}"
    );
    assert_eq!(stats.completed_units(), 0);
}

/// A TCP forwarder that holds each accepted connection for `delay` before
/// dialing `upstream` — it hands the other worker a deterministic head
/// start at claiming units, without touching the bytes.
fn slow_start_proxy(upstream: std::net::SocketAddr, delay: Duration) -> String {
    use std::net::{Shutdown, TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    return;
                };
                let mut up_rx = client.try_clone().unwrap();
                let mut up_tx = server.try_clone().unwrap();
                let pump = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut up_rx, &mut up_tx);
                    let _ = up_tx.shutdown(Shutdown::Write);
                });
                let (mut down_rx, mut down_tx) = (server, client);
                let _ = std::io::copy(&mut down_rx, &mut down_tx);
                let _ = down_tx.shutdown(Shutdown::Write);
                let _ = pump.join();
            });
        }
    });
    addr.to_string()
}

/// A worker that dies with a full window of unanswered units: every
/// in-flight unit must be requeued and completed on the survivor, the
/// recovery must be observable in the new `FleetStats` counters, and the
/// report must still be byte-identical to serial.
#[test]
fn worker_death_with_a_full_window_requeues_in_flight_units() {
    let request = fleet_request("fleet-window-death");
    let (reference_pipeline, workloads) =
        fleet_pipeline(&request, Arc::new(MemoryStore::new()), SerialExecutor);
    let reference = reference_pipeline
        .run_sweep(&request.network, &workloads)
        .unwrap()
        .to_json();

    // The rigged worker answers one unit, then drops its connection with
    // the rest of its window still unanswered.  The healthy worker sits
    // behind a slow-start proxy so the rigged one deterministically fills
    // its window before the survivor can drain the queue.
    let healthy = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
    let healthy_proxy = slow_start_proxy(healthy.addr(), Duration::from_secs(1));
    let flaky = WorkerServer::spawn(
        "127.0.0.1:0",
        WorkerConfig {
            store: None,
            die_after_units: Some(1),
        },
    )
    .unwrap();
    let executor = SocketExecutor::new(request.encode(), [healthy_proxy, flaky.addr().to_string()])
        .window(8)
        .liveness_timeout(Duration::from_secs(30));
    let stats = executor.stats();
    let (fleet_pipe, workloads) = fleet_pipeline(&request, Arc::new(MemoryStore::new()), executor);
    let distributed = fleet_pipe.run_sweep(&request.network, &workloads).unwrap();

    assert_eq!(
        distributed.to_json(),
        reference,
        "a full-window death must not change the report bytes"
    );
    assert!(
        stats.worker_deaths() >= 1,
        "the rigged worker must have died mid-stream"
    );
    assert!(
        stats.requeued_inflight() >= 2,
        "a windowed death must requeue the dead worker's whole in-flight \
         set, not just one lock-step unit (requeued: {})",
        stats.requeued_inflight()
    );
    assert!(
        stats.retried_units() >= stats.requeued_inflight(),
        "every requeued unit is a retry"
    );
    assert!(
        stats.inflight_peak() >= 2,
        "pipelined dispatch must have filled a window beyond lock-step \
         depth (peak: {})",
        stats.inflight_peak()
    );

    WorkerServer::shutdown_at(&healthy.addr().to_string()).unwrap();
    healthy.join().unwrap();
    assert!(
        flaky.join().is_err(),
        "the rigged worker must report its injected death"
    );
}

/// The `FleetStats` JSON layout is a pinned contract: keys in declaration
/// order, one per line, golden-pinned so downstream dashboards can parse
/// it without a JSON library.
#[test]
fn fleet_stats_json_layout_is_pinned() {
    assert_eq!(
        FleetStats::default().to_json(),
        include_str!("fixtures/fleet_stats.json"),
        "FleetStats::to_json layout drifted from tests/fixtures/fleet_stats.json"
    );
}

// ---- fleet routing through the serve daemon -------------------------------

/// A `read-serve` daemon with a fleet configured routes bulk requests to
/// its workers and answers byte-identically to a fleet-less daemon running
/// the same request locally.
#[test]
fn serve_daemon_routes_bulk_requests_to_its_fleet() {
    let worker = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
    let fleet_daemon = ServeServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            fleet: vec![worker.addr().to_string()],
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let local_daemon = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut request = fleet_request("fleet-serve");
    request.priority = Some(Priority::Bulk);

    let via_fleet = ServeClient::new(fleet_daemon.addr())
        .request(&request)
        .unwrap();
    let locally = ServeClient::new(local_daemon.addr())
        .request(&request)
        .unwrap();
    assert_eq!(
        via_fleet.report_json, locally.report_json,
        "fleet-routed and locally-run replies must be byte-identical"
    );

    ServeClient::new(fleet_daemon.addr()).shutdown().unwrap();
    ServeClient::new(local_daemon.addr()).shutdown().unwrap();
    fleet_daemon.join().unwrap();
    local_daemon.join().unwrap();
    WorkerServer::shutdown_at(&worker.addr().to_string()).unwrap();
    worker.join().unwrap();
}
