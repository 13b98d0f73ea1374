//! `serve`: the three daemons in one process.  One `read-store` daemon
//! (`StoreServer` over a `MemoryStore`), two `read-worker` daemons (each
//! with a `RemoteStore` to it) and one `read-serve` daemon (2 slots, a
//! `RemoteStore`, both workers as its fleet), driven by two closed-loop
//! `ServeClient` threads.
//!
//! Each client sends a seeded stream: three interactive TER requests (two
//! VGG-16 layers, 2 pixels, baseline and READ) per bulk sweep (three layers,
//! 2 pixels, two corners, typical die plus one die, 16 Monte-Carlo trials),
//! which the daemon routes through its fleet.  Six requests in sixteen
//! repeat a workload seed the client sent before (the store read path);
//! the rest are fresh (the write path).  Compute is small, so the daemons,
//! the wire and the store dominate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use read_core::SortCriterion;
use read_pipeline::{
    vgg16_workloads_prefix, Algorithm, CacheStats, CornerSpec, LayerWorkload, McSpec, MemoryStore,
    NetworkReport, PipelineError, Priority, ReadPipeline, ReadPipelineBuilder, RemoteStore,
    RequestKind, ServeClient, ServeHandle, ServeRequest, ServeServer, ServerConfig, SocketExecutor,
    SourceSpec, StoreHandle, StoreServer, SweepPlan, WorkerConfig, WorkerHandle, WorkerServer,
    WorkloadConfig,
};

use crate::stats::{self, median, mix, tail_p90, timed};
use crate::trace::{self, Tracer, Unit};
use crate::{Args, Outcome};

/// Set-ups per run (spawn plus warm-up); `setup_s` is their median.
const SETUP_REPS: usize = 3;
const CLIENTS: u64 = 2;
const STORE_PROBES: u64 = 10;
/// The request cycle as `(bulk, repeat)`: three TER requests per bulk
/// sweep; 5 of the 12 TER requests and 1 of the 4 sweeps repeat an earlier
/// workload seed of their kind (every repeat has one to repeat).
///
/// The four classes answer at distinct latencies (TER repeat < sweep
/// repeat < TER fresh < sweep fresh), and the shares place the median
/// inside the fresh-TER class and the 90th percentile inside the
/// fresh-sweep class, 12.5 and 8.75 points from the nearer edge.  With
/// exactly half repeating, the median sat on the edge between the repeat
/// and the fresh classes and swung by a sixth between seeds.
const PATTERN: [(bool, bool); 16] = [
    (false, false),
    (false, false),
    (false, true),
    (true, false),
    (false, false),
    (false, true),
    (false, false),
    (true, false),
    (false, true),
    (false, false),
    (false, true),
    (true, true),
    (false, false),
    (false, true),
    (false, false),
    (true, false),
];

struct Topology {
    store: StoreHandle,
    workers: Vec<WorkerHandle>,
    serve: ServeHandle,
}

impl Topology {
    fn spawn() -> Result<Topology, PipelineError> {
        let store = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()))?;
        let store_addr = store.addr().to_string();
        let mut workers = Vec::new();
        for _ in 0..2 {
            workers.push(WorkerServer::spawn(
                "127.0.0.1:0",
                WorkerConfig {
                    store: Some(Arc::new(RemoteStore::connect(&store_addr)?)),
                    die_after_units: None,
                },
            )?);
        }
        let serve = ServeServer::spawn(
            "127.0.0.1:0",
            ServerConfig {
                slots: 2,
                store: Some(Arc::new(RemoteStore::connect(&store_addr)?)),
                fleet: workers.iter().map(|w| w.addr().to_string()).collect(),
                ..ServerConfig::default()
            },
        )?;
        serve.client().ping()?;
        Ok(Topology {
            store,
            workers,
            serve,
        })
    }

    fn store_addr(&self) -> String {
        self.store.addr().to_string()
    }

    fn worker_addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// Shuts the daemons down in an order that never leaves a store client
    /// connected while the store daemon drains: each store connection
    /// handler blocks in a long idle read, so an open client would stall
    /// the drain.  The serve daemon and the workers (which own the other
    /// `RemoteStore`s) go first; the store's own shutdown client is dropped
    /// before the join.
    fn shutdown(self) -> Result<(), PipelineError> {
        self.serve.client().shutdown()?;
        self.serve.join()?;
        for worker in &self.workers {
            WorkerServer::shutdown_at(&worker.addr().to_string())?;
        }
        for worker in self.workers {
            worker.join()?;
        }
        let client = RemoteStore::new(self.store.addr().to_string());
        client.shutdown_daemon()?;
        drop(client);
        self.store.join()
    }
}

/// Sends one TER request and one bulk sweep through a fresh topology, so
/// that every connection the window uses is open and every daemon has
/// served once before timing starts.  Their workload seed lies above the
/// range the clients' streams draw from (`< 2^24`), so the window never
/// reads what the warm-up stored.  Returns the two report JSONs.
fn warm_up(topology: &Topology, seed: u64) -> Result<Vec<String>, PipelineError> {
    let client = topology.serve.client();
    let workload_seed = (1 << 40) | (mix(seed, 20) >> 40);
    [false, true]
        .into_iter()
        .map(|bulk| Ok(client.request(&request(bulk, workload_seed))?.report_json))
        .collect()
}

/// A request of the stream, identified by kind and workload seed.
fn request(bulk: bool, workload_seed: u64) -> ServeRequest {
    if bulk {
        let mut r = ServeRequest::sweep("serve-bulk");
        r.layers = 3;
        r.pixels = 2;
        r.corners = vec![CornerSpec::ideal(), CornerSpec::aging_vt(10.0, 0.05)];
        r.dies = vec![3];
        r.mc = Some(McSpec {
            trials: 16,
            seed: 7,
            trials_per_shard: 0,
        });
        r.priority = Some(Priority::Bulk);
        r.workload_seed = workload_seed;
        r
    } else {
        let mut r = ServeRequest::ter("serve-ter");
        r.layers = 2;
        r.pixels = 2;
        r.workload_seed = workload_seed;
        r
    }
}

fn algorithm(source: SourceSpec) -> Algorithm {
    match source {
        SourceSpec::Baseline => Algorithm::Baseline,
        SourceSpec::Reorder => Algorithm::Reorder(SortCriterion::SignFirst),
        SourceSpec::Read => Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
    }
}

/// The in-process equivalent of a request: a `ReadPipeline` builder over
/// the same generated workloads, stages and corners, mirroring how the
/// daemon expands a request.
fn reference_builder(req: &ServeRequest) -> (ReadPipelineBuilder, Vec<LayerWorkload>) {
    let config = WorkloadConfig {
        pixels_per_layer: req.pixels,
        seed: req.workload_seed,
        ..WorkloadConfig::default()
    };
    let workloads = vgg16_workloads_prefix(&config, req.layers);
    let mut builder = ReadPipeline::builder();
    for source in &req.sources {
        builder = builder.source(algorithm(*source));
    }
    let conditions = req.corners.iter().map(CornerSpec::resolve);
    if req.kind == RequestKind::Sweep {
        let mut plan = SweepPlan::new().conditions(conditions);
        if req.typical {
            plan = plan.typical();
        }
        plan = plan.dies(req.dies.iter().copied());
        if let Some(mc) = &req.mc {
            plan = plan.monte_carlo(mc.trials, mc.seed);
            if mc.trials_per_shard > 0 {
                plan = plan.trials_per_shard(mc.trials_per_shard);
            }
        }
        builder = builder.sweep(plan);
    } else {
        builder = builder.conditions(conditions);
    }
    (builder, workloads)
}

/// Runs a request in process and returns its report JSON.
fn reference(req: &ServeRequest) -> Result<String, PipelineError> {
    let (builder, w) = reference_builder(req);
    let p = builder.build()?;
    Ok(match req.kind {
        RequestKind::Sweep => p.run_sweep(&req.network, &w)?.to_json(),
        _ => p.run_ter(&req.network, &w)?.to_json(),
    })
}

/// The TER request's workloads under all three paper schedules, in
/// process: the served requests compare two schedules, the fidelity gaps
/// need the third.
fn fidelity_report(req: &ServeRequest) -> Result<NetworkReport, PipelineError> {
    let mut paper = req.clone();
    paper.sources = vec![SourceSpec::Baseline, SourceSpec::Reorder, SourceSpec::Read];
    let (builder, w) = reference_builder(&paper);
    builder.build()?.run_ter(&paper.network, &w)
}

/// One completed (or failed) request as the client saw it.
struct Sample {
    bulk: bool,
    repeat: bool,
    workload_seed: u64,
    client_ms: f64,
    reply: Result<Reply, String>,
}

/// What the client keeps of a reply: report JSON, server latency (ms),
/// admission class, unit count and the request's cache counters.
struct Reply {
    json: String,
    server_ms: f64,
    priority: Priority,
    units: usize,
    stats: CacheStats,
}

/// A client's closed loop: send, wait for the reply, send the next, until
/// `deadline`.
fn client_loop(
    tr: &Tracer,
    client: &ServeClient,
    seed: u64,
    id: u64,
    deadline: Instant,
) -> Vec<Sample> {
    let mut rng = mix(seed, 10 + id);
    let mut next = || {
        rng = mix(rng, 1);
        rng
    };
    let mut seen: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut samples = Vec::new();
    let mut k = 0u64;
    while Instant::now() < deadline {
        // A fixed cycle, so the mix (and with it the latency
        // distribution) does not drift with the seed.  Which seeds are
        // fresh, and which earlier one repeats, the seed decides.
        let (bulk, repeat) = PATTERN[(k % PATTERN.len() as u64) as usize];
        let history = &mut seen[usize::from(bulk)];
        let workload_seed = if repeat {
            history[(next() % history.len() as u64) as usize]
        } else {
            let fresh = next() >> 40;
            history.push(fresh);
            fresh
        };
        let req = request(bulk, workload_seed);
        let label = format!("{}/{workload_seed}", if bulk { "bulk" } else { "ter" });
        let (reply, secs) = timed(|| {
            tr.span(
                "serve.request",
                Unit::new(&label, id * 1_000_000 + k),
                None,
                |_| client.request(&req),
            )
        });
        samples.push(Sample {
            bulk,
            repeat,
            workload_seed,
            client_ms: secs * 1e3,
            reply: reply
                .map(|r| Reply {
                    json: r.report_json,
                    server_ms: r.latency.as_secs_f64() * 1e3,
                    priority: r.priority,
                    units: r.units,
                    stats: r.stats,
                })
                .map_err(|e| e.to_string()),
        });
        k += 1;
    }
    samples
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tr = Tracer::new(args.trace);

    // Set-up: daemon spawn plus warm-up, measured several times; the last
    // topology stays.  Every warm-up must answer, byte-identically across
    // the set-ups (each starts from an empty store).
    let mut setup = Vec::new();
    let mut topology = None;
    let mut warm_replies: Option<Vec<String>> = None;
    for rep in 0..SETUP_REPS {
        let (spawned, secs) = timed(|| {
            Topology::spawn().map(|t| {
                let warmed = warm_up(&t, args.seed);
                (t, warmed)
            })
        });
        setup.push(secs);
        let (t, warmed) = match spawned {
            Ok(spawned) => spawned,
            Err(e) => {
                out.check(false, || format!("serve set-up failed: {e}"));
                continue;
            }
        };
        match warmed {
            Ok(replies) => {
                let same = warm_replies.get_or_insert_with(|| replies.clone()) == &replies;
                out.check(same, || {
                    "a warm-up reply differs from the first set-up's".into()
                });
            }
            Err(e) => out.check(false, || format!("serve warm-up failed: {e}")),
        }
        if rep + 1 == SETUP_REPS {
            topology = Some(t);
        } else if let Err(e) = t.shutdown() {
            out.check(false, || format!("serve teardown failed: {e}"));
        }
    }
    let Some(topology) = topology else {
        return out;
    };

    // Measured window: two closed-loop clients.
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let client = topology.serve.client();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (tr, client) = (&tr, &client);
                s.spawn(move || client_loop(tr, client, args.seed, id, deadline))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    // Output checks: every repeat byte-identical to its first reply, and
    // every distinct request against an in-process run (computed on the
    // two cores, after the window).
    let mut first: BTreeMap<(bool, u64), String> = BTreeMap::new();
    for sample in &samples {
        let json = match &sample.reply {
            Ok(reply) => &reply.json,
            Err(e) => {
                out.check(false, || format!("request failed: {e}"));
                continue;
            }
        };
        let key = (sample.bulk, sample.workload_seed);
        match first.get(&key) {
            Some(earlier) => out.check(earlier == json, || {
                format!("repeat of {key:?} is not byte-identical")
            }),
            None => {
                first.insert(key, json.clone());
            }
        }
    }
    let distinct: Vec<(&(bool, u64), &String)> = first.iter().collect();
    let references: Vec<_> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                let distinct = &distinct;
                s.spawn(move || {
                    distinct
                        .iter()
                        .skip(half)
                        .step_by(2)
                        .map(|((bulk, seed), _)| {
                            let req = request(*bulk, *seed);
                            (reference(&req), (!bulk).then(|| fidelity_report(&req)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut halves: Vec<_> = halves
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked").into_iter())
            .collect();
        (0..distinct.len())
            .map_while(|i| halves[i % 2].next())
            .collect()
    });
    let mut ter_reports = Vec::new();
    for ((key, json), (expected, fidelity)) in distinct.iter().zip(references) {
        match expected {
            Ok(expected) => out.check(&&expected == json, || {
                format!("reply to {key:?} differs from the in-process run")
            }),
            Err(e) => out.check(false, || format!("reference run for {key:?} failed: {e}")),
        }
        match fidelity {
            Some(Ok(report)) => ter_reports.push(report),
            Some(Err(e)) => out.check(false, || format!("fidelity run for {key:?} failed: {e}")),
            None => {}
        }
    }

    let ok: Vec<&Sample> = samples.iter().filter(|s| s.reply.is_ok()).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.client_ms).collect();
    let repeats = samples.len() - first.len();
    for (bulk, repeat) in [(false, false), (false, true), (true, false), (true, true)] {
        let class: Vec<f64> = ok
            .iter()
            .filter(|s| s.bulk == bulk && s.repeat == repeat)
            .map(|s| s.client_ms)
            .collect();
        println!(
            "  {} {}: {} requests, p50 {:.1} ms",
            if bulk { "bulk" } else { "ter " },
            if repeat { "repeat" } else { "fresh " },
            class.len(),
            median(&class)
        );
    }
    println!(
        "serve: {} requests in {wall:.3} s from {CLIENTS} closed-loop clients ({} bulk, {} distinct, \
         {repeats} repeats); {} latency samples, {} beyond p90; available parallelism {}",
        samples.len(),
        samples.iter().filter(|s| s.bulk).count(),
        first.len(),
        latencies.len(),
        latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut fidelity = stats::Fidelity::default();
    for report in &ter_reports {
        fidelity.add(&report.rows);
    }
    fidelity.print("serve, distinct TER requests");

    if !args.trace {
        if let Err(e) = topology.shutdown() {
            out.check(false, || format!("serve teardown failed: {e}"));
        }
        out.metric("setup_s", median(&setup), "s");
        out.metric("wall_s", wall, "s");
        stats::print_memory();
        fidelity.record(&mut out);
        out.metric("req_per_s", ok.len() as f64 / wall, "1/s");
        out.metric("latency_p50_ms", median(&latencies), "ms");
        out.metric("latency_p90_ms", tail_p90(&latencies), "ms");
        return out;
    }

    let mut v = BTreeMap::new();
    let replies: Vec<&Reply> = samples
        .iter()
        .filter_map(|s| s.reply.as_ref().ok())
        .collect();
    let server: Vec<f64> = replies.iter().map(|r| r.server_ms).collect();
    let wire: Vec<f64> = ok
        .iter()
        .zip(&replies)
        .map(|(s, r)| s.client_ms - r.server_ms)
        .collect();
    let by_priority = |p: Priority| -> Vec<f64> {
        ok.iter()
            .zip(&replies)
            .filter(|(_, r)| r.priority == p)
            .map(|(s, _)| s.client_ms)
            .collect()
    };
    v.insert("serve.server_ms_p50", median(&server));
    v.insert("serve.wire_ms_p50", median(&wire));
    v.insert(
        "serve.interactive_ms_p50",
        median(&by_priority(Priority::Interactive)),
    );
    v.insert("serve.bulk_ms_p50", median(&by_priority(Priority::Bulk)));
    // Cache ratios are shares of lookups not computed fresh.  A histogram
    // lookup is one per unit of an interactive TER request (bulk units run
    // on the workers); only a fresh histogram looks its schedule up.
    let local: Vec<&&Reply> = replies
        .iter()
        .filter(|r| r.priority == Priority::Interactive)
        .collect();
    let sum = |f: fn(&Reply) -> u64| local.iter().map(|r| f(r)).sum::<u64>() as f64;
    let hist_lookups = sum(|r| r.units as u64);
    let hist_fresh = sum(|r| r.stats.hist_misses);
    v.insert(
        "serve.inflight_hits",
        replies.iter().map(|r| r.stats.inflight_hits).sum::<u64>() as f64,
    );
    v.insert(
        "cache.hist_hit_ratio",
        stats::ratio(hist_lookups - hist_fresh, hist_lookups),
    );
    v.insert(
        "cache.sched_hit_ratio",
        stats::ratio(hist_fresh - sum(|r| r.stats.misses), hist_fresh),
    );
    v.insert(
        "cache.unit_hit_ratio",
        stats::ratio(
            sum(|r| r.stats.unit_hits),
            sum(|r| r.stats.unit_hits + r.stats.unit_misses),
        ),
    );

    // Store daemon counters over the window, then timed round trips.
    let store_addr = topology.store_addr();
    match RemoteStore::new(store_addr.clone()).daemon_stats() {
        Ok(s) => {
            v.insert("store.hits", s.hits as f64);
            v.insert("store.misses", s.misses as f64);
            v.insert("store.writes", s.writes as f64);
        }
        Err(e) => out.check(false, || format!("store stats failed: {e}")),
    }
    let rtts = store_probe(&tr, &store_addr, args.seed, &mut out);
    v.insert("store.get_rtt_ms", median(&rtts));

    // The bulk plan on the benchmark's own socket executor over both
    // workers, for the fleet counters.
    fleet_probe(&tr, &topology, args.seed, &mut out, &mut v);

    if let Err(e) = topology.shutdown() {
        out.check(false, || format!("serve teardown failed: {e}"));
    }
    let spans = tr.spans();
    let span_ns = Tracer::span_cost_ns();
    v.insert("trace.overhead_s", spans.len() as f64 * span_ns * 1e-9);
    v.insert("trace.span_ns", span_ns);
    v.insert("memory.peak_heap_mb", stats::print_memory());
    let busy: f64 = trace::layer_self_times(&spans).values().sum();
    v.insert("trace.coverage", busy / (CLIENTS as f64 * wall));
    trace::print_layer_table(&spans, wall);
    let path = trace::trace_path("serve", args.seed);
    match trace::write_chrome_trace(&spans, &path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
    out.per_layer(&v);
    out
}

/// Timed `RemoteStore::load`s against the store daemon: probe entries are
/// written first, then read back (hits) and looked up under absent keys
/// (misses).  Returns the round-trip times in milliseconds.
fn store_probe(tr: &Tracer, addr: &str, seed: u64, out: &mut Outcome) -> Vec<f64> {
    use read_pipeline::ArtifactStore;
    let probe = RemoteStore::new(addr.to_string()).write_behind(0);
    let key = |i: u64| mix(seed, 1000 + i);
    for i in 0..STORE_PROBES {
        probe.put("probe", key(i), "perfbench probe", &format!("payload {i}"));
    }
    let mut rtts = Vec::new();
    for i in 0..2 * STORE_PROBES {
        let hit = i < STORE_PROBES;
        let k = if hit { key(i) } else { key(i) ^ 1 };
        let (got, secs) = timed(|| {
            tr.span("store.get", Unit::new("probe", i), None, |_| {
                probe.load("probe", k, "perfbench probe")
            })
        });
        rtts.push(secs * 1e3);
        let expected = hit.then(|| format!("payload {i}"));
        out.check(got == expected, || {
            format!("store probe {i}: got {got:?}, expected {expected:?}")
        });
    }
    rtts
}

/// Runs one fresh bulk request's plan through a `SocketExecutor` over the
/// topology's workers and records the fleet counters; the report must
/// match the in-process run.
fn fleet_probe(
    tr: &Tracer,
    topology: &Topology,
    seed: u64,
    out: &mut Outcome,
    v: &mut BTreeMap<&'static str, f64>,
) {
    let req = request(true, mix(seed, 99) >> 40);
    let executor = SocketExecutor::new(req.encode(), topology.worker_addrs());
    let fleet = executor.stats();
    let (builder, w) = reference_builder(&req);
    let result = builder
        .store(RemoteStore::new(topology.store_addr()))
        .executor(executor)
        .build()
        .and_then(|p| {
            let (report, secs) = timed(|| {
                tr.span("fleet.execute", Unit::new("bulk", 0), None, |_| {
                    p.run_sweep(&req.network, &w)
                })
            });
            Ok((report?.to_json(), secs))
        });
    match (result, reference(&req)) {
        (Ok((json, secs)), Ok(expected)) => {
            out.check(json == expected, || {
                "fleet bulk report differs from the in-process run".into()
            });
            v.insert("fleet.units_per_s", fleet.completed_units() as f64 / secs);
            v.insert("fleet.retried_units", fleet.retried_units() as f64);
            v.insert("fleet.inflight_peak", fleet.inflight_peak() as f64);
        }
        (Err(e), _) | (_, Err(e)) => out.check(false, || format!("fleet probe failed: {e}")),
    }
}
