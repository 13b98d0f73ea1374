//! `fig8`: the paper's headline experiment, cold.  VGG-16 and ResNet-18 at
//! 4 pixels per layer under the three paper schedules, aging 10 y + 5 % VT,
//! on a fresh `ReadPipeline` over `ThreadExecutor::new(2)` per run.
//!
//! The optimizer and the simulator do nearly all of the work here.  The
//! untraced run checks one seed-chosen layer per network against direct
//! calls; the traced run drives every pair through direct calls, folds the
//! results with `WorkPlan::aggregate`, and requires the aggregated report
//! to be byte-identical to the threaded one.

use std::collections::BTreeMap;
use std::time::Instant;

use accel_sim::ArrayConfig;
use read_pipeline::{
    resnet18_workloads, vgg16_workloads, Algorithm, DelayErrorModel, ErrorModel, Executor,
    LayerWorkload, NetworkReport, PipelineError, ReadPipeline, SerialExecutor, ThreadExecutor,
    UnitResult, WorkloadConfig,
};
use timing::{DelayModel, DepthHistogram, OperatingCondition, TerEstimate};

use crate::stats::{self, mix, more_runs, timed};
use crate::trace::{self, Tracer, Unit};
use crate::{direct, Args, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

type Networks = Vec<(&'static str, Vec<LayerWorkload>)>;

fn condition() -> OperatingCondition {
    OperatingCondition::aging_vt(10.0, 0.05)
}

fn error_model() -> DelayErrorModel {
    DelayErrorModel::new(DelayModel::nangate15_like())
}

/// Pixels per layer: the headline `WorkloadConfig`.
const PIXELS: usize = 4;

/// The two networks' workloads: the fixed synthetic weights, and
/// activations drawn from the seed.
fn synthesize(tr: &Tracer, seed: u64) -> Networks {
    let config = WorkloadConfig {
        pixels_per_layer: PIXELS,
        ..WorkloadConfig::default()
    };
    let seeded = |mut workloads: Vec<LayerWorkload>| {
        for (i, w) in workloads.iter_mut().enumerate() {
            stats::seeded_activations(w, seed, i, PIXELS);
        }
        workloads
    };
    vec![
        (
            "VGG-16",
            tr.span(
                "workload.vgg16_workloads",
                Unit::new("VGG-16", 0),
                None,
                |_| seeded(vgg16_workloads(&config)),
            ),
        ),
        (
            "ResNet-18",
            tr.span(
                "workload.resnet18_workloads",
                Unit::new("ResNet-18", 1),
                None,
                |_| seeded(resnet18_workloads(&config)),
            ),
        ),
    ]
}

fn pipeline(executor: impl Executor + 'static) -> ReadPipeline {
    let mut builder = ReadPipeline::builder()
        .array(ArrayConfig::paper_default())
        .error_model(error_model())
        .condition(condition())
        .executor(executor);
    for algorithm in Algorithm::paper_set() {
        builder = builder.source(algorithm);
    }
    builder
        .build()
        .expect("the Fig. 8 pipeline configuration is valid")
}

/// One pair's direct-call result.
struct DirectRow {
    pair: usize,
    unit: String,
    layer: String,
    source: String,
    computed: Result<(DepthHistogram, TerEstimate), PipelineError>,
}

/// Direct calls for the workloads `keep` selects, each pair inside a
/// `pipeline.unit` span (rows are layer-major, then source, one condition).
fn direct_rows(
    tr: &Tracer,
    network: &str,
    workloads: &[LayerWorkload],
    keep: impl Fn(usize) -> bool,
    macs: &mut u64,
    parent: Option<usize>,
) -> Vec<DirectRow> {
    let array = ArrayConfig::paper_default();
    let model = error_model();
    let cond = condition();
    let sources = Algorithm::paper_set();
    let mut rows = Vec::new();
    for (wi, workload) in workloads.iter().enumerate().filter(|(i, _)| keep(*i)) {
        let unit = format!("{network}/{}", workload.name);
        for (si, source) in sources.iter().enumerate() {
            let pair = wi * sources.len() + si;
            let computed = tr.span(
                "pipeline.unit",
                Unit::new(&unit, pair as u64).source(&source.name()),
                parent,
                |p| {
                    let (hist, cycles) =
                        direct::histogram(tr, &unit, source, workload, &array, pair as u64, p)?;
                    *macs += cycles;
                    let est = tr.span(
                        "ter.estimate",
                        Unit::new(&unit, pair as u64).source(&source.name()),
                        p,
                        |_| model.estimate(&hist, &cond),
                    );
                    Ok((hist, est))
                },
            );
            rows.push(DirectRow {
                pair,
                unit: unit.clone(),
                layer: workload.name.clone(),
                source: source.name(),
                computed,
            });
        }
    }
    rows
}

/// Checks every direct row bit for bit against `report` and returns the
/// unit results for aggregation.
fn check_rows(rows: Vec<DirectRow>, report: &NetworkReport, out: &mut Outcome) -> Vec<UnitResult> {
    let mut results = Vec::new();
    for row in rows {
        let (hist, est) = match row.computed {
            Ok(v) => v,
            Err(e) => {
                out.check(false, || format!("{} {}: {e}", row.unit, row.source));
                continue;
            }
        };
        out.check(
            report.rows.get(row.pair).is_some_and(|r| {
                r.layer == row.layer
                    && r.algorithm == row.source
                    && r.ter.to_bits() == est.ter.to_bits()
                    && r.sign_flip_rate.to_bits() == hist.sign_flip_rate().to_bits()
                    && r.sign_flips == hist.sign_flips()
                    && r.total_cycles == hist.total()
            }),
            || {
                format!(
                    "{} {}: direct-call TER/sign-flip row differs",
                    row.unit, row.source
                )
            },
        );
        results.push(UnitResult::Histogram {
            cell: 0,
            pair: row.pair,
            hist,
        });
    }
    results
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tr = Tracer::new(args.trace);

    // Set-up: workload synthesis (traced once in the traced run).
    let mut setup = Vec::new();
    let mut networks = Vec::new();
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let (n, secs) = timed(|| synthesize(&tr, args.seed));
        networks = n;
        setup.push(secs);
    }

    // The untraced run's spot check (one seed-chosen layer per network
    // through direct calls) runs first, as the warm-up: a cold fig8 run
    // does not fit twice in the window.  Its rows are checked against the
    // threaded report below.
    let mut macs = 0;
    let spot: Vec<Vec<DirectRow>> = if args.trace {
        Vec::new()
    } else {
        networks
            .iter()
            .enumerate()
            .map(|(ni, (name, workloads))| {
                let pick = (mix(args.seed, 2 + ni as u64) % workloads.len() as u64) as usize;
                direct_rows(&tr, name, workloads, |i| i == pick, &mut macs, None)
            })
            .collect()
    };

    // Measured runs: a fresh pipeline on two threads per run, cold caches.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<NetworkReport>> = None;
    let mut cache;
    loop {
        let p = pipeline(ThreadExecutor::new(2));
        let (reports, wall) = timed(|| {
            networks
                .iter()
                .map(|(name, w)| p.run_ter(name, w))
                .collect::<Result<Vec<_>, _>>()
        });
        walls.push(wall);
        cache = p.cache_stats();
        match (reports, &first) {
            (Err(e), _) => out.check(false, || format!("fig8 run failed: {e}")),
            (Ok(reports), None) => {
                out.check(true, String::new);
                first = Some(reports);
            }
            (Ok(reports), Some(f)) => out.check(
                reports
                    .iter()
                    .zip(f)
                    .all(|(a, b)| a.to_json() == b.to_json()),
                || "a repeated fig8 run is not byte-identical to the first".into(),
            ),
        }
        if args.trace || !more_runs(start, &walls, args.seconds) {
            break;
        }
    }
    let Some(reports) = first else {
        return out;
    };
    println!(
        "fig8: set-ups {setup:.3?} s; {} cold run(s), walls {walls:.3?} s, 2 threads, \
         available parallelism {}",
        walls.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Fidelity against the paper's Fig. 8 averages, over all 30 layers.
    let mut fidelity = stats::Fidelity::default();
    for report in &reports {
        fidelity.add(&report.rows);
    }
    fidelity.print("fig8, VGG-16 + ResNet-18");

    if !args.trace {
        for (rows, report) in spot.into_iter().zip(&reports) {
            check_rows(rows, report, &mut out);
        }
        stats::record_batch(&mut out, &setup, stats::after_warmup(&walls), &fidelity);
        return out;
    }

    // Traced run: every pair through direct calls, serially, then the
    // plan's aggregator; the folded reports must match the threaded ones.
    let serial = pipeline(SerialExecutor);
    let (_, traced_wall) = timed(|| {
        tr.span("perfbench.traced_run", Unit::new("fig8", 0), None, |root| {
            for ((name, workloads), report) in networks.iter().zip(&reports) {
                let rows = direct_rows(&tr, name, workloads, |_| true, &mut macs, root);
                let results = check_rows(rows, report, &mut out);
                let folded = tr.span("pipeline.aggregate", Unit::new(name, 0), root, |_| {
                    serial
                        .plan_ter(name, workloads)
                        .and_then(|plan| plan.aggregate(results))
                });
                let json = folded.and_then(|o| o.into_ter()).map(|r| r.to_json());
                out.check(
                    json.as_deref().ok() == Some(report.to_json().as_str()),
                    || format!("{name}: aggregated direct-call report differs"),
                );
            }
        })
    });
    let spans = tr.spans();
    let mut v = BTreeMap::new();
    trace::layer_metrics(&spans, &mut v, macs);
    let units = trace::busy(&spans, |s| s.layer == "pipeline" && s.name == "unit").0;
    v.insert("executor.efficiency", units / (walls[0] * 2.0));
    v.insert(
        "cache.sched_hit_ratio",
        stats::ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    v.insert(
        "cache.hist_hit_ratio",
        stats::ratio(
            cache.hist_hits as f64,
            (cache.hist_hits + cache.hist_misses) as f64,
        ),
    );
    trace::finish(&spans, &mut v, traced_wall, walls[0], "fig8", args.seed);
    trace::print_unit_stage_table(&spans, &["optimize", "simulate", "ter"], 5);
    out.per_layer(&v);
    out
}
