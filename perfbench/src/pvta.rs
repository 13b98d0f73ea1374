//! `pvta`: the Fig. 9/10 shape on the Fig. 9 cross-section of VGG-16
//! (`conv1_2`, `conv3_6`, `conv5_11`, 16 pixels per layer) under the three
//! paper schedules.  A sweep over the six paper corners × (typical die with
//! 1024 Monte-Carlo trials, dies 3 and 4), then fault-injection accuracy at
//! the same corners on `vgg16_cifar_scaled(16, 10, 41)` with 10 classes ×
//! 4 samples and 2 fault seeds, on one `ReadPipeline` over
//! `ThreadExecutor::new(2)`.
//!
//! The timing models and `qnn` inference dominate here.  The traced run
//! drives every unit through direct calls serially, folds them with the
//! plans' aggregators, and requires the sweep and accuracy JSON to be
//! byte-identical to the threaded run.  The untraced run checks a
//! seed-chosen slice of the same path (one pair's histogram, one typical
//! cell's trials, every die estimate, one accuracy point) against the
//! threaded run's reports.

use std::collections::BTreeMap;
use std::time::Instant;

use accel_sim::ArrayConfig;
use qnn::fit::fit_classifier_head;
use qnn::{models, Dataset, Model, SyntheticDatasetBuilder};
use read_pipeline::{
    vgg16_workloads_prefix, AccuracyPoint, AccuracyReport, Algorithm, DelayErrorModel, ErrorModel,
    Evaluator, Executor, LayerWorkload, MonteCarloErrorModel, PipelineError, ReadPipeline,
    SerialExecutor, SweepPlan, SweepReport, ThreadExecutor, TopKEvaluator, UnitResult,
    VariationErrorModel, WorkUnit, WorkloadConfig,
};
use timing::{
    paper_conditions, DelayModel, DepthHistogram, OperatingCondition, TerEstimate, Variation,
};

use crate::stats::{self, mix, more_runs, timed};
use crate::trace::{self, Tracer, Unit};
use crate::{direct, Args, Outcome};

/// Set-ups per run; `setup_s` is their median.  Single set-ups within one
/// run ranged from 1.0 to 1.55 s, so five rather than three.
const SETUP_REPS: usize = 5;
/// Pixels per layer.  The Fig. 9 bench uses 2; at 2 the three layers'
/// TER reductions swing by a third from seed to seed.  16 costs about the
/// same, because the depth kernel packs pixels into 64-bit lanes.
const PIXELS: usize = 16;
const CROSS_SECTION: [&str; 3] = ["conv1_2", "conv3_6", "conv5_11"];
const MC_TRIALS: u32 = 1024;
const TRIALS_PER_SHARD: u32 = 256;
const DIES: [u64; 2] = [3, 4];
const FAULT_SEEDS: u64 = 2;
const TOP_K: usize = 3;

/// Everything set-up produces.
struct Inputs {
    workloads: Vec<LayerWorkload>,
    model: Model,
    dataset: Dataset,
    fit_s: f64,
}

fn setup(tr: &Tracer, seed: u64) -> Result<Inputs, qnn::QnnError> {
    let config = WorkloadConfig {
        pixels_per_layer: PIXELS,
        ..WorkloadConfig::default()
    };
    // Synthesize the prefix through conv5_11 so each layer keeps its index
    // (and so its weights) in the full network; the seed draws the
    // activations (see `stats::seeded_activations`).
    let workloads = tr.span(
        "workload.vgg16_workloads_prefix",
        Unit::new("VGG-16", 0),
        None,
        |_| {
            let mut all = vgg16_workloads_prefix(&config, 11);
            for (i, w) in all.iter_mut().enumerate() {
                stats::seeded_activations(w, seed, i, PIXELS);
            }
            all
        },
    );
    let workloads: Vec<LayerWorkload> = workloads
        .into_iter()
        .filter(|w| CROSS_SECTION.contains(&w.name.as_str()))
        .collect();
    let mut model = models::vgg16_cifar_scaled(16, 10, 41)?;
    let dataset = SyntheticDatasetBuilder::new(10, [3, 32, 32])
        .samples_per_class(4)
        .noise(30.0)
        .seed(mix(seed, 3))
        .build()?;
    let (fit, fit_s) = timed(|| {
        tr.span(
            "accuracy.fit_classifier_head",
            Unit::new("model", 0),
            None,
            |_| fit_classifier_head(&mut model, &dataset),
        )
    });
    fit?;
    Ok(Inputs {
        workloads,
        model,
        dataset,
        fit_s,
    })
}

fn sweep_plan(seed: u64) -> SweepPlan {
    SweepPlan::new()
        .conditions(paper_conditions())
        .typical()
        .dies(DIES)
        .monte_carlo(MC_TRIALS, mix(seed, 4))
        .trials_per_shard(TRIALS_PER_SHARD)
}

fn pipeline(seed: u64, executor: impl Executor + 'static) -> ReadPipeline {
    let mut builder = ReadPipeline::builder()
        .array(ArrayConfig::paper_default())
        .sweep(sweep_plan(seed))
        .conditions(paper_conditions())
        .error_model(DelayErrorModel::new(DelayModel::nangate15_like()))
        .evaluator(TopKEvaluator::new(TOP_K))
        .executor(executor);
    for algorithm in Algorithm::paper_set() {
        builder = builder.source(algorithm);
    }
    builder
        .build()
        .expect("the pvta pipeline configuration is valid")
}

/// One run's reports.
struct Reports {
    sweep: SweepReport,
    accuracy: AccuracyReport,
}

impl Reports {
    fn json(&self) -> (String, String) {
        (self.sweep.to_json(), self.accuracy.to_json())
    }
}

fn run_parallel(p: &ReadPipeline, inputs: &Inputs) -> Result<Reports, PipelineError> {
    let w = &inputs.workloads;
    Ok(Reports {
        sweep: p.run_sweep("pvta", w)?,
        accuracy: p.run_accuracy_for(&inputs.model, "pvta", &inputs.dataset, w, FAULT_SEEDS)?,
    })
}

#[derive(Default)]
struct Counters {
    macs: u64,
    trials: u64,
    evals: u64,
}

/// Which slice of the direct path to run.
enum Mode<'a> {
    /// Every unit, folded by the aggregators (the traced run).
    Full,
    /// One pair, one typical cell and one accuracy point chosen by the
    /// seed; the other histograms come from the threaded pipeline's cache.
    Spot(&'a ReadPipeline),
}

/// The serial direct-call path.  Every value it computes is checked
/// bit for bit against the threaded run's `reports`; in [`Mode::Full`] the
/// units are also folded by the plans' aggregators and both reports must
/// be byte-identical.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn direct_path(
    tr: &Tracer,
    seed: u64,
    inputs: &Inputs,
    reports: &Reports,
    mode: Mode<'_>,
    counters: &mut Counters,
    out: &mut Outcome,
    root: Option<usize>,
) -> Result<(), PipelineError> {
    let array = ArrayConfig::paper_default();
    let sources = Algorithm::paper_set();
    let serial = pipeline(seed, SerialExecutor);
    let plan = sweep_plan(seed);
    let w = &inputs.workloads;
    let pairs = w.len() * sources.len();
    let corners = plan.corners(&array);
    let conditions: Vec<OperatingCondition> = paper_conditions().to_vec();
    let full = matches!(mode, Mode::Full);
    let pick = |stream: u64, n: usize| (mix(seed, stream) % n as u64) as usize;
    let pick_pair = pick(5, pairs);
    let pick_cell = pick(6, conditions.len()); // typical cells come first
    let pick_point = pick(7, conditions.len() * sources.len());
    let unit_of = |pair: usize| format!("VGG-16/{}", w[pair / sources.len()].name);

    // Histograms: direct schedule + simulate, checked against the rows of
    // the first sweep cell (cycles, sign flips and flip rate are
    // corner-independent).
    let mut hists: Vec<DepthHistogram> = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (workload, source) = (&w[pair / sources.len()], &sources[pair % sources.len()]);
        let cached = match mode {
            Mode::Spot(p) if pair != pick_pair => {
                hists.push(p.layer_histogram(workload, source)?);
                continue;
            }
            Mode::Spot(p) => Some(p.layer_histogram(workload, source)?),
            Mode::Full => None,
        };
        let unit = unit_of(pair);
        let (hist, cycles) = tr.span(
            "pipeline.unit",
            Unit::new(&unit, pair as u64).source(&source.name()),
            root,
            |p| direct::histogram(tr, &unit, source, workload, &array, pair as u64, p),
        )?;
        counters.macs += cycles;
        let row = reports.sweep.cells.first().and_then(|c| c.rows.get(pair));
        out.check(
            row.is_some_and(|r| {
                r.total_cycles == hist.total()
                    && r.sign_flips == hist.sign_flips()
                    && r.sign_flip_rate.to_bits() == hist.sign_flip_rate().to_bits()
            }) && cached.is_none_or(|c| c.to_wire() == hist.to_wire()),
            || format!("{unit} {}: direct histogram differs", source.name()),
        );
        hists.push(hist);
    }
    let hist_results = || {
        hists
            .iter()
            .enumerate()
            .map(|(pair, hist)| UnitResult::Histogram {
                cell: 0,
                pair,
                hist: hist.clone(),
            })
    };

    // Sweep: Monte-Carlo shards of the typical die as the plan lays them
    // out; each (cell, pair) whose trials are all drawn is checked.
    let sweep_wp = serial.plan_sweep("pvta", w)?;
    let mc = plan.monte_carlo_spec().expect("the pvta plan samples");
    let mc_model = MonteCarloErrorModel::with_delay(plan.delay_model(), mc.trials, mc.seed);
    let mut results: Vec<UnitResult> = hist_results().collect();
    let mut trials: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for unit in sweep_wp.units() {
        let WorkUnit::McShard { cell, trial_range } = unit else {
            continue;
        };
        if !full && *cell != pick_cell {
            continue;
        }
        let condition = &corners[*cell].condition;
        let ters: Vec<Vec<f64>> =
            tr.span("pipeline.unit", Unit::new("mc", *cell as u64), root, |p| {
                (0..pairs)
                    .filter(|pair| full || *pair == pick_pair)
                    .map(|pair| {
                        counters.trials += u64::from(trial_range.end - trial_range.start);
                        tr.span(
                            "mc.trial_ters",
                            Unit::new(&unit_of(pair), pair as u64),
                            p,
                            |_| mc_model.trial_ters(&hists[pair], condition, trial_range.clone()),
                        )
                    })
                    .collect()
            });
        for (i, shard) in ters.iter().enumerate() {
            let pair = if full { i } else { pick_pair };
            trials.entry((*cell, pair)).or_default().extend(shard);
        }
        results.push(UnitResult::McShard {
            cell: *cell,
            trial_range: trial_range.clone(),
            ters,
        });
    }
    for ((cell, pair), samples) in &trials {
        let est = TerEstimate::from_trials(samples);
        let row = reports
            .sweep
            .cells
            .get(*cell)
            .and_then(|c| c.rows.get(*pair));
        out.check(
            row.is_some_and(|r| {
                r.ter.to_bits() == est.ter.to_bits()
                    && r.ter_stddev.map(f64::to_bits) == est.stddev.map(f64::to_bits)
            }),
            || format!("typical cell {cell} pair {pair}: Monte-Carlo estimate differs"),
        );
    }

    // Die cells: the per-PE model's estimate of every pair.
    for (ci, corner) in corners.iter().enumerate() {
        let Variation::PerPe { seed: die, .. } = corner.variation else {
            continue;
        };
        let model = VariationErrorModel::with_delay(plan.delay_model(), &array, die);
        for (pair, hist) in hists.iter().enumerate() {
            let est = tr.span(
                "variation.estimate",
                Unit::new(&unit_of(pair), pair as u64),
                root,
                |_| model.estimate(hist, &corner.condition),
            );
            let row = reports.sweep.cells.get(ci).and_then(|c| c.rows.get(pair));
            out.check(
                row.is_some_and(|r| r.ter.to_bits() == est.ter.to_bits()),
                || format!("die {die} cell {ci} pair {pair}: per-PE estimate differs"),
            );
        }
    }

    // Accuracy: per (condition, source) cell, BERs from the analytic TER of
    // each layer, then the evaluator once per fault seed.
    let error_model = serial.error_model();
    let evaluator = TopKEvaluator::new(TOP_K);
    let conv_names: Vec<String> = inputs
        .model
        .conv_layers()
        .iter()
        .map(|c| c.name().to_string())
        .collect();
    let mut points: Vec<UnitResult> = hist_results().collect();
    for cell in 0..conditions.len() * sources.len() {
        if !full && cell != pick_point {
            continue;
        }
        let condition = &conditions[cell / sources.len()];
        let source = sources[cell % sources.len()].name();
        let point = tr.span(
            "pipeline.unit",
            Unit::new(condition.name, cell as u64).source(&source),
            root,
            |p| {
                let mut bers = vec![0.0f64; conv_names.len()];
                let mut ber_sum = 0.0;
                for (wi, workload) in w.iter().enumerate() {
                    let hist = &hists[wi * sources.len() + cell % sources.len()];
                    let unit = format!("VGG-16/{}", workload.name);
                    let ter = tr.span(
                        "ter.estimate",
                        Unit::new(&unit, cell as u64).source(&source),
                        p,
                        |_| error_model.estimate(hist, condition).ter,
                    );
                    let ber = error_model.ber(ter, workload.macs_per_output());
                    ber_sum += ber;
                    if let Some(i) = conv_names.iter().position(|n| *n == workload.name) {
                        bers[i] = ber;
                    }
                }
                let (mut top1, mut topk, mut k) = (0.0, 0.0, 0);
                for s in 0..FAULT_SEEDS {
                    counters.evals += 1;
                    let acc = tr.span(
                        "accuracy.evaluate",
                        Unit::new(condition.name, cell as u64).source(&source),
                        p,
                        |_| evaluator.evaluate(&inputs.model, &inputs.dataset, &bers, s * 977 + 13),
                    )?;
                    top1 += acc.top1;
                    topk += acc.topk;
                    k = acc.k;
                }
                Ok::<_, PipelineError>(AccuracyPoint {
                    condition: condition.name.to_string(),
                    algorithm: source.clone(),
                    top1: top1 / FAULT_SEEDS as f64,
                    topk: topk / FAULT_SEEDS as f64,
                    k,
                    mean_ber: ber_sum / w.len() as f64,
                    seeds: FAULT_SEEDS,
                })
            },
        )?;
        out.check(reports.accuracy.points.get(cell) == Some(&point), || {
            format!("accuracy cell {cell}: direct point differs")
        });
        points.push(UnitResult::Accuracy { cell, point });
    }

    if full {
        let sweep = tr
            .span("pipeline.aggregate", Unit::new("sweep", 0), root, |_| {
                sweep_wp.aggregate(results)
            })?
            .into_sweep()?;
        let acc_wp =
            serial.plan_accuracy_for(&inputs.model, "pvta", &inputs.dataset, w, FAULT_SEEDS)?;
        let accuracy = tr
            .span("pipeline.aggregate", Unit::new("accuracy", 1), root, |_| {
                acc_wp.aggregate(points)
            })?
            .into_accuracy()?;
        let (sweep_json, acc_json) = reports.json();
        out.check(sweep.to_json() == sweep_json, || {
            "pvta sweep JSON differs between the threaded and direct paths".into()
        });
        out.check(accuracy.to_json() == acc_json, || {
            "pvta accuracy JSON differs between the threaded and direct paths".into()
        });
    }
    Ok(())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tr = Tracer::new(args.trace);

    let mut setup_times = Vec::new();
    let mut inputs = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let (made, secs) = timed(|| setup(&tr, args.seed));
        setup_times.push(secs);
        match made {
            Ok(made) => inputs = Some(made),
            Err(e) => out.check(false, || format!("pvta set-up failed: {e}")),
        }
    }
    let Some(inputs) = inputs else {
        return out;
    };

    // Measured runs: a fresh pipeline on two threads per run, cold caches.
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Reports> = None;
    let mut last: Option<ReadPipeline> = None;
    loop {
        // Release the previous run's pipeline (and its caches) first, so
        // the peak resident set is one run's, however many runs fit.
        drop(last.take());
        let p = pipeline(args.seed, ThreadExecutor::new(2));
        let (reports, wall) = timed(|| run_parallel(&p, &inputs));
        walls.push(wall);
        match (reports, &first) {
            (Err(e), _) => out.check(false, || format!("pvta run failed: {e}")),
            (Ok(r), None) => {
                out.check(true, String::new);
                first = Some(r);
            }
            (Ok(r), Some(f)) => out.check(r.json() == f.json(), || {
                "a repeated pvta run is not byte-identical to the first".into()
            }),
        }
        last = Some(p);
        if args.trace || !more_runs(start, &walls, args.seconds) {
            break;
        }
    }
    let (Some(reports), Some(p)) = (first, last) else {
        return out;
    };
    let cache = p.cache_stats();
    println!(
        "pvta: set-ups {setup_times:.3?} s; {} cold run(s), walls {walls:.3?} s, 2 threads, \
         available parallelism {}",
        walls.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Fidelity on the cross-section at the Fig. 8 corner.  The histograms
    // are cached in `p`, so this TER report is pure aggregation.
    let mut fidelity = stats::Fidelity::default();
    match p.run_ter("pvta", &inputs.workloads) {
        Ok(ter) => fidelity.add(&ter.rows),
        Err(e) => out.check(false, || format!("pvta TER report failed: {e}")),
    }
    fidelity.print("pvta cross-section");

    let mut counters = Counters::default();
    let mode = if args.trace {
        Mode::Full
    } else {
        Mode::Spot(&p)
    };
    let (direct, traced_wall) = timed(|| {
        tr.span("perfbench.traced_run", Unit::new("pvta", 0), None, |root| {
            direct_path(
                &tr,
                args.seed,
                &inputs,
                &reports,
                mode,
                &mut counters,
                &mut out,
                root,
            )
        })
    });
    if let Err(e) = direct {
        out.check(false, || format!("pvta direct path failed: {e}"));
    }

    if !args.trace {
        stats::record_batch(
            &mut out,
            &setup_times,
            stats::after_warmup(&walls),
            &fidelity,
        );
        return out;
    }

    let spans = tr.spans();
    let mut v = BTreeMap::new();
    trace::layer_metrics(&spans, &mut v, counters.macs);
    let (acc_busy, _) = trace::busy(&spans, |s| s.layer == "accuracy" && s.name == "evaluate");
    v.insert("mc.trials", counters.trials as f64);
    v.insert("accuracy.busy_s", acc_busy);
    v.insert("accuracy.evals", counters.evals as f64);
    v.insert(
        "accuracy.ms_per_image",
        stats::ratio(
            acc_busy * 1e3,
            (counters.evals as usize * inputs.dataset.len()) as f64,
        ),
    );
    v.insert("accuracy.fit_s", inputs.fit_s);
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
    v.insert(
        "cache.unit_hit_ratio",
        stats::ratio(
            cache.unit_hits as f64,
            (cache.unit_hits + cache.unit_misses) as f64,
        ),
    );
    trace::finish(&spans, &mut v, traced_wall, walls[0], "pvta", args.seed);
    trace::print_unit_stage_table(
        &spans,
        &["optimize", "simulate", "mc", "variation", "ter"],
        3,
    );
    out.per_layer(&v);
    out
}
