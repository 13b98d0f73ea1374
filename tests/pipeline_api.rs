//! Tests of the unified `ReadPipeline` API: builder validation, bit-exact
//! output preservation through every `ScheduleSource`, determinism of
//! `NetworkReport` across runs with the same `ReadConfig::seed`, and
//! byte-identical parallel-vs-serial execution.
//!
//! Executor-invariance is asserted across the `Executor` strategies.

use read_repro::prelude::*;

fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config).into_iter().take(n).collect()
}

fn paper_builder() -> ReadPipelineBuilder {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::Reorder(SortCriterion::SignFirst))
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
}

// ---- builder validation -------------------------------------------------

#[test]
fn builder_requires_a_schedule_source() {
    let err = ReadPipeline::builder()
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap_err();
    assert!(matches!(err, PipelineError::Builder { .. }));
    assert!(err.to_string().contains("schedule source"), "{err}");
}

#[test]
fn builder_requires_an_operating_condition() {
    let err = ReadPipeline::builder().baseline().build().unwrap_err();
    assert!(err.to_string().contains("operating condition"), "{err}");
}

#[test]
fn builder_rejects_two_sources_with_one_name() {
    // Two differently-seeded optimizers still share a display name — the
    // report rows would be ambiguous, so the builder refuses.
    let err = ReadPipeline::builder()
        .optimizer(ReadConfig::default())
        .optimizer(ReadConfig {
            seed: 999,
            ..ReadConfig::default()
        })
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn builder_rejects_conflicting_evaluator_configuration() {
    let err = ReadPipeline::builder()
        .baseline()
        .condition(OperatingCondition::ideal())
        .evaluator(TopKEvaluator::new(5))
        .top_k(3)
        .build()
        .unwrap_err();
    assert!(matches!(err, PipelineError::Builder { .. }), "{err}");
}

#[test]
fn accuracy_without_model_is_a_missing_stage_error() {
    let pipeline = paper_builder().build().unwrap();
    let dataset = SyntheticDatasetBuilder::new(2, [3, 8, 8])
        .samples_per_class(1)
        .build()
        .unwrap();
    let err = pipeline
        .run_accuracy("net", &dataset, &tiny_workloads(1), 1)
        .unwrap_err();
    assert!(matches!(err, PipelineError::Missing { what: "model" }));
}

// ---- bit-exactness through every source ---------------------------------

#[test]
fn every_schedule_source_preserves_outputs_bit_exactly() {
    let pipeline = paper_builder().build().unwrap();
    for workload in &tiny_workloads(3) {
        let reference = workload.problem().reference_output().unwrap();
        for source in [
            Algorithm::Baseline,
            Algorithm::Reorder(SortCriterion::SignFirst),
            Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
        ] {
            let outputs = pipeline.layer_outputs(workload, &source).unwrap();
            assert_eq!(outputs, reference, "source {source} on {}", workload.name);
        }
    }
}

#[test]
fn custom_schedule_sources_plug_in() {
    /// A deliberately bad source: reversed natural order, one group per
    /// channel — still a valid permutation, so outputs must be unchanged.
    struct ReversedOrder;

    impl ScheduleSource for ReversedOrder {
        fn name(&self) -> String {
            "reversed".to_string()
        }

        fn schedule(
            &self,
            weights: &Matrix<i8>,
            array_cols: usize,
        ) -> Result<ComputeSchedule, PipelineError> {
            let mut schedule = Baseline.schedule(weights, array_cols)?;
            let groups = schedule
                .groups()
                .iter()
                .map(|g| {
                    let mut order = g.row_order.clone();
                    order.reverse();
                    ColumnGroup {
                        columns: g.columns.clone(),
                        row_order: order,
                    }
                })
                .collect();
            schedule = ComputeSchedule::new(groups);
            Ok(schedule)
        }
    }

    let pipeline = ReadPipeline::builder()
        .source(ReversedOrder)
        .baseline()
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .build()
        .unwrap();
    let workload = &tiny_workloads(1)[0];
    let reference = workload.problem().reference_output().unwrap();
    let outputs = pipeline.layer_outputs(workload, &ReversedOrder).unwrap();
    assert_eq!(outputs, reference);
}

// ---- determinism --------------------------------------------------------

#[test]
fn network_report_is_deterministic_for_a_fixed_seed() {
    let workloads = tiny_workloads(2);
    let make_report = || {
        let pipeline = ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .optimizer(ReadConfig {
                seed: 0xD5EED,
                ..ReadConfig::default()
            })
            .conditions(paper_conditions())
            .build()
            .unwrap();
        pipeline.run_ter("determinism", &workloads).unwrap()
    };
    let a = make_report();
    let b = make_report();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn changing_the_optimizer_seed_changes_the_cache_key_not_the_outputs() {
    let workload = &tiny_workloads(1)[0];
    let pipeline = ReadPipeline::builder()
        .optimizer(ReadConfig {
            seed: 1,
            criterion: SortCriterion::Random { seed: 1 },
            ..ReadConfig::default()
        })
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap();
    let other = ReadOptimizer::new(ReadConfig {
        seed: 2,
        criterion: SortCriterion::Random { seed: 2 },
        ..ReadConfig::default()
    });
    let first = pipeline
        .layer_outputs(workload, pipeline.sources()[0].clone().as_ref())
        .unwrap();
    let second = pipeline.layer_outputs(workload, &other).unwrap();
    // Different seeds -> separate cache entries...
    assert_eq!(pipeline.cache_stats().entries, 2);
    // ...but schedules never change the arithmetic.
    assert_eq!(first, second);
}

// ---- parallel == serial -------------------------------------------------

#[test]
fn parallel_ter_run_is_byte_identical_to_serial() {
    // The Fig. 8 experiment shape: paper algorithms at the worst corner.
    let workloads = tiny_workloads(3);
    let serial = paper_builder()
        .executor(ThreadExecutor::new(1))
        .build()
        .unwrap()
        .run_ter("fig8", &workloads)
        .unwrap();
    let parallel = paper_builder()
        .executor(ThreadExecutor::machine())
        .build()
        .unwrap()
        .run_ter("fig8", &workloads)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(
        serial.to_json().into_bytes(),
        parallel.to_json().into_bytes()
    );
}

#[test]
fn parallel_accuracy_run_matches_serial() {
    let mut model = qnn::models::vgg11_cifar_scaled(8, 4, 3).unwrap();
    let dataset = SyntheticDatasetBuilder::new(4, [3, 16, 16])
        .samples_per_class(2)
        .seed(11)
        .build()
        .unwrap();
    qnn::fit::fit_classifier_head(&mut model, &dataset).unwrap();
    let workloads = tiny_workloads(2);

    let run = |executor: ThreadExecutor| {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .condition(OperatingCondition::ideal())
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .model(model.clone())
            .executor(executor)
            .build()
            .unwrap()
            .run_accuracy("acc", &dataset, &workloads, 2)
            .unwrap()
    };
    let serial = run(ThreadExecutor::new(1));
    let parallel = run(ThreadExecutor::machine());
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_json(), parallel.to_json());
    // Points cover the full (condition x algorithm) grid in order.
    assert_eq!(serial.points.len(), 4);
    assert_eq!(serial.points[0].condition, "Ideal");
    assert_eq!(serial.points[0].algorithm, "baseline");
}

// ---- report ergonomics --------------------------------------------------

#[test]
fn report_reductions_match_manual_computation() {
    let workloads = tiny_workloads(2);
    let report = paper_builder()
        .build()
        .unwrap()
        .run_ter("reduction", &workloads)
        .unwrap();
    let read_name = Algorithm::ClusterThenReorder(SortCriterion::SignFirst).name();
    let (geo, max) = report.ter_reduction(&read_name, "baseline");
    assert!(geo > 1.0, "READ should reduce TER, got {geo}x");
    assert!(max >= geo);

    // Manual recomputation over the rows agrees.
    let mut log_sum = 0.0;
    let mut n = 0;
    for row in report.rows.iter().filter(|r| r.algorithm == read_name) {
        let base = report
            .rows
            .iter()
            .find(|r| r.layer == row.layer && r.algorithm == "baseline")
            .unwrap();
        log_sum += (base.ter / row.ter).ln();
        n += 1;
    }
    let manual = (log_sum / n as f64).exp();
    assert!((geo - manual).abs() < 1e-12);
}

#[test]
fn caches_are_shared_across_experiments() {
    let workloads = tiny_workloads(2);
    let pipeline = paper_builder().build().unwrap();
    pipeline.run_ter("first", &workloads).unwrap();
    let after_first = pipeline.cache_stats();
    // 2 layers x 3 sources: one optimization and one simulation pass each.
    assert_eq!(after_first.entries, 6);
    assert_eq!(after_first.misses, 6);
    assert_eq!(after_first.hist_entries, 6);
    assert_eq!(after_first.hist_misses, 6);
    pipeline.run_ter("second", &workloads).unwrap();
    let after_second = pipeline.cache_stats();
    assert_eq!(after_second.misses, 6, "schedules must not be recomputed");
    assert_eq!(
        after_second.hist_misses, 6,
        "histograms must not be re-simulated"
    );
    assert!(after_second.hist_hits >= after_first.hist_hits + 6);
}
