//! The direct-call path shared by the `fig8` and `pvta` checks and traced
//! runs: one (workload, source) pair through the optimizer and the
//! simulator by their public functions, each call inside its own span.

use accel_sim::{ArrayConfig, Dataflow, SimOptions};
use read_pipeline::{Algorithm, LayerWorkload, PipelineError, ScheduleSource};
use timing::DepthHistogram;

use crate::trace::{Tracer, Unit};

/// Schedules and simulates one pair, returning its depth histogram and the
/// MAC cycles simulated.  The configuration matches the pipeline's
/// defaults (output-stationary dataflow, exhaustive simulation), so the
/// histogram must equal the one a `ReadPipeline` unit produces.
///
/// # Errors
///
/// Propagates schedule and simulation failures.
pub fn histogram(
    tr: &Tracer,
    unit: &str,
    source: &Algorithm,
    workload: &LayerWorkload,
    array: &ArrayConfig,
    id: u64,
    parent: Option<usize>,
) -> Result<(DepthHistogram, u64), PipelineError> {
    let name = source.name();
    let schedule = tr.span(
        "optimize.schedule",
        Unit::new(unit, id).source(&name),
        parent,
        |_| source.schedule(&workload.weights, array.cols()),
    )?;
    let mut hist = DepthHistogram::new();
    let sim = tr.span(
        "simulate.simulate_with_schedule",
        Unit::new(unit, id).source(&name),
        parent,
        |_| {
            workload.problem().simulate_with_schedule(
                array,
                Dataflow::OutputStationary,
                &schedule,
                &SimOptions::exhaustive(),
                &mut hist,
            )
        },
    )?;
    Ok((hist, sim.total_cycles))
}
