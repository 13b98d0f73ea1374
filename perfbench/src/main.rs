//! End-to-end benchmark of the READ reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8|pvta|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`.  With `--trace 0` the run
//! measures the end-to-end metrics with tracing off; with `--trace 1` it
//! drives the same inputs through direct public calls into each layer,
//! records spans around them, and reports the per-layer metrics instead.
//! Human-readable tables go to standard output first; the last line is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`).  See
//! `perfbench/README.md` for why each workload and metric was chosen.

mod direct;
mod fig8;
mod heap;
mod pvta;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The per-layer metrics every traced run prints, with their units.
/// `perfbench/README.md` says which end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workload.synth_s", "s"),
    ("optimize.busy_s", "s"),
    ("optimize.ctr_s", "s"),
    ("optimize.reorder_s", "s"),
    ("optimize.max_unit_s", "s"),
    ("simulate.busy_s", "s"),
    ("simulate.macs", "count"),
    ("simulate.ns_per_mac", "ns"),
    ("simulate.max_unit_s", "s"),
    ("ter.busy_s", "s"),
    ("mc.busy_s", "s"),
    ("mc.trials", "count"),
    ("variation.busy_s", "s"),
    ("accuracy.busy_s", "s"),
    ("accuracy.evals", "count"),
    ("accuracy.ms_per_image", "ms"),
    ("accuracy.fit_s", "s"),
    ("pipeline.aggregate_s", "s"),
    ("executor.efficiency", "ratio"),
    ("cache.sched_hit_ratio", "ratio"),
    ("cache.hist_hit_ratio", "ratio"),
    ("cache.unit_hit_ratio", "ratio"),
    ("store.get_rtt_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.interactive_ms_p50", "ms"),
    ("serve.bulk_ms_p50", "ms"),
    ("serve.inflight_hits", "count"),
    ("fleet.units_per_s", "1/s"),
    ("fleet.retried_units", "count"),
    ("fleet.inflight_peak", "count"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.span_ns", "ns"),
    ("memory.peak_heap_mb", "MB"),
];

/// Parsed command line.
pub struct Args {
    /// Base seed every generated input derives from.
    pub seed: u64,
    /// Measurement window in seconds (each workload runs its unit of work
    /// repeatedly until the window is spent, and at least once).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one run reports: the metrics plus the output-check tally.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted (units, rows or requests, per workload).
    pub attempted: u64,
    /// Operations that failed or whose output mismatched its reference.
    pub failed: u64,
}

impl Outcome {
    /// Records one metric.  A value that is not a finite number is a
    /// defect of the run, so it also counts as a failed operation.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failed += 1;
            println!("CHECK FAILED: metric {name} is {value}");
        }
        self.metrics.push((name, value, unit));
    }

    /// Counts one checked operation, and a failure when `ok` is false
    /// (printing `what` so a mismatch is never silent).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {}", what());
        }
    }

    /// Records every per-layer metric of [`PER_LAYER`] in order, taking
    /// values from `values` and 0 for a layer the workload does not
    /// exercise.
    pub fn per_layer(&mut self, values: &BTreeMap<&'static str, f64>) {
        for (name, unit) in PER_LAYER {
            self.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Args {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fig8|pvta|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "fig8" => fig8::run(&args),
        "pvta" => pvta::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (fig8, pvta, serve)");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
