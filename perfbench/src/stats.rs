//! Small numeric helpers shared by the workloads: seeds, percentiles,
//! timing and memory readings, and the paper's Fig. 8 reference values.

use std::time::Instant;

use accel_sim::Matrix;
use read_pipeline::{Algorithm, LayerReport, LayerWorkload, WorkloadConfig};
use timing::OperatingCondition;

/// The paper's Fig. 8 claims (TER reduction over the baseline schedule,
/// averaged over VGG-16 and ResNet-18), the reference the fidelity gaps are
/// measured against.  They are the paper's reported numbers, not a
/// hardware measurement: the weights here are synthetic.
pub const PAPER_REORDER_AVG: f64 = 4.9;
/// Paper Fig. 8: average reduction of cluster-then-reorder.
pub const PAPER_CTR_AVG: f64 = 7.8;
/// Paper Fig. 8: largest per-layer reduction of cluster-then-reorder.
pub const PAPER_CTR_MAX: f64 = 37.9;

/// SplitMix64: derives independent sub-seeds from the benchmark seed, so
/// every generated input depends on `--seed` alone.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replaces each layer's activations with `pixels` columns drawn from the
/// benchmark seed (`index` is the layer's position in its network).
///
/// The weights stay those of `WorkloadConfig::default()`: the network is
/// fixed, as a trained network is, and the seed draws the input data.  A
/// seed that also redrew the weights would change the optimizer's work and
/// the per-layer TER reductions from run to run far more than any change to
/// the program does.
pub fn seeded_activations(workload: &mut LayerWorkload, seed: u64, index: usize, pixels: usize) {
    let rows = workload.weights.rows();
    let sparsity = WorkloadConfig::default().activation_sparsity;
    let acts =
        qnn::init::synthetic_activations(rows * pixels, sparsity, mix(seed, 100 + index as u64));
    workload.activations = Matrix::from_fn(rows, pixels, |r, p| acts[r * pixels + p]);
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail latency the sample count supports: the 90th percentile when at
/// least ten samples lie beyond it, otherwise the highest percentile that
/// has ten beyond it, and the median when there are too few samples for
/// any tail (a batch workload measures one or two runs per window).
pub fn tail_p90(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    if n < 20.0 {
        return median(samples);
    }
    percentile(samples, (1.0 - 10.0 / n).min(0.9))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Prints the process's peak live heap (the daemons run in-process, so it
/// covers them too) beside its peak resident set, and returns the former.
pub fn print_memory() -> f64 {
    let heap = crate::heap::peak_mb();
    println!(
        "peak heap {heap:.1} MB; peak RSS {:.1} MB (VmHWM)",
        peak_rss_mb()
    );
    heap
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The Fig. 8 TER reductions of one run, gathered from its TER reports at
/// the Fig. 8 corner (aging 10 y + 5 % VT) and compared with the paper.
#[derive(Default)]
pub struct Fidelity {
    /// Per-layer reductions of reorder over baseline.
    reorder: Vec<f64>,
    /// Per-layer reductions of cluster-then-reorder over baseline.
    ctr: Vec<f64>,
    /// Layers where cluster-then-reorder has a higher TER than reorder.
    ctr_losses: usize,
    layers: usize,
}

impl Fidelity {
    /// Adds one report's layers (rows of one network; layer names are
    /// unique within it).
    pub fn add(&mut self, rows: &[LayerReport]) {
        let [baseline, reorder, ctr] = Algorithm::paper_set().map(|a| a.name());
        let corner = OperatingCondition::aging_vt(10.0, 0.05).name;
        let ter = |algorithm: &str, layer: &str| {
            rows.iter()
                .find(|r| r.algorithm == algorithm && r.layer == layer && r.condition == corner)
                .map(|r| r.ter)
        };
        for row in rows
            .iter()
            .filter(|r| r.algorithm == baseline && r.condition == corner)
        {
            self.layers += 1;
            let (r, c) = (ter(&reorder, &row.layer), ter(&ctr, &row.layer));
            for (ter, out) in [(r, &mut self.reorder), (c, &mut self.ctr)] {
                if let Some(t) = ter.filter(|t| *t > 0.0 && row.ter > 0.0) {
                    out.push(row.ter / t);
                }
            }
            if let (Some(r), Some(c)) = (r, c) {
                self.ctr_losses += usize::from(c > r);
            }
        }
    }

    /// Prints the measured reductions beside the paper's values.
    pub fn print(&self, label: &str) {
        let rows = [
            ("reorder avg", geo_mean(&self.reorder), PAPER_REORDER_AVG),
            (
                "cluster-then-reorder avg",
                geo_mean(&self.ctr),
                PAPER_CTR_AVG,
            ),
            (
                "cluster-then-reorder max",
                self.ctr.iter().copied().fold(0.0, f64::max),
                PAPER_CTR_MAX,
            ),
        ];
        println!("\nFidelity ({label}): TER reduction over baseline, geo-mean over layers");
        println!("  weights are synthetic; the gap is measured against the paper's reported");
        println!("  Fig. 8 numbers, not against hardware");
        println!(
            "  {:<28} {:>9} {:>9} {:>9}",
            "", "measured", "paper", "ratio"
        );
        for (name, measured, paper) in rows {
            println!(
                "  {name:<28} {measured:>8.2}x {paper:>8.1}x {:>8.2}x",
                measured / paper
            );
        }
        println!(
            "  layers where cluster-then-reorder loses to reorder: {} of {}",
            self.ctr_losses, self.layers
        );
    }

    /// Records `ter_gap_reorder` and `ter_gap_ctr`.
    pub fn record(&self, out: &mut crate::Outcome) {
        out.metric(
            "ter_gap_reorder",
            gap(geo_mean(&self.reorder), PAPER_REORDER_AVG),
            "x",
        );
        out.metric("ter_gap_ctr", gap(geo_mean(&self.ctr), PAPER_CTR_AVG), "x");
    }
}

/// Geometric mean (1 for an empty set).
fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The fidelity gap as a factor: `exp(|ln(measured / paper)|)`, i.e. how
/// many times the measured average misses the paper's, in either
/// direction.  1 when they match; never 0, so its run-to-run spread stays
/// a meaningful share of its value.
fn gap(measured: f64, paper: f64) -> f64 {
    (measured / paper).max(paper / measured)
}

/// The runs a batch workload's metrics count: all of them, less the first
/// when at least two follow it.  The first run of a process is the
/// slowest, by up to half again in `pvta`.
pub fn after_warmup(runs: &[f64]) -> &[f64] {
    if runs.len() >= 3 {
        &runs[1..]
    } else {
        runs
    }
}

/// Records a batch workload's end-to-end metrics from its set-up times
/// and counted run walls (one operation is one cold run).
pub fn record_batch(out: &mut crate::Outcome, setup: &[f64], walls: &[f64], fidelity: &Fidelity) {
    out.metric("setup_s", median(setup), "s");
    out.metric("wall_s", median(walls), "s");
    print_memory();
    fidelity.record(out);
    out.metric(
        "req_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.metric("latency_p50_ms", 1e3 * median(walls), "ms");
    out.metric("latency_p90_ms", 1e3 * tail_p90(walls), "ms");
}

/// Whether another measured run fits in the window: one more run of the
/// median length must end within `seconds` of `start`.  The first run
/// always happens, so a run longer than the window is measured once.
pub fn more_runs(start: Instant, walls: &[f64], seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + median(walls) <= seconds
}
