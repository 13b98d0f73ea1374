//! In-memory span recorder for the traced run.
//!
//! Spans are recorded in the benchmark's own code, around calls into each
//! layer's public functions: nothing inside the program is instrumented.
//! Each span carries its layer, the call it wraps, the unit it worked on
//! (network layer and schedule source, or request), an id and its parent.
//! Spans stay in memory and are written once, when the run ends, as a
//! Chrome trace (opens in Perfetto / chrome://tracing).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use read_pipeline::Algorithm;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (workspace module) the wrapped call belongs to.
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// What the call worked on: `network/layer` for compute spans, the
    /// request label for serve spans.
    pub unit: String,
    /// Schedule source of a compute span (empty otherwise).
    pub source: String,
    /// Unit or request id.
    pub id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// What a span worked on: a label (`network/layer` or a request), the
/// schedule source if any, and a unit or request id.
#[derive(Clone, Copy)]
pub struct Unit<'a> {
    label: &'a str,
    source: &'a str,
    id: u64,
}

impl<'a> Unit<'a> {
    /// A unit with no schedule source.
    pub fn new(label: &'a str, id: u64) -> Unit<'a> {
        Unit {
            label,
            source: "",
            id,
        }
    }

    /// The same unit, computed under `source`.
    pub fn source(self, source: &'a str) -> Unit<'a> {
        Unit { source, ..self }
    }
}

/// The recorder.  A disabled recorder runs the wrapped calls and records
/// nothing, so the checked direct-call path is shared by traced and
/// untraced runs.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `what` is `"<layer>.<call>"`, and `f`
    /// receives the span's index to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        what: &'static str,
        unit: Unit<'_>,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let (layer, name) = what.split_once('.').unwrap_or((what, ""));
        let index = {
            let mut spans = self.spans.lock().expect("span recorder lock poisoned");
            spans.push(Span {
                layer,
                name,
                unit: unit.label.to_string(),
                source: unit.source.to_string(),
                id: unit.id,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let value = f(Some(index));
        let end = self.now_ns();
        self.spans.lock().expect("span recorder lock poisoned")[index].end_ns = end;
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span recorder lock poisoned")
            .clone()
    }

    /// Measured cost of recording one span, in nanoseconds (a throwaway
    /// recorder times a batch of empty spans).
    pub fn span_cost_ns() -> f64 {
        let probe = Tracer::new(true);
        let n = 20_000u64;
        let start = Instant::now();
        for i in 0..n {
            probe.span("probe.probe", Unit::new("", i), None, |_| ());
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover (children of one span never overlap in the serial
/// traced paths; in the threaded serve client they are not nested).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child[p] += span.secs();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

/// Σ self time per layer, in seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.layer).or_insert(0.0) += own;
    }
    out
}

/// Σ duration of the spans matching `pred`, and the longest one.
pub fn busy(spans: &[Span], pred: impl Fn(&Span) -> bool) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| pred(s))
        .fold((0.0, 0.0f64), |(sum, max), s| {
            (sum + s.secs(), max.max(s.secs()))
        })
}

/// Prints per-layer self time as a share of `wall`.
pub fn print_layer_table(spans: &[Span], wall: f64) {
    println!("\nPer-layer self time (traced wall {wall:.3} s)");
    println!("  {:<12} {:>10} {:>7}", "layer", "self s", "share");
    for (layer, secs) in layer_self_times(spans) {
        println!("  {layer:<12} {secs:>10.4} {:>6.1}%", 100.0 * secs / wall);
    }
}

/// Prints the per-(network layer) × per-stage table of `stages` and the
/// `top` network layers by total time.
pub fn print_unit_stage_table(spans: &[Span], stages: &[&'static str], top: usize) {
    let mut table: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in spans {
        if let Some(col) = stages.iter().position(|s| *s == span.layer) {
            table
                .entry(span.unit.as_str())
                .or_insert_with(|| vec![0.0; stages.len()])[col] += span.secs();
        }
    }
    let mut header = format!("  {:<26}", "network layer");
    for stage in stages {
        let _ = write!(header, " {stage:>10}");
    }
    println!("\nPer-layer x per-stage wall (s)\n{header} {:>10}", "total");
    let mut rows: Vec<(&str, Vec<f64>)> = table.into_iter().collect();
    for (unit, cols) in &rows {
        let mut line = format!("  {unit:<26}");
        for v in cols {
            let _ = write!(line, " {v:>10.4}");
        }
        println!("{line} {:>10.4}", cols.iter().sum::<f64>());
    }
    rows.sort_by(|a, b| b.1.iter().sum::<f64>().total_cmp(&a.1.iter().sum::<f64>()));
    println!("\nTop {top} network layers by traced time");
    for (unit, cols) in rows.iter().take(top) {
        println!("  {unit:<26} {:>10.4} s", cols.iter().sum::<f64>());
    }
}

/// Writes the spans as a Chrome trace to `path` (creating its directory).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
             \"id\":{},\"unit\":\"{}\",\"source\":\"{}\"}}}}{}",
            s.layer,
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            esc(&s.unit),
            esc(&s.source),
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// Where a traced run writes its spans: `perfbench/out/` in the checkout.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.json"))
}

/// Fills the compute-layer metrics (`workload`, `optimize`, `simulate`,
/// `ter`, `mc`, `variation`, `pipeline.aggregate_s`) from the spans.
pub fn layer_metrics(spans: &[Span], v: &mut BTreeMap<&'static str, f64>, macs: u64) {
    let reorder = Algorithm::paper_set()[1].name();
    let ctr = Algorithm::paper_set()[2].name();
    let by_layer = |layer: &str| busy(spans, |s| s.layer == layer);
    v.insert("workload.synth_s", by_layer("workload").0);
    let (opt, opt_max) = by_layer("optimize");
    v.insert("optimize.busy_s", opt);
    v.insert("optimize.max_unit_s", opt_max);
    v.insert(
        "optimize.ctr_s",
        busy(spans, |s| s.layer == "optimize" && s.source == ctr).0,
    );
    v.insert(
        "optimize.reorder_s",
        busy(spans, |s| s.layer == "optimize" && s.source == reorder).0,
    );
    let (sim, sim_max) = by_layer("simulate");
    v.insert("simulate.busy_s", sim);
    v.insert("simulate.max_unit_s", sim_max);
    v.insert("simulate.macs", macs as f64);
    v.insert("simulate.ns_per_mac", stats::ratio(sim * 1e9, macs as f64));
    v.insert("ter.busy_s", by_layer("ter").0);
    v.insert("mc.busy_s", by_layer("mc").0);
    v.insert("variation.busy_s", by_layer("variation").0);
    v.insert(
        "pipeline.aggregate_s",
        busy(spans, |s| s.layer == "pipeline" && s.name == "aggregate").0,
    );
}

/// Tracing overhead, coverage and span cost; prints the per-layer table
/// and writes the spans.
pub fn finish(
    spans: &[Span],
    v: &mut BTreeMap<&'static str, f64>,
    traced_wall: f64,
    untraced_wall: f64,
    workload: &str,
    seed: u64,
) {
    // The root span encloses the traced path; its direct children are the
    // calls into the layers, so their share of it is the coverage.
    let root = spans.iter().position(|s| s.layer == "perfbench");
    let covered: f64 = spans
        .iter()
        .filter(|s| root.is_some() && s.parent == root)
        .map(Span::secs)
        .sum();
    v.insert("trace.overhead_s", traced_wall - untraced_wall);
    v.insert("trace.coverage", covered / traced_wall);
    v.insert("trace.span_ns", Tracer::span_cost_ns());
    v.insert("memory.peak_heap_mb", crate::stats::print_memory());
    print_layer_table(spans, traced_wall);
    println!(
        "traced wall {traced_wall:.3} s (serial), untraced wall {untraced_wall:.3} s (2 threads), \
         layer spans cover {:.1}% of the traced wall; {} spans",
        100.0 * covered / traced_wall,
        spans.len()
    );
    let path = trace_path(workload, seed);
    match write_chrome_trace(spans, &path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
}
