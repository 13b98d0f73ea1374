//! Sweep-as-a-service: a long-running daemon that accepts TER, sweep and
//! accuracy requests over TCP and answers them from one shared cache
//! hierarchy with **in-flight dedup**.
//!
//! A batch pipeline pays the full simulation cost once per process; the
//! serve layer amortizes it across *clients*.  [`ServeServer`] listens on a
//! plain TCP socket speaking the repo's line-delimited text idiom (the same
//! family as the [`WorkUnit`]/[`UnitResult`] worker protocol), expands each
//! request into a [`WorkPlan`], and schedules its units through a
//! daemon-wide `UnitScheduler` where identical in-flight units are
//! computed once and fanned out to every waiting request — *single-flight*
//! layered on top of the existing [`ArtifactStore`] write-through:
//!
//! ```text
//! client ──req──▶ daemon ──▶ single-flight scheduler ──▶ executor pool
//!                    ▲              │ coalesce                │
//!                    └──report──────┴──────── shared ArtifactStore
//! ```
//!
//! * **Dedup key** — histogram units use the content-addressed artifact
//!   check line (grid-independent, so a TER request coalesces with the
//!   histogram phase of a concurrent sweep); all other units use
//!   `(plan signature, unit id)`.
//! * **Exactly-once** — each request runs its histogram units first, then
//!   the rest; by the time a Monte-Carlo shard or accuracy point needs a
//!   histogram internally, the leader's synchronous store write-through has
//!   published it, so cross-plan overlap never recomputes.
//! * **Priority** — a two-level admission gate: `interactive` units preempt
//!   `bulk` ones at unit granularity (bulk acquisition blocks while any
//!   interactive unit is waiting for a slot).
//! * **Accounting** — every response carries a per-request [`CacheStats`]
//!   whose `inflight_hits` counts units served by joining another request's
//!   computation.
//!
//! Use [`ServeClient`] from Rust, or speak the protocol directly (see the
//! repo README for the wire grammar).  [`ServeServer::spawn`] +
//! [`ServeClient::shutdown`] give an in-process daemon for tests.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qnn::fit::fit_classifier_head;
use qnn::{models, Dataset, Model, SyntheticDatasetBuilder};
use read_core::SortCriterion;
use timing::{DepthHistogram, OperatingCondition};

use crate::cache::CacheStats;
use crate::daemon::{Conn, DaemonHandle, Flow, LineDaemon, LineService};
use crate::error::PipelineError;
use crate::exec::{resolve_threads, run_indexed_threads};
use crate::executor::SocketExecutor;
use crate::pipeline::ReadPipeline;
use crate::plan::{escape_wire, unescape, UnitResult, WorkPlan, WorkUnit};
use crate::stage::Algorithm;
use crate::store::{ArtifactStore, MemoryStore};
use crate::sweep::SweepPlan;
use crate::workload::{
    resnet18_workloads_prefix, resnet34_workloads_prefix, vgg16_workloads_prefix, LayerWorkload,
    WorkloadConfig,
};

fn bad_request(line: &str, why: &str) -> PipelineError {
    PipelineError::Input {
        reason: format!("bad request line {line:?}: {why}"),
    }
}

fn io_err(context: &str, e: std::io::Error) -> PipelineError {
    PipelineError::exec(format!("{context}: {e}"))
}

// ---------------------------------------------------------------------------
// Protocol vocabulary
// ---------------------------------------------------------------------------

/// Sentinel for [`ServeRequest::timeout_ms`] requesting an explicitly
/// unbounded request (wire spelling: `timeout_ms=none`).
///
/// `timeout_ms=0` means "use the server's default timeout", so without this
/// sentinel a client could never *opt out* of a server default.
pub const NO_TIMEOUT: u64 = u64::MAX;

/// Admission class of a request: interactive units preempt bulk ones at the
/// daemon's scheduling gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: may claim executor slots ahead of queued bulk
    /// units.
    Interactive,
    /// Throughput work: yields slots whenever an interactive unit waits.
    Bulk,
}

impl Priority {
    /// Wire name (`interactive` / `bulk`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }

    fn parse(s: &str, line: &str) -> Result<Option<Priority>, PipelineError> {
        match s {
            "auto" => Ok(None),
            "interactive" => Ok(Some(Priority::Interactive)),
            "bulk" => Ok(Some(Priority::Bulk)),
            other => Err(bad_request(line, &format!("unknown priority {other:?}"))),
        }
    }
}

/// Which experiment a [`ServeRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Layer-wise TER table ([`ReadPipeline::run_ter`]).
    Ter,
    /// Corner/die sweep ([`ReadPipeline::run_sweep`]).
    Sweep,
    /// Fault-injection accuracy ([`ReadPipeline::run_accuracy_for`]).
    Accuracy,
}

impl RequestKind {
    /// Wire name (`ter` / `sweep` / `acc`).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Ter => "ter",
            RequestKind::Sweep => "sweep",
            RequestKind::Accuracy => "acc",
        }
    }

    fn parse(s: &str, line: &str) -> Result<RequestKind, PipelineError> {
        match s {
            "ter" => Ok(RequestKind::Ter),
            "sweep" => Ok(RequestKind::Sweep),
            "acc" => Ok(RequestKind::Accuracy),
            other => Err(bad_request(line, &format!("unknown kind {other:?}"))),
        }
    }
}

/// Which workload family the request simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// VGG-16 conv layers.
    Vgg16,
    /// ResNet-18 conv layers.
    Resnet18,
    /// ResNet-34 conv layers.
    Resnet34,
}

impl ModelFamily {
    /// Wire name (`vgg16` / `resnet18` / `resnet34`).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelFamily::Vgg16 => "vgg16",
            ModelFamily::Resnet18 => "resnet18",
            ModelFamily::Resnet34 => "resnet34",
        }
    }

    fn parse(s: &str, line: &str) -> Result<ModelFamily, PipelineError> {
        match s {
            "vgg16" => Ok(ModelFamily::Vgg16),
            "resnet18" => Ok(ModelFamily::Resnet18),
            "resnet34" => Ok(ModelFamily::Resnet34),
            other => Err(bad_request(line, &format!("unknown family {other:?}"))),
        }
    }

    /// Generates only the requested layer prefix — interactive requests
    /// must not pay deep-layer weight synthesis for layers they never
    /// simulate.
    fn workloads(self, config: &WorkloadConfig, take: usize) -> Vec<LayerWorkload> {
        match self {
            ModelFamily::Vgg16 => vgg16_workloads_prefix(config, take),
            ModelFamily::Resnet18 => resnet18_workloads_prefix(config, take),
            ModelFamily::Resnet34 => resnet34_workloads_prefix(config, take),
        }
    }
}

/// One schedule source from the paper's comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSpec {
    /// Unoptimized row-major schedule.
    Baseline,
    /// Input-channel reordering only.
    Reorder,
    /// Full READ flow: cluster then reorder (sign-first).
    Read,
}

impl SourceSpec {
    /// Wire name (`baseline` / `reorder` / `read`).
    pub fn as_str(self) -> &'static str {
        match self {
            SourceSpec::Baseline => "baseline",
            SourceSpec::Reorder => "reorder",
            SourceSpec::Read => "read",
        }
    }

    fn parse(s: &str, line: &str) -> Result<SourceSpec, PipelineError> {
        match s {
            "baseline" => Ok(SourceSpec::Baseline),
            "reorder" => Ok(SourceSpec::Reorder),
            "read" => Ok(SourceSpec::Read),
            other => Err(bad_request(line, &format!("unknown source {other:?}"))),
        }
    }

    fn algorithm(self) -> Algorithm {
        match self {
            SourceSpec::Baseline => Algorithm::Baseline,
            SourceSpec::Reorder => Algorithm::Reorder(SortCriterion::SignFirst),
            SourceSpec::Read => Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
        }
    }
}

/// One PVTA operating corner, wire-encodable.
///
/// `aging_years == 0` and `vt_fluctuation == 0` is the ideal corner; the
/// other combinations resolve through the [`OperatingCondition`]
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSpec {
    /// Device age in years (0 = fresh silicon).
    pub aging_years: f64,
    /// Voltage/temperature fluctuation fraction (0 = nominal).
    pub vt_fluctuation: f64,
}

impl CornerSpec {
    /// The ideal (fresh, nominal) corner.
    pub fn ideal() -> CornerSpec {
        CornerSpec {
            aging_years: 0.0,
            vt_fluctuation: 0.0,
        }
    }

    /// The paper's stress corner: `aging_vt(years, fluctuation)`.
    pub fn aging_vt(years: f64, fluctuation: f64) -> CornerSpec {
        CornerSpec {
            aging_years: years,
            vt_fluctuation: fluctuation,
        }
    }

    /// Wire encoding: `ideal`, `vt:<f>`, `aging:<y>` or `agingvt:<y>:<f>`.
    pub fn encode(&self) -> String {
        match (self.aging_years > 0.0, self.vt_fluctuation > 0.0) {
            (false, false) => "ideal".to_string(),
            (false, true) => format!("vt:{}", self.vt_fluctuation),
            (true, false) => format!("aging:{}", self.aging_years),
            (true, true) => format!("agingvt:{}:{}", self.aging_years, self.vt_fluctuation),
        }
    }

    /// Decodes the encoding produced by [`CornerSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on an unknown tag or malformed
    /// number.
    pub fn decode(s: &str, line: &str) -> Result<CornerSpec, PipelineError> {
        let mut parts = s.split(':');
        let tag = parts.next().unwrap_or("");
        let mut num = |what: &str| -> Result<f64, PipelineError> {
            let raw = parts
                .next()
                .ok_or_else(|| bad_request(line, &format!("corner {s:?} is missing {what}")))?;
            let value: f64 = raw
                .parse()
                .map_err(|_| bad_request(line, &format!("corner {s:?}: bad {what} {raw:?}")))?;
            if !value.is_finite() || value < 0.0 {
                return Err(bad_request(
                    line,
                    &format!("corner {s:?}: {what} out of range"),
                ));
            }
            Ok(value)
        };
        let corner = match tag {
            "ideal" => CornerSpec::ideal(),
            "vt" => CornerSpec {
                aging_years: 0.0,
                vt_fluctuation: num("fluctuation")?,
            },
            "aging" => CornerSpec {
                aging_years: num("years")?,
                vt_fluctuation: 0.0,
            },
            "agingvt" => CornerSpec {
                aging_years: num("years")?,
                vt_fluctuation: num("fluctuation")?,
            },
            other => return Err(bad_request(line, &format!("unknown corner tag {other:?}"))),
        };
        match parts.next() {
            None => Ok(corner),
            Some(extra) => Err(bad_request(
                line,
                &format!("corner {s:?}: trailing field {extra:?}"),
            )),
        }
    }

    /// Resolves the spec into an [`OperatingCondition`] with the paper's
    /// canonical names.
    pub fn resolve(&self) -> OperatingCondition {
        match (self.aging_years > 0.0, self.vt_fluctuation > 0.0) {
            (false, false) => OperatingCondition::ideal(),
            (false, true) => OperatingCondition::vt(self.vt_fluctuation),
            (true, false) => OperatingCondition::aging(self.aging_years),
            (true, true) => OperatingCondition::aging_vt(self.aging_years, self.vt_fluctuation),
        }
    }
}

/// Monte-Carlo budget of a sweep request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSpec {
    /// Total trials per sampling cell.
    pub trials: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Trials per [`WorkUnit::McShard`] (0 = one shard).
    pub trials_per_shard: u32,
}

/// Accuracy-experiment parameters (scaled VGG-16 on a synthetic dataset —
/// the repo's standard fault-injection rig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySpec {
    /// Channel-width divisor of the scaled model.
    pub width_div: usize,
    /// Number of classes (model head and dataset).
    pub classes: usize,
    /// Weight-initialization seed of the model.
    pub model_seed: u64,
    /// Samples per class in the synthetic dataset.
    pub samples_per_class: usize,
    /// Dataset noise amplitude.
    pub noise: f64,
    /// Dataset RNG seed.
    pub data_seed: u64,
    /// Fault-injection seeds per accuracy point.
    pub seeds: u64,
    /// Fit the classifier head before evaluating.
    pub fit: bool,
}

impl Default for AccuracySpec {
    fn default() -> AccuracySpec {
        AccuracySpec {
            width_div: 16,
            classes: 4,
            model_seed: 9,
            samples_per_class: 2,
            noise: 24.0,
            data_seed: 5,
            seeds: 2,
            fit: false,
        }
    }
}

impl McSpec {
    fn encode(&self) -> String {
        format!("{}:{}:{}", self.trials, self.seed, self.trials_per_shard)
    }

    fn decode(s: &str, line: &str) -> Result<McSpec, PipelineError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(bad_request(line, "mc wants <trials>:<seed>:<per_shard>"));
        }
        Ok(McSpec {
            trials: parse_num(parts[0], "mc trials", line)?,
            seed: parse_num(parts[1], "mc seed", line)?,
            trials_per_shard: parse_num(parts[2], "mc per_shard", line)?,
        })
    }
}

impl AccuracySpec {
    fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}",
            self.width_div,
            self.classes,
            self.model_seed,
            self.samples_per_class,
            self.noise,
            self.data_seed,
            self.seeds,
            u8::from(self.fit)
        )
    }

    fn decode(s: &str, line: &str) -> Result<AccuracySpec, PipelineError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 8 {
            return Err(bad_request(
                line,
                "acc wants <wdiv>:<classes>:<mseed>:<samples>:<noise>:<dseed>:<seeds>:<fit>",
            ));
        }
        let noise: f64 = parts[4]
            .parse()
            .map_err(|_| bad_request(line, &format!("acc: bad noise {:?}", parts[4])))?;
        if !noise.is_finite() || noise < 0.0 {
            return Err(bad_request(line, "acc: noise out of range"));
        }
        let fit = match parts[7] {
            "0" => false,
            "1" => true,
            other => return Err(bad_request(line, &format!("acc: bad fit flag {other:?}"))),
        };
        Ok(AccuracySpec {
            width_div: parse_num(parts[0], "acc wdiv", line)?,
            classes: parse_num(parts[1], "acc classes", line)?,
            model_seed: parse_num(parts[2], "acc mseed", line)?,
            samples_per_class: parse_num(parts[3], "acc samples", line)?,
            noise,
            data_seed: parse_num(parts[5], "acc dseed", line)?,
            seeds: parse_num(parts[6], "acc seeds", line)?,
            fit,
        })
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, what: &str, line: &str) -> Result<T, PipelineError> {
    raw.parse()
        .map_err(|_| bad_request(line, &format!("bad {what} {raw:?}")))
}

// ---------------------------------------------------------------------------
// ServeRequest
// ---------------------------------------------------------------------------

/// One experiment request, wire-encodable as a single `req v1 ...` line.
///
/// Build with [`ServeRequest::ter`], [`ServeRequest::sweep`] or
/// [`ServeRequest::accuracy`] and adjust the public fields, then send it
/// through a [`ServeClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Experiment kind.
    pub kind: RequestKind,
    /// Network label carried into the report (any string; wire-escaped).
    pub network: String,
    /// Workload family to simulate.
    pub family: ModelFamily,
    /// Number of leading family layers to keep (0 = all).
    pub layers: usize,
    /// Pixels (GEMM columns) per layer workload.
    pub pixels: usize,
    /// Workload generator seed.
    pub workload_seed: u64,
    /// Schedule sources to compare (at least one).
    pub sources: Vec<SourceSpec>,
    /// Operating corners (TER/accuracy: report rows; sweep: grid columns).
    pub corners: Vec<CornerSpec>,
    /// Sweep only: include the typical (no-variation) die.
    pub typical: bool,
    /// Sweep only: per-die variation seeds.
    pub dies: Vec<u64>,
    /// Sweep only: Monte-Carlo budget.
    pub mc: Option<McSpec>,
    /// Accuracy only: model/dataset/evaluation parameters.
    pub accuracy: Option<AccuracySpec>,
    /// Admission class; `None` lets the daemon choose by unit count.
    pub priority: Option<Priority>,
    /// Per-request timeout in milliseconds.  `0` means "use the server's
    /// default timeout" ([`ServerConfig::default_timeout_ms`]); the
    /// [`NO_TIMEOUT`] sentinel (wire: `timeout_ms=none`) explicitly
    /// requests an unbounded run even when the server has a default.
    pub timeout_ms: u64,
}

impl ServeRequest {
    fn base(kind: RequestKind, network: &str) -> ServeRequest {
        ServeRequest {
            kind,
            network: network.to_string(),
            family: ModelFamily::Vgg16,
            layers: 2,
            pixels: 2,
            workload_seed: WorkloadConfig::default().seed,
            sources: vec![SourceSpec::Baseline, SourceSpec::Read],
            corners: vec![CornerSpec::aging_vt(10.0, 0.05)],
            typical: false,
            dies: Vec::new(),
            mc: None,
            accuracy: None,
            priority: None,
            timeout_ms: 0,
        }
    }

    /// A small layer-wise TER request (two VGG-16 layers, baseline vs READ
    /// at the stress corner).
    pub fn ter(network: &str) -> ServeRequest {
        ServeRequest::base(RequestKind::Ter, network)
    }

    /// A small corner/die sweep request (typical die, stress corner).
    pub fn sweep(network: &str) -> ServeRequest {
        ServeRequest {
            typical: true,
            ..ServeRequest::base(RequestKind::Sweep, network)
        }
    }

    /// A small fault-injection accuracy request (default [`AccuracySpec`]).
    pub fn accuracy(network: &str) -> ServeRequest {
        ServeRequest {
            accuracy: Some(AccuracySpec::default()),
            ..ServeRequest::base(RequestKind::Accuracy, network)
        }
    }

    /// The request's single-line wire encoding (`req v1 ...`).
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "req v1 kind={} net={} family={} layers={} pixels={} wseed={}",
            self.kind.as_str(),
            escape_wire(&self.network),
            self.family.as_str(),
            self.layers,
            self.pixels,
            self.workload_seed
        );
        let sources: Vec<&str> = self.sources.iter().map(|s| s.as_str()).collect();
        let _ = write!(out, " sources={}", sources.join(","));
        let corners: Vec<String> = self.corners.iter().map(|c| c.encode()).collect();
        let _ = write!(out, " corners={}", corners.join(","));
        if self.typical {
            out.push_str(" typical=1");
        }
        if !self.dies.is_empty() {
            let dies: Vec<String> = self.dies.iter().map(|d| d.to_string()).collect();
            let _ = write!(out, " dies={}", dies.join(","));
        }
        if let Some(mc) = &self.mc {
            let _ = write!(out, " mc={}", mc.encode());
        }
        if let Some(acc) = &self.accuracy {
            let _ = write!(out, " acc={}", acc.encode());
        }
        let priority = match self.priority {
            None => "auto",
            Some(p) => p.as_str(),
        };
        let _ = write!(out, " priority={priority}");
        if self.timeout_ms == NO_TIMEOUT {
            out.push_str(" timeout_ms=none");
        } else {
            let _ = write!(out, " timeout_ms={}", self.timeout_ms);
        }
        out
    }

    /// Decodes a `req v1 ...` line produced by [`ServeRequest::encode`] (or
    /// typed by hand).  Field order after the prefix is free; unknown keys
    /// are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on any malformed or invalid field.
    pub fn decode(line: &str) -> Result<ServeRequest, PipelineError> {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("req") || tokens.next() != Some("v1") {
            return Err(bad_request(line, "expected `req v1` prefix"));
        }
        let mut kind = None;
        let mut request = ServeRequest {
            kind: RequestKind::Ter,
            network: String::new(),
            family: ModelFamily::Vgg16,
            layers: 0,
            pixels: WorkloadConfig::default().pixels_per_layer,
            workload_seed: WorkloadConfig::default().seed,
            sources: Vec::new(),
            corners: Vec::new(),
            typical: false,
            dies: Vec::new(),
            mc: None,
            accuracy: None,
            priority: None,
            timeout_ms: 0,
        };
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| bad_request(line, &format!("field {token:?} wants key=value")))?;
            match key {
                "kind" => kind = Some(RequestKind::parse(value, line)?),
                "net" => request.network = unescape(value, line)?,
                "family" => request.family = ModelFamily::parse(value, line)?,
                "layers" => request.layers = parse_num(value, "layers", line)?,
                "pixels" => request.pixels = parse_num(value, "pixels", line)?,
                "wseed" => request.workload_seed = parse_num(value, "wseed", line)?,
                "sources" => {
                    for s in value.split(',').filter(|s| !s.is_empty()) {
                        request.sources.push(SourceSpec::parse(s, line)?);
                    }
                }
                "corners" => {
                    for c in value.split(',').filter(|c| !c.is_empty()) {
                        request.corners.push(CornerSpec::decode(c, line)?);
                    }
                }
                "typical" => {
                    request.typical = match value {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(bad_request(line, &format!("bad typical flag {other:?}")))
                        }
                    }
                }
                "dies" => {
                    for d in value.split(',').filter(|d| !d.is_empty()) {
                        request.dies.push(parse_num(d, "die seed", line)?);
                    }
                }
                "mc" => request.mc = Some(McSpec::decode(value, line)?),
                "acc" => request.accuracy = Some(AccuracySpec::decode(value, line)?),
                "priority" => request.priority = Priority::parse(value, line)?,
                "timeout_ms" => {
                    request.timeout_ms = if value == "none" {
                        NO_TIMEOUT
                    } else {
                        parse_num(value, "timeout_ms", line)?
                    }
                }
                other => return Err(bad_request(line, &format!("unknown field {other:?}"))),
            }
        }
        request.kind = kind.ok_or_else(|| bad_request(line, "missing kind"))?;
        request.validate().map_err(|e| match e {
            PipelineError::Input { reason } => bad_request(line, &reason),
            other => other,
        })?;
        Ok(request)
    }

    /// Checks cross-field consistency (which fields each kind allows).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] describing the first violation.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let input = |reason: &str| PipelineError::Input {
            reason: reason.to_string(),
        };
        if self.sources.is_empty() {
            return Err(input("at least one source is required"));
        }
        if self.corners.is_empty() {
            return Err(input("at least one corner is required"));
        }
        if self.pixels == 0 {
            return Err(input("pixels must be >= 1"));
        }
        match self.kind {
            RequestKind::Ter => {
                if self.typical || !self.dies.is_empty() || self.mc.is_some() {
                    return Err(input("typical/dies/mc are sweep-only fields"));
                }
                if self.accuracy.is_some() {
                    return Err(input("acc is an accuracy-only field"));
                }
            }
            RequestKind::Sweep => {
                if !self.typical && self.dies.is_empty() {
                    return Err(input("sweep wants typical=1 or at least one die"));
                }
                if self.accuracy.is_some() {
                    return Err(input("acc is an accuracy-only field"));
                }
            }
            RequestKind::Accuracy => {
                if self.typical || !self.dies.is_empty() || self.mc.is_some() {
                    return Err(input("typical/dies/mc are sweep-only fields"));
                }
                let acc = self
                    .accuracy
                    .as_ref()
                    .ok_or_else(|| input("acc is required"))?;
                if self.family != ModelFamily::Vgg16 {
                    return Err(input("accuracy requests support family=vgg16 only"));
                }
                if acc.width_div == 0 || acc.classes < 2 || acc.samples_per_class == 0 {
                    return Err(input("acc wants wdiv>=1, classes>=2, samples>=1"));
                }
                if acc.seeds == 0 {
                    return Err(input("acc wants seeds>=1"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Single-flight scheduler
// ---------------------------------------------------------------------------

/// Payload fanned out from a completed flight.  Histogram flights carry the
/// bare histogram (the flight key is content-addressed across plans, so the
/// waiter re-wraps it with *its own* cell/pair indices); every other unit is
/// plan-specific and fans out verbatim.
#[derive(Clone)]
enum FlightValue {
    Unit(UnitResult),
    Hist(DepthHistogram),
}

enum FlightState {
    /// A leader is computing; `waiters` requests are parked on the condvar.
    ///
    /// `epoch` identifies the flight *generation*: when a leader aborts and
    /// a new leader re-takes the same key, parked waiters of the old
    /// generation observe a different epoch and retry instead of touching
    /// counters they never registered on.
    Running { epoch: u64, waiters: usize },
    /// The leader finished; `remaining` registered waiters have yet to
    /// collect.  Errors fan out as strings ([`PipelineError`] is not
    /// `Clone`).
    Done {
        epoch: u64,
        value: Result<FlightValue, String>,
        remaining: usize,
    },
}

struct GateState {
    active: usize,
    interactive_waiting: usize,
}

/// RAII executor-pool slot; releasing wakes both gate queues.
struct GatePermit<'s> {
    sched: &'s UnitScheduler,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut gate = lock_ok(&self.sched.gate);
        gate.active -= 1;
        self.sched.gate_cv.notify_all();
    }
}

/// Recover from a poisoned mutex: every critical section here leaves the
/// protected state consistent before any operation that could panic, so the
/// inner data is still valid.
fn lock_ok<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn timed_out(what: &str) -> PipelineError {
    PipelineError::exec(format!("request timed out {what}"))
}

fn deadline_wait(deadline: Option<Instant>) -> Option<Duration> {
    const POLL: Duration = Duration::from_millis(50);
    deadline.map(|d| d.saturating_duration_since(Instant::now()).min(POLL))
}

/// Daemon-wide unit scheduler: a bounded executor pool (`slots` concurrent
/// unit computations) with two-level priority admission and single-flight
/// dedup of identical in-flight units.
pub(crate) struct UnitScheduler {
    slots: usize,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    flights: Mutex<HashMap<String, FlightState>>,
    flights_cv: Condvar,
    flight_epoch: AtomicU64,
}

impl UnitScheduler {
    pub(crate) fn new(slots: usize) -> UnitScheduler {
        UnitScheduler {
            slots: slots.max(1),
            gate: Mutex::new(GateState {
                active: 0,
                interactive_waiting: 0,
            }),
            gate_cv: Condvar::new(),
            flights: Mutex::new(HashMap::new()),
            flights_cv: Condvar::new(),
            flight_epoch: AtomicU64::new(0),
        }
    }

    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Claims one executor slot, blocking until admitted.  Bulk acquisition
    /// additionally blocks while any interactive unit is waiting — that is
    /// the whole preemption mechanism: at unit granularity, freed slots go
    /// to interactive work first.
    fn acquire(
        &self,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<GatePermit<'_>, PipelineError> {
        let mut gate = lock_ok(&self.gate);
        if priority == Priority::Interactive {
            gate.interactive_waiting += 1;
        }
        loop {
            // Deadline first, even when a slot is free: an already-expired
            // request must not claim a slot and begin a computation its
            // client has given up on.
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    if priority == Priority::Interactive {
                        gate.interactive_waiting -= 1;
                    }
                    self.gate_cv.notify_all();
                    return Err(timed_out("waiting for an executor slot"));
                }
            }
            let blocked = gate.active >= self.slots
                || (priority == Priority::Bulk && gate.interactive_waiting > 0);
            if !blocked {
                break;
            }
            gate = match deadline_wait(deadline) {
                Some(wait) => {
                    self.gate_cv
                        .wait_timeout(gate, wait)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
                None => self
                    .gate_cv
                    .wait(gate)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            };
        }
        if priority == Priority::Interactive {
            gate.interactive_waiting -= 1;
        }
        gate.active += 1;
        Ok(GatePermit { sched: self })
    }

    /// Runs one work unit with single-flight dedup: the first request to
    /// need a given flight key computes it (leader); concurrent requests
    /// park and receive a clone of the value, counting an in-flight hit in
    /// their own `inflight_hits`.
    pub(crate) fn run_unit(
        &self,
        plan: &WorkPlan<'_>,
        unit: &WorkUnit,
        priority: Priority,
        deadline: Option<Instant>,
        inflight_hits: &AtomicU64,
    ) -> Result<UnitResult, PipelineError> {
        let key = plan.flight_key(unit);
        loop {
            match self.join_or_lead(&key, deadline)? {
                Role::Leader => return self.lead(&key, plan, unit, priority, deadline),
                Role::Joined(Ok(value)) => {
                    inflight_hits.fetch_add(1, Ordering::Relaxed);
                    return adapt_flight_value(value, unit);
                }
                Role::Joined(Err(msg)) => {
                    return Err(PipelineError::exec(format!(
                        "in-flight leader failed: {msg}"
                    )))
                }
                Role::Retry => continue,
            }
        }
    }

    /// Registers interest in `key`: becomes the leader if nobody holds it,
    /// otherwise parks until the leader publishes (or aborts → `Retry`).
    fn join_or_lead(&self, key: &str, deadline: Option<Instant>) -> Result<Role, PipelineError> {
        let mut flights = lock_ok(&self.flights);
        let joined_epoch = match flights.get_mut(key) {
            None => {
                let epoch = self.flight_epoch.fetch_add(1, Ordering::Relaxed);
                flights.insert(key.to_string(), FlightState::Running { epoch, waiters: 0 });
                return Ok(Role::Leader);
            }
            Some(FlightState::Running { epoch, waiters }) => {
                *waiters += 1;
                *epoch
            }
            Some(FlightState::Done { value, .. }) => {
                // Late arrival after publish but before the last registered
                // waiter collected: clone without touching `remaining`.
                return Ok(Role::Joined(value.clone()));
            }
        };
        loop {
            flights = match deadline_wait(deadline) {
                Some(wait) => {
                    self.flights_cv
                        .wait_timeout(flights, wait)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
                None => self
                    .flights_cv
                    .wait(flights)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            };
            match flights.get_mut(key) {
                // Leader aborted (its gate wait timed out): race again.
                None => return Ok(Role::Retry),
                Some(FlightState::Running { epoch, waiters }) => {
                    if *epoch != joined_epoch {
                        // Our leader aborted and a *new* flight re-took the
                        // key before we woke; we are not registered on this
                        // generation, so leave its counter alone and race
                        // again.
                        return Ok(Role::Retry);
                    }
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            *waiters = waiters.saturating_sub(1);
                            return Err(timed_out("waiting on an in-flight unit"));
                        }
                    }
                }
                Some(FlightState::Done {
                    epoch,
                    value,
                    remaining,
                }) => {
                    if *epoch != joined_epoch {
                        // A successor generation published; its `remaining`
                        // counts *its* waiters, not us — clone without
                        // decrementing (same as a late arrival).
                        return Ok(Role::Joined(value.clone()));
                    }
                    let value = value.clone();
                    *remaining = remaining.saturating_sub(1);
                    if *remaining == 0 {
                        flights.remove(key);
                    }
                    return Ok(Role::Joined(value));
                }
            }
        }
    }

    /// Leader path: claim a slot, compute, publish to waiters.
    fn lead(
        &self,
        key: &str,
        plan: &WorkPlan<'_>,
        unit: &WorkUnit,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<UnitResult, PipelineError> {
        let permit = match self.acquire(priority, deadline) {
            Ok(permit) => permit,
            Err(e) => {
                // Abort the flight so parked waiters retry instead of
                // hanging on a leader that never computed.
                let mut flights = lock_ok(&self.flights);
                flights.remove(key);
                self.flights_cv.notify_all();
                return Err(e);
            }
        };
        let result = plan.run_unit_spec(unit);
        drop(permit);
        let value = match &result {
            Ok(unit_result) => Ok(flight_value_of(unit_result, unit)),
            Err(e) => Err(e.to_string()),
        };
        let mut flights = lock_ok(&self.flights);
        match flights.get_mut(key) {
            Some(FlightState::Running { epoch, waiters }) if *waiters > 0 => {
                let (epoch, remaining) = (*epoch, *waiters);
                flights.insert(
                    key.to_string(),
                    FlightState::Done {
                        epoch,
                        value,
                        remaining,
                    },
                );
            }
            _ => {
                flights.remove(key);
            }
        }
        self.flights_cv.notify_all();
        result
    }

    /// Runs all of a plan's units through the pool in two phases — every
    /// histogram unit first, then the rest.  The barrier guarantees
    /// exactly-once across overlapping plans: when a Monte-Carlo shard or
    /// accuracy point later needs a histogram *internally*, the leader's
    /// synchronous cache/store write-through has already published it.
    pub(crate) fn run_plan_units(
        &self,
        plan: &WorkPlan<'_>,
        priority: Priority,
        deadline: Option<Instant>,
        inflight_hits: &AtomicU64,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let units = plan.units();
        let mut results: Vec<Option<UnitResult>> = Vec::new();
        results.resize_with(units.len(), || None);
        let hist: Vec<usize> = (0..units.len())
            .filter(|&i| matches!(units[i], WorkUnit::Histogram { .. }))
            .collect();
        let rest: Vec<usize> = (0..units.len())
            .filter(|&i| !matches!(units[i], WorkUnit::Histogram { .. }))
            .collect();
        for phase in [hist, rest] {
            if phase.is_empty() {
                continue;
            }
            let threads = resolve_threads(self.slots.min(phase.len()), phase.len());
            let phase_results = run_indexed_threads(threads, phase.len(), |i| {
                // Check the deadline *between* units, not only inside gate
                // and flight waits: a leader that just finished a large unit
                // must not start the next one after its client's timeout —
                // previously a request's compute was unbounded once
                // admitted.
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(timed_out("between units"));
                    }
                }
                self.run_unit(plan, &units[phase[i]], priority, deadline, inflight_hits)
            })?;
            for (&slot, result) in phase.iter().zip(phase_results) {
                results[slot] = Some(result);
            }
        }
        Ok(results.into_iter().flatten().collect())
    }
}

enum Role {
    Leader,
    Joined(Result<FlightValue, String>),
    Retry,
}

fn flight_value_of(result: &UnitResult, unit: &WorkUnit) -> FlightValue {
    match (result, unit) {
        (UnitResult::Histogram { hist, .. }, WorkUnit::Histogram { .. }) => {
            FlightValue::Hist(hist.clone())
        }
        _ => FlightValue::Unit(result.clone()),
    }
}

fn adapt_flight_value(value: FlightValue, unit: &WorkUnit) -> Result<UnitResult, PipelineError> {
    match (value, unit) {
        (FlightValue::Hist(hist), WorkUnit::Histogram { cell, pair }) => {
            Ok(UnitResult::Histogram {
                cell: *cell,
                pair: *pair,
                hist,
            })
        }
        (FlightValue::Unit(result), _) => Ok(result),
        (FlightValue::Hist(_), _) => Err(PipelineError::exec(
            "flight key mismatch: histogram payload for a non-histogram unit",
        )),
    }
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

/// Everything a request's plan borrows, owned for the connection's
/// lifetime: [`WorkPlan`] is deliberately non-`'static` (it borrows the
/// pipeline and workloads), so each request builds a fresh pipeline that
/// *shares the daemon's artifact store* — per-request cache counters,
/// daemon-wide reuse.
struct RequestJob {
    request: ServeRequest,
    pipeline: ReadPipeline,
    workloads: Vec<LayerWorkload>,
    model: Option<Model>,
    dataset: Option<Dataset>,
}

/// The server-side outcome of one request.
struct JobOutcome {
    kind: RequestKind,
    units: usize,
    priority: Priority,
    report_json: String,
    stats: CacheStats,
}

impl RequestJob {
    fn build(
        request: ServeRequest,
        store: Arc<dyn ArtifactStore>,
    ) -> Result<RequestJob, PipelineError> {
        let config = WorkloadConfig {
            pixels_per_layer: request.pixels,
            seed: request.workload_seed,
            ..WorkloadConfig::default()
        };
        let workloads = request.family.workloads(&config, request.layers);
        if workloads.is_empty() {
            return Err(PipelineError::Input {
                reason: "request selects zero workloads".to_string(),
            });
        }
        let mut builder = ReadPipeline::builder().store_arc(store);
        for source in &request.sources {
            builder = builder.source(source.algorithm());
        }
        let conditions: Vec<OperatingCondition> =
            request.corners.iter().map(|c| c.resolve()).collect();
        let mut model = None;
        let mut dataset = None;
        match request.kind {
            RequestKind::Ter => builder = builder.conditions(conditions),
            RequestKind::Sweep => {
                let mut plan = SweepPlan::new().conditions(conditions);
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
                builder = builder.sweep(plan);
            }
            RequestKind::Accuracy => {
                let acc = request.accuracy.as_ref().ok_or(PipelineError::Missing {
                    what: "accuracy spec",
                })?;
                let mut m = models::vgg16_cifar_scaled(acc.width_div, acc.classes, acc.model_seed)?;
                let d = SyntheticDatasetBuilder::new(acc.classes, [3, 32, 32])
                    .samples_per_class(acc.samples_per_class)
                    .noise(acc.noise)
                    .seed(acc.data_seed)
                    .build()?;
                if acc.fit {
                    fit_classifier_head(&mut m, &d)?;
                }
                model = Some(m);
                dataset = Some(d);
                builder = builder.conditions(conditions);
            }
        }
        Ok(RequestJob {
            request,
            pipeline: builder.build()?,
            workloads,
            model,
            dataset,
        })
    }

    /// Expands this request's [`WorkPlan`] (borrowing the job's pipeline
    /// and workloads).  Also the worker-side entry point: a `read-worker`
    /// rebuilds the same plan from the same spec line, so unit encodings
    /// match the driver's byte-for-byte.
    pub(crate) fn plan(&self) -> Result<WorkPlan<'_>, PipelineError> {
        let request = &self.request;
        match request.kind {
            RequestKind::Ter => self.pipeline.plan_ter(&request.network, &self.workloads),
            RequestKind::Sweep => self.pipeline.plan_sweep(&request.network, &self.workloads),
            RequestKind::Accuracy => {
                let model = self
                    .model
                    .as_ref()
                    .ok_or(PipelineError::Missing { what: "model" })?;
                let dataset = self
                    .dataset
                    .as_ref()
                    .ok_or(PipelineError::Missing { what: "dataset" })?;
                let seeds = self.request.accuracy.as_ref().map_or(1, |a| a.seeds);
                self.pipeline.plan_accuracy_for(
                    model,
                    &request.network,
                    dataset,
                    &self.workloads,
                    seeds,
                )
            }
        }
    }

    /// Expands the plan, schedules its units through the daemon pool (or a
    /// worker fleet, for bulk requests when one is configured) and
    /// aggregates the report, returning per-request cache statistics.
    fn run(
        &self,
        sched: &UnitScheduler,
        store: &Arc<dyn ArtifactStore>,
        interactive_max_units: usize,
        default_timeout_ms: u64,
        fleet: &[String],
    ) -> Result<JobOutcome, PipelineError> {
        let store_before = store.stats();
        let request = &self.request;
        let plan = self.plan()?;
        let units = plan.len();
        let priority = request
            .priority
            .unwrap_or(if units <= interactive_max_units {
                Priority::Interactive
            } else {
                Priority::Bulk
            });
        // `0` = server default, `NO_TIMEOUT` = explicitly unbounded (which
        // also overrides a server default), anything else = explicit bound.
        let timeout_ms = match request.timeout_ms {
            0 => default_timeout_ms,
            ms => ms,
        };
        let deadline = (timeout_ms > 0 && timeout_ms != NO_TIMEOUT)
            .then(|| Instant::now() + Duration::from_millis(timeout_ms));
        let inflight = AtomicU64::new(0);
        let results = if !fleet.is_empty() && priority == Priority::Bulk {
            // Bulk work ships to the worker fleet (interactive requests stay
            // local: connection + handshake latency would dominate them).
            // A fleet-level failure falls back to the local pool so a dead
            // fleet degrades to PR-6 behavior instead of failing requests.
            let executor = SocketExecutor::new(request.encode(), fleet.iter().cloned());
            match executor.execute_with_deadline(&plan, 0..plan.len(), deadline) {
                Ok(results) => results,
                Err(_) => sched.run_plan_units(&plan, priority, deadline, &inflight)?,
            }
        } else {
            sched.run_plan_units(&plan, priority, deadline, &inflight)?
        };
        let output = plan.aggregate(results)?;
        let report_json = match request.kind {
            RequestKind::Ter => output.into_ter()?.to_json(),
            RequestKind::Sweep => output.into_sweep()?.to_json(),
            RequestKind::Accuracy => output.into_accuracy()?.to_json(),
        };
        // Per-request view: the pipeline (and its caches) are request-local,
        // but the store is daemon-wide — report its activity as a delta over
        // the request (approximate under concurrency, exact when serial).
        let mut stats = self.pipeline.cache_stats();
        let store_after = store.stats();
        stats.disk_hits = store_after.hits.saturating_sub(store_before.hits);
        stats.disk_misses = store_after.misses.saturating_sub(store_before.misses);
        stats.corrupt_entries = store_after.corrupt.saturating_sub(store_before.corrupt);
        stats.store_writes = store_after.writes.saturating_sub(store_before.writes);
        stats.inflight_hits = inflight.load(Ordering::Relaxed);
        Ok(JobOutcome {
            kind: request.kind,
            units,
            priority,
            report_json,
            stats,
        })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon configuration for [`ServeServer::bind`].
pub struct ServerConfig {
    /// Executor-pool width (concurrent unit computations daemon-wide);
    /// 0 = available parallelism.
    pub slots: usize,
    /// Shared artifact store; `None` = a fresh in-memory store.
    pub store: Option<Arc<dyn ArtifactStore>>,
    /// `priority=auto` requests with at most this many units run as
    /// interactive.
    pub interactive_max_units: usize,
    /// Default per-request timeout in milliseconds (0 = none; a request can
    /// opt out of a non-zero default with [`NO_TIMEOUT`]).
    pub default_timeout_ms: u64,
    /// Worker-fleet addresses (`host:port` of `read-worker` processes).
    /// When non-empty, bulk requests route their whole plan through a
    /// [`SocketExecutor`] over these workers instead of the local pool,
    /// falling back locally if the fleet fails.
    pub fleet: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            slots: 0,
            store: None,
            interactive_max_units: 8,
            default_timeout_ms: 0,
            fleet: Vec::new(),
        }
    }
}

struct ServerShared {
    sched: UnitScheduler,
    store: Arc<dyn ArtifactStore>,
    interactive_max_units: usize,
    default_timeout_ms: u64,
    fleet: Vec<String>,
    next_id: AtomicU64,
}

/// The sweep-as-a-service daemon: accepts line-delimited requests over TCP
/// and serves them from one shared store with single-flight unit dedup.
///
/// One connection handler thread per client; every request's units flow
/// through the daemon-wide `UnitScheduler`.  `shutdown` (the in-band
/// control command) stops accepting, closes idle connections and waits only
/// for in-flight requests before [`ServeServer::run`] returns.
pub struct ServeServer {
    daemon: LineDaemon,
    shared: ServerShared,
}

/// Handle to a daemon spawned with [`ServeServer::spawn`].
pub type ServeHandle = DaemonHandle<ServeServer>;

impl ServeServer {
    /// Binds the daemon to `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// test port).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the socket cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<ServeServer, PipelineError> {
        let daemon = LineDaemon::bind(addr)?;
        let slots = resolve_threads(config.slots, usize::MAX);
        let store = config
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new()) as Arc<dyn ArtifactStore>);
        Ok(ServeServer {
            daemon,
            shared: ServerShared {
                sched: UnitScheduler::new(slots),
                store,
                interactive_max_units: config.interactive_max_units,
                default_timeout_ms: config.default_timeout_ms,
                fleet: config.fleet,
                next_id: AtomicU64::new(1),
            },
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// Executor-pool width the daemon resolved from its configuration.
    pub fn slots(&self) -> usize {
        self.shared.sched.slots()
    }

    /// Serves connections until a `shutdown` command arrives, then drains:
    /// the accept loop stops, idle connections are closed, and only the
    /// requests already in flight finish before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on a fatal accept error.
    pub fn run(self) -> Result<(), PipelineError> {
        self.daemon.run(&self.shared)
    }

    /// Binds and runs the daemon on a background thread — the in-process
    /// form used by tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeServer::bind`] failures.
    pub fn spawn(addr: &str, config: ServerConfig) -> Result<ServeHandle, PipelineError> {
        let server = ServeServer::bind(addr, config)?;
        Ok(DaemonHandle::spawn(server.local_addr(), move || {
            server.run()
        }))
    }
}

impl ServeHandle {
    /// A client connected to this daemon.
    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.addr())
    }
}

impl LineService for ServerShared {
    fn dispatch(&self, line: &str, conn: &mut Conn) -> Flow {
        let writer = &mut conn.writer;
        match line.split_whitespace().next() {
            Some("ping") => {
                let _ = writeln!(writer, "ok pong\n.");
            }
            Some("stats") => {
                let stats = store_level_stats(&self.store);
                let _ = writeln!(
                    writer,
                    "ok stats\nstats {}\n.",
                    escape_wire(&stats.to_json())
                );
            }
            Some("shutdown") => {
                let _ = writeln!(writer, "ok shutdown\n.");
                return Flow::Shutdown;
            }
            Some("req") => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                match process_request(self, line) {
                    Ok(outcome) => {
                        let latency_us = started.elapsed().as_micros();
                        let _ = writeln!(
                            writer,
                            "ok id={id} kind={} units={} priority={} latency_us={latency_us}",
                            outcome.kind.as_str(),
                            outcome.units,
                            outcome.priority.as_str()
                        );
                        let _ = writeln!(writer, "report {}", escape_wire(&outcome.report_json));
                        let _ =
                            writeln!(writer, "stats {}\n.", escape_wire(&outcome.stats.to_json()));
                    }
                    Err(e) => {
                        let _ =
                            writeln!(writer, "err id={id} msg={}\n.", escape_wire(&e.to_string()));
                    }
                }
            }
            _ => {
                let _ = writeln!(writer, "err id=0 msg={}\n.", escape_wire("unknown command"));
            }
        }
        Flow::Continue
    }
}

fn process_request(shared: &ServerShared, line: &str) -> Result<JobOutcome, PipelineError> {
    let request = ServeRequest::decode(line)?;
    let job = RequestJob::build(request, Arc::clone(&shared.store))?;
    job.run(
        &shared.sched,
        &shared.store,
        shared.interactive_max_units,
        shared.default_timeout_ms,
        &shared.fleet,
    )
}

/// Daemon-level stats: only the shared store is daemon-wide (pipeline
/// caches are per-request), so the `stats` command reports store counters
/// in the standard [`CacheStats`] shape.
fn store_level_stats(store: &Arc<dyn ArtifactStore>) -> CacheStats {
    let s = store.stats();
    CacheStats {
        disk_hits: s.hits,
        disk_misses: s.misses,
        corrupt_entries: s.corrupt,
        store_writes: s.writes,
        ..CacheStats::default()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One served response: report JSON plus the request's cache statistics.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// Server-assigned request id.
    pub id: u64,
    /// Experiment kind the server ran.
    pub kind: RequestKind,
    /// Number of work units the request expanded into.
    pub units: usize,
    /// Admission class the request actually ran at.
    pub priority: Priority,
    /// Server-side latency (decode → report).
    pub latency: Duration,
    /// The report's canonical JSON (byte-identical to an in-process run).
    pub report_json: String,
    /// Per-request cache statistics, including `inflight_hits`.
    pub stats: CacheStats,
}

/// Blocking client for a [`ServeServer`]: one TCP connection per call.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: SocketAddr,
}

impl ServeClient {
    /// A client for the daemon at `addr`.
    pub fn new(addr: SocketAddr) -> ServeClient {
        ServeClient { addr }
    }

    /// Resolves `addr` (e.g. `127.0.0.1:7341`) and returns a client.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on an unparsable address.
    pub fn connect(addr: &str) -> Result<ServeClient, PipelineError> {
        let addr: SocketAddr = addr.parse().map_err(|_| PipelineError::Input {
            reason: format!("bad server address {addr:?}"),
        })?;
        Ok(ServeClient { addr })
    }

    fn round_trip(&self, line: &str) -> Result<Vec<String>, PipelineError> {
        let stream = TcpStream::connect(self.addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(600)))
            .map_err(|e| io_err("set_read_timeout", e))?;
        let mut write_half = stream.try_clone().map_err(|e| io_err("clone stream", e))?;
        writeln!(write_half, "{line}").map_err(|e| io_err("send", e))?;
        write_half.flush().map_err(|e| io_err("send", e))?;
        let reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for read in reader.lines() {
            let read = read.map_err(|e| io_err("receive", e))?;
            if read == "." {
                return Ok(lines);
            }
            lines.push(read);
        }
        Err(PipelineError::exec("connection closed before terminator"))
    }

    fn expect_ok<'l>(lines: &'l [String], what: &str) -> Result<&'l str, PipelineError> {
        let first = lines
            .first()
            .ok_or_else(|| PipelineError::exec(format!("{what}: empty response")))?;
        if let Some(rest) = first.strip_prefix("ok") {
            return Ok(rest.trim_start());
        }
        if let Some(rest) = first.strip_prefix("err ") {
            let msg = rest
                .split_whitespace()
                .find_map(|t| t.strip_prefix("msg="))
                .map(|m| unescape(m, rest).unwrap_or_else(|_| m.to_string()))
                .unwrap_or_else(|| rest.to_string());
            return Err(PipelineError::exec(format!("server error: {msg}")));
        }
        Err(PipelineError::exec(format!(
            "{what}: unexpected response line {first:?}"
        )))
    }

    /// Liveness check (`ping` → `ok pong`).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure or an
    /// unexpected response.
    pub fn ping(&self) -> Result<(), PipelineError> {
        let lines = self.round_trip("ping")?;
        let rest = Self::expect_ok(&lines, "ping")?;
        if rest == "pong" {
            Ok(())
        } else {
            Err(PipelineError::exec(format!("ping: unexpected {rest:?}")))
        }
    }

    /// Daemon-level store statistics ([`CacheStats`] with only the store
    /// fields populated).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport or protocol failure.
    pub fn stats(&self) -> Result<CacheStats, PipelineError> {
        let lines = self.round_trip("stats")?;
        Self::expect_ok(&lines, "stats")?;
        let stats_line = lines
            .iter()
            .find_map(|l| l.strip_prefix("stats "))
            .ok_or_else(|| PipelineError::exec("stats: missing stats line"))?;
        let json = unescape(stats_line, stats_line)?;
        CacheStats::from_json(&json).map_err(PipelineError::exec)
    }

    /// Asks the daemon to stop accepting, drain and exit.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure.
    pub fn shutdown(&self) -> Result<(), PipelineError> {
        let lines = self.round_trip("shutdown")?;
        Self::expect_ok(&lines, "shutdown").map(|_| ())
    }

    /// Sends one request and blocks until its report arrives.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on a request the server rejects
    /// and [`PipelineError::Exec`] on transport/serve failures (including
    /// per-request timeouts).
    pub fn request(&self, request: &ServeRequest) -> Result<ServeReply, PipelineError> {
        request.validate()?;
        let lines = self.round_trip(&request.encode())?;
        let header = Self::expect_ok(&lines, "request")?;
        let mut id = 0u64;
        let mut kind = None;
        let mut units = 0usize;
        let mut priority = None;
        let mut latency_us = 0u64;
        for token in header.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                continue;
            };
            match key {
                "id" => id = parse_num(value, "id", header)?,
                "kind" => kind = Some(RequestKind::parse(value, header)?),
                "units" => units = parse_num(value, "units", header)?,
                "priority" => priority = Priority::parse(value, header)?,
                "latency_us" => latency_us = parse_num(value, "latency_us", header)?,
                _ => {}
            }
        }
        let report_line = lines
            .iter()
            .find_map(|l| l.strip_prefix("report "))
            .ok_or_else(|| PipelineError::exec("response is missing the report line"))?;
        let stats_line = lines
            .iter()
            .find_map(|l| l.strip_prefix("stats "))
            .ok_or_else(|| PipelineError::exec("response is missing the stats line"))?;
        let stats_json = unescape(stats_line, stats_line)?;
        Ok(ServeReply {
            id,
            kind: kind.ok_or_else(|| PipelineError::exec("response is missing kind"))?,
            units,
            priority: priority
                .ok_or_else(|| PipelineError::exec("response is missing priority"))?,
            latency: Duration::from_micros(latency_us),
            report_json: unescape(report_line, report_line)?,
            stats: CacheStats::from_json(&stats_json).map_err(PipelineError::exec)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker server (fleet side)
// ---------------------------------------------------------------------------

/// Configuration for a [`WorkerServer`].
#[derive(Default)]
pub struct WorkerConfig {
    /// Shared artifact store (typically a
    /// [`crate::store::RemoteStore`] so the whole fleet shares one warm
    /// namespace); `None` = a fresh in-memory store.
    pub store: Option<Arc<dyn ArtifactStore>>,
    /// Fault injection for tests and smoke runs: after serving this many
    /// units the worker drops its connection mid-stream (no reply) and
    /// [`WorkerServer::run`] returns an error, as a crashed worker process
    /// would.
    pub die_after_units: Option<u64>,
}

struct WorkerShared {
    store: Arc<dyn ArtifactStore>,
    die_after_units: Option<u64>,
    served: AtomicU64,
    died: AtomicBool,
}

/// The fleet worker daemon: the remote analog of handing
/// [`WorkPlan::serve`] a pipe pair.  Each connection opens with a `req v1`
/// pipeline spec line; the worker rebuilds the same [`WorkPlan`] the driver
/// holds (same spec → same unit encodings) and answers unit lines with
/// unit-result lines until EOF.
///
/// Per-connection wire session (driver side documented on
/// [`SocketExecutor`]):
///
/// ```text
/// ← window=<n>              (optional: streamed-protocol negotiation)
/// → ok window=<m>           (m = n clamped to [1, 1024])
/// ← <req v1 spec line>      (or: ping / shutdown)
/// → ok units=<n>            (or "!<reason>" = spec rejected)
/// ← <unit line>             (drivers may stream several ahead)
/// → <unit-result line>      (or "!<reason>" = unit failed)
/// ```
///
/// Units are answered strictly in request order, one reply per unit line,
/// so a pipelining driver can attribute in-band `!` failures to its oldest
/// outstanding unit.  The negotiation line exists for interop: a driver
/// that receives `!`/close instead of `ok window=` knows it is talking to
/// an old lock-step worker and falls back to window 1.
pub struct WorkerServer {
    daemon: LineDaemon,
    shared: WorkerShared,
}

/// Handle to a worker spawned with [`WorkerServer::spawn`].
pub type WorkerHandle = DaemonHandle<WorkerServer>;

impl WorkerServer {
    /// Binds a worker to `addr` (e.g. `127.0.0.1:0` for an ephemeral test
    /// port).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the socket cannot be bound.
    pub fn bind(addr: &str, config: WorkerConfig) -> Result<WorkerServer, PipelineError> {
        let daemon = LineDaemon::bind(addr)?;
        let store = config
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new()) as Arc<dyn ArtifactStore>);
        Ok(WorkerServer {
            daemon,
            shared: WorkerShared {
                store,
                die_after_units: config.die_after_units,
                served: AtomicU64::new(0),
                died: AtomicBool::new(false),
            },
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// Serves driver connections until `shutdown` arrives — or until the
    /// injected death triggers — then drains: idle connections are closed
    /// and only the plan sessions in flight run to their end before this
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on a fatal accept error, and — by
    /// design — after an injected [`WorkerConfig::die_after_units`] death,
    /// so a worker *binary* exits non-zero exactly like a crashed process.
    pub fn run(self) -> Result<(), PipelineError> {
        self.daemon.run(&self.shared)?;
        if self.shared.died.load(Ordering::SeqCst) {
            return Err(PipelineError::exec(format!(
                "worker died (injected) after {} served units",
                self.shared.served.load(Ordering::Relaxed)
            )));
        }
        Ok(())
    }

    /// Binds and runs the worker on a background thread — the in-process
    /// form used by tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkerServer::bind`] failures.
    pub fn spawn(addr: &str, config: WorkerConfig) -> Result<WorkerHandle, PipelineError> {
        let server = WorkerServer::bind(addr, config)?;
        Ok(DaemonHandle::spawn(server.local_addr(), move || {
            server.run()
        }))
    }

    /// Asks the worker at `addr` to stop accepting, drain and exit.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure or an
    /// unexpected response.
    pub fn shutdown_at(addr: &str) -> Result<(), PipelineError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| io_err("set_read_timeout", e))?;
        let mut reader = BufReader::new(stream);
        writeln!(reader.get_ref(), "shutdown").map_err(|e| io_err("send", e))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| io_err("receive", e))?;
        if line.trim() == "ok shutdown" {
            Ok(())
        } else {
            Err(PipelineError::exec(format!(
                "worker shutdown: unexpected response {:?}",
                line.trim()
            )))
        }
    }
}

impl LineService for WorkerShared {
    /// The control / handshake phase answers `ping`, `shutdown` and the
    /// `window=` negotiation; a spec line opens the plan session, which
    /// owns the rest of the connection.
    fn dispatch(&self, line: &str, conn: &mut Conn) -> Flow {
        let writer = &mut conn.writer;
        if line == "ping" {
            let _ = writeln!(writer, "ok pong");
            return Flow::Continue;
        }
        if line == "shutdown" {
            let _ = writeln!(writer, "ok shutdown");
            return Flow::Shutdown;
        }
        if let Some(requested) = line.strip_prefix("window=") {
            // Streamed-protocol negotiation: echo the accepted window
            // (serving is FIFO regardless — requests queue in the socket —
            // so the cap only bounds how far drivers run ahead).
            return match requested.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    let _ = writeln!(writer, "ok window={}", n.min(1024));
                    Flow::Continue
                }
                _ => {
                    let _ = writeln!(writer, "!bad window line {line:?}");
                    Flow::Close
                }
            };
        }
        let job = match ServeRequest::decode(line)
            .and_then(|request| RequestJob::build(request, Arc::clone(&self.store)))
        {
            Ok(job) => job,
            Err(e) => {
                let _ = writeln!(writer, "!{e}");
                return Flow::Close;
            }
        };
        let plan = match job.plan() {
            Ok(plan) => plan,
            Err(e) => {
                let _ = writeln!(writer, "!{e}");
                return Flow::Close;
            }
        };
        // Batched store warm-up: seed the plan's unit-result cache with one
        // mget round trip (per batch) instead of a per-unit get during the
        // stream — the O(batches) warm-rerun path.
        plan.prefetch_units();
        let mut units = UnitLines {
            inner: &mut conn.reader,
            worker: self,
            line: String::new(),
            pos: 0,
            answering: false,
            killed: false,
        };
        if writeln!(conn.writer, "ok units={}", plan.len()).is_ok() && conn.writer.flush().is_ok() {
            let _ = plan.serve(&mut units, &mut conn.writer);
        }
        // Session over (EOF or death): publish this connection's buffered
        // write-behind puts so other fleet members (and warm reruns) see
        // them.
        self.store.flush();
        if units.killed {
            Flow::Shutdown
        } else {
            Flow::Close
        }
    }
}

/// The unit stream of one worker plan session, with
/// [`WorkerConfig::die_after_units`] applied: once the worker has answered
/// that many units, the next unit line reads as end of stream and the
/// session is marked `killed`.  The outstanding unit gets no reply and the
/// worker stops — exactly what a crashed process looks like to the driver.
struct UnitLines<'a, R> {
    inner: R,
    worker: &'a WorkerShared,
    line: String,
    pos: usize,
    /// The unit line handed out last is answered by the time the next one
    /// is asked for ([`WorkPlan::serve`] replies in lock-step).
    answering: bool,
    killed: bool,
}

impl<R: BufRead> std::io::Read for UnitLines<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for UnitLines<'_, R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() && !self.killed {
            if std::mem::take(&mut self.answering) {
                self.worker.served.fetch_add(1, Ordering::Relaxed);
            }
            self.line.clear();
            self.pos = 0;
            self.inner.read_line(&mut self.line)?;
            if !self.line.trim().is_empty() {
                let worker = self.worker;
                self.killed = worker.die_after_units.is_some_and(|limit| {
                    worker.served.load(Ordering::Relaxed) >= limit
                        && !worker.died.swap(true, Ordering::SeqCst)
                });
                self.answering = !self.killed;
                if self.killed {
                    self.line.clear();
                }
            }
        }
        Ok(&self.line.as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor as _, SerialExecutor};
    use std::sync::mpsc;

    // ---- protocol ---------------------------------------------------------

    #[test]
    fn request_encode_decode_round_trips() {
        let mut sweep = ServeRequest::sweep("vgg16 demo");
        sweep.dies = vec![3, 4];
        sweep.mc = Some(McSpec {
            trials: 48,
            seed: 7,
            trials_per_shard: 12,
        });
        sweep.corners = vec![
            CornerSpec::ideal(),
            CornerSpec {
                aging_years: 0.0,
                vt_fluctuation: 0.05,
            },
            CornerSpec {
                aging_years: 10.0,
                vt_fluctuation: 0.0,
            },
            CornerSpec::aging_vt(10.0, 0.05),
        ];
        sweep.priority = Some(Priority::Bulk);
        sweep.timeout_ms = 2500;
        let mut acc = ServeRequest::accuracy("acc run");
        acc.accuracy = Some(AccuracySpec {
            fit: true,
            ..AccuracySpec::default()
        });
        for request in [ServeRequest::ter("plain ter"), sweep, acc] {
            let line = request.encode();
            let decoded = ServeRequest::decode(&line).expect(&line);
            assert_eq!(decoded, request, "round trip of {line}");
        }
    }

    #[test]
    fn request_decode_rejects_malformed_lines() {
        for line in [
            "nope",
            "req v2 kind=ter",
            "req v1",
            "req v1 kind=warp sources=baseline corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal bogus=1",
            "req v1 kind=ter sources=baseline corners=warp:1",
            "req v1 kind=ter sources= corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal layers=x",
            "req v1 kind=sweep sources=baseline corners=ideal",
            "req v1 kind=acc sources=baseline corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal mc=1:2:3",
        ] {
            assert!(
                ServeRequest::decode(line).is_err(),
                "should reject {line:?}"
            );
        }
    }

    #[test]
    fn corner_spec_resolves_to_paper_conditions() {
        assert_eq!(CornerSpec::ideal().resolve().name, "Ideal");
        assert_eq!(
            CornerSpec::aging_vt(10.0, 0.05).resolve().name,
            OperatingCondition::aging_vt(10.0, 0.05).name
        );
        let vt = CornerSpec::decode("vt:0.03", "t").unwrap();
        assert_eq!(vt.resolve().name, OperatingCondition::vt(0.03).name);
    }

    // ---- gate -------------------------------------------------------------

    #[test]
    fn interactive_acquisition_preempts_queued_bulk() {
        let sched = Arc::new(UnitScheduler::new(1));
        let holder = sched.acquire(Priority::Bulk, None).unwrap();
        let (tx, rx) = mpsc::channel::<&'static str>();

        let bulk = {
            let sched = Arc::clone(&sched);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let permit = sched.acquire(Priority::Bulk, None).unwrap();
                tx.send("bulk").unwrap();
                drop(permit);
            })
        };
        // Give the bulk waiter time to park, then queue an interactive one.
        std::thread::sleep(Duration::from_millis(50));
        let interactive = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let permit = sched.acquire(Priority::Interactive, None).unwrap();
                tx.send("interactive").unwrap();
                // Hold briefly so the bulk thread demonstrably waited.
                std::thread::sleep(Duration::from_millis(20));
                drop(permit);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        drop(holder);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "interactive"
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "bulk");
        interactive.join().unwrap();
        bulk.join().unwrap();
    }

    #[test]
    fn gate_acquisition_times_out_when_slots_are_held() {
        let sched = UnitScheduler::new(1);
        let _holder = sched.acquire(Priority::Bulk, None).unwrap();
        let deadline = Some(Instant::now() + Duration::from_millis(30));
        let Err(err) = sched.acquire(Priority::Interactive, deadline) else {
            panic!("acquire should time out while the only slot is held");
        };
        assert!(err.to_string().contains("timed out"), "{err}");
        // The timed-out interactive waiter must not leave the gate counting
        // it, or bulk work would starve forever.
        assert_eq!(lock_ok(&sched.gate).interactive_waiting, 0);
    }

    // ---- single-flight ----------------------------------------------------

    fn tiny_plan_fixture() -> (ReadPipeline, Vec<LayerWorkload>) {
        let pipeline = ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        let workloads = vgg16_workloads_prefix(&config, 1);
        (pipeline, workloads)
    }

    #[test]
    fn joining_a_published_flight_counts_an_inflight_hit() {
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let unit = plan.units()[0].clone();
        let sched = UnitScheduler::new(1);
        let key = plan.flight_key(&unit);

        // Act as the leader by hand: mark the flight running, park a real
        // waiter on it, then publish a sentinel histogram and check the
        // waiter re-wraps it with its own indices and counts an in-flight
        // hit instead of computing.
        lock_ok(&sched.flights).insert(
            key.clone(),
            FlightState::Running {
                epoch: 0,
                waiters: 0,
            },
        );
        let sentinel = DepthHistogram::new();
        let (result, joined_hits) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let inflight = AtomicU64::new(0);
                let result = sched.run_unit(&plan, &unit, Priority::Interactive, None, &inflight);
                (result, inflight.load(Ordering::Relaxed))
            });
            loop {
                {
                    let flights = lock_ok(&sched.flights);
                    if matches!(
                        flights.get(&key),
                        Some(FlightState::Running { waiters: 1, .. })
                    ) {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            {
                let mut flights = lock_ok(&sched.flights);
                flights.insert(
                    key.clone(),
                    FlightState::Done {
                        epoch: 0,
                        value: Ok(FlightValue::Hist(sentinel.clone())),
                        remaining: 1,
                    },
                );
            }
            sched.flights_cv.notify_all();
            handle.join().unwrap()
        });
        let WorkUnit::Histogram { cell, pair } = unit else {
            panic!("expected a histogram unit");
        };
        assert_eq!(
            result.unwrap(),
            UnitResult::Histogram {
                cell,
                pair,
                hist: sentinel
            }
        );
        assert_eq!(joined_hits, 1);
        // The last collector removes the Done entry.
        assert!(lock_ok(&sched.flights).is_empty());
    }

    #[test]
    fn run_plan_units_matches_direct_execution() {
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let sched = UnitScheduler::new(2);
        let inflight = AtomicU64::new(0);
        let results = sched
            .run_plan_units(&plan, Priority::Interactive, None, &inflight)
            .unwrap();
        assert_eq!(results.len(), plan.len());
        let report = plan.aggregate(results).unwrap().into_ter().unwrap();
        let direct = pipeline.run_ter("vgg16", &workloads).unwrap();
        assert_eq!(report.to_json(), direct.to_json());
        assert_eq!(inflight.load(Ordering::Relaxed), 0);
    }

    // ---- end-to-end -------------------------------------------------------

    #[test]
    fn daemon_serves_ping_request_and_shuts_down() {
        let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = handle.client();
        client.ping().unwrap();

        let mut request = ServeRequest::ter("serve-e2e");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        let reply = client.request(&request).unwrap();
        assert_eq!(reply.kind, RequestKind::Ter);
        assert_eq!(reply.priority, Priority::Interactive);
        assert_eq!(reply.units, 1);
        assert!(
            reply.report_json.contains("serve-e2e"),
            "{}",
            reply.report_json
        );
        assert_eq!(reply.stats.hist_misses, 1);
        assert_eq!(reply.stats.inflight_hits, 0);

        // A repeat of the same request is served from the daemon store:
        // zero fresh histogram computations.
        let warm = client.request(&request).unwrap();
        assert_eq!(warm.report_json, reply.report_json);
        assert_eq!(warm.stats.hist_misses, 0);
        assert!(warm.stats.disk_hits > 0);

        let daemon_stats = client.stats().unwrap();
        assert!(daemon_stats.store_writes > 0);

        let bad = client.request(&ServeRequest {
            sources: Vec::new(),
            ..ServeRequest::ter("bad")
        });
        assert!(bad.is_err());

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // ---- deadline + waiter-accounting pins --------------------------------

    #[test]
    fn expired_deadline_never_claims_a_free_slot() {
        // Bug pin: `acquire` used to check the deadline only while blocked,
        // so an already-expired request with a free slot started computing
        // anyway.
        let sched = UnitScheduler::new(4);
        let expired = Some(Instant::now() - Duration::from_millis(1));
        let err = sched
            .acquire(Priority::Interactive, expired)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        // The aborted acquisition left the gate untouched.
        let gate = lock_ok(&sched.gate);
        assert_eq!(gate.active, 0);
        assert_eq!(gate.interactive_waiting, 0);
    }

    #[test]
    fn deadline_is_checked_between_units() {
        // Bug pin: once admitted, a leader used to run every remaining unit
        // with no deadline check between them.
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let sched = UnitScheduler::new(1);
        let inflight = AtomicU64::new(0);
        let expired = Some(Instant::now() - Duration::from_millis(1));
        let err = sched
            .run_plan_units(&plan, Priority::Interactive, expired, &inflight)
            .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn abandoned_waiter_does_not_touch_a_successor_flights_accounting() {
        // Bug pin: a waiter parked on a flight whose leader aborted used to
        // decrement whatever state *currently* held the key — if a new
        // generation had re-taken it, the waiter corrupted (underflowed)
        // counters it never registered on.
        let sched = UnitScheduler::new(1);
        let key = "epoch-test".to_string();
        std::thread::scope(|scope| {
            // Generation 1: this thread leads.
            assert!(matches!(
                sched.join_or_lead(&key, None).unwrap(),
                Role::Leader
            ));
            let deadline = Some(Instant::now() + Duration::from_millis(200));
            let (sched_ref, key_ref) = (&sched, &key);
            let waiter = scope.spawn(move || sched_ref.join_or_lead(key_ref, deadline));
            // Wait until the waiter registered on generation 1.
            loop {
                {
                    let flights = lock_ok(&sched.flights);
                    if matches!(
                        flights.get(&key),
                        Some(FlightState::Running { waiters: 1, .. })
                    ) {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // Generation 1 aborts and generation 2 re-takes the key before
            // the waiter wakes.
            {
                let mut flights = lock_ok(&sched.flights);
                flights.remove(&key);
                let epoch = sched.flight_epoch.fetch_add(1, Ordering::Relaxed);
                flights.insert(key.clone(), FlightState::Running { epoch, waiters: 0 });
            }
            sched.flights_cv.notify_all();
            // The stale waiter must come back as Retry without panicking or
            // decrementing generation 2's counter.
            assert!(matches!(waiter.join().unwrap().unwrap(), Role::Retry));
            let flights = lock_ok(&sched.flights);
            assert!(matches!(
                flights.get(&key),
                Some(FlightState::Running { waiters: 0, .. })
            ));
        });
    }

    #[test]
    fn stale_waiter_joins_a_successor_publish_without_decrementing_it() {
        // Same race, Done flavor: the successor generation published with
        // `remaining` counting *its* waiters; a stale waiter clones the
        // value but must not decrement (which used to free the entry early
        // or underflow).
        let sched = UnitScheduler::new(1);
        let key = "epoch-done-test".to_string();
        std::thread::scope(|scope| {
            assert!(matches!(
                sched.join_or_lead(&key, None).unwrap(),
                Role::Leader
            ));
            let waiter = scope.spawn(|| sched.join_or_lead(&key, None));
            loop {
                {
                    let flights = lock_ok(&sched.flights);
                    if matches!(
                        flights.get(&key),
                        Some(FlightState::Running { waiters: 1, .. })
                    ) {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // Generation 1 aborts; generation 2 leads and publishes Done
            // with 2 registered waiters of its own.
            {
                let mut flights = lock_ok(&sched.flights);
                flights.remove(&key);
                let epoch = sched.flight_epoch.fetch_add(1, Ordering::Relaxed);
                flights.insert(
                    key.clone(),
                    FlightState::Done {
                        epoch,
                        value: Ok(FlightValue::Hist(DepthHistogram::new())),
                        remaining: 2,
                    },
                );
            }
            sched.flights_cv.notify_all();
            let joined = waiter.join().unwrap().unwrap();
            assert!(matches!(joined, Role::Joined(Ok(FlightValue::Hist(_)))));
            let flights = lock_ok(&sched.flights);
            assert!(matches!(
                flights.get(&key),
                Some(FlightState::Done { remaining: 2, .. })
            ));
        });
    }

    #[test]
    fn no_timeout_sentinel_round_trips_and_disables_the_server_default() {
        let mut request = ServeRequest::ter("no-timeout");
        request.timeout_ms = NO_TIMEOUT;
        let encoded = request.encode();
        assert!(encoded.contains("timeout_ms=none"), "{encoded}");
        let decoded = ServeRequest::decode(&encoded).unwrap();
        assert_eq!(decoded.timeout_ms, NO_TIMEOUT);
        assert_eq!(decoded, request);

        // End-to-end: a server whose default timeout already expired still
        // serves a NO_TIMEOUT request (0 would have inherited the default
        // and timed out between units).
        let handle = ServeServer::spawn(
            "127.0.0.1:0",
            ServerConfig {
                default_timeout_ms: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = handle.client();
        let mut request = ServeRequest::ter("no-timeout");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        request.timeout_ms = NO_TIMEOUT;
        let reply = client.request(&request).unwrap();
        assert_eq!(reply.units, 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // ---- worker server ----------------------------------------------------

    #[test]
    fn worker_rejects_a_bad_spec_in_band() {
        let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(reader.get_ref(), "req v1 kind=nonsense").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with('!'), "{line}");
        WorkerServer::shutdown_at(&handle.addr().to_string()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn worker_serves_a_plan_over_the_socket_protocol() {
        let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();

        let mut request = ServeRequest::ter("worker-e2e");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        // Driver side: the same spec expands to the same plan.
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::new());
        let job = RequestJob::build(request.clone(), store).unwrap();
        let plan = job.plan().unwrap();
        let serial = SerialExecutor.execute(&plan, 0..plan.len()).unwrap();

        let executor = SocketExecutor::new(request.encode(), [handle.addr().to_string()]);
        let remote = executor.execute(&plan, 0..plan.len()).unwrap();
        assert_eq!(remote, serial);
        assert_eq!(executor.stats().worker_deaths(), 0);
        assert_eq!(executor.stats().completed_units(), plan.len() as u64);

        WorkerServer::shutdown_at(&handle.addr().to_string()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn request_timeout_surfaces_as_a_server_error() {
        let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = handle.client();
        // Saturate the only flight key path cheaply: a deadline in the past
        // cannot admit any unit.
        let mut request = ServeRequest::ter("deadline");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        request.timeout_ms = 1;
        // The request may still succeed when the unit finishes within 1ms of
        // admission; accept either a timeout error or success, but a timeout
        // must be a clean protocol error, not a hang.
        match client.request(&request) {
            Ok(reply) => assert_eq!(reply.units, 1),
            Err(e) => assert!(e.to_string().contains("timed out"), "{e}"),
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
