//! Unified staged-pipeline API for the READ reproduction.
//!
//! The paper's contribution is a *flow*: cluster a layer's output channels,
//! reorder its input channels, then measure the timing error rate and the
//! network accuracy under PVTA stress.  This crate packages that flow as a
//! single composable object, [`ReadPipeline`], built from three trait-based
//! stages:
//!
//! * [`ScheduleSource`] — turns a weight matrix into a compute schedule.
//!   Implemented by [`Baseline`], by [`read_core::ReadOptimizer`] itself,
//!   and by the paper-set [`Algorithm`] enum; custom heuristics implement
//!   the same trait.
//! * [`ErrorModel`] — turns a triggered-depth histogram into a TER estimate
//!   at an operating condition.  The hierarchy covers the paper's three
//!   error-analysis modes: [`DelayErrorModel`] (closed-form analytic, the
//!   default), [`MonteCarloErrorModel`] (seeded sampling, mean/stddev
//!   aggregation) and [`VariationErrorModel`] (per-PE process variation of
//!   one die); reports carry the optional `ter_stddev`/`corner` fields they
//!   produce.
//! * [`Evaluator`] — measures accuracy under per-layer BERs
//!   ([`TopKEvaluator`] wraps [`qnn::fault::evaluate_topk`]).
//!
//! Every experiment first expands into a [`WorkPlan`] — a typed, enumerable
//! list of position-independent [`WorkUnit`]s with a deterministic text
//! wire encoding — and then runs on an [`Executor`]: [`SerialExecutor`],
//! [`ThreadExecutor`] (scoped worker threads) or [`SubprocessExecutor`]
//! (worker processes speaking the unit-id/unit-result protocol over
//! stdin/stdout).  The [`Aggregator`] folds any permutation or partition of
//! unit results back into typed, deterministically-serializable
//! [`LayerReport`]/[`NetworkReport`]/[`AccuracyReport`]/[`SweepReport`]
//! results, byte-identical across execution strategies.  Schedules and
//! histograms are cached under seed-aware keys so repeated corners never
//! re-optimize or re-simulate — and the caches can be backed by a
//! content-addressed [`ArtifactStore`] ([`MemoryStore`] for cross-pipeline
//! sharing, [`DiskStore`] for persistence across processes and runs), which
//! also memoizes whole work-unit results so a rerun of any plan is pure
//! aggregation (see [`store`]).
//!
//! The [`sweep`] subsystem evaluates one pipeline across a whole grid of
//! operating corners and silicon dies in a single run: a [`SweepPlan`]
//! (conditions × dies, plus a shardable Monte-Carlo trial budget) expands
//! into the same work units and produces a [`SweepReport`] whose per-cell
//! rows are byte-identical to the equivalent single-condition runs.
//!
//! # Example
//!
//! ```
//! use read_pipeline::prelude::*;
//!
//! # fn main() -> Result<(), read_pipeline::PipelineError> {
//! let pipeline = ReadPipeline::builder()
//!     .source(Algorithm::Baseline)
//!     .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
//!     .condition(OperatingCondition::aging_vt(10.0, 0.05))
//!     .parallel()
//!     .build()?;
//!
//! let config = WorkloadConfig { pixels_per_layer: 1, ..Default::default() };
//! let workloads: Vec<_> = vgg16_workloads(&config).into_iter().take(2).collect();
//! let report = pipeline.run_ter("vgg16", &workloads)?;
//! let (geo, max) = report.ter_reduction("cluster-then-reorder[sign_first]", "baseline");
//! assert!(geo >= 1.0 && max >= geo);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod exec;
pub mod executor;
pub mod plan;
pub mod report;
pub mod serve;
pub mod stage;
pub mod store;
pub mod sweep;
pub mod workload;

mod daemon;
mod pipeline;

pub use cache::{
    CacheStats, HistogramCheck, HistogramKey, KeyCheck, ScheduleKey, UnitCheck, UnitKey,
};
pub use daemon::DaemonHandle;
pub use error::PipelineError;
pub use executor::{
    Executor, FlakyExecutor, FleetStats, SerialExecutor, SocketExecutor, SubprocessExecutor,
    ThreadExecutor,
};
pub use pipeline::{ReadPipeline, ReadPipelineBuilder};
pub use plan::{Aggregator, PlanOutput, UnitLedger, UnitResult, WorkPlan, WorkUnit};
pub use report::{
    AccuracyPoint, AccuracyReport, DataflowNetworkReport, DataflowRow, LayerReport, NetworkReport,
};
pub use serve::{
    AccuracySpec, CornerSpec, McSpec, ModelFamily, Priority, RequestKind, ServeClient, ServeHandle,
    ServeReply, ServeRequest, ServeServer, ServerConfig, SourceSpec, WorkerConfig, WorkerHandle,
    WorkerServer, NO_TIMEOUT,
};
pub use stage::{
    Algorithm, Baseline, DataflowProber, DelayErrorModel, ErrorModel, Evaluator, EventProber,
    MonteCarloErrorModel, ScheduleSource, TopKEvaluator, VariationErrorModel,
};
pub use store::{
    ArtifactStore, DiskStore, MemoryStore, RemoteStore, StoreHandle, StoreRequest, StoreServer,
    StoreStats,
};
pub use sweep::{DieSpec, MonteCarloSweep, SweepCell, SweepPlan, SweepReport, WorstCase};
pub use workload::{
    resnet18_workloads, resnet18_workloads_prefix, resnet34_workloads, resnet34_workloads_prefix,
    vgg16_workloads, vgg16_workloads_prefix, LayerWorkload, WorkloadConfig,
};

/// Everything a pipeline consumer usually needs.
pub mod prelude {
    pub use crate::cache::CacheStats;
    pub use crate::error::PipelineError;
    pub use crate::executor::{
        Executor, FlakyExecutor, FleetStats, SerialExecutor, SocketExecutor, SubprocessExecutor,
        ThreadExecutor,
    };
    pub use crate::pipeline::{ReadPipeline, ReadPipelineBuilder};
    pub use crate::plan::{Aggregator, PlanOutput, UnitLedger, UnitResult, WorkPlan, WorkUnit};
    pub use crate::report::{
        AccuracyPoint, AccuracyReport, DataflowNetworkReport, DataflowRow, LayerReport,
        NetworkReport,
    };
    pub use crate::serve::{
        AccuracySpec, CornerSpec, McSpec, ModelFamily, Priority, RequestKind, ServeClient,
        ServeHandle, ServeReply, ServeRequest, ServeServer, ServerConfig, SourceSpec, WorkerConfig,
        WorkerHandle, WorkerServer, NO_TIMEOUT,
    };
    pub use crate::stage::{
        Algorithm, Baseline, DataflowProber, DelayErrorModel, ErrorModel, Evaluator, EventProber,
        MonteCarloErrorModel, ScheduleSource, TopKEvaluator, VariationErrorModel,
    };
    pub use crate::store::{
        ArtifactStore, DiskStore, MemoryStore, RemoteStore, StoreHandle, StoreRequest, StoreServer,
        StoreStats,
    };
    pub use crate::sweep::{
        DieSpec, MonteCarloSweep, SweepCell, SweepPlan, SweepReport, WorstCase,
    };
    pub use crate::workload::{
        resnet18_workloads, resnet18_workloads_prefix, resnet34_workloads,
        resnet34_workloads_prefix, vgg16_workloads, vgg16_workloads_prefix, LayerWorkload,
        WorkloadConfig,
    };
    pub use read_core::{ClusteringMode, ReadConfig, ReadOptimizer, SortCriterion};
    pub use timing::{OperatingCondition, OperatingCorner, TerEstimate, Variation};
}
