//! Unified uncertainty-serving engine.
//!
//! The paper's deliverable is a *deployed* MC-dropout predictor:
//! FPGA-style quantised inference with calibrated uncertainty, behind a
//! single inference entry point (in the lineage of the FPGA BNN
//! accelerators it cites). This crate is that entry point for the
//! reproduction: an [`UncertaintyEngine`] owns the network, a warm
//! [`Workspace`] and a persistent per-worker clone cache
//! ([`nds_dropout::mc::McCloneCache`]), and serves typed
//! [`PredictRequest`] → [`PredictResponse`] calls over three backends:
//!
//! | Backend | Datapath | Activation tap |
//! |---------|----------|----------------|
//! | [`Backend::Float32`] | full-precision float | none |
//! | [`Backend::Quantized`] | fake-quantised fixed point | `quantized::quantize_activation` |
//! | [`Backend::HwSim`] | fixed point + modelled hardware timing | `quantized::quantize_activation` |
//!
//! All three run through *one* request driver. A backend only picks the
//! activation tap; the execution order picks the walker: the tapped
//! round-major walker (`predict_probs_tapped_ws`) on the round harness
//! ([`nds_dropout::mc::mc_sample_rounds_into`]), or the fused
//! sample-major walker (`predict_probs_fused_into_ws`) on the fused
//! harness ([`nds_dropout::mc::mc_sample_rounds_fused_into`]). Both
//! walkers quantise and inject faults at the same points, so the
//! determinism guarantees are shared: every sample's dropout masks derive
//! only from `(seed, sample index)`, and results are **bit-identical**
//! for any worker count, any chunk size and either order.
//!
//! # Execution model
//!
//! * **Chunked / streaming.** Arbitrarily large request batches are
//!   executed in engine-chosen micro-batches (override with
//!   [`EngineBuilder::chunk_size`]); per-item mask streams make chunked
//!   results byte-identical to one-shot execution (property-tested at
//!   the workspace root).
//! * **Sample-major or round-major.** [`EngineBuilder::execution`]
//!   picks the MC schedule: one fused `(S·B)`-row pass per chunk with
//!   precomputed per-sample mask banks (the default,
//!   [`Execution::SampleMajor`]), or S sequential passes fanned out
//!   over the engine's workers ([`Execution::RoundMajor`]). The two
//!   orders serve **byte-identical** responses, so golden fixtures and
//!   downstream consumers never notice the switch. Requests that need
//!   round granularity (a latency budget that may degrade, exit-head
//!   walks) run round-major whatever the engine's order.
//! * **Allocation-free steady state.** The serial MC path has been
//!   allocation-free since PR 3; the engine extends that to the
//!   *parallel* path: worker clones (copy-on-write weights) and their
//!   workspaces persist across rounds, keyed by weight identity
//!   (`SharedTensor::ptr_eq`) with batch-norm staleness detection, so a
//!   steady-state `predict` performs zero heap allocations after
//!   warm-up (pinned by `tests/alloc_free.rs`). Recycle responses via
//!   [`UncertaintyEngine::recycle`] to complete the loop.
//! * **Uncertainty on demand.** [`UncertaintyFlags`] select which
//!   diagnostics (predictive entropy, mutual information, predictive
//!   variance) are computed from the per-sample probabilities; the
//!   mean distribution is always returned.
//!
//! # Failure handling
//!
//! `predict` never panics on bad input; every failure is a typed
//! [`EngineError`], split into two families:
//!
//! * **Rejects** — the request was malformed and a retry cannot help:
//!   shapeless inputs ([`EngineError::BadShape`]), NaN/Inf input values
//!   ([`EngineError::NonFiniteInput`], caught up front so corruption
//!   never reaches the datapath), inconsistent configuration
//!   ([`EngineError::BadRequest`]).
//! * **Faults** — the request was fine but serving it hit trouble:
//!   non-finite probabilities out of a pass
//!   ([`EngineError::NonFiniteOutput`]; the engine refuses to average
//!   corrupted rounds into the response) and worker-pool task deaths
//!   ([`EngineError::Pool`]). Pool faults are *transient*
//!   ([`EngineError::is_transient`]): the pool survives and respawns,
//!   and [`EngineBuilder::transient_retries`] makes the engine retry
//!   the request itself — invalidating the clone cache first, so a
//!   successful retry is byte-identical to a run that never faulted.
//!
//! On any error the request's working buffers are recycled, the engine
//! stays serviceable, and no partial result escapes.
//!
//! Deadline-aware serving is the graceful middle ground:
//! [`PredictRequest::with_latency_budget`] lets the engine *degrade*
//! (average fewer MC rounds — never below one — reported via
//! [`PredictResponse::achieved_samples`] / [`PredictResponse::degraded`])
//! instead of either blowing the deadline or failing outright. The
//! rounds that are averaged keep their unbudgeted bytes exactly.
//!
//! # Examples
//!
//! ```
//! use nds_engine::{EngineBuilder, PredictRequest, UncertaintyFlags};
//! use nds_nn::layers::{Flatten, Linear, Sequential};
//! use nds_tensor::rng::Rng64;
//! use nds_tensor::{Shape, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new();
//! net.push(Box::new(Flatten::new()));
//! net.push(Box::new(Linear::new(4, 3, true, &mut rng)));
//!
//! let mut engine = EngineBuilder::new(net).samples(4).build();
//! let images = Tensor::zeros(Shape::d4(2, 1, 2, 2));
//! let request = PredictRequest::new(&images).with_outputs(UncertaintyFlags::ENTROPY);
//! let response = engine.predict(&request)?;
//! assert_eq!(response.probs.shape().dims(), &[2, 3]);
//! assert_eq!(response.entropy.as_ref().map(Vec::len), Some(2));
//! engine.recycle(response); // hand the buffers back for the next round
//! # Ok::<(), nds_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod quantized;

use nds_adaptive::exits::predict_probs_exits_ws;
use nds_adaptive::{escalation_mask, AdaptiveError, AdaptivePolicy, EscalationPolicy};
use nds_dropout::mc::{mc_sample_rounds_fused_into, mc_sample_rounds_into, McCloneCache};
use nds_metrics::entropy_nats;
use nds_nn::layers::Sequential;
use nds_nn::train::{
    output_classes, predict_probs_fused_into_ws, predict_probs_gathered_ws,
    predict_probs_tapped_ws, ActivationTap,
};
use nds_nn::{Mode, NnError};
use nds_quant::FixedFormat;
use nds_tensor::{Shape, Tensor, TensorError, Workspace};
use std::error::Error as StdError;
use std::fmt;
use std::ops::BitOr;
use std::sync::Mutex;
use std::time::Instant;

/// Default micro-batch size when the builder leaves chunking to the
/// engine (the paper's evaluation batch scale; results are
/// byte-invariant to this choice, it only tunes working-set size).
const DEFAULT_CHUNK: usize = 32;

/// Errors from engine construction and serving.
///
/// The taxonomy follows the failure-handling policy (crate docs): the
/// caller can tell *reject* errors (their request was malformed —
/// [`BadRequest`](EngineError::BadRequest),
/// [`BadShape`](EngineError::BadShape),
/// [`NonFiniteInput`](EngineError::NonFiniteInput)) from *fault* errors
/// (the engine hit trouble serving a well-formed request —
/// [`NonFiniteOutput`](EngineError::NonFiniteOutput),
/// [`Pool`](EngineError::Pool), [`Nn`](EngineError::Nn)). Only
/// [`Pool`](EngineError::Pool) is transient; everything else will fail
/// the same way on retry.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An underlying network/tensor operation failed.
    Nn(NnError),
    /// The request or engine configuration was inconsistent.
    BadRequest(String),
    /// The input tensor's shape cannot be served (e.g. a rank-0 scalar
    /// with no batch dimension).
    BadShape(String),
    /// The input contained a NaN or infinity at flat element `index`.
    /// Rejected up front: non-finite inputs silently corrupt every
    /// downstream probability and uncertainty diagnostic.
    NonFiniteInput {
        /// Flat index of the first non-finite input element.
        index: usize,
    },
    /// A Monte-Carlo pass produced a NaN or infinite probability —
    /// a numeric fault in the datapath (or an injected one). The
    /// response was discarded rather than served.
    NonFiniteOutput {
        /// Index of the first MC sample whose output was non-finite.
        sample: usize,
    },
    /// A worker-pool task died mid-request; the request's buffers were
    /// discarded. Transient: the pool survives, and the engine retries
    /// automatically when [`EngineBuilder::transient_retries`] is set.
    Pool(nds_tensor::parallel::PoolError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Nn(e) => write!(f, "network error: {e}"),
            EngineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EngineError::BadShape(msg) => write!(f, "bad input shape: {msg}"),
            EngineError::NonFiniteInput { index } => {
                write!(f, "non-finite input value at flat index {index}")
            }
            EngineError::NonFiniteOutput { sample } => {
                write!(f, "non-finite probabilities in MC sample {sample}")
            }
            EngineError::Pool(e) => write!(f, "{e}"),
        }
    }
}

impl StdError for EngineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            EngineError::Nn(e) => Some(e),
            EngineError::Pool(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for EngineError {
    fn from(e: NnError) -> Self {
        match e {
            // Surface pool faults at the top level so callers can match
            // on transience without digging through the Nn wrapper.
            NnError::Pool(p) => EngineError::Pool(p),
            other => EngineError::Nn(other),
        }
    }
}

impl EngineError {
    /// Whether a retry of the same request could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Pool(_))
    }
}

impl From<TensorError> for EngineError {
    fn from(e: TensorError) -> Self {
        EngineError::Nn(NnError::Tensor(e))
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Which uncertainty diagnostics a [`PredictRequest`] asks for.
///
/// Combine with `|`: `UncertaintyFlags::ENTROPY | UncertaintyFlags::VARIANCE`.
/// The mean predictive distribution is always computed; flags only
/// control the optional per-input scalar diagnostics derived from the
/// per-sample probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UncertaintyFlags(u8);

impl UncertaintyFlags {
    /// Mean probabilities only.
    pub const NONE: UncertaintyFlags = UncertaintyFlags(0);
    /// Predictive entropy (nats) of each input's mean distribution —
    /// the quantity averaged into the paper's aPE metric.
    pub const ENTROPY: UncertaintyFlags = UncertaintyFlags(1);
    /// Mutual information (BALD): `H(mean) − mean(H(sample))`, the
    /// epistemic part of the predictive uncertainty.
    pub const MUTUAL_INFORMATION: UncertaintyFlags = UncertaintyFlags(2);
    /// Variance of the class probabilities across samples, averaged
    /// over classes.
    pub const VARIANCE: UncertaintyFlags = UncertaintyFlags(4);
    /// Every diagnostic.
    pub const ALL: UncertaintyFlags = UncertaintyFlags(7);

    /// `true` when every flag in `other` is set in `self`.
    pub fn contains(self, other: UncertaintyFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` when no diagnostic is requested.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for UncertaintyFlags {
    type Output = UncertaintyFlags;
    fn bitor(self, rhs: UncertaintyFlags) -> UncertaintyFlags {
        UncertaintyFlags(self.0 | rhs.0)
    }
}

/// A hardware platform the [`Backend::HwSim`] backend emulates: the
/// fixed-point datapath plus a modelled per-image latency, reported in
/// [`PredictTiming::modelled_latency_ms`].
///
/// Build one by hand, or from the analytical models in `nds-hw`
/// (`ComputePlatform::sim_platform`, `AcceleratorModel::sim_platform`) —
/// that crate sits above this one, so the adapter lives there.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlatform {
    /// Display name (e.g. `"XCKU115 @ 181 MHz"`).
    pub name: String,
    /// Fixed-point format of the emulated datapath.
    pub format: FixedFormat,
    /// Modelled latency of one full S-sample MC inference for a single
    /// image (milliseconds).
    pub latency_ms_per_image: f64,
}

/// Which datapath the engine serves predictions through.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// Full-precision float MC-dropout (the software reference).
    Float32,
    /// Fake-quantised fixed-point datapath: input and inter-layer
    /// activations rounded to `format`, softmax at full precision.
    /// Quantise the weights first (`nds_hw::simulator::quantize_network`)
    /// for a faithful emulation.
    Quantized {
        /// The 16-bit fixed-point format (e.g. [`nds_quant::Q7_8`]).
        format: FixedFormat,
    },
    /// The quantised datapath plus a modelled hardware latency in the
    /// response timing — serving as the FPGA/CPU/GPU stand-in.
    HwSim(SimPlatform),
}

impl Backend {
    /// The paper's Q7.8 quantised datapath.
    pub fn quantized_q78() -> Backend {
        Backend::Quantized {
            format: nds_quant::Q7_8,
        }
    }

    /// A quantised backend from a fraction-bit count (`1 + (15-frac) + frac`
    /// bit fixed point).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadRequest`] when `frac_bits > 15`.
    pub fn quantized(frac_bits: u32) -> Result<Backend> {
        if frac_bits > 15 {
            return Err(EngineError::BadRequest(format!(
                "frac_bits {frac_bits} does not fit a 16-bit signed container"
            )));
        }
        // Panic-audit: invariant-only. The range check above guarantees
        // `15 - frac_bits + frac_bits == 15`, the only way `new` fails.
        let format =
            FixedFormat::new(15 - frac_bits, frac_bits).expect("int + frac == 15 by construction");
        Ok(Backend::Quantized { format })
    }

    /// Short static label for logs and timing rows.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Float32 => "float32",
            Backend::Quantized { .. } => "quantized",
            Backend::HwSim(_) => "hw-sim",
        }
    }

    /// The fixed-point format of a quantised datapath, if any.
    fn format(&self) -> Option<FixedFormat> {
        match self {
            Backend::Float32 => None,
            Backend::Quantized { format } => Some(*format),
            Backend::HwSim(platform) => Some(platform.format),
        }
    }
}

/// How the engine schedules the S Monte-Carlo samples of one request.
///
/// Both orders serve **byte-identical** responses — every mask derives
/// from `(seed, slot, sample, item)` regardless of scheduling — so this
/// knob trades nothing but throughput:
///
/// * [`Execution::RoundMajor`] runs S sequential passes over the batch,
///   fanning samples out across the worker pool. It is the historical
///   path and the only granularity the latency-budget degradation loop
///   can use (degradation drops whole rounds).
/// * [`Execution::SampleMajor`] (default) folds the sample dimension
///   into the batch: one `(S·B)`-row pass per chunk with precomputed
///   per-sample mask banks applied in place ([`nds_dropout::MaskBank`]).
///   Layers before the first stochastic one run **once** instead of S
///   times, every gemm widens by S, and steady-state rounds reuse the
///   banks. Parallelism comes from the kernels, not from a sample
///   fan-out, so the engine's worker split does not apply. Budgeted
///   requests that can degrade, and exit-head walks, run round-major
///   (the fused round is all-or-nothing); gated requests keep their
///   pilot and gathered passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// S sequential passes, one per MC sample (the historical order).
    RoundMajor,
    /// One fused `(S·B)`-row pass per chunk with per-sample mask banks.
    #[default]
    SampleMajor,
}

impl Execution {
    /// Short static label for logs and timing rows.
    pub fn label(&self) -> &'static str {
        match self {
            Execution::RoundMajor => "round-major",
            Execution::SampleMajor => "sample-major",
        }
    }
}

impl fmt::Display for Execution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Execution {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "round-major" | "round" | "serial" => Ok(Execution::RoundMajor),
            "sample-major" | "sample" | "fused" => Ok(Execution::SampleMajor),
            other => Err(EngineError::BadRequest(format!(
                "unknown execution mode `{other}` (expected `round-major` or `sample-major`)"
            ))),
        }
    }
}

/// One typed prediction request: the input batch plus the uncertainty
/// diagnostics to compute.
#[derive(Debug, Clone, Copy)]
pub struct PredictRequest<'a> {
    /// Input batch, NCHW.
    pub images: &'a Tensor,
    /// Which optional diagnostics to derive from the per-sample
    /// probabilities.
    pub outputs: UncertaintyFlags,
    /// Optional serving deadline in milliseconds. When set, the engine
    /// degrades gracefully instead of blowing the budget: MC samples
    /// run one round at a time, and once the projected cost of the next
    /// round exceeds the budget the engine stops early and averages the
    /// rounds it finished (never fewer than one). The response reports
    /// what happened in [`PredictResponse::achieved_samples`] and
    /// [`PredictResponse::degraded`]. `None` (the default) always runs
    /// all S samples.
    pub latency_budget_ms: Option<f64>,
}

impl<'a> PredictRequest<'a> {
    /// A request for the mean probabilities only.
    pub fn new(images: &'a Tensor) -> Self {
        PredictRequest {
            images,
            outputs: UncertaintyFlags::NONE,
            latency_budget_ms: None,
        }
    }

    /// Adds uncertainty diagnostics to the request.
    pub fn with_outputs(mut self, outputs: UncertaintyFlags) -> Self {
        self.outputs = outputs;
        self
    }

    /// Sets a serving deadline (milliseconds); see
    /// [`PredictRequest::latency_budget_ms`].
    pub fn with_latency_budget(mut self, budget_ms: f64) -> Self {
        self.latency_budget_ms = Some(budget_ms);
        self
    }
}

/// Execution metadata of one [`UncertaintyEngine::predict`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictTiming {
    /// Backend label (`"float32"`, `"quantized"`, `"hw-sim"`).
    pub backend: &'static str,
    /// MC samples averaged.
    pub samples: usize,
    /// Worker split used for the sample fan-out.
    pub workers: usize,
    /// Micro-batch size chosen by the engine.
    pub chunk_size: usize,
    /// Number of micro-batches each pass streamed through.
    pub chunks: usize,
    /// Wall-clock seconds spent serving the request.
    pub elapsed_s: f64,
    /// Modelled hardware latency for the whole batch ([`Backend::HwSim`]
    /// only): `latency_ms_per_image × batch`.
    pub modelled_latency_ms: Option<f64>,
}

/// The response to a [`PredictRequest`]: the predictive distribution,
/// the requested diagnostics, and execution timing.
///
/// Hand the response back to the engine via
/// [`UncertaintyEngine::recycle`] when its buffers are no longer needed;
/// the next round then reuses them instead of allocating.
#[derive(Debug, Clone)]
pub struct PredictResponse {
    /// Mean softmax probabilities `[n, classes]` across the S samples —
    /// the BayesNN's predictive distribution.
    pub probs: Tensor,
    /// Predictive entropy (nats) per input, when requested.
    pub entropy: Option<Vec<f64>>,
    /// Mutual information (BALD) per input, when requested.
    pub mutual_information: Option<Vec<f64>>,
    /// Predictive variance per input, when requested.
    pub variance: Option<Vec<f64>>,
    /// MC samples actually averaged into `probs`. Equal to the
    /// configured S unless a latency budget forced early stopping, or an
    /// adaptive escalation gate kept every row at the pilot count (then
    /// this is the **maximum** over [`PredictResponse::row_samples`]).
    pub achieved_samples: usize,
    /// `true` when a latency budget cut the round count below the
    /// configured S ([`PredictRequest::latency_budget_ms`]). Adaptive
    /// gating is *not* degradation: a row held at the pilot count passed
    /// a confidence test, so `degraded` stays `false`.
    pub degraded: bool,
    /// Per-row MC samples averaged, when sample escalation ran
    /// ([`EngineBuilder::adaptive`]): the pilot count for rows the gate
    /// kept, the full S for escalated rows. `None` when no escalation
    /// gate was active (every row then got `achieved_samples`).
    pub row_samples: Option<Vec<usize>>,
    /// Counts of which exit served each `(pass, row)`, when a multi-exit
    /// gate was active: index `k` counts exits at head `k`, the last bin
    /// counts rows that ran to the final classifier. `None` otherwise.
    pub exit_histogram: Option<Vec<usize>>,
    /// Execution metadata.
    pub timing: PredictTiming,
}

/// Builder for [`UncertaintyEngine`].
///
/// ```
/// use nds_engine::{Backend, EngineBuilder};
/// use nds_nn::layers::Sequential;
///
/// let engine = EngineBuilder::new(Sequential::new())
///     .backend(Backend::quantized_q78())
///     .samples(3)
///     .seed(7)
///     .workers(4)
///     .build();
/// assert_eq!(engine.samples(), 3);
/// ```
#[derive(Debug)]
pub struct EngineBuilder {
    net: Sequential,
    backend: Backend,
    samples: usize,
    seed: u64,
    workers: usize,
    chunk: usize,
    transient_retries: usize,
    execution: Execution,
    adaptive: AdaptivePolicy,
}

impl EngineBuilder {
    /// Starts a builder around `net` with the paper's defaults: float
    /// backend, S = 3 samples, seed 0 (the historical stream base, so
    /// engine results are byte-identical to the legacy free functions),
    /// pool-sized workers and engine-chosen chunking.
    pub fn new(net: Sequential) -> Self {
        EngineBuilder {
            net,
            backend: Backend::Float32,
            samples: 3,
            seed: 0,
            workers: 0,
            chunk: 0,
            transient_retries: 0,
            execution: Execution::default(),
            adaptive: AdaptivePolicy::disabled(),
        }
    }

    /// Selects the serving datapath.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the MC execution order (default
    /// [`Execution::SampleMajor`]); see [`Execution`] for the trade-off.
    /// Both orders serve byte-identical responses.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the MC sampling number S. A zero is **not** clamped: it is
    /// rejected by [`UncertaintyEngine::predict`] with a typed
    /// [`EngineError::BadRequest`] (historically it was silently served
    /// as 1, masking caller bugs).
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Sets the sample-stream base: sample `s` draws its masks from
    /// stream `seed + s`. Seed 0 reproduces the legacy free functions
    /// byte for byte; distinct seeds give independent mask draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins the worker split for the sample fan-out (0 = the pool size
    /// from [`nds_tensor::parallel::worker_count`]). Results are
    /// byte-identical for every value; this only tunes parallelism.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Pins the micro-batch size for streaming execution (0 = engine
    /// default). Results are byte-identical for every value.
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// How many times a request that failed with a *transient* fault
    /// (a pool-task death, [`EngineError::Pool`]) is retried before the
    /// error is returned. Default 0: fail fast. Retries invalidate the
    /// worker-clone cache first and back off exponentially; because
    /// results depend only on `(seed, sample index)`, a retried request
    /// is byte-identical to one that never faulted.
    pub fn transient_retries(mut self, retries: usize) -> Self {
        self.transient_retries = retries;
        self
    }

    /// Sets the adaptive-inference policy (default
    /// [`AdaptivePolicy::disabled`], which runs no adaptive code and
    /// serves bytes identical to an engine without the policy).
    ///
    /// With a sample-escalation gate, `predict` runs the policy's pilot
    /// samples for every row, scores each row's confidence, and spends
    /// the remaining `S - pilot` samples **only** on rows that fail the
    /// test — every sample served keeps the exact bytes of the
    /// corresponding sample of an unbudgeted full-S run (same
    /// `(seed, sample index)` stream contract). With a multi-exit gate,
    /// each pass takes confident rows' outputs from calibrated
    /// [`nds_nn::layers::ExitHead`]s and stops walking once all rows
    /// exit. An invalid policy is rejected by `predict` with
    /// [`EngineError::BadRequest`]; adaptive serving requires the
    /// [`Backend::Float32`] datapath; requests carrying a latency budget
    /// use deadline degradation instead (the budget wins).
    pub fn adaptive(mut self, policy: AdaptivePolicy) -> Self {
        self.adaptive = policy;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> UncertaintyEngine {
        UncertaintyEngine {
            net: self.net,
            backend: self.backend,
            samples: self.samples,
            seed: self.seed,
            workers: self.workers,
            chunk: self.chunk,
            transient_retries: self.transient_retries,
            execution: self.execution,
            adaptive: self.adaptive,
            ws: Workspace::new(),
            cache: McCloneCache::new(),
        }
    }
}

/// The unified serving facade: one entry point
/// ([`UncertaintyEngine::predict`]) over float, quantised and hw-sim
/// MC-dropout inference. See the crate docs for the execution model.
#[derive(Debug)]
pub struct UncertaintyEngine {
    net: Sequential,
    backend: Backend,
    samples: usize,
    seed: u64,
    workers: usize,
    chunk: usize,
    transient_retries: usize,
    execution: Execution,
    adaptive: AdaptivePolicy,
    ws: Workspace,
    cache: McCloneCache,
}

/// Deadline projection for the budgeted round loop: the expected total
/// elapsed time if one more round runs, estimated from the **most
/// recent** round's measured cost. The lifetime average is deliberately
/// not used — the first round pays one-off costs (worker-clone cache
/// population, cold workspace pools) that an average would smear over
/// every later projection, stopping a warm engine earlier than the
/// budget requires.
fn project_next_round_ms(elapsed_ms: f64, last_round_ms: f64) -> f64 {
    elapsed_ms + last_round_ms
}

/// Maps an exit-walker error into the pass closures' [`NnError`] domain.
fn adaptive_to_nn(e: AdaptiveError) -> NnError {
    match e {
        AdaptiveError::Nn(e) => e,
        other => NnError::BadConfig(other.to_string()),
    }
}

/// The compact batch shape for `rows` gathered rows of `shape`.
fn shape_with_rows(shape: &Shape, rows: usize) -> Result<Shape> {
    match shape.rank() {
        2 => Ok(Shape::d2(rows, shape.dim(1))),
        4 => Ok(Shape::d4(rows, shape.dim(1), shape.dim(2), shape.dim(3))),
        rank => Err(EngineError::BadShape(format!(
            "adaptive escalation supports rank-2/rank-4 batches, got rank {rank}"
        ))),
    }
}

/// Calls `walk` with the quantise tap of `format`, or with no tap on the
/// float datapath — the one place a pass picks its tap.
fn with_tap<R>(
    format: Option<FixedFormat>,
    walk: impl FnOnce(Option<ActivationTap<'_>>) -> R,
) -> R {
    match format {
        None => walk(None),
        Some(format) => walk(Some(&mut |t: Tensor, _: &mut Workspace| {
            Ok(quantized::quantize_activation(t, format))
        })),
    }
}

/// What one MC pass of a request walks.
enum Walker<'a> {
    /// The whole batch through the standard walkers: one fused
    /// sample-major pass for all samples when `fused`, else one
    /// round-major pass per sample; fixed point through the quantise tap
    /// when `format` is set.
    Batch {
        images: &'a Tensor,
        chunk: usize,
        format: Option<FixedFormat>,
        fused: bool,
    },
    /// The whole batch through the exit-head walker (round-major,
    /// float), tallying which exit served each `(pass, row)` in `hist`.
    Exits {
        images: &'a Tensor,
        thresholds: &'a [f64],
        hist: Mutex<Vec<usize>>,
    },
    /// The escalated rows, gathered into `compact`, through the gathered
    /// walker (`kept` holds their batch indices).
    Gathered {
        compact: &'a Tensor,
        kept: &'a [usize],
    },
}

impl Walker<'_> {
    /// Clears per-attempt state, so a retried stage counts only its own
    /// passes.
    fn reset(&self) {
        if let Walker::Exits { hist, .. } = self {
            hist.lock().unwrap_or_else(|p| p.into_inner()).fill(0);
        }
    }
}

/// Where a request's MC samples live once its stages have run.
struct SampleSlabs<'a> {
    /// First stage: `rounds` passes over the whole batch, pass `s`
    /// holding row `r` at `s * n * classes + r * classes`.
    first: &'a [f32],
    rounds: usize,
    /// Escalation stage: samples `rounds..total` of the `kept` rows
    /// (ascending batch indices), compacted — pass `s - rounds` holds
    /// `kept[k]` at `(s - rounds) * kept.len() * classes + k * classes`.
    esc: &'a [f32],
    kept: &'a [usize],
    total: usize,
    n: usize,
    classes: usize,
}

impl SampleSlabs<'_> {
    /// How many samples row `r` averages.
    fn count(&self, r: usize) -> usize {
        if self.kept.binary_search(&r).is_ok() {
            self.total
        } else {
            self.rounds
        }
    }

    /// Row `r`'s probabilities in sample `s`.
    fn row(&self, s: usize, r: usize) -> &[f32] {
        let c = self.classes;
        let (slab, base) = if s < self.rounds {
            (self.first, s * self.n * c + r * c)
        } else {
            let rank = self.kept.partition_point(|&k| k < r);
            (self.esc, (s - self.rounds) * self.kept.len() * c + rank * c)
        };
        &slab[base..base + c]
    }

    /// The one per-row reduction: each row's mean over its own samples
    /// (an f32 sum in ascending sample order, then one scale) and the
    /// requested f64 diagnostics. With one stage this is a plain S-sample
    /// mean; escalated rows average their pilot and escalated samples
    /// with exactly the same arithmetic, so escalate-all and keep-all
    /// batches reproduce full-S and pilot-only responses byte for byte.
    /// Every buffer comes from `ws`.
    fn reduce(&self, outputs: UncertaintyFlags, ws: &mut Workspace) -> Reduced {
        let classes = self.classes;
        let mut mean = ws.take(self.n * classes);
        let mut entropy = outputs
            .contains(UncertaintyFlags::ENTROPY)
            .then(|| ws.take_f64());
        let mut mutual_information = outputs
            .contains(UncertaintyFlags::MUTUAL_INFORMATION)
            .then(|| ws.take_f64());
        let mut variance = outputs
            .contains(UncertaintyFlags::VARIANCE)
            .then(|| ws.take_f64());
        for (r, m) in mean.chunks_exact_mut(classes).enumerate() {
            let count = self.count(r);
            for s in 0..count {
                for (m, &p) in m.iter_mut().zip(self.row(s, r)) {
                    *m += p;
                }
            }
            let inv = 1.0 / count as f32;
            for m in m.iter_mut() {
                *m *= inv;
            }
            if let Some(out) = entropy.as_mut() {
                out.push(entropy_nats(m));
            }
            if let Some(out) = mutual_information.as_mut() {
                let total = entropy_nats(m);
                let aleatoric: f64 = (0..count)
                    .map(|s| entropy_nats(self.row(s, r)))
                    .sum::<f64>()
                    / count as f64;
                out.push((total - aleatoric).max(0.0));
            }
            if let Some(out) = variance.as_mut() {
                let mut var = 0.0f64;
                for (j, &mj) in m.iter().enumerate() {
                    let mj = mj as f64;
                    for s in 0..count {
                        let d = self.row(s, r)[j] as f64 - mj;
                        var += d * d;
                    }
                }
                out.push(var / (count as f64 * classes as f64));
            }
        }
        Reduced {
            mean,
            entropy,
            mutual_information,
            variance,
        }
    }
}

/// The mean distribution and diagnostics [`SampleSlabs::reduce`] returns.
struct Reduced {
    mean: Vec<f32>,
    entropy: Option<Vec<f64>>,
    mutual_information: Option<Vec<f64>>,
    variance: Option<Vec<f64>>,
}

/// One validated request, as the driver runs it.
struct Plan<'a> {
    images: &'a Tensor,
    n: usize,
    classes: usize,
    /// The configured S.
    samples: usize,
    /// First-stage samples: S, or the pilot count under escalation.
    rounds: usize,
    /// The escalation gate, when it runs this request.
    escalation: Option<EscalationPolicy>,
    /// The latency budget, when the request can degrade.
    budget_ms: Option<f64>,
    /// What the first stage walks.
    walker: Walker<'a>,
}

/// The engine state one request drives, borrowed apart so the walkers can
/// run while the harness holds the net, cache and workspace.
struct Driver<'e> {
    net: &'e mut Sequential,
    cache: &'e mut McCloneCache,
    ws: &'e mut Workspace,
    retries: usize,
    workers: usize,
    seed: u64,
    started: Instant,
}

impl Driver<'_> {
    /// The one pass selector: runs samples `first .. first + samples`
    /// (streams `seed + first ..`) through `walker` into `slab` — one
    /// pass per sample on the round harness, split over `workers`, or one
    /// fused pass for all of them on the sample-major harness.
    fn run_samples(
        &mut self,
        walker: &Walker<'_>,
        first: usize,
        samples: usize,
        workers: usize,
        slab: &mut [f32],
    ) -> std::result::Result<(), NnError> {
        let seed = self.seed.wrapping_add(first as u64);
        if let Walker::Batch {
            images,
            chunk,
            format,
            fused: true,
        } = *walker
        {
            // The whole round is ONE fused pass, so an injected pass
            // delay fires once per round, not once per sample.
            return mc_sample_rounds_fused_into(
                self.net,
                samples,
                seed,
                self.ws,
                slab,
                &|net, ws, out| {
                    nds_fault::pass_delay();
                    with_tap(format, |tap| {
                        predict_probs_fused_into_ws(net, images, samples, chunk, ws, out, tap)
                    })
                },
            );
        }
        let pass_len = slab.len() / samples;
        mc_sample_rounds_into(
            self.net,
            samples,
            workers,
            seed,
            self.cache,
            self.ws,
            pass_len,
            slab,
            &|net, ws| {
                nds_fault::pass_delay();
                match walker {
                    Walker::Batch {
                        images,
                        chunk,
                        format,
                        ..
                    } => with_tap(*format, |tap| {
                        predict_probs_tapped_ws(net, images, Mode::McInference, *chunk, ws, tap)
                    }),
                    Walker::Exits {
                        images,
                        thresholds,
                        hist,
                    } => {
                        let mut exit_of = vec![0usize; images.shape().dim(0)];
                        let probs = predict_probs_exits_ws(
                            net,
                            images,
                            Mode::McInference,
                            thresholds,
                            ws,
                            &mut exit_of,
                        )
                        .map_err(adaptive_to_nn)?;
                        let mut hist = hist.lock().unwrap_or_else(|p| p.into_inner());
                        for &e in &exit_of {
                            hist[e.min(thresholds.len())] += 1;
                        }
                        Ok(probs)
                    }
                    Walker::Gathered { compact, kept } => {
                        predict_probs_gathered_ws(net, compact, kept, ws)
                    }
                }
            },
        )
    }

    /// The one retry-and-scan wrapper every stage runs through: runs
    /// samples `first ..` of `walker` into `slab` and returns how many
    /// completed.
    ///
    /// * **Retry.** A transient fault (a pool-task death) reruns the
    ///   stage up to the engine's `transient_retries`, each attempt from
    ///   fresh state: the worker clones are rebuilt (a dead worker may
    ///   have left them half-advanced) and the walker's tallies cleared.
    ///   Masks depend only on `(seed, sample index)`, so a retried stage
    ///   is byte-identical to one that never faulted.
    /// * **Budget.** With `budget_ms`, samples run one round at a time,
    ///   serially; after each round the engine projects the next round's
    ///   cost from the most recent round ([`project_next_round_ms`]) and
    ///   stops early when it would bust the budget. At least one round
    ///   always completes, and round `s` pins stream `seed + s` exactly
    ///   as the unbudgeted harness would, so degradation changes *how
    ///   many* samples are averaged, never their bytes.
    /// * **Scan.** A non-finite probability means a datapath fault
    ///   corrupted a pass: the stage fails with
    ///   [`EngineError::NonFiniteOutput`] rather than launder the
    ///   corruption into the mean and its diagnostics.
    fn run_stage(
        &mut self,
        walker: &Walker<'_>,
        first: usize,
        samples: usize,
        budget_ms: Option<f64>,
        slab: &mut [f32],
    ) -> Result<usize> {
        let stride = slab.len() / samples;
        let policy = nds_tensor::parallel::RetryPolicy::with_retries(self.retries);
        let achieved = nds_tensor::parallel::retry_transient(
            policy,
            |e: &NnError| matches!(e, NnError::Pool(_)),
            |attempt| {
                if attempt > 0 {
                    self.cache.invalidate();
                }
                walker.reset();
                let Some(budget) = budget_ms else {
                    let workers = self.workers;
                    self.run_samples(walker, first, samples, workers, slab)?;
                    return Ok(samples);
                };
                let mut prev_elapsed_ms = 0.0f64;
                for s in 0..samples {
                    let pass = &mut slab[s * stride..(s + 1) * stride];
                    self.run_samples(walker, first + s, 1, 1, pass)?;
                    let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
                    let last_round_ms = elapsed_ms - prev_elapsed_ms;
                    prev_elapsed_ms = elapsed_ms;
                    if s + 1 < samples && project_next_round_ms(elapsed_ms, last_round_ms) > budget
                    {
                        return Ok(s + 1);
                    }
                }
                Ok(samples)
            },
        )?;
        if stride > 0 {
            if let Some(pos) = slab[..achieved * stride]
                .iter()
                .position(|v| !v.is_finite())
            {
                return Err(EngineError::NonFiniteOutput {
                    sample: first + pos / stride,
                });
            }
        }
        Ok(achieved)
    }

    /// Runs a request's sample stages: `plan.rounds` samples over the
    /// whole batch into `first`, then, under an escalation gate, samples
    /// `rounds .. S` of the rows that fail it into `esc`, gathered into
    /// one compact batch. Returns the first stage's completed rounds and
    /// the escalated rows' batch indices.
    fn run_stages(
        &mut self,
        plan: &Plan<'_>,
        first: &mut [f32],
        esc: &mut Vec<f32>,
    ) -> Result<(usize, Vec<usize>)> {
        let achieved = self.run_stage(&plan.walker, 0, plan.rounds, plan.budget_ms, first)?;
        let Some(policy) = plan.escalation else {
            return Ok((achieved, Vec::new()));
        };
        let (images, n, classes) = (plan.images, plan.n, plan.classes);
        let mut mask = vec![false; n];
        escalation_mask(first, plan.rounds, n, classes, &policy, &mut mask);
        let kept: Vec<usize> = (0..n).filter(|&r| mask[r]).collect();
        if kept.is_empty() {
            return Ok((achieved, kept));
        }
        let shape = shape_with_rows(images.shape(), kept.len())?;
        let per_row = images.len() / n;
        let mut data = self.ws.take_dirty(kept.len() * per_row);
        for (k, &r) in kept.iter().enumerate() {
            data[k * per_row..(k + 1) * per_row]
                .copy_from_slice(&images.as_slice()[r * per_row..(r + 1) * per_row]);
        }
        let compact = Tensor::from_vec(data, shape)?;
        let esc_rounds = plan.samples - plan.rounds;
        *esc = self.ws.take_dirty(esc_rounds * kept.len() * classes);
        let walker = Walker::Gathered {
            compact: &compact,
            kept: &kept,
        };
        let outcome = self.run_stage(&walker, plan.rounds, esc_rounds, None, esc);
        self.ws.recycle_tensor(compact);
        outcome?;
        Ok((achieved, kept))
    }
}

impl UncertaintyEngine {
    /// Serves one prediction: S stochastic passes over the request batch
    /// (chunked into micro-batches), averaged into the predictive
    /// distribution, with the requested uncertainty diagnostics.
    ///
    /// Deterministic: the response bytes depend only on the network
    /// state, the backend, `(seed, samples)` and the input — never on
    /// worker count, chunk size, pool size or what ran before. A
    /// latency budget can reduce the number of samples averaged, but
    /// every sample that *is* averaged keeps its unbudgeted bytes.
    ///
    /// One driver serves every path. The first stage runs S samples over
    /// the whole batch — round-major, sample-major, or round by round
    /// under a latency budget. Under an adaptive policy it runs the pilot
    /// samples instead (through the exit-head walker when exits are
    /// configured), and a second stage runs the remaining samples on the
    /// rows the gate escalates. Pilot sample `s` **is** sample `s` of a
    /// full-S run, and escalated samples replay streams `seed + pilot ..
    /// seed + S` with skipped rows' mask draws burned
    /// (`Layer::forward_mc_gathered`), so an escalated row's mean is
    /// byte-identical to the full engine's mean for that row. One per-row
    /// reduction then averages each row over its own samples.
    ///
    /// # Errors
    ///
    /// Rejects malformed requests up front ([`EngineError::BadShape`],
    /// [`EngineError::NonFiniteInput`], [`EngineError::BadRequest`]);
    /// surfaces datapath faults as [`EngineError::NonFiniteOutput`] or
    /// [`EngineError::Pool`] (retried per
    /// [`EngineBuilder::transient_retries`]); propagates network
    /// execution errors as [`EngineError::Nn`]. Never panics on bad
    /// input.
    pub fn predict(&mut self, request: &PredictRequest<'_>) -> Result<PredictResponse> {
        let started = Instant::now();
        let images = request.images;
        if images.shape().rank() == 0 {
            // A scalar has no batch dimension to iterate; reject it
            // before any pass can index past the rank.
            return Err(EngineError::BadShape(
                "predict needs a batched input (rank >= 1), got a rank-0 tensor".to_string(),
            ));
        }
        if let Some(index) = images.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(EngineError::NonFiniteInput { index });
        }
        if let Some(budget) = request.latency_budget_ms {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(EngineError::BadRequest(format!(
                    "latency budget must be positive and finite, got {budget}"
                )));
            }
        }
        if self.samples == 0 {
            // A zero sampling number has no predictive distribution to
            // serve; reject it instead of silently promoting it to 1
            // (the historical clamp, which masked caller bugs).
            return Err(EngineError::BadRequest(
                "sample count must be at least 1, got 0".to_string(),
            ));
        }
        let n = images.shape().dim(0);
        let classes = output_classes(&self.net, images.shape())?;
        let samples = self.samples;
        let chunk = if self.chunk == 0 {
            DEFAULT_CHUNK
        } else {
            self.chunk
        };
        let workers = if self.workers == 0 {
            nds_tensor::parallel::worker_count()
        } else {
            self.workers
        };
        let pass_len = n * classes;
        let mut gated = false;
        if self.adaptive.enabled() {
            // A malformed policy is a reject even when the adaptive path
            // does not run this request (budget present, empty batch).
            self.adaptive
                .validate()
                .map_err(|e| EngineError::BadRequest(e.to_string()))?;
            // A latency budget wins over adaptive gating: deadline
            // degradation is round-granular and already byte-preserving,
            // and mixing the two would make `achieved_samples` ambiguous.
            gated = request.latency_budget_ms.is_none() && pass_len > 0;
            if gated && self.backend != Backend::Float32 {
                return Err(EngineError::BadRequest(format!(
                    "adaptive policy requires the float32 backend, engine uses {}",
                    self.backend.label()
                )));
            }
        }
        // Escalation with pilot >= S is inert: the full-S stage already
        // serves exactly what it asks for.
        let escalation = self
            .adaptive
            .escalation
            .filter(|e| gated && e.pilot < samples);
        let thresholds = self
            .adaptive
            .exits
            .as_ref()
            .filter(|_| gated)
            .map(|e| &e.thresholds[..]);
        // Only a non-empty pass with rounds to drop can degrade. The
        // fused order is all-or-nothing, so such a request runs
        // round-major: degradation is inherently round-granular.
        let budget_ms = request
            .latency_budget_ms
            .filter(|_| pass_len > 0 && samples > 1);
        let plan = Plan {
            images,
            n,
            classes,
            samples,
            rounds: escalation.map_or(samples, |e| e.pilot),
            escalation,
            budget_ms,
            walker: match thresholds {
                Some(thresholds) => Walker::Exits {
                    images,
                    thresholds,
                    hist: Mutex::new(vec![0; thresholds.len() + 1]),
                },
                None => Walker::Batch {
                    images,
                    chunk,
                    format: self.backend.format(),
                    fused: self.execution == Execution::SampleMajor && budget_ms.is_none(),
                },
            },
        };
        let mut driver = Driver {
            net: &mut self.net,
            cache: &mut self.cache,
            ws: &mut self.ws,
            retries: self.transient_retries,
            workers,
            seed: self.seed,
            started,
        };
        let mut first = driver.ws.take_dirty(plan.rounds * pass_len);
        let mut esc = Vec::new();
        let (achieved, kept) = match driver.run_stages(&plan, &mut first, &mut esc) {
            Ok(staged) => staged,
            Err(e) => {
                driver.ws.recycle(first);
                driver.ws.recycle(esc);
                return Err(e);
            }
        };
        let slabs = SampleSlabs {
            first: &first[..achieved * pass_len],
            rounds: achieved,
            esc: &esc,
            kept: &kept,
            total: samples,
            n,
            classes,
        };
        let reduced = slabs.reduce(request.outputs, driver.ws);
        let row_samples = escalation.map(|_| (0..n).map(|r| slabs.count(r)).collect());
        driver.ws.recycle(first);
        driver.ws.recycle(esc);
        let achieved_samples = if kept.is_empty() { achieved } else { samples };
        let exit_histogram = match plan.walker {
            Walker::Exits { hist, .. } => {
                Some(hist.into_inner().unwrap_or_else(|p| p.into_inner()))
            }
            _ => None,
        };
        let modelled_latency_ms = match &self.backend {
            Backend::HwSim(platform) => Some(platform.latency_ms_per_image * n as f64),
            _ => None,
        };
        Ok(PredictResponse {
            probs: Tensor::from_vec(reduced.mean, Shape::d2(n, classes))?,
            entropy: reduced.entropy,
            mutual_information: reduced.mutual_information,
            variance: reduced.variance,
            achieved_samples,
            degraded: achieved < plan.rounds,
            row_samples,
            exit_histogram,
            timing: PredictTiming {
                backend: self.backend.label(),
                samples: achieved_samples,
                workers,
                chunk_size: chunk,
                chunks: if n == 0 { 0 } else { n.div_ceil(chunk.max(1)) },
                elapsed_s: started.elapsed().as_secs_f64(),
                modelled_latency_ms,
            },
        })
    }

    /// Hands a response's buffers back to the engine's pools so the next
    /// round reuses them instead of allocating.
    pub fn recycle(&mut self, response: PredictResponse) {
        self.ws.recycle_tensor(response.probs);
        for buf in [
            response.entropy,
            response.mutual_information,
            response.variance,
        ]
        .into_iter()
        .flatten()
        {
            self.ws.recycle_f64(buf);
        }
    }

    /// The MC sampling number S.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Overrides the MC sampling number. As with
    /// [`EngineBuilder::samples`], a zero is rejected at `predict` time
    /// with [`EngineError::BadRequest`] rather than silently clamped.
    pub fn set_samples(&mut self, samples: usize) {
        self.samples = samples;
    }

    /// The MC execution order.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// Switches the MC execution order; both orders serve byte-identical
    /// responses, so this can flip freely between requests.
    pub fn set_execution(&mut self, execution: Execution) {
        self.execution = execution;
    }

    /// The serving backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Swaps the serving backend (the clone cache and workspaces carry
    /// over — both datapaths share them).
    pub fn set_backend(&mut self, backend: Backend) {
        self.backend = backend;
    }

    /// The configured sample-stream base.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The adaptive-inference policy.
    pub fn adaptive(&self) -> &AdaptivePolicy {
        &self.adaptive
    }

    /// Swaps the adaptive-inference policy (see
    /// [`EngineBuilder::adaptive`]); validation happens at `predict`.
    pub fn set_adaptive(&mut self, policy: AdaptivePolicy) {
        self.adaptive = policy;
    }

    /// Overrides the micro-batch size (0 = engine default). Results are
    /// byte-identical for every value; this only tunes working-set size.
    pub fn set_chunk_size(&mut self, chunk: usize) {
        self.chunk = chunk;
    }

    /// Shared access to the served network.
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the served network (training loops, config
    /// switches, quantisation). Weight mutations, batch-norm updates and
    /// structural surgery (layer pushes, removals or swaps through
    /// `Sequential::layers_mut`, which advances the network's
    /// `structural_epoch`) are all detected automatically by the clone
    /// cache's fingerprint — no manual invalidation needed.
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// A new engine over `net` with every setting of this one (backend,
    /// samples, seed, workers, chunk, retries, execution order, adaptive
    /// policy) and its own fresh workspace and clone cache. Forks of a
    /// served network (parallel search workers) use this, so they serve
    /// the bytes their parent would.
    pub fn sibling(&self, net: Sequential) -> UncertaintyEngine {
        UncertaintyEngine {
            net,
            backend: self.backend.clone(),
            samples: self.samples,
            seed: self.seed,
            workers: self.workers,
            chunk: self.chunk,
            transient_retries: self.transient_retries,
            execution: self.execution,
            adaptive: self.adaptive.clone(),
            ws: Workspace::new(),
            cache: McCloneCache::new(),
        }
    }

    /// Consumes the engine, returning the network.
    pub fn into_net(self) -> Sequential {
        self.net
    }

    /// Drops the cached worker clones; the next parallel round rebuilds
    /// them from the current network state.
    ///
    /// **Escape hatch only.** Since `Sequential` grew a structural epoch
    /// counter, the cache fingerprint already sees every layer push,
    /// removal or swap (plus weight and batch-norm mutations), so in the
    /// normal workflow calling this is a no-op-equivalent: the next
    /// round would have rebuilt anyway. It remains for the one edit the
    /// fingerprint cannot observe — mutating a leaf layer's internal
    /// fields through `visit_any` downcasts.
    pub fn invalidate_cache(&mut self) {
        self.cache.invalidate();
    }

    /// Builds (or refreshes) the persistent worker clones for the
    /// engine's configured worker split *now*, so the first parallel
    /// request doesn't pay the cache-population cost on the serving
    /// path. Serving front-ends call this once per tenant at
    /// construction; the clones share the tenant net's weights
    /// copy-on-write, so prewarming T tenants costs T × O(layers), not
    /// T × O(parameters). A no-op when the cache is already warm for
    /// the current network state.
    pub fn prewarm(&mut self) {
        let workers = if self.workers == 0 {
            nds_tensor::parallel::worker_count()
        } else {
            self.workers
        };
        if workers > 1 {
            self.cache.prewarm(&mut self.net, workers);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_dropout::{DropoutKind, DropoutLayer, DropoutSettings};
    use nds_nn::arch::{FeatureShape, SlotInfo, SlotPosition};
    use nds_nn::layers::{Flatten, Linear};
    use nds_tensor::rng::Rng64;

    fn stochastic_net(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(16, 12, true, &mut rng)));
        let slot = SlotInfo {
            id: 0,
            shape: FeatureShape::Vector { features: 12 },
            position: SlotPosition::FullyConnected,
        };
        net.push(Box::new(
            DropoutLayer::for_slot(
                DropoutKind::Bernoulli,
                &slot,
                &DropoutSettings {
                    rate: 0.5,
                    ..DropoutSettings::default()
                },
                seed,
            )
            .unwrap(),
        ));
        net.push(Box::new(Linear::new(12, 4, true, &mut rng)));
        net
    }

    #[test]
    fn deadline_projection_uses_the_most_recent_round_not_the_average() {
        // Cold first round (cache population) of 9 ms, warm rounds of
        // 1 ms, budget 12 ms. After round 2 (elapsed 10 ms) the lifetime
        // average (5 ms/round) would project 15 ms and stop at 2 samples;
        // the most-recent-round projection (10 + 1 = 11 ms) correctly
        // keeps sampling, and only stops once the budget is truly spent.
        let budget = 12.0;
        assert!(
            project_next_round_ms(10.0, 1.0) <= budget,
            "a warm engine must not be stopped by the cold first round"
        );
        assert!(
            project_next_round_ms(11.0, 1.0) <= budget,
            "elapsed 11 ms + warm round 1 ms still fits a 12 ms budget"
        );
        assert!(
            project_next_round_ms(12.0, 1.0) > budget,
            "once the budget is spent the projection must stop the loop"
        );
        // Steady state (all rounds equal) projects identically to the
        // historical average, so unbudgeted byte-identity is unaffected.
        assert_eq!(project_next_round_ms(4.0, 2.0), 4.0 + 4.0 / 2.0);
    }

    #[test]
    fn prewarm_matches_cold_start_bytes() {
        let mut rng = Rng64::new(17);
        let x = Tensor::rand_normal(Shape::d4(4, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut cold = EngineBuilder::new(stochastic_net(19))
            .samples(3)
            .workers(4)
            .execution(Execution::RoundMajor)
            .build();
        let mut warm = EngineBuilder::new(stochastic_net(19))
            .samples(3)
            .workers(4)
            .execution(Execution::RoundMajor)
            .build();
        warm.prewarm();
        let a = cold.predict(&PredictRequest::new(&x)).unwrap();
        let b = warm.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(
            a.probs.as_slice(),
            b.probs.as_slice(),
            "prewarming must only move work, never change bytes"
        );
    }

    #[test]
    fn flags_compose_and_query() {
        let flags = UncertaintyFlags::ENTROPY | UncertaintyFlags::VARIANCE;
        assert!(flags.contains(UncertaintyFlags::ENTROPY));
        assert!(flags.contains(UncertaintyFlags::VARIANCE));
        assert!(!flags.contains(UncertaintyFlags::MUTUAL_INFORMATION));
        assert!(UncertaintyFlags::ALL.contains(flags));
        assert!(UncertaintyFlags::NONE.is_empty());
        assert!(!flags.is_empty());
    }

    #[test]
    fn response_carries_requested_diagnostics_only() {
        let mut engine = EngineBuilder::new(stochastic_net(1)).samples(4).build();
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let bare = engine.predict(&PredictRequest::new(&x)).unwrap();
        assert!(bare.entropy.is_none());
        assert!(bare.mutual_information.is_none());
        assert!(bare.variance.is_none());
        assert_eq!(bare.probs.shape(), &Shape::d2(3, 4));
        engine.recycle(bare);
        let full = engine
            .predict(&PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL))
            .unwrap();
        assert_eq!(full.entropy.as_ref().unwrap().len(), 3);
        assert_eq!(full.mutual_information.as_ref().unwrap().len(), 3);
        assert_eq!(full.variance.as_ref().unwrap().len(), 3);
        for i in 0..3 {
            assert!(full.entropy.as_ref().unwrap()[i] >= 0.0);
            assert!(full.mutual_information.as_ref().unwrap()[i] >= 0.0);
            assert!(full.variance.as_ref().unwrap()[i] >= 0.0);
        }
        engine.recycle(full);
    }

    #[test]
    fn seeds_move_the_mask_streams() {
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_normal(Shape::d4(2, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut base = EngineBuilder::new(stochastic_net(5)).samples(3).build();
        let mut seeded = EngineBuilder::new(stochastic_net(5))
            .samples(3)
            .seed(1_000)
            .build();
        let a = base.predict(&PredictRequest::new(&x)).unwrap();
        let b = seeded.predict(&PredictRequest::new(&x)).unwrap();
        assert_ne!(
            a.probs.as_slice(),
            b.probs.as_slice(),
            "distinct seeds must draw distinct masks"
        );
        // Same seed: reproducible.
        let mut again = EngineBuilder::new(stochastic_net(5))
            .samples(3)
            .seed(1_000)
            .build();
        let c = again.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(b.probs.as_slice(), c.probs.as_slice());
    }

    #[test]
    fn hw_sim_reports_modelled_latency() {
        let platform = SimPlatform {
            name: "test-fpga".to_string(),
            format: nds_quant::Q7_8,
            latency_ms_per_image: 0.25,
        };
        let mut engine = EngineBuilder::new(stochastic_net(7))
            .backend(Backend::HwSim(platform))
            .samples(2)
            .build();
        let x = Tensor::zeros(Shape::d4(4, 1, 4, 4));
        let resp = engine.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(resp.timing.backend, "hw-sim");
        assert_eq!(resp.timing.modelled_latency_ms, Some(1.0));
        assert_eq!(resp.probs.shape(), &Shape::d2(4, 4));
    }

    #[test]
    fn scalar_inputs_are_rejected_not_panicked() {
        let mut engine = EngineBuilder::new(stochastic_net(8)).build();
        let scalar = Tensor::from_vec(vec![1.0], Shape::scalar()).unwrap();
        let err = engine.predict(&PredictRequest::new(&scalar)).unwrap_err();
        assert!(matches!(err, EngineError::BadShape(_)), "{err}");
    }

    #[test]
    fn non_finite_inputs_are_rejected_up_front() {
        let mut engine = EngineBuilder::new(stochastic_net(8)).build();
        let mut v = vec![0.0f32; 16];
        v[5] = f32::NAN;
        let x = Tensor::from_vec(v, Shape::d4(1, 1, 4, 4)).unwrap();
        let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
        assert_eq!(err, EngineError::NonFiniteInput { index: 5 });
        let mut v = vec![0.0f32; 16];
        v[9] = f32::INFINITY;
        let x = Tensor::from_vec(v, Shape::d4(1, 1, 4, 4)).unwrap();
        let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
        assert_eq!(err, EngineError::NonFiniteInput { index: 9 });
        assert!(!err.is_transient());
    }

    #[test]
    fn invalid_latency_budgets_are_rejected() {
        let mut engine = EngineBuilder::new(stochastic_net(8)).build();
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let err = engine
                .predict(&PredictRequest::new(&x).with_latency_budget(bad))
                .unwrap_err();
            assert!(matches!(err, EngineError::BadRequest(_)), "{bad}: {err}");
        }
    }

    /// Every backend the engine serves, for the byte-identity matrices.
    fn all_backends() -> [Backend; 3] {
        [
            Backend::Float32,
            Backend::quantized_q78(),
            Backend::HwSim(SimPlatform {
                name: "test-fpga".to_string(),
                format: nds_quant::Q7_8,
                latency_ms_per_image: 0.25,
            }),
        ]
    }

    /// Asserts two responses carry the same bytes in every field a
    /// budget could touch.
    fn assert_same_response(a: &PredictResponse, b: &PredictResponse, case: &str) {
        assert_eq!(a.probs.as_slice(), b.probs.as_slice(), "{case}: probs");
        assert_eq!(a.entropy, b.entropy, "{case}: entropy");
        assert_eq!(a.mutual_information, b.mutual_information, "{case}: MI");
        assert_eq!(a.variance, b.variance, "{case}: variance");
        assert_eq!(a.row_samples, b.row_samples, "{case}: row_samples");
        assert_eq!(a.achieved_samples, b.achieved_samples, "{case}: achieved");
        assert_eq!(a.degraded, b.degraded, "{case}: degraded");
    }

    #[test]
    fn generous_budgets_serve_all_samples_byte_identically() {
        let mut rng = Rng64::new(21);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        for backend in all_backends() {
            for workers in [1usize, 3] {
                let case = format!("{} with {workers} workers", backend.label());
                let engine = || {
                    EngineBuilder::new(stochastic_net(13))
                        .backend(backend.clone())
                        .samples(4)
                        .workers(workers)
                        .execution(Execution::RoundMajor)
                        .build()
                };
                let a = engine().predict(&req).unwrap();
                let b = engine()
                    .predict(&req.with_latency_budget(60_000.0))
                    .unwrap();
                assert_same_response(&a, &b, &case);
                assert_eq!(b.achieved_samples, 4, "{case}");
                assert!(!b.degraded, "{case}");
            }
        }
    }

    #[test]
    fn empty_batches_are_served() {
        let mut engine = EngineBuilder::new(stochastic_net(9)).build();
        let x = Tensor::zeros(Shape::d4(0, 1, 4, 4));
        let resp = engine
            .predict(&PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL))
            .unwrap();
        assert_eq!(resp.probs.len(), 0);
        assert_eq!(resp.entropy.as_ref().unwrap().len(), 0);
        assert_eq!(resp.timing.chunks, 0);
    }

    #[test]
    fn zero_sample_requests_are_rejected_not_clamped() {
        let mut engine = EngineBuilder::new(stochastic_net(8)).samples(0).build();
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(_)), "{err}");
        assert!(!err.is_transient());
        // The same engine recovers once given a legal sampling number.
        engine.set_samples(2);
        assert!(engine.predict(&PredictRequest::new(&x)).is_ok());
        engine.set_samples(0);
        let err = engine.predict(&PredictRequest::new(&x)).unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(_)), "{err}");
    }

    #[test]
    fn sample_major_execution_matches_round_major_bytes() {
        let mut rng = Rng64::new(23);
        let x = Tensor::rand_normal(Shape::d4(5, 1, 4, 4), 0.0, 1.0, &mut rng);
        for backend in [Backend::Float32, Backend::quantized_q78()] {
            let mut round = EngineBuilder::new(stochastic_net(29))
                .samples(3)
                .backend(backend.clone())
                .execution(Execution::RoundMajor)
                .build();
            let mut fused = EngineBuilder::new(stochastic_net(29))
                .samples(3)
                .backend(backend.clone())
                .execution(Execution::SampleMajor)
                .build();
            assert_eq!(fused.execution(), Execution::SampleMajor);
            let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
            let a = round.predict(&req).unwrap();
            let b = fused.predict(&req).unwrap();
            assert_eq!(
                a.probs.as_slice(),
                b.probs.as_slice(),
                "{}: fused probs diverged",
                backend.label()
            );
            assert_eq!(a.entropy, b.entropy, "{}", backend.label());
            assert_eq!(a.mutual_information, b.mutual_information);
            assert_eq!(a.variance, b.variance);
            assert_eq!(b.achieved_samples, 3);
            assert!(!b.degraded);
            // Steady state: the fused engine replays identical bytes.
            let c = fused.predict(&req).unwrap();
            assert_eq!(a.probs.as_slice(), c.probs.as_slice());
            // Empty batches are served in either order.
            let empty = Tensor::zeros(Shape::d4(0, 1, 4, 4));
            assert_eq!(
                fused
                    .predict(&PredictRequest::new(&empty))
                    .unwrap()
                    .probs
                    .len(),
                0
            );
        }
    }

    #[test]
    fn set_execution_flips_the_order_between_requests() {
        let mut rng = Rng64::new(31);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut engine = EngineBuilder::new(stochastic_net(37))
            .samples(3)
            .execution(Execution::RoundMajor)
            .build();
        let a = engine.predict(&PredictRequest::new(&x)).unwrap();
        engine.set_execution(Execution::SampleMajor);
        let b = engine.predict(&PredictRequest::new(&x)).unwrap();
        engine.set_execution(Execution::RoundMajor);
        let c = engine.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(a.probs.as_slice(), b.probs.as_slice());
        assert_eq!(a.probs.as_slice(), c.probs.as_slice());
    }

    #[test]
    fn budgeted_degradable_requests_fall_back_to_round_major() {
        // A fused engine with a latency budget that can degrade serves
        // through the round-major loop — bytes still identical for every
        // round that completes (here the budget is generous, so all of
        // them).
        let mut rng = Rng64::new(41);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        for backend in all_backends() {
            for workers in [1usize, 3] {
                let case = format!("{} with {workers} workers", backend.label());
                let engine = |execution| {
                    EngineBuilder::new(stochastic_net(43))
                        .backend(backend.clone())
                        .samples(4)
                        .workers(workers)
                        .execution(execution)
                        .build()
                };
                let a = engine(Execution::RoundMajor).predict(&req).unwrap();
                let b = engine(Execution::SampleMajor)
                    .predict(&req.with_latency_budget(60_000.0))
                    .unwrap();
                assert_same_response(&a, &b, &case);
                assert_eq!(b.achieved_samples, 4, "{case}");
            }
        }
    }

    #[test]
    fn execution_labels_and_parsing() {
        assert_eq!(Execution::default(), Execution::SampleMajor);
        assert_eq!(
            EngineBuilder::new(Sequential::new()).build().execution(),
            Execution::SampleMajor
        );
        assert_eq!(Execution::RoundMajor.label(), "round-major");
        assert_eq!(Execution::SampleMajor.label(), "sample-major");
        for (text, want) in [
            ("round-major", Execution::RoundMajor),
            ("round", Execution::RoundMajor),
            ("serial", Execution::RoundMajor),
            ("sample-major", Execution::SampleMajor),
            ("Sample", Execution::SampleMajor),
            ("fused", Execution::SampleMajor),
        ] {
            assert_eq!(text.parse::<Execution>().unwrap(), want, "{text}");
        }
        assert!("banana".parse::<Execution>().is_err());
    }

    #[test]
    fn quantized_backend_constructors() {
        assert_eq!(
            Backend::quantized_q78(),
            Backend::Quantized {
                format: nds_quant::Q7_8
            }
        );
        assert!(Backend::quantized(8).is_ok());
        assert!(Backend::quantized(16).is_err());
        assert_eq!(Backend::Float32.label(), "float32");
        assert_eq!(Backend::quantized_q78().label(), "quantized");
    }

    #[test]
    fn steady_state_predict_reuses_engine_pools() {
        let mut engine = EngineBuilder::new(stochastic_net(11))
            .samples(3)
            .workers(1)
            .build();
        let x = Tensor::zeros(Shape::d4(4, 1, 4, 4));
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        for _ in 0..2 {
            let warm = engine.predict(&req).unwrap();
            engine.recycle(warm);
        }
        let allocations = engine.ws.allocations();
        for _ in 0..3 {
            let resp = engine.predict(&req).unwrap();
            engine.recycle(resp);
        }
        assert_eq!(
            engine.ws.allocations(),
            allocations,
            "steady-state rounds must be served from the pools"
        );
    }

    #[test]
    fn escalate_all_matches_full_run_bytes() {
        // Threshold 0.0 escalates every row (gate scores are
        // non-negative): the adaptive mean — pilot samples plus gathered
        // escalation samples — must reproduce the full-S engine byte for
        // byte, in both execution orders and with parallel workers.
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_normal(Shape::d4(5, 1, 4, 4), 0.0, 1.0, &mut rng);
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        for execution in [Execution::RoundMajor, Execution::SampleMajor] {
            for workers in [1usize, 4] {
                let mut plain = EngineBuilder::new(stochastic_net(21))
                    .samples(4)
                    .workers(workers)
                    .execution(execution)
                    .build();
                let want = plain.predict(&req).unwrap();
                let mut gated = EngineBuilder::new(stochastic_net(21))
                    .samples(4)
                    .workers(workers)
                    .execution(execution)
                    .adaptive(AdaptivePolicy::escalate(
                        nds_adaptive::EscalationPolicy::entropy(0.0),
                    ))
                    .build();
                let got = gated.predict(&req).unwrap();
                assert_eq!(
                    got.probs.as_slice(),
                    want.probs.as_slice(),
                    "escalate-all must equal full-S bytes ({execution:?}, {workers} workers)"
                );
                assert_eq!(got.entropy, want.entropy);
                assert_eq!(got.mutual_information, want.mutual_information);
                assert_eq!(got.variance, want.variance);
                assert_eq!(got.achieved_samples, 4);
                assert!(!got.degraded);
                assert_eq!(got.row_samples, Some(vec![4; 5]));
            }
        }
    }

    #[test]
    fn keep_all_matches_pilot_run_bytes() {
        // An unreachable threshold keeps every row at the pilot count:
        // the response must equal a pilot-sized engine's byte for byte.
        let mut rng = Rng64::new(4);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        let mut pilot_engine = EngineBuilder::new(stochastic_net(23)).samples(2).build();
        let want = pilot_engine.predict(&req).unwrap();
        let mut gated = EngineBuilder::new(stochastic_net(23))
            .samples(4)
            .adaptive(AdaptivePolicy::escalate(nds_adaptive::EscalationPolicy {
                metric: nds_adaptive::GateMetric::PredictiveEntropy,
                threshold: 1e9,
                pilot: 2,
            }))
            .build();
        let got = gated.predict(&req).unwrap();
        assert_eq!(got.probs.as_slice(), want.probs.as_slice());
        assert_eq!(got.entropy, want.entropy);
        assert_eq!(got.variance, want.variance);
        assert_eq!(got.achieved_samples, 2);
        assert!(!got.degraded, "gating is a choice, not degradation");
        assert_eq!(got.row_samples, Some(vec![2; 3]));
    }

    #[test]
    fn disabled_policy_is_byte_identical_to_no_policy() {
        let mut rng = Rng64::new(5);
        let x = Tensor::rand_normal(Shape::d4(4, 1, 4, 4), 0.0, 1.0, &mut rng);
        let req = PredictRequest::new(&x).with_outputs(UncertaintyFlags::ALL);
        let mut plain = EngineBuilder::new(stochastic_net(29)).samples(3).build();
        let mut disabled = EngineBuilder::new(stochastic_net(29))
            .samples(3)
            .adaptive(AdaptivePolicy::disabled())
            .build();
        let a = plain.predict(&req).unwrap();
        let b = disabled.predict(&req).unwrap();
        assert_eq!(a.probs.as_slice(), b.probs.as_slice());
        assert_eq!(b.row_samples, None);
        assert_eq!(b.exit_histogram, None);
    }

    #[test]
    fn adaptive_rejects_bad_policy_and_backend() {
        let x = Tensor::zeros(Shape::d4(2, 1, 4, 4));
        let req = PredictRequest::new(&x);
        // Non-finite threshold: typed reject before any work.
        let mut bad = EngineBuilder::new(stochastic_net(31))
            .samples(3)
            .adaptive(AdaptivePolicy::escalate(
                nds_adaptive::EscalationPolicy::entropy(f64::NAN),
            ))
            .build();
        assert!(matches!(bad.predict(&req), Err(EngineError::BadRequest(_))));
        // Quantized backend: adaptive gating is float-only.
        let mut quantized = EngineBuilder::new(stochastic_net(31))
            .samples(3)
            .backend(Backend::quantized_q78())
            .adaptive(AdaptivePolicy::escalate(
                nds_adaptive::EscalationPolicy::entropy(0.5),
            ))
            .build();
        assert!(matches!(
            quantized.predict(&req),
            Err(EngineError::BadRequest(_))
        ));
    }

    #[test]
    fn budget_wins_over_adaptive_gating() {
        // A budgeted request must take the deadline-degradation path:
        // adaptive gating never runs (row_samples stays None) and the
        // served samples keep their unbudgeted bytes.
        let mut rng = Rng64::new(6);
        let x = Tensor::rand_normal(Shape::d4(2, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut engine = EngineBuilder::new(stochastic_net(37))
            .samples(3)
            .adaptive(AdaptivePolicy::escalate(
                nds_adaptive::EscalationPolicy::entropy(0.0),
            ))
            .build();
        let req = PredictRequest::new(&x).with_latency_budget(1e9);
        let resp = engine.predict(&req).unwrap();
        assert_eq!(resp.row_samples, None, "budgeted requests skip gating");
        let mut plain = EngineBuilder::new(stochastic_net(37)).samples(3).build();
        let want = plain.predict(&PredictRequest::new(&x)).unwrap();
        assert_eq!(resp.probs.as_slice(), want.probs.as_slice());
    }

    #[test]
    fn selective_escalation_splits_rows_per_policy() {
        // Mixed batch: rows whose pilot entropy clears the median
        // escalate, the rest stay at the pilot count — and each side's
        // probabilities match the matching uniform engine's bytes.
        let mut rng = Rng64::new(7);
        let x = Tensor::rand_normal(Shape::d4(6, 1, 4, 4), 0.0, 1.5, &mut rng);
        let req = PredictRequest::new(&x);
        let mut pilot_engine = EngineBuilder::new(stochastic_net(41)).samples(1).build();
        let pilot_resp = pilot_engine.predict(&req).unwrap();
        let mut scores = vec![0.0f64; 6];
        nds_adaptive::gate_scores(
            pilot_resp.probs.as_slice(),
            1,
            6,
            4,
            nds_adaptive::GateMetric::PredictiveEntropy,
            &mut scores,
        );
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let threshold = (sorted[2] + sorted[3]) / 2.0;
        let mut full_engine = EngineBuilder::new(stochastic_net(41)).samples(3).build();
        let full = full_engine.predict(&req).unwrap();
        let mut gated = EngineBuilder::new(stochastic_net(41))
            .samples(3)
            .adaptive(AdaptivePolicy::escalate(nds_adaptive::EscalationPolicy {
                metric: nds_adaptive::GateMetric::PredictiveEntropy,
                threshold,
                pilot: 1,
            }))
            .build();
        let got = gated.predict(&req).unwrap();
        let row_samples = got.row_samples.as_ref().unwrap();
        let escalated = row_samples.iter().filter(|&&s| s == 3).count();
        assert_eq!(escalated, 3, "median threshold escalates half the batch");
        for (r, &row_s) in row_samples.iter().enumerate() {
            let got_row = &got.probs.as_slice()[r * 4..(r + 1) * 4];
            let want_row = if row_s == 3 {
                &full.probs.as_slice()[r * 4..(r + 1) * 4]
            } else {
                &pilot_resp.probs.as_slice()[r * 4..(r + 1) * 4]
            };
            assert_eq!(got_row, want_row, "row {r} bytes");
        }
    }
}
