//! In-process serving front-end over the [`UncertaintyEngine`].
//!
//! The paper deploys its searched BayesNN as an *accelerator*: many
//! request streams share one set of trained weights, and the datapath
//! amortises per-invocation overhead by running back-to-back. This
//! crate is the software analogue for the reproduction — a [`Server`]
//! that accepts typed requests from many concurrent callers, serves
//! them as they arrive on a dedicated dispatcher thread (a backlog that
//! builds up while it is busy leaves in one wake-up), and runs each
//! through a **multi-tenant pool** of [`UncertaintyEngine`]s that all
//! share the trained network's weights copy-on-write.
//!
//! # Dispatch policy
//!
//! Admission is a FIFO queue, **bounded by projected wait**: the
//! front-end tracks the queue depth and an EWMA of observed service
//! time, and rejects a submission with
//! [`ServeError::Overloaded`] — carrying a `retry_after_ms` hint —
//! once `(depth + 1) × observed_service_ms` exceeds the worst
//! admissible SLO ([`ServerBuilder::admission_slo_ms`]). Rejecting at
//! the door is the point: an unbounded queue converts overload into
//! unbounded latency for *every* caller, while typed backpressure lets
//! callers shed or retry. Before the first service-time observation a
//! hard depth cap ([`BOOTSTRAP_DEPTH_CAP`]) bounds the queue instead.
//! With the default (infinite) admission SLO the queue is unbounded,
//! matching the historical behaviour.
//!
//! The dispatcher is **work-conserving**: it never holds a request
//! back in the hope that batch-mates arrive. It blocks while the queue
//! is empty; each wake-up drains whatever is already queued, up to
//! [`ServerBuilder::max_batch`] requests, and serves that backlog
//! back-to-back, oldest first, before it looks at the queue again. A
//! lone request on an idle server therefore goes out at once, while the
//! requests that queued behind a busy dispatcher still leave together
//! in one wake-up. Since a batch never joins tensors (see below), a
//! wait for a fuller batch would add latency and buy nothing.
//!
//! The queue wait a request actually paid is subtracted from its
//! latency budget before the engine sees it ([`remaining_budget_ms`]) —
//! the engine's deadline-aware degradation then acts on the *remaining*
//! time, so an SLO covers queue + service, not service alone. A request
//! that is already overdue when dispatched is still served (with a
//! vanishing budget, so the engine degrades to its one-round minimum)
//! rather than dropped; [`ServeResponse::timing`] reports the queue
//! wait so callers can see where the time went.
//!
//! # Determinism: why coalescing never concatenates tensors
//!
//! Within one MC pass the dropout mask stream advances once per batch
//! *item*, sequentially — concatenating two callers' tensors into one
//! forward pass would shift the second caller's stream positions and
//! change its bytes. The server therefore coalesces at the **dispatch**
//! level: one wake-up of the dispatcher serves many requests
//! back-to-back, but every request runs as its own engine call on its
//! own tenant's engine. Batched execution is byte-identical to batch-1
//! *by construction* (and property-tested at the workspace root); the
//! throughput win comes from pipelining away the per-request
//! client/dispatcher handoff and keeping the engines' workspaces and
//! worker-clone caches hot across consecutive requests.
//!
//! # Tenants
//!
//! A tenant is one logical client of the shared model: its own MC
//! sample count and mask-stream seed ([`TenantSpec`]), served by its
//! own prewarmed engine. Engines clone the network copy-on-write
//! ([`nds_tensor::SharedTensor`]), so a T-tenant pool costs T × O(layers)
//! handles, not T × O(parameters) bytes — and one tenant's stream
//! position can never perturb another's (per-sample mask streams are
//! derived purely from `(seed, sample index)`). Queue fairness is
//! inherited from the worker pool: batches are claimed oldest-first and
//! no submitter drains another's jobs (regression-tested in
//! `nds-tensor`).
//!
//! # Failure handling
//!
//! The PR 6 fault policy extends through the front-end: a request that
//! fails — malformed input, non-finite datapath output, a worker-pool
//! fault that outlived its retries — fails *only itself*. The error is
//! delivered through that request's [`Ticket`] as a typed
//! [`ServeError`]; every other request in the batch, and the server
//! itself, proceed untouched. Dropping the [`Server`] performs a clean
//! shutdown: the queue is drained (every accepted request gets its
//! response or error), then the dispatcher thread is joined.
//!
//! # Example
//!
//! ```
//! use nds_nn::layers::{Flatten, Linear, Sequential};
//! use nds_serve::{ServeRequest, ServerBuilder, TenantSpec};
//! use nds_tensor::rng::Rng64;
//! use nds_tensor::{Shape, Tensor};
//!
//! let mut rng = Rng64::new(0);
//! let mut net = Sequential::new();
//! net.push(Box::new(Flatten::new()));
//! net.push(Box::new(Linear::new(4, 3, true, &mut rng)));
//!
//! let mut builder = ServerBuilder::new(net).max_batch(4);
//! let tenant = builder.tenant(TenantSpec {
//!     seed: 7,
//!     samples: 3,
//!     ..TenantSpec::default()
//! });
//! let server = builder.build();
//!
//! let images = Tensor::zeros(Shape::d4(2, 1, 2, 2));
//! let ticket = server.submit(tenant, ServeRequest::new(images))?;
//! let response = ticket.wait()?;
//! assert_eq!(response.prediction.probs.shape().dims(), &[2, 3]);
//! # Ok::<(), nds_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error as StdError;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use nds_adaptive::AdaptivePolicy;
use nds_engine::{
    Backend, EngineBuilder, EngineError, Execution, PredictRequest, PredictResponse,
    UncertaintyEngine, UncertaintyFlags,
};
use nds_nn::layers::Sequential;
use nds_tensor::Tensor;

/// Budget floor handed to the engine when a request's queue wait has
/// already consumed its whole SLO: the engine contract requires a
/// positive budget, and this value is small enough that it always
/// degrades to the one-round minimum instead of dropping the request.
const MIN_BUDGET_MS: f64 = 1e-3;

/// Hard queue-depth cap applied while the admission controller has no
/// service-time observation yet (a finite
/// [`ServerBuilder::admission_slo_ms`] is set but nothing has been
/// served). Without it a burst ahead of the first completion would be
/// admitted unbounded — exactly the window backpressure exists for.
pub const BOOTSTRAP_DEPTH_CAP: usize = 32;

/// EWMA smoothing factor for the observed per-request service time:
/// `est ← (1 - α)·est + α·observed`. 0.2 follows a workload shift in a
/// handful of requests without letting one outlier swing admission.
const SERVICE_EWMA_ALPHA: f64 = 0.2;

/// Errors from submitting to or waiting on the serving front-end.
///
/// The reject/fault split of the engine's failure-handling policy
/// carries through: [`UnknownTenant`](ServeError::UnknownTenant) and
/// [`BadRequest`](ServeError::BadRequest) are front-end rejects caught
/// at submission, [`Engine`](ServeError::Engine) wraps whatever the
/// engine reported for this request alone, and
/// [`Shutdown`](ServeError::Shutdown) means the server went away before
/// the request could be accepted or answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine failed this request; see [`EngineError`] for the
    /// reject/fault taxonomy. Other requests in the batch are
    /// unaffected.
    Engine(EngineError),
    /// The tenant id was not registered with this server's builder.
    UnknownTenant(TenantId),
    /// The request was malformed (e.g. a non-positive latency budget);
    /// rejected at submission, before it could occupy the queue.
    BadRequest(String),
    /// The admission queue is full: the projected queue wait
    /// (`depth × observed service time`) exceeds the server's worst
    /// admissible SLO ([`ServerBuilder::admission_slo_ms`]). Rejected
    /// at submission; the request never occupied the queue.
    Overloaded {
        /// Suggested client-side backoff before retrying, in
        /// milliseconds: roughly how long the queue needs to drain back
        /// under the admission SLO at the observed service rate.
        retry_after_ms: f64,
    },
    /// The server shut down before this request was accepted or
    /// answered.
    Shutdown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::UnknownTenant(t) => {
                write!(f, "tenant {} is not registered with this server", t.index())
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms:.1} ms")
            }
            ServeError::Shutdown => write!(f, "server shut down"),
        }
    }
}

impl StdError for ServeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl ServeError {
    /// Whether a retry of the same request could plausibly succeed
    /// (delegates to [`EngineError::is_transient`];
    /// [`Overloaded`](ServeError::Overloaded) is transient by
    /// definition — back off for `retry_after_ms` and resubmit; other
    /// front-end rejects and shutdown are never transient).
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Engine(e) => e.is_transient(),
            ServeError::Overloaded { .. } => true,
            _ => false,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Handle to one registered tenant, returned by
/// [`ServerBuilder::tenant`] (and recoverable later via
/// [`Server::tenant_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's registration index (order of
    /// [`ServerBuilder::tenant`] calls).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-tenant serving configuration: the knobs that must stay isolated
/// between clients of the shared model.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Mask-stream base for this tenant's engine: sample `s` draws its
    /// dropout masks from stream `seed + s`, independent of every other
    /// tenant.
    pub seed: u64,
    /// MC sampling number S for this tenant (clamped to at least 1).
    pub samples: usize,
    /// Adaptive-inference policy for this tenant's engine
    /// ([`nds_engine::EngineBuilder::adaptive`]): sample escalation and
    /// multi-exit gating, isolated per tenant like the seed and sample
    /// count. Default [`AdaptivePolicy::disabled`] — byte-identical to a
    /// tenant without the field. Requests carrying a latency SLO use
    /// deadline degradation instead (the budget wins inside the engine).
    pub adaptive: AdaptivePolicy,
}

impl Default for TenantSpec {
    /// The engine's defaults: seed 0 (the historical stream base),
    /// S = 3 samples, no adaptive gating.
    fn default() -> Self {
        TenantSpec {
            seed: 0,
            samples: 3,
            adaptive: AdaptivePolicy::disabled(),
        }
    }
}

/// One serving request: the input batch, which uncertainty diagnostics
/// to compute, and an optional end-to-end latency SLO.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Input batch, NCHW. Owned, because the request crosses into the
    /// dispatcher thread.
    pub images: Tensor,
    /// Which optional diagnostics to derive from the per-sample
    /// probabilities.
    pub outputs: UncertaintyFlags,
    /// Optional end-to-end deadline in milliseconds, covering queue
    /// wait *plus* service. The dispatcher subtracts the queue wait the
    /// request paid, and the engine degrades gracefully inside whatever
    /// remains (see the crate docs).
    pub latency_budget_ms: Option<f64>,
}

impl ServeRequest {
    /// A request for the mean probabilities only.
    pub fn new(images: Tensor) -> Self {
        ServeRequest {
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

    /// Sets an end-to-end latency SLO (milliseconds); see
    /// [`ServeRequest::latency_budget_ms`].
    pub fn with_latency_budget(mut self, budget_ms: f64) -> Self {
        self.latency_budget_ms = Some(budget_ms);
        self
    }
}

/// Front-end timing of one served request, alongside the engine's own
/// [`nds_engine::PredictTiming`] inside the prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeTiming {
    /// Milliseconds the request spent in the admission queue before its
    /// batch dispatched.
    pub queue_wait_ms: f64,
    /// Milliseconds the engine spent serving the request once
    /// dispatched.
    pub service_ms: f64,
    /// How many requests the dispatcher wake-up that served this one
    /// drained from the queue (1 = the request went out alone; more
    /// means it queued behind a busy dispatcher).
    pub batch_size: usize,
}

/// The response to a [`ServeRequest`]: the engine's prediction plus
/// front-end timing.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The tenant that served the request.
    pub tenant: TenantId,
    /// The engine's full response — probabilities, requested
    /// diagnostics, achieved samples, degradation flag and engine
    /// timing.
    pub prediction: PredictResponse,
    /// Queue and service timing observed by the front-end.
    pub timing: ServeTiming,
}

/// A claim on one in-flight request, returned by [`Server::submit`].
///
/// Dropping the ticket abandons the response (the server still serves
/// the request and discards the result); [`Ticket::wait`] blocks until
/// the response or error arrives.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<ServeResponse>>,
}

impl Ticket {
    /// Blocks until this request's response (or its typed error)
    /// arrives. Returns [`ServeError::Shutdown`] if the server went
    /// away without answering.
    pub fn wait(self) -> Result<ServeResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// Shared admission state: queue depth and the observed service-time
/// EWMA, updated lock-free from both sides (submitters increment depth
/// and read the estimate; the dispatcher decrements depth and feeds the
/// estimate after each served request).
#[derive(Debug)]
struct Admission {
    /// Requests admitted but not yet served to completion.
    depth: AtomicUsize,
    /// EWMA of per-request service time in milliseconds, stored as
    /// `f64` bits. `0` (the bits of `+0.0`) means "no observation yet"
    /// — real observations are floored just above zero so the sentinel
    /// is unambiguous.
    service_ewma_bits: AtomicU64,
}

impl Admission {
    fn new() -> Self {
        Admission {
            depth: AtomicUsize::new(0),
            service_ewma_bits: AtomicU64::new(0),
        }
    }

    /// The current service-time estimate, if at least one request has
    /// completed.
    fn service_estimate_ms(&self) -> Option<f64> {
        let bits = self.service_ewma_bits.load(Ordering::Relaxed);
        (bits != 0).then(|| f64::from_bits(bits))
    }

    /// Folds one observed service time into the EWMA. The first
    /// observation seeds the estimate directly.
    fn observe_service_ms(&self, observed_ms: f64) {
        // Floor just above zero: 0.0 bits are the "no estimate"
        // sentinel, and a zero estimate would disable backpressure.
        let observed = observed_ms.max(MIN_BUDGET_MS);
        let next = match self.service_estimate_ms() {
            Some(est) => (1.0 - SERVICE_EWMA_ALPHA) * est + SERVICE_EWMA_ALPHA * observed,
            None => observed,
        };
        self.service_ewma_bits
            .store(next.to_bits(), Ordering::Relaxed);
    }

    /// Admission decision for one more request against `slo_ms` (the
    /// worst admissible SLO). `Ok` reserves a queue slot (depth is
    /// already incremented on return); `Err` carries the backoff hint.
    /// Concurrent submitters may transiently overshoot the projection
    /// by their own count — backpressure is a bound on expected wait,
    /// not a semaphore — but depth itself is reserved atomically, so
    /// the bootstrap cap is never exceeded.
    fn try_admit(&self, slo_ms: f64) -> std::result::Result<(), ServeError> {
        if slo_ms.is_infinite() {
            self.depth.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        match self.service_estimate_ms() {
            Some(est) => {
                let depth = self.depth.load(Ordering::Relaxed);
                let projected_ms = (depth + 1) as f64 * est;
                if projected_ms > slo_ms {
                    return Err(ServeError::Overloaded {
                        // Time for the excess queue to drain at the
                        // observed rate, floored at one service slot so
                        // the hint is never a busy-loop invitation.
                        retry_after_ms: (projected_ms - slo_ms).max(est),
                    });
                }
                self.depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            None => {
                // No throughput observation yet: bound the queue by
                // depth alone. CAS-reserve so a burst cannot race past
                // the cap.
                let mut depth = self.depth.load(Ordering::Relaxed);
                loop {
                    if depth >= BOOTSTRAP_DEPTH_CAP {
                        return Err(ServeError::Overloaded {
                            // No rate estimate to derive a hint from;
                            // suggest the admission SLO itself — the
                            // longest wait the server considers
                            // serviceable.
                            retry_after_ms: slo_ms,
                        });
                    }
                    match self.depth.compare_exchange_weak(
                        depth,
                        depth + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Ok(()),
                        Err(actual) => depth = actual,
                    }
                }
            }
        }
    }

    /// Releases the queue slot of a completed (or undeliverable)
    /// request.
    fn release(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One queued request inside the dispatcher.
struct Job {
    tenant: TenantId,
    images: Tensor,
    outputs: UncertaintyFlags,
    budget_ms: Option<f64>,
    enqueued: Instant,
    reply: Sender<Result<ServeResponse>>,
}

/// Builder for [`Server`].
///
/// Chain the policy knobs, register tenants with
/// [`ServerBuilder::tenant`] (at least one; a default tenant is added
/// when none is registered), then [`ServerBuilder::build`].
#[derive(Debug)]
pub struct ServerBuilder {
    net: Sequential,
    backend: Backend,
    execution: Execution,
    max_batch: usize,
    workers: usize,
    transient_retries: usize,
    admission_slo_ms: f64,
    tenants: Vec<TenantSpec>,
}

impl ServerBuilder {
    /// Starts a builder around the trained network with the default
    /// policy: float backend, up to 8 requests served per dispatcher
    /// wake-up, pool-sized engine workers, fail-fast on transient
    /// faults.
    pub fn new(net: Sequential) -> Self {
        ServerBuilder {
            net,
            backend: Backend::Float32,
            execution: Execution::default(),
            max_batch: 8,
            workers: 0,
            transient_retries: 0,
            admission_slo_ms: f64::INFINITY,
            tenants: Vec::new(),
        }
    }

    /// Selects the datapath every tenant engine serves through.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the MC execution order of every tenant engine —
    /// round-major (default) or sample-major fused. Response bytes are
    /// identical either way; see [`nds_engine::Execution`].
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Worst admissible SLO for the admission controller: a submission
    /// is rejected with [`ServeError::Overloaded`] once
    /// `(depth + 1) × observed_service_ms` exceeds this many
    /// milliseconds. Non-finite or non-positive values (the default is
    /// `+∞`) disable backpressure — the queue is unbounded, the
    /// historical behaviour.
    pub fn admission_slo_ms(mut self, slo_ms: f64) -> Self {
        self.admission_slo_ms = if slo_ms.is_finite() && slo_ms > 0.0 {
            slo_ms
        } else {
            f64::INFINITY
        };
        self
    }

    /// The most queued requests one dispatcher wake-up drains and
    /// serves back-to-back (clamped to at least 1). It bounds how long
    /// the dispatcher goes without looking at the queue; it never makes
    /// a request wait for batch-mates.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Pins the worker split of every tenant engine (0 = the pool size
    /// from [`nds_tensor::parallel::worker_count`]). Response bytes are
    /// identical for every value.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-request transient-fault retries, forwarded to
    /// [`EngineBuilder::transient_retries`] on every tenant engine.
    pub fn transient_retries(mut self, retries: usize) -> Self {
        self.transient_retries = retries;
        self
    }

    /// Registers a tenant and returns its id. Ids are assigned in
    /// registration order, starting at 0.
    pub fn tenant(&mut self, spec: TenantSpec) -> TenantId {
        self.tenants.push(spec);
        TenantId(self.tenants.len() - 1)
    }

    /// Builds the server: constructs and prewarms one engine per tenant
    /// on a dedicated dispatcher thread, then opens the admission
    /// queue. When no tenant was registered, a single
    /// [`TenantSpec::default`] tenant (id 0) is added so the server is
    /// usable out of the box.
    pub fn build(self) -> Server {
        let max_batch = self.max_batch.max(1);
        let mut tenants = self.tenants;
        if tenants.is_empty() {
            tenants.push(TenantSpec::default());
        }
        let tenant_count = tenants.len();
        let (tx, rx) = mpsc::channel::<Job>();
        let net = self.net;
        let backend = self.backend;
        let execution = self.execution;
        let workers = self.workers;
        let retries = self.transient_retries;
        let admission = Arc::new(Admission::new());
        let admission_for_dispatch = Arc::clone(&admission);
        let dispatcher = std::thread::Builder::new()
            .name("nds-serve-dispatch".to_string())
            .spawn(move || {
                let mut engines: Vec<UncertaintyEngine> = tenants
                    .iter()
                    .map(|spec| {
                        let mut engine = EngineBuilder::new(net.clone())
                            .backend(backend.clone())
                            .execution(execution)
                            .samples(spec.samples.max(1))
                            .seed(spec.seed)
                            .workers(workers)
                            .transient_retries(retries)
                            .adaptive(spec.adaptive.clone())
                            .build();
                        engine.prewarm();
                        engine
                    })
                    .collect();
                dispatch_loop(&rx, &mut engines, max_batch, &admission_for_dispatch);
            })
            // Panic-audit: invariant-only. `spawn` fails only when the OS
            // refuses a thread, which no input to this crate can cause.
            .expect("spawn the nds-serve dispatcher thread");
        Server {
            tx: Some(tx),
            dispatcher: Some(dispatcher),
            tenant_count,
            max_batch,
            admission,
            admission_slo_ms: self.admission_slo_ms,
        }
    }
}

/// The serving front-end: accepts requests from any thread, serves them
/// as they arrive on its dispatcher thread, and answers each through
/// its [`Ticket`]. See the crate docs for the dispatch policy
/// and determinism guarantees.
#[derive(Debug)]
pub struct Server {
    tx: Option<Sender<Job>>,
    dispatcher: Option<JoinHandle<()>>,
    tenant_count: usize,
    max_batch: usize,
    admission: Arc<Admission>,
    admission_slo_ms: f64,
}

impl Server {
    /// Submits a request on behalf of `tenant` and returns the ticket
    /// to wait on. Cheap and non-blocking; callable concurrently from
    /// any number of threads. With a finite
    /// [`ServerBuilder::admission_slo_ms`] the queue is bounded and a
    /// submission that would overload it is rejected here, before it
    /// occupies a slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for an id this server never
    /// registered, [`ServeError::BadRequest`] for a non-positive or
    /// non-finite latency budget, [`ServeError::Overloaded`] when the
    /// projected queue wait exceeds the admission SLO (carries a
    /// `retry_after_ms` backoff hint), [`ServeError::Shutdown`] when
    /// the dispatcher is gone.
    pub fn submit(&self, tenant: TenantId, request: ServeRequest) -> Result<Ticket> {
        if tenant.0 >= self.tenant_count {
            return Err(ServeError::UnknownTenant(tenant));
        }
        if let Some(budget) = request.latency_budget_ms {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(ServeError::BadRequest(format!(
                    "latency budget must be positive and finite, got {budget}"
                )));
            }
        }
        self.admission.try_admit(self.admission_slo_ms)?;
        let (reply, rx) = mpsc::channel();
        let job = Job {
            tenant,
            images: request.images,
            outputs: request.outputs,
            budget_ms: request.latency_budget_ms,
            enqueued: Instant::now(),
            reply,
        };
        let sent = match &self.tx {
            Some(tx) => tx.send(job).map_err(|_| ServeError::Shutdown),
            None => Err(ServeError::Shutdown),
        };
        if let Err(e) = sent {
            // The slot was reserved but the request never entered the
            // queue; give it back so shutdown races don't leak depth.
            self.admission.release();
            return Err(e);
        }
        Ok(Ticket { rx })
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    /// Recovers the [`TenantId`] for a registration index, when it
    /// exists (ids are assigned in [`ServerBuilder::tenant`] order).
    pub fn tenant_id(&self, index: usize) -> Option<TenantId> {
        (index < self.tenant_count).then_some(TenantId(index))
    }

    /// The most requests one dispatcher wake-up serves.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// How long the dispatcher holds a request for batch-mates, in
    /// milliseconds: always `0.0`, because dispatch is work-conserving
    /// (see the crate docs). Kept for reports that print the dispatch
    /// policy.
    pub fn max_wait_ms(&self) -> f64 {
        0.0
    }

    /// The worst admissible SLO bounding the queue (`+∞` = unbounded).
    pub fn admission_slo_ms(&self) -> f64 {
        self.admission_slo_ms
    }

    /// Requests currently admitted but not yet served (a point-in-time
    /// observation; concurrent submitters move it immediately).
    pub fn queue_depth(&self) -> usize {
        self.admission.depth.load(Ordering::Relaxed)
    }

    /// Shuts the server down cleanly: closes admission, drains every
    /// already-accepted request (each still receives its response or
    /// error), then joins the dispatcher thread. Dropping the server
    /// does the same; this method just makes the point explicit.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.dispatcher.take() {
            // A dispatcher panic would already have failed the run's
            // requests; surfacing it here would abort the caller's
            // unwinding, so a best-effort join is the right teardown.
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}

/// The budget forwarded to the engine after queueing: the request's SLO
/// minus the queue wait it already paid, floored at [`MIN_BUDGET_MS`]
/// so an overdue request degrades to the engine's one-round minimum
/// instead of being rejected.
fn remaining_budget_ms(budget_ms: f64, queue_wait_ms: f64) -> f64 {
    (budget_ms - queue_wait_ms).max(MIN_BUDGET_MS)
}

/// The dispatcher: blocks while the queue is empty, then drains up to
/// `max_batch` already-queued jobs and serves them back-to-back, oldest
/// first. Returns when every [`Server`] sender is gone *and* the queue
/// is drained (`recv` yields buffered jobs before it reports
/// disconnection).
fn dispatch_loop(
    rx: &Receiver<Job>,
    engines: &mut [UncertaintyEngine],
    max_batch: usize,
    admission: &Admission,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    while let Ok(first) = rx.recv() {
        batch.push(first);
        batch.extend(std::iter::from_fn(|| rx.try_recv().ok()).take(max_batch - 1));
        let batch_size = batch.len();
        for job in batch.drain(..) {
            serve_one(engines, job, batch_size, admission);
        }
    }
}

/// Serves one job on its tenant's engine and delivers the result
/// through the job's reply channel. A failure is delivered as this
/// request's typed error and touches nothing else (the PR 6 policy); a
/// dropped ticket makes delivery a no-op.
fn serve_one(
    engines: &mut [UncertaintyEngine],
    job: Job,
    batch_size: usize,
    admission: &Admission,
) {
    let started = Instant::now();
    let queue_wait_ms = started.duration_since(job.enqueued).as_secs_f64() * 1e3;
    let engine = &mut engines[job.tenant.0];
    let mut request = PredictRequest::new(&job.images).with_outputs(job.outputs);
    if let Some(budget) = job.budget_ms {
        request = request.with_latency_budget(remaining_budget_ms(budget, queue_wait_ms));
    }
    let result = engine
        .predict(&request)
        .map(|prediction| ServeResponse {
            tenant: job.tenant,
            prediction,
            timing: ServeTiming {
                queue_wait_ms,
                service_ms: started.elapsed().as_secs_f64() * 1e3,
                batch_size,
            },
        })
        .map_err(ServeError::Engine);
    // Feed the admission controller before delivery: the slot frees and
    // the EWMA learns even when the caller dropped its ticket. Failed
    // requests count too — a failing request occupied the engine just
    // the same.
    admission.observe_service_ms(started.elapsed().as_secs_f64() * 1e3);
    admission.release();
    let _ = job.reply.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_dropout::{DropoutKind, DropoutLayer, DropoutSettings};
    use nds_nn::arch::{FeatureShape, SlotInfo, SlotPosition};
    use nds_nn::layers::{Flatten, Linear};
    use nds_tensor::rng::Rng64;
    use nds_tensor::Shape;

    /// A tiny network with a live dropout layer, so per-tenant seeds
    /// actually change bytes.
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
                    rate: 0.4,
                    ..DropoutSettings::default()
                },
                seed,
            )
            .unwrap(),
        ));
        net.push(Box::new(Linear::new(12, 4, true, &mut rng)));
        net
    }

    fn images(seed: u64, n: usize) -> Tensor {
        let mut rng = Rng64::new(seed);
        Tensor::rand_normal(Shape::d4(n, 1, 4, 4), 0.0, 1.0, &mut rng)
    }

    #[test]
    fn remaining_budget_subtracts_queue_wait_and_never_hits_zero() {
        assert_eq!(remaining_budget_ms(10.0, 4.0), 6.0);
        assert_eq!(remaining_budget_ms(10.0, 10.0), MIN_BUDGET_MS);
        assert_eq!(remaining_budget_ms(10.0, 25.0), MIN_BUDGET_MS);
    }

    #[test]
    fn round_trip_serves_probabilities_with_timing() {
        let mut builder = ServerBuilder::new(stochastic_net(1)).max_batch(4);
        let tenant = builder.tenant(TenantSpec {
            seed: 3,
            samples: 2,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let ticket = server
            .submit(
                tenant,
                ServeRequest::new(images(2, 5)).with_outputs(UncertaintyFlags::ENTROPY),
            )
            .unwrap();
        let response = ticket.wait().unwrap();
        assert_eq!(response.tenant, tenant);
        assert_eq!(response.prediction.probs.shape(), &Shape::d2(5, 4));
        assert_eq!(response.prediction.entropy.as_ref().map(Vec::len), Some(5));
        assert_eq!(response.prediction.achieved_samples, 2);
        assert!(!response.prediction.degraded);
        assert!(response.timing.batch_size >= 1);
        assert!(response.timing.queue_wait_ms >= 0.0);
        assert!(response.timing.service_ms >= 0.0);
    }

    #[test]
    fn a_lone_request_is_not_held_for_batch_mates() {
        // Default knobs, one request in flight at a time: each finds an
        // idle dispatcher and must go out at once, alone. The first
        // wait also covers the engine prewarm, hence the minimum.
        let mut builder = ServerBuilder::new(stochastic_net(9));
        let tenant = builder.tenant(TenantSpec::default());
        let server = builder.build();
        let mut min_wait_ms = f64::INFINITY;
        for i in 0..5 {
            let timing = server
                .submit(tenant, ServeRequest::new(images(30 + i, 1)))
                .unwrap()
                .wait()
                .unwrap()
                .timing;
            assert_eq!(timing.batch_size, 1);
            min_wait_ms = min_wait_ms.min(timing.queue_wait_ms);
        }
        assert!(
            min_wait_ms < 1.0,
            "an idle dispatcher must not hold a lone request, waited {min_wait_ms} ms"
        );
    }

    #[test]
    fn server_bytes_match_a_standalone_engine() {
        let net = stochastic_net(7);
        let mut engine = EngineBuilder::new(net.clone()).samples(3).seed(11).build();
        let x = images(8, 6);
        let direct = engine.predict(&PredictRequest::new(&x)).unwrap();

        let mut builder = ServerBuilder::new(net);
        let tenant = builder.tenant(TenantSpec {
            seed: 11,
            samples: 3,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let served = server
            .submit(tenant, ServeRequest::new(x.clone()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            served.prediction.probs.as_slice(),
            direct.probs.as_slice(),
            "front-end must add zero numeric surface over the engine"
        );
    }

    #[test]
    fn tenants_are_isolated_by_seed_and_sample_count() {
        let mut builder = ServerBuilder::new(stochastic_net(4)).max_batch(4);
        let a = builder.tenant(TenantSpec {
            seed: 0,
            samples: 3,
            ..TenantSpec::default()
        });
        let b = builder.tenant(TenantSpec {
            seed: 99,
            samples: 3,
            ..TenantSpec::default()
        });
        let c = builder.tenant(TenantSpec {
            seed: 0,
            samples: 3,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let x = images(5, 4);
        let ta = server.submit(a, ServeRequest::new(x.clone())).unwrap();
        let tb = server.submit(b, ServeRequest::new(x.clone())).unwrap();
        let tc = server.submit(c, ServeRequest::new(x.clone())).unwrap();
        let ra = ta.wait().unwrap();
        let rb = tb.wait().unwrap();
        let rc = tc.wait().unwrap();
        assert_ne!(
            ra.prediction.probs.as_slice(),
            rb.prediction.probs.as_slice(),
            "different seeds must draw different mask streams"
        );
        assert_eq!(
            ra.prediction.probs.as_slice(),
            rc.prediction.probs.as_slice(),
            "identical tenant specs must serve identical bytes"
        );
    }

    #[test]
    fn adaptive_policy_is_isolated_per_tenant() {
        use nds_adaptive::EscalationPolicy;
        let net = stochastic_net(13);
        let mut builder = ServerBuilder::new(net.clone()).max_batch(4);
        let gated = builder.tenant(TenantSpec {
            seed: 21,
            samples: 3,
            adaptive: AdaptivePolicy::escalate(EscalationPolicy::entropy(0.0)),
        });
        let plain = builder.tenant(TenantSpec {
            seed: 21,
            samples: 3,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let x = images(6, 5);
        let tg = server.submit(gated, ServeRequest::new(x.clone())).unwrap();
        let tp = server.submit(plain, ServeRequest::new(x.clone())).unwrap();
        let rg = tg.wait().unwrap();
        let rp = tp.wait().unwrap();
        assert_eq!(
            rg.prediction.row_samples,
            Some(vec![3; 5]),
            "escalate-all tenant must promote every row to full S"
        );
        assert_eq!(
            rp.prediction.row_samples, None,
            "a disabled-policy tenant must not report per-row sampling"
        );
        assert_eq!(
            rg.prediction.probs.as_slice(),
            rp.prediction.probs.as_slice(),
            "escalate-all gating must serve the exact full-S bytes"
        );
    }

    #[test]
    fn a_poisoned_request_fails_alone() {
        let mut builder = ServerBuilder::new(stochastic_net(6)).max_batch(4);
        let tenant = builder.tenant(TenantSpec::default());
        let server = builder.build();
        let good = images(9, 3);
        let mut bad = images(9, 3);
        bad.as_mut_slice()[5] = f32::NAN;
        let t1 = server
            .submit(tenant, ServeRequest::new(good.clone()))
            .unwrap();
        let t2 = server.submit(tenant, ServeRequest::new(bad)).unwrap();
        let t3 = server.submit(tenant, ServeRequest::new(good)).unwrap();
        assert!(t1.wait().is_ok());
        match t2.wait() {
            Err(ServeError::Engine(EngineError::NonFiniteInput { index })) => {
                assert_eq!(index, 5)
            }
            other => panic!("expected a NonFiniteInput reject, got {other:?}"),
        }
        assert!(
            t3.wait().is_ok(),
            "a poisoned batch-mate must not fail this request"
        );
    }

    #[test]
    fn submission_rejects_unknown_tenants_and_bad_budgets() {
        let server = ServerBuilder::new(stochastic_net(2)).build();
        assert_eq!(server.tenant_count(), 1, "default tenant when none given");
        let tenant = server.tenant_id(0).unwrap();
        assert!(server.tenant_id(1).is_none());
        match server.submit(TenantId(3), ServeRequest::new(images(1, 2))) {
            Err(ServeError::UnknownTenant(t)) => assert_eq!(t.index(), 3),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match server.submit(
                tenant,
                ServeRequest::new(images(1, 2)).with_latency_budget(bad),
            ) {
                Err(ServeError::BadRequest(_)) => {}
                other => panic!("budget {bad} should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_slo_degrades_instead_of_dropping() {
        // A budget far below one round's cost: the engine must still
        // answer (one-round minimum) and flag the degradation.
        let mut builder = ServerBuilder::new(stochastic_net(3)).max_batch(1);
        let tenant = builder.tenant(TenantSpec {
            seed: 0,
            samples: 8,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let response = server
            .submit(
                tenant,
                ServeRequest::new(images(4, 16)).with_latency_budget(0.005),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(response.prediction.achieved_samples >= 1);
        assert!(response.prediction.achieved_samples <= 8);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let mut builder = ServerBuilder::new(stochastic_net(5)).max_batch(2);
        let tenant = builder.tenant(TenantSpec {
            seed: 1,
            samples: 2,
            ..TenantSpec::default()
        });
        let server = builder.build();
        let tickets: Vec<Ticket> = (0..5)
            .map(|i| {
                server
                    .submit(tenant, ServeRequest::new(images(10 + i, 2)))
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for ticket in tickets {
            assert!(
                ticket.wait().is_ok(),
                "every accepted request must be answered before the dispatcher exits"
            );
        }
    }

    #[test]
    fn admission_controller_math() {
        let admission = Admission::new();
        // Bootstrap: no estimate yet, depth-capped.
        for _ in 0..BOOTSTRAP_DEPTH_CAP {
            assert!(admission.try_admit(10.0).is_ok());
        }
        match admission.try_admit(10.0) {
            Err(ServeError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 10.0),
            other => panic!("expected bootstrap-cap rejection, got {other:?}"),
        }
        for _ in 0..BOOTSTRAP_DEPTH_CAP {
            admission.release();
        }
        // With an estimate: (depth + 1) × est against the SLO.
        admission.observe_service_ms(2.0);
        assert_eq!(admission.service_estimate_ms(), Some(2.0));
        for _ in 0..5 {
            assert!(admission.try_admit(10.0).is_ok(), "5 × 2 ms fits 10 ms");
        }
        match admission.try_admit(10.0) {
            Err(ServeError::Overloaded { retry_after_ms }) => {
                assert_eq!(retry_after_ms, 2.0, "6 × 2 − 10 = 2, floored at est");
            }
            other => panic!("expected projection rejection, got {other:?}"),
        }
        // An infinite SLO never rejects, regardless of depth.
        assert!(admission.try_admit(f64::INFINITY).is_ok());
        // The EWMA folds new observations toward the new level.
        admission.observe_service_ms(12.0);
        let est = admission.service_estimate_ms().unwrap();
        assert!((est - 4.0).abs() < 1e-9, "0.8·2 + 0.2·12 = 4, got {est}");
        assert!(ServeError::Overloaded {
            retry_after_ms: 1.0
        }
        .is_transient());
    }

    #[test]
    fn overload_hammer_rejects_with_retry_hint_and_serves_the_rest() {
        // An admission SLO far below one request's service time: a
        // burst must be bounded (bootstrap depth cap, then the
        // service-time projection) and every rejection must carry a
        // positive backoff hint, while every *admitted* request is
        // still served to completion.
        let mut builder = ServerBuilder::new(stochastic_net(12)).admission_slo_ms(0.01);
        let tenant = builder.tenant(TenantSpec {
            seed: 5,
            samples: 4,
            ..TenantSpec::default()
        });
        let server = builder.build();
        assert_eq!(server.admission_slo_ms(), 0.01);

        let mut admitted = Vec::new();
        let mut rejected = 0usize;
        let total = 8 * BOOTSTRAP_DEPTH_CAP;
        for i in 0..total {
            match server.submit(tenant, ServeRequest::new(images(100 + i as u64, 32))) {
                Ok(ticket) => admitted.push(ticket),
                Err(ServeError::Overloaded { retry_after_ms }) => {
                    assert!(
                        retry_after_ms > 0.0 && retry_after_ms.is_finite(),
                        "backoff hint must be a positive finite wait, got {retry_after_ms}"
                    );
                    rejected += 1;
                }
                Err(other) => panic!("only Overloaded is expected here, got {other:?}"),
            }
        }
        assert!(rejected > 0, "the hammer must trip backpressure");
        assert!(
            !admitted.is_empty(),
            "the first submission is always admissible"
        );
        assert!(
            admitted.len() <= total - rejected,
            "accounting: every submission is admitted or rejected"
        );
        let count = admitted.len();
        for ticket in admitted {
            assert!(
                ticket.wait().is_ok(),
                "an admitted request must be served despite the overload"
            );
        }
        server.shutdown();
        assert!(count + rejected == total);
    }

    #[test]
    fn default_admission_is_unbounded() {
        let mut builder = ServerBuilder::new(stochastic_net(13)).max_batch(2);
        let tenant = builder.tenant(TenantSpec::default());
        let server = builder.build();
        assert!(server.admission_slo_ms().is_infinite());
        let tickets: Vec<Ticket> = (0..2 * BOOTSTRAP_DEPTH_CAP)
            .map(|i| {
                server
                    .submit(tenant, ServeRequest::new(images(200 + i as u64, 1)))
                    .expect("unbounded admission never rejects")
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert_eq!(server.queue_depth(), 0, "all slots released after serving");
    }

    #[test]
    fn sample_major_server_bytes_match_round_major() {
        let net = stochastic_net(14);
        let x = images(15, 6);
        let mut responses = Vec::new();
        for execution in [Execution::RoundMajor, Execution::SampleMajor] {
            let mut builder = ServerBuilder::new(net.clone()).execution(execution);
            let tenant = builder.tenant(TenantSpec {
                seed: 21,
                samples: 3,
                ..TenantSpec::default()
            });
            let server = builder.build();
            let response = server
                .submit(tenant, ServeRequest::new(x.clone()))
                .unwrap()
                .wait()
                .unwrap();
            responses.push(response.prediction.probs);
        }
        assert_eq!(
            responses[0].as_slice(),
            responses[1].as_slice(),
            "execution order must not change served bytes"
        );
    }

    #[test]
    fn dropped_tickets_do_not_wedge_the_server() {
        let mut builder = ServerBuilder::new(stochastic_net(8)).max_batch(2);
        let tenant = builder.tenant(TenantSpec::default());
        let server = builder.build();
        drop(
            server
                .submit(tenant, ServeRequest::new(images(3, 2)))
                .unwrap(),
        );
        let kept = server
            .submit(tenant, ServeRequest::new(images(4, 2)))
            .unwrap();
        assert!(kept.wait().is_ok());
        server.shutdown();
    }
}
