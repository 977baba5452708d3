//! Monte-Carlo dropout inference.
//!
//! A dropout-based BayesNN produces its predictive distribution by running
//! the forward pass S times with dropout *enabled* and averaging the
//! softmax outputs (paper §2.1.2). The paper fixes the sampling number to
//! S = 3 (§4.1).
//!
//! # Parallel sampling
//!
//! The S passes are independent given the per-sample RNG streams that
//! [`nds_nn::Layer::begin_mc_sample`] derives from `(seed, sample index)`,
//! so the round harness ([`mc_sample_rounds_into`]) fans them out over
//! the persistent worker pool ([`nds_tensor::parallel::run_scoped`]),
//! each chunk running on a clone of the network. Clones are
//! **zero-copy**: weights live in copy-on-write
//! [`nds_tensor::SharedTensor`] storage, so a worker clone shares the
//! caller's parameter buffers instead of duplicating megabytes of
//! weights per round (see `tests/zero_copy.rs` at the workspace root) —
//! and with a persistent [`McCloneCache`] the clones themselves survive
//! across rounds, keyed by weight identity with batch-norm staleness
//! detection, so steady-state parallel rounds stop cloning entirely.
//! Because every sample's masks depend only on its index — never on
//! execution order or thread assignment — the parallel result is
//! **bit-identical** to a serial run (pinned by the crate's tests).
//! Scratch buffers come from a [`Workspace`] so steady-state prediction
//! rounds allocate nothing beyond the per-pass activations.
//!
//! # Two harnesses, one slab layout
//!
//! This module holds the two round harnesses: [`mc_sample_rounds_into`]
//! runs one pass per sample (round-major), and
//! [`mc_sample_rounds_fused_into`] runs all samples as one fused pass
//! (sample-major). Both write the same sample slab: sample `s`'s pass
//! occupies `out[s * pass_len .. (s + 1) * pass_len]`. The harnesses
//! only schedule passes; the caller picks the walker that runs one
//! (`nds_nn::train`'s tapped round-major and fused walkers, the
//! gathered and exit-head walkers) and reduces the slab.
//!
//! The caller is `nds_engine::UncertaintyEngine`. Its one request driver
//! picks the walker and the quantise tap for the float and fixed-point
//! datapaths, runs each stage of a request through one retry-and-scan
//! wrapper over these harnesses, and averages every row over its own
//! samples in one per-row reduction. `nds_serve::Server` multiplexes
//! many tenants over engines whose clone caches all share one net's
//! weights copy-on-write.

use nds_nn::layers::Sequential;
use nds_nn::Layer;
use nds_tensor::parallel::PoolError;
use nds_tensor::{SharedTensor, Tensor, Workspace};

/// One pooled worker of the [`McCloneCache`]: a copy-on-write clone of
/// the source network plus the warm workspace its passes draw from.
#[derive(Debug)]
struct WorkerSlot {
    net: Sequential,
    ws: Workspace,
}

/// Per-worker persistent clone cache for the parallel Monte-Carlo path.
///
/// The parallel branch of [`mc_sample_rounds_into`] runs each sample
/// chunk on a private copy of the network. Cloning is already cheap
/// (copy-on-write weights), but doing it *every round* kept the parallel
/// path off the allocation-free steady state the serial path reached in
/// PR 3. This cache keeps the per-worker clones — and their warm
/// [`Workspace`]s — alive across rounds, handing them back whenever the
/// source network is provably unchanged:
///
/// * **Weight identity** — the fingerprint records one [`SharedTensor`]
///   handle per parameter (in [`nds_nn::Layer::visit_params`] order) and
///   revalidates with [`SharedTensor::ptr_eq`]. Any mutation (an SGD
///   step, pruning, fake quantisation) detaches the source's buffer via
///   copy-on-write, so the pointer comparison catches it.
/// * **Batch-norm statistics** — running mean/var are plain per-layer
///   vectors, invisible to pointer identity; the fingerprint records
///   each layer's `stats_epoch` counter (bumped on every EMA update,
///   recalibration commit, or transplant) and a mismatch invalidates the
///   cached clones.
///
/// * **Structural surgery** — the fingerprint records the network's
///   [`nds_nn::Layer::structural_epoch`] (bumped by every
///   `Sequential::push` and every `Sequential::layers_mut` borrow,
///   summed across nested chains) plus the top-level layer count, so
///   layer insertion, removal or *same-count replacement* all
///   invalidate the cached clones without the caller doing anything.
///
/// All checks are allocation-free, so a steady-state round costs two
/// visitor sweeps and no heap traffic. The one edit the fingerprint
/// still cannot see is mutating a leaf layer's *internal* fields
/// through `visit_any` downcasts — call [`McCloneCache::invalidate`]
/// after that kind of surgery (supernet slot switches don't need it:
/// selection state is shared with the clones by handle).
///
/// Cached clones share the source's selection-state handles (supernet
/// slot switches propagate) and re-derive every dropout stream from the
/// sample index, so no stochastic state can go stale.
#[derive(Debug, Default)]
pub struct McCloneCache {
    slots: Vec<WorkerSlot>,
    params: Vec<SharedTensor>,
    bn_epochs: Vec<u64>,
    /// Top-level layer count at fingerprint time.
    top_layers: usize,
    /// [`nds_nn::Layer::structural_epoch`] at fingerprint time — catches
    /// every `Sequential`-level structural edit (push/remove/swap, at
    /// any nesting depth) that the weight fingerprint cannot see.
    struct_epoch: u64,
    dirty: bool,
}

impl McCloneCache {
    /// An empty cache; the first parallel round populates it.
    pub fn new() -> Self {
        McCloneCache::default()
    }

    /// Number of worker clones currently cached.
    pub fn cached_workers(&self) -> usize {
        self.slots.len()
    }

    /// Forces the next parallel round to rebuild its clones from the
    /// source network. Since the structural-epoch fingerprint catches
    /// all `Sequential`-level surgery automatically, this is required
    /// only after mutating a leaf layer's internals through `visit_any`
    /// downcasts — an escape hatch, not part of the normal workflow.
    pub fn invalidate(&mut self) {
        self.dirty = true;
    }

    /// Populates (or refreshes) the cache with `workers` clones of `net`
    /// *before* the first parallel round, moving the one-off clone cost
    /// off the serving path. A no-op when the fingerprint already
    /// matches and enough clones are cached. Multi-tenant serving
    /// front-ends prewarm one cache per tenant engine: the clones share
    /// the tenant net's weights copy-on-write, so T warm caches cost
    /// T × O(layers) — the parameter storage exists once.
    pub fn prewarm(&mut self, net: &mut Sequential, workers: usize) {
        self.sync(net, workers.max(1));
    }

    /// `true` when the fingerprint still matches `net` (allocation-free).
    fn matches(&self, net: &mut Sequential) -> bool {
        if self.dirty || net.len() != self.top_layers || net.structural_epoch() != self.struct_epoch
        {
            return false;
        }
        let mut ok = true;
        let mut i = 0;
        net.visit_params(&mut |p| {
            if i >= self.params.len() || !SharedTensor::ptr_eq(&p.value, &self.params[i]) {
                ok = false;
            }
            i += 1;
        });
        ok &= i == self.params.len();
        let mut j = 0;
        net.visit_batch_norms(&mut |bn| {
            if j >= self.bn_epochs.len() || bn.stats_epoch() != self.bn_epochs[j] {
                ok = false;
            }
            j += 1;
        });
        ok && j == self.bn_epochs.len()
    }

    /// Ensures at least `want` clones of `net` are cached and fresh,
    /// rebuilding (and re-fingerprinting) when the source changed.
    /// Rebuilds keep each slot's warm workspace.
    fn sync(&mut self, net: &mut Sequential, want: usize) {
        if !self.matches(net) {
            self.dirty = false;
            self.top_layers = net.len();
            self.struct_epoch = net.structural_epoch();
            self.params.clear();
            self.bn_epochs.clear();
            let params = &mut self.params;
            net.visit_params(&mut |p| params.push(p.value.clone()));
            let bn_epochs = &mut self.bn_epochs;
            net.visit_batch_norms(&mut |bn| bn_epochs.push(bn.stats_epoch()));
            let mut old = std::mem::take(&mut self.slots);
            for _ in 0..want {
                let ws = old.pop().map(|slot| slot.ws).unwrap_or_default();
                self.slots.push(WorkerSlot {
                    net: net.clone(),
                    ws,
                });
            }
            return;
        }
        while self.slots.len() < want {
            // Same fingerprint: extra clones share the same weights.
            self.slots.push(WorkerSlot {
                net: net.clone(),
                ws: Workspace::new(),
            });
        }
    }
}

/// The round-major Monte-Carlo harness: runs `run_pass` once per
/// sample with the sample's stream pinned via [`Layer::begin_mc_sample`]
/// (stream `stream_base + s` for sample `s`), writing each pass's output
/// into `out[s * pass_len .. (s + 1) * pass_len]` in sample order.
///
/// This function owns the determinism-critical scheduling in one place:
///
/// * **Serial (`workers <= 1`, a single sample, or an empty pass)** —
///   runs **in place** on the caller's net, bracketed by
///   [`Layer::save_mc_state`]/[`Layer::restore_mc_state`] so the
///   caller's stochastic state (dropout RNGs, mask cursors, pending
///   backward mask) comes back untouched — no network clone, and with a
///   workspace-pooled pass, zero steady-state allocations.
/// * **Parallel** — fans contiguous sample chunks out over the
///   persistent worker pool, each chunk on a cached copy-on-write clone
///   of the net with its own warm workspace (see [`McCloneCache`]).
///   Chunk boundaries depend only on `(samples, workers)` and each
///   sample's masks depend only on its index, so any chunking of any
///   pool size produces bytes identical to the serial path — and when
///   the pool itself is serial (`NDS_THREADS=1`), the chunks run inline
///   with zero allocations in steady state. Nested inside a
///   population-evaluation task, the chunks simply queue on the same
///   pool instead of degrading to serial.
///
/// # Errors
///
/// Returns the failing pass's error with the smallest sample index
/// (workers past the error may be skipped). A pass that *panics* —
/// whether from an injected fault or a runtime bug — is converted into
/// a typed [`PoolError`] via the `E: From<PoolError>` bound instead of
/// unwinding through the harness, on every path (pooled, serial pool,
/// and in-place serial), so serving layers can fail one request and
/// keep running. On any error the whole `out` slab is unspecified and
/// must be discarded by the caller: panic isolation guarantees no
/// partial result is ever *interpreted*, not that no bytes were
/// written.
///
/// # Panics
///
/// Panics when `samples == 0`, when `out.len() != samples * pass_len`,
/// or when a pass returns a tensor whose length disagrees with
/// `pass_len` — all driver programming errors (drivers reject a zero
/// sample count with a typed error before reaching the harness).
#[allow(clippy::too_many_arguments)]
pub fn mc_sample_rounds_into<E: Send + From<PoolError>>(
    net: &mut Sequential,
    samples: usize,
    workers: usize,
    stream_base: u64,
    cache: &mut McCloneCache,
    workspace: &mut Workspace,
    pass_len: usize,
    out: &mut [f32],
    run_pass: &(dyn Fn(&mut Sequential, &mut Workspace) -> std::result::Result<Tensor, E> + Sync),
) -> std::result::Result<(), E> {
    assert!(samples > 0, "sample count must be positive");
    assert_eq!(
        out.len(),
        samples * pass_len,
        "output slab must hold samples x pass_len elements"
    );
    if workers <= 1 || samples <= 1 || pass_len == 0 {
        net.save_mc_state();
        net.begin_mc_round();
        let mut first_err = None;
        for s in 0..samples {
            net.begin_mc_sample(stream_base.wrapping_add(s as u64));
            // Same panic isolation as the pool path: a pass that
            // unwinds becomes a typed PoolError, not a crash. The
            // pass_len assert stays *outside* the catch — it is a
            // driver bug and must keep panicking.
            let passed =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_pass(net, workspace)));
            match passed {
                Ok(Ok(t)) => {
                    assert_eq!(t.len(), pass_len, "pass output length must match pass_len");
                    out[s * pass_len..(s + 1) * pass_len].copy_from_slice(t.as_slice());
                    workspace.recycle_tensor(t);
                }
                Ok(Err(e)) => {
                    first_err = Some(e);
                    break;
                }
                Err(payload) => {
                    first_err = Some(E::from(PoolError::from_payload(payload.as_ref())));
                    break;
                }
            }
        }
        // Restore even on error: the caller's net comes back untouched.
        net.restore_mc_state(workspace);
        return match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        };
    }
    let per_worker = samples.div_ceil(workers);
    let n_chunks = samples.div_ceil(per_worker);
    cache.sync(net, n_chunks);
    let first_err: std::sync::Mutex<Option<(usize, E)>> = std::sync::Mutex::new(None);
    let run_chunk = |w: usize, slot: &mut WorkerSlot, chunk: &mut [f32]| {
        slot.net.begin_mc_round();
        for (i, row) in chunk.chunks_mut(pass_len).enumerate() {
            let s = w * per_worker + i;
            slot.net.begin_mc_sample(stream_base.wrapping_add(s as u64));
            match run_pass(&mut slot.net, &mut slot.ws) {
                Ok(t) => {
                    assert_eq!(t.len(), pass_len, "pass output length must match pass_len");
                    row.copy_from_slice(t.as_slice());
                    slot.ws.recycle_tensor(t);
                }
                Err(e) => {
                    let mut slot_err = first_err.lock().unwrap_or_else(|p| p.into_inner());
                    if slot_err.as_ref().is_none_or(|(prev, _)| s < *prev) {
                        *slot_err = Some((s, e));
                    }
                    break;
                }
            }
        }
    };
    let chunk_elems = per_worker * pass_len;
    // A chunk that panics is recorded at its first sample index (the
    // exact failing sample inside the chunk is unknowable once the
    // stack has unwound); typed pass errors keep their precise index
    // and the smallest index still wins overall.
    let record_panic = |first_sample: usize, payload: Box<dyn std::any::Any + Send>| {
        let mut slot_err = first_err.lock().unwrap_or_else(|p| p.into_inner());
        if slot_err
            .as_ref()
            .is_none_or(|(prev, _)| first_sample < *prev)
        {
            *slot_err = Some((
                first_sample,
                E::from(PoolError::from_payload(payload.as_ref())),
            ));
        }
    };
    if nds_tensor::parallel::worker_count() <= 1 {
        // Serial pool: run the same chunks inline — identical bytes,
        // zero steady-state allocations (no task boxing) — with the
        // same per-chunk panic isolation the pool provides.
        for (w, (chunk, slot)) in out
            .chunks_mut(chunk_elems)
            .zip(cache.slots.iter_mut())
            .enumerate()
        {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // Each inline chunk counts as one pool task, exactly as
                // it would on a multi-worker pool, so injected pool
                // faults reproduce under NDS_THREADS=1 too.
                nds_fault::on_pool_task();
                run_chunk(w, slot, chunk)
            }));
            if let Err(payload) = outcome {
                record_panic(w * per_worker, payload);
                break;
            }
        }
    } else {
        let run_chunk = &run_chunk;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
            .chunks_mut(chunk_elems)
            .zip(cache.slots.iter_mut())
            .enumerate()
            .map(|(w, (chunk, slot))| {
                let task: Box<dyn FnOnce() + Send + '_> =
                    Box::new(move || run_chunk(w, slot, chunk));
                task
            })
            .collect();
        if let Err(pool_err) = nds_tensor::parallel::run_scoped_checked(tasks) {
            // The pool already rendered the payload; the panicking
            // chunk is unknown, so this ranks after any typed error.
            let mut slot_err = first_err.lock().unwrap_or_else(|p| p.into_inner());
            if slot_err.is_none() {
                *slot_err = Some((usize::MAX, E::from(pool_err)));
            }
        }
    }
    match first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Driver callback for [`mc_sample_rounds_fused_into`]: runs the single
/// `(S·B)`-row forward on the primed net, writing every sample's pass
/// into the output slab.
pub type FusedRunner<'a, E> =
    &'a dyn Fn(&mut Sequential, &mut Workspace, &mut [f32]) -> std::result::Result<(), E>;

/// The sample-major (fused) Monte-Carlo round harness: instead of S
/// sequential passes, the whole round is **one** pass whose batch is the
/// sample dimension folded into the item dimension — `run_fused` sees a
/// net primed by [`Layer::begin_mc_fused`] and executes one
/// `(S·B)`-row forward per layer, writing all S samples' outputs into
/// `out` itself (sample `s`'s pass occupying
/// `out[s * pass_len .. (s + 1) * pass_len]`, exactly the slab layout
/// [`mc_sample_rounds_into`] produces, so the caller's reduction applies
/// unchanged).
///
/// Byte identity with the round-major harness is a layer contract:
/// `begin_mc_fused(samples, stream_base)` seeds one stream per sample
/// with the *same* derivation [`Layer::begin_mc_sample`] uses for sample
/// `stream_base + s`, and fused forwards advance stream `s` once per
/// batch item in item order — so every mask equals the streamed draw and
/// the two orders agree bit for bit (pinned by this crate's tests and
/// the workspace-root `tests/sample_major.rs` bridge).
///
/// Like the serial branch of [`mc_sample_rounds_into`], the round runs
/// **in place** on the caller's net, bracketed by
/// [`Layer::save_mc_state`]/[`Layer::restore_mc_state`], and a panicking
/// pass is converted into a typed [`PoolError`] after the restore. On
/// any error `out` is unspecified and must be discarded.
///
/// [`Layer::begin_mc_fused`]: nds_nn::Layer::begin_mc_fused
/// [`Layer::begin_mc_sample`]: nds_nn::Layer::begin_mc_sample
/// [`Layer::save_mc_state`]: nds_nn::Layer::save_mc_state
/// [`Layer::restore_mc_state`]: nds_nn::Layer::restore_mc_state
///
/// # Panics
///
/// Panics when `samples == 0` — a driver programming error.
pub fn mc_sample_rounds_fused_into<E: Send + From<PoolError>>(
    net: &mut Sequential,
    samples: usize,
    stream_base: u64,
    workspace: &mut Workspace,
    out: &mut [f32],
    run_fused: FusedRunner<'_, E>,
) -> std::result::Result<(), E> {
    assert!(samples > 0, "sample count must be positive");
    net.save_mc_state();
    net.begin_mc_round();
    net.begin_mc_fused(samples, stream_base);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_fused(net, workspace, &mut *out)
    }));
    // Restore even on error/panic: the caller's net comes back untouched.
    net.restore_mc_state(workspace);
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(E::from(PoolError::from_payload(payload.as_ref()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropoutKind, DropoutLayer, DropoutSettings};
    use nds_metrics::entropy_nats;
    use nds_nn::arch::{FeatureShape, SlotInfo, SlotPosition};
    use nds_nn::layers::{Flatten, Linear};
    use nds_nn::train::predict_probs_ws;
    use nds_nn::{Mode, NnError};
    use nds_tensor::rng::Rng64;
    use nds_tensor::Shape;

    /// Test driver over the public harness: runs `samples` MC passes of
    /// `net` over `x` and returns the raw sample slab (`samples` rows of
    /// `n × classes` probabilities) plus the pass length.
    fn mc_slab(
        net: &mut Sequential,
        x: &Tensor,
        samples: usize,
        batch: usize,
        workers: usize,
        ws: &mut Workspace,
    ) -> (Vec<f32>, usize) {
        let n = x.shape().dim(0);
        let classes = nds_nn::train::output_classes(net, x.shape()).unwrap();
        let pass_len = n * classes;
        let mut cache = McCloneCache::new();
        let mut slab = ws.take_dirty(samples * pass_len);
        mc_sample_rounds_into::<NnError>(
            net,
            samples,
            workers,
            0,
            &mut cache,
            ws,
            pass_len,
            &mut slab,
            &|net, ws| predict_probs_ws(net, x, Mode::McInference, batch, ws),
        )
        .unwrap();
        (slab, pass_len)
    }

    /// The mean distribution over a sample slab of `pass_len`-long passes.
    fn mean_of(slab: &[f32], pass_len: usize) -> Vec<f32> {
        let samples = slab.len() / pass_len;
        let mut mean = vec![0.0f32; pass_len];
        for pass in slab.chunks_exact(pass_len) {
            for (m, &p) in mean.iter_mut().zip(pass) {
                *m += p;
            }
        }
        for m in &mut mean {
            *m /= samples as f32;
        }
        mean
    }

    fn stochastic_net(kind: DropoutKind, seed: u64) -> Sequential {
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
                kind,
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
    fn mean_probs_are_a_distribution() {
        let mut net = stochastic_net(DropoutKind::Bernoulli, 1);
        let mut rng = Rng64::new(2);
        let x = Tensor::rand_normal(Shape::d4(6, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let (slab, pass_len) = mc_slab(&mut net, &x, 5, 3, 1, &mut ws);
        let mean = mean_of(&slab, pass_len);
        for i in 0..6 {
            let s: f32 = mean[i * 4..(i + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    #[test]
    fn samples_differ_under_dynamic_dropout() {
        let mut net = stochastic_net(DropoutKind::Bernoulli, 3);
        let mut rng = Rng64::new(4);
        let x = Tensor::rand_normal(Shape::d4(2, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let (slab, pass_len) = mc_slab(&mut net, &x, 3, 2, 1, &mut ws);
        assert_ne!(slab[..pass_len], slab[pass_len..2 * pass_len]);
    }

    #[test]
    fn masksembles_predictions_are_reproducible() {
        let mut net = stochastic_net(DropoutKind::Masksembles, 5);
        let mut rng = Rng64::new(6);
        let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let (a, _) = mc_slab(&mut net, &x, 3, 3, 1, &mut ws);
        let (b, _) = mc_slab(&mut net, &x, 3, 3, 1, &mut ws);
        // Static masks + cursor reset: identical prediction rounds.
        assert_eq!(a, b);
    }

    #[test]
    fn mc_entropy_exceeds_single_pass_confidence_on_noise() {
        // On pure-noise inputs, MC averaging should not *reduce* entropy
        // below the per-sample average (Jensen).
        let mut net = stochastic_net(DropoutKind::Bernoulli, 7);
        let mut rng = Rng64::new(8);
        let x = Tensor::rand_normal(Shape::d4(16, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let (slab, pass_len) = mc_slab(&mut net, &x, 8, 8, 1, &mut ws);
        let mean = mean_of(&slab, pass_len);
        let mean_entropy: f64 = (0..16)
            .map(|i| entropy_nats(&mean[i * 4..(i + 1) * 4]))
            .sum::<f64>()
            / 16.0;
        let per_sample: f64 = (0..8)
            .map(|s| {
                let row = &slab[s * pass_len..(s + 1) * pass_len];
                (0..16)
                    .map(|i| entropy_nats(&row[i * 4..(i + 1) * 4]))
                    .sum::<f64>()
                    / 16.0
            })
            .sum::<f64>()
            / 8.0;
        assert!(
            mean_entropy >= per_sample - 1e-9,
            "Jensen: H(mean) {mean_entropy} >= mean(H) {per_sample}"
        );
    }

    #[test]
    fn parallel_sampling_is_bit_identical_to_serial() {
        for kind in [
            DropoutKind::Bernoulli,
            DropoutKind::Random,
            DropoutKind::Gaussian,
            DropoutKind::Masksembles,
        ] {
            let mut serial_net = stochastic_net(kind, 11);
            let mut parallel_net = stochastic_net(kind, 11);
            let mut rng = Rng64::new(12);
            let x = Tensor::rand_normal(Shape::d4(5, 1, 4, 4), 0.0, 1.0, &mut rng);
            let mut ws = Workspace::new();
            let (serial, _) = mc_slab(&mut serial_net, &x, 4, 2, 1, &mut ws);
            for workers in [2, 3, 4, 8] {
                let (parallel, _) = mc_slab(&mut parallel_net, &x, 4, 2, workers, &mut ws);
                assert_eq!(
                    serial, parallel,
                    "{kind}: sample slab diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn repeated_rounds_reuse_workspace_buffers() {
        let mut net = stochastic_net(DropoutKind::Bernoulli, 21);
        let x = Tensor::zeros(Shape::d4(4, 1, 4, 4));
        let mut ws = Workspace::new();
        let (first, _) = mc_slab(&mut net, &x, 3, 4, 1, &mut ws);
        ws.recycle(first);
        let allocations = ws.allocations();
        let (second, _) = mc_slab(&mut net, &x, 3, 4, 1, &mut ws);
        assert_eq!(
            ws.allocations(),
            allocations,
            "second round must not take fresh buffers"
        );
        assert!(ws.reuses() >= 1);
        ws.recycle(second);
    }

    #[test]
    fn every_dropout_design_reuses_workspace_buffers_in_steady_state() {
        // The Workspace-pooled mask path covers all four designs
        // (including Random's Fisher–Yates scratch): after one warm-up
        // round, further rounds take nothing fresh from the allocator.
        for kind in [
            DropoutKind::Bernoulli,
            DropoutKind::Random,
            DropoutKind::Gaussian,
            DropoutKind::Masksembles,
        ] {
            let mut net = stochastic_net(kind, 22);
            let x = Tensor::zeros(Shape::d4(4, 1, 4, 4));
            let mut ws = Workspace::new();
            let (warmup, _) = mc_slab(&mut net, &x, 3, 2, 1, &mut ws);
            ws.recycle(warmup);
            let allocations = ws.allocations();
            for _ in 0..3 {
                let (round, _) = mc_slab(&mut net, &x, 3, 2, 1, &mut ws);
                ws.recycle(round);
            }
            assert_eq!(
                ws.allocations(),
                allocations,
                "{kind}: steady-state rounds must be served from the pool"
            );
        }
    }

    #[test]
    fn batch_size_does_not_change_mc_results() {
        // Masks are drawn per batch *item* in item order, so chunking the
        // batch differently must not move the stream.
        for kind in [DropoutKind::Bernoulli, DropoutKind::Masksembles] {
            let mut net_a = stochastic_net(kind, 31);
            let mut net_b = stochastic_net(kind, 31);
            let mut rng = Rng64::new(32);
            let x = Tensor::rand_normal(Shape::d4(6, 1, 4, 4), 0.0, 1.0, &mut rng);
            let mut ws = Workspace::new();
            let (a, _) = mc_slab(&mut net_a, &x, 3, 2, 1, &mut ws);
            let (b, _) = mc_slab(&mut net_b, &x, 3, 6, 1, &mut ws);
            assert_eq!(a, b, "{kind}");
        }
    }

    #[test]
    fn original_net_state_is_untouched_by_mc_rounds() {
        // The serial harness runs in place bracketed by save/restore, the
        // parallel harness runs on clones: a Train-mode forward after an
        // MC round draws the same masks whether or not the round ran, so
        // downstream training cannot depend on the machine's core count.
        for workers in [1, 4] {
            let mut with_mc = stochastic_net(DropoutKind::Bernoulli, 41);
            let mut without_mc = stochastic_net(DropoutKind::Bernoulli, 41);
            let mut rng = Rng64::new(42);
            let x = Tensor::rand_normal(Shape::d4(3, 1, 4, 4), 0.0, 1.0, &mut rng);
            let mut ws = Workspace::new();
            let _ = mc_slab(&mut with_mc, &x, 4, 3, workers, &mut ws);
            let a = with_mc.forward(&x, Mode::Train).unwrap();
            let b = without_mc.forward(&x, Mode::Train).unwrap();
            assert_eq!(
                a, b,
                "MC round ({workers} workers) must not advance the caller's RNG state"
            );

            // Same for the Masksembles cursor under manual MC forwards:
            // a round between two of the caller's own passes must not
            // reset or advance its cycle.
            let mut with_mc = stochastic_net(DropoutKind::Masksembles, 43);
            let mut without_mc = stochastic_net(DropoutKind::Masksembles, 43);
            let x1 = Tensor::rand_normal(Shape::d4(1, 1, 4, 4), 0.0, 1.0, &mut rng);
            let m0 = with_mc.forward(&x1, Mode::McInference).unwrap();
            let _ = mc_slab(&mut with_mc, &x1, 3, 1, workers, &mut ws);
            let m1 = with_mc.forward(&x1, Mode::McInference).unwrap();
            let n0 = without_mc.forward(&x1, Mode::McInference).unwrap();
            let n1 = without_mc.forward(&x1, Mode::McInference).unwrap();
            assert_eq!(m0, n0);
            assert_eq!(m1, n1, "MC round must not move the caller's mask cursor");
        }
    }

    #[test]
    fn single_sample_is_allowed() {
        let mut net = stochastic_net(DropoutKind::Random, 9);
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        let mut ws = Workspace::new();
        let (slab, pass_len) = mc_slab(&mut net, &x, 1, 1, 1, &mut ws);
        assert_eq!(slab.len(), pass_len);
    }

    #[test]
    #[should_panic(expected = "sample count must be positive")]
    fn zero_samples_panics_in_the_harness() {
        // Drivers reject samples == 0 with a typed error before the
        // harness; a zero reaching this far is a bug, not a request.
        let mut net = stochastic_net(DropoutKind::Random, 9);
        let mut ws = Workspace::new();
        let mut cache = McCloneCache::new();
        let mut out: [f32; 0] = [];
        let _ = mc_sample_rounds_into::<NnError>(
            &mut net,
            0,
            1,
            0,
            &mut cache,
            &mut ws,
            0,
            &mut out,
            &|_, _| Ok(Tensor::zeros(Shape::d1(0))),
        );
    }

    #[test]
    fn fused_rounds_match_round_major_bytes() {
        // The sample-major harness must reproduce the round-major slab
        // bit for bit, for every dropout design and a chunked batch.
        for kind in [
            DropoutKind::Bernoulli,
            DropoutKind::Random,
            DropoutKind::Gaussian,
            DropoutKind::Masksembles,
        ] {
            let mut round_net = stochastic_net(kind, 61);
            let mut fused_net = stochastic_net(kind, 61);
            let mut rng = Rng64::new(62);
            let x = Tensor::rand_normal(Shape::d4(5, 1, 4, 4), 0.0, 1.0, &mut rng);
            let mut ws = Workspace::new();
            let (round_major, pass_len) = mc_slab(&mut round_net, &x, 3, 2, 1, &mut ws);
            let mut fused = vec![0.0f32; round_major.len()];
            mc_sample_rounds_fused_into::<NnError>(
                &mut fused_net,
                3,
                0,
                &mut ws,
                &mut fused,
                &|net, ws, out| {
                    nds_nn::train::predict_probs_fused_into_ws(net, &x, 3, 2, ws, out, None)
                },
            )
            .unwrap();
            assert_eq!(round_major, fused, "{kind}: fused slab diverged");
            let _ = pass_len;
        }
    }

    #[test]
    fn fused_rounds_leave_caller_state_untouched() {
        // Same guarantee the serial harness gives: a fused round between
        // two of the caller's own passes must not move any stream.
        let mut with_mc = stochastic_net(DropoutKind::Masksembles, 63);
        let mut without_mc = stochastic_net(DropoutKind::Masksembles, 63);
        let mut rng = Rng64::new(64);
        let x = Tensor::rand_normal(Shape::d4(2, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let m0 = with_mc.forward(&x, Mode::McInference).unwrap();
        let classes = nds_nn::train::output_classes(&with_mc, x.shape()).unwrap();
        let mut slab = vec![0.0f32; 3 * 2 * classes];
        mc_sample_rounds_fused_into::<NnError>(
            &mut with_mc,
            3,
            0,
            &mut ws,
            &mut slab,
            &|net, ws, out| {
                nds_nn::train::predict_probs_fused_into_ws(net, &x, 3, 2, ws, out, None)
            },
        )
        .unwrap();
        let m1 = with_mc.forward(&x, Mode::McInference).unwrap();
        let n0 = without_mc.forward(&x, Mode::McInference).unwrap();
        let n1 = without_mc.forward(&x, Mode::McInference).unwrap();
        assert_eq!(m0, n0);
        assert_eq!(m1, n1, "fused round must not move the caller's streams");
    }

    #[test]
    fn prewarmed_cache_serves_identical_bytes_without_resyncing() {
        let mut cold_net = stochastic_net(DropoutKind::Bernoulli, 51);
        let mut warm_net = stochastic_net(DropoutKind::Bernoulli, 51);
        let mut rng = Rng64::new(52);
        let x = Tensor::rand_normal(Shape::d4(4, 1, 4, 4), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let classes = nds_nn::train::output_classes(&cold_net, x.shape()).unwrap();
        let pass_len = 4 * classes;
        let run = |net: &mut Sequential, cache: &mut McCloneCache, ws: &mut Workspace| {
            let mut slab = vec![0.0f32; 3 * pass_len];
            mc_sample_rounds_into::<NnError>(net, 3, 3, 0, cache, ws, pass_len, &mut slab, &{
                let x = x.clone();
                move |net: &mut Sequential, ws: &mut Workspace| {
                    predict_probs_ws(net, &x, Mode::McInference, 4, ws)
                }
            })
            .unwrap();
            slab
        };
        let mut cold_cache = McCloneCache::new();
        let cold = run(&mut cold_net, &mut cold_cache, &mut ws);
        let mut warm_cache = McCloneCache::new();
        warm_cache.prewarm(&mut warm_net, 3);
        assert_eq!(warm_cache.cached_workers(), 3);
        let warm = run(&mut warm_net, &mut warm_cache, &mut ws);
        assert_eq!(cold, warm, "prewarming must only move work, never bytes");
        // A second prewarm at the same width is a no-op.
        warm_cache.prewarm(&mut warm_net, 3);
        assert_eq!(warm_cache.cached_workers(), 3);
    }
}
