//! Training and evaluation loops.
//!
//! Thin, deterministic helpers shared by the supernet trainer and the
//! examples: mini-batch SGD epochs with cross-entropy loss, plus batched
//! probability evaluation.

use crate::layers::Sequential;
use crate::loss::softmax_cross_entropy;
use crate::optim::{LrSchedule, Sgd};
use crate::{Layer, Mode, NnError, Result};
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, Workspace};

/// Configuration for [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule (evaluated per epoch).
    pub schedule: LrSchedule,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay for decaying parameters.
    pub weight_decay: f32,
    /// Linear learning-rate warmup over this many initial epochs
    /// (stabilises SPOS path sampling; 0 disables).
    pub warmup_epochs: usize,
    /// Global gradient-norm clip (0 disables).
    pub clip_norm: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 3,
            batch_size: 32,
            schedule: LrSchedule::Cosine {
                base: 0.05,
                floor: 0.001,
                total: 3,
            },
            momentum: 0.9,
            weight_decay: 5e-4,
            warmup_epochs: 1,
            clip_norm: 2.0,
        }
    }
}

impl TrainConfig {
    /// The learning rate for an epoch, including warmup scaling.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let base = self.schedule.at(epoch);
        if epoch < self.warmup_epochs {
            base * (epoch + 1) as f32 / (self.warmup_epochs + 1) as f32
        } else {
            base
        }
    }
}

/// Per-epoch training statistics returned by [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Learning rate used this epoch.
    pub lr: f32,
}

/// Trains `net` on `(images, labels)` batches drawn from the provided
/// sampler for the configured number of epochs.
///
/// The sampler abstraction keeps this crate independent of `nds-data`:
/// callers pass a closure that, given an RNG, yields the epoch's batches.
/// Returns per-epoch statistics.
///
/// # Errors
///
/// Propagates forward/backward errors from the network.
pub fn fit<I>(
    net: &mut Sequential,
    config: &TrainConfig,
    rng: &mut Rng64,
    mut epoch_batches: impl FnMut(&mut Rng64) -> I,
) -> Result<Vec<EpochStats>>
where
    I: Iterator<Item = (Tensor, Vec<usize>)>,
{
    let mut history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let lr = config.lr_at(epoch);
        let sgd = Sgd::with_momentum(lr, config.momentum, config.weight_decay);
        let mut loss_sum = 0.0f64;
        let mut seen = 0usize;
        let mut correct = 0usize;
        for (images, labels) in epoch_batches(rng) {
            let logits = net.forward(&images, Mode::Train)?;
            let (loss, dlogits) = softmax_cross_entropy(&logits, &labels)?;
            net.backward(&dlogits)?;
            let mut params = net.params_mut();
            crate::optim::clip_grad_norm(&mut params, config.clip_norm);
            sgd.step(&mut params);
            sgd.zero_grad(&mut params);
            loss_sum += loss * labels.len() as f64;
            seen += labels.len();
            correct += count_correct(&logits, &labels);
        }
        history.push(EpochStats {
            epoch,
            loss: if seen > 0 {
                loss_sum / seen as f64
            } else {
                0.0
            },
            accuracy: if seen > 0 {
                correct as f64 / seen as f64
            } else {
                0.0
            },
            lr,
        });
    }
    Ok(history)
}

fn count_correct(logits: &Tensor, labels: &[usize]) -> usize {
    let c = logits.shape().dim(1);
    let data = logits.as_slice();
    labels
        .iter()
        .enumerate()
        .filter(|(i, &label)| {
            let row = &data[i * c..(i + 1) * c];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best == label
        })
        .count()
}

/// Number of probability columns a [`predict_probs_ws`]-style pass over
/// `input` produces — the single definition of the output-shape
/// conventions every probability driver (the float path here, the
/// quantised datapath and the serving engine in `nds-engine`, the MC
/// round harness in `nds-dropout`) shares:
///
/// * an empty batch (leading dimension 0, or a rank-0 input) reports 1
///   column, matching the `[0, 1]`-shaped tensor the drivers return
///   without running the network;
/// * a network whose output is not rank 2 raises the same
///   [`TensorError::RankMismatch`] the row softmax would, before any
///   forward runs;
/// * otherwise the output's second dimension, floored at 1.
///
/// # Errors
///
/// Propagates shape-inference errors and the rank-2 requirement.
///
/// [`TensorError::RankMismatch`]: nds_tensor::TensorError
pub fn output_classes(net: &Sequential, input: &Shape) -> Result<usize> {
    if input.rank() == 0 || input.dim(0) == 0 {
        return Ok(1);
    }
    let out_shape = net.out_shape(input)?;
    if out_shape.rank() != 2 {
        return Err(nds_tensor::TensorError::RankMismatch {
            op: "softmax_rows_inplace",
            expected: 2,
            actual: out_shape.rank(),
        }
        .into());
    }
    Ok(out_shape.dim(1).max(1))
}

/// Runs the network over `images` in batches and returns softmax
/// probabilities `[n, classes]` under the given mode, using an explicit
/// scratch [`Workspace`].
///
/// The batch slices, every layer activation (via `Layer::forward_ws`),
/// the softmax (in place on the logits) and the assembled probability
/// matrix all ride pooled buffers, so a steady-state prediction loop
/// that recycles the returned tensor performs **zero heap allocations**
/// after its first (warm-up) call — the property `tests/alloc_free.rs`
/// pins. Results are bit-identical to the allocating path.
///
/// # Errors
///
/// Propagates forward errors from the network.
pub fn predict_probs_ws(
    net: &mut Sequential,
    images: &Tensor,
    mode: Mode,
    batch_size: usize,
    ws: &mut Workspace,
) -> Result<Tensor> {
    predict_probs_tapped_ws(net, images, mode, batch_size, ws, None)
}

/// [`predict_probs_ws`] with an optional activation `tap`: the
/// round-major walker. Each chunk walks the network's **top-level**
/// layers through [`Sequential::each_layer_mut`] (structurally
/// read-only, so cached MC clones survive), and every layer output
/// passes the fault-poisoning point and then the tap — the same step,
/// at the same points, as [`predict_probs_fused_into_ws`], so both
/// execution orders poison and quantise through one definition. The
/// tap also sees each chunk input. With no tap this is exactly
/// `Sequential::forward_ws` per chunk.
///
/// # Errors
///
/// Propagates forward and tap errors from the network.
pub fn predict_probs_tapped_ws(
    net: &mut Sequential,
    images: &Tensor,
    mode: Mode,
    batch_size: usize,
    ws: &mut Workspace,
    mut tap: Option<ActivationTap<'_>>,
) -> Result<Tensor> {
    let n = images.shape().dim(0);
    if n == 0 {
        return Tensor::from_vec(Vec::new(), Shape::d2(0, 1)).map_err(Into::into);
    }
    let classes = output_classes(net, images.shape())?;
    let mut rows = ws.take_dirty(n * classes);
    let mut start = 0;
    while start < n {
        let end = (start + batch_size.max(1)).min(n);
        let mut x = slice_batch_ws(images, start, end, ws)?;
        if let Some(t) = tap.as_mut() {
            x = t(x, ws)?;
        }
        for (index, layer) in net.each_layer_mut().enumerate() {
            let y = layer.forward_ws(&x, mode, ws)?;
            let y = finish_layer(index, y, &mut tap, ws)?;
            ws.recycle_tensor(std::mem::replace(&mut x, y));
        }
        x.softmax_rows_inplace()?;
        if x.len() != (end - start) * classes {
            // A layer whose forward output disagrees with its out_shape
            // is misimplemented; report it instead of panicking on the
            // row copy.
            return Err(nds_tensor::TensorError::ShapeMismatch {
                op: "predict_probs row assembly",
                lhs: Shape::d2(end - start, classes),
                rhs: x.shape().clone(),
            }
            .into());
        }
        rows[start * classes..end * classes].copy_from_slice(x.as_slice());
        ws.recycle_tensor(x);
        start = end;
    }
    Tensor::from_vec(rows, Shape::d2(n, classes)).map_err(Into::into)
}

/// The per-layer step both MC walkers share: top-level layer `index`'s
/// output passes the fault-poisoning point, then the tap.
fn finish_layer(
    index: usize,
    mut y: Tensor,
    tap: &mut Option<ActivationTap<'_>>,
    ws: &mut Workspace,
) -> Result<Tensor> {
    crate::layers::poison_point(index, &mut y);
    match tap.as_mut() {
        Some(t) => t(y, ws),
        None => Ok(y),
    }
}

/// Gathered Monte-Carlo prediction for one sample pass: runs the compact
/// `images` tensor (the kept rows of a larger pass, gathered together)
/// through the network via [`Layer::forward_mc_gathered`] and returns
/// softmax probabilities `[kept.len(), classes]`.
///
/// `kept` holds the kept rows' **pass-global** item indices, strictly
/// ascending. Stochastic layers burn the skipped items' mask draws so
/// every kept row sees exactly the mask it would in a full pass of the
/// same sample — the byte-identity contract sample escalation relies on.
/// The caller drives the per-sample stream state exactly as the
/// round-major harness does: `begin_mc_round`, then `begin_mc_sample`
/// before each sample's gathered pass(es). The pass is **not** chunked —
/// chunking is expressed by calling this repeatedly with consecutive
/// `kept` slices within one sample.
///
/// # Errors
///
/// Propagates forward errors; rejects `kept.len() != images.dim(0)`,
/// non-ascending indices (via the dropout layer), and networks whose
/// output is not `[rows, classes]`.
pub fn predict_probs_gathered_ws(
    net: &mut Sequential,
    images: &Tensor,
    kept: &[usize],
    ws: &mut Workspace,
) -> Result<Tensor> {
    let n = images.shape().dim(0);
    if n == 0 {
        return Tensor::from_vec(Vec::new(), Shape::d2(0, 1)).map_err(Into::into);
    }
    if kept.len() != n {
        return Err(NnError::BadConfig(format!(
            "gathered pass: {} kept indices for {n} rows",
            kept.len()
        )));
    }
    let classes = output_classes(net, images.shape())?;
    let mut probs = net.forward_mc_gathered(images, kept, ws)?;
    probs.softmax_rows_inplace()?;
    if probs.len() != n * classes {
        return Err(nds_tensor::TensorError::ShapeMismatch {
            op: "predict_probs_gathered row assembly",
            lhs: Shape::d2(n, classes),
            rhs: probs.shape().clone(),
        }
        .into());
    }
    Ok(probs)
}

/// Activation post-processing hook for both MC walkers
/// ([`predict_probs_tapped_ws`], [`predict_probs_fused_into_ws`]): takes
/// ownership of a chunk input or top-level layer output and returns the
/// (possibly replaced) tensor. The quantised datapath uses it to
/// fake-quantise activations.
pub type ActivationTap<'a> = &'a mut dyn FnMut(Tensor, &mut Workspace) -> Result<Tensor>;

/// Sample-major (fused) Monte-Carlo prediction: runs **one** forward per
/// chunk with the sample dimension folded into the batch, writing all
/// `samples` passes' softmax probabilities into `out` — sample `s`
/// occupying `out[s * n * classes .. (s + 1) * n * classes]`, the exact
/// slab layout the round-major harness produces, so the caller's mean
/// reduction applies unchanged.
///
/// The walker iterates the network's **top-level** layers through
/// [`Sequential::each_layer_mut`] (structurally read-only, so cached MC
/// clones survive) and defers tiling until the first layer whose subtree
/// is stochastic ([`Layer::mc_is_stochastic`]): every layer before that
/// point sees the plain `B`-row chunk **once** instead of `S` times —
/// the prefix-sharing win — and every layer from there on sees the
/// `(S·B)`-row tiling (row `s·B + j` = sample `s`, item `j`) produced by
/// [`Workspace::take_tiled`]. A fully deterministic network tiles its
/// output instead. Per-layer outputs pass the same poison point and
/// `tap` as the round-major walker ([`predict_probs_tapped_ws`]), so an
/// armed fault plan corrupts the same layer index, and the quantised
/// datapath rounds the same activations, in either execution order.
///
/// Callers must prime the network with [`Layer::begin_mc_fused`] (the
/// `nds-dropout` round harness does); byte identity with round-major
/// execution is then a layer contract — see that crate's docs.
///
/// # Errors
///
/// Propagates forward errors, and rejects a network whose output is not
/// `[rows, classes]`.
///
/// # Panics
///
/// Panics when `samples == 0` or when `out.len() != samples * n *
/// classes` — driver programming errors.
pub fn predict_probs_fused_into_ws(
    net: &mut Sequential,
    images: &Tensor,
    samples: usize,
    batch_size: usize,
    ws: &mut Workspace,
    out: &mut [f32],
    mut tap: Option<ActivationTap<'_>>,
) -> Result<()> {
    assert!(samples > 0, "sample count must be positive");
    let n = images.shape().dim(0);
    if n == 0 {
        assert_eq!(out.len(), 0, "empty batch produces an empty slab");
        return Ok(());
    }
    let classes = output_classes(net, images.shape())?;
    let pass_len = n * classes;
    assert_eq!(
        out.len(),
        samples * pass_len,
        "output slab must hold samples x pass_len elements"
    );
    let mut start = 0;
    while start < n {
        let end = (start + batch_size.max(1)).min(n);
        let cb = end - start;
        let mut x = slice_batch_ws(images, start, end, ws)?;
        if let Some(t) = tap.as_mut() {
            x = t(x, ws)?;
        }
        let mut fused = false;
        for (index, layer) in net.each_layer_mut().enumerate() {
            if !fused && layer.mc_is_stochastic() {
                let tiled = ws.take_tiled(&x, samples)?;
                ws.recycle_tensor(x);
                x = tiled;
                fused = true;
            }
            let y = layer.forward_mc_fused(&x, samples, ws)?;
            let y = finish_layer(index, y, &mut tap, ws)?;
            ws.recycle_tensor(std::mem::replace(&mut x, y));
        }
        if !fused {
            // Deterministic network: all samples agree, so one pass's
            // output tiles into every sample's slab row.
            let tiled = ws.take_tiled(&x, samples)?;
            ws.recycle_tensor(x);
            x = tiled;
        }
        x.softmax_rows_inplace()?;
        if x.len() != samples * cb * classes {
            return Err(nds_tensor::TensorError::ShapeMismatch {
                op: "predict_probs row assembly",
                lhs: Shape::d2(samples * cb, classes),
                rhs: x.shape().clone(),
            }
            .into());
        }
        // Scatter: fused row block s lands in sample s's slab pass at
        // this chunk's item offset — one contiguous copy per sample.
        for s in 0..samples {
            let src = &x.as_slice()[s * cb * classes..(s + 1) * cb * classes];
            let dst = s * pass_len + start * classes;
            out[dst..dst + cb * classes].copy_from_slice(src);
        }
        ws.recycle_tensor(x);
        start = end;
    }
    Ok(())
}

/// Extracts samples `[start, end)` of an NCHW tensor as a new batch.
///
/// # Errors
///
/// Returns a tensor error when `images` is not rank 4 or the range is out
/// of bounds.
pub fn slice_batch(images: &Tensor, start: usize, end: usize) -> Result<Tensor> {
    let (n, c, h, w) = images.shape().as_nchw().ok_or_else(|| {
        crate::NnError::BadConfig(format!("slice_batch needs rank-4, got {}", images.shape()))
    })?;
    if start > end || end > n {
        return Err(crate::NnError::BadConfig(format!(
            "slice range {start}..{end} out of bounds for batch of {n}"
        )));
    }
    let item = c * h * w;
    let data = images.as_slice()[start * item..end * item].to_vec();
    Tensor::from_vec(data, Shape::d4(end - start, c, h, w)).map_err(Into::into)
}

/// [`slice_batch`] with the copy landing in a workspace-pooled buffer.
///
/// # Errors
///
/// Returns a tensor error when `images` is not rank 4 or the range is out
/// of bounds.
pub fn slice_batch_ws(
    images: &Tensor,
    start: usize,
    end: usize,
    ws: &mut Workspace,
) -> Result<Tensor> {
    let (n, c, h, w) = images.shape().as_nchw().ok_or_else(|| {
        crate::NnError::BadConfig(format!("slice_batch needs rank-4, got {}", images.shape()))
    })?;
    if start > end || end > n {
        return Err(crate::NnError::BadConfig(format!(
            "slice range {start}..{end} out of bounds for batch of {n}"
        )));
    }
    let item = c * h * w;
    let mut data = ws.take_dirty((end - start) * item);
    data.copy_from_slice(&images.as_slice()[start * item..end * item]);
    Tensor::from_vec(data, Shape::d4(end - start, c, h, w)).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};

    /// A linearly-separable toy problem: class = argmax of two pixel sums.
    fn toy_batch(rng: &mut Rng64, n: usize) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(n * 8);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let label = rng.below(2);
            for i in 0..8 {
                let base = if (i < 4) == (label == 0) { 1.0 } else { 0.0 };
                data.push(base + rng.normal_with(0.0, 0.2));
            }
            labels.push(label);
        }
        (
            Tensor::from_vec(data, Shape::d4(n, 2, 2, 2)).unwrap(),
            labels,
        )
    }

    fn toy_net(rng: &mut Rng64) -> Sequential {
        let mut net = Sequential::new();
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(8, 16, true, rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Linear::new(16, 2, true, rng)));
        net
    }

    #[test]
    fn warmup_scales_early_epochs() {
        let config = TrainConfig {
            schedule: LrSchedule::Constant(0.1),
            warmup_epochs: 2,
            ..TrainConfig::default()
        };
        assert!((config.lr_at(0) - 0.1 / 3.0).abs() < 1e-7);
        assert!((config.lr_at(1) - 0.2 / 3.0).abs() < 1e-7);
        assert_eq!(config.lr_at(2), 0.1, "past warmup: full rate");
        let no_warmup = TrainConfig {
            warmup_epochs: 0,
            ..config
        };
        assert_eq!(no_warmup.lr_at(0), 0.1);
    }

    #[test]
    fn fit_learns_separable_problem() {
        let mut rng = Rng64::new(42);
        let mut net = toy_net(&mut rng);
        let config = TrainConfig {
            epochs: 5,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.1),
            momentum: 0.9,
            weight_decay: 0.0,
            warmup_epochs: 0,
            clip_norm: 0.0,
        };
        let history = fit(&mut net, &config, &mut rng, |rng| {
            let batches: Vec<_> = (0..8).map(|_| toy_batch(rng, 16)).collect();
            batches.into_iter()
        })
        .unwrap();
        assert_eq!(history.len(), 5);
        let first = history.first().unwrap();
        let last = history.last().unwrap();
        assert!(
            last.loss < first.loss,
            "loss should fall: {} -> {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy > 0.9, "final accuracy {}", last.accuracy);
    }

    #[test]
    fn predict_probs_rows_sum_to_one() {
        let mut rng = Rng64::new(1);
        let mut net = toy_net(&mut rng);
        let (images, _) = toy_batch(&mut rng, 10);
        let mut ws = Workspace::new();
        let probs = predict_probs_ws(&mut net, &images, Mode::Standard, 4, &mut ws).unwrap();
        assert_eq!(probs.shape(), &Shape::d2(10, 2));
        for i in 0..10 {
            let s: f32 = probs.as_slice()[i * 2..(i + 1) * 2].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn predict_probs_batch_size_does_not_change_result() {
        let mut rng = Rng64::new(2);
        let mut net = toy_net(&mut rng);
        let (images, _) = toy_batch(&mut rng, 7);
        let mut ws = Workspace::new();
        let a = predict_probs_ws(&mut net, &images, Mode::Standard, 3, &mut ws).unwrap();
        let b = predict_probs_ws(&mut net, &images, Mode::Standard, 7, &mut ws).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn slice_batch_bounds() {
        let images = Tensor::zeros(Shape::d4(4, 1, 2, 2));
        assert!(slice_batch(&images, 0, 5).is_err());
        assert!(slice_batch(&images, 3, 2).is_err());
        let ok = slice_batch(&images, 1, 3).unwrap();
        assert_eq!(ok.shape(), &Shape::d4(2, 1, 2, 2));
    }
}
