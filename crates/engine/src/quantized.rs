//! Workspace-pooled emulation of the fixed-point accelerator datapath.
//!
//! The FPGA computes in 16-bit fixed point (1 sign + `int` + `frac`
//! bits); this module emulates that datapath on a network whose weights
//! have already been snapped to the grid (see `quantize_network` in
//! `nds-hw`): the input and every inter-layer activation are rounded to
//! the target format, while accumulation inside a layer engine stays
//! wide and the final softmax runs at full precision on the host/output
//! stage — the standard fake-quantisation model.
//!
//! The rounding is one activation tap, `quantize_activation`, which
//! the engine hands to both MC walkers (`predict_probs_tapped_ws` for
//! round-major, `predict_probs_fused_into_ws` for sample-major), so the
//! two execution orders quantise through one definition. `nds-hw`'s
//! historical `quantized_forward` runs through [`quantized_forward_ws`],
//! the same walker and tap, so the two crates can never drift apart
//! numerically.

use nds_nn::layers::Sequential;
use nds_nn::train::predict_probs_tapped_ws;
use nds_nn::{Mode, Result};
use nds_quant::{Fixed, FixedFormat};
use nds_tensor::{Tensor, Workspace};

/// Runs one forward pass with the input and every inter-layer activation
/// rounded to `format`, returning softmax probabilities `[n, classes]`:
/// the round-major walker over the whole NCHW batch as one chunk, tapped
/// with `quantize_activation`.
///
/// # Errors
///
/// Propagates network execution errors.
pub fn quantized_forward_ws(
    net: &mut Sequential,
    images: &Tensor,
    format: FixedFormat,
    mode: Mode,
    ws: &mut Workspace,
) -> Result<Tensor> {
    let n = images.shape().dim(0);
    let mut tap = |t: Tensor, _: &mut Workspace| Ok(quantize_activation(t, format));
    predict_probs_tapped_ws(net, images, mode, n, ws, Some(&mut tap))
}

/// The quantise tap: rounds every element of `t` to `format` in place.
/// Finite values and infinities take exactly the bits of
/// [`nds_quant::fake_quantize`]. NaN passes through unchanged: `Fixed`
/// has no NaN and would read it as 0, which would hide a datapath
/// fault from the engine's non-finite output scan.
pub(crate) fn quantize_activation(mut t: Tensor, format: FixedFormat) -> Tensor {
    for v in t.as_mut_slice() {
        if !v.is_nan() {
            *v = Fixed::from_f32(*v, format).to_f32();
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_nn::layers::{Flatten, Linear, Relu};
    use nds_quant::{fake_quantize, Q7_8};
    use nds_tensor::rng::Rng64;
    use nds_tensor::Shape;

    fn toy_net(rng: &mut Rng64) -> Sequential {
        let mut net = Sequential::new();
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(8, 16, true, rng)));
        net.push(Box::new(Relu::new()));
        net.push(Box::new(Linear::new(16, 4, true, rng)));
        net
    }

    /// Reference re-implementation with fresh allocations everywhere —
    /// the shape the historical `nds_hw::simulator::quantized_forward`
    /// had. The pooled path must agree byte for byte.
    fn quantized_forward_alloc(
        net: &mut Sequential,
        images: &Tensor,
        format: FixedFormat,
        mode: Mode,
    ) -> Tensor {
        let mut x = Tensor::from_vec(
            fake_quantize(images.as_slice(), format),
            images.shape().clone(),
        )
        .unwrap();
        for layer in net.layers_mut() {
            let y = layer.forward(&x, mode).unwrap();
            x = Tensor::from_vec(fake_quantize(y.as_slice(), format), y.shape().clone()).unwrap();
        }
        let (n, c) = (x.shape().dim(0), x.shape().dim(1));
        x.reshape(Shape::d2(n, c)).unwrap().softmax_rows().unwrap()
    }

    #[test]
    fn pooled_path_matches_allocating_reference_bytes() {
        let mut rng = Rng64::new(7);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(5, 2, 2, 2), 0.0, 1.0, &mut rng);
        let expect = quantized_forward_alloc(&mut net, &x, Q7_8, Mode::Standard);
        let mut ws = Workspace::new();
        let got = quantized_forward_ws(&mut net, &x, Q7_8, Mode::Standard, &mut ws).unwrap();
        assert_eq!(expect.as_slice(), got.as_slice());
    }

    /// Quantised round-major pass over `x` in chunks of `chunk`.
    fn quantized_probs(
        net: &mut Sequential,
        x: &Tensor,
        chunk: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let mut tap = |t: Tensor, _: &mut Workspace| Ok(quantize_activation(t, Q7_8));
        predict_probs_tapped_ws(net, x, Mode::Standard, chunk, ws, Some(&mut tap)).unwrap()
    }

    #[test]
    fn chunking_does_not_change_quantized_probs() {
        let mut rng = Rng64::new(8);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(7, 2, 2, 2), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let one_shot = quantized_probs(&mut net, &x, 7, &mut ws);
        for chunk in [1, 2, 3, 5] {
            let chunked = quantized_probs(&mut net, &x, chunk, &mut ws);
            assert_eq!(one_shot.as_slice(), chunked.as_slice(), "chunk {chunk}");
        }
    }

    #[test]
    fn steady_state_rounds_reuse_the_pool() {
        let mut rng = Rng64::new(9);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(4, 2, 2, 2), 0.0, 1.0, &mut rng);
        let mut ws = Workspace::new();
        let warm = quantized_probs(&mut net, &x, 2, &mut ws);
        ws.recycle_tensor(warm);
        let allocations = ws.allocations();
        for _ in 0..3 {
            let probs = quantized_probs(&mut net, &x, 2, &mut ws);
            ws.recycle_tensor(probs);
        }
        assert_eq!(
            ws.allocations(),
            allocations,
            "steady-state quantized rounds must be served from the pool"
        );
    }

    #[test]
    fn the_tap_passes_nan_and_quantises_everything_else_like_fake_quantize() {
        let values = vec![
            0.0,
            -0.0,
            0.001,
            -0.001_953_125,
            1.0 / 512.0,
            0.3,
            -2.5,
            127.996,
            200.0,
            -200.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::NAN,
        ];
        let want = fake_quantize(&values, Q7_8);
        let t = Tensor::from_vec(values.clone(), Shape::d1(values.len())).unwrap();
        let got = quantize_activation(t, Q7_8);
        for (i, (&g, &w)) in got.as_slice().iter().zip(&want).enumerate() {
            if values[i].is_nan() {
                assert!(g.is_nan(), "NaN must pass the tap unchanged");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "value {}", values[i]);
            }
        }
    }
}
