//! Functional Q7.8 datapath emulation.
//!
//! The accelerator computes in 16-bit fixed point (1 sign + 7 integer + 8
//! fraction bits, §4). This module emulates that datapath on a trained
//! network so the quantised accuracy drop can be measured without an FPGA:
//!
//! * [`quantize_network`] rounds every weight to the target format in
//!   place (what loading weights into on-chip memory does),
//! * [`quantized_forward`] additionally rounds the activations flowing
//!   between layer engines to the same format — the standard
//!   fake-quantisation emulation of a fixed-point pipeline. (Inside one
//!   engine, accumulation is wide — see [`nds_quant::MacUnit`] — so only
//!   inter-engine activations quantise, which is what this models.)
//!
//! The datapath itself lives in [`nds_engine::quantized`] — the engine's
//! `Backend::Quantized`/`Backend::HwSim` serve it behind the unified
//! request/response API — and the functions here are compatibility
//! shims over that single implementation, so the two crates cannot
//! drift apart numerically.

use crate::Result;
use nds_nn::layers::Sequential;
use nds_nn::{Layer, Mode};
use nds_quant::{fake_quantize, FixedFormat};
use nds_tensor::{Tensor, Workspace};

/// Quantises every parameter of the network to `format`, in place.
/// Returns the number of scalars that changed value.
pub fn quantize_network(net: &mut Sequential, format: FixedFormat) -> usize {
    let mut changed = 0;
    for param in net.params_mut() {
        let before = param.value.as_slice().to_vec();
        let quant = fake_quantize(&before, format);
        for (b, q) in before.iter().zip(quant.iter()) {
            if b != q {
                changed += 1;
            }
        }
        param.value = Tensor::from_vec(quant, param.value.shape().clone())
            .expect("quantisation preserves shape")
            .into();
    }
    changed
}

/// Runs a forward pass with activations rounded to `format` between
/// layers, returning softmax probabilities `[n, classes]`.
///
/// Weights should already be quantised (see [`quantize_network`]) for a
/// faithful emulation. Delegates to the engine's pooled
/// [`nds_engine::quantized::quantized_forward_ws`] (the single
/// implementation of the datapath) with a throwaway [`Workspace`].
///
/// # Errors
///
/// Propagates network execution errors.
pub fn quantized_forward(
    net: &mut Sequential,
    images: &Tensor,
    format: FixedFormat,
    mode: Mode,
) -> Result<Tensor> {
    Ok(nds_engine::quantized::quantized_forward_ws(
        net,
        images,
        format,
        mode,
        &mut Workspace::new(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_engine::{Backend, EngineBuilder, Execution};
    use nds_nn::layers::{Flatten, Linear, Relu};
    use nds_quant::{Q3_12, Q7_8};
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

    #[test]
    fn quantize_network_reports_changes() {
        let mut rng = Rng64::new(1);
        let mut net = toy_net(&mut rng);
        let changed = quantize_network(&mut net, Q7_8);
        assert!(changed > 0, "random weights rarely sit on the Q7.8 grid");
        // Second quantisation is a fixed point (idempotent).
        let changed_again = quantize_network(&mut net, Q7_8);
        assert_eq!(changed_again, 0);
    }

    #[test]
    fn quantized_forward_is_close_to_float() {
        let mut rng = Rng64::new(2);
        let mut net = toy_net(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(5, 2, 2, 2), 0.0, 1.0, &mut rng);
        let float_probs = {
            let logits = net.forward(&x, Mode::Standard).unwrap();
            logits.softmax_rows().unwrap()
        };
        quantize_network(&mut net, Q7_8);
        let q_probs = quantized_forward(&mut net, &x, Q7_8, Mode::Standard).unwrap();
        // Probabilities should agree to within a few percent.
        let max_err = float_probs
            .as_slice()
            .iter()
            .zip(q_probs.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.06, "max prob deviation {max_err}");
    }

    #[test]
    fn finer_format_is_closer() {
        let mut rng = Rng64::new(3);
        let x = Tensor::rand_normal(Shape::d4(8, 2, 2, 2), 0.0, 1.0, &mut rng);
        let probs_for = |format| {
            let mut rng = Rng64::new(3); // fresh identical net
            let mut net = toy_net(&mut rng);
            let float = {
                let logits = net.forward(&x, Mode::Standard).unwrap();
                logits.softmax_rows().unwrap()
            };
            quantize_network(&mut net, format);
            let q = quantized_forward(&mut net, &x, format, Mode::Standard).unwrap();
            let err: f32 = float
                .as_slice()
                .iter()
                .zip(q.as_slice())
                .map(|(&a, &b)| (a - b).abs())
                .sum();
            err
        };
        let coarse = probs_for(Q7_8);
        let fine = probs_for(Q3_12);
        assert!(
            fine < coarse,
            "Q3.12 error {fine} should beat Q7.8 {coarse}"
        );
    }

    fn stochastic_net(rng: &mut Rng64) -> Sequential {
        use nds_nn::arch::{FeatureShape, SlotInfo, SlotPosition};
        let mut net = Sequential::new();
        net.push(Box::new(Flatten::new()));
        net.push(Box::new(Linear::new(8, 16, true, rng)));
        let slot = SlotInfo {
            id: 0,
            shape: FeatureShape::Vector { features: 16 },
            position: SlotPosition::FullyConnected,
        };
        net.push(Box::new(
            nds_dropout::DropoutLayer::for_slot(
                nds_dropout::DropoutKind::Bernoulli,
                &slot,
                &nds_dropout::DropoutSettings {
                    rate: 0.5,
                    ..nds_dropout::DropoutSettings::default()
                },
                9,
            )
            .unwrap(),
        ));
        net.push(Box::new(Linear::new(16, 4, true, rng)));
        net
    }

    #[test]
    fn quantized_mc_is_byte_identical_across_worker_counts() {
        // Per-sample streams make the quantised MC path independent of
        // execution order, mirroring the float path's golden guarantee.
        let mut rng = Rng64::new(5);
        let mut net = stochastic_net(&mut rng);
        quantize_network(&mut net, Q7_8);
        let x = Tensor::rand_normal(Shape::d4(5, 2, 2, 2), 0.0, 1.0, &mut rng);
        let request = nds_engine::PredictRequest::new(&x);
        let mut serial_engine = EngineBuilder::new(net.clone())
            .backend(Backend::quantized_q78())
            .samples(4)
            .workers(1)
            .execution(Execution::RoundMajor)
            .build();
        let serial = serial_engine.predict(&request).unwrap();
        for workers in [2, 3, 4, 8] {
            let mut engine = EngineBuilder::new(net.clone())
                .backend(Backend::quantized_q78())
                .samples(4)
                .workers(workers)
                .execution(Execution::RoundMajor)
                .build();
            let parallel = engine.predict(&request).unwrap();
            assert_eq!(
                serial.probs.as_slice(),
                parallel.probs.as_slice(),
                "quantized MC bytes diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn quantized_mc_does_not_advance_caller_rng() {
        // A quantised MC round must leave the caller's stochastic state
        // untouched: the engine runs on its own clone of the network, so
        // a Train-mode forward afterwards draws the same masks either way.
        let mut rng = Rng64::new(6);
        let mut with_mc = stochastic_net(&mut rng);
        let mut rng2 = Rng64::new(6);
        let mut without_mc = stochastic_net(&mut rng2);
        let x = Tensor::rand_normal(Shape::d4(3, 2, 2, 2), 0.0, 1.0, &mut rng);
        let mut engine = EngineBuilder::new(with_mc.clone())
            .backend(Backend::quantized_q78())
            .samples(3)
            .build();
        let _ = engine
            .predict(&nds_engine::PredictRequest::new(&x))
            .unwrap();
        let a = with_mc.forward(&x, Mode::Train).unwrap();
        let b = without_mc.forward(&x, Mode::Train).unwrap();
        assert_eq!(
            a, b,
            "quantized MC round must not advance the caller's RNG state"
        );
    }

    #[test]
    fn quantized_mc_rows_sum_to_one() {
        let mut rng = Rng64::new(4);
        let mut net = toy_net(&mut rng);
        quantize_network(&mut net, Q7_8);
        let x = Tensor::rand_normal(Shape::d4(3, 2, 2, 2), 0.0, 1.0, &mut rng);
        let mut engine = EngineBuilder::new(net)
            .backend(Backend::quantized_q78())
            .samples(3)
            .build();
        let response = engine
            .predict(&nds_engine::PredictRequest::new(&x))
            .unwrap();
        assert_eq!(response.probs.shape(), &Shape::d2(3, 4));
        for i in 0..3 {
            let s: f32 = response.probs.as_slice()[i * 4..(i + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
