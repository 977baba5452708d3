use crate::{Layer, Mode, NnError, Param, Result};
use nds_tensor::conv::{col2im_image, conv2d_lower, conv2d_ws, ConvGeometry};
use nds_tensor::ops::{gemm_transa, gemm_transb_acc};
use nds_tensor::parallel::worker_count;
use nds_tensor::rng::Rng64;
use nds_tensor::{Shape, Tensor, TensorError, Workspace};

/// 2-D convolution layer with optional bias.
///
/// Weights have shape `[out_channels, in_channels, k, k]` and are
/// He-initialised. Every forward runs [`conv2d_lower`]: per-image im2col
/// onto the blocked gemm (the same dataflow the `nds-hw` accelerator
/// model assumes), with the batch split into image ranges across the
/// worker pool, one fan-out per call.
///
/// The im2col patches are cached for the backward pass **only in
/// [`Mode::Train`]**: there each image is unrolled into its slab of an
/// image-major cache drawn from a private [`Workspace`]. Inference-mode
/// forwards (the Monte-Carlo engine never calls `backward`) unroll into
/// one image's scratch per task from the caller's pool instead.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    geometry: ConvGeometry,
    in_channels: usize,
    out_channels: usize,
    cache: Option<Cache>,
    workspace: Workspace,
}

#[derive(Debug)]
struct Cache {
    /// Per-image im2col patches, image-major: `n` consecutive
    /// `[C*K*K, OH*OW]` matrices.
    cols: Vec<f32>,
    input_shape: Shape,
}

impl Clone for Conv2d {
    /// Clones parameters (a cheap copy-on-write share) but neither the
    /// forward cache nor the scratch pool: clones are made to fan
    /// inference out across workers, where both start empty anyway.
    fn clone(&self) -> Self {
        Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            geometry: self.geometry,
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            cache: None,
            workspace: Workspace::new(),
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        geometry: ConvGeometry,
        bias: bool,
        rng: &mut Rng64,
    ) -> Self {
        let k = geometry.kernel;
        let fan_in = in_channels * k * k;
        let weight =
            Tensor::kaiming_normal(Shape::d4(out_channels, in_channels, k, k), fan_in, rng);
        Conv2d {
            weight: Param::new(weight, true),
            bias: bias.then(|| Param::new(Tensor::zeros(Shape::d1(out_channels)), false)),
            geometry,
            in_channels,
            out_channels,
            cache: None,
            workspace: Workspace::new(),
        }
    }

    /// The layer's convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geometry
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        if !matches!(mode, Mode::Train) {
            // Inference: no backward coming, so no patch cache — one
            // im2col per image, scratch and output drawn from (and the
            // scratch returned to) the caller's pool. A pending training
            // cache, if any, is left in place for its backward pass.
            return conv2d_ws(
                input,
                &self.weight.value,
                self.bias.as_ref().map(|b| &*b.value),
                self.geometry,
                ws,
            )
            .map_err(NnError::from);
        }
        // Recycle the previous training cache before replacing it.
        if let Some(old) = self.cache.take() {
            self.workspace.recycle(old.cols);
        }
        // Training: the same lowering as inference, but each image is
        // unrolled into its own slab of the (pooled, image-major) patch
        // cache, which is then kept for the weight gradient — so outputs
        // are bit-identical across modes.
        let out_shape = self.out_shape(input.shape())?;
        let (n, _, oh, ow) = out_shape.as_nchw().expect("conv2d output is rank-4");
        let k = self.geometry.kernel;
        let mut cols = self
            .workspace
            .take_dirty(n * self.in_channels * k * k * oh * ow);
        let out = conv2d_lower(
            input,
            &self.weight.value,
            self.bias.as_ref().map(|b| &*b.value),
            self.geometry,
            ws,
            Some(&mut cols),
            worker_count(),
        )?;
        self.cache = Some(Cache {
            cols,
            input_shape: input.shape().clone(),
        });
        Ok(out)
    }

    fn forward_mc_fused(
        &mut self,
        input: &Tensor,
        samples: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        // The fused sample-major pass just runs `samples × batch` images
        // through the same per-image lowering inference uses — byte
        // identity with the round-major path for free. The wide batch
        // splits into one image range per worker, and the narrow
        // per-image gemms keep their column stride cache-friendly (a
        // single batch-wide gemm strides B by `N·OH·OW` floats, which
        // aliases L1 sets on power-of-two spatial sizes).
        let _ = samples;
        conv2d_ws(
            input,
            &self.weight.value,
            self.bias.as_ref().map(|b| &*b.value),
            self.geometry,
            ws,
        )
        .map_err(NnError::from)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        let (n, c, h, w) = cache
            .input_shape
            .as_nchw()
            .expect("cached input shape is rank-4");
        let g = self.geometry;
        let oh = g.out_dim(h);
        let ow = g.out_dim(w);
        let oc = self.out_channels;
        let (gn, goc, goh, gow) = grad.shape().as_nchw().ok_or(TensorError::RankMismatch {
            op: "conv2d backward",
            expected: 4,
            actual: grad.shape().rank(),
        })?;
        if gn != n || goc != oc || goh != oh || gow != ow {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "conv2d backward",
                lhs: Shape::d4(n, oc, oh, ow),
                rhs: grad.shape().clone(),
            }));
        }
        let k = g.kernel;
        let ckk = c * k * k;
        let spatial = oh * ow;
        let per_image = ckk * spatial;
        let gsrc = grad.as_slice();
        let workers = worker_count();
        // Per image, the NCHW gradient slab is already the [OC, OH*OW]
        // matrix the gemm kernels want — no rearrangement pass.
        let mut dw = self.workspace.take(oc * ckk);
        let mut dcols = self.workspace.take(per_image);
        // dx escapes to the caller: plain allocation, not pooled scratch.
        let mut dx = vec![0.0f32; n * c * h * w];
        let wmat = self.weight.value.as_slice();
        for ni in 0..n {
            let gmat = &gsrc[ni * oc * spatial..(ni + 1) * oc * spatial];
            let cols = &cache.cols[ni * per_image..(ni + 1) * per_image];
            // dW += grad_i × cols_iᵀ  ([OC, S] × [CKK, S]ᵀ).
            gemm_transb_acc(gmat, cols, oc, spatial, ckk, &mut dw, workers);
            // dcols = Wᵀ × grad_i  ([OC, CKK]ᵀ × [OC, S]) — no transposed
            // weight copy.
            gemm_transa(wmat, gmat, oc, ckk, spatial, &mut dcols, workers);
            col2im_image(
                &dcols,
                c,
                h,
                w,
                g,
                &mut dx[ni * c * h * w..(ni + 1) * c * h * w],
            );
        }
        let dw = Tensor::from_vec(dw, Shape::d4(oc, self.in_channels, k, k))?;
        self.weight.grad.add_scaled(&dw, 1.0)?;
        self.workspace.recycle_tensor(dw);
        if let Some(bias) = &mut self.bias {
            // dBias[o] = Σ over images and spatial positions of grad.
            let mut db = self.workspace.take(oc);
            for ni in 0..n {
                for (o, d) in db.iter_mut().enumerate() {
                    let base = (ni * oc + o) * spatial;
                    *d += gsrc[base..base + spatial].iter().sum::<f32>();
                }
            }
            let db = Tensor::from_vec(db, Shape::d1(oc))?;
            bias.grad.add_scaled(&db, 1.0)?;
            self.workspace.recycle_tensor(db);
        }
        self.workspace.recycle(dcols);
        self.workspace.recycle(cache.cols);
        Tensor::from_vec(dx, cache.input_shape).map_err(NnError::from)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            ps.push(b);
        }
        ps
    }

    fn params(&self) -> Vec<&Param> {
        let mut ps = vec![&self.weight];
        if let Some(b) = &self.bias {
            ps.push(b);
        }
        ps
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        if let Some(b) = &self.bias {
            f(b);
        }
    }

    fn name(&self) -> String {
        format!(
            "conv2d({}->{}, {}x{}/s{} p{})",
            self.in_channels,
            self.out_channels,
            self.geometry.kernel,
            self.geometry.kernel,
            self.geometry.stride,
            self.geometry.padding
        )
    }

    fn out_shape(&self, input: &Shape) -> Result<Shape> {
        let (n, c, h, w) = input.as_nchw().ok_or(TensorError::RankMismatch {
            op: "conv2d out_shape",
            expected: 4,
            actual: input.rank(),
        })?;
        if c != self.in_channels {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "conv2d out_shape",
                lhs: Shape::d4(n, self.in_channels, h, w),
                rhs: input.clone(),
            }));
        }
        Ok(Shape::d4(
            n,
            self.out_channels,
            self.geometry.out_dim(h),
            self.geometry.out_dim(w),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_tensor::conv::conv2d_direct;

    fn finite_diff_check(layer: &mut Conv2d, input: &Tensor) {
        // Loss = sum(output); analytic input gradient must match finite
        // differences.
        let out = layer.forward(input, Mode::Train).unwrap();
        let ones = Tensor::ones(out.shape().clone());
        let dx = layer.backward(&ones).unwrap();
        let eps = 1e-2f32;
        for i in [0usize, input.len() / 2, input.len() - 1] {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let f_plus = layer.forward(&plus, Mode::Train).unwrap().sum();
            let f_minus = layer.forward(&minus, Mode::Train).unwrap().sum();
            let numeric = ((f_plus - f_minus) / (2.0 * eps as f64)) as f32;
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "index {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng64::new(1);
        let mut conv = Conv2d::new(3, 8, ConvGeometry::new(3, 1, 1), true, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(2, 3, 8, 8), 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &Shape::d4(2, 8, 8, 8));
        assert_eq!(conv.out_shape(x.shape()).unwrap(), *y.shape());
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = Rng64::new(2);
        let mut conv = Conv2d::new(2, 3, ConvGeometry::new(3, 1, 1), true, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(1, 2, 5, 5), 0.0, 1.0, &mut rng);
        finite_diff_check(&mut conv, &x);
    }

    /// Loss = sum(output); the analytic weight gradient, which reads the
    /// cached patches, must match finite differences.
    fn weight_diff_check(conv: &mut Conv2d, x: &Tensor) {
        conv.params_mut()[0].zero_grad();
        let _ = conv.forward(x, Mode::Train).unwrap();
        let out_shape = conv.out_shape(x.shape()).unwrap();
        let ones = Tensor::ones(out_shape);
        let _ = conv.backward(&ones).unwrap();
        let analytic = conv.params()[0].grad.clone();
        let eps = 1e-2f32;
        for i in [0usize, 5, analytic.len() - 1] {
            let orig = conv.params()[0].value.as_slice()[i];
            conv.params_mut()[0].value.as_mut_slice()[i] = orig + eps;
            let f_plus = conv.forward(x, Mode::Train).unwrap().sum();
            conv.params_mut()[0].value.as_mut_slice()[i] = orig - eps;
            let f_minus = conv.forward(x, Mode::Train).unwrap().sum();
            conv.params_mut()[0].value.as_mut_slice()[i] = orig;
            let numeric = ((f_plus - f_minus) / (2.0 * eps as f64)) as f32;
            let got = analytic.as_slice()[i];
            assert!(
                (numeric - got).abs() < 2e-2 * (1.0 + got.abs()),
                "weight {i}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut rng = Rng64::new(3);
        let mut conv = Conv2d::new(1, 2, ConvGeometry::new(3, 1, 0), false, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(1, 1, 5, 5), 0.0, 1.0, &mut rng);
        weight_diff_check(&mut conv, &x);
    }

    #[test]
    fn stride_two_downsamples() {
        let mut rng = Rng64::new(4);
        let conv = Conv2d::new(1, 1, ConvGeometry::new(3, 2, 1), false, &mut rng);
        let out = conv.out_shape(&Shape::d4(1, 1, 8, 8)).unwrap();
        assert_eq!(out, Shape::d4(1, 1, 4, 4));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng64::new(5);
        let mut conv = Conv2d::new(1, 1, ConvGeometry::new(1, 1, 0), false, &mut rng);
        let grad = Tensor::zeros(Shape::d4(1, 1, 2, 2));
        assert!(matches!(
            conv.backward(&grad),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn inference_forwards_do_not_arm_backward() {
        // Only Train-mode forwards cache patches for the backward pass;
        // MC/standard inference skips the bookkeeping entirely.
        let mut rng = Rng64::new(8);
        let mut conv = Conv2d::new(1, 2, ConvGeometry::new(3, 1, 1), true, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(1, 1, 4, 4), 0.0, 1.0, &mut rng);
        let _ = conv.forward(&x, Mode::McInference).unwrap();
        let grad = Tensor::zeros(Shape::d4(1, 2, 4, 4));
        assert!(matches!(
            conv.backward(&grad),
            Err(NnError::NoForwardCache { .. })
        ));
        // Forward outputs are identical across modes (dropout lives in
        // dedicated layers, not in conv).
        let a = conv.forward(&x, Mode::Train).unwrap();
        let b = conv.forward(&x, Mode::Standard).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn train_and_inference_agree_on_a_split_batch() {
        // Nine 4→8-channel 12×12 images carry enough work per image for
        // the lowering to split the batch into image ranges across the
        // pool. Train mode runs that split with the patch cache as its
        // scratch; the outputs must still match inference and the oracle
        // bit for bit, and both gradients must match finite differences.
        let mut rng = Rng64::new(10);
        let mut conv = Conv2d::new(4, 8, ConvGeometry::new(3, 1, 1), true, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(9, 4, 12, 12), 0.0, 1.0, &mut rng);
        let direct = conv2d_direct(
            &x,
            &conv.weight.value,
            conv.bias.as_ref().map(|b| &*b.value),
            conv.geometry,
        )
        .unwrap();
        let train = conv.forward(&x, Mode::Train).unwrap();
        let standard = conv.forward(&x, Mode::Standard).unwrap();
        let mc = conv.forward(&x, Mode::McInference).unwrap();
        assert_eq!(train, direct);
        assert_eq!(standard, direct);
        assert_eq!(mc, direct);
        finite_diff_check(&mut conv, &x);
        weight_diff_check(&mut conv, &x);
    }

    #[test]
    fn rejects_wrong_input_channels() {
        let mut rng = Rng64::new(6);
        let conv = Conv2d::new(3, 4, ConvGeometry::new(3, 1, 1), false, &mut rng);
        assert!(conv.out_shape(&Shape::d4(1, 2, 8, 8)).is_err());
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = Rng64::new(7);
        let mut conv = Conv2d::new(1, 1, ConvGeometry::new(1, 1, 0), false, &mut rng);
        let x = Tensor::ones(Shape::d4(1, 1, 2, 2));
        let g = Tensor::ones(Shape::d4(1, 1, 2, 2));
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&g).unwrap();
        let first = conv.params()[0].grad.as_slice()[0];
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&g).unwrap();
        assert_eq!(conv.params()[0].grad.as_slice()[0], 2.0 * first);
        conv.params_mut()[0].zero_grad();
        assert_eq!(conv.params()[0].grad.as_slice()[0], 0.0);
    }

    #[test]
    fn steady_state_train_steps_reuse_scratch() {
        let mut rng = Rng64::new(9);
        let mut conv = Conv2d::new(2, 3, ConvGeometry::new(3, 1, 1), true, &mut rng);
        let x = Tensor::rand_normal(Shape::d4(2, 2, 6, 6), 0.0, 1.0, &mut rng);
        let g = Tensor::ones(Shape::d4(2, 3, 6, 6));
        // Warm up: first round allocates the scratch set.
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&g).unwrap();
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&g).unwrap();
        let allocations = conv.workspace.allocations();
        for _ in 0..3 {
            conv.forward(&x, Mode::Train).unwrap();
            conv.backward(&g).unwrap();
        }
        assert_eq!(
            conv.workspace.allocations(),
            allocations,
            "steady-state train steps must reuse pooled scratch"
        );
    }
}
