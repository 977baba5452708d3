use crate::{Layer, Mode, Param, Result};
use nds_tensor::{Shape, Tensor, Workspace};

/// An ordered chain of layers executed front to back.
///
/// `Sequential` is itself a [`Layer`], so chains nest (residual blocks use
/// nested `Sequential`s for their main and shortcut paths).
#[derive(Debug, Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Structural-surgery counter: bumped whenever the layer *list* may
    /// have changed (`push`, any `layers_mut` borrow). Consumed through
    /// [`Layer::structural_epoch`] by the MC clone cache so cached
    /// worker clones cannot survive surgery that touches no parameter.
    epoch: u64,
}

impl Sequential {
    /// An empty chain (acts as identity).
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            epoch: 0,
        }
    }

    /// Appends a layer, builder-style.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.epoch = self.epoch.wrapping_add(1);
        self.layers.push(layer);
        self
    }

    /// Inserts a layer at `index`, shifting later layers back — the
    /// surgery multi-exit attachment uses to place an
    /// [`crate::layers::ExitHead`] mid-chain. Structural surgery: bumps
    /// the [`Layer::structural_epoch`] counter like [`Sequential::push`].
    ///
    /// # Panics
    ///
    /// Panics when `index > len()` (same contract as `Vec::insert`).
    pub fn insert(&mut self, index: usize, layer: Box<dyn Layer>) -> &mut Self {
        self.epoch = self.epoch.wrapping_add(1);
        self.layers.insert(index, layer);
        self
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the chain has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the contained layers (used by the supernet to
    /// reach dropout slots).
    ///
    /// A `&mut Box<dyn Layer>` can *replace* a layer outright, so every
    /// borrow conservatively counts as structural surgery and bumps the
    /// [`Layer::structural_epoch`] counter. Hot loops that only need to
    /// *call* each layer should use [`Sequential::each_layer_mut`],
    /// which cannot swap layers and therefore leaves the epoch alone.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        self.epoch = self.epoch.wrapping_add(1);
        &mut self.layers
    }

    /// Iterates the layers as `&mut dyn Layer` — enough to run forwards
    /// or mutate a layer's internals, but structurally read-only (a
    /// trait-object borrow cannot replace the box), so unlike
    /// [`Sequential::layers_mut`] this does **not** advance the
    /// structural epoch. The quantised datapath walks the chain through
    /// this every pass.
    pub fn each_layer_mut(&mut self) -> impl Iterator<Item = &mut (dyn Layer + 'static)> {
        self.layers.iter_mut().map(|layer| layer.as_mut())
    }

    /// Total scalar parameter count across all layers.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// A one-line-per-layer summary, useful for debugging architectures.
    pub fn summary(&self, input: &Shape) -> String {
        let mut out = String::new();
        let mut shape = input.clone();
        for layer in &self.layers {
            let next = layer
                .out_shape(&shape)
                .map(|s| s.to_string())
                .unwrap_or_else(|e| format!("<error: {e}>"));
            out.push_str(&format!("{:<40} {} -> {}\n", layer.name(), shape, next));
            if let Ok(s) = layer.out_shape(&shape) {
                shape = s;
            }
        }
        out
    }

    /// The one chain loop behind the plain, fused and gathered forwards:
    /// runs `step` on each layer front to back, passes every output
    /// through [`poison_point`], and recycles each intermediate
    /// activation as soon as the next layer has consumed it — layers
    /// clone whatever they need into their own caches (training mode
    /// only), so no recycled buffer is ever still referenced. The
    /// borrowed `input` itself is never recycled; an empty chain returns
    /// a pooled copy of it.
    fn chain(
        &mut self,
        input: &Tensor,
        ws: &mut Workspace,
        mut step: impl FnMut(&mut dyn Layer, &Tensor, &mut Workspace) -> Result<Tensor>,
    ) -> Result<Tensor> {
        let mut x: Option<Tensor> = None;
        for (index, layer) in self.layers.iter_mut().enumerate() {
            let mut y = step(layer.as_mut(), x.as_ref().unwrap_or(input), ws)?;
            poison_point(index, &mut y);
            if let Some(consumed) = x.replace(y) {
                ws.recycle_tensor(consumed);
            }
        }
        match x {
            Some(out) => Ok(out),
            None => Ok(ws.take_copy(input)),
        }
    }
}

/// Fault-injection point for the output of layer `index` in a chain: an
/// armed `FaultPlan::poison_layer` corrupts the activation exactly once,
/// modelling a transient numeric fault (bit flip / overflow) inside the
/// accelerator datapath. Free when no plan is armed. Every walker — the
/// chain loop here and the MC walkers in [`crate::train`] — passes each
/// layer output through this one point, so an armed plan hits the same
/// layer index in every execution order.
pub(crate) fn poison_point(index: usize, y: &mut Tensor) {
    if nds_fault::wants_poison(index) {
        if let Some(v) = y.as_mut_slice().first_mut() {
            *v = f32::NAN;
        }
    }
}

impl FromIterator<Box<dyn Layer>> for Sequential {
    fn from_iter<I: IntoIterator<Item = Box<dyn Layer>>>(iter: I) -> Self {
        Sequential {
            layers: iter.into_iter().collect(),
            epoch: 0,
        }
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
    fn forward_ws(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        self.chain(input, ws, |layer, x, ws| layer.forward_ws(x, mode, ws))
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn begin_mc_round(&mut self) {
        for layer in &mut self.layers {
            layer.begin_mc_round();
        }
    }

    fn begin_mc_sample(&mut self, sample: u64) {
        for layer in &mut self.layers {
            layer.begin_mc_sample(sample);
        }
    }

    fn mc_is_stochastic(&self) -> bool {
        self.layers.iter().any(|layer| layer.mc_is_stochastic())
    }

    fn begin_mc_fused(&mut self, samples: usize, stream_base: u64) {
        for layer in &mut self.layers {
            layer.begin_mc_fused(samples, stream_base);
        }
    }

    fn forward_mc_fused(
        &mut self,
        input: &Tensor,
        samples: usize,
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        self.chain(input, ws, |layer, x, ws| {
            layer.forward_mc_fused(x, samples, ws)
        })
    }

    fn forward_mc_gathered(
        &mut self,
        input: &Tensor,
        kept: &[usize],
        ws: &mut Workspace,
    ) -> Result<Tensor> {
        self.chain(input, ws, |layer, x, ws| {
            layer.forward_mc_gathered(x, kept, ws)
        })
    }

    fn save_mc_state(&mut self) {
        for layer in &mut self.layers {
            layer.save_mc_state();
        }
    }

    fn restore_mc_state(&mut self, ws: &mut Workspace) {
        for layer in &mut self.layers {
            layer.restore_mc_state(ws);
        }
    }

    fn visit_batch_norms(&mut self, f: &mut dyn FnMut(&mut crate::layers::BatchNorm2d)) {
        for layer in &mut self.layers {
            layer.visit_batch_norms(f);
        }
    }

    fn visit_any(&mut self, f: &mut dyn FnMut(&mut dyn std::any::Any)) {
        for layer in &mut self.layers {
            layer.visit_any(f);
        }
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params(f);
        }
    }

    fn structural_epoch(&self) -> u64 {
        // Sum the subtree so surgery on a nested chain (a residual
        // block's main path, say) propagates to the root fingerprint.
        self.layers.iter().fold(self.epoch, |acc, layer| {
            acc.wrapping_add(layer.structural_epoch())
        })
    }

    fn name(&self) -> String {
        format!("sequential[{}]", self.layers.len())
    }

    fn out_shape(&self, input: &Shape) -> Result<Shape> {
        let mut shape = input.clone();
        for layer in &self.layers {
            shape = layer.out_shape(&shape)?;
        }
        Ok(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use nds_tensor::rng::Rng64;

    fn tiny_mlp(rng: &mut Rng64) -> Sequential {
        let mut seq = Sequential::new();
        seq.push(Box::new(Flatten::new()));
        seq.push(Box::new(Linear::new(4, 8, true, rng)));
        seq.push(Box::new(Relu::new()));
        seq.push(Box::new(Linear::new(8, 3, true, rng)));
        seq
    }

    #[test]
    fn forward_chains_shapes() {
        let mut rng = Rng64::new(1);
        let mut mlp = tiny_mlp(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(5, 1, 2, 2), 0.0, 1.0, &mut rng);
        let y = mlp.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.shape(), &Shape::d2(5, 3));
        assert_eq!(mlp.out_shape(x.shape()).unwrap(), *y.shape());
    }

    #[test]
    fn params_are_collected_from_all_layers() {
        let mut rng = Rng64::new(2);
        let mlp = tiny_mlp(&mut rng);
        // Two linear layers x (weight + bias) = 4 params.
        assert_eq!(mlp.params().len(), 4);
        assert_eq!(mlp.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn end_to_end_gradient_matches_finite_differences() {
        let mut rng = Rng64::new(3);
        let mut mlp = tiny_mlp(&mut rng);
        let x = Tensor::rand_normal(Shape::d4(2, 1, 2, 2), 0.0, 1.0, &mut rng);
        let y = mlp.forward(&x, Mode::Train).unwrap();
        let dx = mlp.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp = mlp.forward(&plus, Mode::Train).unwrap().sum();
            let fm = mlp.forward(&minus, Mode::Train).unwrap().sum();
            let numeric = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 2e-2 * (1.0 + dx.as_slice()[i].abs()),
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new();
        let x = Tensor::arange(4);
        assert_eq!(seq.forward(&x, Mode::Train).unwrap(), x);
        assert_eq!(seq.backward(&x).unwrap(), x);
        assert!(seq.is_empty());
    }

    #[test]
    fn summary_mentions_every_layer() {
        let mut rng = Rng64::new(4);
        let mlp = tiny_mlp(&mut rng);
        let s = mlp.summary(&Shape::d4(1, 1, 2, 2));
        assert!(s.contains("flatten"));
        assert!(s.contains("linear(4->8)"));
        assert!(s.contains("relu"));
        assert!(s.contains("linear(8->3)"));
    }
}
