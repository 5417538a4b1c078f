//! Named, persistent model parameters with accumulated gradients.

use crate::init::Initializer;
use crate::tensor::Tensor;

/// Handle to one parameter tensor inside a [`Params`] store.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ParamId(pub usize);

/// The parameter store: values, gradient accumulators, and names.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Params {
    tensors: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Params {
            tensors: Vec::new(),
            grads: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Registers a parameter with an explicit initial value.
    ///
    /// # Panics
    ///
    /// Panics when the name is already registered.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(
            !self.names.iter().any(|n| n == name),
            "duplicate parameter `{name}`"
        );
        let id = ParamId(self.tensors.len());
        self.grads.push(Tensor::zeros(value.rows(), value.cols()));
        self.tensors.push(value);
        self.names.push(name.to_owned());
        id
    }

    /// Registers a parameter drawn from an initializer.
    pub fn register_init(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
        init: &mut Initializer,
    ) -> ParamId {
        let value = init.sample(rows, cols);
        self.register(name, value)
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Adds `delta` into a parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Iterates over every parameter id.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.tensors.len()).map(ParamId)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::new()
    }
}

/// A detached gradient accumulator shaped like a [`Params`] store.
///
/// Data-parallel training backpropagates each shard into its own
/// `GradBuffer` (the shared `Params` stays immutable, so workers need no
/// locks), then merges the buffers **in a fixed shard order** before the
/// optimizer step. Because merge order never depends on the worker count,
/// the summed gradients — and everything downstream — are bit-identical at
/// any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct GradBuffer {
    grads: Vec<Tensor>,
}

impl GradBuffer {
    /// A zeroed buffer with one accumulator per parameter in `params`.
    pub fn zeros_like(params: &Params) -> Self {
        GradBuffer {
            grads: params
                .tensors
                .iter()
                .map(|t| Tensor::zeros(t.rows(), t.cols()))
                .collect(),
        }
    }

    /// Adds `delta` into the accumulator for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range or shapes mismatch.
    pub fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].add_assign(delta);
    }

    /// The accumulated gradient for `id`.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Adds every accumulator of `other` into this buffer.
    ///
    /// # Panics
    ///
    /// Panics when the buffers come from differently-shaped stores.
    pub fn merge(&mut self, other: &GradBuffer) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "merging gradient buffers of different stores"
        );
        for (mine, theirs) in self.grads.iter_mut().zip(&other.grads) {
            mine.add_assign(theirs);
        }
    }

    /// Flushes the buffer into the gradient accumulators of `params`.
    ///
    /// # Panics
    ///
    /// Panics when `params` has a different parameter count or shapes.
    pub fn apply_to(&self, params: &mut Params) {
        assert_eq!(
            self.grads.len(),
            params.grads.len(),
            "applying a gradient buffer to a different store"
        );
        for (id, grad) in self.grads.iter().enumerate() {
            params.accumulate_grad(ParamId(id), grad);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(2, 3));
        assert_eq!(p.id_of("w"), Some(w));
        assert_eq!(p.name(w), "w");
        assert_eq!(p.len(), 1);
        assert_eq!((p.value(w).rows(), p.value(w).cols()), (2, 3));
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(1, 1));
        p.register("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn gradient_accumulation_and_reset() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(1, 2));
        p.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![1., 2.]));
        p.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![0.5, 0.5]));
        assert_eq!(p.grad(w).data(), &[1.5, 2.5]);
        p.zero_grads();
        assert_eq!(p.grad(w).data(), &[0., 0.]);
    }

    #[test]
    fn grad_buffer_merge_and_apply_match_direct_accumulation() {
        let mut p = Params::new();
        let w = p.register("w", Tensor::zeros(1, 2));
        let b = p.register("b", Tensor::zeros(1, 1));

        let mut direct = p.clone();
        direct.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![1., 2.]));
        direct.accumulate_grad(b, &Tensor::scalar(3.0));
        direct.accumulate_grad(w, &Tensor::from_vec(1, 2, vec![0.25, 0.5]));

        let mut shard0 = GradBuffer::zeros_like(&p);
        shard0.accumulate(w, &Tensor::from_vec(1, 2, vec![1., 2.]));
        shard0.accumulate(b, &Tensor::scalar(3.0));
        let mut shard1 = GradBuffer::zeros_like(&p);
        shard1.accumulate(w, &Tensor::from_vec(1, 2, vec![0.25, 0.5]));

        let mut merged = GradBuffer::zeros_like(&p);
        merged.merge(&shard0);
        merged.merge(&shard1);
        assert_eq!(merged.grad(w).data(), &[1.25, 2.5]);
        merged.apply_to(&mut p);

        assert_eq!(p.grad(w), direct.grad(w));
        assert_eq!(p.grad(b), direct.grad(b));
    }

    #[test]
    #[should_panic(expected = "different stores")]
    fn mismatched_buffer_merge_panics() {
        let mut p1 = Params::new();
        p1.register("w", Tensor::zeros(1, 1));
        let p2 = Params::new();
        let mut b1 = GradBuffer::zeros_like(&p1);
        let b2 = GradBuffer::zeros_like(&p2);
        b1.merge(&b2);
    }
}
