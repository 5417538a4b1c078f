//! Adam optimizer with L2 weight decay (the paper trains with Adam,
//! `lr = 1e-3`, `wd = 1e-5`).

use crate::params::Params;
use crate::tensor::Tensor;

/// The Adam optimizer (Kingma & Ba, ICLR 2015).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimizer with the paper's defaults:
    /// `β1 = 0.9, β2 = 0.999, ε = 1e-8, wd = 1e-5`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 1e-5,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Overrides the weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update using the gradients accumulated in `params`,
    /// dividing them by `batch_size` first, then **zeroes the gradients**.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is not strictly positive.
    pub fn step(&mut self, params: &mut Params, batch_size: f32) {
        assert!(batch_size > 0.0, "batch size must be positive");
        if self.m.len() != params.len() {
            self.m = params
                .ids()
                .map(|id| {
                    let (r, c) = params.value(id).shape();
                    Tensor::zeros(r, c)
                })
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for id in params.ids().collect::<Vec<_>>() {
            let idx = id.0;
            let value = params.value(id).clone();
            let grad = params.grad(id).clone();
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            let target = params.value_mut(id);
            for i in 0..value.data().len() {
                let g = grad.data()[i] / batch_size + self.weight_decay * value.data()[i];
                m.data_mut()[i] = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                v.data_mut()[i] = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                let m_hat = m.data()[i] / bc1;
                let v_hat = v.data()[i] / bc2;
                target.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        params.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    #[test]
    fn minimizes_a_quadratic() {
        // loss = (w - 3)^2, minimized at w = 3.
        let mut params = Params::new();
        let pid = params.register("w", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.1).with_weight_decay(0.0);
        for _ in 0..500 {
            let mut g = Graph::new();
            let w = g.param(&params, pid);
            let target = g.input(Tensor::scalar(-3.0));
            let diff = g.add(w, target);
            let loss = g.mul(diff, diff);
            g.backward(loss, &mut params);
            adam.step(&mut params, 1.0);
        }
        let w = params.value(pid).item();
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_unused_params() {
        let mut params = Params::new();
        let used = params.register("used", Tensor::scalar(1.0));
        let unused = params.register("unused", Tensor::scalar(1.0));
        let mut adam = Adam::new(0.05).with_weight_decay(0.1);
        for _ in 0..100 {
            let mut g = Graph::new();
            let w = g.param(&params, used);
            let sq = g.mul(w, w);
            g.backward(sq, &mut params);
            adam.step(&mut params, 1.0);
        }
        assert!(params.value(unused).item() < 1.0, "decay must shrink it");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = Params::new();
        let pid = params.register("w", Tensor::scalar(2.0));
        params.accumulate_grad(pid, &Tensor::scalar(1.0));
        let mut adam = Adam::new(0.01);
        adam.step(&mut params, 1.0);
        assert_eq!(params.grad(pid).item(), 0.0);
    }
}
