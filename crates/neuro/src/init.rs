//! Seeded weight initialization.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::tensor::Tensor;

/// A seeded initializer producing Xavier/Glorot-uniform samples.
#[derive(Debug)]
pub struct Initializer {
    rng: StdRng,
}

impl Initializer {
    /// Creates an initializer from a seed.
    pub fn new(seed: u64) -> Self {
        Initializer {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples a `rows×cols` tensor from `U(-limit, limit)` with
    /// `limit = sqrt(6 / (rows + cols))` (Glorot uniform).
    pub fn sample(&mut self, rows: usize, cols: usize) -> Tensor {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| self.rng.random_range(-limit..limit))
            .collect();
        Tensor::from_vec(rows, cols, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = Initializer::new(7).sample(4, 4);
        let b = Initializer::new(7).sample(4, 4);
        let c = Initializer::new(8).sample(4, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_glorot_limit() {
        let t = Initializer::new(1).sample(10, 10);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= limit));
        // And isn't degenerate.
        assert!(t.data().iter().any(|v| v.abs() > 1e-4));
    }
}
