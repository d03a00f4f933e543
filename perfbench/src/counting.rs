//! A [`TargetModel`] wrapper that counts and traces every query an attack
//! makes, without changing a single bit of what the wrapped model returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use da_attacks::TargetModel;
use da_tensor::Tensor;

use crate::trace;

/// Query counters of a [`Counting`] model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Score or decision queries (`logits`, `probabilities`, `predict`).
    pub queries: u64,
    /// Gradient queries (`loss_gradient`, `class_gradient`).
    pub grads: u64,
}

impl Counts {
    pub fn total(&self) -> u64 {
        self.queries + self.grads
    }
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts { queries: self.queries - rhs.queries, grads: self.grads - rhs.grads }
    }
}

/// Forwards every call to `inner`, counting it and (when tracing is on)
/// wrapping it in a span: `model.query` for score and decision access,
/// `nn.grad` for gradient access, `model.batch` for batched predictions.
/// Gradient calls are also timed with tracing off: their latency is an
/// end-to-end metric of the attack workloads.
pub struct Counting<'a> {
    inner: &'a dyn TargetModel,
    queries: AtomicU64,
    grads: AtomicU64,
    grad_ms: Mutex<Vec<f64>>,
}

impl<'a> Counting<'a> {
    pub fn new(inner: &'a dyn TargetModel) -> Self {
        Counting {
            inner,
            queries: AtomicU64::new(0),
            grads: AtomicU64::new(0),
            grad_ms: Mutex::new(Vec::new()),
        }
    }

    /// Wall time of every gradient call so far, ms.
    pub fn grad_ms(&self) -> Vec<f64> {
        self.grad_ms.lock().expect("grad timer lock poisoned by a panicking attack").clone()
    }

    /// Time one gradient call.
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let _s = self.grad();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.grad_ms.lock().expect("grad timer lock poisoned by a panicking attack").push(ms);
        out
    }

    pub fn counts(&self) -> Counts {
        Counts {
            queries: self.queries.load(Ordering::Relaxed),
            grads: self.grads.load(Ordering::Relaxed),
        }
    }

    fn query(&self) -> Option<trace::Guard> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        trace::span("model.query", 0)
    }

    fn grad(&self) -> Option<trace::Guard> {
        self.grads.fetch_add(1, Ordering::Relaxed);
        trace::span("nn.grad", 0)
    }
}

impl TargetModel for Counting<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Vec<f32> {
        let _s = self.query();
        self.inner.logits(x)
    }

    fn loss_gradient(&self, x: &Tensor, label: usize) -> (f32, Tensor) {
        self.timed(|| self.inner.loss_gradient(x, label))
    }

    fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor {
        self.timed(|| self.inner.class_gradient(x, class))
    }

    fn probabilities(&self, x: &Tensor) -> Vec<f32> {
        let _s = self.query();
        self.inner.probabilities(x)
    }

    fn predict(&self, x: &Tensor) -> usize {
        let _s = self.query();
        self.inner.predict(x)
    }

    fn predict_batch(&self, images: &Tensor) -> Vec<usize> {
        let _s = trace::span("model.batch", 0);
        self.inner.predict_batch(images)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_arith::MultiplierKind;
    use da_nn::zoo::lenet5;
    use rand::SeedableRng;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn wrapper_is_bit_identical_and_counts_every_call() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut net = lenet5(10, &mut rng);
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let x = Tensor::rand_uniform(&[1, 28, 28], 0.0, 1.0, &mut rng);
        let counted = Counting::new(&net);

        assert_eq!(bits(&counted.logits(&x)), bits(&TargetModel::logits(&net, &x)));
        assert_eq!(bits(&counted.probabilities(&x)), bits(&TargetModel::probabilities(&net, &x)));
        assert_eq!(counted.predict(&x), TargetModel::predict(&net, &x));
        let (la, ga) = counted.loss_gradient(&x, 4);
        let (lb, gb) = TargetModel::loss_gradient(&net, &x, 4);
        assert_eq!(la.to_bits(), lb.to_bits());
        assert_eq!(bits(ga.data()), bits(gb.data()));
        assert_eq!(
            bits(counted.class_gradient(&x, 2).data()),
            bits(TargetModel::class_gradient(&net, &x, 2).data())
        );
        let batch = Tensor::stack(&[x.clone(), x.map(|v| 1.0 - v)]);
        assert_eq!(counted.predict_batch(&batch), TargetModel::predict_batch(&net, &batch));

        assert_eq!(counted.counts(), Counts { queries: 3, grads: 2 });
        assert_eq!(counted.grad_ms().len(), 2);
        assert_eq!(counted.num_classes(), 10);
    }
}
