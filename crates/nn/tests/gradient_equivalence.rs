//! The attack-gradient contract: [`Network::input_gradient`] and
//! [`Network::class_gradient`] walk the layers with the input-only
//! [`da_nn::Layer::backward_input`], and must return exactly the bits of
//! the full training backward `Network::backward(&caches, seed).0` — with
//! the same loss — for every zoo architecture (convolutions, dense layers,
//! pooling, dropout, batch norm, DoReFa weight and activation quantizers),
//! under no multiplier, Ax-FPM and gate-level HEAP, at batch 1 and 3, over
//! inputs that include NaN, ±Inf, signed zeros and denormals.

use rand::SeedableRng;

use da_arith::MultiplierKind;
use da_nn::loss::softmax_cross_entropy;
use da_nn::zoo::{alexnet_cifar, dq_convnet, lenet5, DqMode};
use da_nn::{Mode, Network};
use da_tensor::Tensor;

/// Values written into the adversarial batch items.
const SPECIALS: [f32; 7] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40, -1e-42, f32::MIN_POSITIVE];

/// A `[batch, ...item_shape]` input: item 0 is clean, item 1 carries every
/// special value, item 2 only signed zeros and denormals; at batch 1 the
/// single item is the denormal one, so its gradient stays finite.
fn inputs(item_shape: &[usize], batch: usize, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let item_len: usize = item_shape.iter().product();
    let mut shape = vec![batch];
    shape.extend_from_slice(item_shape);
    let mut x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
    for (i, item) in x.data_mut().chunks_mut(item_len).enumerate() {
        let specials: &[f32] = match (batch, i) {
            (1, _) | (_, 2) => &SPECIALS[3..],
            (_, 1) => &SPECIALS,
            _ => &[],
        };
        for (j, &v) in specials.iter().enumerate() {
            item[(j * 97 + 13) % item_len] = v;
        }
    }
    x
}

fn assert_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} ({g} vs {w})");
    }
}

/// Both gradient entry points against the full backward, for one network
/// and one multiplier, at batch 1 and 3.
fn check(net: &Network, item_shape: &[usize], what: &str) {
    for (batch, seed) in [(1usize, 11u64), (3, 12)] {
        let what = format!("{what} batch {batch}");
        let x = inputs(item_shape, batch, seed);
        let labels: Vec<usize> = (0..batch).map(|i| (3 * i + 1) % 10).collect();

        let (logits, caches) = net.forward(&x, Mode::Eval);
        let (want_loss, dlogits) = softmax_cross_entropy(&logits, &labels);
        let (want_dx, _) = net.backward(&caches, &dlogits);
        let (loss, dx) = net.input_gradient(&x, &labels);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}: loss {loss} vs {want_loss}");
        assert_bits(&dx, &want_dx, &format!("{what}: input_gradient"));

        let class = 7;
        let mut seed = Tensor::zeros(logits.shape());
        for i in 0..batch {
            seed.data_mut()[i * 10 + class] = 1.0;
        }
        let (want, _) = net.backward(&caches, &seed);
        assert_bits(&net.class_gradient(&x, class), &want, &format!("{what}: class_gradient"));
    }
}

fn for_each_multiplier(mut net: Network, item_shape: &[usize]) {
    for kind in [None, Some(MultiplierKind::AxFpm), Some(MultiplierKind::Heap)] {
        net.set_multiplier(kind.map(|k| k.build()));
        let name = kind.map_or("native", |k| k.as_str());
        check(&net, item_shape, &format!("{} / {name}", net.name()));
    }
}

#[test]
fn lenet5_gradients_equal_the_full_backward() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for_each_multiplier(lenet5(10, &mut rng), &[1, 28, 28]);
}

#[test]
fn alexnet_gradients_equal_the_full_backward() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    for_each_multiplier(alexnet_cifar(10, &mut rng), &[3, 32, 32]);
}

#[test]
fn dq_convnet_gradients_equal_the_full_backward() {
    for (mode, seed) in [(DqMode::Full, 3u64), (DqMode::WeightOnly, 4)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for_each_multiplier(dq_convnet(10, mode, 4, &mut rng), &[3, 32, 32]);
    }
}
