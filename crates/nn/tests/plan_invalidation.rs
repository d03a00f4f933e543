//! Plan-cache invalidation edges, exercised against live serving state.
//!
//! `Network` caches a compiled [`InferencePlan`] and invalidates it on
//! `set_multiplier`, `params_mut`, and training-mode forwards. A
//! [`BatchServer`] holds *replicas* compiled from the same network; those
//! snapshots intentionally do not follow later mutations, and
//! [`BatchServer::is_stale`] (backed by [`Network::plan_epoch`]) is how the
//! divergence is detected. Each test here drives one invalidation edge
//! while a server is live and asserts all three observable facts: the
//! network recompiles, the server keeps serving the old snapshot
//! bit-identically, and staleness is reported.

use std::sync::Arc;

use da_arith::MultiplierKind;
use da_nn::layers::{BatchNorm, Conv2d, Dense, Flatten, MaxPool2d, Relu};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::{Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("invalidation-cnn")
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Flatten)
        .push(Dense::new(3 * 4 * 4, 5, &mut rng))
}

fn bn_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("invalidation-bn")
        .push(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .push(BatchNorm::new(2))
        .push(Relu)
        .push(Flatten)
        .push(Dense::new(2 * 8 * 8, 4, &mut rng))
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { workers: 1, max_batch: 4, queue_capacity: 8, ..ServeConfig::default() }
}

fn sample(seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, &mut rng)
}

/// Bit equality of two logits tensors.
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn set_multiplier_invalidates_a_live_plan_and_strands_server_replicas() {
    let mut net = tiny_cnn(1);
    let x = sample(2);
    let plan_before = net.plan().expect("compiles");
    let exact_logits = net.logits(&x);
    let server = BatchServer::compile(&net, serve_cfg()).expect("compiles");
    assert!(!server.is_stale(&net), "fresh server must not be stale");

    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));

    // The network recompiled: new plan object, new (approximate) logits.
    let plan_after = net.plan().expect("still compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let approx_logits = net.logits(&x);
    assert!(!bits_eq(&exact_logits, &approx_logits), "multiplier swap must change logits");

    // The server still serves the exact snapshot, bit for bit — and says so.
    assert!(server.is_stale(&net), "multiplier swap must flag the server stale");
    let served = server.logits(&x.batch_item(0)).expect("stale server keeps serving");
    assert_eq!(served.data(), exact_logits.data(), "snapshot must not drift");

    // Rebuilding resolves the staleness and serves the new datapath.
    let rebuilt = BatchServer::compile(&net, serve_cfg()).expect("compiles");
    assert!(!rebuilt.is_stale(&net));
    let reserved = rebuilt.logits(&x.batch_item(0)).expect("serving");
    assert_eq!(reserved.data(), approx_logits.data());
}

#[test]
fn params_mut_invalidates_a_live_plan_and_strands_server_replicas() {
    let mut net = tiny_cnn(3);
    let x = sample(4);
    let before = net.logits(&x);
    let plan_before = net.plan().expect("compiles");
    let server = BatchServer::compile(&net, serve_cfg()).expect("compiles");
    let epoch_before = net.plan_epoch();

    // Touch one weight through the mutable-params API (what optimizers use).
    {
        let mut params = net.params_mut();
        params[0].data_mut()[0] += 1.0;
    }

    assert!(net.plan_epoch() > epoch_before, "params_mut must bump the epoch");
    assert!(server.is_stale(&net), "weight mutation must flag the server stale");
    let plan_after = net.plan().expect("compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let after = net.logits(&x);
    assert!(!bits_eq(&before, &after), "weight mutation must change logits");

    // Server replicas still carry the compile-time weights.
    let served = server.logits(&x.batch_item(0)).expect("serving");
    assert_eq!(served.data(), before.data(), "server must serve the old weights");
}

#[test]
fn training_forward_invalidates_a_live_plan_via_running_statistics() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let net = bn_cnn(5);
    let x = Tensor::rand_uniform(&[4, 1, 8, 8], 0.0, 1.0, &mut rng);
    let eval_before = net.logits(&x);
    let plan_before = net.plan().expect("compiles");
    let server = BatchServer::compile(&net, serve_cfg()).expect("compiles");
    let epoch_before = net.plan_epoch();

    // A training-mode forward updates batch-norm running statistics, which
    // compiled plans snapshot — it must invalidate even without `&mut`.
    let _ = net.forward(&x, Mode::Train { seed: 7 });

    assert!(net.plan_epoch() > epoch_before, "training forward must bump the epoch");
    assert!(server.is_stale(&net), "running-stat update must flag the server stale");
    let plan_after = net.plan().expect("compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let eval_after = net.logits(&x);
    assert!(
        !bits_eq(&eval_before, &eval_after),
        "updated running statistics must change eval logits"
    );

    // The server still serves the pre-training statistics.
    let served = server.logits(&x.batch_item(0)).expect("serving");
    let want = &eval_before.data()[..eval_before.shape()[1]];
    assert_eq!(served.data(), want, "server must serve the snapshot statistics");
}

#[test]
fn plan_epoch_is_monotonic_across_all_invalidation_edges() {
    let mut net = tiny_cnn(11);
    let mut last = net.plan_epoch();
    let bumped = |net: &Network, tag: &str, last: &mut u64| {
        let now = net.plan_epoch();
        assert!(now > *last, "{tag} must bump the plan epoch ({now} vs {last})");
        *last = now;
    };

    net.set_multiplier(Some(MultiplierKind::Bfloat16.build()));
    bumped(&net, "set_multiplier(Some)", &mut last);
    net.set_multiplier(None);
    bumped(&net, "set_multiplier(None)", &mut last);
    let _ = net.params_mut();
    bumped(&net, "params_mut", &mut last);
    let x = sample(12);
    let _ = net.forward(&x, Mode::Train { seed: 1 });
    bumped(&net, "training forward", &mut last);

    // Read-only serving does NOT bump the epoch.
    let _ = net.logits(&x);
    let _ = net.plan();
    let _ = net.forward(&x, Mode::Eval);
    assert_eq!(net.plan_epoch(), last, "read paths must not invalidate");
}

#[test]
fn eval_forward_keeps_server_fresh() {
    let net = tiny_cnn(13);
    let server = BatchServer::compile(&net, serve_cfg()).expect("compiles");
    let x = sample(14);
    let _ = net.forward(&x, Mode::Eval);
    let _ = net.logits(&x);
    assert!(!server.is_stale(&net), "eval-mode inference must not flag staleness");
}
