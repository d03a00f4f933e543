//! The two attack workloads on LeNet-5 / SynthDigits.
//!
//! * `transfer_heap` — the Table 10 protocol: the eight `mnist_suite`
//!   attacks craft against the exact LeNet-5 through `ServedModel`; the
//!   source-fooling adversarials are replayed on the gate-level HEAP and
//!   the Ax-FPM f32 plans.
//! * `whitebox_axfpm` — DeepFool(40, 0.02) and C&W-L2 with BPDA gradients
//!   against the Ax-FPM LeNet-5 itself (Figures 8–11).
//!
//! Both train LeNet-5 from the `da_core` seeds at `Budget::smoke()` on
//! every set-up, then attack rounds of ten seeded images (one per class)
//! until the run's seconds are spent.

use std::collections::HashMap;
use std::time::Instant;

use da_arith::{Multiplier, MultiplierKind};
use da_attacks::gradient::{CarliniWagnerL2, DeepFool};
use da_attacks::{Attack, ServedModel, TargetModel};
use da_core::experiments::transfer::{multi_target_transfer, with_multiplier};
use da_core::{Budget, ModelCache};
use da_datasets::digits::synth_digits;
use da_datasets::Dataset;
use da_nn::layers::gemm_with;
use da_nn::{Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

use crate::counting::Counting;
use crate::schedule::stream_seed;
use crate::stats::{median, percentile, windowed_median};
use crate::trace::{self, Span};
use crate::{Opts, Outcome, ATTACKS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Craft spans, one name per attack (suite order).
const CRAFT_SPANS: [&str; 8] = [
    "attacks.craft.fgsm",
    "attacks.craft.pgd",
    "attacks.craft.jsma",
    "attacks.craft.cw",
    "attacks.craft.df",
    "attacks.craft.lsa",
    "attacks.craft.ba",
    "attacks.craft.hsj",
];

/// The trained backbone, loaded three times: exact, HEAP and Ax-FPM.
struct Models {
    source: Network,
    heap: Network,
    axfpm: Network,
}

/// Train LeNet-5 into a fresh cache directory (so no run reuses another's
/// weights), then load it back for the two approximate targets. Returns
/// the models and the training seconds.
fn train_models(opts: &Opts, rep: usize) -> Result<(Models, f64), String> {
    let dir = opts.scratch.join(format!("models-{}-{rep}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ModelCache::new(&dir);
    let budget = Budget::smoke();
    let t = Instant::now();
    let source = {
        let _s = trace::span("nn.train", 0);
        cache.lenet(&budget)
    };
    let train_s = t.elapsed().as_secs_f64();
    let models = Models {
        heap: with_multiplier(cache.lenet(&budget), MultiplierKind::Heap),
        axfpm: with_multiplier(cache.lenet(&budget), MultiplierKind::AxFpm),
        source,
    };
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((models, train_s))
}

/// Set up `SETUP_REPS` times: train, load, and compile what the workload
/// serves (`compile` is timed as part of set-up). Keeps the last models.
fn set_up(
    opts: &Opts,
    out: &mut Outcome,
    compile: impl Fn(&Models) -> Result<(), String>,
) -> Result<Models, String> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut trains = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let (models, train_s) = train_models(opts, rep)?;
        compile(&models)?;
        totals.push(t.elapsed().as_secs_f64());
        trains.push(train_s);
        kept = Some(models);
    }
    out.e2e("setup_s", median(&totals));
    out.layer("nn.train_s", median(&trains));
    Ok(kept.expect("at least one set-up"))
}

/// Round `r`'s images: ten SynthDigits, one per class (the generator
/// labels image `i` with digit `i % 10`).
fn round_images(seed: u64, tag: u64, r: usize) -> Dataset {
    synth_digits(10, stream_seed(seed, tag + r as u64))
}

/// One image to attack.
struct Item {
    /// Trace ID shared by every span of this image.
    id: u64,
    round: usize,
    x: Tensor,
    label: usize,
}

/// The workload's images, a round at a time, keeping those `model`
/// classifies correctly (an attack on a misclassified image means
/// nothing). Endless: the caller stops when its time is up.
struct Images<'m> {
    seed: u64,
    tag: u64,
    model: &'m dyn TargetModel,
    round: usize,
    pos: usize,
    eval: Dataset,
    clean: Vec<usize>,
}

impl<'m> Images<'m> {
    fn new(seed: u64, tag: u64, model: &'m dyn TargetModel) -> Self {
        let eval = round_images(seed, tag, 0);
        let clean = model.predict_batch(&eval.images);
        Images { seed, tag, model, round: 0, pos: 0, eval, clean }
    }
}

impl Iterator for Images<'_> {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        loop {
            if self.pos == self.eval.len() {
                self.round += 1;
                self.pos = 0;
                self.eval = round_images(self.seed, self.tag, self.round);
                self.clean = self.model.predict_batch(&self.eval.images);
            }
            let i = self.pos;
            self.pos += 1;
            if self.clean[i] == self.eval.labels[i] {
                return Some(Item {
                    id: (self.round * self.eval.len() + i) as u64 + 1,
                    round: self.round,
                    x: self.eval.images.batch_item(i),
                    label: self.eval.labels[i],
                });
            }
        }
    }
}

/// p10/p25/p50/p75/p90 of a sample, for the log.
fn quantiles(v: &[f64]) -> String {
    let q: Vec<String> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&q| format!("{:.1}", percentile(v, q).unwrap_or(0.0)))
        .collect();
    format!("p10/25/50/75/90 {}", q.join("/"))
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Compiled-plan logits against the per-layer `forward(Mode::Eval)`
/// reference on a couple of images.
fn plan_matches_forward(net: &Network, x: &Tensor) -> bool {
    let plan = net.plan().expect("LeNet-5 compiles");
    bits_equal(plan.predict_batch(x).data(), net.forward(x, Mode::Eval).0.data())
}

/// Multiply-accumulates per item, from the layer shapes: a convolution
/// costs its weight count per output position, a dense layer its weight
/// count.
fn macs_per_item(net: &Network, x: &Tensor) -> f64 {
    let params = net.params();
    let mut p = 0;
    let mut macs = 0usize;
    for (i, name) in net.layer_names().into_iter().enumerate() {
        match name {
            "conv2d" => {
                let out = net.activation_at(x, i);
                macs += params[p].len() * out.shape()[2] * out.shape()[3];
                p += 2;
            }
            "dense" => {
                macs += params[p].len();
                p += 2;
            }
            _ => {}
        }
    }
    macs as f64
}

/// MAC rate of `gemm_with` on LeNet-5's conv2 GEMM (16×150 · 150×64), and
/// of `Multiplier::axpy_fused` on the same operands.
fn gemm_rates(kind: MultiplierKind, min_s: f64) -> (f64, f64) {
    let m: std::sync::Arc<dyn Multiplier> = kind.build();
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let (rows, k, n) = (16, 150, 64);
    let a = Tensor::rand_uniform(&[rows, k], -0.5, 0.5, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], 0.0, 1.0, &mut rng);
    let macs = (rows * k * n) as f64;
    let rate = |f: &mut dyn FnMut()| {
        f();
        let t = Instant::now();
        let mut calls = 0u32;
        while calls < 2 || t.elapsed().as_secs_f64() < min_s {
            f();
            calls += 1;
        }
        macs * f64::from(calls) / t.elapsed().as_secs_f64()
    };
    let gemm = rate(&mut || {
        let _s = trace::span("arith.gemm", 0);
        std::hint::black_box(gemm_with(&*m, std::hint::black_box(&a), &b));
    });
    let fused = rate(&mut || {
        let _s = trace::span("arith.fused", 0);
        let mut acc = vec![0.0f32; n];
        for r in 0..rows {
            acc.fill(0.0);
            m.axpy_fused(&a.data()[r * k..(r + 1) * k], b.data(), &mut acc);
            std::hint::black_box(&acc);
        }
    });
    (gemm, fused)
}

/// Per-attack tallies of one round or a whole run.
#[derive(Debug, Default, Clone, PartialEq)]
struct Row {
    attempted: usize,
    source_hits: usize,
    heap_hits: usize,
    axfpm_hits: usize,
}

/// The spans of one name, aggregated.
#[derive(Default)]
struct SpanTotals {
    total_ns: u64,
    self_ns: u64,
    /// Every span's duration, ms.
    ms: Vec<f64>,
}

fn by_name(spans: &[Span]) -> HashMap<&'static str, SpanTotals> {
    let self_ns = trace::self_times_ns(spans);
    let mut out: HashMap<&'static str, SpanTotals> = HashMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns[&s.id];
        e.ms.push(s.duration_ns() as f64 / 1e6);
    }
    out
}

pub fn run_transfer(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let models = set_up(opts, out, |m| {
        for net in [&m.source, &m.heap, &m.axfpm] {
            ServedModel::new(net).ok_or("LeNet-5 must compile for serving")?;
        }
        Ok(())
    })?;
    let served_source = ServedModel::new(&models.source).ok_or("source must compile")?;
    let served_heap = ServedModel::new(&models.heap).ok_or("HEAP target must compile")?;
    let served_axfpm = ServedModel::new(&models.axfpm).ok_or("Ax-FPM target must compile")?;
    let source = Counting::new(&served_source);
    let attacks = da_core::suites::mnist_suite(stream_seed(opts.seed, 7));

    let mut rows = vec![Row::default(); attacks.len()];
    let mut round0 = None;
    let mut image_ms = Vec::new();
    let mut craft_queries = vec![0u64; attacks.len()];
    let mut replayed = 0usize;
    let mut crafts = 0u64;
    let t_run = Instant::now();
    let mut rounds = 0;
    for Item { id: image_id, round, x, label } in Images::new(opts.seed, 1000, &source) {
        // Whole rounds only, so every run attacks each class equally often;
        // round 0 always completes (the library check replays it).
        if round >= rounds {
            if round > 0 {
                round0.get_or_insert_with(|| rows.clone());
                if t_run.elapsed().as_secs_f64() >= opts.seconds as f64 {
                    break;
                }
            }
            rounds = round + 1;
        }
        let t_image = Instant::now();
        let _img = trace::span("protocol.image", image_id);
        let mut advs = Vec::with_capacity(attacks.len());
        for (a, attack) in attacks.iter().enumerate() {
            let before = source.counts();
            let adv = {
                let _s = trace::span(CRAFT_SPANS[a], image_id);
                attack.run(&source, &x, label)
            };
            craft_queries[a] += (source.counts() - before).total();
            crafts += 1;
            rows[a].attempted += 1;
            advs.push(adv);
        }
        let preds = {
            let _s = trace::span("engine.replay.source", image_id);
            served_source.predict_batch(&Tensor::stack(&advs))
        };
        let fooling: Vec<usize> = (0..advs.len()).filter(|&a| preds[a] != label).collect();
        if !fooling.is_empty() {
            let batch =
                Tensor::stack(&fooling.iter().map(|&a| advs[a].clone()).collect::<Vec<_>>());
            let heap_preds = {
                let _s = trace::span("engine.replay.heap", image_id);
                served_heap.predict_batch(&batch)
            };
            let axfpm_preds = {
                let _s = trace::span("engine.replay.axfpm", image_id);
                served_axfpm.predict_batch(&batch)
            };
            replayed += fooling.len();
            for (j, &a) in fooling.iter().enumerate() {
                rows[a].source_hits += 1;
                rows[a].heap_hits += usize::from(heap_preds[j] != label);
                rows[a].axfpm_hits += usize::from(axfpm_preds[j] != label);
            }
        }
        drop(_img);
        image_ms.push(t_image.elapsed().as_secs_f64() * 1e3);
    }
    let round0 = round0.unwrap_or_else(|| rows.clone());
    let elapsed = t_run.elapsed().as_secs_f64();
    out.attempted += crafts;
    out.e2e("rate_per_s", image_ms.len() as f64 / elapsed);
    out.e2e("lat_p50_ms", windowed_median(&source.grad_ms()));

    let total = |f: fn(&Row) -> usize| rows.iter().map(f).sum::<usize>() as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    out.layer(
        "attacks.source_success_ratio",
        ratio(total(|r| r.source_hits), total(|r| r.attempted)),
    );
    out.layer(
        "attacks.transfer_ratio.heap",
        ratio(total(|r| r.heap_hits), total(|r| r.source_hits)),
    );
    out.layer(
        "attacks.transfer_ratio.axfpm",
        ratio(total(|r| r.axfpm_hits), total(|r| r.source_hits)),
    );
    println!(
        "transfer_heap: {} images in {} rounds, {:.1} s; per-image ms {}",
        image_ms.len(),
        rounds,
        elapsed,
        quantiles(&image_ms)
    );
    println!("{:<6} {:>9} {:>7} {:>7} {:>7}", "attack", "attempted", "source", "heap", "axfpm");
    for (a, r) in rows.iter().enumerate() {
        println!(
            "{:<6} {:>9} {:>7} {:>7} {:>7}",
            ATTACKS[a], r.attempted, r.source_hits, r.heap_hits, r.axfpm_hits
        );
        out.check(
            &format!("{}: transfer <= source on both targets", ATTACKS[a]),
            r.heap_hits <= r.source_hits && r.axfpm_hits <= r.source_hits,
        );
    }
    for (a, q) in craft_queries.iter().enumerate() {
        out.layer(
            &format!("attacks.queries.{}", ATTACKS[a]),
            ratio(*q as f64, rows[a].attempted as f64),
        );
    }
    out.layer("nn.grad_calls", source.counts().grads as f64);

    // Correctness: sampled gate-level and Ax-FPM plan logits equal the
    // per-layer forward pass bit for bit.
    let eval = round_images(opts.seed, 1000, 0);
    let sample = Tensor::stack(&[eval.images.batch_item(0), eval.images.batch_item(1)]);
    out.check(
        "HEAP plan logits == forward(Mode::Eval)",
        plan_matches_forward(&models.heap, &sample),
    );
    out.check(
        "Ax-FPM plan logits == forward(Mode::Eval)",
        plan_matches_forward(&models.axfpm, &sample),
    );

    if trace::enabled() {
        // The library's own protocol on round 0 must give the same table.
        let table = multi_target_transfer(
            "Table 10 (round 0)",
            &da_core::suites::mnist_suite(stream_seed(opts.seed, 7)),
            &models.source,
            &[
                ("HEAP-based".to_string(), &models.heap),
                ("Ax-FPM-based".to_string(), &models.axfpm),
            ],
            &eval,
            eval.len(),
        );
        let rate = |hits: usize, of: usize| if of == 0 { 0.0 } else { hits as f64 / of as f64 };
        let same = table.rows.len() == round0.len()
            && table.rows.iter().zip(&round0).all(|(lib, ours)| {
                lib.source_rate == rate(ours.source_hits, ours.attempted)
                    && lib.transfer_rates
                        == [
                            rate(ours.heap_hits, ours.source_hits),
                            rate(ours.axfpm_hits, ours.source_hits),
                        ]
            });
        print!("{table}");
        out.check("traced protocol reproduces multi_target_transfer's table on round 0", same);

        let spans = trace::snapshot();
        let agg = by_name(&spans);
        report_attack_spans(&agg, &rows.iter().map(|r| r.attempted).collect::<Vec<_>>(), out);
        let items_per_s = |name: &str, items: usize| {
            agg.get(name).map_or(0.0, |e| ratio(items as f64, e.total_ns as f64 / 1e9))
        };
        let heap_items = items_per_s("engine.replay.heap", replayed);
        out.layer("engine.items_per_s.heap", heap_items);
        out.layer("engine.items_per_s.axfpm", items_per_s("engine.replay.axfpm", replayed));
        let macs = macs_per_item(&models.source, &sample);
        out.layer("engine.macs_per_item", macs);
        let (heap_gemm, heap_fused) = gemm_rates(MultiplierKind::Heap, 0.5);
        let (axfpm_gemm, _) = gemm_rates(MultiplierKind::AxFpm, 0.3);
        out.layer("arith.gemm_macs_per_s.heap", heap_gemm);
        out.layer("arith.gemm_macs_per_s.axfpm", axfpm_gemm);
        out.layer("arith.fused_macs_per_s.heap", heap_fused);
        out.layer("engine.pct_of_gemm.heap", 100.0 * ratio(macs * heap_items, heap_gemm));
    }
    Ok(())
}

/// Craft time, self time (craft minus model calls) and gradient-call
/// latency from the spans.
fn report_attack_spans(
    agg: &HashMap<&'static str, SpanTotals>,
    attempted: &[usize],
    out: &mut Outcome,
) {
    for (a, name) in CRAFT_SPANS.iter().enumerate() {
        if let Some(e) = agg.get(name) {
            let n = attempted[a].max(1) as f64;
            out.layer(&format!("attacks.craft_ms.{}", ATTACKS[a]), e.total_ns as f64 / 1e6 / n);
            out.layer(&format!("attacks.self_ms.{}", ATTACKS[a]), e.self_ns as f64 / 1e6 / n);
        }
    }
    if let Some(e) = agg.get("nn.grad") {
        out.layer("nn.grad_ms.p50", median(&e.ms));
    }
}

pub fn run_whitebox(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let models = set_up(opts, out, |m| {
        m.axfpm.plan().ok_or("Ax-FPM LeNet-5 must compile")?;
        Ok(())
    })?;
    let target = &models.axfpm;
    let model = Counting::new(target);
    // (index into `ATTACKS`, attack): "df" and "cw".
    let attacks: [(usize, Box<dyn Attack>); 2] =
        [(4, Box::new(DeepFool::new(40, 0.02))), (3, Box::new(CarliniWagnerL2::standard()))];

    let mut attempts = 0usize;
    let mut successes = 0usize;
    let mut per_attack = [0usize; 8];
    let mut queries = [0u64; 8];
    let mut image_ms = Vec::new();
    let t_run = Instant::now();
    let mut rounds = 0;
    for Item { id: image_id, round, x, label } in Images::new(opts.seed, 2000, target) {
        // Whole rounds only, so every run attacks each class equally often.
        if round >= rounds {
            if round > 0 && t_run.elapsed().as_secs_f64() >= opts.seconds as f64 {
                break;
            }
            rounds = round + 1;
        }
        let t_image = Instant::now();
        let _img = trace::span("protocol.image", image_id);
        for (a, attack) in &attacks {
            let before = model.counts();
            let adv = {
                let _s = trace::span(CRAFT_SPANS[*a], image_id);
                attack.run(&model, &x, label)
            };
            queries[*a] += (model.counts() - before).total();
            attempts += 1;
            per_attack[*a] += 1;
            successes += usize::from(TargetModel::predict(target, &adv) != label);
        }
        drop(_img);
        image_ms.push(t_image.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = t_run.elapsed().as_secs_f64();
    out.attempted += attempts as u64;
    out.e2e("rate_per_s", attempts as f64 / elapsed);
    out.e2e("lat_p50_ms", windowed_median(&model.grad_ms()));
    out.layer("attacks.whitebox_success_ratio", successes as f64 / attempts.max(1) as f64);
    out.layer("nn.grad_calls", model.counts().grads as f64);
    for &(a, _) in &attacks {
        out.layer(
            &format!("attacks.queries.{}", ATTACKS[a]),
            queries[a] as f64 / per_attack[a].max(1) as f64,
        );
    }
    println!(
        "whitebox_axfpm: {attempts} attempts on {} images in {rounds} rounds, {elapsed:.1} s, \
         {successes} successful; per-image ms {}",
        image_ms.len(),
        quantiles(&image_ms),
    );

    let eval = round_images(opts.seed, 2000, 0);
    let sample = Tensor::stack(&[eval.images.batch_item(0), eval.images.batch_item(1)]);
    out.check("Ax-FPM plan logits == forward(Mode::Eval)", plan_matches_forward(target, &sample));

    if trace::enabled() {
        let spans = trace::snapshot();
        let agg = by_name(&spans);
        report_attack_spans(&agg, &per_attack, out);
        let (axfpm_gemm, _) = gemm_rates(MultiplierKind::AxFpm, 0.3);
        let (heap_gemm, heap_fused) = gemm_rates(MultiplierKind::Heap, 0.5);
        out.layer("arith.gemm_macs_per_s.axfpm", axfpm_gemm);
        out.layer("arith.gemm_macs_per_s.heap", heap_gemm);
        out.layer("arith.fused_macs_per_s.heap", heap_fused);
        out.layer("engine.macs_per_item", macs_per_item(target, &sample));
    }
    Ok(())
}
