//! `serve_int8`: an open loop of single-sample INFERs against the int8
//! Ax-FPM LeNet-5 of `da-serve --demo-snapshot`, served in process behind
//! a `NetServer` on loopback.
//!
//! One process drives the load with two threads (a sender that fires on a
//! seeded Poisson schedule and a receiver) over one connection, plus one
//! short-lived probe connection for STATS and PING between phases. Latency
//! is timed from each request's due time, so generator lateness and any
//! backlog count against the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use da_arith::MultiplierKind;
use da_datasets::digits::synth_digits;
use da_nn::engine::InferencePlan;
use da_nn::net::{
    frame, Client, ErrCode, FrameDecoder, Message, NetConfig, NetHandle, NetServer, NetStats,
    ServerStats, DEFAULT_MAX_FRAME,
};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::zoo::lenet5;
use da_tensor::Tensor;
use rand::SeedableRng;

use crate::schedule::{poisson, stream_seed};
use crate::stats::{median, percentile, windowed_median};
use crate::{trace, Opts, Outcome};

/// Fixed light rate (req/s).
pub const LIGHT_RPS: f64 = 1000.0;
/// Fixed heavy rate (req/s): about three quarters of `max_rate_rps` on the
/// reference machine (see README.md). Never recalibrated per run.
pub const HEAVY_RPS: f64 = 6400.0;
/// The rate ladder: geometric steps of 4% from `LADDER_START_RPS`, walking
/// up until three steps in a row miss the limit.
pub const LADDER_START_RPS: f64 = 6000.0;
pub const LADDER_RATIO: f64 = 1.04;
const LADDER_MAX_STEPS: usize = 30;
/// Fixed overload rate (req/s): about 1.5× `max_rate_rps` on the reference
/// machine, every request carrying `OVERLOAD_DEADLINE`.
pub const OVERLOAD_RPS: f64 = 12800.0;
pub const OVERLOAD_DEADLINE: Duration = Duration::from_millis(20);
/// The ladder's latency limit on p99. On the 2-vCPU reference machine
/// the p99 of even the light phase ranges from 1 to 5 ms between runs, so
/// a 5 ms limit would measure scheduler noise, not the server.
pub const P99_LIMIT_MS: f64 = 10.0;
/// Queue depth, as in CI's overload smoke; every other knob is default.
const QUEUE_CAPACITY: usize = 512;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Distinct input images the requests cycle through.
const POOL: usize = 256;

/// A bound, running front end.
struct Front {
    addr: SocketAddr,
    handle: NetHandle,
    join: JoinHandle<std::io::Result<NetStats>>,
}

impl Front {
    fn stop(self) -> Result<NetStats, String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(stats)) => Ok(stats),
            Ok(Err(e)) => Err(format!("reactor failed: {e}")),
            Err(_) => Err("reactor thread panicked".into()),
        }
    }
}

/// The demo artifact: LeNet-5 from the init seed, Ax-FPM, int8-calibrated
/// on 32 SynthDigits — the same recipe `da-serve --demo-snapshot` uses.
fn demo_plan() -> Result<InferencePlan, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = synth_digits(32, 7).images;
    InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .ok_or_else(|| "demo network failed to quantize".to_string())
}

fn serve_config() -> ServeConfig {
    ServeConfig { queue_capacity: QUEUE_CAPACITY, ..ServeConfig::default() }
}

/// Times of one set-up: compile, save, load (snapshot map + server start),
/// bind.
struct SetupTimes {
    compile: f64,
    save: f64,
    load: f64,
    total: f64,
}

fn set_up(path: &Path) -> Result<(Front, SetupTimes), String> {
    let t0 = Instant::now();
    let plan = {
        let _s = trace::span("engine.compile_int8", 0);
        demo_plan()?
    };
    let t1 = Instant::now();
    {
        let _s = trace::span("snapshot.save", 0);
        plan.save(path).map_err(|e| format!("snapshot save: {e}"))?;
    }
    let t2 = Instant::now();
    let server = {
        let _s = trace::span("snapshot.load", 0);
        BatchServer::from_snapshot(path, serve_config())
            .map_err(|e| format!("snapshot load: {e}"))?
    };
    let t3 = Instant::now();
    let front = {
        let _s = trace::span("net.bind", 0);
        NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?
    };
    let (addr, handle, join) = front.spawn();
    let t4 = Instant::now();
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let times = SetupTimes {
        compile: secs(t0, t1),
        save: secs(t1, t2),
        load: secs(t2, t3),
        total: secs(t0, t4),
    };
    Ok((Front { addr, handle, join }, times))
}

/// What one open-loop phase saw.
#[derive(Default)]
struct Phase {
    sent: usize,
    ok: usize,
    /// Refusals other than overload sheds and expiries, and wrong logits.
    failed: usize,
    shed: usize,
    expired: usize,
    /// Client latency of each OK reply, ms from its due time, in due order.
    lat_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    lag_ms: Vec<f64>,
    /// Client-side encode + decode per OK request, µs (traced runs only).
    codec_us: Vec<f64>,
    /// Seconds from the phase's first due time to its last reply.
    wall_s: f64,
    /// Replies whose logits differ from the serial reference.
    mismatched: usize,
    /// When each OK reply arrived, seconds after the phase start.
    done_s: Vec<f64>,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.lat_ms, q).unwrap_or(f64::INFINITY)
    }

    /// p99 robust to a stall or two: the median of the p99s of five equal
    /// segments of the phase (each segment still has 10 or more samples
    /// beyond its p99 at the ladder's rates and step length).
    fn segment_p99(&self) -> f64 {
        const SEGMENTS: usize = 5;
        let n = self.lat_ms.len();
        if n < SEGMENTS {
            return self.p(99.0);
        }
        let seg: Vec<f64> = (0..SEGMENTS)
            .map(|k| {
                let part = &self.lat_ms[k * n / SEGMENTS..(k + 1) * n / SEGMENTS];
                percentile(part, 99.0).unwrap_or(f64::INFINITY)
            })
            .collect();
        median(&seg)
    }

    /// OK replies per second: the median over the phase's 100 ms windows
    /// (first and last window dropped as partial), so a burst of host
    /// contention in a few windows does not move it.
    fn windowed_throughput(&self) -> f64 {
        let (Some(first), Some(last)) = (self.done_s.first(), self.done_s.last()) else {
            return 0.0;
        };
        let bins = ((last - first) / 0.1) as usize;
        if bins < 3 {
            return self.ok as f64 / (last - first).max(1e-3);
        }
        let mut counts = vec![0.0f64; bins + 1];
        for t in &self.done_s {
            counts[((t - first) / 0.1) as usize] += 1.0;
        }
        median(&counts[1..bins]) * 10.0
    }

    /// Latency rising across the phase: the median latency of the last
    /// third of requests (in due order) exceeds the first third's by more
    /// than 2 ms. Medians, so one stall does not read as a backlog; a real
    /// backlog at even 5% over capacity adds tens of ms within a step.
    fn backlog_growing(&self) -> bool {
        let n = self.lat_ms.len() / 3;
        if n == 0 {
            return false;
        }
        median(&self.lat_ms[self.lat_ms.len() - n..]) - median(&self.lat_ms[..n]) > 2.0
    }
}

/// Inputs and the serial reference the replies are checked against.
struct Inputs {
    items: Vec<Tensor>,
    /// `predict_batch` of the loaded snapshot over the pool, row-major.
    reference: Vec<f32>,
    classes: usize,
}

/// Drive one open-loop phase: `offsets` are due times from the phase
/// start; request `i` carries pool image `(base + i) % POOL`.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    offsets: &[Duration],
    base: usize,
    deadline: Option<Duration>,
) -> Result<Phase, String> {
    let n = offsets.len();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut tx = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
    let deadline_us = deadline.map_or(0, |d| d.as_micros().clamp(1, u128::from(u32::MAX)) as u32);
    let traced = trace::enabled();
    // Per request: send instant (ns after `start`), encode ns and span id,
    // written by the sender before the frame leaves, read by the receiver
    // after the reply arrives (the round trip orders the accesses).
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let encode_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let span_id: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(2);

    std::thread::scope(|scope| {
        let receiver =
            scope.spawn(|| receive(stream, inputs, offsets, base, start, &encode_ns, &span_id));
        let mut send_err = None;
        for (i, off) in offsets.iter().enumerate() {
            let due = start + *off;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let id = if traced { trace::new_id() } else { 0 };
            span_id[i].store(id, Ordering::SeqCst);
            let t_enc = Instant::now();
            let item = &inputs.items[(base + i) % POOL];
            let bytes = frame::encode(&Message::Infer {
                req_id: i as u64 + 1,
                deadline_us,
                shape: item.shape().to_vec(),
                data: item.data().to_vec(),
            });
            let t_sent = Instant::now();
            if traced {
                encode_ns[i]
                    .store(t_sent.duration_since(t_enc).as_nanos() as u64, Ordering::SeqCst);
                trace::record(trace::new_id(), id, i as u64 + 1, "net.encode", t_enc, t_sent);
            }
            sent_ns[i]
                .store(t_enc.saturating_duration_since(start).as_nanos() as u64, Ordering::SeqCst);
            if let Err(e) = tx.write_all(&bytes) {
                send_err = Some(format!("send: {e}"));
                break;
            }
        }
        let phase = receiver.join().map_err(|_| "receiver thread panicked".to_string())?;
        if let Some(e) = send_err {
            return Err(e);
        }
        let mut phase = phase?;
        phase.lag_ms = offsets
            .iter()
            .zip(&sent_ns)
            .map(|(off, s)| {
                (s.load(Ordering::SeqCst) as f64 - off.as_nanos() as f64).max(0.0) / 1e6
            })
            .collect();
        Ok(phase)
    })
}

/// The receiver half of [`drive`]: read until every request is answered.
fn receive(
    mut rx: TcpStream,
    inputs: &Inputs,
    offsets: &[Duration],
    base: usize,
    start: Instant,
    encode_ns: &[AtomicU64],
    span_id: &[AtomicU64],
) -> Result<Phase, String> {
    let n = offsets.len();
    let traced = trace::enabled();
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut phase = Phase { sent: n, ..Phase::default() };
    // (due index, latency) of OK replies, re-sorted into due order below.
    let mut lat: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut seen = 0usize;
    let mut last = start;
    while seen < n {
        let payload = loop {
            match dec.next_payload(DEFAULT_MAX_FRAME) {
                Ok(Some(p)) => break p,
                Ok(None) => {}
                Err(e) => return Err(format!("bad reply frame: {e}")),
            }
            let got = rx.read(&mut buf).map_err(|e| format!("reply {seen}/{n}: {e}"))?;
            if got == 0 {
                return Err(format!("server closed after {seen}/{n} replies"));
            }
            dec.push(&buf[..got]);
        };
        // Decode time starts once a whole frame is buffered.
        let t_dec = Instant::now();
        let msg = frame::decode(&payload).map_err(|e| format!("bad reply: {e}"))?;
        let arrived = Instant::now();
        last = arrived;
        seen += 1;
        let (req_id, ok) = match msg {
            Message::InferOk { req_id, data, .. } => (req_id, Some(data)),
            Message::InferErr { req_id, code, .. } => {
                match code {
                    ErrCode::Overloaded => phase.shed += 1,
                    ErrCode::DeadlineExceeded => phase.expired += 1,
                    _ => phase.failed += 1,
                }
                (req_id, None)
            }
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let i = req_id.checked_sub(1).map(|i| i as usize).filter(|&i| i < n);
        let Some(i) = i else {
            return Err(format!("reply for unknown request {req_id}"));
        };
        let due = start + offsets[i];
        if traced {
            let id = span_id[i].load(Ordering::SeqCst);
            trace::record(trace::new_id(), id, req_id, "net.decode", t_dec, arrived);
            trace::record(id, 0, req_id, "net.request", due, arrived);
        }
        if let Some(data) = ok {
            let row = (base + i) % POOL;
            let want = &inputs.reference[row * inputs.classes..(row + 1) * inputs.classes];
            let same = data.len() == want.len()
                && data.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                phase.mismatched += 1;
                phase.failed += 1;
                continue;
            }
            phase.ok += 1;
            phase.done_s.push(arrived.saturating_duration_since(start).as_secs_f64());
            lat.push((i, arrived.saturating_duration_since(due).as_secs_f64() * 1e3));
            if traced {
                let enc = encode_ns[i].load(Ordering::SeqCst) as f64;
                phase.codec_us.push((enc + arrived.duration_since(t_dec).as_nanos() as f64) / 1e3);
            }
        }
    }
    lat.sort_by_key(|&(i, _)| i);
    phase.lat_ms = lat.into_iter().map(|(_, l)| l).collect();
    phase.wall_s = last.saturating_duration_since(start + offsets[0]).as_secs_f64();
    Ok(phase)
}

fn stats(addr: SocketAddr) -> Result<ServerStats, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
    c.stats().map_err(|e| format!("stats: {e}"))
}

fn mean_batch(before: &ServerStats, after: &ServerStats) -> f64 {
    let batches = after.batches - before.batches;
    if batches == 0 {
        0.0
    } else {
        (after.items - before.items) as f64 / batches as f64
    }
}

/// The same schedule replayed against an in-process `BatchServer` with no
/// socket: per-request time from due to reply, µs.
fn replay_in_process(
    path: &Path,
    inputs: &Inputs,
    offsets: &[Duration],
    base: usize,
) -> Result<Vec<f64>, String> {
    let server = BatchServer::from_snapshot(path, serve_config())
        .map_err(|e| format!("snapshot load: {e}"))?;
    let n = offsets.len();
    let done_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let start = Instant::now() + Duration::from_millis(2);
    for (i, off) in offsets.iter().enumerate() {
        let due = start + *off;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let done = Arc::clone(&done_ns);
        let tx = tx.clone();
        let _s = trace::span("serve.submit", i as u64 + 1);
        server
            .try_submit_with(
                &inputs.items[(base + i) % POOL],
                Box::new(move |reply| {
                    let now = Instant::now();
                    trace::record(trace::new_id(), 0, i as u64 + 1, "serve.request", due, now);
                    if reply.is_ok() {
                        done[i]
                            .store(now.duration_since(start).as_nanos() as u64, Ordering::SeqCst);
                    }
                    let _ = tx.send(());
                }),
            )
            .map_err(|e| format!("in-process submit: {e}"))?;
    }
    drop(tx);
    for _ in 0..n {
        rx.recv_timeout(Duration::from_secs(30))
            .map_err(|_| "in-process reply lost".to_string())?;
    }
    server.shutdown();
    let done: Vec<u64> = done_ns.iter().map(|d| d.load(Ordering::SeqCst)).collect();
    if done.contains(&0) {
        return Err("an in-process request failed".into());
    }
    Ok(offsets.iter().zip(done).map(|(off, d)| (d as f64 - off.as_nanos() as f64) / 1e3).collect())
}

/// `predict_batch` latency on the served snapshot at batch `b`, µs (p50
/// of `reps` calls), and the workspace allocations those calls made.
fn predict_us(plan: &InferencePlan, inputs: &Inputs, b: usize, reps: usize) -> (f64, u64) {
    let batch = Tensor::stack(&inputs.items[..b]);
    let _ = plan.predict_batch(&batch);
    let allocs = plan.workspace_allocations();
    let mut us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(plan.predict_batch(std::hint::black_box(&batch)));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&us), plan.workspace_allocations() - allocs)
}

pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let path = opts.scratch.join(format!("serve-{}.daplan", std::process::id()));
    let result = run_at(opts, &path, out);
    std::fs::remove_file(&path).ok();
    result
}

fn run_at(opts: &Opts, path: &Path, out: &mut Outcome) -> Result<(), String> {
    // Set up SETUP_REPS times; keep the last front end serving.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut front = None;
    for _ in 0..SETUP_REPS {
        if let Some(f) = front.take() {
            Front::stop(f)?;
        }
        let (f, times) = set_up(path)?;
        front = Some(f);
        setups.push(times);
    }
    let front = front.expect("at least one set-up");
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.e2e("setup_s", pick(|t| t.total));
    out.layer("engine.compile_s.int8", pick(|t| t.compile));
    out.layer("snapshot.save_s", pick(|t| t.save));
    out.layer("snapshot.load_s", pick(|t| t.load));

    let plan = InferencePlan::load(path).map_err(|e| format!("reference load: {e}"))?;
    let pool = synth_digits(POOL, stream_seed(opts.seed, 1)).images;
    let items: Vec<Tensor> = (0..POOL).map(|i| pool.batch_item(i)).collect();
    let logits = plan.predict_batch(&pool);
    let inputs = Inputs { classes: logits.shape()[1], reference: logits.into_vec(), items };

    // Phase lengths scale with the run length.
    let secs = opts.seconds as f64;
    let light_span = Duration::from_secs_f64(secs * 0.25);
    let heavy_span = Duration::from_secs_f64(secs * 0.1);
    let step_span = Duration::from_secs_f64((secs * 0.04).max(0.3));
    let overload_span = Duration::from_secs_f64(secs * 0.15);

    let addr = front.addr;
    let warm = poisson(LIGHT_RPS, Duration::from_millis(300), stream_seed(opts.seed, 2));
    drive(addr, &inputs, &warm, 0, None)?;

    let s0 = stats(addr)?;
    let light_offsets = poisson(LIGHT_RPS, light_span, stream_seed(opts.seed, 3));
    let light = drive(addr, &inputs, &light_offsets, 0, None)?;
    let s1 = stats(addr)?;
    let heavy_offsets = poisson(HEAVY_RPS, heavy_span, stream_seed(opts.seed, 4));
    let heavy = drive(addr, &inputs, &heavy_offsets, 7, None)?;
    let s2 = stats(addr)?;
    let (light_p50, light_p99, heavy_p50, heavy_p99) =
        (windowed_median(&light.lat_ms), light.p(99.0), heavy.p(50.0), heavy.p(99.0));
    out.e2e("lat_p50_ms", light_p50);
    out.layer("serve.lat_p99_ms.light", light_p99);
    out.layer("serve.lat_p50_ms.heavy", heavy_p50);
    out.layer("serve.lat_p99_ms.heavy", heavy_p99);
    out.layer("serve.mean_batch.light", mean_batch(&s0, &s1));
    out.layer("serve.mean_batch.heavy", mean_batch(&s1, &s2));
    out.layer("gen.lag_ms.p99.light", percentile(&light.lag_ms, 99.0).unwrap_or(0.0));
    out.layer("gen.lag_ms.p99.heavy", percentile(&heavy.lag_ms, 99.0).unwrap_or(0.0));
    for p in [&light, &heavy] {
        out.attempted += p.sent as u64;
        out.failed += (p.failed + p.shed + p.expired) as u64;
    }

    // The ladder: highest rate with p99 within the limit, no failures and
    // no growing backlog. Walk up until three misses in a row; on a machine
    // where even the first step misses, walk down to the first pass.
    let mut max_rate = 0.0f64;
    let mut misses = 0;
    let mut descending = false;
    let mut ladder_lag = Vec::new();
    let mut ladder_mismatched = 0usize;
    let mut rate = LADDER_START_RPS;
    for step in 0..LADDER_MAX_STEPS {
        let offsets = poisson(rate, step_span, stream_seed(opts.seed, 100 + step as u64));
        let p = drive(addr, &inputs, &offsets, step * 31, None)?;
        let pass = p.failed == 0
            && p.shed == 0
            && p.expired == 0
            && p.segment_p99() <= P99_LIMIT_MS
            && !p.backlog_growing();
        eprintln!(
            "ladder {rate:>7.0} req/s: sent {} ok {} failed {} p50 {:.3} ms p99 {:.3} ms \
             segment p99 {:.3} ms lag p99 {:.3} ms {}",
            p.sent,
            p.ok,
            p.failed + p.shed + p.expired,
            p.p(50.0),
            p.p(99.0),
            p.segment_p99(),
            percentile(&p.lag_ms, 99.0).unwrap_or(0.0),
            if pass {
                "pass"
            } else if p.backlog_growing() {
                "MISS (backlog growing)"
            } else {
                "MISS"
            }
        );
        ladder_lag.extend_from_slice(&p.lag_ms);
        // A step past the maximum is expected to miss; count its requests
        // but not its refusals against the run.
        out.attempted += p.sent as u64;
        out.failed += p.mismatched as u64;
        ladder_mismatched += p.mismatched;
        descending |= step == 0 && !pass;
        if descending {
            if pass {
                max_rate = rate;
                break;
            }
            rate /= LADDER_RATIO;
            continue;
        }
        if pass {
            max_rate = rate;
            misses = 0;
        } else {
            misses += 1;
            if misses == 3 {
                break;
            }
        }
        rate *= LADDER_RATIO;
    }
    if max_rate == 0.0 {
        return Err(format!(
            "no ladder rate from {LADDER_START_RPS} req/s met p99 <= {P99_LIMIT_MS} ms"
        ));
    }
    out.layer("serve.max_rate_rps", max_rate);
    out.layer("gen.lag_ms.p99.ladder", percentile(&ladder_lag, 99.0).unwrap_or(0.0));

    // Overload: 20 ms deadlines; sheds and expiries are the point, not
    // failures, but wrong logits still are.
    let s3 = stats(addr)?;
    let over_offsets = poisson(OVERLOAD_RPS, overload_span, stream_seed(opts.seed, 5));
    let over = drive(addr, &inputs, &over_offsets, 13, Some(OVERLOAD_DEADLINE))?;
    let s4 = stats(addr)?;
    // Goodput: the server answers OK only when it ran the request within
    // its deadline (counted from admission). The client-side view, from
    // the due time, is logged beside it.
    let deadline_ms = OVERLOAD_DEADLINE.as_secs_f64() * 1e3;
    let on_time = over.lat_ms.iter().filter(|&&l| l <= deadline_ms).count();
    out.e2e("rate_per_s", over.windowed_throughput());
    println!(
        "overload: {} OK in {:.2} s, {on_time} of them within {deadline_ms} ms of their due time",
        over.ok, over.wall_s
    );
    out.layer("serve.shed_ratio.overload", (over.shed + over.expired) as f64 / over.sent as f64);
    out.layer("serve.ewma_service_us.overload", s4.ewma_service_ns as f64 / 1e3);
    out.layer("serve.degraded_total", s4.degraded_total as f64);
    out.layer("serve.flush_deadline_us", s4.flush_deadline_ns as f64 / 1e3);
    out.layer("net.rate_limited", (s4.rate_limited - s3.rate_limited) as f64);
    out.layer("gen.lag_ms.p99.overload", percentile(&over.lag_ms, 99.0).unwrap_or(0.0));
    out.attempted += over.sent as u64;
    out.failed += over.mismatched as u64;
    let mismatched = light.mismatched + heavy.mismatched + ladder_mismatched + over.mismatched;

    for (name, p) in [("light", &light), ("heavy", &heavy), ("overload", &over)] {
        println!(
            "phase {name:<8} sent {:>6} ok {:>6} failed {:>3} shed {:>5} expired {:>5} \
             p50 {:>7.3} ms p99 {:>7.3} ms gen lag p99 {:.3} ms",
            p.sent,
            p.ok,
            p.failed,
            p.shed,
            p.expired,
            p.p(50.0),
            p.p(99.0),
            percentile(&p.lag_ms, 99.0).unwrap_or(0.0),
        );
    }
    println!(
        "serve_int8: lat_p50_ms.light {light_p50:.4} lat_p99_ms.light {light_p99:.4} \
         lat_p50_ms.heavy {heavy_p50:.4} lat_p99_ms.heavy {heavy_p99:.4} max_rate_rps {max_rate:.0} \
         goodput_rps.overload {:.0}",
        over.windowed_throughput()
    );

    if trace::enabled() {
        // Layer probes, each isolated from the socket.
        let mut probe = Client::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
        let mut rtt = Vec::with_capacity(500);
        for _ in 0..500 {
            let t = Instant::now();
            probe.ping().map_err(|e| format!("ping: {e}"))?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        drop(probe);
        let rtt_p50 = median(&rtt);
        let light_codec = windowed_median(&light.codec_us);
        out.layer("net.ping_rtt_us.p50", rtt_p50);
        out.layer("net.codec_us.p50", light_codec);
        let wait_light = replay_in_process(path, &inputs, &light_offsets, 0)?;
        let wait_heavy = replay_in_process(path, &inputs, &heavy_offsets, 7)?;
        let wait_p50 = windowed_median(&wait_light);
        out.layer("serve.wait_us.p50.light", wait_p50);
        out.layer("serve.wait_us.p99.heavy", percentile(&wait_heavy, 99.0).unwrap_or(0.0));
        let (b1, allocs1) = predict_us(&plan, &inputs, 1, 2000);
        let (b8, allocs8) = predict_us(&plan, &inputs, 8, 500);
        out.layer("engine.predict_us.int8.b1", b1);
        out.layer("engine.predict_us.int8.b8", b8);
        out.layer("engine.workspace_allocs", (allocs1 + allocs8) as f64);
        let unattributed = light_p50 * 1e3 - (rtt_p50 + light_codec + wait_p50);
        out.layer("serve.unattributed_us.light", unattributed);
        println!(
            "lat_p50_ms.light {:.1} us = ping rtt {rtt_p50:.1} + codec {light_codec:.1} \
             + serve queue/batch {:.1} + engine b1 {b1:.1} + unattributed {unattributed:.1}",
            light_p50 * 1e3,
            wait_p50 - b1,
        );
    }

    let net = front.stop()?;
    out.layer("net.error_replies", net.replies_err as f64);
    out.check(
        "every OK reply is bit-identical to serial predict_batch on the snapshot",
        mismatched == 0,
    );
    Ok(())
}
