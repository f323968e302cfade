//! `serve` and `serve_sharded`: MLP_2 fp32 behind `gc_serve::Model`,
//! driven by two closed-loop clients with no think time.
//!
//! Each request carries 1–8 rows drawn from a pre-generated pool that
//! holds every row count equally often; the seed decides the pool's
//! contents and each client's order through it. Both workloads send the
//! same traffic; `serve_sharded` serves it through two engine shards of
//! one thread each, so the difference between them is the shard path.

use crate::rng::Rng;
use crate::stats::{max_abs_diff, median, ms, quantile, windowed, Done};
use crate::{compile_options, Run, SETUP_REPS, WINDOW_S};
use gc_bench::workloads;
use gc_core::Compiler;
use gc_serve::{Model, PlanCache, ServeConfig, StatsSnapshot};
use gc_tensor::{DataType, Tensor};
use gc_tir::InitCache;
use std::sync::Arc;
use std::time::Instant;

const MAX_ROWS: usize = 8;
/// Requests per row count in the pool.
const POOL_PER_SIZE: usize = 32;
const CLIENTS: usize = 2;
/// MLP_2's input features.
const FEATURES: usize = 479;
/// Request sizes sent before timing: every bucket two closed-loop
/// clients can coalesce into (up to 2 × 8 rows), twice each so
/// round-robin routing reaches both shards.
const WARM_ROWS: [usize; 10] = [1, 1, 2, 2, 4, 4, 8, 8, 16, 16];
/// Documented f32 tolerance of batched and sharded serving against an
/// unbatched compile (tests/shard_differential.rs): per-bucket blocking
/// changes the summation order. Relative to the model's output range:
/// MLP_2's outputs reach ~1e5, so a row whose output cancels to ~40 still
/// carries rounding at the 1e5 scale, which a per-element relative bound
/// would misread as an error.
const TOL: f64 = 5e-5;

fn request_pool(seed: u64) -> Vec<Tensor> {
    let mut sizes: Vec<usize> = (1..=MAX_ROWS)
        .flat_map(|r| std::iter::repeat_n(r, POOL_PER_SIZE))
        .collect();
    Rng::new(seed ^ 0x5e7e).shuffle(&mut sizes);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &rows)| {
            Tensor::random(
                &[rows, FEATURES],
                DataType::F32,
                seed.wrapping_mul(1 << 20) + i as u64,
            )
        })
        .collect()
}

/// Load the model with private caches (so every setup starts cold) and
/// warm every bucket the traffic reaches.
fn setup(run: &Run, sharded: bool) -> (Model, Arc<PlanCache>) {
    let plan_cache = Arc::new(PlanCache::new());
    let mut config = ServeConfig {
        compile: compile_options(),
        plan_cache: Some(Arc::clone(&plan_cache)),
        init_cache: Some(Arc::new(InitCache::new())),
        ..ServeConfig::default()
    };
    if sharded {
        // Total budget POOL_THREADS, split evenly: one thread per shard.
        config = config.with_shards(2);
    }
    let t0 = Instant::now();
    let graph = workloads::mlp_f32(1, &workloads::mlp2_layers(), run.seed);
    let model = Model::load(graph, config).expect("load MLP_2");
    let t1 = Instant::now();
    run.trace.record(0, 0, "model.load", 0, t0, t1);
    let session = model.session();
    for (i, &rows) in WARM_ROWS.iter().enumerate() {
        let x = Tensor::random(&[rows, FEATURES], DataType::F32, 0xa11 + i as u64);
        let t = Instant::now();
        session.infer(&[x]).expect("warm-up request");
        run.trace
            .record(0, 0, "warm.infer", rows as u32, t, Instant::now());
    }
    (model, plan_cache)
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    /// Pool index and output values of every successful response.
    responses: Vec<(usize, Vec<f32>)>,
    attempted: u64,
    failed: u64,
}

fn client(
    model: &Model,
    pool: &[Tensor],
    order: &[usize],
    (start, deadline): (Instant, Instant),
    run: &Run,
) -> ClientLog {
    let trace = &run.trace;
    let session = model.session();
    let mut log = ClientLog::default();
    for &idx in order.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let x = &pool[idx];
        let (req, parent) = (trace.id(), trace.id());
        log.attempted += 1;
        let t0 = Instant::now();
        let result = session.infer_with_stats(std::slice::from_ref(x));
        let t1 = Instant::now();
        match result {
            Ok((outs, stats)) => {
                log.done.push(Done {
                    at_s: (t1 - start).as_secs_f64(),
                    latency_ms: ms(t1 - t0),
                    work: x.desc().shape()[0] as f64,
                });
                log.queue_ms.push(ms(stats.queue_wait));
                log.exec_ms.push(ms(stats.wall));
                let values = outs[0].f32_slice().map(<[f32]>::to_vec).unwrap_or_default();
                log.responses.push((idx, values));
                trace.record(parent, req, "queue_wait", 0, t0, t0 + stats.queue_wait);
                let exec_start = t1.checked_sub(stats.wall).unwrap_or(t0).max(t0);
                trace.record(parent, req, "exec", 0, exec_start, t1);
            }
            Err(e) => {
                eprintln!("serve: request failed: {e}");
                log.failed += 1;
            }
        }
        trace.record_as(parent, 0, req, "infer_with_stats", 0, t0, t1);
    }
    log
}

pub fn run(run: &mut Run, sharded: bool) {
    let pool = request_pool(run.seed);

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t0 = Instant::now();
        loaded = Some(setup(run, sharded));
        setups.push(t0.elapsed().as_secs_f64());
    }
    run.metrics.set_opt("setup_s", median(&mut setups), "s");
    let (model, plan_cache) = loaded.expect("at least one setup");

    let orders: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| {
            let mut order: Vec<usize> = (0..pool.len()).collect();
            Rng::new(run.seed.wrapping_add(c as u64 + 1)).shuffle(&mut order);
            order
        })
        .collect();
    let before = model.stats();
    let (hits0, misses0) = (plan_cache.hits(), plan_cache.misses());
    let start = Instant::now();
    let deadline = start + run.duration();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                let (model, pool, run) = (&model, &pool, &*run);
                s.spawn(move || client(model, pool, order, (start, deadline), run))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = model.stats();
    let (hits, misses) = (plan_cache.hits() - hits0, plan_cache.misses() - misses0);
    model.shutdown();

    check_responses(run, &pool, &logs);

    let span_s = run.duration().as_secs_f64();
    let m = &mut run.metrics;
    let done: Vec<Done> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    if let Some(w) = windowed(&done, WINDOW_S, span_s, 0.9) {
        m.set("latency_p50_ms", w.p50_ms, "ms");
        m.set("latency_p75_ms", w.p75_ms, "ms");
        m.set("latency_tail_ms", w.tail_ms, "ms");
        m.set("throughput_per_s", w.rate_per_s, "1/s");
    }
    let mut lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    m.set_opt("latency_p99_ms", quantile(&mut lat, 0.99), "ms");
    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let (mut queue, mut exec) = (all(|l| &l.queue_ms), all(|l| &l.exec_ms));
    m.set_opt("serve.queue_wait_ms_p50", median(&mut queue), "ms");
    m.set_opt("serve.queue_wait_ms_p99", quantile(&mut queue, 0.99), "ms");
    m.set_opt("serve.exec_ms_p50", median(&mut exec), "ms");
    m.set_opt("serve.exec_ms_p99", quantile(&mut exec, 0.99), "ms");
    m.set("serve.plan_cache_hits", hits as f64, "count");
    m.set("serve.plan_cache_misses", misses as f64, "count");
    batcher_metrics(run, &before, &after);
    run.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    run.failed += logs.iter().map(|l| l.failed).sum::<u64>();
}

/// Batcher and shard counters over the timed region.
fn batcher_metrics(run: &mut Run, before: &StatsSnapshot, after: &StatsSnapshot) {
    let m = &mut run.metrics;
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    let requests = after.requests - before.requests;
    let batches = after.batches - before.batches;
    let sum = |s: &StatsSnapshot, f: fn(&gc_serve::BucketSnapshot) -> u64| -> u64 {
        s.buckets.iter().map(f).sum()
    };
    let rows = sum(after, |b| b.rows) - sum(before, |b| b.rows);
    let padded = sum(after, |b| b.padded_rows) - sum(before, |b| b.padded_rows);
    m.set_opt("serve.batch_rows_mean", ratio(rows, batches), "rows");
    m.set_opt("serve.coalesce_ratio", ratio(requests, batches), "ratio");
    m.set_opt(
        "serve.fast_path_frac",
        ratio(after.fast_path - before.fast_path, requests),
        "ratio",
    );
    m.set_opt(
        "serve.padded_row_frac",
        ratio(padded, rows + padded),
        "ratio",
    );
    if after.shards.is_empty() {
        return;
    }
    let scattered = after.scattered_batches - before.scattered_batches;
    m.set_opt("shard.scattered_frac", ratio(scattered, batches), "ratio");
    m.set_opt(
        "shard.fuse_ms_per_batch",
        ratio(after.fuse_us - before.fuse_us, scattered).map(|us| us / 1e3),
        "ms",
    );
    let (mut units, mut pad) = (0, 0);
    for s in &after.shards {
        let prior = before.shards.iter().find(|b| b.id == s.id);
        let delta = |f: fn(&gc_serve::ShardSnapshot) -> u64| f(s) - prior.map_or(0, f);
        units += delta(|x| x.units);
        pad += delta(|x| x.padded_units);
        m.set_opt(
            format!("shard.exec_ms.{}", s.id),
            ratio(delta(|x| x.exec_us), delta(|x| x.batches)).map(|us| us / 1e3),
            "ms",
        );
    }
    m.set_opt("shard.padded_unit_frac", ratio(pad, units + pad), "ratio");
}

/// Every response row against a direct execution of its pool request
/// through a compiled partition (padded to `MAX_ROWS`; rows are
/// independent).
fn check_responses(run: &mut Run, pool: &[Tensor], logs: &[ClientLog]) {
    let graph = workloads::mlp_f32(MAX_ROWS, &workloads::mlp2_layers(), run.seed);
    let reference = Compiler::new(compile_options())
        .compile(graph)
        .expect("compile reference MLP_2");
    let want: Vec<Vec<f32>> = pool
        .iter()
        .map(|x| {
            let rows = x.desc().shape()[0];
            let mut padded = x.f32_slice().expect("f32 request").to_vec();
            padded.resize(MAX_ROWS * FEATURES, 0.0);
            let padded =
                Tensor::from_vec_f32(&[MAX_ROWS, FEATURES], padded).expect("padded request");
            let (outs, _) = reference.execute(&[padded]).expect("reference execute");
            outs[0].f32_slice().expect("f32 output")[..rows].to_vec()
        })
        .collect();
    let range = want
        .iter()
        .flatten()
        .fold(0.0f64, |r, &w| r.max(f64::from(w).abs()));
    let bound = TOL * (1.0 + range);
    let mut worst = 0.0f64;
    for (idx, got) in logs.iter().flat_map(|l| &l.responses) {
        run.checks += 1;
        let want = &want[*idx];
        let diff = max_abs_diff(
            got.iter()
                .zip(want)
                .map(|(&g, &w)| (f64::from(g), f64::from(w))),
        );
        if diff.is_nan() || diff > worst {
            worst = diff;
        }
        if got.len() != want.len() || diff.is_nan() || diff > bound {
            eprintln!("serve: response for pool request {idx} differs: {got:?} vs {want:?}");
            run.check_failures += 1;
        }
    }
    run.note(
        "reference_check",
        format!(
            "{{\"max_diff\":{},\"bound\":{},\"output_range\":{}}}",
            crate::json::num(worst),
            crate::json::num(bound),
            crate::json::num(range)
        ),
    );
}
