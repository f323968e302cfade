//! `decode`: continuous-batching autoregressive decode through
//! `gc_serve::DecodeModel` over `workloads::decode_f32` (4 heads,
//! head_dim 64).
//!
//! One generator thread keeps 32 sessions live. Each session decodes a
//! seeded length of 8–96 tokens, closes, and is replaced by a fresh one,
//! so sessions join and leave mid-batch and KV caches grow through the
//! 16→128 capacity buckets. A session's next step is submitted as soon
//! as its last one completes; the thread blocks on the oldest
//! `StepFuture` and never polls.

use crate::rng::Rng;
use crate::stats::{median, ms, quantile, windowed, Done};
use crate::{compile_options, Run, SETUP_REPS, WINDOW_S};
use gc_bench::workloads;
use gc_serve::{DecodeConfig, DecodeModel, DecodeSession, PlanCache, StatsSnapshot, StepFuture};
use gc_tensor::{DataType, Tensor};
use gc_tir::InitCache;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

const HEADS: usize = 4;
const HEAD_DIM: usize = 64;
const LIVE_SESSIONS: usize = 32;
const MIN_LEN: usize = 8;
const MAX_LEN: usize = 96;
/// Sessions the warm pass opens.
const WARM_SESSIONS: usize = 4 * LIVE_SESSIONS;
/// Every this-many-th step's output is kept and checked.
const CHECK_EVERY: u64 = 64;
/// f32 tolerance of served decode against the reference attention
/// (tests/decode_differential.rs).
const TOL: f64 = 1e-5;

/// Deterministic q/k/v row `which` (0, 1, 2) of position `pos` of
/// session `serial`: the generator's own copy of the KV history, which
/// the checker regenerates.
fn step_row(seed: u64, serial: u64, pos: usize, which: u64) -> Tensor {
    let mut rng =
        Rng::new(seed ^ serial.wrapping_mul(0x1_0000_0001) ^ ((pos as u64) << 40) ^ which);
    Tensor::random(&[HEADS, 1, HEAD_DIM], DataType::F32, rng.next_u64())
}

struct Live {
    serial: u64,
    session: DecodeSession,
    target: usize,
    /// Steps submitted so far (= the session's length once they finish).
    submitted: usize,
}

struct InFlight {
    slot: usize,
    step: u64,
    future: StepFuture,
    submitted: Instant,
    span: u64,
}

/// What the generator observed.
#[derive(Default)]
struct DecodeLog {
    done: Vec<Done>,
    /// `(serial, length, output)` of every sampled step.
    samples: Vec<(u64, usize, Vec<f32>)>,
    attempted: u64,
    failed: u64,
}

/// The single load thread: opens sessions and submits their steps.
struct Generator<'a> {
    model: &'a DecodeModel,
    seed: u64,
    run: &'a Run,
    /// Start of the timed region (completion times are relative to it).
    start: Instant,
    serial: u64,
    step: u64,
}

impl Generator<'_> {
    fn open(&mut self, target: usize) -> Option<Live> {
        let session = match self.model.session() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("decode: opening a session failed: {e}");
                return None;
            }
        };
        self.serial += 1;
        Some(Live {
            serial: self.serial,
            session,
            target,
            submitted: 0,
        })
    }

    fn submit(&mut self, slot: usize, live: &mut Live, log: &mut DecodeLog) -> Option<InFlight> {
        let pos = live.submitted;
        let [q, k, v] = [0, 1, 2].map(|w| step_row(self.seed, live.serial, pos, w));
        self.step += 1;
        log.attempted += 1;
        let span = self.run.trace.id();
        let t0 = Instant::now();
        let result = live.session.decode_step(&q, &k, &v);
        self.run.trace.record(
            span,
            self.step,
            "decode_step",
            slot as u32,
            t0,
            Instant::now(),
        );
        live.submitted += 1;
        match result {
            Ok(future) => Some(InFlight {
                slot,
                step: self.step,
                future,
                submitted: t0,
                span,
            }),
            Err(e) => {
                eprintln!("decode: submit failed: {e}");
                log.failed += 1;
                None
            }
        }
    }

    /// Keep up to `LIVE_SESSIONS` sessions decoding. `next_len` yields
    /// the length of each new session (`None`: open no more);
    /// `deadline` stops new submissions, after which in-flight steps
    /// drain.
    fn drive(
        &mut self,
        next_len: &mut dyn FnMut() -> Option<usize>,
        deadline: Option<Instant>,
        log: &mut DecodeLog,
    ) {
        let mut slots: Vec<Option<Live>> = (0..LIVE_SESSIONS).map(|_| None).collect();
        let mut fifo: VecDeque<InFlight> = VecDeque::new();
        let open_more = |deadline: Option<Instant>| deadline.is_none_or(|d| Instant::now() < d);
        for (slot, entry) in slots.iter_mut().enumerate() {
            if let Some(mut live) = next_len().and_then(|len| self.open(len)) {
                fifo.extend(self.submit(slot, &mut live, log));
                *entry = Some(live);
            }
        }
        while let Some(f) = fifo.pop_front() {
            let result = f.future.wait();
            let done = Instant::now();
            self.run.trace.record_as(
                f.span,
                0,
                f.step,
                "step_wait",
                f.slot as u32,
                f.submitted,
                done,
            );
            let live = slots[f.slot]
                .as_mut()
                .expect("in-flight step has a session");
            let finished = match result {
                Ok(out) => {
                    log.done.push(Done {
                        at_s: (done - self.start).as_secs_f64(),
                        latency_ms: ms(done - f.submitted),
                        work: 1.0,
                    });
                    if f.step % CHECK_EVERY == 0 {
                        let values = out.f32_slice().map(<[f32]>::to_vec).unwrap_or_default();
                        log.samples.push((live.serial, live.submitted, values));
                    }
                    live.submitted == live.target
                }
                Err(e) => {
                    eprintln!("decode: step failed: {e}");
                    log.failed += 1;
                    true
                }
            };
            if !open_more(deadline) {
                continue;
            }
            if finished {
                slots[f.slot] = next_len().and_then(|len| self.open(len));
            }
            if let Some(live) = slots[f.slot].as_mut() {
                fifo.extend(self.submit(f.slot, live, log));
            }
        }
    }
}

fn config(plan_cache: &Arc<PlanCache>) -> DecodeConfig {
    DecodeConfig {
        compile: compile_options(),
        plan_cache: Some(Arc::clone(plan_cache)),
        init_cache: Some(Arc::new(InitCache::new())),
        ..DecodeConfig::default()
    }
}

/// Load the model with private caches and run one warm pass: the
/// timed traffic's shape (32 live sessions, replaced as they finish) for
/// `WARM_SESSIONS` sessions of lengths spread over 8–96, then a drain.
/// It reaches every capacity bucket and, as the last sessions finish,
/// every batch width from 32 sessions down to one.
fn setup(run: &Run) -> (DecodeModel, Arc<PlanCache>) {
    let plan_cache = Arc::new(PlanCache::new());
    let t0 = Instant::now();
    let model = DecodeModel::load(
        |rows, cap| workloads::decode_f32(rows, cap, HEAD_DIM),
        HEADS,
        config(&plan_cache),
    )
    .expect("load decode model");
    run.trace.record(0, 0, "model.load", 0, t0, Instant::now());
    let mut lens = (0..WARM_SESSIONS).map(|i| MIN_LEN + (i * 37) % (MAX_LEN - MIN_LEN + 1));
    let mut warm = DecodeLog::default();
    Generator {
        model: &model,
        seed: run.seed ^ 0x3a3a,
        run,
        start: Instant::now(),
        serial: 0,
        step: 0,
    }
    .drive(&mut || lens.next(), None, &mut warm);
    assert_eq!(warm.failed, 0, "decode warm pass failed");
    (model, plan_cache)
}

pub fn run(run: &mut Run) {
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t0 = Instant::now();
        loaded = Some(setup(run));
        setups.push(t0.elapsed().as_secs_f64());
    }
    run.metrics.set_opt("setup_s", median(&mut setups), "s");
    let (model, plan_cache) = loaded.expect("at least one setup");

    // Session lengths: every length in 8..=96 once per cycle, in seeded
    // order, so each seed decodes the same length mix.
    let mut lengths: Vec<usize> = (MIN_LEN..=MAX_LEN).collect();
    Rng::new(run.seed).shuffle(&mut lengths);
    let mut cycle = lengths.iter().copied().cycle();

    let before = model.stats();
    let misses0 = plan_cache.misses();
    let mut log = DecodeLog::default();
    let start = Instant::now();
    Generator {
        model: &model,
        seed: run.seed,
        run,
        start,
        serial: 0,
        step: 0,
    }
    .drive(&mut || cycle.next(), Some(start + run.duration()), &mut log);
    let after = model.stats();
    run.note(
        "decode_plan_cache_misses_timed",
        (plan_cache.misses() - misses0).to_string(),
    );
    model.shutdown();

    check_samples(run, &log);

    let span_s = run.duration().as_secs_f64();
    let m = &mut run.metrics;
    if let Some(w) = windowed(&log.done, WINDOW_S, span_s, 0.9) {
        m.set("latency_p50_ms", w.p50_ms, "ms");
        m.set("latency_p75_ms", w.p75_ms, "ms");
        m.set("latency_tail_ms", w.tail_ms, "ms");
        m.set("throughput_per_s", w.rate_per_s, "1/s");
    }
    let mut lat: Vec<f64> = log.done.iter().map(|d| d.latency_ms).collect();
    m.set_opt("latency_p99_ms", quantile(&mut lat, 0.99), "ms");
    scheduler_metrics(run, &before, &after);
    run.attempted += log.attempted;
    run.failed += log.failed;
}

fn scheduler_metrics(run: &mut Run, before: &StatsSnapshot, after: &StatsSnapshot) {
    let iterations = after.decode_iterations() - before.decode_iterations();
    let steps = after.decode_steps() - before.decode_steps();
    let m = &mut run.metrics;
    m.set("decode.iterations", iterations as f64, "count");
    if iterations > 0 {
        m.set(
            "decode.coalesce_ratio",
            steps as f64 / iterations as f64,
            "ratio",
        );
    }
    let mut caps: Vec<u64> = after.decode_buckets.iter().map(|b| b.capacity).collect();
    caps.dedup();
    for cap in caps {
        let at = |s: &StatsSnapshot| -> (u64, u64) {
            s.decode_buckets
                .iter()
                .filter(|b| b.capacity == cap)
                .fold((0, 0), |(i, st), b| (i + b.iterations, st + b.steps))
        };
        let ((i1, s1), (i0, s0)) = (at(after), at(before));
        if i1 > i0 {
            m.set(
                format!("decode.rows_per_iter.{cap}"),
                (s1 - s0) as f64 / (i1 - i0) as f64,
                "rows",
            );
        }
    }
}

/// Each sampled step against `reference_eval` of the decode-attention
/// graph over the session's regenerated K/V history.
fn check_samples(run: &mut Run, log: &DecodeLog) {
    for (serial, len, got) in &log.samples {
        run.checks += 1;
        let (len, serial) = (*len, *serial);
        let mut k = vec![0f32; HEADS * len * HEAD_DIM];
        let mut v = vec![0f32; HEADS * len * HEAD_DIM];
        for pos in 0..len {
            for (which, dst) in [(1, &mut k), (2, &mut v)] {
                let row = step_row(run.seed, serial, pos, which);
                let row = row.f32_slice().expect("f32 row");
                for h in 0..HEADS {
                    let at = (h * len + pos) * HEAD_DIM;
                    dst[at..at + HEAD_DIM].copy_from_slice(&row[h * HEAD_DIM..(h + 1) * HEAD_DIM]);
                }
            }
        }
        let [k, v, mask] = [
            Tensor::from_vec_f32(&[HEADS, len, HEAD_DIM], k),
            Tensor::from_vec_f32(&[HEADS, len, HEAD_DIM], v),
            Tensor::from_vec_f32(&[HEADS, 1, len], vec![0.0; HEADS * len]),
        ]
        .map(|t| t.expect("reference input"));
        let inputs = [step_row(run.seed, serial, len - 1, 0), k, v, mask];
        let graph = workloads::decode_f32(HEADS, len, HEAD_DIM);
        let want = workloads::reference_eval(&graph, &inputs);
        let want = want[0].f32_slice().expect("f32 reference");
        let ok = got.len() == want.len()
            && got.iter().zip(want).all(|(&g, &w)| {
                (f64::from(g) - f64::from(w)).abs() <= TOL * (1.0 + f64::from(w).abs())
            });
        if !ok {
            eprintln!("decode: session {serial} step {len} differs from the reference");
            run.check_failures += 1;
        }
    }
}
