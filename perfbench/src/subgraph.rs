//! `subgraph`: the paper's Fig. 8 shapes, compiled and baseline, executed
//! round-robin from one caller thread.
//!
//! End to end it reports the compiled partitions' execute latency and
//! rate; the traced run adds the compile-phase breakdown, a per-fused-op
//! replay of each plan joined with the machine projection, and the
//! kernel sweep over every tile the plans emit.

use crate::stats::{geomean, max_abs_diff, median, ms, quantile};
use crate::tiles::{self, Tile, TileFamily};
use crate::{compile_options, Run, POOL_THREADS, SETUP_REPS};
use gc_baseline::{Baseline, BaselineExecutable, BaselineOptions};
use gc_bench::workloads::{self, Precision};
use gc_core::{pipeline, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_runtime::{ExecStats, ThreadPool};
use gc_tensor::{Storage, Tensor};
use gc_tir::plan::{run_plan_call, PlanScratch};
use gc_tir::GlobalKind;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Wall budget of the per-call replay, per graph.
const REPLAY_BUDGET: Duration = Duration::from_millis(400);

/// The eight graphs, in round-robin order.
pub const GRAPHS: [&str; 8] = [
    "mlp1_b32_fp32",
    "mlp1_b128_fp32",
    "mlp2_b32_fp32",
    "mha1_b1_fp32",
    "mlp1_b32_int8",
    "mlp1_b128_int8",
    "mlp2_b32_int8",
    "mha1_b1_int8",
];

/// How far an output may stray from `workloads::reference_eval`.
#[derive(Debug, Clone, Copy)]
enum Tolerance {
    /// Absolute, in output units.
    Abs(f64),
    /// Relative to the largest reference output magnitude.
    OfRange(f64),
    /// An int8 MLP: the compiled output must equal the baseline's bit
    /// for bit (both accumulate in integers), and each may be this many
    /// u8 quantization steps from the f32 fake-quant reference.
    Int8Chain(f64),
}

struct Case {
    name: &'static str,
    precision: Precision,
    tol: Tolerance,
    graph: Graph,
    inputs: Vec<Tensor>,
}

fn cases(seed: u64) -> Vec<Case> {
    let mha = workloads::mha_configs()[0];
    GRAPHS
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let precision = if name.ends_with("int8") {
                Precision::Int8
            } else {
                Precision::F32
            };
            let weights = seed.wrapping_mul(1000).wrapping_add(i as u64 * 10);
            let mlp = |batch, layers: &[usize]| match precision {
                Precision::F32 => workloads::mlp_f32(batch, layers, weights),
                Precision::Int8 => workloads::mlp_int8(batch, layers, weights),
            };
            // Tolerances of the differential tests
            // (tests/compiler_correctness.rs): f32 MLP_1 1e-2 and MHA_1
            // 5e-2 absolute, int8 MLP_1 3 steps, int8 MHA 0.15. The tests
            // have no MLP_2 case. Its f32 outputs reach ~1e5, so it gets
            // the repo's f32 serving tolerance (5e-5) relative to the
            // output range. In int8, the reference rounds each layer's
            // 1024-wide sum in f32 and a requantize flip cascades through
            // the later layers: over 260 seeds the worst output diverged
            // 0-8 steps, identically in the compiled and baseline
            // executors, so it gets 16 steps beside the bit-exact match.
            let (mlp1, mlp2) = (workloads::mlp1_layers(), workloads::mlp2_layers());
            let int8 = precision == Precision::Int8;
            let (graph, tol) = match name.split('_').take(2).collect::<Vec<_>>()[..] {
                ["mlp1", "b32"] if int8 => (mlp(32, &mlp1), Tolerance::Int8Chain(3.0)),
                ["mlp1", "b32"] => (mlp(32, &mlp1), Tolerance::Abs(1e-2)),
                ["mlp1", "b128"] if int8 => (mlp(128, &mlp1), Tolerance::Int8Chain(3.0)),
                ["mlp1", "b128"] => (mlp(128, &mlp1), Tolerance::Abs(1e-2)),
                ["mlp2", "b32"] if int8 => (mlp(32, &mlp2), Tolerance::Int8Chain(16.0)),
                ["mlp2", "b32"] => (mlp(32, &mlp2), Tolerance::OfRange(5e-5)),
                ["mha1", "b1"] if int8 => (workloads::mha_int8(1, &mha).0, Tolerance::Abs(0.15)),
                ["mha1", "b1"] => (workloads::mha_f32(1, &mha).0, Tolerance::Abs(5e-2)),
                _ => unreachable!("graph table entry {name}"),
            };
            let inputs = workloads::random_inputs(&graph, weights + 5);
            Case {
                name,
                precision,
                tol,
                graph,
                inputs,
            }
        })
        .collect()
}

struct Prepared {
    compiled: CompiledPartition,
    baseline: BaselineExecutable,
    /// Init-stage wall of the compiled partition's first execute.
    init: Duration,
}

/// Compile and build every graph and run each once (the init stage).
fn setup(cases: &[Case], run: &Run) -> Vec<Prepared> {
    let t = &run.trace;
    cases
        .iter()
        .enumerate()
        .map(|(gi, c)| {
            let key = gi as u32;
            let t0 = Instant::now();
            let compiled = Compiler::new(compile_options())
                .compile(c.graph.clone())
                .unwrap_or_else(|e| panic!("compile {}: {e}", c.name));
            let t1 = Instant::now();
            let mut bopts = BaselineOptions::new(MachineDescriptor::xeon_8358());
            bopts.threads = Some(POOL_THREADS);
            let baseline = Baseline::new(bopts)
                .build(c.graph.clone())
                .unwrap_or_else(|e| panic!("baseline build {}: {e}", c.name));
            let t2 = Instant::now();
            let (_, stats) = compiled
                .execute(&c.inputs)
                .unwrap_or_else(|e| panic!("first execute {}: {e}", c.name));
            let t3 = Instant::now();
            baseline
                .execute(&c.inputs)
                .unwrap_or_else(|e| panic!("first baseline execute {}: {e}", c.name));
            let t4 = Instant::now();
            t.record(0, 0, "compile", key, t0, t1);
            t.record(0, 0, "baseline.build", key, t1, t2);
            t.record(0, 0, "init.compiled", key, t2, t3);
            t.record(0, 0, "init.baseline", key, t3, t4);
            Prepared {
                compiled,
                baseline,
                init: stats.init_wall,
            }
        })
        .collect()
}

/// One graph's timed executions.
#[derive(Default)]
struct Timed {
    compiled_ms: Vec<f64>,
    baseline_ms: Vec<f64>,
    stats: ExecStats,
    first: Option<(Vec<Tensor>, Vec<Tensor>)>,
    last: Option<(Vec<Tensor>, Vec<Tensor>)>,
}

pub fn run(run: &mut Run) {
    let cases = cases(run.seed);

    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut prepared));
        let t0 = Instant::now();
        prepared = setup(&cases, run);
        setups.push(t0.elapsed().as_secs_f64());
    }
    run.metrics.set_opt("setup_s", median(&mut setups), "s");

    // Timed region: round-robin, compiled then baseline per graph.
    let mut timed: Vec<Timed> = cases.iter().map(|_| Timed::default()).collect();
    // Compiled execute seconds of each whole round over the graphs.
    let mut rounds: Vec<f64> = Vec::new();
    let deadline = Instant::now() + run.duration();
    let trace = run.trace.clone();
    while Instant::now() < deadline {
        let mut round = Some(0.0);
        for (gi, (c, p)) in cases.iter().zip(&prepared).enumerate() {
            let req = trace.id();
            let tm = &mut timed[gi];
            let t0 = Instant::now();
            let compiled = p.compiled.execute(&c.inputs);
            let t1 = Instant::now();
            let baseline = p.baseline.execute(&c.inputs);
            let t2 = Instant::now();
            trace.record(0, req, "compiled.execute", gi as u32, t0, t1);
            trace.record(0, req, "baseline.execute", gi as u32, t1, t2);
            run.attempted += 2;
            match (compiled, baseline) {
                (Ok((outs, stats)), Ok((base, _))) => {
                    tm.compiled_ms.push(ms(t1 - t0));
                    round = round.map(|r| r + (t1 - t0).as_secs_f64());
                    tm.baseline_ms.push(ms(t2 - t1));
                    tm.stats = stats;
                    if tm.first.is_none() {
                        tm.first = Some((outs, base));
                    } else {
                        tm.last = Some((outs, base));
                    }
                }
                (c, b) => {
                    round = None;
                    for e in [c.err(), b.err()].into_iter().flatten() {
                        eprintln!("{}: execute failed: {e}", GRAPHS[gi]);
                        run.failed += 1;
                    }
                }
            }
        }
        rounds.extend(round);
    }
    // The rate three rounds in four reach: the 75th-percentile round, as
    // for `latency_p75_ms` (see the crate docs).
    if let Some(round_s) = quantile(&mut rounds, 0.75) {
        run.metrics
            .set("throughput_per_s", cases.len() as f64 / round_s, "1/s");
    }

    check_outputs(run, &cases, &timed);
    report(run, &cases, &prepared, &mut timed);
    if run.trace.enabled() {
        compile_phases(run, &cases);
        replay_calls(run, &cases, &prepared, &timed);
        kernel_sweep(run, &prepared);
    }
}

/// Worst element difference of `got` against `want` and the bound it
/// must stay within.
fn diff_and_bound(tol: Tolerance, got: &Tensor, want: &Tensor) -> (f64, f64) {
    let n = want.desc().volume();
    let (g, w) = (got.storage(), want.storage());
    let worst = max_abs_diff((0..n).map(|i| (g.get_as_f64(i), w.get_as_f64(i))));
    let bound = match tol {
        Tolerance::Abs(t) | Tolerance::Int8Chain(t) => t,
        Tolerance::OfRange(t) => {
            let range = (0..n).map(|i| w.get_as_f64(i).abs()).fold(0.0, f64::max);
            t * (1.0 + range)
        }
    };
    (worst, bound)
}

fn check_outputs(run: &mut Run, cases: &[Case], timed: &[Timed]) {
    let mut table = String::new();
    for (c, tm) in cases.iter().zip(timed) {
        let Some((first_c, first_b)) = &tm.first else {
            eprintln!("{}: no successful execution to check", c.name);
            run.check_failures += 1;
            continue;
        };
        let want = workloads::reference_eval(&c.graph, &c.inputs);
        for (side, outs) in [("compiled", first_c), ("baseline", first_b)] {
            run.checks += 1;
            let (worst, tol) = diff_and_bound(c.tol, &outs[0], &want[0]);
            let _ = write!(
                table,
                "{}{{\"graph\":\"{}\",\"side\":\"{side}\",\"max_diff\":{},\"tol\":{}}}",
                if table.is_empty() { "" } else { "," },
                c.name,
                crate::json::num(worst),
                crate::json::num(tol),
            );
            if outs.len() != want.len() || worst.is_nan() || worst > tol {
                eprintln!(
                    "{} {side}: max diff {worst} vs reference exceeds {tol}",
                    c.name
                );
                run.check_failures += 1;
            }
        }
        let same = |a: &[Tensor], b: &[Tensor]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.storage() == y.storage())
        };
        if let Tolerance::Int8Chain(_) = c.tol {
            run.checks += 1;
            if !same(first_c, first_b) {
                eprintln!(
                    "{}: compiled int8 output differs from the baseline's",
                    c.name
                );
                run.check_failures += 1;
            }
        }
        if let Some((last_c, last_b)) = &tm.last {
            run.checks += 1;
            if !same(last_c, first_c) || !same(last_b, first_b) {
                eprintln!("{}: last timed output differs from the first", c.name);
                run.check_failures += 1;
            }
        }
    }
    run.note("reference_checks", format!("[{table}]"));
}

fn report(run: &mut Run, cases: &[Case], prepared: &[Prepared], timed: &mut [Timed]) {
    let m = &mut run.metrics;
    let (mut p50, mut p75, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_precision: [(Vec<f64>, Vec<f64>); 2] = Default::default();
    let (mut barriers, mut peak_temp, mut init) = (0u64, 0usize, Duration::ZERO);
    let xeon = MachineDescriptor::xeon_8358();
    for ((c, p), tm) in cases.iter().zip(prepared).zip(timed.iter_mut()) {
        let (Some(med), Some(upper), Some(tail), Some(base)) = (
            median(&mut tm.compiled_ms),
            quantile(&mut tm.compiled_ms, 0.75),
            quantile(&mut tm.compiled_ms, 0.9),
            median(&mut tm.baseline_ms),
        ) else {
            continue;
        };
        p50.push(med);
        p75.push(upper);
        p90.push(tail);
        let slot = &mut by_precision[usize::from(c.precision == Precision::Int8)];
        slot.0.push(med);
        slot.1.push(base / med);
        m.set(format!("baseline.exec_ms.{}", c.name), base, "ms");
        m.set(
            format!("machine.proj_ratio.{}", c.name),
            med / p.compiled.project().millis(&xeon),
            "ratio",
        );
        barriers += tm.stats.barriers;
        peak_temp = peak_temp.max(tm.stats.peak_temp_bytes);
        init += p.init;
        let r = p.compiled.report();
        for (name, v) in [
            ("graph.partitions", r.partitions),
            ("graph.merged_groups", r.merged_groups),
            ("graph.fused_post_ops", r.fused_post_ops),
            ("lowering.ragged_partitions", r.ragged_partitions),
        ] {
            let prev = m.get(name).map_or(0.0, |x| x.value);
            m.set(name, prev + v as f64, "count");
        }
    }
    m.set_opt("latency_p50_ms", geomean(&p50), "ms");
    m.set_opt("latency_p75_ms", geomean(&p75), "ms");
    m.set_opt("latency_tail_ms", geomean(&p90), "ms");
    for (precision, (meds, speedups)) in ["fp32", "int8"].iter().zip(&by_precision) {
        m.set_opt(format!("subgraph.exec_ms_{precision}"), geomean(meds), "ms");
        m.set_opt(
            format!("subgraph.speedup_{precision}"),
            geomean(speedups),
            "x",
        );
    }
    m.set("runtime.barriers", barriers as f64, "count");
    m.set("runtime.peak_temp_kb", peak_temp as f64 / 1024.0, "KiB");
    m.set("tir.init_ms", ms(init), "ms");
}

/// Time each compile phase through the pipeline's public stages (the
/// traced run only; `setup_s` times the whole `Compiler::compile`).
fn compile_phases(run: &mut Run, cases: &[Case]) {
    let (mut optimize, mut partition, mut lower, mut plan) = (0.0, 0.0, 0.0, 0.0);
    let opts = compile_options();
    let t = run.trace.clone();
    for (gi, c) in cases.iter().enumerate() {
        let key = gi as u32;
        let mut g = c.graph.clone();
        let t0 = Instant::now();
        pipeline::optimize_graph(&mut g, &opts).expect("optimize_graph");
        let t1 = Instant::now();
        let (parts, groups) = pipeline::partition_graph(&g, &opts).expect("partition_graph");
        let t2 = Instant::now();
        let (lowered, _) = pipeline::lower(&g, &parts, &groups, &opts).expect("lower");
        let t3 = Instant::now();
        let _plan = gc_tir::compile_module(&lowered.module, POOL_THREADS);
        let t4 = Instant::now();
        t.record(0, 0, "graph.optimize_graph", key, t0, t1);
        t.record(0, 0, "graph.partition_graph", key, t1, t2);
        t.record(0, 0, "lowering.lower", key, t2, t3);
        t.record(0, 0, "tir.compile_module", key, t3, t4);
        optimize += ms(t1 - t0);
        partition += ms(t2 - t1);
        lower += ms(t3 - t2);
        plan += ms(t4 - t3);
    }
    let m = &mut run.metrics;
    m.set("graph.optimize_ms", optimize, "ms");
    m.set("graph.partition_ms", partition, "ms");
    m.set("lowering.lower_ms", lower, "ms");
    m.set("tir.plan_compile_ms", plan, "ms");
}

/// Rebuild each plan with `compile_module` and time every main-stage
/// call through `run_plan_call`, in program order, joined with the
/// projection's per-call cycles. Weights are zero-filled (the engine's
/// folded globals are private); kernel timing does not depend on values.
fn replay_calls(run: &mut Run, cases: &[Case], prepared: &[Prepared], timed: &[Timed]) {
    let xeon = MachineDescriptor::xeon_8358();
    let pool = ThreadPool::new(POOL_THREADS);
    let trace = run.trace.clone();
    let mut table = String::new();
    for (gi, ((c, p), tm)) in cases.iter().zip(prepared).zip(timed).enumerate() {
        let module = p.compiled.executable().module();
        let plan = gc_tir::compile_module(module, POOL_THREADS);
        let mut globals: Vec<Storage> = module
            .globals
            .iter()
            .map(|g| Storage::zeros(g.dtype, g.elems))
            .collect();
        for (g, decl) in globals.iter_mut().zip(&module.globals) {
            if let GlobalKind::Input(i) = decl.kind {
                g.copy_from(c.inputs[i].storage());
            }
        }
        let mut scratch = PlanScratch::for_plan(&plan);
        let calls = &module.main_calls;
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); calls.len()];
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < 3 || (start.elapsed() < REPLAY_BUDGET && rounds < 1000) {
            let req = trace.id();
            for (ci, call) in calls.iter().enumerate() {
                let t0 = Instant::now();
                run_plan_call(
                    &plan,
                    call.func,
                    &call.args,
                    &mut globals,
                    &pool,
                    &mut scratch,
                );
                let t1 = Instant::now();
                trace.record(0, req, "run_plan_call", (gi * 100 + ci) as u32, t0, t1);
                // The first round warms caches and scratch.
                if rounds > 0 {
                    samples[ci].push((t1 - t0).as_secs_f64() * 1e6);
                }
            }
            rounds += 1;
        }
        let per_call = p.compiled.project().per_call;
        let mut sum_us = 0.0;
        for (ci, s) in samples.iter_mut().enumerate() {
            let us = median(s).expect("replay rounds ran");
            sum_us += us;
            run.metrics
                .set(format!("tir.call_us.{}.{ci}", c.name), us, "us");
            let proj_us = per_call
                .get(ci)
                .map_or(f64::NAN, |&cy| xeon.cycles_to_ms(cy) * 1e3);
            let _ = write!(
                table,
                "{}{{\"graph\":\"{}\",\"call\":{ci},\"func\":{},\"measured_us\":{},\"projected_us\":{},\"ratio\":{}}}",
                if table.is_empty() { "" } else { "," },
                c.name,
                crate::json::quote(&module.funcs[calls[ci].func].name),
                crate::json::num(us),
                crate::json::num(proj_us),
                crate::json::num(us / proj_us),
            );
        }
        if let Some(exec_ms) = median(&mut tm.compiled_ms.clone()) {
            run.metrics.set(
                format!("tir.engine_overhead_us.{}", c.name),
                exec_ms * 1e3 - sum_us,
                "us",
            );
        }
    }
    run.note("per_call_replay", format!("[{table}]"));
}

/// Time every distinct brgemm tile the eight plans emit.
fn kernel_sweep(run: &mut Run, prepared: &[Prepared]) {
    let mut all = std::collections::BTreeSet::new();
    for p in prepared {
        all.extend(tiles::emitted_tiles(p.compiled.executable().module()));
    }
    let list: Vec<Tile> = all.into_iter().collect();
    let t0 = Instant::now();
    let parent = run.trace.id();
    let timings = tiles::sweep(&list, 5, Duration::from_millis(10), &run.trace, parent);
    run.trace
        .record_as(parent, 0, 0, "kernel_sweep", 0, t0, Instant::now());
    let mut table = String::new();
    for (i, t) in timings.iter().enumerate() {
        run.metrics.set(
            format!("microkernel.vs_scalar.{}", t.tile.name()),
            t.vs_scalar(),
            "ratio",
        );
        let _ = write!(
            table,
            "{}{{\"tile\":\"{}\",\"scalar_gops\":{},\"dispatched_gops\":{}}}",
            if i == 0 { "" } else { "," },
            t.tile.name(),
            crate::json::num(t.scalar_gops),
            crate::json::num(t.dispatched_gops),
        );
    }
    for family in TileFamily::ALL {
        let worst = timings
            .iter()
            .filter(|t| t.tile.family == family)
            .map(tiles::TileTiming::vs_scalar)
            .reduce(f64::min);
        run.metrics.set_opt(
            format!("microkernel.worst_vs_scalar.{}", family.name()),
            worst,
            "ratio",
        );
    }
    run.note("kernel_sweep", format!("[{table}]"));
}
