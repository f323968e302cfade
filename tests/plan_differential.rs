//! Differential tests: compiled execution plans vs the tree-walking
//! interpreter (`CompileOptions::interpret`) on the paper's Table-1
//! workloads. The plan path must agree bit-for-bit on the int8 pipeline
//! and to 1e-5 on f32.

use gc_bench::workloads;
use gc_core::{CompileOptions, CompiledPartition, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;
use gc_tensor::{Storage, Tensor};

fn compile(graph: Graph, threads: usize, interpret: bool) -> CompiledPartition {
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(threads);
    opts.interpret = interpret;
    Compiler::new(opts).compile(graph).expect("compile")
}

fn random_inputs_for(p: &CompiledPartition, seed: u64) -> Vec<Tensor> {
    p.input_descs()
        .iter()
        .enumerate()
        .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), seed + i as u64))
        .collect()
}

/// Run `build()`'s graph through both execution modes (twice each, to
/// cover the init-cached steady state) and compare every output.
/// `tol == 0.0` demands bitwise identity.
fn differential(build: impl Fn() -> Graph, threads: usize, tol: f32) {
    let compiled = compile(build(), threads, false);
    let interp = compile(build(), threads, true);

    let stats = compiled.executable().plan_stats();
    assert!(
        stats.compiled_funcs > 0,
        "workload must exercise the plan path, got {stats:?}"
    );
    assert!(stats.hoisted_bounds > 0, "no bounds hoisted: {stats:?}");

    let inputs = random_inputs_for(&compiled, 7);
    for round in 0..2 {
        let (got, _) = compiled.execute(&inputs).expect("plan execute");
        let (want, _) = interp.execute(&inputs).expect("interp execute");
        assert_eq!(got.len(), want.len());
        for (oi, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            match (g.storage(), w.storage()) {
                (Storage::F32(g), Storage::F32(w)) => {
                    assert_eq!(g.len(), w.len());
                    for (ei, (&x, &y)) in g.iter().zip(w.iter()).enumerate() {
                        if tol == 0.0 {
                            assert!(
                                x.to_bits() == y.to_bits(),
                                "round {round} out {oi}[{ei}]: {x:?} != {y:?} (bitwise)"
                            );
                        } else {
                            assert!(
                                (x - y).abs() <= tol * (1.0 + y.abs()),
                                "round {round} out {oi}[{ei}]: {x} vs {y}"
                            );
                        }
                    }
                }
                // integer / quantized outputs must always be identical
                (Storage::U8(g), Storage::U8(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (Storage::I8(g), Storage::I8(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (Storage::I32(g), Storage::I32(w)) => assert_eq!(g, w, "round {round} out {oi}"),
                (g, w) => panic!("round {round} out {oi}: dtype mismatch {g:?} vs {w:?}"),
            }
        }
    }
}

#[test]
fn mlp_f32_single_thread() {
    differential(
        || workloads::mlp_f32(16, &workloads::mlp1_layers(), 3),
        1,
        1e-5,
    );
}

#[test]
fn mlp_f32_multi_thread() {
    differential(
        || workloads::mlp_f32(32, &workloads::mlp1_layers(), 4),
        4,
        1e-5,
    );
}

#[test]
fn mlp2_f32_multi_thread() {
    differential(
        || workloads::mlp_f32(16, &workloads::mlp2_layers(), 5),
        2,
        1e-5,
    );
}

#[test]
fn mlp_int8_bit_identical_single_thread() {
    differential(
        || workloads::mlp_int8(16, &workloads::mlp1_layers(), 6),
        1,
        0.0,
    );
}

#[test]
fn mlp_int8_bit_identical_multi_thread() {
    differential(
        || workloads::mlp_int8(32, &workloads::mlp1_layers(), 7),
        4,
        0.0,
    );
}

#[test]
fn mha_f32_multi_thread() {
    differential(
        || workloads::mha_f32(2, &workloads::mha_configs()[0]).0,
        4,
        1e-5,
    );
}

/// The interpreter mode must actually bypass the plan (guards against
/// the reference path silently becoming the thing under test).
#[test]
fn interpret_mode_is_reported() {
    let g = workloads::mlp_f32(8, &workloads::mlp1_layers(), 8);
    let p = compile(g, 1, true);
    assert_eq!(p.executable().mode(), gc_tir::ExecMode::Interpret);
    let g = workloads::mlp_f32(8, &workloads::mlp1_layers(), 8);
    let p = compile(g, 1, false);
    assert_eq!(p.executable().mode(), gc_tir::ExecMode::Compiled);
}

/// Fold `graph`'s init stage on one executor and return the globals it
/// leaves behind (read back through a private init cache), plus the
/// compile report.
fn folded_globals(
    graph: Graph,
    interpret: bool,
) -> (std::sync::Arc<Vec<Storage>>, gc_core::CompileReport) {
    use std::sync::Arc;
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(2);
    opts.interpret = interpret;
    let arts = Compiler::new(opts)
        .compile_artifacts(graph, Arc::new(gc_runtime::ThreadPool::new(2)))
        .expect("compile");
    assert!(
        !arts.exe.module().init_calls.is_empty(),
        "graph must have an init stage"
    );
    let cache = Arc::new(gc_tir::InitCache::new());
    let exe = arts.exe.with_init_cache(Arc::clone(&cache), 0);
    let inputs: Vec<Tensor> = arts
        .input_descs
        .iter()
        .enumerate()
        .map(|(i, d)| Tensor::random(d.shape(), d.dtype(), 11 + i as u64))
        .collect();
    exe.execute(&inputs).expect("execute");
    assert_eq!(cache.compute_count(), 1);
    let folded = cache.get_or_init(0, || unreachable!("init stage already ran"));
    (folded, arts.report)
}

/// The init stage runs on compiled plans: the globals it folds (packed
/// weights, compensations) must equal the reference walker's bit for bit.
fn init_parity(build: impl Fn() -> Graph) -> gc_core::CompileReport {
    let (plan, report) = folded_globals(build(), false);
    let (reference, _) = folded_globals(build(), true);
    assert_eq!(plan.len(), reference.len());
    for (gi, (p, r)) in plan.iter().zip(reference.iter()).enumerate() {
        assert_eq!(p.dtype(), r.dtype(), "global {gi}");
        assert_eq!(p.len(), r.len(), "global {gi}");
        for i in 0..p.len() {
            assert_eq!(
                p.get_as_f64(i).to_bits(),
                r.get_as_f64(i).to_bits(),
                "global {gi}[{i}]"
            );
        }
    }
    report
}

#[test]
fn init_stage_plan_matches_reference_int8_mlp1() {
    init_parity(|| workloads::mlp_int8(16, &workloads::mlp1_layers(), 9));
}

#[test]
fn init_stage_plan_matches_reference_ragged() {
    // k = 479 (prime) and n = 65: weight packing pads ragged edge tiles
    let report = init_parity(|| {
        let mut g = Graph::new();
        let x = g.add_input(
            gc_tensor::TensorDesc::new([17, 479], gc_tensor::DataType::F32),
            "x",
        );
        let w = g.add_constant(
            Tensor::random(&[479, 65], gc_tensor::DataType::F32, 12),
            "w",
        );
        let y = g.add_op(gc_graph::OpKind::MatMul, &[x, w]).unwrap();
        g.mark_output(y);
        g
    });
    assert!(report.ragged_partitions > 0, "{report:?}");
}
