//! Compiled execution plans vs the reference walker (`--interpret`) on
//! the Table-1 MLP workloads (f32 and int8), single- and multi-threaded.
//! This is the benchmark backing the plan layer's reason to exist: the
//! steady-state speedup from killing per-iteration interpretation
//! overhead (offset re-evaluation, intrinsic lowering and brgemm table
//! rebuilds, run-time bounds checks, per-iteration variable cloning).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_bench::workloads::{self, random_inputs};
use gc_core::{CompileOptions, Compiler};
use gc_graph::Graph;
use gc_machine::MachineDescriptor;

fn compile(graph: Graph, threads: usize, interpret: bool) -> gc_core::CompiledPartition {
    let mut opts = CompileOptions::new(MachineDescriptor::xeon_8358());
    opts.threads = Some(threads);
    opts.interpret = interpret;
    Compiler::new(opts).compile(graph).expect("compile")
}

fn bench_plan_vs_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_vs_interp");
    group.sample_size(10);

    type Case = (&'static str, Box<dyn Fn() -> Graph>);
    let cases: Vec<Case> = vec![
        // latency regime: tiny tiles, interpretation overhead dominates
        (
            "MLP_1-b1-fp32",
            Box::new(|| workloads::mlp_f32(1, &workloads::mlp1_layers(), 1)),
        ),
        (
            "MLP_1-b4-fp32",
            Box::new(|| workloads::mlp_f32(4, &workloads::mlp1_layers(), 1)),
        ),
        (
            "MLP_1-b4-int8",
            Box::new(|| workloads::mlp_int8(4, &workloads::mlp1_layers(), 1)),
        ),
        // throughput regime: compute-bound, plans should at least not hurt
        (
            "MLP_1-b32-fp32",
            Box::new(|| workloads::mlp_f32(32, &workloads::mlp1_layers(), 1)),
        ),
        (
            "MLP_1-b128-fp32",
            Box::new(|| workloads::mlp_f32(128, &workloads::mlp1_layers(), 1)),
        ),
        (
            "MLP_1-b128-int8",
            Box::new(|| workloads::mlp_int8(128, &workloads::mlp1_layers(), 1)),
        ),
        (
            "MLP_2-b32-fp32",
            Box::new(|| workloads::mlp_f32(32, &workloads::mlp2_layers(), 1)),
        ),
    ];

    for (label, build) in &cases {
        let inputs = random_inputs(&build(), 3);
        for threads in [1usize, 4] {
            for (mode, interpret) in [("plan", false), ("interp", true)] {
                let exe = compile(build(), threads, interpret);
                exe.execute(&inputs).expect("warm-up"); // run init stage once
                group.bench_with_input(
                    BenchmarkId::new(format!("{label}-t{threads}"), mode),
                    &exe,
                    |b, exe| {
                        b.iter(|| exe.execute(&inputs).expect("exec"));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_plan_vs_interp);
criterion_main!(benches);
