//! The brgemm tiles compiled plans actually emit, and a sweep timing
//! each of them on the scalar backend and on the dispatched ISA.
//!
//! The tile list comes from walking the lowered module, never from a
//! hand-picked shape list: a kernel that is only slow at the shapes
//! real plans use is exactly what a hand-picked sweep misses.

use crate::stats::median;
use crate::trace::Trace;
use gc_microkernel::arch::{self, Isa, Kernels};
use gc_tensor::{DataType, Tensor};
use gc_tir::{Intrinsic, Module};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Kernel family of a brgemm tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TileFamily {
    F32,
    U8I8,
    TailF32,
    TailU8I8,
}

impl TileFamily {
    pub const ALL: [TileFamily; 4] = [
        TileFamily::F32,
        TileFamily::U8I8,
        TileFamily::TailF32,
        TileFamily::TailU8I8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            TileFamily::F32 => "f32",
            TileFamily::U8I8 => "u8i8",
            TileFamily::TailF32 => "tail_f32",
            TileFamily::TailU8I8 => "tail_u8i8",
        }
    }

    fn is_int8(self) -> bool {
        matches!(self, TileFamily::U8I8 | TileFamily::TailU8I8)
    }
}

/// One brgemm call shape: `bs` products of `[m,k] x [k,n]` into `[m,n]`.
/// A tail tile is recorded at its edge height — the rows the kernel
/// computes on the last, partial block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    pub family: TileFamily,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub bs: usize,
}

impl Tile {
    /// `<family>.<m>x<n>x<k>x<bs>`, the metric-name suffix.
    pub fn name(&self) -> String {
        format!(
            "{}.{}x{}x{}x{}",
            self.family.name(),
            self.m,
            self.n,
            self.k,
            self.bs
        )
    }

    /// Multiply-adds times two per brgemm call.
    fn ops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k * self.bs) as f64
    }
}

/// Every distinct brgemm tile in any function of `module`.
pub fn emitted_tiles(module: &Module) -> BTreeSet<Tile> {
    let mut tiles = BTreeSet::new();
    for func in &module.funcs {
        gc_tir::visit::visit_intrinsics(&func.body, &mut |i| {
            let tile = |family, m: usize, n, k, bs| Tile {
                family,
                m,
                n,
                k,
                bs,
            };
            let edge = |m: usize, logical: usize| match logical % m {
                0 => m,
                rows => rows,
            };
            let t = match *i {
                Intrinsic::BrgemmF32 { m, n, k, batch, .. } => {
                    tile(TileFamily::F32, m, n, k, batch)
                }
                Intrinsic::BrgemmU8I8 { m, n, k, batch, .. } => {
                    tile(TileFamily::U8I8, m, n, k, batch)
                }
                Intrinsic::BrgemmF32Tail {
                    m,
                    n,
                    k,
                    batch,
                    ref m_clamp,
                    ..
                } => tile(TileFamily::TailF32, edge(m, m_clamp.logical), n, k, batch),
                Intrinsic::BrgemmU8I8Tail {
                    m,
                    n,
                    k,
                    batch,
                    ref m_clamp,
                    ..
                } => tile(TileFamily::TailU8I8, edge(m, m_clamp.logical), n, k, batch),
                _ => return,
            };
            tiles.insert(t);
        });
    }
    tiles
}

/// Measured throughput of one tile on two backends.
#[derive(Debug, Clone)]
pub struct TileTiming {
    pub tile: Tile,
    pub scalar_gops: f64,
    pub dispatched_gops: f64,
}

impl TileTiming {
    /// Dispatched-ISA throughput over scalar throughput.
    pub fn vs_scalar(&self) -> f64 {
        self.dispatched_gops / self.scalar_gops
    }
}

/// Operand buffers for `bs` tile pairs, filled like the workloads'
/// tensors (f32 in [-1, 1), u8 activations, i8 weights).
enum Operands {
    F32 {
        a: Vec<f32>,
        b: Vec<f32>,
        c: Vec<f32>,
    },
    Int8 {
        a: Vec<u8>,
        b: Vec<i8>,
        c: Vec<i32>,
    },
}

impl Operands {
    fn new(t: &Tile, seed: u64) -> Operands {
        let (a_len, b_len) = (t.bs * t.m * t.k, t.bs * t.n * t.k);
        if t.family.is_int8() {
            let a = Tensor::random(&[a_len], DataType::U8, seed);
            let b = Tensor::random(&[b_len], DataType::I8, seed + 1);
            Operands::Int8 {
                a: a.u8_slice().expect("u8 tensor").to_vec(),
                b: b.i8_slice().expect("i8 tensor").to_vec(),
                c: vec![0; t.m * t.n],
            }
        } else {
            let a = Tensor::random(&[a_len], DataType::F32, seed);
            let b = Tensor::random(&[b_len], DataType::F32, seed + 1);
            Operands::F32 {
                a: a.f32_slice().expect("f32 tensor").to_vec(),
                b: b.f32_slice().expect("f32 tensor").to_vec(),
                c: vec![0.0; t.m * t.n],
            }
        }
    }

    /// One brgemm call: zero C, then accumulate the `bs` tile products
    /// through `kernels`, as the compiled code does per k-loop.
    fn brgemm(&mut self, t: &Tile, kernels: Kernels) {
        let (mk, nk) = (t.m * t.k, t.n * t.k);
        match self {
            Operands::F32 { a, b, c } => {
                c.fill(0.0);
                for i in 0..t.bs {
                    kernels.gemm_f32(t.m, t.n, t.k, &a[i * mk..], &b[i * nk..], c);
                }
            }
            Operands::Int8 { a, b, c } => {
                c.fill(0);
                for i in 0..t.bs {
                    kernels.gemm_u8i8(t.m, t.n, t.k, &a[i * mk..], &b[i * nk..], c);
                }
            }
        }
    }
}

/// Time every tile on scalar and on the dispatched ISA
/// ([`arch::active_isa`]), alternating the two over `trials` trials of
/// about `trial` each, and keep each side's median throughput. Each
/// trial is recorded as a `kernel` span keyed by the tile's index in
/// `tiles`.
pub fn sweep(
    tiles: &[Tile],
    trials: usize,
    trial: Duration,
    trace: &Trace,
    parent: u64,
) -> Vec<TileTiming> {
    let scalar = arch::kernels(Isa::Scalar);
    let dispatched = arch::kernels(arch::active_isa());
    tiles
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let mut ops = Operands::new(t, 0x5eed + idx as u64);
            // Calibrate a call count that fills one trial on scalar.
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed() < trial / 4 {
                ops.brgemm(t, scalar);
                calls += 1;
            }
            let calls = calls * 4;
            let mut gops = |kernels: Kernels| {
                let start = Instant::now();
                for _ in 0..calls {
                    ops.brgemm(t, kernels);
                }
                let end = Instant::now();
                trace.record(parent, 0, "kernel", idx as u32, start, end);
                t.ops() * calls as f64 / (end - start).as_secs_f64() / 1e9
            };
            let (mut s, mut d) = (Vec::new(), Vec::new());
            for _ in 0..trials {
                s.push(gops(scalar));
                d.push(gops(dispatched));
            }
            TileTiming {
                tile: *t,
                scalar_gops: median(&mut s).expect("at least one trial"),
                dispatched_gops: median(&mut d).expect("at least one trial"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_bench::workloads;
    use gc_core::Compiler;

    fn tiles_of(graph: gc_graph::Graph) -> BTreeSet<Tile> {
        let compiled = Compiler::new(crate::compile_options())
            .compile(graph)
            .expect("compile");
        emitted_tiles(compiled.executable().module())
    }

    #[test]
    fn mlp1_int8_b32_emits_the_narrow_k_vnni_tile() {
        let tiles = tiles_of(workloads::mlp_int8(32, &workloads::mlp1_layers(), 1));
        let names: Vec<String> = tiles.iter().map(Tile::name).collect();
        assert!(
            names.iter().any(|n| n == "u8i8.16x16x32x8"),
            "MLP_1 int8 b32 tiles: {names:?}"
        );
        assert!(tiles.iter().all(|t| t.family.is_int8()));
    }

    #[test]
    fn mlp1_f32_emits_only_f32_tiles() {
        let tiles = tiles_of(workloads::mlp_f32(32, &workloads::mlp1_layers(), 1));
        assert!(!tiles.is_empty());
        assert!(tiles.iter().all(|t| t.family == TileFamily::F32));
    }

    #[test]
    fn sweep_reports_positive_throughput_on_both_backends() {
        let tile = Tile {
            family: TileFamily::U8I8,
            m: 4,
            n: 8,
            k: 16,
            bs: 2,
        };
        let trace = Trace::new(true);
        let t = sweep(&[tile], 1, Duration::from_millis(2), &trace, 0);
        assert_eq!(t.len(), 1);
        assert!(t[0].scalar_gops > 0.0 && t[0].dispatched_gops > 0.0);
        assert_eq!(trace.spans().len(), 2);
    }
}
