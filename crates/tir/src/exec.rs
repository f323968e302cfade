//! The reference walker: Tensor IR executed straight from the IR.
//!
//! The original system lowers Tensor IR to LLVM IR and JITs native code.
//! This reproduction's engine executes compiled [`crate::plan`]s; this
//! module is the independent reference the differential tests compare
//! them against (`ExecMode::Interpret`, `--interpret`). It walks the
//! `Stmt` tree, evaluates every `Expr` offset directly at each visit,
//! and bounds-checks every access at run time. It shares no offset code
//! with the plan builder (no linearization, interval analysis or
//! `PlanOffset`); the kernel call itself goes through the same
//! [`crate::invoke`] layer as plans, so microkernel dispatch exists
//! once.

use crate::compile::{Lower, Reject};
use crate::expr::Expr;
use crate::invoke::{invoke, Env, RawBuf};
use crate::ir::{Call, Func, Module, Stmt};
use gc_runtime::ThreadPool;
use gc_tensor::Storage;

/// Error produced while preparing execution (dtype/shape mismatches are
/// panics, as they indicate compiler bugs, not user errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// Execute a module's init and/or main call sequences against `globals`
/// (one [`Storage`] per module global, in declaration order).
///
/// # Errors
///
/// Returns an error if `globals` disagrees with the module's
/// declarations.
///
/// # Panics
///
/// Panics on out-of-bounds accesses or dtype mismatches
/// (compiler-invariant violations).
pub fn run_module(
    module: &Module,
    globals: &mut [Storage],
    pool: &ThreadPool,
    include_init: bool,
) -> Result<(), ExecError> {
    if globals.len() != module.globals.len() {
        return Err(ExecError(format!(
            "{} globals provided, module declares {}",
            globals.len(),
            module.globals.len()
        )));
    }
    for (g, decl) in globals.iter().zip(&module.globals) {
        if g.dtype() != decl.dtype || g.len() < decl.elems {
            return Err(ExecError(format!(
                "global {}: have {} x{}, need {} x{}",
                decl.name,
                g.dtype(),
                g.len(),
                decl.dtype,
                decl.elems
            )));
        }
    }
    if include_init {
        run_calls(module, &module.init_calls, globals, pool);
    }
    run_calls(module, &module.main_calls, globals, pool);
    Ok(())
}

/// Execute a list of calls (no validation; see [`run_module`]).
///
/// # Panics
///
/// Panics on compiler-invariant violations.
pub fn run_calls(module: &Module, calls: &[Call], globals: &mut [Storage], pool: &ThreadPool) {
    for call in calls {
        run_func(&module.funcs[call.func], &call.args, globals, pool);
    }
}

fn run_func(func: &Func, args: &[usize], globals: &mut [Storage], pool: &ThreadPool) {
    // A global bound to several parameters (e.g. a residual graph
    // passing the same tensor as activation and post-op operand) yields
    // identical RawBufs, so aliasing stays confined to the
    // intrinsic-level disjointness contract.
    let mut locals: Vec<Storage> = func
        .locals
        .iter()
        .map(|d| Storage::zeros(d.dtype, d.elems))
        .collect();
    let bufs: Vec<RawBuf> = args
        .iter()
        .map(|&a| RawBuf::of(&mut globals[a], true))
        .chain(locals.iter_mut().map(|s| RawBuf::of(s, true)))
        .collect();
    let walker = Walker {
        func,
        bufs: &bufs,
        pool,
    };
    walker.stmts(&func.body, &mut vec![0; func.var_count]);
    // `locals` outlives every RawBuf built from it.
}

struct Walker<'a> {
    func: &'a Func,
    bufs: &'a [RawBuf],
    pool: &'a ThreadPool,
}

impl<'a> Walker<'a> {
    fn stmts(&self, stmts: &'a [Stmt], vars: &mut [i64]) {
        for s in stmts {
            match s {
                Stmt::For {
                    var,
                    extent,
                    parallel,
                    body,
                } => {
                    if *parallel && self.pool.threads() > 1 && *extent > 1 {
                        let proto = vars.to_vec();
                        self.pool.parallel_for(*extent, |i| {
                            let mut my_vars = proto.clone();
                            my_vars[var.0] = i as i64;
                            self.stmts(body, &mut my_vars);
                        });
                    } else {
                        for i in 0..*extent {
                            vars[var.0] = i as i64;
                            self.stmts(body, vars);
                        }
                    }
                }
                Stmt::Op(intr) => {
                    let op = RefLower(self.func)
                        .lower_intrinsic(intr)
                        .unwrap_or_else(|r| {
                            panic!("reference walker: func {}: {r}", self.func.name)
                        });
                    invoke(
                        &op,
                        &RefEnv {
                            bufs: self.bufs,
                            vars,
                        },
                    );
                }
            }
        }
    }
}

/// Lowering that keeps the IR's offset expressions as they are.
struct RefLower<'f>(&'f Func);

impl<'f> Lower<'f> for RefLower<'f> {
    type Off = &'f Expr;

    fn func(&self) -> &'f Func {
        self.0
    }

    fn offset(&mut self, offset: &'f Expr, _: usize, _: usize) -> Result<&'f Expr, Reject> {
        Ok(offset)
    }

    fn clamp_base(&mut self, base: &'f Expr) -> Result<&'f Expr, Reject> {
        Ok(base)
    }
}

/// The reference walker's [`Env`]: evaluates `Expr` offsets against the
/// current variables and checks every access.
struct RefEnv<'a> {
    bufs: &'a [RawBuf],
    vars: &'a [i64],
}

impl<'a> Env for RefEnv<'a> {
    type Off = &'a Expr;

    fn buf(&self, slot: u32) -> RawBuf {
        self.bufs[slot as usize]
    }

    fn eval(&self, off: &&'a Expr) -> i64 {
        off.eval(self.vars)
    }

    fn checked(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BufDecl, BufId, GlobalDecl, GlobalKind, Intrinsic, ReduceOp, View};
    use gc_microkernel::{BinaryOp, UnaryOp};
    use gc_tensor::DataType;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    fn mk_module(func: Func, globals: Vec<GlobalDecl>) -> Module {
        let n = func.params.len();
        let mut m = Module::new();
        let f = m.add_func(func);
        for g in globals {
            m.add_global(g);
        }
        m.main_calls.push(Call {
            func: f,
            args: (0..n).collect(),
        });
        m
    }

    fn g(dtype: DataType, elems: usize, name: &str) -> GlobalDecl {
        GlobalDecl {
            dtype,
            elems,
            kind: GlobalKind::Scratch,
            name: name.to_string(),
        }
    }

    #[test]
    fn relu_loop_executes() {
        let mut f = Func {
            name: "relu".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let v = f.fresh_var();
        f.body.push(Stmt::loop_(
            v,
            2,
            vec![Stmt::Op(Intrinsic::Unary {
                op: UnaryOp::Relu,
                src: View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(4)), 4),
                dst: View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(4)), 4),
            })],
        ));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 8, "in"), g(DataType::F32, 8, "out")],
        );
        m.validate().unwrap();
        let mut globals = vec![
            Storage::F32(vec![-1., 2., -3., 4., -5., 6., -7., 8.]),
            Storage::F32(vec![0.; 8]),
        ];
        run_module(&m, &mut globals, &pool(), true).unwrap();
        let out = globals[1].as_slice::<f32>().unwrap();
        assert_eq!(out, &[0., 2., 0., 4., 0., 6., 0., 8.]);
    }

    #[test]
    fn parallel_loop_matches_serial() {
        let build = |parallel: bool| {
            let mut f = Func {
                name: "square".into(),
                params: vec![
                    BufDecl::new(DataType::F32, 64, "in"),
                    BufDecl::new(DataType::F32, 64, "out"),
                ],
                locals: vec![],
                var_count: 0,
                body: vec![],
            };
            let v = f.fresh_var();
            f.body.push(Stmt::For {
                var: v,
                extent: 8,
                parallel,
                body: vec![Stmt::Op(Intrinsic::Unary {
                    op: UnaryOp::Square,
                    src: View::new(BufId::Param(0), Expr::v(v).mul(Expr::c(8)), 8),
                    dst: View::new(BufId::Param(1), Expr::v(v).mul(Expr::c(8)), 8),
                })],
            });
            mk_module(
                f,
                vec![g(DataType::F32, 64, "in"), g(DataType::F32, 64, "out")],
            )
        };
        let input: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        let run = |m: &Module| {
            let mut globals = vec![Storage::F32(input.clone()), Storage::F32(vec![0.; 64])];
            run_module(m, &mut globals, &pool(), true).unwrap();
            globals[1].as_slice::<f32>().unwrap().to_vec()
        };
        assert_eq!(run(&build(false)), run(&build(true)));
    }

    #[test]
    fn brgemm_intrinsic_matches_reference() {
        use gc_tensor::{reference, Tensor};
        // single-tile matmul: A[4,8] x B[8,4]
        let a = Tensor::random(&[4, 8], DataType::F32, 1);
        let bt = Tensor::random(&[4, 8], DataType::F32, 2); // [n][k] panels
        let mut f = Func {
            name: "mm".into(),
            params: vec![
                BufDecl::new(DataType::F32, 32, "a"),
                BufDecl::new(DataType::F32, 32, "b"),
                BufDecl::new(DataType::F32, 16, "c"),
            ],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::FillF32 {
            dst: View::new(BufId::Param(2), 0usize, 16),
            value: 0.0,
        }));
        f.body.push(Stmt::Op(Intrinsic::BrgemmF32 {
            a: View::new(BufId::Param(0), 0usize, 32),
            a_stride: 0,
            b: View::new(BufId::Param(1), 0usize, 32),
            b_stride: 0,
            c: View::new(BufId::Param(2), 0usize, 16),
            m: 4,
            n: 4,
            k: 8,
            batch: 1,
        }));
        let m = mk_module(
            f,
            vec![
                g(DataType::F32, 32, "a"),
                g(DataType::F32, 32, "b"),
                g(DataType::F32, 16, "c"),
            ],
        );
        let mut globals = vec![
            Storage::F32(a.f32_slice().unwrap().to_vec()),
            Storage::F32(bt.f32_slice().unwrap().to_vec()),
            Storage::F32(vec![0.; 16]),
        ];
        run_module(&m, &mut globals, &pool(), true).unwrap();
        // reference: B = bt transposed
        let b_plain = gc_tensor::reorder::transpose_last2(&bt).unwrap();
        let want = reference::matmul_f32(&a, &b_plain).unwrap();
        let got = globals[2].as_slice::<f32>().unwrap();
        for (x, y) in got.iter().zip(want.f32_slice().unwrap()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn pack_unpack_round_trip_with_transpose() {
        // pack a transposed 3x5 -> 5x3 tile and unpack it back
        let mut f = Func {
            name: "t".into(),
            params: vec![
                BufDecl::new(DataType::F32, 15, "in"),
                BufDecl::new(DataType::F32, 15, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 15, "tile")],
            var_count: 0,
            body: vec![],
        };
        // transpose: dst[r,c] = src[c*5 + r] -> row stride 1, col stride 5
        f.body.push(Stmt::Op(Intrinsic::Pack2D {
            src: BufId::Param(0),
            src_offset: Expr::c(0),
            src_row_stride: 1,
            src_col_stride: 5,
            dst: View::new(BufId::Local(0), 0usize, 15),
            rows: 5,
            cols: 3,
        }));
        // unpack transposing again restores original
        f.body.push(Stmt::Op(Intrinsic::Unpack2D {
            src: View::new(BufId::Local(0), 0usize, 15),
            dst: BufId::Param(1),
            dst_offset: Expr::c(0),
            dst_row_stride: 1,
            dst_col_stride: 5,
            rows: 5,
            cols: 3,
        }));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 15, "in"), g(DataType::F32, 15, "out")],
        );
        let input: Vec<f32> = (0..15).map(|x| x as f32).collect();
        let mut globals = vec![Storage::F32(input.clone()), Storage::F32(vec![0.; 15])];
        run_module(&m, &mut globals, &pool(), true).unwrap();
        assert_eq!(globals[1].as_slice::<f32>().unwrap(), input.as_slice());
    }

    #[test]
    fn reduce_rows_and_col_broadcast_make_softmax_rows() {
        // one 2x4 tile: exp, row sums, divide -> rows sum to 1
        let mut f = Func {
            name: "sm".into(),
            params: vec![
                BufDecl::new(DataType::F32, 8, "in"),
                BufDecl::new(DataType::F32, 8, "out"),
            ],
            locals: vec![BufDecl::new(DataType::F32, 2, "sums")],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::Unary {
            op: UnaryOp::Exp,
            src: View::new(BufId::Param(0), 0usize, 8),
            dst: View::new(BufId::Param(1), 0usize, 8),
        }));
        f.body.push(Stmt::Op(Intrinsic::ReduceRows {
            op: ReduceOp::Sum,
            src: View::new(BufId::Param(1), 0usize, 8),
            acc: View::new(BufId::Local(0), 0usize, 2),
            rows: 2,
            cols: 4,
            accumulate: false,
        }));
        f.body.push(Stmt::Op(Intrinsic::BinaryColBcast {
            op: BinaryOp::Div,
            a: View::new(BufId::Param(1), 0usize, 8),
            b: View::new(BufId::Local(0), 0usize, 2),
            dst: View::new(BufId::Param(1), 0usize, 8),
            rows: 2,
            cols: 4,
        }));
        let m = mk_module(
            f,
            vec![g(DataType::F32, 8, "in"), g(DataType::F32, 8, "out")],
        );
        let mut globals = vec![
            Storage::F32(vec![0.1, 0.2, 0.3, 0.4, -1.0, 0.0, 1.0, 2.0]),
            Storage::F32(vec![0.; 8]),
        ];
        run_module(&m, &mut globals, &pool(), true).unwrap();
        let out = globals[1].as_slice::<f32>().unwrap();
        for row in out.chunks_exact(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn int8_pipeline_brgemm_plus_epilogue() {
        use gc_tensor::QuantParams;
        // A[1,4] u8, B[4,2] i8 as [n][k] panels, comp, dequant
        let a = vec![1u8, 2, 3, 4];
        let b_panels = vec![1i8, 1, 1, 1, -1, -1, -1, -1]; // n0 = ones, n1 = -ones
        let comp: Vec<i32> = vec![4, -4];
        let mut f = Func {
            name: "q".into(),
            params: vec![
                BufDecl::new(DataType::U8, 4, "a"),
                BufDecl::new(DataType::I8, 8, "b"),
                BufDecl::new(DataType::I32, 2, "comp"),
                BufDecl::new(DataType::F32, 2, "out"),
            ],
            locals: vec![BufDecl::new(DataType::I32, 2, "acc")],
            var_count: 0,
            body: vec![],
        };
        f.body.push(Stmt::Op(Intrinsic::ZeroI32 {
            dst: View::new(BufId::Local(0), 0usize, 2),
        }));
        f.body.push(Stmt::Op(Intrinsic::BrgemmU8I8 {
            a: View::new(BufId::Param(0), 0usize, 4),
            a_stride: 0,
            b: View::new(BufId::Param(1), 0usize, 8),
            b_stride: 0,
            c: View::new(BufId::Local(0), 0usize, 2),
            m: 1,
            n: 2,
            k: 4,
            batch: 1,
        }));
        f.body.push(Stmt::Op(Intrinsic::DequantAcc {
            acc: View::new(BufId::Local(0), 0usize, 2),
            comp: View::new(BufId::Param(2), 0usize, 2),
            a_zero: 1,
            scale: 0.5,
            bias: None,
            dst: View::new(BufId::Param(3), 0usize, 2),
            rows: 1,
            cols: 2,
        }));
        let m = mk_module(
            f,
            vec![
                g(DataType::U8, 4, "a"),
                g(DataType::I8, 8, "b"),
                g(DataType::I32, 2, "comp"),
                g(DataType::F32, 2, "out"),
            ],
        );
        let mut globals = vec![
            Storage::U8(a.clone()),
            Storage::I8(b_panels),
            Storage::I32(comp),
            Storage::F32(vec![0.; 2]),
        ];
        run_module(&m, &mut globals, &pool(), true).unwrap();
        let out = globals[3].as_slice::<f32>().unwrap();
        // acc = [10, -10]; corrected = acc - 1*comp = [6, -6]; * 0.5
        assert_eq!(out, &[3.0, -3.0]);
        // reference check via quant module
        let p = QuantParams::new(0.5, 1);
        let real: f32 = a
            .iter()
            .map(|&q| gc_tensor::quant::dequantize_u8(q, QuantParams::new(1.0, 1)))
            .sum();
        let _ = (real, p);
    }

    #[test]
    fn module_global_mismatch_errors() {
        let f = Func {
            name: "f".into(),
            params: vec![BufDecl::new(DataType::F32, 4, "x")],
            locals: vec![],
            var_count: 0,
            body: vec![],
        };
        let m = mk_module(f, vec![g(DataType::F32, 4, "x")]);
        let mut wrong = vec![Storage::I8(vec![0; 4])];
        assert!(run_module(&m, &mut wrong, &pool(), true).is_err());
        let mut short = vec![Storage::F32(vec![0.; 2])];
        assert!(run_module(&m, &mut short, &pool(), true).is_err());
    }
}
