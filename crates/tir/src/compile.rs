//! Plan compilation: Tensor IR functions → flat execution plans.
//!
//! [`compile_module`] lowers every function of a [`Module`] into the
//! [`crate::plan`] representation, performing at build time the work the
//! reference walker repeats per iteration:
//!
//! - **offset strength reduction** — every [`Expr`] offset is reduced to
//!   `base + Σ stride_v · var_v` when affine, or a flat postfix program
//!   when it contains `div`/`rem`;
//! - **bounds hoisting** — interval analysis over loop extents proves
//!   each view access in bounds for *all* iterations, so the compiled
//!   path does no per-access checking;
//! - **brgemm table precomputation** — batch-offset tables depend only
//!   on static strides, so they are materialized once per op;
//! - **grain selection** — each parallel loop stores the chunk size the
//!   pool should dispatch, computed from the thread count;
//! - **dispatch-worthiness** — a parallel loop whose *total* work (from
//!   the static shapes of every op it encloses) is smaller than the cost
//!   of waking the pool is demoted to a serial loop. The reference walker
//!   discovers loop bodies one iteration at a time and cannot make this
//!   call.
//!
//! The same intrinsic lowering (`Lower::lower_intrinsic`) also feeds
//! the reference walker, which keeps the IR's `Expr` offsets instead of
//! compiling them; the two executors differ only in the offset path.

use crate::expr::{Expr, VarId};
use crate::ir::{BufId, Func, Intrinsic, Module, Stmt, View};
use crate::plan::{
    OffsetOp, PInstr, POp, PView, Plan, PlanFunc, PlanOffset, PlanStats, MAX_PROG_STACK, MAX_VARS,
};
use gc_microkernel::brgemm::BrgemmShape;
use gc_tensor::DataType;

/// Compile every function of `module`; `threads` sizes parallel-loop
/// grains (pass the executing pool's thread count).
///
/// Compilation is total on validator-clean modules: every module that
/// passes [`crate::validate_module`] compiles, and `gc_lowering`
/// validates every module it produces.
///
/// # Panics
///
/// Panics if a function is not validator-clean (the validator reports
/// the same reason as an error).
pub fn compile_module(module: &Module, threads: usize) -> Plan {
    let mut stats = PlanStats::default();
    let funcs = module
        .funcs
        .iter()
        .map(|f| {
            let (pf, fs) = FuncBuilder::new(f, threads.max(1))
                .build()
                .unwrap_or_else(|r| panic!("compile_module: func {}: {r}", f.name));
            stats.compiled_funcs += 1;
            stats.hoisted_bounds += fs.hoisted_bounds;
            stats.linear_offsets += fs.linear_offsets;
            stats.program_offsets += fs.program_offsets;
            stats.serialized_loops += fs.serialized_loops;
            pf
        })
        .collect();
    Plan { funcs, stats }
}

/// Why the plan builder cannot compile a function. The validator turns
/// every reason into an error, so a validator-clean module never hits
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reject {
    /// More scalar variables than the fixed scratch holds.
    TooManyVars,
    /// An offset's range could not be bounded (or overflowed i64).
    Unbounded,
    /// A proven-possible out-of-range access (negative offset or
    /// overrun).
    OutOfBounds,
    /// Buffer dtype disagrees with the intrinsic's access type.
    DtypeMismatch,
    /// A postfix offset program exceeded the fixed stack.
    ProgramTooDeep,
    /// Operand lengths disagree (e.g. unary src/dst).
    LenMismatch,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Reject::TooManyVars => "uses more loop variables than a plan holds (MAX_VARS)",
            Reject::Unbounded => "an offset cannot be bounded over its loop ranges",
            Reject::OutOfBounds => "plan builder proves an out-of-bounds access",
            Reject::DtypeMismatch => "buffer dtype disagrees with an intrinsic's access type",
            Reject::ProgramTooDeep => {
                "an offset nests deeper than the plan's evaluation stack (MAX_PROG_STACK)"
            }
            Reject::LenMismatch => "intrinsic operand lengths disagree",
        })
    }
}

struct FuncStats {
    hoisted_bounds: usize,
    linear_offsets: usize,
    program_offsets: usize,
    serialized_loops: usize,
}

/// Minimum total work (in [`pop_units`]) a parallel loop must enclose
/// for pool dispatch to pay for itself. Below this, waking worker
/// threads and the closing barrier cost more than the loop body — the
/// loop is emitted serial. Calibrated against the pool's wake+barrier
/// latency (tens of microseconds) at roughly one unit per element-op.
const PARALLEL_MIN_UNITS: u64 = 1 << 18;

struct FuncBuilder<'f> {
    func: &'f Func,
    threads: usize,
    /// Current inclusive interval of each variable at the emission
    /// point, maintained scope-wise: `[0, 0]` before any binding (the
    /// scratch is zeroed), `[0, extent-1]` inside a binding loop,
    /// pinned to `[extent-1, extent-1]` after a serial loop, and the
    /// hull of both after a parallel loop (whose serial fallback — one
    /// thread or trip count 1 — mutates the variable, while the
    /// dispatched form does not).
    var_iv: Vec<(i64, i64)>,
    stats: FuncStats,
}

impl<'f> FuncBuilder<'f> {
    fn new(func: &'f Func, threads: usize) -> Self {
        FuncBuilder {
            func,
            threads,
            var_iv: vec![(0, 0); func.var_count],
            stats: FuncStats {
                hoisted_bounds: 0,
                linear_offsets: 0,
                program_offsets: 0,
                serialized_loops: 0,
            },
        }
    }

    fn build(mut self) -> Result<(PlanFunc, FuncStats), Reject> {
        if self.func.var_count > MAX_VARS {
            return Err(Reject::TooManyVars);
        }
        let mut instrs = Vec::new();
        self.emit_stmts(&self.func.body, &mut instrs)?;
        Ok((
            PlanFunc {
                instrs: instrs.into_boxed_slice(),
                n_params: self.func.params.len(),
                locals: self
                    .func
                    .locals
                    .iter()
                    .map(|d| (d.dtype, d.elems))
                    .collect(),
            },
            self.stats,
        ))
    }

    fn emit_stmts(&mut self, stmts: &'f [Stmt], out: &mut Vec<PInstr>) -> Result<(), Reject> {
        for s in stmts {
            match s {
                Stmt::For {
                    var,
                    extent,
                    parallel,
                    body,
                } => {
                    let header = out.len();
                    // Placeholder patched once the body length is known.
                    out.push(PInstr::For {
                        var: var.0 as u32,
                        extent: *extent,
                        body_end: 0,
                    });
                    let saved = self.var_iv[var.0];
                    let last = *extent as i64 - 1;
                    self.var_iv[var.0] = (0, last.max(0));
                    self.emit_stmts(body, out)?;
                    self.var_iv[var.0] = if *extent == 0 {
                        saved // zero-trip loop never touches the var
                    } else if *parallel {
                        // dispatched: untouched; serial fallback: last
                        (saved.0.min(last), saved.1.max(last))
                    } else {
                        (last, last)
                    };
                    let body_end = out.len();
                    let dispatch = *parallel
                        && self.threads > 1
                        && *extent as u64 * range_units(out, header + 1, body_end)
                            >= PARALLEL_MIN_UNITS;
                    if *parallel && !dispatch {
                        self.stats.serialized_loops += 1;
                    }
                    out[header] = if dispatch {
                        PInstr::ParFor {
                            var: var.0 as u32,
                            extent: *extent,
                            body_end,
                            grain: (*extent / (self.threads * 4)).max(1),
                        }
                    } else {
                        PInstr::For {
                            var: var.0 as u32,
                            extent: *extent,
                            body_end,
                        }
                    };
                }
                Stmt::Op(intr) => {
                    let pop = self.lower_intrinsic(intr)?;
                    out.push(PInstr::Op(pop));
                }
            }
        }
        Ok(())
    }

    /// Strength-reduce an already-bounded expression to a
    /// [`PlanOffset`].
    fn reduce_offset(&mut self, offset: &Expr) -> Result<PlanOffset, Reject> {
        let compiled = match linearize(offset) {
            Some((base, terms)) => {
                self.stats.linear_offsets += 1;
                if terms.is_empty() {
                    PlanOffset::Const(base)
                } else {
                    PlanOffset::Linear {
                        base,
                        terms: terms.into_boxed_slice(),
                    }
                }
            }
            None => {
                let mut ops = Vec::new();
                let depth = emit_program(offset, &mut ops)?;
                debug_assert_eq!(depth, 1);
                self.stats.program_offsets += 1;
                PlanOffset::Program(ops.into_boxed_slice())
            }
        };
        Ok(compiled)
    }
}

impl<'f> Lower<'f> for FuncBuilder<'f> {
    type Off = PlanOffset;

    fn func(&self) -> &'f Func {
        self.func
    }

    /// Compile an offset expression and prove `0 <= offset` and
    /// `offset + span <= elems` for all iterations.
    fn offset(
        &mut self,
        offset: &'f Expr,
        span: usize,
        elems: usize,
    ) -> Result<PlanOffset, Reject> {
        let (lo, hi) = interval(offset, &self.var_iv).ok_or(Reject::Unbounded)?;
        if lo < 0 || (hi as i128) + (span as i128) > elems as i128 {
            return Err(Reject::OutOfBounds);
        }
        self.stats.hoisted_bounds += 1;
        self.reduce_offset(offset)
    }

    /// Compile an axis-clamp base expression. The only static
    /// requirement is non-negativity: the upper side is enforced by the
    /// runtime clamp against the logical extent, and the buffer span is
    /// proven separately from the base-excluded offset.
    fn clamp_base(&mut self, base: &'f Expr) -> Result<PlanOffset, Reject> {
        let (lo, _) = interval(base, &self.var_iv).ok_or(Reject::Unbounded)?;
        if lo < 0 {
            return Err(Reject::OutOfBounds);
        }
        self.reduce_offset(base)
    }
}

/// Intrinsic lowering shared by both executors: resolves buffers to flat
/// slots, checks dtypes and operand lengths, precomputes brgemm tables
/// and spans, and hands every offset expression to the implementor. The
/// plan builder compiles offsets (proving bounds); the reference walker
/// keeps the `Expr`.
pub(crate) trait Lower<'f> {
    /// Offset representation of the lowered op.
    type Off;

    /// The function being lowered.
    fn func(&self) -> &'f Func;

    /// Lower a buffer offset whose access touches `span` elements of a
    /// buffer holding `elems`.
    fn offset(&mut self, offset: &'f Expr, span: usize, elems: usize) -> Result<Self::Off, Reject>;

    /// Lower an axis-clamp base (a scalar index, not a buffer offset).
    fn clamp_base(&mut self, base: &'f Expr) -> Result<Self::Off, Reject>;

    /// Buffer declaration for a [`BufId`]: `(flat index, dtype, elems)`.
    fn buf_decl(&self, id: BufId) -> (u32, DataType, usize) {
        let func = self.func();
        match id {
            BufId::Param(i) => {
                let d = &func.params[i];
                // Module validation guarantees every bound global has at
                // least the parameter's declared elems, so the declared
                // size is the safe hoisting bound.
                (i as u32, d.dtype, d.elems)
            }
            BufId::Local(i) => {
                let d = &func.locals[i];
                ((func.params.len() + i) as u32, d.dtype, d.elems)
            }
        }
    }

    /// Lower a view accessed as `dtype` over `span` elements from its
    /// offset (the span actually touched, which for 2-D ops exceeds
    /// `view.len`).
    fn view_span(
        &mut self,
        view: &'f View,
        dtype: DataType,
        span: usize,
    ) -> Result<PView<Self::Off>, Reject> {
        let (buf, decl_dtype, elems) = self.buf_decl(view.buf);
        if decl_dtype != dtype {
            return Err(Reject::DtypeMismatch);
        }
        let offset = self.offset(&view.offset, span, elems)?;
        Ok(PView {
            buf,
            offset,
            len: view.len,
        })
    }

    /// Lower a view accessed as `dtype` over exactly `view.len` elements.
    fn view(&mut self, view: &'f View, dtype: DataType) -> Result<PView<Self::Off>, Reject> {
        self.view_span(view, dtype, view.len)
    }

    /// Lower one intrinsic to a [`POp`] over [`Self::Off`].
    #[allow(clippy::too_many_lines)]
    fn lower_intrinsic(&mut self, intr: &'f Intrinsic) -> Result<POp<Self::Off>, Reject> {
        use DataType::{F32, I32, I8, U8};
        Ok(match intr {
            Intrinsic::BrgemmF32 {
                a,
                a_stride,
                b,
                b_stride,
                c,
                m,
                n,
                k,
                batch,
            } => {
                let (a_rel, a_span) = batch_table(*batch, *a_stride, m * k);
                let (b_rel, b_span) = batch_table(*batch, *b_stride, n * k);
                POp::BrgemmF32 {
                    a: self.view_span(a, F32, a_span)?,
                    b: self.view_span(b, F32, b_span)?,
                    c: self.view_span(c, F32, m * n)?,
                    shape: BrgemmShape::new(*m, *n, *k),
                    a_rel,
                    b_rel,
                    a_span,
                    b_span,
                }
            }
            Intrinsic::BrgemmU8I8 {
                a,
                a_stride,
                b,
                b_stride,
                c,
                m,
                n,
                k,
                batch,
            } => {
                let (a_rel, a_span) = batch_table(*batch, *a_stride, m * k);
                let (b_rel, b_span) = batch_table(*batch, *b_stride, n * k);
                POp::BrgemmU8I8 {
                    a: self.view_span(a, U8, a_span)?,
                    b: self.view_span(b, I8, b_span)?,
                    c: self.view_span(c, I32, m * n)?,
                    shape: BrgemmShape::new(*m, *n, *k),
                    a_rel,
                    b_rel,
                    a_span,
                    b_span,
                }
            }
            Intrinsic::FillF32 { dst, value } => POp::FillF32 {
                dst: self.view(dst, F32)?,
                value: *value,
            },
            Intrinsic::ZeroI32 { dst } => POp::ZeroI32 {
                dst: self.view(dst, I32)?,
            },
            Intrinsic::Pack2D {
                src,
                src_offset,
                src_row_stride,
                src_col_stride,
                dst,
                rows,
                cols,
            } => {
                let (src_buf, src_dtype, src_elems) = self.buf_decl(*src);
                let (_, dst_dtype, _) = self.buf_decl(dst.buf);
                if src_dtype != dst_dtype || !pack_dtype_ok(src_dtype) {
                    return Err(Reject::DtypeMismatch);
                }
                let span = strided_span(*rows, *cols, *src_row_stride, *src_col_stride);
                let src_off = self.offset(src_offset, span, src_elems)?;
                POp::Pack2D {
                    src_buf,
                    src_offset: src_off,
                    src_row_stride: *src_row_stride,
                    src_col_stride: *src_col_stride,
                    dst: self.view_span(dst, dst_dtype, rows * cols)?,
                    rows: *rows,
                    cols: *cols,
                }
            }
            Intrinsic::Unpack2D {
                src,
                dst,
                dst_offset,
                dst_row_stride,
                dst_col_stride,
                rows,
                cols,
            } => {
                let (dst_buf, dst_dtype, dst_elems) = self.buf_decl(*dst);
                let (_, src_dtype, _) = self.buf_decl(src.buf);
                if src_dtype != dst_dtype || !pack_dtype_ok(src_dtype) {
                    return Err(Reject::DtypeMismatch);
                }
                let span = strided_span(*rows, *cols, *dst_row_stride, *dst_col_stride);
                let dst_off = self.offset(dst_offset, span, dst_elems)?;
                POp::Unpack2D {
                    src: self.view_span(src, src_dtype, rows * cols)?,
                    dst_buf,
                    dst_offset: dst_off,
                    dst_row_stride: *dst_row_stride,
                    dst_col_stride: *dst_col_stride,
                    rows: *rows,
                    cols: *cols,
                }
            }
            Intrinsic::Pack2DPad {
                src,
                src_offset,
                src_row_stride,
                src_col_stride,
                dst,
                rows,
                cols,
                row_clamp,
                col_clamp,
            } => {
                let (src_buf, src_dtype, src_elems) = self.buf_decl(*src);
                let (_, dst_dtype, _) = self.buf_decl(dst.buf);
                if src_dtype != dst_dtype || !pack_dtype_ok(src_dtype) {
                    return Err(Reject::DtypeMismatch);
                }
                // base-excluded offset: the reachable span is capped by
                // the logical extents, not the physical tile
                let span = strided_span(
                    row_clamp.logical,
                    col_clamp.logical,
                    *src_row_stride,
                    *src_col_stride,
                );
                let src_off = self.offset(src_offset, span, src_elems)?;
                POp::Pack2DPad {
                    src_buf,
                    src_offset: src_off,
                    src_row_stride: *src_row_stride,
                    src_col_stride: *src_col_stride,
                    dst: self.view_span(dst, dst_dtype, rows * cols)?,
                    rows: *rows,
                    cols: *cols,
                    row_base: self.clamp_base(&row_clamp.base)?,
                    row_logical: row_clamp.logical,
                    col_base: self.clamp_base(&col_clamp.base)?,
                    col_logical: col_clamp.logical,
                }
            }
            Intrinsic::Unpack2DClamp {
                src,
                dst,
                dst_offset,
                dst_row_stride,
                dst_col_stride,
                rows,
                cols,
                row_clamp,
                col_clamp,
            } => {
                let (dst_buf, dst_dtype, dst_elems) = self.buf_decl(*dst);
                let (_, src_dtype, _) = self.buf_decl(src.buf);
                if src_dtype != dst_dtype || !pack_dtype_ok(src_dtype) {
                    return Err(Reject::DtypeMismatch);
                }
                let span = strided_span(
                    row_clamp.logical,
                    col_clamp.logical,
                    *dst_row_stride,
                    *dst_col_stride,
                );
                let dst_off = self.offset(dst_offset, span, dst_elems)?;
                POp::Unpack2DClamp {
                    src: self.view_span(src, src_dtype, rows * cols)?,
                    dst_buf,
                    dst_offset: dst_off,
                    dst_row_stride: *dst_row_stride,
                    dst_col_stride: *dst_col_stride,
                    rows: *rows,
                    cols: *cols,
                    row_base: self.clamp_base(&row_clamp.base)?,
                    row_logical: row_clamp.logical,
                    col_base: self.clamp_base(&col_clamp.base)?,
                    col_logical: col_clamp.logical,
                }
            }
            Intrinsic::BrgemmF32Tail {
                a,
                a_stride,
                b,
                b_stride,
                c,
                m,
                n,
                k,
                batch,
                m_clamp,
            } => {
                let (a_rel, a_span) = batch_table(*batch, *a_stride, m * k);
                let (b_rel, b_span) = batch_table(*batch, *b_stride, n * k);
                POp::BrgemmF32Tail {
                    a: self.view_span(a, F32, a_span)?,
                    b: self.view_span(b, F32, b_span)?,
                    c: self.view_span(c, F32, m * n)?,
                    shape: BrgemmShape::new(*m, *n, *k),
                    a_rel,
                    b_rel,
                    a_span,
                    b_span,
                    m_base: self.clamp_base(&m_clamp.base)?,
                    m_logical: m_clamp.logical,
                }
            }
            Intrinsic::BrgemmU8I8Tail {
                a,
                a_stride,
                b,
                b_stride,
                c,
                m,
                n,
                k,
                batch,
                m_clamp,
            } => {
                let (a_rel, a_span) = batch_table(*batch, *a_stride, m * k);
                let (b_rel, b_span) = batch_table(*batch, *b_stride, n * k);
                POp::BrgemmU8I8Tail {
                    a: self.view_span(a, U8, a_span)?,
                    b: self.view_span(b, I8, b_span)?,
                    c: self.view_span(c, I32, m * n)?,
                    shape: BrgemmShape::new(*m, *n, *k),
                    a_rel,
                    b_rel,
                    a_span,
                    b_span,
                    m_base: self.clamp_base(&m_clamp.base)?,
                    m_logical: m_clamp.logical,
                }
            }
            Intrinsic::Unary { op, src, dst } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::Unary {
                    op: *op,
                    src: self.view(src, F32)?,
                    dst: self.view(dst, F32)?,
                }
            }
            Intrinsic::Binary { op, a, b, dst } => POp::Binary {
                op: *op,
                a: self.view(a, F32)?,
                b: self.view(b, F32)?,
                dst: self.view(dst, F32)?,
            },
            Intrinsic::BinaryScalar { op, a, scalar, dst } => POp::BinaryScalar {
                op: *op,
                a: self.view(a, F32)?,
                scalar: *scalar,
                dst: self.view(dst, F32)?,
            },
            Intrinsic::BinaryRowBcast {
                op,
                a,
                b,
                dst,
                rows,
                cols,
            } => POp::BinaryRowBcast {
                op: *op,
                a: self.view_span(a, F32, rows * cols)?,
                b: self.view_span(b, F32, *cols)?,
                dst: self.view_span(dst, F32, rows * cols)?,
                rows: *rows,
                cols: *cols,
            },
            Intrinsic::BinaryColBcast {
                op,
                a,
                b,
                dst,
                rows,
                cols,
            } => POp::BinaryColBcast {
                op: *op,
                a: self.view_span(a, F32, rows * cols)?,
                b: self.view_span(b, F32, *rows)?,
                dst: self.view_span(dst, F32, rows * cols)?,
                rows: *rows,
                cols: *cols,
            },
            Intrinsic::ReduceRows {
                op,
                src,
                acc,
                rows,
                cols,
                accumulate,
            } => POp::ReduceRows {
                op: *op,
                src: self.view_span(src, F32, rows * cols)?,
                acc: self.view_span(acc, F32, *rows)?,
                rows: *rows,
                cols: *cols,
                accumulate: *accumulate,
            },
            Intrinsic::DequantAcc {
                acc,
                comp,
                a_zero,
                scale,
                bias,
                dst,
                rows,
                cols,
            } => POp::DequantAcc {
                acc: self.view_span(acc, I32, rows * cols)?,
                comp: self.view_span(comp, I32, *cols)?,
                a_zero: *a_zero,
                scale: *scale,
                bias: match bias {
                    Some(b) => Some(self.view_span(b, F32, *cols)?),
                    None => None,
                },
                dst: self.view_span(dst, F32, rows * cols)?,
                rows: *rows,
                cols: *cols,
            },
            Intrinsic::QuantU8 {
                src,
                dst,
                scale,
                zero_point,
            } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::QuantU8 {
                    src: self.view(src, F32)?,
                    dst: self.view(dst, U8)?,
                    scale: *scale,
                    zero_point: *zero_point,
                }
            }
            Intrinsic::DequantU8 {
                src,
                dst,
                scale,
                zero_point,
            } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::DequantU8 {
                    src: self.view(src, U8)?,
                    dst: self.view(dst, F32)?,
                    scale: *scale,
                    zero_point: *zero_point,
                }
            }
            Intrinsic::DequantI8 { src, dst, scale } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::DequantI8 {
                    src: self.view(src, I8)?,
                    dst: self.view(dst, F32)?,
                    scale: *scale,
                }
            }
            Intrinsic::CompAccumulate {
                b_tile,
                comp,
                nb,
                kb,
            } => POp::CompAccumulate {
                b_tile: self.view_span(b_tile, I8, nb * kb)?,
                comp: self.view_span(comp, I32, *nb)?,
                nb: *nb,
                kb: *kb,
            },
            Intrinsic::CastI32F32 { src, dst } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::CastI32F32 {
                    src: self.view(src, I32)?,
                    dst: self.view(dst, F32)?,
                }
            }
            Intrinsic::AddF32 { src, dst } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::AddF32 {
                    src: self.view(src, F32)?,
                    dst: self.view(dst, F32)?,
                }
            }
            Intrinsic::AddI32 { src, dst } => {
                if src.len != dst.len {
                    return Err(Reject::LenMismatch);
                }
                POp::AddI32 {
                    src: self.view(src, I32)?,
                    dst: self.view(dst, I32)?,
                }
            }
        })
    }
}

/// Run the plan builder purely for its checks (dtype agreement, operand
/// arity, hoisted bounds, plan limits), discarding the plan. The
/// validator turns every reject into an error, which is what makes
/// [`compile_module`] total on validator-clean modules.
pub(crate) fn probe_func(f: &Func) -> Result<(), Reject> {
    FuncBuilder::new(f, 1).build().map(|_| ())
}

/// Per-op fixed cost in units — covers offset evaluation and the call
/// into the microkernel, so loops of many tiny ops still register.
const OP_OVERHEAD_UNITS: u64 = 64;

/// Static work estimate for one compiled op, in element-op units
/// (one unit ≈ one multiply-accumulate or one element moved).
fn pop_units(op: &POp) -> u64 {
    let elems = match op {
        POp::BrgemmF32 { shape, a_rel, .. }
        | POp::BrgemmU8I8 { shape, a_rel, .. }
        | POp::BrgemmF32Tail { shape, a_rel, .. }
        | POp::BrgemmU8I8Tail { shape, a_rel, .. } => {
            (shape.m * shape.n * shape.k * a_rel.len().max(1)) as u64
        }
        POp::Pack2D { rows, cols, .. }
        | POp::Unpack2D { rows, cols, .. }
        | POp::Pack2DPad { rows, cols, .. }
        | POp::Unpack2DClamp { rows, cols, .. } => (rows * cols) as u64,
        POp::FillF32 { dst, .. } => dst.len as u64,
        POp::ZeroI32 { dst } => dst.len as u64,
        POp::Unary { src, .. } => src.len as u64,
        POp::Binary { a, .. } | POp::BinaryScalar { a, .. } => a.len as u64,
        POp::BinaryRowBcast { rows, cols, .. }
        | POp::BinaryColBcast { rows, cols, .. }
        | POp::ReduceRows { rows, cols, .. }
        | POp::DequantAcc { rows, cols, .. } => (rows * cols) as u64,
        POp::QuantU8 { src, .. }
        | POp::CastI32F32 { src, .. }
        | POp::AddF32 { src, .. }
        | POp::AddI32 { src, .. } => src.len as u64,
        POp::DequantU8 { src, .. } | POp::DequantI8 { src, .. } => src.len as u64,
        POp::CompAccumulate { nb, kb, .. } => (nb * kb) as u64,
    };
    OP_OVERHEAD_UNITS + elems
}

/// Total work of `instrs[start..end]` for one pass, multiplying nested
/// loop bodies by their extents.
fn range_units(instrs: &[PInstr], start: usize, end: usize) -> u64 {
    let mut units = 0u64;
    let mut pc = start;
    while pc < end {
        match &instrs[pc] {
            PInstr::For {
                extent, body_end, ..
            }
            | PInstr::ParFor {
                extent, body_end, ..
            } => {
                units = units.saturating_add((*extent as u64).saturating_mul(range_units(
                    instrs,
                    pc + 1,
                    *body_end,
                )));
                pc = *body_end;
            }
            PInstr::Op(op) => {
                units = units.saturating_add(pop_units(op));
                pc += 1;
            }
        }
    }
    units
}

fn pack_dtype_ok(dt: DataType) -> bool {
    matches!(
        dt,
        DataType::F32 | DataType::U8 | DataType::I8 | DataType::I32
    )
}

/// Span of a strided 2-D access pattern starting at its base offset.
fn strided_span(rows: usize, cols: usize, rs: usize, cs: usize) -> usize {
    if rows == 0 || cols == 0 {
        return 0;
    }
    (rows - 1) * rs + (cols - 1) * cs + 1
}

/// The brgemm batch-offset table for `batch` tiles of `tile_len`
/// elements every `stride`, plus the buffer span they cover.
fn batch_table(batch: usize, stride: usize, tile_len: usize) -> (Box<[usize]>, usize) {
    let rel: Box<[usize]> = (0..batch).map(|i| i * stride).collect();
    let span = rel.last().map_or(0, |&last| last + tile_len);
    (rel, span)
}

/// Affine decomposition: `Some((base, terms))` with `terms` sorted by
/// variable, or `None` for non-affine expressions.
fn linearize(e: &Expr) -> Option<(i64, Vec<(u32, i64)>)> {
    fn go(e: &Expr) -> Option<(i64, std::collections::BTreeMap<u32, i64>)> {
        match e {
            Expr::Const(c) => Some((*c, std::collections::BTreeMap::new())),
            Expr::Var(VarId(v)) => {
                let mut m = std::collections::BTreeMap::new();
                m.insert(*v as u32, 1i64);
                Some((0, m))
            }
            Expr::Add(a, b) => {
                let (ca, mut ma) = go(a)?;
                let (cb, mb) = go(b)?;
                for (v, s) in mb {
                    *ma.entry(v).or_insert(0) += s;
                }
                Some((ca + cb, ma))
            }
            Expr::Mul(a, b) => {
                let (ca, ma) = go(a)?;
                let (cb, mb) = go(b)?;
                if mb.is_empty() {
                    Some((ca * cb, ma.into_iter().map(|(v, s)| (v, s * cb)).collect()))
                } else if ma.is_empty() {
                    Some((ca * cb, mb.into_iter().map(|(v, s)| (v, s * ca)).collect()))
                } else {
                    None // variable × variable: not affine
                }
            }
            Expr::Div(..) | Expr::Rem(..) => None,
        }
    }
    let (base, terms) = go(e)?;
    Some((base, terms.into_iter().filter(|&(_, s)| s != 0).collect()))
}

/// Emit a postfix program for `e`; returns the stack height contributed
/// (always 1 on success).
fn emit_program(e: &Expr, ops: &mut Vec<OffsetOp>) -> Result<usize, Reject> {
    fn go(e: &Expr, ops: &mut Vec<OffsetOp>, depth: usize, peak: &mut usize) -> Result<(), Reject> {
        if depth + 1 > MAX_PROG_STACK {
            return Err(Reject::ProgramTooDeep);
        }
        *peak = (*peak).max(depth + 1);
        match e {
            Expr::Const(c) => ops.push(OffsetOp::PushC(*c)),
            Expr::Var(VarId(v)) => ops.push(OffsetOp::PushV(*v as u32)),
            Expr::Add(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Rem(a, b) => {
                go(a, ops, depth, peak)?;
                go(b, ops, depth + 1, peak)?;
                ops.push(match e {
                    Expr::Add(..) => OffsetOp::Add,
                    Expr::Mul(..) => OffsetOp::Mul,
                    Expr::Div(..) => OffsetOp::Div,
                    _ => OffsetOp::Rem,
                });
            }
        }
        Ok(())
    }
    let mut peak = 0;
    go(e, ops, 0, &mut peak)?;
    Ok(1)
}

/// Interval of `e` over the box `var_iv[v].0 <= vars[v] <= var_iv[v].1`,
/// or `None` when it cannot be bounded (division by a possibly-
/// nonpositive value, remainder of a possibly-negative numerator,
/// arithmetic overflow).
pub(crate) fn interval(e: &Expr, var_iv: &[(i64, i64)]) -> Option<(i64, i64)> {
    match e {
        Expr::Const(c) => Some((*c, *c)),
        Expr::Var(VarId(v)) => Some(var_iv.get(*v).copied().unwrap_or((0, 0))),
        Expr::Add(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            Some((al.checked_add(bl)?, ah.checked_add(bh)?))
        }
        Expr::Mul(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            corner_bounds(al, ah, bl, bh, i64::checked_mul)
        }
        Expr::Div(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            if bl <= 0 {
                return None; // divisor may be zero or negative
            }
            // Truncating division by a positive divisor is monotone in
            // the numerator and anti-/monotone in the divisor per
            // numerator sign, so extremes sit at box corners.
            corner_bounds(al, ah, bl, bh, |x, d| Some(x / d))
        }
        Expr::Rem(a, b) => {
            let (al, ah) = interval(a, var_iv)?;
            let (bl, bh) = interval(b, var_iv)?;
            if bl <= 0 || al < 0 {
                return None;
            }
            Some((0, (bh - 1).min(ah)))
        }
    }
}

fn corner_bounds(
    al: i64,
    ah: i64,
    bl: i64,
    bh: i64,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Option<(i64, i64)> {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for x in [al, ah] {
        for y in [bl, bh] {
            let v = f(x, y)?;
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BufDecl;

    fn v(i: usize) -> Expr {
        Expr::v(VarId(i))
    }

    #[test]
    fn linearize_affine() {
        // 3 + v0 * 8 + v1 * 2
        let e = Expr::c(3)
            .add(v(0).mul(Expr::c(8)))
            .add(v(1).mul(Expr::c(2)));
        let (base, terms) = linearize(&e).unwrap();
        assert_eq!(base, 3);
        assert_eq!(terms, vec![(0, 8), (1, 2)]);
    }

    #[test]
    fn linearize_merges_repeated_vars() {
        // v0 * 4 + v0 -> stride 5
        let e = v(0).mul(Expr::c(4)).add(v(0));
        let (base, terms) = linearize(&e).unwrap();
        assert_eq!((base, terms), (0, vec![(0, 5)]));
    }

    #[test]
    fn linearize_rejects_div_and_var_products() {
        assert!(linearize(&Expr::Div(Box::new(v(0)), Box::new(Expr::c(2)))).is_none());
        assert!(linearize(&v(0).mul(v(1))).is_none());
    }

    #[test]
    fn interval_affine_and_divrem() {
        let hi = vec![(0i64, 7i64), (0, 3)];
        // v0 * 8 + v1 in [0, 59]
        let e = v(0).mul(Expr::c(8)).add(v(1));
        assert_eq!(interval(&e, &hi), Some((0, 59)));
        // v0 / 2 in [0, 3]
        let d = Expr::Div(Box::new(v(0)), Box::new(Expr::c(2)));
        assert_eq!(interval(&d, &hi), Some((0, 3)));
        // v0 % 3 in [0, 2]
        let r = Expr::Rem(Box::new(v(0)), Box::new(Expr::c(3)));
        assert_eq!(interval(&r, &hi), Some((0, 2)));
        // division by zero constant is rejected
        let z = Expr::Div(Box::new(v(0)), Box::new(Expr::c(0)));
        assert_eq!(interval(&z, &hi), None);
    }

    #[test]
    fn batch_table_layout() {
        let (rel, span) = batch_table(3, 10, 4);
        assert_eq!(rel.as_ref(), &[0, 10, 20]);
        assert_eq!(span, 24);
        let (rel0, span0) = batch_table(0, 10, 4);
        assert!(rel0.is_empty());
        assert_eq!(span0, 0);
    }

    fn simple_func(offset: Expr, elems: usize, extent: usize) -> Func {
        // for v0 in 0..extent { relu(in[offset..offset+4] -> out[same]) }
        Func {
            name: "f".into(),
            params: vec![
                BufDecl::new(DataType::F32, elems, "in"),
                BufDecl::new(DataType::F32, elems, "out"),
            ],
            locals: vec![],
            var_count: 1,
            body: vec![Stmt::loop_(
                VarId(0),
                extent,
                vec![Stmt::Op(Intrinsic::Unary {
                    op: gc_microkernel::UnaryOp::Relu,
                    src: View::new(BufId::Param(0), offset.clone(), 4),
                    dst: View::new(BufId::Param(1), offset, 4),
                })],
            )],
        }
    }

    #[test]
    fn compiles_in_bounds_loop() {
        let f = simple_func(v(0).mul(Expr::c(4)), 32, 8);
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert_eq!(pf.instrs.len(), 2); // For + Op
        assert_eq!(fs.hoisted_bounds, 2);
        assert_eq!(fs.linear_offsets, 2);
    }

    #[test]
    fn rejects_out_of_bounds_loop() {
        // extent 9 -> max offset 32, 32 + 4 > 32
        let f = simple_func(v(0).mul(Expr::c(4)), 32, 9);
        assert_eq!(
            FuncBuilder::new(&f, 4).build().err(),
            Some(Reject::OutOfBounds)
        );
    }

    #[test]
    fn rejects_dtype_mismatch() {
        let mut f = simple_func(Expr::c(0), 32, 1);
        f.params[0].dtype = DataType::I8; // Unary needs F32
        assert_eq!(
            FuncBuilder::new(&f, 4).build().err(),
            Some(Reject::DtypeMismatch)
        );
    }

    #[test]
    fn compiles_div_rem_offset_as_program() {
        // offset = (v0 / 2) * 8 + (v0 % 2) * 4 — stays within [0, 28]
        let off = Expr::Div(Box::new(v(0)), Box::new(Expr::c(2)))
            .mul(Expr::c(8))
            .add(Expr::Rem(Box::new(v(0)), Box::new(Expr::c(2))).mul(Expr::c(4)));
        let f = simple_func(off, 32, 7);
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert_eq!(fs.program_offsets, 2);
        assert_eq!(fs.linear_offsets, 0);
        // evaluate the compiled offset across the loop and compare with
        // the source expression
        let PInstr::Op(POp::Unary { src, .. }) = &pf.instrs[1] else {
            panic!("expected compiled unary");
        };
        let mut vars = [0i64; MAX_VARS];
        for i in 0..7 {
            vars[0] = i;
            let want = f.body.iter().find_map(|s| match s {
                Stmt::For { body, .. } => match &body[0] {
                    Stmt::Op(Intrinsic::Unary { src, .. }) => Some(src.offset.eval(&vars[..1])),
                    _ => None,
                },
                _ => None,
            });
            assert_eq!(src.offset.eval(&vars), want.unwrap());
        }
    }

    #[test]
    fn parallel_loop_gets_grain() {
        // Big enough (4096 iters x ~68 units) to stay dispatched.
        let mut f = simple_func(v(0).mul(Expr::c(4)), 16384, 4096);
        let Stmt::For { parallel, .. } = &mut f.body[0] else {
            panic!()
        };
        *parallel = true;
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        let PInstr::ParFor { grain, extent, .. } = &pf.instrs[0] else {
            panic!("expected ParFor");
        };
        assert_eq!(*extent, 4096);
        assert_eq!(*grain, 256); // 4096 / (4 threads * 4)
        assert_eq!(fs.serialized_loops, 0);
    }

    #[test]
    fn tiny_parallel_loop_is_serialized() {
        // 128 iterations of a 4-element relu: far below the dispatch
        // threshold, so the loop must come out serial.
        let mut f = simple_func(v(0).mul(Expr::c(4)), 512, 128);
        let Stmt::For { parallel, .. } = &mut f.body[0] else {
            panic!()
        };
        *parallel = true;
        let (pf, fs) = FuncBuilder::new(&f, 4).build().unwrap();
        assert!(matches!(pf.instrs[0], PInstr::For { .. }));
        assert_eq!(fs.serialized_loops, 1);
        // On one thread every parallel loop is serial regardless of size.
        let big = {
            let mut f = simple_func(v(0).mul(Expr::c(4)), 16384, 4096);
            let Stmt::For { parallel, .. } = &mut f.body[0] else {
                panic!()
            };
            *parallel = true;
            f
        };
        let (pf1, _) = FuncBuilder::new(&big, 1).build().unwrap();
        assert!(matches!(pf1.instrs[0], PInstr::For { .. }));
    }

    #[test]
    fn validator_rejects_what_the_builder_cannot_compile() {
        let good = simple_func(v(0).mul(Expr::c(4)), 32, 8);
        let bad = simple_func(v(0).mul(Expr::c(4)), 32, 9);
        let mut m = Module::new();
        m.add_func(good.clone());
        crate::validate_module(&m).unwrap();
        assert_eq!(compile_module(&m, 4).stats().compiled_funcs, 1);
        m.add_func(bad);
        let e = crate::validate_module(&m).unwrap_err();
        assert!(e.0.contains("can reach element"), "{e}");
    }
}
