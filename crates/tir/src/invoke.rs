//! Intrinsic invocation: the one place Tensor IR intrinsics call into
//! `gc-microkernel`.
//!
//! An intrinsic is first lowered to a [`POp`] — every view resolved to a
//! flat buffer slot, every loop-invariant quantity (brgemm batch tables,
//! spans) precomputed — and then `invoke`d against an executor `Env`.
//! Both executors share this code and differ only in the offset
//! type `O` the op carries:
//!
//! - compiled plans ([`crate::plan`]) carry strength-reduced
//!   [`PlanOffset`]s whose bounds the plan builder proved statically;
//! - the reference walker ([`crate::exec`]) carries the IR's own
//!   [`crate::expr::Expr`] offsets, evaluates them directly, and checks
//!   every access at run time.
//!
//! `invoke` is monomorphized per executor, so the plan hot path has no
//! dynamic dispatch.
//!
//! # Safety model
//!
//! Parallel loop iterations write to disjoint buffer regions — this is a
//! *lowering invariant*, the same one the original compiler's codegen
//! guarantees. Executors materialize each buffer's raw pointer once per
//! function call and build disjoint slices from it; unchecked execution
//! debug-asserts in-bounds access and dtype agreement, checked execution
//! asserts them in release builds too.

use crate::ir::ReduceOp;
use crate::plan::PlanOffset;
use gc_microkernel::{brgemm, eltwise, epilogue, reduce, tail, BinaryOp, UnaryOp};
use gc_tensor::{DataType, Storage};

#[derive(Clone, Copy)]
pub(crate) struct RawBuf {
    pub(crate) ptr: *mut u8,
    elems: usize,
    dtype: DataType,
    /// Hard-assert every slice access (checked execution); otherwise
    /// bounds are debug-only.
    checked: bool,
}

impl std::fmt::Debug for RawBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawBuf({:?} x{} {})", self.ptr, self.elems, self.dtype)
    }
}

// SAFETY: a RawBuf is a pointer + length into a `Storage` its executor
// keeps alive for the whole call; threads only build slices from it over
// the disjoint regions the lowering assigns to each parallel iteration.
unsafe impl Send for RawBuf {}
// SAFETY: as for `Send`; shared RawBufs are only read.
unsafe impl Sync for RawBuf {}

impl RawBuf {
    pub(crate) fn of(storage: &mut Storage, checked: bool) -> RawBuf {
        let dtype = storage.dtype();
        let elems = storage.len();
        let ptr = match storage {
            Storage::F32(v) => v.as_mut_ptr() as *mut u8,
            Storage::Bf16(v) => v.as_mut_ptr() as *mut u8,
            Storage::U8(v) => v.as_mut_ptr(),
            Storage::I8(v) => v.as_mut_ptr() as *mut u8,
            Storage::I32(v) => v.as_mut_ptr() as *mut u8,
            Storage::I64(v) => v.as_mut_ptr() as *mut u8,
        };
        RawBuf {
            ptr,
            elems,
            dtype,
            checked,
        }
    }

    #[inline]
    fn check(&self, off: usize, len: usize, dtype: DataType) {
        if self.checked {
            assert_eq!(self.dtype, dtype, "intrinsic dtype mismatch");
            assert!(
                off + len <= self.elems,
                "view out of bounds: {}+{} > {}",
                off,
                len,
                self.elems
            );
        } else {
            debug_assert_eq!(self.dtype, dtype, "intrinsic dtype mismatch");
            debug_assert!(
                off + len <= self.elems,
                "view out of bounds: {}+{} > {}",
                off,
                len,
                self.elems
            );
        }
    }

    /// # Safety
    /// Range must be in bounds and disjoint from other live slices.
    #[inline]
    unsafe fn f32<'a>(self, off: usize, len: usize) -> &'a mut [f32] {
        self.check(off, len, DataType::F32);
        std::slice::from_raw_parts_mut((self.ptr as *mut f32).add(off), len)
    }

    /// # Safety
    /// Range must be in bounds and disjoint from other live slices.
    #[inline]
    unsafe fn u8<'a>(self, off: usize, len: usize) -> &'a mut [u8] {
        self.check(off, len, DataType::U8);
        std::slice::from_raw_parts_mut(self.ptr.add(off), len)
    }

    /// # Safety
    /// Range must be in bounds and disjoint from other live slices.
    #[inline]
    unsafe fn i8<'a>(self, off: usize, len: usize) -> &'a mut [i8] {
        self.check(off, len, DataType::I8);
        std::slice::from_raw_parts_mut((self.ptr as *mut i8).add(off), len)
    }

    /// # Safety
    /// Range must be in bounds and disjoint from other live slices.
    #[inline]
    unsafe fn i32<'a>(self, off: usize, len: usize) -> &'a mut [i32] {
        self.check(off, len, DataType::I32);
        std::slice::from_raw_parts_mut((self.ptr as *mut i32).add(off), len)
    }
}

/// What [`invoke`] needs from an executor: its flat buffer table, how it
/// evaluates an offset at the current loop position, and whether every
/// access is asserted in bounds.
pub(crate) trait Env {
    /// The executor's offset representation.
    type Off;
    /// The buffer bound to flat slot `slot` (params, then locals).
    fn buf(&self, slot: u32) -> RawBuf;
    /// Evaluate an offset against the current variable values.
    fn eval(&self, off: &Self::Off) -> i64;
    /// Assert every offset and span at run time.
    fn checked(&self) -> bool;
}

/// A lowered view: flat buffer slot + offset.
#[derive(Debug, Clone, PartialEq)]
pub struct PView<O = PlanOffset> {
    /// Index into the call frame's flat buffer table (params then
    /// locals).
    pub buf: u32,
    /// Element offset.
    pub offset: O,
    /// Window length in elements.
    pub len: usize,
}

/// A lowered intrinsic: every view resolved to a [`PView`], every
/// loop-invariant derived quantity precomputed.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field meanings mirror crate::ir::Intrinsic
pub enum POp<O = PlanOffset> {
    BrgemmF32 {
        a: PView<O>,
        b: PView<O>,
        c: PView<O>,
        shape: brgemm::BrgemmShape,
        /// Tile offsets relative to the A view base, one per batch
        /// element — computed once at lowering time.
        a_rel: Box<[usize]>,
        b_rel: Box<[usize]>,
        /// Span of the A buffer touched by all tiles.
        a_span: usize,
        b_span: usize,
    },
    BrgemmU8I8 {
        a: PView<O>,
        b: PView<O>,
        c: PView<O>,
        shape: brgemm::BrgemmShape,
        a_rel: Box<[usize]>,
        b_rel: Box<[usize]>,
        a_span: usize,
        b_span: usize,
    },
    FillF32 {
        dst: PView<O>,
        value: f32,
    },
    ZeroI32 {
        dst: PView<O>,
    },
    Pack2D {
        src_buf: u32,
        src_offset: O,
        src_row_stride: usize,
        src_col_stride: usize,
        dst: PView<O>,
        rows: usize,
        cols: usize,
    },
    Unpack2D {
        src: PView<O>,
        dst_buf: u32,
        dst_offset: O,
        dst_row_stride: usize,
        dst_col_stride: usize,
        rows: usize,
        cols: usize,
    },
    Pack2DPad {
        src_buf: u32,
        src_offset: O,
        src_row_stride: usize,
        src_col_stride: usize,
        dst: PView<O>,
        rows: usize,
        cols: usize,
        row_base: O,
        row_logical: usize,
        col_base: O,
        col_logical: usize,
    },
    Unpack2DClamp {
        src: PView<O>,
        dst_buf: u32,
        dst_offset: O,
        dst_row_stride: usize,
        dst_col_stride: usize,
        rows: usize,
        cols: usize,
        row_base: O,
        row_logical: usize,
        col_base: O,
        col_logical: usize,
    },
    BrgemmF32Tail {
        a: PView<O>,
        b: PView<O>,
        c: PView<O>,
        shape: brgemm::BrgemmShape,
        a_rel: Box<[usize]>,
        b_rel: Box<[usize]>,
        a_span: usize,
        b_span: usize,
        m_base: O,
        m_logical: usize,
    },
    BrgemmU8I8Tail {
        a: PView<O>,
        b: PView<O>,
        c: PView<O>,
        shape: brgemm::BrgemmShape,
        a_rel: Box<[usize]>,
        b_rel: Box<[usize]>,
        a_span: usize,
        b_span: usize,
        m_base: O,
        m_logical: usize,
    },
    Unary {
        op: UnaryOp,
        src: PView<O>,
        dst: PView<O>,
    },
    Binary {
        op: BinaryOp,
        a: PView<O>,
        b: PView<O>,
        dst: PView<O>,
    },
    BinaryScalar {
        op: BinaryOp,
        a: PView<O>,
        scalar: f32,
        dst: PView<O>,
    },
    BinaryRowBcast {
        op: BinaryOp,
        a: PView<O>,
        b: PView<O>,
        dst: PView<O>,
        rows: usize,
        cols: usize,
    },
    BinaryColBcast {
        op: BinaryOp,
        a: PView<O>,
        b: PView<O>,
        dst: PView<O>,
        rows: usize,
        cols: usize,
    },
    ReduceRows {
        op: ReduceOp,
        src: PView<O>,
        acc: PView<O>,
        rows: usize,
        cols: usize,
        accumulate: bool,
    },
    DequantAcc {
        acc: PView<O>,
        comp: PView<O>,
        a_zero: i32,
        scale: f32,
        bias: Option<PView<O>>,
        dst: PView<O>,
        rows: usize,
        cols: usize,
    },
    QuantU8 {
        src: PView<O>,
        dst: PView<O>,
        scale: f32,
        zero_point: i32,
    },
    DequantU8 {
        src: PView<O>,
        dst: PView<O>,
        scale: f32,
        zero_point: i32,
    },
    DequantI8 {
        src: PView<O>,
        dst: PView<O>,
        scale: f32,
    },
    CompAccumulate {
        b_tile: PView<O>,
        comp: PView<O>,
        nb: usize,
        kb: usize,
    },
    CastI32F32 {
        src: PView<O>,
        dst: PView<O>,
    },
    AddF32 {
        src: PView<O>,
        dst: PView<O>,
    },
    AddI32 {
        src: PView<O>,
        dst: PView<O>,
    },
}

/// Resolve a raw (buffer slot, offset) pair whose kernel touches `span`
/// elements from the offset.
#[inline]
fn resolve_raw<E: Env>(env: &E, slot: u32, offset: &E::Off, span: usize) -> (RawBuf, usize) {
    let buf = env.buf(slot);
    let s = env.eval(offset);
    if env.checked() {
        return (buf, check_offset(s, slot, span, buf));
    }
    debug_assert!(
        s >= 0,
        "offset of buffer slot {slot} evaluated negative: {s}"
    );
    (buf, s as usize)
}

/// Resolve a view whose kernel touches `span` elements from its offset
/// (brgemm tile tables, broadcast/reduce row blocks).
#[inline]
fn resolve_span<E: Env>(env: &E, v: &PView<E::Off>, span: usize) -> (RawBuf, usize) {
    resolve_raw(env, v.buf, &v.offset, span)
}

/// Resolve a view whose kernel touches exactly `v.len` elements.
#[inline]
fn resolve<E: Env>(env: &E, v: &PView<E::Off>) -> (RawBuf, usize) {
    resolve_raw(env, v.buf, &v.offset, v.len)
}

/// Evaluate an axis-clamp base (a scalar index, not a buffer offset);
/// must be non-negative for a well-formed module.
#[inline]
fn clamp_base<E: Env>(env: &E, off: &E::Off) -> usize {
    let s = env.eval(off);
    if env.checked() {
        assert!(s >= 0, "checked exec: clamp base evaluated negative ({s})");
    } else {
        debug_assert!(s >= 0, "clamp base evaluated negative ({s})");
    }
    s.max(0) as usize
}

/// Checked offset resolution: panic (rather than wrap or read out of
/// bounds) when an evaluated offset escapes its buffer.
#[cold]
fn check_offset(s: i64, slot: u32, span: usize, buf: RawBuf) -> usize {
    assert!(
        s >= 0,
        "checked exec: offset of buffer slot {slot} evaluated negative ({s})"
    );
    let off = s as usize;
    let end = off
        .checked_add(span)
        .unwrap_or_else(|| panic!("checked exec: offset {off} + span {span} overflows"));
    assert!(
        end <= buf.elems,
        "checked exec: access [{off}, {end}) escapes buffer slot {slot} ({} elems)",
        buf.elems
    );
    off
}

#[inline]
fn assert_disjoint(a: (RawBuf, usize, usize), b: (RawBuf, usize, usize)) {
    debug_assert!(
        a.0.ptr != b.0.ptr || a.1 + a.2 <= b.1 || b.1 + b.2 <= a.1,
        "overlapping views in intrinsic"
    );
}

/// Run one lowered intrinsic against `env`.
#[allow(clippy::too_many_lines)]
pub(crate) fn invoke<E: Env>(op: &POp<E::Off>, env: &E) {
    // SAFETY (every `unsafe` block below): each slice is built from an
    // offset resolved for exactly the span it covers — proven in bounds
    // by the plan builder, or asserted by checked execution — and the
    // views of one op, like the iterations of a parallel loop, are
    // disjoint by the lowering invariant (an in-place op builds a single
    // slice for its aliased source and destination).
    match op {
        POp::BrgemmF32 {
            a,
            b,
            c,
            shape,
            a_rel,
            b_rel,
            a_span,
            b_span,
        } => {
            let (ab, ao) = resolve_span(env, a, *a_span);
            let (bb, bo) = resolve_span(env, b, *b_span);
            let (cb, co) = resolve_span(env, c, shape.c_len());
            unsafe {
                let asl = ab.f32(ao, *a_span);
                let bsl = bb.f32(bo, *b_span);
                let csl = cb.f32(co, shape.c_len());
                brgemm::brgemm_f32(*shape, asl, a_rel, bsl, b_rel, csl);
            }
        }
        POp::BrgemmU8I8 {
            a,
            b,
            c,
            shape,
            a_rel,
            b_rel,
            a_span,
            b_span,
        } => {
            let (ab, ao) = resolve_span(env, a, *a_span);
            let (bb, bo) = resolve_span(env, b, *b_span);
            let (cb, co) = resolve_span(env, c, shape.c_len());
            unsafe {
                let asl = ab.u8(ao, *a_span);
                let bsl = bb.i8(bo, *b_span);
                let csl = cb.i32(co, shape.c_len());
                brgemm::brgemm_u8i8(*shape, asl, a_rel, bsl, b_rel, csl);
            }
        }
        POp::FillF32 { dst, value } => {
            let (db, off) = resolve(env, dst);
            unsafe { db.f32(off, dst.len) }.fill(*value);
        }
        POp::ZeroI32 { dst } => {
            let (db, off) = resolve(env, dst);
            unsafe { db.i32(off, dst.len) }.fill(0);
        }
        POp::Pack2D {
            src_buf,
            src_offset,
            src_row_stride,
            src_col_stride,
            dst,
            rows,
            cols,
        } => {
            let src_span = (rows - 1) * src_row_stride + (cols - 1) * src_col_stride + 1;
            let (sb, so) = resolve_raw(env, *src_buf, src_offset, src_span);
            let (db, doff) = resolve_span(env, dst, rows * cols);
            pack2d(
                sb,
                so,
                *src_row_stride,
                *src_col_stride,
                db,
                doff,
                *rows,
                *cols,
            );
        }
        POp::Unpack2D {
            src,
            dst_buf,
            dst_offset,
            dst_row_stride,
            dst_col_stride,
            rows,
            cols,
        } => {
            let (sb, so) = resolve_span(env, src, rows * cols);
            let dst_span = (rows - 1) * dst_row_stride + (cols - 1) * dst_col_stride + 1;
            let (db, doff) = resolve_raw(env, *dst_buf, dst_offset, dst_span);
            unpack2d(
                sb,
                so,
                db,
                doff,
                *dst_row_stride,
                *dst_col_stride,
                *rows,
                *cols,
            );
        }
        POp::Pack2DPad {
            src_buf,
            src_offset,
            src_row_stride,
            src_col_stride,
            dst,
            rows,
            cols,
            row_base,
            row_logical,
            col_base,
            col_logical,
        } => {
            let rb = clamp_base(env, row_base);
            let cb = clamp_base(env, col_base);
            let avail_r = row_logical.saturating_sub(rb).min(*rows);
            let avail_c = col_logical.saturating_sub(cb).min(*cols);
            // base-excluded static span capped by the logical extents
            let src_span = row_logical.saturating_sub(1) * src_row_stride
                + col_logical.saturating_sub(1) * src_col_stride
                + 1;
            let (sb, so) = resolve_raw(env, *src_buf, src_offset, src_span);
            let (db, doff) = resolve_span(env, dst, rows * cols);
            pack2d_pad(
                sb,
                so + rb * src_row_stride + cb * src_col_stride,
                *src_row_stride,
                *src_col_stride,
                db,
                doff,
                *rows,
                *cols,
                avail_r,
                avail_c,
            );
        }
        POp::Unpack2DClamp {
            src,
            dst_buf,
            dst_offset,
            dst_row_stride,
            dst_col_stride,
            rows,
            cols,
            row_base,
            row_logical,
            col_base,
            col_logical,
        } => {
            let rb = clamp_base(env, row_base);
            let cb = clamp_base(env, col_base);
            let avail_r = row_logical.saturating_sub(rb).min(*rows);
            let avail_c = col_logical.saturating_sub(cb).min(*cols);
            let (sb, so) = resolve_span(env, src, rows * cols);
            let dst_span = row_logical.saturating_sub(1) * dst_row_stride
                + col_logical.saturating_sub(1) * dst_col_stride
                + 1;
            let (db, doff) = resolve_raw(env, *dst_buf, dst_offset, dst_span);
            unpack2d_clamp(
                sb,
                so,
                db,
                doff + rb * dst_row_stride + cb * dst_col_stride,
                *dst_row_stride,
                *dst_col_stride,
                *cols,
                avail_r,
                avail_c,
            );
        }
        POp::BrgemmF32Tail {
            a,
            b,
            c,
            shape,
            a_rel,
            b_rel,
            a_span,
            b_span,
            m_base,
            m_logical,
        } => {
            let mb = clamp_base(env, m_base);
            let m_eff = m_logical.saturating_sub(mb).min(shape.m);
            if m_eff == 0 {
                return;
            }
            let (ab, ao) = resolve_span(env, a, *a_span);
            let (bb, bo) = resolve_span(env, b, *b_span);
            let (cb, co) = resolve_span(env, c, shape.c_len());
            unsafe {
                let asl = ab.f32(ao, *a_span);
                let bsl = bb.f32(bo, *b_span);
                let csl = cb.f32(co, m_eff * shape.n);
                tail::brgemm_f32_m_tail(*shape, m_eff, asl, a_rel, bsl, b_rel, csl);
            }
        }
        POp::BrgemmU8I8Tail {
            a,
            b,
            c,
            shape,
            a_rel,
            b_rel,
            a_span,
            b_span,
            m_base,
            m_logical,
        } => {
            let mb = clamp_base(env, m_base);
            let m_eff = m_logical.saturating_sub(mb).min(shape.m);
            if m_eff == 0 {
                return;
            }
            let (ab, ao) = resolve_span(env, a, *a_span);
            let (bb, bo) = resolve_span(env, b, *b_span);
            let (cb, co) = resolve_span(env, c, shape.c_len());
            unsafe {
                let asl = ab.u8(ao, *a_span);
                let bsl = bb.i8(bo, *b_span);
                let csl = cb.i32(co, m_eff * shape.n);
                tail::brgemm_u8i8_m_tail(*shape, m_eff, asl, a_rel, bsl, b_rel, csl);
            }
        }
        POp::Unary { op, src, dst } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            if sb.ptr == db.ptr && so == doff {
                let buf = unsafe { db.f32(doff, dst.len) };
                eltwise::unary_inplace(*op, buf);
            } else {
                assert_disjoint((sb, so, src.len), (db, doff, dst.len));
                unsafe {
                    eltwise::unary(*op, sb.f32(so, src.len), db.f32(doff, dst.len));
                }
            }
        }
        POp::Binary { op, a, b, dst } => {
            let (ab, ao) = resolve(env, a);
            let (bb, bo) = resolve(env, b);
            let (db, doff) = resolve(env, dst);
            // In-place over `a` is permitted (dst == a); `b` must be
            // disjoint from dst.
            assert_disjoint((bb, bo, b.len), (db, doff, dst.len));
            if ab.ptr == db.ptr && ao == doff {
                unsafe {
                    let dsl = db.f32(doff, dst.len);
                    let bsl = bb.f32(bo, b.len);
                    for (d, &y) in dsl.iter_mut().zip(bsl.iter()) {
                        *d = op.apply(*d, y);
                    }
                }
            } else {
                assert_disjoint((ab, ao, a.len), (db, doff, dst.len));
                unsafe {
                    eltwise::binary(
                        *op,
                        ab.f32(ao, a.len),
                        bb.f32(bo, b.len),
                        db.f32(doff, dst.len),
                    );
                }
            }
        }
        POp::BinaryScalar { op, a, scalar, dst } => {
            let (ab, ao) = resolve(env, a);
            let (db, doff) = resolve(env, dst);
            if ab.ptr == db.ptr && ao == doff {
                let dsl = unsafe { db.f32(doff, dst.len) };
                for d in dsl.iter_mut() {
                    *d = op.apply(*d, *scalar);
                }
            } else {
                assert_disjoint((ab, ao, a.len), (db, doff, dst.len));
                unsafe {
                    eltwise::binary_scalar(*op, ab.f32(ao, a.len), *scalar, db.f32(doff, dst.len));
                }
            }
        }
        POp::BinaryRowBcast {
            op,
            a,
            b,
            dst,
            rows,
            cols,
        } => {
            let (ab, ao) = resolve_span(env, a, rows * cols);
            let (bb, bo) = resolve_span(env, b, *cols);
            let (db, doff) = resolve_span(env, dst, rows * cols);
            unsafe {
                let bsl = bb.f32(bo, *cols);
                for r in 0..*rows {
                    let arow = ab.f32(ao + r * cols, *cols);
                    let drow = db.f32(doff + r * cols, *cols);
                    for ((d, &x), &y) in drow.iter_mut().zip(arow.iter()).zip(bsl.iter()) {
                        *d = op.apply(x, y);
                    }
                }
            }
        }
        POp::BinaryColBcast {
            op,
            a,
            b,
            dst,
            rows,
            cols,
        } => {
            let (ab, ao) = resolve_span(env, a, rows * cols);
            let (bb, bo) = resolve_span(env, b, *rows);
            let (db, doff) = resolve_span(env, dst, rows * cols);
            unsafe {
                let bsl = bb.f32(bo, *rows);
                for (r, &y) in bsl.iter().enumerate() {
                    let arow = ab.f32(ao + r * cols, *cols);
                    let drow = db.f32(doff + r * cols, *cols);
                    match op {
                        BinaryOp::Div => {
                            let inv = 1.0 / y;
                            for (d, &x) in drow.iter_mut().zip(arow.iter()) {
                                *d = x * inv;
                            }
                        }
                        _ => {
                            for (d, &x) in drow.iter_mut().zip(arow.iter()) {
                                *d = op.apply(x, y);
                            }
                        }
                    }
                }
            }
        }
        POp::ReduceRows {
            op,
            src,
            acc,
            rows,
            cols,
            accumulate,
        } => {
            let (sb, so) = resolve_span(env, src, rows * cols);
            let (accb, acco) = resolve_span(env, acc, *rows);
            unsafe {
                let ssl = sb.f32(so, rows * cols);
                let asl = accb.f32(acco, *rows);
                match (op, accumulate) {
                    (ReduceOp::Max, false) => reduce::reduce_rows_max(ssl, *rows, *cols, asl),
                    (ReduceOp::Sum, false) => reduce::reduce_rows_sum(ssl, *rows, *cols, asl),
                    (ReduceOp::Max, true) => {
                        for (a, row) in asl.iter_mut().zip(ssl.chunks_exact(*cols)) {
                            let m = reduce::reduce_max(row);
                            if m > *a {
                                *a = m;
                            }
                        }
                    }
                    (ReduceOp::Sum, true) => {
                        for (a, row) in asl.iter_mut().zip(ssl.chunks_exact(*cols)) {
                            *a += reduce::reduce_sum(row);
                        }
                    }
                }
            }
        }
        POp::DequantAcc {
            acc,
            comp,
            a_zero,
            scale,
            bias,
            dst,
            rows,
            cols,
        } => {
            let (accb, acco) = resolve_span(env, acc, rows * cols);
            let (compb, compo) = resolve_span(env, comp, *cols);
            let (db, doff) = resolve_span(env, dst, rows * cols);
            unsafe {
                let asl = accb.i32(acco, rows * cols);
                let csl = compb.i32(compo, *cols);
                let dsl = db.f32(doff, rows * cols);
                match bias {
                    Some(bv) => {
                        let (bb, bo) = resolve_span(env, bv, *cols);
                        let bsl = bb.f32(bo, *cols);
                        epilogue::dequant_acc_bias(
                            asl, *rows, *cols, csl, *a_zero, *scale, bsl, dsl,
                        );
                    }
                    None => epilogue::dequant_acc(asl, *rows, *cols, csl, *a_zero, *scale, dsl),
                }
            }
        }
        POp::QuantU8 {
            src,
            dst,
            scale,
            zero_point,
        } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            unsafe {
                epilogue::requant_u8(
                    sb.f32(so, src.len),
                    1.0 / *scale,
                    *zero_point,
                    db.u8(doff, dst.len),
                );
            }
        }
        POp::DequantU8 {
            src,
            dst,
            scale,
            zero_point,
        } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            unsafe {
                let ssl = sb.u8(so, src.len);
                let dsl = db.f32(doff, dst.len);
                for (d, &q) in dsl.iter_mut().zip(ssl.iter()) {
                    *d = *scale * (q as i32 - zero_point) as f32;
                }
            }
        }
        POp::DequantI8 { src, dst, scale } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            unsafe {
                let ssl = sb.i8(so, src.len);
                let dsl = db.f32(doff, dst.len);
                for (d, &q) in dsl.iter_mut().zip(ssl.iter()) {
                    *d = *scale * q as f32;
                }
            }
        }
        POp::CompAccumulate {
            b_tile,
            comp,
            nb,
            kb,
        } => {
            let (bb, bo) = resolve_span(env, b_tile, nb * kb);
            let (cb, co) = resolve_span(env, comp, *nb);
            unsafe {
                let bsl = bb.i8(bo, nb * kb);
                let csl = cb.i32(co, *nb);
                for (c, panel) in csl.iter_mut().zip(bsl.chunks_exact(*kb)) {
                    *c += panel.iter().map(|&x| x as i32).sum::<i32>();
                }
            }
        }
        POp::CastI32F32 { src, dst } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            unsafe {
                epilogue::i32_to_f32(sb.i32(so, src.len), db.f32(doff, dst.len));
            }
        }
        POp::AddF32 { src, dst } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            assert_disjoint((sb, so, src.len), (db, doff, dst.len));
            unsafe {
                eltwise::acc_add_f32(sb.f32(so, src.len), db.f32(doff, dst.len));
            }
        }
        POp::AddI32 { src, dst } => {
            let (sb, so) = resolve(env, src);
            let (db, doff) = resolve(env, dst);
            assert_disjoint((sb, so, src.len), (db, doff, dst.len));
            unsafe {
                eltwise::acc_add_i32(sb.i32(so, src.len), db.i32(doff, dst.len));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn pack2d(
    sb: RawBuf,
    so: usize,
    rs: usize,
    cs: usize,
    db: RawBuf,
    doff: usize,
    rows: usize,
    cols: usize,
) {
    macro_rules! go {
        ($get:ident) => {{
            unsafe {
                let need = so + (rows - 1) * rs + (cols - 1) * cs + 1;
                let ssl = sb.$get(so, need - so);
                let dsl = db.$get(doff, rows * cols);
                if cs == 1 {
                    for r in 0..rows {
                        dsl[r * cols..(r + 1) * cols].copy_from_slice(&ssl[r * rs..r * rs + cols]);
                    }
                } else {
                    for r in 0..rows {
                        for c in 0..cols {
                            dsl[r * cols + c] = ssl[r * rs + c * cs];
                        }
                    }
                }
            }
        }};
    }
    match sb.dtype {
        DataType::F32 => go!(f32),
        DataType::U8 => go!(u8),
        DataType::I8 => go!(i8),
        DataType::I32 => go!(i32),
        other => panic!("pack2d unsupported dtype {other}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn unpack2d(
    sb: RawBuf,
    so: usize,
    db: RawBuf,
    doff: usize,
    rs: usize,
    cs: usize,
    rows: usize,
    cols: usize,
) {
    macro_rules! go {
        ($get:ident) => {{
            unsafe {
                let ssl = sb.$get(so, rows * cols);
                let need = doff + (rows - 1) * rs + (cols - 1) * cs + 1;
                let dsl = db.$get(doff, need - doff);
                if cs == 1 {
                    for r in 0..rows {
                        dsl[r * rs..r * rs + cols].copy_from_slice(&ssl[r * cols..(r + 1) * cols]);
                    }
                } else {
                    for r in 0..rows {
                        for c in 0..cols {
                            dsl[r * rs + c * cs] = ssl[r * cols + c];
                        }
                    }
                }
            }
        }};
    }
    match sb.dtype {
        DataType::F32 => go!(f32),
        DataType::U8 => go!(u8),
        DataType::I8 => go!(i8),
        DataType::I32 => go!(i32),
        other => panic!("unpack2d unsupported dtype {other}"),
    }
}

/// Clamped pack: copy the `avail_r x avail_c` in-bounds block of a
/// strided source into the top-left of a contiguous `rows x cols` tile
/// and zero-fill the remainder. `so` is the fully evaluated source base
/// (clamp bases already applied).
#[allow(clippy::too_many_arguments)]
fn pack2d_pad(
    sb: RawBuf,
    so: usize,
    rs: usize,
    cs: usize,
    db: RawBuf,
    doff: usize,
    rows: usize,
    cols: usize,
    avail_r: usize,
    avail_c: usize,
) {
    debug_assert!(avail_r <= rows && avail_c <= cols);
    macro_rules! go {
        ($get:ident, $zero:expr) => {{
            unsafe {
                let dsl = db.$get(doff, rows * cols);
                if avail_r == 0 || avail_c == 0 {
                    dsl.fill($zero);
                    return;
                }
                let need = so + (avail_r - 1) * rs + (avail_c - 1) * cs + 1;
                let ssl = sb.$get(so, need - so);
                tail::pack_pad_2d(ssl, rs, cs, dsl, rows, cols, avail_r, avail_c, $zero);
            }
        }};
    }
    match sb.dtype {
        DataType::F32 => go!(f32, 0.0f32),
        DataType::U8 => go!(u8, 0u8),
        DataType::I8 => go!(i8, 0i8),
        DataType::I32 => go!(i32, 0i32),
        other => panic!("pack2d_pad unsupported dtype {other}"),
    }
}

/// Clamped unpack: scatter only the `avail_r x avail_c` in-bounds block
/// of a contiguous `rows x cols` tile (row pitch `cols`) into a strided
/// destination. `doff` is the fully evaluated destination base (clamp
/// bases already applied).
#[allow(clippy::too_many_arguments)]
fn unpack2d_clamp(
    sb: RawBuf,
    so: usize,
    db: RawBuf,
    doff: usize,
    rs: usize,
    cs: usize,
    cols: usize,
    avail_r: usize,
    avail_c: usize,
) {
    if avail_r == 0 || avail_c == 0 {
        return;
    }
    macro_rules! go {
        ($get:ident) => {{
            unsafe {
                let ssl = sb.$get(so, (avail_r - 1) * cols + avail_c);
                let need = doff + (avail_r - 1) * rs + (avail_c - 1) * cs + 1;
                let dsl = db.$get(doff, need - doff);
                tail::store_clamped_2d(ssl, dsl, rs, cs, avail_r, cols, avail_r, avail_c);
            }
        }};
    }
    match sb.dtype {
        DataType::F32 => go!(f32),
        DataType::U8 => go!(u8),
        DataType::I8 => go!(i8),
        DataType::I32 => go!(i32),
        other => panic!("unpack2d_clamp unsupported dtype {other}"),
    }
}
