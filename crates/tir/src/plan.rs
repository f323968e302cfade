//! Flat execution plans: the compiled form of Tensor IR functions, and
//! the engine's only executor.
//!
//! The reference walker in [`crate::exec`] re-derives everything on
//! every visit of every statement: view offsets re-walk
//! [`crate::expr::Expr`] trees, brgemm calls rebuild their batch-offset
//! tables, every access is bounds-checked, and each parallel iteration
//! clones the variable environment. A [`Plan`] performs that work once,
//! at compile time —
//! the reproduction's stand-in for the original system's LLVM `-O3`
//! pipeline hoisting loop-invariant address arithmetic:
//!
//! - view offsets are strength-reduced to linear form
//!   `base + Σ stride_v · var_v` (non-affine `div`/`rem` offsets fall
//!   back to a tiny postfix program evaluated on a fixed stack);
//! - brgemm batch-offset tables — loop-invariant by construction, since
//!   tile strides are static — are computed once per op and shared by
//!   every call;
//! - buffer bounds are verified against loop extents at plan-build time
//!   (interval analysis), so steady-state execution does no checking;
//! - parallel loops dispatch contiguous index chunks to the pool, each
//!   chunk copying one fixed-size variable scratch instead of cloning a
//!   heap `Vec` per iteration.
//!
//! Compilation is total on validator-clean modules (see
//! [`crate::compile_module`]): there is no per-function fallback. Both
//! executors call the microkernels through the same
//! [`crate::invoke`] layer.

use crate::invoke::{invoke, Env, RawBuf};
pub use crate::invoke::{POp, PView};
use gc_runtime::ThreadPool;
use gc_tensor::{DataType, Storage};

/// Maximum scalar variables a function may use (the validator rejects
/// more); the per-chunk variable scratch is a stack array of this size.
pub const MAX_VARS: usize = 64;

/// Maximum operand-stack depth of a postfix offset program (the
/// validator rejects deeper offsets).
pub const MAX_PROG_STACK: usize = 8;

/// Options controlling how a compiled plan is executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions {
    /// Verify, at every intrinsic, that each evaluated offset is
    /// non-negative and that the span the kernel will touch fits the
    /// buffer — the dynamic counterpart of the bounds the plan builder
    /// proved statically. A violation panics with the buffer slot and
    /// the offending offset instead of silently reading garbage.
    ///
    /// Costs one predictable branch per view resolution when off (the
    /// default); roughly doubles address-arithmetic work when on.
    pub checked: bool,
}

impl ExecOptions {
    /// Options with runtime bounds checking enabled.
    pub fn checked() -> ExecOptions {
        ExecOptions { checked: true }
    }
}

/// One postfix instruction of a non-affine offset program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffsetOp {
    /// Push a constant.
    PushC(i64),
    /// Push a variable's current value.
    PushV(u32),
    /// Pop two, push their sum.
    Add,
    /// Pop two, push their product.
    Mul,
    /// Pop two, push the truncating quotient.
    Div,
    /// Pop two, push the remainder.
    Rem,
}

/// A compiled view offset.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOffset {
    /// Loop-invariant offset.
    Const(i64),
    /// Affine offset `base + Σ terms[i].1 * vars[terms[i].0]`.
    Linear {
        /// Constant part.
        base: i64,
        /// `(variable, stride)` pairs.
        terms: Box<[(u32, i64)]>,
    },
    /// Non-affine offset as a postfix program (div/rem by constants).
    Program(Box<[OffsetOp]>),
}

#[inline]
fn eval_program(ops: &[OffsetOp], vars: &[i64; MAX_VARS]) -> i64 {
    let mut stack = [0i64; MAX_PROG_STACK];
    let mut sp = 0usize;
    for op in ops {
        match op {
            OffsetOp::PushC(c) => {
                stack[sp] = *c;
                sp += 1;
            }
            OffsetOp::PushV(v) => {
                stack[sp] = vars[*v as usize];
                sp += 1;
            }
            OffsetOp::Add => {
                sp -= 1;
                stack[sp - 1] += stack[sp];
            }
            OffsetOp::Mul => {
                sp -= 1;
                stack[sp - 1] *= stack[sp];
            }
            OffsetOp::Div => {
                sp -= 1;
                stack[sp - 1] /= stack[sp];
            }
            OffsetOp::Rem => {
                sp -= 1;
                stack[sp - 1] %= stack[sp];
            }
        }
    }
    stack[0]
}

impl PlanOffset {
    /// Evaluate against the current variable values. The plan builder
    /// proves every offset non-negative; the executor debug-asserts it
    /// (and checked execution asserts it) before indexing.
    #[inline]
    pub fn eval(&self, vars: &[i64; MAX_VARS]) -> i64 {
        match self {
            PlanOffset::Const(c) => *c,
            PlanOffset::Linear { base, terms } => {
                let mut s = *base;
                for &(v, stride) in terms.iter() {
                    s += vars[v as usize] * stride;
                }
                s
            }
            PlanOffset::Program(ops) => eval_program(ops, vars),
        }
    }
}

/// One flat-plan instruction. Loop bodies are the instruction range
/// `(header + 1)..body_end`.
// `Op` dominates plan streams; boxing it would put a pointer chase on
// every dispatched intrinsic to shrink the rare loop headers.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PInstr {
    /// Serial counted loop.
    For {
        /// Loop variable (index into the variable scratch).
        var: u32,
        /// Static trip count.
        extent: usize,
        /// One past the last body instruction.
        body_end: usize,
    },
    /// Parallel counted loop with a precomputed chunk grain.
    ParFor {
        /// Loop variable.
        var: u32,
        /// Static trip count.
        extent: usize,
        /// One past the last body instruction.
        body_end: usize,
        /// Contiguous iterations per dispatched chunk.
        grain: usize,
    },
    /// A compiled intrinsic.
    Op(POp),
}

/// A compiled function: flat instruction array plus frame layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFunc {
    pub(crate) instrs: Box<[PInstr]>,
    pub(crate) n_params: usize,
    /// Local temporaries: `(dtype, elems)` per local, in order.
    pub(crate) locals: Box<[(DataType, usize)]>,
}

/// Counters describing what the plan builder achieved; used by tests to
/// verify that hot-path work was actually hoisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Functions compiled to plans (every function of the module).
    pub compiled_funcs: usize,
    /// View bounds checks verified at build time (none remain at run
    /// time).
    pub hoisted_bounds: usize,
    /// Offsets strength-reduced to `Const` or `Linear` form.
    pub linear_offsets: usize,
    /// Non-affine offsets compiled to postfix programs.
    pub program_offsets: usize,
    /// Parallel loops demoted to serial because their total work is
    /// below the dispatch-worthiness threshold.
    pub serialized_loops: usize,
}

/// A compiled module: one [`PlanFunc`] per module function, plus build
/// statistics.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    pub(crate) funcs: Vec<PlanFunc>,
    pub(crate) stats: PlanStats,
}

impl Plan {
    /// Build statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// Reusable per-engine execution scratch: preallocated local storages
/// and the flat buffer table. Steady-state plan execution allocates
/// nothing — locals are zero-filled in place and the table is reused.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Per module-function local storages (allocated once, re-zeroed per
    /// call).
    locals: Vec<Vec<Storage>>,
    bufs: Vec<RawBuf>,
}

impl PlanScratch {
    /// Preallocate locals for every function of `plan`.
    pub fn for_plan(plan: &Plan) -> PlanScratch {
        let locals = plan
            .funcs
            .iter()
            .map(|pf| {
                pf.locals
                    .iter()
                    .map(|&(dt, elems)| Storage::zeros(dt, elems))
                    .collect()
            })
            .collect();
        PlanScratch {
            locals,
            bufs: Vec::new(),
        }
    }
}

fn zero_storage(s: &mut Storage) {
    match s {
        Storage::F32(v) => v.fill(0.0),
        Storage::Bf16(v) => v.fill(0),
        Storage::U8(v) => v.fill(0),
        Storage::I8(v) => v.fill(0),
        Storage::I32(v) => v.fill(0),
        Storage::I64(v) => v.fill(0),
    }
}

/// Execute one compiled call: bind `args` (global indices) to the
/// function's parameters, zero its locals, run the instruction stream.
pub fn run_plan_call(
    plan: &Plan,
    func_idx: usize,
    args: &[usize],
    globals: &mut [Storage],
    pool: &ThreadPool,
    scratch: &mut PlanScratch,
) {
    run_plan_call_opts(
        plan,
        func_idx,
        args,
        globals,
        pool,
        scratch,
        ExecOptions::default(),
    );
}

/// [`run_plan_call`] with explicit [`ExecOptions`] (checked mode).
pub fn run_plan_call_opts(
    plan: &Plan,
    func_idx: usize,
    args: &[usize],
    globals: &mut [Storage],
    pool: &ThreadPool,
    scratch: &mut PlanScratch,
    opts: ExecOptions,
) {
    let pf = &plan.funcs[func_idx];
    scratch.bufs.clear();
    for &a in args {
        // Duplicate args share a Storage; RawBuf::of is a pure pointer
        // materialization, so materializing twice yields identical bufs.
        scratch.bufs.push(RawBuf::of(&mut globals[a], opts.checked));
    }
    let locals = &mut scratch.locals[func_idx];
    for s in locals.iter_mut() {
        zero_storage(s);
    }
    for s in locals.iter_mut() {
        scratch.bufs.push(RawBuf::of(s, opts.checked));
    }
    let ctx = Ctx {
        bufs: &scratch.bufs,
        pool,
        checked: opts.checked,
    };
    let mut vars = [0i64; MAX_VARS];
    run_range(&pf.instrs, 0, pf.instrs.len(), &ctx, &mut vars);
}

#[derive(Clone, Copy)]
struct Ctx<'a> {
    bufs: &'a [RawBuf],
    pool: &'a ThreadPool,
    checked: bool,
}

/// The plan executor's [`Env`]: the call frame plus the variable
/// scratch at the current loop position.
struct PlanEnv<'a> {
    ctx: &'a Ctx<'a>,
    vars: &'a [i64; MAX_VARS],
}

impl Env for PlanEnv<'_> {
    type Off = PlanOffset;

    #[inline]
    fn buf(&self, slot: u32) -> RawBuf {
        self.ctx.bufs[slot as usize]
    }

    #[inline]
    fn eval(&self, off: &PlanOffset) -> i64 {
        off.eval(self.vars)
    }

    #[inline]
    fn checked(&self) -> bool {
        self.ctx.checked
    }
}

fn run_range(
    instrs: &[PInstr],
    mut pc: usize,
    end: usize,
    ctx: &Ctx<'_>,
    vars: &mut [i64; MAX_VARS],
) {
    while pc < end {
        match &instrs[pc] {
            PInstr::For {
                var,
                extent,
                body_end,
            } => {
                for i in 0..*extent {
                    vars[*var as usize] = i as i64;
                    run_range(instrs, pc + 1, *body_end, ctx, vars);
                }
                pc = *body_end;
            }
            PInstr::ParFor {
                var,
                extent,
                body_end,
                grain,
            } => {
                let extent = *extent;
                if ctx.pool.threads() > 1 && extent > 1 {
                    let var = *var as usize;
                    let body_end = *body_end;
                    // One stack copy of the variable scratch per chunk —
                    // this replaces the reference walker's
                    // per-iteration `Vec` clone.
                    let proto: [i64; MAX_VARS] = *vars;
                    ctx.pool
                        .parallel_for_grained(extent, *grain, |start, stop| {
                            let mut my_vars = proto;
                            for i in start..stop {
                                my_vars[var] = i as i64;
                                run_range(instrs, pc + 1, body_end, ctx, &mut my_vars);
                            }
                        });
                } else {
                    for i in 0..extent {
                        vars[*var as usize] = i as i64;
                        run_range(instrs, pc + 1, *body_end, ctx, vars);
                    }
                }
                pc = *body_end;
            }
            PInstr::Op(op) => {
                invoke(op, &PlanEnv { ctx, vars });
                pc += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_offset_evals() {
        let vars = [0i64; MAX_VARS];
        assert_eq!(PlanOffset::Const(17).eval(&vars), 17);
    }

    #[test]
    fn linear_offset_evals() {
        let mut vars = [0i64; MAX_VARS];
        vars[2] = 3;
        vars[5] = 7;
        let off = PlanOffset::Linear {
            base: 10,
            terms: vec![(2, 100), (5, 2)].into_boxed_slice(),
        };
        assert_eq!(off.eval(&vars), 10 + 300 + 14);
    }

    #[test]
    fn program_offset_evals_div_rem() {
        // (v0 / 3) * 8 + (v0 % 3)
        let mut vars = [0i64; MAX_VARS];
        vars[0] = 7;
        let prog = PlanOffset::Program(
            vec![
                OffsetOp::PushV(0),
                OffsetOp::PushC(3),
                OffsetOp::Div,
                OffsetOp::PushC(8),
                OffsetOp::Mul,
                OffsetOp::PushV(0),
                OffsetOp::PushC(3),
                OffsetOp::Rem,
                OffsetOp::Add,
            ]
            .into_boxed_slice(),
        );
        assert_eq!(prog.eval(&vars), (7 / 3) * 8 + (7 % 3));
    }
}
