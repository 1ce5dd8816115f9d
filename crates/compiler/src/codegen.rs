//! Code generation from the workload IR to the IA-64-like ISA.
//!
//! The generator plays the role of the ORC compiler in the paper:
//! `O2` emits plain loops, `O3` additionally runs the Mowry-style static
//! prefetcher (see [`crate::prefetch`]), and two options mirror the
//! paper's restricted compilations (§4.3): `reserve_registers` keeps
//! `r27`–`r30`/`p6` out of the allocator so ADORE can use them, and
//! `software_pipelining` applies a two-stage modulo schedule to
//! eligible loops (standing in for ORC's rotating-register SWP — such
//! loops are marked and the runtime optimizer must skip them).
//!
//! Loops marked [`resume`](crate::ir::LoopSpec::resume) keep their base
//! registers live across phase repetitions (initialized once before the
//! phase's repeat loop, wrapped back to the array start when they run
//! out of footprint), so small per-repetition trip counts still stream
//! over multi-megabyte arrays.

use std::collections::HashMap;

use isa::{AccessSize, Addr, Asm, AsmError, CmpOp, Fr, Gr, Pr, Program, CODE_BASE};

use crate::ir::{AddrComplexity, ArrayDecl, Kernel, LoopSpec, RefSpec};
use crate::prefetch::{static_prefetch_plan, PrefetchPlan};

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No static prefetching.
    O2,
    /// Static prefetching on (Mowry-style), as ORC does at `-O3`.
    O3,
}

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level.
    pub opt_level: OptLevel,
    /// Reserve `r27`–`r30` and `p6` for the dynamic optimizer.
    pub reserve_registers: bool,
    /// Software-pipeline eligible loops (two-stage modulo schedule).
    pub software_pipelining: bool,
    /// When set, static prefetching is restricted to loops whose name is
    /// in the set (profile-guided prefetching, paper §4.2). The set is
    /// ordered, so the options' `Debug` text does not depend on insertion
    /// order.
    pub prefetch_filter: Option<std::collections::BTreeSet<String>>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            opt_level: OptLevel::O2,
            reserve_registers: true,
            software_pipelining: false,
            prefetch_filter: None,
        }
    }
}

impl CompileOptions {
    /// The paper's restricted `O2` build: no prefetch, registers
    /// reserved, SWP disabled.
    pub fn o2() -> CompileOptions {
        CompileOptions::default()
    }

    /// The paper's restricted `O3` build: static prefetch, registers
    /// reserved, SWP disabled.
    pub fn o3() -> CompileOptions {
        CompileOptions { opt_level: OptLevel::O3, ..CompileOptions::default() }
    }

    /// The *original* `O2` of Fig. 10: SWP on, nothing reserved.
    pub fn o2_original() -> CompileOptions {
        CompileOptions {
            reserve_registers: false,
            software_pipelining: true,
            ..CompileOptions::default()
        }
    }
}

/// Kind of a memory reference recorded in loop metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// Direct array access.
    Direct,
    /// Two-level indirect access.
    Indirect,
    /// Pointer-chasing traversal.
    PointerChase,
    /// Jump-pointer traversal (payload read through a jump pointer).
    JumpPointer,
}

/// Metadata about one compiled loop (the compiler's loop table, which
/// the profile-guided pass uses to map sampled pcs back to loops).
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Loop name.
    pub name: String,
    /// First bundle of the loop body (branch target of the back edge).
    pub head: Addr,
    /// One past the last bundle of the loop (including the back edge).
    pub end: Addr,
    /// True when the loop was software-pipelined (rotating registers on
    /// real hardware — ADORE must skip it).
    pub software_pipelined: bool,
    /// True when the static prefetcher inserted prefetches.
    pub has_static_prefetch: bool,
    /// True when the loop has at least one analyzable direct reference
    /// (i.e. static prefetching could be applied).
    pub eligible_for_static_prefetch: bool,
    /// Trip count per phase repetition.
    pub trip: u64,
    /// Reference kinds in the body.
    pub ref_kinds: Vec<RefKind>,
}

impl LoopInfo {
    /// True if `addr` lies within the loop's bundle range.
    pub fn contains(&self, addr: Addr) -> bool {
        let a = addr.bundle_align().0;
        a >= self.head.0 && a < self.end.0
    }
}

/// A compiled workload.
#[derive(Debug, Clone)]
pub struct CompiledBinary {
    /// The program image.
    pub program: Program,
    /// Loop metadata in emission order.
    pub loops: Vec<LoopInfo>,
    /// Loops that received static prefetches (Table 1's "loops
    /// scheduled for prefetch").
    pub prefetched_loops: usize,
}

// Compiled binaries are built inside engine worker threads and cached
// across cells; both directions require `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledBinary>();
    assert_send_sync::<CompileOptions>();
};

impl CompiledBinary {
    /// The innermost loop containing `addr`, if any.
    pub fn loop_containing(&self, addr: Addr) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.contains(addr))
    }
}

/// Compilation error.
#[derive(Debug)]
pub enum CompileError {
    /// The kernel failed validation.
    InvalidKernel(String),
    /// Assembly failed.
    Asm(AsmError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidKernel(m) => write!(f, "invalid kernel: {m}"),
            CompileError::Asm(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<AsmError> for CompileError {
    fn from(e: AsmError) -> CompileError {
        CompileError::Asm(e)
    }
}

/// Register pool for per-phase allocation.
struct Pool {
    regs: Vec<u8>,
    next: usize,
}

impl Pool {
    fn new(reserve: bool) -> Pool {
        let mut regs = Vec::new();
        if !reserve {
            regs.extend([27u8, 28, 29, 30]);
        }
        regs.extend(32..=100u8);
        Pool { regs, next: 0 }
    }

    fn take(&mut self) -> Gr {
        let r = self.regs[self.next];
        self.next += 1;
        assert!(self.next < self.regs.len(), "register pool exhausted");
        Gr(r)
    }
}

struct FpPool {
    next: u8,
}

impl FpPool {
    fn new() -> FpPool {
        FpPool { next: 8 }
    }

    fn take(&mut self) -> Fr {
        let r = self.next;
        self.next += 1;
        assert!(self.next < 100, "fp register pool exhausted");
        Fr(r)
    }
}

fn access_size(elem_bytes: u64) -> AccessSize {
    match elem_bytes {
        1 => AccessSize::U1,
        2 => AccessSize::U2,
        4 => AccessSize::U4,
        _ => AccessSize::U8,
    }
}

fn log2_bytes(elem_bytes: u64) -> u8 {
    elem_bytes.trailing_zeros() as u8
}

/// Per-reference codegen state carried from the preheader to the body.
enum RefState {
    DirectInt {
        base: Gr,
        stride: i64,
        size: AccessSize,
        write: bool,
        swp_bufs: Option<(Gr, Gr)>,
    },
    DirectFp {
        base: Gr,
        stride: i64,
        write: bool,
        swp_bufs: Option<(Fr, Fr)>,
    },
    DirectFpConv {
        index: Gr,
        base_const: Gr,
        stride_elems: i64,
        shift: u8,
        size: AccessSize,
        fp: bool,
        tmp_f: Fr,
        tmp_g: Gr,
        addr: Gr,
    },
    DirectCall {
        addr_reg: Gr,
        helper: String,
        size: AccessSize,
    },
    Indirect {
        idx_base: Gr,
        data_base: Gr,
        shift: u8,
        size: AccessSize,
        data_fp: bool,
    },
    PointerChase {
        ptr: Gr,
        next_off: i64,
        payload_off: i64,
    },
    JumpPointer {
        ptr: Gr,
        next_off: i64,
        payload_off: i64,
        jump_off: i64,
    },
}

/// A wrap-around check for a resumable walking register: when `reg`
/// passes `limit`, reset it to `reset_to`. Extra registers (static
/// prefetch pointers) are reset along with it.
struct WrapCheck {
    reg: Gr,
    limit: i64,
    reset_to: i64,
    also_reset: Vec<(Gr, i64)>,
}

/// One loop occurrence, prepared (preheader emitted) but body pending.
struct PreparedLoop {
    occ_name: String,
    spec_index: usize,
    states: Vec<RefState>,
    pf_regs: Vec<(usize, Gr, i64)>,
    acc: Gr,
    facc: Fr,
    swp_applied: bool,
    plan: PrefetchPlan,
    ref_kinds: Vec<RefKind>,
    eligible: bool,
    wraps: Vec<WrapCheck>,
    helper_triples: Vec<(String, Gr, i64)>,
}

/// Compiles a kernel.
///
/// # Errors
///
/// Fails when the kernel does not validate or assembly fails.
pub fn compile(kernel: &Kernel, opts: &CompileOptions) -> Result<CompiledBinary, CompileError> {
    kernel.validate().map_err(CompileError::InvalidKernel)?;

    let mut asm = Asm::new();
    let mut infos: Vec<(LoopInfo, usize, usize)> = Vec::new(); // info, head idx, end idx
    let mut helper_ranges: Vec<(String, Gr, i64)> = Vec::new();
    let mut name_counts: HashMap<String, usize> = HashMap::new();

    asm.global("main");

    let phase_reg = Gr(8);
    for (pi, phase) in kernel.phases.iter().enumerate() {
        let mut pool = Pool::new(opts.reserve_registers);
        let mut fpool = FpPool::new();

        // Prepare every loop occurrence of the phase. Preheaders of
        // resumable loops are emitted here, before the repeat loop.
        let mut prepared: Vec<PreparedLoop> = Vec::new();
        for &li in &phase.loops {
            let spec = &kernel.loops[li];
            let count = name_counts.entry(spec.name.clone()).or_insert(0);
            let occ_name =
                if *count == 0 { spec.name.clone() } else { format!("{}@{}", spec.name, count) };
            *count += 1;
            if spec.resume {
                let p = prepare_loop(
                    &mut asm, kernel, spec, li, &occ_name, opts, &mut pool, &mut fpool,
                );
                prepared.push(p);
            } else {
                // Placeholder: prepared inside the repeat loop below.
                prepared.push(PreparedLoop {
                    occ_name,
                    spec_index: li,
                    states: Vec::new(),
                    pf_regs: Vec::new(),
                    acc: Gr(0),
                    facc: Fr(0),
                    swp_applied: false,
                    plan: PrefetchPlan::default(),
                    ref_kinds: Vec::new(),
                    eligible: false,
                    wraps: Vec::new(),
                    helper_triples: Vec::new(),
                });
            }
        }

        asm.movl(phase_reg, phase.reps as i64);
        asm.flush();
        let phase_top = format!("phase{pi}_top");
        asm.label(phase_top.clone());

        for mut p in prepared {
            let li = p.spec_index;
            let spec = &kernel.loops[li];
            if !spec.resume {
                let occ = p.occ_name.clone();
                p = prepare_loop(&mut asm, kernel, spec, li, &occ, opts, &mut pool, &mut fpool);
            }
            let (info, head, end) = emit_body(&mut asm, spec, &mut p);
            emit_wrap_checks(&mut asm, &p.wraps);
            infos.push((info, head, end));
            helper_ranges.extend(p.helper_triples.iter().cloned());
        }

        asm.addi(phase_reg, phase_reg, -1);
        asm.cmpi(CmpOp::Gt, Pr(1), Pr(2), phase_reg, 0);
        asm.br_cond(Pr(1), phase_top);
        asm.flush();
    }
    asm.halt();

    // Address-computation helpers (Call complexity) live after the halt.
    for (label, base, stride) in &helper_ranges {
        asm.global(label.clone());
        // Return the current address in the dedicated register and
        // advance the base — opaque to dependence slicing.
        asm.mov(Gr(26), *base);
        asm.addi(*base, *base, *stride);
        asm.ret();
    }

    let program = asm.finish(CODE_BASE)?;

    let mut loops = Vec::with_capacity(infos.len());
    let mut prefetched = 0usize;
    for (mut info, head, end) in infos {
        info.head = Addr(CODE_BASE + head as u64 * Addr::BUNDLE_BYTES);
        info.end = Addr(CODE_BASE + end as u64 * Addr::BUNDLE_BYTES);
        if info.has_static_prefetch {
            prefetched += 1;
        }
        loops.push(info);
    }

    Ok(CompiledBinary { program, loops, prefetched_loops: prefetched })
}

/// Emits the preheader of one loop occurrence and returns its state.
#[allow(clippy::too_many_arguments)]
fn prepare_loop(
    asm: &mut Asm,
    kernel: &Kernel,
    spec: &LoopSpec,
    spec_index: usize,
    occ_name: &str,
    opts: &CompileOptions,
    pool: &mut Pool,
    fpool: &mut FpPool,
) -> PreparedLoop {
    let acc = pool.take();
    let facc = fpool.take();
    let swp_applied = opts.software_pipelining && swp_eligible(kernel, spec);

    let plan = if opts.opt_level == OptLevel::O3 {
        let allowed = opts
            .prefetch_filter
            .as_ref()
            .map(|f| f.contains(&spec.name) || f.contains(occ_name))
            .unwrap_or(true);
        if allowed {
            static_prefetch_plan(kernel, spec)
        } else {
            PrefetchPlan::default()
        }
    } else {
        PrefetchPlan::default()
    };

    let mut states: Vec<RefState> = Vec::new();
    let mut ref_kinds = Vec::new();
    let mut eligible = false;
    let mut wraps: Vec<WrapCheck> = Vec::new();
    let mut helper_triples: Vec<(String, Gr, i64)> = Vec::new();

    for (ri, r) in spec.refs.iter().enumerate() {
        match *r {
            RefSpec::Direct { array, stride_elems, write, alias_ambiguous } => {
                ref_kinds.push(RefKind::Direct);
                let a = &kernel.arrays[array];
                if !alias_ambiguous && spec.complexity == AddrComplexity::Simple {
                    eligible = true;
                }
                let stride = stride_elems * a.elem_bytes as i64;
                match spec.complexity {
                    AddrComplexity::Simple => {
                        let base = pool.take();
                        let start = start_addr(a, stride_elems, spec.trip) as i64;
                        asm.movl(base, start);
                        if spec.resume {
                            wraps.push(wrap_for(a, spec.trip, stride, base, start));
                        }
                        if a.fp {
                            let swp_bufs = if swp_applied && !write {
                                let b0 = fpool.take();
                                let b1 = fpool.take();
                                asm.ldf(b0, base, stride);
                                asm.ldf(b1, base, stride);
                                Some((b0, b1))
                            } else {
                                None
                            };
                            states.push(RefState::DirectFp { base, stride, write, swp_bufs });
                        } else {
                            let swp_bufs = if swp_applied && !write {
                                let b0 = pool.take();
                                let b1 = pool.take();
                                asm.ld(access_size(a.elem_bytes), b0, base, stride);
                                asm.ld(access_size(a.elem_bytes), b1, base, stride);
                                Some((b0, b1))
                            } else {
                                None
                            };
                            states.push(RefState::DirectInt {
                                base,
                                stride,
                                size: access_size(a.elem_bytes),
                                write,
                                swp_bufs,
                            });
                        }
                    }
                    AddrComplexity::FpConversion => {
                        let index = pool.take();
                        let base_const = pool.take();
                        asm.movl(index, 0);
                        asm.movl(base_const, a.base as i64);
                        if spec.resume {
                            let span = a.len as i64 - spec.trip as i64 * stride_elems.abs() - 32;
                            wraps.push(WrapCheck {
                                reg: index,
                                limit: span.max(1),
                                reset_to: 0,
                                also_reset: Vec::new(),
                            });
                        }
                        states.push(RefState::DirectFpConv {
                            index,
                            base_const,
                            stride_elems,
                            shift: log2_bytes(a.elem_bytes),
                            size: access_size(a.elem_bytes),
                            fp: a.fp,
                            tmp_f: fpool.take(),
                            tmp_g: pool.take(),
                            addr: pool.take(),
                        });
                    }
                    AddrComplexity::Call => {
                        let base = pool.take();
                        let start = a.base as i64;
                        asm.movl(base, start);
                        if spec.resume {
                            wraps.push(wrap_for(a, spec.trip, stride, base, start));
                        }
                        let helper = format!("{occ_name}_addr{ri}");
                        helper_triples.push((helper.clone(), base, stride));
                        states.push(RefState::DirectCall {
                            addr_reg: Gr(26),
                            helper,
                            size: access_size(a.elem_bytes),
                        });
                    }
                }
            }
            RefSpec::Indirect { index_array, data_array } => {
                ref_kinds.push(RefKind::Indirect);
                let ia = &kernel.arrays[index_array];
                let da = &kernel.arrays[data_array];
                let idx_base = pool.take();
                let data_base = pool.take();
                asm.movl(idx_base, ia.base as i64);
                asm.movl(data_base, da.base as i64);
                if spec.resume {
                    wraps.push(wrap_for(ia, spec.trip, 4, idx_base, ia.base as i64));
                }
                states.push(RefState::Indirect {
                    idx_base,
                    data_base,
                    shift: log2_bytes(da.elem_bytes),
                    size: access_size(da.elem_bytes),
                    data_fp: da.fp,
                });
            }
            RefSpec::PointerChase { list } => {
                ref_kinds.push(RefKind::PointerChase);
                let l = &kernel.lists[list];
                let ptr = pool.take();
                asm.movl(ptr, l.head as i64);
                // Circular lists resume naturally: no wrap needed.
                states.push(RefState::PointerChase {
                    ptr,
                    next_off: l.next_offset as i64,
                    payload_off: l.payload_offset as i64,
                });
            }
            RefSpec::JumpPointer { list, jump_offset } => {
                ref_kinds.push(RefKind::JumpPointer);
                let l = &kernel.lists[list];
                let ptr = pool.take();
                asm.movl(ptr, l.head as i64);
                // Circular lists resume naturally: no wrap needed.
                states.push(RefState::JumpPointer {
                    ptr,
                    next_off: l.next_offset as i64,
                    payload_off: l.payload_offset as i64,
                    jump_off: jump_offset as i64,
                });
            }
        }
    }

    // Static-prefetch pointer initialization.
    let mut pf_regs: Vec<(usize, Gr, i64)> = Vec::new();
    for item in &plan.items {
        if let RefSpec::Direct { array, stride_elems, .. } = spec.refs[item.ref_index] {
            let a = &kernel.arrays[array];
            let stride = stride_elems * a.elem_bytes as i64;
            let pf = pool.take();
            let init = start_addr(a, stride_elems, spec.trip) as i64 + item.distance_bytes;
            asm.movl(pf, init);
            // Resumable loops reset the prefetch pointer together with
            // the base it shadows.
            if spec.resume {
                for w in wraps.iter_mut() {
                    if states.iter().enumerate().any(|(si, st)| {
                        si == item.ref_index
                            && matches!(st,
                                RefState::DirectInt { base, .. } | RefState::DirectFp { base, .. }
                                    if *base == w.reg)
                    }) {
                        w.also_reset.push((pf, init));
                    }
                }
            }
            pf_regs.push((item.ref_index, pf, stride));
        }
    }
    asm.flush();

    PreparedLoop {
        occ_name: occ_name.to_string(),
        spec_index,
        states,
        pf_regs,
        acc,
        facc,
        swp_applied,
        plan,
        ref_kinds,
        eligible,
        wraps,
        helper_triples,
    }
}

fn wrap_for(a: &ArrayDecl, trip: u64, stride: i64, base: Gr, start: i64) -> WrapCheck {
    let span_bytes = (a.len * a.elem_bytes) as i64;
    let margin = trip as i64 * stride.abs() + 16 * a.elem_bytes as i64;
    let limit = if stride >= 0 {
        a.base as i64 + (span_bytes - margin).max(0)
    } else {
        a.base as i64 + margin.min(span_bytes)
    };
    WrapCheck { reg: base, limit, reset_to: start, also_reset: Vec::new() }
}

/// Emits a loop body; returns the `LoopInfo` plus head/end bundle
/// indices (resolved to addresses by `compile`).
fn emit_body(asm: &mut Asm, spec: &LoopSpec, p: &mut PreparedLoop) -> (LoopInfo, usize, usize) {
    let trip_reg = Gr(9);
    let acc = p.acc;
    let facc = p.facc;
    let occ_name = &p.occ_name;

    let pair_trips = (spec.trip / 2).max(1) as i64;
    asm.movl(trip_reg, if p.swp_applied { pair_trips } else { spec.trip as i64 });
    asm.flush();

    let body_label = format!("{occ_name}_body");
    let head_idx = asm.here();
    asm.label(body_label.clone());

    if p.swp_applied {
        // Two-stage software pipeline, unrolled twice: each use consumes
        // the value its buffer received a full iteration earlier.
        for u in 0..2usize {
            for (ri, st) in p.states.iter().enumerate() {
                if let Some(&(_, pf, stride)) = p.pf_regs.iter().find(|(idx, _, _)| *idx == ri) {
                    asm.lfetch(pf, stride);
                }
                match st {
                    RefState::DirectInt { base, stride, size, write, swp_bufs } => {
                        if *write {
                            asm.st(*size, *base, acc, *stride);
                        } else {
                            let (b0, b1) = swp_bufs.expect("SWP load has buffers");
                            let buf = if u == 0 { b0 } else { b1 };
                            asm.add(acc, buf, acc);
                            asm.ld(*size, buf, *base, *stride);
                        }
                    }
                    RefState::DirectFp { base, stride, write, swp_bufs } => {
                        if *write {
                            asm.stf(*base, facc, *stride);
                        } else {
                            let (b0, b1) = swp_bufs.expect("SWP load has buffers");
                            let buf = if u == 0 { b0 } else { b1 };
                            asm.fma(facc, buf, Fr::ONE, facc);
                            asm.ldf(buf, *base, *stride);
                        }
                    }
                    _ => unreachable!("SWP eligibility admits direct refs only"),
                }
            }
            for _ in 0..spec.int_ops {
                asm.add(acc, acc, acc);
            }
            for _ in 0..spec.fp_ops {
                asm.fma(facc, facc, Fr::ONE, facc);
            }
        }
        if spec.code_bloat > 0 {
            asm.pad_bundles(spec.code_bloat);
        }
        asm.addi(trip_reg, trip_reg, -1);
        asm.cmpi(CmpOp::Gt, Pr(1), Pr(2), trip_reg, 0);
        asm.br_cond(Pr(1), body_label);
        let end_idx = asm.here();
        return (
            LoopInfo {
                name: occ_name.clone(),
                head: Addr(0),
                end: Addr(0),
                software_pipelined: true,
                has_static_prefetch: !p.plan.items.is_empty(),
                eligible_for_static_prefetch: p.eligible,
                trip: spec.trip,
                ref_kinds: p.ref_kinds.clone(),
            },
            head_idx,
            end_idx,
        );
    }

    // Split point bookkeeping for fragmented bodies.
    let mut frag_budget = spec.fragments.max(1);
    let mut emitted_frags = 1usize;

    // Deferred uses when batching loads ahead of their consumers.
    enum Val {
        I(Gr),
        F(Fr),
    }
    let mut deferred: Vec<Val> = Vec::new();

    // Value registers: a fixed high range (above the phase pool),
    // reused round-robin per reference.
    let mut vi = 0u8;
    let mut vf = 0u8;
    let mut int_val = || {
        let r = Gr(104 + vi % 22);
        vi += 1;
        r
    };
    let mut fp_val = || {
        let r = Fr(104 + vf % 22);
        vf += 1;
        r
    };

    let n_states = p.states.len();
    for (ri, st) in p.states.iter_mut().enumerate() {
        if let Some(&(_, pf, stride)) = p.pf_regs.iter().find(|(idx, _, _)| *idx == ri) {
            asm.lfetch(pf, stride);
        }
        match st {
            RefState::DirectInt { base, stride, size, write, .. } => {
                if *write {
                    asm.st(*size, *base, acc, *stride);
                } else {
                    let v = int_val();
                    asm.ld(*size, v, *base, *stride);
                    if spec.batch_uses {
                        deferred.push(Val::I(v));
                    } else {
                        asm.add(acc, v, acc);
                    }
                }
            }
            RefState::DirectFp { base, stride, write, .. } => {
                if *write {
                    asm.stf(*base, facc, *stride);
                } else {
                    let v = fp_val();
                    asm.ldf(v, *base, *stride);
                    if spec.batch_uses {
                        deferred.push(Val::F(v));
                    } else {
                        asm.fma(facc, v, Fr::ONE, facc);
                    }
                }
            }
            RefState::DirectFpConv {
                index,
                base_const,
                stride_elems,
                shift,
                size,
                fp,
                tmp_f,
                tmp_g,
                addr,
            } => {
                asm.emit(isa::Op::Setf { d: *tmp_f, s: *index });
                asm.emit(isa::Op::Getf { d: *tmp_g, s: *tmp_f });
                asm.shladd(*addr, *tmp_g, *shift, *base_const);
                if *fp {
                    let v = fp_val();
                    asm.ldf(v, *addr, 0);
                    asm.fma(facc, v, Fr::ONE, facc);
                } else {
                    let v = int_val();
                    asm.ld(*size, v, *addr, 0);
                    asm.add(acc, v, acc);
                }
                asm.addi(*index, *index, *stride_elems);
            }
            RefState::DirectCall { addr_reg, helper, size } => {
                asm.br_call(helper.clone());
                let v = int_val();
                asm.ld(*size, v, *addr_reg, 0);
                asm.add(acc, v, acc);
            }
            RefState::Indirect { idx_base, data_base, shift, size, data_fp } => {
                let idx = int_val();
                asm.ld(AccessSize::U4, idx, *idx_base, 4);
                let addr = int_val();
                asm.shladd(addr, idx, *shift, *data_base);
                if *data_fp {
                    let v = fp_val();
                    asm.ldf(v, addr, 0);
                    if spec.batch_uses {
                        deferred.push(Val::F(v));
                    } else {
                        asm.fma(facc, v, Fr::ONE, facc);
                    }
                } else {
                    let v = int_val();
                    asm.ld(*size, v, addr, 0);
                    if spec.batch_uses {
                        deferred.push(Val::I(v));
                    } else {
                        asm.add(acc, v, acc);
                    }
                }
            }
            RefState::PointerChase { ptr, next_off, payload_off } => {
                // Fig. 5 C shape: advance the recurrent pointer through
                // memory, then touch the payload.
                let t = int_val();
                asm.addi(t, *ptr, *next_off);
                asm.ld(AccessSize::U8, *ptr, t, 0);
                let u = int_val();
                let v = int_val();
                asm.addi(u, *ptr, *payload_off);
                asm.ld(AccessSize::U8, v, u, 0);
                asm.add(acc, v, acc);
            }
            RefState::JumpPointer { ptr, next_off, payload_off, jump_off } => {
                // Jump-pointer shape: the payload address comes from an
                // intermediate load (`q = p->jump`) rather than the
                // recurrent pointer, then `p` advances via `next`.
                let t = int_val();
                asm.addi(t, *ptr, *jump_off);
                let q = int_val();
                asm.ld(AccessSize::U8, q, t, 0);
                let u = int_val();
                asm.addi(u, q, *payload_off);
                let v = int_val();
                asm.ld(AccessSize::U8, v, u, 0);
                asm.add(acc, v, acc);
                let t2 = int_val();
                asm.addi(t2, *ptr, *next_off);
                asm.ld(AccessSize::U8, *ptr, t2, 0);
            }
        }

        if frag_budget > 1 && ri + 1 < n_states {
            let next = format!("{occ_name}_frag{emitted_frags}");
            asm.br(next.clone());
            asm.pad_bundles(7);
            asm.label(next);
            emitted_frags += 1;
            frag_budget -= 1;
        }
    }

    // Batched uses: all loads issued above, consumers only now, so
    // independent misses overlap in the MSHRs.
    for v in deferred {
        match v {
            Val::I(r) => asm.add(acc, r, acc),
            Val::F(r) => asm.fma(facc, r, Fr::ONE, facc),
        }
    }

    // Compute tail: dependence chains on the accumulators.
    for _ in 0..spec.int_ops {
        asm.add(acc, acc, acc);
    }
    for _ in 0..spec.fp_ops {
        asm.fma(facc, facc, Fr::ONE, facc);
    }
    if spec.code_bloat > 0 {
        asm.pad_bundles(spec.code_bloat);
    }

    asm.addi(trip_reg, trip_reg, -1);
    asm.cmpi(CmpOp::Gt, Pr(1), Pr(2), trip_reg, 0);
    asm.br_cond(Pr(1), body_label);
    let end_idx = asm.here();

    (
        LoopInfo {
            name: occ_name.clone(),
            head: Addr(0),
            end: Addr(0),
            software_pipelined: false,
            has_static_prefetch: !p.plan.items.is_empty(),
            eligible_for_static_prefetch: p.eligible,
            trip: spec.trip,
            ref_kinds: p.ref_kinds.clone(),
        },
        head_idx,
        end_idx,
    )
}

/// Emits the wrap-around checks of a resumable loop (run once per phase
/// repetition, after the loop exits).
fn emit_wrap_checks(asm: &mut Asm, wraps: &[WrapCheck]) {
    for w in wraps {
        asm.cmpi(CmpOp::Ge, Pr(3), Pr(4), w.reg, w.limit);
        asm.emit(isa::Insn::predicated(Pr(3), isa::Op::MovL { d: w.reg, imm: w.reset_to }));
        for &(extra, value) in &w.also_reset {
            asm.emit(isa::Insn::predicated(Pr(3), isa::Op::MovL { d: extra, imm: value }));
        }
        asm.flush();
    }
}

/// Whether SWP applies: simple, contiguous loops of provably-unaliased
/// direct floating-point references only. Rotating-register pipelining
/// cannot handle pointer chases or indirect gathers; reordering loads
/// across iterations needs independence proofs (aliased parameters
/// disqualify, §1.1); and ORC's modulo scheduler triggered almost
/// exclusively on FP loops.
fn swp_eligible(kernel: &Kernel, spec: &LoopSpec) -> bool {
    spec.complexity == AddrComplexity::Simple
        && spec.fragments <= 1
        && !spec.refs.is_empty()
        && spec.refs.iter().all(|r| match *r {
            RefSpec::Direct { array, alias_ambiguous, .. } => {
                !alias_ambiguous && kernel.arrays[array].fp
            }
            _ => false,
        })
}

/// Start address of a direct walk: negative strides begin at the end.
fn start_addr(a: &ArrayDecl, stride_elems: i64, trip: u64) -> u64 {
    if stride_elems >= 0 {
        a.base
    } else {
        let span = (trip as i64 * (-stride_elems) + 8) as u64;
        a.base + span.min(a.len.saturating_sub(1)) * a.elem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ListDecl, Phase};
    use sim::{Machine, MachineConfig};

    fn simple_kernel(trip: u64, reps: u64) -> Kernel {
        let mut k = Kernel::new("t");
        let a =
            k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: trip + 32, fp: false });
        let l = k.add_loop(LoopSpec::new(
            "walk",
            trip,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.phases.push(Phase { reps, loops: vec![l] });
        k
    }

    fn run(bin: &CompiledBinary, arena: u64) -> Machine {
        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(arena, 64);
        m.run_to_halt();
        m
    }

    #[test]
    fn o2_compiles_and_runs() {
        let k = simple_kernel(1000, 3);
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        assert_eq!(bin.prefetched_loops, 0);
        assert_eq!(bin.loops.len(), 1);
        let m = run(&bin, 1 << 20);
        assert!(m.is_halted());
        assert!(m.retired() > 3 * 1000);
    }

    #[test]
    fn o3_inserts_prefetches_and_still_runs() {
        let k = simple_kernel(4000, 2);
        let o2 = compile(&k, &CompileOptions::o2()).unwrap();
        let o3 = compile(&k, &CompileOptions::o3()).unwrap();
        assert_eq!(o3.prefetched_loops, 1);
        assert!(o3.loops[0].has_static_prefetch);
        assert!(o3.program.size_bytes() > o2.program.size_bytes());
        let m2 = run(&o2, 1 << 20);
        let m3 = run(&o3, 1 << 20);
        assert!(
            m3.cycles() < m2.cycles(),
            "static prefetch should win on a striding loop: {} vs {}",
            m3.cycles(),
            m2.cycles()
        );
    }

    #[test]
    fn prefetch_filter_suppresses() {
        let k = simple_kernel(1000, 1);
        let mut opts = CompileOptions::o3();
        opts.prefetch_filter = Some(std::collections::BTreeSet::new());
        let bin = compile(&k, &opts).unwrap();
        assert_eq!(bin.prefetched_loops, 0);
    }

    #[test]
    fn aliased_refs_are_not_statically_prefetched() {
        let mut k = Kernel::new("alias");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 5000, fp: false });
        let l = k.add_loop(LoopSpec::new(
            "walk",
            4000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: true,
            }],
        ));
        k.phases.push(Phase { reps: 1, loops: vec![l] });
        let bin = compile(&k, &CompileOptions::o3()).unwrap();
        assert_eq!(bin.prefetched_loops, 0);
    }

    fn simple_fp_kernel(trip: u64, reps: u64) -> Kernel {
        let mut k = Kernel::new("t");
        let a =
            k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: trip + 32, fp: true });
        let l = k.add_loop(
            LoopSpec::new(
                "walk",
                trip,
                vec![RefSpec::Direct {
                    array: a,
                    stride_elems: 1,
                    write: false,
                    alias_ambiguous: false,
                }],
            )
            .with_compute(0, 1),
        );
        k.phases.push(Phase { reps, loops: vec![l] });
        k
    }

    #[test]
    fn swp_marks_loops_and_speeds_them_up() {
        let k = simple_fp_kernel(20_000, 2);
        let plain = compile(&k, &CompileOptions::o2()).unwrap();
        let mut opts = CompileOptions::o2();
        opts.software_pipelining = true;
        let swp = compile(&k, &opts).unwrap();
        assert!(swp.loops[0].software_pipelined);
        assert!(!plain.loops[0].software_pipelined);
        let mp = run(&plain, 4 << 20);
        let ms = run(&swp, 4 << 20);
        assert!(
            ms.cycles() < mp.cycles(),
            "SWP should overlap load-use: {} vs {}",
            ms.cycles(),
            mp.cycles()
        );
    }

    #[test]
    fn pointer_chase_compiles_and_runs() {
        let mut k = Kernel::new("chase");
        let nodes = 64u64;
        let node_bytes = 64u64;
        let l = k.add_list(ListDecl {
            head: 0x1000_0000,
            node_bytes,
            next_offset: 0,
            payload_offset: 8,
            nodes,
        });
        let lp = k.add_loop(LoopSpec::new("chase", 500, vec![RefSpec::PointerChase { list: l }]));
        k.phases.push(Phase { reps: 1, loops: vec![lp] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();

        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(nodes * node_bytes + 64, 64);
        for i in 0..nodes {
            let addr = 0x1000_0000 + i * node_bytes;
            let next = 0x1000_0000 + ((i + 1) % nodes) * node_bytes;
            m.mem_mut().write(addr, 8, next);
            m.mem_mut().write(addr + 8, 8, i);
        }
        m.run_to_halt();
        assert!(m.is_halted());
        assert_eq!(bin.loops[0].ref_kinds, vec![RefKind::PointerChase]);
    }

    #[test]
    fn jump_pointer_compiles_and_runs() {
        let mut k = Kernel::new("jump");
        let nodes = 64u64;
        let node_bytes = 64u64;
        let l = k.add_list(ListDecl {
            head: 0x1000_0000,
            node_bytes,
            next_offset: 0,
            payload_offset: 8,
            nodes,
        });
        let lp = k.add_loop(LoopSpec::new(
            "gc_walk",
            500,
            vec![RefSpec::JumpPointer { list: l, jump_offset: 16 }],
        ));
        k.phases.push(Phase { reps: 1, loops: vec![lp] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();

        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(nodes * node_bytes + 64, 64);
        for i in 0..nodes {
            let addr = 0x1000_0000 + i * node_bytes;
            let next = 0x1000_0000 + ((i + 1) % nodes) * node_bytes;
            let jump = 0x1000_0000 + ((i + 8) % nodes) * node_bytes;
            m.mem_mut().write(addr, 8, next);
            m.mem_mut().write(addr + 8, 8, i);
            m.mem_mut().write(addr + 16, 8, jump);
        }
        m.run_to_halt();
        assert!(m.is_halted());
        assert_eq!(bin.loops[0].ref_kinds, vec![RefKind::JumpPointer]);
        // Three loads per iteration: jump, payload, next.
        assert!(m.pmu().counters.loads >= 3 * 500);
    }

    #[test]
    fn indirect_compiles_and_runs() {
        let mut k = Kernel::new("ind");
        let ia = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 4, len: 2048, fp: false });
        let da = k.add_array(ArrayDecl { base: 0x1100_0000, elem_bytes: 8, len: 4096, fp: false });
        let lp = k.add_loop(LoopSpec::new(
            "gather",
            1000,
            vec![RefSpec::Indirect { index_array: ia, data_array: da }],
        ));
        k.phases.push(Phase { reps: 1, loops: vec![lp] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(64 << 20, 64);
        for i in 0..2048u64 {
            m.mem_mut().write(0x1000_0000 + 4 * i, 4, (i * 37) % 4096);
        }
        m.run_to_halt();
        assert!(m.is_halted());
    }

    #[test]
    fn call_complexity_emits_helper_and_runs() {
        let mut k = Kernel::new("call");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 3000, fp: false });
        let lp = k.add_loop(
            LoopSpec::new(
                "cwalk",
                2000,
                vec![RefSpec::Direct {
                    array: a,
                    stride_elems: 1,
                    write: false,
                    alias_ambiguous: false,
                }],
            )
            .with_complexity(AddrComplexity::Call),
        );
        k.phases.push(Phase { reps: 1, loops: vec![lp] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(1 << 20, 64);
        m.run_to_halt();
        assert!(m.is_halted());
        let bin3 = compile(&k, &CompileOptions::o3()).unwrap();
        assert_eq!(bin3.prefetched_loops, 0);
    }

    #[test]
    fn fragments_add_branches_and_padding() {
        let mut k = Kernel::new("frag");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 4096, fp: false });
        let refs: Vec<RefSpec> = (0..4)
            .map(|_| RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            })
            .collect();
        let contiguous = {
            let mut k2 = k.clone();
            let lp = k2.add_loop(LoopSpec::new("body", 500, refs.clone()));
            k2.phases.push(Phase { reps: 1, loops: vec![lp] });
            compile(&k2, &CompileOptions::o2()).unwrap()
        };
        let fragmented = {
            let lp = k.add_loop(LoopSpec::new("body", 500, refs).with_fragments(4));
            k.phases.push(Phase { reps: 1, loops: vec![lp] });
            compile(&k, &CompileOptions::o2()).unwrap()
        };
        assert!(fragmented.program.size_bytes() > contiguous.program.size_bytes());
        let mc = run(&contiguous, 1 << 20);
        let mf = run(&fragmented, 1 << 20);
        assert!(mf.cycles() > mc.cycles(), "fragmentation should cost cycles");
    }

    #[test]
    fn multiple_phases_execute_in_order() {
        let mut k = simple_kernel(100, 2);
        let a2 = k.add_array(ArrayDecl { base: 0x1200_0000, elem_bytes: 8, len: 256, fp: false });
        let l2 = k.add_loop(LoopSpec::new(
            "second",
            100,
            vec![RefSpec::Direct {
                array: a2,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.phases.push(Phase { reps: 3, loops: vec![l2] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        assert_eq!(bin.loops.len(), 2);
        let m = run(&bin, 64 << 20);
        assert!(m.is_halted());
    }

    #[test]
    fn loop_info_ranges_contain_body() {
        let k = simple_kernel(100, 1);
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let info = &bin.loops[0];
        assert!(info.end.0 > info.head.0);
        assert!(info.contains(info.head));
        assert!(!info.contains(info.end));
        assert_eq!(bin.loop_containing(info.head).unwrap().name, "walk");
    }

    #[test]
    fn repeated_loop_occurrences_get_unique_names() {
        // The same loop in two phases compiles twice; metadata names
        // must stay unique so profile-guided filtering can map pcs.
        let mut k = simple_kernel(100, 2);
        k.phases.push(Phase { reps: 2, loops: vec![0] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        assert_eq!(bin.loops.len(), 2);
        assert_eq!(bin.loops[0].name, "walk");
        assert_eq!(bin.loops[1].name, "walk@1");
        let names: std::collections::HashSet<_> =
            bin.loops.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn store_only_loops_compile_and_run() {
        let mut k = Kernel::new("st");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 4096, fp: false });
        let l = k.add_loop(LoopSpec::new(
            "fill",
            1000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: true,
                alias_ambiguous: false,
            }],
        ));
        k.phases.push(Phase { reps: 2, loops: vec![l] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let m = run(&bin, 1 << 20);
        assert!(m.is_halted());
        // Stores executed (write counter via loads==0 but retired>0).
        assert_eq!(bin.loops[0].ref_kinds, vec![RefKind::Direct]);
    }

    #[test]
    fn fp_conversion_loops_defeat_static_prefetch_but_run() {
        let mut k = Kernel::new("conv");
        let a =
            k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 1 << 17, fp: false });
        let l = k.add_loop(
            LoopSpec::new(
                "conv",
                2000,
                vec![RefSpec::Direct {
                    array: a,
                    stride_elems: 4,
                    write: false,
                    alias_ambiguous: false,
                }],
            )
            .with_complexity(AddrComplexity::FpConversion),
        );
        k.phases.push(Phase { reps: 2, loops: vec![l] });
        let o3 = compile(&k, &CompileOptions::o3()).unwrap();
        assert_eq!(o3.prefetched_loops, 0);
        let m = run(&o3, 4 << 20);
        assert!(m.is_halted());
        // The conversion path really executes getf/setf latency.
        assert!(m.cycles() > 2 * 2000);
    }

    #[test]
    fn negative_stride_walks_do_not_fault() {
        let mut k = Kernel::new("neg");
        let a =
            k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 1 << 14, fp: false });
        let l = k.add_loop(LoopSpec::new(
            "back",
            2000,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: -2,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.phases.push(Phase { reps: 3, loops: vec![l] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let m = run(&bin, 1 << 20);
        assert!(m.is_halted());
        assert!(m.pmu().counters.loads >= 6000);
    }

    #[test]
    fn resumable_loop_streams_across_reps() {
        // A small-trip resumable loop over a big array must keep
        // missing (streaming), while the non-resumable version
        // re-touches a cache-resident slice and stops missing.
        let build = |resume: bool| {
            let mut k = Kernel::new("r");
            let a = k.add_array(ArrayDecl {
                base: 0x1000_0000,
                elem_bytes: 8,
                len: 1 << 19, // 4 MB
                fp: false,
            });
            let mut spec = LoopSpec::new(
                "walk",
                256,
                vec![RefSpec::Direct {
                    array: a,
                    stride_elems: 16, // 128 B: a new line every iteration
                    write: false,
                    alias_ambiguous: false,
                }],
            );
            if resume {
                spec = spec.with_resume();
            }
            let l = k.add_loop(spec);
            k.phases.push(Phase { reps: 200, loops: vec![l] });
            let bin = compile(&k, &CompileOptions::o2()).unwrap();
            let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
            m.mem_mut().alloc(8 << 20, 64);
            m.run_to_halt();
            m
        };
        let fixed = build(false);
        let resumed = build(true);
        let fixed_misses = fixed.pmu().counters.dear_misses;
        let resumed_misses = resumed.pmu().counters.dear_misses;
        assert!(
            resumed_misses > fixed_misses * 5,
            "resumed walk must keep missing: {resumed_misses} vs {fixed_misses}"
        );
        assert!(resumed.cycles() > fixed.cycles());
    }

    #[test]
    fn resumable_loop_never_walks_off_the_array() {
        // If the wrap check were wrong, the memory read would panic.
        let mut k = Kernel::new("wrap");
        let a = k.add_array(ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 4096, fp: false });
        let l = k.add_loop(
            LoopSpec::new(
                "walk",
                512,
                vec![RefSpec::Direct {
                    array: a,
                    stride_elems: 1,
                    write: false,
                    alias_ambiguous: false,
                }],
            )
            .with_resume(),
        );
        k.phases.push(Phase { reps: 50, loops: vec![l] });
        let bin = compile(&k, &CompileOptions::o2()).unwrap();
        let mut m = Machine::new(bin.program.clone(), MachineConfig::default());
        m.mem_mut().alloc(1 << 20, 64);
        m.run_to_halt();
        assert!(m.is_halted());
        // 50 reps × 512 iterations wrapped several times over 4096
        // elements without faulting.
        assert!(m.pmu().counters.loads >= 50 * 512);
    }
}
