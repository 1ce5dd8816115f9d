//! The threaded-code compile tier behind [`ExecPath::Threaded`].
//!
//! The fast path (PR 4) removed per-step decode costs; this tier
//! removes the *dispatch* itself for hot code. Cold code is stepped on
//! the fast path while per-bundle entry counts accumulate; once a
//! bundle has been entered [`HOT_THRESHOLD`] times it becomes the head
//! of a **compiled region**: a contiguous run of bundles translated
//! into chains of block closures ([`OpFn`]) executed with
//! direct-threaded dispatch — no fetch, no scoreboard walk, no
//! per-slot decode.
//!
//! Branch binding uses the pending-fixup idiom: every static branch
//! target is recorded as an unresolved [`Dest::External`] while the
//! region is laid out, then a single resolution pass rewrites targets
//! that landed inside the region to [`Dest::Local`] bundle indices, so
//! loop backedges dispatch straight to a closure index without an
//! address lookup.
//!
//! # The tier contract
//!
//! **Architectural state is exact; timing is not modeled.** Compiled
//! bundles charge a flat cycle each (no stall-on-use, no icache, no
//! taken-branch bubble), so cycle counts and stall breakdowns are
//! meaningless on this tier — [`ExecPath::is_cycle_exact`] is the flag
//! harnesses must check. Retired-instruction counts *are* exact: the
//! region executor reproduces the interpreters' slot-accounting rules,
//! so `retired` agrees with the cycle-exact tiers bundle for bundle.
//!
//! Two compile modes, chosen by whether the machine samples:
//!
//! - **lean** (no sampling configured): pure architectural semantics.
//!   Loads and stores skip the cache hierarchy, TLB, and PMU entirely;
//!   this is the mode the throughput benchmark measures.
//! - **profile** (sampling configured, i.e. the machine runs under
//!   ADORE): memory closures still drive the caches, DTLB, and PMU
//!   event capture (DEAR, BTB, miss counters), and branch closures
//!   record outcomes, so sampling keeps observing real events and the
//!   optimizer keeps finding delinquent loads while hot code runs
//!   compiled.
//!
//! # Deopt at patch boundaries
//!
//! Every compiled region is stamped with the [`CodeStore`] generation
//! it was translated from. ADORE's patcher mutates code exclusively
//! through store-coherent operations (`install_trace`,
//! `replace_bundle`), each of which bumps the store generation — so on
//! region entry a single integer compare detects *any* intervening
//! patch. A stale region is discarded (a **deopt**, counted in
//! [`JitStats::deopts`]) and execution falls back to the fast
//! interpreter until the rewritten code re-warms. Patches can only
//! happen between `run` calls (they take `&mut Machine`), so a region
//! can never be invalidated mid-execution.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use isa::{Addr, Insn, Op, Pc};

use crate::cache::HitLevel;
use crate::code::CodeStore;
use crate::machine::{ExecPath, Fault, Machine, StallSource};

/// Fast-path entries of a bundle address before it is compiled as a
/// region head. Low enough that loops compile early, high enough that
/// straight-line startup code never pays a translation.
pub const HOT_THRESHOLD: u32 = 32;

/// Upper bound on bundles translated into one region.
pub const REGION_MAX_BUNDLES: usize = 512;

/// Per-machine statistics of the threaded tier, exposed through
/// [`Machine::jit_stats`](crate::Machine::jit_stats). Tests and the
/// differential oracle use these to observe that compilation and
/// patch-boundary deopts actually happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Regions translated to closure chains.
    pub regions_compiled: u64,
    /// Total bundles across all translated regions.
    pub compiled_bundles: u64,
    /// Stale regions discarded because the code-store generation moved
    /// (a live patch landed since translation).
    pub deopts: u64,
    /// Times execution entered a compiled region.
    pub region_entries: u64,
}

/// Threaded-tier state carried by a machine configured with
/// [`ExecPath::Threaded`] (and only then — the other tiers carry
/// `None` and pay nothing).
pub struct JitState {
    /// Compiled regions keyed by head bundle address.
    regions: HashMap<u64, Arc<CompiledRegion>>,
    /// Fast-path entry counts per bundle address (hotness).
    counts: HashMap<u64, u32>,
    pub(crate) stats: JitStats,
}

impl fmt::Debug for JitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitState")
            .field("regions", &self.regions.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl JitState {
    /// The jit state a machine on `path` starts with: `Some` state for
    /// the threaded tier, `None` (no memory, no per-step cost) for the
    /// cycle-exact tiers.
    pub(crate) fn for_path(path: ExecPath) -> Option<Box<JitState>> {
        (path == ExecPath::Threaded).then(|| {
            Box::new(JitState {
                regions: HashMap::new(),
                counts: HashMap::new(),
                stats: JitStats::default(),
            })
        })
    }
}

/// Outcome of one compiled op closure.
enum OpOutcome {
    /// Continue with the next op (or fall through the bundle).
    Next,
    /// Static branch taken: dispatch through `CompiledRegion::dests`.
    Branch(u32),
    /// Dynamic branch taken (`br.ret`): resolve the target at runtime.
    Jump(Addr),
    /// `Halt` executed (`machine.halted` already set).
    Halt,
    /// The op faulted (`machine.fault` already set); the machine is
    /// frozen at this bundle.
    Fault,
}

/// One translated instruction: a block closure over the machine.
type OpFn = Box<dyn Fn(&mut Machine) -> OpOutcome + Send + Sync>;

/// A translated (non-nop) slot. `slot` preserves the source position
/// for exact retired-count accounting.
struct CompiledOp {
    slot: u8,
    f: OpFn,
}

/// One translated bundle: its source address plus its op chain (nops
/// compile to nothing).
struct CompiledBundle {
    addr: Addr,
    ops: Vec<CompiledOp>,
}

/// A branch destination, bound after region layout (pending-fixup):
/// targets inside the region become direct bundle indices.
#[derive(Debug, Clone, Copy)]
enum Dest {
    /// Bundle index within the same region.
    Local(u32),
    /// Bundle-aligned address outside the region (region exit).
    External(Addr),
}

/// A contiguous run of bundles compiled to closure chains, valid for
/// exactly one code-store generation.
struct CompiledRegion {
    start: Addr,
    generation: u64,
    bundles: Vec<CompiledBundle>,
    dests: Vec<Dest>,
}

impl Machine {
    /// The threaded tier's step ([`crate::tier::Threaded`] dispatches
    /// here): enter a valid compiled region at `ip` if one exists,
    /// deopt it if a patch made it stale, compile one if `ip` just
    /// crossed the hotness threshold, and otherwise interpret one
    /// bundle on the fast path (full timing/PMU, so sampling and ADORE
    /// patching keep working while code warms up).
    pub(crate) fn jit_step<const SAMPLING: bool>(&mut self, cycle_limit: u64) {
        let ip = self.ip.bundle_align();
        let generation = self.store.generation();
        let mut jit = self.jit.take().expect("threaded tier requires jit state");

        let mut region: Option<Arc<CompiledRegion>> = None;
        match jit.regions.get(&ip.0) {
            Some(r) if r.generation == generation => {
                jit.stats.region_entries += 1;
                region = Some(Arc::clone(r));
            }
            Some(_) => {
                // Patch boundary: the store generation moved since this
                // region was translated. Discard and re-warm.
                jit.regions.remove(&ip.0);
                jit.stats.deopts += 1;
            }
            None => {}
        }

        if region.is_none() {
            let count = jit.counts.entry(ip.0).or_insert(0);
            *count += 1;
            if *count >= HOT_THRESHOLD {
                *count = 0;
                let profile = self.config.sampling.is_some();
                if let Some(r) = compile_region(&self.store, ip, generation, profile) {
                    jit.stats.regions_compiled += 1;
                    jit.stats.compiled_bundles += r.bundles.len() as u64;
                    jit.stats.region_entries += 1;
                    let r = Arc::new(r);
                    jit.regions.insert(ip.0, Arc::clone(&r));
                    region = Some(r);
                }
            }
        }

        self.jit = Some(jit);
        match region {
            Some(r) => self.run_region::<SAMPLING>(&r, cycle_limit),
            // Exactly one bundle on the fast path: the cycle never runs
            // backwards, so a limit equal to the current cycle is reached
            // after the first bundle, and the next step returns to the
            // region lookup.
            None => self.run_fast::<SAMPLING>(self.cycle),
        }
    }

    /// Executes a compiled region until it exits (fall-through past the
    /// end, branch to an external target, halt, fault), the cycle limit
    /// is reached, or — under sampling — the sample buffer fills.
    /// Always leaves `ip` pointing at the next bundle to execute, so a
    /// stopped machine resumes exactly where it left off on any tier.
    ///
    /// Retired accounting reproduces the interpreters' rule: every slot
    /// up to and including the exiting one counts (nops and
    /// predicated-off slots included), a fully fallen-through bundle
    /// counts all three. Timing is a flat cycle per bundle.
    fn run_region<const SAMPLING: bool>(&mut self, region: &CompiledRegion, cycle_limit: u64) {
        let cap = self.config.sampling.as_ref().map(|s| s.buffer_capacity);
        let len = region.bundles.len();
        let mut idx = 0usize;
        loop {
            let Some(cb) = region.bundles.get(idx) else {
                // Fell through the end of the region.
                self.ip = region.start.offset_bundles(len as i64);
                break;
            };
            if self.cycle >= cycle_limit {
                self.ip = cb.addr;
                break;
            }

            let mut exit: Option<(u8, OpOutcome)> = None;
            for op in &cb.ops {
                match (op.f)(self) {
                    OpOutcome::Next => {}
                    out => {
                        exit = Some((op.slot, out));
                        break;
                    }
                }
            }
            let (retired, outcome) = match exit {
                Some((slot, out)) => (u64::from(slot) + 1, out),
                None => (3, OpOutcome::Next),
            };
            self.pmu.counters.retired += retired;

            if matches!(outcome, OpOutcome::Fault) {
                // Freeze at the faulting bundle, like the interpreters:
                // no ip advance, no cycle charge, no sample.
                self.ip = cb.addr;
                break;
            }

            self.cycle += 1;
            self.half_bundle = false;

            let next = match outcome {
                OpOutcome::Next => Some(idx + 1),
                OpOutcome::Branch(di) => match region.dests[di as usize] {
                    Dest::Local(i) => Some(i as usize),
                    Dest::External(a) => {
                        self.ip = a;
                        None
                    }
                },
                OpOutcome::Jump(a) => {
                    let a = a.bundle_align();
                    let off = a.0.wrapping_sub(region.start.0) / Addr::BUNDLE_BYTES;
                    if a.0 >= region.start.0 && (off as usize) < len {
                        Some(off as usize)
                    } else {
                        self.ip = a;
                        None
                    }
                }
                OpOutcome::Halt => {
                    self.ip = cb.addr.offset_bundles(1);
                    None
                }
                OpOutcome::Fault => unreachable!("fault handled above"),
            };

            if SAMPLING {
                self.take_sample(Pc::new(cb.addr, 0));
            }

            match next {
                Some(i) => {
                    idx = i;
                    if SAMPLING
                        && cap.is_some_and(|c| {
                            self.samples.as_ref().is_some_and(|s| s.buffer.len() >= c)
                        })
                    {
                        // Let the drive loop report the overflow; resume
                        // at the next bundle (which may be the region's
                        // fall-through when `i == len`).
                        self.ip = region.start.offset_bundles(idx as i64);
                        break;
                    }
                }
                None => break,
            }
        }
        self.pmu.counters.cycles = self.cycle;
    }
}

/// Writes a general register from compiled code: architectural value
/// plus a "ready now" scoreboard entry, so a later deopt to the
/// cycle-exact interpreters never observes a stale pending latency.
#[inline]
fn set_gr(m: &mut Machine, r: usize, v: i64) {
    if r != 0 {
        m.gr[r] = v;
        m.gr_ready[r] = m.cycle;
        m.gr_source[r] = StallSource::None;
    }
}

/// Writes a floating-point register from compiled code (`f0`/`f1` are
/// architecturally fixed).
#[inline]
fn set_fr(m: &mut Machine, r: usize, v: f64) {
    if r > 1 {
        m.fr[r] = v;
        m.fr_ready[r] = m.cycle;
        m.fr_source[r] = StallSource::None;
    }
}

/// Writes a predicate register from compiled code (`p0` is hardwired).
#[inline]
fn set_pr(m: &mut Machine, r: usize, v: bool) {
    if r != 0 {
        m.pr[r] = v;
    }
}

/// Translates the contiguous bundle run starting at `start` (bounded by
/// [`REGION_MAX_BUNDLES`], the end of the code segment, or the first
/// unconditional control transfer) into a compiled region stamped with
/// `generation`. Returns `None` when `start` maps to no bundle — the
/// cold path then raises the fetch fault.
fn compile_region(
    store: &CodeStore,
    start: Addr,
    generation: u64,
    profile: bool,
) -> Option<CompiledRegion> {
    let start = start.bundle_align();
    store.locate(start)?;

    let mut bundles = Vec::new();
    let mut dests: Vec<Dest> = Vec::new();
    for i in 0..REGION_MAX_BUNDLES {
        let addr = start.offset_bundles(i as i64);
        let Some(loc) = store.locate(addr) else {
            break;
        };
        let db = store.decoded(loc);
        let fall_through = addr.offset_bundles(1);
        let mut ops = Vec::new();
        let mut region_ends = false;
        for &slot in db.live() {
            let insn = db.slots[slot as usize].insn;
            if insn.qp.is_none()
                && matches!(insn.op, Op::Br { .. } | Op::BrRet | Op::Halt)
            {
                // Execution can never fall past an unconditional
                // transfer, so the region need not extend further.
                region_ends = true;
            }
            if let Some(f) = compile_op(insn, Pc::new(addr, slot), fall_through, profile, &mut dests)
            {
                ops.push(CompiledOp { slot, f });
            }
        }
        bundles.push(CompiledBundle { addr, ops });
        if region_ends {
            break;
        }
    }
    if bundles.is_empty() {
        return None;
    }

    // Pending-fixup resolution: branch targets that landed inside the
    // region bind to direct bundle indices.
    let len = bundles.len() as u64;
    for d in &mut dests {
        if let Dest::External(a) = *d {
            if a.0 >= start.0 {
                let off = (a.0 - start.0) / Addr::BUNDLE_BYTES;
                if off < len {
                    *d = Dest::Local(off as u32);
                }
            }
        }
    }

    Some(CompiledRegion {
        start,
        generation,
        bundles,
        dests,
    })
}

/// Translates one instruction into a block closure with exactly the
/// architectural semantics of `Machine::exec_slot_op` (fault-before-
/// write ordering, post-increment after the destination write,
/// speculative loads deferring to zero). In profile mode, memory and
/// branch closures additionally drive the caches, DTLB, and PMU so
/// sampling keeps observing real events. Returns `None` for slots with
/// no translation (nops, `alloc`, lean-mode `lfetch` without
/// post-increment).
fn compile_op(
    insn: Insn,
    pc: Pc,
    fall_through: Addr,
    profile: bool,
    dests: &mut Vec<Dest>,
) -> Option<OpFn> {
    // A lean-mode lfetch with no post-increment has no architectural
    // effect at all.
    if let Op::Lfetch { post_inc: 0, .. } = insn.op {
        if !profile {
            return None;
        }
    }

    // Conditional branches fold their own predicate so the profile
    // variant can record the fall-through outcome of an off branch,
    // mirroring `record_off_cond_branches`.
    if let Op::BrCond { target } = insn.op {
        dests.push(Dest::External(target.bundle_align()));
        let di = (dests.len() - 1) as u32;
        let qp = insn.qp.map(|q| q.index());
        return Some(Box::new(move |m| {
            if let Some(q) = qp {
                if !m.pr[q] {
                    if profile {
                        m.pmu.record_branch(pc, fall_through, false);
                    }
                    return OpOutcome::Next;
                }
            }
            if profile {
                m.pmu.record_branch(pc, target, true);
            }
            OpOutcome::Branch(di)
        }));
    }

    let body: OpFn = match insn.op {
        Op::Nop(_) | Op::Alloc => return None,
        Op::BrCond { .. } => unreachable!("handled above"),
        Op::Add { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.gr[a].wrapping_add(m.gr[b]);
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::AddI { d, a, imm } => {
            let (d, a) = (d.index(), a.index());
            Box::new(move |m| {
                let v = m.gr[a].wrapping_add(imm);
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Sub { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.gr[a].wrapping_sub(m.gr[b]);
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Shladd { d, a, count, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = (m.gr[a] << count).wrapping_add(m.gr[b]);
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::And { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.gr[a] & m.gr[b];
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Or { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.gr[a] | m.gr[b];
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Xor { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.gr[a] ^ m.gr[b];
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::MovL { d, imm } => {
            let d = d.index();
            Box::new(move |m| {
                set_gr(m, d, imm);
                OpOutcome::Next
            })
        }
        Op::Mov { d, s } => {
            let (d, s) = (d.index(), s.index());
            Box::new(move |m| {
                let v = m.gr[s];
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Cmp { op, pt, pf, a, b } => {
            let (pt, pf, a, b) = (pt.index(), pf.index(), a.index(), b.index());
            Box::new(move |m| {
                let r = op.eval(m.gr[a], m.gr[b]);
                set_pr(m, pt, r);
                set_pr(m, pf, !r);
                OpOutcome::Next
            })
        }
        Op::CmpI { op, pt, pf, a, imm } => {
            let (pt, pf, a) = (pt.index(), pf.index(), a.index());
            Box::new(move |m| {
                let r = op.eval(m.gr[a], imm);
                set_pr(m, pt, r);
                set_pr(m, pf, !r);
                OpOutcome::Next
            })
        }
        Op::Ld {
            d,
            base,
            post_inc,
            size,
            spec,
        } => {
            let (d, base) = (d.index(), base.index());
            let bytes = size.bytes();
            Box::new(move |m| {
                let addr = m.gr[base] as u64;
                let value = if spec {
                    m.mem.read_spec(addr, bytes)
                } else if m.mem.contains(addr, bytes) {
                    m.mem.read(addr, bytes)
                } else {
                    m.fault = Some(Fault::UnmappedLoad { addr, len: bytes });
                    return OpOutcome::Fault;
                };
                if profile {
                    let tlb_lat = m.tlb.access(addr);
                    if tlb_lat > 0 {
                        m.pmu.record_tlb_miss(pc, addr, tlb_lat);
                    }
                    let res = m.caches.load(addr, m.cycle + tlb_lat, false);
                    m.pmu
                        .record_load(pc, addr, res.latency, res.level == HitLevel::L1);
                }
                set_gr(m, d, value as i64);
                if post_inc != 0 {
                    let nb = m.gr[base].wrapping_add(post_inc);
                    set_gr(m, base, nb);
                }
                OpOutcome::Next
            })
        }
        Op::St {
            s,
            base,
            post_inc,
            size,
        } => {
            let (s, base) = (s.index(), base.index());
            let bytes = size.bytes();
            Box::new(move |m| {
                let addr = m.gr[base] as u64;
                if !m.mem.contains(addr, bytes) {
                    m.fault = Some(Fault::UnmappedStore { addr, len: bytes });
                    return OpOutcome::Fault;
                }
                m.mem.write(addr, bytes, m.gr[s] as u64);
                if profile {
                    let _ = m.tlb.access(addr);
                    m.caches.store(addr);
                }
                if post_inc != 0 {
                    let nb = m.gr[base].wrapping_add(post_inc);
                    set_gr(m, base, nb);
                }
                OpOutcome::Next
            })
        }
        Op::Ldf { d, base, post_inc } => {
            let (d, base) = (d.index(), base.index());
            Box::new(move |m| {
                let addr = m.gr[base] as u64;
                if !m.mem.contains(addr, 8) {
                    m.fault = Some(Fault::UnmappedLoad { addr, len: 8 });
                    return OpOutcome::Fault;
                }
                let value = m.mem.read_f64(addr);
                if profile {
                    let tlb_lat = m.tlb.access(addr);
                    if tlb_lat > 0 {
                        m.pmu.record_tlb_miss(pc, addr, tlb_lat);
                    }
                    let res = m.caches.load(addr, m.cycle + tlb_lat, true);
                    m.pmu.record_load(pc, addr, res.latency, false);
                }
                set_fr(m, d, value);
                if post_inc != 0 {
                    let nb = m.gr[base].wrapping_add(post_inc);
                    set_gr(m, base, nb);
                }
                OpOutcome::Next
            })
        }
        Op::Stf { s, base, post_inc } => {
            let (s, base) = (s.index(), base.index());
            Box::new(move |m| {
                let addr = m.gr[base] as u64;
                if !m.mem.contains(addr, 8) {
                    m.fault = Some(Fault::UnmappedStore { addr, len: 8 });
                    return OpOutcome::Fault;
                }
                m.mem.write_f64(addr, m.fr[s]);
                if profile {
                    m.caches.store(addr);
                }
                if post_inc != 0 {
                    let nb = m.gr[base].wrapping_add(post_inc);
                    set_gr(m, base, nb);
                }
                OpOutcome::Next
            })
        }
        Op::Lfetch { base, post_inc } => {
            let base = base.index();
            Box::new(move |m| {
                if profile {
                    let addr = m.gr[base] as u64;
                    if m.mem.contains(addr, 1) {
                        let _ = m.tlb.access(addr);
                        m.caches.lfetch(addr, m.cycle);
                    }
                }
                if post_inc != 0 {
                    let nb = m.gr[base].wrapping_add(post_inc);
                    set_gr(m, base, nb);
                }
                OpOutcome::Next
            })
        }
        Op::Fma { d, a, b, c } => {
            let (d, a, b, c) = (d.index(), a.index(), b.index(), c.index());
            Box::new(move |m| {
                let v = m.fr[a].mul_add(m.fr[b], m.fr[c]);
                set_fr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Fadd { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.fr[a] + m.fr[b];
                set_fr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Fmul { d, a, b } => {
            let (d, a, b) = (d.index(), a.index(), b.index());
            Box::new(move |m| {
                let v = m.fr[a] * m.fr[b];
                set_fr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Getf { d, s } => {
            let (d, s) = (d.index(), s.index());
            Box::new(move |m| {
                let v = m.fr[s] as i64;
                set_gr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Setf { d, s } => {
            let (d, s) = (d.index(), s.index());
            Box::new(move |m| {
                let v = m.gr[s] as f64;
                set_fr(m, d, v);
                OpOutcome::Next
            })
        }
        Op::Br { target } => {
            dests.push(Dest::External(target.bundle_align()));
            let di = (dests.len() - 1) as u32;
            Box::new(move |m| {
                if profile {
                    m.pmu.record_branch(pc, target, true);
                }
                OpOutcome::Branch(di)
            })
        }
        Op::BrCall { target } => {
            dests.push(Dest::External(target.bundle_align()));
            let di = (dests.len() - 1) as u32;
            Box::new(move |m| {
                if profile {
                    m.pmu.record_branch(pc, target, true);
                }
                m.ret_stack.push(fall_through);
                OpOutcome::Branch(di)
            })
        }
        Op::BrRet => Box::new(move |m| {
            let Some(target) = m.ret_stack.pop() else {
                m.fault = Some(Fault::ReturnUnderflow);
                return OpOutcome::Fault;
            };
            if profile {
                m.pmu.record_branch(pc, target, true);
            }
            OpOutcome::Jump(target)
        }),
        Op::Halt => Box::new(move |m| {
            m.halted = true;
            OpOutcome::Halt
        }),
    };

    match insn.qp {
        Some(q) => {
            let q = q.index();
            Some(Box::new(move |m| {
                if m.pr[q] {
                    body(m)
                } else {
                    OpOutcome::Next
                }
            }))
        }
        None => Some(body),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, SamplingConfig, StopReason};
    use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};

    fn sum_loop_program(iters: i64) -> isa::Program {
        let mut a = Asm::new();
        a.movl(Gr(10), 0x1000_0000);
        a.movl(Gr(11), 0);
        a.movl(Gr(12), 0);
        a.label("loop");
        a.ld(AccessSize::U8, Gr(13), Gr(10), 8);
        a.add(Gr(12), Gr(12), Gr(13));
        a.addi(Gr(11), Gr(11), 1);
        a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), iters);
        a.br_cond(Pr(1), "loop");
        a.halt();
        a.finish(CODE_BASE).unwrap()
    }

    /// Machine running the sum loop with `mapped` elements backing it;
    /// faults mid-loop when `mapped < iters`.
    fn sum_loop_machine(path: ExecPath, iters: i64, mapped: i64) -> Machine {
        let mut cfg = MachineConfig::default();
        cfg.exec_path = path;
        let mut m = Machine::new(sum_loop_program(iters), cfg);
        m.mem_mut().alloc(mapped as u64 * 8, 8);
        for i in 0..mapped {
            m.mem_mut()
                .write(0x1000_0000 + i as u64 * 8, 8, (i * 3) as u64);
        }
        m
    }

    #[test]
    fn threaded_matches_fast_architecturally() {
        let mut fast = sum_loop_machine(ExecPath::Fast, 4000, 4004);
        let mut thr = sum_loop_machine(ExecPath::Threaded, 4000, 4004);
        assert_eq!(fast.run(u64::MAX), StopReason::Halted);
        assert_eq!(thr.run(u64::MAX), StopReason::Halted);
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.gr(Gr(12)), thr.gr(Gr(12)));
        assert_eq!(fast.gr(Gr(13)), thr.gr(Gr(13)));
        assert_eq!(fast.retired(), thr.retired(), "retired counting is exact");

        let stats = thr.jit_stats().expect("threaded machines expose stats");
        assert!(stats.regions_compiled >= 1, "hot loop must compile");
        assert!(stats.region_entries >= 1);
        assert!(stats.compiled_bundles >= 1);
        assert_eq!(stats.deopts, 0, "nothing patched, nothing deopts");
        assert_eq!(fast.jit_stats(), None, "cycle-exact tiers carry no jit");
    }

    #[test]
    fn chunked_threaded_run_matches_uninterrupted() {
        let mut one = sum_loop_machine(ExecPath::Threaded, 3000, 3004);
        assert_eq!(one.run(u64::MAX), StopReason::Halted);
        let mut chunked = sum_loop_machine(ExecPath::Threaded, 3000, 3004);
        let mut limit = 0;
        while !chunked.is_halted() {
            limit += 100;
            chunked.run(limit);
        }
        assert_eq!(one.gr(Gr(11)), chunked.gr(Gr(11)));
        assert_eq!(one.gr(Gr(12)), chunked.gr(Gr(12)));
        assert_eq!(one.retired(), chunked.retired());
    }

    #[test]
    fn live_patch_deopts_compiled_region() {
        let mut m = sum_loop_machine(ExecPath::Threaded, 50_000, 50_004);
        // Run in small chunks until the hot loop has compiled.
        let mut limit = 0;
        while m.jit_stats().unwrap().regions_compiled == 0 {
            limit += 50;
            assert_eq!(m.run(limit), StopReason::CycleLimit, "loop must still be running");
        }
        // Live-patch the bundle the machine is stopped at (inside the
        // compiled loop) with an identical copy: architectural no-op,
        // but the store generation moves.
        let target = m.ip().bundle_align();
        let generation = m.code_generation();
        let bundle = m.bundle_at(target).unwrap().clone();
        m.replace_bundle(target, bundle).unwrap();
        assert!(m.code_generation() > generation);

        assert_eq!(m.run(u64::MAX), StopReason::Halted);
        let stats = m.jit_stats().unwrap();
        assert!(stats.deopts >= 1, "stale region must deopt: {stats:?}");
        assert!(
            stats.regions_compiled >= 2,
            "patched loop must re-warm and recompile: {stats:?}"
        );
        // Architectural result unchanged by the whole episode.
        let mut fast = sum_loop_machine(ExecPath::Fast, 50_000, 50_004);
        fast.run(u64::MAX);
        assert_eq!(m.gr(Gr(12)), fast.gr(Gr(12)));
        assert_eq!(m.retired(), fast.retired());
    }

    #[test]
    fn threaded_fault_matches_fast() {
        // The arena holds 1000 elements but the loop wants 100k: both
        // tiers must fault at the same load with the same state.
        let build = |path| {
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            cfg.mem_capacity = 1000 * 8;
            let mut m = Machine::new(sum_loop_program(100_000), cfg);
            m.mem_mut().alloc(1000 * 8, 8);
            for i in 0..1000u64 {
                m.mem_mut().write(0x1000_0000 + i * 8, 8, i * 3);
            }
            m
        };
        let mut fast = build(ExecPath::Fast);
        let mut thr = build(ExecPath::Threaded);
        let rf = fast.run(u64::MAX);
        let rt = thr.run(u64::MAX);
        assert_eq!(rf, rt);
        assert!(
            matches!(rf, StopReason::Faulted(Fault::UnmappedLoad { .. })),
            "expected an unmapped-load fault, got {rf:?}"
        );
        assert_eq!(fast.fault(), thr.fault());
        assert_eq!(fast.gr(Gr(10)), thr.gr(Gr(10)), "no write on faulting load");
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.gr(Gr(12)), thr.gr(Gr(12)));
        assert_eq!(fast.retired(), thr.retired());
        assert_eq!(fast.ip(), thr.ip(), "both freeze at the faulting bundle");
    }

    #[test]
    fn calls_and_returns_cross_region_boundaries() {
        let build = |path| {
            let mut a = Asm::new();
            a.movl(Gr(11), 0);
            a.label("loop");
            a.br_call("bump");
            a.addi(Gr(11), Gr(11), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 2000);
            a.br_cond(Pr(1), "loop");
            a.halt();
            a.global("bump");
            a.addi(Gr(20), Gr(20), 3);
            a.ret();
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            let mut m = Machine::new(a.finish(CODE_BASE).unwrap(), cfg);
            assert_eq!(m.run(u64::MAX), StopReason::Halted);
            m
        };
        let fast = build(ExecPath::Fast);
        let thr = build(ExecPath::Threaded);
        assert_eq!(fast.gr(Gr(20)), thr.gr(Gr(20)));
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.retired(), thr.retired());
        assert!(thr.jit_stats().unwrap().regions_compiled >= 1);
    }

    #[test]
    fn profile_mode_keeps_sampling_and_pmu_alive() {
        let mut cfg = MachineConfig::default();
        cfg.exec_path = ExecPath::Threaded;
        cfg.sampling = Some(SamplingConfig {
            interval_cycles: 400,
            buffer_capacity: 32,
            per_sample_cost: 0,
            jitter: 0.3,
            ..Default::default()
        });
        let mut m = Machine::new(sum_loop_program(200_000), cfg);
        m.mem_mut().alloc(200_004 * 8, 8);
        assert_eq!(m.run(u64::MAX), StopReason::SampleBufferOverflow);
        let samples = m.drain_samples();
        assert_eq!(samples.len(), 32);
        // Compiled-mode branches and loads still feed the PMU: the BTB
        // carries entries and the miss counters move.
        assert!(!samples.last().unwrap().btb.is_empty());
        assert!(m.pmu().counters.branches > 0);
        assert!(
            m.jit_stats().unwrap().regions_compiled >= 1,
            "sampling machines still compile (profile mode)"
        );
        // And the run still finishes with the right architectural state.
        loop {
            match m.run(u64::MAX) {
                StopReason::SampleBufferOverflow => {
                    m.drain_samples();
                }
                r => {
                    assert_eq!(r, StopReason::Halted);
                    break;
                }
            }
        }
        assert_eq!(m.gr(Gr(11)), 200_000);
    }

    #[test]
    fn wild_branch_out_of_compiled_region_faults_identically() {
        // A hot loop whose exit is an unconditional branch into the
        // void: the compiled region leaves to an unmapped address and
        // the next (cold) step must raise the same fetch fault the
        // cycle-exact tiers raise.
        let wild = isa::Addr(CODE_BASE + 0x10_000);
        let build = |path| {
            let mut a = Asm::new();
            a.movl(Gr(11), 0);
            a.label("loop");
            a.addi(Gr(11), Gr(11), 1);
            a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(11), 300);
            a.br_cond(Pr(1), "loop");
            a.emit(isa::Insn::new(isa::Op::Br { target: wild }));
            a.halt();
            let mut cfg = MachineConfig::default();
            cfg.exec_path = path;
            Machine::new(a.finish(CODE_BASE).unwrap(), cfg)
        };
        let mut fast = build(ExecPath::Fast);
        let mut thr = build(ExecPath::Threaded);
        let rf = fast.run(u64::MAX);
        assert_eq!(rf, thr.run(u64::MAX));
        assert_eq!(rf, StopReason::Faulted(Fault::UnmappedFetch(wild)));
        assert_eq!(fast.gr(Gr(11)), thr.gr(Gr(11)));
        assert_eq!(fast.retired(), thr.retired());
        assert!(thr.jit_stats().unwrap().regions_compiled >= 1);
    }
}
