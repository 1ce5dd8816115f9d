//! An IA-64-like instruction set for the ADORE reproduction.
//!
//! This crate models the slice of the Itanium architecture the MICRO-36
//! paper *"The Performance of Runtime Data Cache Prefetching in a
//! Dynamic Optimization System"* depends on:
//!
//! - 128 general / 128 floating-point / 64 predicate registers, with the
//!   compiler-reserved scratch registers `r27`–`r30` and `p6` ADORE uses
//!   for prefetch address computation ([`regs`]);
//! - three-slot, 16-byte instruction **bundles** with templates and the
//!   scheduling constraints they impose ([`bundle`]);
//! - the instructions the paper's examples use: `shladd`, sized and
//!   speculative loads, post-increment addressing, `lfetch` and
//!   predicated branches ([`insn`]);
//! - a small assembler with labels ([`asm`]) producing [`Program`]
//!   images ([`program`]).
//!
//! # Example
//!
//! Assemble the paper's Fig. 5(A) loop — a direct array reference whose
//! stride is the sum of the post-increments:
//!
//! ```
//! use isa::{AccessSize, Asm, CmpOp, Gr, Pr, CODE_BASE};
//!
//! # fn main() -> Result<(), isa::AsmError> {
//! let mut a = Asm::new();
//! a.global("loop");
//! a.addi(Gr(14), Gr(14), 4);
//! a.st(AccessSize::U4, Gr(14), Gr(20), 4);
//! a.ld(AccessSize::U4, Gr(20), Gr(14), 0);
//! a.addi(Gr(14), Gr(14), 4);
//! a.cmpi(CmpOp::Lt, Pr(1), Pr(2), Gr(14), 4096);
//! a.br_cond(Pr(1), "loop");
//! a.halt();
//! let program = a.finish(CODE_BASE)?;
//! assert!(program.len() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod asm;
pub mod bundle;
pub mod insn;
pub mod program;
pub mod regs;

pub use asm::{Asm, AsmError};
pub use bundle::{Bundle, Template};
pub use insn::{AccessSize, Addr, CmpOp, Insn, Op, Pc, SlotKind};
pub use program::{Program, CODE_BASE, TRACE_POOL_BASE};
pub use regs::{Fr, Gr, Pr, NUM_FR, NUM_GR, NUM_PR};
