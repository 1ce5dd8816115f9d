//! Line-based reproducer format for `tests/corpus/`.
//!
//! When the fuzzer finds a mismatch it shrinks the case and writes it
//! in this format; the corpus-replay regression test parses the files
//! back into [`ProgSpec`]s and re-checks them on every `cargo test`.
//! The format is deliberately plain text so a failing case can be read,
//! edited, and bisected by hand:
//!
//! ```text
//! adore-oracle-reproducer v1
//! seed 42
//! arena 262144
//! mem_seed 12345
//! insn movl r4 268435456
//! label top
//! insn (p7) addi r8 r8 -1
//! branch cond p7 top
//! flush
//! insn halt
//! ```

use isa::{AccessSize, CmpOp, Fr, Gr, Insn, Op, Pr, SlotKind};

use crate::spec::{BranchKind, Item, ProgSpec};

/// Magic first line of every reproducer file.
pub const HEADER: &str = "adore-oracle-reproducer v1";

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn size_name(s: AccessSize) -> &'static str {
    match s {
        AccessSize::U1 => "u1",
        AccessSize::U2 => "u2",
        AccessSize::U4 => "u4",
        AccessSize::U8 => "u8",
    }
}

fn insn_text(insn: &Insn) -> String {
    let body = match insn.op {
        Op::Add { d, a, b } => format!("add r{} r{} r{}", d.0, a.0, b.0),
        Op::Sub { d, a, b } => format!("sub r{} r{} r{}", d.0, a.0, b.0),
        Op::And { d, a, b } => format!("and r{} r{} r{}", d.0, a.0, b.0),
        Op::Or { d, a, b } => format!("or r{} r{} r{}", d.0, a.0, b.0),
        Op::Xor { d, a, b } => format!("xor r{} r{} r{}", d.0, a.0, b.0),
        Op::AddI { d, a, imm } => format!("addi r{} r{} {imm}", d.0, a.0),
        Op::Shladd { d, a, count, b } => format!("shladd r{} r{} {count} r{}", d.0, a.0, b.0),
        Op::MovL { d, imm } => format!("movl r{} {imm}", d.0),
        Op::Mov { d, s } => format!("mov r{} r{}", d.0, s.0),
        Op::Cmp { op, pt, pf, a, b } => {
            format!("cmp {op} p{} p{} r{} r{}", pt.0, pf.0, a.0, b.0)
        }
        Op::CmpI { op, pt, pf, a, imm } => {
            format!("cmpi {op} p{} p{} r{} {imm}", pt.0, pf.0, a.0)
        }
        Op::Ld { d, base, post_inc, size, spec } => format!(
            "ld {} r{} r{} {post_inc} {}",
            size_name(size),
            d.0,
            base.0,
            if spec { "spec" } else { "nospec" }
        ),
        Op::St { s, base, post_inc, size } => {
            format!("st {} r{} r{} {post_inc}", size_name(size), base.0, s.0)
        }
        Op::Ldf { d, base, post_inc } => format!("ldf f{} r{} {post_inc}", d.0, base.0),
        Op::Stf { s, base, post_inc } => format!("stf r{} f{} {post_inc}", base.0, s.0),
        Op::Lfetch { base, post_inc } => format!("lfetch r{} {post_inc}", base.0),
        Op::Fma { d, a, b, c } => format!("fma f{} f{} f{} f{}", d.0, a.0, b.0, c.0),
        Op::Fadd { d, a, b } => format!("fadd f{} f{} f{}", d.0, a.0, b.0),
        Op::Fmul { d, a, b } => format!("fmul f{} f{} f{}", d.0, a.0, b.0),
        Op::Getf { d, s } => format!("getf r{} f{}", d.0, s.0),
        Op::Setf { d, s } => format!("setf f{} r{}", d.0, s.0),
        Op::BrRet => "ret".into(),
        Op::Alloc => "alloc".into(),
        Op::Halt => "halt".into(),
        Op::Nop(kind) => format!("nop {kind:?}"),
        Op::Br { .. } | Op::BrCond { .. } | Op::BrCall { .. } => {
            // Specs keep branches symbolic (`Item::Branch`); a raw
            // address branch cannot survive re-assembly.
            panic!("raw address branch in spec items; use Item::Branch")
        }
    };
    match insn.qp {
        Some(p) => format!("(p{}) {body}", p.0),
        None => body,
    }
}

/// Serializes a spec into the reproducer format.
///
/// # Panics
///
/// Panics if an [`Item::Insn`] holds a raw address branch
/// (`Op::Br`/`Op::BrCond`/`Op::BrCall`); specs keep branches symbolic
/// via [`Item::Branch`], and neither the generator nor the shrinker
/// ever produce the raw form.
pub fn serialize_repro(spec: &ProgSpec) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("seed {}\n", spec.seed));
    out.push_str(&format!("arena {}\n", spec.arena_bytes));
    out.push_str(&format!("mem_seed {}\n", spec.mem_seed));
    for item in &spec.items {
        match item {
            Item::Label(name) => out.push_str(&format!("label {name}\n")),
            Item::Flush => out.push_str("flush\n"),
            Item::Branch { qp, kind, label } => {
                let kind = match kind {
                    BranchKind::Uncond => "uncond",
                    BranchKind::Cond => "cond",
                    BranchKind::Call => "call",
                };
                let qp = match qp {
                    Some(p) => format!("p{}", p.0),
                    None => "-".into(),
                };
                out.push_str(&format!("branch {kind} {qp} {label}\n"));
            }
            Item::Insn(insn) => out.push_str(&format!("insn {}\n", insn_text(insn))),
        }
    }
    out
}

struct Cursor<'a> {
    toks: std::str::SplitWhitespace<'a>,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: message.into() }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, ParseError> {
        self.toks.next().ok_or_else(|| self.err(format!("expected {what}")))
    }

    fn done(&mut self) -> Result<(), ParseError> {
        match self.toks.next() {
            Some(t) => Err(self.err(format!("trailing token {t:?}"))),
            None => Ok(()),
        }
    }

    fn int(&mut self, what: &str) -> Result<i64, ParseError> {
        let t = self.next(what)?;
        t.parse().map_err(|_| self.err(format!("bad {what}: {t:?}")))
    }

    fn uint(&mut self, what: &str) -> Result<u64, ParseError> {
        let t = self.next(what)?;
        t.parse().map_err(|_| self.err(format!("bad {what}: {t:?}")))
    }

    fn reg(&mut self, prefix: char, what: &str, max: u64) -> Result<u8, ParseError> {
        let t = self.next(what)?;
        let n = t
            .strip_prefix(prefix)
            .and_then(|rest| rest.parse::<u64>().ok())
            .filter(|&n| n < max)
            .ok_or_else(|| self.err(format!("bad {what}: {t:?}")))?;
        Ok(n as u8)
    }

    fn gr(&mut self) -> Result<Gr, ParseError> {
        self.reg('r', "general register", 128).map(Gr)
    }

    fn fr(&mut self) -> Result<Fr, ParseError> {
        self.reg('f', "fp register", 128).map(Fr)
    }

    fn pr(&mut self) -> Result<Pr, ParseError> {
        self.reg('p', "predicate", 64).map(Pr)
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let t = self.next("compare op")?;
        // `CmpOp: FromStr` is the inverse of its `Display`, so the
        // reproducer format tracks the ISA's mnemonics automatically.
        t.parse().map_err(|()| self.err(format!("bad compare op: {t:?}")))
    }

    fn size(&mut self) -> Result<AccessSize, ParseError> {
        let t = self.next("access size")?;
        Ok(match t {
            "u1" => AccessSize::U1,
            "u2" => AccessSize::U2,
            "u4" => AccessSize::U4,
            "u8" => AccessSize::U8,
            _ => return Err(self.err(format!("bad access size: {t:?}"))),
        })
    }
}

fn parse_insn(c: &mut Cursor<'_>) -> Result<Insn, ParseError> {
    let first = c.next("mnemonic")?;
    let (qp, mnemonic) = if let Some(p) = first.strip_prefix("(p").and_then(|r| r.strip_suffix(')'))
    {
        let n = p
            .parse::<u64>()
            .ok()
            .filter(|&n| n < 64)
            .ok_or_else(|| c.err(format!("bad qualifying predicate: {first:?}")))?;
        (Some(Pr(n as u8)), c.next("mnemonic")?)
    } else {
        (None, first)
    };
    let op = match mnemonic {
        "add" => Op::Add { d: c.gr()?, a: c.gr()?, b: c.gr()? },
        "sub" => Op::Sub { d: c.gr()?, a: c.gr()?, b: c.gr()? },
        "and" => Op::And { d: c.gr()?, a: c.gr()?, b: c.gr()? },
        "or" => Op::Or { d: c.gr()?, a: c.gr()?, b: c.gr()? },
        "xor" => Op::Xor { d: c.gr()?, a: c.gr()?, b: c.gr()? },
        "addi" => Op::AddI { d: c.gr()?, a: c.gr()?, imm: c.int("immediate")? },
        "shladd" => {
            Op::Shladd { d: c.gr()?, a: c.gr()?, count: c.uint("shift count")? as u8, b: c.gr()? }
        }
        "movl" => Op::MovL { d: c.gr()?, imm: c.int("immediate")? },
        "mov" => Op::Mov { d: c.gr()?, s: c.gr()? },
        "cmp" => Op::Cmp { op: c.cmp_op()?, pt: c.pr()?, pf: c.pr()?, a: c.gr()?, b: c.gr()? },
        "cmpi" => Op::CmpI {
            op: c.cmp_op()?,
            pt: c.pr()?,
            pf: c.pr()?,
            a: c.gr()?,
            imm: c.int("immediate")?,
        },
        "ld" => {
            let size = c.size()?;
            let d = c.gr()?;
            let base = c.gr()?;
            let post_inc = c.int("post-increment")?;
            let spec = match c.next("spec flag")? {
                "spec" => true,
                "nospec" => false,
                t => return Err(c.err(format!("bad spec flag: {t:?}"))),
            };
            Op::Ld { d, base, post_inc, size, spec }
        }
        "st" => {
            let size = c.size()?;
            let base = c.gr()?;
            let s = c.gr()?;
            let post_inc = c.int("post-increment")?;
            Op::St { s, base, post_inc, size }
        }
        "ldf" => Op::Ldf { d: c.fr()?, base: c.gr()?, post_inc: c.int("post-increment")? },
        "stf" => Op::Stf { base: c.gr()?, s: c.fr()?, post_inc: c.int("post-increment")? },
        "lfetch" => Op::Lfetch { base: c.gr()?, post_inc: c.int("post-increment")? },
        "fma" => Op::Fma { d: c.fr()?, a: c.fr()?, b: c.fr()?, c: c.fr()? },
        "fadd" => Op::Fadd { d: c.fr()?, a: c.fr()?, b: c.fr()? },
        "fmul" => Op::Fmul { d: c.fr()?, a: c.fr()?, b: c.fr()? },
        "getf" => Op::Getf { d: c.gr()?, s: c.fr()? },
        "setf" => Op::Setf { d: c.fr()?, s: c.gr()? },
        "ret" => Op::BrRet,
        "alloc" => Op::Alloc,
        "halt" => Op::Halt,
        "nop" => {
            let kind = match c.next("slot kind")? {
                "M" => SlotKind::M,
                "I" => SlotKind::I,
                "F" => SlotKind::F,
                "B" => SlotKind::B,
                t => return Err(c.err(format!("bad slot kind: {t:?}"))),
            };
            Op::Nop(kind)
        }
        _ => return Err(c.err(format!("unknown mnemonic: {mnemonic:?}"))),
    };
    Ok(Insn { qp, op })
}

/// Parses a reproducer file back into a [`ProgSpec`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for a missing or
/// wrong header, an unknown directive or mnemonic, malformed operands,
/// or trailing tokens. Blank lines and `#` comments are ignored.
pub fn parse_repro(text: &str) -> Result<ProgSpec, ParseError> {
    let mut lines = text.lines().enumerate();
    let header = loop {
        match lines.next() {
            Some((n, l)) => {
                let t = l.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                break (n + 1, t);
            }
            None => return Err(ParseError { line: 1, message: "empty file".into() }),
        }
    };
    if header.1 != HEADER {
        return Err(ParseError {
            line: header.0,
            message: format!("bad header: expected {HEADER:?}"),
        });
    }

    let mut spec = ProgSpec { seed: 0, arena_bytes: 0, mem_seed: 0, items: Vec::new() };
    for (n, raw) in lines {
        let line = n + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut c = Cursor { toks: trimmed.split_whitespace(), line };
        let directive = c.next("directive")?;
        match directive {
            "seed" => spec.seed = c.uint("seed")?,
            "arena" => spec.arena_bytes = c.uint("arena size")?,
            "mem_seed" => spec.mem_seed = c.uint("memory seed")?,
            "label" => {
                let name = c.next("label name")?.to_string();
                spec.items.push(Item::Label(name));
            }
            "flush" => spec.items.push(Item::Flush),
            "branch" => {
                let kind = match c.next("branch kind")? {
                    "uncond" => BranchKind::Uncond,
                    "cond" => BranchKind::Cond,
                    "call" => BranchKind::Call,
                    t => return Err(c.err(format!("bad branch kind: {t:?}"))),
                };
                let qp = match c.next("qualifying predicate or -")? {
                    "-" => None,
                    t => {
                        let n = t
                            .strip_prefix('p')
                            .and_then(|r| r.parse::<u64>().ok())
                            .filter(|&n| n < 64)
                            .ok_or_else(|| c.err(format!("bad predicate: {t:?}")))?;
                        Some(Pr(n as u8))
                    }
                };
                let label = c.next("target label")?.to_string();
                c.done()?;
                spec.items.push(Item::Branch { qp, kind, label });
            }
            "insn" => {
                let insn = parse_insn(&mut c)?;
                c.done()?;
                spec.items.push(Item::Insn(insn));
            }
            _ => return Err(c.err(format!("unknown directive: {directive:?}"))),
        }
    }
    if spec.arena_bytes == 0 {
        return Err(ParseError { line: 1, message: "missing or zero arena size".into() });
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};

    #[test]
    fn round_trips_generated_specs() {
        let cfg = GenConfig::default();
        for seed in 0..25 {
            let (spec, _) = generate(seed, &cfg);
            let text = serialize_repro(&spec);
            let back = parse_repro(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(spec, back, "seed {seed} did not round-trip");
        }
    }

    #[test]
    fn parses_hand_written_case() {
        let text = "\
adore-oracle-reproducer v1
# a tiny countdown
seed 7
arena 4096
mem_seed 9

insn movl r10 3
label top
insn (p0) addi r10 r10 -1
insn cmpi gt p7 p8 r10 0
branch cond p7 top
flush
insn halt
";
        let spec = parse_repro(text).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.arena_bytes, 4096);
        assert_eq!(spec.items.len(), 7);
        assert!(spec.assemble().is_ok());
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        let bad = format!("{HEADER}\narena 64\ninsn frobnicate r1\n");
        let err = parse_repro(&bad).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"), "{err}");

        assert!(parse_repro("not a repro\n").is_err());
        assert!(parse_repro("").is_err());
    }
}
