//! The workload intermediate representation.
//!
//! The reproduction does not compile C; instead each SPEC2000-shaped
//! workload is described as a [`Kernel`]: a sequence of [`Phase`]s, each
//! repeating a set of counted [`LoopSpec`]s whose bodies make the three
//! kinds of memory references the paper's prefetcher distinguishes
//! (Fig. 5): **direct array**, **indirect array** and **pointer
//! chasing** — plus the properties that defeat static or runtime
//! prefetching (aliasing ambiguity, fp↔int address computation,
//! address computation behind a call).

/// Element declaration of an array operand.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Base address in the data arena (assigned by the workload).
    pub base: u64,
    /// Element size in bytes (4 or 8).
    pub elem_bytes: u64,
    /// Number of elements.
    pub len: u64,
    /// Whether elements are floating-point (loads use `ldfd` and bypass
    /// the L1D, as on Itanium 2).
    pub fp: bool,
}

impl ArrayDecl {
    /// Footprint in bytes.
    pub fn bytes(&self) -> u64 {
        self.elem_bytes * self.len
    }
}

/// Declaration of a linked list for pointer-chasing references.
#[derive(Debug, Clone)]
pub struct ListDecl {
    /// Address of the head node.
    pub head: u64,
    /// Node size in bytes.
    pub node_bytes: u64,
    /// Byte offset of the `next` pointer within a node.
    pub next_offset: u64,
    /// Byte offset of the payload field within a node.
    pub payload_offset: u64,
    /// Number of nodes.
    pub nodes: u64,
}

/// One memory reference in a loop body.
#[derive(Debug, Clone)]
pub enum RefSpec {
    /// `a[i]` with a compile-time-constant stride (Fig. 5 A).
    Direct {
        /// Index into [`Kernel::arrays`].
        array: usize,
        /// Stride in elements per iteration (may be negative).
        stride_elems: i64,
        /// Store instead of load.
        write: bool,
        /// The compiler cannot prove the access pattern (arrays passed
        /// as aliased parameters, §1.1): static prefetching skips it,
        /// runtime prefetching does not care.
        alias_ambiguous: bool,
    },
    /// `b[a[k]]`: two-level access where both levels may miss
    /// (Fig. 5 B). The index array is walked sequentially.
    Indirect {
        /// Index into [`Kernel::arrays`] for the index array (integer).
        index_array: usize,
        /// Index into [`Kernel::arrays`] for the data array.
        data_array: usize,
    },
    /// `p = p->next` traversal (Fig. 5 C).
    PointerChase {
        /// Index into [`Kernel::lists`].
        list: usize,
    },
    /// Jump-pointer traversal: each node also stores a pointer several
    /// hops ahead in traversal order, and the payload is read through
    /// *that* pointer (`q = p->jump; use q->payload; p = p->next`).
    /// This is the dependence-based shape the jump-pointer prefetching
    /// literature targets: the delinquent load's address comes from an
    /// intermediate load rather than the recurrent pointer itself.
    JumpPointer {
        /// Index into [`Kernel::lists`].
        list: usize,
        /// Byte offset of the jump pointer within a node. Must leave
        /// room for an 8-byte pointer inside the node.
        jump_offset: u64,
    },
}

/// How the address computation is expressed, which decides whether
/// ADORE's dependence slicing can recover a stride (paper §4.3 lists
/// fp↔int conversion and function calls as the failure modes seen in
/// vpr, lucas and gap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrComplexity {
    /// Plain adds / post-increments: fully analyzable.
    Simple,
    /// The index round-trips through a floating-point register
    /// (`setf`/`getf`), so the slice contains non-constant writers.
    FpConversion,
    /// The address is produced by a helper function; the call is a
    /// trace stop-point, so no loop trace is ever built.
    Call,
}

/// One counted innermost loop.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Loop name (unique within the kernel; keys profile-guided
    /// prefetch filtering).
    pub name: String,
    /// Iterations per execution of the surrounding phase body.
    pub trip: u64,
    /// Memory references per iteration.
    pub refs: Vec<RefSpec>,
    /// Extra integer ALU operations per iteration (dependence chain on
    /// the loaded values — this is what makes misses stall).
    pub int_ops: u32,
    /// Extra floating-point operations per iteration.
    pub fp_ops: u32,
    /// Address-computation style.
    pub complexity: AddrComplexity,
    /// Split the body into this many fragments connected by
    /// unconditional branches (poor I-cache layout; the trace selector
    /// straightens them — the vortex effect). 1 = contiguous.
    pub fragments: usize,
    /// Executed nop bundles added to the body (models large code
    /// footprint, e.g. gcc).
    pub code_bloat: usize,
    /// Emit all loads before any use, so independent misses overlap in
    /// the MSHRs (the "miss penalties effectively overlapped through
    /// instruction scheduling" behaviour the paper reports for applu).
    pub batch_uses: bool,
    /// The loop *resumes* where it left off on the next phase
    /// repetition (tiled processing): base registers are initialized
    /// once per phase and wrap around when they reach the end of their
    /// array, so the walk streams over the whole footprint instead of
    /// re-touching a cache-resident slice. Pointer chases are naturally
    /// resumable (the lists are circular).
    pub resume: bool,
}

impl LoopSpec {
    /// A minimal loop with the given name, trip count and references.
    pub fn new(name: impl Into<String>, trip: u64, refs: Vec<RefSpec>) -> LoopSpec {
        LoopSpec {
            name: name.into(),
            trip,
            refs,
            int_ops: 1,
            fp_ops: 0,
            complexity: AddrComplexity::Simple,
            fragments: 1,
            code_bloat: 0,
            batch_uses: false,
            resume: false,
        }
    }

    /// Sets the per-iteration compute mix.
    pub fn with_compute(mut self, int_ops: u32, fp_ops: u32) -> LoopSpec {
        self.int_ops = int_ops;
        self.fp_ops = fp_ops;
        self
    }

    /// Sets the address-computation complexity.
    pub fn with_complexity(mut self, c: AddrComplexity) -> LoopSpec {
        self.complexity = c;
        self
    }

    /// Splits the body into fragments (see [`LoopSpec::fragments`]).
    pub fn with_fragments(mut self, n: usize) -> LoopSpec {
        assert!(n >= 1, "at least one fragment");
        self.fragments = n;
        self
    }

    /// Adds executed nop bundles to the body.
    pub fn with_code_bloat(mut self, bundles: usize) -> LoopSpec {
        self.code_bloat = bundles;
        self
    }

    /// Batches all loads before their uses (see [`LoopSpec::batch_uses`]).
    pub fn with_batched_uses(mut self) -> LoopSpec {
        self.batch_uses = true;
        self
    }

    /// Makes the loop resumable across phase repetitions (see
    /// [`LoopSpec::resume`]).
    pub fn with_resume(mut self) -> LoopSpec {
        self.resume = true;
        self
    }
}

/// A program phase: its loops run in sequence, and the sequence repeats
/// `reps` times. Distinct phases are what ADORE's coarse-grain phase
/// detector is built to find (§2.3).
#[derive(Debug, Clone)]
pub struct Phase {
    /// Repetitions of the loop sequence.
    pub reps: u64,
    /// Loop indices into [`Kernel::loops`] executed per repetition.
    pub loops: Vec<usize>,
}

/// A complete synthetic workload.
#[derive(Debug, Clone, Default)]
pub struct Kernel {
    /// Workload name (e.g. `"181.mcf"`).
    pub name: String,
    /// Array operands.
    pub arrays: Vec<ArrayDecl>,
    /// Linked-list operands.
    pub lists: Vec<ListDecl>,
    /// All loops (referenced by phases).
    pub loops: Vec<LoopSpec>,
    /// Execution phases, run in order.
    pub phases: Vec<Phase>,
}

impl Kernel {
    /// Creates an empty kernel with a name.
    pub fn new(name: impl Into<String>) -> Kernel {
        Kernel { name: name.into(), ..Kernel::default() }
    }

    /// Adds an array, returning its index.
    pub fn add_array(&mut self, a: ArrayDecl) -> usize {
        self.arrays.push(a);
        self.arrays.len() - 1
    }

    /// Adds a list, returning its index.
    pub fn add_list(&mut self, l: ListDecl) -> usize {
        self.lists.push(l);
        self.lists.len() - 1
    }

    /// Adds a loop, returning its index.
    pub fn add_loop(&mut self, l: LoopSpec) -> usize {
        self.loops.push(l);
        self.loops.len() - 1
    }

    /// Adds a phase.
    pub fn add_phase(&mut self, reps: u64, loops: Vec<usize>) {
        self.phases.push(Phase { reps, loops });
    }

    /// Validates internal references.
    ///
    /// # Errors
    ///
    /// Returns a description of the first dangling index found.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = std::collections::HashSet::new();
        for (i, l) in self.loops.iter().enumerate() {
            if !names.insert(&l.name) {
                return Err(format!("duplicate loop name `{}`", l.name));
            }
            if l.trip == 0 {
                return Err(format!("loop {i} has zero trip count"));
            }
            for r in &l.refs {
                match *r {
                    RefSpec::Direct { array, .. } if array >= self.arrays.len() => {
                        return Err(format!("loop {i} references missing array {array}"));
                    }
                    RefSpec::Indirect { index_array, data_array }
                        if index_array >= self.arrays.len() || data_array >= self.arrays.len() =>
                    {
                        return Err(format!("loop {i} references missing array"));
                    }
                    RefSpec::PointerChase { list } if list >= self.lists.len() => {
                        return Err(format!("loop {i} references missing list {list}"));
                    }
                    RefSpec::JumpPointer { list, jump_offset } => {
                        if list >= self.lists.len() {
                            return Err(format!("loop {i} references missing list {list}"));
                        }
                        if jump_offset + 8 > self.lists[list].node_bytes {
                            return Err(format!(
                                "loop {i}: jump offset {jump_offset} outside node"
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            if p.reps == 0 {
                return Err(format!("phase {i} has zero reps"));
            }
            for &l in &p.loops {
                if l >= self.loops.len() {
                    return Err(format!("phase {i} references missing loop {l}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> ArrayDecl {
        ArrayDecl { base: 0x1000_0000, elem_bytes: 8, len: 1024, fp: false }
    }

    #[test]
    fn build_and_validate() {
        let mut k = Kernel::new("test");
        let a = k.add_array(array());
        let l = k.add_loop(LoopSpec::new(
            "l0",
            100,
            vec![RefSpec::Direct {
                array: a,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.add_phase(10, vec![l]);
        assert!(k.validate().is_ok());
    }

    #[test]
    fn dangling_array_is_rejected() {
        let mut k = Kernel::new("bad");
        let l = k.add_loop(LoopSpec::new(
            "l0",
            100,
            vec![RefSpec::Direct {
                array: 3,
                stride_elems: 1,
                write: false,
                alias_ambiguous: false,
            }],
        ));
        k.add_phase(1, vec![l]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn duplicate_loop_names_rejected() {
        let mut k = Kernel::new("dup");
        k.add_loop(LoopSpec::new("x", 1, vec![]));
        k.add_loop(LoopSpec::new("x", 1, vec![]));
        assert!(k.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn zero_trip_rejected() {
        let mut k = Kernel::new("z");
        k.add_loop(LoopSpec::new("x", 0, vec![]));
        assert!(k.validate().is_err());
    }

    #[test]
    fn jump_pointer_bounds_are_validated() {
        let mut k = Kernel::new("jp");
        let l = k.add_list(ListDecl {
            head: 0x1000_0000,
            node_bytes: 64,
            next_offset: 0,
            payload_offset: 8,
            nodes: 16,
        });
        let good = k.add_loop(LoopSpec::new(
            "ok",
            10,
            vec![RefSpec::JumpPointer { list: l, jump_offset: 16 }],
        ));
        k.add_phase(1, vec![good]);
        assert!(k.validate().is_ok());

        // A jump pointer that does not fit inside the node.
        k.loops[good].refs = vec![RefSpec::JumpPointer { list: l, jump_offset: 60 }];
        assert!(k.validate().unwrap_err().contains("jump offset"));

        // A dangling list index.
        k.loops[good].refs = vec![RefSpec::JumpPointer { list: 7, jump_offset: 16 }];
        assert!(k.validate().unwrap_err().contains("missing list"));
    }

    #[test]
    fn dangling_phase_loop_rejected() {
        let mut k = Kernel::new("p");
        k.add_phase(1, vec![0]);
        assert!(k.validate().is_err());
    }

    #[test]
    fn builder_helpers() {
        let l = LoopSpec::new("l", 10, vec![])
            .with_compute(3, 2)
            .with_complexity(AddrComplexity::FpConversion)
            .with_fragments(4)
            .with_code_bloat(16);
        assert_eq!(l.int_ops, 3);
        assert_eq!(l.fp_ops, 2);
        assert_eq!(l.complexity, AddrComplexity::FpConversion);
        assert_eq!(l.fragments, 4);
        assert_eq!(l.code_bloat, 16);
    }

    #[test]
    fn array_footprint() {
        assert_eq!(array().bytes(), 8192);
    }
}
