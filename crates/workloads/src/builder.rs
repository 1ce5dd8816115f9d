//! Workload construction: data-layout planning and memory initialization.
//!
//! A [`WorkloadBuilder`] mirrors the simulator's bump allocator so the
//! kernel IR can carry concrete base addresses, and records the
//! initialization actions (index-array contents, linked-list layouts)
//! that [`crate::Workload::prepare`] replays into a machine's memory.

use compiler::{ArrayDecl, Kernel, ListDecl};
use sim::{Memory, DATA_BASE};

use crate::rng::{Rng64, Zipfian};

/// A deferred memory-initialization action.
#[derive(Debug, Clone)]
pub enum InitAction {
    /// Fill an index array with values uniform in `[0, range)`.
    IndexArray {
        /// Base address of the array.
        base: u64,
        /// Number of 4-byte entries.
        count: u64,
        /// Exclusive upper bound of index values.
        range: u64,
        /// Deterministic seed.
        seed: u64,
    },
    /// Lay out a circular singly-linked list.
    ///
    /// Nodes are placed at `base + slot * node_bytes` and traversed in
    /// *runs* of `run_length` consecutive slots; the runs themselves
    /// are visited in shuffled order. Long runs model allocation-order
    /// lists (mcf's arcs — "partially regular strides", §3.2.2) where
    /// induction-pointer extrapolation succeeds inside a run and fails
    /// only at run boundaries; `run_length = 1` is a fully shuffled
    /// list where extrapolation almost never helps.
    CircularList {
        /// Base address of the node pool.
        base: u64,
        /// Number of nodes.
        nodes: u64,
        /// Node size in bytes.
        node_bytes: u64,
        /// Byte offset of the `next` pointer within a node.
        next_offset: u64,
        /// Consecutive slots per regular run.
        run_length: u64,
        /// Deterministic seed.
        seed: u64,
    },
    /// Fill an index array with Zipfian-distributed keys scattered over
    /// `[0, range)` (the server-family request stream: few hot keys,
    /// long cold tail). Ranks are spread over the range by a fixed
    /// multiplicative hash so hot keys do not share cache lines.
    ZipfIndexArray {
        /// Base address of the array.
        base: u64,
        /// Number of 4-byte entries.
        count: u64,
        /// Exclusive upper bound of index values.
        range: u64,
        /// Zipfian skew in `(0, 1)`.
        theta: f64,
        /// Deterministic seed.
        seed: u64,
    },
    /// Lay out a circular list like [`InitAction::CircularList`] and
    /// additionally store, in each node, a *jump pointer* to the node
    /// `hops` positions ahead in traversal order (the jump-pointer
    /// prefetching shape: the payload dereference goes through this
    /// pointer, so its address never derives from the recurrent
    /// pointer alone).
    JumpList {
        /// Base address of the node pool.
        base: u64,
        /// Number of nodes.
        nodes: u64,
        /// Node size in bytes.
        node_bytes: u64,
        /// Byte offset of the `next` pointer within a node.
        next_offset: u64,
        /// Byte offset of the jump pointer within a node.
        jump_offset: u64,
        /// Traversal-order distance of the jump pointer.
        hops: u64,
        /// Consecutive slots per regular run.
        run_length: u64,
        /// Deterministic seed.
        seed: u64,
    },
}

/// Traversal order of a run-shuffled circular list.
fn list_order(nodes: u64, run_length: u64, seed: u64) -> Vec<u64> {
    let run = run_length.max(1);
    let n_runs = nodes.div_ceil(run);
    let mut runs: Vec<u64> = (0..n_runs).collect();
    Rng64::new(seed).shuffle(&mut runs);
    let mut order = Vec::with_capacity(nodes as usize);
    for r in runs {
        let start = r * run;
        let end = ((r + 1) * run).min(nodes);
        order.extend(start..end);
    }
    order
}

impl InitAction {
    /// Applies the action to a memory arena.
    pub fn apply(&self, mem: &mut Memory) {
        match *self {
            InitAction::IndexArray { base, count, range, seed } => {
                let mut rng = Rng64::new(seed);
                for i in 0..count {
                    let v = rng.below(range.max(1));
                    mem.write(base + 4 * i, 4, v);
                }
            }
            InitAction::CircularList { base, nodes, node_bytes, next_offset, run_length, seed } => {
                let order = list_order(nodes, run_length, seed);
                for i in 0..nodes as usize {
                    let node = base + order[i] * node_bytes;
                    let next = base + order[(i + 1) % nodes as usize] * node_bytes;
                    mem.write(node + next_offset, 8, next);
                    // Payload: the slot number.
                    if next_offset != 8 {
                        mem.write(node + 8, 8, order[i]);
                    }
                }
            }
            InitAction::ZipfIndexArray { base, count, range, theta, seed } => {
                let z = Zipfian::new(range.max(1), theta);
                let mut rng = Rng64::new(seed);
                for i in 0..count {
                    let rank = z.next(&mut rng);
                    // Scatter ranks over the range (odd multiplier, so
                    // the map is a bijection modulo a power of two and
                    // near-uniform otherwise).
                    let key = rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) % range.max(1);
                    mem.write(base + 4 * i, 4, key);
                }
            }
            InitAction::JumpList {
                base,
                nodes,
                node_bytes,
                next_offset,
                jump_offset,
                hops,
                run_length,
                seed,
            } => {
                let order = list_order(nodes, run_length, seed);
                let n = nodes as usize;
                for i in 0..n {
                    let node = base + order[i] * node_bytes;
                    let next = base + order[(i + 1) % n] * node_bytes;
                    let jump = base + order[(i + hops as usize) % n] * node_bytes;
                    mem.write(node + next_offset, 8, next);
                    mem.write(node + jump_offset, 8, jump);
                    mem.write(node + 8, 8, order[i]);
                }
            }
        }
    }

    /// The address of the first node in traversal order (the list
    /// head), for `CircularList`; `base` otherwise.
    pub fn head(&self) -> u64 {
        match *self {
            InitAction::IndexArray { base, .. } => base,
            InitAction::ZipfIndexArray { base, .. } => base,
            InitAction::CircularList { base, nodes, node_bytes, run_length, seed, .. }
            | InitAction::JumpList { base, nodes, node_bytes, run_length, seed, .. } => {
                base + list_order(nodes, run_length, seed)[0] * node_bytes
            }
        }
    }
}

/// Incrementally builds a kernel plus its data plan.
#[derive(Debug)]
pub struct WorkloadBuilder {
    /// The kernel under construction.
    pub kernel: Kernel,
    cursor: u64,
    inits: Vec<InitAction>,
    seed: u64,
}

impl WorkloadBuilder {
    /// Starts a builder for the named kernel.
    pub fn new(name: &str, seed: u64) -> WorkloadBuilder {
        WorkloadBuilder { kernel: Kernel::new(name), cursor: DATA_BASE, inits: Vec::new(), seed }
    }

    fn alloc(&mut self, bytes: u64) -> u64 {
        let base = (self.cursor + 63) & !63;
        self.cursor = base + bytes;
        base
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.seed
    }

    /// Adds a data array of `len` elements; returns its kernel index.
    pub fn array(&mut self, len: u64, elem_bytes: u64, fp: bool) -> usize {
        let base = self.alloc(len * elem_bytes + 256);
        self.kernel.add_array(ArrayDecl { base, elem_bytes, len, fp })
    }

    /// Adds a 4-byte index array with random contents in `[0, range)`.
    pub fn index_array(&mut self, len: u64, range: u64) -> usize {
        let base = self.alloc(len * 4 + 256);
        let seed = self.next_seed();
        self.inits.push(InitAction::IndexArray { base, count: len, range, seed });
        self.kernel.add_array(ArrayDecl { base, elem_bytes: 4, len, fp: false })
    }

    /// Adds a circular linked list traversed in shuffled runs of
    /// `run_length` consecutive nodes; returns its kernel index.
    pub fn list(&mut self, nodes: u64, node_bytes: u64, run_length: u64) -> usize {
        let base = self.alloc(nodes * node_bytes + 256);
        let seed = self.next_seed();
        let action =
            InitAction::CircularList { base, nodes, node_bytes, next_offset: 0, run_length, seed };
        let head = action.head();
        self.inits.push(action);
        self.kernel.add_list(ListDecl {
            head,
            node_bytes,
            next_offset: 0,
            payload_offset: 8,
            nodes,
        })
    }

    /// Adds a 4-byte index array with Zipfian-distributed contents in
    /// `[0, range)` (skew `theta`); returns its kernel index.
    pub fn zipf_index_array(&mut self, len: u64, range: u64, theta: f64) -> usize {
        let base = self.alloc(len * 4 + 256);
        let seed = self.next_seed();
        self.inits.push(InitAction::ZipfIndexArray { base, count: len, range, theta, seed });
        self.kernel.add_array(ArrayDecl { base, elem_bytes: 4, len, fp: false })
    }

    /// Adds a circular list whose nodes also carry a jump pointer
    /// `hops` nodes ahead at byte offset 16 (layout: `next` at 0,
    /// payload at 8, jump at 16); returns its kernel index. Pair with
    /// [`compiler::RefSpec::JumpPointer`] and `jump_offset: 16`.
    pub fn jump_list(&mut self, nodes: u64, node_bytes: u64, run_length: u64, hops: u64) -> usize {
        assert!(node_bytes >= 24, "jump-list nodes need next+payload+jump fields");
        let base = self.alloc(nodes * node_bytes + 256);
        let seed = self.next_seed();
        let action = InitAction::JumpList {
            base,
            nodes,
            node_bytes,
            next_offset: 0,
            jump_offset: 16,
            hops,
            run_length,
            seed,
        };
        let head = action.head();
        self.inits.push(action);
        self.kernel.add_list(ListDecl {
            head,
            node_bytes,
            next_offset: 0,
            payload_offset: 8,
            nodes,
        })
    }

    /// Total arena bytes required.
    pub fn arena_bytes(&self) -> u64 {
        self.cursor - DATA_BASE + 4096
    }

    /// Finishes, returning the kernel, init actions, and arena size.
    pub fn finish(self) -> (Kernel, Vec<InitAction>, u64) {
        let arena = self.cursor - DATA_BASE + 4096;
        (self.kernel, self.inits, arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_are_disjoint_and_aligned() {
        let mut b = WorkloadBuilder::new("t", 1);
        let a1 = b.array(1000, 8, false);
        let a2 = b.array(1000, 4, true);
        let d1 = b.kernel.arrays[a1].clone();
        let d2 = b.kernel.arrays[a2].clone();
        assert_eq!(d1.base % 64, 0);
        assert_eq!(d2.base % 64, 0);
        assert!(d2.base >= d1.base + d1.bytes());
        assert!(b.arena_bytes() > d1.bytes() + d2.bytes());
    }

    #[test]
    fn index_array_values_in_range() {
        let mut b = WorkloadBuilder::new("t", 7);
        let a = b.index_array(512, 100);
        let decl = b.kernel.arrays[a].clone();
        let (_, inits, arena) = b.finish();
        let mut mem = Memory::new(arena as usize);
        for i in &inits {
            i.apply(&mut mem);
        }
        for i in 0..512 {
            let v = mem.read(decl.base + 4 * i, 4);
            assert!(v < 100);
        }
    }

    #[test]
    fn regular_list_has_constant_stride() {
        let mut b = WorkloadBuilder::new("t", 3);
        let l = b.list(64, 128, 64);
        let decl = b.kernel.lists[l].clone();
        let (_, inits, arena) = b.finish();
        let mut mem = Memory::new(arena as usize);
        for i in &inits {
            i.apply(&mut mem);
        }
        // Walk the list: every hop advances by exactly node_bytes.
        let mut p = decl.head;
        for _ in 0..63 {
            let next = mem.read(p + decl.next_offset, 8);
            assert_eq!(next, p + 128);
            p = next;
        }
        // …and the last hop closes the circle.
        assert_eq!(mem.read(p, 8), decl.head);
    }

    #[test]
    fn irregular_list_visits_every_node_once() {
        let mut b = WorkloadBuilder::new("t", 11);
        let l = b.list(256, 64, 4);
        let decl = b.kernel.lists[l].clone();
        let (_, inits, arena) = b.finish();
        let mut mem = Memory::new(arena as usize);
        for i in &inits {
            i.apply(&mut mem);
        }
        let mut p = decl.head;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            assert!(seen.insert(p), "node visited twice");
            p = mem.read(p + decl.next_offset, 8);
        }
        assert_eq!(p, decl.head, "list must be circular");
    }

    #[test]
    fn zipf_index_array_is_skewed_and_in_range() {
        let mut b = WorkloadBuilder::new("t", 17);
        let a = b.zipf_index_array(4096, 1 << 16, 0.9);
        let decl = b.kernel.arrays[a].clone();
        let (_, inits, arena) = b.finish();
        let mut mem = Memory::new(arena as usize);
        for i in &inits {
            i.apply(&mut mem);
        }
        let mut counts = std::collections::HashMap::new();
        for i in 0..4096 {
            let v = mem.read(decl.base + 4 * i, 4);
            assert!(v < 1 << 16);
            *counts.entry(v).or_insert(0u64) += 1;
        }
        // Skew: the hottest key must appear far more often than a
        // uniform draw over 64 K keys would allow (~1 expected).
        let hottest = counts.values().max().copied().unwrap();
        assert!(hottest > 100, "hottest key drawn only {hottest} times");
    }

    #[test]
    fn jump_list_jump_pointers_land_hops_ahead() {
        let mut b = WorkloadBuilder::new("t", 23);
        let hops = 6u64;
        let l = b.jump_list(256, 64, 8, hops);
        let decl = b.kernel.lists[l].clone();
        let (_, inits, arena) = b.finish();
        let mut mem = Memory::new(arena as usize);
        for i in &inits {
            i.apply(&mut mem);
        }
        // Walk the next chain; each jump pointer must equal the node
        // reached by `hops` further next-hops.
        let mut p = decl.head;
        for _ in 0..256 {
            let mut q = p;
            for _ in 0..hops {
                q = mem.read(q + decl.next_offset, 8);
            }
            assert_eq!(mem.read(p + 16, 8), q, "jump pointer must land {hops} hops ahead");
            p = mem.read(p + decl.next_offset, 8);
        }
        assert_eq!(p, decl.head, "list must be circular");
    }

    #[test]
    fn irregularity_degrades_stride_regularity() {
        let stride_accuracy = |run: u64| {
            let mut b = WorkloadBuilder::new("t", 5);
            let l = b.list(1024, 64, run);
            let decl = b.kernel.lists[l].clone();
            let (_, inits, arena) = b.finish();
            let mut mem = Memory::new(arena as usize);
            for i in &inits {
                i.apply(&mut mem);
            }
            let mut p = decl.head;
            let mut regular = 0;
            for _ in 0..1023 {
                let next = mem.read(p, 8);
                if next == p + 64 {
                    regular += 1;
                }
                p = next;
            }
            regular as f64 / 1023.0
        };
        assert!(stride_accuracy(1024) > 0.99);
        assert!(stride_accuracy(64) > 0.9, "long runs are mostly regular");
        let short = stride_accuracy(2);
        assert!(short < 0.6, "short runs should be mostly irregular: {short}");
    }
}
