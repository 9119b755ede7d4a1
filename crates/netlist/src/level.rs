//! Levelization and compilation of a netlist into a flat instruction stream.
//!
//! [`levelize`] assigns every net an ASAP logic level (sources — constants,
//! primary inputs, and DFF outputs — are level 0; every other gate sits one
//! past its deepest fan-in) and produces a level-major evaluation order.
//! [`Program::compile`] then lowers the netlist to a dense, branch-friendly
//! opcode stream in structure-of-arrays layout: one opcode byte plus up to
//! three operand net indices per op. The stream is what
//! [`crate::compiled::CompiledSim`] executes up to 512 stimulus lanes at
//! a time; the level boundaries are retained for the per-level native
//! code of [`crate::jit`] and for cutting fan-out cones
//! ([`crate::compiled::CompiledSim::cone`]).

use crate::{Gate, NetId, Netlist};

/// Converts an op-stream size to the `u32` index space the compiled arrays
/// use, panicking with an actionable message instead of silently
/// truncating when a netlist is too large.
fn checked_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!(
            "netlist too large to compile: {n} {what} exceed the u32 index \
             space of the compiled op stream ({} max); shard the design or \
             widen the Program index type",
            u32::MAX
        )
    })
}

/// ASAP levelization of a netlist.
#[derive(Debug, Clone)]
pub struct Levelized {
    /// Logic depth per net (indexed by `NetId`).
    pub depth: Vec<u32>,
    /// All nets in level-major order (stable by id within a level).
    pub order: Vec<NetId>,
    /// `order[bounds[l] as usize..bounds[l + 1] as usize]` is level `l`.
    pub bounds: Vec<u32>,
}

impl Levelized {
    /// Number of levels (combinational depth + 1).
    pub fn levels(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }
}

/// Computes ASAP levels over the gate arena.
///
/// Relies on the arena's topological invariant (every combinational fan-in
/// id is smaller than the gate's id), so a single forward pass suffices.
pub fn levelize(netlist: &Netlist) -> Levelized {
    let gates = netlist.gates();
    // The counting sort below and the compiled op stream index nets with
    // u32; reject oversized arenas up front instead of wrapping.
    checked_u32(gates.len(), "nets");
    let mut depth = vec![0u32; gates.len()];
    let mut max_level = 0u32;
    for (id, gate) in gates.iter().enumerate() {
        let d = match gate {
            Gate::Const(_) | Gate::Input(_) | Gate::Dff { .. } => 0,
            _ => gate.fanin().map(|f| depth[f as usize]).max().unwrap_or(0) + 1,
        };
        depth[id] = d;
        max_level = max_level.max(d);
    }
    // Counting sort by level keeps the order stable (ids ascending within a
    // level), which in turn keeps toggle accounting identical to the
    // interpreted backend's id-order pass.
    let mut bounds = vec![0u32; max_level as usize + 2];
    for &d in &depth {
        bounds[d as usize + 1] += 1;
    }
    for l in 1..bounds.len() {
        bounds[l] += bounds[l - 1];
    }
    let mut cursor = bounds.clone();
    let mut order = vec![0 as NetId; gates.len()];
    for (id, &d) in depth.iter().enumerate() {
        order[cursor[d as usize] as usize] = id as NetId;
        cursor[d as usize] += 1;
    }
    Levelized {
        depth,
        order,
        bounds,
    }
}

/// One flat-stream operation kind.
///
/// Constants are not scheduled (their value words are preset once at reset
/// and never change), so the stream holds only ops whose result can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// `dst = input_word(a)` — copy a primary-input lane word.
    Input,
    /// `dst = !a`.
    Not,
    /// `dst = a & b`.
    And,
    /// `dst = a | b`.
    Or,
    /// `dst = a ^ b`.
    Xor,
    /// `dst = !(a & b)`.
    Nand,
    /// `dst = !(a | b)`.
    Nor,
    /// `dst = !(a ^ b)`.
    Xnor,
    /// `dst = (c & b) | (!c & a)` — 2:1 mux with select `c`.
    Mux,
    /// `dst = ff_state(dst)` — publish a flip-flop's stored word.
    DffOut,
}

/// A netlist compiled to a structure-of-arrays op stream.
///
/// All five arrays have one entry per op; unused operand slots are 0. Ops
/// are stored level-major, so a forward sweep is a valid combinational
/// settle, and [`Program::level_ops`] exposes the per-level slices.
#[derive(Debug, Clone)]
pub struct Program {
    /// Opcode per op.
    pub opcodes: Vec<OpCode>,
    /// Destination net per op.
    pub dst: Vec<u32>,
    /// First operand: net id, or the primary-input index for [`OpCode::Input`].
    pub a: Vec<u32>,
    /// Second operand net (two-input gates, mux `b` leg).
    pub b: Vec<u32>,
    /// Third operand net (mux select).
    pub c: Vec<u32>,
    /// Op-stream offsets of each level (`len = levels + 1`).
    pub bounds: Vec<u32>,
    /// Constant nets and their fixed values (preset at reset, never executed).
    pub consts: Vec<(NetId, bool)>,
    /// `(ff net, d net)` pairs latched by a clock edge.
    pub dffs: Vec<(NetId, NetId)>,
    /// Total nets in the source netlist (sizing for value/toggle arrays).
    pub net_count: usize,
    /// Number of primary-input bits.
    pub input_count: usize,
    /// Lazily-compiled native code, one weak slot per lane-block width
    /// ([`crate::jit`]): shared by every simulator running it, unmapped
    /// when the last one drops (the program itself pins nothing), and
    /// empty on clone, so hand-mutated program copies never execute
    /// stale code.
    pub(crate) jit: crate::jit::JitSlots,
}

impl Program {
    /// Lowers `netlist` into the flat op stream.
    pub fn compile(netlist: &Netlist) -> Program {
        let lev = levelize(netlist);
        let gates = netlist.gates();
        let levels = lev.levels();
        let mut p = Program {
            opcodes: Vec::with_capacity(gates.len()),
            dst: Vec::with_capacity(gates.len()),
            a: Vec::with_capacity(gates.len()),
            b: Vec::with_capacity(gates.len()),
            c: Vec::with_capacity(gates.len()),
            bounds: Vec::with_capacity(lev.bounds.len()),
            consts: Vec::new(),
            dffs: Vec::new(),
            net_count: gates.len(),
            input_count: netlist.inputs().iter().map(|port| port.nets.len()).sum(),
            jit: crate::jit::JitSlots::default(),
        };
        p.bounds.push(0);
        for level in 0..levels {
            for &id in &lev.order[lev.bounds[level] as usize..lev.bounds[level + 1] as usize] {
                let (op, a, b, c) = match gates[id as usize] {
                    Gate::Const(v) => {
                        p.consts.push((id, v));
                        continue;
                    }
                    Gate::Input(idx) => (OpCode::Input, idx, 0, 0),
                    Gate::Not(x) => (OpCode::Not, x, 0, 0),
                    Gate::And(x, y) => (OpCode::And, x, y, 0),
                    Gate::Or(x, y) => (OpCode::Or, x, y, 0),
                    Gate::Xor(x, y) => (OpCode::Xor, x, y, 0),
                    Gate::Nand(x, y) => (OpCode::Nand, x, y, 0),
                    Gate::Nor(x, y) => (OpCode::Nor, x, y, 0),
                    Gate::Xnor(x, y) => (OpCode::Xnor, x, y, 0),
                    Gate::Mux { sel, a, b } => (OpCode::Mux, a, b, sel),
                    Gate::Dff { d, .. } => {
                        p.dffs.push((id, d));
                        (OpCode::DffOut, 0, 0, 0)
                    }
                };
                p.opcodes.push(op);
                p.dst.push(id);
                p.a.push(a);
                p.b.push(b);
                p.c.push(c);
            }
            p.bounds.push(checked_u32(p.opcodes.len(), "ops"));
        }
        p
    }

    /// Native code for `lane_words`-word lane blocks under default
    /// [`crate::jit::JitOptions`]: the code another holder is still
    /// running if there is one (so simulators sharing a program, or a
    /// [`crate::cache::ProgramCache`] hit, share one emission), else a
    /// fresh emission. The caller's `Arc` keeps it mapped. `None` when
    /// codegen is unavailable for this host, program, or width — a
    /// verdict memoized for good; callers run the interpreter instead.
    pub fn jit(&self, lane_words: usize) -> Option<std::sync::Arc<crate::jit::JitProgram>> {
        self.jit.get_or_build(self, lane_words)
    }

    /// Number of scheduled ops.
    pub fn len(&self) -> usize {
        self.opcodes.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.opcodes.is_empty()
    }

    /// Number of levels in the schedule.
    pub fn levels(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// The op index range of one level.
    pub fn level_ops(&self, level: usize) -> std::ops::Range<usize> {
        self.bounds[level] as usize..self.bounds[level + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    fn sample() -> Netlist {
        let mut b = Builder::new();
        let x = b.input("x");
        let y = b.input("y");
        let a = b.and(x, y);
        let o = b.or(a, x);
        let ff = b.dff(false);
        let n = b.xor(o, ff);
        b.connect_dff(ff, n);
        b.output("q", n);
        b.finish()
    }

    #[test]
    fn levels_respect_fanin_depth() {
        let nl = sample();
        let lev = levelize(&nl);
        for (id, gate) in nl.gates().iter().enumerate() {
            for f in gate.fanin() {
                assert!(
                    lev.depth[f as usize] < lev.depth[id],
                    "fan-in {f} not strictly shallower than {id}"
                );
            }
        }
        assert!(lev.levels() >= 3);
        assert_eq!(lev.order.len(), nl.len());
    }

    #[test]
    fn order_is_a_permutation() {
        let nl = sample();
        let lev = levelize(&nl);
        let mut seen = vec![false; nl.len()];
        for &id in &lev.order {
            assert!(!seen[id as usize]);
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "netlist too large to compile")]
    fn oversized_op_streams_are_rejected_not_truncated() {
        // Regression for the silent `as u32` truncation: the checked
        // conversion must panic with an actionable message instead of
        // wrapping when a netlist exceeds the u32 index space.
        let _ = checked_u32(u32::MAX as usize + 1, "ops");
    }

    #[test]
    fn compile_schedules_every_non_const_gate_once() {
        let nl = sample();
        let p = Program::compile(&nl);
        let const_count = nl
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Const(_)))
            .count();
        assert_eq!(p.len() + const_count, nl.len());
        assert_eq!(p.consts.len(), const_count);
        assert_eq!(p.dffs.len(), 1);
        // Ops within the stream never read a net scheduled at the same or a
        // later position, except DffOut/Input which read external state.
        let mut scheduled = vec![false; nl.len()];
        for &(id, _) in p.consts.iter() {
            scheduled[id as usize] = true;
        }
        for i in 0..p.len() {
            match p.opcodes[i] {
                OpCode::Input | OpCode::DffOut => {}
                OpCode::Mux => {
                    assert!(scheduled[p.a[i] as usize]);
                    assert!(scheduled[p.b[i] as usize]);
                    assert!(scheduled[p.c[i] as usize]);
                }
                OpCode::Not => assert!(scheduled[p.a[i] as usize]),
                _ => {
                    assert!(scheduled[p.a[i] as usize]);
                    assert!(scheduled[p.b[i] as usize]);
                }
            }
            scheduled[p.dst[i] as usize] = true;
        }
    }
}
