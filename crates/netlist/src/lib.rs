//! Gate-level netlist intermediate representation.
//!
//! This crate is the reproduction's hardware substrate: the paper writes
//! instruction hardware blocks in SystemVerilog and lets a commercial
//! synthesis tool flatten and share logic; here, blocks are built as
//! gate-level netlists through a hash-consing [`Builder`] and the
//! [`opt`] module performs the redundancy-removal role of the synthesis
//! tool (structural sharing, constant propagation, dead-logic sweep).
//!
//! * [`Netlist`] — flat arena of [`Gate`]s with named input/output ports.
//! * [`bus`] — word-level combinators (adders, barrel shifters, muxes)
//!   used by the instruction hardware blocks.
//! * [`sim`] — the [`sim::SimBackend`] abstraction plus the interpreted
//!   reference backend, event-free and two-phase with toggle counting (the
//!   activity numbers feed the FlexIC power model).
//! * [`level`] — levelization and compilation of a netlist into a flat,
//!   level-major, structure-of-arrays op stream.
//! * [`compiled`] — the compiled backend: up to 512 stimulus lanes per
//!   eval packed as K-word lane blocks (K contiguous `u64`s per net),
//!   exact popcount-per-word toggle accounting, full sweeps that move
//!   from the interpreter to native code ([`compiled::EvalMode`]), and
//!   settles of static fan-out cones ([`compiled::Cone`]).
//! * [`jit`] — native code emission for the compiled op stream: each
//!   level lowered to straight-line x86-64 in an mmap'd W^X buffer
//!   (`EvalMode::Jit`, `EvalMode::Auto`'s native tier, `GATE_SIM_JIT`),
//!   falling back to the interpreter bit-identically wherever codegen is
//!   unavailable (contract in `docs/jit.md`).
//! * [`sharded`] — the multi-threaded backend: compiled lane blocks over
//!   disjoint stimulus lanes, merged bit-identically regardless of
//!   thread count or block width.
//! * [`pool`] — the one parallel primitive: a scoped-thread claim loop
//!   ([`pool::claim_map`]) that hands shards, blocks and workloads out
//!   off an atomic counter.
//! * [`failpoints`] — feature-gated deterministic fault injection
//!   (`GATE_SIM_FAILPOINTS`): seeded schedules that force cache
//!   misses/evictions and JIT failures so the fallback paths above are
//!   exercised on purpose (`docs/robustness.md`).
//! * [`opt`] — "synthesis": re-cons, constant-fold and sweep a netlist.
//! * [`stats`] — NAND2-equivalent gate counting exactly as the paper's
//!   area numbers are reported.
//!
//! The semantics every backend must honour — settle/step phases, lane
//! packing, the first-eval toggle rule, popcount accounting, and the
//! determinism guarantees — are specified in `docs/simulation.md` at the
//! repository root.
//!
//! # Examples
//!
//! Build a netlist, simulate it on the interpreted backend, and read the
//! toggle counts that feed the power model:
//!
//! ```
//! use netlist::{Builder, bus, SimBackend};
//!
//! let mut b = Builder::new();
//! let a = b.input_bus("a", 8);
//! let c = b.input_bus("b", 8);
//! let (sum, _carry) = bus::add(&mut b, &a, &c);
//! b.output_bus("sum", &sum);
//! let nl = b.finish();
//! let mut sim = netlist::sim::Sim::new(&nl);
//! sim.set_bus("a", 200);
//! sim.set_bus("b", 100);
//! sim.eval();
//! assert_eq!(sim.get_bus("sum"), (200 + 100) & 0xff);
//! sim.step();
//! // Change the stimulus: switching activity accumulates per net.
//! sim.set_bus("a", 0x55);
//! sim.eval();
//! assert!(sim.toggles().iter().sum::<u64>() > 0);
//! ```
//!
//! The compiled and sharded backends produce bit-identical results behind
//! the same [`SimBackend`] trait:
//!
//! ```
//! use netlist::{Builder, CompiledSim, ShardedSim, SimBackend, sharded::ShardPolicy};
//!
//! let mut b = Builder::new();
//! let x = b.input_bus("x", 4);
//! b.output_bus("y", &x);
//! let nl = b.finish();
//! let mut wide = CompiledSim::with_lanes(&nl, 128); // one 2-word lane block
//! let mut sharded = ShardedSim::with_policy(&nl, ShardPolicy { shards: 2, lanes_per_shard: 64, threads: 2 });
//! wide.set_bus("x", 0b1010);
//! SimBackend::set_bus(&mut sharded, "x", 0b1010);
//! wide.eval();
//! sharded.eval();
//! assert_eq!(wide.get_bus_lane("y", 127), sharded.get_bus_lane("y", 127));
//! ```

pub mod bus;
pub mod cache;
pub mod compiled;
pub mod env;
pub mod failpoints;
pub mod jit;
pub mod level;
pub mod opt;
pub mod pool;
pub mod sharded;
pub mod sim;
pub mod stats;

pub use cache::{CacheStats, ProgramCache};
pub use compiled::{
    word_lane_mask, CompiledSim, EvalMode, PortId, AUTO_NATIVE_AFTER_SETTLES, LANES_PER_WORD,
    MAX_LANE_WORDS, MAX_TOTAL_LANES,
};
pub use jit::{JitOptions, JitProgram};
pub use sharded::{ShardPolicy, ShardedSim};
pub use sim::{EvalStats, Sim, SimBackend};

/// Historical entry point for [`env::threads`] (the `GATE_SIM_THREADS`
/// knob); all the `GATE_SIM_*` parsing now lives in [`mod@env`].
pub use env::threads as env_threads;

use std::collections::HashMap;

/// Identifier of a net (the output of one gate).
pub type NetId = u32;

/// A primitive logic element.
///
/// Two-input gates store their operands in normalised (sorted) order for the
/// commutative kinds, which the [`Builder`] relies on for structural
/// hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant `false` or `true`.
    Const(bool),
    /// A primary input bit (index into the input port table).
    Input(u32),
    /// Inverter.
    Not(NetId),
    /// 2-input AND.
    And(NetId, NetId),
    /// 2-input OR.
    Or(NetId, NetId),
    /// 2-input XOR.
    Xor(NetId, NetId),
    /// 2-input NAND.
    Nand(NetId, NetId),
    /// 2-input NOR.
    Nor(NetId, NetId),
    /// 2-input XNOR.
    Xnor(NetId, NetId),
    /// 2:1 multiplexer: `sel ? b : a`.
    Mux {
        /// Select input.
        sel: NetId,
        /// Output when `sel` is 0.
        a: NetId,
        /// Output when `sel` is 1.
        b: NetId,
    },
    /// D flip-flop; `d` is patched by [`Builder::connect_dff`] and read only
    /// at the clock edge.
    Dff {
        /// Data input (may be `NetId::MAX` until connected).
        d: NetId,
        /// Reset value.
        init: bool,
    },
}

impl Gate {
    /// The combinational fan-in nets of this gate (DFF `d` is *not*
    /// combinational fan-in).
    pub fn fanin(&self) -> impl Iterator<Item = NetId> {
        let (a, b, c) = match *self {
            Gate::Const(_) | Gate::Input(_) | Gate::Dff { .. } => (None, None, None),
            Gate::Not(x) => (Some(x), None, None),
            Gate::And(x, y)
            | Gate::Or(x, y)
            | Gate::Xor(x, y)
            | Gate::Nand(x, y)
            | Gate::Nor(x, y)
            | Gate::Xnor(x, y) => (Some(x), Some(y), None),
            Gate::Mux { sel, a, b } => (Some(sel), Some(a), Some(b)),
        };
        [a, b, c].into_iter().flatten()
    }

    /// True for sequential elements.
    pub fn is_dff(&self) -> bool {
        matches!(self, Gate::Dff { .. })
    }

    /// Evaluates this gate on 64 lanes at once, reading each fan-in net
    /// `n`'s lanes from `values[n]` (one bit per lane).
    ///
    /// # Panics
    ///
    /// Panics on an `Input` or a `Dff`: a source has no combinational
    /// function, so its caller drives its word.
    #[inline]
    pub fn eval_word(&self, values: &[u64]) -> u64 {
        let v = |n: NetId| values[n as usize];
        match *self {
            Gate::Const(c) => 0u64.wrapping_sub(u64::from(c)),
            Gate::Not(x) => !v(x),
            Gate::And(x, y) => v(x) & v(y),
            Gate::Or(x, y) => v(x) | v(y),
            Gate::Xor(x, y) => v(x) ^ v(y),
            Gate::Nand(x, y) => !(v(x) & v(y)),
            Gate::Nor(x, y) => !(v(x) | v(y)),
            Gate::Xnor(x, y) => !(v(x) ^ v(y)),
            Gate::Mux { sel, a, b } => {
                let s = v(sel);
                (v(a) & !s) | (v(b) & s)
            }
            Gate::Input(_) | Gate::Dff { .. } => panic!("eval_word: {self:?} is a source"),
        }
    }
}

/// A named multi-bit port (LSB first).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Port {
    /// Port name, unique within its direction.
    pub name: String,
    /// The nets making up the port, LSB first.
    pub nets: Vec<NetId>,
}

/// A complete netlist: gate arena plus named ports.
///
/// Gates are stored in construction order, which is a valid topological
/// order for combinational evaluation (a gate's fan-in always has smaller
/// ids; DFF outputs act as sources).
///
/// `Hash` covers the full structure (gates and both port tables) and is
/// what the [`cache::ProgramCache`] content hash is built on: equal
/// netlists hash equal, and any structural difference — a replaced gate,
/// a renamed port — changes the hash.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
}

impl Netlist {
    /// The gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including constants, inputs and DFFs).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the netlist contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Named input ports.
    pub fn inputs(&self) -> &[Port] {
        &self.inputs
    }

    /// Named output ports.
    pub fn outputs(&self) -> &[Port] {
        &self.outputs
    }

    /// Looks up an input port by name.
    pub fn input(&self, name: &str) -> Option<&Port> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output port by name.
    pub fn output(&self, name: &str) -> Option<&Port> {
        self.outputs.iter().find(|p| p.name == name)
    }

    /// Returns a copy of this netlist with the gate at `id` replaced.
    ///
    /// This deliberately bypasses hash-consing — it exists for *mutation
    /// testing* (the MCY step of the paper's verification flow), where we
    /// want to inject single-gate faults and check that testbenches catch
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if the replacement gate's fan-in would break topological order
    /// (a fan-in net id must be smaller than `id`).
    pub fn with_gate_replaced(&self, id: NetId, gate: Gate) -> Netlist {
        for f in gate.fanin() {
            assert!(
                f < id,
                "replacement fan-in {f} breaks topological order at {id}"
            );
        }
        let mut clone = self.clone();
        clone.gates[id as usize] = gate;
        clone
    }

    /// Iterates over the ids of all DFFs.
    pub fn dffs(&self) -> impl Iterator<Item = NetId> + '_ {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_dff())
            .map(|(i, _)| i as NetId)
    }
}

/// Incremental netlist constructor with hash-consing and constant folding.
///
/// Identical gates are shared automatically; constant operands are folded at
/// construction, so the blocks emitted by `hwlib` are already locally
/// minimal; [`Builder::import`] does the cross-block sharing the paper
/// leaves to synthesis, so [`opt::sweep`] has only dead logic left.
#[derive(Debug, Default)]
pub struct Builder {
    netlist: Netlist,
    cache: HashMap<Gate, NetId>,
}

/// The placeholder `d` input of a not-yet-connected DFF.
const UNCONNECTED: NetId = NetId::MAX;

impl Builder {
    /// Creates an empty builder.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Creates an empty builder with room for `gates` gates in the netlist
    /// and in the hash-consing map. The capacity only saves regrowth: the
    /// netlists built are `==` to [`Builder::new`]'s, and a low estimate
    /// just lets the map grow.
    pub fn with_capacity(gates: usize) -> Builder {
        Builder {
            netlist: Netlist {
                gates: Vec::with_capacity(gates),
                ..Netlist::default()
            },
            cache: HashMap::with_capacity(gates),
        }
    }

    fn push(&mut self, gate: Gate) -> NetId {
        if let Some(&id) = self.cache.get(&gate) {
            return id;
        }
        let id = self.netlist.gates.len() as NetId;
        self.netlist.gates.push(gate);
        self.cache.insert(gate, id);
        id
    }

    /// The constant-zero net.
    pub fn zero(&mut self) -> NetId {
        self.push(Gate::Const(false))
    }

    /// The constant-one net.
    pub fn one(&mut self) -> NetId {
        self.push(Gate::Const(true))
    }

    /// A constant bit.
    pub fn constant(&mut self, value: bool) -> NetId {
        self.push(Gate::Const(value))
    }

    fn const_of(&self, id: NetId) -> Option<bool> {
        match self.netlist.gates[id as usize] {
            Gate::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Declares a single-bit input port.
    pub fn input(&mut self, name: &str) -> NetId {
        let bus = self.input_bus(name, 1);
        bus[0]
    }

    /// Declares an `width`-bit input port, returning its nets LSB first.
    ///
    /// # Panics
    ///
    /// Panics if an input port with the same name already exists.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        assert!(
            self.netlist.input(name).is_none(),
            "duplicate input port `{name}`"
        );
        let base = self
            .netlist
            .inputs
            .iter()
            .map(|p| p.nets.len() as u32)
            .sum::<u32>();
        let nets: Vec<NetId> = (0..width as u32)
            .map(|i| self.push(Gate::Input(base + i)))
            .collect();
        self.netlist.inputs.push(Port {
            name: name.to_string(),
            nets: nets.clone(),
        });
        nets
    }

    /// Declares a single-bit output port.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.output_bus(name, &[net]);
    }

    /// Declares a multi-bit output port.
    ///
    /// # Panics
    ///
    /// Panics if an output port with the same name already exists.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        assert!(
            self.netlist.output(name).is_none(),
            "duplicate output port `{name}`"
        );
        self.netlist.outputs.push(Port {
            name: name.to_string(),
            nets: nets.to_vec(),
        });
    }

    /// Inverter with folding (`!!x = x`, `!const`).
    pub fn not(&mut self, x: NetId) -> NetId {
        if let Some(v) = self.const_of(x) {
            return self.constant(!v);
        }
        if let Gate::Not(inner) = self.netlist.gates[x as usize] {
            return inner;
        }
        self.push(Gate::Not(x))
    }

    /// 2-input AND with folding.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => return self.zero(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.push(Gate::And(a, b))
    }

    /// 2-input OR with folding.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => return self.one(),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        self.push(Gate::Or(a, b))
    }

    /// 2-input XOR with folding.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.zero();
        }
        let (a, b) = (a.min(b), a.max(b));
        self.push(Gate::Xor(a, b))
    }

    /// 2-input NAND with folding.
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.and(a, b);
        self.not(x)
    }

    /// 2-input NOR with folding.
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.or(a, b);
        self.not(x)
    }

    /// 2-input XNOR with folding.
    pub fn xnor(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// 2:1 mux (`sel ? b : a`) with folding.
    pub fn mux(&mut self, sel: NetId, a: NetId, b: NetId) -> NetId {
        match self.const_of(sel) {
            Some(false) => return a,
            Some(true) => return b,
            None => {}
        }
        if a == b {
            return a;
        }
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), Some(true)) => return sel,
            (Some(true), Some(false)) => return self.not(sel),
            (Some(false), None) => return self.and(sel, b),
            (None, Some(true)) => return self.or(sel, a),
            (Some(true), None) => {
                let ns = self.not(sel);
                return self.or(ns, b);
            }
            (None, Some(false)) => {
                let ns = self.not(sel);
                return self.and(ns, a);
            }
            _ => {}
        }
        self.push(Gate::Mux { sel, a, b })
    }

    /// Allocates a DFF whose `d` input is connected later.
    pub fn dff(&mut self, init: bool) -> NetId {
        // DFFs are never hash-consed: each is distinct state.
        let id = self.netlist.gates.len() as NetId;
        self.netlist.gates.push(Gate::Dff {
            d: UNCONNECTED,
            init,
        });
        id
    }

    /// Connects the data input of a DFF created by [`Builder::dff`].
    ///
    /// # Panics
    ///
    /// Panics if `ff` is not a DFF or was already connected.
    pub fn connect_dff(&mut self, ff: NetId, d: NetId) {
        match &mut self.netlist.gates[ff as usize] {
            Gate::Dff { d: slot, .. } => {
                assert_eq!(*slot, UNCONNECTED, "DFF {ff} already connected");
                *slot = d;
            }
            g => panic!("net {ff} is not a DFF: {g:?}"),
        }
    }

    /// Imports all logic from `other`, mapping its input ports to the given
    /// nets, and returns the resolved nets of each of `other`'s outputs in
    /// declaration order.
    ///
    /// Hash-consing applies across the import, so structure shared between
    /// blocks is merged exactly once — this is how ModularEX recovers the
    /// paper's synthesis-time resource sharing.
    ///
    /// # Panics
    ///
    /// Panics if `bindings` is missing one of `other`'s input ports or a
    /// width mismatches.
    pub fn import(
        &mut self,
        other: &Netlist,
        bindings: &HashMap<&str, Vec<NetId>>,
    ) -> Vec<(String, Vec<NetId>)> {
        // Flatten the other netlist's input bits in port order.
        let mut input_bits: Vec<NetId> = Vec::new();
        for port in &other.inputs {
            let bound = bindings
                .get(port.name.as_str())
                .unwrap_or_else(|| panic!("missing binding for input `{}`", port.name));
            assert_eq!(
                bound.len(),
                port.nets.len(),
                "width mismatch binding `{}`",
                port.name
            );
            input_bits.extend_from_slice(bound);
        }
        let mut map: Vec<NetId> = vec![UNCONNECTED; other.gates.len()];
        let mut dff_fixups: Vec<(NetId, NetId)> = Vec::new(); // (new ff, old d)
        for (old_id, gate) in other.gates.iter().enumerate() {
            let new_id = match *gate {
                Gate::Const(v) => self.constant(v),
                Gate::Input(i) => input_bits[i as usize],
                Gate::Not(x) => {
                    let x = map[x as usize];
                    self.not(x)
                }
                Gate::And(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.and(x, y)
                }
                Gate::Or(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.or(x, y)
                }
                Gate::Xor(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.xor(x, y)
                }
                Gate::Nand(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.nand(x, y)
                }
                Gate::Nor(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.nor(x, y)
                }
                Gate::Xnor(x, y) => {
                    let (x, y) = (map[x as usize], map[y as usize]);
                    self.xnor(x, y)
                }
                Gate::Mux { sel, a, b } => {
                    let (sel, a, b) = (map[sel as usize], map[a as usize], map[b as usize]);
                    self.mux(sel, a, b)
                }
                Gate::Dff { d, init } => {
                    let ff = self.dff(init);
                    dff_fixups.push((ff, d));
                    ff
                }
            };
            map[old_id] = new_id;
        }
        for (ff, old_d) in dff_fixups {
            let d = map[old_d as usize];
            self.connect_dff(ff, d);
        }
        other
            .outputs
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.nets.iter().map(|&n| map[n as usize]).collect(),
                )
            })
            .collect()
    }

    /// Finalises the netlist.
    ///
    /// # Panics
    ///
    /// Panics if any DFF is still unconnected.
    pub fn finish(self) -> Netlist {
        for (i, g) in self.netlist.gates.iter().enumerate() {
            if let Gate::Dff { d, .. } = g {
                assert_ne!(*d, UNCONNECTED, "DFF {i} left unconnected");
            }
        }
        self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_structure() {
        let mut b = Builder::new();
        let x = b.input("x");
        let y = b.input("y");
        let a1 = b.and(x, y);
        let a2 = b.and(y, x); // commutative normalisation
        assert_eq!(a1, a2);
    }

    #[test]
    fn constant_folding_rules() {
        let mut b = Builder::new();
        let x = b.input("x");
        let zero = b.zero();
        let one = b.one();
        assert_eq!(b.and(x, zero), zero);
        assert_eq!(b.and(x, one), x);
        assert_eq!(b.or(x, one), one);
        assert_eq!(b.xor(x, zero), x);
        let nx = b.not(x);
        assert_eq!(b.xor(x, one), nx);
        assert_eq!(b.not(nx), x);
        assert_eq!(b.xor(x, x), zero);
        assert_eq!(b.mux(zero, x, nx), x);
        assert_eq!(b.mux(one, x, nx), nx);
        assert_eq!(b.mux(x, zero, one), x);
    }

    #[test]
    fn dff_connection_lifecycle() {
        let mut b = Builder::new();
        let x = b.input("x");
        let ff = b.dff(false);
        let next = b.xor(ff, x);
        b.connect_dff(ff, next);
        let nl = b.finish();
        assert_eq!(nl.dffs().count(), 1);
    }

    #[test]
    #[should_panic(expected = "left unconnected")]
    fn unconnected_dff_panics_at_finish() {
        let mut b = Builder::new();
        b.dff(false);
        b.finish();
    }

    #[test]
    fn import_merges_shared_logic() {
        // Two identical sub-blocks importing into one builder share gates.
        let block = {
            let mut b = Builder::new();
            let a = b.input_bus("a", 4);
            let c = b.input_bus("b", 4);
            let (sum, _) = crate::bus::add(&mut b, &a, &c);
            b.output_bus("sum", &sum);
            b.finish()
        };
        let mut top = Builder::new();
        let a = top.input_bus("a", 4);
        let c = top.input_bus("b", 4);
        let mut bind = HashMap::new();
        bind.insert("a", a.clone());
        bind.insert("b", c.clone());
        let before = top.netlist.len();
        let out1 = top.import(&block, &bind);
        let after1 = top.netlist.len();
        let out2 = top.import(&block, &bind);
        let after2 = top.netlist.len();
        assert_eq!(out1, out2, "identical imports resolve identically");
        assert!(after1 > before);
        assert_eq!(after2, after1, "second import adds no gates");
    }

    #[test]
    fn duplicate_port_names_panic() {
        let mut b = Builder::new();
        b.input_bus("a", 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.input_bus("a", 2);
        }));
        assert!(result.is_err());
    }
}
