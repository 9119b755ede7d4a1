//! Two-phase gate-level simulation: the [`SimBackend`] abstraction and the
//! interpreted reference backend [`Sim`].
//!
//! Evaluation exploits the arena's topological order: one linear pass
//! settles all combinational logic, then [`SimBackend::step`] latches every
//! DFF. Toggle counts accumulate per net and feed the dynamic-power model
//! in the `flexic` crate (the paper's power numbers are activity-based).
//!
//! Two backends implement the trait:
//! * [`Sim`] — the one-gate-at-a-time interpreter below, single-lane;
//! * [`crate::compiled::CompiledSim`] — a compiled op-stream backend that
//!   evaluates up to 64 stimulus lanes per pass (`u64` bit-vector per net).

use crate::{Gate, NetId, Netlist};

/// Bit `i` of `value` as a 0/1 word, where bits at and beyond 64 read as 0:
/// ports wider than 64 bits have their high bits driven to 0 through the
/// `u64` bus API instead of overflowing the shift (`docs/simulation.md`
/// § "Lane packing"). Shared by every backend so the rule cannot diverge.
pub(crate) fn port_bit(value: u64, i: usize) -> u64 {
    if i < 64 {
        (value >> i) & 1
    } else {
        0
    }
}

/// Work counters for a backend's settles.
///
/// Purely diagnostic: the counters never influence simulation results —
/// they let benches and tests see how many ops a stimulus schedule really
/// executed, tell a full settle from a cone settle
/// ([`crate::CompiledSim::settle_cone`] counts no full sweep), and see
/// which engine ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Total settles: `eval()` calls, plus cone settles
    /// ([`crate::CompiledSim::settle_cone`]).
    pub settles: u64,
    /// Settles evaluated by an unconditional sweep of every op/gate.
    pub full_sweeps: u64,
    /// Ops (gates) actually executed, summed over all settles.
    pub ops_executed: u64,
    /// Full sweeps run by natively emitted code ([`crate::jit`]) rather
    /// than the interpreter. The one engine-dependent counter: the other
    /// three count the work whichever engine did it, this one says
    /// which engine ran it (an [`crate::EvalMode::Auto`] simulator
    /// past its promotion point with `native_sweeps == 0` was refused
    /// codegen).
    pub native_sweeps: u64,
}

impl EvalStats {
    /// Elementwise sum (merging counters across shards/backends).
    pub fn merge(self, other: EvalStats) -> EvalStats {
        EvalStats {
            settles: self.settles + other.settles,
            full_sweeps: self.full_sweeps + other.full_sweeps,
            ops_executed: self.ops_executed + other.ops_executed,
            native_sweeps: self.native_sweeps + other.native_sweeps,
        }
    }

    /// The counters with the engine one ([`EvalStats::native_sweeps`])
    /// cleared: what a native and an interpreted run of the same
    /// schedule must agree on.
    pub fn work(self) -> EvalStats {
        EvalStats {
            native_sweeps: 0,
            ..self
        }
    }
}

/// A gate-level simulation engine over one [`Netlist`].
///
/// A backend owns per-net values, DFF state, and switching-activity
/// counters. Backends may evaluate several independent stimulus *lanes* per
/// pass; lane 0 is the scalar view, and the single-lane entry points
/// ([`SimBackend::set_bus_u64`], [`SimBackend::get_bus_u64`], …) drive and
/// read lane 0 while broadcasting writes to every lane, so scalar callers
/// behave identically on every backend.
pub trait SimBackend {
    /// The simulated netlist.
    fn netlist(&self) -> &Netlist;

    /// Number of independent stimulus lanes evaluated per pass.
    fn lanes(&self) -> usize {
        1
    }

    /// Drives the named input port with the low bits of `value` on every
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    fn set_bus_u64(&mut self, port: &str, value: u64);

    /// Drives one lane of the named input port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `lane >= lanes()`.
    fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64);

    /// Drives the named input port with the low bits of `value` (all lanes).
    fn set_bus(&mut self, port: &str, value: u32) {
        self.set_bus_u64(port, value as u64);
    }

    /// Settles all combinational logic for the current inputs and FF state.
    fn eval(&mut self);

    /// Clock edge: latches every DFF's `d` into its state. Call after
    /// [`SimBackend::eval`] has settled the cycle's logic.
    fn step(&mut self);

    /// Reads a single net's settled value on one lane.
    fn get_lane(&self, net: NetId, lane: usize) -> bool;

    /// Reads a single net's settled value (lane 0).
    fn get(&self, net: NetId) -> bool {
        self.get_lane(net, 0)
    }

    /// Reads up to 64 bits of the named output port on one lane.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    fn get_bus_lane(&self, port: &str, lane: usize) -> u64;

    /// Reads up to 64 bits of the named output port (lane 0).
    fn get_bus_u64(&self, port: &str) -> u64 {
        self.get_bus_lane(port, 0)
    }

    /// Reads up to 32 bits of the named output port (lane 0).
    fn get_bus(&self, port: &str) -> u32 {
        self.get_bus_u64(port) as u32
    }

    /// Forces the stored state of a DFF on every lane (e.g. a reset PC).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF.
    fn set_ff(&mut self, net: NetId, value: bool);

    /// Total toggles per net since construction, summed over active lanes.
    fn toggles(&self) -> &[u64];

    /// Clock cycles stepped so far.
    fn cycles(&self) -> u64;

    /// Average switching activity (toggles per gate per cycle per lane) —
    /// the α factor of the dynamic power model.
    fn average_activity(&self) -> f64 {
        let (cycles, toggles) = (self.cycles(), self.toggles());
        if cycles == 0 || toggles.is_empty() {
            return 0.0;
        }
        let total: u64 = toggles.iter().sum();
        total as f64 / (toggles.len() as f64 * cycles as f64 * self.lanes() as f64)
    }

    /// Work counters for this backend's settles ([`EvalStats`]). Purely
    /// diagnostic — results never depend on how much work a settle
    /// skipped. Backends that do not track work report all-zero counters.
    fn eval_stats(&self) -> EvalStats {
        EvalStats::default()
    }
}

/// Interpreted simulator for one netlist (owns a copy of the structure).
#[derive(Debug, Clone)]
pub struct Sim {
    netlist: Netlist,
    values: Vec<bool>,
    ff_state: Vec<bool>,
    input_values: Vec<bool>,
    toggles: Vec<u64>,
    cycles: u64,
    primed: bool,
    stats: EvalStats,
}

impl Sim {
    /// Creates a simulator with DFFs at their reset values and inputs at 0.
    pub fn new(netlist: &Netlist) -> Sim {
        let ff_state = netlist
            .gates()
            .iter()
            .map(|g| match g {
                Gate::Dff { init, .. } => *init,
                _ => false,
            })
            .collect();
        let input_count = netlist.inputs().iter().map(|p| p.nets.len()).sum();
        Sim {
            values: vec![false; netlist.len()],
            ff_state,
            input_values: vec![false; input_count],
            toggles: vec![0; netlist.len()],
            cycles: 0,
            primed: false,
            stats: EvalStats::default(),
            netlist: netlist.clone(),
        }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Drives the named input port with the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_bus(&mut self, port: &str, value: u32) {
        self.set_bus_u64(port, value as u64);
    }

    /// Drives the named input port with the low bits of a 64-bit value.
    /// Port bits at and beyond 64 are driven to 0 (same rule as the
    /// compiled backend's bus helpers).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn set_bus_u64(&mut self, port: &str, value: u64) {
        let port = self
            .netlist
            .input(port)
            .unwrap_or_else(|| panic!("no input port `{port}`"));
        for (i, &net) in port.nets.iter().enumerate() {
            match self.netlist.gates()[net as usize] {
                Gate::Input(idx) => self.input_values[idx as usize] = port_bit(value, i) == 1,
                ref g => panic!("net {net} is not an input: {g:?}"),
            }
        }
    }

    /// Settles all combinational logic for the current inputs and FF state.
    pub fn eval(&mut self) {
        for (id, gate) in self.netlist.gates().iter().enumerate() {
            let v = match *gate {
                Gate::Const(v) => v,
                Gate::Input(idx) => self.input_values[idx as usize],
                Gate::Not(x) => !self.values[x as usize],
                Gate::And(x, y) => self.values[x as usize] && self.values[y as usize],
                Gate::Or(x, y) => self.values[x as usize] || self.values[y as usize],
                Gate::Xor(x, y) => self.values[x as usize] ^ self.values[y as usize],
                Gate::Nand(x, y) => !(self.values[x as usize] && self.values[y as usize]),
                Gate::Nor(x, y) => !(self.values[x as usize] || self.values[y as usize]),
                Gate::Xnor(x, y) => !(self.values[x as usize] ^ self.values[y as usize]),
                Gate::Mux { sel, a, b } => {
                    if self.values[sel as usize] {
                        self.values[b as usize]
                    } else {
                        self.values[a as usize]
                    }
                }
                Gate::Dff { .. } => self.ff_state[id],
            };
            if self.values[id] != v {
                self.toggles[id] += 1;
                self.values[id] = v;
            }
        }
        self.stats.settles += 1;
        self.stats.full_sweeps += 1;
        self.stats.ops_executed += self.netlist.len() as u64;
        if !self.primed {
            // The all-false reset state is arbitrary, so the transitions of
            // the very first settle are initialization, not switching —
            // counting them would skew `average_activity` and every power
            // number derived from it.
            self.toggles.iter_mut().for_each(|t| *t = 0);
            self.primed = true;
        }
    }

    /// Clock edge: latches every DFF's `d` into its state.
    ///
    /// Call after [`Sim::eval`] has settled the cycle's logic.
    pub fn step(&mut self) {
        for id in 0..self.netlist.len() {
            if let Gate::Dff { d, .. } = self.netlist.gates()[id] {
                self.ff_state[id] = self.values[d as usize];
            }
        }
        self.cycles += 1;
    }

    /// Reads a single net's settled value.
    pub fn get(&self, net: NetId) -> bool {
        self.values[net as usize]
    }

    /// Forces the stored state of a DFF (e.g. to set a reset PC).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a DFF.
    pub fn set_ff(&mut self, net: NetId, value: bool) {
        assert!(
            self.netlist.gates()[net as usize].is_dff(),
            "net {net} is not a DFF"
        );
        self.ff_state[net as usize] = value;
    }

    /// Reads up to 32 bits of the named output port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn get_bus(&self, port: &str) -> u32 {
        self.get_bus_u64(port) as u32
    }

    /// Reads up to 64 bits of the named output port. Port bits at and
    /// beyond 64 do not fit in the result and read as 0.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn get_bus_u64(&self, port: &str) -> u64 {
        let port = self
            .netlist
            .output(port)
            .unwrap_or_else(|| panic!("no output port `{port}`"));
        port.nets
            .iter()
            .take(64)
            .enumerate()
            .fold(0u64, |acc, (i, &n)| acc | ((self.get(n) as u64) << i))
    }

    /// Work counters for this simulator's settles (the interpreted
    /// backend always sweeps every gate).
    pub fn eval_stats(&self) -> EvalStats {
        self.stats
    }

    /// Total toggles per net since construction.
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Clock cycles stepped so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average switching activity (toggles per gate per cycle) — the α
    /// factor of the dynamic power model.
    pub fn average_activity(&self) -> f64 {
        if self.cycles == 0 || self.toggles.is_empty() {
            return 0.0;
        }
        let total: u64 = self.toggles.iter().sum();
        total as f64 / (self.toggles.len() as f64 * self.cycles as f64)
    }

    /// Convenience: construct, drive inputs, settle, and read one output.
    ///
    /// # Panics
    ///
    /// Panics if a named port is missing.
    pub fn evaluate_once(netlist: &Netlist, inputs: &[(&str, u64)], output: &str) -> u64 {
        let mut sim = Sim::new(netlist);
        for (name, value) in inputs {
            sim.set_bus_u64(name, *value);
        }
        sim.eval();
        sim.get_bus_u64(output)
    }
}

impl SimBackend for Sim {
    fn netlist(&self) -> &Netlist {
        Sim::netlist(self)
    }

    fn set_bus_u64(&mut self, port: &str, value: u64) {
        Sim::set_bus_u64(self, port, value);
    }

    fn set_bus_lane(&mut self, port: &str, lane: usize, value: u64) {
        assert_eq!(lane, 0, "interpreted backend has a single lane");
        Sim::set_bus_u64(self, port, value);
    }

    fn eval(&mut self) {
        Sim::eval(self);
    }

    fn step(&mut self) {
        Sim::step(self);
    }

    fn get_lane(&self, net: NetId, lane: usize) -> bool {
        assert_eq!(lane, 0, "interpreted backend has a single lane");
        Sim::get(self, net)
    }

    fn get_bus_lane(&self, port: &str, lane: usize) -> u64 {
        assert_eq!(lane, 0, "interpreted backend has a single lane");
        Sim::get_bus_u64(self, port)
    }

    fn set_ff(&mut self, net: NetId, value: bool) {
        Sim::set_ff(self, net, value);
    }

    fn toggles(&self) -> &[u64] {
        Sim::toggles(self)
    }

    fn cycles(&self) -> u64 {
        Sim::cycles(self)
    }

    fn average_activity(&self) -> f64 {
        Sim::average_activity(self)
    }

    fn eval_stats(&self) -> EvalStats {
        Sim::eval_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Builder;

    #[test]
    fn counter_counts() {
        // 4-bit counter: ff += 1 each cycle.
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..4).map(|_| b.dff(false)).collect();
        let one = crate::bus::constant(&mut b, 1, 4);
        let (next, _) = crate::bus::add(&mut b, &ffs, &one);
        for (ff, d) in ffs.iter().zip(&next) {
            b.connect_dff(*ff, *d);
        }
        b.output_bus("count", &ffs);
        let nl = b.finish();
        let mut sim = Sim::new(&nl);
        for expected in 0..20u32 {
            sim.eval();
            assert_eq!(sim.get_bus("count"), expected % 16);
            sim.step();
        }
        assert_eq!(sim.cycles(), 20);
    }

    #[test]
    fn toggles_accumulate() {
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.output("y", nx);
        let nl = b.finish();
        let mut sim = Sim::new(&nl);
        for i in 0..10 {
            sim.set_bus("x", i & 1);
            sim.eval();
            sim.step();
        }
        assert!(sim.average_activity() > 0.0);
        assert!(sim.toggles().iter().sum::<u64>() >= 9);
    }

    #[test]
    fn first_eval_does_not_count_reset_transients() {
        // Regression: `values` starts all-false, so the first settle used to
        // count initialization as switching and skew average_activity().
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x); // settles to 1 on the first eval
        let one = b.one(); // Const(true): 0 -> 1 on the first eval
        let y = b.and(nx, one);
        b.output("y", y);
        let nl = b.finish();
        let mut sim = Sim::new(&nl);
        for _ in 0..10 {
            sim.set_bus("x", 0);
            sim.eval();
            sim.step();
        }
        // Constant stimulus: zero genuine switching over 10 cycles.
        assert_eq!(sim.toggles().iter().sum::<u64>(), 0);
        assert_eq!(sim.average_activity(), 0.0);
    }

    #[test]
    fn wide_ports_drive_and_read_without_shift_overflow() {
        // Regression: same rule as the compiled backend — port bits at and
        // beyond 64 drive as 0 and are not included in u64 reads, instead
        // of overflowing `value >> i` / `<< i`.
        let mut b = Builder::new();
        let x = b.input_bus("x", 70);
        b.output_bus("y", &x);
        let nl = b.finish();
        let mut sim = Sim::new(&nl);
        sim.set_bus_u64("x", u64::MAX);
        sim.eval();
        assert_eq!(sim.get_bus_u64("y"), u64::MAX);
        for (i, &n) in x.iter().enumerate() {
            assert_eq!(sim.get(n), i < 64, "bit {i}");
        }
    }

    #[test]
    fn eval_stats_count_full_sweeps() {
        let mut b = Builder::new();
        let x = b.input("x");
        let nx = b.not(x);
        b.output("y", nx);
        let nl = b.finish();
        let mut sim = Sim::new(&nl);
        sim.eval();
        sim.eval();
        let stats = SimBackend::eval_stats(&sim);
        assert_eq!(stats.settles, 2);
        assert_eq!(stats.full_sweeps, 2);
        assert_eq!(stats.ops_executed, 2 * nl.len() as u64);
    }

    #[test]
    fn evaluate_once_helper() {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let z = crate::bus::xor(&mut b, &x, &y);
        b.output_bus("z", &z);
        let nl = b.finish();
        assert_eq!(
            Sim::evaluate_once(&nl, &[("x", 0xf0), ("y", 0x3c)], "z"),
            0xcc
        );
    }
}
