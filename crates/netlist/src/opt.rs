//! Netlist optimisation — the reproduction's "synthesis tool".
//!
//! The paper deliberately leaves all optimisation to synthesis: instruction
//! hardware blocks are stitched naively and "the synthesis tool will
//! optimize the gate netlists by maximizing the resource sharing" (§3.3).
//! [`synthesize`] plays that role here: it re-builds the netlist through
//! the hash-consing [`Builder`] (merging structurally identical logic and
//! re-applying constant folding) and then sweeps logic unreachable from any
//! output or DFF.  [`check_equivalence`] is the stand-in for the
//! equivalence checking synthesis tools run after optimisation.

use crate::sharded::{ShardPolicy, ShardedSim};
use crate::{Builder, Gate, NetId, Netlist};
use std::collections::HashMap;

/// Statistics from one [`synthesize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthReport {
    /// Gate count before optimisation.
    pub gates_before: usize,
    /// Gate count after sharing and sweeping.
    pub gates_after: usize,
}

impl SynthReport {
    /// Fraction of gates removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.gates_before == 0 {
            return 0.0;
        }
        1.0 - self.gates_after as f64 / self.gates_before as f64
    }
}

/// Rebuilds `netlist` with maximal structural sharing and dead-logic
/// removal, preserving port names and order.
pub fn synthesize(netlist: &Netlist) -> (Netlist, SynthReport) {
    // Pass 1: re-cons every gate through a fresh builder.
    let mut b = Builder::new();
    let mut map: Vec<NetId> = Vec::with_capacity(netlist.len());
    let mut dff_fixups: Vec<(NetId, NetId)> = Vec::new();
    let mut input_nets: HashMap<u32, NetId> = HashMap::new();
    for port in netlist.inputs() {
        let nets = b.input_bus(&port.name, port.nets.len());
        for (&old, new) in port.nets.iter().zip(nets) {
            if let Gate::Input(idx) = netlist.gates()[old as usize] {
                input_nets.insert(idx, new);
            }
        }
    }
    for gate in netlist.gates() {
        let new_id = match *gate {
            Gate::Const(v) => b.constant(v),
            Gate::Input(idx) => input_nets[&idx],
            Gate::Not(x) => {
                let x = map[x as usize];
                b.not(x)
            }
            Gate::And(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.and(x, y)
            }
            Gate::Or(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.or(x, y)
            }
            Gate::Xor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.xor(x, y)
            }
            Gate::Nand(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.nand(x, y)
            }
            Gate::Nor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.nor(x, y)
            }
            Gate::Xnor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.xnor(x, y)
            }
            Gate::Mux { sel, a, b: bb } => {
                let (sel, a, bb) = (map[sel as usize], map[a as usize], map[bb as usize]);
                b.mux(sel, a, bb)
            }
            Gate::Dff { d, init } => {
                let ff = b.dff(init);
                dff_fixups.push((ff, d));
                ff
            }
        };
        map.push(new_id);
    }
    for (ff, old_d) in dff_fixups {
        let d = map[old_d as usize];
        b.connect_dff(ff, d);
    }
    for port in netlist.outputs() {
        let nets: Vec<NetId> = port.nets.iter().map(|&n| map[n as usize]).collect();
        b.output_bus(&port.name, &nets);
    }
    let consed = b.finish();

    // Pass 2: sweep gates unreachable from outputs or DFF data inputs.
    let swept = sweep(&consed);
    let report = SynthReport {
        gates_before: netlist.len(),
        gates_after: swept.len(),
    };
    (swept, report)
}

/// Removes logic not reachable from any output port or DFF `d` input.
pub fn sweep(netlist: &Netlist) -> Netlist {
    let n = netlist.len();
    let mut live = vec![false; n];
    let mut stack: Vec<NetId> = Vec::new();
    for port in netlist.outputs() {
        stack.extend(&port.nets);
    }
    for (id, gate) in netlist.gates().iter().enumerate() {
        if let Gate::Dff { d, .. } = gate {
            // A DFF is a root only if its output is reachable; handled below
            // by treating reachable DFFs' `d` as live.  Seed nothing here.
            let _ = (id, d);
        }
    }
    while let Some(id) = stack.pop() {
        if live[id as usize] {
            continue;
        }
        live[id as usize] = true;
        let gate = netlist.gates()[id as usize];
        for f in gate.fanin() {
            stack.push(f);
        }
        if let Gate::Dff { d, .. } = gate {
            stack.push(d);
        }
    }
    // Inputs stay (they are the module's pins) even if unused.
    for port in netlist.inputs() {
        for &net in &port.nets {
            live[net as usize] = true;
        }
    }
    // Rebuild, keeping live gates in order.
    let mut b = Builder::new();
    let mut map: Vec<NetId> = vec![NetId::MAX; n];
    let mut input_nets: HashMap<u32, NetId> = HashMap::new();
    for port in netlist.inputs() {
        let nets = b.input_bus(&port.name, port.nets.len());
        for (&old, new) in port.nets.iter().zip(nets) {
            if let Gate::Input(idx) = netlist.gates()[old as usize] {
                input_nets.insert(idx, new);
            }
        }
    }
    let mut dff_fixups: Vec<(NetId, NetId)> = Vec::new();
    for (id, gate) in netlist.gates().iter().enumerate() {
        if !live[id] {
            continue;
        }
        let new_id = match *gate {
            Gate::Const(v) => b.constant(v),
            Gate::Input(idx) => input_nets[&idx],
            Gate::Not(x) => {
                let x = map[x as usize];
                b.not(x)
            }
            Gate::And(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.and(x, y)
            }
            Gate::Or(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.or(x, y)
            }
            Gate::Xor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.xor(x, y)
            }
            Gate::Nand(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.nand(x, y)
            }
            Gate::Nor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.nor(x, y)
            }
            Gate::Xnor(x, y) => {
                let (x, y) = (map[x as usize], map[y as usize]);
                b.xnor(x, y)
            }
            Gate::Mux { sel, a, b: bb } => {
                let (sel, a, bb) = (map[sel as usize], map[a as usize], map[bb as usize]);
                b.mux(sel, a, bb)
            }
            Gate::Dff { d, init } => {
                let ff = b.dff(init);
                dff_fixups.push((ff, d));
                ff
            }
        };
        map[id] = new_id;
    }
    for (ff, old_d) in dff_fixups {
        let d = map[old_d as usize];
        assert_ne!(d, NetId::MAX, "live DFF feeds from dead logic");
        b.connect_dff(ff, d);
    }
    for port in netlist.outputs() {
        let nets: Vec<NetId> = port.nets.iter().map(|&n| map[n as usize]).collect();
        b.output_bus(&port.name, &nets);
    }
    b.finish()
}

/// Randomised combinational equivalence check between two netlists with
/// identical port interfaces — the reproduction's analogue of the formal
/// equivalence checking synthesis tools perform after optimisation.
///
/// Both netlists are compiled once and the random vectors are packed 64 per
/// evaluation (one stimulus per compiled-backend lane), so the input sweep
/// costs `samples / 64` settles per netlist instead of `samples`.
/// Delegates to [`check_equivalence_with`] with a single-shard policy; pass
/// a wider [`ShardPolicy`] to drive `shards * 64` vectors per settle across
/// threads.
///
/// Returns `Ok(())` after `samples` agreeing random vectors, or the first
/// disagreeing `(port, input_assignment)` pair.
///
/// # Errors
///
/// Returns the name of the first output port that diverged plus the input
/// vector that exposed it.
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    samples: usize,
    seed: u64,
) -> Result<(), (String, Vec<(String, u64)>)> {
    check_equivalence_with(a, b, samples, seed, ShardPolicy::single())
}

/// [`check_equivalence`] with an explicit shard policy: each settle packs
/// `policy.total_lanes()` random vectors (up to `lane_words * 64` per
/// fused lane block) and the shards of
/// both netlists settle one after another on the calling thread.
///
/// The random vector sequence depends only on `seed` and
/// `policy.total_lanes()` — never on the thread count — so the verdict
/// is deterministic for a fixed policy shape.
///
/// # Errors
///
/// Returns the name of the first output port that diverged plus the input
/// vector that exposed it.
pub fn check_equivalence_with(
    a: &Netlist,
    b: &Netlist,
    samples: usize,
    seed: u64,
    policy: ShardPolicy,
) -> Result<(), (String, Vec<(String, u64)>)> {
    assert_eq!(
        a.inputs()
            .iter()
            .map(|p| (&p.name, p.nets.len()))
            .collect::<Vec<_>>(),
        b.inputs()
            .iter()
            .map(|p| (&p.name, p.nets.len()))
            .collect::<Vec<_>>(),
        "input interfaces differ"
    );
    // xorshift64* PRNG: deterministic, dependency-free.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut sa = ShardedSim::with_policy(a, policy);
    let mut sb = ShardedSim::with_policy(b, policy);
    let width = policy.total_lanes();
    // Physical lanes per shard after lane-block fusion (both sims share
    // the policy, so their physical shapes agree).
    let lanes_per_shard = sa.lanes_per_shard();
    let mut remaining = samples;
    // values[port index][lane], allocated once — port names are recovered
    // from `a.inputs()` order only on the rare mismatch.
    let mut values: Vec<Vec<u64>> = vec![vec![0; width]; a.inputs().len()];
    while remaining > 0 {
        let lanes = remaining.min(width);
        for (port, port_values) in a.inputs().iter().zip(values.iter_mut()) {
            let mask = if port.nets.len() >= 64 {
                u64::MAX
            } else {
                (1u64 << port.nets.len()) - 1
            };
            for slot in port_values.iter_mut().take(lanes) {
                *slot = next() & mask;
            }
            sa.set_bus_lanes(&port.name, &port_values[..lanes]);
            sb.set_bus_lanes(&port.name, &port_values[..lanes]);
        }
        sa.eval();
        sb.eval();
        for port in a.outputs() {
            let Some(port_b) = b.output(&port.name) else {
                continue;
            };
            // Word-compare shard by shard, one `u64` of the lane block at
            // a time, across all active lanes at once (numeric equality:
            // the common bits must match and the wider port's extra bits
            // must be zero); only on a mismatch do we pay for per-lane
            // reconstruction of the failing assignment.
            let common = port.nets.len().min(port_b.nets.len());
            let diverged = sa.shards().iter().zip(sb.shards()).enumerate().any(
                |(shard, (shard_a, shard_b))| {
                    let active = lanes
                        .saturating_sub(shard * lanes_per_shard)
                        .min(lanes_per_shard);
                    if active == 0 {
                        return false;
                    }
                    (0..shard_a.lane_words()).any(|w| {
                        let in_word = active
                            .saturating_sub(w * crate::compiled::LANES_PER_WORD)
                            .min(crate::compiled::LANES_PER_WORD);
                        if in_word == 0 {
                            return false;
                        }
                        let lane_mask = crate::compiled::word_lane_mask(in_word);
                        port.nets[..common].iter().zip(&port_b.nets[..common]).any(
                            |(&net_a, &net_b)| {
                                (shard_a.lane_word_at(net_a, w) ^ shard_b.lane_word_at(net_b, w))
                                    & lane_mask
                                    != 0
                            },
                        ) || port.nets[common..]
                            .iter()
                            .any(|&n| shard_a.lane_word_at(n, w) & lane_mask != 0)
                            || port_b.nets[common..]
                                .iter()
                                .any(|&n| shard_b.lane_word_at(n, w) & lane_mask != 0)
                    })
                },
            );
            if diverged {
                for lane in 0..lanes {
                    if sa.get_bus_lane(&port.name, lane) != sb.get_bus_lane(&port.name, lane) {
                        let assignment = a
                            .inputs()
                            .iter()
                            .zip(&values)
                            .map(|(p, v)| (p.name.clone(), v[lane]))
                            .collect();
                        return Err((port.name.clone(), assignment));
                    }
                }
            }
        }
        remaining -= lanes;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus;
    use crate::sim::Sim;

    fn adder_with_waste() -> Netlist {
        let mut b = Builder::new();
        let x = b.input_bus("x", 8);
        let y = b.input_bus("y", 8);
        let (sum, _) = bus::add(&mut b, &x, &y);
        // Dead logic: a second adder nobody reads.
        let (_dead, _) = bus::sub(&mut b, &x, &y);
        b.output_bus("sum", &sum);
        b.finish()
    }

    #[test]
    fn synthesize_removes_dead_logic() {
        let nl = adder_with_waste();
        let (opt, report) = synthesize(&nl);
        assert!(report.gates_after < report.gates_before);
        assert!(report.reduction() > 0.1);
        check_equivalence(&nl, &opt, 200, 42).unwrap();
    }

    #[test]
    fn synthesize_preserves_sequential_behaviour() {
        // LFSR: x' = x>>1 with feedback taps.
        let mut b = Builder::new();
        let ffs: Vec<NetId> = (0..8).map(|i| b.dff(i == 0)).collect();
        let fb1 = b.xor(ffs[0], ffs[2]);
        let fb = b.xor(fb1, ffs[3]);
        for i in 0..7 {
            b.connect_dff(ffs[i], ffs[i + 1]);
        }
        b.connect_dff(ffs[7], fb);
        b.output_bus("state", &ffs);
        let nl = b.finish();
        let (opt, _) = synthesize(&nl);
        let mut s1 = Sim::new(&nl);
        let mut s2 = Sim::new(&opt);
        for _ in 0..100 {
            s1.eval();
            s2.eval();
            assert_eq!(s1.get_bus("state"), s2.get_bus("state"));
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn equivalence_check_catches_differences() {
        let good = adder_with_waste();
        let bad = {
            let mut b = Builder::new();
            let x = b.input_bus("x", 8);
            let y = b.input_bus("y", 8);
            let (diff, _) = bus::sub(&mut b, &x, &y);
            b.output_bus("sum", &diff);
            b.finish()
        };
        assert!(check_equivalence(&good, &bad, 100, 7).is_err());
    }

    #[test]
    fn sharded_equivalence_check_matches_single_shard_verdicts() {
        let good = adder_with_waste();
        let (opt, _) = synthesize(&good);
        let bad = {
            let mut b = Builder::new();
            let x = b.input_bus("x", 8);
            let y = b.input_bus("y", 8);
            let (diff, _) = bus::sub(&mut b, &x, &y);
            b.output_bus("sum", &diff);
            b.finish()
        };
        for threads in [1, 2, 4] {
            let policy = ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads,
                ..ShardPolicy::single()
            };
            // 4x64 = 256 vectors per settle; the verdicts must not depend
            // on the thread count.
            check_equivalence_with(&good, &opt, 500, 42, policy).unwrap();
            assert!(check_equivalence_with(&good, &bad, 100, 7, policy).is_err());
        }
        // A sample count that does not divide the lane width exercises the
        // partial final round (per-shard lane masks).
        let policy = ShardPolicy {
            shards: 3,
            lanes_per_shard: 64,
            threads: 2,
            ..ShardPolicy::single()
        };
        check_equivalence_with(&good, &opt, 130, 9, policy).unwrap();
    }

    #[test]
    fn sweep_keeps_input_pins() {
        let mut b = Builder::new();
        let _unused = b.input_bus("unused", 4);
        let x = b.input("x");
        b.output("y", x);
        let nl = b.finish();
        let swept = sweep(&nl);
        assert!(swept.input("unused").is_some());
        assert_eq!(swept.input("unused").unwrap().nets.len(), 4);
    }
}
