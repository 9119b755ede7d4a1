//! `CompiledSim::settle_cone` against a full `eval`: settling only the
//! static fan-out cone of the sources a write changed must leave a
//! simulator exactly where a full sweep does — the same values on every
//! active lane of every net and the same per-net toggles after every
//! settle, and the same flip-flop state, which the next clock edge
//! latches from those values — on the interpreter and in native code, at
//! one and two lane words. A cone never runs on a simulator it was not
//! cut for, nor on one with an unsettled write outside it.

use netlist::compiled::{Cone, PortId};
use netlist::{Builder, CompiledSim, EvalMode, JitOptions, NetId, Netlist};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Input ports of [`circuit`], with their widths.
const PORTS: [(&str, usize); 3] = [("a", 5), ("b", 1), ("c", 9)];

/// A random sequential circuit over the [`PORTS`]: a few DFFs join the net
/// pool up front and are fed back from recipe-chosen nets at the end.
fn circuit(recipe: &[u8]) -> Netlist {
    let mut b = Builder::new();
    let mut nets = Vec::new();
    for (name, width) in PORTS {
        nets.extend(b.input_bus(name, width));
    }
    let ffs: Vec<_> = (0..3).map(|i| b.dff(i == 1)).collect();
    nets.extend(&ffs);
    let zero = b.constant(false);
    nets.push(zero);
    for chunk in recipe.chunks(3) {
        let (op, i, j) = (
            chunk[0] % 7,
            chunk.get(1).copied().unwrap_or(0) as usize,
            chunk.get(2).copied().unwrap_or(1) as usize,
        );
        let (x, y) = (nets[i % nets.len()], nets[j % nets.len()]);
        let n = match op {
            0 => b.and(x, y),
            1 => b.or(x, y),
            2 => b.xor(x, y),
            3 => b.nand(x, y),
            4 => b.nor(x, y),
            5 => b.not(x),
            _ => b.mux(x, y, nets[(i + 1) % nets.len()]),
        };
        nets.push(n);
    }
    for (k, &ff) in ffs.iter().enumerate() {
        b.connect_dff(ff, nets[(3 * k + 1) * 7 % nets.len()]);
    }
    let out: Vec<_> = nets.iter().rev().take(8).copied().collect();
    b.output_bus("out", &out);
    b.finish()
}

/// SplitMix64: stimuli and choices from one seed.
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every net's value on every active lane.
fn values(sim: &CompiledSim, nets: usize, lanes: usize) -> Vec<bool> {
    (0..nets)
        .flat_map(|net| (0..lanes).map(move |lane| sim.get_lane(net as NetId, lane)))
        .collect()
}

/// `sim`'s [`PORTS`], resolved.
fn ports(sim: &CompiledSim) -> Vec<PortId> {
    PORTS
        .iter()
        .map(|&(name, _)| sim.input_port(name))
        .collect()
}

/// A full-sweep simulator of `nl` whose codegen is on when `native` is
/// set, and off otherwise, whatever `GATE_SIM_JIT` says.
fn sim(nl: &Netlist, lanes: usize, native: bool) -> CompiledSim {
    let mut sim = CompiledSim::with_lanes(nl, lanes);
    sim.set_eval_mode(EvalMode::FullSweep);
    sim.set_jit_options(JitOptions {
        enabled: native,
        ..JitOptions::default()
    });
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cone_settles_match_full_evals(
        recipe in proptest::collection::vec(any::<u8>(), 3..90),
        lanes in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let nl = circuit(&recipe);
        for lanes in [lanes, lanes + 64] {
            for native in [false, true] {
                let mut full = sim(&nl, lanes, native);
                let mut cone = sim(&nl, lanes, native);
                let ids = ports(&full);
                let k = full.lane_words();
                let mut s = seed;
                let words = |width: usize, s: &mut u64| -> Vec<u64> {
                    (0..width * k).map(|_| splitmix(s)).collect()
                };
                // The first settle is a full eval on both.
                for (&(_, width), &port) in PORTS.iter().zip(&ids) {
                    let w = words(width, &mut s);
                    full.set_port_words(port, &w);
                    cone.set_port_words(port, &w);
                }
                full.eval();
                cone.eval();
                // One cone per (written ports, flip-flops) pair, cut once.
                let mut cones: HashMap<(u64, bool), Cone> = HashMap::new();
                for round in 0..24 {
                    let pick = splitmix(&mut s);
                    let step = pick & 1 == 1;
                    // A cone may cover more than what changed: the FFs
                    // without a clock edge, a port written unchanged.
                    let ffs = step || pick & 2 == 2;
                    let mask = (pick >> 2) % 8;
                    if step {
                        full.step();
                        cone.step();
                    }
                    let written: Vec<usize> = (0..PORTS.len()).filter(|i| mask >> i & 1 == 1).collect();
                    let stimulus: Vec<Vec<u64>> = written
                        .iter()
                        .map(|&i| {
                            if pick >> 8 & 3 == 0 {
                                vec![0; PORTS[i].1 * k] // often an unchanged word
                            } else {
                                words(PORTS[i].1, &mut s)
                            }
                        })
                        .collect();
                    for (&i, w) in written.iter().zip(&stimulus) {
                        full.set_port_words(ids[i], w);
                    }
                    full.eval();
                    let c = cones.entry((mask, ffs)).or_insert_with(|| {
                        let sources: Vec<PortId> = written.iter().map(|&i| ids[i]).collect();
                        let mut c = cone.cone(&sources, ffs);
                        if native {
                            let emitted = cone.emit_cone(&mut c);
                            assert_eq!(emitted.is_ok(), netlist::jit::host_supported());
                        }
                        c
                    });
                    prop_assert_eq!(c.is_native(), native && netlist::jit::host_supported());
                    let refs: Vec<&[u64]> = stimulus.iter().map(Vec::as_slice).collect();
                    cone.settle_cone(c, &refs);
                    prop_assert_eq!(
                        values(&full, nl.len(), lanes),
                        values(&cone, nl.len(), lanes),
                        "values, round {} at {} lanes (native {})", round, lanes, native
                    );
                    prop_assert_eq!(full.toggles(), cone.toggles(), "round {}", round);
                    prop_assert_eq!(full.eval_stats().settles, cone.eval_stats().settles);
                }
                // The flip-flop state: what the next edge latches settles
                // to the same words on both.
                full.step();
                cone.step();
                full.eval();
                cone.eval();
                prop_assert_eq!(values(&full, nl.len(), lanes), values(&cone, nl.len(), lanes));
                prop_assert_eq!(full.toggles(), cone.toggles());
            }
        }
    }
}

/// A settled one-lane simulator of the circuit behind `recipe`, with the
/// cone of port `a`.
fn settled(recipe: &[u8]) -> (CompiledSim, Cone) {
    let nl = circuit(recipe);
    let mut sim = CompiledSim::with_lanes(&nl, 1);
    sim.eval();
    let a = sim.input_port("a");
    let cone = sim.cone(&[a], false);
    (sim, cone)
}

const RECIPE: &[u8] = &[0, 1, 2, 2, 3, 4, 6, 0, 9, 1, 5, 8];

#[test]
fn a_cone_counts_only_what_reads_its_sources() {
    let (sim, cone) = settled(RECIPE);
    assert!(!cone.is_empty());
    assert!(cone.len() < sim.program().len());
    let all = sim.cone(&ports(&sim), true);
    assert_eq!(all.len(), sim.program().len(), "every op reads some source");
}

#[test]
#[should_panic(expected = "a cone settles only the simulator program and lane width")]
fn a_cone_of_another_netlist_is_refused() {
    let (_, cone) = settled(RECIPE);
    let (mut other, _) = settled(&[1, 0, 3, 2, 4, 4]);
    other.settle_cone(&cone, &[&[0; 5]]);
}

#[test]
#[should_panic(expected = "a cone settles only the simulator program and lane width")]
fn a_cone_of_another_program_of_the_same_netlist_is_refused() {
    let (sim, cone) = settled(RECIPE);
    let mut other = CompiledSim::with_lanes_uncached(Arc::clone(sim.netlist_arc()), 1);
    other.eval();
    other.settle_cone(&cone, &[&[0; 5]]);
}

#[test]
#[should_panic(expected = "a cone settles only the simulator program and lane width")]
fn a_cone_of_another_lane_width_is_refused() {
    let (sim, cone) = settled(RECIPE);
    let mut wide = CompiledSim::with_lanes_arc(Arc::clone(sim.netlist_arc()), 65);
    wide.eval();
    wide.settle_cone(&cone, &[&[0; 10]]);
}

#[test]
fn a_cone_settles_a_clone_which_shares_the_program() {
    let (sim, cone) = settled(RECIPE);
    let mut twin = sim.clone();
    twin.settle_cone(&cone, &[&[u64::MAX; 5]]);
}

#[test]
#[should_panic(expected = "an input write is still unsettled")]
fn a_cone_settle_with_an_unsettled_input_write_is_refused() {
    let (mut sim, cone) = settled(RECIPE);
    let c = sim.input_port("c");
    sim.set_port_words(c, &[1; 9]);
    sim.settle_cone(&cone, &[&[0; 5]]);
}

#[test]
#[should_panic(expected = "a flip-flop write is still unsettled")]
fn a_cone_without_the_flip_flops_after_a_changing_edge_is_refused() {
    let (mut sim, cone) = settled(RECIPE);
    let ffs: Vec<NetId> = (0..sim.netlist_arc().len() as NetId)
        .filter(|&n| sim.netlist_arc().gates()[n as usize].is_dff())
        .collect();
    let flip = !sim.get(ffs[0]);
    sim.set_ff(ffs[0], flip);
    sim.settle_cone(&cone, &[&[0; 5]]);
}

#[test]
#[should_panic(expected = "a cone settles only a primed simulator")]
fn a_cone_settle_before_the_first_eval_is_refused() {
    let nl = circuit(RECIPE);
    let mut sim = CompiledSim::with_lanes(&nl, 1);
    let a = sim.input_port("a");
    let cone = sim.cone(&[a], false);
    sim.settle_cone(&cone, &[&[0; 5]]);
}
