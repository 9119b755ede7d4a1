//! `CompiledSim::set_port_words` against the bit-serial reference
//! `CompiledSim::set_port_lanes`: driving a port from its transposed lane
//! words must leave a simulator exactly where driving it lane by lane
//! does — the same values on every active lane of every net, the same
//! toggles, the same `EvalStats`, and the same clean state after a write
//! that changes nothing.

use netlist::{Builder, CompiledSim, EvalMode, NetId, Netlist};
use proptest::prelude::*;

/// A random sequential circuit over a `width`-bit input port `in`: a few
/// DFFs join the net pool up front and are fed back from recipe-chosen
/// nets at the end.
fn circuit(width: usize, recipe: &[u8]) -> Netlist {
    let mut b = Builder::new();
    let mut nets = b.input_bus("in", width);
    let ffs: Vec<_> = (0..3).map(|i| b.dff(i == 0)).collect();
    nets.extend(&ffs);
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

/// SplitMix64: per-lane stimuli from one seed.
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `values` (one per lane) as `lane_words` words per port bit, bit-major:
/// the bit-by-bit transpose `set_port_words` takes.
fn lane_words(values: &[u64], width: usize, lane_words: usize) -> Vec<u64> {
    let mut words = vec![0u64; width * lane_words];
    for (lane, &v) in values.iter().enumerate() {
        for bit in 0..width {
            words[bit * lane_words + lane / 64] |= ((v >> bit) & 1) << (lane % 64);
        }
    }
    words
}

/// Every net's value on every active lane.
fn values(sim: &CompiledSim, nets: usize, lanes: usize) -> Vec<bool> {
    (0..nets)
        .flat_map(|net| (0..lanes).map(move |lane| sim.get_lane(net as NetId, lane)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn port_words_match_bit_serial_port_lanes(
        recipe in proptest::collection::vec(any::<u8>(), 3..60),
        width in 1usize..=64,
        lanes in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let nl = circuit(width, &recipe);
        // One, two and four lane words per net.
        for lanes in [lanes, lanes + 64, lanes + 192] {
            for mode in [EvalMode::FullSweep, EvalMode::Jit] {
                let mut serial = CompiledSim::with_lanes(&nl, lanes);
                let mut words = CompiledSim::with_lanes(&nl, lanes);
                serial.set_eval_mode(mode);
                words.set_eval_mode(mode);
                let port = serial.input_port("in");
                prop_assert_eq!(port, words.input_port("in"));
                let k = words.lane_words();
                let mut s = seed;
                let mut stimulus = vec![0u64; lanes];
                for _ in 0..4 {
                    stimulus.iter_mut().for_each(|v| *v = splitmix(&mut s));
                    serial.set_port_lanes(port, &stimulus);
                    words.set_port_words(port, &lane_words(&stimulus, width, k));
                    serial.eval();
                    words.eval();
                    prop_assert_eq!(
                        values(&serial, nl.len(), lanes),
                        values(&words, nl.len(), lanes),
                        "values at {} lanes ({:?})", lanes, mode
                    );
                    serial.step();
                    words.step();
                }
                serial.eval();
                words.eval();
                prop_assert_eq!(serial.toggles(), words.toggles(), "{} lanes ({:?})", lanes, mode);
                prop_assert_eq!(serial.eval_stats(), words.eval_stats());

                // An unchanged write leaves both clean: a cone settle,
                // which refuses to run over an unsettled input write, is
                // accepted on each and changes nothing.
                let unchanged = lane_words(&stimulus, width, k);
                let toggles = words.toggles().to_vec();
                serial.set_port_lanes(port, &stimulus);
                words.set_port_words(port, &unchanged);
                for sim in [&mut serial, &mut words] {
                    let cone = sim.cone(&[port], false);
                    sim.settle_cone(&cone, &[&unchanged]);
                }
                prop_assert_eq!(serial.eval_stats(), words.eval_stats());
                prop_assert_eq!(words.toggles(), &toggles[..]);
                prop_assert_eq!(serial.toggles(), words.toggles());
                prop_assert_eq!(
                    values(&serial, nl.len(), lanes),
                    values(&words, nl.len(), lanes)
                );

                // A one-bit change on the last lane dirties both alike.
                stimulus[lanes - 1] ^= 1 << (s % width as u64);
                serial.set_port_lanes(port, &stimulus);
                words.set_port_words(port, &lane_words(&stimulus, width, k));
                serial.eval();
                words.eval();
                prop_assert_eq!(serial.eval_stats(), words.eval_stats());
                prop_assert_eq!(serial.toggles(), words.toggles());
                prop_assert_eq!(
                    values(&serial, nl.len(), lanes),
                    values(&words, nl.len(), lanes)
                );
            }
        }
    }
}
