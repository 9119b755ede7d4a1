//! Pre-verification of instruction hardware blocks (Figure 4 of the paper).
//!
//! * [`functional_verify`] — the architecture-test step: structured
//!   corner-case vectors per instruction, compared against the golden
//!   semantics (our stand-in for the RISC-V Architecture Test SIG suite).
//! * [`formal_verify`] — the SVA/SymbiYosys step: randomised input-space
//!   equivalence against the specification plus interface assertions
//!   (no spurious memory writes, x0 suppression, decode selectivity).

use crate::{ports, InstrBlock};
use netlist::compiled::CompiledSim;
use netlist::sharded::{ShardPolicy, ShardedSim};
use netlist::sim::{Sim, SimBackend};
use netlist::Netlist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riscv_isa::semantics::{block_semantics, BlockInputs, BlockOutputs};
use riscv_isa::{Format, Instruction, Mnemonic, Reg, ALL_MNEMONICS};
use std::sync::Arc;

/// A verification failure: which check tripped and on which inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Human-readable description of the violated property.
    pub property: String,
    /// The stimulus that exposed the failure.
    pub inputs: BlockInputs,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (pc={:#x} insn={:#010x} rs1={:#x} rs2={:#x} rdata={:#x})",
            self.property,
            self.inputs.pc,
            self.inputs.insn,
            self.inputs.rs1_data,
            self.inputs.rs2_data,
            self.inputs.dmem_rdata
        )
    }
}

impl std::error::Error for VerifyError {}

/// Corner-case 32-bit operand values used by every testbench.
pub const CORNER_VALUES: [u32; 10] = [
    0,
    1,
    2,
    4,
    0x7fff_ffff,
    0x8000_0000,
    0xffff_ffff,
    0xaaaa_aaaa,
    0x5555_5555,
    0x0000_8000,
];

/// Evaluates a block netlist on the given inputs and returns its outputs in
/// golden-model shape.
pub fn run_hw_block(block: &InstrBlock, inputs: &BlockInputs) -> BlockOutputs {
    let mut sim = Sim::new(&block.netlist);
    drive(&mut sim, inputs);
    sim.eval();
    read_outputs(&sim)
}

fn drive<S: SimBackend>(sim: &mut S, inputs: &BlockInputs) {
    sim.set_bus(ports::PC, inputs.pc);
    sim.set_bus(ports::INSN, inputs.insn);
    sim.set_bus(ports::RS1_DATA, inputs.rs1_data);
    sim.set_bus(ports::RS2_DATA, inputs.rs2_data);
    sim.set_bus(ports::DMEM_RDATA, inputs.dmem_rdata);
}

fn drive_chunk(sim: &mut CompiledSim, chunk: &[BlockInputs]) {
    // One transposed write per port (ports resolve once per shard chunk).
    let field = |f: fn(&BlockInputs) -> u32| chunk.iter().map(|i| f(i) as u64).collect::<Vec<_>>();
    sim.set_bus_lanes(ports::PC, &field(|i| i.pc));
    sim.set_bus_lanes(ports::INSN, &field(|i| i.insn));
    sim.set_bus_lanes(ports::RS1_DATA, &field(|i| i.rs1_data));
    sim.set_bus_lanes(ports::RS2_DATA, &field(|i| i.rs2_data));
    sim.set_bus_lanes(ports::DMEM_RDATA, &field(|i| i.dmem_rdata));
}

fn read_outputs(sim: &Sim) -> BlockOutputs {
    read_outputs_lane(sim, 0)
}

pub(crate) fn read_outputs_lane<S: SimBackend>(sim: &S, lane: usize) -> BlockOutputs {
    BlockOutputs {
        next_pc: sim.get_bus_lane(ports::NEXT_PC, lane) as u32,
        rs1_addr: sim.get_bus_lane(ports::RS1_ADDR, lane) as u8,
        rs2_addr: sim.get_bus_lane(ports::RS2_ADDR, lane) as u8,
        rd_addr: sim.get_bus_lane(ports::RD_ADDR, lane) as u8,
        rd_data: sim.get_bus_lane(ports::RD_DATA, lane) as u32,
        rd_we: sim.get_bus_lane(ports::RD_WE, lane) != 0,
        dmem_addr: sim.get_bus_lane(ports::DMEM_ADDR, lane) as u32,
        dmem_wdata: sim.get_bus_lane(ports::DMEM_WDATA, lane) as u32,
        dmem_wmask: sim.get_bus_lane(ports::DMEM_WMASK, lane) as u8,
        dmem_re: sim.get_bus_lane(ports::DMEM_RE, lane) != 0,
    }
}

/// Evaluates `vectors` through a sharded block simulation: each settle
/// packs `sim.lanes()` stimuli and the *whole sweep* — driving,
/// evaluation, and the per-lane `check` calls — runs inside one
/// [`ShardedSim::par_shards`] call, so both the settles and the
/// golden-model comparisons parallelise and the thread spawns are paid
/// once per sweep, not once per settle. Shard `s` owns the `s`-th
/// `lanes_per_shard`-lane slice of every chunk and stops at its first
/// failing vector; the smallest global index across shards wins, so the
/// returned error is exactly the one a sequential sweep would hit first,
/// at any thread count.
fn run_batched(
    sim: &mut ShardedSim,
    vectors: &[BlockInputs],
    check: impl Fn(&CompiledSim, usize, usize, &BlockInputs) -> Result<(), VerifyError> + Sync,
) -> Result<(), VerifyError> {
    let lanes_per_shard = sim.lanes_per_shard();
    let width = sim.lanes();
    let earliest = sim
        .par_shards(|shard, s| {
            let lo = shard * lanes_per_shard;
            let mut first: Option<(usize, VerifyError)> = None;
            'chunks: for (chunk_idx, chunk) in vectors.chunks(width).enumerate() {
                // The final partial chunk may not reach this shard.
                let Some(slice) = chunk.chunks(lanes_per_shard).nth(shard) else {
                    continue;
                };
                drive_chunk(s, slice);
                s.eval();
                for (lane, inputs) in slice.iter().enumerate() {
                    let index = chunk_idx * width + lo + lane;
                    if let Err(e) = check(s, index, lane, inputs) {
                        first = Some((index, e));
                        break 'chunks;
                    }
                }
            }
            first
        })
        .into_iter()
        .flatten()
        .min_by_key(|(index, _)| *index);
    match earliest {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Generates a random, valid instruction of the given mnemonic.
pub fn random_instruction(m: Mnemonic, rng: &mut StdRng) -> Instruction {
    let reg = |rng: &mut StdRng| Reg::from_index(rng.gen_range(0..16)).unwrap();
    match m.format() {
        Format::R => Instruction::r(m, reg(rng), reg(rng), reg(rng)),
        Format::I => {
            let imm = if m.funct7().is_some() {
                rng.gen_range(0..32)
            } else {
                rng.gen_range(-2048..=2047)
            };
            Instruction::i(m, reg(rng), reg(rng), imm)
        }
        Format::S => Instruction::s(m, reg(rng), reg(rng), rng.gen_range(-2048..=2047)),
        Format::B => Instruction::b(m, reg(rng), reg(rng), rng.gen_range(-2048..=2047) * 2),
        Format::U => Instruction::u(m, reg(rng), rng.gen::<i32>() & !0xfff),
        Format::J => Instruction::j(m, reg(rng), rng.gen_range(-262144..=262143) * 2),
    }
}

/// The architecture-test vector set for one instruction: a deterministic mix
/// of corner operand pairs and seeded random instructions.
pub fn arch_test_vectors(m: Mnemonic) -> Vec<BlockInputs> {
    let mut rng = StdRng::seed_from_u64(0xa5c3 ^ m as u64);
    let mut vectors = Vec::new();
    // Corner sweep with a handful of register/imm shapes.
    for _ in 0..3 {
        let instr = random_instruction(m, &mut rng);
        for &rs1 in &CORNER_VALUES {
            for &rs2 in &CORNER_VALUES {
                vectors.push(BlockInputs {
                    pc: 0x8000_0000u32.wrapping_add(rng.gen_range(0..1024) * 4),
                    insn: instr.encode(),
                    rs1_data: rs1,
                    rs2_data: rs2,
                    dmem_rdata: rng.gen(),
                });
            }
        }
    }
    // Random instructions with random operands.
    for _ in 0..200 {
        let instr = random_instruction(m, &mut rng);
        vectors.push(BlockInputs {
            pc: rng.gen::<u32>() & !3,
            insn: instr.encode(),
            rs1_data: rng.gen(),
            rs2_data: rng.gen(),
            dmem_rdata: rng.gen(),
        });
    }
    vectors
}

fn golden_check(
    mnemonic: Mnemonic,
    inputs: &BlockInputs,
    hw: &BlockOutputs,
) -> Result<(), VerifyError> {
    let instr = Instruction::decode(inputs.insn).expect("vector insn must decode");
    let golden = block_semantics(instr, inputs);
    if *hw != golden {
        return Err(VerifyError {
            property: format!("{mnemonic}: hardware {hw:?} differs from specification {golden:?}"),
            inputs: *inputs,
        });
    }
    Ok(())
}

/// Functional verification: runs the full architecture-test vector set for
/// the block's instruction through the netlist and the golden semantics.
///
/// The block is compiled once and the vectors are driven 64 per settle
/// through the bit-parallel backend. Delegates to
/// [`functional_verify_with`] with a single-shard policy; pass a wider
/// [`ShardPolicy`] to settle `shards * 64` vectors at a time across
/// threads.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify(block: &InstrBlock) -> Result<(), VerifyError> {
    functional_verify_with(block, ShardPolicy::single())
}

/// [`functional_verify`] under an explicit shard policy. The verdict (and
/// the vector any error reports) is independent of `policy.threads`.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify_with(block: &InstrBlock, policy: ShardPolicy) -> Result<(), VerifyError> {
    functional_verify_arc(block.mnemonic, Arc::new(block.netlist.clone()), policy)
}

/// [`functional_verify_with`] over a shared netlist handle: the shard
/// fan-out reuses the caller's [`Arc`] instead of deep-cloning the
/// netlist. This is the hot path for sweeps (e.g.
/// `HwLibrary::verify_all_with`) that verify one block several ways.
///
/// # Errors
///
/// Returns the first mismatching vector.
pub fn functional_verify_arc(
    mnemonic: Mnemonic,
    netlist: Arc<Netlist>,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    let mut sim = ShardedSim::with_policy_arc(netlist, policy);
    let vectors = arch_test_vectors(mnemonic);
    run_batched(&mut sim, &vectors, |sim, _index, lane, inputs| {
        golden_check(mnemonic, inputs, &read_outputs_lane(sim, lane))
    })
}

/// Formal verification: seeded random equivalence over the block's full
/// input space plus the interface assertions of the standard port contract.
///
/// The assertions mirror the paper's SVA set:
/// * decode selectivity — `sel` asserts exactly for this mnemonic's
///   encodings (checked against every other mnemonic in the ISA);
/// * no spurious memory traffic — `dmem_wmask == 0` unless a store,
///   `dmem_re == 0` unless a load;
/// * no spurious write-back — `rd_we == 0` for stores/branches and for
///   `rd == x0`;
/// * PC sanity — non-control-flow blocks always produce `pc + 4`.
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify(block: &InstrBlock, samples: usize, seed: u64) -> Result<(), VerifyError> {
    formal_verify_with(block, samples, seed, ShardPolicy::single())
}

/// [`formal_verify`] under an explicit shard policy: each settle packs
/// `policy.total_lanes()` random vectors and the shards evaluate on
/// `policy.threads` threads. The stimulus sequence depends only on
/// `seed`, so for a fixed policy shape the verdict is deterministic and
/// independent of the thread count.
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify_with(
    block: &InstrBlock,
    samples: usize,
    seed: u64,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    formal_verify_arc(
        block.mnemonic,
        Arc::new(block.netlist.clone()),
        samples,
        seed,
        policy,
    )
}

/// [`formal_verify_with`] over a shared netlist handle (see
/// [`functional_verify_arc`] for why).
///
/// # Errors
///
/// Returns the first violated property.
pub fn formal_verify_arc(
    m: Mnemonic,
    netlist: Arc<Netlist>,
    samples: usize,
    seed: u64,
    policy: ShardPolicy,
) -> Result<(), VerifyError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (m as u64) << 32);
    let mut sim = ShardedSim::with_policy_arc(netlist, policy);
    // One random stimulus vector per lane settles per eval: the whole
    // random sweep costs `samples / total_lanes` passes per shard.
    let vectors: Vec<BlockInputs> = (0..samples)
        .map(|_| {
            let instr = random_instruction(m, &mut rng);
            BlockInputs {
                pc: rng.gen::<u32>() & !3,
                insn: instr.encode(),
                rs1_data: rng.gen(),
                rs2_data: rng.gen(),
                dmem_rdata: rng.gen(),
            }
        })
        .collect();
    run_batched(&mut sim, &vectors, |sim, _index, lane, inputs| {
        let instr = Instruction::decode(inputs.insn).expect("vector insn must decode");
        let hw = read_outputs_lane(sim, lane);
        // Specification equivalence.
        golden_check(m, inputs, &hw)?;
        // Interface assertions on the raw hardware outputs.
        let inputs = *inputs;
        if !m.is_store() && hw.dmem_wmask != 0 {
            return Err(VerifyError {
                property: format!("{m}: non-store drove dmem_wmask"),
                inputs,
            });
        }
        if !m.is_load() && hw.dmem_re {
            return Err(VerifyError {
                property: format!("{m}: non-load drove dmem_re"),
                inputs,
            });
        }
        if !m.writes_rd() && hw.rd_we {
            return Err(VerifyError {
                property: format!("{m}: unexpected rd_we"),
                inputs,
            });
        }
        if instr.rd == Reg::X0 && hw.rd_we {
            return Err(VerifyError {
                property: format!("{m}: write-back to x0"),
                inputs,
            });
        }
        if !m.is_branch() && !m.is_jump() && hw.next_pc != inputs.pc.wrapping_add(4) {
            return Err(VerifyError {
                property: format!("{m}: sequential next_pc violated"),
                inputs,
            });
        }
        if sim.get_bus_lane(ports::SEL, lane) == 0 {
            return Err(VerifyError {
                property: format!("{m}: sel deasserted for own encoding"),
                inputs,
            });
        }
        Ok(())
    })?;
    // Decode selectivity against every other instruction in the ISA — all
    // foreign encodings batched into lanes as well.
    let others: Vec<Mnemonic> = ALL_MNEMONICS
        .into_iter()
        .filter(|&other| other != m)
        .collect();
    let foreign_vectors: Vec<BlockInputs> = others
        .iter()
        .map(|&other| {
            let instr = random_instruction(other, &mut rng);
            BlockInputs {
                pc: 0,
                insn: instr.encode(),
                rs1_data: rng.gen(),
                rs2_data: rng.gen(),
                dmem_rdata: rng.gen(),
            }
        })
        .collect();
    run_batched(&mut sim, &foreign_vectors, |sim, index, lane, inputs| {
        if sim.get_bus_lane(ports::SEL, lane) != 0 {
            return Err(VerifyError {
                property: format!("{m}: sel asserted for `{}` encoding", others[index]),
                inputs: *inputs,
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::build_block;

    fn block(m: Mnemonic) -> InstrBlock {
        InstrBlock {
            mnemonic: m,
            netlist: build_block(m),
        }
    }

    #[test]
    fn every_block_passes_functional_verification() {
        for m in ALL_MNEMONICS {
            functional_verify(&block(m)).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn every_block_passes_formal_verification() {
        for m in ALL_MNEMONICS {
            formal_verify(&block(m), 128, 0xf00d).unwrap_or_else(|e| panic!("{m}: {e}"));
        }
    }

    #[test]
    fn verification_catches_a_wrong_block() {
        // Pass the `sub` netlist off as the `add` block: the specification
        // equivalence must fail (decode `sel` also differs, but the compare
        // runs first on add encodings where sub produces wrong rd_data).
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        assert!(functional_verify(&wrong).is_err());
    }

    #[test]
    fn sharded_verification_matches_single_shard() {
        // 4 shards x 64 lanes = 256 vectors per settle; neither the shard
        // fan-out nor the thread count may change a verdict.
        for threads in [1, 2] {
            let policy = ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads,
            };
            for m in [Mnemonic::Add, Mnemonic::Lw, Mnemonic::Beq] {
                functional_verify_with(&block(m), policy).unwrap_or_else(|e| panic!("{m}: {e}"));
                formal_verify_with(&block(m), 256, 0xf00d, policy)
                    .unwrap_or_else(|e| panic!("{m}: {e}"));
            }
        }
        // A failing block reports the same first vector under every policy.
        let wrong = InstrBlock {
            mnemonic: Mnemonic::Add,
            netlist: build_block(Mnemonic::Sub),
        };
        let single = functional_verify(&wrong).unwrap_err();
        let sharded = functional_verify_with(
            &wrong,
            ShardPolicy {
                shards: 4,
                lanes_per_shard: 64,
                threads: 2,
            },
        )
        .unwrap_err();
        assert_eq!(single, sharded);
    }

    #[test]
    fn verification_is_thread_count_independent() {
        // The shard-thread count — sequential on the caller, or claimed
        // off a shared counter in whatever order the threads race — is a
        // pure performance knob: verdicts and first failing vectors cannot
        // move.
        for threads in [1, 2, 3] {
            let policy = ShardPolicy {
                shards: 3,
                lanes_per_shard: 64,
                threads,
            };
            functional_verify_with(&block(Mnemonic::Xor), policy)
                .unwrap_or_else(|e| panic!("x{threads}: {e}"));
            formal_verify_with(&block(Mnemonic::Sw), 192, 0xf00d, policy)
                .unwrap_or_else(|e| panic!("x{threads}: {e}"));
            let wrong = InstrBlock {
                mnemonic: Mnemonic::Add,
                netlist: build_block(Mnemonic::Sub),
            };
            assert_eq!(
                functional_verify_with(&wrong, policy).unwrap_err(),
                functional_verify(&wrong).unwrap_err(),
                "x{threads} moved the first failing vector"
            );
        }
    }

    #[test]
    fn arch_vectors_are_deterministic_and_plentiful() {
        let a = arch_test_vectors(Mnemonic::Add);
        let b = arch_test_vectors(Mnemonic::Add);
        assert_eq!(a, b);
        assert!(a.len() > 400);
    }

    #[test]
    fn random_instructions_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        for m in ALL_MNEMONICS {
            for _ in 0..50 {
                let i = random_instruction(m, &mut rng);
                assert_eq!(Instruction::decode(i.encode()), Ok(i), "{m}");
            }
        }
    }
}
