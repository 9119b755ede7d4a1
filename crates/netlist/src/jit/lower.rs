//! Lowering: the levelized [`Program`] op stream → LIR → x86-64 code.
//!
//! Two steps per scheduled op, done op by op in one pass straight into
//! the code buffer (no LIR vector is kept):
//!
//! 1. **Fold** ([`lower_op`]): resolve operands against the program's
//!    constant-net set and simplify — `AND` with a constant-false
//!    operand becomes [`Lir::Fill`], `XOR` with constant-true becomes
//!    [`Lir::Not`], a mux with a constant select collapses to a copy,
//!    and a mux with a constant-false `b` leg becomes the fused
//!    [`Lir::AndNot`] (`!sel & a`), which the emitter maps to a single
//!    BMI1 `andn` when available. The [`crate::Builder`] already folds
//!    most of these shapes at construction time, but mutant
//!    netlists built by [`crate::Netlist::with_gate_replaced`] (the
//!    mutation-testing path) bypass the builder, so stream-level
//!    folding has real work to do.
//! 2. **Emit** ([`emit_op`]): straight-line x86-64 per lane word —
//!    compute the new value, diff it against the stored word under the
//!    active-lane mask, `popcnt` the diff into the toggle counter, and
//!    store. The emitted arithmetic is exactly the interpreter's
//!    ([`crate::compiled`]'s `exec_chunk_full_impl`), which is what
//!    makes bit-identity an invariant rather than an aspiration — see
//!    `docs/jit.md` for the worked example and the normative contract.
//!
//! The code layout is one function per level plus an entry function
//! that `call`s each level in order (forward references patched
//! through the [`EmitState`] fixup machinery):
//!
//! ```text
//! entry:  call L0 ; call L1 ; ... ; ret
//! L0:     <level-0 ops> ret
//! L1:     <level-1 ops> ret
//! ```

use super::emit::{EmitState, Label};
use super::x86::{self, Alu, Reg};
use super::JitError;
use crate::level::{OpCode, Program};

/// Lowered op: operands are net ids with constants folded away.
/// `AndNot(x, y)` is `!x & y`; `OrNot(x, y)` is `!x | y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lir {
    /// `dst = inputs[idx]` — publish a primary-input word.
    Input(u32),
    /// `dst = ffs[dst]` — publish the stored FF word.
    DffOut,
    /// `dst = broadcast(v)` — a fully folded constant.
    Fill(bool),
    /// `dst = values[net]`.
    Copy(u32),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Nand(u32, u32),
    Nor(u32, u32),
    Xnor(u32, u32),
    /// `dst = !a & b` (ANDN fusion).
    AndNot(u32, u32),
    /// `dst = !a | b`.
    OrNot(u32, u32),
    /// `dst = (sel & b) | (!sel & a)`.
    Mux {
        sel: u32,
        a: u32,
        b: u32,
    },
}

/// An operand after constant resolution.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Net(u32),
    Const(bool),
}

/// Fold one scheduled op to LIR. `is_const` maps net id → constant
/// value for the program's preset nets. Fails on ops the JIT does not
/// implement — [`OpCode::Input`]/[`OpCode::DffOut`] outside level 0
/// (impossible for [`Program::compile`] output, but hand-built streams
/// can express it, and the documented contract is fallback, not UB).
pub fn lower_op(prog: &Program, index: usize, is_const: &[Option<bool>]) -> Result<Lir, JitError> {
    use Operand::{Const, Net};
    let op = prog.opcodes[index];
    let level0 = index < prog.bounds[1.min(prog.bounds.len() - 1)] as usize;
    let resolve = |net: u32| -> Operand {
        match is_const.get(net as usize).copied().flatten() {
            Some(v) => Const(v),
            None => Net(net),
        }
    };
    let a = resolve(prog.a[index]);
    let b = resolve(prog.b[index]);
    Ok(match op {
        OpCode::Input if level0 => Lir::Input(prog.a[index]),
        OpCode::DffOut if level0 => Lir::DffOut,
        OpCode::Input | OpCode::DffOut => {
            return Err(JitError::UnsupportedOp { index, opcode: op })
        }
        OpCode::Not => match a {
            Const(v) => Lir::Fill(!v),
            Net(x) => Lir::Not(x),
        },
        OpCode::And => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(x & y),
            (Const(false), _) | (_, Const(false)) => Lir::Fill(false),
            (Const(true), Net(x)) | (Net(x), Const(true)) => Lir::Copy(x),
            (Net(x), Net(y)) => Lir::And(x, y),
        },
        OpCode::Or => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(x | y),
            (Const(true), _) | (_, Const(true)) => Lir::Fill(true),
            (Const(false), Net(x)) | (Net(x), Const(false)) => Lir::Copy(x),
            (Net(x), Net(y)) => Lir::Or(x, y),
        },
        OpCode::Xor => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(x ^ y),
            (Const(true), Net(x)) | (Net(x), Const(true)) => Lir::Not(x),
            (Const(false), Net(x)) | (Net(x), Const(false)) => Lir::Copy(x),
            (Net(x), Net(y)) => Lir::Xor(x, y),
        },
        OpCode::Nand => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(!(x & y)),
            (Const(false), _) | (_, Const(false)) => Lir::Fill(true),
            (Const(true), Net(x)) | (Net(x), Const(true)) => Lir::Not(x),
            (Net(x), Net(y)) => Lir::Nand(x, y),
        },
        OpCode::Nor => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(!(x | y)),
            (Const(true), _) | (_, Const(true)) => Lir::Fill(false),
            (Const(false), Net(x)) | (Net(x), Const(false)) => Lir::Not(x),
            (Net(x), Net(y)) => Lir::Nor(x, y),
        },
        OpCode::Xnor => match (a, b) {
            (Const(x), Const(y)) => Lir::Fill(!(x ^ y)),
            (Const(true), Net(x)) | (Net(x), Const(true)) => Lir::Copy(x),
            (Const(false), Net(x)) | (Net(x), Const(false)) => Lir::Not(x),
            (Net(x), Net(y)) => Lir::Xnor(x, y),
        },
        OpCode::Mux => {
            // v = (sel & b) | (!sel & a)
            let sel = resolve(prog.c[index]);
            match (sel, a, b) {
                (Const(s), a, b) => {
                    let arm = if s { b } else { a };
                    match arm {
                        Const(v) => Lir::Fill(v),
                        Net(x) => Lir::Copy(x),
                    }
                }
                (Net(s), Const(x), Const(y)) => match (x, y) {
                    (false, false) => Lir::Fill(false),
                    (true, true) => Lir::Fill(true),
                    (false, true) => Lir::Copy(s),
                    (true, false) => Lir::Not(s),
                },
                // v = sel ? b : 0  →  sel & b
                (Net(s), Const(false), Net(y)) => Lir::And(s, y),
                // v = sel ? b : 1  →  !sel | b
                (Net(s), Const(true), Net(y)) => Lir::OrNot(s, y),
                // v = sel ? 1 : a  →  sel | a
                (Net(s), Net(x), Const(true)) => Lir::Or(s, x),
                // v = sel ? 0 : a  →  !sel & a (the ANDN shape)
                (Net(s), Net(x), Const(false)) => Lir::AndNot(s, x),
                (Net(s), Net(x), Net(y)) => Lir::Mux { sel: s, a: x, b: y },
            }
        }
    })
}

/// Byte displacement of net `net`'s lane word `w` (`K`-word blocks),
/// checked against the 32-bit displacement field.
fn disp(net: u32, k: usize, w: usize, index: usize) -> Result<i32, JitError> {
    i32::try_from((net as usize * k + w) * 8).map_err(|_| JitError::OperandOutOfRange { index })
}

/// Emit one lowered op: per lane word, compute the value into `rax`,
/// accumulate the masked popcount diff, store. Register roles are
/// fixed: `rdi`/`rsi`/`rdx`/`rcx`/`r8` hold the five argument base
/// pointers untouched, `rax`/`r9`/`r10` are scratch, `r11` accumulates
/// the op's toggle count across lane words.
pub fn emit_op(
    e: &mut EmitState,
    lir: Lir,
    dst: u32,
    k: usize,
    use_bmi1: bool,
    index: usize,
) -> Result<(), JitError> {
    let toggles_disp =
        i32::try_from(dst as usize * 8).map_err(|_| JitError::OperandOutOfRange { index })?;
    for w in 0..k {
        let vdisp = |net: u32| disp(net, k, w, index);
        let dst_disp = vdisp(dst)?;
        // rax = new value word.
        match lir {
            Lir::Input(idx) => x86::mov_reg_mem(e, Reg::Rax, Reg::Rsi, vdisp(idx)?),
            Lir::DffOut => x86::mov_reg_mem(e, Reg::Rax, Reg::Rdx, dst_disp),
            Lir::Fill(v) => x86::mov_reg_imm32(e, Reg::Rax, if v { -1 } else { 0 }),
            Lir::Copy(x) => x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?),
            Lir::Not(x) => {
                x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?);
                x86::not_reg(e, Reg::Rax);
            }
            Lir::And(x, y) | Lir::Or(x, y) | Lir::Xor(x, y) => {
                let alu = match lir {
                    Lir::And(..) => Alu::And,
                    Lir::Or(..) => Alu::Or,
                    _ => Alu::Xor,
                };
                x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?);
                x86::alu_reg_mem(e, alu, Reg::Rax, Reg::Rdi, vdisp(y)?);
            }
            Lir::Nand(x, y) | Lir::Nor(x, y) | Lir::Xnor(x, y) => {
                let alu = match lir {
                    Lir::Nand(..) => Alu::And,
                    Lir::Nor(..) => Alu::Or,
                    _ => Alu::Xor,
                };
                x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?);
                x86::alu_reg_mem(e, alu, Reg::Rax, Reg::Rdi, vdisp(y)?);
                x86::not_reg(e, Reg::Rax);
            }
            Lir::AndNot(x, y) => {
                if use_bmi1 {
                    x86::mov_reg_mem(e, Reg::R10, Reg::Rdi, vdisp(x)?);
                    x86::andn_reg_mem(e, Reg::Rax, Reg::R10, Reg::Rdi, vdisp(y)?);
                } else {
                    x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?);
                    x86::not_reg(e, Reg::Rax);
                    x86::alu_reg_mem(e, Alu::And, Reg::Rax, Reg::Rdi, vdisp(y)?);
                }
            }
            Lir::OrNot(x, y) => {
                x86::mov_reg_mem(e, Reg::Rax, Reg::Rdi, vdisp(x)?);
                x86::not_reg(e, Reg::Rax);
                x86::alu_reg_mem(e, Alu::Or, Reg::Rax, Reg::Rdi, vdisp(y)?);
            }
            Lir::Mux { sel, a, b } => {
                x86::mov_reg_mem(e, Reg::R10, Reg::Rdi, vdisp(sel)?);
                if use_bmi1 {
                    // rax = !sel & a in one op.
                    x86::andn_reg_mem(e, Reg::Rax, Reg::R10, Reg::Rdi, vdisp(a)?);
                } else {
                    x86::mov_reg_reg(e, Reg::Rax, Reg::R10);
                    x86::not_reg(e, Reg::Rax);
                    x86::alu_reg_mem(e, Alu::And, Reg::Rax, Reg::Rdi, vdisp(a)?);
                }
                x86::alu_reg_mem(e, Alu::And, Reg::R10, Reg::Rdi, vdisp(b)?);
                x86::alu_reg_reg(e, Alu::Or, Reg::Rax, Reg::R10);
            }
        }
        // r9 = popcount((old ^ new) & mask[w]) — the interpreter's exact
        // toggle rule; adding zero when nothing changed is identical to
        // its conditional add.
        x86::mov_reg_mem(e, Reg::R9, Reg::Rdi, dst_disp);
        x86::alu_reg_reg(e, Alu::Xor, Reg::R9, Reg::Rax);
        x86::alu_reg_mem(e, Alu::And, Reg::R9, Reg::R8, (w * 8) as i32);
        x86::popcnt_reg_reg(e, Reg::R9, Reg::R9);
        x86::mov_mem_reg(e, Reg::Rdi, dst_disp, Reg::Rax);
        if k == 1 {
            x86::alu_mem_reg(e, Alu::Add, Reg::Rcx, toggles_disp, Reg::R9);
        } else if w == 0 {
            x86::mov_reg_reg(e, Reg::R11, Reg::R9);
        } else {
            x86::alu_reg_reg(e, Alu::Add, Reg::R11, Reg::R9);
        }
    }
    if k > 1 {
        x86::alu_mem_reg(e, Alu::Add, Reg::Rcx, toggles_disp, Reg::R11);
    }
    Ok(())
}

/// Most bytes [`emit_op`] writes per lane word: the portable mux
/// template (30) plus the toggle tail at K = 1 (36), which also covers
/// the K > 1 tail (32 per word).
const MAX_OP_WORD_BYTES: usize = 66;

/// Most bytes [`emit_op`] writes per op on top of its words: the final
/// toggle add of a K > 1 block.
const MAX_OP_TAIL_BYTES: usize = 7;

/// Most bytes per level: its `call` in the entry function plus its `ret`.
const MAX_LEVEL_BYTES: usize = 6;

/// Upper bound on the code [`lower_program`] emits for `prog` at `k`-word
/// blocks — the size of the mapping reserved before emission.
pub fn code_bound(prog: &Program, k: usize) -> usize {
    prog.len() * (MAX_OP_WORD_BYTES * k + MAX_OP_TAIL_BYTES) + prog.levels() * MAX_LEVEL_BYTES + 1
}

/// Lower the whole program for `k`-word lane blocks into `code`, at most
/// `max_code_bytes` of it. Returns the code length; the whole-stream
/// entry is offset 0. Stops at the first op that fails to fold or
/// overflows the buffer.
pub fn lower_program(
    prog: &Program,
    k: usize,
    code: &mut [u8],
    max_code_bytes: usize,
    use_bmi1: bool,
) -> Result<usize, JitError> {
    let mut is_const = vec![None; prog.net_count];
    for &(net, v) in &prog.consts {
        is_const[net as usize] = Some(v);
    }
    let mut e = EmitState::new(code, max_code_bytes);
    let levels = prog.levels();
    let labels: Vec<Label> = (0..levels).map(|_| e.new_label()).collect();
    // Entry function: call every non-empty level in schedule order.
    for (level, &label) in labels.iter().enumerate() {
        if !prog.level_ops(level).is_empty() {
            x86::call_label(&mut e, label);
        }
    }
    x86::ret(&mut e);
    // One straight-line function per level.
    for (level, &label) in labels.iter().enumerate() {
        e.bind_label(label);
        for i in prog.level_ops(level) {
            let lir = lower_op(prog, i, &is_const)?;
            emit_op(&mut e, lir, prog.dst[i], k, use_bmi1, i)?;
            e.check().map_err(JitError::Emit)?;
        }
        x86::ret(&mut e);
    }
    e.finalize().map_err(JitError::Emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, Netlist};

    fn lower_all(nl: &Netlist) -> Vec<Lir> {
        let prog = Program::compile(nl);
        let mut is_const = vec![None; prog.net_count];
        for &(net, v) in &prog.consts {
            is_const[net as usize] = Some(v);
        }
        (0..prog.len())
            .map(|i| lower_op(&prog, i, &is_const).unwrap())
            .collect()
    }

    /// `with_gate_replaced` bypasses the builder's fold rules, so the
    /// stream really contains const-operand gates for the lowerer.
    #[test]
    fn stream_level_constant_folding() {
        let mut b = Builder::new();
        let i0 = b.input("a");
        let i1 = b.input("b");
        let x = b.xor(i0, i1);
        let m = b.mux(x, i0, i1);
        b.output("o", m);
        let nl = b.finish();
        // Replace the xor's net with a constant: the mux's select is now
        // constant-true, so the mux must fold to a copy of its `b` leg.
        let mutated = nl.with_gate_replaced(x, crate::Gate::Const(true));
        let lirs = lower_all(&mutated);
        assert!(
            lirs.iter().any(|l| matches!(l, Lir::Copy(_))),
            "const-select mux must fold to a copy: {lirs:?}"
        );
    }

    #[test]
    fn mux_with_const_false_leg_fuses_to_andnot() {
        let mut b = Builder::new();
        let s = b.input("s");
        let p = b.input("p");
        let q = b.input("q");
        let leg_a = b.and(p, q);
        let leg_b = b.or(p, q);
        let m = b.mux(s, leg_a, leg_b);
        b.output("o", m);
        let nl = b.finish();
        // Mutate the `b` leg to constant-false (builder folding would have
        // collapsed this at construction): sel?0:a is the ANDN shape.
        let mutated = nl.with_gate_replaced(leg_b, crate::Gate::Const(false));
        let lirs = lower_all(&mutated);
        assert!(
            lirs.iter().any(|l| matches!(l, Lir::AndNot(..))),
            "sel?0:a must fuse to AndNot: {lirs:?}"
        );
    }

    /// Every lowered shape, at every block width, in both encodings,
    /// stays within the per-op bound the reservation is sized by.
    #[test]
    fn every_op_template_fits_the_code_bound() {
        let shapes = [
            Lir::Input(1),
            Lir::DffOut,
            Lir::Fill(true),
            Lir::Copy(1),
            Lir::Not(1),
            Lir::And(1, 2),
            Lir::Or(1, 2),
            Lir::Xor(1, 2),
            Lir::Nand(1, 2),
            Lir::Nor(1, 2),
            Lir::Xnor(1, 2),
            Lir::AndNot(1, 2),
            Lir::OrNot(1, 2),
            Lir::Mux { sel: 1, a: 2, b: 3 },
        ];
        let mut buf = vec![0u8; 4096];
        for k in 1..=crate::compiled::MAX_LANE_WORDS {
            for use_bmi1 in [false, true] {
                for lir in shapes {
                    let mut e = EmitState::new(&mut buf, usize::MAX);
                    emit_op(&mut e, lir, 4, k, use_bmi1, 0).unwrap();
                    let len = e.finalize().unwrap();
                    assert!(
                        len <= MAX_OP_WORD_BYTES * k + MAX_OP_TAIL_BYTES,
                        "{lir:?} at K={k} (bmi1={use_bmi1}) emits {len} bytes"
                    );
                }
            }
        }
    }
}
