//! Minimal x86-64 instruction encoder over [`EmitState`].
//!
//! Only the handful of encodings the netlist kernels need: 64-bit
//! `mov`/`and`/`or`/`xor`/`add` in register↔memory forms with 32-bit
//! displacements, `not`, `popcnt`, `mov reg, imm32` (sign-extended),
//! `call rel32`, `ret`, and the BMI1 VEX-encoded `andn`. Everything is
//! REX.W (64-bit operand size); memory operands are always
//! `[base + disp32]` with a fixed `mod=10` ModRM — slightly larger
//! encodings than minimal, but uniform, and none of our base registers
//! (`rdi`/`rsi`/`rdx`/`rcx`/`r8`) ever needs a SIB byte. (`rsp`/`r12`
//! would; they are deliberately absent from [`Reg`].)
//!
//! Byte-level checks live in the tests at the bottom; the systemic
//! check is differential — every property test compares JIT-evaluated
//! sweeps against the interpreter bit-for-bit.

use super::emit::{EmitState, FixupKind, Label};

/// The registers the kernels use. Numeric values are the hardware
/// encodings; bit 3 selects the REX extension bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Reg {
    /// Primary value scratch.
    Rax = 0,
    /// 4th argument: `toggles` base pointer (sysv64).
    Rcx = 1,
    /// 3rd argument: `ffs` base pointer.
    Rdx = 2,
    /// 2nd argument: `inputs` base pointer.
    Rsi = 6,
    /// 1st argument: `values` base pointer.
    Rdi = 7,
    /// 5th argument: `masks` base pointer.
    R8 = 8,
    /// Diff/popcount scratch.
    R9 = 9,
    /// Secondary value scratch (mux select, inverted operands).
    R10 = 10,
    /// Per-op toggle accumulator for multi-word lane blocks.
    R11 = 11,
}

impl Reg {
    fn low3(self) -> u8 {
        self as u8 & 0b111
    }
    fn ext(self) -> u8 {
        (self as u8 >> 3) & 1
    }
}

/// Two-operand ALU ops in their `r64, r/m64` opcode form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alu {
    And,
    Or,
    Xor,
    Add,
}

impl Alu {
    /// Opcode for `op r64, r/m64` (register destination).
    fn rm_opcode(self) -> u8 {
        match self {
            Alu::And => 0x23,
            Alu::Or => 0x0b,
            Alu::Xor => 0x33,
            Alu::Add => 0x03,
        }
    }
    /// Opcode for `op r/m64, r64` (memory destination).
    fn mr_opcode(self) -> u8 {
        match self {
            Alu::And => 0x21,
            Alu::Or => 0x09,
            Alu::Xor => 0x31,
            Alu::Add => 0x01,
        }
    }
}

/// REX prefix: W=1 (64-bit), R extends ModRM.reg, B extends ModRM.rm.
fn rex_w(reg: Reg, rm: Reg) -> u8 {
    0x48 | (reg.ext() << 2) | rm.ext()
}

/// ModRM selecting `[rm + disp32]`.
fn modrm_disp32(reg: Reg, rm: Reg) -> u8 {
    0b10 << 6 | reg.low3() << 3 | rm.low3()
}

/// ModRM selecting a direct register operand.
fn modrm_direct(reg: Reg, rm: Reg) -> u8 {
    0b11 << 6 | reg.low3() << 3 | rm.low3()
}

/// `mov dst, qword [base + disp]`
pub fn mov_reg_mem(e: &mut EmitState, dst: Reg, base: Reg, disp: i32) {
    e.emit(&[rex_w(dst, base), 0x8b, modrm_disp32(dst, base)]);
    e.emit_u32(disp as u32);
}

/// `mov qword [base + disp], src`
pub fn mov_mem_reg(e: &mut EmitState, base: Reg, disp: i32, src: Reg) {
    e.emit(&[rex_w(src, base), 0x89, modrm_disp32(src, base)]);
    e.emit_u32(disp as u32);
}

/// `op dst, qword [base + disp]`
pub fn alu_reg_mem(e: &mut EmitState, op: Alu, dst: Reg, base: Reg, disp: i32) {
    e.emit(&[rex_w(dst, base), op.rm_opcode(), modrm_disp32(dst, base)]);
    e.emit_u32(disp as u32);
}

/// `op dst, src` (register-register)
pub fn alu_reg_reg(e: &mut EmitState, op: Alu, dst: Reg, src: Reg) {
    e.emit(&[rex_w(dst, src), op.rm_opcode(), modrm_direct(dst, src)]);
}

/// `op qword [base + disp], src` — the read-modify-write form; the
/// toggle accumulation `add [toggles + 8*dst], r9` uses this.
pub fn alu_mem_reg(e: &mut EmitState, op: Alu, base: Reg, disp: i32, src: Reg) {
    e.emit(&[rex_w(src, base), op.mr_opcode(), modrm_disp32(src, base)]);
    e.emit_u32(disp as u32);
}

/// `mov dst, src` (register-register)
pub fn mov_reg_reg(e: &mut EmitState, dst: Reg, src: Reg) {
    e.emit(&[rex_w(src, dst), 0x89, modrm_direct(src, dst)]);
}

/// `mov dst, imm32` sign-extended to 64 bits — fills a register with
/// all-zeros (`0`) or all-ones (`-1`) for constant-folded ops.
pub fn mov_reg_imm32(e: &mut EmitState, dst: Reg, imm: i32) {
    e.emit(&[rex_w(Reg::Rax, dst), 0xc7, modrm_direct(Reg::Rax, dst)]);
    e.emit_u32(imm as u32);
}

/// `not dst` (one's complement, 64-bit)
pub fn not_reg(e: &mut EmitState, dst: Reg) {
    // F7 /2
    e.emit(&[rex_w(Reg::Rdx, dst), 0xf7, modrm_direct(Reg::Rdx, dst)]);
}

/// `popcnt dst, src` — requires the `popcnt` CPU feature, which
/// [`crate::jit::host_supported`] gates on.
pub fn popcnt_reg_reg(e: &mut EmitState, dst: Reg, src: Reg) {
    e.emit(&[0xf3, rex_w(dst, src), 0x0f, 0xb8, modrm_direct(dst, src)]);
}

/// BMI1 `andn dst, src1, qword [base + disp]`: `dst = !src1 & mem`.
/// Callers must gate on runtime BMI1 detection.
pub fn andn_reg_mem(e: &mut EmitState, dst: Reg, src1: Reg, base: Reg, disp: i32) {
    // VEX three-byte form: C4, RXB.m-mmmm, W.vvvv.L.pp, opcode F2.
    let byte1 = ((!dst.ext() & 1) << 7) | (1 << 6) | ((!base.ext() & 1) << 5) | 0b00010;
    let byte2 = (1 << 7) | (((!(src1 as u8)) & 0xf) << 3);
    e.emit(&[0xc4, byte1, byte2, 0xf2, modrm_disp32(dst, base)]);
    e.emit_u32(disp as u32);
}

/// `call rel32` to a (possibly not-yet-bound) label.
pub fn call_label(e: &mut EmitState, target: Label) {
    e.emit_u8(0xe8);
    let at = e.offset();
    e.emit_u32(0);
    e.add_fixup(at, target, FixupKind::Rel32);
}

/// `ret`
pub fn ret(e: &mut EmitState) {
    e.emit_u8(0xc3);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc(f: impl FnOnce(&mut EmitState)) -> Vec<u8> {
        let mut buf = [0u8; 32];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        f(&mut e);
        let n = e.finalize().unwrap();
        buf[..n].to_vec()
    }

    #[test]
    fn known_encodings() {
        // Cross-checked against a reference assembler.
        assert_eq!(
            enc(|e| mov_reg_mem(e, Reg::Rax, Reg::Rdi, 0x100)),
            vec![0x48, 0x8b, 0x87, 0x00, 0x01, 0x00, 0x00],
        );
        assert_eq!(
            enc(|e| mov_reg_mem(e, Reg::R9, Reg::R8, 8)),
            vec![0x4d, 0x8b, 0x88, 0x08, 0x00, 0x00, 0x00],
        );
        assert_eq!(
            enc(|e| mov_mem_reg(e, Reg::Rdi, 0x18, Reg::Rax)),
            vec![0x48, 0x89, 0x87, 0x18, 0x00, 0x00, 0x00],
        );
        assert_eq!(
            enc(|e| alu_reg_mem(e, Alu::And, Reg::Rax, Reg::Rdi, 0x20)),
            vec![0x48, 0x23, 0x87, 0x20, 0x00, 0x00, 0x00],
        );
        assert_eq!(
            enc(|e| alu_mem_reg(e, Alu::Add, Reg::Rcx, 0x40, Reg::R9)),
            vec![0x4c, 0x01, 0x89, 0x40, 0x00, 0x00, 0x00],
        );
        assert_eq!(
            enc(|e| alu_reg_reg(e, Alu::Xor, Reg::R9, Reg::Rax)),
            vec![0x4c, 0x33, 0xc8]
        );
        assert_eq!(
            enc(|e| mov_reg_reg(e, Reg::Rax, Reg::R10)),
            vec![0x4c, 0x89, 0xd0]
        );
        assert_eq!(enc(|e| not_reg(e, Reg::Rax)), vec![0x48, 0xf7, 0xd0]);
        assert_eq!(enc(|e| not_reg(e, Reg::R10)), vec![0x49, 0xf7, 0xd2]);
        assert_eq!(
            enc(|e| popcnt_reg_reg(e, Reg::R9, Reg::R9)),
            vec![0xf3, 0x4d, 0x0f, 0xb8, 0xc9],
        );
        assert_eq!(
            enc(|e| mov_reg_imm32(e, Reg::Rax, -1)),
            vec![0x48, 0xc7, 0xc0, 0xff, 0xff, 0xff, 0xff],
        );
        // andn rax, r10, [rdi + 0x10]
        assert_eq!(
            enc(|e| andn_reg_mem(e, Reg::Rax, Reg::R10, Reg::Rdi, 0x10)),
            vec![0xc4, 0xe2, 0xa8, 0xf2, 0x87, 0x10, 0x00, 0x00, 0x00],
        );
        assert_eq!(enc(ret), vec![0xc3]);
    }

    #[test]
    fn call_to_bound_label_resolves() {
        let mut buf = [0u8; 16];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        let l = e.new_label();
        call_label(&mut e, l);
        ret(&mut e);
        e.bind_label(l);
        ret(&mut e);
        let n = e.finalize().unwrap();
        // call(5 bytes) + ret; target offset 6 → rel32 = 6 - 5 = 1.
        assert_eq!(buf[..n], [0xe8, 1, 0, 0, 0, 0xc3, 0xc3]);
    }
}
