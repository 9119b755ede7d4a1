//! ISA-agnostic machine-code emission state: a code buffer, label
//! offsets, and pending fixups.
//!
//! [`EmitState`] knows nothing about x86 — it hands out byte-append
//! primitives plus label/fixup bookkeeping, and the ISA layer
//! ([`crate::jit::x86`]) builds instruction encodings on top. It writes
//! into a caller-provided byte buffer — in production the read+write
//! [`crate::jit::exec::Reservation`] the code will execute from, so
//! emission never builds a heap copy. Labels are bound to code offsets
//! as emission reaches them; references to not-yet-bound labels are
//! recorded as [`PendingFixup`]s and patched in
//! [`EmitState::finalize`]. The shape (offset vector with an `UNKNOWN`
//! sentinel, a pending-fixup list drained at the end) follows the
//! classic single-pass assembler design — see `docs/jit.md` for the
//! normative contract.

/// Sentinel offset for a label that has been created but not yet bound.
const UNKNOWN_LABEL_OFFSET: u32 = u32::MAX;

/// A code-buffer label: an index into [`EmitState`]'s offset table.
/// Created with [`EmitState::new_label`], bound with
/// [`EmitState::bind_label`], referenced by fixup-emitting helpers in
/// the ISA layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(pub(crate) u32);

/// How a pending reference encodes the target once it is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixupKind {
    /// A 32-bit signed PC-relative displacement whose base is the end
    /// of the 4-byte field itself (x86 `call rel32` / `jmp rel32`).
    Rel32,
}

/// A reference to a label that was not bound at emission time.
#[derive(Debug, Clone, Copy)]
pub struct PendingFixup {
    /// Offset of the displacement field inside the code buffer.
    pub at: u32,
    /// The label whose final offset the field must encode.
    pub target: Label,
    /// Field encoding.
    pub kind: FixupKind,
}

/// Errors surfaced while building or finalizing a code buffer. All of
/// them are treated as "codegen unavailable" by the lowering layer —
/// the simulator falls back to the interpreter, it never aborts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The code buffer outgrew the configured cap
    /// ([`crate::jit::JitOptions::max_code_bytes`]).
    CodeTooLarge { len: usize, cap: usize },
    /// `finalize` found a fixup whose target label was never bound.
    UnboundLabel(u32),
    /// A PC-relative displacement did not fit its 32-bit field.
    RelocOutOfRange { at: u32 },
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::CodeTooLarge { len, cap } => {
                write!(
                    f,
                    "emitted code ({len} bytes) exceeds the cap ({cap} bytes)"
                )
            }
            EmitError::UnboundLabel(l) => write!(f, "label {l} referenced but never bound"),
            EmitError::RelocOutOfRange { at } => {
                write!(f, "rel32 fixup at offset {at} out of range")
            }
        }
    }
}

/// The emission state: a code buffer plus label/fixup bookkeeping.
#[derive(Debug)]
pub struct EmitState<'a> {
    code: &'a mut [u8],
    len: usize,
    label_offsets: Vec<u32>,
    pending_fixups: Vec<PendingFixup>,
    /// Hard cap on the code length; appends past it (or past the end of
    /// the buffer) report [`EmitError::CodeTooLarge`].
    cap: usize,
    /// Length the first rejected append would have reached.
    overflow: Option<usize>,
}

impl<'a> EmitState<'a> {
    /// Fresh state writing into `code`, capped at `cap` bytes
    /// (`usize::MAX` for none; the buffer's length bounds it anyway).
    pub fn new(code: &'a mut [u8], cap: usize) -> Self {
        EmitState {
            code,
            len: 0,
            label_offsets: Vec::new(),
            pending_fixups: Vec::new(),
            cap,
            overflow: None,
        }
    }

    /// Current end-of-code offset — where the next byte will land.
    pub fn offset(&self) -> u32 {
        self.len as u32
    }

    /// Number of bytes emitted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append raw bytes. Overflow past the cap or the buffer is recorded
    /// and reported by [`EmitState::check`] / [`EmitState::finalize`] —
    /// per-byte `Result`s would bloat every encoder helper for an error
    /// that terminates the whole build anyway.
    pub fn emit(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if self.overflow.is_some() || end > self.cap.min(self.code.len()) {
            self.overflow.get_or_insert(end);
            return;
        }
        self.code[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// Append a single byte.
    pub fn emit_u8(&mut self, b: u8) {
        self.emit(&[b]);
    }

    /// Append a little-endian 32-bit value.
    pub fn emit_u32(&mut self, v: u32) {
        self.emit(&v.to_le_bytes());
    }

    /// Fails once an append has been rejected, so a lowering loop can
    /// stop at the first overflow instead of running to the end.
    pub fn check(&self) -> Result<(), EmitError> {
        match self.overflow {
            Some(len) => Err(EmitError::CodeTooLarge { len, cap: self.cap }),
            None => Ok(()),
        }
    }

    /// Create a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.label_offsets.len() as u32);
        self.label_offsets.push(UNKNOWN_LABEL_OFFSET);
        l
    }

    /// Bind `label` to the current offset. Binding twice is a logic
    /// error in the lowering layer and panics.
    pub fn bind_label(&mut self, label: Label) {
        let offset = self.offset();
        let slot = &mut self.label_offsets[label.0 as usize];
        assert_eq!(*slot, UNKNOWN_LABEL_OFFSET, "label {} bound twice", label.0);
        *slot = offset;
    }

    /// Offset a label was bound to, if it has been bound.
    pub fn label_offset(&self, label: Label) -> Option<u32> {
        match self.label_offsets[label.0 as usize] {
            UNKNOWN_LABEL_OFFSET => None,
            off => Some(off),
        }
    }

    /// Record that the `kind`-shaped field at `at` must encode
    /// `target`'s final offset; patched during [`EmitState::finalize`].
    pub fn add_fixup(&mut self, at: u32, target: Label, kind: FixupKind) {
        self.pending_fixups.push(PendingFixup { at, target, kind });
    }

    /// Patch every pending fixup and return the finished code length.
    pub fn finalize(self) -> Result<usize, EmitError> {
        self.check()?;
        for fix in &self.pending_fixups {
            let target = self.label_offsets[fix.target.0 as usize];
            if target == UNKNOWN_LABEL_OFFSET {
                return Err(EmitError::UnboundLabel(fix.target.0));
            }
            match fix.kind {
                FixupKind::Rel32 => {
                    // rel32 is relative to the *end* of the 4-byte field.
                    let base = i64::from(fix.at) + 4;
                    let rel = i64::from(target) - base;
                    let rel32 = i32::try_from(rel)
                        .map_err(|_| EmitError::RelocOutOfRange { at: fix.at })?;
                    let at = fix.at as usize;
                    self.code[at..at + 4].copy_from_slice(&rel32.to_le_bytes());
                }
            }
        }
        Ok(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_rel32_fixup_is_patched() {
        let mut buf = [0u8; 16];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        let l = e.new_label();
        e.emit_u8(0xe8); // call rel32
        let at = e.offset();
        e.emit_u32(0); // placeholder
        e.add_fixup(at, l, FixupKind::Rel32);
        e.emit_u8(0xc3); // ret
        e.bind_label(l); // target = offset 6
        let n = e.finalize().unwrap();
        // rel32 = target(6) - (at(1) + 4) = 1
        assert_eq!(buf[..n], [0xe8, 1, 0, 0, 0, 0xc3]);
    }

    #[test]
    fn backward_rel32_fixup_is_negative() {
        let mut buf = [0u8; 16];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        let l = e.new_label();
        e.bind_label(l); // target = 0
        e.emit_u8(0xe8);
        let at = e.offset();
        e.emit_u32(0);
        e.add_fixup(at, l, FixupKind::Rel32);
        e.finalize().unwrap();
        assert_eq!(buf[1..5], (-5i32).to_le_bytes());
    }

    #[test]
    fn unbound_label_is_reported() {
        let mut buf = [0u8; 16];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        let l = e.new_label();
        e.emit_u8(0xe8);
        let at = e.offset();
        e.emit_u32(0);
        e.add_fixup(at, l, FixupKind::Rel32);
        assert_eq!(e.finalize(), Err(EmitError::UnboundLabel(0)));
    }

    #[test]
    fn cap_overflow_is_reported_once_at_finalize() {
        let mut buf = [0u8; 16];
        let mut e = EmitState::new(&mut buf, 4);
        e.emit(&[0; 3]);
        assert_eq!(e.check(), Ok(()));
        e.emit(&[0; 3]); // crosses the cap — dropped, flagged
        e.emit(&[0; 1]); // would fit, but emission already failed
        assert_eq!(e.len(), 3);
        assert_eq!(e.check(), Err(EmitError::CodeTooLarge { len: 6, cap: 4 }));
        assert!(matches!(
            e.finalize(),
            Err(EmitError::CodeTooLarge { cap: 4, .. })
        ));
    }

    #[test]
    fn buffer_end_bounds_emission_like_the_cap() {
        let mut buf = [0u8; 2];
        let mut e = EmitState::new(&mut buf, usize::MAX);
        e.emit(&[1, 2, 3]);
        assert!(matches!(
            e.check(),
            Err(EmitError::CodeTooLarge { len: 3, .. })
        ));
    }
}
