//! The W^X executable code buffer.
//!
//! Code is emitted straight into its final pages. A [`Reservation`] is
//! an anonymous private mapping, `PROT_READ | PROT_WRITE`, sized to an
//! upper bound on the code; the lowering layer writes instructions into
//! it, and [`Reservation::seal`] unmaps the untouched tail and flips the
//! rest to `PROT_READ | PROT_EXEC`, yielding an [`ExecBuf`]. The pages
//! are never writable and executable at the same time, and no heap copy
//! of the code ever exists. A reservation that is dropped unsealed — an
//! emission that failed half way, a refused `mprotect` — unmaps itself,
//! so every error path releases the memory. An [`ExecBuf`] is unmapped
//! on drop too, when the last simulator holding its
//! [`crate::jit::JitProgram`] goes away.
//!
//! The workspace builds offline with no `libc` crate, so on
//! x86-64 Linux the three required syscalls (`mmap`, `mprotect`,
//! `munmap`) are issued directly via inline assembly. On any other
//! target the constructor returns [`MapError::Unsupported`] and the
//! JIT layer falls back to the interpreter.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Mapping-layer failures. All of them downgrade to interpreter
/// fallback; none abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// Not an x86-64 Linux host — no syscall shims for this target.
    Unsupported,
    /// `mmap` failed (negated errno).
    Map(i32),
    /// `mprotect` to read+execute failed (negated errno).
    Protect(i32),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Unsupported => write!(f, "executable mappings unsupported on this target"),
            MapError::Map(e) => write!(f, "mmap failed (errno {e})"),
            MapError::Protect(e) => write!(f, "mprotect failed (errno {e})"),
        }
    }
}

/// Page granularity of the mappings.
const PAGE: usize = 4096;

/// Bytes currently mapped by live [`Reservation`]s and [`ExecBuf`]s.
static MAPPED: AtomicUsize = AtomicUsize::new(0);

/// Bytes of code memory currently mapped process-wide (page-rounded):
/// every live reservation and executable buffer. Returns to its earlier
/// value once the code's last user drops, and never moves across a
/// failed emission.
pub fn mapped_bytes() -> usize {
    MAPPED.load(Relaxed)
}

/// A fresh read+write mapping that machine code is emitted into.
/// Unmapped on drop unless [`Reservation::seal`] turns it into an
/// [`ExecBuf`].
#[derive(Debug)]
pub struct Reservation {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is owned exclusively by this value; writes go
// through `&mut self` only.
unsafe impl Send for Reservation {}

impl Reservation {
    /// Maps at least `len` bytes (page-rounded) read+write. Untouched
    /// pages cost address space only, so an upper bound is cheap.
    pub fn new(len: usize) -> Result<Reservation, MapError> {
        if let Some(errno) = crate::failpoints::fire("jit::map") {
            // Chaos: refuse the mapping as the kernel would. The `@`
            // argument is the errno (0 defaults to ENOMEM), so schedules
            // can simulate memory pressure or a W^X lockdown (EACCES).
            return Err(MapError::Map(if errno == 0 { 12 } else { errno as i32 }));
        }
        let len = len.max(1).div_ceil(PAGE) * PAGE;
        let ptr = sys::map_rw(len)?;
        MAPPED.fetch_add(len, Relaxed);
        Ok(Reservation { ptr, len })
    }

    /// The writable bytes.
    pub fn bytes(&mut self) -> &mut [u8] {
        // SAFETY: ptr..ptr+len is this reservation's own RW mapping,
        // borrowed exclusively through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Unmaps every page past the first `used` bytes and makes the rest
    /// read+execute. On a refused `mprotect` the whole reservation is
    /// unmapped (by its drop) and the error returned.
    ///
    /// # Panics
    ///
    /// Panics if `used` exceeds the reservation.
    pub fn seal(mut self, used: usize) -> Result<ExecBuf, MapError> {
        assert!(
            used <= self.len,
            "sealing {used} bytes of a {}-byte reservation",
            self.len
        );
        let keep = used.max(1).div_ceil(PAGE) * PAGE;
        if keep < self.len {
            // SAFETY: the tail pages belong to this reservation and
            // nothing references them.
            sys::unmap(unsafe { self.ptr.add(keep) }, self.len - keep);
            MAPPED.fetch_sub(self.len - keep, Relaxed);
            self.len = keep;
        }
        if let Some(errno) = crate::failpoints::fire("jit::protect") {
            // Chaos: a W^X policy refusing the flip (0 defaults to EACCES).
            return Err(MapError::Protect(if errno == 0 {
                13
            } else {
                errno as i32
            }));
        }
        sys::protect_rx(self.ptr, self.len)?;
        let buf = ExecBuf {
            ptr: self.ptr,
            len: self.len,
        };
        std::mem::forget(self);
        Ok(buf)
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
        MAPPED.fetch_sub(self.len, Relaxed);
    }
}

/// One read+execute mapping holding finalized machine code.
#[derive(Debug)]
pub struct ExecBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is immutable (R+X) after construction and owned
// exclusively by this value; raw-pointer aliasing is read/execute only.
unsafe impl Send for ExecBuf {}
unsafe impl Sync for ExecBuf {}

impl ExecBuf {
    /// Maps a copy of `code` into fresh executable pages (W^X: written
    /// while RW, executed only after the flip to RX). The JIT emits in
    /// place through a [`Reservation`] instead; this is for code that
    /// already exists as bytes.
    pub fn new(code: &[u8]) -> Result<ExecBuf, MapError> {
        let mut res = Reservation::new(code.len())?;
        res.bytes()[..code.len()].copy_from_slice(code);
        res.seal(code.len())
    }

    /// Pointer to the code byte at `offset`. The caller is responsible
    /// for only calling into offsets that are genuine instruction
    /// starts emitted by the lowering layer.
    pub fn entry(&self, offset: usize) -> *const u8 {
        assert!(
            offset < self.len,
            "entry offset {offset} outside code ({} bytes)",
            self.len
        );
        // SAFETY: offset is in-bounds for the mapping.
        unsafe { self.ptr.add(offset) }
    }

    /// Size of the mapping in bytes (page-rounded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// A mapping is never empty — kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for ExecBuf {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
        MAPPED.fetch_sub(self.len, Relaxed);
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use super::MapError;

    const SYS_MMAP: usize = 9;
    const SYS_MPROTECT: usize = 10;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const PROT_WRITE: usize = 2;
    const PROT_EXEC: usize = 4;
    const MAP_PRIVATE: usize = 2;
    const MAP_ANONYMOUS: usize = 0x20;

    /// Raw x86-64 Linux syscall. The kernel clobbers `rcx`/`r11`.
    unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    fn errno(ret: isize) -> Option<i32> {
        // Linux returns -errno in [-4095, -1] on failure.
        if (-4095..0).contains(&ret) {
            Some(-ret as i32)
        } else {
            None
        }
    }

    /// A fresh anonymous private read+write mapping of `len` bytes
    /// (a page multiple).
    pub(super) fn map_rw(len: usize) -> Result<*mut u8, MapError> {
        // SAFETY: anonymous private mapping of a fresh region; no
        // existing memory is touched.
        let ret = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                usize::MAX, // fd = -1
                0,
            )
        };
        match errno(ret) {
            Some(e) => Err(MapError::Map(e)),
            None => Ok(ret as *mut u8),
        }
    }

    /// Flips `ptr..ptr+len` (one of our own mappings) to read+execute.
    pub(super) fn protect_rx(ptr: *mut u8, len: usize) -> Result<(), MapError> {
        // SAFETY: changes the protection of our own mapping only.
        let ret = unsafe {
            syscall6(
                SYS_MPROTECT,
                ptr as usize,
                len,
                PROT_READ | PROT_EXEC,
                0,
                0,
                0,
            )
        };
        match errno(ret) {
            Some(e) => Err(MapError::Protect(e)),
            None => Ok(()),
        }
    }

    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: unmaps (part of) a mapping created by `map_rw`;
        // failure (impossible for a valid mapping) leaks, which is safe.
        unsafe { syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0) };
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sys {
    use super::MapError;

    pub(super) fn map_rw(_len: usize) -> Result<*mut u8, MapError> {
        Err(MapError::Unsupported)
    }

    pub(super) fn protect_rx(_ptr: *mut u8, _len: usize) -> Result<(), MapError> {
        Err(MapError::Unsupported)
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn maps_and_executes_a_trivial_function() {
        // mov rax, rdi ; ret — the sysv64 identity function.
        let code = [0x48, 0x89, 0xf8, 0xc3];
        let buf = ExecBuf::new(&code).expect("mmap");
        let f: unsafe extern "sysv64" fn(u64) -> u64 =
            // SAFETY: entry(0) points at the code above.
            unsafe { std::mem::transmute(buf.entry(0)) };
        // SAFETY: valid straight-line sysv64 function.
        assert_eq!(unsafe { f(0xdead_beef) }, 0xdead_beef);
        assert_eq!(unsafe { f(u64::MAX) }, u64::MAX);
    }

    #[test]
    fn seal_keeps_only_the_used_pages() {
        let mut res = Reservation::new(3 * PAGE).expect("mmap");
        assert_eq!(res.bytes().len(), 3 * PAGE);
        res.bytes()[0] = 0xc3; // ret
        let buf = res.seal(1).expect("mprotect");
        assert_eq!(buf.len(), PAGE, "the two untouched pages are unmapped");
        let f: unsafe extern "sysv64" fn() =
            // SAFETY: entry(0) is the `ret` written above.
            unsafe { std::mem::transmute(buf.entry(0)) };
        // SAFETY: a bare `ret` is a valid sysv64 function.
        unsafe { f() };
    }
}
