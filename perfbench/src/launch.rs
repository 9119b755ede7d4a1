//! `perfbench exec <program> [args...]`: the launcher every timed child
//! runs under.
//!
//! The program's stdout passes through unchanged; one more line follows
//! it, `{"code","wall_s","peak_rss_mb"}`. The peak resident set comes
//! from `getrusage(RUSAGE_CHILDREN)` in this process, not from the wait
//! status `run.py` sees: a child spawned with `vfork` records its
//! parent's high-water mark when it execs, so every child of the Python
//! driver would report at least the driver's own footprint. This
//! launcher's footprint is a few MB, below any workload's.

use crate::Json;
use std::process::Command;
use std::time::Instant;

/// Peak resident set, in KiB, of the largest waited-for child.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn children_maxrss_kib() -> Option<u64> {
    const SYS_GETRUSAGE: i64 = 98;
    const RUSAGE_CHILDREN: i64 = -1;
    // struct rusage: two timevals, then ru_maxrss, then 14 more longs.
    let mut usage = [0i64; 18];
    let ret: i64;
    // SAFETY: getrusage writes one struct rusage (18 longs on x86-64
    // Linux) to the buffer it is given, which is that size.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_GETRUSAGE => ret,
            in("rdi") RUSAGE_CHILDREN,
            in("rsi") usage.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then_some(usage[4] as u64)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn children_maxrss_kib() -> Option<u64> {
    None
}

pub fn run(argv: &[String]) -> Result<String, String> {
    let (program, args) = argv.split_first().ok_or("exec needs a program")?;
    let t = Instant::now();
    let status = Command::new(program)
        .args(args)
        .status()
        .map_err(|e| format!("starting {program}: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    let rss_mb = children_maxrss_kib().map_or(f64::NAN, |kib| kib as f64 / 1024.0);
    Ok(Json::default()
        .int("code", status.code().map_or(255, |c| c as u64))
        .num("wall_s", wall_s)
        .num("peak_rss_mb", rss_mb)
        .finish())
}
