//! `perfbench calibrate`: a fixed reference kernel, timed next to every
//! repetition so that `run.py` can rescale the repetition's time to a
//! reference host speed.
//!
//! On a shared host the speed of the same binary drifts by up to 1.6x
//! over tens of seconds, as neighbours load the cores and caches. The
//! kernel is a gate-netlist-like sweep (dependent loads from a 128 KiB
//! value array plus bitwise ops), the same mix as the simulator's inner
//! loop, so its time follows that drift: on a 2-vCPU Xeon host, a 64-lane
//! core's run time divided by the kernel's had a quarter of the raw
//! time's spread. The kernel uses none of the repository's code, so no
//! change to the program moves it.

use crate::{splitmix, Json};
use std::hint::black_box;
use std::time::Instant;

const GATES: u32 = 16_384;
const INPUTS: u32 = 64;
const SWEEPS: usize = 300;

pub fn run() -> Result<String, String> {
    let mut s = 7;
    let ops: Vec<(u8, u32, u32)> = (0..GATES)
        .map(|i| {
            let r = splitmix(&mut s);
            let fanin = u64::from(INPUTS + i);
            ((r % 4) as u8, ((r >> 8) % fanin) as u32, ((r >> 32) % fanin) as u32)
        })
        .collect();
    let mut values = vec![0u64; (INPUTS + GATES) as usize];
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for v in &mut values[..INPUTS as usize] {
            *v = splitmix(&mut s);
        }
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            let (x, y) = (values[a as usize], values[b as usize]);
            values[(INPUTS as usize) + i] = match op {
                0 => x & y,
                1 => x | y,
                2 => x ^ y,
                _ => !(x & y),
            };
        }
        black_box(&values);
    }
    Ok(Json::default()
        .num("cal_s", t.elapsed().as_secs_f64())
        .finish())
}
