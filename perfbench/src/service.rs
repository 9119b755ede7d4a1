//! The `verify_service` workload: a closed loop of [`CLIENTS`] clients,
//! each on its own thread, issuing a YCSB-A 50/50 read/update mix.
//!
//! * A read verifies a library block whose netlist arrives as fresh
//!   content (a new `Arc` of a clone, as a request from outside would
//!   carry it): `functional_verify_arc` on one shard, on the caller's
//!   thread. Its program is already in the process-wide cache.
//! * An update compiles a never-seen mutant and runs four settles, whose
//!   outputs are checked against the interpreted `Sim` computed during
//!   set-up.
//!
//! Each client reads the blocks round-robin in a seeded order, so every
//! block is read at least once per `blocks` reads of each client. The
//! plan bounds the updates a client can send between two such reads,
//! which keeps the library's programs resident in the LRU cache however
//! the two clients interleave: the read/update split, cache hits, misses
//! and evictions are then exact counts for a given seed.

use crate::span::Tracer;
use crate::{cache_delta, derive, splitmix, Args, Json};
use hwlib::mutate::mutants_of;
use hwlib::verify::functional_verify_arc;
use hwlib::{ports, HwLibrary, InstrBlock};
use netlist::cache::DEFAULT_CAPACITY;
use netlist::{CompiledSim, Netlist, ProgramCache, ShardPolicy, Sim};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

pub const CLIENTS: usize = 2;
/// Ops per timed service repetition, split over the clients.
pub const SERVICE_OPS: usize = 4000;
const SETTLES: usize = 4;
const UPDATE_LANES: usize = 64;

#[derive(Clone, Copy)]
pub enum Op {
    Read(usize),
    Update(usize),
}

pub struct Update {
    pub netlist: Netlist,
    stimuli: [[u32; ports::INPUTS.len()]; SETTLES],
    expected: [u64; SETTLES],
}

pub struct Plan {
    pub clients: Vec<Vec<Op>>,
    pub updates: Vec<Update>,
}

fn digest(read: impl Fn(&str) -> u64) -> u64 {
    ports::OUTPUTS
        .iter()
        .fold(0u64, |h, (name, _)| h.rotate_left(13) ^ read(name))
}

/// The seeded op schedule for `ops` operations split over the clients,
/// with every update's mutant, stimuli and interpreted expected outputs.
pub fn plan(lib: &HwLibrary, seed: u64, ops: usize) -> Plan {
    let blocks = lib.len();
    let mut updates_total = 0usize;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let mut rng = derive(seed, 10 + c as u64);
        let mut order: Vec<usize> = (0..blocks).collect();
        for i in (1..blocks).rev() {
            order.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
        }
        let mut reads = 0;
        let mut list = Vec::new();
        // Updates between consecutive reads, for the residency bound.
        let mut gaps = vec![0usize];
        for _ in 0..ops / CLIENTS {
            if splitmix(&mut rng) >> 63 == 1 {
                list.push(Op::Update(updates_total));
                updates_total += 1;
                *gaps.last_mut().expect("non-empty") += 1;
            } else {
                list.push(Op::Read(order[reads % blocks]));
                reads += 1;
                gaps.push(0);
            }
        }
        let worst = gaps
            .windows(blocks.min(gaps.len()))
            .map(|w| w.iter().sum::<usize>())
            .max()
            .unwrap_or(0);
        assert!(
            CLIENTS * worst + blocks < DEFAULT_CAPACITY,
            "seed {seed}: {worst} updates between reads of one block could evict it"
        );
        clients.push(list);
    }

    let per_block = updates_total.div_ceil(blocks) + 1;
    let mut rng = derive(seed, 3);
    let mut pool: Vec<Netlist> = lib
        .iter()
        .flat_map(|b| mutants_of(b, per_block, derive(seed, 4)))
        .map(|m| m.netlist)
        .collect();
    assert!(pool.len() >= updates_total, "mutant enumeration exhausted");
    for i in (1..pool.len()).rev() {
        pool.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    pool.truncate(updates_total);
    let updates = pool
        .into_iter()
        .map(|netlist| {
            let mut stimuli = [[0u32; ports::INPUTS.len()]; SETTLES];
            let mut expected = [0u64; SETTLES];
            let mut sim = Sim::new(&netlist);
            for (s, row) in stimuli.iter_mut().enumerate() {
                for (v, (name, _)) in row.iter_mut().zip(ports::INPUTS) {
                    *v = splitmix(&mut rng) as u32;
                    sim.set_bus(name, *v);
                }
                sim.eval();
                expected[s] = digest(|p| sim.get_bus_u64(p));
            }
            Update {
                netlist,
                stimuli,
                expected,
            }
        })
        .collect();
    Plan { clients, updates }
}

/// A read: verify one library block presented as fresh content.
pub fn read_op(block: &InstrBlock, tr: &mut Tracer) -> bool {
    let netlist = tr.span("service.request", |_| Arc::new(block.netlist.clone()));
    tr.span("hwlib.verify", |_| {
        functional_verify_arc(block.mnemonic, netlist, ShardPolicy::single()).is_ok()
    })
}

/// An update: compile a never-seen mutant, settle it four times and
/// check every output against the interpreter.
pub fn update_op(u: &Update, tr: &mut Tracer) -> bool {
    let netlist = tr.span("service.request", |_| Arc::new(u.netlist.clone()));
    let mut sim = tr.span("netlist.compile", |_| {
        CompiledSim::with_lanes_arc(netlist, UPDATE_LANES)
    });
    let mut ok = true;
    for (row, want) in u.stimuli.iter().zip(u.expected) {
        let got = tr.span("sim.settle", |_| {
            for (v, (name, _)) in row.iter().zip(ports::INPUTS) {
                sim.set_bus(name, *v);
            }
            sim.eval();
            digest(|p| sim.get_bus_lane(p, 0))
        });
        ok &= got == want;
    }
    ok
}

/// Runs one client's ops and returns `(is_update, latency_us, ok)` each.
fn client(lib: &[&InstrBlock], plan: &Plan, ops: &[Op]) -> Vec<(bool, f64, bool)> {
    let mut tr = Tracer::new(false);
    ops.iter()
        .map(|&op| {
            let t = Instant::now();
            let ok = catch_unwind(AssertUnwindSafe(|| match op {
                Op::Read(b) => read_op(lib[b], &mut tr),
                Op::Update(u) => update_op(&plan.updates[u], &mut tr),
            }))
            .unwrap_or(false);
            (
                matches!(op, Op::Update(_)),
                t.elapsed().as_secs_f64() * 1e6,
                ok,
            )
        })
        .collect()
}

pub fn run(a: &Args) -> Result<String, String> {
    let t0 = Instant::now();
    let lib = HwLibrary::build_full();
    let plan = plan(&lib, a.seed, SERVICE_OPS);
    let blocks: Vec<&InstrBlock> = lib.iter().collect();
    // Warm-up: every block's program enters the cache, and every block
    // must verify before the clock starts.
    let mut warm = Tracer::new(false);
    if !blocks.iter().all(|b| read_op(b, &mut warm)) {
        return Err("a library block failed to verify during warm-up".into());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = ProgramCache::global().stats();
    let t = Instant::now();
    let results: Vec<Vec<(bool, f64, bool)>> = std::thread::scope(|s| {
        let (first, rest) = plan.clients.split_first().expect("at least one client");
        let handles: Vec<_> = rest
            .iter()
            .map(|ops| s.spawn(|| client(&blocks, &plan, ops)))
            .collect();
        let mut out = vec![client(&blocks, &plan, first)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        out
    });
    let run_s = t.elapsed().as_secs_f64();
    let after = ProgramCache::global().stats();

    let all: Vec<&(bool, f64, bool)> = results.iter().flatten().collect();
    let lat =
        |update: bool| -> Vec<f64> { all.iter().filter(|r| r.0 == update).map(|r| r.1).collect() };
    let (reads, updates) = (lat(false), lat(true));
    let failed = all.iter().filter(|r| !r.2).count() as u64;
    Ok(Json::default()
        .num("setup_s", setup_s)
        .num("run_s", run_s)
        .int("attempted", all.len() as u64)
        .int("failed", failed)
        .object(
            "counts",
            Json::default()
                .int("reads", reads.len() as u64)
                .int("updates", updates.len() as u64),
        )
        .object("cache", cache_delta(before, after))
        .list("read_us", &reads)
        .list("update_us", &updates)
        .finish())
}
