//! `mem_uniform`, `mem_scan` and `file_wal`: block requests against an
//! in-process `Oram`, one caller waiting for each reply.

use freecursive::{Durability, Oram, OramBuilder, StorageKind};

use std::time::Instant;

use crate::clock::seconds_at_reference;
use crate::layers::{measure_unit_costs, put_shared_layers, Metrics, Traced};
use crate::stack::{
    block_builder, build_plain, build_traced, call_oram, BlockDriver, Scratch, Tally,
};
use crate::stats::{closed_loop, Phase};
use crate::trace::{self, Layer};
use crate::workload::{warmup_ops, AddrPattern, Workload, WAL_BATCH};
use crate::{put_end_to_end, Outcome, RunConfig, SETUP_REPEATS, TRACED_SHARE};

fn pattern(workload: Workload) -> AddrPattern {
    match workload {
        Workload::MemScan => AddrPattern::Scan,
        _ => AddrPattern::Uniform,
    }
}

/// The builder of `workload`; a file-backed tree lives in `scratch`.
fn builder_for(workload: Workload, scratch: &Scratch) -> OramBuilder {
    match workload {
        Workload::FileWal => block_builder()
            .storage(StorageKind::File {
                dir: scratch.path().to_path_buf(),
            })
            .durability(Durability::Batch(WAL_BATCH)),
        _ => block_builder(),
    }
}

/// Warm-up then the timed closed loop over one stack.
fn warm(oram: &mut impl Oram, driver: &mut BlockDriver, warmup: u64) {
    for i in 0..warmup {
        driver.step(i, &mut |request| call_oram(oram, request));
    }
    oram.reset_stats();
}

fn timed(
    workload: Workload,
    oram: &mut impl Oram,
    driver: &mut BlockDriver,
    first: u64,
    count: u64,
) -> Phase {
    closed_loop(first, count, workload.follows_core_clock(), |i| {
        driver.step(i, &mut |request| call_oram(oram, request))
    })
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let workload = config.workload;
    let timed_ops = workload.timed_ops(config.seconds);
    let warmup = warmup_ops(timed_ops);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Every stack has a scratch directory of its own, deleted with it: the
    // dirty pages of a tree file left behind would be written back while the
    // next stack is measured, and its `fdatasync`s would wait for them.
    if !config.trace {
        let mut setups = Vec::new();
        let mut stack = None;
        for _ in 0..SETUP_REPEATS {
            drop(stack.take());
            let start = Instant::now();
            let scratch = Scratch::new()?;
            let mut oram = build_plain(&builder_for(workload, &scratch))?;
            let mut driver = BlockDriver::new(pattern(workload), config.seed);
            warm(&mut oram, &mut driver, warmup);
            setups.push(seconds_at_reference(start, workload.follows_core_clock()));
            tally.add(std::mem::take(&mut driver.tally));
            // In drop order: the store closes its files before they go.
            stack = Some((oram, driver, scratch));
        }
        let (mut oram, mut driver, _scratch) = stack.expect("at least one set-up");
        let phase = timed(workload, &mut oram, &mut driver, warmup, timed_ops);
        tally.add(driver.tally);
        let bytes_per_req = oram.stats().bytes_per_request().unwrap_or(0.0);
        put_end_to_end(&mut metrics, &setups, &phase, bytes_per_req);
        return Ok(Outcome { tally, metrics });
    }

    // Reference phase: the same requests on the plain stack, for the
    // overhead of tracing.
    let traced_ops = (timed_ops as f64 * TRACED_SHARE) as u64;
    let reference_rate = {
        let scratch = Scratch::new()?;
        let mut oram = build_plain(&builder_for(workload, &scratch))?;
        let mut driver = BlockDriver::new(pattern(workload), config.seed);
        warm(&mut oram, &mut driver, warmup);
        let phase = timed(workload, &mut oram, &mut driver, warmup, traced_ops);
        tally.add(driver.tally);
        drop(oram);
        phase.rate
    };

    let scratch = Scratch::new()?;
    let mut oram = build_traced(&builder_for(workload, &scratch))?;
    let mut driver = BlockDriver::new(pattern(workload), config.seed);
    trace::reserve(8 * (warmup + traced_ops) as usize);
    warm(&mut oram, &mut driver, warmup);
    let wal_start = oram.wal_seq();
    let phase = timed(workload, &mut oram, &mut driver, warmup, traced_ops);
    tally.add(driver.tally);
    let threads = trace::collect(config.spans_out.as_deref())?;

    let params = *oram.params();
    let stats = oram.stats().clone();
    let traced = Traced {
        stats: &stats,
        params: &params,
        resident_bytes: oram.resident_bytes(),
        wal_seq: (workload == Workload::FileWal).then(|| (wal_start, oram.wal_seq())),
        threads: &threads,
        window: trace::ns_of(phase.started)..u64::MAX,
        root: Layer::Frontend,
        ops: traced_ops,
        ns_per_op: phase.wall_ns_per_op(),
        overhead_frac: 1.0 - phase.rate / reference_rate,
    };
    drop(oram);
    drop(scratch);
    let costs = measure_unit_costs(&params, &Scratch::new()?)?;
    put_shared_layers(&mut metrics, &traced, &costs);
    Ok(Outcome { tally, metrics })
}
