//! `omap_ycsb_a`: Zipfian gets and inserts on an `ObliviousMap` over the
//! in-process stack, the one workload where the map layer and the batch
//! entry point (`access_batch_owned`) do work.

use std::time::Instant;

use freecursive::{FrontendStats, Oram};
use omap::{MapConfig, MapLayout, ObliviousMap};

use crate::clock::seconds_at_reference;
use crate::layers::{measure_unit_costs, put_shared_layers, Metrics, Traced};
use crate::stack::{build_plain, build_traced, builder, Scratch, Tally};
use crate::stats::{closed_loop, percentile, Phase};
use crate::trace::{self, Layer};
use crate::workload::{
    is_write, map_key, map_value, warmup_ops, MapOracle, ValueSource, Workload, Zipf,
    MAP_BLOCK_BYTES, MAP_CAPACITY, MAP_KEY_BYTES, MAP_PRELOAD, MAP_RECORD_BYTES, MAP_VALUE_MAX,
};
use crate::{put_end_to_end, Outcome, RunConfig, SETUP_REPEATS, TRACED_SHARE};

/// The map never waits: its timings are read at the reference clock.
const FOLLOWS_CLOCK: bool = true;

/// Keys the bucket-choice hash; fixed like the builder seed.
const HASH_SEED: [u8; 16] = *b"perf_stack-omap!";

fn layout() -> Result<MapLayout, String> {
    MapConfig::new(MAP_KEY_BYTES, MAP_VALUE_MAX, MAP_CAPACITY)
        .layout_for(MAP_BLOCK_BYTES)
        .map_err(|e| e.to_string())
}

fn map_over<O: Oram>(oram: O) -> Result<ObliviousMap<O>, String> {
    ObliviousMap::over(oram, layout()?, HASH_SEED).map_err(|e| e.to_string())
}

/// Generates map operation `i` (even: get, odd: insert, Zipfian key), times
/// it and checks the reply against the model.
struct MapDriver {
    seed: u64,
    zipf: Zipf,
    oracle: MapOracle,
    value: Vec<u8>,
    traced: bool,
    tally: Tally,
}

impl MapDriver {
    fn new(config: &RunConfig) -> Self {
        MapDriver {
            seed: config.seed,
            zipf: Zipf::new(MAP_PRELOAD),
            oracle: MapOracle::preloaded(config.seed, MAP_PRELOAD),
            value: vec![0; MAP_RECORD_BYTES],
            traced: config.trace,
            tally: Tally::default(),
        }
    }

    /// Inserts every key once, so that no later operation misses or runs
    /// the table out of room.
    fn preload<O: Oram>(&mut self, map: &mut ObliviousMap<O>) {
        for id in 0..MAP_PRELOAD {
            map_value(self.seed, ValueSource::Preload(id), &mut self.value);
            self.tally.attempted += 1;
            match map.insert(&map_key(id), &self.value) {
                Ok(None) => {}
                Ok(Some(_)) => self
                    .tally
                    .fail(&format!("preload key {id} was already present")),
                Err(e) => self.tally.fail(&e.to_string()),
            }
        }
    }

    fn step<O: Oram>(&mut self, i: u64, map: &mut ObliviousMap<O>) -> u64 {
        let key_id = self.zipf.key_id(self.seed, i);
        let key = map_key(key_id);
        self.tally.attempted += 1;
        if is_write(i) {
            map_value(self.seed, ValueSource::Op(i), &mut self.value);
            let start = Instant::now();
            let reply = if self.traced {
                trace::span(Layer::Map, || map.insert(&key, &self.value))
            } else {
                map.insert(&key, &self.value)
            };
            let ns = start.elapsed().as_nanos() as u64;
            match reply {
                Ok(Some(previous)) if previous == MAP_RECORD_BYTES as u64 => {
                    self.oracle.note_insert(key_id, i);
                }
                Ok(other) => self
                    .tally
                    .fail(&format!("insert {i} replaced {other:?}, not a record")),
                Err(e) => self.tally.fail(&e.to_string()),
            }
            ns
        } else {
            let start = Instant::now();
            let reply = if self.traced {
                trace::span(Layer::Map, || map.get(&key))
            } else {
                map.get(&key)
            };
            let ns = start.elapsed().as_nanos() as u64;
            match reply {
                Ok(value) if self.oracle.get_matches(key_id, value.as_deref()) => {}
                Ok(_) => self
                    .tally
                    .fail(&format!("get {i} of key {key_id} differs from the model")),
                Err(e) => self.tally.fail(&e.to_string()),
            }
            ns
        }
    }

    /// Preload and warm-up: everything before the first timed window.
    fn set_up<O: Oram>(&mut self, map: &mut ObliviousMap<O>, warmup: u64) {
        self.preload(map);
        for i in 0..warmup {
            self.step(i, map);
        }
        map.reset_stats();
    }

    fn timed<O: Oram>(&mut self, map: &mut ObliviousMap<O>, first: u64, count: u64) -> Phase {
        closed_loop(first, count, FOLLOWS_CLOCK, |i| self.step(i, map))
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let timed_ops = Workload::OmapYcsbA.timed_ops(config.seconds);
    let warmup = warmup_ops(timed_ops);
    let oram_builder = builder(layout()?.total_blocks(), MAP_BLOCK_BYTES);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // `reset_stats` on the `Oram` needs `&mut`, which the map only lends out
    // shared; the counters are therefore differenced around the timed phase.
    let since = |before: &FrontendStats, after: &FrontendStats| {
        let mut delta = FrontendStats::default();
        delta.apply_delta(before, after);
        delta
    };

    if !config.trace {
        let mut setups = Vec::new();
        let mut stack = None;
        for _ in 0..SETUP_REPEATS {
            drop(stack.take());
            let start = Instant::now();
            let mut map = map_over(build_plain(&oram_builder)?)?;
            let mut driver = MapDriver::new(config);
            driver.set_up(&mut map, warmup);
            setups.push(seconds_at_reference(start, FOLLOWS_CLOCK));
            tally.add(std::mem::take(&mut driver.tally));
            stack = Some((map, driver));
        }
        let (mut map, mut driver) = stack.expect("at least one set-up");
        let before = map.oram().stats().clone();
        let phase = driver.timed(&mut map, warmup, timed_ops);
        tally.add(driver.tally);
        let bytes_per_req = since(&before, map.oram().stats())
            .bytes_per_request()
            .unwrap_or(0.0);
        put_end_to_end(&mut metrics, &setups, &phase, bytes_per_req);
        return Ok(Outcome { tally, metrics });
    }

    let traced_ops = (timed_ops as f64 * TRACED_SHARE) as u64;
    let reference_rate = {
        let mut map = map_over(build_plain(&oram_builder)?)?;
        let mut driver = MapDriver::new(&config.untraced());
        driver.set_up(&mut map, warmup);
        let phase = driver.timed(&mut map, warmup, traced_ops);
        tally.add(driver.tally);
        phase.rate
    };

    let mut map = map_over(build_traced(&oram_builder)?)?;
    let mut driver = MapDriver::new(config);
    trace::reserve(40 * (MAP_PRELOAD + warmup + traced_ops) as usize);
    driver.set_up(&mut map, warmup);
    let before = map.oram().stats().clone();
    let phase = driver.timed(&mut map, warmup, traced_ops);
    tally.add(driver.tally);
    let threads = trace::collect(config.spans_out.as_deref())?;

    let stats = since(&before, map.oram().stats());
    let params = *map.oram().params();
    let window = trace::ns_of(phase.started)..u64::MAX;
    let traced = Traced {
        stats: &stats,
        params: &params,
        resident_bytes: map.oram().resident_bytes(),
        wal_seq: None,
        threads: &threads,
        window: window.clone(),
        root: Layer::Map,
        ops: traced_ops,
        ns_per_op: phase.wall_ns_per_op(),
        overhead_frac: 1.0 - phase.rate / reference_rate,
    };
    let scratch = Scratch::new()?;
    put_shared_layers(
        &mut metrics,
        &traced,
        &measure_unit_costs(&params, &scratch)?,
    );

    let ops = trace::totals(&threads, window, Layer::Map);
    metrics.put(
        "omap.oram_requests_per_op",
        map.stats().oram_requests as f64 / map.stats().ops.max(1) as f64,
    );
    metrics.put("omap.op_ns_p50", percentile(&ops.durs, 0.50));
    metrics.put("omap.op_ns_p99", percentile(&ops.durs, 0.99));
    // Equal by design: a gap between the two is a timing leak.
    let p50_of = |inserts: bool| {
        let mut lat: Vec<u64> = (warmup..)
            .zip(&phase.lat_ns)
            .filter(|(i, _)| is_write(*i) == inserts)
            .map(|(_, &ns)| ns)
            .collect();
        lat.sort_unstable();
        percentile(&lat, 0.50)
    };
    metrics.put("omap.get_ns_p50", p50_of(false));
    metrics.put("omap.insert_ns_p50", p50_of(true));
    metrics.put(
        "omap.self_ns_per_op",
        ops.self_ns as f64 / traced_ops as f64,
    );
    Ok(Outcome { tally, metrics })
}
