//! The per-layer metrics every workload shares: counts from the stack's own
//! statistics, times from the spans, and estimated shares from the replayed
//! unit costs.

use std::ops::Range;

use freecursive::{FrontendStats, StorageKind};
use path_oram::storage::DEFAULT_CHECKPOINT_INTERVAL;
use path_oram::{OramParams, DEFAULT_MEMORY_BUDGET};

use crate::replay::{self, CryptoCost, HostFloors, PathCost, WalCost, WireCost};
use crate::stack::Scratch;
use crate::stats::percentile;
use crate::trace::{self, Layer, Span};
use crate::workload::WAL_BATCH;

/// Metric values by full name, in the order they were put.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} put twice");
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replayed unit costs and host floors, measured once per traced run.
pub struct UnitCosts {
    pub crypto: CryptoCost,
    pub mem: PathCost,
    pub file: PathCost,
    pub tiered: PathCost,
    pub wal: WalCost,
    pub wire: WireCost,
    pub host: HostFloors,
}

pub fn measure_unit_costs(params: &OramParams, scratch: &Scratch) -> Result<UnitCosts, String> {
    Ok(UnitCosts {
        crypto: replay::crypto(params),
        mem: replay::store(params, &StorageKind::Mem)?,
        file: replay::store(
            params,
            &StorageKind::File {
                dir: scratch.subdir("replay-file")?,
            },
        )?,
        tiered: replay::store(
            params,
            &StorageKind::Tiered {
                dir: scratch.subdir("replay-tiered")?,
                memory_budget: DEFAULT_MEMORY_BUDGET,
            },
        )?,
        wal: replay::wal(params, &scratch.subdir("replay-wal")?, WAL_BATCH)?,
        wire: replay::wire(params.block_bytes),
        host: replay::host_floors(scratch.path())?,
    })
}

/// One traced timed phase, as the shared layers saw it.
pub struct Traced<'a> {
    /// The stack's counters over the timed phase (reset at its start).
    pub stats: &'a FrontendStats,
    pub params: &'a OramParams,
    pub resident_bytes: u64,
    /// `Some((at start, at end))` of the WAL sequence number when the tree
    /// is file-backed and logged.
    pub wal_seq: Option<(u64, u64)>,
    pub threads: &'a [Vec<Span>],
    /// The timed phase, ns since the trace epoch.
    pub window: Range<u64>,
    /// The layer whose spans are the workload's top-level operations.
    pub root: Layer,
    /// Top-level operations of the timed phase.
    pub ops: u64,
    /// Request time: wall time per operation of the traced phase, ns.
    pub ns_per_op: f64,
    /// Share of the traced phase's time that tracing itself cost, from the
    /// same requests run untraced first.
    pub overhead_frac: f64,
}

pub fn put_shared_layers(m: &mut Metrics, t: &Traced, u: &UnitCosts) {
    let s = t.stats;
    let requests = s.frontend_requests as f64;
    let paths = s.backend.path_accesses as f64;
    let request_ns_total = t.ops as f64 * t.ns_per_op;

    let frontend = trace::totals(t.threads, t.window.clone(), Layer::Frontend);
    let backend = trace::totals(t.threads, t.window.clone(), Layer::Backend);
    let append = trace::totals(t.threads, t.window.clone(), Layer::Append);
    let root = trace::totals(t.threads, t.window.clone(), t.root);

    m.put("frontend.path_accesses_per_req", ratio(paths, requests));
    m.put(
        "frontend.posmap_bytes_frac",
        s.posmap_bandwidth_fraction().unwrap_or(0.0),
    );
    m.put(
        "frontend.group_remaps_per_kreq",
        ratio(s.group_remaps as f64 * 1e3, requests),
    );
    m.put("frontend.access_ns_p50", percentile(&frontend.durs, 0.50));
    m.put("frontend.access_ns_p99", percentile(&frontend.durs, 0.99));
    m.put(
        "frontend.busy_ns_per_req",
        ratio(frontend.busy_ns as f64, requests),
    );
    m.put(
        "frontend.self_ns_per_req",
        ratio(frontend.self_ns as f64, requests),
    );
    m.put(
        "frontend.integrity_violations",
        s.integrity_violations as f64,
    );

    let plb_lookups = (s.plb.hits + s.plb.misses) as f64;
    m.put("posmap.plb_hit_rate", ratio(s.plb.hits as f64, plb_lookups));
    m.put(
        "posmap.plb_evictions_per_req",
        ratio(s.plb.evictions as f64, requests),
    );

    // Estimated totals over the timed phase, ns: replayed unit cost × count.
    let buckets_per_path = f64::from(t.params.leaf_level() + 1);
    let ctr_ns_per_bucket = u.crypto.ctr_ns_per_path / buckets_per_path;
    let macs = (s.macs_verified + s.macs_computed) as f64;
    let ctr_est_ns =
        (s.backend.buckets_decrypted + s.backend.buckets_encrypted) as f64 * ctr_ns_per_bucket;
    let crypto_est_ns = ctr_est_ns + macs * u.crypto.mac_ns;
    let path_cost = if t.wal_seq.is_some() { &u.file } else { &u.mem };
    let store_est_ns = paths * (path_cost.read_ns + path_cost.write_ns);
    let (wal_records, checkpoints) = t.wal_seq.map_or((0, 0), |(start, end)| {
        (
            end - start,
            end / DEFAULT_CHECKPOINT_INTERVAL - start / DEFAULT_CHECKPOINT_INTERVAL,
        )
    });
    let wal_syncs = wal_records / u64::from(WAL_BATCH);
    let wal_est_ns = wal_records as f64 * u.wal.append_ns + wal_syncs as f64 * u.wal.sync_mean_ns();
    // magic + length + (seq + count + index and image per bucket) + checksum
    let wal_record_bytes =
        8.0 + 12.0 + buckets_per_path * (8 + t.params.bucket_bytes()) as f64 + 8.0;

    m.put("backend.access_ns_p50", percentile(&backend.durs, 0.50));
    m.put("backend.access_ns_p99", percentile(&backend.durs, 0.99));
    m.put(
        "backend.busy_ns_per_req",
        ratio((backend.busy_ns + append.busy_ns) as f64, requests),
    );
    // What is left of a path access once the keystream, the store and the
    // log are taken out: stash, eviction and bucket parsing.
    m.put(
        "backend.self_ns_per_access",
        ratio(
            backend.busy_ns as f64 - ctr_est_ns - store_est_ns - wal_est_ns,
            paths,
        ),
    );
    m.put(
        "backend.appends_per_req",
        ratio(s.backend.appends as f64, requests),
    );
    m.put(
        "backend.blocks_evicted_per_access",
        ratio(s.backend.blocks_evicted as f64, paths),
    );
    m.put(
        "backend.max_stash_occupancy",
        s.backend.max_stash_occupancy as f64,
    );

    m.put("crypto.ctr_ns_per_path", u.crypto.ctr_ns_per_path);
    m.put("crypto.ctr_gib_per_s", u.crypto.ctr_gib_per_s);
    m.put("crypto.mac_ns", u.crypto.mac_ns);
    m.put(
        "crypto.buckets_sealed_per_req",
        ratio(s.backend.buckets_encrypted as f64, requests),
    );
    m.put(
        "crypto.buckets_unsealed_per_req",
        ratio(s.backend.buckets_decrypted as f64, requests),
    );
    m.put("crypto.macs_per_req", ratio(macs, requests));
    m.put("crypto.est_share", ratio(crypto_est_ns, request_ns_total));

    m.put("store.mem.read_path_ns", u.mem.read_ns);
    m.put("store.mem.write_path_ns", u.mem.write_ns);
    m.put("store.file.read_path_ns", u.file.read_ns);
    m.put("store.file.write_path_ns", u.file.write_ns);
    m.put("store.tiered.read_path_ns", u.tiered.read_ns);
    m.put("store.tiered.write_path_ns", u.tiered.write_ns);
    m.put(
        "store.bytes_read_per_req",
        ratio(s.backend.bytes_read as f64, requests),
    );
    m.put(
        "store.bytes_written_per_req",
        ratio(s.backend.bytes_written as f64, requests),
    );
    m.put(
        "store.resident_bytes_per_user_byte",
        ratio(
            t.resident_bytes as f64,
            t.params.data_capacity_bytes() as f64,
        ),
    );
    m.put("store.est_share", ratio(store_est_ns, request_ns_total));

    m.put("wal.append_ns", u.wal.append_ns);
    m.put("wal.sync_ns_p50", percentile(&u.wal.sync_ns, 0.50));
    m.put("wal.sync_ns_p99", percentile(&u.wal.sync_ns, 0.99));
    m.put("wal.records_per_req", ratio(wal_records as f64, requests));
    m.put(
        "wal.bytes_per_req",
        ratio(wal_records as f64 * wal_record_bytes, requests),
    );
    m.put("wal.syncs_per_req", ratio(wal_syncs as f64, requests));
    m.put("wal.checkpoints", checkpoints as f64);
    m.put("wal.est_share", ratio(wal_est_ns, request_ns_total));

    m.put("host.memcpy_gib_per_s", u.host.memcpy_gib_per_s);
    m.put("host.fdatasync_us_p50", u.host.fdatasync_us_p50);
    m.put("host.loopback_rtt_us_p50", u.host.loopback_rtt_us_p50);
    m.put("host.thread_hop_ns", u.host.thread_hop_ns);
    m.put("host.timer_late_us_p50", u.host.timer_late_us_p50);

    // Self times partition the top-level spans exactly, so what the spans
    // leave of the request time is what no layer accounts for.
    m.put(
        "budget.unattributed_frac",
        1.0 - ratio(root.busy_ns as f64, request_ns_total),
    );
    m.put("trace.overhead_frac", t.overhead_frac);
}
