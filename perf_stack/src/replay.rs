//! Unit costs of the layers that offer no seam to put a span at, and the
//! host's floors beside them.
//!
//! `TreeStorage`, `Wal`, the bucket keystream, the PMMAC and the wire codec
//! are called from inside other layers, so the benchmark cannot time their
//! calls in place without editing those layers.  Instead it replays the same
//! shapes (a path of `L + 1` buckets, one WAL record, one 64 B block, one
//! frame) through their public functions; multiplied by the counts the stack
//! reports, these give the rows labelled `est_share`.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use freecursive::{Durability, EncryptionMode, StorageKind};
use oram_crypto::MacKey;
use oram_net::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use oram_net::{WireRequest, WireResponse};
use path_oram::storage::TreeStorage;
use path_oram::tree::path_linear_indices_into;
use path_oram::{BucketCipher, OramParams, Wal};

use crate::stats::{median, percentile};

const KEY: [u8; 16] = *b"perf_stack-repla";

/// Median over ten chunks of the mean time of one `f` call, ns.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let chunk = (calls / 10).max(1);
    let mut means = Vec::with_capacity(10);
    let mut i = 0;
    while i < calls {
        let n = chunk.min(calls - i);
        let start = Instant::now();
        for k in i..i + n {
            f(k);
        }
        means.push(start.elapsed().as_nanos() as f64 / n as f64);
        i += n;
    }
    median(&means)
}

/// A fixed pseudo-random leaf sequence: every store replays the same paths.
fn replay_leaf(params: &OramParams, k: usize) -> u64 {
    (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - params.leaf_level())
}

pub struct CryptoCost {
    /// One keystream pass over a path (one direction).
    pub ctr_ns_per_path: f64,
    pub ctr_gib_per_s: f64,
    /// One PMMAC over one block.
    pub mac_ns: f64,
}

pub fn crypto(params: &OramParams) -> CryptoCost {
    let cipher = BucketCipher::new(EncryptionMode::GlobalSeed, KEY);
    let mut indices = Vec::new();
    path_linear_indices_into(replay_leaf(params, 1), params.leaf_level(), &mut indices);
    let mut spans = Vec::new();
    for (k, &index) in indices.iter().enumerate() {
        let offset = k * params.bucket_bytes();
        cipher.push_span(&mut spans, index, k as u64 + 1, offset, params);
    }
    let mut path = vec![0u8; indices.len() * params.bucket_bytes()];
    let ctr_ns_per_path = per_call_ns(4_000, |_| {
        cipher.apply_spans(&spans, black_box(&mut path));
    });
    let keystream_bytes = (indices.len() * params.bucket_sealed_bytes()) as f64;

    let mac_key = MacKey::new(KEY);
    let block = vec![0xA5u8; params.block_bytes];
    let mac_ns = per_call_ns(20_000, |k| {
        black_box(mac_key.compute(k as u64, 17, black_box(&block)));
    });
    CryptoCost {
        ctr_ns_per_path,
        ctr_gib_per_s: keystream_bytes / ctr_ns_per_path * 1e9 / (1u64 << 30) as f64,
        mac_ns,
    }
}

pub struct PathCost {
    pub read_ns: f64,
    pub write_ns: f64,
}

/// Reads and writes the replay leaf sequence through one store kind.
pub fn store(params: &OramParams, kind: &StorageKind) -> Result<PathCost, String> {
    const PATHS: usize = 2_000;
    let mut store = TreeStorage::create(params, kind, 0, Durability::None)
        .map_err(|e| format!("replay store: {e}"))?;
    let mut indices = Vec::new();
    let mut path = vec![0x3Cu8; (params.leaf_level() as usize + 1) * params.bucket_bytes()];
    let mut failed = None;
    let mut pass = |write: bool, store: &mut TreeStorage, path: &mut Vec<u8>| {
        per_call_ns(PATHS, |k| {
            path_linear_indices_into(replay_leaf(params, k), params.leaf_level(), &mut indices);
            let result = if write {
                store.write_path(&indices, path)
            } else {
                store.read_path_into(&indices, path)
            };
            if let Err(e) = result {
                failed = Some(format!("replay store: {e}"));
            }
        })
    };
    // Untimed: every replayed bucket exists before it is read.
    pass(true, &mut store, &mut path);
    let read_ns = pass(false, &mut store, &mut path);
    let write_ns = pass(true, &mut store, &mut path);
    match failed {
        Some(e) => Err(e),
        None => Ok(PathCost { read_ns, write_ns }),
    }
}

pub struct WalCost {
    /// One path-sized record appended, no sync.
    pub append_ns: f64,
    /// `fdatasync` of the log after 64 appended records, ns, ascending.
    pub sync_ns: Vec<u64>,
}

impl WalCost {
    pub fn sync_mean_ns(&self) -> f64 {
        crate::stats::mean(&self.sync_ns)
    }
}

pub fn wal(params: &OramParams, dir: &Path, batch: u32) -> Result<WalCost, String> {
    const SYNCS: usize = 40;
    let mut wal = Wal::create(dir, 99, params.bucket_bytes(), 0, Durability::None)
        .map_err(|e| format!("replay wal: {e}"))?;
    let mut indices = Vec::new();
    let images = vec![0x5Au8; (params.leaf_level() as usize + 1) * params.bucket_bytes()];
    let mut append_ns = Vec::with_capacity(SYNCS);
    let mut sync_ns = Vec::with_capacity(SYNCS);
    for round in 0..SYNCS {
        let start = Instant::now();
        for k in 0..batch as usize {
            let leaf = replay_leaf(params, round * batch as usize + k);
            path_linear_indices_into(leaf, params.leaf_level(), &mut indices);
            wal.append(&indices, &images)
                .map_err(|e| format!("replay wal: {e}"))?;
        }
        append_ns.push(start.elapsed().as_nanos() as f64 / f64::from(batch));
        let start = Instant::now();
        wal.sync().map_err(|e| format!("replay wal: {e}"))?;
        sync_ns.push(start.elapsed().as_nanos() as u64);
    }
    sync_ns.sort_unstable();
    Ok(WalCost {
        append_ns: median(&append_ns),
        sync_ns,
    })
}

pub struct WireCost {
    /// Request and reply encoded into frames, per request.
    pub encode_ns: f64,
    /// Request and reply read back from frames, per request.
    pub decode_ns: f64,
}

pub fn wire(block_bytes: usize) -> WireCost {
    let requests = [
        WireRequest::Read { addr: 0x4_2F17 },
        WireRequest::Write {
            addr: 0x4_2F17,
            data: vec![0xB5; block_bytes],
        },
    ];
    let responses = [
        WireResponse::Data(vec![0xB5; block_bytes]),
        WireResponse::Done,
    ];
    let mut frames = Vec::with_capacity(4 * (block_bytes + 64));
    let encode_pair_ns = per_call_ns(20_000, |k| {
        frames.clear();
        let (kind, body) = encode_request(black_box(&requests[k % 2]));
        write_frame(&mut frames, kind, k as u64, &body).expect("writing to memory");
        let (kind, body) = encode_response(black_box(&responses[k % 2]));
        write_frame(&mut frames, kind, k as u64, &body).expect("writing to memory");
        black_box(&frames);
    });
    let encoded: Vec<Vec<u8>> = (0..2)
        .map(|k| {
            let mut frames = Vec::new();
            let (kind, body) = encode_request(&requests[k]);
            write_frame(&mut frames, kind, 7, &body).expect("writing to memory");
            let (kind, body) = encode_response(&responses[k]);
            write_frame(&mut frames, kind, 7, &body).expect("writing to memory");
            frames
        })
        .collect();
    let decode_pair_ns = per_call_ns(20_000, |k| {
        let mut cursor = black_box(encoded[k % 2].as_slice());
        let (header, body) = read_frame(&mut cursor)
            .expect("frame is whole")
            .expect("not closed");
        black_box(decode_request(header.kind, &body).expect("request decodes"));
        let (header, body) = read_frame(&mut cursor)
            .expect("frame is whole")
            .expect("not closed");
        black_box(decode_response(header.kind, &body).expect("response decodes"));
    });
    WireCost {
        encode_ns: encode_pair_ns,
        decode_ns: decode_pair_ns,
    }
}

/// What the host gives any program: the floors under the layers' numbers.
pub struct HostFloors {
    pub memcpy_gib_per_s: f64,
    pub fdatasync_us_p50: f64,
    pub loopback_rtt_us_p50: f64,
    /// One thread-to-thread hand-off over an `mpsc` channel.
    pub thread_hop_ns: f64,
    /// How late a 250 µs `sleep` returns.
    pub timer_late_us_p50: f64,
}

pub fn host_floors(dir: &Path) -> Result<HostFloors, String> {
    Ok(HostFloors {
        memcpy_gib_per_s: memcpy_gib_per_s(),
        fdatasync_us_p50: fdatasync_us_p50(dir).map_err(|e| format!("fdatasync floor: {e}"))?,
        loopback_rtt_us_p50: loopback_rtt_us_p50().map_err(|e| format!("loopback floor: {e}"))?,
        thread_hop_ns: thread_hop_ns(),
        timer_late_us_p50: timer_late_us_p50(),
    })
}

fn memcpy_gib_per_s() -> f64 {
    const BYTES: usize = 32 << 20;
    let src = vec![0x77u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let ns = per_call_ns(10, |_| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    BYTES as f64 / ns * 1e9 / (1u64 << 30) as f64
}

fn fdatasync_us_p50(dir: &Path) -> std::io::Result<f64> {
    use std::os::unix::fs::FileExt;
    let path = dir.join("fdatasync.floor");
    let file = std::fs::File::create(&path)?;
    let page = [0x11u8; 4096];
    let mut ns = Vec::with_capacity(40);
    for k in 0..40u64 {
        file.write_all_at(&page, (k % 8) * 4096)?;
        let start = Instant::now();
        file.sync_data()?;
        ns.push(start.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    ns.sort_unstable();
    Ok(percentile(&ns, 0.5) / 1e3)
}

fn loopback_rtt_us_p50() -> std::io::Result<f64> {
    const PINGS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = [0u8; 16];
        for _ in 0..PINGS {
            peer.read_exact(&mut buf)?;
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut buf = [0x42u8; 16];
    let mut ns = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        stream.write_all(&buf)?;
        stream.read_exact(&mut buf)?;
        ns.push(start.elapsed().as_nanos() as u64);
    }
    echo.join().expect("echo thread does not panic")?;
    ns.sort_unstable();
    Ok(percentile(&ns, 0.5) / 1e3)
}

fn thread_hop_ns() -> f64 {
    const PINGS: usize = 5_000;
    let (to_echo, from_main) = std::sync::mpsc::channel::<u64>();
    let (to_main, from_echo) = std::sync::mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = from_main.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let round_trip_ns = per_call_ns(PINGS, |k| {
        to_echo.send(k as u64).expect("echo thread is alive");
        black_box(from_echo.recv().expect("echo thread is alive"));
    });
    drop(to_echo);
    echo.join().expect("echo thread does not panic");
    round_trip_ns / 2.0
}

fn timer_late_us_p50() -> f64 {
    let nap = Duration::from_micros(250);
    let mut late_ns: Vec<u64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(nap);
            start.elapsed().saturating_sub(nap).as_nanos() as u64
        })
        .collect();
    late_ns.sort_unstable();
    percentile(&late_ns, 0.5) / 1e3
}
