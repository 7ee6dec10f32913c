//! Command-line load client for an external `oram_server`: connects over
//! TCP with the `oram-net` wire protocol and prints latency and throughput
//! under three kinds of load.  (The pinned, oracle-checked measurement of
//! the TCP path is `perf_stack`'s `tcp_serial` / `tcp_open` workloads; this
//! is the tool for poking a live server by hand.)
//!
//! Three phases against the server at `--addr`:
//!
//! 1. **Single-connection peak** — one pipelined connection, closed loop
//!    with a fixed in-flight window; best-of-windows requests/sec.
//! 2. **Open-loop latency** — requests arrive on a fixed schedule at
//!    ~60% of the measured peak, whether or not earlier ones finished
//!    (open loop, so queueing delay is *included*); p50/p95/p99 from the
//!    scheduled arrival to the response.
//! 3. **Multi-connection throughput** — several concurrent pipelined
//!    connections.  On a 1-core host this measures timeslicing, not
//!    service capacity.
//!
//! Usage: `cargo run --release -p bench --bin loadgen -- --addr <host:port>`
//!
//! Flags:
//!
//! * `--addr <host:port>` — the server to drive (required).
//! * `--tenant <name>` — tenant to connect as (default `default`).
//! * `--quick` — short windows (local iteration).
//!
//! Any other argument is rejected with exit code 2 (`bench::harness`).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bench::harness::{best_of_windows, Flags, Windows};
use oram_net::wire::{encode_request, read_frame, write_frame, KIND_R_ERROR};
use oram_net::{NetClient, WireRequest};

/// In-flight request window for the closed-loop phases.
const WINDOW: usize = 128;

/// Connections in the multi-connection phase.
const MULTI_CONNS: usize = 4;

/// Fraction of the measured single-connection peak offered during the
/// open-loop latency phase.  Well under saturation, so the percentiles
/// describe service latency rather than unbounded queue growth.
const OPEN_LOOP_FRACTION: f64 = 0.6;

struct Profile {
    /// Closed-loop: warm-up and best-of windows of the single connection.
    closed_loop: Windows,
    /// Open-loop: request count ceiling and duration ceiling.
    open_loop_max: u64,
    open_loop_secs: f64,
    /// Multi-connection: requests per connection.
    per_conn: u64,
}

fn profile(quick: bool) -> Profile {
    if quick {
        Profile {
            closed_loop: Windows::new(1_024, 2_048, 0.2, 20_000, 2),
            open_loop_max: 10_000,
            open_loop_secs: 1.0,
            per_conn: 2_048,
        }
    } else {
        Profile {
            closed_loop: Windows::new(8_192, 16_384, 1.5, 500_000, 3),
            open_loop_max: 200_000,
            open_loop_secs: 5.0,
            per_conn: 16_384,
        }
    }
}

/// The i-th request of every workload: even → read, odd → write, striding
/// a large co-prime so consecutive requests hit different shards and tree
/// paths.
fn nth_request(i: u64, num_blocks: u64, block_bytes: usize) -> WireRequest {
    let addr = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % num_blocks;
    if i.is_multiple_of(2) {
        WireRequest::Read { addr }
    } else {
        WireRequest::Write {
            addr,
            data: vec![0xB5u8; block_bytes],
        }
    }
}

/// Closed-loop pipelined run: keeps [`WINDOW`] requests in flight until
/// `target` responses arrive.  Returns the number completed.
fn run_closed_loop(
    client: &mut NetClient,
    target: u64,
    num_blocks: u64,
    block_bytes: usize,
) -> u64 {
    let mut issued = 0u64;
    let mut done = 0u64;
    while issued < target && issued < WINDOW as u64 {
        client
            .send_request(&nth_request(issued, num_blocks, block_bytes))
            .expect("send");
        issued += 1;
    }
    while done < target {
        let (_id, response) = client.recv_response().expect("recv");
        assert!(
            !matches!(response, oram_net::WireResponse::Error(_)),
            "benchmark request failed: {response:?}"
        );
        done += 1;
        if issued < target {
            client
                .send_request(&nth_request(issued, num_blocks, block_bytes))
                .expect("send");
            issued += 1;
        }
    }
    done
}

/// Phase 2: open-loop latency percentiles at a fixed offered rate.
///
/// A sender thread dispatches request `i` at `start + i * interval`
/// regardless of completions; the receiver times each response against
/// that *scheduled* arrival, so backpressure shows up as latency instead
/// of silently slowing the offered load (the closed-loop fallacy).
fn measure_open_loop(
    addr: SocketAddr,
    tenant: &str,
    rate: f64,
    p: &Profile,
    num_blocks: u64,
) -> (u64, Vec<Duration>) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let total = (rate * p.open_loop_secs) as u64;
    let total = total.clamp(100, p.open_loop_max);

    // Raw stream: the sender and receiver halves run on separate threads,
    // which NetClient's single-owner API deliberately doesn't expose.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    // Handshake (request id 0 is the hello; workload ids start at 1).
    let (kind, body) = encode_request(&WireRequest::Hello {
        tenant: tenant.to_string(),
    });
    write_frame(&mut writer, kind, 0, &body).expect("hello");
    writer.flush().expect("flush");
    let (header, body) = read_frame(&mut reader).expect("hello reply").expect("open");
    assert_ne!(header.kind, KIND_R_ERROR, "hello refused");
    let block_bytes = match oram_net::wire::decode_response(header.kind, &body).expect("decode") {
        oram_net::WireResponse::HelloOk { block_bytes, .. } => {
            usize::try_from(block_bytes).expect("small blocks")
        }
        other => panic!("unexpected hello reply {other:?}"),
    };

    let start = Instant::now() + Duration::from_millis(10);
    let sender = std::thread::spawn(move || {
        for i in 0..total {
            let scheduled = start + interval.mul_f64(i as f64);
            while Instant::now() < scheduled {
                std::thread::sleep(Duration::from_micros(50));
            }
            let (kind, body) = encode_request(&nth_request(i, num_blocks, block_bytes));
            write_frame(&mut writer, kind, i + 1, &body).expect("send");
            writer.flush().expect("flush");
        }
    });

    let mut latencies = Vec::with_capacity(usize::try_from(total).expect("fits"));
    for _ in 0..total {
        let (header, _body) = read_frame(&mut reader).expect("recv").expect("open");
        assert_ne!(header.kind, KIND_R_ERROR, "open-loop request failed");
        let i = header.request_id - 1;
        let scheduled = start + interval.mul_f64(i as f64);
        latencies.push(Instant::now().saturating_duration_since(scheduled));
    }
    sender.join().expect("sender thread");
    (total, latencies)
}

/// Phase 3: concurrent pipelined connections, aggregate throughput.
fn measure_multi_conn(addr: SocketAddr, tenant: &str, p: &Profile, num_blocks: u64) -> (u64, f64) {
    let start = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..MULTI_CONNS {
        let tenant = tenant.to_string();
        let per_conn = p.per_conn;
        threads.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr, &tenant).expect("connect");
            let block_bytes = usize::try_from(client.session().block_bytes).expect("small blocks");
            run_closed_loop(&mut client, per_conn, num_blocks, block_bytes)
        }));
    }
    let total: u64 = threads
        .into_iter()
        .map(|t| t.join().expect("connection thread"))
        .sum();
    (total, total as f64 / start.elapsed().as_secs_f64())
}

/// `q`-quantile of a non-empty sorted sample, in microseconds.
fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

fn main() {
    let flags = Flags::from_env(&[
        ("--addr", Some("<host:port>")),
        ("--tenant", Some("<name>")),
        ("--quick", None),
    ]);
    let addr: SocketAddr = flags.parsed("--addr").unwrap_or_else(|| {
        flags.reject("--addr is required: start `oram_server` and pass its address")
    });
    let tenant = flags.value("--tenant").unwrap_or("default");
    let p = profile(flags.has("--quick"));

    let cores = std::thread::available_parallelism().map_or(0, |pll| pll.get());
    eprintln!("available parallelism: {cores} core(s)");
    if cores < MULTI_CONNS {
        eprintln!(
            "note: the multi-connection phase on fewer cores than connections measures \
             timeslicing, not capacity"
        );
    }

    let mut client = NetClient::connect(addr, tenant).expect("connect");
    // Tenant-relative addressing: stay inside the advertised range.
    let num_blocks = client.session().num_blocks;

    eprintln!("phase 1: single-connection closed-loop peak ...");
    let block_bytes = usize::try_from(client.session().block_bytes).expect("small blocks");
    let (single_requests, single_rate) = best_of_windows(
        &mut client,
        &p.closed_loop,
        WINDOW as u64 * 4,
        |client, target| run_closed_loop(client, target, num_blocks, block_bytes),
        |_| {},
    );
    eprintln!("  {single_rate:>10.0} req/s  ({single_requests} requests)");
    drop(client);

    let offered = single_rate * OPEN_LOOP_FRACTION;
    eprintln!("phase 2: open-loop latency at {offered:.0} req/s ...");
    let (open_requests, mut latencies) = measure_open_loop(addr, tenant, offered, &p, num_blocks);
    latencies.sort_unstable();
    let p50 = percentile_us(&latencies, 0.50);
    let p95 = percentile_us(&latencies, 0.95);
    let p99 = percentile_us(&latencies, 0.99);
    eprintln!("  p50 {p50:.0} us   p95 {p95:.0} us   p99 {p99:.0} us   ({open_requests} requests)");

    eprintln!("phase 3: {MULTI_CONNS} concurrent connections ...");
    let (multi_requests, multi_rate) = measure_multi_conn(addr, tenant, &p, num_blocks);
    eprintln!("  {multi_rate:>10.0} req/s aggregate  ({multi_requests} requests)");
}
