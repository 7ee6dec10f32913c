//! `tcp_serial` and `tcp_open`: block requests over loopback against an
//! in-process `NetServer` on a one-shard `OramService`.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use freecursive::{FrontendStats, Oram, OramClient, OramService, Request};
use oram_net::wire::{decode_response, encode_request, read_frame, write_frame};
use oram_net::{NetClient, NetServer, ServerConfig, TenantStats, WireRequest, WireResponse};

use crate::clock::seconds_at_reference;
use crate::layers::{measure_unit_costs, put_shared_layers, Metrics, Traced, UnitCosts};
use crate::stack::{
    block_builder, block_request, build_plain, build_traced, call_oram, BlockDriver, Scratch, Tally,
};
use crate::stats::{closed_loop, mean, percentile, Phase, WINDOWS};
use crate::trace::{self, Layer, Span};
use crate::workload::{warmup_ops, AddrPattern, Workload, NUM_BLOCKS, OPEN_LOOP_RATE};
use crate::{put_end_to_end, Outcome, RunConfig, SETUP_REPEATS, TRACED_SHARE};

const TENANT: &str = "default";
/// Far above the one (serial) or few (open loop) requests ever in flight:
/// a quota refusal here is a failure, not backpressure at work.
const MAX_INFLIGHT: u64 = 8_192;
/// A reply later than this after its due time counts as late.
const LATE_NS: u64 = 1_000_000;
/// No reply within this long means the connection is lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

struct Server {
    net: NetServer,
    /// A handle on the shard worker beside the server's own, to reset and
    /// fetch the stack's counters at the edges of the timed phase.
    admin: OramClient,
}

impl Server {
    fn spawn(shard: Box<dyn Oram>) -> Result<Server, String> {
        let service = OramService::from_shards(vec![shard]).map_err(|e| e.to_string())?;
        let admin = service.client();
        let net = NetServer::spawn(
            service,
            ServerConfig::single_tenant(NUM_BLOCKS, MAX_INFLIGHT),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(Server { net, admin })
    }

    fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    fn tenant(&self) -> TenantStats {
        self.net.tenant_stats(TENANT).unwrap_or_default()
    }

    fn stats(&mut self) -> Result<FrontendStats, String> {
        self.admin.fetch_stats().map_err(|e| e.to_string())
    }

    /// Stops the server and its shard worker; handler panics count as
    /// failed operations.
    fn finish(self, tally: &mut Tally) -> Result<(), String> {
        let panics = self.net.panic_count();
        if panics > 0 {
            tally.fail(&format!("{panics} connection handler(s) panicked"));
            tally.failed += panics - 1;
        }
        self.net.shutdown().map_err(|e| e.to_string())
    }
}

fn wire_request(request: Request) -> WireRequest {
    match request {
        Request::Read { addr } => WireRequest::Read { addr },
        Request::Write { addr, data } => WireRequest::Write { addr, data },
        Request::ReadRemove { addr } => WireRequest::ReadRemove { addr },
    }
}

/// One request in flight on a `NetClient`, as `tcp_serial` issues them.
fn call_client(client: &mut NetClient, request: Request) -> Result<Option<Vec<u8>>, String> {
    match request {
        Request::Write { addr, data } => client.write(addr, data).map(|()| None),
        Request::Read { addr } => client.read(addr).map(Some),
        Request::ReadRemove { addr } => client.read_remove(addr).map(Some),
    }
    .map_err(|e| e.to_string())
}

/// A raw connection whose halves the open-loop sender and receiver threads
/// own separately, which `NetClient`'s single-owner API does not offer.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let io = |e: std::io::Error| format!("connecting: {e}");
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
        let mut conn = Conn {
            writer: BufWriter::new(stream.try_clone().map_err(io)?),
            reader: BufReader::new(stream),
        };
        let hello = WireRequest::Hello {
            tenant: TENANT.to_string(),
        };
        send(&mut conn.writer, u64::MAX, &hello).map_err(io)?;
        match recv(&mut conn.reader)? {
            (_, WireResponse::HelloOk { .. }) => Ok(conn),
            (_, other) => Err(format!("hello refused: {other:?}")),
        }
    }
}

fn send(writer: &mut BufWriter<TcpStream>, id: u64, request: &WireRequest) -> std::io::Result<()> {
    let (kind, body) = encode_request(request);
    write_frame(writer, kind, id, &body)?;
    writer.flush()
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<(u64, WireResponse), String> {
    let (header, body) = read_frame(reader)
        .map_err(|e| format!("receiving: {e}"))?
        .ok_or("the server closed the connection")?;
    let response = decode_response(header.kind, &body).map_err(|e| e.to_string())?;
    Ok((header.request_id, response))
}

fn reply_of(response: WireResponse) -> Result<Option<Vec<u8>>, String> {
    match response {
        WireResponse::Data(data) => Ok(Some(data)),
        WireResponse::Done => Ok(None),
        WireResponse::Error(e) => Err(e.to_string()),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// The timed phase of either workload, in the shape the metrics need.
struct Timed {
    /// Latency as the workload defines it: round trip (serial) or reply
    /// minus due time (open loop).
    phase: Phase,
    /// Wall time of one request, ns: per operation at the windowed rate
    /// (serial), mean reply-minus-due time (open loop).
    wall_request_ns: f64,
    /// Open loop: send time minus due time, ns.
    send_late_ns: Vec<u64>,
}

/// Sends requests `first..first + count` on a fixed schedule, whether or not
/// earlier ones were answered, from a sender thread that sleeps until each
/// is due; this thread receives and checks the replies.  With `traced`, each
/// round trip, send to reply, is recorded as a client span.
fn open_loop(
    conn: &mut Conn,
    driver: &mut BlockDriver,
    seed: u64,
    first: u64,
    count: u64,
    traced: bool,
) -> Timed {
    let interval = Duration::from_nanos(1_000_000_000 / OPEN_LOOP_RATE);
    let started = Instant::now() + Duration::from_millis(5);
    let due = |k: u64| started + interval * k as u32;
    let Conn { reader, writer } = conn;

    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(count as usize);
            for k in 0..count {
                std::thread::sleep(due(k).saturating_duration_since(Instant::now()));
                let request = wire_request(block_request(AddrPattern::Uniform, seed, first + k));
                sent.push(Instant::now());
                if send(writer, first + k, &request).is_err() {
                    break;
                }
            }
            sent
        });
        let mut received = Vec::with_capacity(count as usize);
        for k in 0..count {
            match recv(reader) {
                Ok((id, response)) => {
                    received.push(Instant::now());
                    let reply = if id == first + k {
                        reply_of(response)
                    } else {
                        Err(format!("reply to {id} where {} was next", first + k))
                    };
                    driver.check(first + k, reply);
                }
                Err(e) => {
                    // The connection is lost: every outstanding request is missing.
                    for missing in k..count {
                        driver.check(first + missing, Err(e.clone()));
                    }
                    let _ = reader.get_ref().shutdown(Shutdown::Both);
                    break;
                }
            }
        }
        (sender.join().expect("the sender does not panic"), received)
    });

    let since =
        |at: Instant, k: usize| at.saturating_duration_since(due(k as u64)).as_nanos() as u64;
    let lat_ns: Vec<u64> = received
        .iter()
        .enumerate()
        .map(|(k, &at)| since(at, k))
        .collect();
    let per_window = (received.len() / WINDOWS).max(1);
    let mut window_start = started;
    let windows = received
        .chunks(per_window)
        .zip(lat_ns.chunks(per_window))
        .map(|(replies, lat)| {
            let window_end = *replies.last().expect("chunks are non-empty");
            let wall_s = (window_end - window_start).as_secs_f64();
            window_start = window_end;
            // Mostly waiting: as the wall clock had it (see `crate::clock`).
            (lat.to_vec(), wall_s, 1.0)
        })
        .collect();
    if traced {
        for (k, (&sent, &received)) in sent.iter().zip(&received).enumerate() {
            let request = (first as usize + k) as u32;
            trace::record(
                Layer::Client,
                request,
                trace::ns_of(sent),
                trace::ns_of(received),
            );
        }
    }
    Timed {
        phase: Phase::from_windows(started, windows),
        wall_request_ns: mean(&lat_ns),
        send_late_ns: sent
            .iter()
            .enumerate()
            .map(|(k, &at)| since(at, k))
            .collect(),
    }
}

/// Warm-up on the raw connection, one request in flight.
fn warm_conn(conn: &mut Conn, driver: &mut BlockDriver, range: Range<u64>) {
    for i in range {
        driver.step(i, &mut |request| {
            send(&mut conn.writer, i, &wire_request(request)).map_err(|e| e.to_string())?;
            recv(&mut conn.reader).and_then(|(_, response)| reply_of(response))
        });
    }
}

/// The client side of either workload, connected and warmed up.
enum Client {
    Serial(NetClient),
    Open(Conn),
}

impl Client {
    fn connect(workload: Workload, addr: SocketAddr) -> Result<Client, String> {
        Ok(match workload {
            Workload::TcpOpen => Client::Open(Conn::connect(addr)?),
            _ => Client::Serial(NetClient::connect(addr, TENANT).map_err(|e| e.to_string())?),
        })
    }

    fn warm(&mut self, driver: &mut BlockDriver, range: Range<u64>) {
        match self {
            Client::Open(conn) => warm_conn(conn, driver, range),
            Client::Serial(client) => {
                for i in range {
                    driver.step(i, &mut |request| call_client(client, request));
                }
            }
        }
    }
}

fn timed(
    client: &mut Client,
    driver: &mut BlockDriver,
    config: &RunConfig,
    first: u64,
    count: u64,
) -> Timed {
    match client {
        Client::Serial(client) => {
            let traced = config.trace;
            let phase = closed_loop(
                first,
                count,
                Workload::TcpSerial.follows_core_clock(),
                |i| {
                    driver.step(i, &mut |request| {
                        if traced {
                            trace::span(Layer::Client, || call_client(client, request))
                        } else {
                            call_client(client, request)
                        }
                    })
                },
            );
            Timed {
                wall_request_ns: phase.wall_ns_per_op(),
                phase,
                send_late_ns: Vec::new(),
            }
        }
        Client::Open(conn) => open_loop(conn, driver, config.seed, first, count, config.trace),
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let workload = config.workload;
    let timed_ops = workload.timed_ops(config.seconds);
    let warmup = warmup_ops(timed_ops);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // A plain server with a warmed-up client on it.
    let plain = |tally: &mut Tally| -> Result<(Server, Client, BlockDriver), String> {
        let mut server = Server::spawn(build_plain(&block_builder())?)?;
        let mut client = Client::connect(workload, server.addr())?;
        let mut driver = BlockDriver::new(AddrPattern::Uniform, config.seed);
        client.warm(&mut driver, 0..warmup);
        server.admin.reset_stats();
        tally.add(std::mem::take(&mut driver.tally));
        Ok((server, client, driver))
    };

    if !config.trace {
        let mut setups = Vec::new();
        let mut stack: Option<(Server, Client, BlockDriver)> = None;
        for _ in 0..SETUP_REPEATS {
            if let Some((server, client, _)) = stack.take() {
                drop(client);
                server.finish(&mut tally)?;
            }
            let start = Instant::now();
            stack = Some(plain(&mut tally)?);
            setups.push(seconds_at_reference(start, workload.follows_core_clock()));
        }
        let (mut server, mut client, mut driver) = stack.expect("at least one set-up");
        let run = timed(&mut client, &mut driver, config, warmup, timed_ops);
        tally.add(driver.tally);
        let bytes_per_req = server.stats()?.bytes_per_request().unwrap_or(0.0);
        drop(client);
        server.finish(&mut tally)?;
        put_end_to_end(&mut metrics, &setups, &run.phase, bytes_per_req);
        return Ok(Outcome { tally, metrics });
    }

    let traced_ops = (timed_ops as f64 * TRACED_SHARE) as u64;
    let reference = {
        let (server, mut client, mut driver) = plain(&mut tally)?;
        let run = timed(
            &mut client,
            &mut driver,
            &config.untraced(),
            warmup,
            traced_ops,
        );
        tally.add(driver.tally);
        drop(client);
        server.finish(&mut tally)?;
        run
    };

    let shard = build_traced(&block_builder())?;
    let params = *shard.params();
    let mut server = Server::spawn(Box::new(shard))?;
    let mut driver = BlockDriver::new(AddrPattern::Uniform, config.seed);
    trace::reserve(2 * (warmup + traced_ops) as usize);

    // The first half of the warm-up goes straight to the shard worker through
    // an `OramClient`: the same requests warm the same stack, and the spans
    // around them measure the handler-to-worker hop without the wire.
    let probe_ops = warmup / 2;
    let probe_start = trace::now_ns();
    for i in 0..probe_ops {
        driver.step(i, &mut |request| {
            trace::span(Layer::Hop, || call_oram(&mut server.admin, request))
        });
    }
    let probe = probe_start..trace::now_ns();
    let mut client = Client::connect(workload, server.addr())?;
    client.warm(&mut driver, probe_ops..warmup);
    server.admin.reset_stats();
    let tenant_start = server.tenant();

    let run = timed(&mut client, &mut driver, config, warmup, traced_ops);
    tally.add(driver.tally);
    let stats = server.stats()?;
    let tenant_end = server.tenant();
    let panics = server.net.panic_count();
    drop(client);
    // Ends the handler and worker threads, which hands their spans over.
    server.finish(&mut tally)?;
    let threads = trace::collect(config.spans_out.as_deref())?;

    let open = workload == Workload::TcpOpen;
    let window = trace::ns_of(run.phase.started)..u64::MAX;
    let traced = Traced {
        stats: &stats,
        params: &params,
        resident_bytes: trace::resident_bytes_at_drop(),
        wal_seq: None,
        threads: &threads,
        window: window.clone(),
        root: Layer::Client,
        ops: traced_ops,
        ns_per_op: run.wall_request_ns,
        // The open loop's rate is the offered one; its latency carries the cost.
        overhead_frac: if open {
            1.0 - mean(&reference.phase.lat_ns) / mean(&run.phase.lat_ns)
        } else {
            1.0 - run.phase.rate / reference.phase.rate
        },
    };
    let scratch = Scratch::new()?;
    let costs = measure_unit_costs(&params, &scratch)?;
    put_shared_layers(&mut metrics, &traced, &costs);
    put_net_layers(
        &mut metrics,
        &NetTrace {
            threads: &threads,
            probe,
            window,
            ops: traced_ops,
            run: &run,
            tenant: (tenant_start, tenant_end),
            panics,
            open,
        },
        &costs,
    );
    Ok(Outcome { tally, metrics })
}

struct NetTrace<'a> {
    threads: &'a [Vec<Span>],
    /// When the hop probe ran, ns since the trace epoch.
    probe: Range<u64>,
    window: Range<u64>,
    ops: u64,
    run: &'a Timed,
    /// The tenant's counters at the edges of the timed phase.
    tenant: (TenantStats, TenantStats),
    panics: u64,
    open: bool,
}

fn put_net_layers(m: &mut Metrics, t: &NetTrace, u: &UnitCosts) {
    let ops = t.ops as f64;
    let hop = trace::totals(t.threads, t.probe.clone(), Layer::Hop);
    let probe_frontend = trace::totals(t.threads, t.probe.clone(), Layer::Frontend);
    let client = trace::totals(t.threads, t.window.clone(), Layer::Client);
    let frontend = trace::totals(t.threads, t.window.clone(), Layer::Frontend);

    // Submit, wake the worker, wake the caller: the call minus the work.
    let hop_ns_per_req = if hop.count() == 0 {
        0.0
    } else {
        (hop.busy_ns as f64 - probe_frontend.busy_ns as f64) / hop.count() as f64
    };
    m.put("service.submit_wait_ns_p50", percentile(&hop.durs, 0.50));
    m.put("service.hop_ns_per_req", hop_ns_per_req);
    let phase_ns = ops * 1e9 / t.run.phase.wall_rate;
    m.put(
        "service.worker_busy_frac",
        frontend.busy_ns as f64 / phase_ns,
    );

    m.put("net.rtt_ns_p50", percentile(&client.durs, 0.50));
    m.put("net.rtt_ns_p99", percentile(&client.durs, 0.99));
    // The round trip minus the frontend's work and the hop: wire codec,
    // sockets and the connection handler.
    m.put(
        "net.self_ns_per_req",
        (client.busy_ns as f64 - frontend.busy_ns as f64) / ops - hop_ns_per_req,
    );
    m.put("net.encode_ns", u.wire.encode_ns);
    m.put("net.decode_ns", u.wire.decode_ns);
    let (before, after) = &t.tenant;
    m.put(
        "net.bytes_in_per_req",
        (after.bytes_in - before.bytes_in) as f64 / ops,
    );
    m.put(
        "net.bytes_out_per_req",
        (after.bytes_out - before.bytes_out) as f64 / ops,
    );
    m.put("net.errors", (after.errors - before.errors) as f64);
    m.put(
        "net.quota_rejections",
        (after.quota_rejections - before.quota_rejections) as f64,
    );
    m.put("net.server_panics", t.panics as f64);

    m.put("net.lat_p95_us", t.run.phase.lat_quantile_ns(0.95) / 1e3);
    let lat = t.run.phase.sorted_lat();
    m.put("net.lat_p99_us", percentile(&lat, 0.99) / 1e3);
    m.put("net.lat_p999_us", percentile(&lat, 0.999) / 1e3);
    let late = lat.iter().filter(|&&ns| ns > LATE_NS).count() as u64 + (t.ops - lat.len() as u64);
    m.put("net.late_frac", late as f64 / ops);
    if t.open {
        let mut send_late = t.run.send_late_ns.clone();
        send_late.sort_unstable();
        m.put("net.send_late_p50_us", percentile(&send_late, 0.50) / 1e3);
        m.put("net.send_late_p99_us", percentile(&send_late, 0.99) / 1e3);
        m.put(
            "net.achieved_rate_frac",
            t.run.phase.wall_rate / OPEN_LOOP_RATE as f64,
        );
    }
}
