//! Protocol robustness against a live server.
//!
//! Every test here feeds a running [`NetServer`] hostile or broken input —
//! truncated frames, garbage headers, mid-frame disconnects, lying length
//! prefixes — and checks the contract from `oram_net::wire`: the server
//! answers with a typed error frame or closes cleanly, *never* panics
//! (pinned by `panic_count()` at the end of each test), and keeps serving
//! well-formed traffic afterwards.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use freecursive::{OramBuilder, Request, SchemePoint};
use oram_net::wire::{
    encode_header, read_frame, write_frame, KIND_BATCH, KIND_HELLO, KIND_READ, KIND_R_ERROR,
    MAX_BATCH_ITEMS, MAX_FRAME_BODY, PROTOCOL_VERSION,
};
use oram_net::{
    ErrorCode, NetClient, NetServer, ServerConfig, TenantSpec, WireRequest, WireResponse,
};

const BLOCK_BYTES: usize = 16;
const BLOCKS: u64 = 64;

/// A small 2-shard service behind a TCP server on an ephemeral port.
fn spawn_server(config: ServerConfig) -> NetServer {
    let service = OramBuilder::for_scheme(SchemePoint::Insecure)
        .num_blocks(BLOCKS)
        .block_bytes(BLOCK_BYTES)
        .shards(2)
        .seed(7)
        .build_service()
        .expect("service");
    NetServer::spawn(service, config, "127.0.0.1:0").expect("spawn")
}

fn default_config() -> ServerConfig {
    ServerConfig::single_tenant(BLOCKS, 256)
}

/// Raw socket with a read timeout so a misbehaving server cannot hang the
/// test suite.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
}

/// Reads one response frame, expecting a typed error with `code`.
fn expect_error_frame(stream: &mut TcpStream, code: ErrorCode) {
    let (header, body) = read_frame(stream)
        .expect("read frame")
        .expect("server should answer, not close silently");
    assert_eq!(header.kind, KIND_R_ERROR, "expected an error frame");
    match oram_net::wire::decode_response(header.kind, &body).expect("decodable") {
        WireResponse::Error(e) => assert_eq!(e.code, code, "detail: {}", e.detail),
        other => panic!("expected an error response, got {other:?}"),
    }
}

/// True if the next read shows the server closed the connection.  A reset
/// counts: closing with unread bytes still in the server's receive buffer
/// (e.g. trailing garbage after the offending header) surfaces to the
/// client as RST rather than FIN, and both end the connection.
fn closed(stream: &mut TcpStream) -> bool {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => matches!(
            e.kind(),
            std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        ),
    }
}

/// A good connection still round-trips: the canary run after every abuse.
fn assert_still_serving(server: &NetServer) {
    let mut client = NetClient::connect(server.local_addr(), "default").expect("connect");
    client.write(1, vec![0x5A; BLOCK_BYTES]).expect("write");
    assert_eq!(client.read(1).expect("read"), vec![0x5A; BLOCK_BYTES]);
}

#[test]
fn garbage_magic_gets_typed_error_then_close() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    expect_error_frame(&mut stream, ErrorCode::BadMagic);
    assert!(closed(&mut stream), "fatal errors close the connection");
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn wrong_version_gets_typed_error_then_close() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    let mut header = encode_header(KIND_READ, 1, 8);
    header[2] = PROTOCOL_VERSION + 1;
    stream.write_all(&header).unwrap();
    stream.write_all(&0u64.to_le_bytes()).unwrap();
    expect_error_frame(&mut stream, ErrorCode::BadVersion);
    assert!(closed(&mut stream));
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn oversized_length_prefix_is_refused_without_allocation() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    // Claim a body just past the cap; the server must answer from the
    // header alone (the body never arrives).
    let too_big = u32::try_from(MAX_FRAME_BODY + 1).expect("fits u32");
    let mut header = encode_header(KIND_READ, 9, 0);
    header[12..16].copy_from_slice(&too_big.to_le_bytes());
    stream.write_all(&header).unwrap();
    expect_error_frame(&mut stream, ErrorCode::Oversized);
    assert!(closed(&mut stream));
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn unknown_opcode_is_recoverable() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    stream.write_all(&encode_header(0x7E, 4, 0)).unwrap();
    expect_error_frame(&mut stream, ErrorCode::UnknownOp);
    // Recoverable: the same connection can still say hello and work.
    let (kind, body) = oram_net::wire::encode_request(&oram_net::WireRequest::Hello {
        tenant: "default".to_string(),
    });
    write_frame(&mut stream, kind, 5, &body).unwrap();
    let (header, _body) = read_frame(&mut stream).unwrap().expect("hello answer");
    assert_eq!(header.kind, oram_net::wire::KIND_R_HELLO);
    assert_eq!(header.request_id, 5);
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn truncated_header_then_disconnect_is_a_clean_close() {
    let server = spawn_server(default_config());
    for cut in [1, 7, 15] {
        let mut stream = raw_connect(server.local_addr());
        let header = encode_header(KIND_READ, 2, 8);
        stream.write_all(&header[..cut]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // The server just drops the torn connection; no panic, no hang.
        assert!(closed(&mut stream));
    }
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn mid_body_disconnect_is_a_clean_close() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    // Header promises 8 bytes; send 3 and vanish.
    stream.write_all(&encode_header(KIND_READ, 3, 8)).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    assert!(closed(&mut stream));
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn malformed_bodies_are_recoverable_typed_errors() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());

    // READ with a short body.
    write_frame(&mut stream, KIND_READ, 1, &[1, 2, 3]).unwrap();
    expect_error_frame(&mut stream, ErrorCode::Malformed);

    // HELLO whose tenant_len overruns the body.
    let mut lying_hello = 200u16.to_le_bytes().to_vec();
    lying_hello.extend_from_slice(b"short");
    write_frame(&mut stream, KIND_HELLO, 2, &lying_hello).unwrap();
    expect_error_frame(&mut stream, ErrorCode::Malformed);

    // BATCH whose count promises more items than the body holds.
    let mut lying_batch = 5u32.to_le_bytes().to_vec();
    lying_batch.push(KIND_READ);
    lying_batch.extend_from_slice(&0u64.to_le_bytes());
    write_frame(&mut stream, KIND_BATCH, 3, &lying_batch).unwrap();
    expect_error_frame(&mut stream, ErrorCode::Malformed);

    // BATCH past the item cap.
    let huge_batch = (MAX_BATCH_ITEMS + 1).to_le_bytes().to_vec();
    write_frame(&mut stream, KIND_BATCH, 4, &huge_batch).unwrap();
    expect_error_frame(&mut stream, ErrorCode::BatchTooLarge);

    // The same connection still works after all of that.
    let (kind, body) = oram_net::wire::encode_request(&oram_net::WireRequest::Hello {
        tenant: "default".to_string(),
    });
    write_frame(&mut stream, kind, 9, &body).unwrap();
    let (header, _body) = read_frame(&mut stream).unwrap().expect("hello answer");
    assert_eq!(header.kind, oram_net::wire::KIND_R_HELLO);

    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn seeded_garbage_blobs_never_panic_the_server() {
    let server = spawn_server(default_config());
    // Deterministic xorshift junk: some blobs will happen to start with
    // plausible bytes, which is the point.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..32 {
        let mut stream = raw_connect(server.local_addr());
        let len = 1 + usize::try_from(next() % 256).expect("small");
        let mut blob = Vec::with_capacity(len);
        while blob.len() < len {
            blob.extend_from_slice(&next().to_le_bytes());
        }
        blob.truncate(len);
        if round % 4 == 0 {
            // Lead with real magic so the fuzz reaches deeper layers.
            blob[0] = b'O';
            if blob.len() > 1 {
                blob[1] = b'N';
            }
        }
        let _ = stream.write_all(&blob);
        let _ = stream.shutdown(Shutdown::Write);
        // Drain whatever the server answers until it closes; content
        // doesn't matter, surviving does.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn data_requests_before_hello_are_refused() {
    let server = spawn_server(default_config());
    let mut stream = raw_connect(server.local_addr());
    write_frame(&mut stream, KIND_READ, 1, &0u64.to_le_bytes()).unwrap();
    expect_error_frame(&mut stream, ErrorCode::NoHello);
    assert_still_serving(&server);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn unknown_tenants_are_refused_by_name() {
    let server = spawn_server(default_config());
    match NetClient::connect(server.local_addr(), "nobody") {
        Err(oram_net::ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::UnknownTenant);
        }
        Err(other) => panic!("expected an UnknownTenant error, got {other:?}"),
        Ok(_) => panic!("expected an UnknownTenant error, got a session"),
    }
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn tenant_namespaces_are_disjoint() {
    let server = spawn_server(ServerConfig {
        tenants: vec![
            TenantSpec {
                name: "alpha".to_string(),
                blocks: 8,
            },
            TenantSpec {
                name: "beta".to_string(),
                blocks: 8,
            },
        ],
        max_inflight: 64,
    });
    let mut alpha = NetClient::connect(server.local_addr(), "alpha").unwrap();
    let mut beta = NetClient::connect(server.local_addr(), "beta").unwrap();
    assert_eq!(alpha.session().num_blocks, 8);

    // Same tenant-relative address, different tenants: no crosstalk.
    alpha.write(3, vec![0xAA; BLOCK_BYTES]).unwrap();
    beta.write(3, vec![0xBB; BLOCK_BYTES]).unwrap();
    assert_eq!(alpha.read(3).unwrap(), vec![0xAA; BLOCK_BYTES]);
    assert_eq!(beta.read(3).unwrap(), vec![0xBB; BLOCK_BYTES]);

    // A tenant cannot name blocks past its range, even though the global
    // space is larger.
    match alpha.read(8) {
        Err(oram_net::ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::AddrOutOfRange);
        }
        other => panic!("expected AddrOutOfRange, got {other:?}"),
    }
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn write_size_mismatch_is_typed() {
    let server = spawn_server(default_config());
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    for bad_len in [0, BLOCK_BYTES - 1, BLOCK_BYTES + 1] {
        match client.write(0, vec![0; bad_len]) {
            Err(oram_net::ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::SizeMismatch);
            }
            other => panic!("expected SizeMismatch for {bad_len} bytes, got {other:?}"),
        }
    }
    // The connection survives recoverable errors.
    client.write(0, vec![1; BLOCK_BYTES]).unwrap();
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn quota_rejects_whole_batches_over_the_cap() {
    let server = spawn_server(ServerConfig::single_tenant(BLOCKS, 4));
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    assert_eq!(client.session().max_inflight, 4);

    // Four items fit the quota exactly.
    let ok: Vec<Request> = (0..4).map(|i| Request::Read { addr: i }).collect();
    assert_eq!(client.batch(ok).unwrap().len(), 4);

    // Five can never be admitted: refused without touching the ORAM.
    let too_many: Vec<Request> = (0..5).map(|i| Request::Read { addr: i }).collect();
    match client.batch(too_many) {
        Err(oram_net::ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::QuotaExceeded);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    let stats = server.tenant_stats("default").expect("tenant exists");
    assert_eq!(stats.quota_rejections, 1);
    assert_eq!(stats.requests, 4, "the refused batch never counted");
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn pipelined_requests_answer_in_order_with_matching_ids() {
    let server = spawn_server(default_config());
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    // Queue a window of writes then reads without receiving anything.
    let mut expected = Vec::new();
    for i in 0..8u64 {
        let data = vec![u8::try_from(i).expect("small") + 1; BLOCK_BYTES];
        let id = client
            .send_request(&oram_net::WireRequest::Write {
                addr: i,
                data: data.clone(),
            })
            .unwrap();
        expected.push((id, None));
        let id = client
            .send_request(&oram_net::WireRequest::Read { addr: i })
            .unwrap();
        expected.push((id, Some(data)));
    }
    for (want_id, want_data) in expected {
        let (got_id, response) = client.recv_response().unwrap();
        assert_eq!(got_id, want_id, "responses arrive in request order");
        match (want_data, response) {
            (None, WireResponse::Done) => {}
            (Some(want), WireResponse::Data(got)) => assert_eq!(got, want),
            (want, got) => panic!("request {want_id}: wanted {want:?}, got {got:?}"),
        }
    }
    assert_eq!(server.panic_count(), 0);
}

/// The server must not leave Nagle's algorithm on.  Two requests go out back
/// to back and the client only reads: the second reply is written while the
/// first is still un-ACKed, so with Nagle it waits for the client's delayed
/// ACK (~40 ms on Linux) instead of leaving at once.  The warm-up takes the
/// connection past the kernel's quick-ACK phase, in which every segment is
/// ACKed immediately and the stall cannot show.
#[test]
fn second_pipelined_reply_is_not_held_for_an_ack() {
    let server = spawn_server(default_config());
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    for _ in 0..64 {
        client.read(0).unwrap();
    }
    let mut waits = Vec::new();
    for _ in 0..20 {
        let sent = Instant::now();
        let first = client.send_request(&WireRequest::Read { addr: 0 }).unwrap();
        let second = client.send_request(&WireRequest::Read { addr: 1 }).unwrap();
        assert_eq!(client.recv_response().unwrap().0, first);
        assert_eq!(client.recv_response().unwrap().0, second);
        waits.push(sent.elapsed());
    }
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "second reply took a median of {median:?}: held for a delayed ACK?"
    );
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn per_tenant_stats_count_operations_and_errors() {
    let server = spawn_server(default_config());
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    client.write(0, vec![7; BLOCK_BYTES]).unwrap();
    client.read(0).unwrap();
    client.read_remove(0).unwrap();
    client
        .batch(vec![
            Request::Read { addr: 1 },
            Request::Write {
                addr: 1,
                data: vec![9; BLOCK_BYTES],
            },
        ])
        .unwrap();
    let _ = client.read(BLOCKS + 5); // AddrOutOfRange → errors += 1

    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 5, "3 singles + 2 batch items");
    assert_eq!(stats.reads, 2);
    assert_eq!(stats.writes, 2);
    assert_eq!(stats.read_removes, 1);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.quota_rejections, 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);

    // The server-side view agrees.
    let server_view = server.tenant_stats("default").expect("tenant exists");
    assert_eq!(server_view.requests, stats.requests);
    assert_eq!(server_view.errors, stats.errors);
    assert_eq!(server.panic_count(), 0);
}

#[test]
fn shutdown_tears_down_while_connections_are_open() {
    let server = spawn_server(default_config());
    let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
    client.write(0, vec![1; BLOCK_BYTES]).unwrap();
    let addr = server.local_addr();
    server.shutdown().expect("clean shutdown");
    // The port is no longer served.
    assert!(
        client.read(0).is_err(),
        "connection should be dead after shutdown"
    );
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
            || closed(&mut raw_connect(addr)),
        "listener should be gone"
    );
}
