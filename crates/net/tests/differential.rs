//! Differential check: the TCP path is a transparent wrapper.
//!
//! A sharded ORAM service behind a [`NetServer`], driven through
//! [`NetClient`] over a real socket, must answer a seeded mixed schedule —
//! single reads, writes and read-removes, and batches of one to eight — as
//! the flat oracle does, response by response.  Any framing, translation,
//! or ordering bug in the network layer shows up as a divergence here.

use freecursive::{Oram, OramBuilder, OramService, Request, Response, SchemePoint};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{answers, flat, schedule};
use oram_net::{NetClient, NetServer, ServerConfig, TenantSpec, WireResult};

const BLOCK_BYTES: usize = 32;
const BLOCKS: u64 = 128;
const SEED: u64 = 0xD1FF_0001;
const STEPS: usize = 400;

fn build_service() -> OramService {
    // A real (PLB-enabled) scheme, small enough for the test budget: the
    // wire layer must be transparent over the production stack, not just
    // the insecure baseline.
    OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(BLOCKS)
        .block_bytes(BLOCK_BYTES)
        .shards(2)
        .seed(SEED)
        .build_service()
        .expect("service")
}

/// `request` as a single-op READ, WRITE or READ_REMOVE frame.
fn single(tcp: &mut NetClient, request: Request) -> Response {
    let addr = request.addr();
    let data = match request {
        Request::Read { addr } => Some(tcp.read(addr).expect("tcp read")),
        Request::Write { addr, data } => {
            tcp.write(addr, data).expect("tcp write");
            None
        }
        Request::ReadRemove { addr } => Some(tcp.read_remove(addr).expect("tcp read_remove")),
    };
    Response { addr, data }
}

/// `requests` as one BATCH frame.
fn batch(tcp: &mut NetClient, requests: &[Request]) -> Vec<Response> {
    let results = tcp.batch(requests.to_vec()).expect("tcp batch");
    assert_eq!(results.len(), requests.len(), "one result per batch item");
    requests
        .iter()
        .zip(results)
        .map(|(request, result)| Response {
            addr: request.addr(),
            data: match result {
                WireResult::Data(data) => Some(data),
                WireResult::Done => None,
            },
        })
        .collect()
}

#[test]
fn tcp_responses_are_byte_identical_to_in_process_responses() {
    // One tenant covering every block, so tenant-relative and global
    // addresses coincide.
    let server = NetServer::spawn(
        build_service(),
        ServerConfig::single_tenant(BLOCKS, 1024),
        "127.0.0.1:0",
    )
    .expect("spawn");
    let mut tcp = NetClient::connect(server.local_addr(), "default").expect("connect");
    let mut oracle = flat(BLOCKS, BLOCK_BYTES);

    // Four steps in five are single ops (4:3:1 reads, writes and
    // read-removes); every fifth is a batch of one to eight.
    let is_batch = |step: usize| step % 5 == 4;
    let sizes: Vec<usize> = (0..STEPS)
        .map(|step| if is_batch(step) { 1 + step / 5 % 8 } else { 1 })
        .collect();
    let mix = [Read, Read, Read, Read, Write, Write, Write, ReadRemove];
    let requests = schedule(
        0xACE5_5EED,
        sizes.iter().sum(),
        0..BLOCKS,
        BLOCK_BYTES,
        &mix,
    );
    let mut next = 0;
    for (step, size) in sizes.into_iter().enumerate() {
        let items = &requests[next..next + size];
        next += size;
        let over_tcp = if is_batch(step) {
            batch(&mut tcp, items)
        } else {
            vec![single(&mut tcp, items[0].clone())]
        };
        assert_eq!(over_tcp, answers(&mut oracle, items), "step {step}");
    }
    for addr in 0..BLOCKS {
        assert_eq!(
            tcp.read(addr).expect("tcp read"),
            oracle.read(addr).unwrap(),
            "final contents of block {addr}"
        );
    }

    assert_eq!(server.panic_count(), 0);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn tenant_offset_translation_is_transparent() {
    // Two tenants; "beta" starts at global base 32.  Writing beta-relative
    // addr k must land exactly at global 32 + k, and nowhere in alpha's
    // range.
    let server = NetServer::spawn(
        build_service(),
        ServerConfig {
            tenants: vec![
                TenantSpec {
                    name: "alpha".to_string(),
                    blocks: 32,
                },
                TenantSpec {
                    name: "beta".to_string(),
                    blocks: 64,
                },
            ],
            max_inflight: 256,
        },
        "127.0.0.1:0",
    )
    .expect("spawn");
    let mut alpha = NetClient::connect(server.local_addr(), "alpha").expect("connect");
    let mut beta = NetClient::connect(server.local_addr(), "beta").expect("connect");
    let mut oracle = flat(BLOCKS, BLOCK_BYTES);

    for request in schedule(42, 32, 0..64, BLOCK_BYTES, &[Write]) {
        let Request::Write { addr, data } = request else {
            unreachable!("an all-write schedule")
        };
        beta.write(addr, data.clone()).expect("tcp write");
        oracle.write(32 + addr, &data).unwrap();
    }
    for addr in 0..32 {
        assert_eq!(
            alpha.read(addr).expect("tcp read"),
            oracle.read(addr).unwrap(),
            "alpha-relative {addr} diverged"
        );
    }
    for addr in 0..64 {
        assert_eq!(
            beta.read(addr).expect("tcp read"),
            oracle.read(32 + addr).unwrap(),
            "beta-relative {addr} diverged"
        );
    }

    assert_eq!(server.panic_count(), 0);
    server.shutdown().expect("clean shutdown");
}
