//! Integration tests for the sharded oblivious memory service: the
//! `ShardedOram` composite and the worker-thread `OramService` are checked
//! byte-identical against the flat oracle on seeded mixed workloads —
//! including concurrent clients and a final contents sweep — and worker
//! panics are shown to surface as `FreecursiveError::Service` rather than
//! hangs.

use freecursive::{
    FreecursiveError, FrontendStats, InsecureOram, Oram, OramBuilder, OramService, Request,
    Response, SchemePoint,
};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{answers, flat, same_contents, schedule, Op};

const N: u64 = 256;
const BLOCK: usize = 64;
/// 2:2:1 reads, writes and read-removes.
const MIX: [Op; 5] = [Read, Read, Write, Write, ReadRemove];

/// The full PIC_X32 design at a debug-friendly size; encryption stays at
/// the scheme default (AES global seed), so both CI engine legs exercise
/// the real cipher through every shard.
fn small_builder() -> OramBuilder {
    OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(32)
}

/// A 5k-request seeded mixed workload through `ShardedOram` at 1, 2 and 4
/// shards is byte-identical — responses and final contents — to the flat
/// oracle serving the same trace.
#[test]
fn sharded_composite_matches_the_single_instance_oracle() {
    let requests = schedule(0x5AAD, 5000, 0..N, BLOCK, &MIX);
    let mut oracle = flat(N, BLOCK);
    let expected = answers(&mut oracle, &requests);

    for shards in [1u64, 2, 4] {
        let mut sharded = small_builder().shards(shards).build_sharded().unwrap();
        assert_eq!(sharded.num_blocks(), N, "{shards} shards");

        // Mixed submission granularity: batches of 512 via the owned hot
        // path, remainder through single accesses.
        let mut responses = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(512) {
            if chunk.len() == 512 {
                responses.extend(sharded.access_batch_owned(chunk.to_vec()).unwrap());
            } else {
                for request in chunk {
                    responses.push(sharded.access(request.clone()).unwrap());
                }
            }
        }
        assert_eq!(responses, expected, "{shards} shards: responses diverge");

        same_contents(&mut sharded, &mut oracle, format!("{shards} shards"));

        // The merged stats saw the whole workload (5000 requests + the
        // sweep just performed), and per-shard stats partition it.
        let merged = sharded.stats().clone();
        assert_eq!(merged.frontend_requests, 5000 + N);
        let per_shard: u64 = sharded
            .shard_stats()
            .iter()
            .map(|s| s.frontend_requests)
            .sum();
        assert_eq!(per_shard, merged.frontend_requests);
    }
}

/// Four clients drive one 4-shard `OramService` concurrently over disjoint
/// address ranges; every client's responses and the final contents are
/// byte-identical to the flat oracle serving the same per-client traces
/// sequentially.  (Disjoint high-bit ranges make the outcome
/// interleaving-independent, while low-bit routing still spreads every
/// client across all four shards.)
#[test]
fn concurrent_service_clients_match_the_single_instance_oracle() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 1250;

    let service = small_builder().shards(4).build_service().unwrap();

    // Client c owns the address range [c * N/4, (c+1) * N/4).
    let span = N / CLIENTS as u64;
    let client_requests: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| {
            let addrs = c as u64 * span..(c as u64 + 1) * span;
            schedule(0xC11E_0000 + c as u64, PER_CLIENT, addrs, BLOCK, &MIX)
        })
        .collect();

    let handles: Vec<_> = client_requests
        .iter()
        .map(|requests| {
            let mut client = service.client();
            let requests = requests.clone();
            std::thread::spawn(move || {
                let mut responses = Vec::with_capacity(requests.len());
                // Mixed submission styles: sync batches, pipelined
                // submit/wait pairs, and single accesses.
                for (i, chunk) in requests.chunks(100).enumerate() {
                    match i % 3 {
                        0 => responses.extend(client.access_batch(chunk).unwrap()),
                        1 => {
                            let pending = client.submit(chunk.to_vec()).unwrap();
                            responses.extend(pending.wait().unwrap());
                        }
                        _ => {
                            for request in chunk {
                                responses.push(client.access(request.clone()).unwrap());
                            }
                        }
                    }
                }
                responses
            })
        })
        .collect();
    let actual: Vec<Vec<Response>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Oracle: same per-client traces, applied sequentially (any client
    // order gives the same answer because the address sets are disjoint).
    let mut oracle = flat(N, BLOCK);
    for (client, requests) in client_requests.iter().enumerate() {
        let expected = answers(&mut oracle, requests);
        assert_eq!(
            actual[client], expected,
            "client {client} responses diverge"
        );
    }

    // Final contents sweep through a fresh client, against the oracle.
    let mut sweeper = service.client();
    same_contents(&mut sweeper, &mut oracle, "final contents");

    // The merged service stats account for every request all clients sent
    // (4 x 1250 + the N-sweep).
    let stats = sweeper.fetch_stats().unwrap();
    assert_eq!(stats.frontend_requests, (CLIENTS * PER_CLIENT) as u64 + N);

    // Shutdown hands the shards back; their summed capacity is the global.
    let shards = service.shutdown().unwrap();
    assert_eq!(shards.iter().map(|s| s.num_blocks()).sum::<u64>(), N);
}

/// A flat memory that panics on a chosen address — fault injection for
/// the worker-failure path.
struct PanickingOram {
    flat: InsecureOram,
    panic_addr: u64,
}

impl PanickingOram {
    fn new(num_blocks: u64, panic_addr: u64) -> Self {
        Self {
            flat: flat(num_blocks, BLOCK),
            panic_addr,
        }
    }
}

impl Oram for PanickingOram {
    fn block_bytes(&self) -> usize {
        self.flat.block_bytes()
    }

    fn num_blocks(&self) -> u64 {
        self.flat.num_blocks()
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        let addr = request.addr();
        assert!(addr != self.panic_addr, "injected fault at address {addr}");
        self.flat.access(request)
    }

    fn stats(&self) -> &FrontendStats {
        self.flat.stats()
    }

    fn reset_stats(&mut self) {
        self.flat.reset_stats();
    }
}

/// A worker that panics mid-batch surfaces as `FreecursiveError::Service`
/// on the submitting client, on later submissions, and on shutdown — never
/// as a hang — while the surviving shards keep serving.
#[test]
fn a_panicking_worker_yields_service_errors_not_deadlocks() {
    // Global address 6 routes to shard 0 (6 mod 2) at intra-shard address
    // 3: shard 0 is rigged to blow up there, shard 1 is healthy.
    let shards: Vec<Box<dyn Oram>> = vec![
        Box::new(PanickingOram::new(8, 3)),
        Box::new(PanickingOram::new(8, u64::MAX)),
    ];
    let service = OramService::from_shards(shards).unwrap();
    let mut client = service.client();
    let mut second_client = service.client();

    client.write(0, &[1u8; BLOCK]).unwrap();

    // The batch hits the rigged address: the worker's panic comes back as
    // a Service error carrying the panic message.
    let err = client
        .access_batch(&[
            Request::Read { addr: 0 },
            Request::Read { addr: 6 }, // boom on shard 0
        ])
        .unwrap_err();
    match &err {
        FreecursiveError::Service { detail } => {
            assert!(detail.contains("panicked"), "unexpected detail: {detail}")
        }
        other => panic!("expected Service error, got {other:?}"),
    }

    // Later interactions with the dead shard fail fast on every client.
    assert!(matches!(
        client.read(0),
        Err(FreecursiveError::Service { .. })
    ));
    assert!(matches!(
        second_client.read(2), // also shard 0
        Err(FreecursiveError::Service { .. })
    ));
    assert!(matches!(
        second_client.fetch_stats(),
        Err(FreecursiveError::Service { .. })
    ));

    // The healthy shard keeps serving odd addresses (shard 1).
    second_client.write(1, &[7u8; BLOCK]).unwrap();
    assert_eq!(second_client.read(1).unwrap(), vec![7u8; BLOCK]);

    // Shutdown reports the casualty but still reaps every worker thread.
    assert!(matches!(
        service.shutdown(),
        Err(FreecursiveError::Service { .. })
    ));
}

/// A cross-shard batch that routes to an already-dead shard fails
/// *side-effect-free*: `submit` pre-checks worker liveness for every shard
/// the batch touches before dispatching anything, matching
/// `ShardRouter::partition`'s validate-before-dispatch discipline.  (Before
/// this check, the fan-out fed earlier live shards first and only then hit
/// the dead worker's disconnected channel, leaving the live shards mutated
/// by a failed submit.)
#[test]
fn submit_to_a_dead_shard_leaves_live_shards_untouched() {
    // Shard 0 is rigged to blow up at intra-shard address 3 (global 6);
    // shard 1 is healthy.
    let shards: Vec<Box<dyn Oram>> = vec![
        Box::new(PanickingOram::new(8, 3)),
        Box::new(PanickingOram::new(8, u64::MAX)),
    ];
    let service = OramService::from_shards(shards).unwrap();
    let mut client = service.client();

    // Seed a known value on the healthy shard (global 1 -> shard 1).
    client.write(1, &[0xAAu8; BLOCK]).unwrap();
    assert!(client.is_worker_live(0) && client.is_worker_live(1));

    // Kill shard 0's worker.  Once the panic error has been delivered, the
    // liveness table is guaranteed to show the retirement (the worker
    // clears its flag before sending the reply).
    let err = client.read(6).unwrap_err();
    assert!(matches!(err, FreecursiveError::Service { .. }), "{err:?}");
    assert!(!client.is_worker_live(0));
    assert!(client.is_worker_live(1));

    // A batch touching BOTH shards — with the shard-1 writes *first* in
    // batch order — must fail without executing anything anywhere.
    let err = client
        .submit(vec![
            Request::Write {
                addr: 1, // shard 1: would overwrite the seeded value
                data: vec![0xBBu8; BLOCK],
            },
            Request::ReadRemove { addr: 3 }, // shard 1: would zero the block
            Request::Read { addr: 0 },       // shard 0: dead
        ])
        .unwrap_err();
    assert!(matches!(err, FreecursiveError::Service { .. }), "{err:?}");

    // The healthy shard neither saw the write nor the read-remove.
    assert_eq!(client.read(1).unwrap(), vec![0xAAu8; BLOCK]);
    // Shutdown still reports the casualty.
    assert!(matches!(
        service.shutdown(),
        Err(FreecursiveError::Service { .. })
    ));
}

/// The liveness pre-check only fires for shards the batch actually
/// touches: single-shard batches to healthy shards keep working after
/// another shard dies, and an all-live batch still round-trips.
#[test]
fn liveness_precheck_scopes_to_touched_shards() {
    let shards: Vec<Box<dyn Oram>> = vec![
        Box::new(PanickingOram::new(8, 0)), // dies on its first access
        Box::new(PanickingOram::new(8, u64::MAX)),
    ];
    let service = OramService::from_shards(shards).unwrap();
    let mut client = service.client();
    assert!(client.read(0).is_err()); // kill shard 0
    for round in 0..3u8 {
        // Shard-1-only batches must not be blocked by shard 0's corpse.
        let responses = client
            .submit(vec![
                Request::Write {
                    addr: 1,
                    data: vec![round; BLOCK],
                },
                Request::Read { addr: 1 },
            ])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(responses[1].data(), Some(&[round; BLOCK][..]));
    }
}
