//! Integration tests for the backend-generic `ObliviousMemory` API: the
//! `OramBuilder` round-trip over every `SchemePoint`, object safety of the
//! `Oram` trait, the `access_batch` equivalence guarantee, and the
//! `OramBackend` seam.

use freecursive::{
    FreecursiveError, InsecureBackend, Oram, OramBuilder, Request, Response, SchemePoint,
};
use freecursive_repro::Op::{Read, ReadRemove, Write};
use freecursive_repro::{agree, answers, flat, same_contents, schedule};

const N: u64 = 1 << 10;
const BLOCK: usize = 32;

fn small_builder(scheme: SchemePoint) -> OramBuilder {
    OramBuilder::for_scheme(scheme)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
}

/// Every scheme point constructs through the builder and serves a mixed
/// workload of 200 accesses against the flat oracle.
#[test]
fn every_scheme_point_builds_and_serves_mixed_accesses() {
    for scheme in SchemePoint::all_points() {
        let mut oram = small_builder(scheme)
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
        assert_eq!(oram.num_blocks(), N, "{}", scheme.label());
        assert_eq!(oram.block_bytes(), BLOCK, "{}", scheme.label());

        let requests = schedule(
            0xA11 ^ scheme.label().len() as u64,
            200,
            0..N,
            BLOCK,
            &[Write, Write, Read, ReadRemove],
        );
        agree(&mut oram, &mut flat(N, BLOCK), &requests, scheme.label());
        assert_eq!(oram.stats().frontend_requests, 200, "{}", scheme.label());
    }
}

/// The `Oram` trait is object-safe: heterogeneous design points can be
/// collected, dispatched and served through `Box<dyn Oram>`.
#[test]
fn oram_trait_objects_serve_requests() {
    let mut orams: Vec<(SchemePoint, Box<dyn Oram>)> = SchemePoint::all_points()
        .into_iter()
        .map(|s| (s, small_builder(s).build().unwrap()))
        .collect();
    for (scheme, oram) in &mut orams {
        oram.write(1, &[0x42; BLOCK]).unwrap();
        let response = oram
            .access(Request::Read { addr: 1 })
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
        assert_eq!(response.data.as_deref(), Some(&[0x42u8; BLOCK][..]));
        // Errors come through the unified enum regardless of the frontend.
        assert!(matches!(oram.read(N), Err(FreecursiveError::Backend(_))));
    }
}

/// `access_batch` on a 1k-request mixed trace and sequential
/// `read`/`write`/`read_remove` calls both match the flat oracle, responses
/// and final contents — on the full design and on the baseline, over both
/// backends.
#[test]
fn access_batch_equals_sequential_on_a_1k_mixed_trace() {
    let requests = schedule(
        0xBA7C4,
        1000,
        0..N,
        BLOCK,
        &[Read, Read, Write, Write, ReadRemove],
    );
    let mut oracle = flat(N, BLOCK);
    let expected = answers(&mut oracle, &requests);

    for scheme in [SchemePoint::PicX32, SchemePoint::RX8, SchemePoint::Insecure] {
        let label = scheme.label();
        let mut batched = small_builder(scheme).build().unwrap();
        let mut sequential = small_builder(scheme).build().unwrap();

        assert_eq!(
            batched.access_batch(&requests).unwrap(),
            expected,
            "{label}"
        );
        // Drive the sequential subject exclusively through the convenience
        // wrappers, reconstructing the responses.
        let seq_responses: Vec<Response> = requests
            .iter()
            .map(|request| match request {
                Request::Read { addr } => Response {
                    addr: *addr,
                    data: Some(sequential.read(*addr).unwrap()),
                },
                Request::Write { addr, data } => {
                    sequential.write(*addr, data).unwrap();
                    Response {
                        addr: *addr,
                        data: None,
                    }
                }
                Request::ReadRemove { addr } => Response {
                    addr: *addr,
                    data: Some(sequential.read_remove(*addr).unwrap()),
                },
            })
            .collect();
        assert_eq!(seq_responses, expected, "{label} sequential");

        same_contents(&mut batched, &mut oracle, format!("{label} batched"));
        same_contents(&mut sequential, &mut oracle, format!("{label} sequential"));
    }
}

/// A batch that fails mid-way stops at the failing request.
#[test]
fn access_batch_stops_at_the_first_error() {
    let mut oram = small_builder(SchemePoint::PicX32).build().unwrap();
    let requests = vec![
        Request::Write {
            addr: 1,
            data: vec![7u8; BLOCK],
        },
        Request::Read { addr: N }, // out of range
        Request::Write {
            addr: 2,
            data: vec![9u8; BLOCK],
        },
    ];
    assert!(oram.access_batch(&requests).is_err());
    // The first write landed, the one after the failure did not.
    assert_eq!(oram.read(1).unwrap(), vec![7u8; BLOCK]);
    assert_eq!(oram.read(2).unwrap(), vec![0u8; BLOCK]);
}

/// The `OramBackend` seam: the same frontend configuration runs over the
/// Path ORAM tree and over the flat insecure backend, each with the flat
/// oracle's contents semantics.
#[test]
fn freecursive_frontend_is_backend_generic() {
    let builder = small_builder(SchemePoint::PicX32);
    let mut on_tree = builder.build_freecursive().unwrap();
    let mut on_flat = builder.build_freecursive_on::<InsecureBackend>().unwrap();

    let requests = schedule(7, 400, 0..N, BLOCK, &[Write, Read]);
    agree(&mut on_tree, &mut flat(N, BLOCK), &requests, "tree");
    agree(&mut on_flat, &mut flat(N, BLOCK), &requests, "flat backend");
    // Both ran the full frontend: same request counts, PMMAC active on both.
    assert_eq!(
        on_tree.stats().frontend_requests,
        on_flat.stats().frontend_requests
    );
    assert!(on_tree.stats().macs_verified > 0);
    assert!(on_flat.stats().macs_verified > 0);
}
