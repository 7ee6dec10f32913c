//! Stand-alone ORAM network server: builds an `OramService` and serves it
//! over TCP with the `oram-net` wire protocol until killed.
//!
//! Usage: `cargo run --release -p bench --bin oram_server -- [flags]`
//!
//! Flags (all optional):
//!
//! * `--bind <addr>` — listen address (default `127.0.0.1:4600`; use port
//!   0 for an ephemeral port, printed on startup).
//! * `--scheme <name>` — `insecure`, `p_x16`, `pc_x32`, or `pic_x32`
//!   (default `pic_x32`, the complete Freecursive design point).
//! * `--blocks <n>` — global capacity in blocks (default `1048576`).
//! * `--block-bytes <n>` — block size (default `64`).
//! * `--shards <n>` — shard worker count (default `2`).
//! * `--tenants <spec>` — comma-separated `name:blocks` list carving the
//!   global space in order (default one `default` tenant covering all
//!   blocks).  The blocks must sum to at most `--blocks`.
//! * `--max-inflight <n>` — per-tenant in-flight item quota (default
//!   `1024`).
//!
//! A misspelled flag (`--shard 4`), a flag missing its value, a value that
//! does not parse (`--scheme pic_x33`, `--tenants alpha`), or sizes the
//! builder rejects (`--blocks 0`, `--blocks 1099511627776`) exit with code 2
//! and a usage line rather than being ignored or panicking
//! (`bench::harness`).
//!
//! The server prints `listening on <addr>` once ready — `loadgen --addr`
//! (or any wire-protocol client) can attach from there.

use bench::harness::Flags;
use freecursive::{OramBuilder, SchemePoint};
use oram_net::{NetServer, ServerConfig, TenantSpec};

/// The `--scheme` value as a scheme point.
fn parse_scheme(name: &str) -> Result<SchemePoint, String> {
    match name {
        "insecure" => Ok(SchemePoint::Insecure),
        "p_x16" => Ok(SchemePoint::PX16),
        "pc_x32" => Ok(SchemePoint::PcX32),
        "pic_x32" => Ok(SchemePoint::PicX32),
        other => Err(format!(
            "unknown --scheme {other:?}: expected insecure, p_x16, pc_x32 or pic_x32"
        )),
    }
}

/// The `--tenants` value: comma-separated `name:blocks` pairs.
fn parse_tenants(spec: &str) -> Result<Vec<TenantSpec>, String> {
    spec.split(',')
        .map(|part| {
            let (name, blocks) = part
                .split_once(':')
                .ok_or_else(|| format!("--tenants: {part:?} is not name:blocks"))?;
            let blocks = blocks
                .parse()
                .map_err(|e| format!("--tenants: {part:?} block count: {e}"))?;
            Ok(TenantSpec {
                name: name.to_string(),
                blocks,
            })
        })
        .collect()
}

fn main() {
    let flags = Flags::from_env(&[
        ("--bind", Some("<addr>")),
        ("--scheme", Some("<name>")),
        ("--blocks", Some("<n>")),
        ("--block-bytes", Some("<n>")),
        ("--shards", Some("<n>")),
        ("--tenants", Some("<name:blocks,...>")),
        ("--max-inflight", Some("<n>")),
    ]);
    let bind = flags.value("--bind").unwrap_or("127.0.0.1:4600");
    let scheme = parse_scheme(flags.value("--scheme").unwrap_or("pic_x32"))
        .unwrap_or_else(|e| flags.reject(&e));
    let num_blocks: u64 = flags.parsed("--blocks").unwrap_or(1 << 20);
    let block_bytes: usize = flags.parsed("--block-bytes").unwrap_or(64);
    let shards: u64 = flags.parsed("--shards").unwrap_or(2);
    let max_inflight: u64 = flags.parsed("--max-inflight").unwrap_or(1024);
    let tenants = match flags.value("--tenants") {
        Some(spec) => parse_tenants(spec).unwrap_or_else(|e| flags.reject(&e)),
        None => vec![TenantSpec {
            name: "default".to_string(),
            blocks: num_blocks,
        }],
    };

    eprintln!(
        "building {scheme:?} service: {num_blocks} blocks x {block_bytes} B, {shards} shard(s)"
    );
    let service = OramBuilder::for_scheme(scheme)
        .num_blocks(num_blocks)
        .block_bytes(block_bytes)
        .shards(shards)
        .build_service()
        .unwrap_or_else(|e| flags.reject(&format!("cannot build the service: {e}")));
    let server = NetServer::spawn(
        service,
        ServerConfig {
            tenants,
            max_inflight,
        },
        bind,
    )
    .expect("server spawns");

    // Stdout so scripts can scrape the (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());

    // Serve until the process is killed; the kernel reaps the sockets and
    // the in-memory ORAM needs no orderly teardown.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scheme_accepts_the_four_points_and_names_a_bad_one() {
        assert_eq!(parse_scheme("insecure"), Ok(SchemePoint::Insecure));
        assert_eq!(parse_scheme("p_x16"), Ok(SchemePoint::PX16));
        assert_eq!(parse_scheme("pc_x32"), Ok(SchemePoint::PcX32));
        assert_eq!(parse_scheme("pic_x32"), Ok(SchemePoint::PicX32));
        for bad in ["", "PIC_X32", "pic_x33", "pic_x32 "] {
            let err = parse_scheme(bad).unwrap_err();
            assert!(
                err.contains("--scheme") && err.contains("pic_x32"),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn sizes_the_builder_rejects_are_errors_for_main_to_reject() {
        for blocks in [0, 1 << 40] {
            let built = OramBuilder::for_scheme(SchemePoint::PicX32)
                .num_blocks(blocks)
                .shards(2)
                .build_service();
            assert!(built.is_err(), "--blocks {blocks}");
        }
    }

    #[test]
    fn parse_tenants_reads_pairs_in_order_and_rejects_malformed_ones() {
        let tenants = parse_tenants("alpha:32768,beta:16").unwrap();
        let pairs: Vec<_> = tenants
            .iter()
            .map(|t| (t.name.as_str(), t.blocks))
            .collect();
        assert_eq!(pairs, [("alpha", 32768), ("beta", 16)]);
        for bad in [
            "alpha",
            "alpha:",
            "alpha:12x",
            "alpha:1,beta",
            "alpha:-1",
            "",
        ] {
            let err = parse_tenants(bad).unwrap_err();
            assert!(err.starts_with("--tenants"), "{bad:?}: {err}");
        }
    }
}
