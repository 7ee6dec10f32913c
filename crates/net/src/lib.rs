//! `oram-net`: a std-only TCP front end for the ORAM service.
//!
//! Three layers, bottom up:
//!
//! * [`wire`] — the length-prefixed binary protocol: a 16-byte versioned
//!   frame header with a request id for pipelining, request/response body
//!   grammars, and typed error frames.  Pure codecs, no sockets.
//! * [`server`] — [`NetServer`] accepts N connections and multiplexes
//!   them onto the shard workers of one `freecursive::OramService`, with
//!   per-tenant address-space namespaces, per-tenant stats, and an
//!   in-flight quota for backpressure.
//! * [`client`] — [`NetClient`], a blocking client with both synchronous
//!   round-trip calls and a split send/receive API for pipelining.
//!
//! # Example
//!
//! ```
//! use freecursive::{OramBuilder, SchemePoint};
//! use oram_net::{NetClient, NetServer, ServerConfig};
//!
//! let service = OramBuilder::for_scheme(SchemePoint::Insecure)
//!     .num_blocks(64)
//!     .block_bytes(16)
//!     .shards(2)
//!     .build_service()
//!     .unwrap();
//! let server = NetServer::spawn(
//!     service,
//!     ServerConfig::single_tenant(64, 256),
//!     "127.0.0.1:0",
//! )
//! .unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), "default").unwrap();
//! client.write(3, vec![0xAB; 16]).unwrap();
//! assert_eq!(client.read(3).unwrap(), vec![0xAB; 16]);
//!
//! server.shutdown().unwrap();
//! ```
//!
//! # Security caveat
//!
//! The ORAM hides *which* block a request touches from an adversary
//! watching the storage backend.  This TCP layer makes no attempt to hide
//! request *timing*, sizes, or per-tenant rates from a network observer —
//! see ROADMAP item 11 (timing protection) before treating the wire as an
//! oblivious channel.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, NetClient, SessionInfo};
pub use server::{NetServer, ServerConfig, TenantSpec};
pub use wire::{ErrorCode, TenantStats, WireError, WireRequest, WireResponse, WireResult};
