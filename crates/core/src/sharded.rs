//! [`ShardedOram`]: an address-partitioned composite over `N` independent
//! ORAM instances that itself implements [`Oram`].
//!
//! Sharding is the scale-out move for an oblivious memory: each shard is a
//! complete, independent ORAM (its own tree, stash, PosMap, and keys), so a
//! deployment can grow capacity and — through [`crate::OramService`] —
//! throughput by adding shards, while the per-shard security argument is
//! exactly the single-instance one.
//!
//! # Routing rule
//!
//! A global address `a` is served by shard `a mod N` at intra-shard address
//! `a div N` (low-bits routing).  Taking the *low* bits spreads sequential
//! scans — the common locality pattern — round-robin across shards, so a
//! streaming workload drives all shards instead of hammering one.
//!
//! # What sharding does and does not leak
//!
//! Within a shard, the untrusted-memory trace is the unmodified Path ORAM
//! trace: accesses to the same shard remain computationally
//! indistinguishable, exactly as in the single-instance argument (§2 of the
//! paper).  Across shards, however, **the choice of shard is visible** to
//! anyone who can observe which shard's memory is touched, and that choice
//! is a deterministic function of the address's low `log2(N)` bits.  Two
//! request sequences that differ in their per-shard request *counts* are
//! therefore distinguishable.  This is inherent to deterministic
//! address-partitioned sharding; deployments that need to hide even the
//! shard distribution must pre-randomize the address space (e.g. apply a
//! fixed secret permutation to addresses before they reach the router) or
//! pad per-shard request counts.  The composite makes no attempt to hide
//! the shard sequence — it composes per-shard obliviousness, nothing more.
//!
//! # Batch semantics
//!
//! [`ShardedOram::access_batch`] is deterministic: the batch is split by
//! shard preserving arrival order within each shard, sub-batches execute
//! shard 0 first, then shard 1, …, and responses are reassembled in request
//! order.  Because requests to *different* addresses commute (and requests
//! to the same address always land on the same shard, in order), the
//! result is byte-identical to sequential execution.  Each shard runs its
//! sub-batch through its own frontend's `access_batch`.  On error the global
//! index of the failing request is reported via
//! [`FreecursiveError::Batch`]; addresses and write sizes are validated
//! up front, before any shard executes, so malformed batches fail without
//! side effects.
//!
//! One contract deviation, stated plainly: the single-instance
//! [`Oram::access_batch`] promises that requests *after* the failing one
//! are not executed.  A distributed batch can only keep that promise per
//! shard: if shard 1 fails at runtime (stash overflow, integrity
//! violation), shard 0's whole sub-batch — including requests whose global
//! index is *after* the failing one — has already executed, and the
//! service path runs sub-batches in parallel besides.  Do not retry a
//! failed batch from the reported index.  In this crate's threat model the
//! distinction is mostly academic — the runtime errors that can strike
//! mid-batch are halt-the-machine conditions, not retry-and-continue ones —
//! but callers porting prefix-retry logic from a single instance must know
//! it does not carry over.

use crate::error::FreecursiveError;
use crate::stats::FrontendStats;
use crate::traits::{Oram, Request, Response};
use path_oram::OramError;

/// The pure address-partitioning logic shared by [`ShardedOram`] and the
/// [`crate::OramService`] client: shard selection, address rewriting, batch
/// partitioning and response reassembly.
///
/// Outside this crate it is the read-only routing rule that
/// [`crate::OramClient::router`] returns; its only constructor is the shard
/// geometry check, which rejects an empty shard set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: u64,
    num_blocks: u64,
    block_bytes: usize,
}

/// A batch split by shard: per-shard request vectors (intra-shard
/// addresses, arrival order preserved) plus the plan mapping each per-shard
/// position back to its global batch index.
#[derive(Debug)]
pub(crate) struct PartitionedBatch {
    /// `per_shard[s]` is the sub-batch for shard `s`, already rewritten to
    /// intra-shard addresses.
    pub(crate) per_shard: Vec<Vec<Request>>,
    /// `plan[s][j]` is the global batch index of `per_shard[s][j]`.
    pub(crate) plan: Vec<Vec<usize>>,
}

impl ShardRouter {
    /// A router over `num_shards` shards serving `num_blocks` global
    /// addresses of `block_bytes` each.
    pub(crate) fn new(num_shards: u64, num_blocks: u64, block_bytes: usize) -> Self {
        debug_assert!(num_shards > 0);
        Self {
            num_shards,
            num_blocks,
            block_bytes,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> u64 {
        self.num_shards
    }

    /// Global capacity in blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The shard serving global address `addr` (its low bits mod N).
    pub fn shard_of(&self, addr: u64) -> usize {
        usize::try_from(addr % self.num_shards).expect("shard index bounded by N fits usize")
    }

    /// The intra-shard address of global address `addr`.
    pub fn inner_addr(&self, addr: u64) -> u64 {
        addr / self.num_shards
    }

    /// Inverse of the routing rule: the global address served by `shard` at
    /// intra-shard address `inner`.
    pub fn global_addr(&self, shard: usize, inner: u64) -> u64 {
        inner * self.num_shards + shard as u64
    }

    /// Validates a request against the *global* address space and block
    /// size, so malformed requests are rejected before they reach a shard
    /// (whose padded capacity could otherwise mask an out-of-range global
    /// address).
    pub fn validate(&self, request: &Request) -> Result<(), FreecursiveError> {
        let addr = request.addr();
        if addr >= self.num_blocks {
            return Err(OramError::AddressOutOfRange {
                addr,
                capacity: self.num_blocks,
            }
            .into());
        }
        if let Request::Write { data, .. } = request {
            if data.len() != self.block_bytes {
                return Err(OramError::BlockSizeMismatch {
                    expected: self.block_bytes,
                    actual: data.len(),
                }
                .into());
            }
        }
        Ok(())
    }

    /// Rewrites a (validated) request to its intra-shard address, returning
    /// the owning shard.
    pub(crate) fn rewrite(&self, request: Request) -> (usize, Request) {
        let shard = self.shard_of(request.addr());
        let inner = self.inner_addr(request.addr());
        let rewritten = match request {
            Request::Read { .. } => Request::Read { addr: inner },
            Request::Write { data, .. } => Request::Write { addr: inner, data },
            Request::ReadRemove { .. } => Request::ReadRemove { addr: inner },
        };
        (shard, rewritten)
    }

    /// Splits a batch by shard, validating every request first (so a
    /// malformed batch fails — with the global index — before any shard
    /// executes anything).  Write payloads are moved, never cloned.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Batch`] wrapping the validation failure of the
    /// first malformed request.
    pub(crate) fn partition(
        &self,
        requests: Vec<Request>,
    ) -> Result<PartitionedBatch, FreecursiveError> {
        for (index, request) in requests.iter().enumerate() {
            self.validate(request)
                .map_err(|e| e.with_batch_index(index))?;
        }
        let shards = self.num_shards as usize;
        let mut per_shard: Vec<Vec<Request>> = (0..shards).map(|_| Vec::new()).collect();
        let mut plan: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for (index, request) in requests.into_iter().enumerate() {
            let (shard, rewritten) = self.rewrite(request);
            per_shard[shard].push(rewritten);
            plan[shard].push(index);
        }
        Ok(PartitionedBatch { per_shard, plan })
    }

    /// Reassembles per-shard response vectors into global request order,
    /// rewriting intra-shard addresses back to global ones.  `plan` must be
    /// the partition plan the sub-batches were produced from.
    pub(crate) fn reassemble(
        &self,
        plan: &[Vec<usize>],
        per_shard: Vec<Vec<Response>>,
        total: usize,
    ) -> Vec<Response> {
        let mut out: Vec<Option<Response>> = (0..total).map(|_| None).collect();
        for (shard, responses) in per_shard.into_iter().enumerate() {
            for (j, mut response) in responses.into_iter().enumerate() {
                response.addr = self.global_addr(shard, response.addr);
                out[plan[shard][j]] = Some(response);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch position has exactly one response"))
            .collect()
    }
}

/// Checks that a shard set is non-empty and geometrically uniform (equal
/// per-shard capacity and block size — what the low-bits routing rule
/// requires), returning the router over it.  Shared by [`ShardedOram::new`]
/// and [`crate::OramService::from_shards`].
///
/// # Errors
///
/// [`crate::ConfigError::Degenerate`] for an empty set,
/// [`FreecursiveError::Service`] describing the first geometry mismatch.
pub(crate) fn validate_shard_geometry<O: Oram>(
    shards: &[O],
) -> Result<ShardRouter, FreecursiveError> {
    let first = shards
        .first()
        .ok_or(crate::error::ConfigError::Degenerate)?;
    let per_shard = first.num_blocks();
    let block_bytes = first.block_bytes();
    for shard in shards {
        if shard.num_blocks() != per_shard || shard.block_bytes() != block_bytes {
            return Err(FreecursiveError::Service {
                detail: format!(
                    "shard geometry mismatch: expected {per_shard} blocks x {block_bytes} B, \
                     found {} blocks x {} B",
                    shard.num_blocks(),
                    shard.block_bytes()
                ),
            });
        }
    }
    Ok(ShardRouter::new(
        shards.len() as u64,
        shards.len() as u64 * per_shard,
        block_bytes,
    ))
}

/// An address-partitioned composite of `N` independent ORAM shards,
/// implementing [`Oram`] itself — drop-in for a single instance wherever
/// the trait is accepted (see the [module documentation](self) for the
/// routing rule and the leakage caveat).
///
/// The composite executes on the caller's thread; for thread-per-shard
/// parallel execution wrap the same shards in a [`crate::OramService`].
///
/// [`Oram::stats`] returns the *merged* view over all shards (counts sum,
/// `max_stash_occupancy` maxes); [`ShardedOram::shard_stats`] exposes the
/// per-shard breakdown.
#[derive(Debug)]
pub struct ShardedOram<O: Oram = Box<dyn Oram>> {
    shards: Vec<O>,
    router: ShardRouter,
    /// Merged stats view, rebuilt after every state-changing call so
    /// `stats(&self)` can hand out a reference.
    merged: FrontendStats,
}

impl<O: Oram> ShardedOram<O> {
    /// Composes pre-built shards.  All shards must agree on block size and
    /// per-shard capacity (equal-size shards are what the low-bits routing
    /// rule requires); the global capacity is `shards.len() *
    /// per_shard_blocks`.
    ///
    /// Most callers want [`crate::OramBuilder::build_sharded`] instead,
    /// which builds the shards from one validated configuration.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Config`] ([`crate::ConfigError::Degenerate`]) if
    /// `shards` is empty, or [`FreecursiveError::Service`] describing the
    /// mismatch if the shards disagree on geometry.
    pub fn new(shards: Vec<O>) -> Result<Self, FreecursiveError> {
        let router = validate_shard_geometry(&shards)?;
        let mut composite = Self {
            shards,
            router,
            merged: FrontendStats::default(),
        };
        composite.remerge();
        Ok(composite)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing rule in effect.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Per-shard statistics, indexed by shard.
    pub fn shard_stats(&self) -> Vec<&FrontendStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    fn remerge(&mut self) {
        self.merged = FrontendStats::merged(self.shards.iter().map(|s| s.stats()));
    }
}

impl<O: Oram> Oram for ShardedOram<O> {
    fn block_bytes(&self) -> usize {
        self.router.block_bytes()
    }

    fn num_blocks(&self) -> u64 {
        self.router.num_blocks()
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        self.router.validate(&request)?;
        let (shard, rewritten) = self.router.rewrite(request);
        let global = self.router.global_addr(shard, rewritten.addr());
        // Keep the merged view current in O(1): fold in only the served
        // shard's delta instead of re-merging every shard per access.
        let before = self.shards[shard].stats().clone();
        let result = self.shards[shard].access(rewritten);
        self.merged.apply_delta(&before, self.shards[shard].stats());
        let mut response = result?;
        response.addr = global;
        Ok(response)
    }

    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        self.access_batch_owned(requests.to_vec())
    }

    fn access_batch_owned(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        let total = requests.len();
        let PartitionedBatch { per_shard, plan } = self.router.partition(requests)?;
        let mut responses = Vec::with_capacity(self.shards.len());
        for (shard, sub_batch) in per_shard.into_iter().enumerate() {
            let result = self.shards[shard].access_batch_owned(sub_batch);
            match result {
                Ok(r) => responses.push(r),
                Err(e) => {
                    self.remerge();
                    // Map the shard-local batch index back to the global one.
                    return Err(match e {
                        FreecursiveError::Batch { index, source } => FreecursiveError::Batch {
                            index: plan[shard][index],
                            source,
                        },
                        other => other,
                    });
                }
            }
        }
        self.remerge();
        Ok(self.router.reassemble(&plan, responses, total))
    }

    fn read_into(&mut self, addr: u64, out: &mut Vec<u8>) -> Result<(), FreecursiveError> {
        self.router.validate(&Request::Read { addr })?;
        let shard = self.router.shard_of(addr);
        let inner = self.router.inner_addr(addr);
        let before = self.shards[shard].stats().clone();
        let result = self.shards[shard].read_into(inner, out);
        self.merged.apply_delta(&before, self.shards[shard].stats());
        result
    }

    fn stats(&self) -> &FrontendStats {
        &self.merged
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
        self.remerge();
    }

    fn persist(&self, dir: &std::path::Path) -> Result<(), FreecursiveError> {
        // A composite snapshot: a top-level manifest recording the shard
        // count, plus one complete per-shard snapshot in `shard<i>/`.
        // `OramBuilder::resume` reassembles the composite from those.
        // Durability is likewise per shard: with a logged mode each
        // file-backed shard keeps its own WAL inside its `shard<i>/`
        // subdirectory, so shards checkpoint and recover independently.
        use path_oram::snapshot::put_u64;
        std::fs::create_dir_all(dir).map_err(|e| crate::persist::dir_error(dir, e))?;
        let mut payload = Vec::new();
        put_u64(&mut payload, self.shards.len() as u64);
        path_oram::snapshot::write_state_file(
            &crate::persist::state_path(dir),
            crate::persist::KIND_SHARDED,
            &payload,
        )?;
        for (index, shard) in self.shards.iter().enumerate() {
            shard.persist(&dir.join(format!("shard{index}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OramBuilder;
    use crate::scheme::SchemePoint;

    fn sharded(n_shards: u64, total_blocks: u64) -> ShardedOram {
        OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(total_blocks)
            .block_bytes(16)
            .shards(n_shards)
            .build_sharded()
            .unwrap()
    }

    #[test]
    fn routing_is_low_bits_and_invertible() {
        let r = ShardRouter::new(4, 1024, 64);
        for addr in [0u64, 1, 2, 3, 4, 7, 1023] {
            let shard = r.shard_of(addr);
            let inner = r.inner_addr(addr);
            assert_eq!(shard as u64, addr % 4);
            assert_eq!(inner, addr / 4);
            assert_eq!(r.global_addr(shard, inner), addr);
        }
        // Sequential addresses round-robin across shards.
        let shards: Vec<usize> = (0..8).map(|a| r.shard_of(a)).collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn partition_preserves_order_and_moves_payloads() {
        let r = ShardRouter::new(2, 8, 4);
        let batch = vec![
            Request::Read { addr: 0 },
            Request::Write {
                addr: 1,
                data: vec![1; 4],
            },
            Request::Read { addr: 2 },
            Request::ReadRemove { addr: 3 },
        ];
        let PartitionedBatch { per_shard, plan } = r.partition(batch).unwrap();
        assert_eq!(
            per_shard[0],
            vec![Request::Read { addr: 0 }, Request::Read { addr: 1 }]
        );
        assert_eq!(
            per_shard[1],
            vec![
                Request::Write {
                    addr: 0,
                    data: vec![1; 4]
                },
                Request::ReadRemove { addr: 1 }
            ]
        );
        assert_eq!(plan, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn partition_rejects_malformed_requests_with_the_global_index() {
        let r = ShardRouter::new(2, 8, 4);
        let err = r
            .partition(vec![
                Request::Read { addr: 0 },
                Request::Read { addr: 8 }, // out of global range
            ])
            .unwrap_err();
        assert!(matches!(err, FreecursiveError::Batch { index: 1, .. }));
        let err = r
            .partition(vec![Request::Write {
                addr: 0,
                data: vec![0; 3], // wrong block size
            }])
            .unwrap_err();
        assert!(matches!(err, FreecursiveError::Batch { index: 0, .. }));
    }

    #[test]
    fn sharded_composite_roundtrips_across_shards() {
        let mut oram = sharded(4, 64);
        assert_eq!(oram.num_blocks(), 64);
        assert_eq!(oram.num_shards(), 4);
        for addr in 0..64u64 {
            oram.write(addr, &[addr as u8; 16]).unwrap();
        }
        for addr in 0..64u64 {
            assert_eq!(oram.read(addr).unwrap(), vec![addr as u8; 16]);
        }
        // The merged stats saw every request; each shard took its quarter.
        assert_eq!(oram.stats().frontend_requests, 128);
        for s in oram.shard_stats() {
            assert_eq!(s.frontend_requests, 32);
        }
    }

    #[test]
    fn single_access_delta_fold_matches_a_full_remerge() {
        // Mix single accesses (delta-folded), batches and a reset (full
        // remerge): the cached merged view must always equal a from-scratch
        // merge over the shard stats.
        let mut oram = sharded(4, 64);
        let check = |oram: &ShardedOram| {
            let full = FrontendStats::merged(oram.shard_stats().iter().copied());
            assert_eq!(*oram.stats(), full);
        };
        for addr in 0..32u64 {
            oram.write(addr, &[addr as u8; 16]).unwrap();
            check(&oram);
        }
        oram.access_batch(
            &(0..16u64)
                .map(|addr| Request::Read { addr })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        check(&oram);
        oram.reset_stats();
        check(&oram);
        let mut buf = Vec::new();
        oram.read_into(5, &mut buf).unwrap();
        check(&oram);
        // Errors also keep the views aligned.
        let _ = oram.read(999);
        check(&oram);
    }

    #[test]
    fn batch_results_come_back_in_request_order_with_global_addresses() {
        let mut oram = sharded(2, 16);
        oram.write(5, &[5; 16]).unwrap();
        oram.write(6, &[6; 16]).unwrap();
        let responses = oram
            .access_batch(&[
                Request::Read { addr: 6 },
                Request::Read { addr: 5 },
                Request::Write {
                    addr: 0,
                    data: vec![9; 16],
                },
            ])
            .unwrap();
        assert_eq!(responses[0].addr, 6);
        assert_eq!(responses[0].data(), Some(&[6u8; 16][..]));
        assert_eq!(responses[1].addr, 5);
        assert_eq!(responses[1].data(), Some(&[5u8; 16][..]));
        assert_eq!(responses[2].addr, 0);
        assert_eq!(responses[2].data(), None);
    }

    #[test]
    fn out_of_range_global_addresses_are_rejected_despite_padding() {
        // 10 blocks over 4 shards pads per-shard capacity to ceil(10/4) = 3,
        // so the composite reports the padded capacity 12 and rejects
        // addresses at or beyond it.
        let oram = sharded(4, 10);
        assert_eq!(oram.num_blocks(), 12);
        let mut oram = oram;
        assert!(oram.read(11).is_ok());
        assert!(matches!(
            oram.read(12),
            Err(FreecursiveError::Backend(
                OramError::AddressOutOfRange { .. }
            ))
        ));
    }

    #[test]
    fn composing_mismatched_shards_is_an_error() {
        let a = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(8)
            .block_bytes(16)
            .build()
            .unwrap();
        let b = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(4)
            .block_bytes(16)
            .build()
            .unwrap();
        assert!(matches!(
            ShardedOram::new(vec![a, b]),
            Err(FreecursiveError::Service { .. })
        ));
        let empty: Vec<Box<dyn Oram>> = Vec::new();
        assert!(ShardedOram::new(empty).is_err());
    }
}
