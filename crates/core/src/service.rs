//! [`OramService`] / [`OramClient`]: a concurrent, worker-thread-per-shard
//! runtime over the sharded composite.
//!
//! [`crate::ShardedOram`] executes its shards on the caller's thread;
//! this module puts each shard on its *own* worker thread behind an
//! [`std::sync::mpsc`] channel, so cross-shard batches execute in parallel
//! and many cheaply-clonable [`OramClient`]s can drive the same deployment
//! concurrently (std `thread` + `mpsc` only — the workspace carries no
//! async runtime or thread-pool dependency).
//!
//! ```text
//! OramClient ──┐                 ┌─ worker 0 ── Box<dyn Oram> (shard 0)
//! OramClient ──┼─ mpsc channels ─┼─ worker 1 ── Box<dyn Oram> (shard 1)
//! OramClient ──┘                 └─ worker 2 ── Box<dyn Oram> (shard 2)
//! ```
//!
//! # Ordering and consistency
//!
//! Each worker serves its job queue strictly in order, and each sender's
//! jobs arrive in submission order, so all requests a *single client*
//! issues to a given shard take effect in submission order — which, since
//! a block lives on exactly one shard, means per-client-per-address
//! sequential consistency.  Requests from *different* clients interleave
//! at channel granularity with no global order; clients sharing addresses
//! must coordinate externally (the usual sharded-store contract).
//!
//! # Pipelining
//!
//! [`OramClient::submit`] returns a [`PendingBatch`] without blocking, so a
//! client can keep several batches in flight and overlap its own work with
//! shard execution; [`PendingBatch::wait`] collects the responses.  The
//! sync [`OramClient::access_batch`]/[`Oram::access`] paths are submit +
//! wait.  Workers execute each sub-batch through their shard's
//! `access_batch`; batching changes how many requests one call carries,
//! never the tree I/O.
//!
//! # Failure model
//!
//! A worker that panics mid-request replies with
//! [`FreecursiveError::Service`] (carrying the panic message) and retires —
//! its shard's state can no longer be trusted.  Every later interaction
//! with that shard fails fast with [`FreecursiveError::Service`]: clients
//! never hang on a dead worker, because a retired worker's channel
//! disconnects (sends fail) and its dropped reply senders wake any waiter
//! (receives fail).  Worker retirement is additionally published through a
//! per-shard liveness table (cleared *before* the retirement is announced),
//! which [`OramClient::submit`] pre-checks for every shard a batch touches
//! before dispatching anything — so a cross-shard batch that would hit an
//! already-dead shard fails *side-effect-free* instead of mutating the
//! live shards first.  There are no locks anywhere in the runtime, so
//! there is no poisoning to handle beyond this.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::FreecursiveError;
use crate::sharded::{validate_shard_geometry, PartitionedBatch, ShardRouter};
use crate::stats::FrontendStats;
use crate::traits::{Oram, Request, Response};

/// One unit of work for a shard worker.
enum Job {
    /// Execute a sub-batch (intra-shard addresses) and reply with the
    /// responses or the failure.
    Batch {
        requests: Vec<Request>,
        reply: Sender<BatchReply>,
    },
    /// Reply with a snapshot of the shard's statistics.
    Stats { reply: Sender<Box<FrontendStats>> },
    /// Reset the shard's statistics counters.
    ResetStats,
    /// Stop serving and hand the shard back.
    Shutdown { reply: Sender<Box<dyn Oram>> },
}

/// Renders a panic payload the way the default hook would.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-shard worker loop: owns the shard, serves jobs in order, retires
/// on panic or shutdown.  `alive` is this worker's slot in the service-wide
/// liveness table; the worker clears it **before** announcing its
/// retirement (panic reply, shutdown reply, or channel disconnect), so any
/// client that has observed the retirement sees the flag down on its next
/// [`OramClient::submit`] pre-check.
fn worker_loop(
    shard_index: usize,
    mut shard: Box<dyn Oram>,
    jobs: Receiver<Job>,
    alive: &AtomicBool,
) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch { requests, reply } => {
                let outcome = catch_unwind(AssertUnwindSafe(|| shard.access_batch_owned(requests)));
                match outcome {
                    Ok(result) => {
                        // A send failure means the client gave up waiting;
                        // the work is done either way.
                        let _ = reply.send(result);
                    }
                    Err(payload) => {
                        // The shard's state is suspect after an unwind
                        // through its access path: retire.  Flag first,
                        // reply second — a client holding this error must
                        // deterministically fail the liveness pre-check on
                        // its next submit.  Disconnecting the channel (the
                        // return below) fails racing submissions too.
                        alive.store(false, Ordering::Release);
                        let _ = reply.send(Err(FreecursiveError::Service {
                            detail: format!(
                                "shard {shard_index} worker panicked: {}",
                                panic_detail(payload.as_ref())
                            ),
                        }));
                        return;
                    }
                }
            }
            Job::Stats { reply } => {
                let _ = reply.send(Box::new(shard.stats().clone()));
            }
            Job::ResetStats => shard.reset_stats(),
            Job::Shutdown { reply } => {
                alive.store(false, Ordering::Release);
                let _ = reply.send(shard);
                return;
            }
        }
    }
    // The service dropped every sender: an orderly teardown.
    alive.store(false, Ordering::Release);
}

/// A dead-worker error for shard `shard`.
fn worker_gone(shard: usize) -> FreecursiveError {
    FreecursiveError::Service {
        detail: format!("shard {shard} worker is gone (panicked or shut down)"),
    }
}

/// What a worker sends back for one sub-batch.
type BatchReply = Result<Vec<Response>, FreecursiveError>;

/// A handle on a batch in flight: receipts for every shard the batch
/// touches.  Obtained from [`OramClient::submit`], resolved by
/// [`PendingBatch::wait`].  Dropping it abandons the responses (the work
/// still executes).
#[derive(Debug)]
pub struct PendingBatch {
    router: ShardRouter,
    /// `(shard, receiver)` for every shard with a non-empty sub-batch.
    receipts: Vec<(usize, Receiver<BatchReply>)>,
    plan: Vec<Vec<usize>>,
    total: usize,
}

impl PendingBatch {
    /// Blocks until every shard has answered and reassembles the responses
    /// in request order.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Batch`] with the *global* request index if a
    /// shard reported a request failure; [`FreecursiveError::Service`] if a
    /// worker died before answering.
    pub fn wait(self) -> Result<Vec<Response>, FreecursiveError> {
        let mut per_shard: Vec<Vec<Response>> =
            (0..self.router.num_shards()).map(|_| Vec::new()).collect();
        let mut first_error: Option<FreecursiveError> = None;
        for (shard, receiver) in self.receipts {
            // Drain every receipt even after an error so no worker blocks
            // on a reply channel... (mpsc sends never block, but draining
            // keeps error selection deterministic: lowest shard wins).
            match receiver.recv() {
                Ok(Ok(responses)) => per_shard[shard] = responses,
                Ok(Err(e)) => {
                    let mapped = match e {
                        FreecursiveError::Batch { index, source } => FreecursiveError::Batch {
                            index: self.plan[shard][index],
                            source,
                        },
                        other => other,
                    };
                    first_error.get_or_insert(mapped);
                }
                Err(_) => {
                    first_error.get_or_insert(worker_gone(shard));
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(self.router.reassemble(&self.plan, per_shard, self.total))
    }
}

/// A cheaply-clonable handle for submitting requests to an [`OramService`].
///
/// Clones share the service's channels: clone one per thread and drive the
/// same deployment concurrently.  The client implements [`Oram`], so
/// anything programmed against the trait — including
/// `cache_sim::FunctionalOramMemory`, the processor model's one ORAM
/// adapter — can run over a sharded service unchanged; see
/// [`OramClient::stats`] for the one caveat (stats are a fetched snapshot,
/// not a live view, so a cycle charge computed from them reads stale
/// counts).
#[derive(Debug, Clone)]
pub struct OramClient {
    senders: Vec<Sender<Job>>,
    /// One liveness flag per worker, shared with the worker threads: `true`
    /// until the worker retires (panic or shutdown).  [`OramClient::submit`]
    /// pre-checks every shard a batch touches against this table before
    /// dispatching anything, so a batch that would hit an already-dead
    /// shard fails without mutating the live ones.
    alive: Arc<[AtomicBool]>,
    router: ShardRouter,
    /// Snapshot filled by [`OramClient::fetch_stats`]; what [`Oram::stats`]
    /// returns between fetches.
    cached_stats: FrontendStats,
}

impl OramClient {
    /// The routing rule in effect.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards behind this client.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Whether `shard`'s worker was still serving at the last announcement
    /// it made: `false` once the worker has panicked or been shut down.  A
    /// `true` is inherently a snapshot — the worker can die right after —
    /// but a `false` is final (retired workers never come back).
    pub fn is_worker_live(&self, shard: usize) -> bool {
        self.alive[shard].load(Ordering::Acquire)
    }

    /// Submits a batch without waiting: the batch is validated, split by
    /// shard, staged, and only then fanned out to every worker it touches;
    /// the returned [`PendingBatch`] collects the responses.  Workers on
    /// different shards execute their sub-batches in parallel.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Batch`] (with the global index) if a request is
    /// malformed — validation runs before anything is sent, so nothing is
    /// submitted.  [`FreecursiveError::Service`] if a touched worker is
    /// gone.  Liveness is pre-checked for *every* touched shard after
    /// staging and before the first send — the same
    /// validate-before-dispatch discipline the router's batch partition
    /// applies to malformed requests — so a batch that routes to a shard
    /// whose death has already been announced (its panic reply was
    /// delivered, or the service shut down) fails side-effect-free: no
    /// sub-batch reaches any worker.  The one remaining window is a worker
    /// dying *concurrently with this very fan-out*, where the send to the
    /// freshly-dead worker fails after earlier live shards were already
    /// fed; that error means "state on the surviving shards may have
    /// changed" and the detail string says so.
    pub fn submit(&self, requests: Vec<Request>) -> Result<PendingBatch, FreecursiveError> {
        let total = requests.len();
        let PartitionedBatch { per_shard, plan } = self.router.partition(requests)?;
        // Stage first: everything fallible about the batch itself has
        // already run (partition validated every request), so after the
        // liveness pre-check below the only thing left to do is send.
        let staged: Vec<(usize, Vec<Request>)> = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, sub_batch)| !sub_batch.is_empty())
            .collect();
        for (shard, _) in &staged {
            if !self.is_worker_live(*shard) {
                return Err(worker_gone(*shard));
            }
        }
        let mut receipts = Vec::with_capacity(staged.len());
        for (shard, sub_batch) in staged {
            let (reply, receiver) = std::sync::mpsc::channel();
            self.senders[shard]
                .send(Job::Batch {
                    requests: sub_batch,
                    reply,
                })
                .map_err(|_| FreecursiveError::Service {
                    detail: format!(
                        "shard {shard} worker died during fan-out; sub-batches already \
                         dispatched to earlier shards still execute"
                    ),
                })?;
            receipts.push((shard, receiver));
        }
        Ok(PendingBatch {
            router: self.router,
            receipts,
            plan,
            total,
        })
    }

    /// Fetches and merges fresh per-shard statistics, updating the snapshot
    /// that [`Oram::stats`] serves.
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Service`] if any worker is gone.
    pub fn fetch_stats(&mut self) -> Result<FrontendStats, FreecursiveError> {
        let mut receipts = Vec::new();
        for (shard, sender) in self.senders.iter().enumerate() {
            let (reply, receiver) = std::sync::mpsc::channel();
            sender
                .send(Job::Stats { reply })
                .map_err(|_| worker_gone(shard))?;
            receipts.push((shard, receiver));
        }
        let mut parts = Vec::with_capacity(receipts.len());
        for (shard, receiver) in receipts {
            parts.push(*receiver.recv().map_err(|_| worker_gone(shard))?);
        }
        self.cached_stats = FrontendStats::merged(parts.iter());
        Ok(self.cached_stats.clone())
    }
}

impl Oram for OramClient {
    fn block_bytes(&self) -> usize {
        self.router.block_bytes()
    }

    fn num_blocks(&self) -> u64 {
        self.router.num_blocks()
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        let mut responses = self
            .submit(vec![request])
            .and_then(PendingBatch::wait)
            .map_err(|e| match e {
                // A single request is its own batch; unwrap the index layer
                // so the error shape matches every other `Oram::access`.
                FreecursiveError::Batch { source, .. } => *source,
                other => other,
            })?;
        Ok(responses.pop().expect("one request yields one response"))
    }

    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        self.access_batch_owned(requests.to_vec())
    }

    fn access_batch_owned(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        self.submit(requests)?.wait()
    }

    /// The statistics snapshot from the last [`OramClient::fetch_stats`]
    /// (empty until the first fetch) — a channel round-trip per read would
    /// be wrong for a `&self` getter, so refreshing is explicit.
    fn stats(&self) -> &FrontendStats {
        &self.cached_stats
    }

    fn reset_stats(&mut self) {
        for sender in &self.senders {
            // A dead worker has no stats left to reset; nothing to surface.
            let _ = sender.send(Job::ResetStats);
        }
        self.cached_stats = FrontendStats::default();
    }
}

/// A running sharded oblivious-memory deployment: one worker thread per
/// shard, driven through [`OramClient`] handles.
///
/// Construct with [`crate::OramBuilder::build_service`] (which builds the
/// shards from one validated configuration) or [`OramService::from_shards`]
/// over pre-built instances.  Dropping the service shuts the workers down;
/// [`OramService::shutdown`] does the same explicitly and hands the shard
/// instances back (e.g. for a final contents sweep).  Outstanding client
/// clones outlive the service but fail fast with
/// [`FreecursiveError::Service`] once it is gone.
#[derive(Debug)]
pub struct OramService {
    handles: Vec<JoinHandle<()>>,
    client: OramClient,
}

impl OramService {
    /// Spawns one worker thread per shard.  The shard set must be
    /// geometrically uniform, as for [`crate::ShardedOram::new`].
    ///
    /// # Errors
    ///
    /// As for [`crate::ShardedOram::new`].
    pub fn from_shards(shards: Vec<Box<dyn Oram>>) -> Result<Self, FreecursiveError> {
        let router = validate_shard_geometry(&shards)?;
        let alive: Arc<[AtomicBool]> = (0..shards.len()).map(|_| AtomicBool::new(true)).collect();
        let mut handles = Vec::with_capacity(shards.len());
        let mut senders = Vec::with_capacity(shards.len());
        for (shard_index, shard) in shards.into_iter().enumerate() {
            let (sender, receiver) = std::sync::mpsc::channel();
            let table = Arc::clone(&alive);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("oram-shard-{shard_index}"))
                    .spawn(move || worker_loop(shard_index, shard, receiver, &table[shard_index]))
                    .map_err(|e| FreecursiveError::Service {
                        detail: format!("failed to spawn shard {shard_index} worker: {e}"),
                    })?,
            );
            senders.push(sender);
        }
        Ok(Self {
            handles,
            client: OramClient {
                senders,
                alive,
                router,
                cached_stats: FrontendStats::default(),
            },
        })
    }

    /// Number of shards (and worker threads).
    pub fn num_shards(&self) -> usize {
        self.handles.len()
    }

    /// A new client handle onto this service.
    pub fn client(&self) -> OramClient {
        self.client.clone()
    }

    /// Stops the workers and returns the shard instances in shard order
    /// (pending jobs already in the queues are served first).
    ///
    /// # Errors
    ///
    /// [`FreecursiveError::Service`] if any worker had already died (the
    /// remaining workers are still shut down and joined first — no
    /// resources leak on the error path).
    pub fn shutdown(mut self) -> Result<Vec<Box<dyn Oram>>, FreecursiveError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<Vec<Box<dyn Oram>>, FreecursiveError> {
        let mut receipts = Vec::new();
        for (shard, sender) in self.client.senders.iter().enumerate() {
            let (reply, receiver) = std::sync::mpsc::channel();
            // A send failure just means this worker is already gone; the
            // recv pass below notices the dropped reply sender.
            let _ = sender.send(Job::Shutdown { reply });
            receipts.push((shard, receiver));
        }
        let mut shards = Vec::new();
        let mut first_error = None;
        for (shard, receiver) in receipts {
            match receiver.recv() {
                Ok(oram) => shards.push(oram),
                Err(_) => {
                    first_error.get_or_insert(worker_gone(shard));
                }
            }
        }
        for handle in self.handles.drain(..) {
            // Workers have all exited (shutdown served or already dead);
            // a worker that panicked still joins — the unwind was caught.
            let _ = handle.join();
        }
        match first_error {
            None => Ok(shards),
            Some(e) => Err(e),
        }
    }
}

impl Drop for OramService {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OramBuilder;
    use crate::scheme::SchemePoint;

    fn service(shards: u64, total_blocks: u64) -> OramService {
        OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(total_blocks)
            .block_bytes(16)
            .shards(shards)
            .build_service()
            .unwrap()
    }

    #[test]
    fn sync_roundtrip_through_the_service() {
        let service = service(4, 64);
        let mut client = service.client();
        for addr in 0..64u64 {
            client.write(addr, &[addr as u8; 16]).unwrap();
        }
        for addr in 0..64u64 {
            assert_eq!(client.read(addr).unwrap(), vec![addr as u8; 16]);
        }
        let stats = client.fetch_stats().unwrap();
        assert_eq!(stats.frontend_requests, 128);
    }

    #[test]
    fn pipelined_batches_from_one_client_take_effect_in_order() {
        let service = service(2, 16);
        let client = service.client();
        // Two overlapping in-flight batches writing then reading the same
        // addresses: same-client-same-shard ordering makes this definite.
        let writes = client
            .submit(
                (0..16u64)
                    .map(|addr| Request::Write {
                        addr,
                        data: vec![addr as u8 ^ 0x5A; 16],
                    })
                    .collect(),
            )
            .unwrap();
        let reads = client
            .submit((0..16u64).map(|addr| Request::Read { addr }).collect())
            .unwrap();
        writes.wait().unwrap();
        let responses = reads.wait().unwrap();
        for (addr, response) in responses.iter().enumerate() {
            assert_eq!(response.addr, addr as u64);
            assert_eq!(response.data(), Some(&[addr as u8 ^ 0x5A; 16][..]));
        }
    }

    #[test]
    fn single_access_errors_are_not_batch_wrapped() {
        let service = service(2, 16);
        let mut client = service.client();
        let err = client.read(16).unwrap_err();
        assert!(matches!(err, FreecursiveError::Backend(_)), "{err:?}");
        let err = client
            .access_batch(&[Request::Read { addr: 0 }, Request::Read { addr: 99 }])
            .unwrap_err();
        assert!(matches!(err, FreecursiveError::Batch { index: 1, .. }));
    }

    #[test]
    fn shutdown_returns_the_shards_and_fails_late_clients_fast() {
        let service = service(2, 16);
        let mut client = service.client();
        client.write(3, &[7; 16]).unwrap();
        let mut shards = service.shutdown().unwrap();
        assert_eq!(shards.len(), 2);
        // Address 3 lives on shard 1 at intra-shard address 1.
        assert_eq!(shards[1].read(1).unwrap(), vec![7u8; 16]);
        // The surviving client fails fast, not hangs.
        assert!(matches!(
            client.read(0),
            Err(FreecursiveError::Service { .. })
        ));
        assert!(matches!(
            client.fetch_stats(),
            Err(FreecursiveError::Service { .. })
        ));
    }
}
