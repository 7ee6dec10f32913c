//! The TCP server: accepts connections, speaks the wire protocol, and
//! multiplexes tenants onto the shard workers of one [`OramService`].
//!
//! # Tenant model
//!
//! The server carves the service's global address space into contiguous,
//! disjoint per-tenant ranges, in the order tenants appear in
//! [`ServerConfig::tenants`].  A connection binds to a tenant with a HELLO
//! frame; from then on every address it sends is **tenant-relative**
//! (`0..blocks`) and translated by adding the tenant's base.  There is no
//! way to express another tenant's blocks on the wire, so isolation is by
//! construction rather than by an access-control check.
//!
//! # Quota / backpressure
//!
//! Each tenant has an in-flight request budget ([`ServerConfig::max_inflight`],
//! counted in batch items across all of the tenant's connections).  A request
//! that would exceed it is refused with a [`ErrorCode::QuotaExceeded`] error
//! frame *without touching the ORAM*, so one tenant flooding its connections
//! cannot monopolise the shard workers.  The client is expected to back off
//! and retry.
//!
//! # Failure model
//!
//! Every per-connection handler runs under `catch_unwind`: a panic closes
//! that connection and increments [`NetServer::panic_count`], but the
//! server keeps accepting.  Malformed frames are answered per the severity
//! split documented in [`crate::wire`] — recoverable errors keep the
//! connection, fatal ones (unframeable streams) close it after a typed
//! error frame.

use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use freecursive::{Oram, OramClient, OramService, Request, Response};

use crate::wire::{
    decode_header, decode_request, encode_response, write_frame, ErrorCode, TenantStats, WireError,
    WireRequest, WireResponse, WireResult, FRAME_HEADER_LEN, PROTOCOL_VERSION,
};

/// How often blocked reads wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// One tenant's slice of the address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Name presented in HELLO frames.  Unique, non-empty.
    pub name: String,
    /// Capacity in blocks; the tenant addresses `0..blocks`.
    pub blocks: u64,
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Tenants in address-space order: the first starts at global block 0,
    /// each subsequent one immediately after its predecessor.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant in-flight budget, in batch items, across all of the
    /// tenant's connections.
    pub max_inflight: u64,
}

impl ServerConfig {
    /// A single tenant named `"default"` covering `blocks` blocks.
    pub fn single_tenant(blocks: u64, max_inflight: u64) -> ServerConfig {
        ServerConfig {
            tenants: vec![TenantSpec {
                name: "default".to_string(),
                blocks,
            }],
            max_inflight,
        }
    }
}

/// Cumulative per-tenant counters, updated lock-free by handler threads.
#[derive(Default)]
struct TenantCounters {
    requests: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    read_removes: AtomicU64,
    batches: AtomicU64,
    errors: AtomicU64,
    quota_rejections: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl TenantCounters {
    fn snapshot(&self) -> TenantStats {
        TenantStats {
            requests: self.requests.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_removes: self.read_removes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// A tenant at runtime: its address-space slice, quota gate, and counters.
struct TenantState {
    /// Global block address where this tenant's range starts.
    base: u64,
    /// Range length; tenant-relative addresses are `0..blocks`.
    blocks: u64,
    /// Items currently in flight across the tenant's connections.
    inflight: AtomicU64,
    /// The quota those items are counted against.
    max_inflight: u64,
    counters: TenantCounters,
}

impl TenantState {
    /// Reserves `cost` in-flight items, refusing rather than blocking if
    /// the quota would be exceeded.
    fn try_acquire(&self, cost: u64) -> bool {
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(cost);
            if next > self.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn release(&self, cost: u64) {
        self.inflight.fetch_sub(cost, Ordering::AcqRel);
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    tenants: HashMap<String, TenantState>,
    block_bytes: usize,
    max_inflight: u64,
    shutting_down: AtomicBool,
    panics: AtomicU64,
}

/// A running TCP front end over one [`OramService`].
///
/// Owns the service: dropping or [`NetServer::shutdown`]-ing the server
/// tears down the ORAM shard workers too.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    service: Option<OramService>,
}

impl NetServer {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts
    /// accepting connections, serving them from `service`'s shard workers.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for an inconsistent config (duplicate
    /// or empty tenant names, ranges exceeding the service's capacity, a
    /// zero quota); otherwise whatever the bind fails with.
    pub fn spawn(
        service: OramService,
        config: ServerConfig,
        bind: impl ToSocketAddrs,
    ) -> io::Result<NetServer> {
        let client = service.client();
        let shared = Arc::new(Shared {
            tenants: plan_tenants(&config, client.num_blocks())?,
            block_bytes: client.block_bytes(),
            max_inflight: config.max_inflight,
            shutting_down: AtomicBool::new(false),
            panics: AtomicU64::new(0),
        });
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let handlers = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = std::thread::Builder::new()
            .name("oram-net-accept".to_string())
            .spawn(move || {
                accept_loop(listener, accept_shared, accept_handlers, client);
            })?;

        Ok(NetServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            handlers,
            service: Some(service),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many connection handlers have panicked since the server
    /// started.  A healthy server reports 0 regardless of what clients
    /// send — the malformed-frame test suite pins this.
    pub fn panic_count(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// A snapshot of `tenant`'s counters, or `None` for an unknown name.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.shared
            .tenants
            .get(tenant)
            .map(|t| t.counters.snapshot())
    }

    /// Stops accepting, drains the connection handlers, and shuts the
    /// underlying [`OramService`] down.
    ///
    /// # Errors
    ///
    /// Propagates the service's shutdown error (e.g. a shard worker that
    /// panicked earlier); the network side is torn down either way.
    pub fn shutdown(mut self) -> Result<(), freecursive::FreecursiveError> {
        self.teardown_network();
        match self.service.take() {
            Some(service) => service.shutdown().map(|_| ()),
            None => Ok(()),
        }
    }

    fn teardown_network(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // The accept thread blocks in accept(); a throwaway connection to
        // ourselves wakes it so it can observe the flag.
        if let Ok(stream) = TcpStream::connect(self.local_addr) {
            drop(stream);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let drained = {
            let mut guard = self.handlers.lock().expect("handler registry poisoned");
            std::mem::take(&mut *guard)
        };
        for handle in drained {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.teardown_network();
        // The service's own Drop joins the shard workers.
    }
}

/// Validates the tenant plan and lays the ranges out back to back.
fn plan_tenants(
    config: &ServerConfig,
    num_blocks: u64,
) -> io::Result<HashMap<String, TenantState>> {
    let invalid = |detail: String| io::Error::new(io::ErrorKind::InvalidInput, detail);
    if config.tenants.is_empty() {
        return Err(invalid("server config has no tenants".to_string()));
    }
    if config.max_inflight == 0 {
        return Err(invalid(
            "max_inflight of 0 would refuse every request".to_string(),
        ));
    }
    let mut tenants = HashMap::with_capacity(config.tenants.len());
    let mut base = 0u64;
    for spec in &config.tenants {
        if spec.name.is_empty() {
            return Err(invalid("tenant names must be non-empty".to_string()));
        }
        if spec.blocks == 0 {
            return Err(invalid(format!("tenant {:?} has zero blocks", spec.name)));
        }
        let end = base
            .checked_add(spec.blocks)
            .ok_or_else(|| invalid(format!("tenant ranges overflow u64 at {:?}", spec.name)))?;
        if end > num_blocks {
            return Err(invalid(format!(
                "tenant ranges need {end} blocks but the service has {num_blocks}"
            )));
        }
        let state = TenantState {
            base,
            blocks: spec.blocks,
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight,
            counters: TenantCounters::default(),
        };
        if tenants.insert(spec.name.clone(), state).is_some() {
            return Err(invalid(format!("duplicate tenant name {:?}", spec.name)));
        }
        base = end;
    }
    Ok(tenants)
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    client: OramClient,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.shutting_down.load(Ordering::Acquire) => return,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let conn_shared = Arc::clone(&shared);
        let conn_client = client.clone();
        let spawned = std::thread::Builder::new()
            .name("oram-net-conn".to_string())
            .spawn(move || {
                let shared = conn_shared;
                let result = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(&stream, &shared, conn_client);
                }));
                if result.is_err() {
                    shared.panics.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                }
            });
        if let Ok(handle) = spawned {
            handlers
                .lock()
                .expect("handler registry poisoned")
                .push(handle);
        }
    }
}

/// What the interruptible reader observed.
enum ReadOutcome {
    /// The buffer is full.
    Full,
    /// EOF before the first byte: the peer closed cleanly between frames.
    CleanClose,
    /// EOF inside the buffer, a transport error, or server shutdown: stop
    /// serving without treating the stream as well-formed.
    Abort,
}

/// `read_exact` that wakes every [`POLL_INTERVAL`] to honour shutdown.
/// Expects `stream` to already carry that read timeout.
fn read_exact_interruptible(
    stream: &mut &TcpStream,
    buf: &mut [u8],
    shared: &Shared,
) -> ReadOutcome {
    let mut got = 0;
    while got < buf.len() {
        if shared.shutting_down.load(Ordering::Acquire) {
            return ReadOutcome::Abort;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return ReadOutcome::CleanClose,
            Ok(0) => return ReadOutcome::Abort,
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Abort,
        }
    }
    ReadOutcome::Full
}

/// Serves one connection until close, shutdown, or a fatal protocol error.
fn serve_connection(stream: &TcpStream, shared: &Shared, mut client: OramClient) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Replies are small and flushed whole.  With Nagle on, a reply written
    // while the previous one is un-ACKed waits for that ACK, and the client's
    // delayed ACK holds it until its next request goes out.
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut reader = stream;
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(writer_stream);
    // The tenant this connection bound to with HELLO, if any yet.
    let mut tenant: Option<&TenantState> = None;

    loop {
        let mut header_bytes = [0u8; FRAME_HEADER_LEN];
        match read_exact_interruptible(&mut reader, &mut header_bytes, shared) {
            ReadOutcome::Full => {}
            ReadOutcome::CleanClose | ReadOutcome::Abort => return,
        }
        let header = match decode_header(&header_bytes) {
            Ok(h) => h,
            Err(e) => {
                // Header-level violations are all fatal: answer and close.
                let request_id =
                    u64::from_le_bytes(header_bytes[4..12].try_into().expect("8-byte slice"));
                send_reply(&mut writer, request_id, &WireResponse::Error(e), tenant);
                return;
            }
        };
        let mut body = vec![0u8; header.body_len as usize];
        match read_exact_interruptible(&mut reader, &mut body, shared) {
            ReadOutcome::Full => {}
            // EOF inside a frame is a torn close; nothing to answer.
            ReadOutcome::CleanClose | ReadOutcome::Abort => return,
        }
        if let Some(t) = tenant {
            let frame_len = u64::try_from(FRAME_HEADER_LEN + body.len()).expect("fits u64");
            t.counters.bytes_in.fetch_add(frame_len, Ordering::Relaxed);
        }

        let response = match decode_request(header.kind, &body) {
            Ok(WireRequest::Hello { tenant: name }) => match shared.tenants.get(&name) {
                Some(state) => {
                    tenant = Some(state);
                    WireResponse::HelloOk {
                        protocol: PROTOCOL_VERSION,
                        block_bytes: u32::try_from(shared.block_bytes)
                            .expect("block sizes are small"),
                        num_blocks: state.blocks,
                        max_inflight: shared.max_inflight,
                    }
                }
                None => WireResponse::Error(WireError::new(
                    ErrorCode::UnknownTenant,
                    format!("no tenant named {name:?}"),
                )),
            },
            Ok(request) => match tenant {
                Some(state) => handle_data_request(&mut client, shared, state, request),
                None => WireResponse::Error(WireError::new(
                    ErrorCode::NoHello,
                    "send HELLO before data-plane requests",
                )),
            },
            Err(e) => WireResponse::Error(e),
        };

        let fatal = matches!(&response, WireResponse::Error(e) if e.code.is_fatal());
        if !send_reply(&mut writer, header.request_id, &response, tenant) {
            return;
        }
        if fatal {
            return;
        }
    }
}

/// Encodes and writes a reply, flushing so pipelined clients make
/// progress, and maintains the tenant's error/byte counters.  Returns
/// `false` when the connection is beyond use.
fn send_reply(
    writer: &mut BufWriter<TcpStream>,
    request_id: u64,
    response: &WireResponse,
    tenant: Option<&TenantState>,
) -> bool {
    let (kind, body) = encode_response(response);
    if let Some(t) = tenant {
        if matches!(response, WireResponse::Error(_)) {
            t.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let frame_len = u64::try_from(FRAME_HEADER_LEN + body.len()).expect("fits u64");
        t.counters.bytes_out.fetch_add(frame_len, Ordering::Relaxed);
    }
    write_frame(writer, kind, request_id, &body).is_ok() && writer.flush().is_ok()
}

/// Validates, admits (quota), executes, and renders one data-plane request.
fn handle_data_request(
    client: &mut OramClient,
    shared: &Shared,
    tenant: &TenantState,
    request: WireRequest,
) -> WireResponse {
    let (mut requests, is_batch) = match request {
        WireRequest::Stats => return WireResponse::Stats(tenant.counters.snapshot()),
        WireRequest::Read { addr } => (vec![Request::Read { addr }], false),
        WireRequest::Write { addr, data } => (vec![Request::Write { addr, data }], false),
        WireRequest::ReadRemove { addr } => (vec![Request::ReadRemove { addr }], false),
        WireRequest::Batch { items } => (items, true),
        WireRequest::Hello { .. } => unreachable!("hello handled by the caller"),
    };
    // Rebase onto global addresses, validating as we go.
    for request in &mut requests {
        if let Err(e) = translate_op(request, tenant, shared.block_bytes) {
            return WireResponse::Error(e);
        }
    }

    let cost = u64::try_from(requests.len()).expect("batch caps fit u64");
    if !tenant.try_acquire(cost) {
        tenant
            .counters
            .quota_rejections
            .fetch_add(1, Ordering::Relaxed);
        return WireResponse::Error(WireError::new(
            ErrorCode::QuotaExceeded,
            format!(
                "request of {cost} items would exceed the {}-item in-flight quota",
                tenant.max_inflight
            ),
        ));
    }
    count_admitted(tenant, &requests, is_batch);
    let outcome = client.access_batch_owned(requests);
    tenant.release(cost);

    match outcome {
        Ok(responses) => render_responses(responses, is_batch),
        Err(e) => WireResponse::Error(WireError::new(ErrorCode::Backend, e.to_string())),
    }
}

/// Rebases a tenant-relative [`Request`] onto its global address, after
/// checking the address against the tenant's range and a write's payload
/// against the block size.
fn translate_op(
    request: &mut Request,
    tenant: &TenantState,
    block_bytes: usize,
) -> Result<(), WireError> {
    if let Request::Write { data, .. } = request {
        if data.len() != block_bytes {
            return Err(WireError::new(
                ErrorCode::SizeMismatch,
                format!(
                    "write payload of {} bytes, blocks are {block_bytes}",
                    data.len()
                ),
            ));
        }
    }
    let (Request::Read { addr } | Request::Write { addr, .. } | Request::ReadRemove { addr }) =
        request;
    if *addr >= tenant.blocks {
        return Err(WireError::new(
            ErrorCode::AddrOutOfRange,
            format!(
                "address {addr} outside the tenant's {} blocks",
                tenant.blocks
            ),
        ));
    }
    *addr += tenant.base;
    Ok(())
}

fn count_admitted(tenant: &TenantState, requests: &[Request], is_batch: bool) {
    let c = &tenant.counters;
    let total = u64::try_from(requests.len()).expect("batch caps fit u64");
    c.requests.fetch_add(total, Ordering::Relaxed);
    if is_batch {
        c.batches.fetch_add(1, Ordering::Relaxed);
    }
    for r in requests {
        match r {
            Request::Read { .. } => c.reads.fetch_add(1, Ordering::Relaxed),
            Request::Write { .. } => c.writes.fetch_add(1, Ordering::Relaxed),
            Request::ReadRemove { .. } => c.read_removes.fetch_add(1, Ordering::Relaxed),
        };
    }
}

/// Renders ORAM responses back into wire shape: a BATCH answers with
/// per-item results, single ops with bare DATA/DONE.
fn render_responses(responses: Vec<Response>, is_batch: bool) -> WireResponse {
    let mut results = Vec::with_capacity(responses.len());
    for response in responses {
        results.push(match response.data {
            Some(data) => WireResult::Data(data),
            None => WireResult::Done,
        });
    }
    if is_batch {
        WireResponse::Batch(results)
    } else {
        match results.pop() {
            Some(WireResult::Data(data)) => WireResponse::Data(data),
            Some(WireResult::Done) => WireResponse::Done,
            None => WireResponse::Error(WireError::new(
                ErrorCode::Internal,
                "backend returned no response for a single request",
            )),
        }
    }
}
