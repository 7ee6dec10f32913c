//! The wire protocol: length-prefixed binary frames with a versioned
//! header, a request id for pipelining, and typed error frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame:  magic "ON" (2) ‖ version u8 ‖ kind u8 ‖ request_id u64 ‖
//!         body_len u32 ‖ body (body_len bytes)           — all LE
//! ```
//!
//! The 16-byte header is fixed; `kind` selects the body grammar (request
//! kinds in `0x01..=0x7F`, response kinds in `0x80..=0xFF`).  `request_id`
//! is chosen by the client and echoed verbatim in the response, so a client
//! may pipeline any number of requests before reading a response; the
//! server answers each connection's requests in arrival order.
//!
//! ```text
//! body(HELLO)       = tenant_len u16 ‖ tenant (UTF-8)
//! body(READ)        = addr u64
//! body(WRITE)       = addr u64 ‖ data (rest of body; must be block_bytes)
//! body(READ_REMOVE) = addr u64
//! body(BATCH)       = count u32 ‖ count × item
//!     item          = op u8 (0x02 read / 0x03 write / 0x04 read-remove) ‖
//!                     addr u64 ‖ [data_len u32 ‖ data]      (write only)
//! body(STATS)       = (empty)
//!
//! body(R_HELLO)     = protocol u8 ‖ block_bytes u32 ‖ num_blocks u64 ‖
//!                     max_inflight u64
//! body(R_DATA)      = data (block_bytes)
//! body(R_DONE)      = (empty)
//! body(R_BATCH)     = count u32 ‖ count × item
//!     item          = kind u8 (0x82 data / 0x83 done) ‖ [data_len u32 ‖ data]
//! body(R_STATS)     = 9 × u64 (see [`TenantStats`], field order as declared)
//! body(R_ERROR)     = code u16 ‖ detail_len u16 ‖ detail (UTF-8)
//! ```
//!
//! # Error discipline
//!
//! A malformed frame is *always* answered with a typed `R_ERROR` frame —
//! never a panic, never a hang.  Errors split into two severities:
//!
//! * **Fatal** ([`ErrorCode::is_fatal`]): the byte stream itself can no
//!   longer be trusted (wrong magic, unsupported version, a length prefix
//!   past [`MAX_FRAME_BODY`]).  The server sends the error frame and closes
//!   the connection — resynchronising an untrusted stream is guesswork.
//! * **Recoverable**: the frame was well-delimited but wrong (unknown op,
//!   undecodable body, bad address, quota).  The server answers the error
//!   and keeps serving the connection; pipelined requests behind the bad
//!   one are unaffected.
//!
//! Addresses on the wire are **tenant-relative**: the server maps them into
//! the tenant's disjoint slice of the global ORAM address space (see
//! `crate::server`), so no tenant can name another tenant's blocks.

use std::io::{self, Read, Write};

use freecursive::Request;

/// Magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"ON";

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed frame header length: magic + version + kind + request_id +
/// body_len.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 1 + 8 + 4;

/// Upper bound on one frame's body.  Defends the server against memory
/// exhaustion from a hostile length prefix: anything larger is answered
/// with [`ErrorCode::Oversized`] and the connection is closed without the
/// body ever being allocated.  4 MiB comfortably holds the largest legal
/// frame ([`MAX_BATCH_ITEMS`] writes of a 4 KiB Phantom block would not
/// fit, but batches that large should be split anyway).
pub const MAX_FRAME_BODY: usize = 4 << 20;

/// Upper bound on items in one BATCH frame.
pub const MAX_BATCH_ITEMS: u32 = 4096;

/// Request frame kinds.
pub const KIND_HELLO: u8 = 0x01;
/// See [`KIND_HELLO`].
pub const KIND_READ: u8 = 0x02;
/// See [`KIND_HELLO`].
pub const KIND_WRITE: u8 = 0x03;
/// See [`KIND_HELLO`].
pub const KIND_READ_REMOVE: u8 = 0x04;
/// See [`KIND_HELLO`].
pub const KIND_BATCH: u8 = 0x05;
/// See [`KIND_HELLO`].
pub const KIND_STATS: u8 = 0x06;

/// Response frame kinds.
pub const KIND_R_HELLO: u8 = 0x81;
/// See [`KIND_R_HELLO`].
pub const KIND_R_DATA: u8 = 0x82;
/// See [`KIND_R_HELLO`].
pub const KIND_R_DONE: u8 = 0x83;
/// See [`KIND_R_HELLO`].
pub const KIND_R_BATCH: u8 = 0x85;
/// See [`KIND_R_HELLO`].
pub const KIND_R_STATS: u8 = 0x86;
/// See [`KIND_R_HELLO`].
pub const KIND_R_ERROR: u8 = 0xFF;

/// Typed error codes carried by `R_ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The frame did not start with [`WIRE_MAGIC`].  Fatal.
    BadMagic,
    /// The frame's version byte is not [`PROTOCOL_VERSION`].  Fatal.
    BadVersion,
    /// The body length prefix exceeds [`MAX_FRAME_BODY`].  Fatal.
    Oversized,
    /// The frame kind is not a known request.
    UnknownOp,
    /// The body does not decode under its kind's grammar.
    Malformed,
    /// A data-plane request arrived before a successful HELLO.
    NoHello,
    /// HELLO named a tenant this server does not serve.
    UnknownTenant,
    /// An address is outside the tenant's namespace.
    AddrOutOfRange,
    /// A write payload's length is not the block size.
    SizeMismatch,
    /// A BATCH frame has more than [`MAX_BATCH_ITEMS`] items.
    BatchTooLarge,
    /// Admitting the request would exceed the tenant's in-flight quota;
    /// back off and retry.
    QuotaExceeded,
    /// The ORAM behind the server failed the request; the detail string
    /// carries the [`freecursive::FreecursiveError`] rendering.
    Backend,
    /// The connection handler hit an internal error (e.g. a caught panic).
    Internal,
}

impl ErrorCode {
    /// The on-wire representation.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::Oversized => 3,
            ErrorCode::UnknownOp => 4,
            ErrorCode::Malformed => 5,
            ErrorCode::NoHello => 6,
            ErrorCode::UnknownTenant => 7,
            ErrorCode::AddrOutOfRange => 8,
            ErrorCode::SizeMismatch => 9,
            ErrorCode::BatchTooLarge => 10,
            ErrorCode::QuotaExceeded => 11,
            ErrorCode::Backend => 12,
            ErrorCode::Internal => 13,
        }
    }

    /// Inverse of [`ErrorCode::as_u16`].
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::Oversized,
            4 => ErrorCode::UnknownOp,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::NoHello,
            7 => ErrorCode::UnknownTenant,
            8 => ErrorCode::AddrOutOfRange,
            9 => ErrorCode::SizeMismatch,
            10 => ErrorCode::BatchTooLarge,
            11 => ErrorCode::QuotaExceeded,
            12 => ErrorCode::Backend,
            13 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Whether the server closes the connection after reporting this error
    /// (the byte stream can no longer be framed reliably).
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            ErrorCode::BadMagic | ErrorCode::BadVersion | ErrorCode::Oversized
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad magic",
            ErrorCode::BadVersion => "bad version",
            ErrorCode::Oversized => "oversized frame",
            ErrorCode::UnknownOp => "unknown op",
            ErrorCode::Malformed => "malformed body",
            ErrorCode::NoHello => "no hello",
            ErrorCode::UnknownTenant => "unknown tenant",
            ErrorCode::AddrOutOfRange => "address out of range",
            ErrorCode::SizeMismatch => "block size mismatch",
            ErrorCode::BatchTooLarge => "batch too large",
            ErrorCode::QuotaExceeded => "quota exceeded",
            ErrorCode::Backend => "backend failure",
            ErrorCode::Internal => "internal error",
        };
        f.write_str(name)
    }
}

/// A protocol-level failure: what an `R_ERROR` frame carries, and what the
/// decoding helpers in this module return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The typed code.
    pub code: ErrorCode,
    /// Human-readable description (kept short; it crosses the wire).
    pub detail: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> WireError {
        WireError {
            code,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for WireError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version byte.
    pub version: u8,
    /// Frame kind.
    pub kind: u8,
    /// Client-chosen id, echoed in the response.
    pub request_id: u64,
    /// Body length in bytes.
    pub body_len: u32,
}

/// Encodes a frame header.
pub fn encode_header(kind: u8, request_id: u64, body_len: u32) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[0..2].copy_from_slice(&WIRE_MAGIC);
    h[2] = PROTOCOL_VERSION;
    h[3] = kind;
    h[4..12].copy_from_slice(&request_id.to_le_bytes());
    h[12..16].copy_from_slice(&body_len.to_le_bytes());
    h
}

/// Decodes and validates a frame header.
///
/// # Errors
///
/// The fatal [`WireError`]s: [`ErrorCode::BadMagic`],
/// [`ErrorCode::BadVersion`], [`ErrorCode::Oversized`].
pub fn decode_header(h: &[u8; FRAME_HEADER_LEN]) -> Result<FrameHeader, WireError> {
    if h[0..2] != WIRE_MAGIC {
        return Err(WireError::new(
            ErrorCode::BadMagic,
            format!("frame starts {:02x}{:02x}, want \"ON\"", h[0], h[1]),
        ));
    }
    let version = h[2];
    if version != PROTOCOL_VERSION {
        return Err(WireError::new(
            ErrorCode::BadVersion,
            format!("protocol version {version}, this server speaks {PROTOCOL_VERSION}"),
        ));
    }
    let request_id = u64::from_le_bytes(h[4..12].try_into().expect("8-byte slice"));
    let body_len = u32::from_le_bytes(h[12..16].try_into().expect("4-byte slice"));
    if body_len as usize > MAX_FRAME_BODY {
        return Err(WireError::new(
            ErrorCode::Oversized,
            format!("body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte frame cap"),
        ));
    }
    Ok(FrameHeader {
        version,
        kind: h[3],
        request_id,
        body_len,
    })
}

/// Writes one whole frame.
///
/// # Errors
///
/// Propagates I/O errors; `body` longer than [`MAX_FRAME_BODY`] is a
/// caller bug and reported as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, kind: u8, request_id: u64, body: &[u8]) -> io::Result<()> {
    let body_len = u32::try_from(body.len())
        .ok()
        .filter(|&n| n as usize <= MAX_FRAME_BODY)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {} bytes exceeds the cap", body.len()),
            )
        })?;
    w.write_all(&encode_header(kind, request_id, body_len))?;
    w.write_all(body)
}

/// Reads one whole frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean close (EOF exactly at a frame boundary).
/// A close *inside* a frame (header or body) surfaces as
/// [`io::ErrorKind::UnexpectedEof`]; header-level protocol violations
/// surface as [`io::ErrorKind::InvalidData`] wrapping the [`WireError`]
/// (the server's interruptible reader reports these with more nuance —
/// this helper serves clients and tests).
///
/// # Errors
///
/// As described above, plus any transport error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(FrameHeader, Vec<u8>)>> {
    let mut h = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < h.len() {
        match r.read(&mut h[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            n => got += n,
        }
    }
    let header =
        decode_header(&h).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut body = vec![0u8; header.body_len as usize];
    r.read_exact(&mut body)?;
    Ok(Some((header, body)))
}

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Bind this connection to a tenant namespace.
    Hello {
        /// Tenant name (as configured on the server).
        tenant: String,
    },
    /// Single read.
    Read {
        /// Tenant-relative block address.
        addr: u64,
    },
    /// Single write.
    Write {
        /// Tenant-relative block address.
        addr: u64,
        /// New contents.
        data: Vec<u8>,
    },
    /// Single read-remove.
    ReadRemove {
        /// Tenant-relative block address.
        addr: u64,
    },
    /// Ordered multi-op batch.
    Batch {
        /// The operations, executed in order.  Addresses are
        /// tenant-relative; write payloads must be the server's block size.
        items: Vec<Request>,
    },
    /// Fetch this tenant's counters.
    Stats,
}

/// One result inside an `R_BATCH` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResult {
    /// A read-like op's returned block.
    Data(Vec<u8>),
    /// A write completed.
    Done,
}

/// Per-tenant counters, as served by STATS.  All counters are cumulative
/// since server start (or tenant creation) and cover every connection of
/// the tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Data-plane requests admitted (each batch item counts once).
    pub requests: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Read-removes among them.
    pub read_removes: u64,
    /// BATCH frames admitted.
    pub batches: u64,
    /// Error frames sent (any code, including quota rejections).
    pub errors: u64,
    /// Requests refused with [`ErrorCode::QuotaExceeded`].
    pub quota_rejections: u64,
    /// Frame bytes received on the tenant's connections (post-HELLO).
    pub bytes_in: u64,
    /// Frame bytes sent on the tenant's connections (post-HELLO).
    pub bytes_out: u64,
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// HELLO accepted; the connection is bound to the tenant.
    HelloOk {
        /// Server protocol version (== frame version today; carried in the
        /// body so future minor revisions can advertise capabilities).
        protocol: u8,
        /// Block size in bytes.
        block_bytes: u32,
        /// The tenant's capacity in blocks (addresses `0..num_blocks`).
        num_blocks: u64,
        /// The tenant's in-flight request quota.
        max_inflight: u64,
    },
    /// A read-like request's block contents.
    Data(Vec<u8>),
    /// A write completed.
    Done,
    /// Per-item results of a BATCH.
    Batch(Vec<WireResult>),
    /// Tenant counters.
    Stats(TenantStats),
    /// Typed failure.
    Error(WireError),
}

// ---------------------------------------------------------------------------
// Body codecs.  Encoders produce (kind, body); decoders take (kind, body).
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a frame body.
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError::new(
                    ErrorCode::Malformed,
                    format!(
                        "body truncated: wanted {n} bytes at offset {}, have {}",
                        self.pos,
                        self.buf.len()
                    ),
                )
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::new(
                ErrorCode::Malformed,
                format!(
                    "{} trailing bytes after the body",
                    self.buf.len() - self.pos
                ),
            ))
        }
    }
}

/// Encodes a request into its frame kind and body.
pub fn encode_request(request: &WireRequest) -> (u8, Vec<u8>) {
    match request {
        WireRequest::Hello { tenant } => {
            let name = tenant.as_bytes();
            let mut body = Vec::with_capacity(2 + name.len());
            body.extend_from_slice(&u16::try_from(name.len()).unwrap_or(u16::MAX).to_le_bytes());
            body.extend_from_slice(name);
            (KIND_HELLO, body)
        }
        WireRequest::Read { addr } => (KIND_READ, addr.to_le_bytes().to_vec()),
        WireRequest::Write { addr, data } => {
            let mut body = Vec::with_capacity(8 + data.len());
            body.extend_from_slice(&addr.to_le_bytes());
            body.extend_from_slice(data);
            (KIND_WRITE, body)
        }
        WireRequest::ReadRemove { addr } => (KIND_READ_REMOVE, addr.to_le_bytes().to_vec()),
        WireRequest::Batch { items } => {
            let mut body = Vec::new();
            body.extend_from_slice(&u32::try_from(items.len()).unwrap_or(u32::MAX).to_le_bytes());
            for item in items {
                match item {
                    Request::Read { addr } => {
                        body.push(KIND_READ);
                        body.extend_from_slice(&addr.to_le_bytes());
                    }
                    Request::Write { addr, data } => {
                        body.push(KIND_WRITE);
                        body.extend_from_slice(&addr.to_le_bytes());
                        body.extend_from_slice(
                            &u32::try_from(data.len()).unwrap_or(u32::MAX).to_le_bytes(),
                        );
                        body.extend_from_slice(data);
                    }
                    Request::ReadRemove { addr } => {
                        body.push(KIND_READ_REMOVE);
                        body.extend_from_slice(&addr.to_le_bytes());
                    }
                }
            }
            (KIND_BATCH, body)
        }
        WireRequest::Stats => (KIND_STATS, Vec::new()),
    }
}

/// Decodes a request frame body.
///
/// # Errors
///
/// [`ErrorCode::UnknownOp`] for a kind this server does not serve,
/// [`ErrorCode::Malformed`] for a body that does not decode,
/// [`ErrorCode::BatchTooLarge`] for a batch past [`MAX_BATCH_ITEMS`].
pub fn decode_request(kind: u8, body: &[u8]) -> Result<WireRequest, WireError> {
    let mut r = BodyReader::new(body);
    let request = match kind {
        KIND_HELLO => {
            let len = r.u16()? as usize;
            let name = r.take(len)?;
            let tenant = std::str::from_utf8(name)
                .map_err(|_| WireError::new(ErrorCode::Malformed, "tenant name is not UTF-8"))?
                .to_string();
            WireRequest::Hello { tenant }
        }
        KIND_READ => WireRequest::Read { addr: r.u64()? },
        KIND_WRITE => {
            let addr = r.u64()?;
            let data = r.rest().to_vec();
            WireRequest::Write { addr, data }
        }
        KIND_READ_REMOVE => WireRequest::ReadRemove { addr: r.u64()? },
        KIND_BATCH => {
            let count = r.u32()?;
            if count > MAX_BATCH_ITEMS {
                return Err(WireError::new(
                    ErrorCode::BatchTooLarge,
                    format!("{count} items exceed the {MAX_BATCH_ITEMS}-item batch cap"),
                ));
            }
            let mut items = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let op = r.u8()?;
                let addr = r.u64()?;
                items.push(match op {
                    KIND_READ => Request::Read { addr },
                    KIND_WRITE => {
                        let len = r.u32()? as usize;
                        Request::Write {
                            addr,
                            data: r.take(len)?.to_vec(),
                        }
                    }
                    KIND_READ_REMOVE => Request::ReadRemove { addr },
                    other => {
                        return Err(WireError::new(
                            ErrorCode::Malformed,
                            format!("unknown batch op {other:#04x}"),
                        ))
                    }
                });
            }
            WireRequest::Batch { items }
        }
        KIND_STATS => WireRequest::Stats,
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown request kind {other:#04x}"),
            ))
        }
    };
    r.finish()?;
    Ok(request)
}

/// Encodes a response into its frame kind and body.
pub fn encode_response(response: &WireResponse) -> (u8, Vec<u8>) {
    match response {
        WireResponse::HelloOk {
            protocol,
            block_bytes,
            num_blocks,
            max_inflight,
        } => {
            let mut body = Vec::with_capacity(1 + 4 + 8 + 8);
            body.push(*protocol);
            body.extend_from_slice(&block_bytes.to_le_bytes());
            body.extend_from_slice(&num_blocks.to_le_bytes());
            body.extend_from_slice(&max_inflight.to_le_bytes());
            (KIND_R_HELLO, body)
        }
        WireResponse::Data(data) => (KIND_R_DATA, data.clone()),
        WireResponse::Done => (KIND_R_DONE, Vec::new()),
        WireResponse::Batch(items) => {
            let mut body = Vec::new();
            body.extend_from_slice(&u32::try_from(items.len()).unwrap_or(u32::MAX).to_le_bytes());
            for item in items {
                match item {
                    WireResult::Data(data) => {
                        body.push(KIND_R_DATA);
                        body.extend_from_slice(
                            &u32::try_from(data.len()).unwrap_or(u32::MAX).to_le_bytes(),
                        );
                        body.extend_from_slice(data);
                    }
                    WireResult::Done => body.push(KIND_R_DONE),
                }
            }
            (KIND_R_BATCH, body)
        }
        WireResponse::Stats(s) => {
            let mut body = Vec::with_capacity(9 * 8);
            for v in [
                s.requests,
                s.reads,
                s.writes,
                s.read_removes,
                s.batches,
                s.errors,
                s.quota_rejections,
                s.bytes_in,
                s.bytes_out,
            ] {
                body.extend_from_slice(&v.to_le_bytes());
            }
            (KIND_R_STATS, body)
        }
        WireResponse::Error(e) => {
            let detail = e.detail.as_bytes();
            let len = detail.len().min(u16::MAX as usize);
            let mut body = Vec::with_capacity(4 + len);
            body.extend_from_slice(&e.code.as_u16().to_le_bytes());
            body.extend_from_slice(&u16::try_from(len).expect("clamped").to_le_bytes());
            body.extend_from_slice(&detail[..len]);
            (KIND_R_ERROR, body)
        }
    }
}

/// Decodes a response frame body.
///
/// # Errors
///
/// [`ErrorCode::Malformed`] / [`ErrorCode::UnknownOp`] if the frame does
/// not decode (a server this client should stop talking to).
pub fn decode_response(kind: u8, body: &[u8]) -> Result<WireResponse, WireError> {
    let mut r = BodyReader::new(body);
    let response = match kind {
        KIND_R_HELLO => WireResponse::HelloOk {
            protocol: r.u8()?,
            block_bytes: r.u32()?,
            num_blocks: r.u64()?,
            max_inflight: r.u64()?,
        },
        KIND_R_DATA => WireResponse::Data(r.rest().to_vec()),
        KIND_R_DONE => WireResponse::Done,
        KIND_R_BATCH => {
            let count = r.u32()?;
            if count > MAX_BATCH_ITEMS {
                return Err(WireError::new(
                    ErrorCode::Malformed,
                    format!("{count} batch results exceed the item cap"),
                ));
            }
            let mut items = Vec::with_capacity(count as usize);
            for _ in 0..count {
                items.push(match r.u8()? {
                    KIND_R_DATA => {
                        let len = r.u32()? as usize;
                        WireResult::Data(r.take(len)?.to_vec())
                    }
                    KIND_R_DONE => WireResult::Done,
                    other => {
                        return Err(WireError::new(
                            ErrorCode::Malformed,
                            format!("unknown batch result kind {other:#04x}"),
                        ))
                    }
                });
            }
            WireResponse::Batch(items)
        }
        KIND_R_STATS => WireResponse::Stats(TenantStats {
            requests: r.u64()?,
            reads: r.u64()?,
            writes: r.u64()?,
            read_removes: r.u64()?,
            batches: r.u64()?,
            errors: r.u64()?,
            quota_rejections: r.u64()?,
            bytes_in: r.u64()?,
            bytes_out: r.u64()?,
        }),
        KIND_R_ERROR => {
            let code_raw = r.u16()?;
            let code = ErrorCode::from_u16(code_raw).ok_or_else(|| {
                WireError::new(
                    ErrorCode::Malformed,
                    format!("unknown error code {code_raw}"),
                )
            })?;
            let len = r.u16()? as usize;
            let detail = String::from_utf8_lossy(r.take(len)?).into_owned();
            WireResponse::Error(WireError { code, detail })
        }
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown response kind {other:#04x}"),
            ))
        }
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: WireRequest) {
        let (kind, body) = encode_request(&request);
        assert_eq!(decode_request(kind, &body).unwrap(), request);
    }

    fn roundtrip_response(response: WireResponse) {
        let (kind, body) = encode_response(&response);
        assert_eq!(decode_response(kind, &body).unwrap(), response);
    }

    #[test]
    fn every_message_shape_roundtrips() {
        roundtrip_request(WireRequest::Hello {
            tenant: "alpha".into(),
        });
        roundtrip_request(WireRequest::Read { addr: 7 });
        roundtrip_request(WireRequest::Write {
            addr: u64::MAX,
            data: vec![0xAB; 64],
        });
        roundtrip_request(WireRequest::ReadRemove { addr: 0 });
        roundtrip_request(WireRequest::Batch {
            items: vec![
                Request::Read { addr: 1 },
                Request::Write {
                    addr: 2,
                    data: vec![3; 16],
                },
                Request::ReadRemove { addr: 3 },
            ],
        });
        roundtrip_request(WireRequest::Batch { items: vec![] });
        roundtrip_request(WireRequest::Stats);

        roundtrip_response(WireResponse::HelloOk {
            protocol: PROTOCOL_VERSION,
            block_bytes: 64,
            num_blocks: 1 << 20,
            max_inflight: 256,
        });
        roundtrip_response(WireResponse::Data(vec![9; 64]));
        roundtrip_response(WireResponse::Done);
        roundtrip_response(WireResponse::Batch(vec![
            WireResult::Data(vec![1; 8]),
            WireResult::Done,
        ]));
        roundtrip_response(WireResponse::Stats(TenantStats {
            requests: 1,
            reads: 2,
            writes: 3,
            read_removes: 4,
            batches: 5,
            errors: 6,
            quota_rejections: 7,
            bytes_in: 8,
            bytes_out: 9,
        }));
        roundtrip_response(WireResponse::Error(WireError::new(
            ErrorCode::QuotaExceeded,
            "back off",
        )));
    }

    #[test]
    fn header_rejects_the_fatal_shapes() {
        let good = encode_header(KIND_READ, 42, 8);
        let h = decode_header(&good).unwrap();
        assert_eq!(h.kind, KIND_READ);
        assert_eq!(h.request_id, 42);
        assert_eq!(h.body_len, 8);

        let mut bad_magic = good;
        bad_magic[0] = b'X';
        assert_eq!(
            decode_header(&bad_magic).unwrap_err().code,
            ErrorCode::BadMagic
        );

        let mut bad_version = good;
        bad_version[2] = 99;
        assert_eq!(
            decode_header(&bad_version).unwrap_err().code,
            ErrorCode::BadVersion
        );

        let mut oversized = good;
        oversized[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_header(&oversized).unwrap_err().code,
            ErrorCode::Oversized
        );
    }

    #[test]
    fn malformed_bodies_decode_to_typed_errors_not_panics() {
        // Truncated at every prefix of a well-formed WRITE body.
        let (kind, body) = encode_request(&WireRequest::Write {
            addr: 5,
            data: vec![1; 16],
        });
        for cut in 0..8 {
            // A write body shorter than its 8-byte address is malformed
            // (anything >= 8 bytes is a legal shorter payload, caught at
            // the block-size check server-side).
            assert_eq!(
                decode_request(kind, &body[..cut]).unwrap_err().code,
                ErrorCode::Malformed
            );
        }
        // A batch whose count lies about the items present.
        let mut lying = 3u32.to_le_bytes().to_vec();
        lying.push(KIND_READ);
        lying.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_request(KIND_BATCH, &lying).unwrap_err().code,
            ErrorCode::Malformed
        );
        // A batch past the item cap is typed precisely.
        let huge = (MAX_BATCH_ITEMS + 1).to_le_bytes().to_vec();
        assert_eq!(
            decode_request(KIND_BATCH, &huge).unwrap_err().code,
            ErrorCode::BatchTooLarge
        );
        // Trailing bytes after a complete body.
        let mut read = 0u64.to_le_bytes().to_vec();
        read.push(0xEE);
        assert_eq!(
            decode_request(KIND_READ, &read).unwrap_err().code,
            ErrorCode::Malformed
        );
        // Unknown kinds.
        assert_eq!(
            decode_request(0x42, &[]).unwrap_err().code,
            ErrorCode::UnknownOp
        );
        // Non-UTF-8 tenant names.
        let mut hello = 2u16.to_le_bytes().to_vec();
        hello.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_request(KIND_HELLO, &hello).unwrap_err().code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn frame_io_roundtrips_and_reports_clean_vs_torn_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_READ, 7, &0xABu64.to_le_bytes()).unwrap();
        write_frame(&mut buf, KIND_STATS, 8, &[]).unwrap();
        let mut r = &buf[..];
        let (h1, b1) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((h1.kind, h1.request_id), (KIND_READ, 7));
        assert_eq!(b1, 0xABu64.to_le_bytes());
        let (h2, b2) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((h2.kind, h2.request_id), (KIND_STATS, 8));
        assert!(b2.is_empty());
        // Clean close at the boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
        // Torn close mid-header and mid-body.
        let mut torn = &buf[..7];
        assert_eq!(
            read_frame(&mut torn).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut torn = &buf[..FRAME_HEADER_LEN + 3];
        assert_eq!(
            read_frame(&mut torn).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn error_codes_roundtrip_and_classify() {
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::Oversized,
            ErrorCode::UnknownOp,
            ErrorCode::Malformed,
            ErrorCode::NoHello,
            ErrorCode::UnknownTenant,
            ErrorCode::AddrOutOfRange,
            ErrorCode::SizeMismatch,
            ErrorCode::BatchTooLarge,
            ErrorCode::QuotaExceeded,
            ErrorCode::Backend,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
        assert!(ErrorCode::BadMagic.is_fatal());
        assert!(ErrorCode::Oversized.is_fatal());
        assert!(!ErrorCode::QuotaExceeded.is_fatal());
        assert!(!ErrorCode::Backend.is_fatal());
    }
}
