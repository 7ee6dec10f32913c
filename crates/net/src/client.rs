//! A blocking TCP client for the wire protocol.
//!
//! [`NetClient::connect`] dials the server, performs the HELLO handshake,
//! and exposes synchronous [`read`](NetClient::read) /
//! [`write`](NetClient::write) / [`batch`](NetClient::batch) calls whose
//! shapes mirror the in-process `OramClient` — the differential test
//! suite leans on that symmetry.
//!
//! For pipelining, the split [`send_request`](NetClient::send_request) /
//! [`recv_response`](NetClient::recv_response) pair lets a caller queue
//! any number of requests before collecting responses; the server answers
//! a connection's requests in arrival order and echoes each request id.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use freecursive::Request;

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, TenantStats, WireError, WireRequest,
    WireResponse, WireResult,
};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or the server closed the connection).
    Io(io::Error),
    /// The server answered with a typed error frame.
    Server(WireError),
    /// The server broke protocol: undecodable frame, mismatched request
    /// id, or a response shape that does not fit the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Capabilities the server advertised in its HELLO response.
#[derive(Debug, Clone, Copy)]
pub struct SessionInfo {
    /// Server protocol version.
    pub protocol: u8,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// This tenant's capacity (addresses `0..num_blocks`).
    pub num_blocks: u64,
    /// This tenant's in-flight quota.
    pub max_inflight: u64,
}

/// A connected, HELLO-bound protocol client.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    info: SessionInfo,
    next_id: u64,
}

impl NetClient {
    /// Connects and binds to `tenant`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`crate::wire::ErrorCode::UnknownTenant`] for an
    /// unconfigured tenant; transport/protocol failures as usual.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = NetClient {
            reader,
            writer,
            info: SessionInfo {
                protocol: 0,
                block_bytes: 0,
                num_blocks: 0,
                max_inflight: 0,
            },
            next_id: 0,
        };
        let id = client.send_request(&WireRequest::Hello {
            tenant: tenant.to_string(),
        })?;
        match client.recv_expected(id)? {
            WireResponse::HelloOk {
                protocol,
                block_bytes,
                num_blocks,
                max_inflight,
            } => {
                client.info = SessionInfo {
                    protocol,
                    block_bytes,
                    num_blocks,
                    max_inflight,
                };
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// What the server advertised at handshake time.
    pub fn session(&self) -> SessionInfo {
        self.info
    }

    /// Encodes and sends one request, returning its id.  Does not wait:
    /// callers may pipeline several sends before receiving.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn send_request(&mut self, request: &WireRequest) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let (kind, body) = encode_request(request);
        write_frame(&mut self.writer, kind, id, &body)?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Receives the next response frame as `(request_id, response)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] with [`io::ErrorKind::UnexpectedEof`] if the
    /// server closed (e.g. after a fatal error frame it already sent);
    /// [`ClientError::Protocol`] for an undecodable frame.
    pub fn recv_response(&mut self) -> Result<(u64, WireResponse), ClientError> {
        let (header, body) = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let response = decode_response(header.kind, &body)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok((header.request_id, response))
    }

    /// One blocking round trip; checks the echoed id and unwraps error
    /// frames into [`ClientError::Server`].
    fn call(&mut self, request: &WireRequest) -> Result<WireResponse, ClientError> {
        let id = self.send_request(request)?;
        self.recv_expected(id)
    }

    fn recv_expected(&mut self, id: u64) -> Result<WireResponse, ClientError> {
        let (got_id, response) = self.recv_response()?;
        if got_id != id {
            return Err(ClientError::Protocol(format!(
                "response for request {got_id}, expected {id}"
            )));
        }
        match response {
            WireResponse::Error(e) => Err(ClientError::Server(e)),
            other => Ok(other),
        }
    }

    /// Reads one block (tenant-relative address).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn read(&mut self, addr: u64) -> Result<Vec<u8>, ClientError> {
        match self.call(&WireRequest::Read { addr })? {
            WireResponse::Data(data) => Ok(data),
            other => Err(unexpected("Data", &other)),
        }
    }

    /// Overwrites one block.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; short or long payloads come back as
    /// [`crate::wire::ErrorCode::SizeMismatch`].
    pub fn write(&mut self, addr: u64, data: Vec<u8>) -> Result<(), ClientError> {
        match self.call(&WireRequest::Write { addr, data })? {
            WireResponse::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Reads and zeroes one block.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn read_remove(&mut self, addr: u64) -> Result<Vec<u8>, ClientError> {
        match self.call(&WireRequest::ReadRemove { addr })? {
            WireResponse::Data(data) => Ok(data),
            other => Err(unexpected("Data", &other)),
        }
    }

    /// Executes an ordered batch of tenant-relative requests, returning
    /// per-item results.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; batches are admitted atomically against the
    /// tenant quota, so an oversized batch fails as a whole with
    /// [`crate::wire::ErrorCode::QuotaExceeded`].
    pub fn batch(&mut self, items: Vec<Request>) -> Result<Vec<WireResult>, ClientError> {
        match self.call(&WireRequest::Batch { items })? {
            WireResponse::Batch(results) => Ok(results),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Fetches this tenant's counters.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> Result<TenantStats, ClientError> {
        match self.call(&WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Flushes and half-closes the write side so the server sees a clean
    /// close; the connection is unusable afterwards.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        self.writer.get_ref().shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }
}

fn unexpected(wanted: &str, got: &WireResponse) -> ClientError {
    let shape = match got {
        WireResponse::HelloOk { .. } => "HelloOk",
        WireResponse::Data(_) => "Data",
        WireResponse::Done => "Done",
        WireResponse::Batch(_) => "Batch",
        WireResponse::Stats(_) => "Stats",
        WireResponse::Error(_) => "Error",
    };
    ClientError::Protocol(format!("expected a {wanted} response, got {shape}"))
}
