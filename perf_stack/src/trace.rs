//! Spans recorded from the benchmark's own files, around the calls into each
//! layer: [`TimedBackend`] sits between the frontend and `PathOramBackend`,
//! [`TimedOram`] around the frontend (under a service shard or the map), and
//! the drivers record the client-side spans.  Nothing inside the layers is
//! edited; layers without a seam are timed by replay (see `replay`).
//!
//! A span carries its layer, the request it belongs to and its parent.  Spans
//! stay in the recording thread's buffer and reach the shared sink when the
//! thread ends (or on [`collect`]).

use std::cell::RefCell;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use freecursive::{
    Durability, EncryptionMode, FreecursiveError, FreecursiveOram, FrontendStats, Oram,
    OramBackend, OramError, PathOramBackend, Request, Response, StorageKind,
};
use path_oram::{AccessOp, BackendStats, BlockId, Leaf, OramParams};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A client call over TCP, send to reply.
    Client,
    /// An `OramClient` call: submit to a shard worker and wait.
    Hop,
    /// One oblivious-map operation.
    Map,
    /// One call into the frontend (`access` or `access_batch_owned`).
    Frontend,
    /// One backend path access.
    Backend,
    /// One backend append (no path is touched).
    Append,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Hop => "hop",
            Layer::Map => "map",
            Layer::Frontend => "frontend",
            Layer::Backend => "backend",
            Layer::Append => "append",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// The `n`th top-level operation seen by the recording thread; children
    /// inherit their parent's.
    pub req: u32,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// Nanoseconds since [`epoch`].
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn ns_of(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

#[derive(Default)]
struct ThreadBuffer {
    spans: Vec<Span>,
    open: Vec<u32>,
    next_req: u32,
}

impl ThreadBuffer {
    fn flush(&mut self) {
        // Also runs while a thread unwinds; a poisoned sink only loses the trace.
        if let (false, Ok(mut sink)) = (self.spans.is_empty(), SINK.lock()) {
            sink.push(std::mem::take(&mut self.spans));
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::default());
}

/// Reserves room so that buffer growth does not land inside a timed span.
pub fn reserve(spans: usize) {
    BUFFER.with(|b| b.borrow_mut().spans.reserve(spans));
}

/// Opens a span under whichever span this thread has open.
fn enter(layer: Layer) -> u32 {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let (parent, req) = match b.open.last() {
            Some(&parent) => (parent, b.spans[parent as usize].req),
            None => {
                b.next_req += 1;
                (NO_PARENT, b.next_req - 1)
            }
        };
        let index = b.spans.len() as u32;
        b.open.push(index);
        b.spans.push(Span {
            layer,
            req,
            parent,
            start: now_ns(),
            end: 0,
        });
        index
    })
}

fn exit(index: u32) {
    let end = now_ns();
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.spans[index as usize].end = end;
        let closed = b.open.pop();
        debug_assert_eq!(closed, Some(index));
    });
}

/// Records `f` as one span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let index = enter(layer);
    let result = f();
    exit(index);
    result
}

/// Records a top-level span whose ends were observed on different threads.
pub fn record(layer: Layer, req: u32, start: u64, end: u64) {
    BUFFER.with(|b| {
        b.borrow_mut().spans.push(Span {
            layer,
            req,
            parent: NO_PARENT,
            start,
            end,
        })
    });
}

/// Ends a traced phase: takes the calling thread's spans and every buffer
/// already flushed, one per recording thread, and writes them to `dump_to`
/// if asked.
pub fn collect(dump_to: Option<&Path>) -> Result<Vec<Vec<Span>>, String> {
    BUFFER.with(|b| b.borrow_mut().flush());
    let threads = std::mem::take(
        &mut *SINK
            .lock()
            .expect("no recorder panics while holding the sink"),
    );
    if let Some(path) = dump_to {
        dump(&threads, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(threads)
}

/// What one layer did between two instants.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Span durations, ns, ascending.
    pub durs: Vec<u64>,
    pub busy_ns: u64,
    /// Busy time minus the time covered by child spans.
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn count(&self) -> u64 {
        self.durs.len() as u64
    }
}

/// Per-layer totals over the spans that started within `window` (ns since
/// the trace epoch).
pub fn totals(threads: &[Vec<Span>], window: Range<u64>, layer: Layer) -> LayerTotals {
    let mut out = LayerTotals::default();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        for (s, children) in spans.iter().zip(&child_ns) {
            if s.layer == layer && window.contains(&s.start) {
                out.durs.push(s.dur());
                out.busy_ns += s.dur();
                out.self_ns += s.dur().saturating_sub(*children);
            }
        }
    }
    out.durs.sort_unstable();
    out
}

/// Writes every span as one CSV row.
fn dump(threads: &[Vec<Span>], path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,layer,req,parent,start_ns,end_ns")?;
    for (thread, spans) in threads.iter().enumerate() {
        for (index, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{thread},{index},{},{},{parent},{},{}",
                s.layer.label(),
                s.req,
                s.start,
                s.end
            )?;
        }
    }
    w.flush()
}

/// `PathOramBackend` with a span around every access.
#[derive(Debug)]
pub struct TimedBackend(PathOramBackend);

impl OramBackend for TimedBackend {
    fn new_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
    ) -> Result<Self, OramError> {
        PathOramBackend::new_backend(params, encryption, key, seed).map(TimedBackend)
    }

    fn new_backend_with(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
        storage: &StorageKind,
        durability: Durability,
        label: u32,
    ) -> Result<Self, OramError> {
        PathOramBackend::new_backend_with(params, encryption, key, seed, storage, durability, label)
            .map(TimedBackend)
    }

    fn params(&self) -> &OramParams {
        self.0.params()
    }

    fn access_into(
        &mut self,
        op: AccessOp,
        addr: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        data: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<bool, OramError> {
        let layer = if op == AccessOp::Append {
            Layer::Append
        } else {
            Layer::Backend
        };
        span(layer, || {
            self.0.access_into(op, addr, leaf, new_leaf, data, out)
        })
    }

    fn begin_batch(&mut self) {
        self.0.begin_batch();
    }

    fn end_batch(&mut self) -> Result<(), OramError> {
        self.0.end_batch()
    }

    fn stats(&self) -> &BackendStats {
        OramBackend::stats(&self.0)
    }

    fn reset_stats(&mut self) {
        OramBackend::reset_stats(&mut self.0);
    }
}

/// The frontend over a [`TimedBackend`], with a span around every call.
pub struct TimedOram(pub FreecursiveOram<TimedBackend>);

static RESIDENT_AT_DROP: AtomicU64 = AtomicU64::new(0);

/// Resident tree bytes of the last [`TimedOram`] dropped: how a stack that
/// was handed to a service still reports its store once the service ends.
pub fn resident_bytes_at_drop() -> u64 {
    RESIDENT_AT_DROP.load(Ordering::Relaxed)
}

impl TimedOram {
    pub fn params(&self) -> &OramParams {
        self.0.backend().params()
    }

    pub fn resident_bytes(&self) -> u64 {
        self.0.backend().0.storage().resident_bytes()
    }

    /// Sequence number of the last record logged (0 without a log).
    pub fn wal_seq(&self) -> u64 {
        self.0.backend().0.storage().wal_seq()
    }
}

impl Drop for TimedOram {
    fn drop(&mut self) {
        RESIDENT_AT_DROP.store(self.resident_bytes(), Ordering::Relaxed);
    }
}

impl Oram for TimedOram {
    fn block_bytes(&self) -> usize {
        self.0.block_bytes()
    }

    fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }

    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        span(Layer::Frontend, || self.0.access(request))
    }

    fn access_batch_owned(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        span(Layer::Frontend, || self.0.access_batch_owned(requests))
    }

    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        span(Layer::Frontend, || self.0.access_batch(requests))
    }

    fn stats(&self) -> &FrontendStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_carry_parent_and_request_and_self_time_excludes_children() {
        // Spans of this test live on this test's thread only.
        span(Layer::Map, || {
            span(Layer::Frontend, || {
                span(Layer::Backend, || std::hint::black_box(1));
                span(Layer::Backend, || std::hint::black_box(2));
            });
        });
        span(Layer::Map, || ());
        let spans = BUFFER.with(|b| std::mem::take(&mut b.borrow_mut().spans));
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        assert!(spans[..4].iter().all(|s| s.req == spans[0].req));
        assert_eq!(spans[4].req, spans[0].req + 1);
        assert!(spans.iter().all(|s| s.end >= s.start));

        let threads = vec![spans.clone()];
        let map = totals(&threads, 0..u64::MAX, Layer::Map);
        let frontend = totals(&threads, 0..u64::MAX, Layer::Frontend);
        let backend = totals(&threads, 0..u64::MAX, Layer::Backend);
        assert_eq!((map.count(), frontend.count(), backend.count()), (2, 1, 2));
        assert_eq!(map.self_ns, map.busy_ns - frontend.busy_ns);
        assert_eq!(frontend.self_ns, frontend.busy_ns - backend.busy_ns);
        assert_eq!(backend.self_ns, backend.busy_ns);
        // The window drops spans that started outside it.
        let second = spans[4].start;
        assert_eq!(totals(&threads, second..u64::MAX, Layer::Map).count(), 1);
        assert_eq!(totals(&threads, 0..second, Layer::Map).count(), 1);
    }
}
