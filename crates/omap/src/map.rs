//! The oblivious key-value map itself: two-choice hashed buckets over a
//! block ORAM with a fixed, padded access schedule per operation.
//!
//! ## Access schedule
//!
//! Every operation — `insert`, `get`, `remove`, `contains`, hit or miss,
//! short value or chained — issues exactly
//! [`MapLayout::accesses_per_op`] ORAM requests in the same two phases:
//!
//! 1. **Probe**: read all `2 × blocks_per_bucket` blocks of both hash
//!    candidates in one batch.
//! 2. **Commit**: one batch that writes both bucket images back (changed
//!    or not) and performs exactly `chain_blocks` overflow-region
//!    accesses — the operation's real chain reads/writes first, then
//!    round-robin dummy reads padding out the remainder.
//!
//! The untrusted side therefore observes only "another map operation
//! happened": the backing ORAM hides *which* blocks each request touched,
//! and the fixed schedule hides everything the request *count* would
//! otherwise reveal (op type, hit/miss, value size, chain reuse).  Input
//! validation failures (`KeyTooLarge`/`ValueTooLarge`) issue zero
//! accesses — they depend only on the caller's own argument lengths,
//! which are public to the caller by definition.
//!
//! One inherited caveat: the backing frontend must itself not distinguish
//! reads from writes on the wire.  Path ORAM backends do not (every
//! access reads a path and writes it back); the deliberately-leaky
//! `InsecureOram` baseline leaks addresses no matter what this layer does.
//!
//! ## Trusted client state
//!
//! The overflow free list, entry count, dummy cursor, and statistics live
//! in trusted memory, like the PLB and stash of the Freecursive frontend
//! below.  They are captured by [`ObliviousMap::persist`] into
//! `omap.state` next to the ORAM's own snapshot and rebuilt by
//! [`ObliviousMap::resume`].

use std::path::Path;

use freecursive::{ConfigError, FreecursiveError, MapError, Oram, OramBuilder, Request, Response};
use oram_crypto::Sha3_224;
use path_oram::snapshot::{put_bytes, put_u64, read_state_file, write_state_file, SnapReader};

use crate::layout::{MapLayout, SLOT_OCCUPIED};
use crate::stats::MapStats;

/// Snapshot kind tag of the `omap.state` file (the backing ORAM's own
/// `oram.state` uses tags 1–4; the tree metadata header uses 0x10).
const KIND_OMAP: u8 = 0x20;

/// File name of the map-layer snapshot inside a persist directory.
const STATE_FILE: &str = "omap.state";

/// Marker for "no slot matched" inside the constant-shape bucket scan.
const NO_WAY: usize = usize::MAX;

/// What one completed bucket scan learned, in trusted memory only.
#[derive(Clone, Copy)]
struct ScanResult {
    /// Matching way, or [`NO_WAY`].
    found: usize,
    /// Number of vacant ways.
    empties: usize,
}

/// An oblivious `Vec<u8> → Vec<u8>` map layered on any [`Oram`]
/// implementation.  Construct through
/// [`BuildMap::build_map`](crate::BuildMap::build_map) (which sizes the
/// backing ORAM for you) or [`ObliviousMap::over`] (bring your own
/// instance); see the [crate docs](crate) for the security contract.
pub struct ObliviousMap<O: Oram = Box<dyn Oram>> {
    oram: O,
    layout: MapLayout,
    hash_seed: [u8; 16],
    /// Unallocated overflow block indices; allocation pops from the back.
    free: Vec<u32>,
    len: u64,
    /// Round-robin position for dummy overflow reads.
    dummy_cursor: u64,
    stats: MapStats,
    /// Reusable bucket images (`blocks_per_bucket × block_bytes` each).
    image_a: Vec<u8>,
    image_b: Vec<u8>,
}

/// Manual impl: `Box<dyn Oram>` is not `Debug`, and the bucket hash seed
/// must never end up in logs, so only public geometry and counters show.
impl<O: Oram> std::fmt::Debug for ObliviousMap<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObliviousMap")
            .field("layout", &self.layout)
            .field("len", &self.len)
            .field("free_overflow_blocks", &self.free.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<O: Oram> ObliviousMap<O> {
    /// Wraps an existing ORAM instance as an empty oblivious map.
    ///
    /// The ORAM's blocks must all be zero (freshly built): a zero block
    /// is an empty bucket.  `hash_seed` keys the bucket-choice hash; use
    /// the same seed when resuming state written by an external process.
    ///
    /// # Errors
    ///
    /// [`ConfigError::MapGeometry`] when `oram` is smaller than
    /// [`MapLayout::total_blocks`] or its block size differs from the
    /// layout's, plus any layout validation error.
    pub fn over(oram: O, layout: MapLayout, hash_seed: [u8; 16]) -> Result<Self, FreecursiveError> {
        layout.validate()?;
        if oram.block_bytes() != layout.block_bytes {
            return Err(ConfigError::MapGeometry {
                detail: "backing ORAM block size differs from the map layout",
            }
            .into());
        }
        if oram.num_blocks() < layout.total_blocks() {
            return Err(ConfigError::MapGeometry {
                detail: "backing ORAM has fewer blocks than the map layout needs",
            }
            .into());
        }
        let image_len = layout.blocks_per_bucket * layout.block_bytes;
        // Popping from the back hands out low indices first.
        let free = (0..layout.overflow_blocks as u32).rev().collect();
        Ok(ObliviousMap {
            oram,
            layout,
            hash_seed,
            free,
            len: 0,
            dummy_cursor: 0,
            stats: MapStats::default(),
            image_a: vec![0u8; image_len],
            image_b: vec![0u8; image_len],
        })
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The geometry this map operates under.
    pub fn layout(&self) -> &MapLayout {
        &self.layout
    }

    /// Map-level operation counters.
    pub fn stats(&self) -> &MapStats {
        &self.stats
    }

    /// Zeroes the map-level counters (the backing ORAM's are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Shared access to the backing ORAM (e.g. for its frontend stats).
    pub fn oram(&self) -> &O {
        &self.oram
    }

    /// Inserts or replaces `key → value`, returning the previous value's
    /// *length* if the key was present (`None` for a fresh insert).  The
    /// previous bytes themselves are not returned: fetching them would
    /// cost a second set of chain accesses, and callers that need them
    /// can `get` first at full schedule cost.
    ///
    /// # Errors
    ///
    /// [`MapError::KeyTooLarge`] / [`MapError::ValueTooLarge`] before any
    /// ORAM access; [`MapError::CapacityExhausted`] *after* the full
    /// padded schedule when both candidate buckets are full or the
    /// overflow pool is dry; backend errors as for [`Oram::access`].
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<Option<u64>, FreecursiveError> {
        self.check_key(key)?;
        if value.len() > self.layout.value_bytes {
            return Err(MapError::ValueTooLarge {
                len: value.len(),
                max: self.layout.value_bytes,
            }
            .into());
        }
        let (bucket_a, bucket_b) = self.candidates(key);
        self.load_buckets(bucket_a, bucket_b)?;
        let scan_a = self.scan_bucket(true, key);
        let scan_b = self.scan_bucket(false, key);

        // Pick the slot: an existing match wins (overwrite); otherwise
        // the emptier candidate bucket takes the new entry.
        let target = if scan_a.found != NO_WAY {
            Some((true, scan_a.found))
        } else if scan_b.found != NO_WAY {
            Some((false, scan_b.found))
        } else if scan_a.empties >= scan_b.empties && scan_a.empties > 0 {
            Some((true, self.first_empty(true)))
        } else if scan_b.empties > 0 {
            Some((false, self.first_empty(false)))
        } else {
            None
        };
        let Some((in_a, way)) = target else {
            // Both buckets full: finish the padded schedule so the failed
            // insert is indistinguishable from a successful one, then
            // report the (trusted-memory) failure.
            self.commit(bucket_a, bucket_b, Vec::new())?;
            self.note_op();
            self.stats.inserts += 1;
            self.stats.capacity_failures += 1;
            return Err(MapError::CapacityExhausted {
                detail: "both candidate buckets full",
            }
            .into());
        };

        // Plan the overflow chain before touching the images: reuse the
        // overwritten entry's blocks first, then draw fresh ones, and
        // only commit the free-list mutation after the ORAM batch lands.
        let image = if in_a { &self.image_a } else { &self.image_b };
        let overwriting = self.layout.slot_tag(image, way) == SLOT_OCCUPIED;
        let mut old_chain = Vec::new();
        let mut old_len = 0usize;
        if overwriting {
            old_len = self.layout.slot_val_len(image, way);
            for index in 0..self.layout.chain_needed(old_len) {
                old_chain.push(self.layout.slot_chain(image, way, index));
            }
        }
        let needed = self.layout.chain_needed(value.len());
        let reused = needed.min(old_chain.len());
        let fresh = needed - reused;
        if fresh > self.free.len() {
            self.commit(bucket_a, bucket_b, Vec::new())?;
            self.note_op();
            self.stats.inserts += 1;
            self.stats.capacity_failures += 1;
            return Err(MapError::CapacityExhausted {
                detail: "overflow pool exhausted",
            }
            .into());
        }
        let mut chain = old_chain[..reused].to_vec();
        chain.extend_from_slice(&self.free[self.free.len() - fresh..]);

        // Serialise the entry and its overflow payloads.
        let inline_len = value.len().min(self.layout.inline_bytes);
        let image = if in_a {
            &mut self.image_a
        } else {
            &mut self.image_b
        };
        self.layout
            .write_slot(image, way, key, value.len(), &chain, &value[..inline_len]);
        let mut chain_ops = Vec::with_capacity(needed);
        for (index, &block) in chain.iter().enumerate() {
            let start = self.layout.inline_bytes + index * self.layout.block_bytes;
            let end = value.len().min(start + self.layout.block_bytes);
            let mut data = vec![0u8; self.layout.block_bytes];
            data[..end - start].copy_from_slice(&value[start..end]);
            chain_ops.push(Request::Write {
                addr: self.layout.overflow_addr(block),
                data,
            });
        }

        self.commit(bucket_a, bucket_b, chain_ops)?;
        // The batch landed: make the trusted-state mutations permanent.
        let free_len = self.free.len();
        self.free.truncate(free_len - fresh);
        let previous = if overwriting {
            self.free.extend_from_slice(&old_chain[reused..]);
            Some(old_len as u64)
        } else {
            self.len += 1;
            None
        };
        self.note_op();
        self.stats.inserts += 1;
        if overwriting {
            self.stats.replacements += 1;
        }
        Ok(previous)
    }

    /// Looks up `key`, returning the stored value if present.
    ///
    /// # Errors
    ///
    /// [`MapError::KeyTooLarge`] before any access; backend errors as for
    /// [`Oram::access`].
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, FreecursiveError> {
        self.check_key(key)?;
        let result = self.lookup(key, false)?;
        self.note_op();
        self.stats.gets += 1;
        self.note_hit(result.is_some());
        Ok(result)
    }

    /// Removes `key`, returning the stored value if it was present.
    ///
    /// # Errors
    ///
    /// As for [`ObliviousMap::get`].
    pub fn remove(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, FreecursiveError> {
        self.check_key(key)?;
        let result = self.lookup(key, true)?;
        self.note_op();
        self.stats.removes += 1;
        self.note_hit(result.is_some());
        Ok(result)
    }

    /// Whether `key` is present.  Issues the same padded schedule as
    /// every other operation (the chain accesses are all dummies).
    ///
    /// # Errors
    ///
    /// As for [`ObliviousMap::get`].
    pub fn contains(&mut self, key: &[u8]) -> Result<bool, FreecursiveError> {
        self.check_key(key)?;
        let (bucket_a, bucket_b) = self.candidates(key);
        self.load_buckets(bucket_a, bucket_b)?;
        let found = self.scan_bucket(true, key).found != NO_WAY
            || self.scan_bucket(false, key).found != NO_WAY;
        self.commit(bucket_a, bucket_b, Vec::new())?;
        self.note_op();
        self.stats.contains_ops += 1;
        self.note_hit(found);
        Ok(found)
    }

    /// Snapshots the map into `dir`: the backing ORAM's own snapshot plus
    /// an `omap.state` file carrying the layout, hash seed, free list,
    /// entry count, and counters.  [`ObliviousMap::resume`] restores the
    /// pair; the usual barrier semantics of [`Oram::persist`] apply.
    ///
    /// # Errors
    ///
    /// As for [`Oram::persist`], plus I/O failures writing `omap.state`.
    pub fn persist(&self, dir: &Path) -> Result<(), FreecursiveError> {
        self.oram.persist(dir)?;
        let l = &self.layout;
        let mut payload = Vec::new();
        for v in [
            l.key_bytes as u64,
            l.value_bytes as u64,
            l.capacity,
            l.block_bytes as u64,
            l.num_buckets,
            l.slots_per_block as u64,
            l.blocks_per_bucket as u64,
            l.slot_stride as u64,
            l.inline_bytes as u64,
            l.chain_blocks as u64,
            l.overflow_blocks,
        ] {
            put_u64(&mut payload, v);
        }
        put_bytes(&mut payload, &self.hash_seed);
        put_u64(&mut payload, self.len);
        put_u64(&mut payload, self.dummy_cursor);
        let mut free_bytes = Vec::with_capacity(self.free.len() * 4);
        for &block in &self.free {
            free_bytes.extend_from_slice(&block.to_le_bytes());
        }
        put_bytes(&mut payload, &free_bytes);
        // Destructure so a new counter cannot be forgotten here.
        let MapStats {
            ops,
            inserts,
            gets,
            removes,
            contains_ops,
            hits,
            misses,
            replacements,
            capacity_failures,
            oram_requests,
        } = self.stats;
        for v in [
            ops,
            inserts,
            gets,
            removes,
            contains_ops,
            hits,
            misses,
            replacements,
            capacity_failures,
            oram_requests,
        ] {
            put_u64(&mut payload, v);
        }
        write_state_file(&dir.join(STATE_FILE), KIND_OMAP, &payload)?;
        Ok(())
    }

    /// Input validation shared by every operation.  Runs before any ORAM
    /// access: the outcome depends only on the caller's own argument
    /// length, never on map contents.
    fn check_key(&self, key: &[u8]) -> Result<(), FreecursiveError> {
        if key.len() > self.layout.key_bytes {
            return Err(MapError::KeyTooLarge {
                len: key.len(),
                max: self.layout.key_bytes,
            }
            .into());
        }
        Ok(())
    }

    /// The two candidate buckets of `key` under this map's seed.
    fn candidates(&self, key: &[u8]) -> (u64, u64) {
        let mut hasher = Sha3_224::new();
        hasher.update(&self.hash_seed);
        hasher.update(key);
        let digest = hasher.finalize();
        let first = u64::from_le_bytes(digest[0..8].try_into().expect("8 bytes"));
        let second = u64::from_le_bytes(digest[8..16].try_into().expect("8 bytes"));
        let bucket_a = first % self.layout.num_buckets;
        let mut bucket_b = second % self.layout.num_buckets;
        if bucket_b == bucket_a {
            bucket_b = (bucket_b + 1) % self.layout.num_buckets;
        }
        (bucket_a, bucket_b)
    }

    /// Phase 1: read both candidate buckets into the image buffers.
    fn load_buckets(&mut self, bucket_a: u64, bucket_b: u64) -> Result<(), FreecursiveError> {
        let g = self.layout.blocks_per_bucket;
        let mut requests = Vec::with_capacity(2 * g);
        for index in 0..g {
            requests.push(Request::Read {
                addr: self.layout.bucket_block_addr(bucket_a, index),
            });
        }
        for index in 0..g {
            requests.push(Request::Read {
                addr: self.layout.bucket_block_addr(bucket_b, index),
            });
        }
        let responses = self.oram.access_batch_owned(requests)?;
        let block = self.layout.block_bytes;
        for (index, response) in responses.iter().enumerate() {
            let data = response.data.as_deref().unwrap_or(&[]);
            let image = if index < g {
                &mut self.image_a
            } else {
                &mut self.image_b
            };
            let at = (index % g) * block;
            image[at..at + data.len()].copy_from_slice(data);
        }
        Ok(())
    }

    /// Phase 2: write both images back and perform exactly
    /// `chain_blocks` overflow accesses — `chain_ops` first, dummy
    /// round-robin reads for the rest.  Returns the batch responses
    /// (index `2 × blocks_per_bucket + i` is `chain_ops[i]`'s).
    fn commit(
        &mut self,
        bucket_a: u64,
        bucket_b: u64,
        chain_ops: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        debug_assert!(chain_ops.len() <= self.layout.chain_blocks);
        let g = self.layout.blocks_per_bucket;
        let block = self.layout.block_bytes;
        let mut requests = Vec::with_capacity(2 * g + self.layout.chain_blocks);
        for index in 0..g {
            requests.push(Request::Write {
                addr: self.layout.bucket_block_addr(bucket_a, index),
                data: self.image_a[index * block..(index + 1) * block].to_vec(),
            });
        }
        for index in 0..g {
            requests.push(Request::Write {
                addr: self.layout.bucket_block_addr(bucket_b, index),
                data: self.image_b[index * block..(index + 1) * block].to_vec(),
            });
        }
        let dummies = self.layout.chain_blocks - chain_ops.len();
        requests.extend(chain_ops);
        for _ in 0..dummies {
            requests.push(Request::Read {
                addr: self.layout.overflow_addr(self.dummy_cursor as u32),
            });
            self.dummy_cursor = (self.dummy_cursor + 1) % self.layout.overflow_blocks.max(1);
        }
        self.oram.access_batch_owned(requests)
    }

    // lint: ct-scope, no-alloc
    /// Scans every way of one loaded bucket for `probe_key` with a
    /// constant visit pattern: no early exit, full-width key compares
    /// against the zero-padded key span, and arithmetic selection of the
    /// first match — the scan's memory trace does not depend on where (or
    /// whether) the key sits.
    fn scan_bucket(&self, first: bool, probe_key: &[u8]) -> ScanResult {
        let image = if first { &self.image_a } else { &self.image_b };
        let l = &self.layout;
        let mut found = NO_WAY;
        let mut empties = 0usize;
        for way in 0..l.ways() {
            let occupied = (l.slot_tag(image, way) == SLOT_OCCUPIED) as usize;
            let len_eq = (l.slot_key_len(image, way) == probe_key.len()) as usize;
            let span = l.slot_key_span(image, way);
            let mut diff = 0u8;
            for (offset, &stored) in span.iter().enumerate() {
                let probed = probe_key.get(offset).copied().unwrap_or(0);
                diff |= stored ^ probed;
            }
            let bytes_eq = (diff == 0) as usize;
            let hit = occupied & len_eq & bytes_eq;
            let take = hit & ((found == NO_WAY) as usize);
            found = found * (1 - take) + way * take;
            empties += 1 - occupied;
        }
        ScanResult { found, empties }
    }
    // lint: end

    /// First vacant way of a loaded bucket; callers check `empties > 0`.
    fn first_empty(&self, first: bool) -> usize {
        let image = if first { &self.image_a } else { &self.image_b };
        (0..self.layout.ways())
            .find(|&way| self.layout.slot_tag(image, way) != SLOT_OCCUPIED)
            .expect("caller verified the bucket has an empty way")
    }

    /// Shared hit path of `get` and `remove`: probe, read the real chain
    /// (padded with dummies), optionally clear the slot, reassemble the
    /// value.  Stats are the caller's job.
    fn lookup(&mut self, key: &[u8], remove: bool) -> Result<Option<Vec<u8>>, FreecursiveError> {
        let (bucket_a, bucket_b) = self.candidates(key);
        self.load_buckets(bucket_a, bucket_b)?;
        let scan_a = self.scan_bucket(true, key);
        let scan_b = self.scan_bucket(false, key);
        let target = if scan_a.found != NO_WAY {
            Some((true, scan_a.found))
        } else if scan_b.found != NO_WAY {
            Some((false, scan_b.found))
        } else {
            None
        };
        let Some((in_a, way)) = target else {
            self.commit(bucket_a, bucket_b, Vec::new())?;
            return Ok(None);
        };

        let image = if in_a { &self.image_a } else { &self.image_b };
        let val_len = self.layout.slot_val_len(image, way);
        let needed = self.layout.chain_needed(val_len);
        let mut chain = Vec::with_capacity(needed);
        for index in 0..needed {
            chain.push(self.layout.slot_chain(image, way, index));
        }
        let inline_len = val_len.min(self.layout.inline_bytes);
        let mut value = Vec::with_capacity(val_len);
        value.extend_from_slice(&self.layout.slot_inline(image, way)[..inline_len]);

        if remove {
            let image = if in_a {
                &mut self.image_a
            } else {
                &mut self.image_b
            };
            self.layout.clear_slot(image, way);
        }
        let chain_ops = chain
            .iter()
            .map(|&block| Request::Read {
                addr: self.layout.overflow_addr(block),
            })
            .collect();
        let responses = self.commit(bucket_a, bucket_b, chain_ops)?;

        let first_chain = 2 * self.layout.blocks_per_bucket;
        for (index, response) in responses[first_chain..first_chain + needed]
            .iter()
            .enumerate()
        {
            let start = inline_len + index * self.layout.block_bytes;
            let take = val_len.min(start + self.layout.block_bytes) - start;
            let data = response.data.as_deref().unwrap_or(&[]);
            value.extend_from_slice(&data[..take]);
        }
        if remove {
            self.free.extend_from_slice(&chain);
            self.len -= 1;
        }
        Ok(Some(value))
    }

    /// Per-operation bookkeeping shared by every completed schedule.
    fn note_op(&mut self) {
        self.stats.ops += 1;
        self.stats.oram_requests += self.layout.accesses_per_op();
    }

    fn note_hit(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }
}

impl ObliviousMap<Box<dyn Oram>> {
    /// Resumes a map persisted by [`ObliviousMap::persist`]: reads
    /// `omap.state`, resumes the backing ORAM through
    /// [`OramBuilder::resume`], and cross-checks the two.
    ///
    /// # Errors
    ///
    /// Snapshot decode/digest failures as
    /// [`FreecursiveError::Backend`]; a backing ORAM that no longer
    /// matches the recorded layout as [`ConfigError::MapGeometry`].
    pub fn resume(dir: impl AsRef<Path>) -> Result<Self, FreecursiveError> {
        let dir = dir.as_ref();
        let (kind, payload) = read_state_file(&dir.join(STATE_FILE))?;
        if kind != KIND_OMAP {
            return Err(path_oram::OramError::Snapshot {
                detail: format!("omap.state has kind {kind}, expected {KIND_OMAP}"),
            }
            .into());
        }
        let mut reader = SnapReader::new(&payload);
        let err = |detail: String| path_oram::OramError::Snapshot { detail };
        let usize_field = |v: u64, name: &str| -> Result<usize, FreecursiveError> {
            usize::try_from(v)
                .map_err(|_| err(format!("omap.state field {name} overflows usize")).into())
        };
        let key_bytes = usize_field(reader.u64()?, "key_bytes")?;
        let value_bytes = usize_field(reader.u64()?, "value_bytes")?;
        let capacity = reader.u64()?;
        let block_bytes = usize_field(reader.u64()?, "block_bytes")?;
        let num_buckets = reader.u64()?;
        let slots_per_block = usize_field(reader.u64()?, "slots_per_block")?;
        let blocks_per_bucket = usize_field(reader.u64()?, "blocks_per_bucket")?;
        let slot_stride = usize_field(reader.u64()?, "slot_stride")?;
        let inline_bytes = usize_field(reader.u64()?, "inline_bytes")?;
        let chain_blocks = usize_field(reader.u64()?, "chain_blocks")?;
        let overflow_blocks = reader.u64()?;
        let layout = MapLayout {
            key_bytes,
            value_bytes,
            capacity,
            block_bytes,
            num_buckets,
            slots_per_block,
            blocks_per_bucket,
            slot_stride,
            inline_bytes,
            chain_blocks,
            overflow_blocks,
        };
        layout.validate()?;
        let seed_bytes = reader.bytes()?;
        let hash_seed: [u8; 16] = seed_bytes
            .try_into()
            .map_err(|_| err("omap.state hash seed is not 16 bytes".into()))?;
        let len = reader.u64()?;
        let dummy_cursor = reader.u64()?;
        let free_bytes = reader.bytes()?;
        if free_bytes.len() % 4 != 0 {
            return Err(err("omap.state free list is not a whole number of u32s".into()).into());
        }
        let mut free = Vec::with_capacity(free_bytes.len() / 4);
        for chunk in free_bytes.chunks_exact(4) {
            let block = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
            if u64::from(block) >= overflow_blocks {
                return Err(err(
                    "omap.state free list references a block outside the overflow pool".into(),
                )
                .into());
            }
            free.push(block);
        }
        let mut stats = MapStats::default();
        for field in [
            &mut stats.ops,
            &mut stats.inserts,
            &mut stats.gets,
            &mut stats.removes,
            &mut stats.contains_ops,
            &mut stats.hits,
            &mut stats.misses,
            &mut stats.replacements,
            &mut stats.capacity_failures,
            &mut stats.oram_requests,
        ] {
            *field = reader.u64()?;
        }
        reader.finish()?;

        let oram = OramBuilder::resume(dir)?;
        if oram.block_bytes() != layout.block_bytes {
            return Err(ConfigError::MapGeometry {
                detail: "resumed ORAM block size differs from the recorded map layout",
            }
            .into());
        }
        if oram.num_blocks() < layout.total_blocks() {
            return Err(ConfigError::MapGeometry {
                detail: "resumed ORAM has fewer blocks than the recorded map layout needs",
            }
            .into());
        }
        let image_len = layout.blocks_per_bucket * layout.block_bytes;
        Ok(ObliviousMap {
            oram,
            layout,
            hash_seed,
            free,
            len,
            dummy_cursor,
            stats,
            image_a: vec![0u8; image_len],
            image_b: vec![0u8; image_len],
        })
    }
}
