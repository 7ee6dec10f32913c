//! The Path ORAM backend: path read, stash maintenance, and greedy eviction.
//!
//! The access loop is engineered to be **allocation-free in steady state**:
//! the path's bucket indices, the decrypted path image, the eviction
//! classifier's worklists and the result payload all live in scratch buffers
//! owned by the backend (or passed in by the caller) and are reused across
//! accesses.  See `tests/backend_zero_alloc.rs` at the workspace root for
//! the allocator-counter proof.

use crate::bucket::{BucketView, BucketWriter};
use crate::encryption::{BucketCipher, EncryptionMode};
use crate::error::OramError;
use crate::params::OramParams;
use crate::snapshot::{self, SnapReader};
use crate::stash::{BlockIdBuildHasher, Stash};
use crate::stats::BackendStats;
use crate::storage::{StorageKind, TreeStorage};
use crate::tree::{deepest_common_level, path_linear_indices_into};
use crate::types::{AccessOp, BlockData, BlockId, Leaf};
use crate::wal::Durability;
use oram_crypto::ctr::KeystreamSpan;
use std::collections::HashSet;
use std::path::Path;

/// The interface the Freecursive frontends program against (the paper's
/// `Backend(a, l, l′, op, d′)`, §3.1).
///
/// This is the crate's substrate seam: the frontends in `freecursive` are
/// generic over it, so the Path ORAM machinery can be swapped for another
/// position-based backend (or for [`crate::InsecureBackend`] in functional
/// tests) without touching frontend code.  Implementations intended for
/// deployment must satisfy Property 1 of §6.5.2: an access reveals only the
/// leaf supplied by the frontend and a fixed amount of (encrypted) data
/// written back.
///
/// `Send` is a supertrait: backends move into per-shard worker threads in a
/// sharded deployment, so every implementation must be transferable across
/// threads (all in-tree backends are — they hold only owned buffers).
pub trait OramBackend: Send {
    /// Builds a backend for the given geometry.
    ///
    /// `encryption`, `key` and `seed` configure the bucket cipher and any
    /// randomised initialisation; backends without encrypted storage are free
    /// to ignore them.
    ///
    /// # Errors
    ///
    /// Returns an error if the backend cannot be constructed for `params`.
    fn new_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
    ) -> Result<Self, OramError>
    where
        Self: Sized;

    /// Builds a backend whose tree lives in the given [`StorageKind`],
    /// under the given [`Durability`] discipline (file-backed stores keep a
    /// write-ahead log for anything but [`Durability::None`]).  `label`
    /// distinguishes several trees sharing one storage directory (a
    /// frontend with one tree per recursion level passes the level index).
    ///
    /// The default ignores the hints and delegates to
    /// [`OramBackend::new_backend`] — correct for backends without
    /// untrusted tree storage (the flat insecure baseline keeps its map in
    /// RAM regardless); backends that *do* own a tree override this.
    ///
    /// # Errors
    ///
    /// As for [`OramBackend::new_backend`], plus storage I/O failures.
    #[allow(clippy::too_many_arguments)]
    fn new_backend_with(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
        storage: &StorageKind,
        durability: Durability,
        label: u32,
    ) -> Result<Self, OramError>
    where
        Self: Sized,
    {
        let _ = (storage, durability, label);
        Self::new_backend(params, encryption, key, seed)
    }

    /// Serialises the backend's controller-side state (stash, residency,
    /// cipher counters, statistics — everything *except* the tree, which
    /// [`OramBackend::persist_tree`] handles) into `out`.  The bytes are
    /// embedded in the frontend's snapshot state file, which is
    /// digest-sealed as a whole.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] from the default: the backend does not
    /// support persistence.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<(), OramError> {
        let _ = out;
        Err(OramError::Snapshot {
            detail: "this backend does not support persistence".into(),
        })
    }

    /// Writes the backend's tree into `dir` (see
    /// [`crate::TreeStorage::persist_to`]).  Backends without an external
    /// tree may implement this as a no-op.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] from the default: the backend does not
    /// support persistence.
    fn persist_tree(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        let _ = (dir, label);
        Err(OramError::Snapshot {
            detail: "this backend does not support persistence".into(),
        })
    }

    /// Rebuilds a backend from a snapshot: the tree files under `dir`
    /// (opened according to `storage`) plus the controller-side `state`
    /// bytes previously produced by [`OramBackend::save_state`].
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] from the default: the backend does not
    /// support persistence.
    #[allow(clippy::too_many_arguments)]
    fn resume_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
        storage: &StorageKind,
        durability: Durability,
        dir: &Path,
        label: u32,
        state: &[u8],
    ) -> Result<Self, OramError>
    where
        Self: Sized,
    {
        let _ = (
            params, encryption, key, seed, storage, durability, dir, label, state,
        );
        Err(OramError::Snapshot {
            detail: "this backend does not support persistence".into(),
        })
    }

    /// The tree geometry this backend serves.
    fn params(&self) -> &OramParams;

    /// Performs one backend access, writing any returned payload into `out`
    /// (cleared first; its capacity is reused across calls, which is the
    /// frontends' allocation-free read path).  Returns `true` when `out`
    /// carries data.
    ///
    /// * `Read` — fetch the block mapped to `leaf`, remap it to `new_leaf`,
    ///   and return its data.
    /// * `Write` — fetch the block, overwrite its contents with `data`, remap
    ///   to `new_leaf`; returns no data.
    /// * `ReadRmv` — fetch the block and remove it from the ORAM entirely,
    ///   returning its data (`new_leaf` is ignored).
    /// * `Append` — insert `data` as a new block mapped to `new_leaf`
    ///   without touching the tree (`leaf` is ignored); returns no data.
    ///
    /// Blocks that have never been written are implicitly created filled with
    /// zero bytes, which mirrors how a secure processor would see untouched
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns an error on stash overflow, malformed buckets (tampering),
    /// leaf out of range, size-mismatched write data, or appending a block
    /// that is already resident.
    fn access_into(
        &mut self,
        op: AccessOp,
        addr: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        data: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<bool, OramError>;

    /// Owned-payload convenience wrapper over [`OramBackend::access_into`]
    /// (allocates the returned payload; hot paths should prefer
    /// `access_into` with a reused buffer).
    ///
    /// # Errors
    ///
    /// As for [`OramBackend::access_into`].
    fn access(
        &mut self,
        op: AccessOp,
        addr: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        data: Option<&[u8]>,
    ) -> Result<Option<BlockData>, OramError> {
        let mut out = Vec::new();
        let has_data = self.access_into(op, addr, leaf, new_leaf, data, &mut out)?;
        Ok(has_data.then_some(out))
    }

    /// A no-op that no workspace caller invokes and no workspace backend
    /// overrides.  It stays only because the `perf_stack` benchmark's
    /// tracing wrapper forwards it.  Batching changes how many requests
    /// one call carries, never the tree I/O; the storage treetop (see
    /// [`TreeStorage`]) is how the upper levels stay in RAM.
    fn begin_batch(&mut self) {}

    /// The no-op counterpart of [`OramBackend::begin_batch`], kept for the
    /// same reason.
    ///
    /// # Errors
    ///
    /// None from the default.
    fn end_batch(&mut self) -> Result<(), OramError> {
        Ok(())
    }

    /// Accumulated backend statistics.
    fn stats(&self) -> &BackendStats;

    /// Resets the statistics counters (storage contents are retained).
    fn reset_stats(&mut self);
}

/// The functional Path ORAM backend.
///
/// Holds the encrypted tree in a [`TreeStorage`] (the in-memory arena by
/// default, or the file-backed store via
/// [`OramBackend::new_backend_with`]), a bounded slab [`Stash`], a
/// [`BucketCipher`], and the reusable scratch buffers of the hot path.  See
/// the crate-level example for usage.
#[derive(Debug)]
pub struct PathOramBackend {
    params: OramParams,
    storage: TreeStorage,
    cipher: BucketCipher,
    stash: Stash,
    stats: BackendStats,
    /// Addresses of blocks currently stored in the ORAM (stash or tree);
    /// used to detect duplicate appends and to implement implicit
    /// zero-initialisation.
    resident: HashSet<BlockId, BlockIdBuildHasher>,
    /// Scratch: linear bucket indices of the path being processed.
    path_idx: Vec<u64>,
    /// Scratch: the decrypted plaintext path, one bucket image per level.
    path_buf: Vec<u8>,
    /// Scratch: real blocks found on the path that are *not* the block of
    /// interest.  They bypass the stash entirely — classified straight out
    /// of `path_buf` and written back from there — so the stash only ever
    /// holds the block of interest, appends, and eviction leftovers.
    path_blocks: Vec<PathBlockRef>,
    /// Scratch: eviction classifier worklists, one per tree level — list `d`
    /// holds the eviction candidates whose deepest legal level on the
    /// current path is `d`.  Entries tag [`PATH_ENTRY_BIT`] to distinguish
    /// `path_blocks` indices from stash slots.
    evict_depth: Vec<Vec<u32>>,
    /// Scratch: classifier entries still eligible as the eviction walks from
    /// the leaf towards the root.
    evict_carry: Vec<u32>,
    /// Scratch: keystream spans covering the path's buckets, so the whole
    /// path is decrypted (and re-encrypted) in **one batched engine pass per
    /// direction** instead of one cipher call per bucket.
    cipher_spans: Vec<KeystreamSpan>,
    /// Scratch: the eviction staging image for file-backed stores — buckets
    /// are serialised and sealed here, then handed to the store as one
    /// batched path write.  (Without a file tier the arena is the whole
    /// tree and eviction writes in place, skipping this buffer; eviction
    /// reads payloads out of `path_buf`, so the staging area must be a
    /// separate allocation.)
    write_buf: Vec<u8>,
}

/// High bit of an eviction-classifier entry: set for `path_blocks` indices,
/// clear for stash slab slots.
const PATH_ENTRY_BIT: u32 = 1 << 31;

/// A real block sitting in the decrypted path scratch buffer.
#[derive(Debug, Clone, Copy)]
struct PathBlockRef {
    addr: BlockId,
    leaf: Leaf,
    /// Byte offset of the block's payload within `path_buf`.
    offset: u32,
}

/// Routes one parsed bucket's real blocks during the path read: the block
/// of interest goes into the stash, every other block becomes a
/// [`PathBlockRef`] into the path scratch the view reads from, classified
/// into the eviction worklists.  Free function over the individual fields
/// so the caller can hold the view borrowed from the scratch.
#[allow(clippy::too_many_arguments)]
// lint: ct-scope, no-alloc
fn classify_bucket(
    view: BucketView<'_>,
    of_interest: BlockId,
    path_leaf: Leaf,
    bucket_base: usize,
    params: &OramParams,
    stash: &mut Stash,
    path_blocks: &mut Vec<PathBlockRef>,
    evict_depth: &mut [Vec<u32>],
    stats: &mut BackendStats,
) {
    let data_base = params.bucket_data_base();
    for slot in view.occupied() {
        stats.real_blocks_fetched += 1;
        // lint: allow(secret-branch, on-chip destination select between stash and writeback scratch; both arms touch the slot and the external trace is unchanged)
        if slot.addr == of_interest {
            stash.insert_from_parts(slot.addr, slot.leaf, slot.data);
            continue;
        }
        let offset = bucket_base + data_base + slot.slot * params.block_bytes;
        let entry = path_blocks.len() as u32 | PATH_ENTRY_BIT;
        // lint: allow(no-alloc, pre-reserved to levels*z at construction; steady state never grows)
        path_blocks.push(PathBlockRef {
            addr: slot.addr,
            leaf: slot.leaf,
            offset: offset as u32,
        });
        let depth = deepest_common_level(slot.leaf, path_leaf, params.leaf_level());
        // lint: allow(no-alloc, classifier lists pre-reserved to the worst-case candidate bound)
        evict_depth[depth as usize].push(entry);
    }
}
// lint: end

/// Serialises one eviction bucket into `image`: takes up to `take` entries
/// from the carry list (path blocks read out of `path_buf`, stash blocks
/// out of their slots, which are released), stamps `seed`, and zeroes the
/// dummy slots via `finish`.  Free function over the individual fields so
/// the caller can hold `image` borrowed from either the arena or the
/// staging buffer.
#[allow(clippy::too_many_arguments)]
// lint: ct-scope, no-alloc
fn fill_bucket(
    image: &mut [u8],
    params: &OramParams,
    seed: u64,
    take: usize,
    evict_carry: &[u32],
    carry_pos: &mut usize,
    path_blocks: &[PathBlockRef],
    path_buf: &[u8],
    stash: &mut Stash,
) {
    let block_bytes = params.block_bytes;
    let mut writer = BucketWriter::begin(image, params, seed);
    for _ in 0..take {
        let entry = evict_carry[*carry_pos];
        *carry_pos += 1;
        if entry & PATH_ENTRY_BIT != 0 {
            let path_block = path_blocks[(entry & !PATH_ENTRY_BIT) as usize];
            let offset = path_block.offset as usize;
            // lint: allow(no-alloc, BucketWriter::push serialises into the caller's fixed bucket image; no heap)
            writer.push(
                path_block.addr,
                path_block.leaf,
                &path_buf[offset..offset + block_bytes],
            );
        } else {
            let (addr, block_leaf, data) = stash.slot_payload(entry);
            // lint: allow(no-alloc, BucketWriter::push serialises into the caller's fixed bucket image; no heap)
            writer.push(addr, block_leaf, data);
            stash.release_slot(entry);
        }
    }
    writer.finish();
}
// lint: end

impl PathOramBackend {
    /// Creates a backend with an empty (lazily initialised) tree.
    ///
    /// `_seed` keeps the constructor signature stable for deterministic test
    /// harnesses that may later want seeded randomised initialisation.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` to keep the signature
    /// stable as initialisation strategies grow.
    pub fn new(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        _seed: u64,
    ) -> Result<Self, OramError> {
        Ok(Self::from_parts(
            params,
            encryption,
            key,
            TreeStorage::new(&params),
        ))
    }

    fn from_parts(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        storage: TreeStorage,
    ) -> Self {
        let cipher = BucketCipher::new(encryption, key);
        let levels = params.levels() as usize;
        // Transient headroom: a full path of real blocks plus the implicit
        // zero-initialised block of the access in flight.
        let stash = Stash::new(
            params.stash_capacity,
            params.block_bytes,
            levels * params.z + 1,
        );
        // Worst-case eviction candidates in one pass: the whole stash plus
        // every real block on the path.  Pre-reserving the classifier lists
        // at that bound keeps the steady state free of reallocations.
        let max_candidates = params.stash_capacity + levels * params.z + 1;
        // The staging buffer is only exercised by file-backed stores, but
        // allocating it unconditionally keeps construction uniform (one
        // path image, ~the size of `path_buf`).
        let write_buf = vec![0u8; levels * params.bucket_bytes()];
        Self {
            params,
            storage,
            cipher,
            stash,
            stats: BackendStats::default(),
            resident: HashSet::default(),
            path_idx: Vec::with_capacity(levels),
            path_buf: vec![0u8; levels * params.bucket_bytes()],
            path_blocks: Vec::with_capacity(levels * params.z),
            evict_depth: (0..levels)
                .map(|_| Vec::with_capacity(max_candidates))
                .collect(),
            evict_carry: Vec::with_capacity(max_candidates),
            cipher_spans: Vec::with_capacity(levels),
            write_buf,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// Resets statistics (tree contents are retained).
    pub fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }

    /// The untrusted storage (adversary's view), immutable.
    pub fn storage(&self) -> &TreeStorage {
        &self.storage
    }

    /// The untrusted storage, mutable — this is the active adversary's
    /// tampering handle (§2).
    pub fn storage_mut(&mut self) -> &mut TreeStorage {
        &mut self.storage
    }

    /// Current stash occupancy (diagnostics).
    pub fn stash_occupancy(&self) -> usize {
        self.stash.len()
    }

    /// Whether a block address is currently stored (stash or tree).
    pub fn is_resident(&self, addr: BlockId) -> bool {
        self.resident.contains(&addr)
    }

    /// Whether a block currently sits in the on-chip stash (as opposed to the
    /// untrusted tree).  Diagnostic/test helper: lets adversarial tests check
    /// whether a block is actually exposed to tampering.
    pub fn stash_contains(&self, addr: BlockId) -> bool {
        self.stash.contains(addr)
    }

    /// Slab slot capacity of the stash (diagnostics for the
    /// capacity-stability tests).
    pub fn stash_slot_capacity(&self) -> usize {
        self.stash.slot_capacity()
    }

    /// Restores the state written by [`OramBackend::save_state`].
    ///
    /// The trailing barrier is checked against the (possibly WAL-recovered)
    /// store: controller state — stash, residency, cipher counter — is a
    /// point-in-time capture, so resuming it against a tree that has
    /// advanced past (or fallen behind) that point would silently
    /// desynchronise the two.  WAL recovery makes this *detectable*: the
    /// store knows exactly which writeback its contents cover.
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation, geometry mismatch, or a
    /// barrier mismatch (the tree does not match the controller snapshot).
    fn load_controller_state(&mut self, state: &[u8]) -> Result<(), OramError> {
        let mut r = SnapReader::new(state);
        self.cipher.set_global_seed(r.u64()?);
        let resident_count = r.len(r.remaining() / 8)?;
        self.resident.clear();
        self.resident.reserve(resident_count);
        for _ in 0..resident_count {
            self.resident.insert(r.u64()?);
        }
        self.stash.load(&mut r)?;
        self.stats = BackendStats::load(&mut r)?;
        let barrier = r.u64()?;
        r.finish()?;
        let store_seq = self.storage.wal_seq();
        if store_seq != barrier {
            return Err(OramError::Snapshot {
                detail: format!(
                    "tree/controller snapshot mismatch: the recovered tree covers \
                     writeback {store_seq}, but the controller state was captured at \
                     writeback {barrier}; resume from a snapshot whose persist() \
                     completed, or rebuild the instance"
                ),
            });
        }
        Ok(())
    }

    /// Queues the keystream span that unseals the bucket image at `level`
    /// of the path scratch, its seed read from the plaintext header; nothing
    /// in plaintext mode.
    // lint: ct-scope, no-alloc
    #[inline]
    fn queue_unseal(&mut self, level: usize, bucket_idx: u64) {
        if self.cipher.mode() == EncryptionMode::None {
            return;
        }
        let bucket_base = level * self.params.bucket_bytes();
        let seed = u64::from_le_bytes(
            self.path_buf[bucket_base..bucket_base + 8]
                .try_into()
                .expect("seed header"),
        );
        self.cipher.push_span(
            &mut self.cipher_spans,
            bucket_idx,
            seed,
            bucket_base,
            &self.params,
        );
        self.stats.buckets_decrypted += 1;
    }
    // lint: end

    /// Reads the path's buckets: the store copies each initialised bucket
    /// into the path scratch buffer (memcpys out of the treetop arena, at
    /// most ⌈levels/k⌉ subtree-extent reads from the file tier below it),
    /// the whole path is decrypted in one batched engine pass, and each
    /// bucket's real blocks are classified for the upcoming eviction in the
    /// same pass that parses it.  The block of interest (`addr`) is copied
    /// into the stash; every other real block only gets a [`PathBlockRef`]
    /// into the scratch plus a classifier entry — it is written back
    /// straight from there.  No per-bucket or per-block allocation.
    // lint: ct-scope, no-alloc
    fn read_path(&mut self, addr: BlockId, leaf: Leaf) -> Result<(), OramError> {
        let bucket_bytes = self.params.bucket_bytes();
        self.path_blocks.clear();
        for list in &mut self.evict_depth {
            list.clear();
        }
        self.cipher_spans.clear();

        self.storage
            .read_path_into(&self.path_idx, &mut self.path_buf)?;
        for level in 0..self.path_idx.len() {
            let bucket_idx = self.path_idx[level];
            self.stats.bytes_read += bucket_bytes as u64;
            if self.storage.is_initialized(bucket_idx) {
                self.queue_unseal(level, bucket_idx);
            }
        }

        self.cipher
            .apply_spans(&self.cipher_spans, &mut self.path_buf);
        for (level, &bucket_idx) in self.path_idx.iter().enumerate() {
            if !self.storage.is_initialized(bucket_idx) {
                continue;
            }
            let bucket_base = level * bucket_bytes;
            let image = &self.path_buf[bucket_base..bucket_base + bucket_bytes];
            let view = BucketView::parse(image, &self.params, bucket_idx)?;
            classify_bucket(
                view,
                addr,
                leaf,
                bucket_base,
                &self.params,
                &mut self.stash,
                &mut self.path_blocks,
                &mut self.evict_depth,
                &mut self.stats,
            );
        }
        Ok(())
    }
    // lint: end

    /// Writes the path back: the candidates were already classified by the
    /// deepest level they may legally occupy on the current path — path
    /// blocks during [`PathOramBackend::read_path`], stash slots in one
    /// O(stash) pass here — then buckets are filled deepest-first, each
    /// serialised straight into its arena slot or, with a file tier, into
    /// the staging image, and sealed in one pass.  Path blocks that
    /// find no room (possible once the accessed block stole a slot) are
    /// spilled into the stash at the end.
    // lint: ct-scope, no-alloc
    fn evict_path(&mut self, leaf: Leaf) -> Result<(), OramError> {
        let leaf_level = self.params.leaf_level();
        let block_bytes = self.params.block_bytes;
        let bucket_bytes = self.params.bucket_bytes();

        // Stash blocks join the path blocks classified during the read
        // (the stash mutated since then: the access inserted, remapped or
        // removed the block of interest, so it classifies here).
        for (slot, _, block_leaf) in self.stash.occupied_slots() {
            let depth = deepest_common_level(block_leaf, leaf, leaf_level);
            // lint: allow(no-alloc, classifier lists pre-reserved to the worst-case candidate bound)
            self.evict_depth[depth as usize].push(slot);
        }

        // Deepest-first fills: walking the path leaf → root, candidates that
        // became eligible at a deeper level but found no room remain
        // eligible at every shallower level, so they carry over.
        self.evict_carry.clear();
        self.cipher_spans.clear();
        let mut carry_pos = 0usize;

        // Mem buckets are serialised (write-back seed stamped) straight into
        // their arena slots and sealed there; with a file tier they go into
        // the staging buffer, which is sealed and handed to the store as
        // one `write_path` (one positional write per subtree window
        // `read_path` staged).  The old seeds come from the path scratch,
        // whose headers the read copied verbatim (the keystream spans
        // exclude them); one batched engine pass seals the whole path.
        let file_backed = self.storage.is_file_backed();
        for level in (0..=leaf_level).rev() {
            let bucket_idx = self.path_idx[level as usize];
            self.evict_carry
                // lint: allow(no-alloc, carry list pre-reserved to the stash-plus-path bound)
                .extend(self.evict_depth[level as usize].iter().copied());
            let take = self.params.z.min(self.evict_carry.len() - carry_pos);

            // Preserve the old seed so the per-bucket-seed discipline can
            // increment it (§6.4); a never-written bucket starts at 0.
            let bucket_base = level as usize * bucket_bytes;
            let old_seed = if self.storage.is_initialized(bucket_idx) {
                u64::from_le_bytes(
                    self.path_buf[bucket_base..bucket_base + 8]
                        .try_into()
                        .expect("seed header"),
                )
            } else {
                0
            };
            let seed = self.cipher.writeback_seed(old_seed);

            let (image, span_offset) = if file_backed {
                (
                    &mut self.write_buf[bucket_base..bucket_base + bucket_bytes],
                    bucket_base,
                )
            } else {
                let offset = self.storage.arena_offset(bucket_idx);
                (self.storage.arena_slot_mut(bucket_idx), offset)
            };
            fill_bucket(
                image,
                &self.params,
                seed,
                take,
                &self.evict_carry,
                &mut carry_pos,
                &self.path_blocks,
                &self.path_buf,
                &mut self.stash,
            );
            self.cipher.push_span(
                &mut self.cipher_spans,
                bucket_idx,
                seed,
                span_offset,
                &self.params,
            );
            if self.cipher.mode() != EncryptionMode::None {
                self.stats.buckets_encrypted += 1;
            }

            self.stats.blocks_evicted += take as u64;
            self.stats.dummies_written += (self.params.z - take) as u64;
            self.stats.bytes_written += bucket_bytes as u64;
        }
        if file_backed {
            self.cipher
                .apply_spans(&self.cipher_spans, &mut self.write_buf);
            self.storage.write_path(&self.path_idx, &self.write_buf)?;
        } else {
            self.cipher
                .apply_spans(&self.cipher_spans, self.storage.arena_mut());
        }

        // Spill unplaced path blocks into the stash; they join the next
        // eviction's candidates like any other stash block.
        while carry_pos < self.evict_carry.len() {
            let entry = self.evict_carry[carry_pos];
            carry_pos += 1;
            if entry & PATH_ENTRY_BIT != 0 {
                let path_block = self.path_blocks[(entry & !PATH_ENTRY_BIT) as usize];
                let offset = path_block.offset as usize;
                self.stash.insert_from_parts(
                    path_block.addr,
                    path_block.leaf,
                    &self.path_buf[offset..offset + block_bytes],
                );
            }
        }
        Ok(())
    }
    // lint: end
}

impl OramBackend for PathOramBackend {
    fn new_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        seed: u64,
    ) -> Result<Self, OramError> {
        Self::new(params, encryption, key, seed)
    }

    /// Builds the backend over a freshly created [`TreeStorage`] of the
    /// given kind (see [`TreeStorage::create`]).
    fn new_backend_with(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        _seed: u64,
        storage: &StorageKind,
        durability: Durability,
        label: u32,
    ) -> Result<Self, OramError> {
        let storage = TreeStorage::create(&params, storage, label, durability)?;
        Ok(Self::from_parts(params, encryption, key, storage))
    }

    /// Serialises the controller-side state: cipher counter, residency set,
    /// the stash (exact slot layout included, so a resumed instance evicts
    /// identically), statistics, and the WAL sequence barrier — the
    /// writeback sequence number the tree stood at when this state was
    /// captured.
    fn save_state(&self, out: &mut Vec<u8>) -> Result<(), OramError> {
        snapshot::put_u64(out, self.cipher.global_seed());
        let mut resident: Vec<BlockId> = self.resident.iter().copied().collect();
        resident.sort_unstable();
        snapshot::put_u64(out, resident.len() as u64);
        for addr in resident {
            snapshot::put_u64(out, addr);
        }
        self.stash.save(out);
        self.stats.save(out);
        snapshot::put_u64(out, self.storage.wal_seq());
        Ok(())
    }

    fn persist_tree(&self, dir: &Path, label: u32) -> Result<(), OramError> {
        self.storage.persist_to(dir, label)
    }

    #[allow(clippy::too_many_arguments)]
    fn resume_backend(
        params: OramParams,
        encryption: EncryptionMode,
        key: [u8; 16],
        _seed: u64,
        storage: &StorageKind,
        durability: Durability,
        dir: &Path,
        label: u32,
        state: &[u8],
    ) -> Result<Self, OramError> {
        let storage = TreeStorage::open_snapshot(&params, storage, dir, label, durability)?;
        let mut backend = Self::from_parts(params, encryption, key, storage);
        backend.load_controller_state(state)?;
        Ok(backend)
    }

    fn params(&self) -> &OramParams {
        &self.params
    }

    fn stats(&self) -> &BackendStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
    }

    // lint: ct-scope, no-alloc
    fn access_into(
        &mut self,
        op: AccessOp,
        addr: BlockId,
        leaf: Leaf,
        new_leaf: Leaf,
        data: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Result<bool, OramError> {
        out.clear();
        if let Some(d) = data {
            if d.len() != self.params.block_bytes {
                return Err(OramError::BlockSizeMismatch {
                    expected: self.params.block_bytes,
                    actual: d.len(),
                });
            }
        }

        if op == AccessOp::Append {
            // lint: allow(secret-branch, duplicate-append guard; membership failure aborts with a visible error by contract)
            if self.resident.contains(&addr) {
                return Err(OramError::DuplicateAppend { addr });
            }
            // lint: allow(secret-branch, range validation of caller input; rejects malformed leaves before any memory touch)
            if new_leaf >= self.params.num_leaves() {
                return Err(OramError::LeafOutOfRange {
                    leaf: new_leaf,
                    num_leaves: self.params.num_leaves(),
                });
            }
            let payload = data.ok_or(OramError::MissingWriteData)?;
            self.stash.insert_from_parts(addr, new_leaf, payload);
            // lint: allow(no-alloc, residency set is controller-side metadata; amortised growth outside the proven zero-alloc window)
            self.resident.insert(addr);
            self.stats.appends += 1;
            self.stats.max_stash_occupancy = self.stats.max_stash_occupancy.max(self.stash.len());
            self.stash.check_overflow()?;
            return Ok(false);
        }

        // lint: allow(secret-branch, range validation of caller input; rejects malformed leaves before any memory touch)
        if leaf >= self.params.num_leaves() {
            return Err(OramError::LeafOutOfRange {
                leaf,
                num_leaves: self.params.num_leaves(),
            });
        }
        // lint: allow(secret-branch, range validation of caller input; rejects malformed leaves before any memory touch)
        if op != AccessOp::ReadRmv && new_leaf >= self.params.num_leaves() {
            return Err(OramError::LeafOutOfRange {
                leaf: new_leaf,
                num_leaves: self.params.num_leaves(),
            });
        }

        let leaf_level = self.params.leaf_level();
        path_linear_indices_into(leaf, leaf_level, &mut self.path_idx);
        self.read_path(addr, leaf)?;

        let was_resident = self.resident.contains(&addr);
        // lint: allow(secret-branch, integrity check per section 6.5.2; failure means a wrong frontend leaf or tampering and aborts visibly)
        if was_resident && !self.stash.contains(addr) {
            // The block should have been on this path or in the stash; the
            // frontend's leaf was wrong or memory was tampered with.
            return Err(OramError::BlockNotFound { addr });
        }
        if !was_resident {
            // Implicit zero-initialisation of never-written blocks.
            // `new_leaf` is range-checked above for Read/Write; ReadRmv
            // ignores it by contract (the block is removed below before it
            // could ever be evicted), so the zero block is created on the
            // path just fetched rather than clamping a possibly-invalid
            // caller value into range.
            let assigned_leaf = if op == AccessOp::ReadRmv {
                leaf
            } else {
                new_leaf
            };
            self.stash.insert_zeroed(addr, assigned_leaf);
            // lint: allow(no-alloc, residency set is controller-side metadata; amortised growth outside the proven zero-alloc window)
            self.resident.insert(addr);
        }

        let has_data = match op {
            AccessOp::Read => {
                // lint: allow(no-alloc, grows the caller's buffer to block_bytes once; steady state reuses its capacity)
                out.extend_from_slice(self.stash.data_of(addr).expect("block present"));
                self.stash.remap(addr, new_leaf);
                true
            }
            AccessOp::Write => {
                let payload = data.ok_or(OramError::MissingWriteData)?;
                self.stash.update_data(addr, payload);
                self.stash.remap(addr, new_leaf);
                false
            }
            AccessOp::ReadRmv => {
                self.stash.remove_into(addr, out).expect("block present");
                self.resident.remove(&addr);
                true
            }
            AccessOp::Append => unreachable!("handled above"),
        };

        self.evict_path(leaf)?;
        self.stats.path_accesses += 1;
        self.stats.max_stash_occupancy = self.stats.max_stash_occupancy.max(self.stash.len());
        self.stash.check_overflow()?;
        Ok(has_data)
    }
    // lint: end
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn backend(n: u64, block: usize) -> PathOramBackend {
        PathOramBackend::new(
            OramParams::new(n, block, 4),
            EncryptionMode::GlobalSeed,
            [7u8; 16],
            0,
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_returns_data() {
        let mut b = backend(256, 32);
        let data = vec![0x5A; 32];
        b.access(AccessOp::Write, 10, 3, 8, Some(&data)).unwrap();
        let out = b.access(AccessOp::Read, 10, 8, 2, None).unwrap().unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let mut b = backend(256, 32);
        let out = b.access(AccessOp::Read, 99, 0, 1, None).unwrap().unwrap();
        assert_eq!(out, vec![0u8; 32]);
    }

    #[test]
    fn readrmv_removes_and_append_restores() {
        let mut b = backend(256, 32);
        let data = vec![9u8; 32];
        b.access(AccessOp::Write, 7, 1, 5, Some(&data)).unwrap();
        let out = b.access(AccessOp::ReadRmv, 7, 5, 0, None).unwrap().unwrap();
        assert_eq!(out, data);
        assert!(!b.is_resident(7));
        // Appending it back at a new leaf makes it readable again.
        b.access(AccessOp::Append, 7, 0, 12, Some(&out)).unwrap();
        let again = b.access(AccessOp::Read, 7, 12, 3, None).unwrap().unwrap();
        assert_eq!(again, data);
    }

    #[test]
    fn readrmv_of_unwritten_block_ignores_new_leaf() {
        // ReadRmv's contract says `new_leaf` is ignored; an out-of-range
        // value must neither error nor corrupt state (the old code silently
        // clamped it instead).
        let mut b = backend(256, 32);
        let leaves = b.params().num_leaves();
        let out = b
            .access(AccessOp::ReadRmv, 42, 3, leaves + 1000, None)
            .unwrap()
            .unwrap();
        assert_eq!(out, vec![0u8; 32]);
        assert!(!b.is_resident(42));
        // The backend remains fully functional afterwards.
        b.access(AccessOp::Write, 1, 0, 2, Some(&[8u8; 32]))
            .unwrap();
        assert_eq!(
            b.access(AccessOp::Read, 1, 2, 0, None).unwrap().unwrap(),
            vec![8u8; 32]
        );
    }

    #[test]
    fn duplicate_append_is_rejected() {
        let mut b = backend(256, 32);
        let data = vec![1u8; 32];
        b.access(AccessOp::Append, 3, 0, 4, Some(&data)).unwrap();
        assert_eq!(
            b.access(AccessOp::Append, 3, 0, 4, Some(&data)),
            Err(OramError::DuplicateAppend { addr: 3 })
        );
    }

    #[test]
    fn wrong_leaf_is_detected_as_block_not_found() {
        let mut b = backend(256, 32);
        let data = vec![2u8; 32];
        b.access(AccessOp::Write, 5, 0, 6, Some(&data)).unwrap();
        // Block 5 now lives on path 6; asking for it on a path that shares
        // only the root with both path 0 and path 6 must fail, because the
        // block was evicted below the root along path 0.
        let wrong_leaf = 6 ^ (b.params().num_leaves() / 2);
        let err = b.access(AccessOp::Read, 5, wrong_leaf, 1, None);
        assert_eq!(err, Err(OramError::BlockNotFound { addr: 5 }));
    }

    #[test]
    fn leaf_out_of_range_is_rejected() {
        let mut b = backend(256, 32);
        let leaves = b.params().num_leaves();
        assert!(matches!(
            b.access(AccessOp::Read, 0, leaves, 0, None),
            Err(OramError::LeafOutOfRange { .. })
        ));
        assert!(matches!(
            b.access(AccessOp::Read, 0, 0, leaves, None),
            Err(OramError::LeafOutOfRange { .. })
        ));
    }

    #[test]
    fn write_data_size_is_validated() {
        let mut b = backend(256, 32);
        assert_eq!(
            b.access(AccessOp::Write, 0, 0, 0, Some(&[1u8; 31])),
            Err(OramError::BlockSizeMismatch {
                expected: 32,
                actual: 31
            })
        );
        assert_eq!(
            b.access(AccessOp::Write, 0, 0, 0, None),
            Err(OramError::MissingWriteData)
        );
    }

    #[test]
    fn random_workload_preserves_contents_and_bounded_stash() {
        // A frontend-like driver: we keep our own position map and verify the
        // Path ORAM invariant end-to-end over thousands of random accesses.
        let n: u64 = 512;
        let block = 16usize;
        let mut b = backend(n, block);
        let leaves = b.params().num_leaves();
        let mut rng = StdRng::seed_from_u64(42);
        let mut posmap: Vec<u64> = (0..n).map(|_| rng.gen_range(0..leaves)).collect();
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; n as usize];

        for i in 0..4000u64 {
            let addr = rng.gen_range(0..n);
            let new_leaf = rng.gen_range(0..leaves);
            let old_leaf = posmap[addr as usize];
            posmap[addr as usize] = new_leaf;
            if rng.gen_bool(0.5) {
                let mut data = vec![0u8; block];
                rng.fill(&mut data[..]);
                data[0] = i as u8;
                b.access(AccessOp::Write, addr, old_leaf, new_leaf, Some(&data))
                    .unwrap();
                reference[addr as usize] = Some(data);
            } else {
                let out = b
                    .access(AccessOp::Read, addr, old_leaf, new_leaf, None)
                    .unwrap()
                    .unwrap();
                match &reference[addr as usize] {
                    Some(expected) => assert_eq!(&out, expected, "access {i}"),
                    None => assert_eq!(out, vec![0u8; block], "access {i}"),
                }
            }
        }
        assert!(
            b.stats().max_stash_occupancy <= b.params().stash_capacity,
            "stash stayed bounded"
        );
        assert_eq!(b.stats().path_accesses, 4000);
        // Every access moved exactly one path in each direction.
        assert_eq!(b.stats().bytes_read, 4000 * b.params().path_bytes());
        assert_eq!(b.stats().bytes_written, b.stats().bytes_read);
        // Every initialised bucket on every path went through the cipher.
        assert!(b.stats().buckets_decrypted > 0);
        assert_eq!(
            b.stats().buckets_encrypted,
            4000 * u64::from(b.params().levels())
        );
    }

    #[test]
    fn tampering_with_a_bucket_is_detected_or_corrupts_only_that_path() {
        // Without PMMAC the backend cannot always detect tampering, but
        // garbled buckets must at worst produce MalformedBucket or garbage
        // data, never a panic.
        let mut b = backend(256, 32);
        let data = vec![3u8; 32];
        b.access(AccessOp::Write, 1, 0, 1, Some(&data)).unwrap();
        // Corrupt every initialised bucket.
        for idx in 0..b.storage().num_buckets() as u64 {
            if b.storage().is_initialized(idx) {
                b.storage_mut().tamper_xor(idx, 20, 0xFF);
            }
        }
        let result = b.access(AccessOp::Read, 1, 1, 2, None);
        match result {
            Ok(_)
            | Err(OramError::MalformedBucket { .. })
            | Err(OramError::BlockNotFound { .. }) => {}
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn tampered_leaf_field_is_rejected_not_panicking() {
        // Regression test: a corrupted slot leaf used to drive
        // `deepest_common_level` into a u32 underflow and an out-of-bounds
        // classifier index.  Plaintext mode makes the corruption byte-exact.
        let mut b = PathOramBackend::new(
            OramParams::new(256, 32, 4),
            EncryptionMode::None,
            [0u8; 16],
            0,
        )
        .unwrap();
        b.access(AccessOp::Write, 1, 0, 1, Some(&[3u8; 32]))
            .unwrap();
        // Flip the high byte of slot 0's leaf field in every initialised
        // bucket (offset 20 = 8B header + valid + 8B addr + 3).
        for idx in 0..b.storage().num_buckets() as u64 {
            if b.storage().is_initialized(idx) {
                b.storage_mut().tamper_xor(idx, 20, 0xFF);
            }
        }
        for leaf in 0..b.params().num_leaves() {
            match b.access(AccessOp::Read, 1, leaf, 0, None) {
                Ok(_)
                | Err(OramError::MalformedBucket { .. })
                | Err(OramError::BlockNotFound { .. }) => {}
                other => panic!("unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn stats_track_appends_separately() {
        let mut b = backend(256, 32);
        b.access(AccessOp::Append, 1, 0, 1, Some(&[0u8; 32]))
            .unwrap();
        assert_eq!(b.stats().appends, 1);
        assert_eq!(b.stats().path_accesses, 0);
        assert_eq!(b.stats().bytes_read, 0);
        assert_eq!(b.stats().buckets_encrypted, 0);
    }

    #[test]
    fn identical_histories_produce_identical_stats_and_storage() {
        // The indexed eviction is deterministic (unlike the previous
        // hash-map-ordered take), so two backends fed the same operations
        // agree byte-for-byte on stats and on every initialised bucket.
        let run = || {
            let mut b = backend(512, 16);
            let mut rng = StdRng::seed_from_u64(7);
            let leaves = b.params().num_leaves();
            let mut posmap: Vec<u64> = (0..512).map(|_| rng.gen_range(0..leaves)).collect();
            for _ in 0..1000 {
                let addr = rng.gen_range(0..512u64);
                let new_leaf = rng.gen_range(0..leaves);
                let old_leaf = posmap[addr as usize];
                posmap[addr as usize] = new_leaf;
                b.access(AccessOp::Write, addr, old_leaf, new_leaf, Some(&[1u8; 16]))
                    .unwrap();
            }
            b
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats(), b.stats());
        for idx in 0..a.storage().num_buckets() as u64 {
            assert_eq!(
                a.storage().snapshot_bucket(idx),
                b.storage().snapshot_bucket(idx),
                "bucket {idx}"
            );
        }
    }

    #[test]
    fn file_backed_backend_matches_the_arena_backend_byte_for_byte() {
        // The same seeded workload through both stores must produce
        // identical responses, stats, and — because eviction is
        // deterministic and the cipher state marches in lockstep —
        // identical bucket ciphertexts.
        let run = |kind: &StorageKind| {
            let params = OramParams::new(512, 16, 4);
            let mut b = PathOramBackend::new_backend_with(
                params,
                EncryptionMode::GlobalSeed,
                [7u8; 16],
                0,
                kind,
                Durability::None,
                0,
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let leaves = b.params().num_leaves();
            let mut posmap: Vec<u64> = (0..512).map(|_| rng.gen_range(0..leaves)).collect();
            let mut responses = Vec::new();
            for i in 0..600u64 {
                let addr = rng.gen_range(0..512u64);
                let new_leaf = rng.gen_range(0..leaves);
                let old_leaf = posmap[addr as usize];
                posmap[addr as usize] = new_leaf;
                if i % 2 == 0 {
                    responses.push(
                        b.access(AccessOp::Read, addr, old_leaf, new_leaf, None)
                            .unwrap(),
                    );
                } else {
                    b.access(
                        AccessOp::Write,
                        addr,
                        old_leaf,
                        new_leaf,
                        Some(&[i as u8; 16]),
                    )
                    .unwrap();
                }
            }
            responses
        };
        let mem = run(&StorageKind::Mem);
        let file = run(&StorageKind::TempFile);
        let tiered = run(&StorageKind::TempTiered {
            memory_budget: 16 << 10,
        });
        assert_eq!(mem, file);
        assert_eq!(mem, tiered);
    }

    #[test]
    fn backend_persist_resume_roundtrip_across_store_kinds() {
        let params = OramParams::new(256, 32, 4);
        let dir = std::env::temp_dir().join(format!(
            "oram-backend-snap-{}-{:x}",
            std::process::id(),
            &params as *const _ as usize
        ));
        // Every kind persists, and every kind resumes what any kind
        // persisted: the snapshot format is store-agnostic.
        let budget = 16 << 10;
        let built = [
            StorageKind::Mem,
            StorageKind::TempFile,
            StorageKind::TempTiered {
                memory_budget: budget,
            },
        ];
        let resumed_as = [
            StorageKind::Mem,
            StorageKind::File { dir: dir.clone() },
            StorageKind::Tiered {
                dir: dir.clone(),
                memory_budget: budget,
            },
        ];
        for (kind, resume_kind) in built
            .iter()
            .flat_map(|k| resumed_as.iter().map(move |r| (k, r)))
        {
            let mut b = PathOramBackend::new_backend_with(
                params,
                EncryptionMode::GlobalSeed,
                [9u8; 16],
                0,
                kind,
                Durability::None,
                0,
            )
            .unwrap();
            let leaves = b.params().num_leaves();
            let mut rng = StdRng::seed_from_u64(5);
            let mut posmap: Vec<u64> = (0..256).map(|_| rng.gen_range(0..leaves)).collect();
            let mut contents = [None; 256];
            for i in 0..300u64 {
                let addr = rng.gen_range(0..256u64);
                let new_leaf = rng.gen_range(0..leaves);
                let old_leaf = posmap[addr as usize];
                posmap[addr as usize] = new_leaf;
                b.access(
                    AccessOp::Write,
                    addr,
                    old_leaf,
                    new_leaf,
                    Some(&[i as u8; 32]),
                )
                .unwrap();
                contents[addr as usize] = Some(i as u8);
            }
            let mut state = Vec::new();
            b.save_state(&mut state).unwrap();
            b.persist_tree(&dir, 0).unwrap();
            let stats_before = b.stats().clone();
            drop(b);

            let mut resumed = PathOramBackend::resume_backend(
                params,
                EncryptionMode::GlobalSeed,
                [9u8; 16],
                0,
                resume_kind,
                Durability::None,
                &dir,
                0,
                &state,
            )
            .unwrap();
            assert_eq!(resumed.stats(), &stats_before);
            // Every block reads back with the contents the pre-snapshot run
            // left behind.
            let mut rng2 = StdRng::seed_from_u64(17);
            for _ in 0..200 {
                let addr = rng2.gen_range(0..256u64);
                let old_leaf = posmap[addr as usize];
                let new_leaf = rng2.gen_range(0..leaves);
                posmap[addr as usize] = new_leaf;
                let out = resumed
                    .access(AccessOp::Read, addr, old_leaf, new_leaf, None)
                    .unwrap()
                    .unwrap();
                let expect = [contents[addr as usize].unwrap_or(0); 32];
                assert_eq!(out, expect, "{kind:?} resumed as {resume_kind:?}");
            }
            drop(resumed);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
