//! Window staging for the file tier: how a path's buckets group into
//! subtree windows, and the buffer that keeps the windows a path read
//! covered so that its writeback can rewrite them whole.

use dram_sim::SubtreeLayout;
use std::cell::Cell;
use std::ops::Range;

/// Groups offset-sorted `(file offset, level)` runs into I/O windows: a
/// window starts at its first bucket and takes every following bucket that
/// still ends within `window` bytes of that start.  Yields the run range of
/// each window.  Under the subtree layout a root-to-leaf path's buckets of
/// one level group share an extent, so a path has at most ⌈levels/k⌉
/// windows of at most one extent each.
pub(super) fn windows(
    runs: &[(u64, usize)],
    bucket_bytes: u64,
    window: u64,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let start = runs.get(i)?.0;
        let fits = runs[i..]
            .iter()
            .take_while(|&&(offset, _)| offset + bucket_bytes - start <= window)
            .count();
        let group = i..i + fits;
        i += fits;
        Some(group)
    })
}

/// The file tier's window staging: the bytes of the windows the last path
/// read covered, kept so that the path's writeback can rewrite whole
/// windows without reading them again.
///
/// Invariant: the first `valid` slots hold exactly the file's current bytes
/// of the windows recorded for them.  Every write to the tree file either
/// goes through a staged window (and updates it first) or drops the staging.
#[derive(Debug)]
pub(super) struct Stage {
    /// One slot of `window` bytes per window a root-to-leaf path can have
    /// (⌈levels/k⌉), plus a spare for windows that are not staged.
    buf: Vec<u8>,
    /// Bytes of one subtree extent: the largest window.
    pub(super) window: usize,
    /// `(file offset, length)` of the window staged in each slot.
    pub(super) spans: Vec<(u64, usize)>,
    /// How many leading slots are valid; 0 when nothing is.  A `Cell` so the
    /// `&self` treetop flush of [`TreeStorage::persist_to`] can drop it.
    pub(super) valid: Cell<usize>,
}

impl Stage {
    pub(super) fn new(layout: &SubtreeLayout, bucket_bytes: usize) -> Self {
        let window = (((1usize << layout.subtree_levels()) - 1) * bucket_bytes).max(bucket_bytes);
        let slots = layout.levels().div_ceil(layout.subtree_levels()) as usize;
        Self {
            buf: vec![0u8; (slots + 1) * window],
            window,
            spans: vec![(0, 0); slots],
            valid: Cell::new(0),
        }
    }

    /// Forgets everything staged.
    pub(super) fn drop_all(&self) {
        self.valid.set(0);
    }

    /// Slot `slot`'s bytes (`slot == spans.len()` is the spare).
    pub(super) fn slot_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.buf[slot * self.window..(slot + 1) * self.window]
    }

    /// The slot among the first `staged` whose window contains
    /// `[start, start + len)`.
    pub(super) fn containing(&self, staged: usize, start: u64, len: usize) -> Option<usize> {
        self.spans[..staged]
            .iter()
            .position(|&(s, l)| s <= start && start + len as u64 <= s + l as u64)
    }
}
