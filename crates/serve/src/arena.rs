//! Paged per-request KV storage for the serving runtime.
//!
//! The single-sequence engine owns one [`ft2_model::engine::KvCache`] whose
//! blocks grow by appended rows. A serving batch holds many sequences of
//! wildly different lengths that start, finish, roll back, and get evicted
//! independently — per-sequence growable matrices would fragment and copy
//! constantly. [`KvArena`] instead owns one [`KvSlab`] (K and V rows) per
//! decoder block, carved into fixed-size pages of [`KV_PAGE`] positions; a
//! [`KvSeq`] maps a request's logical positions onto the pages it holds,
//! and slab plus sequence are the layer walk's paged
//! [`ft2_model::walk::KvStore`].
//! Pages come from a single free list shared by all blocks (the slabs grow
//! in lockstep, so one page id addresses every block's slab), which makes
//! alloc/free O(1) and eviction a straight hand-back of the page list.
//!
//! A request's KV integrity seals are the one [`KvGuard`] of `ft2-core`,
//! re-exported here: it seals a position over the arena's slabs exactly as
//! it seals one over the engine's cache. The scheduler seals each accepted
//! position and, on the repair rung of the recovery ladder, verifies the
//! seals to find (and rebuild) corrupted positions without touching any
//! other request's pages.

use ft2_model::walk::KvStore;
use ft2_tensor::Matrix;

pub use ft2_core::KvGuard;

/// Positions per KV page. Sixteen rows keeps page-grain rollback cheap
/// (a decode-step rollback frees at most one page) while amortising the
/// free-list traffic of long prefill bursts.
pub const KV_PAGE: usize = 16;

/// One decoder block's paged K/V rows, `[capacity_pages * KV_PAGE, hidden]`
/// each: the paged [`KvStore`] of the layer walk. A sequence's position
/// lives at the slab row its [`KvSeq`] maps it to, so a pass writes a
/// lane's rows straight into the pages the sequence already holds.
pub struct KvSlab {
    k: Matrix,
    v: Matrix,
}

impl KvStore for KvSlab {
    type Seq = KvSeq;

    fn k_row(&self, seq: &KvSeq, pos: usize) -> &[f32] {
        self.k.row(seq.row_of(pos))
    }

    fn v_row(&self, seq: &KvSeq, pos: usize) -> &[f32] {
        self.v.row(seq.row_of(pos))
    }

    fn put(&mut self, seq: &KvSeq, pos: usize, k: &[f32], v: &[f32]) {
        let row = seq.row_of(pos);
        self.k.row_mut(row).copy_from_slice(k);
        self.v.row_mut(row).copy_from_slice(v);
    }
}

/// Paged K/V storage shared by every sequence in a serving batch.
pub struct KvArena {
    /// Per-block slabs, grown in lockstep.
    slabs: Vec<KvSlab>,
    /// Free page ids; pages index all block slabs identically.
    free: Vec<usize>,
    capacity_pages: usize,
    hidden: usize,
}

impl KvArena {
    /// Empty arena for a model with `blocks` decoder blocks and hidden
    /// width `hidden`. Slabs start at zero pages and grow on demand.
    pub fn new(blocks: usize, hidden: usize) -> KvArena {
        let slab = || KvSlab {
            k: Matrix::zeros(0, hidden),
            v: Matrix::zeros(0, hidden),
        };
        KvArena {
            slabs: (0..blocks).map(|_| slab()).collect(),
            free: Vec::new(),
            capacity_pages: 0,
            hidden,
        }
    }

    /// Every block's slab, in block order — the stores a pass over arena
    /// sequences reads and writes.
    pub fn slabs_mut(&mut self) -> &mut [KvSlab] {
        &mut self.slabs
    }

    /// Hidden width of every stored row.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of decoder blocks the arena stores K/V for.
    pub fn num_blocks(&self) -> usize {
        self.slabs.len()
    }

    /// Total pages ever allocated (slab size in pages).
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Pages currently held by live sequences.
    pub fn pages_in_use(&self) -> usize {
        self.capacity_pages - self.free.len()
    }

    /// Pop a free page, growing every block's slabs by one page when the
    /// free list is dry.
    fn alloc_page(&mut self) -> usize {
        if let Some(p) = self.free.pop() {
            return p;
        }
        let grow = Matrix::zeros(KV_PAGE, self.hidden);
        for slab in &mut self.slabs {
            slab.k.append_rows(&grow);
            slab.v.append_rows(&grow);
        }
        let p = self.capacity_pages;
        self.capacity_pages += 1;
        p
    }

    /// Return a page to the free list.
    fn free_page(&mut self, p: usize) {
        debug_assert!(p < self.capacity_pages, "freeing unallocated page {p}");
        debug_assert!(!self.free.contains(&p), "double free of page {p}");
        self.free.push(p);
    }

    /// Key row `row` (a slab row index from [`KvSeq::row_of`]) of block
    /// `block`.
    pub fn k_row(&self, block: usize, row: usize) -> &[f32] {
        self.slabs[block].k.row(row)
    }

    /// Value row `row` of block `block`.
    pub fn v_row(&self, block: usize, row: usize) -> &[f32] {
        self.slabs[block].v.row(row)
    }

    /// Mutable key row (fault drills corrupt sealed rows through this).
    pub fn k_row_mut(&mut self, block: usize, row: usize) -> &mut [f32] {
        self.slabs[block].k.row_mut(row)
    }

    /// Mutable value row.
    pub fn v_row_mut(&mut self, block: usize, row: usize) -> &mut [f32] {
        self.slabs[block].v.row_mut(row)
    }
}

/// Every block's slab in block order: what a [`KvGuard`] seals a position
/// over.
impl AsRef<[KvSlab]> for KvArena {
    fn as_ref(&self) -> &[KvSlab] {
        &self.slabs
    }
}

/// One request's logical KV sequence: an ordered list of arena pages plus
/// the number of stored positions. Invariant: `pages.len()` is exactly
/// `len.div_ceil(KV_PAGE)` — a partially-filled tail page is kept and
/// refilled after rollback.
#[derive(Debug, Default)]
pub struct KvSeq {
    pages: Vec<usize>,
    len: usize,
}

impl KvSeq {
    /// Empty sequence holding no pages.
    pub fn new() -> KvSeq {
        KvSeq::default()
    }

    /// Number of stored positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no positions are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page ids this sequence holds, in position order.
    pub fn pages(&self) -> &[usize] {
        &self.pages
    }

    /// Slab row index of logical position `j` (the same row in every
    /// block's slab).
    pub fn row_of(&self, j: usize) -> usize {
        debug_assert!(j < self.len, "position {j} beyond sequence length {}", self.len);
        self.pages[j / KV_PAGE] * KV_PAGE + j % KV_PAGE
    }

    /// Reserve storage for the next position, allocating a fresh page when
    /// the tail page is full. Returns the new position's slab row index.
    pub fn push(&mut self, arena: &mut KvArena) -> usize {
        if self.len == self.pages.len() * KV_PAGE {
            self.pages.push(arena.alloc_page());
        }
        let row = self.pages[self.len / KV_PAGE] * KV_PAGE + self.len % KV_PAGE;
        self.len += 1;
        row
    }

    /// Roll the sequence back to `len` positions, returning now-unused
    /// pages to the arena (token rollback; prior rows are immutable, so the
    /// retained prefix is exactly the pre-step contents).
    pub fn truncate(&mut self, len: usize, arena: &mut KvArena) {
        assert!(len <= self.len, "truncate {len} beyond length {}", self.len);
        let keep = len.div_ceil(KV_PAGE);
        for p in self.pages.drain(keep..) {
            arena.free_page(p);
        }
        self.len = len;
    }

    /// Release every page back to the arena (request completion or
    /// eviction). The sequence is empty afterwards.
    pub fn release(&mut self, arena: &mut KvArena) {
        self.truncate(0, arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_allocate_grow_and_free() {
        let mut arena = KvArena::new(2, 8);
        let mut seq = KvSeq::new();
        for j in 0..KV_PAGE + 1 {
            let row = seq.push(&mut arena);
            assert_eq!(row, seq.row_of(j));
        }
        assert_eq!(seq.pages().len(), 2);
        assert_eq!(arena.capacity_pages(), 2);
        assert_eq!(arena.pages_in_use(), 2);
        seq.truncate(KV_PAGE, &mut arena);
        assert_eq!(arena.free_pages(), 1);
        seq.release(&mut arena);
        assert_eq!(arena.free_pages(), 2);
        assert_eq!(arena.pages_in_use(), 0);
    }

    #[test]
    fn truncate_keeps_partial_tail_page() {
        let mut arena = KvArena::new(1, 4);
        let mut seq = KvSeq::new();
        for _ in 0..KV_PAGE + 3 {
            seq.push(&mut arena);
        }
        let tail_page = seq.pages()[1];
        seq.truncate(KV_PAGE + 1, &mut arena);
        assert_eq!(seq.pages().len(), 2);
        assert_eq!(seq.pages()[1], tail_page, "partial tail page must be kept");
        // Re-pushing reuses the retained tail page.
        let row = seq.push(&mut arena);
        assert_eq!(row, tail_page * KV_PAGE + 1);
    }

    #[test]
    fn seals_catch_single_element_corruption() {
        let mut arena = KvArena::new(2, 4);
        let mut seq = KvSeq::new();
        let mut guard = KvGuard::new();
        for j in 0..3 {
            let row = seq.push(&mut arena);
            for b in 0..2 {
                arena.k_row_mut(b, row)[0] = (j * 10 + b) as f32;
                arena.v_row_mut(b, row)[1] = (j * 100 + b) as f32;
            }
            guard.seal(&arena, &seq, j);
        }
        assert_eq!(guard.verify(&arena, &seq), None);
        let row1 = seq.row_of(1);
        arena.v_row_mut(1, row1)[1] += 0.5;
        assert_eq!(guard.verify(&arena, &seq), Some(1));
    }
}
