//! Property-based tests of the paged KV arena: page accounting is an
//! involution, concurrent sequences never alias (so threads writing
//! through their own view sets never touch each other's rows), the
//! arena-backed batch path stores bit-identical KV to the single-sequence
//! cache, and the one KV seal localises corruption identically on both
//! layouts.

use std::sync::OnceLock;

use ft2_model::engine::KvCache;
use ft2_model::walk::KvStore;
use ft2_model::{Model, ModelConfig, TapList};
use ft2_parallel::WorkStealingPool;
use ft2_serve::arena::pages_disjoint;
use ft2_serve::engine::{batch_step, BatchLane, BatchScratch};
use ft2_serve::{KvArena, KvGuard, KvSeq, KV_PAGE};
use proptest::prelude::*;

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| Model::new(ModelConfig::tiny_llama()))
}

/// One corrupted element: `(block, is_k)`, `(pos, elem)`, `(mode, bit)`.
/// Mode 0 flips bit `bit` of the stored value; mode 1 plants `0.0` before
/// sealing and flips its sign bit (`-0.0 == 0.0` as floats); mode 2 plants a
/// quiet NaN and flips payload bit `bit % 22` (the result is still NaN).
type Hit = ((usize, bool), (usize, usize), (u32, u32));

/// Positions the seal property runs over: more than two arena pages.
const SEALED: usize = 2 * KV_PAGE + 3;

/// Seal `len` positions of `kv`, corrupt it at `hits`, and check what
/// [`KvGuard::verify`] reports through truncation and reseal. `elem`
/// addresses one stored element of the layout.
fn seal_localises_hits<K: AsRef<[S]>, S: KvStore>(
    kv: &mut K,
    seq: &S::Seq,
    len: usize,
    hits: &[Hit],
    elem: impl for<'a> Fn(&'a mut K, &S::Seq, &Hit) -> &'a mut f32,
) {
    let flip = |kv: &mut K, h: &Hit| {
        let ((_, _), (_, _), (mode, bit)) = *h;
        let bit = match mode {
            1 => 31,
            2 => bit % 22,
            _ => bit,
        };
        let x = elem(kv, seq, h);
        *x = f32::from_bits(x.to_bits() ^ (1 << bit));
    };
    for h in hits {
        match h.2 .0 {
            1 => *elem(kv, seq, h) = 0.0,
            2 => *elem(kv, seq, h) = f32::NAN,
            _ => {}
        }
    }
    // The serving guard is the engine's guard, re-exported.
    let mut guard: ft2_core::KvGuard = KvGuard::new();
    for pos in 0..len {
        guard.seal(&*kv, seq, pos);
    }
    assert_eq!(guard.verify(&*kv, seq), None);
    let first = hits.iter().map(|h| h.1 .0).min().unwrap();
    for h in hits {
        flip(kv, h);
    }
    assert_eq!(guard.verify(&*kv, seq), Some(first), "hits {hits:?}");
    // Restoring the elements and resealing their positions holds again.
    for h in hits {
        flip(kv, h);
        guard.reseal(&*kv, seq, h.1 .0);
    }
    assert_eq!(guard.verify(&*kv, seq), None);
    // Truncating below the first hit drops every broken seal.
    for h in hits {
        flip(kv, h);
    }
    assert_eq!(guard.verify(&*kv, seq), Some(first));
    guard.truncate(first);
    assert_eq!(guard.verify(&*kv, seq), None);
}

fn cache_elem<'a>(cache: &'a mut KvCache, _: &(), h: &Hit) -> &'a mut f32 {
    let ((b, is_k), (pos, e), _) = *h;
    let blk = cache.block_mut(b);
    let m = if is_k { &mut blk.k } else { &mut blk.v };
    &mut m.row_mut(pos)[e]
}

fn arena_elem<'a>(arena: &'a mut KvArena, seq: &KvSeq, h: &Hit) -> &'a mut f32 {
    let ((b, is_k), (pos, e), _) = *h;
    let row = seq.row_of(pos);
    let r = if is_k {
        arena.k_row_mut(b, row)
    } else {
        arena.v_row_mut(b, row)
    };
    &mut r[e]
}

proptest! {
    /// Allocation involution: any interleaving of pushes, truncates, and
    /// releases across several sequences keeps page accounting exact, and
    /// releasing everything returns the arena to fully free.
    #[test]
    fn page_accounting_is_an_involution(
        ops in prop::collection::vec((0usize..4, 0usize..3, 0usize..40), 1..120)
    ) {
        let mut arena = KvArena::new(2, 4);
        let mut seqs = [KvSeq::new(), KvSeq::new(), KvSeq::new(), KvSeq::new()];
        for (s, kind, amount) in ops {
            match kind {
                // push `amount` positions
                0 => {
                    for _ in 0..amount {
                        seqs[s].push(&mut arena);
                    }
                }
                // truncate to at most the current length
                1 => {
                    let target = amount.min(seqs[s].len());
                    seqs[s].truncate(target, &mut arena);
                }
                // release everything
                _ => seqs[s].release(&mut arena),
            }
            // Page accounting stays exact after every operation.
            let held: usize = seqs.iter().map(|q| q.pages().len()).sum();
            prop_assert_eq!(arena.pages_in_use(), held);
            for q in &seqs {
                prop_assert_eq!(q.pages().len(), q.len().div_ceil(KV_PAGE));
            }
        }
        for q in seqs.iter_mut() {
            q.release(&mut arena);
        }
        prop_assert_eq!(arena.pages_in_use(), 0);
        prop_assert_eq!(arena.free_pages(), arena.capacity_pages());
    }

    /// No cross-request page aliasing: sequences hold disjoint page sets,
    /// and a marker written through one sequence's rows never shows up in
    /// another's.
    #[test]
    fn sequences_never_alias(
        lens in prop::collection::vec(1usize..60, 2..5)
    ) {
        let mut arena = KvArena::new(1, 2);
        let mut seqs: Vec<KvSeq> = lens.iter().map(|_| KvSeq::new()).collect();
        // Interleave pushes round-robin so page allocations interleave too.
        let max_len = *lens.iter().max().unwrap();
        for round in 0..max_len {
            for (s, q) in seqs.iter_mut().enumerate() {
                if round < lens[s] {
                    let row = q.push(&mut arena);
                    arena.k_row_mut(0, row)[0] = (s * 1000 + round) as f32;
                }
            }
        }
        // Disjoint page sets.
        for a in 0..seqs.len() {
            for b in a + 1..seqs.len() {
                for p in seqs[a].pages() {
                    prop_assert!(
                        !seqs[b].pages().contains(p),
                        "page {} shared by sequences {} and {}", p, a, b
                    );
                }
            }
        }
        // Every marker survives every other sequence's writes.
        for (s, q) in seqs.iter().enumerate() {
            for j in 0..q.len() {
                let got = arena.k_row(0, q.row_of(j))[0];
                prop_assert_eq!(got, (s * 1000 + j) as f32);
            }
        }
    }

    /// The invariant the decode step's concurrent lane groups rest on:
    /// after any interleaving of pushes, truncates and releases, no page is
    /// held twice, so one thread per sequence, each writing through its
    /// own view set, lands every K/V row where that sequence maps it.
    #[test]
    fn view_sets_write_disjoint_rows_from_concurrent_threads(
        ops in prop::collection::vec((0usize..3, 0usize..3, 0usize..40), 1..60)
    ) {
        let mut arena = KvArena::new(2, 4);
        let mut seqs = [KvSeq::new(), KvSeq::new(), KvSeq::new()];
        for (s, kind, amount) in ops {
            match kind {
                0 => (0..amount).for_each(|_| { seqs[s].push(&mut arena); }),
                1 => seqs[s].truncate(amount.min(seqs[s].len()), &mut arena),
                _ => seqs[s].release(&mut arena),
            }
            prop_assert!(pages_disjoint(&seqs));
        }
        let marker = |s: usize, j: usize, b: usize| (s * 10_000 + j * 10 + b) as f32;
        // SAFETY: set `s` goes to the thread serving sequence `s` alone.
        let sets = unsafe { arena.slab_views(seqs.len()) };
        std::thread::scope(|scope| {
            for ((s, q), mut set) in seqs.iter().enumerate().zip(sets) {
                scope.spawn(move || {
                    for j in 0..q.len() {
                        for (b, view) in set.iter_mut().enumerate() {
                            let row = [marker(s, j, b); 4];
                            view.put(q, j, &row, &row.map(|x| -x));
                            assert_eq!(view.k_row(q, j), row);
                        }
                    }
                });
            }
        });
        for (s, q) in seqs.iter().enumerate() {
            for j in 0..q.len() {
                for b in 0..2 {
                    prop_assert_eq!(arena.k_row(b, q.row_of(j)), [marker(s, j, b); 4]);
                    prop_assert_eq!(arena.v_row(b, q.row_of(j)), [-marker(s, j, b); 4]);
                }
            }
        }
    }

    /// The arena-backed batch decode stores bit-identical KV rows to the
    /// single-sequence KV cache for arbitrary prompts.
    #[test]
    fn arena_kv_is_bit_identical_to_the_single_sequence_cache(
        prompt in prop::collection::vec(0u32..500, 1..8),
        gen in 2usize..5
    ) {
        let model = model();
        let pool = WorkStealingPool::new(2);

        // Reference: incremental single-sequence decode.
        let mut cache = KvCache::new(model.config());
        let mut taps = TapList::new();
        let hidden = model.forward_step(&prompt, 0, 0, &mut cache, &mut taps);
        let last = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
        let mut tokens = vec![ft2_tensor::argmax(&model.logits(&last)) as u32];
        for step in 1..gen {
            let pos = prompt.len() + step - 1;
            let h = model.forward_step(&[tokens[step - 1]], pos, step, &mut cache, &mut taps);
            tokens.push(ft2_tensor::argmax(&model.logits(&h)) as u32);
        }

        // Arena path: copy the prefill rows, then batch-step a single lane.
        let mut arena = KvArena::new(model.config().blocks, model.config().hidden);
        let mut seq = KvSeq::new();
        let mut pcache = KvCache::new(model.config());
        let h = model.forward_step(&prompt, 0, 0, &mut pcache, &mut taps);
        for j in 0..prompt.len() {
            let row = seq.push(&mut arena);
            for b in 0..pcache.num_blocks() {
                arena.k_row_mut(b, row).copy_from_slice(pcache.block(b).k.row(j));
                arena.v_row_mut(b, row).copy_from_slice(pcache.block(b).v.row(j));
            }
        }
        let hl = h.slice_rows(h.rows() - 1, h.rows());
        let mut got = vec![ft2_tensor::argmax(&model.logits(&hl)) as u32];
        let mut scratch = BatchScratch::new();
        for step in 1..gen {
            let mut lanes = vec![BatchLane {
                token: got[step - 1],
                pos: prompt.len() + step - 1,
                step,
                seq: &mut seq,
                tap: None,
            }];
            let next = batch_step(model, &mut arena, &mut lanes, &pool, &mut scratch);
            drop(lanes);
            got.push(next[0]);
        }

        prop_assert_eq!(&got, &tokens);
        for j in 0..seq.len() {
            let row = seq.row_of(j);
            for b in 0..cache.num_blocks() {
                prop_assert_eq!(arena.k_row(b, row), cache.block(b).k.row(j));
                prop_assert_eq!(arena.v_row(b, row), cache.block(b).v.row(j));
            }
        }
    }

    /// The one KV seal localises corruption the same way on the engine's
    /// contiguous cache and on arena pages: any set of single-bit flips —
    /// NaN payloads and the sign of zero included — reports exactly the
    /// smallest flipped position. (tiny-llama: 2 blocks, hidden 32.)
    #[test]
    fn kv_seal_reports_the_first_flipped_position_on_both_layouts(
        hits in prop::collection::vec(
            (
                (0usize..2, any::<bool>()),
                (0usize..SEALED, 0usize..32),
                (0u32..3, 0u32..32),
            ),
            1..5,
        )
    ) {
        // One flip per element: a second flip of the same element could
        // cancel the first.
        let mut hits = hits;
        hits.sort_by_key(|h| (h.0, h.1));
        hits.dedup_by_key(|h| (h.0, h.1));
        let model = model();
        let config = model.config();
        let prompt: Vec<u32> = (0..SEALED as u32).map(|t| (t * 37 + 5) % 500).collect();
        let mut cache = KvCache::new(config);
        let _ = model.forward_step(&prompt, 0, 0, &mut cache, &mut TapList::new());

        // The same rows on arena pages, interleaved with another
        // sequence's pages so positions do not map to contiguous rows.
        let mut arena = KvArena::new(config.blocks, config.hidden);
        let (mut seq, mut other) = (KvSeq::new(), KvSeq::new());
        for j in 0..SEALED {
            if j % KV_PAGE == 0 {
                for _ in 0..KV_PAGE {
                    other.push(&mut arena);
                }
            }
            let row = seq.push(&mut arena);
            for b in 0..config.blocks {
                arena.k_row_mut(b, row).copy_from_slice(cache.block(b).k.row(j));
                arena.v_row_mut(b, row).copy_from_slice(cache.block(b).v.row(j));
            }
        }
        prop_assert!(seq.pages().len() > 2);

        seal_localises_hits(&mut cache, &(), SEALED, &hits, cache_elem);
        seal_localises_hits(&mut arena, &seq, SEALED, &hits, arena_elem);
    }
}
