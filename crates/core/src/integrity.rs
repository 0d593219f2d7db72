//! Stored-state integrity: one weight-tile table, one KV seal.
//!
//! The paper's protection (and the engine's rollback) handle *transient*
//! faults in the computation path. Persistent faults live in stored state —
//! weight matrices and cached K/V rows — and every subsequent step re-reads
//! them, so rollback re-decodes into the same corruption forever. The
//! defence is the classic detect → localise → repair vertical, and every
//! host (the engine, the sharded executor, the scheduler, the replica
//! rebuild) runs it through the two types here:
//!
//! * [`WeightChecksums`] — the tile table: per-tile CRC-64 checksums over
//!   block-linear weight matrices, tiled at [`TILE_ELEMS`] elements and
//!   addressed through [`TiledWeights`] (the full model is one shard, a
//!   tensor-parallel partition one shard per failure domain). It owns the
//!   tile CRC, "verify one tile and restore it from a golden source whose
//!   own CRC still holds", and the round-robin budgeted scrub. Its callers
//!   are [`WeightScrubber`] (the engine's state tap),
//!   [`crate::ShardScrubber`] (the executor's shard tap) and the replica
//!   rebuild ([`WeightChecksums::sweep`]).
//! * [`KvGuard`] — one seal per sequence position: a CRC-64 chain over the
//!   K then V row of every block at that position, over any
//!   [`KvStore`] layout (the engine's contiguous cache, the arena's pages).
//!   Poisoned positions cannot be restored from any golden copy — the cache
//!   is derived state — so [`KvGuard::verify`] reports the earliest broken
//!   position and the host rebuilds the suffix from the known tokens. When
//!   to verify is the host's policy: the engine verifies before every pass
//!   (its [`StateTap`] impl, verify-on-read); the scheduler only on its
//!   repair rung.
//!
//! A CRC-64 detects every error burst confined to 64 bits (see
//! [`ft2_numeric::crc`]), so any fault-model corruption of a single stored
//! element is guaranteed to change the tile or position checksum.

use ft2_model::state::{StateCtx, StateReport, StateTap};
use ft2_model::walk::KvStore;
use ft2_model::weights::{Linear, ModelWeights};
use ft2_model::{LayerKind, ModelConfig};
use ft2_numeric::crc64_f32s;
use std::sync::Arc;

/// Elements per checksummed weight tile. 256 × 4 B = 1 KiB tiles — small
/// enough to localise a repair precisely, large enough that the checksum
/// table stays tiny relative to the weights (0.4% overhead at 8 B/tile).
pub const TILE_ELEMS: usize = 256;

/// Stored weights a [`WeightChecksums`] table covers: block-linear weight
/// matrices addressed by `(shard, block, layer)`. The full model is the one
/// shard `0`; a tensor-parallel partition has one shard per failure domain.
pub trait TiledWeights {
    /// The weight matrix of layer `kind` in `block` of `shard`, if the
    /// architecture has that layer.
    fn linear(&self, shard: usize, block: usize, kind: LayerKind) -> Option<&Linear>;

    /// Mutable access to the same matrix (repair writes through it).
    fn linear_mut(&mut self, shard: usize, block: usize, kind: LayerKind) -> Option<&mut Linear>;
}

impl TiledWeights for ModelWeights {
    fn linear(&self, _shard: usize, block: usize, kind: LayerKind) -> Option<&Linear> {
        self.blocks[block].layer(kind)
    }

    fn linear_mut(&mut self, _shard: usize, block: usize, kind: LayerKind) -> Option<&mut Linear> {
        self.blocks[block].layer_mut(kind)
    }
}

/// One checksummed tile of a block-linear weight matrix.
#[derive(Clone, Copy, Debug)]
struct Tile {
    shard: usize,
    block: usize,
    layer: LayerKind,
    start: usize,
    len: usize,
    crc: u64,
}

impl Tile {
    fn data<'w, W: TiledWeights + ?Sized>(&self, w: &'w W) -> &'w [f32] {
        let lin = w
            .linear(self.shard, self.block, self.layer)
            .expect("tile layer missing from weights");
        &lin.weight.as_slice()[self.start..self.start + self.len]
    }

    fn data_mut<'w, W: TiledWeights + ?Sized>(&self, w: &'w mut W) -> &'w mut [f32] {
        let lin = w
            .linear_mut(self.shard, self.block, self.layer)
            .expect("tile layer missing from weights");
        &mut lin.weight.as_mut_slice()[self.start..self.start + self.len]
    }

    /// The tile CRC of this tile's elements in `w`.
    fn crc_in<W: TiledWeights + ?Sized>(&self, w: &W) -> u64 {
        crc64_f32s(self.data(w))
    }
}

/// Per-tile CRC-64 checksums of every block-linear weight matrix, computed
/// from a golden source. Immutable; share one instance across trials via
/// `Arc`.
pub struct WeightChecksums {
    tiles: Vec<Tile>,
}

impl WeightChecksums {
    /// Checksum every block-linear weight matrix of `weights` in tiles of
    /// [`TILE_ELEMS`] elements.
    pub fn build(config: &ModelConfig, weights: &ModelWeights) -> WeightChecksums {
        WeightChecksums::tile(weights, 1, weights.blocks.len(), config.block_layers())
    }

    /// Tile `layers` (absent ones skipped) of every block of every shard of
    /// `w`, in the order every sweep and scrub walks: shard, then block,
    /// then layer in `layers` order, then start.
    pub(crate) fn tile<W: TiledWeights + ?Sized>(
        w: &W,
        shards: usize,
        blocks: usize,
        layers: &[LayerKind],
    ) -> WeightChecksums {
        let mut tiles = Vec::new();
        for shard in 0..shards {
            for block in 0..blocks {
                for &layer in layers {
                    let Some(lin) = w.linear(shard, block, layer) else {
                        continue;
                    };
                    let n = lin.weight.as_slice().len();
                    for start in (0..n).step_by(TILE_ELEMS) {
                        let mut t = Tile {
                            shard,
                            block,
                            layer,
                            start,
                            len: TILE_ELEMS.min(n - start),
                            crc: 0,
                        };
                        t.crc = t.crc_in(w);
                        tiles.push(t);
                    }
                }
            }
        }
        WeightChecksums { tiles }
    }

    /// Total number of checksummed tiles (one full scrub sweep verifies
    /// this many).
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Verify tile `idx` of `live`; on a mismatch restore it from `golden`,
    /// after checking the golden tile against its load-time checksum (a
    /// corrupted repair source must never be propagated). Returns whether
    /// it repaired.
    fn check_tile<W: TiledWeights + ?Sized>(&self, idx: usize, live: &mut W, golden: &W) -> bool {
        let t = &self.tiles[idx];
        if t.crc_in(live) == t.crc {
            return false;
        }
        assert_eq!(
            t.crc_in(golden),
            t.crc,
            "golden copy corrupted: refusing to repair from it"
        );
        t.data_mut(live).copy_from_slice(t.data(golden));
        true
    }

    fn check<W: TiledWeights + ?Sized>(
        &self,
        idxs: impl Iterator<Item = usize>,
        live: &mut W,
        golden: &W,
    ) -> StateReport {
        let mut report = StateReport::default();
        for idx in idxs {
            report.scrubbed_tiles += 1;
            report.weight_repairs += u64::from(self.check_tile(idx, live, golden));
        }
        report
    }

    /// Verify tiles `from..from + budget` (clamped to the table) of the
    /// live weights and restore any mismatch from the golden copy.
    /// Returns `(checked, repaired)`. This is the incremental unit of the
    /// replica-rebuild loop: a quarantined replica verifies a budget of
    /// tiles per router tick — surviving replicas keep serving — and
    /// rejoins once the cursor has covered [`WeightChecksums::num_tiles`].
    pub fn sweep<W: TiledWeights + ?Sized>(
        &self,
        from: usize,
        budget: usize,
        live: &mut W,
        golden: &W,
    ) -> (usize, usize) {
        let end = self.tiles.len().min(from.saturating_add(budget));
        let report = self.check(from..end, live, golden);
        let checked = report.scrubbed_tiles as usize;
        (checked, report.weight_repairs as usize)
    }

    /// Verify every tile and repair every mismatch in one pass. Returns
    /// `(checked, repaired)`.
    pub fn full_sweep<W: TiledWeights + ?Sized>(&self, live: &mut W, golden: &W) -> (usize, usize) {
        self.sweep(0, self.tiles.len(), live, golden)
    }

    /// The round-robin budgeted scrub: verify (and repair) `budget` tiles —
    /// at most one full sweep — from `*cursor` on, wrapping at the end of
    /// the table, and move the cursor past them.
    pub(crate) fn scrub<W: TiledWeights + ?Sized>(
        &self,
        cursor: &mut usize,
        budget: usize,
        live: &mut W,
        golden: &W,
    ) -> StateReport {
        let total = self.tiles.len();
        let n = budget.min(total);
        if n == 0 {
            return StateReport::default();
        }
        let from = *cursor;
        *cursor = (from + n) % total;
        self.check((from..from + n).map(|i| i % total), live, golden)
    }

    /// Verify (and repair) every tile whose `(shard, block, layer)` `keep`
    /// accepts, in table order.
    pub(crate) fn check_where<W: TiledWeights + ?Sized>(
        &self,
        keep: impl Fn(usize, usize, LayerKind) -> bool,
        live: &mut W,
        golden: &W,
    ) -> StateReport {
        let idxs = (0..self.tiles.len()).filter(|&i| {
            let t = &self.tiles[i];
            keep(t.shard, t.block, t.layer)
        });
        self.check(idxs, live, golden)
    }
}

/// Background weight scrubber: verifies `tiles_per_step` tiles per state
/// pass, round-robin over the whole tile table, and restores mismatches
/// from the golden checkpoint. [`StateTap::on_repair`] sweeps every tile at
/// once (the engine's repair-and-retry rung).
pub struct WeightScrubber {
    checksums: Arc<WeightChecksums>,
    tiles_per_step: usize,
    cursor: usize,
}

impl WeightScrubber {
    /// Scrubber verifying `tiles_per_step` tiles per generation step.
    pub fn new(checksums: Arc<WeightChecksums>, tiles_per_step: usize) -> WeightScrubber {
        WeightScrubber {
            checksums,
            tiles_per_step,
            cursor: 0,
        }
    }
}

impl StateTap for WeightScrubber {
    fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        let budget = self.tiles_per_step;
        self.checksums
            .scrub(&mut self.cursor, budget, ctx.weights, ctx.golden)
    }

    fn on_repair(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        let all = self.checksums.num_tiles();
        self.checksums
            .scrub(&mut self.cursor, all, ctx.weights, ctx.golden)
    }
}

/// The seal of one sequence position: a CRC-64 chain over the K then V row
/// of every block at `pos`. Any single-row corruption changes it; the
/// per-row rotation keeps a swap of two blocks' identical rows from
/// cancelling out.
fn position_seal<S: KvStore>(blocks: &[S], seq: &S::Seq, pos: usize) -> u64 {
    blocks.iter().fold(0u64, |h, b| {
        let h = h.rotate_left(7) ^ crc64_f32s(b.k_row(seq, pos));
        h.rotate_left(7) ^ crc64_f32s(b.v_row(seq, pos))
    })
}

/// KV integrity seals: one position seal (see the module docs) per sealed
/// position of one sequence, over any KV layout whose blocks are [`KvStore`]s (`kv` is the
/// engine's `KvCache` with `seq = &()`, or the serving `KvArena` with the
/// request's `KvSeq`). Seals never outrun the store: truncate the guard
/// whenever the sequence is truncated.
#[derive(Debug, Default)]
pub struct KvGuard {
    seals: Vec<u64>,
}

impl KvGuard {
    /// A guard with no seals yet (seals accrue as positions are accepted).
    pub fn new() -> KvGuard {
        KvGuard::default()
    }

    /// Number of sealed positions.
    pub fn len(&self) -> usize {
        self.seals.len()
    }

    /// True when nothing is sealed yet.
    pub fn is_empty(&self) -> bool {
        self.seals.is_empty()
    }

    /// Seal position `pos` (must be the next unsealed position).
    pub fn seal<K: AsRef<[S]>, S: KvStore>(&mut self, kv: &K, seq: &S::Seq, pos: usize) {
        debug_assert_eq!(pos, self.seals.len(), "seals must append in order");
        self.seals.push(position_seal(kv.as_ref(), seq, pos));
    }

    /// Re-seal an already-sealed position after a rebuild.
    pub fn reseal<K: AsRef<[S]>, S: KvStore>(&mut self, kv: &K, seq: &S::Seq, pos: usize) {
        self.seals[pos] = position_seal(kv.as_ref(), seq, pos);
    }

    /// Drop seals past `len` (follows a sequence truncate).
    pub fn truncate(&mut self, len: usize) {
        self.seals.truncate(len);
    }

    /// Verify every sealed position, returning the first mismatch (the
    /// rebuild start) or `None` when all seals hold.
    pub fn verify<K: AsRef<[S]>, S: KvStore>(&self, kv: &K, seq: &S::Seq) -> Option<usize> {
        let blocks = kv.as_ref();
        (0..self.seals.len()).find(|&j| position_seal(blocks, seq, j) != self.seals[j])
    }
}

/// The engine's policy: seal each step's fresh positions at its end and
/// verify every sealed position before every forward pass. Each pass's
/// attention reads every cached position, so this is verify-on-read.
impl StateTap for KvGuard {
    fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        StateReport {
            kv_invalid_from: self.verify(&*ctx.cache, &()),
            ..StateReport::default()
        }
    }

    fn on_step_end(&mut self, ctx: &mut StateCtx<'_>) {
        // Seal every not-yet-sealed position (fresh appends of this step,
        // plus any rebuilt after an invalidation).
        for pos in self.seals.len()..ctx.cache.len() {
            self.seal(&*ctx.cache, &(), pos);
        }
    }

    fn on_repair(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        self.on_step_state(ctx)
    }

    fn on_cache_truncated(&mut self, len: usize) {
        self.truncate(len);
    }
}

/// Integrity-layer configuration attached to a protection scheme.
#[derive(Clone)]
pub struct IntegrityConfig {
    /// Weight tiles the scrubber verifies per generation step (0 disables
    /// weight scrubbing).
    pub scrub_tiles_per_step: usize,
    /// Enable the KV-cache CRC guard.
    pub kv_guard: bool,
    /// Golden-checkpoint tile checksums (required when
    /// `scrub_tiles_per_step > 0`).
    pub checksums: Option<Arc<WeightChecksums>>,
}

impl IntegrityConfig {
    /// Integrity layer fully disabled.
    pub fn disabled() -> IntegrityConfig {
        IntegrityConfig {
            scrub_tiles_per_step: 0,
            kv_guard: false,
            checksums: None,
        }
    }

    /// Is any integrity mechanism active?
    pub fn enabled(&self) -> bool {
        self.scrub_tiles_per_step > 0 || self.kv_guard
    }

    /// Suffix appended to the scheme name for reporting/fingerprinting
    /// (empty when disabled).
    pub fn label_suffix(&self) -> String {
        let mut s = String::new();
        if self.scrub_tiles_per_step > 0 {
            s.push_str(&format!("+scrub{}", self.scrub_tiles_per_step));
        }
        if self.kv_guard {
            s.push_str("+kvguard");
        }
        s
    }

    /// Build the state taps this configuration calls for.
    pub fn make_state(&self) -> Vec<Box<dyn StateTap>> {
        let mut taps: Vec<Box<dyn StateTap>> = Vec::new();
        if self.scrub_tiles_per_step > 0 {
            let checksums = self
                .checksums
                .as_ref()
                .expect("scrubbing requires golden checksums")
                .clone();
            taps.push(Box::new(WeightScrubber::new(
                checksums,
                self.scrub_tiles_per_step,
            )));
        }
        if self.kv_guard {
            taps.push(Box::new(KvGuard::new()));
        }
        taps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::{KvCache, Model, ModelConfig};
    use ft2_tensor::DType;

    fn ctx_parts() -> (ModelConfig, ModelWeights, ModelWeights) {
        let config = ModelConfig::tiny_opt();
        let golden = ModelWeights::build(&config);
        let live = golden.clone();
        (config, golden, live)
    }

    #[test]
    fn checksums_cover_all_block_linears() {
        let (config, golden, _) = ctx_parts();
        let sums = WeightChecksums::build(&config, &golden);
        // tiny-opt: 2 blocks × (4 × 32×32 + 128×32 + 32×128) elements,
        // tiled at 256 elements each.
        let per_block = 4 * (32 * 32) + 2 * (128 * 32);
        assert_eq!(sums.num_tiles(), 2 * per_block / TILE_ELEMS);
    }

    #[test]
    fn incremental_sweep_covers_the_table_and_repairs_corruption() {
        let (config, golden, mut live) = ctx_parts();
        let sums = WeightChecksums::build(&config, &golden);
        // Corrupt one element in each of two blocks.
        for b in 0..2 {
            let v = live.blocks[b].fc.as_ref().unwrap().0.weight.get_flat(3);
            live.blocks[b]
                .fc
                .as_mut()
                .unwrap()
                .0
                .weight
                .set_flat(3, v - 42.0);
        }
        // Sweep in uneven budgets; the cursor must cover every tile once.
        let mut cursor = 0;
        let mut repaired = 0;
        for budget in [7usize, 64, usize::MAX] {
            let (checked, fixed) = sums.sweep(cursor, budget, &mut live, &golden);
            cursor += checked;
            repaired += fixed;
            if cursor >= sums.num_tiles() {
                break;
            }
        }
        assert_eq!(cursor, sums.num_tiles(), "sweep must cover every tile");
        assert_eq!(repaired, 2, "both corrupted tiles repaired");
        let (checked, fixed) = sums.full_sweep(&mut live, &golden);
        assert_eq!(checked, sums.num_tiles());
        assert_eq!(fixed, 0, "second sweep finds a clean model");
        // Past-the-end sweeps are empty, not panics.
        assert_eq!(sums.sweep(sums.num_tiles(), 10, &mut live, &golden), (0, 0));
    }

    #[test]
    #[should_panic(expected = "refusing to repair")]
    fn repair_refuses_a_corrupted_golden_copy() {
        let (config, mut golden, mut live) = ctx_parts();
        let sums = WeightChecksums::build(&config, &golden);
        // The live tile is corrupt, and so is the copy it would come from.
        live.blocks[1].v_proj.weight.as_mut_slice()[5] += 1.0;
        golden.blocks[1].v_proj.weight.as_mut_slice()[5] -= 1.0;
        sums.full_sweep(&mut live, &golden);
    }

    #[test]
    fn scrubber_detects_and_repairs_a_flipped_weight() {
        let (config, golden, mut live) = ctx_parts();
        let sums = Arc::new(WeightChecksums::build(&config, &golden));
        // Corrupt one element of block 1's FC1.
        let original = live.blocks[1].fc.as_ref().unwrap().0.weight.get_flat(7);
        live.blocks[1]
            .fc
            .as_mut()
            .unwrap()
            .0
            .weight
            .set_flat(7, original + 1000.0);
        let mut scrubber = WeightScrubber::new(sums.clone(), sums.num_tiles());
        let mut cache = KvCache::new(&config);
        let mut ctx = StateCtx {
            step: 1,
            prompt_len: 4,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        let rep = scrubber.on_step_state(&mut ctx);
        assert_eq!(rep.scrubbed_tiles as usize, sums.num_tiles());
        assert_eq!(rep.weight_repairs, 1);
        assert_eq!(
            live.blocks[1].fc.as_ref().unwrap().0.weight.get_flat(7),
            original
        );
    }

    #[test]
    fn scrubber_amortises_across_steps() {
        let (config, golden, mut live) = ctx_parts();
        let sums = Arc::new(WeightChecksums::build(&config, &golden));
        let total = sums.num_tiles();
        let mut scrubber = WeightScrubber::new(sums, 3);
        let mut cache = KvCache::new(&config);
        let mut scrubbed = 0u64;
        for step in 0..total {
            let mut ctx = StateCtx {
                step,
                prompt_len: 4,
                weights: &mut live,
                cache: &mut cache,
                golden: &golden,
                dtype: DType::F16,
            };
            scrubbed += scrubber.on_step_state(&mut ctx).scrubbed_tiles;
        }
        assert_eq!(scrubbed as usize, 3 * total);
    }

    #[test]
    fn kv_guard_flags_earliest_poisoned_position() {
        let config = ModelConfig::tiny_opt();
        let model = Model::new(config.clone());
        let golden = ModelWeights::build(&config);
        let mut live = golden.clone();
        let mut cache = KvCache::new(&config);
        // Fill the cache via a real prefill.
        let mut taps = ft2_model::TapList::new();
        let _ = model.forward_step(&[1, 2, 3, 4, 5], 0, 0, &mut cache, &mut taps);
        let mut guard = KvGuard::new();
        let mut ctx = StateCtx {
            step: 1,
            prompt_len: 5,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        guard.on_step_end(&mut ctx);
        // Clean verify.
        assert_eq!(guard.on_step_state(&mut ctx).kv_invalid_from, None);
        // Corrupt position 3 of block 1's V and position 1 of block 0's K.
        ctx.cache
            .block_mut(1)
            .v
            .set_flat(3 * config.hidden + 2, 42.0);
        ctx.cache.block_mut(0).k.set_flat(config.hidden + 5, -9.0);
        let rep = guard.on_step_state(&mut ctx);
        assert_eq!(rep.kv_invalid_from, Some(1));
        // Invalidate + reseal: truncate to 1, seals follow.
        ctx.cache.truncate(1);
        guard.on_cache_truncated(1);
        let _ = model.forward_step(&[2, 3, 4, 5], 1, 0, &mut cache, &mut taps);
        let mut ctx = StateCtx {
            step: 1,
            prompt_len: 5,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        guard.on_step_end(&mut ctx);
        assert_eq!(guard.on_step_state(&mut ctx).kv_invalid_from, None);
    }

    #[test]
    fn integrity_config_builds_requested_taps() {
        let (config, golden, _) = ctx_parts();
        let sums = Arc::new(WeightChecksums::build(&config, &golden));
        assert!(IntegrityConfig::disabled().make_state().is_empty());
        assert!(!IntegrityConfig::disabled().enabled());
        let both = IntegrityConfig {
            scrub_tiles_per_step: 8,
            kv_guard: true,
            checksums: Some(sums),
        };
        assert_eq!(both.make_state().len(), 2);
        assert_eq!(both.label_suffix(), "+scrub8+kvguard");
        let kv_only = IntegrityConfig {
            scrub_tiles_per_step: 0,
            kv_guard: true,
            checksums: None,
        };
        assert_eq!(kv_only.make_state().len(), 1);
        assert_eq!(kv_only.label_suffix(), "+kvguard");
    }
}
