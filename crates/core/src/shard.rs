//! Shard-granular stored-state integrity: the sharded executor's
//! [`ShardTap`] over the one weight-tile table.
//!
//! The sharded executor ([`ft2_model::ShardedModel`]) gives every shard its
//! own failure domain. [`ShardScrubber`] runs the same vertical as the
//! engine's [`crate::WeightScrubber`] over one
//! [`crate::WeightChecksums`] table that spans every shard's slices (shards
//! outermost, then block, layer and start — the tiling, tile CRC, golden
//! check and round-robin scrub are the table's):
//!
//! * at construction (and after every degrade re-partition) the scrubber
//!   snapshots a **golden copy** of each shard's weight slices and builds
//!   the table over them;
//! * [`ShardTap::on_step_start`] verifies a budget of tiles per step,
//!   round-robin, restoring any mismatched tile from the golden copy —
//!   scrubbing amortised across the generation;
//! * [`ShardTap::on_repair`] is the executor's repair rung: a sweep over
//!   the tiles the failing GEMMs implicate — the suspect shards'
//!   [`RepairScope`] `(block, layer)` weight slice (all shards when no
//!   suspect is named) — restoring corruption from the golden copy. This
//!   is what turns a *persistent* shard fault from an eviction into a
//!   measured repair, and the slice-scoping is what keeps that repair
//!   orders of magnitude cheaper than a full restart;
//! * [`ShardTap::on_repartition`] re-baselines golden copies and the table
//!   for the survivors' fresh slices after a degrade.

use crate::integrity::{TiledWeights, WeightChecksums};
use ft2_model::shard::{RepairScope, ShardTap, ShardWeights};
use ft2_model::weights::Linear;
use ft2_model::{LayerKind, StateReport};

pub use crate::integrity::TILE_ELEMS;

/// A partition's slices: shard `s` is `self[s]`.
impl TiledWeights for [ShardWeights] {
    fn linear(&self, shard: usize, block: usize, kind: LayerKind) -> Option<&Linear> {
        self[shard].blocks[block].layer(kind)
    }

    fn linear_mut(&mut self, shard: usize, block: usize, kind: LayerKind) -> Option<&mut Linear> {
        self[shard].blocks[block].layer_mut(kind)
    }
}

/// The tile table over every shard's slices.
fn table_over(shards: &[ShardWeights]) -> WeightChecksums {
    let blocks = shards.first().map_or(0, |s| s.blocks.len());
    WeightChecksums::tile(shards, shards.len(), blocks, &LayerKind::ALL)
}

/// Shard-granular weight scrubber and repair engine. Register as a
/// [`ShardTap`] on a sharded generation.
pub struct ShardScrubber {
    /// Golden copies of every shard's slices (index = shard).
    golden: Vec<ShardWeights>,
    table: WeightChecksums,
    cursor: usize,
    tiles_per_step: usize,
}

impl ShardScrubber {
    /// Baseline golden copies and checksums from the freshly partitioned
    /// shards (call with [`ft2_model::ShardedModel::shards`] before the
    /// generation; the partition is bit-deterministic, so the baseline
    /// stays valid across the executor's start-of-generation reset).
    /// Verifies `tiles_per_step` tiles per step (0 disables background
    /// scrubbing; the repair rung still works).
    pub fn new(shards: &[ShardWeights], tiles_per_step: usize) -> ShardScrubber {
        ShardScrubber {
            golden: shards.to_vec(),
            table: table_over(shards),
            cursor: 0,
            tiles_per_step,
        }
    }

    /// Total checksummed tiles across all shards (one full sweep).
    pub fn num_tiles(&self) -> usize {
        self.table.num_tiles()
    }

    /// Verify (and repair) every tile of every shard — the unscoped
    /// integrity pass, also usable out-of-band.
    pub fn full_sweep(&self, shards: &mut [ShardWeights]) -> StateReport {
        self.table.check_where(|_, _, _| true, shards, &self.golden)
    }
}

impl ShardTap for ShardScrubber {
    fn on_step_start(&mut self, _step: usize, shards: &mut [ShardWeights]) -> StateReport {
        self.table
            .scrub(&mut self.cursor, self.tiles_per_step, shards, &self.golden)
    }

    fn on_repair(&mut self, scope: &RepairScope<'_>, shards: &mut [ShardWeights]) -> StateReport {
        let suspect = |s| scope.suspects.is_empty() || scope.suspects.contains(&s);
        self.table.check_where(
            |s, b, l| b == scope.block && l == scope.layer && suspect(s),
            shards,
            &self.golden,
        )
    }

    fn on_repartition(&mut self, shards: &[ShardWeights]) {
        self.golden = shards.to_vec();
        self.table = table_over(shards);
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::shard::ShardPlan;
    use ft2_model::weights::ModelWeights;
    use ft2_model::ModelConfig;

    fn shards_for(config: &ModelConfig, n: usize) -> Vec<ShardWeights> {
        let weights = ModelWeights::build(config);
        ShardPlan::new(config, n).partition(config, &weights)
    }

    /// `(shard, block, layer, start, len)` of every tile, in the order the
    /// table is pinned to: shard, block, `LayerKind::ALL` order, start.
    type TileAt = (usize, usize, LayerKind, usize, usize);

    fn tile_order(shards: &[ShardWeights]) -> Vec<TileAt> {
        let mut order = Vec::new();
        for (s, sw) in shards.iter().enumerate() {
            for (b, sb) in sw.blocks.iter().enumerate() {
                for k in LayerKind::ALL {
                    let Some(lin) = sb.layer(k) else { continue };
                    let n = lin.weight.as_slice().len();
                    for start in (0..n).step_by(TILE_ELEMS) {
                        order.push((s, b, k, start, TILE_ELEMS.min(n - start)));
                    }
                }
            }
        }
        order
    }

    fn tile_data(shards: &mut [ShardWeights], (s, b, k, start, len): TileAt) -> &mut [f32] {
        let lin = shards[s].blocks[b].layer_mut(k).unwrap();
        &mut lin.weight.as_mut_slice()[start..start + len]
    }

    /// Flip the lowest bit of the first element of every tile.
    fn corrupt_every_tile(shards: &mut [ShardWeights], order: &[TileAt]) {
        for &t in order {
            let x = &mut tile_data(shards, t)[0];
            *x = f32::from_bits(x.to_bits() ^ 1);
        }
    }

    #[test]
    fn clean_shards_scrub_without_repairs() {
        let config = ModelConfig::tiny_opt();
        let mut shards = shards_for(&config, 2);
        let mut scrub = ShardScrubber::new(&shards, 8);
        let rep = scrub.on_step_start(0, &mut shards);
        assert_eq!(rep.scrubbed_tiles, 8);
        assert_eq!(rep.weight_repairs, 0);
    }

    #[test]
    fn full_sweep_repairs_corruption_bit_exactly() {
        let config = ModelConfig::tiny_llama();
        let mut shards = shards_for(&config, 3);
        let pristine = shards.clone();
        let mut scrub = ShardScrubber::new(&shards, 0);
        // Corrupt two tiles on different shards.
        shards[1].blocks[0].q_proj.weight.as_mut_slice()[3] = f32::NAN;
        let down = shards[2].blocks[1].layer_mut(LayerKind::DownProj).unwrap();
        down.weight.as_mut_slice()[0] = 1e30;
        // A repair rung only touches the implicated slice of the suspect
        // failure domain.
        let scoped = scrub.on_repair(
            &RepairScope {
                suspects: &[1],
                block: 0,
                layer: LayerKind::QProj,
            },
            &mut shards,
        );
        assert_eq!(scoped.weight_repairs, 1);
        assert!((scoped.scrubbed_tiles as usize) < scrub.num_tiles());
        // The unscoped integrity pass covers everything that remains.
        let rep = scrub.full_sweep(&mut shards);
        assert_eq!(rep.scrubbed_tiles as usize, scrub.num_tiles());
        assert_eq!(rep.weight_repairs, 1);
        for (a, b) in shards.iter().zip(&pristine) {
            for (ab, bb) in a.blocks.iter().zip(&b.blocks) {
                for k in LayerKind::ALL {
                    match (ab.layer(k), bb.layer(k)) {
                        (Some(x), Some(y)) => assert_eq!(x, y),
                        (None, None) => {}
                        _ => panic!("layer presence mismatch"),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "refusing to repair")]
    fn repair_refuses_a_corrupted_golden_snapshot() {
        let config = ModelConfig::tiny_opt();
        let mut shards = shards_for(&config, 2);
        let mut scrub = ShardScrubber::new(&shards, 0);
        // The live tile is corrupt, and so is the snapshot it would come
        // from.
        shards[1].blocks[0].q_proj.weight.as_mut_slice()[0] += 1.0;
        scrub.golden[1].blocks[0].q_proj.weight.as_mut_slice()[0] -= 1.0;
        scrub.full_sweep(&mut shards);
    }

    #[test]
    fn repair_scope_touches_exactly_the_suspect_slice() {
        let config = ModelConfig::tiny_opt();
        let mut shards = shards_for(&config, 3);
        let mut scrub = ShardScrubber::new(&shards, 0);
        let order = tile_order(&shards);
        assert_eq!(order.len(), scrub.num_tiles());
        corrupt_every_tile(&mut shards, &order);
        let fc1 = shards[0].blocks[1].layer(LayerKind::Fc1).unwrap();
        let len = fc1.weight.as_slice().len();
        assert_ne!(len % TILE_ELEMS, 0, "the slice ends in a partial tile");
        let want = len.div_ceil(TILE_ELEMS) as u64;
        let rep = scrub.on_repair(
            &RepairScope {
                suspects: &[0],
                block: 1,
                layer: LayerKind::Fc1,
            },
            &mut shards,
        );
        assert_eq!((rep.scrubbed_tiles, rep.weight_repairs), (want, want));
        // Every other tile is still corrupt: the rest of the table repairs
        // all of them and nothing else.
        let rest = scrub.full_sweep(&mut shards);
        assert_eq!(rest.weight_repairs, scrub.num_tiles() as u64 - want);
    }

    #[test]
    fn one_tile_per_step_visits_every_tile_once_in_table_order() {
        let config = ModelConfig::tiny_llama();
        let mut shards = shards_for(&config, 2);
        let pristine = shards.clone();
        let mut scrub = ShardScrubber::new(&shards, 1);
        let order = tile_order(&shards);
        assert_eq!(order.len(), scrub.num_tiles());
        corrupt_every_tile(&mut shards, &order);
        for (step, &t) in order.iter().enumerate() {
            let rep = scrub.on_step_start(step, &mut shards);
            let visited = (rep.scrubbed_tiles, rep.weight_repairs);
            assert_eq!(visited, (1, 1), "step {step}");
            let mut clean = pristine.clone();
            let restored = tile_data(&mut clean, t);
            assert_eq!(tile_data(&mut shards, t), restored, "step {step}");
        }
        assert_eq!(shards, pristine);
    }

    #[test]
    fn round_robin_scrub_finds_corruption_within_one_sweep() {
        let config = ModelConfig::tiny_opt();
        let mut shards = shards_for(&config, 2);
        let mut scrub = ShardScrubber::new(&shards, 4);
        shards[0].blocks[0].k_proj.weight.as_mut_slice()[0] += 5.0;
        let sweeps = scrub.num_tiles().div_ceil(4);
        let mut repaired = 0;
        for step in 0..sweeps {
            repaired += scrub.on_step_start(step, &mut shards).weight_repairs;
        }
        assert_eq!(repaired, 1);
    }

    #[test]
    fn repartition_rebaselines_to_the_new_layout() {
        let config = ModelConfig::tiny_opt();
        let mut shards = shards_for(&config, 3);
        let mut scrub = ShardScrubber::new(&shards, 0);
        let before = scrub.num_tiles();
        // Degrade to 2 shards: tile layout changes, checksums must follow.
        shards = shards_for(&config, 2);
        scrub.on_repartition(&shards);
        assert_ne!(scrub.num_tiles(), 0);
        assert!(scrub.num_tiles() <= before);
        let rep = scrub.full_sweep(&mut shards);
        assert_eq!(rep.weight_repairs, 0, "fresh partition must verify clean");
    }
}
