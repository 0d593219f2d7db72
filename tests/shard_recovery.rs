//! Integration tests for sharded execution with fault-isolation domains:
//! shard-level repair strictly reduces silent data corruption compared to
//! rollback-only recovery, the detected repair rung clears a persistent
//! shard fault in place, and a shard crash under the degrade policy keeps
//! serving while reporting [`Outcome::Degraded`] — never silently.

use ft2::core::schemes::FT2_DEFAULT_SCALE;
use ft2::core::{Protector, Scheme, ShardScrubber};
use ft2::fault::{
    classify_sharded, ExactJudge, FaultDuration, Outcome, ShardFault, ShardFaultInjector,
    ShardFaultSpec,
};
use ft2::model::engine::RecoveryPolicy;
use ft2::model::shard::{ShardStateReport, ShardTap, ShardWeights};
use ft2::model::{Model, ShardTapList, ShardedGeneration, ShardedModel, TapList, ZooModel};
use ft2::parallel::WorkStealingPool;
use std::time::Duration;

const HEARTBEAT: Duration = Duration::from_millis(100);
const GEN_TOKENS: usize = 10;

/// A handful of fixed prompts (vocab is 512 for every zoo config).
fn prompts() -> Vec<Vec<u32>> {
    vec![
        vec![3, 14, 15, 9, 26, 5],
        vec![101, 7, 63, 200, 41],
        vec![400, 12, 350, 88, 9, 17],
        vec![55, 55, 301, 2, 499],
        vec![250, 31, 7, 190, 64, 128],
        vec![77, 420, 5, 333, 21],
    ]
}

fn run_sharded(
    model: &Model,
    pool: &WorkStealingPool,
    n: usize,
    prompt: &[u32],
    taps: &mut ShardTapList<'_>,
    policy: RecoveryPolicy,
) -> ShardedGeneration {
    ShardedModel::new(model, n).generate_with(pool, prompt, GEN_TOKENS, taps, policy, HEARTBEAT)
}

/// Persistent *silent* weight corruption: every step start rewrites a
/// stripe of shard 0's block-0 K-projection slice with a plausible
/// constant — far below the executor's anomaly threshold, so the
/// rollback ladder never fires. Only stored-state integrity (CRC scrub
/// against the golden copy) can see it.
struct SilentCorruptor {
    inert: bool,
}

impl ShardTap for SilentCorruptor {
    fn on_step_start(&mut self, _step: usize, shards: &mut [ShardWeights]) -> ShardStateReport {
        if !self.inert {
            let block = &mut shards[0].blocks[0];
            for w in [
                block.k_proj.weight.as_mut_slice(),
                block.v_proj.weight.as_mut_slice(),
            ] {
                for v in w {
                    *v = 1.5;
                }
            }
        }
        ShardStateReport::default()
    }

    fn on_repartition(&mut self, _shards: &[ShardWeights]) {
        self.inert = true;
    }
}

#[test]
fn shard_repair_strictly_reduces_silent_corruption() {
    // Same silent persistent weight fault, same prompts, two recovery
    // configurations. Rollback-only recovery is blind to corruption that
    // stays inside the anomaly bounds, so the poisoned slice corrupts
    // answers silently; the shard scrubber restores the slice from the
    // golden copy before each forward pass, so the SDC count must drop.
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let pool = WorkStealingPool::new(3);
    let mut sdc_rollback = 0usize;
    let mut sdc_repair = 0usize;
    let mut tiles_repaired = 0u64;

    for prompt in prompts() {
        let golden = run_sharded(
            &model,
            &pool,
            2,
            &prompt,
            &mut ShardTapList::new(),
            RecoveryPolicy::disabled(),
        );
        assert!(golden.completed());

        // Rollback-only: the retry budget exists but nothing trips it.
        let mut corrupt = SilentCorruptor { inert: false };
        let mut taps = ShardTapList::new();
        taps.push(&mut corrupt);
        let off = run_sharded(&model, &pool, 2, &prompt, &mut taps, RecoveryPolicy::retries(2));
        assert!(off.completed(), "silent corruption must not be detected");
        assert_eq!(off.storms, 0, "corruption was supposed to stay silent");
        if classify_sharded(&golden.tokens, &off, &ExactJudge) == Outcome::Sdc {
            sdc_rollback += 1;
        }

        // Same fault plus the shard-granular integrity vertical: a full
        // CRC sweep per step restores the slice before it can be read.
        let mut corrupt = SilentCorruptor { inert: false };
        let mut sharded = ShardedModel::new(&model, 2);
        let mut scrub = ShardScrubber::new(sharded.shards(), usize::MAX);
        let mut taps = ShardTapList::new();
        taps.push(&mut corrupt);
        taps.push(&mut scrub);
        let on = sharded.generate_with(
            &pool,
            &prompt,
            GEN_TOKENS,
            &mut taps,
            RecoveryPolicy::retries(2).with_repair(),
            HEARTBEAT,
        );
        assert!(on.completed());
        tiles_repaired += on.tiles_repaired;
        if classify_sharded(&golden.tokens, &on, &ExactJudge) == Outcome::Sdc {
            sdc_repair += 1;
        }
    }

    assert!(
        sdc_rollback > 0,
        "fault too weak to observe any silent corruption under rollback-only"
    );
    assert!(
        sdc_repair < sdc_rollback,
        "repair must strictly reduce SDCs: {sdc_repair} with repair vs {sdc_rollback} rollback-only"
    );
    assert!(tiles_repaired > 0, "the scrubber never repaired a tile");
}

#[test]
fn repair_rung_recovers_detected_persistent_tile_corruption() {
    // A detected persistent shard fault (tile corruption at storm
    // magnitude) with the scrubber registered: the repair rung restores
    // exactly the implicated slice and the generation finishes
    // token-identical to the fault-free run — no shard is evicted.
    let model = ZooModel::Opt6_7B.spec().build();
    let pool = WorkStealingPool::new(3);
    let prompt = [3, 14, 15, 9, 26, 5];

    let golden = run_sharded(
        &model,
        &pool,
        2,
        &prompt,
        &mut ShardTapList::new(),
        RecoveryPolicy::disabled(),
    );

    let spec = ShardFaultSpec {
        shard: 0,
        fault: ShardFault::TileCorrupt,
        step: 1,
        block: 0,
        duration: FaultDuration::Persistent,
    };
    let mut injector = ShardFaultInjector::new(spec);
    let mut sharded = ShardedModel::new(&model, 2);
    let mut scrub = ShardScrubber::new(sharded.shards(), 0);
    let mut taps = ShardTapList::new();
    taps.push(&mut injector);
    taps.push(&mut scrub);
    let out = sharded.generate_with(
        &pool,
        &prompt,
        GEN_TOKENS,
        &mut taps,
        RecoveryPolicy::retries(1).with_repair(),
        HEARTBEAT,
    );

    assert!(out.completed());
    assert_eq!(out.shards_lost, 0, "repair must beat eviction to the fault");
    assert!(out.repair_rungs > 0, "the repair rung never fired");
    assert!(out.tiles_repaired > 0);
    assert_eq!(
        out.tokens, golden.tokens,
        "repaired generation must be token-identical to fault-free"
    );
    match classify_sharded(&golden.tokens, &out, &ExactJudge) {
        Outcome::Repaired { repairs } => assert!(repairs > 0),
        other => panic!("expected Outcome::Repaired, got {other:?}"),
    }
}

#[test]
fn crash_with_degrade_keeps_serving_and_reports_degraded() {
    // One shard of three crashes persistently mid-generation. With the
    // degrade policy the executor evicts it, re-partitions across the
    // survivors, and still emits every requested token — and the outcome
    // taxonomy reports the quality loss explicitly, never silently.
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let pool = WorkStealingPool::new(3);
    let prompt = [101, 7, 63, 200, 41];

    let golden = run_sharded(
        &model,
        &pool,
        3,
        &prompt,
        &mut ShardTapList::new(),
        RecoveryPolicy::disabled(),
    );

    let spec = ShardFaultSpec {
        shard: 2,
        fault: ShardFault::Crash,
        step: 1,
        block: 0,
        duration: FaultDuration::Persistent,
    };
    let mut injector = ShardFaultInjector::new(spec);
    let mut taps = ShardTapList::new();
    taps.push(&mut injector);
    let out = run_sharded(
        &model,
        &pool,
        3,
        &prompt,
        &mut taps,
        RecoveryPolicy::retries(1).with_shard_degrade(),
    );

    assert!(out.completed(), "degrade must keep the generation alive");
    assert_eq!(out.tokens.len(), GEN_TOKENS, "every token must be served");
    assert_eq!(out.shards_lost, 1);
    assert_eq!(out.shards, 2, "two survivors after one eviction");
    assert_eq!(out.degrade_events.len(), 1);
    assert_eq!(
        classify_sharded(&golden.tokens, &out, &ExactJudge),
        Outcome::Degraded { shards_lost: 1 },
        "a degraded generation must be reported as such, never silently"
    );

    // Without the degrade policy the same fault is a detected DUE — the
    // failure is still never silent.
    let mut injector = ShardFaultInjector::new(spec);
    let mut taps = ShardTapList::new();
    taps.push(&mut injector);
    let due = run_sharded(&model, &pool, 3, &prompt, &mut taps, RecoveryPolicy::retries(1));
    assert!(due.failed.is_some());
    match classify_sharded(&golden.tokens, &due, &ExactJudge) {
        Outcome::Crash { site, .. } => assert_eq!(site, "shard2"),
        other => panic!("expected a shard-scoped DUE, got {other:?}"),
    }
}

#[test]
fn protected_generation_is_shard_count_invariant() {
    // FT2 rides the sharded lane: its protector profiles and clamps each
    // linear's gathered, quantised output after the seam, which is
    // bit-identical for every shard count — so the protected run is too,
    // down to every step's report. (Bit-equality with the *dense*
    // protected run is not claimed: the seam rounds an f64 sum where the
    // dense kernel rounds f32 partials.)
    let pool = WorkStealingPool::new(3);
    // The deployed scale, and one with no headroom over the six-token
    // profile so that clamps certainly edit the stream being compared.
    for (zoo, scale) in [ZooModel::Opt6_7B, ZooModel::Llama2_7B]
        .into_iter()
        .flat_map(|zoo| [(zoo, FT2_DEFAULT_SCALE), (zoo, 1.0)])
    {
        let model = zoo.spec().build();
        let style = model.config().style;
        let runs = [1usize, 2, 4].map(|n| {
            let mut protector = Protector::ft2_online(Scheme::Ft2.coverage(style), scale);
            let mut lane_taps = TapList::new();
            lane_taps.push(&mut protector);
            let out = ShardedModel::new(&model, n).generate_tapped(
                &pool,
                &[250, 31, 7, 190, 64, 128],
                24,
                &mut lane_taps,
                &mut ShardTapList::new(),
                RecoveryPolicy::disabled(),
                HEARTBEAT,
            );
            drop(lane_taps);
            assert!(out.completed());
            assert_eq!((out.storms, out.steps.len()), (0, 24));
            (out.tokens, protector.stats, out.steps)
        });
        let (tokens, stats, steps) = &runs[0];
        let case = format!("{zoo:?} at scale {scale}");
        // The protector was on the lane: it saw every covered linear of
        // every step, and the reports are its own.
        assert!(stats.invocations as usize >= 24 * model.config().blocks, "{case}: {stats:?}");
        assert_eq!(steps.iter().map(|s| s.report.clamps).sum::<u64>(), stats.clipped, "{case}");
        assert!(scale != 1.0 || stats.clipped > 0, "{case}: {stats:?}");
        for (n, run) in [2, 4].into_iter().zip(&runs[1..]) {
            assert_eq!(&run.0, tokens, "{case}: tokens differ at N={n}");
            assert_eq!(&run.1, stats, "{case}: ProtectionStats differ at N={n}");
            assert_eq!(&run.2, steps, "{case}: step reports differ at N={n}");
        }
    }
}
