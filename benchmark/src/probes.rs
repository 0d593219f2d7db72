//! Micro-probes: each calls one layer's public function on the shapes the
//! workloads use and times it from outside. They run after the traced
//! window of every workload, against the OPT-style stand-in, and share a
//! time budget; a probe reports the median over repeated batches.

use crate::common::{ft2_tap, Base};
use crate::metrics::Values;
use crate::serve::serve_config;
use crate::stats::{median, percentile};
use crate::taps::TokenClock;
use crate::workload::{campaign_inputs, prompt, Rng, CAMPAIGN_GEN, CAMPAIGN_TRIALS, SHARDS};
use ft2_core::{critical_layers, Scheme, SchemeFactory, WeightChecksums};
use ft2_fault::{
    Campaign, CampaignConfig, ExactJudge, FaultDuration, FaultInjector, FaultModel, FaultSite,
    FaultTarget,
};
use ft2_model::attention::{attention_forward_into, KvCacheBlock};
use ft2_model::block::normed_into;
use ft2_model::hooks::{HookKind, LayerTap, TapCtx, TapPoint};
use ft2_model::mlp::mlp_forward_into;
use ft2_model::{
    AttnScratch, KernelPolicy, KvCache, MlpScratch, Model, RecoveryPolicy, ShardTapList,
    ShardedModel, TapList, ZooModel,
};
use ft2_numeric::{crc64_f32s, F16};
use ft2_parallel::WorkStealingPool;
use ft2_serve::scheduler::{Request, Scheduler, ServeConfig};
use ft2_serve::{
    batch_step, BatchLane, BatchScratch, EventSink, KvArena, KvGuard, KvSeq, ServeEvent, Server,
};
use ft2_tensor::ops::{layer_norm, rms_norm, softmax_rows};
use ft2_tensor::{matmul_transb_batch_into, matmul_transb_into, reduce_seam_into, Matrix};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probes sharing the budget (a few take a double share).
const SHARES: f64 = 48.0;

/// Median nanoseconds per call of `f`: batches of at least ~50 µs, repeated
/// until `budget` is spent (and at least five times).
fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let inner = ((50_000.0 / once).ceil() as usize).clamp(1, 1 << 20);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / inner as f64);
    }
    median(&mut samples)
}

fn filled(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| (rng.unit() as f32 - 0.5) * 2.0)
}

/// Peak single-core FMA rate, GFLOP/s: ten independent 8-lane accumulator
/// chains, enough to cover the FMA latency on both ports.
fn peak_gflops(budget: Duration) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        fn fma_chains(iters: u64) -> f32 {
            use std::arch::x86_64::*;
            let a = _mm256_set1_ps(black_box(0.999_999));
            let b = _mm256_set1_ps(black_box(1e-6));
            let mut acc = [_mm256_set1_ps(1.0); 10];
            for _ in 0..iters {
                for x in acc.iter_mut() {
                    *x = _mm256_fmadd_ps(*x, a, b);
                }
            }
            let mut lanes = [0.0f32; 8];
            let mut sum = 0.0;
            for x in acc {
                // SAFETY: `lanes` is 8 f32, exactly one unaligned 256-bit store.
                unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), x) };
                sum += lanes.iter().sum::<f32>();
            }
            sum
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            const ITERS: u64 = 4096;
            // SAFETY: AVX2 and FMA were detected on this CPU just above.
            let ns = per_call_ns(budget, || {
                black_box(unsafe { fma_chains(black_box(ITERS)) });
            });
            return (ITERS * 10 * 8 * 2) as f64 / ns;
        }
    }
    // No wide FMA: four scalar multiply-add chains.
    const ITERS: u64 = 4096;
    let ns = per_call_ns(budget, || {
        let (a, b) = (black_box(0.999_999f32), black_box(1e-6f32));
        let mut acc = [1.0f32; 4];
        for _ in 0..black_box(ITERS) {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(acc);
    });
    (ITERS * 4 * 2) as f64 / ns
}

/// GFLOP/s of `kernel` over the two shapes a block's MLP uses
/// (`rows × hidden → ffn` and `rows × ffn → hidden`).
fn gemm_gflops(
    budget: Duration,
    rows: usize,
    hidden: usize,
    ffn: usize,
    rng: &mut Rng,
    kernel: fn(&Matrix, &Matrix, &mut Matrix),
) -> f64 {
    let mut flops = 0.0;
    let mut ns = 0.0;
    for (k, n) in [(hidden, ffn), (ffn, hidden)] {
        let a = filled(rows, k, rng);
        let w = filled(n, k, rng);
        let mut c = Matrix::zeros(rows, n);
        ns += per_call_ns(budget / 2, || kernel(black_box(&a), black_box(&w), &mut c));
        flops += 2.0 * (rows * k * n) as f64;
    }
    flops / ns
}

/// A KV cache holding `tokens` (a prefill through `forward_step`).
fn prefilled(model: &Model, tokens: &[u32]) -> KvCache {
    let mut cache = KvCache::new(model.config());
    model.forward_step(tokens, 0, 0, &mut cache, &mut TapList::new());
    cache
}

/// One decode step as the engine's public API offers it: `forward_step`
/// on one token at context `ctx`, then the LM head.
fn decode_step_us(budget: Duration, model: &Model, tokens: &[u32], ctx: usize) -> f64 {
    let mut cache = prefilled(model, &tokens[..ctx]);
    let ns = per_call_ns(budget, || {
        let hidden = model.forward_step(&[tokens[ctx]], ctx, 1, &mut cache, &mut TapList::new());
        black_box(model.logits(&hidden));
        cache.truncate(ctx);
    });
    ns / 1e3
}

/// Copy a request's prefilled KV rows into the arena and seal them, as
/// admission does. Returns the sequence and its guard.
fn admit_rows(arena: &mut KvArena, cache: &KvCache) -> (KvSeq, KvGuard) {
    let mut seq = KvSeq::new();
    let mut guard = KvGuard::new();
    for j in 0..cache.len() {
        let row = seq.push(arena);
        for b in 0..cache.num_blocks() {
            arena
                .k_row_mut(b, row)
                .copy_from_slice(cache.block(b).k.row(j));
            arena
                .v_row_mut(b, row)
                .copy_from_slice(cache.block(b).v.row(j));
        }
        guard.seal(arena, &seq, j);
    }
    (seq, guard)
}

/// Median µs of `batch_step` over `lanes` lanes at context `ctx`, each lane
/// carrying a profiled FT2 protector as the workloads' requests do.
fn batch_step_us(
    budget: Duration,
    model: &Model,
    pool: &WorkStealingPool,
    tokens: &[u32],
    lanes: usize,
    ctx: usize,
) -> f64 {
    let config = model.config();
    let mut arena = KvArena::new(config.blocks, config.hidden);
    let mut seqs = Vec::new();
    let mut taps: Vec<Box<dyn LayerTap + Send>> = Vec::new();
    for _ in 0..lanes {
        let mut tap: Box<dyn LayerTap + Send> = Box::new(ft2_tap(config));
        let mut cache = KvCache::new(config);
        {
            let mut list = TapList::new();
            list.push(tap.as_mut());
            model.forward_step(&tokens[..ctx], 0, 0, &mut cache, &mut list);
            list.end_step(0);
        }
        seqs.push(admit_rows(&mut arena, &cache).0);
        taps.push(tap);
    }
    let mut scratch = BatchScratch::new();
    let ns = per_call_ns(budget, || {
        let mut batch: Vec<BatchLane<'_>> = seqs
            .iter_mut()
            .zip(taps.iter_mut())
            .map(|(seq, tap)| BatchLane {
                token: tokens[ctx],
                pos: ctx,
                step: 1,
                seq,
                tap: Some(tap.as_mut()),
            })
            .collect();
        black_box(batch_step(
            model,
            &mut arena,
            &mut batch,
            pool,
            &mut scratch,
        ));
        drop(batch);
        for (seq, tap) in seqs.iter_mut().zip(taps.iter_mut()) {
            tap.end_step(1);
            seq.truncate(ctx, &mut arena);
        }
    });
    ns / 1e3
}

/// Median µs per decode step of a one-lane scheduler serving one tap-less
/// request whose context runs 16 → 48 (mean 32).
fn serve_batch1_step_us(
    model: &Arc<Model>,
    pool: &WorkStealingPool,
    tokens: &[u32],
    reps: usize,
) -> f64 {
    let mut steps_us = Vec::new();
    for _ in 0..reps {
        let mut sched = Scheduler::new(
            Arc::clone(model),
            ServeConfig {
                max_batch: 1,
                ..serve_config()
            },
        );
        sched
            .try_submit(Request {
                id: 0,
                prompt: tokens[..16].to_vec(),
                gen_tokens: 33,
                tap: None,
            })
            .expect("an empty queue admits");
        sched.step(pool); // admission plus the first decode
        loop {
            let t = Instant::now();
            let more = sched.step(pool);
            if !more {
                break;
            }
            steps_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median(&mut steps_us)
}

/// A tap context for `layer` of block 0.
fn tap_ctx(model: &Model, layer: ft2_model::LayerKind, step: usize) -> TapCtx {
    TapCtx {
        point: TapPoint { block: 0, layer },
        hook: HookKind::LinearOutput,
        step,
        first_pos: 0,
        dtype: model.config().dtype,
    }
}

pub fn run(base: &Base, budget_s: f64) -> Values {
    let mut v = Values::default();
    let share = Duration::from_secs_f64(budget_s / SHARES);
    let model = &base.models[0];
    let pool = &base.pool;
    let config = model.config();
    let (hidden, ffn, blocks) = (config.hidden, config.ffn, config.blocks);
    let mut rng = Rng::new(0xF72, 99);
    let tokens = prompt(&mut rng, 130, config.vocab);

    // ---- numeric ----------------------------------------------------------
    let buf: Vec<f32> = filled(64, 256, &mut rng).as_slice().to_vec();
    let ns = per_call_ns(share, || {
        let mut acc = 0.0f32;
        for &x in black_box(&buf) {
            acc += F16::from_f32(x).to_f32();
        }
        black_box(acc);
    });
    v.set("numeric.f16.roundtrip_ns_per_elem", ns / buf.len() as f64);
    // One KV row and one weight tile, the two sizes the seals checksum.
    let (kv_row, tile) = (&buf[..hidden], &buf[..ft2_core::TILE_ELEMS]);
    let ns = per_call_ns(share, || {
        black_box(crc64_f32s(black_box(kv_row)));
        black_box(crc64_f32s(black_box(tile)));
    });
    v.set(
        "numeric.crc64.gb_s",
        ((kv_row.len() + tile.len()) * 4) as f64 / ns,
    );

    // ---- tensor -----------------------------------------------------------
    v.set(
        "tensor.gemm.decode_gflops",
        gemm_gflops(share, 1, hidden, ffn, &mut rng, matmul_transb_into),
    );
    v.set(
        "tensor.gemm.batch8_gflops",
        gemm_gflops(share, 8, hidden, ffn, &mut rng, matmul_transb_batch_into),
    );
    v.set(
        "tensor.gemm.prefill_gflops",
        gemm_gflops(share, 112, hidden, ffn, &mut rng, matmul_transb_into),
    );
    v.set("tensor.peak_gflops", peak_gflops(share));
    // Computed, not measured: a 1-row product reads the weights once.
    v.set(
        "tensor.gemm.flop_per_byte",
        (2 * hidden * ffn) as f64 / (4 * (hidden + hidden * ffn + ffn)) as f64,
    );
    let mut ns = 0.0;
    for ctx in [32, 128] {
        let mut scores = filled(config.heads, ctx, &mut rng);
        ns += per_call_ns(share / 2, || softmax_rows(black_box(&mut scores))) / config.heads as f64;
    }
    v.set("tensor.ops.softmax_ns_per_row", ns / 2.0);
    let (gamma, beta) = (vec![1.0f32; hidden], vec![0.0f32; hidden]);
    let mut row = filled(1, hidden, &mut rng);
    let ln = per_call_ns(share / 2, || {
        layer_norm(black_box(&mut row), &gamma, &beta, 1e-5)
    });
    let rms = per_call_ns(share / 2, || rms_norm(black_box(&mut row), &gamma, 1e-6));
    v.set("tensor.ops.norm_ns_per_row", (ln + rms) / 2.0);
    let partials: Vec<Vec<f64>> = (0..SHARDS)
        .map(|_| (0..hidden).map(|_| rng.unit()).collect())
        .collect();
    let parts: Vec<&[f64]> = partials.iter().map(|p| p.as_slice()).collect();
    let mut reduced = Matrix::zeros(1, hidden);
    let ns = per_call_ns(share, || {
        reduce_seam_into(black_box(&parts), 1, hidden, &mut reduced)
    });
    v.set("tensor.seam.reduce_ns_per_elem", ns / hidden as f64);

    // ---- parallel ---------------------------------------------------------
    let slots = pool.threads() + 1;
    let ns = per_call_ns(share, || pool.run(slots, 1, |_| {}));
    v.set("parallel.pool.dispatch_us", ns / 1e3);
    let work: Vec<Vec<f32>> = (0..64)
        .map(|_| filled(1, 4096, &mut rng).as_slice().to_vec())
        .collect();
    let task = |x: &Vec<f32>| {
        (0..16)
            .map(|_| ft2_tensor::dot(black_box(x), black_box(x)))
            .sum::<f32>()
    };
    let serial = per_call_ns(share, || {
        for x in &work {
            black_box(task(x));
        }
    });
    let pooled = per_call_ns(share, || {
        black_box(pool.map(&work, 1, |_, x| task(x)));
    });
    v.set("parallel.pool.efficiency", serial / slots as f64 / pooled);

    // ---- model ------------------------------------------------------------
    v.set(
        "model.build_ms",
        per_call_ns(share, || drop(black_box(ZooModel::Opt6_7B.spec().build()))) / 1e6,
    );
    for (name, n) in [
        ("model.prefill.us_per_token_p16", 16),
        ("model.prefill.us_per_token_p112", 112),
    ] {
        let ns = per_call_ns(share, || drop(black_box(prefilled(model, &tokens[..n]))));
        v.set(name, ns / 1e3 / n as f64);
    }
    let step32 = decode_step_us(share, model, &tokens, 32);
    v.set("model.decode.us_per_token_ctx32", step32);
    v.set(
        "model.decode.us_per_token_ctx128",
        decode_step_us(share, model, &tokens, 128),
    );
    // The four parts of a decode step at context 32, visiting the blocks in
    // turn as a real step does (so their weights are no warmer than there).
    let weights = model.weights();
    let x = filled(1, hidden, &mut rng);
    let mut normed = Matrix::zeros(1, hidden);
    let mut turn = 0usize;
    let mut next_block = || {
        turn += 1;
        turn % blocks
    };
    let norm_us = per_call_ns(share, || {
        normed_into(
            config,
            &weights.blocks[next_block()].attn_norm,
            black_box(&x),
            &mut normed,
        )
    }) / 1e3;
    let warm = prefilled(model, &tokens[..32]);
    let mut kv: Vec<KvCacheBlock> = (0..blocks).map(|b| warm.block(b).clone()).collect();
    let mut attn = AttnScratch::default();
    let attn_us = per_call_ns(share, || {
        let b = next_block();
        attention_forward_into(
            config,
            &weights.blocks[b],
            b,
            black_box(&normed),
            32,
            1,
            &mut kv[b],
            &mut TapList::new(),
            KernelPolicy::Strict,
            model.rope_table(),
            &mut attn,
        );
        kv[b].truncate(32);
    }) / 1e3;
    let mut mlp = MlpScratch::default();
    let mlp_us = per_call_ns(share, || {
        let b = next_block();
        mlp_forward_into(
            config,
            &weights.blocks[b],
            b,
            black_box(&normed),
            32,
            1,
            &mut TapList::new(),
            &mut mlp,
        )
    }) / 1e3;
    let lm_head_us = per_call_ns(share, || drop(black_box(model.logits(black_box(&normed))))) / 1e3;
    v.set("model.norm.us", norm_us);
    v.set("model.attn.us", attn_us);
    v.set("model.mlp.us", mlp_us);
    v.set("model.lm_head.us", lm_head_us);
    // Two norms, attention and MLP per block, the final norm, the LM head.
    let parts_us = blocks as f64 * (2.0 * norm_us + attn_us + mlp_us) + norm_us + lm_head_us;
    v.set("model.step.parts_sum_ratio", parts_us / step32);
    v.set("model.kv.bytes_per_token", (blocks * 2 * hidden * 4) as f64);
    // Sharded against dense decode: median token gap of a 32-token
    // generation through each executor.
    let gap_us = |stamps: &[u64]| {
        let mut gaps: Vec<f64> = stamps
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e3)
            .collect();
        median(&mut gaps)
    };
    let origin = Instant::now();
    let mut sharded = ShardedModel::new(model, SHARDS);
    let (mut shard_gaps, mut dense_gaps) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let mut clock = TokenClock::new(origin, 32);
        let mut taps = ShardTapList::new();
        taps.push(&mut clock);
        sharded.generate_with(
            pool,
            &tokens[..16],
            32,
            &mut taps,
            RecoveryPolicy::disabled(),
            crate::sharded::HEARTBEAT,
        );
        drop(taps);
        shard_gaps.push(gap_us(&clock.stamps));
        let mut clock = TokenClock::new(origin, 32);
        let mut taps = TapList::new();
        taps.push(&mut clock);
        model.generate(&tokens[..16], 32, &mut taps);
        drop(taps);
        dense_gaps.push(gap_us(&clock.stamps));
    }
    let shard_step = median(&mut shard_gaps);
    v.set("model.shard.step_us", shard_step);
    v.set(
        "model.shard.vs_dense_ratio",
        shard_step / median(&mut dense_gaps),
    );

    // ---- core -------------------------------------------------------------
    let critical = critical_layers(config.style)[0];
    let width = config.out_features(critical);
    let mut protector = ft2_tap(config);
    let mut out = filled(16, width, &mut rng);
    protector.on_output(&tap_ctx(model, critical, 0), &mut out);
    protector.end_step(0);
    // Inside the profiled range, so the clamp pass reads every element and
    // changes none.
    let mut inside = Matrix::from_fn(1, width, |_, c| out.get(0, c) * 0.5);
    let ctx1 = tap_ctx(model, critical, 1);
    {
        let mut taps = TapList::new();
        taps.push(&mut protector);
        let ns = per_call_ns(share, || taps.fire(&ctx1, black_box(&mut inside)));
        v.set("core.protect.clamp_ns_per_elem", ns / width as f64);
    }
    // Prefill with first-token bound profiling against a bare prefill,
    // interleaved pairs.
    let mut ratios = Vec::new();
    let start = Instant::now();
    while start.elapsed() < share * 2 || ratios.len() < 5 {
        let t = Instant::now();
        black_box(prefilled(model, &tokens[..112]));
        let bare = t.elapsed().as_nanos() as f64;
        let mut tap = ft2_tap(config);
        let t = Instant::now();
        {
            let mut taps = TapList::new();
            taps.push(&mut tap);
            let mut cache = KvCache::new(config);
            black_box(model.forward_step(&tokens[..112], 0, 0, &mut cache, &mut taps));
            taps.end_step(0);
        }
        ratios.push((t.elapsed().as_nanos() as f64 / bare - 1.0) * 100.0);
    }
    v.set("core.protect.profile_overhead_pct", median(&mut ratios));
    v.set(
        "core.integrity.checksum_build_ms",
        per_call_ns(share, || {
            drop(black_box(WeightChecksums::build(config, model.weights())))
        }) / 1e6,
    );
    let checksums = &base.checksums[0];
    let mut live = model.weights().clone();
    let ns = per_call_ns(share, || {
        black_box(checksums.full_sweep(&mut live, model.weights()));
    });
    v.set(
        "core.integrity.scrub_tile_us",
        ns / 1e3 / checksums.num_tiles() as f64,
    );

    // ---- fault ------------------------------------------------------------
    let inputs = campaign_inputs(0xF72, config.vocab);
    let cfg = CampaignConfig {
        trials_per_input: CAMPAIGN_TRIALS,
        gen_tokens: CAMPAIGN_GEN,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    };
    let ns = per_call_ns(share, || {
        black_box(
            Campaign::new(model, &inputs, &ExactJudge, cfg.clone(), pool)
                .references()
                .len(),
        );
    });
    v.set("fault.reference_ms", ns / 1e6);
    let campaign = Campaign::new(model, &inputs, &ExactJudge, cfg, pool);
    let ft2 = SchemeFactory::new(Scheme::Ft2, config, None);
    let mut trial_us = Vec::new();
    let start = Instant::now();
    while start.elapsed() < share * 4 {
        let i = trial_us.len();
        let t = Instant::now();
        black_box(campaign.trial_record(&ft2, i % inputs.len(), i / inputs.len()));
        trial_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    v.set("fault.trial_us_p50", percentile(&mut trial_us, 50.0));
    v.set("fault.trial_us_p99", percentile(&mut trial_us, 99.0));
    // An injector whose site lies beyond the generation never fires: what
    // is left is the cost of carrying it.
    let idle_site = FaultSite {
        step: usize::MAX,
        point: TapPoint {
            block: 0,
            layer: critical,
        },
        element: 0,
        bits: vec![14],
        duration: FaultDuration::Transient,
        target: FaultTarget::Activation,
    };
    let mut ratios = Vec::new();
    let start = Instant::now();
    while start.elapsed() < share * 2 || ratios.len() < 5 {
        let t = Instant::now();
        black_box(model.generate(&inputs[0], CAMPAIGN_GEN, &mut TapList::new()));
        let bare = t.elapsed().as_nanos() as f64;
        let mut injector = FaultInjector::new(idle_site.clone());
        let t = Instant::now();
        {
            let mut taps = TapList::new();
            taps.push(&mut injector);
            black_box(model.generate(&inputs[0], CAMPAIGN_GEN, &mut taps));
        }
        ratios.push((t.elapsed().as_nanos() as f64 / bare - 1.0) * 100.0);
    }
    v.set("fault.inject.overhead_pct", median(&mut ratios));

    // ---- serve ------------------------------------------------------------
    let mut submit_us = Vec::new();
    for _ in 0..8 {
        let mut sched = Scheduler::new(
            Arc::clone(model),
            ServeConfig {
                queue_depth: 256,
                ..serve_config()
            },
        );
        let reqs: Vec<Request> = (0..256)
            .map(|id| Request {
                id,
                prompt: tokens[..16].to_vec(),
                gen_tokens: 8,
                tap: None,
            })
            .collect();
        let t = Instant::now();
        for r in reqs {
            sched.try_submit(r).expect("the queue holds 256");
        }
        submit_us.push(t.elapsed().as_nanos() as f64 / 1e3 / 256.0);
    }
    v.set("serve.submit_us", median(&mut submit_us));
    let cache = prefilled(model, &tokens[..112]);
    let mut arena = KvArena::new(blocks, hidden);
    let ns = per_call_ns(share, || {
        let (mut seq, guard) = admit_rows(&mut arena, black_box(&cache));
        black_box(guard.len());
        seq.release(&mut arena);
    });
    v.set("serve.arena.copy_us_per_pos", ns / 1e3 / 112.0);
    v.set(
        "serve.batch_step.us_b1",
        batch_step_us(share, model, pool, &tokens, 1, 48),
    );
    v.set(
        "serve.batch_step.us_b8",
        batch_step_us(share, model, pool, &tokens, 8, 48),
    );
    v.set(
        "serve.vs_engine_ratio",
        serve_batch1_step_us(model, pool, &tokens, 8) / step32,
    );
    // A one-token request through the threaded server, minus the same
    // request through a bare scheduler on this thread.
    let server = Server::spawn(Arc::clone(model), serve_config(), 1);
    let (mut via_server, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..48 {
        let t = Instant::now();
        server
            .submit(tokens[..16].to_vec(), 1, None)
            .expect("the server admits");
        black_box(server.wait_all());
        via_server.push(t.elapsed().as_nanos() as f64 / 1e3);
        let mut sched = Scheduler::new(Arc::clone(model), serve_config());
        let t = Instant::now();
        sched
            .try_submit(Request {
                id: 0,
                prompt: tokens[..16].to_vec(),
                gen_tokens: 1,
                tap: None,
            })
            .expect("an empty queue admits");
        black_box(sched.run(pool));
        direct.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(server); // joins the worker thread
    v.set(
        "serve.server.hop_us",
        median(&mut via_server) - median(&mut direct),
    );
    let (sink, events) = EventSink::channel();
    let ns = per_call_ns(share, || {
        sink.emit(ServeEvent::Token {
            replica: 0,
            id: 1,
            step: 1,
            token: 7,
            report: Default::default(),
            t_ns: 0,
        });
        black_box(events.try_recv().is_ok());
    });
    v.set("serve.event.emit_ns", ns);
    v
}
