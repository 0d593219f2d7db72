//! Seeded input generation. Everything a workload feeds the crates under
//! test — prompts, output lengths, the request mix, the arrival schedule,
//! the fault schedule — derives from `--seed` here and nowhere else.
//!
//! A second seed changes the inputs but not their shapes: lengths are drawn
//! from fixed, evenly spread sets and only their order (and the prompt
//! tokens) depend on the seed, so two seeds load the system equally and
//! their metrics are comparable.

/// The benchmark's own generator (SplitMix64), so that a change to the
/// repository's RNGs cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ---- shapes (the same for every seed) -------------------------------------

/// Short prompts, every workload: 12–20 tokens.
pub const SHORT_PROMPT: (usize, usize) = (12, 20);
/// `solo_decode`: output tokens per generation.
pub const SOLO_GEN: usize = 128;
/// `sharded_decode`: output tokens per generation, and the shard count.
pub const SHARD_GEN: usize = 64;
pub const SHARDS: usize = 2;
/// Distinct generations a solo/sharded run cycles through (half per model).
pub const SOLO_POOL: usize = 16;

/// Virtual clients of the closed-loop serving workloads (= `max_batch`).
pub const CLIENTS: usize = 8;
/// `serve_decode` / `serve_storm`: output lengths, spread so lanes
/// desynchronise.
pub const DECODE_GEN: (usize, usize) = (48, 96);
/// Distinct requests a serving run cycles through.
pub const DECODE_POOL: usize = 64;
pub const STORM_POOL: usize = 48;
pub const PREFILL_POOL: usize = 64;
/// `serve_storm`: a fault strikes at a decode step in this range.
pub const STRIKE_STEP: (usize, usize) = (8, 40);

/// `serve_prefill`: the two request classes of the 3 : 1 mix.
pub const LONG_PROMPT: (usize, usize) = (96, 128);
pub const LONG_GEN: (usize, usize) = (4, 8);
pub const MIX_SHORT_GEN: (usize, usize) = (32, 64);
/// `serve_prefill`: open-loop arrival rate, requests per second: 40 % of the
/// saturation rate measured on the 2-core reference box (README, "Open-loop
/// rate and SLO limits"). A constant: never calibrated at run time.
pub const PREFILL_RATE: f64 = 60.0;
pub const QUEUE_DEPTH: usize = 64;
/// `serve_prefill` latency limits behind `slo_share`, milliseconds.
pub const SLO_TTFT_MS: f64 = 25.0;
pub const SLO_GAP_MS: f64 = 15.0;

/// `campaign`: inputs × trials per input, and tokens per trial.
pub const CAMPAIGN_INPUTS: usize = 8;
pub const CAMPAIGN_TRIALS: usize = 250;
pub const CAMPAIGN_GEN: usize = 16;

// ---- generators -----------------------------------------------------------

pub fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// `n` values spread evenly over `lo..=hi` (every seed gets the same
/// multiset), in seed-dependent order.
pub fn spread(rng: &mut Rng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let width = hi - lo + 1;
    let mut v: Vec<usize> = (0..n).map(|i| lo + (i * width) / n.max(1)).collect();
    rng.shuffle(&mut v);
    v
}

/// One generation of the solo / sharded workloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenSpec {
    /// 0 = OPT-style stand-in, 1 = Llama-style stand-in; alternates.
    pub model: usize,
    pub prompt: Vec<u32>,
    pub gen_tokens: usize,
}

pub fn solo_specs(seed: u64, gen_tokens: usize, vocab: usize) -> Vec<GenSpec> {
    let mut rng = Rng::new(seed, 1);
    let lens = spread(&mut rng, SOLO_POOL, SHORT_PROMPT);
    lens.into_iter()
        .enumerate()
        .map(|(i, len)| GenSpec {
            model: i % 2,
            prompt: prompt(&mut rng, len, vocab),
            gen_tokens,
        })
        .collect()
}

/// The fault a request's tap injects, and so the outcome it must end in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// `StormTap::transient(step, 1)`: one rollback, then completes.
    Transient {
        step: usize,
    },
    /// A sealed K row flipped behind the guard before `step`, plus a storm
    /// that outlasts the rollback budget: the repair rung's seal sweep finds
    /// the row and `rebuild_kv` restores it; completes.
    KvFlip {
        step: usize,
    },
    /// `StormTap::persistent(step)`: typed eviction at `step`.
    Persistent {
        step: usize,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReqSpec {
    pub prompt: Vec<u32>,
    pub gen_tokens: usize,
    pub fault: Fault,
}

fn requests(
    rng: &mut Rng,
    n: usize,
    prompt_len: (usize, usize),
    gen: (usize, usize),
    vocab: usize,
) -> Vec<ReqSpec> {
    let lens = spread(rng, n, prompt_len);
    let gens = spread(rng, n, gen);
    lens.into_iter()
        .zip(gens)
        .map(|(len, gen_tokens)| ReqSpec {
            prompt: prompt(rng, len, vocab),
            gen_tokens,
            fault: Fault::None,
        })
        .collect()
}

/// `serve_decode`: short prompts, long desynchronised outputs, no faults.
pub fn decode_pool(seed: u64, vocab: usize) -> Vec<ReqSpec> {
    requests(
        &mut Rng::new(seed, 2),
        DECODE_POOL,
        SHORT_PROMPT,
        DECODE_GEN,
        vocab,
    )
}

/// `serve_storm`: the `serve_decode` shape with every fourth request
/// faulted, the kinds cycling transient → KV flip → persistent.
pub fn storm_pool(seed: u64, vocab: usize) -> Vec<ReqSpec> {
    let mut rng = Rng::new(seed, 3);
    let mut pool = requests(&mut rng, STORM_POOL, SHORT_PROMPT, DECODE_GEN, vocab);
    let steps = spread(&mut rng, STORM_POOL / 4, STRIKE_STEP);
    for (k, step) in steps.into_iter().enumerate() {
        pool[4 * k + 3].fault = match k % 3 {
            0 => Fault::Transient { step },
            1 => Fault::KvFlip { step },
            _ => Fault::Persistent { step },
        };
    }
    pool
}

/// `serve_prefill`: three long-prompt/short-output requests to every
/// short-prompt/long-output one, interleaved in seed-dependent order.
pub fn prefill_pool(seed: u64, vocab: usize) -> Vec<ReqSpec> {
    let mut rng = Rng::new(seed, 4);
    let short = PREFILL_POOL / 4;
    let mut pool = requests(&mut rng, PREFILL_POOL - short, LONG_PROMPT, LONG_GEN, vocab);
    pool.extend(requests(
        &mut rng,
        short,
        SHORT_PROMPT,
        MIX_SHORT_GEN,
        vocab,
    ));
    rng.shuffle(&mut pool);
    pool
}

/// Arrival times (ns from the schedule's start) of a Poisson process at
/// `rate` per second over `span_s` seconds, conditioned on its expected
/// count: `round(rate × span_s)` sorted uniform draws. Fixing the count
/// keeps the offered load equal across seeds; the clustering stays random.
pub fn arrivals(seed: u64, rate: f64, span_s: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 5);
    let n = (rate * span_s).round() as usize;
    let mut t: Vec<u64> = (0..n).map(|_| (rng.unit() * span_s * 1e9) as u64).collect();
    t.sort_unstable();
    t
}

/// `campaign`: SQuAD-shaped (short) inputs.
pub fn campaign_inputs(seed: u64, vocab: usize) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, 6);
    spread(&mut rng, CAMPAIGN_INPUTS, SHORT_PROMPT)
        .into_iter()
        .map(|len| prompt(&mut rng, len, vocab))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(decode_pool(7, 512), decode_pool(7, 512));
        assert_eq!(storm_pool(7, 512), storm_pool(7, 512));
        assert_eq!(prefill_pool(7, 512), prefill_pool(7, 512));
        assert_eq!(solo_specs(7, SOLO_GEN, 512), solo_specs(7, SOLO_GEN, 512));
        assert_eq!(
            arrivals(7, PREFILL_RATE, 3.0),
            arrivals(7, PREFILL_RATE, 3.0)
        );
        assert_eq!(campaign_inputs(7, 512), campaign_inputs(7, 512));
    }

    #[test]
    fn another_seed_changes_inputs_but_not_shapes() {
        for (a, b) in [
            (decode_pool(1, 512), decode_pool(2, 512)),
            (prefill_pool(1, 512), prefill_pool(2, 512)),
        ] {
            assert_ne!(a, b);
            // The same multiset of prompt and output lengths, so the same
            // amount of prefill and decode work.
            let lens = |p: &[ReqSpec]| {
                let mut l: Vec<usize> = p.iter().map(|r| r.prompt.len()).collect();
                let mut g: Vec<usize> = p.iter().map(|r| r.gen_tokens).collect();
                l.sort_unstable();
                g.sort_unstable();
                (l, g)
            };
            assert_eq!(lens(&a), lens(&b));
        }
        let (a, b) = (arrivals(1, 100.0, 4.0), arrivals(2, 100.0, 4.0));
        assert_ne!(a, b);
        assert_eq!(a.len(), 400);
        assert_eq!(b.len(), 400);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
    }

    #[test]
    fn prefill_mix_is_three_long_to_one_short() {
        let pool = prefill_pool(3, 512);
        let long = pool
            .iter()
            .filter(|r| r.prompt.len() >= LONG_PROMPT.0)
            .count();
        assert_eq!(long, PREFILL_POOL * 3 / 4);
        for r in &pool {
            if r.prompt.len() >= LONG_PROMPT.0 {
                assert!((LONG_GEN.0..=LONG_GEN.1).contains(&r.gen_tokens));
                assert!(r.prompt.len() <= LONG_PROMPT.1);
            } else {
                assert!((SHORT_PROMPT.0..=SHORT_PROMPT.1).contains(&r.prompt.len()));
                assert!((MIX_SHORT_GEN.0..=MIX_SHORT_GEN.1).contains(&r.gen_tokens));
            }
            assert!(
                r.prompt.len() + r.gen_tokens <= 160,
                "fits the zoo's max_seq"
            );
        }
    }

    #[test]
    fn storm_pool_faults_one_request_in_four_with_a_fixed_mix() {
        let pool = storm_pool(9, 512);
        let mut kinds = [0usize; 3];
        for (i, r) in pool.iter().enumerate() {
            match r.fault {
                Fault::None => assert_ne!(i % 4, 3),
                Fault::Transient { step } | Fault::KvFlip { step } | Fault::Persistent { step } => {
                    assert_eq!(i % 4, 3);
                    assert!((STRIKE_STEP.0..=STRIKE_STEP.1).contains(&step));
                    assert!(
                        step < r.gen_tokens,
                        "the strike lands inside the generation"
                    );
                    kinds[match r.fault {
                        Fault::Transient { .. } => 0,
                        Fault::KvFlip { .. } => 1,
                        _ => 2,
                    }] += 1;
                }
            }
        }
        assert_eq!(kinds, [4, 4, 4]);
        assert_eq!(pool.len(), STORM_POOL);
    }

    #[test]
    fn solo_specs_alternate_models_and_keep_lengths_in_range() {
        let specs = solo_specs(5, SOLO_GEN, 512);
        assert_eq!(specs.len(), SOLO_POOL);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.model, i % 2);
            assert!((SHORT_PROMPT.0..=SHORT_PROMPT.1).contains(&s.prompt.len()));
            assert!(s.prompt.iter().all(|&t| t < 512));
        }
    }
}
