//! What every workload shares: the fixture (models, checksums, pool), the
//! observation record of one operation, and the reduction from raw token
//! times to the end-to-end metrics.

use crate::metrics::Values;
use crate::stats::{median, percentile, segment_rates};
use crate::trace::Tracer;
use ft2_core::schemes::FT2_DEFAULT_SCALE;
use ft2_core::{Protector, Scheme, WeightChecksums};
use ft2_model::{Model, ModelConfig, ZooModel};
use ft2_parallel::WorkStealingPool;
use std::sync::Arc;
use std::time::Instant;

/// Equal segments a timed window is cut into for throughput medians.
pub const SEGMENTS: usize = 12;
/// A p99 on fewer samples than this is not a measurement.
pub const MIN_P99_SAMPLES: usize = 1000;

/// The two zoo stand-ins the engine workloads alternate between.
pub const MODELS: [ZooModel; 2] = [ZooModel::Opt6_7B, ZooModel::Llama2_7B];

/// One driving thread plus this many pool workers; the pool's caller helps
/// run blocks, so runnable threads never exceed the core count.
pub fn pool_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).max(1)
}

/// Models, their load-time weight checksums, and the worker pool.
pub struct Base {
    pub models: Vec<Arc<Model>>,
    pub checksums: Vec<WeightChecksums>,
    pub pool: WorkStealingPool,
}

impl Base {
    pub fn build(zoo: &[ZooModel]) -> Base {
        let models: Vec<Arc<Model>> = zoo.iter().map(|z| Arc::new(z.spec().build())).collect();
        let checksums = models
            .iter()
            .map(|m| WeightChecksums::build(m.config(), m.weights()))
            .collect();
        Base {
            models,
            checksums,
            pool: WorkStealingPool::new(pool_threads()),
        }
    }

    /// The run must leave the served weights as it found them: every tile
    /// still matches its load-time checksum.
    pub fn weights_intact(&self) -> bool {
        self.models.iter().zip(&self.checksums).all(|(m, c)| {
            let mut live = m.weights().clone();
            c.full_sweep(&mut live, m.weights()).1 == 0
        })
    }
}

/// The paper's deployment: first-token bound profiling in the prefill,
/// clamping on the critical layers in decode.
pub fn ft2_tap(config: &ModelConfig) -> Protector {
    Protector::ft2_online(Scheme::Ft2.coverage(config.style), FT2_DEFAULT_SCALE)
}

/// Client-visible times of one operation (a generation, a request, a
/// trial), nanoseconds on the run's clock.
#[derive(Clone, Debug, Default)]
pub struct OpTimes {
    /// Submit time (closed loop, batch APIs) or due time (open loop).
    pub start_ns: u64,
    pub tokens_ns: Vec<u64>,
    /// Whether the gaps of this operation count toward `itl_ms_*` (a
    /// faulted request's do not).
    pub clean: bool,
}

/// The timed window `[t0, t1)` on the run's clock.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub t0: u64,
    pub t1: u64,
}

impl Window {
    pub fn holds(&self, t: u64) -> bool {
        t >= self.t0 && t < self.t1
    }
}

/// Latency samples and token times of the operations inside a window.
#[derive(Default)]
pub struct Latency {
    pub ttft_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    pub token_times: Vec<u64>,
}

impl Latency {
    /// TTFT counts for operations that started in the window; a gap counts
    /// when the token that closes it arrived in the window.
    pub fn collect<'a>(ops: impl IntoIterator<Item = &'a OpTimes>, w: Window) -> Latency {
        let mut l = Latency::default();
        for op in ops {
            if let Some(&first) = op.tokens_ns.first() {
                if w.holds(op.start_ns) {
                    l.ttft_ms.push((first - op.start_ns) as f64 / 1e6);
                }
            }
            for pair in op.tokens_ns.windows(2) {
                if op.clean && w.holds(pair[1]) {
                    l.itl_ms.push((pair[1] - pair[0]) as f64 / 1e6);
                }
            }
            l.token_times
                .extend(op.tokens_ns.iter().filter(|&&t| w.holds(t)));
        }
        l
    }

    /// Tokens per second, median over the window's segments.
    pub fn tok_s(&self, w: Window) -> f64 {
        median(&mut segment_rates(&self.token_times, w.t0, w.t1, SEGMENTS))
    }

    /// Set the latency metrics and the sample counts.
    pub fn report(&mut self, e2e: &mut Values, layer: &mut Values) {
        e2e.set("ttft_ms_p50", percentile(&mut self.ttft_ms, 50.0));
        layer.set("ttft_ms_p99", percentile(&mut self.ttft_ms, 99.0));
        layer.set("itl_ms_p50", percentile(&mut self.itl_ms, 50.0));
        layer.set("itl_ms_p99", percentile(&mut self.itl_ms, 99.0));
        layer.set("samples.ttft", self.ttft_ms.len() as f64);
        layer.set("samples.itl", self.itl_ms.len() as f64);
    }
}

/// What one timed run of a workload hands back.
#[derive(Default)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics except `setup_s` and `peak_rss_mb`.
    pub e2e: Values,
    /// Per-layer metrics this workload can see from outside.
    pub layer: Values,
    /// Why an operation failed or a check did not hold (first few).
    pub problems: Vec<String>,
}

impl RunOutput {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// A failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }
}

/// How long a workload warms caches and measures.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub warm_s: f64,
    pub window_s: f64,
}

/// Warm-up, then the window, for the workloads that run one operation after
/// another: ask before each operation what it counts as.
pub struct Phases {
    origin: Instant,
    warm_ns: u64,
    window_ns: u64,
    /// When the first timed operation began.
    t0: Option<u64>,
}

impl Phases {
    pub fn start(origin: Instant, timing: Timing) -> Phases {
        Phases {
            origin,
            warm_ns: (timing.warm_s * 1e9) as u64,
            window_ns: (timing.window_s * 1e9) as u64,
            t0: None,
        }
    }

    /// `Some(timed)` to run another operation — `timed` false while warming
    /// up — or `None` once the window has elapsed.
    pub fn next_is_timed(&mut self) -> Option<bool> {
        let now = ns_since(self.origin);
        if self.t0.is_none() && now >= self.warm_ns {
            self.t0 = Some(now);
        }
        match self.t0 {
            None => Some(false),
            Some(t0) if now < t0 + self.window_ns => Some(true),
            Some(_) => None,
        }
    }

    /// The window that was measured: from the first timed operation to now
    /// (the last operation runs to its end).
    pub fn window(&self) -> Window {
        let t1 = ns_since(self.origin);
        Window {
            t0: self.t0.unwrap_or(t1),
            t1,
        }
    }
}

/// A set-up workload. `run` may be called more than once (the traced run
/// measures once with the tracer off and once with it on).
pub trait Fixture {
    fn run(&mut self, timing: Timing, tracer: &mut Tracer) -> RunOutput;
    /// The shared base, for the post-run weight check.
    fn base(&self) -> &Base;
}

/// Nanoseconds since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_only_what_the_window_holds() {
        let w = Window { t0: 100, t1: 200 };
        let ops = [
            // Started before the window: no TTFT, its in-window gap counts.
            OpTimes {
                start_ns: 50,
                tokens_ns: vec![90, 110],
                clean: true,
            },
            // Started inside: TTFT counts; the gap closing at 210 does not.
            OpTimes {
                start_ns: 120,
                tokens_ns: vec![150, 180, 210],
                clean: true,
            },
            // Faulted: TTFT and tokens count, gaps do not.
            OpTimes {
                start_ns: 130,
                tokens_ns: vec![140, 160],
                clean: false,
            },
        ];
        let l = Latency::collect(&ops, w);
        assert_eq!(l.ttft_ms.len(), 2);
        assert_eq!(l.itl_ms.len(), 2);
        assert_eq!(l.token_times.len(), 5);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
