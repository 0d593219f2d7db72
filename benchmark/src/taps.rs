//! The benchmark's own taps: a token clock on the benchmark's timeline, a
//! chain that lets one request carry an injector and a protector, and a
//! protection factory that adds the clock to every campaign trial.

use ft2_fault::ProtectionFactory;
use ft2_model::hooks::{LayerTap, StepReport, TapCtx};
use ft2_model::{ShardTap, StateTap};
use ft2_tensor::Matrix;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stamps the end of every generation step on the benchmark's clock — the
/// only way to see token times through the batch APIs (`Model::generate`,
/// `ShardedModel::generate_with`, `Campaign::run`), which return nothing
/// until the last token. The engine calls the end-of-step hook after the
/// step's forward pass and before its LM head, so gaps between stamps are
/// whole steps and the first stamp is early by one LM-head GEMV.
///
/// The clock observes only: it reports a clean step and touches no data.
pub struct TokenClock {
    origin: Instant,
    /// Nanoseconds since `origin` at each accepted step.
    pub stamps: Vec<u64>,
}

impl TokenClock {
    pub fn new(origin: Instant, capacity: usize) -> TokenClock {
        TokenClock {
            origin,
            stamps: Vec::with_capacity(capacity),
        }
    }

    fn stamp(&mut self) {
        self.stamps.push(self.origin.elapsed().as_nanos() as u64);
    }
}

impl LayerTap for TokenClock {
    fn on_output(&mut self, _ctx: &TapCtx, _data: &mut Matrix) {}

    fn end_step(&mut self, _step: usize) -> StepReport {
        self.stamp();
        StepReport::default()
    }

    /// A rolled-back step was never accepted: forget its stamp.
    fn on_rollback(&mut self, _step: usize, _attempt: u32) {
        self.stamps.pop();
    }
}

impl ShardTap for TokenClock {
    fn on_step_end(&mut self, _step: usize) {
        self.stamp();
    }
}

/// Two taps as one, fired in order: the injector first, the protector
/// second, as the hook mechanism prescribes.
pub struct Chain<A, B>(pub A, pub B);

impl<A: LayerTap, B: LayerTap> LayerTap for Chain<A, B> {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        self.0.on_output(ctx, data);
        self.1.on_output(ctx, data);
    }

    fn end_step(&mut self, step: usize) -> StepReport {
        let mut report = self.0.end_step(step);
        report.merge(&self.1.end_step(step));
        report
    }

    fn on_rollback(&mut self, step: usize, attempt: u32) {
        self.0.on_rollback(step, attempt);
        self.1.on_rollback(step, attempt);
    }
}

/// Token times of every trial of a campaign round, flattened as
/// `[start, n, stamp × n]` records (one lock and no allocation per trial
/// once the buffer has grown).
pub type TrialStamps = Arc<Mutex<Vec<u64>>>;

/// A [`TokenClock`] that hands its stamps to the shared sink when the
/// trial drops it.
struct TrialClock {
    clock: TokenClock,
    start_ns: u64,
    sink: TrialStamps,
}

impl LayerTap for TrialClock {
    fn on_output(&mut self, _ctx: &TapCtx, _data: &mut Matrix) {}

    fn end_step(&mut self, step: usize) -> StepReport {
        self.clock.end_step(step)
    }

    fn on_rollback(&mut self, step: usize, attempt: u32) {
        self.clock.on_rollback(step, attempt);
    }
}

impl Drop for TrialClock {
    fn drop(&mut self) {
        // A poisoned sink only loses timing samples; never panic in drop.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(self.start_ns);
            sink.push(self.clock.stamps.len() as u64);
            sink.extend_from_slice(&self.clock.stamps);
        }
    }
}

/// Wraps a protection factory so every trial also carries a token clock,
/// registered last (after injector and protector).
pub struct ClockedFactory<'a> {
    pub inner: &'a dyn ProtectionFactory,
    pub origin: Instant,
    pub sink: TrialStamps,
    pub gen_tokens: usize,
}

impl ProtectionFactory for ClockedFactory<'_> {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        let mut taps = self.inner.make();
        taps.push(Box::new(TrialClock {
            clock: TokenClock::new(self.origin, self.gen_tokens),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            sink: Arc::clone(&self.sink),
        }));
        taps
    }

    fn make_state(&self) -> Vec<Box<dyn StateTap>> {
        self.inner.make_state()
    }

    fn scheme_name(&self) -> &str {
        self.inner.scheme_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_stamps_accepted_steps_and_forgets_rolled_back_ones() {
        let mut c = TokenClock::new(Instant::now(), 4);
        LayerTap::end_step(&mut c, 0);
        LayerTap::end_step(&mut c, 1);
        c.on_rollback(1, 0);
        LayerTap::end_step(&mut c, 1);
        assert_eq!(c.stamps.len(), 2);
        assert!(c.stamps[0] <= c.stamps[1]);
    }
}
