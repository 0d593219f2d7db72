//! A per-request fault-storm injector for serving tests and benches.
//!
//! [`StormTap`] is the serving analogue of the engine tests' transient-storm
//! tap: it corrupts the value-projection output of block 0 on a configurable
//! schedule and reports a [`AnomalyVerdict::Storm`] for any step it struck,
//! driving the scheduler's per-request recovery ladder. The strike schedule
//! follows the fault model's [`FaultDuration`]: a transient storm strikes a
//! single step until rolled back enough times, an intermittent storm
//! re-strikes on a period, and a persistent storm never heals — the case
//! that must end in eviction rather than stalling the batch.

use ft2_fault::FaultDuration;
use ft2_model::config::LayerKind;
use ft2_model::hooks::{AnomalyVerdict, HookKind, LayerTap, StepReport, TapCtx};
use ft2_tensor::Matrix;

/// Magnitude added to every element of the struck output — far outside any
/// activation range, so downstream detectors cannot miss it.
const STORM_MAGNITUDE: f32 = 1.0e3;

/// How a strike corrupts the struck output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrikeMode {
    /// Add [`STORM_MAGNITUDE`] to every element (the classic storm).
    AddMagnitude,
    /// Flip the highest exponent bit of the first element *as stored* in
    /// the tap's dtype — the single-bit-upset model driven by the live
    /// `/inject` endpoint ("flip a bit in block 2 now"): one element jumps
    /// orders of magnitude while the rest of the output is untouched.
    BitFlip,
}

/// Fault injector confined to one request: storms the VProj output of a
/// configurable block (default 0) according to a [`FaultDuration`] schedule.
pub struct StormTap {
    /// Decoder block whose VProj output is struck.
    pub block: usize,
    /// First generation step the storm can strike.
    pub target_step: usize,
    /// Strike schedule relative to `target_step`.
    pub duration: FaultDuration,
    /// Rollback attempts after which the fault heals (transient and
    /// intermittent storms model re-strikes of a fading fault; persistent
    /// storms ignore this).
    pub heal_after: u32,
    /// How a strike corrupts the output.
    pub mode: StrikeMode,
    attempts: u32,
    stormed_this_step: bool,
    /// Total strikes delivered (visible to tests).
    pub strikes: u64,
}

impl StormTap {
    /// Storm the given step once, healing after `heal_after` rollbacks.
    pub fn transient(target_step: usize, heal_after: u32) -> StormTap {
        StormTap::new(target_step, FaultDuration::Transient, heal_after)
    }

    /// Storm every step from `target_step` on, forever.
    pub fn persistent(target_step: usize) -> StormTap {
        StormTap::new(target_step, FaultDuration::Persistent, u32::MAX)
    }

    /// A single-bit upset in `block` at `target_step`, healing after one
    /// rollback: the live-injection fault of the `--web` demo.
    pub fn flip(block: usize, target_step: usize) -> StormTap {
        StormTap::new(target_step, FaultDuration::Transient, 1)
            .with_block(block)
            .with_mode(StrikeMode::BitFlip)
    }

    /// Fully parameterised constructor (block 0, add-magnitude strikes).
    pub fn new(target_step: usize, duration: FaultDuration, heal_after: u32) -> StormTap {
        StormTap {
            block: 0,
            target_step,
            duration,
            heal_after,
            mode: StrikeMode::AddMagnitude,
            attempts: 0,
            stormed_this_step: false,
            strikes: 0,
        }
    }

    /// Strike a different decoder block.
    pub fn with_block(mut self, block: usize) -> StormTap {
        self.block = block;
        self
    }

    /// Change how strikes corrupt the output.
    pub fn with_mode(mut self, mode: StrikeMode) -> StormTap {
        self.mode = mode;
        self
    }

    fn strikes_at(&self, step: usize) -> bool {
        match self.duration {
            FaultDuration::Transient => step == self.target_step && self.attempts < self.heal_after,
            FaultDuration::Intermittent { period } => {
                step >= self.target_step
                    && (step - self.target_step).is_multiple_of(period.max(1))
                    && self.attempts < self.heal_after
            }
            FaultDuration::Persistent => step >= self.target_step,
        }
    }
}

impl LayerTap for StormTap {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        if ctx.point.block != self.block
            || ctx.point.layer != LayerKind::VProj
            || ctx.hook != HookKind::LinearOutput
            || !self.strikes_at(ctx.step)
        {
            return;
        }
        match self.mode {
            StrikeMode::AddMagnitude => {
                for v in data.as_mut_slice() {
                    *v += STORM_MAGNITUDE;
                }
            }
            StrikeMode::BitFlip => {
                if let Some(v) = data.as_mut_slice().first_mut() {
                    // A finite value jumps orders of magnitude, exactly the
                    // excursion shape of a real single-bit upset — within
                    // what the storage format can hold.
                    *v = ctx.dtype.flip(*v, &[ctx.dtype.exponent_bits().1]);
                }
            }
        }
        self.stormed_this_step = true;
        self.strikes += 1;
    }

    fn end_step(&mut self, _step: usize) -> StepReport {
        let verdict = if self.stormed_this_step {
            AnomalyVerdict::Storm
        } else {
            AnomalyVerdict::Clean
        };
        let mut report = StepReport {
            verdict,
            ..StepReport::default()
        };
        if self.stormed_this_step {
            report.record_block_hit(self.block);
        }
        self.stormed_this_step = false;
        report
    }

    fn on_rollback(&mut self, _step: usize, _attempt: u32) {
        self.attempts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_storm_heals_after_rollbacks() {
        let mut tap = StormTap::transient(3, 2);
        assert!(!tap.strikes_at(2));
        assert!(tap.strikes_at(3));
        tap.on_rollback(3, 0);
        assert!(tap.strikes_at(3));
        tap.on_rollback(3, 1);
        assert!(!tap.strikes_at(3), "storm must heal after two rollbacks");
        assert!(!tap.strikes_at(4));
    }

    #[test]
    fn persistent_storm_never_heals() {
        let mut tap = StormTap::persistent(2);
        for _ in 0..16 {
            tap.on_rollback(2, 0);
        }
        assert!(tap.strikes_at(2));
        assert!(tap.strikes_at(40));
    }

    #[test]
    fn intermittent_storm_strikes_on_period() {
        let tap = StormTap::new(2, FaultDuration::Intermittent { period: 3 }, u32::MAX);
        assert!(tap.strikes_at(2));
        assert!(!tap.strikes_at(3));
        assert!(!tap.strikes_at(4));
        assert!(tap.strikes_at(5));
    }

    #[test]
    fn end_step_reports_storm_only_after_a_strike() {
        let mut tap = StormTap::transient(1, 1);
        let mut data = Matrix::zeros(1, 4);
        let ctx = TapCtx {
            point: ft2_model::hooks::TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            hook: HookKind::LinearOutput,
            step: 1,
            first_pos: 5,
            dtype: ft2_tensor::DType::F32,
        };
        tap.on_output(&ctx, &mut data);
        let report = tap.end_step(1);
        assert_eq!(report.verdict, AnomalyVerdict::Storm);
        assert_eq!(report.hit_blocks().collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(
            tap.end_step(1).verdict,
            AnomalyVerdict::Clean,
            "flag resets"
        );
        assert!(data.row(0).iter().all(|&v| v == STORM_MAGNITUDE));
    }

    #[test]
    fn flip_targets_its_block_and_flips_one_exponent_bit() {
        let mut tap = StormTap::flip(2, 1);
        let mut data = Matrix::from_vec(1, 4, vec![1.5, 1.5, 1.5, 1.5]);
        let mut ctx = TapCtx {
            point: ft2_model::hooks::TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            hook: HookKind::LinearOutput,
            step: 1,
            first_pos: 5,
            dtype: ft2_tensor::DType::F32,
        };
        // Block 0 is not the target: untouched.
        tap.on_output(&ctx, &mut data);
        assert!(data.row(0).iter().all(|&v| v == 1.5));
        assert_eq!(tap.end_step(1).verdict, AnomalyVerdict::Clean);
        // Block 2 is: exactly one element changes, by an exponent flip
        // (compare bits — depending on the value, the flip may land on a
        // non-finite encoding, which is exactly what a real SBU can do).
        ctx.point.block = 2;
        tap.on_output(&ctx, &mut data);
        assert_eq!(data.get(0, 0).to_bits(), 1.5f32.to_bits() ^ (1 << 30));
        assert!(data.row(0)[1..].iter().all(|&v| v == 1.5));
        let report = tap.end_step(1);
        assert_eq!(report.verdict, AnomalyVerdict::Storm);
        assert_eq!(report.hit_blocks().collect::<Vec<_>>(), vec![(2, 1)]);
        // Transient with heal_after=1: one rollback heals it.
        tap.on_rollback(1, 0);
        assert!(!tap.strikes_at(1));
    }

    #[test]
    fn flip_on_fp16_storage_flips_the_binary16_exponent_bit() {
        // A stored 0.5 is binary16 0x3800; an upset of its top exponent bit
        // (bit 14) gives 0x7800 = 32 768. Flipping f32 bit 30 instead would
        // write 2^127, a value no FP16 tensor can hold.
        let mut tap = StormTap::flip(0, 1);
        let mut data = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        let ctx = TapCtx {
            point: ft2_model::hooks::TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            hook: HookKind::LinearOutput,
            step: 1,
            first_pos: 5,
            dtype: ft2_tensor::DType::F16,
        };
        tap.on_output(&ctx, &mut data);
        assert_eq!(data.row(0), &[32768.0, 0.5]);
        assert_eq!(tap.end_step(1).verdict, AnomalyVerdict::Storm);
    }
}
