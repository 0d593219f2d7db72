//! Replica-scoped fault injection for the cross-replica failover runtime.
//!
//! Where [`crate::site`] strikes one neuron computation and
//! [`crate::shard`] strikes one fault-isolation domain, this module
//! strikes one *replica* of a replicated serving deployment: the whole
//! process crashes mid-step, stops making progress (hang), or degenerates
//! into an activation storm that poisons every request routed to it. The
//! strike schedule reuses the fault-duration taxonomy
//! ([`FaultDuration`]): a transient fault strikes once, an intermittent
//! fault re-strikes on a period, and a persistent fault strikes every
//! step from its onset — the case that forces the health state machine to
//! keep the replica out of rotation.

use crate::model::FaultDuration;

/// Which replica-level failure mode to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaFaultKind {
    /// The replica panics mid-step (process-crash analogue). Its KV state
    /// is lost; in-flight requests must fail over with their accepted
    /// tokens intact.
    Crash,
    /// The replica stops making progress mid-step; the heartbeat monitor
    /// cancels the stale beat and the step is aborted with a typed
    /// [`ReplicaHangAbort`] payload. Degrades to an immediate abort when
    /// the watchdog is disabled, so injection always stays bounded.
    Hang,
    /// Every tap-less request routed to the replica is served under a
    /// persistent activation storm (degenerate-replica analogue): the
    /// per-request ladder evicts them and the error-rate breaker
    /// quarantines the replica.
    ActStorm,
}

/// A scheduled replica fault: `kind` strikes replica `replica` on the
/// replica's own step counter, starting at `at_step`, recurring per the
/// fault-duration taxonomy.
#[derive(Debug)]
pub struct ReplicaFaultSpec {
    /// Target replica index.
    pub replica: usize,
    /// Failure mode to inject.
    pub kind: ReplicaFaultKind,
    /// First replica step the fault can strike.
    pub at_step: u64,
    /// Strike schedule relative to `at_step`.
    pub duration: FaultDuration,
    strikes: u64,
}

impl ReplicaFaultSpec {
    /// Fully parameterised constructor.
    pub fn new(
        replica: usize,
        kind: ReplicaFaultKind,
        at_step: u64,
        duration: FaultDuration,
    ) -> ReplicaFaultSpec {
        ReplicaFaultSpec {
            replica,
            kind,
            at_step,
            duration,
            strikes: 0,
        }
    }

    /// A fault that strikes exactly once, at `at_step`.
    pub fn transient(replica: usize, kind: ReplicaFaultKind, at_step: u64) -> ReplicaFaultSpec {
        ReplicaFaultSpec::new(replica, kind, at_step, FaultDuration::Transient)
    }

    /// A fault that strikes every step from `at_step` on.
    pub fn persistent(replica: usize, kind: ReplicaFaultKind, at_step: u64) -> ReplicaFaultSpec {
        ReplicaFaultSpec::new(replica, kind, at_step, FaultDuration::Persistent)
    }

    /// Strikes delivered so far.
    pub fn strikes(&self) -> u64 {
        self.strikes
    }

    /// Would the fault strike `replica` at that replica's `step`?
    /// Non-consuming probe — routers use it to decide whether a replica is
    /// currently degenerate without spending the strike.
    pub fn due_at(&self, replica: usize, step: u64) -> bool {
        if replica != self.replica {
            return false;
        }
        match self.duration {
            FaultDuration::Transient => step == self.at_step && self.strikes == 0,
            FaultDuration::Intermittent { period } => {
                step >= self.at_step && (step - self.at_step).is_multiple_of(period.max(1) as u64)
            }
            FaultDuration::Persistent => step >= self.at_step,
        }
    }

    /// Does the fault strike `replica` at that replica's `step`? A strike
    /// is recorded, so a transient fault fires exactly once.
    pub fn strike_due(&mut self, replica: usize, step: u64) -> bool {
        let due = self.due_at(replica, step);
        if due {
            self.strikes += 1;
        }
        due
    }
}

/// Typed panic payload for a replica step aborted by the heartbeat
/// monitor: the failover router downcasts the caught panic to classify it
/// as a hang (watchdog abort) rather than a crash.
#[derive(Debug)]
pub struct ReplicaHangAbort {
    /// Heartbeat slot / replica index that hung.
    pub replica: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_strikes_exactly_once() {
        let mut f = ReplicaFaultSpec::transient(1, ReplicaFaultKind::Crash, 3);
        assert!(!f.strike_due(1, 2));
        assert!(!f.strike_due(0, 3), "wrong replica never strikes");
        assert!(f.strike_due(1, 3));
        assert!(!f.strike_due(1, 3), "transient fault fires once");
        assert!(!f.strike_due(1, 4));
        assert_eq!(f.strikes(), 1);
    }

    #[test]
    fn intermittent_fault_strikes_on_period() {
        let mut f = ReplicaFaultSpec::new(
            0,
            ReplicaFaultKind::Hang,
            2,
            FaultDuration::Intermittent { period: 3 },
        );
        assert!(f.strike_due(0, 2));
        assert!(!f.strike_due(0, 3));
        assert!(!f.strike_due(0, 4));
        assert!(f.strike_due(0, 5));
        assert_eq!(f.strikes(), 2);
    }

    #[test]
    fn persistent_fault_strikes_every_step_from_onset() {
        let mut f = ReplicaFaultSpec::persistent(2, ReplicaFaultKind::ActStorm, 1);
        assert!(!f.strike_due(2, 0));
        for step in 1..6 {
            assert!(f.strike_due(2, step), "step {step}");
        }
        assert_eq!(f.strikes(), 5);
    }
}
