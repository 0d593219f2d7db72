//! The recovery ladder: retry → repair → give up, decided in one place.
//!
//! Three hosts climb it, each over its own *unit* of work — the generation
//! loop over one step ([`crate::engine::Model::generate_resilient`], dense
//! or sharded), the sharded executor over one linear's fan-out
//! ([`crate::shard`]), the serving scheduler over one lane's decode step
//! (`ft2-serve`). A unit that
//! fails its check (a storm verdict, a crashed / hung / anomalous partial)
//! asks its [`Ladder`] what to do next, and the answer depends on nothing
//! but how often the unit has failed in a row:
//!
//! | consecutive failure | `budget` not yet spent | spent, `can_repair`, not yet repaired | otherwise |
//! | --- | --- | --- | --- |
//! | [`Ladder::fail`] returns | [`Rung::Retry`] | [`Rung::Repair`] (once per unit) | [`Rung::GiveUp`] |
//!
//! so `budget = 2, can_repair = true` reads `Retry{0} Retry{1} Repair{2}
//! GiveUp GiveUp …`, and `budget = 0, can_repair = false` — a disabled
//! policy — gives up at once. [`Ladder::pass`] (the unit was accepted)
//! starts the sequence over.
//!
//! The ladder is passive: it owns the order of the rungs, the budget, the
//! one-repair-per-unit rule, the `attempt` numbering handed to
//! `on_rollback`, and the reset — not what a rung *does*. Rolling back,
//! sweeping stored state and re-running stay with the host, and so does
//! what giving up *means*, because that differs for a reason: the engine
//! accepts the token and flags the generation, the scheduler evicts the
//! lane, the fan-out aborts the pass and degrades or fails the generation.

/// What a host does about a failed unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Roll the unit back and run it again.
    Retry {
        /// Re-runs of this unit before this one (0-based) — the `attempt`
        /// the taps' `on_rollback` escalates on.
        attempt: u32,
    },
    /// The retry budget is spent: roll back, repair stored state, and run
    /// the unit once more. Taken at most once per unit.
    Repair {
        /// Re-runs of this unit before this one; continues the
        /// [`Rung::Retry`] numbering.
        attempt: u32,
    },
    /// Nothing left to try.
    GiveUp,
}

/// The state of one unit's climb. See the module docs for the table.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    budget: u32,
    can_repair: bool,
    /// Re-runs granted to the current unit. The repair is the re-run
    /// numbered `budget`, which is what makes it one per unit.
    spent: u32,
}

impl Ladder {
    /// A ladder granting `budget` plain re-runs per unit and, when
    /// `can_repair`, one repair-and-re-run above them.
    pub fn new(budget: u32, can_repair: bool) -> Ladder {
        Ladder {
            budget,
            can_repair,
            spent: 0,
        }
    }

    /// The unit failed its check: the rung to take.
    pub fn fail(&mut self) -> Rung {
        let attempt = self.spent;
        let rung = if attempt < self.budget {
            Rung::Retry { attempt }
        } else if attempt == self.budget && self.can_repair {
            Rung::Repair { attempt }
        } else {
            return Rung::GiveUp;
        };
        self.spent += 1;
        rung
    }

    /// The unit was accepted: the next one starts from the bottom rung.
    pub fn pass(&mut self) {
        self.spent = 0;
    }

    /// Re-runs granted to the current unit so far (retries plus the
    /// repair).
    pub fn spent(&self) -> u32 {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the table in the module docs says `fails` consecutive failures
    /// return, as a function of the failure's index alone.
    fn expected(budget: u32, can_repair: bool, fails: u32) -> Vec<Rung> {
        (0..fails)
            .map(|i| match i {
                i if i < budget => Rung::Retry { attempt: i },
                i if i == budget && can_repair => Rung::Repair { attempt: i },
                _ => Rung::GiveUp,
            })
            .collect()
    }

    #[test]
    fn every_budget_repair_and_failure_count_gives_the_tabled_sequence() {
        // The oracle itself, pinned on the module docs' example.
        assert_eq!(
            expected(2, true, 5),
            [
                Rung::Retry { attempt: 0 },
                Rung::Retry { attempt: 1 },
                Rung::Repair { attempt: 2 },
                Rung::GiveUp,
                Rung::GiveUp,
            ]
        );
        for budget in 0..=3u32 {
            for can_repair in [false, true] {
                for fails in 0..=6u32 {
                    let mut ladder = Ladder::new(budget, can_repair);
                    let case = format!("budget {budget}, repair {can_repair}, {fails} failures");
                    // Twice: `pass()` must leave a ladder that climbs
                    // exactly like a new one.
                    for round in 0..2 {
                        assert_eq!(ladder.spent(), 0, "{case}, round {round}");
                        let got: Vec<Rung> = (0..fails).map(|_| ladder.fail()).collect();
                        assert_eq!(
                            got,
                            expected(budget, can_repair, fails),
                            "{case}, round {round}"
                        );
                        let repairs = got
                            .iter()
                            .filter(|r| matches!(r, Rung::Repair { .. }))
                            .count();
                        assert!(repairs <= 1, "{case}: {repairs} repairs in one unit");
                        let granted = got.iter().filter(|r| **r != Rung::GiveUp).count() as u32;
                        assert_eq!(granted, fails.min(budget + u32::from(can_repair)), "{case}");
                        assert_eq!(ladder.spent(), granted, "{case}, round {round}");
                        ladder.pass();
                    }
                }
            }
        }
    }
}
