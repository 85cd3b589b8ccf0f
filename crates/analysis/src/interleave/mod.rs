//! A miniature deterministic scheduler ("mini-loom") for exhaustively
//! exploring thread interleavings of small concurrency models.
//!
//! Real stress tests only see the schedules the OS happens to produce;
//! the bugs this project cares about — lost condvar wakeups in the
//! `CryptoEngine` job queue, IV reuse across NACK-resend/rekey races in
//! the ARQ link — hide in schedules that may never occur on a fast
//! machine. This module takes the opposite approach: a model is a small
//! state machine whose *enabled actions* are its yield points, and the
//! [`Explorer`] runs depth-first over every possible action order,
//! checking the model's invariant after each step and its completion
//! condition at every terminal state. A schedule that deadlocks (no
//! enabled action, not terminal) is an error too — that is exactly what
//! a lost wakeup looks like.
//!
//! Models live in [`engine_model`] (the crypto job queue: condvar
//! wakeups, gang latch, submitter-help), [`link_model`] (the ARQ
//! link: NACK-reseal racing rekey racing the resend sweep), and
//! [`supervisor_model`] (worker death racing injection, checkpointing,
//! duplicate inputs and failover readmission with recovery by
//! recomputation: no schedule may reuse an IV across a failover, roll a
//! barrier backwards, or lose an admitted session).
//! Each comes with deliberately-buggy variants proving the explorer
//! actually detects the bug class it exists to prevent.

pub mod engine_model;
pub mod link_model;
pub mod supervisor_model;

/// A concurrency model explorable by the [`Explorer`].
///
/// `actions()` returns the currently-enabled atomic steps; `apply()`
/// performs one. Atomicity granularity is the model's choice — each
/// action is one "instruction" between yield points.
pub trait Model: Clone {
    /// Enabled actions in the current state. Empty + non-terminal is a
    /// deadlock.
    fn actions(&self) -> Vec<Action>;
    /// Applies one action returned by [`Model::actions`].
    fn apply(&mut self, action: &Action);
    /// Whether the state is a valid end state (all threads done).
    fn is_terminal(&self) -> bool;
    /// Safety invariant, checked after every step. `Err` is a bug plus
    /// its description.
    fn invariant(&self) -> Result<(), String>;
    /// Completion condition, checked at every terminal state (e.g. "all
    /// submitted jobs executed exactly once").
    fn on_complete(&self) -> Result<(), String> {
        Ok(())
    }
}

/// One schedulable step: which logical thread moves and what it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// Logical thread id within the model.
    pub thread: usize,
    /// Human-readable step name, used in counterexample traces.
    pub name: &'static str,
    /// Optional operand (a frame index, a waiter id, …).
    pub arg: usize,
}

impl Action {
    /// An action with no operand.
    pub fn new(thread: usize, name: &'static str) -> Action {
        Action {
            thread,
            name,
            arg: 0,
        }
    }

    /// An action with an operand.
    pub fn with_arg(thread: usize, name: &'static str, arg: usize) -> Action {
        Action { thread, name, arg }
    }
}

/// Outcome statistics of a successful exploration.
#[derive(Debug, Clone, Copy)]
pub struct Exploration {
    /// Number of distinct complete schedules explored.
    pub schedules: usize,
    /// Length of the longest schedule.
    pub max_depth: usize,
    /// Total actions applied across all schedules.
    pub steps: usize,
}

/// Why an exploration failed, with the offending schedule.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The model's invariant fired mid-schedule.
    Invariant {
        /// The action sequence that reached the bad state.
        trace: Vec<Action>,
        /// The invariant's description of what broke.
        message: String,
    },
    /// No action enabled in a non-terminal state (e.g. lost wakeup).
    Deadlock {
        /// The action sequence that reached the stuck state.
        trace: Vec<Action>,
    },
    /// A terminal state failed the completion condition.
    Incomplete {
        /// The action sequence of the completed schedule.
        trace: Vec<Action>,
        /// What was left undone.
        message: String,
    },
    /// The exploration exceeded its schedule budget — the model is too
    /// big, not buggy.
    BudgetExceeded {
        /// Schedules completed before giving up.
        schedules: usize,
    },
}

impl Violation {
    /// The counterexample schedule, rendered one action per line.
    pub fn render_trace(&self) -> String {
        let (header, trace) = match self {
            Violation::Invariant { trace, message } => {
                (format!("invariant violated: {message}"), trace.as_slice())
            }
            Violation::Deadlock { trace } => (
                "deadlock (possible lost wakeup)".to_string(),
                trace.as_slice(),
            ),
            Violation::Incomplete { trace, message } => (
                format!("incomplete terminal state: {message}"),
                trace.as_slice(),
            ),
            Violation::BudgetExceeded { schedules } => {
                return format!("schedule budget exceeded after {schedules} schedules");
            }
        };
        let mut out = header;
        out.push('\n');
        for (i, a) in trace.iter().enumerate() {
            out.push_str(&format!(
                "  {:>3}. t{} {}({})\n",
                i + 1,
                a.thread,
                a.name,
                a.arg
            ));
        }
        out
    }
}

/// Exhaustive DFS over a model's schedules.
pub struct Explorer {
    /// Hard cap on completed schedules; exceeding it is an error so a
    /// model that accidentally blows up is caught rather than hanging CI.
    pub max_schedules: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_schedules: 2_000_000,
        }
    }
}

impl Explorer {
    /// Explores every schedule of `model`. Returns statistics, or the
    /// first violation with its counterexample trace.
    pub fn explore<M: Model>(&self, model: &M) -> Result<Exploration, Violation> {
        let mut stats = Exploration {
            schedules: 0,
            max_depth: 0,
            steps: 0,
        };
        let mut trace = Vec::new();
        self.dfs(model, &mut trace, &mut stats)?;
        Ok(stats)
    }

    fn dfs<M: Model>(
        &self,
        state: &M,
        trace: &mut Vec<Action>,
        stats: &mut Exploration,
    ) -> Result<(), Violation> {
        if let Err(message) = state.invariant() {
            return Err(Violation::Invariant {
                trace: trace.clone(),
                message,
            });
        }
        if state.is_terminal() {
            if let Err(message) = state.on_complete() {
                return Err(Violation::Incomplete {
                    trace: trace.clone(),
                    message,
                });
            }
            stats.schedules += 1;
            stats.max_depth = stats.max_depth.max(trace.len());
            if stats.schedules > self.max_schedules {
                return Err(Violation::BudgetExceeded {
                    schedules: stats.schedules,
                });
            }
            return Ok(());
        }
        let actions = state.actions();
        if actions.is_empty() {
            return Err(Violation::Deadlock {
                trace: trace.clone(),
            });
        }
        for action in actions {
            let mut next = state.clone();
            next.apply(&action);
            stats.steps += 1;
            trace.push(action);
            self.dfs(&next, trace, stats)?;
            trace.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a shared counter twice, non-atomically
    /// (read then write). The racy variant loses updates; the atomic one
    /// does not. This validates the explorer itself.
    #[derive(Clone)]
    struct Counter {
        atomic: bool,
        counter: u32,
        // Per thread: increments left, and a pending read (racy mode).
        left: [u32; 2],
        pending: [Option<u32>; 2],
    }

    impl Counter {
        fn new(atomic: bool) -> Counter {
            Counter {
                atomic,
                counter: 0,
                left: [2, 2],
                pending: [None, None],
            }
        }
    }

    impl Model for Counter {
        fn actions(&self) -> Vec<Action> {
            let mut acts = Vec::new();
            for t in 0..2 {
                if self.pending[t].is_some() {
                    acts.push(Action::new(t, "write"));
                } else if self.left[t] > 0 {
                    acts.push(Action::new(t, if self.atomic { "incr" } else { "read" }));
                }
            }
            acts
        }

        fn apply(&mut self, a: &Action) {
            let t = a.thread;
            match a.name {
                "incr" => {
                    self.counter += 1;
                    self.left[t] -= 1;
                }
                "read" => self.pending[t] = Some(self.counter),
                "write" => {
                    self.counter = self.pending[t].take().expect("read precedes write") + 1;
                    self.left[t] -= 1;
                }
                other => panic!("unknown action {other}"),
            }
        }

        fn is_terminal(&self) -> bool {
            self.left == [0, 0] && self.pending == [None, None]
        }

        fn invariant(&self) -> Result<(), String> {
            Ok(())
        }

        fn on_complete(&self) -> Result<(), String> {
            if self.counter == 4 {
                Ok(())
            } else {
                Err(format!("lost update: counter = {} != 4", self.counter))
            }
        }
    }

    #[test]
    fn atomic_counter_passes_all_schedules() {
        let stats = Explorer::default()
            .explore(&Counter::new(true))
            .expect("atomic counter is race-free");
        // 4 interleaved increments of 2+2: C(4,2) = 6 schedules.
        assert_eq!(stats.schedules, 6);
        assert_eq!(stats.max_depth, 4);
    }

    #[test]
    fn racy_counter_is_caught_with_a_trace() {
        let err = Explorer::default()
            .explore(&Counter::new(false))
            .expect_err("read/write race must lose an update in some schedule");
        match &err {
            Violation::Incomplete { message, trace } => {
                assert!(message.contains("lost update"), "{message}");
                assert!(!trace.is_empty());
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
        assert!(err.render_trace().contains("lost update"));
    }

    #[test]
    fn deadlock_is_reported() {
        #[derive(Clone)]
        struct Stuck;
        impl Model for Stuck {
            fn actions(&self) -> Vec<Action> {
                Vec::new()
            }
            fn apply(&mut self, _: &Action) {}
            fn is_terminal(&self) -> bool {
                false
            }
            fn invariant(&self) -> Result<(), String> {
                Ok(())
            }
        }
        let err = Explorer::default().explore(&Stuck).expect_err("stuck");
        assert!(matches!(err, Violation::Deadlock { .. }));
    }
}
