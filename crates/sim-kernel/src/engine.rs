//! The simulation engine: drives a [`Model`] by delivering events in time
//! order until the queue drains or a horizon is reached.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event model.
///
/// The engine owns the clock and queue; the model reacts to each event and
/// may schedule further events through the [`Scheduler`] it is handed.
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Reacts to `event` occurring at `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, scheduler: &mut Scheduler<'_, Self::Event>);
}

/// Scheduling capability handed to [`Model::handle`].
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule_in(self.now, delay, event)
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current instant; time travel would break
    /// determinism.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "schedule_at: {at} precedes current time {}",
            self.now
        );
        self.queue.schedule(at, event)
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    Drained,
    /// The model requested an early stop (via [`Simulation::run_until`]'s
    /// predicate).
    Stopped,
}

/// A running simulation: clock + queue + model.
///
/// # Examples
///
/// ```
/// use sim_kernel::{Model, RunOutcome, Scheduler, SimDuration, SimTime, Simulation};
///
/// struct Counter(u32);
///
/// impl Model for Counter {
///     type Event = ();
///     fn handle(&mut self, _now: SimTime, _ev: (), s: &mut Scheduler<'_, ()>) {
///         self.0 += 1;
///         if self.0 < 3 {
///             s.schedule_in(SimDuration::from_secs(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter(0));
/// sim.schedule_at(SimTime::ZERO, ());
/// assert_eq!(sim.run(), RunOutcome::Drained);
/// assert_eq!(sim.model().0, 3);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
#[derive(Debug)]
pub struct Simulation<M: Model> {
    queue: EventQueue<M::Event>,
    model: M,
    now: SimTime,
    delivered: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at the epoch with an empty queue.
    pub fn new(model: M) -> Self {
        Simulation {
            queue: EventQueue::new(),
            model,
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an initial event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the current instant.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "schedule_at precedes current time");
        self.queue.schedule(at, event)
    }

    /// Delivers a single event, if one is pending. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue went backwards");
                self.now = time;
                self.delivered += 1;
                let mut scheduler = Scheduler {
                    queue: &mut self.queue,
                    now: self.now,
                };
                self.model.handle(time, event, &mut scheduler);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) -> RunOutcome {
        while self.step() {}
        RunOutcome::Drained
    }

    /// Runs until the queue drains or `stop` returns `true` (checked after
    /// each delivered event).
    pub fn run_until<F>(&mut self, mut stop: F) -> RunOutcome
    where
        F: FnMut(&M) -> bool,
    {
        loop {
            if !self.step() {
                return RunOutcome::Drained;
            }
            if stop(&self.model) {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, s: &mut Scheduler<'_, u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                // Chain an event two seconds later.
                s.schedule_in(SimDuration::from_secs(2), 99);
            }
        }
    }

    #[test]
    fn events_deliver_in_order_and_chain() {
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
        sim.schedule_at(SimTime::from_secs(5), 2);
        sim.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(
            sim.model().seen,
            vec![
                (SimTime::from_secs(1), 1),
                (SimTime::from_secs(3), 99),
                (SimTime::from_secs(5), 2)
            ]
        );
        assert_eq!(sim.events_delivered(), 3);
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
        for i in 0..10 {
            sim.schedule_at(SimTime::from_secs(i), 0);
        }
        let out = sim.run_until(|m| m.seen.len() == 4);
        assert_eq!(out, RunOutcome::Stopped);
        assert_eq!(sim.model().seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "schedule_at")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
        sim.schedule_at(SimTime::from_secs(10), 1);
        sim.step();
        // now == 10; scheduling at 3 must panic.
        sim.schedule_at(SimTime::from_secs(3), 1);
    }
}
