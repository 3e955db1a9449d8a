//! # sim-kernel
//!
//! A deterministic discrete-event simulation kernel. It is the foundation of
//! the SpotVerse reproduction: the cloud market, the compute substrate, the
//! serverless stack, and the Galaxy-like workflow engine all advance on this
//! kernel's clock and draw randomness from its forkable seeded streams.
//!
//! Design goals:
//!
//! * **Determinism** — equal-time events are delivered in scheduling order,
//!   and every stochastic component owns an independent [`SimRng`] stream
//!   forked from the experiment seed, so results are reproducible
//!   bit-for-bit and strategies can be compared on identical market
//!   trajectories.
//! * **Unit safety** — [`SimTime`] / [`SimDuration`] newtypes keep instants
//!   and spans apart (the paper mixes two-minute interruption notices with
//!   multi-day traces).
//! * **Reporting** — [`RunningStats`], [`TimeSeries`], and
//!   [`CumulativeCounter`] capture exactly the quantities the paper plots.
//! * **Interchange** — [`json`] is the workspace's one JSON codec: Galaxy
//!   `.ga` workflows are written with it, and canonical trace JSONL is
//!   both written and read with it.
//!
//! # Examples
//!
//! ```
//! use sim_kernel::{Model, Scheduler, SimDuration, SimTime, Simulation};
//!
//! /// Counts pings, re-arming itself once.
//! struct Ping(u32);
//!
//! impl Model for Ping {
//!     type Event = &'static str;
//!     fn handle(&mut self, _t: SimTime, ev: &'static str, s: &mut Scheduler<'_, &'static str>) {
//!         self.0 += 1;
//!         if ev == "first" {
//!             s.schedule_in(SimDuration::from_mins(2), "second");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ping(0));
//! sim.schedule_at(SimTime::ZERO, "first");
//! sim.run();
//! assert_eq!(sim.model().0, 2);
//! assert_eq!(sim.now(), SimTime::from_secs(120));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod event;
pub mod json;
mod rng;
mod series;
mod stats;
mod time;

pub use engine::{Model, RunOutcome, Scheduler, Simulation};
pub use event::EventQueue;
pub use rng::{keyed_hash, SimRng};
pub use series::{CumulativeCounter, TimeSeries};
pub use stats::RunningStats;
pub use time::{SimDuration, SimTime};
