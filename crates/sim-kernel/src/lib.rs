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
//! * **Interchange** — [`json`] holds the workspace's one JSON reader and
//!   its one string escaper: canonical trace JSONL is read with the
//!   reader, and every string written into trace lines, analysis reports
//!   and Galaxy `.ga` workflows goes through the escaper.
//!
//! # Examples
//!
//! A model owns its [`EventQueue`] and pops it until the queue drains,
//! scheduling further events as it reacts to each one:
//!
//! ```
//! use sim_kernel::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, "first");
//! let mut pings = 0;
//! let mut clock = SimTime::ZERO;
//! while let Some((now, event)) = queue.pop() {
//!     pings += 1;
//!     clock = now;
//!     if event == "first" {
//!         queue.schedule_in(now, SimDuration::from_mins(2), "second");
//!     }
//! }
//! assert_eq!(pings, 2);
//! assert_eq!(clock, SimTime::from_secs(120));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
pub mod json;
mod rng;
mod series;
mod stats;
mod time;

pub use event::EventQueue;
pub use rng::{keyed_hash, SimRng};
pub use series::{CumulativeCounter, TimeSeries};
pub use stats::RunningStats;
pub use time::{SimDuration, SimTime};
