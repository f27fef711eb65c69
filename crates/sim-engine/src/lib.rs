//! # netbatch-sim-engine
//!
//! A deterministic discrete-event simulation kernel, built as the substrate
//! for reproducing *"On the Feasibility of Dynamic Rescheduling on the Intel
//! Distributed Computing Platform"* (Middleware 2010). The paper's
//! evaluation runs on ASCA, Intel's in-house hybrid event/agent-based
//! simulator; this crate provides the equivalent open kernel:
//!
//! * a minute-resolution virtual clock ([`time::SimTime`]) — the unit every
//!   metric in the paper is reported in;
//! * a cancellable, deterministically tie-broken future-event set
//!   ([`queue::EventQueue`]);
//! * an event loop that runs until the queue and the arrival stream are
//!   both drained ([`executor::Executor`]);
//! * per-minute sampling cadence helpers ([`sampler::PeriodicSampler`]),
//!   mirroring ASCA's "sample each minute, aggregate per 100 minutes"
//!   methodology;
//! * reproducible, splittable randomness ([`rng::DetRng`]);
//! * a keyless integer hasher for id-keyed lookup maps
//!   ([`hash::IntMap`]).
//!
//! Everything upstream (cluster model, workloads, policies) is pure logic on
//! top of these primitives, which is what makes whole-trace simulations
//! bit-for-bit reproducible from a seed.
//!
//! ## Example
//!
//! ```
//! use netbatch_sim_engine::prelude::*;
//!
//! struct Ping(u32);
//! impl Handler for Ping {
//!     type Event = &'static str;
//!     fn handle(
//!         &mut self,
//!         now: SimTime,
//!         event: &'static str,
//!         sched: &mut Scheduler<'_, &'static str>,
//!     ) {
//!         assert_eq!(event, "ping");
//!         self.0 += 1;
//!         if self.0 < 5 {
//!             sched.schedule_in(SimDuration::HOUR, "ping");
//!         }
//!     }
//! }
//!
//! let mut ex = Executor::new();
//! ex.seed_event(SimTime::ZERO, "ping");
//! let mut ping = Ping(0);
//! let stats = ex.run(&mut ping);
//! assert_eq!(ping.0, 5);
//! assert_eq!(stats.end_time, SimTime::from_minutes(4 * 60));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epoch;
pub mod executor;
pub mod hash;
pub mod observe;
pub mod queue;
pub mod rng;
pub mod sampler;
pub mod time;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::executor::{Executor, Handler, RunStats, Scheduler};
    pub use crate::observe::EventLabel;
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rng::DetRng;
    pub use crate::sampler::PeriodicSampler;
    pub use crate::time::{SimDuration, SimTime};
}
