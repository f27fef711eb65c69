//! # netbatch-cluster
//!
//! The NetBatch cluster model for the Middleware 2010 dynamic-rescheduling
//! reproduction: typed ids, priorities with host-level preemption, job
//! lifecycle accounting, machines, physical pools with wait queues, and
//! snapshot views for load-aware policies.
//!
//! This crate is **pure mechanism**: it implements the dispatch and
//! preemption protocol of the paper's §2.1–2.2 (first-eligible-machine
//! dispatch, suspend-in-place preemption, resume-on-free, bounce-back when
//! ineligible) but contains no scheduling *policy*. Initial schedulers and
//! rescheduling strategies live in `netbatch-core` and drive pools through
//! the [`pool::PhysicalPool`] API.
//!
//! ## Example
//!
//! ```
//! use netbatch_cluster::job::JobSpec;
//! use netbatch_cluster::pool::{PhysicalPool, PoolAction, PoolConfig, SubmitKind};
//! use netbatch_cluster::priority::Priority;
//! use netbatch_sim_engine::time::{SimDuration, SimTime};
//!
//! let mut pool = PhysicalPool::new(PoolConfig::uniform(0.into(), 1, 1, 4096));
//! let mut actions = Vec::new();
//! let low = JobSpec::new(1.into(), SimTime::ZERO, SimDuration::from_hours(2));
//! assert_eq!(pool.submit_into(SimTime::ZERO, &low, &mut actions), SubmitKind::Dispatched);
//!
//! // A high-priority arrival preempts the low-priority job in place.
//! actions.clear();
//! let high = JobSpec::new(2.into(), SimTime::ZERO, SimDuration::from_hours(1))
//!     .with_priority(Priority::HIGH);
//! let out = pool.submit_into(SimTime::from_minutes(10), &high, &mut actions);
//! assert_eq!(out, SubmitKind::Dispatched);
//! assert!(matches!(actions[0], PoolAction::Suspended { job, .. } if job == 1.into()));
//! assert_eq!(pool.suspended_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod ids;
pub mod index;
pub mod job;
pub mod machine;
pub mod pool;
pub mod priority;
pub mod snapshot;
mod wait_queue;

pub use ids::{JobId, MachineId, PoolId, TaskId};
pub use index::{AvailabilityIndex, MinMultiset};
pub use job::{JobPhase, JobRecord, JobSpec, PhaseError, PoolAffinity, Resources};
pub use machine::{Machine, MachineConfig};
pub use pool::{PhysicalPool, PoolAction, PoolConfig, PoolStats, SubmitKind, WaitEntry};
pub use priority::Priority;
pub use snapshot::{ClusterSnapshot, PoolSnapshot};
