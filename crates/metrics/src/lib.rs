//! # netbatch-metrics
//!
//! The measurement substrate for the NetBatch dynamic-rescheduling
//! reproduction: everything needed to compute and present the paper's
//! metrics.
//!
//! * [`summary`] — streaming (Welford) and retained sample statistics;
//! * [`cdf`] — empirical CDFs with log-x series (Figure 2);
//! * [`histogram`] — logarithmic histograms for heavy-tailed durations;
//! * [`timeseries`] — per-minute sampling with 100-minute aggregation
//!   (Figure 4), retained or folded online;
//! * [`spans`] — begin/end lifecycle span matching feeding per-phase
//!   latency histograms (the telemetry layer's span engine);
//! * [`export`] — Prometheus-style text exposition rendering and a
//!   sanity parser for it;
//! * [`json`] — a small hand-written JSON parser for reading the
//!   simulator's hand-rendered artifacts back (trace tooling, CI checks);
//! * [`waste`] — the AvgWCT decomposition into wait / suspend / rescheduling
//!   waste (Figure 3, Tables 1–5);
//! * [`table`] — plain-text and markdown table rendering for the harness.
//!
//! ## Example
//!
//! ```
//! use netbatch_metrics::cdf::Cdf;
//!
//! // Suspension times in minutes.
//! let cdf: Cdf = [30.0, 437.0, 905.0, 1500.0, 120.0].into_iter().collect();
//! assert_eq!(cdf.median(), Some(437.0));
//! assert!(cdf.at(1100.0) > 0.5);
//! ```

#![warn(missing_docs)]

pub mod cdf;
pub mod export;
pub mod histogram;
pub mod json;
pub mod spans;
pub mod summary;
pub mod table;
pub mod timeseries;
pub mod waste;

pub use cdf::Cdf;
pub use export::{MetricKind, PromWriter};
pub use histogram::LogHistogram;
pub use spans::SpanCollector;
pub use summary::{OnlineStats, SampleSet};
pub use table::{Align, Table};
pub use timeseries::{BucketMeans, SeriesStats, TimeSeries};
pub use waste::WasteBreakdown;
