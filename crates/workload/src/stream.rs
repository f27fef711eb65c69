//! Lazy, pull-based trace generation.
//!
//! [`TraceStream`] is the workload generator: it merges every stream's
//! arrival cursor into one record sequence in canonical order, holding only
//! O(streams) state — one arrival cursor and one pending arrival per
//! stream. [`WorkloadSpec::generate`] materializes a trace by draining it,
//! so materialized and streaming runs read one generator by construction.
//! Streaming is what lets year-scale runs keep memory flat and what lets
//! the streaming kernel move generation out of the coordinator's serial
//! section: each shard builds a [`TraceStream`] filtered to its own pools'
//! streams and pulls arrivals epoch by epoch.

use netbatch_cluster::job::PoolAffinity;
use netbatch_sim_engine::rng::DetRng;

use crate::generator::{Stream, WorkloadSpec};
use crate::trace::TraceRecord;

/// Task-id stride per stream: task ids are partitioned per stream so
/// classes never share a task id.
const TASK_STRIDE: u32 = 1 << 24;

impl Stream {
    /// The single pool this stream is pinned to, if its affinity is a
    /// one-pool set. Shard-local generation requires every stream
    /// to be pinned so a stream's jobs never leave its owning shard.
    pub fn pinned_pool(&self) -> Option<u16> {
        match &self.class.affinity {
            PoolAffinity::Subset(pools) if pools.len() == 1 => Some(pools[0].as_u16()),
            _ => None,
        }
    }
}

impl WorkloadSpec {
    /// Checks the pool-decomposition contract required by shard-local
    /// streaming generation: every stream pinned to exactly one valid pool,
    /// with pinned pools non-decreasing across stream index. The monotone
    /// order makes pool-major traversal identical to stream-major
    /// traversal, so streaming job ids match the materialized trace's dense
    /// submission-order ids exactly.
    pub fn validate_pool_major(&self, pool_count: u16) -> Result<(), String> {
        let mut last_pool = 0u16;
        for (i, stream) in self.streams.iter().enumerate() {
            let pool = stream.pinned_pool().ok_or_else(|| {
                format!("stream {i} is not pinned to a single pool (streaming needs a one-pool affinity)")
            })?;
            if pool >= pool_count {
                return Err(format!(
                    "stream {i} is pinned to pool {pool}, but the site has {pool_count} pools"
                ));
            }
            if pool < last_pool {
                return Err(format!(
                    "stream {i} (pool {pool}) breaks the non-decreasing pool order \
                     required for dense streaming job ids"
                ));
            }
            last_pool = pool;
        }
        Ok(())
    }
}

/// One stream's lazy generation state.
struct Lane {
    /// Index of this stream in the spec (the RNG substream index).
    stream_idx: usize,
    cursor: Box<dyn Iterator<Item = u64> + Send>,
    job_rng: DetRng,
    /// Next arrival minute not yet emitted, if any.
    pending: Option<u64>,
    /// Per-stream record sequence number (drives task grouping).
    seq: u64,
    task_base: u32,
}

/// A lazy iterator over a workload's trace records in canonical order,
/// each with its stream index.
///
/// Canonical order is (submit minute, stream index, per-stream sequence).
/// Job-attribute draws happen at emission time, so pulling is what pays
/// the generation cost — one record at a time.
pub struct TraceStream<'a> {
    spec: &'a WorkloadSpec,
    lanes: Vec<Lane>,
}

impl<'a> TraceStream<'a> {
    /// Streams every lane of the workload.
    pub fn new(spec: &'a WorkloadSpec, seed: u64) -> Self {
        Self::filtered(spec, seed, |_| true)
    }

    /// Streams only the lanes whose stream index passes `keep` — the
    /// shard-local view. Kept lanes draw from the same RNG substreams they
    /// would in a full run, so a filtered stream is the exact subsequence
    /// of the full stream.
    pub fn filtered(
        spec: &'a WorkloadSpec,
        seed: u64,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Self {
        let root = DetRng::from_seed_u64(seed);
        let lanes = spec
            .streams
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(i, stream)| {
                let arr_rng = root.stream_indexed("arrivals", i as u64);
                let job_rng = root.stream_indexed("jobs", i as u64);
                let mut cursor = stream.arrivals.cursor(arr_rng, spec.start, spec.end);
                let pending = cursor.next();
                Lane {
                    stream_idx: i,
                    cursor,
                    job_rng,
                    pending,
                    seq: 0,
                    task_base: (i as u32) * TASK_STRIDE,
                }
            })
            .collect();
        TraceStream { spec, lanes }
    }

    /// The minute of the next record, or `None` when exhausted.
    pub fn peek_minute(&self) -> Option<u64> {
        self.lanes.iter().filter_map(|l| l.pending).min()
    }

    /// Drains every record at the given minute (in canonical order) into
    /// `out`. Returns the number of records drained.
    pub fn drain_minute(&mut self, minute: u64, out: &mut Vec<TraceRecord>) -> usize {
        let mut n = 0;
        while self.peek_minute() == Some(minute) {
            let (_, rec) = self.next().expect("peeked record");
            out.push(rec);
            n += 1;
        }
        n
    }
}

impl Iterator for TraceStream<'_> {
    type Item = (usize, TraceRecord);

    fn next(&mut self) -> Option<(usize, TraceRecord)> {
        // The earliest pending lane; `min_by_key` keeps the first of equal
        // minutes, so ties break toward the lowest stream index.
        let lane = self
            .lanes
            .iter_mut()
            .filter(|l| l.pending.is_some())
            .min_by_key(|l| l.pending)?;
        let minute = lane.pending.expect("filtered to pending lanes");
        let class = &self.spec.streams[lane.stream_idx].class;
        let record = class.instantiate(&mut lane.job_rng, lane.seq, minute, lane.task_base);
        lane.seq += 1;
        lane.pending = lane.cursor.next();
        Some((lane.stream_idx, record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::Constant;
    use crate::generator::{BurstArrivals, JobClass, PoissonArrivals};

    fn pinned_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(0, 30_000);
        for pool in 0..4u16 {
            spec = spec
                .stream(Stream::new(
                    JobClass::new(format!("low{pool}"), 0, Box::new(Constant(60.0)))
                        .with_affinity(PoolAffinity::from_ids(&[pool])),
                    Box::new(PoissonArrivals::new(0.2)),
                ))
                .stream(Stream::new(
                    JobClass::new(format!("high{pool}"), 10, Box::new(Constant(30.0)))
                        .with_affinity(PoolAffinity::from_ids(&[pool])),
                    Box::new(BurstArrivals::new(0.01, 0.5, 2000.0, 300.0)),
                ));
        }
        spec
    }

    #[test]
    fn filtered_stream_is_exact_subsequence() {
        let spec = pinned_spec();
        let seed = 11u64;
        let all: Vec<_> = TraceStream::new(&spec, seed).collect();
        // Union of per-pool filtered streams == full stream, per lane.
        for pool in 0..4u16 {
            let got: Vec<_> =
                TraceStream::filtered(&spec, seed, |i| spec.streams[i].pinned_pool() == Some(pool))
                    .collect();
            let want: Vec<_> = all
                .iter()
                .filter(|(i, _)| spec.streams[*i].pinned_pool() == Some(pool))
                .cloned()
                .collect();
            assert_eq!(want, got, "pool {pool}");
        }
    }

    #[test]
    fn drain_minute_pulls_whole_epochs() {
        let spec = pinned_spec();
        let mut stream = TraceStream::new(&spec, 3);
        let mut by_minute = Vec::new();
        while let Some(m) = stream.peek_minute() {
            let mut recs = Vec::new();
            stream.drain_minute(m, &mut recs);
            assert!(!recs.is_empty());
            assert!(recs.iter().all(|r| r.submit_minute == m));
            by_minute.push(m);
        }
        assert!(by_minute.windows(2).all(|w| w[0] < w[1]));
        let flat: usize = spec.generate(3).records().len();
        let mut stream2 = TraceStream::new(&spec, 3);
        let mut total = 0;
        while let Some(m) = stream2.peek_minute() {
            let mut recs = Vec::new();
            total += stream2.drain_minute(m, &mut recs);
        }
        assert_eq!(total, flat);
    }

    #[test]
    fn pool_major_validation() {
        assert!(pinned_spec().validate_pool_major(4).is_ok());
        assert!(pinned_spec().validate_pool_major(3).is_err());
        // Unpinned stream rejected.
        let unpinned = WorkloadSpec::new(0, 100).stream(Stream::new(
            JobClass::new("any", 0, Box::new(Constant(10.0))),
            Box::new(PoissonArrivals::new(0.1)),
        ));
        assert!(unpinned.validate_pool_major(4).is_err());
        // Decreasing pool order rejected.
        let backwards = WorkloadSpec::new(0, 100)
            .stream(Stream::new(
                JobClass::new("b", 0, Box::new(Constant(10.0)))
                    .with_affinity(PoolAffinity::from_ids(&[1])),
                Box::new(PoissonArrivals::new(0.1)),
            ))
            .stream(Stream::new(
                JobClass::new("a", 0, Box::new(Constant(10.0)))
                    .with_affinity(PoolAffinity::from_ids(&[0])),
                Box::new(PoissonArrivals::new(0.1)),
            ));
        assert!(backwards.validate_pool_major(4).is_err());
    }
}
