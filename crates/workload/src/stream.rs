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
//! streams and pulls arrivals minute by minute.
//!
//! [`IdClock`] is the generator's id authority for such a shard: it walks
//! every stream's arrival substream, drawing no job attributes, and tells
//! the shard which dense trace id each stream's first record at a minute
//! gets in the full trace. A shard thus numbers its own records exactly as
//! [`WorkloadSpec::generate`] does without seeing the other shards'.

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

/// Stream `i`'s arrival minutes, one per record, non-decreasing: the
/// substream both [`TraceStream`] and [`IdClock`] walk.
fn arrival_cursor(
    spec: &WorkloadSpec,
    root: &DetRng,
    i: usize,
) -> Box<dyn Iterator<Item = u64> + Send> {
    let rng = root.stream_indexed("arrivals", i as u64);
    spec.streams[i].arrivals.cursor(rng, spec.start, spec.end)
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
        let lanes = (0..spec.streams.len())
            .filter(|&i| keep(i))
            .map(|i| {
                let job_rng = root.stream_indexed("jobs", i as u64);
                let mut cursor = arrival_cursor(spec, &root, i);
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

/// Dense trace ids without records: one arrival cursor per stream of
/// the workload, walked in step with the minutes a caller asks about.
///
/// A record's id is its position in canonical order, so the first record
/// of stream `i` at minute `m` gets the count of records before `m` plus
/// the count at `m` on streams below `i`. Counting needs only arrival
/// minutes, which come from their own RNG substream, so the clock draws
/// no job attribute and costs one cursor step per record of the workload.
pub struct IdClock {
    /// Per stream: its arrival cursor and next uncounted minute.
    cursors: Vec<(Box<dyn Iterator<Item = u64> + Send>, Option<u64>)>,
    /// Per stream: the id of its first record at the last sought minute.
    first_ids: Vec<u64>,
    /// Records at minutes up to and including the last sought one.
    issued: u64,
    /// The last sought minute.
    at: Option<u64>,
}

impl IdClock {
    /// A clock before the workload's first minute.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        let root = DetRng::from_seed_u64(seed);
        let cursors = (0..spec.streams.len())
            .map(|i| {
                let mut cursor = arrival_cursor(spec, &root, i);
                let pending = cursor.next();
                (cursor, pending)
            })
            .collect();
        IdClock {
            cursors,
            first_ids: vec![0; spec.streams.len()],
            issued: 0,
            at: None,
        }
    }

    /// Moves the clock to `minute` and returns, per stream, the id its
    /// first record at `minute` gets in the full trace (for a stream with
    /// no record there, the id the next stream's first record gets).
    /// Minutes must increase from call to call; any may be skipped.
    ///
    /// # Panics
    ///
    /// Panics if `minute` does not lie past the last sought minute.
    pub fn seek(&mut self, minute: u64) -> &[u64] {
        assert!(
            self.at.is_none_or(|at| at < minute),
            "the id clock only moves forward"
        );
        self.at = Some(minute);
        for (cursor, pending) in &mut self.cursors {
            while pending.is_some_and(|m| m < minute) {
                self.issued += 1;
                *pending = cursor.next();
            }
        }
        for ((cursor, pending), first) in self.cursors.iter_mut().zip(&mut self.first_ids) {
            *first = self.issued;
            while *pending == Some(minute) {
                self.issued += 1;
                *pending = cursor.next();
            }
        }
        &self.first_ids
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
    use crate::generator::{ArrivalProcess, BurstArrivals, JobClass, PoissonArrivals};
    use proptest::prelude::*;

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

    /// A pool-major spec over `[start, start + len)`: per pool, its
    /// streams as `(bursty, rate in tenths of a job per minute)`, so
    /// pools without streams, minutes without arrivals and minutes with
    /// several all occur.
    fn spec_of(start: u64, len: u64, pools: &[Vec<(bool, u8)>]) -> WorkloadSpec {
        let mut spec = WorkloadSpec::new(start, start + len);
        for (pool, streams) in pools.iter().enumerate() {
            for (k, &(bursty, tenths)) in streams.iter().enumerate() {
                let rate = f64::from(tenths) / 10.0;
                let arrivals: Box<dyn ArrivalProcess + Send + Sync> = if bursty {
                    Box::new(BurstArrivals::new(rate / 10.0, rate, 40.0, 15.0))
                } else {
                    Box::new(PoissonArrivals::new(rate))
                };
                let class = JobClass::new(format!("p{pool}s{k}"), 0, Box::new(Constant(5.0)))
                    .with_affinity(PoolAffinity::from_ids(&[pool as u16]));
                spec = spec.stream(Stream::new(class, arrivals));
            }
        }
        spec
    }

    proptest! {
        /// Every shard's clock, sought only at its own pools' submission
        /// minutes, gives each of its pools the id that pool's first
        /// record at the minute has in the materialized trace, at 1–5
        /// shards (pool `p` on shard `p % shards`).
        #[test]
        fn prop_id_clock_matches_materialized_ids(
            start in 0u64..100,
            len in 1u64..400,
            pools in prop::collection::vec(
                prop::collection::vec((prop::bool::ANY, 1u8..25), 0..3),
                1..7,
            ),
            seed in any::<u64>(),
        ) {
            let spec = spec_of(start, len, &pools);
            let trace = spec.generate(seed);
            // (minute, pool) -> (first id, records), from the trace itself.
            let pinned: Vec<u16> = spec.streams.iter().map(|s| s.pinned_pool().unwrap()).collect();
            let mut firsts: std::collections::BTreeMap<(u64, u16), (u64, u64)> = Default::default();
            for (id, (stream, record)) in TraceStream::new(&spec, seed).enumerate() {
                prop_assert_eq!(&trace.records()[id], &record);
                let cell = firsts.entry((record.submit_minute, pinned[stream])).or_insert((id as u64, 0));
                prop_assert_eq!(cell.0 + cell.1, id as u64, "a pool's records at a minute are contiguous");
                cell.1 += 1;
            }
            let first_stream = |pool: u16| pinned.iter().position(|&p| p == pool).unwrap();
            for shards in 1..=5u16 {
                for shard in 0..shards {
                    let mut clock = IdClock::new(&spec, seed);
                    let (mut last, mut ids) = (None, Vec::new());
                    for (&(minute, pool), &(id, _)) in &firsts {
                        if pool % shards != shard {
                            continue;
                        }
                        if last != Some(minute) {
                            last = Some(minute);
                            ids = clock.seek(minute).to_vec();
                        }
                        prop_assert_eq!(
                            ids[first_stream(pool)], id,
                            "shards={} pool={} minute={}", shards, pool, minute
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "the id clock only moves forward")]
    fn id_clock_rejects_a_minute_already_passed() {
        let spec = pinned_spec();
        let mut clock = IdClock::new(&spec, 1);
        clock.seek(5);
        clock.seek(5);
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
