//! Host-speed probe: a fixed piece of work the benchmark times next to
//! the simulator, so that run times can be stated in seconds of a quiet
//! host.
//!
//! On a shared 2-vCPU host the simulator's wall time swings by up to 2.6x
//! over tens of seconds while the guest reports almost no steal time:
//! neighbours on the same physical cores take execution resources the
//! guest cannot see. The probe is short work shaped like the simulator's
//! inner loop: pop an event from a binary heap, update two records of a
//! table, reschedule the event. Half its bursts use a 32 KiB table (L1,
//! so the probe is compute-bound) and half a 2 MiB one (spilling the
//! L2). Neither half alone tracked the simulator in every slow phase.
//! Against one-week `table1_normal` repetitions, with the log of the
//! probe time taken around each: in one phase the 32 KiB half correlated
//! 0.91 with the log of the run time and the 2 MiB half 0.91 (but with
//! 1.4x the swing), in another 0.58 and 0.83; the mix correlated 0.92
//! and 0.80, and dividing by it cut the spread of the run time by 2.4x
//! and 1.5x. Slowness comes in slices shorter than a burst, so the probe
//! averages its bursts as the simulator's runs do; keeping only the
//! fastest burst tracked far worse (0.57).
//!
//! The probe is independent of the program under test: a change to the
//! simulator never changes the probe's time. Its memory is static, so it
//! moves neither the allocation counts nor the heap figures.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Once;
use std::time::Instant;

/// Records of the table: 2 MiB of `u64`.
const TABLE_WORDS: usize = 1 << 18;
/// Records the L1-sized half of the bursts touch: 32 KiB.
const SMALL_WORDS: usize = 1 << 12;
/// Pending events in the heap: 128 KiB.
const HEAP_LEN: usize = 1 << 14;
/// Events popped per burst.
const BURST_STEPS: usize = 40_000;
/// Bursts per probe on each table size.
const BURSTS: usize = 3;
/// Seconds one burst takes on a quiet host (2-vCPU Xeon guest). It only
/// scales the factor to about 1 there; any fixed constant would do.
const NOMINAL_BURST_S: f64 = 0.004;

/// The probe's state. There is one per thread that probes at once, so
/// that two probes never share a cache line.
struct Lane {
    table: [AtomicU64; TABLE_WORDS],
    heap: [AtomicU64; HEAP_LEN],
}

static LANES: [Lane; 2] = [const {
    Lane {
        table: [const { AtomicU64::new(0) }; TABLE_WORDS],
        heap: [const { AtomicU64::new(0) }; HEAP_LEN],
    }
}; 2];
static INIT: Once = Once::new();

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Restores the heap property after the root's key grew.
fn sift_down_root(heap: &[AtomicU64; HEAP_LEN]) {
    let key = heap[0].load(Relaxed);
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        if left >= HEAP_LEN {
            break;
        }
        let right = left + 1;
        let child = if right < HEAP_LEN && heap[right].load(Relaxed) < heap[left].load(Relaxed) {
            right
        } else {
            left
        };
        let c = heap[child].load(Relaxed);
        if c >= key {
            break;
        }
        heap[i].store(c, Relaxed);
        i = child;
    }
    heap[i].store(key, Relaxed);
}

fn init() {
    INIT.call_once(|| {
        // Keys ascending from the root make a valid min-heap; a key is
        // `time << 20 | id`.
        for lane in &LANES {
            for (i, slot) in lane.heap.iter().enumerate() {
                slot.store((i as u64) << 20 | i as u64, Relaxed);
            }
            for (i, word) in lane.table.iter().enumerate() {
                word.store(mix(i as u64), Relaxed);
            }
        }
    });
}

/// One burst over the first `words` records (a power of two): pop the
/// earliest event, update the record it names and the one that record
/// points to, and reschedule the event a little later. Returns a value
/// that depends on every step, so no step is dead code.
fn burst(lane: &Lane, words: usize) -> u64 {
    let Lane { table, heap } = lane;
    let mut acc = 0u64;
    for _ in 0..BURST_STEPS {
        let key = heap[0].load(Relaxed);
        let (time, id) = (key >> 20, key & 0xf_ffff);
        let h = mix(key ^ acc);
        let a = (h as usize) & (words - 1);
        let rec = table[a].load(Relaxed);
        let b = (rec as usize ^ id as usize) & (words - 1);
        let next = table[b].load(Relaxed).wrapping_add(h);
        table[b].store(next, Relaxed);
        table[a].store(rec.wrapping_add(1), Relaxed);
        acc = acc.wrapping_add(next);
        heap[0].store((time + 1 + (h >> 54)) << 20 | id, Relaxed);
        sift_down_root(heap);
    }
    acc
}

/// The mean time of a few bursts on `lane` over a quiet host's.
fn probe(lane: &Lane) -> f64 {
    let t = Instant::now();
    for _ in 0..BURSTS {
        std::hint::black_box(burst(lane, SMALL_WORDS));
        std::hint::black_box(burst(lane, TABLE_WORDS));
    }
    t.elapsed().as_secs_f64() / (2.0 * BURSTS as f64 * NOMINAL_BURST_S)
}

/// How slow the host is right now for work on the calling thread. About
/// 1 on a quiet host, higher under contention.
pub fn factor() -> f64 {
    init();
    probe(&LANES[0])
}

/// How slow the host is right now for work spread over two threads: the
/// slower of two probes run at once, one on the calling thread and one on
/// a helper thread, since the slower vCPU holds up every barrier of the
/// 2-shard streaming run. A probe on one thread alone missed slow phases
/// there: normalized `stream_pools` figures fell by a third while the
/// single-thread figures held.
pub fn factor_two_threads() -> f64 {
    init();
    std::thread::scope(|s| {
        let helper = s.spawn(|| probe(&LANES[1]));
        let mine = probe(&LANES[0]);
        mine.max(helper.join().expect("the probe does not panic"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_a_positive_time_ratio() {
        for f in [factor(), factor_two_threads()] {
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
    }
}
