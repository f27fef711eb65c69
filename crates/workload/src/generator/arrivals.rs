//! Arrival processes: when jobs hit the virtual pool manager.
//!
//! Two models cover the paper's trace phenomenology: a homogeneous Poisson
//! stream for the low-priority background, and a two-state burst process
//! (an MMPP) for high-priority work — "higher priority jobs tend to be
//! bursty in nature … job suspension can spike suddenly due to the arrival
//! of a large number of higher priority jobs and last from several hours to
//! a week" (§2.3).
//!
//! A process generates arrivals one way only: [`ArrivalProcess::cursor`]
//! returns a lazy iterator over a window. [`crate::TraceStream`] merges the
//! streams' cursors, and a materialized trace is that stream drained, so
//! every kernel reads the same draws.

use std::fmt;

use netbatch_sim_engine::rng::DetRng;

use crate::distributions::{Distribution, Exponential};

/// Generates arrival instants (in minutes) over a half-open window.
pub trait ArrivalProcess: fmt::Debug {
    /// The long-run arrival rate (jobs per minute), for calibration.
    fn rate(&self) -> f64;

    /// Returns the arrival minutes in `[start, end)`, in non-decreasing
    /// order, drawn lazily from `rng`: each `next` pays for one arrival,
    /// and the iterator holds O(1) state however long the window. This is
    /// the only way a process generates arrivals, so a materialized trace
    /// and a streaming run read the same draws by construction.
    fn cursor(&self, rng: DetRng, start: u64, end: u64) -> Box<dyn Iterator<Item = u64> + Send>;
}

/// Homogeneous Poisson arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    rate_per_minute: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given rate (jobs per minute).
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_minute` is positive and finite.
    pub fn new(rate_per_minute: f64) -> Self {
        assert!(
            rate_per_minute > 0.0 && rate_per_minute.is_finite(),
            "arrival rate must be positive"
        );
        PoissonArrivals { rate_per_minute }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn rate(&self) -> f64 {
        self.rate_per_minute
    }

    fn cursor(&self, rng: DetRng, start: u64, end: u64) -> Box<dyn Iterator<Item = u64> + Send> {
        Box::new(PoissonCursor {
            gap: Exponential::with_rate(self.rate_per_minute),
            t: start as f64,
            end: end as f64,
            rng,
        })
    }
}

/// [`PoissonArrivals`]' walk: exponential gaps from the window start until
/// one lands at or past the end.
struct PoissonCursor {
    gap: Exponential,
    t: f64,
    end: f64,
    rng: DetRng,
}

impl Iterator for PoissonCursor {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.t >= self.end {
            return None;
        }
        self.t += self.gap.sample(&mut self.rng);
        (self.t < self.end).then_some(self.t as u64)
    }
}

/// A two-state Markov-modulated Poisson process: alternating *quiet* and
/// *burst* phases with exponentially distributed lengths, each phase with
/// its own Poisson arrival rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstArrivals {
    /// Arrival rate during quiet phases (jobs/min).
    pub quiet_rate: f64,
    /// Arrival rate during burst phases (jobs/min).
    pub burst_rate: f64,
    /// Mean quiet-phase length in minutes.
    pub mean_quiet_len: f64,
    /// Mean burst-phase length in minutes.
    pub mean_burst_len: f64,
    /// Whether the process starts in a burst phase. The paper's evaluation
    /// window is chosen *because* it contains a burst; setting this true
    /// reproduces such burst-conditioned windows deterministically.
    pub start_in_burst: bool,
}

impl BurstArrivals {
    /// Creates a burst process.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive/non-finite or
    /// `burst_rate < quiet_rate`.
    pub fn new(quiet_rate: f64, burst_rate: f64, mean_quiet_len: f64, mean_burst_len: f64) -> Self {
        for v in [quiet_rate, burst_rate, mean_quiet_len, mean_burst_len] {
            assert!(
                v > 0.0 && v.is_finite(),
                "burst parameters must be positive"
            );
        }
        assert!(
            burst_rate >= quiet_rate,
            "burst rate must be at least the quiet rate"
        );
        BurstArrivals {
            quiet_rate,
            burst_rate,
            mean_quiet_len,
            mean_burst_len,
            start_in_burst: false,
        }
    }

    /// Starts the process in a burst phase (burst-conditioned windows).
    pub fn starting_in_burst(mut self) -> Self {
        self.start_in_burst = true;
        self
    }

    /// Fraction of time spent in burst phases.
    pub fn burst_fraction(&self) -> f64 {
        self.mean_burst_len / (self.mean_burst_len + self.mean_quiet_len)
    }
}

impl ArrivalProcess for BurstArrivals {
    fn rate(&self) -> f64 {
        let bf = self.burst_fraction();
        bf * self.burst_rate + (1.0 - bf) * self.quiet_rate
    }

    fn cursor(&self, rng: DetRng, start: u64, end: u64) -> Box<dyn Iterator<Item = u64> + Send> {
        Box::new(BurstCursor {
            quiet_len: Exponential::with_mean(self.mean_quiet_len),
            burst_len: Exponential::with_mean(self.mean_burst_len),
            quiet_rate: self.quiet_rate,
            burst_rate: self.burst_rate,
            t: start as f64,
            end: end as f64,
            in_burst: self.start_in_burst,
            phase: None,
            rng,
        })
    }
}

/// [`BurstArrivals`]' walk: the outer phase machine plus the inner
/// within-phase arrival walk. Each phase draws its length first, then
/// exponential gaps at the phase's rate until one crosses the phase end.
struct BurstCursor {
    quiet_len: Exponential,
    burst_len: Exponential,
    quiet_rate: f64,
    burst_rate: f64,
    t: f64,
    end: f64,
    in_burst: bool,
    /// Current phase: (phase end, gap distribution, arrival walker `a`).
    phase: Option<(f64, Exponential, f64)>,
    rng: DetRng,
}

impl Iterator for BurstCursor {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            match &mut self.phase {
                None => {
                    if self.t >= self.end {
                        return None;
                    }
                    let (phase_len, rate) = if self.in_burst {
                        (self.burst_len.sample(&mut self.rng), self.burst_rate)
                    } else {
                        (self.quiet_len.sample(&mut self.rng), self.quiet_rate)
                    };
                    let phase_end = (self.t + phase_len).min(self.end);
                    self.phase = Some((phase_end, Exponential::with_rate(rate), self.t));
                }
                Some((phase_end, gap, a)) => {
                    *a += gap.sample(&mut self.rng);
                    if *a >= *phase_end {
                        self.t = *phase_end;
                        self.in_burst = !self.in_burst;
                        self.phase = None;
                        continue;
                    }
                    return Some(*a as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains a process's cursor over `[start, end)` from a fresh seed.
    fn arrivals(p: &dyn ArrivalProcess, seed: u64, start: u64, end: u64) -> Vec<u64> {
        let mut cursor = p.cursor(DetRng::from_seed_u64(seed), start, end);
        let out: Vec<u64> = cursor.by_ref().collect();
        // Exhausted cursors stay exhausted.
        assert_eq!(cursor.next(), None);
        out
    }

    #[test]
    fn poisson_count_matches_rate() {
        let p = PoissonArrivals::new(0.5);
        let arrivals = arrivals(&p, 1, 0, 100_000);
        let rate = arrivals.len() as f64 / 100_000.0;
        assert!((rate - 0.5).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_in_window() {
        let processes: [&dyn ArrivalProcess; 2] = [
            &PoissonArrivals::new(1.0),
            &BurstArrivals::new(0.05, 0.8, 300.0, 60.0).starting_in_burst(),
        ];
        for p in processes {
            let arrivals = arrivals(p, 2, 500, 1500);
            assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{p:?}");
            assert!(arrivals.iter().all(|&a| (500..1500).contains(&a)), "{p:?}");
            assert!(!arrivals.is_empty(), "{p:?}");
        }
    }

    #[test]
    fn burst_process_is_burstier_than_poisson() {
        // Same long-run rate; compare variance of per-window counts.
        let burst = BurstArrivals::new(0.01, 2.0, 2000.0, 200.0);
        let poisson = PoissonArrivals::new(burst.rate());
        let horizon = 500_000;
        let window = 1000u64;
        let var = |arrivals: &[u64]| {
            let mut counts = vec![0f64; (horizon / window) as usize];
            for &a in arrivals {
                counts[(a / window) as usize] += 1.0;
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64
        };
        let vb = var(&arrivals(&burst, 3, 0, horizon));
        let vp = var(&arrivals(&poisson, 4, 0, horizon));
        assert!(
            vb > 3.0 * vp,
            "burst variance {vb} should dwarf poisson variance {vp}"
        );
    }

    #[test]
    fn burst_long_run_rate_matches_formula() {
        let b = BurstArrivals::new(0.1, 1.0, 900.0, 100.0);
        let emp = arrivals(&b, 5, 0, 2_000_000).len() as f64 / 2_000_000.0;
        assert!(
            (emp / b.rate() - 1.0).abs() < 0.1,
            "empirical {emp} vs theoretical {}",
            b.rate()
        );
    }

    #[test]
    fn empty_window_produces_nothing() {
        let p = PoissonArrivals::new(1.0);
        assert!(arrivals(&p, 6, 100, 100).is_empty());
        let b = BurstArrivals::new(0.1, 1.0, 10.0, 10.0);
        assert!(arrivals(&b, 6, 100, 100).is_empty());
    }

    #[test]
    fn starting_in_burst_produces_immediate_arrivals() {
        let quiet = BurstArrivals::new(0.001, 2.0, 50_000.0, 2_000.0);
        let stormy = quiet.starting_in_burst();
        let lazy = arrivals(&quiet, 9, 0, 5_000);
        let eager = arrivals(&stormy, 9, 0, 5_000);
        assert!(
            eager.len() > 10 * lazy.len().max(1),
            "{} vs {}",
            eager.len(),
            lazy.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = BurstArrivals::new(0.05, 0.8, 300.0, 60.0);
        assert_eq!(arrivals(&p, 7, 0, 10_000), arrivals(&p, 7, 0, 10_000));
        assert_ne!(arrivals(&p, 7, 0, 10_000), arrivals(&p, 8, 0, 10_000));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        PoissonArrivals::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least the quiet rate")]
    fn burst_rejects_inverted_rates() {
        BurstArrivals::new(1.0, 0.5, 10.0, 10.0);
    }
}
