//! The paper's published numbers, transcribed from Zhang et al.,
//! *"On the Feasibility of Dynamic Rescheduling on the Intel Distributed
//! Computing Platform"*, Middleware 2010 — Tables 1–5, Figure 2's summary
//! statistics and Figure 3's waste decomposition.
//!
//! `repro` prints its measured rows side by side with these, and its shape
//! checks quote their paper figures from here, so paper-vs-measured
//! comparisons never require opening the PDF.

use netbatch_core::policy::StrategyKind;

/// One row of a paper table: the five published metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Strategy of this row.
    pub strategy: StrategyKind,
    /// Suspend rate as a fraction (e.g. 0.0114 for 1.14%).
    pub suspend_rate: f64,
    /// AvgCT over suspended jobs (minutes).
    pub avg_ct_suspended: f64,
    /// AvgCT over all jobs (minutes).
    pub avg_ct_all: f64,
    /// AvgST (minutes).
    pub avg_st: f64,
    /// AvgWCT (minutes).
    pub avg_wct: f64,
}

const fn row(
    strategy: StrategyKind,
    suspend_rate: f64,
    avg_ct_suspended: f64,
    avg_ct_all: f64,
    avg_st: f64,
    avg_wct: f64,
) -> PaperRow {
    PaperRow {
        strategy,
        suspend_rate,
        avg_ct_suspended,
        avg_ct_all,
        avg_st,
        avg_wct,
    }
}

/// Table 1: performance under the normal-load scenario (round-robin
/// initial scheduler).
pub const TABLE_1: [PaperRow; 3] = [
    row(StrategyKind::NoRes, 0.0114, 2498.7, 569.8, 1189.1, 31.0),
    row(StrategyKind::ResSusUtil, 0.0156, 1265.4, 560.0, 82.2, 20.8),
    row(StrategyKind::ResSusRand, 0.0152, 7580.7, 638.7, 80.7, 91.9),
];

/// Table 2: performance under the high-load scenario (cores halved,
/// round-robin initial scheduler).
pub const TABLE_2: [PaperRow; 3] = [
    row(StrategyKind::NoRes, 0.0126, 5846.1, 988.7, 4402.4, 450.1),
    row(StrategyKind::ResSusUtil, 0.0183, 1475.1, 962.2, 86.2, 423.9),
    row(
        StrategyKind::ResSusRand,
        0.0160,
        6485.0,
        1180.0,
        73.2,
        636.3,
    ),
];

/// Table 3: suspended-job rescheduling with the utilization-based initial
/// scheduler (high load).
pub const TABLE_3: [PaperRow; 3] = [
    row(StrategyKind::NoRes, 0.0150, 5936.0, 994.2, 4916.0, 456.6),
    row(StrategyKind::ResSusUtil, 0.0172, 1466.9, 946.2, 84.5, 407.6),
    row(
        StrategyKind::ResSusRand,
        0.0162,
        7979.9,
        1229.9,
        72.3,
        686.8,
    ),
];

/// Table 4: combined suspended + waiting rescheduling, round-robin initial
/// scheduler (high load, 30-minute wait threshold).
pub const TABLE_4: [PaperRow; 3] = [
    row(StrategyKind::NoRes, 0.0126, 5846.1, 988.7, 4402.4, 450.1),
    row(
        StrategyKind::ResSusWaitUtil,
        0.0146,
        1224.3,
        951.4,
        72.7,
        414.2,
    ),
    row(
        StrategyKind::ResSusWaitRand,
        0.0150,
        1417.0,
        954.7,
        62.3,
        417.6,
    ),
];

/// Table 5: combined rescheduling with the utilization-based initial
/// scheduler (high load).
pub const TABLE_5: [PaperRow; 3] = [
    row(StrategyKind::NoRes, 0.0150, 5936.0, 994.2, 4916.0, 456.6),
    row(
        StrategyKind::ResSusWaitUtil,
        0.0174,
        1467.2,
        937.9,
        84.5,
        402.0,
    ),
    row(
        StrategyKind::ResSusWaitRand,
        0.0171,
        1603.1,
        935.7,
        100.6,
        399.7,
    ),
];

/// Figure 2's published suspension-time distribution summary (minutes,
/// over the year trace).
pub mod figure2 {
    /// Median suspension time: 437 minutes (7.3 hours).
    pub const MEDIAN_MIN: f64 = 437.0;
    /// Mean suspension time: 905 minutes (15 hours).
    pub const MEAN_MIN: f64 = 905.0;
    /// 20% of suspended jobs are suspended for more than 1100 minutes.
    pub const FRACTION_ABOVE_1100: f64 = 0.20;
    /// The threshold for the 20% statistic.
    pub const TAIL_THRESHOLD_MIN: f64 = 1100.0;
}

/// Figure 3's approximate waste decomposition under normal load (minutes;
/// read off the bar chart, totals anchored to Table 1's AvgWCT column).
pub mod figure3 {
    /// `(strategy, wait, suspend, resched)` approximate components.
    pub const COMPONENTS: [(&str, f64, f64, f64); 3] = [
        ("NoRes", 10.0, 21.0, 0.0),
        ("ResSusUtil", 12.0, 2.0, 6.8),
        ("ResSusRand", 80.0, 2.0, 9.9),
    ];
}

/// Figure 4's published system-level aggregates over the year trace.
pub mod figure4 {
    /// "The overall system utilization averages around 40%."
    pub const MEAN_UTILIZATION_PCT: f64 = 40.0;
    /// "...and is typically in the range of 20%-60%."
    pub const TYPICAL_UTILIZATION_BAND_PCT: (f64, f64) = (20.0, 60.0);
}

/// The §3.2.1 high-suspension scenario's published claims.
pub mod high_suspension {
    /// "a more significant reduction of 7% in AvgCT for all jobs".
    pub const CT_ALL_REDUCTION: f64 = 0.07;
    /// "an equally high reduction of 44% in AvgCT of suspended jobs".
    pub const CT_SUSPENDED_REDUCTION: f64 = 0.44;
}

/// Headline claims from the abstract/conclusion, used by the shape checks.
pub mod claims {
    /// Rescheduling suspended jobs cuts their AvgCT by ~50% (normal load).
    pub const NORMAL_CT_SUSPENDED_REDUCTION: f64 = 0.50;
    /// ...and reduces system waste by more than 33%.
    pub const NORMAL_WCT_REDUCTION: f64 = 0.33;
    /// Under high load the suspended-job AvgCT reduction reaches 75%.
    pub const HIGH_CT_SUSPENDED_REDUCTION: f64 = 0.75;
    /// With waiting-job rescheduling it reaches 79%.
    pub const HIGH_WAIT_CT_SUSPENDED_REDUCTION: f64 = 0.79;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_internally_consistent() {
        // NoRes rows of tables 2 and 4 are the same experiment.
        assert_eq!(TABLE_2[0], TABLE_4[0]);
        // NoRes rows of tables 3 and 5 are the same experiment.
        assert_eq!(TABLE_3[0], TABLE_5[0]);
        // Every table starts with the NoRes baseline.
        for t in [&TABLE_1, &TABLE_2, &TABLE_3, &TABLE_4, &TABLE_5] {
            assert_eq!(t[0].strategy, StrategyKind::NoRes);
        }
    }

    #[test]
    fn headline_reductions_match_tables() {
        // 50% CT reduction for suspended jobs at normal load.
        let r = 1.0 - TABLE_1[1].avg_ct_suspended / TABLE_1[0].avg_ct_suspended;
        assert!((r - claims::NORMAL_CT_SUSPENDED_REDUCTION).abs() < 0.02);
        // 33% waste reduction at normal load.
        // The paper rounds 32.9% up to "more than 33%".
        let w = 1.0 - TABLE_1[1].avg_wct / TABLE_1[0].avg_wct;
        assert!(w >= claims::NORMAL_WCT_REDUCTION - 0.01);
        // 75% at high load.
        let h = 1.0 - TABLE_2[1].avg_ct_suspended / TABLE_2[0].avg_ct_suspended;
        assert!((h - claims::HIGH_CT_SUSPENDED_REDUCTION).abs() < 0.01);
        // 79% with wait rescheduling.
        let hw = 1.0 - TABLE_4[1].avg_ct_suspended / TABLE_4[0].avg_ct_suspended;
        assert!((hw - claims::HIGH_WAIT_CT_SUSPENDED_REDUCTION).abs() < 0.01);
    }

    #[test]
    fn figure3_totals_roughly_match_table1_wct() {
        for (i, (_, wait, susp, resched)) in figure3::COMPONENTS.iter().enumerate() {
            let total = wait + susp + resched;
            let table = TABLE_1[i].avg_wct;
            assert!(
                (total - table).abs() / table < 0.15,
                "figure 3 components should sum near table 1 AvgWCT"
            );
        }
    }
}
