//! Deterministic merging of per-lane progress at epoch barriers.
//!
//! The streaming simulation backend advances independent lanes (one per
//! shard) inside a minute-epoch and synchronizes at epoch barriers, where
//! every cross-lane action — observer emissions — must be applied in an
//! order that does **not** depend on which lane finished first. This
//! module provides that order: a k-way merge of per-lane runs that are
//! already sorted by their key.
//!
//! The streaming kernel keys each emission by its pool id: pools are
//! lane-disjoint and every lane visits its pools in ascending id order,
//! so each run is sorted by construction and the merged stream is the
//! same regardless of shard scheduling, completion order, or thread
//! count.

/// Merges per-lane runs into `out`, ordered by `key`, preserving each
/// run's internal order for equal keys (stable within a lane).
///
/// Each input run must already be sorted by the key function — which the
/// streaming coordinator guarantees by construction, since every lane
/// visits its pools in ascending id order. Ties across lanes (two
/// lanes producing the same key) resolve in favour of the lower lane
/// index, so the output is a pure function of the runs' *contents*, never
/// of the order the lanes happened to finish in.
///
/// The runs are drained, not consumed: each is left empty with its
/// capacity, so a caller that recycles its runs and `out` merges every
/// barrier without allocating.
///
/// # Panics
///
/// Panics (debug builds) if a run is not sorted by its keys — an unsorted
/// run means a lane executed out of sequence, which would already have
/// broken determinism upstream.
pub fn merge_sorted_runs<T, K, F>(runs: &mut [Vec<T>], key: F, out: &mut Vec<T>)
where
    K: Ord,
    F: Fn(&T) -> K,
{
    debug_assert!(runs
        .iter()
        .all(|run| run.windows(2).all(|w| key(&w[0]) <= key(&w[1]))));
    out.reserve(runs.iter().map(Vec::len).sum());
    // Reversed, each run's head is its last element and `pop` takes it,
    // so no cursor needs storing. k is tiny (the shard count), so a
    // linear scan over the run heads beats a binary heap and keeps the
    // tie-break (lowest lane index first) explicit.
    for run in runs.iter_mut() {
        run.reverse();
    }
    loop {
        let mut best: Option<(usize, K)> = None;
        for (lane, run) in runs.iter().enumerate() {
            let Some(head) = run.last() else {
                continue;
            };
            let k = key(head);
            // `<=` keeps the earlier lane on equal keys: lanes are visited
            // in ascending index order, so ties resolve to the lowest lane.
            best = match best {
                Some((b, bk)) if bk <= k => Some((b, bk)),
                _ => Some((lane, k)),
            };
        }
        let Some((lane, _)) = best else {
            break;
        };
        out.push(runs[lane].pop().expect("scanned head present"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An emission as the coordinator sees it at a barrier: its merge key
    /// (`(epoch, pool)`) and a label for what happened.
    type Action = ((u64, u32), &'static str);

    /// Merges `runs` into a fresh buffer; every run is left drained.
    fn merge(mut runs: Vec<Vec<Action>>) -> Vec<Action> {
        let mut out = Vec::new();
        merge_sorted_runs(&mut runs, |a| a.0, &mut out);
        assert!(runs.iter().all(Vec::is_empty), "every run is drained");
        out
    }

    /// Merges the given per-lane runs under every rotation of "which lane
    /// finished first" and asserts the output never changes. The
    /// coordinator stores results by lane index, so any arrival order
    /// must reduce to the same input; a merge keyed on arrival would not.
    fn assert_order_independent(lanes: Vec<Vec<Action>>) -> Vec<&'static str> {
        let reference = merge(lanes.clone());
        let n = lanes.len();
        for first in 0..n {
            let mut slots: Vec<Vec<Action>> = vec![Vec::new(); n];
            for off in 0..n {
                let lane = (first + off) % n;
                slots[lane] = lanes[lane].clone();
            }
            let merged = merge(slots);
            assert_eq!(
                merged, reference,
                "merge output depends on lane completion order (lane {first} first)"
            );
        }
        reference.into_iter().map(|a| a.1).collect()
    }

    #[test]
    fn equal_keys_keep_their_order_within_a_lane() {
        // Several emissions from one pool in one epoch share a key; the
        // merge must replay them in the order the lane produced them.
        let lanes = vec![
            vec![
                ((100, 3), "complete@p3"),
                ((100, 3), "start queued j9 on p3"),
            ],
            vec![((100, 7), "complete@p7")],
        ];
        assert_eq!(
            assert_order_independent(lanes),
            ["complete@p3", "start queued j9 on p3", "complete@p7"]
        );
    }

    #[test]
    fn ties_across_lanes_resolve_to_lowest_lane() {
        // Two lanes producing the *same* key must still merge
        // deterministically: lowest lane index first.
        let lanes = vec![vec![((5, 9), "lane 0")], vec![((5, 9), "lane 1")]];
        assert_eq!(assert_order_independent(lanes), ["lane 0", "lane 1"]);
    }

    #[test]
    fn empty_and_uneven_runs_merge_cleanly() {
        let lanes = vec![
            Vec::new(),
            vec![((1, 1), "a"), ((1, 1), "b"), ((2, 1), "c")],
            Vec::new(),
            vec![((1, 3), "d")],
        ];
        assert_eq!(assert_order_independent(lanes), ["a", "b", "d", "c"]);
        assert!(merge(Vec::new()).is_empty());
    }

    #[test]
    fn drained_runs_keep_their_capacity_and_out_appends() {
        let mut runs = vec![vec![((1, 0), "a"), ((3, 0), "c")], vec![((2, 1), "b")]];
        let caps: Vec<usize> = runs.iter().map(Vec::capacity).collect();
        let mut out = vec![((0, 0), "earlier")];
        merge_sorted_runs(&mut runs, |a| a.0, &mut out);
        let labels: Vec<_> = out.iter().map(|a| a.1).collect();
        assert_eq!(labels, ["earlier", "a", "b", "c"]);
        let after: Vec<usize> = runs.iter().map(Vec::capacity).collect();
        assert_eq!(after, caps);
    }
}
