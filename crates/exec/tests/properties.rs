//! Property-based checks of the worker pool: deterministic input-order
//! results for arbitrary (item count, thread count) combinations.

use dq_exec::WorkerPool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Results come back in input order for any pool width — including
    /// pools wider than the job list — and agree with the serial map.
    #[test]
    fn results_are_in_input_order(items in proptest::collection::vec(0u64..1_000_000, 0..80),
                                  threads in 1usize..12) {
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761) >> 7).collect();
        let pool = WorkerPool::new(threads);
        let parallel = pool.map_indexed(&items, |_, &x| x.wrapping_mul(2654435761) >> 7);
        prop_assert_eq!(parallel, serial);
    }

    /// The closure's index argument always equals the item's position.
    #[test]
    fn indices_match_positions(n in 0usize..120, threads in 1usize..9) {
        let items: Vec<usize> = (0..n).collect();
        let pool = WorkerPool::new(threads);
        let echoed = pool.map_indexed(&items, |i, &x| (i, x));
        for (i, &(idx, x)) in echoed.iter().enumerate() {
            prop_assert_eq!(idx, i);
            prop_assert_eq!(x, i);
        }
    }
}
