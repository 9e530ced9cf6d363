//! Error-confidence machinery specific to the auditing context
//! (sec. 5.4).
//!
//! The interval-based error confidence itself (Defs. 7-9) lives in
//! `dq-stats`; this module adds the two derived quantities the auditor
//! needs:
//!
//! * [`min_instances_for_confidence`] — the paper's **minInst**: "if we
//!   let the user restrict his interest by giving a minimal confidence
//!   for detected errors, the system can easily calculate the minimal
//!   number minInst of instances of one class that have to occur in a
//!   leaf of the decision tree";
//! * [`null_error_confidence`] — the error confidence of an observed
//!   NULL against a prediction, treating the missing value as a class
//!   with zero observed probability (this is what lets the audit
//!   address the *completeness* dimension: "substituting an erroneously
//!   missing value by the suggestion of a data auditing application").

use dq_stats::{argmax, left_bound, right_bound};

/// The smallest number of instances of one class a leaf needs before
/// it can flag *any* deviation with error confidence `min_conf`.
///
/// Best case: a pure leaf of `n` instances observing a class that never
/// occurred there — `errorConf = leftBound(1, n) − rightBound(0, n)`,
/// which grows monotonically in `n`. Returns the smallest `n` where it
/// reaches `min_conf` (binary search; `u64::MAX` if unreachable, which
/// only happens for `min_conf = 1`).
pub fn min_instances_for_confidence(min_conf: f64, level: f64) -> u64 {
    assert!((0.0..=1.0).contains(&min_conf), "confidence out of range: {min_conf}");
    if min_conf <= 0.0 {
        return 1;
    }
    let best = |n: u64| left_bound(1.0, n as f64, level) - right_bound(0.0, n as f64, level);
    // Exponential bracket, then binary search the threshold.
    let mut hi = 1u64;
    while best(hi) < min_conf {
        if hi > (1 << 40) {
            return u64::MAX; // min_conf not attainable (≈ 1.0)
        }
        hi *= 2;
    }
    let mut lo = hi / 2; // best(lo) < min_conf ≤ best(hi)  (lo = 0 is vacuous)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if best(mid) < min_conf {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Error confidence of an observed NULL against a predicted class
/// distribution: `max(0, leftBound(P(ĉ), n) − rightBound(0, n))`.
///
/// A NULL never equals the prediction, and its observed probability in
/// the (NULL-free) training distribution is 0 — so this is Def. 7 with
/// `P(c) = 0`.
pub fn null_error_confidence(counts: &[f64], level: f64) -> f64 {
    let n: f64 = counts.iter().sum();
    if n <= 0.0 {
        return 0.0;
    }
    let p_pred = counts[argmax(counts)] / n;
    (left_bound(p_pred, n, level) - right_bound(0.0, n, level)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVEL: f64 = 0.95;

    #[test]
    fn min_inst_is_the_exact_threshold() {
        for &conf in &[0.5, 0.8, 0.9, 0.99] {
            let m = min_instances_for_confidence(conf, LEVEL);
            let best = |n: f64| left_bound(1.0, n, LEVEL) - right_bound(0.0, n, LEVEL);
            assert!(best(m as f64) >= conf, "minInst {m} must reach {conf}");
            if m > 1 {
                assert!(best((m - 1) as f64) < conf, "minInst {m} must be minimal for {conf}");
            }
        }
    }

    #[test]
    fn min_inst_grows_with_confidence_and_level() {
        let m80 = min_instances_for_confidence(0.80, LEVEL);
        let m95 = min_instances_for_confidence(0.95, LEVEL);
        assert!(m95 > m80);
        let tighter = min_instances_for_confidence(0.80, 0.99);
        assert!(tighter > m80, "a stricter interval needs more instances");
        // Sanity: the 80%/95% combination the paper's experiments fix
        // lands in the tens of instances.
        assert!((10..200).contains(&m80), "minInst(0.8) = {m80}");
    }

    /// Oracle: for a pure leaf of `n` instances, Wilson's bounds are
    /// `leftBound(1, n) = n / (n + z²)` and
    /// `rightBound(0, n) = z² / (n + z²)`, so the best error confidence
    /// is `(n − z²) / (n + z²)`, which reaches `m` exactly from
    /// `n = z² (1 + m) / (1 − m)` on. The two-sided normal quantiles
    /// are hard-coded, not computed.
    #[test]
    fn min_inst_matches_the_closed_form_of_the_wilson_bound() {
        for (level, z) in [
            (0.90, 1.644_853_626_951_472_2),
            (0.95, 1.959_963_984_540_054),
            (0.99, 2.575_829_303_548_900_4),
        ] {
            let z2: f64 = z * z;
            for m in (1..=19).map(|k| f64::from(k) * 0.05).chain([0.99, 0.999]) {
                let threshold = z2 * (1.0 + m) / (1.0 - m);
                // A threshold within rounding of an integer could land
                // on either side of it; none of this grid does.
                assert!((threshold - threshold.round()).abs() > 1e-6, "m {m}, level {level}");
                let expected = threshold.ceil() as u64;
                assert_eq!(
                    min_instances_for_confidence(m, level),
                    expected,
                    "m {m}, level {level}"
                );
            }
        }
        // The "minInst 35" `dq induce` prints at its defaults.
        assert_eq!(min_instances_for_confidence(0.8, 0.95), 35);
    }

    #[test]
    fn min_inst_edge_cases() {
        assert_eq!(min_instances_for_confidence(0.0, LEVEL), 1);
        assert_eq!(min_instances_for_confidence(1.0, LEVEL), u64::MAX);
    }

    #[test]
    fn null_confidence_mirrors_def7_with_zero_observed() {
        // Strong pure prediction: an observed NULL is a confident error.
        assert!(null_error_confidence(&[16_118.0, 0.0], LEVEL) > 0.99);
        // Weak prediction: not flaggable.
        assert!(null_error_confidence(&[2.0, 1.0], LEVEL) < 0.5);
        // No evidence: zero.
        assert_eq!(null_error_confidence(&[0.0, 0.0], LEVEL), 0.0);
        assert_eq!(null_error_confidence(&[], LEVEL), 0.0);
    }

    #[test]
    #[should_panic(expected = "confidence out of range")]
    fn rejects_bad_confidence() {
        min_instances_for_confidence(1.5, LEVEL);
    }
}
