//! The one greedy shrinker, behind the chaos minimizer
//! ([`crate::chaos::minimize`]), its one caller. It knows nothing of what
//! a candidate is, so any other search for a minimal failing value can
//! take it as it stands.

/// Shrinks `start` greedily: takes the first of `candidates(&current)`
/// that `still_fails`, restarts from the first candidate of that smaller
/// value, and stops when none fails. The result is 1-minimal with respect
/// to `candidates`. `start` itself is never tested — the caller already
/// knows it fails.
pub(crate) fn shrink_to_fixpoint<T>(
    start: T,
    candidates: impl Fn(&T) -> Vec<T>,
    mut still_fails: impl FnMut(&T) -> bool,
) -> T {
    let mut current = start;
    while let Some(smaller) = candidates(&current).into_iter().find(&mut still_fails) {
        current = smaller;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step from a set of numbers: drop any single element, in order.
    #[allow(clippy::ptr_arg)] // the shrinker hands its candidate function a `&T`
    fn drop_one(set: &Vec<u32>) -> Vec<Vec<u32>> {
        (0..set.len())
            .map(|i| {
                let mut smaller = set.clone();
                smaller.remove(i);
                smaller
            })
            .collect()
    }

    #[test]
    fn start_comes_back_untouched_when_nothing_smaller_fails() {
        let mut tried = 0;
        let out = shrink_to_fixpoint(vec![1, 2, 3], drop_one, |_| {
            tried += 1;
            false
        });
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(tried, 3, "every candidate of the start, and only those");
    }

    #[test]
    fn result_is_one_minimal() {
        // "Fails" while both 3 and 7 are present.
        let fails = |s: &Vec<u32>| s.contains(&3) && s.contains(&7);
        let out = shrink_to_fixpoint((0..10).collect(), drop_one, fails);
        assert_eq!(out, [3, 7]);
        assert!(drop_one(&out).iter().all(|smaller| !fails(smaller)));
    }

    #[test]
    fn candidates_are_tried_in_order_and_the_scan_restarts_after_a_step() {
        let mut tried = Vec::new();
        let out = shrink_to_fixpoint(vec![7, 5, 6], drop_one, |s| {
            tried.push(s.clone());
            s.contains(&7)
        });
        assert_eq!(out, [7]);
        assert_eq!(
            tried,
            [
                vec![5, 6], // passes: next candidate
                vec![7, 6], // fails: step, and start over from its first
                vec![6],
                vec![7], // fails: step
                vec![],  // the only candidate of [7] passes: fixpoint
            ]
        );
    }
}
