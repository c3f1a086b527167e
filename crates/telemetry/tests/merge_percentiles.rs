//! Property test: merging per-shard histograms preserves percentile
//! bounds.
//!
//! The per-core-then-merge discipline of stage counters only works for
//! distribution metrics if merging is lossless at the bucket level: the
//! merged histogram must be exactly the histogram of the concatenated
//! samples, and any quantile of the merged histogram must lie within
//! the range spanned by the per-shard quantiles (a mixture quantile is
//! bounded by the component quantiles).

use retina_support::proptest::prelude::*;
use retina_telemetry::LogHistogram;

fn hist_of(samples: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    #[test]
    fn merge_equals_histogram_of_concatenation(
        a in retina_support::proptest::collection::vec(0u64..1_000_000, 0..200),
        b in retina_support::proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        let mut merged = ha;
        merged.merge(&hb);

        let mut both = a.clone();
        both.extend_from_slice(&b);
        let direct = hist_of(&both);

        prop_assert_eq!(merged, direct);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn merged_percentiles_bounded_by_shard_percentiles(
        a in retina_support::proptest::collection::vec(1u64..1_000_000, 1..200),
        b in retina_support::proptest::collection::vec(1u64..1_000_000, 1..200),
        q_pct in 0u64..=100,
    ) {
        let q = q_pct as f64;
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        let mut merged = ha;
        merged.merge(&hb);

        // A quantile of a mixture lies between the min and max of the
        // component quantiles.
        let lo = ha.percentile(q).min(hb.percentile(q));
        let hi = ha.percentile(q).max(hb.percentile(q));
        let m = merged.percentile(q);
        prop_assert!(m >= lo, "p{q}: merged {m} < min-shard {lo}");
        prop_assert!(m <= hi, "p{q}: merged {m} > max-shard {hi}");
    }

    #[test]
    fn percentiles_are_monotone_in_q(
        samples in retina_support::proptest::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let h = hist_of(&samples);
        let mut prev = 0u64;
        for q in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(q);
            prop_assert!(v >= prev, "p{q}={v} dropped below {prev}");
            prev = v;
        }
        // Max percentile never exceeds the bucket bound of the true max.
        let max = *samples.iter().max().unwrap();
        prop_assert!(h.percentile(100.0) >= max);
    }
}
