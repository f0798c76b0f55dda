//! The benchmark's own arithmetic: percentiles, quartile summaries, slice
//! statistics and the open-loop latency rule. Everything a reported number passes
//! through lives here so it can be unit-tested without running a workload.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`); 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of an unsorted sample (sorts a copy).
pub fn percentile_of(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

/// Median of a float sample (mean of the two middle values when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted_copy(values), 0.5)
}

/// Five-number summary of a float sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted_copy(values);
        Summary {
            min: sorted.first().copied().unwrap_or(0.0),
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// `(q3 − q1) / median`, in percent.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Linear-interpolation quantile of an unsorted float sample; 0 when empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted_copy(values), q)
}

/// Linear-interpolation quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Boundaries of `slices` equal-count slices over `n` items: slice `i` is
/// `bounds[i]..bounds[i + 1]`. The remainder is spread over the first slices.
pub fn slice_bounds(n: usize, slices: usize) -> Vec<usize> {
    let slices = slices.max(1);
    (0..=slices).map(|i| i * n / slices).collect()
}

/// Per-slice throughput (operations per second) of a closed-loop phase.
/// `done_ns` holds every operation's completion time since the phase start, in
/// any order; the merged completion sequence is cut into equal-count slices and
/// each slice's rate is its count over the time between its last completion and
/// the previous slice's last completion.
pub fn slice_throughput(done_ns: &[u64], slices: usize) -> Vec<f64> {
    let mut sorted = done_ns.to_vec();
    sorted.sort_unstable();
    let bounds = slice_bounds(sorted.len(), slices);
    bounds
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| {
            let start = if w[0] == 0 { 0 } else { sorted[w[0] - 1] };
            let elapsed = sorted[w[1] - 1].saturating_sub(start).max(1);
            (w[1] - w[0]) as f64 / (elapsed as f64 / 1e9)
        })
        .collect()
}

/// What a phase recorded after its lead-in: the first `lead_in` of
/// `phase_slices` equal-count slices are dropped.
pub fn after_lead_in<T>(values: &[T], phase_slices: usize, lead_in: usize) -> &[T] {
    &values[slice_bounds(values.len(), phase_slices)[lead_in.min(phase_slices)]..]
}

/// `(median of the last third − median of the first third) / median`, in
/// percent: how far a phase drifted while it was measured. Thirds rather than
/// the single first and last slice, so one spoiled slice cannot fake a trend.
pub fn trend_pct(per_slice: &[f64]) -> f64 {
    let third = (per_slice.len() / 3).max(1);
    if per_slice.len() < 2 {
        return 0.0;
    }
    let first = median(&per_slice[..third]);
    let last = median(&per_slice[per_slice.len() - third..]);
    let mid = median(per_slice);
    if mid == 0.0 {
        0.0
    } else {
        (last - first) / mid * 100.0
    }
}

/// Open-loop latency: from the instant the request was *due* to the instant its
/// reply was complete, so a stalled sender charges its lateness to the requests
/// it delayed instead of thinning the arrival rate.
pub fn open_loop_latency_ns(due_ns: u64, reply_ns: u64) -> u64 {
    reply_ns.saturating_sub(due_ns)
}

/// 32-bit fold of FNV-1a over a byte stream: small enough to be exact in an
/// `f64` metric value.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn fold32(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

/// SplitMix64: the benchmark's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.9), 90);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile_of(&[9, 1, 5], 0.5), 5);
    }

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert!((s.spread_pct() - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // The upper decile of 11 values is the second largest.
        let rates: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile_of(&rates, 0.9), 9.0);
        assert_eq!(quantile_of(&[], 0.9), 0.0);
    }

    #[test]
    fn slice_bounds_cover_every_item_once() {
        assert_eq!(slice_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(slice_bounds(2, 4), vec![0, 0, 1, 1, 2]);
    }

    #[test]
    fn slice_median_ignores_a_spoiled_slice() {
        // 4 slices of 10 ops; ops complete every 1 ms except in slice 2,
        // where a neighbour's burst makes them take 10 ms each.
        let mut done = Vec::new();
        let mut t = 0u64;
        for i in 0..40 {
            t += if (20..30).contains(&i) {
                10_000_000
            } else {
                1_000_000
            };
            done.push(t);
        }
        done.reverse(); // order of arrival must not matter
        let per_slice = slice_throughput(&done, 4);
        assert_eq!(per_slice.len(), 4);
        assert!((per_slice[0] - 1000.0).abs() < 1e-6);
        assert!((per_slice[2] - 100.0).abs() < 1e-6);
        assert!((median(&per_slice) - 1000.0).abs() < 1e-6);
        // The plain mean would have been dragged to 40 ops / 0.13 s ≈ 308/s.
    }

    #[test]
    fn the_lead_in_slice_is_left_out() {
        let values: Vec<u64> = (0..21).collect();
        assert_eq!(after_lead_in(&values, 21, 1), &values[1..]);
        assert_eq!(after_lead_in(&values, 21, 2), &values[2..]);
        assert_eq!(after_lead_in(&values, 3, 1), &values[7..]);
        assert!(after_lead_in::<u64>(&[], 21, 1).is_empty());
        // Throughput of the slices after it still counts from the lead-in's end.
        let done: Vec<u64> = (1..=30).map(|i| i * 1_000_000).collect();
        let per_slice = slice_throughput(&done, 3);
        assert!((per_slice[1] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn trend_compares_first_and_last_third() {
        assert_eq!(trend_pct(&[100.0; 9]), 0.0);
        let rising = [90.0, 90.0, 90.0, 100.0, 100.0, 100.0, 110.0, 110.0, 110.0];
        assert!((trend_pct(&rising) - 20.0).abs() < 1e-9);
        // One spoiled last slice is not a trend.
        let spoiled = [100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 10.0];
        assert_eq!(trend_pct(&spoiled), 0.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_when_the_sender_stalls() {
        // Requests are due every 1 ms and each takes 0.2 ms to answer. The
        // sender stalls for 5 ms before request 3, so requests 3..=7 go out
        // late; their latency must include the time they waited to be sent.
        let interval = 1_000_000u64;
        let service = 200_000u64;
        let stall_until = 8 * interval;
        let latencies: Vec<u64> = (0..10u64)
            .map(|i| {
                let due = i * interval;
                let sent = if (3..8).contains(&i) {
                    due.max(stall_until)
                } else {
                    due
                };
                open_loop_latency_ns(due, sent + service)
            })
            .collect();
        assert_eq!(latencies[0], service);
        assert_eq!(latencies[3], 5 * interval + service);
        assert_eq!(latencies[7], interval + service);
        assert_eq!(latencies[8], service);
        // Taken from the send time instead, every request would read 0.2 ms.
        assert_eq!(open_loop_latency_ns(5, 3), 0);
    }

    #[test]
    fn fnv_and_rng_are_deterministic() {
        let mut a = Fnv::default();
        a.write(b"locate");
        let mut b = Fnv::default();
        b.write(b"loc");
        b.write(b"ate");
        assert_eq!(a.fold32(), b.fold32());
        let mut c = Fnv::default();
        c.write(b"ingest");
        assert_ne!(a.fold32(), c.fold32());
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..4).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }
}
