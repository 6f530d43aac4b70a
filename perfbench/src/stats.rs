//! Percentiles and medians.

/// Percentiles a tail figure may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // Rounded to a millionth first, so that 99.9% of 10 000 is 9990, not
    // the 9991 that binary floating point would round up to.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when not even the median has.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// A latency distribution summarised the way the benchmark reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    pub p50: f64,
    /// Value at the reported tail percentile.
    pub tail: f64,
    /// The percentile `tail` was taken at: 99 when the sample supports it,
    /// otherwise the highest supported one (0 when none is).
    pub tail_pct: f64,
    pub count: usize,
    pub beyond: usize,
}

/// Summarises `samples` (sorted in place): median plus the 99th
/// percentile, or the highest percentile below it that the sample supports.
pub fn summarise(samples: &mut [f64]) -> Tail {
    summarise_at(samples, 99.0)
}

/// [`summarise`] with the tail read at `pct`, or at the highest supported
/// percentile below it.
pub fn summarise_at(samples: &mut [f64], pct: f64) -> Tail {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let tail_pct = tail_percentile(n).map_or(0.0, |p| p.min(pct));
    Tail {
        p50: percentile_sorted(samples, 50.0),
        tail: if tail_pct > 0.0 {
            percentile_sorted(samples, tail_pct)
        } else {
            0.0
        },
        tail_pct,
        count: n,
        beyond: if tail_pct > 0.0 {
            beyond(tail_pct, n)
        } else {
            0
        },
    }
}

/// The percentile the bounded tail latency (`latency_p99_us`) is read at.
pub const TAIL_PCT: f64 = 99.0;

/// Time windows a measured run is cut into.
pub const WINDOWS: usize = 80;

/// The share (%) of a run's windows each figure must hold in.
pub const HELD_PCT: f64 = 90.0;

/// The value that `pct`% of `values` meet or beat: the nearest-rank
/// `pct`th percentile, counted from the best value.
pub fn held(values: &[f64], pct: f64, lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    if lower_is_better {
        v.sort_by(f64::total_cmp);
    } else {
        v.sort_by(|a, b| b.total_cmp(a));
    }
    percentile_sorted(&v, pct)
}

/// One time window of a measured phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub secs: f64,
    /// Samples applied in the window.
    pub rows: u64,
    /// Process CPU seconds spent in the window.
    pub cpu_s: f64,
    /// Latencies (µs) of the calls or frames that fell in the window.
    pub latency_us: Vec<f64>,
}

impl Window {
    pub fn rate(&self) -> f64 {
        self.rows as f64 / self.secs
    }

    pub fn cpu_us_per_row(&self) -> f64 {
        self.cpu_s * 1e6 / self.rows.max(1) as f64
    }
}

/// The run's figures as the benchmark reports them. Each is the level
/// the program held in [`HELD_PCT`]% of the windows — the [`held`] value
/// of its per-window values — so a change that slows more than a fifth of
/// the windows moves it.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub throughput: f64,
    pub cpu_us_per_row: f64,
    /// Of each window's median latency.
    pub p50: f64,
    /// Of each window's tail percentile.
    pub tail: f64,
    /// Whether every window holds at least [`MIN_BEYOND`] latency samples
    /// beyond its tail percentile.
    pub tail_backed: bool,
    /// Latency samples in the smallest window.
    pub min_window_samples: usize,
    /// Windows the figures were read from.
    pub windows: usize,
}

/// The figures of `windows`, with the tail at [`TAIL_PCT`], held in
/// [`HELD_PCT`]% of them.
pub fn figures(windows: &[Window]) -> Figures {
    figures_at(windows, TAIL_PCT, HELD_PCT)
}

/// The figures of `windows` with the tail read at `pct`, held in `share`%
/// of them. Windows that applied nothing are left out.
pub fn figures_at(windows: &[Window], pct: f64, share: f64) -> Figures {
    let mut live: Vec<Window> = windows
        .iter()
        .filter(|w| w.rows > 0 && w.secs > 0.0)
        .cloned()
        .collect();
    for w in &mut live {
        w.latency_us.sort_by(f64::total_cmp);
    }
    let of = |f: &dyn Fn(&Window) -> f64, lower: bool| {
        held(&live.iter().map(f).collect::<Vec<_>>(), share, lower)
    };
    let min_window_samples = live.iter().map(|w| w.latency_us.len()).min().unwrap_or(0);
    Figures {
        throughput: of(&Window::rate, false),
        cpu_us_per_row: of(&Window::cpu_us_per_row, true),
        p50: of(&|w| percentile_sorted(&w.latency_us, 50.0), true),
        tail: of(&|w| percentile_sorted(&w.latency_us, pct), true),
        tail_backed: beyond(pct, min_window_samples) >= MIN_BEYOND,
        min_window_samples,
        windows: live.len(),
    }
}

/// A note on the windows behind the figures, with the 90th percentile
/// read the same way and the medians over windows beside them.
pub fn window_note(windows: &[Window]) -> String {
    let f = figures(windows);
    let m = figures_at(windows, TAIL_PCT, 50.0);
    format!(
        "figures: held in {HELD_PCT}% of {} windows of at least {} latency samples each; read the same way, p90 {:.2} us; medians over windows: {:.0} samples/s, p50 {:.2} us, p{TAIL_PCT} {:.2} us, {:.3} CPU us per sample",
        f.windows,
        f.min_window_samples,
        figures_at(windows, 90.0, HELD_PCT).tail,
        m.throughput,
        m.p50,
        m.tail,
        m.cpu_us_per_row,
    )
}

/// Median of a small list (averaging the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median (rank 10) has 10 beyond it.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // 100 samples: p90 is rank 90, 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // 1000 samples: p99 is rank 990, 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20, 100, 1000, 12_345, 100_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summarise_reports_p99_only_when_supported() {
        let mut small: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = summarise(&mut small);
        assert_eq!(t.tail_pct, 90.0);
        assert_eq!(t.tail, 450.0);
        assert_eq!(t.beyond, 50);
        let mut big: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let t = summarise(&mut big);
        assert_eq!(
            (t.p50, t.tail, t.tail_pct, t.beyond),
            (1000.0, 1980.0, 99.0, 20)
        );
    }

    #[test]
    fn held_counts_from_the_best_value() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // Eight of ten values are at most 8, and eight are at least 3.
        assert_eq!(held(&v, 80.0, true), 8.0);
        assert_eq!(held(&v, 80.0, false), 3.0);
        assert_eq!(held(&v, 50.0, true), 5.0);
        assert_eq!(held(&v, 50.0, false), 6.0);
    }

    #[test]
    fn figures_are_the_levels_held_in_most_windows() {
        let w = |rows: u64, cpu_s: f64, lat: f64| Window {
            secs: 1.0,
            rows,
            cpu_s,
            latency_us: (1..=200).map(|i| lat * f64::from(i) / 100.0).collect(),
        };
        let mut windows: Vec<Window> = (1..=9).map(|k| w(k * 10, 1.0, k as f64)).collect();
        // An empty window is left out.
        windows.push(w(0, 0.0, 0.0));
        // Held in 80% of nine live windows: each figure is the 8th best
        // (rank ⌈0.8 × 9⌉) of its per-window values: window k = 8's
        // latencies, and k = 2's throughput and CPU per row. A window's
        // 90th percentile is 1.8 times its level.
        let f = figures_at(&windows, 90.0, 80.0);
        assert_eq!(f.windows, 9);
        assert_eq!(f.throughput, 20.0);
        assert_eq!(f.cpu_us_per_row, 1e6 / 20.0);
        assert_eq!(f.p50, 8.0);
        assert_eq!(f.tail, 8.0 * 1.8);
        assert_eq!(figures_at(&windows, 90.0, 50.0).tail, 5.0 * 1.8);
        assert_eq!((f.tail_backed, f.min_window_samples), (true, 200));
        // The reported figures: the tail at TAIL_PCT, held in HELD_PCT.
        let g = figures(&windows);
        let r = figures_at(&windows, TAIL_PCT, HELD_PCT);
        assert_eq!((g.throughput, g.p50, g.tail), (r.throughput, r.p50, r.tail));
        // Of twenty like windows, slowing as many as HELD_PCT leaves
        // beyond its rank moves every figure; slowing one fewer moves
        // none.
        let like = vec![w(50, 1.0, 5.0); 20];
        let base = figures(&like);
        let slow = |n: usize| {
            let mut ws = like.clone();
            for x in ws.iter_mut().take(n) {
                x.rows = 1;
                x.latency_us.iter_mut().for_each(|l| *l *= 100.0);
            }
            figures(&ws)
        };
        let spared = (HELD_PCT / 100.0 * 20.0).ceil() as usize;
        let (fewer, enough) = (slow(20 - spared), slow(21 - spared));
        assert_eq!(
            (
                fewer.throughput,
                fewer.cpu_us_per_row,
                fewer.p50,
                fewer.tail
            ),
            (base.throughput, base.cpu_us_per_row, base.p50, base.tail)
        );
        assert!(enough.throughput < base.throughput);
        assert!(enough.cpu_us_per_row > base.cpu_us_per_row);
        assert!(enough.p50 > base.p50 && enough.tail > base.tail);
        // Each window needs ten samples beyond its tail percentile.
        let mut big: Vec<Window> = (1..=3).map(|k| w(k * 10, 1.0, k as f64)).collect();
        let need = (1..=100_000)
            .find(|&n| beyond(TAIL_PCT, n) >= MIN_BEYOND)
            .unwrap();
        for x in &mut big {
            x.latency_us = vec![1.0; need];
        }
        assert!(figures(&big).tail_backed);
        big[0].latency_us.truncate(need - 1);
        assert!(!figures(&big).tail_backed);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
