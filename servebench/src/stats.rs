//! The benchmark's own statistics: percentiles under the "ten samples beyond"
//! rule, medians across rounds, span self time and metric-name validation.

/// A percentile read from a sample set, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pctl {
    /// The percentile actually reported (may be lower than asked for).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
}

/// Percentiles a tail figure may fall back to, highest first.
const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Index of the nearest-rank `pct` percentile in `n` sorted samples.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The median (nearest rank) of `samples`; `None` when empty.
pub fn p50(samples: &[f64]) -> Option<Pctl> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (!s.is_empty()).then(|| Pctl {
        pct: 50.0,
        value: s[rank(50.0, s.len())],
        n: s.len(),
    })
}

/// The highest percentile, at most `cap`, that has at least ten samples
/// beyond it. A tail figure read from fewer samples would repeat one or two
/// outliers, so with too few samples the reported percentile drops (and the
/// returned `pct` says so) instead of inventing precision.
pub fn tail(samples: &[f64], cap: f64) -> Option<Pctl> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let pct = LADDER
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| n - 1 - rank(p, n) >= 10)
        .unwrap_or(0.0);
    Some(Pctl {
        pct,
        value: s[rank(pct, n)],
        n,
    })
}

/// The median for `pct` 50, otherwise the tail under the ten-beyond rule;
/// 0 without samples.
pub fn pct_value(samples: &[f64], pct: f64) -> f64 {
    let p = if pct == 50.0 {
        p50(samples)
    } else {
        tail(samples, pct)
    };
    p.map_or(0.0, |p| p.value)
}

/// Split `samples` (in the order taken) into consecutive windows of `size`
/// and read the `pct` percentile of each (see [`pct_value`]). A trailing
/// partial window is dropped unless it is the only one.
pub fn window_values(samples: &[f64], size: usize, pct: f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let windows: Vec<&[f64]> = if samples.len() < size.max(1) {
        vec![samples]
    } else {
        samples.chunks_exact(size).collect()
    };
    windows.iter().map(|w| pct_value(w, pct)).collect()
}

/// Median of per-round figures (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    p50(values).map_or(0.0, |p| p.value)
}

/// One recorded span: a timed call into a layer, linked to the span that
/// caused it. Spans of one round share `request`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once). Returned in
/// the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Metric names: 1 to 64 characters of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1010 samples: rank(99) = 999, leaving exactly 10 beyond.
        let p = tail(&ramp(1010), 99.0).unwrap();
        assert_eq!((p.pct, p.value, p.n), (99.0, 1000.0, 1010));
        let p = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.pct, p.value), (99.0, 990.0));
        // 999 samples leave only 9 beyond p99: fall back to p95.
        let p = tail(&ramp(999), 99.0).unwrap();
        assert_eq!((p.pct, p.value, p.n), (95.0, 950.0, 999));
        // The cap is respected even when p99.9 would be supported.
        let p = tail(&ramp(100_000), 99.0).unwrap();
        assert_eq!((p.pct, p.value), (99.0, 99_000.0));
        assert_eq!(tail(&ramp(100_000), 99.9).unwrap().pct, 99.9);
    }

    #[test]
    fn tiny_samples_fall_to_the_bottom_of_the_ladder() {
        // 15 samples: p50 has 7 beyond, so only the minimum qualifies.
        let p = tail(&ramp(15), 99.0).unwrap();
        assert_eq!((p.pct, p.value), (0.0, 1.0));
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(p50(&[5.0]).unwrap().n, 1);
    }

    #[test]
    fn windows_give_one_percentile_each() {
        // Three windows of 1010; the middle one is shifted up by 5000.
        let mut s = ramp(1010);
        s.extend(ramp(1010).iter().map(|x| x + 5000.0));
        s.extend(ramp(1010));
        s.extend(ramp(7)); // partial window, dropped
        assert_eq!(window_values(&s, 1010, 99.0), vec![1000.0, 6000.0, 1000.0]);
        assert_eq!(median(&window_values(&s, 1010, 50.0)), 505.0);
        // Fewer samples than one window: the whole set is the window.
        assert_eq!(window_values(&ramp(15), 1000, 50.0), vec![8.0]);
        assert!(window_values(&[], 1000, 50.0).is_empty());
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            // Overlaps span 2: the union [10, 50) counts once.
            span(3, 1, 20, 50),
            // Grandchild: charged to span 3, not to span 1.
            span(4, 3, 25, 45),
            // Runs past its parent's end: only the covered part counts.
            span(5, 1, 90, 120),
            span(6, 0, 200, 210),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 30, 10]);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "server.query_us.q3.p99",
            "stage.wal_append.sum_ms",
            "9x-y",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "q{1}", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
