//! Order statistics shared by every workload.

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (rank `round((n-1)·q)` of
/// the ascending sort); `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(v[rank])
}

/// Median of `xs` (the mean of the two middle values when their number
/// is even); `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median over CPUs of each CPU's median, for samples tagged with the
/// CPU they ran on: the typical cost across the machine's CPUs,
/// wherever the scheduler would have put the thread.
pub fn per_cpu_median(samples: &[(usize, f64)]) -> Option<f64> {
    let mut cpus: Vec<usize> = samples.iter().map(|(c, _)| *c).collect();
    cpus.sort_unstable();
    cpus.dedup();
    let medians: Vec<f64> = cpus
        .iter()
        .filter_map(|&c| {
            let on_c: Vec<f64> = samples.iter().filter(|(k, _)| *k == c).map(|(_, v)| *v).collect();
            median(&on_c)
        })
        .collect();
    median(&medians)
}

/// Quantile `q` of a fixed-bucket histogram given as upper `bounds` and
/// `cumulative` counts (one more entry than `bounds`: the `+Inf` bucket),
/// interpolated linearly inside the bucket holding the target rank. The
/// first bucket's lower edge is 0; a rank in `+Inf` reads the last bound.
pub fn histogram_quantile(bounds: &[f64], cumulative: &[u64], q: f64) -> Option<f64> {
    let total = *cumulative.last()?;
    if total == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (k, &cum) in cumulative.iter().enumerate() {
        if cum as f64 >= target && cum > below {
            let Some(&hi) = bounds.get(k) else { return bounds.last().copied() };
            let lo = if k == 0 { 0.0 } else { bounds[k - 1] };
            let frac = (target - below as f64) / (cum - below) as f64;
            return Some(lo + (hi - lo) * frac);
        }
        below = cum;
    }
    bounds.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn per_cpu_median_weighs_each_cpu_once() {
        // CPU 1 is slower and got more samples; each CPU still counts once.
        let samples = [(0, 55.0), (0, 56.0), (0, 54.0), (1, 95.0), (1, 96.0), (1, 94.0), (1, 97.0)];
        assert_eq!(per_cpu_median(&samples), Some((55.0 + 95.5) / 2.0));
        assert_eq!(per_cpu_median(&[]), None);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 10 observations ≤ 1, 10 more in (1, 2].
        let bounds = [1.0, 2.0];
        let cum = [10, 20, 20];
        assert_eq!(histogram_quantile(&bounds, &cum, 0.5), Some(1.0));
        assert_eq!(histogram_quantile(&bounds, &cum, 0.75), Some(1.5));
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 0], 0.5), None);
        // Everything in +Inf reads the last finite bound.
        assert_eq!(histogram_quantile(&bounds, &[0, 0, 4], 0.5), Some(2.0));
    }
}
