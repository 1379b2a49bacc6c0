//! Autocorrelation-based period detection — an alternative to the paper's
//! frequency-domain estimator, included for the DESIGN.md method ablation.
//!
//! The autocorrelation of a periodic signal peaks at lags that are
//! multiples of the period; scanning the admissible lag band for the
//! strongest normalized peak yields the period directly in the time
//! domain. Computed via FFT (Wiener–Khinchin) in `O(N log N)`.

use crate::fft::{fft, ifft, next_power_of_two};
use crate::periodogram::{PeriodBand, PeriodEstimate};
use crate::Complex64;

/// Biased, mean-removed autocorrelation `r[k]` for lags `0 ..= max_lag`,
/// normalized so `r[0] = 1`. Returns an empty vector for signals shorter
/// than 2 samples or with zero variance.
pub fn autocorrelation(signal: &[f64], max_lag: usize) -> Vec<f64> {
    let n = signal.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = signal.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = signal.iter().map(|v| v - mean).collect();
    let energy: f64 = centered.iter().map(|v| v * v).sum();
    if energy <= 1e-12 {
        return Vec::new();
    }
    // Wiener–Khinchin with zero padding to avoid circular wrap.
    let m = next_power_of_two(2 * n);
    let mut buf = vec![Complex64::ZERO; m];
    for (dst, &src) in buf.iter_mut().zip(&centered) {
        *dst = Complex64::from_real(src);
    }
    let spec = fft(&buf);
    let power: Vec<Complex64> = spec.iter().map(|c| Complex64::from_real(c.norm_sqr())).collect();
    let corr = ifft(&power);
    let max_lag = max_lag.min(n - 1);
    (0..=max_lag).map(|k| corr[k].re / energy).collect()
}

/// Finds the dominant period via the strongest autocorrelation peak whose
/// lag falls inside `band`. Returns `None` when the signal is too short,
/// flat, or no local peak exists in the band.
///
/// The `snr` of the estimate is the peak value divided by the median
/// autocorrelation magnitude in the band (mirroring the periodogram's
/// convention), and `magnitude` is the raw `r[lag] ∈ [-1, 1]`.
pub fn dominant_period_autocorr(
    signal: &[f64],
    sample_dt: f64,
    band: PeriodBand,
) -> Option<PeriodEstimate> {
    assert!(sample_dt > 0.0, "sample_dt must be positive");
    let lo = (band.min_period / sample_dt).floor().max(1.0) as usize;
    let hi = (band.max_period / sample_dt).ceil() as usize;
    let r = autocorrelation(signal, hi + 1);
    if r.len() <= lo + 1 {
        return None;
    }
    let hi = hi.min(r.len().saturating_sub(2));

    // Strongest *local* maximum in the band (endpoints excluded so the
    // r[0] = 1 peak cannot leak in).
    let mut best: Option<(usize, f64)> = None;
    for k in lo.max(1)..=hi {
        if r[k] >= r[k - 1] && r[k] >= r[k + 1] && best.is_none_or(|(_, v)| r[k] > v) {
            best = Some((k, r[k]));
        }
    }
    let (lag, value) = best?;
    if value <= 0.0 {
        return None;
    }
    let mut mags: Vec<f64> = r[lo..=hi].iter().map(|v| v.abs()).collect();
    mags.sort_by(f64::total_cmp);
    let median = mags[mags.len() / 2];
    Some(PeriodEstimate {
        period: lag as f64 * sample_dt,
        bin: lag,
        magnitude: value,
        snr: if median > 0.0 { value / median } else { f64::INFINITY },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(n: usize, period: usize, duty: f64) -> Vec<f64> {
        (0..n)
            .map(|k| if (k % period) < (period as f64 * duty) as usize { 2.0 } else { 40.0 })
            .collect()
    }

    #[test]
    fn r0_is_one_and_bounded() {
        let x = square(1000, 90, 0.4);
        let r = autocorrelation(&x, 300);
        assert!((r[0] - 1.0).abs() < 1e-9);
        for (k, &v) in r.iter().enumerate() {
            assert!(v <= 1.0 + 1e-9, "r[{k}] = {v}");
        }
    }

    #[test]
    fn peak_at_the_period() {
        let x = square(3600, 98, 0.4);
        let est = dominant_period_autocorr(&x, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert!((est.period - 98.0).abs() <= 1.0, "period {}", est.period);
        assert!(est.magnitude > 0.5);
        assert!(est.snr > 1.5);
    }

    #[test]
    fn sine_period_recovered() {
        let x: Vec<f64> = (0..2400)
            .map(|k| 20.0 + 5.0 * (2.0 * std::f64::consts::PI * k as f64 / 130.0).sin())
            .collect();
        let est = dominant_period_autocorr(&x, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert!((est.period - 130.0).abs() <= 1.5, "period {}", est.period);
    }

    #[test]
    fn agrees_with_periodogram_on_clean_signals() {
        use crate::periodogram::SpectrumPath;
        let mut ws = crate::SignalWorkspace::new();
        for period in [60.0f64, 97.0, 151.0, 240.0] {
            let x: Vec<f64> = (0..3600)
                .map(|k| 15.0 + 8.0 * (2.0 * std::f64::consts::PI * k as f64 / period).cos())
                .collect();
            let a = dominant_period_autocorr(&x, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
            let d = ws
                .dominant_period(&x, 1.0, PeriodBand::TRAFFIC_LIGHTS, false, SpectrumPath::Exact)
                .unwrap();
            assert!(
                (a.period - d.period).abs() < 4.0,
                "period {period}: autocorr {} vs dft {}",
                a.period,
                d.period
            );
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(autocorrelation(&[], 10).is_empty());
        assert!(autocorrelation(&[1.0], 10).is_empty());
        assert!(autocorrelation(&[5.0; 100], 10).is_empty(), "flat signal has no variance");
        assert!(dominant_period_autocorr(&[1.0; 40], 1.0, PeriodBand::TRAFFIC_LIGHTS).is_none());
        // Too short to hold the band.
        let x = square(40, 20, 0.5);
        assert!(dominant_period_autocorr(&x, 1.0, PeriodBand::new(100.0, 300.0)).is_none());
    }

    #[test]
    fn sample_dt_scales_lag() {
        let x = square(1800, 45, 0.4); // 45 samples/period at dt = 2 s → 90 s
        let est = dominant_period_autocorr(&x, 2.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
        assert!((est.period - 90.0).abs() <= 2.0, "period {}", est.period);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn planted_square_recovered(period in 40usize..250, duty in 0.25f64..0.75) {
                let x = square(period * 25, period, duty);
                let est = dominant_period_autocorr(&x, 1.0, PeriodBand::TRAFFIC_LIGHTS).unwrap();
                prop_assert!((est.period - period as f64).abs() <= 2.0,
                             "period {} est {}", period, est.period);
            }

            #[test]
            fn autocorr_values_bounded(xs in prop::collection::vec(-30.0f64..60.0, 2..400)) {
                for v in autocorrelation(&xs, 100) {
                    prop_assert!(v.abs() <= 1.0 + 1e-6);
                }
            }
        }
    }
}
