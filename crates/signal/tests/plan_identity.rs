//! Bit-identity of the plan-cached workspace transforms against the
//! reference FFT, and of a reused workspace against a fresh one, over
//! arbitrary lengths and contents.
//!
//! The identification pipeline's correctness contract for the workspace
//! layer is *exact* equality — same summation order, same bin grid — not
//! approximate agreement. Every comparison here is on `f64::to_bits`.

use proptest::prelude::*;
use taxilight_signal::fft::{eq1_spectrum, fft, ifft};
use taxilight_signal::interpolate::{resample, Method};
use taxilight_signal::periodogram::{PeriodBand, SpectrumPath};
use taxilight_signal::plan::FftPlan;
use taxilight_signal::{Complex64, SignalWorkspace};

fn complex_bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Arbitrary lengths spanning the interesting regimes: arbitrary short
/// vectors, a prime length, a power of two, and the paper's 3600-sample
/// window (content still varies via the drawn vector).
fn arbitrary_signal() -> impl Strategy<Value = Vec<f64>> {
    (0usize..4, prop::collection::vec(-60.0f64..60.0, 1..300)).prop_map(|(sel, xs)| {
        let stretch = |n: usize| -> Vec<f64> {
            (0..n).map(|k| xs[k % xs.len()] + (k / xs.len()) as f64).collect()
        };
        match sel {
            0 => xs,
            1 => stretch(3600),
            2 => stretch(2048),
            _ => stretch(997),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_fft_bit_identical_to_reference(sig in arbitrary_signal()) {
        let input: Vec<Complex64> =
            sig.iter().map(|&v| Complex64::new(v, -0.5 * v)).collect();
        let reference = fft(&input);

        let mut ws = SignalWorkspace::new();
        let mut buf = input.clone();
        ws.fft_in_place(&mut buf);
        prop_assert_eq!(complex_bits(&buf), complex_bits(&reference));

        // Direct plan use (no cache) must agree too.
        let mut buf2 = input;
        let mut scratch = Vec::new();
        FftPlan::new(buf2.len()).fft_in_place(&mut buf2, &mut scratch);
        prop_assert_eq!(complex_bits(&buf2), complex_bits(&reference));
    }

    #[test]
    fn plan_ifft_bit_identical_to_reference(sig in arbitrary_signal()) {
        let spectrum: Vec<Complex64> =
            sig.iter().map(|&v| Complex64::new(v, 0.25 * v + 1.0)).collect();
        let reference = ifft(&spectrum);
        let mut ws = SignalWorkspace::new();
        let mut buf = spectrum;
        ws.ifft_in_place(&mut buf);
        prop_assert_eq!(complex_bits(&buf), complex_bits(&reference));
    }

    #[test]
    fn plan_eq1_spectrum_bit_identical_to_reference(sig in arbitrary_signal()) {
        let reference = eq1_spectrum(&sig);
        let mut ws = SignalWorkspace::new();
        let mut out = Vec::new();
        ws.eq1_spectrum_into(&sig, &mut out);
        prop_assert_eq!(complex_bits(&out), complex_bits(&reference));
    }
}

/// One workspace, 100 heterogeneous calls — mixed lengths, methods, and
/// spectrum paths — must keep producing exactly what a fresh workspace
/// produces (and, for the Eq. (1) spectrum, the FFT reference). Any state
/// leaking between calls (stale buffer tails, wrong plan, dirty scratch)
/// shows up as a bit mismatch.
#[test]
fn workspace_reused_across_100_heterogeneous_calls_never_leaks_state() {
    let mut ws = SignalWorkspace::new();
    let band = PeriodBand::TRAFFIC_LIGHTS;
    let mut candidates = Vec::new();
    let mut grid = Vec::new();
    let mut spectrum = Vec::new();

    for call in 0..100u64 {
        // Deterministic per-call shape: length cycles through pow2, prime,
        // the paper's 3600, and small odd sizes; contents vary per call.
        let n = match call % 5 {
            0 => 256,
            1 => 997,
            2 => 3600,
            3 => 64,
            _ => 131 + (call as usize % 7) * 10,
        };
        let sig: Vec<f64> =
            (0..n).map(|k| ((k as u64 * 2654435761 + call * 97) % 1013) as f64 / 9.0).collect();
        let path = if call % 3 == 0 { SpectrumPath::PaddedPow2 } else { SpectrumPath::Exact };
        let refine = call % 4 == 1;

        // Period search vs a fresh workspace.
        let reference = SignalWorkspace::new().dominant_period(&sig, 1.0, band, refine, path);
        let got = ws.dominant_period(&sig, 1.0, band, refine, path);
        assert_eq!(
            got.map(|e| (e.bin, e.period.to_bits(), e.magnitude.to_bits(), e.snr.to_bits())),
            reference.map(|e| (e.bin, e.period.to_bits(), e.magnitude.to_bits(), e.snr.to_bits())),
            "call {call}: period search diverged"
        );

        // Candidate ranking vs a fresh workspace.
        let k = 1 + (call as usize % 6);
        ws.band_candidates_into(&sig, 1.0, band, k, path, &mut candidates);
        let mut reference_cands = Vec::new();
        SignalWorkspace::new().band_candidates_into(&sig, 1.0, band, k, path, &mut reference_cands);
        assert_eq!(candidates.len(), reference_cands.len(), "call {call}");
        for (a, b) in candidates.iter().zip(&reference_cands) {
            assert_eq!(a.period.to_bits(), b.period.to_bits(), "call {call}");
        }

        // Eq. (1) spectrum vs reference.
        ws.eq1_spectrum_into(&sig, &mut spectrum);
        assert_eq!(complex_bits(&spectrum), complex_bits(&eq1_spectrum(&sig)), "call {call}");

        // Resample vs a fresh workspace, rotating through every method.
        let method = match call % 3 {
            0 => Method::NearestOrZero,
            1 => Method::Linear,
            _ => Method::CubicSpline,
        };
        let samples: Vec<(f64, f64)> = (0..30)
            .map(|k| (k as f64 * 13.3 + (call % 2) as f64 * 0.4, (k * 7 % 19) as f64))
            .collect();
        ws.resample_into(&samples, 0.0, 1.0, 400, method, &mut grid).unwrap();
        let reference_grid = resample(&samples, 0.0, 1.0, 400, method).unwrap();
        assert_eq!(grid.len(), reference_grid.len(), "call {call}");
        for (a, b) in grid.iter().zip(&reference_grid) {
            assert_eq!(a.to_bits(), b.to_bits(), "call {call}: resample diverged");
        }
    }

    // Plans were actually reused: far fewer builds than lookups.
    let stats = ws.plan_stats();
    assert!(stats.hits() > stats.misses(), "expected cache reuse, got {stats:?}");
}
