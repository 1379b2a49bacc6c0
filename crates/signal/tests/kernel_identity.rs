//! Differential proptests for the kernel layer: every public kernel entry
//! point (the compiled-in path — SSE2 on `x86_64`) must match its scalar
//! reference **bit for bit** (`f64::to_bits`) on arbitrary finite inputs —
//! including non-multiple-of-lane-width tails, empty, and 1-element
//! slices.
//!
//! This holds for *all* kernels, not only the "bit-identity class": the
//! reassociating reductions changed their order relative to the pre-kernel
//! code, but the scalar 4-lane code and the SSE2 path reassociate
//! *identically*, so every target computes the same bits.

use proptest::prelude::*;
use taxilight_signal::kernels::{self, scalar};
use taxilight_signal::Complex64;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cbits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// Lengths that exercise empty, single-element, sub-lane, exact-lane, and
/// ragged-tail regimes (the drawn vector is cycled/stretched to `len`).
fn vec_with_ragged_len(max: usize) -> impl Strategy<Value = Vec<f64>> {
    (0usize..=max, prop::collection::vec(-1.0e6f64..1.0e6, 1..64)).prop_map(|(len, xs)| {
        (0..len).map(|k| xs[k % xs.len()] * (1.0 + (k / xs.len()) as f64 * 0.01)).collect()
    })
}

fn complex_vec(max: usize) -> impl Strategy<Value = Vec<Complex64>> {
    (vec_with_ragged_len(max), 0u64..u64::MAX).prop_map(|(xs, salt)| {
        xs.iter()
            .enumerate()
            .map(|(k, &re)| Complex64::new(re, re * 0.7 - (k as f64) - (salt % 97) as f64))
            .collect()
    })
}

/// Strictly increasing finite sample points plus a regular query grid.
fn points_and_grid() -> impl Strategy<Value = (Vec<(f64, f64)>, f64, f64, usize)> {
    (
        prop::collection::vec((0.1f64..20.0, -500.0f64..500.0), 1..60),
        -100.0f64..100.0,
        0.01f64..30.0,
        0usize..300,
    )
        .prop_map(|(deltas, t0, dt, count)| {
            let mut t = -50.0;
            let points: Vec<(f64, f64)> = deltas
                .into_iter()
                .map(|(d, y)| {
                    t += d;
                    (t, y)
                })
                .collect();
            (points, t0, dt, count)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sum_paths_bitwise_equal(xs in vec_with_ragged_len(300)) {
        prop_assert_eq!(scalar::sum(&xs).to_bits(), kernels::sum(&xs).to_bits());
    }

    #[test]
    fn dot_paths_bitwise_equal(xs in vec_with_ragged_len(300)) {
        let ys: Vec<f64> = xs.iter().rev().map(|v| v * 0.3 + 1.0).collect();
        prop_assert_eq!(scalar::dot(&xs, &ys).to_bits(), kernels::dot(&xs, &ys).to_bits());
    }

    #[test]
    fn sum_sq_diff_paths_bitwise_equal(xs in vec_with_ragged_len(300), m in -100.0f64..100.0) {
        prop_assert_eq!(
            scalar::sum_sq_diff(&xs, m).to_bits(),
            kernels::sum_sq_diff(&xs, m).to_bits()
        );
    }

    #[test]
    fn magnitudes_paths_bitwise_equal(spec in complex_vec(257)) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::magnitudes_into(&spec, &mut a);
        kernels::magnitudes_into(&spec, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn subtract_scalar_paths_bitwise_equal(xs in vec_with_ragged_len(257), m in -50.0f64..50.0) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::subtract_scalar_into(&xs, m, &mut a);
        kernels::subtract_scalar_into(&xs, m, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn divide_paths_bitwise_equal(xs in vec_with_ragged_len(257), d in 0.001f64..1000.0) {
        let mut a = xs.clone();
        let mut b = xs;
        scalar::divide_in_place(&mut a, d);
        kernels::divide_in_place(&mut b, d);
        prop_assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn butterfly_paths_bitwise_equal(buf in complex_vec(128), stage_sel in 0usize..8) {
        // Pad to ≥ 2 elements, then round down to a power-of-two length
        // and pick a valid stage half-size for it.
        let mut buf = buf;
        while buf.len() < 2 {
            buf.push(Complex64::new(1.5, -2.5));
        }
        let n = if buf.len().is_power_of_two() {
            buf.len()
        } else {
            buf.len().next_power_of_two() / 2
        };
        let buf = &buf[..n];
        let half = 1usize << (stage_sel % n.trailing_zeros() as usize);
        let step = -std::f64::consts::PI / half as f64;
        let w_base = Complex64::cis(step);
        let mut w = Complex64::ONE;
        let tw: Vec<Complex64> = (0..half)
            .map(|_| {
                let cur = w;
                w *= w_base;
                cur
            })
            .collect();
        let mut a = buf.to_vec();
        let mut b = buf.to_vec();
        scalar::butterfly_stage(&mut a, half, &tw);
        kernels::butterfly_stage(&mut b, half, &tw);
        prop_assert_eq!(cbits(&a), cbits(&b));
    }

    #[test]
    fn cmul_paths_bitwise_equal(a in complex_vec(257)) {
        let b: Vec<Complex64> =
            a.iter().rev().map(|c| Complex64::new(c.im * 0.9, c.re + 2.0)).collect();
        let mut out_s = vec![Complex64::ZERO; a.len()];
        let mut out_v = vec![Complex64::ZERO; a.len()];
        scalar::cmul_into(&a, &b, &mut out_s);
        kernels::cmul_into(&a, &b, &mut out_v);
        prop_assert_eq!(cbits(&out_s), cbits(&out_v));

        let mut in_s = a.clone();
        let mut in_v = a;
        scalar::cmul_in_place(&mut in_s, &b);
        kernels::cmul_in_place(&mut in_v, &b);
        prop_assert_eq!(cbits(&in_s), cbits(&in_v));
    }

    #[test]
    fn conj_paths_bitwise_equal(a in complex_vec(257), k in -10.0f64..10.0) {
        let mut c_s = a.clone();
        let mut c_v = a.clone();
        scalar::conj_in_place(&mut c_s);
        kernels::conj_in_place(&mut c_v);
        prop_assert_eq!(cbits(&c_s), cbits(&c_v));

        let mut s_s = a.clone();
        let mut s_v = a;
        scalar::conj_scale_in_place(&mut s_s, k);
        kernels::conj_scale_in_place(&mut s_v, k);
        prop_assert_eq!(cbits(&s_s), cbits(&s_v));
    }

    #[test]
    fn lerp_grid_paths_match_legacy_eval(input in points_and_grid()) {
        let (points, t0, dt, count) = input;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::lerp_grid_into(&points, t0, dt, count, &mut a);
        kernels::lerp_grid_into(&points, t0, dt, count, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
        // Both paths must also reproduce the legacy per-point binary-search
        // evaluation (the bit-identity-class contract).
        let legacy: Vec<f64> = (0..count)
            .map(|k| {
                taxilight_signal::interpolate::linear_interpolate(
                    &points,
                    &[t0 + dt * k as f64],
                )
                .unwrap()[0]
            })
            .collect();
        prop_assert_eq!(bits(&a), bits(&legacy));
    }

    #[test]
    fn spline_grid_paths_match_legacy_eval(input in points_and_grid()) {
        let (points, t0, dt, count) = input;
        let spline = taxilight_signal::interpolate::CubicSpline::new(&points).unwrap();
        // Recover the knot second-derivatives via the free resample path:
        // compare kernel output against `sample_grid`, which evaluates the
        // legacy per-point expression.
        let legacy = spline.sample_grid(t0, dt, count);
        let ws_out = {
            let mut ws = taxilight_signal::SignalWorkspace::new();
            let mut out = Vec::new();
            ws.resample_into(
                &points,
                t0,
                dt.max(0.01),
                count,
                taxilight_signal::interpolate::Method::CubicSpline,
                &mut out,
            )
            .ok();
            out
        };
        // `resample_into` merges same-slot points first, so only compare
        // when merging is a no-op (all knots in distinct unit slots).
        let distinct_slots = points
            .windows(2)
            .all(|w| w[0].0.floor() != w[1].0.floor());
        let all_on_slots = points.iter().all(|&(t, _)| t == t.floor());
        if distinct_slots && all_on_slots {
            prop_assert_eq!(bits(&ws_out), bits(&legacy));
        }
    }

    #[test]
    fn circular_moving_average_paths_bitwise_equal(
        xs in vec_with_ragged_len(257),
        w in 0usize..400,
    ) {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::circular_moving_average_into(&xs, w, &mut a);
        kernels::circular_moving_average_into(&xs, w, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));
    }
}

#[test]
fn empty_and_single_element_inputs() {
    assert_eq!(scalar::sum(&[]).to_bits(), kernels::sum(&[]).to_bits());
    assert_eq!(scalar::sum(&[3.5]).to_bits(), kernels::sum(&[3.5]).to_bits());
    assert_eq!(scalar::dot(&[], &[]).to_bits(), kernels::dot(&[], &[]).to_bits());
    assert_eq!(scalar::dot(&[2.0], &[-4.0]).to_bits(), kernels::dot(&[2.0], &[-4.0]).to_bits());

    let (mut a, mut b) = (Vec::new(), Vec::new());
    scalar::magnitudes_into(&[], &mut a);
    kernels::magnitudes_into(&[], &mut b);
    assert!(a.is_empty() && b.is_empty());
    let one = [Complex64::new(3.0, -4.0)];
    scalar::magnitudes_into(&one, &mut a);
    kernels::magnitudes_into(&one, &mut b);
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(a, vec![5.0]);

    scalar::circular_moving_average_into(&[], 5, &mut a);
    kernels::circular_moving_average_into(&[], 5, &mut b);
    assert!(a.is_empty() && b.is_empty());
    scalar::circular_moving_average_into(&[7.0], 0, &mut a);
    kernels::circular_moving_average_into(&[7.0], 0, &mut b);
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(a, vec![7.0]);
}

#[test]
fn lerp_grid_non_monotone_fallback_matches() {
    // dt <= 0 routes both paths through the legacy per-point evaluation
    // (queries are not nondecreasing); outputs must still agree bitwise.
    // Non-finite t0 is excluded: the legacy evaluator itself panics on a
    // NaN query, and both paths share that evaluator.
    let points = vec![(0.0, 1.0), (10.0, 5.0), (20.0, -3.0)];
    for (t0, dt) in [(5.0, -1.0), (5.0, 0.0), (-3.0, -0.25)] {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::lerp_grid_into(&points, t0, dt, 7, &mut a);
        kernels::lerp_grid_into(&points, t0, dt, 7, &mut b);
        assert_eq!(bits(&a), bits(&b), "t0={t0} dt={dt}");
    }
}

#[test]
fn active_path_name_follows_target_arch() {
    let expected = if cfg!(target_arch = "x86_64") { "sse2" } else { "scalar" };
    assert_eq!(kernels::active_path_name(), expected);
}
