//! Interpolation of sparse, irregular samples onto a regular grid.
//!
//! Taxi updates arrive tens of seconds apart and several taxis can report in
//! the same second. The paper (Sec. V-A) first merges same-second reports by
//! their mean, then uses **spline interpolation** to build a smooth 1 Hz
//! speed signal as DFT input — negative interpolated speeds are explicitly
//! tolerated because only the periodicity matters. This module provides that
//! machinery: same-time merging ([`merge_coincident`]), linear
//! interpolation, and a natural cubic spline (tridiagonal/Thomas solve).

/// Errors from constructing an interpolant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpolateError {
    /// No input samples were supplied.
    Empty,
    /// Sample abscissae must be strictly increasing; the offending index is
    /// the later of the two conflicting samples.
    NotStrictlyIncreasing(usize),
    /// A sample coordinate was NaN or infinite.
    NonFinite(usize),
}

impl std::fmt::Display for InterpolateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpolateError::Empty => write!(f, "no samples to interpolate"),
            InterpolateError::NotStrictlyIncreasing(i) => {
                write!(f, "sample times not strictly increasing at index {i}")
            }
            InterpolateError::NonFinite(i) => write!(f, "non-finite sample at index {i}"),
        }
    }
}

impl std::error::Error for InterpolateError {}

pub(crate) fn validate(points: &[(f64, f64)]) -> Result<(), InterpolateError> {
    if points.is_empty() {
        return Err(InterpolateError::Empty);
    }
    for (i, &(x, y)) in points.iter().enumerate() {
        if !x.is_finite() || !y.is_finite() {
            return Err(InterpolateError::NonFinite(i));
        }
        if i > 0 && points[i - 1].0 >= x {
            return Err(InterpolateError::NotStrictlyIncreasing(i));
        }
    }
    Ok(())
}

/// Merges samples whose abscissae fall in the same unit-width slot
/// (`t.floor()`), replacing each group by `(slot, mean value)`.
///
/// This is the paper's rule for "more than one record in a second": the mean
/// is used as the interpolation input. Input need not be sorted; output is
/// sorted and strictly increasing, ready for the interpolants here.
pub fn merge_coincident(samples: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    crate::SignalWorkspace::new().merge_coincident_into(samples, &mut out);
    out
}

/// Piecewise-linear interpolation of `points` (strictly increasing in x) at
/// each query in `xs`. Queries outside the sample range are clamped to the
/// boundary values.
pub fn linear_interpolate(points: &[(f64, f64)], xs: &[f64]) -> Result<Vec<f64>, InterpolateError> {
    validate(points)?;
    Ok(xs.iter().map(|&x| linear_eval(points, x)).collect())
}

pub(crate) fn linear_eval(points: &[(f64, f64)], x: f64) -> f64 {
    let n = points.len();
    if x <= points[0].0 {
        return points[0].1;
    }
    if x >= points[n - 1].0 {
        return points[n - 1].1;
    }
    // partition_point returns the first index with t > x; the segment is
    // [idx-1, idx].
    let idx = points.partition_point(|&(t, _)| t <= x);
    let (x0, y0) = points[idx - 1];
    let (x1, y1) = points[idx];
    let w = (x - x0) / (x1 - x0);
    y0 + w * (y1 - y0)
}

/// A natural cubic spline through strictly increasing sample points.
///
/// "Natural" boundary conditions (zero second derivative at both ends) match
/// the standard textbook construction; evaluation outside the sample range
/// clamps to the boundary values, which is the safe choice when the caller's
/// analysis window slightly overhangs the data.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots (zero at both ends).
    m: Vec<f64>,
}

impl CubicSpline {
    /// Builds the spline. With one point the spline is constant; with two it
    /// degenerates to the connecting line.
    pub fn new(points: &[(f64, f64)]) -> Result<Self, InterpolateError> {
        validate(points)?;
        let n = points.len();
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        if n < 3 {
            return Ok(CubicSpline { xs, ys, m: vec![0.0; n] });
        }

        // Solve the tridiagonal system for interior second derivatives
        // (Thomas algorithm). Natural BCs: m[0] = m[n-1] = 0.
        let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let interior = n - 2;
        let mut diag = vec![0.0; interior];
        let mut rhs = vec![0.0; interior];
        let mut sub = vec![0.0; interior]; // sub[i] couples unknown i to i-1
        let mut sup = vec![0.0; interior]; // sup[i] couples unknown i to i+1
        for i in 0..interior {
            let hi = h[i];
            let hi1 = h[i + 1];
            diag[i] = 2.0 * (hi + hi1);
            sub[i] = hi;
            sup[i] = hi1;
            rhs[i] = 6.0 * ((ys[i + 2] - ys[i + 1]) / hi1 - (ys[i + 1] - ys[i]) / hi);
        }
        // Forward elimination.
        for i in 1..interior {
            let w = sub[i] / diag[i - 1];
            diag[i] -= w * sup[i - 1];
            rhs[i] -= w * rhs[i - 1];
        }
        // Back substitution.
        let mut m = vec![0.0; n];
        if interior > 0 {
            m[n - 2] = rhs[interior - 1] / diag[interior - 1];
            for i in (0..interior - 1).rev() {
                m[i + 1] = (rhs[i] - sup[i] * m[i + 2]) / diag[i];
            }
        }
        Ok(CubicSpline { xs, ys, m })
    }

    /// Number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the spline has no knots (never constructible; kept for API
    /// symmetry with `len`).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Evaluates the spline at `x`, clamping outside the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if n == 1 || x <= self.xs[0] {
            return if x <= self.xs[0] { self.ys[0] } else { self.ys[n - 1] };
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let idx = self.xs.partition_point(|&t| t <= x);
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        let (m0, m1) = (self.m[idx - 1], self.m[idx]);
        let h = x1 - x0;
        let a = (x1 - x) / h;
        let b = (x - x0) / h;
        a * y0 + b * y1 + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0
    }

    /// Evaluates the spline at many points.
    pub fn eval_many(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Samples the spline on the regular grid `t0, t0+dt, …` with `count`
    /// points.
    pub fn sample_grid(&self, t0: f64, dt: f64, count: usize) -> Vec<f64> {
        (0..count).map(|k| self.eval(t0 + dt * k as f64)).collect()
    }
}

/// How to turn irregular samples into a regular grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// No interpolation: grid slots without a sample become 0. Used as the
    /// DESIGN.md ablation baseline.
    NearestOrZero,
    /// Piecewise linear.
    Linear,
    /// Natural cubic spline (the paper's choice).
    CubicSpline,
}

/// Resamples irregular `(t, v)` samples onto the regular grid
/// `t0, t0+dt, …` (`count` points) after same-slot mean-merging. A
/// convenience over a temporary [`SignalWorkspace`](crate::SignalWorkspace),
/// which holds the algorithm.
///
/// Returns `Err(Empty)` when no finite samples exist.
pub fn resample(
    samples: &[(f64, f64)],
    t0: f64,
    dt: f64,
    count: usize,
    method: Method,
) -> Result<Vec<f64>, InterpolateError> {
    let mut grid = Vec::new();
    crate::SignalWorkspace::new().resample_into(samples, t0, dt, count, method, &mut grid)?;
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_averages_same_second() {
        let s = vec![(10.2, 4.0), (10.7, 6.0), (20.0, 3.0)];
        let merged = merge_coincident(&s);
        assert_eq!(merged, vec![(10.0, 5.0), (20.0, 3.0)]);
    }

    #[test]
    fn merge_sorts_and_drops_non_finite() {
        let s = vec![(30.0, 1.0), (f64::NAN, 2.0), (10.0, 3.0), (20.0, f64::INFINITY)];
        let merged = merge_coincident(&s);
        assert_eq!(merged, vec![(10.0, 3.0), (30.0, 1.0)]);
    }

    #[test]
    fn merge_empty() {
        assert!(merge_coincident(&[]).is_empty());
    }

    #[test]
    fn linear_hits_knots_and_midpoints() {
        let pts = vec![(0.0, 0.0), (10.0, 20.0), (20.0, 0.0)];
        let out = linear_interpolate(&pts, &[0.0, 5.0, 10.0, 15.0, 20.0]).unwrap();
        assert_eq!(out, vec![0.0, 10.0, 20.0, 10.0, 0.0]);
    }

    #[test]
    fn linear_clamps_outside_range() {
        let pts = vec![(0.0, 1.0), (10.0, 3.0)];
        let out = linear_interpolate(&pts, &[-5.0, 15.0]).unwrap();
        assert_eq!(out, vec![1.0, 3.0]);
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(linear_interpolate(&[], &[0.0]).unwrap_err(), InterpolateError::Empty);
        assert_eq!(
            linear_interpolate(&[(0.0, 1.0), (0.0, 2.0)], &[0.0]).unwrap_err(),
            InterpolateError::NotStrictlyIncreasing(1)
        );
        assert_eq!(
            CubicSpline::new(&[(0.0, f64::NAN)]).unwrap_err(),
            InterpolateError::NonFinite(0)
        );
        // Display formatting is exercised for coverage of error paths.
        assert!(InterpolateError::Empty.to_string().contains("no samples"));
    }

    #[test]
    fn spline_single_point_is_constant() {
        let s = CubicSpline::new(&[(5.0, 7.0)]).unwrap();
        assert_eq!(s.eval(0.0), 7.0);
        assert_eq!(s.eval(5.0), 7.0);
        assert_eq!(s.eval(100.0), 7.0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn spline_two_points_is_linear() {
        let s = CubicSpline::new(&[(0.0, 0.0), (10.0, 5.0)]).unwrap();
        assert!((s.eval(4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spline_interpolates_knots_exactly() {
        let pts = vec![(0.0, 1.0), (1.0, -1.0), (2.5, 4.0), (4.0, 0.0), (6.0, 2.0)];
        let s = CubicSpline::new(&pts).unwrap();
        for &(x, y) in &pts {
            assert!((s.eval(x) - y).abs() < 1e-10, "knot ({x},{y}) missed: {}", s.eval(x));
        }
    }

    #[test]
    fn spline_reproduces_a_line_exactly() {
        // A natural cubic spline through collinear points is that line.
        let pts: Vec<(f64, f64)> = (0..8).map(|k| (k as f64, 3.0 * k as f64 - 2.0)).collect();
        let s = CubicSpline::new(&pts).unwrap();
        for k in 0..70 {
            let x = k as f64 * 0.1;
            assert!((s.eval(x) - (3.0 * x - 2.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn spline_is_smooth_between_knots() {
        // The spline of sin(x) sampled coarsely should track sin closely.
        let pts: Vec<(f64, f64)> = (0..=12)
            .map(|k| {
                let x = k as f64 * 0.5;
                (x, x.sin())
            })
            .collect();
        let s = CubicSpline::new(&pts).unwrap();
        let mut max_err: f64 = 0.0;
        for k in 0..=120 {
            let x = 0.5 + k as f64 * (5.0 / 120.0); // stay inside, skip edges
            max_err = max_err.max((s.eval(x) - x.sin()).abs());
        }
        assert!(max_err < 0.01, "spline error too large: {max_err}");
    }

    #[test]
    fn spline_clamps_outside() {
        let s = CubicSpline::new(&[(0.0, 2.0), (1.0, 3.0), (2.0, 1.0)]).unwrap();
        assert_eq!(s.eval(-10.0), 2.0);
        assert_eq!(s.eval(10.0), 1.0);
    }

    #[test]
    fn sample_grid_matches_eval() {
        let s = CubicSpline::new(&[(0.0, 0.0), (5.0, 10.0), (10.0, 0.0)]).unwrap();
        let grid = s.sample_grid(0.0, 2.5, 5);
        assert_eq!(grid.len(), 5);
        for (k, g) in grid.iter().enumerate() {
            assert_eq!(*g, s.eval(2.5 * k as f64));
        }
    }

    #[test]
    fn resample_methods_agree_on_knots() {
        let samples = vec![(0.0, 5.0), (10.0, 15.0), (20.0, 5.0)];
        for method in [Method::Linear, Method::CubicSpline] {
            let grid = resample(&samples, 0.0, 10.0, 3, method).unwrap();
            assert!((grid[0] - 5.0).abs() < 1e-10);
            assert!((grid[1] - 15.0).abs() < 1e-10);
            assert!((grid[2] - 5.0).abs() < 1e-10);
        }
    }

    #[test]
    fn resample_nearest_or_zero_leaves_gaps_at_zero() {
        let samples = vec![(0.0, 5.0), (3.0, 7.0)];
        let grid = resample(&samples, 0.0, 1.0, 5, Method::NearestOrZero).unwrap();
        assert_eq!(grid, vec![5.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn resample_empty_is_error() {
        assert!(resample(&[], 0.0, 1.0, 10, Method::CubicSpline).is_err());
        assert!(resample(&[(f64::NAN, 1.0)], 0.0, 1.0, 10, Method::Linear).is_err());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn strictly_increasing_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
            prop::collection::vec((0.1f64..5.0, -50.0f64..50.0), 1..40).prop_map(|steps| {
                let mut x = 0.0;
                steps
                    .into_iter()
                    .map(|(dx, y)| {
                        x += dx;
                        (x, y)
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn spline_passes_through_all_knots(pts in strictly_increasing_points()) {
                let s = CubicSpline::new(&pts).unwrap();
                for &(x, y) in &pts {
                    prop_assert!((s.eval(x) - y).abs() < 1e-6);
                }
            }

            #[test]
            fn linear_stays_within_segment_bounds(pts in strictly_increasing_points(),
                                                  q in 0.0f64..200.0) {
                let v = linear_interpolate(&pts, &[q]).unwrap()[0];
                let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }

            #[test]
            fn merge_output_strictly_increasing(raw in prop::collection::vec(
                (0.0f64..1000.0, -10.0f64..100.0), 0..100)) {
                let merged = merge_coincident(&raw);
                for w in merged.windows(2) {
                    prop_assert!(w[0].0 < w[1].0);
                }
            }
        }
    }
}
