//! Explicit-width SIMD kernels for the signal hot path.
//!
//! Every inner loop that dominates a per-light identification lap — complex
//! magnitudes, radix-2 butterfly passes, Bluestein's pointwise complex
//! products, the grid-resample evaluations, the 4-lane sums/dot products
//! behind means and variances, and the circular moving average — lives here
//! as a portable **4-lane-chunked scalar** implementation ([`scalar`],
//! written so the autovectorizer can lift it) and, on `x86_64`, as an
//! explicit **SSE2** implementation via `core::arch` (SSE2 is part of the
//! `x86_64` baseline ABI, so no feature detection is needed).
//!
//! # Path selection
//!
//! The path is fixed at compile time by `cfg(target_arch)`: SSE2 on
//! `x86_64`, the scalar lanes on every other target.
//! [`active_path_name`] reports the compiled-in path; [`scalar`] stays
//! public as the reference that `tests/kernel_identity.rs` compares the
//! selected path against.
//!
//! # Numeric contract
//!
//! **The scalar and SSE2 paths are bit-identical on finite inputs for every
//! kernel in this module** (pinned by `tests/kernel_identity.rs`): the
//! scalar code performs the same IEEE-754 operations in the same order,
//! including the 4-lane accumulator structure of the reductions (two 2-lane
//! registers combined as `(l0+l2)+(l1+l3)`, remainder appended
//! sequentially), so every target computes the same bits. Relative to the
//! *legacy* (pre-kernel) code two classes exist:
//!
//! * **bit-identity class** — element-wise kernels (butterflies, complex
//!   products, conjugate/scale, resample evaluations, the circular moving
//!   average, demean subtraction) preserve the legacy summation order and
//!   stay bit-identical to it;
//! * **accuracy-gated class** — reductions ([`sum`], [`dot`],
//!   [`sum_sq_diff`]) reassociate into four lanes, and [`magnitudes_into`]
//!   computes `sqrt(re² + im²)` instead of `f64::hypot`; these change
//!   low-order bits vs. the legacy code and are validated end-to-end by the
//!   `evalsuite` accuracy and robustness gates, the same discipline as
//!   `SpectrumPath::PaddedPow2`.
//!
//! Kernels never allocate: callers pass slices or reuse output `Vec`s
//! (cleared/resized, so warm calls stay inside the zero-alloc gate).

use crate::complex::Complex64;

#[cfg(not(target_arch = "x86_64"))]
use scalar as path;
#[cfg(target_arch = "x86_64")]
use sse2 as path;

/// Name of the compiled-in instruction path, for benchmark environment
/// capture: `"sse2"` on `x86_64`, `"scalar"` elsewhere.
pub fn active_path_name() -> &'static str {
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Public entry points. Each checks its preconditions and forwards to the
// compiled-in path.
// ---------------------------------------------------------------------------

/// 4-lane-chunked sum. Reassociates relative to a sequential `iter().sum()`
/// (accuracy-gated class).
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    path::sum(xs)
}

/// 4-lane-chunked dot product (no FMA contraction — multiply then add, so
/// both paths round identically). Accuracy-gated class.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal-length slices");
    path::dot(a, b)
}

/// 4-lane-chunked `Σ (x − m)²` — the variance numerator. Accuracy-gated
/// class.
#[inline]
pub fn sum_sq_diff(xs: &[f64], m: f64) -> f64 {
    path::sum_sq_diff(xs, m)
}

/// Complex magnitudes `sqrt(re² + im²)` into `out` (cleared first).
/// Element-wise, but `sqrt(re² + im²)` differs from the legacy
/// `f64::hypot` in low-order bits — accuracy-gated class.
#[inline]
pub fn magnitudes_into(spec: &[Complex64], out: &mut Vec<f64>) {
    path::magnitudes_into(spec, out)
}

/// `out[i] = src[i] − m` (cleared first) — the demean loop. Bit-identity
/// class.
#[inline]
pub fn subtract_scalar_into(src: &[f64], m: f64, out: &mut Vec<f64>) {
    path::subtract_scalar_into(src, m, out)
}

/// `xs[i] /= d` in place. Bit-identity class.
#[inline]
pub fn divide_in_place(xs: &mut [f64], d: f64) {
    path::divide_in_place(xs, d)
}

/// One radix-2 butterfly stage over the whole buffer: for every block of
/// `2·half` elements, `buf[k] = even + odd`, `buf[k+half] = even − odd`
/// with `odd = buf[k+half] · twiddles[j]`. Bit-identity class (the complex
/// product preserves the `Complex64: Mul` operand order).
///
/// # Panics
/// Panics when `twiddles.len() != half` or `buf.len()` is not a multiple
/// of `2·half`.
#[inline]
pub fn butterfly_stage(buf: &mut [Complex64], half: usize, twiddles: &[Complex64]) {
    assert_eq!(twiddles.len(), half, "stage twiddle table must have `half` entries");
    assert!(
        half > 0 && buf.len() % (2 * half) == 0,
        "buffer length {} is not a multiple of 2*half = {}",
        buf.len(),
        2 * half
    );
    path::butterfly_stage(buf, half, twiddles)
}

/// Pointwise complex product `out[i] = a[i] · b[i]`. Bit-identity class
/// (complex multiplication is bitwise commutative — IEEE `×` and `+` are —
/// so one kernel serves both operand orders).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn cmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert!(a.len() == b.len() && a.len() == out.len(), "cmul_into requires equal-length slices");
    path::cmul_into(a, b, out)
}

/// Pointwise complex product `a[i] *= b[i]`. Bit-identity class.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn cmul_in_place(a: &mut [Complex64], b: &[Complex64]) {
    assert_eq!(a.len(), b.len(), "cmul_in_place requires equal-length slices");
    path::cmul_in_place(a, b)
}

/// Conjugates every element in place. Bit-identity class.
#[inline]
pub fn conj_in_place(buf: &mut [Complex64]) {
    path::conj_in_place(buf)
}

/// `buf[i] = conj(buf[i]) · k` in place — the IFFT epilogue. Bit-identity
/// class.
#[inline]
pub fn conj_scale_in_place(buf: &mut [Complex64], k: f64) {
    path::conj_scale_in_place(buf, k)
}

/// Piecewise-linear evaluation of `points` on the regular grid
/// `t0, t0+dt, …` (`count` points) into `out` (cleared first),
/// bit-identical to per-point evaluation by `interpolate::linear_eval` —
/// including the boundary clamping — but using a monotone segment scan
/// (`O(n + count)`) instead of a binary search per query when `dt > 0`.
/// Bit-identity class.
///
/// # Panics
/// Panics when `points` is empty.
#[inline]
pub fn lerp_grid_into(points: &[(f64, f64)], t0: f64, dt: f64, count: usize, out: &mut Vec<f64>) {
    assert!(!points.is_empty(), "lerp_grid_into requires at least one point");
    path::lerp_grid_into(points, t0, dt, count, out)
}

/// Natural-cubic-spline evaluation of (`points`, second derivatives `m2`)
/// on the regular grid into `out` (cleared first), bit-identical to the
/// per-point spline evaluation `CubicSpline::eval`. Bit-identity class.
///
/// # Panics
/// Panics when `points` is empty or `m2.len() != points.len()`.
#[inline]
pub fn spline_grid_into(
    points: &[(f64, f64)],
    m2: &[f64],
    t0: f64,
    dt: f64,
    count: usize,
    out: &mut Vec<f64>,
) {
    assert!(!points.is_empty(), "spline_grid_into requires at least one point");
    assert_eq!(m2.len(), points.len(), "one second derivative per knot");
    path::spline_grid_into(points, m2, t0, dt, count, out)
}

/// Circular (wrap-around) moving average into `out` (cleared first),
/// bit-identical to [`crate::convolution::circular_moving_average`]: the
/// rolling-sum chain is kept sequential (it is a true dependency chain) and
/// only the final division pass is vectorized — same sums, same divisions.
/// Bit-identity class.
#[inline]
pub fn circular_moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
    path::circular_moving_average_into(signal, window, out)
}

/// The sequential rolling-sum pass shared by both circular-moving-average
/// paths: pushes the *sums* (not yet divided), reproducing the legacy
/// rolling chain bit for bit.
fn cma_rolling_sums(signal: &[f64], window: usize, out: &mut Vec<f64>) -> f64 {
    out.clear();
    let n = signal.len();
    if n == 0 {
        return 1.0;
    }
    let w = window.clamp(1, n);
    let mut sum: f64 = signal[..w].iter().sum();
    for i in 0..n {
        out.push(sum);
        sum -= signal[i];
        sum += signal[(i + w) % n];
    }
    w as f64
}

// ---------------------------------------------------------------------------
// Portable scalar path: 4-lane-chunked, autovectorizer-friendly. The lane
// structure is not cosmetic — it fixes the reduction order the SSE2 path
// reproduces, which is what makes the two paths bit-identical.
// ---------------------------------------------------------------------------

/// Portable 4-lane-chunked scalar implementations: the compiled-in path on
/// every target but `x86_64`, and the reference the differential tests
/// compare the SSE2 path against.
#[doc(hidden)]
pub mod scalar {
    use crate::complex::Complex64;

    /// 4-lane-chunked sum; lanes combine as `(l0+l2)+(l1+l3)`.
    pub fn sum(xs: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 4];
        let mut chunks = xs.chunks_exact(4);
        for c in chunks.by_ref() {
            lanes[0] += c[0];
            lanes[1] += c[1];
            lanes[2] += c[2];
            lanes[3] += c[3];
        }
        let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for &x in chunks.remainder() {
            total += x;
        }
        total
    }

    /// 4-lane-chunked dot product (separate multiply and add; no FMA).
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 4];
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (x, y) in ca.by_ref().zip(cb.by_ref()) {
            lanes[0] += x[0] * y[0];
            lanes[1] += x[1] * y[1];
            lanes[2] += x[2] * y[2];
            lanes[3] += x[3] * y[3];
        }
        let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
            total += x * y;
        }
        total
    }

    /// 4-lane-chunked `Σ (x − m)²`.
    pub fn sum_sq_diff(xs: &[f64], m: f64) -> f64 {
        let mut lanes = [0.0f64; 4];
        let mut chunks = xs.chunks_exact(4);
        for c in chunks.by_ref() {
            let d0 = c[0] - m;
            let d1 = c[1] - m;
            let d2 = c[2] - m;
            let d3 = c[3] - m;
            lanes[0] += d0 * d0;
            lanes[1] += d1 * d1;
            lanes[2] += d2 * d2;
            lanes[3] += d3 * d3;
        }
        let mut total = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for &x in chunks.remainder() {
            let d = x - m;
            total += d * d;
        }
        total
    }

    /// `out[i] = sqrt(re² + im²)` (cleared first).
    pub fn magnitudes_into(spec: &[Complex64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(spec.iter().map(|c| (c.re * c.re + c.im * c.im).sqrt()));
    }

    /// `out[i] = src[i] − m` (cleared first).
    pub fn subtract_scalar_into(src: &[f64], m: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(src.iter().map(|&v| v - m));
    }

    /// `xs[i] /= d` in place.
    pub fn divide_in_place(xs: &mut [f64], d: f64) {
        for x in xs {
            *x /= d;
        }
    }

    /// One radix-2 butterfly stage (see [`super::butterfly_stage`]).
    pub fn butterfly_stage(buf: &mut [Complex64], half: usize, twiddles: &[Complex64]) {
        let n = buf.len();
        let mut start = 0;
        while start < n {
            for (j, &w) in twiddles.iter().enumerate() {
                let k = start + j;
                let even = buf[k];
                let odd = buf[k + half] * w;
                buf[k] = even + odd;
                buf[k + half] = even - odd;
            }
            start += half * 2;
        }
    }

    /// Pointwise `out[i] = a[i] · b[i]`.
    pub fn cmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        for ((x, y), o) in a.iter().zip(b).zip(out) {
            *o = *x * *y;
        }
    }

    /// Pointwise `a[i] *= b[i]`.
    pub fn cmul_in_place(a: &mut [Complex64], b: &[Complex64]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x *= *y;
        }
    }

    /// Conjugate in place.
    pub fn conj_in_place(buf: &mut [Complex64]) {
        for c in buf {
            *c = c.conj();
        }
    }

    /// `buf[i] = conj(buf[i]) · k` in place.
    pub fn conj_scale_in_place(buf: &mut [Complex64], k: f64) {
        for c in buf {
            *c = c.conj().scale(k);
        }
    }

    /// Linear grid evaluation with a monotone segment scan.
    pub fn lerp_grid_into(
        points: &[(f64, f64)],
        t0: f64,
        dt: f64,
        count: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
            // Non-monotone grid: fall back to the per-point binary search
            // (identical arithmetic — this *is* the legacy evaluation).
            out.extend(
                (0..count).map(|k| crate::interpolate::linear_eval(points, t0 + dt * k as f64)),
            );
            return;
        }
        let n = points.len();
        let (t_first, y_first) = points[0];
        let (t_last, y_last) = points[n - 1];
        let mut idx = 1usize;
        for k in 0..count {
            let x = t0 + dt * k as f64;
            let y = if x <= t_first {
                y_first
            } else if x >= t_last {
                y_last
            } else {
                while points[idx].0 <= x {
                    idx += 1;
                }
                let (x0, y0) = points[idx - 1];
                let (x1, y1) = points[idx];
                let w = (x - x0) / (x1 - x0);
                y0 + w * (y1 - y0)
            };
            out.push(y);
        }
    }

    /// Cubic-spline grid evaluation with a monotone segment scan.
    pub fn spline_grid_into(
        points: &[(f64, f64)],
        m2: &[f64],
        t0: f64,
        dt: f64,
        count: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let n = points.len();
        if n == 1 {
            // `spline_eval` returns the single knot value on both sides of
            // its clamp branch.
            out.extend(std::iter::repeat_n(points[0].1, count));
            return;
        }
        if dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
            out.extend(
                (0..count).map(|k| crate::workspace::spline_eval(points, m2, t0 + dt * k as f64)),
            );
            return;
        }
        let (t_first, y_first) = points[0];
        let (t_last, y_last) = points[n - 1];
        let mut idx = 1usize;
        for k in 0..count {
            let x = t0 + dt * k as f64;
            let y = if x <= t_first {
                y_first
            } else if x >= t_last {
                y_last
            } else {
                while points[idx].0 <= x {
                    idx += 1;
                }
                let (x0, y0) = points[idx - 1];
                let (x1, y1) = points[idx];
                let (m0, m1) = (m2[idx - 1], m2[idx]);
                let h = x1 - x0;
                let a = (x1 - x) / h;
                let b = (x - x0) / h;
                a * y0 + b * y1 + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0
            };
            out.push(y);
        }
    }

    /// Circular moving average: sequential rolling sums, then division.
    pub fn circular_moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
        let w = super::cma_rolling_sums(signal, window, out);
        divide_in_place(out, w);
    }
}

// ---------------------------------------------------------------------------
// x86_64: SSE2 (baseline ABI — every x86_64 CPU has it, no detection).
// ---------------------------------------------------------------------------

/// SSE2 implementations, the compiled-in path on `x86_64`. Bit-identical
/// to [`scalar`] on finite inputs.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use crate::complex::Complex64;
    use std::arch::x86_64::*;

    /// Complex product of two `[re, im]` registers with the exact
    /// `Complex64: Mul` rounding: `re = a.re·b.re − a.im·b.im`,
    /// `im = a.re·b.im + a.im·b.re`. SSE2 has no `addsubpd` (that is
    /// SSE3), so the subtraction in lane 0 is an `xorpd` sign flip plus
    /// `addpd` — exact, because IEEE `x − y ≡ x + (−y)`.
    ///
    /// # Safety
    /// SSE2 is part of the `x86_64` baseline; no extra invariants.
    #[inline(always)]
    unsafe fn cmul(a: __m128d, b: __m128d, sign_lo: __m128d) -> __m128d {
        let are = _mm_unpacklo_pd(a, a); // [a.re, a.re]
        let aim = _mm_unpackhi_pd(a, a); // [a.im, a.im]
        let bsw = _mm_shuffle_pd::<0b01>(b, b); // [b.im, b.re]
        let v1 = _mm_mul_pd(are, b); // [a.re·b.re, a.re·b.im]
        let v2 = _mm_mul_pd(aim, bsw); // [a.im·b.im, a.im·b.re]
        _mm_add_pd(v1, _mm_xor_pd(v2, sign_lo))
    }

    #[inline(always)]
    fn sign_lo() -> __m128d {
        // Lane 0 carries the sign bit: xor negates lane 0 only.
        unsafe { _mm_set_pd(0.0, -0.0) }
    }

    #[inline(always)]
    fn sign_hi() -> __m128d {
        // Lane 1 carries the sign bit: xor negates the imaginary part.
        unsafe { _mm_set_pd(-0.0, 0.0) }
    }

    /// Two-accumulator sum; combines as `(l0+l2)+(l1+l3)` like the scalar
    /// lanes.
    pub fn sum(xs: &[f64]) -> f64 {
        unsafe {
            let mut acc0 = _mm_setzero_pd();
            let mut acc1 = _mm_setzero_pd();
            let quads = xs.len() / 4;
            let ptr = xs.as_ptr();
            for q in 0..quads {
                let p = ptr.add(4 * q);
                acc0 = _mm_add_pd(acc0, _mm_loadu_pd(p));
                acc1 = _mm_add_pd(acc1, _mm_loadu_pd(p.add(2)));
            }
            let pair = _mm_add_pd(acc0, acc1);
            let mut total = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
            for &x in &xs[4 * quads..] {
                total += x;
            }
            total
        }
    }

    /// Two-accumulator dot product (mulpd + addpd — no FMA contraction).
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        unsafe {
            let mut acc0 = _mm_setzero_pd();
            let mut acc1 = _mm_setzero_pd();
            let quads = a.len().min(b.len()) / 4;
            let pa = a.as_ptr();
            let pb = b.as_ptr();
            for q in 0..quads {
                let qa = pa.add(4 * q);
                let qb = pb.add(4 * q);
                acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(qa), _mm_loadu_pd(qb)));
                acc1 =
                    _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(qa.add(2)), _mm_loadu_pd(qb.add(2))));
            }
            let pair = _mm_add_pd(acc0, acc1);
            let mut total = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
            for (&x, &y) in a[4 * quads..].iter().zip(&b[4 * quads..]) {
                total += x * y;
            }
            total
        }
    }

    /// Two-accumulator `Σ (x − m)²`.
    pub fn sum_sq_diff(xs: &[f64], m: f64) -> f64 {
        unsafe {
            let mv = _mm_set1_pd(m);
            let mut acc0 = _mm_setzero_pd();
            let mut acc1 = _mm_setzero_pd();
            let quads = xs.len() / 4;
            let ptr = xs.as_ptr();
            for q in 0..quads {
                let p = ptr.add(4 * q);
                let d0 = _mm_sub_pd(_mm_loadu_pd(p), mv);
                let d1 = _mm_sub_pd(_mm_loadu_pd(p.add(2)), mv);
                acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
                acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
            }
            let pair = _mm_add_pd(acc0, acc1);
            let mut total = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
            for &x in &xs[4 * quads..] {
                let d = x - m;
                total += d * d;
            }
            total
        }
    }

    /// Two complex magnitudes per iteration via `sqrtpd`.
    pub fn magnitudes_into(spec: &[Complex64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(spec.len(), 0.0);
        unsafe {
            let src = spec.as_ptr() as *const f64;
            let dst = out.as_mut_ptr();
            let pairs = spec.len() / 2;
            for p in 0..pairs {
                let c0 = _mm_loadu_pd(src.add(4 * p)); // [re0, im0]
                let c1 = _mm_loadu_pd(src.add(4 * p + 2)); // [re1, im1]
                let sq0 = _mm_mul_pd(c0, c0);
                let sq1 = _mm_mul_pd(c1, c1);
                let re2 = _mm_unpacklo_pd(sq0, sq1); // [re0², re1²]
                let im2 = _mm_unpackhi_pd(sq0, sq1); // [im0², im1²]
                let mag = _mm_sqrt_pd(_mm_add_pd(re2, im2));
                _mm_storeu_pd(dst.add(2 * p), mag);
            }
            if spec.len() % 2 == 1 {
                let c = spec[spec.len() - 1];
                out[spec.len() - 1] = (c.re * c.re + c.im * c.im).sqrt();
            }
        }
    }

    /// Vectorized `out[i] = src[i] − m`.
    pub fn subtract_scalar_into(src: &[f64], m: f64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(src.len(), 0.0);
        unsafe {
            let mv = _mm_set1_pd(m);
            let sp = src.as_ptr();
            let dp = out.as_mut_ptr();
            let pairs = src.len() / 2;
            for p in 0..pairs {
                _mm_storeu_pd(dp.add(2 * p), _mm_sub_pd(_mm_loadu_pd(sp.add(2 * p)), mv));
            }
            if src.len() % 2 == 1 {
                out[src.len() - 1] = src[src.len() - 1] - m;
            }
        }
    }

    /// Vectorized `xs[i] /= d`.
    pub fn divide_in_place(xs: &mut [f64], d: f64) {
        unsafe {
            let dv = _mm_set1_pd(d);
            let p = xs.as_mut_ptr();
            let pairs = xs.len() / 2;
            for q in 0..pairs {
                _mm_storeu_pd(p.add(2 * q), _mm_div_pd(_mm_loadu_pd(p.add(2 * q)), dv));
            }
            if xs.len() % 2 == 1 {
                let last = xs.len() - 1;
                xs[last] /= d;
            }
        }
    }

    /// Butterfly stage: one complex element is exactly one `__m128d`, so
    /// `even ± odd` are plain `addpd`/`subpd`.
    pub fn butterfly_stage(buf: &mut [Complex64], half: usize, twiddles: &[Complex64]) {
        unsafe {
            let n = buf.len();
            let p = buf.as_mut_ptr() as *mut f64;
            let tw = twiddles.as_ptr() as *const f64;
            let sign = sign_lo();
            let mut start = 0;
            while start < n {
                for j in 0..half {
                    let k = start + j;
                    let w = _mm_loadu_pd(tw.add(2 * j));
                    let even = _mm_loadu_pd(p.add(2 * k));
                    let odd_raw = _mm_loadu_pd(p.add(2 * (k + half)));
                    let odd = cmul(odd_raw, w, sign);
                    _mm_storeu_pd(p.add(2 * k), _mm_add_pd(even, odd));
                    _mm_storeu_pd(p.add(2 * (k + half)), _mm_sub_pd(even, odd));
                }
                start += half * 2;
            }
        }
    }

    /// Pointwise `out[i] = a[i] · b[i]`.
    pub fn cmul_into(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
        unsafe {
            let pa = a.as_ptr() as *const f64;
            let pb = b.as_ptr() as *const f64;
            let po = out.as_mut_ptr() as *mut f64;
            let sign = sign_lo();
            for k in 0..a.len().min(b.len()).min(out.len()) {
                let x = _mm_loadu_pd(pa.add(2 * k));
                let y = _mm_loadu_pd(pb.add(2 * k));
                _mm_storeu_pd(po.add(2 * k), cmul(x, y, sign));
            }
        }
    }

    /// Pointwise `a[i] *= b[i]`.
    pub fn cmul_in_place(a: &mut [Complex64], b: &[Complex64]) {
        unsafe {
            let pa = a.as_mut_ptr() as *mut f64;
            let pb = b.as_ptr() as *const f64;
            let sign = sign_lo();
            for k in 0..a.len().min(b.len()) {
                let x = _mm_loadu_pd(pa.add(2 * k));
                let y = _mm_loadu_pd(pb.add(2 * k));
                _mm_storeu_pd(pa.add(2 * k), cmul(x, y, sign));
            }
        }
    }

    /// Conjugate in place (sign flip of the imaginary lane).
    pub fn conj_in_place(buf: &mut [Complex64]) {
        unsafe {
            let p = buf.as_mut_ptr() as *mut f64;
            let sign = sign_hi();
            for k in 0..buf.len() {
                _mm_storeu_pd(p.add(2 * k), _mm_xor_pd(_mm_loadu_pd(p.add(2 * k)), sign));
            }
        }
    }

    /// `buf[i] = conj(buf[i]) · k`: sign flip then `mulpd` — the exact ops
    /// of `c.conj().scale(k)` (`re·k`, `(−im)·k`).
    pub fn conj_scale_in_place(buf: &mut [Complex64], k: f64) {
        unsafe {
            let p = buf.as_mut_ptr() as *mut f64;
            let sign = sign_hi();
            let kv = _mm_set1_pd(k);
            for i in 0..buf.len() {
                let t = _mm_xor_pd(_mm_loadu_pd(p.add(2 * i)), sign);
                _mm_storeu_pd(p.add(2 * i), _mm_mul_pd(t, kv));
            }
        }
    }

    /// Linear grid evaluation: monotone segment scan + two queries per
    /// `__m128d` within each segment run (per-lane ops identical to the
    /// scalar formula, so bit-identity holds).
    pub fn lerp_grid_into(
        points: &[(f64, f64)],
        t0: f64,
        dt: f64,
        count: usize,
        out: &mut Vec<f64>,
    ) {
        if dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
            super::scalar::lerp_grid_into(points, t0, dt, count, out);
            return;
        }
        out.clear();
        out.resize(count, 0.0);
        let o = out.as_mut_slice();
        let n = points.len();
        let (t_first, y_first) = points[0];
        let (t_last, y_last) = points[n - 1];
        let mut idx = 1usize;
        let mut k = 0usize;
        while k < count {
            let x = t0 + dt * k as f64;
            if x <= t_first {
                o[k] = y_first;
                k += 1;
                continue;
            }
            if x >= t_last {
                // The grid is nondecreasing: every remaining query clamps.
                for slot in &mut o[k..] {
                    *slot = y_last;
                }
                break;
            }
            while points[idx].0 <= x {
                idx += 1;
            }
            let (x0, y0) = points[idx - 1];
            let (x1, y1) = points[idx];
            // Extent of the run of queries inside [x0, x1).
            let mut k_end = k + 1;
            while k_end < count && t0 + dt * (k_end as f64) < x1 {
                k_end += 1;
            }
            // Broadcasting the segment constants only pays off on longer
            // query runs; short runs (dense points vs. the grid) take the
            // scalar expression directly — bit-identical either way.
            if k_end - k >= 4 {
                unsafe {
                    let x0v = _mm_set1_pd(x0);
                    let dxv = _mm_set1_pd(x1 - x0);
                    let y0v = _mm_set1_pd(y0);
                    let dyv = _mm_set1_pd(y1 - y0);
                    let mut j = k;
                    while j + 2 <= k_end {
                        let xa = t0 + dt * j as f64;
                        let xb = t0 + dt * (j + 1) as f64;
                        let xv = _mm_set_pd(xb, xa);
                        let wv = _mm_div_pd(_mm_sub_pd(xv, x0v), dxv);
                        let yv = _mm_add_pd(y0v, _mm_mul_pd(wv, dyv));
                        _mm_storeu_pd(o.as_mut_ptr().add(j), yv);
                        j += 2;
                    }
                    while j < k_end {
                        let xj = t0 + dt * j as f64;
                        let w = (xj - x0) / (x1 - x0);
                        o[j] = y0 + w * (y1 - y0);
                        j += 1;
                    }
                }
            } else {
                let mut j = k;
                while j < k_end {
                    let xj = t0 + dt * j as f64;
                    let w = (xj - x0) / (x1 - x0);
                    o[j] = y0 + w * (y1 - y0);
                    j += 1;
                }
            }
            k = k_end;
        }
    }

    /// Spline grid evaluation: monotone segment scan + two queries per
    /// `__m128d`, with the exact `CubicSpline::eval` expression tree.
    pub fn spline_grid_into(
        points: &[(f64, f64)],
        m2: &[f64],
        t0: f64,
        dt: f64,
        count: usize,
        out: &mut Vec<f64>,
    ) {
        let n = points.len();
        if n == 1 || dt <= 0.0 || dt.is_nan() || !t0.is_finite() {
            super::scalar::spline_grid_into(points, m2, t0, dt, count, out);
            return;
        }
        out.clear();
        out.resize(count, 0.0);
        let o = out.as_mut_slice();
        let (t_first, y_first) = points[0];
        let (t_last, y_last) = points[n - 1];
        let mut idx = 1usize;
        let mut k = 0usize;
        while k < count {
            let x = t0 + dt * k as f64;
            if x <= t_first {
                o[k] = y_first;
                k += 1;
                continue;
            }
            if x >= t_last {
                for slot in &mut o[k..] {
                    *slot = y_last;
                }
                break;
            }
            while points[idx].0 <= x {
                idx += 1;
            }
            let (x0, y0) = points[idx - 1];
            let (x1, y1) = points[idx];
            let (m0, m1) = (m2[idx - 1], m2[idx]);
            let h = x1 - x0;
            let mut k_end = k + 1;
            while k_end < count && t0 + dt * (k_end as f64) < x1 {
                k_end += 1;
            }
            // Eight broadcasts per segment only pay off on longer query
            // runs; short runs take the scalar expression directly —
            // bit-identical either way.
            if k_end - k >= 4 {
                unsafe {
                    let x0v = _mm_set1_pd(x0);
                    let x1v = _mm_set1_pd(x1);
                    let y0v = _mm_set1_pd(y0);
                    let y1v = _mm_set1_pd(y1);
                    let m0v = _mm_set1_pd(m0);
                    let m1v = _mm_set1_pd(m1);
                    let hv = _mm_set1_pd(h);
                    let sixv = _mm_set1_pd(6.0);
                    let mut j = k;
                    while j + 2 <= k_end {
                        let xa = t0 + dt * j as f64;
                        let xb = t0 + dt * (j + 1) as f64;
                        let xv = _mm_set_pd(xb, xa);
                        let av = _mm_div_pd(_mm_sub_pd(x1v, xv), hv);
                        let bv = _mm_div_pd(_mm_sub_pd(xv, x0v), hv);
                        // a·y0 + b·y1 + ((a³−a)·m0 + (b³−b)·m1)·h·h/6 with the
                        // scalar expression's exact association.
                        let a3 = _mm_mul_pd(_mm_mul_pd(av, av), av);
                        let b3 = _mm_mul_pd(_mm_mul_pd(bv, bv), bv);
                        let inner = _mm_add_pd(
                            _mm_mul_pd(_mm_sub_pd(a3, av), m0v),
                            _mm_mul_pd(_mm_sub_pd(b3, bv), m1v),
                        );
                        let tail = _mm_div_pd(_mm_mul_pd(_mm_mul_pd(inner, hv), hv), sixv);
                        let head = _mm_add_pd(_mm_mul_pd(av, y0v), _mm_mul_pd(bv, y1v));
                        _mm_storeu_pd(o.as_mut_ptr().add(j), _mm_add_pd(head, tail));
                        j += 2;
                    }
                    while j < k_end {
                        let xj = t0 + dt * j as f64;
                        let a = (x1 - xj) / h;
                        let b = (xj - x0) / h;
                        o[j] = a * y0
                            + b * y1
                            + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0;
                        j += 1;
                    }
                }
            } else {
                let mut j = k;
                while j < k_end {
                    let xj = t0 + dt * j as f64;
                    let a = (x1 - xj) / h;
                    let b = (xj - x0) / h;
                    o[j] = a * y0
                        + b * y1
                        + ((a * a * a - a) * m0 + (b * b * b - b) * m1) * h * h / 6.0;
                    j += 1;
                }
            }
            k = k_end;
        }
    }

    /// Circular moving average: shared sequential rolling sums, vectorized
    /// division pass.
    pub fn circular_moving_average_into(signal: &[f64], window: usize, out: &mut Vec<f64>) {
        let w = super::cma_rolling_sums(signal, window, out);
        divide_in_place(out, w);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bits_eq(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits()
    }

    #[test]
    fn sum_matches_both_paths_and_is_exact_on_integers() {
        let xs: Vec<f64> = (0..103).map(|k| (k % 17) as f64 - 8.0).collect();
        let a = scalar::sum(&xs);
        let b = sum(&xs);
        assert!(f64_bits_eq(a, b));
        // Integer-valued doubles sum exactly regardless of association.
        let expect: f64 = xs.iter().sum();
        assert_eq!(a, expect);
    }

    #[test]
    fn dot_matches_both_paths() {
        let a: Vec<f64> = (0..57).map(|k| (k as f64).sin() * 20.0).collect();
        let b: Vec<f64> = (0..57).map(|k| (k as f64 * 0.3).cos() * 5.0).collect();
        assert!(f64_bits_eq(scalar::dot(&a, &b), dot(&a, &b)));
    }

    #[test]
    fn magnitudes_match_both_paths() {
        let spec: Vec<Complex64> = (0..31)
            .map(|k| Complex64::new((k as f64).sin() * 9.0, (k as f64).cos() * 4.0))
            .collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::magnitudes_into(&spec, &mut a);
        magnitudes_into(&spec, &mut b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(f64_bits_eq(*x, *y));
        }
    }

    #[test]
    fn butterfly_matches_both_paths() {
        for n in [2usize, 4, 8, 32] {
            let base: Vec<Complex64> = (0..n)
                .map(|k| Complex64::new((k as f64 * 0.7).sin(), (k as f64 * 1.1).cos()))
                .collect();
            let mut half = 1;
            while half < n {
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
                let mut a = base.clone();
                let mut b = base.clone();
                scalar::butterfly_stage(&mut a, half, &tw);
                butterfly_stage(&mut b, half, &tw);
                for (x, y) in a.iter().zip(&b) {
                    assert!(f64_bits_eq(x.re, y.re) && f64_bits_eq(x.im, y.im));
                }
                half *= 2;
            }
        }
    }

    #[test]
    fn cma_matches_legacy_bitwise() {
        let xs: Vec<f64> = (0..97).map(|k| ((k * 31) % 17) as f64 - 8.0).collect();
        let mut out = Vec::new();
        for w in [1usize, 2, 40, 97, 200] {
            circular_moving_average_into(&xs, w, &mut out);
            let legacy = crate::convolution::circular_moving_average(&xs, w);
            assert_eq!(out.len(), legacy.len());
            for (a, b) in out.iter().zip(&legacy) {
                assert!(f64_bits_eq(*a, *b));
            }
        }
    }

    #[test]
    fn lerp_grid_matches_legacy_eval_bitwise() {
        let points: Vec<(f64, f64)> =
            (0..25).map(|k| (k as f64 * 7.3 + 2.0, ((k * 13) % 29) as f64 - 10.0)).collect();
        let (t0, dt, count) = (-10.0, 0.9, 250);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar::lerp_grid_into(&points, t0, dt, count, &mut a);
        lerp_grid_into(&points, t0, dt, count, &mut b);
        for out in [&a, &b] {
            assert_eq!(out.len(), count);
            for (k, v) in out.iter().enumerate() {
                let legacy = crate::interpolate::linear_eval(&points, t0 + dt * k as f64);
                assert!(f64_bits_eq(*v, legacy), "k={k}");
            }
        }
    }
}
