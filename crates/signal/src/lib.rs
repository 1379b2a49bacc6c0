//! # taxilight-signal
//!
//! Self-contained digital-signal-processing substrate for the `taxilight`
//! workspace. Everything here is implemented from scratch (no external
//! numeric dependencies):
//!
//! * [`complex`] — a minimal `Complex64` type.
//! * [`dft`] — the plain *O(N²)* discrete Fourier transform exactly as the
//!   paper's Eq. (1) states it.
//! * [`fft`] — *O(N log N)* radix-2 FFT plus Bluestein's algorithm so any
//!   input length is supported.
//! * [`interpolate`] — linear and natural-cubic-spline interpolation used to
//!   densify sparse taxi-speed samples onto a 1 Hz grid.
//! * [`convolution`] — direct and FFT-based convolution, and the circular
//!   moving average used by the sliding-window change-point detector.
//! * [`periodogram`] — period bands, spectrum paths and period estimates
//!   for the dominant-period search (paper Eq. (2)).
//! * [`stats`] — descriptive statistics (mean/variance/percentiles/weighted
//!   means) shared by every layer above.
//! * [`histogram`] — fixed-width histograms and empirical CDFs used by the
//!   red-light-duration classifier and the evaluation section.
//! * [`autocorr`] — time-domain period detection via the autocorrelation,
//!   an alternative estimator kept for the method ablation.
//! * [`plan`] — precomputed FFT plans (radix-2 twiddles, Bluestein chirp +
//!   b-spectrum) cached per transform length.
//! * [`workspace`] — [`SignalWorkspace`], per-thread reusable scratch
//!   holding the resample → Eq. (1) → period-search chain, allocation-free
//!   in steady state.
//! * [`kernels`] — the hot inner loops: SSE2 on `x86_64`, portable 4-lane
//!   scalar code elsewhere, selected at compile time.

#![warn(missing_docs)]

pub mod autocorr;
pub mod complex;
pub mod convolution;
pub mod dft;
pub mod fft;
pub mod histogram;
pub mod interpolate;
pub mod kernels;
pub mod periodogram;
pub mod plan;
pub mod stats;
pub mod workspace;

pub use complex::Complex64;
pub use plan::{FftPlan, PlanCache, PlanCacheStats};
pub use workspace::SignalWorkspace;
