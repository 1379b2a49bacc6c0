//! Data superposition (paper Sec. VI-B, Fig. 10).
//!
//! Folding the sparse speed samples of many consecutive cycles into a
//! single cycle (`new index = old index mod cycle length`) accumulates
//! enough samples per within-cycle offset to see the red/green pattern.
//! Superposition preserves relative position within the cycle, so the
//! signal-change time is unchanged.

/// Folds `(t_abs_s, value)` samples into one cycle of length `cycle_s`.
/// The fold anchor is absolute time 0, so a folded coordinate `x`
/// corresponds to absolute times `t ≡ x (mod cycle_s)`. Output is sorted
/// by folded coordinate.
///
/// # Panics
/// Panics when `cycle_s` is not positive.
pub fn superpose(samples: &[(f64, f64)], cycle_s: f64) -> Vec<(f64, f64)> {
    assert!(cycle_s > 0.0, "cycle must be positive");
    let mut folded: Vec<(f64, f64)> =
        samples.iter().map(|&(t, v)| (t.rem_euclid(cycle_s), v)).collect();
    folded.sort_by(|a, b| a.0.total_cmp(&b.0));
    folded
}

/// Bins folded samples into per-second means over `[0, cycle_len)`;
/// seconds with no sample are `None`.
pub fn bin_cycle(folded: &[(f64, f64)], cycle_len: usize) -> Vec<Option<f64>> {
    let mut sums = vec![0.0; cycle_len];
    let mut counts = vec![0u32; cycle_len];
    for &(x, v) in folded {
        let idx = (x as usize).min(cycle_len.saturating_sub(1));
        sums[idx] += v;
        counts[idx] += 1;
    }
    sums.iter().zip(&counts).map(|(&s, &c)| if c > 0 { Some(s / c as f64) } else { None }).collect()
}

/// Fills `None` gaps by circular linear interpolation between the nearest
/// filled neighbours (the series is one period of a cyclic signal).
/// Returns an all-zero series when every slot is empty.
pub fn fill_gaps_circular(binned: &[Option<f64>]) -> Vec<f64> {
    let n = binned.len();
    if n == 0 {
        return Vec::new();
    }
    let filled: Vec<usize> = (0..n).filter(|&i| binned[i].is_some()).collect();
    if filled.is_empty() {
        return vec![0.0; n];
    }
    if filled.len() == 1 {
        let v = binned[filled[0]].unwrap();
        return vec![v; n];
    }
    let mut out = vec![0.0; n];
    for (k, &i) in filled.iter().enumerate() {
        out[i] = binned[i].unwrap();
        // Fill the gap between this filled slot and the next (circularly).
        let j = filled[(k + 1) % filled.len()];
        let gap = if j > i { j - i } else { n - i + j };
        if gap <= 1 {
            continue;
        }
        let (vi, vj) = (binned[i].unwrap(), binned[j].unwrap());
        for step in 1..gap {
            let idx = (i + step) % n;
            let w = step as f64 / gap as f64;
            out[idx] = vi * (1.0 - w) + vj * w;
        }
    }
    out
}

/// Epoch-folding contrast: how much of the samples' variance is explained
/// by folding them at `cycle_s` (noise-corrected ANOVA R², clamped to
/// `[0, 1]`).
///
/// Folding at the true period aligns red with red and green with green, so
/// within-bin variance collapses and between-bin variance explains the
/// total; a wrong period mixes phases and explains nothing. The raw R²
/// favours long periods (more bins → each fits noise), so the expected
/// noise contribution `(B−1)·σ̂²_within` is subtracted — the standard
/// ANOVA correction.
///
/// Returns 0 for degenerate inputs (fewer than ~2 samples per bin on
/// average, zero variance).
pub fn fold_contrast(samples: &[(f64, f64)], cycle_s: f64) -> f64 {
    const BINS: usize = 12;
    assert!(cycle_s > 0.0, "cycle must be positive");
    let n = samples.len();
    if n < 2 * BINS {
        return 0.0;
    }
    let mut sums = [0.0f64; BINS];
    let mut sq = [0.0f64; BINS];
    let mut counts = [0usize; BINS];
    for &(t, v) in samples {
        let phase = t.rem_euclid(cycle_s) / cycle_s;
        let b = ((phase * BINS as f64) as usize).min(BINS - 1);
        sums[b] += v;
        sq[b] += v * v;
        counts[b] += 1;
    }
    let total: f64 = sums.iter().sum();
    let mu = total / n as f64;
    let tss: f64 = sq.iter().sum::<f64>() - n as f64 * mu * mu;
    if tss <= 1e-9 {
        return 0.0;
    }
    let mut bss = 0.0;
    let mut occupied = 0usize;
    for b in 0..BINS {
        if counts[b] > 0 {
            let m = sums[b] / counts[b] as f64;
            bss += counts[b] as f64 * (m - mu) * (m - mu);
            occupied += 1;
        }
    }
    let wss = (tss - bss).max(0.0);
    let df_within = n.saturating_sub(occupied).max(1) as f64;
    let noise = (occupied.saturating_sub(1)) as f64 * wss / df_within;
    ((bss - noise) / tss).clamp(0.0, 1.0)
}

impl crate::workspace::IdentifyWorkspace {
    /// Superposes, bins and gap-fills in one pass: fills `self.profile`
    /// with the 1 Hz cyclic speed profile the change-point detector
    /// consumes, bit-identical to the allocating
    /// [`superpose`] → [`bin_cycle`] → [`fill_gaps_circular`] chain. The
    /// fold sort tags each sample with its original index so
    /// `sort_unstable_by` reproduces [`superpose`]'s *stable* order (folded
    /// coordinates can tie — e.g. t = 10 and t = 108 both fold to 10 at
    /// cycle 98 — and bin sums depend on summation order).
    ///
    /// # Panics
    /// Panics when `cycle_s` is not positive.
    pub(crate) fn cycle_profile(&mut self, samples: &[(f64, f64)], cycle_s: f64) {
        assert!(cycle_s > 0.0, "cycle must be positive");
        let _span =
            taxilight_obs::span!("superpose.profile", samples = samples.len(), cycle_s = cycle_s);
        let cycle_len = cycle_s.round().max(1.0) as usize;

        // superpose
        self.folded.clear();
        self.folded
            .extend(samples.iter().enumerate().map(|(i, &(t, v))| (t.rem_euclid(cycle_s), v, i)));
        self.folded.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.2.cmp(&b.2)));

        // bin_cycle
        self.sums.clear();
        self.sums.resize(cycle_len, 0.0);
        self.bin_counts.clear();
        self.bin_counts.resize(cycle_len, 0);
        for &(x, v, _) in &self.folded {
            let idx = (x as usize).min(cycle_len.saturating_sub(1));
            self.sums[idx] += v;
            self.bin_counts[idx] += 1;
        }
        self.binned.clear();
        self.binned.extend(self.sums.iter().zip(&self.bin_counts).map(|(&s, &c)| {
            if c > 0 {
                Some(s / c as f64)
            } else {
                None
            }
        }));

        // fill_gaps_circular
        let n = self.binned.len();
        self.profile.clear();
        if n == 0 {
            return;
        }
        self.filled.clear();
        self.filled.extend((0..n).filter(|&i| self.binned[i].is_some()));
        if self.filled.is_empty() {
            self.profile.resize(n, 0.0);
            return;
        }
        if self.filled.len() == 1 {
            let v = self.binned[self.filled[0]].unwrap();
            self.profile.resize(n, v);
            return;
        }
        self.profile.resize(n, 0.0);
        for (k, &i) in self.filled.iter().enumerate() {
            self.profile[i] = self.binned[i].unwrap();
            let j = self.filled[(k + 1) % self.filled.len()];
            let gap = if j > i { j - i } else { n - i + j };
            if gap <= 1 {
                continue;
            }
            let (vi, vj) = (self.binned[i].unwrap(), self.binned[j].unwrap());
            for step in 1..gap {
                let idx = (i + step) % n;
                let w = step as f64 / gap as f64;
                self.profile[idx] = vi * (1.0 - w) + vj * w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating superpose → bin → gap-fill chain.
    fn cycle_profile(samples: &[(f64, f64)], cycle_s: f64) -> Vec<f64> {
        let cycle_len = cycle_s.round().max(1.0) as usize;
        fill_gaps_circular(&bin_cycle(&superpose(samples, cycle_s), cycle_len))
    }

    /// The workspace profile, reused across cases, is bit-identical to the
    /// allocating chain, including tied folded coordinates (whose bin summation order the
    /// tagged sort must reproduce) and degenerate inputs.
    #[test]
    fn workspace_profile_matches_allocating_bitwise() {
        let mut ws = crate::workspace::IdentifyWorkspace::new();
        let mut lcg = 9u64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut cases: Vec<(Vec<(f64, f64)>, f64)> = vec![
            // Exact ties: 10 and 108 both fold to 10 at cycle 98.
            (vec![(10.0, 1.0), (108.0, 2.0), (206.0, 3.0), (150.0, 4.0)], 98.0),
            (vec![], 50.0),
            (vec![(7.2, 33.0)], 60.0),
            (vec![(0.4, 0.1), (0.6, 0.2)], 1.3),
        ];
        for _ in 0..8 {
            let n = (next() * 150.0) as usize;
            let cycle = 10.0 + next() * 200.0;
            let s: Vec<(f64, f64)> = (0..n)
                .map(|_| ((next() * 5000.0).round(), (next() * 60.0 * 8.0).round() / 8.0))
                .collect();
            cases.push((s, cycle));
        }
        for (samples, cycle_s) in &cases {
            let reference = cycle_profile(samples, *cycle_s);
            ws.cycle_profile(samples, *cycle_s);
            assert_eq!(ws.profile.len(), reference.len());
            for (a, b) in ws.profile.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "profile diverged (cycle {cycle_s})");
            }
        }
    }

    #[test]
    fn fold_maps_by_modulo() {
        // Paper Fig. 10: cycle 98; samples from 3 consecutive cycles land
        // at `t mod 98`.
        let samples = vec![(10.0, 1.0), (108.0, 2.0), (206.0, 3.0), (150.0, 4.0)];
        let folded = superpose(&samples, 98.0);
        assert_eq!(folded.len(), 4);
        assert_eq!(folded[0].0, 10.0);
        assert_eq!(folded[1].0, 10.0);
        assert_eq!(folded[2].0, 10.0);
        assert!((folded[3].0 - 52.0).abs() < 1e-12);
        // Values preserved (the three t≡10 samples are 1, 2, 3 in some order).
        let mut vals: Vec<f64> = folded[..3].iter().map(|p| p.1).collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fold_preserves_relative_index() {
        // A sample `k` seconds after a red onset folds to the same
        // coordinate in every cycle — the property the paper relies on.
        let cycle = 106.0;
        for k in [0.0, 17.0, 63.0, 105.0] {
            let folded = superpose(&[(k, 1.0), (k + cycle, 1.0), (k + 5.0 * cycle, 1.0)], cycle);
            for &(x, _) in &folded {
                assert!((x - k).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cycle must be positive")]
    fn zero_cycle_rejected() {
        superpose(&[(1.0, 1.0)], 0.0);
    }

    #[test]
    fn bin_cycle_averages_within_seconds() {
        let folded = vec![(2.3, 10.0), (2.9, 20.0), (5.0, 7.0)];
        let binned = bin_cycle(&folded, 8);
        assert_eq!(binned[2], Some(15.0));
        assert_eq!(binned[5], Some(7.0));
        assert_eq!(binned[0], None);
        assert_eq!(binned.len(), 8);
    }

    #[test]
    fn fill_gaps_interpolates_linearly() {
        let binned = vec![Some(0.0), None, None, Some(30.0), None, None];
        let filled = fill_gaps_circular(&binned);
        assert_eq!(filled[0], 0.0);
        assert!((filled[1] - 10.0).abs() < 1e-9);
        assert!((filled[2] - 20.0).abs() < 1e-9);
        assert_eq!(filled[3], 30.0);
        // Circular wrap from index 3 back to 0: 30 → 0 over 3 steps.
        assert!((filled[4] - 20.0).abs() < 1e-9);
        assert!((filled[5] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fill_gaps_degenerate_cases() {
        assert!(fill_gaps_circular(&[]).is_empty());
        assert_eq!(fill_gaps_circular(&[None, None]), vec![0.0, 0.0]);
        assert_eq!(fill_gaps_circular(&[None, Some(5.0), None]), vec![5.0, 5.0, 5.0]);
        assert_eq!(fill_gaps_circular(&[Some(1.0)]), vec![1.0]);
    }

    #[test]
    fn cycle_profile_reconstructs_square_wave() {
        // Red [0, 39): slow; green [39, 98): fast. Sparse samples over 20
        // cycles must reconstruct the pattern after superposition.
        let cycle = 98.0;
        let mut samples = Vec::new();
        let mut t = 0.0;
        let mut k = 0u64;
        while t < 20.0 * cycle {
            let pos = t % cycle;
            let v = if pos < 39.0 { 1.0 } else { 40.0 };
            samples.push((t, v));
            // Irregular ~17 s gaps.
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += 12.0 + (k >> 33) as f64 / (1u64 << 31) as f64 * 10.0;
        }
        let profile = cycle_profile(&samples, cycle);
        assert_eq!(profile.len(), 98);
        let red_mean: f64 = profile[5..34].iter().sum::<f64>() / 29.0;
        let green_mean: f64 = profile[45..93].iter().sum::<f64>() / 48.0;
        assert!(red_mean < 10.0, "red region mean {red_mean}");
        assert!(green_mean > 25.0, "green region mean {green_mean}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn folded_coordinates_in_range(samples in prop::collection::vec(
                (0.0f64..100_000.0, -10.0f64..60.0), 0..200), cycle in 10.0f64..300.0) {
                for (x, _) in superpose(&samples, cycle) {
                    prop_assert!((0.0..cycle).contains(&x));
                }
            }

            #[test]
            fn fold_conserves_sample_count(samples in prop::collection::vec(
                (0.0f64..10_000.0, 0.0f64..60.0), 0..100)) {
                prop_assert_eq!(superpose(&samples, 98.0).len(), samples.len());
            }

            #[test]
            fn filled_profile_bounded_by_observed_values(
                samples in prop::collection::vec((0.0f64..5_000.0, 0.0f64..50.0), 1..100)
            ) {
                let profile = cycle_profile(&samples, 100.0);
                let lo = samples.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
                let hi = samples.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
                for v in profile {
                    prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
                }
            }

            #[test]
            fn fold_is_idempotent(samples in prop::collection::vec(
                (0.0f64..50_000.0, 0.0f64..60.0), 0..120), cycle in 10.0f64..300.0) {
                // Folded coordinates already lie in [0, cycle), so folding
                // again is the identity — the invariant that lets the
                // pipeline treat folded and unfolded phases uniformly.
                let once = superpose(&samples, cycle);
                let twice = superpose(&once, cycle);
                prop_assert_eq!(&once, &twice);
            }

            #[test]
            fn whole_cycle_shift_leaves_fold_unchanged(samples in prop::collection::vec(
                (0.0f64..5_000.0, 0.0f64..60.0), 0..80), k in 1u32..20) {
                // Sec. VI-B's core claim: superposition preserves relative
                // position within the cycle.
                let cycle = 98.0;
                let shifted: Vec<(f64, f64)> = samples
                    .iter()
                    .map(|&(t, v)| (t + k as f64 * cycle, v))
                    .collect();
                let a = superpose(&samples, cycle);
                let b = superpose(&shifted, cycle);
                prop_assert_eq!(a.len(), b.len());
                for (&(xa, va), &(xb, vb)) in a.iter().zip(&b) {
                    prop_assert!((xa - xb).abs() < 1e-6);
                    prop_assert!((va - vb).abs() < 1e-12);
                }
            }

            #[test]
            fn binning_conserves_mass(samples in prop::collection::vec(
                (0.0f64..3_000.0, 0.0f64..60.0), 0..120)) {
                // Per-bin mean × per-bin count sums back to the total: the
                // fold loses no sample mass. Recover counts by re-binning.
                let cycle_len = 100usize;
                let folded = superpose(&samples, cycle_len as f64);
                let binned = bin_cycle(&folded, cycle_len);
                let mut counts = vec![0u32; cycle_len];
                for &(x, _) in &folded {
                    counts[(x as usize).min(cycle_len - 1)] += 1;
                }
                let mass: f64 = binned
                    .iter()
                    .zip(&counts)
                    .map(|(b, &c)| b.unwrap_or(0.0) * c as f64)
                    .sum();
                let total: f64 = samples.iter().map(|p| p.1).sum();
                prop_assert!((mass - total).abs() < 1e-6 * total.max(1.0));
                // And a bin is empty iff no sample landed in it.
                for (b, &c) in binned.iter().zip(&counts) {
                    prop_assert_eq!(b.is_some(), c > 0);
                }
            }

            #[test]
            fn gap_fill_preserves_observed_bins(samples in prop::collection::vec(
                (0.0f64..2_000.0, 0.0f64..50.0), 1..60)) {
                let cycle_len = 60usize;
                let binned = bin_cycle(&superpose(&samples, cycle_len as f64), cycle_len);
                let filled = fill_gaps_circular(&binned);
                prop_assert_eq!(filled.len(), cycle_len);
                for (f, b) in filled.iter().zip(&binned) {
                    if let Some(v) = b {
                        prop_assert!((f - v).abs() < 1e-12);
                    }
                }
            }

            #[test]
            fn fold_contrast_stays_in_unit_interval(samples in prop::collection::vec(
                (0.0f64..10_000.0, 0.0f64..60.0), 0..150), cycle in 10.0f64..300.0) {
                let r2 = fold_contrast(&samples, cycle);
                prop_assert!((0.0..=1.0).contains(&r2));
            }
        }
    }
}
