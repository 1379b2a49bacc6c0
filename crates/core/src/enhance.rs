//! Intersection-based enhancement (paper Sec. V-B, Eq. 3).
//!
//! All lights at one crossroad share the cycle length, and perpendicular
//! flows move in antiphase: cars on the N-S road flow while the E-W road
//! waits. When one approach's data is too sparse for a clean spectrum, the
//! perpendicular approach's samples are **mirrored about the intersection
//! mean speed** and merged in:
//!
//! ```text
//!           ⎧ v_t                      primary sample exists
//! v_t^e  =  ⎨ max(0, 2·v̄ − v_t^p)     only perpendicular exists
//!           ⎩ ∅                        otherwise
//! ```

use crate::config::IdentifyConfig;
use crate::cycle::{identify_cycle_from_samples, speed_samples, CycleError, CycleEstimate};
use crate::preprocess::LightObs;
use taxilight_trace::time::Timestamp;

/// Applies Eq. (3): merges `primary` samples with mirrored `perpendicular`
/// samples at the seconds where the primary road has none. Inputs are
/// `(t, speed)` pairs (any order); the output is slot-merged and sorted. A
/// convenience over a temporary
/// [`IdentifyWorkspace`](crate::workspace::IdentifyWorkspace), which holds
/// the algorithm.
pub fn mirror_enhance(primary: &[(f64, f64)], perpendicular: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut ws = crate::workspace::IdentifyWorkspace::new();
    ws.pool_primary.extend_from_slice(primary);
    ws.pool_perpendicular.extend_from_slice(perpendicular);
    ws.mirror_enhance_pools();
    ws.enhanced
}

/// Cycle identification with enhancement: uses the perpendicular
/// approach's observations to densify the primary's input (both windows
/// relative to `t0`, grid of `t1 - t0` seconds).
pub fn identify_cycle_enhanced(
    primary: &[LightObs],
    perpendicular: &[LightObs],
    t0: Timestamp,
    t1: Timestamp,
    cfg: &IdentifyConfig,
) -> Result<CycleEstimate, CycleError> {
    let prim = speed_samples(primary, t0, cfg.influence_radius_m);
    let perp = speed_samples(perpendicular, t0, cfg.influence_radius_m);
    let merged = mirror_enhance(&prim, &perp);
    identify_cycle_from_samples(&merged, t1.delta(t0) as usize, cfg)
}

impl crate::workspace::IdentifyWorkspace {
    /// Eq. (3) over the pools in `self.pool_primary` /
    /// `self.pool_perpendicular`, writing the merged series into
    /// `self.enhanced`. The final sort's keys are provably distinct
    /// (slot-merged primary seconds, plus perpendicular seconds that pass
    /// the `have` filter), so the unstable sort is deterministic.
    pub(crate) fn mirror_enhance_pools(&mut self) {
        self.signal.merge_coincident_into(&self.pool_primary, &mut self.prim);
        self.signal.merge_coincident_into(&self.pool_perpendicular, &mut self.perp);
        self.enhanced.clear();
        self.enhanced.extend_from_slice(&self.prim);
        if self.perp.is_empty() {
            return;
        }
        // v̄: the intersection's mean speed over both roads.
        let total: f64 = self.prim.iter().map(|p| p.1).chain(self.perp.iter().map(|p| p.1)).sum();
        let count = self.prim.len() + self.perp.len();
        let v_bar = total / count as f64;

        self.have.clear();
        self.have.extend(self.prim.iter().map(|&(t, _)| t as i64));
        for &(t, v_p) in &self.perp {
            if !self.have.contains(&(t as i64)) {
                self.enhanced.push((t, (2.0 * v_bar - v_p).max(0.0)));
            }
        }
        self.enhanced.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::testutil::{planted_obs, Lcg};
    use taxilight_signal::interpolate::merge_coincident;

    /// One workspace reused across cases returns exactly what a fresh one
    /// ([`mirror_enhance`]) returns, including empty pools on both sides.
    #[test]
    #[allow(clippy::type_complexity)]
    fn reused_workspace_enhance_matches_fresh_bitwise() {
        let mut rng = Lcg(77);
        let mut ws = crate::workspace::IdentifyWorkspace::new();
        let mut cases: Vec<(Vec<(f64, f64)>, Vec<(f64, f64)>)> = vec![
            (vec![(10.0, 40.0), (30.0, 0.0)], vec![(10.0, 0.0), (20.0, 40.0), (40.0, 0.0)]),
            (vec![(3.0, 12.0), (9.0, 30.0)], vec![]),
            (vec![], vec![(1.0, 80.0), (1.4, 10.0)]),
            (vec![], vec![]),
            (vec![(0.0, 0.0)], vec![(1.0, 80.0)]),
        ];
        for _ in 0..6 {
            let n = (rng.range(0.0, 60.0)) as usize;
            let m = (rng.range(0.0, 60.0)) as usize;
            let mk = |rng: &mut Lcg, k: usize| {
                (0..k).map(|_| (rng.range(-5.0, 900.0), rng.range(0.0, 55.0))).collect::<Vec<_>>()
            };
            let p = mk(&mut rng, n);
            let q = mk(&mut rng, m);
            cases.push((p, q));
        }
        for (primary, perpendicular) in cases {
            let reference = mirror_enhance(&primary, &perpendicular);
            ws.pool_primary.clear();
            ws.pool_primary.extend_from_slice(&primary);
            ws.pool_perpendicular.clear();
            ws.pool_perpendicular.extend_from_slice(&perpendicular);
            ws.mirror_enhance_pools();
            assert_eq!(ws.enhanced.len(), reference.len());
            for (a, b) in ws.enhanced.iter().zip(&reference) {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    #[test]
    fn mirroring_fills_only_missing_seconds() {
        let primary = vec![(10.0, 40.0), (30.0, 0.0)];
        let perpendicular = vec![(10.0, 0.0), (20.0, 40.0), (40.0, 0.0)];
        // v̄ = (40 + 0 + 0 + 40 + 0) / 5 = 16.
        let merged = mirror_enhance(&primary, &perpendicular);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0], (10.0, 40.0)); // primary kept verbatim
                                             // t=20: mirrored: max(0, 32 - 40) = 0.
        assert_eq!(merged[1], (20.0, 0.0));
        assert_eq!(merged[2], (30.0, 0.0));
        // t=40: mirrored: max(0, 32 - 0) = 32.
        assert_eq!(merged[3], (40.0, 32.0));
    }

    #[test]
    fn mirror_is_antiphase_in_spirit() {
        // Against the same intersection mean (set by the primary's
        // baseline), a fast perpendicular sample mirrors to a slow primary
        // value and a slow one to a fast value.
        let baseline = [(0.0, 20.0), (1.0, 20.0)];
        let perp_green = mirror_enhance(&baseline, &[(5.0, 45.0)]);
        let perp_red = mirror_enhance(&baseline, &[(5.0, 0.0)]);
        let mirrored_of = |v: &Vec<(f64, f64)>| v.iter().find(|p| p.0 == 5.0).unwrap().1;
        assert!(
            mirrored_of(&perp_green) < mirrored_of(&perp_red),
            "fast perpendicular ⇒ slow primary: {} vs {}",
            mirrored_of(&perp_green),
            mirrored_of(&perp_red)
        );
    }

    #[test]
    fn empty_perpendicular_is_identity() {
        let primary = vec![(3.0, 12.0), (9.0, 30.0)];
        assert_eq!(mirror_enhance(&primary, &[]), merge_coincident(&primary));
        assert!(mirror_enhance(&[], &[]).is_empty());
    }

    #[test]
    fn negative_mirrors_clamp_to_zero() {
        // Very fast perpendicular with slow mean ⇒ mirror would be negative.
        let merged = mirror_enhance(&[(0.0, 0.0)], &[(1.0, 80.0)]);
        assert!(merged[1].1 >= 0.0);
    }

    #[test]
    fn enhancement_recovers_cycle_where_sparse_primary_fails() {
        // Primary: ~1 sample / 55 s — far too sparse for a clean spectrum.
        // Perpendicular (antiphase, offset shifted by red duration): same
        // sparsity. Together they succeed.
        let cycle = 110;
        let red = 50;
        let primary = planted_obs(cycle, red, 0, 3600, 55.0, 21);
        // Perpendicular road: red exactly while primary is green.
        let perpendicular = planted_obs(cycle, cycle - red, red, 3600, 55.0, 22);

        let cfg = IdentifyConfig { min_snr: 1.0, ..IdentifyConfig::default() };
        let solo = identify_cycle_from_samples(
            &speed_samples(&primary, Timestamp(0), cfg.influence_radius_m),
            3600,
            &cfg,
        );
        let enhanced =
            identify_cycle_enhanced(&primary, &perpendicular, Timestamp(0), Timestamp(3600), &cfg)
                .unwrap();
        let err_enhanced = (enhanced.cycle_s - cycle as f64).abs();
        let err_solo = solo.map(|e| (e.cycle_s - cycle as f64).abs()).unwrap_or(f64::INFINITY);
        assert!(
            err_enhanced < 8.0,
            "enhanced estimate {} should be near {cycle}",
            enhanced.cycle_s
        );
        assert!(
            err_enhanced <= err_solo + 1.0,
            "enhancement must not hurt: solo {err_solo}, enhanced {err_enhanced}"
        );
    }

    #[test]
    fn enhancement_uses_more_samples() {
        let primary = planted_obs(100, 45, 0, 1800, 40.0, 31);
        let perpendicular = planted_obs(100, 55, 45, 1800, 40.0, 32);
        let cfg = IdentifyConfig { min_snr: 1.0, ..IdentifyConfig::default() };
        let enhanced =
            identify_cycle_enhanced(&primary, &perpendicular, Timestamp(0), Timestamp(1800), &cfg)
                .unwrap();
        assert!(enhanced.samples_used > primary.len());
    }

    #[test]
    fn mean_of_merged_preserves_scale() {
        // Mirrored values stay in a physically sensible band around v̄.
        let mut rng = Lcg(5);
        let primary: Vec<(f64, f64)> =
            (0..50).map(|k| (k as f64 * 7.0, rng.range(0.0, 50.0))).collect();
        let perpendicular: Vec<(f64, f64)> =
            (0..50).map(|k| (k as f64 * 7.0 + 3.0, rng.range(0.0, 50.0))).collect();
        for (_, v) in mirror_enhance(&primary, &perpendicular) {
            assert!((0.0..=100.0).contains(&v), "mirrored speed {v} out of band");
        }
    }
}
