//! The reference run every measured run is checked against: the same
//! decoded records pushed one at a time into a fresh in-memory
//! `RealtimeIdentifier`, observed after every record.
//!
//! Pushing record by record is the engine's documented single-record
//! intake (`extend` and `extend_source` must match it bit for bit), and
//! it lets the oracle see every round as it fires: which record made it
//! due (for freshness), how many lights it attempted and identified, and
//! each identified light's estimate against ground truth at the round
//! instant (Fig. 14's accuracy shares).

use taxilight_core::evaluate::{compare, ScheduleTruth};
use taxilight_core::realtime::{RealtimeIdentifier, RoundReport};
use taxilight_core::ScheduleView;
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_trace::record::TaxiRecord;
use taxilight_trace::time::Timestamp;

/// One fired round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Round instant (feed clock).
    pub at: Timestamp,
    /// Index of the record whose arrival fired the round.
    pub trigger: usize,
    /// Lights attempted.
    pub attempted: usize,
    /// Lights identified.
    pub identified: usize,
}

/// Per-estimate accuracy counts (Fig. 14 thresholds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accuracy {
    /// (light, round) estimates compared against ground truth.
    pub estimates: u64,
    /// Cycle error ≤ 10 s.
    pub cycle_within_10s: u64,
    /// Red duration error ≤ 6 s.
    pub red_within_6s: u64,
    /// Signal change (red onset) error ≤ 6 s.
    pub change_within_6s: u64,
}

impl Accuracy {
    fn share(&self, n: u64) -> f64 {
        if self.estimates == 0 {
            0.0
        } else {
            n as f64 / self.estimates as f64
        }
    }

    /// Share of estimates with cycle error ≤ 10 s.
    pub fn cycle_share(&self) -> f64 {
        self.share(self.cycle_within_10s)
    }

    /// Share of estimates with red error ≤ 6 s.
    pub fn red_share(&self) -> f64 {
        self.share(self.red_within_6s)
    }

    /// Share of estimates with change-time error ≤ 6 s.
    pub fn change_share(&self) -> f64 {
        self.share(self.change_within_6s)
    }
}

/// Everything the measured runs are checked against.
pub struct Oracle {
    /// Records pushed.
    pub records: usize,
    /// Every round, in firing order.
    pub rounds: Vec<Round>,
    /// The engine's final round report.
    pub report: RoundReport,
    /// Final schedule view.
    pub view: ScheduleView,
    /// The view after each round (index `version − 1`), when requested.
    pub views: Vec<ScheduleView>,
    /// Observations buffered at the end.
    pub buffered_obs: usize,
    /// Accuracy over every (light, round) estimate.
    pub accuracy: Accuracy,
}

impl Oracle {
    /// Lights attempted, summed over rounds.
    pub fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.attempted as u64).sum()
    }

    /// Lights identified, summed over rounds.
    pub fn identified(&self) -> u64 {
        self.rounds.iter().map(|r| r.identified as u64).sum()
    }

    /// Identified over attempted, summed over all rounds.
    pub fn identified_share(&self) -> f64 {
        self.identified() as f64 / self.attempted().max(1) as f64
    }
}

/// Ground truth of `light` at instant `at`; `None` where the light has
/// no known schedule.
pub type Truth<'a> = dyn Fn(LightId, Timestamp) -> Option<ScheduleTruth> + 'a;

/// Runs the oracle over `records` with the engine defaults plus the
/// workload's round `interval_s` and `grace_s`. `keep_views` keeps the
/// view of every version (the serving check needs them).
///
/// # Panics
/// When one record fires several rounds at once: a feed gap that long
/// hides the earlier rounds' estimates, and no workload has one.
pub fn run(
    net: &RoadNetwork,
    interval_s: u32,
    grace_s: u32,
    records: &[TaxiRecord],
    truth: &Truth,
    keep_views: bool,
) -> Oracle {
    let mut engine = RealtimeIdentifier::builder(net)
        .interval_s(interval_s)
        .reorder_grace_s(grace_s)
        .build()
        .expect("default engine config is valid");
    let mut rounds = Vec::new();
    let mut views = Vec::new();
    let mut accuracy = Accuracy::default();
    for (i, r) in records.iter().enumerate() {
        engine.push(r);
        let report = engine.round_report();
        if report.rounds == rounds.len() as u64 {
            continue;
        }
        assert_eq!(report.rounds, rounds.len() as u64 + 1, "record {i} fired several rounds");
        let at = report.at.expect("a fired round has an instant");
        for h in engine.health().iter().filter(|h| h.last_version == report.rounds) {
            let (Some(est), Some(truth)) = (engine.schedule(h.light), truth(h.light, at)) else {
                continue;
            };
            let err = compare(est, &truth);
            accuracy.estimates += 1;
            accuracy.cycle_within_10s += u64::from(err.cycle_err_s <= 10.0);
            accuracy.red_within_6s += u64::from(err.red_err_s <= 6.0);
            accuracy.change_within_6s += u64::from(err.change_err_s <= 6.0);
        }
        rounds.push(Round {
            at,
            trigger: i,
            attempted: report.lights_attempted,
            identified: report.lights_identified,
        });
        if keep_views {
            views.push(engine.view());
        }
    }
    Oracle {
        records: records.len(),
        rounds,
        report: engine.round_report(),
        view: engine.view(),
        views,
        buffered_obs: engine.buffered_observations(),
        accuracy,
    }
}
