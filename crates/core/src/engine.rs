//! The unified identification engine — one facade, serial and sharded
//! execution, bit-identical results.
//!
//! [`Identifier`] replaces the four historical entry points
//! (`identify_light`, `identify_light_with_cycle`, `identify_all`,
//! `RealtimeIdentifier::try_identify`) with a single call driven by an
//! [`IdentifyRequest`]: which lights, an optional externally known cycle
//! length, and an [`ExecMode`].
//!
//! ## Sharded execution
//!
//! City-scale identification is embarrassingly parallel after partitioning
//! (paper Sec. IV): every light's `preprocess → interpolate → DFT → red →
//! superpose → change` chain reads shared immutable state (`&RoadNetwork`,
//! `&PartitionedTraces`) and writes only its own result. The engine
//! exploits that by
//!
//! 1. assigning each light to a **deterministic shard** via an FNV-1a hash
//!    of its intersection's id — stable across runs, machines, and thread
//!    counts, and keeping every light of a crossroad on one worker, so the
//!    pooled (enhancement-path) cycle search the lights of one axis share
//!    runs once (see [Workspaces](#workspaces));
//! 2. distributing shards round-robin over a pool of scoped worker
//!    threads, each accumulating results in **per-shard vectors** so no
//!    lock sits on the hot path;
//! 3. merging the per-shard vectors and sorting by `LightId` — the same
//!    ascending order the serial path produces.
//!
//! Because the per-light work is a pure function and every reduction is
//! order-independent, the sharded output is **bit-identical** to the
//! serial one for any shard/thread count — pinned by the
//! `engine_equivalence` property tests. The intersection-consensus pass is
//! a cross-light step, so it runs serially *after* the merge in both
//! modes.
//!
//! ## Workspaces
//!
//! Each worker thread owns one [`IdentifyWorkspace`] — FFT plan cache plus
//! every scratch buffer of the per-light pipeline — for the whole run, so
//! the hot path is allocation-free and lock-free in steady state. The
//! engine keeps a checkout pool ([`std::sync::Mutex`]-guarded, touched
//! only at run start/end, never per light) so plans and grown buffers
//! survive across runs — the property the realtime engine's round loop
//! relies on.
//!
//! A workspace also memoises the run's pooled cycle searches: all lights
//! on one axis of a crossroad pool the same samples, so the first of them
//! searches and the rest reuse its result. The memo is cleared at
//! checkout — a run has one set of traces and one instant — and the
//! intersection sharding above gives each crossroad one workspace.

use std::sync::Mutex;

use taxilight_obs::{event, span};

use crate::config::{ConfigError, IdentifyConfig};
use crate::pipeline::{
    identify_all_seq, identify_light_impl, identify_light_with_cycle_impl, light_sites,
    IdentifyError, LightSchedule, LightSite,
};
use crate::preprocess::PartitionedTraces;
use crate::workspace::{IdentifyWorkspace, StageTimings};
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_signal::plan::PlanCacheStats;
use taxilight_trace::time::Timestamp;

/// How the engine schedules per-light work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One light after another, ascending `LightId` — the reference path.
    Serial,
    /// Deterministic shards spread over a thread pool. `0` means "auto"
    /// for either knob: shards defaults to `4 × threads`, threads to the
    /// machine's available parallelism. Results are bit-identical to
    /// [`ExecMode::Serial`] regardless of either value.
    Sharded {
        /// Number of hash shards (`0` = auto).
        shards: usize,
        /// Number of worker threads (`0` = auto).
        threads: usize,
    },
}

impl ExecMode {
    /// The auto-sized sharded mode — the default execution path.
    pub const AUTO: ExecMode = ExecMode::Sharded { shards: 0, threads: 0 };
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::AUTO
    }
}

/// Which lights a request targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LightSelection {
    /// Every light with observations in the window (ascending id), like
    /// the historical `identify_all`.
    All,
    /// A single light (reported even when it has no data).
    One(LightId),
    /// An explicit set; duplicates are removed, output is ascending.
    Many(Vec<LightId>),
}

/// One identification request: the lights, the instant, the knowledge and
/// the execution shape.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifyRequest {
    /// Evaluation instant; the analysed window is `[at − window_s, at)`.
    pub at: Timestamp,
    /// Target lights.
    pub lights: LightSelection,
    /// Externally known cycle length (e.g. intersection consensus or a
    /// monitoring history): skips stage 1 and derives red + phase from it.
    pub known_cycle: Option<f64>,
    /// Execution mode. Never changes results, only wall-clock.
    pub exec: ExecMode,
    /// Overrides [`IdentifyConfig::intersection_consensus`] for this
    /// request. `None` keeps the config value for [`LightSelection::All`]
    /// and disables consensus for `One`/`Many` (matching the historical
    /// per-light entry points, which never ran the cross-light pass).
    pub consensus: Option<bool>,
}

impl IdentifyRequest {
    /// Identify every light with data at `at`.
    pub fn all(at: Timestamp) -> Self {
        IdentifyRequest {
            at,
            lights: LightSelection::All,
            known_cycle: None,
            exec: ExecMode::default(),
            consensus: None,
        }
    }

    /// Identify one light at `at`.
    pub fn one(at: Timestamp, light: LightId) -> Self {
        IdentifyRequest { lights: LightSelection::One(light), ..IdentifyRequest::all(at) }
    }

    /// Identify an explicit set of lights at `at`.
    pub fn many(at: Timestamp, lights: Vec<LightId>) -> Self {
        IdentifyRequest { lights: LightSelection::Many(lights), ..IdentifyRequest::all(at) }
    }

    /// Pin the cycle length instead of estimating it (stage 1 skipped).
    pub fn with_known_cycle(mut self, cycle_s: f64) -> Self {
        self.known_cycle = Some(cycle_s);
        self
    }

    /// Force serial execution.
    pub fn serial(mut self) -> Self {
        self.exec = ExecMode::Serial;
        self
    }

    /// Force sharded execution with explicit knobs (`0` = auto).
    pub fn sharded(mut self, shards: usize, threads: usize) -> Self {
        self.exec = ExecMode::Sharded { shards, threads };
        self
    }

    /// Explicitly enable or disable the intersection-consensus pass.
    pub fn with_consensus(mut self, on: bool) -> Self {
        self.consensus = Some(on);
        self
    }
}

/// What one engine run did, beyond the per-light results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStats {
    /// Lights processed (requested lights for `One`/`Many`, lights with
    /// data for `All`).
    pub lights: usize,
    /// Hash shards actually used (1 for serial execution).
    pub shards: usize,
    /// Worker threads actually used (1 for serial execution).
    pub threads: usize,
    /// Whether the intersection-consensus pass ran.
    pub consensus_applied: bool,
    /// Per-stage wall-clock summed over every worker (CPU seconds, so the
    /// total can exceed the run's wall-clock under parallel execution).
    pub stage_timings: StageTimings,
    /// FFT plan-cache hits/misses summed over every worker's workspace.
    pub plan_cache: PlanCacheStats,
}

/// Per-light outcomes: `(light, schedule-or-error)` pairs.
type LightResults = Vec<(LightId, Result<LightSchedule, IdentifyError>)>;

/// Typed result of [`Identifier::run`]: per-light outcomes in ascending
/// `LightId` order plus run statistics.
#[derive(Debug, Clone)]
pub struct IdentifyOutcome {
    /// `(light, schedule-or-error)` in ascending `LightId` order.
    pub results: Vec<(LightId, Result<LightSchedule, IdentifyError>)>,
    /// Execution statistics.
    pub stats: EngineStats,
}

impl IdentifyOutcome {
    /// The schedule of `light`, if identified.
    pub fn schedule(&self, light: LightId) -> Option<&LightSchedule> {
        self.results.iter().find(|(l, _)| *l == light).and_then(|(_, r)| r.as_ref().ok())
    }

    /// Consumes a single-light outcome (a [`LightSelection::One`] request)
    /// into its result.
    ///
    /// # Panics
    /// Panics when the outcome holds zero or several lights.
    pub fn into_single(mut self) -> Result<LightSchedule, IdentifyError> {
        assert_eq!(self.results.len(), 1, "into_single on a {}-light outcome", self.results.len());
        self.results.pop().expect("one result").1
    }

    /// Successfully identified `(light, schedule)` pairs, ascending.
    pub fn schedules(&self) -> impl Iterator<Item = (LightId, &LightSchedule)> {
        self.results.iter().filter_map(|(l, r)| r.as_ref().ok().map(|s| (*l, s)))
    }

    /// Number of successfully identified lights.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.is_ok()).count()
    }
}

/// Stable FNV-1a 64-bit hash of a shard key (see [`Identifier::shard`])
/// — the shard assignment must not depend on `DefaultHasher`'s
/// unspecified, build-dependent output.
pub fn shard_of(key: u32, shards: usize) -> usize {
    debug_assert!(shards > 0);
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for b in key.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    (h % shards as u64) as usize
}

/// The unified identification facade — the one true execution path for
/// batch identification (the realtime engine routes through it too).
pub struct Identifier<'a> {
    net: &'a RoadNetwork,
    cfg: IdentifyConfig,
    /// Every network light's site, indexed by `LightId.0`.
    sites: Vec<Option<LightSite>>,
    /// Idle workspaces kept across runs so FFT plans and grown buffers
    /// amortize. Locked only at run start (checkout) and run end
    /// (checkin); each worker owns its workspace exclusively in between.
    pool: Mutex<Vec<IdentifyWorkspace>>,
}

impl<'a> Identifier<'a> {
    /// Creates an engine over `net`, validating `cfg` up front so
    /// degenerate values surface here instead of deep inside the pipeline.
    pub fn new(net: &'a RoadNetwork, cfg: IdentifyConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Identifier::new_unchecked(net, cfg))
    }

    /// Creates an engine with the paper-default configuration.
    pub fn with_defaults(net: &'a RoadNetwork) -> Self {
        Identifier::new_unchecked(net, IdentifyConfig::default())
    }

    /// Builds the engine without validating `cfg`: [`Identifier::new`]
    /// validates first, and the realtime engine, which predates config
    /// validation, must keep its exact historical behaviour.
    pub(crate) fn new_unchecked(net: &'a RoadNetwork, cfg: IdentifyConfig) -> Self {
        Identifier { net, cfg, sites: light_sites(net), pool: Mutex::new(Vec::new()) }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IdentifyConfig {
        &self.cfg
    }

    fn site(&self, light: LightId) -> Option<LightSite> {
        self.sites.get(light.0 as usize).copied().flatten()
    }

    /// The shard `light` runs in when a sharded run uses `shards` shards:
    /// [`shard_of`] its intersection's id, or of its own id for a light
    /// outside the network.
    pub fn shard(&self, light: LightId, shards: usize) -> usize {
        shard_of(self.site(light).map_or(light.0, |(intersection, _)| intersection.0), shards)
    }

    /// Pops a pooled workspace (or builds one) with fresh run counters
    /// and an empty pooled-search memo.
    fn checkout(&self) -> IdentifyWorkspace {
        let mut pool = self.pool.lock().expect("workspace pool poisoned");
        let pooled = !pool.is_empty();
        let mut ws = pool.pop().unwrap_or_default();
        drop(pool);
        event!("workspace.checkout", pooled = pooled);
        ws.reset_run_stats();
        ws.pooled.clear();
        ws
    }

    /// Returns a workspace to the pool, keeping its plans and buffers.
    fn checkin(&self, ws: IdentifyWorkspace) {
        event!(
            "workspace.checkin",
            plan_hits = ws.plan_stats().hits(),
            plan_misses = ws.plan_stats().misses()
        );
        self.pool.lock().expect("workspace pool poisoned").push(ws);
    }

    /// Runs one identification request against pre-partitioned traces.
    pub fn run(&self, parts: &PartitionedTraces, req: &IdentifyRequest) -> IdentifyOutcome {
        // Resolve the target set in ascending id order (the serial
        // reference order, and the order the output is pinned to).
        let lights: Vec<LightId> = match &req.lights {
            LightSelection::All => parts.lights_with_data(),
            LightSelection::One(l) => vec![*l],
            LightSelection::Many(ls) => {
                let mut ls = ls.clone();
                ls.sort_by_key(|l| l.0);
                ls.dedup();
                ls
            }
        };

        let _run_span = span!("engine.run", lights = lights.len());
        let (results, shards, threads, mut workspaces) = match req.exec {
            ExecMode::Serial => {
                let mut ws = self.checkout();
                let results = self.run_serial(parts, &lights, req, &mut ws);
                (results, 1, 1, vec![ws])
            }
            ExecMode::Sharded { shards, threads } => {
                let threads = if threads == 0 {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                } else {
                    threads
                };
                let shards = if shards == 0 { (threads * 4).max(1) } else { shards };
                let (results, workspaces) = self.run_sharded(parts, &lights, req, shards, threads);
                (results, shards, threads, workspaces)
            }
        };

        // The consensus pass compares estimates *across* lights of one
        // intersection, so it runs serially after the merge in both modes
        // — identical inputs, identical outputs, bit-identical overall.
        let consensus_applies = req.known_cycle.is_none()
            && req.consensus.unwrap_or(match req.lights {
                LightSelection::All => self.cfg.intersection_consensus,
                _ => false,
            });
        let mut results = results;
        if consensus_applies {
            let _consensus_span = span!("engine.consensus", lights = results.len());
            crate::pipeline::reconcile_intersections(
                &mut results,
                parts,
                self.net,
                req.at,
                &self.cfg,
                &mut workspaces[0],
            );
        }

        let merge_span = span!("engine.merge", workspaces = workspaces.len());
        let mut stage_timings = StageTimings::default();
        let mut plan_cache = PlanCacheStats::default();
        for ws in workspaces {
            stage_timings.merge(&ws.timings());
            plan_cache.merge(ws.plan_stats());
            self.checkin(ws);
        }
        drop(merge_span);

        IdentifyOutcome {
            stats: EngineStats {
                lights: results.len(),
                shards,
                threads,
                consensus_applied: consensus_applies,
                stage_timings,
                plan_cache,
            },
            results,
        }
    }

    /// Stage pipeline for one light, honouring a pinned cycle.
    fn identify_one(
        &self,
        parts: &PartitionedTraces,
        light: LightId,
        req: &IdentifyRequest,
        ws: &mut IdentifyWorkspace,
    ) -> Result<LightSchedule, IdentifyError> {
        match req.known_cycle {
            Some(cycle_s) => {
                identify_light_with_cycle_impl(parts, light, req.at, &self.cfg, cycle_s, ws)
            }
            None => {
                identify_light_impl(parts, self.net, light, self.site(light), req.at, &self.cfg, ws)
            }
        }
    }

    fn run_serial(
        &self,
        parts: &PartitionedTraces,
        lights: &[LightId],
        req: &IdentifyRequest,
        ws: &mut IdentifyWorkspace,
    ) -> LightResults {
        lights.iter().map(|&l| (l, self.identify_one(parts, l, req, ws))).collect()
    }

    fn run_sharded(
        &self,
        parts: &PartitionedTraces,
        lights: &[LightId],
        req: &IdentifyRequest,
        shards: usize,
        threads: usize,
    ) -> (LightResults, Vec<IdentifyWorkspace>) {
        // Deterministic shard assignment by intersection: lights stay in
        // ascending order inside each shard (stable partition of an
        // ascending input).
        let mut buckets: Vec<Vec<LightId>> = vec![Vec::new(); shards];
        for &l in lights {
            buckets[self.shard(l, shards)].push(l);
        }

        let workers = threads.min(shards).max(1);
        if workers <= 1 {
            // Degenerate pool: process shards in order on this thread.
            let mut ws = self.checkout();
            let mut merged: LightResults = Vec::new();
            for (shard_idx, shard) in buckets.iter().enumerate() {
                let _shard_span = span!("engine.shard", shard = shard_idx, lights = shard.len());
                for &l in shard {
                    merged.push((l, self.identify_one(parts, l, req, &mut ws)));
                }
            }
            merged.sort_by_key(|(l, _)| l.0);
            return (merged, vec![ws]);
        }

        // Round-robin shards over scoped workers; each worker owns its
        // workspace and its output vector for the whole run (per-worker
        // state, no shared locks on the per-light path).
        let wss: Vec<IdentifyWorkspace> = (0..workers).map(|_| self.checkout()).collect();
        let per_worker: Vec<(LightResults, IdentifyWorkspace)> = std::thread::scope(|scope| {
            let buckets = &buckets;
            // The intermediate collect is load-bearing: every worker must
            // be spawned before the first join, or the laps would run one
            // worker at a time.
            #[allow(clippy::needless_collect)]
            let handles: Vec<_> = wss
                .into_iter()
                .enumerate()
                .map(|(w, mut ws)| {
                    scope.spawn(move || {
                        taxilight_obs::set_track_name(|| format!("engine-worker-{w}"));
                        let out: Vec<_> = buckets
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .flat_map(|(shard_idx, shard)| {
                                let _shard_span =
                                    span!("engine.shard", shard = shard_idx, lights = shard.len());
                                shard
                                    .iter()
                                    .map(|&l| (l, self.identify_one(parts, l, req, &mut ws)))
                                    .collect::<Vec<_>>()
                            })
                            .collect();
                        (out, ws)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("engine worker panicked")).collect()
        });

        let mut merged = Vec::new();
        let mut used = Vec::with_capacity(workers);
        for (out, ws) in per_worker {
            merged.extend(out);
            used.push(ws);
        }
        // Merge in LightId order — the serial reference order.
        merged.sort_by_key(|(l, _)| l.0);
        (merged, used)
    }
}

/// Sequential reference run over all lights with data, without consensus —
/// used by the equivalence tests to cross-check [`Identifier::run`]
/// against the pre-engine semantics.
pub fn reference_serial(
    parts: &PartitionedTraces,
    net: &RoadNetwork,
    at: Timestamp,
    cfg: &IdentifyConfig,
) -> Vec<(LightId, Result<LightSchedule, IdentifyError>)> {
    identify_all_seq(parts, net, at, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        // Pinned values: the FNV-1a schedule digest in BENCH_throughput
        // depends on this exact hash; a silent change must fail loudly.
        assert_eq!(shard_of(0, 8), 5);
        assert_eq!(shard_of(1, 8), 4);
        assert_eq!(shard_of(42, 8), 7);
        for id in 0..1000 {
            for shards in [1, 2, 3, 7, 16] {
                assert!(shard_of(id, shards) < shards);
            }
        }
    }

    #[test]
    fn shard_assignment_spreads_lights() {
        // 1000 sequential ids over 8 shards: no shard should be empty or
        // hold more than half the lights.
        let mut counts = [0usize; 8];
        for id in 0..1000 {
            counts[shard_of(id, 8)] += 1;
        }
        for c in counts {
            assert!(c > 0 && c < 500, "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn exec_mode_default_is_auto_sharded() {
        assert_eq!(ExecMode::default(), ExecMode::Sharded { shards: 0, threads: 0 });
    }

    #[test]
    fn request_builders_compose() {
        let at = Timestamp(1000);
        let r = IdentifyRequest::all(at).serial().with_consensus(false);
        assert_eq!(r.exec, ExecMode::Serial);
        assert_eq!(r.consensus, Some(false));
        let r = IdentifyRequest::one(at, LightId(3)).with_known_cycle(90.0);
        assert_eq!(r.known_cycle, Some(90.0));
        assert_eq!(r.lights, LightSelection::One(LightId(3)));
        let r = IdentifyRequest::many(at, vec![LightId(2), LightId(1)]).sharded(5, 2);
        assert_eq!(r.exec, ExecMode::Sharded { shards: 5, threads: 2 });
    }

    #[test]
    fn identifier_rejects_degenerate_config() {
        let city = taxilight_roadnet::generators::grid_city(
            &taxilight_roadnet::generators::GridConfig::default(),
        );
        let bad = IdentifyConfig { window_s: 0, ..IdentifyConfig::default() };
        assert!(Identifier::new(&city.net, bad).is_err());
        assert!(Identifier::new(&city.net, IdentifyConfig::default()).is_ok());
    }
}
