//! The three workloads' inputs, rendered to files before any timing
//! starts, and their ground truth.
//!
//! `--seed` drives the taxi feed: routes, report phases, GPS noise and
//! passenger flaps of the simulated fleets, and every draw of the
//! synthetic city-day feed. The cities and their signal plans are fixed
//! (city seed [`CITY_SEED`]), so runs on different seeds measure the same
//! city under different traffic.
//!
//! Beside the seeded input every run renders the workload's *reference*
//! feed, drawn with [`REFERENCE_SEED`] whatever `--seed` is. The accuracy
//! shares are measured on it: with 16 to 64 lights per city, which
//! lights a fleet draw covers moves `red_within_6s_share` by 16-28 %
//! (interquartile range over median) from seed to seed, more than any
//! regression bound could absorb, while on one fixed feed the shares
//! move only when the identification arithmetic does.

use std::io;
use std::path::Path;

use taxilight_bench::cityday::{CityDayConfig, SyntheticCityDay};
use taxilight_core::evaluate::ScheduleTruth;
use taxilight_roadnet::graph::{LightId, RoadNetwork, SegmentId};
use taxilight_serve::ingest::encode_feed;
use taxilight_serve::{DaemonConfig, FeedFormat, FeedSource};
use taxilight_sim::{paper_city, small_city, CityScenario};
use taxilight_trace::record::{Fleet, TaxiRecord};
use taxilight_trace::source::{collect_source, CsvChunkReader};
use taxilight_trace::time::Timestamp;

/// Seed of the fixed cities (network and signal plans).
pub const CITY_SEED: u64 = 77;

/// Feed seed of the reference feed the accuracy shares are measured on.
pub const REFERENCE_SEED: u64 = 77;

/// Subdirectory of the input directory holding the reference feed.
pub const REFERENCE_DIR: &str = "reference";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper city's simulated fleet, replayed from CSV: engine-bound.
    Replay,
    /// A dense synthetic city-day feed streamed from CSV: intake-bound.
    CityDay,
    /// `taxilightd` fed paced ND-JSON while queried open loop.
    Serve,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "replay" => Some(Workload::Replay),
            "cityday" => Some(Workload::CityDay),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::CityDay => "cityday",
            Workload::Serve => "serve",
        }
    }
}

/// Size of one workload's input. [`Size::full`] is what the benchmark
/// runs; [`Size::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Simulated taxis (replay, serve) or synthetic taxis (cityday).
    pub taxis: usize,
    /// Feed length, seconds.
    pub feed_s: u32,
}

impl Size {
    /// The benchmark's size for `w`.
    pub fn full(w: Workload) -> Size {
        match w {
            // 13 five-minute rounds from 16:30 to 17:30: the windows
            // cross the 17:00 switch to the evening peak programme.
            Workload::Replay => Size { taxis: 120, feed_s: 7_200 },
            // 360 000 records, 2 half-hour rounds over a one-hour window.
            Workload::CityDay => Size { taxis: 1_500, feed_s: 7_200 },
            // 101 rounds after the first hour's window.
            Workload::Serve => Size { taxis: 20, feed_s: 3_600 + 60 + 100 * 300 },
        }
    }

    /// A seconds-long size for tests.
    pub fn tiny(w: Workload) -> Size {
        match w {
            Workload::Replay => Size { taxis: 60, feed_s: 4_200 },
            Workload::CityDay => Size { taxis: 200, feed_s: 5_400 },
            Workload::Serve => Size { taxis: 20, feed_s: 3_600 + 60 + 12 * 300 },
        }
    }
}

/// Round cadence of `w`, feed-clock seconds: the paper's 5 minutes,
/// except the city-day feed's half hour.
pub fn interval_s(w: Workload) -> u32 {
    match w {
        Workload::CityDay => 1_800,
        Workload::Replay | Workload::Serve => 300,
    }
}

/// Reorder grace of `w`: the engine default, except the daemon default
/// on `serve`.
pub fn grace_s(w: Workload) -> u32 {
    match w {
        Workload::Serve => DaemonConfig::default().reorder_grace_s,
        Workload::Replay | Workload::CityDay => 0,
    }
}

fn replay_start() -> Timestamp {
    Timestamp::civil(2014, 12, 5, 15, 30, 0)
}

fn cityday_start() -> Timestamp {
    Timestamp::civil(2014, 12, 5, 0, 0, 0)
}

/// The simulated city of `w` (replay, serve) with the fleet seeded by
/// `seed`.
pub fn scenario(w: Workload, seed: u64, size: Size) -> CityScenario {
    let mut city = match w {
        Workload::Serve => {
            let mut c = small_city(CITY_SEED, size.taxis);
            c.sim_config.hourly_activity = [1.0; 24];
            c
        }
        Workload::Replay | Workload::CityDay => paper_city(CITY_SEED, size.taxis),
    };
    city.sim_config.seed = seed;
    city
}

fn cityday_config(seed: u64, size: Size) -> CityDayConfig {
    CityDayConfig { seed, taxis: size.taxis as u32, day_s: size.feed_s, ..CityDayConfig::default() }
}

/// Name of the rendered feed file of `w`.
pub fn feed_file(w: Workload) -> &'static str {
    match w {
        Workload::Serve => "feed.ndjson",
        Workload::Replay | Workload::CityDay => "feed.csv",
    }
}

/// Name of the rendered network file.
pub const NETWORK_FILE: &str = "network.txt";

/// Renders `w`'s network (text form) and feed (Table-I CSV, or ND-JSON
/// for `serve`) into `dir`. Returns the number of feed records.
pub fn render(w: Workload, seed: u64, size: Size, dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let bad = |e: taxilight_trace::csv::CsvError| io::Error::other(e.to_string());
    let (net, records, fleet, format) = match w {
        Workload::Replay | Workload::Serve => {
            let city = scenario(w, seed, size);
            let start = match w {
                Workload::Serve => Timestamp::civil(2014, 12, 5, 9, 0, 0),
                _ => replay_start(),
            };
            let (log, fleet) = city.run_from(start, size.feed_s as u64);
            let mut records = log.into_records();
            // A live feed arrives in time order, not grouped per taxi.
            records.sort_by_key(|r| r.time);
            let format = if w == Workload::Serve { FeedFormat::NdJson } else { FeedFormat::Csv };
            (city.net, records, fleet, format)
        }
        Workload::CityDay => {
            let net = paper_city(CITY_SEED, 1).net;
            let mut feed = SyntheticCityDay::new(&net, cityday_config(seed, size), cityday_start());
            let (records, _) =
                collect_source(&mut feed).map_err(|e| io::Error::other(e.to_string()))?;
            let mut fleet = Fleet::new();
            fleet.register_many(size.taxis);
            (net, records, fleet, FeedFormat::Csv)
        }
    };
    std::fs::write(dir.join(NETWORK_FILE), taxilight_roadnet::io::write_network(&net))?;
    std::fs::write(dir.join(feed_file(w)), encode_feed(&records, &fleet, format).map_err(bad)?)?;
    Ok(records.len())
}

/// Decode chunk of the CSV workloads, bytes: the daemon's default.
pub const CSV_CHUNK_BYTES: usize = 64 * 1024;

/// Decodes a whole rendered feed in memory, with the reader the workload
/// streams it through (the daemon's, for `serve`). Returns the records
/// and the number of lines that did not decode.
pub fn decode_feed(w: Workload, path: &Path) -> io::Result<(Vec<TaxiRecord>, usize)> {
    let fail = |e: taxilight_trace::io::TraceFileError| io::Error::other(e.to_string());
    let (records, bad) = match w {
        Workload::Serve => {
            let file = std::fs::File::open(path)?;
            let chunk = DaemonConfig::default().chunk;
            collect_source(&mut FeedSource::new(file, FeedFormat::NdJson, chunk)).map_err(fail)?
        }
        Workload::Replay | Workload::CityDay => {
            collect_source(&mut CsvChunkReader::open(path, CSV_CHUNK_BYTES).map_err(fail)?)
                .map_err(fail)?
        }
    };
    Ok((records, bad.len()))
}

/// Ground truth of every light of `w`, as a function of (light, instant).
pub fn truth(
    w: Workload,
    seed: u64,
    size: Size,
    net: &RoadNetwork,
) -> Box<dyn Fn(LightId, Timestamp) -> Option<ScheduleTruth>> {
    match w {
        Workload::Replay | Workload::Serve => {
            let signals = scenario(w, seed, size).signals;
            Box::new(move |light, at| {
                signals.schedule(light)?;
                let plan = signals.plan(light, at);
                Some(ScheduleTruth {
                    cycle_s: plan.cycle_s as f64,
                    red_s: plan.red_s as f64,
                    red_start_mod_cycle_s: plan.offset_s as f64,
                })
            })
        }
        Workload::CityDay => {
            // SyntheticCityDay gates each segment with a fixed 90 s cycle
            // and 40 s red, red starting where (t − start + phase) ≡ 0
            // (mod 90) with phase = splitmix64(seed ^ 0x5EC0_17D5 ^ seg << 7)
            // mod 90. The light of a segment inherits its gate.
            let start = cityday_start().0;
            let mut by_light = std::collections::BTreeMap::new();
            for seg in net.segments() {
                if let Some(light) = net.light_of_segment(seg.id) {
                    by_light.insert(light, synthetic_red_onset(seed, seg.id, start));
                }
            }
            Box::new(move |light, _| {
                by_light.get(&light).map(|&onset| ScheduleTruth {
                    cycle_s: 90.0,
                    red_s: 40.0,
                    red_start_mod_cycle_s: onset,
                })
            })
        }
    }
}

/// Red onset phase (absolute seconds mod 90) of the synthetic gate on
/// segment `seg`.
fn synthetic_red_onset(seed: u64, seg: SegmentId, start: i64) -> f64 {
    let mut z = seed ^ 0x5EC0_17D5 ^ ((seg.0 as u64) << 7);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let phase = ((z ^ (z >> 31)) % 90) as i64;
    (start - phase).rem_euclid(90) as f64
}
