//! The two intake workloads, `replay` and `cityday`: a rendered Table-I
//! CSV file decoded by `CsvChunkReader` and streamed into
//! `RealtimeIdentifier::extend_source`, lap after lap in one process.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use taxilight_core::realtime::{RealtimeIdentifier, RoundReport};
use taxilight_core::ScheduleView;
use taxilight_obs::span;
use taxilight_roadnet::graph::RoadNetwork;
use taxilight_trace::io::TraceFileError;
use taxilight_trace::source::{CsvChunkReader, RecordBatch, RecordSource};

use crate::input::{self, Workload};
use crate::oracle::{self, Oracle};
use crate::profile;
use crate::report::Report;
use crate::stats::{median, per_cpu_median, quantile};
use crate::{common, Args};

/// A `RecordSource` that times every `next_batch` of the source it
/// wraps and notes when each batch was handed out and when the next one
/// was asked for.
pub struct TimedSource<S> {
    inner: S,
    /// Time spent inside the wrapped `next_batch`.
    pub busy: Duration,
    /// Records handed out so far.
    pub records: usize,
    /// Rejected lines seen so far.
    pub bad_lines: usize,
    /// Per call: when it started.
    pub called: Vec<Instant>,
    /// Per call: records handed out up to and including it, and when it
    /// returned.
    pub returned: Vec<(usize, Instant)>,
}

impl<S: RecordSource> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            busy: Duration::ZERO,
            records: 0,
            bad_lines: 0,
            called: Vec::new(),
            returned: Vec::new(),
        }
    }

    /// Wall time from handing out record `index` until the consumer came
    /// back for more (or `end`): how long after its decode the work the
    /// record triggered was done.
    pub fn until_next_call(&self, index: usize, end: Instant) -> Option<Duration> {
        let b = self.returned.iter().position(|(upto, _)| *upto > index)?;
        let next = self.called.get(b + 1).copied().unwrap_or(end);
        Some(next.saturating_duration_since(self.returned[b].1))
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, TraceFileError> {
        let _span = span!("bench.decode");
        let t0 = Instant::now();
        let more = self.inner.next_batch(batch);
        let t1 = Instant::now();
        self.busy += t1 - t0;
        self.records += batch.records.len();
        self.bad_lines += batch.bad_lines.len();
        self.called.push(t0);
        self.returned.push((self.records, t1));
        more
    }
}

/// One timed lap.
struct Lap {
    elapsed: Duration,
    source: TimedSource<CsvChunkReader<std::io::BufReader<std::fs::File>>>,
    end: Instant,
    report: RoundReport,
    view: ScheduleView,
    buffered_obs: usize,
}

/// Streams the feed file through a fresh engine once.
fn lap(net: &RoadNetwork, w: Workload, feed: &Path) -> Lap {
    let mut engine = RealtimeIdentifier::builder(net)
        .interval_s(input::interval_s(w))
        .reorder_grace_s(input::grace_s(w))
        .build()
        .expect("default engine config is valid");
    let reader = CsvChunkReader::open(feed, input::CSV_CHUNK_BYTES).expect("open rendered feed");
    let mut source = TimedSource::new(reader);
    let t0 = Instant::now();
    {
        let _lap = span!("bench.lap");
        let _call = span!("bench.extend_source");
        engine.extend_source(&mut source).expect("rendered feed reads cleanly");
    }
    let end = Instant::now();
    Lap {
        elapsed: end - t0,
        source,
        end,
        report: engine.round_report(),
        view: engine.view(),
        buffered_obs: engine.buffered_observations(),
    }
}

/// In-process queries against a lap's final view: the library's query
/// path (`ScheduleView::wait_for_green`), timed in batches of 1 000.
#[derive(Default)]
struct Probe {
    /// Per batch: the CPU it ran on and its time per query, ms.
    per_query_ms: Vec<(usize, f64)>,
    sent: u64,
    ok: u64,
}

impl Probe {
    /// Time per query, ms: the median over CPUs of each CPU's median.
    fn p50_ms(&self) -> Option<f64> {
        per_cpu_median(&self.per_query_ms)
    }

    /// Queries per second at that pace.
    fn qps(&self) -> f64 {
        self.p50_ms().map_or(0.0, |ms| 1e3 / ms)
    }
}

/// Queries `view` in `batches` timed batches of 1 000 on each of `cpus`
/// in turn (pinned, see [`common::on_cpu`]), adding to `p`.
fn probe(view: &ScheduleView, batches: usize, cpus: &[usize], p: &mut Probe) {
    const BATCH: usize = 1_000;
    let lights: Vec<_> = view.schedules().map(|(l, _)| l).collect();
    let at = view.at().unwrap_or(taxilight_trace::time::Timestamp(0));
    if lights.is_empty() {
        return;
    }
    for &cpu in cpus {
        common::on_cpu(cpu, || {
            for b in 0..batches {
                let t0 = Instant::now();
                let mut ok = 0u64;
                for j in 0..BATCH {
                    let k = b * BATCH + j;
                    let light = black_box(lights[k % lights.len()]);
                    let wait = view.wait_for_green(light, at.offset(k as i64));
                    ok += u64::from(black_box(wait).is_some_and(f64::is_finite));
                }
                p.per_query_ms.push((cpu, t0.elapsed().as_secs_f64() * 1e3 / BATCH as f64));
                p.sent += BATCH as u64;
                p.ok += ok;
            }
        });
    }
}

/// Set-up as a user of the library pays it: the network parsed from its
/// text form, then the engine built (which builds the matcher's spatial
/// index).
fn setup_once(w: Workload, net_text: &str) -> Duration {
    let t0 = Instant::now();
    let net = taxilight_roadnet::io::read_network(black_box(net_text)).expect("network parses");
    let engine = RealtimeIdentifier::builder(&net)
        .interval_s(input::interval_s(w))
        .reorder_grace_s(input::grace_s(w))
        .build()
        .expect("default engine config is valid");
    black_box(&engine);
    let dt = t0.elapsed();
    drop(engine);
    dt
}

/// Checks every lap's outputs against the oracle's.
fn check_laps(report: &mut Report, laps: &[Lap], oracle: &Oracle) {
    for (k, l) in laps.iter().enumerate() {
        let same = l.report == oracle.report
            && l.view.digest() == oracle.view.digest()
            && l.source.records == oracle.records
            && l.buffered_obs == oracle.buffered_obs;
        report.check(same, || {
            format!(
                "lap {k}: digest {:#018x} report {:?} differs from the in-memory oracle's {:#018x} {:?}",
                l.view.digest(),
                l.report,
                oracle.view.digest(),
                oracle.report
            )
        });
    }
}

/// Freshness samples of every lap, milliseconds: for each round, from
/// the decode of the record that made it due to the engine asking for
/// the next batch with that round done.
fn freshness_ms(laps: &[Lap], oracle: &Oracle) -> Vec<f64> {
    laps.iter()
        .flat_map(|l| {
            oracle.rounds.iter().filter_map(move |r| l.source.until_next_call(r.trigger, l.end))
        })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect()
}

/// Everything the timed part of a run collected.
#[derive(Default)]
struct Timed {
    laps: Vec<Lap>,
    /// Per set-up: the CPU it was pinned to and its time, seconds.
    setups_s: Vec<(usize, f64)>,
    probe: Probe,
}

/// Repeats {set-ups, lap, queries} until `budget` is spent (at least
/// once), so each measurement samples the whole run rather than one
/// moment of it.
fn timed(budget: Duration, args: &Args, net: &RoadNetwork, net_text: &str, feed: &Path) -> Timed {
    let w = args.workload;
    let cpus = common::cpus();
    let t0 = Instant::now();
    let mut t = Timed::default();
    loop {
        for &cpu in &cpus {
            common::on_cpu(cpu, || {
                for _ in 0..SETUP_WARMUP {
                    setup_once(w, net_text);
                }
                for _ in 0..SETUPS_PER_LAP {
                    t.setups_s.push((cpu, setup_once(w, net_text).as_secs_f64()));
                }
            });
        }
        let lap = lap(net, w, feed);
        probe(&lap.view, PROBE_BATCHES_PER_LAP, &cpus, &mut t.probe);
        let typical = t.laps.first().map_or(lap.elapsed, |l| l.elapsed);
        t.laps.push(lap);
        if t0.elapsed() + typical > budget {
            return t;
        }
    }
}

/// Library set-ups before each lap on each CPU, after [`SETUP_WARMUP`]
/// untimed ones there: one takes well under a millisecond, so the median
/// of many is what stays put.
const SETUPS_PER_LAP: usize = 50;
const SETUP_WARMUP: usize = 10;
/// Query batches after each lap on each CPU.
const PROBE_BATCHES_PER_LAP: usize = 200;

/// Runs `replay` or `cityday` in this process.
pub fn run(args: &Args, dir: &Path) -> Report {
    let w = args.workload;
    let net_text = std::fs::read_to_string(dir.join(input::NETWORK_FILE)).expect("network file");
    let feed = dir.join(input::feed_file(w));
    let mut report = Report::default();

    let net = taxilight_roadnet::io::read_network(&net_text).expect("network parses");
    let budget = Duration::from_secs_f64(args.seconds);
    let oracle = |report: &mut Report| {
        let (records, bad) = input::decode_feed(w, &feed).expect("rendered feed reads");
        let truth = input::truth(w, args.seed, args.size, &net);
        let oracle =
            oracle::run(&net, input::interval_s(w), input::grace_s(w), &records, &truth, false);
        report.check(bad == 0, || format!("{bad} generated lines did not decode"));
        (oracle, records)
    };

    if !args.trace {
        let Timed { laps, setups_s, probe } = timed(budget, args, &net, &net_text, &feed);
        let peak_rss_mib = common::peak_rss_mib();
        let times: Vec<String> =
            laps.iter().map(|l| format!("{:.3}", l.elapsed.as_secs_f64())).collect();
        eprintln!("perfbench: lap seconds {}", times.join(" "));

        let (oracle, _) = oracle(&mut report);
        check_laps(&mut report, &laps, &oracle);
        let (sent, ok) = (probe.sent, probe.ok);
        report.check(sent > 0 && ok == sent, || format!("{} of {sent} queries failed", sent - ok));

        let rates: Vec<f64> =
            laps.iter().map(|l| l.source.records as f64 / l.elapsed.as_secs_f64()).collect();
        let fresh = freshness_ms(&laps, &oracle);
        report.set("setup_s", per_cpu_median(&setups_s).unwrap_or(0.0));
        report.set("peak_rss_mib", peak_rss_mib);
        report.set("records_per_s", median(&rates).unwrap_or(0.0));
        common::set_accuracy(&mut report, args, dir);
        report.set("freshness_p50_ms", quantile(&fresh, 0.5).unwrap_or(0.0));
        report.set("freshness_p90_ms", quantile(&fresh, 0.9).unwrap_or(0.0));
        report.set("query_p50_ms", probe.p50_ms().unwrap_or(0.0));
        report.set("query_ok_share", ok as f64 / sent.max(1) as f64);
        report.set("max_qps", probe.qps());
        common::print_info(args, &oracle, laps.len());
        return report;
    }

    // Traced run: laps alternate between recording off and on, so the
    // overhead compares like with like; per-layer figures come from the
    // recorded laps only.
    let recorder = common::install_recorder();
    let mut plain: Vec<Lap> = Vec::new();
    let mut traced: Vec<Lap> = Vec::new();
    let mut queries = Probe::default();
    let cpus = common::cpus();
    let t0 = Instant::now();
    while plain.is_empty() || t0.elapsed() + plain[0].elapsed + traced[0].elapsed <= budget {
        recorder.set_enabled(false);
        plain.push(lap(&net, w, &feed));
        recorder.set_enabled(true);
        let l = lap(&net, w, &feed);
        probe(&l.view, PROBE_BATCHES_PER_LAP, &cpus, &mut queries);
        traced.push(l);
    }
    recorder.set_enabled(false);
    let spans = recorder.spans();
    let (oracle, records) = oracle(&mut report);
    check_laps(&mut report, &plain, &oracle);
    check_laps(&mut report, &traced, &oracle);

    let n = traced.len() as f64;
    let profiles = profile::fold(&spans);
    let main = profiles.iter().find(|p| p.row("bench.lap").is_some()).expect("main track");
    for (label, p) in profile::merge_by_name(&profiles, &recorder.track_names()) {
        let root = p.row("bench.lap").map(|_| "bench.lap");
        profile::print_table(w.name(), &p, &label, root);
    }
    let row_s = |name: &str| main.row(name).map_or(0.0, |r| r.self_ns as f64 * 1e-9) / n;
    let decode_s: f64 = traced.iter().map(|l| l.source.busy.as_secs_f64()).sum::<f64>() / n;
    report.set("decode.busy_s", decode_s);
    report.set("decode.bytes", std::fs::metadata(&feed).map_or(0, |m| m.len()) as f64);
    report.set("decode.records", records.len() as f64);
    report.set("decode.bad_lines", traced[0].source.bad_lines as f64);
    common::set_match_metrics(&mut report, &net, &records);
    report.set("realtime.intake_self_s", row_s("bench.extend_source"));
    common::set_round_metrics(&mut report, &oracle, &spans, &profiles, n);
    let elapsed =
        |laps: &[Lap]| median(&laps.iter().map(|l| l.elapsed.as_secs_f64()).collect::<Vec<_>>());
    let overhead = elapsed(&traced).zip(elapsed(&plain)).map_or(0.0, |(t, u)| t / u - 1.0);
    report.set("obs.trace_overhead_share", overhead);
    report.set("unattributed_s", row_s("bench.lap"));
    let per_query: Vec<f64> = queries.per_query_ms.iter().map(|(_, ms)| *ms).collect();
    report.set("query.p99_ms", quantile(&per_query, 0.99).unwrap_or(0.0));
    report.set("query.saturation_qps", queries.qps());
    for name in [
        "store.snapshots",
        "store.publish_p50_ms",
        "http.requests",
        "http.errors",
        "http.server_p50_ms",
        "gen.late_max_ms",
        "feed.wait_p50_ms",
        "feed.ingest_lag_max_s",
    ] {
        report.set(name, 0.0);
    }
    common::print_info(args, &oracle, traced.len());
    report
}
