//! Measurements and checks shared by the workloads.

use std::path::Path;
use std::sync::Arc;

use taxilight_core::Preprocessor;
use taxilight_obs::metrics::{self, MetricClass};
use taxilight_roadnet::graph::RoadNetwork;
use taxilight_trace::record::TaxiRecord;

use crate::input;
use crate::oracle::{self, Oracle};
use crate::profile::{self, Recorder, Span, TrackProfile};
use crate::report::{Report, SELF_TIME_SPANS};
use crate::stats::quantile;
use crate::Args;

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The CPUs this process may run on.
pub fn cpus() -> Vec<usize> {
    let mask = affinity::get();
    (0..affinity::MAX_CPUS).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Runs `f` with the calling thread pinned to `cpu` (threads it spawns
/// inherit the pin), then restores the thread's previous CPU set.
///
/// On a 2-vCPU x86_64 virtual machine the two CPUs ran the set-up path
/// 1.6x apart, so an unpinned sample's cost depends on where the
/// scheduler happened to put the thread; measuring a block on each CPU
/// in turn and taking [`crate::stats::per_cpu_median`] removes that draw.
pub fn on_cpu<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    let before = affinity::get();
    let mut only = [0u64; affinity::MAX_CPUS / 64];
    only[cpu / 64] = 1 << (cpu % 64);
    affinity::set(&only);
    let out = f();
    affinity::set(&before);
    out
}

/// `sched_getaffinity(2)` / `sched_setaffinity(2)` on the calling thread.
mod affinity {
    use std::ffi::{c_int, c_ulong};

    /// CPUs a mask covers (glibc's `CPU_SETSIZE`).
    pub const MAX_CPUS: usize = 1024;
    type Mask = [u64; MAX_CPUS / 64];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: c_ulong, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: c_ulong, mask: *const u64) -> c_int;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Mask {
        let mut mask = [0u64; MAX_CPUS / 64];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of::<Mask>() as c_ulong, mask.as_mut_ptr())
        };
        assert_eq!(rc, 0, "sched_getaffinity failed: {}", std::io::Error::last_os_error());
        mask
    }

    /// Sets the calling thread's CPU set.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc =
            unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>() as c_ulong, mask.as_ptr()) };
        assert_eq!(rc, 0, "sched_setaffinity failed: {}", std::io::Error::last_os_error());
    }
}

/// Installs the in-memory recorder as the process's subscriber.
pub fn install_recorder() -> Arc<Recorder> {
    let recorder = Arc::new(Recorder::default());
    taxilight_obs::set_subscriber(recorder.clone()).expect("the benchmark installs one subscriber");
    taxilight_obs::set_track_name(|| "main".to_string());
    recorder
}

/// The four accuracy metrics, from an oracle run over the workload's
/// reference feed (see [`crate::input`] for why not the seeded one).
pub fn set_accuracy(report: &mut Report, args: &Args, dir: &Path) {
    let w = args.workload;
    let dir = dir.join(input::REFERENCE_DIR);
    let net_text = std::fs::read_to_string(dir.join(input::NETWORK_FILE)).expect("network file");
    let net = taxilight_roadnet::io::read_network(&net_text).expect("network parses");
    let (records, bad) =
        input::decode_feed(w, &dir.join(input::feed_file(w))).expect("reference feed reads");
    report.check(bad == 0, || format!("{bad} reference feed lines did not decode"));
    let truth = input::truth(w, input::REFERENCE_SEED, args.size, &net);
    let oracle =
        oracle::run(&net, input::interval_s(w), input::grace_s(w), &records, &truth, false);
    report.set("identified_share", oracle.identified_share());
    report.set("cycle_within_10s_share", oracle.accuracy.cycle_share());
    report.set("red_within_6s_share", oracle.accuracy.red_share());
    report.set("change_within_6s_share", oracle.accuracy.change_share());
}

/// The match layer, timed from outside: one serial `match_record` pass
/// over the decoded records through a fresh `Preprocessor`.
pub fn set_match_metrics(report: &mut Report, net: &RoadNetwork, records: &[TaxiRecord]) {
    let pre = Preprocessor::new(net, taxilight_core::IdentifyConfig::default());
    let t0 = std::time::Instant::now();
    let matched = records.iter().filter(|r| std::hint::black_box(pre.match_record(r)).is_some());
    let partitioned = matched.count();
    let busy = t0.elapsed().as_secs_f64();
    let stats = pre.cumulative_stats();
    report.set("match.busy_s", busy);
    report.set("match.partitioned_share", partitioned as f64 / records.len().max(1) as f64);
    report.set("match.unmatched", stats.unmatched as f64);
    report.set("match.unsignalized", stats.unsignalized as f64);
    report.set("match.implausible", stats.implausible as f64);
}

/// The current value of a registry counter.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> u64 {
    metrics::global().counter(name, labels, MetricClass::Volatile, "").get()
}

/// The round layer: counts from the oracle, span timings from the
/// traced run (`runs` repetitions of the workload, averaged).
pub fn set_round_metrics(
    report: &mut Report,
    oracle: &Oracle,
    spans: &[Span],
    profiles: &[TrackProfile],
    runs: f64,
) {
    report.set("realtime.buffered_obs", oracle.buffered_obs as f64);
    report.set("realtime.deduped", oracle.report.records_deduped_total as f64);
    report.set("realtime.out_of_grace", oracle.report.out_of_grace_total as f64);
    report.set("realtime.rounds", oracle.rounds.len() as f64);
    let rounds = profile::durations_ms(spans, "realtime.round");
    let lights = profile::durations_ms(spans, "light.identify");
    report.set("realtime.round_p50_ms", quantile(&rounds, 0.5).unwrap_or(0.0));
    report.set("realtime.round_p90_ms", quantile(&rounds, 0.9).unwrap_or(0.0));
    report.set("light.identify_p50_ms", quantile(&lights, 0.5).unwrap_or(0.0));
    report.set("light.identify_p90_ms", quantile(&lights, 0.9).unwrap_or(0.0));
    for (name, metric) in SELF_TIME_SPANS {
        report.set(metric, profile::self_s(profiles, name) / runs);
    }
    report.set("engine.lights_attempted", oracle.attempted() as f64);
    report.set("engine.lights_identified", oracle.identified() as f64);
    let hits = counter("taxilight_plan_cache_lookups_total", &[("result", "hit")]);
    let misses = counter("taxilight_plan_cache_lookups_total", &[("result", "miss")]);
    report.set("plan_cache.hit_share", hits as f64 / (hits + misses).max(1) as f64);
}

/// Prints the run's environment and deterministic counts (one line,
/// before the result line).
pub fn print_info(args: &Args, oracle: &Oracle, repetitions: usize) {
    println!(
        "info {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"arch\": \"{}\", \
         \"kernel_path\": \"{}\", \"records\": {}, \"rounds\": {}, \"lights\": {}, \
         \"digest\": \"{:#018x}\", \"repetitions\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::consts::ARCH,
        taxilight_signal::kernels::active_path_name(),
        oracle.records,
        oracle.rounds.len(),
        oracle.view.len(),
        oracle.view.digest(),
        repetitions
    );
}
