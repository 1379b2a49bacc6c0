//! The traced run's in-memory span recorder and the per-track self-time
//! fold behind the per-layer profile.
//!
//! [`Recorder`] is a `taxilight_obs::Subscriber` that keeps every span as
//! `(track, name, start, end)` in memory; nothing is written out until
//! the run ends. [`fold`] turns those spans into one self-time table per
//! thread track: a span's self time is its duration minus the time its
//! direct children cover, so on any track the rows plus the root's own
//! remainder add up to the root's wall time exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use taxilight_obs::{Field, Subscriber};

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Thread track, numbered in order of first use.
    pub track: usize,
    /// Span name as emitted (`realtime.round`, `bench.decode`, ...).
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Track {
    name: String,
    open: Vec<(&'static str, u64)>,
    closed: Vec<Span>,
}

type TrackSlot = (usize, usize, Arc<Mutex<Track>>);

thread_local! {
    /// The calling thread's track: (recorder address, track id, track).
    static TRACK: RefCell<Option<TrackSlot>> = const { RefCell::new(None) };
}

/// In-memory span recorder. Each thread appends to its own track under
/// an uncontended lock, so worker threads never wait on each other.
///
/// Recording can be switched off and on between laps (never while a
/// span is open), so untraced and traced laps can alternate in one
/// process even though a subscriber, once installed, stays installed.
pub struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    tracks: Mutex<Vec<Arc<Mutex<Track>>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: AtomicBool::new(true),
            tracks: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Switches recording on or off. Call only while no span is open.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn with_track<T>(&self, f: impl FnOnce(usize, &mut Track) -> T) -> T {
        let me = self as *const Recorder as usize;
        TRACK.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.as_ref().is_none_or(|(owner, _, _)| *owner != me) {
                let mut tracks = self.tracks.lock().expect("track list lock poisoned");
                let track = Arc::new(Mutex::new(Track::default()));
                tracks.push(Arc::clone(&track));
                *slot = Some((me, tracks.len() - 1, track));
            }
            let (_, id, track) = slot.as_ref().expect("track registered above");
            let mut track = track.lock().expect("track lock poisoned");
            f(*id, &mut track)
        })
    }

    /// Every closed span so far, in track order.
    pub fn spans(&self) -> Vec<Span> {
        let tracks = self.tracks.lock().expect("track list lock poisoned");
        tracks.iter().flat_map(|t| t.lock().expect("track lock poisoned").closed.clone()).collect()
    }

    /// Track names (empty where the thread never named itself).
    pub fn track_names(&self) -> Vec<String> {
        let tracks = self.tracks.lock().expect("track list lock poisoned");
        tracks.iter().map(|t| t.lock().expect("track lock poisoned").name.clone()).collect()
    }
}

impl Subscriber for Recorder {
    fn span_begin(&self, name: &'static str, _cat: &'static str, _fields: &[Field]) {
        if !self.enabled() {
            return;
        }
        let t = self.now_ns();
        self.with_track(|_, track| track.open.push((name, t)));
    }

    fn span_end(&self, _name: &'static str, _cat: &'static str, _fields: &[Field]) {
        if !self.enabled() {
            return;
        }
        let t = self.now_ns();
        self.with_track(|id, track| {
            if let Some((name, start_ns)) = track.open.pop() {
                track.closed.push(Span { track: id, name, start_ns, end_ns: t });
            }
        });
    }

    fn event(&self, _name: &'static str, _cat: &'static str, _fields: &[Field]) {}

    fn track_name(&self, name: &str) {
        self.with_track(|_, track| track.name = name.to_string());
    }
}

/// One row of a track's self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name on the track.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// One track's folded profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackProfile {
    /// Track id.
    pub track: usize,
    /// Rows, by descending self time.
    pub rows: Vec<Row>,
    /// Wall time of the track's top-level spans, nanoseconds: the busy
    /// time of a worker track, or the root's wall time on the main track.
    pub top_level_ns: u64,
}

impl TrackProfile {
    /// The row named `name`, if the track has one.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Folds spans into per-track self-time tables. Spans nest strictly per
/// track (the subscriber contract), so each span's parent is the
/// innermost earlier span on its track that is still open when it starts.
pub fn fold(spans: &[Span]) -> Vec<TrackProfile> {
    let mut by_track: BTreeMap<usize, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(*s);
    }
    by_track
        .into_iter()
        .map(|(track, mut spans)| {
            // Parents before their children: by start, longer first.
            spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            let mut top_level_ns = 0u64;
            for (k, s) in spans.iter().enumerate() {
                while open.last().is_some_and(|&p| spans[p].end_ns <= s.start_ns) {
                    open.pop();
                }
                match open.last() {
                    Some(&p) => child_ns[p] += s.dur_ns(),
                    None => top_level_ns += s.dur_ns(),
                }
                open.push(k);
            }
            let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
            for (s, child) in spans.iter().zip(&child_ns) {
                let row = rows.entry(s.name).or_insert(Row {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                row.count += 1;
                row.total_ns += s.dur_ns();
                row.self_ns += s.dur_ns().saturating_sub(*child);
            }
            let mut rows: Vec<Row> = rows.into_values().collect();
            rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
            TrackProfile { track, rows, top_level_ns }
        })
        .collect()
}

/// Merges the profiles of tracks that share a name (a worker pool spawns
/// fresh threads every round, all named `engine-worker-<k>`); unnamed
/// tracks stay apart as `track <id>`. Ordered by first appearance.
pub fn merge_by_name(profiles: &[TrackProfile], names: &[String]) -> Vec<(String, TrackProfile)> {
    let mut merged: Vec<(String, TrackProfile)> = Vec::new();
    for p in profiles {
        let name = match names.get(p.track) {
            Some(n) if !n.is_empty() => n.clone(),
            _ => format!("track {}", p.track),
        };
        let Some(k) = merged.iter().position(|(n, _)| *n == name) else {
            merged.push((name, p.clone()));
            continue;
        };
        let into = &mut merged[k].1;
        into.top_level_ns += p.top_level_ns;
        for r in &p.rows {
            match into.rows.iter_mut().find(|m| m.name == r.name) {
                Some(m) => {
                    m.count += r.count;
                    m.total_ns += r.total_ns;
                    m.self_ns += r.self_ns;
                }
                None => into.rows.push(r.clone()),
            }
        }
        into.rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    }
    merged
}

/// Summed self time of `name` over every track, seconds.
pub fn self_s(profiles: &[TrackProfile], name: &str) -> f64 {
    profiles.iter().filter_map(|p| p.row(name)).map(|r| r.self_ns).sum::<u64>() as f64 * 1e-9
}

/// Durations of every span named `name`, milliseconds, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut v: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    v.sort_by_key(|s| s.start_ns);
    v.into_iter().map(|s| s.dur_ns() as f64 * 1e-6).collect()
}

/// Prints one track's self-time table. On a track whose top level is a
/// single root span name, the root's own self time is printed as the
/// unattributed remainder, and the rows above it plus that remainder
/// sum to the root's wall time.
pub fn print_table(workload: &str, p: &TrackProfile, label: &str, root: Option<&str>) {
    let wall = p.top_level_ns as f64 * 1e-9;
    match root {
        Some(root) => println!("profile {workload} [{label}] root {root}: wall {wall:.6} s"),
        None => println!("profile {workload} [{label}] busy {wall:.6} s"),
    }
    println!("  {:<24} {:>8} {:>12} {:>12} {:>7}", "span", "count", "total_s", "self_s", "share");
    let share = |ns: u64| if p.top_level_ns > 0 { ns as f64 / p.top_level_ns as f64 } else { 0.0 };
    let mut sum = 0u64;
    for r in p.rows.iter().filter(|r| Some(r.name) != root) {
        sum += r.self_ns;
        println!(
            "  {:<24} {:>8} {:>12.6} {:>12.6} {:>6.1}%",
            r.name,
            r.count,
            r.total_ns as f64 * 1e-9,
            r.self_ns as f64 * 1e-9,
            100.0 * share(r.self_ns)
        );
    }
    if let Some(root_row) = root.and_then(|n| p.row(n)) {
        sum += root_row.self_ns;
        println!(
            "  {:<24} {:>8} {:>12} {:>12.6} {:>6.1}%",
            "(unattributed)",
            "",
            "",
            root_row.self_ns as f64 * 1e-9,
            100.0 * share(root_row.self_ns)
        );
    }
    println!("  {:<24} {:>8} {:>12} {:>12.6}", "sum", "", "", sum as f64 * 1e-9);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: usize, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { track, name, start_ns, end_ns }
    }

    #[test]
    fn fold_subtracts_direct_children_and_sums_to_root_wall() {
        // root [0,100) ⊃ a [10,50) ⊃ b [20,30); root ⊃ a [60,70); c [80,90).
        let spans = [
            span(0, "root", 0, 100),
            span(0, "a", 10, 50),
            span(0, "b", 20, 30),
            span(0, "a", 60, 70),
            span(0, "c", 80, 90),
        ];
        let p = &fold(&spans)[0];
        assert_eq!(p.top_level_ns, 100);
        assert_eq!(p.row("root").unwrap().self_ns, 100 - 40 - 10 - 10);
        let a = p.row("a").unwrap();
        assert_eq!((a.count, a.total_ns, a.self_ns), (2, 50, 40));
        assert_eq!(p.row("b").unwrap().self_ns, 10);
        let sum: u64 = p.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(sum, p.top_level_ns, "self times must partition the root");
    }

    #[test]
    fn fold_keeps_tracks_apart_and_reports_worker_busy_time() {
        // Track 1 is a worker: two top-level spans with a gap between.
        let spans = [
            span(0, "root", 0, 100),
            span(1, "shard", 10, 40),
            span(1, "light", 15, 35),
            span(1, "shard", 50, 60),
        ];
        let profiles = fold(&spans);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].row("root").unwrap().self_ns, 100, "other tracks are not children");
        assert_eq!(profiles[1].top_level_ns, 40);
        assert_eq!(profiles[1].row("shard").unwrap().self_ns, 20);
        assert_eq!(self_s(&profiles, "light"), 20e-9);
    }

    #[test]
    fn fold_orders_zero_length_and_touching_spans() {
        // A child starting exactly when its sibling ends is not nested in it.
        let spans = [span(0, "root", 0, 10), span(0, "x", 0, 5), span(0, "y", 5, 5)];
        let p = &fold(&spans)[0];
        assert_eq!(p.row("x").unwrap().self_ns, 5);
        assert_eq!(p.row("y").unwrap().self_ns, 0);
        assert_eq!(p.row("root").unwrap().self_ns, 5);
    }

    #[test]
    fn tracks_of_one_name_merge() {
        let spans = [
            span(0, "root", 0, 100),
            span(1, "light", 10, 20),
            span(2, "light", 30, 45),
            span(3, "light", 50, 51),
        ];
        let names = ["main", "engine-worker-0", "engine-worker-0", ""].map(String::from);
        let merged = merge_by_name(&fold(&spans), &names);
        let labels: Vec<&str> = merged.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(labels, ["main", "engine-worker-0", "track 3"]);
        let worker = &merged[1].1;
        assert_eq!(worker.top_level_ns, 25);
        assert_eq!(worker.row("light").map(|r| (r.count, r.self_ns)), Some((2, 25)));
    }

    #[test]
    fn switched_off_recorder_records_nothing() {
        let rec = Recorder::default();
        rec.set_enabled(false);
        rec.span_begin("skipped", "", &[]);
        rec.span_end("skipped", "", &[]);
        rec.set_enabled(true);
        rec.span_begin("kept", "", &[]);
        rec.span_end("kept", "", &[]);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["kept"]);
    }

    #[test]
    fn recorder_keeps_one_track_per_thread() {
        let rec = Arc::new(Recorder::default());
        rec.span_begin("outer", "", &[]);
        std::thread::scope(|s| {
            s.spawn(|| {
                rec.track_name("worker");
                rec.span_begin("inner", "", &[]);
                rec.span_end("inner", "", &[]);
            });
        });
        rec.span_end("outer", "", &[]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_ne!(outer.track, inner.track);
        assert_eq!(rec.track_names()[inner.track], "worker");
        let profiles = fold(&spans);
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[outer.track].row("outer").unwrap().self_ns, outer.dur_ns());
    }
}
