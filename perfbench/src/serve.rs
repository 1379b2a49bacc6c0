//! The `serve` workload: `taxilightd` in this process, fed paced ND-JSON
//! over its feed socket while one open-loop connection queries it, then
//! a query-only rate ladder once the feed has drained.
//!
//! Load comes from two benchmark threads and two connections: a feeder
//! that writes the rendered feed at [`FEED_RPS`] records/s, and a query
//! generator that sends pipelined `GET /schedule/{light}` requests on a
//! fixed schedule and reads responses as they arrive. Every latency is
//! timed from the request's intended send time, so a stall is charged
//! to every request it delays.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use taxilight_obs::json::{self, Json};
use taxilight_obs::metrics::{self, MetricClass};
use taxilight_obs::span;
use taxilight_roadnet::graph::{LightId, RoadNetwork};
use taxilight_serve::{Daemon, DaemonConfig, FeedFormat};
use taxilight_trace::record::TaxiRecord;

use crate::input;
use crate::oracle::{self, Oracle};
use crate::profile;
use crate::report::Report;
use crate::stats::{histogram_quantile, median, per_cpu_median, quantile};
use crate::{common, Args};

/// Feed rate, records per second of wall time. Rounds then keep the
/// identification thread about a third busy: at twice the rate it ran
/// near saturation, and freshness and query latency swung with every
/// change in host speed.
const FEED_RPS: f64 = 2_000.0;
/// Query rate while the feed streams, queries/s. Half of what one
/// connection was seen to serve while rounds held both CPUs: at 8 000,
/// a slow spell of the host pushed the daemon past saturation and the
/// median latency of a whole run to tens of milliseconds.
const INGEST_QPS: f64 = 4_000.0;
/// Offered rates of the query-only ladder, queries/s. One connection
/// saturated at 15 000-29 000 queries/s on a shared 2-CPU host, so the
/// top rung sits above that and no rung sits inside the range.
const LADDER_QPS: [f64; 4] = [2_500.0, 5_000.0, 10_000.0, 50_000.0];
/// Shortest ladder rung; rungs share what `--seconds` leaves after the
/// feed.
const MIN_RUNG: Duration = Duration::from_millis(500);
/// A rung passes only under these limits, set above host jitter (stalls
/// of a few milliseconds, now and then tens, on a shared host).
const P99_LIMIT_MS: f64 = 50.0;
const LATE_LIMIT_MS: f64 = 50.0;
/// Longest wait for the answers still outstanding after a phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Most requests in flight on the query connection. Requests and their
/// answers then fit the sockets' default buffers, so the generator never
/// blocks writing while the daemon blocks writing back; past it, sends
/// fall behind schedule, which fails the rung.
const MAX_INFLIGHT: usize = 256;
/// Daemon set-ups timed before and again after the session, so the
/// median samples both ends of the run. They run in a block per CPU,
/// pinned there after a few untimed ones (see [`common::on_cpu`]); the
/// daemon's threads inherit the pin, so each block times a set-up
/// confined to one CPU.
const SETUP_REPS: usize = 100;

fn daemon_config() -> DaemonConfig {
    DaemonConfig { format: FeedFormat::NdJson, ..DaemonConfig::default() }
}

/// One closed-loop GET on a fresh connection: (status, body).
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    write!(conn, "GET {target} HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")?;
    let mut text = String::new();
    BufReader::new(conn).read_to_string(&mut text)?;
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b).to_string();
    Ok((status, body))
}

/// One daemon set-up: parse the network, bind, start, wait until
/// `/healthz` answers. Shuts the daemon down again (untimed).
fn setup_once(net_text: &str) -> Duration {
    let t0 = Instant::now();
    let net = taxilight_roadnet::io::read_network(net_text).expect("network parses");
    let daemon = Daemon::bind(daemon_config()).expect("bind ephemeral ports");
    let handle = daemon.handle();
    std::thread::scope(|s| {
        let runner = s.spawn(|| daemon.run(&net));
        loop {
            if let Ok((200, _)) = get(handle.http_addr(), "/healthz") {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let dt = t0.elapsed();
        handle.shutdown();
        runner.join().expect("daemon thread panicked").expect("daemon run");
        dt
    })
}

/// One parsed HTTP response off the query connection.
struct Response<'a> {
    status: u16,
    body: &'a [u8],
}

/// Parses one complete response at the front of `buf`; returns it and
/// its length, or `None` while incomplete.
fn parse_response(buf: &[u8]) -> Option<(Response<'_>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    let end = head_end + length;
    (buf.len() >= end).then(|| (Response { status, body: &buf[head_end..end] }, end))
}

/// Extracts `"version":N` from a schedule body without a full parse.
fn body_version(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"version\":")? + 10..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().ok()
}

/// What one open-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Offered rate, queries/s.
    pub offered_qps: f64,
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub answered: u64,
    /// Responses with status 200.
    pub ok_status: u64,
    /// Latency of every response from its intended send time, ms.
    pub latency_ms: Vec<f64>,
    /// Delay of every send behind its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Requests outstanding at every send.
    pub backlog: Vec<f64>,
    /// Responses per second from the first intended send to the last
    /// response.
    pub achieved_qps: f64,
}

impl Phase {
    /// 99th-percentile latency, ms.
    pub fn p99_ms(&self) -> f64 {
        quantile(&self.latency_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    /// 99th-percentile delay of a send behind schedule, ms.
    pub fn late_p99_ms(&self) -> f64 {
        quantile(&self.late_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    /// Largest delay of a send behind schedule, ms.
    pub fn late_max_ms(&self) -> f64 {
        self.late_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Median number of requests outstanding at a send.
    pub fn backlog_p50(&self) -> f64 {
        median(&self.backlog).unwrap_or(f64::INFINITY)
    }
}

/// The ladder's pass rule: every query answered with 200, the generator
/// on schedule (p99 of its send delays under the limit), no standing
/// backlog (the median send finds under half the in-flight cap
/// outstanding; an overloaded daemon pins it at the cap), and p99
/// latency under the limit. Percentiles rather than maxima, so that one
/// host stall does not fail a rung the daemon keeps up with.
pub fn rung_passes(p: &Phase) -> bool {
    p.sent > 0
        && p.answered == p.sent
        && p.ok_status == p.sent
        && p.late_p99_ms() <= LATE_LIMIT_MS
        && p.backlog_p50() < (MAX_INFLIGHT / 2) as f64
        && p.p99_ms() <= P99_LIMIT_MS
}

/// The achieved rate of the highest passing rung; 0 when none passes.
pub fn max_qps(rungs: &[Phase]) -> f64 {
    rungs.iter().filter(|p| rung_passes(p)).map(|p| p.achieved_qps).fold(0.0, f64::max)
}

/// Waits until `conn` is readable (or writable too, with `write`) or
/// `timeout` passes: `ppoll(2)`, whose nanosecond timeout keeps the
/// generator on schedule where socket timeouts round up to a jiffy.
fn wait_ready(conn: &TcpStream, write: bool, timeout: Duration) {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const TimeSpec,
            sigmask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs().min(60) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds is 1; a null sigmask leaves the mask unchanged.
    // The result is deliberately ignored: a timeout, an interrupt and
    // readiness all just send the caller back round its loop.
    unsafe {
        ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

/// The open-loop query generator on one non-blocking keep-alive
/// connection, driven by one thread.
struct Generator {
    conn: TcpStream,
    lights: Vec<LightId>,
    next_light: usize,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Intended send time of every request still unanswered, in order.
    pending: VecDeque<Instant>,
    /// Distinct 200 bodies and how often each came back (validated
    /// against the oracle after the run, off the clock).
    bodies: HashMap<Vec<u8>, u64>,
    /// Each time the highest version seen so far rose: (version, when).
    versions: Vec<(u64, Instant)>,
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted)
}

impl Generator {
    fn connect(addr: SocketAddr, lights: Vec<LightId>) -> Generator {
        let conn = TcpStream::connect(addr).expect("connect the query connection");
        conn.set_nodelay(true).expect("TCP_NODELAY");
        conn.set_nonblocking(true).expect("non-blocking query connection");
        Generator {
            conn,
            lights,
            next_light: 0,
            inbuf: Vec::with_capacity(1 << 16),
            outbuf: Vec::new(),
            pending: VecDeque::new(),
            bodies: HashMap::new(),
            versions: Vec::new(),
        }
    }

    /// Writes as much of the queued requests as the socket takes.
    fn flush(&mut self) {
        while !self.outbuf.is_empty() {
            match self.conn.write(&self.outbuf) {
                Ok(0) => panic!("daemon closed the query connection"),
                Ok(n) => {
                    self.outbuf.drain(..n);
                }
                Err(e) if would_block(&e) => return,
                Err(e) => panic!("query connection failed: {e}"),
            }
        }
    }

    /// Reads everything that has arrived and accounts every complete
    /// response, stamped with the time it was read.
    fn receive(&mut self, phase: &mut Phase, last: &mut Instant) {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match self.conn.read(&mut chunk) {
                Ok(0) => panic!("daemon closed the query connection"),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if would_block(&e) => break,
                Err(e) => panic!("query connection failed: {e}"),
            }
        }
        let now = Instant::now();
        let mut used = 0;
        while let Some((r, len)) = parse_response(&self.inbuf[used..]) {
            let intended = self.pending.pop_front().expect("a response answers a request");
            phase.answered += 1;
            phase.latency_ms.push((now - intended).as_secs_f64() * 1e3);
            if r.status == 200 {
                phase.ok_status += 1;
                if let Some(v) = body_version(r.body) {
                    if self.versions.last().is_none_or(|(top, _)| v > *top) {
                        self.versions.push((v, now));
                    }
                }
                *self.bodies.entry(r.body.to_vec()).or_insert(0) += 1;
            }
            used += len;
            *last = now;
        }
        self.inbuf.drain(..used);
    }

    /// Offers `rate` queries/s until `stop` says so, then waits for the
    /// answers still outstanding.
    fn phase(&mut self, rate: f64, mut stop: impl FnMut(Instant) -> bool) -> Phase {
        let mut phase = Phase { offered_qps: rate, ..Phase::default() };
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        let mut last = start;
        let mut k = 0u32;
        loop {
            let now = Instant::now();
            if stop(now) {
                break;
            }
            while start + interval * k <= now && self.pending.len() < MAX_INFLIGHT {
                let intended = start + interval * k;
                phase.late_ms.push((now - intended).as_secs_f64() * 1e3);
                phase.backlog.push(self.pending.len() as f64);
                let light = self.lights[self.next_light % self.lights.len()];
                self.next_light += 1;
                let _ =
                    write!(self.outbuf, "GET /schedule/{} HTTP/1.1\r\nHost: b\r\n\r\n", light.0);
                self.pending.push_back(intended);
                k += 1;
            }
            self.flush();
            self.receive(&mut phase, &mut last);
            let next = start + interval * k;
            wait_ready(
                &self.conn,
                !self.outbuf.is_empty(),
                next.saturating_duration_since(Instant::now()),
            );
            self.receive(&mut phase, &mut last);
        }
        phase.sent = k as u64;
        let deadline = Instant::now() + DRAIN_LIMIT;
        while !self.pending.is_empty() && Instant::now() < deadline {
            self.flush();
            wait_ready(&self.conn, !self.outbuf.is_empty(), Duration::from_millis(5));
            self.receive(&mut phase, &mut last);
        }
        phase.achieved_qps = phase.answered as f64 / (last - start).as_secs_f64().max(1e-9);
        // Leftovers would be misread as answers to the next phase.
        assert!(self.pending.is_empty(), "{} queries never answered", self.pending.len());
        phase
    }
}

/// Per round, freshness in ms: from the send of the record that made
/// the round due to the first response showing a version at or above
/// it. `sent[k]` is that send time for round `k + 1`; `versions` lists
/// each rise of the highest version seen. Rounds already visible in the
/// first response are left out, since querying began after them.
pub fn freshness_ms(sent: &[Instant], versions: &[(u64, Instant)]) -> Vec<f64> {
    let Some(&(first, _)) = versions.first() else { return Vec::new() };
    sent.iter()
        .enumerate()
        .filter(|(k, _)| *k as u64 + 1 > first)
        .filter_map(|(k, &t)| {
            let (_, seen) = versions.iter().find(|(v, _)| *v > k as u64)?;
            Some(seen.saturating_duration_since(t).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Validates every distinct 200 body against the oracle's view at the
/// body's version; returns how many responses failed.
fn invalid_responses(bodies: &HashMap<Vec<u8>, u64>, oracle: &Oracle) -> (u64, Vec<String>) {
    let mut bad = 0;
    let mut errors = Vec::new();
    for (body, count) in bodies {
        let text = String::from_utf8_lossy(body);
        let valid = json::parse(&text).ok().and_then(|doc| {
            let num = |k: &str| doc.get(k).and_then(Json::as_f64);
            let version = num("version")? as usize;
            let light = LightId(num("light")? as u32);
            let want = oracle.views.get(version.checked_sub(1)?)?.schedule(light)?;
            Some(
                num("cycle_s")? == want.cycle_s
                    && num("red_s")? == want.red_s
                    && num("red_start_s")? == want.red_start_s,
            )
        });
        if valid != Some(true) {
            bad += count;
            errors.push(format!(
                "{count} responses carried a schedule the oracle never published: {text}"
            ));
        }
    }
    (bad, errors)
}

/// Streams the feed file at [`FEED_RPS`], reading it as it goes so the
/// rendered feed never sits in memory; returns each line's send time.
fn feed(addr: SocketAddr, path: &Path) -> Vec<Instant> {
    let mut file = BufReader::new(std::fs::File::open(path).expect("open rendered feed"));
    let mut conn = TcpStream::connect(addr).expect("connect the feed socket");
    let mut sent = Vec::new();
    let mut out = Vec::new();
    let mut eof = false;
    let start = Instant::now();
    while !eof {
        let due = (start.elapsed().as_secs_f64() * FEED_RPS) as usize + 1;
        out.clear();
        let mut lines = 0;
        while sent.len() + lines < due {
            if file.read_until(b'\n', &mut out).expect("read rendered feed") == 0 {
                eof = true;
                break;
            }
            lines += 1;
        }
        if !out.is_empty() {
            conn.write_all(&out).expect("send feed");
            let now = Instant::now();
            sent.resize(sent.len() + lines, now);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    sent
}

fn histogram_p50_ms(name: &str, labels: &[(&str, &str)]) -> f64 {
    let h = metrics::global().histogram(name, labels, MetricClass::Volatile, &[1.0], "");
    histogram_quantile(h.bounds(), &h.cumulative_buckets(), 0.5).map_or(0.0, |s| s * 1e3)
}

/// What one serving session measured.
struct Session {
    first_byte: Instant,
    drained: Instant,
    sent: Vec<Instant>,
    ingest: Phase,
    rungs: Vec<Phase>,
    bodies: HashMap<Vec<u8>, u64>,
    versions: Vec<(u64, Instant)>,
    stats: Json,
    ingest_lag_max_s: f64,
}

fn session(net: &RoadNetwork, feed_path: &Path, records: usize, budget: Duration) -> Session {
    let daemon = Daemon::bind(daemon_config()).expect("bind ephemeral ports");
    let handle = daemon.handle();
    let reader = daemon.reader();
    let drained = AtomicBool::new(false);
    let first_byte = Instant::now();
    std::thread::scope(|s| {
        let runner = s.spawn(|| daemon.run(net));
        let _root = span!("bench.serve");
        let feeder = s.spawn(|| {
            taxilight_obs::set_track_name(|| "bench-feeder".into());
            feed(handle.feed_addr(), feed_path)
        });
        let queries = s.spawn(|| {
            taxilight_obs::set_track_name(|| "bench-queries".into());
            // Query the lights of the first published round: a published
            // schedule is never withdrawn, so each stays answerable.
            while reader.current().view.version() == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let lights: Vec<LightId> = reader.current().view.schedules().map(|(l, _)| l).collect();
            let mut g = Generator::connect(handle.http_addr(), lights);
            let ingest = g.phase(INGEST_QPS, |_| drained.load(Ordering::SeqCst));
            let _ladder = span!("bench.ladder");
            let left = budget.saturating_sub(first_byte.elapsed());
            let rung = (left / LADDER_QPS.len() as u32).max(MIN_RUNG);
            let rungs: Vec<Phase> = LADDER_QPS
                .iter()
                .map(|&rate| {
                    let start = Instant::now();
                    g.phase(rate, |now| now - start >= rung)
                })
                .collect();
            (ingest, rungs, g.bodies, g.versions)
        });
        let mut ingest_lag_max_s = 0.0f64;
        let drained_at = {
            let _feed = span!("bench.feed");
            loop {
                let stats = handle.stats();
                ingest_lag_max_s = ingest_lag_max_s.max(stats.ingest_lag_s());
                let done = stats.records_processed.load(Ordering::SeqCst)
                    + stats.bad_lines.load(Ordering::SeqCst);
                if done == records as u64 {
                    break Instant::now();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        drained.store(true, Ordering::SeqCst);
        let sent = feeder.join().expect("feeder panicked");
        let (ingest, rungs, bodies, versions) = {
            let _wait = span!("bench.await_queries");
            queries.join().expect("query generator panicked")
        };
        let (status, body) = get(handle.http_addr(), "/stats").expect("GET /stats");
        assert_eq!(status, 200, "/stats answered {status}");
        handle.shutdown();
        runner.join().expect("daemon thread panicked").expect("daemon run");
        Session {
            first_byte,
            drained: drained_at,
            sent,
            ingest,
            rungs,
            bodies,
            versions,
            stats: json::parse(&body).expect("/stats body is JSON"),
            ingest_lag_max_s,
        }
    })
}

fn replay(net: &RoadNetwork, records: &[TaxiRecord], args: &Args) -> Oracle {
    let truth = input::truth(args.workload, args.seed, args.size, net);
    let w = args.workload;
    oracle::run(net, input::interval_s(w), input::grace_s(w), records, &truth, true)
}

/// Runs `serve` in this process.
pub fn run(args: &Args, dir: &Path) -> Report {
    let net_text = std::fs::read_to_string(dir.join(input::NETWORK_FILE)).expect("network file");
    let feed_path = dir.join(input::feed_file(args.workload));
    let mut report = Report::default();
    let cpus = common::cpus();
    let setups = |reps: usize| -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for &cpu in &cpus {
            common::on_cpu(cpu, || {
                for _ in 0..5 {
                    setup_once(&net_text);
                }
                out.extend(
                    (0..reps / cpus.len()).map(|_| (cpu, setup_once(&net_text).as_secs_f64())),
                );
            });
        }
        out
    };
    let mut setups_s = setups(SETUP_REPS);
    let net = taxilight_roadnet::io::read_network(&net_text).expect("network parses");
    let lines = BufReader::new(std::fs::File::open(&feed_path).expect("open rendered feed"))
        .lines()
        .count();

    // The traced run records the session only. Its overhead share
    // compares offline replays of the same feed with recording off and
    // on, before and after the session.
    let recorder = args.trace.then(common::install_recorder);
    let record = |on: bool| {
        if let Some(r) = &recorder {
            r.set_enabled(on);
        }
    };
    record(false);
    let timed_replay = |records: &[TaxiRecord], on: bool| {
        record(on);
        let t0 = Instant::now();
        let _ = replay(&net, records, args);
        record(false);
        t0.elapsed().as_secs_f64()
    };
    let pre_decoded =
        args.trace.then(|| input::decode_feed(args.workload, &feed_path).expect("feed reads"));
    let plain_replay_s = pre_decoded.as_ref().map_or(0.0, |(r, _)| timed_replay(r, false));
    let http_before = common::counter("taxilightd_http_requests_total", &[]);
    record(true);
    let s = session(&net, &feed_path, lines, Duration::from_secs_f64(args.seconds));
    record(false);
    let peak_rss_mib = common::peak_rss_mib();
    setups_s.extend(setups(SETUP_REPS));

    let (records, bad) = match pre_decoded {
        Some(decoded) => decoded,
        None => input::decode_feed(args.workload, &feed_path).expect("feed reads"),
    };
    let oracle = replay(&net, &records, args);
    report.check(bad == 0 && records.len() == lines, || {
        format!("{bad} of {lines} generated lines did not decode")
    });
    let digest = s.stats.get("digest").and_then(Json::as_str).unwrap_or("").to_string();
    let version = s.stats.get("version").and_then(Json::as_f64).unwrap_or(-1.0);
    report.check(
        digest == format!("{:#018x}", oracle.view.digest())
            && version == oracle.view.version() as f64,
        || {
            format!(
                "daemon published digest {digest} version {version}, offline replay {:#018x} version {}",
                oracle.view.digest(),
                oracle.view.version()
            )
        },
    );
    let phases: Vec<&Phase> = std::iter::once(&s.ingest).chain(&s.rungs).collect();
    let sent: u64 = phases.iter().map(|p| p.sent).sum();
    let ok_status: u64 = phases.iter().map(|p| p.ok_status).sum();
    let (invalid, errors) = invalid_responses(&s.bodies, &oracle);
    let ok = ok_status - invalid.min(ok_status);
    report.attempted += sent;
    report.failed += sent - ok;
    report.errors.extend(errors);
    if ok_status < sent {
        report.errors.push(format!("{} of {sent} queries not answered 200", sent - ok_status));
    }

    let triggers: Vec<Instant> = oracle.rounds.iter().map(|r| s.sent[r.trigger]).collect();
    let fresh = freshness_ms(&triggers, &s.versions);
    if !args.trace {
        report.set("setup_s", per_cpu_median(&setups_s).unwrap_or(0.0));
        report.set("peak_rss_mib", peak_rss_mib);
        report.set("records_per_s", lines as f64 / (s.drained - s.first_byte).as_secs_f64());
        common::set_accuracy(&mut report, args, dir);
        report.set("freshness_p50_ms", quantile(&fresh, 0.5).unwrap_or(0.0));
        report.set("freshness_p90_ms", quantile(&fresh, 0.9).unwrap_or(0.0));
        report.set("query_p50_ms", median(&s.ingest.latency_ms).unwrap_or(0.0));
        report.set("query_ok_share", ok as f64 / sent.max(1) as f64);
        report.set("max_qps", max_qps(&s.rungs));
        for p in &s.rungs {
            eprintln!(
                "perfbench: rung {:>6.0} q/s: achieved {:>8.1}, p99 {:>8.3} ms, late p99 {:>8.3} ms, backlog p50 {:>4}, {}",
                p.offered_qps,
                p.achieved_qps,
                p.p99_ms(),
                p.late_p99_ms(),
                p.backlog_p50(),
                if rung_passes(p) { "pass" } else { "FAIL" }
            );
        }
        common::print_info(args, &oracle, 1);
        return report;
    }

    let recorder = recorder.as_ref().expect("traced run installs the recorder");
    let spans = recorder.spans();
    let traced_replay_s = timed_replay(&records, true);
    let profiles = profile::fold(&spans);
    for (label, p) in profile::merge_by_name(&profiles, &recorder.track_names()) {
        let root = p.row("bench.serve").map(|_| "bench.serve");
        profile::print_table(args.workload.name(), &p, &label, root);
    }
    let main = profiles.iter().find(|p| p.row("bench.serve").is_some()).expect("main track");

    let bytes = std::fs::metadata(&feed_path).map_or(0, |m| m.len());
    let decode_t0 = Instant::now();
    let (decoded, decode_bad) = input::decode_feed(args.workload, &feed_path).expect("feed reads");
    report.set("decode.busy_s", decode_t0.elapsed().as_secs_f64());
    report.set("decode.bytes", bytes as f64);
    report.set("decode.records", decoded.len() as f64);
    report.set("decode.bad_lines", decode_bad as f64);
    common::set_match_metrics(&mut report, &net, &records);
    report.set("realtime.intake_self_s", 0.0);
    common::set_round_metrics(&mut report, &oracle, &spans, &profiles, 1.0);
    report.set("store.snapshots", s.stats.get("seq").and_then(Json::as_f64).unwrap_or(0.0));
    report.set("store.publish_p50_ms", histogram_p50_ms("taxilight_publish_latency_seconds", &[]));
    report.set(
        "http.requests",
        (common::counter("taxilightd_http_requests_total", &[]) - http_before) as f64,
    );
    let errors: u64 = ["/schedule/{light}", "/stats", "/healthz"]
        .iter()
        .map(|r| common::counter("taxilight_http_errors_total", &[("route", r)]))
        .sum();
    report.set("http.errors", errors as f64);
    report.set(
        "http.server_p50_ms",
        histogram_p50_ms(
            "taxilight_http_request_duration_seconds",
            &[("route", "/schedule/{light}")],
        ),
    );
    report.set("query.p99_ms", s.ingest.p99_ms());
    report.set("query.saturation_qps", s.rungs.last().map_or(0.0, |p| p.achieved_qps));
    report.set("gen.late_max_ms", s.ingest.late_max_ms());
    let rounds_ms = profile::durations_ms(&spans, "realtime.round");
    let waits: Vec<f64> =
        fresh.iter().rev().zip(rounds_ms.iter().rev()).map(|(f, r)| f - r).collect();
    report.set("feed.wait_p50_ms", median(&waits).unwrap_or(0.0));
    report.set("feed.ingest_lag_max_s", s.ingest_lag_max_s);
    report.set("obs.trace_overhead_share", traced_replay_s / plain_replay_s - 1.0);
    report.set("unattributed_s", main.row("bench.serve").map_or(0.0, |r| r.self_ns as f64 * 1e-9));
    common::print_info(args, &oracle, 1);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(offered: f64, sent: u64, p99: f64, late: f64, backlog: f64) -> Phase {
        Phase {
            offered_qps: offered,
            sent,
            answered: sent,
            ok_status: sent,
            latency_ms: vec![p99; 10],
            late_ms: vec![late; 10],
            backlog: vec![backlog; 10],
            achieved_qps: offered * 0.999,
        }
    }

    #[test]
    fn max_qps_is_the_highest_rung_passing_every_check() {
        let ok = phase(5_000.0, 3_600, 0.2, 0.5, 2.0);
        let mut slow = phase(10_000.0, 7_200, P99_LIMIT_MS + 1.0, 0.5, 2.0);
        assert!(rung_passes(&ok));
        assert!(!rung_passes(&slow), "p99 over the limit");
        slow.latency_ms = vec![0.2; 10];
        assert!(rung_passes(&slow));
        let late = phase(24_000.0, 14_000, 0.2, LATE_LIMIT_MS + 1.0, 2.0);
        assert!(!rung_passes(&late), "generator behind schedule");
        let backlog = phase(50_000.0, 28_000, 0.2, 0.5, MAX_INFLIGHT as f64);
        assert!(!rung_passes(&backlog), "standing backlog");
        let mut lost = phase(2_500.0, 1_800, 0.2, 0.5, 0.0);
        lost.ok_status -= 1;
        assert!(!rung_passes(&lost), "a failed query fails the rung");
        // One stall: a single late send and a single deep backlog do not
        // fail a rung whose percentiles hold.
        let mut stalled = ok.clone();
        stalled.late_ms[0] = 10.0 * LATE_LIMIT_MS;
        stalled.late_ms.extend([0.5; 200]);
        stalled.backlog[0] = MAX_INFLIGHT as f64;
        assert!(rung_passes(&stalled));
        assert_eq!(max_qps(&[ok.clone(), slow.clone(), late, backlog]), slow.achieved_qps);
        assert_eq!(max_qps(&[lost]), 0.0);
    }

    #[test]
    fn freshness_matches_each_round_to_the_first_version_at_or_above_it() {
        let t = Instant::now();
        let ms = |m: u64| t + Duration::from_millis(m);
        // Round k+1's trigger record left at 100·k ms.
        let sent: Vec<Instant> = (0..5).map(|k| ms(100 * k)).collect();
        // Querying saw version 2 first (rounds 1–2 excluded), then 4
        // (covers round 3 too), then 5.
        let versions = [(2, ms(150)), (4, ms(330)), (5, ms(460))];
        assert_eq!(freshness_ms(&sent, &versions), vec![130.0, 30.0, 60.0]);
        assert!(freshness_ms(&sent, &[]).is_empty());
    }

    #[test]
    fn responses_parse_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 14\r\n\r\n{\"version\":17}HTTP/1.1 404";
        let (r, len) = parse_response(wire).unwrap();
        assert_eq!((r.status, body_version(r.body)), (200, Some(17)));
        assert!(parse_response(&wire[len..]).is_none());
        assert!(parse_response(&wire[..len - 1]).is_none());
    }
}
