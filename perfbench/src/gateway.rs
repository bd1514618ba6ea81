//! The `gateway-explain` workload: JSONL over loopback TCP against a warm
//! in-process gateway with explanations on.
//!
//! Load comes from two client connections, each driven by its own
//! thread. Untraced runs measure closed-loop suites, a few requests in
//! flight on each connection. Traced runs also send open-loop schedules:
//! the client writes every request when it falls due and reads responses
//! while it waits for the next one. Latency runs from the moment a
//! request was due, so a stalled generator or a backed-up socket is
//! charged to the requests it delayed.
//!
//! The request corpus, its reference answers and the encoded request
//! lines are made by a child process (`perfbench prepare`), so the
//! measuring process holds only the gateway, the request lines and the
//! expected answers: its peak RSS is the gateway's plus a few MB of
//! client.
//!
//! Every response is checked against a reference verdict: `run_procedure`
//! with the same registry detector, the same trained profile and the same
//! probe ACK ratio, plus the explanation's suspect link. Responses of one
//! request class are byte-identical apart from their id, so the window
//! only hashes each line; a line not seen before is decoded and compared
//! when its phase ends.

use crate::measure::{mean, median, ms, peak_rss_mb, quantile, thread_cpu_s, us, Report};
use manet_routing::{ProbeOutcome, Route};
use manet_sim::NodeId;
use sam::{
    run_procedure, DetectorInput, DetectorRegistry, Explanation, NormalProfile, ProcedureConfig,
    SamConfig,
};
use sam_experiments::runner::run_once_with_routes;
use sam_experiments::scenario::derive_seed;
use sam_experiments::serving::{catalogue, find, train_profile, Deployment, TRAIN_OFFSET};
use sam_gateway::prelude::{Gateway, GatewayConfig};
use sam_serve::prelude::*;
use sam_serve::service::ProfileSource;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rate of the latency phase (traced runs), req/s: about a
/// third of the capacity measured on a 2-core host, so the host's slow
/// spells do not tip the phase into queueing.
const NOMINAL_RPS: f64 = 70.0;
/// Share of a traced run's seconds spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.5;
/// The p99 limit a ladder rung must meet, ms.
const SLO_P99_MS: f64 = 60.0;
/// Rung `k` of the rate ladder is `LADDER_BASE_RPS * LADDER_STEP^k`.
const LADDER_BASE_RPS: f64 = 40.0;
/// Ladder rungs are 4 % apart.
const LADDER_STEP: f64 = 1.04;
const LADDER_RUNGS: i32 = 60;
/// The rung the search starts from: just below the capacity measured on
/// a 2-core host.
const LADDER_START: i32 = 34;
/// Requests sent at one rung.
const PROBE_REQUESTS: usize = 200;
/// Probes per ladder search, so a collapsed gateway still ends the run.
const MAX_PROBES: usize = 14;
/// Requests in one closed-loop suite.
const SUITE_REQUESTS: usize = 128;
/// Requests in flight per connection in a closed-loop suite. With a
/// request always waiting, the gateway's threads rarely sleep between
/// requests, so the suite measures the work a request costs rather than
/// how long the host takes to wake an idle thread, which drifts with
/// other tenants' load.
const SUITE_WINDOW: usize = 4;
/// Closed-loop suites per round of an untraced run.
const SUITES_PER_ROUND: usize = 2;
/// Fresh-process set-up samples per round.
const SETUP_PER_ROUND: usize = 1;
/// Requests per warm-up phase.
const WARM_PHASE: usize = 16;
/// Calibration passes after each measurement of a round.
const CALIBRATION_PASSES: &str = "10";

/// Share of requests carrying an attacked route set, percent (a multiple
/// of 10).
const ATTACKED_PCT: u64 = 30;
/// Distinct route sets per (deployment, attacked) pair.
const POOL_SETS: u64 = 32;
/// Probe ACK ratio reported with attacked route sets (normal ones report
/// none: every probe succeeded).
const ATTACKED_ACK_RATIO: f64 = 0.4;
/// The `detector` field of each request class of a route set: unset (the
/// concrete SAM path) or the ensemble (the trait path).
const DETECTORS: [Option<&str>; 2] = [None, Some("ensemble")];
/// Names of the threads whose CPU time is the gateway's.
const SERVER_THREADS: &[&str] = &["sam-gw", "sam-serve"];

/// Which reference answer the self-tests corrupt, so a run must fail.
#[derive(Clone, Copy, PartialEq)]
pub enum Tamper {
    None,
    Verdict,
    Suspect,
}

/// The gateway shape: fixed, so nothing depends on the host's core count.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 2,
        service: ServiceConfig {
            workers: 1,
            detector: SamConfig::calibrated(),
            explain: true,
            ..ServiceConfig::default()
        },
        max_conns: 2,
        known_keys: Some(catalogue().iter().map(Deployment::key_string).collect()),
        ..GatewayConfig::default()
    }
}

/// The profile source `sam-gateway` uses: the serving catalogue's
/// training convention.
fn profile_source() -> ProfileSource {
    Arc::new(|key: &ProfileKey| {
        let deployment = find(&key.topology, &key.protocol).expect("known_keys guards the source");
        train_profile(&deployment)
    })
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One simulated route set the traffic draws from.
struct PoolEntry {
    deployment: usize,
    routes: Vec<Route>,
    ack_ratio: Option<f64>,
}

/// A request class: one pool entry judged by one detector. Responses of
/// a class are identical apart from their id.
struct Class {
    entry: usize,
    detector: Option<&'static str>,
    verdict: Verdict,
    /// The explanation's suspect link.
    suspect: Option<(u32, u32)>,
    /// Request line after its `{"id":N` prefix, newline included.
    body: Vec<u8>,
    /// The same with `"timings": true` (traced runs only).
    timed_body: Vec<u8>,
}

/// The detector name a response echoes.
fn echo(detector: Option<&str>) -> &str {
    detector.unwrap_or("sam")
}

/// The catalogue deployment of pool entry `entry` ([`build_pool`] order).
fn deployment_of(entry: usize) -> usize {
    entry / (2 * POOL_SETS as usize)
}

/// The traffic corpus: the first [`POOL_SETS`] runs with at least two
/// routes of each (deployment, attacked) scenario. The corpus is the same
/// for every seed; the seed draws the request stream from it. Explain
/// cost grows with the square of a set's route count, so a corpus drawn
/// per seed would make the seed-to-seed spread measure the corpus rather
/// than the gateway.
fn build_pool() -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    for (d, dep) in catalogue().iter().enumerate() {
        for attacked in [false, true] {
            let spec = if attacked { &dep.attacked } else { &dep.normal };
            let mut run = 0;
            let mut found = 0;
            while found < POOL_SETS {
                // Clear of the runs profiles train on.
                assert!(run < TRAIN_OFFSET, "corpus runs overlap the training runs");
                let (_, routes) = run_once_with_routes(spec, run);
                run += 1;
                // A discovery that found fewer than two routes gives the
                // statistics nothing to compare; real requesters skip it.
                if routes.len() < 2 {
                    continue;
                }
                pool.push(PoolEntry {
                    deployment: d,
                    routes,
                    ack_ratio: attacked.then_some(ATTACKED_ACK_RATIO),
                });
                found += 1;
            }
        }
    }
    pool
}

/// Mix slots per (deployment, route set): 3 in 10 carry the attacked
/// set and 1 in 4 names `"ensemble"`.
const MIX_SLOTS: u64 = 40;

/// Class of the `i`-th request of a phase. Requests walk the mix (every
/// deployment, route set and slot) along a golden-ratio sequence, so any
/// run of requests holds each part of the mix in close to its exact
/// share, and two phases of equal length carry the same requests. The
/// seed sets the order they are sent in ([`Rig::jobs`]): explain cost
/// grows with the square of a route set's size, so drawing the content
/// per seed would make the seed-to-seed spread measure the draw rather
/// than the gateway.
fn class_of(i: u64) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_894_8;
    let mix = 3 * POOL_SETS * MIX_SLOTS;
    let x = (i as f64 * GOLDEN).fract();
    let d = ((x * mix as f64) as u64).min(mix - 1);
    let set = d % POOL_SETS;
    let deployment = d / POOL_SETS % 3;
    let slot = d / (3 * POOL_SETS);
    let attacked = slot % 10 < ATTACKED_PCT / 10;
    let ensemble = slot / 10 == 0;
    let entry = (deployment * 2 + attacked as u64) * POOL_SETS + set;
    (entry * 2 + ensemble as u64) as usize
}

fn transport_for(ratio: Option<f64>) -> impl FnMut(&Route, u32) -> ProbeOutcome {
    let ratio = ratio.unwrap_or(1.0).clamp(0.0, 1.0);
    move |_route: &Route, count: u32| ProbeOutcome {
        sent: count,
        acked: ((count as f64) * ratio).round() as u32,
    }
}

/// Encode a request line, split after its `{"id":0` prefix.
fn request_body(
    dep: &Deployment,
    routes: &[Route],
    ack_ratio: Option<f64>,
    detector: Option<&str>,
) -> Vec<u8> {
    let request = DetectionRequest {
        id: 0,
        key: ProfileKey::new(dep.topology.clone(), dep.protocol.clone()),
        routes: routes.to_vec(),
        probe_ack_ratio: ack_ratio,
        detector: detector.map(str::to_string),
    };
    let line = WireRequest::from_request(&request).encode();
    let body = line
        .strip_prefix("{\"id\":0")
        .expect("request lines start with their id");
    let mut bytes = body.as_bytes().to_vec();
    bytes.push(b'\n');
    bytes
}

/// `perfbench prepare`: build the corpus and every class's reference
/// answer, and write each class as two lines — `entry`, `detector` (`-`
/// when unset), the verdict as JSON and the suspect link (`a,b`, or `-`),
/// tab-separated; then the request line after its `{"id":0` prefix.
pub fn prepare(tamper: Tamper, out: &mut impl Write) -> Result<(), String> {
    let pool = build_pool();
    let deployments = catalogue();
    let profiles: Vec<NormalProfile> = deployments.iter().map(train_profile).collect();
    let registry = DetectorRegistry::with_sam(SamConfig::calibrated());
    let procedure = ProcedureConfig::default();
    for (e, entry) in pool.iter().enumerate() {
        for detector in DETECTORS {
            let judge = registry.get(echo(detector)).expect("registry detector");
            let input = DetectorInput::new(&entry.routes, &profiles[entry.deployment]);
            let outcome = run_procedure(
                judge.as_ref(),
                &input,
                &procedure,
                &mut transport_for(entry.ack_ratio),
            );
            let mut verdict = Verdict::from_detector_outcome(&outcome);
            let mut suspect =
                Explanation::from_verdict(&entry.routes, outcome.verdict()).suspect_link;
            match tamper {
                Tamper::None => {}
                Tamper::Verdict => verdict.anomalous = !verdict.anomalous,
                Tamper::Suspect => {
                    suspect = match suspect {
                        Some(_) => None,
                        None => Some((u32::MAX, u32::MAX)),
                    }
                }
            }
            let verdict = serde_json::to_string(&verdict).map_err(|e| e.to_string())?;
            let suspect = suspect.map_or("-".to_string(), |(a, b)| format!("{a},{b}"));
            let body = request_body(
                &deployments[entry.deployment],
                &entry.routes,
                entry.ack_ratio,
                detector,
            );
            writeln!(
                out,
                "{e}\t{}\t{verdict}\t{suspect}",
                detector.unwrap_or("-")
            )
            .and_then(|()| out.write_all(&body))
            .map_err(|e| format!("prepare: {e}"))?;
        }
    }
    Ok(())
}

/// Read the classes `perfbench prepare` writes, from a child process.
fn load_classes(tamper: Tamper, timed: bool) -> Result<Vec<Class>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("prepare").stdout(Stdio::piped());
    match tamper {
        Tamper::None => {}
        Tamper::Verdict => {
            cmd.args(["--tamper", "verdict"]);
        }
        Tamper::Suspect => {
            cmd.args(["--tamper", "suspect"]);
        }
    }
    let mut child = cmd.spawn().map_err(|e| format!("prepare: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let parsed = parse_classes(BufReader::new(stdout), timed);
    let status = child.wait().map_err(|e| format!("prepare: {e}"))?;
    if !status.success() {
        return Err(format!("prepare exited with {status}"));
    }
    let classes = parsed?;
    if classes.len() != 3 * 2 * POOL_SETS as usize * DETECTORS.len() {
        return Err(format!("prepare wrote {} classes", classes.len()));
    }
    Ok(classes)
}

fn parse_classes(mut input: impl BufRead, timed: bool) -> Result<Vec<Class>, String> {
    let bad = |what: &str| format!("prepare output: bad {what}");
    let mut classes = Vec::new();
    let mut head = String::new();
    loop {
        head.clear();
        if input.read_line(&mut head).map_err(|e| e.to_string())? == 0 {
            return Ok(classes);
        }
        let mut body = Vec::new();
        input
            .read_until(b'\n', &mut body)
            .map_err(|e| e.to_string())?;
        let fields: Vec<&str> = head.trim_end().split('\t').collect();
        let [entry, detector, verdict, suspect] = fields[..] else {
            return Err(bad("class line"));
        };
        let detector = DETECTORS
            .into_iter()
            .find(|d| d.unwrap_or("-") == detector)
            .ok_or_else(|| bad("detector"))?;
        let suspect = match suspect.split_once(',') {
            None => None,
            Some((a, b)) => Some((
                a.parse().map_err(|_| bad("suspect"))?,
                b.parse().map_err(|_| bad("suspect"))?,
            )),
        };
        let timed_body = if timed {
            let text = String::from_utf8(body.clone()).map_err(|_| bad("request line"))?;
            let untimed = "\"timings\":false";
            if !text.contains(untimed) {
                return Err(bad("request line"));
            }
            text.replacen(untimed, "\"timings\":true", 1).into_bytes()
        } else {
            Vec::new()
        };
        classes.push(Class {
            entry: entry.parse().map_err(|_| bad("entry"))?,
            detector,
            verdict: serde_json::from_str(verdict).map_err(|_| bad("verdict"))?,
            suspect,
            body,
            timed_body,
        });
    }
}

/// Whether `body` (a response line after its id) answers `c` rightly.
/// A response that is not `ok` is not judged: the client counts it as
/// failed.
fn judge(c: &Class, body: &[u8]) -> Result<(), String> {
    let mut line = b"{\"id\":0".to_vec();
    line.extend_from_slice(body);
    let resp = WireResponse::decode(&line).map_err(|e| format!("undecodable response ({e})"))?;
    if resp.status != sam_serve::wire::STATUS_OK {
        return Ok(());
    }
    let suspect = resp.explanation.as_ref().map(|e| e.suspect_link);
    if resp.detector.as_deref() == Some(echo(c.detector))
        && resp.verdict.as_ref() == Some(&c.verdict)
        && suspect == Some(c.suspect)
    {
        Ok(())
    } else {
        Err(format!(
            "wrong response for pool entry {} detector {:?}: got {:?} {:?}, want {:?} {:?}",
            c.entry, c.detector, resp.verdict, suspect, c.verdict, c.suspect
        ))
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

struct Job {
    /// Offset of the due time from the phase start.
    due: Duration,
    id: u64,
    class: usize,
}

struct InFlight {
    id: u64,
    class: usize,
    due: Instant,
    sent: Instant,
}

/// What one connection saw during one phase.
#[derive(Default)]
struct ConnResult {
    /// Latency from the due time, ms, one per response.
    latency: Vec<f64>,
    /// (due offset ms, generator lateness ms), one per request sent.
    lateness: Vec<(f64, f64)>,
    /// Send-to-receive time, µs.
    rtt_us: Vec<f64>,
    /// Server stages `[queue_wait, compute, serialize]`, µs (timed
    /// requests only).
    stages_us: Vec<[f64; 3]>,
    response_bytes: Vec<f64>,
    sent: u64,
    not_ok: u64,
    missing: u64,
    aborted: bool,
    error: Option<String>,
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader<BufReader<TcpStream>>,
    buf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    /// Responses per (class, hash of the line without id and timings),
    /// over the whole run.
    seen: HashMap<(usize, u64), u64>,
    /// Lines of the current phase not seen before on this connection,
    /// with their (class, hash); judged when the phase ends.
    fresh: Vec<(usize, u64, Vec<u8>)>,
    res: ConnResult,
    /// Latency beyond which the phase stops sending (ladder probes).
    abort_after_ms: Option<f64>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        let reader = FrameReader::new(
            BufReader::with_capacity(256 * 1024, stream.try_clone()?),
            sam_serve::wire::MAX_LINE_BYTES,
        );
        Ok(Conn {
            stream,
            reader,
            buf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
            seen: HashMap::new(),
            fresh: Vec::new(),
            res: ConnResult::default(),
            abort_after_ms: None,
        })
    }

    /// Write request `job`, which fell due at `due`.
    fn send(&mut self, job: &Job, due: Instant, body: &[u8]) -> bool {
        self.buf.clear();
        write!(self.buf, "{{\"id\":{}", job.id).expect("writing to a Vec cannot fail");
        self.buf.extend_from_slice(body);
        if let Err(e) = self.stream.write_all(&self.buf) {
            self.res.error = Some(format!("write: {e}"));
            return false;
        }
        let sent = Instant::now();
        self.res
            .lateness
            .push((ms(job.due), ms(sent.saturating_duration_since(due))));
        self.inflight.push_back(InFlight {
            id: job.id,
            class: job.class,
            due,
            sent,
        });
        self.res.sent += 1;
        true
    }

    /// Wait up to `timeout` for one response line. False on a
    /// connection-level error (recorded in `res.error`).
    fn poll(&mut self, timeout: Duration) -> bool {
        let timeout = timeout.max(Duration::from_micros(1));
        if let Err(e) = self.stream.set_read_timeout(Some(timeout)) {
            self.res.error = Some(format!("set_read_timeout: {e}"));
            return false;
        }
        match self.reader.next_frame() {
            Ok(Some(line)) => self.on_line(&line, Instant::now()),
            Ok(None) => {
                self.res.error = Some("gateway closed the connection".into());
                false
            }
            Err(e) if e.is_timeout() => true,
            Err(e) => {
                self.res.error = Some(format!("read: {e}"));
                false
            }
        }
    }

    fn on_line(&mut self, line: &[u8], received: Instant) -> bool {
        let Some(rest) = line.strip_prefix(b"{\"id\":") else {
            self.res.error = Some("response does not start with its id".into());
            return false;
        };
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let id: u64 = std::str::from_utf8(&rest[..digits])
            .ok()
            .and_then(|d| d.parse().ok())
            .unwrap_or(u64::MAX);
        let Some(req) = self.inflight.pop_front() else {
            self.res.error = Some(format!("response {id} with nothing in flight"));
            return false;
        };
        if req.id != id {
            self.res.error = Some(format!("response {id} answered request {}", req.id));
            return false;
        }
        let mut body = &rest[digits..];
        let blanked;
        if let Some((stages, without)) = split_timings(body) {
            self.res.stages_us.push(stages);
            blanked = without;
            body = &blanked;
        }
        let latency_ms = ms(received - req.due);
        self.res.latency.push(latency_ms);
        self.res.rtt_us.push(us(received - req.sent));
        self.res.response_bytes.push(line.len() as f64 + 1.0);
        if !status_is_ok(body) {
            self.res.not_ok += 1;
        }
        if matches!(self.abort_after_ms, Some(limit) if latency_ms > limit) {
            self.res.aborted = true;
        }
        let mut hasher = DefaultHasher::new();
        hasher.write(body);
        let hash = hasher.finish();
        let count = self.seen.entry((req.class, hash)).or_insert(0);
        if *count == 0 {
            self.fresh.push((req.class, hash, body.to_vec()));
        }
        *count += 1;
        true
    }

    /// Open loop: send each job when due, reading responses while
    /// waiting; then wait up to `drain` for the rest.
    fn run_open(&mut self, jobs: &[Job], start: Instant, bodies: &[&[u8]], drain: Duration) {
        let mut next = 0;
        let mut drain_deadline = None;
        loop {
            let now = Instant::now();
            if next < jobs.len() && !self.res.aborted {
                let due = start + jobs[next].due;
                if now >= due {
                    if !self.send(&jobs[next], due, bodies[jobs[next].class]) {
                        break;
                    }
                    next += 1;
                    continue;
                }
                let wait = due - now;
                if self.inflight.is_empty() {
                    sleep_until(due);
                } else if wait > Duration::from_micros(100) {
                    if !self.poll(wait) {
                        break;
                    }
                } else {
                    std::hint::spin_loop();
                }
            } else {
                if self.inflight.is_empty() {
                    break;
                }
                let deadline = *drain_deadline.get_or_insert(now + drain);
                if now >= deadline {
                    self.res.error = Some("responses missing after the drain timeout".into());
                    break;
                }
                if !self.poll((deadline - now).min(Duration::from_millis(100))) {
                    break;
                }
            }
        }
        self.res.missing += self.inflight.len() as u64;
    }

    /// Closed loop: at most `window` requests in flight, each response
    /// letting the next request go. Gives up after 20 s without one.
    fn run_closed(&mut self, jobs: &[Job], bodies: &[&[u8]], window: usize) {
        let mut next = 0;
        let mut deadline = Instant::now() + Duration::from_secs(20);
        while next < jobs.len() || !self.inflight.is_empty() {
            if next < jobs.len() && self.inflight.len() < window {
                if !self.send(&jobs[next], Instant::now(), bodies[jobs[next].class]) {
                    break;
                }
                next += 1;
                continue;
            }
            let waiting = self.inflight.len();
            if Instant::now() >= deadline || !self.poll(Duration::from_millis(100)) {
                break;
            }
            if self.inflight.len() < waiting {
                deadline = Instant::now() + Duration::from_secs(20);
            }
        }
        self.res.missing += self.inflight.len() as u64;
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now + Duration::from_micros(200) {
        std::thread::sleep(due - now - Duration::from_micros(100));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Whether a response body (after the id) carries `"status":"ok"`.
fn status_is_ok(body: &[u8]) -> bool {
    let key = b"\"status\":\"";
    body.windows(key.len())
        .position(|w| w == key)
        .is_some_and(|at| body[at + key.len()..].starts_with(b"ok\""))
}

/// Take the `"timings":{...}` object out of a response body: the three
/// stage times, and the body with the object replaced by `null`.
fn split_timings(body: &[u8]) -> Option<([f64; 3], Vec<u8>)> {
    let key = b"\"timings\":{";
    let at = body.windows(key.len()).position(|w| w == key)?;
    let open = at + key.len() - 1;
    let close = open + body[open..].iter().position(|&b| b == b'}')?;
    let inner = std::str::from_utf8(&body[open + 1..close]).ok()?;
    let field = |name: &str| {
        inner.split(',').find_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            (k.trim_matches('"') == name).then(|| v.parse::<f64>().ok())?
        })
    };
    let stages = [
        field("queue_wait_us")?,
        field("compute_us")?,
        field("serialize_us")?,
    ];
    let mut without = body[..at].to_vec();
    without.extend_from_slice(b"\"timings\":null");
    without.extend_from_slice(&body[close + 1..]);
    Some((stages, without))
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Everything a phase measured, both connections merged.
struct Phase {
    res: ConnResult,
    wall_s: f64,
    server_cpu_s: f64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.res.not_ok + self.res.missing
    }

    /// Generator lateness p99 over the phase, ms.
    fn lateness_p99_ms(&self) -> f64 {
        let l: Vec<f64> = self.res.lateness.iter().map(|&(_, l)| l).collect();
        quantile(&l, 0.99)
    }

    /// Whether lateness grew: the median lateness of the probe's last
    /// quarter exceeds its first quarter's by more than a millisecond.
    /// Medians, so one stall of the host does not read as a backlog.
    fn lateness_grew(&self) -> bool {
        let mut l = self.res.lateness.clone();
        l.sort_by(|a, b| a.0.total_cmp(&b.0));
        let quarter = l.len() / 4;
        let mid = |s: &[(f64, f64)]| median(&s.iter().map(|&(_, x)| x).collect::<Vec<_>>());
        mid(&l[l.len() - quarter..]) > mid(&l[..quarter]) + 1.0
    }
}

struct Rig {
    conns: [Conn; 2],
    classes: Vec<Class>,
    seed: u64,
    next_id: u64,
    /// Phase streams drawn so far; each phase gets a fresh mix.
    next_salt: u64,
    /// Whether each distinct (class, line hash) answered its class rightly.
    judged: HashMap<(usize, u64), bool>,
    /// The first wrong answer found.
    first_wrong: Option<String>,
}

impl Rig {
    /// The phase's `n` requests in a seeded order, due at `rate` req/s.
    fn jobs(&mut self, n: usize, rate: f64) -> Vec<Job> {
        let salt = self.next_salt;
        self.next_salt += 1;
        let mut order: Vec<(u64, usize)> = (0..n as u64)
            .map(|i| (derive_seed(self.seed ^ salt << 32, i), class_of(i)))
            .collect();
        order.sort_unstable();
        order
            .into_iter()
            .enumerate()
            .map(|(i, (_, class))| {
                self.next_id += 1;
                Job {
                    due: Duration::from_secs_f64(i as f64 / rate),
                    id: self.next_id,
                    class,
                }
            })
            .collect()
    }

    /// Every class once, in a seeded order (closed loop: no due times).
    fn every_class(&mut self) -> Vec<Job> {
        let mut order: Vec<(u64, usize)> = (0..self.classes.len())
            .map(|c| (derive_seed(self.seed, c as u64), c))
            .collect();
        order.sort_unstable();
        order
            .into_iter()
            .map(|(_, class)| {
                self.next_id += 1;
                Job {
                    due: Duration::ZERO,
                    id: self.next_id,
                    class,
                }
            })
            .collect()
    }

    /// Run `jobs` on both connections (even ids on one, odd on the
    /// other), open loop when `open`, merge what they saw, and judge the
    /// response lines not seen before.
    fn phase(
        &mut self,
        jobs: Vec<Job>,
        open: bool,
        timed: bool,
        abort_after_ms: Option<f64>,
    ) -> Phase {
        let bodies: Vec<&[u8]> = self
            .classes
            .iter()
            .map(|c| {
                if timed {
                    &c.timed_body[..]
                } else {
                    &c.body[..]
                }
            })
            .collect();
        let (even, odd): (Vec<Job>, Vec<Job>) = jobs.into_iter().partition(|j| j.id % 2 == 0);
        let drain = Duration::from_secs(20);
        let cpu_before = thread_cpu_s(SERVER_THREADS);
        let started = Instant::now();
        let start = started + Duration::from_millis(2);
        let [a, b] = &mut self.conns;
        a.abort_after_ms = abort_after_ms;
        b.abort_after_ms = abort_after_ms;
        let drive = |conn: &mut Conn, jobs: &[Job]| {
            if open {
                conn.run_open(jobs, start, &bodies, drain)
            } else {
                conn.run_closed(jobs, &bodies, SUITE_WINDOW)
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| drive(a, &even));
            drive(b, &odd);
        });
        let wall_s = started.elapsed().as_secs_f64();
        let server_cpu_s = thread_cpu_s(SERVER_THREADS) - cpu_before;
        let mut res = std::mem::take(&mut a.res);
        let other = std::mem::take(&mut b.res);
        res.latency.extend(other.latency);
        res.lateness.extend(other.lateness);
        res.rtt_us.extend(other.rtt_us);
        res.stages_us.extend(other.stages_us);
        res.response_bytes.extend(other.response_bytes);
        res.sent += other.sent;
        res.not_ok += other.not_ok;
        res.missing += other.missing;
        res.aborted |= other.aborted;
        res.error = res.error.or(other.error);

        for conn in &mut self.conns {
            for (class, hash, body) in conn.fresh.drain(..) {
                if self.judged.contains_key(&(class, hash)) {
                    continue;
                }
                let right = judge(&self.classes[class], &body);
                if let Err(why) = &right {
                    self.first_wrong.get_or_insert_with(|| why.clone());
                }
                self.judged.insert((class, hash), right.is_ok());
            }
        }
        Phase {
            res,
            wall_s,
            server_cpu_s,
        }
    }

    /// Responses, over the whole run, that disagree with their reference.
    fn wrong(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| &c.seen)
            .filter(|(key, _)| self.judged.get(key) == Some(&false))
            .map(|(_, count)| count)
            .sum()
    }
}

/// Totals across every phase of a run.
#[derive(Default)]
struct Tally {
    sent: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, p: &Phase) {
        self.sent += p.res.sent;
        self.failed += p.failed();
        if let Some(e) = &p.res.error {
            self.errors.push(e.clone());
        }
    }
}

/// Send one ladder probe at rung `k`: whether p99 stays under the
/// limit with no failed request and no growing lateness.
fn probe_rung(rig: &mut Rig, k: i32, tally: &mut Tally, log: &mut Vec<String>) -> bool {
    let jobs = rig.jobs(PROBE_REQUESTS, rung_rps(k));
    let p = rig.phase(jobs, true, false, Some(4.0 * SLO_P99_MS));
    tally.add(&p);
    let p99 = quantile(&p.res.latency, 0.99);
    let pass = !p.res.aborted
        && p.failed() == 0
        && p.res.error.is_none()
        && p99 < SLO_P99_MS
        && !p.lateness_grew();
    log.push(format!(
        "rung {k} ({:.0} req/s): p99 {p99:.2} ms, lateness p99 {:.2} ms{} -> {}",
        rung_rps(k),
        p.lateness_p99_ms(),
        if p.res.aborted { ", aborted" } else { "" },
        if pass { "pass" } else { "fail" }
    ));
    pass
}

/// Highest passing rung of the rate ladder, searched from rung `from`
/// (-1 if none passes). Walks up while rungs pass, or down until one does.
fn ladder_search(rig: &mut Rig, from: i32, tally: &mut Tally, log: &mut Vec<String>) -> i32 {
    let mut k = from.clamp(0, LADDER_RUNGS - 1);
    let mut probes = 1;
    if probe_rung(rig, k, tally, log) {
        while k + 1 < LADDER_RUNGS && probes < MAX_PROBES {
            probes += 1;
            if !probe_rung(rig, k + 1, tally, log) {
                break;
            }
            k += 1;
        }
        k
    } else {
        while k > 0 && probes < MAX_PROBES {
            k -= 1;
            probes += 1;
            if probe_rung(rig, k, tally, log) {
                return k;
            }
        }
        -1
    }
}

/// Offered rate of ladder rung `k`, req/s (0 below the ladder).
fn rung_rps(k: i32) -> f64 {
    if k < 0 {
        0.0
    } else {
        LADDER_BASE_RPS * LADDER_STEP.powi(k)
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Bind a fresh gateway and send one request per catalogue key, so every
/// profile trains cold. Returns (bind + training s, per-key first
/// request ms). Run once per process: the simulator's run memo would
/// turn a second training into a replay.
pub fn setup_once() -> Result<(f64, Vec<f64>), String> {
    let started = Instant::now();
    let gateway = Gateway::bind("127.0.0.1:0", gateway_config(), profile_source())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn = Conn::connect(gateway.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut train_ms = Vec::new();
    let routes = [
        Route::new(vec![NodeId(0), NodeId(1), NodeId(2)]).expect("valid route"),
        Route::new(vec![NodeId(0), NodeId(3), NodeId(2)]).expect("valid route"),
    ];
    for (i, dep) in catalogue().iter().enumerate() {
        let body = request_body(dep, &routes, None, None);
        let job = Job {
            due: Duration::ZERO,
            id: i as u64 + 1,
            class: 0,
        };
        let sent = Instant::now();
        conn.run_closed(std::slice::from_ref(&job), &[&body], 1);
        train_ms.push(ms(sent.elapsed()));
        if conn.res.not_ok + conn.res.missing > 0 || conn.res.error.is_some() {
            return Err(format!("warm-up request for {} failed", dep.key_string()));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();
    drop(conn);
    gateway.drain();
    Ok((setup_s, train_ms))
}

/// Median time of a few calibration passes in a fresh process (this
/// binary's `calibrate`), ms; in a process of its own so the task's
/// memory stays out of this one's peak RSS.
fn calibrate() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["calibrate", "--passes", CALIBRATION_PASSES])
        .output()
        .map_err(|e| format!("calibrate: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(ms) if out.status.success() => Ok(ms),
        _ => Err(format!("calibrate failed: {}", text.trim())),
    }
}

/// Set-up times of `n` fresh processes (this binary's `setup-probe`), s,
/// and every per-key first request, ms.
fn setup_samples(n: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut setup = Vec::new();
    let mut train = Vec::new();
    for _ in 0..n {
        let out = Command::new(&exe)
            .arg("setup-probe")
            .output()
            .map_err(|e| format!("setup-probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text.lines().last().unwrap_or_default();
        let mut parts = line.split_whitespace();
        let (Some(s), Some(t), true) = (parts.next(), parts.next(), out.status.success()) else {
            return Err(format!(
                "setup-probe failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        };
        setup.push(
            s.parse()
                .map_err(|e| format!("setup-probe output {s}: {e}"))?,
        );
        for v in t.split(',') {
            train.push(
                v.parse()
                    .map_err(|e| format!("setup-probe output {v}: {e}"))?,
            );
        }
    }
    Ok((setup, train))
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(seed: u64, seconds: f64, trace: bool, tamper: Tamper) -> Report {
    let mut report = Report::new();
    match run_inner(seed, seconds, trace, tamper, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(e),
    }
    report
}

fn run_inner(
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: Tamper,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up, outside the window: the request classes with their
    // reference answers (from a child process), the gateway and its
    // connections.
    let classes = load_classes(tamper, trace)?;
    let gateway = Gateway::bind("127.0.0.1:0", gateway_config(), profile_source())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = gateway.local_addr();
    let conns = [
        Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
        Conn::connect(addr).map_err(|e| format!("connect: {e}"))?,
    ];
    let mut rig = Rig {
        conns,
        classes,
        seed,
        next_id: 0,
        next_salt: 0,
        judged: HashMap::new(),
        first_wrong: None,
    };
    let mut tally = Tally::default();

    // Warm-up: train every key and judge one response of every class;
    // verified but not measured. In short phases, so the response lines
    // awaiting judgement stay few.
    let mut warm = rig.every_class();
    while !warm.is_empty() {
        let rest = warm.split_off(warm.len().min(WARM_PHASE));
        let p = rig.phase(warm, false, false, None);
        tally.add(&p);
        warm = rest;
    }

    let budget = seconds.max(1.0);
    let mut lines = Vec::new();

    if !trace {
        // Rounds interleave every measurement, so the host's slow and
        // fast spells land on all of them alike, until the run's seconds
        // are spent.
        let deadline = Instant::now() + Duration::from_secs_f64(budget);
        let mut setup_s = Vec::new();
        let mut suite_s = Vec::new();
        let mut suite_cpu_s = Vec::new();
        // The host's speed, gauged between the measurements (run.py
        // scales the timings by it).
        let mut calibration = Vec::new();
        while suite_s.len() < 2 * SUITES_PER_ROUND || Instant::now() < deadline {
            let (s, _) = setup_samples(SETUP_PER_ROUND)?;
            setup_s.extend(s);
            calibration.push(calibrate()?);
            for _ in 0..SUITES_PER_ROUND {
                let jobs = rig.jobs(SUITE_REQUESTS, 1.0);
                let suite = rig.phase(jobs, false, false, None);
                tally.add(&suite);
                suite_s.push(suite.wall_s);
                suite_cpu_s.push(suite.server_cpu_s);
            }
            calibration.push(calibrate()?);
        }
        // Lower quartiles: the host's stalls only ever add time to a
        // suite, and they come and go within a run.
        report.metric("suite_s", quantile(&suite_s, 0.25), "s");
        report.metric("suite_cpu_s", quantile(&suite_cpu_s, 0.25), "s");
        report.metric(
            "ok_share",
            1.0 - tally.failed as f64 / (tally.sent as f64).max(1.0),
            "ratio",
        );
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("calibration_ms", median(&calibration), "ms");
        lines.push(format!(
            "{} suites of {SUITE_REQUESTS} requests, wall {:.3}-{:.3} s; {} set-up samples",
            suite_s.len(),
            quantile(&suite_s, 0.0),
            quantile(&suite_s, 1.0),
            setup_s.len()
        ));
    } else {
        // The same open-loop schedule at the nominal rate twice: plain
        // (the client's latency, and the untraced reference for the
        // overhead ratio) and with per-request stage timings.
        let nominal_n = ((NOMINAL_RPS * budget * NOMINAL_SHARE / 2.0) as usize).max(50);
        let plain_jobs = rig.jobs(nominal_n, NOMINAL_RPS);
        let timed_jobs: Vec<Job> = plain_jobs
            .iter()
            .map(|j| Job {
                due: j.due,
                id: j.id + nominal_n as u64,
                class: j.class,
            })
            .collect();
        rig.next_id += nominal_n as u64;
        let before = gateway.registry().snapshot();
        let plain = rig.phase(plain_jobs, true, false, None);
        tally.add(&plain);
        let timed = rig.phase(timed_jobs, true, true, None);
        tally.add(&timed);
        let after = gateway.registry().snapshot();

        report.metric("client.p50_ms", quantile(&plain.res.latency, 0.5), "ms");
        report.metric("client.p99_ms", quantile(&plain.res.latency, 0.99), "ms");

        let stage = |i: usize| timed.res.stages_us.iter().map(|s| s[i]).collect::<Vec<_>>();
        let (queue, compute, serialize) = (stage(0), stage(1), stage(2));
        let transport: Vec<f64> = timed
            .res
            .rtt_us
            .iter()
            .zip(&timed.res.stages_us)
            .map(|(rtt, s)| rtt - s[0] - s[1] - s[2])
            .collect();
        report.metric("serve.queue_wait_us_p50", quantile(&queue, 0.5), "us");
        report.metric("serve.queue_wait_us_p99", quantile(&queue, 0.99), "us");
        report.metric("serve.compute_us_p50", quantile(&compute, 0.5), "us");
        report.metric("serve.compute_us_p99", quantile(&compute, 0.99), "us");
        report.metric("gateway.serialize_us_p50", quantile(&serialize, 0.5), "us");
        report.metric("gateway.transport_us_p50", quantile(&transport, 0.5), "us");
        lines.push(format!(
            "accounting (means, µs): queue {:.1} + compute {:.1} + serialize {:.1} + transport {:.1} = {:.1}; client RTT {:.1}",
            mean(&queue),
            mean(&compute),
            mean(&serialize),
            mean(&transport),
            mean(&queue) + mean(&compute) + mean(&serialize) + mean(&transport),
            mean(&timed.res.rtt_us)
        ));

        let (_, train_ms) = setup_samples(5)?;
        let replay = replay(&rig.classes, budget);
        report.metric("wire.decode_us", median(&replay.decode_us), "us");
        report.metric("wire.encode_us", median(&replay.encode_us), "us");
        report.metric("wire.request_bytes", mean(&replay.request_bytes), "bytes");
        report.metric(
            "wire.response_bytes",
            mean(&plain.res.response_bytes),
            "bytes",
        );
        report.metric("core.detect_us.sam", median(&replay.sam_us), "us");
        report.metric("core.detect_us.ensemble", median(&replay.ensemble_us), "us");
        report.metric("core.explain_us", median(&replay.explain_us), "us");
        report.metric("core.train_ms", median(&train_ms), "ms");

        let window = after.delta(&before);
        let hits = window.counter("serve.cache_hits") as f64;
        let misses = window.counter("serve.cache_misses") as f64;
        report.metric(
            "serve.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        report.metric(
            "serve.mean_batch",
            window.counter("serve.completed") as f64
                / (window.counter("serve.batches") as f64).max(1.0),
            "count",
        );
        let total = |name: &str| after.counter(name) as f64;
        report.metric(
            "gateway.shed",
            total("gateway.request_shed") + total("gateway.conn_shed"),
            "count",
        );
        report.metric(
            "gateway.codec_errors",
            total("gateway.codec_errors"),
            "count",
        );
        report.metric("gateway.unknown_key", total("gateway.unknown_key"), "count");
        report.metric("client.lateness_ms_p99", plain.lateness_p99_ms(), "ms");
        let plain_p50 = quantile(&plain.res.latency, 0.5);
        let timed_p50 = quantile(&timed.res.latency, 0.5);
        report.metric("telemetry.overhead_ratio", timed_p50 / plain_p50, "ratio");

        let rung = ladder_search(&mut rig, LADDER_START, &mut tally, &mut lines);
        report.metric("client.rps_at_slo", rung_rps(rung), "1/s");
    }

    // Closing: every response line was judged after its phase.
    let wrong = rig.wrong();
    if let Some(first) = rig.first_wrong.take() {
        report.fail(first);
        report.fail(format!(
            "{wrong} responses disagree with the reference verdict"
        ));
    }
    drop(rig);
    gateway.drain();

    report.attempted = tally.sent;
    report.failed = tally.failed + wrong;
    for e in tally.errors {
        report.fail(e);
    }
    for l in lines {
        println!("[gateway-explain] {l}");
    }
    Ok(())
}

/// Single-thread replay timings of the public calls on a request's path.
#[derive(Default)]
struct Replay {
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    request_bytes: Vec<f64>,
    sam_us: Vec<f64>,
    ensemble_us: Vec<f64>,
    explain_us: Vec<f64>,
}

fn replay(classes: &[Class], budget: f64) -> Replay {
    let profiles: Vec<NormalProfile> = catalogue().iter().map(train_profile).collect();
    let registry = DetectorRegistry::with_sam(SamConfig::calibrated());
    let procedure = ProcedureConfig::default();
    let mut r = Replay::default();
    let deadline = Instant::now() + Duration::from_secs_f64(budget * 0.2);
    for i in 0..2000u64 {
        if i >= 50 && Instant::now() > deadline {
            break;
        }
        let class = &classes[class_of(i)];
        let mut line = format!("{{\"id\":{i}").into_bytes();
        line.extend_from_slice(&class.body);
        r.request_bytes.push(line.len() as f64);
        let frame = line.trim_ascii_end();

        let t = Instant::now();
        let request = match decode_line(frame) {
            Ok(WireLine::Request(req)) => req.into_request().expect("benchmark requests are valid"),
            _ => unreachable!("benchmark request lines decode as requests"),
        };
        r.decode_us.push(us(t.elapsed()));

        let profile = &profiles[deployment_of(class.entry)];
        let input = DetectorInput::new(&request.routes, profile);
        let mut outcome = None;
        for (name, samples) in [("sam", &mut r.sam_us), ("ensemble", &mut r.ensemble_us)] {
            let judge = registry.get(name).expect("registry detector");
            let t = Instant::now();
            let o = run_procedure(
                judge.as_ref(),
                &input,
                &procedure,
                &mut transport_for(request.probe_ack_ratio),
            );
            samples.push(us(t.elapsed()));
            if name == echo(class.detector) {
                outcome = Some(o);
            }
        }
        let outcome = outcome.expect("the class's detector ran");
        let t = Instant::now();
        let explanation = Explanation::from_verdict(&request.routes, outcome.verdict());
        r.explain_us.push(us(t.elapsed()));

        let response = DetectionResponse {
            id: i,
            detector: echo(class.detector).to_string(),
            score: outcome.verdict().score,
            verdict: Verdict::from_detector_outcome(&outcome),
            profile_cache_hit: true,
            timing: StageTiming::default(),
            explanation: Some(explanation),
        };
        let t = Instant::now();
        let encoded = WireResponse::ok(response).encode();
        r.encode_us.push(us(t.elapsed()));
        std::hint::black_box(encoded);
    }
    r
}
