//! `api-hot` and `api-cold`: a real `thirstyflops serve --workers 2`
//! process driven over keep-alive HTTP from this process with at most
//! `nproc` connections and threads.
//!
//! * `api-hot` draws every request from a small seeded set warmed during
//!   set-up, so each timed request is a body-cache hit: the time goes to
//!   HTTP parsing, routing, the cache lookup and the write. Independent
//!   users make an open loop, measured at two fixed rates and on a
//!   fixed ladder of rates; closed-loop phases give the scripts and the
//!   unpaced capacity.
//! * `api-cold` gives every request a seed never used before in the run,
//!   so each one misses the body cache and the system-year cache (the
//!   grid and WUE sub-caches are warmed in set-up and hit). Scripts wait
//!   for each reply, so the loop is closed, at one and two connections.
//!   Expected bodies are computed here only after the server has
//!   stopped, so they cannot warm its caches or share its CPU.
//!
//! Every response must equal `serve::handlers::handle` computed in this
//! process, byte for byte (`/healthz`, whose body carries live counters,
//! is checked by status and shape).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use thirstyflops_serve::handlers::{handle, AppState};
use thirstyflops_serve::http;

use crate::client::{self, Phase, Req, Verdict};
use crate::oracle::{self, Expect};
use crate::{dur, procs, secs, stats, Args, Report, Rng, SETUPS};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client connections (and threads) for the two-connection phases: two,
/// or fewer where the machine has fewer CPUs, so the load never takes
/// more threads than there are CPUs.
pub fn conns() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}
/// Requests per client script: every template once, in mix order, so
/// every script does the same work.
pub const SCRIPT_LEN: usize = TEMPLATES.len();

/// Open-loop rates for `api-hot`, requests/s: `lo` is about 25% of the
/// server's closed-loop capacity as the loadgen `bench` mix measured it
/// (~84k req/s on 2 CPUs), `hi` twice that. A `hi` of 75% (63k) sat
/// within queueing range of the slowest capacity this benchmark measured
/// on a shared machine (61k–96k across runs), and its tail then varied by
/// a quarter from run to run; the ladder covers the rates above.
pub const RATE_LO: f64 = 21_000.0;
pub const RATE_HI: f64 = 42_000.0;
/// The rate ladder `max_rate_rps` climbs (binary search, assuming a rate
/// that fails makes every higher rate fail). Steps are ~7% apart.
pub const LADDER: [f64; 18] = [
    40_000.0, 43_000.0, 46_000.0, 49_000.0, 52_000.0, 56_000.0, 60_000.0, 64_000.0, 68_000.0,
    73_000.0, 78_000.0, 83_000.0, 89_000.0, 95_000.0, 102_000.0, 109_000.0, 117_000.0, 125_000.0,
];
/// The latency limit a ladder step's (windowed) tail must meet, µs.
pub const TAIL_LIMIT_US: f64 = 250.0;
/// An open-loop phase is invalid when the generator sent its 90th
/// percentile request later than this after its due time, µs: it could
/// not keep the schedule, so the rate it measured is not the rate asked
/// for. (Shorter stalls are charged to the latency of every request
/// they delay.)
pub const LAG_LIMIT_US: f64 = 1_000.0;
/// Tries per open-loop phase before an invalid phase fails the run.
const TRIES: usize = 3;
/// Interleaved measurement rounds per `api-hot` run.
const ROUNDS: usize = 8;
/// Hot seeds warmed in set-up.
const HOT_SEEDS: usize = 4;

/// One endpoint template: method, metrics label, weight, and the
/// request it makes for a seed.
struct Template {
    endpoint: &'static str,
    weight: u64,
    seeded: bool,
    make: fn(u64) -> (&'static str, String, String),
}

/// The loadgen `bench` mix: footprint, compare, rank, scenario, systems,
/// healthz and a POSTed scenario run.
const TEMPLATES: [Template; 9] = [
    Template {
        endpoint: "footprint",
        weight: 6,
        seeded: true,
        make: |s| {
            (
                "GET",
                format!("/v1/footprint/polaris?seed={s}"),
                String::new(),
            )
        },
    },
    Template {
        endpoint: "footprint",
        weight: 3,
        seeded: true,
        make: |s| {
            (
                "GET",
                format!("/v1/footprint/frontier?seed={s}"),
                String::new(),
            )
        },
    },
    Template {
        endpoint: "footprint",
        weight: 2,
        seeded: true,
        make: |s| {
            (
                "GET",
                format!("/v1/footprint/marconi?seed={s}"),
                String::new(),
            )
        },
    },
    Template {
        endpoint: "compare",
        weight: 3,
        seeded: true,
        make: |s| {
            (
                "GET",
                format!("/v1/compare?a=polaris&b=frontier&seed={s}"),
                String::new(),
            )
        },
    },
    Template {
        endpoint: "rank",
        weight: 2,
        seeded: true,
        make: |s| ("GET", format!("/v1/rank?seed={s}"), String::new()),
    },
    Template {
        endpoint: "scenario",
        weight: 2,
        seeded: true,
        make: |s| {
            (
                "GET",
                format!("/v1/scenario/polaris?seed={s}"),
                String::new(),
            )
        },
    },
    Template {
        endpoint: "systems",
        weight: 1,
        seeded: false,
        make: |_| ("GET", "/v1/systems".to_string(), String::new()),
    },
    Template {
        endpoint: "healthz",
        weight: 1,
        seeded: false,
        make: |_| ("GET", "/healthz".to_string(), String::new()),
    },
    Template {
        endpoint: "scenarios_run",
        weight: 1,
        seeded: true,
        make: |s| {
            (
                "POST",
                "/v1/scenarios/run".to_string(),
                format!("{{\"name\":\"drier-siting\",\"base\":\"polaris\",\"seed\":{s},\"overrides\":{{\"climate\":{{\"wue_scale\":1.2}}}}}}"),
            )
        },
    },
];

/// The distinct endpoint labels, mix order.
pub fn endpoints() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = TEMPLATES.iter().map(|t| t.endpoint).collect();
    out.dedup();
    out
}

fn draw_template(rng: &mut Rng) -> usize {
    let total: u64 = TEMPLATES.iter().map(|t| t.weight).sum();
    let mut pick = rng.below(total);
    for (i, t) in TEMPLATES.iter().enumerate() {
        if pick < t.weight {
            return i;
        }
        pick -= t.weight;
    }
    unreachable!("pick < total weight")
}

/// A request the benchmark can also answer in-process.
#[derive(Debug, Clone)]
pub struct Call {
    pub template: usize,
    pub bytes: Vec<u8>,
}

impl Call {
    fn new(template: usize, seed: u64, request_id: &str) -> Call {
        let (method, target, body) = (TEMPLATES[template].make)(seed);
        Call {
            template,
            bytes: client::encode(method, &target, &body, request_id),
        }
    }

    pub fn endpoint(&self) -> &'static str {
        TEMPLATES[self.template].endpoint
    }

    /// Parses the request exactly as the server's reader does.
    pub fn parse(&self) -> http::Request {
        http::read_request(&mut self.bytes.as_slice()).expect("benchmark requests parse")
    }

    /// The response the server must send, computed in this process.
    pub fn expect(&self, state: &AppState) -> Expect {
        if self.endpoint() == "healthz" {
            return Expect::Health;
        }
        let req = self.parse();
        let id = req
            .request_id
            .clone()
            .expect("benchmark requests carry an id");
        Expect::Exact(handle(&req, state).with_request_id(id).to_bytes(false))
    }
}

/// The `api-hot` request set: every template at each hot seed (unseeded
/// templates once).
pub fn hot_calls(seed: u64) -> Vec<Call> {
    let mut rng = Rng::new(seed, 3);
    let seeds: Vec<u64> = (0..HOT_SEEDS).map(|_| 1 + rng.below(1_000_000)).collect();
    let mut calls = Vec::new();
    for (t, template) in TEMPLATES.iter().enumerate() {
        let used: &[u64] = if template.seeded { &seeds } else { &seeds[..1] };
        for &s in used {
            let id = format!("hot-{}", calls.len());
            calls.push(Call::new(t, s, &id));
        }
    }
    calls
}

/// A seeded cyclic plan of scripts over the hot set for one connection:
/// request `i` uses template `i % SCRIPT_LEN` at a drawn hot seed.
pub fn hot_script_plan(calls: &[Call], seed: u64, conn: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 200 + conn as u64);
    (0..len)
        .map(|i| {
            let candidates: Vec<usize> = (0..calls.len())
                .filter(|&k| calls[k].template == i % SCRIPT_LEN)
                .collect();
            candidates[rng.below(candidates.len() as u64) as usize]
        })
        .collect()
}

/// A weighted, seeded cyclic plan over the hot set for one connection.
pub fn hot_plan(calls: &[Call], seed: u64, conn: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 100 + conn as u64);
    (0..len)
        .map(|_| {
            let t = draw_template(&mut rng);
            let candidates: Vec<usize> = (0..calls.len())
                .filter(|&i| calls[i].template == t)
                .collect();
            candidates[rng.below(candidates.len() as u64) as usize]
        })
        .collect()
}

/// The `api-cold` request for a key: key `k` is template `k % 16` at a
/// seed unique to `k / 16`, so no seed repeats within a run.
pub fn cold_call(seed: u64, key: usize) -> Call {
    assert!(key % 16 < TEMPLATES.len(), "cold keys come from cold_key");
    let base = 1_000_000_000 + Rng::new(seed, 4).below(1_000_000_000);
    Call::new(key % 16, base + (key / 16) as u64, &format!("cold-{key}"))
}

/// The key of the `n`-th cold request, which uses `template`.
pub fn cold_key(n: usize, template: usize) -> usize {
    n * 16 + template
}

/// A running `thirstyflops serve` process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    // Held open so a late line on stdout never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits until `/readyz` answers 200.
    pub fn start(bin: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &WORKERS.to_string(),
            ])
            .args(["--drain-timeout", "5"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("server stdout: {e}"))?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        let server = Server {
            child,
            stdin,
            _stdout: stdout,
            addr,
        };
        let mut conn = client::Conn::open(addr)?;
        let probe = client::encode("GET", "/readyz", "", "ready");
        let deadline = Instant::now() + Duration::from_secs(30);
        while oracle::status(&conn.call(&probe)?) != Some(200) {
            if Instant::now() > deadline {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(server)
    }

    /// `GET /v1/cache/stats`, parsed.
    pub fn cache_stats(&self) -> Result<serde::Value, String> {
        let mut conn = client::Conn::open(self.addr)?;
        let resp = conn.call(&client::encode("GET", "/v1/cache/stats", "", "stats"))?;
        let body_at = resp
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("stats response without a body")?
            + 4;
        serde_json::from_str(std::str::from_utf8(&resp[body_at..]).map_err(|e| e.to_string())?)
            .map_err(|e| format!("stats JSON: {e}"))
    }

    /// Peak resident set size so far (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        procs::vm_hwm_mb(&status).ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Closes stdin (the server's drain trigger), waits for it to exit,
    /// and returns its peak RSS in MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        drop(self.stdin.take());
        let exit = procs::reap(&mut self.child)?;
        if exit.code != Some(0) {
            return Err(format!("server exited with {:?}", exit.code));
        }
        Ok(exit.max_rss_mb)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server still holding stdin was never stopped: an error
        // path. Kill it rather than leave it running.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Byte-exact checks against precomputed expectations.
pub struct Exact(pub Vec<Expect>);

impl Verdict for Exact {
    fn check(&self, key: usize, response: &[u8]) -> Result<(), String> {
        oracle::check(&self.0[key], response)
    }
}

/// Keeps every response for checking after the timed window.
pub struct Later;

impl Verdict for Later {
    fn check(&self, _key: usize, _response: &[u8]) -> Result<(), String> {
        Ok(())
    }
    fn keep(&self) -> bool {
        true
    }
}

/// Failure counts across a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub sent: u64,
    pub non_200: u64,
    pub mismatches: u64,
    pub transport_errors: u64,
}

impl Failures {
    pub fn add(&mut self, p: &Phase) {
        self.sent += p.sent;
        self.non_200 += p.non_200;
        self.mismatches += p.mismatches;
        self.transport_errors += p.transport_errors;
    }

    pub fn failed(&self) -> u64 {
        self.non_200 + self.mismatches + self.transport_errors
    }
}

/// Median script wall, ms.
fn script_ms(p: &Phase) -> Result<f64, String> {
    if p.script_us.is_empty() {
        return Err("no complete script in the phase".into());
    }
    Ok(stats::median(&p.script_us) / 1e3)
}

/// (p50, tail) of a phase's latencies, µs.
fn p50_tail(p: &Phase) -> Result<(f64, stats::Tail), String> {
    if p.lat_us.is_empty() {
        return Err("no successful request in the phase".into());
    }
    let mut v = p.lat_us.clone();
    stats::sort(&mut v);
    Ok((stats::quantile(&v, 0.5), stats::tail(&v)))
}

/// Why an open-loop phase cannot be used, if it cannot.
pub fn invalid(p: &Phase) -> Option<String> {
    let mut lag = p.send_lag_us.clone();
    stats::sort(&mut lag);
    let lag90 = if lag.is_empty() {
        0.0
    } else {
        stats::quantile(&lag, 0.9)
    };
    if lag90 > LAG_LIMIT_US {
        return Some(format!("generator ran late (p90 send lag {lag90:.0} µs)"));
    }
    if p.backlog_at_end > 16 + p.sent / 100 {
        return Some(format!("backlog grew to {} requests", p.backlog_at_end));
    }
    None
}

/// Latency samples per open-loop window. At this size a window's tail
/// is its p95 (the highest percentile with ten samples beyond it). On a
/// shared 2-CPU machine the median window p95 repeated from run to run
/// about three times more closely than the median window p99.
pub const WINDOW: usize = 200;

/// An open-loop phase summarised over consecutive windows of
/// [`WINDOW`] requests (by due time): the median of the windows' p50s
/// and of their tails. A single stall on a shared machine then moves
/// one window's tail instead of the whole phase's.
pub struct OpenResult {
    pub p50_us: f64,
    pub tail_us: f64,
    pub windows: usize,
    pub lag_p99_us: f64,
    /// Completed requests per second.
    pub achieved: f64,
}

/// Pools the windows of several phases at one rate.
pub fn summarize(phases: &[Phase]) -> Result<OpenResult, String> {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut lag = Vec::new();
    let (mut ok, mut elapsed) = (0, 0.0);
    for p in phases {
        let mut samples: Vec<(f64, f64)> = p
            .due_s
            .iter()
            .copied()
            .zip(p.lat_us.iter().copied())
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        for window in samples
            .chunks(WINDOW)
            .filter(|w| w.len() * 2 >= WINDOW || samples.len() < WINDOW)
        {
            let mut lat: Vec<f64> = window.iter().map(|s| s.1).collect();
            stats::sort(&mut lat);
            p50s.push(stats::quantile(&lat, 0.5));
            tails.push(stats::tail(&lat).value);
        }
        lag.extend_from_slice(&p.send_lag_us);
        ok += p.ok;
        elapsed += p.elapsed_s;
    }
    if p50s.is_empty() {
        return Err("no successful request in the phase".into());
    }
    stats::sort(&mut lag);
    Ok(OpenResult {
        p50_us: stats::median(&p50s),
        tail_us: stats::median(&tails),
        windows: p50s.len(),
        lag_p99_us: if lag.is_empty() {
            0.0
        } else {
            stats::quantile(&lag, 0.99)
        },
        achieved: ok as f64 / elapsed.max(1e-9),
    })
}

/// One open-loop phase at a rate. A phase the generator could not pace
/// (see [`invalid`]) is run again, up to [`TRIES`] times in all; then
/// the run fails.
pub fn open_at(
    addr: SocketAddr,
    rate: f64,
    seconds: f64,
    next: &(dyn Fn(usize, usize) -> Req + Sync),
    verdict: &dyn Verdict,
    fails: &mut Failures,
) -> Result<Phase, String> {
    for _ in 0..TRIES {
        let p = client::open_loop(addr, conns(), rate, dur(seconds), next, verdict)?;
        fails.add(&p);
        match invalid(&p) {
            Some(why) => eprintln!("open loop at {rate} req/s invalid: {why}"),
            None => return Ok(p),
        }
    }
    Err(format!(
        "open loop at {rate} req/s was invalid {TRIES} times"
    ))
}

/// Highest ladder rate whose open-loop step is valid, fails nothing, and
/// keeps its tail within [`TAIL_LIMIT_US`]. Returns (ladder rate,
/// achieved completion rate).
pub fn max_rate(
    addr: SocketAddr,
    step_seconds: f64,
    next: &(dyn Fn(usize, usize) -> Req + Sync),
    verdict: &dyn Verdict,
    fails: &mut Failures,
) -> Result<(f64, f64), String> {
    let mut best = None::<(usize, f64)>;
    let (mut bottom, mut top) = (0, LADDER.len());
    while bottom < top {
        let mid = (bottom + top) / 2;
        let p = client::open_loop(addr, conns(), LADDER[mid], dur(step_seconds), next, verdict)?;
        // A failed request misses the limit. Failures here are not the
        // run's: finding the rate that fails is the ladder's point. Wrong
        // bytes still are.
        fails.mismatches += p.mismatches;
        let valid = invalid(&p).is_none();
        let summary = summarize(std::slice::from_ref(&p))?;
        let ok = valid && p.failed() == 0 && summary.tail_us <= TAIL_LIMIT_US;
        eprintln!(
            "ladder {} req/s: achieved {:.0}, tail {:.0} µs over {} windows, {}",
            LADDER[mid],
            summary.achieved,
            summary.tail_us,
            summary.windows,
            if ok { "pass" } else { "fail" }
        );
        if ok {
            best = Some((mid, summary.achieved));
            bottom = mid + 1;
        } else {
            top = mid;
        }
    }
    let (step, achieved) = best.ok_or("no ladder rate met the latency limit")?;
    Ok((LADDER[step], achieved))
}

fn finish(report: &mut Report, fails: &Failures) {
    report.attempted = fails.sent;
    report.failed = fails.failed();
    if fails.mismatches > 0 {
        report.correct = false;
    }
}

pub fn run_hot(args: &Args) -> Result<Report, String> {
    let bin = procs::build_cli()?;
    let s = args.seconds;
    let calls = hot_calls(args.seed);
    let state = AppState::default();
    let verdict = Exact(calls.iter().map(|c| c.expect(&state)).collect());
    let plans: Vec<Vec<usize>> = (0..conns())
        .map(|c| hot_plan(&calls, args.seed, c, 8192))
        .collect();
    let next = |c: usize, i: usize| {
        let key = plans[c][i % plans[c].len()];
        Req {
            bytes: calls[key].bytes.clone(),
            key,
        }
    };
    let scripts: Vec<Vec<usize>> = (0..conns())
        .map(|c| hot_script_plan(&calls, args.seed, c, SCRIPT_LEN * 512))
        .collect();
    let next_script = |c: usize, i: usize| {
        let key = scripts[c][i % scripts[c].len()];
        Req {
            bytes: calls[key].bytes.clone(),
            key,
        }
    };
    let mut fails = Failures::default();

    // Set-up: server start until ready, then one pass over the hot set.
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            Server::stop(old)?;
        }
        let t = Instant::now();
        let srv = Server::start(&bin)?;
        let warm = |c: usize, i: usize| {
            let key = (c + i * conns()).min(calls.len() - 1);
            Req {
                bytes: calls[key].bytes.clone(),
                key,
            }
        };
        let per_conn = calls.len().div_ceil(conns());
        let p = client::closed_loop(
            srv.addr,
            conns(),
            dur(60.0),
            per_conn,
            SCRIPT_LEN,
            &warm,
            &verdict,
        )?;
        fails.add(&p);
        setup_times.push(secs(t));
        server = Some(srv);
    }
    let server = server.expect("SETUPS ≥ 1");
    let addr = server.addr;

    // Rounds interleave the phases, so a slow stretch of a shared
    // machine lands on every metric rather than on one phase.
    let (mut scripts1, mut closed) = (Phase::default(), Phase::default());
    let mut closed_rates = Vec::new();
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    let round = 0.75 * s / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let p = client::closed_loop(
            addr,
            1,
            dur(0.1 * round),
            usize::MAX,
            SCRIPT_LEN,
            &next_script,
            &verdict,
        )?;
        fails.add(&p);
        scripts1.absorb(p);
        let p = client::closed_loop(
            addr,
            conns(),
            dur(0.4 * round),
            usize::MAX,
            SCRIPT_LEN,
            &next_script,
            &verdict,
        )?;
        fails.add(&p);
        closed_rates.push(p.rate());
        closed.absorb(p);
        lo.push(open_at(
            addr,
            RATE_LO,
            0.15 * round,
            &next,
            &verdict,
            &mut fails,
        )?);
        hi.push(open_at(
            addr,
            RATE_HI,
            0.35 * round,
            &next,
            &verdict,
            &mut fails,
        )?);
    }
    let (lo, hi) = (summarize(&lo)?, summarize(&hi)?);
    // The ladder drives the server past saturation, where queued bytes
    // inflate memory; peak RSS is taken under the measured loads.
    let peak_rss_mb = server.peak_rss_mb()?;
    let (ladder_rate, achieved) = max_rate(addr, 0.05 * s, &next, &verdict, &mut fails)?;
    server.stop()?;

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    finish(&mut report, &fails);
    report.metric("setup_s", stats::median(&setup_times), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("wall_ms", script_ms(&scripts1)?, "ms");
    report.metric("wall_ms_2t", script_ms(&closed)?, "ms");
    report.metric("throughput_rps", stats::median(&closed_rates), "1/s");
    report.metric("lat_p50_us", lo.p50_us, "us");
    report.metric("lat_tail_us", lo.tail_us, "us");
    report.metric("lat_p50_us_hi", hi.p50_us, "us");
    report.metric("lat_tail_us_hi", hi.tail_us, "us");
    report.metric("max_rate_rps", achieved, "1/s");
    eprintln!(
        "api-hot: lo {RATE_LO} req/s over {} windows of {WINDOW} (tail = p95), generator p99 lag {:.1} µs; hi {RATE_HI} req/s over {} windows, lag {:.1} µs; ladder step {ladder_rate} req/s passed; closed loop {:.0} req/s; {} sent, {} failed",
        lo.windows,
        lo.lag_p99_us,
        hi.windows,
        hi.lag_p99_us,
        stats::median(&closed_rates),
        fails.sent,
        fails.failed()
    );
    Ok(report)
}

/// Checks kept cold responses in this process, two threads, after the
/// server has stopped. Returns the number that differ.
pub fn verify_cold(seed: u64, kept: &[(usize, Vec<u8>)]) -> u64 {
    let state = AppState::default();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(conns())
        .build()
        .expect("pool builds");
    let wrong: Vec<bool> = pool.install(|| {
        kept.par_iter()
            .map(|(key, resp)| {
                let want = cold_call(seed, *key).expect(&state);
                oracle::check(&want, resp)
                    .map_err(|e| eprintln!("api-cold: request {key}: {e}"))
                    .is_err()
            })
            .collect()
    });
    wrong.iter().filter(|&&w| w).count() as u64
}

pub fn run_cold(args: &Args) -> Result<Report, String> {
    let bin = procs::build_cli()?;
    let s = args.seconds;
    let counter = AtomicUsize::new(0);
    let next = |_c: usize, i: usize| {
        let key = cold_key(counter.fetch_add(1, Ordering::Relaxed), i % SCRIPT_LEN);
        Req {
            bytes: cold_call(args.seed, key).bytes,
            key,
        }
    };
    let mut fails = Failures::default();

    // Set-up: server start until ready, then one rank request at a seed
    // the timed phases never use, which fills the grid and WUE
    // sub-caches for every system.
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            Server::stop(old)?;
        }
        let t = Instant::now();
        let srv = Server::start(&bin)?;
        let mut conn = client::Conn::open(srv.addr)?;
        let warm = conn.call(&client::encode("GET", "/v1/rank?seed=0", "", "warm"))?;
        if oracle::status(&warm) != Some(200) {
            return Err("warm-up request failed".into());
        }
        setup_times.push(secs(t));
        server = Some(srv);
    }
    let server = server.expect("SETUPS ≥ 1");
    let addr = server.addr;

    let one = client::closed_loop(addr, 1, dur(0.4 * s), usize::MAX, SCRIPT_LEN, &next, &Later)?;
    fails.add(&one);
    let two = client::closed_loop(
        addr,
        conns(),
        dur(0.6 * s),
        usize::MAX,
        SCRIPT_LEN,
        &next,
        &Later,
    )?;
    fails.add(&two);
    let peak_rss_mb = server.stop()?;

    let mut kept: Vec<(usize, Vec<u8>)> = Vec::new();
    kept.extend(one.kept.iter().cloned());
    kept.extend(two.kept.iter().cloned());
    fails.mismatches += verify_cold(args.seed, &kept);

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    finish(&mut report, &fails);
    let (p50, tail) = p50_tail(&one)?;
    let (p50_hi, tail_hi) = p50_tail(&two)?;
    report.metric("setup_s", stats::median(&setup_times), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("wall_ms", script_ms(&one)?, "ms");
    report.metric("wall_ms_2t", script_ms(&two)?, "ms");
    report.metric("throughput_rps", two.rate(), "1/s");
    report.metric("lat_p50_us", p50, "us");
    report.metric("lat_tail_us", tail.value, "us");
    report.metric("lat_p50_us_hi", p50_hi, "us");
    report.metric("lat_tail_us_hi", tail_hi.value, "us");
    report.metric("max_rate_rps", one.rate().max(two.rate()), "1/s");
    eprintln!(
        "api-cold: 1 connection {} requests (tail p{}, {} beyond), 2 connections {} requests (tail p{}, {} beyond); {} verified after the run, {} failed",
        one.ok, tail.percentile, tail.beyond, two.ok, tail_hi.percentile, tail_hi.beyond, kept.len(), fails.failed()
    );
    Ok(report)
}
