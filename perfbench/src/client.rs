//! The HTTP load client: keep-alive connections, closed loops (each
//! connection waits for its reply) and a paced open loop (requests go
//! out on a fixed schedule whatever the replies do, pipelined on
//! non-blocking sockets). Latency samples are exact nanosecond timings;
//! open-loop latency runs from each request's due time, so a stall
//! charges every request it delays.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::oracle;

/// One request on the wire, with the index the caller uses to find its
/// expected response.
#[derive(Debug, Clone)]
pub struct Req {
    pub bytes: Vec<u8>,
    pub key: usize,
}

/// Encodes a request. The `X-Request-Id` makes the server's echo header
/// predictable, so whole responses can be compared byte for byte.
pub fn encode(method: &str, target: &str, body: &str, request_id: &str) -> Vec<u8> {
    let mut out =
        format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n");
    if !body.is_empty() {
        out.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// A keep-alive connection with a framing buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Takes the first complete response out of the buffer, if any.
    fn take_response(&mut self) -> Result<Option<Vec<u8>>, String> {
        Ok(oracle::response_len(&self.buf)?.map(|n| self.buf.drain(..n).collect()))
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &[u8]) -> Result<Vec<u8>, String> {
        self.stream
            .write_all(req)
            .map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = self.take_response()? {
                return Ok(resp);
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// What a phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-request latency, µs (successful requests only).
    pub lat_us: Vec<f64>,
    /// Wall time of each complete script of consecutive requests, µs.
    pub script_us: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    /// Answered with a status other than 200.
    pub non_200: u64,
    /// Answered with the wrong bytes.
    pub mismatches: u64,
    /// Never answered (connection error, or still outstanding at the
    /// end of the drain window).
    pub transport_errors: u64,
    pub elapsed_s: f64,
    /// Open loop only: each latency sample's due time, seconds from the
    /// phase start (parallel to `lat_us`).
    pub due_s: Vec<f64>,
    /// Open loop only: how late each request was sent, µs.
    pub send_lag_us: Vec<f64>,
    /// Open loop only: requests sent but unanswered at the last due time.
    pub backlog_at_end: u64,
    /// Responses kept for checking after the phase (`keep`), by key.
    pub kept: Vec<(usize, Vec<u8>)>,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.non_200 + self.mismatches + self.transport_errors
    }

    pub fn absorb(&mut self, other: Phase) {
        self.lat_us.extend(other.lat_us);
        self.script_us.extend(other.script_us);
        self.sent += other.sent;
        self.ok += other.ok;
        self.non_200 += other.non_200;
        self.mismatches += other.mismatches;
        self.transport_errors += other.transport_errors;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.due_s.extend(other.due_s);
        self.send_lag_us.extend(other.send_lag_us);
        self.backlog_at_end += other.backlog_at_end;
        self.kept.extend(other.kept);
    }

    /// Completed requests per second.
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(1e-9)
    }
}

/// How a response is judged during a phase.
pub trait Verdict: Sync {
    /// `Ok` when the response to request `key` is right. Checkers that
    /// cannot decide in the timed window return `Ok` and ask for the
    /// bytes to be kept instead.
    fn check(&self, key: usize, response: &[u8]) -> Result<(), String>;
    fn keep(&self) -> bool {
        false
    }
}

/// Failures printed per phase; the rest are only counted.
const REPORTED: u64 = 3;

fn judge(phase: &mut Phase, verdict: &dyn Verdict, key: usize, resp: Vec<u8>, lat_us: f64) {
    if oracle::status(&resp) != Some(200) {
        phase.non_200 += 1;
        if phase.non_200 <= REPORTED {
            eprintln!(
                "non-200 answer: {:?}",
                String::from_utf8_lossy(&resp[..resp.len().min(200)])
            );
        }
        return;
    }
    if let Err(e) = verdict.check(key, &resp) {
        phase.mismatches += 1;
        if phase.mismatches <= REPORTED {
            eprintln!("mismatch on request key {key}: {e}");
        }
        return;
    }
    phase.ok += 1;
    phase.lat_us.push(lat_us);
    if verdict.keep() {
        phase.kept.push((key, resp));
    }
}

/// Closed loop: `conns` connections, each on its own thread, send the
/// requests `next(conn, i)` one at a time until `duration` has passed
/// (or `max_requests` per connection). Consecutive groups of
/// `script_len` requests on one connection are timed as scripts.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    max_requests: usize,
    script_len: usize,
    next: &(dyn Fn(usize, usize) -> Req + Sync),
    verdict: &dyn Verdict,
) -> Result<Phase, String> {
    let merged = Mutex::new(Phase::default());
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for c in 0..conns {
            let merged = &merged;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut conn = Conn::open(addr)?;
                let mut phase = Phase::default();
                let mut script_start = Instant::now();
                let mut i = 0;
                while i < max_requests && start.elapsed() < duration {
                    let req = next(c, i);
                    let t = Instant::now();
                    phase.sent += 1;
                    match conn.call(&req.bytes) {
                        Ok(resp) => {
                            let lat = t.elapsed().as_secs_f64() * 1e6;
                            judge(&mut phase, verdict, req.key, resp, lat);
                        }
                        Err(e) => {
                            eprintln!("transport error: {e}");
                            phase.transport_errors += 1;
                            conn = Conn::open(addr)?;
                        }
                    }
                    i += 1;
                    if i % script_len == 0 {
                        phase
                            .script_us
                            .push(script_start.elapsed().as_secs_f64() * 1e6);
                        script_start = Instant::now();
                    }
                }
                phase.elapsed_s = start.elapsed().as_secs_f64();
                merged.lock().expect("phase lock").absorb(phase);
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| "client thread panicked".to_string())??;
        }
        Ok(())
    })?;
    Ok(merged.into_inner().expect("phase lock"))
}

/// How long an open-loop phase waits for outstanding replies after its
/// last due time before counting them as lost.
const DRAIN: Duration = Duration::from_secs(2);

/// Paced open loop at `rate` requests/s for `duration`: request `i` is
/// due at `i / rate` and goes out on connection `i % conns`. One thread
/// drives every connection through non-blocking sockets, so the load
/// generator takes at most one CPU from the server it measures. Latency
/// samples and `elapsed_s` run from the first due time.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    duration: Duration,
    next: &(dyn Fn(usize, usize) -> Req + Sync),
    verdict: &dyn Verdict,
) -> Result<Phase, String> {
    let count = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    let mut lanes = Vec::new();
    for _ in 0..conns {
        let conn = Conn::open(addr)?;
        conn.stream
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        lanes.push(Lane {
            conn,
            out: Vec::with_capacity(64 * 1024),
            written: 0,
            in_flight: std::collections::VecDeque::new(),
        });
    }
    crate::procs::tighten_timer_slack();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let last_due = due(count - 1);
    let mut phase = Phase::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut sent = 0usize;
    let mut backlog_noted = false;
    loop {
        let now = Instant::now();
        // Queue everything that is due.
        while sent < count && due(sent) <= now {
            let c = sent % conns;
            let req = next(c, sent / conns);
            phase
                .send_lag_us
                .push(now.duration_since(due(sent)).as_secs_f64() * 1e6);
            lanes[c].out.extend_from_slice(&req.bytes);
            lanes[c].in_flight.push_back((req.key, due(sent)));
            sent += 1;
            phase.sent += 1;
        }
        if !backlog_noted && sent == count {
            phase.backlog_at_end = lanes.iter().map(|l| l.in_flight.len() as u64).sum();
            backlog_noted = true;
        }
        let mut progressed = false;
        for lane in &mut lanes {
            progressed |= lane.pump(&mut chunk, &mut phase, verdict, start)?;
        }
        let outstanding: usize = lanes.iter().map(|l| l.in_flight.len()).sum();
        if sent == count && outstanding == 0 {
            break;
        }
        if sent == count && Instant::now() > last_due + DRAIN {
            phase.transport_errors += outstanding as u64;
            break;
        }
        if !progressed {
            let until = if sent < count {
                due(sent).saturating_duration_since(Instant::now())
            } else {
                Duration::from_micros(20)
            };
            if !until.is_zero() {
                std::thread::sleep(until.min(Duration::from_micros(20)));
            }
        }
    }
    Ok(phase)
}

/// One open-loop connection: its unsent bytes and its requests in
/// flight (answered in order, as HTTP/1.1 pipelining requires).
struct Lane {
    conn: Conn,
    out: Vec<u8>,
    written: usize,
    in_flight: std::collections::VecDeque<(usize, Instant)>,
}

impl Lane {
    /// Writes what it can, reads what has arrived, and judges every
    /// complete response. Returns whether any byte moved.
    fn pump(
        &mut self,
        chunk: &mut [u8],
        phase: &mut Phase,
        verdict: &dyn Verdict,
        start: Instant,
    ) -> Result<bool, String> {
        let mut progressed = false;
        if self.written < self.out.len() {
            match self.conn.stream.write(&self.out[self.written..]) {
                Ok(n) => {
                    self.written += n;
                    progressed = n > 0;
                    if self.written == self.out.len() {
                        self.out.clear();
                        self.written = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("open-loop write: {e}")),
            }
        }
        match self.conn.stream.read(chunk) {
            Ok(0) => return Err("server closed an open-loop connection".into()),
            Ok(n) => {
                progressed = true;
                self.conn.buf.extend_from_slice(&chunk[..n]);
                let at = Instant::now();
                while let Some(resp) = self.conn.take_response()? {
                    let (key, due_at) = self
                        .in_flight
                        .pop_front()
                        .ok_or("response with no request in flight")?;
                    let lat = at.duration_since(due_at).as_secs_f64() * 1e6;
                    let ok = phase.ok;
                    judge(phase, verdict, key, resp, lat);
                    if phase.ok > ok {
                        phase.due_s.push(due_at.duration_since(start).as_secs_f64());
                    }
                    phase.elapsed_s = at.duration_since(start).as_secs_f64();
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(format!("open-loop read: {e}")),
        }
        Ok(progressed)
    }
}
