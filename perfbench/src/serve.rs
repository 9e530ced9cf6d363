//! The serve-mix load client.
//!
//! Two keep-alive connections, one thread each, replay an open-loop
//! schedule against a running `dq serve`: nine one-row `/record`
//! requests to one 256-row `/batch` request. Request `k` rides
//! connection `k % 2`. Latency is timed from when a request was *due*,
//! so a request that waits behind a slow response is charged the wait.
//! Both sockets set `TCP_NODELAY` and send each request in a single
//! write, so any delay measured is the server's.
//!
//! Phase A runs a seeded Poisson schedule (independent users) at a
//! fixed mean rate for the latency metrics. The capacity ladder then
//! paces evenly spaced requests at doubling rates and stops at the
//! first rate that misses the latency limit.

use crate::batch::median;
use crate::Json;
use dq_core::AuditEngine;
use dq_serve::client;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rows in each `/batch` request.
const BATCH_ROWS: usize = 256;
/// Every tenth request is a `/batch`.
const BATCH_EVERY: usize = 10;
/// The percentiles a tail is reported at; the highest with at least
/// ten samples beyond it is used.
const PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
/// The batch size `dq serve` scans request bodies in by default.
const SERVE_CHUNK_ROWS: usize = 4096;
/// Mean request rate of the latency phase, requests per second.
const RATE: f64 = 20.0;
/// The capacity ladder's first rate, doubled at each rung.
const LADDER_START: f64 = 10.0;
/// Evenly spaced requests per ladder rung.
const RUNG_REQUESTS: usize = 40;
/// A rung fails when its tail latency exceeds this.
const LIMIT_MS: f64 = 100.0;

/// SplitMix64: a stateless, seedable stream for schedules and samples.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// One scheduled request.
#[derive(Clone)]
struct Planned {
    /// Seconds after the phase start at which the request is due.
    due: f64,
    batch: bool,
    /// The CSV body (one record, or `BATCH_ROWS` records).
    body: String,
    /// Whether the response is kept and checked against the engine.
    sampled: bool,
}

/// What happened to one request, times in seconds after phase start.
struct Done {
    due: f64,
    sent: f64,
    first_byte: f64,
    done: f64,
    status: u16,
    rows: usize,
    /// Requests due on this connection but not yet sent when this one
    /// was sent.
    backlog: usize,
    body: Option<Vec<u8>>,
}

/// The request bodies: records from the pool, chosen by the seed.
struct Bodies {
    lines: Vec<String>,
}

impl Bodies {
    fn load(path: &Path) -> Result<Bodies, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.len() < BATCH_ROWS {
            return Err(format!("{}: fewer than {BATCH_ROWS} records", path.display()));
        }
        Ok(Bodies { lines })
    }

    /// The body of request `k` of a phase drawn with `key`.
    fn body(&self, key: u64, k: usize, batch: bool) -> String {
        let r = splitmix(key ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        if batch {
            let start = (r % (self.lines.len() - BATCH_ROWS + 1) as u64) as usize;
            let mut body = self.lines[start..start + BATCH_ROWS].join("\n");
            body.push('\n');
            body
        } else {
            self.lines[(r % self.lines.len() as u64) as usize].clone()
        }
    }
}

/// `n` requests due at the given offsets, with bodies and samples drawn
/// from `key`.
fn plan(bodies: &Bodies, key: u64, dues: Vec<f64>, sample_one_in: u64) -> Vec<Planned> {
    dues.into_iter()
        .enumerate()
        .map(|(k, due)| {
            let batch = k % BATCH_EVERY == BATCH_EVERY - 1;
            let sampled = splitmix(key ^ 0x5A5A ^ k as u64).is_multiple_of(sample_one_in);
            Planned { due, batch, body: bodies.body(key, k, batch), sampled }
        })
        .collect()
}

/// A seeded Poisson schedule of `n` requests whose gaps are scaled to
/// span exactly `seconds`, so every seed offers the same mean rate.
fn poisson_dues(key: u64, n: usize, seconds: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..n).map(|k| -(1.0 - unit(key ^ (k as u64) << 1)).ln()).collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut due = 0.0;
    gaps.iter()
        .map(|g| {
            let d = due;
            due += g * scale;
            d
        })
        .collect()
}

fn even_dues(n: usize, rate: f64) -> Vec<f64> {
    (0..n).map(|k| k as f64 / rate).collect()
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Send one request in a single write and read its response; returns
/// (status, first-byte instant, body).
fn exchange(stream: &mut TcpStream, wire: &[u8]) -> Result<(u16, Instant, Vec<u8>), String> {
    stream.write_all(wire).map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1 << 16];
    let mut first = None;
    let mut head_end = None;
    let mut need = usize::MAX;
    while buf.len() < need {
        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        first.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if head_end.is_none() {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                head_end = Some(i + 4);
                let head = String::from_utf8_lossy(&buf[..i]).to_ascii_lowercase();
                let length = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .ok_or("response without content-length")?;
                need = i + 4 + length;
            }
        }
    }
    let head_end = head_end.expect("loop ends after the head");
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, first.expect("a byte arrived"), buf[head_end..].to_vec()))
}

/// Sleep until just before `due`, then spin, so that a request leaves
/// on time even when waking a sleeping thread is slow.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Replay `requests` over `conns`, request `k` on connection `k % 2`.
fn run_phase(
    conns: &mut [TcpStream],
    model: &str,
    requests: &[Planned],
) -> Result<Vec<Done>, String> {
    let n_conns = conns.len();
    let start = Instant::now();
    let per_conn: Vec<Result<Vec<Done>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mine: Vec<&Planned> = requests.iter().skip(c).step_by(n_conns).collect();
                    let mut out = Vec::with_capacity(mine.len());
                    for (i, req) in mine.iter().enumerate() {
                        let path = if req.batch { "batch" } else { "record" };
                        let mut wire = format!(
                            "POST /audit/{model}/{path} HTTP/1.1\r\nHost: dq-serve\r\n\
                             Content-Length: {}\r\n\r\n",
                            req.body.len()
                        )
                        .into_bytes();
                        wire.extend_from_slice(req.body.as_bytes());
                        wait_until(start + Duration::from_secs_f64(req.due));
                        let sent_at = start.elapsed().as_secs_f64();
                        let backlog = mine[i + 1..].iter().take_while(|r| r.due <= sent_at).count();
                        let (status, first, body) = exchange(stream, &wire)?;
                        let done = start.elapsed().as_secs_f64();
                        out.push(Done {
                            due: req.due,
                            sent: sent_at,
                            first_byte: (first - start).as_secs_f64(),
                            done,
                            status,
                            rows: if req.batch { BATCH_ROWS } else { 1 },
                            backlog,
                            body: req.sampled.then_some(body),
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    // Interleave back into schedule order.
    let mut lists = Vec::new();
    for list in per_conn {
        lists.push(list?.into_iter());
    }
    let mut out = Vec::with_capacity(requests.len());
    for k in 0..requests.len() {
        out.push(lists[k % n_conns].next().expect("one result per request"));
    }
    Ok(out)
}

/// Nearest-rank percentile of sorted `v`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest reported percentile with at least ten samples beyond
/// it, or `None` when there are too few samples for any.
fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().rev().copied().find(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Rejected by the server: queue-full or draining 503, 408, any 5xx.
fn rejected(status: u16) -> bool {
    status == 408 || status >= 500
}

/// Settings of one load run.
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub dir: &'a Path,
    pub seed: u64,
    /// Length of the latency phase.
    pub seconds: f64,
    /// The ladder stops after this rate.
    pub ladder_max: f64,
    pub trace: bool,
    /// Corrupt the first sampled response before it is checked (the
    /// benchmark's test of its own check).
    pub tamper: bool,
}

/// Expected response body for a request: the engine's report on the
/// same rows, audited as a CSV stream with the schema header.
fn expected(engine: &AuditEngine, header: &str, body: &str) -> Result<Vec<u8>, String> {
    let csv = format!("{header}\n{}\n", body.trim_end_matches('\n'));
    let report = engine.detect_csv(csv.as_bytes(), SERVE_CHUNK_ROWS).map_err(|e| e.to_string())?;
    Ok(report.to_csv(engine.schema()).into_bytes())
}

/// Run the warm-up, phase A (twice when tracing: untraced, then
/// traced), the capacity ladder (untraced runs only), and the checks.
pub fn run(load: &Load) -> Result<Json, String> {
    let model = "quis";
    let bodies = Bodies::load(&load.dir.join("bodies.csv"))?;
    let models = load.dir.join("models");
    let schema = dq_table::read_schema(std::io::BufReader::new(
        std::fs::File::open(models.join("quis.dqs")).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    let engine =
        AuditEngine::load_from_path(schema, models.join("quis.dqm")).map_err(|e| e.to_string())?;
    let header: String =
        engine.schema().attributes().iter().map(|a| a.name.as_str()).collect::<Vec<_>>().join(",");

    let mut conns = vec![connect(load.addr)?, connect(load.addr)?];
    let key = splitmix(load.seed);
    let mut all: Vec<(Planned, Done)> = Vec::new();
    let mut keep = |reqs: Vec<Planned>, done: Vec<Done>| {
        all.extend(reqs.into_iter().zip(done));
    };

    // Warm-up: connections, server threads and caches.
    let warm = plan(&bodies, key ^ 1, even_dues(20, 20.0), 4);
    let done = run_phase(&mut conns, model, &warm)?;
    keep(warm, done);

    let n = (RATE * load.seconds).round().max(1.0) as usize;
    let phase_a = plan(&bodies, key ^ 2, poisson_dues(key ^ 3, n, load.seconds), 8);
    let untraced = run_phase(&mut conns, model, &phase_a)?;
    let untraced_p50 = median(&mut untraced.iter().map(|d| d.done - d.due).collect::<Vec<_>>());
    let phase = if load.trace {
        std::thread::sleep(Duration::from_millis(200));
        keep(phase_a.clone(), untraced);
        run_phase(&mut conns, model, &phase_a)?
    } else {
        untraced
    };

    let mut out = Json::default();
    let lat = sorted(phase.iter().map(|d| (d.done - d.due) * 1e3).collect());
    let p50 = percentile(&lat, 50.0);
    let tail_p = tail_percentile(lat.len()).unwrap_or(100.0);
    out.num("n", lat.len() as f64);
    out.num("p50_ms", p50);
    out.num("tail_pct", tail_p);
    out.num("tail_ms", percentile(&lat, tail_p));
    let span = phase.iter().map(|d| d.done).fold(0.0, f64::max);
    out.num("rows_per_s", phase.iter().map(|d| d.rows).sum::<usize>() as f64 / span);
    let ttfb = sorted(phase.iter().map(|d| (d.first_byte - d.sent) * 1e3).collect());
    let transfer = sorted(phase.iter().map(|d| (d.done - d.first_byte) * 1e3).collect());
    let lag = sorted(phase.iter().map(|d| (d.sent - d.due).max(0.0) * 1e3).collect());
    out.num("ttfb_ms", percentile(&ttfb, 50.0));
    out.num("ttfb_tail_ms", percentile(&ttfb, tail_p));
    out.num("transfer_ms", percentile(&transfer, 50.0));
    out.num("transfer_tail_ms", percentile(&transfer, tail_p));
    out.num("gen_lag_ms", percentile(&lag, tail_p));
    out.num("backlog_max", phase.iter().map(|d| d.backlog).max().unwrap_or(0) as f64);
    // The share of request latency spent between send and the end of
    // the response, the rest being client schedule lag.
    let on_wire: f64 = phase.iter().map(|d| d.done - d.sent).sum();
    out.num("wire_share", on_wire / phase.iter().map(|d| d.done - d.due).sum::<f64>());
    out.num("untraced_s", untraced_p50);
    out.num("traced_s", p50 / 1e3);
    keep(phase_a, phase);

    if load.trace {
        // The engine's share of each request: the handler's audit and
        // report rendering on the same bodies, in process.
        let (mut record_us, mut batch_us) = (Vec::new(), Vec::new());
        for (req, _) in &all {
            let t0 = Instant::now();
            let body = if req.batch {
                let csv = format!("{header}\n{}", req.body);
                engine.detect_csv(csv.as_bytes(), SERVE_CHUNK_ROWS)
            } else {
                engine.detect_record_csv(&req.body)
            };
            let csv = body.map_err(|e| e.to_string())?.to_csv(engine.schema());
            std::hint::black_box(csv);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if req.batch { &mut batch_us } else { &mut record_us }.push(us);
        }
        out.num("record_us", median(&mut record_us));
        out.num("batch_us", median(&mut batch_us));
    } else {
        // Capacity ladder: evenly paced rungs at doubling rates.
        std::thread::sleep(Duration::from_millis(200));
        let mut max_rps = 0.0;
        let mut rungs = Vec::new();
        let mut rate = LADDER_START;
        let mut rung = 0u64;
        while rate <= load.ladder_max {
            rung += 1;
            let reqs = plan(&bodies, key ^ (16 + rung), even_dues(RUNG_REQUESTS, rate), 8);
            let done = run_phase(&mut conns, model, &reqs)?;
            let lat = sorted(done.iter().map(|d| (d.done - d.due) * 1e3).collect());
            let tail = percentile(&lat, tail_percentile(lat.len()).unwrap_or(100.0));
            let ok = done.iter().all(|d| d.status == 200);
            let last_backlog = done.iter().rev().take(2).map(|d| d.backlog).max().unwrap_or(0);
            let first_due = done.iter().map(|d| d.due).fold(f64::INFINITY, f64::min);
            let last_done = done.iter().map(|d| d.done).fold(0.0, f64::max);
            let achieved = done.len() as f64 / (last_done - first_due);
            let pass = ok && tail <= LIMIT_MS && last_backlog <= 1;
            rungs.push(format!(
                "{rate}:{}:{tail:.2}ms:{achieved:.2}",
                if pass { "pass" } else { "fail" }
            ));
            keep(reqs, done);
            if !pass {
                break;
            }
            max_rps = achieved;
            rate *= 2.0;
            std::thread::sleep(Duration::from_millis(200));
        }
        out.num("max_rps", max_rps);
        out.str("ladder", &rungs.join(" "));
    }

    // Checks: statuses, sampled bodies against the engine, and the
    // server's own request and record counts.
    let mut failed = 0usize;
    let mut checked = 0usize;
    let mut mismatched = 0usize;
    let mut n_rejected = 0usize;
    let mut tamper = load.tamper;
    for (req, done) in &mut all {
        if rejected(done.status) {
            n_rejected += 1;
        }
        let mut bad = done.status != 200;
        if let Some(body) = &mut done.body {
            if tamper && !body.is_empty() {
                body[0] ^= 1;
                tamper = false;
            }
            if !bad {
                checked += 1;
                if *body != expected(&engine, &header, &req.body)? {
                    mismatched += 1;
                    bad = true;
                }
            }
        }
        failed += usize::from(bad);
    }
    let stats = client::get(load.addr, "/stats").map_err(|e| format!("GET /stats: {e}"))?;
    let sent_rows: usize = all.iter().map(|(_, d)| d.rows).sum();
    let row = stats.body_str().lines().find(|l| l.starts_with("quis,")).unwrap_or("").to_string();
    let cols: Vec<&str> = row.split(',').collect();
    let stats_ok = cols.len() >= 4
        && cols[2].parse::<usize>().ok() == Some(all.len())
        && cols[3].parse::<usize>().ok() == Some(sent_rows);
    out.num("attempted", (all.len() + 1) as f64);
    out.num("failed", (failed + usize::from(!stats_ok)) as f64);
    out.num("rejected", n_rejected as f64);
    out.num("checked", checked as f64);
    out.num("mismatched", mismatched as f64);
    out.str("stats", &row);
    Ok(out)
}

/// Poll `GET /health` until the server answers 200 or `timeout` passes.
pub fn wait_healthy(addr: SocketAddr, timeout: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        match client::get(addr, "/health") {
            Ok(resp) if resp.status == 200 => return Ok(()),
            _ if start.elapsed() > timeout => {
                return Err(format!("{addr} not healthy after {timeout:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(10), None);
    }

    #[test]
    fn poisson_schedule_spans_the_phase() {
        let dues = poisson_dues(7, 200, 10.0);
        assert_eq!(dues[0], 0.0);
        assert!(dues.windows(2).all(|w| w[0] <= w[1]));
        assert!(*dues.last().unwrap() < 10.0 && *dues.last().unwrap() > 9.0);
    }
}
