//! A minimal std-only HTTP/1.1 serving loop for live telemetry.
//!
//! Production metrics are scraped, not dumped: a Prometheus server polls
//! `GET /metrics`, a trace viewer tails `GET /trace?since=<cursor>`. This
//! module provides exactly the plumbing that takes — a request-line parser,
//! a response writer, a blocking accept loop, and a matching client —
//! [`http_get_detailed`] is the one request path, [`http_get`] and
//! [`http_get_retry`] wrap it — for self-checks and loopback tests — with no
//! third-party dependencies (the workspace is offline by policy).
//!
//! Scope is deliberately narrow: `GET` only, one request per connection
//! (`Connection: close`), no TLS, no chunked encoding. A scrape endpoint
//! needs nothing more, and everything beyond it would be untestable weight.
//! The *content* served stays deterministic (it comes from the registry and
//! recorder exporters); only socket timing is wall-clock, which is why the
//! DESIGN.md §8 contract confines wall time to `/healthz` uptime.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// How long a single request may take to arrive or drain before the
/// connection is abandoned (defends the serve loop against a stalled
/// peer; generous compared to any loopback scrape). Also the client's
/// default per-attempt deadline.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request line (the only part of a scrape request that
/// carries information; headers are read and discarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method verb, uppercased as received (`GET`, `HEAD`, …).
    pub method: String,
    /// The path component, without the query string (`/trace`).
    pub path: String,
    /// Query parameters in request order, undecoded (`since=42`).
    pub query: Vec<(String, String)>,
}

impl HttpRequest {
    /// Parses a request line (`GET /trace?since=5 HTTP/1.1`). Returns
    /// `None` for anything that is not `<method> <target> HTTP/1.x`.
    pub fn parse(line: &str) -> Option<HttpRequest> {
        let mut parts = line.trim_end().split(' ');
        let method = parts.next()?.to_owned();
        let target = parts.next()?;
        let version = parts.next()?;
        if method.is_empty() || !target.starts_with('/') || !version.starts_with("HTTP/1.") {
            return None;
        }
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_owned(), v.to_owned()),
                None => (kv.to_owned(), String::new()),
            })
            .collect();
        Some(HttpRequest { method, path: path.to_owned(), query })
    }

    /// The first query parameter named `key`, raw (undecoded).
    pub fn query_str(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Strict cursor parsing for `?since=`-style parameters: distinguishes
    /// an absent parameter (callers default to 0) from a present-but-
    /// malformed one (callers answer `400` instead of silently restarting
    /// the stream from the beginning).
    pub fn cursor(&self, key: &str) -> Cursor {
        match self.query_str(key) {
            None => Cursor::Absent,
            Some(v) => match v.parse() {
                Ok(n) => Cursor::At(n),
                Err(_) => Cursor::Malformed,
            },
        }
    }
}

/// A strictly parsed cursor parameter; see [`HttpRequest::cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cursor {
    /// The parameter was not present: stream from the start.
    Absent,
    /// A well-formed cursor value.
    At(u64),
    /// Present but not a `u64`: the request is malformed (`400`).
    Malformed,
}

/// Decodes `%XX` percent-escapes (and `+` as space) in a query-string
/// value. Returns `None` on truncated or non-hex escapes or invalid UTF-8 —
/// malformed input is the caller's `400`, not a silent pass-through.
pub fn percent_decode(s: &str) -> Option<String> {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'%' => {
                let hi = (*b.get(i + 1)? as char).to_digit(16)?;
                let lo = (*b.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 400, 404, 405, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` with an explicit content type.
    pub fn ok(content_type: &'static str, body: String) -> HttpResponse {
        HttpResponse { status: 200, content_type, body }
    }

    /// A `200 OK` with the Prometheus text-exposition content type.
    pub fn prometheus(body: String) -> HttpResponse {
        HttpResponse::ok("text/plain; version=0.0.4", body)
    }

    /// A `200 OK` carrying JSON.
    pub fn json(body: String) -> HttpResponse {
        HttpResponse::ok("application/json", body)
    }

    /// A `404 Not Found`.
    pub fn not_found() -> HttpResponse {
        HttpResponse { status: 404, content_type: "text/plain", body: "not found\n".to_owned() }
    }

    /// A `405 Method Not Allowed` (everything here is `GET`).
    pub fn method_not_allowed() -> HttpResponse {
        HttpResponse {
            status: 405,
            content_type: "text/plain",
            body: "method not allowed\n".to_owned(),
        }
    }

    /// A `400 Bad Request` with a reason.
    pub fn bad_request(reason: &str) -> HttpResponse {
        HttpResponse { status: 400, content_type: "text/plain", body: format!("{reason}\n") }
    }

    /// A `503 Service Unavailable` with a reason — what a federated
    /// aggregator answers while a member is down and its scrape budget is
    /// not yet exhausted (retryable, unlike a 404).
    pub fn service_unavailable(reason: &str) -> HttpResponse {
        HttpResponse { status: 503, content_type: "text/plain", body: format!("{reason}\n") }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Error",
        }
    }

    /// Serializes the response (status line, minimal headers,
    /// `Connection: close`, body) onto `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Reads one request head (request line + headers, discarded) from a
/// connection. Returns `None` for a malformed or empty request.
fn read_request(stream: &TcpStream) -> Option<HttpRequest> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let req = HttpRequest::parse(&line)?;
    // Drain headers up to the blank line; a GET has no body to consume.
    loop {
        let mut h = String::new();
        match reader.read_line(&mut h) {
            Ok(0) => break,
            Ok(_) if h == "\r\n" || h == "\n" => break,
            Ok(_) => {}
            Err(_) => return None,
        }
    }
    Some(req)
}

/// Runs the blocking accept loop: one request per connection, dispatched
/// through `handler`, which returns the response plus whether the loop
/// should stop *after* answering (a `/quit` endpoint can thereby shut the
/// server down cleanly from the outside — the test/CI teardown path).
/// Malformed requests get a `400` and do not reach the handler. Per-
/// connection I/O errors (a scraper that vanished mid-write) are swallowed:
/// a broken peer must never take the serving loop down.
pub fn serve<H: FnMut(&HttpRequest) -> (HttpResponse, bool)>(
    listener: &TcpListener,
    mut handler: H,
) -> std::io::Result<()> {
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let mut stream = stream;
        let (response, stop) = match read_request(&stream) {
            Some(req) => handler(&req),
            None => (HttpResponse::bad_request("malformed request"), false),
        };
        let _ = response.write_to(&mut stream);
        if stop {
            return Ok(());
        }
    }
    Ok(())
}

/// A one-shot HTTP/1.1 GET against `addr` (e.g. `127.0.0.1:9100`) with
/// the default [`IO_TIMEOUT`]: the scrape client used by `faas_serve
/// --check` and the loopback tests (curl-equivalent, but offline-policy
/// clean). Returns `(status, body)`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    http_get_detailed(addr, path, IO_TIMEOUT).map(|(status, _, body)| (status, body))
}

/// The one client request: a GET whose `timeout` bounds the connect, each
/// write, and each read, returning `(status, content_type, body)`. A
/// server that accepts and then hangs (the `HangOnAccept` chaos mode)
/// surfaces as a timeout error within the deadline instead of wedging the
/// caller — which is what lets CI scrape steps run un-supervised. The
/// per-endpoint content-type contract (`text/plain; version=0.0.4` for
/// `/metrics`, `application/json` for the JSON surfaces) is part of the
/// serving API, and loopback tests assert it through this client.
pub fn http_get_detailed(
    addr: &str,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String, String)> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let content_type = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-type").then(|| value.trim().to_owned())
        })
        .unwrap_or_default();
    Ok((status, content_type, body.to_owned()))
}

/// A bounded, deterministic retry schedule for scrape clients and
/// federated aggregators: exponential backoff, doubling from
/// `backoff_base_ms` per failed attempt up to `backoff_cap_ms`, at most
/// `max_attempts` tries. The schedule is a pure function of the policy and
/// the attempt index — no jitter — so a recovery trace driven off a
/// virtual clock is byte-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries including the first (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    /// 4 attempts, 25 ms → 50 ms → 100 ms between them: generous for a
    /// loopback scrape yet under a second end-to-end.
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, backoff_base_ms: 25, backoff_cap_ms: 400 }
    }
}

impl RetryPolicy {
    /// A one-shot policy (no retries, no backoff) — the pre-hardening
    /// behavior, for callers that want a single probe.
    pub fn one_shot() -> RetryPolicy {
        RetryPolicy { max_attempts: 1, backoff_base_ms: 0, backoff_cap_ms: 0 }
    }

    /// The backoff after failed attempt `attempt` (0-based), in
    /// milliseconds: `base << attempt`, capped.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let shifted = self.backoff_base_ms.checked_shl(attempt).unwrap_or(u64::MAX);
        shifted.min(self.backoff_cap_ms)
    }
}

/// Runs `op` under `policy`, sleeping `sleep(backoff_ms)` between failed
/// attempts. Returns the first success together with the number of
/// attempts spent (1-based), or the last error once the budget is
/// exhausted. `sleep` is injected so deterministic callers (the fleet
/// aggregator) can charge the backoff to a virtual clock instead of the
/// wall; `op` receives the 0-based attempt index so seeded fault plans can
/// draw per attempt.
pub fn retry_with<T, E>(
    policy: &RetryPolicy,
    mut sleep: impl FnMut(u64),
    mut op: impl FnMut(u32) -> Result<T, E>,
) -> Result<(T, u32), E> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        match op(attempt) {
            Ok(v) => return Ok((v, attempt + 1)),
            Err(e) => {
                last_err = Some(e);
                if attempt + 1 < attempts {
                    sleep(policy.backoff_ms(attempt));
                }
            }
        }
    }
    Err(last_err.expect("at least one attempt"))
}

/// [`http_get_detailed`] under a [`RetryPolicy`]: retries refused
/// connections and timeouts with real (wall-clock) backoff sleeps, each
/// attempt bounded by `timeout`, so the whole scrape is bounded by
/// `max_attempts × timeout` plus the backoff sum and a hung server cannot
/// wedge the client past its budget. Returns `(status, body, attempts)` —
/// the attempt count feeds the scrape-meta registry so a flaky member is
/// visible in `/metrics`, not just in logs. Non-200 statuses are
/// *returned*, not retried: the server answered, and whether e.g. a 503
/// warrants another round is the caller's policy.
pub fn http_get_retry(
    addr: &str,
    path: &str,
    policy: &RetryPolicy,
    timeout: Duration,
) -> std::io::Result<(u16, String, u32)> {
    retry_with(
        policy,
        |ms| std::thread::sleep(Duration::from_millis(ms)),
        |_| http_get_detailed(addr, path, timeout),
    )
    .map(|((status, _, body), attempts)| (status, body, attempts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_lines_parse() {
        let r = HttpRequest::parse("GET /trace?since=42&limit=7 HTTP/1.1\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/trace");
        assert_eq!(r.cursor("since"), Cursor::At(42));
        assert_eq!(r.cursor("limit"), Cursor::At(7));
        assert_eq!(r.cursor("missing"), Cursor::Absent);

        let plain = HttpRequest::parse("GET /metrics HTTP/1.0").unwrap();
        assert_eq!(plain.path, "/metrics");
        assert!(plain.query.is_empty());

        // Valueless and empty params are tolerated, non-numeric cursors
        // are malformed.
        let odd = HttpRequest::parse("GET /trace?flag&since=x& HTTP/1.1").unwrap();
        assert_eq!(odd.query.len(), 2);
        assert_eq!(odd.query_str("flag"), Some(""));
        assert_eq!(odd.cursor("since"), Cursor::Malformed);

        for bad in ["", "GET", "GET /x", "PUT noslash HTTP/1.1", "GET /x SPDY/3"] {
            assert!(HttpRequest::parse(bad).is_none(), "{bad:?} accepted");
        }
    }

    #[test]
    fn responses_serialize_with_length_and_close() {
        let mut buf = Vec::new();
        HttpResponse::json("{\"a\": 1}".to_owned()).write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\": 1}"));

        let mut buf = Vec::new();
        HttpResponse::not_found().write_to(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().starts_with("HTTP/1.1 404 Not Found\r\n"));
    }

    #[test]
    fn retry_schedule_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(
            (0..4).map(|a| p.backoff_ms(a)).collect::<Vec<_>>(),
            [25, 50, 100, 200],
            "doubling from the base"
        );
        let capped = RetryPolicy { max_attempts: 8, backoff_base_ms: 100, backoff_cap_ms: 400 };
        assert_eq!(
            (0..6).map(|a| capped.backoff_ms(a)).collect::<Vec<_>>(),
            [100, 200, 400, 400, 400, 400],
            "capped, even past shift overflow territory"
        );
        assert_eq!(capped.backoff_ms(70), 400, "shift overflow saturates to the cap");
        assert_eq!(RetryPolicy::one_shot().max_attempts, 1);
    }

    #[test]
    fn retry_with_spends_the_budget_then_surfaces_the_last_error() {
        let p = RetryPolicy { max_attempts: 4, backoff_base_ms: 10, backoff_cap_ms: 1000 };
        // Succeeds on the third attempt: two backoffs charged, attempts = 3.
        let mut slept = Vec::new();
        let (value, attempts) = retry_with(
            &p,
            |ms| slept.push(ms),
            |attempt| if attempt < 2 { Err("down") } else { Ok(attempt * 10) },
        )
        .unwrap();
        assert_eq!((value, attempts), (20, 3));
        assert_eq!(slept, [10, 20], "backoff charged between failures only");
        // Never succeeds: budget exhausted, last error out, no backoff
        // after the final attempt.
        let mut slept = Vec::new();
        let err = retry_with(&p, |ms| slept.push(ms), |a| Err::<(), _>(format!("fail {a}")))
            .unwrap_err();
        assert_eq!(err, "fail 3");
        assert_eq!(slept, [10, 20, 40], "three backoffs for four attempts");
        // First-try success sleeps never.
        let mut slept = Vec::new();
        let (v, attempts) = retry_with(&p, |ms| slept.push(ms), |_| Ok::<_, ()>(7)).unwrap();
        assert_eq!((v, attempts), (7, 1));
        assert!(slept.is_empty());
    }

    #[test]
    fn bounded_get_times_out_on_a_hung_server() {
        // A server that accepts and then never answers — the HangOnAccept
        // chaos mode for real. The bounded client must surface a timeout
        // within its deadline instead of wedging.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hang = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let t0 = std::time::Instant::now();
        let err = http_get_detailed(&addr, "/metrics", Duration::from_millis(50))
            .expect_err("hung server must not yield a response");
        assert!(
            matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
            "unexpected error kind: {err:?}"
        );
        assert!(t0.elapsed() < Duration::from_millis(400), "deadline not honored");
        hang.join().unwrap();
    }

    #[test]
    fn retry_edges_and_virtual_clock_charge_match_closed_form() {
        use crate::clock::VirtualClock;
        use std::cell::RefCell;

        // max_attempts = 0 clamps to one attempt: the op still runs once
        // and no backoff is ever charged.
        let zero_budget = RetryPolicy { max_attempts: 0, backoff_base_ms: 25, backoff_cap_ms: 400 };
        let mut calls = 0u32;
        let err = retry_with(&zero_budget, |_| panic!("no backoff on a single attempt"), |a| {
            calls += 1;
            Err::<(), _>(a)
        })
        .unwrap_err();
        assert_eq!((calls, err), (1, 0), "zero-attempt budget still probes once");

        // Zero-backoff policy: sleep is invoked between attempts but must
        // charge nothing.
        let free = RetryPolicy { max_attempts: 3, backoff_base_ms: 0, backoff_cap_ms: 0 };
        let clock = RefCell::new(VirtualClock::new());
        let _ = retry_with(
            &free,
            |ms| clock.borrow_mut().advance(ms * 1_000_000),
            |_| Err::<(), _>("down"),
        );
        assert_eq!(clock.borrow().now(), 0, "zero-backoff retries are free on the clock");

        // Exhausting an n-attempt budget charges exactly the closed-form
        // sum of the n-1 inter-attempt backoffs (base << a, capped).
        let p = RetryPolicy { max_attempts: 6, backoff_base_ms: 25, backoff_cap_ms: 200 };
        let clock = RefCell::new(VirtualClock::new());
        let _ = retry_with(
            &p,
            |ms| clock.borrow_mut().advance(ms * 1_000_000),
            |_| Err::<(), _>("down"),
        );
        let expected_ms: u64 = (0..p.max_attempts - 1)
            .map(|a| (p.backoff_base_ms << a).min(p.backoff_cap_ms))
            .sum();
        assert_eq!(expected_ms, 25 + 50 + 100 + 200 + 200);
        assert_eq!(
            clock.borrow().now(),
            expected_ms * 1_000_000,
            "virtual-clock charge must equal the closed-form backoff sum"
        );
    }

    #[test]
    fn http_get_retry_recovers_from_a_late_server() {
        // Reserve a port, drop the listener, and rebind it from a helper
        // thread after a delay: the first attempt(s) get connection refused,
        // a later one lands. The retry budget is generous enough that the
        // race always resolves inside it.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        let rebind = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                let listener = TcpListener::bind(&addr).expect("rebind reserved port");
                serve(&listener, |_| {
                    (HttpResponse::ok("text/plain", "late\n".to_owned()), true)
                })
                .unwrap();
            })
        };
        let policy = RetryPolicy { max_attempts: 10, backoff_base_ms: 30, backoff_cap_ms: 200 };
        let (status, body, attempts) = http_get_retry(&addr, "/", &policy, IO_TIMEOUT).unwrap();
        assert_eq!((status, body.as_str()), (200, "late\n"));
        assert!(attempts >= 1, "attempt count is 1-based");
        rebind.join().unwrap();
        // With nobody listening and a tiny budget, the error surfaces after
        // the attempts are spent.
        let gone = TcpListener::bind("127.0.0.1:0").unwrap();
        let gone_addr = gone.local_addr().unwrap().to_string();
        drop(gone);
        let tiny = RetryPolicy { max_attempts: 2, backoff_base_ms: 1, backoff_cap_ms: 1 };
        assert!(http_get_retry(&gone_addr, "/", &tiny, IO_TIMEOUT).is_err());
    }

    #[test]
    fn strict_cursors_distinguish_absent_from_malformed() {
        let r = HttpRequest::parse("GET /trace?since=42 HTTP/1.1").unwrap();
        assert_eq!(r.cursor("since"), Cursor::At(42));
        assert_eq!(r.cursor("other"), Cursor::Absent);
        for bad in ["since=x", "since=-1", "since=", "since=1.5", "since=99999999999999999999"] {
            let r = HttpRequest::parse(&format!("GET /trace?{bad} HTTP/1.1")).unwrap();
            assert_eq!(r.cursor("since"), Cursor::Malformed, "{bad}");
        }
    }

    #[test]
    fn percent_decoding_round_trips_query_exprs() {
        assert_eq!(
            percent_decode("rate(sfi_x_total%7Bclass%3D%22ls%22%7D%5B4r%5D)").as_deref(),
            Some("rate(sfi_x_total{class=\"ls\"}[4r])")
        );
        assert_eq!(percent_decode("a+b%20c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        for bad in ["%", "%2", "%zz", "%ff%fe"] {
            assert!(percent_decode(bad).is_none(), "{bad:?} decoded");
        }
    }

    #[test]
    fn detailed_get_surfaces_content_type() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            serve(&listener, |req| match req.path.as_str() {
                "/prom" => (HttpResponse::prometheus("m 1\n".to_owned()), false),
                "/json" => (HttpResponse::json("{}".to_owned()), false),
                _ => (HttpResponse::not_found(), true),
            })
            .unwrap();
        });
        let (status, ct, body) = http_get_detailed(&addr, "/prom", Duration::from_secs(5)).unwrap();
        assert_eq!((status, ct.as_str(), body.as_str()), (200, "text/plain; version=0.0.4", "m 1\n"));
        let (status, ct, _) = http_get_detailed(&addr, "/json", Duration::from_secs(5)).unwrap();
        assert_eq!((status, ct.as_str()), (200, "application/json"));
        let (status, ct, _) = http_get_detailed(&addr, "/quit", Duration::from_secs(5)).unwrap();
        assert_eq!((status, ct.as_str()), (404, "text/plain"));
        server.join().unwrap();
    }

    #[test]
    fn loopback_roundtrip_serves_and_stops() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            serve(&listener, |req| match req.path.as_str() {
                "/ping" => (HttpResponse::prometheus("pong 1\n".to_owned()), false),
                "/quit" => (HttpResponse::ok("text/plain", "bye\n".to_owned()), true),
                _ => (HttpResponse::not_found(), false),
            })
            .unwrap();
        });
        let (status, body) = http_get(&addr, "/ping").unwrap();
        assert_eq!((status, body.as_str()), (200, "pong 1\n"));
        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
        let (status, body) = http_get(&addr, "/quit").unwrap();
        assert_eq!((status, body.as_str()), (200, "bye\n"));
        server.join().unwrap();
    }
}
