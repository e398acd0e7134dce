//! The platform's front door: a minimal HTTP/1.1 layer that accepts
//! `POST /invoke/<function>` requests, resolves them through the
//! [`crate::registry::FunctionRegistry`], executes the handler for real,
//! and renders an HTTP response.
//!
//! The paper's orchestration plane speaks an ad-hoc protocol; a platform
//! a user would adopt exposes HTTP like every commercial FaaS. The
//! parser is hand-rolled (request line, headers, fixed-length body) to
//! keep the workspace dependency-free.

use std::collections::BTreeMap;
use std::fmt;

use microfaas_sim::{MetricsRegistry, Rng};
use microfaas_workloads::interp::Script;
use microfaas_workloads::suite::{run_function, ServiceBackends};

use crate::cache::{fnv1a, fnv1a_extend, CacheConfig, ResultCache};
use crate::registry::FunctionRegistry;

/// Fuel budget for one scripted invocation — the interpreter-level
/// analog of the platform timeout.
const SCRIPT_FUEL: u64 = 10_000_000;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (`GET`, `POST`, …), uppercase.
    pub method: String,
    /// Request target (`/invoke/CascSHA`).
    pub path: String,
    /// Header map, keys lowercase.
    pub headers: BTreeMap<String, String>,
    /// Body bytes (per `content-length`).
    pub body: Vec<u8>,
}

/// Errors from parsing an HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseHttpError {
    /// The data ended before the request was complete.
    Incomplete,
    /// The request violates HTTP/1.1 framing.
    Malformed(String),
    /// The HTTP version is not 1.0/1.1.
    UnsupportedVersion(String),
}

impl fmt::Display for ParseHttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseHttpError::Incomplete => write!(f, "incomplete http request"),
            ParseHttpError::Malformed(why) => write!(f, "malformed http request: {why}"),
            ParseHttpError::UnsupportedVersion(v) => write!(f, "unsupported version '{v}'"),
        }
    }
}

impl std::error::Error for ParseHttpError {}

impl HttpRequest {
    /// Parses one request from `input`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHttpError`] for truncated or malformed requests.
    fn parse(input: &[u8]) -> Result<HttpRequest, ParseHttpError> {
        let header_end = find_subsequence(input, b"\r\n\r\n").ok_or(ParseHttpError::Incomplete)?;
        let head = std::str::from_utf8(&input[..header_end])
            .map_err(|_| ParseHttpError::Malformed("non-utf8 header block".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(ParseHttpError::Incomplete)?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| ParseHttpError::Malformed("missing method".into()))?
            .to_ascii_uppercase();
        let path = parts
            .next()
            .ok_or_else(|| ParseHttpError::Malformed("missing path".into()))?
            .to_string();
        let version = parts
            .next()
            .ok_or_else(|| ParseHttpError::Malformed("missing version".into()))?;
        if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
            return Err(ParseHttpError::UnsupportedVersion(version.to_string()));
        }
        if parts.next().is_some() {
            return Err(ParseHttpError::Malformed(
                "extra tokens in request line".into(),
            ));
        }

        let mut headers = BTreeMap::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ParseHttpError::Malformed(format!("bad header '{line}'")))?;
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }

        let body_start = header_end + 4;
        let content_length: usize = match headers.get("content-length") {
            None => 0,
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseHttpError::Malformed(format!("bad content-length '{raw}'")))?,
        };
        if input.len() < body_start + content_length {
            return Err(ParseHttpError::Incomplete);
        }
        Ok(HttpRequest {
            method,
            path,
            headers,
            body: input[body_start..body_start + content_length].to_vec(),
        })
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Content type of the body.
    pub content_type: String,
}

impl HttpResponse {
    fn new(status: u16, body: impl Into<Vec<u8>>, content_type: &str) -> Self {
        HttpResponse {
            status,
            body: body.into(),
            content_type: content_type.to_string(),
        }
    }

    /// Renders the response as HTTP/1.1 wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            500 => "Internal Server Error",
            504 => "Gateway Timeout",
            _ => "Unknown",
        };
        let mut out = format!(
            "HTTP/1.1 {} {reason}\r\ncontent-type: {}\r\ncontent-length: {}\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// The invocation gateway: HTTP in, function execution, HTTP out.
///
/// # Examples
///
/// ```
/// use microfaas::gateway::Gateway;
/// use microfaas::registry::FunctionRegistry;
///
/// let mut gateway = Gateway::new(FunctionRegistry::paper_suite(), 7);
/// let response = gateway.handle(b"POST /invoke/RegExMatch HTTP/1.1\r\n\r\n");
/// assert_eq!(response.status, 200);
/// ```
#[derive(Debug)]
pub struct Gateway {
    registry: FunctionRegistry,
    backends: ServiceBackends,
    scripts: BTreeMap<String, Script>,
    rng: Rng,
    invocations: u64,
    metrics: MetricsRegistry,
    /// Content-addressed response cache (see [`Gateway::with_cache`]);
    /// `None` keeps the gateway byte-identical to pre-cache builds.
    cache: Option<ResultCache<CachedResponse>>,
    /// Monotonic `/invoke/` request counter, doubling as the cache's
    /// TTL clock: the gateway has no simulated time, so `ttl=N` means
    /// "valid for the next N invoke requests".
    invoke_ticks: u64,
}

/// The stored value of one cached invocation: everything needed to
/// replay the HTTP 200 without running the handler.
#[derive(Debug, Clone)]
struct CachedResponse {
    body: Vec<u8>,
    content_type: String,
}

impl Gateway {
    /// Creates a gateway over `registry`, with freshly seeded backends
    /// and no result cache.
    pub fn new(registry: FunctionRegistry, seed: u64) -> Self {
        Gateway::with_cache(registry, seed, CacheConfig::Off)
    }

    /// [`Gateway::new`] with a content-addressed result cache in front
    /// of the handlers. Responses are keyed on the FNV-1a hash of the
    /// function name plus the canonical request body, so only an
    /// identical invocation replays a stored 200 — without calling
    /// [`run_function`] at all. TTLs count `/invoke/` requests (the
    /// gateway has no simulated clock).
    ///
    /// # Panics
    ///
    /// Panics if `cache` fails [`CacheConfig::try_validate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use microfaas::cache::CacheConfig;
    /// use microfaas::gateway::Gateway;
    /// use microfaas::registry::FunctionRegistry;
    ///
    /// let cache = CacheConfig::parse("lru:256,ttl=100").expect("valid spec");
    /// let mut gw = Gateway::with_cache(FunctionRegistry::paper_suite(), 7, cache);
    /// let first = gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n");
    /// let repeat = gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n");
    /// assert_eq!(first.body, repeat.body);
    /// assert_eq!(gw.invocations(), 1, "the repeat never executed");
    /// ```
    pub fn with_cache(registry: FunctionRegistry, seed: u64, cache: CacheConfig) -> Self {
        cache.try_validate().expect("invalid cache config");
        // The spec's `ttl=N` is parsed as N seconds of simulated time,
        // but the gateway's clock is the invoke counter — so re-read the
        // TTL as N ticks rather than going through `from_config`, whose
        // microsecond conversion only fits the simulation engines.
        let cache = match cache {
            CacheConfig::Off => None,
            CacheConfig::Lru { capacity, ttl, .. } => Some(ResultCache::new(
                capacity,
                ttl.map(|t| t.as_micros() / 1_000_000),
            )),
        };
        Gateway {
            registry,
            backends: ServiceBackends::seeded(),
            scripts: BTreeMap::new(),
            rng: Rng::new(seed),
            invocations: 0,
            metrics: MetricsRegistry::new(),
            cache,
            invoke_ticks: 0,
        }
    }

    /// Total successful invocations served.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// The gateway's own operational metrics (`gateway_*`), also served
    /// over HTTP at `GET /metrics`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn bump(&mut self, name: &str) {
        let counter = self.metrics.counter(name);
        self.metrics.inc(counter);
    }

    /// Handles one raw HTTP request and produces the response.
    ///
    /// Routes:
    /// * `POST /invoke/<name>` — execute a built-in or scripted function;
    /// * `POST /deploy/<name>` — deploy the request body as a script
    ///   (the MicroPython-style user-authored handler);
    /// * `GET /functions` — list deployments, one name per line;
    /// * `GET /metrics` — Prometheus text exposition of `gateway_*`;
    /// * `GET /healthz` — liveness probe.
    pub fn handle(&mut self, raw: &[u8]) -> HttpResponse {
        let response = self.route(raw);
        let counter = self.metrics.counter(&format!(
            "gateway_responses_total{{status=\"{}\"}}",
            response.status
        ));
        self.metrics.inc(counter);
        if response.status == 200 {
            // The gateway-side counterpart of the simulators'
            // `response_sent` trace anchor (see docs/TRACING.md): a
            // successful response left for the caller.
            self.bump("gateway_responses_sent_total");
        }
        response
    }

    fn route(&mut self, raw: &[u8]) -> HttpResponse {
        let request = match HttpRequest::parse(raw) {
            Ok(request) => request,
            Err(e) => return HttpResponse::new(400, e.to_string(), "text/plain"),
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => HttpResponse::new(200, "ok", "text/plain"),
            ("GET", "/metrics") => HttpResponse::new(
                200,
                self.metrics.render_prometheus(),
                "text/plain; version=0.0.4",
            ),
            ("GET", "/functions") => {
                let mut names: Vec<&str> = self.registry.names();
                names.extend(self.scripts.keys().map(String::as_str));
                names.sort_unstable();
                HttpResponse::new(200, names.join("\n"), "text/plain")
            }
            ("POST", path) if path.starts_with("/deploy/") => {
                let name = path["/deploy/".len()..].to_string();
                if name.is_empty() {
                    return HttpResponse::new(400, "missing function name", "text/plain");
                }
                if self.registry.resolve(&name).is_ok() || self.scripts.contains_key(&name) {
                    return HttpResponse::new(
                        400,
                        format!("'{name}' already deployed"),
                        "text/plain",
                    );
                }
                let source = match std::str::from_utf8(&request.body) {
                    Ok(source) => source,
                    Err(_) => return HttpResponse::new(400, "script must be utf-8", "text/plain"),
                };
                match Script::compile(source) {
                    Ok(script) => {
                        self.scripts.insert(name.clone(), script);
                        self.bump("gateway_deploys_total");
                        HttpResponse::new(200, format!("deployed {name}"), "text/plain")
                    }
                    Err(e) => HttpResponse::new(400, e.to_string(), "text/plain"),
                }
            }
            ("POST", path) if path.starts_with("/invoke/") => {
                let name = path["/invoke/".len()..].to_string();
                // The content key: function name plus canonical request
                // body, so only a byte-identical invocation can replay
                // a stored response.
                let key = fnv1a_extend(fnv1a(name.as_bytes()), &request.body);
                self.invoke_ticks += 1;
                let now = self.invoke_ticks;
                let cached = match self.cache.as_mut() {
                    Some(cache) => cache
                        .lookup(key, now)
                        .map(|hit| HttpResponse::new(200, hit.body.clone(), &hit.content_type)),
                    None => None,
                };
                if let Some(response) = cached {
                    // Served straight from the store: `run_function` is
                    // never called and `invocations` does not move.
                    self.bump("gateway_cache_hits_total");
                    return response;
                }
                if self.cache.is_some() {
                    self.bump("gateway_cache_misses_total");
                }
                let response = self.execute_invoke(&name);
                if response.status == 200 {
                    if let Some(cache) = self.cache.as_mut() {
                        cache.insert(
                            key,
                            CachedResponse {
                                body: response.body.clone(),
                                content_type: response.content_type.clone(),
                            },
                            now,
                        );
                    }
                }
                response
            }
            ("POST" | "GET", _) => HttpResponse::new(404, "no such route", "text/plain"),
            _ => HttpResponse::new(405, "method not allowed", "text/plain"),
        }
    }

    /// Runs one `/invoke/<name>` for real — scripted handlers first,
    /// then registry builtins — and renders the response.
    fn execute_invoke(&mut self, name: &str) -> HttpResponse {
        if let Some(script) = self.scripts.get(name) {
            return match script.run(SCRIPT_FUEL) {
                Ok(value) => {
                    self.invocations += 1;
                    self.bump("gateway_invocations_total");
                    HttpResponse::new(200, value.to_string(), "text/plain")
                }
                // Fuel exhaustion is the interpreter-level
                // invocation timeout, so it maps to 504 like any
                // upstream that never answered, not to a 500.
                Err(e @ microfaas_workloads::interp::ScriptError::OutOfFuel) => {
                    self.bump("gateway_timeouts_total");
                    HttpResponse::new(504, e.to_string(), "text/plain")
                }
                Err(e) => HttpResponse::new(500, e.to_string(), "text/plain"),
            };
        }
        match self.registry.resolve(name) {
            Err(e) => HttpResponse::new(404, e.to_string(), "text/plain"),
            Ok(spec) => {
                let handler = spec.handler;
                match run_function(handler, 1, &mut self.rng, &mut self.backends) {
                    Ok(output) => {
                        self.invocations += 1;
                        self.bump("gateway_invocations_total");
                        HttpResponse::new(200, output.summary, "text/plain")
                    }
                    Err(e) => HttpResponse::new(500, e.to_string(), "text/plain"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gateway() -> Gateway {
        Gateway::new(FunctionRegistry::paper_suite(), 42)
    }

    #[test]
    fn parse_post_with_body() {
        let raw = b"POST /invoke/CascSHA HTTP/1.1\r\ncontent-length: 5\r\nx-id: 7\r\n\r\nhello";
        let request = HttpRequest::parse(raw).expect("valid");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/invoke/CascSHA");
        assert_eq!(request.headers["content-length"], "5");
        assert_eq!(request.headers["x-id"], "7");
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn parse_rejects_truncation_and_garbage() {
        assert_eq!(
            HttpRequest::parse(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(ParseHttpError::Incomplete)
        );
        assert_eq!(
            HttpRequest::parse(b"GET /x"),
            Err(ParseHttpError::Incomplete)
        );
        assert!(matches!(
            HttpRequest::parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(ParseHttpError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            HttpRequest::parse(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(ParseHttpError::Malformed(_))
        ));
        assert!(matches!(
            HttpRequest::parse(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n"),
            Err(ParseHttpError::Malformed(_))
        ));
    }

    #[test]
    fn invoke_route_runs_the_function() {
        let mut gw = gateway();
        let response = gw.handle(b"POST /invoke/RegExMatch HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 200);
        assert!(String::from_utf8(response.body)
            .expect("utf-8")
            .contains("matched"));
        assert_eq!(gw.invocations(), 1);
    }

    #[test]
    fn unknown_function_is_404() {
        let mut gw = gateway();
        let response = gw.handle(b"POST /invoke/Nope HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 404);
        assert_eq!(gw.invocations(), 0);
    }

    #[test]
    fn listing_and_health_routes() {
        let mut gw = gateway();
        let response = gw.handle(b"GET /functions HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 200);
        let listing = String::from_utf8(response.body).expect("utf-8");
        assert_eq!(listing.lines().count(), 17);
        assert!(listing.contains("COSGet"));
        assert_eq!(gw.handle(b"GET /healthz HTTP/1.1\r\n\r\n").status, 200);
    }

    #[test]
    fn wrong_method_and_route() {
        let mut gw = gateway();
        assert_eq!(
            gw.handle(b"GET /invoke/CascSHA HTTP/1.1\r\n\r\n").status,
            404
        );
        assert_eq!(gw.handle(b"DELETE /functions HTTP/1.1\r\n\r\n").status, 405);
        assert_eq!(gw.handle(b"total garbage").status, 400);
    }

    #[test]
    fn response_encoding_is_valid_http() {
        let response = HttpResponse::new(200, "hello", "text/plain");
        let wire = String::from_utf8(response.encode()).expect("utf-8");
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(wire.contains("content-length: 5\r\n"));
        assert!(wire.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn content_length_always_tracks_the_final_body() {
        // Regression guard for the classic stale-length bug: the header
        // must be computed from the body at encode time, in one place —
        // mutating the body after construction (as a handler or the
        // cache-replay path may) must never ship the old length.
        let mut response = HttpResponse::new(200, "hello", "text/plain");
        response.body = b"a considerably longer body than before".to_vec();
        let wire = String::from_utf8(response.encode()).expect("utf-8");
        assert!(
            wire.contains(&format!("content-length: {}\r\n", response.body.len())),
            "stale content-length in: {wire}"
        );
        assert!(!wire.contains("content-length: 5\r\n"));

        response.body.clear();
        let wire = String::from_utf8(response.encode()).expect("utf-8");
        assert!(wire.contains("content-length: 0\r\n"));
        assert!(wire.ends_with("\r\n\r\n"), "an empty body follows the CRLF");
    }

    fn cached_gateway(spec: &str) -> Gateway {
        Gateway::with_cache(
            FunctionRegistry::paper_suite(),
            42,
            CacheConfig::parse(spec).expect("valid spec"),
        )
    }

    #[test]
    fn cache_replays_identical_invocations_without_executing() {
        let mut gw = cached_gateway("lru:64");
        let first = gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n");
        assert_eq!(first.status, 200);
        assert_eq!(gw.invocations(), 1);
        let repeat = gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n");
        assert_eq!(repeat.status, 200);
        assert_eq!(repeat.body, first.body, "hits replay the stored body");
        assert_eq!(gw.invocations(), 1, "the repeat never ran the handler");

        // A different body is a different content key.
        let other = gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello");
        assert_eq!(other.status, 200);
        assert_eq!(gw.invocations(), 2, "a new payload must execute");

        let metrics = gw.handle(b"GET /metrics HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(metrics.body).expect("utf-8");
        assert!(text.contains("gateway_cache_hits_total 1"));
        assert!(text.contains("gateway_cache_misses_total 2"));
    }

    #[test]
    fn cache_ttl_counts_invoke_requests() {
        // ttl=2: an entry stored at tick N expires once the clock
        // passes N+2, so the third request after it re-executes.
        let mut gw = cached_gateway("lru:64,ttl=2");
        assert_eq!(
            gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n").status,
            200
        );
        assert_eq!(
            gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n").status,
            200
        );
        assert_eq!(gw.invocations(), 1, "tick 2 is still within the TTL");
        assert_eq!(
            gw.handle(b"POST /invoke/RegExMatch HTTP/1.1\r\n\r\n")
                .status,
            200
        );
        assert_eq!(
            gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n").status,
            200
        );
        assert_eq!(gw.invocations(), 3, "tick 4 is past the TTL: re-executed");
    }

    #[test]
    fn default_gateway_exposition_is_cache_free() {
        let mut gw = gateway();
        assert_eq!(
            gw.handle(b"POST /invoke/CascSHA HTTP/1.1\r\n\r\n").status,
            200
        );
        let metrics = gw.handle(b"GET /metrics HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(metrics.body).expect("utf-8");
        assert!(
            !text.contains("cache"),
            "cache-off gateways must not grow cache series"
        );
    }

    #[test]
    fn scripted_functions_deploy_and_invoke() {
        let mut gw = gateway();
        let script = "let total = 0;\nlet i = 1;\nwhile i <= 4 { total = total + i; i = i + 1; }\nreturn total;";
        let deploy = format!(
            "POST /deploy/summer HTTP/1.1\r\ncontent-length: {}\r\n\r\n{script}",
            script.len()
        );
        assert_eq!(gw.handle(deploy.as_bytes()).status, 200);

        let response = gw.handle(b"POST /invoke/summer HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"10");
        assert_eq!(gw.invocations(), 1);

        // Listed alongside the builtins.
        let listing = gw.handle(b"GET /functions HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(listing.body).expect("utf-8");
        assert!(text.lines().any(|l| l == "summer"));
        assert_eq!(text.lines().count(), 18);
    }

    #[test]
    fn bad_scripts_and_duplicates_rejected() {
        let mut gw = gateway();
        let bad = "POST /deploy/broken HTTP/1.1\r\ncontent-length: 9\r\n\r\nreturn 1@";
        assert_eq!(gw.handle(bad.as_bytes()).status, 400);
        // Shadowing a builtin is refused.
        let shadow = "POST /deploy/CascSHA HTTP/1.1\r\ncontent-length: 9\r\n\r\nreturn 1;";
        assert_eq!(gw.handle(shadow.as_bytes()).status, 400);
        assert_eq!(gw.handle(b"POST /deploy/ HTTP/1.1\r\n\r\n").status, 400);
    }

    #[test]
    fn runaway_script_is_killed_by_fuel() {
        let mut gw = gateway();
        let script = "while true { let x = 1; }";
        let deploy = format!(
            "POST /deploy/spin HTTP/1.1\r\ncontent-length: {}\r\n\r\n{script}",
            script.len()
        );
        assert_eq!(gw.handle(deploy.as_bytes()).status, 200);
        let response = gw.handle(b"POST /invoke/spin HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 504, "a runaway invocation times out");
        assert!(String::from_utf8(response.body)
            .expect("utf-8")
            .contains("fuel"));
        assert_eq!(gw.invocations(), 0);
        let metrics = gw.handle(b"GET /metrics HTTP/1.1\r\n\r\n");
        let text = String::from_utf8(metrics.body).expect("utf-8");
        assert!(text.contains("gateway_timeouts_total 1"));
        assert!(text.contains("gateway_responses_total{status=\"504\"} 1"));
    }

    #[test]
    fn metrics_route_exposes_counters() {
        let mut gw = gateway();
        assert_eq!(
            gw.handle(b"POST /invoke/RegExMatch HTTP/1.1\r\n\r\n")
                .status,
            200
        );
        assert_eq!(gw.handle(b"POST /invoke/Nope HTTP/1.1\r\n\r\n").status, 404);

        let response = gw.handle(b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(response.body).expect("utf-8");
        assert!(text.contains("gateway_invocations_total 1"));
        assert!(text.contains("gateway_responses_total{status=\"200\"} 1"));
        assert!(text.contains("gateway_responses_total{status=\"404\"} 1"));
        assert!(text.contains("gateway_responses_sent_total 1"));
        assert!(text.contains("# HELP gateway_responses_sent_total"));
        // The registry view matches the HTTP exposition.
        assert!(gw
            .metrics()
            .render_prometheus()
            .contains("gateway_invocations_total 1"));
    }

    #[test]
    fn every_paper_function_serves_over_http() {
        let mut gw = gateway();
        for name in FunctionRegistry::paper_suite().names() {
            let raw = format!("POST /invoke/{name} HTTP/1.1\r\n\r\n");
            let response = gw.handle(raw.as_bytes());
            assert_eq!(response.status, 200, "{name} must serve");
        }
        assert_eq!(gw.invocations(), 17);
    }
}
