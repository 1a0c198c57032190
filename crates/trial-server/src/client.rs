//! A minimal blocking HTTP client for the service's own endpoints.
//!
//! Two shapes, both std-only (no dependency; the integration tests and
//! examples drive a [`crate::Server`] with this):
//!
//! * [`get`] / [`post`] / [`request`] — one connection per call,
//!   `Connection: close`. Simple, stateless, fine for tests.
//! * [`HttpClient`] — a **keep-alive** connection that issues many requests
//!   over one socket (reconnecting transparently when the server closes or
//!   the socket dies). This is what the saturation harness uses: hundreds
//!   of clients each holding one connection, the way real load looks.
//!
//! Both parse `Content-Length` bodies **and** `Transfer-Encoding: chunked`
//! responses, including trailer fields after the terminal chunk — the
//! response side of `/query?stream=1` ([`HttpResponse::trailer`] exposes
//! `X-Trial-Count` / `X-Trial-Truncated` / `X-Trial-Cursor`). A chunked
//! response whose terminal chunk never arrives (the server's mid-stream
//! failure signal is closing the connection) surfaces as an
//! `UnexpectedEof` error, never as a silently truncated body.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Response body as UTF-8 text (chunked framing already removed).
    pub body: String,
    /// Trailer fields that followed the terminal chunk of a chunked
    /// response (empty for `Content-Length` responses).
    pub trailers: Vec<(String, String)>,
    /// `true` when the body arrived with `Transfer-Encoding: chunked`.
    pub chunked: bool,
}

impl HttpResponse {
    /// `true` for 2xx statuses.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Looks up a trailer field, case-insensitively.
    pub fn trailer(&self, name: &str) -> Option<&str> {
        self.trailers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a (non-trailer) response header, case-insensitively — the
    /// one-shot helpers record the few headers tests care about
    /// (`Retry-After`) in `trailers` too, so this is an alias.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.trailer(name)
    }
}

/// Issues `GET path` on a fresh `Connection: close` socket.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path, "")
}

/// Issues `POST path` with a plain-text body on a fresh socket.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<HttpResponse> {
    request(addr, "POST", path, body)
}

/// Issues a single request on a fresh connection and reads the response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
    request_with(addr, method, path, body, &[])
}

/// [`request`] with extra request headers (e.g. `X-Request-Id`).
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, method, path, body, true, headers)?;
    let mut reader = BufReader::new(stream);
    let (response, _server_closes) = read_response(&mut reader)?;
    Ok(response)
}

/// A keep-alive HTTP connection to one server.
///
/// Requests reuse the socket until the server signals `Connection: close`
/// (or the socket errors), after which the next request transparently
/// reconnects. One retry: a request that fails on a *reused* socket is
/// replayed once on a fresh connection (the server may have timed the idle
/// connection out between requests).
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    read_timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// How many times a `429 saturated` response is retried (0 = never,
    /// the default — the saturation harness *counts* 429s, so shed load
    /// must stay visible unless a caller explicitly opts in).
    retry_attempts: u32,
    /// Ceiling on any single retry backoff sleep.
    retry_cap: Duration,
}

impl HttpClient {
    /// Creates a client for `addr`; no connection is opened until the first
    /// request.
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            read_timeout: Duration::from_secs(30),
            conn: None,
            retry_attempts: 0,
            retry_cap: Duration::from_secs(5),
        }
    }

    /// Opts into bounded retry of `429 saturated` responses: up to
    /// `attempts` retries, sleeping the server's `Retry-After` hint (capped
    /// at `cap`) plus up to 25% jitter between tries — the jitter keeps a
    /// fleet of shed clients from re-arriving in lockstep. Retries are
    /// **off by default**: a 429 is a deliberate, complete answer, and
    /// harnesses that measure shedding must see every one.
    pub fn retry_saturated(mut self, attempts: u32, cap: Duration) -> Self {
        self.retry_attempts = attempts;
        self.retry_cap = cap;
        self
    }

    /// Issues `GET path` over the kept-alive connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, "")
    }

    /// Issues `POST path` with a plain-text body over the kept-alive
    /// connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, body)
    }

    /// Issues one request, reusing the connection when possible.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request_with(method, path, body, &[])
    }

    /// [`HttpClient::request`] with extra request headers.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        let mut attempt = 0;
        loop {
            let response = self.request_reconnecting(method, path, body, headers)?;
            if response.status != 429 || attempt >= self.retry_attempts {
                return Ok(response);
            }
            attempt += 1;
            std::thread::sleep(self.saturated_backoff(&response));
        }
    }

    /// The sleep before retrying a shed request: the server's `Retry-After`
    /// hint (whole seconds, default 1) capped at `retry_cap`, plus up to
    /// 25% jitter so retries from many clients spread out.
    fn saturated_backoff(&self, response: &HttpResponse) -> Duration {
        let hinted_secs = response
            .header("Retry-After")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        let base = Duration::from_secs(hinted_secs).min(self.retry_cap);
        // std-only jitter source: the clock's current subsecond nanos are
        // uncorrelated across clients, which is all the spreading needs.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let quarter_ns = base.as_nanos() as u64 / 4;
        let jitter = if quarter_ns == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(nanos % quarter_ns)
        };
        base + jitter
    }

    /// One request with the keep-alive reconnect discipline (no 429 retry).
    fn request_reconnecting(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        let reused = self.conn.is_some();
        match self.request_once(method, path, body, headers) {
            Ok(response) => Ok(response),
            Err(e) if reused => {
                // The idle socket died between requests (server timeout,
                // restart): retry once on a fresh connection. A failure
                // mid-fresh-request is real and propagates.
                let _ = e;
                self.conn = None;
                self.request_once(method, path, body, headers)
            }
            Err(e) => Err(e),
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<HttpResponse> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let reader = self.conn.as_mut().expect("connection just ensured");
        let mut writer = reader.get_ref().try_clone()?;
        let outcome = write_request(&mut writer, method, path, body, false, headers)
            .and_then(|()| read_response(reader));
        match outcome {
            Ok((response, server_closes)) => {
                if server_closes {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn write_request(
    writer: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
    headers: &[(&str, &str)],
) -> io::Result<()> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: trial\r\nConnection: {}\r\nContent-Length: {}\r\n",
        if close { "close" } else { "keep-alive" },
        body.len()
    )?;
    for (name, value) in headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads one full response (status line, headers, body in either framing,
/// trailers). Returns the response plus whether the server asked to close.
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(HttpResponse, bool)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line `{}`", status_line.trim_end()),
            )
        })?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    let mut server_closes = false;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                server_closes = value.eq_ignore_ascii_case("close");
            }
            headers.push((name.to_owned(), value.to_owned()));
        }
    }

    if chunked {
        // Surface the pre-body headers (e.g. `X-Request-Id`) through the
        // same lookup as the trailers that follow the terminal chunk.
        let (body, mut trailers) = read_chunked(reader)?;
        trailers.extend(headers);
        return Ok((
            HttpResponse {
                status,
                body,
                trailers,
                chunked: true,
            },
            server_closes,
        ));
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8_lossy(&buf).into_owned()
        }
        None => {
            // No framing at all: the body runs to connection close (only the
            // one-shot `Connection: close` path can land here).
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            server_closes = true;
            buf
        }
    };
    // Surface plain headers (e.g. `Retry-After` on a 429) through the same
    // lookup the trailer accessor uses.
    Ok((
        HttpResponse {
            status,
            body,
            trailers: headers,
            chunked: false,
        },
        server_closes,
    ))
}

/// Decodes a chunked body: size-prefixed chunks, the terminal `0` chunk,
/// then trailer fields up to the blank line.
fn read_chunked<R: BufRead>(reader: &mut R) -> io::Result<(String, Vec<(String, String)>)> {
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid chunk stream (response truncated)",
            ));
        }
        let size_text = size_line
            .trim_end()
            .split(';') // ignore chunk extensions
            .next()
            .unwrap_or("");
        let size = usize::from_str_radix(size_text, 16).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed chunk size `{size_text}`"),
            )
        })?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        body.extend_from_slice(&chunk);
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "chunk data not followed by CRLF",
            ));
        }
    }
    // Trailer section: header-shaped lines until the blank line.
    let mut trailers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the trailer terminator",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            trailers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
    Ok((String::from_utf8_lossy(&body).into_owned(), trailers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_content_length_responses() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: keep-alive\r\n\r\n{\"a\":1}";
        let mut reader = raw.as_bytes();
        let (response, closes) = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"a\":1}");
        assert!(!response.chunked);
        assert!(!closes);
    }

    #[test]
    fn parses_chunked_responses_with_trailers() {
        let raw = concat!(
            "HTTP/1.1 200 OK\r\n",
            "Transfer-Encoding: chunked\r\n",
            "Trailer: X-Trial-Count\r\n",
            "Connection: keep-alive\r\n",
            "\r\n",
            "6\r\n{\"a\":[\r\n",
            "3\r\n1]}\r\n",
            "0\r\n",
            "X-Trial-Count: 1\r\n",
            "X-Trial-Truncated: false\r\n",
            "\r\n",
        );
        let mut reader = raw.as_bytes();
        let (response, closes) = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"a\":[1]}");
        assert!(response.chunked);
        assert_eq!(response.trailer("x-trial-count"), Some("1"));
        assert_eq!(response.trailer("X-Trial-Truncated"), Some("false"));
        assert!(response.trailer("X-Trial-Cursor").is_none());
        assert!(!closes);
    }

    #[test]
    fn a_truncated_chunk_stream_is_an_error_not_a_short_body() {
        // The server died mid-stream: no terminal chunk, no trailers.
        let raw = concat!(
            "HTTP/1.1 200 OK\r\n",
            "Transfer-Encoding: chunked\r\n",
            "\r\n",
            "6\r\n{\"a\":[\r\n",
        );
        let mut reader = raw.as_bytes();
        let err = read_response(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn round_trips_the_server_side_chunked_writer() {
        // What `ChunkedWriter` emits must be exactly what this client
        // parses back.
        let mut wire = Vec::new();
        let mut writer =
            crate::http::ChunkedWriter::begin(&mut wire, 200, false, &["X-Trial-Count"], None)
                .unwrap();
        writer.write_text("{\"triples\":[").unwrap();
        writer.write_text("[\"a\",\"b\",\"c\"]]}").unwrap();
        writer.finish(&[("X-Trial-Count", "1".to_owned())]).unwrap();
        let mut reader = wire.as_slice();
        let (response, closes) = read_response(&mut reader).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"triples\":[[\"a\",\"b\",\"c\"]]}");
        assert_eq!(response.trailer("X-Trial-Count"), Some("1"));
        assert!(!closes);
    }
}
