//! A small hand-rolled HTTP/1.1 layer: request parsing and response writing.
//!
//! Deliberately minimal — exactly what the query service needs and no more:
//!
//! * request line + headers + `Content-Length` body (request bodies are
//!   never chunked);
//! * URL query-string parameters with `%XX` / `+` decoding (the path is
//!   `%XX`-decoded too, but keeps `+` literal — see [`percent_decode_path`]);
//! * keep-alive by default, honouring `Connection: close`;
//! * hard limits on header-section and body size, enforced *before* the
//!   bytes are buffered, so an untrusted client cannot balloon memory;
//! * **chunked transfer encoding on the response side** ([`ChunkedWriter`]):
//!   streamed query responses write rows as they are produced — first byte
//!   before the result size is known — and carry `count`/`truncated`/stats
//!   in HTTP **trailers**, keeping the connection reusable afterwards.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, IoSlice, Write};

/// Upper bound on the request line + headers, independent of the body limit.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (e.g. `/query`).
    pub path: String,
    /// Decoded query-string parameters, in order of appearance.
    pub params: Vec<(String, String)>,
    /// Raw request body.
    pub body: Vec<u8>,
    /// `true` if the client asked for `Connection: close`.
    pub close: bool,
    /// The client-supplied `X-Request-Id` header, if it was present and
    /// well-formed (≤ 64 chars of `[A-Za-z0-9._-]`). The router generates an
    /// ID when absent; either way the ID is echoed on the response and keyed
    /// into the flight recorder, so a request can be correlated across
    /// client logs, server traces and `/debug/slow`.
    pub request_id: Option<String>,
}

impl Request {
    /// First value of query-string parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, well-formed request.
    Request(Request),
    /// The peer closed the connection (or timed out) before sending anything.
    Closed,
    /// The bytes were not a servable request; respond with this status and
    /// a structured error, then close the connection.
    Invalid {
        /// HTTP status to reply with (`400`, `413`, `505`, …).
        status: u16,
        /// Machine-readable error kind for the JSON body.
        kind: &'static str,
        /// Human-readable message.
        message: String,
    },
}

fn invalid(status: u16, kind: &'static str, message: impl Into<String>) -> ReadOutcome {
    ReadOutcome::Invalid {
        status,
        kind,
        message: message.into(),
    }
}

/// Reads one HTTP/1.1 request from `reader`, enforcing `max_body` on the
/// declared `Content-Length` before buffering the body.
///
/// `writer` is the response side of the same connection: when the client
/// sent `Expect: 100-continue` (curl does for bodies over 1 KiB), the
/// interim `100 Continue` is written there before the body is read — without
/// it every such request stalls for the client's expect timeout.
pub fn read_request<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    max_body: usize,
) -> io::Result<ReadOutcome> {
    // The whole head (request line + headers) is read through a `Take` so a
    // line that never ends cannot buffer more than MAX_HEAD_BYTES: when the
    // cap is hit, `read_line` returns a line without `\n` while bytes remain.
    // UFCS pins `Self = &mut R` so the reader is reborrowed, not moved.
    let mut head = io::Read::take(&mut *reader, MAX_HEAD_BYTES as u64);

    // Request line.
    let mut line = String::new();
    if head.read_line(&mut line)? == 0 {
        return Ok(ReadOutcome::Closed);
    }
    if !line.ends_with('\n') && head.limit() == 0 {
        return Ok(invalid(
            431,
            "headers_too_large",
            "request head exceeds 16 KiB",
        ));
    }
    let line_trimmed = line.trim_end();
    let mut parts = line_trimmed.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_uppercase(), t.to_owned(), v),
        _ => {
            return Ok(invalid(
                400,
                "bad_request",
                format!("malformed request line `{line_trimmed}`"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(invalid(
            505,
            "http_version",
            format!("unsupported protocol version `{version}`"),
        ));
    }

    // Headers (only the ones the service acts on are retained).
    let mut headers: HashMap<String, String> = HashMap::new();
    loop {
        let mut header = String::new();
        if head.read_line(&mut header)? == 0 {
            return Ok(ReadOutcome::Closed);
        }
        if !header.ends_with('\n') && head.limit() == 0 {
            return Ok(invalid(
                431,
                "headers_too_large",
                "request head exceeds 16 KiB",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        // RFC 9112 §5.1–5.2: a field line is a token name, a colon with no
        // whitespace before it, and the value. A line with no colon, a name
        // with whitespace around it or a line with leading whitespace
        // (obsolete folding, which leaves whitespace in the name) may be
        // framed differently by a proxy in front, so each is rejected
        // rather than guessed at (request smuggling).
        let Some((name, value)) = header.split_once(':') else {
            return Ok(invalid(
                400,
                "bad_request",
                format!("malformed header line `{header}`"),
            ));
        };
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Ok(invalid(
                400,
                "bad_request",
                format!("malformed header name `{name}`"),
            ));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_owned();
        // RFC 9110 §8.6: duplicate Content-Length headers must not be
        // silently reconciled — a proxy in front may honour a different
        // copy than we do, desyncing the framing (request smuggling).
        if name == "content-length" && headers.get(&name).is_some_and(|prev| *prev != value) {
            return Ok(invalid(
                400,
                "bad_request",
                "conflicting Content-Length headers",
            ));
        }
        headers.insert(name, value);
    }

    if headers.contains_key("transfer-encoding") {
        return Ok(invalid(
            400,
            "bad_request",
            "chunked transfer encoding is not supported; send Content-Length",
        ));
    }

    // Body, bounded by the declared Content-Length.
    let content_length = match headers.get("content-length") {
        // RFC 9110 §8.6: `1*DIGIT`; `usize::from_str` alone accepts `+12`.
        Some(v) => match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => {
                return Ok(invalid(
                    400,
                    "bad_request",
                    format!("unparsable Content-Length `{v}`"),
                ))
            }
        },
        None => 0,
    };
    if content_length > max_body {
        return Ok(invalid(
            413,
            "payload_too_large",
            format!("request body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    if headers
        .get("expect")
        .map(|v| v.eq_ignore_ascii_case("100-continue"))
        .unwrap_or(false)
    {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let close = headers
        .get("connection")
        .map(|v| v.eq_ignore_ascii_case("close"))
        .unwrap_or(false);

    let request_id = headers
        .get("x-request-id")
        .filter(|v| {
            !v.is_empty()
                && v.len() <= 64
                && v.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        })
        .cloned();

    let (path, params) = parse_target(&target);
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        params,
        body,
        close,
        request_id,
    }))
}

/// Splits a request target into its decoded path and query parameters.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let params = query
        .map(|q| {
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect()
        })
        .unwrap_or_default();
    (percent_decode_path(path), params)
}

/// Decodes `%XX` escapes and `+`-as-space — the decoding for **query-string
/// components**. Invalid escapes pass through verbatim (lenient, like most
/// servers).
pub fn percent_decode(s: &str) -> String {
    decode_inner(s, true)
}

/// Decodes `%XX` escapes in a URL **path**. Per RFC 3986, `+` is an ordinary
/// path character — only `application/x-www-form-urlencoded` query
/// components spell space as `+` — so a path segment like `/stores/a+b`
/// keeps its plus sign (spaces in paths arrive as `%20`).
pub fn percent_decode_path(s: &str) -> String {
    decode_inner(s, false)
}

fn decode_inner(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Exactly two hex digits: `u8::from_str_radix` alone
                // accepts a sign, which would decode `%+A` to 0x0A.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response: status plus body (JSON on every endpoint except
/// `/metrics`, which speaks the Prometheus text exposition format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value in seconds — set on `429` when
    /// admission control turns a request away.
    pub retry_after: Option<u64>,
    /// `Content-Type` of the body (default `application/json`).
    pub content_type: &'static str,
    /// Request ID echoed back as the `X-Request-Id` header.
    pub request_id: Option<String>,
}

impl Response {
    /// A `200 OK` response.
    pub fn ok(body: String) -> Response {
        Response::new(200, body)
    }

    /// A response with `status` and `body` and no extra headers.
    pub fn new(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            retry_after: None,
            content_type: "application/json",
            request_id: None,
        }
    }

    /// A `200 OK` response with an explicit content type (the `/metrics`
    /// exposition is `text/plain`).
    pub fn with_content_type(body: String, content_type: &'static str) -> Response {
        Response {
            content_type,
            ..Response::new(200, body)
        }
    }
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes `response` to `writer` as an HTTP/1.1 message, in one write.
///
/// The head is built into one buffer. A body of at most [`CHUNK_BYTES`] is
/// appended to it and the whole message goes out in one `write_all`; a
/// larger body is never copied: head and body leave together in one
/// vectored write.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    close: bool,
) -> io::Result<()> {
    let body = response.body.as_bytes();
    let inline = body.len() <= CHUNK_BYTES;
    let mut head = String::with_capacity(160 + if inline { body.len() } else { 0 });
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        body.len(),
        connection
    )
    .expect("writing to String cannot fail");
    if let Some(seconds) = response.retry_after {
        write!(head, "Retry-After: {seconds}\r\n").expect("writing to String cannot fail");
    }
    if let Some(id) = &response.request_id {
        write!(head, "X-Request-Id: {id}\r\n").expect("writing to String cannot fail");
    }
    head.push_str("\r\n");
    if inline {
        head.push_str(&response.body);
        writer.write_all(head.as_bytes())?;
    } else {
        write_all_pair(writer, head.as_bytes(), body)?;
    }
    writer.flush()
}

/// Writes `first` then `second` with vectored writes — one system call when
/// the socket takes both — retrying on short writes like `write_all`.
fn write_all_pair<W: Write>(writer: &mut W, mut first: &[u8], mut second: &[u8]) -> io::Result<()> {
    while !first.is_empty() {
        match writer.write_vectored(&[IoSlice::new(first), IoSlice::new(second)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) if n < first.len() => first = &first[n..],
            Ok(n) => {
                second = &second[n - first.len()..];
                first = &[];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.write_all(second)
}

/// Target size of one response chunk: the streaming emitter buffers at most
/// this many body bytes before flushing them as a chunk, so server-side
/// response memory is O(chunk size) regardless of result cardinality.
pub const CHUNK_BYTES: usize = 8 * 1024;

/// A streaming HTTP/1.1 response using **chunked transfer encoding** with
/// trailers.
///
/// [`ChunkedWriter::begin`] writes the response head (status, headers, the
/// `Trailer:` declaration) and flushes it immediately — the client's
/// time-to-first-byte does not wait for the first result row, let alone the
/// last. Body bytes then accumulate into a bounded buffer flushed as HTTP
/// chunks of about [`CHUNK_BYTES`], each framed (size line, data, CRLF) and
/// sent in one write; [`ChunkedWriter::finish`] sends the terminal chunk
/// plus the trailer fields (response facts unknowable up front: row count,
/// truncation, work counters) in one more. Keep-alive is preserved —
/// chunked framing delimits the message without a `Content-Length`.
///
/// If the connection dies mid-stream the response simply stops before the
/// terminal chunk; any HTTP client can detect the truncation, which is the
/// protocol-level reason streamed errors close the connection instead of
/// inventing an in-band error frame.
#[derive(Debug)]
pub struct ChunkedWriter<'w, W: Write> {
    writer: &'w mut W,
    /// Body text not yet sent.
    buf: String,
    /// The framed chunk being written, reused across chunks.
    frame: Vec<u8>,
}

impl<'w, W: Write> ChunkedWriter<'w, W> {
    /// Writes and flushes the chunked response head, declaring `trailers`
    /// (header names sent after the body) and echoing `request_id` as the
    /// `X-Request-Id` header, and returns the body writer.
    pub fn begin(
        writer: &'w mut W,
        status: u16,
        close: bool,
        trailers: &[&str],
        request_id: Option<&str>,
    ) -> io::Result<Self> {
        let mut head = String::with_capacity(256);
        let connection = if close { "close" } else { "keep-alive" };
        write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
            status,
            status_text(status),
            connection
        )
        .expect("writing to String cannot fail");
        if let Some(id) = request_id {
            write!(head, "X-Request-Id: {id}\r\n").expect("writing to String cannot fail");
        }
        if !trailers.is_empty() {
            write!(head, "Trailer: {}\r\n", trailers.join(", "))
                .expect("writing to String cannot fail");
        }
        head.push_str("\r\n");
        writer.write_all(head.as_bytes())?;
        writer.flush()?;
        Ok(ChunkedWriter {
            writer,
            buf: String::with_capacity(CHUNK_BYTES),
            frame: Vec::new(),
        })
    }

    /// Appends body text, flushing a chunk whenever the buffer reaches
    /// [`CHUNK_BYTES`].
    pub fn write_text(&mut self, text: &str) -> io::Result<()> {
        self.write_with(|buf| buf.push_str(text))
    }

    /// Lets `write` append body text straight into the chunk buffer, then
    /// flushes a chunk if the buffer has reached [`CHUNK_BYTES`].
    pub fn write_with(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        write(&mut self.buf);
        if self.buf.len() >= CHUNK_BYTES {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Flushes buffered bytes as one chunk (no-op when empty).
    pub fn flush_chunk(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.frame.clear();
        write!(self.frame, "{:x}\r\n", self.buf.len())?;
        self.frame.extend_from_slice(self.buf.as_bytes());
        self.frame.extend_from_slice(b"\r\n");
        self.writer.write_all(&self.frame)?;
        self.writer.flush()?;
        self.buf.clear();
        Ok(())
    }

    /// Writes the terminal chunk and the trailer fields, completing the
    /// message (the connection stays usable under keep-alive).
    pub fn finish(mut self, trailers: &[(&str, String)]) -> io::Result<()> {
        self.flush_chunk()?;
        self.frame.clear();
        self.frame.extend_from_slice(b"0\r\n");
        for (name, value) in trailers {
            write!(self.frame, "{name}: {value}\r\n")?;
        }
        self.frame.extend_from_slice(b"\r\n");
        self.writer.write_all(&self.frame)?;
        self.writer.flush()
    }
}

/// RFC 9110 §5.6.2 `tchar`: the bytes a header field name may contain.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read(raw: &str) -> ReadOutcome {
        let mut reader = BufReader::new(raw.as_bytes());
        read_request(&mut reader, &mut Vec::new(), 1024).unwrap()
    }

    #[test]
    fn parses_get_with_params() {
        let out = read("GET /query?store=my%20db&x=a+b&flag HTTP/1.1\r\nHost: x\r\n\r\n");
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/query");
                assert_eq!(req.param("store"), Some("my db"));
                assert_eq!(req.param("x"), Some("a b"));
                assert_eq!(req.param("flag"), Some(""));
                assert_eq!(req.param("missing"), None);
                assert!(req.body.is_empty());
                assert!(!req.close);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_body_and_connection_close() {
        let out =
            read("POST /load HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello");
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.body_utf8(), Some("hello"));
                assert!(req.close);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let out = read("POST /load HTTP/1.1\r\nContent-Length: 99999\r\n\r\n");
        match out {
            ReadOutcome::Invalid { status, kind, .. } => {
                assert_eq!(status, 413);
                assert_eq!(kind, "payload_too_large");
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_and_unsupported_requests() {
        assert!(matches!(
            read("garbage\r\n\r\n"),
            ReadOutcome::Invalid { status: 400, .. }
        ));
        assert!(matches!(
            read("GET / HTTP/2.0\r\n\r\n"),
            ReadOutcome::Invalid { status: 505, .. }
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            ReadOutcome::Invalid { status: 400, .. }
        ));
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            ReadOutcome::Invalid { status: 400, .. }
        ));
        assert!(matches!(read(""), ReadOutcome::Closed));
        // Conflicting duplicate Content-Length headers are a smuggling
        // vector and must be rejected, not last-wins reconciled.
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 30\r\n\r\nhello"),
            ReadOutcome::Invalid { status: 400, .. }
        ));
        // Identical duplicates are tolerated.
        assert!(matches!(
            read("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"),
            ReadOutcome::Request(_)
        ));
    }

    #[test]
    fn content_length_must_be_digits_only() {
        for value in ["+12", "12x"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello world!");
            match read(&raw) {
                ReadOutcome::Invalid {
                    status,
                    kind,
                    message,
                } => {
                    assert_eq!((status, kind), (400, "bad_request"), "{value}");
                    assert!(message.contains("unparsable Content-Length"), "{message}");
                }
                other => panic!("`{value}` must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_lines_must_be_well_framed() {
        for (case, head) in [
            ("space before colon", "Content-Length : 12\r\n"),
            ("obs-fold", "Host: x\r\n Content-Length: 12\r\n"),
            ("no colon", "Content-Length 12\r\n"),
        ] {
            let raw = format!("POST / HTTP/1.1\r\n{head}\r\nhello world!");
            match read(&raw) {
                ReadOutcome::Invalid { status, kind, .. } => {
                    assert_eq!((status, kind), (400, "bad_request"), "{case}");
                }
                other => panic!("{case} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response() {
        let raw = "POST /load HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut reader = BufReader::new(raw.as_bytes());
        let mut interim = Vec::new();
        match read_request(&mut reader, &mut interim, 1024).unwrap() {
            ReadOutcome::Request(req) => assert_eq!(req.body_utf8(), Some("ok")),
            other => panic!("expected request, got {other:?}"),
        }
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        // No Expect header: nothing interim is written.
        let mut reader = BufReader::new("GET / HTTP/1.1\r\n\r\n".as_bytes());
        let mut interim = Vec::new();
        read_request(&mut reader, &mut interim, 1024).unwrap();
        assert!(interim.is_empty());
    }

    #[test]
    fn giant_head_lines_are_cut_off_at_the_cap() {
        // A request line (or header line) with no newline must not buffer
        // beyond MAX_HEAD_BYTES: the Take cap turns it into a 431.
        let giant = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
        let mut reader = BufReader::new(giant.as_bytes());
        assert!(matches!(
            read_request(&mut reader, &mut Vec::new(), 1024).unwrap(),
            ReadOutcome::Invalid { status: 431, .. }
        ));
        let giant_header = format!(
            "GET / HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
            "b".repeat(64 * 1024)
        );
        let mut reader = BufReader::new(giant_header.as_bytes());
        assert!(matches!(
            read_request(&mut reader, &mut Vec::new(), 1024).unwrap(),
            ReadOutcome::Invalid { status: 431, .. }
        ));
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%2Fb"), "a/b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("bad%2"), "bad%2");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("%E2%9C%B6"), "✶");
        // A sign is not a hex digit: the escape stays literal.
        assert_eq!(percent_decode("%+A"), "% A");
        assert_eq!(percent_decode_path("%+A"), "%+A");
    }

    #[test]
    fn path_decoding_keeps_plus_literal() {
        // `+` only means space in form-encoded query components; in the
        // path it is an ordinary character (RFC 3986).
        assert_eq!(percent_decode_path("/stores/a+b"), "/stores/a+b");
        assert_eq!(percent_decode_path("/stores/a%20b"), "/stores/a b");
        assert_eq!(percent_decode_path("/stores/a%2Bb"), "/stores/a+b");
        assert_eq!(percent_decode_path("bad%2"), "bad%2");
    }

    #[test]
    fn request_path_with_plus_survives_while_query_plus_decodes() {
        let out = read("GET /stores/a+b?x=a+b HTTP/1.1\r\nHost: x\r\n\r\n");
        match out {
            ReadOutcome::Request(req) => {
                assert_eq!(req.path, "/stores/a+b");
                assert_eq!(req.param("x"), Some("a b"));
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn response_writing_includes_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"a\":1}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"a\":1}"));
    }

    #[test]
    fn rejected_responses_can_carry_retry_after() {
        let mut out = Vec::new();
        let mut response = Response::new(429, "{}".into());
        response.retry_after = Some(2);
        write_response(&mut out, &response, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn chunked_responses_frame_body_and_trailers() {
        let mut out = Vec::new();
        let mut writer =
            ChunkedWriter::begin(&mut out, 200, false, &["X-Count"], Some("req-1")).unwrap();
        writer.write_text("{\"rows\":[").unwrap();
        writer.write_text("1,2,3]}").unwrap();
        writer.finish(&[("X-Count", "3".into())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("X-Request-Id: req-1\r\n"));
        assert!(text.contains("Trailer: X-Count\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Content-Length"));
        // One 16-byte chunk, terminal chunk, then the trailer.
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body, "10\r\n{\"rows\":[1,2,3]}\r\n0\r\nX-Count: 3");
        assert!(text.ends_with("\r\n\r\n"));
    }

    /// A sink that records every `write` (or vectored write) call it gets.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let mut n = 0;
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
                n += buf.len();
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_piece_is_one_write() {
        // A buffered response with every optional header: one write.
        let mut out = CountingWriter::default();
        let mut response = Response::new(429, "{\"a\":1}".into());
        response.retry_after = Some(2);
        response.request_id = Some("req-7".into());
        write_response(&mut out, &response, false).unwrap();
        assert_eq!(out.writes, 1);
        let mut plain = Vec::new();
        write_response(&mut plain, &response, false).unwrap();
        assert_eq!(out.bytes, plain);

        // A body larger than a chunk is not copied: head and body still
        // leave in one (vectored) write, byte-identical.
        let mut out = CountingWriter::default();
        let big = Response::ok("x".repeat(3 * CHUNK_BYTES));
        write_response(&mut out, &big, true).unwrap();
        assert_eq!(out.writes, 1);
        let mut plain = Vec::new();
        write_response(&mut plain, &big, true).unwrap();
        assert_eq!(out.bytes, plain);
        assert!(out.bytes.ends_with(big.body.as_bytes()));

        // A streamed response: one write for the head, one per chunk, one
        // for the terminal chunk plus every trailer.
        let mut out = CountingWriter::default();
        let mut writer =
            ChunkedWriter::begin(&mut out, 200, false, &["X-A", "X-B"], Some("req-8")).unwrap();
        writer.write_text(&"y".repeat(CHUNK_BYTES)).unwrap();
        writer.write_text(&"z".repeat(CHUNK_BYTES)).unwrap();
        writer.write_text("tail").unwrap();
        writer
            .finish(&[("X-A", "1".into()), ("X-B", "2".into())])
            .unwrap();
        assert_eq!(out.writes, 1 + 3 + 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.ends_with("\r\n4\r\ntail\r\n0\r\nX-A: 1\r\nX-B: 2\r\n\r\n"));
    }

    /// Accepts at most `cap` bytes per call, like a socket with a full buffer.
    struct ShortWriter {
        bytes: Vec<u8>,
        cap: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.cap - n);
                self.bytes.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_still_send_everything() {
        let big = Response::ok("0123456789".repeat(CHUNK_BYTES / 4));
        let mut plain = Vec::new();
        write_response(&mut plain, &big, false).unwrap();
        // Caps below, at and above the head's length split the message at
        // every kind of boundary.
        for cap in [1, 7, 64, 97, 4096] {
            let mut out = ShortWriter {
                bytes: Vec::new(),
                cap,
            };
            write_response(&mut out, &big, false).unwrap();
            assert_eq!(out.bytes, plain, "cap {cap}");
        }
    }

    #[test]
    fn chunked_writer_flushes_at_the_chunk_size() {
        let mut out = Vec::new();
        let mut writer = ChunkedWriter::begin(&mut out, 200, true, &[], None).unwrap();
        let big = "x".repeat(CHUNK_BYTES + 10);
        writer.write_text(&big).unwrap();
        // The full buffer was flushed as one chunk the moment it crossed the
        // threshold; the terminal chunk follows on finish.
        writer.finish(&[]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let chunk_header = format!("{:x}\r\n", CHUNK_BYTES + 10);
        assert!(text.contains(&chunk_header));
        assert!(text.ends_with("0\r\n\r\n"));
        assert!(!text.contains("Trailer"));
    }
}
