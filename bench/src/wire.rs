//! The HTTP/1.1 client the load generator drives the server with: one
//! keep-alive connection per caller, `Content-Length` and chunked bodies,
//! trailers, and the two clocks a caller sees (first byte, last byte).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One complete response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// `true` when the body arrived with chunked transfer encoding.
    pub chunked: bool,
    /// Trailer fields of a chunked response, names lower-cased.
    pub trailers: Vec<(String, String)>,
    /// Response header fields, names lower-cased.
    headers: Vec<(String, String)>,
}

impl Reply {
    pub fn trailer(&self, name: &str) -> Option<&str> {
        let field = self.trailers.iter().find(|(k, _)| k == name);
        field.map(|(_, v)| v.as_str())
    }

    fn header(&self, name: &str) -> Option<&str> {
        let field = self.headers.iter().find(|(k, _)| k == name);
        field.map(|(_, v)| v.as_str())
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one line ending in CRLF, without the CRLF. End of input before the
/// line feed is an error: every caller is inside a message.
fn read_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match line.strip_suffix("\r\n") {
        Some(text) => Ok(text.to_owned()),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside a message",
        )),
    }
}

/// Reads `name: value` lines up to the blank line.
fn read_fields<R: BufRead>(reader: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut fields = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(fields);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("field without `:`"))?;
        fields.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
}

/// Reads one response — status line, headers, body, trailers — and fails
/// on anything short of a complete, well-framed message: a body shorter
/// than its `Content-Length`, a chunk cut short, or a chunk stream that
/// ends without its terminal `0` chunk are all errors, never a partial
/// [`Reply`].
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let (version, code) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("not an HTTP/1 status line: `{status_line}`")));
    }
    let status = code
        .parse::<u16>()
        .map_err(|_| bad("unparsable status code"))?;
    let mut reply = Reply {
        status,
        body: String::new(),
        chunked: false,
        trailers: Vec::new(),
        headers: read_fields(reader)?,
    };
    let mut body = Vec::new();
    if reply
        .header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        reply.chunked = true;
        loop {
            let size_line = read_line(reader)?;
            let hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(hex, 16).map_err(|_| bad("unparsable chunk size"))?;
            if size == 0 {
                reply.trailers = read_fields(reader)?;
                break;
            }
            let start = body.len();
            body.resize(start + size, 0);
            reader.read_exact(&mut body[start..])?;
            if !read_line(reader)?.is_empty() {
                return Err(bad("chunk data not followed by CRLF"));
            }
        }
    } else {
        let length = reply
            .header("content-length")
            .ok_or_else(|| bad("no body framing"))?;
        let length = length
            .parse::<usize>()
            .map_err(|_| bad("unparsable Content-Length"))?;
        body.resize(length, 0);
        reader.read_exact(&mut body)?;
    }
    reply.body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(reply)
}

/// How long a response took, from the caller's side.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Request written → first response byte readable.
    pub first_byte: Duration,
    /// Request written → last byte (trailers included) read.
    pub total: Duration,
}

/// A keep-alive connection to the server.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
}

/// A server that stops answering must fail the request, not hang the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            addr,
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    /// Sends one request and reads its response. After an error the
    /// connection is replaced, so the next call starts clean.
    pub fn send(&mut self, method: &str, target: &str, body: &str) -> io::Result<(Reply, Timing)> {
        let result = self.exchange(method, target, body);
        if result.is_err() {
            if let Ok(fresh) = Conn::open(self.addr) {
                *self = fresh;
            }
        }
        result
    }

    fn exchange(&mut self, method: &str, target: &str, body: &str) -> io::Result<(Reply, Timing)> {
        let mut message = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        message.push_str(body);
        let start = Instant::now();
        self.reader.get_mut().write_all(message.as_bytes())?;
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
        }
        let first_byte = start.elapsed();
        let reply = read_reply(&mut self.reader)?;
        Ok((
            reply,
            Timing {
                first_byte,
                total: start.elapsed(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(raw: &str) -> io::Result<Reply> {
        read_reply(&mut raw.as_bytes())
    }

    const STREAMED: &str = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Trial-Count\r\n\r\n\
        5\r\n{\"a\":\r\n3\r\n[1]\r\n1\r\n}\r\n0\r\nX-Trial-Count: 1\r\nX-Trial-Truncated: false\r\n\r\n";

    #[test]
    fn reads_buffered_and_chunked_bodies_with_trailers() {
        let reply = read("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(
            (reply.status, reply.body.as_str(), reply.chunked),
            (404, "{}", false)
        );
        let reply = read(STREAMED).unwrap();
        assert_eq!(
            (reply.status, reply.body.as_str(), reply.chunked),
            (200, "{\"a\":[1]}", true)
        );
        assert_eq!(reply.trailer("x-trial-count"), Some("1"));
        assert_eq!(reply.trailer("x-trial-truncated"), Some("false"));
    }

    /// Every proper prefix of a chunked response — cut inside the head, a
    /// size line, chunk data, or before the terminal chunk and trailers —
    /// must be an error, never a shorter reply.
    #[test]
    fn a_truncated_chunk_stream_is_an_error() {
        for cut in 0..STREAMED.len() {
            assert!(
                read(&STREAMED[..cut]).is_err(),
                "accepted a stream cut at byte {cut}"
            );
        }
        assert!(read("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}").is_err());
        assert!(read("HTTP/1.1 200 OK\r\n\r\n{}").is_err());
    }
}
