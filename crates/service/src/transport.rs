//! Transport framing: how one JSON request/response pair travels over a
//! TCP connection.
//!
//! The protocol layer ([`crate::protocol`]) defines *what* the messages
//! are; a [`Transport`] defines *how they are framed*. Two framings are
//! supported, both speaking the identical JSON (v1 or v2, the framing
//! does not care):
//!
//! * [`LineTransport`] — the original newline-delimited framing: one
//!   JSON object per line, in both directions.
//! * [`HttpTransport`] — a minimal hand-rolled HTTP/1.1 server: the
//!   request JSON travels as a `POST /v2` body with a `Content-Length`
//!   header, the response as a `200 OK` JSON body. Keep-alive is the
//!   default (`Connection: close` honored); `GET /healthz` answers the
//!   `ping` op, so load balancers can probe without speaking JSON. No
//!   external dependency — the server implements exactly the HTTP/1.1
//!   subset described here, which is what curl and standard HTTP
//!   clients emit for a JSON POST.
//!
//! The one front end that `antlayer serve` and `antlayer route` share
//! ([`crate::frontend`]) serves every connection through this trait, so
//! adding a framing never touches the scheduler, cache, or routing
//! layers.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};

/// Longest accepted request (line or HTTP body). Generous — a
/// million-node graph with 1.5M edges encodes to ~25 MB — but bounded,
/// so a newline-free stream (or a hostile `Content-Length`) cannot grow
/// a buffer without limit.
pub const MAX_REQUEST_BYTES: u64 = 64 * 1024 * 1024;

/// Longest accepted HTTP request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The HTTP route carrying protocol requests.
pub const HTTP_LAYOUT_ROUTE: &str = "POST /v2";
/// The HTTP liveness route (answers the `ping` op).
pub const HTTP_HEALTH_ROUTE: &str = "GET /healthz";
/// The HTTP metrics route (Prometheus text exposition).
pub const HTTP_METRICS_ROUTE: &str = "GET /metrics";

/// How a connection's payloads are answered.
///
/// [`respond`](Handler::respond) maps one protocol request payload to
/// one response payload — the only method the line framing ever calls.
/// [`metrics`](Handler::metrics) serves `GET /metrics` on the HTTP
/// framing.
pub trait Handler {
    /// Answers one protocol request payload.
    fn respond(&mut self, line: &str) -> String;

    /// Renders the Prometheus metrics page.
    fn metrics(&mut self) -> String;
}

/// One connection-serving strategy: reads requests off the stream, calls
/// the handler once per request payload, writes the replies back.
pub trait Transport: Send + Sync + 'static {
    /// Serves one accepted connection until EOF, error, or (HTTP)
    /// `Connection: close`. [`Handler::respond`] maps one request
    /// payload to one response payload; transport-level failures
    /// (malformed framing, oversized requests) are answered by the
    /// transport itself.
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler);

    /// Writes a one-shot rejection (connection-cap overload) and closes.
    /// `error_line` is an already-encoded protocol error object.
    fn reject(&self, stream: TcpStream, error_line: &str);
}

/// The newline-delimited framing: one JSON object per line.
pub struct LineTransport;

impl Transport for LineTransport {
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler) {
        let mut reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let mut writer = BufWriter::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            // Bound each read: `take` caps how much one line may buffer.
            match (&mut reader).take(MAX_REQUEST_BYTES).read_line(&mut line) {
                Ok(0) => break, // clean EOF
                Ok(n) => {
                    if n as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
                        let _ = writeln!(
                            writer,
                            "{}",
                            crate::protocol::encode_error(&format!(
                                "request line exceeds {MAX_REQUEST_BYTES} bytes"
                            ))
                        );
                        let _ = writer.flush();
                        break;
                    }
                }
                Err(_) => break,
            }
            if line.trim().is_empty() {
                continue;
            }
            let reply = handler.respond(line.trim_end());
            if writeln!(writer, "{reply}")
                .and_then(|_| writer.flush())
                .is_err()
            {
                break;
            }
        }
    }

    fn reject(&self, stream: TcpStream, error_line: &str) {
        let mut w = BufWriter::new(&stream);
        let _ = writeln!(w, "{error_line}");
        let _ = w.flush();
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// One parsed HTTP request head.
struct HttpHead {
    method: String,
    path: String,
    content_length: Option<u64>,
    close: bool,
}

/// Why reading a head failed, mapped to the HTTP status that answers it.
enum HeadError {
    /// Clean EOF between requests — the keep-alive loop just ends.
    Eof,
    /// I/O failure mid-head; nothing sensible can be written back.
    Io,
    /// Malformed framing; answered with this status, then close.
    Bad(u16, &'static str),
}

/// The minimal hand-rolled HTTP/1.1 framing (`POST /v2` bodies).
pub struct HttpTransport;

impl Transport for HttpTransport {
    fn serve(&self, stream: TcpStream, handler: &mut dyn Handler) {
        let mut reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let mut writer = BufWriter::new(stream);
        loop {
            let head = match read_head(&mut reader) {
                Ok(head) => head,
                Err(HeadError::Eof) | Err(HeadError::Io) => return,
                Err(HeadError::Bad(status, reason)) => {
                    // Framing is broken; the stream cannot be resynced.
                    let body = crate::protocol::encode_error(reason);
                    let _ = write_http(&mut writer, status, &body);
                    return;
                }
            };
            let route = format!("{} {}", head.method, head.path);
            let (status, reply) = match route.as_str() {
                HTTP_LAYOUT_ROUTE => {
                    let Some(length) = head.content_length else {
                        let body = crate::protocol::encode_error(
                            "invalid request: POST /v2 needs a Content-Length header",
                        );
                        let _ = write_http(&mut writer, 411, &body);
                        return;
                    };
                    if length > MAX_REQUEST_BYTES {
                        let body = crate::protocol::encode_error(&format!(
                            "request body exceeds {MAX_REQUEST_BYTES} bytes"
                        ));
                        let _ = write_http(&mut writer, 413, &body);
                        return;
                    }
                    // read_exact handles partial reads: the body may
                    // arrive in any number of TCP segments.
                    let mut body = vec![0u8; length as usize];
                    if reader.read_exact(&mut body).is_err() {
                        return;
                    }
                    let Ok(body) = String::from_utf8(body) else {
                        let body = crate::protocol::encode_error("bad JSON: body is not UTF-8");
                        let _ = write_http(&mut writer, 400, &body);
                        return;
                    };
                    // Application-level errors (bad JSON included) are a
                    // 200 with `ok:false`, matching the TCP framing's
                    // behavior: the connection stays usable.
                    (200, handler.respond(body.trim()))
                }
                HTTP_HEALTH_ROUTE => (200, handler.respond(r#"{"op":"ping"}"#)),
                HTTP_METRICS_ROUTE => {
                    // Prometheus text exposition, not JSON: typed
                    // accordingly and written directly.
                    let text = handler.metrics();
                    if write_http_typed(&mut writer, 200, METRICS_CONTENT_TYPE, &text).is_err()
                        || head.close
                    {
                        return;
                    }
                    continue;
                }
                _ => {
                    // Close after answering, as PROTOCOL.md promises for
                    // every 4xx. Read the declared body first: closing a
                    // socket with unread bytes makes the kernel send a
                    // reset, which can destroy the answer before the
                    // client reads it.
                    if let Some(length) = head.content_length.filter(|&n| n <= MAX_REQUEST_BYTES) {
                        let _ =
                            std::io::copy(&mut (&mut reader).take(length), &mut std::io::sink());
                    }
                    let known = ["/v2", "/healthz", "/metrics"];
                    let status = if known.contains(&head.path.as_str()) {
                        405
                    } else {
                        404
                    };
                    let reply = crate::protocol::encode_error(&format!(
                        "unknown op 'http route {route}' (this server serves \
                         POST /v2, GET /healthz, and GET /metrics)"
                    ));
                    let _ = write_http(&mut writer, status, &reply);
                    return;
                }
            };
            if write_http(&mut writer, status, &reply).is_err() || head.close {
                return;
            }
        }
    }

    fn reject(&self, stream: TcpStream, error_line: &str) {
        let mut w = BufWriter::new(&stream);
        let _ = write_http(&mut w, 503, error_line);
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Reads one request head: the request line plus headers, up to the
/// blank line. `read_line` loops internally, so a head split across any
/// number of TCP segments (partial reads) assembles correctly.
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<HttpHead, HeadError> {
    let mut line = String::new();
    let mut total = 0usize;
    // Request line. Tolerate a leading blank line (robustness note in
    // RFC 9112 §2.2).
    loop {
        line.clear();
        match (reader as &mut dyn BufRead)
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)
        {
            Ok(0) => return Err(HeadError::Eof),
            Ok(n) => total += n,
            Err(_) => return Err(HeadError::Io),
        }
        if total > MAX_HEAD_BYTES {
            return Err(HeadError::Bad(431, "request head too large"));
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    let mut parts = line.trim_end().split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HeadError::Bad(400, "malformed HTTP request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HeadError::Bad(505, "only HTTP/1.x is supported"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut head = HttpHead {
        method: method.to_string(),
        path: path.to_string(),
        content_length: None,
        close: version == "HTTP/1.0",
    };
    // Headers until the blank line.
    loop {
        line.clear();
        match (reader as &mut dyn BufRead)
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)
        {
            Ok(0) => return Err(HeadError::Bad(400, "truncated HTTP head")),
            Ok(n) => total += n,
            Err(_) => return Err(HeadError::Io),
        }
        if total > MAX_HEAD_BYTES {
            return Err(HeadError::Bad(431, "request head too large"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HeadError::Bad(400, "malformed HTTP header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<u64>() {
                Ok(n) => head.content_length = Some(n),
                Err(_) => return Err(HeadError::Bad(400, "malformed Content-Length")),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                head.close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                head.close = false;
            }
        }
        // Every other header is tolerated and ignored.
    }
}

/// Content type of the `GET /metrics` page (Prometheus text exposition).
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Writes one HTTP/1.1 response with a JSON body (a trailing newline is
/// appended and counted, so `curl` output ends cleanly).
fn write_http(writer: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_http_typed(writer, status, "application/json", body)
}

/// [`write_http`] with an explicit content type (`GET /metrics` serves
/// Prometheus text, not JSON).
fn write_http_typed(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    };
    // A trailing newline is appended and counted; for the metrics page
    // it is only added when the body does not already end with one
    // (Prometheus text ends each sample with '\n').
    let newline = if body.ends_with('\n') { "" } else { "\n" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}{newline}",
        body.len() + newline.len()
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_constants_match_what_serve_dispatches_on() {
        // The docs-check script greps these literals; the dispatch above
        // compares against the same constants, so they cannot drift.
        assert_eq!(HTTP_LAYOUT_ROUTE, "POST /v2");
        assert_eq!(HTTP_HEALTH_ROUTE, "GET /healthz");
        assert_eq!(HTTP_METRICS_ROUTE, "GET /metrics");
    }

    #[test]
    fn metrics_page_is_typed_as_prometheus_text() {
        let mut out = Vec::new();
        write_http_typed(&mut out, 200, METRICS_CONTENT_TYPE, "m_total 1\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        // The body already ends with '\n'; no second newline is added.
        assert!(head.contains("Content-Length: 10"), "{head}");
        assert_eq!(body, "m_total 1\n");
    }

    #[test]
    fn http_response_lengths_are_exact() {
        let mut out = Vec::new();
        write_http(&mut out, 200, r#"{"ok":true}"#).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(head.contains("Content-Length: 12"));
        assert_eq!(body, "{\"ok\":true}\n");
    }
}
