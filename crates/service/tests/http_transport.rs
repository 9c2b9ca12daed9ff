//! Edge-case tests of the hand-rolled HTTP/1.1 transport, driven with a
//! raw socket so the framing itself is what is under test: partial
//! reads, oversized `Content-Length`, pipelined keep-alive requests,
//! and malformed request lines.

use antlayer_service::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spawn_http_server() -> (antlayer_service::ServerHandle, std::net::SocketAddr) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    })
    .unwrap();
    let handle = server.spawn().unwrap();
    let http = handle.http_addr().expect("http listener");
    (handle, http)
}

/// Reads one HTTP response off the stream; returns (status line, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (String, String) {
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (
        status.trim_end().to_string(),
        String::from_utf8(body).unwrap().trim_end().to_string(),
    )
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

#[test]
fn post_v2_round_trip_and_healthz() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let body =
        r#"{"v":2,"op":"layout","id":1,"body":{"nodes":3,"edges":[[0,1],[1,2]],"algo":"lpl"}}"#;
    write!(
        stream,
        "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"v\":2"), "{reply}");
    assert!(reply.contains("\"id\":1"), "{reply}");

    // Keep-alive: the same connection serves a health probe next.
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(reply.contains("\"op\":\"ping\""), "{reply}");
    handle.shutdown();
}

#[test]
fn partial_reads_assemble_one_request() {
    // The head and body arrive in five separate TCP segments; the
    // server must assemble them into one request.
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let body = r#"{"op":"ping"}"#;
    let message = format!(
        "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let bytes = message.as_bytes();
    for chunk in bytes.chunks(bytes.len() / 5 + 1) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(reply.contains("\"op\":\"ping\""), "{reply}");
    handle.shutdown();
}

#[test]
fn pipelined_keepalive_requests_answer_in_order() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let ping = r#"{"op":"ping"}"#;
    let stats = r#"{"op":"stats"}"#;
    // Both requests written back to back before any reply is read.
    let mut pipelined = String::new();
    for body in [ping, stats] {
        pipelined.push_str(&format!(
            "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
    }
    stream.write_all(pipelined.as_bytes()).unwrap();
    let (status1, reply1) = read_response(&mut reader);
    let (status2, reply2) = read_response(&mut reader);
    assert!(status1.starts_with("HTTP/1.1 200"), "{status1}");
    assert!(reply1.contains("\"op\":\"ping\""), "{reply1}");
    assert!(status2.starts_with("HTTP/1.1 200"), "{status2}");
    assert!(reply2.contains("\"op\":\"stats\""), "{reply2}");
    handle.shutdown();
}

#[test]
fn oversized_content_length_is_rejected_and_closes() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    write!(
        stream,
        "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: 99999999999\r\n\r\n"
    )
    .unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 413"), "{status}");
    assert!(reply.contains("request body exceeds"), "{reply}");
    // The connection closes after a framing rejection.
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0);
    handle.shutdown();
}

#[test]
fn missing_content_length_is_411() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    write!(stream, "POST /v2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 411"), "{status}");
    handle.shutdown();
}

#[test]
fn malformed_request_line_is_400() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    write!(stream, "COMPLETE NONSENSE\r\n\r\n").unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    assert!(reply.contains("malformed"), "{reply}");
    handle.shutdown();
}

#[test]
fn unknown_route_is_404_known_route_wrong_method_is_405() {
    let (handle, http) = spawn_http_server();
    // An unrouted POST may carry a body the server never reads; the
    // connection must close after the 4xx (as PROTOCOL.md promises) so
    // the unread body cannot desync a keep-alive stream.
    let (mut stream, mut reader) = connect(http);
    let body = r#"{"op":"ping"}"#;
    write!(
        stream,
        "POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_to_string(&mut rest).unwrap(),
        0,
        "routing errors close the connection"
    );

    let (mut stream, mut reader) = connect(http);
    write!(stream, "GET /v2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 405"), "{status}");
    handle.shutdown();
}

#[test]
fn unrouted_post_with_a_large_body_gets_its_404_then_eof() {
    // The server reads the declared body before it closes: closing with
    // unread bytes makes the kernel reset the connection, which can
    // destroy the 404 before the client reads it.
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let body = vec![b' '; 64 * 1024];
    write!(
        stream,
        "POST /nope HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(&body).unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
    assert!(reply.contains("unknown op"), "{reply}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_to_string(&mut rest).unwrap(),
        0,
        "the connection ends with EOF, not a reset"
    );
    handle.shutdown();
}

#[test]
fn bad_json_body_is_200_with_protocol_error() {
    // Matching the TCP framing: a malformed payload is an application
    // error, the connection stays usable.
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let body = "this is not json";
    write!(
        stream,
        "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(reply.contains("bad JSON"), "{reply}");
    // Still serving.
    let body = r#"{"op":"ping"}"#;
    write!(
        stream,
        "POST /v2 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, reply) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    handle.shutdown();
}

#[test]
fn http_10_defaults_to_close() {
    let (handle, http) = spawn_http_server();
    let (mut stream, mut reader) = connect(http);
    let body = r#"{"op":"ping"}"#;
    write!(
        stream,
        "POST /v2 HTTP/1.0\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_to_string(&mut rest).unwrap(),
        0,
        "HTTP/1.0 without keep-alive closes after the response"
    );
    handle.shutdown();
}
