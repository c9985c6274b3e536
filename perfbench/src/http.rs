//! A minimal HTTP/1.1 client for the release server: one request per
//! connection, as the server closes after every response.

use std::io::{Read, Write};
use std::net::TcpStream;

use dpsyn::server::Json;

/// Sends one request and returns `(status, parsed JSON body)`.
pub fn call(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: reply has no body"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let json = Json::parse(payload).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok((status, json))
}
