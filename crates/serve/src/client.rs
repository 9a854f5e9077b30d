//! A minimal blocking HTTP/1.1 client for loopback use.
//!
//! The conformance tests, the load generator and the serve example all
//! need the same few lines of "open a socket, write a request, parse a
//! response" — this module keeps them in one place. It is intentionally
//! not a general HTTP client: one host, `Content-Length` framing only,
//! keep-alive by default.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code plus body bytes.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (per `Content-Length`).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy; serving responses are always UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the server.
pub struct Connection {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Connection {
    /// Connects to `addr` with `timeout` applied to connect and reads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn open(addr: SocketAddr, timeout: Duration) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection { reader, stream })
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; malformed responses surface as
    /// `InvalidData`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.send(method, path, body)?;
        self.read_response()
    }

    /// Writes one request without waiting for the response (the pipelining
    /// half; pair with [`read_response`](Self::read_response)).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<()> {
        let body = body.unwrap_or("");
        write!(
            self.stream,
            "{method} {path} HTTP/1.1\r\nhost: loopback\r\ncontent-length: {}\r\n\r\n{body}",
            body.len(),
        )?;
        self.stream.flush()
    }

    /// Reads one response off the connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; malformed responses surface as
    /// `InvalidData`.
    pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated response headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("malformed content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse { status, body })
    }

    /// The raw stream (for tests that want to write split/partial bytes).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

/// One-shot convenience: open, request, close.
///
/// # Errors
///
/// Propagates socket errors.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    Connection::open(addr, Duration::from_secs(30))?.request(method, path, body)
}
