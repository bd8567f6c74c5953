//! A minimal blocking HTTP/1.1 client: keep-alive, `Content-Length`
//! framing only — the subset the serving edge speaks. Owned by the
//! benchmark so that no change to the program can alter the client that
//! measures it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest reply body the client will allocate for.
const MAX_BODY: usize = 64 << 20;

/// One response: status code and body.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects, bounding the connect and every later read and write by
    /// `timeout`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // request/response traffic: Nagle plus delayed ACK would add
        // ~40 ms to every round trip
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends a `POST` with a JSON body and reads the reply.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Reply> {
        // head and body leave in one write so they share a segment
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.writer.write_all(&request)?;
        self.read_reply()
    }

    /// Sends a `GET` and reads the reply.
    pub fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        let request =
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Reply> {
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let eof = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("connection closed {what}"),
            )
        };
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(eof("before the status line"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("malformed status line `{}`", line.trim())))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(eof("inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .ok()
                        .filter(|&n| n <= MAX_BODY)
                        .ok_or_else(|| bad(format!("unusable Content-Length `{value}`")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8".to_string()))?;
        Ok(Reply { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection server answering each request with its own body.
    fn echo_server(requests: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            for _ in 0..requests {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line.trim_end().is_empty() {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; length];
                reader.read_exact(&mut body).unwrap();
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .unwrap();
                writer.write_all(&body).unwrap();
            }
        });
        (addr, thread)
    }

    #[test]
    fn keeps_one_connection_alive_across_requests() {
        let (addr, server) = echo_server(3);
        let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
        for body in ["{\"a\":1}", "", "{\"b\":[1,2,3]}"] {
            let reply = client.post("/echo", body).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, body);
        }
        server.join().unwrap();
        // the peer is gone: the next request is an error, not a hang
        assert!(client.get("/gone").is_err());
    }
}
