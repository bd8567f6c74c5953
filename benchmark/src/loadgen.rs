//! Open-loop load generation: request `i` is due at `t0 + i/rate` no
//! matter how fast the server answers, so a stall shows up as latency on
//! the requests behind it instead of being hidden by back-pressure.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::{Client, Reply};

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered 200 with the expected output.
    Correct,
    /// Answered 200 with a different output.
    Wrong,
    /// Answered with an error status (refused, shed or timed out
    /// server-side).
    Refused,
    /// No usable answer: transport failure or client-side timeout.
    Failed,
}

/// One request's timeline, in microseconds since the schedule's start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub index: usize,
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency as an independent user sees it: from when the request was
    /// due, not from when the generator got round to sending it.
    pub fn latency_us(&self) -> u64 {
        self.done_us - self.due_us
    }

    /// How late the generator sent the request.
    pub fn late_us(&self) -> u64 {
        self.sent_us - self.due_us
    }
}

/// A fixed-rate schedule over keep-alive connections.
pub struct Schedule {
    pub addr: SocketAddr,
    /// Requests per second, all connections together.
    pub rate: f64,
    /// Requests in the schedule.
    pub total: usize,
    /// Connections (one generator thread each); connection `t` sends
    /// requests `t, t + connections, …`.
    pub connections: usize,
    /// Client-side bound on connect and on every read and write.
    pub timeout: Duration,
}

/// The result of one schedule.
pub struct LoadRun {
    /// One sample per request, ordered by index.
    pub samples: Vec<Sample>,
    /// Schedule start to last completion.
    pub elapsed: Duration,
    /// When the schedule started: the origin of the samples' clocks.
    pub started: Instant,
}

impl Schedule {
    /// Runs the schedule. `body(i)` is request `i`'s `POST /v1/infer`
    /// body and `check(i, reply)` says whether a 200 reply carries the
    /// right output.
    pub fn run<'a>(
        &self,
        body: &(dyn Fn(usize) -> &'a str + Sync),
        check: &(dyn Fn(usize, &Reply) -> bool + Sync),
    ) -> LoadRun {
        let t0 = Instant::now();
        let micros = |at: Instant| at.duration_since(t0).as_micros() as u64;
        let mut samples: Vec<Sample> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.connections)
                .map(|thread| {
                    s.spawn(move || {
                        let mut out = Vec::with_capacity(self.total / self.connections + 1);
                        let mut conn = Client::connect(self.addr, self.timeout).ok();
                        for index in (thread..self.total).step_by(self.connections) {
                            let due = t0 + Duration::from_secs_f64(index as f64 / self.rate);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            if conn.is_none() {
                                conn = Client::connect(self.addr, self.timeout).ok();
                            }
                            let sent = Instant::now();
                            let outcome =
                                match conn.as_mut().map(|c| c.post("/v1/infer", body(index))) {
                                    Some(Ok(reply)) if reply.status != 200 => Outcome::Refused,
                                    Some(Ok(reply)) if check(index, &reply) => Outcome::Correct,
                                    Some(Ok(_)) => Outcome::Wrong,
                                    Some(Err(_)) | None => {
                                        // the stream may be out of sync: reconnect
                                        conn = None;
                                        Outcome::Failed
                                    }
                                };
                            out.push(Sample {
                                index,
                                due_us: micros(due),
                                sent_us: micros(sent),
                                done_us: micros(Instant::now()),
                                outcome,
                            });
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("generator threads do not panic"))
                .collect()
        });
        samples.sort_by_key(|s| s.index);
        let last = samples.iter().map(|s| s.done_us).max().unwrap_or(0);
        LoadRun {
            samples,
            elapsed: Duration::from_micros(last),
            started: t0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// Answers every request on every connection with `{"i":<body>}`
    /// after `delay`, status 429 when the body is `refuse`.
    fn server(conns: usize, delay: Duration) -> (SocketAddr, Vec<std::thread::JoinHandle<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let threads = (0..conns)
            .map(|_| {
                let listener = listener.try_clone().unwrap();
                std::thread::spawn(move || {
                    let (stream, _) = listener.accept().unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    loop {
                        let mut length = 0;
                        loop {
                            let mut line = String::new();
                            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                                return;
                            }
                            if line.trim_end().is_empty() {
                                break;
                            }
                            if let Some(v) =
                                line.to_ascii_lowercase().strip_prefix("content-length:")
                            {
                                length = v.trim().parse().unwrap();
                            }
                        }
                        let mut body = vec![0u8; length];
                        reader.read_exact(&mut body).unwrap();
                        std::thread::sleep(delay);
                        let status = if body == b"refuse" { 429 } else { 200 };
                        write!(
                            writer,
                            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        )
                        .unwrap();
                        writer.write_all(&body).unwrap();
                    }
                })
            })
            .collect();
        (addr, threads)
    }

    #[test]
    fn schedule_times_from_due_and_classifies_outcomes() {
        let (addr, threads) = server(2, Duration::from_millis(30));
        let schedule = Schedule {
            addr,
            rate: 100.0,
            total: 10,
            connections: 2,
            timeout: Duration::from_secs(5),
        };
        let bodies: Vec<String> = (0..10).map(|i| i.to_string()).collect();
        let run = schedule.run(
            &|i| if i == 3 { "refuse" } else { &bodies[i] },
            &|i, reply| i != 4 && reply.body == bodies[i],
        );
        assert_eq!(run.samples.len(), 10);
        for (i, s) in run.samples.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.due_us, i as u64 * 10_000);
            assert!(s.due_us <= s.sent_us && s.sent_us <= s.done_us);
            let want = match i {
                3 => Outcome::Refused,
                4 => Outcome::Wrong,
                _ => Outcome::Correct,
            };
            assert_eq!(s.outcome, want, "request {i}");
        }
        // each connection is due every 20 ms but served in 30 ms: the
        // backlog must show as lateness and as latency from the due time
        let last = run.samples[9];
        assert!(last.late_us() >= 30_000, "late {}", last.late_us());
        assert!(last.latency_us() >= last.late_us() + 30_000);
        assert!(run.elapsed >= Duration::from_millis(150));
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn a_dead_server_fails_every_request_without_hanging() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let run = Schedule {
            addr,
            rate: 1000.0,
            total: 4,
            connections: 2,
            timeout: Duration::from_millis(200),
        }
        .run(&|_| "x", &|_, _| true);
        assert!(run.samples.iter().all(|s| s.outcome == Outcome::Failed));
    }
}
