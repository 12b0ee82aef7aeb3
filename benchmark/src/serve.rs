//! The `serve` engine: an in-process `sjoind::Server` on a loopback socket
//! and a line-timing client. The client is this package's own so it can
//! stamp send → first line → last line, time parsing apart from waiting, and
//! feed pairs to the checksum sink instead of a `Vec`.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use sjoind::{Json, Server, ServerConfig, ServerHandle};

use crate::workload::{Inputs, Kind, Sample, Wire, DURABLE, OPS};

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads one raw response line into `self.line`.
    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        Ok(())
    }

    /// One-line request/response round trip; an `error` reply is an `Err`.
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        self.send(line)?;
        self.read_line()?;
        let v = Json::parse(self.line.trim()).map_err(bad_data)?;
        match v.get("ok") {
            Some(ok) => Ok(ok.clone()),
            None => Err(bad_data(format!("refused: {}", self.line.trim()))),
        }
    }

    /// Sends a `join` request and consumes its whole stream.
    pub fn join(&mut self, op: usize, request: &str) -> Sample {
        let mut sample = Sample::started(op, Instant::now());
        if let Err(e) = self.stream(request, &mut sample) {
            sample.error = Some(e.to_string());
        }
        sample.end = Instant::now();
        sample
    }

    fn stream(&mut self, request: &str, sample: &mut Sample) -> io::Result<()> {
        self.send(request)?;
        let mut first_line = None;
        let mut parse_s = 0.0;
        let mut bytes = 0u64;
        loop {
            self.read_line()?;
            let arrived = Instant::now();
            first_line.get_or_insert(arrived);
            bytes += self.line.len() as u64;
            let v = Json::parse(self.line.trim()).map_err(bad_data)?;
            parse_s += arrived.elapsed().as_secs_f64();
            if let Some(batch) = v.get("pairs").and_then(Json::as_arr) {
                sample.first_pair.get_or_insert(arrived);
                for pair in batch {
                    match pair.as_arr() {
                        Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                            (Some(a), Some(b)) => sample.got.push(a, b),
                            _ => return Err(bad_data("non-integer pair in stream".into())),
                        },
                        _ => return Err(bad_data("malformed pair in stream".into())),
                    }
                }
            } else if let Some(done) = v.get("done") {
                let metrics = done
                    .get("metrics")
                    .ok_or_else(|| bad_data("done line carries no reconciled metrics".into()))?;
                sample.sim_io_s = metrics
                    .get("io_seconds")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad_data("metrics.io_seconds missing".into()))?;
                sample.phases = server_phases(metrics);
                sample.wire = Some(Wire {
                    first_line: first_line.unwrap_or(arrived),
                    last_line: arrived,
                    parse_s,
                    bytes,
                });
                return Ok(());
            } else {
                return Err(bad_data(format!("join failed: {}", self.line.trim())));
            }
        }
    }
}

/// The phase clocks the server attached to a `done` line, renamed to the
/// names [`crate::workload::phases`] uses so one per-layer table covers both engines.
fn server_phases(metrics: &Json) -> Vec<(&'static str, f64)> {
    let known = [
        ("partition", "partition"),
        ("repartition", "repart"),
        ("sort", "sort"),
        ("join", "join"),
    ];
    let Some(phases) = metrics.get("phases").and_then(Json::as_arr) else {
        return Vec::new();
    };
    phases
        .iter()
        .filter_map(|p| {
            let name = p.get("name")?.as_str()?;
            let cpu = p.get("cpu_seconds")?.as_f64()?;
            known
                .iter()
                .find(|(wire, _)| *wire == name)
                .map(|(_, ours)| (*ours, cpu))
        })
        .collect()
}

/// A running server with the workload's two relations registered as `r`/`s`.
pub struct Service {
    handle: ServerHandle,
    pub addr: SocketAddr,
    mem_mb: f64,
    threads: usize,
    /// Seconds the two `register` commands took together.
    pub register_s: f64,
}

impl Service {
    pub fn start(kind: Kind, seed: u64, scale: f64) -> io::Result<Service> {
        let handle = Server::new(ServerConfig::default()).start("127.0.0.1:0")?;
        let addr = handle.addr();
        let mut conn = Conn::connect(addr)?;
        let t0 = Instant::now();
        for (name, (source, fraction)) in ["r", "s"].into_iter().zip(kind.sources()) {
            conn.request(&format!(
                "{{\"cmd\":\"register\",\"name\":\"{name}\",\"source\":\"{source}\",\"scale\":{:?},\"seed\":{seed}}}",
                fraction * scale
            ))?;
        }
        Ok(Service {
            handle,
            addr,
            mem_mb: kind.mem_bytes() as f64 / (1 << 20) as f64,
            threads: kind.threads(),
            register_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The relations the server generated, rebuilt through the same
    /// `sjoind::proto::dataset` the `register` command calls.
    pub fn registered(kind: Kind, seed: u64, scale: f64) -> Result<Inputs, String> {
        let [(rs, rf), (ss, sf)] = kind.sources();
        Ok(Inputs {
            r: sjoind::proto::dataset(rs, rf * scale, seed)?,
            s: sjoind::proto::dataset(ss, sf * scale, seed)?,
        })
    }

    /// The request line of one op type. The four algorithms run cold,
    /// `durable` is served from the snapshot cache, `auto` lets the server's
    /// planner pick; `extra` appends members such as `,"limit":0`.
    pub fn request_line(&self, op: usize, extra: &str) -> String {
        self.line(op, self.threads, extra)
    }

    fn line(&self, op: usize, threads: usize, extra: &str) -> String {
        let what = match OPS[op] {
            "pbsm" => "\"algo\":\"pbsm\",\"reuse\":false",
            "pbsm_trie" => "\"algo\":\"pbsm-trie\",\"reuse\":false",
            "twolayer" => "\"algo\":\"twolayer\",\"reuse\":false",
            "s3j" => "\"algo\":\"s3j\",\"reuse\":false",
            "durable" => "\"algo\":\"pbsm\",\"reuse\":true",
            "auto" => "\"plan\":\"auto\"",
            other => unreachable!("unknown op {other}"),
        };
        format!(
            "{{\"cmd\":\"join\",\"left\":\"r\",\"right\":\"s\",{what},\"mem_mb\":{:?},\"threads\":{threads},\"metrics\":true{extra}}}",
            self.mem_mb
        )
    }

    /// Stores the post-partition snapshot every later `durable` op is served
    /// from; the first `reuse` request misses and warms the cache. It is sent
    /// with one thread whatever the workload joins with: on a miss with two,
    /// this `sjoind` answers `done` with zero results (the snapshot it stores
    /// is sound, and the cache key leaves the thread count out).
    pub fn warm_cache(&self, conn: &mut Conn) -> Sample {
        conn.join(DURABLE, &self.line(DURABLE, 1, ""))
    }

    /// Drains and stops the server, waiting for its threads.
    pub fn stop(self) -> io::Result<()> {
        Conn::connect(self.addr)?.request("{\"cmd\":\"shutdown\"}")?;
        self.handle.join();
        Ok(())
    }
}
