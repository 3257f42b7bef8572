//! The served side: a spawned `gpa-serve` process, and the one
//! kept-alive loopback connection the closed loop drives it through.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a server may take from spawn to its `listening on` line.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `gpa-serve`, killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    log: PathBuf,
}

impl Server {
    /// Spawn `gpa-serve` calibrating gtx285 at quick effort into the
    /// (empty) `cache_dir`, and wait for its `listening on` line. The
    /// access log (default level) goes to a file in `cache_dir`: a
    /// regular file never blocks the writer the way a full pipe would.
    pub fn spawn(bin: &Path, cache_dir: &Path, report_cache: bool) -> io::Result<Server> {
        std::fs::create_dir_all(cache_dir)?;
        let log = cache_dir.join("gpa-serve.log");
        let mut cmd = Command::new(bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--machines",
            "gtx285",
            "--effort",
            "quick",
        ])
        .arg("--cache-dir")
        .arg(cache_dir);
        if !report_cache {
            cmd.arg("--no-report-cache");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(&log)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let read = BufReader::new(stdout).read_line(&mut line).map(|_| line);
            let _ = tx.send(read);
        });
        let line = rx.recv_timeout(STARTUP_TIMEOUT);
        let mut server = Server {
            child,
            addr: String::new(),
            log,
        };
        if line.is_err() {
            // Killing the child closes its stdout, which ends the reader.
            server.stop();
        }
        reader.join().expect("stdout reader does not panic");
        let line = match line {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err(server.failure("no `listening on` line in time")),
        };
        match line.trim().strip_prefix("listening on http://") {
            Some(addr) => server.addr = addr.to_owned(),
            None => return Err(server.failure("exited before listening")),
        }
        Ok(server)
    }

    /// An error carrying the tail of the server's log.
    fn failure(&self, what: &str) -> io::Error {
        let log = std::fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        io::Error::other(format!("gpa-serve {what}: {}", tail.join(" | ")))
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One HTTP/1.1 keep-alive connection. `gpa-serve` ends a connection
/// after a fixed number of requests (`Connection: close`); the
/// connection then reopens before the next request, so at most one
/// socket is open at a time.
pub struct Connection {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    /// Times the connection was (re)opened.
    pub connects: u64,
}

/// A complete response.
pub struct Answer {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Connection {
    pub fn new(addr: &str) -> Connection {
        Connection {
            addr: addr.to_owned(),
            stream: None,
            connects: 0,
        }
    }

    /// Open the socket now, if it is not open, so that connecting does
    /// not fall inside the next timed roundtrip.
    pub fn ensure_open(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::with_capacity(64 * 1024, stream));
            self.connects += 1;
        }
        Ok(())
    }

    /// Send one complete request (from [`request_bytes`]) and read the
    /// whole response. Returns the answer and the roundtrip time, from
    /// the first byte written to the last byte read.
    pub fn roundtrip(&mut self, raw: &[u8]) -> io::Result<(Answer, Duration)> {
        self.ensure_open()?;
        let stream = self.stream.as_mut().expect("opened above");
        let start = Instant::now();
        let result = stream
            .get_mut()
            .write_all(raw)
            .and_then(|()| read_answer(stream));
        let elapsed = start.elapsed();
        match result {
            Ok((answer, keep)) => {
                if !keep {
                    self.stream = None;
                }
                Ok((answer, elapsed))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// `GET path`, reading the body as text.
    pub fn get(&mut self, path: &str) -> io::Result<String> {
        let (answer, _) = self.roundtrip(&request_bytes("GET", path, ""))?;
        if answer.status != 200 {
            return Err(io::Error::other(format!(
                "GET {path}: status {}",
                answer.status
            )));
        }
        String::from_utf8(answer.body).map_err(|_| io::Error::other("body is not UTF-8"))
    }
}

/// The complete bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n");
    if !body.is_empty() {
        raw.push_str("Content-Type: application/json\r\n");
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut raw = raw.into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// Read one `Content-Length`-framed response; the flag says whether the
/// server keeps the connection open.
fn read_answer(reader: &mut BufReader<TcpStream>) -> io::Result<(Answer, bool)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before a response".into()));
    }
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line `{}`", line.trim_end())))?;
    let mut length = None;
    let mut keep = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside response head".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keep = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok((Answer { status, body }, keep))
}

/// The value of an unlabelled Prometheus sample, if the family exists.
pub fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}
