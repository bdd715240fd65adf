//! Shared plumbing: seeded randomness, quantiles, pair digests, peak-RSS
//! probes, serve-node child processes, and the result record.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input and every traffic decision.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-independent digest of a pair list: `(count, Σ mix(pair))`.
pub fn pair_digest(pairs: impl IntoIterator<Item = (u32, u32)>) -> (u64, u64) {
    let mut count = 0u64;
    let mut sum = 0u64;
    for (a, b) in pairs {
        count += 1;
        sum = sum.wrapping_add(mix((u64::from(a) << 32) | u64::from(b)));
    }
    (count, sum)
}

/// Quantile `q` of `values` (nearest rank on a sorted copy); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `setup` at least three times and until a second has gone (at most
/// 50 times), dropping each result before the next run; returns the median
/// duration and the last result.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 50) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&times), last.expect("set up at least once")))
}

/// Exact Jaccard similarity of two sorted, deduplicated sets.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Peak resident set (`VmHWM`) of a process in KiB; `pid = None` reads
/// this process.
pub fn vmhwm_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A generated set of `size` distinct elements from `0..domain`, sorted.
pub fn random_set(rng: &mut Rng, size: usize, domain: u32) -> Vec<u32> {
    let mut set = Vec::with_capacity(size);
    while set.len() < size {
        let e = rng.below(u64::from(domain)) as u32;
        if !set.contains(&e) {
            set.push(e);
        }
    }
    set.sort_unstable();
    set
}

/// `base` with one element swapped for a fresh one: Jaccard 9/11 ≈ 0.82
/// against a size-10 original, so it matches at γ = 0.8.
pub fn near_copy(rng: &mut Rng, base: &[u32], domain: u32) -> Vec<u32> {
    let mut set = base.to_vec();
    let slot = rng.below(set.len() as u64) as usize;
    loop {
        let e = rng.below(u64::from(domain)) as u32;
        if !set.contains(&e) {
            set[slot] = e;
            break;
        }
    }
    set.sort_unstable();
    set
}

/// Renders `{"op":<op>,"set":[..]}`.
pub fn set_line(op: &str, set: &[u32]) -> String {
    let mut line = format!("{{\"op\":\"{op}\",\"set\":[");
    for (i, e) in set.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&e.to_string());
    }
    line.push_str("]}");
    line
}

/// One `ssjoin serve` process: this binary re-entered through its
/// `ssjoin` mode, which runs exactly what the `ssjoin` binary runs.
pub struct Node {
    child: Child,
    pub addr: String,
}

impl Node {
    /// Starts `ssjoin serve --addr 127.0.0.1:0 <args>` and waits until it
    /// prints its listening address (stderr goes to `log`).
    pub fn start(args: &[String], log: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(exe);
        cmd.args(["ssjoin", "serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file);
        let child = cmd.spawn().map_err(|e| format!("spawn serve node: {e}"))?;
        let mut node = Node {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The line may arrive in pieces: use it only once it is complete.
            let line = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((line, _)) = line {
                let addr = line.split_whitespace().next().unwrap_or_default();
                addr.parse::<std::net::SocketAddr>()
                    .map_err(|e| format!("serve node printed a bad address {addr:?}: {e}"))?;
                node.addr = addr.to_string();
                return Ok(node);
            }
            if let Ok(Some(status)) = node.child.try_wait() {
                return Err(format!("serve node exited early ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("serve node did not start: {text}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory of the node so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vmhwm_kb(Some(self.child.id())).unwrap_or(0) as f64 / 1024.0
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A persistent NDJSON client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line and reads the reply into `self.line`.
    pub fn call(&mut self, req: &str) -> std::io::Result<&str> {
        self.send(req)?;
        self.recv()
    }

    /// Writes one request line in a single segment; works on blocking and
    /// non-blocking sockets alike.
    pub fn send(&mut self, req: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(req.len() + 1);
        buf.extend_from_slice(req.as_bytes());
        buf.push(b'\n');
        let mut off = 0;
        while off < buf.len() {
            match self.writer.write(&buf[off..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(20));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    pub fn reader_mut(&mut self) -> &mut BufReader<TcpStream> {
        &mut self.reader
    }
}

/// A workload's result: counts plus named metrics, printed as the final
/// JSON line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Per-run scratch directory, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, name: &str) -> std::io::Result<Self> {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
