//! Driving one episode against a real `trial-serve` child process.

use crate::check::{check, Expect};
use crate::json::{self, Json};
use crate::wire::Conn;
use crate::workloads::{Episode, Req};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A `trial-serve` child on an ephemeral loopback port; killed and reaped
/// on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open, unread: the server prints a few more lines, and a closed
    /// pipe would make them fail.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server with its default flags and waits until it says it
    /// is listening. Environment switches that change its behaviour are
    /// cleared so every run serves under the same configuration.
    pub fn spawn(binary: &Path) -> io::Result<Server> {
        let mut command = Command::new(binary);
        command
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for switch in [
            "TRIAL_CHAOS",
            "TRIAL_DEFAULT_TIMEOUT_MS",
            "TRIAL_PROFILE_SAMPLE",
        ] {
            command.env_remove(switch);
        }
        let mut child = command.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut stdout = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("trial-serve exited before listening"));
            }
            if let Some(rest) = line.strip_prefix("trial-serve listening on http://") {
                break rest
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(io::Error::other)?;
            }
        };
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
        let kb = line.and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
        kb.map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One successful request of the measured block.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub template: usize,
    pub latency: Duration,
    pub first_byte: Duration,
    pub cached: bool,
}

/// What one caller saw over its block of rounds.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// Mean latency of each round's successful requests, in ms.
    pub round_means_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, req: &Req, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors
                .push(format!("{} {}: {why}", req.method, req.target));
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.round_means_ms.extend(other.round_means_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// A caller: one connection, and the epoch its store was last loaded at.
struct Caller {
    conn: Conn,
    epoch: Option<u64>,
}

impl Caller {
    /// Sends `req`, checks the response, and returns the sample if it
    /// passed. A request that fails — transport error, non-200, shed, or a
    /// body that differs from the reference — leaves no latency sample.
    fn call(&mut self, req: &Req, tally: &mut Tally) -> Option<Sample> {
        tally.attempted += 1;
        let (reply, timing) = match self.conn.send(req.method, &req.target, &req.body) {
            Ok(done) => done,
            Err(e) => {
                tally.fail(req, format!("transport: {e}"));
                return None;
            }
        };
        // Checking happens after the clock stopped: it costs the caller
        // think time, never latency.
        match check(&reply, &req.expect, self.epoch) {
            Ok(seen) => {
                if matches!(req.expect, Expect::Load { .. }) {
                    self.epoch = Some(seen.epoch);
                }
                Some(Sample {
                    template: req.template,
                    latency: timing.total,
                    first_byte: timing.first_byte,
                    cached: seen.cached,
                })
            }
            Err(why) => {
                tally.fail(req, why);
                None
            }
        }
    }

    fn block(&mut self, rounds: &[Vec<Req>]) -> Tally {
        let mut tally = Tally::default();
        for round in rounds {
            let before = tally.samples.len();
            for req in round {
                if let Some(sample) = self.call(req, &mut tally) {
                    tally.samples.push(sample);
                }
            }
            let done = &tally.samples[before..];
            if !done.is_empty() {
                let total: f64 = done.iter().map(|s| s.latency.as_secs_f64()).sum();
                tally.round_means_ms.push(total * 1e3 / done.len() as f64);
            }
        }
        tally
    }
}

/// The server's own counters, read from `/healthz` and `/metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    /// `trial_phase_duration_us_sum` per phase, in the server's order.
    pub phase_us: Vec<(String, f64)>,
}

impl Scrape {
    /// The movement of every counter from `before` to `self`.
    fn since(&self, before: &Scrape) -> Scrape {
        let was = |phase: &str| {
            before
                .phase_us
                .iter()
                .find(|(p, _)| p == phase)
                .map_or(0.0, |(_, v)| *v)
        };
        Scrape {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            rejected: self.rejected - before.rejected,
            phase_us: self
                .phase_us
                .iter()
                .map(|(p, v)| (p.clone(), v - was(p)))
                .collect(),
        }
    }

    /// Adds another block's movement to this one.
    pub fn add(&mut self, other: &Scrape) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.rejected += other.rejected;
        for (phase, value) in &other.phase_us {
            match self.phase_us.iter_mut().find(|(p, _)| p == phase) {
                Some((_, total)) => *total += value,
                None => self.phase_us.push((phase.clone(), *value)),
            }
        }
    }
}

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let mut get = |target: &str| -> Result<String, String> {
        let (reply, _) = conn.send("GET", target, "").map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("GET {target}: status {}", reply.status));
        }
        Ok(reply.body)
    };
    let health = get("/healthz")?;
    let health = json::parse(&health)?;
    let counter = |section: &str, name: &str| -> Result<u64, String> {
        let value = health
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64);
        value.ok_or_else(|| format!("/healthz has no {section}.{name}"))
    };
    let mut scrape = Scrape {
        cache_hits: counter("cache", "hits")?,
        cache_misses: counter("cache", "misses")?,
        rejected: counter("admission", "rejected")?,
        phase_us: Vec::new(),
    };
    for line in get("/metrics")?.lines() {
        let Some(rest) = line.strip_prefix("trial_phase_duration_us_sum{phase=\"") else {
            continue;
        };
        if let Some((phase, value)) = rest.split_once("\"} ") {
            let value = value.trim().parse::<f64>().map_err(|e| e.to_string())?;
            scrape.phase_us.push((phase.to_owned(), value));
        }
    }
    Ok(scrape)
}

/// What one episode produced.
#[derive(Debug)]
pub struct EpisodeResult {
    /// Spawn → listening, plus the load and warm-up round trips.
    pub setup_s: f64,
    /// Wall time of the measured block.
    pub block_s: f64,
    /// The measured block, all callers together.
    pub tally: Tally,
    pub peak_rss_mb: f64,
    /// How far the server's counters moved over the measured block.
    pub counters: Scrape,
}

/// Runs one episode on a fresh server: set-up, the measured block with all
/// callers started together, then (when `verify`) the untimed checks.
/// Set-up failures are errors — nothing after them would mean anything.
pub fn run_episode(
    binary: &Path,
    episode: &Episode,
    verify: bool,
) -> Result<EpisodeResult, String> {
    let spawned = Instant::now();
    let server =
        Server::spawn(binary).map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    let mut setup = spawned.elapsed();
    let open = || Conn::open(server.addr).map_err(|e| format!("cannot connect: {e}"));

    let mut first = Caller {
        conn: open()?,
        epoch: None,
    };
    let mut warmup = Tally::default();
    for req in &episode.setup {
        match first.call(req, &mut warmup) {
            Some(sample) => setup += sample.latency,
            None => return Err(format!("set-up failed: {}", warmup.errors.join("; "))),
        }
    }
    let epoch = first.epoch;

    let before = scrape(server.addr)?;
    let mut callers = vec![first];
    for _ in 1..episode.clients.len() {
        callers.push(Caller {
            conn: open()?,
            epoch,
        });
    }
    let barrier = Barrier::new(callers.len());
    let mut tally = Tally::default();
    let block_started = Instant::now();
    let mut after_block = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .into_iter()
            .zip(&episode.clients)
            .map(|(mut caller, rounds)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (caller.block(rounds), caller)
                })
            })
            .collect();
        let mut first = None;
        for handle in handles {
            let (block, caller) = handle.join().expect("a caller thread panicked");
            tally.absorb(block);
            first.get_or_insert(caller);
        }
        first.expect("an episode has at least one caller")
    });
    let block_s = block_started.elapsed().as_secs_f64();
    let after = scrape(server.addr)?;
    let peak_rss_mb = server.peak_rss_mb().map_err(|e| e.to_string())?;

    if verify {
        for req in &episode.verify {
            after_block.call(req, &mut tally);
        }
    }
    Ok(EpisodeResult {
        setup_s: setup.as_secs_f64(),
        block_s,
        tally,
        peak_rss_mb,
        counters: after.since(&before),
    })
}
