//! Server lifecycle: listener, fixed worker thread pool, shutdown.
//!
//! The shape is the classic std-only accept loop: one acceptor thread pulls
//! connections off a [`TcpListener`] and hands them to a fixed pool of
//! worker threads over an `mpsc` channel (workers share the receiver behind
//! a mutex). Each worker speaks HTTP/1.1 with keep-alive on its connection
//! and dispatches requests through [`crate::routes`]. All shared state lives
//! in one `Arc<ServerState>`; queries clone store snapshots out of the
//! registry and never hold a lock while evaluating.

use crate::admission::Admission;
use crate::cache::ResultCache;
use crate::chaos::Chaos;
use crate::http::{self, ReadOutcome, Response};
use crate::metrics::Metrics;
use crate::registry::StoreRegistry;
use crate::routes::{self, Routed};
use crate::trace::{FlightRecorder, Span};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trial_eval::{CancelReason, CancelToken, EvalOptions};

/// The stack of each connection worker. Parsing, planning, explaining and
/// opening a query's cursors all recurse on its tree, so the stack bounds
/// how deep a tree the server can answer: a union chain of
/// [`trial_parser::MAX_DEPTH`] operators needs most of the 2 MiB default
/// in a debug build, and this leaves it a fourfold margin.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// Configuration for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// Port to bind; 0 asks the OS for an ephemeral port.
    pub port: u16,
    /// Number of worker threads handling connections.
    pub workers: usize,
    /// Per-request body size limit in bytes (requests above it get `413`).
    pub max_body_bytes: usize,
    /// Result-cache capacity in entries of every kind together (0 disables
    /// the cache).
    pub cache_capacity: usize,
    /// Evaluation limits applied to **every** query. The defaults are much
    /// tighter than the library defaults because the input is untrusted: a
    /// bounded universe (`COMPL`/`U` cannot cube a large store) and a
    /// bounded number of star rounds.
    pub eval: EvalOptions,
    /// Read timeout per socket read on a kept-alive connection. Together
    /// with the 16 KiB head cap and the body limit this bounds what a slow
    /// client can make a worker buffer, but a deliberately drip-feeding
    /// client can still pin a blocking worker for a long time (classic
    /// slowloris) — an accepted trade-off of the thread-per-connection
    /// design; front the service with a reverse proxy if exposed to
    /// adversarial networks.
    pub read_timeout: Duration,
    /// Maximum number of named stores `/load` may create — together with
    /// `max_store_triples` this caps how much resident memory well-formed
    /// clients can pin, since stores have no expiry or delete endpoint.
    pub max_stores: usize,
    /// Maximum triples a single store may accumulate across loads; a load
    /// that would exceed it gets a structured `422`.
    pub max_store_triples: usize,
    /// Maximum concurrent query evaluations **per store** before admission
    /// control starts queueing and shedding (0 disables admission). Cache
    /// hits bypass admission entirely.
    pub admission_permits: usize,
    /// How many saturated requests per store may **wait** for a permit
    /// before further arrivals are rejected outright with `429`.
    pub admission_max_waiters: usize,
    /// How long a queued request waits for a permit before giving up with
    /// `429` (also the basis of the `Retry-After` hint).
    pub admission_wait: Duration,
    /// Flight-recorder capacity: keep this many slowest successful spans
    /// plus this many most-recent errored/shed spans (0 disables the
    /// recorder; `/debug/slow` then serves empty lists).
    pub flight_slots: usize,
    /// Default deadline applied to every fresh `/query` evaluation that does
    /// not choose its own with `?timeout_ms=` (`None` = no default; a
    /// per-request `?timeout_ms=0` opts out of the default explicitly).
    /// Expired queries get a structured `408 deadline_exceeded` on buffered
    /// responses and an `X-Trial-Error` trailer on chunked ones, and always
    /// release their admission permit, worker threads and exchange lanes.
    /// The `TRIAL_DEFAULT_TIMEOUT_MS` environment variable seeds the
    /// default (read once per process; 0 or unset = none).
    pub default_timeout: Option<Duration>,
    /// How long [`Server::drain`] waits for in-flight requests to finish on
    /// their own before cancelling the stragglers with
    /// [`trial_eval::CancelReason::Shutdown`].
    pub drain_grace: Duration,
    /// Fault-injection spec (see [`crate::chaos`]); `None` disables
    /// injection entirely. Seeded from the `TRIAL_CHAOS` environment
    /// variable, settable with `trial-serve --chaos`.
    pub chaos: Option<String>,
}

/// The process-wide default for [`ServerConfig::default_timeout`]: the
/// `TRIAL_DEFAULT_TIMEOUT_MS` environment variable if set to a positive
/// integer (read once), otherwise `None` (no server-side deadline). CI runs
/// the whole suite a second time with a low value to prove every test
/// finishes under an armed deadline without spurious 408s.
pub fn default_timeout_ms() -> Option<u64> {
    static DEFAULT: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TRIAL_DEFAULT_TIMEOUT_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
    })
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".into(),
            port: 0,
            workers: 4,
            max_body_bytes: 8 * 1024 * 1024,
            cache_capacity: 128,
            eval: EvalOptions {
                max_universe: 1_000_000,
                max_fixpoint_rounds: 10_000,
                ..EvalOptions::default()
            },
            read_timeout: Duration::from_secs(10),
            max_stores: 64,
            max_store_triples: 5_000_000,
            // Generous defaults: admission only bites when a store is
            // genuinely saturated, far beyond the default 4-worker pool.
            admission_permits: 64,
            admission_max_waiters: 64,
            admission_wait: Duration::from_millis(500),
            flight_slots: 16,
            default_timeout: default_timeout_ms().map(Duration::from_millis),
            drain_grace: Duration::from_secs(2),
            chaos: std::env::var("TRIAL_CHAOS").ok().filter(|s| !s.is_empty()),
        }
    }
}

/// The in-flight request registry: one armed [`CancelToken`] per fresh
/// evaluation, registered before admission and pruned lazily — a token whose
/// every other clone has been dropped ([`CancelToken::is_unique`]) belongs
/// to a finished request. [`Server::drain`] cancels whatever is left after
/// the grace window with [`CancelReason::Shutdown`].
#[derive(Debug, Default)]
pub(crate) struct Inflight {
    tokens: Mutex<Vec<CancelToken>>,
}

impl Inflight {
    /// Registers an armed token (inert tokens have nothing to cancel),
    /// pruning tokens whose requests have finished.
    pub(crate) fn register(&self, token: &CancelToken) {
        if !token.is_armed() {
            return;
        }
        let mut tokens = self
            .tokens
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tokens.retain(|t| !t.is_unique());
        tokens.push(token.clone());
    }

    /// The number of registered tokens whose requests are still live.
    pub(crate) fn live(&self) -> usize {
        let mut tokens = self
            .tokens
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tokens.retain(|t| !t.is_unique());
        tokens.len()
    }

    /// Cancels every live token with `reason` and empties the registry
    /// (latches are sticky — the running queries keep their clones).
    /// Returns how many were still live.
    pub(crate) fn cancel_all(&self, reason: CancelReason) -> usize {
        let mut tokens = self
            .tokens
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        tokens.retain(|t| !t.is_unique());
        for token in tokens.iter() {
            token.cancel(reason);
        }
        let live = tokens.len();
        tokens.clear();
        live
    }
}

/// Shared server state: the store registry, the result cache, evaluation
/// limits, and the observability surface (metrics + flight recorder).
///
/// The cache, the admission semaphore and the store registry sit behind
/// `Arc`s because the metric registry's fn-backed series read them at
/// scrape time — `/metrics` and `/healthz` observe the same atomics by
/// construction. Service counters live in [`Metrics`] for the same reason.
#[derive(Debug)]
pub struct ServerState {
    pub(crate) registry: Arc<StoreRegistry>,
    /// The result cache: one prefix-closed entry serves every `?limit=`
    /// up to its depth.
    pub(crate) cache: Arc<ResultCache>,
    /// Per-store admission semaphore; `Arc` so streaming responses can hold
    /// their permit across the whole chunked write.
    pub(crate) admission: Arc<Admission>,
    pub(crate) eval: EvalOptions,
    pub(crate) max_stores: usize,
    pub(crate) max_store_triples: usize,
    /// The metric registry behind `GET /metrics`, also owning the service
    /// counters `/healthz` reports.
    pub(crate) metrics: Metrics,
    /// Slow/errored request spans behind `GET /debug/slow`.
    pub(crate) recorder: FlightRecorder,
    pub(crate) started: Instant,
    /// The server-wide default deadline for fresh evaluations.
    pub(crate) default_timeout: Option<Duration>,
    /// Armed cancel tokens of in-flight requests, for the drain path.
    pub(crate) inflight: Inflight,
    /// The fault-injection plan (inert unless configured).
    pub(crate) chaos: Chaos,
    /// Set by [`Server::drain`]: new work is refused with a structured
    /// `503 shutdown` and keep-alive connections close after the response
    /// in flight.
    pub(crate) draining: AtomicBool,
}

impl ServerState {
    fn new(config: &ServerConfig) -> io::Result<Self> {
        let started = Instant::now();
        let registry = Arc::new(StoreRegistry::new());
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let admission = Arc::new(Admission::new(
            config.admission_permits,
            config.admission_max_waiters,
            config.admission_wait,
        ));
        let metrics = Metrics::new(&registry, &cache, &admission, started);
        let chaos = match &config.chaos {
            Some(spec) => Chaos::parse(spec)
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?,
            None => Chaos::none(),
        };
        Ok(ServerState {
            registry,
            cache,
            admission,
            eval: config.eval.clone(),
            max_stores: config.max_stores,
            max_store_triples: config.max_store_triples,
            metrics,
            recorder: FlightRecorder::new(config.flight_slots),
            started,
            default_timeout: config.default_timeout,
            inflight: Inflight::default(),
            chaos,
            draining: AtomicBool::new(false),
        })
    }
}

/// A running TriAL query service.
///
/// Dropping the handle shuts the server down and joins every thread; tests
/// and examples use [`Server::spawn_ephemeral`] for an in-process instance
/// on a free port.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    drain_grace: Duration,
}

impl Server {
    /// Binds and starts serving with `config`.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(&config)?);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            let max_body = config.max_body_bytes;
            let read_timeout = config.read_timeout;
            threads.push(
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || loop {
                        let next = rx.lock().expect("worker receiver lock poisoned").recv();
                        match next {
                            Ok(stream) => handle_connection(&state, stream, max_body, read_timeout),
                            Err(_) => break, // acceptor gone: shutdown
                        }
                    })?,
            );
        }

        let acceptor_shutdown = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            // `tx` lives in this thread; when the acceptor exits, the channel
            // closes and the workers drain out.
            for stream in listener.incoming() {
                if acceptor_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(_) => continue,
                }
            }
        }));

        Ok(Server {
            addr,
            state,
            shutdown,
            threads,
            drain_grace: config.drain_grace,
        })
    }

    /// Starts an in-process server on an OS-assigned port with default
    /// configuration — the entry point for tests and examples.
    pub fn spawn_ephemeral() -> io::Result<Server> {
        Server::spawn(ServerConfig::default())
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store registry, e.g. to preload workloads before serving traffic.
    pub fn registry(&self) -> &StoreRegistry {
        &self.state.registry
    }

    /// The result cache (counters are also served on `/healthz`).
    pub fn cache(&self) -> &ResultCache {
        &self.state.cache
    }

    /// The per-store admission semaphore (counters on `/healthz`). Returned
    /// as the `Arc` so tests and harnesses can hold permits of their own to
    /// saturate a store deterministically.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.state.admission
    }

    /// The metric surface served on `GET /metrics`.
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Stops accepting, drains the workers and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful shutdown with the configured grace window (see
    /// [`Server::drain_within`]).
    pub fn drain(self) -> Vec<Arc<Span>> {
        let grace = self.drain_grace;
        self.drain_within(grace)
    }

    /// Graceful shutdown: stop accepting new connections, refuse new work
    /// with a structured `503 shutdown`, give in-flight requests up to
    /// `grace` to finish on their own, then cancel the stragglers with
    /// [`CancelReason::Shutdown`] — cancelled evaluations unwind at their
    /// next checkpoint, release their admission permits and close their
    /// streams with an `X-Trial-Error: shutdown` trailer. Finally joins
    /// every thread and flushes the flight recorder, returning the retained
    /// spans so the process can log them before exiting.
    pub fn drain_within(mut self, grace: Duration) -> Vec<Arc<Span>> {
        // Refuse new work first, then stop accepting: a connection that
        // slips past the acceptor check still gets a clean 503.
        self.state.draining.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let deadline = Instant::now() + grace;
        while self.state.inflight.live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        self.state.inflight.cancel_all(CancelReason::Shutdown);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        self.state.recorder.flush()
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Serves one connection: requests in a keep-alive loop until the peer
/// closes, asks to close, errors, or times out.
fn handle_connection(
    state: &ServerState,
    stream: TcpStream,
    max_body: usize,
    read_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, &mut writer, max_body) {
            Ok(ReadOutcome::Request(request)) => {
                // A panicking handler must cost at most its own request:
                // without the catch, one panic per worker would silently
                // drain the whole pool while the acceptor keeps queueing.
                let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    routes::route(state, &request)
                }))
                .unwrap_or_else(|_| {
                    let mut response = Response::new(
                        500,
                        routes::error_body("internal", "request handler panicked", None),
                    );
                    response.request_id = request.request_id.clone();
                    Routed::Buffered(response)
                });
                match routed {
                    Routed::Buffered(response) => {
                        if http::write_response(&mut writer, &response, request.close).is_err() {
                            return;
                        }
                        if request.close {
                            return;
                        }
                    }
                    Routed::Stream(job) => {
                        // The job writes its own chunked head, body and
                        // trailers. A panic or I/O error mid-stream leaves
                        // the chunk stream without its terminal chunk — the
                        // client's truncation signal — and the only safe
                        // recovery is dropping the connection.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                job.run(state, &mut writer)
                            }));
                        match outcome {
                            Ok(Ok(true)) => {} // keep-alive continues
                            _ => return,
                        }
                    }
                }
                // A draining server finishes the response in flight, then
                // closes: keep-alive must not pin a worker past the grace
                // window.
                if state.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Invalid {
                status,
                kind,
                message,
            }) => {
                // Protocol-level failure: answer if possible, then drop the
                // connection (framing may be lost).
                let body = routes::error_body(kind, &message, None);
                let _ = http::write_response(&mut writer, &Response::new(status, body), true);
                return;
            }
            Err(_) => return, // timeout or broken socket
        }
    }
}
