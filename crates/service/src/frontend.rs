//! The thread-per-connection front end that `antlayer serve` and
//! `antlayer route` share.
//!
//! A [`FrontEnd`] binds the line-TCP listener and the optional HTTP/1.1
//! listener; [`FrontEnd::spawn`] gives each an accept loop. The loops
//! share one connection cap (excess connections get an `overloaded`
//! error and are closed), set `TCP_NODELAY`, and serve every admitted
//! connection on a thread of its own through its [`Transport`] framing
//! and a fresh [`Handler`]. Live streams are registered, so shutdown
//! can sever them. The server and the router differ only in the handler
//! they supply and in one [`SideThread`] each (the live reactor, the
//! shard probe), which [`FrontEndHandle`] stops and joins with the
//! accept loops.
//!
//! [`RequestLog`] is the per-request log both keep: the end-to-end
//! latency histogram, the slow log keyed by the envelope id, and the
//! body of the `debug` op.

use crate::protocol::{self, Json};
use crate::transport::{Handler, HttpTransport, LineTransport, Transport};
use antlayer_obs::{Histogram, RemoteSpan, SlowLog, TraceEntry};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Slowest requests retained for the `debug` op. Small and fixed: the
/// log is a debugging aid (which requests hurt, and where their time
/// went), not a metrics store — the histograms are.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// Live connection streams, registered so shutdown can sever them. A
/// handler removes itself when its client disconnects; shutdown calls
/// `Shutdown::Both` on whatever is left, which makes every blocked
/// read return and the handler threads exit promptly — a stopped
/// process answers nothing, which is what fleet failover relies on.
#[derive(Default)]
struct ConnRegistry {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().insert(id, clone);
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().remove(&id);
    }

    fn sever_all(&self) {
        for (_, stream) in self.streams.lock().drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// State shared by the accept loops and every connection thread.
struct Shared {
    max_connections: usize,
    shutdown: AtomicBool,
    connections: AtomicUsize,
    registry: ConnRegistry,
}

/// Bound listeners, not yet serving.
pub struct FrontEnd {
    listener: TcpListener,
    addr: SocketAddr,
    http_listener: Option<(TcpListener, SocketAddr)>,
    max_connections: usize,
}

/// A thread that runs beside the accept loops, and the call that makes
/// it return at shutdown.
pub struct SideThread {
    thread: JoinHandle<()>,
    stop: Box<dyn FnOnce() + Send + Sync>,
}

impl SideThread {
    /// Runs `body` on a thread named `name`; shutdown calls `stop`, then
    /// joins the thread.
    pub fn spawn(
        name: &str,
        body: impl FnOnce() + Send + 'static,
        stop: impl FnOnce() + Send + Sync + 'static,
    ) -> std::io::Result<SideThread> {
        Ok(SideThread {
            thread: std::thread::Builder::new().name(name.into()).spawn(body)?,
            stop: Box::new(stop),
        })
    }
}

/// A front end serving on background threads; dropping it shuts it
/// down.
pub struct FrontEndHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    side: Option<SideThread>,
}

impl FrontEnd {
    /// Binds the line-TCP listener at `addr` and, when given, the HTTP
    /// listener at `http_addr` (port 0 picks a free one). At most
    /// `max_connections` connections are served at once, across both.
    pub fn bind(
        addr: &str,
        http_addr: Option<&str>,
        max_connections: usize,
    ) -> std::io::Result<FrontEnd> {
        let listener = TcpListener::bind(addr)?;
        let http_listener = match http_addr {
            Some(addr) => {
                let http = TcpListener::bind(addr)?;
                let bound = http.local_addr()?;
                Some((http, bound))
            }
            None => None,
        };
        Ok(FrontEnd {
            addr: listener.local_addr()?,
            listener,
            http_listener,
            max_connections,
        })
    }

    /// The bound line-TCP address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP address, when an HTTP listener exists.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener.as_ref().map(|(_, addr)| *addr)
    }

    /// Serves both listeners on background threads (`{name}-accept`,
    /// `{name}-http`), each connection through a handler made by
    /// `new_handler` on the connection's own thread. `side` is stopped
    /// and joined with the accept loops at shutdown.
    pub fn spawn<H, F>(
        self,
        name: &str,
        new_handler: F,
        side: Option<SideThread>,
    ) -> std::io::Result<FrontEndHandle>
    where
        H: Handler,
        F: Fn() -> H + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            max_connections: self.max_connections,
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            registry: ConnRegistry::default(),
        });
        // Built before any accept thread, so an early return below still
        // stops whatever is already running.
        let mut handle = FrontEndHandle {
            addr: self.addr,
            http_addr: self.http_addr(),
            shared: shared.clone(),
            threads: Vec::new(),
            side,
        };
        let new_handler = Arc::new(new_handler);
        let listeners: [(Option<TcpListener>, &'static dyn Transport, &str); 2] = [
            (
                self.http_listener.map(|(listener, _)| listener),
                &HttpTransport,
                "http",
            ),
            (Some(self.listener), &LineTransport, "accept"),
        ];
        for (listener, transport, suffix) in listeners {
            let Some(listener) = listener else {
                continue;
            };
            let (shared, new_handler) = (shared.clone(), new_handler.clone());
            handle.threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{suffix}"))
                    .spawn(move || accept_loop(&listener, transport, &shared, &new_handler))?,
            );
        }
        Ok(handle)
    }
}

impl FrontEndHandle {
    /// The line-TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP address, when an HTTP listener is serving.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Blocks while the front end serves: its accept loops return only
    /// at shutdown, so this is how a process serves in the foreground.
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the accept loops and the side thread, severs every live
    /// connection, and joins the threads. After this returns, the
    /// process answers nothing on its ports — clients (and routers)
    /// observe EOF or a reset, exactly like a crashed process, which is
    /// what failover tests and fleet health checks rely on.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake each accept loop so it observes the flag.
        for addr in std::iter::once(self.addr).chain(self.http_addr) {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        if let Some(side) = self.side.take() {
            (side.stop)();
            self.threads.push(side.thread);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Sever after the accept loops are gone so no new connection can
        // slip in post-drain.
        self.shared.registry.sever_all();
    }
}

impl Drop for FrontEndHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One accept loop: admission (connection cap), registration (so
/// shutdown can sever), and a thread per connection serving it through
/// `transport`.
fn accept_loop<H: Handler, F: Fn() -> H + Send + Sync + 'static>(
    listener: &TcpListener,
    transport: &'static dyn Transport,
    shared: &Arc<Shared>,
    new_handler: &Arc<F>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        // One small request, one small response: Nagle + delayed ACK
        // would add ~40 ms to every exchange.
        let _ = stream.set_nodelay(true);
        let active = shared.connections.fetch_add(1, Ordering::AcqRel) + 1;
        if active > shared.max_connections {
            shared.connections.fetch_sub(1, Ordering::AcqRel);
            transport.reject(
                stream,
                &protocol::encode_error(&format!(
                    "overloaded: {active} connections (cap {})",
                    shared.max_connections
                )),
            );
            continue;
        }
        // Register on the accept thread, not the handler: by the time
        // shutdown has joined this loop, every accepted connection is in
        // the registry, so sever_all cannot miss one that a handler
        // thread had not registered yet.
        let id = shared.registry.register(&stream);
        let (shared, new_handler) = (shared.clone(), new_handler.clone());
        std::thread::spawn(move || {
            transport.serve(stream, &mut new_handler());
            if let Some(id) = id {
                shared.registry.deregister(id);
            }
            shared.connections.fetch_sub(1, Ordering::AcqRel);
        });
    }
}

/// The per-request log of a front end: every request's end-to-end
/// latency goes into a histogram, and the slowest ones, with their
/// phase breakdowns, into a [`SlowLog`] that the `debug` op serves.
pub struct RequestLog {
    request_us: Arc<Histogram>,
    slow: SlowLog,
}

impl RequestLog {
    /// A log timing requests into `request_us` and keeping the
    /// [`SLOW_LOG_CAPACITY`] slowest.
    pub fn new(request_us: Arc<Histogram>) -> RequestLog {
        RequestLog {
            request_us,
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
        }
    }

    /// Records one answered request. A request slow enough to rank is
    /// logged under its envelope `id` with its `phases` and the
    /// downstream span `remote` returns; `remote` runs only then, so
    /// fast requests never pay for it.
    pub fn record(
        &self,
        id: &Option<Json>,
        op: &'static str,
        total_us: u64,
        phases: Vec<(&'static str, u64)>,
        remote: impl FnOnce() -> Option<RemoteSpan>,
    ) {
        self.request_us.record(total_us);
        if self.slow.would_keep(total_us) {
            self.slow.record(TraceEntry {
                id: correlation_id(id),
                op,
                total_us,
                phases,
                remote: remote(),
            });
        }
    }

    /// The end-to-end latency histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.request_us
    }

    /// The body of the `debug` op: the slow log, slowest first.
    pub fn debug_body(&self) -> BTreeMap<String, Json> {
        let entries = self.slow.snapshot();
        let slow = entries.iter().map(protocol::trace_entry_json).collect();
        BTreeMap::from([("slow_requests".to_string(), Json::Arr(slow))])
    }
}

/// The envelope `id` as a slow-log correlation string: the encoded JSON
/// value for strings/numbers, `"-"` when the request carried none. The
/// server and the router log one fleet request under one key.
fn correlation_id(id: &Option<Json>) -> String {
    match id {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.encode(),
        None => "-".into(),
    }
}
