//! The one line-protocol front end: the node ([`crate::server`]) and the
//! cluster router both run it, and differ only in the [`Service`] that
//! answers a parsed request.
//!
//! Pure `std` (no async runtime): a nonblocking acceptor feeds accepted
//! connections into a bounded `Mutex<VecDeque>`/`Condvar` queue drained by
//! a fixed pool of worker threads. Each worker handles one connection at a
//! time, reading LF-delimited requests with a short read timeout so it can
//! notice shutdown, and runs every line through one dispatch: the line is
//! parsed once, the op's span is opened, the service answers, and the op's
//! request / error / latency series — resolved from [`WIRE_OPS`] before any
//! worker starts — are booked without touching the registry map.
//!
//! Failure-awareness:
//!
//! * the acceptor sheds whole connections with an `overloaded` reply once
//!   `MAX_CONN_QUEUE` are waiting for a worker;
//! * idle connections are closed after a read deadline, and response
//!   writes time out instead of blocking a worker forever on a stalled
//!   peer;
//! * a line past [`MAX_LINE_BYTES`] is a protocol violation: answered
//!   once, then the connection is closed.

use crate::protocol::{self, Request, Response, WireOp, CODE_OVERLOADED, MAX_LINE_BYTES, WIRE_OPS};
use seqge_obs::{Counter, Gauge, Histogram, Registry, TraceCtx};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The acceptor sheds new connections once this many are queued for workers.
const MAX_CONN_QUEUE: usize = 1024;
/// A connection idle this long without a complete request is closed.
const READ_DEADLINE: Duration = Duration::from_secs(300);
/// A response write stalled this long (dead peer) gives up.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Which server a front end is: names its telemetry and its threads.
#[derive(Debug, Clone, Copy)]
pub enum Plane {
    /// A node: `seqge_serve_*` series, `serve.<op>` spans.
    Serve,
    /// The cluster router: `seqge_cluster_*` series, `cluster.<op>` spans.
    Cluster,
}

impl Plane {
    /// The middle of the plane's series and thread names.
    fn name(self) -> &'static str {
        match self {
            Plane::Serve => "serve",
            Plane::Cluster => "cluster",
        }
    }

    fn series(self, suffix: &str) -> String {
        format!("seqge_{}_{suffix}", self.name())
    }

    fn span(self, op: &WireOp) -> &'static str {
        match self {
            Plane::Serve => op.serve_span,
            Plane::Cluster => op.cluster_span,
        }
    }
}

/// What a front end serves: the answer to one parsed request.
pub trait Service: Send + Sync + 'static {
    /// The plane this service's telemetry and spans belong to.
    const PLANE: Plane;

    /// State one worker keeps across the connections it serves (the node's
    /// snapshot reader, the router's cached shard connections).
    type Worker;

    /// A worker's state, made at its first connection: an idle worker
    /// holds nothing.
    fn worker(&self) -> Self::Worker;

    /// Answers `req` (parsed from `line`; `trace` is the op span's
    /// context): the reply line, and whether to close the connection
    /// after it.
    fn handle(
        &self,
        worker: &mut Self::Worker,
        req: Request,
        line: &str,
        trace: Option<TraceCtx>,
    ) -> (String, bool);

    /// Asked after each answer: `false` drops the connection without
    /// writing the reply (fault injection).
    fn deliver(&self) -> bool {
        true
    }
}

/// The acceptor's admission step: queues `item` unless [`MAX_CONN_QUEUE`]
/// are already waiting, and hands it back if not.
fn admit<T>(queue: &mut VecDeque<T>, item: T) -> Result<(), T> {
    if queue.len() >= MAX_CONN_QUEUE {
        return Err(item);
    }
    queue.push_back(item);
    Ok(())
}

type ConnQueue = Arc<(Mutex<VecDeque<TcpStream>>, Condvar)>;

/// A running front end. Dropping it without [`FrontHandle::shutdown`]
/// detaches the threads.
pub struct FrontHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    threads: Vec<JoinHandle<()>>,
}

impl FrontHandle {
    /// The bound address (port is concrete even when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag; a `shutdown` request or a signal handler sets it.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// The registry the front end's series live in.
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Blocks until the stop flag is set, then joins every thread.
    pub fn wait(self) -> io::Result<()> {
        self.wait_stopped();
        self.shutdown()
    }

    pub(crate) fn wait_stopped(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(50));
        }
    }

    /// Stops accepting and joins the acceptor and every worker.
    pub fn shutdown(self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads {
            t.join().map_err(|_| io::Error::other("front-end thread panicked"))?;
        }
        Ok(())
    }
}

/// Binds `addr` (port 0 for an ephemeral one) and serves `service` on
/// `workers` threads until `stop` is set. The front end's series go into
/// `registry`.
pub fn start<S: Service>(
    addr: &str,
    workers: usize,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    service: S,
) -> io::Result<FrontHandle> {
    assert!(workers >= 1, "need at least one worker");
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let plane = S::PLANE;
    let queue: ConnQueue = Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    let service = Arc::new(service);
    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let worker = Worker {
            queue: queue.clone(),
            stop: stop.clone(),
            service: service.clone(),
            ops: OpSeries::resolve(&registry, plane),
            protocol_errors: registry.counter(&plane.series("protocol_errors_total")),
            open_conns: registry.gauge(&plane.series("open_connections")),
        };
        threads.push(
            thread::Builder::new()
                .name(format!("seqge-{}-worker-{i}", plane.name()))
                .spawn(move || worker.run())?,
        );
    }
    let shed = registry.counter(&plane.series("conn_shed_total"));
    let acceptor_stop = stop.clone();
    threads.push(
        thread::Builder::new()
            .name(format!("seqge-{}-accept", plane.name()))
            .spawn(move || accept(listener, &queue, &acceptor_stop, &shed))?,
    );
    Ok(FrontHandle { addr, stop, registry, threads })
}

fn accept(listener: TcpListener, queue: &ConnQueue, stop: &AtomicBool, shed: &Counter) {
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            thread::sleep(Duration::from_millis(20));
            continue;
        };
        let admitted = admit(&mut queue.0.lock().expect("conn queue poisoned"), stream);
        match admitted {
            Ok(()) => queue.1.notify_one(),
            Err(mut stream) => {
                // Shed at the door rather than queue unboundedly; the
                // refusal is best-effort (the socket is still nonblocking).
                shed.inc();
                let msg = Response::err_code(CODE_OVERLOADED, "overloaded: connection queue full");
                let _ = stream.write_all(msg.as_bytes());
                let _ = stream.write_all(b"\n");
            }
        }
    }
    // Wake any workers parked on the condvar so they can exit.
    queue.1.notify_all();
}

/// One op's request telemetry: latency histogram, request counter,
/// error-reply counter.
struct OpSeries {
    op: &'static str,
    latency: Arc<Histogram>,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
}

impl OpSeries {
    fn resolve(registry: &Registry, plane: Plane) -> Vec<OpSeries> {
        let (latency, requests, errors) = (
            plane.series("request_latency_ns"),
            plane.series("requests_total"),
            plane.series("errors_total"),
        );
        WIRE_OPS
            .iter()
            .map(|&WireOp { name: op, .. }| OpSeries {
                op,
                latency: registry.histogram_with(&latency, &[("op", op)]),
                requests: registry.counter_with(&requests, &[("op", op)]),
                errors: registry.counter_with(&errors, &[("op", op)]),
            })
            .collect()
    }
}

struct Worker<S> {
    queue: ConnQueue,
    stop: Arc<AtomicBool>,
    service: Arc<S>,
    ops: Vec<OpSeries>,
    protocol_errors: Arc<Counter>,
    /// Connections currently being served across all workers (the
    /// registry hands every worker the same gauge).
    open_conns: Arc<Gauge>,
}

impl<S: Service> Worker<S> {
    fn run(self) {
        let mut state = None;
        loop {
            let conn = {
                let guard = self.queue.0.lock().expect("conn queue poisoned");
                let (mut guard, _) = self
                    .queue
                    .1
                    .wait_timeout_while(guard, Duration::from_millis(100), |q| q.is_empty())
                    .expect("conn queue poisoned");
                guard.pop_front()
            };
            if let Some(stream) = conn {
                let state = state.get_or_insert_with(|| self.service.worker());
                self.open_conns.inc();
                let _ = serve_lines(stream, &self.stop, |line| {
                    let out = self.dispatch(state, line);
                    self.service.deliver().then_some(out)
                });
                self.open_conns.dec();
            }
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    fn dispatch(&self, state: &mut S::Worker, line: &str) -> (String, bool) {
        if line.is_empty() {
            self.protocol_errors.inc();
            return (Response::err("empty request line"), false);
        }
        let (req, wire_ctx) = match protocol::parse_request_traced(line) {
            Ok(r) => r,
            Err(e) => {
                self.protocol_errors.inc();
                return (Response::err(e), false);
            }
        };
        let op = req.op();
        // Span + clock reads are both gated on the timing switch; the
        // request counter is always live (it backs throughput accounting).
        let mut span = seqge_obs::trace::start_span(S::PLANE.span(op), wire_ctx);
        let t0 = if seqge_obs::timing_enabled() { Some(Instant::now()) } else { None };
        let out = self.service.handle(state, req, line, span.ctx());
        if let Some(s) = self.ops.iter().find(|s| s.op == op.name) {
            s.requests.inc();
            // Compact rendering guarantees error replies start with this
            // prefix (asserted in the protocol tests), so shed + hard
            // errors are counted without re-parsing the reply.
            if out.0.starts_with(r#"{"ok":false"#) {
                s.errors.inc();
            }
            if let Some(t0) = t0 {
                s.latency.record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
        }
        if span.is_active() {
            // Shed/degraded outcomes are always worth keeping, whatever the
            // head-sampling decision said.
            if out.0.contains(r#""code":"overloaded""#) {
                span.force_sample();
                span.tag("outcome", "shed");
            } else if out.0.contains(r#""code":"degraded""#) || out.0.contains(r#""degraded":true"#)
            {
                span.force_sample();
                span.tag("outcome", "degraded");
            }
        }
        out
    }
}

/// The line-framing loop: reads LF-delimited requests off `stream` and
/// writes back what `handle` answers for each — `Some((reply, close))`, or
/// `None` to drop the connection without a reply — until EOF, a line past
/// [`MAX_LINE_BYTES`], five idle minutes, or `stop`, which a blocked worker
/// notices thanks to the short read timeout.
fn serve_lines(
    mut stream: TcpStream,
    stop: &AtomicBool,
    mut handle: impl FnMut(&str) -> Option<(String, bool)>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_activity.elapsed() >= READ_DEADLINE {
                    return Ok(()); // idle past the deadline: free the worker
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        last_activity = Instant::now();
        pending.extend_from_slice(&chunk[..n]);
        while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=nl).collect();
            let Some((response, close)) = handle(String::from_utf8_lossy(&line[..nl]).trim())
            else {
                return Ok(());
            };
            stream.write_all(response.as_bytes())?;
            stream.write_all(b"\n")?;
            if close {
                return Ok(());
            }
        }
        if pending.len() > MAX_LINE_BYTES {
            let msg = Response::err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
            stream.write_all(msg.as_bytes())?;
            stream.write_all(b"\n")?;
            return Ok(());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_queue_refuses_and_hands_the_item_back() {
        let mut queue = VecDeque::new();
        for i in 0..MAX_CONN_QUEUE {
            assert_eq!(admit(&mut queue, i), Ok(()));
        }
        assert_eq!(admit(&mut queue, MAX_CONN_QUEUE), Err(MAX_CONN_QUEUE));
        assert_eq!(queue.len(), MAX_CONN_QUEUE);
        queue.pop_front();
        assert_eq!(admit(&mut queue, 7), Ok(()));
        assert_eq!(queue.back(), Some(&7));
    }
}
