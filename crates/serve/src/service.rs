//! The resident sweep daemon.
//!
//! `serve()` binds a TCP or Unix-socket listener and handles each
//! connection on its own thread. Submissions serialize through one
//! executor mutex — FIFO admission — so concurrent clients with
//! overlapping plans hit the shared [`DirCache`](ebrc_runner::DirCache)
//! warm: the first submission pays for a sim, every later one reads it
//! back. That mirrors the paper's long-run framing — the service's
//! steady state is a warm cache where marginal sweep cost is reduction,
//! not simulation.
//!
//! A client that disconnects mid-sweep flips the run's
//! [`CancelToken`]: the backend abandons unexecuted sims at the next
//! slice boundary instead of heating the cache for nobody.

use crate::backend::{EventSink, SweepBackend};
use crate::frame::{read_value, write_value};
use crate::proto::{Event, Request, ServiceStats};
use ebrc_runner::CancelToken;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Where the daemon listens. Parsed from `unix:<path>` or `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP address like `127.0.0.1:7077` (port 0 picks a free one).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses `unix:<path>` into [`ListenAddr::Unix`], anything else
    /// into [`ListenAddr::Tcp`].
    pub fn parse(text: &str) -> ListenAddr {
        match text.strip_prefix("unix:") {
            Some(path) => ListenAddr::Unix(PathBuf::from(path)),
            None => ListenAddr::Tcp(text.to_string()),
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted client stream, transport-erased.
pub enum Conn {
    /// A TCP client.
    Tcp(TcpStream),
    /// A Unix-socket client.
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Connects to a daemon at `addr` as a client.
pub fn connect(addr: &ListenAddr) -> io::Result<Conn> {
    match addr {
        ListenAddr::Tcp(a) => TcpStream::connect(a).map(Conn::Tcp),
        ListenAddr::Unix(p) => UnixStream::connect(p).map(Conn::Unix),
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Streams events to one connection, tracking peer death. The first
/// failed write marks the sink dead and cancels the in-flight sweep;
/// later emits are dropped without touching the socket.
struct ConnSink<'a> {
    conn: Mutex<&'a mut Conn>,
    dead: AtomicBool,
    cancel: CancelToken,
}

impl EventSink for ConnSink<'_> {
    fn emit(&self, event: Event) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return false;
        }
        let mut conn = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        match write_value(&mut *conn, &event.to_value()) {
            Ok(()) => true,
            Err(_) => {
                self.dead.store(true, Ordering::Release);
                self.cancel.cancel();
                false
            }
        }
    }
}

#[derive(Default)]
struct Counters {
    submissions: AtomicU64,
    sims_executed: AtomicU64,
    cache_hits: AtomicU64,
    events: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submissions: self.submissions.load(Ordering::Relaxed),
            sims_executed: self.sims_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
        }
    }
}

/// Runs the daemon until a client sends `shutdown`.
///
/// Binds `addr` (removing a stale Unix socket file first), then calls
/// `on_ready` with the resolved address — for TCP with port 0 this is
/// the actual port, which is how tests and scripts learn where to
/// connect. Each connection gets a handler thread; submissions
/// serialize through one executor mutex, so the shared cache sees a
/// consistent FIFO of sweeps.
pub fn serve(
    addr: &ListenAddr,
    backend: &dyn SweepBackend,
    on_ready: impl FnOnce(&ListenAddr),
) -> io::Result<()> {
    let (listener, local) = match addr {
        ListenAddr::Tcp(a) => {
            let l = TcpListener::bind(a)?;
            let actual = l.local_addr()?.to_string();
            (Listener::Tcp(l), ListenAddr::Tcp(actual))
        }
        ListenAddr::Unix(path) => {
            // A stale socket file from a dead daemon blocks bind; a
            // live daemon would still hold it, and connect() failing
            // below is the live-daemon signal we care about.
            let _ = std::fs::remove_file(path);
            (Listener::Unix(UnixListener::bind(path)?), addr.clone())
        }
    };
    on_ready(&local);

    let shutdown = AtomicBool::new(false);
    let exec = Mutex::new(());
    let counters = Counters::default();

    std::thread::scope(|scope| {
        loop {
            let conn = match listener.accept() {
                Ok(c) => c,
                Err(_) if shutdown.load(Ordering::Acquire) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            scope.spawn(|| {
                handle_conn(conn, backend, &exec, &counters, &shutdown, &local);
            });
        }
        Ok(())
    })?;

    if let ListenAddr::Unix(path) = &local {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn handle_conn(
    mut conn: Conn,
    backend: &dyn SweepBackend,
    exec: &Mutex<()>,
    counters: &Counters,
    shutdown: &AtomicBool,
    local: &ListenAddr,
) {
    loop {
        let value = match read_value(&mut conn) {
            Ok(Some(v)) => v,
            // Clean disconnect, torn frame, or garbage: either way
            // this client is done.
            Ok(None) | Err(_) => return,
        };
        let request = match Request::from_value(&value) {
            Ok(r) => r,
            Err(e) => {
                let _ = write_value(&mut conn, &Event::Error { message: e }.to_value());
                continue;
            }
        };
        match request {
            Request::Ping => {
                if write_value(&mut conn, &Event::Pong.to_value()).is_err() {
                    return;
                }
            }
            Request::Stats => {
                let ev = Event::Stats(counters.snapshot());
                if write_value(&mut conn, &ev.to_value()).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = write_value(&mut conn, &Event::Bye.to_value());
                shutdown.store(true, Ordering::Release);
                // The accept loop is blocked; a throwaway self-connect
                // wakes it so it can observe the flag.
                let _ = connect(local);
                return;
            }
            Request::Submit(sub) => {
                let keep_going = handle_submit(&mut conn, backend, exec, counters, &sub);
                if !keep_going {
                    return;
                }
            }
        }
    }
}

fn handle_submit(
    conn: &mut Conn,
    backend: &dyn SweepBackend,
    exec: &Mutex<()>,
    counters: &Counters,
    sub: &crate::proto::Submission,
) -> bool {
    let refuse = |conn: &mut Conn, message: String| {
        write_value(conn, &Event::Error { message }.to_value()).is_ok()
    };

    let info = match backend.resolve(&sub.targets, &sub.scale) {
        Ok(info) => info,
        Err(e) => return refuse(conn, e),
    };
    if let Some(expected) = &sub.fingerprint {
        if *expected != info.fingerprint {
            return refuse(
                conn,
                format!(
                    "plan fingerprint mismatch: client expects {expected}, daemon derives {} \
                     (version skew between client and daemon catalogues)",
                    info.fingerprint
                ),
            );
        }
    }
    if write_value(conn, &Event::Accepted(info).to_value()).is_err() {
        return false;
    }

    // FIFO admission: tell the client it's queued only when it
    // actually has to wait.
    let guard = match exec.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::WouldBlock) => {
            if write_value(conn, &Event::Queued.to_value()).is_err() {
                return false;
            }
            exec.lock().unwrap_or_else(|p| p.into_inner())
        }
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
    };

    let cancel = CancelToken::new();
    let sink = ConnSink {
        conn: Mutex::new(conn),
        dead: AtomicBool::new(false),
        cancel: cancel.clone(),
    };
    if !sink.emit(Event::Running) {
        return false;
    }
    let started = std::time::Instant::now();
    let outcome = backend.execute(&sub.targets, &sub.scale, &cancel, &sink);
    drop(guard);
    let alive = !sink.dead.load(Ordering::Acquire);
    match outcome {
        Ok(mut summary) => {
            summary.wall_s = started.elapsed().as_secs_f64();
            counters.submissions.fetch_add(1, Ordering::Relaxed);
            counters
                .sims_executed
                .fetch_add(summary.executed as u64, Ordering::Relaxed);
            counters
                .cache_hits
                .fetch_add(summary.cache_hits as u64, Ordering::Relaxed);
            counters.events.fetch_add(summary.events, Ordering::Relaxed);
            sink.emit(Event::Done(summary)) && alive
        }
        Err(message) => sink.emit(Event::Error { message }) && alive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PlanInfo, ReportChunk, Request, RunSummary, Submission};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// A backend over a fake "catalogue" of named sims with a shared
    /// in-memory cache, so the admission/dedup contract is testable
    /// without any real simulation.
    struct MockBackend {
        sims: Vec<&'static str>,
        cache: Mutex<HashSet<String>>,
        resolves: AtomicUsize,
    }

    impl MockBackend {
        fn new(sims: &[&'static str]) -> Self {
            Self {
                sims: sims.to_vec(),
                cache: Mutex::new(HashSet::new()),
                resolves: AtomicUsize::new(0),
            }
        }
    }

    impl SweepBackend for MockBackend {
        fn resolve(&self, targets: &[String], scale: &str) -> Result<PlanInfo, String> {
            self.resolves.fetch_add(1, Ordering::Relaxed);
            if scale != "tiny" {
                return Err(format!("unknown scale {scale:?}"));
            }
            if targets.iter().any(|t| t == "bogus") {
                return Err("unknown experiment \"bogus\"".into());
            }
            Ok(PlanInfo {
                fingerprint: "feedfacefeedface".into(),
                unique_sims: self.sims.len(),
                subscribed_sims: self.sims.len() + 1,
            })
        }

        fn execute(
            &self,
            _targets: &[String],
            _scale: &str,
            _cancel: &CancelToken,
            sink: &dyn EventSink,
        ) -> Result<RunSummary, String> {
            let mut executed = 0;
            let mut hits = 0;
            for (i, sim) in self.sims.iter().enumerate() {
                let fresh = self.cache.lock().unwrap().insert(sim.to_string());
                if fresh {
                    executed += 1;
                } else {
                    hits += 1;
                }
                sink.emit(Event::Progress {
                    done: i + 1,
                    total: self.sims.len(),
                });
            }
            sink.emit(Event::Report(ReportChunk {
                experiment: "mock".into(),
                title: "Mock".into(),
                paper_ref: "none".into(),
                error: None,
                tables: vec![],
            }));
            Ok(RunSummary {
                executed,
                cache_hits: hits,
                events: 10 * executed as u64,
                failed: 0,
                wall_s: 0.0,
            })
        }
    }

    fn start(backend: &'static MockBackend) -> ListenAddr {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            serve(&ListenAddr::Tcp("127.0.0.1:0".into()), backend, |addr| {
                tx.send(addr.clone()).unwrap();
            })
            .unwrap();
        });
        rx.recv().unwrap()
    }

    fn submit(addr: &ListenAddr, fingerprint: Option<&str>) -> Vec<Event> {
        let mut conn = connect(addr).unwrap();
        let req = Request::Submit(Submission {
            targets: vec!["all".into()],
            scale: "tiny".into(),
            fingerprint: fingerprint.map(str::to_string),
        });
        write_value(&mut conn, &req.to_value()).unwrap();
        let mut events = Vec::new();
        while let Some(v) = read_value(&mut conn).unwrap() {
            let ev = Event::from_value(&v).unwrap();
            let terminal = matches!(ev, Event::Done(_) | Event::Error { .. });
            events.push(ev);
            if terminal {
                break;
            }
        }
        events
    }

    fn request_one(addr: &ListenAddr, req: Request) -> Event {
        let mut conn = connect(addr).unwrap();
        write_value(&mut conn, &req.to_value()).unwrap();
        Event::from_value(&read_value(&mut conn).unwrap().unwrap()).unwrap()
    }

    #[test]
    fn concurrent_clients_share_the_cache_and_each_sim_runs_once() {
        static BACKEND: std::sync::OnceLock<MockBackend> = std::sync::OnceLock::new();
        let backend = BACKEND.get_or_init(|| MockBackend::new(&["s1", "s2", "s3"]));
        let addr = start(backend);

        assert_eq!(request_one(&addr, Request::Ping), Event::Pong);

        let streams: Vec<Vec<Event>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| submit(&addr, Some("feedfacefeedface"))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut total_executed = 0;
        let mut total_hits = 0;
        for events in &streams {
            assert!(matches!(
                events.first(),
                Some(Event::Accepted(PlanInfo { unique_sims: 3, .. }))
            ));
            let Some(Event::Done(summary)) = events.last() else {
                panic!("no Done event: {events:?}");
            };
            total_executed += summary.executed;
            total_hits += summary.cache_hits;
            assert!(summary.wall_s >= 0.0);
            // Every client sees the full report stream regardless of
            // who executed the sims.
            assert!(events
                .iter()
                .any(|e| matches!(e, Event::Report(c) if c.experiment == "mock")));
        }
        // 3 sims total across 3 clients: executed exactly once each.
        assert_eq!(total_executed, 3);
        assert_eq!(total_hits, 6);

        let Event::Stats(stats) = request_one(&addr, Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.submissions, 3);
        assert_eq!(stats.sims_executed, 3);
        assert_eq!(stats.cache_hits, 6);
        assert_eq!(stats.events, 30);

        assert_eq!(request_one(&addr, Request::Shutdown), Event::Bye);
    }

    #[test]
    fn fingerprint_mismatch_is_refused_before_any_work() {
        static BACKEND: std::sync::OnceLock<MockBackend> = std::sync::OnceLock::new();
        let backend = BACKEND.get_or_init(|| MockBackend::new(&["s1"]));
        let addr = start(backend);

        let events = submit(&addr, Some("0000000000000000"));
        assert_eq!(events.len(), 1);
        let Event::Error { message } = &events[0] else {
            panic!("expected refusal, got {events:?}");
        };
        assert!(message.contains("fingerprint mismatch"), "got: {message}");
        assert!(backend.cache.lock().unwrap().is_empty(), "no sims ran");

        // A resolve error (bad target) is also a clean refusal.
        let mut conn = connect(&addr).unwrap();
        let req = Request::Submit(Submission {
            targets: vec!["bogus".into()],
            scale: "tiny".into(),
            fingerprint: None,
        });
        write_value(&mut conn, &req.to_value()).unwrap();
        let ev = Event::from_value(&read_value(&mut conn).unwrap().unwrap()).unwrap();
        assert!(matches!(ev, Event::Error { .. }));

        assert_eq!(request_one(&addr, Request::Shutdown), Event::Bye);
    }

    #[test]
    fn unix_socket_transport_works_end_to_end() {
        static BACKEND: std::sync::OnceLock<MockBackend> = std::sync::OnceLock::new();
        let backend = BACKEND.get_or_init(|| MockBackend::new(&["u1", "u2"]));
        let path = std::env::temp_dir().join(format!("ebrc-serve-{}.sock", std::process::id()));
        // A stale file from a crashed prior run must not block bind.
        std::fs::write(&path, b"stale").unwrap();
        let addr = ListenAddr::Unix(path.clone());
        let (tx, rx) = std::sync::mpsc::channel();
        let addr2 = addr.clone();
        std::thread::spawn(move || {
            serve(&addr2, backend, |a| tx.send(a.clone()).unwrap()).unwrap();
        });
        let ready = rx.recv().unwrap();
        assert_eq!(ready, addr);

        let events = submit(&addr, None);
        let Some(Event::Done(summary)) = events.last() else {
            panic!("no Done: {events:?}");
        };
        assert_eq!(summary.executed, 2);
        assert_eq!(request_one(&addr, Request::Shutdown), Event::Bye);
    }

    #[test]
    fn listen_addr_parses_both_transports() {
        assert_eq!(
            ListenAddr::parse("127.0.0.1:7077"),
            ListenAddr::Tcp("127.0.0.1:7077".into())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/x.sock"),
            ListenAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/x.sock").to_string(),
            "unix:/tmp/x.sock"
        );
    }
}
