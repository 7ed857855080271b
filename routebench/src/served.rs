//! The daemon side: an in-process `gcr-service` server on a loopback
//! port, the warm session `eco-served-120` opens on it, and the
//! in-process twin that replays the same request stream.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use gcr_core::{apply_eco, parse_eco, PlaneIndexKind, RoutingSession};
use gcr_layout::Layout;
use gcr_service::{
    dump_routing, BoxedEngine, Client, EngineKind, Server, ServerConfig, ServerReport,
    SessionRegistry,
};

use crate::die::EcoStream;

/// A running daemon. Its sessions are opened on the server's default
/// parallel schedule; the process-wide `GCR_THREADS=1` pins them to one
/// routing thread.
pub struct Daemon {
    addr: SocketAddr,
    registry: Arc<SessionRegistry>,
    thread: Option<JoinHandle<std::io::Result<ServerReport>>>,
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(&ServerConfig {
            capacity: 64,
            // One worker per connection the benchmark holds at once.
            workers: 2,
            slow_log_ms: 0,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("daemon bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon addr: {e}"))?;
        let registry = server.registry();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            registry,
            thread: Some(thread),
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    pub fn registry(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Drains the daemon through `client` (every other connection must
    /// already be closed) and waits for the server thread to end.
    pub fn stop(mut self, mut client: Client) -> Result<ServerReport, String> {
        client
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        drop(client);
        self.join()
    }

    fn join(&mut self) -> Result<ServerReport, String> {
        let thread = self.thread.take().ok_or("daemon already stopped")?;
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

impl Drop for Daemon {
    /// A daemon abandoned on an error path is still drained and joined,
    /// so no thread outlives the run.
    fn drop(&mut self) {
        if self.thread.is_some() {
            if let Ok(mut client) = Client::connect(self.addr) {
                let _ = client.shutdown();
            }
            let _ = self.join();
        }
    }
}

/// Opens `gcl` on the daemon and cold-routes it; returns the session id.
pub fn open_routed(client: &mut Client, gcl: &str) -> Result<u64, String> {
    let (sid, _) = client
        .open(EngineKind::Gridless, PlaneIndexKind::Sharded, gcl)
        .map_err(|e| format!("OPEN: {e}"))?;
    client
        .route(sid, false)
        .map_err(|e| format!("ROUTE {sid}: {e}"))?;
    Ok(sid)
}

/// The in-process equivalent of a served session: same engine, same
/// index, same router configuration, one routing thread.
pub fn twin(layout: Layout) -> RoutingSession<BoxedEngine> {
    RoutingSession::builder(layout)
        .engine(EngineKind::Gridless.build())
        .index(PlaneIndexKind::Sharded)
        .serial()
        .build()
}

/// Replays requests `0..served_ok.len()` of `stream` on a cold-routed
/// twin of `layout` and checks the twin's dump against the served one and
/// each request's outcome against the served outcome (`served_ok[k]`).
/// Returns the twin for the route checks.
pub fn replay_twin(
    layout: Layout,
    stream: &EcoStream,
    served_ok: &[bool],
    served_dump: &str,
    problems: &mut Vec<String>,
) -> RoutingSession<BoxedEngine> {
    let mut twin = twin(layout);
    twin.route_all();
    for (k, &ok) in served_ok.iter().enumerate() {
        let applied = parse_eco(&stream.request(k as u64))
            .map_err(|e| e.to_string())
            .and_then(|ops| apply_eco(&mut twin, &ops).map_err(|e| e.to_string()));
        if applied.is_ok() != ok {
            let outcome = |ok| if ok { "succeeded" } else { "failed" };
            problems.push(format!(
                "request {k}: served {} but the in-process twin {}",
                outcome(ok),
                outcome(applied.is_ok())
            ));
        }
    }
    if dump_routing(&twin.routing()) != served_dump {
        problems.push("served DUMP differs from the in-process twin's".into());
    }
    twin
}
