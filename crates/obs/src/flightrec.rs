//! Crash flight recorder: a bounded ring of recent JSONL log lines plus
//! the recent completed spans from [`mod@crate::trace`], dumpable as one JSON
//! document so post-mortems (chaos kills, panics, SIGTERM) can reconstruct
//! what the process was doing.
//!
//! The recorder is passive until [`configure`] points it at a directory
//! (typically from `SEQGE_FLIGHTREC` via [`configure_from_env`]). Once
//! configured it:
//!
//! * installs a panic hook that dumps before delegating to the previous
//!   hook (covers `SEQGE_FAULT` trainer panics and any other crash that
//!   unwinds);
//! * spawns a background thread rewriting the dump every
//!   `SEQGE_FLIGHTREC_PERIOD_MS` (default 2000) so even an untrappable
//!   `kill -9` leaves a dump at most one period stale;
//! * lets the embedding process call [`dump`] explicitly on its graceful
//!   SIGTERM/SIGINT path.
//!
//! Dump path: `<dir>/flightrec-<pid>.json`. Format:
//!
//! ```json
//! {"pid":1234,"role":"serve","dumped_unix_ms":...,
//!  "spans":[{span jsonl objects}],"logs":[{log jsonl objects}]}
//! ```
//!
//! Log capture is a tee inside [`crate::log::log`]: every formatted record
//! is pushed into a 256-line ring regardless of the sink, one short mutex
//! push per emitted line (levels that are disabled never get here).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Recent log lines retained per process.
pub const LOG_RING_CAP: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HOOKS: Once = Once::new();

fn log_ring() -> &'static Mutex<VecDeque<String>> {
    static RING: OnceLock<Mutex<VecDeque<String>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(LOG_RING_CAP)))
}

fn state() -> &'static Mutex<Option<(PathBuf, String)>> {
    static STATE: OnceLock<Mutex<Option<(PathBuf, String)>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Tees a formatted log record into the ring. Called by the logger for
/// every emitted line; cheap (one mutex push) and bounded.
pub(crate) fn record_log(line: &str) {
    let mut ring = log_ring().lock().unwrap();
    if ring.len() == LOG_RING_CAP {
        ring.pop_front();
    }
    ring.push_back(line.to_string());
}

/// Points the recorder at `dir` (created if missing), labels dumps with
/// `role`, installs the panic hook, and starts the periodic writer.
pub fn configure(dir: &Path, role: &str) {
    let _ = std::fs::create_dir_all(dir);
    *state().lock().unwrap() = Some((dir.to_path_buf(), role.to_string()));
    ENABLED.store(true, Ordering::Relaxed);
    HOOKS.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump();
            prev(info);
        }));
        let period = std::env::var("SEQGE_FLIGHTREC_PERIOD_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(2000);
        if period > 0 {
            std::thread::Builder::new()
                .name("seqge-flightrec".into())
                .spawn(move || loop {
                    std::thread::sleep(Duration::from_millis(period));
                    let _ = dump();
                })
                .ok();
        }
    });
}

/// Configures from the `SEQGE_FLIGHTREC` environment variable (a directory
/// path) if set. Returns whether the recorder ended up enabled.
pub fn configure_from_env(role: &str) -> bool {
    if let Ok(dir) = std::env::var("SEQGE_FLIGHTREC") {
        let dir = dir.trim();
        if !dir.is_empty() {
            configure(Path::new(dir), role);
        }
    }
    enabled()
}

/// `true` once [`configure`] has run.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Renders the current flight-recorder document (always available, even
/// when no dump directory is configured — the `flightrec` protocol op
/// serves this live).
pub fn document(role: &str) -> String {
    let unix_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let (spans, cursor) = crate::trace::snapshot_since(0);
    let mut s = String::with_capacity(4096);
    s.push_str(&format!(
        "{{\"pid\":{},\"role\":\"{}\",\"dumped_unix_ms\":{unix_ms},\"span_cursor\":{cursor},\
         \"spans\":[",
        std::process::id(),
        role.replace('"', "'"),
    ));
    for (i, rec) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&crate::trace::jsonl_line(rec));
    }
    s.push_str("],\"logs\":[");
    {
        let ring = log_ring().lock().unwrap();
        for (i, line) in ring.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            // Log records are already JSON objects (crate::log::format_record).
            s.push_str(line);
        }
    }
    s.push_str("]}");
    s
}

/// Writes `<dir>/flightrec-<pid>.json` atomically (tmp + rename). No-op
/// returning `None` when unconfigured.
pub fn dump() -> Option<PathBuf> {
    let (dir, role) = state().lock().unwrap().clone()?;
    let doc = document(&role);
    let path = dir.join(format!("flightrec-{}.json", std::process::id()));
    let tmp = dir.join(format!(".flightrec-{}.tmp", std::process::id()));
    std::fs::write(&tmp, doc).ok()?;
    std::fs::rename(&tmp, &path).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log ring is process-global: a test that fills it evicts the line
    /// another test is about to read back, so the two take turns.
    static RING_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn document_embeds_logs_and_is_json_shaped() {
        let _turn = RING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        record_log(r#"{"ts_ms":1,"level":"info","target":"t","msg":"hello"}"#);
        let doc = document("test");
        assert!(doc.starts_with("{\"pid\":"));
        assert!(doc.contains("\"role\":\"test\""));
        assert!(doc.contains("\"spans\":["));
        assert!(doc.contains("\"msg\":\"hello\""));
        assert!(doc.ends_with("]}"));
    }

    #[test]
    fn log_ring_is_bounded() {
        let _turn = RING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        for i in 0..(LOG_RING_CAP + 50) {
            record_log(&format!(r#"{{"ts_ms":{i},"level":"info","target":"t","msg":"m{i}"}}"#));
        }
        assert_eq!(log_ring().lock().unwrap().len(), LOG_RING_CAP);
    }

    #[test]
    fn dump_writes_parseable_file() {
        let dir = std::env::temp_dir().join(format!("seqge_flightrec_test_{}", std::process::id()));
        configure(&dir, "test");
        let path = dump().expect("dump path");
        let body = std::fs::read_to_string(&path).expect("dump readable");
        assert!(body.starts_with('{') && body.ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
