//! Leveled structured logger: one JSON object per line, to stderr or a
//! file.
//!
//! ```text
//! {"ts_ms":1722950400123,"level":"info","target":"serve","msg":"listening on 127.0.0.1:4071"}
//! ```
//!
//! The active level comes from `SEQGE_LOG` (`error|warn|info|debug|trace`,
//! default `info`) or [`set_level`] (the CLI's `--log-level` flag). The
//! level check ([`enabled`]) is a single relaxed atomic load, and the
//! [`crate::error!`]-family macros only build the message when the level
//! passes, so disabled log sites cost one load + one branch.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Suspicious but survivable conditions.
    Warn = 1,
    /// Lifecycle events (startup, shutdown, snapshots).
    Info = 2,
    /// Per-operation detail (batch sizes, per-trial scores).
    Debug = 3,
    /// Per-item firehose.
    Trace = 4,
}

impl Level {
    /// Wire/display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses `error|warn|info|debug|trace` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// `None` = stderr; `Some(file)` after [`set_sink_file`].
static SINK: Mutex<Option<std::fs::File>> = Mutex::new(None);

/// The active level (lazily read from `SEQGE_LOG`; default `info`).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        4 => Level::Trace,
        _ => {
            let l = std::env::var("SEQGE_LOG")
                .ok()
                .as_deref()
                .and_then(Level::parse)
                .unwrap_or(Level::Info);
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
    }
}

/// Overrides the level at runtime (e.g. from `--log-level`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether a record at `l` would be emitted. One atomic load in steady
/// state; the macros call this before formatting anything.
#[inline]
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Redirects log output from stderr to `path` (append mode).
pub fn set_sink_file(path: &Path) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    *SINK.lock().expect("log sink poisoned") = Some(f);
    Ok(())
}

/// Reverts log output to stderr.
pub fn set_sink_stderr() {
    *SINK.lock().expect("log sink poisoned") = None;
}

/// Appends `s` to `out` as the body of a JSON string literal (no
/// surrounding quotes) — the crate's one JSON escaper, shared by the log,
/// trace and metrics exporters.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders one record as a JSONL line (without the newline). Public so
/// tests and the CLI can check the exact wire format.
pub fn format_record(ts_ms: u128, l: Level, target: &str, msg: &str) -> String {
    let mut line = String::with_capacity(64 + target.len() + msg.len());
    line.push_str("{\"ts_ms\":");
    line.push_str(&ts_ms.to_string());
    line.push_str(",\"level\":\"");
    line.push_str(l.as_str());
    line.push_str("\",\"target\":\"");
    escape_into(&mut line, target);
    line.push_str("\",\"msg\":\"");
    escape_into(&mut line, msg);
    line.push_str("\"}");
    line
}

/// Emits one record (the macros are the intended entry point; they gate on
/// [`enabled`] first).
pub fn log(l: Level, target: &str, args: fmt::Arguments<'_>) {
    let ts_ms =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or_default();
    let line = format_record(ts_ms, l, target, &args.to_string());
    // Tee every emitted record into the flight recorder's bounded ring so
    // crash dumps include the last ~256 log lines regardless of the sink.
    crate::flightrec::record_log(&line);
    let mut sink = SINK.lock().expect("log sink poisoned");
    match sink.as_mut() {
        Some(f) => {
            let _ = writeln!(f, "{line}");
        }
        None => {
            let _ = writeln!(std::io::stderr().lock(), "{line}");
        }
    }
}

/// Logs at [`Level::Error`]: `error!("target", "fmt {}", x)`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Trace) {
            $crate::log::log($crate::log::Level::Trace, $target, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
    }

    #[test]
    fn records_are_valid_jsonl() {
        let line = format_record(123, Level::Info, "serve", "listening on 0.0.0.0:1");
        assert_eq!(
            line,
            r#"{"ts_ms":123,"level":"info","target":"serve","msg":"listening on 0.0.0.0:1"}"#
        );
        // Quotes, backslashes, newlines, and control bytes must be escaped.
        let tricky = format_record(1, Level::Error, "t", "a \"b\" \\ c\nd\te\u{1}");
        assert_eq!(
            tricky,
            r#"{"ts_ms":1,"level":"error","target":"t","msg":"a \"b\" \\ c\nd\te\u0001"}"#
        );
        assert_eq!(tricky.lines().count(), 1, "record must stay on one line");
    }

    #[test]
    fn level_gate_respects_set_level() {
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Trace));
        set_level(Level::Trace);
        assert!(enabled(Level::Trace));
        set_level(Level::Info);
    }

    #[test]
    fn file_sink_receives_lines() {
        let dir = std::env::temp_dir().join(format!("seqge-obs-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.log");
        set_sink_file(&path).unwrap();
        log(Level::Error, "test", format_args!("hello {}", 42));
        set_sink_stderr();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(r#""msg":"hello 42""#), "{text}");
        assert!(text.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
