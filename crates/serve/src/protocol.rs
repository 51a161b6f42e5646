//! The daemon's wire protocol: newline-delimited JSON frames over
//! stdio.
//!
//! Every *request* is one JSON object on one line carrying an `id` (any
//! JSON value, echoed verbatim) and a `cmd` string; every *response* is
//! one JSON object on one line echoing the `id` with either
//! `{"ok": true, "result": …}` or
//! `{"ok": false, "error": {"code", "message"[, "retry_after_ms"]}}`.
//! There is exactly one response per request frame — even a frame that
//! is not JSON at all gets a typed `malformed-frame` error (with a
//! `null` id, since none could be recovered). The daemon never answers
//! a frame with silence, and never dies because of one.
//!
//! Parsing is *total*: [`parse_request`] maps every possible input line
//! to either a [`Request`] or a typed [`ErrorCode`] plus detail. Frame
//! reading is bounded: [`read_frame`] enforces the configured byte cap
//! while still consuming the oversized line, so one hostile frame costs
//! one `oversized-frame` error, not protocol desynchronization.

use std::io::{self, BufRead};
use std::path::PathBuf;

use serde::Serialize;
use serde_json::Value;

/// Typed failure classes a response frame can carry. Every way a request
/// can fail maps to exactly one of these — the client can branch on the
/// kebab-case [`ErrorCode::label`] without parsing prose. The cache has
/// no code: the daemon opens it at start-up, and a cache that breaks
/// later only costs misses and skipped writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a JSON object shaped like a request.
    MalformedFrame,
    /// The line exceeded the frame byte cap and was discarded unread.
    OversizedFrame,
    /// The `cmd` value names no known command.
    UnknownCommand,
    /// The command is known but its arguments are missing or ill-typed.
    BadRequest,
    /// The named project was never registered.
    UnknownProject,
    /// The project's source directory could not be loaded (vanished,
    /// unreadable, no `.py` files, bad schema file).
    ProjectUnusable,
    /// The bounded request queue is full; retry after the hinted delay.
    Overloaded,
    /// The request's deadline elapsed before (or while) handling it.
    DeadlineExceeded,
    /// The handler panicked; the panic was contained to this request.
    InternalPanic,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable kebab-case wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::OversizedFrame => "oversized-frame",
            ErrorCode::UnknownCommand => "unknown-command",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownProject => "unknown-project",
            ErrorCode::ProjectUnusable => "project-unusable",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::InternalPanic => "internal-panic",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }
}

/// One parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The decoded command.
    pub cmd: Command,
}

/// Every command the daemon understands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Register (or replace) a project: a source directory and an
    /// optional declared-schema JSON file.
    Register {
        /// Tenant name subsequent requests address.
        project: String,
        /// Directory holding the project's `.py` tree.
        dir: PathBuf,
        /// Optional `schema.json` path (the declared schema).
        schema: Option<PathBuf>,
    },
    /// Analyze a registered project against its declared schema.
    Analyze {
        /// Tenant name.
        project: String,
        /// Whole-request budget in milliseconds (queue wait included).
        deadline_ms: Option<u64>,
        /// Per-file parse budget, [`cfinder_core::Limits::deadline`]; `0`
        /// means none.
        file_deadline_ms: Option<u64>,
        /// Ablation flags, same names as `cfinder --ablate`
        /// ([`cfinder_core::CFinderOptions::ablate`]).
        ablate: Vec<String>,
        /// Test-only fault injection ([`crate::ServeConfig::faults_enabled`]).
        fault: Option<Fault>,
    },
    /// Explain every inferred constraint on `table[.column]`.
    Explain {
        /// Tenant name.
        project: String,
        /// `Table` or `Table.column`.
        target: String,
    },
    /// Re-analyze and report constraints added/removed since the
    /// project's previous analysis.
    Diff {
        /// Tenant name.
        project: String,
    },
    /// Return the Chrome trace of the project's most recent analyzing
    /// request (recorded per request; only the latest is retained).
    Trace {
        /// Tenant name.
        project: String,
    },
    /// Daemon-level counters: projects, queue, request totals.
    Stats,
    /// The Prometheus metrics registry as text exposition.
    Metrics,
    /// Begin graceful drain: finish queued work, reject new frames,
    /// exit once the queue is empty.
    Shutdown,
}

impl Command {
    /// The command's wire name (for metrics labels).
    pub fn name(&self) -> &'static str {
        match self {
            Command::Register { .. } => "register",
            Command::Analyze { .. } => "analyze",
            Command::Explain { .. } => "explain",
            Command::Diff { .. } => "diff",
            Command::Trace { .. } => "trace",
            Command::Stats => "stats",
            Command::Metrics => "metrics",
            Command::Shutdown => "shutdown",
        }
    }
}

/// Fault injected into a handler, parsed only when the daemon runs with
/// [`crate::ServeConfig::faults_enabled`] (`cfinder serve` sets it from
/// `CFINDER_SERVE_FAULTS=1`, for the fault-frame test suite). In a normal
/// daemon the `fault` field is ignored like any other unknown field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the handler (must surface as `internal-panic`).
    Panic,
    /// Sleep this long inside the handler (drives deadline/overload
    /// tests without huge inputs).
    SleepMs(u64),
}

/// A request that failed to decode: the best-effort recovered id, the
/// typed code, and a human detail line.
#[derive(Debug, Clone)]
pub struct FrameError {
    /// Echoable id (`null` when none could be recovered).
    pub id: Value,
    /// Typed failure class.
    pub code: ErrorCode,
    /// Human-readable detail for the error frame.
    pub message: String,
}

impl FrameError {
    fn new(id: Value, code: ErrorCode, message: impl Into<String>) -> Self {
        FrameError { id, code, message: message.into() }
    }
}

/// Decodes one frame line into a [`Request`]. Total: every failure is a
/// typed [`FrameError`], never a panic or a dropped frame.
pub fn parse_request(line: &str, faults_enabled: bool) -> Result<Request, FrameError> {
    let value: Value = match serde_json::from_str(line.trim()) {
        Ok(v) => v,
        Err(e) => {
            return Err(FrameError::new(
                Value::Null,
                ErrorCode::MalformedFrame,
                format!("frame is not valid JSON: {e}"),
            ))
        }
    };
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    if value.as_map().is_none() {
        return Err(FrameError::new(id, ErrorCode::MalformedFrame, "frame is not a JSON object"));
    }
    let cmd = match value.get("cmd").and_then(Value::as_str) {
        Some(cmd) => cmd,
        None => {
            return Err(FrameError::new(
                id,
                ErrorCode::MalformedFrame,
                "frame has no string `cmd` field",
            ))
        }
    };

    let bad = |msg: String| FrameError::new(id.clone(), ErrorCode::BadRequest, msg);
    let req_string = |field: &str| -> Result<String, FrameError> {
        value
            .get(field)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(format!("`{cmd}` requires a string `{field}` field")))
    };
    let opt_u64 = |field: &str| -> Result<Option<u64>, FrameError> {
        match value.get(field) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("`{field}` must be a non-negative integer"))),
        }
    };

    let command = match cmd {
        "register" => Command::Register {
            project: req_string("project")?,
            dir: PathBuf::from(req_string("dir")?),
            schema: match value.get("schema") {
                None | Some(Value::Null) => None,
                Some(v) => Some(PathBuf::from(
                    v.as_str().ok_or_else(|| bad("`schema` must be a string path".into()))?,
                )),
            },
        },
        "analyze" => Command::Analyze {
            project: req_string("project")?,
            deadline_ms: opt_u64("deadline_ms")?,
            file_deadline_ms: opt_u64("file_deadline_ms")?,
            ablate: match value.get("ablate") {
                None | Some(Value::Null) => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| bad("`ablate` must be an array of flag names".into()))?
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("`ablate` entries must be strings".into()))
                    })
                    .collect::<Result<_, _>>()?,
            },
            fault: if faults_enabled { parse_fault(&value, &bad)? } else { None },
        },
        "explain" => {
            Command::Explain { project: req_string("project")?, target: req_string("target")? }
        }
        "diff" => Command::Diff { project: req_string("project")? },
        "trace" => Command::Trace { project: req_string("project")? },
        "stats" => Command::Stats,
        "metrics" => Command::Metrics,
        "shutdown" => Command::Shutdown,
        other => {
            return Err(FrameError::new(
                id,
                ErrorCode::UnknownCommand,
                format!("unknown command `{other}`"),
            ))
        }
    };
    Ok(Request { id, cmd: command })
}

fn parse_fault(
    value: &Value,
    bad: &dyn Fn(String) -> FrameError,
) -> Result<Option<Fault>, FrameError> {
    let Some(spec) = value.get("fault") else { return Ok(None) };
    let Some(spec) = spec.as_str() else {
        return Err(bad("`fault` must be a string".into()));
    };
    if spec == "panic" {
        return Ok(Some(Fault::Panic));
    }
    if let Some(ms) = spec.strip_prefix("sleep:") {
        let ms = ms.parse::<u64>().map_err(|_| bad(format!("bad fault spec `{spec}`")))?;
        return Ok(Some(Fault::SleepMs(ms)));
    }
    Err(bad(format!("unknown fault `{spec}` (expected `panic` or `sleep:<ms>`)")))
}

/// Renders a success frame (`id` echoed, insertion-ordered keys, one
/// line, no interior newlines). The typed `result` is written straight
/// into the envelope.
pub fn ok_frame(id: &Value, result: impl Serialize) -> String {
    serde_json::to_string(&OkFrame { id, ok: true, result })
        .expect("frame serialization cannot fail")
}

/// The envelope of a success frame.
#[derive(Serialize)]
struct OkFrame<'a, R: Serialize> {
    id: &'a Value,
    ok: bool,
    result: R,
}

/// Renders a typed error frame. `retry_after_ms` is attached only for
/// [`ErrorCode::Overloaded`]-style retryable rejections.
pub fn error_frame(
    id: &Value,
    code: ErrorCode,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut error = vec![
        ("code".into(), Value::Str(code.label().into())),
        ("message".into(), Value::Str(message.into())),
    ];
    if let Some(ms) = retry_after_ms {
        error.push(("retry_after_ms".into(), Value::UInt(ms)));
    }
    let frame = Value::Map(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Map(error)),
    ]);
    serde_json::to_string(&frame).expect("frame serialization cannot fail")
}

/// Outcome of reading one frame line.
#[derive(Debug)]
pub enum Frame {
    /// A complete line within the byte cap (newline stripped).
    Line(String),
    /// A line that blew the cap; it was consumed (through its newline)
    /// and discarded, so the stream stays frame-aligned. Carries the
    /// number of bytes discarded so far.
    Oversized(usize),
    /// End of input.
    Eof,
}

/// Reads one newline-delimited frame, enforcing `max_bytes`. An
/// oversized line is drained to its terminating newline so exactly one
/// typed error answers it and the next frame parses cleanly. I/O errors
/// (other than interrupts, which are retried) are returned as `Err` and
/// end the session — there is no way to stay frame-aligned on a broken
/// pipe.
pub fn read_frame(reader: &mut impl BufRead, max_bytes: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarded = 0usize;
    let mut over = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF. A non-empty partial line without a trailing newline is
            // still one frame — clients that end with `printf '%s' …` are
            // answered, not dropped.
            return Ok(match (line.is_empty(), over) {
                (_, true) => Frame::Oversized(discarded),
                (true, false) => Frame::Eof,
                (false, false) => Frame::Line(String::from_utf8_lossy(&line).into_owned()),
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map(|i| i + 1).unwrap_or(buf.len());
        if !over {
            let chunk = &buf[..take - usize::from(newline.is_some())];
            if line.len() + chunk.len() > max_bytes {
                over = true;
                discarded = line.len() + chunk.len();
                line.clear();
            } else {
                line.extend_from_slice(chunk);
            }
        } else {
            discarded += take;
        }
        reader.consume(take);
        if newline.is_some() {
            return Ok(if over {
                Frame::Oversized(discarded)
            } else {
                Frame::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_every_command() {
        for (line, name) in [
            (r#"{"id":1,"cmd":"register","project":"p","dir":"/tmp/x"}"#, "register"),
            (r#"{"id":2,"cmd":"analyze","project":"p"}"#, "analyze"),
            (r#"{"id":3,"cmd":"explain","project":"p","target":"User.email"}"#, "explain"),
            (r#"{"id":4,"cmd":"diff","project":"p"}"#, "diff"),
            (r#"{"id":8,"cmd":"trace","project":"p"}"#, "trace"),
            (r#"{"id":5,"cmd":"stats"}"#, "stats"),
            (r#"{"id":6,"cmd":"metrics"}"#, "metrics"),
            (r#"{"id":7,"cmd":"shutdown"}"#, "shutdown"),
        ] {
            let req = parse_request(line, false).expect(line);
            assert_eq!(req.cmd.name(), name, "{line}");
        }
    }

    #[test]
    fn malformed_and_bad_frames_map_to_typed_codes() {
        for (line, code) in [
            ("not json at all", ErrorCode::MalformedFrame),
            ("[1,2,3]", ErrorCode::MalformedFrame),
            (r#"{"id":9}"#, ErrorCode::MalformedFrame),
            (r#"{"id":9,"cmd":"launch-missiles"}"#, ErrorCode::UnknownCommand),
            (r#"{"id":9,"cmd":"analyze"}"#, ErrorCode::BadRequest),
            (
                r#"{"id":9,"cmd":"analyze","project":"p","deadline_ms":"soon"}"#,
                ErrorCode::BadRequest,
            ),
            (r#"{"id":9,"cmd":"analyze","project":"p","ablate":"check"}"#, ErrorCode::BadRequest),
        ] {
            let err = parse_request(line, false).expect_err(line);
            assert_eq!(err.code, code, "{line}");
        }
    }

    #[test]
    fn id_is_recovered_from_bad_frames_when_present() {
        let err = parse_request(r#"{"id":"req-7","cmd":"nope"}"#, false).unwrap_err();
        assert_eq!(err.id, Value::Str("req-7".into()));
        let err = parse_request("garbage", false).unwrap_err();
        assert!(err.id.is_null());
    }

    #[test]
    fn fault_field_is_inert_unless_enabled() {
        let line = r#"{"id":1,"cmd":"analyze","project":"p","fault":"panic"}"#;
        let Command::Analyze { fault, .. } = parse_request(line, false).unwrap().cmd else {
            panic!("not analyze")
        };
        assert_eq!(fault, None);
        let Command::Analyze { fault, .. } = parse_request(line, true).unwrap().cmd else {
            panic!("not analyze")
        };
        assert_eq!(fault, Some(Fault::Panic));
        let line = r#"{"id":1,"cmd":"analyze","project":"p","fault":"sleep:250"}"#;
        let Command::Analyze { fault, .. } = parse_request(line, true).unwrap().cmd else {
            panic!("not analyze")
        };
        assert_eq!(fault, Some(Fault::SleepMs(250)));
    }

    #[test]
    fn read_frame_bounds_hostile_lines_and_stays_aligned() {
        let huge = "x".repeat(5000);
        let input = format!("short\n{huge}\nafter\n");
        let mut r = Cursor::new(input.into_bytes());
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Line(l) if l == "short"));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Oversized(n) if n >= 5000));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Line(l) if l == "after"));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Eof));
    }

    #[test]
    fn read_frame_answers_a_final_unterminated_line() {
        let mut r = Cursor::new(b"{\"cmd\":\"stats\"}".to_vec());
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Line(_)));
        assert!(matches!(read_frame(&mut r, 1024).unwrap(), Frame::Eof));
    }

    #[test]
    fn frames_are_single_lines_with_echoed_ids() {
        let ok = ok_frame(&Value::UInt(3), Value::Map(vec![("a".into(), Value::Int(1))]));
        assert!(!ok.contains('\n'));
        assert!(ok.contains("\"id\":3"));
        let err = error_frame(&Value::Str("x".into()), ErrorCode::Overloaded, "full", Some(25));
        assert!(err.contains("\"code\":\"overloaded\""));
        assert!(err.contains("\"retry_after_ms\":25"));
    }
}
