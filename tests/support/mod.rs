//! Shared harness for the `cfinder serve` test suites.
//!
//! Spawns the real daemon binary, multiplexes request frames from
//! several client threads over the child's stdin, and routes response
//! frames back to the requesting client by `id` (the convention is
//! `"c<idx>:<suffix>"` for pool clients; anything else — including the
//! `null` ids of unrecoverable frames — lands in the main client's
//! inbox). The router also counts every response line, so tests can
//! assert the daemon's core invariant: one response per frame.

// Each suite uses a different subset of the harness.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cfinder::core::usage;
use serde_json::Value;

/// How long a test waits for one response frame before declaring the
/// daemon hung. Generous: suites run under full `cargo test` load.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// The shared, counted write end of the daemon's stdin.
#[derive(Clone)]
pub struct Port {
    stdin: Arc<Mutex<Option<ChildStdin>>>,
    sent: Arc<AtomicU64>,
}

impl Port {
    /// Writes one frame line (a newline is appended) and counts it.
    pub fn send_raw(&self, line: &str) {
        let mut guard = self.stdin.lock().unwrap();
        let stdin = guard.as_mut().expect("daemon stdin already closed");
        writeln!(stdin, "{line}").expect("write to daemon stdin");
        stdin.flush().expect("flush daemon stdin");
        self.sent.fetch_add(1, Ordering::SeqCst);
    }
}

/// One client of the daemon: a counted stdin handle plus the inbox the
/// router delivers this client's responses to.
pub struct Client {
    /// Client index (`usize::MAX` for the main client).
    pub idx: usize,
    port: Port,
    rx: Receiver<Value>,
}

impl Client {
    /// The request id this client uses for `suffix`.
    pub fn id(&self, suffix: &str) -> String {
        if self.idx == usize::MAX {
            format!("m:{suffix}")
        } else {
            format!("c{}:{suffix}", self.idx)
        }
    }

    /// Sends `{"id": <id(suffix)>, <body>}` without waiting.
    pub fn send(&self, suffix: &str, body: &str) {
        self.port.send_raw(&format!("{{\"id\":\"{}\",{body}}}", self.id(suffix)));
    }

    /// Sends a raw line (hostile frames, oversized payloads, …).
    pub fn send_raw(&self, line: &str) {
        self.port.send_raw(line);
    }

    /// Receives this client's next response frame.
    pub fn recv(&self) -> Value {
        self.rx.recv_timeout(RECV_TIMEOUT).expect("daemon did not answer in time")
    }

    /// Sends one request and waits for its response, asserting the id
    /// round-tripped (clients here are strictly send-one-wait-one).
    pub fn call(&self, suffix: &str, body: &str) -> Value {
        self.send(suffix, body);
        let resp = self.recv();
        let id = self.id(suffix);
        assert_eq!(
            resp.get("id").and_then(Value::as_str),
            Some(id.as_str()),
            "response id mismatch: {resp:?}"
        );
        resp
    }
}

/// A spawned `cfinder serve` process, its response router, and the
/// unclaimed client handles.
pub struct Daemon {
    child: Child,
    port: Port,
    clients: Vec<Option<Client>>,
    main: Option<Client>,
    router: Option<JoinHandle<u64>>,
}

impl Daemon {
    /// Spawns `cfinder serve <args>` with `n_clients` routable clients.
    /// `faults` arms `CFINDER_SERVE_FAULTS`; analyzer environment knobs
    /// are scrubbed either way so daemon runs match in-process oracles.
    pub fn spawn(args: &[&str], n_clients: usize, faults: bool) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cfinder"));
        cmd.arg("serve")
            .args(args)
            .env_remove(usage::DEADLINE_ENV)
            .env_remove(usage::CACHE_DIR_ENV)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if faults {
            cmd.env(usage::SERVE_FAULTS_ENV, "1");
        } else {
            cmd.env_remove(usage::SERVE_FAULTS_ENV);
        }
        let mut child = cmd.spawn().expect("spawn cfinder serve");

        let port = Port {
            stdin: Arc::new(Mutex::new(Some(child.stdin.take().expect("piped stdin")))),
            sent: Arc::new(AtomicU64::new(0)),
        };
        let stdout = child.stdout.take().expect("piped stdout");
        let mut txs: Vec<Sender<Value>> = Vec::new();
        let mut clients: Vec<Option<Client>> = Vec::new();
        for idx in 0..n_clients {
            let (tx, rx) = channel();
            txs.push(tx);
            clients.push(Some(Client { idx, port: port.clone(), rx }));
        }
        let (main_tx, main_rx) = channel();
        let main = Some(Client { idx: usize::MAX, port: port.clone(), rx: main_rx });

        // The router: every stdout line is one JSON frame; route it by
        // the `"c<idx>:"` id prefix, count it, and return the count at
        // EOF. Delivery failures (a client hung up after finishing) are
        // ignored — the count is what the invariant check uses.
        let router = std::thread::spawn(move || {
            let mut routed = 0u64;
            for line in BufReader::new(stdout).lines() {
                let line = line.expect("read daemon stdout");
                let frame: Value = serde_json::from_str(&line)
                    .unwrap_or_else(|e| panic!("daemon emitted a non-JSON line ({e}): {line}"));
                routed += 1;
                let target = frame
                    .get("id")
                    .and_then(Value::as_str)
                    .and_then(|id| id.strip_prefix('c'))
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|i| *i < txs.len());
                let _ = match target {
                    Some(i) => txs[i].send(frame),
                    None => main_tx.send(frame),
                };
            }
            routed
        });

        Daemon { child, port, clients, main, router: Some(router) }
    }

    /// Takes pool client `idx` (panics if already taken).
    pub fn client(&mut self, idx: usize) -> Client {
        self.clients[idx].take().expect("client already taken")
    }

    /// Takes the main client — the one that also receives `null`-id
    /// frames (panics if already taken).
    pub fn main_client(&mut self) -> Client {
        self.main.take().expect("main client already taken")
    }

    /// Closes the daemon's stdin (EOF — the drain signal), waits for the
    /// process, joins the router, and asserts the one-response-per-frame
    /// invariant: every counted request line was answered. Returns the
    /// exit status.
    pub fn finish(mut self) -> std::process::ExitStatus {
        drop(self.port.stdin.lock().unwrap().take());
        let status = self.child.wait().expect("wait for daemon");
        let routed = self.router.take().unwrap().join().expect("router thread");
        let sent = self.port.sent.load(Ordering::SeqCst);
        assert_eq!(
            routed, sent,
            "one response per frame: sent {sent} frame(s), got {routed} response(s)"
        );
        status
    }
}

/// Asserts an `ok: true` frame and returns its `result`.
pub fn ok_result(resp: &Value) -> &Value {
    assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "expected an ok frame: {resp:?}");
    resp.get("result").expect("ok frame carries a result")
}

/// Asserts an `ok: false` frame and returns its error `code` label.
pub fn err_code(resp: &Value) -> &str {
    assert_eq!(resp.get("ok"), Some(&Value::Bool(false)), "expected an error frame: {resp:?}");
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("error frame carries a code")
}
