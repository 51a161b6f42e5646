//! The `serve` daemon as a child process, and the client side of its
//! newline-delimited JSON protocol.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde_json::Value;

/// Longest wait for one response before the daemon is declared hung.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon worker threads, as `cfinder serve --workers 2`.
pub const WORKERS: usize = 2;

/// Entry point of the child: the same library call `cfinder serve
/// --workers N --cache-dir DIR` makes, over this process's stdio.
pub fn run_child(workers: usize, cache_dir: &Path) -> i32 {
    let config = cfinder_serve::ServeConfig {
        workers,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..cfinder_serve::ServeConfig::default()
    };
    let stdin = std::io::stdin();
    match cfinder_serve::serve(config, stdin.lock(), std::io::stdout()) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("daemon: input failed: {e}");
            1
        }
    }
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Response lines with their arrival time.
    responses: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon with a scrubbed environment: no `CFINDER_*`
    /// variable reaches it except `CFINDER_THREADS=1`.
    pub fn spawn(cache_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--daemon")
            .args(["--workers", &WORKERS.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("CFINDER_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("CFINDER_THREADS", "1");
        let mut child = cmd.spawn().map_err(|e| format!("starting the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, responses) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Daemon { stdin: child.stdin.take(), child, responses, reader: Some(reader) })
    }

    /// Process id, for `/proc` accounting.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one request frame.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon input already closed")?;
        writeln!(stdin, "{frame}").and_then(|()| stdin.flush()).map_err(|e| format!("daemon: {e}"))
    }

    /// Reads the next response frame and the time its line arrived, so
    /// a latency excludes the client's own parsing.
    pub fn recv(&self) -> Result<(Instant, Value), String> {
        let (arrived, line) = self
            .responses
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| format!("no response from the daemon: {e}"))?;
        let frame = serde_json::from_str(&line)
            .map_err(|e| format!("unparsable response {line:?}: {e}"))?;
        Ok((arrived, frame))
    }

    /// One request with nothing else in flight; returns its `result`.
    pub fn call(&mut self, frame: &str) -> Result<Value, String> {
        self.send(frame)?;
        result(self.recv()?.1)
    }

    /// Asks the daemon to drain, closes its input and waits for it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.call(r#"{"id":"shutdown","cmd":"shutdown"}"#)?;
        self.stop()
    }

    fn stop(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| format!("waiting for the daemon: {e}"))?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.stop();
        }
    }
}

/// The `result` of an ok frame, or the error it carries.
pub fn result(frame: Value) -> Result<Value, String> {
    if frame.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(frame.get("result").cloned().unwrap_or(Value::Null))
    } else {
        Err(format!("daemon error: {}", serde_json::to_string(&frame).unwrap_or_default()))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}
