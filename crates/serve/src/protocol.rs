//! The line-delimited JSON request protocol spoken over the Unix socket
//! and in `--oneshot` stdio mode.
//!
//! Every request is one JSON object on one line carrying a `cmd` field;
//! every response is one JSON object on one line carrying `ok` plus
//! command-specific fields. Submit rejections are typed:
//! `{"ok": false, "error": ..., "retry_after_s": ...}`, where
//! `retry_after_s` is `null` for a spec that can never be accepted.
//!
//! | `cmd`       | request fields           | success response            |
//! |-------------|--------------------------|-----------------------------|
//! | `ping`      |                          | `{"ok":true,"pong":true}`   |
//! | `submit`    | `spec` (a job spec)      | `{"ok":true,"id":...}`      |
//! | `status`    | `id`                     | `{"ok":true,"job":{...}}`   |
//! | `list`      |                          | `{"ok":true,"jobs":[...]}`  |
//! | `result`    | `id`                     | `{"ok":true,"result":{...}}`|
//! | `cancel`    | `id`                     | `{"ok":true,"state":...}`   |
//! | `wait`      | `id`, `timeout_s`?       | `{"ok":true,"job":{...}}`   |
//! | `subscribe` | `id`?                    | ack, then event lines       |
//! | `metrics`   | `format`? (`"text"`)     | `{"ok":true,"metrics":{...}}`|
//! | `shutdown`  |                          | `{"ok":true}`, server stops |
//!
//! `status`, `list` and `metrics` responses additionally carry a
//! `server` block (`{"queue_depth": ..., "uptime_s": ...}`); each job
//! value carries its `trace_id` and `age_s` (seconds since submission).
//!
//! The transports ([`crate::socket`]) answer a line that is not UTF-8
//! with `{"ok": false, "error": ...}` and keep the session. They refuse
//! a line over [`crate::socket::MAX_LINE_BYTES`], and a Unix-socket
//! connection over [`crate::socket::MAX_CONNECTIONS`], with
//! `{"ok": false, "error": ..., "limit": "line_bytes" | "connections",
//! "max": ...}` and end the session.

use momsynth_sync::sync::mpsc;
use std::time::Duration;

use serde_json::{json, Value};

use crate::job::JobSpec;
use crate::server::{JobStatus, Server};

/// How a request line is answered.
#[derive(Debug)]
pub enum Reply {
    /// One response line.
    Line(Value),
    /// An ack line followed by streamed event lines from the receiver
    /// (a `subscribe` request). `job` is the id filter, if any.
    Stream {
        /// The ack line to send before streaming.
        ack: Value,
        /// Serialized `JobEvent` lines.
        rx: mpsc::Receiver<String>,
        /// Stop streaming once this job is terminal (`None`: stream
        /// until the connection closes or the server stops).
        job: Option<String>,
    },
    /// One response line, then the transport should initiate a graceful
    /// server shutdown.
    Shutdown(Value),
}

/// Compact single-line JSON rendering of a response value. ([`Value`]'s
/// `Display` is a diagnostic format, not valid JSON.)
pub fn to_line(value: &Value) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|_| r#"{"ok":false,"error":"serialization failure"}"#.to_owned())
}

/// JSON rendering of a job's status.
pub fn status_value(status: &JobStatus) -> Value {
    json!({
        "id": status.record.id,
        "seq": status.record.seq,
        "priority": status.record.priority,
        "trace_id": status.record.trace_id,
        "age_s": status.record.age_s(),
        "state": status.record.state.to_string(),
        "attempts": status.record.attempts,
        "transitions": status.record.transitions,
        "error": status.record.error,
        "summary": status.record.summary,
        "progress": status.progress,
    })
}

/// The server-health block attached to `status`, `list` and `metrics`
/// responses.
fn server_block(server: &Server) -> Value {
    json!({
        "queue_depth": server.queue_depth(),
        "uptime_s": server.uptime_s(),
    })
}

fn error_line(message: impl std::fmt::Display) -> Reply {
    Reply::Line(json!({"ok": false, "error": message.to_string()}))
}

fn str_field<'a>(request: &'a Value, name: &str) -> Option<&'a str> {
    request.get(name).and_then(Value::as_str)
}

/// Handles one request line against `server` and returns the reply.
/// Malformed requests produce an `ok: false` line, never a panic or a
/// dropped connection.
pub fn handle_line(server: &Server, line: &str) -> Reply {
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return error_line(format!("malformed request: {e}")),
    };
    let Some(cmd) = str_field(&request, "cmd") else {
        return error_line("missing `cmd` field");
    };
    match cmd {
        "ping" => Reply::Line(json!({"ok": true, "pong": true})),
        "submit" => {
            let Some(spec_value) = request.get("spec") else {
                return error_line("submit requires a `spec` field");
            };
            let spec: JobSpec = match serde_json::from_value(spec_value) {
                Ok(spec) => spec,
                Err(e) => return error_line(format!("invalid job spec: {e}")),
            };
            match server.submit(&spec) {
                Ok(id) => Reply::Line(json!({"ok": true, "id": id})),
                Err(rejection) => Reply::Line(json!({
                    "ok": false,
                    "error": rejection.reason,
                    "retry_after_s": rejection.retry_after_s,
                })),
            }
        }
        "status" => {
            let Some(id) = str_field(&request, "id") else {
                return error_line("status requires an `id` field");
            };
            match server.status(id) {
                Some(status) => Reply::Line(json!({
                    "ok": true,
                    "job": status_value(&status),
                    "server": server_block(server),
                })),
                None => error_line(format!("unknown job `{id}`")),
            }
        }
        "list" => {
            let jobs: Vec<Value> = server.list().iter().map(status_value).collect();
            Reply::Line(json!({
                "ok": true,
                "jobs": jobs,
                "server": server_block(server),
            }))
        }
        "metrics" => {
            let snapshot = server.metrics_snapshot();
            let reply = if str_field(&request, "format") == Some("text") {
                json!({
                    "ok": true,
                    "metrics": snapshot,
                    "text": snapshot.to_prometheus(),
                    "server": server_block(server),
                })
            } else {
                json!({
                    "ok": true,
                    "metrics": snapshot,
                    "server": server_block(server),
                })
            };
            Reply::Line(reply)
        }
        "result" => {
            let Some(id) = str_field(&request, "id") else {
                return error_line("result requires an `id` field");
            };
            match server.result(id) {
                Some(result) => Reply::Line(json!({"ok": true, "result": result})),
                None => error_line(format!("no result for job `{id}`")),
            }
        }
        "cancel" => {
            let Some(id) = str_field(&request, "id") else {
                return error_line("cancel requires an `id` field");
            };
            match server.cancel(id) {
                Some(state) => {
                    Reply::Line(json!({"ok": true, "state": state.to_string()}))
                }
                None => error_line(format!("unknown job `{id}`")),
            }
        }
        "wait" => {
            let Some(id) = str_field(&request, "id") else {
                return error_line("wait requires an `id` field");
            };
            let timeout_s =
                request.get("timeout_s").and_then(Value::as_f64).unwrap_or(600.0);
            let Ok(timeout) = Duration::try_from_secs_f64(timeout_s.max(0.0)) else {
                return error_line(format!(
                    "`timeout_s` must be a finite number of seconds (got {timeout_s})"
                ));
            };
            match server.wait_terminal(id, timeout) {
                Some(status) => {
                    Reply::Line(json!({"ok": true, "job": status_value(&status)}))
                }
                None => error_line(format!(
                    "job `{id}` not terminal within {timeout_s} s (or unknown)"
                )),
            }
        }
        "subscribe" => {
            let job = str_field(&request, "id").map(str::to_owned);
            let rx = server.subscribe(job.clone());
            Reply::Stream { ack: json!({"ok": true, "subscribed": true}), rx, job }
        }
        "shutdown" => Reply::Shutdown(json!({"ok": true, "shutting_down": true})),
        other => error_line(format!("unknown command `{other}`")),
    }
}
