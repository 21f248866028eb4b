//! `momsynth profile` — fold a JSONL telemetry trace into per-phase
//! self time.
//!
//! A synthesis run records its timings only as accumulated
//! [`SpanEvent`](momsynth_core::telemetry::SpanEvent)s with
//! flamegraph-style collapsed-stack paths (the run root and each
//! phase's `Phase::path`). This module aggregates them across every run
//! and attempt found in a trace file, derives each node's *self* time
//! (its total minus its direct children's totals), and renders either a
//! human table or collapsed-stack lines (`path self_nanos`) that
//! standard flamegraph tooling consumes directly.
//!
//! Trace files, the job server's per-job ones included, hold plain
//! `Event` lines; a `subscribe` stream wraps each event as
//! `{"job": ..., "event": {...}}`. Both shapes are accepted on a
//! per-line basis. Lines of neither shape (such as the per-phase timing
//! events of traces written before span events existed) are skipped.

use std::collections::BTreeMap;

use momsynth_core::telemetry::{Event, JobEvent};

/// One aggregated call-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Collapsed-stack path (`;`-separated, root first).
    pub path: String,
    /// Total accumulated nanoseconds across all merged spans.
    pub total_nanos: u64,
    /// Number of spans merged into this node.
    pub spans: u64,
    /// Total minus the totals of direct children (never negative).
    pub self_nanos: u64,
}

/// The folded profile of one trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Distinct trace ids seen, in first-seen order.
    pub trace_ids: Vec<String>,
    /// Aggregated nodes, sorted by path.
    pub nodes: Vec<ProfileNode>,
    /// Lines that did not parse as a known event shape.
    pub skipped_lines: usize,
}

impl ProfileReport {
    /// Folds the JSONL text of a trace file. Returns `None` when the
    /// trace contains no span at all.
    pub fn from_trace(text: &str) -> Option<Self> {
        let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut trace_ids: Vec<String> = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let event = serde_json::from_str::<Event>(line)
                .ok()
                .or_else(|| serde_json::from_str::<JobEvent>(line).ok().map(|tagged| tagged.event));
            let Some(event) = event else {
                skipped += 1;
                continue;
            };
            match event {
                Event::Span(span) => {
                    if !span.trace_id.is_empty() && !trace_ids.contains(&span.trace_id) {
                        trace_ids.push(span.trace_id.clone());
                    }
                    let entry = totals.entry(span.path).or_insert((0, 0));
                    entry.0 += span.nanos;
                    entry.1 += span.spans;
                }
                Event::RunStart(start)
                    if !start.trace_id.is_empty() && !trace_ids.contains(&start.trace_id) =>
                {
                    trace_ids.push(start.trace_id.clone());
                }
                _ => {}
            }
        }
        if totals.is_empty() {
            return None;
        }
        let nodes = totals
            .iter()
            .map(|(path, &(total_nanos, span_count))| {
                let prefix = format!("{path};");
                let children_nanos: u64 = totals
                    .iter()
                    .filter(|(p, _)| {
                        p.strip_prefix(&prefix).is_some_and(|rest| !rest.contains(';'))
                    })
                    .map(|(_, &(n, _))| n)
                    .sum();
                ProfileNode {
                    path: path.clone(),
                    total_nanos,
                    spans: span_count,
                    self_nanos: total_nanos.saturating_sub(children_nanos),
                }
            })
            .collect();
        Some(Self { trace_ids, nodes, skipped_lines: skipped })
    }

    /// Collapsed-stack rendering (`path self_nanos`, one node per
    /// line), the input format of standard flamegraph tooling.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            if node.self_nanos > 0 {
                out.push_str(&format!("{} {}\n", node.path, node.self_nanos));
            }
        }
        out
    }

    /// Human-readable self-time table, widest self time first.
    pub fn to_table(&self) -> String {
        let total: u64 = self.nodes.iter().map(|n| n.self_nanos).sum();
        let mut rows: Vec<&ProfileNode> = self.nodes.iter().collect();
        rows.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.path.cmp(&b.path)));
        let mut out = String::new();
        if !self.trace_ids.is_empty() {
            out.push_str(&format!("trace ids: {}\n", self.trace_ids.join(", ")));
        }
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>8} {:>7}\n",
            "PATH", "TOTAL", "SELF", "SPANS", "SELF%"
        ));
        for node in rows {
            #[allow(clippy::cast_precision_loss)]
            let percent =
                if total == 0 { 0.0 } else { node.self_nanos as f64 / total as f64 * 100.0 };
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>8} {:>6.1}%\n",
                node.path,
                format_nanos(node.total_nanos),
                format_nanos(node.self_nanos),
                node.spans,
                percent,
            ));
        }
        out.push_str(&format!("accounted self time: {}\n", format_nanos(total)));
        out
    }
}

/// `1234567890` → `"1.235 s"`, scaled to s/ms/µs as appropriate.
#[allow(clippy::cast_precision_loss)]
fn format_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n >= 1e9 {
        format!("{:.3} s", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.3} ms", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.3} µs", n / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_core::telemetry::SpanEvent;

    fn span_line(trace_id: &str, path: &str, nanos: u64, spans: u64) -> String {
        serde_json::to_string(&Event::Span(SpanEvent {
            trace_id: trace_id.to_owned(),
            path: path.to_owned(),
            nanos,
            spans,
        }))
        .unwrap()
    }

    #[test]
    fn folds_spans_into_self_time() {
        let text = [
            span_line("t-1", "run", 100, 1),
            span_line("t-1", "run;fitness_eval", 80, 10),
            span_line("t-1", "run;fitness_eval;list_scheduling", 30, 10),
            span_line("t-1", "run;fitness_eval;core_allocation", 20, 10),
        ]
        .join("\n");
        let report = ProfileReport::from_trace(&text).expect("spans present");
        assert_eq!(report.trace_ids, vec!["t-1"]);
        let get = |p: &str| report.nodes.iter().find(|n| n.path == p).unwrap();
        assert_eq!(get("run").self_nanos, 20, "100 - 80 (direct child only)");
        assert_eq!(get("run;fitness_eval").self_nanos, 30, "80 - 30 - 20");
        assert_eq!(get("run;fitness_eval;list_scheduling").self_nanos, 30);
        let collapsed = report.to_collapsed();
        assert!(collapsed.contains("run 20\n"), "{collapsed}");
        assert!(collapsed.contains("run;fitness_eval 30\n"), "{collapsed}");
    }

    #[test]
    fn merges_spans_across_runs_and_accepts_job_tagged_lines() {
        let tagged = serde_json::to_string(&JobEvent {
            job: "job-000001".into(),
            event: Event::Span(SpanEvent {
                trace_id: "t-2".into(),
                path: "run".into(),
                nanos: 50,
                spans: 1,
            }),
        })
        .unwrap();
        let text = format!("{}\n{tagged}\nnot json at all\n", span_line("t-1", "run", 30, 1));
        let report = ProfileReport::from_trace(&text).unwrap();
        assert_eq!(report.trace_ids, vec!["t-1", "t-2"]);
        assert_eq!(report.skipped_lines, 1);
        let run = report.nodes.iter().find(|n| n.path == "run").unwrap();
        assert_eq!(run.total_nanos, 80);
        assert_eq!(run.spans, 2);
    }

    #[test]
    fn empty_or_span_free_traces_yield_none() {
        assert_eq!(ProfileReport::from_trace(""), None);
        assert_eq!(ProfileReport::from_trace("{\"bogus\": 1}\n"), None);
        // A per-phase timing line of a trace written before span events.
        let phase = r#"{"Phase":{"phase":"FitnessEval","nanos":90,"spans":4,"depth":0}}"#;
        assert_eq!(ProfileReport::from_trace(phase), None);
    }

    #[test]
    fn nanos_format_scales() {
        assert_eq!(format_nanos(12), "12 ns");
        assert_eq!(format_nanos(12_345), "12.345 µs");
        assert_eq!(format_nanos(12_345_678), "12.346 ms");
        assert_eq!(format_nanos(1_234_567_890), "1.235 s");
    }
}
