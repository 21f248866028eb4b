//! Event sinks: JSONL file, in-memory, stderr and fan-out.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use momsynth_sync::sync::Mutex;

use crate::event::Event;

/// A consumer of telemetry events.
///
/// `record` takes `&self` so a sink can be shared by reference through a
/// whole synthesis stack; sinks use interior mutability as needed. The
/// built-in stateful sinks guard their state with a [`Mutex`], so one
/// sink instance can be written from several threads and every recorded
/// event stays whole — concurrent writers never interleave partial
/// events or partial JSONL lines.
///
/// Producers must gate *expensive* event construction (fitness
/// statistics, phase reports, summaries) behind [`Sink::enabled`]; cheap
/// diagnostics like [`Warning`](crate::Warning) may be recorded
/// unconditionally — a disabled sink simply drops them.
pub trait Sink {
    /// Whether this sink wants trace events. `false` promises that the
    /// producer may skip building them.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Collects events in memory; useful in tests and harnesses. Safe to
/// share across threads: each recorded event is appended atomically.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
    /// Lock-free monotone count of recorded events; see
    /// [`MemorySink::recorded_hint`].
    recorded: momsynth_sync::sync::atomic::AtomicUsize,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Drains and returns everything recorded so far. The recorded
    /// hint is *not* reset: it counts records over the sink's lifetime.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// How many events have been recorded over this sink's lifetime,
    /// without taking the writers' lock. Monotone and exact (each
    /// record bumps it exactly once), but a reader may briefly observe
    /// it ahead of [`MemorySink::events`] while a record is in flight.
    pub fn recorded_hint(&self) -> usize {
        use momsynth_sync::sync::atomic::Ordering;
        self.recorded.load(Ordering::Relaxed)
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        use momsynth_sync::sync::atomic::Ordering;
        self.events.lock().expect("memory sink poisoned").push(event.clone());
        // Seeded bug for the loom mutation check (DESIGN.md §17): a
        // non-atomic load+store loses concurrent bumps, breaking the
        // "exact" contract of `recorded_hint`.
        #[cfg(loom_mutation)]
        {
            let v = self.recorded.load(Ordering::Relaxed);
            self.recorded.store(v + 1, Ordering::Relaxed);
        }
        #[cfg(not(loom_mutation))]
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }
}

/// Appends one JSON object per event to a file (JSON Lines). Safe to
/// share across threads: events are serialised outside the lock, but
/// each line is written under it, so lines never interleave.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and writes events to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self { writer: Mutex::new(BufWriter::new(file)) })
    }

    /// Opens `path` for appending (creating it if absent), so a resumed
    /// run continues the trace its interrupted predecessor started.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-open error.
    pub fn append(path: &Path) -> std::io::Result<Self> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(Self { writer: Mutex::new(BufWriter::new(file)) })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        // Serialising a value of a well-formed event type cannot fail;
        // I/O errors are deliberately swallowed: telemetry must never
        // take the run down.
        if let Ok(json) = serde_json::to_string(event) {
            let mut w = self.writer.lock().expect("jsonl sink poisoned");
            let _ = writeln!(w, "{json}");
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Human one-line-per-generation progress on stderr, plus warnings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgressSink;

impl Sink for ProgressSink {
    fn record(&self, event: &Event) {
        match event {
            Event::Generation(g) => eprintln!(
                "gen {:>4}  best {:>12.6}  mean {:>12.6}  evals {:>7}  stagnation {}",
                g.generation, g.best, g.mean, g.evaluations, g.stagnation
            ),
            Event::Warning(w) => eprintln!("warning: {}", w.message),
            Event::Summary(s) => eprintln!(
                "done: {:.6} mW  feasible {}  {} generations  {} evaluations  {:.2} s",
                s.average_power_mw, s.feasible, s.generations, s.evaluations, s.wall_time_s
            ),
            _ => {}
        }
    }
}

/// Prints only [`Warning`](crate::Warning) events to stderr. Reports
/// `enabled() == false` so producers skip building trace events.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarningSink;

impl Sink for WarningSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, event: &Event) {
        if let Event::Warning(w) = event {
            eprintln!("warning: {}", w.message);
        }
    }
}

/// Broadcasts events to several sinks; enabled when any member is.
/// Members must be thread-safe, so a fan-out shared across worker
/// threads delivers each event to every member without tearing.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<Box<dyn Sink + Send + Sync>>,
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout").field("sinks", &self.sinks.len()).finish()
    }
}

impl Fanout {
    /// An empty fan-out: disabled, and it discards every event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member sink.
    pub fn push(&mut self, sink: Box<dyn Sink + Send + Sync>) {
        self.sinks.push(sink);
    }

    /// Number of member sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the fan-out has no members.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for Fanout {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Warning;

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.enabled());
        sink.record(&Event::Warning(Warning { message: "a".into() }));
        sink.record(&Event::Warning(Warning { message: "b".into() }));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut path = std::env::temp_dir();
        path.push(format!("momsynth_telemetry_test_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&Event::Warning(Warning { message: "one".into() }));
            sink.record(&Event::Warning(Warning { message: "two".into() }));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::Warning(w) if w.message == "one"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_append_continues_an_existing_trace() {
        let mut path = std::env::temp_dir();
        path.push(format!("momsynth_telemetry_append_{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.record(&Event::Warning(Warning { message: "first".into() }));
        }
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.record(&Event::Warning(Warning { message: "second".into() }));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text.lines().map(|l| serde_json::from_str(l).unwrap()).collect();
        assert_eq!(events.len(), 2, "append must not truncate the first line");
        assert!(matches!(&events[0], Event::Warning(w) if w.message == "first"));
        assert!(matches!(&events[1], Event::Warning(w) if w.message == "second"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fanout_is_enabled_when_any_member_is() {
        let mut fanout = Fanout::new();
        assert!(!fanout.enabled());
        fanout.push(Box::new(WarningSink));
        assert!(!fanout.enabled(), "warning-only sinks do not want traces");
        fanout.push(Box::new(MemorySink::new()));
        assert!(fanout.enabled());
        assert_eq!(fanout.len(), 2);
        fanout.record(&Event::Warning(Warning { message: "w".into() }));
        fanout.flush();
    }
}
