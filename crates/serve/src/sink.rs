//! Telemetry plumbing between a running job and the server: live
//! progress updates and job-tagged event streaming to subscribers.

use momsynth_sync::sync::{mpsc, Arc, Mutex};

use momsynth_telemetry::{Event, JobEvent, Sink};

use crate::job::JobProgress;

/// A subscriber's sending half. Dead receivers are pruned lazily on the
/// next broadcast.
#[derive(Debug)]
pub(crate) struct Subscriber {
    /// Restrict the stream to one job; `None` receives everything.
    pub job: Option<String>,
    /// Serialized [`JobEvent`] lines are pushed here.
    pub tx: mpsc::Sender<String>,
}

/// Shared registry of event subscribers. Public so the loom models in
/// `tests/loom_queue.rs` can check the subscribe/broadcast race on the
/// production type.
#[derive(Debug, Default)]
pub struct SubscriberHub {
    subscribers: Mutex<Vec<Subscriber>>,
}

impl SubscriberHub {
    /// Registers a subscriber and returns its receiving half.
    #[allow(clippy::missing_panics_doc)] // lock poisoning is a bug upstream
    pub fn subscribe(&self, job: Option<String>) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        self.subscribers.lock().expect("subscriber registry poisoned").push(Subscriber { job, tx });
        rx
    }

    /// Sends one job-tagged event line to every matching subscriber,
    /// dropping the ones that hung up.
    pub fn broadcast(&self, job: &str, line: &str) {
        let mut subs = self.subscribers.lock().expect("subscriber registry poisoned");
        subs.retain(|s| {
            if s.job.as_deref().is_some_and(|j| j != job) {
                return true;
            }
            s.tx.send(line.to_owned()).is_ok()
        });
    }

    /// Whether a subscriber would receive a broadcast for `job`.
    pub(crate) fn has_subscriber_for(&self, job: &str) -> bool {
        let subs = self.subscribers.lock().expect("subscriber registry poisoned");
        subs.iter().any(|s| s.job.as_deref().is_none_or(|j| j == job))
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.lock().expect("subscriber registry poisoned").len()
    }

    /// Whether no subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-job worker-side sink: owned by the worker thread running the
/// job, it mirrors generation events into the server's in-memory
/// progress table and fans job-tagged copies out to subscribers, tagging
/// and serializing an event only when a subscriber listens for the job. Used
/// alongside a [`momsynth_telemetry::JsonlSink`] (the durable trace) in
/// a [`momsynth_telemetry::Fanout`].
pub(crate) struct ServeSink {
    job: String,
    progress: Arc<Mutex<Option<JobProgress>>>,
    hub: Arc<SubscriberHub>,
}

impl ServeSink {
    /// A sink feeding `progress` and `hub` for job `job`.
    pub fn new(
        job: String,
        progress: Arc<Mutex<Option<JobProgress>>>,
        hub: Arc<SubscriberHub>,
    ) -> Self {
        Self { job, progress, hub }
    }
}

impl std::fmt::Debug for ServeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSink").field("job", &self.job).finish()
    }
}

impl Sink for ServeSink {
    fn record(&self, event: &Event) {
        if let Event::Generation(g) = event {
            *self.progress.lock().expect("progress poisoned") = Some(JobProgress {
                generation: g.generation,
                evaluations: g.evaluations,
                best: g.best,
                evals_per_sec: g.evals_per_sec,
            });
        }
        if !self.hub.has_subscriber_for(&self.job) {
            return;
        }
        let tagged = JobEvent { job: self.job.clone(), event: event.clone() };
        if let Ok(line) = serde_json::to_string(&tagged) {
            self.hub.broadcast(&self.job, &line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use momsynth_telemetry::Warning;

    #[test]
    fn broadcast_filters_by_job_and_prunes_dead_subscribers() {
        let hub = Arc::new(SubscriberHub::default());
        let all = hub.subscribe(None);
        let only_a = hub.subscribe(Some("a".into()));
        let dead = hub.subscribe(None);
        drop(dead);

        hub.broadcast("a", "line-a");
        hub.broadcast("b", "line-b");
        assert_eq!(all.try_recv().unwrap(), "line-a");
        assert_eq!(all.try_recv().unwrap(), "line-b");
        assert_eq!(only_a.try_recv().unwrap(), "line-a");
        assert!(only_a.try_recv().is_err(), "job filter must hold");
        assert_eq!(hub.len(), 2, "hung-up subscriber must be pruned");
    }

    #[test]
    fn serve_sink_updates_progress_and_tags_events() {
        use momsynth_telemetry::{Counters, GenerationEvent};
        let hub = Arc::new(SubscriberHub::default());
        let rx = hub.subscribe(None);
        let progress = Arc::new(Mutex::new(None));
        let sink = ServeSink::new("job-1".into(), progress.clone(), hub);

        sink.record(&Event::Warning(Warning { message: "w".into() }));
        sink.record(&Event::Generation(GenerationEvent {
            generation: 4,
            evaluations: 80,
            best: 2.5,
            mean: 3.0,
            worst: 4.0,
            stagnation: 0,
            evals_per_sec: 100.0,
            counters: Counters::default(),
        }));

        let p = progress.lock().unwrap().expect("generation updates progress");
        assert_eq!(p.generation, 4);
        assert_eq!(p.evals_per_sec, 100.0);

        let first: JobEvent = serde_json::from_str(&rx.try_recv().unwrap()).unwrap();
        assert_eq!(first.job, "job-1");
        assert!(matches!(first.event, Event::Warning(_)));
        let second: JobEvent = serde_json::from_str(&rx.try_recv().unwrap()).unwrap();
        assert!(matches!(second.event, Event::Generation(_)));
    }

    #[test]
    fn progress_is_kept_when_no_subscriber_listens_for_the_job() {
        use momsynth_telemetry::{Counters, GenerationEvent};
        let hub = Arc::new(SubscriberHub::default());
        let other = hub.subscribe(Some("job-2".into()));
        let progress = Arc::new(Mutex::new(None));
        let sink = ServeSink::new("job-1".into(), progress.clone(), hub);

        sink.record(&Event::Generation(GenerationEvent {
            generation: 7,
            evaluations: 140,
            best: 1.5,
            mean: 2.0,
            worst: 3.0,
            stagnation: 1,
            evals_per_sec: 50.0,
            counters: Counters::default(),
        }));

        let p = progress.lock().unwrap().expect("generation updates progress");
        assert_eq!((p.generation, p.evaluations), (7, 140));
        assert!(other.try_recv().is_err(), "another job's subscriber hears nothing");
    }
}
