//! Bounded submission queue with typed back-pressure and priority
//! shedding.
//!
//! Ordering is strict priority (higher first), FIFO within a priority
//! (submission sequence). When the queue is full, a new submission
//! either sheds the lowest-priority queued entry (if the newcomer
//! outranks it — graceful degradation) or is rejected with a typed
//! retry-after hint (back-pressure). Submissions never hang and never
//! panic on a full queue.

use std::time::Instant;

/// One queued job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueEntry {
    /// Job identifier.
    pub id: String,
    /// Scheduling priority (higher runs first).
    pub priority: u8,
    /// Submission sequence (FIFO tie-breaker).
    pub seq: u64,
    /// Earliest instant a worker may start this entry (retry backoff);
    /// `None` means immediately.
    pub not_before: Option<Instant>,
}

/// What happened to a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum PushOutcome {
    /// The entry was enqueued; the queue had room.
    Enqueued,
    /// The queue was full; the named lowest-priority entry was shed to
    /// make room for this higher-priority submission.
    EnqueuedShedding(String),
    /// The queue is full of equal-or-higher-priority work: the caller
    /// should retry after roughly this many seconds.
    Rejected {
        /// Suggested client back-off in seconds.
        retry_after_s: f64,
    },
}

/// The bounded priority queue.
#[derive(Debug)]
pub struct PendingQueue {
    capacity: usize,
    entries: Vec<QueueEntry>,
}

impl PendingQueue {
    /// An empty queue holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), entries: Vec::new() }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers an entry. Never blocks: a full queue sheds a strictly
    /// lower-priority entry or rejects the newcomer with a retry hint.
    pub fn push(&mut self, entry: QueueEntry) -> PushOutcome {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return PushOutcome::Enqueued;
        }
        // Full: find the weakest queued entry — lowest priority, and the
        // youngest (highest seq) among those, so older equal-priority
        // work is preserved.
        let weakest = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.seq)))
            .map(|(i, e)| (i, e.priority));
        match weakest {
            Some((index, weakest_priority)) if entry.priority > weakest_priority => {
                let shed = self.entries.swap_remove(index);
                self.entries.push(entry);
                PushOutcome::EnqueuedShedding(shed.id)
            }
            _ => PushOutcome::Rejected { retry_after_s: self.retry_after_s() },
        }
    }

    /// Re-enqueues a retry without shedding or rejection: retries were
    /// already admitted once and must not be lost to back-pressure. The
    /// capacity bound only applies to *new* submissions.
    pub fn push_retry(&mut self, entry: QueueEntry) {
        self.entries.push(entry);
    }

    /// Pops the highest-priority entry whose backoff has expired
    /// (priority desc, then seq asc). `None` when nothing is due.
    pub fn pop_due(&mut self, now: Instant) -> Option<QueueEntry> {
        let index = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.not_before.is_none_or(|t| t <= now))
            .min_by_key(|(_, e)| (std::cmp::Reverse(e.priority), e.seq))
            .map(|(i, _)| i)?;
        Some(self.entries.swap_remove(index))
    }

    /// The earliest `not_before` among entries still backing off.
    pub fn earliest_not_before(&self) -> Option<Instant> {
        self.entries.iter().filter_map(|e| e.not_before).min()
    }

    /// Removes an entry by job id (cancellation while queued).
    pub fn remove(&mut self, id: &str) -> Option<QueueEntry> {
        let index = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.swap_remove(index))
    }

    /// Suggested client back-off: scales with queue depth, clamped to
    /// a sane interactive range.
    fn retry_after_s(&self) -> f64 {
        (self.entries.len() as f64 * 0.5).clamp(0.5, 30.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, priority: u8, seq: u64) -> QueueEntry {
        QueueEntry { id: id.into(), priority, seq, not_before: None }
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let mut q = PendingQueue::new(8);
        q.push(entry("a", 1, 1));
        q.push(entry("b", 5, 2));
        q.push(entry("c", 5, 3));
        q.push(entry("d", 0, 4));
        let now = Instant::now();
        let order: Vec<String> = std::iter::from_fn(|| q.pop_due(now).map(|e| e.id)).collect();
        assert_eq!(order, vec!["b", "c", "a", "d"]);
    }

    #[test]
    fn full_queue_rejects_equal_priority_with_retry_hint() {
        let mut q = PendingQueue::new(2);
        assert_eq!(q.push(entry("a", 3, 1)), PushOutcome::Enqueued);
        assert_eq!(q.push(entry("b", 3, 2)), PushOutcome::Enqueued);
        match q.push(entry("c", 3, 3)) {
            PushOutcome::Rejected { retry_after_s } => {
                assert!(retry_after_s >= 0.5, "{retry_after_s}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.len(), 2, "rejected submissions leave the queue unchanged");
    }

    #[test]
    fn full_queue_sheds_strictly_lower_priority_youngest_first() {
        let mut q = PendingQueue::new(3);
        q.push(entry("old-low", 1, 1));
        q.push(entry("young-low", 1, 2));
        q.push(entry("high", 7, 3));
        assert_eq!(
            q.push(entry("urgent", 5, 4)),
            PushOutcome::EnqueuedShedding("young-low".into()),
            "the youngest lowest-priority entry goes first"
        );
        assert_eq!(q.push(entry("urgent2", 5, 5)), PushOutcome::EnqueuedShedding("old-low".into()));
        // Now everything queued outranks or equals priority 5.
        assert!(matches!(q.push(entry("late", 5, 6)), PushOutcome::Rejected { .. }));
    }

    #[test]
    fn backoff_entries_are_skipped_until_due() {
        let mut q = PendingQueue::new(4);
        let now = Instant::now();
        let later = now + std::time::Duration::from_secs(60);
        q.push_retry(QueueEntry {
            id: "retry".into(),
            priority: 9,
            seq: 1,
            not_before: Some(later),
        });
        q.push(entry("fresh", 0, 2));
        // The backing-off entry outranks but is not due: pop skips it.
        assert_eq!(q.pop_due(now).unwrap().id, "fresh");
        assert!(q.pop_due(now).is_none());
        assert_eq!(q.earliest_not_before(), Some(later));
        assert_eq!(q.pop_due(later).unwrap().id, "retry");
    }

    #[test]
    fn cancellation_removes_queued_entries() {
        let mut q = PendingQueue::new(4);
        q.push(entry("a", 0, 1));
        q.push(entry("b", 0, 2));
        assert_eq!(q.remove("a").unwrap().id, "a");
        assert!(q.remove("a").is_none());
        assert_eq!(q.len(), 1);
    }
}
