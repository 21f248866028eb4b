//! Torn-write fuzz for the journal's `.bak` fallback: truncate and
//! corrupt the primary at **every byte boundary** and assert the
//! resilient readers recover the previous good copy or fail with a
//! typed error — never panic, never silently drop a job.
//!
//! This is the crash model the journal's fsync-then-rename protocol
//! defends against (DESIGN.md §17): a crash between the rename and the
//! next write can leave any prefix (power loss mid-page) or any
//! flipped byte (bad sector) in the primary.

use std::path::PathBuf;

use momsynth_serve::{JobRecord, JobSpec, Journal};

fn tmp_root(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_torn_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn sample_spec() -> JobSpec {
    let mut params = momsynth_gen::suite::GeneratorParams::new("torn", 11);
    params.modes = 2;
    params.tasks_per_mode = (4, 5);
    let system = momsynth_gen::suite::generate(&params);
    JobSpec::new(system)
}

/// Truncating the record primary at every byte boundary: `load_all`
/// recovers the backup copy (with a recovery note) for every torn
/// prefix, and reads the primary cleanly only at full length.
#[test]
fn record_truncated_at_every_boundary_recovers_or_reports() {
    let root = tmp_root("record_trunc");
    let journal = Journal::open(&root).unwrap();
    let mut record = JobRecord::new("job-000001".into(), 1, 3);
    journal.write_record(&record).unwrap();
    record.transition(momsynth_serve::JobState::Analyzing, "attempt 1");
    journal.write_record(&record).unwrap(); // keeps v1 as `.bak`

    let path = journal.record_path("job-000001");
    let full = std::fs::read(&path).unwrap();
    for cut in 0..=full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let (records, notes) = journal.load_all();
        assert_eq!(
            records.len(),
            1,
            "a torn primary with a good backup must never lose the job (cut={cut})"
        );
        if cut == full.len() {
            assert_eq!(records[0].state, momsynth_serve::JobState::Analyzing);
            assert!(notes.is_empty(), "a clean primary needs no recovery: {notes:?}");
        } else {
            assert_eq!(
                records[0].state,
                momsynth_serve::JobState::Queued,
                "fallback must be the previous good record (cut={cut})"
            );
            assert!(
                notes.iter().any(|n| n.contains("torn")),
                "recovery must be reported, not silent (cut={cut}): {notes:?}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Flipping every byte of the record primary: `load_all` either still
/// parses the primary (the flip landed in a value and stayed valid) or
/// falls back to the backup — it never panics and never returns zero
/// jobs.
#[test]
fn record_corrupted_at_every_byte_never_panics_or_drops() {
    let root = tmp_root("record_flip");
    let journal = Journal::open(&root).unwrap();
    let record = JobRecord::new("job-000002".into(), 2, 1);
    journal.write_record(&record).unwrap();
    journal.write_record(&record).unwrap(); // `.bak` = same good copy

    let path = journal.record_path("job-000002");
    let full = std::fs::read(&path).unwrap();
    for at in 0..full.len() {
        let mut bytes = full.clone();
        bytes[at] ^= 0xff; // also exercises invalid UTF-8
        std::fs::write(&path, &bytes).unwrap();
        let (records, _notes) = journal.load_all();
        assert_eq!(records.len(), 1, "a single flipped byte must never lose the job (at={at})");
        assert_eq!(records[0].id, "job-000002");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A spec written once has no `.bak`; truncating it at every boundary
/// must yield a typed `JournalError` from `load_spec` (the server then
/// fails the job permanently) — never a panic.
#[test]
fn spec_without_backup_fails_typed_at_every_truncation() {
    let root = tmp_root("spec_trunc");
    let journal = Journal::open(&root).unwrap();
    let spec = sample_spec();
    journal.write_spec("job-000003", &spec).unwrap();

    let path = journal.spec_path("job-000003");
    let full = std::fs::read(&path).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = journal
            .load_spec("job-000003")
            .expect_err("a torn spec with no backup must fail (cut={cut})");
        assert!(err.to_string().contains("job-000003"), "the error must name the torn file: {err}");
    }
    // Restored to full length, the spec loads again.
    std::fs::write(&path, &full).unwrap();
    journal.load_spec("job-000003").unwrap();
    std::fs::remove_dir_all(&root).ok();
}

/// A spec overwritten once (same bytes) keeps a `.bak`; every
/// truncation of the primary then recovers instead of failing.
#[test]
fn spec_with_backup_recovers_at_every_truncation() {
    let root = tmp_root("spec_bak");
    let journal = Journal::open(&root).unwrap();
    let spec = sample_spec();
    journal.write_spec("job-000004", &spec).unwrap();
    journal.write_spec("job-000004", &spec).unwrap();

    let path = journal.spec_path("job-000004");
    let full = std::fs::read(&path).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let loaded =
            journal.load_spec("job-000004").expect("the backup must cover every torn prefix");
        assert_eq!(loaded.system.name(), spec.system.name());
    }
    std::fs::remove_dir_all(&root).ok();
}
