//! The job server keeps only jobs in flight in memory. A finished job is
//! answered from its journalled record (summary and last progress
//! included), by the server that ran it and by a server restarted on the
//! same journal; a terminal record that cannot be written stays in memory
//! and is still reported terminal.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use momsynth_gen::suite::{generate, GeneratorParams};
use momsynth_serve::{JobSpec, JobState, JobStatus, Journal, Server, ServerConfig};

fn system(name: &str, seed: u64, modes: usize, tasks: (usize, usize)) -> momsynth_model::System {
    let mut params = GeneratorParams::new(name, seed);
    params.modes = modes;
    params.tasks_per_mode = tasks;
    generate(&params)
}

fn quick_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(system("journal-quick", seed, 2, (4, 6)));
    spec.quick = true;
    spec.seed = seed;
    spec.max_evaluations = Some(60);
    spec
}

fn tmp_root(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_serve_journal_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// What the server says about `ids`: each job's status, the `list`
/// reply, and each job's `cancel` reply.
fn answers(server: &Server, ids: &[String]) -> (Vec<JobStatus>, Vec<JobStatus>, Vec<JobState>) {
    let statuses = ids.iter().map(|id| server.status(id).expect("a known job")).collect();
    let cancels = ids.iter().map(|id| server.cancel(id).expect("a known job")).collect();
    (statuses, server.list(), cancels)
}

#[test]
fn finished_jobs_answer_from_the_journal_before_and_after_a_restart() {
    let root = tmp_root("restart");
    let server = Server::start(ServerConfig::new(root.clone())).expect("server starts");
    let ids: Vec<String> =
        (1..=3).map(|seed| server.submit(&quick_spec(seed)).expect("job admitted")).collect();
    assert!(server.wait_idle(Duration::from_secs(300)), "jobs must finish");

    let before = answers(&server, &ids);
    let journal = Journal::open(&root).expect("journal opens");
    for (id, status) in ids.iter().zip(&before.0) {
        assert_eq!(&status.record.id, id);
        assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
        assert!(status.record.summary.is_some(), "a verified job keeps its summary");
        let progress = status.progress.expect("a finished job keeps its last progress");
        assert!(progress.generation > 0 && progress.evaluations > 0, "{progress:?}");
        let journalled = journal.load_record(id).expect("the record is journalled");
        assert_eq!(journalled, status.record, "status is the journalled record");
        assert_eq!(journalled.progress, Some(progress), "the last progress is journalled");
        assert!(server.result(id).is_some(), "a verified job's result");
    }
    assert_eq!(before.1, before.0, "list gives every job in seq order");
    assert_eq!(before.2, vec![JobState::Verified; ids.len()], "cancel is idempotent");
    server.shutdown();

    // A restarted server recovers nothing, yet answers the same.
    let server = Server::start(ServerConfig::new(root.clone())).expect("server restarts");
    assert!(server.recovery_notes().is_empty(), "{:?}", server.recovery_notes());
    assert_eq!(answers(&server, &ids), before);
    for id in &ids {
        assert!(server.result(id).is_some(), "a verified job's result");
    }
    // Finished jobs still count towards the next id.
    let next = server.submit(&quick_spec(4)).expect("job admitted");
    assert_eq!(next, "job-000004");
    let status = server.wait_terminal(&next, Duration::from_secs(300)).expect("job finishes");
    assert_eq!(status.record.state, JobState::Verified, "{:?}", status.record);
    let listed: Vec<String> = server.list().into_iter().map(|s| s.record.id).collect();
    assert_eq!(listed, ["job-000001", "job-000002", "job-000003", "job-000004"]);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_terminal_record_that_cannot_be_written_stays_resident() {
    let root = tmp_root("unwritable");
    let mut config = ServerConfig::new(root.clone());
    config.workers = 1;
    let server = Server::start(config).expect("server starts");
    // The default GA on this system runs for seconds: it is cancelled
    // mid-run.
    let id = server.submit(&JobSpec::new(system("journal-slow", 9, 4, (12, 16)))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.status(&id).expect("a known job").record.state != JobState::Running {
        assert!(Instant::now() < deadline, "the job never started running");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A directory where the durable write puts its temporary file makes
    // every later write of this record fail.
    let mut tmp = server.journal().record_path(&id).into_os_string();
    tmp.push(".tmp");
    std::fs::create_dir(&tmp).unwrap();
    assert_eq!(server.cancel(&id), Some(JobState::Running));
    let status = server.wait_terminal(&id, Duration::from_secs(120)).expect("cancel ends the job");
    assert_eq!(status.record.state, JobState::Cancelled, "{:?}", status.record);

    let journalled = Journal::open(&root).unwrap().load_record(&id).expect("journalled");
    assert_eq!(journalled.state, JobState::Running, "the terminal write failed");
    assert!(server.wait_idle(Duration::from_secs(10)), "the resident job is terminal");
    assert_eq!(server.status(&id).unwrap(), status, "the record stays resident");
    assert_eq!(server.list(), vec![status]);
    assert_eq!(server.cancel(&id), Some(JobState::Cancelled));

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
