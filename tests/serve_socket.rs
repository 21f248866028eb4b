//! The job server's Unix-socket transport under hostile clients: a
//! connection over `MAX_CONNECTIONS`, a request whose `é` is split
//! across the server's read timeout, a line that is not UTF-8 and a line
//! over `MAX_LINE_BYTES` each get a reply line, and the server still
//! answers `ping` afterwards. A job id that is not one the server mints
//! (absolute, climbing with `../`, empty, holding a `/`, overlong) is an
//! unknown job to every command that takes one, so no id reads a file
//! outside the journal.

#![cfg(unix)]

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use momsynth_serve::socket::{serve_unix, MAX_CONNECTIONS, MAX_LINE_BYTES};
use momsynth_serve::{Server, ServerConfig};

const PING: &[u8] = b"{\"cmd\":\"ping\"}\n";

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("momsynth_socket_{}_{name}", std::process::id()));
    p
}

/// Connects to the socket at `path`, waiting for the listener to bind.
fn connect(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => {
                stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                return stream;
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("cannot connect to {}: {e}", path.display()),
        }
    }
}

/// The next reply line, or `None` once the server has closed the
/// connection. Panics when no reply arrives within the read timeout.
fn reply(stream: &mut UnixStream) -> Option<Value> {
    let mut line = Vec::new();
    let mut byte = [0u8];
    loop {
        match stream.read(&mut byte) {
            Ok(0) if line.is_empty() => return None,
            Ok(0) => panic!("connection closed mid-line: {line:?}"),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => panic!("no reply: {e}"),
        }
    }
    let line = String::from_utf8(line).expect("a reply line is UTF-8");
    Some(serde_json::from_str(&line).expect("a reply line is JSON"))
}

fn is_pong(reply: &Option<Value>) -> bool {
    reply.as_ref().and_then(|r| r.get("pong")).and_then(Value::as_bool) == Some(true)
}

fn ping(stream: &mut UnixStream) -> Option<Value> {
    stream.write_all(PING).unwrap();
    reply(stream)
}

#[test]
fn hostile_socket_clients_get_replies_and_the_server_keeps_serving() {
    let root = tmp_path("root");
    let path = tmp_path("sock");
    std::fs::remove_dir_all(&root).ok();
    let server = Arc::new(Server::start(ServerConfig::new(root.clone())).expect("server starts"));
    let stop = Arc::new(AtomicBool::new(false));
    let listener = {
        let (server, path, stop) = (Arc::clone(&server), path.clone(), Arc::clone(&stop));
        std::thread::spawn(move || serve_unix(&server, &path, &stop))
    };

    // `MAX_CONNECTIONS` open connections are served; one more gets a
    // typed refusal and is closed. This case runs first, while no other
    // connection holds a slot.
    let mut held: Vec<UnixStream> = (0..MAX_CONNECTIONS).map(|_| connect(&path)).collect();
    for stream in &mut held {
        assert!(is_pong(&ping(stream)), "connections under the cap are served");
    }
    let mut extra = connect(&path);
    let refusal = reply(&mut extra).expect("a connection over the cap gets a reply");
    assert_eq!(refusal["ok"], Value::Bool(false), "{refusal}");
    assert_eq!(refusal["limit"].as_str(), Some("connections"), "{refusal}");
    assert_eq!(refusal["max"].as_u64(), Some(MAX_CONNECTIONS as u64), "{refusal}");
    assert!(reply(&mut extra).is_none(), "a refused connection is closed");
    // Closing them frees their slots. A connection accepted before the
    // server noticed is refused, and its ping may meet a closed socket.
    held.clear();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = connect(&path);
        let _ = client.write_all(PING);
        if is_pong(&reply(&mut client)) {
            break;
        }
        assert!(Instant::now() < deadline, "closed connections never freed their slots");
        std::thread::sleep(Duration::from_millis(50));
    }

    // An `é` split across the server's 200 ms read timeout: the request
    // is answered once its second byte arrives.
    let mut client = connect(&path);
    client.write_all(b"{\"cmd\":\"ping\",\"note\":\"caf\xC3").unwrap();
    std::thread::sleep(Duration::from_millis(500));
    client.write_all(b"\xA9\"}\n").unwrap();
    assert!(is_pong(&reply(&mut client)), "a split character must not lose the request");

    // A line that is not UTF-8 gets an error reply, and the session
    // goes on.
    client.write_all(b"{\"cmd\":\"ping\",\"note\":\"\xFF\"}\n").unwrap();
    let error = reply(&mut client).expect("invalid UTF-8 gets a reply");
    assert_eq!(error["ok"], Value::Bool(false), "{error}");
    assert!(error["error"].as_str().is_some_and(|e| e.contains("UTF-8")), "{error}");
    assert!(is_pong(&ping(&mut client)), "the session survives invalid UTF-8");

    // A line of `MAX_LINE_BYTES` bytes without a newline gets a typed
    // error, and the server closes the session.
    let mut client = connect(&path);
    client.write_all(&vec![b' '; MAX_LINE_BYTES]).unwrap();
    let error = reply(&mut client).expect("an over-long line gets a reply");
    assert_eq!(error["ok"], Value::Bool(false), "{error}");
    assert_eq!(error["limit"].as_str(), Some("line_bytes"), "{error}");
    assert_eq!(error["max"].as_u64(), Some(MAX_LINE_BYTES as u64), "{error}");
    assert!(reply(&mut client).is_none(), "the session ends after an over-long line");

    // The server still answers `ping`.
    assert!(is_pong(&ping(&mut connect(&path))), "the server must keep serving");

    stop.store(true, Ordering::Release);
    listener.join().expect("accept loop").expect("socket served");
    drop(server);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn job_ids_never_name_a_file_outside_the_journal() {
    let root = tmp_path("ids_root");
    let path = tmp_path("ids_sock");
    std::fs::remove_dir_all(&root).ok();
    // A file outside the journal that parses both as a solution report
    // and as a job record. `root/<sub>/../../` is its directory.
    let marker = "planted-outside-the-journal";
    let outside = std::env::temp_dir();
    let name = format!("momsynth_trav_{}", std::process::id());
    let planted = outside.join(format!("{name}.json"));
    let content = format!(
        r#"{{"id":"{marker}","seq":1,"priority":0,"state":"Verified","attempts":1,"feasible":true}}"#
    );
    std::fs::write(&planted, content).unwrap();

    let server = Arc::new(Server::start(ServerConfig::new(root.clone())).expect("server starts"));
    let stop = Arc::new(AtomicBool::new(false));
    let listener = {
        let (server, path, stop) = (Arc::clone(&server), path.clone(), Arc::clone(&stop));
        std::thread::spawn(move || serve_unix(&server, &path, &stop))
    };

    let absolute = outside.join(&name).to_str().expect("a UTF-8 temp dir").to_owned();
    let ids = [
        absolute,
        format!("../../{name}"),
        String::new(),
        format!("job-000001/../../{name}"),
        format!("jobs/../../{name}"),
        format!("job-{}", "0".repeat(4096)),
        format!("{}{name}", "../".repeat(2048)),
    ];
    let mut client = connect(&path);
    for id in &ids {
        for cmd in ["result", "status", "cancel", "wait"] {
            let request = serde_json::json!({"cmd": cmd, "id": id, "timeout_s": 0.1});
            client.write_all(format!("{request}\n").as_bytes()).unwrap();
            let reply = reply(&mut client).expect("every hostile id gets a reply");
            let text = reply.to_string();
            let shown: String = text.chars().take(200).collect();
            assert_eq!(reply["ok"], Value::Bool(false), "{cmd} {shown}");
            assert!(reply["error"].as_str().is_some(), "{cmd} {shown}");
            assert!(!text.contains(marker), "{cmd} read the planted file: {shown}");
        }
    }
    assert!(is_pong(&ping(&mut client)), "the server must keep serving");

    stop.store(true, Ordering::Release);
    listener.join().expect("accept loop").expect("socket served");
    drop(server);
    std::fs::remove_file(&planted).ok();
    std::fs::remove_dir_all(&root).ok();
}
