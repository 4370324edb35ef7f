//! The `ivl_replicate` frontend binary over in-process replicas: it
//! must treat malformed frames exactly like the serving backends do —
//! a well-delimited malformed frame is answered with a `protocol`
//! error and the connection keeps serving; an oversized length prefix
//! is answered with a `protocol` error before the connection closes.

use ivl_service::protocol::{read_frame, DEFAULT_MAX_FRAME_LEN};
use ivl_service::{Client, ErrorCode, Request, Response, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the frontend process however the test ends.
struct Frontend(Child);

impl Drop for Frontend {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `ivl_replicate` on an OS-picked port over `replicas` and
/// returns it with the address it reports listening on.
fn spawn_frontend(replicas: &[ServerHandle]) -> (Frontend, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ivl_replicate"));
    cmd.arg("127.0.0.1:0");
    for r in replicas {
        cmd.arg("--replica").arg(r.addr().to_string());
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ivl_replicate");
    let stdout = child.stdout.take().expect("piped stdout");
    let frontend = Frontend(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("banner line");
    // "ivl_replicate listening on 127.0.0.1:PORT [...]"
    let addr = line
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();
    (frontend, addr)
}

fn read_response(s: &mut TcpStream) -> Option<Response> {
    read_frame(s, DEFAULT_MAX_FRAME_LEN)
        .expect("a whole frame or a clean close")
        .map(|payload| Response::decode(&payload).expect("response decodes"))
}

fn assert_protocol_error(rsp: Option<Response>) {
    match rsp {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn frontend_answers_protocol_errors_like_the_backends() {
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| ivl_service::serve("127.0.0.1:0", ServerConfig::default()).expect("replica"))
        .collect();
    let (frontend, addr) = spawn_frontend(&replicas);

    let mut s = TcpStream::connect(&addr).expect("connect to the frontend");
    // A well-delimited frame under a retired opcode: answered, and the
    // same connection keeps serving a valid QUERY2.
    s.write_all(&2u32.to_le_bytes()).unwrap();
    s.write_all(&[0x01, 0x00]).unwrap();
    assert_protocol_error(read_response(&mut s));
    let mut buf = Vec::new();
    Request::Query { object: 0, key: 1 }.encode(&mut buf);
    s.write_all(&buf).unwrap();
    assert!(matches!(read_response(&mut s), Some(Response::Envelope(_))));
    let mut c = Client::connect(addr.as_str()).expect("stats client");
    assert_eq!(c.stats().expect("stats").protocol_errors, 1);

    // An oversized length prefix cannot be resynchronized: answered
    // with a protocol error, then the frontend closes the connection.
    s.write_all(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    assert_protocol_error(read_response(&mut s));
    assert!(read_response(&mut s).is_none(), "closed after the error");
    assert_eq!(c.stats().expect("stats").protocol_errors, 2);

    drop((s, c));
    drop(frontend);
    for r in replicas {
        drop(r.join());
    }
}
