//! The HTTP test client shared by the service integration suites: one
//! `Connection: close` request per call over real TCP, plus a job poller.

use popgame_util::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One `Connection: close` request; returns `(status, headers, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("receive");
    let (head, body) = reply.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_ascii_lowercase(), body.to_string())
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    http(addr, "GET", path, "")
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    http(addr, "POST", path, body)
}

/// Polls `GET /jobs/{id}` until its status leaves `queued`/`running`.
pub fn wait_for_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).expect("job body parses");
        let state = doc.get("status").unwrap().as_str().unwrap().to_string();
        if state != "queued" && state != "running" {
            return doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(20));
    }
}
