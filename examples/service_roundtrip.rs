//! Boots an in-process `popgamed`, solves a game, runs a simulation, and
//! checks the cache/determinism contract — the serving layer in thirty
//! lines. Exits non-zero if the repeated `/simulate` misses the cache or
//! its bytes differ.
//!
//! ```sh
//! cargo run --release --example service_roundtrip
//! ```

use popgame_service::http::Client;
use popgame_service::{PopgameService, ServiceConfig};

fn main() {
    let service = PopgameService::start(ServiceConfig::default()).expect("bind loopback");
    let addr = service.local_addr();
    println!("popgamed on http://{addr}\n");
    let mut client = Client::connect(addr).expect("connect");
    let mut post = |path: &str, body: &str| client.request("POST", path, body).expect("request");

    let solved = post("/solve", r#"{"scenario":"hawk-dove"}"#);
    println!("solve hawk-dove      -> {}\n", solved.body);

    let request = r#"{"scenario":"hawk-dove","n":10000,"replicas":4,"seed":7}"#;
    let cold = post("/simulate", request);
    println!("simulate (cold miss) -> {}\n", cold.body);

    let warm = post("/simulate", request);
    assert_eq!(warm.header("x-popgame-cache"), Some("hit"), "the repeat must hit the cache");
    assert_eq!(cold.body, warm.body, "cache hits are byte-identical");
    println!("simulate again       -> served from cache (byte-identical cache hit)");

    drop(client);
    service.shutdown();
}
