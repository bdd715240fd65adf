//! Durability integration tests: acked writes survive restarts — graceful
//! and not — through the real wire protocol, and snapshots compact
//! tombstones away.

use ssj_serve::net::{client_call, serve_tcp};
use ssj_serve::{Request, Response, Server, ServerConfig, ShardedIndex, SyncMode};
use std::net::TcpListener;
use std::path::{Path, PathBuf};

/// A fresh per-test data directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssj_persist_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(dir: &Path, sync: SyncMode) -> ServerConfig {
    ServerConfig {
        shards: 3,
        workers: 2,
        data_dir: Some(dir.to_path_buf()),
        sync,
        ..ServerConfig::default()
    }
}

fn json_u64(line: &str, key: &str) -> u64 {
    let v = ssj_io::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let obj = v.as_object().unwrap_or_else(|e| panic!("{line}: {e}"));
    obj.get(key)
        .unwrap_or_else(|| panic!("{line}: missing {key}"))
        .as_u64()
        .unwrap_or_else(|e| panic!("{line}: {e}"))
}

fn json_ids(line: &str) -> Vec<u64> {
    let v = ssj_io::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    let obj = v.as_object().unwrap_or_else(|e| panic!("{line}: {e}"));
    obj["ids"]
        .as_array()
        .unwrap_or_else(|e| panic!("{line}: {e}"))
        .iter()
        .map(|x| x.as_u64().expect("id"))
        .collect()
}

/// Starts a TCP frontend for `cfg`; returns the address and the join
/// handle of the accept loop.
fn spawn_tcp(cfg: ServerConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::start(cfg).expect("server starts");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("addr").to_string();
    let h = std::thread::spawn(move || serve_tcp(server, listener));
    (addr, h)
}

#[test]
fn graceful_restart_preserves_acked_writes_over_the_wire() {
    let dir = test_dir("graceful");
    let (addr, srv) = spawn_tcp(durable_cfg(&dir, SyncMode::Every));

    let ins = client_call(&addr, r#"{"op":"insert","set":[1,2,3,4,5]}"#).expect("insert");
    assert!(ins.contains("\"ok\":true"), "{ins}");
    let kept = json_u64(&ins, "id");
    // With sync=every the ack itself certifies durability: the watermark
    // must already cover this write's seq.
    assert!(
        json_u64(&ins, "durable_seq") > json_u64(&ins, "seq"),
        "{ins}"
    );

    let ins2 = client_call(&addr, r#"{"op":"insert","set":[100,200,300]}"#).expect("insert2");
    let doomed = json_u64(&ins2, "id");
    let rm = client_call(&addr, &format!(r#"{{"op":"remove","id":{doomed}}}"#)).expect("remove");
    assert!(rm.contains("\"found\":true"), "{rm}");

    let bye = client_call(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    srv.join().expect("thread").expect("serve_tcp io");

    // Same directory, fresh process-equivalent: recovery must reproduce
    // exactly the acked history — the kept set, and not the removed one.
    let (addr, srv) = spawn_tcp(durable_cfg(&dir, SyncMode::Every));
    let q = client_call(&addr, r#"{"op":"query","set":[1,2,3,4,5]}"#).expect("query");
    assert_eq!(json_ids(&q), vec![kept], "{q}");
    let q2 = client_call(&addr, r#"{"op":"query","set":[100,200,300]}"#).expect("query2");
    assert!(json_ids(&q2).is_empty(), "removed set resurfaced: {q2}");
    let bye = client_call(&addr, r#"{"op":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"op\":\"shutdown\""), "{bye}");
    srv.join().expect("thread").expect("serve_tcp io");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_without_drain_preserves_durably_acked_writes() {
    let dir = test_dir("kill");
    let server = Server::start(durable_cfg(&dir, SyncMode::Every)).expect("server starts");
    let handle = server.handle();

    // Run the real wire protocol over an in-memory session so the "kill"
    // below can bypass every graceful-shutdown path.
    let script = concat!(
        "{\"op\":\"insert\",\"set\":[10,20,30]}\n",
        "{\"op\":\"query_insert\",\"set\":[7,8,9]}\n",
        "{\"op\":\"insert\",\"set\":[42,43]}\n",
    );
    let mut out = Vec::new();
    ssj_serve::net::serve_connection(&handle, script.as_bytes(), &mut out).expect("session");
    let lines: Vec<String> = std::str::from_utf8(&out)
        .expect("utf8")
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert_eq!(lines.len(), 3);
    let mut acked = Vec::new();
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "{line}");
        // sync=every: every acked write is durable at ack time.
        assert!(
            json_u64(line, "durable_seq") > json_u64(line, "seq"),
            "{line}"
        );
        acked.push(json_u64(line, "id"));
    }

    // Simulated crash: no drain, no flush, no WAL truncation — the
    // process just stops caring. (Worker threads leak until test exit.)
    std::mem::forget(server);

    let recovered =
        ShardedIndex::open(&durable_cfg(&dir, SyncMode::Every)).expect("recovery succeeds");
    for (elems, id) in [
        (vec![10u32, 20, 30], acked[0]),
        (vec![7, 8, 9], acked[1]),
        (vec![42, 43], acked[2]),
    ] {
        let (ids, _, _) = recovered.query(elems.clone());
        assert!(
            ids.contains(&id),
            "acked write {id} ({elems:?}) lost across kill+restart"
        );
    }
    assert_eq!(recovered.seq(), 3, "sequence counter must resume past acks");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_flush_covers_unsynced_acks() {
    let dir = test_dir("drain_flush");
    // sync=never: acks carry a durability watermark that lags arbitrarily.
    // Graceful drain must still fsync the tail, so a clean shutdown loses
    // nothing even under the weakest sync policy.
    let server = Server::start(durable_cfg(&dir, SyncMode::Never)).expect("server starts");
    let handle = server.handle();
    let id = match handle.call(Request::Insert {
        elems: vec![5, 6, 7, 8],
    }) {
        Response::Inserted { id, .. } => id,
        other => panic!("unexpected {other:?}"),
    };
    server.shutdown();

    let recovered =
        ShardedIndex::open(&durable_cfg(&dir, SyncMode::Never)).expect("recovery succeeds");
    let (ids, _, _) = recovered.query(vec![5, 6, 7, 8]);
    assert_eq!(ids, vec![id], "write acked before graceful shutdown lost");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_compact_tombstones_away() {
    let dir = test_dir("compact");
    let cfg = ServerConfig {
        snapshot_every: 0, // explicit snapshots only
        ..durable_cfg(&dir, SyncMode::Never)
    };
    let idx = ShardedIndex::open(&cfg).expect("open");
    let mut ids = Vec::new();
    for i in 0..200u32 {
        let base = i * 50;
        let (id, _) = idx.insert((base..base + 12).collect());
        ids.push(id);
    }
    idx.snapshot_now().expect("first snapshot");
    let full_size = snapshot_bytes(&dir);

    // Delete-heavy workload: tombstone 90% of the sets …
    for &id in &ids[..180] {
        let (found, _) = idx.remove(id);
        assert!(found);
    }
    idx.snapshot_now().expect("second snapshot");
    // … and the compacted snapshots must shrink accordingly: dead entries
    // are dropped, not carried forward as tombstone markers.
    let compacted_size = snapshot_bytes(&dir);
    assert!(
        compacted_size < full_size / 2,
        "snapshots did not compact: {full_size} bytes before, {compacted_size} after"
    );

    // The compacted state still recovers to exactly the live tail.
    drop(idx);
    let recovered = ShardedIndex::open(&cfg).expect("recovery succeeds");
    for &id in &ids[180..] {
        let (found, _) = recovered.remove(id);
        assert!(found, "live set {id} lost by compaction");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_background_snapshot_is_counted_in_stats() {
    let dir = test_dir("snapfail");
    let cfg = ServerConfig {
        snapshot_every: 2,
        ..durable_cfg(&dir, SyncMode::Every)
    };
    let server = Server::start(cfg).expect("server starts");
    let handle = server.handle();
    // Replace the data dir with a plain file under the running server: the
    // open WAL handle keeps appending, but the cadence snapshot cannot
    // create its image files.
    std::fs::remove_dir_all(&dir).expect("remove data dir");
    std::fs::write(&dir, b"not a directory").expect("plain file");

    let script = concat!(
        "{\"op\":\"insert\",\"set\":[1,2,3]}\n",
        "{\"op\":\"insert\",\"set\":[4,5,6]}\n",
        "{\"op\":\"stats\"}\n",
    );
    let mut out = Vec::new();
    ssj_serve::net::serve_connection(&handle, script.as_bytes(), &mut out).expect("session");
    let lines: Vec<&str> = std::str::from_utf8(&out).expect("utf8").lines().collect();
    assert_eq!(lines.len(), 3);
    // The snapshot failure never fails the write that triggered it.
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    assert_eq!(json_u64(lines[2], "snapshot_failures"), 1, "{}", lines[2]);
    assert_eq!(handle.stats().snapshot_failures, 1);

    server.shutdown();
    let _ = std::fs::remove_file(&dir);
}

/// Total size of all `shard-*.snap` files in `dir`.
fn snapshot_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let entry = entry.expect("entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.ends_with(".snap") {
            total += entry.metadata().expect("metadata").len();
        }
    }
    total
}
