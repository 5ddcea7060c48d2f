//! The daemon's thread count does not grow with its tenants: each shard
//! runs one engine actor and one background worker, however many
//! tenants route to it. A binary of its own, so no other daemon shares
//! the process while it counts.
#![cfg(target_os = "linux")]

use seer_daemon::{Daemon, DaemonClient, DaemonConfig};
use seer_trace::wire::{QueryRequest, QueryResponse};

/// Threads of this process whose name starts with `seer-`: the daemon's
/// named threads. Connection readers are unnamed, so they do not count.
fn daemon_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with("seer-"))
        })
        .count()
}

/// [`daemon_threads`] once every thread the daemon started has named
/// itself: a thread sets its name as it starts running, so a count taken
/// right after `Daemon::spawn` can miss one.
fn settled_daemon_threads() -> usize {
    let mut last = daemon_threads();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = daemon_threads();
        if now == last {
            return now;
        }
        last = now;
    }
}

#[test]
fn threads_do_not_grow_with_tenants() {
    let dir = std::env::temp_dir().join(format!("seer-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.shards = 2;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let before = settled_daemon_threads();
    assert!(before > 0, "the daemon names its threads");

    for i in 0..16 {
        let tenant = format!("tenant-{i}");
        let mut client = DaemonClient::connect_tenant(handle.socket_path(), "threads", &tenant)
            .expect("connect");
        match client.query(QueryRequest::Health).expect("health") {
            QueryResponse::Health { healthy, .. } => assert!(healthy, "{tenant} is healthy"),
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(
        daemon_threads(),
        before,
        "16 tenants on 2 shards added no daemon threads"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
