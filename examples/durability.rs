//! Durability demo: the write-ahead event log surviving a simulated
//! crash. One process plays both lives of the daemon's store — append
//! some acked cascades, "crash" without a clean close, tear the final
//! record the way a mid-write power cut would, then reopen and watch
//! recovery hand back every intact record.
//!
//! ```text
//! cargo run --release --example durability -- --events 8 --seed 3
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use viralnews::cli::Flags;
use viralnews::viralcast::propagation::{Cascade, Infection};
use viralnews::viralcast::store::{EventStore, FsyncPolicy, WalOptions};

/// A small random cascade over a 64-node universe.
fn random_cascade(rng: &mut StdRng) -> Cascade {
    let len = rng.gen_range(2..6);
    let start: u32 = rng.gen_range(0..64);
    let infections = (0..len)
        .map(|i| Infection::new((start + i * 7) % 64, i as f64 * 0.25))
        .collect();
    Cascade::new(infections).expect("generator emits valid cascades")
}

fn main() {
    let flags = Flags::from_env();
    let events = flags.usize("events", 8);
    let seed = flags.u64("seed", 3);
    let mut rng = StdRng::seed_from_u64(seed);
    flags.finish();

    let dir = std::env::temp_dir().join(format!("viralcast-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions {
        fsync: FsyncPolicy::Always,
        ..WalOptions::default()
    };

    // Life 1: ack a batch, then crash without a clean close.
    let cascades: Vec<Cascade> = (0..events).map(|_| random_cascade(&mut rng)).collect();
    let (mut store, _) = EventStore::open(&dir, options).expect("open data dir");
    let next = store.append_batch(&cascades).expect("append batch");
    println!(
        "life 1: acked {events} cascade(s) into {} (next record index {next})",
        dir.display()
    );
    store.abandon(); // no final fsync, no clean shutdown — a crash

    // The power cut lands mid-write: cut a few bytes off the final
    // record so it can never pass its CRC.
    let segment = std::fs::read_dir(&dir)
        .expect("read data dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            let name = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .expect("the crash left a segment behind");
    let len = std::fs::metadata(&segment).expect("stat segment").len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .and_then(|f| f.set_len(len - 3))
        .expect("tear the tail");
    println!(
        "crash: tore 3 byte(s) off the final record of {}",
        segment.display()
    );

    // Life 2: recovery replays the maximal intact prefix and trims the
    // torn tail; appending resumes at the first lost index.
    let (mut store, recovery) = EventStore::open(&dir, options).expect("reopen after crash");
    println!(
        "life 2: recovered {} of {events} record(s), {} torn byte(s) truncated",
        recovery.replayed, recovery.truncated_bytes
    );
    for (i, cascade) in recovery.pending.iter().enumerate() {
        println!(
            "  record {i}: {} infection(s), seed node {}",
            cascade.infections().len(),
            cascade.seed().node.0
        );
    }
    assert_eq!(
        recovery.replayed,
        events - 1,
        "exactly the torn record lost"
    );

    // The lost record was never acked as recovered — re-append it and
    // the log is whole again.
    let next = store
        .append_batch(&cascades[events - 1..])
        .expect("re-append the torn record");
    println!("re-appended the torn cascade; next record index {next}");

    std::fs::remove_dir_all(&dir).ok();
}
