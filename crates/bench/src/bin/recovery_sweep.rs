//! **Recovery and scrub throughput**: how long the file store takes to
//! come back after a crash, as a function of how much un-checkpointed
//! WAL it must replay, and how fast the scrubber verifies and repairs a
//! page file, as a function of the seeded corruption rate.
//!
//! Two legs, both on the real filesystem (a scratch tempdir):
//!
//! * **recovery** — seeded write histories under `Durability::None`
//!   (nothing checkpointed, the whole history sits in the WAL), process
//!   death, then a timed [`FileStore::open`]: replay + checksum pass +
//!   checkpoint. Rows sweep the WAL length.
//! * **scrub** — a checkpointed store re-covered by a fresh WAL layer,
//!   a seeded fraction of its pages corrupted on disk, then a timed
//!   [`scrub_store_in`] pass. WAL-covered pages are repaired, the rest
//!   quarantined; rows sweep the corruption rate.
//!
//! Rows are printed to stdout **and** written to `BENCH_recovery.json`
//! in `HDIDX_BENCH_OUT` (default: current directory). `--smoke` shrinks
//! the sweep for CI.

use hdidx_bench::ExpArgs;
use hdidx_diskio::DiskOptions;
use hdidx_rand::splitmix::derive_seed;
use hdidx_store::{scrub_store_in, Durability, FileStore, OsFs, PAGE_BYTES, PAYLOAD_BYTES};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Page-file header bytes ahead of each payload (checksummed region).
const HEADER_BYTES: usize = PAGE_BYTES - PAYLOAD_BYTES;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdidx_recovery_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A never-all-zero seeded payload for page `p` of round `r`.
fn payload(seed: u64, r: u64, p: u64) -> Vec<u8> {
    let h = derive_seed(derive_seed(seed, r), p);
    (0..PAYLOAD_BYTES)
        .map(|i| (h as usize).wrapping_mul(37).wrapping_add(i * 11) as u8 | 1)
        .collect()
}

/// Writes `batches` one-page batches over a `span`-page file.
fn run_batches(st: &mut FileStore, seed: u64, span: u64, batches: usize) {
    let f = st.alloc(span).expect("alloc");
    for b in 0..batches {
        let p = derive_seed(seed, b as u64) % span;
        st.write_pages(&f, p, 1, &payload(seed, b as u64, p))
            .expect("write batch");
    }
}

struct RecoveryRow {
    batches: usize,
    wal_bytes: u64,
    recovery_wall_s: f64,
    pages: u64,
}

struct ScrubRow {
    pages: u64,
    corrupt_pages: u64,
    repaired: u64,
    quarantined: u64,
    scrub_wall_s: f64,
    pages_per_s: f64,
}

fn main() {
    let args = ExpArgs::parse(1.0, 0);
    println!("Recovery and scrub throughput vs WAL length and corruption rate");

    let span: u64 = if args.smoke { 32 } else { 256 };
    let batch_sweep: &[usize] = if args.smoke {
        &[4, 16]
    } else {
        &[8, 32, 128, 512]
    };
    let corrupt_sweep: &[u64] = if args.smoke { &[0, 4] } else { &[0, 4, 16, 64] };

    // Leg 1: recovery time vs WAL length. Durability::None keeps every
    // batch in the WAL (volatile until the checkpoint that never comes),
    // so reopening replays the full history.
    let mut recovery_rows = Vec::new();
    for &batches in batch_sweep {
        let dir = tmpdir(&format!("recover_{batches}"));
        let mut st = FileStore::open(&dir, Durability::None, &DiskOptions::new()).expect("open");
        run_batches(&mut st, args.seed, span, batches);
        let wal_bytes = st.wal_len();
        drop(st); // process death: nothing checkpointed

        let clock = Instant::now();
        let st = FileStore::open(&dir, Durability::None, &DiskOptions::new()).expect("recover");
        let recovery_wall_s = clock.elapsed().as_secs_f64();
        assert_eq!(st.wal_len(), 0, "recovery must checkpoint the WAL");
        recovery_rows.push(RecoveryRow {
            batches,
            wal_bytes,
            recovery_wall_s,
            pages: st.pages(),
        });
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Leg 2: scrub throughput vs corruption. Checkpoint the full span,
    // then rewrite a quarter of it WITHOUT a checkpoint so the WAL
    // covers those pages, crash, and corrupt a seeded set of pages on
    // disk: WAL-covered victims are repaired, the rest quarantined.
    let mut scrub_rows = Vec::new();
    for &corrupt_pages in corrupt_sweep {
        let dir = tmpdir(&format!("scrub_{corrupt_pages}"));
        let mut st =
            FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).expect("open");
        let f = st.alloc(span).expect("alloc");
        for p in 0..span {
            st.write_pages(&f, p, 1, &payload(args.seed, 0, p))
                .expect("fill");
        }
        st.sync().expect("checkpoint");
        for p in 0..span / 4 {
            st.write_pages(&f, p, 1, &payload(args.seed, 1, p))
                .expect("wal cover");
        }
        drop(st); // crash: the rewrite lives only in the WAL

        corrupt(&dir.join("pages.db"), args.seed, span, corrupt_pages);
        let clock = Instant::now();
        let report = scrub_store_in(&OsFs, &dir).expect("scrub");
        let scrub_wall_s = clock.elapsed().as_secs_f64();
        assert_eq!(
            report.pages_corrupt, corrupt_pages,
            "seeded corruption count"
        );
        // The store must reopen whatever the scrub decided.
        FileStore::open(&dir, Durability::PerBatch, &DiskOptions::new()).expect("reopen");
        scrub_rows.push(ScrubRow {
            pages: report.pages_scanned,
            corrupt_pages,
            repaired: report.pages_repaired,
            quarantined: report.pages_quarantined,
            scrub_wall_s,
            pages_per_s: report.pages_scanned as f64 / scrub_wall_s.max(1e-9),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut lines = String::new();
    for r in &recovery_rows {
        let json = format!(
            "{{\"leg\":\"recovery\",\"batches\":{},\"wal_bytes\":{},\
             \"recovery_wall_s\":{:.6},\"pages\":{}}}",
            r.batches, r.wal_bytes, r.recovery_wall_s, r.pages
        );
        println!("{json}");
        lines.push_str(&json);
        lines.push('\n');
    }
    for r in &scrub_rows {
        let json = format!(
            "{{\"leg\":\"scrub\",\"pages\":{},\"corrupt_pages\":{},\
             \"repaired\":{},\"quarantined\":{},\"scrub_wall_s\":{:.6},\
             \"pages_per_s\":{:.1}}}",
            r.pages, r.corrupt_pages, r.repaired, r.quarantined, r.scrub_wall_s, r.pages_per_s
        );
        println!("{json}");
        lines.push_str(&json);
        lines.push('\n');
    }
    let dir = std::env::var("HDIDX_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = Path::new(&dir).join("BENCH_recovery.json");
    let mut f = std::fs::File::create(&path).expect("create BENCH_recovery.json");
    f.write_all(lines.as_bytes())
        .expect("write BENCH_recovery.json");
    println!(
        "\nwrote {} rows to {}",
        recovery_rows.len() + scrub_rows.len(),
        path.display()
    );
}

/// Flips one payload byte in each of `n` seeded distinct pages.
fn corrupt(pages_db: &Path, seed: u64, span: u64, n: u64) {
    let mut bytes = std::fs::read(pages_db).expect("read pages.db");
    let mut hit = std::collections::BTreeSet::new();
    let mut i = 0u64;
    while (hit.len() as u64) < n {
        let p = derive_seed(seed ^ 0xC0_44_11, i) % span;
        i += 1;
        if !hit.insert(p) {
            continue;
        }
        let off = p as usize * PAGE_BYTES + HEADER_BYTES + 5;
        bytes[off] ^= 0xA5;
    }
    std::fs::write(pages_db, &bytes).expect("write pages.db");
}
