//! **Scrub throughput**: how fast the scrubber verifies a page file and
//! quarantines its corrupt pages, as a function of the seeded corruption
//! rate.
//!
//! A synced store on the real filesystem (a scratch tempdir) has a
//! seeded set of its pages corrupted on disk, then a timed
//! [`scrub_store_in`] pass quarantines them; rows sweep the corruption
//! rate.
//!
//! Rows are printed to stdout **and** written to `BENCH_recovery.json`
//! in `HDIDX_BENCH_OUT` (default: current directory). `--smoke` shrinks
//! the sweep for CI.

use hdidx_bench::ExpArgs;
use hdidx_diskio::DiskOptions;
use hdidx_rand::splitmix::derive_seed;
use hdidx_store::{scrub_store_in, FileStore, OsFs, HEADER_BYTES, PAGE_BYTES, PAYLOAD_BYTES};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hdidx_recovery_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A never-all-zero seeded payload for page `p`.
fn payload(seed: u64, p: u64) -> Vec<u8> {
    let h = derive_seed(seed, p);
    (0..PAYLOAD_BYTES)
        .map(|i| (h as usize).wrapping_mul(37).wrapping_add(i * 11) as u8 | 1)
        .collect()
}

struct ScrubRow {
    pages: u64,
    corrupt_pages: u64,
    quarantined: u64,
    scrub_wall_s: f64,
    pages_per_s: f64,
}

fn main() {
    let args = ExpArgs::parse(1.0, 0);
    println!("Scrub throughput vs corruption rate");

    let span: u64 = if args.smoke { 32 } else { 256 };
    let corrupt_sweep: &[u64] = if args.smoke { &[0, 4] } else { &[0, 4, 16, 64] };

    // Write and sync the full span, corrupt a seeded set of pages on
    // disk, and scrub: every victim is quarantined.
    let mut rows = Vec::new();
    for &corrupt_pages in corrupt_sweep {
        let dir = tmpdir(&format!("scrub_{corrupt_pages}"));
        let mut st = FileStore::open(&dir, &DiskOptions::new()).expect("open");
        let f = st.alloc(span).expect("alloc");
        for p in 0..span {
            st.write_pages(&f, p, 1, &payload(args.seed, p))
                .expect("fill");
        }
        st.sync().expect("sync");
        drop(st);

        corrupt(&dir.join("pages.db"), args.seed, span, corrupt_pages);
        let clock = Instant::now();
        let report = scrub_store_in(&OsFs, &dir).expect("scrub");
        let scrub_wall_s = clock.elapsed().as_secs_f64();
        assert_eq!(
            report.pages_corrupt, corrupt_pages,
            "seeded corruption count"
        );
        // The store must reopen once the scrub has quarantined.
        FileStore::open(&dir, &DiskOptions::new()).expect("reopen");
        rows.push(ScrubRow {
            pages: report.pages_scanned,
            corrupt_pages,
            quarantined: report.pages_quarantined,
            scrub_wall_s,
            pages_per_s: report.pages_scanned as f64 / scrub_wall_s.max(1e-9),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut lines = String::new();
    for r in &rows {
        let json = format!(
            "{{\"leg\":\"scrub\",\"pages\":{},\"corrupt_pages\":{},\
             \"quarantined\":{},\"scrub_wall_s\":{:.6},\"pages_per_s\":{:.1}}}",
            r.pages, r.corrupt_pages, r.quarantined, r.scrub_wall_s, r.pages_per_s
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
    println!("\nwrote {} rows to {}", rows.len(), path.display());
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
