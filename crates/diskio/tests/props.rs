//! Property tests for the disk accounting model: whatever the access
//! pattern, the counters obey conservation laws. Runs on the workspace's
//! own `hdidx-check` harness.

use hdidx_check::{check, prop_assert, prop_assert_eq, prop_assume, Config, Verdict};
use hdidx_diskio::{Disk, IoStats};
use hdidx_rand::Rng;

#[test]
fn transfers_never_exceed_requested_pages_and_seeks_bound_accesses() {
    check(
        "transfers_never_exceed_requested_pages_and_seeks_bound_accesses",
        &Config::with_cases(128),
        |rng| {
            let count = rng.gen_range(1..50usize);
            (0..count)
                .map(|_| (rng.gen_range(0..64u64), rng.gen_range(1..16u64)))
                .collect::<Vec<(u64, u64)>>()
        },
        |accesses| {
            prop_assume!(
                !accesses.is_empty()
                    && accesses
                        .iter()
                        .all(|&(s, l)| s < 64 && (1..16).contains(&l))
            );
            let mut disk = Disk::new();
            let file = disk.alloc(128).unwrap();
            let mut requested = 0u64;
            for &(start, len) in accesses {
                let len = len.min(128 - start);
                if len == 0 {
                    continue;
                }
                disk.access(&file, start, len).unwrap();
                requested += len;
            }
            let stats = disk.stats();
            // Transfers: at most what was requested (same-page re-reads are
            // free), at least requested minus one free page per access.
            prop_assert!(stats.transfers <= requested);
            prop_assert!(stats.transfers + accesses.len() as u64 >= requested);
            // Seeks: at most one per access call, at least zero.
            prop_assert!(stats.seeks <= accesses.len() as u64);
            Verdict::Pass
        },
    );
}

#[test]
fn one_sequential_pass_costs_exactly_one_seek() {
    check(
        "one_sequential_pass_costs_exactly_one_seek",
        &Config::with_cases(128),
        |rng| {
            let count = rng.gen_range(1..20usize);
            (0..count)
                .map(|_| rng.gen_range(1..10u64))
                .collect::<Vec<u64>>()
        },
        |chunks| {
            prop_assume!(!chunks.is_empty() && chunks.iter().all(|&c| (1..10).contains(&c)));
            let total: u64 = chunks.iter().sum();
            let mut disk = Disk::new();
            let file = disk.alloc(total).unwrap();
            let mut pos = 0u64;
            for &c in chunks {
                disk.access(&file, pos, c).unwrap();
                pos += c;
            }
            prop_assert_eq!(
                disk.stats(),
                IoStats {
                    seeks: 1,
                    transfers: total,
                    ..IoStats::default()
                }
            );
            Verdict::Pass
        },
    );
}

#[test]
fn charge_is_additive() {
    check(
        "charge_is_additive",
        &Config::with_cases(128),
        |rng| (rng.gen_range(0..1_000u64), rng.gen_range(0..10_000u64)),
        |&(seeks, transfers)| {
            let mut disk = Disk::new();
            disk.charge(IoStats {
                seeks,
                transfers,
                ..IoStats::default()
            });
            disk.charge(IoStats {
                seeks,
                transfers,
                ..IoStats::default()
            });
            prop_assert_eq!(
                disk.stats(),
                IoStats {
                    seeks: 2 * seeks,
                    transfers: 2 * transfers,
                    ..IoStats::default()
                }
            );
            Verdict::Pass
        },
    );
}

#[test]
fn record_access_covers_exactly_the_spanned_pages() {
    check(
        "record_access_covers_exactly_the_spanned_pages",
        &Config::with_cases(128),
        |rng| {
            (
                rng.gen_range(0..1_000u64),
                rng.gen_range(1..500u64),
                rng.gen_range(1..40u64),
            )
        },
        |&(first, count, per_page)| {
            prop_assume!(count >= 1 && per_page >= 1);
            let pages_needed = (first + count).div_ceil(per_page);
            let mut disk = Disk::new();
            let file = disk.alloc(pages_needed.max(1)).unwrap();
            disk.access_records(&file, first, count, per_page).unwrap();
            let first_page = first / per_page;
            let last_page = (first + count - 1) / per_page;
            prop_assert_eq!(
                disk.stats(),
                IoStats {
                    seeks: 1,
                    transfers: last_page - first_page + 1,
                    ..IoStats::default()
                }
            );
            Verdict::Pass
        },
    );
}
