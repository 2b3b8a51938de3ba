//! Demonstrates the scan hot path's allocation contract: once the per-shard
//! scratch (report vector, key buffer, probe scratch) is set up, probing a
//! (row × section) pair allocates **nothing** on the miss-dominated path.
//!
//! A counting global allocator measures whole `scan_shard_wbf` calls over
//! shards of different sizes: the allocation count must not grow with
//! `rows × sections` — it stays at the fixed per-call setup cost. The same
//! counter holds the streaming delta decoder to allocating per distinct
//! diff, never per changed position; delta application to allocating per
//! new weight set, never per entry; and the owned filter decoder to
//! allocating per set-table entry, never per set bit.
//!
//! The counter is per thread: the test harness runs tests in parallel, and
//! a process-global count would charge one test's allocations to another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dipm_core::{
    encode, FilterDelta, FilterParams, WbfFrameView, Weight, WeightDiff, WeightSet,
    WeightedBloomFilter, WeightedProbe,
};
use dipm_distsim::CostMeter;
use dipm_mobilenet::UserId;
use dipm_protocol::{
    build_wbf, scan_shard_wbf, wire, DiMatchingConfig, PatternQuery, WbfScanSection,
};
use dipm_timeseries::Pattern;

/// `System` wrapped with a per-thread allocation counter; frees are not
/// counted — the contract is about *new* heap traffic on the probe path.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter. `try_with` because the allocator
/// also runs during thread-local teardown, where `with` would panic.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A deterministic pattern per row, far from the inserted query's values so
/// rows are (overwhelmingly) membership misses. Their volumes are far from
/// the query's too, so the sections below are scanned without broadcast
/// volumes: otherwise the scan's exact prune would skip every row before
/// the probe path this contract is about.
fn miss_pattern(row: u64) -> Pattern {
    (0..16u64).map(|i| 10_000 + row * 97 + i * 13).collect()
}

fn query() -> PatternQuery {
    PatternQuery::from_locals(vec![
        Pattern::from([1u64, 2, 3, 1, 0, 2, 4, 1, 3, 2, 1, 0, 2, 1, 3, 2]),
        Pattern::from([2u64, 2, 2, 0, 1, 3, 0, 2, 1, 1, 2, 3, 0, 2, 1, 1]),
    ])
    .expect("valid query")
}

fn measure_scan<F: WeightedProbe>(
    sections: &[WbfScanSection<'_, F>],
    rows: usize,
    config: &DiMatchingConfig,
) -> u64 {
    let patterns: Vec<(UserId, Pattern)> = (0..rows as u64)
        .map(|r| (UserId(r), miss_pattern(r)))
        .collect();
    let shard: Vec<(UserId, &Pattern)> = patterns.iter().map(|(u, p)| (*u, p)).collect();
    // Warm-up: first call sizes any lazily grown buffer inside the call's
    // own scratch; the measured call then shows the steady-state cost. Its
    // meter proves every (row × section) pair reached the probe path.
    let meter = CostMeter::new();
    scan_shard_wbf(sections, &shard, config, Some(&meter)).expect("scan runs");
    assert_eq!(meter.report().rows_pruned, 0, "every pair must be probed");
    let before = allocations();
    let reports = scan_shard_wbf(sections, &shard, config, None).expect("scan runs");
    let after = allocations();
    assert!(reports.is_empty(), "rows are built to miss");
    after - before
}

#[test]
fn scan_allocations_do_not_grow_with_rows_or_sections() {
    let config = DiMatchingConfig::default();
    let built = build_wbf(&[query()], &config).expect("filter builds");
    let one_section: Vec<WbfScanSection<'_>> = vec![(0, &built.filter, &[])];
    let four_sections: Vec<WbfScanSection<'_>> =
        (0..4).map(|i| (i as u32, &built.filter, &[][..])).collect();

    let small = measure_scan(&one_section, 64, &config);
    let wide = measure_scan(&four_sections, 64, &config);
    let tall = measure_scan(&one_section, 1024, &config);
    let huge = measure_scan(&four_sections, 1024, &config);

    // Per call: the report vector, the key buffer and (at most once, when
    // some row survives the membership check and forces an owned
    // intersection) the probe scratch's capacity — a fixed setup cost,
    // nothing per probed (row × section) pair.
    assert!(
        small <= 8,
        "per-call setup should be a handful of allocations, got {small}"
    );
    assert!(
        tall <= small + 1,
        "16× the rows may at most warm the probe scratch once: {small} -> {tall}"
    );
    assert_eq!(
        small, wide,
        "4× the sections must not add allocations (probe path is alloc-free)"
    );
    assert_eq!(
        tall, huge,
        "4× the sections over 16× the rows must stay at the setup cost"
    );
}

#[test]
fn zero_copy_wire_view_scan_holds_the_same_allocation_contract() {
    // The station-side hot path: sections opened as zero-copy frame views
    // straight from received broadcast bytes. Once the views exist, the
    // per-(row × section) probe must allocate nothing, exactly like the
    // owned-filter path above.
    let config = DiMatchingConfig::default();
    let built = build_wbf(&[query()], &config).expect("filter builds");
    let frame = wire::encode_filter_broadcast(
        &built.query_totals,
        dipm_core::encode::encode_wbf(&built.filter).expect("filter encodes"),
    )
    .expect("broadcast frames");
    let views: Vec<wire::WbfSectionView> = (0..4)
        .map(|_| wire::view_filter_broadcast(frame.clone()).expect("broadcast views"))
        .collect();
    let one_section: Vec<WbfScanSection<'_, WbfFrameView>> = vec![(0, &views[0].filter, &[])];
    let four_sections: Vec<WbfScanSection<'_, WbfFrameView>> = views
        .iter()
        .enumerate()
        .map(|(i, v)| (i as u32, &v.filter, &[][..]))
        .collect();

    let small = measure_scan(&one_section, 64, &config);
    let wide = measure_scan(&four_sections, 64, &config);
    let tall = measure_scan(&one_section, 1024, &config);
    let huge = measure_scan(&four_sections, 1024, &config);

    assert!(
        small <= 8,
        "per-call setup should be a handful of allocations, got {small}"
    );
    assert!(
        tall <= small + 1,
        "16× the rows may at most warm the probe scratch once: {small} -> {tall}"
    );
    assert_eq!(
        small, wide,
        "4× the view sections must not add allocations (probe path is alloc-free)"
    );
    assert_eq!(
        tall, huge,
        "4× the view sections over 16× the rows must stay at the setup cost"
    );
}

#[test]
fn mixed_geometry_view_scan_holds_the_same_allocation_contract() {
    // Per-query sections are sized per query, so a batch's views rarely
    // share a bit length. Alternating two geometries re-hashes every row
    // at each section, into the same probe buffer: still no allocation
    // per (row × section).
    let config = DiMatchingConfig::default();
    let built = build_wbf(&[query()], &config).expect("filter builds");
    let wider = DiMatchingConfig {
        fixed_geometry: Some(
            dipm_core::FilterParams::new(built.filter.bit_len() + 1024, built.filter.hashes() + 1)
                .expect("valid geometry"),
        ),
        ..config
    };
    let other = build_wbf(&[query()], &wider).expect("filter builds");
    let view = |built: &dipm_protocol::BuiltFilter| {
        let frame = wire::encode_filter_broadcast(
            &built.query_totals,
            dipm_core::encode::encode_wbf(&built.filter).expect("filter encodes"),
        )
        .expect("broadcast frames");
        wire::view_filter_broadcast(frame).expect("broadcast views")
    };
    let views = [view(&built), view(&other)];
    assert_ne!(views[0].filter.bit_len(), views[1].filter.bit_len());
    let one_section: Vec<WbfScanSection<'_, WbfFrameView>> = vec![(0, &views[0].filter, &[])];
    let four_sections: Vec<WbfScanSection<'_, WbfFrameView>> = (0..4)
        .map(|i| (i as u32, &views[i % 2].filter, &[][..]))
        .collect();

    let small = measure_scan(&one_section, 64, &config);
    let wide = measure_scan(&four_sections, 64, &config);
    let tall = measure_scan(&one_section, 1024, &config);
    let huge = measure_scan(&four_sections, 1024, &config);

    assert!(
        small <= 8,
        "per-call setup should be a handful of allocations, got {small}"
    );
    assert!(
        tall <= small + 1,
        "16× the rows may at most warm the probe scratch once: {small} -> {tall}"
    );
    assert_eq!(
        small, wide,
        "4× the mixed-geometry sections must not add allocations"
    );
    assert_eq!(
        tall, huge,
        "4× the mixed-geometry sections over 16× the rows must stay at the setup cost"
    );
}

#[test]
fn delta_decoding_allocates_per_diff_not_per_entry() {
    // Two delta frames over one diff table, 100× apart in entry count: a
    // station decoding either must pay for the table alone.
    let w = |n, d| Weight::new(n, d).expect("nonzero denominator");
    let diffs = [
        WeightDiff {
            removed: WeightSet::singleton(w(1, 3)),
            added: WeightSet::singleton(w(2, 3)),
        },
        WeightDiff {
            removed: WeightSet::new(),
            added: [w(1, 2), Weight::ONE].into_iter().collect(),
        },
    ];
    let frame = |entries: u32| {
        let delta = wire::FilterDelta {
            diffs: diffs.to_vec(),
            entries: (0..entries).map(|i| (i * 3, i % 2)).collect(),
        };
        wire::encode_station_update(&wire::StationUpdate::Delta {
            epoch: 1,
            query_totals: vec![10, 20],
            delta,
        })
        .expect("delta frames")
    };
    let measure = |frame| {
        let before = allocations();
        let update = wire::decode_station_update(frame).expect("delta decodes");
        let after = allocations();
        let wire::StationUpdate::Delta { delta, .. } = update else {
            panic!("kind flipped in flight");
        };
        assert_eq!(delta.diffs.len(), diffs.len());
        after - before
    };
    let small = measure(frame(100));
    let large = measure(frame(10_000));
    assert_eq!(
        small, large,
        "100× the entries must not add allocations: {small} -> {large}"
    );
}

/// A one-hash filter whose first `occupied` fresh positions each carry one
/// weight of a `cycle`-weight cycle, so its set table holds `cycle` entries
/// whatever `occupied` is.
fn cycled_filter(occupied: usize, cycle: u64) -> WeightedBloomFilter {
    let params = FilterParams::new(1 << 16, 1).expect("valid geometry");
    let mut filter = WeightedBloomFilter::new(params, 7);
    let (mut placed, mut key) = (0, 0u64);
    while placed < occupied {
        if !filter.contains(key) {
            let weight = Weight::new(placed as u64 % cycle + 1, 5).expect("nonzero denominator");
            filter.insert(key, weight);
            placed += 1;
        }
        key += 1;
    }
    filter
}

#[test]
fn delta_application_allocates_per_new_set_not_per_entry() {
    // Two deltas over one diff table, 100× apart in entry count: each
    // attaches one weight at as many clear positions as positions of the
    // filter's one set, so both create the same two new sets. A station
    // applying either must pay for the diff and those sets alone.
    let base = cycled_filter(20_000, 1);
    let (occupied, clear): (Vec<u32>, Vec<u32>) =
        (0..base.bit_len() as u32).partition(|&bit| base.bits().get(bit as usize));
    let diffs = vec![WeightDiff {
        removed: WeightSet::new(),
        added: WeightSet::singleton(Weight::ONE),
    }];
    let measure = |entries: usize| {
        let half = entries / 2;
        let mut touched: Vec<(u32, u32)> = occupied[..half]
            .iter()
            .chain(&clear[..half])
            .map(|&bit| (bit, 0))
            .collect();
        touched.sort_unstable();
        let delta = FilterDelta {
            diffs: diffs.clone(),
            entries: touched,
        };
        let mut station = base.clone();
        station.weight_universe();
        let before = allocations();
        station.apply_delta(&delta).expect("delta applies");
        let after = allocations();
        after - before
    };
    let small = measure(100);
    let large = measure(10_000);
    assert_eq!(
        small, large,
        "100× the entries must not add allocations: {small} -> {large}"
    );
}

#[test]
fn owned_decode_allocates_per_set_table_entry_not_per_set_bit() {
    // Two frames of one geometry and one three-entry set table, 100× apart
    // in set bits: decoding either into an owned filter must pay for the
    // table alone.
    let measure = |occupied: usize| {
        let frame = encode::encode_wbf(&cycled_filter(occupied, 3)).expect("filter encodes");
        let before = allocations();
        let filter = encode::decode_wbf(frame).expect("frame decodes");
        let after = allocations();
        assert_eq!(filter.bits().count_ones(), occupied);
        after - before
    };
    let small = measure(100);
    let large = measure(10_000);
    assert_eq!(
        small, large,
        "100× the set bits must not add allocations: {small} -> {large}"
    );
}
