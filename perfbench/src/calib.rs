//! A fixed calibration kernel that gauges how fast the host runs right
//! now.
//!
//! The benchmark runs on a few virtual CPUs of a shared host, whose speed
//! drifts by up to half over minutes as other tenants come and go (the
//! drift shows in CPU time as much as in wall time, so it is not time
//! spent descheduled). The kernel does a fixed mix of the work the
//! simulator does — formatting and parsing text records, hashing, an
//! ordered event queue, sorting — on a working set of a few MB. It leaves
//! out fresh multi-MB allocations: their page faults slowed by up to 2.5×
//! with the host's state, far more than any operation. It depends on no
//! repository code, so a change to the program cannot move it; only the
//! host can.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What [`kernel`] takes on the 2-vCPU reference virtual machine when its
/// host is quiet. Normalised times are expressed in seconds on that host.
pub const REFERENCE_S: f64 = 0.052;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut s = 0x9E37_79B9_7F4A_7C15_u64;
    let mut check = 0u64;

    // Text records, written and read back.
    let lines: Vec<String> = (0..12_000u64)
        .map(|i| {
            let v = xorshift(&mut s);
            format!(
                "{{\"t\":{},\"id\":{},\"region\":\"r{}\",\"usd\":{:.4}}}",
                i * 60,
                v % 100_000,
                v % 13,
                (v % 10_000) as f64 / 7.0
            )
        })
        .collect();
    for line in &lines {
        for field in line.trim_matches(|c| c == '{' || c == '}').split(',') {
            let value = field.split(':').nth(1).unwrap_or("");
            if let Ok(n) = value.parse::<u64>() {
                check = check.wrapping_add(n);
            } else if let Ok(x) = value.parse::<f64>() {
                check = check.wrapping_add(x as u64);
            }
        }
    }

    // A hash table several MB large, filled and probed.
    let mut table: HashMap<u64, u64> = HashMap::new();
    for i in 0..150_000u64 {
        *table.entry(xorshift(&mut s) % 200_000).or_insert(0) += i;
    }
    for _ in 0..150_000 {
        if let Some(v) = table.get(&(xorshift(&mut s) % 200_000)) {
            check = check.wrapping_add(*v);
        }
    }

    // An ordered event queue: pop the earliest, schedule a later one.
    let mut queue: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for i in 0..20_000u64 {
        queue.insert((xorshift(&mut s) % 1_000_000, i), i);
    }
    for i in 0..200_000u64 {
        let ((t, _), v) = queue.pop_first().expect("the queue never empties");
        queue.insert((t + 1 + xorshift(&mut s) % 50_000, 20_000 + i), v);
    }
    check = check.wrapping_add(queue.len() as u64);

    // Sorting.
    let mut values: Vec<f64> = (0..100_000)
        .map(|_| (xorshift(&mut s) % 1_000_000) as f64 * 0.37)
        .collect();
    values.sort_by(f64::total_cmp);
    check = check.wrapping_add(values[values.len() / 2] as u64);

    black_box(check);
    start.elapsed().as_secs_f64()
}
