//! Host-speed probes, and the scaling of wall-clock figures to a
//! reference host speed.
//!
//! On a shared host the speed a run sees drifts by tens of percent over
//! seconds to minutes as other tenants' load comes and goes (read-hot
//! moved between 110k and 160k reads/s within one 150 s run of unchanged
//! code), so a raw wall-clock rate measures the neighbours as much as the
//! program. A probe times fixed bench-owned work, none of the
//! repository's code, at quiescent points of the run: before and after
//! each set-up and each slice of the window. It has two parts, for the
//! two things every workload spends its time on:
//! - arithmetic and random updates over a 256 KiB table, one thread
//!   pinned to each core (signing, hashing, verifying, copying);
//! - 512-byte request/response round trips over loopback TCP between
//!   threads pinned to two different cores (each operation crosses from a
//!   client thread to a server worker and back).
//!
//! A probe's speed is the geometric mean of its two rates, each over its
//! rate on the reference host. The host's speed over a set-up or a slice
//! is the geometric mean of the speeds at its two ends; a set-up time is
//! multiplied by it and a slice's rate divided by it, giving what they
//! would read on the reference host.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Reference rates: round figures near the probe's medians on a 2-vCPU
/// Xeon VM (2.0 GHz), so that scaled figures read close to raw ones
/// there. Compute: iterations per second per thread.
const COMPUTE_REFERENCE: f64 = 500e6;
/// Round trips per second.
const ROUND_TRIP_REFERENCE: f64 = 35e3;
/// Iterations per compute thread (~70 ms on the reference host).
const COMPUTE_ITERS: u64 = 1 << 25;
/// Round trips per probe (~85 ms on the reference host).
const ROUND_TRIPS: usize = 3000;

/// One probe measurement.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Host speed relative to the reference host.
    pub speed: f64,
    /// Share of the probe's wall time in which the rest of the process
    /// used a CPU. The server should be idle while a probe runs; CPU it
    /// burns then would slow the probe and inflate every scaled figure.
    pub background_frac: f64,
}

/// Runs the probe on a host with `cores` cores.
pub fn measure(cores: usize) -> Sample {
    let (wall, process_cpu) = (Instant::now(), cpu_seconds(PROCESS_CPU));
    let (compute_rate, compute_cpu) = compute(cores.max(1));
    let (round_trip_rate, round_trip_cpu) = round_trip();
    let wall = wall.elapsed().as_secs_f64();
    let background =
        (cpu_seconds(PROCESS_CPU) - process_cpu - compute_cpu - round_trip_cpu).max(0.0);
    Sample {
        speed: (compute_rate / COMPUTE_REFERENCE * round_trip_rate / ROUND_TRIP_REFERENCE).sqrt(),
        background_frac: background / wall,
    }
}

/// Host speed over each interval between two consecutive samples.
pub fn interval_speeds(samples: &[Sample]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| (w[0].speed * w[1].speed).sqrt())
        .collect()
}

/// Mean rate per thread, and the CPU seconds the probe threads used.
/// Each thread is pinned to its own core, so the probe times every core
/// rather than how the scheduler happened to place new threads.
fn compute(threads: usize) -> (f64, f64) {
    let per_thread: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    pin(t);
                    let cpu = cpu_seconds(THREAD_CPU);
                    let mut table = vec![1u64; 32 << 10];
                    let mask = table.len() - 1;
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ t as u64;
                    std::hint::black_box(&mut table);
                    let start = Instant::now();
                    for _ in 0..COMPUTE_ITERS {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let j = (x >> 40) as usize & mask;
                        table[j] = table[j].wrapping_add(x);
                    }
                    std::hint::black_box(&table);
                    let rate = COMPUTE_ITERS as f64 / start.elapsed().as_secs_f64();
                    (rate, cpu_seconds(THREAD_CPU) - cpu)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("compute probe thread"))
            .collect()
    });
    let rate = per_thread.iter().map(|p| p.0).sum::<f64>() / threads as f64;
    (rate, per_thread.iter().map(|p| p.1).sum())
}

/// Round trips per second between a client pinned to the first core and
/// an echo thread pinned to the second, and the CPU seconds both used.
fn round_trip() -> (f64, f64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("probe listener");
    let addr = listener.local_addr().expect("probe address");
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            pin(1);
            let cpu = cpu_seconds(THREAD_CPU);
            let (mut conn, _) = listener.accept().expect("probe accept");
            conn.set_nodelay(true).expect("probe nodelay");
            let mut buf = [0u8; 512];
            for _ in 0..ROUND_TRIPS {
                conn.read_exact(&mut buf).expect("probe echo read");
                conn.write_all(&buf).expect("probe echo write");
            }
            cpu_seconds(THREAD_CPU) - cpu
        });
        let client = s.spawn(move || {
            pin(0);
            let cpu = cpu_seconds(THREAD_CPU);
            let mut conn = TcpStream::connect(addr).expect("probe connect");
            conn.set_nodelay(true).expect("probe nodelay");
            let mut buf = [1u8; 512];
            let start = Instant::now();
            for _ in 0..ROUND_TRIPS {
                conn.write_all(&buf).expect("probe write");
                conn.read_exact(&mut buf).expect("probe read");
            }
            let rate = ROUND_TRIPS as f64 / start.elapsed().as_secs_f64();
            (rate, cpu_seconds(THREAD_CPU) - cpu)
        });
        let (rate, client_cpu) = client.join().expect("probe client thread");
        (rate, client_cpu + echo.join().expect("probe echo thread"))
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A Linux `cpu_set_t`: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: every thread of this process.
const PROCESS_CPU: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux: the calling thread.
const THREAD_CPU: i32 = 3;

/// CPU seconds consumed so far on `clock`.
fn cpu_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec with the C layout of a 64-bit
    // Linux target and `clock` is one of the constants above; the call
    // writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pins the calling thread to the `i`-th CPU (modulo their number) this
/// process may run on; best effort, as the probe is still valid unpinned.
/// Probe threads are spawned by unpinned threads, so they may run on
/// every CPU the process may.
fn pin(i: usize) {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t`-sized buffer and its size
    // is passed with it; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    let Some(&cpu) = cpus.get(i % cpus.len().max(1)) else {
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and its size
    // is passed with it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
}
