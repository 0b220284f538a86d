//! What the host is and what the process used: the fingerprint printed with
//! every result, CPU time from `/proc/self/stat`, and peak resident memory.

use std::fmt::Write as _;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which is
/// 100 on every mainstream architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// Identifies the host and build a wall-clock result belongs to. Wall
/// metrics compare only between results with equal [`Fingerprint::host_id`];
/// virtual metrics compare exactly whatever the host.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `cpu MHz` of the first processor (reported, not part of the id: it
    /// moves with frequency scaling).
    pub mhz: f64,
    /// Whether the CPU advertises `popcnt`.
    pub popcnt: bool,
    /// Whether the CPU advertises `avx2`.
    pub avx2: bool,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// `RUSTFLAGS` the benchmark was built with.
    pub rustflags: String,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and build.
    pub fn probe() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.split(':').next().map(str::trim) == Some(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
                .unwrap_or_default()
        };
        let flags = field("flags");
        let has = |f: &str| flags.split_whitespace().any(|x| x == f);
        Fingerprint {
            cpu_model: non_empty(field("model name")),
            nproc: nproc(),
            mhz: field("cpu MHz").parse().unwrap_or(0.0),
            popcnt: has("popcnt"),
            avx2: has("avx2"),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            rustflags: env!("PERFBENCH_RUSTFLAGS").to_string(),
            commit: git_commit(),
        }
    }

    /// A short stable id over everything that decides wall-clock speed
    /// except the momentary clock frequency.
    pub fn host_id(&self) -> String {
        let key = format!(
            "{}|{}|{}|{}|{}|{}",
            self.cpu_model, self.nproc, self.popcnt, self.avx2, self.rustc, self.rustflags
        );
        format!("{:016x}", fnv1a(key.as_bytes()))
    }

    /// One human-readable line.
    pub fn render(&self, seed: u64) -> String {
        format!(
            "host: {} | nproc {} | {:.0} MHz | popcnt {} | avx2 {} | {} | RUSTFLAGS \"{}\" | commit {} | seed {} | host_id {}",
            self.cpu_model,
            self.nproc,
            self.mhz,
            self.popcnt,
            self.avx2,
            self.rustc,
            self.rustflags,
            self.commit,
            seed,
            self.host_id()
        )
    }

    /// The fingerprint as JSON object members (no braces).
    pub fn json_members(&self, seed: u64) -> String {
        let mut out = String::new();
        for (k, v) in [
            ("cpu_model", self.cpu_model.as_str()),
            ("rustc", &self.rustc),
            ("rustflags", &self.rustflags),
            ("commit", &self.commit),
        ] {
            let _ = write!(out, "{}:{},", json_str(k), json_str(v));
        }
        let _ = write!(
            out,
            "\"nproc\":{},\"mhz\":{},\"popcnt\":{},\"avx2\":{},\"seed\":{},\"host_id\":{}",
            self.nproc,
            self.mhz,
            self.popcnt,
            self.avx2,
            seed,
            json_str(&self.host_id())
        );
        out
    }
}

fn non_empty(s: String) -> String {
    if s.is_empty() {
        "unknown".into()
    } else {
        s
    }
}

/// Threads the host can run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names, read from `.git` without running git; the
/// benchmark also runs from exported trees, where this is `unknown`.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    snp_trace::json::escape_into(&mut out, s);
    out.push('"');
    out
}

/// User and system CPU time of this process so far, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// User time.
    pub user_s: f64,
    /// System time.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `utime` and `stime` from `/proc/self/stat` (zero elsewhere).
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0.0))
            .collect();
        let tick = |i: usize| f.get(i).copied().unwrap_or(0.0) / TICKS_PER_SEC;
        CpuTimes {
            user_s: tick(11),
            sys_s: tick(12),
        }
    }

    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// System share of the CPU time (0 when none was spent).
    pub fn sys_frac(&self) -> f64 {
        let total = self.user_s + self.sys_s;
        if total > 0.0 {
            self.sys_s / total
        } else {
            0.0
        }
    }

    /// CPU time over `wall_s × nproc`: 1.0 keeps every core busy.
    pub fn util(&self, wall_s: f64) -> f64 {
        (self.user_s + self.sys_s) / (wall_s * nproc() as f64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");

/// CPU time of the whole process so far, every thread counted (live and
/// exited), in seconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Unlike
/// wall time it leaves out time the hypervisor runs other guests on this
/// machine's vCPUs, and time threads wait idle.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout of
    // 64-bit Linux (`time_t` and `long` are both 64 bits, checked by the
    // `compile_error!` above), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reference seconds one pass of [`RefLoop`] counts as: a run's reference
/// seconds are its process CPU seconds × `REF_LOOP_S` ÷ the loop's median
/// time in that run. One pass takes about 16 ms on the 2.1 GHz Xeon vCPUs
/// the benchmark was tuned on, so there the two clocks read alike.
pub const REF_LOOP_S: f64 = 0.016;

/// A fixed loop of the benchmark's own that gauges how fast this host runs
/// popcount code right now. Other guests on the same machine move the CPU
/// time of identical work by up to 40% for minutes at a time; the loop's
/// time moves with it (30-second medians of the two correlate at 0.91 to
/// 0.94), and the program cannot change it.
pub struct RefLoop {
    buf: Vec<u64>,
}

impl RefLoop {
    /// A 256 KiB buffer, resident in L2.
    pub fn new() -> RefLoop {
        RefLoop {
            buf: (0..32 * 1024u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// One pass on the calling thread: 400 sweeps of XOR and popcount over
    /// the buffer. Returns the process CPU seconds it took.
    pub fn time(&self) -> f64 {
        let c0 = process_cpu_s();
        let mut sum = 0u64;
        for sweep in 0..400u64 {
            for &w in std::hint::black_box(&self.buf) {
                sum += u64::from((w ^ sweep).count_ones());
            }
        }
        std::hint::black_box(sum);
        process_cpu_s() - c0
    }
}

impl Default for RefLoop {
    fn default() -> RefLoop {
        RefLoop::new()
    }
}

/// Puts every thread's allocations in glibc's main arena. By default each
/// short-lived worker thread of the `rayon` shim may get an arena of its
/// own, and which one it gets moves `VmHWM` of `fastid_stream` between
/// modes about 12 MiB apart from run to run. Call before any thread starts.
pub fn single_malloc_arena() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two ints and only changes allocator
        // settings; no other thread exists yet to allocate concurrently.
        let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
        assert_eq!(ok, 1, "glibc accepts M_ARENA_MAX");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
