//! What the machine is and what this process has used so far: the
//! environment record printed with every result, and the `/proc`
//! readers behind `cpu_s` and `peak_rss_mb`.

use std::fs;

use probe::Json;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`; 100 on
/// every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `(user, system)` CPU seconds from a `/proc/.../stat` file.
fn cpu_seconds(path: &str) -> (f64, f64) {
    let stat = fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ") ".
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / TICKS_PER_SECOND
    };
    let user = next();
    (user, next())
}

/// `(user, system)` CPU seconds of the whole process so far.
pub fn process_cpu() -> (f64, f64) {
    cpu_seconds("/proc/self/stat")
}

/// User + system CPU seconds of the calling thread so far.
pub fn thread_cpu() -> f64 {
    let (user, system) = cpu_seconds("/proc/thread-self/stat");
    user + system
}

/// Peak resident set (`VmHWM`) of the process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn caches() -> Json {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |name: &str| {
            fs::read_to_string(format!("{dir}/{name}"))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        out.push((format!("L{level} {kind}"), Json::Str(size)));
    }
    Json::Obj(out)
}

/// The checked-out commit, when the benchmark runs inside a git
/// checkout (the driver's copy is not one).
fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match hash.trim() {
        "" => "unknown".to_string(),
        h => h.to_string(),
    }
}

/// The environment record: machine, commit, and the run's shape.
pub fn record(shape: Vec<(String, Json)>) -> Json {
    let mut members = vec![
        ("nproc".to_string(), Json::Num(nproc() as f64)),
        ("caches".to_string(), caches()),
        ("commit".to_string(), Json::Str(commit())),
    ];
    members.extend(shape);
    Json::Obj(members)
}
