//! In-memory spans around calls into the program's layers, written out as
//! a Chrome-trace JSON file (loadable in Perfetto) when the run ends.
//!
//! Recording is off unless the run was started with `--trace 1`; a span
//! then costs one closure call and no clock read. Spans nest through a
//! per-thread stack, so each span knows the span that caused it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, as `module::call`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Recording thread (small integer, in order of first span).
    pub tid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    /// The epoch as Unix time, so spans of two processes can be merged.
    epoch_unix_ns: u128,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        epoch: Instant::now(),
        epoch_unix_ns: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ON.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` (recorded only when tracing is on).
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let rec = recorder();
    let parent = STACK.with(|s| s.borrow().last().copied());
    let idx = {
        let mut spans = rec.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            tid: TID.with(|t| *t),
        });
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    let end = now_ns();
    rec.spans.lock().expect("span recorder poisoned")[idx].end_ns = end;
    out
}

/// Records an already-measured span ending now (for calls whose duration
/// is known only from outside, such as a request's client round trip).
pub fn record(name: &str, dur_ns: u64) {
    if !enabled() {
        return;
    }
    let end = now_ns();
    let parent = STACK.with(|s| s.borrow().last().copied());
    recorder()
        .spans
        .lock()
        .expect("span recorder poisoned")
        .push(Span {
            name: name.to_string(),
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent,
            tid: TID.with(|t| *t),
        });
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span recorder poisoned")
        .clone()
}

/// Durations (ns) of every finished span named `name`.
pub fn durations_ns(name: &str) -> Vec<f64> {
    recorder()
        .spans
        .lock()
        .expect("span recorder poisoned")
        .iter()
        .filter(|s| s.name == name && s.end_ns >= s.start_ns)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The epoch as Unix nanoseconds.
pub fn epoch_unix_ns() -> u128 {
    recorder().epoch_unix_ns
}

/// Serializes spans in the line format another process merges with
/// [`merge_lines`]: `span <start> <end> <parent|-> <tid> <name>`.
pub fn to_lines(spans: &[Span]) -> String {
    let mut out = format!("epoch {}\n", epoch_unix_ns());
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "span {} {} {} {} {}",
            s.start_ns, s.end_ns, parent, s.tid, s.name
        );
    }
    out
}

/// Appends spans written by [`to_lines`] in another process, shifted onto
/// this recorder's clock and onto thread ids above `tid_base`.
pub fn merge_lines(text: &str, tid_base: u32) -> Result<(), String> {
    let mut shift: i128 = 0;
    let rec = recorder();
    let mut spans = rec.spans.lock().expect("span recorder poisoned");
    let base = spans.len();
    for line in text.lines() {
        let mut it = line.splitn(6, ' ');
        match it.next() {
            Some("epoch") => {
                let theirs: i128 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad epoch line {line:?}"))?;
                shift = theirs - rec.epoch_unix_ns as i128;
            }
            Some("span") => {
                let f: Vec<&str> = it.collect();
                if f.len() != 5 {
                    return Err(format!("bad span line {line:?}"));
                }
                let num = |s: &str| s.parse::<i128>().map_err(|e| format!("{line:?}: {e}"));
                let start = (num(f[0])? + shift).max(0) as u64;
                let end = (num(f[1])? + shift).max(0) as u64;
                let parent = match f[2] {
                    "-" => None,
                    p => Some(base + p.parse::<usize>().map_err(|e| e.to_string())?),
                };
                spans.push(Span {
                    name: f[4].to_string(),
                    start_ns: start,
                    end_ns: end,
                    parent,
                    tid: tid_base + num(f[3])? as u32,
                });
            }
            _ => {}
        }
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders spans as Chrome-trace JSON (complete `X` events, microsecond
/// timestamps), with each span's parent index in its `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            json_str(&s.name),
            s.name.split("::").next().unwrap_or("perfbench"),
            s.tid,
            s.start_ns as f64 / 1000.0,
            s.dur_ns() as f64 / 1000.0,
        );
    }
    out.push_str("\n]}\n");
    out
}
