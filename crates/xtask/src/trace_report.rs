//! `cargo xtask trace-report` — replay a JSONL event trace (written by the
//! harness under `PREMA_TRACE_OUT`, or by any [`prema_trace::TraceSink`])
//! into the paper's per-processor time-breakdown table plus derived views
//! the aggregate figures cannot show: the forwarding-chain length histogram,
//! begging-round latencies, and a migration timeline.
//!
//! Pure std, like the rest of xtask: the dump format is flat JSON (one
//! object of scalar fields per line, guaranteed by
//! `prema_trace::Record::to_jsonl`), so a hand-rolled splitter is all the
//! parsing this needs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Cost-category labels, indexed by the `"cat"` field of `span` records
/// (`prema_sim::Category::ALL` order).
const CATEGORY_LABELS: [&str; 8] = [
    "compute",
    "idle",
    "messaging",
    "scheduling",
    "callback",
    "poll-thread",
    "partition",
    "sync",
];
const CAT_COMPUTE: usize = 0;
const CAT_IDLE: usize = 1;
const CAT_PARTITION: usize = 6;
const CAT_SYNC: usize = 7;

/// One parsed trace record: the common stamp plus the event-specific scalar
/// fields, kept as strings until a view asks for them.
#[derive(Debug)]
struct Rec {
    rank: usize,
    t: u64,
    ev: String,
    fields: BTreeMap<String, String>,
}

impl Rec {
    fn u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(|v| v.parse().ok())
    }
}

/// Parse one flat-JSON line (`{"k":v,...}`, values are unsigned integers,
/// booleans, or quoted strings without escapes — everything
/// `Record::to_jsonl` emits). Returns `None` on anything else.
fn parse_line(line: &str) -> Option<Rec> {
    let inner = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = BTreeMap::new();
    for pair in split_top_level(inner) {
        let (k, v) = pair.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v = v.trim();
        let v = v
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .unwrap_or(v);
        fields.insert(k.to_string(), v.to_string());
    }
    let rank: usize = fields.remove("rank")?.parse().ok()?;
    let t: u64 = fields.remove("t")?.parse().ok()?;
    let ev = fields.remove("ev")?;
    fields.remove("seq");
    Some(Rec {
        rank,
        t,
        ev,
        fields,
    })
}

/// Split `a:1,b:"x",c:true` on commas outside string quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_str) = (0usize, false);
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

/// Parse a whole dump; reports (line number, content) of the first few
/// malformed lines via the error.
fn parse_dump(text: &str) -> Result<Vec<Rec>, String> {
    let mut recs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(r) => recs.push(r),
            None => return Err(format!("line {}: not a trace record: {line}", i + 1)),
        }
    }
    Ok(recs)
}

/// Everything the breakdown table needs, folded from the records.
struct Breakdown {
    /// `[proc][category] -> nanoseconds` from `span` records.
    per_proc: Vec<[u64; 8]>,
    /// Per-processor finish time (ns) from `proc_finish` records.
    finish: Vec<u64>,
    /// Max finish (ns).
    makespan: u64,
}

fn fold_breakdown(recs: &[Rec]) -> Breakdown {
    let nprocs = recs.iter().map(|r| r.rank + 1).max().unwrap_or(0);
    let mut per_proc = vec![[0u64; 8]; nprocs];
    let mut finish = vec![0u64; nprocs];
    for r in recs {
        match r.ev.as_str() {
            "span" => {
                let cat = r.u64("cat").unwrap_or(u64::MAX) as usize;
                if cat < 8 {
                    per_proc[r.rank][cat] += r.u64("dur").unwrap_or(0);
                }
            }
            "proc_finish" => finish[r.rank] = finish[r.rank].max(r.t),
            _ => {}
        }
    }
    let makespan = finish.iter().copied().max().unwrap_or(0);
    Breakdown {
        per_proc,
        finish,
        makespan,
    }
}

const NANOS: f64 = 1e9;

/// The per-processor table, formatted exactly like the harness figure tables
/// (`SimReport::render_table`): idle padded to the makespan, empty categories
/// omitted, then the makespan / quality / overhead summary line.
fn render_breakdown(b: &Breakdown, stride: usize) -> String {
    let stride = stride.max(1);
    // Idle-normalize: pad every processor's idle up to the makespan.
    let mut norm = b.per_proc.clone();
    for (row, &f) in norm.iter_mut().zip(&b.finish) {
        row[CAT_IDLE] += b.makespan.saturating_sub(f);
    }
    let used: Vec<usize> = (0..8)
        .filter(|&c| norm.iter().map(|row| row[c]).sum::<u64>() > 0)
        .collect();
    let mut s = String::new();
    let _ = writeln!(s, "== Trace: per-processor time breakdown ==");
    let _ = write!(s, "{:>5}", "proc");
    for &c in &used {
        let _ = write!(s, " {:>11}", CATEGORY_LABELS[c]);
    }
    let _ = writeln!(s, " {:>11}", "finish");
    for p in (0..norm.len()).step_by(stride) {
        let _ = write!(s, "{p:>5}");
        for &c in &used {
            let _ = write!(s, " {:>11.3}", norm[p][c] as f64 / NANOS);
        }
        let _ = writeln!(s, " {:>11.3}", b.finish[p] as f64 / NANOS);
    }
    // Summary line: population stddev of compute; overhead = busy-but-not-
    // compute over compute; sync = (sync + partition) over compute.
    let n = b.per_proc.len().max(1) as f64;
    let compute: f64 = b.per_proc.iter().map(|r| r[CAT_COMPUTE] as f64).sum();
    let mean = compute / n / NANOS;
    let var = b
        .per_proc
        .iter()
        .map(|r| {
            let d = r[CAT_COMPUTE] as f64 / NANOS - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    let busy_overhead: f64 = b
        .per_proc
        .iter()
        .map(|r| {
            (0..8)
                .filter(|&c| c != CAT_COMPUTE && c != CAT_IDLE)
                .map(|c| r[c] as f64)
                .sum::<f64>()
        })
        .sum();
    let sync: f64 = b
        .per_proc
        .iter()
        .map(|r| (r[CAT_SYNC] + r[CAT_PARTITION]) as f64)
        .sum();
    let pct = |x: f64| {
        if compute > 0.0 {
            x / compute * 100.0
        } else {
            0.0
        }
    };
    let _ = writeln!(
        s,
        "makespan {:.3}s  compute-stddev {:.3}s  overhead {:.4}%  sync {:.3}%",
        b.makespan as f64 / NANOS,
        var.sqrt(),
        pct(busy_overhead),
        pct(sync)
    );
    s
}

/// Forwarding-chain length histogram. Each migration leaves a forwarding
/// pointer; a message that chases a chain of length `L` emits `forward_hop`
/// records with `hops = 1..=L`. So `count[L] - count[L+1]` messages ended
/// their chase after exactly `L` hops.
fn render_forward_histogram(recs: &[Rec]) -> String {
    let mut count: BTreeMap<u64, u64> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.ev == "forward_hop") {
        if let Some(h) = r.u64("hops") {
            *count.entry(h).or_insert(0) += 1;
        }
    }
    let mut s = String::from("== Forwarding-chain length histogram ==\n");
    if count.is_empty() {
        s.push_str("(no forwarded messages)\n");
        return s;
    }
    let _ = writeln!(s, "{:>6} {:>10}", "length", "messages");
    let max = *count
        .keys()
        .last()
        .expect("count map checked non-empty above");
    for len in 1..=max {
        let at = count.get(&len).copied().unwrap_or(0);
        let beyond = count.get(&(len + 1)).copied().unwrap_or(0);
        let exact = at.saturating_sub(beyond);
        if at > 0 {
            let _ = writeln!(s, "{len:>6} {exact:>10}");
        }
    }
    let total: u64 = count.get(&1).copied().unwrap_or(0);
    let hops: u64 = count.values().sum();
    let _ = writeln!(
        s,
        "{total} forwarded messages, {hops} hops total, mean chain {:.2}",
        if total > 0 {
            hops as f64 / total as f64
        } else {
            0.0
        }
    );
    // Percentiles over per-message chain lengths: a message that stopped
    // after L hops contributes one sample of value L.
    let percentile = |q: f64| -> u64 {
        let want = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for len in 1..=max {
            let at = count.get(&len).copied().unwrap_or(0);
            let beyond = count.get(&(len + 1)).copied().unwrap_or(0);
            seen += at.saturating_sub(beyond);
            if seen >= want {
                return len;
            }
        }
        max
    };
    let _ = writeln!(
        s,
        "chain p50 {}  p99 {}  max {max}",
        percentile(0.50),
        percentile(0.99)
    );
    s
}

/// Directory and sender location-cache counters, folded from the four
/// directory events: `loc_cache_hit` (a send answered by local knowledge),
/// `loc_cache_miss` (no knowledge — routed via the home shard or birth
/// rank), `loc_cache_stale` (a forwarder or shard corrected a stale guess),
/// and `home_lookup` (explicit `DirLookup` queries). The closing line is the
/// aggregate hit rate the README's directory quickstart reads off.
fn render_directory(recs: &[Rec], stride: usize) -> String {
    let stride = stride.max(1);
    let nprocs = recs.iter().map(|r| r.rank + 1).max().unwrap_or(0);
    let mut rows = vec![[0u64; 4]; nprocs];
    for r in recs {
        let col = match r.ev.as_str() {
            "loc_cache_hit" => 0,
            "loc_cache_miss" => 1,
            "loc_cache_stale" => 2,
            "home_lookup" => 3,
            _ => continue,
        };
        rows[r.rank][col] += 1;
    }
    let mut s = String::from("== Directory location caches ==\n");
    if rows.iter().flatten().copied().sum::<u64>() == 0 {
        s.push_str("(no directory events)\n");
        return s;
    }
    let _ = writeln!(
        s,
        "{:>5} {:>8} {:>8} {:>8} {:>8}",
        "proc", "hits", "misses", "stale", "lookups"
    );
    for (p, row) in rows.iter().enumerate().step_by(stride) {
        if row.iter().sum::<u64>() > 0 {
            let _ = writeln!(
                s,
                "{p:>5} {:>8} {:>8} {:>8} {:>8}",
                row[0], row[1], row[2], row[3]
            );
        }
    }
    let tot = |c: usize| rows.iter().map(|r| r[c]).sum::<u64>();
    let (hits, misses) = (tot(0), tot(1));
    let rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64 * 100.0
    } else {
        100.0
    };
    let _ = writeln!(
        s,
        "cache hit rate {rate:.1}% ({hits} hits / {misses} misses), {} stale corrections, {} home lookups",
        tot(2),
        tot(3)
    );
    s
}

/// Begging-round latency: on each rank, the time from an `lb_request` to the
/// next grant or NACK arriving back on that rank. Stale NACKs are ignored —
/// they answer an older, already-cancelled round.
fn render_begging_latency(recs: &[Rec]) -> String {
    // Per rank, walk records in time order.
    let nprocs = recs.iter().map(|r| r.rank + 1).max().unwrap_or(0);
    let mut s = String::from("== Begging-round latency ==\n");
    let mut any = false;
    let _ = writeln!(
        s,
        "{:>5} {:>7} {:>8} {:>8} {:>10} {:>10}",
        "proc", "rounds", "granted", "refused", "mean(ms)", "max(ms)"
    );
    for p in 0..nprocs {
        let mut open: Option<u64> = None;
        let (mut rounds, mut granted, mut refused) = (0u64, 0u64, 0u64);
        let (mut sum_ns, mut max_ns) = (0u64, 0u64);
        for r in recs.iter().filter(|r| r.rank == p) {
            match r.ev.as_str() {
                "lb_request" => open = Some(r.t),
                "lb_grant_recv" | "lb_nack_recv" => {
                    if r.ev == "lb_nack_recv"
                        && r.fields.get("stale").map(String::as_str) == Some("true")
                    {
                        continue;
                    }
                    if let Some(t0) = open.take() {
                        let dt = r.t.saturating_sub(t0);
                        rounds += 1;
                        sum_ns += dt;
                        max_ns = max_ns.max(dt);
                        if r.ev == "lb_grant_recv" {
                            granted += 1;
                        } else {
                            refused += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        if rounds > 0 {
            any = true;
            let _ = writeln!(
                s,
                "{p:>5} {rounds:>7} {granted:>8} {refused:>8} {:>10.3} {:>10.3}",
                sum_ns as f64 / rounds as f64 / 1e6,
                max_ns as f64 / 1e6
            );
        }
    }
    if !any {
        s.push_str("(no completed begging rounds)\n");
    }
    s
}

/// Per-rank activity counters folded from the event stream. Together with
/// the views above this consumes every `TraceEvent` variant — a property
/// `cargo xtask analyze` enforces (trace-event coverage), so telemetry can
/// not silently become write-only.
#[derive(Default, Clone)]
struct Activity {
    /// `send` / `recv`: envelopes crossing this rank's transport.
    sent: u64,
    recvd: u64,
    /// `exec_begin` / `exec_finish`: work units started and completed.
    exec_begin: u64,
    exec_finish: u64,
    /// `poll` / `poll_system` / `poll_wake`: scheduler loop activity.
    polls: u64,
    sys_polls: u64,
    wakes: u64,
    /// `lb_request_recv` / `lb_grant` / `lb_nack_sent`: the victim side of
    /// the begging protocol (the beggar side is in the latency view).
    req_in: u64,
    grants: u64,
    nacks_out: u64,
    /// The loss/recovery counters `dcs_dropped` / `dcs_retry` /
    /// `dcs_duplicate`.
    dropped: u64,
    retries: u64,
    dups: u64,
}

fn fold_activity(recs: &[Rec]) -> Vec<Activity> {
    let nprocs = recs.iter().map(|r| r.rank + 1).max().unwrap_or(0);
    let mut acts = vec![Activity::default(); nprocs];
    for r in recs {
        let a = &mut acts[r.rank];
        match r.ev.as_str() {
            "send" => a.sent += 1,
            "recv" => a.recvd += 1,
            "exec_begin" => a.exec_begin += 1,
            "exec_finish" => a.exec_finish += 1,
            "poll" => a.polls += 1,
            "poll_system" => a.sys_polls += 1,
            "poll_wake" => a.wakes += 1,
            "lb_request_recv" => a.req_in += 1,
            "lb_grant" => a.grants += 1,
            "lb_nack_sent" => a.nacks_out += 1,
            "dcs_dropped" => a.dropped += 1,
            "dcs_retry" => a.retries += 1,
            "dcs_duplicate" => a.dups += 1,
            _ => {}
        }
    }
    acts
}

/// Activity-counter tables: messaging/scheduling per rank, then the LB
/// victim side and substrate health. Rows that are entirely zero are
/// skipped, like the empty-category columns of the breakdown table.
fn render_activity(recs: &[Rec], stride: usize) -> String {
    let stride = stride.max(1);
    let acts = fold_activity(recs);
    let mut s = String::from("== Activity counters ==\n");
    let any = |f: fn(&Activity) -> u64| acts.iter().map(f).sum::<u64>() > 0;
    if !any(|a| {
        a.sent
            + a.recvd
            + a.exec_begin
            + a.exec_finish
            + a.polls
            + a.sys_polls
            + a.wakes
            + a.req_in
            + a.grants
            + a.nacks_out
            + a.dropped
            + a.retries
            + a.dups
    }) {
        s.push_str("(no activity events in this trace)\n");
        return s;
    }
    let _ = writeln!(
        s,
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "proc", "sent", "recvd", "execs", "polls", "sys-polls", "wakes"
    );
    for (p, a) in acts.iter().enumerate().step_by(stride) {
        let _ = writeln!(
            s,
            "{p:>5} {:>8} {:>8} {:>8} {:>8} {:>9} {:>7}",
            a.sent, a.recvd, a.exec_finish, a.polls, a.sys_polls, a.wakes
        );
    }
    let begun: u64 = acts.iter().map(|a| a.exec_begin).sum();
    let finished: u64 = acts.iter().map(|a| a.exec_finish).sum();
    if begun != finished {
        let _ = writeln!(
            s,
            "warning: {begun} exec_begin vs {finished} exec_finish (units cut off mid-run?)"
        );
    }
    let _ = writeln!(
        s,
        "{:>5} {:>8} {:>8} {:>9} {:>8} {:>8} {:>5}",
        "proc", "req-in", "grants", "nacks-out", "dropped", "retries", "dups"
    );
    for (p, a) in acts.iter().enumerate().step_by(stride) {
        let _ = writeln!(
            s,
            "{p:>5} {:>8} {:>8} {:>9} {:>8} {:>8} {:>5}",
            a.req_in, a.grants, a.nacks_out, a.dropped, a.retries, a.dups
        );
    }
    let tot = |f: fn(&Activity) -> u64| acts.iter().map(f).sum::<u64>();
    let _ = writeln!(
        s,
        "totals: {} sent, {} recvd, {} executed, {} dropped, {} retries, {} duplicates",
        tot(|a| a.sent),
        tot(|a| a.recvd),
        tot(|a| a.exec_finish),
        tot(|a| a.dropped),
        tot(|a| a.retries),
        tot(|a| a.dups)
    );
    s
}

/// How many timeline rows to print before eliding the rest.
const TIMELINE_LIMIT: usize = 20;

/// Migration timeline: `migrate` (source side) and `install` (destination
/// side) records merged in time order, first [`TIMELINE_LIMIT`] shown.
fn render_migration_timeline(recs: &[Rec]) -> String {
    let mut rows: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.ev == "migrate" || r.ev == "install")
        .collect();
    rows.sort_by_key(|r| (r.t, r.rank));
    let mut s = String::from("== Migration timeline ==\n");
    if rows.is_empty() {
        s.push_str("(no migrations)\n");
        return s;
    }
    for r in rows.iter().take(TIMELINE_LIMIT) {
        let obj = format!(
            "{}:{}",
            r.u64("home").unwrap_or(0),
            r.u64("index").unwrap_or(0)
        );
        let line = if r.ev == "migrate" {
            format!(
                "{:>12.6}s  proc {:>3}  migrate  {obj} -> proc {}",
                r.t as f64 / NANOS,
                r.rank,
                r.u64("dst").unwrap_or(0)
            )
        } else {
            format!(
                "{:>12.6}s  proc {:>3}  install  {obj} <- proc {}",
                r.t as f64 / NANOS,
                r.rank,
                r.u64("from").unwrap_or(0)
            )
        };
        s.push_str(&line);
        s.push('\n');
    }
    if rows.len() > TIMELINE_LIMIT {
        let _ = writeln!(s, "... {} more", rows.len() - TIMELINE_LIMIT);
    }
    let migrations = rows.iter().filter(|r| r.ev == "migrate").count();
    let _ = writeln!(s, "{migrations} migrations total");
    s
}

/// Veto-kind labels, indexed by the `"kind"` field of `lb_veto` records
/// (`prema_trace::TraceEvent::LbVeto` order).
const VETO_LABELS: [&str; 3] = ["hysteresis", "residency", "rate-cap"];

/// Migration churn: how often each object moved, and what the stability
/// governor did about it. Folds three streams:
///
/// * `migrate` — per-object move counts, presented as a histogram (how many
///   objects moved exactly k times) so thrash shows up as a long tail;
/// * `lb_grant` — how many granted objects were net-affine: chosen first
///   because they had heard more from the requester than from their donor;
/// * `lb_veto` — migrations the governor refused, by kind; kind 1 is a
///   residency violation averted (the object had not yet served its
///   minimum residency when a policy tried to move it again);
/// * `lb_forecast` — the anticipatory sampler's periodic load predictions.
fn render_migration_churn(recs: &[Rec]) -> String {
    let mut s = String::from("== Migration churn ==\n");
    let mut per_obj: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.ev == "migrate") {
        *per_obj
            .entry((r.u64("home").unwrap_or(0), r.u64("index").unwrap_or(0)))
            .or_insert(0) += 1;
    }
    if per_obj.is_empty() {
        s.push_str("(no migrations)\n");
    } else {
        let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
        for &c in per_obj.values() {
            *hist.entry(c).or_insert(0) += 1;
        }
        let _ = writeln!(s, "{:>6} {:>8}", "moves", "objects");
        for (moves, objects) in &hist {
            let _ = writeln!(s, "{moves:>6} {objects:>8}");
        }
        let moves: u64 = per_obj.values().sum();
        let ((home, index), worst) = per_obj
            .iter()
            .max_by_key(|&(_, &c)| c)
            .map(|(k, &c)| (*k, c))
            .expect("per_obj checked non-empty above");
        let _ = writeln!(
            s,
            "{moves} moves across {} objects, busiest {home}:{index} with {worst}",
            per_obj.len()
        );
        let affine: u64 = recs
            .iter()
            .filter(|r| r.ev == "lb_grant")
            .filter_map(|r| r.u64("affine"))
            .sum();
        let _ = writeln!(
            s,
            "{affine} granted as net-affine (had heard more from the requester than from the donor)"
        );
    }
    let nprocs = recs.iter().map(|r| r.rank + 1).max().unwrap_or(0);
    let mut vetoes = vec![[0u64; 3]; nprocs];
    for r in recs.iter().filter(|r| r.ev == "lb_veto") {
        let kind = r.u64("kind").unwrap_or(u64::MAX) as usize;
        if kind < 3 {
            vetoes[r.rank][kind] += 1;
        }
    }
    if vetoes.iter().flatten().copied().sum::<u64>() == 0 {
        s.push_str("(no governor vetoes)\n");
    } else {
        let _ = writeln!(
            s,
            "{:>5} {:>11} {:>10} {:>9}",
            "proc", VETO_LABELS[0], VETO_LABELS[1], VETO_LABELS[2]
        );
        for (p, v) in vetoes.iter().enumerate() {
            if v.iter().sum::<u64>() > 0 {
                let _ = writeln!(s, "{p:>5} {:>11} {:>10} {:>9}", v[0], v[1], v[2]);
            }
        }
    }
    // Forecast stream: per-rank sample count, how often the trend pointed
    // up, and the last weight -> prediction pair (in load units).
    let mut fc = vec![(0u64, 0u64, 0u64, 0u64); nprocs];
    for r in recs.iter().filter(|r| r.ev == "lb_forecast") {
        let f = &mut fc[r.rank];
        f.0 += 1;
        if r.fields.get("rising").map(String::as_str) == Some("true") {
            f.1 += 1;
        }
        f.2 = r.u64("weight_milli").unwrap_or(0);
        f.3 = r.u64("predicted_milli").unwrap_or(0);
    }
    if fc.iter().map(|f| f.0).sum::<u64>() == 0 {
        s.push_str("(no forecasts)\n");
    } else {
        let _ = writeln!(
            s,
            "{:>5} {:>9} {:>7} {:>11} {:>11}",
            "proc", "forecasts", "rising", "last-load", "last-pred"
        );
        for (p, f) in fc.iter().enumerate() {
            if f.0 > 0 {
                let _ = writeln!(
                    s,
                    "{p:>5} {:>9} {:>7} {:>11.3} {:>11.3}",
                    f.0,
                    f.1,
                    f.2 as f64 / 1e3,
                    f.3 as f64 / 1e3
                );
            }
        }
    }
    s
}

/// Entry point for the subcommand: render every view of one dump.
pub fn report(text: &str, stride: usize) -> Result<String, String> {
    let recs = parse_dump(text)?;
    if recs.is_empty() {
        return Err("trace is empty".to_string());
    }
    let mut s = String::new();
    s.push_str(&render_breakdown(&fold_breakdown(&recs), stride));
    s.push('\n');
    s.push_str(&render_forward_histogram(&recs));
    s.push('\n');
    s.push_str(&render_directory(&recs, stride));
    s.push('\n');
    s.push_str(&render_begging_latency(&recs));
    s.push('\n');
    s.push_str(&render_migration_timeline(&recs));
    s.push('\n');
    s.push_str(&render_migration_churn(&recs));
    s.push('\n');
    s.push_str(&render_activity(&recs, stride));
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = r#"{"rank":0,"seq":0,"t":0,"ev":"span","cat":0,"dur":2000000000}
{"rank":0,"seq":1,"t":2000000000,"ev":"span","cat":2,"dur":500000000}
{"rank":0,"seq":2,"t":2500000000,"ev":"proc_finish"}
{"rank":1,"seq":0,"t":0,"ev":"span","cat":0,"dur":1000000000}
{"rank":1,"seq":1,"t":1000000000,"ev":"proc_finish"}
{"rank":1,"seq":2,"t":100,"ev":"lb_request","victim":0,"attempt":0}
{"rank":1,"seq":3,"t":3000100,"ev":"lb_nack_recv","src":0,"stale":false}
{"rank":1,"seq":4,"t":4000000,"ev":"lb_request","victim":0,"attempt":1}
{"rank":1,"seq":5,"t":5000000,"ev":"lb_grant_recv","src":0,"units":2}
{"rank":0,"seq":3,"t":10,"ev":"migrate","home":0,"index":7,"dst":1}
{"rank":1,"seq":6,"t":20,"ev":"install","home":0,"index":7,"from":0}
{"rank":1,"seq":7,"t":30,"ev":"forward_hop","home":0,"index":7,"next":1,"hops":1}
{"rank":1,"seq":8,"t":40,"ev":"forward_hop","home":0,"index":7,"next":1,"hops":1}
{"rank":1,"seq":9,"t":50,"ev":"forward_hop","home":0,"index":7,"next":1,"hops":2}
{"rank":0,"seq":4,"t":60,"ev":"send","dst":1,"bytes":64}
{"rank":1,"seq":10,"t":70,"ev":"recv","src":0,"bytes":64}
{"rank":1,"seq":11,"t":80,"ev":"exec_begin","home":0,"index":7}
{"rank":1,"seq":12,"t":90,"ev":"exec_finish","home":0,"index":7}
{"rank":1,"seq":13,"t":95,"ev":"poll","events":3}
{"rank":1,"seq":14,"t":96,"ev":"poll_system","events":1}
{"rank":1,"seq":15,"t":97,"ev":"poll_wake","events":1}
{"rank":0,"seq":5,"t":98,"ev":"lb_request_recv","src":1}
{"rank":0,"seq":6,"t":99,"ev":"lb_grant","dst":1,"units":2,"affine":1}
{"rank":0,"seq":7,"t":100,"ev":"lb_nack_sent","dst":1}
{"rank":0,"seq":9,"t":102,"ev":"dcs_dropped","peer":1,"handler":7}
{"rank":0,"seq":10,"t":103,"ev":"dcs_retry","peer":1,"frame":4,"attempt":1}
{"rank":0,"seq":11,"t":104,"ev":"dcs_duplicate","peer":1,"handler":7}
{"rank":0,"seq":12,"t":105,"ev":"lb_veto","peer":1,"kind":0}
{"rank":0,"seq":13,"t":106,"ev":"lb_veto","peer":1,"kind":1}
{"rank":0,"seq":14,"t":107,"ev":"lb_veto","peer":1,"kind":1}
{"rank":0,"seq":15,"t":108,"ev":"lb_veto","peer":1,"kind":2}
{"rank":1,"seq":16,"t":109,"ev":"lb_forecast","weight_milli":1500,"predicted_milli":2750,"rising":true}
{"rank":1,"seq":17,"t":110,"ev":"lb_forecast","weight_milli":2750,"predicted_milli":2600,"rising":false}
{"rank":0,"seq":16,"t":111,"ev":"loc_cache_hit","home":0,"index":7,"owner":1}
{"rank":0,"seq":17,"t":112,"ev":"loc_cache_hit","home":0,"index":7,"owner":1}
{"rank":0,"seq":18,"t":113,"ev":"loc_cache_miss","home":0,"index":8,"shard":2}
{"rank":1,"seq":18,"t":114,"ev":"loc_cache_stale","home":0,"index":7,"owner":2,"epoch":3}
{"rank":1,"seq":19,"t":115,"ev":"home_lookup","home":0,"index":7,"shard":2}
"#;

    #[test]
    fn parses_every_line_of_a_real_dump() {
        let recs = parse_dump(DUMP).expect("dump parses");
        assert_eq!(recs.len(), 38);
        assert_eq!(recs[0].ev, "span");
        assert_eq!(recs[0].u64("dur"), Some(2_000_000_000));
    }

    #[test]
    fn malformed_line_is_an_error_with_its_line_number() {
        let err = parse_dump("{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\"}\nnot json\n")
            .expect_err("must fail");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn breakdown_table_pads_idle_and_sums_categories() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_breakdown(&fold_breakdown(&recs), 1);
        // Proc 1 finished at 1s, makespan 2.5s: 1.5s idle padding.
        assert!(out.contains("compute"), "{out}");
        assert!(out.contains("idle"), "{out}");
        assert!(out.contains("1.500"), "{out}");
        assert!(out.contains("makespan 2.500s"), "{out}");
        // overhead = 0.5s messaging / 3.0s compute.
        assert!(out.contains("overhead 16.6667%"), "{out}");
    }

    #[test]
    fn forward_histogram_counts_exact_chain_lengths() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_forward_histogram(&recs);
        // hops=1 seen twice, hops=2 once: one chain of length 1, one of 2.
        assert!(out.contains("     1          1"), "{out}");
        assert!(out.contains("     2          1"), "{out}");
        assert!(out.contains("2 forwarded messages, 3 hops total"), "{out}");
        // Two messages with chains of 1 and 2: p50 is 1, p99 and max are 2.
        assert!(out.contains("chain p50 1  p99 2  max 2"), "{out}");
    }

    #[test]
    fn directory_section_folds_cache_counters() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_directory(&recs, 1);
        // Rank 0: 2 hits, 1 miss; rank 1: 1 stale, 1 lookup.
        assert!(
            out.contains("    0        2        1        0        0"),
            "{out}"
        );
        assert!(
            out.contains("    1        0        0        1        1"),
            "{out}"
        );
        assert!(
            out.contains(
                "cache hit rate 66.7% (2 hits / 1 misses), 1 stale corrections, 1 home lookups"
            ),
            "{out}"
        );
    }

    #[test]
    fn directory_section_handles_a_quiet_trace() {
        let dump = "{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\",\"cat\":0,\"dur\":5}\n";
        let recs = parse_dump(dump).expect("dump parses");
        let out = render_directory(&recs, 1);
        assert!(out.contains("(no directory events)"), "{out}");
    }

    #[test]
    fn begging_latency_pairs_requests_with_replies() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_begging_latency(&recs);
        // Two rounds on proc 1: 3ms NACK and 1ms grant -> mean 2ms, max 3ms.
        assert!(
            out.contains("    1       2        1        1      2.000      3.000"),
            "{out}"
        );
    }

    #[test]
    fn stale_nacks_do_not_close_a_round() {
        let dump = "{\"rank\":0,\"seq\":0,\"t\":100,\"ev\":\"lb_request\",\"victim\":1,\"attempt\":0}\n\
            {\"rank\":0,\"seq\":1,\"t\":200,\"ev\":\"lb_nack_recv\",\"src\":2,\"stale\":true}\n\
            {\"rank\":0,\"seq\":2,\"t\":1000100,\"ev\":\"lb_nack_recv\",\"src\":1,\"stale\":false}\n";
        let recs = parse_dump(dump).expect("dump parses");
        let out = render_begging_latency(&recs);
        // One round, closed by the genuine NACK at +1ms (not the stale one).
        assert!(
            out.contains("    0       1        0        1      1.000      1.000"),
            "{out}"
        );
    }

    #[test]
    fn migration_timeline_merges_both_sides_in_time_order() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_migration_timeline(&recs);
        let migrate_at = out.find("migrate").expect("has migrate row");
        let install_at = out.find("install").expect("has install row");
        assert!(migrate_at < install_at, "{out}");
        assert!(out.contains("1 migrations total"), "{out}");
    }

    #[test]
    fn activity_counters_fold_per_rank() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_activity(&recs, 1);
        // Rank 0: 1 sent, victim-side LB (1 req-in, 1 grant, 1 nack-out),
        // substrate (1 dropped, 1 retry, 1 dup).
        assert!(
            out.contains("    0        1        1         1        1        1     1"),
            "{out}"
        );
        // Rank 1: 1 recvd, 1 exec, 1 poll, 1 sys-poll, 1 wake.
        assert!(
            out.contains("    1        0        1        1        1         1       1"),
            "{out}"
        );
        assert!(
            out.contains("totals: 1 sent, 1 recvd, 1 executed, 1 dropped, 1 retries, 1 duplicates"),
            "{out}"
        );
    }

    #[test]
    fn exec_imbalance_is_warned_about() {
        let dump = "{\"rank\":0,\"seq\":0,\"t\":1,\"ev\":\"exec_begin\",\"home\":0,\"index\":1}\n";
        let recs = parse_dump(dump).expect("dump parses");
        let out = render_activity(&recs, 1);
        assert!(
            out.contains("warning: 1 exec_begin vs 0 exec_finish"),
            "{out}"
        );
    }

    #[test]
    fn migration_churn_folds_moves_vetoes_and_forecasts() {
        let recs = parse_dump(DUMP).expect("dump parses");
        let out = render_migration_churn(&recs);
        // One object (0:7) moved once.
        assert!(out.contains("     1        1"), "{out}");
        assert!(
            out.contains("1 moves across 1 objects, busiest 0:7 with 1"),
            "{out}"
        );
        assert!(out.contains("1 granted as net-affine"), "{out}");
        // Rank 0 vetoes: 1 hysteresis, 2 residency, 1 rate-cap.
        assert!(out.contains("residency"), "{out}");
        assert!(
            out.contains("    0           1          2         1"),
            "{out}"
        );
        // Rank 1 forecasts: 2 samples, 1 rising, last pair 2.75 -> 2.60.
        assert!(
            out.contains("    1         2       1       2.750       2.600"),
            "{out}"
        );
    }

    #[test]
    fn migration_churn_handles_a_quiet_trace() {
        let dump = "{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\",\"cat\":0,\"dur\":5}\n";
        let recs = parse_dump(dump).expect("dump parses");
        let out = render_migration_churn(&recs);
        assert!(out.contains("(no migrations)"), "{out}");
        assert!(out.contains("(no governor vetoes)"), "{out}");
        assert!(out.contains("(no forecasts)"), "{out}");
    }

    #[test]
    fn report_renders_all_sections() {
        let out = report(DUMP, 1).expect("report renders");
        for heading in [
            "per-processor time breakdown",
            "Forwarding-chain length histogram",
            "Directory location caches",
            "Begging-round latency",
            "Migration timeline",
            "Migration churn",
            "Activity counters",
        ] {
            assert!(out.contains(heading), "missing {heading}:\n{out}");
        }
    }

    #[test]
    fn empty_trace_is_an_error() {
        assert!(report("", 1).is_err());
    }
}
