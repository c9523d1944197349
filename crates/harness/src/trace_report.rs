//! The `trace-report` views: replay a JSONL event trace (written by the
//! `figure` binary under `PREMA_TRACE_OUT`, by `prema-launch --trace-dir`, or
//! by any [`prema_sim::TraceSink`]) into the paper's per-processor
//! time-breakdown table plus derived views the aggregate figures cannot show:
//! the forwarding-chain length histogram, the directory caches, begging-round
//! latencies, a migration timeline, migration churn and activity counters.
//!
//! Every line is read back by [`Record::from_jsonl`]. All views, the
//! breakdown table among them, fold the records in one pass whose `match`
//! names every [`TraceEvent`] variant, so a new variant does not compile
//! until this reader says what it does with it. The table is rendered by
//! [`prema_sim::SimReport::render_table`], the very table the figures print;
//! [`crate::report::breakdown_from_trace`] is the same fold over a slice.
//! [`report`] folds a dump as it reads it, line by line, and holds neither
//! the dump nor its records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

use prema_sim::{Category, Record, SimReport, SimTime, TimeBreakdown, TraceEvent};

/// Read a whole dump, one record per non-blank line; the error names the
/// first line that is not a record.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    records(text.as_bytes()).collect()
}

/// The records of `input`, one per non-blank line, each an error naming
/// its line if it is not one.
fn records(input: impl BufRead) -> impl Iterator<Item = Result<Record, String>> {
    input
        .lines()
        .enumerate()
        .filter_map(|(i, line)| match line {
            Ok(line) if line.trim().is_empty() => None,
            Ok(line) => Some(
                Record::from_jsonl(&line)
                    .ok_or_else(|| format!("line {}: not a trace record: {line}", i + 1)),
            ),
            Err(e) => Some(Err(format!("line {}: {e}", i + 1))),
        })
}

/// The per-rank tables are sized by the largest rank a trace names, so a
/// rank past this one is refused rather than allowed to size them.
const MAX_RANKS: usize = 1 << 16;

/// Every view of a dump read from `input`, one record per non-blank line, as
/// the `trace-report` binary prints it; the error names the first line that
/// is not a record, or the first rank too large to size the tables.
pub fn report(input: impl BufRead, stride: usize) -> Result<String, String> {
    Views::fold(records(input))?.render(stride)
}

/// The breakdown table of ranks `0..nprocs` folded from `records`:
/// [`crate::report::breakdown_from_trace`].
pub(crate) fn table<'a>(records: impl Iterator<Item = &'a Record>, nprocs: usize) -> SimReport {
    let mut views = Views::default();
    records.for_each(|r| views.add(r));
    views.table(nprocs)
}

/// Every view of a trace's records, as [`report`] prints them.
pub fn render(records: &[Record], stride: usize) -> Result<String, String> {
    Views::fold(records.iter().copied().map(Ok))?.render(stride)
}

/// What one rank's records add up to.
#[derive(Default, Clone)]
struct RankCounts {
    /// The breakdown table's row: `span` time by category, the latest
    /// `proc_finish`, and the bytes of `send` (counted in `sent`).
    breakdown: TimeBreakdown,
    finish: SimTime,
    bytes_sent: u64,
    /// `loc_cache_hit` / `loc_cache_miss` / `loc_cache_stale` /
    /// `home_lookup`.
    directory: [u64; 4],
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
    /// the begging protocol.
    req_in: u64,
    grants: u64,
    nacks_out: u64,
    /// The loss/recovery counters `dcs_dropped` / `dcs_retry` /
    /// `dcs_duplicate`.
    dropped: u64,
    retries: u64,
    dups: u64,
    /// The beggar side: when this rank's open `lb_request` was sent, and the
    /// rounds a grant or NACK has closed since.
    open: Option<u64>,
    rounds: u64,
    granted: u64,
    refused: u64,
    round_sum_ns: u64,
    round_max_ns: u64,
    /// `lb_veto` by kind: hysteresis, residency, rate cap.
    vetoes: [u64; 3],
}

impl RankCounts {
    /// A grant or a current NACK arrived at `t`: it closes the open round.
    fn close_round(&mut self, t: u64, granted: bool) {
        if let Some(t0) = self.open.take() {
            let dt = t.saturating_sub(t0);
            self.rounds += 1;
            self.round_sum_ns += dt;
            self.round_max_ns = self.round_max_ns.max(dt);
            if granted {
                self.granted += 1;
            } else {
                self.refused += 1;
            }
        }
    }
}

/// One side of a migration: `migrate` on the source, `install` on the
/// destination.
struct Move {
    t: u64,
    rank: usize,
    home: usize,
    index: u64,
    /// Shipped out (`migrate`, `peer` is the destination) or installed
    /// (`install`, `peer` is the source).
    out: bool,
    peer: usize,
}

/// Everything the views read, folded one record at a time.
#[derive(Default)]
struct Views {
    ranks: Vec<RankCounts>,
    /// `forward_hop` records by their `hops`.
    hops: BTreeMap<u32, u64>,
    /// Both sides of every migration, in time order.
    moves: Vec<Move>,
    /// `migrate` records per object.
    per_obj: BTreeMap<(usize, u64), u64>,
    /// Objects granted as net-affine, over all `lb_grant` records.
    affine: u64,
}

const NANOS: f64 = 1e9;

/// How many timeline rows to print before eliding the rest.
const TIMELINE_LIMIT: usize = 20;

/// Veto-kind labels, indexed by the `kind` field of `lb_veto` records.
const VETO_LABELS: [&str; 3] = ["hysteresis", "residency", "rate-cap"];

impl Views {
    /// Fold `records` in, one at a time; the first error, or a rank past
    /// [`MAX_RANKS`], ends the fold.
    fn fold(records: impl Iterator<Item = Result<Record, String>>) -> Result<Self, String> {
        let mut v = Views::default();
        for r in records {
            let r = r?;
            if r.rank >= MAX_RANKS {
                return Err(format!(
                    "rank {} is past the {MAX_RANKS} a trace may name",
                    r.rank
                ));
            }
            v.add(&r);
        }
        v.moves.sort_by_key(|m| (m.t, m.rank));
        Ok(v)
    }

    fn add(&mut self, r: &Record) {
        if r.rank >= self.ranks.len() {
            self.ranks.resize(r.rank + 1, RankCounts::default());
        }
        let c = &mut self.ranks[r.rank];
        match r.ev {
            TraceEvent::Span { cat, dur } => {
                if let Some(cat) = Category::from_index(cat as usize) {
                    c.breakdown.add(cat, SimTime(dur));
                }
            }
            TraceEvent::ProcFinish => c.finish = c.finish.max(SimTime(r.t)),
            TraceEvent::Send { bytes, .. } => {
                c.sent += 1;
                c.bytes_sent += bytes as u64;
            }
            TraceEvent::Recv { .. } => c.recvd += 1,
            TraceEvent::Migrate { home, index, dst } => {
                *self.per_obj.entry((home, index)).or_insert(0) += 1;
                self.moves.push(Move {
                    t: r.t,
                    rank: r.rank,
                    home,
                    index,
                    out: true,
                    peer: dst,
                });
            }
            TraceEvent::Install { home, index, from } => self.moves.push(Move {
                t: r.t,
                rank: r.rank,
                home,
                index,
                out: false,
                peer: from,
            }),
            TraceEvent::ForwardHop { hops, .. } => *self.hops.entry(hops).or_insert(0) += 1,
            TraceEvent::LocCacheHit { .. } => c.directory[0] += 1,
            TraceEvent::LocCacheMiss { .. } => c.directory[1] += 1,
            TraceEvent::LocCacheStale { .. } => c.directory[2] += 1,
            TraceEvent::HomeLookup { .. } => c.directory[3] += 1,
            TraceEvent::ExecBegin { .. } => c.exec_begin += 1,
            TraceEvent::ExecFinish { .. } => c.exec_finish += 1,
            TraceEvent::Poll { .. } => c.polls += 1,
            TraceEvent::PollSystem { .. } => c.sys_polls += 1,
            TraceEvent::PollWake { .. } => c.wakes += 1,
            TraceEvent::LbRequest { .. } => c.open = Some(r.t),
            TraceEvent::LbRequestRecv { .. } => c.req_in += 1,
            TraceEvent::LbGrant { affine, .. } => {
                c.grants += 1;
                self.affine += u64::from(affine);
            }
            TraceEvent::LbGrantRecv { .. } => c.close_round(r.t, true),
            TraceEvent::LbNackSent { .. } => c.nacks_out += 1,
            TraceEvent::LbNackRecv { stale: false, .. } => c.close_round(r.t, false),
            // A stale NACK answers an older, already-cancelled round.
            TraceEvent::LbNackRecv { stale: true, .. } => {}
            TraceEvent::LbVeto { kind, .. } => {
                if let Some(n) = c.vetoes.get_mut(kind as usize) {
                    *n += 1;
                }
            }
            TraceEvent::DcsDropped { .. } => c.dropped += 1,
            TraceEvent::DcsRetry { .. } => c.retries += 1,
            TraceEvent::DcsDuplicate { .. } => c.dups += 1,
        }
    }

    /// The breakdown table of ranks `0..nprocs`; a rank no record named is
    /// all zero, and `events` is not in a trace, so it is 0.
    fn table(&self, nprocs: usize) -> SimReport {
        let mut ranks = self.ranks.clone();
        ranks.resize(nprocs, RankCounts::default());
        let finish: Vec<SimTime> = ranks.iter().map(|c| c.finish).collect();
        SimReport {
            breakdowns: ranks.iter().map(|c| c.breakdown.clone()).collect(),
            makespan: finish.iter().copied().fold(SimTime::ZERO, SimTime::max),
            finish,
            msgs_sent: ranks.iter().map(|c| c.sent).collect(),
            bytes_sent: ranks.iter().map(|c| c.bytes_sent).collect(),
            events: 0,
        }
    }

    /// The breakdown table, the figures' own (idle padded to the makespan,
    /// empty categories omitted, then the makespan / quality / overhead
    /// line), and the other views after it.
    fn render(self, stride: usize) -> Result<String, String> {
        if self.ranks.is_empty() {
            return Err("trace is empty".to_string());
        }
        let table = self.table(self.ranks.len());
        let mut s = table.render_table("Trace: per-processor time breakdown", stride);
        for view in [
            self.forward_histogram(),
            self.directory(stride),
            self.begging_latency(),
            self.migration_timeline(),
            self.migration_churn(),
            self.activity(stride),
        ] {
            s.push('\n');
            s.push_str(&view);
        }
        Ok(s)
    }

    /// Forwarding-chain length histogram. Each migration leaves a forwarding
    /// pointer; a message that chases a chain of length `L` emits
    /// `forward_hop` records with `hops = 1..=L`. So `count[L] - count[L+1]`
    /// messages ended their chase after exactly `L` hops.
    fn forward_histogram(&self) -> String {
        let count = &self.hops;
        let mut s = String::from("== Forwarding-chain length histogram ==\n");
        let Some(&max) = count.keys().last() else {
            s.push_str("(no forwarded messages)\n");
            return s;
        };
        let exact = |len: u32| {
            let at = count.get(&len).copied().unwrap_or(0);
            let next = len.checked_add(1).and_then(|n| count.get(&n));
            at.saturating_sub(next.copied().unwrap_or(0))
        };
        // Only recorded lengths can end a chase: walk the keys, not `1..=max`,
        // which a hostile `hops` would make billions of steps long.
        let lengths = || count.keys().copied().filter(|&len| len >= 1);
        let _ = writeln!(s, "{:>6} {:>10}", "length", "messages");
        for len in lengths() {
            let _ = writeln!(s, "{len:>6} {:>10}", exact(len));
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
        let percentile = |q: f64| -> u32 {
            let want = ((total as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0;
            for len in lengths() {
                seen += exact(len);
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

    /// Directory and sender location-cache counters: `loc_cache_hit` (a send
    /// answered by local knowledge), `loc_cache_miss` (no knowledge — routed
    /// via the home shard or birth rank), `loc_cache_stale` (a forwarder or
    /// shard corrected a stale guess), and `home_lookup` (explicit
    /// `DirLookup` queries). The closing line is the aggregate hit rate the
    /// README's directory quickstart reads off.
    fn directory(&self, stride: usize) -> String {
        let mut s = String::from("== Directory location caches ==\n");
        let tot = |c: usize| self.ranks.iter().map(|r| r.directory[c]).sum::<u64>();
        if (0..4).map(tot).sum::<u64>() == 0 {
            s.push_str("(no directory events)\n");
            return s;
        }
        let _ = writeln!(
            s,
            "{:>5} {:>8} {:>8} {:>8} {:>8}",
            "proc", "hits", "misses", "stale", "lookups"
        );
        for (p, r) in self.ranks.iter().enumerate().step_by(stride.max(1)) {
            let [hits, misses, stale, lookups] = r.directory;
            if hits + misses + stale + lookups > 0 {
                let _ = writeln!(s, "{p:>5} {hits:>8} {misses:>8} {stale:>8} {lookups:>8}");
            }
        }
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

    /// Begging-round latency: on each rank, the time from an `lb_request` to
    /// the next grant or current NACK arriving back on that rank.
    fn begging_latency(&self) -> String {
        let mut s = String::from("== Begging-round latency ==\n");
        let _ = writeln!(
            s,
            "{:>5} {:>7} {:>8} {:>8} {:>10} {:>10}",
            "proc", "rounds", "granted", "refused", "mean(ms)", "max(ms)"
        );
        for (p, r) in self.ranks.iter().enumerate().filter(|(_, r)| r.rounds > 0) {
            let _ = writeln!(
                s,
                "{p:>5} {:>7} {:>8} {:>8} {:>10.3} {:>10.3}",
                r.rounds,
                r.granted,
                r.refused,
                r.round_sum_ns as f64 / r.rounds as f64 / 1e6,
                r.round_max_ns as f64 / 1e6
            );
        }
        if self.ranks.iter().all(|r| r.rounds == 0) {
            s.push_str("(no completed begging rounds)\n");
        }
        s
    }

    /// Migration timeline: `migrate` (source side) and `install`
    /// (destination side) records merged in time order, first
    /// [`TIMELINE_LIMIT`] shown.
    fn migration_timeline(&self) -> String {
        let mut s = String::from("== Migration timeline ==\n");
        if self.moves.is_empty() {
            s.push_str("(no migrations)\n");
            return s;
        }
        for m in self.moves.iter().take(TIMELINE_LIMIT) {
            let (what, arrow) = if m.out {
                ("migrate", "->")
            } else {
                ("install", "<-")
            };
            let _ = writeln!(
                s,
                "{:>12.6}s  proc {:>3}  {what}  {}:{} {arrow} proc {}",
                m.t as f64 / NANOS,
                m.rank,
                m.home,
                m.index,
                m.peer
            );
        }
        if self.moves.len() > TIMELINE_LIMIT {
            let _ = writeln!(s, "... {} more", self.moves.len() - TIMELINE_LIMIT);
        }
        let migrations = self.moves.iter().filter(|m| m.out).count();
        let _ = writeln!(s, "{migrations} migrations total");
        s
    }

    /// Migration churn: how often each object moved, and what the stability
    /// governor did about it. Per-object move counts are presented as a
    /// histogram (how many objects moved exactly k times) so thrash shows up
    /// as a long tail; `lb_grant`'s `affine` counts how many granted objects
    /// were chosen first because they had heard more from the requester than
    /// from their donor; `lb_veto` counts the migrations the governor
    /// refused, by kind (kind 1 is a residency violation averted).
    fn migration_churn(&self) -> String {
        let mut s = String::from("== Migration churn ==\n");
        let per_obj = &self.per_obj;
        if let Some(((home, index), worst)) = per_obj
            .iter()
            .max_by_key(|&(_, &c)| c)
            .map(|(k, &c)| (*k, c))
        {
            let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
            for &c in per_obj.values() {
                *hist.entry(c).or_insert(0) += 1;
            }
            let _ = writeln!(s, "{:>6} {:>8}", "moves", "objects");
            for (moves, objects) in &hist {
                let _ = writeln!(s, "{moves:>6} {objects:>8}");
            }
            let moves: u64 = per_obj.values().sum();
            let _ = writeln!(
                s,
                "{moves} moves across {} objects, busiest {home}:{index} with {worst}",
                per_obj.len()
            );
            let _ = writeln!(
                s,
                "{} granted as net-affine (had heard more from the requester than from the donor)",
                self.affine
            );
        } else {
            s.push_str("(no migrations)\n");
        }
        if self.ranks.iter().all(|r| r.vetoes == [0; 3]) {
            s.push_str("(no governor vetoes)\n");
        } else {
            let _ = writeln!(
                s,
                "{:>5} {:>11} {:>10} {:>9}",
                "proc", VETO_LABELS[0], VETO_LABELS[1], VETO_LABELS[2]
            );
            for (p, r) in self.ranks.iter().enumerate() {
                let [hysteresis, residency, rate_cap] = r.vetoes;
                if hysteresis + residency + rate_cap > 0 {
                    let _ = writeln!(s, "{p:>5} {hysteresis:>11} {residency:>10} {rate_cap:>9}");
                }
            }
        }
        s
    }

    /// Activity-counter tables: messaging/scheduling per rank, then the LB
    /// victim side and substrate health.
    fn activity(&self, stride: usize) -> String {
        let stride = stride.max(1);
        let acts = &self.ranks;
        let tot = |f: fn(&RankCounts) -> u64| acts.iter().map(f).sum::<u64>();
        let mut s = String::from("== Activity counters ==\n");
        if tot(|a| {
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
        }) == 0
        {
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
        let (begun, finished) = (tot(|a| a.exec_begin), tot(|a| a.exec_finish));
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `TraceEvent` variant, a stale NACK among them.
    const ALL_EVENTS: &str = include_str!("../tests/fixtures/all_events.jsonl");
    /// Only `span` and `proc_finish` records.
    const QUIET: &str = include_str!("../tests/fixtures/quiet.jsonl");

    fn all_events() -> Vec<Record> {
        parse(ALL_EVENTS).expect("fixture parses")
    }

    fn fold(records: &[Record]) -> Views {
        Views::fold(records.iter().copied().map(Ok)).expect("ranks in range")
    }

    /// The breakdown table alone, as [`render`] prints it first.
    fn breakdown(records: &[Record], nprocs: usize, stride: usize) -> String {
        crate::report::breakdown_from_trace(records, nprocs)
            .render_table("Trace: per-processor time breakdown", stride)
    }

    fn rec(rank: usize, seq: u64, t: u64, ev: TraceEvent) -> Record {
        Record { rank, seq, t, ev }
    }

    /// The two fixtures render exactly as the hand-rolled replayer this
    /// module replaced printed them (`*.txt`, generated by it).
    #[test]
    fn fixtures_render_byte_for_byte_as_before() {
        for (trace, want) in [
            (ALL_EVENTS, include_str!("../tests/fixtures/all_events.txt")),
            (QUIET, include_str!("../tests/fixtures/quiet.txt")),
        ] {
            let records = parse(trace).expect("fixture parses");
            assert_eq!(render(&records, 1).expect("fixture renders"), want);
        }
    }

    #[test]
    fn parses_every_line_of_a_real_dump() {
        let recs = all_events();
        assert_eq!(recs.len(), 37);
        assert_eq!(
            recs[0],
            rec(
                0,
                0,
                0,
                TraceEvent::Span {
                    cat: 0,
                    dur: 2_000_000_000
                }
            )
        );
        let mut names: Vec<&str> = recs.iter().map(|r| r.ev.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26, "every variant: {names:?}");
    }

    #[test]
    fn malformed_line_is_an_error_with_its_line_number() {
        let span = "{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\",\"cat\":0,\"dur\":5}";
        let err = parse(&format!("{span}\nnot json\n")).expect_err("must fail");
        assert!(err.starts_with("line 2: not a trace record"), "{err}");
        // A missing field is no longer read as 0.
        let err = parse("{\"rank\":0,\"seq\":0,\"t\":0,\"ev\":\"span\",\"cat\":0}\n")
            .expect_err("must fail");
        assert!(err.starts_with("line 1: not a trace record"), "{err}");
    }

    #[test]
    fn breakdown_table_pads_idle_and_sums_categories() {
        let out = breakdown(&all_events(), 2, 1);
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
        let out = fold(&all_events()).forward_histogram();
        // hops=1 seen twice, hops=2 once: one chain of length 1, one of 2.
        assert!(out.contains("     1          1"), "{out}");
        assert!(out.contains("     2          1"), "{out}");
        assert!(out.contains("2 forwarded messages, 3 hops total"), "{out}");
        // Two messages with chains of 1 and 2: p50 is 1, p99 and max are 2.
        assert!(out.contains("chain p50 1  p99 2  max 2"), "{out}");
    }

    #[test]
    fn forward_histogram_survives_max_hops() {
        let line = format!(
            r#"{{"rank":0,"seq":0,"t":0,"ev":"forward_hop","home":0,"index":7,"next":1,"hops":{}}}"#,
            u32::MAX
        );
        let out = render(&parse(&line).unwrap(), 1).unwrap();
        assert!(out.contains(&format!("{:>6} {:>10}", u32::MAX, 1)), "{out}");
        assert!(out.contains(&format!("max {}", u32::MAX)), "{out}");
    }

    #[test]
    fn directory_section_folds_cache_counters() {
        let out = fold(&all_events()).directory(1);
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
        let recs = [rec(0, 0, 0, TraceEvent::Span { cat: 0, dur: 5 })];
        let out = fold(&recs).directory(1);
        assert!(out.contains("(no directory events)"), "{out}");
    }

    #[test]
    fn begging_latency_pairs_requests_with_replies() {
        let out = fold(&all_events()).begging_latency();
        // Two rounds on proc 1: 3ms NACK and 1ms grant -> mean 2ms, max 3ms.
        assert!(
            out.contains("    1       2        1        1      2.000      3.000"),
            "{out}"
        );
    }

    #[test]
    fn stale_nacks_do_not_close_a_round() {
        let recs = [
            rec(
                0,
                0,
                100,
                TraceEvent::LbRequest {
                    victim: 1,
                    attempt: 0,
                },
            ),
            rec(
                0,
                1,
                200,
                TraceEvent::LbNackRecv {
                    src: 2,
                    stale: true,
                },
            ),
            rec(
                0,
                2,
                1_000_100,
                TraceEvent::LbNackRecv {
                    src: 1,
                    stale: false,
                },
            ),
        ];
        let out = fold(&recs).begging_latency();
        // One round, closed by the genuine NACK at +1ms (not the stale one).
        assert!(
            out.contains("    0       1        0        1      1.000      1.000"),
            "{out}"
        );
    }

    #[test]
    fn migration_timeline_merges_both_sides_in_time_order() {
        let out = fold(&all_events()).migration_timeline();
        let migrate_at = out.find("migrate").expect("has migrate row");
        let install_at = out.find("install").expect("has install row");
        assert!(migrate_at < install_at, "{out}");
        assert!(out.contains("1 migrations total"), "{out}");
    }

    #[test]
    fn activity_counters_fold_per_rank() {
        let out = fold(&all_events()).activity(1);
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
        let recs = [rec(
            0,
            0,
            1,
            TraceEvent::ExecBegin {
                home: 0,
                index: 1,
                handler: 0,
            },
        )];
        let out = fold(&recs).activity(1);
        assert!(
            out.contains("warning: 1 exec_begin vs 0 exec_finish"),
            "{out}"
        );
    }

    #[test]
    fn migration_churn_folds_moves_and_vetoes() {
        let out = fold(&all_events()).migration_churn();
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
    }

    #[test]
    fn migration_churn_handles_a_quiet_trace() {
        let recs = [rec(0, 0, 0, TraceEvent::Span { cat: 0, dur: 5 })];
        let out = fold(&recs).migration_churn();
        assert!(out.contains("(no migrations)"), "{out}");
        assert!(out.contains("(no governor vetoes)"), "{out}");
    }

    #[test]
    fn report_renders_all_sections() {
        let out = render(&all_events(), 1).expect("report renders");
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
        assert_eq!(parse(""), Ok(Vec::new()));
        assert!(render(&[], 1).is_err());
    }

    #[test]
    fn a_rank_too_large_to_size_the_tables_is_an_error() {
        let far = rec(usize::MAX, 0, 0, TraceEvent::ProcFinish);
        let err = render(&[far], 1).expect_err("must fail");
        assert!(err.starts_with(&format!("rank {}", usize::MAX)), "{err}");
    }
}
