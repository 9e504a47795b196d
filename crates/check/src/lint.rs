//! `bruck-lint`: a std-only source scanner for repo-banned patterns.
//!
//! This is deliberately a *line* linter, not a parser: every rule here is a
//! textual invariant chosen so that false positives are rare and every true
//! positive is worth a human decision. Violations that are audited and
//! intentional live in `crates/check/lint-allow.txt` — an explicit,
//! counted budget per `(rule, file)`, so a *new* violation in an allowlisted
//! file still fails the gate. A budget is exact: one above its findings (or
//! for a file that is gone) would license the next violation unseen, so a
//! stale line fails the gate too.
//!
//! ## Rules
//!
//! * `no-direct-mailbox` — code outside `crates/comm` mentioning mailboxes:
//!   algorithms must go through the [`Communicator`] trait, never the
//!   runtime's delivery structures.
//! * `no-unwrap` / `no-expect` — `.unwrap()` / `.expect(` in non-test library
//!   code: library errors must propagate as `CommResult`.
//! * `no-relaxed-ordering` — any `Ordering::Relaxed`: relaxed atomics on
//!   flags that gate memory publication are unsound, so every relaxed use
//!   must be audited into the allowlist.
//! * `no-relaxed-rmw` — a `.load(Ordering::Relaxed)` followed shortly by a
//!   `.store(` on the same receiver: a non-atomic read-modify-write (a
//!   lost update when two threads interleave; the `detects_relaxed_rmw_pair`
//!   fixture below is the pattern); use `fetch_update`/`fetch_add` instead.
//! * `no-unsafe` — the `unsafe` keyword anywhere: the workspace is safe Rust
//!   except the audited block(s) listed in the allowlist and DESIGN.md.
//! * `no-adhoc-instant` — `Instant::now()` in `crates/core` outside
//!   `probe.rs`: algorithm phase timing must go through the `probe::span`
//!   layer (so it vanishes when probing is disabled and lands in the trace
//!   exporter), never through ad-hoc stopwatches scattered in algorithms.
//! * `no-adhoc-sleep` — `thread::sleep(` in `crates/core` or `crates/comm`
//!   outside `crates/comm/src/clock.rs`: waiting must go through
//!   `Communicator::sleep` (backed by the clock layer), so the deterministic
//!   simulator can replace it with virtual time. An ad-hoc real sleep is
//!   invisible to `SimComm` and reintroduces wall-clock flakiness.
//! * `no-sleep-poll` — a `.sleep(` call in non-test code under
//!   `crates/comm/src`, `crates/core/src` or `crates/bpra/src`: a wait loop
//!   that sleeps a quantum between probe sweeps prices every message at that
//!   quantum (it is how `ReliableComm`, the failure detector, the agreement
//!   flood and `SubComm` each came to poll). Waiting for traffic is
//!   `Communicator::wait_arrival` with the caller's own next deadline; the
//!   audited sleeps that are not polls — wrapper forwards, the retry
//!   back-off, `FaultComm`'s scripted stall — carry allowlist budgets.
//! * `no-adhoc-spawn` — thread spawning (`spawn(` / `spawn_scoped(`) in
//!   `crates/comm` outside `runtime.rs` and `mailbox.rs`: since the
//!   event-driven runtime landed, concurrency in the comm layer is a
//!   scheduling concern. New OS threads hide work from the worker-pool
//!   accounting (a spawned thread can block on a mailbox the event runtime
//!   thinks is quiescent), so every spawn site outside the runtime must be
//!   audited into the allowlist — currently the legacy rank-per-thread
//!   backends (`thread_comm.rs`, `sim.rs`) only.
//! * `no-hash-iteration` — the `HashMap` / `HashSet` types in `crates/core`
//!   or `crates/comm` non-test code: their iteration order is unspecified
//!   (and randomized across processes), which silently breaks the
//!   bit-reproducibility the deterministic simulator, the schedule fuzzer,
//!   and the DPOR model checker all stand on. Use `BTreeMap` / `BTreeSet`;
//!   ordered iteration is never the bottleneck at these sizes.
//! * `no-discarded-comm-error` — `let _ =` on a communication call (a
//!   `.send_buf(` / `.recv_buf(` / `.flush(` / `.quiesce(` / collective
//!   call, etc.) in `crates/core` or `crates/comm` non-test code: since the
//!   self-healing membership layer landed, a swallowed `CommError` can hide
//!   the exact failure evidence the detector/agreement cycle exists to act
//!   on. Every deliberate best-effort discard (`ReliableComm`'s `Drop` is the
//!   one today) must be audited into the allowlist; everything else handles
//!   or propagates.
//! * `no-adhoc-condvar` — the `Condvar` type in `crates/comm` outside
//!   `runtime.rs` and `mailbox.rs`: blocking/wakeup must go through the
//!   readiness abstraction (`MatchStore` + waiter lists / the `Mailbox`
//!   wrapper), not ad-hoc condition variables — a raw `Condvar` wait parks a
//!   whole OS thread, which is exactly what the event runtime exists to
//!   avoid, and it is invisible to the deadlock prover.
//! * `no-raw-collective-in-fixpoint` — `.allreduce_u64(` / `.alltoall_counts(`
//!   in a round loop: non-test code under `crates/bpra/src` and in
//!   `crates/core/src/nonuniform/engine.rs`. A fixpoint round is one control
//!   exchange plus one data exchange (DESIGN.md §14.5) — counts, `N` and the
//!   termination vote ride `exchange_tuples`' fused round, and a raw
//!   collective creeping back into a driver loop is three more blocking
//!   rounds per iteration (and, under faults, the asymmetric failure
//!   `recover.rs` exists to avoid); an unpadded Bruck step is one latency,
//!   and a sizing round beside the step loop is ⌈log₂ P⌉ more. The one-off
//!   totals after a loop and the padding rule's `global_n_max` carry
//!   allowlist budgets.
//!
//! Test code (`#[cfg(test)]` regions, tracked by brace depth) is exempt from
//! the unwrap/expect/relaxed rules; `unsafe` is flagged even in tests.
//!
//! [`Communicator`]: bruck_comm::Communicator

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// Rule id (e.g. `no-unwrap`).
    pub rule: &'static str,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{}: {}", self.rule, self.path, self.line, self.snippet)
    }
}

/// The outcome of a lint run after applying the allowlist.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings in `(rule, file)` groups that exceeded their budget. These
    /// fail the gate.
    pub violations: Vec<LintFinding>,
    /// Findings absorbed by allowlist budgets.
    pub suppressed: usize,
    /// Allowlist lines whose budget exceeds the findings in their file (or
    /// whose file is gone). These fail the gate: the slack is a licence for
    /// that many unaudited findings.
    pub stale: Vec<String>,
}

impl LintReport {
    /// Zero unallowlisted findings and zero stale allowlist lines?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// The workspace root, derived from this crate's manifest directory so the
/// binaries work from any working directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Run every rule over the workspace sources under `root` and apply the
/// allowlist at `crates/check/lint-allow.txt`.
pub fn run_lint(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    for entry in fs::read_dir(&crates_dir)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();

    let mut findings = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = fs::read_to_string(file)?;
        scan_file(&rel, &text, &mut findings);
    }

    let allow = load_allowlist(&root.join("crates").join("check").join("lint-allow.txt"));
    Ok(apply_allowlist(findings, allow))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Blank out string-literal contents and strip `//` comments, preserving
/// column positions of the surviving code. This is what makes the linter
/// robust to rule patterns appearing in messages, docs, and its own source.
fn sanitize(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i];
        if in_str {
            if c == b'\\' && i + 1 < bytes.len() {
                out.extend([b' ', b' ']);
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
                out.push(b'"');
            } else {
                out.push(b' ');
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                out.push(b'"');
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // comment
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes; a lifetime has no closing quote.
                if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    out.extend(std::iter::repeat(b' ').take(j.saturating_sub(i) + 1));
                    i = j + 1;
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    out.extend([b' ', b' ', b' ']);
                    i += 3;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn brace_delta(sanitized: &str) -> i64 {
    let mut d = 0;
    for b in sanitized.bytes() {
        match b {
            b'{' => d += 1,
            b'}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// The `X` in `X.load(...)`: the longest trailing receiver expression made of
/// identifier characters and dots (e.g. `self.state`).
fn receiver_before(sanitized: &str, call_pos: usize) -> &str {
    let head = &sanitized[..call_pos];
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
        .map_or(0, |i| i + 1);
    &head[start..]
}

fn scan_file(rel: &str, text: &str, out: &mut Vec<LintFinding>) {
    let in_comm = rel.starts_with("crates/comm/");
    // The probe module is the one sanctioned stopwatch site in bruck-core.
    let instant_banned =
        rel.starts_with("crates/core/") && rel != "crates/core/src/probe.rs";
    // The clock module is the one sanctioned real-sleep site: everything
    // else goes through `Communicator::sleep`, which the simulator overrides
    // with virtual time.
    let sleep_banned = (rel.starts_with("crates/core/") || rel.starts_with("crates/comm/"))
        && rel != "crates/comm/src/clock.rs";
    // Library code that waits for traffic parks on arrival; it does not
    // sleep a quantum and look again.
    let sleep_poll_banned = ["crates/comm/src/", "crates/core/src/", "crates/bpra/src/"]
        .iter()
        .any(|dir| rel.starts_with(dir));
    // The fixpoint drivers' control traffic rides the fused exchange, and the
    // engine's step loops size nothing with a collective.
    let raw_collective_banned = rel.starts_with("crates/bpra/src/")
        || rel == "crates/core/src/nonuniform/engine.rs";
    // The scheduler and the blocking-mailbox wrapper are the two sanctioned
    // concurrency-primitive sites in the comm layer; everywhere else must go
    // through the readiness abstraction.
    let concurrency_site =
        rel == "crates/comm/src/runtime.rs" || rel == "crates/comm/src/mailbox.rs";
    let spawn_banned = rel.starts_with("crates/comm/") && !concurrency_site;
    let condvar_banned = rel.starts_with("crates/comm/") && !concurrency_site;
    // Determinism-critical crates must not iterate hashed collections.
    let hash_banned = rel.starts_with("crates/core/") || rel.starts_with("crates/comm/");
    // Whole-file test modules (`#[cfg(test)] mod foo_tests;` in the crate
    // root) carry the cfg on the *declaration*, invisible from the file
    // itself; go by the naming convention.
    let test_file = rel.ends_with("_tests.rs") || rel.ends_with("/tests.rs");
    let lines: Vec<&str> = text.lines().collect();
    let sanitized: Vec<String> = lines.iter().map(|l| sanitize(l)).collect();

    // Track #[cfg(test)] { ... } regions by brace depth.
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut awaiting_test_item = false;

    for (idx, (raw, san)) in lines.iter().zip(&sanitized).enumerate() {
        let lineno = idx + 1;
        let trimmed = raw.trim();
        if trimmed.starts_with("//") {
            continue;
        }
        let mut test_code = in_test || test_file;
        if !in_test {
            if san.contains("#[cfg(test)]") {
                awaiting_test_item = true;
                test_code = true;
            }
            if awaiting_test_item && san.contains('{') {
                awaiting_test_item = false;
                in_test = true;
                test_depth = brace_delta(san);
                test_code = true;
                if test_depth <= 0 {
                    in_test = false;
                }
            }
        } else {
            test_depth += brace_delta(san);
            if test_depth <= 0 {
                in_test = false;
            }
        }

        let mut push = |rule: &'static str| {
            out.push(LintFinding {
                rule,
                path: rel.to_string(),
                line: lineno,
                snippet: trimmed.to_string(),
            });
        };

        // unsafe: everywhere, token-bounded so `unsafe_code` doesn't match.
        for (pos, _) in san.match_indices("unsafe") {
            let after = san[pos + "unsafe".len()..].chars().next();
            let before = san[..pos].chars().next_back();
            let boundary = |c: Option<char>| {
                c.is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
            };
            if boundary(after) && boundary(before) {
                push("no-unsafe");
            }
        }

        if !in_comm && san.to_ascii_lowercase().contains("mailbox") && !test_code {
            push("no-direct-mailbox");
        }

        if !test_code {
            if instant_banned {
                for _ in san.match_indices("Instant::now(") {
                    push("no-adhoc-instant");
                }
            }
            if sleep_banned {
                for _ in san.match_indices("thread::sleep(") {
                    push("no-adhoc-sleep");
                }
            }
            if sleep_poll_banned {
                for _ in san.match_indices(".sleep(") {
                    push("no-sleep-poll");
                }
            }
            if raw_collective_banned {
                for call in [".allreduce_u64(", ".alltoall_counts("] {
                    for _ in san.match_indices(call) {
                        push("no-raw-collective-in-fixpoint");
                    }
                }
            }
            if spawn_banned {
                for _ in san.match_indices("spawn(") {
                    push("no-adhoc-spawn");
                }
                for _ in san.match_indices("spawn_scoped(") {
                    push("no-adhoc-spawn");
                }
            }
            if condvar_banned {
                for _ in san.match_indices("Condvar") {
                    push("no-adhoc-condvar");
                }
            }
            if hash_banned {
                for _ in san.match_indices("HashMap") {
                    push("no-hash-iteration");
                }
                for _ in san.match_indices("HashSet") {
                    push("no-hash-iteration");
                }
            }
            if hash_banned && san.trim_start().starts_with("let _ =") {
                // Same core/comm scope as the determinism rules: a
                // discarded Result from a communication call swallows the
                // failure evidence the recovery stack runs on.
                const COMM_CALLS: [&str; 11] = [
                    ".send_buf(",
                    ".recv_match(",
                    ".recv_buf(",
                    ".recv_into(",
                    ".recv_buf_timeout(",
                    ".flush(",
                    ".quiesce(",
                    ".barrier(",
                    ".allreduce_u64(",
                    ".allgather_u64(",
                    ".alltoall_counts(",
                ];
                if COMM_CALLS.iter().any(|c| san.contains(c)) {
                    push("no-discarded-comm-error");
                }
            }
            for _ in san.match_indices(".unwrap()") {
                push("no-unwrap");
            }
            for _ in san.match_indices(".expect(") {
                push("no-expect");
            }
            for _ in san.match_indices("Ordering::Relaxed") {
                push("no-relaxed-ordering");
            }
            // Non-atomic RMW: `recv.load(Ordering::Relaxed)` with a
            // `recv.store(` within the next few lines.
            if let Some(pos) = san.find(".load(Ordering::Relaxed)") {
                let recv = receiver_before(san, pos).to_string();
                if !recv.is_empty() {
                    let store_pat = format!("{recv}.store(");
                    let window_end = (idx + 8).min(sanitized.len());
                    if sanitized[idx..window_end].iter().any(|l| l.contains(&store_pat)) {
                        push("no-relaxed-rmw");
                    }
                }
            }
        }
    }
}

fn load_allowlist(path: &Path) -> BTreeMap<(String, String), usize> {
    let mut allow = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else { return allow };
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(n) = count.parse::<usize>() {
                allow.insert((rule.to_string(), file.to_string()), n);
            }
        }
    }
    allow
}

fn apply_allowlist(
    findings: Vec<LintFinding>,
    allow: BTreeMap<(String, String), usize>,
) -> LintReport {
    let mut by_group: BTreeMap<(String, String), Vec<LintFinding>> = BTreeMap::new();
    for f in findings {
        by_group.entry((f.rule.to_string(), f.path.clone())).or_default().push(f);
    }
    let mut report = LintReport::default();
    for (key, group) in &by_group {
        if group.len() > allow.get(key).copied().unwrap_or(0) {
            report.violations.extend(group.iter().cloned());
        } else {
            report.suppressed += group.len();
        }
    }
    for (key, &budget) in &allow {
        let found = by_group.get(key).map_or(0, Vec::len);
        if found < budget {
            report.stale.push(format!(
                "stale allowlist entry: {} {} budgets {budget} but {found} found",
                key.0, key.1
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, text: &str) -> Vec<LintFinding> {
        let mut out = Vec::new();
        scan_file(rel, text, &mut out);
        out
    }

    #[test]
    fn detects_unwrap_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\nfn h() { z.unwrap(); }\n";
        let hits = scan_str("crates/core/src/a.rs", src);
        let unwraps: Vec<_> = hits.iter().filter(|f| f.rule == "no-unwrap").collect();
        assert_eq!(unwraps.len(), 2, "{hits:?}");
        assert_eq!(unwraps[0].line, 1);
        assert_eq!(unwraps[1].line, 6);
    }

    #[test]
    fn detects_relaxed_rmw_pair() {
        let src = "fn f(&self) {\n    let s = self.state.load(Ordering::Relaxed);\n    let s2 = mix(s);\n    self.state.store(s2, Ordering::Relaxed);\n}\n";
        let hits = scan_str("crates/comm/src/a.rs", src);
        assert!(hits.iter().any(|f| f.rule == "no-relaxed-rmw" && f.line == 2), "{hits:?}");
        // The two bare Relaxed uses are also individually flagged.
        assert_eq!(hits.iter().filter(|f| f.rule == "no-relaxed-ordering").count(), 2);
    }

    #[test]
    fn load_without_store_is_not_rmw() {
        let src = "fn f(&self) { let s = self.state.load(Ordering::Relaxed); use_it(s); }\n";
        let hits = scan_str("crates/comm/src/a.rs", src);
        assert!(!hits.iter().any(|f| f.rule == "no-relaxed-rmw"), "{hits:?}");
    }

    #[test]
    fn mailbox_flagged_outside_comm_only() {
        let src = "fn f(w: &World) { let m = &w.mailboxes[0]; }\n";
        assert!(scan_str("crates/core/src/a.rs", src).iter().any(|f| f.rule == "no-direct-mailbox"));
        assert!(scan_str("crates/comm/src/a.rs", src)
            .iter()
            .all(|f| f.rule != "no-direct-mailbox"));
    }

    #[test]
    fn strings_comments_and_attributes_do_not_match() {
        let src = "#![forbid(unsafe_code)]\nfn f() { log(\".unwrap() in a string\"); } // .unwrap() in a comment\n";
        let hits = scan_str("crates/core/src/a.rs", src);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unsafe_keyword_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn g() { let p = unsafe { danger() }; }\n}\n";
        let hits = scan_str("crates/core/src/a.rs", src);
        assert!(hits.iter().any(|f| f.rule == "no-unsafe" && f.line == 3), "{hits:?}");
    }

    #[test]
    fn adhoc_instant_flagged_in_core_outside_probe() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(scan_str("crates/core/src/uniform/basic.rs", src)
            .iter()
            .any(|f| f.rule == "no-adhoc-instant"));
        // The probe module is the sanctioned stopwatch site...
        assert!(scan_str("crates/core/src/probe.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-instant"));
        // ...and the rule only governs bruck-core.
        assert!(scan_str("crates/bench/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-instant"));
        // Test code inside core may still use raw stopwatches.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g() { let t = Instant::now(); }\n}\n";
        assert!(scan_str("crates/core/src/uniform/basic.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-adhoc-instant"));
    }

    #[test]
    fn adhoc_sleep_flagged_in_core_and_comm_outside_clock() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        assert!(scan_str("crates/core/src/nonuniform/spread_out.rs", src)
            .iter()
            .any(|f| f.rule == "no-adhoc-sleep"));
        assert!(scan_str("crates/comm/src/reliable.rs", src)
            .iter()
            .any(|f| f.rule == "no-adhoc-sleep"));
        // The clock module is the sanctioned real-sleep site...
        assert!(scan_str("crates/comm/src/clock.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-sleep"));
        // ...and the rule does not govern crates outside core/comm.
        assert!(scan_str("crates/bench/src/lib.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-sleep"));
        // Test code may still block a real thread (e.g. racing a mailbox).
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g() { std::thread::sleep(d); }\n}\n";
        assert!(scan_str("crates/comm/src/mailbox.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-adhoc-sleep"));
        // The bare `thread::sleep(` spelling is caught too.
        let bare = "use std::thread;\nfn f() { thread::sleep(d); }\n";
        assert!(scan_str("crates/comm/src/fault.rs", bare)
            .iter()
            .any(|f| f.rule == "no-adhoc-sleep"));
    }

    #[test]
    fn adhoc_spawn_flagged_in_comm_outside_runtime_and_mailbox() {
        let plain = "fn f() { std::thread::spawn(|| work()); }\n";
        let scoped = "fn f(s: &Scope) { b.spawn_scoped(s, || work()); }\n";
        for src in [plain, scoped] {
            assert!(scan_str("crates/comm/src/sim.rs", src)
                .iter()
                .any(|f| f.rule == "no-adhoc-spawn"));
            // The scheduler and the blocking wrapper are the sanctioned sites.
            assert!(scan_str("crates/comm/src/runtime.rs", src)
                .iter()
                .all(|f| f.rule != "no-adhoc-spawn"));
            assert!(scan_str("crates/comm/src/mailbox.rs", src)
                .iter()
                .all(|f| f.rule != "no-adhoc-spawn"));
            // The rule governs the comm layer only.
            assert!(scan_str("crates/bench/src/lib.rs", src)
                .iter()
                .all(|f| f.rule != "no-adhoc-spawn"));
        }
        // Test code may still spawn racing helper threads.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(scan_str("crates/comm/src/chaos.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-adhoc-spawn"));
    }

    #[test]
    fn adhoc_condvar_flagged_in_comm_outside_runtime_and_mailbox() {
        let src = "use std::sync::Condvar;\nstruct S { cv: Condvar }\n";
        let hits = scan_str("crates/comm/src/sim.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "no-adhoc-condvar").count(), 2, "{hits:?}");
        assert!(scan_str("crates/comm/src/runtime.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-condvar"));
        assert!(scan_str("crates/comm/src/mailbox.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-condvar"));
        assert!(scan_str("crates/check/src/lint.rs", src)
            .iter()
            .all(|f| f.rule != "no-adhoc-condvar"));
    }

    #[test]
    fn hash_collections_flagged_in_core_and_comm_outside_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = HashSet::new(); }\n";
        let hits = scan_str("crates/comm/src/reliable.rs", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "no-hash-iteration").count(), 3, "{hits:?}");
        assert!(scan_str("crates/core/src/radix.rs", src)
            .iter()
            .any(|f| f.rule == "no-hash-iteration"));
        // The rule governs the determinism-critical crates only.
        assert!(scan_str("crates/check/src/schedule.rs", src)
            .iter()
            .all(|f| f.rule != "no-hash-iteration"));
        // Test code may hash (e.g. counting distinct schedule weights).
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g() { let s = HashSet::new(); }\n}\n";
        assert!(scan_str("crates/core/src/radix.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-hash-iteration"));
    }

    #[test]
    fn discarded_comm_error_flagged_in_core_and_comm_outside_tests() {
        let src = "fn f(c: &C) {\n    let _ = c.send_buf(1, 7, buf);\n}\n";
        assert!(scan_str("crates/comm/src/fault.rs", src)
            .iter()
            .any(|f| f.rule == "no-discarded-comm-error"));
        assert!(scan_str("crates/core/src/nonuniform/resilient.rs", src)
            .iter()
            .any(|f| f.rule == "no-discarded-comm-error"));
        // Collectives and the ARQ drain are covered too.
        for drain in ["rc.quiesce(a, b)", "rc.flush()"] {
            let drain = format!("fn f(rc: &R) {{\n    let _ = {drain};\n}}\n");
            assert!(scan_str("crates/core/src/nonuniform/resilient.rs", &drain)
                .iter()
                .any(|f| f.rule == "no-discarded-comm-error"));
        }
        // Binding the result (even unused) is not a discard...
        let bound = "fn f(c: &C) {\n    let _sent = c.send_buf(1, 7, buf);\n}\n";
        assert!(scan_str("crates/comm/src/fault.rs", bound)
            .iter()
            .all(|f| f.rule != "no-discarded-comm-error"));
        // ...discarding a non-comm call is fine...
        let other = "fn f() {\n    let _ = vec.pop();\n}\n";
        assert!(scan_str("crates/comm/src/fault.rs", other)
            .iter()
            .all(|f| f.rule != "no-discarded-comm-error"));
        // ...the rule governs the core/comm crates only...
        assert!(scan_str("crates/check/src/chaos.rs", src)
            .iter()
            .all(|f| f.rule != "no-discarded-comm-error"));
        // ...and test code may drain best-effort.
        let test_src = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn g(c: &C) {\n",
            "        let _ = c.recv_buf(0, 1);\n",
            "    }\n",
            "}\n",
        );
        assert!(scan_str("crates/comm/src/fault.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-discarded-comm-error"));
    }

    #[test]
    fn sleep_poll_flagged_in_library_code_of_comm_core_and_bpra() {
        // The shape the rule exists for: sweep, find nothing, sleep a quantum.
        let src = [
            "fn wait(c: &C) {",
            "    loop {",
            "        if c.probe(0, 1).is_some() { return; }",
            "        c.sleep(QUANTUM);",
            "    }",
            "}",
        ]
        .join("\n");
        let src = src.as_str();
        for rel in [
            "crates/comm/src/reliable.rs",
            "crates/core/src/nonuniform/resilient.rs",
            "crates/bpra/src/exchange.rs",
        ] {
            let hits = scan_str(rel, src);
            assert!(
                hits.iter().any(|f| f.rule == "no-sleep-poll" && f.line == 4),
                "{rel}: {hits:?}"
            );
        }
        // Harnesses and benches may sleep; so may integration tests (not
        // under src/) and #[cfg(test)] regions.
        for rel in ["crates/check/src/chaos.rs", "crates/bench/src/lib.rs", "crates/comm/tests/a.rs"]
        {
            assert!(scan_str(rel, src).iter().all(|f| f.rule != "no-sleep-poll"), "{rel}");
        }
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g(c: &C) { c.sleep(NAP); }\n}\n";
        assert!(scan_str("crates/comm/src/sim.rs", test_src)
            .iter()
            .all(|f| f.rule != "no-sleep-poll"));
        // A real-thread sleep is the other rule's business, not this one's.
        let real = "fn f() { std::thread::sleep(d); }\n";
        assert!(scan_str("crates/comm/src/clock.rs", real)
            .iter()
            .all(|f| f.rule != "no-sleep-poll"));
    }

    #[test]
    fn raw_collective_flagged_in_bpra_library_code() {
        // The shape the rule exists for: a per-iteration termination vote.
        let src = [
            "fn drive(c: &C) {",
            "    loop {",
            "        let counts = c.alltoall_counts(&sendcounts)?;",
            "        if c.allreduce_u64(new, ReduceOp::Sum)? == 0 { break; }",
            "    }",
            "}",
        ]
        .join("\n");
        let hits = scan_str("crates/bpra/src/tc.rs", &src);
        let lines: Vec<usize> = hits
            .iter()
            .filter(|f| f.rule == "no-raw-collective-in-fixpoint")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [3, 4], "{hits:?}");
        // The rule governs the code that owns a round loop: not the other
        // layers below bpra, not its integration tests, not #[cfg(test)]
        // regions or test files.
        for rel in ["crates/core/src/collectives/allreduce.rs", "crates/bpra/tests/fused_rounds.rs"] {
            let hits = scan_str(rel, &src);
            assert!(hits.iter().all(|f| f.rule != "no-raw-collective-in-fixpoint"), "{rel}");
        }
        let test_src = "#[cfg(test)]\nmod tests {\n    fn g(c: &C) { c.allreduce_u64(1, op); }\n}\n";
        for rel in ["crates/bpra/src/kcfa.rs", "crates/bpra/src/exchange.rs"] {
            let hits = scan_str(rel, test_src);
            assert!(hits.iter().all(|f| f.rule != "no-raw-collective-in-fixpoint"), "{rel}");
        }
    }

    #[test]
    fn a_second_sizing_round_in_the_engine_fails_the_gate() {
        // The engine's one audited collective is the padding rule's
        // `global_n_max`; a sizing round back beside a step loop is a second
        // finding, over the committed budget of one.
        let engine = "crates/core/src/nonuniform/engine.rs";
        let call = "    let n = comm.allreduce_u64(local_max as u64, ReduceOp::Max)?;\n";
        // The committed budget for this (rule, file) alone: every other line
        // would be stale against a one-file scan.
        let allow = || {
            let mut allow = load_allowlist(&repo_root().join("crates/check/lint-allow.txt"));
            allow.retain(|(rule, file), _| rule == "no-raw-collective-in-fixpoint" && file == engine);
            allow
        };
        let raw = |src: &str| -> Vec<LintFinding> {
            let mut hits = scan_str(engine, src);
            hits.retain(|f| f.rule == "no-raw-collective-in-fixpoint");
            hits
        };
        assert!(apply_allowlist(raw(call), allow()).is_clean());
        let report = apply_allowlist(raw(&call.repeat(2)), allow());
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
    }

    #[test]
    fn allowlist_budget_suppresses_exact_count() {
        let f = |n: usize| LintFinding {
            rule: "no-expect",
            path: "crates/x/src/a.rs".into(),
            line: n,
            snippet: String::new(),
        };
        let mut allow = BTreeMap::new();
        allow.insert(("no-expect".to_string(), "crates/x/src/a.rs".to_string()), 2);
        let report = apply_allowlist(vec![f(1), f(2)], allow.clone());
        assert!(report.is_clean());
        assert_eq!(report.suppressed, 2);
        let report = apply_allowlist(vec![f(1), f(2), f(3)], allow.clone());
        assert!(!report.is_clean());
        assert_eq!(report.violations.len(), 3);
        // A budget above the findings licenses the difference unseen: stale
        // lines fail the gate, whether the file shrank or is gone.
        let report = apply_allowlist(vec![f(1)], allow.clone());
        assert!(!report.is_clean() && report.violations.is_empty());
        assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
        let report = apply_allowlist(Vec::new(), allow);
        assert!(!report.is_clean());
        assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    }

    #[test]
    fn workspace_lint_gate_is_clean() {
        // The same invocation `scripts/verify.sh` gates on: the tree plus the
        // audited allowlist must produce zero unallowlisted findings.
        let report = run_lint(&repo_root()).expect("lint walks the workspace");
        assert!(
            report.is_clean(),
            "unallowlisted lint findings:\n{}\n{}",
            report
                .violations
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
            report.stale.join("\n")
        );
    }
}
