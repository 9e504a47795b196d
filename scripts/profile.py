#!/usr/bin/env python3
"""Sampling profile of one command: which functions its CPU time goes to.

    scripts/profile.py [--top K] -- COMMAND [ARG...]

Runs COMMAND as a child pinned to one CPU and samples it on the task clock
(every 250 microseconds of the child's own CPU time) through
`perf_event_open`. Only the child and the threads and processes it starts
are sampled (`inherit`), only in user space, and only from the `exec`
onwards. When the command exits, prints the share of samples per symbol:

* **self** — the sampled instruction is in the symbol;
* **incl** — the symbol is anywhere on the sampled call chain (counted once
  per sample).

Standard library only: `ctypes` for the system call, `mmap` for the sample
ring, `nm` and `readelf` (binutils) for symbols. Nothing is written under
/proc or /sys and no system setting is read or changed beyond what the
kernel checks on `perf_event_open` (`kernel.perf_event_paranoid` ≤ 2 allows a
user-space profile of one's own child).

Notes on reading the output:

* An event that is inherited by child threads can only be given a sample
  ring on one CPU (the kernel refuses cpu = -1 for it), so the child is pinned
  to the last CPU this process may use, like `benchmark/run.sh` pins the
  benchmark, and the event counts there.
* Shares are of user-space samples: kernel time (system calls, context
  switches) is not sampled, and every thread's last partial period is
  dropped, so a thread that runs for less than one period is not seen (on
  the `thread-stack` workload the samples cover ≈ 93 % of user time).
* Symbols come from `nm -S` (the full table, or the dynamic one for a
  stripped library such as libc): a frame resolves to the nearest symbol
  below it. A frame past that symbol's end (its `nm` size) is in code the
  table does not name, such as libc's internal `_int_malloc` or its
  multiarch `memcpy` / `memset` variants, and prints as
  `[libc.so.6 past <name>]`, never as `<name>` itself. Monomorphised copies
  of one generic are summed under their shared demangled name; inlined
  functions count as their caller.
* The call chain is walked by the kernel through frame pointers. Rust's
  release builds omit them, so **inclusive shares need a frame-pointer
  build** in its own target directory, e.g.

      RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/fp \\
          cargo build --release --manifest-path benchmark/Cargo.toml

  Self shares need no frame pointers.

Example, the benchmark's wrapper-stack workload with `run.sh`'s allocator
settings:

    GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432:glibc.malloc.top_pad=67108864 \\
        scripts/profile.py -- benchmark/target/release/bruck-benchmark thread-stack --seconds 20
"""

import argparse
import bisect
import ctypes
import errno
import mmap
import os
import platform
import struct
import subprocess
import sys
import time
from collections import Counter, defaultdict

SYSCALL = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_SAMPLE_CALLCHAIN = 1 << 5
# perf_event_attr flag bits (the bitfield word at offset 40).
FLAGS = {
    "disabled": 0, "inherit": 1, "exclude_kernel": 5, "exclude_hv": 6, "mmap": 8,
    "comm": 9, "enable_on_exec": 12, "task": 13, "exclude_callchain_kernel": 21,
    "comm_exec": 24,
}
ATTR_SIZE = 128  # PERF_ATTR_SIZE_VER7
RECORD_MMAP, RECORD_LOST, RECORD_COMM, RECORD_FORK, RECORD_SAMPLE = 1, 2, 3, 7, 9
MISC_COMM_EXEC = 1 << 13
CONTEXT_MAX = (1 << 64) - 4095  # call-chain entries at or above are context markers
RING_PAGES = 512  # data pages of the sample ring (2 MiB with 4 KiB pages)
PERIOD_US = 250  # CPU time between samples


def perf_event_open(pid, cpu, period_ns):
    attr = bytearray(ATTR_SIZE)
    flags = sum(1 << bit for bit in FLAGS.values())
    sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN
    struct.pack_into("<IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_TASK_CLOCK, period_ns, sample_type, 0, flags)
    libc = ctypes.CDLL(None, use_errno=True)
    libc.syscall.restype = ctypes.c_long
    buf = (ctypes.c_char * ATTR_SIZE).from_buffer(attr)
    fd = libc.syscall(SYSCALL[platform.machine()], buf, pid, cpu, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open: {os.strerror(err)} ({errno.errorcode.get(err, err)})")
    return fd


class Ring:
    """The kernel's sample ring: one control page, then the data pages."""

    def __init__(self, fd):
        self.page = mmap.PAGESIZE
        self.size = RING_PAGES * self.page
        self.map = mmap.mmap(fd, self.page + self.size, mmap.MAP_SHARED,
                             mmap.PROT_READ | mmap.PROT_WRITE)

    def drain(self):
        """Return `(type, misc, body)` for every record written since the last
        drain, and hand their space back to the kernel."""
        head = struct.unpack_from("<Q", self.map, 1024)[0]  # data_head
        tail = struct.unpack_from("<Q", self.map, 1032)[0]  # data_tail
        start, n = self.page + tail % self.size, head - tail
        chunk = self.map[start:min(start + n, self.page + self.size)]
        chunk += self.map[self.page:self.page + n - len(chunk)]
        records, at = [], 0
        while at < n:
            kind, misc, size = struct.unpack_from("<IHH", chunk, at)
            records.append((kind, misc, chunk[at + 8:at + size]))
            at += size
        struct.pack_into("<Q", self.map, 1032, head)
        return records


class Profile:
    def __init__(self):
        self.maps = defaultdict(list)  # pid -> [(start, end, pgoff, path)], newest last
        self.samples = 0
        self.lost = 0
        self.chains = Counter()  # tuple of (path, file offset), leaf first -> samples

    def locate(self, pid, ip):
        for start, end, pgoff, path in reversed(self.maps[pid]):
            if start <= ip < end:
                return path, ip - start + pgoff
        return "[unknown]", ip

    def record(self, kind, misc, body):
        if kind == RECORD_SAMPLE:
            ip, pid, _tid, nr = struct.unpack_from("<QIIQ", body, 0)
            frames = struct.unpack_from(f"<{nr}Q", body, 24)
            chain = [f for f in frames if f < CONTEXT_MAX] or [ip]
            # A return address points after its call: look up the call itself.
            located = [self.locate(pid, f if i == 0 else f - 1) for i, f in enumerate(chain)]
            self.samples += 1
            self.chains[tuple(located)] += 1
        elif kind == RECORD_MMAP:
            pid, _tid, addr, length, pgoff = struct.unpack_from("<IIQQQ", body, 0)
            path = body[32:].split(b"\0", 1)[0].decode(errors="replace")
            self.maps[pid].append((addr, addr + length, pgoff, path))
        elif kind == RECORD_COMM and misc & MISC_COMM_EXEC:
            pid = struct.unpack_from("<I", body, 0)[0]
            self.maps[pid] = []
        elif kind == RECORD_FORK:
            pid, ppid = struct.unpack_from("<II", body, 0)
            if pid != ppid:
                self.maps[pid] = list(self.maps[ppid])
        elif kind == RECORD_LOST:
            self.lost += struct.unpack_from("<QQ", body, 0)[1]


class Symbols:
    """File offset -> symbol name, per file, through `readelf -lW` and `nm -S`."""

    def __init__(self):
        self.files = {}

    def load(self, path):
        if path in self.files:
            return self.files[path]
        loads, table = [], []
        if path.startswith("/") and os.path.exists(path):
            headers = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
            for line in headers.splitlines():
                cols = line.split()
                if cols[:1] == ["LOAD"]:
                    loads.append((int(cols[1], 16), int(cols[2], 16), int(cols[4], 16)))
            for dynamic in ([], ["-D"]):
                out = subprocess.run(["nm", "-n", "-S", "-C", "--defined-only", *dynamic, path],
                                     capture_output=True, text=True).stdout
                for line in out.splitlines():
                    # `addr size type name`, or `addr type name` for a symbol
                    # without a size (0: its end is unknown).
                    cols = line.split(" ", 3)
                    if len(cols) >= 3 and len(cols[1]) == 1:
                        cols = [cols[0], "0", *line.split(" ", 2)[1:]]
                    if len(cols) == 4 and cols[2] in "tTwWiI":
                        table.append((int(cols[0], 16), int(cols[1], 16), cols[3].split("@")[0]))
                if table:
                    break
        # Of several names at one address, the one with the largest size wins.
        table.sort()
        self.files[path] = (loads, [a for a, _, _ in table], table)
        return self.files[path]

    def name(self, path, offset):
        loads, addrs, table = self.load(path)
        vaddr = offset
        for p_offset, p_vaddr, p_filesz in loads:
            if p_offset <= offset < p_offset + p_filesz:
                vaddr = offset - p_offset + p_vaddr
                break
        at = bisect.bisect_right(addrs, vaddr) - 1
        if at < 0:
            return path if path.startswith("[") else f"[{os.path.basename(path)}]"
        addr, size, name = table[at]
        if 0 < size <= vaddr - addr:
            return f"[{os.path.basename(path)} past {name}]"
        return name


def run(command, cpu):
    """Run `command` pinned to `cpu` under the sampler; return (profile, exit status)."""
    go_r, go_w = os.pipe()
    child = os.fork()
    if child == 0:
        os.close(go_w)
        os.sched_setaffinity(0, {cpu})
        os.read(go_r, 1)  # wait until the event is armed for our exec
        try:
            os.execvp(command[0], command)
        except OSError as err:
            print(f"profile.py: cannot run {command[0]}: {err.strerror}", file=sys.stderr)
        os._exit(127)
    os.close(go_r)
    try:
        fd = perf_event_open(child, cpu, PERIOD_US * 1000)
    except OSError:
        os.kill(child, 9)
        os.waitpid(child, 0)
        raise
    ring = Ring(fd)
    rest = os.sched_getaffinity(0) - {cpu}
    if rest:
        os.sched_setaffinity(0, rest)  # keep the sampler off the measured CPU
    os.write(go_w, b"x")
    os.close(go_w)
    profile = Profile()
    while True:
        for record in ring.drain():
            profile.record(*record)
        done, status = os.waitpid(child, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    for record in ring.drain():
        profile.record(*record)
    os.close(fd)
    return profile, os.waitstatus_to_exitcode(status)


def report(profile, top):
    symbols = Symbols()
    names = {}

    def name(frame):
        if frame not in names:
            names[frame] = symbols.name(*frame)
        return names[frame]

    total = max(profile.samples, 1)
    own, incl = Counter(), Counter()
    deepest = 0
    for chain, n in profile.chains.items():
        seen = {name(f) for f in chain}
        own[name(chain[0])] += n
        for s in seen:
            incl[s] += n
        deepest = max(deepest, len(chain))
    print("  self %   incl %  symbol (by self)")
    for sym, n in own.most_common(top):
        print(f"  {100 * n / total:6.2f}   {100 * incl[sym] / total:6.2f}  {sym}")
    if deepest > 1:
        print("  self %   incl %  symbol (by incl)")
        for sym, n in incl.most_common(top):
            print(f"  {100 * own[sym] / total:6.2f}   {100 * n / total:6.2f}  {sym}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- COMMAND [ARG...]")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    if platform.machine() not in SYSCALL:
        sys.exit(f"profile.py: no perf_event_open number known for {platform.machine()}")
    cpu = max(os.sched_getaffinity(0))
    started = time.monotonic()
    try:
        profile, status = run(command, cpu)
    except OSError as err:
        sys.exit(f"profile.py: {err.strerror}; a user-space profile of one's own child "
                 "needs kernel.perf_event_paranoid <= 2")
    wall = time.monotonic() - started
    print(f"profile.py: {profile.samples} samples (task clock, every {PERIOD_US} us of CPU time "
          f"on CPU {cpu}), {profile.lost} lost, {wall:.1f} s wall, command exit status {status}")
    report(profile, args.top)
    sys.exit(status)


if __name__ == "__main__":
    main()
