#!/usr/bin/env python3
"""Sample the program counter of a child process and report self time per symbol.

    python3 tools/pcsample.py [--after S] [--for S] [--every MS] [--top N] -- PROGRAM ARGS...

Runs PROGRAM under ptrace (it traces only the child it starts), waits
--after seconds, then for --for seconds stops the child every --every
milliseconds, reads its program counter and lets it go on. Each PC is
mapped through the executable's load base (from /proc/<pid>/maps) to the
enclosing `nm` symbol, and the symbols are printed by sample count.
A PC outside the executable is counted under the file mapped there.
The window is wall-clock, so pick --after to skip a program's setup;
the child is killed when it ends. Only the main thread is sampled.
Standard library only; x86-64 Linux.
"""
import argparse, bisect, collections, ctypes, os, signal, subprocess, time

PTRACE_TRACEME, PTRACE_CONT, PTRACE_GETREGS = 0, 7, 12
RIP = 16  # index of rip in x86-64 struct user_regs_struct (27 words)

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def symbols(exe):
    """Sorted (address, name) of the text symbols nm finds in exe. Of
    several at one address the first is kept; OCaml's per-unit
    code_begin/code_end markers are skipped."""
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True, check=True)
    syms = []
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tT" and not parts[2].endswith((".code_begin", ".code_end")):
            addr = int(parts[0], 16)
            if not syms or syms[-1][0] != addr:
                syms.append((addr, parts[2]))
    return syms


def mappings(pid):
    """(start, end, file offset, path) of every mapping of the process."""
    out = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            out.append((lo, hi, int(fields[2], 16), fields[5] if len(fields) >= 6 else "[anon]"))
    return out


def locate(pid, maps, pc):
    """The path mapped at pc, re-reading the maps once when it is new."""
    for attempt in (0, 1):
        for lo, hi, _, path in maps:
            if lo <= pc < hi:
                return path
        if attempt == 0:
            maps[:] = mappings(pid)
    return "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--after", type=float, default=0.0, help="seconds before sampling starts")
    ap.add_argument("--for", dest="span", type=float, default=10.0, help="seconds of sampling")
    ap.add_argument("--every", type=float, default=1.0, help="milliseconds between samples")
    ap.add_argument("--top", type=int, default=30, help="symbols to print")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    a = ap.parse_args()
    cmd = a.cmd[1:] if a.cmd[:1] == ["--"] else a.cmd
    if not cmd:
        ap.error("no program given")
    exe = subprocess.run(["sh", "-c", 'command -v "$0"', cmd[0]], capture_output=True, text=True).stdout.strip()
    syms = symbols(exe)
    addrs = [s[0] for s in syms]
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, preexec_fn=lambda: libc.ptrace(PTRACE_TRACEME, 0, None, None))
    pid = child.pid
    os.waitpid(pid, 0)  # stopped at exec
    real = os.path.realpath(exe)
    maps = mappings(pid)
    base = next((lo for lo, _, off, path in maps if path == real and off == 0), None)
    if base is None:
        raise SystemExit(f"pcsample: {real} not mapped in /proc/{pid}/maps")
    libc.ptrace(PTRACE_CONT, pid, None, None)
    regs = (ctypes.c_ulonglong * 27)()
    counts, total, alive = collections.Counter(), 0, True
    start = time.monotonic()
    time.sleep(a.after)
    while alive and time.monotonic() - start < a.after + a.span:
        time.sleep(a.every / 1000.0)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            break
        while True:  # wait for our stop, passing on any other signal
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                alive = False
                break
            sig = os.WSTOPSIG(status)
            if sig == signal.SIGSTOP:
                break
            libc.ptrace(PTRACE_CONT, pid, None, sig)
        if not alive:
            break
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0:
            path = locate(pid, maps, regs[RIP])
            if path == real:  # the PIE's nm addresses are offsets from its load base
                i = bisect.bisect_right(addrs, regs[RIP] - base) - 1
                counts[syms[i][1] if i >= 0 else "?"] += 1
            else:
                counts[f"[{os.path.basename(path)}]"] += 1
            total += 1
        libc.ptrace(PTRACE_CONT, pid, None, None)
    if alive:
        os.kill(pid, signal.SIGKILL)
    child.wait()
    print(f"{total} samples of {' '.join(cmd)}")
    for name, n in counts.most_common(a.top):
        print(f"{100.0 * n / max(total, 1):6.2f}%  {n:7d}  {name}")


if __name__ == "__main__":
    main()
