"""One fixed process layout for the benchmark and every process it starts.

The speed of this package's interpreter-bound code depends on where the
kernel puts the process stack. With address-space randomization on, about
one fresh process in three ran a one-row ``predict`` about half again
slower than the rest (30 us against 19 us on a two-core x86 machine). With
randomization off, the speed changed with the size of the environment. So
the benchmark turns randomization off for itself and its children (the
``ADDR_NO_RANDOMIZE`` personality flag, which acts on this process tree
only). It also pads argv plus the environment to a fixed size and entry
count, so that the initial stack is the same for every run, seed and
checkout path. Hash randomization is fixed for the same reason.

A change to the package can still move its own heap layout. A step change
in one-row timings with no change on that path may be such a shift, not a
regression.
"""

from __future__ import annotations

import ctypes
import os
import sys

ADDR_NO_RANDOMIZE = 0x0040000
QUERY = 0xFFFFFFFF
MARK = "PERFBENCH_LAYOUT"
ARG_BYTES = 8192  # argv and environment strings, with their terminators
ARG_ENTRIES = 64  # argv and environment entries
KEEP = ("PATH", "HOME", "LANG", "LC_ALL", "LD_LIBRARY_PATH", "TMPDIR")
FIXED = {
    # One BLAS thread: the matrices are small, so a second thread gains
    # nothing, and on a shared two-core machine it made training up to ten
    # times slower whenever another process held the other core.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _personality(persona: int) -> int:
    return ctypes.CDLL(None, use_errno=True).personality(ctypes.c_ulong(persona))


def aslr_off() -> bool:
    persona = _personality(QUERY)
    return persona != -1 and bool(persona & ADDR_NO_RANDOMIZE)


def environment(extra: dict[str, str]) -> dict[str, str]:
    """The variables every benchmark process runs with, before padding."""
    return {k: os.environ[k] for k in KEEP if k in os.environ} | FIXED | extra


def padded(argv: list[str], env: dict[str, str]) -> dict[str, str]:
    """``env`` plus padding that makes argv and env a fixed size and count."""
    env = dict(env)
    names = [f"PERFBENCH_PAD{i:02d}" for i in range(ARG_ENTRIES - len(argv) - len(env))]
    used = sum(len(os.fsencode(a)) + 1 for a in argv)
    used += sum(len(os.fsencode(k)) + len(os.fsencode(v)) + 2 for k, v in env.items())
    used += sum(len(n) + 2 for n in names)
    if not names or used > ARG_BYTES:
        raise ValueError(f"argv and environment too large to pad ({used} bytes)")
    for name in names:
        env[name] = ""
    env[names[-1]] = "x" * (ARG_BYTES - used)
    return env


def reexec_with_fixed_layout() -> None:
    """Re-run this interpreter and script once with the fixed layout.

    Does nothing when already done, or when the personality call is refused
    (then randomization stays on, and the run metadata says so).
    """
    if os.environ.get(MARK) == "1":
        return
    persona = _personality(QUERY)
    if persona == -1 or _personality(persona | ADDR_NO_RANDOMIZE) == -1:
        os.environ.update(FIXED | {MARK: "1"})
        return
    argv = [sys.executable, *sys.argv]
    sys.stdout.flush()
    os.execve(sys.executable, argv, padded(argv, environment({MARK: "1"})))
