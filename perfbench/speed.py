"""Host speed, measured alongside the timed calls, to put them on one scale.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.7x for seconds to minutes at a time.  A run of 30 s can fall mostly in
a fast or mostly in a slow period, so raw wall times of the same code differ
from run to run by more than any useful regression bound.

A calibration slice is a fixed piece of work that does not touch majorfix.
It has one part for each kind of work the workloads spend their time on:

    python       interpreted float and dict work (radius finders, bookkeeping)
    stdlib       JSON, argparse and formatting work (the cli layer)
    elementwise  numpy elementwise work on a small table (modulus sampling)
    matvec       matrix-vector products (the Nystrom apply)
    kernel       small files written and removed, fresh pages touched

The host's speed does not change every kind of work alike (interpreted code
slows most, memory-bound matrix-vector work least), so each workload's slice
has only the parts that match its own work (workloads.SPEED_PARTS); a
slice of all parts over-corrects the Nystrom solves.  The loop times a slice
every CHECK_EVERY seconds of timed call time.  Each call's wall time is
then scaled by the slice's nominal time (the sum of its parts' PART_REF_S)
over the median of the SPAN slices around the call: the result is the time the call would have
taken on a host where a slice takes its nominal time.  A change to majorfix
moves the scaled times as much as the raw ones; only the host's speed drops
out.  The raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import statistics
import time
from pathlib import Path

import numpy as np

# Seconds of timed call time between two slices.
CHECK_EVERY = 0.1
# Slices around a call whose median gives its local slice time: SPAN // 2
# before it and SPAN // 2 after it.
SPAN = 4
# Nominal seconds of each part: about the median on the development host, a
# 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4 on one OpenBLAS thread.
PART_REF_S = {"python": 0.0022, "stdlib": 0.0036, "elementwise": 0.0017,
              "matvec": 0.0024, "kernel": 0.0015}


class Speedometer:
    """Times calibration slices between the calls of the closed loop."""

    def __init__(self, work: Path, parts):
        self.parts = [getattr(self, "_" + name) for name in parts]
        self.ref_s = math.fsum(PART_REF_S[name] for name in parts)
        self.path = str(work / "speed-slice.tmp")
        self.blob = bytes(range(256)) * 16
        self.parser = argparse.ArgumentParser()
        for option in ("--config", "--out", "--bound-tol", "--max-steps"):
            self.parser.add_argument(option)
        self.argv = ["--config", "c.json", "--out", "o.json",
                     "--bound-tol", "1e-10", "--max-steps", "1000"]
        self.document = {
            "radii": {f"r{i}": 0.37 * i for i in range(8)},
            "steps": [{"k": i, "bound": 1.1e-3 * i, "norm": i / 7.0, "ok": True}
                      for i in range(80)]}
        # numpy parts write into buffers made once, so that the allocator's
        # state, which the calls between slices change, does not change them
        rng = np.random.default_rng(20110118)
        self.arrays: list = []
        if "elementwise" in parts:
            self.table = rng.uniform(0.0, 1.0, (301, 301))
            self.scratch = (np.empty_like(self.table), np.empty_like(self.table))
            self.arrays += [self.table, *self.scratch]
        if "matvec" in parts:
            self.matrix = rng.standard_normal((1001, 1001))
            self.vector = rng.standard_normal(1001)
            self.product = np.empty(1001)
            self.arrays += [self.matrix, self.vector, self.product]
        for _ in range(3):  # warm caches and lazy numpy set-up
            self.slice()
        self.slices: list[float] = []
        self.since = 0.0
        self.check()

    def _python(self) -> None:
        s, seen = 0.0, {}
        for i in range(12000):
            s = s * 0.999 + math.sqrt(i + 1.0)
            seen[i % 97] = s

    def _stdlib(self) -> None:
        doc = self.document
        for _ in range(4):
            json.loads(json.dumps(doc, indent=2))
            self.parser.parse_args(self.argv)
            sorted(doc["steps"], key=lambda row: -row["norm"])
            ",".join(f"{v:.6g}" for v in doc["radii"].values())

    def _elementwise(self) -> None:
        t, (a, b) = self.table, self.scratch
        for _ in range(4):
            np.multiply(t, 0.3, out=a)
            np.exp(a, out=a)
            np.multiply(a, t, out=a)
            np.multiply(t, t, out=b)
            np.add(a, b, out=a)
            float(a.sum())

    def _matvec(self) -> None:
        y = self.product
        for _ in range(5):
            np.dot(self.matrix, self.vector, out=y)
            np.abs(y, out=y)
            float(y.max())

    def _kernel(self) -> None:
        for _ in range(6):
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.write(fd, self.blob)
            os.close(fd)
            os.unlink(self.path)
        # 1 MiB stays below the huge-page size, so every page faults alone
        with mmap.mmap(-1, 1 << 20) as pages:
            np.frombuffer(pages, dtype=np.uint8)[::mmap.PAGESIZE] = 1

    def slice(self) -> float:
        """Seconds one slice takes."""
        t0 = time.perf_counter_ns()
        for part in self.parts:
            part()
        return (time.perf_counter_ns() - t0) / 1e9

    def check(self) -> None:
        self.slices.append(self.slice())
        self.since = 0.0

    def mark(self, seconds: float) -> int:
        """Records a call of `seconds` that ran after the latest slice;
        returns that slice's index and times a new slice when due."""
        index = len(self.slices) - 1
        self.since += seconds
        if self.since >= CHECK_EVERY:
            self.check()
        return index

    def finish(self) -> None:
        """Closes the record with a slice after the last call."""
        if self.since > 0.0:
            self.check()

    def factor(self, index: int) -> float:
        """Scale for a call that ran between slices index and index + 1."""
        lo = max(index - SPAN // 2 + 1, 0)
        window = self.slices[lo:index + SPAN // 2 + 1]
        return self.ref_s / statistics.median(window)

    @property
    def resident_bytes(self) -> int:
        """Bytes of the arrays a Speedometer keeps for its whole life."""
        return sum(a.nbytes for a in self.arrays)

    def median_slice_s(self) -> float:
        return statistics.median(self.slices)
