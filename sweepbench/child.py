"""One sweep in a fresh interpreter, driven the way `kilab run` drives it.

run.py starts this file with a JSON job as its only argument:

    {"t_spawn": <perf_counter just before the spawn>,
     "config": {...ExperimentConfig fields...}, "workers": 1,
     "csv": "<output CSV>", "mode": "plain" | "spans" | "memory",
     "spans_out": "<JSONL path, spans mode only>"}

and reads one JSON object from the last line of its standard output. All
timestamps are time.perf_counter() values; on Linux that is
CLOCK_MONOTONIC, shared by every process, so t_spawn from the parent and
the child's own stamps are on one clock.

Mode "plain" wraps only the harness's compute_spectrum name, to stamp the
end of set-up and the resident set size then, which is what each pool
worker starts with: run_sweep forks its workers right after the spectra are
computed. Modes "spans" and "memory" run the sweep serially with every
stage function wrapped: "spans" records timing spans, "memory" records the
tracemalloc peak of each estimator stage. Both count the n x n P_k(G)
matrices that ZonalBasis.iter_values yields and the n x n
SpherePoints.gram calls, per cell.
"""

import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import time
import tracemalloc

import kilab
from kilab import harness, seeding, zonal
from workloads import TRACED, traced_with

PEAK_STAGES = set(traced_with("peak"))


def replace_everywhere(original, replacement) -> int:
    """Rebind every kilab module attribute that is `original`."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kilab" or name.startswith("kilab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


class Tracer:
    """Spans, per-cell counts and stage peaks, kept in memory until the end."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans = []      # [name, start, end, parent index, cell id]
        self.stack = []
        self.cell = None     # "d:replicate" of the cell being run
        self.cell_n = 0
        self.counts = {}     # cell id -> {"pk": int, "gram": int}
        self.peaks = {}      # cell id -> {stage: bytes}
        self.cell_sizes = {}  # cell id -> n

    def span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "harness.run_cell":
                config, _, d, replicate = args[:4]
                tracer.begin_cell(f"{d}:{replicate}", config.n_for(d))
            peak_base = None
            if tracer.memory and name in PEAK_STAGES and tracer.cell:
                tracemalloc.reset_peak()
                peak_base = tracemalloc.get_traced_memory()[0]
            parent = tracer.stack[-1] if tracer.stack else None
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None, parent, tracer.cell]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
                if peak_base is not None:
                    peak = tracemalloc.get_traced_memory()[1] - peak_base
                    tracer.peaks[tracer.cell][name] = peak
                if name == "harness.run_cell":
                    tracer.cell = None

        return wrapper

    def begin_cell(self, cell, n):
        self.cell, self.cell_n = cell, n
        self.cell_sizes[cell] = n
        self.counts[cell] = {"pk": 0, "gram": 0}
        self.peaks[cell] = {}
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()

    def is_cell_square(self, array) -> bool:
        shape = getattr(array, "shape", ())
        return self.cell is not None and tuple(shape) == (self.cell_n, self.cell_n)

    def install(self):
        missing = []
        for name in TRACED:
            module, fname = name.split(".")
            original = getattr(importlib.import_module(f"kilab.{module}"), fname, None)
            if original is None or not replace_everywhere(
                    original, self.span(name, original)):
                missing.append(name)
        if missing:
            raise SystemExit(f"cannot trace missing functions: {missing}")

        tracer = self
        iter_values = zonal.ZonalBasis.iter_values
        gram = seeding.SpherePoints.gram

        def counted(values):
            for value in values:
                tracer.counts[tracer.cell]["pk"] += 1
                yield value

        @functools.wraps(iter_values)
        def iter_values_counted(basis, t):
            values = iter_values(basis, t)
            return counted(values) if tracer.is_cell_square(t) else values

        @functools.wraps(gram)
        def gram_counted(points, other=None):
            out = gram(points, other)
            if tracer.is_cell_square(out):
                tracer.counts[tracer.cell]["gram"] += 1
            return out

        zonal.ZonalBasis.iter_values = iter_values_counted
        seeding.SpherePoints.gram = gram_counted

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, cell in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "cell": cell}) + "\n")


def openblas_probe() -> list:
    """Threads and configuration of every OpenBLAS loaded into this process."""
    paths = []
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": path.rsplit("/", 1)[-1]}
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def rss_kb() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def main():
    job = json.loads(sys.argv[1])
    setup_ends = []
    setup_rss_kb = None
    compute_spectrum = harness.compute_spectrum

    def stamped_spectrum(*args, **kwargs):
        nonlocal setup_rss_kb
        out = compute_spectrum(*args, **kwargs)
        setup_ends.append(time.perf_counter())
        setup_rss_kb = rss_kb()
        return out

    tracer = None
    if job["mode"] == "plain":
        harness.compute_spectrum = stamped_spectrum
    else:
        tracer = Tracer(memory=job["mode"] == "memory")
        tracer.install()

    config = harness.ExperimentConfig.from_dict(job["config"])
    row_times = []

    def timed_rows(rows):
        for row in rows:
            row_times.append(time.perf_counter())
            yield row

    rows = harness.run_sweep(config, workers=job["workers"])
    harness.write_rows(timed_rows(rows), job["csv"])
    t_end = time.perf_counter()
    if tracemalloc.is_tracing():
        tracemalloc.stop()

    if tracer is not None:
        spectrum_ends = [s[2] for s in tracer.spans
                         if s[0] == "spectrum.compute_spectrum"]
        setup_ends.extend(spectrum_ends)
    if not setup_ends:
        raise SystemExit("run_sweep computed no spectrum: set-up end not seen")

    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "t_spawn": job["t_spawn"], "t_setup": max(setup_ends), "t_end": t_end,
        "row_times": row_times,
        "maxrss_self_kb": self_usage.ru_maxrss,
        "maxrss_children_kb": child_usage.ru_maxrss,
        "rss_setup_kb": setup_rss_kb,
        "versions": {"kilab": kilab.__version__,
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "python": sys.version.split()[0]},
        "openblas": openblas_probe(),
    }
    if tracer is not None:
        result["counts"] = tracer.counts
        result["peaks"] = tracer.peaks
        result["cell_sizes"] = tracer.cell_sizes
        if job["mode"] == "spans":
            tracer.write_spans(job["spans_out"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
