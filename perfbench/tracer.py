"""Outside-in span tracer for the darboux2d benchmark.

The tracer replaces each public function at the name its caller binds
(``verify.check_eq12``, ``cli.build_preset``, ``BiPoly.__mul__`` ...) with a
wrapper that records one span per call: name, start, end and parent span.
Spans stay in memory (flat arrays, so millions of calls stay cheap) and are
written out by :meth:`Tracer.save` when the run ends.  Self time is a span's
duration minus the part its child spans cover.

Nothing here is imported by an untraced run, and :meth:`Tracer.uninstall`
puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

from darboux2d import cli, families, verify
from darboux2d.polyrat import BiPoly, RatFn

# (owner, attribute, span name): every binding a workload calls through.
# verify, cli and families import these functions by name, so the wrappers
# go on those modules' attributes; methods are wrapped on the class.
SITES = (
    (BiPoly, "__mul__", "polyrat.mul"),
    (BiPoly, "__rmul__", "polyrat.mul"),
    (BiPoly, "eval", "polyrat.eval"),
    (RatFn, "eval_float", "polyrat.eval_float"),
    (verify, "check_eq12", "verify.check_eq12"),
    (verify, "check_schrodinger", "verify.check_schrodinger"),
    (verify, "check_new_potential_system", "verify.check_new_potential_system"),
    (verify, "fd_residual", "verify.fd_residual"),
    (verify, "ratfn_is_zero", "verify.zero_test"),
    (verify, "transform_solution", "darboux.transform_solution"),
    (verify, "potential_from_B", "darboux.potential_from_B"),
    (verify, "build_family", "families.build"),
    (verify, "build_preset", "families.build"),
    (verify, "closed_potential", "families.build"),
    (cli, "build_family", "families.build"),
    (cli, "build_preset", "families.build"),
    (cli, "closed_potential", "families.build"),
    (families, "build_family", "families.build"),
    (verify, "harmonic_basis", "harmonic.harmonic_basis"),
    (families, "harmonic_basis", "harmonic.harmonic_basis"),
    (verify, "laplace_constrained_numerator", "harmonic.laplace_constrained_numerator"),
    (families, "laplace_constrained_numerator", "harmonic.laplace_constrained_numerator"),
)


class MulCounters:
    """Kernel counters at ``BiPoly.__mul__`` for polynomial operands."""

    def __init__(self):
        self.terms_in = 0
        self.terms_out = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.possible_terms = 0  # sum over products of (d+1)(d+2)/2

    def add(self, a: BiPoly, b: BiPoly, out: BiPoly) -> None:
        self.terms_in += len(a.terms) + len(b.terms)
        self.terms_out += len(out.terms)
        if not out.terms:
            return
        degree = max(i + j for i, j in out.terms)
        self.possible_terms += (degree + 1) * (degree + 2) // 2
        self.max_degree = max(self.max_degree, degree)
        bits = max(
            max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            for c in out.terms.values()
        )
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    @property
    def density(self) -> float:
        return self.terms_out / self.possible_terms if self.possible_terms else 0.0


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counter_s = 0.0  # counter work, charged to no span
        self.mul = MulCounters()
        self.zero_test_max_den_degree = 0
        self._stack: list[list] = []  # [span index, child time, start]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        start = time.perf_counter()
        frame = [len(self.span_start), 0.0, start]
        self.span_start.append(start)
        self.span_end.append(start)
        stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, end: float) -> None:
        self._stack.pop()
        idx, child, start = frame
        self.span_end[idx] = end
        duration = end - start
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _uncharged(self, since: float) -> None:
        """Hide counter work done since `since` from every span's self time."""
        spent = time.perf_counter() - since
        self.counter_s += spent
        if self._stack:
            self._stack[-1][1] += spent

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code around a call."""
        nid = self._id(name)
        frame = self._open(nid)
        try:
            yield
        finally:
            self._close(nid, frame, time.perf_counter())

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame, time.perf_counter())

        return traced

    def _wrap_mul(self, fn, name: str):
        nid = self._id(name)
        open_, close, mul = self._open, self._close, self.mul

        def traced_mul(a, b):
            if not isinstance(b, BiPoly):
                return fn(a, b)  # scalar scaling is not a kernel multiply
            frame = open_(nid)
            try:
                out = fn(a, b)
            finally:
                end = time.perf_counter()
                close(nid, frame, end)
            mul.add(a, b, out)
            self._uncharged(end)
            return out

        return traced_mul

    def _wrap_zero_test(self, fn, name: str):
        traced = self._wrap(fn, name)

        def traced_zero_test(f):
            since = time.perf_counter()
            degree = f.den.total_degree()
            if degree > self.zero_test_max_den_degree:
                self.zero_test_max_den_degree = degree
            self._uncharged(since)
            return traced(f)

        return traced_zero_test

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in SITES:
            original = vars(owner)[attr]
            if name == "polyrat.mul":
                wrapper = self._wrap_mul(original, name)
            elif name == "verify.zero_test":
                wrapper = self._wrap_zero_test(original, name)
            else:
                wrapper = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def call_count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
