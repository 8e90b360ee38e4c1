"""Run one alphax CLI command with per-layer timing wrappers installed.

Usage: python3 tracer.py STATS_JSON ALPHAX_ARGS...

Every reference to a traced function held by an alphax module (for
example alphax.enumeration.has_minor and alphax.spectral.power_iteration)
is replaced by a wrapper, so calls between layers pass through it.  Each
wrapper records its call count, self time (inclusive time minus the
time of traced calls made inside it), per-call latencies where
asked, and counters read from the return value.  Everything stays in
memory and is written once, as JSON, when the command returns.  The
command's exit code is passed through.
"""

from __future__ import annotations

import json
import sys
import time

import alphax
import alphax.canonical
import alphax.cli
import alphax.enumeration
import alphax.graph6
import alphax.minors
import alphax.spectral

MODULES = (alphax, alphax.canonical, alphax.cli, alphax.enumeration,
           alphax.graph6, alphax.minors, alphax.spectral)


class Span:
    def __init__(self, keep_latencies: bool):
        self.calls = 0
        self.self_time = 0.0
        self.latencies = [] if keep_latencies else None
        self.counters: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_time,
                "latencies_s": self.latencies, "counters": self.counters}


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.stack: list[list] = []  # [span name, time spent in traced children]

    def wrap(self, module, attr: str, name: str, keep_latencies=False, on_result=None):
        original = getattr(module, attr)
        span = self.spans.setdefault(name, Span(keep_latencies))
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span.latencies is not None:
                    span.latencies.append(dt)
            if on_result is not None:
                on_result(span, args, result)
            return result

        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None


def install(tracer: Tracer) -> None:
    generated_levels: set[int] = set()

    def on_level(span, args, result):
        n = args[0]
        if n not in generated_levels:  # the level cache returns later calls
            generated_levels.add(n)
            span.add("graphs", len(result))

    def on_canonical_data(span, args, result):
        if tracer.parent() == "enumeration.generate":
            tracer.spans["enumeration.generate"].add("children", 1)

    def on_minor(span, args, verdict):
        span.add("nodes", verdict.nodes_explored)
        span.add("contains", int(verdict.contains))

    def on_alpha_index(span, args, result):
        span.peak("max_residual", result.residual)

    def on_power(span, args, result):
        span.add("iters", result[2])

    def on_jacobi(span, args, result):
        span.add("sweeps", result[2])

    e, c, g, m, s = (alphax.enumeration, alphax.canonical, alphax.graph6,
                     alphax.minors, alphax.spectral)
    tracer.wrap(e, "_generate_level", "enumeration.generate", on_result=on_level)
    tracer.wrap(e, "is_minor_free", "enumeration.is_minor_free")
    tracer.wrap(e, "search_extremal", "enumeration.search_extremal")
    tracer.wrap(e, "merge_reports", "enumeration.merge_reports")
    tracer.wrap(e, "stream_from_graph6_file", "enumeration.stream_from_graph6_file")
    tracer.wrap(c, "canonical_data", "canonical.canonical_data", True, on_canonical_data)
    tracer.wrap(c, "canonical_form", "canonical.canonical_form")
    tracer.wrap(m, "has_minor", "minors.has_minor", True, on_minor)
    tracer.wrap(s, "alpha_index", "spectral.alpha_index", True, on_alpha_index)
    tracer.wrap(s, "power_iteration", "spectral.power_iteration", on_result=on_power)
    tracer.wrap(s, "jacobi_eigh", "spectral.jacobi_eigh", on_result=on_jacobi)
    tracer.wrap(g, "parse_graph6", "graph6.parse_graph6")
    tracer.wrap(g, "write_graph6", "graph6.write_graph6")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return alphax.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": {k: v.to_json() for k, v in tracer.spans.items()}}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
