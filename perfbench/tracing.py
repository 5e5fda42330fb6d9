"""In-memory span tracer that instruments ramanmem from the outside.

Every public function a layer exposes is replaced at the attribute its caller
looks it up by (a module global or a class attribute).  A wrapper records one
span per call, or per ``next`` of an iterator the call returns, and bumps
counters from the call's arguments and result.  Spans carry a name, start,
end, parent and run id; they stay in memory until the run ends and are then
written out as JSON lines.  ``Tracer.remove`` puts every original back.

The program's own code is not touched, so a traced run must produce the same
output bytes as an untraced one.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else NO_PARENT
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def iterate(self, name: str, iterator, each=None):
        """Yield from `iterator`, one span per item; `each(counts, item)` counts it."""
        iterator = iter(iterator)
        while True:
            idx = self._begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                self._end(idx)
                if idx == len(self.spans) - 1:
                    del self.spans[idx]  # the exhausting call produced no item
                return
            except BaseException:
                self._end(idx)
                raise
            self._end(idx)
            if each is not None:
                each(self.counts, item)
            yield item

    def patch(self, owner, attr: str, name=None, after=None) -> None:
        """Replace owner.attr by a traced wrapper.

        `name` opens a span around the call (None for no span).  `after(tracer,
        args, result)` runs once the call returns and may return a replacement
        result, e.g. an iterator wrapped by :meth:`iterate`.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._begin(name) if name else None
            try:
                result = original(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer._end(idx)
            if after is not None:
                result = after(tracer, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> bool:
        """Restore every patched attribute; True when all originals are back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": i, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )


def read_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover.

    Spans nest strictly (one thread, stack discipline), so the children of a
    span never overlap and their durations simply add up.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] != NO_PARENT:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(out)


# ---------------------------------------------------------------------------
# what gets wrapped, layer by layer


def _count(key, amount=lambda args, result: 1):
    def after(tracer, args, result):
        tracer.counts[key] += amount(args, result)
        return result

    return after


def _pane_bytes(frame) -> int:
    """Bytes one frame occupies in a .rmns body: two float32 panes (computed)."""
    return 2 * 4 * frame.stokes.size


def _frames_counted(tracer, args, result):
    def each(counts, frame):
        counts["scattering.frames"] += 1

    return tracer.iterate("scattering.frame", result, each)


def _stack_frames_counted(tracer, args, result):
    def each(counts, frame):
        counts["stackio.bytes_read"] += _pane_bytes(frame)

    camera, count, seed, checksum, frames = result
    return camera, count, seed, checksum, tracer.iterate("stackio.read", frames, each)


def _fit_counted(tracer, args, fit):
    tracer.counts["analysis.fits"] += 1
    tracer.counts["analysis.fit_iterations"] += fit.n_iterations
    tracer.counts["analysis.fits_failed"] += 0 if fit.converged else 1
    return fit


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ramanmem layer the CLI reaches."""
    from ramanmem import analysis, cli, config, control, scattering, stackio

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(cli, "load_config", "config.load")

    # mode grid and Stokes basis: the fixed per-run set-up of the renderer
    p(scattering, "mode_set_from_config", "scattering.modeset")
    p(config, "mode_set_from_config", "scattering.modeset")
    p(scattering, "stokes_basis", "scattering.modeset")
    p(scattering, "anti_stokes_basis", "scattering.basis", _count("scattering.basis_builds"))
    p(scattering, "sample_shot", "scattering.sample")
    p(scattering, "iter_simulated_frames", None, _frames_counted)

    p(analysis, "accumulate", "analysis.ingest", _count("analysis.frame_refs"))
    p(analysis, "accumulate_many", "analysis.ingest",
      _count("analysis.frame_refs", lambda args, result: len(args[0])))
    p(analysis, "correlation_map", "analysis.map")
    p(analysis, "locate_twin_spot", "analysis.fit", _fit_counted)
    for attr in ("map_to_csv", "map_to_pgm", "fit_to_csv"):
        p(analysis, attr, "analysis.export")

    p(stackio.StackWriter, "append", "stackio.write",
      _count("stackio.bytes_written", lambda args, result: _pane_bytes(args[1])))
    p(stackio.StackWriter, "close", "stackio.write")
    p(stackio, "iter_stack", "stackio.read", _stack_frames_counted)

    p(control, "run_herald_protocol", "control.herald",
      _count("control.herald_shots", lambda args, result: result.shots))
    p(control, "compensating_readout", "control.steer_solve",
      _count("control.unreachable", lambda args, result: 0 if result.reachable else 1))
    p(control, "load_schedule", "control.schedule_load")
    # geometry is reached only through control, so it is wrapped there
    for attr in ("aod_chain_angle", "drive_frequency_for", "phase_match"):
        p(control, attr, "geometry.chain")
