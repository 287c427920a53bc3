"""Runtime race detection for parallel determinism hazards.

The static sanitizer (:mod:`repro.analysis.sanitizer`) can only see
hazards written in source. :class:`RaceDetector` watches an actual run
through the engine's nullable observer hooks and flags the two races
that matter once ``RunnerConfig.workers > 1`` turns in-process subtasks
into forked processes:

- **DET607 — keyed state aliased across subtasks.** A shadow access
  tracker records, per keyed operator, which subtask instance served
  each key (the ``(subtask, key, state-cell)`` ledger). A key arriving
  at two different subtasks means the operator's keyed state is split
  across instances — results then depend on scheduling, and the
  ROADMAP's sharded-kernel refactor would turn the split into a true
  cross-process race.
- **DET608 — RNG stream shared across subtasks.** At bind time the
  detector walks every subtask logic for reachable
  :class:`numpy.random.Generator` objects (contexts, attributes,
  chained members, closure cells). One generator *object* reachable
  from two subtasks — or two distinct generators in identical initial
  states — makes draw interleaving schedule-dependent.
- **DET609 — RNG draw ledger divergence.** At run end the detector
  fingerprints the terminal state of every per-subtask generator — the
  logic's and the engine's ``/arrivals`` and ``/noise`` streams
  (:func:`repro.common.rng.state_fingerprint` — a pure read, no
  draws). Two runs that made the same draws in the same order have
  equal ledgers; :func:`compare_ledgers` turns any difference between
  a serial and a parallel run into diagnostics.

**Zero perturbation.** Like :class:`~repro.obs.EngineObserver`, the
detector only reads: no RNG draws, no heap pushes, no engine-state
mutation. It can wrap an inner observer (sharing the inner's counter
arrays by reference so the engine's direct bumps land once) or stand
alone, in which case sampling stays disabled (``next_sample`` = inf)
and the engine skips every per-event hook but the ``DONE`` of a keyed
subtask (:attr:`RaceDetector.done_gids`) — the only one it reads.
"""

from __future__ import annotations

import math

from repro.analysis.diagnostics import AnalysisReport, Diagnostic
from repro.analysis.rules import RULE_CATALOG

__all__ = ["RaceDetector", "compare_ledgers", "stream_ledger"]

_INF = math.inf


def _diag(code: str, message: str, op_id: str | None = None) -> Diagnostic:
    spec = RULE_CATALOG[code]
    return Diagnostic(
        code=code,
        severity=spec.severity,
        message=message,
        op_id=op_id,
        hint=spec.rationale,
    )


def _reachable_generators(logic) -> list:
    """Generator objects reachable from one subtask's logic.

    Looks at the bound :class:`~repro.sps.operators.base.OperatorContext`,
    instance attributes, chained members (``logic.logics``) and one level
    of closure cells of callable attributes — the places application code
    realistically stashes a generator.
    """
    import numpy as np

    found: list = []
    seen: set[int] = set()

    def visit(obj) -> None:
        if obj is None or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.random.Generator):
            found.append(obj)
            return
        ctx = getattr(obj, "ctx", None)
        if ctx is not None:
            visit(getattr(ctx, "rng", None))
        for value in vars(obj).values() if hasattr(obj, "__dict__") else ():
            if isinstance(value, np.random.Generator):
                visit(value)
            elif callable(value):
                for cell in getattr(value, "__closure__", None) or ():
                    try:
                        contents = cell.cell_contents
                    except ValueError:  # pragma: no cover - empty cell
                        continue
                    if isinstance(contents, np.random.Generator):
                        visit(contents)
        for member in getattr(obj, "logics", None) or ():
            visit(member)

    visit(logic)
    return found


class RaceDetector:
    """Observer-protocol shim that records determinism hazards.

    Wraps an optional ``inner`` observer, delegating every hook and
    sharing the inner's per-gid counter arrays by reference (the engine
    bumps ``tuples_in``/``shuffle_bytes`` directly). Findings accumulate
    in :attr:`findings`; :attr:`rng_ledger` holds the terminal RNG state
    fingerprints after :meth:`on_run_end`.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self.findings: list[Diagnostic] = []
        self.rng_ledger: dict[str, str] = {}
        self.next_sample = _INF
        self.tuples_in: list[int] = []
        self.tuples_out: list[int] = []
        self.shuffle_bytes: list[float] = []
        self.stall_s: list[float] = []
        self._engine = None
        #: gid -> (op_id, key_field or None) for tracked keyed subtasks;
        #: one dict for the detector's life (the engine holds it too)
        self._keyed: dict[int, tuple[str, int | None]] = {}
        #: op_id -> {key: first-serving subtask index}
        self._owners: dict[str, dict] = {}
        #: (op_id, key) pairs already reported, to avoid flooding
        self._reported: set[tuple[str, str]] = set()

    @property
    def done_gids(self):
        """Whose ``DONE`` the engine must report: None for every subtask
        (an inner observer meters them all, and the serves and counters
        with them); standing alone, the live set of keyed subtasks —
        the engine then calls no other per-event hook."""
        return None if self.inner is not None else self._keyed

    # ---------------------------------------------------------- lifecycle

    def on_run_start(self, engine) -> None:
        """Bind to the engine, index keyed subtasks, scan RNG sharing."""
        from repro.analysis.rules import (
            _declared_key_field,
            _is_keyed_stateful,
        )

        inner = self.inner
        if inner is not None:
            inner.on_run_start(engine)
            # Share the inner's freshly allocated arrays so the engine's
            # direct bumps are counted exactly once.
            self.tuples_in = inner.tuples_in
            self.tuples_out = inner.tuples_out
            self.shuffle_bytes = inner.shuffle_bytes
            self.stall_s = inner.stall_s
            self.next_sample = inner.next_sample
        else:
            n = len(engine._runtimes)
            self.tuples_in = [0] * n
            self.tuples_out = [0] * n
            self.shuffle_bytes = [0.0] * n
            self.stall_s = [0.0] * n
            self.next_sample = _INF
        self._engine = engine
        self._keyed.clear()
        self._owners = {}
        self._reported = set()
        for runtime in engine._runtimes:
            op = engine.logical.operator(runtime.op_id)
            if op.parallelism > 1 and _is_keyed_stateful(op):
                self._keyed[runtime.gid] = (
                    op.op_id,
                    _declared_key_field(op),
                )
                self._owners.setdefault(op.op_id, {})
        self._scan_rng_sharing(engine)

    def _scan_rng_sharing(self, engine) -> None:
        """DET608: generators reachable from more than one subtask."""
        from repro.common.rng import state_fingerprint

        by_object: dict[int, list] = {}
        by_state: dict[str, list] = {}
        generators: dict[int, object] = {}
        for runtime in engine._runtimes:
            label = f"{runtime.op_id}[{runtime.index}]"
            for gen in _reachable_generators(runtime.logic):
                by_object.setdefault(id(gen), []).append(label)
                generators[id(gen)] = gen
        for key, labels in sorted(by_object.items(), key=lambda kv: kv[1]):
            distinct = sorted(set(labels))
            if len(distinct) > 1:
                self.findings.append(
                    _diag(
                        "DET608",
                        "one Generator object is reachable from "
                        f"subtasks {', '.join(distinct)}",
                        op_id=distinct[0].split("[")[0],
                    )
                )
            else:
                # Distinct objects in identical initial states draw
                # identical sequences — flag clones across subtasks.
                fp = state_fingerprint(generators[key])
                by_state.setdefault(fp, []).append(distinct[0])
        for labels in by_state.values():
            distinct = sorted(set(labels))
            if len(distinct) > 1:
                self.findings.append(
                    _diag(
                        "DET608",
                        "identically seeded Generator clones across "
                        f"subtasks {', '.join(distinct)}",
                        op_id=distinct[0].split("[")[0],
                    )
                )

    def on_run_end(self, now: float) -> None:
        """Delegate to the inner observer, then capture the RNG ledger."""
        if self.inner is not None:
            self.inner.on_run_end(now)
        self._capture_ledger()

    def _capture_ledger(self) -> None:
        """Fingerprint the terminal state of every named generator."""
        from repro.common.rng import state_fingerprint

        engine = self._engine
        if engine is None:
            return
        ledger = stream_ledger(engine._runtimes)
        rescale_rng = getattr(engine, "_rng_rescale", None)
        if rescale_rng is not None:
            ledger["engine/rescale"] = state_fingerprint(rescale_rng)
        ft_rng = getattr(engine, "_rng_ft", None)
        if ft_rng is not None:
            ledger["engine/ft"] = state_fingerprint(ft_rng)
        self.rng_ledger = ledger

    # ------------------------------------------------------------ sampling

    def sample(self, now: float) -> float:
        """Delegate sampling to the inner observer (inf when standalone)."""
        if self.inner is not None:
            self.next_sample = self.inner.sample(now)
            return self.next_sample
        return _INF

    # ---------------------------------------------------- hot-path hooks

    def on_serve(self, runtime, now, service, wait) -> None:
        """Delegate the serve hook; the detector itself reads nothing here."""
        if self.inner is not None:
            self.inner.on_serve(runtime, now, service, wait)

    def on_done(self, runtime, now, tup, outputs) -> None:
        """Track which subtask served each key (DET607) and delegate."""
        if self.inner is not None:
            self.inner.on_done(runtime, now, tup, outputs)
        else:
            self.tuples_out[runtime.gid] += len(outputs)
        info = self._keyed.get(runtime.gid)
        if info is None:
            return
        op_id, key_field = info
        key = tup.key
        if key is None and key_field is not None:
            values = tup.values
            if 0 <= key_field < len(values):
                key = values[key_field]
        if key is None:
            return
        owners = self._owners[op_id]
        first = owners.setdefault(key, runtime.index)
        if first != runtime.index:
            mark = (op_id, repr(key))
            if mark not in self._reported:
                self._reported.add(mark)
                self.findings.append(
                    _diag(
                        "DET607",
                        f"key {key!r} was served by subtask {first} "
                        f"and subtask {runtime.index}; keyed state for "
                        "it is split across instances",
                        op_id=op_id,
                    )
                )

    def on_window_fire(self, runtime, now, count) -> None:
        """Delegate window fires (or count outputs when standalone)."""
        if self.inner is not None:
            self.inner.on_window_fire(runtime, now, count)
        else:
            self.tuples_out[runtime.gid] += count

    def on_flush(self, runtime, now, count) -> None:
        """Delegate end-of-run flushes (or count outputs when standalone)."""
        if self.inner is not None:
            self.inner.on_flush(runtime, now, count)
        else:
            self.tuples_out[runtime.gid] += count

    def on_stall(self, runtime, now, duration) -> None:
        """Delegate stall accounting (or accumulate when standalone)."""
        if self.inner is not None:
            self.inner.on_stall(runtime, now, duration)
        else:
            self.stall_s[runtime.gid] += duration

    def on_backpressure(self, runtime, now, engaged) -> None:
        """Delegate backpressure transitions; nothing to record here."""
        if self.inner is not None:
            self.inner.on_backpressure(runtime, now, engaged)

    def on_rescale(
        self, engine, now, op_id, old_gids, new_gids, migrated_keys, pause_s
    ) -> None:
        """Re-home key ownership after a rescale and delegate.

        Migration legitimately moves keys between subtasks — the old
        ownership map would flag every migrated key as DET607. The swap
        re-buckets *all* keys by hash, so ownership restarts empty; any
        split observed *after* the swap is a real race again.
        """
        from repro.analysis.rules import (
            _declared_key_field,
            _is_keyed_stateful,
        )

        if self.inner is not None:
            # The inner observer grows the shared arrays in place, so
            # this detector's references stay coherent automatically.
            self.inner.on_rescale(
                engine, now, op_id, old_gids, new_gids, migrated_keys,
                pause_s,
            )
        else:
            grow = len(engine._runtimes) - len(self.tuples_in)
            if grow > 0:
                self.tuples_in.extend([0] * grow)
                self.tuples_out.extend([0] * grow)
                self.shuffle_bytes.extend([0.0] * grow)
                self.stall_s.extend([0.0] * grow)
        for gid in old_gids:
            self._keyed.pop(gid, None)
        op = engine.logical.operator(op_id)
        if len(new_gids) > 1 and _is_keyed_stateful(op):
            key_field = _declared_key_field(op)
            for gid in new_gids:
                self._keyed[gid] = (op_id, key_field)
            self._owners[op_id] = {}
        else:
            self._owners.pop(op_id, None)

    def on_checkpoint(self, engine, record) -> None:
        """Delegate checkpoint completion; nothing to record here."""
        if self.inner is not None:
            self.inner.on_checkpoint(engine, record)

    def on_recovery(self, engine, node_id, pause_s, replayed, ckpt_id) -> None:
        """Delegate recovery; key ownership survives (hash routing and
        subtask indices are unchanged by a restart)."""
        if self.inner is not None:
            self.inner.on_recovery(engine, node_id, pause_s, replayed, ckpt_id)

    # ------------------------------------------------------------- report

    @property
    def has_errors(self) -> bool:
        """Whether any ERROR-severity finding was recorded."""
        from repro.analysis.diagnostics import Severity

        return any(d.severity is Severity.ERROR for d in self.findings)

    def report(self, plan_name: str = "<run>") -> AnalysisReport:
        """The findings as a standard :class:`AnalysisReport`."""
        report = AnalysisReport(plan_name=plan_name)
        report.extend(self.findings)
        return report


def stream_ledger(runtimes) -> dict[str, str]:
    """Fingerprints of every named generator the given subtasks hold.

    ``op[i]`` is the logic's stream, ``op[i]/arrivals`` and
    ``op[i]/noise`` the engine's per-subtask streams (present once the
    subtask has drawn from them; blocks are drawn ahead, so the state
    is a block boundary, the same in every run that made the same
    draws). Rescale generations reuse ``(op, index)``, so their labels
    carry an ``@e<epoch>`` suffix; recovery incarnations (checkpoint
    restore or FT-off failure restart) an ``@r<n>`` suffix likewise.
    """
    from repro.common.rng import state_fingerprint

    ledger: dict[str, str] = {}
    for runtime in runtimes:
        label = f"{runtime.op_id}[{runtime.index}]"
        if runtime.epoch:
            label += f"@e{runtime.epoch}"
        if runtime.ft_incarnation:
            label += f"@r{runtime.ft_incarnation}"
        ctx = getattr(runtime.logic, "ctx", None)
        for suffix, rng in (
            ("", getattr(ctx, "rng", None)),
            ("/arrivals", runtime.gaps_rng),
            ("/noise", runtime.noise_rng),
        ):
            if rng is not None:
                ledger[label + suffix] = state_fingerprint(rng)
    return ledger


def compare_ledgers(
    serial: dict[str, str], parallel: dict[str, str]
) -> list[Diagnostic]:
    """DET609 diagnostics for every divergence between two RNG ledgers.

    Equal ledgers mean both runs made identical draws in identical order
    on every named stream; a differing fingerprint (or a stream present
    on only one side) pins the divergence to one operator subtask.
    """
    findings: list[Diagnostic] = []
    for name in sorted(set(serial) | set(parallel)):
        a = serial.get(name)
        b = parallel.get(name)
        if a == b:
            continue
        if a is None or b is None:
            side = "serial" if a is None else "parallel"
            message = f"stream {name!r} exists only in the {side} run"
        else:
            message = (
                f"stream {name!r} ended in different states "
                "(draw count or order diverged between runs)"
            )
        findings.append(
            _diag("DET609", message, op_id=name.split("[")[0])
        )
    return findings
