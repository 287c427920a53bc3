"""Runtime race detection for parallel determinism hazards.

The static sanitizer (:mod:`repro.analysis.sanitizer`) can only see
hazards written in source. :class:`RaceDetector` reads an actual run
beside the engine's observer and flags the two races that matter once
``RunnerConfig.workers > 1`` turns in-process subtasks into forked
processes:

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
mutation. The engine holds it beside the observer, not around it, and
calls it at four points: the run's start and end, a rescale, and the
completion of a tuple at a subtask in :attr:`RaceDetector.keyed` —
its only per-tuple read.
"""

from __future__ import annotations

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.rules import (
    RULE_CATALOG,
    _declared_key_field,
    _is_keyed_stateful,
)
from repro.common.rng import state_fingerprint

__all__ = ["RaceDetector", "compare_ledgers", "stream_ledger"]


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
    """Records the determinism hazards of one run.

    The engine calls :meth:`on_run_start`, :meth:`on_done` for the
    subtasks in :attr:`keyed`, :meth:`on_rescale` and
    :meth:`on_run_end`. Findings accumulate in :attr:`findings`;
    :attr:`rng_ledger` holds the terminal RNG state fingerprints after
    :meth:`on_run_end`.
    """

    def __init__(self) -> None:
        self.findings: list[Diagnostic] = []
        self.rng_ledger: dict[str, str] = {}
        #: gid -> (op_id, key_field or None) of the tracked keyed
        #: subtasks: the ones whose completions the engine reports
        self.keyed: dict[int, tuple[str, int | None]] = {}
        self._engine = None
        #: op_id -> {key: first-serving subtask index}
        self._owners: dict[str, dict] = {}
        #: (op_id, key) pairs already reported, to avoid flooding
        self._reported: set[tuple[str, str]] = set()

    def on_run_start(self, engine) -> None:
        """Bind to the engine, index keyed subtasks, scan RNG sharing."""
        self._engine = engine
        for runtime in engine._runtimes:
            op = engine.logical.operator(runtime.op_id)
            if op.parallelism > 1 and _is_keyed_stateful(op):
                self.keyed[runtime.gid] = (op.op_id, _declared_key_field(op))
                self._owners.setdefault(op.op_id, {})
        self._scan_rng_sharing(engine)

    def _scan_rng_sharing(self, engine) -> None:
        """DET608: generators reachable from more than one subtask."""
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

    def on_run_end(self) -> None:
        """Fingerprint the terminal state of every named generator."""
        engine = self._engine
        ledger = stream_ledger(engine._runtimes)
        rescale_rng = getattr(engine, "_rng_rescale", None)
        if rescale_rng is not None:
            ledger["engine/rescale"] = state_fingerprint(rescale_rng)
        ft_rng = getattr(engine, "_rng_ft", None)
        if ft_rng is not None:
            ledger["engine/ft"] = state_fingerprint(ft_rng)
        self.rng_ledger = ledger

    def on_done(self, runtime, now, tup, outputs) -> None:
        """DET607: note which subtask served the tuple's key."""
        op_id, key_field = self.keyed[runtime.gid]
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

    def on_rescale(self, engine, op_id, old_gids, new_gids) -> None:
        """Re-home key ownership after a rescale.

        Migration legitimately moves keys between subtasks — the old
        ownership map would flag every migrated key as DET607. The swap
        re-buckets *all* keys by hash, so ownership restarts empty; any
        split observed *after* the swap is a real race again. A
        recovery leaves ownership alone: hash routing and subtask
        indices survive a restart.
        """
        for gid in old_gids:
            self.keyed.pop(gid, None)
        op = engine.logical.operator(op_id)
        if len(new_gids) > 1 and _is_keyed_stateful(op):
            key_field = _declared_key_field(op)
            for gid in new_gids:
                self.keyed[gid] = (op_id, key_field)
            self._owners[op_id] = {}
        else:
            self._owners.pop(op_id, None)

    # ------------------------------------------------------------- report

    @property
    def has_errors(self) -> bool:
        """Whether any ERROR-severity finding was recorded."""
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
    restore or FT-off failure restart) an ``@r<n>`` suffix likewise. A
    logic stream is read only if open: ``ctx.rng`` would open it.
    """
    ledger: dict[str, str] = {}
    for runtime in runtimes:
        label = f"{runtime.op_id}[{runtime.index}]"
        if runtime.epoch:
            label += f"@e{runtime.epoch}"
        if runtime.ft_incarnation:
            label += f"@r{runtime.ft_incarnation}"
        ctx = getattr(runtime.logic, "ctx", None)
        for suffix, rng in (
            ("", getattr(ctx, "__dict__", {}).get("rng")),
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
