"""Parallel experiment runner: fan out (scenario, params, seed) cells.

The evaluation suite is embarrassingly parallel at the granularity of a
*cell* — one scenario run at one sweep point with one seed.  This
module runs a list of cells across worker processes and merges the
results **in input-cell order**, so the merged output is byte-identical
regardless of worker count or completion order (each cell is itself a
deterministic simulation; see ``repro.cluster.determinism``).

Results are memoized in an on-disk cache keyed by a hash of the cell's
full configuration.  Cache writes happen only in the parent process and
are atomic (tempfile + ``os.replace``), so a crashed or interrupted run
never leaves a partially written entry: every file present in the cache
directory is a complete, valid result.

Worker processes are forked, so scenario functions only need to be
resolvable through the registry in the parent; a worker that dies or a
scenario that raises fails its own cell only — completed cells are
still cached and reported via :class:`RunnerError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.cluster.calibration import CHAMELEON
from repro.common.errors import ConfigError

# Bump when scenario semantics change in a way that invalidates cached
# results (the key hashes this constant).
CACHE_VERSION = 1

Scenario = Callable[[Mapping[str, Any], int], dict]

_SCENARIOS: Dict[str, Scenario] = {}

# Scenarios that register on import of the named module: looking one up
# imports it first, so cells resolve without the caller pre-importing.
_LAZY_SCENARIOS: Dict[str, str] = {
    "hunt-candidate": "repro.hunt.scenario",
    "fluid-scale": "repro.fluid.scenario",
}


def register_scenario(name: str, fn: Optional[Scenario] = None):
    """Register ``fn`` to run cells named ``name`` (usable as decorator).

    A scenario takes ``(params, seed)`` and returns a JSON-serializable
    dict.  It must be deterministic in its arguments: the result cache
    assumes equal keys mean equal results.
    """
    def _register(f: Scenario) -> Scenario:
        if name in _SCENARIOS:
            raise ConfigError(f"scenario {name!r} already registered")
        _SCENARIOS[name] = f
        return f

    return _register(fn) if fn is not None else _register


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name (importing lazily-bound
    scenario modules on first use)."""
    if name not in _SCENARIOS and name in _LAZY_SCENARIOS:
        importlib.import_module(_LAZY_SCENARIOS[name])
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r} (registered: {sorted(_SCENARIOS)})"
        ) from None


# ---------------------------------------------------------------------------
# Cells and cache keys
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Cell:
    """One unit of parallel work: a scenario at one configuration."""

    scenario: str
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0


def canonical_json(obj: Any) -> str:
    """Stable serialization: sorted keys, no whitespace.

    Float formatting is CPython's shortest-round-trip repr, identical
    across the supported interpreter versions, so equal values always
    produce equal bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_key(cell: Cell) -> str:
    """The cache key: sha256 over the cell's canonical configuration."""
    payload = canonical_json({
        "scenario": cell.scenario,
        "params": dict(cell.params),
        "seed": cell.seed,
        "version": CACHE_VERSION,
    })
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """On-disk result store: one JSON file per cell key.

    Writes go through a tempfile in the cache directory followed by
    ``os.replace`` — atomic on POSIX — so readers (and crashed runs)
    never observe a partial file.  An unreadable or corrupt entry is
    treated as a miss and overwritten on the next put.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key``, or None."""
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist ``payload`` under ``key``."""
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(payload))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
class RunnerError(RuntimeError):
    """One or more cells failed; successful cells were still cached.

    ``errors`` maps input-cell index to the failure description;
    ``results`` holds the per-cell results (None where failed).
    """

    def __init__(self, errors: Dict[int, str], results: List[Optional[dict]]):
        self.errors = errors
        self.results = results
        lines = ", ".join(f"cell {i}: {msg}" for i, msg in sorted(errors.items()))
        super().__init__(f"{len(errors)} cell(s) failed ({lines})")


@dataclasses.dataclass
class RunReport:
    """The merged outcome of a :func:`run_cells` call."""

    cells: List[Cell]
    results: List[dict]
    cache_hits: int
    cache_misses: int
    wall_seconds: float

    def merged_json(self) -> str:
        """Canonical JSON of (cell, result) pairs in input order.

        Byte-identical for any worker count: cell results are
        deterministic and the merge order is the input order.
        """
        return canonical_json([
            {
                "scenario": cell.scenario,
                "params": dict(cell.params),
                "seed": cell.seed,
                "result": result,
            }
            for cell, result in zip(self.cells, self.results)
        ])


def _run_cell(name: str, params: Mapping[str, Any], seed: int) -> dict:
    """Worker entry point (module-level so it pickles under spawn too)."""
    return get_scenario(name)(params, seed)


def _mp_context():
    # Fork keeps scenario registrations made by the parent (e.g. in a
    # conftest) visible to workers without re-importing anything.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def run_cells(
    cells: Sequence[Cell],
    workers: int = 1,
    cache_dir=None,
) -> RunReport:
    """Run every cell; return results merged in input-cell order.

    ``workers=1`` runs inline (no subprocess), which is the reference
    execution; any higher worker count must produce — and is tested to
    produce — a byte-identical :meth:`RunReport.merged_json`.

    With ``cache_dir`` set, cached cells are served without running and
    fresh results are persisted (parent-side, atomically).  Failures
    raise :class:`RunnerError` after all other cells finished, so one
    bad cell cannot waste the rest of the sweep's work.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    started = time.monotonic()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: List[Optional[dict]] = [None] * len(cells)
    errors: Dict[int, str] = {}

    pending: List[int] = []
    for i, cell in enumerate(cells):
        if (cell.scenario not in _SCENARIOS
                and cell.scenario not in _LAZY_SCENARIOS):
            raise ConfigError(f"unknown scenario {cell.scenario!r} (cell {i})")
        cached = cache.get(cell_key(cell)) if cache is not None else None
        if cached is not None:
            results[i] = cached["result"]
        else:
            pending.append(i)

    def _record(i: int, result: dict) -> None:
        results[i] = result
        if cache is not None:
            cell = cells[i]
            cache.put(cell_key(cell), {
                "scenario": cell.scenario,
                "params": dict(cell.params),
                "seed": cell.seed,
                "result": result,
            })

    if workers == 1:
        for i in pending:
            cell = cells[i]
            try:
                _record(i, _run_cell(cell.scenario, cell.params, cell.seed))
            except Exception as err:  # noqa: BLE001 - reported via RunnerError
                errors[i] = f"{type(err).__name__}: {err}"
    elif pending:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=_mp_context()
        ) as pool:
            futures = {
                pool.submit(_run_cell, cells[i].scenario,
                            cells[i].params, cells[i].seed): i
                for i in pending
            }
            for future, i in futures.items():
                try:
                    _record(i, future.result())
                except Exception as err:  # noqa: BLE001 - incl. BrokenProcessPool
                    errors[i] = f"{type(err).__name__}: {err}"

    wall = time.monotonic() - started
    if errors:
        raise RunnerError(errors, results)
    return RunReport(
        cells=list(cells),
        results=results,  # type: ignore[arg-type] - no Nones when no errors
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        wall_seconds=wall,
    )


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
def run_fig12_point(params: Mapping[str, Any], seed: int):
    """Build and run one Fig. 12 sweep point; returns ``(cluster,
    result, reservations)`` so callers that need more than the
    scenario's JSON payload (the perf gate's event budget) can read the
    simulator.

    params: distribution, fraction, and optionally capacity /
    scale_factor / interval_divisor / warmup / periods (defaults match
    the committed benchmark).
    """
    from repro.cluster.experiment import run_experiment
    from repro.cluster.scale import SimScale
    from repro.cluster.scenarios import qos_cluster, reservation_set

    capacity = params.get("capacity", CHAMELEON.one_sided_system)
    fraction = params["fraction"]
    scale = SimScale(
        factor=params.get("scale_factor", 500),
        interval_divisor=params.get("interval_divisor", 100),
    )
    reservations = reservation_set(params["distribution"],
                                   fraction * capacity)
    pool = (1 - fraction) * capacity
    demands = [r + pool for r in reservations]
    cluster = qos_cluster(
        reservations=reservations, demands=demands, scale=scale,
        master_seed=seed,
    )
    result = run_experiment(
        cluster,
        warmup_periods=params.get("warmup", 2),
        measure_periods=params.get("periods", 6),
    )
    return cluster, result, reservations


@register_scenario("fig12-point")
def _fig12_point(params: Mapping[str, Any], seed: int) -> dict:
    """One Fig. 12 sweep point: QoS throughput at a reserved fraction
    (see :func:`run_fig12_point` for params)."""
    _cluster, result, reservations = run_fig12_point(params, seed)
    return {
        "total_kiops": result.total_kiops(),
        "client_kiops": {
            f"C{i+1}": result.client_kiops(f"C{i+1}")
            for i in range(len(reservations))
        },
        "reservations": list(reservations),
    }


def fig12_cells(
    distributions: Sequence[str] = ("uniform", "zipf"),
    fractions: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9),
    seed: int = 0,
    **overrides: Any,
) -> List[Cell]:
    """The pinned Fig. 12 sweep as runner cells."""
    return [
        Cell("fig12-point",
             {"distribution": dist, "fraction": frac, **overrides}, seed)
        for dist in distributions
        for frac in fractions
    ]
