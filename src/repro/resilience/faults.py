"""Deterministic fault injection for exercising the resilience layer.

One seeded injector serves three *domains*, each a row of
:data:`DOMAINS`:

* ``run`` -- every execution attempt of a sweep cell
  (:meth:`~repro.experiments.runner.SweepRunner._execute` and the
  process-pool worker) may **fail** (raise :class:`InjectedFault`, a
  ``crash``), **hang** (sleep ``hang_s`` first, so a guard timeout
  fires), **corrupt** (``time_s`` becomes NaN, which the self-check
  rejects) or **die** (SIGKILL its own process, which only
  process-isolated sweeps contain);
* ``net`` -- every frame a fabric peer or the HTTP front door sends may
  be **dropped**, **delayed** by ``delay_s``, **duplicated**, or open a
  **partition**: a ``partition_s`` window during which every later frame
  on the same site drops too;
* ``disk`` -- every durable write
  (:func:`repro.resilience.diskio.durable_write_text`) may fail with
  **EIO**, fail with **ENOSPC** after a partial temp write, be **torn**
  (half the bytes land and the rename still happens), or **lose its
  fsync**.

The decision is a pure function of ``(plan, site, seq)``: the injector
counts draws per site and hashes ``(seed, *salt, *site, seq)`` with
:func:`~repro.resilience.guard.stable_seed` into one uniform sample,
whose position in the domain's disjoint probability bands names the
fault (``None`` for none).  A run site is ``(run_kind, cell key)`` and
its seq is the attempt number, so retries re-roll; a net site is a
directional link (``"node-1->coordinator"``, ``"http.write"``) and a
disk site an artifact family (``"checkpoint"``, ``"store"``).  Never
keyed on PID: a pool worker *primes* its fresh injector with the
attempt it was assigned, so a faulted parallel sweep replays the serial
schedule, and a failing CI run replays locally with the same seed.

The injector only decides; each consumer applies its domain's effect
(:func:`repro.experiments.runner.faulted_attempt`,
:func:`repro.fabric.protocol.delivery`, the HTTP front door's wire
sites, and the branches of ``durable_write_text``).

Env gating: ``REPRO_FAULTS=1`` / ``REPRO_NET_FAULTS=1`` /
``REPRO_DISK_FAULTS=1`` enable a domain, whose parameters are read from
``<flag>_<NAME>`` (``REPRO_FAULTS_FAIL_P``, ``REPRO_NET_FAULTS_DELAY_S``,
``REPRO_DISK_FAULTS_SEED``, ...): probabilities default to 0, seeds to
0, and durations to their :data:`DOMAINS` defaults.  A malformed or
out-of-range value is a ``ValueError`` naming its variable.  Tests
install injectors programmatically via :func:`install` instead.
"""

from __future__ import annotations

import os
import time
from typing import Callable, NamedTuple

from repro.resilience.guard import stable_seed


class InjectedFault(RuntimeError):
    """A crash injected by the fault harness (classified as ``crash``)."""


class Domain(NamedTuple):
    """One fault domain: how it is gated, what it draws, how it salts."""

    #: Enabling env flag; parameters are read from ``f"{env}_{NAME}"``.
    env: str
    #: Fault kinds in band order (one uniform sample, disjoint bands).
    kinds: "tuple[str, ...]"
    #: Duration parameters (seconds) and their defaults.
    durations: "dict[str, float]"
    #: Leading ``stable_seed`` parts after the seed, before the site.
    salt: "tuple[str, ...]"
    #: ``(kind, duration)``: drawing ``kind`` drops every later draw on
    #: the same site for ``duration`` seconds (as ``f"{kind}_drop"``).
    window: "tuple[str, str] | None" = None


DOMAINS: "dict[str, Domain]" = {
    "run": Domain(
        "REPRO_FAULTS", ("fail", "hang", "corrupt", "die"),
        {"hang_s": 30.0}, (),
    ),
    "net": Domain(
        "REPRO_NET_FAULTS", ("drop", "delay", "dup", "partition"),
        {"delay_s": 0.05, "partition_s": 2.0}, ("net",),
        window=("partition", "partition_s"),
    ),
    "disk": Domain(
        "REPRO_DISK_FAULTS", ("eio", "enospc", "torn", "lost_fsync"),
        {}, ("disk",),
    ),
}


_TRUE = frozenset({"1", "true", "yes", "on"})


def _defaults(domain: str) -> dict:
    spec = DOMAINS[domain]
    return {**{f"{kind}_p": 0.0 for kind in spec.kinds}, **spec.durations}


def _bands(domain: str, values: dict, name: Callable[[str], str] = str) -> tuple:
    """The domain's ``(kind, upper bound)`` bands, in band order.

    Rejects probabilities outside [0, 1], bands summing past 1 and
    negative durations; ``name`` labels a parameter in the message.
    """
    for param, value in values.items():
        if param.endswith("_p") and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name(param)} must be in [0, 1], got {value}")
        if param.endswith("_s") and not value >= 0.0:
            raise ValueError(f"{name(param)} must be >= 0, got {value}")
    kinds = DOMAINS[domain].kinds
    bands, upper = [], 0.0
    for kind in kinds:
        upper += values[f"{kind}_p"]
        bands.append((kind, upper))
    if upper > 1.0:
        probs = ", ".join(name(f"{kind}_p") for kind in kinds)
        raise ValueError(f"{domain} fault probabilities ({probs}) must sum to <= 1")
    return tuple(bands)


class FaultPlan:
    """One domain's fault probabilities, durations and seed (immutable).

    ``FaultPlan("net", drop_p=0.1, seed=3)``; the domain defaults to
    ``run``.  Parameters are ``f"{kind}_p"`` for each of the domain's
    kinds plus its durations; each reads back as an attribute.
    """

    def __init__(self, domain: str = "run", *, seed: int = 0, **params: float):
        if domain not in DOMAINS:
            raise ValueError(f"unknown fault domain {domain!r}")
        values = _defaults(domain)
        unknown = sorted(set(params) - set(values))
        if unknown:
            raise TypeError(f"{domain} faults take no parameter(s) {unknown}")
        values.update(params)
        self.__dict__.update(
            domain=domain, seed=seed, params=values,
            bands=_bands(domain, values),
        )

    def __getattr__(self, name: str):
        try:
            return self.__dict__["params"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FaultPlan is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"FaultPlan({self.domain!r}, seed={self.seed!r}, {args})"

    @classmethod
    def from_env(cls, domain: str = "run") -> "FaultPlan":
        """The domain's plan from ``<flag>_<NAME>`` variables."""
        values = {**_defaults(domain), "seed": 0}

        def var(param: str) -> str:
            return f"{DOMAINS[domain].env}_{param.upper()}"

        for param in values:
            raw = os.environ.get(var(param), "").strip()
            if raw:
                try:
                    number = float(raw)
                    values[param] = int(number) if param == "seed" else number
                except (ValueError, OverflowError):
                    raise ValueError(
                        f"{var(param)}={raw!r} is not a number"
                    ) from None
        seed = values.pop("seed")
        _bands(domain, values, var)
        return cls(domain, seed=seed, **values)

    def to_dict(self) -> dict:
        """Plain-dict form, picklable into worker processes."""
        return {"domain": self.domain, "seed": self.seed, **self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(**data)


class FaultInjector:
    """Seeded per-``(site, seq)`` fault decisions for one domain.

    ``sleep`` serves the run domain's hang; ``clock`` times the net
    domain's partition windows.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.plan = plan
        self.sleep = sleep
        self._clock = clock
        self._spec = DOMAINS[plan.domain]
        self._seq: "dict[tuple, int]" = {}
        self._window_until: "dict[tuple, float]" = {}
        window = self._spec.window
        #: How many of each fault kind were drawn.
        self.injected = dict.fromkeys(
            self._spec.kinds + ((f"{window[0]}_drop",) if window else ()), 0
        )

    def draw(self, *site) -> "str | None":
        """The fault kind for the next event at ``site``, or None."""
        seq = self._seq.get(site, 0) + 1
        self._seq[site] = seq
        window = self._spec.window
        if window is not None:
            now = self._clock()
            until = self._window_until.get(site)
            if until is not None:
                if now < until:
                    kind = f"{window[0]}_drop"
                    self.injected[kind] += 1
                    return kind
                del self._window_until[site]
        plan = self.plan
        u = stable_seed(plan.seed, *self._spec.salt, *site, seq) / float(1 << 64)
        for kind, upper in plan.bands:
            if u < upper:
                self.injected[kind] += 1
                if window is not None and kind == window[0]:
                    self._window_until[site] = now + getattr(plan, window[1])
                return kind
        return None

    def prime(self, *site, attempt: int) -> None:
        """Make the next draw at ``site`` use seq ``attempt`` (1-based).

        A worker process executing a requeued attempt starts with a
        fresh injector whose counters would otherwise restart at 1,
        replaying attempt 1's fault forever.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        self._seq[site] = attempt - 1


#: Programmatically installed injectors by domain (beat the env ones).
_INSTALLED: "dict[str, FaultInjector]" = {}
#: Lazily built env-configured injectors (kept so seqs persist).
_FROM_ENV: "dict[str, FaultInjector]" = {}


def install(injector: FaultInjector) -> FaultInjector:
    """Install an injector for its plan's domain (tests; returns it)."""
    _INSTALLED[injector.plan.domain] = injector
    return injector


def uninstall(domain: str = "run") -> None:
    """Remove the programmatically installed injector of ``domain``."""
    _INSTALLED.pop(domain, None)


def reset() -> None:
    """Forget every installed/env-built injector (test hygiene)."""
    _INSTALLED.clear()
    _FROM_ENV.clear()


def installed_plan(domain: str = "run") -> "FaultPlan | None":
    """The programmatically installed plan of ``domain``, if any.

    The process-isolated sweep executor ships this to its workers so an
    injector installed in the parent drives the same schedule there;
    env-gated injection needs no help (the environment is inherited).
    """
    injector = _INSTALLED.get(domain)
    return injector.plan if injector is not None else None


def active(domain: str = "run") -> "FaultInjector | None":
    """The injector for ``domain``, or None when it is disabled."""
    injector = _INSTALLED.get(domain)
    if injector is not None:
        return injector
    # Runs per cell attempt, frame and durable write: one env read.
    if os.environ.get(DOMAINS[domain].env, "").strip().lower() not in _TRUE:
        return None
    injector = _FROM_ENV.get(domain)
    if injector is None:
        injector = _FROM_ENV[domain] = FaultInjector(FaultPlan.from_env(domain))
    return injector
