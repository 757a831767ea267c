"""Guard configuration: enforcement modes and fuel budgets.

A :class:`GuardConfig` is a small frozen value threaded through the
sampling and verification hot paths.  Three modes:

``off``
    Zero-overhead no-op.  The hot path performs no contract checks at
    all — a single cached boolean test per step is the only residue.

``warn``
    Every check runs; violations increment ``contracts.*`` obs counters
    and print one warning per *site* to stderr, then execution
    continues (graceful degradation).

``strict``
    Violations raise the matching :class:`~repro.errors.ContractViolation`
    subclass.  Inside the verifier backend the violation is caught per
    (adversary, start) pair and converted into a quarantine record, so
    one poisoned pair does not abort the rest of the run.

Configs pickle cleanly and are embedded in the parallel contexts, so
forked pool workers enforce identically to ``workers=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import VerificationError

OFF = "off"
WARN = "warn"
STRICT = "strict"

MODES = (OFF, WARN, STRICT)


@dataclass(frozen=True)
class GuardConfig:
    """Immutable guard settings for one run.

    ``fuel_steps`` / ``fuel_seconds`` bound each *single execution*
    sampled by the runtime; ``None`` means unlimited.  Fuel is only
    enforced when ``mode`` is ``warn`` or ``strict``.
    """

    mode: str = OFF
    fuel_steps: Optional[int] = None
    fuel_seconds: Optional[float] = None

    def validate(self) -> "GuardConfig":
        """Check internal consistency; returns self for chaining."""
        if self.mode not in MODES:
            raise VerificationError(
                f"unknown guard mode {self.mode!r}; expected one of {MODES}"
            )
        if self.fuel_steps is not None and self.fuel_steps < 1:
            raise VerificationError("fuel_steps must be a positive integer")
        if self.fuel_seconds is not None and self.fuel_seconds <= 0:
            raise VerificationError("fuel_seconds must be positive")
        if self.mode == OFF and self.fuelled:
            raise VerificationError(
                "fuel budgets require guard mode 'warn' or 'strict' "
                "(mode 'off' performs no checks)"
            )
        return self

    @property
    def checking(self) -> bool:
        """True when any contract checks run (warn or strict)."""
        return self.mode != OFF

    @property
    def strict(self) -> bool:
        """True when violations raise instead of being counted."""
        return self.mode == STRICT

    @property
    def fuelled(self) -> bool:
        """True when a per-execution fuel budget is configured."""
        return self.fuel_steps is not None or self.fuel_seconds is not None

    @classmethod
    def from_flags(cls, mode: str, fuel: Optional[str] = None) -> "GuardConfig":
        """Build a config from the ``--guards`` / ``--fuel`` CLI flags.

        ``fuel`` grammar: a plain integer is a step budget; otherwise a
        comma-separated list of ``steps=N`` / ``seconds=X`` assignments,
        e.g. ``steps=5000,seconds=2.5``.
        """
        steps, seconds = _parse_fuel(fuel)
        return cls(mode=mode, fuel_steps=steps, fuel_seconds=seconds).validate()


def _parse_fuel(spec: Optional[str]):
    if spec is None or spec == "":
        return None, None
    spec = spec.strip()
    if spec.isdigit():
        return int(spec), None
    steps: Optional[int] = None
    seconds: Optional[float] = None
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise VerificationError(
                f"bad --fuel component {part!r}: expected steps=N or seconds=X"
            )
        try:
            if key == "steps":
                steps = int(value)
            elif key == "seconds":
                seconds = float(value)
            else:
                raise VerificationError(
                    f"bad --fuel key {key!r}: expected 'steps' or 'seconds'"
                )
        except ValueError:
            raise VerificationError(
                f"bad --fuel value {value!r} for {key!r}"
            ) from None
    return steps, seconds


#: The shared zero-overhead default.
OFF_CONFIG = GuardConfig()
