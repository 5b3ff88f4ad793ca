"""First-order radio energy model and per-node battery bookkeeping.

Transmit energy uses the two-regime amplifier model: free-space (d^2)
below the crossover distance d0 = sqrt(e_fs / e_mp), multipath (d^4) at
or beyond it. Idle listening draws the same power as receiving.
"""

import math
from dataclasses import dataclass, field


# Standard first-order radio constants used throughout the WSN literature.
DEFAULT_E_ELEC = 50e-9       # J/bit, transmitter/receiver electronics
DEFAULT_E_FS = 10e-12        # J/bit/m^2, free-space amplifier
DEFAULT_E_MP = 0.0013e-12    # J/bit/m^4, multipath amplifier
DEFAULT_E_RX = 50e-9         # J/bit received
DEFAULT_P_RX = 1e-3          # J/s while receiving or idle listening
DEFAULT_P_SLEEP = 1e-8       # J/s while asleep

CATEGORIES = ("transmit", "receive", "idle_listen", "sleep", "overhear")


@dataclass(frozen=True)
class RadioEnergyParams:
    """Per-bit energy constants plus receive/sleep power draws.

    Idle-listening power is defined equal to ``p_rx``; it is not a
    separate knob.
    """

    e_elec: float = DEFAULT_E_ELEC
    e_fs: float = DEFAULT_E_FS
    e_mp: float = DEFAULT_E_MP
    e_rx: float = DEFAULT_E_RX
    p_rx: float = DEFAULT_P_RX
    p_sleep: float = DEFAULT_P_SLEEP

    def __post_init__(self):
        for name in ("e_elec", "e_fs", "e_mp", "e_rx", "p_rx", "p_sleep"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                raise ValueError(f"radio parameter {name} must be strictly positive, got {value!r}")

    @property
    def d0(self) -> float:
        """Crossover distance between the d^2 and d^4 amplifier regimes."""
        return math.sqrt(self.e_fs / self.e_mp)


def tx_energy(bits: int, distance: float, params: RadioEnergyParams) -> float:
    """Energy to transmit ``bits`` over ``distance`` metres.

    Free-space branch below d0, multipath branch at or beyond it; both
    branches agree exactly at d0.
    """
    if bits < 0:
        raise ValueError("bits must be non-negative")
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance >= params.d0:
        return bits * params.e_elec + bits * params.e_mp * distance ** 4
    return bits * params.e_elec + bits * params.e_fs * distance ** 2


def rx_energy(bits: int, params: RadioEnergyParams) -> float:
    """Energy to receive ``bits``."""
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return bits * params.e_rx


@dataclass
class Battery:
    """Energy store with exact per-category consumption bookkeeping.

    ``initial == residual + sum(consumed_by_category.values())`` holds
    after every drain; ``alive`` never flips back to True.
    """

    initial: float
    residual: float = None  # type: ignore[assignment]
    consumed_by_category: dict = field(default_factory=lambda: {c: 0.0 for c in CATEGORIES})
    alive: bool = True

    def __post_init__(self):
        if self.residual is None:
            self.residual = self.initial
        if not 0.0 <= self.residual <= self.initial:
            raise ValueError("residual must lie in [0, initial]")

    def drain(self, amount: float, category: str) -> float:
        """Draw ``amount`` joules, flooring at zero.

        Returns the amount actually drawn (may be less than requested
        when the battery empties, zero when already dead). A node whose
        residual reaches zero is dead for good.
        """
        if amount < 0:
            raise ValueError("drain amount must be non-negative")
        if category not in self.consumed_by_category:
            raise ValueError(f"unknown energy category {category!r}")
        if not self.alive:
            return 0.0
        drawn = min(amount, self.residual)
        self.residual -= drawn
        self.consumed_by_category[category] += drawn
        if self.residual <= 0.0:
            self.residual = 0.0
            self.alive = False
        return drawn

    def drain_idle(self, idle_j: float, sleep_j: float) -> tuple:
        """``drain(idle_j, "idle_listen")`` then ``drain(sleep_j, "sleep")``
        in one call; returns both drawn amounts."""
        if idle_j < 0 or sleep_j < 0:
            raise ValueError("drain amount must be non-negative")
        if not self.alive:
            return 0.0, 0.0
        left = self.residual
        idle = idle_j if idle_j <= left else left  # min(), without the call
        left -= idle
        slept = sleep_j if sleep_j <= left else left
        left -= slept
        self.consumed_by_category["idle_listen"] += idle
        self.consumed_by_category["sleep"] += slept
        self.residual = left
        if left <= 0.0:
            self.residual, self.alive = 0.0, False
        return idle, slept


def drain_idle_all(batteries, idle_j, sleep_j):
    """``drain_idle`` on each battery, for a draw that clamps none; returns residuals."""
    for battery in batteries:
        battery.consumed_by_category["idle_listen"] += idle_j
        battery.consumed_by_category["sleep"] += sleep_j
        battery.residual = battery.residual - idle_j - sleep_j
        if battery.residual <= 0.0:
            battery.residual, battery.alive = 0.0, False
    return [battery.residual for battery in batteries]
