"""Deterministic simulator for a cooperative-transmission duty-cycle MAC."""

__version__ = "0.1.0"

from .energy import Battery, RadioEnergyParams, rx_energy, tx_energy
from .selection import CtRequest, ElectedList, WiLemStation, elect_helpers
from .channel import AirTransmission, ct_reach, in_reach
from .mac import (DutySchedule, MacState, Packet, Superframe,
                  build_schedules, compose_superframe, on_superframe,
                  reserve_noct, step)
from .config import ConfigError, ScenarioConfig, parse_config
from .engine import Metrics, Simulator, run

__all__ = [
    "Battery", "RadioEnergyParams", "rx_energy", "tx_energy",
    "CtRequest", "ElectedList", "WiLemStation", "elect_helpers",
    "AirTransmission", "ct_reach", "in_reach",
    "DutySchedule", "MacState", "Packet", "Superframe",
    "build_schedules", "compose_superframe", "on_superframe", "reserve_noct", "step",
    "ConfigError", "ScenarioConfig", "parse_config",
    "Metrics", "Simulator", "run",
]
