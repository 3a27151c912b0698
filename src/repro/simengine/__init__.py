"""Discrete-event simulation kernel used by every substrate in repro."""

from .core import AllOf, AnyOf, Environment, Event, Process, SimulationError, Timeout, Wake
from .resources import Container, PriorityResource, Request, Resource, Store, hold_quantum
from .rng import RngRegistry
from .schedule import Perturber, TieGroupRecorder, capture, minimize_flips

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Wake",
    "Container",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
    "RngRegistry",
    "hold_quantum",
    "Perturber",
    "TieGroupRecorder",
    "capture",
    "minimize_flips",
]
