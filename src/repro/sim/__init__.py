"""Simulation kernel: simulated clock, discrete events, RNG streams, and the
fair-share bandwidth model used to turn byte counts into transfer latency."""

from repro.sim.bandwidth import TransferSpec, simulate_transfers
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.rng import make_rng, spawn_rngs, stable_u64

__all__ = [
    "EventLoop",
    "SimClock",
    "TransferSpec",
    "make_rng",
    "simulate_transfers",
    "spawn_rngs",
    "stable_u64",
]
