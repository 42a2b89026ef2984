"""Sequential discrete-event simulation core.

A deliberately small engine: a binary-heap calendar of ``(time, seq,
callback, args)`` entries. The paper used CODES/ROSS (a parallel DES in
C); a sequential engine produces identical simulated results for a given
seed, trading only wall-clock time (see DESIGN.md substitutions).
"""

from repro.engine.simulator import Simulator
from repro.engine.rng import rng_stream, spawn_seed

__all__ = [
    "Simulator",
    "rng_stream",
    "spawn_seed",
]
