"""Discrete-event simulation kernel.

The substrate the paper's evaluation (section 5) runs on, with only what
the simulator uses:

* :class:`~repro.des.engine.Environment` -- the clock and the event
  queue: ``now``, ``timeout(delay)``, ``process(generator)``, ``run()``,
  ``run(until=t)`` and ``peek()``.
* :class:`~repro.des.engine.Event`, :class:`~repro.des.engine.Timeout`
  and :class:`~repro.des.engine.Process` -- what a process waits on; a
  process is a generator that yields timeouts or other processes.
* :class:`~repro.des.rng.RandomStreams` -- named, independently seeded
  random streams, so experiments are reproducible and one source of
  randomness can vary without perturbing the others.
"""

from repro.des.engine import Environment, Event, Process, Timeout
from repro.des.rng import RandomStreams

__all__ = ["Environment", "Event", "Process", "RandomStreams", "Timeout"]
