"""Instrumentation layer: the probe bus between the pipeline and observers.

The cycle kernel emits residency events to a :class:`ResidencyProbe`; the
:class:`ProbeBus` multiplexes them to subscribers (AVF engine, interval
recorder, phase tracker, auditor, trace writer) and collects their
lifecycle hooks into the :class:`Instrumentation` the core calls.
``repro.instrument`` never imports ``repro.avf`` — the dependency points
the other way.
"""

from repro.instrument.probe import (NULL_PROBE, Instrumentation, NullProbe,
                                    ProbeBus, ResidencyProbe)
from repro.instrument.recorder import IntervalRecorder, reg_lifetime_segments
from repro.instrument.structures import (FIGURE1_ORDER, PRIVATE_STRUCTURES,
                                         PROBE_STRUCTURES, SHARED_STRUCTURES,
                                         Structure)

__all__ = [
    "Structure",
    "SHARED_STRUCTURES",
    "PRIVATE_STRUCTURES",
    "PROBE_STRUCTURES",
    "FIGURE1_ORDER",
    "ResidencyProbe",
    "ProbeBus",
    "Instrumentation",
    "NullProbe",
    "NULL_PROBE",
    "IntervalRecorder",
    "reg_lifetime_segments",
]
