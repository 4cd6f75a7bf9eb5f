"""Discrete-event simulation substrate for the BeaconGNN model."""

from .kernel import AllOf, AnyOf, Event, Process, SimulationError, Simulator, Timeout
from .resources import BandwidthPipe, Resource, Store
from .stats import (
    BusyTracker,
    HopTimeline,
    Meter,
    PackedTrackers,
    StageAggregator,
    StageRecord,
    active_count_series,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Resource",
    "BandwidthPipe",
    "Store",
    "BusyTracker",
    "PackedTrackers",
    "active_count_series",
    "StageRecord",
    "StageAggregator",
    "Meter",
    "HopTimeline",
]
