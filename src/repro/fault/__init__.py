"""Fault tolerance: detection, recovery coordination, active replication."""

from repro.fault.detector import HeartbeatMonitor
from repro.fault.recovery import RecoveryCoordinator

__all__ = [
    "HeartbeatMonitor",
    "RecoveryCoordinator",
]
