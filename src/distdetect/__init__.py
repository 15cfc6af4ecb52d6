"""Finite-time distributed detection: belief updates, mixing networks, bounds."""

__all__ = ["analysis", "config", "detection", "errors", "network", "prob", "signals",
           "trajectories"]
