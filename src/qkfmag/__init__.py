"""Continuous-measurement atomic magnetometry toolkit.

Simulates conditional spin trajectories under continuous QND
observation, runs the matching Kalman filter and a line-fit baseline
over the measurement records, and checks the resulting field
sensitivity against closed-form covariance predictions, including the
1/J scaling regime.
"""

__version__ = "0.1.0"
