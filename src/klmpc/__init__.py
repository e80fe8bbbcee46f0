"""Lifted linear (Koopman) modeling, online load estimation, and QP-based
model predictive control for a simulated two-link elastic arm.
"""
