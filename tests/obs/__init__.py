"""Tests for repro.obs: tracing, metrics, telemetry, analytics."""
