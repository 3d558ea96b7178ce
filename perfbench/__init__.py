"""Standalone benchmark harness for the RBCD simulator (see README.md)."""
