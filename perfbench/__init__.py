"""End-to-end and per-layer benchmark for capypipe (see README.md)."""
