"""Workbench for the asynchronous pi-calculus with level-based termination typing."""
