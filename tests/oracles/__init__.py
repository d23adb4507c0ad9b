"""Frozen reference implementations the tests compare the package against.

A module here is a verbatim copy of production code as it stood before
an optimisation; it is never imported by ``repro`` and never edited to
follow it.
"""
