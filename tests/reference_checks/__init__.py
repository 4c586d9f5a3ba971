"""The lexical helpers and the C++, Fortran and Julia static checks as they
were before their scans learned to skip text that lacks a scan's anchor.

The four modules are kept verbatim (only their imports of each other are
relative) as the oracle of ``tests/test_static_check_equivalence.py``: the
checks in :mod:`repro.analysis` must return exactly what these return.
"""
