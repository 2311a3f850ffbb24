"""The repo's layered benchmark (see ``bench/README.md``).

Six workloads, from bare scheme steps to a two-shard TCP cluster, each
measured from outside the program: public functions are timed, public
objects are wrapped in ``bench``-local recorders, and the program's own
instrumentation (``PhaseTimers``, ``StatRegistry``, span files, ``stats``
frames) is switched on for the per-layer run.  Nothing under ``src/``
knows this package exists.
"""
