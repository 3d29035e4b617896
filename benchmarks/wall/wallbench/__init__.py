"""Two-clock benchmark harness (see ``benchmarks/wall/README.md``).

Host wall-clock (``wall_*``, ``setup_s``, ``peak_rss_mb``) next to the
engine's simulated clock (``sim_*``), end to end and per layer.  The
harness only *calls into* ``repro`` through public functions; nothing
under ``src/`` knows it exists.
"""
