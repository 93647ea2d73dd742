"""The repository's performance benchmark (see ``perf/README.md``).

Everything here drives ``repro`` through its public API only; nothing
under ``src/`` imports this package.
"""
