"""Effect-algebra toolkit: finite tables, matrix and fuzzy models,
spectral resolutions, and property-based verification suites."""
