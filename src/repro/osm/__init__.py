"""OS model: address spaces, processes, kernel, security domains.

Named ``osm`` ("OS model") rather than ``os`` to avoid shadowing the
standard library module.
"""
