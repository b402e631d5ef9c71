"""Memory substrate: physical memory, caches and the store queue."""
