"""Analysis utilities: SVM classifier, statistics, fingerprint vectors."""
