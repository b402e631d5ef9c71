"""CPU model: micro-ISA, speculative pipeline, SMT threads, PMCs."""
