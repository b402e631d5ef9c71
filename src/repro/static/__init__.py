"""Static speculative-leakage analysis (``repro-scan``).

Where :mod:`repro.fuzz` *executes* its way to leaks — dual execution plus
the two-fill oracle, one full pipeline simulation per verdict — this
package reasons about a program **without running it**: it lifts the
micro-ISA into a small dataflow IR (:mod:`.ir`), enumerates the
speculative windows the predictors can open (:mod:`.windows`),
propagates secret taint from the loads that can observe the initial
buffer fill (:mod:`.taint`) and reports transmitters — secret-dependent
load addresses and their kin — as structured gadget findings
(:mod:`.gadgets`).  A fence advisor (:mod:`.advisor`) proposes a minimal
:mod:`repro.mitigations.fences` placement and re-scans the patched
program to prove the bypass gadgets dead.

The scanner is deliberately **sound, not precise**: it over-approximates
(every unresolved older store may be bypassed, every wrong path may
execute), so a program it proves gadget-free cannot leak under the
dynamic oracle.  That invariant is not an aspiration — it is a tested
property: :mod:`.crossval` replays the persistent fuzz corpus through
both the scanner and :func:`repro.fuzz.oracle.leak_check_instructions`
and fails on any dynamically observed leak the scanner missed.

Not to be confused with :mod:`repro.attacks.victim_gadgets`, which
*builds* the paper's victim gadget programs; :mod:`repro.static.gadgets`
*detects* gadgets in arbitrary programs (and is cross-checked against
those builders in the test suite).
"""
