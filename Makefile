# Convenience targets for the repro package.  Everything assumes the
# source layout (PYTHONPATH=src) so no install step is needed.

# Recipes always run under a plain non-login /bin/sh.  Login shells on
# dev images commonly run `conda config` from their profile, which emits
# a condarc WARNING ("Key auto_activate_base is an alias ...") into any
# captured stream; pinning SHELL guarantees no recipe output is ever
# polluted by profile noise, so smoke-gate logs stay grep-clean no
# matter which shell launched make.  (If the warning still appears, it
# is from the *invoking* login shell, before make starts — run make from
# a non-login shell or `conda config --set auto_activate false` once.)
SHELL := /bin/sh

PY      ?= python
JOBS    ?= 4
RESULTS ?= results

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test experiments-quick experiments-check experiments-all regen-experiments-md fuzz-smoke chaos-smoke trace-smoke attack-smoke interference-smoke scan-smoke equivalence-check clean-cache

test:
	$(PY) -m pytest -x -q

## Fast-tier campaign with parallel workers and JSON artifacts.
experiments-quick:
	$(PY) -m repro.experiments.runner --cost fast --jobs $(JOBS) --json $(RESULTS)

## Opt-in determinism check: the fast tier must write byte-identical
## artifacts under --jobs 1 and --jobs $(JOBS) (--stable-meta zeroes wall
## times and worker pids; campaign.json is excluded because it records
## --jobs).  Regressions in driver determinism (global RNG use, order
## dependence) surface here.
experiments-check:
	rm -rf $(RESULTS)-serial $(RESULTS)-parallel
	$(PY) -m repro.experiments.runner --cost fast --jobs 1       --no-cache --stable-meta --json $(RESULTS)-serial
	$(PY) -m repro.experiments.runner --cost fast --jobs $(JOBS) --no-cache --stable-meta --json $(RESULTS)-parallel
	diff -r --exclude=campaign.json $(RESULTS)-serial $(RESULTS)-parallel
	rm -rf $(RESULTS)-serial $(RESULTS)-parallel

## The full campaign (slow leak evaluations included).
experiments-all:
	$(PY) -m repro.experiments.runner --all --jobs $(JOBS) --json $(RESULTS)

## Rewrite EXPERIMENTS.md's generated measured-values table from artifacts.
regen-experiments-md: experiments-all
	$(PY) -m repro.experiments.report --json $(RESULTS) --write EXPERIMENTS.md

## Seeded differential-fuzzing smoke: replay the regression corpus plus a
## small generated budget under "none" and "ssbd".  Must be clean (no
## architectural divergences, no leaks surviving SSBD) and byte-identical
## between --jobs 1 and --jobs $(JOBS).  Separate corpus dirs per run so
## the first run's additions cannot change the second run's replay list.
fuzz-smoke:
	rm -rf $(RESULTS)-fuzz
	$(PY) -m repro.fuzz.cli --budget 25 --seed 1 --jobs 1       --out $(RESULTS)-fuzz/serial.jsonl   --corpus-dir $(RESULTS)-fuzz/corpus-serial
	$(PY) -m repro.fuzz.cli --budget 25 --seed 1 --jobs $(JOBS) --out $(RESULTS)-fuzz/parallel.jsonl --corpus-dir $(RESULTS)-fuzz/corpus-parallel
	cmp $(RESULTS)-fuzz/serial.jsonl $(RESULTS)-fuzz/parallel.jsonl
	rm -rf $(RESULTS)-fuzz
	@echo "fuzz-smoke: clean and deterministic"

## Chaos-tested recovery (docs/resilience.md): the same four-experiment
## campaign runs clean, then under injected worker crash/hang/corruption
## (which retries must absorb — manifests byte-identical to baseline),
## then interrupted mid-campaign (must exit 3 with a checkpoint) and
## resumed (must converge to the baseline manifest, byte for byte).
## Every run uses the same --jobs so the manifests stay comparable;
## --stable-meta zeroes wall times and worker pids for the same reason.
## The fuzz leg drills the same paths on repro-fuzz: a crashed task is
## retried to a byte-identical findings file, and an interrupted campaign
## exits 3 leaving its checkpoint journal, then --resume exits 0, removes
## the journal and writes the clean run's findings byte for byte.  The
## scan leg sends SIGINT to a repro-scan scan 3 s into a run far longer
## than that: it keeps no checkpoint, so it must exit 3 and write no
## findings file rather than pass a partial scan off as complete.
CHAOS_NAMES = fig4 sec3-selection table1 fig2
CHAOS_FLAGS = --jobs $(JOBS) --no-cache --stable-meta --timeout 10
CHAOS_FUZZ  = $(PY) -m repro.fuzz.cli --budget 4 --seed 1 --jobs $(JOBS) --no-corpus
chaos-smoke:
	rm -rf $(RESULTS)-chaos
	$(PY) -m repro.experiments.runner $(CHAOS_NAMES) $(CHAOS_FLAGS) --json $(RESULTS)-chaos/baseline
	$(PY) -m repro.experiments.runner $(CHAOS_NAMES) $(CHAOS_FLAGS) --json $(RESULTS)-chaos/faulted \
		--chaos "crash@fig4,hang@table1,corrupt@fig2"
	cmp $(RESULTS)-chaos/baseline/campaign.json $(RESULTS)-chaos/faulted/campaign.json
	$(PY) -m repro.experiments.runner $(CHAOS_NAMES) $(CHAOS_FLAGS) --json $(RESULTS)-chaos/resumed \
		--chaos "interrupt@fig4"; test $$? -eq 3
	test -f $(RESULTS)-chaos/resumed/campaign.checkpoint.jsonl
	$(PY) -m repro.experiments.runner $(CHAOS_NAMES) $(CHAOS_FLAGS) --json $(RESULTS)-chaos/resumed --resume
	test ! -e $(RESULTS)-chaos/resumed/campaign.checkpoint.jsonl
	cmp $(RESULTS)-chaos/baseline/campaign.json $(RESULTS)-chaos/resumed/campaign.json
	$(CHAOS_FUZZ) --out $(RESULTS)-chaos/fuzz-clean.jsonl
	$(CHAOS_FUZZ) --out $(RESULTS)-chaos/fuzz-crash.jsonl --chaos crash@3
	cmp $(RESULTS)-chaos/fuzz-clean.jsonl $(RESULTS)-chaos/fuzz-crash.jsonl
	$(CHAOS_FUZZ) --out $(RESULTS)-chaos/fuzz-resumed.jsonl --chaos interrupt@5; test $$? -eq 3
	test -f $(RESULTS)-chaos/fuzz-resumed.jsonl.checkpoint.json
	$(CHAOS_FUZZ) --out $(RESULTS)-chaos/fuzz-resumed.jsonl --resume
	test ! -e $(RESULTS)-chaos/fuzz-resumed.jsonl.checkpoint.json
	cmp $(RESULTS)-chaos/fuzz-clean.jsonl $(RESULTS)-chaos/fuzz-resumed.jsonl
	timeout --preserve-status -s INT -k 30 3 $(PY) -m repro.static.cli scan --no-corpus \
		--budget 20000 --jobs $(JOBS) --out $(RESULTS)-chaos/scan.jsonl; test $$? -eq 3
	test ! -e $(RESULTS)-chaos/scan.jsonl
	rm -rf $(RESULTS)-chaos
	@echo "chaos-smoke: crash/hang/corruption absorbed; interrupt+resume converged (experiments and fuzz); interrupted scan exited 3 with no output"

## Telemetry determinism + overhead gate (docs/observability.md): the
## same seeded targets must record byte-identical traces twice serially
## AND across --jobs 1 / --jobs $(JOBS); then the overhead guard proves
## tracing-disabled runs stay in budget while instrumentation stays live.
TRACE_TARGETS = stl case:fuzz-v1:5:12 sec4-transient
trace-smoke:
	rm -rf $(RESULTS)-trace
	$(PY) -m repro.telemetry.cli record $(TRACE_TARGETS) --jobs 1       --out $(RESULTS)-trace/serial
	$(PY) -m repro.telemetry.cli record $(TRACE_TARGETS) --jobs 1       --out $(RESULTS)-trace/again
	$(PY) -m repro.telemetry.cli record $(TRACE_TARGETS) --jobs $(JOBS) --out $(RESULTS)-trace/parallel
	for f in $(RESULTS)-trace/serial/*.trace.jsonl; do \
		cmp "$$f" "$(RESULTS)-trace/again/$$(basename $$f)" || exit 1; \
		cmp "$$f" "$(RESULTS)-trace/parallel/$$(basename $$f)" || exit 1; \
	done
	$(PY) -m repro.telemetry.overhead
	rm -rf $(RESULTS)-trace
	@echo "trace-smoke: traces deterministic across reruns and job counts; overhead in budget"

## End-to-end exploitation gate (docs/attacks.md): the seeded secret
## extraction must fully recover under "none" and measurably degrade
## under ssbd/fence (asserted by `repro-attack verify`), write
## byte-identical reports across reruns, and the three attack
## experiments must write byte-identical artifacts under --jobs 1 and
## --jobs $(JOBS).
ATTACK_NAMES = channel-capacity stl-extraction aslr-derand
ATTACK_FLAGS = --no-cache --stable-meta
attack-smoke:
	rm -rf $(RESULTS)-attack
	mkdir -p $(RESULTS)-attack
	$(PY) -m repro.attacks.cli leak --mitigation all --out $(RESULTS)-attack/leak-a.json
	$(PY) -m repro.attacks.cli leak --mitigation all --out $(RESULTS)-attack/leak-b.json
	cmp $(RESULTS)-attack/leak-a.json $(RESULTS)-attack/leak-b.json
	$(PY) -m repro.attacks.cli verify $(RESULTS)-attack/leak-a.json
	$(PY) -m repro.experiments.runner $(ATTACK_NAMES) --jobs 1       $(ATTACK_FLAGS) --json $(RESULTS)-attack/serial
	$(PY) -m repro.experiments.runner $(ATTACK_NAMES) --jobs $(JOBS) $(ATTACK_FLAGS) --json $(RESULTS)-attack/parallel
	diff -r --exclude=campaign.json $(RESULTS)-attack/serial $(RESULTS)-attack/parallel
	rm -rf $(RESULTS)-attack
	@echo "attack-smoke: full recovery unmitigated, degraded under ssbd/fence, deterministic across reruns and job counts"

## Robustness gate (docs/interference.md): the per-preset covert-channel
## curve must be byte-identical across reruns and --jobs 1 / --jobs
## $(JOBS) (the interference schedules are seeded, so noise is
## reproducible), and the adversarial preset must actually cost the
## channel throughput relative to quiet — otherwise the model is wired
## up but not biting.  A hardened Spectre-STL extraction under the
## desktop preset (one retry, so the hardened read loop runs) must also
## write byte-identical reports on two runs.
interference-smoke:
	rm -rf $(RESULTS)-interf
	$(PY) -m repro.experiments.runner robustness-channel --jobs 1       --no-cache --stable-meta --json $(RESULTS)-interf/serial
	$(PY) -m repro.experiments.runner robustness-channel --jobs 1       --no-cache --stable-meta --json $(RESULTS)-interf/again
	$(PY) -m repro.experiments.runner robustness-channel --jobs $(JOBS) --no-cache --stable-meta --json $(RESULTS)-interf/parallel
	cmp $(RESULTS)-interf/serial/robustness-channel.json $(RESULTS)-interf/again/robustness-channel.json
	diff -r --exclude=campaign.json $(RESULTS)-interf/serial $(RESULTS)-interf/parallel
	$(PY) -c "import json; m = json.load(open('$(RESULTS)-interf/serial/robustness-channel.json'))['metrics']; \
	q, a = m['quiet_goodput_bps'], m['adversarial_goodput_bps']; \
	assert a < q, f'adversarial goodput {a} not below quiet {q}'; \
	assert m['adversarial_byte_errors'] >= m['quiet_byte_errors'], 'adversarial byte errors below quiet'; \
	print(f'interference bites: quiet {q} b/s -> adversarial {a} b/s')"
	$(PY) -m repro.attacks.cli leak --mitigation none --interference desktop --out $(RESULTS)-interf/leak-a.json
	$(PY) -m repro.attacks.cli leak --mitigation none --interference desktop --out $(RESULTS)-interf/leak-b.json
	cmp $(RESULTS)-interf/leak-a.json $(RESULTS)-interf/leak-b.json
	rm -rf $(RESULTS)-interf
	@echo "interference-smoke: robustness curve deterministic across reruns and job counts; adversarial preset degrades the channel; hardened extraction deterministic"

## Static-scanner gate (docs/static-analysis.md): the corpus replay set
## plus a generated budget must scan byte-identically across a rerun and
## --jobs 1 / --jobs $(JOBS) (findings JSONL cmp'd literally), and the
## scanner-vs-oracle cross-validation must write byte-identical reports
## under --jobs 1 / --jobs $(JOBS) and report zero soundness violations
## (repro-scan crossval exits 1 on any dynamic leak the scanner missed).
scan-smoke:
	rm -rf $(RESULTS)-scan
	mkdir -p $(RESULTS)-scan
	$(PY) -m repro.static.cli scan --no-corpus --budget 10 --seed 1 --jobs 1       --out $(RESULTS)-scan/serial.jsonl
	$(PY) -m repro.static.cli scan --no-corpus --budget 10 --seed 1 --jobs 1       --out $(RESULTS)-scan/again.jsonl
	$(PY) -m repro.static.cli scan --no-corpus --budget 10 --seed 1 --jobs $(JOBS) --out $(RESULTS)-scan/parallel.jsonl
	cmp $(RESULTS)-scan/serial.jsonl $(RESULTS)-scan/again.jsonl
	cmp $(RESULTS)-scan/serial.jsonl $(RESULTS)-scan/parallel.jsonl
	$(PY) -m repro.static.cli crossval --no-corpus --budget 4 --seed 1 --jobs 1       --out $(RESULTS)-scan/crossval-serial.json
	$(PY) -m repro.static.cli crossval --no-corpus --budget 4 --seed 1 --jobs $(JOBS) --out $(RESULTS)-scan/crossval-parallel.json
	cmp $(RESULTS)-scan/crossval-serial.json $(RESULTS)-scan/crossval-parallel.json
	rm -rf $(RESULTS)-scan
	@echo "scan-smoke: findings and cross-validation reports byte-identical across reruns and job counts; cross-validation sound"

## Behaviour-equivalence gate for interpreter optimizations: recompute
## experiment/corpus/trace digests and require byte-identical results
## against benchmarks/GOLDEN.json, then hold every experiment's result to
## its paper claim (repro.bench.equivalence.PAPER_CLAIMS) — full tier,
## several minutes.  Run this before committing any change to cpu/,
## core/ or mem/ hot paths, or to attacks/ (the full golden holds every
## attack experiment).
equivalence-check:
	$(PY) -m repro.bench.equivalence --golden benchmarks/GOLDEN.json

clean-cache:
	rm -rf .repro-cache .repro-corpus
