# Convenience targets for the NobLSM reproduction.

PYTHON ?= python

# Every repro invocation — tests, benches, gates — runs with the source
# tree on PYTHONPATH through this one variable. Targets must not spell
# PYTHONPATH out by hand; tests/test_makefile_pythonpath.py enforces it.
RUN = PYTHONPATH=src $(PYTHON)

.PHONY: install test test-fast figures perf-gate refresh-baselines \
	profile clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(RUN) -m pytest tests/

test-fast:
	$(RUN) -m pytest tests/ -x -q --ignore=tests/property

figures:
	$(RUN) -m repro.bench all

# The regression gates. Each gate's CI size, invariants, compare metrics
# and baseline files are one record in src/repro/bench/targets.py.
# `make <target>-gate` runs it the way CI does into results/<target>-gate/
# and fails on any problem; `make refresh-<target>-baseline` re-records
# its baseline after a deliberate behaviour change (the simulation is
# deterministic, so commit the refreshed files with the change that
# explains them). perf-gate and refresh-baselines do every gate.
%-gate:
	$(RUN) -m repro.bench gate $*

refresh-%-baseline:
	$(RUN) -m repro.bench refresh $*

perf-gate:
	$(RUN) -m repro.bench gate

refresh-baselines:
	$(RUN) -m repro.bench refresh

# Profile the fillrandom hot path: writes a cProfile dump and prints
# the top frames by cumulative time. Start here before optimising.
profile:
	mkdir -p results/profile
	$(RUN) -m cProfile -o results/profile/fillrandom.pstats \
		-m repro.bench fillrandom
	$(RUN) -c "import pstats; \
		pstats.Stats('results/profile/fillrandom.pstats') \
		.sort_stats('cumulative').print_stats(30)"

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
