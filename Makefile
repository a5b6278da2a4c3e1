# Development convenience targets.

PYTHON ?= python

.PHONY: install test test-pure test-slow deep-sweep coverage experiments report \
	examples clean all

install:
	pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

test-pure:  # tier-1 on the pure-event reference tier (CI's second tier-1 step)
	REPRO_PURE_EVENTS=1 $(PYTHON) -m pytest -x -q

deep-sweep:  # CI's blocking deep-sweep job: random programs, both tiers
	$(PYTHON) -m pytest -q -m slow --override-ini "addopts=" \
		tests/test_vectorized.py::test_random_simd_and_seam_programs_identical_deep \
		tests/test_network_pipe.py::test_random_transfer_programs_identical_deep \
		tests/test_network_pipe.py::test_random_failstop_transfer_programs_identical_deep

test-slow:
	$(PYTHON) -m pytest tests/ -m slow --override-ini "addopts="

coverage:  # needs pytest-cov (pip install -e .[cov])
	$(PYTHON) -m pytest tests/ --cov=repro.network --cov=repro.faults \
		--cov-report=term-missing --cov-fail-under=85

experiments:
	$(PYTHON) -m repro.experiments.runner --out results/

report:
	$(PYTHON) -m repro.experiments.runner --report results/report.txt

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

all: test experiments

clean:
	rm -rf results/ .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
