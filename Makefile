# Development convenience targets.

PYTHON ?= python

.PHONY: install test test-slow coverage experiments report examples clean all

install:
	pip install -e .[test]

test:
	$(PYTHON) -m pytest tests/

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
