# check runs the full CI pipeline: vet, build, race-enabled tests, the
# suite at -cpu 1,2 (and internal/classify, internal/serve at
# -cpu 1,2,4 -count=3), the observability disabled-path overhead
# benchmark and the end-to-end smoke tests.
check:
	sh ci.sh

# bench-obs additionally runs the speed gates: the BenchmarkGate* functions
# of the repository root (parallel tables, MatrixMarket ingest, feature
# memo, fleet scaling, tracing overhead, concurrent serving), each
# failing below its machine-aware bound. The end-to-end benchmark is
# perfbench/ (see perfbench/README.md).
bench-obs:
	sh ci.sh bench

.PHONY: check bench-obs
