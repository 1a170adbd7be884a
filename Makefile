# check runs the full CI pipeline: vet, build, race-enabled tests, the
# suite at -cpu 1,2, the observability disabled-path overhead benchmark
# and the end-to-end smoke tests.
check:
	sh ci.sh

# bench-obs additionally regenerates the committed BENCH_obs.json and
# BENCH_parallel.json perf baselines (instrumented paper-scale
# `table -n 9` run, then `benchpar` with its identical-output and
# speedup gates).
bench-obs:
	sh ci.sh bench

# bench-parallel regenerates only BENCH_parallel.json: tables 3-8 at one
# worker vs eight, byte-compared and speedup-gated.
bench-parallel:
	go run ./cmd/spmvselect benchpar -workers 8 -out BENCH_parallel.json

# bench-serve regenerates BENCH_serve.json: the same matrices served
# one request at a time vs through /v1/predict/batch, gated so the
# batch path never regresses below sequential serving (and must beat it
# 2x on hosts with >= 4 CPUs), plus the feature-memo on/off columns
# (repeat-body p50 and hit rate; memoized answers must equal computed
# ones).
bench-serve:
	go run ./cmd/spmvselect benchserve -out BENCH_serve.json

# bench-parse regenerates BENCH_parse.json: the streaming MatrixMarket
# reader vs the byte-slice fast path over the same bodies, hard-failing
# on any bitwise CSR difference and gated at 3x speedup and <= 10% of
# the streaming reader's allocations.
bench-parse:
	go run ./cmd/spmvselect benchparse -out BENCH_parse.json

# bench-fleet regenerates BENCH_fleet.json: the same request mix through
# the consistent-hash proxy over one serial replica vs the full fleet,
# hard-failing when any proxied answer differs byte-for-byte from a
# direct replica answer, gated at 0.5x-per-replica scaling on hosts with
# more cores than replicas (not-pathologically-slower elsewhere).
bench-fleet:
	go run ./cmd/spmvselect benchfleet -out BENCH_fleet.json

.PHONY: check bench-obs bench-parallel bench-serve bench-parse bench-fleet
