// Command perfbench is the repository's benchmark: the paper pipeline
// (offline) and the serving path (cold-direct, hot-fleet), measured
// from outside by timing calls to each module's public functions under
// the program's production defaults. See README.md for the workloads,
// the metrics and the correctness gates.
//
//	perfbench --workload offline|cold-direct|hot-fleet --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. It is run from the
// repository root; run.sh builds it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outDir holds everything a run leaves behind (artifacts, spans, the
// trajectory); it sits inside the checkout's ignored build directory.
const outDir = ".bench_build/perfbench"

// The end-to-end metrics, printed by every workload with --trace 0.
// BENCHMARK.json lists the same names, units and bounds.
const (
	mSetup      = "setup_s"
	mCorpus     = "corpus_s"
	mCV         = "cv_s"
	mP50        = "latency_p50_ms"
	mP99        = "latency_p99_ms"
	mThroughput = "throughput_pps"
	mSuccess    = "success_ratio"
	mRSS        = "peak_rss_mb"
)

var endToEndUnits = map[string]string{
	mSetup: "s", mCorpus: "s", mCV: "s", mP50: "ms", mP99: "ms",
	mThroughput: "predictions/s", mSuccess: "ratio", mRSS: "MiB",
}

// perLayerUnits lists the per-layer metrics, printed by every workload
// with --trace 1. A layer the workload never calls reads 0.
var perLayerUnits = map[string]string{
	"dataset.generate_s": "s", "dataset.items": "count",
	"features.extract_s": "s", "features.extract_us_p50": "us",
	"gpusim.profile_s": "s", "gpusim.label_s": "s", "gpusim.infeasible": "count",
	"classify.images_s": "s",
	"classify.fit_dt_s": "s", "classify.fit_rf_s": "s", "classify.fit_svm_s": "s",
	"classify.fit_knn_s": "s", "classify.fit_xgboost_s": "s", "classify.fit_cnn_s": "s",
	"preprocess.fit_s":     "s",
	"cluster.kmeans_fit_s": "s", "cluster.birch_fit_s": "s", "cluster.meanshift_fit_s": "s",
	"semisup.train_vote_s": "s", "semisup.train_lr_s": "s", "semisup.train_rf_s": "s",
	"eval.table4_s": "s", "eval.table5_s": "s", "eval.table6_s": "s", "eval.table7_s": "s",
	"eval.cells":          "count",
	"sparse.parse_us_p50": "us", "sparse.parse_mb_s": "MB/s",
	"sparse.stream_speedup": "ratio", "sparse.parse_allocs": "count",
	"serve.tracing_overhead_ratio": "ratio",
	"serve.predict_us_p50":         "us", "serve.handler_us_p50": "us", "serve.http_us_p50": "us",
	"serve.batch_item_us_p50": "us",
	"serve.cache_hit_ratio":   "ratio", "serve.cache_lookups": "count",
	"serve.featmemo_hit_ratio": "ratio", "serve.featmemo_lookups": "count",
	"serve.rejected": "count", "serve.errors": "count",
	"registry.feedback_accepted_ratio": "ratio", "registry.feedback_reports": "count",
	"proxy.hop_us_p50": "us", "proxy.hedges": "count", "proxy.retries": "count",
	"proxy.hedge_win_ratio": "ratio",
	"bench.gen_lag_p99_ms":  "ms", "bench.trace_overhead_ratio": "ratio",
	"bench.latency_samples": "count", "bench.pattern_recur_ratio": "ratio",
	"bench.steal_ratio": "ratio",
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// corrupt corrupts the expected answers and the recorded digest so the
	// run must fail its gate: the correctness self-test.
	corrupt bool
	// started is when the process started, recorded in the provenance.
	started time.Time
}

// report is what a workload measured.
type report struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	ops      tally
	// gateErr is the first correctness-gate failure (nil = correct);
	// load goroutines report concurrently.
	gateMu  sync.Mutex
	gateErr error
	// notes are human-readable lines printed before the result.
	notes []string
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a correctness failure; the first one wins.
func (r *report) gate(err error) {
	r.gateMu.Lock()
	defer r.gateMu.Unlock()
	if err != nil && r.gateErr == nil {
		r.gateErr = err
	}
}

// gateFailure returns the first correctness-gate failure.
func (r *report) gateFailure() error {
	r.gateMu.Lock()
	defer r.gateMu.Unlock()
	return r.gateErr
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*report, error){
	"offline":     runOffline,
	"cold-direct": runColdDirect,
	"hot-fleet":   runHotFleet,
}

func main() {
	started := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "offline, cold-direct or hot-fleet")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds per run (the load phases of the online workloads)")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	corrupt := fs.Bool("corrupt-expected", false, "self-test: corrupt the expected answers; the run must fail")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, corrupt: *corrupt, started: started}
	if err := execute(cfg, run); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// execute runs one workload and prints its provenance, notes and
// result. A failed correctness gate prints the result with correct
// false and still returns an error, so the exit code says it too.
func execute(cfg runConfig, run func(runConfig) (*report, error)) error {
	steal0, total0 := cpuTicks()
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	steal1, total1 := cpuTicks()
	if total1 > total0 {
		rep.perLayer["bench.steal_ratio"] = float64(steal1-steal0) / float64(total1-total0)
	}
	rep.endToEnd[mRSS] = peakRSSMiB()
	attempted, failed, firstErr := rep.ops.counts()
	rep.endToEnd[mSuccess] = 1 - rep.ops.errorRate()
	if attempted < 1 {
		return errors.New("no operation was attempted")
	}

	names, units := endToEndUnits, rep.endToEnd
	if cfg.trace {
		names, units = perLayerUnits, rep.perLayer
	}
	gateErr := rep.gateFailure()
	res := result{Correct: gateErr == nil, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	for name, unit := range names {
		res.Metrics[name] = metricValue{Value: units[name], Unit: unit}
	}

	prov := provenance(cfg)
	prov["steal_ratio"] = rep.perLayer["bench.steal_ratio"]
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	line, err := json.Marshal(map[string]any{"provenance": prov, "end_to_end": rep.endToEnd, "per_layer": rep.perLayer,
		"attempted": attempted, "failed": failed, "trace": cfg.trace})
	if err != nil {
		return err
	}
	fmt.Printf("# run %s\n", line)
	if err := appendTrajectory(line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: trajectory not written: %v\n", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		// Failures are measured (success_ratio), not fatal.
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", failed, attempted, firstErr)
	}
	if gateErr != nil {
		return fmt.Errorf("correctness gate failed: %w", gateErr)
	}
	return nil
}

// provenance identifies the code, host and run a result came from.
func provenance(cfg runConfig) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"host":          host,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"time":          cfg.started.UTC().Format(time.RFC3339),
	}
}

// gitCommit resolves HEAD from a .git directory in the working
// directory, without running git ("none" outside a clone).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources (go.mod, cmd/,
// internal/), naming the code version where no git metadata exists.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// appendTrajectory appends one run's line to the local trajectory, so
// successive runs accumulate instead of overwriting a snapshot.
func appendTrajectory(line []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "trajectory.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTicks reads the machine's cumulative CPU time stolen by the
// hypervisor and its total CPU time, in ticks, from /proc/stat (zeros
// where that is unavailable). Their ratio over a run says how much of
// the run's noise came from outside the program.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB. Off
// Linux it falls back to the Go runtime's total mapped memory.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
