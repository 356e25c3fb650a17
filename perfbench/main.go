// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the public API the way a user does — the model
// zoo, goldeneye.NewSimulator, RunCampaignParallel, the campaign daemon
// (server.New), the fleet coordinator (fleet.New/fleet.Serve) and its
// client — and measures each layer from outside, through spans around
// those calls and the telemetry the program already exports. It adds no
// instrumentation to the program itself.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	bash perfbench/run.sh --workload cnn-deep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 the run alternates untraced and
// traced repetitions and reports the per-layer set (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result is the benchmark's contract with its caller: the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one named input set. run measures it for the given window
// and returns the end-to-end figures. When tr is non-nil it traces every
// other repetition and also returns the traced repetitions' end-to-end
// figures and the per-layer ones derived from the trace.
type workload interface {
	run(ctx context.Context, env *env, tr *tracer) (*outcome, error)
}

// env is what every workload shares: its on-disk state and seed.
type env struct {
	seed    uint64
	window  time.Duration
	zooDir  string
	histDir string // pristine fleet history, written by prepare
	workDir string // per-run scratch, removed on exit
}

// outcome is one measured window of a workload.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]metric // untraced repetitions
	tracedEndToEnd    map[string]metric // traced repetitions; nil unless traced
	perLayer          map[string]metric // nil unless traced
}

var workloads = map[string]workload{
	"cnn-deep":    cnnDeep,
	"vit-shallow": vitShallow,
	"fleet-jobs":  fleetJobs{},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	root := flag.String("root", ".", "checkout root; all state lives under <root>/.bench_build")
	name := flag.String("workload", "", "workload name: cnn-deep, vit-shallow or fleet-jobs")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured window per pass, in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := filepath.Join(*root, ".bench_build")
	e := &env{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		zooDir:  filepath.Join(build, "zoo"),
		histDir: filepath.Join(build, "history"),
		workDir: filepath.Join(build, "run", fmt.Sprintf("%s-%d", *name, os.Getpid())),
	}
	if err := prepare(ctx, e); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.workDir)

	host := hostFingerprint()
	printJSON(map[string]any{"host": host})

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	out, err := w.run(ctx, e, tr)
	if err != nil {
		return err
	}
	metrics := out.endToEnd
	if tr != nil {
		printJSON(map[string]any{"untraced": out.endToEnd, "traced": out.tracedEndToEnd})
		metrics = out.perLayer
		metrics["trace.overhead_frac"] = metric{overheadFrac(out.endToEnd, out.tracedEndToEnd), "frac"}
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path, host); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	printJSON(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	return nil
}

// overheadFrac is the tracing overhead: how much slower the traced
// repetitions ran than the untraced ones they alternated with, by median
// injection rate and by median job latency, each as a fraction of the
// untraced figure (the larger of the two).
func overheadFrac(plain, traced map[string]metric) float64 {
	rate := 1 - traced["inj_per_s"].Value/plain["inj_per_s"].Value
	lat := traced["job_s_p50"].Value/plain["job_s_p50"].Value - 1
	return max(rate, lat)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is plain data
	}
	fmt.Println(string(b))
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  model,
		"go_version": runtime.Version(),
	}
}

var errWrongReport = errors.New("report differs from its reference")
