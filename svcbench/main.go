// Command svcbench is the repository's service-path benchmark. It drives
// the real service in process (server.New with the default Config, its
// Handler behind an http.Server on a loopback listener) with load from this
// process, checks every answer, and prints each metric by name, unit and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced replay reports per-layer metrics instead. See README.md.
//
// Usage (from the repository root):
//
//	bash svcbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"pyquery/internal/parallel"
)

func main() {
	name := flag.String("workload", "lookup", "workload: lookup, analytic or rw")
	seed := flag.Int64("seed", 1, "seed for the generated data and request sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced replay reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/svcbench-out", "directory for span and layer files (traced runs)")
	flag.Parse()

	w, err := makeWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	rep := newReport(out)
	reportHost(rep)
	rep.line("input workload=%s seed=%d seconds=%g trace=%d why=%q", w.Name, w.Seed, *seconds, *trace, w.Why)

	var attempted, failed int
	if *trace == 1 {
		attempted, failed, err = runTrace(w, *seconds, rep, *outDir)
	} else {
		attempted, failed, err = runLoad(w, *seconds, rep)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, rep.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// reportHost prints the host and the service's effective configuration:
// server.Config{} resolves Parallelism and MaxInflight to GOMAXPROCS,
// QueueDepth to 4×MaxInflight, QueueWait to 100ms and BatchWindow to
// 200µs.
func reportHost(rep *report) {
	workers := parallel.Workers(0)
	rep.line("host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep.line("host config=server.Config{} parallelism=%d max_inflight=%d queue_depth=%d queue_wait=100ms batch_window=200us",
		workers, workers, 4*workers)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
